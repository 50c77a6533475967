"""Gopher/C4-style repetition & word-quality signals — stateless vectorized
map_batches stage (no shuffle: every signal is per-document).

Re-expresses the repetition filters of Rae et al. 2021 ("Scaling Language
Models: ... Gopher", Table A1) over the ``documents`` table:

- ``top{n}_char_frac``  — fraction of characters covered by the most
  frequent word n-gram (most frequent = max occurrence count, ties broken
  by larger gram length; both sides of the oracle use the same rule).
- ``dup{n}_char_frac``  — fraction of characters covered by word n-grams
  that occur more than once (each occurrence counted in full; overlapping
  character spans are NOT de-overlapped — a documented simplification of
  Gopher's char-marking that keeps the statistic SQL-expressible).
- ``n_words`` / ``mean_word_len`` — token count and mean token length.

Character coverage of one n-gram occurrence = sum of its token lengths +
(n-1) separator chars, i.e. ``length(array_to_string(toks[i:i+n-1], ' '))``
in the DuckDB oracle.  Tokens are the ``\\S+`` runs of the text (UTF-8
chars, not bytes).

Everything is computed off the Arrow buffers: token hashes via the
polynomial hash in ``stages/neardup.py`` (no per-token Python), n-gram
grouping via one ``np.lexsort`` per (batch, n) — no Python loops over rows,
tokens, or grams.  At 100 TB this stage is embarrassingly parallel: no
shuffle, output one narrow row per document.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.functions.bucketed import _poly_sums
from great_expectations_ray.stages.neardup import _concat_aranges

_GRAM_MIX = np.uint64(0x9E3779B97F4A7C15)  # per-position mixing base

# pack (count, len) into one int64 so a single maximum.reduceat picks the
# (count DESC, len DESC) winner; 21 bits of gram length, 42 bits of count
_LEN_BITS = 21
_LEN_MASK = (1 << _LEN_BITS) - 1


def _round6(x: np.ndarray) -> np.ndarray:
    """round-half-away-from-zero at 6 decimals (SQL ROUND semantics —
    np.round's half-even ties disagree with DuckDB on exact .5 values,
    e.g. 18/256 = 0.0703125)."""
    return np.floor(np.asarray(x, dtype=np.float64) * 1e6 + 0.5) / 1e6


def _doc_first_index(sorted_doc: np.ndarray, n_docs: int) -> tuple[np.ndarray, np.ndarray]:
    """(first_idx, has_any) — first position of each doc id in a sorted
    doc-id array; docs with no entries get has_any=False."""
    first = np.searchsorted(sorted_doc, np.arange(n_docs), side="left")
    has = first < len(sorted_doc)
    if len(sorted_doc):
        has &= sorted_doc[np.minimum(first, len(sorted_doc) - 1)] == np.arange(n_docs)
    return first, has


def tokenize_nonempty(
    text: pa.Array | pa.ChunkedArray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(tok_hash u64, tok_len chars, tok_doc, counts-per-doc) for the \\S+
    token runs of a batch — THE single source of token semantics shared by
    the repetition signals and decontamination grams."""
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    text = pc.fill_null(text, "")
    n_docs = len(text)
    # tokens = \S+ runs: split on \s+ then drop empties (identical order)
    tokens = pc.split_pattern_regex(pc.cast(text, pa.string()), r"\s+")
    flat = tokens.values
    tok_counts_raw = np.asarray(pc.list_value_length(tokens), dtype=np.int64)
    tok_lens_raw = np.asarray(pc.utf8_length(flat), dtype=np.int64)
    tok_doc_raw = np.repeat(np.arange(n_docs, dtype=np.int64), tok_counts_raw)
    keep = tok_lens_raw > 0
    if keep.any():
        tok_hash = _poly_sums(flat)[0][keep]
        tok_len = tok_lens_raw[keep]
        tok_doc = tok_doc_raw[keep]
    else:
        tok_hash = np.empty(0, dtype=np.uint64)
        tok_len = np.empty(0, dtype=np.int64)
        tok_doc = np.empty(0, dtype=np.int64)
    counts = np.bincount(tok_doc, minlength=n_docs).astype(np.int64)
    return tok_hash, tok_len, tok_doc, counts


def ngram_windows(
    tok_hash: np.ndarray, tok_doc: np.ndarray, counts: np.ndarray,
    pos: np.ndarray, n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(window start indices, rolling gram hash) for word n-grams that stay
    inside one document — shared gram semantics (same _GRAM_MIX rolling
    combine everywhere, so repetition stats, decontamination and their SQL
    oracles agree on what an n-gram is)."""
    win = np.flatnonzero(pos + n <= counts[tok_doc])
    g = np.zeros(len(win), dtype=np.uint64)
    for j in range(n):
        np.multiply(g, _GRAM_MIX, out=g)
        g += tok_hash[win + j]
    return win, g


def word_repetition_stats(
    text: pa.Array | pa.ChunkedArray,
    *,
    top_ns: tuple[int, ...] = (2, 3, 4),
    dup_ns: tuple[int, ...] = (5,),
) -> dict[str, np.ndarray]:
    """Per-row repetition signals for a batch of documents.

    Returns a dict of float64/int64 arrays keyed by column name
    (``n_words``, ``mean_word_len``, ``top{n}_char_frac``,
    ``dup{n}_char_frac``)."""
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    text = pc.fill_null(text, "")
    n_docs = len(text)
    total_chars = np.asarray(pc.utf8_length(text), dtype=np.int64)
    tok_hash, tok_len, tok_doc, counts = tokenize_nonempty(text)

    out: dict[str, np.ndarray] = {}
    out["n_words"] = counts
    # per-doc length sums via cumsum-diff over the token stream
    cum_len = np.concatenate(([0], np.cumsum(tok_len, dtype=np.int64)))
    firsts = np.zeros(n_docs, dtype=np.int64)
    np.cumsum(counts[:-1], out=firsts[1:])
    len_sums = cum_len[firsts + counts] - cum_len[firsts]
    with np.errstate(invalid="ignore", divide="ignore"):
        out["mean_word_len"] = _round6(
            np.where(counts > 0, len_sums / np.maximum(counts, 1), 0.0)
        )

    safe_total = np.maximum(total_chars, 1)
    pos = _concat_aranges(counts)  # position of each token within its doc

    for n in sorted(set(top_ns) | set(dup_ns)):
        win, g = ngram_windows(tok_hash, tok_doc, counts, pos, n)
        if len(win):
            glen = cum_len[win + n] - cum_len[win] + (n - 1)
            gdoc = tok_doc[win]
            order = np.lexsort((g, gdoc))
            sg, sd, sl = g[order], gdoc[order], glen[order]
            boundary = np.empty(len(sg), dtype=bool)
            boundary[0] = True
            boundary[1:] = (sg[1:] != sg[:-1]) | (sd[1:] != sd[:-1])
            run_starts = np.flatnonzero(boundary)
            run_counts = np.diff(np.append(run_starts, len(sg)))
            run_doc = sd[run_starts]
            run_len = sl[run_starts]
            run_cov = run_counts * run_len
            first_run, has_run = _doc_first_index(run_doc, n_docs)
        else:
            has_run = np.zeros(n_docs, dtype=bool)

        if n in top_ns:
            top = np.zeros(n_docs, dtype=np.float64)
            if has_run.any():
                key = (run_counts << _LEN_BITS) | run_len
                best = np.maximum.reduceat(key, first_run[has_run])
                top[has_run] = (best >> _LEN_BITS) * (best & _LEN_MASK)
            out[f"top{n}_char_frac"] = _round6(top / safe_total)
        if n in dup_ns:
            dup = np.zeros(n_docs, dtype=np.float64)
            if has_run.any():
                contrib = np.where(run_counts >= 2, run_cov, 0)
                dup[has_run] = np.add.reduceat(contrib, first_run[has_run])
            out[f"dup{n}_char_frac"] = _round6(dup / safe_total)
    return out


def repetition_stats_batch(
    tbl: pa.Table,
    *,
    text_col: str = "text",
    id_cols: tuple[str, ...] = ("doc_id",),
    top_ns: tuple[int, ...] = (2, 3, 4),
    dup_ns: tuple[int, ...] = (5,),
) -> pa.Table:
    """map_batches(batch_format="pyarrow") adapter: id columns + signals."""
    stats = word_repetition_stats(tbl.column(text_col), top_ns=top_ns, dup_ns=dup_ns)
    cols = {c: tbl.column(c) for c in id_cols}
    for k, v in stats.items():
        cols[k] = pa.array(v)
    return pa.table(cols)
