"""Distributed BPE tokenizer training over a document corpus.

Classic Sennrich-style byte-pair-encoding learned from WORD FREQUENCIES
(the shape every production trainer uses — HF tokenizers / sentencepiece
count words first, then run the merge loop over the bounded word-frequency
dict, because the dict is Zipf-small relative to the corpus):

1. **Distributed word counting** — one streaming pass: per-batch Arrow
   regex split + ``value_counts`` (map-side pre-combine), then ONE bucketed
   exchange summing counts per word.  This is the only corpus-sized step
   and it ships (word, partial-count) pairs, not text.
2. **Bounded top-K cut** — each bucket emits only its ``max_words``
   most-frequent words (count desc, word asc — deterministic), so the
   driver pull is ≤ ``n_buckets × max_words`` rows and typically ≈ vocab.
   Training on the top-K word dict is the standard practice, not an
   approximation knob invented here; rare tail words cannot win a merge
   whose count threshold exceeds their total mass anyway.
3. **Driver-local merge loop** — incremental pair-count maintenance (a
   pair → affected-words index), so each round costs O(words touched by
   the winning merge), not O(dict).  Ties break deterministically: highest
   count, then lexicographically smallest (left, right).

Apply-side, :func:`apply_bpe` broadcasts the learned merge ranks once via
``ray.put`` and encodes batches with one instance per worker (fetch in
``__init__``, ``stages._per_worker``).

Pre-tokenization spec (shared with the oracle fixture): split on runs of
ASCII whitespace ``[ \\t\\n\\r\\f\\v]``; a word's initial symbols are its
unicode CHARACTERS (Sennrich character-level BPE).  Merged symbols are
concatenations, so a learned pair is rendered ``left + " " + right``
(words contain no spaces).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.stages._per_worker import map_per_worker

_WS_SPLIT = "[ \t\n\r\f\v]+"


def distributed_word_counts(
    ds,
    *,
    text_col: str = "content",
    max_words: int = 30_000,
    n_buckets: int = 64,
    max_driver_rows: int = 4_000_000,
):
    """(word, cnt) Dataset: per-batch Arrow split + value_counts pre-combine,
    one bucketed sum exchange, per-bucket deterministic top-``max_words``.

    Driver fast path: the per-batch ``value_counts`` pre-combine bounds the
    unmerged partials at (distinct words per batch) x (batches); when their
    total is at most ``max_driver_rows`` the exchange is pure fixed cost, so
    we concat + ``group_by`` sum driver-side and cut the global
    top-``max_words`` directly.  Bit-identical to the exchange path: both
    compute exact integer global sums, and a word in the global top-K is by
    definition in its bucket's top-K (at most K words beat it anywhere), so
    the per-bucket cut never drops a survivor of the callers' final cut."""
    from great_expectations_ray.functions.bucketed import (
        grouped_apply_bucketed,
        sum_by_key,
    )

    def word_counts(tbl: pa.Table) -> pa.Table:
        text = pc.fill_null(tbl.column(text_col).combine_chunks(), "")
        toks = pc.split_pattern_regex(text, _WS_SPLIT)
        flat = toks.combine_chunks().flatten() if isinstance(
            toks, pa.ChunkedArray) else toks.flatten()
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = flat.value_counts()
        return pa.table({
            "word": vc.field("values"),
            "cnt": pc.cast(vc.field("counts"), pa.int64()),
        })

    def sum_and_cut(t: pa.Table) -> pa.Table:
        tot = sum_by_key(t, ["word"], "cnt")
        # exact global top-K needs each bucket's own top-K; deterministic cut
        return tot.sort_by([("cnt", "descending"), ("word", "ascending")]
                           ).slice(0, max_words)

    wc = ds.select_columns([text_col]).map_batches(
        word_counts, batch_format="pyarrow", zero_copy_batch=True
    )
    mat = wc.materialize()
    if mat.count() <= max_driver_rows:
        import ray
        import ray.data as rd

        blocks = [b for b in (ray.get(r) for r in mat.to_arrow_refs())
                  if b.num_rows]
        if not blocks:
            return mat
        return rd.from_arrow(sum_and_cut(
            pa.concat_tables(blocks, promote_options="default")))
    return grouped_apply_bucketed(mat, ["word"], sum_and_cut,
                                  n_buckets=n_buckets)


def _merge_loop(
    words: dict[str, int],
    *,
    num_merges: int,
    min_pair_count: int,
) -> list[tuple[int, str, str, int]]:
    """Incremental BPE merge loop over a word-frequency dict.

    Returns [(rank, left, right, count_at_merge)].  Deterministic: winning
    pair = max count, ties -> lexicographically smallest (left, right).
    """
    # word id -> (symbol list, count); pair -> total count; pair -> {word ids}
    seqs: list[list[str]] = []
    counts: list[int] = []
    for w, c in words.items():
        seqs.append(list(w))
        counts.append(int(c))

    pair_counts: dict[tuple[str, str], int] = {}
    pair_words: dict[tuple[str, str], set[int]] = {}
    for wi, syms in enumerate(seqs):
        c = counts[wi]
        for j in range(len(syms) - 1):
            p = (syms[j], syms[j + 1])
            pair_counts[p] = pair_counts.get(p, 0) + c
            pair_words.setdefault(p, set()).add(wi)

    merges: list[tuple[int, str, str, int]] = []
    for rank in range(num_merges):
        if not pair_counts:
            break
        best_c = max(pair_counts.values())
        if best_c < min_pair_count:
            break
        best = min(p for p, c in pair_counts.items() if c == best_c)
        merges.append((rank, best[0], best[1], best_c))
        new_sym = best[0] + best[1]
        affected = pair_words.pop(best, set())
        pair_counts.pop(best, None)
        for wi in affected:
            syms = seqs[wi]
            c = counts[wi]
            # subtract this word's current pair contributions, rebuild, re-add
            for j in range(len(syms) - 1):
                p = (syms[j], syms[j + 1])
                if p == best:
                    continue
                left = pair_counts.get(p)
                if left is not None:
                    left -= c
                    if left <= 0:
                        pair_counts.pop(p, None)
                        ws = pair_words.get(p)
                        if ws is not None:
                            ws.discard(wi)
                            if not ws:
                                pair_words.pop(p, None)
                    else:
                        pair_counts[p] = left
            merged: list[str] = []
            j = 0
            while j < len(syms):
                if (j < len(syms) - 1 and syms[j] == best[0]
                        and syms[j + 1] == best[1]):
                    merged.append(new_sym)
                    j += 2
                else:
                    merged.append(syms[j])
                    j += 1
            seqs[wi] = merged
            for j in range(len(merged) - 1):
                p = (merged[j], merged[j + 1])
                if p == best:
                    continue
                pair_counts[p] = pair_counts.get(p, 0) + c
                pair_words.setdefault(p, set()).add(wi)
    return merges


def train_bpe(
    ds,
    *,
    text_col: str = "content",
    num_merges: int = 200,
    max_words: int = 30_000,
    min_pair_count: int = 2,
    n_buckets: int = 64,
) -> pd.DataFrame:
    """Learn BPE merges from a Dataset.  Returns a DataFrame with columns
    (rank, left, right, cnt) — cnt is the pair's frequency when merged."""
    wc = distributed_word_counts(
        ds, text_col=text_col, max_words=max_words, n_buckets=n_buckets
    )
    df = wc.to_pandas(limit=max(n_buckets, 1) * max_words)
    if len(df) == 0:
        return pd.DataFrame({
            "rank": pd.Series([], dtype="int64"),
            "left": pd.Series([], dtype="object"),
            "right": pd.Series([], dtype="object"),
            "cnt": pd.Series([], dtype="int64"),
        })
    df = df.sort_values(["cnt", "word"], ascending=[False, True],
                        kind="mergesort").head(max_words)
    words = dict(zip(df["word"], df["cnt"]))
    merges = _merge_loop(words, num_merges=num_merges,
                         min_pair_count=min_pair_count)
    return pd.DataFrame(merges, columns=["rank", "left", "right", "cnt"]).astype(
        {"rank": "int64", "cnt": "int64"}
    )


def encode_word(word: str, ranks: dict[tuple[str, str], int]) -> list[str]:
    """Encode one word with learned merge ranks (lowest rank merges first)."""
    syms = list(word)
    while len(syms) > 1:
        best_rank: Optional[int] = None
        best_j = -1
        for j in range(len(syms) - 1):
            r = ranks.get((syms[j], syms[j + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_j = r, j
        if best_rank is None:
            break
        syms[best_j : best_j + 2] = [syms[best_j] + syms[best_j + 1]]
    return syms


def apply_bpe(
    ds,
    merges: pd.DataFrame,
    *,
    text_col: str = "content",
    id_col: str,
    keep_cols: tuple[str, ...] = (),
):
    """Per-doc token counts under the learned tokenizer: broadcast the merge
    ranks once (``ray.put``), encode with a per-worker word cache (Zipf makes the cache hit rate high).  Returns a Dataset of
    (id_col, *keep_cols, bpe_tokens)."""
    import ray

    ranks = {(l, r): int(k) for k, l, r in
             zip(merges["rank"], merges["left"], merges["right"])}
    ref = ray.put(ranks)

    class _Encoder:
        def __init__(self):
            self.ranks = ray.get(ref)
            self.cache: dict[str, int] = {}

        def __call__(self, tbl: pa.Table) -> pa.Table:
            text = pc.fill_null(tbl.column(text_col).combine_chunks(), "")
            toks = pc.split_pattern_regex(text, _WS_SPLIT)
            if isinstance(toks, pa.ChunkedArray):
                toks = toks.combine_chunks()
            out = np.zeros(tbl.num_rows, dtype=np.int64)
            lists = toks.to_pylist()
            for i, row in enumerate(lists):
                n = 0
                for w in row:
                    if not w:
                        continue
                    c = self.cache.get(w)
                    if c is None:
                        c = len(encode_word(w, self.ranks))
                        self.cache[w] = c
                    n += c
                out[i] = n
            cols = {id_col: tbl.column(id_col)}
            for c in keep_cols:
                cols[c] = tbl.column(c)
            cols["bpe_tokens"] = pa.array(out)
            return pa.table(cols)

    return map_per_worker(ds.select_columns([id_col, *keep_cols, text_col]),
                          _Encoder, batch_format="pyarrow", zero_copy_batch=True)
