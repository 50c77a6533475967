"""Distributed WordPiece tokenizer training + greedy longest-match apply.

Completes the trained-tokenizer family triad next to :mod:`stages/bpe_train`
(Sennrich BPE) and :mod:`stages/unigram` (SentencePiece-style unigram LM).
WordPiece (Schuster & Nakajima 2012; the BERT tokenizer) differs from BPE in
exactly two public, well-documented ways:

1. **Training** picks the merge that maximizes *likelihood gain*, not raw
   pair frequency: score(a, b) = cnt(ab) / (cnt(a) * cnt(b)), where cnt(x)
   is the total occurrence count of symbol ``x`` across the current
   segmentations.  Continuation symbols carry the ``##`` prefix (a word's
   first character is bare, every later character starts as ``##c``), and a
   merged piece keeps the left symbol's prefix: ``a + strip_prefix(b)``.
2. **Application** is greedy longest-match-first over the learned vocab
   (HF ``WordPieceTokenizer`` / BERT ``max_chars_per_word`` semantics): take
   the longest vocab prefix, then continue matching ``##``-prefixed pieces;
   if at any point no piece matches, the WHOLE word becomes one ``[UNK]``.

Pipeline shape is shared with the siblings: the ONLY corpus-sized step is
the distributed word-count exchange (:func:`bpe_train.distributed_word_counts`
— map-side ``value_counts`` pre-combine, one bucketed sum, bounded top-K
cut); training runs on the driver over the Zipf-small word dict; application
broadcasts the vocab once (``ray.put``) with a per-worker
word cache.

Determinism spec (shared with the independent fixture oracle in
tools/gen_oracle_fixtures.py, which re-implements it naively — full pair
recount per round vs this module's incremental index):

- score comparison is EXACT over integers via cross-multiplication:
  ``score(p) > score(q)  iff  cnt_p * cnt(q_a) * cnt(q_b) >
  cnt_q * cnt(p_a) * cnt(p_b)`` — no float enters any decision.
- ties break by higher pair count, then lexicographically smallest
  ``(left, right)``.
- a merge must have pair count >= ``min_pair_count``.
- vocab rank order: seed symbols sorted ascending first, then merged pieces
  in merge order.

Reference parity note: the reference repo has no tokenizer trainer; this
operator exists for the training-data-pipeline surface (north rule).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.stages._per_worker import map_per_worker
from great_expectations_ray.stages.bpe_train import (
    _WS_SPLIT,
    distributed_word_counts,
)

UNK = "[UNK]"
_CONT = "##"


def _word_symbols(word: str) -> list[str]:
    """Initial WordPiece symbols of a word: first char bare, rest ##-prefixed."""
    return [word[0]] + [_CONT + ch for ch in word[1:]]


def _merge_symbol(a: str, b: str) -> str:
    """Merged piece keeps the left symbol's prefix."""
    return a + (b[len(_CONT):] if b.startswith(_CONT) else b)


def _score_better(
    cp: int, ca: int, cb: int, best_cp: int, best_ca: int, best_cb: int
) -> bool:
    """Exact fraction compare: cp/(ca*cb) > best_cp/(best_ca*best_cb)."""
    return cp * best_ca * best_cb > best_cp * ca * cb


def wordpiece_merge_loop(
    words: dict[str, int],
    *,
    num_merges: int,
    min_pair_count: int = 2,
) -> tuple[list[tuple[str, int]], list[tuple[int, str, str, str, int]]]:
    """Driver-local WordPiece merge loop over a word-frequency dict.

    Returns ``(seed_symbols, merges)`` where ``seed_symbols`` is
    ``[(symbol, initial_count)]`` sorted ascending and ``merges`` is
    ``[(rank, left, right, piece, pair_count_at_merge)]`` in merge order.
    Incremental pair/symbol count maintenance (pair -> affected-word index),
    mirroring bpe_train._merge_loop; the fixture oracle recounts from scratch
    each round, so agreement is a real differential check.
    """
    seqs: list[list[str]] = []
    counts: list[int] = []
    for w, c in words.items():
        if w:
            seqs.append(_word_symbols(w))
            counts.append(int(c))

    sym_counts: dict[str, int] = {}
    pair_counts: dict[tuple[str, str], int] = {}
    pair_words: dict[tuple[str, str], set[int]] = {}
    for wi, syms in enumerate(seqs):
        c = counts[wi]
        for s in syms:
            sym_counts[s] = sym_counts.get(s, 0) + c
        for j in range(len(syms) - 1):
            p = (syms[j], syms[j + 1])
            pair_counts[p] = pair_counts.get(p, 0) + c
            pair_words.setdefault(p, set()).add(wi)

    seeds = sorted(sym_counts.items())
    merges: list[tuple[int, str, str, str, int]] = []
    for rank in range(num_merges):
        best = None  # (pair, cp, ca, cb)
        for p, cp in pair_counts.items():
            if cp < min_pair_count:
                continue
            ca = sym_counts[p[0]]
            cb = sym_counts[p[1]]
            if best is None:
                best = (p, cp, ca, cb)
                continue
            if _score_better(cp, ca, cb, best[1], best[2], best[3]):
                best = (p, cp, ca, cb)
            elif not _score_better(best[1], best[2], best[3], cp, ca, cb):
                # exact tie on score: higher pair count, then lexicographic
                if (-cp, p) < (-best[1], best[0]):
                    best = (p, cp, ca, cb)
        if best is None:
            break
        (bl, br), bc = best[0], best[1]
        new_sym = _merge_symbol(bl, br)
        merges.append((rank, bl, br, new_sym, bc))

        affected = pair_words.pop((bl, br), set())
        pair_counts.pop((bl, br), None)
        for wi in affected:
            syms = seqs[wi]
            c = counts[wi]
            # retire this word's current contributions (pairs and symbols)
            for j in range(len(syms) - 1):
                p = (syms[j], syms[j + 1])
                if p == (bl, br):
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
            for s in syms:
                sym_counts[s] = sym_counts.get(s, 0) - c
            merged: list[str] = []
            j = 0
            while j < len(syms):
                if (j < len(syms) - 1 and syms[j] == bl
                        and syms[j + 1] == br):
                    merged.append(new_sym)
                    j += 2
                else:
                    merged.append(syms[j])
                    j += 1
            seqs[wi] = merged
            for s in merged:
                sym_counts[s] = sym_counts.get(s, 0) + c
            for j in range(len(merged) - 1):
                p = (merged[j], merged[j + 1])
                if p == (bl, br):
                    continue
                pair_counts[p] = pair_counts.get(p, 0) + c
                pair_words.setdefault(p, set()).add(wi)
        # drop zero-count symbols so scores use live totals only
        for s in (bl, br):
            if sym_counts.get(s, 0) <= 0:
                sym_counts.pop(s, None)
    return seeds, merges


def train_wordpiece_from_words(
    words: dict[str, int],
    *,
    num_merges: int = 60,
    min_pair_count: int = 2,
) -> pd.DataFrame:
    """Driver-local trainer: vocab DataFrame (rank, piece, cnt) — seed
    symbols (sorted asc, initial counts) first, then merged pieces in merge
    order (cnt = pair count at merge time)."""
    seeds, merges = wordpiece_merge_loop(
        words, num_merges=num_merges, min_pair_count=min_pair_count
    )
    pieces = [p for p, _ in seeds] + [m[3] for m in merges]
    cnts = [c for _, c in seeds] + [m[4] for m in merges]
    return pd.DataFrame({
        "rank": pd.Series(range(len(pieces)), dtype="int64"),
        "piece": pd.Series(pieces, dtype="object"),
        "cnt": pd.Series(cnts, dtype="int64"),
    })


def train_wordpiece(
    ds,
    *,
    text_col: str = "content",
    num_merges: int = 60,
    max_words: int = 30_000,
    min_pair_count: int = 2,
    n_buckets: int = 64,
) -> pd.DataFrame:
    """Learn a WordPiece vocab from a Dataset.  Returns (rank, piece, cnt);
    the word-count exchange is the only corpus-sized step."""
    wc = distributed_word_counts(
        ds, text_col=text_col, max_words=max_words, n_buckets=n_buckets
    )
    df = wc.to_pandas(limit=max(n_buckets, 1) * max_words)
    if len(df) == 0:
        return pd.DataFrame({
            "rank": pd.Series([], dtype="int64"),
            "piece": pd.Series([], dtype="object"),
            "cnt": pd.Series([], dtype="int64"),
        })
    df = df.sort_values(["cnt", "word"], ascending=[False, True],
                        kind="mergesort").head(max_words)
    words = dict(zip(df["word"], df["cnt"].astype(int)))
    return train_wordpiece_from_words(
        words, num_merges=num_merges, min_pair_count=min_pair_count
    )


def save_vocab(vocab: pd.DataFrame, path: str) -> str:
    """Persist a trained vocab ``(rank, piece, cnt)`` as JSON — the
    reusable tokenizer artifact (day-2 runs load instead of retraining;
    mirrors the persisted-bloom pattern in stages/bloomdedup.py)."""
    import json

    payload = {
        "format": "wordpiece_vocab_v1",
        "pieces": [
            {"rank": int(r), "piece": p, "cnt": int(c)}
            for r, p, c in zip(vocab["rank"], vocab["piece"], vocab["cnt"])
        ],
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=1)
    return path


def load_vocab(path: str) -> pd.DataFrame:
    """Load a vocab saved by :func:`save_vocab`."""
    import json

    with open(path) as f:
        payload = json.load(f)
    if payload.get("format") != "wordpiece_vocab_v1":
        raise ValueError(f"not a wordpiece vocab file: {path}")
    rows = payload["pieces"]
    return pd.DataFrame({
        "rank": pd.Series([r["rank"] for r in rows], dtype="int64"),
        "piece": pd.Series([r["piece"] for r in rows], dtype="object"),
        "cnt": pd.Series([r["cnt"] for r in rows], dtype="int64"),
    })


def encode_word(word: str, vocab: set[str]) -> list[str]:
    """Greedy longest-match-first WordPiece encoding of one word.

    BERT semantics: if any position has no matching piece, the whole word
    encodes to ``[UNK]``."""
    out: list[str] = []
    i, n = 0, len(word)
    while i < n:
        end = n
        piece = None
        while end > i:
            cand = word[i:end]
            if i > 0:
                cand = _CONT + cand
            if cand in vocab:
                piece = cand
                break
            end -= 1
        if piece is None:
            return [UNK]
        out.append(piece)
        i = end
    return out if out else [UNK]


def apply_wordpiece(
    ds,
    vocab: pd.DataFrame,
    *,
    text_col: str = "content",
    id_col: str,
    keep_cols: tuple[str, ...] = (),
):
    """Per-doc WordPiece token counts: broadcast the vocab once (``ray.put``),
    encode with a per-worker word cache.  Returns
    (id_col, *keep_cols, wordpiece_tokens)."""
    import ray

    ref = ray.put(frozenset(vocab["piece"].tolist()))

    class _Encoder:
        def __init__(self):
            self.vocab = ray.get(ref)
            self.cache: dict[str, int] = {}

        def __call__(self, tbl: pa.Table) -> pa.Table:
            text = pc.fill_null(tbl.column(text_col).combine_chunks(), "")
            toks = pc.split_pattern_regex(text, _WS_SPLIT)
            if isinstance(toks, pa.ChunkedArray):
                toks = toks.combine_chunks()
            out = np.zeros(tbl.num_rows, dtype=np.int64)
            for i, row in enumerate(toks.to_pylist()):
                n = 0
                for w in row:
                    if not w:
                        continue
                    c = self.cache.get(w)
                    if c is None:
                        c = len(encode_word(w, self.vocab))
                        self.cache[w] = c
                    n += c
                out[i] = n
            cols = {id_col: tbl.column(id_col)}
            for c in keep_cols:
                cols[c] = tbl.column(c)
            cols["wordpiece_tokens"] = pa.array(out)
            return pa.table(cols)

    return map_per_worker(ds.select_columns([id_col, *keep_cols, text_col]),
                          _Encoder, batch_format="pyarrow", zero_copy_batch=True)
