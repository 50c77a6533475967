"""Distributed unigram-LM (SentencePiece-style) tokenizer training.

Kudo (2018, "Subword Regularization") trains a unigram language model over
subword pieces by EM and segments with Viterbi.  This stage implements the
same pipeline shape as :mod:`stages/bpe_train` (the other tokenizer family
in this repo): the ONLY corpus-sized step is the distributed word-count
exchange (map-side ``value_counts`` pre-combine, one bucketed sum, bounded
top-K cut) — training itself runs on the driver over the Zipf-small word
dict, and application broadcasts the learned vocab once (``ray.put``) to
every worker.

Deviation from Kudo, chosen for bit-exact reproducibility: **hard EM**
(Viterbi E-step; expected counts become integer occurrence counts weighted
by word frequency) instead of soft forward–backward EM, and the Viterbi
comparison is carried out EXACTLY over integers — a path of pieces
``p_1..p_k`` has likelihood ``prod(cnt(p_i)) / total**k``; two paths compare
by cross-multiplication with cached powers of ``total``, so no float enters
any decision.  Ties break deterministically: fewer pieces first, then the
lexicographically smallest piece tuple.  The independent fixture oracle
(tools/gen_oracle_fixtures.py) re-implements the identical spec top-down;
the engine's DP is bottom-up.

Training spec (shared with the oracle):

1. words = runs split on ASCII whitespace ``[ \\t\\n\\r\\f\\v]``; top
   ``max_words`` by (count desc, word asc).
2. seed vocab = every single character of those words (coverage set), plus
   the top ``seed_size`` substrings of length 2..``max_piece_len`` by
   (occurrence count desc, piece asc), where a piece's occurrence count is
   ``sum_w count(w) * (#start positions of piece in w)`` (overlaps count).
3. ``em_iters`` rounds of hard EM: segment every word by exact Viterbi
   under the current counts; recount pieces from the segmentations; drop
   multi-char pieces that received no count; every coverage character is
   floored at count 1 (never dropped).
4. final vocab = all coverage characters + the best multi-char pieces by
   (count desc, piece asc) up to ``vocab_size`` total; ``rank`` is the
   position in that (count desc, piece asc) order.

Reference parity note: the reference repo has no tokenizer trainer; this
operator exists for the training-data-pipeline surface (north rule), next
to stages/bpe_train.py.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.stages._per_worker import map_per_worker
from great_expectations_ray.stages.bpe_train import (
    _WS_SPLIT,
    distributed_word_counts,
)

import numpy as np


def viterbi_segment(
    word: str,
    counts: dict[str, int],
    pow_total: list[int],
    max_piece_len: int,
) -> tuple[str, ...]:
    """Exact Viterbi segmentation of one word under integer piece counts.

    Maximizes ``prod(counts[p]) / total**k`` with total-order tie-breaks
    (fewer pieces, then lexicographically smallest tuple).  ``pow_total``
    must hold ``total**j`` for ``j`` up to ``len(word)``.  A single
    character absent from ``counts`` acts as a count-1 piece (coverage
    fallback for apply-time unknown characters)."""
    n = len(word)
    # best[i] = (prod:int, k:int, pieces:tuple) for word[:i]
    best: list = [None] * (n + 1)
    best[0] = (1, 0, ())
    for i in range(1, n + 1):
        cand = None
        for j in range(max(0, i - max_piece_len), i):
            prev = best[j]
            if prev is None:
                continue
            piece = word[j:i]
            c = counts.get(piece)
            if c is None:
                if i - j > 1:
                    continue
                c = 1  # unknown single char: coverage fallback
            cur = (prev[0] * c, prev[1] + 1, prev[2] + (piece,))
            if cand is None:
                cand = cur
                continue
            # exact compare: cur better iff weight higher, or equal weight
            # and (k, pieces) smaller
            lhs = cur[0] * pow_total[cand[1]]
            rhs = cand[0] * pow_total[cur[1]]
            if lhs > rhs or (lhs == rhs and (cur[1], cur[2]) < (cand[1], cand[2])):
                cand = cur
        best[i] = cand
    assert best[n] is not None  # single-char fallback guarantees a path
    return best[n][2]


def _seed_counts(
    words: dict[str, int], *, max_piece_len: int, seed_size: int
) -> dict[str, int]:
    chars: dict[str, int] = {}
    multi: dict[str, int] = {}
    for w, c in words.items():
        n = len(w)
        for i in range(n):
            chars[w[i]] = chars.get(w[i], 0) + c
            for l in range(2, min(max_piece_len, n - i) + 1):
                p = w[i : i + l]
                multi[p] = multi.get(p, 0) + c
    top = sorted(multi.items(), key=lambda kv: (-kv[1], kv[0]))[:seed_size]
    out = dict(chars)
    out.update(top)
    return out


def _em_rounds(
    words: dict[str, int],
    counts: dict[str, int],
    char_set: set[str],
    *,
    em_iters: int,
    max_piece_len: int,
) -> dict[str, int]:
    for _ in range(em_iters):
        total = sum(counts.values())
        max_len = max((len(w) for w in words), default=1)
        pow_total = [1] * (max_len + 1)
        for j in range(1, max_len + 1):
            pow_total[j] = pow_total[j - 1] * total
        new: dict[str, int] = {}
        for w, c in words.items():
            for p in viterbi_segment(w, counts, pow_total, max_piece_len):
                new[p] = new.get(p, 0) + c
        counts = {p: c for p, c in new.items() if c > 0 and len(p) > 1}
        for ch in char_set:
            counts[ch] = max(new.get(ch, 0), 1)
    return counts


def train_unigram(
    ds,
    *,
    text_col: str = "content",
    vocab_size: int = 300,
    max_piece_len: int = 5,
    em_iters: int = 3,
    seed_size: int = 1_500,
    max_words: int = 30_000,
    n_buckets: int = 64,
) -> pd.DataFrame:
    """Learn a unigram-LM vocab from a Dataset.  Returns a DataFrame with
    columns (rank, piece, cnt), ordered by rank = (cnt desc, piece asc)."""
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
    return train_unigram_from_words(
        words, vocab_size=vocab_size, max_piece_len=max_piece_len,
        em_iters=em_iters, seed_size=seed_size,
    )


def train_unigram_from_words(
    words: dict[str, int],
    *,
    vocab_size: int = 300,
    max_piece_len: int = 5,
    em_iters: int = 3,
    seed_size: int = 1_500,
) -> pd.DataFrame:
    """Driver-local trainer over a word-frequency dict (the post-exchange
    step of :func:`train_unigram`, split out for tests)."""
    char_set = {ch for w in words for ch in w}
    counts = _seed_counts(words, max_piece_len=max_piece_len,
                          seed_size=seed_size)
    counts = _em_rounds(words, counts, char_set,
                        em_iters=em_iters, max_piece_len=max_piece_len)
    chars = sorted(char_set)
    multi = sorted(
        ((p, c) for p, c in counts.items() if len(p) > 1),
        key=lambda kv: (-kv[1], kv[0]),
    )[: max(0, vocab_size - len(chars))]
    vocab = [(p, counts[p]) for p in chars] + multi
    vocab.sort(key=lambda kv: (-kv[1], kv[0]))
    return pd.DataFrame({
        "rank": pd.Series(range(len(vocab)), dtype="int64"),
        "piece": [p for p, _ in vocab],
        "cnt": pd.Series([c for _, c in vocab], dtype="int64"),
    })


def apply_unigram(
    ds,
    vocab: pd.DataFrame,
    *,
    text_col: str = "content",
    id_col: str,
    keep_cols: tuple[str, ...] = (),
    max_piece_len: int = 5,
):
    """Per-doc token counts under the learned unigram vocab: broadcast the
    (piece, cnt) table once via ``ray.put``, segment with a per-worker word
    cache.  Returns (id_col, *keep_cols,
    unigram_tokens)."""
    import ray

    counts = {p: int(c) for p, c in zip(vocab["piece"], vocab["cnt"])}
    ref = ray.put(counts)

    class _Segmenter:
        def __init__(self):
            self.counts = ray.get(ref)
            total = sum(self.counts.values())
            # enough powers for any word this corpus produces; extended lazily
            self.total = total
            self.pow_total = [1]
            self.cache: dict[str, int] = {}

        def _ntok(self, w: str) -> int:
            n = self.cache.get(w)
            if n is None:
                while len(self.pow_total) <= len(w):
                    self.pow_total.append(self.pow_total[-1] * self.total)
                n = len(viterbi_segment(w, self.counts, self.pow_total,
                                        max_piece_len))
                self.cache[w] = n
            return n

        def __call__(self, tbl: pa.Table) -> pa.Table:
            text = pc.fill_null(tbl.column(text_col).combine_chunks(), "")
            toks = pc.split_pattern_regex(text, _WS_SPLIT)
            if isinstance(toks, pa.ChunkedArray):
                toks = toks.combine_chunks()
            out = np.zeros(tbl.num_rows, dtype=np.int64)
            for i, row in enumerate(toks.to_pylist()):
                out[i] = sum(self._ntok(w) for w in row if w)
            cols = {id_col: tbl.column(id_col)}
            for c in keep_cols:
                cols[c] = tbl.column(c)
            cols["unigram_tokens"] = pa.array(out)
            return pa.table(cols)

    return map_per_worker(ds.select_columns([id_col, *keep_cols, text_col]),
                          _Segmenter, batch_format="pyarrow", zero_copy_batch=True)
