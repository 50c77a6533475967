"""BM25 ranked retrieval over a document corpus — Okapi BM25 scoring of a
small query against every document, distributed with NO shuffle.

The scale shape (and why it isn't a groupby):

- **Stats pass**: BM25 needs N, avgdl, and document frequencies for the
  QUERY's terms only — never the full vocabulary.  One embarrassingly-
  parallel pass emits a tiny partial per batch (n_docs, n_tokens, one df
  counter per query term); the driver sums.  Zero exchange.
- **Score pass**: (term hashes, idf, avgdl) broadcast via ``ray.put``
  (fetched once per worker); each batch computes per-doc term frequencies
  vectorized (``np.searchsorted`` against the sorted query-term hashes +
  ``bincount``), scores every matching doc, and emits its LOCAL top-k.
  The driver merges ≤ k × #batches rows — same merge shape as
  ``stages/ann.brute_force_topk``.

Determinism contract (the DuckDB oracle hash-compares): every float in the
score is derived from exact integers (tf, dl, df, N) with the SAME explicit
operation order as the SQL expression, scores are rounded half-away at 6dp
on both sides BEFORE ranking, and ties break on doc id.  ``ln`` may differ
by an ulp between libm and DuckDB; a flip requires two non-identical scores
within ~1e-10 of a rounding boundary — negligible, and verified empirically
at sf0.001/sf0.01.

Token semantics are the repo-wide ``\\S+`` runs (``stages/repetition.py``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from great_expectations_ray.functions.bucketed import _poly_sums
from great_expectations_ray.stages._per_worker import map_per_worker
from great_expectations_ray.stages.repetition import _round6, tokenize_nonempty


def _query_hashes(terms: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(sorted u64 hashes, argsort order) for the query terms."""
    h = _poly_sums(pa.array(list(terms), pa.string()))[0]
    order = np.argsort(h, kind="stable")
    return np.ascontiguousarray(h[order]), order


def _tf_matrix(tbl: pa.Table, text_col: str, hashes_sorted: np.ndarray):
    """(tf[n_terms, n_docs], dl[n_docs]) — vectorized term counting."""
    tok_hash, _l, tok_doc, counts = tokenize_nonempty(tbl.column(text_col))
    n_docs = len(tbl)
    n_terms = len(hashes_sorted)
    tf = np.zeros((n_terms, n_docs), dtype=np.int64)
    if len(tok_hash) and n_terms:
        idx = np.searchsorted(hashes_sorted, tok_hash)
        idx[idx == n_terms] = 0
        hit = hashes_sorted[idx] == tok_hash
        if hit.any():
            # flat bincount over (term, doc) pairs — contiguous 1-D fast path
            pair = idx[hit] * n_docs + tok_doc[hit]
            tf = np.bincount(pair, minlength=n_terms * n_docs).reshape(
                n_terms, n_docs
            ).astype(np.int64)
    return tf, counts


def bm25_stats(ds, terms: list[str], *, text_col: str = "text"):
    """(N docs, total tokens, df per term in QUERY order) — one pass, tiny
    per-batch partials, driver sum."""
    hashes_sorted, order = _query_hashes(terms)
    n_terms = len(terms)

    def partial(tbl: pa.Table) -> pa.Table:
        tf, dl = _tf_matrix(tbl, text_col, hashes_sorted)
        dfs = (tf > 0).sum(axis=1).astype(np.int64)
        return pa.table({
            "n_docs": pa.array([len(tbl)], pa.int64()),
            "n_tokens": pa.array([int(dl.sum())], pa.int64()),
            "dfs": pa.array([dfs.tolist()], pa.list_(pa.int64())),
        })

    n = 0
    total = 0
    dfs_sorted = np.zeros(n_terms, dtype=np.int64)
    for b in (
        ds.select_columns([text_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow", batch_size=None)
    ):
        n += int(b.column("n_docs")[0].as_py()) if len(b) == 1 else sum(
            v.as_py() for v in b.column("n_docs"))
        total += sum(v.as_py() for v in b.column("n_tokens"))
        for row in b.column("dfs"):
            dfs_sorted += np.asarray(row.as_py(), dtype=np.int64)
    # undo the hash sort: df in original query-term order
    dfs = np.zeros(n_terms, dtype=np.int64)
    dfs[order] = dfs_sorted
    return n, total, dfs


class _BM25Scorer:
    """Score stage: broadcast (hashes, idf, avgdl) fetched once per worker;
    emits the batch-local top-k (rounded score, id)."""

    def __init__(self, bcast_ref, *, text_col: str, id_col: str, k: int,
                 k1: float, b: float):
        import ray

        # hashes sorted for searchsorted; idf + row positions in QUERY order
        # so the score accumulates terms exactly as the SQL oracle writes them
        self.hashes, self.idf_q, self.pos_q, self.avgdl = (
            ray.get(bcast_ref) if not isinstance(bcast_ref, tuple) else bcast_ref
        )
        self.text_col = text_col
        self.id_col = id_col
        self.k = k
        self.k1 = k1
        self.b = b

    def __call__(self, tbl: pa.Table) -> pd.DataFrame:
        tf, dl = _tf_matrix(tbl, self.text_col, self.hashes)
        dl = dl.astype(np.float64)
        # denominators share the doc-length normalisation
        norm = self.k1 * ((1.0 - self.b) + (self.b * dl) / self.avgdl)
        score = np.zeros(len(tbl), dtype=np.float64)
        for qi in range(len(self.hashes)):  # query order, left-to-right
            tft = tf[self.pos_q[qi]].astype(np.float64)
            score = score + self.idf_q[qi] * (
                (tft * (self.k1 + 1.0)) / (tft + norm)
            )
        matched = tf.sum(axis=0) > 0
        out = pd.DataFrame({
            self.id_col: np.asarray(tbl.column(self.id_col))[matched],
            "score": _round6(score[matched]),
        })
        out = out.sort_values(["score", self.id_col], ascending=[False, True],
                              kind="mergesort")
        return out.head(self.k).reset_index(drop=True)


def bm25_topk(
    ds,
    terms: list[str],
    *,
    k: int = 10,
    k1: float = 1.2,
    b: float = 0.75,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> pd.DataFrame:
    """Global top-k (id, score) for the query ``terms`` — Okapi BM25 with
    Lucene's non-negative idf ``ln((N - df + 0.5)/(df + 0.5) + 1)``."""
    import ray

    n, total, dfs = bm25_stats(ds, terms, text_col=text_col)
    if n == 0:
        return pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                             "score": pd.Series([], dtype="float64")})
    avgdl = float(total) / float(n)
    hashes_sorted, order = _query_hashes(terms)
    # position of query term i's row in the sorted-hash tf matrix
    pos_q = np.empty(len(terms), dtype=np.int64)
    pos_q[order] = np.arange(len(terms))
    dfs_f = dfs.astype(np.float64)  # query order
    idf_q = np.log(((n - dfs_f) + 0.5) / (dfs_f + 0.5) + 1.0)
    ref = ray.put((hashes_sorted, idf_q, pos_q, avgdl))

    parts = map_per_worker(
        ds.select_columns([id_col, text_col]), _BM25Scorer,
        {"bcast_ref": ref, "text_col": text_col, "id_col": id_col,
         "k": k, "k1": k1, "b": b},
        batch_format="pyarrow", zero_copy_batch=True,
    ).to_pandas()
    parts = parts.sort_values(["score", id_col], ascending=[False, True],
                              kind="mergesort")
    return parts.head(k).reset_index(drop=True)
