"""Distributed logistic-regression text classifier — full-batch gradient
descent over the WHOLE corpus, bit-reproducible under any partitioning.

The rule-distillation move of large-scale curation (e.g. FineWeb-Edu's
quality classifier): expensive labels (a rule cascade, an LLM judge, a
metadata flag) train a cheap linear scorer that then filters at full
throughput.  ``stages/classifier.py`` trains nearest-class-mean weights on a
driver-side sample; this stage trains ON THE CLUSTER over every row, the
Lloyd-style shape distributed ML uses: broadcast weights, map-side exact
gradient partials, one tiny fold per iteration.

Scale shape
-----------
- ``iters`` streaming passes (full-batch GD's standard cost); NO shuffle —
  each pass is ``map_batches`` emitting ONE partial row per block (count +
  int64 gradient sum, DIM+1 cells), folded on the driver in Python ints
  (constant memory, #blocks tiny rows).
- Features are the fastText-architecture mean-pooled hashed embedding from
  ``stages/classifier`` (table regenerates from its seed per task — nothing
  shipped); weights are DIM+1 floats broadcast by value.

Determinism contract (same discipline as ``stages/kmeans`` — what lets the
op carry a bit-exact fixture oracle): the doc vector is quantized per
element to ``rint(v * 2**SCALE_X)`` (row-local), the margin is a
dimension-SEQUENTIAL dot (matches a scalar per-doc loop bit-for-bit), and
each row's gradient contribution ``(sigmoid(margin) − y) · x`` is quantized
``rint(g * 2**SCALE_G)`` BEFORE any cross-row sum — integer sums are
order-independent, so the fold, the weights after every iteration, and all
downstream scores are bit-identical no matter how Ray splits blocks.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.stages.classifier import (
    DIM,
    _doc_vectors,
    _feature_ids,
    embedding_table,
)
from great_expectations_ray.stages._per_worker import map_per_worker

SCALE_X = 20  #: doc-vector fixed point (|v| < 1 -> |xq| < 2^20)
SCALE_G = 40  #: per-row gradient fixed point (|g| <= 1 -> |gq| <= 2^40)
MAX_SLICE_ROWS = 1 << 16  # int64 slice-sum bound: 2^(40+16) << 2^63


def _quantized_features(E: np.ndarray, texts, sep: str) -> np.ndarray:
    """float64[n, DIM+1] design matrix: the quantized mean-pooled doc vector
    (``rint(v * 2^SCALE_X) / 2^SCALE_X`` — exact float64 values both engine
    and oracle reconstruct identically) plus a constant bias column."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    ids, counts = _feature_ids(texts, sep)
    vecs = _doc_vectors(E, ids, counts)
    xq = np.rint(vecs * float(1 << SCALE_X)).astype(np.int64)
    X = np.empty((len(counts), DIM + 1), dtype=np.float64)
    X[:, :DIM] = xq.astype(np.float64) / float(1 << SCALE_X)
    X[:, DIM] = 1.0
    return X


def _sequential_margin(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Dimension-sequential dot (DIM+1 vectorized adds) — accumulation order
    matches a scalar per-doc loop bit-exactly (BLAS dgemv would not)."""
    acc = np.zeros(X.shape[0], dtype=np.float64)
    for d in range(X.shape[1]):
        acc += X[:, d] * w[d]
    return acc


def _batch_partials(tbl: pa.Table, w: np.ndarray, *, text_col: str,
                    y_col: str, seed: int, sep: str) -> pa.Table:
    """ONE exact int64 gradient partial per block."""
    n = tbl.num_rows
    if n == 0:
        return pa.table({"n": pa.array([], pa.int64()),
                         "gsum": pa.array([], pa.list_(pa.int64()))})
    E = embedding_table(seed)
    X = _quantized_features(E, tbl.column(text_col), sep)
    y = np.asarray(
        pc.fill_null(pc.cast(tbl.column(y_col), pa.float64()), 0.0),
        dtype=np.float64)
    total = np.zeros(DIM + 1, dtype=np.int64)
    for lo in range(0, n, MAX_SLICE_ROWS):
        Xs, ys = X[lo:lo + MAX_SLICE_ROWS], y[lo:lo + MAX_SLICE_ROWS]
        p = 1.0 / (1.0 + np.exp(-_sequential_margin(Xs, w)))
        g = (p - ys)[:, None] * Xs
        total += np.rint(g * float(1 << SCALE_G)).astype(np.int64).sum(axis=0)
    return pa.table({"n": pa.array([n], pa.int64()),
                     "gsum": pa.array([total])})


def _fold_and_step(tables, w: np.ndarray, lr: float) -> np.ndarray:
    """Exact Python-int fold of the gradient partials -> one GD step."""
    n_total = 0
    G = [0] * (DIM + 1)
    for b in tables:
        for cnt, gs in zip(b.column("n").to_pylist(),
                           b.column("gsum").to_pylist()):
            n_total += cnt
            for j, v in enumerate(gs):
                G[j] += v
    if n_total == 0:
        raise ValueError("logreg: empty dataset")
    denom = float(1 << SCALE_G) * n_total
    out = w.copy()
    for j in range(DIM + 1):
        out[j] = w[j] - lr * (float(G[j]) / denom)
    return out


def fit_logreg(ds, *, y_col: str, text_col: str = "text", iters: int = 8,
               lr: float = 2.0, seed: int = 41, sep: str = " ",
               max_driver_rows: int = 100_000) -> np.ndarray:
    """Full-batch GD fit: returns ``w`` (float64[DIM+1], bias last).
    ``y_col`` holds the 0/1 target (bool or numeric).  ``iters`` streaming
    passes, no shuffle, bit-reproducible under any partitioning.  Small
    tables (≤ ``max_driver_rows``) take the kmeans-style driver fast path:
    one materialization, the SAME quantized iteration locally — bit-identical
    by construction."""
    w = np.zeros(DIM + 1, dtype=np.float64)
    src = ds.select_columns([text_col, y_col])
    if max_driver_rows and ds.count() <= max_driver_rows:
        import ray as _ray

        tables = [t for t in _ray.get(src.to_arrow_refs()) if t.num_rows]
        if not tables:
            raise ValueError("logreg: empty dataset")
        for _ in range(iters):
            w = _fold_and_step(
                [_batch_partials(t, w, text_col=text_col, y_col=y_col,
                                 seed=seed, sep=sep) for t in tables],
                w, lr)
        return w
    for _ in range(iters):
        partials = src.map_batches(
            lambda t, _w=w: _batch_partials(t, _w, text_col=text_col,
                                            y_col=y_col, seed=seed, sep=sep),
            batch_format="pyarrow", zero_copy_batch=True)
        w = _fold_and_step(partials.iter_batches(batch_format="pyarrow"),
                           w, lr)
    return w


class LogregScorer:
    """Per-batch scoring stage: the embedding table regenerates from its
    seed once per worker, weights arrive by value.  Adds ``prob`` (sigmoid
    margin rounded to ``round_dp``) and ``pred`` (int64 0/1 at 0.5)."""

    def __init__(self, w: np.ndarray, *, column: str = "text",
                 seed: int = 41, sep: str = " ", round_dp: int = 6):
        self.E = embedding_table(seed)
        self.w = np.asarray(w, dtype=np.float64)
        self.column = column
        self.sep = sep
        self.round_dp = round_dp

    def __call__(self, tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return tbl.append_column("prob", pa.array([], pa.float64())) \
                      .append_column("pred", pa.array([], pa.int64()))
        X = _quantized_features(self.E, tbl.column(self.column), self.sep)
        margin = _sequential_margin(X, self.w)
        prob = np.round(1.0 / (1.0 + np.exp(-margin)), self.round_dp)
        return tbl.append_column("prob", pa.array(prob)) \
                  .append_column("pred",
                                 pa.array((margin >= 0).astype(np.int64)))


def score_logreg(ds, w: np.ndarray, *, column: str = "text", seed: int = 41,
                 sep: str = " ", round_dp: int = 6):
    return map_per_worker(
        ds, LogregScorer,
        {"w": w, "column": column, "seed": seed, "sep": sep, "round_dp": round_dp},
        batch_format="pyarrow", zero_copy_batch=True,
    )
