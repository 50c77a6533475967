"""Streaming principal-component analysis over an embedding column.

Part of the LLM-training-data surface (dimensionality reduction before
clustering / ANN / SemDeDup; whitening for outlier scores).  The reference
engine has no equivalent operator.

Scale shape
-----------
ONE streaming pass: each batch emits a single partial row — ``n`` (int64),
the quantized column sums (int64[dim]) and the quantized Gram matrix
``QᵀQ`` flattened as DECIMAL STRINGS (slice Grams are int64-safe, the
per-block accumulation is arbitrary-precision, so one row per block is
exact at any corpus size).  No shuffle; the driver folds the partial
stream with constant memory and runs an eigendecomposition on the dim×dim
covariance (dim is small — 64 here — so the driver step is O(dim³), corpus-
size-free).  Projection is a broadcast matmul per batch.

Determinism contract (what lets this op carry a bit-exact fixture oracle):
cross-block float sums are order-dependent, so the moment accumulation is
integer fixed point:

- each element is quantized ``round(v * 2**SCALE_BITS)`` (row-local);
- per-batch Gram/sum use int64 (batch rows capped at ``MAX_BATCH_ROWS`` and
  input magnitude guarded, so no cell overflows);
- the driver folds partials in Python ints (exact at any corpus size) and
  forms the covariance from the ALL-INTEGER numerator
  ``n·G_ij − S_i·S_j`` divided by ``2**(2·SCALE_BITS)·n·(n−1)`` — one
  deterministic float64 division per cell.

The covariance matrix is therefore bit-identical under any partitioning;
``numpy.linalg.eigh`` on an identical matrix gives identical components.
Sign convention: each component is flipped so its largest-|loading| entry
(ties → lowest index) is positive.  Quantization costs ~2**-SCALE_BITS per
element against true float64 PCA — below float32 input noise.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from great_expectations_ray.stages.ann import _emb_matrix

SCALE_BITS = 20
MAX_BATCH_ROWS = 1 << 12
# |v| * 2**SCALE_BITS must stay under this for the per-batch int64 Gram
# bound: (2**QMAX_BITS)**2 * MAX_BATCH_ROWS < 2**63
QMAX_BITS = 25


class PCAModel:
    def __init__(self, mean: np.ndarray, components: np.ndarray,
                 explained_variance: np.ndarray, total_variance: float):
        self.mean = mean                    # (dim,)
        self.components = components        # (n_components, dim)
        self.explained_variance = explained_variance
        self.total_variance = total_variance

    @property
    def explained_variance_ratio(self) -> np.ndarray:
        return self.explained_variance / max(self.total_variance, 1e-300)


def _batch_moments(tbl: pa.Table, emb_col: str) -> pa.Table:
    """ONE partial row per batch: slice Grams (int64-safe under
    ``MAX_BATCH_ROWS``) accumulate into arbitrary-precision Python ints,
    and the Gram ships as DECIMAL STRINGS — exact beyond int64, so the
    partial stream stays one row × dim² cells per BLOCK at any corpus
    size (emitting raw per-4096-row slices would be ~100× the volume at
    web scale).  Column sums stay int64 (cell ≤ 2^25 · block rows)."""
    M = _emb_matrix(tbl.column(emb_col))
    if M.shape[0] == 0:
        return pa.table({"n": pa.array([], pa.int64()),
                         "qsum": pa.array([], pa.list_(pa.int64())),
                         "qgram": pa.array([], pa.list_(pa.string()))})
    scale = float(1 << SCALE_BITS)
    n = 0
    S: np.ndarray | None = None
    G: list[int] | None = None
    for lo in range(0, M.shape[0], MAX_BATCH_ROWS):
        X = M[lo:lo + MAX_BATCH_ROWS]
        Q = np.rint(X * scale).astype(np.int64)
        if np.abs(Q).max(initial=0) >= (1 << QMAX_BITS):
            raise ValueError(
                "pca: input magnitude too large for SCALE_BITS="
                f"{SCALE_BITS} (|v*2^{SCALE_BITS}| >= 2^{QMAX_BITS}); "
                "standardize the column or lower SCALE_BITS")
        n += Q.shape[0]
        s = Q.sum(axis=0)
        g = (Q.T @ Q).reshape(-1)
        if S is None:
            S = s
            G = [int(v) for v in g]
        else:
            S = S + s
            for j, v in enumerate(g):
                G[j] += int(v)
    return pa.table({"n": pa.array([n], pa.int64()),
                     "qsum": pa.array([S]),
                     "qgram": pa.array([[str(v) for v in G]],
                                       pa.list_(pa.string()))})


def fit_pca(ds, n_components: int = 4, *, emb_col: str = "embedding") -> PCAModel:
    """One-pass distributed PCA fit (see module docstring)."""
    partials = ds.map_batches(
        lambda t: _batch_moments(t, emb_col),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    n_total = 0
    S: list[int] | None = None
    G: list[int] | None = None
    for b in partials.iter_batches(batch_format="pyarrow"):
        for cnt, qs, qg in zip(b.column("n").to_pylist(),
                               b.column("qsum").to_pylist(),
                               b.column("qgram").to_pylist()):
            n_total += cnt
            if S is None:
                S = list(qs)
                G = [int(v) for v in qg]
            else:
                for j, v in enumerate(qs):
                    S[j] += v
                for j, v in enumerate(qg):
                    G[j] += int(v)
    if S is None or n_total < 2:
        raise ValueError("pca: need at least 2 rows")
    dim = len(S)
    denom = float((1 << (2 * SCALE_BITS)) * n_total * (n_total - 1))
    cov = np.empty((dim, dim), dtype=np.float64)
    for i in range(dim):
        Si = S[i]
        base = i * dim
        for j in range(i, dim):
            num = n_total * G[base + j] - Si * S[j]  # exact Python-int
            cov[i, j] = cov[j, i] = float(num) / denom
    mean = np.array([float(s) for s in S], dtype=np.float64)
    mean /= float((1 << SCALE_BITS) * n_total)

    evals, evecs = np.linalg.eigh(cov)  # ascending
    order = np.argsort(evals)[::-1][:n_components]
    comps = evecs[:, order].T.copy()
    for r in range(comps.shape[0]):
        pivot = int(np.argmax(np.abs(comps[r])))  # ties -> lowest index
        if comps[r, pivot] < 0:
            comps[r] = -comps[r]
    return PCAModel(mean=mean, components=comps,
                    explained_variance=evals[order].copy(),
                    total_variance=float(evals.sum()))


class PCAProjector:
    """Per-batch projection stage: each batch is one centered matmul.  Adds ``pc1..pc<d>`` float64 columns
    rounded to ``round_dp``."""

    def __init__(self, model: PCAModel, *, emb_col: str = "embedding",
                 round_dp: int = 6):
        self.model = model
        self.emb_col = emb_col
        self.round_dp = round_dp

    def __call__(self, tbl: pa.Table) -> pa.Table:
        d = self.model.components.shape[0]
        M = _emb_matrix(tbl.column(self.emb_col))
        if M.shape[0] == 0:
            for r in range(d):
                tbl = tbl.append_column(f"pc{r + 1}", pa.array([], pa.float64()))
            return tbl
        scores = (M - self.model.mean) @ self.model.components.T
        scores = np.round(scores, self.round_dp)
        for r in range(d):
            tbl = tbl.append_column(f"pc{r + 1}", pa.array(scores[:, r]))
        return tbl


def project_pca(ds, model: PCAModel, *, emb_col: str = "embedding",
                round_dp: int = 6):
    return ds.map_batches(
        PCAProjector(model, emb_col=emb_col, round_dp=round_dp),
        batch_format="pyarrow", zero_copy_batch=True,
    )
