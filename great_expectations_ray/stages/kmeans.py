"""Distributed spherical k-means over an embedding column.

The reference engine has no clustering operator; this is part of the
LLM-training-data surface (SemDeDup and IVF both *consume* a quantizer —
this op makes the quantizer fit itself first-class and distributed, the
Lloyd shape Spark MLlib uses: broadcast centroids, map-side partial sums,
one tiny reduce per iteration).

Scale shape
-----------
- ``iters`` streaming passes over the dataset (Lloyd's standard cost); no
  shuffle — each pass is ``map_batches`` emitting k partial rows per batch
  (cluster, count, int64 sum vector), and the driver folds the partials
  stream (``iter_batches`` — constant driver memory, #blocks × k tiny rows).
- Centroids are broadcast by value each iteration (k × dim float64 — a few
  KB; ``ray.put`` would add a round-trip for nothing at this size).
- Init is a distributed deterministic pseudo-random pick: every block emits
  its k rows with the smallest ``splitmix64(id ^ seed)`` key, the driver
  merges to the global bottom-k.  Same result under ANY partitioning.

Determinism contract (what lets this op carry a bit-exact fixture oracle):
float partial sums are order-dependent across blocks, so every CROSS-BLOCK
accumulation here is integer:

- each row is L2-normalized in float64 (row-local, order-free), then
  quantized per element to fixed point: ``round(v * 2**SCALE_BITS)``;
- per-batch sums are int64 (batch rows capped at ``MAX_BATCH_ROWS`` so a
  cell never exceeds 2**(SCALE_BITS + 16) — no overflow);
- the driver folds partials in Python ints (arbitrary precision — exact at
  any corpus size), then divides/renormalizes in float64.

Exact integer sums are associative and order-independent, so the centroids
after every iteration — and therefore the argmax assignments (ties to the
lowest centroid index) — are bit-identical no matter how Ray splits blocks
or how many CPUs run the job.  Quantization costs ~2**-SCALE_BITS per
element relative to true float64 k-means — far below float32 input noise.
"""

from __future__ import annotations

import heapq

import numpy as np
import pyarrow as pa

from great_expectations_ray.stages.ann import _emb_matrix

SCALE_BITS = 34
MAX_BATCH_ROWS = 1 << 16  # per-batch int64 sum bound: 2**(34+16) << 2**63

_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U64 = (1 << 64) - 1


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer (public domain constant spec) — vectorized."""
    z = (x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _normalize_rows(M: np.ndarray) -> np.ndarray:
    norms = np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-30)
    return M / norms


def init_centroids(ds, k: int, *, id_col: str = "vec_id",
                   emb_col: str = "embedding", seed: int = 0) -> np.ndarray:
    """k unit rows picked by smallest splitmix64(id ^ seed) — a seeded
    uniform draw that merges distributively (per-block bottom-k)."""

    def local_bottomk(tbl: pa.Table) -> pa.Table:
        ids = np.asarray(tbl.column(id_col), dtype=np.int64)
        if len(ids) == 0:
            return pa.table({"key": pa.array([], pa.uint64()),
                             id_col: pa.array([], pa.int64()),
                             emb_col: tbl.column(emb_col)})
        keys = _splitmix64(ids.view(np.uint64) ^ np.uint64(seed & _U64))
        take = min(k, len(ids))
        part = np.argpartition(keys, take - 1)[:take]
        part = part[np.argsort(keys[part], kind="stable")]
        idx = pa.array(part.astype(np.int64))
        return pa.table({
            "key": pa.array(keys[part]),
            id_col: pa.array(ids[part]),
            emb_col: tbl.column(emb_col).combine_chunks().take(idx)
            if isinstance(tbl.column(emb_col), pa.ChunkedArray)
            else tbl.column(emb_col).take(idx),
        })

    rows = ds.map_batches(local_bottomk, batch_format="pyarrow",
                          zero_copy_batch=True).take_all()
    best = heapq.nsmallest(k, rows, key=lambda r: (int(r["key"]), int(r[id_col])))
    M = np.stack([np.asarray(r[emb_col], dtype=np.float64) for r in best])
    return _normalize_rows(M)


def _batch_partials(tbl: pa.Table, C: np.ndarray, emb_col: str) -> pa.Table:
    """Assign each row to argmax cosine centroid; emit exact int64 partial
    sums of the quantized normalized rows, per centroid."""
    k, dim = C.shape
    M = _emb_matrix(tbl.column(emb_col))
    if M.shape[0] == 0:
        return pa.table({
            "cluster": pa.array([], pa.int64()),
            "count": pa.array([], pa.int64()),
            "qsum": pa.array([], pa.list_(pa.int64())),
        })
    # ONE (k × dim) partial per batch: slice sums accumulate in int64
    # (cell bound 2^SCALE_BITS · batch_rows ≤ 2^34 · 2^28 < 2^63 — far
    # above any real block), so the exchange carries k rows per BLOCK,
    # not per 64k-row slice — #blocks × k total at any corpus size.
    S = np.zeros((k, dim), dtype=np.int64)
    counts = np.zeros(k, dtype=np.int64)
    for lo in range(0, M.shape[0], MAX_BATCH_ROWS):
        Xn = _normalize_rows(M[lo:lo + MAX_BATCH_ROWS])
        assign = np.argmax(Xn @ C.T, axis=1)
        Q = np.rint(Xn * float(1 << SCALE_BITS)).astype(np.int64)
        np.add.at(S, assign, Q)
        counts += np.bincount(assign, minlength=k).astype(np.int64)
    present = np.nonzero(counts)[0]
    return pa.table({
        "cluster": pa.array(present.astype(np.int64)),
        "count": pa.array(counts[present]),
        "qsum": pa.array(list(S[present])) if len(present)
        else pa.array([], pa.list_(pa.int64())),
    })


def lloyd_update(ds, C: np.ndarray, *, emb_col: str = "embedding") -> np.ndarray:
    """One distributed Lloyd iteration: returns the new unit centroids.
    Empty clusters keep their previous centroid (same rule as the local
    trainer in stages/ann._kmeans_cosine)."""
    k, dim = C.shape
    Cb = C.copy()  # captured by value: a few KB — no ray.put round-trip

    partials = ds.map_batches(
        lambda t: _batch_partials(t, Cb, emb_col),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    # exact fold: Python ints (arbitrary precision), streamed — the driver
    # never holds more than one partial batch
    return _fold_partials(partials.iter_batches(batch_format="pyarrow"),
                          k, dim, C)


def _fold_partials(tables, k: int, dim: int, C: np.ndarray) -> np.ndarray:
    """Exact Python-int fold of partial tables → new unit centroids.
    Integer sums are order-independent, so ANY grouping of the input into
    tables gives bit-identical output."""
    counts = [0] * k
    sums = [[0] * dim for _ in range(k)]
    for b in tables:
        cl = b.column("cluster").to_pylist()
        n = b.column("count").to_pylist()
        qs = b.column("qsum").to_pylist()
        for c, cnt, vec in zip(cl, n, qs):
            counts[c] += cnt
            sc = sums[c]
            for j, v in enumerate(vec):
                sc[j] += v
    scale = float(1 << SCALE_BITS)
    out = C.copy()
    for c in range(k):
        if counts[c]:
            m = np.array([float(s) for s in sums[c]], dtype=np.float64)
            m /= scale * counts[c]
            nrm = np.linalg.norm(m)
            if nrm > 1e-30:
                out[c] = m / nrm
    return out


def fit_kmeans(ds, k: int = 8, iters: int = 6, *, id_col: str = "vec_id",
               emb_col: str = "embedding", seed: int = 0,
               max_driver_rows: int = 100_000) -> np.ndarray:
    """Distributed spherical k-means fit: ``iters`` + 1 streaming passes
    (init pick + Lloyd updates), no shuffle, bit-reproducible under any
    partitioning (see module docstring).

    Small tables (≤ ``max_driver_rows``) take a driver fast path: ONE
    materialization, then the SAME quantized-integer iteration locally —
    bit-identical to the distributed path by construction (integer partial
    sums are order-independent), without paying ``iters`` × executor
    fixed cost.  Same pattern as stages/cc_cluster's max_driver_edges."""
    if max_driver_rows and ds.count() <= max_driver_rows:
        import ray as _ray

        refs = ds.select_columns([id_col, emb_col]).to_arrow_refs()
        tables = [t for t in _ray.get(refs) if t.num_rows]
        if not tables:
            raise ValueError("kmeans: empty dataset")
        tbl = pa.concat_tables(tables)
        ids = np.asarray(tbl.column(id_col), dtype=np.int64)
        keys = _splitmix64(ids.view(np.uint64) ^ np.uint64(seed & _U64))
        order = sorted(range(len(ids)), key=lambda i: (int(keys[i]), int(ids[i])))
        pick = order[:min(k, len(ids))]
        M = _emb_matrix(tbl.column(emb_col))
        C = _normalize_rows(M[pick].astype(np.float64, copy=True))
        dim = C.shape[1]
        for _ in range(iters):
            C = _fold_partials([_batch_partials(tbl, C, emb_col)],
                               C.shape[0], dim, C)
        return C
    C = init_centroids(ds, k, id_col=id_col, emb_col=emb_col, seed=seed)
    for _ in range(iters):
        C = lloyd_update(ds, C, emb_col=emb_col)
    return C


class KMeansAssigner:
    """Per-batch assignment stage: ``__call__`` is one matmul + argmax per
    batch.  Adds
    ``cluster`` (int64) and ``sim`` (cosine to the assigned centroid,
    rounded to ``round_dp``)."""

    def __init__(self, centroids: np.ndarray, *, emb_col: str = "embedding",
                 round_dp: int = 6):
        self.C = np.asarray(centroids, dtype=np.float64)
        self.emb_col = emb_col
        self.round_dp = round_dp

    def __call__(self, tbl: pa.Table) -> pa.Table:
        M = _emb_matrix(tbl.column(self.emb_col))
        if M.shape[0] == 0:
            return tbl.append_column("cluster", pa.array([], pa.int64())) \
                      .append_column("sim", pa.array([], pa.float64()))
        sims = _normalize_rows(M) @ self.C.T
        assign = np.argmax(sims, axis=1)
        best = np.round(sims[np.arange(len(assign)), assign], self.round_dp)
        return tbl.append_column("cluster", pa.array(assign.astype(np.int64))) \
                  .append_column("sim", pa.array(best))


def assign_kmeans(ds, centroids: np.ndarray, *, emb_col: str = "embedding",
                  round_dp: int = 6):
    return ds.map_batches(
        KMeansAssigner(centroids, emb_col=emb_col, round_dp=round_dp),
        batch_format="pyarrow", zero_copy_batch=True,
    )
