"""Product quantization over an embedding column (Jégou et al. 2011,
"Product Quantization for Nearest Neighbor Search", IEEE TPAMI).

The compression half of the ANN story: ``stages/ann.py`` prunes WHICH rows
are scored (LSH buckets / IVF lists); PQ shrinks WHAT is stored per row —
a unit-normalized ``dim``-float vector becomes ``m`` uint8 codes (e.g.
64 × 8 B = 512 B -> 4 B, 128×), so a 100 TB embedding corpus's codes fit
in cluster RAM and candidate scoring never re-reads the raw vectors.

Pieces (each a standard Ray Data shape):

- ``fit_pq``: per-subspace Euclidean k-means over the L2-normalized rows.
  ALL ``m`` subspaces train in the SAME streaming pass per Lloyd iteration
  — one ``map_batches`` emits ``m × ncodes`` partial rows per block
  (subspace, code, count, int64 qsum), the driver folds them exactly.  No
  shuffle anywhere; ``iters`` passes total, same as ``stages/kmeans``.
- ``encode_pq``: per-batch ``map_batches`` — codebooks land once per
  instance in ``__init__``; each batch is m small matmuls + argmax.  Emits the packed
  int64 ``code`` (base-``ncodes`` digits, subspace 0 least significant) and,
  when a query is supplied, the ADC approximate cosine ``adc``.
- ADC (asymmetric distance computation): the query stays un-quantized; a
  per-subspace lookup table ``LUT[s, c] = qn_s · C[s, c]`` is built once
  (m × ncodes floats), and each row's approximate cosine is the sequential
  sum ``Σ_s LUT[s, code_s]`` — O(m) per row, no ``dim``-float math.

Determinism contract (same discipline as ``stages/kmeans``, which lets the
op carry a bit-exact fixture oracle): init is the distributed
``splitmix64(id ^ seed)`` bottom-``ncodes`` pick; every cross-block
accumulation is an int64 partial (rows quantized at ``2**SCALE_BITS``,
per-slice caps bound the cells) folded in Python ints; centroids are plain
means (Euclidean PQ — NOT renormalized: the codebook approximates the unit
row's subvector, whose norm is < 1); assignment maximizes
``v·c − ||c||²/2`` with ties to the lowest code; the ADC sum is specified
sequential over subspaces.  Result: codes and ADC scores are bit-identical
under any partitioning / CPU count.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from great_expectations_ray.stages.ann import _emb_matrix
from great_expectations_ray.stages.kmeans import (
    MAX_BATCH_ROWS,
    SCALE_BITS,
    _normalize_rows,
    _splitmix64,
    _U64,
)


class PQModel:
    """Trained codebooks: ``C[s]`` is (ncodes × subdim) for subspace ``s``."""

    def __init__(self, codebooks: np.ndarray):
        self.C = np.asarray(codebooks, dtype=np.float64)  # (m, ncodes, subdim)
        self.m, self.ncodes, self.subdim = self.C.shape

    def pack(self, codes: np.ndarray) -> np.ndarray:
        """(n × m) per-subspace codes -> one int64 per row (base ncodes,
        subspace 0 least significant).  16 codes × 8 subspaces = 2^32 max —
        always exact in int64 (and in a float64 oracle column)."""
        out = np.zeros(codes.shape[0], dtype=np.int64)
        for s in range(self.m - 1, -1, -1):
            out = out * self.ncodes + codes[:, s]
        return out

    def assign(self, Xn: np.ndarray) -> np.ndarray:
        """Per-subspace nearest code of the unit rows ``Xn``: argmax of
        ``v·c − ||c||²/2`` (ties -> lowest code via np.argmax)."""
        n = Xn.shape[0]
        codes = np.empty((n, self.m), dtype=np.int64)
        for s in range(self.m):
            V = Xn[:, s * self.subdim:(s + 1) * self.subdim]
            Cs = self.C[s]
            codes[:, s] = np.argmax(V @ Cs.T - 0.5 * (Cs * Cs).sum(axis=1)[None, :],
                                    axis=1)
        return codes

    def adc_table(self, query: np.ndarray) -> np.ndarray:
        """LUT[s, c] = (query/|query|)_s · C[s, c]."""
        q = np.asarray(query, dtype=np.float64)
        qn = q / max(np.linalg.norm(q), 1e-30)
        return np.stack([self.C[s] @ qn[s * self.subdim:(s + 1) * self.subdim]
                         for s in range(self.m)])

    def adc_scores(self, codes: np.ndarray, lut: np.ndarray) -> np.ndarray:
        """Sequential-over-subspaces sum (the specified order — both engine
        and oracle accumulate s = 0..m−1 so the float result is identical)."""
        acc = np.zeros(codes.shape[0], dtype=np.float64)
        for s in range(self.m):
            acc = acc + lut[s][codes[:, s]]
        return acc


def _init_codebooks(ds, m: int, ncodes: int, *, id_col: str, emb_col: str,
                    seed: int) -> np.ndarray:
    """Distributed deterministic init: the ``ncodes`` rows with the smallest
    ``splitmix64(id ^ seed)`` seed every subspace's codebook (their unit-row
    slices) — same bottom-k merge shape as ``kmeans.init_centroids``."""
    import heapq

    def local_bottomk(tbl: pa.Table) -> pa.Table:
        ids = np.asarray(tbl.column(id_col), dtype=np.int64)
        if len(ids) == 0:
            return pa.table({"key": pa.array([], pa.uint64()),
                             id_col: pa.array([], pa.int64()),
                             emb_col: tbl.column(emb_col)})
        keys = _splitmix64(ids.view(np.uint64) ^ np.uint64(seed & _U64))
        take = min(ncodes, len(ids))
        part = np.argpartition(keys, take - 1)[:take]
        part = part[np.argsort(keys[part], kind="stable")]
        col = tbl.column(emb_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        idx = pa.array(part.astype(np.int64))
        return pa.table({"key": pa.array(keys[part]),
                         id_col: pa.array(ids[part]),
                         emb_col: col.take(idx)})

    rows = ds.map_batches(local_bottomk, batch_format="pyarrow",
                          zero_copy_batch=True).take_all()
    best = heapq.nsmallest(ncodes, rows,
                           key=lambda r: (int(r["key"]), int(r[id_col])))
    M = np.stack([np.asarray(r[emb_col], dtype=np.float64) for r in best])
    return _slice_subspaces(_normalize_rows(M), m)


def _slice_subspaces(Xn: np.ndarray, m: int) -> np.ndarray:
    dim = Xn.shape[1]
    if dim % m:
        raise ValueError(f"pq: dim {dim} not divisible by m={m}")
    subdim = dim // m
    return np.stack([Xn[:, s * subdim:(s + 1) * subdim] for s in range(m)])


def _batch_partials(tbl: pa.Table, model: PQModel, emb_col: str) -> pa.Table:
    """ONE (m × ncodes) int64 partial block per batch (cell bound
    2^SCALE_BITS · batch rows — the kmeans bound; the exchange carries
    m·ncodes rows per BLOCK at any corpus size)."""
    m, ncodes, subdim = model.m, model.ncodes, model.subdim
    M = _emb_matrix(tbl.column(emb_col))
    if M.shape[0] == 0:
        return pa.table({"sub": pa.array([], pa.int64()),
                         "code": pa.array([], pa.int64()),
                         "count": pa.array([], pa.int64()),
                         "qsum": pa.array([], pa.list_(pa.int64()))})
    S = np.zeros((m, ncodes, subdim), dtype=np.int64)
    counts = np.zeros((m, ncodes), dtype=np.int64)
    for lo in range(0, M.shape[0], MAX_BATCH_ROWS):
        Xn = _normalize_rows(M[lo:lo + MAX_BATCH_ROWS])
        codes = model.assign(Xn)
        Q = np.rint(Xn * float(1 << SCALE_BITS)).astype(np.int64)
        for s in range(m):
            np.add.at(S[s], codes[:, s], Q[:, s * subdim:(s + 1) * subdim])
            counts[s] += np.bincount(codes[:, s], minlength=ncodes)
    sub, code = np.nonzero(counts)
    return pa.table({
        "sub": pa.array(sub.astype(np.int64)),
        "code": pa.array(code.astype(np.int64)),
        "count": pa.array(counts[sub, code]),
        "qsum": pa.array(list(S[sub, code])) if len(sub)
        else pa.array([], pa.list_(pa.int64())),
    })


def _fold_partials(tables, model: PQModel) -> np.ndarray:
    """Exact Python-int fold -> new codebooks (plain means; empty codes keep
    their previous centroid).  Order-independent, so any block grouping
    yields bit-identical codebooks."""
    m, ncodes, subdim = model.m, model.ncodes, model.subdim
    counts = [[0] * ncodes for _ in range(m)]
    sums = [[[0] * subdim for _ in range(ncodes)] for _ in range(m)]
    for b in tables:
        subs = b.column("sub").to_pylist()
        codes = b.column("code").to_pylist()
        ns = b.column("count").to_pylist()
        qs = b.column("qsum").to_pylist()
        for s, c, cnt, vec in zip(subs, codes, ns, qs):
            counts[s][c] += cnt
            sc = sums[s][c]
            for j, v in enumerate(vec):
                sc[j] += v
    scale = float(1 << SCALE_BITS)
    out = model.C.copy()
    for s in range(m):
        for c in range(ncodes):
            if counts[s][c]:
                vec = np.array([float(v) for v in sums[s][c]], dtype=np.float64)
                out[s, c] = vec / (scale * counts[s][c])
    return out


def fit_pq(ds, m: int = 4, ncodes: int = 16, iters: int = 6, *,
           id_col: str = "vec_id", emb_col: str = "embedding", seed: int = 5,
           max_driver_rows: int = 100_000) -> PQModel:
    """Train PQ codebooks: ``iters`` + 1 streaming passes (init pick + joint
    all-subspace Lloyd updates), no shuffle, bit-reproducible under any
    partitioning.  Small tables (≤ ``max_driver_rows``) take the kmeans-style
    driver fast path: one materialization, the SAME integer iteration locally
    — bit-identical by construction."""
    if max_driver_rows and ds.count() <= max_driver_rows:
        import heapq

        import ray as _ray

        refs = ds.select_columns([id_col, emb_col]).to_arrow_refs()
        tables = [t for t in _ray.get(refs) if t.num_rows]
        if not tables:
            raise ValueError("pq: empty dataset")
        tbl = pa.concat_tables(tables)
        ids = np.asarray(tbl.column(id_col), dtype=np.int64)
        keys = _splitmix64(ids.view(np.uint64) ^ np.uint64(seed & _U64))
        order = heapq.nsmallest(min(ncodes, len(ids)), range(len(ids)),
                                key=lambda i: (int(keys[i]), int(ids[i])))
        M = _emb_matrix(tbl.column(emb_col))
        model = PQModel(_slice_subspaces(_normalize_rows(
            M[order].astype(np.float64, copy=True)), m))
        for _ in range(iters):
            model = PQModel(_fold_partials(
                [_batch_partials(tbl, model, emb_col)], model))
        return model
    model = PQModel(_init_codebooks(ds, m, ncodes, id_col=id_col,
                                    emb_col=emb_col, seed=seed))
    for _ in range(iters):
        partials = ds.map_batches(
            lambda t, _mdl=model: _batch_partials(t, _mdl, emb_col),
            batch_format="pyarrow", zero_copy_batch=True)
        model = PQModel(_fold_partials(
            partials.iter_batches(batch_format="pyarrow"), model))
    return model


class PQEncoder:
    """Per-batch encode stage: the codebooks and the optional ADC LUT are
    built in ``__init__``; ``__call__`` is m small matmuls + an O(m)-per-row
    LUT sum.  Adds ``code`` (packed int64) and, when a query
    was supplied, ``adc`` (approximate cosine, rounded to ``round_dp``)."""

    def __init__(self, codebooks: np.ndarray, *, emb_col: str = "embedding",
                 query: np.ndarray | None = None, round_dp: int = 6):
        self.model = PQModel(codebooks)
        self.emb_col = emb_col
        self.round_dp = round_dp
        self.lut = None if query is None else self.model.adc_table(query)

    def __call__(self, tbl: pa.Table) -> pa.Table:
        M = _emb_matrix(tbl.column(self.emb_col))
        if M.shape[0] == 0:
            out = tbl.append_column("code", pa.array([], pa.int64()))
            if self.lut is not None:
                out = out.append_column("adc", pa.array([], pa.float64()))
            return out
        codes = self.model.assign(_normalize_rows(M))
        out = tbl.append_column("code", pa.array(self.model.pack(codes)))
        if self.lut is not None:
            adc = np.round(self.model.adc_scores(codes, self.lut), self.round_dp)
            out = out.append_column("adc", pa.array(adc))
        return out


def encode_pq(ds, model: PQModel, *, emb_col: str = "embedding",
              query: np.ndarray | None = None, round_dp: int = 6):
    return ds.map_batches(
        PQEncoder(model.C, emb_col=emb_col, query=query, round_dp=round_dp),
        batch_format="pyarrow", zero_copy_batch=True,
    )


def pq_topk(ds, model: PQModel, query: np.ndarray, k: int = 10, *,
            id_col: str = "vec_id", emb_col: str = "embedding"):
    """ADC approximate top-k: encode + score per batch, local top-k, driver
    merges #blocks × k rows (the ``brute_force_topk`` merge shape) — the
    corpus never leaves the workers and scoring is O(m) per row."""
    import heapq

    scored = encode_pq(ds.select_columns([id_col, emb_col]), model,
                       emb_col=emb_col, query=query)

    def local_topk(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        if n == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "adc": pa.array([], pa.float64())})
        adc = np.asarray(tbl.column("adc"), dtype=np.float64)
        ids = np.asarray(tbl.column(id_col), dtype=np.int64)
        take = min(k, n)
        part = np.argpartition(-adc, take - 1)[:take]
        return pa.table({id_col: pa.array(ids[part]),
                         "adc": pa.array(adc[part])})

    rows = scored.map_batches(local_topk, batch_format="pyarrow",
                              zero_copy_batch=True).take_all()
    best = heapq.nsmallest(k, rows, key=lambda r: (-r["adc"], r[id_col]))
    return [(int(r[id_col]), float(r["adc"])) for r in best]
