"""SemDeDup — semantic deduplication over an embedding column (Abbas et al.
2023, "SemDeDup: Data-efficient learning at web-scale through semantic
deduplication").  Not in the reference (GX has no embedding ops); it is a
core training-data operator: cluster embeddings with a coarse k-means, then
within each cluster drop every point whose cosine similarity to an
already-kept point exceeds a threshold (greedy keep-first in id order —
deterministic, unlike the paper's random tie-breaks).

Scalable shape:

- **Quantizer**: seeded spherical k-means on a driver-side prefix sample
  (same trainer as IVF ANN — ``stages/ann._kmeans_cosine``), centroids
  broadcast once via ``ray.put``.
- **Assign** (map_batches, vectorized): one matmul per batch labels every
  row with its nearest centroid.
- **Prune** (ONE exchange): ``groupby(cluster)`` co-locates each semantic
  cluster; per cluster, a vectorized greedy pass keeps a point iff its max
  cosine against the kept set is below ``threshold``.  Per-cluster cost is
  O(size × kept) fused matvecs — the SemDeDup algorithm's own cost; at 100
  TB you raise ``n_centroids`` so clusters stay small (the paper uses 50k
  clusters for LAION), and ``max_cluster_size`` caps a degenerate cluster
  by keeping only its first ``max_cluster_size`` points' verdicts exact and
  marking the overflow as duplicates (the conservative side for filtering).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from great_expectations_ray.stages.ann import _emb_matrix, _kmeans_cosine


def _greedy_prune(M: np.ndarray, threshold: float) -> np.ndarray:
    """is_dup flags for rows of normalized ``M`` scanned in order: a row is
    a duplicate iff some EARLIER kept row has cosine >= threshold."""
    n = len(M)
    is_dup = np.zeros(n, dtype=bool)
    kept: list[int] = []
    for i in range(n):
        if kept:
            sims = M[kept] @ M[i]
            if bool((sims >= threshold).any()):
                is_dup[i] = True
                continue
        kept.append(i)
    return is_dup


def semdedup(
    ds,
    *,
    threshold: float = 0.9,
    n_centroids: int = 16,
    sample_rows: int = 2000,
    seed: int = 13,
    iters: int = 10,
    max_cluster_size: int = 100_000,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
):
    """Dataset of ``(id_col, cluster, is_dup)`` — keep rows with
    ``is_dup == False`` for the deduplicated corpus."""
    import ray

    from great_expectations_ray.stages.ann import _prefix_sample

    sample = _prefix_sample(ds, emb_col, id_col, sample_rows)
    C = _kmeans_cosine(sample, n_centroids, seed, iters)
    ref = ray.put(C)

    def assign(tbl: pa.Table) -> pa.Table:
        cents = ray.get(ref)
        M = _emb_matrix(tbl.column(emb_col))
        if M.shape[0] == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "cluster": pa.array([], pa.int64()),
                             emb_col: tbl.column(emb_col)})
        norms = np.maximum(np.linalg.norm(M, axis=1), 1e-30)
        Mn = M / norms[:, None]
        cl = np.argmax(Mn @ cents.T, axis=1)
        return pa.table({
            id_col: tbl.column(id_col),
            "cluster": pa.array(cl.astype(np.int64)),
            emb_col: tbl.column(emb_col),
        })

    def prune_one(g: pa.Table) -> pa.Table:
        # Arrow-native on an id-sorted single-cluster slice: view the
        # embedding list column's contiguous value buffer as an (n, d)
        # matrix in one reshape — no per-row np.asarray conversion
        M = _emb_matrix(g.column(emb_col))
        M = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-30)
        head = min(g.num_rows, max_cluster_size)
        is_dup = np.ones(g.num_rows, dtype=bool)  # overflow -> conservative dup
        is_dup[:head] = _greedy_prune(M[:head], threshold)
        return pa.table({
            id_col: g.column(id_col),
            "cluster": g.column("cluster"),
            "is_dup": pa.array(is_dup),
        })

    def prune_bucket(g: pa.Table) -> pa.Table:
        # one bucket holds MANY clusters (cluster count is n/cluster_size —
        # unbounded, so Ray's per-group reduce is the wrong substrate); sort
        # by (cluster, id) once and prune each equal-cluster run
        g, bounds = key_groups(g, ["cluster"], [(id_col, "ascending")])
        return pa.concat_tables(
            [prune_one(g.slice(int(s), int(e - s)))
             for s, e in zip(bounds[:-1], bounds[1:])])

    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed, key_groups

    labeled = ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_apply_bucketed(labeled, ["cluster"], prune_bucket)
