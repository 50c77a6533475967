"""Document fingerprinting — winnowing over rolling k-gram hashes.

The standard local-fingerprinting scheme (Schleimer/Wilkerson/Aiken,
"Winnowing: Local Algorithms for Document Fingerprinting", SIGMOD 2003):
hash every k-byte shingle, slide a window of ``w`` consecutive shingle
hashes, select each window's MINIMUM hash; the selected set is a compact,
position-robust document signature whose overlaps estimate shared content
(the guarantee: any shared substring of length >= w + k - 1 contributes at
least one common fingerprint).

Ray shape: everything is one vectorized ``map_batches`` — shingle hashes
come from the batch's concatenated byte stream (reusing the MinHash shingle
machinery), window minima are ``w`` shifted gathers, no Python loop over
rows or windows.  Downstream joins/groupbys on fingerprints follow the
bucketed-exchange patterns used by the near-dup family.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.stages.neardup import _concat_aranges, _shingle_hashes
from great_expectations_ray.stages.text_stats import string_buffer


def winnow_fingerprints_batch(
    content: pa.Array | pa.ChunkedArray, *, k: int = 8, w: int = 4
) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-row winnowed fingerprint sets (sorted unique uint64) + shingle
    counts.  Vectorized: one shingle-hash pass over the concatenated stream,
    then ``w`` shifted gathers for the window minima."""
    data, offsets = string_buffer(content)
    hashes, counts = _shingle_hashes(data, offsets, k)
    n = len(counts)
    win_counts = np.maximum(counts - w + 1, 0)
    out: list[np.ndarray] = []
    if win_counts.sum() == 0:
        return [np.empty(0, dtype=np.uint64) for _ in range(n)], counts
    firsts = np.zeros(n, dtype=np.int64)
    np.cumsum(counts[:-1], out=firsts[1:])
    # window start indices into the flattened hash stream, all rows at once
    win_starts = np.repeat(firsts, win_counts) + _concat_aranges(win_counts)
    mins = hashes[win_starts]
    for j in range(1, w):
        np.minimum(mins, hashes[win_starts + j], out=mins)
    # split the flattened minima back into per-row unique sets
    row_firsts = np.zeros(n, dtype=np.int64)
    np.cumsum(win_counts[:-1], out=row_firsts[1:])
    for i in range(n):
        seg = mins[row_firsts[i] : row_firsts[i] + win_counts[i]]
        out.append(np.unique(seg))
    return out, counts


class WinnowFingerprinter:
    """Per-batch stage: adds ``fingerprints`` (list<uint64>),
    ``n_fingerprints`` and ``fp_digest`` (xor-fold of the set — a cheap
    whole-set equality probe) per row."""

    def __init__(self, column: str = "content", k: int = 8, w: int = 4):
        self.column = column
        self.k = k
        self.w = w

    def __call__(self, tbl: pa.Table) -> pa.Table:
        fps, _ = winnow_fingerprints_batch(
            tbl.column(self.column), k=self.k, w=self.w
        )
        digest = np.zeros(len(fps), dtype=np.uint64)
        for i, f in enumerate(fps):
            if len(f):
                digest[i] = np.bitwise_xor.reduce(f)
        tbl = tbl.append_column(
            "fingerprints",
            pa.array([f.tolist() for f in fps], pa.list_(pa.uint64())),
        )
        tbl = tbl.append_column(
            "n_fingerprints", pa.array([len(f) for f in fps], pa.int64())
        )
        tbl = tbl.append_column("fp_digest", pa.array(digest))
        return tbl


def fingerprint_candidate_ids(ds, *, id_col: str, text_col: str = "content",
                              k: int = 8, w: int = 4):
    """Dataset[(id_col,)] of docs sharing >= 1 winnowed fingerprint with
    another doc — the cheap candidate pre-filter for the exact-verify pass
    (stages/substr_dedup.py).

    Unlike ``fingerprint_overlap_candidates`` this emits IDS, not pairs, so
    a fingerprint shared by f docs costs O(f) rows, not O(f²) — no frequency
    cap needed, which preserves the winnowing guarantee: any shared span of
    length >= w + k - 1 makes BOTH docs candidates.  Output may repeat an id
    across buckets; consumers dedupe."""
    from great_expectations_ray.functions.bucketed import distinct_in_group, grouped_apply_bucketed

    def explode(tbl: pa.Table) -> pa.Table:
        fps, _ = winnow_fingerprints_batch(tbl.column(text_col), k=k, w=w)
        ids = np.asarray(tbl.column(id_col))
        lens = np.array([len(f) for f in fps], dtype=np.int64)
        return pa.table({
            "fp": pa.array(np.concatenate(fps) if lens.sum() else
                           np.empty(0, np.uint64)),
            id_col: pa.array(np.repeat(ids, lens)),
        })

    def shared_ids(g: pa.Table) -> pa.Table:
        m = distinct_in_group(g, "fp", id_col) >= 2
        return g.select([id_col]).filter(pa.array(m)).group_by([id_col]).aggregate([])

    return grouped_apply_bucketed(
        ds.select_columns([id_col, text_col])
        .map_batches(explode, batch_format="pyarrow", zero_copy_batch=True),
        ["fp"],
        shared_ids,
    )


def fingerprint_overlap_candidates(ds, *, id_col: str, text_col: str = "content",
                                   k: int = 8, w: int = 4, min_shared: int = 2):
    """Docs sharing >= ``min_shared`` winnowed fingerprints — the
    copy-detection join: explode (fingerprint, id), ONE groupby(fingerprint)
    exchange (bucketed), count shared ids per pair within fingerprint groups.
    Emits (id_a, id_b, shared) with id_a < id_b.

    Scale note: a fingerprint shared by f docs contributes O(f²) pairs —
    ubiquitous boilerplate fingerprints are dropped via a per-fingerprint
    frequency cap (128), the standard winnowing-index move."""
    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed, key_groups

    def explode(tbl: pa.Table) -> pa.Table:
        fps, _ = winnow_fingerprints_batch(tbl.column(text_col), k=k, w=w)
        ids = np.asarray(tbl.column(id_col))
        lens = np.array([len(f) for f in fps], dtype=np.int64)
        return pa.table({
            "fp": pa.array(np.concatenate(fps) if lens.sum() else
                           np.empty(0, np.uint64)),
            id_col: pa.array(np.repeat(ids, lens)),
        })

    def pairs_bucket(g: pa.Table) -> pa.Table:
        g, bounds = key_groups(g, ["fp"], [(id_col, "ascending")])
        all_ids = np.asarray(g.column(id_col))
        rows_a, rows_b = [all_ids[:0]], [all_ids[:0]]
        for s, e in zip(bounds[:-1], bounds[1:]):
            if e - s < 2 or e - s > 128:  # frequency cap
                continue
            ids = all_ids[s:e]
            ia, ib = np.triu_indices(len(ids), k=1)
            rows_a.append(ids[ia])
            rows_b.append(ids[ib])
        out = pa.table({"id_a": np.concatenate(rows_a), "id_b": np.concatenate(rows_b)})
        return out.group_by(["id_a", "id_b"]).aggregate([([], "count_all")]) \
            .rename_columns(["id_a", "id_b", "cnt"])

    def combine_bucket(g: pa.Table) -> pa.Table:
        out = g.group_by(["id_a", "id_b"]).aggregate([("cnt", "sum")]) \
            .rename_columns(["id_a", "id_b", "shared"])
        return out.filter(pc.greater_equal(out.column("shared"), min_shared))

    pair_partials = grouped_apply_bucketed(
        ds.select_columns([id_col, text_col])
        .map_batches(explode, batch_format="pyarrow", zero_copy_batch=True),
        ["fp"],
        pairs_bucket,
    )

    return grouped_apply_bucketed(pair_partials, ["id_a", "id_b"], combine_bucket)
