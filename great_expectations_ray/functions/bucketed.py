"""Bucketed group-by — the scalable substitute for high-cardinality
``groupby(key).map_groups``/``aggregate``.

Ray's groupby pays per-GROUP overhead on the reduce side, which is
pathological when the key is high-cardinality (measured on this box: value
counts over 10M distinct keys took ~300 s via ``groupby(value).sum`` vs ~6 s
via 64 hash buckets on the SAME shuffle volume).  The fix is structural, not
a tuning knob: bucket rows by ``hash(key) % n_buckets``, run ONE
``groupby(bucket)`` exchange (identical data movement), and make the
per-bucket callable handle ALL keys in its bucket with vectorized
pandas/Arrow ops (``drop_duplicates``, ``groupby().max()``,
``Table.group_by``) — C-speed regardless of key cardinality.

Rows with equal keys always share a bucket, so any per-key computation is
exact.  Skew: a single hot KEY still lands in one bucket, but the per-bucket
work is vectorized, so a hot key costs O(its rows), not O(groups).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


_MIX1 = np.uint64(0x9E3779B97F4A7C15)
_MIX2 = np.uint64(0xC2B2AE3D27D4EB4F)
_POLY_B = np.uint64(1099511628211)


def poly_hash_strings(arr: pa.Array) -> np.ndarray:
    """uint64 hash per string — vectorized polynomial pass straight off the
    Arrow UTF-8 buffer (Σ byte_j·B^j mod 2^64, then avalanche mixing).  Pure
    numpy: no per-row Python, no extra imports in the worker hot path.

    Sibling kernel: ``stages/neardup.py _token_poly_hashes`` (same
    offsets/cumsum-reduceat construction, no avalanche — keep edge-case
    fixes in sync)."""
    from great_expectations_ray.stages.scrub import _string_buffer_views

    n = len(arr)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    offs, mv = _string_buffer_views(arr)
    offs = offs.astype(np.int64)
    lens = offs[1:] - offs[:-1]
    total = int(lens.sum())
    h = np.zeros(n, dtype=np.uint64)
    if total:
        data = np.frombuffer(mv, dtype=np.uint8)[offs[0] : offs[-1]]
        pos = np.arange(total, dtype=np.int64)
        seg_starts = np.zeros(n, dtype=np.int64)
        np.cumsum(lens[:-1], out=seg_starts[1:])
        pos -= np.repeat(seg_starts, lens)  # position within each string
        maxlen = int(lens.max())
        powers = np.ones(maxlen, dtype=np.uint64)
        if maxlen > 1:
            powers[1:] = _POLY_B
            np.multiply.accumulate(powers, out=powers, dtype=np.uint64)
        contrib = data.astype(np.uint64) * powers[pos]
        nz = lens > 0
        h[nz] = np.add.reduceat(contrib, seg_starts[nz])
    # length-aware avalanche so "" and prefixes don't collide trivially
    h ^= lens.astype(np.uint64) * _MIX1
    h = (h * _MIX1) ^ (h >> np.uint64(29))
    h *= _MIX2
    return h


def column_hash(arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Deterministic vectorized uint64 hash per value, on the value's own
    type: an integer mix for integer, boolean, temporal and float keys (a
    float hashes its bits after ``-0.0`` -> ``0.0`` and every NaN -> one
    NaN, so keys that compare or group equal share a hash), the buffer
    polynomial hash for strings and binaries, and the string form for any
    other type.  A null hashes like ``0`` / ``""`` (a bucket needs only
    determinism and uniformity)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    t = arr.type
    if pa.types.is_floating(t):
        x = np.asarray(pc.fill_null(pc.cast(arr, pa.float64()), 0.0)) + 0.0
        x[np.isnan(x)] = np.nan
        return _int_mix(x.view(np.uint64))
    if pa.types.is_boolean(t):
        arr = pc.cast(arr, pa.int8())
    elif (pa.types.is_timestamp(t) or pa.types.is_date(t)
          or pa.types.is_time(t) or pa.types.is_duration(t)):
        arr = arr.view(pa.int64() if t.bit_width == 64 else pa.int32())
    if pa.types.is_integer(arr.type):
        target = pa.uint64() if pa.types.is_unsigned_integer(arr.type) else pa.int64()
        return _int_mix(np.asarray(pc.fill_null(pc.cast(arr, target), 0)).astype(np.uint64))
    if not (pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_binary(t) or pa.types.is_large_binary(t)):
        arr = pc.cast(arr, pa.string())
    return poly_hash_strings(pc.fill_null(arr, ""))


def _int_mix(x: np.ndarray) -> np.ndarray:
    h = (x * _MIX1) ^ (x >> np.uint64(31))
    return h * _MIX2


def hash_bucket_of(arr: pa.Array | pa.ChunkedArray, n_buckets: int) -> np.ndarray:
    """Bucket id per value of one column (:func:`column_hash` mod
    ``n_buckets``)."""
    return (column_hash(arr) % np.uint64(n_buckets)).astype(np.int64)


def add_bucket(tbl: pa.Table, key_cols: list[str], n_buckets: int) -> pa.Table:
    """Append ``__bucket``, the bucket id of each row's (composite) key: the
    typed per-column hashes combined per row, no string join, so rows with
    equal keys always share a bucket."""
    h = column_hash(tbl.column(key_cols[0]))
    for c in key_cols[1:]:
        h = _int_mix(h * _POLY_B ^ column_hash(tbl.column(c)))
    return tbl.append_column("__bucket", pa.array((h % np.uint64(n_buckets)).astype(np.int64)))


def grouped_apply_bucketed(
    ds,
    key_cols: list[str],
    bucket_fn,
    *,
    n_buckets: int = 256,
    batch_format: str = "pandas",
):
    """``groupby(key).map_groups(fn)`` re-expressed as bucket + vectorized
    per-bucket apply.  ``bucket_fn`` receives one BUCKET (all rows whose key
    hashes there, including a ``__bucket`` column) and must handle multiple
    keys itself — e.g. ``df.sort_values(key).drop_duplicates(key)`` or
    ``df.groupby(key).agg(...)``.  Exactly one all-to-all exchange."""
    return (
        ds.map_batches(add_bucket, fn_args=(key_cols, n_buckets),
                       batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__bucket")
        .map_groups(bucket_fn, batch_format=batch_format)
    )


def sum_by_key(t: pa.Table, key_cols: list[str], cnt_col: str) -> pa.Table:
    """``(key..., cnt)`` rows summed per distinct key with Arrow's
    ``group_by``, which compares strings by all their bytes (pandas
    ``groupby`` over object strings stops at the first NUL)."""
    g = t.group_by(key_cols).aggregate([(cnt_col, "sum")])
    return pa.table([g.column(k) for k in key_cols] + [g.column(f"{cnt_col}_sum")],
                    names=[*key_cols, cnt_col])


def _empty_counts(key_cols: list[str], cnt_col: str) -> pa.Table:
    return pa.table({c: pa.array([], pa.int64()) for c in [*key_cols, cnt_col]})


def merge_count_partials(
    partials_ds,
    key_cols: list[str],
    *,
    cnt_col: str = "cnt",
    max_driver_rows: int = 4_000_000,
    n_buckets: int = 64,
) -> pa.Table:
    """Exact global sums of sparse per-batch ``(key..., cnt)`` integer
    partials, returned as ONE Arrow table (``key_cols + [cnt_col]``).

    Every caller of this shape (hashed-n-gram / trigram / bigram model
    trainers) ultimately collects the merged table to the driver to build a
    dense broadcast model, so the merged size is bounded by the model's key
    domain by construction.  The exchange exists only to pre-merge
    per-batch duplicates — pure fixed cost when the UNMERGED total is
    already small.  Fast path: materialize the partials (that executes the
    count pass; blocks are tiny), and when their total row count is at most
    ``max_driver_rows`` (~64 MB at the default), concat + ``group_by`` sum
    driver-side — no all-to-all at all, saving the Sort operator's fixed
    seconds.  Above the cap: ONE bucketed exchange (the standard
    substrate).  Integer sums are order-free, so both paths are
    bit-identical."""
    import ray

    mat = partials_ds.materialize()
    if mat.count() > max_driver_rows:
        mat = grouped_apply_bucketed(
            mat, key_cols, lambda b: sum_by_key(b, key_cols, cnt_col),
            n_buckets=n_buckets, batch_format="pyarrow").materialize()
    blocks = [b for b in (ray.get(r) for r in mat.to_arrow_refs()) if b.num_rows]
    if not blocks:
        return _empty_counts(key_cols, cnt_col)
    return sum_by_key(pa.concat_tables(blocks, promote_options="default"),
                      key_cols, cnt_col)
