"""Bucketed group-by — the scalable substitute for high-cardinality
``groupby(key).map_groups``/``aggregate``, and the package's ONE exchange.

Ray's groupby pays per-GROUP overhead on the reduce side, which is
pathological when the key is high-cardinality (measured on this box: value
counts over 10M distinct keys took ~300 s via ``groupby(value).sum`` vs ~6 s
via 64 hash buckets on the SAME shuffle volume).  The fix is structural, not
a tuning knob: bucket rows by ``hash(key) % n_buckets``, run ONE
``groupby(bucket)`` exchange (identical data movement), and make the
per-bucket callable handle ALL keys in its bucket with vectorized Arrow ops
(``Table.group_by``, :func:`key_groups` + ``take``) — C-speed regardless of
key cardinality.

Every bucketed operator — one-sided (:func:`grouped_apply_bucketed`) or
two-sided (:func:`two_sided_exchange`: joins, set ops, as-of, diffs) — runs
through :func:`_exchange`: each batch's bucket slices travel as Arrow IPC
rows, so a bucket function always receives and returns typed Arrow tables.

Rows with equal keys always share a bucket, so any per-key computation is
exact.  Skew: a single hot KEY still lands in one bucket, but the per-bucket
work is vectorized, so a hot key costs O(its rows), not O(groups).
"""

from __future__ import annotations

from typing import NamedTuple

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


def group_codes(tbl: pa.Table, cols: list[str]) -> np.ndarray:
    """Dense ``int64`` code per row of ``tbl``'s (composite) key ``cols``:
    rows with equal keys share a code.  Built on Arrow's
    ``dictionary_encode``, so strings compare on all their bytes (pandas
    ``factorize`` stops at the first NUL), a null is one value, every NaN
    one value and ``-0.0`` equals ``0.0`` (:func:`canonical_keys`)."""
    from great_expectations_ray.functions.aggregates import canonical_keys

    codes = np.zeros(tbl.num_rows, dtype=np.int64)
    for c in cols:
        d = pc.dictionary_encode(canonical_keys(tbl.column(c).combine_chunks()),
                                 null_encoding="encode")
        codes = codes * max(len(d.dictionary), 1) + d.indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        if len(cols) > 1:
            codes = np.unique(codes, return_inverse=True)[1].astype(np.int64)
    return codes


def group_aggregate(tbl: pa.Table, keys: list[str], aggs: list) -> pa.Table:
    """``tbl.group_by(keys).aggregate(aggs)``, exact for every key: float
    keys compare as SQL's ``GROUP BY`` does (:func:`canonical_keys`), and
    since Arrow's multi-column grouper (pyarrow 16) splits one group in two
    when a key column holds nulls, such a key is grouped on its one
    ``int64`` :func:`group_codes` column instead.  Same layout as Arrow's:
    the keys, then the aggregates."""
    from great_expectations_ray.functions.aggregates import canonical_keys

    for k in keys:
        if pa.types.is_floating(tbl.schema.field(k).type):
            tbl = tbl.set_column(tbl.column_names.index(k), k,
                                 canonical_keys(tbl.column(k)))
    if len(keys) < 2 or not any(tbl.column(k).null_count for k in keys):
        return tbl.group_by(keys).aggregate(aggs)
    codes = group_codes(tbl, keys)
    g = tbl.append_column("__g", pa.array(codes)).group_by("__g").aggregate(aggs)
    first = np.unique(codes, return_index=True)[1]
    heads = tbl.select(keys).take(first[g.column("__g").to_numpy()])
    return pa.table(heads.columns + g.columns[1:],
                    names=heads.column_names + g.column_names[1:])


def key_groups(tbl: pa.Table, cols: list[str],
               order_by: list[tuple[str, str]] = ()) -> tuple[pa.Table, np.ndarray]:
    """``tbl`` sorted so each distinct key of ``cols`` (:func:`group_codes`)
    is one run of rows, ordered within the run by ``order_by`` (``(col,
    "ascending"|"descending")``, nulls last, stable), and the run bounds:
    group ``i`` is rows ``bounds[i]:bounds[i + 1]``."""
    codes = group_codes(tbl, cols)
    if order_by:
        keyed = pa.table([pa.array(codes), *[tbl.column(c) for c, _ in order_by]],
                         names=["__g", *[f"__o{i}" for i in range(len(order_by))]])
        order = pc.sort_indices(
            keyed, sort_keys=[("__g", "ascending")]
            + [(f"__o{i}", d) for i, (_, d) in enumerate(order_by)],
            null_placement="at_end").to_numpy()
    else:
        order = np.argsort(codes, kind="stable")
    codes = codes[order]
    starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]]) if len(codes) \
        else np.zeros(0, dtype=np.int64)
    return tbl.take(order), np.r_[starts, len(codes)].astype(np.int64)


def distinct_in_group(tbl: pa.Table, key: str, col: str) -> np.ndarray:
    """Per row of ``tbl``: how many distinct ``col`` values its ``key``
    group holds."""
    k = group_codes(tbl, [key])
    pairs = np.unique(group_codes(tbl, [key, col]), return_index=True)[1]
    return np.bincount(k[pairs], minlength=k.max() + 1 if len(k) else 0)[k]


def joined_per_key(tbl: pa.Table, key_cols: list[str], col: str, out: str,
                   order_by: list[str] = ()) -> pa.Table:
    """One row per distinct key: the key columns and ``out``, the key's
    ``col`` values as strings joined by ``,`` in ``order_by`` order."""
    tbl, bounds = key_groups(tbl, key_cols, [(c, "ascending") for c in order_by])
    vals = pc.cast(tbl.column(col), pa.string()).combine_chunks()
    lists = pa.LargeListArray.from_arrays(pa.array(bounds, pa.int64()), vals)
    return tbl.select(key_cols).take(bounds[:-1]).append_column(
        out, pc.binary_join(lists, ","))


# a slice is small: a thread pool per stream costs more than it saves
_IPC_WRITE = pa.ipc.IpcWriteOptions(use_threads=False)
_IPC_READ = pa.ipc.IpcReadOptions(use_threads=False)


def _pack(tbl: pa.Table, bounds: np.ndarray) -> pa.Array:
    """One Arrow IPC stream per slice ``bounds[i]:bounds[i + 1]`` of
    ``tbl``, written back to back into one buffer that becomes the
    ``large_binary`` array's data (no per-slice bytes objects)."""
    sink = pa.BufferOutputStream()
    offsets = [0]
    for s, e in zip(bounds[:-1], bounds[1:]):
        with pa.ipc.new_stream(sink, tbl.schema, options=_IPC_WRITE) as w:
            w.write_table(tbl.slice(s, e - s))
        offsets.append(sink.tell())
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), len(offsets) - 1,
        [None, pa.py_buffer(np.array(offsets, dtype=np.int64)), sink.getvalue()])


def _unpack(g: pa.Table, schema: pa.Schema | None) -> pa.Table | None:
    """The slices :func:`_pack` wrote into ``g``'s ``__rows``, read where
    they lie (no copy of the payload bytes) and returned as one table of
    one chunk (Arrow kernels in a bucket function run faster on contiguous
    columns than on one chunk per slice)."""
    tables = []
    for rows in g.column("__rows").chunks:
        # a sort that merged the bucket through pandas hands ``binary`` back
        rows = rows.cast(pa.large_binary())
        offs = np.frombuffer(rows.buffers()[1], dtype=np.int64)[
            rows.offset:rows.offset + len(rows) + 1]
        tables += [pa.ipc.open_stream(rows.buffers()[2].slice(s, e - s),
                                      options=_IPC_READ).read_all()
                   for s, e in zip(offs[:-1], offs[1:])]
    if not tables:
        return None if schema is None else schema.empty_table()
    return pa.concat_tables(tables, promote_options="permissive").combine_chunks()


def _tag(tbl: pa.Table, key_cols: list[str], key_types: dict, n_buckets: int,
         side: int) -> pa.Table:
    """One row ``(__bucket, __side, __rows)`` per bucket the batch's rows
    hash to: the bucket's rows as one Arrow IPC stream.  A key column named
    in ``key_types`` is hashed as that type; the rows keep their own.  A
    batch of already tagged rows is bucketed again."""
    if "__rows" in tbl.column_names:
        tbl = _unpack(tbl, None)
    keys = pa.table({c: pc.cast(tbl.column(c), key_types[c]) if c in key_types
                     else tbl.column(c) for c in key_cols})
    b = add_bucket(keys, key_cols, n_buckets).column("__bucket").to_numpy()
    # a radix sort: bucket ids fit 8 or 16 bits at any usual bucket count
    order = np.argsort(b.astype(np.min_scalar_type(n_buckets - 1)), kind="stable")
    b = b[order]
    starts = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
    return pa.table({
        "__bucket": pa.array(b[starts], pa.int64()),
        "__side": pa.array(np.full(len(starts), side, dtype=np.int8)),
        "__rows": _pack(tbl.take(order), np.r_[starts, len(b)]),
    })


def _tagged(ds, key_cols: list[str], key_types: dict, n_buckets: int, side: int):
    return ds.map_batches(_tag, fn_args=(key_cols, key_types, n_buckets, side),
                          batch_format="pyarrow", zero_copy_batch=True)


def _payload_schema(tagged) -> pa.Schema | None:
    """The rows' schema of a materialized tagged side, read from its first
    IPC payload where that block lives; ``None`` for a side with no rows."""
    import ray

    for bundle in tagged.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows:
                return ray.get(ray.remote(
                    lambda b: _unpack(b.slice(0, 1), None).schema).remote(ref))
    return None


def _exchange(tagged: list, bucket_fn, schemas: list, key_types: dict):
    """The package's one bucketed exchange.  Each batch of each side was
    split by :func:`add_bucket` on its key (:func:`_tag`): each bucket's
    slice travels as ONE row ``(__bucket, __side, __rows)`` whose
    ``__rows`` is an Arrow IPC stream of the slice, and the union of the
    sides is grouped by ``__bucket`` once.  The rows cross the exchange as
    opaque bytes, so nothing pads, re-types or loses them (Ray's sort may
    merge a bucket through pandas, which turns nullable ints into floats
    and NaN into null).  ``bucket_fn`` gets one typed ``pa.Table`` per side
    with each key column cast to ``key_types`` (a side with no rows in the
    bucket arrives as ``schemas[i]``'s empty table) and returns a
    ``pa.Table``, whose schema metadata is dropped (pandas metadata
    inherited from a pandas-written source is a dict, which Ray's
    block-schema deduplication cannot hash)."""
    def keyed(t: pa.Table) -> pa.Table:
        for c, typ in key_types.items():
            i = t.column_names.index(c)
            t = t.set_column(i, c, pc.cast(t.column(i), typ))
        return t

    def per_bucket(g: pa.Table) -> pa.Table:
        parts = [g]
        if len(schemas) > 1:
            side = g.column("__side").to_numpy()
            parts = [g.filter(pa.array(side == i)) for i in range(len(schemas))]
        return bucket_fn(*[keyed(_unpack(p, sch))
                           for p, sch in zip(parts, schemas)]).replace_schema_metadata()

    union = tagged[0] if len(tagged) == 1 else tagged[0].union(*tagged[1:])
    return union.groupby("__bucket").map_groups(per_bucket, batch_format="pyarrow")


def grouped_apply_bucketed(ds, key_cols: list[str], bucket_fn, *,
                           n_buckets: int = 256):
    """``groupby(key).map_groups(fn)`` re-expressed as bucket + vectorized
    per-bucket apply.  ``bucket_fn`` receives one BUCKET as a ``pa.Table``
    (all rows whose key hashes there, typed as their source) and must
    handle multiple keys itself — e.g. ``Table.group_by(key).aggregate``
    or :func:`key_groups`; it returns a ``pa.Table``.  Exactly one
    all-to-all exchange (:func:`_exchange`)."""
    tagged = _tagged(ds, list(key_cols), {}, n_buckets, 0)
    return _exchange([tagged], bucket_fn, [None], {})


def _hashes_alike(a: pa.DataType, b: pa.DataType) -> bool:
    """Whether :func:`column_hash` gives a value the same hash as ``a`` and
    as ``b`` (it hashes every integer as 64 bits, every float as ``float64``
    and a string by its bytes)."""
    return a == b or any(k(a) and k(b) for k in (
        pa.types.is_integer, pa.types.is_floating,
        lambda t: pa.types.is_string(t) or pa.types.is_large_string(t)))


class TaggedSides(NamedTuple):
    """Two sides bucketed on a shared key (:func:`tag_sides`)."""
    tagged: list
    schemas: list
    key_types: dict


def _arrow_schema(sch) -> pa.Schema | None:
    """A Ray dataset schema as Arrow's; pandas-block object columns are
    typed as strings."""
    if sch is None:
        return None
    return pa.schema([(n, t if isinstance(t, pa.DataType) else pa.string())
                      for n, t in zip(sch.names, sch.types)])


def tag_sides(left, right, key_cols: list[str], *, n_buckets: int) -> TaggedSides:
    """Bucket both sides on ``key_cols`` for :func:`two_sided_exchange`, and
    take each side's Arrow schema without running a side with rows twice
    (a one-block ``ds.schema()`` probe would re-run the side's plan, its
    exchanges included).  A schema Ray already knows is read as is.
    Otherwise the side is tagged on its own key types and materialized
    (the exchange holds the tagged rows anyway), and its schema is read
    from one IPC payload; only when a key hashes otherwise on the common
    type (``int`` meets ``float``; :func:`column_hash` ignores integer,
    float and string widths) are those tagged rows bucketed again.  Ray's
    map skips empty blocks, so a side
    with no rows is run once more to read the schema of its own (empty)
    blocks; a side with no schema even then gets the other side's keys
    alone."""
    key_cols = list(key_cols)
    sides, tagged = [left, right], [None, None]
    schemas = [_arrow_schema(ds.schema(fetch_if_missing=False)) for ds in sides]
    for i, ds in enumerate(sides):
        if schemas[i] is None:
            tagged[i] = _tagged(ds, key_cols, {}, n_buckets, i).materialize()
            schemas[i] = (_payload_schema(tagged[i])
                          or _arrow_schema(ds.materialize().schema()))
    if schemas[0] is None and schemas[1] is None:
        schemas[0] = pa.schema([(c, pa.null()) for c in key_cols])
    for i in (0, 1):
        schemas[i] = schemas[i] or pa.schema([schemas[1 - i].field(c) for c in key_cols])
    key_types = {c: pa.unify_schemas(
        [pa.schema([s.field(c)]) for s in schemas],
        promote_options="permissive").field(c).type for c in key_cols}
    for i, ds in enumerate(sides):
        if tagged[i] is None:
            tagged[i] = _tagged(ds, key_cols, key_types, n_buckets, i)
        elif not all(_hashes_alike(schemas[i].field(c).type, key_types[c])
                     for c in key_cols):
            tagged[i] = _tagged(tagged[i], key_cols, key_types, n_buckets, i)
    return TaggedSides(tagged, schemas, key_types)


def two_sided_exchange(sides: TaggedSides, bucket_fn):
    """:func:`grouped_apply_bucketed` over two :func:`tag_sides` sides:
    ``bucket_fn(l, r)`` receives one bucket's left and right rows, typed as
    their source with each key column on the common type of both sides
    (``int32`` meets ``int64``, ``string`` meets ``large_string``; float
    keys hash after ``-0.0``/NaN canonicalisation)."""
    return _exchange(sides.tagged, bucket_fn, sides.schemas, sides.key_types)


def sum_by_key(t: pa.Table, key_cols: list[str], cnt_col: str) -> pa.Table:
    """``(key..., cnt)`` rows summed per distinct key with Arrow's
    ``group_by``, which compares strings by all their bytes (pandas
    ``groupby`` over object strings stops at the first NUL)."""
    g = group_aggregate(t, key_cols, [(cnt_col, "sum")])
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
            n_buckets=n_buckets).materialize()
    blocks = [b for b in (ray.get(r) for r in mat.to_arrow_refs()) if b.num_rows]
    if not blocks:
        return _empty_counts(key_cols, cnt_col)
    return sum_by_key(pa.concat_tables(blocks, promote_options="default"),
                      key_cols, cnt_col)
