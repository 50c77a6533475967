"""Joins — not in the reference (SURVEY §2.6: GX has none), but required for
real pipelines around it (lineage enrichment, metadata attachment, dropping
flagged rows by id).  Three scalable shapes per the Ray guide:

- **broadcast_join**: small side published once via ``ray.put``; every batch
  does an in-memory Arrow join.  No shuffle.
- **broadcast_semi_anti**: broadcast the KEY SET only; filter inside
  map_batches.
- **hash_bucket_join**: both sides large — ONE bucketed exchange
  (:func:`two_sided_exchange`): both sides are split by
  ``bucketed.add_bucket`` on the typed key, each bucket's slice travels
  tagged with an int8 side as one Arrow IPC row, and one
  ``groupby(__bucket)`` co-locates equal keys; each bucket runs
  ``pa.Table.join`` (inner / left) or an ``is_in`` filter (semi / anti).

Key semantics are SQL's (DuckDB-checked in tests): a null key never
matches, ``-0.0`` equals ``0.0``, NaN equals NaN, and keys of different
widths (``int32``/``int64``, ``string``/``large_string``) join on their
common type.  Output columns keep their source types.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.functions.aggregates import canonical_keys
from great_expectations_ray.stages._per_worker import map_per_worker


def broadcast_join(ds, small_df: pd.DataFrame, *, on: list[str] | str, how: str = "inner"):
    """Join a Dataset against a SMALL pandas/Arrow table (dimension side).

    Arrow-native: the small side is converted to an Arrow table ONCE on the
    driver, published via ``ray.put``, and each batch runs a zero-copy
    ``pa.Table.join`` — no per-batch Arrow→pandas→Arrow round-trip."""
    import ray

    on = [on] if isinstance(on, str) else list(on)
    small_tbl = (
        small_df if isinstance(small_df, pa.Table) else pa.Table.from_pandas(small_df)
    )
    ref = ray.put(small_tbl)
    # map every pandas-merge spelling (the pre-Arrow API) to Arrow's names;
    # note "outer" here is per-batch outer vs the small side — unmatched
    # small-side rows repeat per batch, so prefer how="left" on the big side
    join_type = {
        "inner": "inner", "left": "left outer", "right": "right outer",
        "outer": "full outer", "full": "full outer",
    }.get(how, how)

    class Joiner:
        def __init__(self):
            self.small = ray.get(ref)  # once per worker

        def __call__(self, tbl: pa.Table) -> pa.Table:
            out = tbl.join(self.small, keys=on, join_type=join_type)
            return out.combine_chunks()

    return map_per_worker(ds, Joiner, batch_format="pyarrow")


def broadcast_semi_anti(ds, keys, *, on: str, anti: bool = False):
    """Semi (keep rows whose key IS in the set) / anti (is NOT) via a
    broadcast key set."""
    import ray

    key_arr = pa.array(sorted(set(keys)))
    ref = ray.put(key_arr)

    def f(tbl: pa.Table) -> pa.Table:
        ks = ray.get(ref)
        m = pc.is_in(tbl.column(on), value_set=ks)
        if anti:
            m = pc.invert(m)
        # Null keys: "not in the set" — kept for anti, dropped for semi.
        return tbl.filter(pc.fill_null(m, anti))

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def _fields(ds) -> list[tuple[str, pa.DataType]]:
    sch = ds.schema()
    if sch is None:  # no block carries a schema: an empty dataset
        return []
    # pandas-block datasets report object columns as ``object``: strings here
    return [(n, t if isinstance(t, pa.DataType) else pa.string())
            for n, t in zip(sch.names, sch.types)]


def key_in(tbl: pa.Table, keys, on: str) -> pa.Array:
    """Per row of ``tbl``: is its ``on`` value among ``keys``?  A null key
    is never found (False), NaN finds NaN and ``-0.0`` finds ``0.0``
    (``canonical_keys``: Acero's join and ``is_in`` tell them apart)."""
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    return pc.is_in(canonical_keys(tbl.column(on)),
                    value_set=canonical_keys(keys), skip_nulls=True)


def _pack(tbl: pa.Table) -> bytes:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, tbl.schema) as w:
        w.write_table(tbl)
    return sink.getvalue().to_pybytes()


def _unpack(payloads: list, schema: pa.Schema) -> pa.Table:
    tables = [pa.ipc.open_stream(p.as_buffer()).read_all() for p in payloads]
    if not tables:
        return schema.empty_table()
    return pa.concat_tables(tables, promote_options="permissive")


def two_sided_exchange(left, right, *, on: str, n_buckets: int, bucket_fn):
    """The one two-sided exchange.  Each batch of either side is split by
    ``bucketed.add_bucket`` on its key (cast to the common type of both key
    columns, so ``int32`` meets ``int64`` and ``string`` meets
    ``large_string``; float keys hash after ``-0.0``/NaN canonicalisation),
    and each bucket's slice travels as ONE row ``(__bucket, __side,
    __rows)``: an Arrow IPC stream of the slice, tagged 0 (left) / 1
    (right).  The union is grouped by ``__bucket`` once.  The rows cross
    the exchange as opaque bytes, so nothing pads, re-types or loses them
    (Ray's sort may merge a bucket through pandas, which turns nullable
    ints into floats and NaN into null).  ``bucket_fn(l, r)`` receives one
    bucket's left and right rows, typed as their source with the key on the
    common type, and returns a table; an ``on`` column in it is cast back to
    the left key's type (every emitted key is a left value: lossless)."""
    from great_expectations_ray.functions.bucketed import add_bucket

    l_fields, r_fields = _fields(left), _fields(right)
    # a side with no schema is empty: give it the other side's key alone
    key = [(on, dict(l_fields or r_fields).get(on, pa.null()))]
    l_schema, r_schema = pa.schema(l_fields or key), pa.schema(r_fields or key)
    l_key = l_schema.field(on).type
    key_type = pa.unify_schemas(
        [pa.schema([l_schema.field(on)]), pa.schema([r_schema.field(on)])],
        promote_options="permissive").field(on).type

    def tag(tbl: pa.Table, side: int) -> pa.Table:
        b = add_bucket(pa.table({on: pc.cast(tbl.column(on), key_type)}),
                       [on], n_buckets).column("__bucket").to_numpy()
        order = np.argsort(b, kind="stable")
        b = b[order]
        starts = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
        ends = np.r_[starts[1:], len(b)]
        tbl = tbl.take(order)
        return pa.table({
            "__bucket": pa.array(b[starts], pa.int64()),
            "__side": pa.array(np.full(len(starts), side, dtype=np.int8)),
            "__rows": pa.array([_pack(tbl.slice(s, e - s))
                                for s, e in zip(starts, ends)], pa.large_binary()),
        })

    def keyed(t: pa.Table) -> pa.Table:
        i = t.column_names.index(on)
        return t.set_column(i, on, pc.cast(t.column(i), key_type))

    def per_bucket(g: pa.Table) -> pa.Table:
        side = g.column("__side").to_numpy(zero_copy_only=False)
        rows = g.column("__rows")
        l = _unpack([r for r, s in zip(rows, side) if s == 0], l_schema)
        r = _unpack([r for r, s in zip(rows, side) if s == 1], r_schema)
        out = bucket_fn(keyed(l), keyed(r))
        if on in out.column_names:
            i = out.column_names.index(on)
            out = out.set_column(i, on, pc.cast(out.column(i), l_key))
        return out

    tagged = [d.map_batches(tag, fn_args=(s,), batch_format="pyarrow",
                            zero_copy_batch=True)
              for s, d in enumerate((left, right))]
    return (tagged[0].union(tagged[1]).groupby("__bucket")
            .map_groups(per_bucket, batch_format="pyarrow"))


_JOIN_TYPES = {"inner": "inner", "left": "left outer"}


def hash_bucket_join(left, right, *, on: str, n_buckets: int = 32,
                     how: str = "inner"):
    """Partitioned hash join of two Datasets on one key column, through
    :func:`two_sided_exchange`.

    ``how="inner"|"left"`` emits the left columns then the right's non-key
    columns (``pa.Table.join`` per bucket; list/struct payload columns are
    rejected, as Acero's join has no kernel for them).  ``how="semi"|"anti"``
    keeps (semi) or drops (anti) the left rows whose key appears on the
    right, with the left columns only; only the right's key column crosses
    the exchange.  A null key matches nothing: anti keeps its rows."""
    if how in ("semi", "anti"):
        right = right.select_columns([on])

        def bucket_fn(l: pa.Table, r: pa.Table) -> pa.Table:
            m = key_in(l, r.column(on), on)
            return l.filter(pc.invert(m) if how == "anti" else m)
    elif how in _JOIN_TYPES:
        l_fields, r_fields = _fields(left), _fields(right)
        overlap = {n for n, _ in l_fields} & {n for n, _ in r_fields} - {on}
        if overlap:
            raise ValueError(f"overlapping non-key columns: {sorted(overlap)}")
        nested = [n for n, t in l_fields + r_fields
                  if n != on and (pa.types.is_nested(t)
                                  or isinstance(t, pa.ExtensionType))]
        if nested:
            raise ValueError(
                f"hash_bucket_join: column(s) {nested} have a list/struct/"
                "extension type, which Arrow's join cannot carry; "
                "serialize them (e.g. comma-joined strings) first")

        def bucket_fn(l: pa.Table, r: pa.Table) -> pa.Table:
            l = l.set_column(l.column_names.index(on), on, canonical_keys(l.column(on)))
            r = r.set_column(r.column_names.index(on), on, canonical_keys(r.column(on)))
            return l.join(r, keys=on, join_type=_JOIN_TYPES[how],
                          coalesce_keys=True)
    else:
        raise ValueError(f"how must be inner, left, semi or anti, not {how!r}")

    return two_sided_exchange(left, right, on=on, n_buckets=n_buckets,
                              bucket_fn=bucket_fn)
