"""Joins — not in the reference (SURVEY §2.6: GX has none), but required for
real pipelines around it (lineage enrichment, metadata attachment, dropping
flagged rows by id).  Three scalable shapes per the Ray guide:

- **broadcast_join**: small side published once via ``ray.put``; every batch
  does an in-memory Arrow join.  No shuffle.
- **broadcast_semi_anti**: broadcast the KEY SET only; filter inside
  map_batches.
- **hash_bucket_join**: both sides large — ONE bucketed exchange
  (``bucketed.two_sided_exchange``, the package's shared typed transport)
  co-locates equal keys; each bucket runs ``pa.Table.join`` (inner /
  left) or an ``is_in`` filter (semi / anti).

Key semantics are SQL's (DuckDB-checked in tests): a null key never
matches, ``-0.0`` equals ``0.0``, NaN equals NaN, and keys of different
widths (``int32``/``int64``, ``string``/``large_string``) join on their
common type.  Output columns keep their source types.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.functions.aggregates import canonical_keys
from great_expectations_ray.functions.bucketed import tag_sides, two_sided_exchange
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


def key_in(tbl: pa.Table, keys, on: str) -> pa.Array:
    """Per row of ``tbl``: is its ``on`` value among ``keys``?  A null key
    is never found (False), NaN finds NaN and ``-0.0`` finds ``0.0``
    (``canonical_keys``: Acero's join and ``is_in`` tell them apart)."""
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    return pc.is_in(canonical_keys(tbl.column(on)),
                    value_set=canonical_keys(keys), skip_nulls=True)


_JOIN_TYPES = {"inner": "inner", "left": "left outer"}


def hash_bucket_join(left, right, *, on: str, n_buckets: int = 32,
                     how: str = "inner"):
    """Partitioned hash join of two Datasets on one key column, through
    ``bucketed.two_sided_exchange``.

    ``how="inner"|"left"`` emits the left columns then the right's non-key
    columns (``pa.Table.join`` per bucket; list/struct payload columns are
    rejected, as Acero's join has no kernel for them).  ``how="semi"|"anti"``
    keeps (semi) or drops (anti) the left rows whose key appears on the
    right, with the left columns only; only the right's key column crosses
    the exchange.  A null key matches nothing: anti keeps its rows."""
    if how not in ("semi", "anti", *_JOIN_TYPES):
        raise ValueError(f"how must be inner, left, semi or anti, not {how!r}")
    if how in ("semi", "anti"):
        right = right.select_columns([on])
    sides = tag_sides(left, right, [on], n_buckets=n_buckets)
    l_sch, r_sch = sides.schemas
    if how in _JOIN_TYPES:
        overlap = set(l_sch.names) & set(r_sch.names) - {on}
        if overlap:
            raise ValueError(f"overlapping non-key columns: {sorted(overlap)}")
        nested = [f.name for f in (*l_sch, *r_sch)
                  if f.name != on and (pa.types.is_nested(f.type)
                                       or isinstance(f.type, pa.ExtensionType))]
        if nested:
            raise ValueError(
                f"hash_bucket_join: column(s) {nested} have a list/struct/"
                "extension type, which Arrow's join cannot carry; "
                "serialize them (e.g. comma-joined strings) first")
    key_type = l_sch.field(on).type

    def bucket_fn(l: pa.Table, r: pa.Table) -> pa.Table:
        if how in ("semi", "anti"):
            m = key_in(l, r.column(on), on)
            out = l.filter(pc.invert(m) if how == "anti" else m)
        else:
            l = l.set_column(l.column_names.index(on), on, canonical_keys(l.column(on)))
            r = r.set_column(r.column_names.index(on), on, canonical_keys(r.column(on)))
            out = l.join(r, keys=on, join_type=_JOIN_TYPES[how], coalesce_keys=True)
        # every key emitted is a left value: back to the left's type, lossless
        i = out.column_names.index(on)
        return out.set_column(i, on, pc.cast(out.column(i), key_type))

    return two_sided_exchange(sides, bucket_fn)
