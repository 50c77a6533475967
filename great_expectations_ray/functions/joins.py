"""Joins — not in the reference (SURVEY §2.6: GX has none), but required for
real pipelines around it (lineage enrichment, metadata attachment).  Three
scalable shapes per the Ray guide:

- **broadcast_join**: small side published once via ``ray.put``; every batch
  does an in-memory pandas merge.  No shuffle.
- **semi/anti**: broadcast the KEY SET only; filter inside map_batches.
- **hash_bucket_join**: both sides large — explicit partitioned hash join:
  bucket on ``hash(key) % B`` both sides, union with a side tag, one
  ``groupby(bucket)`` exchange, per-bucket pandas merge.  Salt hot keys by
  raising B; bucket skew equals key skew only for pathological single keys.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

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


def bucketed_semi_anti(left, keys_ds, *, on: str, anti: bool = False,
                       n_buckets: int = 64):
    """Semi/anti join where the key side is ITSELF a Dataset — the scale
    path when the key set is too large to collect to the driver
    (``broadcast_semi_anti``'s ``take_all`` bound breaks on e.g. a crawl
    corpus where 30-50% of docs are dedup candidates).  One bucketed
    exchange: both sides bucket on ``hash(key) % n_buckets``, union with a
    side tag, and a per-bucket vectorized ``isin`` filter keeps (semi) or
    drops (anti) the left rows whose key appears on the key side.  Left
    rows/values pass through unchanged; the union's null padding floatifies
    int columns inside the bucket frames, so the output is cast back to the
    left schema read off the source dataset."""
    from great_expectations_ray.functions.bucketed import hash_bucket_of

    left_schema = _arrow_schema(left)
    keys_proj = keys_ds.select_columns([on])

    pad = [(n, t) for n, t in left_schema_pairs(left_schema) if n != on]

    def tag(is_key: bool, pad_cols):
        def f(tbl: pa.Table) -> pa.Table:
            bucket = hash_bucket_of(tbl.column(on), n_buckets)
            tbl = tbl.append_column("__bucket", pa.array(bucket))
            tbl = tbl.append_column(
                "__is_key", pa.array(np.full(tbl.num_rows, is_key, dtype=bool)))
            for c_name, c_type in pad_cols:
                tbl = tbl.append_column(c_name, pa.nulls(tbl.num_rows, c_type))
            return tbl

        return f

    tagged_l = left.map_batches(tag(False, []), batch_format="pyarrow",
                                zero_copy_batch=True)
    tagged_k = keys_proj.map_batches(tag(True, pad), batch_format="pyarrow",
                                     zero_copy_batch=True)
    combined = tagged_l.union(tagged_k)

    out_cols = [n for n, _ in left_schema_pairs(left_schema)]

    def filt(g: pd.DataFrame) -> pd.DataFrame:
        key_vals = g.loc[g["__is_key"], on].unique()
        rows = g.loc[~g["__is_key"]]
        m = rows[on].isin(key_vals)
        if anti:
            m = ~m
        return rows.loc[m, out_cols]

    out = combined.groupby("__bucket").map_groups(filt, batch_format="pandas")

    pairs = left_schema_pairs(left_schema)

    def restore(tbl: pa.Table) -> pa.Table:
        return pa.table({n: pc.cast(tbl.column(n), t) for n, t in pairs})

    return out.map_batches(restore, batch_format="pyarrow", zero_copy_batch=True)


def left_schema_pairs(schema: pa.Schema) -> list[tuple[str, pa.DataType]]:
    return [(f.name, f.type) for f in schema]


def hash_bucket_join(
    left,
    right,
    *,
    on: str,
    n_buckets: int = 32,
    how: str = "inner",
    left_cols: Optional[list[str]] = None,
    right_cols: Optional[list[str]] = None,
):
    """Partitioned hash join of two Datasets on one key column.

    Both sides get ``bucket = key % n_buckets`` (integer keys; string keys
    hash first), are tagged and unioned, then ONE groupby(bucket) co-locates
    matching keys and a per-bucket pandas merge emits the joined rows."""
    if left_cols:
        left = left.select_columns(sorted(set(left_cols) | {on}))
    if right_cols:
        right = right.select_columns(sorted(set(right_cols) | {on}))

    l_names = [c for c in left.schema().names if c != on]
    r_names = [c for c in right.schema().names if c != on]
    overlap = set(l_names) & set(r_names)
    if overlap:
        raise ValueError(f"overlapping non-key columns: {sorted(overlap)}")

    def tag(side: str, other_names: list[str]):
        def f(tbl: pa.Table) -> pa.Table:
            key = tbl.column(on)
            if pa.types.is_integer(key.type):
                k64 = pc.cast(key, pa.int64())
                bucket = pc.subtract(
                    k64, pc.multiply(pc.divide(k64, n_buckets), n_buckets)
                )
            else:
                # vectorized buffer hash — bucketing needs no md5 parity,
                # only uniformity + cross-batch determinism
                from great_expectations_ray.functions.bucketed import hash_bucket_of

                bucket = pa.array(hash_bucket_of(key, n_buckets))
            tbl = tbl.append_column("__bucket", pc.cast(bucket, pa.int64()))
            tbl = tbl.append_column("__side", pa.array([side] * tbl.num_rows))
            # align schema: null columns for the other side's fields
            for c_name, c_type in other_names:
                tbl = tbl.append_column(c_name, pa.nulls(tbl.num_rows, c_type))
            return tbl

        return f

    l_schema = [(f.name, f.type) for f in _arrow_schema(left) if f.name != on]
    r_schema = [(f.name, f.type) for f in _arrow_schema(right) if f.name != on]

    tagged_l = left.map_batches(tag("l", r_schema), batch_format="pyarrow")
    tagged_r = right.map_batches(tag("r", l_schema), batch_format="pyarrow")
    combined = tagged_l.union(tagged_r)

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lg = g[g["__side"] == "l"][[on] + [n for n, _ in l_schema]]
        rg = g[g["__side"] == "r"][[on] + [n for n, _ in r_schema]]
        out = lg.merge(rg, on=on, how=how)
        return out

    return combined.groupby("__bucket").map_groups(merge_bucket, batch_format="pandas")


def _arrow_schema(ds):
    sch = ds.schema()
    fields = []
    for name, t in zip(sch.names, sch.types):
        if not isinstance(t, pa.DataType):
            # pandas-block datasets report numpy dtypes / python classes
            try:
                t = pa.from_numpy_dtype(np.dtype(t))
            except (TypeError, pa.ArrowNotImplementedError):
                t = pa.string()  # object columns: strings in this engine
        fields.append((name, t))
    return pa.schema(fields)


def native_join(left, right, *, on: str, how: str = "inner", num_partitions: int = 32):
    """Ray's built-in hash-partitioned ``Dataset.join`` (available in this
    Ray release).  Prefer it when both sides are large and key names align;
    ``hash_bucket_join`` above remains the explicit-partitioning variant whose
    bucketing/skew assumptions are visible and tunable."""
    return left.join(right, join_type=how, on=(on,), num_partitions=num_partitions)
