"""Partitioners & samplers — reference §2.4 sharding primitives, Ray-recast.

Reference partitioners (``core/partitioners.py:9-111``, pandas impls at
``execution_engine/partition_and_sample/pandas_data_partitioner.py``) assign
each row a partition key (year/month/day parts, divided/mod integer, column
value(s), hashed column); samplers (``pandas_data_sampler.py``) keep a row
subset (limit/random/mod/list/hash).

Here each partitioner is a vectorized ``add_partition_key`` transform — the
key column then drives ``write_parquet(partition_cols=...)``, groupbys, or
batch slicing; samplers are batch filters (see also stages/dedup.py for the
md5-hash sampler).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def partition_on_date_parts(ds, column: str, parts: list[str] = ("year", "month")):
    """Adds one int column per requested date part (year/month/day) —
    reference ``partition_on_year[_and_month[_and_day]]``."""
    parts = list(parts)
    extractors = {"year": pc.year, "month": pc.month, "day": pc.day}
    bad = [p for p in parts if p not in extractors]
    if bad:
        raise ValueError(f"unknown date parts {bad}")

    def f(tbl: pa.Table) -> pa.Table:
        col = tbl.column(column)
        for p in parts:
            tbl = tbl.append_column(f"{column}_{p}", pc.cast(extractors[p](col), pa.int32()))
        return tbl

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def partition_on_converted_datetime(ds, column: str, date_format_string: str = "%Y-%m",
                                    out: str = "partition_key"):
    """strftime-formatted datetime partition key (reference
    ``partition_on_converted_datetime:171`` — pandas ``dt.strftime``)."""

    def f(tbl: pa.Table) -> pa.Table:
        col = tbl.column(column)
        if not pa.types.is_timestamp(col.type.storage_type
                                     if hasattr(col.type, "storage_type") else col.type):
            col = pc.cast(col, pa.timestamp("us"))
        return tbl.append_column(out, pc.strftime(col, format=date_format_string))

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def partition_on_divided_integer(ds, column: str, divisor: int, out: str = "partition_key"):
    """value // divisor (reference ``partition_on_divided_integer:183``)."""

    def f(tbl: pa.Table) -> pa.Table:
        col = pc.cast(tbl.column(column), pa.int64())
        return tbl.append_column(out, pc.divide(col, divisor))

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def partition_on_mod_integer(ds, column: str, mod: int, out: str = "partition_key"):
    """value % mod (reference ``partition_on_mod_integer:194``)."""

    def f(tbl: pa.Table) -> pa.Table:
        col = pc.cast(tbl.column(column), pa.int64())
        rem = pc.subtract(col, pc.multiply(pc.divide(col, mod), mod))
        return tbl.append_column(out, rem)

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def partition_on_column_values(ds, columns: list[str], out: str = "partition_key"):
    """Composite string key from column values (reference
    ``partition_on_multi_column_values:205``)."""
    from great_expectations_ray.stages.dedup import composite_key_column

    def f(tbl: pa.Table) -> pa.Table:
        return tbl.append_column(out, composite_key_column(tbl, list(columns)))

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def partition_on_hashed_column(ds, column: str, n_buckets: int, out: str = "partition_key"):
    """md5-based bucket id (reference ``partition_on_hashed_column:223`` uses
    hashlib md5 of str(value))."""
    from great_expectations_ray.stages.dedup import md5_column

    def f(tbl: pa.Table) -> pa.Table:
        h = md5_column(tbl.column(column))
        # use the last 8 hex chars as an int, mod buckets — deterministic and
        # reproducible in SQL for oracle checks
        tail = pc.utf8_slice_codeunits(h, 24, 32)
        vals = np.array([int(v.as_py(), 16) if v.is_valid else 0 for v in tail],
                        dtype=np.int64)
        return tbl.append_column(out, pa.array(vals % n_buckets))

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


# --------------------------------------------------------------------------- #
# samplers (reference pandas_data_sampler.py) — sample_using_hash/mod live in
# stages/dedup.py; limit and random are ray.data's ``ds.limit`` and
# ``ds.random_sample``
# --------------------------------------------------------------------------- #


def sample_using_a_list(ds, column: str, value_list: list):
    vals = pa.array(list(value_list))

    def f(tbl: pa.Table) -> pa.Table:
        return tbl.filter(pc.is_in(tbl.column(column), value_set=vals))

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def sample_exact_n(ds, n: int, *, column: str, keep_cols: list[str] | None = None):
    """Deterministic EXACT-N uniform sample — no RNG, no shuffle.

    Rows are ranked by ``md5(str(value))`` (hex-string order, ties by the
    value itself) and the global bottom-N win.  md5 of a high-entropy key
    is uniform, so this is a uniform sample that is (a) identical under any
    partitioning — each block emits only its LOCAL bottom-N candidates and
    the driver merges #blocks × N keys, (b) expressible in SQL for oracle
    checks: ``ORDER BY md5(CAST(c AS VARCHAR)), c LIMIT N`` (hex chars sort
    identically as bytes and under SQL collation).

    Returns the sampled rows as a driver-side pandas DataFrame (a sample is
    driver-bounded by definition); ``keep_cols`` defaults to just
    ``column``.  str()/VARCHAR parity: integer and string key columns.
    """
    import heapq

    import pandas as pd

    from great_expectations_ray.stages.dedup import md5_column

    cols = sorted(set(keep_cols or []) | {column})
    pruned = ds.select_columns(cols)

    def local_bottom(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return tbl.append_column("__md5", pa.array([], pa.string()))
        h = md5_column(tbl.column(column))
        order = pc.sort_indices(
            pa.table({"h": h, "v": tbl.column(column)}),
            sort_keys=[("h", "ascending"), ("v", "ascending")],
        )
        take = order[: min(n, tbl.num_rows)]
        return tbl.take(take).append_column("__md5", h.take(take))

    rows = pruned.map_batches(local_bottom, batch_format="pyarrow",
                              zero_copy_batch=True).take_all()
    best = heapq.nsmallest(n, rows, key=lambda r: (r["__md5"], r[column]))
    df = pd.DataFrame(best)
    if df.empty:
        return pd.DataFrame(columns=cols)
    return df.drop(columns=["__md5"]).reset_index(drop=True)
