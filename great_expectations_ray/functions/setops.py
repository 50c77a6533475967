"""Table-level set operations — DISTINCT INTERSECT / EXCEPT over key
columns.

The reference has none (SURVEY §2.6: "set ops: none at table level"); a
data-pipeline user needs them constantly (which ids are in A but not yet in
B, which keys both sides share).  Scale shape: ONE two-sided bucketed
exchange (``bucketed.two_sided_exchange``) co-locates equal keys; each
bucket reduces with an Arrow ``group_by`` over side flags (pandas groups
object strings only up to the first NUL, so ``"a\x00b"`` and ``"a\x00c"``
would be one key).  Map-side per-batch dedup bounds what enters the
exchange to the batch's distinct keys.  Nulls are one
value and float keys are ``canonical_keys`` (``-0.0`` is ``0.0``), as SQL
set ops.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.functions.aggregates import canonical_keys
from great_expectations_ray.functions.bucketed import group_aggregate, tag_sides, two_sided_exchange


def _distinct(cols: list[str]):
    def f(tbl: pa.Table) -> pa.Table:
        # map-side dedup: only distinct keys per batch enter the shuffle
        t = pa.table({c: canonical_keys(tbl.column(c)) for c in cols})
        return group_aggregate(t, cols, [])
    return f


def _setop(a_ds, b_ds, cols: list[str], keep: str):
    cols = list(cols)

    def reduce_bucket(a: pa.Table, b: pa.Table) -> pa.Table:
        g = pa.concat_tables([
            t.select(cols).append_column(
                "__side", pa.array(np.full(t.num_rows, side, dtype=np.int8)))
            for side, t in ((0, a), (1, b))])
        sides = group_aggregate(g, cols, [("__side", "min"), ("__side", "max")])
        lo, hi = sides.column("__side_min"), sides.column("__side_max")
        if keep == "intersect":
            mask = pc.and_(pc.equal(lo, 0), pc.equal(hi, 1))
        else:  # except: in A, never in B
            mask = pc.equal(hi, 0)
        return sides.filter(mask).select(cols)

    a_ds, b_ds = (d.select_columns(cols).map_batches(
        _distinct(cols), batch_format="pyarrow", zero_copy_batch=True)
        for d in (a_ds, b_ds))
    return two_sided_exchange(tag_sides(a_ds, b_ds, cols, n_buckets=256), reduce_bucket)


def intersect_distinct(a_ds, b_ds, cols: list[str]):
    """Distinct key tuples present in BOTH datasets (SQL INTERSECT)."""
    return _setop(a_ds, b_ds, cols, "intersect")


def except_distinct(a_ds, b_ds, cols: list[str]):
    """Distinct key tuples present in A but not in B (SQL EXCEPT)."""
    return _setop(a_ds, b_ds, cols, "except")
