"""Table-level set operations — DISTINCT INTERSECT / EXCEPT over key
columns.

The reference has none (SURVEY §2.6: "set ops: none at table level"); a
data-pipeline user needs them constantly (which ids are in A but not yet in
B, which keys both sides share).  Scale shape: both sides are tagged with a
side bit and unioned; ONE bucketed ``groupby(hash(key))`` exchange
co-locates equal keys; each bucket reduces with an Arrow ``group_by`` over
side flags (pandas groups object strings only up to the first NUL, so
``"a\x00b"`` and ``"a\x00c"`` would be one key).  Map-side per-batch dedup
bounds what enters the exchange to the batch's distinct keys.  Nulls are one
value and float keys are ``canonical_keys`` (``-0.0`` is ``0.0``), as SQL
set ops.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.functions.aggregates import canonical_keys
from great_expectations_ray.functions.bucketed import grouped_apply_bucketed


def _tagged_union(a_ds, b_ds, cols: list[str]):
    def tag(side: int):
        def f(tbl: pa.Table) -> pa.Table:
            # map-side dedup: only distinct keys per batch enter the shuffle
            t = pa.table({c: canonical_keys(tbl.column(c)) for c in cols})
            t = t.group_by(cols).aggregate([])
            return t.append_column(
                "__side", pa.array(np.full(len(t), side, dtype=np.int8))
            )
        return f

    return (
        a_ds.select_columns(cols).map_batches(tag(0), batch_format="pyarrow",
                                              zero_copy_batch=True)
        .union(b_ds.select_columns(cols).map_batches(tag(1), batch_format="pyarrow",
                                                     zero_copy_batch=True))
    )


def _setop(a_ds, b_ds, cols: list[str], keep: str):
    cols = list(cols)

    def reduce_bucket(g: pa.Table) -> pa.Table:
        sides = g.group_by(cols).aggregate([("__side", "min"), ("__side", "max")])
        lo, hi = sides.column("__side_min"), sides.column("__side_max")
        if keep == "intersect":
            mask = pc.and_(pc.equal(lo, 0), pc.equal(hi, 1))
        else:  # except: in A, never in B
            mask = pc.equal(hi, 0)
        return sides.filter(mask).select(cols)

    return grouped_apply_bucketed(_tagged_union(a_ds, b_ds, cols), cols,
                                  reduce_bucket, batch_format="pyarrow")


def intersect_distinct(a_ds, b_ds, cols: list[str]):
    """Distinct key tuples present in BOTH datasets (SQL INTERSECT)."""
    return _setop(a_ds, b_ds, cols, "intersect")


def except_distinct(a_ds, b_ds, cols: list[str]):
    """Distinct key tuples present in A but not in B (SQL EXCEPT)."""
    return _setop(a_ds, b_ds, cols, "except")
