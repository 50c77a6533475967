"""Broadcast range (interval) join — match rows to every interval
``lo <= value <= hi`` of a SMALL interval table.

The second canonical missing-in-Ray-Data operator from the build brief
(next to the as-of join).  Scale shape: the interval side is broadcast via
``ray.put`` (fetched once per worker), the fact side streams through an
embarrassingly-parallel ``map_batches`` — no shuffle at all.  Intervals may
overlap (a row joins every interval containing it, 1:N output).

Per batch the match is vectorized per interval (one comparison kernel per
interval over the batch); that is O(rows × intervals) work, the right
trade while the interval table is small (bands, SLA tiers, calendars).
Scale path for LARGE interval tables, documented per the brief: bucket the
value domain, replicate each interval into every bucket it overlaps, and
hash-join on the bucket id — one exchange, no cross product.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.stages._per_worker import map_per_worker


class _RangeJoiner:
    def __init__(self, intervals_ref, value_col: str, keep_cols, interval_cols):
        import ray

        iv = intervals_ref if isinstance(intervals_ref, pd.DataFrame) else ray.get(intervals_ref)
        self.lo = iv["lo"].to_numpy()
        self.hi = iv["hi"].to_numpy()
        self.payload = iv[interval_cols].reset_index(drop=True)
        # interval-column Arrow types derived from the FULL payload once —
        # a .head(0) inference yields pa.null types for object columns and
        # corrupts the dataset's unified schema on no-match batches
        self.payload_schema = pa.Schema.from_pandas(self.payload, preserve_index=False)
        self.value_col = value_col
        self.keep_cols = list(keep_cols)
        self.interval_cols = list(interval_cols)

    def __call__(self, tbl: pa.Table) -> pa.Table:
        # native dtype comparison (a forced float64 cast would round int64
        # values beyond 2^53 into or out of a band).  Null rows match no
        # interval, so drop them at the Arrow level FIRST — np.asarray on an
        # int64 column containing any null floatifies the whole batch and
        # reintroduces exactly that rounding
        col = tbl.column(self.value_col)
        if col.null_count:
            tbl = tbl.filter(pc.is_valid(col))
            col = tbl.column(self.value_col)
        v = np.asarray(col)
        pieces = []
        for i in range(len(self.lo)):
            mask = (v >= self.lo[i]) & (v <= self.hi[i])
            if not mask.any():
                continue
            sub = tbl.filter(pa.array(mask)).select(self.keep_cols)
            for c in self.interval_cols:
                val = self.payload.at[i, c]
                sub = sub.append_column(c, pa.array([val] * len(sub)))
            pieces.append(sub)
        if not pieces:
            empty = {c: pa.array([], tbl.schema.field(c).type) for c in self.keep_cols}
            for c in self.interval_cols:
                empty[c] = pa.array([], self.payload_schema.field(c).type)
            return pa.table(empty)
        return pa.concat_tables(pieces)


def range_join_broadcast(
    ds,
    intervals: pd.DataFrame,
    *,
    value_col: str,
    keep_cols: list[str],
    interval_cols: list[str],
):
    """1:N inner range join: output = keep_cols + interval_cols for every
    (row, interval) pair with ``lo <= row[value_col] <= hi``.  ``intervals``
    must have ``lo``/``hi`` columns plus the payload ``interval_cols``."""
    import ray

    for c in ("lo", "hi"):
        if c not in intervals.columns:
            raise ValueError(f"intervals must have a {c!r} column")
    ref = ray.put(intervals.reset_index(drop=True))
    return map_per_worker(
        ds.select_columns(sorted({value_col, *keep_cols})), _RangeJoiner,
        {"intervals_ref": ref, "value_col": value_col,
         "keep_cols": keep_cols, "interval_cols": interval_cols},
        batch_format="pyarrow", zero_copy_batch=True,
    )
