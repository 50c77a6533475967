"""Windowed aggregates over event streams.

The reference has NO streaming/window semantics (SURVEY §2.6) — these are the
training-pipeline extensions for stream-shaped tables (`events`): treat the
input as an ordered, partitioned log; windows are computed per key inside
one bucketed exchange on the key (``functions/bucketed.py``), over each
key's ts-sorted run (ordering assumption: ts is unique per (key, event_id)
tiebreak — stated per the Ray guide).

- tumbling: fixed-width buckets — ALSO expressible as a pure bucket groupby
  (``floor(ts/width)``), which is the shuffle-cheap path used by default.
- sliding: width + slide step; one row per (key, window_start).
- session: gap-based sessionization per key.
"""

from __future__ import annotations

import numpy as np


def _bucketed_window_sum(partials_ds, key_col: str):
    """Final combine of per-batch (key, window_start, cnt_sum, val_sum_sum)
    partials.  Group count = keys × windows (high cardinality at scale), so
    this uses the bucketed shape — hash bucket + vectorized per-bucket
    ``pa.Table.group_by`` — instead of Ray's per-group aggregate (see
    functions/bucketed.py).  Output column names match Ray's aggregate
    naming (``sum(cnt_sum)``, ``sum(val_sum_sum)``) for API compatibility."""
    import pyarrow as pa

    from great_expectations_ray.functions.bucketed import group_aggregate, grouped_apply_bucketed

    def combine(t: pa.Table) -> pa.Table:
        agg = group_aggregate(t, [key_col, "window_start"],
            [("cnt_sum", "sum"), ("val_sum_sum", "sum")]
        )
        return pa.table({
            key_col: agg.column(key_col),
            "window_start": agg.column("window_start"),
            "sum(cnt_sum)": agg.column("cnt_sum_sum"),
            "sum(val_sum_sum)": agg.column("val_sum_sum_sum"),
        })

    return grouped_apply_bucketed(partials_ds, [key_col, "window_start"], combine)


def tumbling_window_agg(
    ds,
    *,
    ts_col: str,
    key_col: str,
    value_col: str,
    width_us: int,
):
    """One row per (key, window_start): count + sum + mean of value.

    Implemented as a BUCKET groupby (no per-key ordering needed — tumbling
    windows are order-free), so the only exchange is one hash shuffle on
    (key, bucket)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from great_expectations_ray.functions.bucketed import group_aggregate

    def bucketize(tbl: pa.Table) -> pa.Table:
        ts = pc.cast(tbl.column(ts_col), pa.int64())
        bucket = pc.multiply(pc.divide(ts, width_us), width_us)
        t = pa.table({
            key_col: tbl.column(key_col),
            "window_start": bucket,
            "cnt": pa.array(np.ones(tbl.num_rows, dtype=np.int64)),
            "val_sum": pc.cast(tbl.column(value_col), pa.float64()),
        })
        # map-side partial per (key, bucket) before the shuffle
        return group_aggregate(t, [key_col, "window_start"],
            [("cnt", "sum"), ("val_sum", "sum")]
        )

    grouped = _bucketed_window_sum(
        ds.select_columns([key_col, ts_col, value_col])
        .map_batches(bucketize, batch_format="pyarrow", zero_copy_batch=True),
        key_col,
    )
    return grouped  # columns: key, window_start, sum(cnt_sum), sum(val_sum_sum)


def sliding_window_agg(
    ds,
    *,
    ts_col: str,
    key_col: str,
    value_col: str,
    width_us: int,
    slide_us: int,
):
    """Sliding windows per key: each event lands in width/slide windows.
    Explode to (key, window_start) then aggregate — shuffle volume multiplies
    by the overlap factor, stated cost of sliding semantics."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from great_expectations_ray.functions.bucketed import group_aggregate

    k = width_us // slide_us

    def explode(tbl: pa.Table) -> pa.Table:
        ts = np.asarray(pc.cast(tbl.column(ts_col), pa.int64()))
        n = len(ts)
        # windows containing t: starts in (t-width, t] aligned to slide
        last_start = (ts // slide_us) * slide_us
        starts = last_start[:, None] - np.arange(k)[None, :] * slide_us
        valid = starts > (ts[:, None] - width_us)
        keys = np.repeat(np.asarray(tbl.column(key_col)), k)
        vals = np.repeat(np.asarray(pc.cast(tbl.column(value_col), pa.float64())), k)
        flat_starts = starts.reshape(-1)
        flat_valid = valid.reshape(-1)
        t = pa.table({
            key_col: pa.array(keys[flat_valid]),
            "window_start": pa.array(flat_starts[flat_valid]),
            "cnt": pa.array(np.ones(int(flat_valid.sum()), dtype=np.int64)),
            "val_sum": pa.array(vals[flat_valid]),
        })
        return group_aggregate(t, [key_col, "window_start"],
            [("cnt", "sum"), ("val_sum", "sum")]
        )

    return _bucketed_window_sum(
        ds.select_columns([key_col, ts_col, value_col])
        .map_batches(explode, batch_format="pyarrow", zero_copy_batch=True),
        key_col,
    )


def session_windows(
    ds,
    *,
    ts_col: str,
    key_col: str,
    gap_us: int,
):
    """Gap-based sessions per key: one row per session with start/end/count.
    Needs per-key ordering; computed VECTORIZED across all keys of a hash
    bucket (sort by [key, ts], session break = key change OR gap exceeded,
    cumsum session ids, one groupby agg) — per-key Python callbacks don't
    survive millions of keys (functions/bucketed.py)."""

    import pyarrow as pa
    import pyarrow.compute as pc

    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed, key_groups

    def sessionize_bucket(g: pa.Table) -> pa.Table:
        g, bounds = key_groups(g, [key_col], [(ts_col, "ascending")])
        col = g.column(ts_col)
        if pa.types.is_timestamp(col.type):
            # normalize to microseconds regardless of the stored unit
            col = pc.cast(col, pa.timestamp("us", col.type.tz))
        ts = np.asarray(pc.cast(col, pa.int64()))
        new = np.zeros(len(ts), dtype=bool)
        new[1:] = (ts[1:] - ts[:-1]) > gap_us
        new[bounds[:-1]] = True
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:], len(ts)]
        return pa.table({
            key_col: g.column(key_col).take(starts),
            "session_start": pa.array(ts[starts]),
            "session_end": pa.array(ts[ends - 1]),
            "n_events": pa.array(ends - starts),
        })

    return grouped_apply_bucketed(
        ds.select_columns([key_col, ts_col]), [key_col], sessionize_bucket
    )
