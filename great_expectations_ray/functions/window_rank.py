"""Partitioned window functions — row_number / rank / dense_rank / lag /
lead over (PARTITION BY key ORDER BY order_cols).

Ray Data has no window functions; this fills the gap with the engine's
standard wide-op shape: ONE bucketed exchange on the partition key (equal
keys co-locate; high key cardinality costs no per-group overhead — see
functions/bucketed.py), then one vectorized Arrow/numpy pass per bucket over
its rows sorted by (partition, order) (``bucketed.key_groups``).

Semantics match SQL:

- ``order_by`` may be one column or a list (composite ordering — pass a
  unique tie-breaker for a deterministic row_number, same requirement SQL
  has); each entry is ``"col"`` (ASC) or ``("col", "desc")``, nulls LAST
  either way (mirror with NULLS LAST in oracle SQL for DESC);
- null order keys sort LAST and still receive ranks (SQL NULLS LAST) —
  they never crash the kernel; a null partition key is one partition;
- ``rank`` = row_number of the first peer (method='min'), ``dense_rank``
  increments once per distinct order tuple; both handle composite
  orderings via vectorized run detection over the sorted bucket.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.functions.bucketed import (
    group_codes,
    grouped_apply_bucketed,
    key_groups,
)

_SUPPORTED = ("row_number", "rank", "dense_rank", "lag", "lead",
              "moving_sum", "moving_avg")


def _partitions(t: pa.Table, partition_by: str, order_cols: list[str],
                order_asc: list[bool]):
    """The bucket sorted by (partition, order) and, per row, its 1-based
    position in its partition and its partition's first row."""
    t, bounds = key_groups(t, [partition_by], [
        (c, "ascending" if a else "descending") for c, a in zip(order_cols, order_asc)])
    sizes = np.diff(bounds)
    first = np.repeat(bounds[:-1], sizes)
    return t, np.arange(t.num_rows) - first + 1, first


def _neighbour(col, rn: np.ndarray, step: int) -> pa.Array:
    """``col`` of the previous (``step=1``, lag) or next (``step=-1``,
    lead) row of the same partition; null where there is none."""
    n = len(rn)
    miss = rn == 1 if step > 0 else np.r_[rn[1:] == 1, True][:n]
    idx = np.where(miss, 0, np.arange(n) - step)
    return col.take(pa.array(idx, mask=miss))


def _numbers(col, gap):
    """``(values, valid mask, gap)``: temporal columns as exact int64 in
    their own unit (the gap converted to it), others as float64."""
    t = col.type
    valid = np.asarray(pc.is_valid(col)) & ~np.asarray(pc.is_null(col, nan_is_null=True))
    if pa.types.is_timestamp(t) or pa.types.is_duration(t):
        per = {"s": 10**9, "ms": 10**6, "us": 10**3, "ns": 1}[t.unit]
        col, gap, fill = pc.cast(col, pa.int64()), pd.Timedelta(gap).value / per, 0
    elif pa.types.is_date32(t):
        col, gap, fill = pc.cast(col, pa.int32()), pd.Timedelta(gap).value / 86_400e9, 0
    else:
        col, fill = pc.cast(col, pa.float64()), 0.0
    return np.asarray(pc.fill_null(col, fill)), valid, gap


def _session_idx(t: pa.Table, rn: np.ndarray, first: np.ndarray, ts_col: str,
                 gap) -> np.ndarray:
    """1-based session index per row: a session starts at a partition's
    first row, after a null ts, and where ``ts - previous ts > gap``."""
    ts, valid, gap = _numbers(t.column(ts_col), gap)
    new = (rn == 1) | ~np.r_[True, valid[:-1]][:len(ts)]
    new[1:] |= valid[1:] & (ts[1:] - ts[:-1] > gap)
    run = np.cumsum(new)
    return (run - run[first] + 1).astype(np.int64)


def windowed_rank(
    ds,
    *,
    partition_by: str,
    order_by: str | list[str],
    value_col: str | None = None,
    outputs: Iterable[str] = ("row_number",),
    keep_cols: Iterable[str] = (),
    frame_rows: int = 2,
):
    """Dataset of keep_cols + partition/order cols + requested window
    columns (``lag``/``lead``/``moving_*`` require ``value_col``).

    ``moving_sum`` / ``moving_avg`` use the frame ``ROWS BETWEEN
    frame_rows PRECEDING AND CURRENT ROW``; the count divides by non-null
    frame values (SQL ``count(value) OVER``).  Pass an INTEGER value
    column (fixed-point quantized) when bit-exact parity with a SQL engine
    is required — integer frame sums are accumulation-order-free, float
    sums are not."""
    outputs = list(outputs)
    raw = [order_by] if isinstance(order_by, str) else list(order_by)
    # each entry: "col" (ASC) or ("col", "asc"|"desc")
    order_cols, order_asc = [], []
    for entry in raw:
        if isinstance(entry, tuple):
            col, direction = entry
            order_cols.append(col)
            order_asc.append(direction.lower() != "desc")
        else:
            order_cols.append(entry)
            order_asc.append(True)
    for o in outputs:
        if o not in _SUPPORTED:
            raise ValueError(f"unsupported window function {o!r}")
    if value_col is None and any(
            o in outputs for o in ("lag", "lead", "moving_sum", "moving_avg")):
        raise ValueError("lag/lead/moving_* need value_col")
    needed = sorted({partition_by, *order_cols, *keep_cols}
                    | ({value_col} if value_col else set()))

    def bucket(t: pa.Table) -> pa.Table:
        t, rn, first = _partitions(t, partition_by, order_cols, order_asc)
        out = t.select(needed)
        if "row_number" in outputs:
            out = out.append_column("row_number", pa.array(rn))
        if "rank" in outputs or "dense_rank" in outputs:
            # a peer run starts where the partition key OR any order column
            # changes (nulls are peers of nulls — SQL NULLS LAST)
            peer = group_codes(t, [partition_by, *order_cols])
            starts = np.r_[True, peer[1:] != peer[:-1]][:len(peer)]
            if "rank" in outputs:
                # rank = row_number of the run's FIRST row
                idx = np.where(starts, np.arange(len(rn)), 0)
                out = out.append_column("rank", pa.array(rn[np.maximum.accumulate(idx)]))
            if "dense_rank" in outputs:
                run_id = np.cumsum(starts)
                out = out.append_column("dense_rank", pa.array(run_id - run_id[first] + 1))
        if "lag" in outputs:
            out = out.append_column("lag", _neighbour(t.column(value_col), rn, 1))
        if "lead" in outputs:
            out = out.append_column("lead", _neighbour(t.column(value_col), rn, -1))
        if "moving_sum" in outputs or "moving_avg" in outputs:
            # frame sum accumulated oldest->newest; with an integer value
            # column each add is exact, so the result is independent of
            # accumulation order (SQL-engine parity)
            v = np.asarray(pc.fill_null(pc.cast(t.column(value_col), pa.float64()), np.nan))
            msum = np.zeros(len(rn), dtype=np.float64)
            cnt = np.zeros(len(rn), dtype=np.int64)
            for j in range(frame_rows, -1, -1):
                sh = np.r_[np.full(min(j, len(v)), np.nan), v[:len(v) - j]]
                ok = (rn > j) & ~np.isnan(sh)
                msum += np.where(ok, sh, 0.0)
                cnt += ok
            # all-null frame -> NULL, as SQL SUM() OVER does
            if "moving_sum" in outputs:
                out = out.append_column("moving_sum", pa.array(msum, mask=cnt == 0))
            if "moving_avg" in outputs:
                out = out.append_column("moving_avg", pa.array(
                    msum / np.maximum(cnt, 1), mask=cnt == 0))
        return out

    return grouped_apply_bucketed(ds.select_columns(needed), [partition_by], bucket)


def _norm_order(order_by):
    raw = [order_by] if isinstance(order_by, str) else list(order_by)
    cols, asc = [], []
    for entry in raw:
        if isinstance(entry, tuple):
            cols.append(entry[0])
            asc.append(entry[1].lower() != "desc")
        else:
            cols.append(entry)
            asc.append(True)
    return cols, asc


def sessionize(
    ds,
    *,
    partition_by: str,
    order_by: str | list[str],
    ts_col: str,
    gap,
    keep_cols: Iterable[str] = (),
    out_col: str = "session_idx",
):
    """Gap-based sessionization: within each partition ordered by
    ``order_by``, a new session starts at the first row and wherever
    ``ts - previous ts > gap`` — ``out_col`` is the 1-based session index
    (int64), the SQL idiom ``SUM(CASE WHEN ts - lag(ts) OVER w > gap THEN 1
    ELSE 0 END) OVER w``.

    Same wide-op shape as ``windowed_rank``: ONE bucketed key exchange,
    then a vectorized cumsum per bucket.  ``gap`` is anything
    ``pd.Timedelta`` accepts (``"8 hours"``, a timedelta) for timestamp
    columns, or a number for numeric ts columns."""
    order_cols, order_asc = _norm_order(order_by)
    needed = sorted({partition_by, ts_col, *order_cols, *keep_cols})

    def bucket(t: pa.Table) -> pa.Table:
        t, rn, first = _partitions(t, partition_by, order_cols, order_asc)
        return t.select(needed).append_column(
            out_col, pa.array(_session_idx(t, rn, first, ts_col, gap)))

    return grouped_apply_bucketed(ds.select_columns(needed), [partition_by], bucket)
