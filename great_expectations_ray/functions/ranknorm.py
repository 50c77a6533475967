"""Percent-rank (quantile) normalization — map a score column onto [0, 1]
by its empirical rank.  The standard calibration step before MIXING
heterogeneous quality signals (a perplexity, a classifier margin and a
compression ratio live on incomparable scales; their percent ranks don't).

Semantics are exactly SQL ``percent_rank() OVER (ORDER BY col)``:
``pct = cnt_less / (n - 1)`` where ``cnt_less`` counts strictly smaller
values — ties share a rank (the MIN rank), as SQL's ``rank()`` does.

Distributed shape:

1. One bucketed value-count pass (``grouped_apply_bucketed``) → the
   distinct (value, cnt) table on the driver, guarded by ``max_distinct``
   (the broadcast-lookup path needs bounded distincts; columns that
   overflow it should be bucketed-joined on value instead — raise with
   that guidance rather than collecting unbounded state).
2. Sort once on the driver, prefix-sum to ``cnt_less`` per distinct value,
   ``ray.put`` the (values, cnt_less) pair.
3. One mark pass: ``np.searchsorted`` exact-match lookup per batch
   (fetched once per worker) → ``pct_rank`` column.

``cnt_less`` is an integer for every row, so any aggregate of it is
exactly reproducible in SQL — which is how the catalog oracles this.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.stages._per_worker import map_per_worker


def percent_rank_transform(ds, column: str, *,
                           out_col: str = "pct_rank",
                           max_distinct: int = 5_000_000):
    """Appends ``out_col`` (float64 in [0, 1]) and ``cnt_less`` (int64).
    Nulls get null pct_rank and -1 cnt_less."""
    import ray

    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed

    def vc_partial(tbl: pa.Table) -> pa.Table:
        col = pc.drop_null(pc.cast(tbl.column(column), pa.float64()))
        x = np.asarray(col.combine_chunks())
        # NaN != null in Arrow; rank semantics exclude NaN entirely (the
        # mark pass treats NaN rows as unranked, same as nulls)
        x = x[~np.isnan(x)]
        vals, counts = np.unique(x, return_counts=True)
        return pa.table({"v": pa.array(vals),
                         "c": pa.array(counts.astype(np.int64))})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("v", sort=False)["c"].sum().reset_index()

    rows = grouped_apply_bucketed(
        ds.select_columns([column]).map_batches(
            vc_partial, batch_format="pyarrow", zero_copy_batch=True),
        ["v"], merge).take_all()
    if len(rows) > max_distinct:
        raise ValueError(
            f"{len(rows)} distinct values exceed max_distinct="
            f"{max_distinct}; bucket-join the VC table on the value column "
            "instead of broadcasting it")
    vc = sorted((r["v"], r["c"]) for r in rows)
    values = np.array([v for v, _ in vc], dtype=np.float64)
    counts = np.array([c for _, c in vc], dtype=np.int64)
    cnt_less = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=cnt_less[1:])
    n = int(counts.sum())
    ref = ray.put((values, cnt_less, n))

    class _Ranker:
        def __init__(self, table_ref):
            self.values, self.cnt_less, self.n = (
                ray.get(table_ref) if not isinstance(table_ref, tuple)
                else table_ref)

        def __call__(self, tbl: pa.Table) -> pa.Table:
            col = pc.cast(tbl.column(column), pa.float64())
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            x = np.asarray(pc.fill_null(col, np.nan))
            # null AND NaN rows are unranked (NaN never enters the VC table)
            valid = ~np.isnan(x)
            if len(self.values) == 0 or not valid.any():
                cl = np.full(len(x), -1, dtype=np.int64)
                pct = np.full(len(x), np.nan)
            else:
                idx = np.searchsorted(self.values, np.where(valid, x, 0.0))
                cl = np.where(valid, self.cnt_less[np.minimum(
                    idx, len(self.values) - 1)], -1).astype(np.int64)
                denom = max(self.n - 1, 1)
                pct = np.where(valid, cl / denom, np.nan)
            return (tbl.append_column("cnt_less", pa.array(cl))
                       .append_column(out_col, pa.array(
                           pct, pa.float64(), from_pandas=True)))

    return map_per_worker(ds, _Ranker, {"table_ref": ref},
                          batch_format="pyarrow", zero_copy_batch=True)
