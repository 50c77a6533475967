"""Deterministic stratified sampling — exact k-per-stratum via hash ranks.

The data-mixing primitive a training pipeline needs (sample exact quotas
per language / source / domain, reproducibly): every row gets a
deterministic rank ``md5(str(id))`` and each stratum keeps its k
smallest-ranked rows.  Hash-rank selection makes the sample stable across
runs, partitionings and cluster sizes — and SQL-expressible, so the op is
oracle-gated (``QUALIFY row_number() OVER (PARTITION BY stratum ORDER BY
md5(...), id) <= k``).

Scale shape: a map-side per-batch top-k bounds what enters the exchange to
≤ k rows per (batch, stratum) — the ONE ``groupby(stratum)`` shuffle moves
candidates, not the corpus — then an identical per-stratum top-k finishes
inside each reduce bucket (functions/bucketed.py, so high stratum
cardinality costs no per-group overhead)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.functions.bucketed import grouped_apply_bucketed, key_groups
from great_expectations_ray.stages.dedup import md5_column


def _rank_table(tbl: pa.Table, strata_cols: list[str], id_col: str) -> pa.Table:
    ids = tbl.column(id_col)
    id_str = ids if pa.types.is_string(ids.type) else pc.cast(ids, pa.string())
    rank = md5_column(id_str)
    cols = {c: tbl.column(c) for c in (*strata_cols, id_col)}
    cols["_rank"] = rank
    return pa.table(cols)


def _topk(t: pa.Table, strata_cols: list[str], id_col: str, k: int) -> pa.Table:
    # a null stratum key is its own stratum with its own quota (matches the
    # SQL oracle's PARTITION BY, where NULL forms a partition)
    t, bounds = key_groups(t, strata_cols, [("_rank", "ascending"), (id_col, "ascending")])
    pos = np.arange(t.num_rows) - np.repeat(bounds[:-1], np.diff(bounds))
    return t.filter(pa.array(pos < k))


def stratified_sample(ds, *, strata_cols: list[str], id_col: str, k: int):
    """Dataset of the k smallest-md5-rank rows per stratum
    (columns: strata_cols + id_col)."""
    if k <= 0:
        raise ValueError("k must be positive")
    strata_cols = list(strata_cols)

    def local(tbl: pa.Table) -> pa.Table:
        return _topk(_rank_table(tbl, strata_cols, id_col), strata_cols, id_col, k)

    candidates = ds.select_columns([*strata_cols, id_col]).map_batches(
        local, batch_format="pyarrow", zero_copy_batch=True
    )
    keep = [*strata_cols, id_col]
    return grouped_apply_bucketed(
        candidates, strata_cols, lambda g: _topk(g, strata_cols, id_col, k).select(keep)
    )
