"""Skew mitigation — salted keys + map-side combining for hot groups.

The corpus has Zipf-skewed repos (repo_0 holds ~30% of rows, FIXTURES.md); a
naive ``groupby(repo)`` sends a third of the data to one reducer.  Two
standard moves, both used by the engine and available as utilities:

1. **Map-side combine** (default everywhere in this repo): pre-aggregate per
   batch before the shuffle, so reducer input is bounded by |keys| per batch
   regardless of row skew.  (rollup partials, value counts, dedup pre-reduce)
2. **Salted two-stage aggregate**: when even per-batch partials are too many
   for single-reducer hot keys, append ``salt = block_local_index % k`` to
   the key, aggregate (key, salt), then re-aggregate key — splitting a hot
   key across k reducers.  Associative aggregations only.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def salted_sum(ds, keys: list[str], value_cols: list[str], *, salt: int = 8):
    """Two-stage salted sum: groupby(keys+salt).sum -> groupby(keys).sum.
    Result is identical to a direct groupby().sum(); the hot key's rows are
    spread over ``salt`` reducers in stage 1."""

    def add_salt(tbl: pa.Table) -> pa.Table:
        s = np.arange(tbl.num_rows, dtype=np.int64) % salt
        return tbl.append_column("__salt", pa.array(s))

    stage1 = (
        ds.select_columns(keys + value_cols)
        .map_batches(add_salt, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(keys + ["__salt"])
        .sum(value_cols)
    )
    stage1_cols = [f"sum({c})" for c in value_cols]
    stage2 = stage1.groupby(keys).sum(stage1_cols)
    # final columns: sum(sum(c))
    return stage2


def local_keep_first(tbl: pa.Table, key_col: str, order_by: str) -> pa.Table:
    """Per-batch keep-first combine: at most ONE row per key leaves the batch
    (the min-order one), so the later keep-first shuffle sees ≤ #batches rows
    per key instead of the full (possibly hot) group."""
    from great_expectations_ray.functions.bucketed import key_groups

    tbl, bounds = key_groups(tbl, [key_col], [(order_by, "ascending")])
    return tbl.take(bounds[:-1])
