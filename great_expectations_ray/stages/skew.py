"""Skew mitigation — map-side combining for hot groups.

The corpus has Zipf-skewed repos (repo_0 holds ~30% of rows, FIXTURES.md); a
naive ``groupby(repo)`` sends a third of the data to one reducer.  The engine
pre-aggregates per batch before the shuffle (rollup partials, value counts,
dedup pre-reduce), so reducer input is bounded by |keys| per batch regardless
of row skew.
"""

from __future__ import annotations

import pyarrow as pa


def local_keep_first(tbl: pa.Table, key_col: str, order_by: str) -> pa.Table:
    """Per-batch keep-first combine: at most ONE row per key leaves the batch
    (the min-order one), so the later keep-first shuffle sees ≤ #batches rows
    per key instead of the full (possibly hot) group."""
    from great_expectations_ray.functions.bucketed import key_groups

    tbl, bounds = key_groups(tbl, [key_col], [(order_by, "ascending")])
    return tbl.take(bounds[:-1])
