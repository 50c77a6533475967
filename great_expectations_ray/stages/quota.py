"""Per-group selection quotas — the two workhorse shapes of data-mixture
construction:

- ``select_top_fraction_grouped``: keep the best ``ceil(frac * |group|)``
  rows per group by score (per-language / per-domain quality quotas, so one
  dominant group can't crowd out the rest).  Exactly
  ``ROW_NUMBER() OVER (PARTITION BY g ORDER BY score DESC, id)
  <= ceil(frac * COUNT(*) OVER (PARTITION BY g))``.
- ``token_budget_cutoff``: keep rows in id order per group while the
  cumulative token count stays within a budget (mixture recipes are stated
  as token budgets per source).  Exactly
  ``SUM(tokens) OVER (PARTITION BY g ORDER BY id) <= budget``.

Both ship only verdict columns ``(group, id, score-or-tokens)`` through ONE
bucketed exchange on the group key (``grouped_apply_bucketed``); each group
lands whole on one reducer where a vectorized sort + cumcount/cumsum
resolves the quota.  That is the right shape when groups are bounded
(languages, domains, sources).  For a single unbounded stream, use
``stages/topfrac.select_top_fraction`` (rank-selected threshold) or
``stages/packing.global_token_offsets`` (distributed prefix sum) instead —
this module's per-group sequential semantics are what those avoid.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def select_top_fraction_grouped(
    ds,
    *,
    score_col: str,
    id_col: str,
    group_col: str,
    frac: float,
    n_buckets: int = 64,
):
    """Dataset of (group_col, id_col, selected) — True for exactly
    ``ceil(frac * group_size)`` rows per group (highest score, ties to the
    lowest id)."""
    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed, key_groups

    def proj(tbl: pa.Table) -> pa.Table:
        return pa.table({
            group_col: tbl.column(group_col),
            id_col: tbl.column(id_col),
            "score": pc.cast(tbl.column(score_col), pa.float64()),
        })

    pairs = ds.select_columns([group_col, id_col, score_col]).map_batches(
        proj, batch_format="pyarrow", zero_copy_batch=True)

    from great_expectations_ray.stages.topfrac import frac_ceil

    def bucket(g: pa.Table) -> pa.Table:
        g, bounds = key_groups(g, [group_col], [("score", "descending"),
                                                (id_col, "ascending")])
        size = np.repeat(np.diff(bounds), np.diff(bounds))
        rn = np.arange(g.num_rows) - np.repeat(bounds[:-1], np.diff(bounds)) + 1
        # DECIMAL-exact quota (double 0.07*100 would ceil to 8, not 7)
        return g.select([group_col, id_col]).append_column(
            "selected", pa.array(rn <= frac_ceil(frac, size)))

    return grouped_apply_bucketed(pairs, [group_col], bucket,
                                  n_buckets=n_buckets)


def token_budget_cutoff(
    ds,
    *,
    token_col: str,
    id_col: str,
    group_col: str,
    budget: int,
    n_buckets: int = 64,
):
    """Dataset of (group_col, id_col, selected) — True while the running
    per-group token sum (in ascending id order) stays ``<= budget``."""
    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed, key_groups

    def proj(tbl: pa.Table) -> pa.Table:
        return pa.table({
            group_col: tbl.column(group_col),
            id_col: tbl.column(id_col),
            "tokens": pc.cast(tbl.column(token_col), pa.int64()),
        })

    pairs = ds.select_columns([group_col, id_col, token_col]).map_batches(
        proj, batch_format="pyarrow", zero_copy_batch=True)

    def bucket(g: pa.Table) -> pa.Table:
        g, bounds = key_groups(g, [group_col], [(id_col, "ascending")])
        cum = np.cumsum(np.asarray(g.column("tokens").fill_null(0)))
        base = np.r_[0, cum][bounds[:-1]]
        cum = cum - np.repeat(base, np.diff(bounds))
        return g.select([group_col, id_col]).append_column(
            "selected", pa.array(cum <= budget))

    return grouped_apply_bucketed(pairs, [group_col], bucket,
                                  n_buckets=n_buckets)
