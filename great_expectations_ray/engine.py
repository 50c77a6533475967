"""Suite validation engine — compile once, stream once (twice for some two-phase rules).

The reference resolves a per-suite metric dependency graph at runtime
(``validator/validation_graph.py:214-322``).  Our kernel set is static, so the
graph collapses at compile time into at most three physical phases:

- **Phase S** (free): schema/table rules, from the schema the phase-1
  batches record (``Dataset.schema()`` only when no batch arrives).
- **Phase 1** (one streaming pass): ONE fused ``map_batches`` over zero-copy
  Arrow blocks evaluates ALL map conditions and updates ALL aggregate /
  value-count partials, emitting one small pickled partial per block; partials
  merge associatively on the driver (no shuffle — the Ray analog of GX's
  aggregate bundling, ``sparkdf_execution_engine.py:843-915``).  The same
  pass emits, for every uniqueness rule, the batch's typed key counts
  (``Table.group_by(key columns)``, map-side pre-aggregation) as extra rows
  of the same output.  The output is materialized once and ONE finishing Ray
  task reads its blocks: it returns the partial bytes and, per uniqueness
  rule, the duplicate-row count and the smallest duplicated keys.  Past
  ``_KEY_TASK_ROW_CAP`` key rows, the key rows take one bucketed exchange
  instead (``functions/bucketed.py``) — over the materialized rows, never
  the input.
- **Phase 2** (only if the suite asks): two-phase map rules get their
  phase-1 thresholds baked in (``column_values_z_score.py:124-144``).  An
  IQR outlier rule is settled from its column's exact value counts: its
  condition kernel runs once over the distinct values, so counts are exact
  and the sample is the unexpected values in value order.  The input is
  re-streamed only for rules the counts cannot settle: z-scores,
  ``method="std"``, a ``row_condition``, overflowed counts, or a result
  that shows which rows are unexpected (index columns, unexpected rows).

Scale notes: phase-1 partials are O(blocks × rules) bytes, independent of row
count.  Value-count states cap at 100k distinct keys; overflow falls back to
a bucketed exchange per family.
"""

from __future__ import annotations

import functools
import math
import pickle
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.core.results import (
    MAX_RESULT_RECORDS,
    PARTIAL_UNEXPECTED_COUNT_DEFAULT,
    ExpectationValidationResult,
    MapPartialState,
    SuiteValidationResult,
    calc_validation_statistics,
    format_map_result,
    mostly_success,
)
from great_expectations_ray.core.row_conditions import compile_row_condition
from great_expectations_ray.core.suite import ExpectationConfiguration, ExpectationSuite
from great_expectations_ray.functions.aggregates import (
    AGG_EXPECTATIONS,
    NumericAggState,
    ValueCountsState,
    canonical_keys,
    validate_metric_value_between,
    value_order,
)
from great_expectations_ray.functions.bucketed import group_aggregate
from great_expectations_ray.functions.column_map import CONDITION_KERNELS, KernelResult
from great_expectations_ray.functions.table import TABLE_RULES

TWO_PHASE_TYPES = {
    "expect_column_value_z_scores_to_be_less_than",
    # contrib port (expect_column_values_to_not_be_outliers.py:27-37):
    # |x - median| < multiplier*IQR (method="iqr", default) or
    # |x - mean| < multiplier*std (method="std")
    "expect_column_values_to_not_be_outliers",
}

#: order-sensitive map rules (#21/#22) — require explicit partition_by /
#: order_by kwargs (documented deviation: Ray blocks are unordered, same move
#: GX makes for SQL backends; SURVEY §7)
ORDERED_TYPES = {
    "expect_column_values_to_be_increasing",
    "expect_column_values_to_be_decreasing",
    # contrib ports riding the same one-shuffle ordered substrate
    # (functions/ordered.py grouped_ordered_rule)
    "expect_column_values_to_be_alphabetical",
    "expect_column_values_to_change_between",
    "expect_column_values_to_be_string_integers_increasing",
}

#: distributional rules backed by value-counts / histogram partials
DIST_TYPES = {
    "expect_column_kl_divergence_to_be_less_than",
    "expect_column_chisquare_test_p_value_to_be_greater_than",
}

CRAMERS_TYPES = {"expect_column_pair_cramers_phi_value_to_be_less_than"}

CROSS_TABLE_TYPES = {
    "expect_table_row_count_to_equal_other_table",
    # contrib port (expect_table_checksum_to_equal_other_table.py:52-160):
    # order-independent row-hash sum compared across two tables
    "expect_table_checksum_to_equal_other_table",
}

#: KS expectations (#47/#49) — 27-33 LoC STUBS in the reference snapshot;
#: implemented for real here (functions/ks.py: exact distributed D via one
#: sort + offset-linear per-batch summaries; asymptotic p with Stephens'
#: finite-n correction)
KS_TYPES = {
    "expect_column_bootstrapped_ks_test_p_value_to_be_greater_than",
    "expect_column_parameterized_distribution_ks_test_p_value_to_be_greater_than",
}

#: contrib two-column statistical tests — dedicated passes, no VC/agg state
PAIRED_STAT_TYPES = {
    # chi2 = sum((obs-exp)^2/exp) row-paired, p >= p_value_threshold
    "expect_column_chisquare_simple_test_p_value_to_be_greater_than",
    # exact distributed two-sample KS between column_a and column_b
    "expect_column_kolmogoro_smirnov_test_p_value_to_be_greater_than",
}

STUB_TYPES: set = set()  # (r1 had the two KS stubs; none remain)

#: map rules that FAIL (not vacuous-pass) on an empty table — contrib
#: expect_column_values_to_not_be_null_and_column_to_not_be_empty.py:320-321
FAIL_ON_EMPTY_TYPES = {
    "expect_column_values_to_not_be_null_and_column_to_not_be_empty",
}

#: map-style rules whose condition is a GLOBAL property -> phase W
UNIQUE_TYPES = {
    "expect_column_values_to_be_unique",
    "expect_compound_columns_to_be_unique",
}

#: aggregate rules backed by exact value counts
VALUE_COUNT_TYPES = {
    "expect_column_distinct_values_to_be_in_set",
    "expect_column_distinct_values_to_contain_set",
    "expect_column_distinct_values_to_equal_set",
    "expect_column_unique_value_count_to_be_between",
    "expect_column_proportion_of_unique_values_to_be_between",
    "expect_column_most_common_value_to_be_in_set",
    "expect_column_median_to_be_between",
    "expect_column_quantile_values_to_be_between",
    # contrib port (expect_column_discrete_entropy_to_be_between.py:42-48):
    # Shannon entropy of the value distribution in the given base
    "expect_column_discrete_entropy_to_be_between",
}

#: contrib aggregate ports (functions/contrib_aggregates.py): exact from the
#: shared VC partials; dedicated distributed path on VC overflow — the ONE
#: list referenced by compile routing and both _finish_vc_rule dispatches
CONTRIB_AGG_VC_TYPES = frozenset({
    "expect_column_percentile_value_to_be_above",
    "expect_column_distinct_values_to_be_continuous",
    "expect_column_to_have_no_days_missing",
    "expect_column_to_have_no_months_missing",
    "expect_column_distribution_to_match_benfords_law",
    "expect_column_wasserstein_distance_to_be_less_than",
    "expect_day_count_to_be_close_to_equivalent_week_day_mean",
    "expect_day_sum_to_be_close_to_equivalent_week_day_mean",
})
VALUE_COUNT_TYPES |= CONTRIB_AGG_VC_TYPES

# per-block cap on distinct unexpected values tracked for value_counts output
_BLOCK_VC_CAP = 1000


# --------------------------------------------------------------------------- #
# compilation
# --------------------------------------------------------------------------- #


@dataclass
class _CompiledSuite:
    table_rules: list[tuple[int, ExpectationConfiguration]] = field(default_factory=list)
    map_rules: list[tuple[int, ExpectationConfiguration]] = field(default_factory=list)
    two_phase_rules: list[tuple[int, ExpectationConfiguration]] = field(default_factory=list)
    unique_rules: list[tuple[int, ExpectationConfiguration]] = field(default_factory=list)
    vc_rules: list[tuple[int, ExpectationConfiguration]] = field(default_factory=list)
    agg_rules: list[tuple[int, ExpectationConfiguration]] = field(default_factory=list)
    ordered_rules: list[tuple[int, ExpectationConfiguration]] = field(default_factory=list)
    dist_rules: list[tuple[int, ExpectationConfiguration]] = field(default_factory=list)
    cramers_rules: list[tuple[int, ExpectationConfiguration]] = field(default_factory=list)
    cross_rules: list[tuple[int, ExpectationConfiguration]] = field(default_factory=list)
    global_sql_rules: list[tuple[int, ExpectationConfiguration]] = field(default_factory=list)
    queried_rules: list[tuple[int, ExpectationConfiguration]] = field(default_factory=list)
    paired_stat_rules: list[tuple[int, ExpectationConfiguration]] = field(default_factory=list)
    ks_rules: list[tuple[int, ExpectationConfiguration]] = field(default_factory=list)
    agg_columns: set = field(default_factory=set)       # numeric agg partials
    count_columns: set = field(default_factory=set)     # (total, nonnull) counters
    vc_columns: set = field(default_factory=set)        # exact value-count partials
    hist_specs: list[tuple[int, str, list]] = field(default_factory=list)  # histogram partials
    errors: list[tuple[int, ExpectationConfiguration, str]] = field(default_factory=list)


def compile_suite(suite: ExpectationSuite) -> _CompiledSuite:
    plan = _CompiledSuite()
    for idx, cfg in enumerate(suite.resolved_expectations()):
        t = cfg.expectation_type
        try:
            if t in TABLE_RULES:
                plan.table_rules.append((idx, cfg))
            elif t in TWO_PHASE_TYPES:
                plan.two_phase_rules.append((idx, cfg))
                plan.agg_columns.add(cfg.kwargs["column"])
                if _is_iqr(cfg):
                    # median/IQR come from the exact VC partials (or the
                    # distributed rank-select on overflow)
                    plan.vc_columns.add(cfg.kwargs["column"])
                    plan.count_columns.add(cfg.kwargs["column"])
            elif t in UNIQUE_TYPES:
                plan.unique_rules.append((idx, cfg))
                for c in _unique_columns(cfg):
                    plan.count_columns.add(c)
            elif t in VALUE_COUNT_TYPES:
                plan.vc_rules.append((idx, cfg))
                # days/months-missing and the weekday-mean rules always run
                # their own bounded pass — don't build VC partials for them
                if not t.endswith(("_missing", "_week_day_mean")):
                    plan.vc_columns.add(cfg.kwargs["column"])
                plan.count_columns.add(cfg.kwargs["column"])
            elif t in AGG_EXPECTATIONS:
                plan.agg_rules.append((idx, cfg))
                plan.agg_columns.add(cfg.kwargs["column"])
            elif t in ORDERED_TYPES:
                if "partition_by" not in cfg.kwargs or "order_by" not in cfg.kwargs:
                    # plain increasing/decreasing fall back to the GLOBAL
                    # dataset-order check (reference pandas semantics,
                    # column_values_increasing.py:20-43) — per-block Ray
                    # tasks + driver boundary stitch, functions/ordered.py
                    # global_monotonic.  Contrib ordered ports still require
                    # explicit keys (their contracts are per-entity).
                    if t not in (
                        "expect_column_values_to_be_increasing",
                        "expect_column_values_to_be_decreasing",
                    ) or ("partition_by" in cfg.kwargs or "order_by" in cfg.kwargs):
                        raise ValueError(
                            f"{t} on Ray requires explicit partition_by/order_by "
                            "kwargs (blocks are unordered; see SURVEY §7)"
                        )
                plan.ordered_rules.append((idx, cfg))
            elif t in DIST_TYPES:
                plan.dist_rules.append((idx, cfg))
                po = cfg.kwargs.get("partition_object") or {}
                if "bins" in po:
                    plan.hist_specs.append((idx, cfg.kwargs["column"], list(po["bins"])))
                else:
                    plan.vc_columns.add(cfg.kwargs["column"])
                plan.count_columns.add(cfg.kwargs["column"])
            elif t in CRAMERS_TYPES:
                plan.cramers_rules.append((idx, cfg))
            elif t in CROSS_TABLE_TYPES:
                plan.cross_rules.append((idx, cfg))
            elif t in KS_TYPES:
                plan.ks_rules.append((idx, cfg))
                plan.count_columns.add(cfg.kwargs["column"])
            elif (
                t == "unexpected_rows_expectation"
                and cfg.kwargs.get("scope") == "table"
            ):
                # corpus-level SQL (joins / aggregates over the whole asset,
                # reference unexpected_rows_expectation.py:138-153) — the
                # documented materialize->DuckDB pass, not the per-batch path
                if "unexpected_sql" not in cfg.kwargs:
                    raise ValueError(
                        "scope='table' requires 'unexpected_sql' (global SQL "
                        "over {batch} returning the unexpected rows)"
                    )
                plan.global_sql_rules.append((idx, cfg))
            elif t in PAIRED_STAT_TYPES:
                plan.paired_stat_rules.append((idx, cfg))
            elif t in _queried_types():
                # contrib expect_queried_* family: SQL over {batch}; shares
                # the ONE stream->DuckDB materialization with scope="table"
                plan.queried_rules.append((idx, cfg))
            elif t in CONDITION_KERNELS:
                plan.map_rules.append((idx, cfg))
            else:
                raise NotImplementedError(f"unknown expectation_type {t!r}")
        except Exception as exc:  # compile-time config errors -> failed EVR
            plan.errors.append((idx, cfg, f"{type(exc).__name__}: {exc}"))
    return plan


def _stream_into_duckdb(con, ds, tname: str, *, synthesize_empty: bool = False) -> int:
    """Stream a Dataset batch-by-batch into one DuckDB table (the documented
    global-SQL materialization; DuckDB spills past its memory limit).
    Returns the row count.  ``synthesize_empty`` creates a typed empty table
    from the dataset schema when no batches arrive."""
    total_rows = 0
    first = True
    for batch in ds.iter_batches(batch_format="pyarrow", batch_size=65536):
        total_rows += batch.num_rows
        con.register("__gxr_chunk", batch)
        if first:
            con.execute(f"CREATE TABLE {tname} AS SELECT * FROM __gxr_chunk")
            first = False
        else:
            con.execute(f"INSERT INTO {tname} SELECT * FROM __gxr_chunk")
        con.unregister("__gxr_chunk")
    if first:
        if not synthesize_empty:
            raise ValueError(f"dataset for {tname} is empty")
        schema = ds.schema()
        base = getattr(schema, "base_schema", None) if schema else None
        if base is None:
            raise ValueError(
                "empty dataset with unknown schema: global SQL "
                "cannot be evaluated"
            )
        con.register(
            "__gxr_chunk", pa.table({f.name: pa.array([], f.type) for f in base})
        )
        con.execute(f"CREATE TABLE {tname} AS SELECT * FROM __gxr_chunk")
        con.unregister("__gxr_chunk")
    return total_rows


def _queried_types() -> set:
    from great_expectations_ray.functions.queried import QUERIED_TYPES

    return QUERIED_TYPES


def _unique_columns(cfg: ExpectationConfiguration) -> list[str]:
    if cfg.expectation_type == "expect_column_values_to_be_unique":
        return [cfg.kwargs["column"]]
    return list(cfg.kwargs["column_list"])


# --------------------------------------------------------------------------- #
# phase 1: fused partial evaluator
# --------------------------------------------------------------------------- #


class _PartialEvaluator:
    """The single fused per-block pass.  Stateless; passed as a callable to
    ``map_batches(batch_format="pyarrow", zero_copy_batch=True)``.

    Output: one row whose ``partial`` holds the pickled block state, plus,
    for each uniqueness key set (a tuple of columns), the block's typed key
    counts as rows with a null ``partial``: ``__kset`` (the key set's
    index), ``__cnt`` and the key values in ``__k{set}_{j}``, typed as the
    input column, with float keys canonical
    (``functions.aggregates.canonical_keys``).  Every batch gives the same
    schema.  ``record_schema`` stores the batch's schema (before the
    dictionary decode) in the partial."""

    def __init__(
        self,
        map_rules: list[tuple[int, ExpectationConfiguration]],
        agg_columns: set,
        count_columns: set,
        vc_columns: set,
        index_cols: Optional[list[str]],
        hist_specs: Optional[list[tuple[int, str, list]]] = None,
        include_rows: bool = False,
        key_sets: Optional[list[tuple[str, ...]]] = None,
        record_schema: bool = False,
    ):
        self.map_rules = []
        for idx, cfg in map_rules:
            cond = cfg.kwargs.get("row_condition")
            mask_fn = compile_row_condition(cond) if cond else None
            self.map_rules.append((idx, cfg, CONDITION_KERNELS[cfg.expectation_type], mask_fn))
        self.agg_columns = sorted(agg_columns)
        self.count_columns = sorted(count_columns)
        self.vc_columns = sorted(vc_columns)
        self.index_cols = index_cols
        self.hist_specs = hist_specs or []
        self.include_rows = include_rows
        self.key_sets = key_sets or []
        self.record_schema = record_schema

    def __call__(self, tbl: pa.Table) -> pa.Table:
        input_schema = tbl.schema
        # dictionary-encoded inputs (read_csv inference, from_arrow, parquet
        # read_dictionary) break exact-type kernels like pc.is_in — decode
        # once per batch so every kernel sees plain value types (no-op for
        # non-dictionary columns)
        for i, f in enumerate(tbl.schema):
            if pa.types.is_dictionary(f.type):
                tbl = tbl.set_column(
                    i, f.name, pc.cast(tbl.column(f.name), f.type.value_type))
        state: dict[Any, Any] = {"row_count": tbl.num_rows, "maps": {}, "aggs": {},
                                 "counts": {}, "vcs": {}, "errors": {}}
        if self.record_schema:
            state["schema"] = pa.schema([(f.name, f.type) for f in input_schema])
        for idx, cfg, kernel, mask_fn in self.map_rules:
            try:
                sub = tbl
                if mask_fn is not None:
                    sub = tbl.filter(pa.array(mask_fn(tbl)))
                state["maps"][idx] = self._eval_map(sub, cfg, kernel)
            except Exception:
                state["errors"][idx] = traceback.format_exc(limit=3)
        # per-column try/except: a missing or non-castable column must fail
        # only the expectations that own it, never abort the whole fused pass
        # (reference emits a failed EVR per expectation — expectation.py's
        # catch_exceptions contract)
        for c in self.agg_columns:
            try:
                st = NumericAggState()
                st.update(tbl.column(c))
                state["aggs"][c] = st
            except Exception:
                state["errors"][("agg", c)] = traceback.format_exc(limit=3)
        for c in self.count_columns:
            try:
                col = tbl.column(c)
                state["counts"][c] = (len(col), len(col) - col.null_count)
            except Exception:
                state["errors"][("count", c)] = traceback.format_exc(limit=3)
        for c in self.vc_columns:
            try:
                state["vcs"][c] = ValueCountsState.of(tbl.column(c))
            except Exception:
                state["errors"][("vc", c)] = traceback.format_exc(limit=3)
        if self.hist_specs:
            state["hists"] = {}
            for idx, col, bins in self.hist_specs:
                try:
                    vals = np.asarray(
                        pc.drop_null(pc.cast(tbl.column(col), pa.float64())).combine_chunks()
                    )
                    edges = np.asarray(bins, dtype=np.float64)
                    counts, _ = np.histogram(vals, bins=edges)
                    below = int((vals < edges[0]).sum())
                    above = int((vals > edges[-1]).sum())
                    state["hists"][idx] = (counts.astype(np.int64), below, above, len(vals))
                except Exception:
                    state["errors"][("hist", idx)] = traceback.format_exc(limit=3)
        key_counts = {}
        for i, cols in enumerate(self.key_sets):
            try:
                keys = pa.table([canonical_keys(tbl.column(c).combine_chunks()) for c in cols],
                                names=[f"k{j}" for j in range(len(cols))])
                key_counts[i] = group_aggregate(keys, keys.column_names,
                                                [([], "count_all")])
            except Exception:
                state["errors"][("keys", cols)] = traceback.format_exc(limit=3)
        partial = pa.array([pickle.dumps(state)], type=pa.large_binary())
        if not self.key_sets:
            return pa.table({"partial": partial})
        return self._with_key_rows(partial, key_counts, tbl.schema)

    def _with_key_rows(self, partial: pa.Array, key_counts: dict,
                       schema: pa.Schema) -> pa.Table:
        sizes = [key_counts[i].num_rows if i in key_counts else 0
                 for i in range(len(self.key_sets))]
        n_keys = sum(sizes)
        cols = {
            "partial": pa.concat_arrays([partial, pa.nulls(n_keys, pa.large_binary())]),
            "__kset": pa.concat_arrays([
                pa.nulls(1, pa.int32()),
                pa.array(np.repeat(np.arange(len(sizes), dtype=np.int32), sizes))]),
            "__cnt": pa.concat_arrays(
                [pa.nulls(1, pa.int64())]
                + [key_counts[i].column("count_all").combine_chunks()
                   for i in key_counts]),
        }
        for i, key_cols in enumerate(self.key_sets):
            for j, c in enumerate(key_cols):
                t = schema.field(c).type if c in schema.names else pa.null()
                chunks = [pa.nulls(1, t)]
                for i2, n in enumerate(sizes):
                    chunks.append(key_counts[i].column(f"k{j}").combine_chunks().cast(t)
                                  if i2 == i and n else pa.nulls(n, t))
                cols[f"__k{i}_{j}"] = pa.concat_arrays(chunks)
        return pa.table(cols)

    def _eval_map(
        self, tbl: pa.Table, cfg: ExpectationConfiguration, kernel
    ) -> MapPartialState:
        res: KernelResult = kernel(tbl, cfg.kwargs)
        unexpected = res.considered & ~res.meets
        ps = MapPartialState(
            element_count=tbl.num_rows,
            null_count=res.null_count,
            unexpected_count=int(unexpected.sum()),
        )
        if ps.unexpected_count:
            pos = np.nonzero(unexpected)[0]
            sample_pos = pos[:MAX_RESULT_RECORDS]
            vals = res.values.take(pa.array(sample_pos))
            ps.unexpected_values = vals.to_pylist()
            # value counts over the whole block's unexpected values, capped per
            # block at _BLOCK_VC_CAP distinct keys (documented deviation: GX
            # counts the full set; the top-k by count is unaffected unless
            # cardinality of unexpected values exceeds the cap)
            vc = pc.value_counts(res.values.take(pa.array(pos[:100_000])))
            ctr = Counter()
            for item in vc:
                if len(ctr) >= _BLOCK_VC_CAP:
                    break
                ctr[_py_key(item["values"].as_py())] += item["counts"].as_py()
            ps.unexpected_value_counts = ctr
            if self.index_cols:
                key_tbl = tbl.select(self.index_cols)
                keys = key_tbl.take(pa.array(sample_pos))
                ps.unexpected_keys = [
                    tuple(keys.column(c)[i].as_py() for c in self.index_cols)
                    for i in range(keys.num_rows)
                ]
            if self.include_rows:
                from great_expectations_ray.core.results import (
                    PARTIAL_UNEXPECTED_COUNT_DEFAULT as _CAP,
                )

                ps.unexpected_rows = tbl.take(pa.array(pos[:_CAP])).to_pylist()
        return ps


def _merge_partials(raw_partials: list[bytes]) -> dict:
    merged: dict[Any, Any] = {"row_count": 0, "maps": {}, "aggs": {}, "counts": {},
                              "vcs": {}, "errors": {}, "schema": None}
    aggs: dict[str, list[NumericAggState]] = {}
    vcs: dict[str, list[ValueCountsState]] = {}

    def fold_vcs(c: str) -> None:
        """Merge column ``c``'s pending value counts into one state; a
        type clash fails the column's value-count rules."""
        try:
            vcs[c] = [ValueCountsState.merge_all(vcs[c])]
        except TypeError as exc:
            merged["errors"].setdefault(
                ("vc", c), f"TypeError: value counts of column {c!r}: {exc}")
            del vcs[c]

    for raw in raw_partials:
        st = pickle.loads(raw)
        merged["row_count"] += st["row_count"]
        if merged["schema"] is None:
            merged["schema"] = st.get("schema")
        for idx, ps in st["maps"].items():
            if idx in merged["maps"]:
                merged["maps"][idx].merge(ps)
            else:
                merged["maps"][idx] = ps
        for c, ag in st["aggs"].items():
            aggs.setdefault(c, []).append(ag)
        for c, (tot, nn) in st["counts"].items():
            t0, n0 = merged["counts"].get(c, (0, 0))
            merged["counts"][c] = (t0 + tot, n0 + nn)
        for c, vc in st["vcs"].items():
            if ("vc", c) in merged["errors"]:
                continue
            vcs.setdefault(c, []).append(vc)
            # fold as the pending values pass CAP: the driver holds a few CAPs
            if sum(len(p.values) for p in vcs[c]) > ValueCountsState.CAP:
                fold_vcs(c)
        for idx, err in st["errors"].items():
            merged["errors"].setdefault(idx, err)
        for idx, (counts, below, above, n) in st.get("hists", {}).items():
            if idx in merged.setdefault("hists", {}):
                c0, b0, a0, n0 = merged["hists"][idx]
                merged["hists"][idx] = (c0 + counts, b0 + below, a0 + above, n0 + n)
            else:
                merged["hists"][idx] = (counts, below, above, n)
    merged.setdefault("hists", {})
    for c in list(vcs):
        fold_vcs(c)
    merged["vcs"] = {c: parts[0] for c, parts in vcs.items()}
    for c, states in aggs.items():
        # partials arrive in block completion order and float moment merges
        # differ in the last bits by order: merge in an order fixed by the
        # states themselves, so a column's aggregates are the same in every
        # run and in every suite that reads it
        states.sort(key=lambda a: (a.n, a.mean, a.m2, a.m3, a.m4, a.sum))
        for ag in states[1:]:
            states[0].merge(ag)
        merged["aggs"][c] = states[0]
    return merged


# --------------------------------------------------------------------------- #
# phase W: shuffle-backed metrics
# --------------------------------------------------------------------------- #


#: key rows of the phase-1 output above which the uniqueness counts take a
#: bucketed exchange instead of the one finishing task, which holds them all
#: in one worker.  Measured on 4 Ray CPUs with (int64, string) keys, task vs
#: exchange wall time: 1M rows 1.1 vs 3.7 s, 2M 1.6 vs 3.5 s, 4M 3.0 vs
#: 4.5-5.2 s, 6M 5.4-5.5 vs 5.5-7.0 s, 8M 7.0 vs 6.3-6.7 s; the task's peak
#: RSS grows about 200 MB per million rows (0.9 GB at 4M).  The cap sits
#: below the crossover, where the task is still the faster in every run.
_KEY_TASK_ROW_CAP = 4_000_000


def _unique_keys(plan: "_CompiledSuite") -> tuple[list, list[tuple[int, int, bool]]]:
    """The distinct key column tuples of the suite's uniqueness rules (phase
    1 emits one key set per tuple), and per rule ``(rule idx, key set
    index, drop null keys)``: single-column uniqueness ignores nulls,
    compound keys count them."""
    key_sets = sorted({tuple(_unique_columns(cfg)) for _, cfg in plan.unique_rules})
    return key_sets, [(idx, key_sets.index(tuple(_unique_columns(cfg))),
                       cfg.expectation_type == "expect_column_values_to_be_unique")
                      for idx, cfg in plan.unique_rules]


def _key_rows(tbl: pa.Table, kset: int, width: int) -> pa.Table:
    """One key set's rows of phase-1 output as ``(k0.., cnt)``."""
    rows = tbl.filter(pc.fill_null(pc.equal(tbl.column("__kset"), kset), False))
    return pa.table([rows.column(f"__k{kset}_{j}") for j in range(width)]
                    + [rows.column("__cnt")],
                    names=[f"k{j}" for j in range(width)] + ["cnt"])


def _key_counts(rows: pa.Table, width: int) -> pa.Table:
    """``(k0.., cnt)`` rows merged to one row per distinct key."""
    keys = [f"k{j}" for j in range(width)]
    g = group_aggregate(rows, keys, [("cnt", "sum")])
    return pa.table([g.column(k) for k in keys] + [g.column("cnt_sum")],
                    names=keys + ["cnt"])


def _smallest_keys(keys: pa.Table, k: int = MAX_RESULT_RECORDS) -> pa.Table:
    """The ``k`` smallest distinct keys in key order (column by column,
    NaN after numbers, nulls last)."""
    order = pc.sort_indices(keys, sort_keys=[(c, "ascending") for c in keys.column_names])
    return keys.take(order[:k])


def _dup_stats(counts: pa.Table, drop_null: bool) -> tuple[int, pa.Table]:
    """From merged key counts ``(k0.., cnt)``: the number of rows whose key
    occurs more than once, and the smallest such keys (``k0..`` columns)."""
    if drop_null:
        counts = counts.filter(pc.is_valid(counts.column(0)))
    dup = counts.filter(pc.greater(counts.column("cnt"), 1))
    total = pc.sum(dup.column("cnt")).as_py() or 0
    return int(total), _smallest_keys(dup.drop_columns(["cnt"]))


def _render_keys(keys: pa.Table) -> list:
    """Sample keys as result values: the value for one column, the list of
    key values (``[55623, "AIR"]``) for a compound key."""
    cols = [c.to_pylist() for c in keys.columns]
    return cols[0] if len(cols) == 1 else [list(r) for r in zip(*cols)]


def _finish_phase1_task(widths: list[int], dup_specs: list, *blocks: pa.Table):
    """The one finishing task of phase 1: the partial bytes of every block,
    and ``{rule idx: (dup count, rendered sample keys)}`` from the merged
    key counts.  Runs in a worker, so the key rows never reach the driver."""
    partials, key_rows = [], []
    for b in blocks:
        if not b.num_rows:
            continue
        is_partial = pc.is_valid(b.column("partial"))
        partials.extend(b.column("partial").filter(is_partial).to_pylist())
        if dup_specs:
            key_rows.append(b.filter(pc.invert(is_partial)).drop_columns(["partial"]))
    dups = {}
    if key_rows:
        rows = pa.concat_tables(key_rows, promote_options="default")
        for kset, width in enumerate(widths):
            counts = _key_counts(_key_rows(rows, kset, width), width)
            for idx, ks, drop_null in dup_specs:
                if ks == kset:
                    n, keys = _dup_stats(counts, drop_null)
                    dups[idx] = (n, _render_keys(keys))
    return partials, dups


def _exchange_reduce(t: pa.Table, width: int, specs: list) -> pa.Table:
    """One bucket: its merged key counts -> pickled ``{rule idx: (dup
    count, smallest dup keys)}``."""
    counts = _key_counts(t, width)
    out = {idx: _dup_stats(counts, drop_null) for idx, drop_null in specs}
    return pa.table({"stats": pa.array([pickle.dumps(out)], pa.large_binary())})


def _partial_rows(tbl: pa.Table) -> pa.Table:
    return tbl.select(["partial"]).filter(pc.is_valid(tbl.column("partial")))


def _phase1_exchange(mat, widths: list[int], dup_specs: list,
                     n_buckets: int = 64) -> tuple[list, dict]:
    """``_finish_phase1_task``'s results when the key rows are too many for
    one task: the partial rows are collected, and each key set's rows take
    one bucketed exchange whose reduce merges the counts and returns the
    per-bucket dup count and smallest keys.  Reads ``mat`` only."""
    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed

    partials = [r["partial"] for r in
                mat.map_batches(_partial_rows, batch_format="pyarrow").take_all()]
    dups = {}
    for kset, width in enumerate(widths):
        specs = [(idx, drop_null) for idx, ks, drop_null in dup_specs if ks == kset]
        if not specs:
            continue
        per_bucket = [
            pickle.loads(r["stats"]) for r in grouped_apply_bucketed(
                mat.map_batches(_key_rows, fn_args=(kset, width), batch_format="pyarrow"),
                [f"k{j}" for j in range(width)],
                functools.partial(_exchange_reduce, width=width, specs=specs),
                n_buckets=n_buckets).take_all()]
        for idx, _ in specs:
            stats = [b[idx] for b in per_bucket]
            samples = [t for _, t in stats if t.num_rows]
            dups[idx] = (sum(n for n, _ in stats),
                         _render_keys(_smallest_keys(
                             pa.concat_tables(samples, promote_options="default")))
                         if samples else [])
    return partials, dups


_FINISH_TASK = None


def _phase1(ds, evaluator: _PartialEvaluator, dup_specs: list) -> tuple[list, dict]:
    """Run phase 1 once over ``ds``: ``(partial bytes, uniqueness stats)``."""
    global _FINISH_TASK
    import ray

    mat = ds.map_batches(evaluator, batch_format="pyarrow",
                         zero_copy_batch=True).materialize()
    widths = [len(k) for k in evaluator.key_sets]
    # count() of a materialized dataset reads block metadata, no pull
    if dup_specs and mat.count() > _KEY_TASK_ROW_CAP:
        return _phase1_exchange(mat, widths, dup_specs)
    if _FINISH_TASK is None:
        _FINISH_TASK = ray.remote(_finish_phase1_task)
    return ray.get(_FINISH_TASK.remote(widths, dup_specs, *mat.to_arrow_refs()))


def _grouped_value_counts(ds, columns: list[str], n_buckets: int = 256):
    """Exact value counts of a (composite) key via map-side pre-aggregation:
    per-batch ``Table.group_by`` -> tiny typed ``(k0.., cnt)`` rows -> ONE
    bucketed exchange (``grouped_apply_bucketed``) -> vectorized in-bucket
    combine.  Returns
    ``Dataset[k0.., cnt]``, ``k{j}`` holding ``columns[j]``'s values: the
    positional names cannot collide with a key column's own name.

    Why buckets and not ``groupby(value).sum``: Ray's aggregate pays
    per-GROUP overhead, which is pathological for high-cardinality keys
    (measured: 10M distinct keys ~300 s vs ~6 s with 64 buckets on the same
    shuffle volume).  Bucketing by the typed key hash
    (``functions/bucketed.add_bucket``) keeps the exchange identical but
    makes the reduce side |buckets| vectorized ``pa.Table.group_by`` calls —
    C-speed regardless of key cardinality.  Keys keep their column types,
    floats canonical (``-0.0`` -> ``0.0``, one NaN); a single column drops
    its nulls, a composite key counts them as values."""
    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed

    width = len(columns)
    names = [f"k{j}" for j in range(width)]

    def vc_batch(tbl: pa.Table) -> pa.Table:
        keys = pa.table([canonical_keys(tbl.column(c).combine_chunks()) for c in columns],
                        names=names)
        if width == 1:
            keys = keys.filter(pc.is_valid(keys.column(0)))
        g = group_aggregate(keys, names, [([], "count_all")])
        return pa.table([g.column(k) for k in names] + [g.column("count_all")],
                        names=[*names, "cnt"])

    return grouped_apply_bucketed(
        ds.select_columns(list(columns))
        .map_batches(vc_batch, batch_format="pyarrow", zero_copy_batch=True),
        names, functools.partial(_key_counts, width=width), n_buckets=n_buckets)


# --------------------------------------------------------------------------- #
# quantiles from exact value counts
# --------------------------------------------------------------------------- #


def _quantile_from_value_counts(
    vc: ValueCountsState, quantiles: list[float], interpolation: str = "nearest"
) -> list:
    """Exact quantiles from merged value counts.  ``nearest`` mirrors pandas
    ``interpolation='nearest'`` (``column_quantile_values.py:34-39``): index =
    round-half-even(q*(n-1)).  ``lower``/``higher`` take floor/ceil — exactly
    SQL-expressible (ORDER BY ... OFFSET floor(q*(n-1))), used by oracle
    parity queries."""
    keys, cnts = vc.sorted_view()
    if not len(keys):
        return [None] * len(quantiles)
    cum = np.cumsum(cnts)
    n = int(cum[-1])
    out = []
    for q in quantiles:
        x = q * (n - 1)
        if interpolation == "lower":
            target = int(np.floor(x))
        elif interpolation == "higher":
            target = int(np.ceil(x))
        else:
            target = int(np.round(x))  # numpy round = half-to-even
        pos = int(np.searchsorted(cum, target + 1))
        out.append(keys[min(pos, len(keys) - 1)].as_py())
    return out


# --------------------------------------------------------------------------- #
# main entry
# --------------------------------------------------------------------------- #


def _dataset_arrow_schema(ds) -> pa.Schema:
    sch = ds.schema(fetch_if_missing=True)
    if sch is None:  # empty dataset with no schema information
        return pa.schema([])
    try:
        return pa.schema(zip(sch.names, sch.types))
    except Exception:
        return sch.base_schema  # older wrapper


def validate(
    ds,
    suite: ExpectationSuite,
    *,
    result_format: str | dict = "SUMMARY",
    partial_unexpected_count: int = PARTIAL_UNEXPECTED_COUNT_DEFAULT,
    unexpected_index_column_names: Optional[list[str]] = None,
    catch_exceptions: bool = True,
    other_tables: Optional[dict[str, Any]] = None,
) -> SuiteValidationResult:
    """Validate a ``ray.data.Dataset`` against a suite; returns the
    GX-shaped suite result (SURVEY.md §3 lifecycle, recast for Ray Data).

    ``result_format`` accepts the GX dict form too:
    ``{"result_format": "SUMMARY", "partial_unexpected_count": N,
    "include_unexpected_rows": bool, "unexpected_index_column_names": [...]}``.
    """
    result_format, partial_unexpected_count, include_rows, index_cols = (
        _result_format_opts(result_format, partial_unexpected_count,
                            unexpected_index_column_names))
    plan = compile_suite(suite)
    if plan.errors and not catch_exceptions:
        raise RuntimeError(plan.errors[0][2])  # before any pass over ds

    # ---- phase 1: one fused streaming pass -------------------------------- #
    if (
        plan.map_rules or plan.agg_rules or plan.two_phase_rules or plan.vc_rules
        or plan.unique_rules or plan.table_rules or plan.dist_rules or plan.ks_rules
    ):
        key_sets, dup_specs = _unique_keys(plan)
        evaluator = _PartialEvaluator(
            plan.map_rules,
            plan.agg_columns,
            plan.count_columns,
            plan.vc_columns,
            index_cols,
            plan.hist_specs,
            include_rows=include_rows,
            key_sets=key_sets,
            record_schema=True,
        )
        raw_partials, dups = _phase1(ds, evaluator, dup_specs)
        merged = _merge_partials(raw_partials)
        merged["dups"] = dups
    else:
        merged = _merge_partials([])
        if plan.cross_rules or plan.global_sql_rules:
            merged["row_count"] = ds.count()  # no fused pass ran; count directly

    # ---- phase 2: settled from value counts, or a re-stream -------------- #
    two_phase_states = None
    if plan.two_phase_rules:
        rules, two_phase_states = _two_phase_rules(
            plan, merged, ds,
            _shows_rows(result_format, index_cols, include_rows))
        if rules:
            partial_rows = ds.map_batches(
                _PartialEvaluator(rules, set(), set(), set(), index_cols,
                                  include_rows=include_rows),
                batch_format="pyarrow", zero_copy_batch=True,
            ).take_all()
            _fold_phase2(two_phase_states, rules,
                         _merge_partials([r["partial"] for r in partial_rows]))

    schema = merged["schema"]
    if schema is None and plan.table_rules:
        schema = _dataset_arrow_schema(ds)  # no batch arrived
    return _finish_suite(
        plan, suite, merged, schema, ds,
        result_format=result_format,
        partial_unexpected_count=partial_unexpected_count,
        include_unexpected_rows=include_rows,
        catch_exceptions=catch_exceptions,
        other_tables=other_tables,
        two_phase_states=two_phase_states,
    )


def _result_format_opts(
    result_format: str | dict,
    partial_unexpected_count: int = PARTIAL_UNEXPECTED_COUNT_DEFAULT,
    unexpected_index_column_names: Optional[list[str]] = None,
) -> tuple[str, int, bool, Optional[list[str]]]:
    """``(result_format, partial_unexpected_count, include_unexpected_rows,
    unexpected_index_column_names)`` from a result_format string or its GX
    dict form; dict entries override the keyword values."""
    if not isinstance(result_format, dict):
        return (result_format, partial_unexpected_count, False,
                unexpected_index_column_names)
    return (
        result_format.get("result_format", "SUMMARY"),
        result_format.get("partial_unexpected_count", partial_unexpected_count),
        bool(result_format.get("include_unexpected_rows", False)),
        result_format.get("unexpected_index_column_names",
                          unexpected_index_column_names),
    )


def _overflowed(col: str) -> str:
    """Failure message for a value-count family whose merged counts
    overflowed when no dataset is at hand for the distributed fallback."""
    return (
        f"more than {ValueCountsState.CAP} distinct values in '{col}' — the "
        "merged value counts overflowed; validate this group or slice "
        "through validate() (distributed fallback)"
    )


def _shows_rows(result_format: str, index_cols: Optional[list[str]],
               include_rows: bool) -> bool:
    """Whether map results show row identity (index keys or unexpected
    rows), which only a read of the rows can give."""
    return result_format != "BOOLEAN_ONLY" and (bool(index_cols) or include_rows)


def _is_iqr(cfg: ExpectationConfiguration) -> bool:
    return (cfg.expectation_type == "expect_column_values_to_not_be_outliers"
            and cfg.kwargs.get("method", "iqr") == "iqr")


def _two_phase_rules(plan: _CompiledSuite, merged: dict, ds=None,
                     shows_rows: bool = False) -> tuple[list, dict]:
    """Bake each two-phase rule's phase-1 thresholds into its kwargs:
    ``_mean``/``_std``, plus ``_median``/``_iqr`` for IQR outliers (exact
    from one sorted view of the merged value counts; distributed rank
    selection on overflow, which needs ``ds``).  An IQR rule with exact
    counts is then settled from them (:func:`_settle_outliers`) unless it
    has a ``row_condition``, or the result shows row identity
    (``shows_rows``) and some row is unexpected.  Returns ``(rules for the
    second read, {idx: MapPartialState or failure message})`` — the dict is
    the caller's two-phase state map, completed by :func:`_fold_phase2`."""
    from great_expectations_ray.functions.contrib_aggregates import (
        percentile_linear_distributed_multi,
        percentile_linear_from_vc,
    )

    rules, states = [], {}
    for idx, cfg in plan.two_phase_rules:
        col = cfg.kwargs["column"]
        err = next((merged["errors"][k] for k in (("agg", col), ("vc", col))
                    if k in merged["errors"]), None)
        if err:
            states[idx] = err
            continue
        view = None
        try:
            ag = merged["aggs"].get(col, NumericAggState())
            k = dict(cfg.kwargs)
            k["_mean"] = ag.metric("column.mean")
            k["_std"] = ag.metric("column.standard_deviation")
            if _is_iqr(cfg):
                qs = [0.25, 0.50, 0.75]
                vc = merged["vcs"].get(col, ValueCountsState())
                if not vc.overflow:
                    view = vc.sorted_view()
                    q25, q50, q75 = percentile_linear_from_vc(vc, qs, view)
                elif ds is None:
                    raise ValueError(_overflowed(col))
                else:
                    # one vectorized rank-select pair for all three quantiles
                    _, nn = merged["counts"].get(col, (0, 0))
                    q25, q50, q75 = percentile_linear_distributed_multi(ds, col, qs, nn)
                k["_median"] = q50
                k["_iqr"] = (q75 - q25) if q75 is not None else None
        except Exception as exc:
            states[idx] = f"{type(exc).__name__}: {exc}"
            continue
        baked = ExpectationConfiguration(cfg.expectation_type, k, cfg.meta)
        settled = (None if view is None or k.get("row_condition")
                   else _settle_outliers(baked, merged, view))
        if settled is not None and not (shows_rows and settled.unexpected_count):
            states[idx] = settled
        else:
            rules.append((idx, baked))
    return rules, states


def _settle_outliers(cfg: ExpectationConfiguration, merged: dict,
                     view: tuple[pa.Array, np.ndarray]) -> Optional[MapPartialState]:
    """A baked IQR outlier rule's map state from its column's exact value
    counts (``view``: the distinct values in value order and their
    counts).  The rule's own condition kernel runs once over the distinct
    values.  Every count is exact; the sample is the unexpected values in
    value order (NaN after numbers), each repeated by its count.  None
    leaves the rule to the second read, which reports a kernel error on
    the rows."""
    col = cfg.kwargs["column"]
    keys, cnts = view
    try:
        res = CONDITION_KERNELS[cfg.expectation_type](pa.table({col: keys}), cfg.kwargs)
    except Exception:
        return None
    bad = np.flatnonzero(res.considered & ~res.meets)
    bad_cnts = cnts[bad]
    # the leading unexpected values that fill the sample
    lead = int(np.searchsorted(np.cumsum(bad_cnts), MAX_RESULT_RECORDS)) + 1
    sample = np.repeat(bad[:lead], bad_cnts[:lead])[:MAX_RESULT_RECORDS]
    total, nonnull = merged["counts"].get(col, (0, 0))  # no batch: vacuous
    return MapPartialState(
        element_count=total,
        null_count=total - nonnull,
        unexpected_count=int(bad_cnts.sum()),
        unexpected_values=keys.take(pa.array(sample, pa.int64())).to_pylist(),
        unexpected_value_counts=Counter(dict(zip(
            keys.take(pa.array(bad, pa.int64())).to_pylist(), bad_cnts.tolist()))),
    )


def _fold_phase2(states: dict, rules: list, merged2: dict) -> None:
    """Record each phase-2 rule's merged map state (or its error) in
    ``states``; a rule with no rows keeps an empty (vacuous) state."""
    for idx, _ in rules:
        if idx in merged2["errors"]:
            states[idx] = merged2["errors"][idx]
        else:
            states[idx] = merged2["maps"].get(idx, MapPartialState())


def _finish_suite(
    plan: _CompiledSuite,
    suite: ExpectationSuite,
    merged: dict,
    schema: pa.Schema,
    ds=None,
    *,
    result_format: str = "SUMMARY",
    partial_unexpected_count: int = PARTIAL_UNEXPECTED_COUNT_DEFAULT,
    include_unexpected_rows: bool = False,
    catch_exceptions: bool = True,
    other_tables: Optional[dict[str, Any]] = None,
    two_phase_states: Optional[dict] = None,
) -> SuiteValidationResult:
    """EVRs and the suite result from a compiled plan and its merged phase-1
    partials — the one finish for the whole table (:func:`validate`), every
    group (``pipelines/grouped.py``) and every merged partition state
    (``pipelines/incremental_validate.py``).

    ``ds`` is the validated dataset, or None when only merged state exists.
    With it, uniqueness comes from ``merged["dups"]`` (the phase-1 key
    counts, :func:`_phase1`).  Without it, uniqueness comes from the merged
    value counts and a value-count overflow fails its EVR with guidance;
    families that need their own pass over the data (ordered, KS, Cramér's
    φ, cross-table, paired, SQL) must be rejected by such callers up front.
    ``two_phase_states`` maps each two-phase rule to its phase-2
    ``MapPartialState`` or a failure message (:func:`_two_phase_rules`)."""
    evrs: dict[int, ExpectationValidationResult] = {}
    row_count = merged["row_count"]

    def fail_evr(idx: int, cfg: ExpectationConfiguration, msg: str) -> None:
        if not catch_exceptions:
            raise RuntimeError(msg)
        evrs[idx] = ExpectationValidationResult(
            success=False,
            expectation_config=cfg.to_json_dict(),
            exception_info={"raised_exception": True, "exception_message": msg},
        )

    for idx, cfg, msg in plan.errors:
        fail_evr(idx, cfg, msg)

    # ---- schema/table rules ------------------------------------------------ #
    for idx, cfg in plan.table_rules:
        try:
            ok, result = TABLE_RULES[cfg.expectation_type](schema, row_count, cfg.kwargs)
            evrs[idx] = ExpectationValidationResult(
                success=ok, expectation_config=cfg.to_json_dict(), result=result
            )
        except Exception as exc:
            fail_evr(idx, cfg, f"{type(exc).__name__}: {exc}")

    # ---- map rules --------------------------------------------------------- #
    def finish_map(idx: int, cfg: ExpectationConfiguration, ps: MapPartialState) -> None:
        nonnull = ps.element_count - ps.null_count
        if ps.element_count == 0 or nonnull == 0:
            # vacuous (expectation.py:2027-2040) — except the contrib
            # not_be_null_and_column_to_not_be_empty, whose _validate fails
            # on total_count in (None, 0) (contrib .../expect_column_values_
            # to_not_be_null_and_column_to_not_be_empty.py:320-321).
            success = cfg.expectation_type not in FAIL_ON_EMPTY_TYPES
        else:
            success = mostly_success(nonnull, ps.unexpected_count, cfg.kwargs.get("mostly", 1.0))
        evrs[idx] = ExpectationValidationResult(
            success=success,
            expectation_config=cfg.to_json_dict(),
            result=format_map_result(
                result_format=result_format,
                partial_unexpected_count=partial_unexpected_count,
                success=success,
                state=ps,
                include_unexpected_rows=include_unexpected_rows,
            ),
        )

    for idx, cfg in plan.map_rules:
        if idx in merged["errors"]:
            fail_evr(idx, cfg, merged["errors"][idx])
            continue
        finish_map(idx, cfg, merged["maps"].get(idx, MapPartialState()))

    def col_error(*keys) -> Optional[str]:
        """First recorded per-column phase-1 error for any of the given
        (kind, column) keys."""
        return next((merged["errors"][k] for k in keys if k in merged["errors"]), None)

    # ---- aggregate rules --------------------------------------------------- #
    for idx, cfg in plan.agg_rules:
        err = col_error(("agg", cfg.kwargs["column"]))
        if err:
            fail_evr(idx, cfg, err)
            continue
        try:
            metric = AGG_EXPECTATIONS[cfg.expectation_type]
            # empty datasets produce no partials: empty state -> None metric
            # -> failure, matching GX on empty tables (expectation.py:1596)
            ag = merged["aggs"].get(cfg.kwargs["column"], NumericAggState())
            value = ag.metric(metric)
            # contrib skew's `abs` switch (expect_column_skew_to_be_between)
            if (
                cfg.expectation_type == "expect_column_skew_to_be_between"
                and cfg.kwargs.get("abs") and value is not None
            ):
                value = abs(value)
            if cfg.expectation_type == "expect_column_sum_to_be":
                # exact equality (expect_column_sum_to_be.py:51-60)
                ok = value == cfg.kwargs["sum_total"]
                evrs[idx] = ExpectationValidationResult(
                    success=ok, expectation_config=cfg.to_json_dict(),
                    result={"observed_value": value},
                )
                continue
            if (
                cfg.expectation_type
                == "expect_column_values_to_be_normally_distributed"
            ):
                from great_expectations_ray.functions.stats_math import (
                    dagostino_normaltest_p,
                )

                g1 = ag.metric("column.custom.skew")
                g2 = ag.metric("column.custom.kurtosis")
                if g1 is None or g2 is None:
                    raise ValueError("normaltest needs a non-constant column")
                value = dagostino_normaltest_p(int(ag.n), g1, g2)
            ok = validate_metric_value_between(
                value,
                cfg.kwargs.get("min_value"),
                cfg.kwargs.get("max_value"),
                cfg.kwargs.get("strict_min", False),
                cfg.kwargs.get("strict_max", False),
            )
            evrs[idx] = ExpectationValidationResult(
                success=ok,
                expectation_config=cfg.to_json_dict(),
                result={"observed_value": value},
            )
        except Exception as exc:
            fail_evr(idx, cfg, f"{type(exc).__name__}: {exc}")

    # ---- two-phase rules (z-score): phase-2 states come from the caller --- #
    for idx, cfg in plan.two_phase_rules:
        state = two_phase_states[idx]
        if isinstance(state, str):
            fail_evr(idx, cfg, state)
        else:
            finish_map(idx, cfg, state)

    # ---- value-count rules -------------------------------------------------- #
    # several overflow (high-cardinality) rules on the SAME column share one
    # materialized grouped dataset — one shuffle per column, not per rule
    vc_ds_cache: dict[str, Any] = {}
    for idx, cfg in plan.vc_rules:
        err = col_error(
            ("vc", cfg.kwargs["column"]), ("count", cfg.kwargs["column"])
        )
        if err:
            fail_evr(idx, cfg, err)
            continue
        try:
            evrs[idx] = _finish_vc_rule(ds, cfg, merged, vc_ds_cache)
        except Exception as exc:
            fail_evr(idx, cfg, f"{type(exc).__name__}: {exc}")

    # ---- global-uniqueness rules (phase-1 key counts; value counts w/o ds) #
    for idx, cfg in plan.unique_rules:
        cols = _unique_columns(cfg)
        keys = [("count", c) for c in cols]
        if ds is None:
            keys += [("vc", c) for c in cols]
        else:
            keys.append(("keys", tuple(cols)))
        err = col_error(*keys)
        if err:
            fail_evr(idx, cfg, err)
            continue
        try:
            if ds is None:
                # single-column only (callers reject compound keys): dup
                # rows = sum of the counts above 1
                vc = merged["vcs"].get(cols[0], ValueCountsState())
                if vc.overflow:
                    raise ValueError(_overflowed(cols[0]))
                dup_count, keys = _dup_stats(
                    pa.table({"k0": vc.values, "cnt": vc.counts}), drop_null=False)
                samples = _render_keys(keys)
            else:
                dup_count, samples = merged["dups"].get(idx, (0, []))
            if cfg.expectation_type == "expect_column_values_to_be_unique":
                total, nonnull = merged["counts"].get(cols[0], (0, 0))
                nulls = total - nonnull
            else:
                total, _ = merged["counts"].get(cols[0], (0, 0))
                nonnull, nulls = total, 0
            ps = MapPartialState(
                element_count=total,
                null_count=nulls,
                unexpected_count=dup_count,
                unexpected_values=samples[:MAX_RESULT_RECORDS],
            )
            finish_map(idx, cfg, ps)
        except Exception as exc:
            fail_evr(idx, cfg, f"{type(exc).__name__}: {exc}")

    # ---- ordered rules (#21/#22): one shuffle on partition_by ------------- #
    for idx, cfg in plan.ordered_rules:
        try:
            from great_expectations_ray.functions.ordered import (
                grouped_monotonic,
                grouped_ordered_rule,
            )

            t = cfg.expectation_type
            if t == "expect_column_values_to_be_alphabetical":
                out = grouped_ordered_rule(
                    ds, cfg.kwargs["column"], cfg.kwargs["partition_by"],
                    cfg.kwargs["order_by"], kind="alphabetical",
                    reverse=cfg.kwargs.get("reverse", False),
                )
            elif t == "expect_column_values_to_change_between":
                out = grouped_ordered_rule(
                    ds, cfg.kwargs["column"], cfg.kwargs["partition_by"],
                    cfg.kwargs["order_by"], kind="change_between",
                    from_value=float(cfg.kwargs["from_value"]),
                    to_value=float(cfg.kwargs["to_value"]),
                )
            elif t == "expect_column_values_to_be_string_integers_increasing":
                out = grouped_ordered_rule(
                    ds, cfg.kwargs["column"], cfg.kwargs["partition_by"],
                    cfg.kwargs["order_by"], kind="string_integers_increasing",
                    strictly=cfg.kwargs.get("strictly", False),
                )
            else:
                out = None
                if "partition_by" not in cfg.kwargs:
                    # global dataset-order check (reference pandas semantics)
                    from great_expectations_ray.functions.ordered import (
                        global_monotonic,
                    )

                    n, nulls, viol, sample = global_monotonic(
                        ds, cfg.kwargs["column"],
                        strictly=cfg.kwargs.get("strictly", False),
                        decreasing=t.endswith("decreasing"),
                    )
                    ps = MapPartialState(
                        element_count=n + nulls, null_count=nulls,
                        unexpected_count=viol, unexpected_values=list(sample),
                    )
                    finish_map(idx, cfg, ps)
                    continue
                out = grouped_monotonic(
                    ds,
                    cfg.kwargs["column"],
                    cfg.kwargs["partition_by"],
                    cfg.kwargs["order_by"],
                    strictly=cfg.kwargs.get("strictly", False),
                    decreasing=t.endswith("decreasing"),
                )
            total = viol = 0
            for row in out.take_all():
                total += row["n_rows"]
                viol += row["n_violations"]
            ps = MapPartialState(element_count=total, null_count=0, unexpected_count=viol)
            finish_map(idx, cfg, ps)
        except Exception as exc:
            fail_evr(idx, cfg, f"{type(exc).__name__}: {exc}")

    # ---- distributional rules (#46 KL, #48 chi-square) -------------------- #
    for idx, cfg in plan.dist_rules:
        err = col_error(
            ("vc", cfg.kwargs["column"]),
            ("count", cfg.kwargs["column"]),
            ("hist", idx),
        )
        if err:
            fail_evr(idx, cfg, err)
            continue
        try:
            po = cfg.kwargs.get("partition_object") or {}
            if (
                cfg.expectation_type == "expect_column_kl_divergence_to_be_less_than"
                and "bins" in po
            ):
                evrs[idx] = _finish_continuous_kl(cfg, merged["hists"][idx])
            else:
                evrs[idx] = _finish_dist_rule(cfg, merged)
        except Exception as exc:
            fail_evr(idx, cfg, f"{type(exc).__name__}: {exc}")

    # ---- Cramér's phi (#50): joint value counts -> driver math ------------ #
    for idx, cfg in plan.cramers_rules:
        try:
            evrs[idx] = _finish_cramers_rule(ds, cfg)
        except Exception as exc:
            fail_evr(idx, cfg, f"{type(exc).__name__}: {exc}")

    # ---- KS tests (#47/#49): sort shuffle -> offset-linear summaries ------ #
    for idx, cfg in plan.ks_rules:
        err = col_error(("count", cfg.kwargs["column"]))
        if err:
            fail_evr(idx, cfg, err)
            continue
        try:
            evrs[idx] = _finish_ks_rule(ds, cfg, merged)
        except Exception as exc:
            fail_evr(idx, cfg, f"{type(exc).__name__}: {exc}")

    # ---- cross-table row count (#53) -------------------------------------- #
    for idx, cfg in plan.cross_rules:
        try:
            name = cfg.kwargs.get("other_table_name", "other")
            if not other_tables or name not in other_tables:
                raise KeyError(
                    f"other_tables[{name!r}] must be passed to validate() for "
                    f"{cfg.expectation_type}"
                )
            if cfg.expectation_type == "expect_table_checksum_to_equal_other_table":
                from great_expectations_ray.functions.contrib_aggregates import (
                    table_checksum,
                )

                ignore = cfg.kwargs.get("ignore_columns")
                self_ck = table_checksum(ds, ignore)
                other_ck = table_checksum(other_tables[name], ignore)
                ok = self_ck == other_ck
                evrs[idx] = ExpectationValidationResult(
                    success=ok,
                    expectation_config=cfg.to_json_dict(),
                    result={"observed_value": {"self": self_ck, "other": other_ck}},
                )
            else:
                other_n = other_tables[name].count()
                ok = row_count == other_n
                evrs[idx] = ExpectationValidationResult(
                    success=ok,
                    expectation_config=cfg.to_json_dict(),
                    result={"observed_value": {"self": row_count, "other": other_n}},
                )
        except Exception as exc:
            fail_evr(idx, cfg, f"{type(exc).__name__}: {exc}")

    # ---- paired-column statistical tests (contrib) ------------------------- #
    for idx, cfg in plan.paired_stat_rules:
        try:
            threshold = cfg.kwargs["p_value_threshold"]
            if cfg.expectation_type.startswith("expect_column_chisquare_simple"):
                from great_expectations_ray.functions.contrib_aggregates import (
                    chisquare_simple,
                )

                r = chisquare_simple(
                    ds, cfg.kwargs["column"], cfg.kwargs["expected_column"]
                )
            else:
                from great_expectations_ray.functions.ks import distributed_ks_2samp

                r = distributed_ks_2samp(
                    ds, cfg.kwargs["column_a"], cfg.kwargs["column_b"]
                )
            p = r["p_value"]
            evrs[idx] = ExpectationValidationResult(
                success=p >= threshold,
                expectation_config=cfg.to_json_dict(),
                result={"observed_value": p, "details": r},
            )
        except Exception as exc:
            fail_evr(idx, cfg, f"{type(exc).__name__}: {exc}")

    # ---- global SQL predicates (scope="table") ----------------------------- #
    # Reference parity: unexpected_rows_expectation.py:138-153 — arbitrary SQL
    # over the WHOLE asset (joins, aggregates, window functions); success =
    # zero returned rows, observed_value = "N unexpected rows".  On Ray this
    # is an explicit, documented materialization: the dataset streams batch
    # by batch into one DuckDB table on the driver (DuckDB spills to disk
    # past its memory limit), every scope='table' rule in the suite shares
    # the single load, and the returned rows are capped at
    # ``partial_unexpected_count`` in the EVR details.
    if plan.global_sql_rules or plan.queried_rules:
        import duckdb

        con = duckdb.connect()
        try:
            total_rows = _stream_into_duckdb(con, ds, "__gxr_asset",
                                             synthesize_empty=True)
            for idx, cfg in plan.global_sql_rules:
                try:
                    sql = cfg.kwargs["unexpected_sql"].replace(
                        "{batch}", "__gxr_asset"
                    )
                    out = con.execute(sql).fetch_arrow_table()
                    n_unexpected = out.num_rows
                    noun = "row" if n_unexpected == 1 else "rows"
                    evrs[idx] = ExpectationValidationResult(
                        success=n_unexpected == 0,
                        expectation_config=cfg.to_json_dict(),
                        result={
                            "observed_value": f"{n_unexpected} unexpected {noun}",
                            "element_count": total_rows,
                            "unexpected_count": n_unexpected,
                            "details": {
                                "unexpected_rows": out.slice(
                                    0, partial_unexpected_count
                                ).to_pylist(),
                            },
                        },
                    )
                except Exception as exc:
                    fail_evr(idx, cfg, f"{type(exc).__name__}: {exc}")
            _registered_other: dict[str, str] = {}

            def register_other(name: str) -> str:
                """Stream an other_tables Dataset into DuckDB once; reuse on
                repeat references (same documented materialization as the
                main asset)."""
                if name in _registered_other:
                    return _registered_other[name]
                if not other_tables or name not in other_tables:
                    raise KeyError(
                        f"other_tables[{name!r}] must be passed to validate()"
                    )
                tname = f"__gxr_other_{len(_registered_other)}"
                _stream_into_duckdb(con, other_tables[name], tname,
                                    synthesize_empty=True)
                _registered_other[name] = tname
                return tname

            for idx, cfg in plan.queried_rules:
                try:
                    from great_expectations_ray.functions.queried import (
                        evaluate_queried_rule,
                    )

                    ok, result = evaluate_queried_rule(
                        con, cfg, "__gxr_asset", register_other
                    )
                    evrs[idx] = ExpectationValidationResult(
                        success=ok,
                        expectation_config=cfg.to_json_dict(),
                        result=result,
                    )
                except Exception as exc:
                    fail_evr(idx, cfg, f"{type(exc).__name__}: {exc}")
        finally:
            con.close()

    results = [evrs[i] for i in sorted(evrs)] if evrs else []
    stats = calc_validation_statistics(results)
    return SuiteValidationResult(
        success=stats["success"],
        results=results,
        statistics=stats,
        suite_name=suite.name,
        meta={"result_format": result_format, "row_count": row_count},
    )


def validate_many(
    ds,
    suites: list[ExpectationSuite],
    *,
    result_format: str | dict = "SUMMARY",
    partial_unexpected_count: int = PARTIAL_UNEXPECTED_COUNT_DEFAULT,
    catch_exceptions: bool = True,
    other_tables: Optional[dict[str, Any]] = None,
) -> dict[str, SuiteValidationResult]:
    """Validate SEVERAL suites against one Dataset in ONE fused pass.

    The reference's checkpoint runs each (batch, suite) validation
    definition separately (checkpoint/checkpoint.py:274-304) — N suites
    over the same asset cost N passes over the data.  Here the suites'
    resolved expectations are concatenated into one synthetic suite,
    :func:`validate` runs once (every rule family shares the single fused
    evaluator pass, shuffle phase, and DuckDB stream), and the per-suite
    results are split back out by index span — ``validate()`` emits exactly
    one EVR per expectation in suite order, so the slices are exact.

    Returns ``{suite.name: SuiteValidationResult}`` with per-suite
    statistics recomputed over the suite's own EVRs (identical to running
    ``validate(ds, suite)`` per suite — pinned by test).
    """
    names = [s.name for s in suites]
    if len(set(names)) != len(names):
        raise ValueError(
            f"validate_many needs distinct suite names, got {names}")
    combined = ExpectationSuite("__validate_many__")
    spans: list[tuple[ExpectationSuite, int, int]] = []
    for s in suites:
        start = len(combined.expectations)
        combined.expectations.extend(s.resolved_expectations())
        spans.append((s, start, len(combined.expectations)))
    res = validate(
        ds, combined,
        result_format=result_format,
        partial_unexpected_count=partial_unexpected_count,
        catch_exceptions=catch_exceptions,
        other_tables=other_tables,
    )
    if len(res.results) != len(combined.expectations):
        raise RuntimeError(
            "validate() returned a result count different from the combined "
            "expectation count — per-suite spans cannot be split")
    out: dict[str, SuiteValidationResult] = {}
    for s, a, b in spans:
        sub = res.results[a:b]
        stats = calc_validation_statistics(sub)
        out[s.name] = SuiteValidationResult(
            success=stats["success"],
            results=sub,
            statistics=stats,
            suite_name=s.name,
            meta=dict(res.meta),
        )
    return out


def _py_key(v: Any) -> Any:
    """A Python key value with every NaN the one ``math.nan`` object, so
    NaNs meet in sets and dicts."""
    return math.nan if v != v else v


def _value_set(cfg: ExpectationConfiguration) -> set:
    return {_py_key(v) for v in cfg.kwargs["value_set"]}


def _finish_vc_rule(
    ds, cfg: ExpectationConfiguration, merged: dict,
    vc_ds_cache: Optional[dict] = None,
) -> ExpectationValidationResult:
    t = cfg.expectation_type
    col = cfg.kwargs["column"]
    vc: ValueCountsState = merged["vcs"].get(col, ValueCountsState())
    if (
        t == "expect_column_quantile_values_to_be_between"
        and cfg.kwargs.get("allow_relative_error")
    ):
        # reference's allow_relative_error knob (column_quantile_values.py:36,
        # SQL-only there).  Two Ray-native recasts:
        #   - a float epsilon -> DKW-sampled quantiles (2 passes), or
        #   - the string "kll" -> ONE-pass mergeable KLL sketch partials
        #     (functions/kll.py; Spark's knob maps to Greenwald-Khanna —
        #     KLL dominates it on space and is mergeable)
        qr = cfg.kwargs["quantile_ranges"]
        are = cfg.kwargs["allow_relative_error"]
        if isinstance(are, str) and are.lower() == "kll":
            from great_expectations_ray.functions.kll import kll_quantiles

            values = kll_quantiles(
                ds, col, qr["quantiles"],
                interpolation=cfg.kwargs.get("interpolation", "nearest"),
            )
        else:
            from great_expectations_ray.functions.quantiles import sampled_quantiles

            values = sampled_quantiles(
                ds, col, qr["quantiles"],
                relative_error=float(are),
                interpolation=cfg.kwargs.get("interpolation", "nearest"),
            )
        oks = [validate_metric_value_between(v, lo, hi)
               for v, (lo, hi) in zip(values, qr["value_ranges"])]
        return ExpectationValidationResult(
            success=all(oks), expectation_config=cfg.to_json_dict(),
            result={"observed_value": {"quantiles": qr["quantiles"], "values": values},
                    "details": {"success_details": oks, "approximate": True}},
        )
    if vc.overflow:
        if ds is None:
            raise ValueError(_overflowed(col))
        if t in ("expect_column_median_to_be_between",
                 "expect_column_quantile_values_to_be_between"):
            # high-cardinality numeric: distributed rank selection — exact,
            # no driver collection (functions/quantiles.py)
            return _finish_quantile_distributed(ds, cfg)
        if t == "expect_column_discrete_entropy_to_be_between":
            # exact distributed entropy: H = ln(n) - (sum c*ln c)/n needs
            # only per-value counts, which reduce through one bucketed
            # exchange to O(buckets) driver rows
            return _finish_entropy_distributed(ds, cfg)
        if t in CONTRIB_AGG_VC_TYPES:
            return _finish_contrib_aggregate(ds, cfg, merged, overflow=True)
        # distinct-set style rules: fully distributed verdict — no driver
        # collection of the grouped keys (reference semantics of
        # column_distinct_values.py:106 hold; observed_value is sampled)
        return _finish_vc_rule_distributed(ds, cfg, merged, vc_ds_cache)
    total, nonnull = merged["counts"].get(col, (0, 0))

    def evr(ok: bool, result: dict) -> ExpectationValidationResult:
        return ExpectationValidationResult(
            success=ok, expectation_config=cfg.to_json_dict(), result=result
        )

    if t in ("expect_column_distinct_values_to_be_in_set",
             "expect_column_distinct_values_to_contain_set",
             "expect_column_distinct_values_to_equal_set"):
        observed = {_py_key(v) for v in vc.values.to_pylist()}
        ok = {"expect_column_distinct_values_to_be_in_set": observed.issubset,
              "expect_column_distinct_values_to_contain_set": observed.issuperset,
              "expect_column_distinct_values_to_equal_set": observed.__eq__,
              }[t](_value_set(cfg))
        return evr(ok, {"observed_value": sorted(observed, key=str)})
    if t == "expect_column_unique_value_count_to_be_between":
        approx = cfg.kwargs.get("approximate")
        if isinstance(approx, str) and approx.lower() == "theta":
            # KMV/theta sketch: deterministic, partitioning-invariant, and
            # the persisted row supports cross-corpus set ops (sketches.py)
            from great_expectations_ray.functions.sketches import theta_sketch_of

            n = int(round(theta_sketch_of(ds, col).estimate()))
        elif approx:
            from great_expectations_ray.functions.sketches import approx_distinct

            n = int(round(approx_distinct(ds, col)))
        else:
            n = len(vc.values)
        ok = validate_metric_value_between(
            n, cfg.kwargs.get("min_value"), cfg.kwargs.get("max_value"),
            cfg.kwargs.get("strict_min", False), cfg.kwargs.get("strict_max", False),
        )
        return evr(ok, {"observed_value": n})
    if t == "expect_column_proportion_of_unique_values_to_be_between":
        prop = (len(vc.values) / nonnull) if nonnull else None
        ok = validate_metric_value_between(
            prop, cfg.kwargs.get("min_value"), cfg.kwargs.get("max_value"),
            cfg.kwargs.get("strict_min", False), cfg.kwargs.get("strict_max", False),
        )
        return evr(ok, {"observed_value": prop})
    if t == "expect_column_most_common_value_to_be_in_set":
        if not len(vc.counts):
            return evr(True, {"observed_value": []})
        top = pa.array(vc.counts == vc.counts.max())
        modes = sorted(map(_py_key, vc.values.filter(top).to_pylist()), key=str)
        # ties -> list (column_most_common_value.py:26); success iff every
        # tied mode is in the allowed set
        ok = all(m in _value_set(cfg) for m in modes)
        ties_okay = cfg.kwargs.get("ties_okay", False)
        if ties_okay and len(modes) > 1:
            ok = any(m in _value_set(cfg) for m in modes)
        return evr(ok, {"observed_value": modes})
    if t == "expect_column_median_to_be_between":
        median = _median_from_vc(vc)
        ok = validate_metric_value_between(
            median, cfg.kwargs.get("min_value"), cfg.kwargs.get("max_value"),
            cfg.kwargs.get("strict_min", False), cfg.kwargs.get("strict_max", False),
        )
        return evr(ok, {"observed_value": median})
    if t == "expect_column_quantile_values_to_be_between":
        qr = cfg.kwargs["quantile_ranges"]
        quantiles = qr["quantiles"]
        ranges = qr["value_ranges"]
        values = _quantile_from_value_counts(
            vc, quantiles, cfg.kwargs.get("interpolation", "nearest")
        )
        oks = [
            validate_metric_value_between(v, lo, hi)
            for v, (lo, hi) in zip(values, ranges)
        ]
        return evr(all(oks), {
            "observed_value": {"quantiles": quantiles, "values": values},
            "details": {"success_details": oks},
        })
    if t == "expect_column_discrete_entropy_to_be_between":
        import math as _math

        # scipy.stats.entropy(value_counts, base) semantics: normalize the
        # counts, H = -sum p*log(p) / log(base); base default = e
        base = float(cfg.kwargs.get("base", _math.e))
        if len(vc.counts):
            c = vc.sorted_view()[1].astype(np.float64)
            n = c.sum()
            h = float((_math.log(n) - (c * np.log(c)).sum() / n) / _math.log(base))
        else:
            h = None
        ok = validate_metric_value_between(
            h, cfg.kwargs.get("min_value"), cfg.kwargs.get("max_value"),
            cfg.kwargs.get("strict_min", False), cfg.kwargs.get("strict_max", False),
        )
        return evr(ok, {"observed_value": h})
    if t in CONTRIB_AGG_VC_TYPES:
        return _finish_contrib_aggregate(ds, cfg, merged, overflow=False)
    raise NotImplementedError(t)


def _finish_contrib_aggregate(
    ds, cfg: ExpectationConfiguration, merged: dict, *, overflow: bool
) -> ExpectationValidationResult:
    """Contrib aggregate ports (functions/contrib_aggregates.py).  Exact path
    reads the fused pass's merged value counts; ``overflow=True`` switches to
    the dedicated distributed computation for that rule."""
    from great_expectations_ray.functions import contrib_aggregates as CA

    t = cfg.expectation_type
    col = cfg.kwargs["column"]
    vc: ValueCountsState = merged["vcs"].get(col, ValueCountsState())
    _, nonnull = merged["counts"].get(col, (0, 0))

    def evr(ok: bool, result: dict) -> ExpectationValidationResult:
        return ExpectationValidationResult(
            success=ok, expectation_config=cfg.to_json_dict(), result=result
        )

    if t == "expect_column_percentile_value_to_be_above":
        q = float(cfg.kwargs["percentile"]) / 100.0
        if overflow:
            v = CA.percentile_linear_distributed(ds, col, q, nonnull)
        else:
            v = CA.percentile_linear_from_vc(vc, [q])[0]
        ok = v is not None and v >= float(cfg.kwargs["value"])
        return evr(ok, {"observed_value": v})

    if t == "expect_column_distinct_values_to_be_continuous":
        if overflow:
            # integer verdict without key collection: continuous iff
            # n_distinct == max - min + 1 (one distinct-count + min/max pass)
            from ray.data.aggregate import Max, Min

            agg = ds.aggregate(Min(col), Max(col))
            vmin, vmax = agg[f"min({col})"], agg[f"max({col})"]
            if vmin is None:
                return evr(True, {"observed_value": "Missing values []"})
            n_distinct = _grouped_value_counts(ds, [col]).count()
            expected_n = int(vmax) - int(vmin) + 1
            ok = n_distinct == expected_n
            return evr(ok, {
                "observed_value": (
                    f"{expected_n - n_distinct} missing values in "
                    f"[{vmin}, {vmax}]" if not ok else "Missing values []"
                )
            })
        ok, missing = CA.continuous_from_distinct(
            vc.values, cfg.kwargs.get("datetime_format")
        )
        return evr(ok, {"observed_value": f"Missing values {missing}"})

    if t in ("expect_day_count_to_be_close_to_equivalent_week_day_mean",
             "expect_day_sum_to_be_close_to_equivalent_week_day_mean"):
        from datetime import datetime as _dt
        from datetime import timedelta as _td

        run_date = cfg.kwargs["run_date"]
        threshold = float(cfg.kwargs.get("threshold", 0.25))
        # weeks_back success key (expect_day_sum...py:192-194): equivalent
        # weekdays are 7*i days back for i in 1..weeks_back (default 4)
        weeks_back = int(cfg.kwargs.get("weeks_back", 4))
        rd_ = _dt.strptime(run_date, "%Y-%m-%d")
        wanted = [
            (rd_ - _td(days=7 * i)).strftime("%Y-%m-%d")
            for i in range(1, weeks_back + 1)
        ] + [run_date]
        if t.startswith("expect_day_sum"):
            # domain column = the summed column; date_column names the
            # grouping date (contrib template {date_column}/{summed_column})
            sum_col = cfg.kwargs.get("summed_column", col)
            date_col = cfg.kwargs.get("date_column", col)
        else:
            sum_col, date_col = None, col
        vals = CA.day_values(ds, date_col, wanted, sum_col)
        v = CA.weekday_mean_verdict(run_date, vals, threshold)
        return evr(v["success"], v["result"])

    if t in ("expect_column_to_have_no_days_missing",
             "expect_column_to_have_no_months_missing"):
        # distinct DATES are bounded by the calendar span regardless of row
        # count or timestamp cardinality — always the dedicated pass
        dates = CA.distinct_dates(ds, col)
        threshold = int(cfg.kwargs["threshold"])
        if t.endswith("days_missing"):
            v = CA.days_missing_verdict(dates, threshold)
        else:
            v = CA.months_missing_verdict(dates, threshold)
        return evr(v["success"], v["result"])

    if t == "expect_column_distribution_to_match_benfords_law":
        if overflow:
            counts, total = CA.benford_digit_counts_distributed(ds, col)
        else:
            counts, total = CA.benford_digit_counts_from_vc(vc)
        v = CA.benford_verdict(counts, total)
        return evr(v["success"], v["result"])

    if t == "expect_column_wasserstein_distance_to_be_less_than":
        raw_values = cfg.kwargs.get("raw_values")
        partition = cfg.kwargs.get("partition")
        if raw_values is not None:
            v_vals, v_w = raw_values, None
        elif partition is not None:
            v_vals, v_w = partition["values"], partition["weights"]
        else:
            raise ValueError("raw_values and partition object cannot both be None!")
        details: dict = {}
        if overflow:
            w, err = CA.wasserstein_binned(ds, col, v_vals, v_w)
            details = {"approximate": True, "max_binning_error": err}
        else:
            w = CA.wasserstein_from_vc(vc, v_vals, v_w)
        ok = validate_metric_value_between(
            w, cfg.kwargs.get("min_value"), cfg.kwargs.get("max_value"),
            cfg.kwargs.get("strict_min", False), cfg.kwargs.get("strict_max", False),
        )
        result = {"observed_value": w}
        if details:
            result["details"] = details
        return evr(ok, result)

    raise NotImplementedError(t)


def _finish_entropy_distributed(
    ds, cfg: ExpectationConfiguration
) -> ExpectationValidationResult:
    """Exact entropy at any cardinality: the column's typed value counts
    (:func:`_grouped_value_counts`, one bucketed exchange) -> per-block
    (sum c*ln c, sum c) partials -> driver combine.  No driver key
    collection."""
    import math as _math

    col = cfg.kwargs["column"]
    base = float(cfg.kwargs.get("base", _math.e))

    def partial(tbl: pa.Table) -> pa.Table:
        c = np.asarray(tbl.column("cnt"), dtype=np.float64)
        return pa.table({"clnc": [float((c * np.log(c)).sum())], "n": [float(c.sum())]})

    parts = _grouped_value_counts(ds, [col]).map_batches(
        partial, batch_format="pyarrow").take_all()
    n = sum(p["n"] for p in parts)
    h = (
        (_math.log(n) - sum(p["clnc"] for p in parts) / n) / _math.log(base)
        if n > 0 else None
    )
    ok = validate_metric_value_between(
        h, cfg.kwargs.get("min_value"), cfg.kwargs.get("max_value"),
        cfg.kwargs.get("strict_min", False), cfg.kwargs.get("strict_max", False),
    )
    return ExpectationValidationResult(
        success=ok, expectation_config=cfg.to_json_dict(),
        result={"observed_value": h, "details": {"distributed": True}},
    )


def _median_from_vc(vc: ValueCountsState) -> Optional[float]:
    """Exact median matching pandas ``Series.median()`` (mean of the two
    middle order statistics for even n)."""
    keys, cnts = vc.sorted_view()
    if not len(keys):
        return None
    cum = np.cumsum(cnts)
    n = int(cum[-1])
    lo = keys[int(np.searchsorted(cum, (n - 1) // 2 + 1))].as_py()
    hi = keys[int(np.searchsorted(cum, n // 2 + 1))].as_py()
    return (float(lo) + float(hi)) / 2.0


def _finish_dist_rule(cfg: ExpectationConfiguration, merged: dict) -> ExpectationValidationResult:
    """#46 KL divergence / #48 chi-square from value-count or histogram
    partials (KL math mirrors the reference's discrete/continuous split,
    ``expect_column_kl_divergence_to_be_less_than.py``; chi-square p-value via
    pure-python regularized incomplete gamma)."""
    import math

    from great_expectations_ray.functions.stats_math import (
        chisquare_test,
        kl_divergence_discrete,
    )

    t = cfg.expectation_type
    po = cfg.kwargs.get("partition_object") or {}
    col = cfg.kwargs["column"]
    vc: ValueCountsState = merged["vcs"][col]
    if vc.overflow:
        raise ValueError(
            f"{t}: column {col!r} has >100k distinct values; a discrete "
            "partition_object comparison is not meaningful there — provide "
            "'bins' for the continuous (histogram) form instead"
        )
    total = int(vc.counts.sum())
    obs_counts = dict(zip(map(_py_key, vc.values.to_pylist()), vc.counts.tolist()))

    if t == "expect_column_kl_divergence_to_be_less_than":
        values = list(po.get("values", []))
        weights = list(po.get("weights", []))
        p_exp = dict(zip(values, weights))
        p_obs = {v: c / total for v, c in obs_counts.items()} if total else {}
        kl = kl_divergence_discrete(p_obs, p_exp)
        threshold = cfg.kwargs.get("threshold")
        ok = threshold is not None and kl < threshold and not math.isinf(kl)
        return ExpectationValidationResult(
            success=ok,
            expectation_config=cfg.to_json_dict(),
            result={"observed_value": None if math.isinf(kl) else kl,
                    "details": {"observed_partition": {
                        "values": sorted(p_obs, key=str),
                        "weights": [p_obs[v] for v in sorted(p_obs, key=str)]}}},
        )

    # chi-square: observed vs expected counts over the expected support
    values = list(po.get("values", []))
    weights = list(po.get("weights", []))
    observed = [obs_counts.get(v, 0) for v in values]
    extra = total - sum(observed)  # observed mass outside expected support
    expected = [w * total for w in weights]
    if extra:
        observed.append(extra)
        expected.append(0.0)
    stat, p = chisquare_test(observed, expected)
    threshold = cfg.kwargs.get("p", 0.05)
    return ExpectationValidationResult(
        success=p > threshold,
        expectation_config=cfg.to_json_dict(),
        result={"observed_value": p, "details": {"chi_squared": stat}},
    )


def _finish_continuous_kl(
    cfg: ExpectationConfiguration, hist_entry: tuple
) -> ExpectationValidationResult:
    """Continuous KL: observed histogram weights vs expected bin weights.
    Mass outside the expected bins -> inf KL unless the partition provides
    ``tail_weights`` (reference tail handling, simplified: two tail buckets)."""
    import math

    counts, below, above, n = hist_entry
    po = cfg.kwargs["partition_object"]
    weights = list(po["weights"])
    tail = po.get("tail_weights")
    kl = 0.0
    if n == 0:
        kl = math.inf
    else:
        obs = [c / n for c in counts]
        exp = list(weights)
        if tail:
            obs = [below / n] + obs + [above / n]
            exp = [tail[0]] + exp + [tail[1]]
        elif below or above:
            kl = math.inf
        if not math.isinf(kl):
            for o, e in zip(obs, exp):
                if o <= 0:
                    continue
                if e <= 0:
                    kl = math.inf
                    break
                kl += o * math.log(o / e)
    threshold = cfg.kwargs.get("threshold")
    ok = threshold is not None and not math.isinf(kl) and kl < threshold
    # observed partition mirrors the reference's KL result details (bins +
    # observed bin weights + observed tail weights) — the data-docs
    # histogram content block renders straight from it
    details = {}
    if n > 0:
        details["observed_partition"] = {
            "bins": list(po["bins"]),
            "weights": [c / n for c in counts],
            "tail_weights": [below / n, above / n],
        }
    return ExpectationValidationResult(
        success=ok,
        expectation_config=cfg.to_json_dict(),
        result={"observed_value": None if math.isinf(kl) else kl,
                **({"details": details} if details else {})},
    )


def _finish_ks_rule(ds, cfg: ExpectationConfiguration, merged) -> ExpectationValidationResult:
    """#47/#49 — real KS tests over the column (stubs in the reference;
    functions/ks.py documents the distributed-exact-D construction)."""
    from great_expectations_ray.functions.ks import (
        bootstrapped_ks_test,
        parameterized_ks_test,
    )

    col = cfg.kwargs["column"]
    _, nonnull = merged["counts"].get(col, (0, 0))
    threshold = float(cfg.kwargs.get("p", cfg.kwargs.get("p_value", 0.05)))
    if cfg.expectation_type == (
        "expect_column_parameterized_distribution_ks_test_p_value_to_be_greater_than"
    ):
        res = parameterized_ks_test(
            ds, col,
            distribution=cfg.kwargs["distribution"],
            params=cfg.kwargs.get("params", {}),
            n=nonnull,
        )
        p = res["p_value"]
        result = {"observed_value": p, "details": {
            "expected_params": cfg.kwargs.get("params", {}),
            "observed_ks_result": [res["ks_statistic"], p],
            "n": res["n"],
        }}
    else:
        res = bootstrapped_ks_test(
            ds, col,
            partition_object=cfg.kwargs["partition_object"],
            n=nonnull,
            bootstrap_samples=int(cfg.kwargs.get("bootstrap_samples") or 100),
            bootstrap_sample_size=int(cfg.kwargs.get("bootstrap_sample_size") or 100),
            seed=int(cfg.kwargs.get("seed", 11)),
        )
        p = res["mean_p_value"]
        result = {"observed_value": p, "details": res}
    return ExpectationValidationResult(
        success=bool(p > threshold),
        expectation_config=cfg.to_json_dict(),
        result=result,
    )


#: driver-side contingency cap — matches the VC overflow convention (100k
#: distinct keys).  Above it the χ²/φ math runs distributed over the cell
#: domain (see _finish_cramers_distributed); the driver never pulls the table.
_CRAMERS_DRIVER_CELL_CAP = 100_000


def _finish_cramers_rule(
    ds, cfg: ExpectationConfiguration,
    max_driver_cells: int = _CRAMERS_DRIVER_CELL_CAP,
) -> ExpectationValidationResult:
    """#50: contingency table via one joint value-count shuffle, Cramér's φ
    on the driver for categorical-sized tables (the reference's own shape is
    driver-side scipy over a pandas crosstab); a high-cardinality pair whose
    distinct-cell count exceeds the cap switches to the distributed path."""
    import math

    a_col, b_col = cfg.kwargs["column_A"], cfg.kwargs["column_B"]
    vc_ds = _grouped_value_counts(ds, [a_col, b_col]).materialize()
    if vc_ds.count() > max_driver_cells:
        return _finish_cramers_distributed(vc_ds, cfg)
    cells = {(_py_key(r["k0"]), _py_key(r["k1"])): r["cnt"] for r in vc_ds.take_all()}
    n = sum(cells.values())
    # a fixed category order keeps the χ² float sum the same in every run
    rows = sorted({k[0] for k in cells}, key=value_order)
    cols = sorted({k[1] for k in cells}, key=value_order)
    if n == 0 or len(rows) < 2 or len(cols) < 2:
        phi = 0.0
    else:
        row_tot: Counter = Counter()
        col_tot: Counter = Counter()
        for (r, c), v in cells.items():
            row_tot[r] += v
            col_tot[c] += v
        chi2 = 0.0
        for r in rows:
            for c in cols:
                e = row_tot[r] * col_tot[c] / n
                o = cells.get((r, c), 0)
                if e > 0:
                    chi2 += (o - e) ** 2 / e
        phi = math.sqrt(chi2 / (n * min(len(rows) - 1, len(cols) - 1)))
    threshold = cfg.kwargs.get("threshold", 0.1)
    return ExpectationValidationResult(
        success=phi < threshold,
        expectation_config=cfg.to_json_dict(),
        result={"observed_value": phi,
                "details": {"n": n, "rows": len(rows), "cols": len(cols)}},
    )


def _finish_cramers_distributed(
    vc_ds, cfg: ExpectationConfiguration,
) -> ExpectationValidationResult:
    """High-cardinality Cramér's φ: χ² from the identity
    ``χ² = n·(Σ_observed o²/(row_tot·col_tot) − 1)`` — the Σe term over ALL
    cells equals n, so only observed cells contribute.  Everything runs over
    the (materialized) joint value-count dataset — |distinct cells| typed
    ``(A, B, cnt)`` rows, never the corpus — as two bucketed passes: one
    keyed on A turns each cell into ``o²/row_tot``, one keyed on B divides
    those by ``col_tot`` and sums; the driver sees one scalar row per
    bucket.  A null is a category (``index_in`` with nulls matching), as the
    SQL oracle's ``GROUP BY``."""
    import math

    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed

    def by_key(tbl: pa.Table, key: str) -> tuple[np.ndarray, np.ndarray, int]:
        # per row: its key's total count; plus the number of distinct keys
        k = tbl.column(key).combine_chunks()
        uniq = pc.unique(k)
        idx = np.asarray(pc.index_in(k, value_set=uniq, skip_nulls=False))
        cnt = np.asarray(pc.cast(tbl.column("cnt"), pa.float64()))
        return cnt, np.bincount(idx, weights=cnt)[idx], len(uniq)

    def row_pass(g: pa.Table) -> pa.Table:
        o, ra, n_a = by_key(g, "k0")
        rows = np.zeros(len(o), dtype=np.int64)
        rows[0] = n_a  # this bucket's distinct A values, counted once
        return pa.table({"k1": g.column("k1"), "cnt": g.column("cnt"),
                         "w": o * o / ra, "rows": rows})

    def col_pass(g: pa.Table) -> pa.Table:
        o, cb, n_b = by_key(g, "k1")
        w = np.asarray(g.column("w"))
        return pa.table({"n": [int(o.sum())], "s": [float((w / cb).sum())],
                         "rows": [int(np.asarray(g.column("rows")).sum())],
                         "cols": [n_b]})

    weighted = grouped_apply_bucketed(vc_ds, ["k0"], row_pass, n_buckets=64)
    parts = grouped_apply_bucketed(weighted, ["k1"], col_pass, n_buckets=64).take_all()
    n = sum(r["n"] for r in parts)
    s = sum(r["s"] for r in parts)
    n_rows = sum(r["rows"] for r in parts)
    n_cols = sum(r["cols"] for r in parts)

    if n == 0 or n_rows < 2 or n_cols < 2:
        phi = 0.0
    else:
        chi2 = max(n * (s - 1.0), 0.0)  # clamp float noise at independence
        phi = math.sqrt(chi2 / (n * min(n_rows - 1, n_cols - 1)))
    threshold = cfg.kwargs.get("threshold", 0.1)
    return ExpectationValidationResult(
        success=phi < threshold,
        expectation_config=cfg.to_json_dict(),
        result={"observed_value": phi,
                "details": {"n": n, "rows": n_rows, "cols": n_cols,
                            "distributed": True}},
    )


def _finish_quantile_distributed(ds, cfg: ExpectationConfiguration) -> ExpectationValidationResult:
    from great_expectations_ray.functions.quantiles import exact_quantiles_distributed

    col = cfg.kwargs["column"]
    t = cfg.expectation_type
    if t == "expect_column_median_to_be_between":
        from great_expectations_ray.functions.quantiles import _sorted_blocks

        sds = _sorted_blocks(ds, col)  # one cast/sort for both interpolations
        lo_hi = exact_quantiles_distributed(ds, col, [0.5, 0.5],
                                            interpolation="lower",
                                            _presorted=sds)
        hi2 = exact_quantiles_distributed(ds, col, [0.5],
                                          interpolation="higher",
                                          _presorted=sds)
        median = None
        if lo_hi[0] is not None:
            median = (float(lo_hi[0]) + float(hi2[0])) / 2.0
        ok = validate_metric_value_between(
            median, cfg.kwargs.get("min_value"), cfg.kwargs.get("max_value"),
            cfg.kwargs.get("strict_min", False), cfg.kwargs.get("strict_max", False),
        )
        return ExpectationValidationResult(
            success=ok, expectation_config=cfg.to_json_dict(),
            result={"observed_value": median},
        )
    qr = cfg.kwargs["quantile_ranges"]
    values = exact_quantiles_distributed(
        ds, col, qr["quantiles"],
        interpolation=cfg.kwargs.get("interpolation", "nearest"),
    )
    oks = [validate_metric_value_between(v, lo, hi)
           for v, (lo, hi) in zip(values, qr["value_ranges"])]
    return ExpectationValidationResult(
        success=all(oks), expectation_config=cfg.to_json_dict(),
        result={"observed_value": {"quantiles": qr["quantiles"], "values": values},
                "details": {"success_details": oks}},
    )


def _finish_vc_rule_distributed(
    ds, cfg: ExpectationConfiguration, merged: dict,
    vc_ds_cache: Optional[dict] = None,
) -> ExpectationValidationResult:
    """High-cardinality (>100k distinct) fallback for distinct-set /
    unique-count / most-common rules: every verdict is computed ON the
    grouped dataset (filtered counts, ``Dataset.count()``, grouped max) —
    the distinct keys are never collected to the driver.  Keys keep the
    column's NATIVE type (``_grouped_value_counts`` single-column path), so
    set membership compares typed values, matching the reference
    (``column_distinct_values.py:106``).  ``observed_value`` is a bounded
    sample where the full set would not fit a result payload."""
    t = cfg.expectation_type
    col = cfg.kwargs["column"]
    total, nonnull = merged["counts"].get(col, (0, 0))
    # materialize once: several verdicts below consume the grouped dataset
    # more than once, and re-executing the lazy DAG would re-shuffle; the
    # cache shares the materialized exchange across rules on the same column
    if vc_ds_cache is not None and col in vc_ds_cache:
        vc_ds = vc_ds_cache[col]
    else:
        vc_ds = _grouped_value_counts(ds, [col]).materialize()
        if vc_ds_cache is not None:
            vc_ds_cache[col] = vc_ds

    def evr(ok: bool, result: dict) -> ExpectationValidationResult:
        result.setdefault("details", {})["distributed"] = True
        return ExpectationValidationResult(
            success=ok, expectation_config=cfg.to_json_dict(), result=result
        )

    def sample_values(d, k: int = MAX_RESULT_RECORDS) -> list:
        return [r["k0"] for r in d.take(k)]

    if t == "expect_column_distinct_values_to_be_in_set":
        allowed = pa.array(list(cfg.kwargs["value_set"]))

        def violators(tbl: pa.Table) -> pa.Table:
            m = pc.is_in(tbl.column("k0"), value_set=allowed)
            return tbl.filter(pc.invert(m))

        bad = vc_ds.map_batches(violators, batch_format="pyarrow").materialize()
        n_bad = bad.count()
        return evr(
            n_bad == 0,
            {"observed_value": sorted(sample_values(bad), key=str),
             "details": {"unexpected_distinct_count": n_bad}},
        )
    if t in ("expect_column_distinct_values_to_contain_set",
             "expect_column_distinct_values_to_equal_set"):
        required = list(cfg.kwargs["value_set"])
        allowed = pa.array(required)

        def members(tbl: pa.Table) -> pa.Table:
            return tbl.filter(pc.is_in(tbl.column("k0"), value_set=allowed))

        # the matching subset is ≤ |value_set| rows — safe to collect
        present = {r["k0"] for r in
                   vc_ds.map_batches(members, batch_format="pyarrow").take_all()}
        contains = set(required).issubset(present)
        if t == "expect_column_distinct_values_to_contain_set":
            return evr(contains, {"observed_value": sorted(present, key=str)})
        n_distinct = vc_ds.count()
        ok = contains and n_distinct == len(set(required))
        return evr(ok, {"observed_value": sorted(present, key=str),
                        "details": {"distinct_count": n_distinct}})
    if t == "expect_column_unique_value_count_to_be_between":
        n = vc_ds.count()
        ok = validate_metric_value_between(
            n, cfg.kwargs.get("min_value"), cfg.kwargs.get("max_value"),
            cfg.kwargs.get("strict_min", False), cfg.kwargs.get("strict_max", False),
        )
        return evr(ok, {"observed_value": n})
    if t == "expect_column_proportion_of_unique_values_to_be_between":
        prop = (vc_ds.count() / nonnull) if nonnull else None
        ok = validate_metric_value_between(
            prop, cfg.kwargs.get("min_value"), cfg.kwargs.get("max_value"),
            cfg.kwargs.get("strict_min", False), cfg.kwargs.get("strict_max", False),
        )
        return evr(ok, {"observed_value": prop})
    if t == "expect_column_most_common_value_to_be_in_set":
        top = vc_ds.max("cnt")

        def eq_top(tbl: pa.Table) -> pa.Table:
            return tbl.filter(pc.equal(tbl.column("cnt"), top))

        modes_ds = vc_ds.map_batches(eq_top, batch_format="pyarrow")
        modes = sorted(sample_values(modes_ds, 1000), key=str)
        ok = all(m in set(cfg.kwargs["value_set"]) for m in modes)
        if cfg.kwargs.get("ties_okay", False) and len(modes) > 1:
            ok = any(m in set(cfg.kwargs["value_set"]) for m in modes)
        return evr(ok, {"observed_value": modes})
    raise NotImplementedError(t)
