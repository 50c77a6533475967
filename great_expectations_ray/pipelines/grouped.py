"""Grouped validation — one suite x EVERY partition of one Dataset, in a
single fused streaming pass.

The reference validates one batch (partition) at a time: a batch definition
slices the asset, then each slice runs the full suite separately
(``datasource/fluent/batch_request.py``, ``checkpoint/checkpoint.py:1`` run
loops).  Validating N month-partitions therefore costs N passes over the
data.  Here the engine's fused per-block evaluator (engine.py
``_PartialEvaluator``) runs per (block, group) sub-table instead: ONE pass
over the corpus emits one pickled partial per (block, group), the driver
merges partials per group (all states are associative), and each group goes
through the engine's own merged-state finisher (engine.py ``_finish_suite``)
— the same GX-shaped ``SuiteValidationResult`` that ``validate`` produces,
row-count semantics, vacuous truth, ``mostly``, partial-unexpected samples
and all.

Scale shape: the corpus streams once; what reaches the driver is bounded by
(#blocks x groups-per-block) partial rows, each a small pickled state
(aggregate moments + capped unexpected samples), never corpus rows.  A
``max_driver_partials`` guard raises with guidance when the key is
high-cardinality — and :func:`validate_grouped_wide` IS that scale path:
the same partials are merged and finished per group inside ONE bucketed
exchange, returning a verdict Dataset (one row per group) the driver never
collects.  Per-group verdicts are pinned equal between the two by test.

Scope: map, aggregate, table, value-count (distinct-set / most-common /
unique-count / median / quantile / entropy, knob-free), single-column
uniqueness, and distribution rules (KL divergence discrete + continuous
histogram, chi-square vs a partition object) — every family whose finish
needs only the merged partials (uniqueness per group = dup rows from the
group's exact value counts; a per-group VC overflow fails that EVR with
guidance).  Two-phase rules (z-scores, outliers) run in NARROW mode: each
group's thresholds derive from its phase-1 merge (engine.py
``_two_phase_rules``, which settles IQR rules from the group's exact value
counts), then :func:`_grouped_two_phase` evaluates every group's unsettled
rules against ITS thresholds in one extra pass (wide mode and the
mergeable state reject them — no per-group second pass there).  Families
that need their own exchange per group (KS tests, cross-table, queried
SQL, ordered, compound uniqueness) raise a clear ValueError; run those
through ``validate`` per slice (ordered checks per group = ``validate``
with partition_by/order_by).
"""

from __future__ import annotations

import pickle
from typing import Any, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.core.results import (
    PARTIAL_UNEXPECTED_COUNT_DEFAULT,
    SuiteValidationResult,
)
from great_expectations_ray.core.suite import ExpectationSuite
from great_expectations_ray.engine import (
    CONTRIB_AGG_VC_TYPES,
    _finish_suite,
    _fold_phase2,
    _merge_partials,
    _PartialEvaluator,
    _result_format_opts,
    _shows_rows,
    _two_phase_rules,
    compile_suite,
)
from great_expectations_ray.stages._per_worker import unsplit_reads

_UNSUPPORTED_FAMILIES = (
    ("ks_rules", "KS tests (per-group exact KS: functions/ks.py "
     "grouped_parameterized_ks)"),
    ("cross_rules", "cross-table"),
    ("global_sql_rules", "table-scope SQL"),
    ("queried_rules", "queried family"),
    ("ordered_rules", "increasing / decreasing (use validate() with "
     "partition_by/order_by for per-group monotonic checks)"),
    ("paired_stat_rules", "paired statistics (chi2 / paired KS)"),
    ("cramers_rules", "Cramér's phi"),
)

#: the wide exchange and the mergeable state cannot run a per-group second
#: pass, so two-phase rules stay narrow-only
_UNSUPPORTED_WIDE = (
    ("two_phase_rules", "two-phase (z-score / outlier; needs a per-group "
     "second pass — supported by validate_grouped, narrow mode)"),
) + _UNSUPPORTED_FAMILIES


def _compile_mergeable(
    suite: ExpectationSuite,
    unsupported: tuple,
    caller: str,
    index_cols: Optional[list[str]] = None,
    include_rows: bool = False,
):
    """Compile ``suite`` for a merged-state finish (``_finish_suite`` with
    ``ds=None``) and build its phase-1 evaluator.  Raises a named
    ValueError for the families and sub-cases merged state cannot finish.
    The evaluator tracks value counts for the plan's VC columns plus
    single-column uniqueness (finished from per-group counts — the engine's
    shuffle phase is per-dataset, not per-group)."""
    plan = compile_suite(suite)
    bad = [label for attr, label in unsupported if getattr(plan, attr)]
    if bad:
        raise ValueError(
            f"{caller} cannot finish these families from merged partials — "
            f"unsupported families in this suite: {', '.join(bad)}. "
            "Run those expectations through validate() per slice.")
    vc_cols = set(plan.vc_columns)
    for _, cfg in plan.unique_rules:
        if cfg.expectation_type != "expect_column_values_to_be_unique":
            raise ValueError(
                "grouped validation supports single-column uniqueness only; "
                f"{cfg.expectation_type} needs the per-dataset shuffle phase "
                "— run it through validate() per slice.")
        vc_cols.add(cfg.kwargs["column"])
    for _, cfg in plan.vc_rules:
        t = cfg.expectation_type
        if t in CONTRIB_AGG_VC_TYPES:
            raise ValueError(
                f"grouped validation does not support {t} (contrib VC rule "
                "with its own finishing pass) — run it through validate() "
                "per slice.")
        if cfg.kwargs.get("allow_relative_error") or cfg.kwargs.get("approximate"):
            raise ValueError(
                f"grouped validation computes {t} EXACTLY from per-group "
                "value counts; drop the allow_relative_error/approximate "
                "knob, or run it through validate() per slice.")
    evaluator = _PartialEvaluator(
        plan.map_rules, plan.agg_columns, plan.count_columns, vc_cols,
        index_cols, hist_specs=plan.hist_specs or None,
        include_rows=include_rows)
    return plan, evaluator


def _norm_by(by) -> tuple[list[str], bool]:
    """Normalize the ``by`` argument: a column name or a list of names
    (multi-column partition keys — the reference's batch definitions
    partition by e.g. year+month).  Returns (columns, single_flag)."""
    if isinstance(by, str):
        return [by], True
    cols = list(by)
    if not cols or not all(isinstance(c, str) for c in cols):
        raise ValueError("by must be a column name or a non-empty list of "
                         "column names")
    return cols, False


def _key_col_names(by_cols: list[str], single: bool) -> list[str]:
    return ["__key"] if single else [f"__key{j}" for j in range(len(by_cols))]


def _partials_by_key(rows, by) -> dict[Any, list[bytes]]:
    """Group ``_GroupedEvaluator`` output rows' partials by group key."""
    by_cols, single = _norm_by(by)
    key_names = _key_col_names(by_cols, single)
    out: dict[Any, list[bytes]] = {}
    for row in rows:
        key = (row[key_names[0]] if single
               else tuple(row[n] for n in key_names))
        out.setdefault(key, []).append(row["partial"])
    return out


class _GroupedEvaluator:
    """Per-block: dictionary-encode the key column(s), run an evaluator on
    each group's sub-table, emit one (key, partial) row per group present in
    the block.  Null keys form their own group (GX has no opinion here; SQL
    GROUP BY semantics).  Multi-column keys combine the per-column dictionary
    codes with one ``np.unique(axis=0)`` — no string concatenation, no
    composite-radix overflow.

    ``evaluators`` is ONE evaluator for every group (phase 1), or a
    ``{group key: evaluator}`` dict (phase 2 of the two-phase family — each
    group gets ITS threshold-baked rules; groups absent from the dict are
    skipped).  Group keys are the column value for a single ``by``, a tuple
    of values for a list.  ``record_schema`` adds a ``schema`` column: the
    block's pickled schema in its first row, null in the others."""

    def __init__(self, by, evaluators, record_schema: bool = False):
        self.by, self.single = _norm_by(by)
        self.key_names = _key_col_names(self.by, self.single)
        self.evaluators = evaluators
        self.record_schema = record_schema

    def __call__(self, tbl: pa.Table) -> pa.Table:
        ncol = len(self.by)
        keys = []
        for c in self.by:
            k = tbl.column(c)
            keys.append(k.combine_chunks() if isinstance(k, pa.ChunkedArray)
                        else k)
        encs = [k.dictionary_encode() for k in keys]
        inds = np.stack(
            [pc.fill_null(e.indices, -1).to_numpy(zero_copy_only=False)
             .astype(np.int64) for e in encs],
            axis=1,
        )
        uniq, inverse = np.unique(inds, axis=0, return_inverse=True)
        inverse = np.asarray(inverse).reshape(-1)
        key_parts: list[list[pa.Array]] = [[] for _ in range(ncol)]
        partials: list[bytes] = []
        for ui in range(len(uniq)):
            kval = tuple(
                None if uniq[ui, j] < 0
                else encs[j].dictionary[int(uniq[ui, j])].as_py()
                for j in range(ncol))
            if self.single:
                kval = kval[0]
            ev = (self.evaluators.get(kval) if isinstance(self.evaluators, dict)
                  else self.evaluators)
            if ev is None:
                continue
            sub = tbl.filter(pa.array(inverse == ui))
            partials.append(ev(sub).column("partial")[0].as_py())
            for j in range(ncol):
                key_parts[j].append(
                    pa.nulls(1, keys[j].type) if uniq[ui, j] < 0
                    else encs[j].dictionary.slice(int(uniq[ui, j]), 1))
        cols = {}
        for j, name in enumerate(self.key_names):
            cols[name] = (pa.concat_arrays(key_parts[j]) if key_parts[j]
                          else pa.nulls(0, keys[j].type))
        cols["partial"] = pa.array(partials, pa.large_binary())
        if self.record_schema:
            schema = pa.schema([(f.name, f.type) for f in tbl.schema])
            cols["schema"] = pa.array(
                [pickle.dumps(schema)] + [None] * (len(partials) - 1)
                if partials else [], pa.large_binary())
        return pa.table(cols)


@unsplit_reads()
def validate_grouped(
    ds,
    suite: ExpectationSuite,
    *,
    by: str | list[str],
    result_format: str | dict = "SUMMARY",
    partial_unexpected_count: int = PARTIAL_UNEXPECTED_COUNT_DEFAULT,
    catch_exceptions: bool = True,
    max_driver_partials: int = 200_000,
) -> dict[Any, SuiteValidationResult]:
    """Validate every ``by``-group of ``ds`` against ``suite`` in ONE pass.

    ``by`` is a column name or a LIST of names (multi-column partition keys,
    e.g. ``["repo", "lang"]`` — the reference's multi-column batch
    definitions).  Returns ``{group_key: SuiteValidationResult}`` — per
    group, the same result ``validate(ds.filter(key == k), suite)`` produces
    for the supported rule families (pinned by tests).  Null keys map to
    ``None`` (single column) / ``None`` tuple elements (multi-column; the
    dict key is a tuple).  ``result_format`` takes the same GX dict form as
    ``validate`` (``include_unexpected_rows``,
    ``unexpected_index_column_names``).
    """
    result_format, partial_unexpected_count, include_rows, index_cols = (
        _result_format_opts(result_format, partial_unexpected_count))
    plan, evaluator = _compile_mergeable(
        suite, _UNSUPPORTED_FAMILIES, "validate_grouped", index_cols,
        include_rows)
    mat = ds.map_batches(
        _GroupedEvaluator(by, evaluator, record_schema=True),
        batch_format="pyarrow", zero_copy_batch=True,
    ).materialize()
    n_partials = mat.count()
    if n_partials > max_driver_partials:
        raise ValueError(
            f"{n_partials} (block x group) partials exceed "
            f"max_driver_partials={max_driver_partials}: the key is too "
            "high-cardinality for per-group suite results on the driver — "
            "use validate_grouped_wide(), which merges and finishes each "
            "group inside ONE bucketed exchange and returns a verdict "
            "Dataset instead of driver-side result objects.")
    rows = mat.take_all()
    merged_by_key = {k: _merge_partials(p)
                     for k, p in _partials_by_key(rows, by).items()}
    # every block with a group records its schema; no group, nothing to finish
    schema = next((pickle.loads(r["schema"]) for r in rows
                   if r["schema"] is not None), pa.schema([]))

    two_phase = (_grouped_two_phase(
        ds, by, plan, merged_by_key, index_cols, include_rows,
        _shows_rows(result_format, index_cols, include_rows))
        if plan.two_phase_rules else {})

    out: dict[Any, SuiteValidationResult] = {}
    for key, merged in merged_by_key.items():
        out[key] = _finish_suite(
            plan, suite, merged, schema,
            result_format=result_format,
            partial_unexpected_count=partial_unexpected_count,
            include_unexpected_rows=include_rows,
            catch_exceptions=catch_exceptions,
            two_phase_states=two_phase.get(key),
        )
        out[key].meta["group_key"] = key
        out[key].meta["group_by"] = by
    return out


def _grouped_two_phase(ds, by: str | list[str], plan, merged_by_key: dict,
                       index_cols: Optional[list[str]] = None,
                       include_rows: bool = False,
                       shows_rows: bool = False) -> dict:
    """Per-group phase 2 for z-score / outlier rules: each group's
    thresholds come from its phase-1 merge (engine.py ``_two_phase_rules``,
    which also settles IQR rules from the group's exact value counts), then
    ONE more pass evaluates every group's unsettled rules against ITS
    thresholds — no pass when every group's rules are settled.  Returns
    {key: {idx: MapPartialState | str}} (str = failure message for that
    rule).  Narrow mode only — the per-group threshold table lives on the
    driver, bounded exactly like the phase-1 partials."""
    rules_by_key: dict[Any, list] = {}
    states: dict[Any, dict] = {}
    for key, merged in merged_by_key.items():
        rules, states[key] = _two_phase_rules(plan, merged, shows_rows=shows_rows)
        if rules:
            rules_by_key[key] = rules
    if not rules_by_key:
        return states

    evaluators = {key: _PartialEvaluator(rules, set(), set(), set(), index_cols,
                                         include_rows=include_rows)
                  for key, rules in rules_by_key.items()}
    p2_by_key = _partials_by_key(
        ds.map_batches(_GroupedEvaluator(by, evaluators),
                       batch_format="pyarrow", zero_copy_batch=True).take_all(),
        by)
    for key, rules in rules_by_key.items():
        _fold_phase2(states[key], rules, _merge_partials(p2_by_key.get(key, [])))
    return states


@unsplit_reads()
def validate_grouped_wide(
    ds,
    suite: ExpectationSuite,
    *,
    by: str | list[str],
    result_format: str | dict = "SUMMARY",
    partial_unexpected_count: int = PARTIAL_UNEXPECTED_COUNT_DEFAULT,
    include_results: bool = False,
    n_buckets: int = 256,
):
    """Grouped validation at UNBOUNDED key cardinality — the wide sibling of
    :func:`validate_grouped`.

    Same one-pass per-(block, group) partials, but instead of pulling them
    to the driver, groups are merged AND finished inside ONE bucketed
    exchange (``functions/bucketed.py grouped_apply_bucketed``): each bucket
    task merges its keys' partials and runs the engine's merged-state
    finisher (engine.py ``_finish_suite``), emitting one verdict row per
    group.  Returns a materialized Ray Dataset of ``(group_key, success,
    evaluated_expectations, successful_expectations,
    unsuccessful_expectations, row_count[, result_json])`` — consume it with
    ``write_parquet`` / ``filter`` like any other Dataset; the driver never
    sees per-group state.  It is materialized so that its read is planned
    inside the call, unsplit (``unsplit_reads``); the verdict rows are
    fewer than the partials the exchange holds anyway.  Per-group verdicts
    are pinned equal to :func:`validate_grouped`'s by test.

    ``include_results=True`` adds the full per-group suite result as a JSON
    column (bounded per group by the suite size and the capped unexpected
    samples)."""
    import json as _json

    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed, key_groups

    result_format, partial_unexpected_count, include_rows, index_cols = (
        _result_format_opts(result_format, partial_unexpected_count))
    plan, evaluator = _compile_mergeable(
        suite, _UNSUPPORTED_WIDE, "validate_grouped_wide", index_cols,
        include_rows)
    # a bucket holds only some blocks' rows: each group's partials carry
    # the schema, and only when a table rule reads it
    evaluator.record_schema = bool(plan.table_rules)
    parts = ds.map_batches(
        _GroupedEvaluator(by, evaluator),
        batch_format="pyarrow", zero_copy_batch=True,
    )

    by_cols, single = _norm_by(by)
    key_names = _key_col_names(by_cols, single)
    # verdict key columns: back-compat "group_key" for a single by; the
    # original column names prefixed "group_" for multi-column keys
    out_names = (["group_key"] if single
                 else [f"group_{c}" for c in by_cols])

    stats = pa.schema([("success", pa.bool_())] + [
        (n, pa.int64()) for n in ("evaluated_expectations", "successful_expectations",
                                  "unsuccessful_expectations", "row_count")]
        + ([("result_json", pa.string())] if include_results else []))

    def finish_bucket(g: pa.Table) -> pa.Table:
        rows = []
        g, bounds = key_groups(g, key_names)
        heads = g.select(key_names).take(bounds[:-1])
        for i, (s, e) in enumerate(zip(bounds[:-1], bounds[1:])):
            key = tuple(heads.column(k)[i].as_py() for k in key_names)
            merged = _merge_partials(g.column("partial").slice(s, e - s).to_pylist())
            svr = _finish_suite(
                plan, suite, merged,
                pa.schema([]) if merged["schema"] is None else merged["schema"],
                result_format=result_format,
                partial_unexpected_count=partial_unexpected_count,
                include_unexpected_rows=include_rows,
            )
            row = {
                "success": bool(svr.success),
                "evaluated_expectations":
                    int(svr.statistics["evaluated_expectations"]),
                "successful_expectations":
                    int(svr.statistics["successful_expectations"]),
                "unsuccessful_expectations":
                    int(svr.statistics["unsuccessful_expectations"]),
                "row_count": int(svr.meta["row_count"]),
            }
            if include_results:
                svr.meta["group_key"] = key[0] if single else list(key)
                svr.meta["group_by"] = by
                row["result_json"] = _json.dumps(svr.to_json_dict(),
                                                 default=str)
            rows.append(row)
        out = pa.Table.from_pylist(rows, schema=stats)
        for j, (name, k) in enumerate(zip(out_names, key_names)):
            out = out.add_column(j, name, heads.column(k))
        return out

    return grouped_apply_bucketed(parts, key_names, finish_bucket,
                                  n_buckets=n_buckets).materialize()
