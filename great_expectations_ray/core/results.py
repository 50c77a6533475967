"""Validation results — EVR shapes, result formats, suite statistics.

Reproduces the observable result contract of the reference:

- ``_format_map_output`` (``great_expectations/expectations/expectation.py:2605-2752``):
  BOOLEAN_ONLY / BASIC / SUMMARY / COMPLETE field sets; ``unexpected_percent``
  is relative to the NONNULL count (``unexpected_percent_nonmissing``);
  ``partial_unexpected_list`` truncated at ``partial_unexpected_count``
  (default 20, ``expectation_configuration.py:47-69``); COMPLETE's
  ``unexpected_list`` capped at ``MAX_RESULT_RECORDS`` = 200
  (``expectations/metrics/util.py:92``).
- ``_mostly_success`` (``expectation.py:2775-2785``): strict ``>=``.
- Vacuous truth (``expectation.py:2027-2040``): missing counts, empty table,
  or all-null domain => ``success=True``.
- Suite statistics (``validator/validation_statistics.py:11-42``).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional

PARTIAL_UNEXPECTED_COUNT_DEFAULT = 20
MAX_RESULT_RECORDS = 200

RESULT_FORMATS = ("BOOLEAN_ONLY", "BASIC", "SUMMARY", "COMPLETE")


def mostly_success(rows_considered: int, unexpected: int, mostly: float) -> bool:
    """Strict ``>=`` on the success ratio — mirror of ``_mostly_success``."""
    return (float(rows_considered) - float(unexpected)) / float(rows_considered) >= mostly


@dataclass
class MapPartialState:
    """Associative per-block partial for one map-style rule.

    The merge of these across blocks is the Ray analog of the reference's
    summarization metrics family (``map_metric_provider.py:161-226``):
    count = sum, samples = concat-then-truncate, value_counts = merge-by-key.
    """

    element_count: int = 0
    null_count: int = 0
    unexpected_count: int = 0
    # capped samples of unexpected domain values (MAX_RESULT_RECORDS)
    unexpected_values: list[Any] = field(default_factory=list)
    # value -> count of unexpected occurrences (cap by distinct keys)
    unexpected_value_counts: Counter = field(default_factory=Counter)
    # capped list of key tuples identifying unexpected rows (PK-style
    # ``unexpected_index_column_names`` mode, expectation.py:2529-2531)
    unexpected_keys: list[tuple] = field(default_factory=list)
    # capped full-row dicts (``include_unexpected_rows`` result-format flag)
    unexpected_rows: list[dict] = field(default_factory=list)

    def __setstate__(self, state: dict) -> None:
        # a NaN key unpickles as a new float object: make each the one
        # ``math.nan`` again, so NaNs from different blocks count as one value
        self.__dict__.update(state)
        ctr = self.unexpected_value_counts
        if any(v != v for v in ctr):
            self.unexpected_value_counts = Counter()
            for v, c in ctr.items():
                self.unexpected_value_counts[math.nan if v != v else v] += c

    def merge(self, other: "MapPartialState") -> "MapPartialState":
        self.element_count += other.element_count
        self.null_count += other.null_count
        self.unexpected_count += other.unexpected_count
        if len(self.unexpected_values) < MAX_RESULT_RECORDS:
            self.unexpected_values.extend(
                other.unexpected_values[: MAX_RESULT_RECORDS - len(self.unexpected_values)]
            )
        # values already held keep counting; new ones join while under the cap
        held = self.unexpected_value_counts
        for v, c in other.unexpected_value_counts.items():
            if v in held or len(held) < MAX_RESULT_RECORDS:
                held[v] += c
        if len(self.unexpected_keys) < MAX_RESULT_RECORDS:
            self.unexpected_keys.extend(
                other.unexpected_keys[: MAX_RESULT_RECORDS - len(self.unexpected_keys)]
            )
        if len(self.unexpected_rows) < PARTIAL_UNEXPECTED_COUNT_DEFAULT:
            self.unexpected_rows.extend(
                other.unexpected_rows[
                    : PARTIAL_UNEXPECTED_COUNT_DEFAULT - len(self.unexpected_rows)
                ]
            )
        return self


@dataclass
class ExpectationValidationResult:
    """One EVR — mirror of ``core/expectation_validation_result.py:67``."""

    success: bool
    expectation_config: dict[str, Any]
    result: dict[str, Any] = field(default_factory=dict)
    exception_info: dict[str, Any] = field(
        default_factory=lambda: {"raised_exception": False, "exception_message": None}
    )
    rendered_content: Optional[list] = None

    def render(self) -> "ExpectationValidationResult":
        """Attach atomic rendered content — the reference's
        ``ExpectationValidationResult.render()``
        (core/expectation_validation_result.py:187): diagnostic
        observed-value + prescriptive summary via the inline renderer."""
        from great_expectations_ray.pipelines.inline import inline_render

        self.rendered_content = inline_render(self.to_json_dict())
        return self

    def to_json_dict(self) -> dict[str, Any]:
        out = {
            "success": bool(self.success),
            "expectation_config": self.expectation_config,
            "result": self.result,
            "exception_info": self.exception_info,
        }
        if self.rendered_content is not None:
            out["rendered_content"] = self.rendered_content
        return out


def format_map_result(
    *,
    result_format: str,
    partial_unexpected_count: int,
    success: bool,
    state: MapPartialState,
    include_nonnull: bool = True,
    include_unexpected_rows: bool = False,
) -> dict[str, Any]:
    """Assemble the ``result`` dict of a map-expectation EVR.

    Field-for-field mirror of ``_format_map_output`` for the fields our
    engine supports (no ``unexpected_index_query`` — that is SQL-only in the
    reference).  ``include_nonnull=False`` reproduces the pair/multicolumn
    path where the denominator is the filtered row count and missing_* is
    skipped.
    """
    if result_format == "BOOLEAN_ONLY":
        return {}

    element_count = state.element_count
    nonnull_count = element_count - state.null_count
    unexpected_count = state.unexpected_count

    unexpected_percent_total: Optional[float] = None
    unexpected_percent_nonmissing: Optional[float] = None
    missing_percent: Optional[float] = None
    if element_count > 0:
        unexpected_percent_total = unexpected_count / element_count * 100
        missing_percent = state.null_count / element_count * 100
        if nonnull_count > 0:
            unexpected_percent_nonmissing = unexpected_count / nonnull_count * 100

    result: dict[str, Any] = {
        "element_count": element_count,
        "unexpected_count": unexpected_count,
        "unexpected_percent": unexpected_percent_nonmissing
        if include_nonnull
        else unexpected_percent_total,
        "partial_unexpected_list": list(state.unexpected_values[:partial_unexpected_count]),
    }
    if include_nonnull:
        result["missing_count"] = state.null_count
        result["missing_percent"] = missing_percent
        result["unexpected_percent_total"] = unexpected_percent_total
        result["unexpected_percent_nonmissing"] = unexpected_percent_nonmissing

    if include_unexpected_rows:
        # reference: head(partial_unexpected_count) of the unexpected rows
        # (expectation.py:2684-2694)
        result["unexpected_rows"] = list(state.unexpected_rows[:partial_unexpected_count])

    if result_format == "BASIC":
        result.pop("partial_unexpected_list", None)
        result["partial_unexpected_list"] = list(
            state.unexpected_values[:partial_unexpected_count]
        )
        return result

    # SUMMARY and COMPLETE add value-counts and key samples
    result["partial_unexpected_counts"] = [
        {"value": v, "count": c}
        for v, c in sorted(
            state.unexpected_value_counts.items(),
            key=lambda vc: (-vc[1], str(vc[0])),
        )[:partial_unexpected_count]
    ]
    result["partial_unexpected_index_list"] = list(
        state.unexpected_keys[:partial_unexpected_count]
    )
    if result_format == "COMPLETE":
        result["unexpected_list"] = list(state.unexpected_values[:MAX_RESULT_RECORDS])
        result["unexpected_index_list"] = list(state.unexpected_keys[:MAX_RESULT_RECORDS])
    return result


def calc_validation_statistics(results: list[ExpectationValidationResult]) -> dict[str, Any]:
    """Mirror of ``validator/validation_statistics.py:19-42``."""
    evaluated = len(results)
    successful = sum(1 for r in results if r.success)
    unsuccessful = evaluated - successful
    if evaluated == 0:
        success_percent: Optional[float] = None
    else:
        success_percent = successful / evaluated * 100
    return {
        "evaluated_expectations": evaluated,
        "successful_expectations": successful,
        "unsuccessful_expectations": unsuccessful,
        "success_percent": success_percent,
        "success": bool(unsuccessful == 0),
    }


@dataclass
class SuiteValidationResult:
    """Mirror of ``ExpectationSuiteValidationResult``
    (``core/expectation_validation_result.py:414``)."""

    success: bool
    results: list[ExpectationValidationResult]
    statistics: dict[str, Any]
    suite_name: str
    meta: dict[str, Any] = field(default_factory=dict)

    def render(self) -> "SuiteValidationResult":
        """Attach atomic rendered content to every EVR — the reference's
        suite-level ``render()`` loop
        (core/expectation_validation_result.py:508)."""
        for evr in self.results:
            evr.render()
        return self

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "success": bool(self.success),
            "results": [r.to_json_dict() for r in self.results],
            "statistics": self.statistics,
            "suite_name": self.suite_name,
            "meta": self.meta,
        }
