"""Profile drift detection — compare two dataset profiles (baseline vs
current) and report per-column drift signals.

The monitoring loop a production validation deployment runs: profile each
batch of data as it lands (``pipelines/profiler.py``, one streaming pass),
store the profile, and diff it against the stored baseline.  The reference
ships the storage half as the experimental ``metric_repository``; the
comparison rules here are the standard drift checks:

- ``null_rate_delta``     — absolute change in null fraction;
- ``mean_shift_sigma``    — |Δmean| in baseline-stdev units (numeric);
- ``range_expanded``      — current min/max outside the baseline range;
- ``value_set_jaccard``   — Jaccard similarity of low-cardinality value
  sets (1.0 = identical; None when either side overflowed);
- ``distinct_ratio``      — current/baseline distinct-count estimate.

``drift_report`` is pure driver-side math over two already-computed
profiles (no data touched); ``detect_drift`` wires profile → report."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from great_expectations_ray.pipelines.profiler import ColumnProfile


@dataclass
class ColumnDrift:
    column: str
    signals: dict[str, Any] = field(default_factory=dict)
    flags: list[str] = field(default_factory=list)

    @property
    def drifted(self) -> bool:
        return bool(self.flags)

    def to_json_dict(self) -> dict[str, Any]:
        return {"column": self.column, "signals": self.signals,
                "flags": list(self.flags), "drifted": self.drifted}


def _column_drift(
    base: ColumnProfile,
    cur: ColumnProfile,
    *,
    null_rate_tol: float,
    mean_sigma_tol: float,
    value_set_jaccard_min: float,
    distinct_ratio_band: tuple[float, float],
) -> ColumnDrift:
    d = ColumnDrift(column=base.name)

    d.signals["dtype"] = {"baseline": base.dtype, "current": cur.dtype}
    if base.dtype != cur.dtype:
        # a type change is a harder break than any statistical signal
        d.flags.append("dtype")

    base_null = base.null_count / base.row_count if base.row_count else 0.0
    cur_null = cur.null_count / cur.row_count if cur.row_count else 0.0
    d.signals["null_rate_delta"] = round(cur_null - base_null, 6)
    if abs(cur_null - base_null) > null_rate_tol:
        d.flags.append("null_rate")

    if base.agg is not None and cur.agg is not None and base.agg.n > 1 and cur.agg.n:
        sigma = math.sqrt(base.agg.m2 / (base.agg.n - 1))
        shift = abs(cur.agg.mean - base.agg.mean) / sigma if sigma > 0 else (
            0.0 if cur.agg.mean == base.agg.mean else math.inf
        )
        d.signals["mean_shift_sigma"] = round(shift, 4) if math.isfinite(shift) else None
        if shift > mean_sigma_tol:
            d.flags.append("mean_shift")
        expanded = (cur.agg.min is not None and cur.agg.min < base.agg.min) or (
            cur.agg.max is not None and cur.agg.max > base.agg.max
        )
        d.signals["range_expanded"] = expanded
        if expanded:
            d.flags.append("range")

    if base.value_set is not None and cur.value_set is not None:
        union = base.value_set | cur.value_set
        jac = (len(base.value_set & cur.value_set) / len(union)) if union else 1.0
        d.signals["value_set_jaccard"] = round(jac, 6)
        if jac < value_set_jaccard_min:
            d.flags.append("value_set")
    else:
        d.signals["value_set_jaccard"] = None

    b_est, c_est = base.distinct_estimate(), cur.distinct_estimate()
    if b_est > 0:
        ratio = c_est / b_est
        d.signals["distinct_ratio"] = round(ratio, 4)
        lo, hi = distinct_ratio_band
        if not (lo <= ratio <= hi):
            d.flags.append("distinct_count")
    return d


def drift_report(
    baseline: dict[str, ColumnProfile],
    current: dict[str, ColumnProfile],
    *,
    null_rate_tol: float = 0.01,
    mean_sigma_tol: float = 3.0,
    value_set_jaccard_min: float = 0.8,
    distinct_ratio_band: tuple[float, float] = (0.5, 2.0),
) -> dict[str, Any]:
    """Driver-side diff of two profiles.  Columns present on only one side
    are reported under ``schema_changes``."""
    added = sorted(set(current) - set(baseline))
    removed = sorted(set(baseline) - set(current))
    columns = []
    for name in sorted(set(baseline) & set(current)):
        columns.append(_column_drift(
            baseline[name], current[name],
            null_rate_tol=null_rate_tol,
            mean_sigma_tol=mean_sigma_tol,
            value_set_jaccard_min=value_set_jaccard_min,
            distinct_ratio_band=distinct_ratio_band,
        ))
    return {
        "schema_changes": {"added": added, "removed": removed},
        "columns": [c.to_json_dict() for c in columns],
        "drifted": bool(added or removed or any(c.drifted for c in columns)),
    }


def detect_drift(baseline_ds, current_ds, **tolerances) -> dict[str, Any]:
    """profile both datasets (one streaming pass each) and diff them."""
    from great_expectations_ray.pipelines.profiler import profile

    return drift_report(profile(baseline_ds), profile(current_ds), **tolerances)
