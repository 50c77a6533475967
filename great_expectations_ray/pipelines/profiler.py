"""Onboarding profiler — ONE fused streaming pass over a Dataset produces
per-column metrics, and a rule layer turns them into an ExpectationSuite.

Ray-native recast of the reference's rule-based profiler / onboarding data
assistant (``experimental/rule_based_profiler/rule_based_profiler.py:1445``:
domain builders → parameter builders → expectation-configuration builders).
Here the three layers collapse to:

- domain = the dataset schema (numeric / string / temporal columns);
- parameters = one ``map_batches`` pass emitting per-batch partials
  (NumericAggState Chan-merge for numerics, utf8-length min/max for
  strings, a capped exact value set with a HyperLogLog fallback for
  cardinality), merged associatively on the driver;
- configuration builders = ``suggest_suite`` — pure functions from the
  merged profile to ExpectationConfigurations.

The profile pass is a single streaming scan (no shuffle); partials are a
few hundred bytes per (batch, column).  ``profile → suggest_suite →
validate`` round-trips green on the profiled data by construction.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass, field
from typing import Any, Optional

import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.core.suite import ExpectationSuite
from great_expectations_ray.functions.aggregates import NumericAggState
from great_expectations_ray.functions.sketches import HyperLogLog

#: value sets larger than this are dropped from the profile (and no
#: values_in_set expectation is suggested); cardinality falls back to HLL
VALUE_SET_CAP = 50


@dataclass
class ColumnProfile:
    name: str
    dtype: str
    row_count: int = 0
    null_count: int = 0
    agg: Optional[NumericAggState] = None           # numeric columns
    len_min: Optional[int] = None                   # string columns
    len_max: Optional[int] = None
    value_set: Optional[set] = field(default=None)  # None = overflowed
    hll: Optional[HyperLogLog] = None
    kll: Optional[Any] = None                       # KLLSketch, numeric cols

    @property
    def nonnull_count(self) -> int:
        return self.row_count - self.null_count

    def distinct_estimate(self) -> float:
        if self.value_set is not None:
            return float(len(self.value_set))
        return self.hll.estimate() if self.hll else 0.0

    def to_json_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "name": self.name, "dtype": self.dtype,
            "row_count": self.row_count, "null_count": self.null_count,
            "distinct_estimate": round(self.distinct_estimate(), 1),
        }
        if self.agg is not None and self.agg.n:
            d.update(min=self.agg.min, max=self.agg.max,
                     mean=self.agg.mean,
                     stdev=math.sqrt(self.agg.m2 / (self.agg.n - 1)) if self.agg.n > 1 else 0.0)
        if self.kll is not None and self.kll.n:
            q = self.kll.quantiles([0.25, 0.5, 0.75])
            d["quantiles"] = {"p25": q[0], "p50": q[1], "p75": q[2]}
        if self.len_min is not None:
            d.update(len_min=self.len_min, len_max=self.len_max)
        if self.value_set is not None:
            d["value_set"] = sorted(self.value_set, key=lambda v: (v is None, str(v)))
        return d


def _is_numeric(t: pa.DataType) -> bool:
    return pa.types.is_integer(t) or pa.types.is_floating(t) or pa.types.is_decimal(t)


class _ProfilePartial:
    """Per-batch partial profiler — runs inside map_batches."""

    def __call__(self, tbl: pa.Table) -> dict:
        out: dict[str, list] = {"partial": []}
        cols = []
        for name in tbl.column_names:
            col = tbl.column(name)
            t = col.type
            p = ColumnProfile(name=name, dtype=str(t))
            p.row_count = len(col)
            p.null_count = col.null_count
            if _is_numeric(t):
                p.agg = NumericAggState()
                p.agg.update(col if isinstance(col, pa.ChunkedArray) else pa.chunked_array([col]))
                # KLL quantile partial rides the SAME pass (content-derived
                # seed: deterministic for a fixed block layout)
                import numpy as np

                from great_expectations_ray.functions.kll import (
                    KLLSketch,
                    _splitmix64,
                )

                vals = np.asarray(
                    pc.drop_null(pc.cast(col, pa.float64())).combine_chunks()
                )
                if len(vals):
                    p.kll = KLLSketch(
                        200,
                        seed=_splitmix64(
                            len(vals) ^ np.float64(vals[0]).view(np.uint64).item()
                        ),
                    )
                    p.kll.update_many(vals)
            if pa.types.is_string(t) or pa.types.is_large_string(t):
                lens = pc.utf8_length(pc.drop_null(col))
                if len(lens):
                    p.len_min = pc.min(lens).as_py()
                    p.len_max = pc.max(lens).as_py()
            if _is_numeric(t) or pa.types.is_string(t) or pa.types.is_large_string(t) \
                    or pa.types.is_boolean(t):
                uniq = pc.unique(
                    col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
                )
                if len(uniq) <= VALUE_SET_CAP:
                    p.value_set = set(uniq.to_pylist()) - {None}
                else:
                    p.value_set = None
                p.hll = HyperLogLog()
                p.hll.update_column(col)
            cols.append(p)
        # pickle explicitly: a list of dataclasses defeats Arrow's type
        # inference in the returned block; bytes round-trip cleanly
        return {"partial": [pickle.dumps(cols)]}


def _merge_profiles(parts: list[list[ColumnProfile]]) -> dict[str, ColumnProfile]:
    merged: dict[str, ColumnProfile] = {}
    for cols in parts:
        for p in cols:
            m = merged.get(p.name)
            if m is None:
                merged[p.name] = p
                continue
            m.row_count += p.row_count
            m.null_count += p.null_count
            if m.agg is not None and p.agg is not None:
                m.agg.merge(p.agg)
            if p.len_min is not None:
                m.len_min = p.len_min if m.len_min is None else min(m.len_min, p.len_min)
                m.len_max = p.len_max if m.len_max is None else max(m.len_max, p.len_max)
            if m.value_set is None or p.value_set is None:
                m.value_set = None
            else:
                m.value_set |= p.value_set
                if len(m.value_set) > VALUE_SET_CAP:
                    m.value_set = None
            if m.hll is not None and p.hll is not None:
                m.hll.merge(p.hll)
            if p.kll is not None:
                if m.kll is None:
                    m.kll = p.kll
                else:
                    m.kll.merge(p.kll)
    return merged


def profile(ds) -> dict[str, ColumnProfile]:
    """One streaming pass → merged per-column profiles."""
    rows = ds.map_batches(
        _ProfilePartial(), batch_format="pyarrow", zero_copy_batch=True
    ).take_all()
    return _merge_profiles([pickle.loads(r["partial"]) for r in rows])


def suggest_suite(
    profiles: dict[str, ColumnProfile],
    *,
    name: str = "profiled",
    value_set_threshold: int = 20,
) -> ExpectationSuite:
    """Expectation-configuration builder: profile → self-validating suite."""
    suite = ExpectationSuite(name)
    total = max((p.row_count for p in profiles.values()), default=0)
    suite.add("expect_table_row_count_to_be_between", min_value=total, max_value=total)
    suite.add(
        "expect_table_columns_to_match_set", column_set=sorted(profiles), exact_match=True
    )
    for colname in profiles:
        p = profiles[colname]
        suite.add("expect_column_to_exist", column=colname)
        suite.add("expect_column_values_to_be_of_type", column=colname, type_=p.dtype)
        if p.null_count == 0 and p.row_count > 0:
            suite.add("expect_column_values_to_not_be_null", column=colname)
        elif p.row_count > 0 and p.null_count < p.row_count:
            # mostly floor'd to 2 decimals so the suite stays green on the
            # profiled data and tolerates small drift
            frac = p.nonnull_count / p.row_count
            suite.add(
                "expect_column_values_to_not_be_null", column=colname,
                mostly=math.floor(frac * 100) / 100,
            )
        if p.agg is not None and p.agg.n:
            suite.add(
                "expect_column_values_to_be_between", column=colname,
                min_value=p.agg.min, max_value=p.agg.max,
            )
            pad = (p.agg.max - p.agg.min) * 0.05 or abs(p.agg.mean) * 0.05 or 1.0
            suite.add(
                "expect_column_mean_to_be_between", column=colname,
                min_value=p.agg.mean - pad, max_value=p.agg.mean + pad,
            )
            if p.kll is not None and p.kll.n >= 20:
                # the KLL p25/p75 estimates bracket the exact median by
                # construction (their true ranks sit within 25% +- the
                # sketch's ~1% rank error), so the suggestion validates
                # green on its own data
                q25, q75 = p.kll.quantiles([0.25, 0.75])
                suite.add(
                    "expect_column_median_to_be_between", column=colname,
                    min_value=q25, max_value=q75,
                )
        if p.len_min is not None:
            suite.add(
                "expect_column_value_lengths_to_be_between", column=colname,
                min_value=p.len_min, max_value=p.len_max,
            )
        if (
            p.value_set is not None
            and 0 < len(p.value_set) <= value_set_threshold
            and not _is_numeric_dtype(p.dtype)
        ):
            suite.add(
                "expect_column_values_to_be_in_set", column=colname,
                value_set=sorted(p.value_set, key=str),
            )
        if p.value_set is not None and p.nonnull_count:
            suite.add(
                "expect_column_unique_value_count_to_be_between", column=colname,
                min_value=len(p.value_set), max_value=len(p.value_set),
            )
    return suite


def _is_numeric_dtype(dtype: str) -> bool:
    return any(dtype.startswith(k) for k in ("int", "uint", "float", "double", "decimal"))
