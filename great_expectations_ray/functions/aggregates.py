"""Aggregate metric partials — associative per-block accumulators.

The Ray analog of the reference's ``AGGREGATE_FN`` bundling
(``execution_engine.py:372-469``; Spark single ``df.agg(*aggs)`` trip at
``sparkdf_execution_engine.py:843-915``): ALL aggregate metrics of a suite are
updated from the SAME fused ``map_batches`` pass, one small partial per block,
merged associatively on the driver.

Variance uses Chan/Welford parallel moment combination so stdev(ddof=1)
matches pandas ``Series.std()`` (``column_standard_deviation.py:38``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, ClassVar, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


@dataclass
class NumericAggState:
    """count / sum / min / max / mean / central moments M2-M4 for one
    numeric column.  M3/M4 ride the same associative combine (Pébay 2008,
    "Formulas for Robust, One-Pass Parallel Computation of Covariances and
    Arbitrary-Order Statistical Moments", Sandia SAND2008-6212) so skew /
    kurtosis stay exact under any block split."""

    n: int = 0  # nonnull count
    total: int = 0  # all rows incl. null
    sum: float = 0.0
    min: Any = None
    max: Any = None
    mean: float = 0.0
    m2: float = 0.0
    m3: float = 0.0
    m4: float = 0.0
    #: temporal columns accumulate in epoch int64 ("D" for date32, the
    #: timestamp's own unit otherwise): min/max stay exact ints, the mean and
    #: moments float64; metric() converts min/max/mean back to datetimes so
    #: string bounds compare naturally
    temporal_unit: Optional[str] = None

    def _combine(self, n_b: int, mean_b: float, m2_b: float,
                 m3_b: float, m4_b: float) -> None:
        """Pébay pairwise combine of (self) with a second moment set."""
        if n_b == 0:
            return
        if self.n == 0:
            self.n, self.mean = n_b, mean_b
            self.m2, self.m3, self.m4 = m2_b, m3_b, m4_b
            return
        n_a, mean_a = self.n, self.mean
        m2_a, m3_a, m4_a = self.m2, self.m3, self.m4
        n = n_a + n_b
        d = mean_b - mean_a
        self.m4 = (
            m4_a + m4_b
            + d**4 * n_a * n_b * (n_a * n_a - n_a * n_b + n_b * n_b) / n**3
            + 6.0 * d * d * (n_a * n_a * m2_b + n_b * n_b * m2_a) / (n * n)
            + 4.0 * d * (n_a * m3_b - n_b * m3_a) / n
        )
        self.m3 = (
            m3_a + m3_b
            + d**3 * n_a * n_b * (n_a - n_b) / (n * n)
            + 3.0 * d * (n_a * m2_b - n_b * m2_a) / n
        )
        self.m2 = m2_a + m2_b + d * d * n_a * n_b / n
        self.mean = mean_a + d * n_b / n
        self.n = n

    def update(self, col: pa.ChunkedArray) -> None:
        self.total += len(col)
        t = col.type
        if pa.types.is_date(t) or pa.types.is_timestamp(t):
            # accumulate in epoch int64 (days for date32/64, the column's
            # own unit for timestamps); mean/min/max convert back in metric()
            # tz-aware columns accumulate the same UTC epoch; metric()
            # renders naive UTC datetimes so parsed string bounds compare
            self.temporal_unit = "D" if pa.types.is_date(t) else t.unit
            if pa.types.is_date64(t):
                col = pc.cast(col, pa.date32())
            elif pa.types.is_timestamp(t) and t.tz is not None:
                col = pc.cast(col, pa.timestamp(t.unit))
            if pa.types.is_date32(col.type):
                # date32 has no int cast kernel; its storage IS int32 days
                if isinstance(col, pa.ChunkedArray):
                    col = col.combine_chunks()
                col = col.view(pa.int32())
            ints = pc.drop_null(pc.cast(col, pa.int64()))
            if isinstance(ints, pa.ChunkedArray):
                ints = ints.combine_chunks()
            exact = np.asarray(ints)  # min/max without float64 rounding
            vals = exact.astype(np.float64)
        else:
            vals = exact = np.asarray(
                pc.drop_null(pc.cast(col, pa.float64())).combine_chunks())
        if len(vals) == 0:
            return
        b_mean = float(vals.mean())
        dev = vals - b_mean
        dev2 = dev * dev
        b_min, b_max = exact.min().item(), exact.max().item()
        self.sum += float(vals.sum())
        self.min = b_min if self.min is None else min(self.min, b_min)
        self.max = b_max if self.max is None else max(self.max, b_max)
        self._combine(len(vals), b_mean, float(dev2.sum()),
                      float((dev2 * dev).sum()), float((dev2 * dev2).sum()))

    def merge(self, o: "NumericAggState") -> "NumericAggState":
        self.total += o.total
        self.sum += o.sum
        if o.temporal_unit is not None:
            self.temporal_unit = o.temporal_unit
        if o.min is not None:
            self.min = o.min if self.min is None else min(self.min, o.min)
        if o.max is not None:
            self.max = o.max if self.max is None else max(self.max, o.max)
        self._combine(o.n, o.mean, o.m2, o.m3, o.m4)
        return self

    def _from_epoch(self, v):
        """Epoch value back to a naive UTC datetime per temporal_unit — exact
        for the int min/max, rounded to the unit's resolution for the float
        mean.  ``ns`` returns a ``pandas.Timestamp`` (a datetime subclass)
        because ``datetime`` stops at microseconds."""
        if v is None:
            return None
        if self.temporal_unit == "ns":
            import pandas as pd

            return pd.Timestamp(round(v), unit="ns")
        import datetime as _dt

        us_per_unit = {"D": 86_400_000_000, "s": 1_000_000, "ms": 1_000, "us": 1}
        return (_dt.datetime(1970, 1, 1) + _dt.timedelta(
            microseconds=round(v * us_per_unit[self.temporal_unit])))

    # ---- finalized metrics ------------------------------------------------ #
    def metric(self, name: str) -> Optional[float]:
        if self.temporal_unit is not None and name in (
                "column.mean", "column.min", "column.max"):
            v = {"column.mean": self.mean if self.n else None,
                 "column.min": self.min,
                 "column.max": self.max}[name]
            return self._from_epoch(v)
        if name == "column.mean":
            return self.mean if self.n else None
        if name == "column.sum":
            return self.sum if self.n else None
        if name == "column.min":
            return self.min
        if name == "column.max":
            return self.max
        if name == "column.standard_deviation":
            # sample stdev, ddof=1 (pandas default)
            return math.sqrt(self.m2 / (self.n - 1)) if self.n > 1 else None
        if name == "column_values.nonnull.count":
            return self.n
        if name == "table.row_count":
            return self.total
        if name == "column.custom.skew":
            # scipy.stats.skew defaults (bias=True): g1 = (M3/n)/(M2/n)^1.5;
            # constant column -> None (scipy yields nan there) -> failed EVR
            if self.n == 0 or self.m2 <= 0:
                return None
            return (self.m3 / self.n) / (self.m2 / self.n) ** 1.5
        if name == "column.custom.kurtosis":
            # scipy.stats.kurtosis defaults (Fisher=True, bias=True):
            # (M4/n)/(M2/n)^2 - 3
            if self.n == 0 or self.m2 <= 0:
                return None
            return (self.m4 / self.n) / (self.m2 / self.n) ** 2 - 3.0
        raise KeyError(name)


def validate_metric_value_between(
    metric_value: Any,
    min_value: Any = None,
    max_value: Any = None,
    strict_min: bool = False,
    strict_max: bool = False,
) -> bool:
    """Mirror of ``_validate_metric_value_between`` (``expectation.py:1587-1657``):
    ``None`` bound = unbounded; ``None``/NaN metric => failure; ``strict_*``
    toggles ``>``/``>=``; datetime-string bounds parsed with dateutil."""
    if metric_value is None:
        return False
    if isinstance(metric_value, float) and math.isnan(metric_value):
        return False

    def parse(b):
        if isinstance(b, str) and not isinstance(metric_value, str):
            from dateutil import parser as _p

            try:
                return _p.parse(b)
            except (ValueError, OverflowError):
                return b
        return b

    lo, hi = parse(min_value), parse(max_value)
    if lo is not None:
        if strict_min:
            if not metric_value > lo:
                return False
        elif not metric_value >= lo:
            return False
    if hi is not None:
        if strict_max:
            if not metric_value < hi:
                return False
        elif not metric_value <= hi:
            return False
    return True


#: aggregate expectation -> (metric name, needs-distinct flag)
AGG_EXPECTATIONS: dict[str, str] = {
    "expect_column_mean_to_be_between": "column.mean",
    "expect_column_sum_to_be_between": "column.sum",
    "expect_column_min_to_be_between": "column.min",
    "expect_column_max_to_be_between": "column.max",
    "expect_column_stdev_to_be_between": "column.standard_deviation",
    # contrib ports (expect_column_skew_to_be_between.py:34-41,
    # expect_column_kurtosis_to_be_between.py:22-26): exact under any block
    # split via the Pébay M3/M4 combine above
    "expect_column_skew_to_be_between": "column.custom.skew",
    "expect_column_kurtosis_to_be_between": "column.custom.kurtosis",
    # contrib: exact sum equality (expect_column_sum_to_be.py:51-60)
    "expect_column_sum_to_be": "column.sum",
    # contrib: D'Agostino-Pearson omnibus p from the exact distributed
    # moments (expect_column_values_to_be_normally_distributed.py:25-26;
    # engine computes the p in its finish from n/skew/kurtosis)
    "expect_column_values_to_be_normally_distributed": "column.custom.skew",
}


def canonical_keys(arr: pa.Array | pa.ChunkedArray) -> pa.Array | pa.ChunkedArray:
    """Float keys as DuckDB ``GROUP BY`` and pandas ``duplicated`` compare
    them: ``-0.0`` becomes ``0.0`` and every NaN one NaN (Arrow hashes a
    float by its bits, so it would keep them apart).  Other types pass
    through unchanged."""
    t = arr.type
    if not (pa.types.is_float32(t) or pa.types.is_float64(t)):
        return arr
    return pc.if_else(pc.is_nan(arr), pa.scalar(math.nan, t),
                      pc.add(arr, pa.scalar(0.0, t)))


def value_order(v: Any) -> tuple:
    """Sort key for the values of one column: values ascending, then NaN,
    then null (DuckDB's ``ORDER BY`` and Arrow's sort)."""
    missing = v is None or v != v
    return (missing, v is None, 0 if missing else v)


@dataclass
class ValueCountsState:
    """Exact value counts of one column: its distinct non-null values as one
    typed Arrow array (float keys canonical, :func:`canonical_keys`) and
    their int64 counts.  Backs the distinct-set, most-common, unique-count,
    median, quantile, entropy and distribution expectations.

    Meant for columns of bounded cardinality (flags, categories, prices):
    past ``CAP`` distinct values the state keeps only ``overflow``, and the
    engine takes its distributed paths instead."""

    values: pa.Array = field(default_factory=lambda: pa.nulls(0))
    counts: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    overflow: bool = False
    CAP: ClassVar[int] = 100_000

    @classmethod
    def of(cls, col: pa.Array | pa.ChunkedArray) -> "ValueCountsState":
        """One block's counts: one ``value_counts``, nulls dropped."""
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        vc = pc.value_counts(canonical_keys(col))
        vals, cnts = vc.field("values"), vc.field("counts")
        if vals.null_count:
            valid = pc.is_valid(vals)
            vals, cnts = vals.filter(valid), cnts.filter(valid)
        if len(vals) > cls.CAP:
            return cls(overflow=True)
        return cls(vals, cnts.to_numpy())

    @classmethod
    def merge_all(cls, parts: list["ValueCountsState"]) -> "ValueCountsState":
        """The counts of all ``parts`` in one hash pass: their values
        concatenated, one ``dictionary_encode`` and one ``np.bincount`` of
        the counts.  Block types unify permissively (``int32``/``int64``,
        ``string``/``large_string``, ``int64``/``double``); a TypeError
        names both types when they do not."""
        if any(p.overflow for p in parts):
            return cls(overflow=True)
        live = [p for p in parts if len(p.values)]
        if len(live) < 2:
            return live[0] if live else cls()
        typ = live[0].values.type
        try:
            if any(p.values.type != typ for p in live):
                typ = pa.unify_schemas([pa.schema([("v", p.values.type)]) for p in live],
                                       promote_options="permissive").field("v").type
            values = pa.concat_arrays([p.values if p.values.type == typ
                                       else p.values.cast(typ) for p in live])
        except (pa.ArrowTypeError, pa.ArrowInvalid):
            names = sorted({str(p.values.type) for p in live})
            raise TypeError(f"value types {' and '.join(names)} do not unify exactly") from None
        enc = pc.dictionary_encode(values)
        if len(enc.dictionary) > cls.CAP:
            return cls(overflow=True)
        counts = np.bincount(enc.indices.to_numpy(),
                             weights=np.concatenate([p.counts for p in live]),
                             minlength=len(enc.dictionary))
        return cls(enc.dictionary, counts.astype(np.int64))

    def sorted_view(self) -> tuple[pa.Array, np.ndarray]:
        """The distinct values in value order (NaN after numbers, as
        :func:`value_order`) and their counts, from one ``sort_indices``."""
        order = pc.sort_indices(self.values)
        return self.values.take(order), self.counts[np.asarray(order)]

