"""Aggregate-style contrib-expectation ports (round 3, batch 3).

Each reimplements the observable semantics of a reference contrib module
(cited per function) on the engine's shared partials: the exact path reads
the merged value-count state the fused pass already produced (zero extra
passes); the overflow path is a dedicated distributed computation that never
collects the column to the driver.

- expect_column_percentile_value_to_be_above.py:26-108 — pandas
  ``column.quantile(percentile/100)`` (linear interpolation), success iff
  percentile value >= ``value``
- expect_column_distinct_values_to_be_continuous.py:232-287 — expected set
  is the full integer / daily-date range between observed min and max
- expect_column_to_have_no_days_missing.py:111-140 — missing days between
  min and max distinct dates vs ``threshold`` (the reference's expected set
  is ``range(days_diff)`` — max date excluded — mirrored verbatim)
- expect_column_to_have_no_months_missing.py:142-170 — same for months;
  NOTE the reference computes ``relativedelta(max, min).months`` (the months
  COMPONENT, not total months) — mirrored verbatim, quirk and all
- expect_column_distribution_to_match_benfords_law.py:20-89 — first
  significant digit proportions vs log10(1+1/d), proportion-scale chi
  statistic, success iff stat < 5.071 (observed_value IS the boolean)
- expect_column_wasserstein_distance_to_be_less_than.py:19-37,281-292 —
  scipy.stats.wasserstein_distance between the column and raw_values /
  partition{values,weights}, bounds via validate_metric_value_between
"""

from __future__ import annotations

import math
from datetime import date, datetime, timedelta

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

BENFORD_THRESHOLD = 5.071  # contrib's "90 percent confidence" constant


# --------------------------------------------------------------------------- #
# percentile
# --------------------------------------------------------------------------- #


def percentile_linear_from_vc(vc, qs: list, view=None) -> list:
    """pandas ``Series.quantile(q)`` (linear interpolation) for every ``q``
    in ``qs``, from exact merged value counts: one sorted view
    (``vc.sorted_view()``, or ``view`` when the caller holds it) and one
    cumulative-count array serve all of them (NaN sorts after numbers)."""
    keys, cnts = vc.sorted_view() if view is None else view
    if not len(keys):
        return [None] * len(qs)
    vals = _as_floats(keys)
    cum = np.cumsum(cnts)
    n = int(cum[-1])
    x = np.asarray(qs, dtype=np.float64) * (n - 1)
    lo_t, hi_t = np.floor(x), np.ceil(x)
    v_lo = vals[np.searchsorted(cum, lo_t + 1)]
    v_hi = vals[np.searchsorted(cum, hi_t + 1)]
    return [float(v) for v in v_lo + (x - lo_t) * (v_hi - v_lo)]


def _as_floats(keys: pa.Array) -> np.ndarray:
    """``float(v)`` of every value: a numpy cast for numbers and booleans,
    Python's ``float`` for the rest (decimals, numeric strings; dates
    raise, as ``float`` does)."""
    t = keys.type
    if pa.types.is_integer(t) or pa.types.is_floating(t) or pa.types.is_boolean(t):
        return keys.to_numpy(zero_copy_only=False).astype(np.float64)
    return np.array([float(v) for v in keys.to_pylist()], dtype=np.float64)


def percentile_linear_distributed_multi(ds, column: str, qs: list, n: int) -> list:
    """Linear-interpolated percentiles at any cardinality: TWO vectorized
    rank selections total (functions/quantiles.py binary-searches all ranks
    simultaneously), not two per quantile."""
    from great_expectations_ray.functions.quantiles import (
        _sorted_blocks,
        exact_quantiles_distributed,
    )

    if n == 0:
        return [None] * len(qs)
    sds = _sorted_blocks(ds, column)  # ONE cast/sort shared by both calls
    lows = exact_quantiles_distributed(ds, column, qs, interpolation="lower",
                                       _presorted=sds)
    highs = exact_quantiles_distributed(ds, column, qs,
                                        interpolation="higher",
                                        _presorted=sds)
    out = []
    for q, v_lo, v_hi in zip(qs, lows, highs):
        x = q * (n - 1)
        out.append(float(v_lo + (x - math.floor(x)) * (v_hi - v_lo)))
    return out


def percentile_linear_distributed(ds, column: str, q: float, n: int):
    """Single-quantile convenience wrapper over the vectorized path."""
    return percentile_linear_distributed_multi(ds, column, [q], n)[0]


# --------------------------------------------------------------------------- #
# continuous distinct values
# --------------------------------------------------------------------------- #


def continuous_from_distinct(values: pa.Array, datetime_format: str | None):
    """(success, the first 200 missing values in order) for the
    continuous-distinct contract over a column's distinct values.
    Integers: expected = [min..max]; dates (``datetime_format`` given for
    strings, or a date/timestamp column): expected = every day between min
    and max (expect_column_distinct_values_to_be_continuous.py:232-253)."""
    t = values.type
    if datetime_format is not None and (pa.types.is_string(t) or pa.types.is_large_string(t)):
        ords = [datetime.strptime(x, datetime_format).toordinal()
                for x in values.to_pylist()]

        def render(o: int) -> str:
            return date.fromordinal(o).strftime("%Y-%m-%d")
    elif pa.types.is_date(t) or pa.types.is_timestamp(t):
        ords = [x.toordinal() for x in values.to_pylist()]  # a datetime's own day
        render = date.fromordinal
    else:
        ords = pc.cast(values, pa.int64()).to_numpy(zero_copy_only=False)
        render = int
    ords = np.unique(np.asarray(ords, dtype=np.int64))
    missing: list = []
    limit = 200
    for i in np.flatnonzero(np.diff(ords) > 1):
        if len(missing) >= limit:
            break
        missing.extend(range(int(ords[i]) + 1,
                             min(int(ords[i + 1]), int(ords[i]) + 1 + limit - len(missing))))
    ok = not len(ords) or int(ords[-1]) - int(ords[0]) + 1 == len(ords)
    return ok, [render(o) for o in missing]


# --------------------------------------------------------------------------- #
# missing days / months
# --------------------------------------------------------------------------- #


def distinct_dates(ds, column: str) -> list:
    """Distinct calendar dates of a timestamp/date/string column via map-side
    per-batch uniques -> driver set union (bounded by the calendar span, not
    the row count)."""

    def per_batch(tbl: pa.Table) -> pa.Table:
        col = tbl.column(column).combine_chunks()
        col = col.filter(pc.is_valid(col))
        if pa.types.is_timestamp(col.type):
            d = pc.cast(col, pa.date32())
        elif pa.types.is_date(col.type):
            d = pc.cast(col, pa.date32())
        else:  # strings: take the date prefix
            d = pc.cast(
                pc.utf8_slice_codeunits(pc.cast(col, pa.large_string()), 0, 10),
                pa.string(),
            )
        return pa.table({"d": pc.unique(d)})

    out = ds.select_columns([column]).map_batches(
        per_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    dates: set = set()
    for batch in out.iter_batches(batch_format="pyarrow"):
        for v in batch.column("d").to_pylist():
            if isinstance(v, str):
                v = datetime.strptime(v, "%Y-%m-%d").date()
            dates.add(v)
    return sorted(dates)


def days_missing_verdict(dates: list, threshold: int) -> dict:
    """Mirror of expect_column_to_have_no_days_missing._validate:111-140."""
    if not dates:
        return {"success": True, "result": {"Number of missing days": 0,
                                            "Total unique days": 0,
                                            "Threshold": threshold}}
    min_d, max_d = dates[0], dates[-1]
    days_diff = (max_d - min_d).days
    expected = {min_d + timedelta(days=i) for i in range(days_diff)}
    missing = sorted(expected - set(dates))
    return {
        "success": len(missing) <= threshold,
        "result": {
            "Number of missing days": len(missing),
            "Total unique days": len(dates),
            "Threshold": threshold,
            "Min date": str(min_d),
            "Max date": str(max_d),
        },
    }


def months_missing_verdict(dates: list, threshold: int) -> dict:
    """Mirror of expect_column_to_have_no_months_missing._validate:142-170,
    including the reference's ``relativedelta(...).months`` (component-only)
    quirk."""
    from dateutil.relativedelta import relativedelta

    months = sorted({date(d.year, d.month, 1) for d in dates})
    if not months:
        return {"success": True, "result": {"Number of missing months": 0,
                                            "Total unique months": 0,
                                            "Threshold": threshold}}
    min_m, max_m = months[0], months[-1]
    months_diff = relativedelta(max_m, min_m).months
    expected = {min_m + relativedelta(months=i) for i in range(months_diff)}
    missing = expected - set(months)
    return {
        "success": len(missing) <= threshold,
        "result": {
            "Number of missing months": len(missing),
            "Total unique months": len(months),
            "Threshold": threshold,
            "Min month": str(min_m),
            "Max month": str(max_m),
        },
    }


# --------------------------------------------------------------------------- #
# Benford's law
# --------------------------------------------------------------------------- #


def _first_digit_of_strings(s: pa.Array) -> pa.Array:
    """First significant digit via the string form, matching the contrib's
    ``sig_exp``/``matchFirstDigit`` string arithmetic (zeros and non-numeric
    forms match no digit).  pc.extract_regex returns the FIRST match."""
    hit = pc.extract_regex(pc.cast(s, pa.large_string()), r"(?P<d>[1-9])")
    return pc.struct_field(hit, "d")


def benford_digit_counts_from_vc(vc) -> tuple[np.ndarray, float]:
    """(counts[9], total_nonnull) from merged value counts (exact path):
    each distinct value's first digit (of ``str(abs(v))`` for numbers),
    weighted by its count in one ``np.bincount``."""
    keys = vc.values
    if pa.types.is_boolean(keys.type):
        keys = pc.cast(keys, pa.int8())
    if pa.types.is_integer(keys.type) or pa.types.is_floating(keys.type):
        keys = pc.abs(keys)
    digits = pc.cast(_first_digit_of_strings(pc.cast(keys, pa.string())), pa.int64())
    hit = pc.is_valid(digits)
    counts = np.bincount(np.asarray(digits.filter(hit)) - 1,
                         weights=vc.counts[np.asarray(hit)], minlength=9)
    return counts.astype(np.float64), float(vc.counts.sum())


def benford_digit_counts_distributed(ds, column: str) -> tuple[np.ndarray, float]:
    """One map pass: per-batch 9-bin digit counts + nonnull count -> driver
    sum.  No shuffle, O(#batches * 10) driver rows."""

    def per_batch(tbl: pa.Table) -> pa.Table:
        col = tbl.column(column).combine_chunks()
        col = col.filter(pc.is_valid(col))
        # abs() then string-cast mirrors the contrib's str(abs(num)) parse
        try:
            col = pc.abs(col)
        except pa.lib.ArrowNotImplementedError:
            pass
        digits = _first_digit_of_strings(pc.cast(col, pa.large_string()))
        counts = np.zeros(10, dtype=np.int64)
        counts[9] = len(col)  # nonnull total
        vc = pa.table({"d": digits}).drop_null().group_by(["d"]).aggregate(
            [([], "count_all")]
        )
        for d, c in zip(vc.column("d").to_pylist(), vc.column("count_all").to_pylist()):
            counts[int(d) - 1] = c
        return pa.table({"bin": pa.array(range(10), pa.int8()),
                         "c": pa.array(counts)})

    out = ds.select_columns([column]).map_batches(
        per_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    acc = np.zeros(10, dtype=np.float64)
    for batch in out.iter_batches(batch_format="pyarrow"):
        acc[np.asarray(batch.column("bin"))] += np.asarray(batch.column("c"))
    return acc[:9], float(acc[9])


def benford_verdict(counts: np.ndarray, total: float) -> dict:
    """Proportion-scale chi statistic vs log10(1 + 1/d); success iff
    stat < 5.071 (expect_column_distribution_to_match_benfords_law.py:76-89;
    the contrib's observed_value IS the boolean)."""
    if total <= 0:
        return {"success": False, "result": {"observed_value": False}}
    props = counts / total
    bl = np.array([math.log10(1.0 + 1.0 / d) for d in range(1, 10)])
    stat = float(np.sum((props - bl) ** 2 / bl))
    ok = not stat >= BENFORD_THRESHOLD
    return {"success": ok,
            "result": {"observed_value": ok,
                       "details": {"chi_stat": stat,
                                   "digit_proportions": props.tolist()}}}


# --------------------------------------------------------------------------- #
# day count / sum vs equivalent-weekday mean
# --------------------------------------------------------------------------- #

def day_values(ds, date_col: str, wanted_dates: list[str],
               sum_col: str | None = None) -> dict:
    """{date_str: count-or-sum} for exactly the wanted dates — the map side
    filters to the 5 relevant dates BEFORE the driver sees anything, so the
    result is O(5) regardless of table size or date span
    (expect_day_{count,sum}_to_be_close_to_equivalent_week_day_mean.py
    group-by-Date metrics)."""
    wanted = pa.array(wanted_dates)

    def per_batch(tbl: pa.Table) -> pa.Table:
        col = tbl.column(date_col).combine_chunks()
        col = col.filter(pc.is_valid(col))
        vals = None
        if sum_col is not None:
            vals = tbl.column(sum_col).combine_chunks().filter(
                pc.is_valid(tbl.column(date_col).combine_chunks())
            )
        if pa.types.is_timestamp(col.type) or pa.types.is_date(col.type):
            d = pc.cast(pc.cast(col, pa.date32()), pa.string())
        else:
            d = pc.utf8_slice_codeunits(pc.cast(col, pa.large_string()), 0, 10)
            d = pc.cast(d, pa.string())
        m = pc.is_in(d, value_set=wanted)
        d = d.filter(m)
        if sum_col is None:
            t_ = pa.table({"d": d}).group_by(["d"]).aggregate([([], "count_all")])
            return pa.table({"d": t_.column("d"),
                             "v": pc.cast(t_.column("count_all"), pa.float64())})
        v = pc.cast(vals.filter(m), pa.float64())
        t_ = pa.table({"d": d, "v": v}).group_by(["d"]).aggregate([("v", "sum")])
        return pa.table({"d": t_.column("d"), "v": t_.column("v_sum")})

    cols = [date_col] if sum_col is None else sorted({date_col, sum_col})
    out = ds.select_columns(cols).map_batches(
        per_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    acc: dict = {w: 0.0 for w in wanted_dates}
    for b in out.iter_batches(batch_format="pyarrow"):
        for d, v in zip(b.column("d").to_pylist(), b.column("v").to_pylist()):
            acc[d] = acc.get(d, 0.0) + float(v)
    return acc


def weekday_mean_verdict(run_date: str, day_vals: dict, threshold: float) -> dict:
    """diff = (|run_value - avg_of_prior_equivalent_weekdays| + 1)/(avg + 1);
    success iff diff <= threshold (the +1s are the contrib's zero-average
    guard — expect_day_count_...py:281-300)."""
    run_v = day_vals[run_date]
    prev = [v for d, v in day_vals.items() if d != run_date]
    avg = sum(prev) / len(prev) if prev else 0.0
    diff = (abs(run_v - avg) + 1.0) / (avg + 1.0)
    ok = diff <= threshold
    msg = (
        f"The diff between the run date value ({run_v:g}) and the "
        f"equivalent-weekday average ({avg:g}) is {diff:.0%} "
        f"({'below' if ok else 'above'} the {threshold:.0%} threshold)"
    )
    return {"success": ok,
            "result": {"observed_value": diff, "details": msg}}


# --------------------------------------------------------------------------- #
# simple paired chi-square (observed column vs expected column)
# --------------------------------------------------------------------------- #


def chisquare_simple(ds, observed_col: str, expected_col: str) -> dict:
    """scipy.stats.chisquare(observed, expected) over two columns of the
    same table (expect_column_chisquare_simple_test_p_value_to_be_greater_than
    .py:30-51): chi2 = sum((o-e)^2/e), dof = n_rows - 1, p = chi2 survival.
    Map-side partial sums only — no shuffle.  Rows where either side is null
    are dropped (the contrib's to_list would propagate NaN; documented
    deviation)."""
    from great_expectations_ray.functions.stats_math import chi2_sf

    def per_batch(tbl: pa.Table) -> pa.Table:
        o = np.asarray(pc.cast(tbl.column(observed_col).combine_chunks(),
                               pa.float64()).fill_null(np.nan))
        e = np.asarray(pc.cast(tbl.column(expected_col).combine_chunks(),
                               pa.float64()).fill_null(np.nan))
        m = ~(np.isnan(o) | np.isnan(e))
        o, e = o[m], e[m]
        part = float(np.sum((o - e) ** 2 / e)) if o.size else 0.0
        return pa.table({"chi2": pa.array([part]),
                         "n": pa.array([int(o.size)], pa.int64())})

    out = ds.select_columns(sorted({observed_col, expected_col})).map_batches(
        per_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    chi2 = n = 0
    for b in out.iter_batches(batch_format="pyarrow"):
        chi2 += float(np.sum(np.asarray(b.column("chi2"))))
        n += int(np.sum(np.asarray(b.column("n"))))
    if n < 2:
        raise ValueError("chisquare needs at least 2 paired rows")
    p = chi2_sf(chi2, n - 1)
    return {"chi2": chi2, "p_value": p, "n": n}


# --------------------------------------------------------------------------- #
# table checksum
# --------------------------------------------------------------------------- #


def table_checksum(ds, ignore_columns: str | set | list | None = None) -> int:
    """Order-independent whole-table checksum: per-row hash of the
    string-joined (non-ignored, name-sorted) columns, summed mod 2^64 —
    the distributed analog of the contrib's
    ``sum(FARM_FINGERPRINT(concat(cols)))`` BigQuery query
    (expect_table_checksum_to_equal_other_table.py:135-143).  Map-side only:
    each batch contributes one uint64 partial, no shuffle."""
    from great_expectations_ray.functions.bucketed import poly_hash_strings

    # contrib contract passes ignore_columns as a comma-separated STRING
    # ("columnone, columntwo" — expect_table_checksum...py examples); lists
    # and sets are also accepted
    if isinstance(ignore_columns, str):
        ignore = {c.strip() for c in ignore_columns.split(",") if c.strip()}
    else:
        ignore = set(ignore_columns or ())

    def per_batch(tbl: pa.Table) -> pa.Table:
        cols = sorted(c for c in tbl.column_names if c not in ignore)
        if not cols:
            raise ValueError("no columns left after ignore_columns")
        parts = [
            pc.cast(tbl.column(c).combine_chunks(), pa.string()) for c in cols
        ]
        if len(parts) == 1:
            joined = pc.coalesce(parts[0], pa.scalar("null"))
        else:
            joined = pc.binary_join_element_wise(
                *parts, "|", null_handling="replace", null_replacement="null"
            )
        h = poly_hash_strings(pc.cast(joined, pa.large_string()))
        total = np.sum(h.astype(np.uint64), dtype=np.uint64)
        return pa.table({"h": pa.array([int(total)], pa.uint64()),
                         "n": pa.array([tbl.num_rows], pa.int64())})

    out = ds.map_batches(per_batch, batch_format="pyarrow", zero_copy_batch=True)
    acc = np.uint64(0)
    for batch in out.iter_batches(batch_format="pyarrow"):
        for v in batch.column("h").to_pylist():
            acc = np.uint64((int(acc) + int(v)) % (1 << 64))
    return int(acc)


# --------------------------------------------------------------------------- #
# Wasserstein distance
# --------------------------------------------------------------------------- #


def wasserstein_1d(u_values, v_values, u_weights=None, v_weights=None) -> float:
    """W1 between two weighted 1-D samples — pure-numpy reimplementation of
    the published CDF-difference formula scipy.stats.wasserstein_distance
    uses (scipy is not in this sandbox): merge-sort both supports, integrate
    |U(x) - V(x)| over the gaps."""
    u = np.asarray(u_values, dtype=np.float64)
    v = np.asarray(v_values, dtype=np.float64)
    uw = (np.ones_like(u) if u_weights is None
          else np.asarray(u_weights, dtype=np.float64))
    vw = (np.ones_like(v) if v_weights is None
          else np.asarray(v_weights, dtype=np.float64))
    if u.size == 0 or v.size == 0:
        raise ValueError("empty distribution")
    us = np.argsort(u, kind="mergesort")
    vs = np.argsort(v, kind="mergesort")
    u, uw = u[us], uw[us]
    v, vw = v[vs], vw[vs]
    all_vals = np.concatenate([u, v])
    all_vals.sort(kind="mergesort")
    deltas = np.diff(all_vals)
    # CDF of each sample evaluated at every grid point (right-continuous)
    u_cum = np.concatenate(([0.0], np.cumsum(uw)))
    v_cum = np.concatenate(([0.0], np.cumsum(vw)))
    u_cdf = u_cum[np.searchsorted(u, all_vals[:-1], side="right")] / u_cum[-1]
    v_cdf = v_cum[np.searchsorted(v, all_vals[:-1], side="right")] / v_cum[-1]
    return float(np.sum(np.abs(u_cdf - v_cdf) * deltas))


def wasserstein_from_vc(vc, v_values, v_weights=None) -> float:
    keys, cnts = vc.sorted_view()
    return wasserstein_1d(_as_floats(keys), v_values, cnts, v_weights)


def wasserstein_binned(ds, column: str, v_values, v_weights=None,
                       n_bins: int = 4096) -> tuple[float, float]:
    """High-cardinality path: equal-width histogram (min/max pass + one
    counting pass), mass at bin centres.  Returns (distance, error_bound)
    where the W1 approximation error is at most half the bin width."""
    from ray.data.aggregate import Max, Min

    agg = ds.aggregate(Min(column), Max(column))
    vmin, vmax = agg[f"min({column})"], agg[f"max({column})"]
    if vmin is None:
        raise ValueError("empty column")
    vmin, vmax = float(vmin), float(vmax)
    if vmin == vmax:
        return wasserstein_1d([vmin], v_values, None, v_weights), 0.0
    edges = np.linspace(vmin, vmax, n_bins + 1)

    def per_batch(tbl: pa.Table) -> pa.Table:
        x = np.asarray(pc.cast(tbl.column(column).combine_chunks(), pa.float64()))
        x = x[~np.isnan(x)]
        idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, n_bins - 1)
        counts = np.bincount(idx, minlength=n_bins)
        return pa.table({"bin": pa.array(range(n_bins), pa.int32()),
                         "c": pa.array(counts)})

    out = ds.select_columns([column]).map_batches(
        per_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    acc = np.zeros(n_bins, dtype=np.float64)
    for batch in out.iter_batches(batch_format="pyarrow"):
        acc[np.asarray(batch.column("bin"))] += np.asarray(batch.column("c"))
    centers = (edges[:-1] + edges[1:]) / 2
    mask = acc > 0
    dist = wasserstein_1d(centers[mask], v_values, acc[mask], v_weights)
    return dist, float((edges[1] - edges[0]) / 2)
