"""Distributed one-sample Kolmogorov-Smirnov machinery.

Backs the two KS expectations the reference snapshot leaves as stubs
(``expectations/core/expect_column_parameterized_distribution_ks_test_p_value_to_be_greater_than.py``
and ``..._bootstrapped_ks_test_...`` — 27-33 LoC shells; SURVEY §2.1 #47/#49):
here they are real.

The KS statistic D = sup_x |ECDF(x) − F(x)| is computed EXACTLY and fully
distributed:

1. one Ray-native ``sort`` of the (single-column, null-filtered) dataset —
   the only shuffle;
2. each batch of the range-partitioned output emits a 5-number summary
   ``(count, min, max, A⁺, A⁻)`` where, with local 1-based index j and
   global n, ``A⁺ = max_j(j/n − F(x_j))`` and ``A⁻ = max_j(F(x_j) − (j−1)/n)``.
   Both one-sided deviations are LINEAR in the batch's unknown global row
   offset c₀ (they shift by ±c₀/n), so the driver only needs the tiny
   per-batch summaries: order them by (min, max), prefix-sum the counts to
   recover each c₀, and take ``D = max_b max(c₀/n + A⁺_b, A⁻_b − c₀/n)``.

Equal values straddling a batch boundary are harmless: every (j, x_j) pair
is a valid term of the one-sided maxima, and the binding terms (last
occurrence for D⁺, first for D⁻) each live entirely in one batch.

The driver-side work is O(#batches); nothing but the sort touches the data
twice.  At 100 TB this is one range-shuffle plus a streaming scan.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.functions.stats_math import (
    gammainc_upper_regularized,
    ks_p_value,
)

_erf_vec = np.frompyfunc(math.erf, 1, 1)


def _erf(x: np.ndarray) -> np.ndarray:
    # math.erf per element (C-speed libm, ~double precision); numpy has no
    # erf kernel and an approximation would poison oracle comparisons.  This
    # runs on the post-sort scan only.
    return _erf_vec(x).astype(np.float64)


def make_cdf(distribution: str, params: dict):
    """Vectorized CDF for a scipy-style (shape, loc, scale) parameterization.

    Supported: norm, uniform, expon, lognorm, chi2, gamma.  (beta is
    omitted — no incomplete-beta in the sandbox; the reference stub supports
    nothing at all.)"""
    loc = float(params.get("loc", 0.0))
    scale = float(params.get("scale", 1.0))
    if scale <= 0:
        raise ValueError("scale must be positive")

    if distribution == "norm":
        def cdf(x):
            z = (np.asarray(x, dtype=np.float64) - loc) / scale
            return 0.5 * (1.0 + _erf(z / math.sqrt(2.0)))
    elif distribution == "uniform":
        def cdf(x):
            z = (np.asarray(x, dtype=np.float64) - loc) / scale
            return np.clip(z, 0.0, 1.0)
    elif distribution == "expon":
        def cdf(x):
            z = (np.asarray(x, dtype=np.float64) - loc) / scale
            return np.where(z > 0, -np.expm1(-np.maximum(z, 0.0)), 0.0)
    elif distribution == "lognorm":
        s = float(params["s"])
        def cdf(x):
            z = (np.asarray(x, dtype=np.float64) - loc) / scale
            out = np.zeros_like(z)
            pos = z > 0
            out[pos] = 0.5 * (1.0 + _erf(np.log(z[pos]) / (s * math.sqrt(2.0))))
            return out
    elif distribution in ("chi2", "gamma"):
        a = float(params["df"]) / 2.0 if distribution == "chi2" else float(params["a"])
        xscale = 2.0 * scale if distribution == "chi2" else scale
        _ginc = np.frompyfunc(
            lambda t: 1.0 - gammainc_upper_regularized(a, t) if t > 0 else 0.0, 1, 1
        )
        def cdf(x):
            z = (np.asarray(x, dtype=np.float64) - loc) / xscale
            return _ginc(np.maximum(z, 0.0)).astype(np.float64)
    else:
        raise ValueError(f"unsupported distribution {distribution!r}")
    return cdf


def piecewise_cdf_from_partition(partition_object: dict):
    """Continuous piecewise-linear CDF from a GX partition_object
    ``{"bins": [b0..bk], "weights": [w1..wk]}`` (reference:
    ``great_expectations/dataset/util.py`` continuous partitions)."""
    bins = np.asarray(partition_object["bins"], dtype=np.float64)
    weights = np.asarray(partition_object["weights"], dtype=np.float64)
    if len(bins) != len(weights) + 1:
        raise ValueError("partition_object: len(bins) must equal len(weights)+1")
    total = weights.sum()
    if total <= 0:
        raise ValueError("partition_object: weights sum to zero")
    cum = np.concatenate(([0.0], np.cumsum(weights / total)))

    def cdf(x):
        x = np.asarray(x, dtype=np.float64)
        idx = np.clip(np.searchsorted(bins, x, side="right") - 1, 0, len(weights) - 1)
        width = bins[idx + 1] - bins[idx]
        frac = np.where(width > 0, (x - bins[idx]) / np.where(width > 0, width, 1.0), 1.0)
        return np.clip(cum[idx] + frac * (cum[idx + 1] - cum[idx]), 0.0, 1.0)

    return cdf


def distributed_ks_statistic(ds, column: str, cdf, n: int) -> float:
    """Exact D = sup|ECDF − F| over ``ds[column]`` (n = nonnull count,
    already known from the engine's fused pass)."""
    if n <= 0:
        raise ValueError("empty column")

    filtered = ds.select_columns([column]).map_batches(
        lambda t: t.filter(pc.is_valid(t.column(column))), batch_format="pyarrow"
    )
    sorted_ds = filtered.sort(column)

    def summarize(tbl: pa.Table) -> pa.Table:
        x = np.asarray(tbl.column(column), dtype=np.float64)
        m = len(x)
        if m == 0:
            return pa.table({"cnt": pa.array([], pa.int64()),
                             "lo": pa.array([], pa.float64()),
                             "hi": pa.array([], pa.float64()),
                             "ap": pa.array([], pa.float64()),
                             "am": pa.array([], pa.float64())})
        f = np.asarray(cdf(x), dtype=np.float64)
        j = np.arange(1, m + 1, dtype=np.float64)
        ap = float(np.max(j / n - f))          # + c0/n at the driver
        am = float(np.max(f - (j - 1.0) / n))  # − c0/n at the driver
        return pa.table({"cnt": pa.array([m], pa.int64()),
                         "lo": pa.array([x[0]]), "hi": pa.array([x[-1]]),
                         "ap": pa.array([ap]), "am": pa.array([am])})

    parts = sorted_ds.map_batches(summarize, batch_format="pyarrow").take_all()
    if not parts:
        raise ValueError("empty column")
    parts.sort(key=lambda r: (r["lo"], r["hi"]))
    d = 0.0
    c0 = 0
    for r in parts:
        d = max(d, c0 / n + r["ap"], r["am"] - c0 / n)
        c0 += r["cnt"]
    if c0 != n:
        raise RuntimeError(f"KS row count drift: sorted {c0} vs counted {n}")
    return d


def parameterized_ks_test(ds, column: str, *, distribution: str, params: dict,
                          n: int) -> dict:
    """(d_statistic, p_value, n) for the column against the named
    distribution."""
    cdf = make_cdf(distribution, params)
    d = distributed_ks_statistic(ds, column, cdf, n)
    return {"ks_statistic": d, "p_value": ks_p_value(d, n), "n": n}


_BASE_SAMPLE_CAP = 100_000


def _systematic_sample(ds, column: str, n: int, cap: int = _BASE_SAMPLE_CAP) -> np.ndarray:
    """Deterministic ≤cap-value sample: every k-th nonnull value within each
    batch (k = ⌈n/cap⌉).  Uniform for unordered blocks; documented
    approximation feeding the bootstrap when n > cap."""
    k = max(1, -(-n // cap))

    def pick(tbl: pa.Table) -> pa.Table:
        x = np.asarray(tbl.column(column).drop_null(), dtype=np.float64)
        return pa.table({column: pa.array(x[::k])})

    parts = ds.select_columns([column]).map_batches(pick, batch_format="pyarrow").take_all()
    return np.array([r[column] for r in parts], dtype=np.float64)


def bootstrapped_ks_test(ds, column: str, *, partition_object: dict, n: int,
                         bootstrap_samples: int = 100,
                         bootstrap_sample_size: int = 100,
                         seed: int = 11) -> dict:
    """Mean bootstrap KS p-value of the column against a continuous
    partition_object (GX v2 dataset-util semantics: resample, KS-test each
    resample against the piecewise-linear partition CDF, average the
    p-values).  Resampling happens on a ≤100k deterministic base sample;
    each bootstrap draws with replacement from it (seeded)."""
    cdf = piecewise_cdf_from_partition(partition_object)
    base = _systematic_sample(ds, column, n)
    if len(base) == 0:
        raise ValueError("empty column")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(base), size=(bootstrap_samples, bootstrap_sample_size))
    samples = np.sort(base[idx], axis=1)
    f = cdf(samples)
    m = bootstrap_sample_size
    j = np.arange(1, m + 1, dtype=np.float64)
    d = np.maximum(
        (j / m - f).max(axis=1), (f - (j - 1.0) / m).max(axis=1)
    )
    pvals = [ks_p_value(float(di), m) for di in d]
    return {
        "mean_p_value": float(np.mean(pvals)),
        "bootstrap_samples": bootstrap_samples,
        "bootstrap_sample_size": bootstrap_sample_size,
        "base_sample_size": int(len(base)),
        "n": n,
    }


def distributed_ks_2samp(ds, column_a: str, column_b: str) -> dict:
    """Exact two-sample KS D between two columns of the same dataset, plus
    the asymptotic Smirnov p-value (contrib
    expect_column_kolmogoro_smirnov_test_p_value_to_be_greater_than.py:30-51
    calls scipy.stats.ks_2samp on the two columns).

    Shape: union both columns into ONE (value, which) stream, one global
    sort, then per sorted batch an offset-linear summary — within a batch,
    |F_a - F_b| = |x + (i_a/n_a - i_b/n_b)| where x is a constant offset the
    driver folds in afterward, so each batch reports only (cnt_a, cnt_b,
    max_d, min_d) and D is exact.  Same trick as the one-sample path above,
    generalized to two counters."""
    def tag(tbl: pa.Table) -> pa.Table:
        a = tbl.column(column_a).combine_chunks()
        b = tbl.column(column_b).combine_chunks()
        a = a.filter(pc.is_valid(a))
        b = b.filter(pc.is_valid(b))
        af = pc.cast(a, pa.float64())
        bf = pc.cast(b, pa.float64())
        return pa.table({
            "v": pa.concat_arrays([af, bf]),
            "w": pa.array(np.concatenate([
                np.zeros(len(af), dtype=np.int8),
                np.ones(len(bf), dtype=np.int8),
            ])),
        })

    tagged = ds.map_batches(tag, batch_format="pyarrow",
                            zero_copy_batch=True)
    return _ks_2samp_from_tagged(tagged)


def distributed_ks_2samp_datasets(ds_a, ds_b, column: str) -> dict:
    """Exact two-sample KS between the SAME column of two datasets — the
    drift-monitoring form (baseline corpus vs current corpus).  Same
    sort + offset-linear machinery as ``distributed_ks_2samp``."""
    def tag_side(side: int):
        def f(tbl: pa.Table) -> pa.Table:
            col = tbl.column(column).combine_chunks()
            col = col.filter(pc.is_valid(col))
            return pa.table({
                "v": pc.cast(col, pa.float64()),
                "w": pa.array(np.full(len(col), side, dtype=np.int8)),
            })

        return f

    tagged = (
        ds_a.select_columns([column])
        .map_batches(tag_side(0), batch_format="pyarrow", zero_copy_batch=True)
        .union(ds_b.select_columns([column])
               .map_batches(tag_side(1), batch_format="pyarrow",
                            zero_copy_batch=True)))
    return _ks_2samp_from_tagged(tagged)


def _ks_2samp_from_tagged(tagged) -> dict:
    """Core: exact D over a (v: float64, w: 0|1) stream."""
    tagged = tagged.materialize()
    n_a = tagged.count() - int(tagged.sum("w") or 0)
    n_b = int(tagged.sum("w") or 0)
    if n_a == 0 or n_b == 0:
        raise ValueError("ks_2samp requires both columns non-empty")
    # secondary key keeps equal values of BOTH samples adjacent; the sup is
    # evaluated AFTER processing all ties at a value (right-continuous ECDFs)
    sorted_ds = tagged.sort(["v", "w"])

    def summarize(tbl: pa.Table) -> pa.Table:
        w = np.asarray(tbl.column("w"))
        m = len(w)
        if m == 0:
            return pa.table({"cnt_a": pa.array([], pa.int64()),
                             "cnt_b": pa.array([], pa.int64()),
                             "lo": pa.array([], pa.float64()),
                             "hi": pa.array([], pa.float64()),
                             "mx": pa.array([], pa.float64()),
                             "mn": pa.array([], pa.float64()),
                             "last_d": pa.array([], pa.float64())})
        v = np.asarray(tbl.column("v"))
        ia = np.cumsum(w == 0)
        ib = np.cumsum(w == 1)
        d_local = ia / n_a - ib / n_b
        # sup only at positions where the VALUE changes: mid-tie evaluations
        # are not points of the merged step functions.  The batch's LAST
        # position is reported separately — it is a valid evaluation point
        # only if the value does not continue into the next sorted batch
        # (the driver checks hi_k == lo_{k+1})
        boundary = np.empty(m, dtype=bool)
        boundary[:-1] = v[1:] != v[:-1]
        boundary[-1] = False
        dl = d_local[boundary]
        mx = float(dl.max()) if dl.size else -np.inf
        mn = float(dl.min()) if dl.size else np.inf
        return pa.table({
            "cnt_a": pa.array([int(ia[-1])]), "cnt_b": pa.array([int(ib[-1])]),
            "lo": pa.array([float(v[0])]), "hi": pa.array([float(v[-1])]),
            "mx": pa.array([mx]), "mn": pa.array([mn]),
            "last_d": pa.array([float(d_local[-1])]),
        })

    parts = sorted_ds.map_batches(summarize, batch_format="pyarrow").take_all()
    parts = [r for r in parts if r["cnt_a"] + r["cnt_b"] > 0]
    parts.sort(key=lambda r: (r["lo"], r["hi"]))
    d = 0.0
    ca = cb = 0
    for i, r in enumerate(parts):
        x = ca / n_a - cb / n_b
        if np.isfinite(r["mx"]):
            d = max(d, abs(x + r["mx"]), abs(x + r["mn"]))
        # the last position of the batch counts only when its value does
        # not continue into the next batch (tie runs may span batches)
        if i + 1 >= len(parts) or parts[i + 1]["lo"] != r["hi"]:
            d = max(d, abs(x + r["last_d"]))
        ca += r["cnt_a"]
        cb += r["cnt_b"]
    if ca != n_a or cb != n_b:
        raise RuntimeError("ks_2samp row count drift")
    from great_expectations_ray.functions.stats_math import ks_2samp_p_asymptotic

    return {"d_statistic": d, "p_value": ks_2samp_p_asymptotic(d, n_a, n_b),
            "n_a": n_a, "n_b": n_b}


def _float_values(col) -> np.ndarray:
    """float64 values, NaN for null; a value that is no number raises."""
    return np.asarray(pc.fill_null(pc.cast(col, pa.float64()), np.nan))


def _coerced_float_values(col) -> np.ndarray:
    """float64 values, NaN for a null or for a value that does not parse as
    a number (each value on its own)."""
    try:
        return _float_values(col)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
        import pandas as pd

        return pd.to_numeric(col.to_pandas(), errors="coerce").to_numpy(
            np.float64, na_value=np.nan)


def _with_keys(g: pa.Table, bounds: np.ndarray, group_cols: list[str],
               stats: dict) -> pa.Table:
    """Each group's key columns (its first row) followed by ``stats``."""
    heads = g.select(group_cols).take(bounds[:-1])
    return pa.table([*heads.columns, *stats.values()], names=[*group_cols, *stats])


def grouped_parameterized_ks(
    ds,
    group_cols: list[str],
    value_col: str,
    *,
    distribution: str,
    params: dict,
    n_buckets: int = 256,
):
    """Exact one-sample KS per GROUP at unbounded group cardinality: rows
    bucket by ``hash(key)`` in ONE exchange, each bucket sorts its groups'
    values (C-level per group) and computes D = sup|ECDF − F| exactly plus
    the Stephens-corrected p-value — the per-group form of
    :func:`parameterized_ks_test`.

    Unlike the partial-state families (pipelines/grouped.py), KS needs the
    group's full order statistics, so group VALUES move through the
    exchange — inherent to an exact per-group test; a group's cost is
    O(its rows log its rows), vectorized.  Empty / all-null groups yield
    null D and p.

    Output: group_cols + ``(n int64, ks_statistic float64, p_value
    float64)``."""
    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed, key_groups

    group_cols = list(group_cols)
    cdf = make_cdf(distribution, params)

    def bucket(g: pa.Table) -> pa.Table:
        g, bounds = key_groups(g, group_cols)
        allv = _coerced_float_values(g.column(value_col))
        ns, ds_, ps = [], [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            vals = allv[s:e]
            vals = np.sort(vals[~np.isnan(vals)])
            n = len(vals)
            ns.append(n)
            if n == 0:
                ds_.append(None)
                ps.append(None)
                continue
            f = np.asarray(cdf(vals), dtype=np.float64)
            j = np.arange(1, n + 1, dtype=np.float64)
            d = float(max((j / n - f).max(), (f - (j - 1) / n).max()))
            ds_.append(d)
            ps.append(ks_p_value(d, n))
        return _with_keys(g, bounds, group_cols, {
            "n": pa.array(ns, pa.int64()), "ks_statistic": pa.array(ds_, pa.float64()),
            "p_value": pa.array(ps, pa.float64())})

    return grouped_apply_bucketed(
        ds.select_columns(group_cols + [value_col]), group_cols, bucket,
        n_buckets=n_buckets)


def grouped_ks_2samp(
    ds_a,
    ds_b,
    group_cols: list[str],
    value_col: str,
    *,
    n_buckets: int = 256,
):
    """Exact two-sample KS per GROUP between two corpora — the per-domain
    drift-monitoring form of :func:`distributed_ks_2samp_datasets`.  Both
    sides are tagged and bucketed by the group key in ONE exchange; each
    bucket computes every group's exact D over the merged order statistics
    (per-group C-level sort + cumulative side counts, sup evaluated at
    value-change points — right-continuous ECDF semantics, ties handled
    like the global operator) and the asymptotic Smirnov p-value.

    Output: group_cols + ``(n_a, n_b int64, d_statistic, p_value float64)``
    — groups empty on EITHER side yield nulls (no drift verdict without
    both samples)."""
    from great_expectations_ray.functions.bucketed import key_groups, tag_sides, two_sided_exchange
    from great_expectations_ray.functions.stats_math import ks_2samp_p_asymptotic

    group_cols = list(group_cols)

    def bucket(a: pa.Table, b: pa.Table) -> pa.Table:
        g = pa.concat_tables([pa.table(
            [t.column(c) for c in group_cols]
            + [pa.array(_float_values(t.column(value_col))),
               pa.array(np.full(t.num_rows, side, dtype=np.int8))],
            names=[*group_cols, "__v", "__side"]) for side, t in ((0, a), (1, b))])
        g, bounds = key_groups(g, group_cols)
        allv, allw = np.asarray(g.column("__v")), np.asarray(g.column("__side"))
        nas, nbs, ds_, ps = [], [], [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            v, w = allv[s:e], allw[s:e]
            ok = ~np.isnan(v)
            v, w = v[ok], w[ok]
            order = np.lexsort((w, v))
            v, w = v[order], w[order]
            n_a = int((w == 0).sum())
            n_b = len(w) - n_a
            nas.append(n_a)
            nbs.append(n_b)
            if n_a == 0 or n_b == 0:
                ds_.append(None)
                ps.append(None)
                continue
            dloc = np.cumsum(w == 0) / n_a - np.cumsum(w == 1) / n_b
            # sup at value-change points + the final position
            boundary = np.empty(len(v), dtype=bool)
            boundary[:-1] = v[1:] != v[:-1]
            boundary[-1] = True
            d = float(np.abs(dloc[boundary]).max())
            ds_.append(d)
            ps.append(ks_2samp_p_asymptotic(d, n_a, n_b))
        return _with_keys(g, bounds, group_cols, {
            "n_a": pa.array(nas, pa.int64()), "n_b": pa.array(nbs, pa.int64()),
            "d_statistic": pa.array(ds_, pa.float64()),
            "p_value": pa.array(ps, pa.float64())})

    cols = group_cols + [value_col]
    return two_sided_exchange(tag_sides(ds_a.select_columns(cols), ds_b.select_columns(cols),
                                        group_cols, n_buckets=n_buckets), bucket)
