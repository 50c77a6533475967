"""Distributed exact quantiles for high-cardinality numeric columns.

The engine's default quantile path merges exact value counts (fine when
distinct values <= 100k).  Above that, collecting values is not an option at
corpus scale; instead we use **histogram-refined rank selection**: sort each
block once, then shrink every target rank's value interval by a
4096-bin histogram pass (one zero-copy ``searchsorted`` sweep per pass, no
shuffle, no driver materialization beyond O(#blocks x #edges) count
vectors) until float64 resolution — <=6 passes where per-bit bisection
needed ~64 — then snap to the actual data value.  Exact for any
cardinality.

Invariant per target rank t (0-based): F(lo) < t+1 <= F(hi) where
F(v) = #values <= v.  The t-th order statistic is the unique data value in
(lo, hi] once the interval is below the data's float resolution; the final
pass takes the smallest data value strictly greater than lo.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _count_le_pass(ds, column: str, thresholds: np.ndarray) -> tuple[np.ndarray, int]:
    """One streaming pass: (#values <= t for each threshold, total nonnull)."""
    th = np.asarray(thresholds, dtype=np.float64)

    def partial(tbl: pa.Table) -> pa.Table:
        vals = np.asarray(
            pc.drop_null(pc.cast(tbl.column(column), pa.float64())).combine_chunks()
        )
        if len(vals):
            sv = np.sort(vals)
            counts = np.searchsorted(sv, th, side="right")
        else:
            counts = np.zeros(len(th), dtype=np.int64)
        return pa.table({
            "c": pa.array(counts.astype(np.int64)),
            "i": pa.array(np.arange(len(th), dtype=np.int64)),
            "n": pa.array(np.full(len(th), len(vals), dtype=np.int64)),
        })

    totals = np.zeros(len(th), dtype=np.int64)
    n = 0
    for r in ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True).take_all():
        totals[r["i"]] += r["c"]
        if r["i"] == 0:
            n += r["n"]
    return totals, n


def sampled_quantiles(
    ds,
    column: str,
    quantiles: list[float],
    *,
    relative_error: float = 0.01,
    interpolation: str = "lower",
    confidence_delta: float = 0.02,
) -> list:
    """Approximate quantiles with a bounded RANK error (the reference's
    ``allow_relative_error`` knob, SQL-only there): a deterministic
    evenly-spaced row sample of size ~ln(2/δ)/(2ε²) (DKW inequality) is
    collected in one pass and quantiled on the driver.  Two passes total
    (count + sample) vs ~8 for the exact rank-selection path."""
    import math

    n = ds.count()
    if n == 0:
        return [None] * len(quantiles)
    target = min(n, int(math.ceil(math.log(2.0 / confidence_delta) / (2 * relative_error**2))))
    rate = target / n

    def sample(tbl: pa.Table) -> pa.Table:
        vals = np.asarray(
            pc.drop_null(pc.cast(tbl.column(column), pa.float64())).combine_chunks()
        )
        k = int(math.ceil(len(vals) * rate))
        if k <= 0 or len(vals) == 0:
            return pa.table({"v": pa.array([], pa.float64())})
        idx = np.linspace(0, len(vals) - 1, num=k).astype(np.int64)
        return pa.table({"v": pa.array(vals[idx])})

    rows = ds.map_batches(sample, batch_format="pyarrow", zero_copy_batch=True).take_all()
    sv = np.sort(np.array([r["v"] for r in rows], dtype=np.float64))
    if len(sv) == 0:
        return [None] * len(quantiles)
    out = []
    for q in quantiles:
        x = q * (len(sv) - 1)
        if interpolation == "lower":
            i = int(np.floor(x))
        elif interpolation == "higher":
            i = int(np.ceil(x))
        else:
            i = int(np.round(x))
        out.append(float(sv[i]))
    return out


def _sorted_blocks(ds, column: str):
    """Materialize the column as per-block SORTED float64 arrays (one
    ``v`` column, nulls dropped, sorted within each block — no global
    order).  Every subsequent rank-selection pass is then a zero-copy
    ``searchsorted`` over presorted data: no per-pass cast / null-drop /
    sort.  Cost: one full read + sort; payload: 8 bytes x nonnull rows in
    the object store (column-pruned, spillable) — the single-column float
    copy is the scale price of O(1) further passes."""

    def to_sorted(tbl: pa.Table) -> pa.Table:
        vals = np.asarray(
            pc.drop_null(pc.cast(tbl.column(column), pa.float64())).combine_chunks()
        )
        # NaN is not null in Arrow: drop it here too, else a block's sorted
        # max is NaN and the stats/refinement passes silently corrupt
        # (matches the engine's numeric-aggregate NaN convention).  -0.0
        # canonicalizes to +0.0 (x + 0.0) so data keys have a single zero
        # and float order == key order on every stored value.
        vals = vals[~np.isnan(vals)] + 0.0
        return pa.table({"v": pa.array(np.sort(vals))})

    return ds.select_columns([column]).map_batches(
        to_sorted, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()


def _sorted_stats(sds) -> tuple[float | None, float, int]:
    """(vmin, vmax, n_nonnull) from sorted blocks — one cheap pass (block
    min/max are the first/last elements)."""

    def stats(tbl: pa.Table) -> pa.Table:
        v = np.asarray(tbl.column("v").combine_chunks())
        if len(v) == 0:
            return pa.table({"lo": pa.array([], pa.float64()),
                             "hi": pa.array([], pa.float64()),
                             "n": pa.array([], pa.int64())})
        return pa.table({"lo": pa.array([float(v[0])]),
                         "hi": pa.array([float(v[-1])]),
                         "n": pa.array([len(v)], pa.int64())})

    vmin, vmax, n = np.inf, -np.inf, 0
    for r in sds.map_batches(stats, batch_format="pyarrow",
                             zero_copy_batch=True).take_all():
        vmin, vmax, n = min(vmin, r["lo"]), max(vmax, r["hi"]), n + r["n"]
    if n == 0:
        return None, np.nan, 0
    return vmin, vmax, n


def _counts_le(sv: np.ndarray, e: np.ndarray) -> np.ndarray:
    """#values per threshold with KEY(value) <= KEY(threshold) over a
    float-sorted, -0.0-free array.  Equals ``searchsorted(side="right")``
    except at a -0.0 threshold (a key strictly below +0.0), where the
    zeros must NOT count — float comparison cannot see the difference, so
    that case drops to ``side="left"`` at 0.0."""
    counts = np.searchsorted(sv, e, side="right").astype(np.int64)
    neg_zero = (e == 0.0) & np.signbit(e)
    if neg_zero.any():
        counts[neg_zero] = np.searchsorted(sv, 0.0, side="left")
    return counts


def _edge_counts_pass(sds, edges: np.ndarray) -> np.ndarray:
    """F(edge) = #values with key <= key(edge), for every edge, in ONE pass
    over the presorted blocks — each block emits a single row carrying its
    count vector (list<int64>), so the driver pull is O(#blocks x #edges)."""
    e = np.asarray(edges, dtype=np.float64)

    def partial(tbl: pa.Table) -> pa.Table:
        v = np.asarray(tbl.column("v").combine_chunks())
        return pa.table({"c": pa.array([_counts_le(v, e)])})

    totals = np.zeros(len(e), dtype=np.int64)
    for r in sds.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True).take_all():
        totals += np.asarray(r["c"], dtype=np.int64)
    return totals


def _f2u(x: np.ndarray) -> np.ndarray:
    """Monotone bijection float64 -> uint64 (IEEE total-order trick: flip
    the sign bit for non-negatives, invert all bits for negatives) — equal
    float spacing in KEY space regardless of exponent, so interval
    refinement cannot stall near 0 / denormals / huge sentinels."""
    b = np.asarray(x, dtype=np.float64).view(np.uint64)
    neg = (b >> np.uint64(63)).astype(bool)
    return np.where(neg, ~b, b | np.uint64(1 << 63))


def _u2f(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=np.uint64)
    neg = ~(u >> np.uint64(63)).astype(bool)
    b = np.where(neg, ~u, u & np.uint64((1 << 63) - 1))
    return b.view(np.float64)


def rank_select_values(
    ds,
    column: str,
    targets: np.ndarray,
    *,
    max_iter: int = 64,
    bounds: tuple[float, float] | None = None,
    integral: bool = False,
    refine_bins: int = 4096,
    _presorted=None,
) -> list:
    """Exact 0-based ascending order statistics at the given ranks.

    Strategy (replaces the original per-bit binary search, which cost ~64
    count passes): sort each block ONCE (:func:`_sorted_blocks`), then
    refine every target's half-open interval with a ``refine_bins``-ary
    histogram pass until the interval holds at most ``collect_cap`` rows —
    typically ONE round (n/4096 rows after it) — then collect those
    candidate rows in a final pass and select the rank exactly on the
    driver.  Selecting from the COLLECTED rows (not from float geometry)
    makes the result exact for any value distribution.  Refinement happens
    in the monotone uint64 bit-image of float64 (:func:`_f2u`), where the
    grid subdivides uniformly — 12 bits per round, so ANY interval is
    row-collectable or single-ulp within ceil(64/12) = 6 rounds (a linear
    float grid stalls for ~90 rounds when values sit at subnormal scale).
    Every pass is a zero-copy ``searchsorted`` over presorted data; all
    targets share each pass.

    Invariant per target t (0-based): F(lo) <= t and t+1 <= F(hi) where
    F(v) = #values <= v, so the target value lies in (lo, hi] at rank
    t - F(lo) among that interval's ascending rows.

    A target whose interval reaches key resolution (the massive-tie case:
    one value fills the interval past the cap) or, with ``integral=True``,
    float width < 1, short-circuits to the snap pass (smallest data value
    > lo), which the invariant makes exact there.

    ``bounds`` short-circuits the min/max scan."""
    targets = np.asarray(targets, dtype=np.int64)
    sds = _presorted if _presorted is not None else _sorted_blocks(ds, column)
    if bounds is None:
        vmin, vmax, n = _sorted_stats(sds)
        if vmin is None:
            return [None] * len(targets)
    else:
        vmin, vmax = bounds
    if vmin == vmax:
        return [float(vmin)] * len(targets)

    T = len(targets)
    B = max(2, int(refine_bins))
    collect_cap = max(B, 4096)
    # uint-key interval (lo, hi]; lo starts one key below vmin
    lo_u = np.full(T, _f2u(np.array([vmin]))[0] - np.uint64(1))
    hi_u = np.full(T, _f2u(np.array([vmax]))[0])
    flos = np.zeros(T, dtype=np.int64)      # F(lo) per target
    cnts = np.full(T, np.iinfo(np.int64).max)  # F(hi) - F(lo), unmeasured=max
    for _ in range(max_iter):
        active = (cnts > collect_cap) & (hi_u - lo_u > np.uint64(1))
        if integral:
            active &= (_u2f(hi_u) - _u2f(lo_u)) >= 1.0
        idx = np.flatnonzero(active)
        if len(idx) == 0:
            break
        # per-active-target edge grid over (lo, hi] in KEY space: uniform
        # integer subdivision, exact, overflow-free (edges <= hi by
        # construction), last edge == hi
        diff = hi_u[idx] - lo_u[idx]
        k = np.arange(1, B + 1, dtype=np.uint64)
        edges_u = (lo_u[idx, None] + (diff // np.uint64(B))[:, None] * k
                   + np.minimum(k, (diff % np.uint64(B))[:, None]))
        edges = _u2f(edges_u)
        F = _edge_counts_pass(sds, edges.ravel()).reshape(len(idx), B)
        # first bin j with F(edge_j) >= t+1 (exists: F(hi) >= t+1)
        j = np.argmax(F >= (targets[idx] + 1)[:, None], axis=1)
        pick = np.arange(len(idx))
        hi_u[idx] = edges_u[pick, j]
        lo_u[idx] = np.where(j > 0, edges_u[pick, np.maximum(j - 1, 0)],
                             lo_u[idx])
        flos[idx] = np.where(j > 0, F[pick, np.maximum(j - 1, 0)], flos[idx])
        cnts[idx] = F[pick, j] - flos[idx]
    los, his = _u2f(lo_u), _u2f(hi_u)

    best = np.full(T, np.inf)
    collectable = cnts <= collect_cap
    if collectable.any():
        # final exact pass: gather each collectable target's (lo, hi] rows
        # (<= collect_cap each, bounded driver pull) and take rank t - F(lo)
        c_idx = np.flatnonzero(collectable)
        c_lo, c_hi = los[c_idx], his[c_idx]

        def gather(tbl: pa.Table) -> pa.Table:
            sv = np.asarray(tbl.column("v").combine_chunks())
            bounds_ = _counts_le(sv, np.concatenate([c_lo, c_hi]))
            rows = []
            for a, b in zip(bounds_[: len(c_lo)], bounds_[len(c_lo):]):
                rows.append(sv[a:b].tolist())
            # ONE row per block: list-of-lists, one inner list per target
            return pa.table({"vals": pa.array(
                [rows], pa.list_(pa.list_(pa.float64())))})

        gathered: list[list[np.ndarray]] = [[] for _ in c_idx]
        for r in sds.map_batches(gather, batch_format="pyarrow",
                                 zero_copy_batch=True).take_all():
            for i, part in enumerate(r["vals"]):
                gathered[i].append(np.asarray(part, dtype=np.float64))
        for i, ti in enumerate(c_idx):
            vals = np.sort(np.concatenate(gathered[i])) if gathered[i] \
                else np.array([], dtype=np.float64)
            k = int(targets[ti] - flos[ti])
            if 0 <= k < len(vals):
                best[ti] = vals[k]

    rest = np.flatnonzero(~collectable | ~np.isfinite(best))
    if len(rest):
        # ulp-resolved / integral-resolved / massive-tie intervals: smallest
        # data value strictly greater than lo IS the target value
        r_lo = los[rest]

        def snap(tbl: pa.Table) -> pa.Table:
            sv = np.asarray(tbl.column("v").combine_chunks())
            out = np.full(len(r_lo), np.inf)
            if len(sv):
                k = _counts_le(sv, r_lo)
                ok = k < len(sv)
                out[ok] = sv[k[ok]]
            return pa.table({"v": pa.array([out])})

        sub_best = np.full(len(r_lo), np.inf)
        for r in sds.map_batches(snap, batch_format="pyarrow",
                                 zero_copy_batch=True).take_all():
            sub_best = np.minimum(sub_best, np.asarray(r["v"],
                                                       dtype=np.float64))
        best[rest] = sub_best
    return [float(v) for v in best]


def exact_quantiles_distributed(
    ds,
    column: str,
    quantiles: list[float],
    *,
    interpolation: str = "lower",
    max_iter: int = 64,
    _presorted=None,
) -> list:
    """Exact quantile values via histogram-refined rank selection (rank
    index over q*(n-1), same definition as the engine's value-count path).
    The sorted-block materialization is shared between the n-count and the
    selection passes; pass ``_presorted=_sorted_blocks(ds, col)`` to share
    it across CALLS too (e.g. the lower+higher interpolation pair)."""
    sds = _presorted if _presorted is not None else _sorted_blocks(ds, column)
    vmin, vmax, n = _sorted_stats(sds)
    if n == 0:
        return [None] * len(quantiles)

    targets = []
    for q in quantiles:
        x = q * (n - 1)
        if interpolation == "lower":
            targets.append(int(np.floor(x)))
        elif interpolation == "higher":
            targets.append(int(np.ceil(x)))
        else:
            targets.append(int(np.round(x)))
    return rank_select_values(ds, column, np.asarray(targets, dtype=np.int64),
                              max_iter=max_iter, bounds=(vmin, vmax),
                              _presorted=sds)


def grouped_quantiles_disc(ds, *, group_cols, value_col, qs):
    """Per-group EXACT discrete quantiles (SQL ``quantile_disc``: the
    element at 1-based rank ceil(q*n) within the sorted group).

    Rank arithmetic is exact integer math via ``Fraction(str(q))`` — never
    ``ceil(q*n)`` in floats, where 0.95*20 == 19.000000000000004 would
    off-by-one the rank (DuckDB itself resolves ranks exactly; verified
    n=7..100).

    Scale shape: one bucketed ``groupby(group_cols)`` exchange
    (functions/bucketed.py — per-group overhead-free at high cardinality),
    then a single mergesort + vectorized rank gather per bucket.  For a
    quantile over the WHOLE table use the engine's VC/rank-selection paths
    instead; this is the per-group (per-language, per-repo) variant.

    Output columns: group_cols + ``p<percent>`` per requested q.
    """
    from fractions import Fraction

    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed, key_groups
    from great_expectations_ray.functions.ks import _with_keys

    group_cols = list(group_cols)
    fracs = [Fraction(str(q)) for q in qs]
    names = [f"p{str(q).replace('0.', '').ljust(2, '0')}" for q in qs]

    def bucket(g: pa.Table) -> pa.Table:
        # SQL aggregate semantics: NULL (and NaN) values are ignored by
        # quantile_disc but the GROUP itself survives (all-null group ->
        # NULL quantiles); they sort after each group's values
        g, bounds = key_groups(g, group_cols, [(value_col, "ascending")])
        vals = g.column(value_col)
        valid = ~np.asarray(pc.is_null(vals, nan_is_null=True))
        starts = bounds[:-1]
        n = np.add.reduceat(valid.astype(np.int64), starts)
        out = {}
        for frac, name in zip(fracs, names):
            # 1-based rank ceil(q*n) == -(-q.num*n // q.den), exact
            rank = -(-frac.numerator * n // frac.denominator)
            idx = starts + np.clip(rank - 1, 0, np.maximum(n - 1, 0))
            out[name] = pc.if_else(pa.array(n > 0), vals.take(idx),
                                   pa.nulls(len(idx), vals.type))
        return _with_keys(g, bounds, group_cols, out)

    return grouped_apply_bucketed(
        ds.select_columns([*group_cols, value_col]), group_cols, bucket
    )
