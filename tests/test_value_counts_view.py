"""``ValueCountsState.sorted_view`` — one Arrow sort of the typed keys —
orders values exactly as the per-item Python sort it replaced
(``value_order``: values ascending, NaN after numbers), and the finishers
built on it (linear percentiles, nearest/lower/higher quantiles, median)
give the answers of their per-item versions."""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from great_expectations_ray.engine import _median_from_vc, _quantile_from_value_counts
from great_expectations_ray.functions.aggregates import ValueCountsState, value_order
from great_expectations_ray.functions.contrib_aggregates import percentile_linear_from_vc


def _state(values: list, typ: pa.DataType, cuts: list[int]) -> ValueCountsState:
    """Value counts of ``values`` built block by block and merged."""
    edges = [0, *sorted(c for c in set(cuts) if 0 < c < len(values)), len(values)]
    states = []
    for a, b in zip(edges, edges[1:]):
        s = ValueCountsState()
        s.update(pa.chunked_array([pa.array(values[a:b], typ)]))
        states.append(s)
    for s in states[1:]:
        states[0].merge(s)
    return states[0]


def _items(vc: ValueCountsState) -> list:
    """The per-item Python sort the view replaced."""
    return sorted(vc.counts.items(), key=lambda kv: value_order(kv[0]))


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and a != a:
        return b != b
    return a == b and type(a) is type(b)


def _assert_view_is_sorted_items(vc: ValueCountsState) -> None:
    keys, cnts = vc.sorted_view()
    want = _items(vc)
    assert len(keys) == len(want) and cnts.dtype == np.int64
    for got_v, got_c, (v, c) in zip(keys.to_pylist(), cnts.tolist(), want):
        assert _same(got_v, v), (got_v, v)
        assert got_c == c


_FLOATS = st.one_of(st.none(), st.just(math.nan), st.just(-0.0), st.just(0.0),
                    st.floats(allow_nan=False, width=64))
_INTS = st.one_of(st.none(), st.integers(-2**63, 2**63 - 1),
                  st.integers(2**53 - 3, 2**53 + 3), st.integers(-3, 3))
_COLUMNS = st.one_of(
    st.tuples(st.just(pa.float64()), st.lists(_FLOATS, max_size=60)),
    st.tuples(st.just(pa.int64()), st.lists(_INTS, max_size=60)),
    st.tuples(st.just(pa.string()),
              st.lists(st.one_of(st.none(), st.text(max_size=4)), max_size=60)),
    st.tuples(st.just(pa.date32()),
              st.lists(st.one_of(st.none(), st.dates()), max_size=60)),
)


@settings(max_examples=150, deadline=None)
@given(col=_COLUMNS, cuts=st.lists(st.integers(0, 60), max_size=4))
def test_sorted_view_equals_sorted_items(col, cuts):
    typ, values = col
    _assert_view_is_sorted_items(_state(values, typ, cuts))


def test_sorted_view_of_untyped_counts():
    """Counts with no recorded key type (a dict built by hand) are typed by
    inference; ``-0.0`` keeps its place among equal keys."""
    for counts in ({-0.0: 2, 1.5: 1, math.nan: 3, -4.0: 1},
                   {2**60 + 1: 1, 2**53 + 1: 2, -1: 4},
                   {"b": 1, "a": 2, "": 3}):
        vc = ValueCountsState(counts=dict(counts), nonnull=sum(counts.values()),
                              has_nan=any(k != k for k in counts))
        _assert_view_is_sorted_items(vc)


def _old_percentile(vc, q):
    items = _items(vc)
    vals = np.array([float(v) for v, _ in items])
    cum = np.cumsum([c for _, c in items])
    x = q * (vc.nonnull - 1)
    lo_t, hi_t = int(math.floor(x)), int(math.ceil(x))
    v_lo = vals[int(np.searchsorted(cum, lo_t + 1))]
    v_hi = vals[int(np.searchsorted(cum, hi_t + 1))]
    return float(v_lo + (x - lo_t) * (v_hi - v_lo))


def _old_quantile(vc, q, interpolation):
    items = _items(vc)
    cum = np.cumsum([c for _, c in items])
    x = q * (vc.nonnull - 1)
    target = {"lower": int(np.floor(x)), "higher": int(np.ceil(x))}.get(
        interpolation, int(np.round(x)))
    return items[min(int(np.searchsorted(cum, target + 1)), len(items) - 1)][0]


def _old_median(vc):
    items = _items(vc)
    cum = np.cumsum([c for _, c in items])
    n = vc.nonnull
    lo = items[int(np.searchsorted(cum, (n - 1) // 2 + 1))][0]
    hi = items[int(np.searchsorted(cum, n // 2 + 1))][0]
    return (float(lo) + float(hi)) / 2.0


@settings(max_examples=150, deadline=None)
@given(col=st.one_of(
           st.tuples(st.just(pa.float64()), st.lists(_FLOATS, min_size=1, max_size=60)),
           st.tuples(st.just(pa.int64()),
                     st.lists(st.integers(-2**62, 2**62), min_size=1, max_size=60))),
       cuts=st.lists(st.integers(0, 60), max_size=4),
       qs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
def test_finishers_equal_their_per_item_versions(col, cuts, qs):
    typ, values = col
    vc = _state(values, typ, cuts)
    if vc.nonnull == 0:
        assert percentile_linear_from_vc(vc, qs) == [None] * len(qs)
        return
    for got, q in zip(percentile_linear_from_vc(vc, qs), qs):
        assert _same(got, _old_percentile(vc, q))
    for interp in ("nearest", "lower", "higher"):
        got = _quantile_from_value_counts(vc, qs, interp)
        assert all(_same(g, _old_quantile(vc, q, interp)) for g, q in zip(got, qs))
    assert _same(_median_from_vc(vc), _old_median(vc))
