"""``ValueCountsState`` — typed ``(values, counts)`` arrays merged in one
hash pass — checked against the input values themselves: whatever the
block cuts and block types, the merged counts equal a Python ``Counter``
of the values (nulls dropped, ``-0.0`` = ``0.0``, every NaN one value),
``sorted_view`` orders them as ``value_order`` does, and the finishers
built on it (linear percentiles, nearest/lower/higher quantiles, median)
give the answers of their per-item versions over that ``Counter``."""

from __future__ import annotations

import math
import pickle
from collections import Counter
from unittest import mock

import numpy as np
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from great_expectations_ray.engine import (
    _median_from_vc,
    _merge_partials,
    _py_key,
    _quantile_from_value_counts,
)
from great_expectations_ray.functions.aggregates import ValueCountsState, value_order
from great_expectations_ray.functions.contrib_aggregates import percentile_linear_from_vc


def _blocks(values: list, types: tuple, cuts: list[int]) -> list[pa.ChunkedArray]:
    """``values`` cut into blocks at ``cuts``; block ``i`` has type
    ``types[i % len(types)]``."""
    edges = [0, *sorted(c for c in set(cuts) if 0 < c < len(values)), len(values)]
    return [pa.chunked_array([pa.array(values[a:b], types[i % len(types)])])
            for i, (a, b) in enumerate(zip(edges, edges[1:]))]


def _state(values: list, types: tuple, cuts: list[int]) -> ValueCountsState:
    return ValueCountsState.merge_all([ValueCountsState.of(b)
                                       for b in _blocks(values, types, cuts)])


def _counter(values: list) -> Counter:
    """What the state must hold: the non-null values, every NaN one key."""
    return Counter(_py_key(v) for v in values if v is not None)


def _as_dict(vc: ValueCountsState) -> dict:
    return dict(zip(map(_py_key, vc.values.to_pylist()), vc.counts.tolist()))


def _items(ctr: Counter) -> list:
    """The per-item Python sort the view replaced."""
    return sorted(ctr.items(), key=lambda kv: value_order(kv[0]))


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and a != a:
        return b != b
    return a == b and type(a) is type(b)


_FLOATS = st.one_of(st.none(), st.just(math.nan), st.just(-0.0), st.just(0.0),
                    st.floats(allow_nan=False, width=64))
_INTS = st.one_of(st.none(), st.integers(-2**63, 2**63 - 1),
                  st.integers(2**53 - 3, 2**53 + 3), st.integers(-3, 3))
_INT32S = st.one_of(st.none(), st.integers(-2**31, 2**31 - 1), st.integers(-3, 3))
_TEXT = st.one_of(st.none(), st.text(max_size=4))
_COLUMNS = st.one_of(
    st.tuples(st.just((pa.float64(),)), st.lists(_FLOATS, max_size=60)),
    st.tuples(st.just((pa.int64(),)), st.lists(_INTS, max_size=60)),
    st.tuples(st.just((pa.int32(), pa.int64())), st.lists(_INT32S, max_size=60)),
    st.tuples(st.just((pa.string(), pa.large_string())), st.lists(_TEXT, max_size=60)),
    st.tuples(st.just((pa.date32(),)),
              st.lists(st.one_of(st.none(), st.dates()), max_size=60)),
)
_CUTS = st.lists(st.integers(0, 60), max_size=6)


@settings(max_examples=200, deadline=None)
@given(col=_COLUMNS, cuts=_CUTS)
def test_merged_counts_equal_a_counter_of_the_values(col, cuts):
    """Partition invariance: any cut, any mix of block types, one answer."""
    types, values = col
    vc = _state(values, types, cuts)
    assert not vc.overflow and vc.counts.dtype == np.int64
    assert len(vc.values) == len(vc.counts) == len(_counter(values))
    assert _as_dict(vc) == _counter(values)


@settings(max_examples=150, deadline=None)
@given(col=_COLUMNS, cuts=_CUTS)
def test_sorted_view_is_value_order(col, cuts):
    types, values = col
    keys, cnts = _state(values, types, cuts).sorted_view()
    want = _items(_counter(values))
    assert len(keys) == len(want) and cnts.dtype == np.int64
    for got_v, got_c, (v, c) in zip(keys.to_pylist(), cnts.tolist(), want):
        assert _same(_py_key(got_v), v), (got_v, v)
        assert got_c == c


def _partial(c: str, vc: ValueCountsState) -> bytes:
    return pickle.dumps({"row_count": 0, "maps": {}, "aggs": {}, "counts": {},
                         "vcs": {c: vc}, "errors": {}})


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.integers(0, 40), max_size=80), cuts=_CUTS,
       cap=st.integers(1, 30))
def test_overflow_exactly_past_cap_and_pending_parts_fold(values, cuts, cap):
    """``_merge_partials`` overflows exactly when the merged distinct count
    passes ``CAP``, and never holds much more than ``CAP`` pending values
    (it folds them whenever their total passes ``CAP``)."""
    seen = []
    real = ValueCountsState.merge_all.__func__

    def spy(cls, parts):
        seen.append(sum(len(p.values) for p in parts))
        return real(cls, parts)

    with mock.patch.object(ValueCountsState, "CAP", cap), \
            mock.patch.object(ValueCountsState, "merge_all", classmethod(spy)):
        parts = [_partial("v", ValueCountsState.of(b))
                 for b in _blocks(values, (pa.int64(),), cuts)]
        vc = _merge_partials(parts)["vcs"].get("v", ValueCountsState())
    want = _counter(values)
    assert vc.overflow == (len(want) > cap)
    if not vc.overflow:
        assert _as_dict(vc) == want
    assert all(n <= 2 * cap for n in seen), (seen, cap)


def test_type_clash_fails_the_column_naming_both_types():
    parts = [_partial("v", ValueCountsState.of(pa.chunked_array([pa.array([1, 2])]))),
             _partial("v", ValueCountsState.of(pa.chunked_array([pa.array(["a"])])))]
    merged = _merge_partials(parts)
    msg = merged["errors"][("vc", "v")]
    assert "'v'" in msg and "int64" in msg and "string" in msg
    assert "v" not in merged["vcs"]


def test_int_and_float_blocks_meet_as_python_does():
    """``1 == 1.0``: an int64 block and a double block unify to double."""
    vc = _state([1, 2, 1.0, 2.5], (pa.int64(), pa.float64()), [2])
    assert vc.values.type == pa.float64()
    assert _as_dict(vc) == {1.0: 2, 2.0: 1, 2.5: 1}


def _old_percentile(ctr, q):
    items = _items(ctr)
    vals = np.array([float(v) for v, _ in items])
    cum = np.cumsum([c for _, c in items])
    x = q * (sum(ctr.values()) - 1)
    lo_t, hi_t = int(math.floor(x)), int(math.ceil(x))
    v_lo = vals[int(np.searchsorted(cum, lo_t + 1))]
    v_hi = vals[int(np.searchsorted(cum, hi_t + 1))]
    return float(v_lo + (x - lo_t) * (v_hi - v_lo))


def _old_quantile(ctr, q, interpolation):
    items = _items(ctr)
    cum = np.cumsum([c for _, c in items])
    x = q * (sum(ctr.values()) - 1)
    target = {"lower": int(np.floor(x)), "higher": int(np.ceil(x))}.get(
        interpolation, int(np.round(x)))
    return items[min(int(np.searchsorted(cum, target + 1)), len(items) - 1)][0]


def _old_median(ctr):
    items = _items(ctr)
    cum = np.cumsum([c for _, c in items])
    n = sum(ctr.values())
    lo = items[int(np.searchsorted(cum, (n - 1) // 2 + 1))][0]
    hi = items[int(np.searchsorted(cum, n // 2 + 1))][0]
    return (float(lo) + float(hi)) / 2.0


@settings(max_examples=150, deadline=None)
@given(col=st.one_of(
           st.tuples(st.just((pa.float64(),)),
                     st.lists(_FLOATS, min_size=1, max_size=60)),
           st.tuples(st.just((pa.int64(), pa.int32())),
                     st.lists(st.integers(-2**31, 2**31 - 1), min_size=1, max_size=60)),
           st.tuples(st.just((pa.int64(),)),
                     st.lists(st.integers(-2**62, 2**62), min_size=1, max_size=60))),
       cuts=_CUTS,
       qs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
def test_finishers_equal_their_per_item_versions(col, cuts, qs):
    types, values = col
    vc = _state(values, types, cuts)
    ctr = _counter(values)
    if not ctr:
        assert percentile_linear_from_vc(vc, qs) == [None] * len(qs)
        assert _quantile_from_value_counts(vc, qs) == [None] * len(qs)
        assert _median_from_vc(vc) is None
        return
    for got, q in zip(percentile_linear_from_vc(vc, qs), qs):
        assert _same(got, _old_percentile(ctr, q))
    for interp in ("nearest", "lower", "higher"):
        got = _quantile_from_value_counts(vc, qs, interp)
        want = [_old_quantile(ctr, q, interp) for q in qs]
        assert all(_same(_py_key(g), w) for g, w in zip(got, want))
    assert _same(_median_from_vc(vc), _old_median(ctr))
