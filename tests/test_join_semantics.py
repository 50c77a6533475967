"""Key semantics of the one two-sided exchange (``joins.hash_bucket_join``)
and the bucketed set ops, checked against DuckDB: a null key never matches,
``-0.0`` equals ``0.0``, NaN equals NaN, keys of different widths join, the
output keeps its source types, and the result does not depend on how the
inputs are split into blocks or on the bucket count."""

from __future__ import annotations

import math

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd
from hypothesis import example, given, settings, strategies as st

from great_expectations_ray.functions.bucketed import hash_bucket_of
from great_expectations_ray.functions.joins import (
    broadcast_semi_anti,
    hash_bucket_join,
)
from great_expectations_ray.functions.setops import (
    except_distinct,
    intersect_distinct,
)

NAN = float("nan")

_SQL = {
    "inner": "SELECT l.*, r.b FROM l JOIN r ON l.k = r.k",
    "left": "SELECT l.*, r.b FROM l LEFT JOIN r ON l.k = r.k",
    "semi": "SELECT * FROM l SEMI JOIN r ON l.k = r.k",
    "anti": "SELECT * FROM l ANTI JOIN r ON l.k = r.k",
}


def _blocks(tbl: pa.Table, cuts: list[int]):
    """``tbl`` as one dataset block per slice between the sorted cuts."""
    edges = [0, *sorted(set(c for c in cuts if 0 < c < tbl.num_rows)), tbl.num_rows]
    return rd.from_arrow([tbl.slice(a, b - a) for a, b in zip(edges, edges[1:])])


def _collect(ds) -> pa.Table | None:
    """All rows of ``ds`` (None when no block carries a schema: no rows)."""
    blocks = [b for b in ds.iter_batches(batch_size=None, batch_format="pyarrow")
              if b.num_columns]
    return pa.concat_tables(blocks) if blocks else None


def _norm(v):
    if isinstance(v, float):
        return "nan" if math.isnan(v) else v + 0.0
    return v


def _rows(tbl: pa.Table, cols: list[str]) -> list[tuple]:
    return sorted((tuple(_norm(r[c]) for c in cols) for r in tbl.to_pylist()),
                  key=repr)


def _duck(l: pa.Table, r: pa.Table, how: str) -> pa.Table:
    con = duckdb.connect()
    try:
        con.register("l", l)
        con.register("r", r)
        return con.execute(_SQL[how]).fetch_arrow_table()
    finally:
        con.close()


def _check(l: pa.Table, r: pa.Table, how: str, *, n_buckets: int = 8,
           l_cuts=(), r_cuts=()):
    got = _collect(hash_bucket_join(_blocks(l, list(l_cuts)), _blocks(r, list(r_cuts)),
                                    on="k", how=how, n_buckets=n_buckets))
    want = _duck(l, r, how)
    if got is None:
        assert want.num_rows == 0
        return None
    cols = want.column_names
    assert got.column_names == cols
    assert _rows(got, cols) == _rows(want, cols)
    for c in l.column_names:  # every left column keeps its source type
        assert got.schema.field(c).type == l.schema.field(c).type
    return got


_L = pa.table({"k": pa.array([1.0, -0.0, NAN, None, 2.0, 1.0, 0.0]),
               "a": pa.array(range(7), pa.int64())})
_R = pa.table({"k": pa.array([0.0, NAN, None, 1.0, 1.0, 3.0]),
               "b": pa.array([10, 20, 30, None, 50, 60], pa.int64())})


@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
def test_null_signed_zero_and_nan_keys_match_duckdb(ray_session, how):
    got = _check(_L, _R, how, l_cuts=[3], r_cuts=[2, 4])
    if how == "left":  # the right payload stays int64 under its null pads
        assert got.schema.field("b").type == pa.int64()


def test_anti_equals_broadcast_anti_with_null_keys_on_both_sides(ray_session):
    """``substr_dedup`` picks between these two paths by size, so they must
    agree: a null key matches nothing, and the anti join keeps its row."""
    left = rd.from_arrow(pa.table({"k": pa.array([1, None, 2, 3, None], pa.int64()),
                                   "v": list("abcde")})).repartition(2)
    keys = rd.from_arrow(pa.table({"k": pa.array([1, None, 3], pa.int64())}))
    for anti in (False, True):
        got = _collect(hash_bucket_join(left, keys, on="k", n_buckets=4,
                                        how="anti" if anti else "semi"))
        want = _collect(broadcast_semi_anti(left, [1, 3], on="k", anti=anti))
        assert _rows(got, ["k", "v"]) == _rows(want, ["k", "v"])
        assert got.schema.field("k").type == pa.int64()
    assert sorted(got.column("v").to_pylist()) == ["b", "c", "e"]


@pytest.mark.parametrize("lt, rt, vals", [
    (pa.int32(), pa.int64(), [1, 2, None, 7]),
    (pa.int64(), pa.int32(), [1, 2, None, 7]),
    (pa.string(), pa.large_string(), ["a", "b", None, "\x00c"]),
    (pa.large_string(), pa.string(), ["a", "b", None, "\x00c"]),
])
@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
def test_mixed_width_keys_join(ray_session, lt, rt, vals, how):
    l = pa.table({"k": pa.array(vals, lt), "a": pa.array(range(4), pa.int64())})
    r = pa.table({"k": pa.array([vals[0], vals[2], vals[3], vals[3]], rt),
                  "b": pa.array([1, 2, 3, 4], pa.int64())})
    got = _check(l, r, how)
    assert got.schema.field("k").type == lt


def test_int64_right_keys_wider_than_the_left_type(ray_session):
    l = pa.table({"k": pa.array([1, 2], pa.int32()), "a": [1, 2]})
    r = pa.table({"k": pa.array([1, 1 << 40], pa.int64()), "b": [1, 2]})
    _check(l, r, "inner")


def test_lazy_sides_with_int_and_float_keys_join(ray_session):
    """Sides whose schema Ray does not know yet are bucketed on their own
    key types, then read their schema from the tagged rows; an int key
    meeting a float key is bucketed again on the common type, so ``1``
    still finds ``1.0``."""
    l = pa.table({"k": pa.array([1, 2, None, 7, 3], pa.int32()),
                  "a": pa.array(range(5), pa.int64())})
    r = pa.table({"k": pa.array([1.0, 7.0, 2.5, None, 7.0]),
                  "b": pa.array([10, 20, 30, 40, 50], pa.int64())})

    def lazy(t):
        return rd.from_arrow([t.slice(0, 2), t.slice(2)]).map_batches(
            lambda b: b, batch_format="pyarrow")

    for how in _SQL:
        got = _collect(hash_bucket_join(lazy(l), lazy(r), on="k", how=how, n_buckets=8))
        want = _duck(l, r, how)
        cols = want.column_names
        assert _rows(got, cols) == _rows(want, cols), how
        assert got.schema.field("k").type == pa.int32()


def test_list_payload_fails_loudly(ray_session):
    l = rd.from_arrow(pa.table({"k": [1, 2], "a": [1, 2]}))
    r = rd.from_arrow(pa.table({"k": [1], "spans": [[1, 2]]}))
    with pytest.raises(ValueError, match="spans"):
        hash_bucket_join(l, r, on="k", how="left")
    # semi/anti ship only the right key: list payloads are fine there
    assert _collect(hash_bucket_join(r, l, on="k", how="semi")).num_rows == 1


def test_bad_how_and_overlapping_columns_fail(ray_session):
    l = rd.from_arrow(pa.table({"k": [1], "x": [1]}))
    with pytest.raises(ValueError, match="how"):
        hash_bucket_join(l, l, on="k", how="outer")
    with pytest.raises(ValueError, match="overlapping"):
        hash_bucket_join(l, l, on="k")


def test_pandas_blocks_do_not_retype_the_exchange(ray_session):
    """Empty pandas blocks that outnumber the Arrow blocks make Ray's sort
    merge every bucket through pandas.  Rows cross the exchange as Arrow
    IPC bytes, so int64 keys past 2**53, nullable ints and NaN keys come
    out exact."""
    big = 2**62 + 1
    left = rd.from_arrow(pa.table({
        "k": pa.array([big, big + 2, 5, None], pa.int64()),
        "v": pa.array([1, None, 3, 4], pa.int64()),
        "f": pa.array([NAN, 1.5, None, 2.0]),
    }))
    no_rows = pd.DataFrame({"k": pd.Series([], dtype="int64"),
                            "w": pd.Series([], dtype=object)})
    right = rd.from_arrow(pa.table({"k": pa.array([big], pa.int64()),
                                    "w": ["x"]})).union(rd.from_pandas([no_rows] * 6))
    got = _collect(hash_bucket_join(left, right, on="k", how="left", n_buckets=8))
    assert got.schema.field("k").type == got.schema.field("v").type == pa.int64()
    assert _rows(got, ["k", "v", "w"]) == sorted(
        [(big, 1, "x"), (big + 2, None, None), (5, 3, None), (None, 4, None)], key=repr)
    nan_keys = rd.from_arrow(pa.table({"f": pa.array([NAN, 9.0])}))
    empties = rd.from_pandas([pd.DataFrame({"f": pd.Series([], dtype=float)})] * 4)
    got = _collect(hash_bucket_join(left, nan_keys.union(empties), on="f",
                                    how="semi"))
    assert got.column("k").to_pylist() == [big]


_KEYS = st.sampled_from([0.0, -0.0, NAN, None, 1.0, 2.5, -7.0])


@pytest.mark.parametrize("n_buckets", [1, 64])
@settings(max_examples=6, deadline=None)
@given(
    lk=st.lists(_KEYS, max_size=30),
    rk=st.lists(_KEYS, max_size=12),
    hot=st.integers(min_value=0, max_value=40),
    l_cuts=st.lists(st.integers(min_value=1, max_value=70), max_size=4),
    r_cuts=st.lists(st.integers(min_value=1, max_value=20), max_size=3),
)
@example(lk=[None, -0.0, NAN], rk=[None, 0.0, NAN], hot=0, l_cuts=[1], r_cuts=[])
@example(lk=[], rk=[1.0], hot=5, l_cuts=[], r_cuts=[])
def test_join_partition_invariance(ray_session, n_buckets, lk, rk, hot, l_cuts, r_cuts):
    lk = lk + [2.5] * hot  # a hot key: one bucket holds all its rows
    rk = rk + [2.5] * (hot // 8)
    l = pa.table({"k": pa.array(lk, pa.float64()),
                  "a": pa.array(np.arange(len(lk)), pa.int64())})
    r = pa.table({"k": pa.array(rk, pa.float64()),
                  "b": pa.array(np.arange(len(rk)) * 10, pa.int64())})
    for how in _SQL:
        _check(l, r, how, n_buckets=n_buckets, l_cuts=l_cuts, r_cuts=r_cuts)


def _nul_pair(n_buckets: int = 256) -> tuple[str, str]:
    """Two keys equal up to a NUL that share a bucket of ``n_buckets``."""
    cands = [f"a\x00{i}" for i in range(1, 5000)]
    b = hash_bucket_of(pa.array(cands), n_buckets)
    first = cands[0]
    return first, next(c for c, x in zip(cands[1:], b[1:]) if x == b[0])


def test_setops_keep_keys_apart_after_a_nul(ray_session):
    """pandas groups object strings only up to the first NUL; the Arrow
    reduce keeps ``a\\x00<i>`` and ``a\\x00<j>`` apart."""
    ka, kb = _nul_pair()
    a = rd.from_arrow(pa.table({"s": [ka, "both"]}))
    b = rd.from_arrow(pa.table({"s": [kb, "both"]}))
    assert sorted(r["s"] for r in intersect_distinct(a, b, ["s"]).take_all()) == ["both"]
    assert [r["s"] for r in except_distinct(a, b, ["s"]).take_all()] == [ka]


def test_setops_signed_zero_nan_and_null_match_duckdb(ray_session):
    av = [0.0, NAN, None, 1.0, 2.0]
    bv = [-0.0, NAN, None, 2.0]
    a = rd.from_arrow(pa.table({"x": pa.array(av, pa.float64())}))
    b = rd.from_arrow(pa.table({"x": pa.array(bv, pa.float64())}))
    con = duckdb.connect()
    con.register("a", pa.table({"x": pa.array(av, pa.float64())}))
    con.register("b", pa.table({"x": pa.array(bv, pa.float64())}))
    for fn, op in ((intersect_distinct, "INTERSECT"), (except_distinct, "EXCEPT")):
        got = sorted((_norm(r["x"]) for r in fn(a, b, ["x"]).take_all()), key=repr)
        want = sorted((_norm(x) for (x,) in con.execute(
            f"SELECT x FROM a {op} SELECT x FROM b").fetchall()), key=repr)
        assert got == want
    con.close()
