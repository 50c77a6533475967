"""Partition invariance of the bucketed exchange and the operators on it.

Every operator below runs through ``functions/bucketed._exchange``.  Each
property cuts its input into Hypothesis-chosen blocks, shuffles the block
order (``randomize_block_order``) and feeds keys with nulls, NaN, ``-0.0``,
NUL-bearing strings and one hot key; the answer must not depend on the cut
and must match DuckDB (or the operator run on each group's slice alone).
The two repros at the top are the defects the shared transport closes:
pandas grouping that stops at a NUL, and buckets retyped through pandas
when empty pandas blocks outnumber the Arrow ones.
"""

from __future__ import annotations

import math

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data as rd
from hypothesis import HealthCheck, given, settings, strategies as st

from great_expectations_ray.core.suite import ExpectationSuite
from great_expectations_ray.functions.asof import asof_join
from great_expectations_ray.functions.bucketed import grouped_apply_bucketed
from great_expectations_ray.functions.kll import grouped_kll_quantiles
from great_expectations_ray.functions.ks import grouped_parameterized_ks
from great_expectations_ray.functions.ordered import grouped_monotonic
from great_expectations_ray.functions.setops import intersect_distinct
from great_expectations_ray.functions.window_rank import sessionize, windowed_rank
from great_expectations_ray.pipelines.grouped import validate_grouped_wide
from great_expectations_ray.stages.dedup import dedup_exact
from tests.test_unique_keys import _logged

NAN = math.nan
_STR_KEYS = st.sampled_from([None, "", "a", "a\x00b", "a\x00c", "hot"])
_FLOAT_KEYS = st.sampled_from([None, 0.0, -0.0, NAN, 1.5])
_SETTINGS = settings(max_examples=4, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _ds(tbl: pa.Table, cuts: list[int], seed: int):
    """``tbl`` cut into blocks at ``cuts`` (mod its length), blocks shuffled."""
    at = sorted({c % max(tbl.num_rows, 1) for c in cuts} | {0, tbl.num_rows})
    blocks = [tbl.slice(a, b - a) for a, b in zip(at, at[1:])] or [tbl]
    return rd.from_arrow(blocks).randomize_block_order(seed=seed)


def _norm(v):
    if isinstance(v, float):
        return "NaN" if v != v else v + 0.0
    return v


def _rows(rows, cols) -> list:
    return sorted((tuple(_norm(r[c]) for c in cols) for r in rows), key=repr)


def _duck(sql: str, **tables) -> list[tuple]:
    con = duckdb.connect()
    for name, t in tables.items():
        con.register(name, t)
    out = con.execute(sql).fetchall()
    con.close()
    return sorted((tuple(_norm(v) for v in r) for r in out), key=repr)


def _with_hot(keys: list, hot: int) -> list:
    return keys + ["hot"] * hot


cuts = st.lists(st.integers(min_value=1, max_value=60), max_size=4)
seeds = st.integers(min_value=0, max_value=1000)


# --------------------------------------------------------------------------- #
# the two defects, as reported
# --------------------------------------------------------------------------- #


def test_validate_grouped_wide_keeps_nul_keys_apart(ray_session):
    tbl = pa.table({"g": ["a\x00b", "a\x00b", "a\x00c"], "v": [1, 2, 3]})
    suite = ExpectationSuite("s").add("expect_column_values_to_not_be_null", column="v")
    got = validate_grouped_wide(rd.from_arrow(tbl), suite, by="g", n_buckets=1)
    assert sorted((r["group_key"], r["row_count"]) for r in got.take_all()) == [
        ("a\x00b", 2), ("a\x00c", 1)]


def test_empty_pandas_blocks_do_not_retype_buckets(ray_session):
    x = rd.from_arrow(pa.table({"x": pa.array([NAN, 1.0])}))
    empties = rd.from_pandas([pd.DataFrame({"x": pd.Series([], dtype=float)})] * 4)
    got = [r["x"] for r in intersect_distinct(x.union(empties), x, ["x"]).take_all()]
    assert sorted(map(_norm, got), key=repr) == sorted([1.0, "NaN"], key=repr)

    ints = rd.from_arrow(pa.table({"k": pa.array([None, 1], pa.int64()),
                                   "f": pa.array([NAN, 2.0])}))
    no_rows = pd.DataFrame({"k": pd.Series([], dtype="int64"),
                            "f": pd.Series([], dtype=float)})
    out = grouped_apply_bucketed(ints.union(rd.from_pandas([no_rows] * 6)), ["k"],
                                 lambda t: t, n_buckets=1).materialize()
    tbl = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow")))
    assert tbl.schema.field("k").type == pa.int64()
    assert _rows(tbl.to_pylist(), ["k", "f"]) == sorted([(None, "NaN"), (1, 2.0)], key=repr)


@pytest.mark.parametrize("n_buckets", [1, 8])
def test_dictionary_and_nested_columns_cross_the_exchange_typed(ray_session, n_buckets):
    """Dictionary and list columns cross the exchange with their source
    types and values."""
    tbl = pa.table({"k": pa.array(["a", "b", None, "a\x00b"] * 5),
                    "d": pa.array(["x", "y", None, "x"] * 5).dictionary_encode(),
                    "l": pa.array([[1, 2], None, [], [3]] * 5, pa.list_(pa.int64())),
                    "i": pa.array(range(20), pa.int64())})
    for t in (tbl, tbl.drop_columns(["d"])):
        out = grouped_apply_bucketed(_ds(t, [3, 11], 7), ["k"], lambda b: b,
                                     n_buckets=n_buckets).materialize()
        got = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow")))
        assert got.schema == t.schema
        assert _rows(got.to_pylist(), ["i", "k", "l"]) == _rows(t.to_pylist(), ["i", "k", "l"])
        if "d" in t.column_names:
            assert sorted(got.to_pylist(), key=lambda r: r["i"]) == t.to_pylist()


def test_group_aggregate_keeps_null_keyed_groups_whole():
    from great_expectations_ray.functions.bucketed import group_aggregate

    # pyarrow 16's multi-column grouper splits ("hot", null) at row 32
    tbl = pa.table({"s": ["x", "y"] + ["hot"] * 33, "i": pa.nulls(35, pa.int64()),
                    "f": pa.array([-0.0, 0.0] + [NAN] * 33), "v": np.arange(35)})
    got = group_aggregate(tbl, ["s", "i", "f"], [("v", "sum"), ([], "count_all")])
    assert got.column_names == ["s", "i", "f", "v_sum", "count_all"]
    assert _rows(got.to_pylist(), got.column_names) == sorted(
        [("x", None, 0.0, 0, 1), ("y", None, 0.0, 1, 1),
         ("hot", None, "NaN", sum(range(2, 35)), 33)], key=repr)
    assert _rows(group_aggregate(tbl, ["f"], [([], "count_all")]).to_pylist(),
                 ["f", "count_all"]) == sorted([(0.0, 2), ("NaN", 33)], key=repr)


# --------------------------------------------------------------------------- #
# grouped_apply_bucketed, dedup_exact
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("n_buckets", [1, 64])
@_SETTINGS
@given(s=st.lists(_STR_KEYS, max_size=40), hot=st.integers(0, 30), cuts=cuts,
       seed=seeds, data=st.data())
def test_grouped_apply_bucketed_counts_match_duckdb(ray_session, n_buckets, s, hot,
                                                     cuts, seed, data):
    s = _with_hot(s, hot)
    f = data.draw(st.lists(_FLOAT_KEYS, min_size=len(s), max_size=len(s)))
    tbl = pa.table({"s": pa.array(s, pa.string()), "f": pa.array(f, pa.float64())})

    def count(t: pa.Table) -> pa.Table:
        from great_expectations_ray.functions.bucketed import group_aggregate

        return group_aggregate(t, ["s", "f"], [([], "count_all")])

    got = grouped_apply_bucketed(_ds(tbl, cuts, seed), ["s", "f"], count,
                                 n_buckets=n_buckets).take_all()
    assert _rows(got, ["s", "f", "count_all"]) == _duck(
        "SELECT s, f, count(*) FROM t GROUP BY s, f", t=tbl)


@_SETTINGS
@given(s=st.lists(_STR_KEYS, max_size=40), hot=st.integers(0, 30), cuts=cuts,
       seed=seeds)
def test_dedup_exact_keeps_first_per_key_and_types(ray_session, s, hot, cuts, seed):
    s = _with_hot(s, hot)
    n = len(s)
    tbl = pa.table({"k": pa.array(s, pa.string()),
                    "id": pa.array(np.arange(n)[::-1], pa.int64()),
                    "w": pa.array([None if i % 3 == 0 else i for i in range(n)], pa.int64())})
    out = dedup_exact(_ds(tbl, cuts, seed), ["k"], "id", n_buckets=16).materialize()
    if n:
        assert out.schema().base_schema.field("w").type == pa.int64()
    assert _rows(out.take_all(), ["k", "id", "w"]) == _duck(
        "SELECT k, id, w FROM t QUALIFY row_number() OVER (PARTITION BY k ORDER BY id) = 1",
        t=tbl)


# --------------------------------------------------------------------------- #
# grouped validation, windows, ordered rules
# --------------------------------------------------------------------------- #


@_SETTINGS
@given(s=st.lists(_STR_KEYS, min_size=1, max_size=30), hot=st.integers(0, 20),
       cuts=cuts, seed=seeds)
def test_validate_grouped_wide_matches_per_slice_validate(ray_session, s, hot, cuts, seed):
    from great_expectations_ray.engine import validate

    s = _with_hot(s, hot)
    v = [None if i % 5 == 0 else float(i % 7) for i in range(len(s))]
    tbl = pa.table({"g": pa.array(s, pa.string()), "v": pa.array(v, pa.float64())})
    suite = (ExpectationSuite("s")
             .add("expect_column_values_to_be_between", column="v", min_value=0, max_value=4)
             .add("expect_column_values_to_not_be_null", column="v"))
    got = {r["group_key"]: r for r in
           validate_grouped_wide(_ds(tbl, cuts, seed), suite, by="g", n_buckets=8).take_all()}
    keys = {k for k in s}
    assert set(got) == keys
    for key in keys:
        mask = pc.is_null(tbl.column("g")) if key is None else pc.fill_null(
            pc.equal(tbl.column("g"), key), False)
        ref = validate(rd.from_arrow(tbl.filter(mask)), suite)
        assert got[key]["row_count"] == ref.meta["row_count"] == pc.sum(mask).as_py()
        assert got[key]["success"] == ref.success
        assert got[key]["successful_expectations"] == \
            ref.statistics["successful_expectations"]


def _window_table(s: list, hot: int) -> pa.Table:
    s = _with_hot(s, hot)
    n = len(s)
    return pa.table({"k": pa.array(s, pa.string()),
                     # distinct order values (101 is prime, n < 101): SQL
                     # leaves the order of ties open
                     "o": pa.array(np.arange(n) * 7 % 101, pa.int64()),
                     "v": pa.array([None if i % 4 == 0 else i % 3 for i in range(n)],
                                   pa.int64()),
                     "t": pa.array((np.arange(n) * 13) % 40, pa.int64())})


@_SETTINGS
@given(s=st.lists(_STR_KEYS, max_size=40), hot=st.integers(0, 30), cuts=cuts, seed=seeds)
def test_windowed_rank_and_sessionize_match_duckdb(ray_session, s, hot, cuts, seed):
    tbl = _window_table(s, hot)
    ds = _ds(tbl, cuts, seed)
    got = windowed_rank(ds, partition_by="k", order_by=["v", "o"], value_col="v",
                        outputs=("row_number", "rank", "dense_rank", "lag"),
                        keep_cols=("o",)).take_all()
    assert _rows(got, ["k", "o", "row_number", "rank", "dense_rank", "lag"]) == _duck(
        "SELECT k, o, row_number() OVER w, rank() OVER w, dense_rank() OVER w,"
        " lag(v) OVER w FROM t WINDOW w AS (PARTITION BY k ORDER BY v NULLS LAST, o)",
        t=tbl)
    got = sessionize(ds, partition_by="k", order_by=["t", "o"], ts_col="t", gap=5,
                     keep_cols=("o",)).take_all()
    assert _rows(got, ["k", "o", "session_idx"]) == _duck(
        "SELECT k, o, sum(CASE WHEN p IS NULL OR t - p > 5 THEN 1 ELSE 0 END)"
        " OVER (PARTITION BY k ORDER BY t, o ROWS UNBOUNDED PRECEDING) FROM"
        " (SELECT *, lag(t) OVER (PARTITION BY k ORDER BY t, o) AS p FROM t)",
        t=tbl)


@_SETTINGS
@given(s=st.lists(_STR_KEYS, max_size=40), hot=st.integers(0, 30), cuts=cuts, seed=seeds)
def test_grouped_monotonic_matches_duckdb(ray_session, s, hot, cuts, seed):
    tbl = _window_table(s, hot)
    got = grouped_monotonic(_ds(tbl, cuts, seed), "v", "k", "o").take_all()
    assert _rows(got, ["k", "n_rows", "n_violations", "monotonic"]) == _duck(
        "SELECT k, count(*), sum(bad)::BIGINT, sum(bad) = 0 FROM"
        " (SELECT k, CASE WHEN v < lag(v) OVER (PARTITION BY k ORDER BY o)"
        " THEN 1 ELSE 0 END AS bad FROM t) GROUP BY k", t=tbl)


# --------------------------------------------------------------------------- #
# ks / kll grouped paths, as-of join
# --------------------------------------------------------------------------- #


@_SETTINGS
@given(s=st.lists(_STR_KEYS, min_size=1, max_size=40), hot=st.integers(0, 30),
       cuts=cuts, seed=seeds)
def test_grouped_ks_and_kll_match_each_slice(ray_session, s, hot, cuts, seed):
    s = _with_hot(s, hot)
    v = [None if i % 6 == 0 else float((i * 37) % 11) / 10 for i in range(len(s))]
    tbl = pa.table({"g": pa.array(s, pa.string()), "v": pa.array(v, pa.float64())})
    ds = _ds(tbl, cuts, seed)
    want_n = dict(_duck("SELECT g, count(v) FROM t GROUP BY g", t=tbl))
    ks = {r["g"]: r for r in grouped_parameterized_ks(
        ds, ["g"], "v", distribution="uniform", params={"min": 0.0, "max": 1.0},
        n_buckets=8).take_all()}
    kll = {r["g"]: r for r in grouped_kll_quantiles(ds, ["g"], "v", [0.25, 0.5],
                                                    k=200, n_buckets=8).take_all()}
    assert {k: r["n"] for k, r in ks.items()} == want_n
    assert set(kll) == set(want_n)
    for key in want_n:
        vals = np.sort([x for g, x in zip(s, v) if g == key and x is not None])
        if len(vals):
            j = np.arange(1, len(vals) + 1)
            d = max((j / len(vals) - vals).max(), (vals - (j - 1) / len(vals)).max())
            assert ks[key]["ks_statistic"] == pytest.approx(d)
        one = pa.table({"g": pa.array([key] * len(vals), pa.string()),
                        "v": pa.array(vals, pa.float64())})
        ref = grouped_kll_quantiles(rd.from_arrow(one), ["g"], "v", [0.25, 0.5],
                                    k=200).take_all()
        if len(vals):
            assert (kll[key]["p25"], kll[key]["p50"]) == (ref[0]["p25"], ref[0]["p50"])
        else:
            assert kll[key]["p50"] is None


@_SETTINGS
@given(lk=st.lists(_STR_KEYS, max_size=30), rk=st.lists(_STR_KEYS, max_size=20),
       hot=st.integers(0, 20), l_cuts=cuts, r_cuts=cuts, seed=seeds)
def test_asof_join_matches_duckdb(ray_session, lk, rk, hot, l_cuts, r_cuts, seed):
    lk = _with_hot(lk, hot)
    rk = _with_hot(rk, hot // 4)
    l = pa.table({"k": pa.array(lk, pa.string()),
                  "ts": pa.array([None if i % 9 == 8 else (i * 5) % 17 for i in range(len(lk))],
                                 pa.int64()),
                  "a": pa.array(np.arange(len(lk)), pa.int64())})
    # one right row per (k, ts): the match is unique; payloads past 2**53
    r = pa.table({"k": pa.array(rk, pa.string()),
                  "ts": pa.array(np.arange(len(rk)) * 3 % 19, pa.int64()),
                  "b": pa.array([None if i % 3 == 0 else 2**62 + i for i in range(len(rk))],
                                pa.int64())})
    r = r.group_by(["k", "ts"]).aggregate([("b", "max")]).rename_columns(["k", "ts", "b"])
    got = asof_join(_ds(l, l_cuts, seed), _ds(r, r_cuts, seed + 1), by="k", on="ts",
                    left_cols=["a"], right_cols=["b"]).take_all()
    # a null-ts left row never matches (DuckDB 1.0's ASOF pairs it anyway)
    assert _rows(got, ["k", "ts", "a", "b_r"]) == _duck(
        "SELECT l.k, l.ts, l.a, r.b FROM l ASOF LEFT JOIN r"
        " ON l.k = r.k AND l.ts >= r.ts WHERE l.ts IS NOT NULL"
        " UNION ALL SELECT k, ts, a, NULL FROM l WHERE ts IS NULL", l=l, r=r)


def test_exchange_blocks_hash_and_keep_one_schema(ray_session):
    """Ray's reduce logs "Failed to hash the schemas (for deduplication)"
    for every block schema that carries pandas metadata (a dict), and
    "Operator produced a RefBundle with a different schema" when blocks
    drift; bucket blocks are plain Arrow tables, so neither can happen."""
    import ray

    tbl = pa.table({"k": ["a", "b", None, "a\x00b"] * 25, "id": np.arange(100),
                    "v": pa.array([None, 1.0, 2.0, 3.0] * 25)})
    suite = ExpectationSuite("s").add("expect_column_values_to_not_be_null", column="v")
    with _logged() as (_, drift):
        outs = [dedup_exact(_ds(tbl, [13, 40, 77], 3), ["k"], "id").materialize(),
                validate_grouped_wide(_ds(tbl, [25, 60], 4), suite, by="k").materialize()]
    assert not drift
    for out in outs:
        for block in ray.get(out.to_arrow_refs()):
            hash(block.schema)  # raises TypeError on pandas metadata
            assert b"pandas" not in (block.schema.metadata or {})
