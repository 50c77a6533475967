"""Uniqueness and value-count keys are exact and typed.

- Compound uniqueness counts typed keys: no separator collision, a null is
  not the string ``"\\x00"``, and ``-0.0`` equals ``0.0`` (DuckDB ``GROUP
  BY`` and pandas ``duplicated``) on both the one-task path and the
  bucketed-exchange path of ``validate``'s phase 1, under any block split.
- The single-column value-count families agree with DuckDB over
  ``0.0``/``-0.0``/NaN/null columns.
- Cramér's φ reads typed key columns; the typed add-bucket helper keeps
  equal float keys in one bucket.
- ``validate`` runs one execution over its input for a uniqueness suite
  and for the benchmark-shaped suite (its IQR rule is settled from the
  phase-1 value counts), with no schema-drift warning.
"""

from __future__ import annotations

import logging
import math
from contextlib import contextmanager

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data as rd
from hypothesis import example, given, settings, strategies as st

from great_expectations_ray import engine
from great_expectations_ray.core.suite import ExpectationSuite
from great_expectations_ray.engine import validate

NAN = float("nan")


def _blocks(tbl: pa.Table, cuts: list[int]):
    """``tbl`` as one dataset block per slice between the sorted cuts."""
    edges = [0, *sorted(set(c for c in cuts if 0 < c < tbl.num_rows)), tbl.num_rows]
    return rd.from_arrow([tbl.slice(a, b - a) for a, b in zip(edges, edges[1:])])


@pytest.fixture(params=["task", "exchange"])
def path(request, monkeypatch):
    """Run phase 1's uniqueness counts on the one finishing task, or force
    the bucketed exchange by dropping its row cap to 0."""
    if request.param == "exchange":
        monkeypatch.setattr(engine, "_KEY_TASK_ROW_CAP", 0)
    return request.param


def _compound(ds, cols):
    r = validate(ds, ExpectationSuite("u").add(
        "expect_compound_columns_to_be_unique", column_list=cols)).results[0]
    return r.result["unexpected_count"], r.result["partial_unexpected_list"]


def test_compound_separator_does_not_collide(ray_session, path):
    ds = _blocks(pa.table({"a": ["x\x1fy", "x"], "b": ["z", "y\x1fz"]}), [1])
    assert _compound(ds, ["a", "b"]) == (0, [])


def test_compound_null_is_not_nul_string(ray_session, path):
    ds = _blocks(pa.table({"a": [None, "\x00", None], "b": ["k", "k", "j"]}), [1, 2])
    assert _compound(ds, ["a", "b"]) == (0, [])


def test_compound_negative_zero_equals_zero(ray_session, path):
    ds = _blocks(pa.table({"f": [0.0, -0.0, 2.0], "i": [1, 1, 1]}), [1])
    assert _compound(ds, ["f", "i"]) == (2, [[0.0, 1]])


# --------------------------------------------------------------------------- #
# partition invariance against pandas duplicated(keep=False)
# --------------------------------------------------------------------------- #

_FLOATS = st.sampled_from([0.0, -0.0, NAN, None, 1.0, 2.5, 7.0])
_INTS = st.sampled_from([0, 1, 2, None])
_STRS = st.sampled_from(["a", "b", "a\x1fb", "\x00", "", None])


def _norm(v):
    """A key value as the oracle compares it: one NaN, one null, 0.0 for
    -0.0, and a string by its repr (pandas hashes object strings up to the
    first NUL, so ``"\x00"`` would meet ``""``)."""
    if v is None:
        return "<null>"
    if isinstance(v, str):
        return repr(v)
    if isinstance(v, float) and math.isnan(v):
        return "<nan>"
    return v + 0.0 if isinstance(v, float) else v


def _order(v):
    """Arrow's ascending sort key: values, then NaN, then null."""
    if v is None:
        return (2, 0)
    if isinstance(v, float) and math.isnan(v):
        return (1, 0)
    return (0, v)


def _expected(rows: list[tuple], drop_null: bool) -> tuple[int, list]:
    rows = [r for r in rows if not (drop_null and r[0] is None)]
    df = pd.DataFrame([[_norm(v) for v in r] for r in rows], dtype=object)
    if df.empty:
        return 0, []
    dup = df.duplicated(keep=False).to_numpy()
    keys = {tuple(_norm(v) for v in r): r for r, d in zip(rows, dup) if d}
    smallest = sorted(keys.values(), key=lambda r: tuple(_order(v) for v in r))
    return int(dup.sum()), [[_norm(v) for v in r] for r in smallest[:200]]


@settings(max_examples=12, deadline=None)
@given(
    rows=st.lists(st.tuples(_FLOATS, _INTS, _STRS), min_size=0, max_size=60),
    hot=st.integers(min_value=0, max_value=40),
    cuts=st.lists(st.integers(min_value=1, max_value=100), max_size=5),
)
@example(rows=[(0.0, 0, "\x00"), (0.0, 0, "")], hot=0, cuts=[])
@example(rows=[(-0.0, None, None), (0.0, None, None), (NAN, 2, "a"), (NAN, 2, "a")],
         hot=3, cuts=[1, 3])
def test_unique_partition_invariance(ray_session, rows, hot, cuts):
    rows = rows + [(2.5, 1, "a\x1fb")] * hot
    tbl = pa.table({
        "f": pa.array([r[0] for r in rows], pa.float64()),
        "i": pa.array([r[1] for r in rows], pa.int64()),
        "s": pa.array([r[2] for r in rows], pa.string()),
    })
    suite = (ExpectationSuite("p")
             .add("expect_compound_columns_to_be_unique", column_list=["f", "i", "s"])
             .add("expect_column_values_to_be_unique", column="f"))
    want = [_expected(rows, False),
            _expected([(r[0],) for r in rows], True)]
    got = {}
    for cap in (engine._KEY_TASK_ROW_CAP, 0):
        old, engine._KEY_TASK_ROW_CAP = engine._KEY_TASK_ROW_CAP, cap
        try:
            res = validate(_blocks(tbl, cuts).randomize_block_order(), suite)
        finally:
            engine._KEY_TASK_ROW_CAP = old
        got[cap] = [(r.result["unexpected_count"],
                     [[_norm(v) for v in (k if isinstance(k, list) else [k])]
                      for k in r.result["partial_unexpected_list"]])
                    for r in res.results]
    task, exchange = got.values()
    assert task == exchange
    for (n, samples), (want_n, want_keys) in zip(task, want):
        assert n == want_n
        assert samples == want_keys[:len(samples)] and len(samples) == min(20, len(want_keys))


# --------------------------------------------------------------------------- #
# single-column value-count families vs DuckDB over 0.0 / -0.0 / NaN / null
# --------------------------------------------------------------------------- #

#: NaN in three blocks, the two zeros in two
_SIGNED = [[0.0, NAN, 1.0], [-0.0, NAN, None], [NAN, 1.0, 2.0]]


def _signed_ds():
    return rd.from_arrow([pa.table({"x": pa.array(b, pa.float64())}) for b in _SIGNED])


def _duck(sql: str):
    con = duckdb.connect()
    try:
        con.register("t", pa.table({"x": pa.array(sum(_SIGNED, []), pa.float64())}))
        return con.execute(sql).fetchall()
    finally:
        con.close()


def _run(expectation_type: str, **kwargs):
    return validate(_signed_ds(), ExpectationSuite("z").add(
        expectation_type, column="x", **kwargs)).results[0]


def _same(a, b) -> bool:
    return [_norm(v) for v in a] == [_norm(v) for v in b]


def test_distinct_values_in_set_signed_zero_nan(ray_session):
    want = [v for (v,) in _duck("SELECT DISTINCT x FROM t WHERE x IS NOT NULL")]
    r = _run("expect_column_distinct_values_to_be_in_set", value_set=[0.0, 1.0, 2.0, NAN])
    assert r.success
    assert sorted(map(_norm, r.result["observed_value"]), key=str) == sorted(
        map(_norm, want), key=str)
    assert not _run("expect_column_distinct_values_to_be_in_set",
                    value_set=[0.0, 1.0, 2.0]).success


def test_unique_value_count_signed_zero_nan(ray_session):
    (want,), = _duck("SELECT count(*) FROM (SELECT x FROM t WHERE x IS NOT NULL GROUP BY x)")
    r = _run("expect_column_unique_value_count_to_be_between", min_value=0)
    assert r.result["observed_value"] == want == 4


def test_most_common_value_signed_zero_nan(ray_session):
    want = [v for v, _ in _duck(
        "WITH c AS (SELECT x, count(*) AS n FROM t WHERE x IS NOT NULL GROUP BY x)"
        " SELECT x, n FROM c WHERE n = (SELECT max(n) FROM c)")]
    r = _run("expect_column_most_common_value_to_be_in_set", value_set=[NAN])
    assert _same(r.result["observed_value"], want)
    assert r.success


def test_median_signed_zero_nan(ray_session):
    # DuckDB's median() over NaN depends on the input order; its ORDER BY
    # sorts NaN after every number, so the middle rows come from that order
    (want,), = _duck(
        "WITH s AS (SELECT x, row_number() OVER (ORDER BY x) - 1 AS i,"
        " count(*) OVER () AS n FROM t WHERE x IS NOT NULL)"
        " SELECT avg(x) FROM s WHERE i IN ((n - 1) // 2, n // 2)")
    r = _run("expect_column_median_to_be_between", min_value=-1e9)
    assert _same([r.result["observed_value"]], [want])


# --------------------------------------------------------------------------- #
# typed keys elsewhere
# --------------------------------------------------------------------------- #


def test_cramers_phi_reads_typed_keys(ray_session):
    """A column-A value holding the old key separator stays its own
    category on the driver path and the distributed path."""
    from great_expectations_ray.core.suite import ExpectationConfiguration
    from great_expectations_ray.engine import _finish_cramers_rule

    ds = _blocks(pa.table({"a": ["x\x1fy"] * 10 + ["x"] * 10,
                           "b": ["z"] * 10 + ["y\x1fz"] * 10}), [7, 13])
    cfg = ExpectationConfiguration(
        expectation_type="expect_column_pair_cramers_phi_value_to_be_less_than",
        kwargs={"column_A": "a", "column_B": "b", "threshold": 0.5})
    for cap in (100_000, 0):
        r = _finish_cramers_rule(ds, cfg, max_driver_cells=cap)
        assert (r.result["details"]["rows"], r.result["details"]["cols"]) == (2, 2)
        assert r.result["observed_value"] == pytest.approx(1.0)
        assert not r.success


def test_distributed_entropy_counts_typed_values(ray_session):
    """The overflow entropy path counts ``"x\x00101"`` and ``"x\x00102"``
    apart: a pandas groupby over object strings compares them only up to
    the NUL, and these two share a bucket of the 256."""
    from great_expectations_ray.core.suite import ExpectationConfiguration
    from great_expectations_ray.engine import _finish_entropy_distributed

    ds = _blocks(pa.table({"c": ["x\x00101", "x\x00102", "y", "y", None]}), [1, 3])
    cfg = ExpectationConfiguration(
        expectation_type="expect_column_discrete_entropy_to_be_between",
        kwargs={"column": "c", "min_value": 0})
    r = _finish_entropy_distributed(ds, cfg)
    assert r.result["observed_value"] == pytest.approx(
        math.log(4) - 2 * math.log(2) / 4)


def test_key_column_named_cnt(ray_session):
    """A key column named like the count column: the grouped value counts
    name their keys by position, so entropy, Cramér's φ and the overflow
    value-count families read it as a key."""
    from great_expectations_ray.core.suite import ExpectationConfiguration
    from great_expectations_ray.engine import (
        _finish_cramers_rule,
        _finish_entropy_distributed,
        _finish_vc_rule_distributed,
    )

    ds = _blocks(pa.table({"cnt": [1, 1, 2, 2, 2, 3, None],
                           "b": ["u", "u", "v", "v", "v", "w", "w"]}), [2, 5])

    def cfg(t, **kw):
        return ExpectationConfiguration(expectation_type=t, kwargs=kw)

    r = _finish_entropy_distributed(
        ds, cfg("expect_column_discrete_entropy_to_be_between", column="cnt", min_value=0))
    p = np.array([2, 3, 1]) / 6
    assert r.result["observed_value"] == pytest.approx(float(-(p * np.log(p)).sum()))
    merged = {"counts": {"cnt": (7, 6)}}
    r = _finish_vc_rule_distributed(
        ds, cfg("expect_column_most_common_value_to_be_in_set", column="cnt",
                value_set=[2]), merged)
    assert r.success and r.result["observed_value"] == [2]
    r = _finish_vc_rule_distributed(
        ds, cfg("expect_column_unique_value_count_to_be_between", column="cnt",
                min_value=3, max_value=3), merged)
    assert r.success
    for cap in (100_000, 0):
        r = _finish_cramers_rule(
            ds, cfg("expect_column_pair_cramers_phi_value_to_be_less_than",
                    column_A="cnt", column_B="b", threshold=0.5), max_driver_cells=cap)
        assert (r.result["details"]["rows"], r.result["details"]["cols"]) == (4, 3)


def test_add_bucket_keeps_equal_floats_together(ray_session):
    from great_expectations_ray.functions.bucketed import add_bucket, grouped_apply_bucketed

    nan2 = np.array([0x7FF8000000000001], np.uint64).view(np.float64)[0]
    t = pa.table({"f": [0.0, -0.0, NAN, nan2, -NAN], "s": ["k"] * 5})
    b = add_bucket(t, ["f", "s"], 1 << 20).column("__bucket").to_pylist()
    assert b[0] == b[1] and b[2] == b[3] == b[4]

    def count(g: pa.Table) -> pa.Table:
        f = pa.table({"f": pc.add(g.column("f"), 0.0)})
        return f.group_by("f").aggregate([([], "count_all")])

    ds = rd.from_arrow([pa.table({"f": [v] * 3}) for v in (0.0, -0.0, 0.0, -0.0)])
    out = grouped_apply_bucketed(ds, ["f"], count).take_all()
    assert [r["count_all"] for r in out] == [12]


# --------------------------------------------------------------------------- #
# executions over the input
# --------------------------------------------------------------------------- #


@contextmanager
def _logged():
    """Execution plans and schema-drift warnings Ray Data logs."""
    plans: list[str] = []
    drift: list[str] = []

    class Grab(logging.Handler):
        def emit(self, record):
            msg = record.getMessage()
            if msg.startswith("Execution plan of Dataset"):
                plans.append(msg)
            if "RefBundle with a different schema" in msg:
                drift.append(msg)

    loggers = [logging.getLogger("ray.data._internal.execution.streaming_executor"),
               logging.getLogger("ray.data._internal.execution.streaming_executor_state")]
    saved = []
    for lg in loggers:
        h = Grab(level=logging.INFO)
        saved.append((lg, h, lg.level))
        lg.addHandler(h)
        lg.setLevel(logging.INFO)
    try:
        yield plans, drift
    finally:
        for lg, h, level in saved:
            lg.removeHandler(h)
            lg.setLevel(level)


def _lineitem_like(n: int = 3000) -> pa.Table:
    rng = np.random.default_rng(5)
    modes = np.array(["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"])
    return pa.table({
        "l_orderkey": pa.array(rng.integers(0, n // 3, n), pa.int64()),
        "l_shipmode": pa.array(modes[rng.integers(0, 7, n)]),
        "l_quantity": pa.array(rng.integers(1, 51, n).astype(float)),
        "l_returnflag": pa.array(np.array(["A", "N", "R"])[rng.integers(0, 3, n)]),
        "l_discount": pa.array(rng.integers(0, 11, n) / 100.0),
        "l_shipdate": pa.array([f"1995-0{1 + i % 9}-1{i % 10}" for i in range(n)]),
        "l_extendedprice": pa.array(np.round(rng.lognormal(10, 0.8, n), 2)),
    })


def test_unique_suite_runs_one_execution(ray_session):
    derived = _blocks(_lineitem_like(), [700, 1500, 2200]).map_batches(
        lambda t: t, batch_format="pyarrow")
    suite = (ExpectationSuite("u")
             .add("expect_compound_columns_to_be_unique",
                  column_list=["l_orderkey", "l_shipmode"])
             .add("expect_column_values_to_be_unique", column="l_orderkey")
             .add("expect_table_columns_to_match_set",
                  column_set=_lineitem_like().column_names))
    with _logged() as (plans, drift):
        res = validate(derived, suite)
    assert len(plans) == 1, plans
    assert "_PartialEvaluator" in plans[0]
    assert not drift, drift
    assert res.results[2].success


def test_benchmark_shaped_suite_runs_one_execution(ray_session):
    suite = (ExpectationSuite("b")
             .add("expect_column_values_to_be_between", column="l_quantity",
                  min_value=1, max_value=45)
             .add("expect_column_values_to_be_in_set", column="l_returnflag",
                  value_set=["A", "N"])
             .add("expect_column_mean_to_be_between", column="l_discount",
                  min_value=0.0, max_value=0.2)
             .add("expect_table_row_count_to_be_between", min_value=1)
             .add("expect_column_values_to_be_dateutil_parseable", column="l_shipdate")
             .add("expect_compound_columns_to_be_unique",
                  column_list=["l_orderkey", "l_shipmode"])
             .add("expect_column_distinct_values_to_be_in_set", column="l_shipmode",
                  value_set=["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"])
             .add("expect_column_values_to_not_be_outliers", column="l_extendedprice",
                  method="iqr", multiplier=1.5))
    ds = _blocks(_lineitem_like(), [900, 2000])
    with _logged() as (plans, drift):
        res = validate(ds, suite)
    assert len(plans) == 1, plans
    assert not drift, drift
    assert res.results[7].result["unexpected_count"] > 0  # settled with outliers


def test_outliers_settled_by_value_counts_skip_phase2(ray_session):
    """The IQR rule is finished from the exact value counts, with the
    re-stream's answer, unless the result shows which rows are unexpected."""
    tbl = pa.table({"v": pa.array([2.0, 2.0, 2.5, 3.0, None, 2.5] * 50),
                    "id": pa.array(range(300))})
    outlier = pa.table({"v": pa.array([1.0, 2.0, 2.0, 3.0, 40.0] * 50),
                        "id": pa.array(range(250))})
    by_id = {"result_format": "SUMMARY", "unexpected_index_column_names": ["id"]}
    for t, fmt, runs, n_bad in [(tbl, "SUMMARY", 1, 0), (outlier, "BOOLEAN_ONLY", 1, None),
                                (outlier, "SUMMARY", 1, 50), (tbl, by_id, 1, 0),
                                (outlier, by_id, 2, 50)]:
        suite = ExpectationSuite("o").add(
            "expect_column_values_to_not_be_outliers", column="v", method="iqr")
        with _logged() as (plans, _):
            r = validate(_blocks(t, [77, 190]), suite, result_format=fmt).results[0]
        assert len(plans) == runs, (fmt, plans)
        assert r.success == (t is tbl)
        if n_bad is not None:
            assert r.result["unexpected_count"] == n_bad
        if fmt is by_id and n_bad:
            assert len(r.result["partial_unexpected_index_list"]) == 20
