"""IQR outlier rules settled from phase 1's exact value counts.

- Under ``BASIC``, ``SUMMARY`` and ``COMPLETE`` the settled rule equals
  DuckDB: counts, the exact top-20 ``partial_unexpected_counts``, and the
  sample as the first values of the sorted unexpected multiset, over
  columns with nulls, NaN and ``-0.0`` split into several blocks; one
  execution over the input.
- Every rule that still needs the second read runs it: ``row_condition``,
  index columns, unexpected rows, overflowed counts, ``method="std"`` and
  z-scores.
- A grouped IQR-only suite runs one execution and matches ``validate`` on
  each slice.
- Merged map partials keep counting the unexpected values they hold past
  200 distinct values (every map rule).
- The grouped and mergeable-state paths take the schema from their
  batches: a derived input is never probed with a ``LimitOperator``.
"""

from __future__ import annotations

import math

import duckdb
import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from great_expectations_ray import SuiteValidationState, validate_grouped_wide
from great_expectations_ray.core.suite import ExpectationSuite
from great_expectations_ray.engine import validate
from great_expectations_ray.pipelines.grouped import validate_grouped
from tests.test_unique_keys import _blocks, _logged

OUTLIERS = "expect_column_values_to_not_be_outliers"


def _column(seed: int = 3, n: int = 2000) -> list:
    """Values around 100 with nulls, NaN, ``-0.0``/``0.0`` and a tail of
    outliers whose counts tie, so the top-20 tie-break is exercised."""
    rng = np.random.default_rng(seed)
    vals = [float(v) for v in np.round(rng.normal(100, 4, n), 1)]
    vals += [None] * 37 + [math.nan] * 5 + [-0.0] * 4 + [0.0] * 3
    for i in range(30):
        vals += [300.0 + i] * (1 + i % 4)
    rng.shuffle(vals)
    return vals


def _norm(v):
    return "NaN" if isinstance(v, float) and v != v else v


def _duck_truth(vals: list, multiplier: float = 1.5) -> dict:
    con = duckdb.connect()
    try:
        con.register("t", pa.table({"v": pa.array(vals, pa.float64())}))
        q1, q2, q3 = con.execute(
            "SELECT quantile_cont(v, 0.25), quantile_cont(v, 0.5),"
            " quantile_cont(v, 0.75) FROM t").fetchone()
        bad = (f"v IS NOT NULL AND NOT (abs(v - {q2!r}) < {multiplier!r} * "
               f"({q3!r} - {q1!r}))")
        ordered = [r[0] for r in con.execute(
            f"SELECT v FROM t WHERE {bad} ORDER BY v").fetchall()]
        counts = con.execute(
            f"SELECT v, count(*) FROM t WHERE {bad} GROUP BY v").fetchall()
        total, nulls = con.execute(
            "SELECT count(*), count(*) - count(v) FROM t").fetchone()
    finally:
        con.close()
    top = sorted(counts, key=lambda vc: (-vc[1], str(vc[0])))
    return {"unexpected": ordered, "counts": top, "element_count": total,
            "missing_count": nulls}


@pytest.mark.parametrize("fmt", ["BASIC", "SUMMARY", "COMPLETE"])
def test_settled_outliers_match_duckdb(ray_session, fmt):
    vals = _column()
    truth = _duck_truth(vals)
    assert len(truth["unexpected"]) > 50 and len(truth["counts"]) > 20
    tbl = pa.table({"v": pa.array(vals, pa.float64())})
    suite = ExpectationSuite("o").add(OUTLIERS, column="v", method="iqr")
    with _logged() as (plans, _):
        r = validate(_blocks(tbl, [311, 900, 1500, 1800]), suite,
                     result_format=fmt).results[0].result
    assert len(plans) == 1, plans
    assert r["unexpected_count"] == len(truth["unexpected"])
    assert r["element_count"] == truth["element_count"]
    assert r["missing_count"] == truth["missing_count"]
    want = [_norm(v) for v in truth["unexpected"]]
    assert [_norm(v) for v in r["partial_unexpected_list"]] == want[:20]
    if fmt != "BASIC":
        assert [(_norm(d["value"]), d["count"]) for d in r["partial_unexpected_counts"]] \
            == [(_norm(v), c) for v, c in truth["counts"][:20]]
    if fmt == "COMPLETE":
        assert [_norm(v) for v in r["unexpected_list"]] == want[:200]


def _second_reads(plans: list[str]) -> int:
    return sum("MapBatches(_PartialEvaluator)" in p for p in plans)


@pytest.mark.parametrize("case", ["row_condition", "index", "rows", "std", "z_score"])
def test_fallbacks_take_the_second_read(ray_session, case):
    rng = np.random.default_rng(8)
    v = np.round(rng.normal(100, 4, 600), 1)
    v[:9] = 900.0
    tbl = pa.table({"v": v, "id": np.arange(600), "g": rng.integers(0, 2, 600)})
    kwargs: dict = {"column": "v"}
    rtype, fmt = OUTLIERS, "SUMMARY"
    if case == "row_condition":
        kwargs["row_condition"] = 'col("g") == 1'
    elif case == "index":
        fmt = {"result_format": "SUMMARY", "unexpected_index_column_names": ["id"]}
    elif case == "rows":
        fmt = {"result_format": "SUMMARY", "include_unexpected_rows": True}
    elif case == "std":
        kwargs["method"] = "std"
    else:
        rtype = "expect_column_value_z_scores_to_be_less_than"
        kwargs.update(threshold=3, double_sided=True)
    suite = ExpectationSuite("f").add(rtype, **kwargs)
    with _logged() as (plans, _):
        r = validate(_blocks(tbl, [200, 450]), suite, result_format=fmt).results[0]
    assert len(plans) == 2, plans
    assert not r.success and r.result["unexpected_count"] >= 1
    if case == "index":
        assert r.result["partial_unexpected_index_list"]
    if case == "rows":
        assert r.result["unexpected_rows"]


def test_overflowed_counts_take_the_second_read(ray_session):
    """Past ``ValueCountsState.CAP`` distinct values the quartiles come from
    the distributed rank selection and the rule from the second read."""
    v = np.arange(100_500, dtype=np.float64)
    v[:3] = 1e9
    tbl = pa.table({"v": v})
    suite = ExpectationSuite("f").add(OUTLIERS, column="v", method="iqr")
    with _logged() as (plans, _):
        r = validate(_blocks(tbl, [30_000, 70_000]), suite).results[0]
    assert _second_reads(plans) == 2, plans
    assert r.result["unexpected_count"] == 3


def test_grouped_outliers_run_one_execution(ray_session):
    rng = np.random.default_rng(21)
    n = 1500
    g = rng.choice(["a", "b", "c"], n)
    v = np.where(g == "b", rng.normal(500, 30, n), rng.normal(50, 5, n)).round(1)
    v[rng.choice(n, 25, replace=False)] = 5000.0
    vals = [None if i % 97 == 0 else float(x) for i, x in enumerate(v)]
    tbl = pa.table({"g": g, "v": pa.array(vals, pa.float64())})
    suite = ExpectationSuite("go").add(OUTLIERS, column="v", method="iqr",
                                       multiplier=2.0)
    with _logged() as (plans, _):
        got = validate_grouped(_blocks(tbl, [400, 900, 1200]), suite, by="g")
    assert len(plans) == 1, plans
    for key in ("a", "b", "c"):
        mask = pa.array(g == key)
        ref = validate(_blocks(tbl.filter(mask), [100]), suite).results[0]
        res = got[key].results[0]
        assert res.success == ref.success
        assert res.result == ref.result, key
    assert sum(got[k].results[0].result["unexpected_count"] for k in "abc") >= 25


def test_map_value_counts_keep_counting_held_values(ray_session):
    """One unexpected value in every block and more than 200 distinct
    unexpected values: the held value's count stays exact."""
    parts = []
    for b in range(8):
        vals = [-7] * 3 + [-(1000 + 50 * b + j) for j in range(50)] + list(range(40))
        parts.append(pa.table({"x": pa.array(vals, pa.int64())}))
    tbl = pa.concat_tables(parts)
    con = duckdb.connect()
    con.register("t", tbl)
    want = con.execute("SELECT x, count(*) AS c FROM t WHERE x < 0 GROUP BY x"
                       " ORDER BY c DESC, CAST(x AS VARCHAR) LIMIT 1").fetchone()
    con.close()
    ds = rd.from_arrow(parts)
    suite = ExpectationSuite("m").add("expect_column_values_to_be_between",
                                      column="x", min_value=0)
    r = validate(ds, suite).results[0].result
    assert r["unexpected_count"] == 8 * 53
    assert r["partial_unexpected_counts"][0] == {"value": want[0], "count": want[1]}
    assert want == (-7, 24)


def test_grouped_and_state_paths_take_the_schema_from_batches(ray_session):
    tbl = pa.table({"g": ["a", "b", "a", "c"] * 50, "v": np.arange(200.0)})
    derived = _blocks(tbl, [60, 130]).map_batches(lambda t: t, batch_format="pyarrow")
    suite = (ExpectationSuite("s")
             .add("expect_table_columns_to_match_set", column_set=["g", "v"])
             .add("expect_column_values_to_be_between", column="v", min_value=0))
    with _logged() as (plans, _):
        narrow = validate_grouped(derived, suite, by="g")
        wide = validate_grouped_wide(derived, suite, by="g").take_all()
        state = SuiteValidationState.compute(derived, suite)
    assert plans and not [p for p in plans if "LimitOperator" in p], plans
    assert all(r.success for r in narrow.values()) and len(narrow) == 3
    assert all(row["success"] for row in wide) and len(wide) == 3
    assert state.schema.names == ["g", "v"]
    assert state.finish().success
