"""Extended engine coverage: ordered, KL, chi-square, Cramér's φ,
cross-table row count, UDF predicate hook, stubs."""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pytest

from great_expectations_ray import ExpectationSuite, validate
from great_expectations_ray.engine import validate as validate_full


@pytest.fixture(scope="module")
def ordered_ds():
    import ray.data as rd

    # 3 groups: g0 increasing, g1 has 2 violations, g2 single row
    t = pa.table({
        "g": ["a"] * 5 + ["b"] * 5 + ["c"],
        "ts": list(range(5)) + list(range(5)) + [0],
        "v": [1, 2, 3, 4, 5] + [1, 3, 2, 5, 4] + [9],
    })
    return rd.from_arrow(t).repartition(3)


def test_increasing_grouped(ordered_ds):
    suite = ExpectationSuite("o").add(
        "expect_column_values_to_be_increasing",
        column="v", partition_by="g", order_by="ts",
    )
    r = validate(ordered_ds, suite).results[0]
    assert r.result["element_count"] == 11
    assert r.result["unexpected_count"] == 2
    assert not r.success
    # strictly decreasing on same data
    suite2 = ExpectationSuite("o2").add(
        "expect_column_values_to_be_decreasing",
        column="v", partition_by="g", order_by="ts", strictly=True,
    )
    r2 = validate(ordered_ds, suite2).results[0]
    assert r2.result["unexpected_count"] == 8 - 2  # non-decreasing steps


def test_ordered_keyless_runs_global(ordered_ds):
    # keyless increasing now runs the GLOBAL dataset-order check (pandas
    # series.diff() parity): rows [1,2,3,4,5, 1,3,2,5,4, 9] have 3
    # descending steps (5->1, 3->2, 5->4) regardless of block splits
    suite = ExpectationSuite("glob").add(
        "expect_column_values_to_be_increasing", column="v"
    )
    r = validate(ordered_ds, suite).results[0]
    assert not r.success
    assert r.exception_info is None or not r.exception_info.get("raised_exception")
    assert r.result["unexpected_count"] == 3
    # HALF-specified keys stay a config error
    bad = ExpectationSuite("bad").add(
        "expect_column_values_to_be_increasing", column="v", partition_by="g"
    )
    rb = validate(ordered_ds, bad).results[0]
    assert not rb.success and rb.exception_info["raised_exception"]


@pytest.fixture(scope="module")
def dist_ds():
    import ray.data as rd

    vals = ["x"] * 50 + ["y"] * 30 + ["z"] * 20
    nums = list(np.random.default_rng(5).uniform(0, 10, 200))
    return rd.from_arrow(pa.table({
        "cat": pa.array(vals * 2, pa.string()),
        "num": pa.array(nums, pa.float64()),
    })).repartition(4)


def test_kl_discrete(dist_ds):
    suite = ExpectationSuite("kl").add(
        "expect_column_kl_divergence_to_be_less_than",
        column="cat",
        partition_object={"values": ["x", "y", "z"], "weights": [0.5, 0.3, 0.2]},
        threshold=0.05,
    )
    r = validate(dist_ds, suite).results[0]
    assert r.success, r.to_json_dict()
    assert r.result["observed_value"] == pytest.approx(0.0, abs=1e-6)
    # unexpected support value -> inf -> failure
    suite2 = ExpectationSuite("kl2").add(
        "expect_column_kl_divergence_to_be_less_than",
        column="cat",
        partition_object={"values": ["x", "y"], "weights": [0.6, 0.4]},
        threshold=10.0,
    )
    r2 = validate(dist_ds, suite2).results[0]
    assert not r2.success and r2.result["observed_value"] is None


def test_kl_continuous(dist_ds):
    suite = ExpectationSuite("klc").add(
        "expect_column_kl_divergence_to_be_less_than",
        column="num",
        partition_object={"bins": [0, 2.5, 5, 7.5, 10], "weights": [0.25] * 4},
        threshold=0.1,
    )
    r = validate(dist_ds, suite).results[0]
    assert r.success, r.to_json_dict()
    assert 0 <= r.result["observed_value"] < 0.1


def test_chisquare(dist_ds):
    suite = ExpectationSuite("chi").add(
        "expect_column_chisquare_test_p_value_to_be_greater_than",
        column="cat",
        partition_object={"values": ["x", "y", "z"], "weights": [0.5, 0.3, 0.2]},
        p=0.05,
    )
    r = validate(dist_ds, suite).results[0]
    assert r.success
    assert r.result["observed_value"] > 0.9  # exact match distribution


def test_chisquare_pvalue_math():
    from great_expectations_ray.functions.stats_math import chi2_sf, chisquare_test

    # known values: chi2_sf(3.84, 1) ~ 0.05; chi2_sf(5.99, 2) ~ 0.05
    assert chi2_sf(3.841458820694124, 1) == pytest.approx(0.05, rel=1e-6)
    assert chi2_sf(5.991464547107979, 2) == pytest.approx(0.05, rel=1e-6)
    stat, p = chisquare_test([50, 30, 20], [50, 30, 20])
    assert stat == 0 and p == pytest.approx(1.0)


def test_cramers_phi(dist_ds):
    import ray.data as rd

    # perfectly associated pair -> phi = 1; independent -> ~0
    t = pa.table({
        "a": ["p", "q"] * 100,
        "b_assoc": ["P", "Q"] * 100,
        "b_indep": ["P"] * 100 + ["Q"] * 100,
    })
    ds = rd.from_arrow(t).repartition(3)
    suite = (
        ExpectationSuite("cr")
        .add("expect_column_pair_cramers_phi_value_to_be_less_than",
             column_A="a", column_B="b_assoc", threshold=0.5)
        .add("expect_column_pair_cramers_phi_value_to_be_less_than",
             column_A="a", column_B="b_indep", threshold=0.5)
    )
    res = validate(ds, suite)
    assert not res.results[0].success
    assert res.results[0].result["observed_value"] == pytest.approx(1.0)
    assert res.results[1].success


def test_cross_table_row_count(fixture_ds):
    import ray.data as rd

    other = rd.range(100)
    suite = ExpectationSuite("x").add(
        "expect_table_row_count_to_equal_other_table", other_table_name="o"
    )
    res = validate_full(fixture_ds, suite, other_tables={"o": other})
    assert res.results[0].success
    assert res.results[0].result["observed_value"] == {"self": 100, "other": 100}


def test_unexpected_rows_dsl(fixture_ds):
    suite = ExpectationSuite("u").add(
        "unexpected_rows_expectation",
        unexpected_condition='col("n_int") > 45',
        sample_column="n_int",
    )
    r = validate(fixture_ds, suite).results[0]
    import pandas as pd

    assert r.result["unexpected_count"] > 0
    assert all(int(v) > 45 for v in r.result["partial_unexpected_list"])


def test_unexpected_rows_callable(fixture_ds):
    # lambda -> cloudpickle serializes by VALUE (a module-level function in
    # tests/ would be pickled by reference and fail to import in workers)
    suite = ExpectationSuite("u2").add(
        "unexpected_rows_expectation",
        unexpected_fn=lambda tbl: __import__("pyarrow").compute.greater(
            tbl.column("mc_3"), 2
        ).combine_chunks().to_numpy(zero_copy_only=False),
    )
    r = validate(fixture_ds, suite).results[0]
    assert r.result["unexpected_count"] == 90  # mc_3 == 3 in 90 rows


def test_ks_missing_partition_object_fails_cleanly(fixture_ds):
    # bootstrapped KS (now a real implementation — see tests/test_ks.py)
    # still yields a failed EVR, not a crash, on bad config
    suite = ExpectationSuite("ks").add(
        "expect_column_bootstrapped_ks_test_p_value_to_be_greater_than",
        column="n_float",
    )
    r = validate(fixture_ds, suite).results[0]
    assert not r.success
    assert "partition_object" in r.exception_info["exception_message"]


def test_catch_exceptions_false_raises(fixture_ds):
    with pytest.raises(RuntimeError):
        validate_full(
            fixture_ds,
            ExpectationSuite("x").add("expect_totally_unknown_thing", column="a"),
            catch_exceptions=False,
        )


def test_custom_expectation_registration(fixture_ds):
    """§2.7 extension surface: third-party kernels via @register_condition
    flow through compile/validate like core expectations."""
    import numpy as np
    import pyarrow.compute as pc

    from great_expectations_ray.functions.column_map import (
        KernelResult,
        register_condition,
    )

    @register_condition("expect_column_values_to_be_even")
    def _even(tbl, kwargs):
        col = tbl.column(kwargs["column"])
        valid = np.asarray(pc.is_valid(col).combine_chunks(), dtype=bool)
        vals = pc.fill_null(pc.cast(col, "int64"), 1)
        rem = pc.subtract(vals, pc.multiply(pc.divide(vals, 2), 2))
        meets = np.asarray(pc.equal(rem, 0).combine_chunks(), dtype=bool)
        return KernelResult(meets & valid, valid, col.combine_chunks(),
                            int((~valid).sum()))

    r = validate(fixture_ds, ExpectationSuite("c").add(
        "expect_column_values_to_be_even", column="mc_2"  # all 2s
    )).results[0]
    assert r.success and r.result["unexpected_count"] == 0
    r2 = validate(fixture_ds, ExpectationSuite("c2").add(
        "expect_column_values_to_be_even", column="mc_1"  # all 1s
    )).results[0]
    assert not r2.success and r2.result["unexpected_count"] == 100


def test_high_cardinality_distinct_distributed():
    """>100k distinct values overflows the in-pass value-count partials;
    distinct-set / unique-count / most-common verdicts must then compute ON
    the grouped dataset (details.distributed=True) with native-typed keys —
    no driver collection of the 10M keys (VERDICT r1 item 3)."""
    import ray.data as rd

    from great_expectations_ray import ExpectationSuite, validate

    n = 10_000_000
    ds = rd.range(n)  # column "id", all distinct int64
    suite = (
        ExpectationSuite("hc")
        .add("expect_column_unique_value_count_to_be_between",
             column="id", min_value=n, max_value=n)
        .add("expect_column_proportion_of_unique_values_to_be_between",
             column="id", min_value=1.0, max_value=1.0)
        .add("expect_column_distinct_values_to_be_in_set",
             column="id", value_set=[0, 1, 2])
    )
    res = validate(ds, suite)
    by_type = {r.expectation_config["expectation_type"]: r for r in res.results}
    r_count = by_type["expect_column_unique_value_count_to_be_between"]
    assert r_count.success and r_count.result["observed_value"] == n
    assert r_count.result["details"]["distributed"] is True
    r_prop = by_type["expect_column_proportion_of_unique_values_to_be_between"]
    assert r_prop.success and r_prop.result["observed_value"] == 1.0
    r_set = by_type["expect_column_distinct_values_to_be_in_set"]
    assert not r_set.success
    # observed sample is bounded (MAX_RESULT_RECORDS) and typed (int, not str)
    assert len(r_set.result["observed_value"]) <= 200
    assert all(isinstance(v, int) for v in r_set.result["observed_value"])
    assert r_set.result["details"]["unexpected_distinct_count"] == n - 3


def test_unexpected_rows_sql_predicate():
    """QueryExpectation parity (#59-61): the reference's {batch}-templated
    SQL contract, executed per Arrow batch via DuckDB."""
    import ray.data as rd

    from great_expectations_ray import ExpectationSuite, validate

    ds = rd.from_items(
        [{"qty": q, "price": p} for q, p in
         [(5, 10.0), (-2, 3.0), (7, -1.0), (0, 0.0)]]
    )
    suite = ExpectationSuite("sqlx").add(
        "unexpected_rows_expectation",
        unexpected_sql="SELECT * FROM {batch} WHERE qty < 0 OR price < 0",
    )
    res = validate(ds, suite)
    evr = res.results[0]
    assert not evr.success
    assert evr.result["unexpected_count"] == 2
    # missing __row_idx propagation is a loud config error
    bad = ExpectationSuite("sqlbad").add(
        "unexpected_rows_expectation",
        unexpected_sql="SELECT qty FROM {batch} WHERE qty < 0",
    )
    resb = validate(ds, bad)
    assert not resb.results[0].success
    assert resb.results[0].exception_info["raised_exception"]


def test_unexpected_rows_global_sql_self_join():
    """scope='table' (#60-61 global path): a cross-row predicate the
    per-batch path CANNOT express — a self-join duplicate check over the
    whole asset (reference unexpected_rows_expectation.py:138-153:
    success = 0 returned rows)."""
    import ray.data as rd

    from great_expectations_ray import ExpectationSuite, validate

    ds = rd.from_items(
        [{"k": k, "v": i} for i, k in enumerate([1, 2, 3, 2, 4, 1])]
    ).repartition(3)  # duplicates straddle batches: per-batch SQL misses them
    suite = ExpectationSuite("gsql").add(
        "unexpected_rows_expectation",
        scope="table",
        unexpected_sql="""
            SELECT a.k, a.v FROM {batch} a
            JOIN (SELECT k FROM {batch} GROUP BY k HAVING COUNT(*) > 1) d
              USING (k)
        """,
    )
    evr = validate(ds, suite).results[0]
    assert not evr.success
    assert evr.result["unexpected_count"] == 4  # rows of k=1 and k=2
    assert evr.result["observed_value"] == "4 unexpected rows"
    assert evr.result["element_count"] == 6
    ks = sorted(r["k"] for r in evr.result["details"]["unexpected_rows"])
    assert ks == [1, 1, 2, 2]

    # the same corpus with no duplicates passes
    clean = rd.from_items([{"k": k, "v": k} for k in range(5)])
    evr2 = validate(clean, suite).results[0]
    assert evr2.success and evr2.result["unexpected_count"] == 0


def test_unexpected_rows_global_sql_aggregate_predicate():
    """scope='table' with a whole-asset aggregate in the predicate."""
    import ray.data as rd

    from great_expectations_ray import ExpectationSuite, validate

    ds = rd.from_items([{"x": v} for v in [1.0, 2.0, 3.0, 100.0]])
    suite = ExpectationSuite("gagg").add(
        "unexpected_rows_expectation",
        scope="table",
        unexpected_sql=(
            "SELECT x FROM {batch} "
            "WHERE x > 3 * (SELECT AVG(x) FROM {batch})"
        ),
    )
    evr = validate(ds, suite).results[0]
    assert not evr.success and evr.result["unexpected_count"] == 1
    assert evr.result["details"]["unexpected_rows"] == [{"x": 100.0}]


def test_unexpected_rows_global_sql_requires_sql():
    import ray.data as rd

    from great_expectations_ray import ExpectationSuite, validate

    ds = rd.from_items([{"x": 1}])
    suite = ExpectationSuite("gbad").add(
        "unexpected_rows_expectation",
        scope="table",
        unexpected_condition='col("x") > 0',
    )
    evr = validate(ds, suite).results[0]
    assert not evr.success and evr.exception_info["raised_exception"]
    assert "unexpected_sql" in evr.exception_info["exception_message"]


def test_increasing_counts_null_partition_keys(ray_session):
    """Null partition keys form ONE group (SQL PARTITION BY semantics) and
    their violations are counted — they must not be silently dropped."""
    import ray.data as rd

    from great_expectations_ray.functions.ordered import grouped_monotonic

    t = pa.table({
        "k": pa.array(["a", "a", None, None, None], pa.string()),
        "o": pa.array([1, 2, 1, 2, 3], pa.int64()),
        "v": pa.array([1.0, 2.0, 5.0, 3.0, 4.0], pa.float64()),
    })
    out = (
        grouped_monotonic(rd.from_arrow(t).repartition(2), column="v",
                          partition_by="k", order_by="o")
        .to_pandas()
    )
    assert len(out) == 2  # the "a" group AND the null group
    null_row = out[out["k"].isna()].iloc[0]
    assert null_row["n_rows"] == 3
    assert null_row["n_violations"] == 1  # 5.0 -> 3.0 within the null group
    a_row = out[out["k"] == "a"].iloc[0]
    assert a_row["n_violations"] == 0


def test_increasing_global_no_partition(ray_session):
    """#21/#22 without partition_by/order_by: the GLOBAL dataset-order check
    (functions/ordered.py global_monotonic — per-block Ray tasks + driver
    boundary stitch), matching GX's pandas series.diff() semantics."""
    import ray.data as rd

    # 3 blocks; within-block violation at 7->3 (block 2), boundary violation
    # at block1-last=9 -> block2-first=7
    t = pa.table({"v": [1, 2, 5, 8, 9, 7, 3, 10, 11, 12]})
    ds = rd.from_arrow(t).repartition(3)
    suite = ExpectationSuite("gm").add(
        "expect_column_values_to_be_increasing", column="v")
    r = validate(ds, suite).results[0]
    assert r.result["element_count"] == 10
    assert r.result["unexpected_count"] == 2
    assert not r.success
    assert set(r.result["partial_unexpected_list"]) == {7, 3}

    # nulls dropped (reference filter_column_isnull), boundary carries
    # ACROSS an all-null block; non-strict allows equality
    t2 = pa.table({"v": [1.0, 2.0, None, None, 2.0, 3.0]})
    r2 = validate(rd.from_arrow(t2).repartition(3),
                  ExpectationSuite("gm2").add(
                      "expect_column_values_to_be_increasing", column="v")
                  ).results[0]
    assert r2.success, r2.to_json_dict()
    assert r2.result["missing_count"] == 2

    # strictly decreasing, mostly: 1 equality violation out of 4 diffs
    t3 = pa.table({"v": [9, 7, 7, 5, 1]})
    r3 = validate(rd.from_arrow(t3).repartition(2),
                  ExpectationSuite("gm3").add(
                      "expect_column_values_to_be_decreasing", column="v",
                      strictly=True, mostly=0.7)).results[0]
    assert r3.result["unexpected_count"] == 1
    assert r3.success  # 4/5 = 0.8 >= 0.7

    # timestamps work (datetime64 diff path)
    import datetime as _dt
    ts = [_dt.datetime(2024, 1, d) for d in (1, 2, 3, 2, 5)]
    r4 = validate(rd.from_arrow(pa.table({"v": ts})).repartition(2),
                  ExpectationSuite("gm4").add(
                      "expect_column_values_to_be_increasing", column="v")
                  ).results[0]
    assert r4.result["unexpected_count"] == 1 and not r4.success

    # order_by WITHOUT partition_by: half-specified keys -> failed EVR
    # (compile-time config error), not a silent global fallback
    r5 = validate(ds, ExpectationSuite("gm5").add(
        "expect_column_values_to_be_increasing", column="v",
        order_by="v")).results[0]
    assert not r5.success
    assert "partition_by" in (r5.exception_info or {}).get(
        "exception_message", "")


def test_cramers_phi_distributed_matches_driver(ray_session):
    """A pair whose distinct-cell count exceeds the cap must take the
    distributed chi^2 path (driver never pulls the contingency table) and
    agree with the driver math on the same data."""
    import ray.data as rd

    from great_expectations_ray.core.suite import ExpectationConfiguration
    from great_expectations_ray.engine import _finish_cramers_rule

    rng = np.random.default_rng(7)
    n = 4000
    a = rng.integers(0, 40, n)
    b = (a // 2 + rng.integers(0, 3, n)) % 25  # associated but noisy
    ds = rd.from_arrow(pa.table({
        "a": [f"a{x}" for x in a], "b": [f"b{x}" for x in b],
    })).repartition(4)
    cfg = ExpectationConfiguration(
        expectation_type="expect_column_pair_cramers_phi_value_to_be_less_than",
        kwargs={"column_A": "a", "column_B": "b", "threshold": 0.5},
    )
    driver = _finish_cramers_rule(ds, cfg)  # cells << cap: driver path
    dist = _finish_cramers_rule(ds, cfg, max_driver_cells=0)  # force fallback
    assert "distributed" not in driver.result["details"]
    assert dist.result["details"]["distributed"] is True
    assert dist.result["details"]["n"] == driver.result["details"]["n"] == n
    assert dist.result["details"]["rows"] == driver.result["details"]["rows"]
    assert dist.result["details"]["cols"] == driver.result["details"]["cols"]
    assert dist.result["observed_value"] == pytest.approx(
        driver.result["observed_value"], rel=1e-9)
    assert dist.success == driver.success


def test_cramers_phi_matches_numpy_crosstab(ray_session):
    """Driver-path φ on a sub-cap table with >=100 levels per column, pinned
    against a dense numpy crosstab."""
    import ray.data as rd

    from great_expectations_ray.core.suite import ExpectationConfiguration
    from great_expectations_ray.engine import _finish_cramers_rule

    rng = np.random.default_rng(11)
    n = 30_000
    a = rng.integers(0, 120, n)
    b = (a + rng.integers(0, 15, n)) % 110
    ds = rd.from_arrow(pa.table({
        "a": [f"a{x}" for x in a], "b": [f"b{x}" for x in b],
    })).repartition(4)
    cfg = ExpectationConfiguration(
        expectation_type="expect_column_pair_cramers_phi_value_to_be_less_than",
        kwargs={"column_A": "a", "column_B": "b", "threshold": 0.5},
    )
    got = _finish_cramers_rule(ds, cfg)

    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    obs = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(obs, (ai, bi), 1)
    exp = np.outer(obs.sum(axis=1), obs.sum(axis=0)) / n
    phi = math.sqrt(((obs - exp) ** 2 / exp).sum() / (n * (min(obs.shape) - 1)))
    assert "distributed" not in got.result["details"]
    assert (got.result["details"]["rows"], got.result["details"]["cols"]) == obs.shape
    assert got.result["observed_value"] == pytest.approx(phi, rel=1e-9)
    assert got.success == (phi < 0.5)
