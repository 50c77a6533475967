"""validate_many (engine.py): N suites over one Dataset in ONE fused pass,
pinned EVR-for-EVR against running validate() per suite — the reference's
checkpoint pays one pass per validation definition
(checkpoint/checkpoint.py:274-304); this pays one total."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from great_expectations_ray import ExpectationSuite, validate, validate_many


def _frame() -> pd.DataFrame:
    rng = np.random.default_rng(3)
    n = 300
    return pd.DataFrame({
        "v": rng.integers(0, 80, size=n).astype(float),
        "s": rng.choice(["x", "y", "z"], size=n),
    })


def _suites() -> list[ExpectationSuite]:
    a = (ExpectationSuite("a")
         .add("expect_column_values_to_be_between", column="v",
              min_value=0, max_value=100)
         .add("expect_column_mean_to_be_between", column="v",
              min_value=10, max_value=60)
         .add("expect_table_row_count_to_be_between", min_value=1))
    b = (ExpectationSuite("b")
         .add("expect_column_values_to_be_in_set", column="s",
              value_set=["x", "y"], mostly=0.5)
         .add("expect_column_values_to_be_unique", column="v", mostly=0.1)
         .add("expect_column_distinct_values_to_be_in_set", column="s",
              value_set=["x", "y", "z"]))
    c = (ExpectationSuite("c")
         .add("expect_column_values_to_be_between", column="v",
              min_value=50, max_value=60))  # fails
    return [a, b, c]


def test_validate_many_matches_per_suite(ray_session):
    ds = rd.from_pandas(_frame()).repartition(4)
    suites = _suites()
    many = validate_many(ds, suites)
    assert set(many) == {"a", "b", "c"}
    for s in suites:
        ref = validate(ds, s)
        got = many[s.name]
        assert got.success == ref.success, s.name
        assert got.statistics == ref.statistics, s.name
        assert got.suite_name == s.name
        assert len(got.results) == len(ref.results)
        for ge, re_ in zip(got.results, ref.results):
            assert ge.success == re_.success
            gd, rd_ = ge.to_json_dict(), re_.to_json_dict()
            assert (gd["expectation_config"]["expectation_type"]
                    == rd_["expectation_config"]["expectation_type"])
            for fld in ("element_count", "unexpected_count",
                        "observed_value"):
                assert gd["result"].get(fld) == rd_["result"].get(fld), (
                    s.name, fld)
    assert many["a"].success and not many["c"].success


def test_merged_aggregates_ignore_partial_order():
    """Blocks finish in any order; the merged moments must not depend on it
    (the exact observed_value equality above relies on this)."""
    import itertools

    import pyarrow as pa

    from great_expectations_ray.engine import _merge_partials, _PartialEvaluator

    rng = np.random.default_rng(5)
    ev = _PartialEvaluator([], {"v"}, set(), set(), None)
    parts = [ev(pa.table({"v": rng.normal(39.0, 20.0, 75)}))
             .column("partial")[0].as_py() for _ in range(5)]
    ref = _merge_partials(parts)["aggs"]["v"]
    for perm in itertools.permutations(parts):
        got = _merge_partials(list(perm))["aggs"]["v"]
        assert (got.mean, got.m2, got.m3, got.m4, got.sum) == (
            ref.mean, ref.m2, ref.m3, ref.m4, ref.sum)


def test_validate_many_error_evr_stays_in_its_span(ray_session):
    ds = rd.from_pandas(_frame())
    good = ExpectationSuite("good").add(
        "expect_table_row_count_to_be_between", min_value=1)
    bad = ExpectationSuite("bad").add(
        "expect_totally_unknown_thing", column="v")
    many = validate_many(ds, [good, bad])
    assert many["good"].success
    assert not many["bad"].success
    assert many["bad"].results[0].exception_info["raised_exception"]


def test_validate_many_duplicate_names_rejected(ray_session):
    ds = rd.from_pandas(_frame())
    s = ExpectationSuite("dup").add(
        "expect_table_row_count_to_be_between", min_value=1)
    with pytest.raises(ValueError, match="distinct suite names"):
        validate_many(ds, [s, s])


def test_validate_many_suite_parameters_resolved_per_suite(ray_session):
    ds = rd.from_pandas(_frame())
    s1 = ExpectationSuite("p1", suite_parameters={"lo": 0})
    s1.add("expect_column_values_to_be_between", column="v",
           min_value={"$PARAMETER": "lo"}, max_value=100)
    s2 = ExpectationSuite("p2", suite_parameters={"lo": 1000})
    s2.add("expect_column_values_to_be_between", column="v",
           min_value={"$PARAMETER": "lo"}, max_value=2000, mostly=0.01)
    many = validate_many(ds, [s1, s2])
    # each suite saw ITS OWN parameter binding
    assert many["p1"].success
    assert not many["p2"].success


def test_validate_many_cli_multi_suite(ray_session, tmp_path, capsys):
    import json

    from great_expectations_ray.__main__ import main as cli_main

    df = _frame()
    inp = tmp_path / "d.parquet"
    df.to_parquet(inp)
    paths = []
    for s in _suites():
        p = tmp_path / f"{s.name}.json"
        p.write_text(s.to_json())
        paths.append(str(p))
    rc = cli_main(["validate", "--input", str(inp), "--suite", *paths])
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"a", "b", "c"}
    assert rc == 1  # suite 'c' fails

    # mode exclusivity: multi-suite + --by rejected loudly
    import pytest as _pytest
    with _pytest.raises(SystemExit, match="multi-suite"):
        cli_main(["validate", "--input", str(inp), "--suite", *paths,
                  "--by", "s"])
    # --html-out renders only the grouped mode: rejected, not dropped
    html = tmp_path / "docs.html"
    with _pytest.raises(SystemExit, match="--html-out"):
        cli_main(["validate", "--input", str(inp), "--suite", *paths,
                  "--html-out", str(html)])
    assert not html.exists()
