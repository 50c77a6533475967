"""Grouped validation (pipelines/grouped.py): one suite x every partition of
one Dataset in a single fused pass, pinned EVR-for-EVR against per-slice
engine.validate."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from great_expectations_ray import ExpectationSuite, validate
from great_expectations_ray.pipelines.grouped import validate_grouped


def _suite() -> ExpectationSuite:
    return (
        ExpectationSuite("grouped")
        .add("expect_column_values_to_not_be_null", column="v")
        .add("expect_column_values_to_be_between", column="v",
             min_value=0, max_value=100, mostly=0.8)
        .add("expect_column_mean_to_be_between", column="v",
             min_value=10, max_value=60)
        .add("expect_table_row_count_to_be_between", min_value=2)
        .add("expect_column_to_exist", column="grp")
    )


def _frame() -> pd.DataFrame:
    rng = np.random.default_rng(7)
    n = 400
    grp = rng.choice(["a", "b", "c"], size=n).astype(object)
    grp[::41] = None  # a null-key group
    v = rng.integers(0, 80, size=n).astype(float)
    v[grp == "b"] += 200.0        # 'b' violates between + mean
    v[::23] = np.nan              # some nulls everywhere
    return pd.DataFrame({"grp": grp, "v": v})


def test_grouped_matches_per_slice_validate(ray_session):
    df = _frame()
    ds = rd.from_pandas(df).repartition(6)
    got = validate_grouped(ds, _suite(), by="grp")
    assert set(got) == {"a", "b", "c", None}
    for key in got:
        mask = df["grp"].isna() if key is None else (df["grp"] == key)
        ref = validate(rd.from_pandas(
            df[mask.fillna(False)].reset_index(drop=True)), _suite())
        g = got[key]
        assert g.statistics == ref.statistics
        assert g.meta["row_count"] == ref.meta["row_count"]
        for ge, re_ in zip(g.results, ref.results):
            assert ge.success == re_.success
            gd, rd_ = ge.to_json_dict(), re_.to_json_dict()
            # partial samples are order-dependent across block layouts;
            # compare everything else exactly and the samples as multisets
            for fld in ("element_count", "unexpected_count",
                        "unexpected_percent", "missing_count",
                        "observed_value"):
                a, b = gd["result"].get(fld), rd_["result"].get(fld)
                if isinstance(a, float) and isinstance(b, float):
                    # Chan-merged moments differ in the last bits across
                    # block layouts (documented engine convention)
                    assert np.isclose(a, b, rtol=1e-12, atol=0.0), (
                        key, gd["expectation_config"]["expectation_type"], fld)
                else:
                    assert a == b, (
                        key, gd["expectation_config"]["expectation_type"], fld)
            gs = gd["result"].get("partial_unexpected_list")
            rs = rd_["result"].get("partial_unexpected_list")
            if gs is not None or rs is not None:
                assert sorted(map(str, gs or [])) == sorted(map(str, rs or []))


def test_grouped_single_pass_vacuous_and_empty_groups(ray_session):
    # group 'z' has only null v: map rules are vacuous-true, mean fails
    df = pd.DataFrame({"grp": ["z", "z"], "v": [np.nan, np.nan]})
    got = validate_grouped(rd.from_pandas(df), _suite(), by="grp")
    r = {g.to_json_dict()["results"][i]["expectation_config"]["expectation_type"]:
         g.to_json_dict()["results"][i]["success"]
         for g in [got["z"]] for i in range(len(g.results))}
    assert r["expect_column_values_to_be_between"] is True   # vacuous
    assert r["expect_column_mean_to_be_between"] is False    # None metric


def test_grouped_rejects_unsupported_families(ray_session):
    # KS tests still need their own sort exchange per group
    suite = (ExpectationSuite("s")
             .add("expect_column_parameterized_distribution_ks_test_p_value_"
                  "to_be_greater_than", column="v", distribution="norm"))
    ds = rd.from_pandas(pd.DataFrame({"grp": ["a"], "v": [1.0]}))
    with pytest.raises(ValueError, match="unsupported families"):
        validate_grouped(ds, suite, by="grp")


def test_grouped_partial_cap_guard(ray_session):
    df = pd.DataFrame({"grp": [str(i) for i in range(50)],
                       "v": np.arange(50, dtype=float)})
    ds = rd.from_pandas(df).repartition(2)
    with pytest.raises(ValueError, match="max_driver_partials"):
        validate_grouped(ds, _suite(), by="grp", max_driver_partials=10)


def test_validate_cli_by_flag(ray_session, tmp_path, capsys):
    """`validate --by` validates every group in one pass and exits 1 when
    any group fails."""
    import json as _json

    from great_expectations_ray.__main__ import main

    df = pd.DataFrame({
        "grp": ["a"] * 5 + ["b"] * 5,
        "v": [1.0] * 5 + [500.0] * 5,   # 'b' violates between
    })
    inp = str(tmp_path / "t")
    rd.from_pandas(df).repartition(2).write_parquet(inp)
    suite_p = str(tmp_path / "suite.json")
    suite = (ExpectationSuite("cli")
             .add("expect_column_values_to_be_between", column="v",
                  min_value=0, max_value=100))
    with open(suite_p, "w") as f:
        f.write(suite.to_json())
    rc = main(["validate", "--input", inp,
               "--suite", suite_p, "--by", "grp", "--cpus", "4"])
    out = _json.loads(capsys.readouterr().out)
    assert rc == 1
    assert out["a"]["success"] is True and out["b"]["success"] is False


def test_grouped_wide_matches_narrow(ray_session):
    """validate_grouped_wide: verdict rows equal validate_grouped's
    per-group statistics, incl. the null-key group; result_json round-trips
    to the same success flags."""
    import json

    from great_expectations_ray import validate_grouped_wide

    df = _frame()
    ds = rd.from_pandas(df).repartition(6)
    narrow = validate_grouped(ds, _suite(), by="grp")
    wide = (validate_grouped_wide(ds, _suite(), by="grp",
                                  include_results=True)
            .to_pandas())
    assert len(wide) == len(narrow) == 4
    for _, row in wide.iterrows():
        key = row["group_key"]
        key = None if pd.isna(key) else key
        ref = narrow[key]
        assert bool(row["success"]) == ref.success
        assert row["evaluated_expectations"] == \
            ref.statistics["evaluated_expectations"]
        assert row["successful_expectations"] == \
            ref.statistics["successful_expectations"]
        assert row["row_count"] == ref.meta["row_count"]
        j = json.loads(row["result_json"])
        assert [r["success"] for r in j["results"]] == \
            [r.success for r in ref.results]
        assert j["meta"]["group_by"] == "grp"


def test_grouped_wide_high_cardinality(ray_session):
    """5k distinct keys — far past a small max_driver_partials — complete
    through the bucketed exchange; narrow raises with guidance; spot-checked
    keys match direct per-slice validate."""
    from great_expectations_ray import validate_grouped_wide

    rng = np.random.default_rng(3)
    n = 20_000
    df = pd.DataFrame({
        "grp": rng.integers(0, 5000, size=n),
        "v": rng.integers(0, 80, size=n).astype(float),
    })
    df.loc[df.grp == 7, "v"] += 200.0  # one failing group
    ds = rd.from_pandas(df).repartition(8)
    suite = (ExpectationSuite("hc")
             .add("expect_column_values_to_be_between", column="v",
                  min_value=0, max_value=100))
    with pytest.raises(ValueError, match="validate_grouped_wide"):
        validate_grouped(ds, suite, by="grp", max_driver_partials=10)
    wide = validate_grouped_wide(ds, suite, by="grp").to_pandas()
    assert len(wide) == df["grp"].nunique()
    assert int(wide["row_count"].sum()) == n
    assert not bool(wide.loc[wide.group_key == 7, "success"].iloc[0])
    for key in (7, int(df.grp.iloc[0]), int(df.grp.iloc[-1])):
        ref = validate(
            rd.from_pandas(df[df.grp == key].reset_index(drop=True)), suite)
        assert bool(wide.loc[wide.group_key == key, "success"].iloc[0]) \
            == ref.success


def test_validate_cli_wide_out(ray_session, tmp_path):
    """`validate --by --wide-out`: parquet verdict rows + exit code from the
    group rollup."""
    import json as _json

    from great_expectations_ray.__main__ import main

    df = _frame().dropna(subset=["grp"])
    src = str(tmp_path / "in.parquet")
    df.to_parquet(src)
    # no not-null expectation: the fixture plants NaNs in every group, so
    # only 'b' (values +200) should fail here
    suite = (ExpectationSuite("cli")
             .add("expect_column_values_to_be_between", column="v",
                  min_value=0, max_value=100, mostly=0.8)
             .add("expect_column_mean_to_be_between", column="v",
                  min_value=10, max_value=60))
    suite_path = str(tmp_path / "suite.json")
    with open(suite_path, "w") as f:
        f.write(_json.dumps(suite.to_json_dict()))
    out = str(tmp_path / "verdicts")
    rc = main(["validate", "--input", src, "--suite", suite_path,
               "--by", "grp", "--wide-out", out, "--cpus", "2"])
    assert rc == 1  # group 'b' fails by construction
    got = pd.read_parquet(out).sort_values("group_key")
    assert list(got["group_key"]) == ["a", "b", "c"]
    assert not bool(got.loc[got.group_key == "b", "success"].iloc[0])
    assert bool(got.loc[got.group_key == "a", "success"].iloc[0])


def test_grouped_vc_and_unique_families(ray_session):
    """Round-4 expansion: distinct-set / most-common / unique-count /
    median / uniqueness rules per group, pinned vs per-slice validate in
    BOTH narrow and wide modes."""
    from great_expectations_ray import validate_grouped_wide

    rng = np.random.default_rng(13)
    n = 500
    grp = rng.choice(["a", "b"], size=n).astype(object)
    code = rng.choice(["x", "y", "z"], size=n).astype(object)
    code[(grp == "b") & (np.arange(n) % 7 == 0)] = "w"  # 'b' leaks 'w'
    ids = np.arange(n)
    ids[grp == "b"] = ids[grp == "b"] // 2  # 'b' has duplicate ids
    df = pd.DataFrame({"grp": grp, "code": code,
                       "uid": ids.astype(float),
                       "v": rng.integers(0, 50, size=n).astype(float)})
    suite = (ExpectationSuite("vcfam")
             .add("expect_column_distinct_values_to_be_in_set",
                  column="code", value_set=["x", "y", "z"])
             .add("expect_column_most_common_value_to_be_in_set",
                  column="code", value_set=["x", "y", "z"], ties_okay=True)
             .add("expect_column_unique_value_count_to_be_between",
                  column="code", min_value=1, max_value=4)
             .add("expect_column_median_to_be_between",
                  column="v", min_value=5, max_value=45)
             .add("expect_column_values_to_be_unique", column="uid"))
    ds = rd.from_pandas(df).repartition(5)

    narrow = validate_grouped(ds, suite, by="grp")
    assert set(narrow) == {"a", "b"}
    for key in ("a", "b"):
        ref = validate(
            rd.from_pandas(df[df.grp == key].reset_index(drop=True)), suite)
        got = narrow[key]
        assert got.statistics == ref.statistics, key
        for ge, re_ in zip(got.results, ref.results):
            assert ge.success == re_.success
            gr, rr = ge.to_json_dict()["result"], re_.to_json_dict()["result"]
            for fld in ("observed_value", "unexpected_count",
                        "element_count"):
                if fld in rr or fld in gr:
                    assert gr.get(fld) == rr.get(fld), (
                        key, ge.expectation_config["type"]
                        if "type" in ge.expectation_config
                        else ge.expectation_config.get("expectation_type"),
                        fld)
    # 'a' passes everything; 'b' fails distinct-set + uniqueness
    assert narrow["a"].success
    assert not narrow["b"].success

    wide = (validate_grouped_wide(ds, suite, by="grp").to_pandas()
            .set_index("group_key"))
    for key in ("a", "b"):
        assert bool(wide.loc[key, "success"]) == narrow[key].success
        assert wide.loc[key, "successful_expectations"] == \
            narrow[key].statistics["successful_expectations"]


def test_grouped_vc_guards_and_overflow(ray_session):
    from great_expectations_ray.pipelines.grouped import validate_grouped

    df = pd.DataFrame({"grp": ["a"] * 4, "v": [1.0, 2.0, 3.0, 4.0],
                       "w": [1.0, 1.0, 2.0, 2.0]})
    ds = rd.from_pandas(df)
    with pytest.raises(ValueError, match="single-column uniqueness only"):
        validate_grouped(
            ds, ExpectationSuite("c").add(
                "expect_compound_columns_to_be_unique",
                column_list=["v", "w"]), by="grp")
    with pytest.raises(ValueError, match="knob"):
        validate_grouped(
            ds, ExpectationSuite("k").add(
                "expect_column_unique_value_count_to_be_between",
                column="v", min_value=1, max_value=9, approximate=True),
            by="grp")

    # per-group VC overflow (>100k distinct in one group) fails that EVR
    # with guidance instead of a wrong verdict
    big = pd.DataFrame({"grp": ["hot"] * 120_000,
                        "v": np.arange(120_000, dtype=np.float64)})
    out = validate_grouped(
        rd.from_pandas(big).repartition(3),
        ExpectationSuite("o").add(
            "expect_column_unique_value_count_to_be_between",
            column="v", min_value=1, max_value=200_000),
        by="grp")
    evr = out["hot"].results[0]
    assert not evr.success
    assert "overflowed" in evr.exception_info["exception_message"]


def test_grouped_dist_rules(ray_session):
    """KL (discrete + continuous-bins) and chi-square per group, pinned vs
    per-slice validate — finish needs only VC / histogram partials."""
    rng = np.random.default_rng(21)
    n = 900
    grp = rng.choice(["a", "b"], size=n).astype(object)
    cat = rng.choice(["x", "y"], size=n, p=[0.5, 0.5]).astype(object)
    cat[grp == "b"] = rng.choice(["x", "y"], size=(grp == "b").sum(),
                                 p=[0.95, 0.05])  # 'b' diverges
    v = rng.uniform(0, 10, size=n)
    df = pd.DataFrame({"grp": grp, "cat": cat, "v": v})
    po_disc = {"values": ["x", "y"], "weights": [0.5, 0.5]}
    po_cont = {"bins": [0.0, 2.5, 5.0, 7.5, 10.0],
               "weights": [0.25, 0.25, 0.25, 0.25]}
    suite = (ExpectationSuite("dist")
             .add("expect_column_kl_divergence_to_be_less_than",
                  column="cat", partition_object=po_disc, threshold=0.1)
             .add("expect_column_kl_divergence_to_be_less_than",
                  column="v", partition_object=po_cont, threshold=0.1)
             .add("expect_column_chisquare_test_p_value_to_be_greater_than",
                  column="cat", partition_object=po_disc, p=0.01))
    ds = rd.from_pandas(df).repartition(4)
    got = validate_grouped(ds, suite, by="grp")
    for key in ("a", "b"):
        ref = validate(
            rd.from_pandas(df[df.grp == key].reset_index(drop=True)), suite)
        assert got[key].statistics == ref.statistics, key
        for ge, re_ in zip(got[key].results, ref.results):
            assert ge.success == re_.success
            a = ge.to_json_dict()["result"].get("observed_value")
            b = re_.to_json_dict()["result"].get("observed_value")
            if isinstance(a, float) and isinstance(b, float):
                assert np.isclose(a, b, rtol=1e-12, atol=0.0)
            else:
                assert a == b
    assert got["a"].success
    assert not got["b"].success  # discrete KL + chi2 blow up on 'b'


def test_grouped_two_phase_rules(ray_session):
    """z-scores + IQR outliers per group (narrow mode): each group's
    thresholds come from ITS mean/std/median/IQR; pinned vs per-slice
    validate.  Wide mode and mergeable state reject with a named error."""
    from great_expectations_ray import (
        SuiteValidationState,
        validate_grouped_wide,
    )

    rng = np.random.default_rng(33)
    n = 800
    grp = rng.choice(["a", "b"], size=n).astype(object)
    v = rng.normal(50, 5, size=n)
    v[grp == "b"] = rng.normal(500, 50, size=(grp == "b").sum())
    # plant outliers in 'b' only — 'a' stays within its own z-range
    b_idx = np.flatnonzero(grp == "b")[:6]
    v[b_idx] = 5000.0
    df = pd.DataFrame({"grp": grp, "v": v})
    suite = (ExpectationSuite("tp")
             .add("expect_column_value_z_scores_to_be_less_than",
                  column="v", threshold=4, double_sided=True, mostly=0.99)
             .add("expect_column_values_to_not_be_outliers",
                  column="v", method="iqr", multiplier=3.0, mostly=0.99))
    ds = rd.from_pandas(df).repartition(5)
    got = validate_grouped(ds, suite, by="grp")
    for key in ("a", "b"):
        ref = validate(
            rd.from_pandas(df[df.grp == key].reset_index(drop=True)), suite)
        assert got[key].statistics == ref.statistics, key
        for ge, re_ in zip(got[key].results, ref.results):
            assert ge.success == re_.success
            gr = ge.to_json_dict()["result"]
            rr = re_.to_json_dict()["result"]
            assert gr.get("unexpected_count") == rr.get("unexpected_count")
            assert gr.get("element_count") == rr.get("element_count")
    assert got["a"].success
    assert not got["b"].success
    with pytest.raises(ValueError, match="two-phase"):
        validate_grouped_wide(ds, suite, by="grp")
    with pytest.raises(ValueError, match="two-phase"):
        SuiteValidationState.compute(ds, suite)


def test_grouped_result_format_dict_rows_and_index(ray_session):
    """The result_format dict's include_unexpected_rows and
    unexpected_index_column_names reach every group, narrow and wide, as
    they do in validate on the slice."""
    import json

    from great_expectations_ray import validate_grouped_wide

    df = pd.DataFrame({"grp": ["a"] * 5 + ["b"] * 5, "id": range(10),
                       "v": [1, 2, 99, 3, 4, 5, 98, 6, 7, 97]})
    suite = ExpectationSuite("rf").add(
        "expect_column_values_to_be_between", column="v",
        min_value=0, max_value=50)
    rf = {"result_format": "SUMMARY", "include_unexpected_rows": True,
          "unexpected_index_column_names": ["id"]}
    ds = rd.from_pandas(df).repartition(2)
    got = validate_grouped(ds, suite, by="grp", result_format=rf)
    wide = (validate_grouped_wide(ds, suite, by="grp", result_format=rf,
                                  include_results=True)
            .to_pandas().set_index("group_key"))
    for key in ("a", "b"):
        ref = validate(rd.from_pandas(df[df.grp == key].reset_index(drop=True)),
                       suite, result_format=rf).results[0].result
        assert ref["partial_unexpected_index_list"]
        assert ref["unexpected_rows"]
        res = got[key].results[0].result
        w = json.loads(wide.loc[key, "result_json"])["results"][0]["result"]
        for fld in ("partial_unexpected_index_list", "unexpected_rows"):
            assert res[fld] == ref[fld], fld
            assert w[fld] == json.loads(json.dumps(ref[fld])), fld


def test_grouped_docs_page(ray_session, tmp_path, capsys):
    """`validate --by --html-out`: one Data Docs page with the per-group
    summary table and per-group EVR sections."""
    from great_expectations_ray.__main__ import main
    from great_expectations_ray.pipelines.data_docs import (
        render_grouped_page,
    )

    df = _frame()
    got = validate_grouped(rd.from_pandas(df), _suite(), by="grp")
    html = render_grouped_page(got, by="grp")
    assert "Grouped by <code>grp</code>" in html
    assert "(null)" in html                 # the null-key group renders
    assert html.count("<h3 id='grp-") == 4  # one section per group
    n_ok = sum(1 for r in got.values() if r.success)
    assert f"{n_ok}/4 groups succeeded" in html

    inp = str(tmp_path / "t.parquet")
    df.dropna(subset=["grp"]).to_parquet(inp)
    suite_p = str(tmp_path / "s.json")
    with open(suite_p, "w") as f:
        f.write(_suite().to_json())
    out_html = str(tmp_path / "grouped.html")
    main(["validate", "--input", inp, "--suite", suite_p, "--by", "grp",
          "--html-out", out_html, "--cpus", "2"])
    capsys.readouterr()
    page = open(out_html).read()
    assert page.startswith("<!doctype html>")
    assert "rules ok" in page
