"""Mergeable validation state (pipelines/incremental_validate.py): validate
partitions independently, merge associatively, finish == whole-corpus
validate.  Beyond-reference (the reference's ValidationResult is terminal);
built on the engine's associative partial states."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from great_expectations_ray import (
    ExpectationSuite,
    SuiteValidationState,
    merge_states,
    validate,
)


def _suite() -> ExpectationSuite:
    return (
        ExpectationSuite("inc")
        .add("expect_column_values_to_not_be_null", column="v", mostly=0.9)
        .add("expect_column_values_to_be_between", column="v",
             min_value=0, max_value=100, mostly=0.8)
        .add("expect_column_mean_to_be_between", column="v",
             min_value=10, max_value=60)
        .add("expect_column_stdev_to_be_between", column="v",
             min_value=0, max_value=50)
        .add("expect_table_row_count_to_be_between", min_value=10)
        # VC + uniqueness families merge through the state too
        .add("expect_column_unique_value_count_to_be_between", column="v",
             min_value=1, max_value=1000)
        .add("expect_column_median_to_be_between", column="v",
             min_value=0, max_value=100)
        .add("expect_column_values_to_be_unique", column="v", mostly=0.01)
    )


def _frame(n=600, seed=1) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    v = rng.integers(0, 80, size=n).astype(float)
    v[::17] = np.nan
    v[::41] = 300.0
    return pd.DataFrame({"v": v})


def _check_equal(res, ref):
    assert res.statistics == ref.statistics
    for a, b in zip(res.results, ref.results):
        assert a.success == b.success
        ra, rb = a.to_json_dict()["result"], b.to_json_dict()["result"]
        for fld in ("element_count", "unexpected_count", "missing_count",
                    "observed_value"):
            x, y = ra.get(fld), rb.get(fld)
            if isinstance(x, float) and isinstance(y, float):
                assert np.isclose(x, y, rtol=1e-12, atol=0.0), fld
            else:
                assert x == y, fld


def test_split_merge_equals_whole(ray_session):
    df = _frame()
    ref = validate(rd.from_pandas(df).repartition(4), _suite())
    parts = [df.iloc[:200], df.iloc[200:350], df.iloc[350:]]
    states = [SuiteValidationState.compute(
        rd.from_pandas(p.reset_index(drop=True)).repartition(2), _suite())
        for p in parts]
    merged = merge_states(states)
    assert merged.n_partitions == 3
    _check_equal(merged.finish(), ref)


def test_day2_persisted_state(ray_session, tmp_path):
    """Day-1 state persisted + day-2 partition validated alone -> finish ==
    validate over the union, day-1 bytes never re-read."""
    d1, d2 = _frame(400, seed=2), _frame(250, seed=9)
    p = str(tmp_path / "day1.state")
    SuiteValidationState.compute(
        rd.from_pandas(d1).repartition(3), _suite()).save(p)
    s = SuiteValidationState.load(p)
    s.merge(SuiteValidationState.compute(rd.from_pandas(d2), _suite()))
    ref = validate(
        rd.from_pandas(pd.concat([d1, d2], ignore_index=True)), _suite())
    res = s.finish()
    _check_equal(res, ref)
    assert res.meta["n_partitions"] == 2


def test_guards(ray_session):
    ds = rd.from_pandas(_frame(50))
    with pytest.raises(ValueError, match="unsupported"):
        SuiteValidationState.compute(
            ds, ExpectationSuite("u").add(
                "expect_column_value_z_scores_to_be_less_than",
                column="v", threshold=3, double_sided=True))
    a = SuiteValidationState.compute(ds, _suite())
    other_suite = ExpectationSuite("other").add(
        "expect_column_values_to_not_be_null", column="v")
    b = SuiteValidationState.compute(ds, other_suite)
    with pytest.raises(ValueError, match="different suites"):
        a.merge(b)
    ds2 = rd.from_pandas(pd.DataFrame({"v": [1.0], "w": [2.0]}))
    c = SuiteValidationState.compute(ds2, _suite())
    with pytest.raises(ValueError, match="schemas"):
        a.merge(c)
    assert merge_states([]) is None


def test_validate_cli_state_flow(ray_session, tmp_path, capsys):
    """`validate --state-out` per partition, then `validate --states A B`
    rolls up corpus-level results WITHOUT reading data."""
    import json as _json

    from great_expectations_ray.__main__ import main

    d1, d2 = _frame(300, seed=4), _frame(200, seed=5)
    p1, p2 = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    d1.to_parquet(p1)
    d2.to_parquet(p2)
    suite_p = str(tmp_path / "suite.json")
    with open(suite_p, "w") as f:
        f.write(_suite().to_json())
    s1, s2 = str(tmp_path / "a.state"), str(tmp_path / "b.state")
    rc1 = main(["validate", "--input", p1, "--suite", suite_p,
                "--state-out", s1, "--cpus", "2"])
    capsys.readouterr()
    rc2 = main(["validate", "--input", p2, "--suite", suite_p,
                "--state-out", s2, "--cpus", "2"])
    capsys.readouterr()
    rc = main(["validate", "--suite", suite_p, "--states", s1, s2,
               "--cpus", "2"])
    out = _json.loads(capsys.readouterr().out)
    ref = validate(
        rd.from_pandas(pd.concat([d1, d2], ignore_index=True)), _suite())
    assert out["statistics"] == ref.statistics
    assert rc == (0 if ref.success else 1)
    assert out["meta"]["n_partitions"] == 2


def test_state_keeps_exact_temporal_extremes(ray_session):
    """A persisted state carries temporal min/max as exact int64 epochs; a
    blob from the float64 layout (version 1) is refused by version."""
    import pickle

    import pyarrow as pa

    t0 = pd.Timestamp("2024-01-15 12:00:00").value
    suite = ExpectationSuite("ts").add(
        "expect_column_max_to_be_between", column="t",
        max_value="2024-01-15 12:00:00")
    states = [SuiteValidationState.compute(
        rd.from_arrow(pa.table({"t": pa.array(v, pa.timestamp("ns"))})), suite)
        for v in ([t0 - 10**9], [t0 + 100])]
    merged = SuiteValidationState.from_bytes(merge_states(states).to_bytes())
    evr = merged.finish().results[0]
    assert evr.result["observed_value"] == pd.Timestamp(t0 + 100)
    assert not evr.success

    old = pickle.loads(merged.to_bytes())
    old["version"] = 1
    with pytest.raises(ValueError, match="unsupported state version"):
        SuiteValidationState.from_bytes(pickle.dumps(old))


def test_state_from_the_dict_value_count_layout_is_refused(ray_session):
    """Version 3 holds value counts as typed Arrow ``(values, counts)``
    arrays; a version-2 blob (dict value counts) is refused by version."""
    import pickle

    suite = ExpectationSuite("vc").add(
        "expect_column_distinct_values_to_be_in_set", column="a",
        value_set=[1, 2, 3])
    state = SuiteValidationState.compute(
        rd.from_pandas(pd.DataFrame({"a": [1, 2, 2, 3]})), suite)
    assert SuiteValidationState.from_bytes(state.to_bytes()).finish().success
    old = pickle.loads(state.to_bytes())
    old["version"] = 2
    with pytest.raises(ValueError, match="unsupported state version 2"):
        SuiteValidationState.from_bytes(pickle.dumps(old))
