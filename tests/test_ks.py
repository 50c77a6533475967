"""Kolmogorov-Smirnov expectations (#47/#49) — real implementations over
the distributed-exact-D construction in functions/ks.py.

The reference snapshot stubs both
(expect_column_parameterized_distribution_ks_test_p_value_to_be_greater_than.py
and the bootstrapped variant are 27-33 LoC shells), so correctness is gated
against an independent single-node brute force here instead of parity."""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pytest

from great_expectations_ray.core.suite import ExpectationSuite
from great_expectations_ray.engine import validate
from great_expectations_ray.functions.ks import (
    distributed_ks_statistic,
    make_cdf,
    piecewise_cdf_from_partition,
)
from great_expectations_ray.functions.stats_math import ks_p_value


def _brute_d(values, cdf):
    """Single-node textbook D = max(D+, D-) over the order statistics."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = len(x)
    f = cdf(x)
    j = np.arange(1, n + 1)
    return max((j / n - f).max(), (f - (j - 1) / n).max())


@pytest.mark.parametrize("dist,params,gen", [
    ("norm", {"loc": 5.0, "scale": 2.0}, lambda r, n: r.normal(5, 2, n)),
    ("uniform", {"loc": 0.0, "scale": 10.0}, lambda r, n: r.uniform(0, 10, n)),
    ("expon", {"loc": 0.0, "scale": 3.0}, lambda r, n: r.exponential(3, n)),
])
def test_distributed_d_matches_bruteforce(ray_session, dist, params, gen):
    import ray.data as rd

    rng = np.random.default_rng(7)
    vals = gen(rng, 5_000)
    cdf = make_cdf(dist, params)
    # many small blocks so batches genuinely straddle value ranges
    ds = rd.from_arrow(pa.table({"x": vals})).repartition(16)
    d = distributed_ks_statistic(ds, "x", cdf, len(vals))
    assert d == pytest.approx(_brute_d(vals, cdf), abs=1e-12)


def test_distributed_d_with_heavy_ties(ray_session):
    import ray.data as rd

    # discrete values -> massive ties straddling sorted-block boundaries
    rng = np.random.default_rng(3)
    vals = rng.integers(1, 6, size=4_000).astype(float)
    cdf = make_cdf("uniform", {"loc": 0.0, "scale": 6.0})
    ds = rd.from_arrow(pa.table({"x": vals})).repartition(11)
    d = distributed_ks_statistic(ds, "x", cdf, len(vals))
    assert d == pytest.approx(_brute_d(vals, cdf), abs=1e-12)


def test_parameterized_ks_expectation_accepts_and_rejects(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(21)
    good = rng.normal(0, 1, 8_000)
    ds = rd.from_arrow(pa.table({"x": good})).repartition(8)
    suite = ExpectationSuite("ks").add(
        "expect_column_parameterized_distribution_ks_test_p_value_to_be_greater_than",
        column="x", distribution="norm", params={"loc": 0.0, "scale": 1.0}, p=0.05,
    )
    r = validate(ds, suite).results[0]
    assert r.success, r.result
    assert r.result["observed_value"] > 0.05
    # same data against a shifted distribution must reject decisively
    suite_bad = ExpectationSuite("ks2").add(
        "expect_column_parameterized_distribution_ks_test_p_value_to_be_greater_than",
        column="x", distribution="norm", params={"loc": 2.0, "scale": 1.0}, p=0.05,
    )
    r2 = validate(ds, suite_bad).results[0]
    assert not r2.success
    assert r2.result["observed_value"] < 1e-6


def test_ks_p_value_reference_points():
    # lambda = (sqrt(n)+0.12+0.11/sqrt(n)) * D; Q_KS spot values checked in
    # stats_math against published tables; here: monotonicity + bounds
    assert ks_p_value(0.0, 100) == 1.0
    assert 0 < ks_p_value(0.2, 100) < ks_p_value(0.1, 100) < 1.0


def test_bootstrapped_ks_expectation(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(5)
    vals = rng.uniform(0, 10, 6_000)
    ds = rd.from_arrow(pa.table({"x": vals})).repartition(6)
    part = {"bins": [0.0, 2.5, 5.0, 7.5, 10.0], "weights": [0.25, 0.25, 0.25, 0.25]}
    suite = ExpectationSuite("bks").add(
        "expect_column_bootstrapped_ks_test_p_value_to_be_greater_than",
        column="x", partition_object=part, p=0.05,
        bootstrap_samples=50, bootstrap_sample_size=100, seed=11,
    )
    r = validate(ds, suite).results[0]
    assert r.success, r.result
    # deterministic given the seed
    r2 = validate(ds, suite).results[0]
    assert r.result["observed_value"] == r2.result["observed_value"]
    # badly wrong partition must reject
    part_bad = {"bins": [0.0, 2.5, 5.0, 7.5, 10.0], "weights": [0.97, 0.01, 0.01, 0.01]}
    suite_bad = ExpectationSuite("bks2").add(
        "expect_column_bootstrapped_ks_test_p_value_to_be_greater_than",
        column="x", partition_object=part_bad, p=0.05,
        bootstrap_samples=50, bootstrap_sample_size=100, seed=11,
    )
    assert not validate(ds, suite_bad).results[0].success


def test_piecewise_cdf():
    cdf = piecewise_cdf_from_partition(
        {"bins": [0.0, 1.0, 3.0], "weights": [0.5, 0.5]}
    )
    np.testing.assert_allclose(
        cdf(np.array([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0])),
        [0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.0],
    )


def test_ks_nulls_are_ignored(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(9)
    vals = list(rng.normal(0, 1, 2_000)) + [None] * 200
    ds = rd.from_arrow(pa.table({"x": pa.array(vals, pa.float64())})).repartition(5)
    suite = ExpectationSuite("ksn").add(
        "expect_column_parameterized_distribution_ks_test_p_value_to_be_greater_than",
        column="x", distribution="norm", params={"loc": 0.0, "scale": 1.0}, p=0.05,
    )
    r = validate(ds, suite).results[0]
    assert r.success
    assert r.result["details"]["n"] == 2_000


def test_grouped_parameterized_ks(ray_session):
    """Per-group exact KS == the global operator run on each slice; null
    keys and empty groups handled; partitioning-invariant."""
    import pandas as pd
    import ray.data as rd

    from great_expectations_ray.functions.ks import (
        grouped_parameterized_ks,
        parameterized_ks_test,
    )

    rng = np.random.default_rng(17)
    n = 3000
    grp = rng.choice(["u", "g", "bad"], size=n).astype(object)
    grp[::151] = None
    v = rng.uniform(0.0, 1.0, size=n)
    v[grp == "g"] = rng.normal(0.5, 0.15, size=(grp == "g").sum())
    v[grp == "bad"] = rng.uniform(0.5, 1.0, size=(grp == "bad").sum())
    df = pd.DataFrame({"grp": grp, "v": v})

    def run(parts):
        return (grouped_parameterized_ks(
                    rd.from_pandas(df).repartition(parts), ["grp"], "v",
                    distribution="uniform", params={"min": 0.0, "max": 1.0})
                .to_pandas().sort_values("grp", na_position="last")
                .reset_index(drop=True))

    out = run(5)
    assert out.equals(run(2))  # partitioning-invariant
    assert len(out) == 4
    for _, row in out.iterrows():
        key = row["grp"]
        mask = df["grp"].isna() if pd.isna(key) else (df["grp"] == key)
        sub = df[mask.fillna(False)]
        ref = parameterized_ks_test(
            rd.from_pandas(sub.reset_index(drop=True)), "v",
            distribution="uniform", params={"min": 0.0, "max": 1.0},
            n=len(sub))
        assert row["n"] == ref["n"]
        assert np.isclose(row["ks_statistic"], ref["ks_statistic"],
                          rtol=1e-12, atol=0)
        assert np.isclose(row["p_value"], ref["p_value"], rtol=1e-12, atol=0)
    # the uniform group passes, the shifted-uniform group is rejected
    p = out.set_index(out["grp"].astype(str))["p_value"]
    assert p["u"] > 0.05 and p["bad"] < 1e-6


def test_grouped_ks_value_coercion(ray_session):
    """A text value column: the one-sample form reads each value on its
    own (an unparseable one is dropped, the rest still count), the
    two-sample form refuses a value that is no number."""
    import ray.data as rd

    from great_expectations_ray.functions.ks import (
        grouped_ks_2samp,
        grouped_parameterized_ks,
    )

    tbl = pa.table({"g": ["a", "a", "a", "b"], "v": ["0.25", "oops", "0.75", "0.5"]})
    out = {r["g"]: r for r in grouped_parameterized_ks(
        rd.from_arrow(tbl), ["g"], "v", distribution="uniform",
        params={"min": 0.0, "max": 1.0}, n_buckets=1).take_all()}
    assert (out["a"]["n"], out["b"]["n"]) == (2, 1)
    assert out["a"]["ks_statistic"] == pytest.approx(0.25)
    with pytest.raises(Exception, match="oops"):
        grouped_ks_2samp(rd.from_arrow(tbl), rd.from_arrow(tbl), ["g"], "v").take_all()


def test_grouped_ks_2samp(ray_session):
    """Per-group two-sample KS == the global two-dataset operator per
    slice; one-sided-empty groups yield nulls."""
    import pandas as pd
    import ray.data as rd

    from great_expectations_ray.functions.ks import (
        distributed_ks_2samp_datasets,
        grouped_ks_2samp,
    )

    rng = np.random.default_rng(23)
    n = 2400
    grp_a = rng.choice(["s", "d", "only_a"], size=n).astype(object)
    grp_b = rng.choice(["s", "d"], size=n).astype(object)
    a = pd.DataFrame({"grp": grp_a, "v": rng.normal(0, 1, size=n)})
    b = pd.DataFrame({"grp": grp_b, "v": rng.normal(0, 1, size=n)})
    b.loc[b.grp == "d", "v"] += 1.5  # drifted group
    # tie-heavy values exercise the boundary semantics
    a.loc[::7, "v"] = 0.25
    b.loc[::7, "v"] = 0.25

    out = (grouped_ks_2samp(
            rd.from_pandas(a).repartition(4),
            rd.from_pandas(b).repartition(3), ["grp"], "v")
           .to_pandas().set_index("grp"))
    assert set(out.index) == {"s", "d", "only_a"}
    assert pd.isna(out.loc["only_a", "d_statistic"])
    assert out.loc["only_a", "n_b"] == 0
    for key in ("s", "d"):
        ref = distributed_ks_2samp_datasets(
            rd.from_pandas(a[a.grp == key].reset_index(drop=True)),
            rd.from_pandas(b[b.grp == key].reset_index(drop=True)), "v")
        assert out.loc[key, "n_a"] == ref["n_a"]
        assert out.loc[key, "n_b"] == ref["n_b"]
        assert np.isclose(out.loc[key, "d_statistic"], ref["d_statistic"],
                          rtol=1e-12, atol=0)
        assert np.isclose(out.loc[key, "p_value"], ref["p_value"],
                          rtol=1e-12, atol=0)
    assert out.loc["s", "p_value"] > 0.05
    assert out.loc["d", "p_value"] < 1e-9


def test_drift_cli_by_group(ray_session, tmp_path, capsys):
    """`drift --ks-columns v --by grp`: per-group KS verdicts in the
    report; exit 1 driven by the drifted group only."""
    import json as _json

    import pandas as pd
    import ray.data as rd

    from great_expectations_ray.__main__ import main

    rng = np.random.default_rng(31)
    n = 1600
    base = pd.DataFrame({"grp": rng.choice(["s", "d"], size=n),
                         "v": rng.normal(0, 1, size=n)})
    cur = pd.DataFrame({"grp": rng.choice(["s", "d"], size=n),
                        "v": rng.normal(0, 1, size=n)})
    cur.loc[cur.grp == "d", "v"] += 2.0
    pb, pc_ = str(tmp_path / "b.parquet"), str(tmp_path / "c.parquet")
    base.to_parquet(pb)
    cur.to_parquet(pc_)
    rc = main(["drift", "--baseline", pb, "--current", pc_,
               "--ks-columns", "v", "--by", "grp", "--cpus", "2"])
    rep = _json.loads(capsys.readouterr().out)
    assert rc == 1
    rows = {r["grp"]: r for r in rep["ks_by_group"]["v"]}
    assert rows["d"]["drifted"] is True
    assert rows["s"]["drifted"] is False
