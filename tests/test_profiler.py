"""Onboarding profiler: one-pass profile → suggested suite → validates green
on the profiled data (the reference's data-assistant contract)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from great_expectations_ray.engine import validate
from great_expectations_ray.pipelines.profiler import (
    profile,
    suggest_suite,
)


def test_profile_metrics_multi_partition(ray_session):
    import ray.data as rd

    t = pa.table({
        "num": pa.array([1.0, 2.0, None, 4.0, 10.0], pa.float64()),
        "cat": pa.array(["a", "b", "a", None, "c"]),
        "flag": pa.array([True, False, True, True, False]),
    })
    profs = profile(rd.from_arrow(t).repartition(3))
    p = profs["num"]
    assert p.row_count == 5 and p.null_count == 1
    assert p.agg.min == 1.0 and p.agg.max == 10.0
    assert p.agg.mean == pytest.approx(17 / 4)
    c = profs["cat"]
    assert c.value_set == {"a", "b", "c"}
    assert c.len_min == 1 and c.len_max == 1
    assert c.distinct_estimate() == 3.0


def test_value_set_overflow_falls_back_to_hll(ray_session):
    import ray.data as rd

    vals = [f"v{i:05d}" for i in range(5_000)]
    profs = profile(rd.from_arrow(pa.table({"s": vals})).repartition(4))
    p = profs["s"]
    assert p.value_set is None
    est = p.distinct_estimate()
    assert 4_500 <= est <= 5_500  # HLL within ~10%


def test_suggested_suite_validates_green_on_source(ray_session):
    import ray.data as rd

    ds = rd.read_parquet("/root/testdata/sf0.001/lineitem.parquet")
    suite = suggest_suite(profile(ds), name="lineitem_onboard")
    assert len(suite.expectations) > 20
    res = validate(ds, suite)
    failed = [r for r in res.results if not r.success]
    assert res.success, [
        (f.expectation_config["type"], f.expectation_config["kwargs"], f.result)
        for f in failed
    ]


def test_suite_json_round_trip(ray_session):
    import ray.data as rd

    from great_expectations_ray.core.suite import ExpectationSuite

    ds = rd.from_arrow(pa.table({"x": [1, 2, 3]}))
    suite = suggest_suite(profile(ds))
    back = ExpectationSuite.from_json_dict(suite.to_json_dict())
    assert [e.to_json_dict() for e in back.expectations] == [
        e.to_json_dict() for e in suite.expectations
    ]


def test_cli_profile_and_drift(ray_session, tmp_path):
    """CLI: profile --suggest-suite round-trips through validate; drift
    exits nonzero on schema change."""
    from great_expectations_ray.__main__ import main

    suite_path = str(tmp_path / "suite.json")
    rc = main(["profile", "--input", "/root/testdata/sf0.001/region.parquet",
               "--suggest-suite", suite_path])
    assert rc == 0
    rc = main(["validate", "--input", "/root/testdata/sf0.001/region.parquet",
               "--suite", suite_path])
    assert rc == 0  # suggested suite validates green on its own data
    rc = main(["drift", "--baseline", "/root/testdata/sf0.001/region.parquet",
               "--current", "/root/testdata/sf0.001/nation.parquet"])
    assert rc == 1  # different schema -> drift


def test_cli_dedup_methods(ray_session, tmp_path):
    """CLI: dedup writes the filtered corpus and reports the drop count;
    minhash must drop exactly the corpus's planted near-duplicates."""
    import pyarrow.parquet as pq

    from great_expectations_ray.__main__ import main

    docs = "/root/testdata/sf0.001/documents.parquet"
    out_exact = str(tmp_path / "exact")
    rc = main(["dedup", "--input", docs, "--output", out_exact,
               "--method", "exact", "--key-cols", "text"])
    assert rc == 0
    n_exact = pq.read_table(out_exact).num_rows
    assert 0 < n_exact <= 500

    out_mh = str(tmp_path / "mh")
    rc = main(["dedup", "--input", docs, "--output", out_mh,
               "--method", "minhash"])
    assert rc == 0
    kept = pq.read_table(out_mh)
    assert kept.num_rows == 476  # 500 - 24 planted near-dups
    assert "is_neardup" not in kept.schema.names  # helper column dropped


def test_cli_select_top_fraction(ray_session, tmp_path):
    """CLI: select keeps exactly ceil(frac*n) rows; --invert flips the
    selection to the lowest scores."""
    import pyarrow.parquet as pq

    from great_expectations_ray.__main__ import main

    docs = "/root/testdata/sf0.001/documents.parquet"
    out = str(tmp_path / "sel")
    rc = main(["select", "--input", docs, "--output", out,
               "--frac", "0.25", "--partitions", "2"])
    assert rc == 0
    kept = pq.read_table(out)
    assert kept.num_rows == 125  # ceil(0.25 * 500)
    assert "selected" not in kept.schema.names
    assert "comp_ratio" not in kept.schema.names

    out_inv = str(tmp_path / "sel_inv")
    rc = main(["select", "--input", docs, "--output", out_inv,
               "--frac", "0.1", "--score", "length", "--invert",
               "--partitions", "2"])
    assert rc == 0
    inv = pq.read_table(out_inv).to_pandas()
    assert len(inv) == 50
    # the shortest docs were kept
    full = pq.read_table(docs).to_pandas()
    cutoff = full["text"].str.len().sort_values().iloc[49]
    assert (inv["text"].str.len() <= cutoff).all()


def test_profile_kll_quantiles_and_median_suggestion(ray_session):
    import ray.data as rd

    from great_expectations_ray.pipelines.profiler import profile, suggest_suite

    rng = np.random.default_rng(13)
    vals = rng.normal(100, 15, 20_000)
    ds = rd.from_arrow(pa.table({"x": pa.array(vals, pa.float64())})).repartition(6)
    profs = profile(ds)
    q = profs["x"].to_json_dict()["quantiles"]
    sv = np.sort(vals)
    for frac, key in [(0.25, "p25"), (0.5, "p50"), (0.75, "p75")]:
        rank = np.searchsorted(sv, q[key]) / (len(sv) - 1)
        assert abs(rank - frac) <= 0.03, (key, rank)
    # the suggested median expectation validates green on its own data
    suite = suggest_suite(profs)
    med = [c for c in suite.expectations
           if c.expectation_type == "expect_column_median_to_be_between"]
    assert len(med) == 1
    res = validate(ds, suite)
    assert res.success, [r.expectation_config for r in res.results if not r.success]
