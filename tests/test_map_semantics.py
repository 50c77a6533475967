"""Parity tests for map-expectation semantics against a pandas oracle that
mirrors the reference implementation path: null-drop -> condition -> negate ->
count_nonzero (``column_condition_partial.py:104-121``,
``map_condition_auxilliary_methods.py:56-65``) and ``_mostly_success``
(``expectation.py:2775-2785``)."""

from __future__ import annotations

import pyarrow as pa
import pytest

from great_expectations_ray import ExpectationSuite, validate


def _run_one(ds, etype, **kwargs):
    suite = ExpectationSuite("t").add(etype, **kwargs)
    res = validate(ds, suite)
    assert len(res.results) == 1
    return res.results[0]


def test_match_regex_counts(fixture_ds):
    r = _run_one(fixture_ds, "expect_column_values_to_match_regex",
                 column="s_mixed", regex="match")
    # 80 match, 10 NOPE unexpected, 10 null missing
    assert r.result["element_count"] == 100
    assert r.result["missing_count"] == 10
    assert r.result["unexpected_count"] == 10
    assert r.result["unexpected_percent"] == pytest.approx(10 / 90 * 100)
    assert r.result["unexpected_percent_total"] == pytest.approx(10.0)
    assert not r.success
    assert set(r.result["partial_unexpected_list"]) == {"NOPE"}


def test_mostly_strict_boundary(fixture_ds):
    # success ratio = 80/90 = 0.888...; strict >= semantics
    ok = _run_one(fixture_ds, "expect_column_values_to_match_regex",
                  column="s_mixed", regex="match", mostly=80 / 90)
    assert ok.success
    bad = _run_one(fixture_ds, "expect_column_values_to_match_regex",
                   column="s_mixed", regex="match", mostly=0.9)
    assert not bad.success


def test_vacuous_truth_all_null(fixture_ds):
    r = _run_one(fixture_ds, "expect_column_values_to_match_regex",
                 column="s_allnull", regex="x")
    assert r.success  # expectation.py:2027-2040
    assert r.result["unexpected_count"] == 0
    assert r.result["missing_count"] == 100


def test_null_rules(fixture_ds):
    r = _run_one(fixture_ds, "expect_column_values_to_not_be_null", column="s_mixed")
    assert r.result["unexpected_count"] == 10
    assert not r.success
    r2 = _run_one(fixture_ds, "expect_column_values_to_be_null", column="s_allnull")
    assert r2.success


def test_in_set(fixture_ds):
    r = _run_one(fixture_ds, "expect_column_values_to_be_in_set",
                 column="s_mixed", value_set=["match"])
    assert r.result["unexpected_count"] == 10
    r2 = _run_one(fixture_ds, "expect_column_values_to_not_be_in_set",
                  column="s_mixed", value_set=["NOPE"])
    assert r2.result["unexpected_count"] == 10


def test_between_with_strict(fixture_ds, fixture_table):
    import pandas as pd

    s = fixture_table.column("n_int").to_pandas()
    expected_unexpected = int((~((s >= 5) & (s < 40)) & s.notna()).sum())
    r = _run_one(fixture_ds, "expect_column_values_to_be_between",
                 column="n_int", min_value=5, max_value=40, strict_max=True)
    assert r.result["unexpected_count"] == expected_unexpected
    assert r.result["missing_count"] == 5


def test_value_lengths(fixture_ds):
    r = _run_one(fixture_ds, "expect_column_value_lengths_to_be_between",
                 column="s_clean", min_value=4, max_value=10)
    assert r.success
    r2 = _run_one(fixture_ds, "expect_column_value_lengths_to_equal",
                  column="s_mixed", value=5)
    # "match"=5 ok, "NOPE"=4 unexpected
    assert r2.result["unexpected_count"] == 10


def test_json_parseable(fixture_ds):
    r = _run_one(fixture_ds, "expect_column_values_to_be_json_parseable", column="js")
    assert r.result["unexpected_count"] == 20
    assert r.result["missing_count"] == 10


@pytest.mark.parametrize("etype,extra", [
    ("expect_column_values_to_be_json_parseable", {}),
    ("expect_column_values_to_match_json_schema", {"json_schema": {"type": "object"}}),
])
def test_json_undecodable_deep_nesting_is_unexpected(etype, extra):
    """json.loads raises RecursionError, not ValueError, on deep nesting:
    that value is unexpected, the rule does not raise."""
    import ray.data as rd

    ds = rd.from_arrow(pa.table({"js": ['{"a":1}', "[" * 100000, "nope", None]}))
    r = _run_one(ds, etype, column="js", **extra)
    assert r.result["unexpected_count"] == 2
    assert r.result["missing_count"] == 1


def test_dateutil_parses_once_per_distinct_non_iso_value(monkeypatch):
    import dateutil.parser

    from great_expectations_ray.functions.column_map import CONDITION_KERNELS

    calls = []
    real_parse = dateutil.parser.parse

    def counting_parse(*args, **kwargs):
        calls.append(args[0])
        return real_parse(*args, **kwargs)

    monkeypatch.setattr(dateutil.parser, "parse", counting_parse)
    kernel = CONDITION_KERNELS["expect_column_values_to_be_dateutil_parseable"]
    iso = [f"2020-{m:02d}-{d:02d}" for m in (1, 2) for d in range(1, 26)]
    pool = iso + ["nope", "2020-02-30", "31/12/2020"]
    vals = [pool[i % len(pool)] for i in range(10_000)]
    r = kernel(pa.table({"c": vals}), {"column": "c"})
    assert sorted(calls) == ["2020-02-30", "31/12/2020", "nope"]
    assert r.meets.tolist() == [v != "nope" and v != "2020-02-30" for v in vals]

    calls.clear()
    kernel(pa.table({"c": pa.array([], pa.string())}), {"column": "c"})
    kernel(pa.table({"c": pa.array([None] * 5, pa.string())}), {"column": "c"})
    assert calls == []


def test_pair_rules(fixture_ds, fixture_table):
    import pandas as pd

    a = fixture_table.column("pair_a").to_pandas()
    b = fixture_table.column("pair_b").to_pandas()
    considered = ~(a.isna() & b.isna())  # both_values_are_missing default
    meets = (a == b).fillna(False)
    expected = int((considered & ~meets).sum())
    r = _run_one(fixture_ds, "expect_column_pair_values_to_be_equal",
                 column_A="pair_a", column_B="pair_b")
    assert r.result["unexpected_count"] == expected

    r2 = _run_one(fixture_ds, "expect_column_pair_values_a_to_be_greater_than_b",
                  column_A="pair_a", column_B="pair_b", or_equal=True,
                  ignore_row_if="either_value_is_missing")
    meets2 = (a >= b).fillna(False)
    considered2 = a.notna() & b.notna()
    assert r2.result["unexpected_count"] == int((considered2 & ~meets2).sum())


def test_multicolumn_sum_equal(fixture_ds):
    r = _run_one(fixture_ds, "expect_multicolumn_sum_to_equal",
                 column_list=["mc_1", "mc_2", "mc_3"], sum_total=6)
    assert r.result["unexpected_count"] == 10
    assert not r.success


def test_unique_within_record(fixture_ds):
    r = _run_one(fixture_ds, "expect_select_column_values_to_be_unique_within_record",
                 column_list=["mc_1", "mc_2", "mc_3"])
    # last 10 rows have mc_3 == mc_1 == 1
    assert r.result["unexpected_count"] == 10


def test_row_condition(fixture_ds, fixture_table):
    s = fixture_table.to_pandas()
    domain = s[s.n_int.notna() & (s.n_int > 25)]
    r = _run_one(fixture_ds, "expect_column_values_to_be_between",
                 column="n_int", min_value=0, max_value=30,
                 row_condition='col("n_int") > 25')
    assert r.result["element_count"] == len(domain)
    assert r.result["unexpected_count"] == int((domain.n_int > 30).sum())


def test_result_format_complete(fixture_ds):
    from great_expectations_ray.engine import validate as v

    suite = ExpectationSuite("t").add(
        "expect_column_values_to_match_regex", column="s_mixed", regex="match"
    )
    res = v(fixture_ds, suite, result_format="COMPLETE",
            unexpected_index_column_names=["dup_key"])
    r = res.results[0]
    assert len(r.result["unexpected_list"]) == 10
    assert len(r.result["unexpected_index_list"]) == 10
    assert all(isinstance(k, tuple) for k in r.result["unexpected_index_list"])
    assert r.result["partial_unexpected_counts"][0] == {"value": "NOPE", "count": 10}


def test_boolean_only_format(fixture_ds):
    from great_expectations_ray.engine import validate as v

    suite = ExpectationSuite("t").add(
        "expect_column_values_to_match_regex", column="s_mixed", regex="match"
    )
    res = v(fixture_ds, suite, result_format="BOOLEAN_ONLY")
    assert res.results[0].result == {}


def test_result_format_dict_with_unexpected_rows(fixture_ds):
    from great_expectations_ray.engine import validate as v

    suite = ExpectationSuite("t").add(
        "expect_column_values_to_match_regex", column="s_mixed", regex="match"
    )
    res = v(fixture_ds, suite, result_format={
        "result_format": "SUMMARY",
        "partial_unexpected_count": 5,
        "include_unexpected_rows": True,
    })
    r = res.results[0]
    assert len(r.result["partial_unexpected_list"]) == 5  # custom cap
    rows = r.result["unexpected_rows"]
    assert 0 < len(rows) <= 5
    assert all(row["s_mixed"] == "NOPE" for row in rows)
    assert "n_int" in rows[0]  # full row dicts


def test_dedup_keep_best(ray_session):
    """Keep-BEST dedup: per key the max-score row survives (ties -> min
    tie_break); partitioning-invariant; lower_is_better flips."""
    import pandas as pd
    import ray.data as rd

    from great_expectations_ray.stages.dedup import dedup_keep_best

    df = pd.DataFrame({
        "k": ["a", "a", "a", "b", "b", "c"],
        "score": [2.0, 5.0, 5.0, 1.0, 0.5, 3.0],
        "id": [10, 11, 12, 20, 21, 30],
    })

    def run(parts, **kw):
        return (dedup_keep_best(rd.from_pandas(df).repartition(parts),
                                ["k"], "score", tie_break="id", **kw)
                .to_pandas().sort_values("k").reset_index(drop=True))

    out = run(3)
    assert out["id"].tolist() == [11, 20, 30]  # max score, tie -> min id
    assert out.equals(run(1))
    low = run(2, higher_is_better=False)
    assert low["id"].tolist() == [10, 21, 30]  # min score wins
