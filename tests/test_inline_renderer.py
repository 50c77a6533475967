"""Inline (atomic) renderer — reference render/renderer/inline_renderer.py:39
and expectations/expectation.py:958 (_get_observed_value_from_evr)."""

from great_expectations_ray.pipelines.inline import (
    DIAGNOSTIC_OBSERVED_VALUE,
    PRESCRIPTIVE_FAILED,
    PRESCRIPTIVE_SUMMARY,
    inline_render,
    num_to_str,
)
from great_expectations_ray.pipelines.prescriptive import _fmt, describe


def render_template(value: dict) -> str:
    """Substitute params back into a template — the check that the
    (template, params) pair round-trips to the flat Data-Docs sentence."""
    out = value["template"]
    # longest names first so $value_set is not clobbered by $value
    for k in sorted(value.get("params", {}), key=len, reverse=True):
        v = value["params"][k]["value"]
        if isinstance(v, (list, tuple, set)):
            rendered = _fmt(v)
        elif isinstance(v, float):
            rendered = f"{v:g}"
        else:
            rendered = str(v)
        out = out.replace(f"${k}", rendered)
    return out


def test_config_yields_prescriptive_summary_with_params():
    cfg = {"type": "expect_column_values_to_be_between",
           "kwargs": {"column": "size_bytes", "min_value": 1,
                      "max_value": 50, "mostly": 0.95}}
    (content,) = inline_render(cfg)
    assert content["name"] == PRESCRIPTIVE_SUMMARY
    assert content["value_type"] == "StringValueType"
    v = content["value"]
    assert v["template"] == ("values of $column must be between $min_value "
                             "and $max_value, at least $mostly_pct% of the "
                             "time.")
    assert v["params"]["column"] == {"schema": {"type": "string"},
                                     "value": "size_bytes"}
    assert v["params"]["min_value"]["value"] == 1
    assert v["params"]["mostly_pct"]["value"] == 95.0
    assert v["schema"] == {"type": "com.superconductive.rendered.string"}


def test_template_round_trips_to_data_docs_sentence():
    cases = [
        ("expect_column_values_to_be_in_set",
         {"column": "lang", "value_set": ["py", "go", "rs"]}),
        ("expect_table_row_count_to_be_between", {"min_value": 10}),
        ("expect_column_mean_to_be_between", {"column": "v", "max_value": 3.5}),
        ("expect_multicolumn_sum_to_equal",
         {"column_list": ["a", "b"], "sum_total": 10}),
        ("expect_column_values_to_be_between",
         {"column": "x", "min_value": 0, "max_value": 9, "mostly": 0.9}),
        ("expect_column_values_to_be_unique", {"column": "id"}),
    ]
    for etype, kwargs in cases:
        (content,) = inline_render({"type": etype, "kwargs": kwargs})
        assert render_template(content["value"]) == describe(etype, kwargs)


def test_regex_template_absorbs_quotes():
    cfg = {"type": "expect_column_values_to_match_regex",
           "kwargs": {"column": "path", "regex": "^[a-z]+$",
                      "row_condition": 'lang=="py"'}}
    (content,) = inline_render(cfg)
    v = content["value"]
    # reference style: $regex carries no quotes in the template
    assert v["template"] == ("values of $column must match the regular "
                             "expression $regex, if $row_condition.")
    assert v["params"]["regex"]["value"] == "^[a-z]+$"
    assert v["params"]["row_condition"]["value"] == 'lang=="py"'


def test_unreferenced_kwargs_dropped_from_params():
    cfg = {"type": "expect_column_values_to_be_unique",
           "kwargs": {"column": "id", "result_format": "SUMMARY"}}
    (content,) = inline_render(cfg)
    assert set(content["value"]["params"]) == {"column"}


def test_evr_yields_diagnostic_then_prescriptive():
    evr = {"expectation_config": {
               "type": "expect_column_values_to_not_be_null",
               "kwargs": {"column": "c"}},
           "success": False,
           "result": {"unexpected_percent": 7.2345678,
                      "element_count": 100}}
    diag, presc = inline_render(evr)
    assert diag["name"] == DIAGNOSTIC_OBSERVED_VALUE
    # reference: num_to_str(pct, precision=5) + "% unexpected"
    assert diag["value"]["template"] == "7.2346% unexpected"
    assert presc["name"] == PRESCRIPTIVE_SUMMARY
    assert presc["value"]["template"] == "values of $column must not be null."


def test_observed_value_semantics():
    def diag(result):
        return inline_render({"expectation_config": {"type": "x", "kwargs": {}},
                              "result": result})[0]["value"]["template"]
    assert diag(None) == "--"
    assert diag({}) == "--"
    assert diag({"observed_value": 12.3456789012345}) == "12.3456789"
    assert diag({"observed_value": 7}) == "7"
    assert diag({"observed_value": True}) == "True"
    assert diag({"observed_value": "abc"}) == "abc"
    assert diag({"unexpected_percent": 0.0}) == "0% unexpected"


def test_num_to_str_significant_digits():
    assert num_to_str(12.3456789012345) == "12.3456789"
    assert num_to_str(0.000123456) == "0.000123456"
    assert num_to_str(100.0) == "100"
    assert num_to_str(3) == "3"
    assert num_to_str(7.2345678, precision=5) == "7.2346"


def test_unknown_expectation_falls_back_not_raises():
    (content,) = inline_render({"type": "totally_unknown", "kwargs": {"a": 1}})
    assert content["name"] in (PRESCRIPTIVE_SUMMARY, PRESCRIPTIVE_FAILED)
    assert "$a" in content["value"]["template"] or "a" in str(content["value"])


def test_evr_render_attaches_rendered_content():
    from great_expectations_ray.core.results import (
        ExpectationValidationResult,
        SuiteValidationResult,
    )
    evr = ExpectationValidationResult(
        success=True,
        expectation_config={"type": "expect_column_values_to_not_be_null",
                            "kwargs": {"column": "r_name"}},
        result={"element_count": 5, "unexpected_count": 0,
                "unexpected_percent": 0.0})
    suite_res = SuiteValidationResult(
        success=True, results=[evr],
        statistics={"evaluated_expectations": 1},
        suite_name="s")
    assert "rendered_content" not in evr.to_json_dict()
    suite_res.render()
    d = suite_res.to_json_dict()
    rc = d["results"][0]["rendered_content"]
    assert rc[0]["name"] == DIAGNOSTIC_OBSERVED_VALUE
    assert rc[0]["value"]["template"] == "0% unexpected"
    assert rc[1]["name"] == PRESCRIPTIVE_SUMMARY
    assert rc[1]["value"]["params"]["column"]["value"] == "r_name"
