"""Sources (reader guessing, pruning) + data-docs summary action."""

from __future__ import annotations

import os

import pyarrow as pa
import pytest

from great_expectations_ray.sources.readers import from_memory, read_batch


def test_read_batch_parquet_pruning():
    ds = read_batch("/root/testdata/sf0.001/lineitem.parquet",
                    columns=["l_orderkey", "l_quantity"])
    assert set(ds.schema().names) == {"l_orderkey", "l_quantity"}
    assert ds.count() == 6000


def test_read_batch_guess_failure():
    with pytest.raises(ValueError):
        read_batch("/no/such/file.xyz")


def test_from_memory():
    t = pa.table({"a": [1, 2, 3]})
    assert from_memory(t).count() == 3
    import pandas as pd

    assert from_memory(pd.DataFrame({"a": [1]})).count() == 1


def test_data_docs_action(tmp_path):
    from great_expectations_ray.corpus import corpus_dataset
    from great_expectations_ray.pipelines.checkpoint import run_checkpoint
    from great_expectations_ray.pipelines.data_docs import write_data_docs
    from great_expectations_ray.pipelines.quality_filter import QualityFilterConfig

    src = tmp_path / "in"
    corpus_dataset(200, blocks=2).write_parquet(str(src))
    out_root = str(tmp_path / "out")
    res = run_checkpoint(
        str(src) + "/*.parquet", out_root,
        config=QualityFilterConfig(use_langid=False,
                                   use_perplexity=False),
        n_partitions=2,
        actions=[lambda r: write_data_docs(out_root, r)],
    )
    assert os.path.exists(os.path.join(out_root, "docs", "index.html"))
    assert os.path.exists(os.path.join(out_root, "docs", "summary.json"))
    html = open(os.path.join(out_root, "docs", "index.html")).read()
    assert "rows=200" in html


def test_site_builder_renders_evr_fields(tmp_path):
    """build_site: a stored SuiteValidationResult renders a browsable page
    with expectation type, success icon, observed value, unexpected count,
    and exception info (reference tests/render/ shape)."""
    import ray.data as rd

    from great_expectations_ray import ExpectationSuite, validate
    from great_expectations_ray.pipelines.data_docs import build_site
    from great_expectations_ray.state.stores import ValidationResultsStore

    ds = rd.from_items([{"x": i, "y": "a" if i % 2 else "b"} for i in range(20)])
    suite = (
        ExpectationSuite("docs_suite")
        .add("expect_column_values_to_be_between", column="x", min_value=0, max_value=10)
        .add("expect_column_mean_to_be_between", column="x", min_value=0, max_value=100)
        .add("expect_column_values_to_not_be_null", column="missing_col")
    )
    res = validate(ds, suite)
    root = str(tmp_path)
    store = ValidationResultsStore(root)
    store.save(res, run_name="r1", run_time=1000.0, batch_id="b0")

    index = build_site(root)
    assert os.path.exists(index)
    idx_html = open(index).read()
    assert "docs_suite" in idx_html and "b0" in idx_html

    page = os.path.join(os.path.dirname(index), "validations",
                        "docs_suite-r1-1000-b0.html")
    body = open(page).read()
    assert "expect_column_values_to_be_between" in body
    assert "unexpected_count=9" in body           # x in 11..19 out of range
    assert "observed=" in body                    # mean observed value
    assert "expect_column_values_to_not_be_null" in body
    assert "fail" in body                         # missing column -> exception EVR


def test_render_unexpected_sample_table_and_histogram(tmp_path):
    """Render depth (reference render/renderer/content_block): a failing
    expectation's page shows its sampled-unexpected-values table, and a
    numeric column's KL expectation renders an observed-distribution
    histogram block."""
    import ray.data as rd

    from great_expectations_ray import ExpectationSuite, validate
    from great_expectations_ray.pipelines.data_docs import (
        render_validation_page,
    )

    ds = rd.from_items([{"x": float(i % 10)} for i in range(100)])
    suite = (
        ExpectationSuite("render_suite")
        .add("expect_column_values_to_be_between", column="x",
             min_value=0, max_value=7)              # 8.0 and 9.0 unexpected
        .add("expect_column_kl_divergence_to_be_less_than", column="x",
             partition_object={"bins": [0.0, 5.0, 10.0],
                               "weights": [0.5, 0.5]},
             threshold=0.1)
    )
    res = validate(ds, suite)
    body = render_validation_page(res.to_json_dict(), title="t")

    # unexpected-sample content block: values + counts as a table
    assert "Sampled unexpected values" in body
    assert "<code>8.0</code>" in body and "<code>9.0</code>" in body
    assert "<th>count</th>" in body  # SUMMARY format carries counts

    # histogram content block off details.observed_partition
    assert "Observed distribution" in body
    assert "histbar" in body
    assert "[0, 5)" in body and "[5, 10)" in body
    assert "tail weights" in body

    # a PASSING map expectation renders no unexpected block
    ok_res = validate(
        ds, ExpectationSuite("ok").add(
            "expect_column_values_to_be_between", column="x",
            min_value=0, max_value=9)
    )
    ok_body = render_validation_page(ok_res.to_json_dict(), title="t2")
    assert "Sampled unexpected values" not in ok_body


def test_checkpoint_rollup_page_and_actions(tmp_path):
    """Checkpoint run -> stored rollups -> site pages; notification actions
    render payloads (dry-run, no network) and round-trip their configs."""
    from great_expectations_ray.corpus import corpus_dataset
    from great_expectations_ray.pipelines.actions import (
        EmailAction,
        SlackNotificationAction,
        UpdateDataDocsAction,
        ValidationAction,
    )
    from great_expectations_ray.pipelines.checkpoint import run_checkpoint
    from great_expectations_ray.pipelines.quality_filter import QualityFilterConfig

    src = tmp_path / "in"
    corpus_dataset(200, blocks=2).write_parquet(str(src))
    out_root = str(tmp_path / "out")
    slack = SlackNotificationAction(slack_webhook="https://hooks.example/x")
    email = EmailAction(receiver_emails="a@x.dev, b@x.dev", notify_on="failure")
    docs = UpdateDataDocsAction(site_root=out_root)
    res = run_checkpoint(
        str(src) + "/*.parquet", out_root,
        config=QualityFilterConfig(use_langid=False,
                                   use_perplexity=False),
        n_partitions=2,
        actions=[slack, email, docs],
    )
    # slack: rendered payload contains the run stats
    out = slack.last_result
    assert out["slack_result"] == "rendered"
    text = str(out["payload"])
    assert "Rows" in text and "200" in text
    # email gates on notify_on=failure: fires iff the checkpoint failed
    expected = "none required" if res.success else "rendered"
    assert email.last_result["email_result"] == expected
    # failing result triggers email payload with failed expectation names
    fail_payload = email.run(_FailingResult(), dry_run=True)
    assert fail_payload["email_result"] == "rendered"
    assert "expect_column_values_to_be_between" in str(fail_payload["payload"])
    # docs site built over the stored partition rollups
    site_index = os.path.join(out_root, "docs", "site", "index.html")
    assert os.path.exists(site_index)
    assert "quality_suite" in open(site_index).read() or "p000" in open(site_index).read()
    # config round-trip
    for a in (slack, email, docs):
        b = ValidationAction.from_config(a.to_json())
        assert type(b) is type(a) and b.to_config() == a.to_config()


class _FailingResult:
    """Minimal SuiteValidationResult-shaped stub with one failed EVR."""

    success = False
    suite_name = "s"

    class _EVR:
        success = False
        expectation_config = {
            "expectation_type": "expect_column_values_to_be_between",
            "kwargs": {"column": "x"},
        }

    results = [_EVR()]

    def to_json_dict(self):
        return {
            "success": False, "suite_name": "s",
            "statistics": {"evaluated_expectations": 1,
                           "successful_expectations": 0,
                           "unsuccessful_expectations": 1},
        }


def test_orc_feather_sql_readers(tmp_path):
    """Round-trip ORC and Feather through read_batch; SQL source via duckdb."""
    import pyarrow.feather as feather
    import pyarrow.orc as orc

    from great_expectations_ray.sources.readers import read_batch, read_sql_source

    t = pa.table({"a": list(range(50)), "b": [f"s{i}" for i in range(50)]})
    orc_path = str(tmp_path / "t.orc")
    fea_path = str(tmp_path / "t.feather")
    orc.write_table(t, orc_path)
    feather.write_feather(t, fea_path)

    for path in (orc_path, fea_path):
        ds = read_batch(path)
        got = ds.to_pandas().sort_values("a").reset_index(drop=True)
        assert got.equals(t.to_pandas())
        pruned = read_batch(path, columns=["a"])
        assert pruned.schema().names == ["a"]

    # excel is gated behind an import-try (no engine in this environment)
    import pytest as _pytest

    from great_expectations_ray.sources.readers import read_excel

    with _pytest.raises(ImportError, match="openpyxl"):
        read_excel(str(tmp_path / "x.xlsx"))

    import duckdb

    pq_path = str(tmp_path / "t.parquet")
    import pyarrow.parquet as pq

    pq.write_table(t, pq_path)
    ds = read_sql_source(
        f"SELECT a, b FROM read_parquet('{pq_path}') WHERE a < 10",
        lambda: __import__("duckdb").connect(),
    )
    assert ds.count() == 10


def test_sql_pushdown_row_condition_partitioner_sampler(tmp_path, ray_session):
    """Pushdown compiles INTO the SQL and the database returns the pruned
    set (reference sqlalchemy_execution_engine partitioner/sampler analogs)."""
    import datetime as dt

    import pyarrow as pa
    import pyarrow.parquet as pq

    from great_expectations_ray.sources.readers import (
        compile_sql_pushdown,
        read_sql_source,
    )

    t = pa.table({
        "id": list(range(100)),
        "v": [float(i) for i in range(100)],
        "ts": [dt.datetime(2024, 1 + (i % 12), 1) for i in range(100)],
        "name": [f"n{i}" for i in range(100)],
    })
    pq_path = str(tmp_path / "p.parquet")
    pq.write_table(t, pq_path)
    base = f"SELECT * FROM read_parquet('{pq_path}')"
    factory = lambda: __import__("duckdb").connect()  # noqa: E731

    # row-condition DSL -> WHERE
    ds = read_sql_source(base, factory, row_condition='col("v") >= 90.0')
    assert ds.count() == 10

    # date-part partitioner: month 3 of 2024 -> ids where i % 12 == 2
    ds = read_sql_source(
        base, factory,
        partitioner={"type": "date_parts", "column": "ts",
                     "parts": {"year": 2024, "month": 3}},
    )
    got = sorted(r["id"] for r in ds.take_all())
    assert got == [i for i in range(100) if i % 12 == 2]

    # mod partitioner + limit sampler compose; LIMIT applies after WHERE
    ds = read_sql_source(
        base, factory,
        partitioner={"type": "mod", "column": "id", "mod": 10, "value": 3},
        sampler={"type": "limit", "n": 4},
    )
    rows = ds.take_all()
    assert len(rows) == 4 and all(r["id"] % 10 == 3 for r in rows)

    # divided partitioner
    ds = read_sql_source(
        base, factory,
        partitioner={"type": "divided", "column": "id", "divisor": 25,
                     "value": 2},
    )
    assert sorted(r["id"] for r in ds.take_all()) == list(range(50, 75))

    # list sampler with string escaping
    ds = read_sql_source(
        base, factory,
        sampler={"type": "list", "column": "name", "values": ["n1", "n2"]},
    )
    assert sorted(r["name"] for r in ds.take_all()) == ["n1", "n2"]

    # the compiled SQL itself is inspectable and only wraps when needed
    assert compile_sql_pushdown(base) == base
    sql = compile_sql_pushdown(
        base, row_condition='col("name") == "o\'brien" and col("v") > 1')
    assert "''" in sql and "WHERE" in sql  # quote escaped, predicate present

    # hashed partitioner pushdown: md5-tail mod in SQL — value parity with
    # the in-Ray functions/partitioners.partition_on_hashed_column
    import hashlib

    def _bucket(i: int) -> int:
        return int(hashlib.md5(str(i).encode()).hexdigest()[24:32], 16) % 7

    ds = read_sql_source(
        base, factory,
        partitioner={"type": "hashed", "column": "id", "n_buckets": 7,
                     "value": 3},
    )
    assert sorted(r["id"] for r in ds.take_all()) == [
        i for i in range(100) if _bucket(i) == 3]

    # hash sampler pushdown: md5 hex-suffix equality — reference
    # sample_using_hash semantics (stages/dedup.sample_using_hash)
    def _tail(i: int) -> str:
        return hashlib.md5(str(i).encode()).hexdigest()[-1:]

    ds = read_sql_source(
        base, factory,
        sampler={"type": "hash", "column": "id", "digits": 1, "matches": "a"},
    )
    assert sorted(r["id"] for r in ds.take_all()) == [
        i for i in range(100) if _tail(i) == "a"]

    import pytest as _pytest

    with _pytest.raises(NotImplementedError, match="random"):
        compile_sql_pushdown(base, sampler={"type": "random", "p": 0.5})


def test_fwf_pickle_partitioner_readers(tmp_path):
    import pandas as pd

    from great_expectations_ray.sources.readers import read_batch

    df = pd.DataFrame({"a": [1, 2, 3], "b": ["x", "y", "z"]})
    pkl = str(tmp_path / "t.pkl")
    df.to_pickle(pkl)
    got = read_batch(pkl).to_pandas().sort_values("a").reset_index(drop=True)
    assert got.equals(df)

    fwf = str(tmp_path / "t.fwf")
    with open(fwf, "w") as f:
        f.write("a   b\n1   x\n22  y\n")
    ds = read_batch(fwf, reader="read_fwf")
    out = ds.to_pandas().sort_values("a").reset_index(drop=True)
    assert list(out.columns) == ["a", "b"] and out["a"].tolist() == [1, 22]

    # converted-datetime partitioner
    import pyarrow as pa
    import ray.data as rd

    from great_expectations_ray.functions.partitioners import (
        partition_on_converted_datetime,
    )

    t = pa.table({"ts": pa.array(
        [pd.Timestamp("2024-01-15"), pd.Timestamp("2024-02-01")],
        pa.timestamp("us"))})
    out = partition_on_converted_datetime(rd.from_arrow(t), "ts", "%Y-%m")
    keys = sorted(r["partition_key"] for r in out.take_all())
    assert keys == ["2024-01", "2024-02"]


def test_checkpoint_store_and_docs_cli(tmp_path):
    from great_expectations_ray.__main__ import main
    from great_expectations_ray.state.stores import (
        CheckpointStore,
        ValidationResultsStore,
    )

    root = str(tmp_path)
    cs = CheckpointStore(root)
    cfg = {"input": "/data/*.parquet", "partitions": 8,
           "actions": [{"type": "slack", "slack_webhook": "https://x",
                        "name": "slack_notification", "notify_on": "failure",
                        "slack_channel": None,
                        "show_failed_expectations": True}]}
    cs.save("nightly", cfg)
    assert cs.list_checkpoints() == ["nightly"]
    assert cs.load("nightly")["partitions"] == 8
    cs.delete("nightly")
    assert cs.list_checkpoints() == []

    # docs CLI over a stored result
    vs = ValidationResultsStore(root)
    vs.save({"suite_name": "s1", "success": False, "rollup": []},
            run_name="r", run_time=1.0, batch_id="b")
    rc = main(["docs", "--root", root])
    assert rc == 0
    assert os.path.exists(os.path.join(root, "docs", "site", "index.html"))


def test_site_renders_suite_pages(tmp_path):
    from great_expectations_ray import ExpectationSuite
    from great_expectations_ray.pipelines.data_docs import build_site
    from great_expectations_ray.state.stores import ExpectationsStore

    root = str(tmp_path)
    es = ExpectationsStore(root)
    es.save(ExpectationSuite("site_suite", suite_parameters={"x": 3}).add(
        "expect_column_values_to_be_between", column="v",
        min_value=0, max_value={"$PARAMETER": "x * 3"}))
    index = build_site(root)
    idx = open(index).read()
    assert "Expectation Suites" in idx and "site_suite" in idx
    page = open(os.path.join(os.path.dirname(index),
                             "expectations", "site_suite.html")).read()
    assert "expect_column_values_to_be_between" in page
    assert "$PARAMETER" in page  # unresolved config is what the suite stores


def test_partition_files_by_regex(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from great_expectations_ray.sources.readers import (
        partition_files_by_regex,
        read_partitioned_files,
    )

    for name, val in [("data_2023-01.parquet", 1), ("data_2023-02.parquet", 2),
                      ("data_2023-02_b.parquet", 3), ("notes.txt", 0)]:
        p = tmp_path / name
        if name.endswith(".parquet"):
            pq.write_table(pa.table({"v": [val]}), p)
        else:
            p.write_text("skip me")
    paths = [str(p) for p in sorted(tmp_path.iterdir())]
    groups = partition_files_by_regex(paths, "monthly")
    assert set(groups) == {("2023", "01"), ("2023", "02")}
    assert len(groups[("2023", "02")]) == 2  # non-matching notes.txt skipped

    batches = dict(read_partitioned_files(paths, "monthly"))
    assert sorted(batches[("2023", "02")].to_pandas()["v"].tolist()) == [2, 3]

    # custom regex with one group
    custom = partition_files_by_regex(paths, r"data_(\d{4})")
    assert set(custom) == {("2023",)}


def test_render_column_sections_and_profiling_page(tmp_path):
    """Column-grouped sections (page_renderer.py:156-179 layout) and the
    profiling page (ProfilingResultsPageRenderer essentials)."""
    import ray.data as rd

    from great_expectations_ray import ExpectationSuite, validate
    from great_expectations_ray.pipelines.data_docs import (
        render_profiling_page,
        render_validation_page,
    )
    from great_expectations_ray.pipelines.profiler import profile

    ds = rd.from_items(
        [{"x": float(i % 10), "s": f"v{i % 3}", "n": i} for i in range(60)]
    )
    suite = (
        ExpectationSuite("sections")
        .add("expect_table_row_count_to_be_between", min_value=1, max_value=100)
        .add("expect_column_values_to_be_between", column="x",
             min_value=0, max_value=9)
        .add("expect_column_values_to_be_in_set", column="s",
             value_set=["v0", "v1", "v2"])
    )
    body = render_validation_page(validate(ds, suite).to_json_dict(), title="t")
    # table-level section leads; one section per referenced column, sorted
    assert "<h3>Table-Level Expectations</h3>" in body
    assert "<h3>s</h3>" in body and "<h3>x</h3>" in body
    assert body.index("Table-Level Expectations") < body.index("<h3>s</h3>") \
        < body.index("<h3>x</h3>")

    # a table-rules-only payload renders flat (no pointless single section)
    flat = render_validation_page(
        validate(ds, ExpectationSuite("t").add(
            "expect_table_row_count_to_equal", value=60)).to_json_dict(),
        title="flat")
    assert "<h3>" not in flat

    # profiling page: overview, per-column facts, value-set bars
    profs = profile(ds)
    page = render_profiling_page(profs, title="prof")
    assert "columns=<code>3</code>" in page
    for c in ("x", "s", "n"):
        assert f"<h3 id='col-{c}'>{c}</h3>" in page
    assert "missing=0.0% (0)" in page
    assert "mean=" in page and "stdev=" in page          # numeric facts
    assert "value lengths" in page                        # string facts
    assert "Distinct values" in page and "histbar" in page  # value-set bars
    assert "v0" in page and "v2" in page
    # overview section (profiling_results_overview_section_renderer
    # essentials): variable-type tally + per-column type/missing/distinct
    # table linking to the detail sections
    assert "<h2>Overview</h2>" in page
    assert "variable types:" in page
    assert "numeric=<code>2</code>" in page and "string=<code>1</code>" in page
    assert "<a href='#col-x'>x</a>" in page
    assert page.count("<td>0.0%</td>") == 3  # missing column per row


def test_site_index_tabs_profiling_and_exception_list(tmp_path):
    """SiteIndexPageRenderer parity (site_index_page_renderer.py:164-258):
    the index carries three tabs — Validation Results (run time / run name /
    batch / suite / status), Profiling Results, Expectation Suites — and the
    profiling tab links pages rendered from the ProfilingResultsStore.  The
    validation page carries the ExceptionListContentBlockRenderer block
    (exception_list_content_block.py:80-88) for EVRs that raised."""
    from great_expectations_ray import ExpectationSuite
    from great_expectations_ray.pipelines.data_docs import build_site
    from great_expectations_ray.state.stores import (
        ExpectationsStore,
        ProfilingResultsStore,
        ValidationResultsStore,
    )

    root = str(tmp_path)
    ExpectationsStore(root).save(
        ExpectationSuite("tab_suite").add(
            "expect_column_values_to_not_be_null", column="x"))
    # one stored validation with a raised-exception EVR
    ValidationResultsStore(root).save(
        {"suite_name": "tab_suite", "success": False,
         "statistics": {"evaluated_expectations": 2,
                        "successful_expectations": 1,
                        "success_percent": 50.0},
         "results": [
             {"success": True,
              "expectation_config": {
                  "expectation_type": "expect_column_values_to_not_be_null",
                  "kwargs": {"column": "x"}},
              "result": {"unexpected_count": 0}},
             {"success": False,
              "expectation_config": {
                  "expectation_type": "expect_column_mean_to_be_between",
                  "kwargs": {"column": "ghost"}},
              "exception_info": {
                  "raised_exception": True,
                  "exception_message": "column 'ghost' not found"},
              "result": {}},
         ]},
        run_name="nightly", run_time=1700000000.0, batch_id="b0")
    # one stored profile
    ProfilingResultsStore(root).save(
        "lineitem", "profile-1700000000",
        {"qty": {"dtype": "int64", "row_count": 10, "null_count": 1,
                 "distinct_estimate": 7, "mean": 3.5, "stdev": 1.1,
                 "min": 1, "max": 9}})

    index = build_site(root)
    idx = open(index).read()
    # three tabs with counts; validation table has the reference's columns
    assert "Validation Results (1)" in idx
    assert "Profiling Results (1)" in idx
    assert "Expectation Suites (1)" in idx
    assert "<th>run time</th>" in idx and "<th>run name</th>" in idx
    assert "nightly" in idx and "2023-11-14" in idx  # epoch 1700000000 UTC
    # profiling page rendered and linked
    prof_page = os.path.join(os.path.dirname(index), "profiling",
                             "lineitem-profile-1700000000.html")
    body = open(prof_page).read()
    assert "qty" in body and "Overview" in body
    # exception list block on the validation page
    val_page = os.path.join(
        os.path.dirname(index), "validations",
        "tab_suite-nightly-1700000000-b0.html")
    vbody = open(val_page).read()
    assert "Failed expectations" in vbody
    assert "raised an exception" in vbody
    assert "column &#x27;ghost&#x27; not found" in vbody or \
        "column 'ghost' not found" in vbody
    assert "expect_column_mean_to_be_between" in vbody


def test_site_index_call_to_action_when_empty(tmp_path):
    """call_to_action_renderer.py essentials: an empty project renders the
    how-to block instead of bare tables."""
    from great_expectations_ray.pipelines.data_docs import build_site

    index = build_site(str(tmp_path))
    idx = open(index).read()
    assert "No Expectations, Validations, or Profiles" in idx
    assert "python -m great_expectations_ray run" in idx


def test_profiling_store_roundtrip_and_profile_cli(ray_session, tmp_path):
    """ProfilingResultsStore round trip + `profile --root` persists the
    profile so `docs` renders it on the Profiling Results tab."""
    from great_expectations_ray.__main__ import main
    from great_expectations_ray.state.stores import ProfilingResultsStore

    root = str(tmp_path / "store")
    rc = main(["profile", "--input", "/root/testdata/sf0.001/region.parquet",
               "--root", root, "--asset", "region", "--cpus", "2"])
    assert rc == 0
    ps = ProfilingResultsStore(root)
    keys = ps.list_keys()
    assert len(keys) == 1 and keys[0][0] == "region"
    profs = ps.load(*keys[0])
    assert "r_name" in profs and profs["r_name"]["row_count"] > 0

    rc = main(["docs", "--root", root])
    assert rc == 0
    idx = open(os.path.join(root, "docs", "site", "index.html")).read()
    assert "Profiling Results (1)" in idx and "region" in idx
