"""``run_quality_filter`` and every engine entry point that reads its input
plan their reads without Ray's extra block split
(``stages._per_worker.unsplit_reads``), so the read fuses with the first
map; they leave ``DataContext`` as the caller had it and give the same
answer split or not.  The flagship broadcasts its LM once per model and Ray
session."""

from __future__ import annotations

import logging
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray.data as rd
from ray.data import DataContext

from great_expectations_ray import ExpectationSuite, engine
from great_expectations_ray.corpus import corpus_batch
from great_expectations_ray.pipelines import multi_table
from great_expectations_ray.pipelines import quality_filter as qf
from great_expectations_ray.pipelines.grouped import validate_grouped, validate_grouped_wide
from great_expectations_ray.pipelines.incremental_validate import SuiteValidationState
from great_expectations_ray.pipelines.quality_filter import (
    QualityFilterConfig,
    run_quality_filter,
)
from great_expectations_ray.stages._per_worker import unsplit_reads

#: about 16 MB in memory: Ray's default plan (a block per MiB, up to 200)
#: splits each of 8 read tasks in two at the suite's 4 CPUs
N_ROWS = 20_000
N_FILES = 8
SPLIT = "each read task output is split into"


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    """The same rows as ``N_FILES`` files and as one file."""
    rows = corpus_batch(0, N_ROWS)
    root = tmp_path_factory.mktemp("corpus")
    step = -(-N_ROWS // N_FILES)
    (root / "eight").mkdir()
    for i in range(N_FILES):
        pq.write_table(rows.slice(i * step, step), root / "eight" / f"part-{i}.parquet")
    (root / "one").mkdir()
    pq.write_table(rows, root / "one" / "part-0.parquet")
    return {"eight": str(root / "eight"), "one": str(root / "one")}


@contextmanager
def _read_plans():
    """What Ray Data logs while it plans and starts each Dataset: the
    executor's plan lines and the read-parallelism rule's split lines.  The
    executor's plan names the read ``ReadParquet`` split or not; the split
    factor shows only in the rule's log (and in ``Dataset.stats()``)."""
    lines: list[str] = []

    class Grab(logging.Handler):
        def emit(self, record):
            msg = record.getMessage()
            if msg.startswith("Execution plan of Dataset") or SPLIT in msg:
                lines.append(msg)

    loggers = [(logging.getLogger(name), lvl) for name, lvl in [
        ("ray.data._internal.execution.streaming_executor", logging.INFO),
        ("ray.data._internal.logical.rules.set_read_parallelism", logging.DEBUG),
    ]]
    handler = Grab(level=logging.DEBUG)
    saved = [lg.level for lg, _ in loggers]
    for lg, lvl in loggers:
        lg.addHandler(handler)
        lg.setLevel(lvl)
    try:
        yield lines
    finally:
        for (lg, _), lvl in zip(loggers, saved):
            lg.removeHandler(handler)
            lg.setLevel(lvl)


def _splits(lines):
    return [m for m in lines if SPLIT in m]


def test_eight_file_read_is_planned_unsplit(corpus_files, tmp_path):
    ds = rd.read_parquet(corpus_files["eight"])
    with _read_plans() as lines:
        out = run_quality_filter(ds, QualityFilterConfig(), output_dir=str(tmp_path / "o"))
    assert sum(r["row_count"] for r in out["rollup"]) == N_ROWS
    plans = [m for m in lines if m.startswith("Execution plan")]
    assert any("ReadParquet" in p and "MapBatches(_call_instance)" in p for p in plans), plans
    assert not _splits(lines), lines
    # the same input outside the call keeps Ray's default plan
    with _read_plans() as lines:
        ds.map_batches(lambda b: b, batch_format="pyarrow", batch_size=2048).materialize()
    assert _splits(lines), lines


def test_one_and_eight_files_agree(corpus_files, tmp_path):
    """One file is still split (Ray's floor of 2 blocks per CPU), eight are
    not; the rollups and every path's lineage are equal."""
    runs = {}
    for name, path in corpus_files.items():
        with _read_plans() as lines:
            out = run_quality_filter(rd.read_parquet(path), QualityFilterConfig(),
                                     output_dir=str(tmp_path / name))
        lineage = pq.read_table(out["lineage_dir"]).sort_by("path")
        runs[name] = (out["rollup"], lineage, bool(_splits(lines)))
    (roll_1, lin_1, split_1), (roll_8, lin_8, split_8) = runs["one"], runs["eight"]
    assert split_1 and not split_8
    assert roll_1 == roll_8 and sum(r["row_count"] for r in roll_8) == N_ROWS
    assert lin_1.num_rows == N_ROWS and lin_1.column("path").to_pylist() == lin_8.column(
        "path").to_pylist()
    for col in ("keep", "rule_bitmap", "scrubbed_sha256"):
        assert lin_1.column(col).equals(lin_8.column(col)), col
    assert not all(lin_8.column("keep").to_pylist())


@pytest.fixture()
def caller_value(monkeypatch):
    """A caller's own ``read_op_min_num_blocks``, put back after the test."""
    ctx = DataContext.get_current()
    monkeypatch.setattr(ctx, "read_op_min_num_blocks", 37)
    return ctx


@pytest.fixture(scope="module")
def engine_files(tmp_path_factory):
    """The corpus rows with a numeric column, as ``N_FILES`` files."""
    rows = corpus_batch(0, N_ROWS)
    rows = rows.append_column("size", pc.binary_length(rows.column("content")))
    root = tmp_path_factory.mktemp("engine")
    step = -(-N_ROWS // N_FILES)
    for i in range(N_FILES):
        pq.write_table(rows.slice(i * step, step), root / f"part-{i}.parquet")
    return str(root)


def _engine_suite(two_phase: bool) -> ExpectationSuite:
    """A map, an aggregate and a table rule; with ``two_phase`` also a
    z-score rule, which streams the input a second time."""
    suite = (ExpectationSuite(f"unsplit_{int(two_phase)}")
             .add("expect_column_values_to_not_be_null", column="path")
             .add("expect_column_mean_to_be_between", column="size", min_value=0)
             .add("expect_table_row_count_to_be_between", min_value=1))
    if two_phase:
        suite.add("expect_column_value_z_scores_to_be_less_than", column="size",
                  threshold=50, double_sided=True)
    return suite


#: each public engine entry point that reads its input: the reads it plans
#: (a z-score rule reads a second time; ``multi_table`` validates two
#: tables) and a call that returns the row count of every result it made
ENTRY_POINTS = {
    "validate": (2, lambda ds: [
        engine.validate(ds, _engine_suite(True)).meta["row_count"]]),
    "engine.validate_many": (2, lambda ds: [
        r.meta["row_count"] for r in engine.validate_many(
            ds, [_engine_suite(True), _engine_suite(False)]).values()]),
    "multi_table.validate_many": (4, lambda ds: [
        r.meta["row_count"] for r in multi_table.validate_many(
            {"a": ds, "b": ds}, _engine_suite(True)).values()]),
    "validate_grouped": (2, lambda ds: [sum(
        r.meta["row_count"] for r in validate_grouped(
            ds, _engine_suite(True), by="lang").values())]),
    "validate_grouped_wide": (1, lambda ds: [sum(
        r["row_count"] for r in validate_grouped_wide(
            ds, _engine_suite(False), by="lang").take_all())]),
    "SuiteValidationState.compute": (1, lambda ds: [
        SuiteValidationState.compute(ds, _engine_suite(False)).finish().meta["row_count"]]),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_engine_entry_points_plan_their_reads_unsplit(entry, engine_files, caller_value):
    """Every read the call plans gets one block per read task and fuses
    with the map after it; the caller's value is back afterwards."""
    n_reads, call = ENTRY_POINTS[entry]
    ds = rd.read_parquet(engine_files)
    with _read_plans() as lines:
        totals = call(ds)
    assert totals and set(totals) == {N_ROWS}, totals
    reads = [m for m in lines if m.startswith("Execution plan") and "ReadParquet" in m]
    assert len(reads) == n_reads, lines
    assert all("ReadParquet->MapBatches(" in m for m in reads), lines
    assert not _splits(lines), lines
    assert caller_value.read_op_min_num_blocks == 37


def test_validate_restores_the_callers_value_when_it_raises(engine_files, caller_value,
                                                              monkeypatch):
    seen = []
    real = engine._merge_partials

    def spy(*args, **kwargs):
        seen.append(DataContext.get_current().read_op_min_num_blocks)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "_merge_partials", spy)
    ds = rd.read_parquet(engine_files)
    # raised at compile time, before any pass
    with pytest.raises(RuntimeError):
        engine.validate(ds, ExpectationSuite("x").add("expect_totally_unknown_thing",
                                                      column="a"),
                        catch_exceptions=False)
    assert caller_value.read_op_min_num_blocks == 37 and not seen
    # raised after the fused pass
    with pytest.raises(Exception, match="no_such_column"):
        engine.validate(ds, ExpectationSuite("x").add("expect_column_values_to_not_be_null",
                                                      column="no_such_column"),
                        catch_exceptions=False)
    assert seen == [1]
    assert caller_value.read_op_min_num_blocks == 37


#: ``perfbench/workloads.SHIPMODES`` and ``table_suite``, copied
SHIPMODES = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"]


def _table_suite() -> ExpectationSuite:
    return (
        ExpectationSuite("bench_table_validate")
        .add("expect_column_values_to_be_between", column="l_quantity",
             min_value=1, max_value=45)
        .add("expect_column_values_to_be_in_set", column="l_returnflag",
             value_set=["A", "N"])
        .add("expect_column_mean_to_be_between", column="l_discount",
             min_value=0.0, max_value=0.2)
        .add("expect_table_row_count_to_be_between", min_value=1)
        .add("expect_column_values_to_be_dateutil_parseable", column="l_shipdate")
        .add("expect_compound_columns_to_be_unique",
             column_list=["l_orderkey", "l_shipmode"])
        .add("expect_column_distinct_values_to_be_in_set", column="l_shipmode",
             value_set=SHIPMODES)
        .add("expect_column_values_to_not_be_outliers", column="l_extendedprice",
             method="iqr", multiplier=1.5)
    )


@pytest.fixture(scope="module")
def lineitem_files(tmp_path_factory):
    """Lineitem-shaped rows, ship dates as text with malformed values, as
    ``N_FILES`` files and as one file."""
    n, rng = 24_000, np.random.default_rng(1700)
    orderkey = rng.integers(1, n // 3, n)
    dates = (np.datetime64("1992-01-02") + rng.integers(0, 2500, n)).astype(str)
    dates = np.where(orderkey % 97 == 0, "unknown",
                     np.where(orderkey % 91 == 0, "1996-02-30", dates))
    rows = pa.table({
        "l_orderkey": orderkey,
        "l_quantity": rng.integers(1, 51, n).astype(np.float64),
        "l_extendedprice": np.round(rng.lognormal(10, 0.6, n), 2),
        "l_discount": rng.integers(0, 11, n) / 100.0,
        "l_returnflag": rng.choice(["A", "N", "R"], n),
        "l_shipdate": dates,
        "l_shipmode": rng.choice(SHIPMODES, n),
    })
    root = tmp_path_factory.mktemp("lineitem")
    step = -(-n // N_FILES)
    (root / "eight").mkdir()
    for i in range(N_FILES):
        pq.write_table(rows.slice(i * step, step), root / "eight" / f"part-{i}.parquet")
    (root / "one").mkdir()
    pq.write_table(rows, root / "one" / "part-0.parquet")
    return {"eight": str(root / "eight"), "one": str(root / "one"), "rows": rows}


def test_engine_one_and_eight_files_agree(lineitem_files):
    """One file is still split (Ray's floor of 2 blocks per CPU), eight are
    not; every count, observed value and distinct set is equal.  Sample
    lists are not compared: they follow block cuts."""
    runs = {}
    for name in ("one", "eight"):
        with _read_plans() as lines:
            res = engine.validate(rd.read_parquet(lineitem_files[name]), _table_suite())
        runs[name] = (res, bool(_splits(lines)))
    (one, split_1), (eight, split_8) = runs["one"], runs["eight"]
    assert split_1 and not split_8
    rows = lineitem_files["rows"]
    assert one.results[3].result["observed_value"] == rows.num_rows
    assert one.results[4].result["unexpected_count"] == sum(
        d in ("unknown", "1996-02-30") for d in rows.column("l_shipdate").to_pylist())
    assert all(r.result.get("unexpected_count") for i, r in enumerate(one.results)
               if i in (0, 1, 5, 7))  # the agreement below is not vacuous
    for a, b in zip(one.results, eight.results, strict=True):
        assert a.success == b.success
        for key in ("unexpected_count", "element_count", "observed_value"):
            x, y = a.result.get(key), b.result.get(key)
            if isinstance(x, float):
                assert y == pytest.approx(x, abs=1e-9), key
            elif isinstance(x, list):
                assert sorted(x) == sorted(y), key
            else:
                assert x == y, key


def test_overlapping_scopes_restore_the_callers_value(caller_value):
    a, b = unsplit_reads(), unsplit_reads()
    a.__enter__()
    assert caller_value.read_op_min_num_blocks == 1
    b.__enter__()
    a.__exit__(None, None, None)
    assert caller_value.read_op_min_num_blocks == 1  # b is still inside
    b.__exit__(None, None, None)
    assert caller_value.read_op_min_num_blocks == 37


def test_many_threads_keep_the_override_while_any_is_inside(caller_value):
    """16 threads enter and leave the scope with a short switch interval:
    each sees 1 while inside, and the caller's value is back at the end."""
    seen, switch = set(), sys.getswitchinterval()

    def churn():
        for _ in range(300):
            with unsplit_reads():
                seen.add(caller_value.read_op_min_num_blocks)

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert seen == {1}
    assert caller_value.read_op_min_num_blocks == 37


def test_context_is_left_as_the_caller_had_it(caller_value, monkeypatch, tmp_path):
    seen = []
    real = qf._rollup_from_partials

    def spy(*args, **kwargs):
        seen.append(DataContext.get_current().read_op_min_num_blocks)
        return real(*args, **kwargs)

    monkeypatch.setattr(qf, "_rollup_from_partials", spy)
    small = rd.from_arrow(corpus_batch(0, 300))
    cfg = QualityFilterConfig()
    run_quality_filter(small, cfg, output_dir=str(tmp_path / "w"))
    assert seen == [1]
    assert caller_value.read_op_min_num_blocks == 37

    with pytest.raises(ValueError, match="missing column"):
        run_quality_filter(rd.from_arrow(pa.table({"content": ["x"]})), cfg)
    assert caller_value.read_op_min_num_blocks == 37

    start = threading.Barrier(2)

    def call(i):
        start.wait()
        return run_quality_filter(small, cfg, output_dir=str(tmp_path / f"t{i}"))

    with ThreadPoolExecutor(2) as pool:
        outs = list(pool.map(call, range(2)))
    assert [sum(r["row_count"] for r in o["rollup"]) for o in outs] == [300, 300]
    assert caller_value.read_op_min_num_blocks == 37


def test_lm_is_put_once_per_model(monkeypatch, tmp_path):
    import ray

    puts = []
    real_put = ray.put
    monkeypatch.setattr(ray, "put", lambda value: puts.append(1) or real_put(value))
    path = str(tmp_path / "lm.npy")
    np.save(path, np.full((8, 4), 1.5, np.float16))
    cfg = QualityFilterConfig(perplexity_model_path=path)
    first = qf._prepare_model_ref(None, cfg)
    assert qf._prepare_model_ref(None, cfg) is first and len(puts) == 1
    np.save(path, np.full((8, 4), 2.5, np.float16))
    changed = qf._prepare_model_ref(None, cfg)
    assert len(puts) == 2 and float(ray.get(changed)[0, 0]) == 2.5
    assert qf._prepare_model_ref(None, QualityFilterConfig(use_perplexity=False)) is None


# a new local cluster numbers its jobs from 1 again, so the first put of the
# second session gets the object id the first session's put had: count the
# puts, and get the value with a timeout (a stale ref would never resolve)
_RESTART = """
import numpy as np, ray
from great_expectations_ray.pipelines import quality_filter as qf
puts, real_put = [], ray.put
ray.put = lambda value: puts.append(1) or real_put(value)
cfg = qf.QualityFilterConfig(perplexity_model_path={path!r})
for session in range(2):
    ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
    for _ in range(2):
        ref = qf._prepare_model_ref(None, cfg)
        assert float(ray.get(ref, timeout=60)[0, 0]) == 1.5
    assert len(puts) == session + 1, puts
    ray.shutdown()
print("ok")
"""


def test_lm_is_put_again_after_a_ray_restart(tmp_path):
    path = str(tmp_path / "lm.npy")
    np.save(path, np.full((8, 4), 1.5, np.float16))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run([sys.executable, "-c", _RESTART.format(path=path)], cwd=root,
                          capture_output=True, text=True, timeout=300)
    assert done.stdout.strip().endswith("ok"), done.stderr[-2000:]
