"""Per-batch stages run as Ray Data tasks with one instance per worker
(``stages._per_worker``): the helper's cache contract, and that the flagship
and a model stage start no actor pool."""

from __future__ import annotations

import logging
import os
import uuid
from contextlib import contextmanager

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from great_expectations_ray.stages import _per_worker
from great_expectations_ray.stages._per_worker import MAX_INSTANCES, map_per_worker


def _probe_rows(ref=None):
    # defined here so cloudpickle ships it by value to the workers
    class _Probe:
        """Tags every row with the worker pid, this instance's id, the value of
        its broadcast ref and the worker's cache size."""

        def __init__(self, ref=None):
            self.inst = uuid.uuid4().hex
            self.value = ray.get(ref) if ref is not None else -1

        def __call__(self, tbl: pa.Table) -> pa.Table:
            n = tbl.num_rows
            return pa.table({
                "pid": pa.array([os.getpid()] * n, pa.int64()),
                "inst": pa.array([self.inst] * n),
                "value": pa.array([self.value] * n, pa.int64()),
                "cached": pa.array([len(_per_worker._INSTANCES)] * n, pa.int64()),
            })

    ds = rd.range(64, override_num_blocks=16)
    return map_per_worker(ds, _Probe, {"ref": ref}, batch_format="pyarrow",
                          batch_size=4).to_pandas()


def test_one_instance_per_worker_per_call(ray_session):
    rows = _probe_rows()
    assert len(rows) == 64
    per_pid = rows.groupby("pid")["inst"].nunique()
    assert (per_pid == 1).all(), per_pid.to_dict()
    # 16 blocks of 4-row batches ran over fewer workers than batches: some
    # worker reused its instance across batches
    assert rows["inst"].nunique() < 16


def test_new_call_with_new_ref_builds_new_instance(ray_session):
    first = _probe_rows(ray.put(1))
    second = _probe_rows(ray.put(2))
    assert set(first["value"]) == {1} and set(second["value"]) == {2}
    assert not set(first["inst"]) & set(second["inst"])


def test_cache_never_exceeds_its_bound(ray_session):
    seen = [_probe_rows(ray.put(i))["cached"].max() for i in range(MAX_INSTANCES + 2)]
    assert max(seen) <= MAX_INSTANCES

    # in process: the oldest call is evicted first, a recent one is reused
    _per_worker._INSTANCES.clear()
    built = []

    class Counting:
        def __init__(self, tag):
            built.append(tag)

        def __call__(self, batch):
            return batch

    tokens = [f"t{i}" for i in range(MAX_INSTANCES + 3)]
    for t in tokens:
        _per_worker._call_instance(None, cls=Counting, ctor_kwargs={"tag": t}, token=t)
        assert len(_per_worker._INSTANCES) <= MAX_INSTANCES
    assert list(_per_worker._INSTANCES) == tokens[-MAX_INSTANCES:]
    _per_worker._call_instance(None, cls=Counting, ctor_kwargs={"tag": "x"},
                               token=tokens[-1])
    assert built == tokens
    _per_worker._INSTANCES.clear()


@contextmanager
def _logged_plans():
    """The execution plans Ray Data logs when each dataset starts running."""
    plans: list[str] = []

    class Grab(logging.Handler):
        def emit(self, record):
            msg = record.getMessage()
            if msg.startswith("Execution plan of Dataset"):
                plans.append(msg)

    logger = logging.getLogger("ray.data._internal.execution.streaming_executor")
    handler, level = Grab(level=logging.INFO), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield plans
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _assert_task_only(plans):
    assert any("MapBatches(_call_instance)" in p for p in plans), plans
    assert not any("ActorPoolMapOperator" in p for p in plans), plans


def test_quality_filter_runs_no_actor_pool(ray_session, tmp_path):
    from great_expectations_ray.corpus import corpus_dataset
    from great_expectations_ray.pipelines.quality_filter import (
        QualityFilterConfig,
        run_quality_filter,
    )

    for mode, kwargs in [
        ("memory", {}),
        ("write", {"output_dir": str(tmp_path / "w")}),
        ("dedup", {"output_dir": str(tmp_path / "d")}),
    ]:
        cfg = QualityFilterConfig(dedup="exact" if mode == "dedup" else None)
        with _logged_plans() as plans:
            out = run_quality_filter(corpus_dataset(300, blocks=3), cfg, **kwargs)
        assert sum(r["row_count"] for r in out["rollup"]) == 300, mode
        _assert_task_only(plans)


def test_kn_perplexity_runs_no_actor_pool(ray_session):
    from great_expectations_ray.stages.kn_lm import kn_perplexity

    ds = rd.from_arrow(pa.table({
        "text": [f"the quick fox {i} jumps over {i % 7} lazy dogs" for i in range(40)],
    })).repartition(4)
    with _logged_plans() as plans:
        ppl = np.asarray(kn_perplexity(ds, column="text").to_pandas()["kn_ppl"])
    assert len(ppl) == 40 and np.isfinite(ppl).all()
    _assert_task_only(plans)


def _window_threads() -> dict[int, int]:
    """Window-pool threads alive in each worker process a probe reaches."""
    import threading

    def probe(tbl: pa.Table) -> pa.Table:
        n = sum(t.name.startswith("window") for t in threading.enumerate())
        return pa.table({"pid": [os.getpid()] * tbl.num_rows, "n": [n] * tbl.num_rows})

    rows = rd.range(64, override_num_blocks=16).map_batches(
        probe, batch_format="pyarrow", batch_size=4).to_pandas()
    return rows.groupby("pid")["n"].max().to_dict()


def test_window_pool_is_one_per_worker(ray_session, tmp_path):
    """Over six flagship calls (each with new stage instances), every worker
    process keeps at most ``WINDOW_THREADS`` window threads: the pool is
    the process's, not the call's."""
    from great_expectations_ray.corpus import corpus_dataset
    from great_expectations_ray.pipelines.quality_filter import (
        QualityFilterConfig,
        run_quality_filter,
    )

    seen: dict[int, int] = {}
    for i in range(6):
        out = run_quality_filter(corpus_dataset(4000, blocks=2),
                                 QualityFilterConfig(use_perplexity=False),
                                 output_dir=str(tmp_path / str(i)))
        assert sum(r["row_count"] for r in out["rollup"]) == 4000
        for pid, n in _window_threads().items():
            assert n <= _per_worker.WINDOW_THREADS, (pid, n)
            seen[pid] = max(seen.get(pid, 0), n)
    # the calls did cut windows on the workers' pools (2000-row blocks of source
    # code are several 1 MiB windows per batch)
    assert max(seen.values()) > 0, seen
