"""One Ray session of one workload, run as its own process by ``run.py``.

    python3 perfbench/session.py --workload W --manifest M [--manifest M2]
        --seconds S --mode run|trace --events-fd FD --spawned-at T

Set-up is everything from process start (``--spawned-at``, the parent's
clock at spawn) to the first timed call: imports, ``ray.init``, opening the
generated inputs, and one warm-up call, which loads the LM and ``ray.put``s
it like every call does.  In ``run`` mode the session then makes timed calls
one at a time until ``--seconds`` have passed.  In ``trace`` mode it
measures every layer instead (see ``tracing.py``).

Progress goes to the parent as JSON lines on ``--events-fd``, with the JSON
record of each call.  The parent runs the gates on the records, holds the
deadlines, and kills the session's process group when one passes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import workloads as W  # noqa: E402


class Events:
    def __init__(self, fd: int):
        self.fd = fd

    def emit(self, ev: str, **fields) -> None:
        os.write(self.fd, (json.dumps({"ev": ev, "t": time.time(), **fields}) + "\n").encode())


def ray_temp_dir() -> str | None:
    """Ray's session directory inside the checkout, unless the checkout path
    is too long for the AF_UNIX socket paths Ray puts there (107 bytes,
    of which Ray's own session/socket names take about 62)."""
    path = str(W.ROOT / ".bench_tmp")
    return path if len(path) <= 44 else None


def peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``).  Not ``ru_maxrss``:
    Linux carries that over from the image before ``exec``, so a child of
    a large parent reports the parent's peak."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def start_ray(ncpu: int) -> float:
    import logging

    import ray

    t0 = time.perf_counter()
    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=1_000_000_000, _temp_dir=ray_temp_dir())
    init_s = time.perf_counter() - t0
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    return init_s


def timed_call(wl: W.Workload, events: Events) -> tuple[float, dict]:
    """One operation: the timed public call, then the JSON record the
    parent's gates read."""
    events.emit("op_start")
    t0 = time.perf_counter()
    result = wl.call()
    wall = time.perf_counter() - t0
    return wall, dict(wl.record(result), workload=wl.name)


def run_mode(wl: W.Workload, events: Events, seconds: float) -> None:
    t_end = time.perf_counter() + seconds
    while True:
        try:
            wall, record = timed_call(wl, events)
            events.emit("op", wall_s=wall, record=record)
        except Exception as exc:  # an op that raised counts as failed
            traceback.print_exc()
            events.emit("op", wall_s=None, errors=[f"raised {type(exc).__name__}: {exc}"])
        if time.perf_counter() >= t_end:
            break


def trace_mode(wl: W.Workload, events: Events, manifests: dict, init_s: float,
               warm_s: float) -> None:
    import shutil

    import ray
    import ray.data as rd

    from great_expectations_ray.corpus import corpus_batch
    from great_expectations_ray.stages.perplexity import build_reference_model
    from perfbench import tracing as T

    metrics = {"ray.init_s": (init_s, "s")}
    corpus, lineitem = manifests["corpus"], manifests["lineitem"]
    out_dir = str(W.ROOT / ".bench_out" / f"trace-{os.getpid()}")
    tracer = T.Tracer(run_id=f"{wl.name}-s{corpus['seed']}-{os.getpid()}")

    def op(w: W.Workload) -> float:
        wall, record = timed_call(w, events)
        events.emit("op", wall_s=wall, record=record)
        return wall

    # set-up layers
    metrics["corpus.gen_s"] = (T.timed(corpus_batch, 0, W.CORPUS_ROWS)[0], "s")
    metrics["perplexity.model_build_s"] = (T.timed(lambda: ray.put(build_reference_model(
        rd.read_parquet(corpus["files"]).select_columns(["content"]))))[0], "s")

    # the workload's own untraced calls: the steady median
    steady = statistics.median([op(wl), op(wl)])
    metrics["warmup_s"] = (warm_s - steady, "s")

    # flagship: steady pool calls on the whole input and on one file of it
    # (its fixed cost), then the same layers in this process
    if wl.name == "corpus_filter":
        cf, pool_wall = wl, steady
    else:
        cf = W.Workload("corpus_filter", corpus, wl.out_root)
        pool_wall = statistics.median([op(cf), op(cf)])
    part = W.Workload("corpus_filter", dict(corpus, files=T.first_file(corpus)),
                      os.path.join(out_dir, "part"))
    part_wall = statistics.median(T.timed(part.call)[0] for _ in range(2))
    metrics["quality_filter.fixed_share"] = (
        T.fixed_share(pool_wall, part_wall, corpus["files"]), "ratio")
    flag = T.flagship_layers(tracer, corpus, out_dir)
    metrics.update(flag["metrics"])
    metrics["quality_filter.pool_utilisation"] = (
        flag["metrics"]["quality_filter.single_thread_s"][0] / (pool_wall * cf.actors), "ratio")
    errors = [f"drift: traced chain differs from FusedQualityStage on batches {flag['drift']}"
              ] if flag["drift"] else []
    metrics.update(T.exchange_layers(flag))
    metrics.update(T.engine_layers(lineitem))
    metrics.update(T.multi_table_layers(lineitem, W.cpu_count()))
    shutil.rmtree(out_dir, ignore_errors=True)

    # one traced call of the workload: span tree and tracing overhead
    with tracer.patched(T.call_patches(wl.name)):
        wall = op(wl)
    metrics["trace.overhead_s"] = (wall - steady, "s")
    metrics["trace.span_count"] = (len(tracer.spans), "count")

    trace_file = W.ROOT / ".bench_out" / f"trace-{tracer.run_id}.json"
    tracer.write(str(trace_file), {"metrics": metrics, "errors": errors,
                                   "drift_batches_checked": flag["batches"]})
    events.emit("trace", metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                errors=errors, trace_file=str(trace_file))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=W.WORKLOADS, required=True)
    ap.add_argument("--manifest", action="append", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("run", "trace"), default="run")
    ap.add_argument("--events-fd", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args()
    events = Events(args.events_fd)

    manifests = {}
    for m in args.manifest:
        d = json.loads(Path(m).read_text())
        manifests[d["kind"]] = d
    import ray

    init_s = start_ray(W.cpu_count())
    wl = W.Workload(args.workload, manifests[W.INPUT_KIND[args.workload]],
                    str(W.ROOT / ".bench_out" / f"ops-{os.getpid()}"))
    t_warm = time.time()
    warm_s, record = timed_call(wl, events)
    setup_s = t_warm + warm_s - args.spawned_at
    events.emit("setup", setup_s=setup_s, ray_init_s=init_s, warm_s=warm_s,
                record=record, context={
                    "ray_num_cpus": int(ray.cluster_resources().get("CPU", 0)),
                    "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
                    "actor_pool_size": wl.actors,
                    "validate_many_workers": wl.ncpu,
                    "input_rows": wl.rows,
                    "input_bytes": wl.input_bytes,
                })
    if args.mode == "run":
        run_mode(wl, events, args.seconds)
    else:
        trace_mode(wl, events, manifests, init_s, warm_s)
    rss_mb = peak_rss_mb()
    # no ray.shutdown(): the parent kills this process group, Ray's
    # processes included, as soon as it reads "end"
    events.emit("end", rss_mb=rss_mb)


if __name__ == "__main__":
    main()
