#!/usr/bin/env python
"""Benchmark harness.

Headline: the flagship quality-filter pipeline (one fused per-batch pass of
text stats + langid + perplexity + rule-eval/scrub + parquet sinks, then the
rollup) over a deterministic synthetic code corpus sized to the sf, measured
in files/sec.  Plus per-query timings for a representative slice of the
operator catalog over $GRAFT_SF_DIR.

    python bench.py              # one JSON line on stdout
    python bench.py --scaling    # run at 8 and 32 CPUs in fresh processes,
                                 # report throughputs + scaling efficiency
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

# corpus sizes chosen so the 8-vs-32-CPU scaling run is compute-dominated
# (~500 cpu-seconds at sf0.1), not worker-startup / IO-floor dominated
SF_ROWS = {"sf0.001": 4_000, "sf0.01": 100_000, "sf0.1": 4_000_000}


def _wait_for_healthy_host(
    min_first_touch_mbps: float = 1000.0,
    max_wait_s: float | None = None,
) -> dict:
    """Block until the page-population probe reads healthy, up to
    ``GXR_BENCH_WAIT_S`` (default 600 s), then return the last probe.

    This box's first-touch rate collapses episodically to 6-570 MB/s
    (healthy: multi-GB/s) and poisons every timing by 2x+ with no code
    change (BASELINE.md).  Gating the timed legs on the probe is the only
    way a recorded headline means anything; if the episode outlasts the
    budget we proceed anyway and the embedded host_health lets the reader
    discount the number."""
    if max_wait_s is None:
        max_wait_s = float(os.environ.get("GXR_BENCH_WAIT_S", "600"))
    deadline = time.time() + max_wait_s
    probe = _host_health()
    while probe["first_touch_mbps"] < min_first_touch_mbps and time.time() < deadline:
        print(
            f"host episode active (first_touch={probe['first_touch_mbps']} MB/s"
            f" < {min_first_touch_mbps:.0f}); waiting...",
            file=sys.stderr,
        )
        time.sleep(30)
        probe = _host_health()
    return probe


def run_bench() -> dict:
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    ncpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    sf_name = os.path.basename(sf_dir.rstrip("/"))
    try:
        sf = float(sf_name.replace("sf", ""))
    except ValueError:
        sf = 0.1
    n_rows = SF_ROWS.get(sf_name, 200_000)

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=ncpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    import ray.data as rd

    from great_expectations_ray.corpus import write_corpus_parquet
    from great_expectations_ray.pipelines import demo_queries as dq
    from great_expectations_ray.pipelines.quality_filter import (
        QualityFilterConfig,
        run_quality_filter,
    )

    # corpus lives on tmpfs: the box's disk is ~55 MB/s and page-cache
    # eviction between runs turned a 21 s headline into 34 s; tmpfs keeps
    # the input read off the disk entirely (the 100-TB analog is reading
    # from a parallel object store, not a single cold spindle)
    corpus_base = "/dev/shm" if os.path.isdir("/dev/shm") else "/tmp"
    corpus_dir = write_corpus_parquet(
        n_rows, f"{corpus_base}/gxr_bench_corpus_v2_{n_rows}", blocks=64
    )
    os.sync()  # flush any generation write-back so it can't pollute timing
    if os.environ.get("GXR_BENCH_PRIME"):
        # prime-only invocation: build corpus + LM cache, no timed run
        from great_expectations_ray.pipelines.quality_filter import _prepare_model_ref

        _prepare_model_ref(
            rd.read_parquet(corpus_dir),
            QualityFilterConfig(perplexity_model_path=f"{corpus_base}/gxr_bench_lm_v5_{n_rows}.npy"),
        )
        ray.shutdown()
        return {"metric": "prime", "value": 0, "unit": "sec"}

    cfg = QualityFilterConfig(
        batch_size=4096,
        perplexity_model_path=f"{corpus_base}/gxr_bench_lm_v5_{n_rows}.npy",
    )
    # best of 3: the first run absorbs worker start-up jitter, and the box
    # shows ±25% leg-to-leg variance from host-level memory-bandwidth
    # contention (identical legs measured 17.7-25.6 s in one session) — one
    # extra leg materially raises the odds of catching a quiet window
    pre_probe = _wait_for_healthy_host()
    headline = float("inf")
    n_groups = 0
    # outputs land on tmpfs: they're deleted right after, and disk write-back
    # of ~1 GB of doomed pages is what made consecutive legs interfere
    out_base = "/dev/shm" if os.path.isdir("/dev/shm") else None
    for _ in range(3):
        out_dir = tempfile.mkdtemp(prefix="gxr_bench_out_", dir=out_base)
        t0 = time.time()
        res = run_quality_filter(rd.read_parquet(corpus_dir), cfg, output_dir=out_dir)
        headline = min(headline, time.time() - t0)
        n_groups = len(res["rollup"])
        shutil.rmtree(out_dir, ignore_errors=True)

    queries: dict[str, float] = {"quality_filter": round(headline, 3)}
    # warm the shuffle/sort machinery once (first groupby in a session pays
    # ~2-3 s of one-time reduce-task spin-up that is not query compute)
    rd.range(10_000).groupby("id").count().count()
    # best of 2 per query, same methodology as the flagship headline
    for name in dq.BENCH_QUERIES:
        best = float("inf")
        for _ in range(2):
            t0 = time.time()
            dq.CONSTITUENT_QUERIES[name](sf_dir)
            best = min(best, time.time() - t0)
        queries[name] = round(best, 3)

    # the reference's published benchmark shape: validate 100 tables with one
    # suite (GX: 323-392 s serial / 22-26 s multithreaded on 16 vCPUs)
    from great_expectations_ray.core.suite import ExpectationSuite
    from great_expectations_ray.pipelines.multi_table import validate_many

    base = rd.read_parquet(f"{sf_dir}/lineitem.parquet")
    tables = {f"t{i}": s for i, s in enumerate(base.split(100, equal=True))}
    suite = (
        ExpectationSuite("bench100")
        .add("expect_column_values_to_be_between", column="l_quantity",
             min_value=1, max_value=50)
        .add("expect_column_values_to_not_be_null", column="l_orderkey")
        .add("expect_column_values_to_match_regex", column="l_returnflag",
             regex="^[ANR]$")
        .add("expect_column_mean_to_be_between", column="l_discount",
             min_value=0, max_value=0.2)
        .add("expect_column_max_to_be_between", column="l_quantity", max_value=50)
        .add("expect_table_row_count_to_be_between", min_value=1)
    )
    t0 = time.time()
    res = validate_many(tables, suite, max_workers=min(16, ncpus))
    queries["validate_100_tables"] = round(time.time() - t0, 3)
    assert len(res) == 100

    result = {
        "metric": "quality_filter_wall_sec",
        "value": round(headline, 3),
        "unit": "sec",
        "files_per_sec": round(n_rows / headline, 1),
        "corpus_rows": n_rows,
        "rollup_groups": n_groups,
        "queries": queries,
        "sf": sf,
        "num_cpus": ncpus,
        "host_health": _host_health(),
        "host_health_pre": pre_probe,
    }
    ray.shutdown()
    return result


def _host_health() -> dict:
    """Single-core memory-subsystem probes, recorded with every bench JSON.

    This box's effective memory bandwidth swings >10× between sessions
    (warm 64 MB float multiply measured 42 ms and 434 ms on the same day;
    identical flagship legs 17.7-47.9 s).  The probes let a reader normalize
    a bench result against the environment it actually ran in:
    healthy ≈ first_touch ≳ 2000 MB/s and warm_bw ≳ 3000 MB/s."""
    import numpy as np

    a = np.empty(256_000_000, dtype=np.uint8)
    t0 = time.time()
    a[::4096] = 1  # one write per 4 KiB page -> page-population rate
    ft = 256.0 / max(time.time() - t0, 1e-9)
    x = np.random.rand(8_000_000)
    x * 2.0  # warm the buffers
    t0 = time.time()
    for _ in range(5):
        x * 2.0
    warm = (5 * 128.0) / max(time.time() - t0, 1e-9)  # 64 MB read + 64 MB write
    return {"first_touch_mbps": round(ft), "warm_bw_mbps": round(warm)}


def run_scaling() -> dict:
    """Same job, two fresh processes at 8 and 32 CPUs — the sandbox stand-in
    for the two-cluster-size rule (BASELINE.md)."""

    def run(ncpu: int, prime: bool = False) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
        if prime:
            env["GXR_BENCH_PRIME"] = "1"
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env, capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    # default N=8 vs 4N=32; override with --pair LO HI (e.g. --pair 4 16 to
    # measure below the node's DRAM-bandwidth knee — see BASELINE.md)
    lo_n, hi_n = 8, 32
    if "--pair" in sys.argv:
        i = sys.argv.index("--pair")
        lo_n, hi_n = int(sys.argv[i + 1]), int(sys.argv[i + 2])
    run(hi_n, prime=True)  # generate corpus + LM cache outside the timed legs
    lo = run(lo_n)
    hi = run(hi_n)
    tp_lo = lo["files_per_sec"]
    tp_hi = hi["files_per_sec"]
    eff = (tp_hi / tp_lo) / (hi_n / lo_n)
    return {
        "metric": "scaling_efficiency",
        "value": round(eff, 3),
        "unit": "ratio",
        f"sec_{lo_n}": lo["value"],
        f"sec_{hi_n}": hi["value"],
        f"files_per_sec_{lo_n}": tp_lo,
        f"files_per_sec_{hi_n}": tp_hi,
        "corpus_rows": lo["corpus_rows"],
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
