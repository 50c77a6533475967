"""Benchmark of great_expectations_ray: seeded workloads against the public
API, each result checked for correctness.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
        [--deadline NAME=SECONDS ...]

Run from the root of a checkout.  For each workload the inputs of the seed
are generated (or reused) by ``inputs.py`` in their own process; then
``session.py`` runs in a fresh process group per Ray session, so a session
that passes its deadline or crashes is killed with every Ray process it
started, counted as a failed operation, and the next workload still runs.
After the sessions, the gates check the JSON record of every call (the
session's own memory and time never include them).

``--trace 0`` runs ``SESSIONS`` sessions, each timing its own set-up and then
making calls for ``--seconds / SESSIONS``, and prints the end-to-end
metrics.  ``--trace 1`` runs one session that measures every layer and
prints the per-layer metrics.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` for the last workload run;
the line before it holds the run's context (host health, the machine's CPU
steal share during the sessions, Ray CPUs, ``OMP_NUM_THREADS``, actor pool
size), which no gate reads.  Exit code 0
means every operation finished and passed its gates.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

#: Ray sessions per untraced run; ``setup_s`` is their median
SESSIONS = 2
SETUP_DEADLINE_S = 100.0
OP_DEADLINE_S = 60.0
#: building the input pools once per checkout takes most of this
GEN_DEADLINE_S = 600.0
#: the sessions of a run (one workload) end within this, whatever hangs
RUN_BUDGET_S = 150.0


def _group_alive(pgid: int) -> bool:
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill every process left in the session's process group (Ray's GCS,
    raylet and workers live there) and wait until each has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    t_end = time.monotonic() + 30
    while _group_alive(proc.pid) and time.monotonic() < t_end:
        time.sleep(0.05)


def run_session(workload: str, manifests: list[str], mode: str, seconds: float,
                op_deadline: float, hard_end: float, log_path: Path) -> dict:
    """Run one session process; returns its events and how it ended."""
    r, w = os.pipe()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT), os.environ.get("PYTHONPATH")) if p))
    cmd = [sys.executable, str(HERE / "session.py"), "--workload", workload,
           "--seconds", str(seconds), "--mode", mode, "--events-fd", str(w),
           "--spawned-at", repr(time.time())]
    for m in manifests:
        cmd += ["--manifest", m]
    log_path.parent.mkdir(parents=True, exist_ok=True)
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, pass_fds=(w,), stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True, cwd=str(ROOT), env=env)
    os.close(w)
    events, buf, status = [], b"", "ok"
    phase = "setup"
    deadline = min(time.monotonic() + SETUP_DEADLINE_S, hard_end)
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                status = f"deadline passed during {phase}"
                break
            if not select.select([r], [], [], left)[0]:
                continue
            chunk = os.read(r, 1 << 16)
            if not chunk:
                break
            buf += chunk
            *lines, buf = buf.split(b"\n")
            for line in lines:
                ev = json.loads(line)
                events.append(ev)
                if ev["ev"] == "setup":
                    phase, deadline = "run", hard_end
                elif ev["ev"] == "op_start" and phase != "setup":
                    phase = "op"
                    deadline = min(time.monotonic() + op_deadline, hard_end)
                elif ev["ev"] == "op" and phase == "op":
                    phase, deadline = "run", hard_end
                elif ev["ev"] == "end":
                    phase = "end"
            if phase == "end":
                break
    finally:
        os.close(r)
        _stop_group(proc)
    if status == "ok" and phase != "end":
        status = f"session exited with code {proc.returncode} before its end"
    return {"events": events, "status": status, "log": str(log_path),
            "out_root": ROOT / ".bench_out" / f"ops-{proc.pid}"}


def generate(kind: str, seed: int) -> str:
    out = subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), "--seed", str(seed), "--kind", kind],
        capture_output=True, text=True, cwd=str(ROOT), timeout=GEN_DEADLINE_S)
    if out.returncode != 0:
        raise RuntimeError(f"input generation ({kind}) failed:\n{out.stderr[-2000:]}")
    return out.stdout.strip().splitlines()[-1]


def host_health() -> dict:
    """bench.py's memory-subsystem probe, taken once without waiting."""
    try:
        from bench import _host_health
    except ImportError:
        return {}
    return _host_health()


def cpu_times() -> list[int]:
    """The machine's CPU time counters (``/proc/stat``): user ... steal."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except OSError:
        return []


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 op_deadline: float) -> tuple[dict | None, dict]:
    from perfbench import workloads as W

    t0 = time.monotonic()
    context: dict = {"workload": name, "seed": seed, "trace": int(trace),
                     "host_health": host_health(), "errors": []}
    kinds = ("corpus", "lineitem") if trace else (W.INPUT_KIND[name],)
    try:
        paths = {k: generate(k, seed) for k in kinds}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        context["errors"].append(f"{name}: {exc}")
        return None, context
    manifests = {k: json.loads(Path(p).read_text()) for k, p in paths.items()}
    gates = {w: W.Gates(w, manifests[k]) for w, k in W.INPUT_KIND.items() if k in manifests}
    context["gen_s"] = time.monotonic() - t0
    # the 900 s first-run allowance covers building the input pools above;
    # the sessions themselves always end within RUN_BUDGET_S
    hard_end = time.monotonic() + RUN_BUDGET_S

    logs = ROOT / ".bench_out" / "logs"
    plan = [("trace", seconds)] if trace else [("run", seconds / SESSIONS)] * SESSIONS
    setups, rss, ops, failed_sessions, trace_ev, out_roots = [], [], [], [], None, []
    cpu0 = cpu_times()
    for k, (mode, secs) in enumerate(plan):
        s = run_session(name, list(paths.values()), mode, secs, op_deadline, hard_end,
                        logs / f"{name}-s{seed}-{mode}-{k}.log")
        out_roots.append(s["out_root"])
        for ev in s["events"]:
            if ev["ev"] == "setup":
                setups.append(ev["setup_s"])
                context.update(ev["context"])
                ops.append({"wall_s": None, "record": ev["record"], "warmup": True})
            elif ev["ev"] == "op":
                ops.append(ev)
            elif ev["ev"] == "end":
                rss.append(ev["rss_mb"])
            elif ev["ev"] == "trace":
                trace_ev = ev
        if s["status"] != "ok":
            failed_sessions.append(s)
            context["errors"].append(f"{name}: session {k} failed ({s['status']}); log {s['log']}")
            # a hung or crashed session is one failed operation; the
            # workload stops here rather than hanging again
            break
    cpu1 = cpu_times()
    if cpu0 and cpu1:
        d = [b - a for a, b in zip(cpu0, cpu1)]
        context["cpu_steal_share"] = d[7] / max(sum(d), 1)

    # the gates run here, after the sessions, on each call's record
    t_gates = time.monotonic()
    gate_errors = []
    for op in ops:
        record = op.get("record")
        if record is None:
            continue
        op["errors"] = gates[record["workload"]].check(record)
        W.discard(record)
        gate_errors += op["errors"]
    for d in out_roots:
        shutil.rmtree(d, ignore_errors=True)
    context["gates_s"] = time.monotonic() - t_gates
    raised = [e for op in ops if op.get("wall_s") is None and not op.get("warmup")
              for e in op.get("errors", [])]
    attempted = len(ops) + len(failed_sessions)
    failed = sum(1 for op in ops if op.get("errors")) + len(failed_sessions)
    context["errors"] += [f"{name}: {e}" for e in gate_errors[:10]]
    context["errors"] += [f"{name}: {e}" for e in raised[:5]]
    if trace_ev is not None:
        context["errors"] += [f"{name}: {e}" for e in trace_ev["errors"]]
        context["trace_file"] = trace_ev["trace_file"]
        gate_errors += trace_ev["errors"]
    context["elapsed_s"] = time.monotonic() - t0
    correct = not gate_errors

    if trace:
        metrics = trace_ev["metrics"] if trace_ev else {}
    else:
        timed_ops = [op for op in ops if not op.get("warmup") and op.get("wall_s") is not None
                     and op["record"]["workload"] == name]
        walls = [op["wall_s"] for op in timed_ops if not op["errors"]]
        ratios = [op["record"]["output_bytes"] / manifests[W.INPUT_KIND[name]]["input_bytes"]
                  for op in timed_ops]
        if not walls or not setups or not rss:
            context["errors"].append(f"{name}: no completed operation to measure")
            return {"correct": correct, "attempted": max(attempted, 1),
                    "failed": max(failed, 1), "metrics": {}}, context
        wall = statistics.median(walls)
        context["ops_timed"] = len(walls)
        context["wall_s_all"] = walls
        context["setup_s_all"] = setups
        context["rss_mb_all"] = rss
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "rows_per_s": {"value": context["input_rows"] / wall, "unit": "rows/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "driver_peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
            "output_bytes_per_input_byte": {"value": statistics.median(ratios),
                                            "unit": "ratio"},
            "ok_op_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    return {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
            "metrics": metrics}, context


def main() -> int:
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description="great_expectations_ray benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--deadline", action="append", default=[], metavar="NAME=SECONDS",
                    help="per-operation deadline for one workload (default "
                         f"{OP_DEADLINE_S:.0f} s)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    deadlines = {}
    for d in args.deadline:
        n, _, v = d.partition("=")
        if n not in WORKLOADS:
            ap.error(f"--deadline: unknown workload {n!r}")
        deadlines[n] = float(v)
    if not (ROOT / "great_expectations_ray" / "__init__.py").is_file():
        print(f"no great_expectations_ray package under {ROOT}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    code = 0
    for name in names:
        result, context = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                       deadlines.get(name, OP_DEADLINE_S))
        for e in context["errors"]:
            print(e, file=sys.stderr)
        if result is None:
            code = 2
            continue
        print(json.dumps({"context": context}))
        print(json.dumps(result), flush=True)
        if not result["correct"] or result["failed"] or not result["metrics"]:
            code = code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
