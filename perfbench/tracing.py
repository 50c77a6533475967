"""Spans recorded from outside the program, and the per-layer measurements
of a traced run.

A span is recorded by wrapping a public function of a module (or a layer
object of one ``FusedQualityStage``) for the duration of a ``with`` block;
the program's code is never edited.  Spans stay in memory and are written
out once, when the traced run ends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Spans with name, start, end, parent and run id.  The parent is the
    innermost open span of the calling thread; a span opened in a pool
    thread with nothing open falls back to the run's root span."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: int | None = None

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self._root
        if self._root is None:
            self._root = sid
        stack.append(sid)
        rec = {"id": sid, "name": name, "parent": parent, "run_id": self.run_id,
               "start": time.perf_counter(), "end": None}
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            if self._root == sid:
                self._root = None
            with self._lock:
                self.spans.append(rec)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*a, **k):
            with self.span(name):
                return fn(*a, **k)

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Temporarily replace ``(obj, attr, span_name)`` attributes with
        traced wrappers; the originals are restored on exit."""
        saved = []
        try:
            for obj, attr, name in targets:
                orig = getattr(obj, attr)
                saved.append((obj, attr, orig))
                setattr(obj, attr, self.wrap(orig, name))
            yield self
        finally:
            for obj, attr, orig in reversed(saved):
                setattr(obj, attr, orig)

    def busy(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_times(self) -> dict[str, float]:
        """Per name: span duration minus the part of it that its children
        cover (children of concurrent pool threads are merged as an
        interval union, so overlap is not subtracted twice)."""
        children = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]].append((s["start"], s["end"]))
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            covered, cur_s, cur_e = 0.0, None, None
            for a, b in sorted(children.get(s["id"], [])):
                a, b = max(a, s["start"]), min(b, s["end"])
                if b <= a:
                    continue
                if cur_e is None or a > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = a, b
                else:
                    cur_e = max(cur_e, b)
            if cur_e is not None:
                covered += cur_e - cur_s
            out[s["name"]] += (s["end"] - s["start"]) - covered
        return dict(out)

    def write(self, path: str, extra: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = min((s["start"] for s in self.spans), default=0.0)
        spans = [dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in self.spans]
        with open(path, "w") as f:
            json.dump({"run_id": self.run_id, "self_s": self.self_times(),
                       "spans": sorted(spans, key=lambda s: s["start"]), **extra}, f)


def timed(fn, *a, **k):
    t0 = time.perf_counter()
    out = fn(*a, **k)
    return time.perf_counter() - t0, out


def first_file(manifest: dict) -> str:
    return str(sorted(Path(manifest["files"]).glob("*.parquet"))[0])


def fixed_share(full_s: float, part_s: float, files_dir: str) -> float:
    """Share of a call's wall time that does not grow with its input: the
    intercept of the line through a call on all the input files and a call
    on the first of them, over the full call's time."""
    sizes = [f.stat().st_size for f in sorted(Path(files_dir).glob("*.parquet"))]
    frac = sizes[0] / sum(sizes)
    fixed = (part_s - frac * full_s) / (1 - frac)
    return fixed / full_s


# --------------------------------------------------------------------------- #
# flagship layers, in process
# --------------------------------------------------------------------------- #

FLAGSHIP_LAYERS = ("read", "text_stats", "langid", "perplexity",
                   "quality_filter.rules_scrub", "quality_filter.sink")


def flagship_layers(tracer: Tracer, manifest: dict, out_dir: str) -> dict:
    """Feed the corpus through the layers of one ``FusedQualityStage`` in
    this process, one ``BATCH_SIZE``-row batch at a time, with a span around
    each layer call.  This is also the single-threaded baseline.  Returns the
    metrics, the kept rows (input of the exchange leg) and the drift
    verdict: the traced chain must equal an untouched
    ``FusedQualityStage(batch)`` on every batch."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from great_expectations_ray.core.suite import ExpectationSuite
    from great_expectations_ray.pipelines import quality_filter as qf
    from perfbench.workloads import BATCH_SIZE

    cfg = qf.QualityFilterConfig()
    rules = cfg.suite.resolved_expectations()
    keys = list(cfg.rollup_keys)
    model = np.load(manifest["lm"])

    def make_stage():
        return qf.FusedQualityStage(rules, cfg.scrub_rules, model_ref=model,
                                    use_langid=cfg.use_langid, key_list=keys)

    stage, plain = make_stage(), make_stage()
    sink = qf.SinkStage(os.path.join(out_dir, "data"), os.path.join(out_dir, "lineage"),
                        keys, len(rules))
    layer_patches = [
        (stage, "text_stats", "text_stats"),
        (stage, "langid", "langid"),
        (stage.ppl, "score_array", "perplexity"),
        (stage, "rules", "quality_filter.rules_scrub"),
        (stage.rules.scrubber, "scrub_array", "scrub.scrub"),
        (qf, "sha256_column", "scrub.sha256"),
        (qf, "sha256_column_where", "scrub.sha256"),
    ]

    partials, scored_batches = [], []
    t_start = time.perf_counter()
    with tracer.span("quality_filter.single_thread"):
        with tracer.span("read"):
            corpus = pa.concat_tables(
                [pq.read_table(f) for f in sorted(Path(manifest["files"]).glob("*.parquet"))])
        with tracer.patched(layer_patches):
            for off in range(0, corpus.num_rows, BATCH_SIZE):
                batch = corpus.slice(off, BATCH_SIZE)
                scored = stage(batch)
                with tracer.span("quality_filter.sink"):
                    partials.append(sink(scored))
                scored_batches.append(scored)
    single_thread_s = time.perf_counter() - t_start

    # drift check, outside the timed loop: an untouched stage, same batches
    drift = [i for i, scored in enumerate(scored_batches)
             if not plain(corpus.slice(i * BATCH_SIZE, BATCH_SIZE)).equals(scored)]
    kept = [s.filter(s.column("keep")) for s in scored_batches]
    rows = sum(s.num_rows for s in scored_batches)
    hits = sum(int(np.asarray(s.column("scrub_hit")).sum()) for s in scored_batches)

    suite = ExpectationSuite(cfg.suite.name, rules)
    merge_s, _ = timed(qf._rollup_from_partials, rd.from_arrow(partials), suite, keys)
    sink_bytes = sum(f.stat().st_size for f in Path(out_dir).rglob("*") if f.is_file())
    busy = {name: tracer.busy(name) for name in FLAGSHIP_LAYERS}
    metrics = {
        "read.busy_s": (busy["read"], "s"),
        "text_stats.busy_s": (busy["text_stats"], "s"),
        "langid.busy_s": (busy["langid"], "s"),
        "perplexity.busy_s": (busy["perplexity"], "s"),
        "quality_filter.rules_scrub.busy_s": (busy["quality_filter.rules_scrub"], "s"),
        "scrub.scrub_s": (tracer.busy("scrub.scrub"), "s"),
        "scrub.sha256_s": (tracer.busy("scrub.sha256"), "s"),
        "scrub.hit_ratio": (hits / max(rows, 1), "ratio"),
        "quality_filter.sink.busy_s": (busy["quality_filter.sink"], "s"),
        "quality_filter.sink.bytes_written": (sink_bytes, "bytes"),
        "quality_filter.rollup.merge_s": (merge_s, "s"),
        "quality_filter.rollup.partial_rows": (sum(p.num_rows for p in partials), "count"),
        "quality_filter.keep_ratio": (sum(k.num_rows for k in kept) / max(rows, 1), "ratio"),
        "quality_filter.single_thread_s": (single_thread_s, "s"),
        "quality_filter.layer_sum_ratio": (sum(busy.values()) / single_thread_s, "ratio"),
        "text_stats.content_mb": (corpus.column("content").nbytes / 1e6, "MB"),
    }
    return {"metrics": metrics, "kept": kept, "drift": drift,
            "batches": len(scored_batches),
            "lineage_dir": os.path.join(out_dir, "lineage"), "suite": suite, "keys": keys}


# --------------------------------------------------------------------------- #
# exchange (stages.dedup, functions.bucketed, stages.skew)
# --------------------------------------------------------------------------- #


def exchange_layers(flag: dict) -> dict:
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from great_expectations_ray.functions.bucketed import hash_bucket_of
    from great_expectations_ray.pipelines import quality_filter as qf
    from great_expectations_ray.stages.dedup import composite_key_column, dedup_exact
    from great_expectations_ray.stages.skew import local_keep_first

    kept = [k for k in flag["kept"] if k.num_rows]
    rows_in = sum(k.num_rows for k in kept)
    # what leaves each map batch after the per-batch keep-first combine
    pre = [local_keep_first(k.append_column(
        "__dedup_key", composite_key_column(k, ["scrubbed_sha256"])), "__dedup_key", "path")
        for k in kept]
    shuffled = pa.concat_tables(pre)
    counts = np.bincount(hash_bucket_of(shuffled.column("__dedup_key"), 256), minlength=256)

    ds = rd.from_arrow(kept)
    exchange_s, out = timed(
        lambda: dedup_exact(ds, ["scrubbed_sha256"], order_by="path").materialize())
    rows_out = out.count()

    def reread():
        lineage = rd.read_parquet(flag["lineage_dir"])
        partials = lineage.map_batches(
            qf.rollup_partial_fn(flag["keys"], len(flag["suite"].expectations)),
            batch_format="pyarrow", zero_copy_batch=True)
        return qf._rollup_from_partials(partials, flag["suite"], flag["keys"])

    reread_s, _ = timed(reread)
    return {
        "dedup.exchange_s": (exchange_s, "s"),
        "dedup.rows_in": (rows_in, "count"),
        "dedup.rows_out": (rows_out, "count"),
        "dedup.dup_ratio": (1 - rows_out / max(rows_in, 1), "ratio"),
        "dedup.precombine_ratio": (shuffled.num_rows / max(rows_in, 1), "ratio"),
        "dedup.bucket_skew": (float(counts.max() / max(counts.mean(), 1e-9)), "ratio"),
        "dedup.shuffle_mb": (shuffled.nbytes / 1e6, "MB"),
        "dedup.lineage_reread_s": (reread_s, "s"),
    }


# --------------------------------------------------------------------------- #
# engine and multi-table
# --------------------------------------------------------------------------- #


def engine_layers(manifest: dict) -> dict:
    """``validate`` on the table_validate input with the fused-pass rules
    alone and with each exchange family alone; the full suite on all of
    the input and on its first file gives the fixed share."""
    import ray.data as rd

    from great_expectations_ray.core.suite import ExpectationSuite
    from great_expectations_ray.engine import compile_suite, validate
    from perfbench.workloads import table_suite

    suite = table_suite()
    cfgs = suite.resolved_expectations()
    ds = rd.read_parquet(manifest["files"])
    compile_s = statistics.median(timed(compile_suite, suite)[0] for _ in range(25))

    def leg(idx):
        return timed(validate, ds, ExpectationSuite("leg", [cfgs[i] for i in idx]))[0]

    # table_suite ends with the three exchange families, one rule each
    n = len(cfgs)
    map_s = leg(range(n - 3))
    unique_s, vc_s, two_phase_s = leg([n - 3]), leg([n - 2]), leg([n - 1])
    full_s = statistics.median(timed(validate, ds, suite)[0] for _ in range(2))
    part = rd.read_parquet(first_file(manifest))
    part_s = statistics.median(timed(validate, part, suite)[0] for _ in range(2))
    return {
        "engine.compile_s": (compile_s, "s"),
        "engine.map_pass_s": (map_s, "s"),
        "engine.unique_s": (unique_s, "s"),
        "engine.value_counts_s": (vc_s, "s"),
        "engine.two_phase_s": (two_phase_s, "s"),
        "engine.exchange_share": (max(full_s - map_s, 0.0) / full_s, "ratio"),
        "engine.fixed_share": (fixed_share(full_s, part_s, manifest["files"]), "ratio"),
    }


def multi_table_layers(manifest: dict, ncpu: int) -> dict:
    """Serial ``validate`` over the 100 tables (100 samples, 10 beyond p90)
    against one pooled ``validate_many``."""
    from great_expectations_ray.engine import validate
    from great_expectations_ray.pipelines.multi_table import validate_many
    from perfbench.workloads import equal_tables, tables_suite

    suite = tables_suite()
    tables = equal_tables(manifest)
    serial = [timed(validate, ds, suite)[0] for ds in tables.values()]
    pooled_s = timed(validate_many, tables, suite, max_workers=ncpu)[0]
    deciles = statistics.quantiles(serial, n=10)
    return {
        "multi_table.per_table_p50_s": (statistics.median(serial), "s"),
        "multi_table.per_table_p90_s": (deciles[8], "s"),
        "multi_table.overlap": (sum(serial) / pooled_s, "ratio"),
    }


def call_patches(workload: str):
    """Driver-side functions wrapped while the workload's public call is
    traced: the call itself and the module functions it blocks on."""
    from great_expectations_ray import engine
    from great_expectations_ray.pipelines import quality_filter as qf

    if workload == "corpus_filter":
        return [
            (qf, "run_quality_filter", "quality_filter.run"),
            (qf, "_prepare_model_ref", "perplexity.model_ref"),
            (qf, "_rollup_from_partials", "quality_filter.rollup"),
        ]
    return [
        (engine, "validate", "engine.validate"),
        (engine, "compile_suite", "engine.compile"),
        (engine, "_merge_partials", "engine.merge_partials"),
        (engine, "_grouped_value_counts", "engine.grouped_value_counts"),
        (engine, "_dup_stats", "engine.dup_stats"),
        (engine, "_finish_vc_rule", "engine.finish_vc_rule"),
    ]
