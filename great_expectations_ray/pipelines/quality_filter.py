"""The flagship north-rule pipeline: language-ID + perplexity + heuristic
expectations + PII scrub over a source-code Parquet corpus, Ray-Data-first.

Stage graph: ONE streaming pass, no mid-pipeline materialization:

    read_parquet(columns=[repo,path,commit,lang,content])
      -> FusedQualityStage, fused into the read tasks (one instance per
         worker process, ``stages._per_worker``); per batch:
           TextStats (only the stats the suite judges, Arrow kernels)
           -> LangIdScorer (compile-once)
           -> PerplexityScorer (LM broadcast once via ray.put)
           -> RuleEvalScrub: ALL row rules -> keep mask + rule bitmap
              + scrub + sha256 lineage
           -> SinkStage (write mode): kept rows (scrubbed content) to data/,
              content-free lineage to lineage/, emit the rollup partial
    rollup: per-batch partial counts per rollup key (default repo, lang)
            -> one in-process merge of the partials
            -> GX-shaped per-partition suite results (validation_statistics.py:19-42)

Keep/drop semantics are EXACTLY the reference's map-expectation semantics: a
row is dropped iff it is *unexpected* for at least one row-level rule
(null-filtered condition, negation convention — ``column_condition_partial
.py:104-121``); per-partition success uses ``_mostly_success`` strict ``>=``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.core.results import calc_validation_statistics, mostly_success
from great_expectations_ray.core.suite import ExpectationConfiguration, ExpectationSuite
from great_expectations_ray.functions.bucketed import group_aggregate
from great_expectations_ray.functions.column_map import CONDITION_KERNELS
from great_expectations_ray.stages._per_worker import map_per_worker
from great_expectations_ray.stages.langid import LangIdScorer
from great_expectations_ray.stages.perplexity import PerplexityScorer, build_reference_model
from great_expectations_ray.stages.scrub import (
    DEFAULT_SCRUB_RULES,
    Scrubber,
    sha256_column,
    sha256_column_where,
)
from great_expectations_ray.stages.text_stats import TextStats


def default_quality_suite() -> ExpectationSuite:
    """Heuristic code-quality rules over content + derived stat/score columns
    (the north star's length / line-length / alphanumeric-ratio /
    perplexity-threshold rules, each a standard map expectation)."""
    return (
        ExpectationSuite("code_quality_default")
        .add("expect_column_values_to_not_be_null", column="content")
        .add("expect_column_value_lengths_to_be_between",
             column="content", min_value=1, max_value=2_000_000)
        .add("expect_column_values_to_be_between",
             column="max_line_len", max_value=10_000)
        .add("expect_column_values_to_be_between",
             column="alnum_ratio", min_value=0.25, max_value=1.0)
        .add("expect_column_values_to_be_between",
             column="perplexity", min_value=0.0, max_value=5_000.0)
    )


@dataclass
class QualityFilterConfig:
    suite: ExpectationSuite = field(default_factory=default_quality_suite)
    scrub_rules: list = field(default_factory=lambda: list(DEFAULT_SCRUB_RULES))
    use_langid: bool = True
    use_perplexity: bool = True
    perplexity_sample_rows: int = 400
    #: no-ops, accepted for old callers: the fused stage runs as Ray Data
    #: tasks on pooled workers, so there is no actor pool to size
    actor_concurrency: int = 4
    autoscale_actors: bool = True
    batch_size: Optional[int] = 2048
    rollup_keys: tuple = ("repo", "lang")
    #: None (no dedup) or "exact": after filtering, drop rows whose SCRUBBED
    #: content sha256 duplicates a kept row with a smaller path (global
    #: keep-first; one hash shuffle of the kept rows — write-mode only)
    dedup: Optional[str] = None
    #: optional path to a cached LM table (.npy); deterministic per corpus,
    #: so bench/scaling runs skip the training pass
    perplexity_model_path: Optional[str] = None


class RuleEvalScrub:
    """Fused stateless stage: evaluate every row-level rule of the suite in
    one pass over the batch, emit keep/bitmap/lineage, scrub content."""

    def __init__(self, rule_configs: list[ExpectationConfiguration], scrub_rules: list):
        if len(rule_configs) > 64:
            raise ValueError("rule bitmap is uint64 — max 64 row-level rules")
        self.rules = [
            (bit, cfg, CONDITION_KERNELS[cfg.expectation_type])
            for bit, cfg in enumerate(rule_configs)
        ]
        self.scrubber = Scrubber(scrub_rules)

    def __call__(self, tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        bitmap = np.zeros(n, dtype=np.uint64)
        for bit, cfg, kernel in self.rules:
            res = kernel(tbl, cfg.kwargs)
            unexpected = res.considered & ~res.meets
            bitmap |= unexpected.astype(np.uint64) << np.uint64(bit)
        keep = bitmap == 0

        content = tbl.column("content")
        pre = sha256_column(content)
        scrubbed, hit = self.scrubber.scrub_array(content)
        # unchanged rows reuse the pre-scrub digest — post-hash work scales
        # with the scrub HIT RATE, not the corpus size
        post = sha256_column_where(scrubbed, hit, pre)

        tbl = tbl.set_column(tbl.column_names.index("content"), "content", scrubbed)
        tbl = tbl.append_column("content_sha256", pre)
        tbl = tbl.append_column("scrubbed_sha256", post)
        tbl = tbl.append_column("scrub_hit", pa.array(hit))
        tbl = tbl.append_column("rule_bitmap", pa.array(bitmap, pa.uint64()))
        tbl = tbl.append_column("keep", pa.array(keep))
        return tbl


class FusedQualityStage:
    """ONE per-batch stage running the whole per-row pipeline: text stats ->
    language-ID -> perplexity -> rule eval -> scrub -> (optional) parquet
    sinks -> rollup partial.

    Fusing avoids three object-store round-trips of the (wide) content
    column between operators, and running it through
    ``stages._per_worker.map_per_worker`` fuses it into the read tasks.  The
    LM table is fetched once per worker process from the broadcast ref."""

    def __init__(
        self,
        rule_configs,
        scrub_rules,
        *,
        model_ref=None,
        use_langid: bool = True,
        key_list=("repo", "lang"),
        data_dir: str | None = None,
        lineage_dir: str | None = None,
        emit: str = "partials",
    ):
        from great_expectations_ray.stages.text_stats import ALL_TEXT_STATS

        # compute only the stats the suite actually judges — every skipped
        # stat is a skipped pass over the content bytes
        referenced = {c.kwargs.get("column") for c in rule_configs}
        needed = tuple(s for s in ALL_TEXT_STATS if s in referenced)
        self.text_stats = TextStats(stats=needed) if needed else None
        self.langid = LangIdScorer() if use_langid else None
        self.ppl = PerplexityScorer(model_ref) if model_ref is not None else None
        self.rules = RuleEvalScrub(rule_configs, scrub_rules)
        self.sink = (
            SinkStage(data_dir, lineage_dir, list(key_list), len(rule_configs),
                      emit=emit)
            if lineage_dir
            else None
        )

    def __call__(self, tbl: pa.Table) -> pa.Table:
        if self.text_stats is not None:
            tbl = self.text_stats(tbl)
        if self.langid is not None:
            tbl = self.langid(tbl)
        if self.ppl is not None:
            col = tbl.column("content")
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            tbl = tbl.append_column(
                "perplexity", pa.array(self.ppl.score_array(col), pa.float64())
            )
        tbl = self.rules(tbl)
        if self.sink is not None:
            return self.sink(tbl)
        return tbl


LINEAGE_COLS = [
    "repo", "path", "commit", "lang", "content_sha256", "scrubbed_sha256",
    "scrub_hit", "rule_bitmap", "keep",
]


def rollup_partial_fn(key_list: list[str], n_rules: int):
    """Per-batch rollup partial: an in-batch Arrow group_by producing one row
    per key — tiny — for a later ``groupby(keys).sum`` merge (map-side
    pre-aggregation; partial rows are bounded by |keys| per batch, so
    mega-repos cannot skew the exchange — SURVEY §4)."""

    def partial(tbl: pa.Table) -> pa.Table:
        cols = {k: tbl.column(k) for k in key_list}
        bitmap = np.asarray(tbl.column("rule_bitmap"), dtype=np.uint64)
        keep = np.asarray(tbl.column("keep"), dtype=bool)
        data = dict(cols)
        data["rows"] = pa.array(np.ones(len(keep), dtype=np.int64))
        data["kept"] = pa.array(keep.astype(np.int64))
        for i in range(n_rules):
            viol = ((bitmap >> np.uint64(i)) & np.uint64(1)).astype(np.int64)
            data[f"viol_{i}"] = pa.array(viol)
        t = pa.table(data)
        aggs = [("rows", "sum"), ("kept", "sum")] + [(f"viol_{i}", "sum") for i in range(n_rules)]
        return group_aggregate(t, key_list, aggs)

    return partial


def _rollup_from_partials(partials_ds, suite: ExpectationSuite, keys) -> list[dict[str, Any]]:
    """Merge per-batch rollup partials into final per-key suite results.

    Partials are already pre-aggregated per batch (≤ |keys| rows each), so
    the merge is a driver-side pandas groupby over #batches × |keys| rows —
    no Ray shuffle (a Ray groupby on this tiny table costs seconds of fixed
    overhead).  At extreme batch counts, insert one ``partials_ds.repartition
    (k).map_batches(local_sum)`` tree level before collecting."""
    import ray

    rule_configs = suite.resolved_expectations()
    n_rules = len(rule_configs)
    key_list = list(keys)
    agg_cols = ["rows_sum", "kept_sum"] + [f"viol_{i}_sum" for i in range(n_rules)]
    # materialize first: to_arrow_refs() on a lazy Dataset executes the DAG
    # a second time (observed: doubled sink writes); partial blocks are tiny
    mat = partials_ds.materialize()
    blocks = [ray.get(ref) for ref in mat.to_arrow_refs()]
    blocks = [b for b in blocks if b.num_rows]
    if not blocks:
        return []
    merged_tbl = pa.concat_tables(blocks, promote_options="default")
    grouped_tbl = group_aggregate(
        merged_tbl, key_list,
        [(c, "sum") for c in agg_cols]
    )
    grouped = grouped_tbl.to_pylist()
    out = []
    for row in grouped:
        rows = int(row[f"{agg_cols[0]}_sum"])
        kept = int(row[f"{agg_cols[1]}_sum"])
        results = []
        for i, cfg in enumerate(rule_configs):
            viol = int(row[f"viol_{i}_sum_sum"])
            success = True if rows == 0 else mostly_success(
                rows, viol, cfg.kwargs.get("mostly", 1.0)
            )
            results.append({
                "expectation_type": cfg.expectation_type,
                "kwargs": {k: v for k, v in cfg.kwargs.items()},
                "success": success,
                "unexpected_count": int(viol),
                "element_count": int(rows),
            })
        stats = calc_validation_statistics(
            [type("R", (), {"success": r["success"]})() for r in results]
        )
        out.append({
            **{k: row[k] for k in key_list},
            "row_count": int(rows),
            "keep_count": int(kept),
            "drop_count": int(rows - kept),
            "results": results,
            "statistics": stats,
        })
    out.sort(key=lambda r: tuple(str(r[k]) for k in key_list))
    return out


def rollup(scored_ds, suite: ExpectationSuite, keys=("repo", "lang")) -> list[dict[str, Any]]:
    """Per-(repo,lang) suite results, GX ValidationResult-rollup shaped."""
    key_list = list(keys)
    n_rules = len(suite.resolved_expectations())
    partials = (
        scored_ds.select_columns(key_list + ["rule_bitmap", "keep"])
        .map_batches(rollup_partial_fn(key_list, n_rules),
                     batch_format="pyarrow", zero_copy_batch=True)
    )
    return _rollup_from_partials(partials, suite, keys)


class SinkStage:
    """Terminal fused stage for write-mode runs: per batch, writes the kept
    rows (scrubbed content) to ``data/`` and the content-free lineage of ALL
    rows to ``lineage/``, then emits only the tiny rollup partial — so the
    whole pipeline is ONE streaming pass with no re-execution and nothing
    large ever returns to the driver."""

    def __init__(self, data_dir: Optional[str], lineage_dir: str,
                 key_list: list[str], n_rules: int, prefix: str = "part",
                 emit: str = "partials"):
        self.data_dir = data_dir
        self.lineage_dir = lineage_dir
        self.partial = rollup_partial_fn(key_list, n_rules)
        self.prefix = prefix
        self.emit = emit  # "partials" | "kept_rows" (for a downstream dedup)

    def __call__(self, tbl: pa.Table) -> pa.Table:
        import os

        import pyarrow.parquet as pq

        kept_tbl = tbl.filter(np.asarray(tbl.column("keep"), dtype=bool))
        if tbl.num_rows:
            os.makedirs(self.lineage_dir, exist_ok=True)
            # content-addressed fragment name over the batch's FULL key
            # columns: a retried task re-emitting the identical batch
            # rewrites the same file (idempotent), while two different
            # batches that happen to share a first row + row count can never
            # collide/overwrite (per-row 64-bit key hashes folded into one
            # digest; cross-batch collision ~2^-64).  A retry that re-splits
            # batches produces new names; the per-partition manifest
            # fingerprint remains the completeness guard.
            from great_expectations_ray.functions.bucketed import poly_hash_strings

            key_cols = [c for c in ("repo", "path", "commit") if c in tbl.column_names]
            row_h = np.zeros(tbl.num_rows, dtype=np.uint64)
            for c in key_cols:
                col = tbl.column(c).combine_chunks()
                row_h = row_h * np.uint64(1099511628211) + poly_hash_strings(
                    pc.fill_null(col, "")
                )
            frag = hashlib.sha256(row_h.tobytes()).hexdigest()[:24]
            name = f"{self.prefix}-{frag}.parquet"
            # zstd: ~2-4x smaller than snappy on source code, keeps the sink
            # off the disk-bandwidth floor
            if self.data_dir and kept_tbl.num_rows:
                os.makedirs(self.data_dir, exist_ok=True)
                pq.write_table(kept_tbl, os.path.join(self.data_dir, name),
                               compression="zstd")
            lineage = [c for c in LINEAGE_COLS if c in tbl.column_names]
            pq.write_table(tbl.select(lineage), os.path.join(self.lineage_dir, name),
                           compression="zstd")
        if self.emit == "kept_rows":
            return kept_tbl
        return self.partial(tbl)


def _prepare_model_ref(raw_ds, config: QualityFilterConfig):
    """Load/train the deterministic LM and broadcast it once."""
    if not config.use_perplexity:
        return None
    import os

    import ray

    model = None
    if config.perplexity_model_path and os.path.exists(config.perplexity_model_path):
        model = np.load(config.perplexity_model_path)
    if model is None:
        model = build_reference_model(
            raw_ds.select_columns(["content"]),
            sample_rows=config.perplexity_sample_rows,
        )
        if config.perplexity_model_path:
            np.save(config.perplexity_model_path, model)
    return ray.put(model)


def run_quality_filter(
    ds,
    config: Optional[QualityFilterConfig] = None,
    *,
    output_dir: Optional[str] = None,
):
    """End-to-end run through ONE fused per-batch stage (no content column
    ever crosses an operator boundary).

    With ``output_dir``: the terminal stage writes kept rows (scrubbed
    content) under ``data/`` and content-free lineage under ``lineage/`` and
    only tiny rollup partials flow back.  Without: returns the materialized
    scored dataset + rollup (test scale only)."""
    config = config or QualityFilterConfig()
    schema = ds.schema()
    if schema is not None:
        missing = [c for c in ("content", *config.rollup_keys)
                   if c not in schema.names]
        if missing:
            raise ValueError(
                f"quality filter input is missing column(s) {missing}: "
                f"got {schema.names}.  It needs 'content' plus the rollup "
                f"keys {list(config.rollup_keys)}; see "
                "corpus.write_corpus_parquet for the reference layout "
                "(repo, path, commit, lang, content).")
    model_ref = _prepare_model_ref(ds, config)
    rule_configs = config.suite.resolved_expectations()
    if not config.use_perplexity:
        # scorer disabled -> its score column never exists; drop rules on it
        rule_configs = [
            c for c in rule_configs if c.kwargs.get("column") != "perplexity"
        ]
    if not config.use_langid:
        rule_configs = [
            c for c in rule_configs
            if c.kwargs.get("column") not in ("lang_pred", "langid_score")
        ]
    effective_suite = ExpectationSuite(config.suite.name, list(rule_configs))
    common = dict(
        rule_configs=rule_configs,
        scrub_rules=config.scrub_rules,
        model_ref=model_ref,
        use_langid=config.use_langid,
        key_list=list(config.rollup_keys),
    )

    if output_dir is None:
        scored = map_per_worker(
            ds, FusedQualityStage, common, batch_format="pyarrow",
            batch_size=config.batch_size, zero_copy_batch=True,
        ).materialize()  # test scale only
        kept = scored.filter(expr="keep == True")
        report = rollup(scored, effective_suite, config.rollup_keys)
        return {"scored": scored, "kept": kept, "rollup": report}

    import os

    data_dir = os.path.join(output_dir, "data")
    lineage_dir = os.path.join(output_dir, "lineage")

    if config.dedup == "exact":
        # pass 1: score/scrub, write lineage for ALL rows, stream kept rows
        # into ONE hash shuffle on scrubbed sha256 (global keep-first by
        # path), then write the deduplicated data; rollup partials come from
        # the written lineage (cheap columnar re-read)
        import ray.data as rd

        from great_expectations_ray.stages.dedup import dedup_exact

        kept = map_per_worker(
            ds, FusedQualityStage,
            dict(common, data_dir=None, lineage_dir=lineage_dir, emit="kept_rows"),
            batch_format="pyarrow", batch_size=config.batch_size,
            zero_copy_batch=True,
        )
        deduped = dedup_exact(kept, ["scrubbed_sha256"], order_by="path")
        deduped.write_parquet(data_dir)
        lineage_ds = rd.read_parquet(lineage_dir)
        partials = lineage_ds.map_batches(
            rollup_partial_fn(list(config.rollup_keys), len(rule_configs)),
            batch_format="pyarrow", zero_copy_batch=True,
        )
        report = _rollup_from_partials(partials, effective_suite, config.rollup_keys)
        kept_before = sum(r["keep_count"] for r in report)
        kept_after = rd.read_parquet(data_dir).count()
        return {
            "data_dir": data_dir, "lineage_dir": lineage_dir, "rollup": report,
            "dedup": {"kept_before": kept_before, "kept_after": kept_after,
                      "duplicates_removed": kept_before - kept_after},
        }

    partials = map_per_worker(
        ds, FusedQualityStage,
        dict(common, data_dir=data_dir, lineage_dir=lineage_dir),
        batch_format="pyarrow", batch_size=config.batch_size, zero_copy_batch=True,
    )
    report = _rollup_from_partials(partials, effective_suite, config.rollup_keys)
    return {"data_dir": data_dir, "lineage_dir": lineage_dir, "rollup": report}
