"""CLI — `ray job submit -- python -m great_expectations_ray run ...`.

Commands:
  run       quality-filter checkpoint over parquet input (resumable)
  validate  apply a suite JSON to one table and print the suite result
  docs      build the static Data Docs HTML site from stored results
  profile   one-pass column profile; optionally emit a suggested suite
  dedup     deduplicate a parquet corpus (exact/minhash/simhash/paragraph)
  select    keep the top fraction of a corpus by score (zlib/length)
  drift     diff two tables' profiles; exit 1 when drift is detected
  incremental  day-2 intake: corpus diff + incremental dedup against a
               persisted bloom filter + drift gate, in one run
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _expand_input(path: str | list[str]) -> str | list[str]:
    """Glob-expand a CLI input path (``corpus/*.parquet``) — Ray's
    ``read_parquet`` takes literal files/dirs, not patterns (``run`` globs
    via the checkpoint; every other verb funnels through here).  Plain
    paths pass through untouched; an unmatched pattern fails loudly."""
    import glob as _glob

    if not isinstance(path, str) or not any(c in path for c in "*?["):
        return path
    matches = sorted(_glob.glob(path))
    if not matches:
        raise SystemExit(f"no input files match {path!r}")
    return matches


def _init_ray(cpus: int | None) -> bool:
    """Init Ray if nobody has; returns True iff WE own the session (callers
    must only shut down a session they own — killing a host application's
    session from a library entry point is hostile)."""
    import ray

    owned = not ray.is_initialized()
    if owned:
        # No explicit address: ray.init() honors RAY_ADDRESS, so the same
        # verb attaches to the job's cluster under `ray job submit`
        # (RAY_ADDRESS set by the job runner) and starts a local instance
        # otherwise.  num_cpus is only legal when starting locally.
        addr = os.environ.get("RAY_ADDRESS", "local")
        kwargs = dict(include_dashboard=False, logging_level="ERROR")
        if cpus and addr in ("", "local"):
            kwargs["num_cpus"] = cpus
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return owned


def _maybe_shutdown(owned: bool) -> None:
    if owned:
        import ray

        ray.shutdown()


def cmd_run(args) -> int:
    from great_expectations_ray.core.suite import ExpectationSuite
    from great_expectations_ray.pipelines.checkpoint import run_checkpoint
    from great_expectations_ray.pipelines.data_docs import write_data_docs
    from great_expectations_ray.pipelines.quality_filter import QualityFilterConfig

    owned = _init_ray(args.cpus)
    try:
        cfg_kwargs = dict(
            use_langid=not args.no_langid,
            use_perplexity=not args.no_perplexity,
        )
        if args.suite:
            with open(args.suite) as f:
                cfg_kwargs["suite"] = ExpectationSuite.from_json(f.read())
        config = QualityFilterConfig(**cfg_kwargs)
        actions = [] if args.no_docs else [lambda r: write_data_docs(args.output, r)]
        if args.actions:
            # serializable notification-action configs (pipelines/actions.py),
            # e.g. [{"type": "slack", "slack_webhook": "...", "notify_on": "failure"}]
            from great_expectations_ray.pipelines.actions import ValidationAction

            with open(args.actions) as f:
                for cfg in json.load(f):
                    actions.append(ValidationAction.from_config(cfg))
        res = run_checkpoint(
            args.input, args.output, config=config,
            n_partitions=args.partitions, actions=actions,
        )
        print(json.dumps({
            "partitions_run": res.partitions_run,
            "partitions_skipped": res.partitions_skipped,
            **res.combined_counts(),
        }))
    finally:
        _maybe_shutdown(owned)
    return 0


def cmd_validate(args) -> int:
    from great_expectations_ray.core.suite import ExpectationSuite
    from great_expectations_ray.engine import validate
    from great_expectations_ray.sources.readers import read_batch

    owned = _init_ray(args.cpus)
    try:
        suite_paths = (args.suite if isinstance(args.suite, list)
                       else [args.suite])
        suites = []
        for p in suite_paths:
            with open(p) as f:
                suites.append(ExpectationSuite.from_json(f.read()))
        suite = suites[0]
        if len(suites) > 1:
            # fused multi-suite pass (engine.validate_many) — plain mode only
            if (args.by or args.states or args.state_out or args.wide_out
                    or args.html_out):
                raise SystemExit(
                    "validate: several --suite paths run the fused "
                    "multi-suite pass, which combines only with --input "
                    "(not --by/--states/--state-out/--wide-out/--html-out)")
            if not args.input:
                raise SystemExit("validate: --input is required")
            from great_expectations_ray.engine import validate_many

            many = validate_many(read_batch(_expand_input(args.input)), suites,
                                 result_format=args.result_format)
            print(json.dumps(
                {name: r.to_json_dict() for name, r in many.items()},
                indent=1, default=str))
            return 0 if all(r.success for r in many.values()) else 1
        # reject silent flag combinations up front: each mode is exclusive
        if args.state_out and args.by:
            raise SystemExit(
                "validate: --state-out cannot be combined with --by "
                "(mergeable state is per-partition, not per-group)")
        if args.wide_out and not args.by:
            raise SystemExit("validate: --wide-out requires --by")
        if args.html_out and args.wide_out:
            raise SystemExit(
                "validate: --html-out renders the narrow --by mode; with "
                "--wide-out consume the verdict parquet instead")
        if args.states and (args.input or args.by or args.state_out):
            raise SystemExit(
                "validate: --states is a pure rollup — it takes only "
                "--suite (cross-checked against the states)")
        if args.states:
            # finish corpus-level results from persisted partition states —
            # no data is read (day-2 rollup path)
            from great_expectations_ray.pipelines.incremental_validate import (
                SuiteValidationState,
                merge_states,
            )

            loaded = [SuiteValidationState.load(p) for p in args.states]
            if any(st.suite_json != suite.to_json_dict() for st in loaded):
                raise SystemExit(
                    "validate: --suite does not match the suite embedded in "
                    "the state files — results would reflect the states' "
                    "suite, not yours; re-compute states with this suite")
            merged = merge_states(loaded)
            res = merged.finish(result_format=args.result_format)
            print(json.dumps(res.to_json_dict(), indent=1, default=str))
            return 0 if res.success else 1
        if not args.input:
            raise SystemExit("validate: --input is required unless --states")
        ds = read_batch(_expand_input(args.input))
        if args.state_out:
            # one streaming pass -> persisted mergeable state + finished
            # result for THIS partition
            from great_expectations_ray.pipelines.incremental_validate import (
                SuiteValidationState,
            )

            st = SuiteValidationState.compute(ds, suite)
            st.save(args.state_out)
            res = st.finish(result_format=args.result_format)
            print(json.dumps(res.to_json_dict(), indent=1, default=str))
            return 0 if res.success else 1
        by_arg = (args.by.split(",") if args.by and "," in args.by
                  else args.by)
        if args.by and args.wide_out:
            # unbounded key cardinality: verdicts land as parquet, the
            # driver prints only the rollup
            from great_expectations_ray.pipelines.grouped import (
                validate_grouped_wide,
            )

            wide = validate_grouped_wide(ds, suite, by=by_arg,
                                         result_format=args.result_format,
                                         include_results=args.wide_results)
            # Ray write_parquet APPENDS into an existing dir: stale verdict
            # rows from a previous run would poison the rollup and the exit
            # code, so the output dir is replaced
            import shutil

            shutil.rmtree(args.wide_out, ignore_errors=True)
            wide.write_parquet(args.wide_out)
            import ray.data as rd

            back = rd.read_parquet(args.wide_out,
                                   columns=["success", "row_count"])
            n_groups = back.count()
            n_fail = back.filter(lambda r: not r["success"]).count()
            print(json.dumps({"groups": n_groups, "failed_groups": n_fail,
                              "output": args.wide_out}))
            return 0 if n_fail == 0 else 1
        if args.by:
            from great_expectations_ray.pipelines.grouped import (
                validate_grouped,
            )

            grouped = validate_grouped(ds, suite, by=by_arg,
                                       result_format=args.result_format)
            if args.html_out:
                from great_expectations_ray.pipelines.data_docs import (
                    render_grouped_page,
                )

                with open(args.html_out, "w") as f:
                    f.write(render_grouped_page(grouped, by=args.by))
            print(json.dumps(
                {str(k): r.to_json_dict() for k, r in sorted(
                    grouped.items(), key=lambda kv: str(kv[0]))},
                indent=1, default=str))
            return 0 if all(r.success for r in grouped.values()) else 1
        res = validate(ds, suite, result_format=args.result_format)
        print(json.dumps(res.to_json_dict(), indent=1, default=str))
    finally:
        _maybe_shutdown(owned)
    return 0 if res.success else 1


def cmd_docs(args) -> int:
    """Build the browsable HTML site from stored validation results — the
    reference's ``great_expectations docs build`` (site_builder.py:1)."""
    from great_expectations_ray.pipelines.data_docs import build_site

    index = build_site(args.root, site_dir=args.site_dir)
    print(json.dumps({"index": index}))
    return 0


def cmd_profile(args) -> int:
    """Onboard a dataset: one-pass profile; optionally emit a suggested
    suite JSON that validates green on the profiled data."""
    from great_expectations_ray.pipelines.profiler import profile, suggest_suite
    from great_expectations_ray.sources.readers import read_batch

    owned = _init_ray(args.cpus)
    try:
        profs = profile(read_batch(_expand_input(args.input)))
        print(json.dumps({c: p.to_json_dict() for c, p in profs.items()},
                         indent=1, default=str))
        if args.suggest_suite:
            suite = suggest_suite(profs, name=args.suite_name)
            with open(args.suggest_suite, "w") as f:
                f.write(suite.to_json())
        if args.html:
            from great_expectations_ray.pipelines.data_docs import (
                render_profiling_page,
            )

            with open(args.html, "w") as f:
                f.write(render_profiling_page(
                    profs, title=f"Profiling: {args.input}"))
        if args.root:
            import time

            from great_expectations_ray.state.stores import (
                ProfilingResultsStore,
            )

            asset = args.asset or os.path.splitext(
                os.path.basename(args.input))[0]
            run_name = f"profile-{time.time():.0f}"
            ProfilingResultsStore(args.root).save(asset, run_name, profs)
    finally:
        _maybe_shutdown(owned)
    return 0


def _drift_report(base, cur, *, psi_columns=None, psi_threshold=0.25,
                  ks_columns=None, ks_alpha=0.001) -> dict:
    """Profile diff + optional PSI/KS column gates; ``rep['drifted']`` folds
    every check.  Shared by ``drift`` and ``incremental``."""
    from great_expectations_ray.pipelines.drift import detect_drift

    rep = detect_drift(base, cur)
    if psi_columns:
        from great_expectations_ray.functions.psi import psi_bins

        psi_rep = {}
        for col in psi_columns.split(","):
            col = col.strip()
            out = psi_bins(base, cur, col)
            psi_rep[col] = {
                "psi": out.attrs["psi"],
                "drifted": out.attrs["psi"] > psi_threshold,
                "bins": out.to_dict("records"),
            }
        rep["psi"] = psi_rep
        rep["drifted"] = bool(
            rep["drifted"] or any(v["drifted"] for v in psi_rep.values()))
    if ks_columns:
        from great_expectations_ray.functions.ks import (
            distributed_ks_2samp_datasets)

        ks_rep = {}
        for col in ks_columns.split(","):
            col = col.strip()
            r = distributed_ks_2samp_datasets(base, cur, col)
            r["drifted"] = r["p_value"] < ks_alpha
            ks_rep[col] = r
        rep["ks"] = ks_rep
        rep["drifted"] = bool(
            rep["drifted"] or any(v["drifted"] for v in ks_rep.values()))
    return rep


def cmd_drift(args) -> int:
    """Diff two datasets' profiles; exit 1 when drift is detected.

    ``--psi-columns``: additionally compute the Population Stability Index
    per named numeric column (baseline-decile bins); a column with
    PSI > ``--psi-threshold`` (default 0.25, the standard major-shift bar)
    counts as drifted."""
    from great_expectations_ray.sources.readers import read_batch

    owned = _init_ray(args.cpus)
    try:
        base = read_batch(_expand_input(args.baseline))
        cur = read_batch(_expand_input(args.current))
        rep = _drift_report(base, cur, psi_columns=args.psi_columns,
                            psi_threshold=args.psi_threshold,
                            ks_columns=args.ks_columns,
                            ks_alpha=args.ks_alpha)
        if args.by and args.ks_columns:
            # per-group drift: exact two-sample KS per (group, column) —
            # one bucketed exchange per column, bounded verdict rows
            from great_expectations_ray.functions.ks import grouped_ks_2samp

            import pandas as _pd

            by_rep = {}
            for col in args.ks_columns.split(","):
                col = col.strip()
                gdf = grouped_ks_2samp(base, cur, [args.by], col).to_pandas()
                gdf["drifted"] = gdf["p_value"] < args.ks_alpha  # NaN -> False
                gdf = gdf.sort_values(args.by)
                by_rep[col] = gdf.astype(object).where(
                    _pd.notna(gdf), None).to_dict("records")
            rep["ks_by_group"] = by_rep
            rep["drifted"] = bool(
                rep["drifted"] or any(
                    bool(r["drifted"]) for rows in by_rep.values()
                    for r in rows))
        print(json.dumps(rep, indent=1, default=str))
    finally:
        _maybe_shutdown(owned)
    return 1 if rep["drifted"] else 0


def cmd_incremental(args) -> int:
    """Day-2 incremental intake — ONE flow chaining the three incremental
    primitives on a (snapshot, today) pair:

    1. **corpus diff** (stages/corpusdiff.py): added/removed/changed/
       unchanged counts vs the snapshot — the audit artifact.
    2. **incremental dedup** (stages/bloomdedup.py): drop today's rows whose
       ``--text-col`` already exists in the snapshot (bloom prefilter +
       exact verify).  ``--bloom PATH`` persists the filter: loaded when
       present (skips the snapshot build pass), created otherwise, and
       re-saved with today's novel keys OR-ed in, so tomorrow's run prunes
       against snapshot+today without re-reading either.
    3. **drift gate** (PSI/KS, same flags as ``drift``): snapshot vs today's
       FULL intake (pre-dedup — drift should see what arrived).  Exit 1 on
       drift; survivors are still written.

    Survivors land partitioned under ``--output``; one JSON report prints.
    """
    import os

    import numpy as np
    import ray.data as rd

    from great_expectations_ray.functions.joins import hash_bucket_join
    from great_expectations_ray.stages.bloomdedup import (
        build_bloom,
        load_bloom,
        mark_known,
        save_bloom,
    )
    from great_expectations_ray.stages.corpusdiff import diff_corpora

    owned = _init_ray(args.cpus)
    try:
        snap = rd.read_parquet(_expand_input(args.snapshot))
        today = rd.read_parquet(_expand_input(args.input))
        n_in = today.count()

        # 1. corpus diff
        diff_counts = (
            diff_corpora(snap, today, id_col=args.id_col,
                         content_col=args.text_col)
            .to_pandas()["status"].value_counts().to_dict())

        # 2. incremental dedup (persisted-filter aware)
        words = None
        num_bits, num_hashes = args.bloom_bits, 4
        bloom_state = "none"
        if args.bloom:
            if os.path.exists(args.bloom):
                words, num_bits, num_hashes = load_bloom(args.bloom)
                bloom_state = "loaded"
            else:
                words = build_bloom(snap, args.text_col, num_bits=num_bits,
                                    num_hashes=num_hashes)
                bloom_state = "built"
        marks = mark_known(today, snap, key_col=args.text_col,
                           id_col=args.id_col, num_bits=num_bits,
                           num_hashes=num_hashes, bloom_words=words)
        known_ids = marks.filter(expr="is_known == True").select_columns(
            [args.id_col]).materialize()
        n_known = known_ids.count()
        n_near = 0
        if args.near:
            # fuzzy sibling: MinHash-LSH band collision vs the snapshot
            # (snapshot never broadcast — band keys meet in one exchange)
            from great_expectations_ray.stages.neardup import mark_known_neardup

            near_ids = (mark_known_neardup(today, snap,
                                           text_col=args.text_col,
                                           id_col=args.id_col)
                        .filter(expr="is_known == True")
                        .select_columns([args.id_col]).materialize())
            n_near = near_ids.count()
            known_ids = known_ids.union(near_ids).materialize()
        survivors = hash_bucket_join(today, known_ids, on=args.id_col,
                                     n_buckets=64, how="anti")
        survivors.repartition(args.partitions).write_parquet(args.output)
        n_out = rd.read_parquet(args.output).count()

        if args.bloom:
            novel = rd.read_parquet(args.output)
            words = words | build_bloom(novel, args.text_col,
                                        num_bits=num_bits,
                                        num_hashes=num_hashes)
            save_bloom(np.asarray(words), args.bloom, num_hashes=num_hashes)
            bloom_state += "+updated"

        # 3. drift gate on the full intake
        rep = _drift_report(snap, today, psi_columns=args.psi_columns,
                            psi_threshold=args.psi_threshold,
                            ks_columns=args.ks_columns, ks_alpha=args.ks_alpha)
        print(json.dumps({
            "diff": diff_counts,
            "dedup": {"rows_in": n_in, "known_dropped": n_known,
                      "near_dropped": n_near, "rows_out": n_out},
            "bloom": {"path": args.bloom, "state": bloom_state,
                      "num_bits": int(num_bits)},
            "drift": rep,
            "output": args.output,
        }, indent=1, default=str))
    finally:
        _maybe_shutdown(owned)
    return 1 if rep["drifted"] else 0


def cmd_dedup(args) -> int:
    """Deduplicate a parquet corpus and write the survivors (partitioned).

    exact      keep-first by key columns (bucketed, skew-mitigated)
    minhash    drop LSH near-duplicates (banded MinHash, verified)
    simhash    drop Hamming-blocked near-duplicates
    paragraph  rewrite docs so each paragraph survives once corpus-wide
    clone1/2   drop code clones (Type-1 comment/whitespace normalization;
               Type-2 additionally masks string/number literals)
    """
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    owned = _init_ray(args.cpus)
    try:
        ds = rd.read_parquet(_expand_input(args.input))
        n_in = ds.count()
        if args.method == "exact":
            from great_expectations_ray.stages.dedup import dedup_exact

            keys = (args.key_cols.split(",") if args.key_cols
                    else [args.text_col])
            out = dedup_exact(ds, key_columns=keys, order_by=args.id_col)
        elif args.method in ("minhash", "simhash", "clone1", "clone2"):
            from great_expectations_ray.functions.joins import hash_bucket_join
            from great_expectations_ray.stages import neardup
            from great_expectations_ray.stages.code_clone import mark_code_clones

            idc = args.id_col
            if args.method == "minhash":
                marks = neardup.minhash_lsh_mark_duplicates(
                    ds, text_col=args.text_col, id_col=idc,
                    jaccard_threshold=args.jaccard_threshold)
            elif args.method == "simhash":
                marks = neardup.simhash_mark_duplicates(
                    ds, text_col=args.text_col, id_col=idc)
            else:
                marks = mark_code_clones(
                    ds, id_col=idc, content_col=args.text_col,
                    level=int(args.method[-1]))
            # the near-dup marks name their flag ``max(is_neardup)``
            flag = "is_clone" if args.method.startswith("clone") else "max(is_neardup)"
            flagged = marks.map_batches(
                lambda t: t.filter(pc.cast(t.column(flag), pa.bool_())).select([idc]),
                batch_format="pyarrow").materialize()
            out = hash_bucket_join(ds, flagged, on=idc, how="anti")
        elif args.method == "paragraph":
            from great_expectations_ray.stages.paragraph_dedup import dedup_paragraphs

            out = dedup_paragraphs(ds, text_col=args.text_col,
                                   id_col=args.id_col)
        else:  # pragma: no cover — argparse choices guard this
            raise ValueError(args.method)
        out.repartition(args.partitions).write_parquet(args.output)
        n_out = rd.read_parquet(args.output).count()
        print(json.dumps({"method": args.method, "rows_in": n_in,
                          "rows_out": n_out,
                          "rows_dropped": n_in - n_out,
                          "output": args.output}))
    finally:
        _maybe_shutdown(owned)
    return 0


def cmd_pack(args) -> int:
    """Tokenize a corpus into fixed-length training sequences (partitioned).

    Trains a WordPiece vocab from the corpus and saves it to ``--vocab``
    when the file does not exist; loads it otherwise (day-2 runs reuse the
    day-1 tokenizer so sequence ids stay comparable — the persisted-bloom
    convention).  Encodes every doc to rank ids (+EOS), packs into
    ``--seq-len``-token sequences that freely cross documents
    (stages/pack_ids.py), writes partitioned parquet."""
    import ray.data as rd

    from great_expectations_ray.stages.pack_ids import (
        encode_token_ids,
        pack_sequences,
    )
    from great_expectations_ray.stages.wordpiece import (
        load_vocab,
        save_vocab,
        train_wordpiece,
    )

    owned = _init_ray(args.cpus)
    try:
        ds = rd.read_parquet(_expand_input(args.input),
                             columns=[args.id_col, args.text_col])
        if args.vocab and os.path.exists(args.vocab):
            vocab, vocab_src = load_vocab(args.vocab), "loaded"
        else:
            vocab = train_wordpiece(ds, text_col=args.text_col,
                                    num_merges=args.num_merges)
            vocab_src = "trained"
            if args.vocab:
                parent = os.path.dirname(args.vocab)
                if parent:
                    os.makedirs(parent, exist_ok=True)
                save_vocab(vocab, args.vocab)
        enc = encode_token_ids(ds, vocab, text_col=args.text_col,
                               id_col=args.id_col, eos_id=len(vocab) + 1)
        packed = pack_sequences(enc, order_col=args.id_col,
                                seq_len=args.seq_len,
                                drop_last=not args.keep_last)
        if args.shards:
            packed = packed.materialize()
        packed.repartition(args.partitions).write_parquet(args.output)
        out = rd.read_parquet(args.output)
        n_seq = out.count()
        shard_info = None
        if args.shards:
            from great_expectations_ray.stages.shards import write_token_shards
            manifest = write_token_shards(
                packed, args.shards,
                seqs_per_shard=args.seqs_per_shard,
                vocab_size=len(vocab) + 2)  # +UNK id, +EOS id
            shard_info = {"dir": args.shards,
                          "n_shards": len(manifest["shards"]),
                          "dtype": manifest["dtype"],
                          "total_tokens": manifest["total_tokens"]}
        print(json.dumps({
            "sequences": n_seq,
            "tokens": n_seq * args.seq_len if not args.keep_last else None,
            "seq_len": args.seq_len,
            "vocab": vocab_src,
            "vocab_size": len(vocab),
            "output": args.output,
            "shards": shard_info,
        }))
    finally:
        _maybe_shutdown(owned)
    return 0


def cmd_embed(args) -> int:
    """Embed a text corpus into hashed-feature vectors (partitioned).

    documents -> ``text_emb`` list<float32> via the fastText-style hashed
    unigram+bigram mean-pooled embedding (stages/classifier.py TextEmbedder,
    seeded — re-runs and day-2 corpora embed into the SAME space, so the
    output chains into dedup/ANN/k-means across runs)."""
    import ray.data as rd

    from great_expectations_ray.stages.classifier import embed_text

    owned = _init_ray(args.cpus)
    try:
        ds = rd.read_parquet(_expand_input(args.input), columns=[args.id_col, args.text_col])
        emb = embed_text(ds, text_col=args.text_col, seed=args.seed)
        emb.repartition(args.partitions).write_parquet(args.output)
        n = rd.read_parquet(args.output).count()
        print(json.dumps({"rows": n, "dim": 16, "seed": args.seed,
                          "output": args.output}))
    finally:
        _maybe_shutdown(owned)
    return 0


def cmd_select(args) -> int:
    """Score a parquet corpus and keep the top fraction (partitioned).

    zlib     compression-ratio repetitiveness score (higher = keep;
             use --invert for natural-prose-first selection)
    length   character count
    Selection = exactly ceil(frac * n) rows, ROW_NUMBER-over-(score DESC,
    id)-semantics, via the rank-selected threshold (no global sort).
    """
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from great_expectations_ray.stages.topfrac import select_top_fraction

    owned = _init_ray(args.cpus)
    try:
        ds = rd.read_parquet(_expand_input(args.input))
        n_in = ds.count()
        if args.score == "zlib":
            from great_expectations_ray.stages.compressratio import (
                score_compression)

            scored = score_compression(ds, text_col=args.text_col)
            score_col = "comp_ratio"
        else:  # length
            def add_len(tbl):
                col = pc.cast(pc.fill_null(
                    tbl.column(args.text_col).combine_chunks(), ""),
                    pa.string())
                return tbl.append_column(
                    "doc_len", pc.cast(pc.utf8_length(col), pa.int64()))

            scored = ds.map_batches(add_len, batch_format="pyarrow",
                                    zero_copy_batch=True)
            score_col = "doc_len"
        if args.invert:
            def neg(tbl):
                return tbl.set_column(
                    tbl.column_names.index(score_col), score_col,
                    pc.negate(pc.cast(tbl.column(score_col), pa.float64())))

            scored = scored.map_batches(neg, batch_format="pyarrow",
                                        zero_copy_batch=True)
        marked = select_top_fraction(
            scored, score_col=score_col, id_col=args.id_col, frac=args.frac)
        helper = (["selected", "raw_len", "comp_len", "comp_ratio"]
                  if args.score == "zlib" else ["selected", score_col])
        kept = marked.filter(expr="selected == True").drop_columns(helper)
        kept.repartition(args.partitions).write_parquet(args.output)
        n_out = rd.read_parquet(args.output).count()
        print(json.dumps({"score": args.score, "frac": args.frac,
                          "rows_in": n_in, "rows_out": n_out,
                          "output": args.output}))
    finally:
        _maybe_shutdown(owned)
    return 0


def cmd_scan(args) -> int:
    """Secret hygiene for a code/text corpus (CI-gate semantics).

    One streaming sweep (stages/secrets_entropy.py): per file the maximal
    base64/hex candidate runs, the pure-hex subset and the high-entropy
    count (truffleHog thresholds).  ``--output`` persists per-file stats
    (partitioned parquet); ``--fail-on-hit`` exits 1 when any high-entropy
    candidate survives — the pre-training / pre-publish gate."""
    import pyarrow as pa
    import ray.data as rd

    from great_expectations_ray.stages.secrets_entropy import scan_secrets

    owned = _init_ray(args.cpus)
    try:
        ds = rd.read_parquet(_expand_input(args.input), columns=[args.id_col, args.text_col])
        stats = scan_secrets(ds, column=args.text_col).drop_columns(
            [args.text_col])
        if args.output:
            stats.repartition(args.partitions).write_parquet(args.output)
            stats = rd.read_parquet(args.output)  # summarize the sink, once

        def summ(tbl: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            cand = tbl.column("n_secret_candidates")
            hi = tbl.column("n_high_entropy")
            return pa.table({
                "files": pa.array([len(tbl)], pa.int64()),
                "files_with_candidates": pa.array(
                    [pc.sum(pc.cast(pc.greater(cand, 0), pa.int64())).as_py() or 0],
                    pa.int64()),
                "files_with_high_entropy": pa.array(
                    [pc.sum(pc.cast(pc.greater(hi, 0), pa.int64())).as_py() or 0],
                    pa.int64()),
                "total_candidates": pa.array([pc.sum(cand).as_py() or 0], pa.int64()),
                "total_high_entropy": pa.array([pc.sum(hi).as_py() or 0], pa.int64()),
            })

        totals = {"files": 0, "files_with_candidates": 0,
                  "files_with_high_entropy": 0, "total_candidates": 0,
                  "total_high_entropy": 0}
        for r in stats.map_batches(
            summ, batch_format="pyarrow", zero_copy_batch=True
        ).take_all():
            for k in totals:
                totals[k] += int(r[k])
        totals["output"] = args.output
        print(json.dumps(totals))
        if args.fail_on_hit and totals["files_with_high_entropy"]:
            return 1
        return 0
    finally:
        _maybe_shutdown(owned)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="great_expectations_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    r = sub.add_parser("run", help="quality-filter checkpoint (resumable)")
    r.add_argument("--input", required=True, help="input parquet glob")
    r.add_argument("--output", required=True, help="output root directory")
    r.add_argument("--suite", help="suite JSON path (default: built-in code-quality suite)")
    r.add_argument("--partitions", type=int, default=8)
    r.add_argument("--cpus", type=int, default=None)
    r.add_argument("--no-langid", action="store_true")
    r.add_argument("--no-perplexity", action="store_true")
    r.add_argument("--no-docs", action="store_true")
    r.add_argument("--actions", help="JSON file of notification-action configs")
    r.set_defaults(fn=cmd_run)

    d = sub.add_parser("docs", help="build the Data Docs HTML site")
    d.add_argument("--root", required=True, help="store root (run output dir)")
    d.add_argument("--site-dir", default=None)
    d.set_defaults(fn=cmd_docs)

    v = sub.add_parser("validate", help="validate one table against a suite")
    v.add_argument("--input", default=None,
                   help="input table (required unless --states)")
    v.add_argument("--suite", required=True, nargs="+",
                   help="suite JSON path; several paths = ONE fused pass "
                        "over the data validating every suite "
                        "(validate_many; plain mode only)")
    v.add_argument("--result-format", default="SUMMARY",
                   choices=["BOOLEAN_ONLY", "BASIC", "SUMMARY", "COMPLETE"])
    v.add_argument("--by", default=None,
                   help="validate every group of this column in ONE pass "
                        "(exit 1 if any group fails); comma-separate for a "
                        "multi-column key, e.g. --by repo,lang")
    v.add_argument("--wide-out", default=None,
                   help="with --by: unbounded key cardinality — write one "
                        "verdict row per group as parquet here instead of "
                        "printing results (exit 1 if any group fails)")
    v.add_argument("--wide-results", action="store_true",
                   help="with --wide-out: include the full per-group suite "
                        "result as a JSON column")
    v.add_argument("--html-out", default=None,
                   help="with --by: also write one grouped-summary Data "
                        "Docs HTML page here")
    v.add_argument("--state-out", default=None,
                   help="also persist this partition's MERGEABLE validation "
                        "state (suite-bounded blob) for later --states "
                        "rollups")
    v.add_argument("--states", nargs="+", default=None,
                   help="finish corpus-level results by merging persisted "
                        "states — no data is read (--input ignored)")
    v.add_argument("--cpus", type=int, default=None)
    v.set_defaults(fn=cmd_validate)

    pr = sub.add_parser("profile", help="profile a table; optionally suggest a suite")
    pr.add_argument("--input", required=True)
    pr.add_argument("--suggest-suite", help="write suggested suite JSON here")
    pr.add_argument("--html", help="write a profiling-results HTML page here")
    pr.add_argument("--root", help="store root: persist the profile so "
                    "`docs` renders it on the Profiling Results tab")
    pr.add_argument("--asset", help="asset name for the stored profile "
                    "(default: input file stem)")
    pr.add_argument("--suite-name", default="profiled")
    pr.add_argument("--cpus", type=int, default=None)
    pr.set_defaults(fn=cmd_profile)

    dd = sub.add_parser("dedup", help="deduplicate a parquet corpus")
    dd.add_argument("--input", required=True, help="input parquet glob")
    dd.add_argument("--output", required=True, help="output directory")
    dd.add_argument("--method", default="exact",
                    choices=["exact", "minhash", "simhash", "paragraph",
                             "clone1", "clone2"])
    dd.add_argument("--id-col", default="doc_id")
    dd.add_argument("--text-col", default="text")
    dd.add_argument("--key-cols",
                    help="exact method: comma-separated key columns "
                         "(default: the text column)")
    dd.add_argument("--jaccard-threshold", type=float, default=None,
                    help="minhash: verify candidates at this signature-"
                         "Jaccard threshold")
    dd.add_argument("--partitions", type=int, default=8)
    dd.add_argument("--cpus", type=int, default=None)
    dd.set_defaults(fn=cmd_dedup)

    pk = sub.add_parser(
        "pack", help="tokenize a corpus into fixed-length training sequences")
    pk.add_argument("--input", required=True)
    pk.add_argument("--output", required=True)
    pk.add_argument("--seq-len", type=int, default=2048)
    pk.add_argument("--vocab", help="vocab JSON: loaded when present, "
                    "trained-and-saved otherwise")
    pk.add_argument("--num-merges", type=int, default=60)
    pk.add_argument("--text-col", default="text")
    pk.add_argument("--id-col", default="doc_id")
    pk.add_argument("--keep-last", action="store_true",
                    help="keep the trailing partial sequence")
    pk.add_argument("--shards", help="also export Megatron-layout "
                    ".bin/.idx training shards to this directory")
    pk.add_argument("--seqs-per-shard", type=int, default=8192)
    pk.add_argument("--partitions", type=int, default=8)
    pk.add_argument("--cpus", type=int, default=None)
    pk.set_defaults(fn=cmd_pack)

    em = sub.add_parser("embed",
                        help="embed a text corpus into hashed-feature vectors")
    em.add_argument("--input", required=True)
    em.add_argument("--output", required=True)
    em.add_argument("--text-col", default="text")
    em.add_argument("--id-col", default="doc_id")
    em.add_argument("--seed", type=int, default=41)
    em.add_argument("--partitions", type=int, default=8)
    em.add_argument("--cpus", type=int, default=None)
    em.set_defaults(fn=cmd_embed)

    sl = sub.add_parser("select",
                        help="keep the top fraction of a corpus by score")
    sl.add_argument("--input", required=True, help="input parquet glob")
    sl.add_argument("--output", required=True, help="output directory")
    sl.add_argument("--score", default="zlib", choices=["zlib", "length"])
    sl.add_argument("--frac", type=float, required=True,
                    help="fraction of rows to keep (0..1)")
    sl.add_argument("--invert", action="store_true",
                    help="select the LOWEST scores instead")
    sl.add_argument("--id-col", default="doc_id")
    sl.add_argument("--text-col", default="text")
    sl.add_argument("--partitions", type=int, default=8)
    sl.add_argument("--cpus", type=int, default=None)
    sl.set_defaults(fn=cmd_select)

    dr = sub.add_parser("drift", help="diff two tables' profiles (exit 1 on drift)")
    dr.add_argument("--baseline", required=True)
    dr.add_argument("--current", required=True)
    dr.add_argument("--psi-columns",
                    help="comma-separated numeric columns to PSI-check")
    dr.add_argument("--psi-threshold", type=float, default=0.25)
    dr.add_argument("--ks-columns",
                    help="comma-separated numeric columns for an exact "
                         "two-sample KS test")
    dr.add_argument("--ks-alpha", type=float, default=0.001,
                    help="KS drift p-value threshold")
    dr.add_argument("--by", default=None,
                    help="with --ks-columns: ALSO run the exact two-sample "
                         "KS per group of this column (per-domain drift)")
    dr.add_argument("--cpus", type=int, default=None)
    dr.set_defaults(fn=cmd_drift)

    inc = sub.add_parser(
        "incremental",
        help="day-2 intake: corpus diff + incremental dedup (persisted "
             "bloom) + drift gate (exit 1 on drift)")
    inc.add_argument("--snapshot", required=True,
                     help="yesterday's corpus parquet")
    inc.add_argument("--input", required=True, help="today's intake parquet")
    inc.add_argument("--output", required=True,
                     help="directory for deduplicated survivors")
    inc.add_argument("--bloom", help="persisted bloom filter path "
                                     "(loaded if present, re-saved updated)")
    inc.add_argument("--bloom-bits", type=int, default=1 << 22)
    inc.add_argument("--id-col", default="doc_id")
    inc.add_argument("--text-col", default="text")
    inc.add_argument("--near", action="store_true",
                     help="also drop MinHash-LSH near-duplicates of "
                          "snapshot docs (band keys meet in one exchange; "
                          "the snapshot is never broadcast)")
    inc.add_argument("--partitions", type=int, default=4)
    inc.add_argument("--psi-columns")
    inc.add_argument("--psi-threshold", type=float, default=0.25)
    inc.add_argument("--ks-columns")
    inc.add_argument("--ks-alpha", type=float, default=0.001)
    inc.add_argument("--cpus", type=int, default=None)
    inc.set_defaults(fn=cmd_incremental)

    sc = sub.add_parser(
        "scan", help="entropy secret scan (exit 1 on hits with --fail-on-hit)")
    sc.add_argument("--input", required=True)
    sc.add_argument("--output", default=None,
                    help="write per-file stats parquet here")
    sc.add_argument("--id-col", default="doc_id")
    sc.add_argument("--text-col", default="text")
    sc.add_argument("--partitions", type=int, default=16)
    sc.add_argument("--cpus", type=int, default=None)
    sc.add_argument("--fail-on-hit", action="store_true")
    sc.set_defaults(fn=cmd_scan)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
