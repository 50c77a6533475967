"""End-to-end corpus curation — the RefinedWeb/FineWeb-style recipe as ONE
composable Ray Data pipeline over the stages this repo already gates
individually:

    read parquet
      -> mojibake repair + normalization        (stages/normalize.py)
      -> C4 line/document cleaning              (stages/c4_filters.py)
      -> Gopher repetition gate                 (stages/repetition.py)
      -> exact dedup, keep-first                (stages/dedup.py)
      -> MinHash+LSH near-dup drop              (stages/neardup.py)
      -> quality score (zlib ratio) + keep the
         best `keep_frac` of survivors          (stages/{compressratio,topfrac}.py)
      -> partitioned parquet survivors + one JSON funnel report

Every stage is the already-tested operator; this module only WIRES them,
so the pipeline inherits each stage's scale shape (map-only passes,
bucketed exchanges, broadcast verdicts).  Intermediate verdicts ride
columns; document bytes are never collected to the driver.

The funnel report (rows in/out per stage) is the artifact a curation run
is judged by in practice — it lands as the SIBLING file
``<output_dir>.report.json`` (not inside the directory, so plain
parquet-directory readers never trip over it).
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class CurationConfig:
    text_col: str = "text"
    id_col: str = "doc_id"
    # C4 cleaning
    min_words_per_line: int = 1
    min_lines: int = 1
    bad_words: tuple[str, ...] = ()
    # Gopher repetition gate (max duplicate-5-gram char fraction)
    max_dup5_char_frac: float = 0.5
    # near-dup
    minhash_threshold: float | None = None
    # final quality selection
    keep_frac: float = 1.0
    partitions: int = 8


def curate_corpus(input_glob: str, output_dir: str,
                  config: CurationConfig = CurationConfig()) -> dict:
    """Run the full recipe; returns (and writes) the funnel report."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from great_expectations_ray.functions.joins import hash_bucket_join
    from great_expectations_ray.stages.c4_filters import C4Config, clean_batch
    from great_expectations_ray.stages.compressratio import score_compression
    from great_expectations_ray.stages.dedup import dedup_exact
    from great_expectations_ray.stages.neardup import (
        minhash_lsh_mark_duplicates)
    from great_expectations_ray.stages.normalize import (
        NormalizeConfig,
        fix_mojibake_array,
        normalize_array,
    )
    from great_expectations_ray.stages.repetition import word_repetition_stats
    from great_expectations_ray.stages.topfrac import select_top_fraction

    tcol, idc = config.text_col, config.id_col
    funnel: dict = {"input": input_glob}

    ds = rd.read_parquet(input_glob)
    funnel["rows_in"] = ds.count()

    # 1. repair + normalize (one fused map pass)
    ncfg = NormalizeConfig(lowercase=False)

    def clean_text(tbl: pa.Table) -> pa.Table:
        col = pc.cast(pc.fill_null(
            tbl.column(tcol).combine_chunks(), ""), pa.string())
        fixed = normalize_array(fix_mojibake_array(col), ncfg)
        return tbl.set_column(tbl.column_names.index(tcol), tcol, fixed)

    ds = ds.map_batches(clean_text, batch_format="pyarrow",
                        zero_copy_batch=True)

    # 2. C4 cleaning (keep flag; drop failing docs)
    c4 = C4Config(min_words_per_line=config.min_words_per_line,
                  require_terminal_punct=False,
                  min_lines=config.min_lines,
                  bad_words=config.bad_words,
                  boilerplate_regex=None, ban_regex=None)

    def c4_pass(tbl: pa.Table) -> pa.Table:
        sub = pa.table({idc: tbl.column(idc), "text": tbl.column(tcol)})
        out = clean_batch(sub, config=c4)
        keep = out.column("keep")
        kept = tbl.filter(keep)
        clean = out.column("clean_text").filter(keep)
        return kept.set_column(kept.column_names.index(tcol), tcol, clean)

    ds = ds.map_batches(c4_pass, batch_format="pyarrow", zero_copy_batch=True)
    ds = ds.materialize()
    funnel["after_c4"] = ds.count()

    # 3. Gopher repetition gate (map-only)
    def rep_gate(tbl: pa.Table) -> pa.Table:
        sig = word_repetition_stats(tbl.column(tcol))
        return tbl.filter(
            pa.array(sig["dup5_char_frac"] <= config.max_dup5_char_frac))

    ds = ds.map_batches(rep_gate, batch_format="pyarrow", zero_copy_batch=True)

    # 4. exact dedup keep-first on the cleaned text
    ds = dedup_exact(ds, key_columns=[tcol], order_by=idc).materialize()
    funnel["after_exact_dedup"] = ds.count()

    # 5. MinHash near-dup drop
    flagged = minhash_lsh_mark_duplicates(
        ds, text_col=tcol, id_col=idc,
        jaccard_threshold=config.minhash_threshold,
    ).map_batches(lambda t: t.filter(t.column("max(is_neardup)")).select([idc]),
                  batch_format="pyarrow").materialize()
    ds = hash_bucket_join(ds, flagged, on=idc, how="anti").materialize()
    funnel["after_neardup"] = ds.count()

    # 6. quality scoring + top-fraction selection
    if config.keep_frac < 1.0:
        scored = score_compression(ds, text_col=tcol)
        marked = select_top_fraction(scored, score_col="comp_ratio",
                                     id_col=idc, frac=config.keep_frac)
        ds = (marked.filter(expr="selected == True")
              .drop_columns(["selected", "raw_len", "comp_len",
                             "comp_ratio"]))

    ds.repartition(config.partitions).write_parquet(output_dir)
    funnel["rows_out"] = rd.read_parquet(output_dir).count()
    funnel["output"] = output_dir

    with open(output_dir.rstrip("/") + ".report.json", "w") as f:
        json.dump(funnel, f, indent=2)
    return funnel
