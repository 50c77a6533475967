"""Seeded input generator.

    python3 perfbench/inputs.py --seed N --kind corpus|lineitem

Prints the path of the seed's manifest.  Inputs live under ``.bench_cache/``
in the checkout, on two levels:

- A pool per kind, built once per checkout: the base rows and every answer
  the gates compare against.
  - corpus: rows ``[0, N)`` of ``corpus.corpus_batch``; the char LM trained
    on its first rows (the program is given this file, so every run scores
    with the same model); the in-process reference lineage of
    ``FusedQualityStage``; and the answers of the independent
    ``tests/oracle_quality`` for every row (``oracle_answers``).
  - lineitem: the first N rows of DuckDB's ``dbgen`` lineitem, decimals as
    DOUBLE, ``l_shipdate`` as text (``SHIPDATE_TEXT``), and DuckDB's
    answers to the table_validate suite.
- Per seed: the pool's rows permuted by the seed and written as parquet
  files.  Block boundaries and batch contents differ between seeds; the
  input size and every answer do not.

The pool is keyed by kind, size and a digest of the benchmark's own sources,
the oracle and the corpus generator, not by the code under test: a
reference built before a change to the program checks the program after it.
After a deliberate change to the filter's output, delete ``.bench_cache/``.
A finished entry is reused; its manifest is written last, by rename, so a
half-written entry is never read.  The program receives only the files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import workloads as W  # noqa: E402

CACHE = W.ROOT / ".bench_cache"
#: the default quality suite, in rule_bitmap bit order, as the oracle's
#: per-rule outcomes below assume it
ORACLE_RULES = [
    ("expect_column_values_to_not_be_null", "content"),
    ("expect_column_value_lengths_to_be_between", "content"),
    ("expect_column_values_to_be_between", "max_line_len"),
    ("expect_column_values_to_be_between", "alnum_ratio"),
    ("expect_column_values_to_be_between", "perplexity"),
]
ALL_BITS = (1 << 64) - 1
#: bits the oracle defines for a non-ASCII row: it counts characters where
#: the program counts bytes, so the length, max-line and alnum-ratio rules
#: (bits 1-3) differ by definition there, not by defect
NON_ASCII_MASK = ALL_BITS & ~0b1110


def _write_manifest(entry: Path, manifest: dict) -> Path:
    tmp = entry / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=1))
    os.replace(tmp, entry / "manifest.json")
    return entry / "manifest.json"


def _fresh(entry: Path) -> Path:
    if entry.exists():
        shutil.rmtree(entry)
    entry.mkdir(parents=True)
    return entry


# --------------------------------------------------------------------------- #
# oracle answers (worker processes)
# --------------------------------------------------------------------------- #


def _oracle_chunk(df, lm_path: str):
    """``run_oracle`` on a chunk of rows, plus the per-rule outcome it
    implies: each rule's bit is set when ``oracle_keep`` rejects a row that
    fails that rule alone."""
    import numpy as np

    from tests.oracle_quality import oracle_keep, oracle_perplexity, oracle_stats, run_oracle

    model = np.load(lm_path)
    passing, passing_ppl = {"n_chars": 1, "max_line_len": 0, "alnum_ratio": 1.0}, 0.0
    out = run_oracle(df, model)
    bitmaps, masks = [], []
    for content in df["content"]:
        if content is None:
            bitmaps.append(1)
            masks.append(1)
            continue
        st = oracle_stats(content)
        fails = [
            False,
            not oracle_keep(dict(passing, n_chars=st["n_chars"]), passing_ppl, content),
            not oracle_keep(dict(passing, max_line_len=st["max_line_len"]), passing_ppl, content),
            not oracle_keep(dict(passing, alnum_ratio=st["alnum_ratio"]), passing_ppl, content),
            not oracle_keep(passing, oracle_perplexity(model, content), content),
        ]
        bitmaps.append(sum(1 << b for b, f in enumerate(fails) if f))
        masks.append(ALL_BITS if content.isascii() else NON_ASCII_MASK)
    out["rule_bitmap"] = bitmaps
    out["bitmap_mask"] = masks
    return out


def oracle_answers(corpus, lm_path: str):
    """Per row of the corpus: ``path``, ``keep``, ``rule_bitmap``,
    ``bitmap_mask`` and ``scrubbed_sha256`` from ``tests/oracle_quality``.
    ``keep`` is null where the oracle's statistics differ from the
    program's by definition (non-ASCII rows); there only the bits under
    the mask and the digest are compared.  The pure-Python oracle is slow,
    so the rows are split over a few worker processes, once per pool."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    import pandas as pd
    import pyarrow as pa

    df = corpus.select(["repo", "path", "commit", "content"]).to_pandas()
    step = -(-len(df) // 16)
    chunks = [df.iloc[i:i + step] for i in range(0, len(df), step)]
    with ProcessPoolExecutor(max_workers=min(4, W.cpu_count()),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        parts = list(pool.map(_oracle_chunk, chunks, [lm_path] * len(chunks)))

    o = pd.concat(parts, ignore_index=True)
    ascii_rows = [c is None or c.isascii() for c in df["content"]]
    return pa.table({
        "path": pa.array(o["path"], pa.string()),
        "keep": pa.array([k if a else None for k, a in zip(o["keep_expected"], ascii_rows)],
                         pa.bool_()),
        "rule_bitmap": pa.array(o["rule_bitmap"].astype("uint64"), pa.uint64()),
        "bitmap_mask": pa.array(o["bitmap_mask"].astype("uint64"), pa.uint64()),
        "scrubbed_sha256": pa.array(o["scrubbed_sha256_expected"], pa.string()),
    })


# --------------------------------------------------------------------------- #
# pools
# --------------------------------------------------------------------------- #


def build_corpus_pool(entry: Path) -> dict:
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from great_expectations_ray.corpus import corpus_batch
    from great_expectations_ray.pipelines.quality_filter import (
        FusedQualityStage,
        QualityFilterConfig,
    )
    from great_expectations_ray.stages.perplexity import train_char_lm

    cfg = QualityFilterConfig()
    rules = cfg.suite.resolved_expectations()
    if [(r.expectation_type, r.kwargs.get("column")) for r in rules] != ORACLE_RULES:
        raise RuntimeError("the default quality suite no longer matches ORACLE_RULES")

    corpus = corpus_batch(0, W.CORPUS_ROWS)
    pq.write_table(corpus, entry / "rows.parquet")
    texts = [c for c in corpus.column("content").to_pylist()[:cfg.perplexity_sample_rows] if c]
    model = train_char_lm(texts)
    np.save(entry / "lm.npy", model)

    stage = FusedQualityStage(rules, cfg.scrub_rules, model_ref=model,
                              use_langid=cfg.use_langid, key_list=list(cfg.rollup_keys))
    reference = pa.concat_tables([
        stage(corpus.slice(off, W.BATCH_SIZE)).select(W.LINEAGE_CHECK_COLS)
        for off in range(0, corpus.num_rows, W.BATCH_SIZE)
    ])
    pq.write_table(reference, entry / "reference.parquet")
    pq.write_table(oracle_answers(corpus, str(entry / "lm.npy")), entry / "oracle.parquet")
    return {
        "kind": "corpus",
        "rows": corpus.num_rows,
        "pool": str(entry / "rows.parquet"),
        "lm": str(entry / "lm.npy"),
        "reference": str(entry / "reference.parquet"),
        "oracle": str(entry / "oracle.parquet"),
    }


#: ``l_shipdate`` as ISO text, as a landed CSV gives it, with a few values
#: that neither ``dateutil`` nor DuckDB's ``strptime`` parse
SHIPDATE_TEXT = (
    "CASE WHEN l_orderkey % 997 = 0 THEN 'unknown'"
    " WHEN l_orderkey % 991 = 0 THEN '1996-02-30'"
    " ELSE strftime(l_shipdate, '%Y-%m-%d') END AS l_shipdate")


def build_lineitem_pool(entry: Path) -> dict:
    import duckdb
    import pyarrow.parquet as pq

    con = duckdb.connect()
    try:
        con.execute(f"CALL dbgen(sf={W.LINEITEM_SF})")
        # decimals as DOUBLE: the validate suite compares float metrics
        cols = con.execute(
            "SELECT column_name, data_type FROM information_schema.columns"
            " WHERE table_name = 'lineitem' ORDER BY ordinal_position").fetchall()
        select = ", ".join(
            SHIPDATE_TEXT if c == "l_shipdate"
            else f"CAST({c} AS DOUBLE) AS {c}" if t.startswith("DECIMAL") else c
            for c, t in cols)
        base = con.execute(
            f"SELECT {select} FROM lineitem ORDER BY l_orderkey, l_linenumber"
            f" LIMIT {W.LINEITEM_ROWS}").arrow()
    finally:
        con.close()
    if base.num_rows != W.LINEITEM_ROWS:
        raise RuntimeError(f"dbgen gave {base.num_rows} rows, need {W.LINEITEM_ROWS}")
    pq.write_table(base, entry / "rows.parquet")
    return {
        "kind": "lineitem",
        "rows": base.num_rows,
        "pool": str(entry / "rows.parquet"),
        "truths": W.duckdb_truths(str(entry / "rows.parquet")),
    }


def sources_digest() -> str:
    """Digest of what defines the inputs and the answers independently of
    the code under test: the benchmark, the oracle, the corpus generator."""
    h = hashlib.sha256()
    files = sorted((W.ROOT / "perfbench").glob("*.py")) + [
        W.ROOT / "tests" / "oracle_quality.py",
        W.ROOT / "great_expectations_ray" / "corpus.py",
    ]
    for f in files:
        h.update(str(f.relative_to(W.ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:12]


def ensure_pool(kind: str) -> tuple[Path, dict]:
    size = W.CORPUS_ROWS if kind == "corpus" else W.LINEITEM_ROWS
    entry = CACHE / f"{kind}-n{size}-{sources_digest()}"
    manifest = entry / "manifest.json"
    if not manifest.exists():
        build = build_corpus_pool if kind == "corpus" else build_lineitem_pool
        _write_manifest(entry, build(_fresh(entry)))
    return entry, json.loads(manifest.read_text())


def ensure(kind: str, seed: int) -> Path:
    """The manifest of the seed's inputs: the pool's rows permuted by the
    seed, in ``*_FILES`` parquet files, plus the pool's answers."""
    import numpy as np
    import pyarrow.parquet as pq

    pool_dir, pool = ensure_pool(kind)
    entry = CACHE / f"{pool_dir.name}-s{seed}"
    manifest = entry / "manifest.json"
    if manifest.exists():
        return manifest
    files = _fresh(entry) / "files"
    files.mkdir()
    rows = pq.read_table(pool["pool"])
    rows = rows.take(np.random.default_rng(seed).permutation(rows.num_rows))
    n_files = W.CORPUS_FILES if kind == "corpus" else W.LINEITEM_FILES
    step = -(-rows.num_rows // n_files)
    for i, off in enumerate(range(0, rows.num_rows, step)):
        pq.write_table(rows.slice(off, step), files / f"part-{i:03d}.parquet")
    return _write_manifest(entry, dict(pool, seed=seed, files=str(files),
                                       input_bytes=W.dir_bytes(str(files))))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--kind", choices=("corpus", "lineitem"), required=True)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    print(ensure(args.kind, args.seed))


if __name__ == "__main__":
    main()
