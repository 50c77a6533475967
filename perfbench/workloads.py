"""Workload definitions: sizes, suites, the timed public call and the
correctness gates of each workload.

Every gate is a pure function from the JSON record of one call (and the
files it names) to a list of error strings, so the gates run outside the
session that made the result, and ``selftest.py`` can feed them corrupted
records and show that they reject them.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

ROOT = Path(__file__).resolve().parent.parent

#: corpus rows: rows [0, N) of ``corpus.corpus_batch``, permuted by the seed
CORPUS_ROWS = 80_000
CORPUS_FILES = 8
BATCH_SIZE = 4096
#: TPC-H lineitem for table_validate: the first rows of DuckDB's
#: ``dbgen(sf=LINEITEM_SF)``, permuted by the seed
LINEITEM_SF = 0.02
LINEITEM_ROWS = 120_000
LINEITEM_FILES = 8
#: equal splits of the lineitem input in the traced multi-table leg
N_TABLES = 100

WORKLOADS = ("corpus_filter", "table_validate")
INPUT_KIND = {"corpus_filter": "corpus", "table_validate": "lineitem"}


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def actor_pool_size(ncpu: int) -> int:
    """Fixed flagship pool that leaves one CPU for the read tasks: a fixed
    pool holding every CPU starves the read stage (observed hangs at
    ``num_cpus`` 1 and 2 with the older ``max(2, 3n/4)`` sizing)."""
    return max(1, ncpu - 1)


# --------------------------------------------------------------------------- #
# suites and their DuckDB truths
# --------------------------------------------------------------------------- #

SHIPMODES = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"]


def table_suite():
    """5 rules for the fused pass (map, map, aggregate, table, and the
    per-value ``dateutil`` parse of the text dates) plus the three families
    that need an exchange or a second pass."""
    from great_expectations_ray import ExpectationSuite

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


#: one (field, SQL) per table_suite rule, over the view ``t``
TABLE_TRUTH_SQL = [
    ("unexpected_count",
     "SELECT count(*) FROM t WHERE l_quantity IS NOT NULL"
     " AND NOT (l_quantity BETWEEN 1 AND 45)"),
    ("unexpected_count",
     "SELECT count(*) FROM t WHERE l_returnflag IS NOT NULL"
     " AND l_returnflag NOT IN ('A', 'N')"),
    ("observed_value", "SELECT avg(l_discount) FROM t"),
    ("observed_value", "SELECT count(*) FROM t"),
    ("unexpected_count",
     "SELECT count(*) FROM t WHERE l_shipdate IS NOT NULL"
     " AND try_strptime(l_shipdate, '%Y-%m-%d') IS NULL"),
    ("unexpected_count",
     "SELECT coalesce(sum(c), 0) FROM (SELECT count(*) AS c FROM t"
     " GROUP BY l_orderkey, l_shipmode HAVING count(*) > 1)"),
    ("observed_value",
     "SELECT list(DISTINCT l_shipmode ORDER BY l_shipmode) FROM t"
     " WHERE l_shipmode IS NOT NULL"),
    ("unexpected_count",
     "WITH q AS (SELECT quantile_cont(l_extendedprice, 0.25) AS q1,"
     " quantile_cont(l_extendedprice, 0.5) AS q2,"
     " quantile_cont(l_extendedprice, 0.75) AS q3 FROM t)"
     " SELECT count(*) FROM t, q WHERE l_extendedprice IS NOT NULL"
     " AND NOT (abs(l_extendedprice - q2) < 1.5 * (q3 - q1))"),
]


def tables_suite():
    """The 3-rule suite of the traced multi-table leg, run over each of the
    ``N_TABLES`` splits."""
    from great_expectations_ray import ExpectationSuite

    return (
        ExpectationSuite("bench_many_tables")
        .add("expect_column_values_to_be_between", column="l_quantity",
             min_value=1, max_value=45)
        .add("expect_column_values_to_not_be_null", column="l_orderkey")
        .add("expect_column_values_to_match_regex", column="l_returnflag",
             regex="^[AN]$")
    )


def duckdb_truths(tv_glob: str) -> list[dict]:
    """Every answer the table_validate gate compares against, from DuckDB
    SQL over the parquet files."""
    import duckdb

    con = duckdb.connect()
    try:
        con.execute(f"CREATE VIEW t AS SELECT * FROM read_parquet('{tv_glob}')")
        return [{"field": f, "value": con.execute(sql).fetchone()[0]}
                for f, sql in TABLE_TRUTH_SQL]
    finally:
        con.close()


# --------------------------------------------------------------------------- #
# gates
# --------------------------------------------------------------------------- #

LINEAGE_CHECK_COLS = ["path", "keep", "rule_bitmap", "scrubbed_sha256"]


def read_dir(path: str, columns: list[str]) -> pa.Table:
    files = sorted(Path(path).glob("*.parquet")) if os.path.isdir(path) else []
    if not files:
        return pa.table({c: pa.array([], pa.string()) for c in columns})
    return pa.concat_tables(
        [pq.read_table(f, columns=columns) for f in files], promote_options="default")


def check_lineage(lineage: pa.Table, reference: pa.Table) -> list[str]:
    """Per row, (path -> keep, rule_bitmap, scrubbed_sha256) equals the
    in-process reference."""
    got = lineage.select(LINEAGE_CHECK_COLS).sort_by("path")
    want = reference.select(LINEAGE_CHECK_COLS).sort_by("path")
    if got.num_rows != want.num_rows:
        return [f"lineage has {got.num_rows} rows, reference {want.num_rows}"]
    errors = []
    for c in LINEAGE_CHECK_COLS:
        a, b = got.column(c), want.column(c)
        if a.type != b.type:
            a = a.cast(b.type)
        bad = pc.sum(pc.invert(pc.fill_null(pc.equal(a, b), False))).as_py() or 0
        if bad:
            errors.append(f"lineage column {c}: {bad} rows differ from the reference")
    return errors


def check_oracle(lineage: pa.Table, oracle: pa.Table) -> list[str]:
    """Every row agrees with ``tests/oracle_quality`` wherever the oracle
    defines the outcome: ``scrubbed_sha256`` always, ``rule_bitmap`` under
    the row's ``bitmap_mask``, and ``keep`` where the oracle's is not null
    (see ``inputs.oracle_answers``)."""
    want = oracle.rename_columns(
        ["path"] + [f"want_{c}" for c in oracle.column_names[1:]])
    j = want.join(lineage.select(LINEAGE_CHECK_COLS), "path", join_type="left outer")
    mask = j.column("want_bitmap_mask")
    same = {
        "keep": pc.or_kleene(pc.is_null(j.column("want_keep")),
                             pc.equal(j.column("keep"), j.column("want_keep"))),
        "rule_bitmap": pc.equal(pc.bit_wise_and(j.column("rule_bitmap").cast(pa.uint64()), mask),
                                pc.bit_wise_and(j.column("want_rule_bitmap"), mask)),
        "scrubbed_sha256": pc.equal(j.column("scrubbed_sha256"),
                                    j.column("want_scrubbed_sha256")),
    }
    errors = []
    for c, ok in same.items():
        bad = j.filter(pc.invert(pc.fill_null(ok, False)))
        if bad.num_rows:
            errors.append(f"oracle: {c} differs on {bad.num_rows} rows, e.g. "
                          f"{bad.column('path').to_pylist()[:3]}")
    return errors


def check_rollup(row_counts: list[int], n_rows: int) -> list[str]:
    total = sum(row_counts)
    return [] if total == n_rows else [f"rollup counts {total} rows, input has {n_rows}"]


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return a is not None and b is not None and math.isclose(
            float(a), float(b), rel_tol=1e-9, abs_tol=1e-12)
    return a == b


def check_table(result: dict, truths: list[dict]) -> list[str]:
    """Each rule's unexpected count or observed value in the JSON form of
    the ``SuiteValidationResult`` equals DuckDB."""
    evrs = result["results"]
    if len(evrs) != len(truths):
        return [f"{len(evrs)} rule results, expected {len(truths)}"]
    errors = []
    for i, (evr, truth) in enumerate(zip(evrs, truths)):
        info = evr.get("exception_info") or {}
        if info.get("raised_exception"):
            errors.append(f"rule {i} raised: {info.get('exception_message')}")
            continue
        got = evr["result"].get(truth["field"])
        want = truth["value"]
        if isinstance(want, list):
            got = sorted(got) if got is not None else None
        if not _close(got, want):
            errors.append(f"rule {i} {truth['field']}: got {got!r}, DuckDB {want!r}")
    return errors


class Gates:
    """The correctness gates of one workload.  They read only a call's
    record (``Workload.record``) and the files it names, so they run in the
    parent process, after the session that made the result, and neither
    their time nor their memory is counted in any metric."""

    def __init__(self, name: str, manifest: dict):
        self.name = name
        self.manifest = manifest
        if INPUT_KIND[name] == "corpus":
            self.reference = pq.read_table(manifest["reference"])
            self.oracle = pq.read_table(manifest["oracle"])

    def check(self, record: dict) -> list[str]:
        if self.name == "table_validate":
            return check_table(record["result"], self.manifest["truths"])
        lineage = read_dir(record["lineage_dir"], LINEAGE_CHECK_COLS)
        return (check_rollup(record["rollup_row_counts"], self.manifest["rows"])
                + check_lineage(lineage, self.reference)
                + check_oracle(lineage, self.oracle))


def discard(record: dict) -> None:
    """Remove the files a call wrote."""
    import shutil

    shutil.rmtree(record["out_dir"], ignore_errors=True)


# --------------------------------------------------------------------------- #
# the timed public calls
# --------------------------------------------------------------------------- #


def dir_bytes(path: str) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def equal_tables(manifest: dict) -> dict:
    """The lineitem input as ``N_TABLES`` equal, materialized splits."""
    import ray.data as rd

    splits = rd.read_parquet(manifest["files"]).split(N_TABLES, equal=True)
    return {f"t{i:03d}": ds for i, ds in enumerate(splits)}


class Workload:
    """One workload bound to its generated inputs inside a Ray session:
    ``call()`` is the timed public call, ``record()`` what the gates need of
    its result."""

    def __init__(self, name: str, manifest: dict, out_root: str):
        import ray.data as rd

        self.name = name
        self.manifest = manifest
        self.out_root = out_root
        self.ncpu = cpu_count()
        self.actors = actor_pool_size(self.ncpu)
        self.calls = 0
        self.input_bytes = manifest["input_bytes"]
        self.rows = manifest["rows"]
        self.ds = rd.read_parquet(manifest["files"])
        if name == "corpus_filter":
            from great_expectations_ray.pipelines.quality_filter import QualityFilterConfig

            self.config = QualityFilterConfig(
                actor_concurrency=self.actors,
                autoscale_actors=False,
                batch_size=BATCH_SIZE,
                perplexity_model_path=manifest["lm"],
            )
        else:
            self.suite = table_suite()

    def out_dir(self) -> str:
        return os.path.join(self.out_root, f"{self.name}-{self.calls}")

    def call(self):
        """The public call whose wall time is ``wall_s``."""
        self.calls += 1
        if self.name == "corpus_filter":
            from great_expectations_ray.pipelines.quality_filter import run_quality_filter

            return run_quality_filter(self.ds, self.config, output_dir=self.out_dir())
        from great_expectations_ray.engine import validate

        return validate(self.ds, self.suite)

    def record(self, result) -> dict:
        """The JSON record of one call: what the gates read, and
        ``output_bytes``: the bytes under ``output_dir`` for corpus_filter;
        for table_validate, which writes nothing, the bytes of the
        JSON-serialised result (a size the benchmark makes, standing in for
        what the call hands back)."""
        out = self.out_dir()
        if self.name == "corpus_filter":
            return {"out_dir": out, "output_bytes": dir_bytes(out),
                    "rollup_row_counts": [int(r["row_count"]) for r in result["rollup"]],
                    "data_dir": result["data_dir"], "lineage_dir": result["lineage_dir"]}
        text = json.dumps(result.to_json_dict(), default=str)
        return {"out_dir": out, "output_bytes": len(text), "result": json.loads(text)}
