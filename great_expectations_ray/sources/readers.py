"""Sources — batch-spec-style readers over Ray Data.

The reference guesses a pandas reader from the file extension
(``pandas_execution_engine.py:399-434``) and wraps object-store URIs
(S3/GCS/Azure) behind the same API.  Ray Data's readers already accept
``s3://``/``gs://`` URIs through Arrow filesystems, so the mapping is thin:
extension -> ``ray.data.read_*``, with column pruning and row filters pushed
into the parquet scan (prune at the read — never load columns a 2-column
transform won't touch)."""

from __future__ import annotations

import os
from typing import Any, Optional

_EXT_READERS = {
    ".parquet": "read_parquet",
    ".pq": "read_parquet",
    ".csv": "read_csv",
    ".tsv": "read_csv",
    ".json": "read_json",
    ".jsonl": "read_json",
    ".txt": "read_text",
    ".avro": "read_avro",
    # formats Ray has no native reader for — decoded per file from
    # read_binary_files (see read_orc/read_feather/read_excel below)
    ".orc": "read_orc",
    ".feather": "read_feather",
    ".arrow": "read_feather",
    ".xlsx": "read_excel",
    ".xls": "read_excel",
    ".pkl": "read_pickle",
    ".pickle": "read_pickle",
    ".sas7bdat": "read_sas",
    ".xpt": "read_sas",
    ".xml": "read_xml",
}

#: readers implemented in this module rather than on ray.data
_LOCAL_READERS = {"read_orc", "read_feather", "read_excel", "read_fwf",
                  "read_pickle", "read_sas", "read_xml"}


def read_batch(
    path_or_paths: str | list[str],
    *,
    columns: Optional[list[str]] = None,
    filter_expr: Any = None,
    reader: Optional[str] = None,
    **reader_options: Any,
):
    """Materialize a "Batch" (SURVEY §1) as a lazy ``ray.data.Dataset``.

    ``reader`` overrides extension guessing (the reference's
    ``reader_method``); ``columns``/``filter_expr`` push projection and
    row-group pruning into parquet scans."""
    import ray.data as rd

    first = path_or_paths[0] if isinstance(path_or_paths, list) else path_or_paths
    if reader is None:
        ext = os.path.splitext(first)[1].lower()
        if ext not in _EXT_READERS and os.path.isdir(first):
            ext = ".parquet"  # directory of parquet parts — the common layout
        if ext not in _EXT_READERS:
            raise ValueError(
                f"cannot guess reader for {first!r}; pass reader='read_parquet'|... "
                f"(known: {sorted(_EXT_READERS)})"
            )
        reader = _EXT_READERS[ext]

    if reader in _LOCAL_READERS:
        ds = globals()[reader](path_or_paths, **reader_options)
        if columns is not None:
            ds = ds.select_columns(columns)
        return ds
    fn = getattr(rd, reader)
    kwargs = dict(reader_options)
    if reader == "read_parquet":
        if columns is not None:
            kwargs["columns"] = columns
        if filter_expr is not None:
            kwargs["filter"] = filter_expr
        return fn(path_or_paths, **kwargs)
    ds = fn(path_or_paths, **kwargs)
    if columns is not None:
        ds = ds.select_columns(columns)
    return ds


def _file_decode_reader(paths, decode_one):
    """Shared shape for formats Ray lacks a native reader for: stream file
    bytes via ``read_binary_files`` (one row per file) and decode each file
    to an Arrow table inside ``map_batches`` — distributed, no driver-side
    reads.  Suited to many-file layouts (one file per row drives parallelism);
    a single multi-gigabyte file should be converted to parquet instead."""
    import pyarrow as pa
    import ray.data as rd

    raw = rd.read_binary_files(paths)

    def decode(batch: pa.Table) -> pa.Table:
        tables = [decode_one(v.as_py()) for v in batch.column("bytes")]
        return pa.concat_tables(tables, promote_options="default")

    return raw.map_batches(decode, batch_format="pyarrow", batch_size=1)


def read_orc(paths, **kwargs):
    """ORC reader (reference: pandas fluent ``ORCAsset``,
    ``datasource/fluent/data_asset/path/pandas/generated_assets.py``)."""

    def decode_one(data: bytes):
        import io

        import pyarrow.orc as orc

        return orc.ORCFile(io.BytesIO(data)).read(**kwargs)

    return _file_decode_reader(paths, decode_one)


def read_feather(paths, **kwargs):
    """Feather/Arrow-IPC reader (reference: ``FeatherAsset``)."""

    def decode_one(data: bytes):
        import io

        import pyarrow.feather as feather

        return feather.read_table(io.BytesIO(data), **kwargs)

    return _file_decode_reader(paths, decode_one)


def read_excel(paths, **kwargs):
    """Excel reader (reference: ``ExcelAsset``).  Requires an engine
    (openpyxl / xlrd) on the workers; gated behind import-try."""
    try:
        import openpyxl  # noqa: F401
    except ImportError as exc:  # pragma: no cover - env-dependent
        raise ImportError(
            "read_excel requires openpyxl (not installed in this environment); "
            "convert to parquet/csv or install an excel engine"
        ) from exc

    def decode_one(data: bytes):
        import io

        import pandas as pd
        import pyarrow as pa

        return pa.Table.from_pandas(pd.read_excel(io.BytesIO(data), **kwargs))

    return _file_decode_reader(paths, decode_one)


def _pandas_file_reader(pandas_fn_name: str, needs=None):
    """Build a reader for pandas-decodable formats (reference: fwf/sas/xml
    assets in ``generated_assets.py``).  Per-file decode inside
    ``map_batches``; optional dependency gated behind import-try."""

    def reader(paths, **kwargs):
        if needs:
            try:
                __import__(needs)
            except ImportError as exc:  # pragma: no cover - env-dependent
                raise ImportError(
                    f"{pandas_fn_name} requires {needs} (not installed); "
                    "convert to parquet/csv instead"
                ) from exc

        def decode_one(data: bytes):
            import io

            import pandas as pd
            import pyarrow as pa

            fn = getattr(pd, pandas_fn_name)
            df = fn(io.BytesIO(data), **kwargs)
            return pa.Table.from_pandas(df, preserve_index=False)

        return _file_decode_reader(paths, decode_one)

    return reader


read_fwf = _pandas_file_reader("read_fwf")
read_pickle = _pandas_file_reader("read_pickle")
read_sas = _pandas_file_reader("read_sas")
read_xml = _pandas_file_reader("read_xml", needs="lxml")


def _quote_ident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def partitioner_to_sql(partitioner: dict) -> str:
    """Compile a partitioner spec to a SQL predicate — the pushdown analogs
    of the reference's SQL partitioners (``sqlalchemy_execution_engine.py``
    splitter methods: split_on_year_and_month / divided_integer /
    mod_integer / column_value / whole_table).

    Specs (dicts, mirroring ``functions/partitioners.py``):
      {"type": "date_parts", "column": c, "parts": {"year": 2024, ...}}
      {"type": "divided",    "column": c, "divisor": D, "value": V}
      {"type": "mod",        "column": c, "mod": M, "value": V}
      {"type": "column_value", "column": c, "value": V}
      {"type": "range",      "column": c, "min": lo, "max": hi}  # [lo, hi)
    """
    t = partitioner["type"]
    col = _quote_ident(partitioner["column"]) if "column" in partitioner else None
    if t == "date_parts":
        clauses = [
            f"EXTRACT({part} FROM {col}) = {int(val)}"
            for part, val in partitioner["parts"].items()
        ]
        return " AND ".join(clauses)
    if t == "divided":
        return (
            f"CAST(FLOOR({col} / {int(partitioner['divisor'])}) AS BIGINT) "
            f"= {int(partitioner['value'])}"
        )
    if t == "mod":
        return f"({col} % {int(partitioner['mod'])}) = {int(partitioner['value'])}"
    if t == "column_value":
        v = partitioner["value"]
        if isinstance(v, str):
            return f"{col} = '" + v.replace("'", "''") + "'"
        return f"{col} = {v!r}"
    if t == "range":
        return (
            f"{col} >= {partitioner['min']!r} AND {col} < {partitioner['max']!r}"
        )
    if t == "hashed":
        # parity with functions/partitioners.partition_on_hashed_column:
        # md5(str(value)), last 8 hex chars as int, mod n_buckets.  str()/
        # VARCHAR agree for integer and string columns (floats format
        # differently — partition those in Ray after the read).
        return (
            f"(CAST(('0x' || substr(md5(CAST({col} AS VARCHAR)), 25, 8)) "
            f"AS BIGINT) % {int(partitioner['n_buckets'])}) "
            f"= {int(partitioner['value'])}"
        )
    raise NotImplementedError(
        f"partitioner type {t!r} is not SQL-pushable; "
        "partition in Ray after the read"
    )


def sampler_to_sql(sampler: dict) -> tuple[str | None, int | None]:
    """Sampler spec -> (predicate, limit) — pushdown analogs of the
    reference's SQL data samplers (sample_using_mod / sample_using_limit /
    sample_using_a_list)."""
    t = sampler["type"]
    if t == "limit":
        return None, int(sampler["n"])
    if t == "mod":
        col = _quote_ident(sampler["column"])
        return f"({col} % {int(sampler['mod'])}) = {int(sampler['value'])}", None
    if t == "list":
        col = _quote_ident(sampler["column"])
        vals = ", ".join(
            "'" + v.replace("'", "''") + "'" if isinstance(v, str) else repr(v)
            for v in sampler["values"]
        )
        return f"{col} IN ({vals})", None
    if t == "hash":
        # parity with stages/dedup.sample_using_hash: md5(str(value)) hex
        # suffix equality (reference ``sample_using_hash``).  Same str()/
        # VARCHAR caveat as the hashed partitioner: ints/strings only.
        col = _quote_ident(sampler["column"])
        digits = int(sampler.get("digits", 1))
        matches = str(sampler.get("matches", "0")).replace("'", "''")
        return (
            f"substr(md5(CAST({col} AS VARCHAR)), {33 - digits}, {digits}) "
            f"= '{matches}'"
        ), None
    raise NotImplementedError(
        f"sampler type {t!r} is not SQL-pushable (random samplers depend on "
        "backend RNG; sample in Ray after the read)"
    )


def compile_sql_pushdown(
    sql: str,
    *,
    row_condition: str | None = None,
    partitioner: dict | None = None,
    sampler: dict | None = None,
) -> str:
    """Wrap a source query with compiled WHERE/LIMIT pushdown clauses."""
    preds = []
    if row_condition:
        from great_expectations_ray.core.row_conditions import row_condition_to_sql

        preds.append(f"({row_condition_to_sql(row_condition)})")
    if partitioner:
        preds.append(f"({partitioner_to_sql(partitioner)})")
    limit = None
    if sampler:
        pred, limit = sampler_to_sql(sampler)
        if pred:
            preds.append(f"({pred})")
    if not preds and limit is None:
        return sql
    out = f"SELECT * FROM ({sql.strip().rstrip(';')}) AS gxr_src"
    if preds:
        out += " WHERE " + " AND ".join(preds)
    if limit is not None:
        out += f" LIMIT {limit}"
    return out


def read_sql_source(
    sql: str,
    connection_factory,
    *,
    row_condition: str | None = None,
    partitioner: dict | None = None,
    sampler: dict | None = None,
    **kwargs,
):
    """SQL datasource (reference: ``sqlalchemy_execution_engine.py:1``,
    fluent SQL assets): wrapper over ``ray.data.read_sql`` — any DBAPI
    connection factory.  The factory ships to workers via cloudpickle, so it
    must import its driver INSIDE the closure (e.g.
    ``lambda: __import__("duckdb").connect()``) — C-extension module
    attributes like ``duckdb.connect`` themselves don't pickle.

    ``row_condition`` (the GX DSL), ``partitioner`` and ``sampler`` specs
    compile INTO the SQL (``compile_sql_pushdown``) so the database prunes
    rows before they ever reach Ray — the reference's SqlAlchemy splitter/
    sampler pushdown, re-expressed as plain SQL.  Partition the query
    externally (one ``partitioner`` value per call) for large tables."""
    import ray.data as rd

    sql = compile_sql_pushdown(
        sql, row_condition=row_condition, partitioner=partitioner,
        sampler=sampler,
    )
    return rd.read_sql(sql, connection_factory, **kwargs)


def from_memory(data: Any):
    """RuntimeDataBatchSpec analog: wrap an in-memory table/frame."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    if isinstance(data, pa.Table):
        return rd.from_arrow(data)
    if isinstance(data, pd.DataFrame):
        return rd.from_pandas(data)
    raise TypeError(f"unsupported in-memory batch type {type(data)}")


# --------------------------------------------------------------------------- #
# file-name regex partitioners (reference core/partitioners.py:83-110 —
# FileNamePartitionerYearly/Monthly/Daily/Path group files into batches by
# named regex groups over the file NAME)
# --------------------------------------------------------------------------- #

_FILE_PARTITION_PATTERNS = {
    "yearly": r"(?P<year>\d{4})",
    "monthly": r"(?P<year>\d{4})-(?P<month>\d{2})",
    "daily": r"(?P<year>\d{4})-(?P<month>\d{2})-(?P<day>\d{2})",
}


def partition_files_by_regex(
    paths: list[str], regex: str, *, sort_ascending: bool = True
) -> dict[tuple, list[str]]:
    """Group file paths into batches keyed by the regex's groups over the
    file NAME (not the directory).  Named shorthands ``yearly`` / ``monthly``
    / ``daily`` expand to the reference's date patterns.  Non-matching files
    are skipped (reference behavior: only matching files become batches)."""
    import re as _re

    pattern = _FILE_PARTITION_PATTERNS.get(regex, regex)
    rx = _re.compile(pattern)
    groups: dict[tuple, list[str]] = {}
    for p in paths:
        m = rx.search(os.path.basename(p))
        if m is None:
            continue
        key = tuple(m.groups()) if m.groups() else (m.group(0),)
        groups.setdefault(key, []).append(p)
    for v in groups.values():
        v.sort()
    return dict(sorted(groups.items(), reverse=not sort_ascending))


def read_partitioned_files(
    paths: list[str], regex: str, reader=None, **reader_kwargs
):
    """(key, Dataset) pairs — one lazy Dataset per file-name partition
    (the reference's BatchDefinition over FileNamePartitioner, recast: each
    partition reads only its own files; downstream validates per batch)."""
    import ray.data as rd

    reader = reader or rd.read_parquet
    for key, group in partition_files_by_regex(paths, regex).items():
        yield key, reader(group, **reader_kwargs)
