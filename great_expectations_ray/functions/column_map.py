"""Vectorized column-map condition kernels.

Each kernel mirrors one reference map-metric ``.condition``
(``expectations/metrics/column_map_metrics/*``) but is expressed as an Arrow
compute expression over a whole batch — never a Python loop per row (the
reference itself is column-vectorized on every backend, see
``column_values_match_regex.py:24-25``).  The one exception is a predicate
with no Arrow form (dateutil, JSON decoding, jsonschema, and the contrib
``re``/dateutil/rule kernels): ``_per_distinct`` runs it in Python once per
distinct value of the batch, never once per row.

Kernel contract::

    kernel(tbl: pa.Table, kwargs: dict) -> KernelResult(
        meets,       # np.bool_[n] — row meets the expectation (computed on considered rows)
        considered,  # np.bool_[n] — row is in the domain (nonnull / ignore_row_if survivors)
        values,      # pa.Array[n] — domain values used for unexpected samples
        null_count,  # int — rows excluded as missing (GX missing_count)
    )

``unexpected = considered & ~meets`` — the negation convention of
``column_condition_partial.py:104-121`` (pandas wrapper drops nulls when
``filter_column_isnull=True`` then returns ``~meets_expectation_series``).
"""

from __future__ import annotations

import datetime
import json as _json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

CONDITION_KERNELS: dict[str, Callable] = {}


@dataclass
class KernelResult:
    meets: np.ndarray
    considered: np.ndarray
    values: pa.Array
    null_count: int


def register_condition(name: str):
    def deco(fn):
        CONDITION_KERNELS[name] = fn
        return fn

    return deco


def _col(tbl: pa.Table, name: str) -> pa.ChunkedArray:
    if name not in tbl.column_names:
        raise KeyError(f"column {name!r} not in batch (have {tbl.column_names})")
    return tbl.column(name)


def _bool_np(arr) -> np.ndarray:
    """Arrow boolean (possibly chunked, possibly with nulls) -> dense np.bool_."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    return np.asarray(pc.fill_null(arr, False), dtype=bool)


def _nonnull_domain(tbl: pa.Table, kwargs: dict) -> tuple[pa.ChunkedArray, np.ndarray, int]:
    """Standard ColumnMap domain: drop nulls (``filter_column_isnull=True``,
    ``map_metric_provider.py:103``)."""
    col = _col(tbl, kwargs["column"])
    valid = _bool_np(pc.is_valid(col))
    return col, valid, int(len(col) - valid.sum())


def _coerce_bound(value: Any, col_type: pa.DataType) -> Any:
    """Datetime-string bounds compare against timestamp columns
    (reference parses bound strings with dateutil, ``expectation.py:1609-1636``)."""
    if value is None:
        return None
    if isinstance(value, str) and pa.types.is_timestamp(col_type):
        from dateutil import parser as _p

        parsed = _p.parse(value)
        if col_type.tz is not None and parsed.tzinfo is None:
            # naive bound against a tz column: treat as UTC (the epoch the
            # naive string denotes) so pa.scalar comparison is well-typed
            parsed = parsed.replace(tzinfo=datetime.timezone.utc)
        return parsed
    if isinstance(value, str) and pa.types.is_date(col_type):
        from dateutil import parser as _p

        parsed = _p.parse(value)
        if parsed.timetz() == datetime.time():
            return parsed.date()
        # an intra-day bound compares against the column as naive-UTC
        # timestamps (see _between), not a truncated day
        if parsed.tzinfo is not None:
            parsed = parsed.astimezone(datetime.timezone.utc).replace(tzinfo=None)
        return parsed
    return value


# --------------------------------------------------------------------------- #
# null / set membership
# --------------------------------------------------------------------------- #


@register_condition("expect_column_values_to_be_null")
def _be_null(tbl: pa.Table, kwargs: dict) -> KernelResult:
    # filter_column_isnull=False for this metric: whole column is the domain.
    col = _col(tbl, kwargs["column"])
    meets = _bool_np(pc.is_null(col))
    return KernelResult(meets, np.ones(len(col), dtype=bool), col.combine_chunks(), 0)


@register_condition("expect_column_values_to_not_be_null")
def _not_be_null(tbl: pa.Table, kwargs: dict) -> KernelResult:
    col = _col(tbl, kwargs["column"])
    meets = _bool_np(pc.is_valid(col))
    return KernelResult(meets, np.ones(len(col), dtype=bool), col.combine_chunks(), 0)


@register_condition("expect_column_values_to_be_in_set")
def _in_set(tbl: pa.Table, kwargs: dict) -> KernelResult:
    col, valid, nulls = _nonnull_domain(tbl, kwargs)
    vs = kwargs["value_set"]
    meets = _bool_np(pc.is_in(col, value_set=pa.array(list(vs), type=col.type)))
    return KernelResult(meets, valid, col.combine_chunks(), nulls)


@register_condition("expect_column_values_to_not_be_in_set")
def _not_in_set(tbl: pa.Table, kwargs: dict) -> KernelResult:
    col, valid, nulls = _nonnull_domain(tbl, kwargs)
    vs = kwargs["value_set"]
    meets = ~_bool_np(pc.is_in(col, value_set=pa.array(list(vs), type=col.type)))
    return KernelResult(meets, valid, col.combine_chunks(), nulls)


@register_condition("expect_column_values_to_be_between")
def _between(tbl: pa.Table, kwargs: dict) -> KernelResult:
    col, valid, nulls = _nonnull_domain(tbl, kwargs)
    lo = _coerce_bound(kwargs.get("min_value"), col.type)
    hi = _coerce_bound(kwargs.get("max_value"), col.type)
    cmp = col
    if pa.types.is_date(col.type) and any(
            isinstance(b, datetime.datetime) for b in (lo, hi)):
        cmp = pc.cast(col, pa.timestamp("us"))
    meets = np.ones(len(col), dtype=bool)
    if lo is not None:
        op = pc.greater if kwargs.get("strict_min", False) else pc.greater_equal
        meets &= _bool_np(op(cmp, pa.scalar(lo)))
    if hi is not None:
        op = pc.less if kwargs.get("strict_max", False) else pc.less_equal
        meets &= _bool_np(op(cmp, pa.scalar(hi)))
    return KernelResult(meets, valid, col.combine_chunks(), nulls)


# --------------------------------------------------------------------------- #
# regex / LIKE
# --------------------------------------------------------------------------- #


def _as_string(col: pa.ChunkedArray) -> pa.ChunkedArray:
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        return col
    # reference coerces with .astype(str) before str ops
    return pc.cast(col, pa.string())


@register_condition("expect_column_values_to_match_regex")
def _match_regex(tbl: pa.Table, kwargs: dict) -> KernelResult:
    col, valid, nulls = _nonnull_domain(tbl, kwargs)
    s = _as_string(col)
    # re.search semantics, NOT fullmatch (column_values_match_regex.py:24-25)
    meets = _bool_np(pc.match_substring_regex(s, kwargs["regex"]))
    return KernelResult(meets, valid, s.combine_chunks(), nulls)


@register_condition("expect_column_values_to_not_match_regex")
def _not_match_regex(tbl: pa.Table, kwargs: dict) -> KernelResult:
    col, valid, nulls = _nonnull_domain(tbl, kwargs)
    s = _as_string(col)
    meets = ~_bool_np(pc.match_substring_regex(s, kwargs["regex"]))
    meets &= valid  # nulls stay non-meeting but are not considered anyway
    return KernelResult(meets, valid, s.combine_chunks(), nulls)


@register_condition("expect_column_values_to_match_regex_list")
def _match_regex_list(tbl: pa.Table, kwargs: dict) -> KernelResult:
    col, valid, nulls = _nonnull_domain(tbl, kwargs)
    s = _as_string(col)
    match_on = kwargs.get("match_on", "any")
    acc = None
    for rx in kwargs["regex_list"]:
        m = _bool_np(pc.match_substring_regex(s, rx))
        acc = m if acc is None else ((acc | m) if match_on == "any" else (acc & m))
    if acc is None:
        acc = np.ones(len(s), dtype=bool)
    return KernelResult(acc, valid, s.combine_chunks(), nulls)


@register_condition("expect_column_values_to_not_match_regex_list")
def _not_match_regex_list(tbl: pa.Table, kwargs: dict) -> KernelResult:
    col, valid, nulls = _nonnull_domain(tbl, kwargs)
    s = _as_string(col)
    acc = np.zeros(len(s), dtype=bool)
    for rx in kwargs["regex_list"]:
        acc |= _bool_np(pc.match_substring_regex(s, rx))
    return KernelResult(~acc & valid, valid, s.combine_chunks(), nulls)


@register_condition("expect_column_values_to_match_like_pattern")
def _match_like(tbl: pa.Table, kwargs: dict) -> KernelResult:
    col, valid, nulls = _nonnull_domain(tbl, kwargs)
    s = _as_string(col)
    meets = _bool_np(pc.match_like(s, kwargs["like_pattern"]))
    return KernelResult(meets, valid, s.combine_chunks(), nulls)


@register_condition("expect_column_values_to_not_match_like_pattern")
def _not_match_like(tbl: pa.Table, kwargs: dict) -> KernelResult:
    col, valid, nulls = _nonnull_domain(tbl, kwargs)
    s = _as_string(col)
    meets = ~_bool_np(pc.match_like(s, kwargs["like_pattern"])) & valid
    return KernelResult(meets, valid, s.combine_chunks(), nulls)


@register_condition("expect_column_values_to_match_like_pattern_list")
def _match_like_list(tbl: pa.Table, kwargs: dict) -> KernelResult:
    col, valid, nulls = _nonnull_domain(tbl, kwargs)
    s = _as_string(col)
    match_on = kwargs.get("match_on", "any")
    acc = None
    for pat in kwargs["like_pattern_list"]:
        m = _bool_np(pc.match_like(s, pat))
        acc = m if acc is None else ((acc | m) if match_on == "any" else (acc & m))
    if acc is None:
        acc = np.ones(len(s), dtype=bool)
    return KernelResult(acc, valid, s.combine_chunks(), nulls)


@register_condition("expect_column_values_to_not_match_like_pattern_list")
def _not_match_like_list(tbl: pa.Table, kwargs: dict) -> KernelResult:
    col, valid, nulls = _nonnull_domain(tbl, kwargs)
    s = _as_string(col)
    acc = np.zeros(len(s), dtype=bool)
    for pat in kwargs["like_pattern_list"]:
        acc |= _bool_np(pc.match_like(s, pat))
    return KernelResult(~acc & valid, valid, s.combine_chunks(), nulls)


# --------------------------------------------------------------------------- #
# value lengths / formats
# --------------------------------------------------------------------------- #


@register_condition("expect_column_value_lengths_to_be_between")
def _len_between(tbl: pa.Table, kwargs: dict) -> KernelResult:
    col, valid, nulls = _nonnull_domain(tbl, kwargs)
    s = _as_string(col)
    lengths = pc.utf8_length(s)
    meets = np.ones(len(s), dtype=bool)
    lo, hi = kwargs.get("min_value"), kwargs.get("max_value")
    if lo is not None:
        op = pc.greater if kwargs.get("strict_min", False) else pc.greater_equal
        meets &= _bool_np(op(lengths, pa.scalar(lo)))
    if hi is not None:
        op = pc.less if kwargs.get("strict_max", False) else pc.less_equal
        meets &= _bool_np(op(lengths, pa.scalar(hi)))
    return KernelResult(meets, valid, s.combine_chunks(), nulls)


@register_condition("expect_column_value_lengths_to_equal")
def _len_equal(tbl: pa.Table, kwargs: dict) -> KernelResult:
    col, valid, nulls = _nonnull_domain(tbl, kwargs)
    s = _as_string(col)
    meets = _bool_np(pc.equal(pc.utf8_length(s), pa.scalar(kwargs["value"])))
    return KernelResult(meets, valid, s.combine_chunks(), nulls)


@register_condition("expect_column_values_to_match_strftime_format")
def _strftime(tbl: pa.Table, kwargs: dict) -> KernelResult:
    col, valid, nulls = _nonnull_domain(tbl, kwargs)
    s = _as_string(col)
    parsed = pc.strptime(s, format=kwargs["strftime_format"], unit="us", error_is_null=True)
    meets = _bool_np(pc.is_valid(parsed))
    return KernelResult(meets, valid, s.combine_chunks(), nulls)


def _per_distinct(
    s: pa.Array,
    fn: Callable[[Any], bool],
    accept: Callable[[pa.Array], np.ndarray] | None = None,
) -> np.ndarray:
    """Run the per-value Python predicate ``fn`` once per distinct non-null
    value of ``s`` and gather the answers back to ``np.bool_[len(s)]``;
    nulls give False.  ``accept(dictionary)`` may mark distinct values True
    up front, vectorized, so ``fn`` runs only on the rest."""
    if s.null_count == len(s):
        return np.zeros(len(s), dtype=bool)
    enc = pc.dictionary_encode(s)
    d = enc.dictionary
    hit = np.zeros(len(d), dtype=bool) if accept is None else accept(d)
    rest = np.flatnonzero(~hit)
    hit[rest] = [bool(fn(v)) for v in d.take(rest).to_pylist()]
    return hit[np.asarray(pc.fill_null(enc.indices, 0))] & _bool_np(pc.is_valid(s))


def _iso_dates(d: pa.Array) -> np.ndarray:
    """Exact vectorized pre-accept for dateutil: ``YYYY-MM-DD`` strings that
    survive a strptime/strftime round trip unchanged, year 0000 excluded.
    The round trip is needed because strptime rolls '2020-04-31' into May
    where dateutil rejects it; dateutil also rejects year 0."""
    ts = pc.strptime(d, format="%Y-%m-%d", unit="s", error_is_null=True)
    same = pc.equal(pc.cast(pc.strftime(ts, format="%Y-%m-%d"), d.type), d)
    return _bool_np(same) & ~_bool_np(pc.starts_with(d, "0000"))


@register_condition("expect_column_values_to_be_dateutil_parseable")
def _dateutil_parseable(tbl: pa.Table, kwargs: dict) -> KernelResult:
    from dateutil import parser as _p

    def parses(v: str) -> bool:
        try:
            _p.parse(v)
        except (ValueError, OverflowError, TypeError):
            return False
        return True

    col, valid, nulls = _nonnull_domain(tbl, kwargs)
    s = _as_string(col).combine_chunks()
    return KernelResult(_per_distinct(s, parses, _iso_dates), valid, s, nulls)


_UNDECODABLE = object()


def _try_loads(v: str) -> Any:
    try:
        return _json.loads(v)
    except Exception:  # any decoder failure, RecursionError on deep nesting too
        return _UNDECODABLE


@register_condition("expect_column_values_to_be_json_parseable")
def _json_parseable(tbl: pa.Table, kwargs: dict) -> KernelResult:
    col, valid, nulls = _nonnull_domain(tbl, kwargs)
    s = _as_string(col).combine_chunks()
    meets = _per_distinct(s, lambda v: _try_loads(v) is not _UNDECODABLE)
    return KernelResult(meets, valid, s, nulls)


@register_condition("expect_column_values_to_match_json_schema")
def _match_json_schema(tbl: pa.Table, kwargs: dict) -> KernelResult:
    try:
        import jsonschema
    except ImportError as exc:  # pragma: no cover
        raise NotImplementedError("jsonschema library not available") from exc

    col, valid, nulls = _nonnull_domain(tbl, kwargs)
    s = _as_string(col).combine_chunks()
    schema = kwargs["json_schema"]
    validator = jsonschema.validators.validator_for(schema)(schema)

    def conforms(v: str) -> bool:
        obj = _try_loads(v)
        return obj is not _UNDECODABLE and validator.is_valid(obj)

    return KernelResult(_per_distinct(s, conforms), valid, s, nulls)


# --------------------------------------------------------------------------- #
# z-score (two-phase: engine injects mean/std from the aggregate pass,
# mirroring metric deps in column_values_z_score.py:124-144)
# --------------------------------------------------------------------------- #


@register_condition("expect_column_value_z_scores_to_be_less_than")
def _z_score(tbl: pa.Table, kwargs: dict) -> KernelResult:
    col, valid, nulls = _nonnull_domain(tbl, kwargs)
    mean = kwargs["_mean"]  # injected by engine phase 1
    std = kwargs["_std"]
    threshold = kwargs["threshold"]
    vals = np.asarray(pc.cast(pc.fill_null(col, float("nan")), pa.float64()))
    with np.errstate(invalid="ignore", divide="ignore"):
        z = (vals - mean) / std
        if kwargs.get("double_sided", True):
            z = np.abs(z)
        meets = z < threshold
    meets = np.where(np.isnan(vals), False, meets)
    return KernelResult(meets.astype(bool), valid, col.combine_chunks(), nulls)


# --------------------------------------------------------------------------- #
# pair / multicolumn maps
# --------------------------------------------------------------------------- #


def _pair_domain(
    tbl: pa.Table, kwargs: dict, default_ignore: str = "both_values_are_missing"
) -> tuple[pa.ChunkedArray, pa.ChunkedArray, np.ndarray]:
    """``ignore_row_if`` null policy, mirror of
    ``pandas_execution_engine.py:539-566``."""
    a = _col(tbl, kwargs["column_A"])
    b = _col(tbl, kwargs["column_B"])
    ignore = kwargs.get("ignore_row_if", default_ignore)
    va, vb = _bool_np(pc.is_valid(a)), _bool_np(pc.is_valid(b))
    if ignore == "both_values_are_missing":
        considered = va | vb
    elif ignore == "either_value_is_missing":
        considered = va & vb
    elif ignore in ("neither", "never"):
        considered = np.ones(len(a), dtype=bool)
    else:
        raise ValueError(f"unknown ignore_row_if {ignore!r}")
    return a, b, considered


def _pair_values(a: pa.ChunkedArray, b: pa.ChunkedArray) -> pa.Array:
    return pc.binary_join_element_wise(
        pc.cast(a.combine_chunks(), pa.string()),
        pc.cast(b.combine_chunks(), pa.string()),
        ",",
        null_handling="replace",
        null_replacement="null",
    )


@register_condition("expect_column_pair_values_to_be_equal")
def _pair_equal(tbl: pa.Table, kwargs: dict) -> KernelResult:
    a, b, considered = _pair_domain(tbl, kwargs)
    meets = _bool_np(pc.equal(a, b))
    return KernelResult(meets, considered, _pair_values(a, b), 0)


@register_condition("expect_column_pair_values_a_to_be_greater_than_b")
def _pair_greater(tbl: pa.Table, kwargs: dict) -> KernelResult:
    a, b, considered = _pair_domain(tbl, kwargs)
    op = pc.greater_equal if kwargs.get("or_equal", False) else pc.greater
    meets = _bool_np(op(a, b))
    return KernelResult(meets, considered, _pair_values(a, b), 0)


@register_condition("expect_column_pair_values_to_be_in_set")
def _pair_in_set(tbl: pa.Table, kwargs: dict) -> KernelResult:
    a, b, considered = _pair_domain(tbl, kwargs)
    joined = _pair_values(a, b)
    allowed = pa.array(
        [f"{x},{y}" for x, y in kwargs["value_pairs_set"]], type=pa.string()
    )
    meets = _bool_np(pc.is_in(joined, value_set=allowed))
    return KernelResult(meets, considered, joined, 0)


def _multicol_domain(
    tbl: pa.Table, kwargs: dict, default_ignore: str = "all_values_are_missing"
) -> tuple[list[pa.ChunkedArray], np.ndarray]:
    cols = [_col(tbl, c) for c in kwargs["column_list"]]
    valids = [_bool_np(pc.is_valid(c)) for c in cols]
    ignore = kwargs.get("ignore_row_if", default_ignore)
    if ignore == "all_values_are_missing":
        considered = np.zeros(len(cols[0]), dtype=bool)
        for v in valids:
            considered |= v
    elif ignore == "any_value_is_missing":
        considered = np.ones(len(cols[0]), dtype=bool)
        for v in valids:
            considered &= v
    elif ignore in ("neither", "never"):
        considered = np.ones(len(cols[0]), dtype=bool)
    else:
        raise ValueError(f"unknown ignore_row_if {ignore!r}")
    return cols, considered


def _multicol_values(cols: list[pa.ChunkedArray]) -> pa.Array:
    parts = [pc.cast(c.combine_chunks(), pa.string()) for c in cols]
    return pc.binary_join_element_wise(
        *parts, ",", null_handling="replace", null_replacement="null"
    )


@register_condition("expect_multicolumn_sum_to_equal")
def _multicol_sum_equal(tbl: pa.Table, kwargs: dict) -> KernelResult:
    cols, considered = _multicol_domain(tbl, kwargs)
    total = np.asarray(pc.cast(pc.fill_null(cols[0], 0), pa.float64())).copy()
    for c in cols[1:]:
        total += np.asarray(pc.cast(pc.fill_null(c, 0), pa.float64()))
    meets = total == float(kwargs["sum_total"])
    return KernelResult(meets, considered, _multicol_values(cols), 0)


@register_condition("expect_select_column_values_to_be_unique_within_record")
def _unique_within_record(tbl: pa.Table, kwargs: dict) -> KernelResult:
    cols, considered = _multicol_domain(tbl, kwargs)
    n = len(cols[0])
    meets = np.ones(n, dtype=bool)
    # pairwise equality over a handful of columns — O(k^2) vectorized passes
    np_cols = [c.combine_chunks() for c in cols]
    for i in range(len(np_cols)):
        for j in range(i + 1, len(np_cols)):
            eq = _bool_np(pc.equal(np_cols[i], np_cols[j]))
            meets &= ~eq
    return KernelResult(meets, considered, _multicol_values(cols), 0)


# deprecated alias (reference expect_multicolumn_values_to_be_unique.py:31)
CONDITION_KERNELS["expect_multicolumn_values_to_be_unique"] = _unique_within_record


# --------------------------------------------------------------------------- #
# UDF predicate hook — Ray-native analog of UnexpectedRowsExpectation (#59,
# reference ``unexpected_rows_expectation.py:37``: arbitrary SQL returning the
# unexpected rows; success = 0 rows).  Three escape hatches:
# - ``unexpected_condition``: row-condition DSL string
# - ``unexpected_fn``: picklable callable ``pa.Table -> bool mask``
# - ``unexpected_sql``: the reference's own contract — SQL with a
#   ``{batch}`` placeholder returning the UNEXPECTED rows, executed per
#   Arrow batch through DuckDB (zero-copy view registration).  The SQL must
#   be ROW-LOCAL (a WHERE predicate over {batch}): each batch sees only its
#   own rows, so cross-row aggregates would change meaning — the same
#   partition-local caveat the reference documents for Spark backends.
#   ``SELECT *`` (or any projection including ``__row_idx``) identifies the
#   flagged rows.
# --------------------------------------------------------------------------- #


@register_condition("unexpected_rows_expectation")
def _unexpected_rows(tbl: pa.Table, kwargs: dict) -> KernelResult:
    if "unexpected_condition" in kwargs:
        from great_expectations_ray.core.row_conditions import compile_row_condition

        unexpected = compile_row_condition(kwargs["unexpected_condition"])(tbl)
    elif "unexpected_fn" in kwargs:
        unexpected = np.asarray(kwargs["unexpected_fn"](tbl), dtype=bool)
    elif "unexpected_sql" in kwargs:
        import duckdb

        sql = kwargs["unexpected_sql"].replace("{batch}", "batch")
        batch = tbl.append_column(
            "__row_idx", pa.array(np.arange(tbl.num_rows, dtype=np.int64))
        )
        con = duckdb.connect()
        try:
            con.register("batch", batch)
            out = con.execute(sql).fetch_arrow_table()
        finally:
            con.close()
        if "__row_idx" not in out.column_names:
            raise ValueError(
                "unexpected_sql must propagate __row_idx (use SELECT * "
                "FROM {batch} WHERE ...)"
            )
        unexpected = np.zeros(tbl.num_rows, dtype=bool)
        unexpected[np.asarray(out.column("__row_idx"), dtype=np.int64)] = True
    else:
        raise ValueError(
            "unexpected_rows_expectation needs 'unexpected_condition' (DSL), "
            "'unexpected_fn' (callable batch -> bool mask), or "
            "'unexpected_sql' (SQL over {batch} returning unexpected rows)"
        )
    n = tbl.num_rows
    considered = np.ones(n, dtype=bool)
    values = pa.array([None] * n, pa.string())
    if kwargs.get("sample_column") and kwargs["sample_column"] in tbl.column_names:
        values = pc.cast(tbl.column(kwargs["sample_column"]).combine_chunks(), pa.string())
    return KernelResult(~unexpected, considered, values, 0)
