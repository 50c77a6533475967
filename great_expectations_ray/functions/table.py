"""Table/schema expectations — evaluated from ``Dataset.schema()`` metadata
plus the row-count partial; no data pass needed (reference table metrics:
``expectations/metrics/table_metrics/*``)."""

from __future__ import annotations

from typing import Callable, Optional

import pyarrow as pa

from great_expectations_ray.functions.aggregates import validate_metric_value_between

TABLE_RULES: dict[str, Callable] = {}


def register_table_rule(name: str):
    def deco(fn):
        TABLE_RULES[name] = fn
        return fn

    return deco


#: arrow type -> accepted GX-style dtype names (pandas/python spellings).
def _type_aliases(t: pa.DataType) -> set[str]:
    s = str(t)
    aliases = {s}
    if pa.types.is_integer(t):
        aliases |= {"int", "int64", "int32", "IntegerType", "INTEGER"}
    if pa.types.is_floating(t):
        aliases |= {"float", "float64", "float32", "double", "FloatType", "DOUBLE"}
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        aliases |= {"str", "string", "object", "StringType", "TEXT", "VARCHAR"}
    if pa.types.is_boolean(t):
        aliases |= {"bool", "boolean", "BooleanType", "BOOLEAN"}
    if pa.types.is_timestamp(t):
        aliases |= {"datetime64", "datetime64[ns]", "datetime", "TimestampType", "TIMESTAMP"}
    return aliases


@register_table_rule("expect_table_row_count_to_be_between")
def _row_count_between(schema: pa.Schema, row_count: int, kwargs: dict) -> tuple[bool, dict]:
    ok = validate_metric_value_between(
        row_count,
        kwargs.get("min_value"),
        kwargs.get("max_value"),
        kwargs.get("strict_min", False),
        kwargs.get("strict_max", False),
    )
    return ok, {"observed_value": row_count}


@register_table_rule("expect_table_row_count_to_equal")
def _row_count_equal(schema: pa.Schema, row_count: int, kwargs: dict) -> tuple[bool, dict]:
    return row_count == kwargs["value"], {"observed_value": row_count}


@register_table_rule("expect_table_column_count_to_be_between")
def _col_count_between(schema: pa.Schema, row_count: int, kwargs: dict) -> tuple[bool, dict]:
    n = len(schema.names)
    ok = validate_metric_value_between(
        n, kwargs.get("min_value"), kwargs.get("max_value"),
        kwargs.get("strict_min", False), kwargs.get("strict_max", False),
    )
    return ok, {"observed_value": n}


@register_table_rule("expect_table_column_count_to_equal")
def _col_count_equal(schema: pa.Schema, row_count: int, kwargs: dict) -> tuple[bool, dict]:
    n = len(schema.names)
    return n == kwargs["value"], {"observed_value": n}


@register_table_rule("expect_table_columns_to_match_ordered_list")
def _cols_ordered(schema: pa.Schema, row_count: int, kwargs: dict) -> tuple[bool, dict]:
    observed = list(schema.names)
    expected = list(kwargs["column_list"])
    return observed == expected, {"observed_value": observed}


@register_table_rule("expect_table_columns_to_match_set")
def _cols_set(schema: pa.Schema, row_count: int, kwargs: dict) -> tuple[bool, dict]:
    observed = set(schema.names)
    expected = set(kwargs["column_set"])
    exact = kwargs.get("exact_match", True)
    # reference: exact_match=None behaves as True (expect_table_columns_to_match_set.py)
    if exact is None:
        exact = True
    ok = observed == expected if exact else expected.issubset(observed)
    return ok, {"observed_value": sorted(observed)}


@register_table_rule("expect_column_to_exist")
def _col_exists(schema: pa.Schema, row_count: int, kwargs: dict) -> tuple[bool, dict]:
    name = kwargs["column"]
    idx: Optional[int] = kwargs.get("column_index")
    names = list(schema.names)
    if name not in names:
        return False, {}
    if idx is not None and names.index(name) != idx:
        return False, {}
    return True, {}


@register_table_rule("expect_column_values_to_be_of_type")
def _of_type(schema: pa.Schema, row_count: int, kwargs: dict) -> tuple[bool, dict]:
    f = schema.field(kwargs["column"])
    ok = kwargs["type_"] in _type_aliases(f.type)
    return ok, {"observed_value": str(f.type)}


@register_table_rule("expect_column_values_to_be_in_type_list")
def _in_type_list(schema: pa.Schema, row_count: int, kwargs: dict) -> tuple[bool, dict]:
    f = schema.field(kwargs["column"])
    aliases = _type_aliases(f.type)
    ok = any(t in aliases for t in kwargs["type_list"])
    return ok, {"observed_value": str(f.type)}
