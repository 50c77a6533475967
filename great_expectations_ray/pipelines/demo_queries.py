"""Driver-facing query catalog: one entry per operator family from
SURVEY.md §2, each a Ray pipeline over the testdata tables with (where
SQL-expressible) a DuckDB oracle that must hash-match.

Column names, rounding and types are part of the contract: every aggregate is
aliased identically in the Ray output and the SQL; count-sums are CAST to
BIGINT (DuckDB sums integers into HUGEINT); floats that accumulate in
different orders are rounded to 6 (or 2 for large sums) decimals on BOTH
sides.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections.abc import Callable
from typing import Any, NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.core.row_conditions import compile_row_condition
from great_expectations_ray.core.suite import ExpectationSuite
from great_expectations_ray.engine import validate
from great_expectations_ray.functions.bucketed import group_aggregate
from great_expectations_ray.pipelines.quality_filter import RuleEvalScrub
from great_expectations_ray.stages._per_worker import map_per_worker
from great_expectations_ray.stages.ann import brute_force_topk
from great_expectations_ray.stages.dedup import (
    dedup_exact,
    sample_using_hash,
    sample_using_mod,
)
from great_expectations_ray.stages.scrub import DEFAULT_SCRUB_RULES
from great_expectations_ray.stages.text_stats import TextStats
from great_expectations_ray.functions.ordered import grouped_monotonic


# --------------------------------------------------------------------------- #
# catalog registry: every q_<name> is registered once, next to its oracle SQL.
# The views at the bottom of the module derive from it: QUERIES / ORACLE_SQL
# (the 50-entry correctness gate, in slot order), CONSTITUENT_QUERIES (every
# single operator) and BENCH_QUERIES (the operators bench.py times).
# --------------------------------------------------------------------------- #


class CatalogEntry(NamedTuple):
    fn: Callable[[str], Any]
    sql: str | None  # DuckDB oracle (or fixture SQL); None = bench-only
    gate: int | None  # slot among the 50 gated entries
    bench: bool  # timed by bench.py
    part: bool  # listed in CONSTITUENT_QUERIES


CATALOG: dict[str, CatalogEntry] = {}


def register_query(fn, sql=None, *, gate=None, bench=False, part=True):
    """Register ``q_<name>`` as ``<name>``; each name registers once."""
    name = fn.__name__.removeprefix("q_")
    if name in CATALOG:
        raise ValueError(f"catalog query {name!r} is already registered")
    CATALOG[name] = CatalogEntry(fn, sql, gate, bench, part)


# --------------------------------------------------------------------------- #
# fixture-backed oracles for the six seeded model/LSH queries.  The stages are
# deterministic, so expected outputs are precomputed by an INDEPENDENT
# pure-python/pandas reimplementation (tools/gen_oracle_fixtures.py — per-doc
# `re`/python-int/numpy loops, no Ray, none of the stages' execution code)
# into fixtures/<query>.parquet, keyed by a content fingerprint of the input
# table so the same SQL selects the right expected rows at any generated SF.
# --------------------------------------------------------------------------- #

_FIXTURES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "fixtures",
)

_FP_DOCS = "(SELECT CAST(SUM(doc_id * n_chars) AS BIGINT) FROM documents)"
_FP_EMB = "(SELECT CAST(SUM(vec_id * label) AS BIGINT) FROM embeddings)"


def _fixture_sql(name: str, cols: str, fp_expr: str, order: str) -> str:
    path = os.path.join(_FIXTURES, f"{name}.parquet")
    return (
        f"SELECT {cols} FROM read_parquet('{path}') "
        f"WHERE fp = {fp_expr} ORDER BY {order}"
    )


def _read(sf_dir: str, name: str, columns=None):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/{name}.parquet", columns=columns)


# --------------------------------------------------------------------------- #
# expectation-engine queries (SURVEY §2.1 families)
# --------------------------------------------------------------------------- #


def q_table_row_counts(sf_dir: str) -> pd.DataFrame:
    """Batch expectations #51/#52: table.row_count bounds on three tables."""
    specs = [("region", 1, 10), ("nation", 20, 30), ("orders", 1000, None)]
    rows = []
    for tbl, lo, hi in specs:
        ds = _read(sf_dir, tbl)
        res = validate(
            ds,
            ExpectationSuite(f"rc_{tbl}").add(
                "expect_table_row_count_to_be_between", min_value=lo, max_value=hi
            ),
        )
        r = res.results[0]
        rows.append({"tbl": tbl, "row_count": r.result["observed_value"],
                     "success": bool(r.success)})
    return pd.DataFrame(rows)


SQL_TABLE_ROW_COUNTS = """
SELECT 'region' AS tbl, count(*) AS row_count, count(*) BETWEEN 1 AND 10 AS success FROM region
UNION ALL SELECT 'nation', count(*), count(*) BETWEEN 20 AND 30 FROM nation
UNION ALL SELECT 'orders', count(*), count(*) >= 1000 FROM orders
"""
register_query(q_table_row_counts, SQL_TABLE_ROW_COUNTS, gate=0)


def q_agg_quantity(sf_dir: str) -> pd.DataFrame:
    """ColumnAggregate #33/#36/#37/#38/#35 bundled into one pass."""
    ds = _read(sf_dir, "lineitem", columns=["l_quantity"])
    suite = (
        ExpectationSuite("agg")
        .add("expect_column_mean_to_be_between", column="l_quantity")
        .add("expect_column_sum_to_be_between", column="l_quantity")
        .add("expect_column_min_to_be_between", column="l_quantity")
        .add("expect_column_max_to_be_between", column="l_quantity")
        .add("expect_column_stdev_to_be_between", column="l_quantity")
    )
    res = validate(ds, suite)
    ov = [r.result["observed_value"] for r in res.results]
    return pd.DataFrame([{
        "mean_qty": round(ov[0], 6),
        "sum_qty": ov[1],
        "min_qty": ov[2],
        "max_qty": ov[3],
        "std_qty": round(ov[4], 6),
        "n_rows": res.meta["row_count"],
    }])


SQL_AGG_QUANTITY = """
SELECT round(avg(l_quantity), 6) AS mean_qty, sum(l_quantity) AS sum_qty,
       min(l_quantity) AS min_qty, max(l_quantity) AS max_qty,
       round(stddev_samp(l_quantity), 6) AS std_qty, count(*) AS n_rows
FROM lineitem
"""
register_query(q_agg_quantity, SQL_AGG_QUANTITY, bench=True)


def q_value_counts_returnflag(sf_dir: str) -> pd.DataFrame:
    """column.value_counts (#41-44 backing metric) via map-side pre-agg +
    groupby."""
    from great_expectations_ray.engine import _grouped_value_counts

    ds = _read(sf_dir, "lineitem", columns=["l_returnflag"])
    rows = _grouped_value_counts(ds, ["l_returnflag"]).take_all()
    df = pd.DataFrame([{"value": r["k0"], "cnt": r["cnt"]} for r in rows])
    return df.sort_values("value").reset_index(drop=True)


SQL_VALUE_COUNTS_RETURNFLAG = """
SELECT l_returnflag AS value, count(*) AS cnt FROM lineitem GROUP BY 1 ORDER BY 1
"""
register_query(q_value_counts_returnflag, SQL_VALUE_COUNTS_RETURNFLAG,
               gate=3, bench=True)


def q_distinct_mktsegment(sf_dir: str) -> pd.DataFrame:
    """#39/#40: unique count + proportion."""
    ds = _read(sf_dir, "customer", columns=["c_mktsegment"])
    suite = (
        ExpectationSuite("d")
        .add("expect_column_unique_value_count_to_be_between", column="c_mktsegment", min_value=1)
        .add("expect_column_proportion_of_unique_values_to_be_between", column="c_mktsegment", min_value=0)
    )
    res = validate(ds, suite)
    return pd.DataFrame([{
        "distinct_cnt": res.results[0].result["observed_value"],
        "uniq_prop": round(res.results[1].result["observed_value"], 9),
    }])


SQL_DISTINCT_MKTSEGMENT = """
SELECT count(DISTINCT c_mktsegment) AS distinct_cnt,
       round(count(DISTINCT c_mktsegment) / count(c_mktsegment), 9) AS uniq_prop
FROM customer
"""
register_query(q_distinct_mktsegment, SQL_DISTINCT_MKTSEGMENT)


def q_between_quantity(sf_dir: str) -> pd.DataFrame:
    """#5 with mostly: EVR counts for l_quantity ∈ [10,40], mostly=0.95."""
    ds = _read(sf_dir, "lineitem", columns=["l_quantity"])
    res = validate(ds, ExpectationSuite("b").add(
        "expect_column_values_to_be_between",
        column="l_quantity", min_value=10, max_value=40, mostly=0.95,
    ))
    r = res.results[0]
    return pd.DataFrame([{
        "element_count": r.result["element_count"],
        "unexpected_count": r.result["unexpected_count"],
        "success": bool(r.success),
    }])


SQL_BETWEEN_QUANTITY = """
SELECT count(*) AS element_count,
       CAST(sum(CASE WHEN NOT (l_quantity >= 10 AND l_quantity <= 40) THEN 1 ELSE 0 END) AS BIGINT) AS unexpected_count,
       ((count(*) - sum(CASE WHEN NOT (l_quantity >= 10 AND l_quantity <= 40) THEN 1 ELSE 0 END)) / count(*)) >= 0.95 AS success
FROM lineitem
"""
register_query(q_between_quantity, SQL_BETWEEN_QUANTITY, bench=True)


def q_regex_docs_by_lang(sf_dir: str) -> pd.DataFrame:
    """#6 + row_condition domains: one fused pass, five per-lang domains."""
    ds = _read(sf_dir, "documents", columns=["text", "lang"])
    langs = ["de", "en", "es", "fr", "zh"]
    suite = ExpectationSuite("rx")
    for lg in langs:
        suite.add("expect_column_values_to_match_regex", column="text",
                  regex="data", row_condition=f'col("lang") == "{lg}"')
    res = validate(ds, suite)
    return pd.DataFrame([
        {"lang": lg,
         "element_count": r.result["element_count"],
         "unexpected_count": r.result["unexpected_count"]}
        for lg, r in zip(langs, res.results)
    ])


SQL_REGEX_DOCS_BY_LANG = """
SELECT lang, count(*) AS element_count,
       CAST(sum(CASE WHEN NOT regexp_matches(text, 'data') THEN 1 ELSE 0 END) AS BIGINT) AS unexpected_count
FROM documents GROUP BY lang ORDER BY lang
"""
register_query(q_regex_docs_by_lang, SQL_REGEX_DOCS_BY_LANG, gate=4, bench=True)


def q_value_lengths_docs(sf_dir: str) -> pd.DataFrame:
    """#14: value_length bounds."""
    ds = _read(sf_dir, "documents", columns=["text"])
    res = validate(ds, ExpectationSuite("len").add(
        "expect_column_value_lengths_to_be_between",
        column="text", min_value=100, max_value=400,
    ))
    r = res.results[0]
    return pd.DataFrame([{
        "element_count": r.result["element_count"],
        "unexpected_count": r.result["unexpected_count"],
    }])


SQL_VALUE_LENGTHS_DOCS = """
SELECT count(*) AS element_count,
       CAST(sum(CASE WHEN NOT (length(text) >= 100 AND length(text) <= 400) THEN 1 ELSE 0 END) AS BIGINT) AS unexpected_count
FROM documents
"""
register_query(q_value_lengths_docs, SQL_VALUE_LENGTHS_DOCS)


def q_set_orders(sf_dir: str) -> pd.DataFrame:
    """#3: in_set membership on o_orderpriority."""
    value_set = ["1-URGENT", "2-HIGH", "3-MEDIUM"]
    ds = _read(sf_dir, "orders", columns=["o_orderpriority"])
    res = validate(ds, ExpectationSuite("s").add(
        "expect_column_values_to_be_in_set", column="o_orderpriority",
        value_set=value_set,
    ))
    r = res.results[0]
    return pd.DataFrame([{
        "element_count": r.result["element_count"],
        "unexpected_count": r.result["unexpected_count"],
    }])


SQL_SET_ORDERS = """
SELECT count(*) AS element_count,
       CAST(sum(CASE WHEN o_orderpriority NOT IN ('1-URGENT','2-HIGH','3-MEDIUM') THEN 1 ELSE 0 END) AS BIGINT) AS unexpected_count
FROM orders
"""
register_query(q_set_orders, SQL_SET_ORDERS)


def q_pair_orders(sf_dir: str) -> pd.DataFrame:
    """#27: A > B pair condition."""
    ds = _read(sf_dir, "orders", columns=["o_totalprice", "o_custkey"])
    res = validate(ds, ExpectationSuite("p").add(
        "expect_column_pair_values_a_to_be_greater_than_b",
        column_A="o_totalprice", column_B="o_custkey",
    ))
    r = res.results[0]
    return pd.DataFrame([{
        "element_count": r.result["element_count"],
        "unexpected_count": r.result["unexpected_count"],
    }])


SQL_PAIR_ORDERS = """
SELECT count(*) AS element_count,
       CAST(sum(CASE WHEN NOT (o_totalprice > o_custkey) THEN 1 ELSE 0 END) AS BIGINT) AS unexpected_count
FROM orders
"""
register_query(q_pair_orders, SQL_PAIR_ORDERS)


# --------------------------------------------------------------------------- #
# dedup / uniqueness / sampling / ordered (SURVEY §2.4, §2.6 + scale ops)
# --------------------------------------------------------------------------- #


def q_dedup_docs_prefix(sf_dir: str) -> pd.DataFrame:
    """Exact dedup keep-first: hash-partition on a 30-char prefix key."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def add_prefix(tbl: pa.Table) -> pa.Table:
        return tbl.append_column(
            "prefix", pc.utf8_slice_codeunits(tbl.column("text").combine_chunks(), 0, 30)
        )

    keyed = ds.map_batches(add_prefix, batch_format="pyarrow", zero_copy_batch=True)
    kept = dedup_exact(keyed, ["prefix"], order_by="doc_id")
    ids = sorted(r["doc_id"] for r in kept.select_columns(["doc_id"]).take_all())
    return pd.DataFrame({"doc_id": ids})


SQL_DEDUP_DOCS_PREFIX = """
SELECT min(doc_id) AS doc_id FROM documents GROUP BY substr(text, 1, 30) ORDER BY doc_id
"""
register_query(q_dedup_docs_prefix, SQL_DEDUP_DOCS_PREFIX, bench=True)


def q_unique_prefix_violations(sf_dir: str) -> pd.DataFrame:
    """#20: column_values.unique on the derived prefix key (global)."""
    ds = _read(sf_dir, "documents", columns=["text"])

    def add_prefix(tbl: pa.Table) -> pa.Table:
        return tbl.append_column(
            "prefix", pc.utf8_slice_codeunits(tbl.column("text").combine_chunks(), 0, 30)
        )

    keyed = ds.map_batches(add_prefix, batch_format="pyarrow", zero_copy_batch=True)
    res = validate(keyed, ExpectationSuite("u").add(
        "expect_column_values_to_be_unique", column="prefix"
    ))
    r = res.results[0]
    return pd.DataFrame([{
        "element_count": r.result["element_count"],
        "unexpected_count": r.result["unexpected_count"],
    }])


SQL_UNIQUE_PREFIX_VIOLATIONS = """
WITH c AS (SELECT substr(text,1,30) AS k, count(*) AS cnt FROM documents GROUP BY 1)
SELECT (SELECT count(*) FROM documents) AS element_count,
       CAST(COALESCE(sum(CASE WHEN cnt > 1 THEN cnt END), 0) AS BIGINT) AS unexpected_count
FROM c
"""
register_query(q_unique_prefix_violations, SQL_UNIQUE_PREFIX_VIOLATIONS)


def q_compound_unique_orders(sf_dir: str) -> pd.DataFrame:
    """#29: compound uniqueness on (o_custkey, o_orderstatus)."""
    ds = _read(sf_dir, "orders", columns=["o_custkey", "o_orderstatus"])
    res = validate(ds, ExpectationSuite("cu").add(
        "expect_compound_columns_to_be_unique",
        column_list=["o_custkey", "o_orderstatus"],
    ))
    r = res.results[0]
    return pd.DataFrame([{
        "element_count": r.result["element_count"],
        "unexpected_count": r.result["unexpected_count"],
    }])


SQL_COMPOUND_UNIQUE_ORDERS = """
WITH c AS (SELECT o_custkey, o_orderstatus, count(*) AS cnt FROM orders GROUP BY 1, 2)
SELECT (SELECT count(*) FROM orders) AS element_count,
       CAST(COALESCE(sum(CASE WHEN cnt > 1 THEN cnt END), 0) AS BIGINT) AS unexpected_count
FROM c
"""
register_query(q_compound_unique_orders, SQL_COMPOUND_UNIQUE_ORDERS)


def q_most_common_returnflag(sf_dir: str) -> pd.DataFrame:
    """#44: mode with ties."""
    ds = _read(sf_dir, "lineitem", columns=["l_returnflag"])
    res = validate(ds, ExpectationSuite("mc").add(
        "expect_column_most_common_value_to_be_in_set",
        column="l_returnflag", value_set=["A", "N", "R"],
    ))
    modes = res.results[0].result["observed_value"]
    return pd.DataFrame({"value": sorted(modes)})


SQL_MOST_COMMON_RETURNFLAG = """
WITH c AS (SELECT l_returnflag AS value, count(*) AS cnt FROM lineitem GROUP BY 1)
SELECT value FROM c WHERE cnt = (SELECT max(cnt) FROM c) ORDER BY value
"""
register_query(q_most_common_returnflag, SQL_MOST_COMMON_RETURNFLAG)


def q_mod_sample_events(sf_dir: str) -> pd.DataFrame:
    """GX sampler ``sample_using_mod`` (pandas_data_sampler.py:64)."""
    ds = _read(sf_dir, "events", columns=["event_id", "value"])
    s = sample_using_mod(ds, "event_id", 10, 7)
    from ray.data.aggregate import Count, Sum

    agg = s.aggregate(Count(), Sum("value", alias_name="sv"))
    return pd.DataFrame([{
        "n": agg["count()"],
        "sum_value": round(agg["sv"], 2),
    }])


SQL_MOD_SAMPLE_EVENTS = """
SELECT count(*) AS n, round(sum(value), 2) AS sum_value FROM events WHERE event_id % 10 = 7
"""
register_query(q_mod_sample_events, SQL_MOD_SAMPLE_EVENTS)


def q_hash_sample_events(sf_dir: str) -> pd.DataFrame:
    """GX sampler ``sample_using_hash`` (md5 suffix match,
    pandas_data_sampler.py:117)."""
    ds = _read(sf_dir, "events", columns=["event_id"])
    s = sample_using_hash(ds, "event_id", matches="0", digits=1)
    from ray.data.aggregate import Count, Max, Min

    agg = s.aggregate(Count(), Min("event_id"), Max("event_id"))
    return pd.DataFrame([{
        "n": agg["count()"],
        "min_id": agg["min(event_id)"],
        "max_id": agg["max(event_id)"],
    }])


SQL_HASH_SAMPLE_EVENTS = """
SELECT count(*) AS n, min(event_id) AS min_id, max(event_id) AS max_id
FROM events WHERE substr(md5(CAST(event_id AS VARCHAR)), 32, 1) = '0'
"""
register_query(q_hash_sample_events, SQL_HASH_SAMPLE_EVENTS)


def q_row_condition_lineitem(sf_dir: str) -> pd.DataFrame:
    """§2.5 row-condition DSL compiled to an Arrow mask."""
    ds = _read(sf_dir, "lineitem", columns=["l_quantity", "l_returnflag", "l_extendedprice"])
    mask_fn = compile_row_condition('col("l_quantity") > 45 and col("l_returnflag") == "A"')

    def f(tbl: pa.Table) -> pa.Table:
        return tbl.filter(pa.array(mask_fn(tbl)))

    filtered = ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)
    from ray.data.aggregate import Count, Sum

    agg = filtered.aggregate(Count(), Sum("l_extendedprice", alias_name="sp"))
    return pd.DataFrame([{
        "n": agg["count()"],
        "sum_price": round(agg["sp"], 2),
    }])


SQL_ROW_CONDITION_LINEITEM = """
SELECT count(*) AS n, round(sum(l_extendedprice), 2) AS sum_price
FROM lineitem WHERE l_quantity > 45 AND l_returnflag = 'A'
"""
register_query(q_row_condition_lineitem, SQL_ROW_CONDITION_LINEITEM)


def q_quantiles_price(sf_dir: str) -> pd.DataFrame:
    """#45 with SQL-exact 'lower' interpolation (floor(q*(n-1)) rank)."""
    ds = _read(sf_dir, "lineitem", columns=["l_extendedprice"])
    res = validate(ds, ExpectationSuite("q").add(
        "expect_column_quantile_values_to_be_between",
        column="l_extendedprice",
        quantile_ranges={"quantiles": [0.25, 0.5, 0.75],
                         "value_ranges": [[None, None]] * 3},
        interpolation="lower",
    ))
    v = res.results[0].result["observed_value"]["values"]
    return pd.DataFrame([{"q25": v[0], "q50": v[1], "q75": v[2]}])


SQL_QUANTILES_PRICE = """
WITH s AS (SELECT l_extendedprice AS v,
                  row_number() OVER (ORDER BY l_extendedprice) - 1 AS rn
           FROM lineitem),
     n AS (SELECT count(*) AS c FROM s)
SELECT
  max(CASE WHEN rn = CAST(floor(0.25 * (c - 1)) AS BIGINT) THEN v END) AS q25,
  max(CASE WHEN rn = CAST(floor(0.50 * (c - 1)) AS BIGINT) THEN v END) AS q50,
  max(CASE WHEN rn = CAST(floor(0.75 * (c - 1)) AS BIGINT) THEN v END) AS q75
FROM s, n
"""
register_query(q_quantiles_price, SQL_QUANTILES_PRICE)


def q_events_increasing(sf_dir: str) -> pd.DataFrame:
    """#21 recast with explicit partition/order keys (groupby.map_groups)."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_id", "value"])
    out = grouped_monotonic(ds, "value", "user_id", ["ts", "event_id"])
    df = pd.DataFrame(out.take_all())
    return df.sort_values("user_id").reset_index(drop=True)[
        ["user_id", "n_rows", "n_violations", "monotonic"]
    ]


SQL_EVENTS_INCREASING = """
WITH o AS (
  SELECT user_id, value,
         lag(value) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev
  FROM events)
SELECT user_id, count(*) AS n_rows,
       CAST(sum(CASE WHEN prev IS NOT NULL AND value < prev THEN 1 ELSE 0 END) AS BIGINT) AS n_violations,
       sum(CASE WHEN prev IS NOT NULL AND value < prev THEN 1 ELSE 0 END) = 0 AS monotonic
FROM o GROUP BY user_id ORDER BY user_id
"""
register_query(q_events_increasing, SQL_EVENTS_INCREASING, gate=6, bench=True)


# --------------------------------------------------------------------------- #
# text analysis / similarity (training-data ops)
# --------------------------------------------------------------------------- #


def q_tumbling_events(sf_dir: str) -> pd.DataFrame:
    """Tumbling 1-hour windows per user (bucket groupby, no ordering)."""
    from great_expectations_ray.stages.windows import tumbling_window_agg

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])
    out = tumbling_window_agg(ds, ts_col="ts", key_col="user_id",
                              value_col="value", width_us=3_600_000_000)
    rows = out.take_all()
    df = pd.DataFrame([{
        "user_id": r["user_id"], "window_start": r["window_start"],
        "n": r["sum(cnt_sum)"], "sum_value": round(r["sum(val_sum_sum)"], 2),
    } for r in rows])
    return df.sort_values(["user_id", "window_start"]).reset_index(drop=True)


SQL_TUMBLING_EVENTS = """
SELECT user_id, (epoch_us(ts) // 3600000000) * 3600000000 AS window_start,
       count(*) AS n, round(sum(value), 2) AS sum_value
FROM events GROUP BY 1, 2 ORDER BY 1, 2
"""
register_query(q_tumbling_events, SQL_TUMBLING_EVENTS)


def q_session_events(sf_dir: str) -> pd.DataFrame:
    """Gap-based sessionization (30-min gap) per user — ordered map_groups."""
    from great_expectations_ray.stages.windows import session_windows

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    out = session_windows(ds, ts_col="ts", key_col="user_id", gap_us=1_800_000_000)
    df = pd.DataFrame(out.take_all())
    return df.sort_values(["user_id", "session_start"]).reset_index(drop=True)[
        ["user_id", "session_start", "session_end", "n_events"]
    ]


SQL_SESSION_EVENTS = """
WITH e AS (SELECT user_id, epoch_us(ts) AS t FROM events),
o AS (SELECT user_id, t,
        CASE WHEN lag(t) OVER w IS NULL OR t - lag(t) OVER w > 1800000000
             THEN 1 ELSE 0 END AS brk
      FROM e WINDOW w AS (PARTITION BY user_id ORDER BY t)),
s AS (SELECT user_id, t,
        sum(brk) OVER (PARTITION BY user_id ORDER BY t ROWS UNBOUNDED PRECEDING) AS sid
      FROM o)
SELECT user_id, min(t) AS session_start, max(t) AS session_end,
       count(*) AS n_events
FROM s GROUP BY user_id, sid ORDER BY user_id, session_start
"""
register_query(q_session_events, SQL_SESSION_EVENTS)


def q_sliding_events(sf_dir: str) -> pd.DataFrame:
    """Sliding windows (1h width / 15min slide) per user."""
    from great_expectations_ray.stages.windows import sliding_window_agg

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])
    out = sliding_window_agg(ds, ts_col="ts", key_col="user_id",
                             value_col="value",
                             width_us=3_600_000_000, slide_us=900_000_000)
    rows = out.take_all()
    df = pd.DataFrame([{
        "user_id": r["user_id"], "window_start": r["window_start"],
        "n": r["sum(cnt_sum)"], "sum_value": round(r["sum(val_sum_sum)"], 2),
    } for r in rows])
    return df.sort_values(["user_id", "window_start"]).reset_index(drop=True)


SQL_SLIDING_EVENTS = """
WITH e AS (SELECT user_id, epoch_us(ts) AS t, value FROM events),
x AS (SELECT user_id,
             ((t // 900000000) * 900000000) - i * 900000000 AS window_start,
             value
      FROM e CROSS JOIN range(4) s(i)
      WHERE ((t // 900000000) * 900000000) - i * 900000000 > t - 3600000000)
SELECT user_id, window_start, count(*) AS n, round(sum(value), 2) AS sum_value
FROM x GROUP BY 1, 2 ORDER BY 1, 2
"""
register_query(q_sliding_events, SQL_SLIDING_EVENTS)


def q_token_stats_docs(sf_dir: str) -> pd.DataFrame:
    """Token counting + alnum counting, per-lang rollup (vectorized RE2)."""
    ds = _read(sf_dir, "documents", columns=["lang", "text"])

    def counts(tbl: pa.Table) -> pa.Table:
        text = tbl.column("text").combine_chunks()
        toks = pc.count_substring_regex(text, r"\S+")
        alnum = pc.count_substring_regex(text, "[A-Za-z0-9]")
        t = pa.table({
            "lang": tbl.column("lang"),
            "tokens": pc.cast(toks, pa.int64()),
            "alnum_chars": pc.cast(alnum, pa.int64()),
        })
        return t.group_by(["lang"]).aggregate([("tokens", "sum"), ("alnum_chars", "sum")])

    grouped = (
        ds.map_batches(counts, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("lang")
        .sum(["tokens_sum", "alnum_chars_sum"])
    )
    rows = grouped.take_all()
    df = pd.DataFrame([{
        "lang": r["lang"], "tokens": r["sum(tokens_sum)"],
        "alnum_chars": r["sum(alnum_chars_sum)"],
    } for r in rows])
    return df.sort_values("lang").reset_index(drop=True)


SQL_TOKEN_STATS_DOCS = r"""
SELECT lang,
       CAST(sum(len(regexp_extract_all(text, '\S+'))) AS BIGINT) AS tokens,
       CAST(sum(len(regexp_extract_all(text, '[A-Za-z0-9]'))) AS BIGINT) AS alnum_chars
FROM documents GROUP BY lang ORDER BY lang
"""
register_query(q_token_stats_docs, SQL_TOKEN_STATS_DOCS, bench=True)


def q_ann_topk(sf_dir: str) -> pd.DataFrame:
    """Brute-force cosine top-10 to the vec_id=0 embedding (broadcast query,
    per-block local top-k, driver merge)."""
    import ray.data as rd

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q_row = [r for r in ds.filter(expr="vec_id == 0").take(1)][0]
    query = np.asarray(q_row["embedding"], dtype=np.float64)
    top = brute_force_topk(ds, query, k=10)
    return pd.DataFrame([{"vec_id": vid, "sim": round(s, 6)} for vid, s in top]) \
        .sort_values("vec_id").reset_index(drop=True)


SQL_ANN_TOPK = """
WITH q AS (SELECT embedding AS qe FROM embeddings WHERE vec_id = 0),
sims AS (
  SELECT e.vec_id,
    round(
      list_sum(list_transform(list_zip(e.embedding, q.qe), x -> CAST(x[1] AS DOUBLE) * CAST(x[2] AS DOUBLE)))
      / (sqrt(list_sum(list_transform(e.embedding, v -> CAST(v AS DOUBLE)*CAST(v AS DOUBLE))))
       * sqrt(list_sum(list_transform(q.qe, v -> CAST(v AS DOUBLE)*CAST(v AS DOUBLE))))), 6) AS sim
  FROM embeddings e, q)
SELECT vec_id, sim FROM sims ORDER BY sim DESC, vec_id LIMIT 10
"""
register_query(q_ann_topk, SQL_ANN_TOPK, bench=True)


# --------------------------------------------------------------------------- #
# flagship derived-corpus queries (north-rule shape, fully SQL-mirrored)
# --------------------------------------------------------------------------- #

_CORPUS_SUITE = (
    ExpectationSuite("derived_corpus_quality")
    .add("expect_column_value_lengths_to_be_between",
         column="content", min_value=120, max_value=420)
    .add("expect_column_values_to_match_regex", column="content", regex="data")
    .add("expect_column_values_to_be_between", column="token_cnt", min_value=25)
)


def _derived_corpus(sf_dir: str):
    """documents -> north-rule corpus shape via a deterministic,
    SQL-expressible transform (so DuckDB can re-derive it exactly)."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])

    def derive(tbl: pa.Table) -> pa.Table:
        doc_id = pc.cast(tbl.column("doc_id"), pa.int64()).combine_chunks()
        ids = pc.cast(doc_id, pa.string())
        mod7 = pc.cast(
            pc.subtract(doc_id, pc.multiply(pc.divide(doc_id, 7), 7)), pa.string()
        )
        repo = pc.binary_join_element_wise(pa.array(["repo_"] * len(ids)), mod7, "")
        path = pc.binary_join_element_wise(
            pa.array(["src/doc_"] * len(ids)), ids, pa.array([".txt"] * len(ids)), ""
        )
        commit = pa.array(
            [hashlib.md5(f"c{i}".encode()).hexdigest() for i in doc_id.to_pylist()],
            pa.string(),
        )
        content = pc.binary_join_element_wise(
            tbl.column("text").combine_chunks(),
            pa.array([" contact: user"] * len(ids)),
            ids,
            pa.array(["@example.com"] * len(ids)),
            "",
        )
        return pa.table({
            "doc_id": doc_id, "repo": repo, "path": path, "commit": commit,
            "lang": tbl.column("lang").combine_chunks(),
            "content": pc.cast(content, pa.large_string()),
        })

    return ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True)


_SQL_CORPUS_CTE = """
corpus AS (
  SELECT doc_id,
         'repo_' || CAST(doc_id % 7 AS VARCHAR) AS repo,
         'src/doc_' || CAST(doc_id AS VARCHAR) || '.txt' AS path,
         md5('c' || CAST(doc_id AS VARCHAR)) AS commit,
         lang,
         text || ' contact: user' || CAST(doc_id AS VARCHAR) || '@example.com' AS content
  FROM documents),
scored AS (
  SELECT *,
    length(content) AS n_chars,
    len(regexp_extract_all(content, '\\S+')) AS token_cnt,
    (length(content) BETWEEN 120 AND 420) AND regexp_matches(content, 'data')
      AND (len(regexp_extract_all(content, '\\S+')) >= 25) AS keep
  FROM corpus)
"""


def _corpus_pipeline(sf_dir: str):
    ds = _derived_corpus(sf_dir)
    ds = ds.map_batches(TextStats(), batch_format="pyarrow", zero_copy_batch=True)

    def token_cnt(tbl: pa.Table) -> pa.Table:
        toks = pc.count_substring_regex(tbl.column("content").combine_chunks(), r"\S+")
        return tbl.append_column("token_cnt", pc.cast(toks, pa.int64()))

    ds = ds.map_batches(token_cnt, batch_format="pyarrow", zero_copy_batch=True)
    stage = RuleEvalScrub(_CORPUS_SUITE.resolved_expectations(), list(DEFAULT_SCRUB_RULES))
    return ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True)


def q_qf_corpus_keep(sf_dir: str) -> pd.DataFrame:
    """Flagship keep/drop verdicts on the derived corpus (full GX map-rule
    semantics in the fused RuleEvalScrub pass)."""
    scored = _corpus_pipeline(sf_dir)
    rows = scored.select_columns(["doc_id", "keep"]).take_all()
    return pd.DataFrame(rows).sort_values("doc_id").reset_index(drop=True)


SQL_QF_CORPUS_KEEP = f"""
WITH {_SQL_CORPUS_CTE}
SELECT doc_id, keep FROM scored ORDER BY doc_id
"""
register_query(q_qf_corpus_keep, SQL_QF_CORPUS_KEEP, bench=True)


def q_qf_corpus_scrub(sf_dir: str) -> pd.DataFrame:
    """Scrub parity: md5 of the scrubbed content, row-for-row."""
    scored = _corpus_pipeline(sf_dir)

    def h(tbl: pa.Table) -> pa.Table:
        md5s = pa.array(
            [hashlib.md5(v.as_py().encode()).hexdigest()
             for v in tbl.column("content").combine_chunks()],
            pa.string(),
        )
        return pa.table({"doc_id": tbl.column("doc_id"), "scrub_md5": md5s})

    rows = scored.map_batches(h, batch_format="pyarrow").take_all()
    return pd.DataFrame(rows).sort_values("doc_id").reset_index(drop=True)


SQL_QF_CORPUS_SCRUB = f"""
WITH {_SQL_CORPUS_CTE}
SELECT doc_id,
  md5(regexp_replace(regexp_replace(regexp_replace(regexp_replace(content,
      '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{{2,}}', '<EMAIL>', 'g'),
      'AKIA[0-9A-Z]{{16}}', '<AWS_KEY>', 'g'),
      'Bearer [A-Za-z0-9._~+/-]{{16,}}', 'Bearer <TOKEN>', 'g'),
      '-----BEGIN [A-Z ]*PRIVATE KEY-----', '<PRIVATE_KEY_HEADER>', 'g')) AS scrub_md5
FROM scored ORDER BY doc_id
"""
register_query(q_qf_corpus_scrub, SQL_QF_CORPUS_SCRUB)


def q_qf_corpus_rollup(sf_dir: str) -> pd.DataFrame:
    """Per-(repo,lang) GX-style rollup with mostly=0.9 success judgments."""
    from great_expectations_ray.pipelines.quality_filter import rollup

    suite = ExpectationSuite("roll")
    for cfg in _CORPUS_SUITE.resolved_expectations():
        k = dict(cfg.kwargs)
        k["mostly"] = 0.9
        suite.add(cfg.expectation_type, **k)
    scored = _corpus_pipeline(sf_dir)
    # re-evaluate bitmap under the same rules (bitmap already matches; mostly
    # only affects the success judgment in rollup)
    report = rollup(scored, suite, keys=("repo", "lang"))
    rows = []
    for r in report:
        rows.append({
            "repo": r["repo"], "lang": r["lang"],
            "row_count": r["row_count"], "keep_count": r["keep_count"],
            "viol_len": r["results"][0]["unexpected_count"],
            "viol_regex": r["results"][1]["unexpected_count"],
            "viol_tokens": r["results"][2]["unexpected_count"],
            "success_len": r["results"][0]["success"],
            "success_regex": r["results"][1]["success"],
            "success_tokens": r["results"][2]["success"],
        })
    return pd.DataFrame(rows).sort_values(["repo", "lang"]).reset_index(drop=True)


SQL_QF_CORPUS_ROLLUP = f"""
WITH {_SQL_CORPUS_CTE}
SELECT repo, lang,
  count(*) AS row_count,
  CAST(sum(CASE WHEN keep THEN 1 ELSE 0 END) AS BIGINT) AS keep_count,
  CAST(sum(CASE WHEN NOT (n_chars BETWEEN 120 AND 420) THEN 1 ELSE 0 END) AS BIGINT) AS viol_len,
  CAST(sum(CASE WHEN NOT regexp_matches(content, 'data') THEN 1 ELSE 0 END) AS BIGINT) AS viol_regex,
  CAST(sum(CASE WHEN NOT (token_cnt >= 25) THEN 1 ELSE 0 END) AS BIGINT) AS viol_tokens,
  ((count(*) - sum(CASE WHEN NOT (n_chars BETWEEN 120 AND 420) THEN 1 ELSE 0 END)) / count(*)) >= 0.9 AS success_len,
  ((count(*) - sum(CASE WHEN NOT regexp_matches(content, 'data') THEN 1 ELSE 0 END)) / count(*)) >= 0.9 AS success_regex,
  ((count(*) - sum(CASE WHEN NOT (token_cnt >= 25) THEN 1 ELSE 0 END)) / count(*)) >= 0.9 AS success_tokens
FROM scored GROUP BY repo, lang ORDER BY repo, lang
"""
register_query(q_qf_corpus_rollup, SQL_QF_CORPUS_ROLLUP, gate=10)


def _grouped_sum(ds, keys: list[str], cols: list[str]):
    """In-batch partial group + one groupby.sum (map-side combine)."""

    def partial(tbl: pa.Table) -> pa.Table:
        return group_aggregate(
            tbl.select(keys + cols), keys,
            [(c, "sum") for c in cols]
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(keys)
        .sum([f"{c}_sum" for c in cols])
    )


def q_join_revenue_by_nation(sf_dir: str) -> pd.DataFrame:
    """Broadcast joins (orders ⋈ customer ⋈ nation) -> revenue per nation."""
    import pyarrow.parquet as pq

    from great_expectations_ray.functions.joins import broadcast_join

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"]).to_pandas()
    nation = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    cust = cust.rename(columns={"c_custkey": "o_custkey"})
    nation = nation.rename(columns={"n_nationkey": "c_nationkey"})

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    joined = broadcast_join(orders, cust, on="o_custkey")
    joined = broadcast_join(joined, nation[["c_nationkey", "n_name"]], on="c_nationkey")

    def add_one(tbl: pa.Table) -> pa.Table:
        import numpy as np

        return tbl.append_column("one", pa.array(np.ones(tbl.num_rows, dtype=np.int64)))

    grouped = _grouped_sum(joined.map_batches(add_one, batch_format="pyarrow"),
                           ["n_name"], ["one", "o_totalprice"])
    rows = grouped.take_all()
    df = pd.DataFrame([{
        "n_name": r["n_name"], "n_orders": r["sum(one_sum)"],
        "revenue": round(r["sum(o_totalprice_sum)"], 2),
    } for r in rows])
    return df.sort_values("n_name").reset_index(drop=True)


SQL_JOIN_REVENUE_BY_NATION = """
SELECT n_name, count(*) AS n_orders, round(sum(o_totalprice), 2) AS revenue
FROM orders JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
GROUP BY n_name ORDER BY n_name
"""
register_query(q_join_revenue_by_nation, SQL_JOIN_REVENUE_BY_NATION, gate=13)


def q_join_lineitem_orders(sf_dir: str) -> pd.DataFrame:
    """Large×large partitioned hash join (lineitem ⋈ orders on orderkey)."""
    from great_expectations_ray.functions.joins import hash_bucket_join

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])

    def rename_key(tbl: pa.Table) -> pa.Table:
        return tbl.rename_columns(["l_orderkey", "o_orderpriority"])

    orders = orders.map_batches(rename_key, batch_format="pyarrow")
    joined = hash_bucket_join(li, orders, on="l_orderkey", n_buckets=16)

    def add_one(tbl: pa.Table) -> pa.Table:
        import numpy as np

        return tbl.append_column("one", pa.array(np.ones(tbl.num_rows, dtype=np.int64)))

    grouped = _grouped_sum(joined.map_batches(add_one, batch_format="pyarrow"),
                           ["o_orderpriority"], ["one", "l_quantity"])
    rows = grouped.take_all()
    df = pd.DataFrame([{
        "o_orderpriority": r["o_orderpriority"], "n_items": r["sum(one_sum)"],
        "sum_qty": r["sum(l_quantity_sum)"],
    } for r in rows])
    return df.sort_values("o_orderpriority").reset_index(drop=True)


SQL_JOIN_LINEITEM_ORDERS = """
SELECT o_orderpriority, count(*) AS n_items, sum(l_quantity) AS sum_qty
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY 1 ORDER BY 1
"""
register_query(q_join_lineitem_orders, SQL_JOIN_LINEITEM_ORDERS, gate=14)


def q_customers_without_orders(sf_dir: str) -> pd.DataFrame:
    """Anti join via broadcast key set."""
    from great_expectations_ray.functions.joins import broadcast_semi_anti

    orders = _read(sf_dir, "orders", columns=["o_custkey"])
    keys = orders.unique("o_custkey")  # small: distinct custkeys with orders
    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    out = broadcast_semi_anti(cust, keys, on="c_custkey", anti=True)
    ids = sorted(r["c_custkey"] for r in out.take_all())
    return pd.DataFrame({"c_custkey": ids})


SQL_CUSTOMERS_WITHOUT_ORDERS = """
SELECT c_custkey FROM customer
WHERE c_custkey NOT IN (SELECT o_custkey FROM orders) ORDER BY 1
"""
register_query(q_customers_without_orders, SQL_CUSTOMERS_WITHOUT_ORDERS)


def q_orders_by_month(sf_dir: str) -> pd.DataFrame:
    """Date-part partitioner (#§2.4): orders per (year, month)."""
    from great_expectations_ray.functions.partitioners import partition_on_date_parts

    ds = _read(sf_dir, "orders", columns=["o_orderdate"])
    keyed = partition_on_date_parts(ds, "o_orderdate", ["year", "month"])

    def add_one(tbl: pa.Table) -> pa.Table:
        import numpy as np

        return tbl.append_column("one", pa.array(np.ones(tbl.num_rows, dtype=np.int64)))

    grouped = _grouped_sum(keyed.map_batches(add_one, batch_format="pyarrow"),
                           ["o_orderdate_year", "o_orderdate_month"], ["one"])
    rows = grouped.take_all()
    df = pd.DataFrame([{
        "y": r["o_orderdate_year"], "m": r["o_orderdate_month"],
        "n": r["sum(one_sum)"],
    } for r in rows])
    return df.sort_values(["y", "m"]).reset_index(drop=True)


SQL_ORDERS_BY_MONTH = """
SELECT CAST(year(o_orderdate) AS INT) AS y, CAST(month(o_orderdate) AS INT) AS m,
       count(*) AS n
FROM orders GROUP BY 1, 2 ORDER BY 1, 2
"""
register_query(q_orders_by_month, SQL_ORDERS_BY_MONTH, gate=15)


def q_pushdown_read(sf_dir: str) -> pd.DataFrame:
    """Prune at the read: column projection + row filter pushed into the
    parquet scan (pyarrow expression), not applied post-read."""
    import pyarrow.dataset as pads

    from great_expectations_ray.sources.readers import read_batch

    ds = read_batch(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity"],
        filter_expr=(pads.field("l_returnflag") == "A"),
    )
    from ray.data.aggregate import Count, Sum

    agg = ds.aggregate(Count(), Sum("l_quantity", alias_name="sq"))
    return pd.DataFrame([{"n": agg["count()"], "sum_qty": agg["sq"]}])


SQL_PUSHDOWN_READ = """
SELECT count(*) AS n, sum(l_quantity) AS sum_qty FROM lineitem WHERE l_returnflag = 'A'
"""
register_query(q_pushdown_read, SQL_PUSHDOWN_READ)


def q_zscore_quantity(sf_dir: str) -> pd.DataFrame:
    """#23 two-phase z-score: aggregate pass (mean/std) then condition pass."""
    ds = _read(sf_dir, "lineitem", columns=["l_quantity"])
    res = validate(ds, ExpectationSuite("z").add(
        "expect_column_value_z_scores_to_be_less_than",
        column="l_quantity", threshold=1.5, double_sided=True,
    ))
    r = res.results[0]
    return pd.DataFrame([{
        "element_count": r.result["element_count"],
        "unexpected_count": r.result["unexpected_count"],
    }])


SQL_ZSCORE_QUANTITY = """
WITH s AS (SELECT avg(l_quantity) AS m, stddev_samp(l_quantity) AS sd FROM lineitem)
SELECT count(*) AS element_count,
       CAST(sum(CASE WHEN NOT (abs((l_quantity - m) / sd) < 1.5) THEN 1 ELSE 0 END) AS BIGINT) AS unexpected_count
FROM lineitem, s
"""
register_query(q_zscore_quantity, SQL_ZSCORE_QUANTITY)


def q_kl_event_types(sf_dir: str) -> pd.DataFrame:
    """#46 discrete KL divergence of event_type vs a uniform expectation."""
    ds = _read(sf_dir, "events", columns=["event_type"])
    vals = ["click", "error", "purchase", "signup", "view"]
    res = validate(ds, ExpectationSuite("kl").add(
        "expect_column_kl_divergence_to_be_less_than",
        column="event_type",
        partition_object={"values": vals, "weights": [0.2] * 5},
        threshold=0.05,
    ))
    r = res.results[0]
    return pd.DataFrame([{
        "kl": round(r.result["observed_value"], 9),
        "success": bool(r.success),
    }])


SQL_KL_EVENT_TYPES = """
WITH c AS (SELECT event_type, count(*) AS cnt FROM events GROUP BY 1),
     n AS (SELECT count(*) AS total FROM events)
SELECT round(sum((cnt / total) * ln((cnt / total) / 0.2)), 9) AS kl,
       sum((cnt / total) * ln((cnt / total) / 0.2)) < 0.05 AS success
FROM c, n
"""
register_query(q_kl_event_types, SQL_KL_EVENT_TYPES)


def q_cramers_events(sf_dir: str) -> pd.DataFrame:
    """#50 Cramér's φ between event_type and a user bucket (contingency
    shuffle -> driver math), SQL mirror includes zero cells."""
    import pyarrow.parquet as pq_

    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])

    def bucket(tbl: pa.Table) -> pa.Table:
        uid = pc.cast(tbl.column("user_id"), pa.int64())
        b = pc.subtract(uid, pc.multiply(pc.divide(uid, 3), 3))
        return pa.table({
            "event_type": tbl.column("event_type"),
            "ubucket": pc.cast(b, pa.string()),
        })

    keyed = ds.map_batches(bucket, batch_format="pyarrow", zero_copy_batch=True)
    res = validate(keyed, ExpectationSuite("cr").add(
        "expect_column_pair_cramers_phi_value_to_be_less_than",
        column_A="event_type", column_B="ubucket", threshold=0.2,
    ))
    r = res.results[0]
    return pd.DataFrame([{
        "phi": round(r.result["observed_value"], 9),
        "success": bool(r.success),
    }])


SQL_CRAMERS_EVENTS = """
WITH cells AS (
  SELECT event_type AS a, CAST(user_id % 3 AS VARCHAR) AS b, count(*) AS c
  FROM events GROUP BY 1, 2),
rt AS (SELECT a, sum(c) AS ra FROM cells GROUP BY a),
ct AS (SELECT b, sum(c) AS cb FROM cells GROUP BY b),
n AS (SELECT sum(c) AS total FROM cells),
grid AS (
  SELECT rt.a, ct.b, rt.ra, ct.cb, COALESCE(cells.c, 0) AS o
  FROM rt CROSS JOIN ct LEFT JOIN cells ON cells.a = rt.a AND cells.b = ct.b),
chi AS (
  SELECT sum(power(o - (ra * cb / total), 2) / (ra * cb / total)) AS chi2,
         count(DISTINCT a) AS nr, count(DISTINCT b) AS nc, max(total) AS total
  FROM grid, n)
SELECT round(sqrt(chi2 / (total * least(nr - 1, nc - 1))), 9) AS phi,
       sqrt(chi2 / (total * least(nr - 1, nc - 1))) < 0.2 AS success
FROM chi
"""
register_query(q_cramers_events, SQL_CRAMERS_EVENTS)


def q_props_extract_events(sf_dir: str) -> pd.DataFrame:
    """JSON-field extraction from a string column (the reference treats JSON
    as strings — json_parseable/match_json_schema; here we also EXTRACT,
    vectorized via RE2 capture groups) -> per-type sum of props.k."""
    ds = _read(sf_dir, "events", columns=["event_type", "props"])

    def extract(tbl: pa.Table) -> pa.Table:
        cap = pc.extract_regex(tbl.column("props").combine_chunks(), r'"k": (?P<k>\d+)')
        k = pc.cast(pc.struct_field(cap, "k"), pa.int64())
        t = pa.table({
            "event_type": tbl.column("event_type"),
            "k": pc.fill_null(k, 0),
            "valid": pc.cast(pc.is_valid(k), pa.int64()),
        })
        return t.group_by(["event_type"]).aggregate([("k", "sum"), ("valid", "sum")])

    grouped = (
        ds.map_batches(extract, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("event_type")
        .sum(["k_sum", "valid_sum"])
    )
    rows = grouped.take_all()
    df = pd.DataFrame([{
        "event_type": r["event_type"], "k_total": r["sum(k_sum)"],
        "n_valid": r["sum(valid_sum)"],
    } for r in rows])
    return df.sort_values("event_type").reset_index(drop=True)


SQL_PROPS_EXTRACT_EVENTS = r"""
SELECT event_type,
       CAST(sum(COALESCE(CAST(regexp_extract(props, '"k": (\d+)', 1) AS BIGINT), 0)) AS BIGINT) AS k_total,
       CAST(sum(CASE WHEN regexp_extract(props, '"k": (\d+)', 1) <> '' THEN 1 ELSE 0 END) AS BIGINT) AS n_valid
FROM events GROUP BY event_type ORDER BY event_type
"""
register_query(q_props_extract_events, SQL_PROPS_EXTRACT_EVENTS, gate=18)


def q_json_parseable_events(sf_dir: str) -> pd.DataFrame:
    """#18 over the events.props JSON column with a DuckDB json_valid oracle."""
    ds = _read(sf_dir, "events", columns=["props"])
    res = validate(ds, ExpectationSuite("js").add(
        "expect_column_values_to_be_json_parseable", column="props"
    ))
    r = res.results[0]
    return pd.DataFrame([{
        "element_count": r.result["element_count"],
        "unexpected_count": r.result["unexpected_count"],
    }])


SQL_JSON_PARSEABLE_EVENTS = """
SELECT count(*) AS element_count,
       CAST(sum(CASE WHEN NOT json_valid(props) THEN 1 ELSE 0 END) AS BIGINT) AS unexpected_count
FROM events
"""
register_query(q_json_parseable_events, SQL_JSON_PARSEABLE_EVENTS)


def q_tpch_q1(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1 shape: filtered pricing-summary groupby (classic analytical
    pipeline: row filter -> in-batch partials -> one small groupby)."""
    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_linestatus", "l_quantity",
                        "l_extendedprice", "l_discount", "l_tax", "l_shipdate"])
    cutoff = pa.scalar(np.datetime64("1997-09-02", "us"))

    def prep(tbl: pa.Table) -> pa.Table:
        tbl = tbl.filter(pc.less_equal(tbl.column("l_shipdate"), cutoff))
        disc = pc.multiply(tbl.column("l_extendedprice"),
                           pc.subtract(pa.scalar(1.0), tbl.column("l_discount")))
        charge = pc.multiply(disc, pc.add(pa.scalar(1.0), tbl.column("l_tax")))
        t = pa.table({
            "l_returnflag": tbl.column("l_returnflag"),
            "l_linestatus": tbl.column("l_linestatus"),
            "qty": tbl.column("l_quantity"),
            "base": tbl.column("l_extendedprice"),
            "disc_price": disc,
            "charge": charge,
            "one": pa.array(np.ones(tbl.num_rows, dtype=np.int64)),
        })
        return t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [(c, "sum") for c in ("qty", "base", "disc_price", "charge", "one")]
        )

    grouped = (
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["l_returnflag", "l_linestatus"])
        .sum(["qty_sum", "base_sum", "disc_price_sum", "charge_sum", "one_sum"])
    )
    rows = grouped.take_all()
    df = pd.DataFrame([{
        "l_returnflag": r["l_returnflag"], "l_linestatus": r["l_linestatus"],
        "sum_qty": r["sum(qty_sum)"],
        "sum_base_price": round(r["sum(base_sum)"], 2),
        "sum_disc_price": round(r["sum(disc_price_sum)"], 2),
        "sum_charge": round(r["sum(charge_sum)"], 2),
        "avg_qty": round(r["sum(qty_sum)"] / r["sum(one_sum)"], 6),
        "count_order": r["sum(one_sum)"],
    } for r in rows])
    return df.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


SQL_TPCH_Q1 = """
SELECT l_returnflag, l_linestatus,
       sum(l_quantity) AS sum_qty,
       round(sum(l_extendedprice), 2) AS sum_base_price,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
       round(sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)), 2) AS sum_charge,
       round(sum(l_quantity) / count(*), 6) AS avg_qty,
       count(*) AS count_order
FROM lineitem WHERE l_shipdate <= TIMESTAMP '1997-09-02'
GROUP BY 1, 2 ORDER BY 1, 2
"""
register_query(q_tpch_q1, SQL_TPCH_Q1, gate=16)


def q_tpch_q3(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q3 shape: selective dimension filter -> broadcast join into the
    fact table -> grouped revenue -> top-10."""
    import pyarrow.parquet as pq_

    from great_expectations_ray.functions.joins import broadcast_join

    cust = pq_.read_table(f"{sf_dir}/customer.parquet",
                          columns=["c_custkey", "c_mktsegment"]).to_pandas()
    building = set(cust[cust.c_mktsegment == "BUILDING"].c_custkey)
    cut = np.datetime64("1997-03-15", "us")

    orders = pq_.read_table(f"{sf_dir}/orders.parquet",
                            columns=["o_orderkey", "o_custkey", "o_orderdate"]).to_pandas()
    dim = orders[(orders.o_custkey.isin(building))
                 & (orders.o_orderdate < cut)][["o_orderkey", "o_orderdate"]]
    dim = dim.rename(columns={"o_orderkey": "l_orderkey"})

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"])

    def rev(tbl: pa.Table) -> pa.Table:
        tbl = tbl.filter(pc.greater(tbl.column("l_shipdate"), pa.scalar(cut)))
        disc = pc.multiply(tbl.column("l_extendedprice"),
                           pc.subtract(pa.scalar(1.0), tbl.column("l_discount")))
        return pa.table({"l_orderkey": tbl.column("l_orderkey"), "rev": disc})

    joined = broadcast_join(
        li.map_batches(rev, batch_format="pyarrow", zero_copy_batch=True),
        dim, on="l_orderkey",
    )
    grouped = _grouped_sum(joined, ["l_orderkey", "o_orderdate"], ["rev"])
    rows = grouped.take_all()
    df = pd.DataFrame([{
        "l_orderkey": r["l_orderkey"],
        "o_orderdate": r["o_orderdate"],
        "revenue": round(r["sum(rev_sum)"], 2),
    } for r in rows])
    df = df.sort_values(["revenue", "l_orderkey"],
                        ascending=[False, True]).head(10).reset_index(drop=True)
    return df


SQL_TPCH_Q3 = """
SELECT l_orderkey, o_orderdate,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue
FROM customer JOIN orders ON c_custkey = o_custkey
              JOIN lineitem ON o_orderkey = l_orderkey
WHERE c_mktsegment = 'BUILDING'
  AND o_orderdate < TIMESTAMP '1997-03-15'
  AND l_shipdate > TIMESTAMP '1997-03-15'
GROUP BY l_orderkey, o_orderdate
ORDER BY revenue DESC, l_orderkey LIMIT 10
"""
register_query(q_tpch_q3, SQL_TPCH_Q3, gate=17)


def q_content_sha_corpus(sf_dir: str) -> pd.DataFrame:
    """Content lineage + versioning in one frame:

    - 'sha': row-for-row sha256 lineage parity (the north-rule per-row
      invariant): our vectorizable sha256 column vs DuckDB's sha256().
    - 'diff': corpus diff between two snapshots (stages/corpusdiff.py):
      old = docs with doc_id%5 != 0, new = docs with doc_id%5 != 1 where
      %5==2 docs are edited — statuses added/removed/changed/unchanged per
      id from one side-tagged hash exchange; oracle = SQL FULL OUTER JOIN."""
    from great_expectations_ray.stages.corpusdiff import diff_corpora
    from great_expectations_ray.stages.scrub import sha256_column

    ds = _derived_corpus(sf_dir)

    def h(tbl: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": tbl.column("doc_id"),
            "content_sha256": sha256_column(tbl.column("content")),
        })

    rows = ds.map_batches(h, batch_format="pyarrow").take_all()
    sha = pd.DataFrame(rows)
    sha.insert(0, "method", "sha")
    sha = sha.rename(columns={"content_sha256": "v"})

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def snapshot(drop_mod: int, edit: bool):
        def f(tbl: pa.Table) -> pa.Table:
            ids = np.asarray(pc.cast(tbl.column("doc_id"), pa.int64()))
            keep = ids % 5 != drop_mod
            sub = tbl.filter(pa.array(keep))
            if not edit:
                return sub
            sids = np.asarray(pc.cast(sub.column("doc_id"), pa.int64()))
            suffix = pa.array(np.where(sids % 5 == 2, " edited", ""))
            text = pc.binary_join_element_wise(
                pc.cast(sub.column("text").combine_chunks(), pa.string()),
                suffix, "")
            return sub.set_column(sub.column_names.index("text"), "text", text)

        return docs.map_batches(f, batch_format="pyarrow",
                                zero_copy_batch=True)

    diff = (diff_corpora(snapshot(0, False), snapshot(1, True),
                         id_col="doc_id", content_col="text")
            .to_pandas())
    diff.insert(0, "method", "diff")
    diff = diff.rename(columns={"status": "v"})

    out = pd.concat([sha[["method", "doc_id", "v"]],
                     diff[["method", "doc_id", "v"]]], ignore_index=True)
    return (out.sort_values(["method", "doc_id"], kind="mergesort")
            .reset_index(drop=True))


SQL_CONTENT_SHA_CORPUS = f"""
WITH {_SQL_CORPUS_CTE},
old AS (SELECT doc_id, text FROM documents WHERE doc_id % 5 <> 0),
new AS (SELECT doc_id,
               text || CASE WHEN doc_id % 5 = 2 THEN ' edited' ELSE '' END
                 AS text
        FROM documents WHERE doc_id % 5 <> 1)
SELECT 'sha' AS method, doc_id, sha256(content) AS v FROM scored
UNION ALL
SELECT 'diff', coalesce(o.doc_id, n.doc_id),
       CASE WHEN o.doc_id IS NULL THEN 'added'
            WHEN n.doc_id IS NULL THEN 'removed'
            WHEN o.text <> n.text THEN 'changed'
            ELSE 'unchanged' END
FROM old o FULL OUTER JOIN new n ON o.doc_id = n.doc_id
ORDER BY method, doc_id
"""
register_query(q_content_sha_corpus, SQL_CONTENT_SHA_CORPUS, gate=11)


def q_sha_prefix_dedup(sf_dir: str) -> pd.DataFrame:
    """Exact dedup on sha256(40-char prefix) — hash-key groupby keep-first."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def add_key(tbl: pa.Table) -> pa.Table:
        from great_expectations_ray.stages.scrub import sha256_column

        prefix = pc.utf8_slice_codeunits(tbl.column("text").combine_chunks(), 0, 40)
        return tbl.append_column("key", sha256_column(prefix))

    keyed = ds.map_batches(add_key, batch_format="pyarrow", zero_copy_batch=True)
    kept = dedup_exact(keyed, ["key"], order_by="doc_id")
    ids = sorted(r["doc_id"] for r in kept.select_columns(["doc_id"]).take_all())
    return pd.DataFrame({"doc_id": ids})


SQL_SHA_PREFIX_DEDUP = """
SELECT min(doc_id) AS doc_id FROM documents
GROUP BY sha256(substr(text, 1, 40)) ORDER BY doc_id
"""
register_query(q_sha_prefix_dedup, SQL_SHA_PREFIX_DEDUP)


# --------------------------------------------------------------------------- #
# rows-only queries (model-based — not SQL-expressible; driver records a
# weaker rows-only check, SURVEY §3 note)
# --------------------------------------------------------------------------- #


def q_minhash_neardup_docs(sf_dir: str) -> pd.DataFrame:
    """MinHash+LSH near-dup marking over documents (deterministic seeds)."""
    from great_expectations_ray.stages.neardup import minhash_lsh_mark_duplicates

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = minhash_lsh_mark_duplicates(ds, text_col="text", id_col="doc_id")
    rows = out.take_all()
    df = pd.DataFrame([
        {"doc_id": r["doc_id"], "is_neardup": bool(r["max(is_neardup)"])} for r in rows
    ])
    return df.sort_values("doc_id").reset_index(drop=True)


register_query(q_minhash_neardup_docs, _fixture_sql(
    "minhash_neardup_docs", "doc_id, is_neardup", _FP_DOCS, "doc_id"))


def q_cc_cluster_docs(sf_dir: str) -> pd.DataFrame:
    """Transitive fuzzy-dedup clusters: LSH bucket star edges -> distributed
    connected components (hash-min label propagation with shortcut doubling)
    -> (doc_id, cluster).  Oracle: fixture parquet from an independent
    union-find over the same bucket construction
    (tools/gen_oracle_fixtures.py cc_cluster_fixture)."""
    from great_expectations_ray.stages.cc_cluster import cluster_near_duplicates

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = cluster_near_duplicates(ds, text_col="text", id_col="doc_id")
    rows = out.take_all()
    df = pd.DataFrame([
        {"doc_id": r["doc_id"], "cluster": r["cluster"]} for r in rows
    ])
    return df.sort_values("doc_id").reset_index(drop=True)


register_query(q_cc_cluster_docs, _fixture_sql(
    "cc_cluster_docs", "doc_id, cluster", _FP_DOCS, "doc_id"), bench=True)


def q_cc_keep_best_docs(sf_dir: str) -> pd.DataFrame:
    """Best-of-cluster retention over the transitive fuzzy-dedup clusters:
    keep the LONGEST doc (n_chars; ties -> min doc_id) of each component
    (stages/cc_cluster.py keep_best_in_cluster).  Oracle: pure SQL window
    over the cc_cluster fixture joined to documents."""
    from great_expectations_ray.stages.cc_cluster import (
        cluster_near_duplicates,
        keep_best_in_cluster,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "n_chars"])
    clustered = cluster_near_duplicates(ds, text_col="text", id_col="doc_id")
    best = keep_best_in_cluster(
        clustered, ds.select_columns(["doc_id", "n_chars"]),
        id_col="doc_id", score_col="n_chars",
    )
    rows = best.take_all()
    df = pd.DataFrame([
        {"doc_id": r["doc_id"], "keep": bool(r["keep"])} for r in rows
    ])
    return df.sort_values("doc_id").reset_index(drop=True)


register_query(q_cc_keep_best_docs, (
    "SELECT f.doc_id, (ROW_NUMBER() OVER ("
    "PARTITION BY f.cluster ORDER BY d.n_chars DESC, f.doc_id ASC) = 1)"
    " AS keep "
    f"FROM read_parquet('{os.path.join(_FIXTURES, 'cc_cluster_docs.parquet')}') f "
    "JOIN documents d USING (doc_id) "
    f"WHERE f.fp = {_FP_DOCS} ORDER BY f.doc_id"
))


def q_ngram_jaccard_neardup_docs(sf_dir: str) -> pd.DataFrame:
    """Exact n-gram Jaccard near-dup marking: LSH-banded candidates, star
    pairing per bucket, EXACT deduplicated k-gram Jaccard verify vs the
    bucket representative (threshold 0.985 — prunes ~half the raw LSH
    candidates on this corpus, so the verify step is exercised).  Oracle:
    independent per-doc python-set fixture
    (tools/gen_oracle_fixtures.py ngram_jaccard_fixture)."""
    from great_expectations_ray.stages.neardup import ngram_jaccard_mark_duplicates

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = ngram_jaccard_mark_duplicates(
        ds, text_col="text", id_col="doc_id", threshold=0.985
    )
    rows = out.take_all()
    df = pd.DataFrame([
        {"doc_id": r["doc_id"], "is_neardup": bool(r["max(is_neardup)"])} for r in rows
    ])
    return df.sort_values("doc_id").reset_index(drop=True)


register_query(q_ngram_jaccard_neardup_docs, _fixture_sql(
    "ngram_jaccard_neardup_docs", "doc_id, is_neardup", _FP_DOCS, "doc_id"))


def q_simhash_neardup_docs(sf_dir: str) -> pd.DataFrame:
    """SimHash hamming-band near-dup marking over documents."""
    from great_expectations_ray.stages.neardup import simhash_mark_duplicates

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = simhash_mark_duplicates(ds, text_col="text", id_col="doc_id")
    rows = out.take_all()
    df = pd.DataFrame([
        {"doc_id": r["doc_id"], "is_neardup": bool(r["max(is_neardup)"])} for r in rows
    ])
    return df.sort_values("doc_id").reset_index(drop=True)


register_query(q_simhash_neardup_docs, _fixture_sql(
    "simhash_neardup_docs", "doc_id, is_neardup", _FP_DOCS, "doc_id"))


def q_embedding_neardup(sf_dir: str) -> pd.DataFrame:
    """Embedding-cosine near-dup via hyperplane-LSH buckets + exact verify."""
    from great_expectations_ray.stages.neardup import embedding_mark_duplicates

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = embedding_mark_duplicates(ds, id_col="vec_id", cosine_threshold=0.9)
    rows = out.take_all()
    df = pd.DataFrame([
        {"vec_id": r["vec_id"], "is_neardup": bool(r["max(is_neardup)"])} for r in rows
    ])
    return df.sort_values("vec_id").reset_index(drop=True)


register_query(q_embedding_neardup, _fixture_sql(
    "embedding_neardup", "vec_id, is_neardup", _FP_EMB, "vec_id"))


def q_lsh_ann_topk(sf_dir: str) -> pd.DataFrame:
    """Approximate ANN (LSH-bucketed) — the scale path next to brute force."""
    from great_expectations_ray.stages.ann import lsh_topk

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q_row = [r for r in ds.filter(expr="vec_id == 0").take(1)][0]
    query = np.asarray(q_row["embedding"], dtype=np.float64)
    top = lsh_topk(ds, query, k=10)
    return pd.DataFrame([{"vec_id": vid, "sim": round(s, 6)} for vid, s in top]) \
        .sort_values("vec_id").reset_index(drop=True)


register_query(q_lsh_ann_topk, _fixture_sql(
    "lsh_ann_topk", "vec_id, sim", _FP_EMB, "vec_id"))


def q_ivf_ann_topk(sf_dir: str) -> pd.DataFrame:
    """IVF ANN (seeded spherical-k-means coarse quantizer) — the third ANN
    path next to brute force and hyperplane LSH."""
    from great_expectations_ray.stages.ann import ivf_topk

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q_row = [r for r in ds.filter(expr="vec_id == 0").take(1)][0]
    query = np.asarray(q_row["embedding"], dtype=np.float64)
    top = ivf_topk(ds, query, k=10)
    return pd.DataFrame([{"vec_id": vid, "sim": round(s, 6)} for vid, s in top]) \
        .sort_values("vec_id").reset_index(drop=True)


register_query(q_ivf_ann_topk, _fixture_sql(
    "ivf_ann_topk", "vec_id, sim", _FP_EMB, "vec_id"))


def q_langid_docs(sf_dir: str) -> pd.DataFrame:
    """Language-ID stage over documents (deterministic classifier)."""
    from great_expectations_ray.stages.langid import LangIdScorer

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    scored = map_per_worker(ds, LangIdScorer, {"column": "text"},
                            batch_format="pyarrow")
    rows = scored.select_columns(["doc_id", "lang_pred"]).take_all()
    return pd.DataFrame(rows).sort_values("doc_id").reset_index(drop=True)


register_query(q_langid_docs, _fixture_sql(
    "langid_docs", "doc_id, lang_pred", _FP_DOCS, "doc_id"))


def q_perplexity_docs(sf_dir: str) -> pd.DataFrame:
    """Perplexity stage (broadcast LM) over documents."""
    import ray

    from great_expectations_ray.stages.perplexity import (
        PerplexityScorer,
        build_reference_model,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    model = build_reference_model(ds, sample_rows=200, column="text", id_col="doc_id")
    ref = ray.put(model)
    scored = map_per_worker(
        ds, PerplexityScorer,
        # precise: float64 accumulation so the 6dp-rounded values are stable
        # against the fixture oracle's independent re-summation
        {"model_ref": ref, "column": "text", "precise": True},
        batch_format="pyarrow",
    )
    rows = scored.select_columns(["doc_id", "perplexity"]).take_all()
    df = pd.DataFrame(rows).sort_values("doc_id").reset_index(drop=True)
    df["perplexity"] = df["perplexity"].round(6)
    return df


register_query(q_perplexity_docs, _fixture_sql(
    "perplexity_docs", "doc_id, perplexity", _FP_DOCS, "doc_id"))


def q_bpe_token_stats_docs(sf_dir: str) -> pd.DataFrame:
    """BPE-ish pre-tokenizer counting (TokenCounter stage) with a per-lang
    rollup; SQL oracle counts the same RE2 pattern via regexp_extract_all."""
    from great_expectations_ray.stages.text_stats import TokenCounter

    ds = _read(sf_dir, "documents", columns=["lang", "text"])
    counted = ds.map_batches(TokenCounter(column="text"), batch_format="pyarrow")

    def partial(tbl: pa.Table) -> pa.Table:
        t = tbl.select(["lang", "n_tokens_ws", "n_tokens_bpe"])
        return t.group_by(["lang"]).aggregate(
            [("n_tokens_ws", "sum"), ("n_tokens_bpe", "sum")]
        )

    grouped = (
        counted.map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .sum(["n_tokens_ws_sum", "n_tokens_bpe_sum"])
    )
    rows = grouped.take_all()
    df = pd.DataFrame([
        {"lang": r["lang"], "ws_tokens": r["sum(n_tokens_ws_sum)"],
         "bpe_tokens": r["sum(n_tokens_bpe_sum)"]}
        for r in rows
    ])
    return df.sort_values("lang").reset_index(drop=True)


_BPE_SQL_PAT = (
    "''(?:s|t|re|ve|m|ll|d)| ?\\p{L}+| ?\\p{N}+| ?[^\\s\\p{L}\\p{N}]+|\\s+"
)

SQL_BPE_TOKEN_STATS_DOCS = f"""
SELECT lang,
       CAST(SUM(len(regexp_extract_all(text, '\\S+'))) AS BIGINT) AS ws_tokens,
       CAST(SUM(len(regexp_extract_all(text, '{_BPE_SQL_PAT}'))) AS BIGINT) AS bpe_tokens
FROM documents GROUP BY lang ORDER BY lang
"""
register_query(q_bpe_token_stats_docs, SQL_BPE_TOKEN_STATS_DOCS, bench=True)


def q_minhash_verified_docs(sf_dir: str) -> pd.DataFrame:
    """MinHash+LSH with in-bucket signature-Jaccard verification (0.5):
    bucket collisions alone don't mark — the verify predicate must pass."""
    from great_expectations_ray.stages.neardup import minhash_lsh_mark_duplicates

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = minhash_lsh_mark_duplicates(
        ds, text_col="text", id_col="doc_id", jaccard_threshold=0.5
    )
    rows = out.take_all()
    df = pd.DataFrame([
        {"doc_id": r["doc_id"], "is_neardup": bool(r["max(is_neardup)"])} for r in rows
    ])
    return df.sort_values("doc_id").reset_index(drop=True)


register_query(q_minhash_verified_docs, _fixture_sql(
    "minhash_verified_docs", "doc_id, is_neardup", _FP_DOCS, "doc_id"))


def q_winnow_fingerprint_docs(sf_dir: str) -> pd.DataFrame:
    """Winnowing document fingerprints (SIGMOD'03): per-doc fingerprint
    count + xor-fold digest (int64 two's-complement view for SQL parity)."""
    from great_expectations_ray.stages.fingerprint import WinnowFingerprinter

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    scored = ds.map_batches(WinnowFingerprinter(column="text"),
                            batch_format="pyarrow")
    rows = scored.select_columns(["doc_id", "n_fingerprints", "fp_digest"]).take_all()
    df = pd.DataFrame([
        {"doc_id": r["doc_id"], "n_fingerprints": r["n_fingerprints"],
         "fp_digest": int(np.uint64(r["fp_digest"]).astype(np.int64))}
        for r in rows
    ])
    return df.sort_values("doc_id").reset_index(drop=True)


register_query(q_winnow_fingerprint_docs, _fixture_sql(
    "winnow_fingerprint_docs", "doc_id, n_fingerprints, fp_digest",
    _FP_DOCS, "doc_id"), bench=True)


def q_fingerprint_overlap_docs(sf_dir: str) -> pd.DataFrame:
    """Copy-detection join: doc pairs sharing >=30 winnowed fingerprints."""
    from great_expectations_ray.stages.fingerprint import (
        fingerprint_overlap_candidates,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = fingerprint_overlap_candidates(ds, id_col="doc_id", text_col="text",
                                         min_shared=30)
    df = pd.DataFrame(out.take_all())
    if df.empty:
        return pd.DataFrame({"id_a": [], "id_b": [], "shared": []}).astype("int64")
    df = df[["id_a", "id_b", "shared"]].astype("int64")
    return df.sort_values(["id_a", "id_b"]).reset_index(drop=True)


register_query(q_fingerprint_overlap_docs, _fixture_sql(
    "fingerprint_overlap_docs", "id_a, id_b, shared", _FP_DOCS,
    "id_a, id_b"))


def q_repetition_docs(sf_dir: str) -> pd.DataFrame:
    """Gopher-style repetition & word-quality signals per document
    (stages/repetition.py) — top-{2,3,4}-gram char fraction, duplicated-
    5-gram char fraction, word count / mean word length.  Embarrassingly
    parallel: one vectorized map_batches, no shuffle."""
    from great_expectations_ray.stages.repetition import repetition_stats_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(
        repetition_stats_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def _sql_gram_cte(n: int) -> str:
    """CTE pair computing per-doc gram (count, len) stats for word n-grams."""
    return f"""
g{n} AS (SELECT doc_id, unnest(list_transform(range(1, greatest(len(toks)-{n}+1, 0) + 1),
        i -> array_to_string(toks[i:i+{n}-1], ' '))) AS gram FROM d),
c{n} AS (SELECT doc_id, gram, count(*) AS c, length(gram) AS l
         FROM g{n} GROUP BY 1, 2)"""


SQL_REPETITION_DOCS = (
    r"""
WITH d AS (SELECT doc_id, length(text) AS total_chars,
                  regexp_extract_all(text, '\S+') AS toks
           FROM documents),"""
    + ",".join(_sql_gram_cte(n) for n in (2, 3, 4, 5))
    + r""",
t2 AS (SELECT doc_id, arg_max(c*l, c*2097152 + l) AS cov FROM c2 GROUP BY doc_id),
t3 AS (SELECT doc_id, arg_max(c*l, c*2097152 + l) AS cov FROM c3 GROUP BY doc_id),
t4 AS (SELECT doc_id, arg_max(c*l, c*2097152 + l) AS cov FROM c4 GROUP BY doc_id),
u5 AS (SELECT doc_id, sum(CASE WHEN c >= 2 THEN c*l ELSE 0 END) AS cov
       FROM c5 GROUP BY doc_id)
SELECT d.doc_id,
       len(toks) AS n_words,
       round(coalesce(list_sum(list_transform(toks, t -> length(t))) * 1.0
             / greatest(len(toks), 1), 0), 6) AS mean_word_len,
       round(coalesce(t2.cov * 1.0 / greatest(d.total_chars, 1), 0), 6) AS top2_char_frac,
       round(coalesce(t3.cov * 1.0 / greatest(d.total_chars, 1), 0), 6) AS top3_char_frac,
       round(coalesce(t4.cov * 1.0 / greatest(d.total_chars, 1), 0), 6) AS top4_char_frac,
       round(coalesce(u5.cov * 1.0 / greatest(d.total_chars, 1), 0), 6) AS dup5_char_frac
FROM d
LEFT JOIN t2 USING (doc_id) LEFT JOIN t3 USING (doc_id)
LEFT JOIN t4 USING (doc_id) LEFT JOIN u5 USING (doc_id)
ORDER BY d.doc_id
"""
)
register_query(q_repetition_docs, SQL_REPETITION_DOCS, gate=19, bench=True)


def q_decontaminate_docs(sf_dir: str) -> pd.DataFrame:
    """Benchmark decontamination (stages/decontaminate.py): docs with
    doc_id %% 37 == 0 act as the 'benchmark set'; every other doc is flagged
    iff it shares a word 5-gram with any benchmark doc.  The benchmark gram
    hash set is broadcast via ray.put and fetched once per worker."""
    from great_expectations_ray.stages.decontaminate import mark_contaminated

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def _mod(tbl: pa.Table, keep_zero: bool) -> pa.Table:
        ids = np.asarray(tbl.column("doc_id")) % 37
        return tbl.filter(pa.array((ids == 0) if keep_zero else (ids != 0)))

    bench = ds.map_batches(lambda t: _mod(t, True), batch_format="pyarrow")
    corpus = ds.map_batches(lambda t: _mod(t, False), batch_format="pyarrow")
    out = mark_contaminated(corpus, bench, n=5)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


SQL_DECONTAMINATE_DOCS = r"""
WITH d AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS toks FROM documents),
g AS (SELECT doc_id, unnest(list_transform(range(1, greatest(len(toks)-4, 0) + 1),
      i -> array_to_string(toks[i:i+4], ' '))) AS gram FROM d),
b AS (SELECT DISTINCT gram FROM g WHERE doc_id % 37 = 0),
hit AS (SELECT DISTINCT g.doc_id FROM g JOIN b USING (gram) WHERE g.doc_id % 37 <> 0)
SELECT d.doc_id, (hit.doc_id IS NOT NULL) AS contaminated
FROM d LEFT JOIN hit ON d.doc_id = hit.doc_id
WHERE d.doc_id % 37 <> 0 ORDER BY d.doc_id
"""
register_query(q_decontaminate_docs, SQL_DECONTAMINATE_DOCS, gate=20, bench=True)


def q_ks_uniform_quantity(sf_dir: str) -> pd.DataFrame:
    """Distributed-exact KS statistic (#49 machinery, functions/ks.py):
    l_quantity against uniform(loc=1, scale=49).  One Ray sort + tiny
    offset-linear per-batch summaries; the oracle recomputes D with a SQL
    window over the full sort."""
    from great_expectations_ray.functions.ks import distributed_ks_statistic, make_cdf

    ds = _read(sf_dir, "lineitem", columns=["l_quantity"])
    # n must be the NONNULL count (the ECDF denominator; the SQL oracle
    # filters IS NOT NULL) — ds.count() would drift on null-bearing data
    n = ds.map_batches(
        lambda t: {"c": [len(t.column("l_quantity").drop_null())]},
        batch_format="pyarrow",
    ).sum("c")
    cdf = make_cdf("uniform", {"loc": 1.0, "scale": 49.0})
    d = distributed_ks_statistic(ds, "l_quantity", cdf, n)
    return pd.DataFrame([{"d_stat": round(d, 9), "n": n}])


SQL_KS_UNIFORM_QUANTITY = """
WITH v AS (SELECT CAST(l_quantity AS DOUBLE) AS x FROM lineitem WHERE l_quantity IS NOT NULL),
r AS (SELECT x, row_number() OVER (ORDER BY x) AS rn, count(*) OVER () AS n FROM v),
f AS (SELECT rn, n, least(greatest((x - 1.0)/49.0, 0), 1) AS fx FROM r)
SELECT round(max(greatest(rn*1.0/n - fx, fx - (rn-1.0)/n)), 9) AS d_stat,
       CAST(max(n) AS BIGINT) AS n
FROM f
"""
register_query(q_ks_uniform_quantity, SQL_KS_UNIFORM_QUANTITY, bench=True)


def q_pack_docs(sf_dir: str) -> pd.DataFrame:
    """Concat-and-chunk sequence packing (stages/packing.py): global token
    offset + sequence id per document via a distributed prefix sum (one sort
    + per-block 2-tuples to the driver)."""
    from great_expectations_ray.stages.packing import global_token_offsets

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def tok(tbl: pa.Table) -> pa.Table:
        t = pc.count_substring_regex(tbl.column("text"), r"\S+")
        return pa.table({
            "doc_id": tbl.column("doc_id"),
            "tokens": pc.cast(t, pa.int64()),
        })

    with_tokens = ds.map_batches(tok, batch_format="pyarrow", zero_copy_batch=True)
    out = global_token_offsets(
        with_tokens, token_col="tokens", order_col="doc_id", seq_len=2048
    )
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


SQL_PACK_DOCS = r"""
WITH t AS (SELECT doc_id, len(regexp_extract_all(text, '\S+')) AS tokens FROM documents),
c AS (SELECT doc_id, tokens,
             coalesce(CAST(sum(tokens) OVER (ORDER BY doc_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS BIGINT), 0) AS prior
      FROM t)
SELECT doc_id, CAST(tokens AS BIGINT) AS tokens, prior AS token_offset,
       CAST(prior // 2048 AS BIGINT) AS seq_id
FROM c ORDER BY doc_id
"""
register_query(q_pack_docs, SQL_PACK_DOCS)


def q_stratified_docs(sf_dir: str) -> pd.DataFrame:
    """Per-group selection quotas, both flavors:

    - 'md5': deterministic stratified sample (stages/stratified.py) —
      exactly 5 docs per language by smallest md5(doc_id) rank; map-side
      top-k bounds the one groupby(lang) exchange to ≤5 rows per
      (batch, lang).
    - 'quality': grouped top-fraction (stages/quota.py
      select_top_fraction_grouped) — the best 25% of each language by zlib
      compression ratio, ties to the lowest doc_id; per-language quality
      quotas so no language crowds out the rest."""
    from great_expectations_ray.stages.compressratio import score_compression
    from great_expectations_ray.stages.quota import select_top_fraction_grouped
    from great_expectations_ray.stages.stratified import stratified_sample

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    md5s = stratified_sample(ds, strata_cols=["lang"], id_col="doc_id", k=5)
    md5s = md5s.to_pandas()[["lang", "doc_id"]]
    md5s.insert(0, "method", "md5")

    scored = score_compression(
        _read(sf_dir, "documents", columns=["doc_id", "lang", "text"]),
        text_col="text")
    q = select_top_fraction_grouped(
        scored, score_col="comp_ratio", id_col="doc_id",
        group_col="lang", frac=0.25).to_pandas()
    q = q.loc[q["selected"], ["lang", "doc_id"]]
    q.insert(0, "method", "quality")

    out = pd.concat([md5s, q], ignore_index=True)
    return (out.sort_values(["method", "lang", "doc_id"], kind="mergesort")
            .reset_index(drop=True))


SQL_STRATIFIED_DOCS = f"""
SELECT 'md5' AS method, lang, doc_id FROM documents
QUALIFY row_number() OVER (
    PARTITION BY lang ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) <= 5
UNION ALL
SELECT 'quality', lang, doc_id FROM (
  SELECT d.lang, f.doc_id, f.ratio FROM
    read_parquet('{{fx}}/zlib_ratio_docs.parquet') f
    JOIN documents d USING (doc_id)
  WHERE f.fp = {{fp}})
QUALIFY row_number() OVER (PARTITION BY lang ORDER BY ratio DESC, doc_id)
        <= ceil(0.25 * COUNT(*) OVER (PARTITION BY lang))
ORDER BY method, lang, doc_id
""".format(
    # _FIXTURES/_FP_DOCS are defined further down this module; inline here
    fx=os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "fixtures"),
    fp="(SELECT CAST(SUM(doc_id * n_chars) AS BIGINT) FROM documents)",
)
register_query(q_stratified_docs, SQL_STRATIFIED_DOCS, gate=22, bench=True)


_PROFILE_COLS = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]


def q_profile_lineitem(sf_dir: str) -> pd.DataFrame:
    """Onboarding profiler metrics (pipelines/profiler.py one-pass profile):
    per-column row/null counts + min/max/mean for lineitem numerics."""
    from great_expectations_ray.pipelines.profiler import profile

    ds = _read(sf_dir, "lineitem", columns=_PROFILE_COLS)
    profs = profile(ds)
    rows = []
    for c in _PROFILE_COLS:
        p = profs[c]
        # oracle only the exactly-reproducible metrics: counts and min/max
        # (no float accumulation).  A rounded mean/sum sits arbitrarily close
        # to a rounding boundary and flips with the batch split — a rounded
        # Chan-merged mean was observed to flake at sf0.01.
        rows.append({
            "col": c, "row_count": p.row_count, "null_count": p.null_count,
            "min_v": round(p.agg.min, 6), "max_v": round(p.agg.max, 6),
        })
    return pd.DataFrame(rows).sort_values("col").reset_index(drop=True)


SQL_PROFILE_LINEITEM = " UNION ALL ".join(
    f"""SELECT '{c}' AS col, count(*) AS row_count,
        count(*) - count({c}) AS null_count,
        round(min(CAST({c} AS DOUBLE)), 6) AS min_v,
        round(max(CAST({c} AS DOUBLE)), 6) AS max_v
        FROM lineitem"""
    for c in _PROFILE_COLS
) + " ORDER BY col"
register_query(q_profile_lineitem, SQL_PROFILE_LINEITEM, gate=23)


def q_asof_events(sf_dir: str) -> pd.DataFrame:
    """Distributed as-of join (functions/asof.py): for each 'error' event,
    the latest same-user 'click' at or before it — tagged union, one
    bucketed key exchange, pd.merge_asof per bucket.  Oracle: DuckDB's
    native ASOF LEFT JOIN."""
    from great_expectations_ray.functions.asof import asof_join

    ds = _read(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type", "value"])

    def typed(tbl: pa.Table, t: str) -> pa.Table:
        return tbl.filter(pc.equal(tbl.column("event_type"), t))

    left = ds.map_batches(lambda b: typed(b, "error"), batch_format="pyarrow")
    # dedupe right on (user_id, ts) keeping MIN event_id: with ties the asof
    # winner is engine-arbitrary, so both sides must agree on ONE row
    right = dedup_exact(
        ds.map_batches(lambda b: typed(b, "click"), batch_format="pyarrow"),
        ["user_id", "ts"], order_by="event_id",
    )
    out = asof_join(
        left, right, by="user_id", on="ts",
        left_cols=["event_id"], right_cols=["event_id", "value"],
    )
    df = out.to_pandas()[["event_id", "event_id_r", "value_r"]]
    df.columns = ["event_id", "match_event_id", "match_value"]
    df["match_value"] = df["match_value"].round(2)
    return df.sort_values("event_id").reset_index(drop=True)


SQL_ASOF_EVENTS = """
SELECT l.event_id, r.event_id AS match_event_id, round(r.value, 2) AS match_value
FROM (SELECT * FROM events WHERE event_type = 'error') l
ASOF LEFT JOIN (
  SELECT * FROM events WHERE event_type = 'click'
  QUALIFY row_number() OVER (PARTITION BY user_id, ts ORDER BY event_id) = 1
) r
  ON l.user_id = r.user_id AND l.ts >= r.ts
ORDER BY l.event_id
"""
register_query(q_asof_events, SQL_ASOF_EVENTS, gate=24)


def q_range_join_quantity(sf_dir: str) -> pd.DataFrame:
    """Broadcast range join (functions/rangejoin.py): lineitem rows vs
    OVERLAPPING quantity bands (1:N), rolled up per band.  Oracle: plain SQL
    BETWEEN join against a VALUES interval table."""
    from great_expectations_ray.functions.rangejoin import range_join_broadcast

    bands = pd.DataFrame({
        "band": ["low", "mid", "high"],
        "lo": [1.0, 20.0, 35.0],
        "hi": [25.0, 40.0, 50.0],
    })
    ds = _read(sf_dir, "lineitem", columns=["l_quantity"])
    joined = range_join_broadcast(
        ds, bands, value_col="l_quantity",
        keep_cols=["l_quantity"], interval_cols=["band"],
    )

    def rollup(tbl: pa.Table) -> pa.Table:
        t = pa.table({
            "band": tbl.column("band"),
            "n": pa.array(np.ones(len(tbl), dtype=np.int64)),
            "qty": pc.cast(tbl.column("l_quantity"), pa.int64()),
        })
        return t.group_by(["band"]).aggregate([("n", "sum"), ("qty", "sum")])

    grouped = (
        joined.map_batches(rollup, batch_format="pyarrow")
        .groupby("band").sum(["n_sum", "qty_sum"])
    )
    rows = grouped.take_all()
    return pd.DataFrame([{
        "band": r["band"], "n": r["sum(n_sum)"], "sum_qty": r["sum(qty_sum)"],
    } for r in rows]).sort_values("band").reset_index(drop=True)


SQL_RANGE_JOIN_QUANTITY = """
SELECT b.band, count(*) AS n, CAST(sum(CAST(l.l_quantity AS BIGINT)) AS BIGINT) AS sum_qty
FROM lineitem l
JOIN (VALUES ('low', 1.0, 25.0), ('mid', 20.0, 40.0), ('high', 35.0, 50.0))
     b(band, lo, hi)
  ON l.l_quantity >= b.lo AND l.l_quantity <= b.hi
GROUP BY b.band ORDER BY b.band
"""
register_query(q_range_join_quantity, SQL_RANGE_JOIN_QUANTITY, gate=25)


def q_setops_nations(sf_dir: str) -> pd.DataFrame:
    """Table-level set ops (functions/setops.py): nation keys with customers
    INTERSECT/EXCEPT nation keys with suppliers — map-side dedup, one
    bucketed key exchange each."""
    from great_expectations_ray.functions.setops import (
        except_distinct,
        intersect_distinct,
    )

    cust = _read(sf_dir, "customer", columns=["c_nationkey"]).rename_columns(
        {"c_nationkey": "n"}
    )
    supp = _read(sf_dir, "supplier", columns=["s_nationkey"]).rename_columns(
        {"s_nationkey": "n"}
    )
    # source key dtype, read off the parquet schema (cheap — no execution);
    # used below to undo the empty-side concat upcast
    n_dtype = cust.schema().base_schema.field("n").type.to_pandas_dtype()
    both = intersect_distinct(cust, supp, ["n"]).to_pandas()
    only_cust = except_distinct(cust, supp, ["n"]).to_pandas()
    both["op"] = "intersect"
    only_cust["op"] = "except"
    out = pd.concat([both, only_cust], ignore_index=True)[["op", "n"]]
    # an empty EXCEPT side upcasts `n` to float64 in the concat — restore
    # the source integer dtype so the value hash matches the oracle
    out["n"] = out["n"].astype(n_dtype)
    return out.sort_values(["op", "n"]).reset_index(drop=True)


SQL_SETOPS_NATIONS = """
SELECT 'intersect' AS op, n FROM
  (SELECT c_nationkey AS n FROM customer INTERSECT SELECT s_nationkey FROM supplier)
UNION ALL
SELECT 'except' AS op, n FROM
  (SELECT c_nationkey AS n FROM customer EXCEPT SELECT s_nationkey FROM supplier)
ORDER BY op, n
"""
register_query(q_setops_nations, SQL_SETOPS_NATIONS, gate=26)


def q_window_rank_events(sf_dir: str) -> pd.DataFrame:
    """Partitioned window functions (functions/window_rank.py): per-user
    row_number by ts, lag(value), and a ROWS-BETWEEN-2-PRECEDING moving
    average — one bucketed key exchange.  ``value`` is 2-dp by
    construction, so lag and the frame sums run on fixed-point cents
    (rint(value*100) int64): integer frame sums are accumulation-order-free
    and the final double divisions are fixed-order, making both columns
    bit-exact vs DuckDB with NO rounding step."""
    from great_expectations_ray.functions.window_rank import windowed_rank

    ds = _read(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"])

    def add_cents(tbl: pa.Table) -> pa.Table:
        # Arrow round (half_to_even, same as np.rint) + checked cast: a null
        # value propagates to a null cent instead of NaN->undefined int64.
        cents = pc.cast(pc.round(pc.multiply(
            pc.cast(tbl.column("value"), pa.float64()), 100.0)), pa.int64())
        return tbl.append_column("cents", cents)

    ds = ds.map_batches(add_cents, batch_format="pyarrow", zero_copy_batch=True)
    # (ts, event_id) composite ordering: event_id breaks any ts tie so both
    # engines' row_number/lag are deterministic at every SF
    out = windowed_rank(
        ds, partition_by="user_id", order_by=["ts", "event_id"],
        value_col="cents", outputs=("row_number", "lag", "moving_avg"),
        keep_cols=("event_id",), frame_rows=2,
    ).to_pandas()
    out["lag"] = out["lag"] / 100.0
    out["mavg3"] = out["moving_avg"] / 100.0

    # sessionization arm (functions/window_rank.py sessionize): 1-based
    # gap-based session index per user — new session when the inter-event
    # gap exceeds 8 hours (the corpus's median gap is ~7.7 h, so sessions
    # split on roughly half the steps).  Integer cumsum: hash-exact vs SQL.
    from great_expectations_ray.functions.window_rank import sessionize

    sess = sessionize(
        ds, partition_by="user_id", order_by=["ts", "event_id"],
        ts_col="ts", gap="8 hours", keep_cols=("event_id",),
    ).to_pandas()
    out = out.merge(sess[["event_id", "session_idx"]], on="event_id")
    return (
        out[["event_id", "user_id", "row_number", "lag", "mavg3",
             "session_idx"]]
        .sort_values("event_id")
        .reset_index(drop=True)
    )


SQL_WINDOW_RANK_EVENTS = """
WITH e AS (
  SELECT event_id, ts, user_id,
         CAST(round(value * 100) AS BIGINT) AS cents
  FROM events),
l AS (
  SELECT event_id, ts, user_id,
         lag(ts) OVER w AS prev_ts,
         CAST(row_number() OVER w AS BIGINT) AS row_number,
         lag(cents) OVER w / 100.0 AS lag,
         (CAST(sum(cents) OVER w3 AS DOUBLE) / count(cents) OVER w3) / 100.0
           AS mavg3
  FROM e
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id),
         w3 AS (PARTITION BY user_id ORDER BY ts, event_id
                ROWS BETWEEN 2 PRECEDING AND CURRENT ROW))
SELECT event_id, user_id, row_number, lag, mavg3,
       CAST(SUM(CASE WHEN prev_ts IS NULL
                      OR ts - prev_ts > INTERVAL 8 HOURS
                     THEN 1 ELSE 0 END)
            OVER (PARTITION BY user_id ORDER BY ts, event_id)
            AS BIGINT) AS session_idx
FROM l ORDER BY event_id
"""
register_query(q_window_rank_events, SQL_WINDOW_RANK_EVENTS, gate=27)


def q_paragraph_dedup_docs(sf_dir: str) -> pd.DataFrame:
    """Corpus-level paragraph dedup (stages/paragraph_dedup.py — Lee et al.
    2021 shape): every repeated paragraph occurrence beyond its global first
    is removed and documents are rewritten.  The synthetic docs are
    single-line, so the separator is a space (word-level classes — high
    duplicate rate, exercises the hot-key path); min_len=4 keeps short
    tokens out of dedup entirely."""
    from great_expectations_ray.stages.paragraph_dedup import dedup_paragraphs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = dedup_paragraphs(ds, sep=" ", min_len=4)
    df = out.to_pandas()[["doc_id", "text", "n_dropped"]]
    return df.sort_values("doc_id").reset_index(drop=True)


SQL_PARAGRAPH_DEDUP_DOCS = """
WITH paras AS (
  SELECT doc_id, generate_subscripts(l, 1) AS idx, unnest(l) AS para
  FROM (SELECT doc_id, string_split(text, ' ') AS l FROM documents)
), marks AS (
  SELECT doc_id, idx, para,
         (length(para) < 4)
         OR (row_number() OVER (PARTITION BY para ORDER BY doc_id, idx) = 1) AS keep
  FROM paras
), rebuilt AS (
  SELECT doc_id,
         coalesce(string_agg(para, ' ' ORDER BY idx) FILTER (WHERE keep), '') AS text,
         CAST(count(*) FILTER (WHERE NOT keep) AS INT) AS n_dropped
  FROM marks GROUP BY doc_id
)
SELECT d.doc_id,
       CASE WHEN r.doc_id IS NULL THEN d.text ELSE r.text END AS text,
       coalesce(r.n_dropped, 0) AS n_dropped
FROM documents d LEFT JOIN rebuilt r USING (doc_id)
ORDER BY d.doc_id
"""
register_query(q_paragraph_dedup_docs, SQL_PARAGRAPH_DEDUP_DOCS, gate=28)


def q_tfidf_docs(sf_dir: str) -> pd.DataFrame:
    """TF-IDF top-5 terms per document (stages/tfidf.py): corpus DF via one
    bucketed exchange, broadcast idf, batch-local top-k.  Selection ranks by
    the smooth tf-idf value itself, rounded to 6dp so the key reproduces
    across engines, with term as the tie-break."""
    from great_expectations_ray.stages.tfidf import tfidf_topk

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = tfidf_topk(ds, k=5).to_pandas()
    return (
        out[["doc_id", "term", "tf", "df", "tfidf"]]
        .sort_values(["doc_id", "term"])
        .reset_index(drop=True)
    )


SQL_TFIDF_DOCS = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM documents
), filtered AS (
  SELECT doc_id, term FROM toks WHERE length(term) > 0
), tf AS (
  SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf FROM filtered GROUP BY doc_id, term
), dfx AS (
  SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df FROM filtered GROUP BY term
), n AS (SELECT count(*) AS n FROM documents)
SELECT tf.doc_id, tf.term, tf.tf, dfx.df,
       round(tf.tf * (ln((1.0 + n.n) / (1 + dfx.df)) + 1), 6) AS tfidf
FROM tf JOIN dfx USING (term) CROSS JOIN n
QUALIFY row_number() OVER (
  PARTITION BY tf.doc_id
  ORDER BY round(tf.tf * (ln((1.0 + n.n) / (1 + dfx.df)) + 1), 6) DESC,
           tf.term ASC) <= 5
ORDER BY doc_id, term
"""
register_query(q_tfidf_docs, SQL_TFIDF_DOCS, gate=29)


def q_fasttext_langid_docs(sf_dir: str) -> pd.DataFrame:
    """fastText-architecture classifier (stages/classifier.py): hashed
    unigram+bigram features, seeded embedding table, Rocchio centroids
    trained on the doc_id<200 corpus prefix, per-batch inference.  Oracle:
    fixture parquet from an independent per-doc reimplementation."""
    from great_expectations_ray.stages.classifier import classify

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    out = classify(ds).to_pandas()
    return (
        out[["doc_id", "pred_label", "pred_score"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


register_query(q_fasttext_langid_docs, _fixture_sql(
    "fasttext_langid_docs", "doc_id, pred_label, pred_score", _FP_DOCS,
    "doc_id"))


def q_semdedup_embeddings(sf_dir: str) -> pd.DataFrame:
    """SemDeDup (stages/semdedup.py): seeded k-means clusters + per-cluster
    greedy cosine pruning at threshold 0.9.  Oracle: fixture parquet from an
    independent reimplementation."""
    from great_expectations_ray.stages.semdedup import semdedup

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = semdedup(ds).to_pandas()
    return out.sort_values("vec_id").reset_index(drop=True)


register_query(q_semdedup_embeddings, _fixture_sql(
    "semdedup_embeddings", "vec_id, cluster, is_dup", _FP_EMB, "vec_id"), gate=31)


def q_heavy_hitters_words(sf_dir: str) -> pd.DataFrame:
    """Corpus term statistics, two engines in one frame:

    - 'hh': two-pass exact top-k heavy hitters (stages/heavyhitters.py):
      bounded per-batch candidate emission (≤capacity+1 values clear the
      n/(cap+1) bar) → broadcast candidate hashes → exact vectorized verify
      counts.  No value-keyed shuffle.  (value, cnt, h='').
    - 'index': full inverted-index build (stages/inverted_index.py):
      map-side (term, doc, tf) pre-agg → one bucketed exchange → doc-sorted
      posting lists.  (term, df, h=md5 of the 'doc:tf,…' posting)."""
    from great_expectations_ray.stages.heavyhitters import heavy_hitters
    from great_expectations_ray.stages.inverted_index import (
        build_inverted_index)

    ds = _read(sf_dir, "documents", columns=["text"])
    df = heavy_hitters(ds, col="text", k=10, mode="words")
    assert df.attrs["guaranteed"]

    import hashlib

    idx = (build_inverted_index(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        text_col="text", id_col="doc_id")
        .to_pandas().sort_values("term").reset_index(drop=True))
    frames = [
        pd.DataFrame({"method": "hh", "value": df["value"],
                      "cnt": df["cnt"], "h": ""}),
        pd.DataFrame({"method": "index", "value": idx["term"],
                      "cnt": idx["df"],
                      "h": [hashlib.md5(p.encode()).hexdigest()
                            for p in idx["posting"]]}),
    ]
    out = pd.concat(frames, ignore_index=True)
    return (out.sort_values(["method", "value"], kind="mergesort")
            .reset_index(drop=True))


SQL_HEAVY_HITTERS_WORDS = r"""
WITH t AS (SELECT unnest(regexp_extract_all(text, '\S+')) AS value FROM documents),
hh AS (SELECT value, count(*) AS cnt FROM t
       GROUP BY value ORDER BY cnt DESC, value LIMIT 10),
tok AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(lower(text), '[^a-z0-9_]+'),
                            x -> x <> '')) AS term
  FROM documents),
tf AS (SELECT term, doc_id, count(*) AS tf FROM tok GROUP BY term, doc_id),
inv AS (
  SELECT term, CAST(count(*) AS BIGINT) AS df,
         md5(string_agg(doc_id || ':' || tf, ',' ORDER BY doc_id)) AS posting_md5
  FROM tf GROUP BY term)
SELECT 'hh' AS method, value, CAST(cnt AS BIGINT) AS cnt, '' AS h FROM hh
UNION ALL
SELECT 'index', term, df, posting_md5 FROM inv
ORDER BY method, value
"""
register_query(q_heavy_hitters_words, SQL_HEAVY_HITTERS_WORDS, gate=32)


def q_bloom_incremental_dedup(sf_dir: str) -> pd.DataFrame:
    """Incremental dedup vs a prior snapshot, both flavors (docs with
    doc_id % 3 == 0 act as the snapshot in each):

    - 'exact' (stages/bloomdedup.py mark_known): a new doc is_known iff its
      30-char text prefix exists in the snapshot — bloom prefilter bounds
      the verify exchange to overlap + FP sliver, verdicts from raw-value
      equality.
    - 'minhash' (stages/neardup.py mark_known_neardup): a new doc is_known
      iff it shares any MinHash-LSH band bucket with a snapshot doc — the
      fuzzy path for continuously-crawled corpora; snapshot is never
      broadcast, both sides meet in one band-key exchange.  Oracle:
      independent per-doc fixture
      (tools/gen_oracle_fixtures.incremental_neardup_fixture)."""
    from great_expectations_ray.stages.bloomdedup import mark_known
    from great_expectations_ray.stages.neardup import mark_known_neardup

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def prep(tbl: pa.Table, keep_snap: bool) -> pa.Table:
        m = np.asarray(tbl.column("doc_id")) % 3 == 0
        sub = tbl.filter(pa.array(m if keep_snap else ~m))
        return pa.table({
            "doc_id": sub.column("doc_id"),
            "prefix": pc.utf8_slice_codeunits(sub.column("text").combine_chunks(), 0, 30),
        })

    snap = ds.map_batches(lambda t: prep(t, True), batch_format="pyarrow")
    new = ds.map_batches(lambda t: prep(t, False), batch_format="pyarrow")
    exact = (mark_known(new, snap, key_col="prefix", id_col="doc_id")
             .to_pandas())
    exact.insert(0, "method", "exact")

    def split(tbl: pa.Table, keep_snap: bool) -> pa.Table:
        m = np.asarray(tbl.column("doc_id")) % 3 == 0
        return tbl.filter(pa.array(m if keep_snap else ~m))

    mh = mark_known_neardup(
        ds.map_batches(lambda t: split(t, False), batch_format="pyarrow"),
        ds.map_batches(lambda t: split(t, True), batch_format="pyarrow"),
        text_col="text", id_col="doc_id",
    ).to_pandas()
    mh.insert(0, "method", "minhash")

    out = pd.concat([exact, mh], ignore_index=True)
    return (out.sort_values(["method", "doc_id"], kind="mergesort")
            .reset_index(drop=True))


SQL_BLOOM_INCREMENTAL_DEDUP = """
SELECT 'exact' AS method, d.doc_id,
       EXISTS(SELECT 1 FROM documents s
              WHERE s.doc_id % 3 = 0
                AND substr(s.text, 1, 30) = substr(d.text, 1, 30)) AS is_known
FROM documents d WHERE d.doc_id % 3 <> 0
UNION ALL
SELECT 'minhash' AS method, doc_id, is_known
FROM read_parquet('{fixtures}/incremental_neardup_docs.parquet')
WHERE fp = {fp_docs}
ORDER BY method, doc_id
""".format(
    # _FIXTURES/_FP_DOCS are defined further down this module; inline here
    fixtures=os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "fixtures"),
    fp_docs="(SELECT CAST(SUM(doc_id * n_chars) AS BIGINT) FROM documents)",
)
register_query(q_bloom_incremental_dedup, SQL_BLOOM_INCREMENTAL_DEDUP, gate=33)


def q_c4_clean_docs(sf_dir: str) -> pd.DataFrame:
    """C4-style line + document cleaning (stages/c4_filters.py).  The
    single-line synthetic docs are given line structure by splitting on the
    word ' batch ' (same replace on both sides); then: keep lines with ≥3
    words that don't contain 'spark'; keep docs with ≥2 surviving lines and
    no whole-word 'dup'.  One vectorized map_batches pass, no shuffle."""
    from great_expectations_ray.stages.c4_filters import C4Config, clean_batch

    cfg = C4Config(
        min_words_per_line=3,
        require_terminal_punct=False,
        boilerplate_regex="spark",
        min_lines=2,
        ban_regex=None,
        bad_words=("dup",),
    )
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def run(tbl: pa.Table) -> pa.Table:
        lined = pa.table({
            "doc_id": tbl.column("doc_id"),
            "text": pc.replace_substring(
                pc.cast(tbl.column("text").combine_chunks(), pa.string()),
                " batch ", "\n"),
        })
        return clean_batch(lined, config=cfg)

    out = ds.map_batches(run, batch_format="pyarrow", zero_copy_batch=True)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


SQL_C4_CLEAN_DOCS = r"""
WITH d AS (SELECT doc_id, replace(text, ' batch ', chr(10)) AS t FROM documents),
l AS (SELECT doc_id, t,
             list_filter(list_transform(string_split(t, chr(10)), x -> trim(x)),
                         x -> len(regexp_extract_all(x, '\S+')) >= 3
                              AND NOT regexp_matches(x, 'spark')) AS kept
      FROM d)
SELECT doc_id,
       coalesce(array_to_string(kept, chr(10)), '') AS clean_text,
       CAST(len(kept) AS BIGINT) AS n_lines_kept,
       (len(kept) >= 2 AND NOT regexp_matches(t, '(?i)\b(dup)\b')) AS keep
FROM l ORDER BY doc_id
"""
register_query(q_c4_clean_docs, SQL_C4_CLEAN_DOCS, gate=34, bench=True)


def q_bm25_search_docs(sf_dir: str) -> pd.DataFrame:
    """Okapi BM25 top-15 for the query 'scan merge window' (stages/bm25.py):
    query-term-only DF pass (tiny partials, zero shuffle), broadcast idf +
    avgdl, per-batch vectorized scoring with batch-local top-k, driver merge.
    Scores rounded half-away at 6dp on BOTH sides before ranking; ties break
    on doc_id."""
    from great_expectations_ray.stages.bm25 import bm25_topk

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = bm25_topk(ds, ["scan", "merge", "window"], k=15, k1=1.2, b=0.75)
    return out.astype({"doc_id": "int64"})


def _bm25_term_sql(i: int, term: str) -> tuple[str, str, str]:
    """(df CTE column, tf select column, score addend) for one query term —
    operation order matches stages/bm25.py exactly."""
    df = f"(SELECT count(*) FROM d WHERE list_contains(toks, '{term}')) AS df{i}"
    tf = f"len(list_filter(toks, x -> x = '{term}')) AS tf{i}"
    score = (
        f"ln(((st.n - fs.df{i}) + 0.5)/(fs.df{i} + 0.5) + 1.0) * "
        f"((s.tf{i} * 2.2)/(s.tf{i} + 1.2*((1.0 - 0.75) + (0.75 * s.dl)/st.avgdl)))"
    )
    return df, tf, score


def _bm25_sql(terms: list[str], k: int) -> str:
    parts = [_bm25_term_sql(i, t) for i, t in enumerate(terms)]
    return f"""
WITH d AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS toks FROM documents),
st AS (SELECT count(*) AS n,
              CAST(SUM(len(toks)) AS DOUBLE)/CAST(count(*) AS DOUBLE) AS avgdl FROM d),
fs AS (SELECT {', '.join(p[0] for p in parts)}),
s AS (SELECT doc_id, CAST(len(toks) AS DOUBLE) AS dl,
             {', '.join(p[1] for p in parts)} FROM d)
SELECT s.doc_id,
       round({' + '.join(p[2] for p in parts)}, 6) AS score
FROM s, st, fs
WHERE {' + '.join('s.tf%d' % i for i in range(len(terms)))} > 0
ORDER BY score DESC, s.doc_id LIMIT {k}
"""


SQL_BM25_SEARCH_DOCS = _bm25_sql(["scan", "merge", "window"], 15)
register_query(q_bm25_search_docs, SQL_BM25_SEARCH_DOCS, gate=35)


_MIX_WEIGHTS = {"src0": 2.0, "src1": 0.5, "src2": 1.25, "src3": 0.0}


def q_mix_repetition_docs(sf_dir: str) -> pd.DataFrame:
    """Mixture construction, both flavors in one frame:

    - 'mix': domain mixing with repetition factors (stages/mixing.py):
      src0×2.0, src1×0.5, src2×1.25, src3×0, all else ×1.0.  Fractional
      epochs select deterministically by md5(doc_id) rank (the hash-sampler
      device) — no randomness, no shuffle; rows explode in place with an
      epoch index.
    - 'budget': per-source token-budget cutoff (stages/quota.py
      token_budget_cutoff, n_chars as the token proxy, budget 15000):
      epoch = 1 while the running per-source char sum (ascending doc_id)
      stays within budget — mixture recipes stated as token budgets."""
    from great_expectations_ray.stages.mixing import mix_with_repetition
    from great_expectations_ray.stages.quota import token_budget_cutoff

    ds = _read(sf_dir, "documents", columns=["doc_id", "source"])
    out = mix_with_repetition(ds, _MIX_WEIGHTS).to_pandas()
    out = out.astype({"epoch": "int64"})
    out.insert(0, "method", "mix")

    bud = token_budget_cutoff(
        _read(sf_dir, "documents", columns=["doc_id", "source", "n_chars"]),
        token_col="n_chars", id_col="doc_id", group_col="source",
        budget=15000).to_pandas()
    bud = pd.DataFrame({"method": "budget", "doc_id": bud["doc_id"],
                        "source": bud["source"],
                        "epoch": bud["selected"].astype("int64")})

    both = pd.concat([out[["method", "doc_id", "source", "epoch"]], bud],
                     ignore_index=True)
    return (both.sort_values(["method", "doc_id", "epoch"], kind="mergesort")
            .reset_index(drop=True))


def _mix_sql(weights: dict[str, float], default: float = 1.0) -> str:
    from great_expectations_ray.stages.mixing import weight_threshold_hex

    rows = ", ".join(
        f"('{s}', {math.floor(w)}, '{weight_threshold_hex(w)}')"
        for s, w in weights.items()
    )
    return f"""
WITH w(source, base, thr) AS (VALUES {rows}),
d AS (SELECT doc_id, documents.source,
             coalesce(w.base, {math.floor(default)})
             + CASE WHEN substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)
                         < coalesce(w.thr, '{weight_threshold_hex(default)}')
                    THEN 1 ELSE 0 END AS reps
      FROM documents LEFT JOIN w ON documents.source = w.source)
SELECT 'mix' AS method, doc_id, source,
       CAST(unnest(range(reps)) AS BIGINT) AS epoch
FROM d
UNION ALL
SELECT 'budget', doc_id, source,
       CAST((SUM(n_chars) OVER (PARTITION BY source ORDER BY doc_id)
             <= 15000) AS BIGINT) AS epoch
FROM documents
ORDER BY method, doc_id, epoch
"""


SQL_MIX_REPETITION_DOCS = _mix_sql(_MIX_WEIGHTS)
register_query(q_mix_repetition_docs, SQL_MIX_REPETITION_DOCS, gate=36)


def q_normalize_docs(sf_dir: str) -> pd.DataFrame:
    """Text normalization (stages/normalize.py).  Deterministic 'dirt' is
    appended to every doc on BOTH sides (curly quotes, control char, tab,
    double space, mixed case), then the full pipeline runs: control-strip →
    NFC → quote straightening → lowercase → whitespace collapse → trim.
    Both engines are RE2, and the oracle composes identical functions in
    identical order."""
    from great_expectations_ray.stages.normalize import (
        NormalizeConfig,
        normalize_text,
    )

    dirt = "  “Mixed”\x07 CASE\t‘tail’–end… "
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def add_dirt(tbl: pa.Table) -> pa.Table:
        t = pc.cast(tbl.column("text").combine_chunks(), pa.string())
        return pa.table({
            "doc_id": tbl.column("doc_id"),
            "text": pc.binary_join_element_wise(t, dirt, ""),
        })

    dirty = ds.map_batches(add_dirt, batch_format="pyarrow", zero_copy_batch=True)
    out = normalize_text(dirty, config=NormalizeConfig(lowercase=True))
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


SQL_NORMALIZE_DOCS = r"""
WITH d AS (SELECT doc_id,
                  text || concat('  ', chr(8220), 'Mixed', chr(8221), chr(7),
                                 ' CASE', chr(9), chr(8216), 'tail', chr(8217),
                                 chr(8211), 'end', chr(8230), ' ') AS dirty
           FROM documents),
n AS (SELECT doc_id, dirty,
             trim(regexp_replace(
               lower(
                 regexp_replace(regexp_replace(regexp_replace(regexp_replace(
                   nfc_normalize(regexp_replace(dirty,
                     '[\x00-\x08\x0b\x0c\x0e-\x1f\x7f]', '', 'g')),
                   '[“”„]', '"', 'g'), '[‘’‚]', '''', 'g'),
                   '[–—]', '-', 'g'), '…', '...', 'g')),
               '\s+', ' ', 'g')) AS norm_text
      FROM d)
SELECT doc_id, norm_text, (norm_text <> dirty) AS changed FROM n ORDER BY doc_id
"""
register_query(q_normalize_docs, SQL_NORMALIZE_DOCS, bench=True)

_HTML_PRE = ("<html><head><title>Doc </title>"
             "<style>p{color:red}</style>"
             "<script>var x = '<b>not text</b>';</script></head><body><p>")
_HTML_POST = ('</p><!-- footer --><div class="f">&amp; fin&nbsp;</div>'
              "</body></html>")


def q_html_extract_docs(sf_dir: str) -> pd.DataFrame:
    """HTML -> text extraction (stages/html_extract.py): every doc is
    wrapped in a deterministic HTML shell (title/style/script/comment/
    entities) on BOTH sides, then the identical RE2 pipeline extracts the
    text — char count + md5 prove the result."""
    from great_expectations_ray.stages.dedup import md5_column
    from great_expectations_ray.stages.html_extract import extract_html_text

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def wrap(tbl: pa.Table) -> pa.Table:
        t = pc.cast(pc.fill_null(tbl.column("text"), ""), pa.large_string())
        n = tbl.num_rows

        def lit(s):
            return pa.array([s] * n, pa.large_string())

        html = pc.binary_join_element_wise(
            lit(_HTML_PRE), t, lit(_HTML_POST),
            pa.scalar("", pa.large_string()))
        return pa.table({"doc_id": tbl.column("doc_id"), "html": html})

    pages = ds.map_batches(wrap, batch_format="pyarrow", zero_copy_batch=True)
    out = extract_html_text(pages)

    def finish(tbl: pa.Table) -> pa.Table:
        t = tbl.column("text")
        return pa.table({
            "doc_id": tbl.column("doc_id"),
            "n_chars": pc.cast(pc.utf8_length(t), pa.int64()),
            "out_md5": md5_column(t),
        })

    res = out.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
    return res.to_pandas().sort_values("doc_id").reset_index(drop=True)


def _sql_html_extract_docs() -> str:
    from great_expectations_ray.stages.html_extract import oracle_sql_expr

    pre = _HTML_PRE.replace("'", "''")
    post = _HTML_POST.replace("'", "''")
    return (
        "WITH h AS (SELECT doc_id, "
        f"'{pre}' || coalesce(text, '') || '{post}' AS html FROM documents), "
        f"e AS (SELECT doc_id, {oracle_sql_expr('html')} AS t FROM h) "
        "SELECT doc_id, CAST(length(t) AS BIGINT) AS n_chars, "
        "md5(t) AS out_md5 FROM e ORDER BY doc_id"
    )


SQL_HTML_EXTRACT_DOCS = _sql_html_extract_docs()
register_query(q_html_extract_docs, SQL_HTML_EXTRACT_DOCS, bench=True)


# --------------------------------------------------------------------------- #
# code-payload corpus queries (code metrics / imports / licenses)
# --------------------------------------------------------------------------- #

_MINIFIED_BLOB = "z" * 240
_AUTOGEN_HDR = "# auto-generated; do not edit\n"
_LIC_HDRS = ["SPDX-License-Identifier: MIT\n",
             "Licensed under the Apache License, Version 2.0\n",
             "GNU General Public License\n", ""]


def _derived_code_corpus(sf_dir: str):
    """documents -> code-corpus shape (repo, content) with deterministic,
    SQL-re-derivable structure: autogen/license headers, import lines, a
    require() line, comment lines, embedded secrets (doc_id%13==5 a hex
    token via md5, doc_id%17==3 a base64 signature via to_base64(unhex(md5))
    — both bit-identical between hashlib/base64 and DuckDB), and every
    doc_id%11==0 row a minified blob.  Mirrors _SQL_CODE_CORPUS_CTE exactly.
    The per-row md5 list comps run only over the ~1/13 + ~1/17 affected rows
    of a GATE corpus derivation — not a production hot path."""
    import base64 as _b64
    import hashlib as _hashlib

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def derive(tbl: pa.Table) -> pa.Table:
        doc_id = pc.cast(tbl.column("doc_id"), pa.int64()).combine_chunks()
        ids = doc_id.to_numpy()
        n = len(ids)

        def smod(k):
            return pc.cast(pa.array(ids % k), pa.string())

        def lit(s):
            return pa.array([s] * n, pa.string())

        repo = pc.binary_join_element_wise(lit("repo_"), smod(5), "")
        autogen = pc.if_else(pa.array(ids % 3 == 0), lit(_AUTOGEN_HDR), lit(""))
        r4 = ids % 4
        lic = pc.if_else(pa.array(r4 == 0), lit(_LIC_HDRS[0]),
              pc.if_else(pa.array(r4 == 1), lit(_LIC_HDRS[1]),
              pc.if_else(pa.array(r4 == 2), lit(_LIC_HDRS[2]), lit(""))))
        imp1 = pc.binary_join_element_wise(lit("import mod"), smod(7), "\n", "")
        imp2 = pc.binary_join_element_wise(
            lit("from pkg"), smod(3), lit(" import thing\n"), "")
        req = pc.if_else(
            pa.array(ids % 2 == 1),
            pc.binary_join_element_wise(
                lit("const x = require('lib"), smod(5), lit("')\n"), ""),
            lit(""))
        cmt = pc.if_else(pa.array(ids % 7 <= 2), lit("// note\n"), lit(""))
        sec_hex = [""] * n
        for j in np.nonzero(ids % 13 == 5)[0]:
            h = _hashlib.md5(str(ids[j]).encode()).hexdigest()
            sec_hex[j] = f'token = "{h}"\n'
        sec_b64 = [""] * n
        for j in np.nonzero(ids % 17 == 3)[0]:
            b1 = _b64.b64encode(_hashlib.md5(str(ids[j]).encode()).digest()).decode()
            b2 = _b64.b64encode(_hashlib.md5(str(ids[j] + 1).encode()).digest()).decode()
            sec_b64[j] = f'sig = "{b1}{b2}"\n'
        body = pc.binary_join_element_wise(
            autogen, lic, imp1, imp2, req, cmt,
            pa.array(sec_hex, pa.string()), pa.array(sec_b64, pa.string()),
            pc.cast(tbl.column("text").combine_chunks(), pa.string()), lit("\n"), "")
        content = pc.if_else(pa.array(ids % 11 == 0), lit(_MINIFIED_BLOB), body)
        return pa.table({
            "doc_id": doc_id,
            "repo": repo,
            "content": pc.cast(content, pa.large_string()),
        })

    return ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True)


_SQL_CODE_CORPUS_CTE = r"""
code_corpus AS (
  SELECT doc_id,
    'repo_' || CAST(doc_id % 5 AS VARCHAR) AS repo,
    CASE WHEN doc_id % 11 = 0 THEN repeat('z', 240)
         ELSE
           (CASE WHEN doc_id % 3 = 0 THEN '# auto-generated; do not edit' || chr(10) ELSE '' END)
        || (CASE doc_id % 4 WHEN 0 THEN 'SPDX-License-Identifier: MIT' || chr(10)
                            WHEN 1 THEN 'Licensed under the Apache License, Version 2.0' || chr(10)
                            WHEN 2 THEN 'GNU General Public License' || chr(10)
                            ELSE '' END)
        || 'import mod' || CAST(doc_id % 7 AS VARCHAR) || chr(10)
        || 'from pkg' || CAST(doc_id % 3 AS VARCHAR) || ' import thing' || chr(10)
        || (CASE WHEN doc_id % 2 = 1 THEN 'const x = require(''lib' || CAST(doc_id % 5 AS VARCHAR) || ''')' || chr(10) ELSE '' END)
        || (CASE WHEN doc_id % 7 <= 2 THEN '// note' || chr(10) ELSE '' END)
        || (CASE WHEN doc_id % 13 = 5 THEN 'token = "' || md5(CAST(doc_id AS VARCHAR)) || '"' || chr(10) ELSE '' END)
        || (CASE WHEN doc_id % 17 = 3 THEN 'sig = "' || to_base64(unhex(md5(CAST(doc_id AS VARCHAR)))) || to_base64(unhex(md5(CAST(doc_id + 1 AS VARCHAR)))) || '"' || chr(10) ELSE '' END)
        || text || chr(10)
    END AS content
  FROM documents)
"""


def q_code_metrics_corpus(sf_dir: str) -> pd.DataFrame:
    """Per-file code quality metrics (stages/code_metrics.py): line
    structure, comment density, whitespace fraction, autogen/minified
    flags.  Floats are single divisions of exact ints (oracle-safe)."""
    from great_expectations_ray.stages.code_metrics import code_metrics

    out = code_metrics(_derived_code_corpus(sf_dir)).select_columns(
        ["doc_id", "n_lines", "max_line_len", "comment_lines",
         "comment_frac", "ws_frac", "autogen", "minified"])
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


SQL_CODE_METRICS_CORPUS = ("WITH " + _SQL_CODE_CORPUS_CTE + r""",
m AS (SELECT doc_id,
        len(split(content, chr(10))) AS n_lines,
        list_max(list_transform(split(content, chr(10)), x -> length(x))) AS max_line_len,
        len(list_filter(split(content, chr(10)),
                        x -> regexp_matches(x, '^\s*(#|//|--|\*|/\*)'))) AS comment_lines,
        length(content) AS n_chars,
        length(content) - length(regexp_replace(content, '[ \t\n\r\f\v]', '', 'g')) AS ws,
        regexp_matches(content, '(?i)(auto-generated|do not edit|generated by)') AS autogen
      FROM code_corpus)
SELECT doc_id,
  CAST(n_lines AS BIGINT) AS n_lines,
  CAST(max_line_len AS BIGINT) AS max_line_len,
  CAST(comment_lines AS BIGINT) AS comment_lines,
  CASE WHEN n_lines > 0 THEN comment_lines / n_lines ELSE 0.0 END AS comment_frac,
  CASE WHEN n_chars > 0 THEN ws / n_chars ELSE 0.0 END AS ws_frac,
  autogen,
  (max_line_len >= 200 AND (CASE WHEN n_chars > 0 THEN ws / n_chars ELSE 0.0 END) < 0.05
     AND n_chars > 0) AS minified
FROM m ORDER BY doc_id
""")
register_query(q_code_metrics_corpus, SQL_CODE_METRICS_CORPUS, gate=38, bench=True)


def q_imports_corpus(sf_dir: str) -> pd.DataFrame:
    """Corpus-wide import/dependency counts (stages/imports_extract.py):
    per-batch line split + RE2 extract + local pre-agg, one small
    groupby(module) exchange."""
    from great_expectations_ray.stages.imports_extract import import_counts

    out = import_counts(_derived_code_corpus(sf_dir))
    return out.to_pandas().sort_values("module").reset_index(drop=True)


SQL_IMPORTS_CORPUS = ("WITH " + _SQL_CODE_CORPUS_CTE + r"""
SELECT module, CAST(count(*) AS BIGINT) AS cnt
FROM (
  SELECT unnest(
      regexp_extract_all(content, '(?m)^import[ \t]+([A-Za-z_][A-Za-z0-9_.]*)', 1)
   || regexp_extract_all(content, '(?m)^from[ \t]+([A-Za-z_][A-Za-z0-9_.]*)[ \t]+import', 1)
   || regexp_extract_all(content, 'require\(''([^'']+)''\)', 1)
  ) AS module FROM code_corpus)
GROUP BY module ORDER BY module
""")
register_query(q_imports_corpus, SQL_IMPORTS_CORPUS)


def q_license_majority_corpus(sf_dir: str) -> pd.DataFrame:
    """Per-repo majority license (stages/license_detect.py): vectorized
    first-match-wins tagging, one (repo,license) count exchange, then the
    distributed row_number window picks the majority (ties -> smallest
    license name)."""
    from great_expectations_ray.stages.license_detect import repo_majority_license

    out = repo_majority_license(_derived_code_corpus(sf_dir))
    df = out.to_pandas()[["repo", "license", "cnt"]]
    return df.sort_values("repo").reset_index(drop=True)


SQL_LICENSE_MAJORITY_CORPUS = ("WITH " + _SQL_CODE_CORPUS_CTE + r""",
lic AS (SELECT repo,
          CASE WHEN regexp_matches(content, 'SPDX-License-Identifier: MIT|MIT License') THEN 'mit'
               WHEN regexp_matches(content, 'Apache License') THEN 'apache-2.0'
               WHEN regexp_matches(content, 'GNU General Public License') THEN 'gpl'
               WHEN regexp_matches(content, 'BSD [0-9]-Clause') THEN 'bsd'
               ELSE 'unknown' END AS license
        FROM code_corpus),
cnts AS (SELECT repo, license, CAST(count(*) AS BIGINT) AS cnt
         FROM lic GROUP BY repo, license)
SELECT repo, license, cnt FROM cnts
QUALIFY row_number() OVER (PARTITION BY repo ORDER BY cnt DESC, license ASC) = 1
ORDER BY repo
""")
register_query(q_license_majority_corpus, SQL_LICENSE_MAJORITY_CORPUS)


def q_secret_scan_corpus(sf_dir: str) -> pd.DataFrame:
    """Entropy-based secret detection (stages/secrets_entropy.py — the
    truffleHog signal): per file the maximal base64/hex candidate runs
    >= 20 chars, the pure-hex subset, and the high-entropy count (hex >=
    3.0, base64 >= 4.5 bits/char).  One C-regex sweep over the Arrow buffer
    + one vectorized histogram scatter; no shuffle."""
    from great_expectations_ray.stages.secrets_entropy import scan_secrets

    out = scan_secrets(_derived_code_corpus(sf_dir)).select_columns(
        ["doc_id", "n_secret_candidates", "n_hex_candidates", "n_high_entropy"])
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


# Entropy in SQL: explode each candidate into chars, histogram per candidate,
# -sum(p*log2 p).  Threshold compares only (integers out), so the order-of-
# summation float jitter between numpy and DuckDB cannot flip a verdict
# unless a candidate sits within float epsilon of the bar (structured-string
# hazard documented in stages/secrets_entropy.py; corpus verified clear).
SQL_SECRET_SCAN_CORPUS = ("WITH " + _SQL_CODE_CORPUS_CTE + r""",
cands AS (
  SELECT doc_id, unnest(regexp_extract_all(content, '[A-Za-z0-9+/=_-]{20,}')) AS cand
  FROM code_corpus),
c2 AS (SELECT doc_id, cand, length(cand) AS L,
              regexp_matches(cand, '^[0-9a-fA-F]+$') AS is_hex,
              row_number() OVER () AS cid FROM cands),
chars AS (SELECT cid, doc_id, L, is_hex, unnest(string_split(cand, '')) AS ch FROM c2),
hist AS (SELECT cid, doc_id, L, is_hex, ch, count(*) AS c
         FROM chars GROUP BY cid, doc_id, L, is_hex, ch),
ent AS (SELECT cid, doc_id, is_hex,
               -sum((c * 1.0 / L) * log2(c * 1.0 / L)) AS H
        FROM hist GROUP BY cid, doc_id, is_hex, L),
flags AS (SELECT doc_id, CASE WHEN is_hex THEN 1 ELSE 0 END AS is_hexi,
                 CASE WHEN is_hex AND H >= 3.0 THEN 1
                      WHEN NOT is_hex AND H >= 4.5 THEN 1 ELSE 0 END AS hi
          FROM ent)
SELECT d.doc_id,
  CAST(count(f.is_hexi) AS BIGINT) AS n_secret_candidates,
  CAST(coalesce(sum(f.is_hexi), 0) AS BIGINT) AS n_hex_candidates,
  CAST(coalesce(sum(f.hi), 0) AS BIGINT) AS n_high_entropy
FROM code_corpus d LEFT JOIN flags f USING (doc_id)
GROUP BY d.doc_id ORDER BY d.doc_id
""")
register_query(q_secret_scan_corpus, SQL_SECRET_SCAN_CORPUS, bench=True)


def q_code_clone_corpus(sf_dir: str) -> pd.DataFrame:
    """Type-1 + Type-2-lite code-clone verdicts (stages/code_clone.py):
    comment/whitespace (+ literal-mask) normalization, keep-first by the
    smallest doc_id per normalized key, one (id, digest) bucketed exchange."""
    from great_expectations_ray.stages.code_clone import mark_code_clones

    corpus = _derived_code_corpus(sf_dir)
    frames = []
    for level in (1, 2):
        df = mark_code_clones(corpus, level=level).to_pandas()
        frames.append(pd.DataFrame({
            "doc_id": df["doc_id"], "level": np.int64(level),
            "is_clone": df["is_clone"].astype(np.int64)}))
    out = pd.concat(frames, ignore_index=True)
    return out.sort_values(["level", "doc_id"]).reset_index(drop=True)


_SQL_CLONE_NORM_1 = (
    r"trim(regexp_replace(regexp_replace(regexp_replace(content,"
    r" '/\*[\s\S]*?\*/', '', 'g'), '(?m)(//|#|--).*$', '', 'g'),"
    r" '[ \t\r\n\f\v]+', ' ', 'g'), ' ')"
)
_SQL_CLONE_NORM_2 = (
    r"trim(regexp_replace(regexp_replace(regexp_replace(regexp_replace("
    r"regexp_replace(content, '/\*[\s\S]*?\*/', '', 'g'),"
    r" '(?m)(//|#|--).*$', '', 'g'),"
    r""" '"[^"\n]*"|''[^''\n]*''', '<S>', 'g'),"""
    r" '\b[0-9]+(\.[0-9]+)?\b', '<N>', 'g'),"
    r" '[ \t\r\n\f\v]+', ' ', 'g'), ' ')"
)
SQL_CODE_CLONE_CORPUS = ("WITH " + _SQL_CODE_CORPUS_CTE + f""",
n1 AS (SELECT doc_id, {_SQL_CLONE_NORM_1} AS norm FROM code_corpus),
n2 AS (SELECT doc_id, {_SQL_CLONE_NORM_2} AS norm FROM code_corpus),
v1 AS (SELECT doc_id, CAST(1 AS BIGINT) AS level,
         CASE WHEN row_number() OVER (PARTITION BY norm ORDER BY doc_id) = 1
              THEN 0 ELSE 1 END AS is_clone FROM n1),
v2 AS (SELECT doc_id, CAST(2 AS BIGINT) AS level,
         CASE WHEN row_number() OVER (PARTITION BY norm ORDER BY doc_id) = 1
              THEN 0 ELSE 1 END AS is_clone FROM n2)
SELECT doc_id, level, CAST(is_clone AS BIGINT) AS is_clone FROM v1
UNION ALL
SELECT doc_id, level, CAST(is_clone AS BIGINT) AS is_clone FROM v2
ORDER BY level, doc_id
""")
register_query(q_code_clone_corpus, SQL_CODE_CLONE_CORPUS, bench=True)


def _derived_url_corpus(sf_dir: str):
    """documents -> (doc_id, url) with deterministic 'dirty' URLs (mixed-
    case host, www, utm params in every position, fragments).  Mirrors
    _SQL_URL_CORPUS_CTE exactly."""
    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def derive(tbl: pa.Table) -> pa.Table:
        doc_id = pc.cast(tbl.column("doc_id"), pa.int64()).combine_chunks()
        ids = doc_id.to_numpy()
        n = len(ids)

        def smod(k):
            return pc.cast(pa.array(ids % k), pa.string())

        def lit(s):
            return pa.array([s] * n, pa.string())

        r3 = ids % 3
        query = pc.if_else(
            pa.array(r3 == 0),
            pc.binary_join_element_wise(lit("?utm_source=feed&ref="), smod(5), ""),
            pc.if_else(
                pa.array(r3 == 1),
                lit("?utm_campaign=x"),
                pc.binary_join_element_wise(
                    lit("?id="), smod(7), lit("&utm_medium=em"), "")))
        frag = pc.if_else(pa.array(ids % 4 == 0), lit("#sec"), lit(""))
        url = pc.binary_join_element_wise(
            lit("https://WWW.Site"), smod(13), lit(".COM/Path/"),
            pc.cast(doc_id, pa.string()), query, frag, "")
        return pa.table({"doc_id": doc_id, "url": url})

    return ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True)


_SQL_URL_CORPUS_CTE = r"""
url_corpus AS (
  SELECT doc_id,
    'https://WWW.Site' || CAST(doc_id % 13 AS VARCHAR) || '.COM/Path/' || CAST(doc_id AS VARCHAR)
    || CASE WHEN doc_id % 3 = 0 THEN '?utm_source=feed&ref=' || CAST(doc_id % 5 AS VARCHAR)
            WHEN doc_id % 3 = 1 THEN '?utm_campaign=x'
            ELSE '?id=' || CAST(doc_id % 7 AS VARCHAR) || '&utm_medium=em' END
    || CASE WHEN doc_id % 4 = 0 THEN '#sec' ELSE '' END AS url
  FROM documents)
"""

_SQL_URL_CANON_STEPS = r"""
uc0 AS (SELECT doc_id, regexp_replace(url, '#.*$', '') AS u0 FROM url_corpus),
uc1 AS (SELECT doc_id,
          CASE WHEN regexp_matches(u0, '^https?://')
               THEN lower(regexp_extract(u0, '^(https?://[^/?#]*)', 1))
                    || regexp_replace(u0, '^https?://[^/?#]*', '')
               ELSE u0 END AS u1 FROM uc0),
uc2 AS (SELECT doc_id,
          regexp_replace(regexp_replace(regexp_replace(u1,
            'utm_[a-z]+=[^&]*&', '', 'g'),
            '[?&]utm_[a-z]+=[^&]*$', ''),
            '\?$', '') AS canon_url FROM uc1),
canon AS (SELECT doc_id, canon_url,
            regexp_extract(canon_url, '^https?://(?:www\.)?([^/:?#]+)', 1) AS domain
          FROM uc2)
"""


def q_url_canon_docs(sf_dir: str) -> pd.DataFrame:
    """URL canonicalization + domain extraction (stages/urlops.py):
    fragment strip, authority-only lowercasing, utm param removal — all
    RE2 kernels, no shuffle."""
    from great_expectations_ray.stages.urlops import tag_urls

    out = tag_urls(_derived_url_corpus(sf_dir)).select_columns(
        ["doc_id", "canon_url", "domain"])
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


SQL_URL_CANON_DOCS = ("WITH " + _SQL_URL_CORPUS_CTE + "," + _SQL_URL_CANON_STEPS + """
SELECT doc_id, canon_url, domain FROM canon ORDER BY doc_id
""")
register_query(q_url_canon_docs, SQL_URL_CANON_DOCS)

_DOMAIN_BLOCKLIST = ("site0.com", "site5.com")
_DOMAIN_CAP_K = 30


def q_domain_cap_docs(sf_dir: str) -> pd.DataFrame:
    """Domain policy (stages/urlops.py): blocklist filter (broadcast
    is_in mask) + per-domain cap of 30 docs by deterministic md5 rank
    (stages/stratified.py shape: map-side candidate top-k, one bucketed
    groupby(domain) exchange)."""
    from great_expectations_ray.stages.urlops import domain_policy

    out = domain_policy(
        _derived_url_corpus(sf_dir),
        blocklist=_DOMAIN_BLOCKLIST, cap_k=_DOMAIN_CAP_K)
    return (out.to_pandas()[["domain", "doc_id"]]
            .sort_values(["domain", "doc_id"]).reset_index(drop=True))


SQL_DOMAIN_CAP_DOCS = ("WITH " + _SQL_URL_CORPUS_CTE + "," + _SQL_URL_CANON_STEPS + f"""
SELECT domain, doc_id FROM canon
WHERE domain NOT IN ('{_DOMAIN_BLOCKLIST[0]}', '{_DOMAIN_BLOCKLIST[1]}')
QUALIFY row_number() OVER (
    PARTITION BY domain ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) <= {_DOMAIN_CAP_K}
ORDER BY domain, doc_id
""")
register_query(q_domain_cap_docs, SQL_DOMAIN_CAP_DOCS)


def q_toxicity_docs(sf_dir: str) -> pd.DataFrame:
    """Content-policy family over one derived corpus, three policy engines
    in one pass chain: toxicity scoring + masking scrub (stages/toxicity.py,
    merged word-boundary alternation; md5 of the masked content proves
    rewrite parity row-for-row), Luhn-validated payment-card detection
    (stages/luhn.py: RE2 candidate prefilter + per-match ISO 7812 checksum
    — doc_id%7 plants a valid Visa / an invalid 16-digit / a valid Diners /
    a 20-digit non-candidate run), and large-dictionary phrase tagging
    (stages/dictmatch.py: exact token-n-gram matching against a broadcast
    dictionary — the scale path when the list outgrows one alternation)."""
    from great_expectations_ray.stages.dedup import md5_column
    from great_expectations_ray.stages.dictmatch import (
        DEFAULT_PHRASES, tag_phrases)
    from great_expectations_ray.stages.luhn import CardScrubber
    from great_expectations_ray.stages.toxicity import score_toxicity

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def derive(tbl: pa.Table) -> pa.Table:
        doc_id = pc.cast(tbl.column("doc_id"), pa.int64()).combine_chunks()
        ids = doc_id.to_numpy()
        n = len(ids)
        r5 = ids % 5
        r7 = ids % 7

        def lit(s):
            return pa.array([s] * n, pa.string())

        suffix = pc.if_else(pa.array(r5 == 0), lit(" damn idiot spam"),
                 pc.if_else(pa.array(r5 == 1), lit(" Hell no"),
                 pc.if_else(pa.array(r5 == 2), lit(" hellish tale"), lit(""))))
        cc = pc.if_else(pa.array(r7 == 0), lit(" card 4539 1488 0343 6467 ok"),
             pc.if_else(pa.array(r7 == 1), lit(" card 4539148803436468 bad"),
             pc.if_else(pa.array(r7 == 2), lit(" num 30569309025904 end"),
             pc.if_else(pa.array(r7 == 3), lit(" run 12345678901234567890 no"),
                        lit("")))))
        content = pc.binary_join_element_wise(
            pc.cast(tbl.column("text").combine_chunks(), pa.string()),
            suffix, cc, "")
        return pa.table({"doc_id": doc_id, "content": content})

    derived = ds.map_batches(derive, batch_format="pyarrow",
                             zero_copy_batch=True)
    scored = score_toxicity(derived, mask=True)
    carded = scored.map_batches(
        CardScrubber("content", rewrite=False),
        batch_format="pyarrow", zero_copy_batch=True)
    tagged = tag_phrases(carded, DEFAULT_PHRASES, content_col="content")

    def finish(tbl: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": tbl.column("doc_id"),
            "tox_matches": tbl.column("tox_matches"),
            "word_cnt": tbl.column("word_cnt"),
            "tox_score": tbl.column("tox_score"),
            "toxic": tbl.column("toxic"),
            "masked_md5": md5_column(tbl.column("masked")),
            "cc_candidates": tbl.column("cc_candidates"),
            "cc_valid": tbl.column("cc_valid"),
            "dict_hits": tbl.column("dict_hits"),
            "dict_flag": tbl.column("dict_flag"),
        })

    out = tagged.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


_TOX_PAT_SQL = r"(?i)\b(?:damn|hell|crap|idiot|stupid|moron|jerk)\b"

_CC_PAT_SQL = r"\b(?:[0-9][ -]?){12,18}[0-9]\b"

SQL_TOXICITY_DOCS = rf"""
WITH tox_corpus AS (
  SELECT doc_id,
         text || CASE doc_id % 5 WHEN 0 THEN ' damn idiot spam'
                                 WHEN 1 THEN ' Hell no'
                                 WHEN 2 THEN ' hellish tale'
                                 ELSE '' END
              || CASE doc_id % 7 WHEN 0 THEN ' card 4539 1488 0343 6467 ok'
                                 WHEN 1 THEN ' card 4539148803436468 bad'
                                 WHEN 2 THEN ' num 30569309025904 end'
                                 WHEN 3 THEN ' run 12345678901234567890 no'
                                 ELSE '' END AS content
  FROM documents),
m AS (SELECT doc_id,
        len(regexp_extract_all(content, '{_TOX_PAT_SQL}')) AS tox_matches,
        len(regexp_extract_all(content, '\S+')) AS word_cnt,
        md5(regexp_replace(content, '{_TOX_PAT_SQL}', '****', 'g')) AS masked_md5
      FROM tox_corpus),
cand AS (
  SELECT doc_id, unnest(regexp_extract_all(content, '{_CC_PAT_SQL}')) AS raw
  FROM tox_corpus),
luhn AS (
  SELECT doc_id,
    (len(ds) BETWEEN 13 AND 19) AND
    (list_sum(list_transform(range(1, len(ds) + 1),
       i -> CASE WHEN (len(ds) - i) % 2 = 1
            THEN CASE WHEN CAST(substr(ds, i, 1) AS INT) * 2 > 9
                 THEN CAST(substr(ds, i, 1) AS INT) * 2 - 9
                 ELSE CAST(substr(ds, i, 1) AS INT) * 2 END
            ELSE CAST(substr(ds, i, 1) AS INT) END)) % 10 = 0) AS valid
  FROM (SELECT doc_id, regexp_replace(raw, '[^0-9]', '', 'g') AS ds FROM cand)),
cc AS (
  SELECT doc_id, count(*) AS n_cand,
         sum(CASE WHEN valid THEN 1 ELSE 0 END) AS n_valid
  FROM luhn GROUP BY doc_id),
tok AS (
  SELECT doc_id,
    list_filter(string_split_regex(lower(content), '[^a-z0-9_]+'),
                x -> x <> '') AS t
  FROM tox_corpus),
dict AS (
  SELECT doc_id,
    len(list_filter(t, x -> list_contains(['spark', 'dup'], x)))
    + CASE WHEN len(t) >= 2 THEN
        len(list_filter(list_transform(range(1, len(t)), i -> t[i] || ' ' || t[i+1]),
            x -> list_contains(['table scan', 'hash join', 'order sort'], x)))
      ELSE 0 END
    + CASE WHEN len(t) >= 3 THEN
        len(list_filter(list_transform(range(1, len(t) - 1),
                                       i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2]),
            x -> list_contains(['key order sort'], x)))
      ELSE 0 END AS hits
  FROM tok)
SELECT m.doc_id,
  CAST(tox_matches AS BIGINT) AS tox_matches,
  CAST(word_cnt AS BIGINT) AS word_cnt,
  CASE WHEN word_cnt > 0 THEN CAST(tox_matches AS DOUBLE) / word_cnt ELSE 0.0 END AS tox_score,
  (CASE WHEN word_cnt > 0 THEN CAST(tox_matches AS DOUBLE) / word_cnt ELSE 0.0 END) > 0.01 AS toxic,
  masked_md5,
  CAST(coalesce(cc.n_cand, 0) AS BIGINT) AS cc_candidates,
  CAST(coalesce(cc.n_valid, 0) AS BIGINT) AS cc_valid,
  CAST(coalesce(dict.hits, 0) AS BIGINT) AS dict_hits,
  coalesce(dict.hits, 0) > 0 AS dict_flag
FROM m LEFT JOIN cc ON m.doc_id = cc.doc_id
       LEFT JOIN dict ON m.doc_id = dict.doc_id
ORDER BY m.doc_id
"""
register_query(q_toxicity_docs, SQL_TOXICITY_DOCS, gate=41, bench=True)


_BP_MIN_DOCS = 50


def q_boilerplate_docs(sf_dir: str) -> pd.DataFrame:
    """Boilerplate line removal (stages/boilerplate.py): corpus-wide
    document-frequency pass -> broadcast frequent-line set -> vectorized
    per-batch rewrite.  md5 of the cleaned content proves the rewrite."""
    from great_expectations_ray.stages.boilerplate import remove_boilerplate
    from great_expectations_ray.stages.dedup import md5_column

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def derive(tbl: pa.Table) -> pa.Table:
        doc_id = pc.cast(tbl.column("doc_id"), pa.int64()).combine_chunks()
        ids = doc_id.to_numpy()
        n = len(ids)

        def lit(s):
            return pa.array([s] * n, pa.string())

        cookies = pc.if_else(pa.array(ids % 2 == 0),
                             lit("please accept our cookies\n"), lit(""))
        rights = pc.if_else(pa.array(ids % 3 == 0),
                            lit("all rights reserved\n"), lit(""))
        content = pc.binary_join_element_wise(
            cookies, rights, lit("marker "), pc.cast(doc_id, pa.string()),
            lit("\n"), pc.cast(tbl.column("text").combine_chunks(), pa.string()), "")
        return pa.table({"doc_id": doc_id, "content": content})

    corpus = ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True)
    cleaned = remove_boilerplate(corpus, min_docs=_BP_MIN_DOCS)

    def finish(tbl: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": tbl.column("doc_id"),
            "clean_md5": md5_column(tbl.column("content")),
            "n_dropped": tbl.column("n_dropped"),
        })

    out = cleaned.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


SQL_BOILERPLATE_DOCS = f"""
WITH bp_corpus AS (
  SELECT doc_id,
    (CASE WHEN doc_id % 2 = 0 THEN 'please accept our cookies' || chr(10) ELSE '' END)
 || (CASE WHEN doc_id % 3 = 0 THEN 'all rights reserved' || chr(10) ELSE '' END)
 || 'marker ' || CAST(doc_id AS VARCHAR) || chr(10) || text AS content
  FROM documents),
lines AS (SELECT doc_id, unnest(split(content, chr(10))) AS line FROM bp_corpus),
dl AS (SELECT DISTINCT doc_id, line FROM lines),
freq AS (SELECT line FROM dl GROUP BY line HAVING count(*) >= {_BP_MIN_DOCS}),
fl AS (SELECT coalesce(list(line), []) AS f FROM freq),
outp AS (SELECT doc_id,
           array_to_string(list_filter(split(content, chr(10)),
                                       x -> NOT list_contains(f, x)), chr(10)) AS clean,
           len(split(content, chr(10)))
             - len(list_filter(split(content, chr(10)),
                               x -> NOT list_contains(f, x))) AS n_dropped
         FROM bp_corpus, fl)
SELECT doc_id, md5(clean) AS clean_md5, CAST(n_dropped AS BIGINT) AS n_dropped
FROM outp ORDER BY doc_id
"""
register_query(q_boilerplate_docs, SQL_BOILERPLATE_DOCS, gate=42, bench=True)


def q_substr_dup_docs(sf_dir: str) -> pd.DataFrame:
    """Exact duplicate-substring detection (stages/substr_dedup.py,
    ExactSubstr / Lee et al. 2022): every 40-char window, cross-document
    collisions only; per-doc duplicated-window count + first position."""
    from great_expectations_ray.stages.substr_dedup import duplicate_substrings

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def derive(tbl: pa.Table) -> pa.Table:
        doc_id = pc.cast(tbl.column("doc_id"), pa.int64()).combine_chunks()
        ids = doc_id.to_numpy()
        n = len(ids)

        def lit(s):
            return pa.array([s] * n, pa.string())

        r10 = ids % 10
        suffix = pc.if_else(pa.array(r10 < 2),
                 lit(" COMMON LICENSE HEADER BLOCK COPIED VERBATIM ACROSS FILES"),
                 pc.if_else(pa.array(r10 == 5),
                 lit(" ANOTHER SHARED DISCLAIMER PARAGRAPH REPEATED IN SOME FILES TOO"),
                 lit("")))
        content = pc.binary_join_element_wise(
            pc.cast(tbl.column("text").combine_chunks(), pa.string()), suffix, "")
        return pa.table({"doc_id": doc_id, "content": content})

    corpus = ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True)
    # candidate_filter: the 40×-amplified every-position exact pass reads
    # only docs flagged by winnowing fingerprints (guarantee holds:
    # window=40 >= w+k-1=11), so the exchange carries the candidate subset
    out = duplicate_substrings(corpus, content_col="content", window=40,
                               stride=1, candidate_filter=True)
    return (out.to_pandas()[["doc_id", "dup_windows", "first_dup_pos"]]
            .sort_values("doc_id").reset_index(drop=True))


SQL_SUBSTR_DUP_DOCS = r"""
WITH sd_corpus AS (
  SELECT doc_id,
    text || CASE WHEN doc_id % 10 < 2 THEN ' COMMON LICENSE HEADER BLOCK COPIED VERBATIM ACROSS FILES'
                 WHEN doc_id % 10 = 5 THEN ' ANOTHER SHARED DISCLAIMER PARAGRAPH REPEATED IN SOME FILES TOO'
                 ELSE '' END AS content
  FROM documents),
wins AS (SELECT doc_id, content,
           unnest(generate_series(0, greatest(length(content) - 40, -1), 1)) AS p
         FROM sd_corpus),
ww AS (SELECT doc_id, p, substr(content, p + 1, 40) AS win FROM wins),
dup AS (SELECT win FROM ww GROUP BY win HAVING count(DISTINCT doc_id) >= 2)
SELECT doc_id,
  CAST(count(*) AS BIGINT) AS dup_windows,
  CAST(min(p) AS BIGINT) AS first_dup_pos
FROM ww WHERE win IN (SELECT win FROM dup)
GROUP BY doc_id ORDER BY doc_id
"""
register_query(q_substr_dup_docs, SQL_SUBSTR_DUP_DOCS)


def q_lm_trained_ppl_docs(sf_dir: str) -> pd.DataFrame:
    """Distributed LM training + scoring (stages/perplexity.py
    ``distributed_train_char_lm``): corpus-wide trigram counts via sparse
    per-batch partials and one bucketed groupby(cell) exchange, then the
    trained model broadcasts once for per-worker scoring.  Fixture oracle
    retrains the same model with an independent pure-python pass."""
    import ray as _ray

    from great_expectations_ray.stages.perplexity import (
        PerplexityScorer,
        distributed_train_char_lm,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    model = distributed_train_char_lm(ds, column="text")
    ref = _ray.put(model)
    scored = map_per_worker(
        ds, PerplexityScorer, {"model_ref": ref, "column": "text", "precise": True},
        batch_format="pyarrow",
    )
    rows = scored.select_columns(["doc_id", "perplexity"]).take_all()
    df = pd.DataFrame(rows).sort_values("doc_id").reset_index(drop=True)
    df["perplexity"] = df["perplexity"].round(6)
    return df


register_query(q_lm_trained_ppl_docs, _fixture_sql(
    "lm_trained_ppl_docs", "doc_id, perplexity", _FP_DOCS, "doc_id"))


def q_grouped_quantiles_docs(sf_dir: str) -> pd.DataFrame:
    """Per-group exact discrete quantiles (functions/quantiles.py
    ``grouped_quantiles_disc``): doc-length p25/p50/p95 per language, one
    bucketed exchange, exact integer rank arithmetic.  Plus the grouped
    Theta distinct sketch (functions/sketches.py grouped_theta_distinct):
    per-lang distinct length counts — EXACT below the sketch's k=4096
    retained hashes (max observed per-lang distinct lengths: 501 at sf0.1),
    so the SQL COUNT(DISTINCT) oracle matches bit-for-bit."""
    from great_expectations_ray.functions.quantiles import grouped_quantiles_disc
    from great_expectations_ray.functions.sketches import grouped_theta_distinct

    ds = _read(sf_dir, "documents", columns=["lang", "n_chars"])
    out = (grouped_quantiles_disc(
        ds, group_cols=["lang"], value_col="n_chars", qs=[0.25, 0.5, 0.95])
        .to_pandas())
    th = grouped_theta_distinct(ds, ["lang"], "n_chars").to_pandas()
    th["n_distinct_chars"] = th["distinct_est"].round().astype("int64")
    out = out.merge(th[["lang", "n_distinct_chars"]], on="lang")
    return out.sort_values("lang").reset_index(drop=True)


SQL_GROUPED_QUANTILES_DOCS = """
SELECT lang,
  quantile_disc(n_chars, 0.25) AS p25,
  quantile_disc(n_chars, 0.5)  AS p50,
  quantile_disc(n_chars, 0.95) AS p95,
  COUNT(DISTINCT n_chars)      AS n_distinct_chars
FROM documents GROUP BY lang ORDER BY lang
"""
register_query(q_grouped_quantiles_docs, SQL_GROUPED_QUANTILES_DOCS, gate=45)


def q_chunk_docs(sf_dir: str) -> pd.DataFrame:
    """Document chunking (stages/chunking.py): 120-char chunks with
    20-char overlap, vectorized byte slicing on the ASCII fast path; md5
    of each chunk proves content + boundaries."""
    from great_expectations_ray.stages.chunking import chunk_documents
    from great_expectations_ray.stages.dedup import md5_column

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    chunks = chunk_documents(ds, chunk_size=120, overlap=20)

    def finish(tbl: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": tbl.column("doc_id"),
            "chunk_idx": tbl.column("chunk_idx"),
            "start": tbl.column("start"),
            "chunk_md5": md5_column(tbl.column("chunk")),
        })

    out = chunks.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
    return (out.to_pandas().sort_values(["doc_id", "chunk_idx"])
            .reset_index(drop=True))


SQL_CHUNK_DOCS = """
WITH ch AS (
  SELECT doc_id, text,
         unnest(generate_series(0, CAST(length(text) AS BIGINT) - 1, 100)) AS p
  FROM documents)
SELECT doc_id,
  CAST(p // 100 AS BIGINT) AS chunk_idx,
  CAST(p AS BIGINT) AS start,
  md5(substr(text, CAST(p AS INTEGER) + 1, 120)) AS chunk_md5
FROM ch ORDER BY doc_id, chunk_idx
"""
register_query(q_chunk_docs, SQL_CHUNK_DOCS, bench=True)


def q_fim_docs(sf_dir: str) -> pd.DataFrame:
    """Fill-in-the-middle transform (stages/fim.py; Bavarian et al. 2022):
    PSM layout at modular-deterministic cut points, vectorized ASCII byte
    slicing.  cut_lo = -1 encodes "not applied" so the apply decision is
    value-checked too; md5 of the transformed text proves the layout."""
    from great_expectations_ray.stages.dedup import md5_column
    from great_expectations_ray.stages.fim import fim_documents

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = fim_documents(ds)

    def finish(tbl: pa.Table) -> pa.Table:
        applied = tbl.column("fim_applied")
        lo = pc.if_else(applied, tbl.column("cut_lo"),
                        pa.scalar(-1, pa.int64()))
        return pa.table({
            "doc_id": tbl.column("doc_id"),
            "cut_lo": lo,
            "cut_hi": tbl.column("cut_hi"),
            "fim_md5": md5_column(tbl.column("fim_text")),
        })

    res = out.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
    return res.to_pandas().sort_values("doc_id").reset_index(drop=True)


SQL_FIM_DOCS = """
WITH f AS (
  SELECT doc_id, text, CAST(length(text) AS BIGINT) AS L,
         (doc_id * 7919 + 13) % (CAST(length(text) AS BIGINT) + 1) AS i,
         (doc_id * 104729 + 7) % (CAST(length(text) AS BIGINT) + 1) AS j
  FROM documents),
g AS (
  SELECT doc_id, text, LEAST(i, j) AS lo, GREATEST(i, j) AS hi,
         (doc_id % 2 = 0 AND L >= 2) AS applied
  FROM f)
SELECT doc_id,
  CASE WHEN applied THEN lo ELSE -1 END AS cut_lo,
  CASE WHEN applied THEN hi ELSE 0 END AS cut_hi,
  md5(CASE WHEN applied THEN
    '<fim_prefix>' || substr(text, 1, CAST(lo AS INTEGER))
    || '<fim_suffix>' || substr(text, CAST(hi AS INTEGER) + 1)
    || '<fim_middle>'
    || substr(text, CAST(lo AS INTEGER) + 1, CAST(hi - lo AS INTEGER))
  ELSE text END) AS fim_md5
FROM g ORDER BY doc_id
"""
register_query(q_fim_docs, SQL_FIM_DOCS, bench=True)


_WEB_CAP_K = 30


def q_web_pipeline_docs(sf_dir: str) -> pd.DataFrame:
    """END-TO-END web curation chain — the composition capstone: URL
    canonicalization + blocklist + per-domain cap (stages/urlops.py,
    full rows kept through ONE bucketed cap exchange), boilerplate line
    removal over the survivors (stages/boilerplate.py), text
    normalization (stages/normalize.py), toxicity filter
    (stages/toxicity.py).  The SQL oracle re-runs the identical chain."""
    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed
    from great_expectations_ray.stages.boilerplate import remove_boilerplate
    from great_expectations_ray.stages.dedup import md5_column
    from great_expectations_ray.stages.normalize import NormalizeConfig, normalize_array
    from great_expectations_ray.stages.stratified import _topk
    from great_expectations_ray.stages.toxicity import ToxicityScorer
    from great_expectations_ray.stages.urlops import tag_urls

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def derive(tbl: pa.Table) -> pa.Table:
        doc_id = pc.cast(tbl.column("doc_id"), pa.int64()).combine_chunks()
        ids = doc_id.to_numpy()
        n = len(ids)

        def smod(k):
            return pc.cast(pa.array(ids % k), pa.string())

        def lit(s):
            return pa.array([s] * n, pa.string())

        url = pc.binary_join_element_wise(
            lit("https://WWW.Site"), smod(13), lit(".COM/Doc/"),
            pc.cast(doc_id, pa.string()), "")
        cookie = pc.if_else(pa.array(ids % 2 == 0),
                            lit("please accept our cookies\n"), lit(""))
        quotes = pc.if_else(pa.array(ids % 3 == 0),
                            lit(" “Quoted”  text…"), lit(""))
        tox = pc.if_else(pa.array(ids % 5 == 0), lit(" damn idiot spam"), lit(""))
        content = pc.binary_join_element_wise(
            cookie, pc.cast(tbl.column("text").combine_chunks(), pa.string()),
            quotes, tox, "")
        return pa.table({"doc_id": doc_id, "url": url, "content": content})

    corpus = ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True)
    tagged = tag_urls(corpus)

    banned = pa.array(["site0.com", "site5.com"], pa.large_string())

    def drop_banned(tbl: pa.Table) -> pa.Table:
        return tbl.filter(pc.invert(pc.is_in(tbl.column("domain"), value_set=banned)))

    tagged = tagged.map_batches(drop_banned, batch_format="pyarrow",
                                zero_copy_batch=True)

    # per-domain cap keeping FULL rows: map-side per-batch top-k prune,
    # then one bucketed groupby(domain) exchange finishes the exact top-k
    keep_cols = ["doc_id", "domain", "content"]

    def add_rank(tbl: pa.Table) -> pa.Table:
        rank = md5_column(pc.cast(tbl.column("doc_id"), pa.string()))
        return tbl.select(keep_cols).append_column("_rank", rank)

    def topk(t: pa.Table) -> pa.Table:
        return _topk(t, ["domain"], "doc_id", _WEB_CAP_K)

    pruned = (tagged.map_batches(add_rank, batch_format="pyarrow",
                                 zero_copy_batch=True)
              .map_batches(topk, batch_format="pyarrow"))
    capped = grouped_apply_bucketed(pruned, ["domain"],
                                    lambda g: topk(g).select(keep_cols))

    # remove_boilerplate streams its input TWICE (df pass + rewrite);
    # materialize the capped survivors so the derive + canon + bucketed cap
    # don't re-execute for the second pass
    capped = capped.materialize()
    cleaned = remove_boilerplate(capped, content_col="content", min_docs=40)

    def norm_batch(tbl: pa.Table) -> pa.Table:
        norm = normalize_array(tbl.column("content"), NormalizeConfig())
        return pa.table({
            "doc_id": tbl.column("doc_id"),
            "domain": tbl.column("domain"),
            "norm_content": norm,
        })

    normed = cleaned.map_batches(norm_batch, batch_format="pyarrow",
                                 zero_copy_batch=True)
    scored = normed.map_batches(
        ToxicityScorer("norm_content"),
        batch_format="pyarrow", zero_copy_batch=True)

    def finish(tbl: pa.Table) -> pa.Table:
        keep = pc.invert(tbl.column("toxic").combine_chunks())
        tbl = tbl.filter(keep)
        return pa.table({
            "doc_id": tbl.column("doc_id"),
            "domain": tbl.column("domain"),
            "clean_md5": md5_column(tbl.column("norm_content")),
            "word_cnt": tbl.column("word_cnt"),
        })

    out = scored.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


SQL_WEB_PIPELINE_DOCS = rf"""
WITH raw AS (
  SELECT doc_id,
    'https://WWW.Site' || CAST(doc_id % 13 AS VARCHAR) || '.COM/Doc/' || CAST(doc_id AS VARCHAR) AS url,
    (CASE WHEN doc_id % 2 = 0 THEN 'please accept our cookies' || chr(10) ELSE '' END)
      || text
      || (CASE WHEN doc_id % 3 = 0 THEN ' ' || chr(8220) || 'Quoted' || chr(8221) || '  text' || chr(8230) ELSE '' END)
      || (CASE WHEN doc_id % 5 = 0 THEN ' damn idiot spam' ELSE '' END) AS content
  FROM documents),
canon AS (
  SELECT doc_id, content,
    regexp_extract(
      regexp_replace(
        CASE WHEN regexp_matches(url, '^https?://')
             THEN lower(regexp_extract(url, '^(https?://[^/?#]*)', 1))
                  || regexp_replace(url, '^https?://[^/?#]*', '')
             ELSE url END,
        '#.*$', ''),
      '^https?://(?:www\.)?([^/:?#]+)', 1) AS domain
  FROM raw),
pol AS (
  SELECT doc_id, domain, content FROM canon
  WHERE domain NOT IN ('site0.com', 'site5.com')
  QUALIFY row_number() OVER (
      PARTITION BY domain ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) <= {_WEB_CAP_K}),
lines AS (SELECT doc_id, unnest(split(content, chr(10))) AS line FROM pol),
dl AS (SELECT DISTINCT doc_id, line FROM lines),
freq AS (SELECT line FROM dl GROUP BY line HAVING count(*) >= 40),
fl AS (SELECT coalesce(list(line), []) AS f FROM freq),
bp AS (SELECT doc_id, domain,
         array_to_string(list_filter(split(content, chr(10)),
                                     x -> NOT list_contains(f, x)), chr(10)) AS content
       FROM pol, fl),
norm AS (SELECT doc_id, domain,
           trim(regexp_replace(
             regexp_replace(regexp_replace(regexp_replace(regexp_replace(
               nfc_normalize(regexp_replace(content,
                 '[\x00-\x08\x0b\x0c\x0e-\x1f\x7f]', '', 'g')),
               '[{chr(8220)}{chr(8221)}{chr(8222)}]', '"', 'g'),
               '[{chr(8216)}{chr(8217)}{chr(8218)}]', '''', 'g'),
               '[{chr(8211)}{chr(8212)}]', '-', 'g'),
               '{chr(8230)}', '...', 'g'),
             '\s+', ' ', 'g')) AS norm_content
         FROM bp),
tox AS (SELECT doc_id, domain, norm_content,
          len(regexp_extract_all(norm_content, '{_TOX_PAT_SQL}')) AS tox_matches,
          len(regexp_extract_all(norm_content, '\S+')) AS word_cnt
        FROM norm)
SELECT doc_id, domain, md5(norm_content) AS clean_md5,
       CAST(word_cnt AS BIGINT) AS word_cnt
FROM tox
WHERE NOT (CASE WHEN word_cnt > 0
                THEN CAST(tox_matches AS DOUBLE) / word_cnt ELSE 0.0 END) > 0.01
ORDER BY doc_id
"""
register_query(q_web_pipeline_docs, SQL_WEB_PIPELINE_DOCS, gate=47, bench=True)


def q_media_decode_stats(sf_dir: str) -> pd.DataFrame:
    """REAL multimodal decode (stages/multimodal.py): constructs valid
    binary PPM images / PCM WAV audio per row, decodes them in the
    MediaStats stage, and the oracle checks the decoded statistics
    in closed form — an end-to-end bytes->pixels/samples proof."""
    from great_expectations_ray.stages.multimodal import (
        MediaStats,
        encode_ppm,
        encode_wav_pcm16,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def derive(tbl: pa.Table) -> pa.Table:
        doc_id = pc.cast(tbl.column("doc_id"), pa.int64()).combine_chunks()
        ids = doc_id.to_numpy()
        payloads, mtypes = [], []
        for i in ids:
            if i % 2 == 0:
                v = (i * 7) % 256
                payloads.append(encode_ppm(np.full((6, 8, 3), v, np.uint8)))
                mtypes.append("image/ppm")
            else:
                s = (i * 13) % 1000 - 500
                payloads.append(encode_wav_pcm16(np.full(400, s, np.int16)))
                mtypes.append("audio/wav")
        return pa.table({
            "doc_id": doc_id,
            "media_type": pa.array(mtypes, pa.string()),
            "payload": pa.array(payloads, pa.large_binary()),
        })

    media = ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True)
    out = media.map_batches(
        MediaStats(), batch_format="pyarrow", batch_size=256,
    ).select_columns(["doc_id", "media_type", "mean_val",
                      "width_dec", "height_dec", "n_samples"])
    stats = out.to_pandas()

    # dhash arm: perceptual-hash near-dup detection over REAL PPM payloads
    # (stages/multimodal.py dhash_mark_duplicates).  Input spec (shared with
    # the independent fixture in tools/gen_oracle_fixtures.py): docs with
    # doc_id % 10 in (0, 1) render the same group image, the `1` twin +20
    # brightness (a hash-identical near-dup); every other doc renders a
    # unique image.  media_type='image/dhash' rows carry is_neardup in
    # mean_val and the 63-bit hash in n_samples.
    from great_expectations_ray.stages.multimodal import (
        ImageHasher,
        dhash_mark_duplicates,
        encode_ppm,
    )

    def derive_dhash(tbl: pa.Table) -> pa.Table:
        doc_id = pc.cast(tbl.column("doc_id"), pa.int64()).combine_chunks()
        payloads = [encode_ppm(_dhash_probe_image(int(i)))
                    for i in doc_id.to_numpy()]
        return pa.table({
            "doc_id": doc_id,
            "media_type": pa.array(["image/ppm"] * len(payloads)),
            "payload": pa.array(payloads, pa.large_binary()),
        })

    imgs = ds.map_batches(derive_dhash, batch_format="pyarrow",
                          zero_copy_batch=True)
    hashed = imgs.map_batches(
        ImageHasher(id_col="doc_id"),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=256,
    ).materialize()
    marks = dhash_mark_duplicates(None, id_col="doc_id",
                                  prehashed=hashed).to_pandas()
    hdf = hashed.to_pandas()
    arm = hdf.merge(marks, on="doc_id")
    arm = pd.DataFrame({
        "doc_id": arm["doc_id"],
        "media_type": "image/dhash",
        "mean_val": arm["is_neardup"].astype(float),
        "width_dec": np.int32(0),
        "height_dec": np.int32(0),
        "n_samples": (arm["dhash"].astype(np.uint64)
                      & np.uint64((1 << 63) - 1)).astype(np.int64),
    })

    # video arm: frame-sequence fingerprint near-dup detection over REAL
    # concatenated-PPM payloads (stages/multimodal.py video_mark_duplicates).
    # Input spec (shared with tools/gen_oracle_fixtures.media_video_fixture):
    # docs with doc_id % 10 in (0, 1) render the same 5-frame group video,
    # the `1` twin with frame 0 brightness-shifted (dHash-invariant) and
    # frame 4 re-rendered (a minority the majority vote eats — so the twin's
    # fingerprint is hash-identical); every other doc renders unique frames.
    # media_type='video/fp' rows carry is_neardup in mean_val, n_frames in
    # width_dec and the 63-bit fingerprint in n_samples.
    from great_expectations_ray.stages.multimodal import (
        VideoFingerprinter,
        encode_ppm_sequence,
        video_mark_duplicates,
    )

    def derive_video(tbl: pa.Table) -> pa.Table:
        doc_id = pc.cast(tbl.column("doc_id"), pa.int64()).combine_chunks()
        payloads = [encode_ppm_sequence(_video_probe_frames(int(i)))
                    for i in doc_id.to_numpy()]
        return pa.table({
            "doc_id": doc_id,
            "media_type": pa.array(["video/ppms"] * len(payloads)),
            "payload": pa.array(payloads, pa.large_binary()),
        })

    vids = ds.map_batches(derive_video, batch_format="pyarrow",
                          zero_copy_batch=True)
    vhashed = vids.map_batches(
        VideoFingerprinter(id_col="doc_id"),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=128,
    ).materialize()
    vmarks = video_mark_duplicates(None, id_col="doc_id",
                                   prehashed=vhashed).to_pandas()
    vdf = vhashed.to_pandas().merge(vmarks, on="doc_id")
    varm = pd.DataFrame({
        "doc_id": vdf["doc_id"],
        "media_type": "video/fp",
        "mean_val": vdf["is_neardup"].astype(float),
        "width_dec": vdf["n_frames"].astype(np.int32),
        "height_dec": np.int32(0),
        "n_samples": (vdf["vfp"].astype(np.uint64)
                      & np.uint64((1 << 63) - 1)).astype(np.int64),
    })
    # log-mel arm: REAL STFT feature extraction over WAV tone probes
    # (stages/multimodal.py AudioFeaturizer).  media_type='audio/logmel'
    # rows carry the 6dp-rounded scalar mean of the pooled (mean, std)
    # log-mel vector in mean_val, n_frames in width_dec and the probe's
    # closed-form sample count in n_samples.
    from great_expectations_ray.stages.multimodal import AudioFeaturizer

    def derive_logmel(tbl: pa.Table) -> pa.Table:
        doc_id = pc.cast(tbl.column("doc_id"), pa.int64()).combine_chunks()
        ids = doc_id.to_numpy()
        payloads = [encode_wav_pcm16(_logmel_probe_wave(int(i))) for i in ids]
        return pa.table({
            "doc_id": doc_id,
            "media_type": pa.array(["audio/wav"] * len(ids)),
            "payload": pa.array(payloads, pa.large_binary()),
        })

    waves = ds.map_batches(derive_logmel, batch_format="pyarrow",
                           zero_copy_batch=True)
    feats = map_per_worker(
        waves, AudioFeaturizer, {"id_col": "doc_id"},
        batch_format="pyarrow", zero_copy_batch=True, batch_size=256,
    ).to_pandas()
    fmean = feats["audio_feat"].map(
        lambda v: round(float(np.asarray(v, dtype=np.float64).mean()), 6))
    larm = pd.DataFrame({
        "doc_id": feats["doc_id"],
        "media_type": "audio/logmel",
        "mean_val": fmean.astype(np.float64),
        "width_dec": feats["n_frames"].astype(np.int32),
        "height_dec": np.int32(0),
        "n_samples": (800 + (feats["doc_id"] % 5) * 160).astype(np.int64),
    })
    return (pd.concat([stats, arm, varm, larm], ignore_index=True)
            .sort_values(["doc_id", "media_type"]).reset_index(drop=True))


def _logmel_probe_wave(doc_id: int) -> "np.ndarray":
    """Deterministic int16 tone probe — the INPUT SPEC shared verbatim with
    tools/gen_oracle_fixtures.media_logmel_fixture (the log-mel operator is
    reimplemented independently there): n = 800 + (doc_id % 5)*160 samples,
    f = 200 + (doc_id % 16)*450 Hz at 16 kHz."""
    n = 800 + (doc_id % 5) * 160
    f0 = 200.0 + (doc_id % 16) * 450.0
    t = np.arange(n)
    return np.round(8000.0 * np.sin(2 * np.pi * f0 * t / 16000.0)
                    ).astype(np.int16)


def _dhash_probe_image(doc_id: int) -> "np.ndarray":
    """Deterministic 16x16 RGB probe image — the INPUT SPEC shared verbatim
    with tools/gen_oracle_fixtures.media_dhash_fixture (the operator itself
    is reimplemented independently there)."""
    g = doc_id // 10
    seed = g if doc_id % 10 in (0, 1) else 1_000_000 + doc_id
    idx = np.arange(16 * 16 * 3, dtype=np.uint64)
    v = np.uint64(seed) * np.uint64(2654435761) + idx * np.uint64(2246822519)
    # avalanche so the seed perturbs every pixel independently (a constant
    # offset would be invisible to dHash by design)
    v ^= v >> np.uint64(33)
    v *= np.uint64(0xFF51AFD7ED558CCD)
    v ^= v >> np.uint64(29)
    px = (v % np.uint64(200)).astype(np.uint8)
    img = px.reshape(16, 16, 3)
    if doc_id % 10 == 1:
        img = img + np.uint8(20)  # max 199+20=219: no clipping, exact shift
    return img


def _video_probe_seed_frame(seed: int) -> "np.ndarray":
    """One deterministic 16x16 RGB frame from a seed (same avalanche mix as
    the image probe, parameterized by frame seed)."""
    idx = np.arange(16 * 16 * 3, dtype=np.uint64)
    v = np.uint64(seed) * np.uint64(2654435761) + idx * np.uint64(2246822519)
    v ^= v >> np.uint64(33)
    v *= np.uint64(0xFF51AFD7ED558CCD)
    v ^= v >> np.uint64(29)
    return (v % np.uint64(200)).astype(np.uint8).reshape(16, 16, 3)


def _video_probe_frames(doc_id: int) -> "list[np.ndarray]":
    """Deterministic 5-frame probe video — the INPUT SPEC shared verbatim
    with tools/gen_oracle_fixtures.media_video_fixture (the operator itself
    is reimplemented independently there)."""
    base = doc_id // 10 if doc_id % 10 in (0, 1) else 1_000_000 + doc_id
    frames = [_video_probe_seed_frame(base * 1000 + f) for f in range(5)]
    if doc_id % 10 == 1:
        # near-dup twin: one brightness-shifted frame (dHash-invariant, no
        # clipping at max 199+20) and one re-rendered frame (a minority the
        # per-bit majority vote eats)
        frames[0] = frames[0] + np.uint8(20)
        frames[4] = _video_probe_seed_frame((2_000_000 + doc_id) * 1000 + 4)
    return frames


SQL_MEDIA_DECODE_STATS = """
SELECT doc_id,
  CASE WHEN doc_id % 2 = 0 THEN 'image/ppm' ELSE 'audio/wav' END AS media_type,
  CASE WHEN doc_id % 2 = 0
       THEN CAST((doc_id * 7) % 256 AS DOUBLE) / 255.0
       ELSE CAST((doc_id * 13) % 1000 - 500 AS DOUBLE) / 32768.0 END AS mean_val,
  CAST(CASE WHEN doc_id % 2 = 0 THEN 8 ELSE 0 END AS INTEGER) AS width_dec,
  CAST(CASE WHEN doc_id % 2 = 0 THEN 6 ELSE 0 END AS INTEGER) AS height_dec,
  CAST(CASE WHEN doc_id % 2 = 0 THEN 0 ELSE 400 END AS BIGINT) AS n_samples
FROM documents ORDER BY doc_id
"""
# dhash + video arms of media_decode_stats: closed-form decode stats UNION
# the independent perceptual-hash fixtures (media_type discriminates arms)
register_query(q_media_decode_stats, (
    f"SELECT * FROM ({SQL_MEDIA_DECODE_STATS}) AS stats_arm "
    "UNION ALL "
    "SELECT doc_id, 'image/dhash' AS media_type, "
    "CAST(is_neardup AS DOUBLE) AS mean_val, "
    "CAST(0 AS INTEGER) AS width_dec, CAST(0 AS INTEGER) AS height_dec, "
    "CAST(dhash63 AS BIGINT) AS n_samples "
    f"FROM read_parquet('{os.path.join(_FIXTURES, 'media_dhash_docs.parquet')}') "
    f"WHERE fp = {_FP_DOCS} "
    "UNION ALL "
    "SELECT doc_id, 'video/fp' AS media_type, "
    "CAST(is_neardup AS DOUBLE) AS mean_val, "
    "CAST(n_frames AS INTEGER) AS width_dec, "
    "CAST(0 AS INTEGER) AS height_dec, "
    "CAST(vfp63 AS BIGINT) AS n_samples "
    f"FROM read_parquet('{os.path.join(_FIXTURES, 'media_video_docs.parquet')}') "
    f"WHERE fp = {_FP_DOCS} "
    "UNION ALL "
    "SELECT doc_id, 'audio/logmel' AS media_type, "
    "logmel_mean AS mean_val, "
    "CAST(n_frames AS INTEGER) AS width_dec, "
    "CAST(0 AS INTEGER) AS height_dec, "
    "CAST(800 + (doc_id % 5) * 160 AS BIGINT) AS n_samples "
    f"FROM read_parquet('{os.path.join(_FIXTURES, 'media_logmel_docs.parquet')}') "
    f"WHERE fp = {_FP_DOCS}"
), gate=48)


def q_dsir_docs(sf_dir: str) -> pd.DataFrame:
    """DSIR importance resampling (stages/dsir.py; Xie et al. 2023):
    target = lang == 'en' docs, raw = all docs, k = n//4 Gumbel-top-k.
    Deterministic end-to-end (crc32 hashes, 6dp-rounded logw), so the oracle
    is an independent per-doc fixture (tools/gen_oracle_fixtures.py)."""
    from great_expectations_ray.stages.dsir import dsir_select

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    n = ds.count()
    target = ds.filter(expr="lang == 'en'")
    out = dsir_select(ds, k=max(1, n // 4), column="text", id_col="doc_id",
                      target_ds=target, raw_ds=ds, flags_only=True)
    rows = out.select_columns(["doc_id", "dsir_logw", "selected"]).take_all()
    df = pd.DataFrame(rows).sort_values("doc_id").reset_index(drop=True)
    return pd.DataFrame({"doc_id": df["doc_id"],
                         "logw": df["dsir_logw"].round(6),
                         "selected": df["selected"]})


register_query(q_dsir_docs, _fixture_sql(
    "dsir_docs", "doc_id, logw, selected", _FP_DOCS, "doc_id"), bench=True)


# --------------------------------------------------------------------------- #
# driver-gate consolidation (round 3)
#
# The driver's correctness gate records at most 50 queries (r1: all 46 of 46;
# r2: exactly the first 50 of 84), so every operator family must land inside
# the first 50 entries.  Rather than leaving 34 queries formally unchecked, the
# catalog is consolidated to EXACTLY 50 with zero lost value checks: queries of
# the same operator family union into one result with a discriminator column,
# and the twenty single-row verdict queries melt into two grouped
# (chk, metric, value_num, value_str) frames.  Each merged oracle is the
# UNION ALL of the constituent oracles, wrapped verbatim as subqueries, so the
# SQL being compared is byte-for-byte the SQL that passed individually.
# The merged entries register with part=False (pack_shuffle_docs keeps its
# CONSTITUENT_QUERIES listing); their constituents stay importable via
# CONSTITUENT_QUERIES (bench.py times individual operators through it).
# --------------------------------------------------------------------------- #


def _run_part(name: str, sf_dir: str) -> pd.DataFrame:
    r = CATALOG[name].fn(sf_dir)
    if not isinstance(r, pd.DataFrame):
        r = r.to_pandas()
    return r


# ---- melted verdict groups ------------------------------------------------ #
# one row per (constituent query, output column); numeric/bool columns carry
# the value in value_num (value_str = ''), string columns in value_str
# (value_num = 0.0) — no NULLs anywhere so both engines hash identically.

_VERDICT_COLS: dict[str, list[tuple[str, str]]] = {
    "between_quantity": [("element_count", "num"), ("unexpected_count", "num"),
                         ("success", "num")],
    "value_lengths_docs": [("element_count", "num"), ("unexpected_count", "num")],
    "set_orders": [("element_count", "num"), ("unexpected_count", "num")],
    "pair_orders": [("element_count", "num"), ("unexpected_count", "num")],
    "row_condition_lineitem": [("n", "num"), ("sum_price", "num")],
    "json_parseable_events": [("element_count", "num"), ("unexpected_count", "num")],
    "mod_sample_events": [("n", "num"), ("sum_value", "num")],
    "hash_sample_events": [("n", "num"), ("min_id", "num"), ("max_id", "num")],
    "pushdown_read": [("n", "num"), ("sum_qty", "num")],
    "agg_quantity": [("mean_qty", "num"), ("sum_qty", "num"), ("min_qty", "num"),
                     ("max_qty", "num"), ("std_qty", "num"), ("n_rows", "num")],
    "distinct_mktsegment": [("distinct_cnt", "num"), ("uniq_prop", "num")],
    "most_common_returnflag": [("value", "str")],
    "quantiles_price": [("q25", "num"), ("q50", "num"), ("q75", "num")],
    "unique_prefix_violations": [("element_count", "num"), ("unexpected_count", "num")],
    "compound_unique_orders": [("element_count", "num"), ("unexpected_count", "num")],
    "zscore_quantity": [("element_count", "num"), ("unexpected_count", "num")],
    "kl_event_types": [("kl", "num"), ("success", "num")],
    "cramers_events": [("phi", "num"), ("success", "num")],
    "ks_uniform_quantity": [("d_stat", "num"), ("n", "num")],
}

_COLUMN_MAP_VERDICT_PARTS = [
    "between_quantity", "value_lengths_docs", "set_orders", "pair_orders",
    "row_condition_lineitem", "json_parseable_events", "mod_sample_events",
    "hash_sample_events", "pushdown_read", "customers_without_orders",
]


def q_exact_n_sample_docs(sf_dir: str) -> pd.DataFrame:
    """Deterministic exact-N uniform sample (md5-ordered bottom-N, no RNG,
    per-block candidates + driver merge — functions/partitioners.
    sample_exact_n), folded to (n, sum_ids) for the verdict frame."""
    from great_expectations_ray.functions.partitioners import sample_exact_n

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    picked = sample_exact_n(ds, 37, column="doc_id")
    return pd.DataFrame({"n": [np.int64(len(picked))],
                         "sum_ids": [np.int64(picked["doc_id"].sum())]})


register_query(q_exact_n_sample_docs, (
    "SELECT CAST(COUNT(*) AS BIGINT) AS n, CAST(SUM(doc_id) AS BIGINT) AS "
    "sum_ids FROM (SELECT doc_id FROM documents "
    "ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id LIMIT 37)"
))

_VERDICT_COLS["exact_n_sample_docs"] = [("n", "num"), ("sum_ids", "num")]

def q_psi_quantity_halves(sf_dir: str) -> pd.DataFrame:
    """Population Stability Index (functions/psi.py): l_quantity
    distribution of even-orderkey lineitem rows (baseline) vs odd
    (current) over 10 baseline-decile bins — exact rank-selected edges,
    one count pass per side, fixed-order per-bin terms from
    Laplace-smoothed integer counts (bit-exact vs the SQL oracle)."""
    from great_expectations_ray.functions.psi import psi_bins

    ds = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])

    def half(keep_even: bool):
        def f(tbl: pa.Table) -> pa.Table:
            even = pc.equal(pc.bit_wise_and(
                pc.cast(tbl.column("l_orderkey"), pa.int64()), 1), 0)
            return tbl.filter(even if keep_even else pc.invert(even))

        return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)

    out = psi_bins(half(True), half(False), "l_quantity", bins=10)
    return out[["bin", "base_cnt", "cur_cnt", "term"]]


def _psi_sql() -> str:
    edges = ",\n  ".join(
        f"max(CASE WHEN rn = CAST(floor(0.{i} * (c - 1)) AS BIGINT) "
        f"THEN x END) AS e{i}" for i in range(1, 10))
    binexpr = " + ".join(f"CAST(x > e{i} AS BIGINT)" for i in range(1, 10))
    return f"""
WITH base AS (SELECT l_quantity AS x FROM lineitem WHERE l_orderkey % 2 = 0),
cur AS (SELECT l_quantity AS x FROM lineitem WHERE l_orderkey % 2 <> 0),
s AS (SELECT x, row_number() OVER (ORDER BY x) - 1 AS rn FROM base),
nn AS (SELECT count(*) AS c FROM s),
e AS (SELECT
  {edges}
FROM s, nn),
allbins AS (SELECT CAST(unnest(range(10)) AS BIGINT) AS bin),
bb AS (SELECT bin, count(*) AS cnt
       FROM (SELECT {binexpr} AS bin FROM base, e) GROUP BY bin),
cb AS (SELECT bin, count(*) AS cnt
       FROM (SELECT {binexpr} AS bin FROM cur, e) GROUP BY bin),
tot AS (SELECT CAST((SELECT count(*) FROM base) + 10 AS DOUBLE) AS np,
               CAST((SELECT count(*) FROM cur) + 10 AS DOUBLE) AS mp)
SELECT a.bin,
       CAST(coalesce(bb.cnt, 0) AS BIGINT) AS base_cnt,
       CAST(coalesce(cb.cnt, 0) AS BIGINT) AS cur_cnt,
       round((CAST(coalesce(bb.cnt, 0) + 1 AS DOUBLE) / np
              - CAST(coalesce(cb.cnt, 0) + 1 AS DOUBLE) / mp)
             * ln((CAST(coalesce(bb.cnt, 0) + 1 AS DOUBLE) * mp)
                  / (CAST(coalesce(cb.cnt, 0) + 1 AS DOUBLE) * np)),
             12) AS term
FROM allbins a
LEFT JOIN bb ON a.bin = bb.bin
LEFT JOIN cb ON a.bin = cb.bin, tot
ORDER BY a.bin
"""


register_query(q_psi_quantity_halves, _psi_sql())


def q_pct_rank_quantity(sf_dir: str) -> pd.DataFrame:
    """Percent-rank normalization (functions/ranknorm.py): l_quantity
    mapped onto [0,1] by empirical rank (SQL percent_rank semantics, ties
    share the min rank).  Verdicts are exact integers over the per-row
    cnt_less column: n, sum(cnt_less), #rows in the bottom tie class,
    #rows in the top tie class."""
    from great_expectations_ray.functions.ranknorm import (
        percent_rank_transform)

    ds = _read(sf_dir, "lineitem", columns=["l_quantity"])
    out = percent_rank_transform(ds, "l_quantity")

    def partial(tbl: pa.Table) -> pa.Table:
        cl = np.asarray(tbl.column("cnt_less"))
        return pa.table({
            "n": pa.array([len(cl)]),
            "s": pa.array([int(cl.sum())]),
            "nmin": pa.array([int((cl == 0).sum())]),
            "clmax": pa.array([int(cl.max()) if len(cl) else -1]),
            "nmax_at": pa.array([int((cl == cl.max()).sum()) if len(cl) else 0]),
        })

    rows = out.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).take_all()
    clmax = max(r["clmax"] for r in rows)
    return pd.DataFrame([{
        "n": sum(r["n"] for r in rows),
        "sum_cnt_less": sum(r["s"] for r in rows),
        "n_min": sum(r["nmin"] for r in rows),
        "n_max": sum(r["nmax_at"] for r in rows if r["clmax"] == clmax),
    }]).astype("int64")


register_query(q_pct_rank_quantity, """
WITH r AS (SELECT l_quantity,
                  rank() OVER (ORDER BY l_quantity) - 1 AS cl
           FROM lineitem)
SELECT CAST(count(*) AS BIGINT) AS n,
  CAST(sum(cl) AS BIGINT) AS sum_cnt_less,
  CAST(sum(CASE WHEN cl = 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_min,
  CAST(sum(CASE WHEN cl = (SELECT max(cl) FROM r) THEN 1 ELSE 0 END)
       AS BIGINT) AS n_max
FROM r
""")
_VERDICT_COLS["pct_rank_quantity"] = [
    ("n", "num"), ("sum_cnt_less", "num"), ("n_min", "num"), ("n_max", "num")]


def q_grouped_validate_lineitem(sf_dir: str) -> pd.DataFrame:
    """Grouped validation (pipelines/grouped.py validate_grouped): one suite
    x every l_returnflag partition of lineitem in a SINGLE fused pass.
    Verdict columns are integer counts and success booleans only (Chan-merged
    float means are partition-order-dependent in the last bits, so the mean
    expectation contributes its SUCCESS, never its observed value)."""
    from great_expectations_ray.core.suite import ExpectationSuite as _ES
    from great_expectations_ray.pipelines.grouped import validate_grouped

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_quantity", "l_discount"])
    suite = (
        _ES("grouped_gate")
        .add("expect_column_values_to_be_between", column="l_quantity",
             min_value=1, max_value=49)
        .add("expect_column_mean_to_be_between", column="l_discount",
             min_value=0.0, max_value=0.1)
    )
    res = validate_grouped(ds, suite, by="l_returnflag")
    row: dict[str, int] = {}
    for flag in ("A", "N", "R"):
        r = res[flag].to_json_dict()
        row[f"{flag}_n"] = int(res[flag].meta["row_count"])
        row[f"{flag}_unexp"] = int(
            r["results"][0]["result"]["unexpected_count"])
        row[f"{flag}_mean_ok"] = int(bool(r["results"][1]["success"]))
    return pd.DataFrame([row]).astype("int64")


_GV_COLS = []
for _f in ("A", "N", "R"):
    _GV_COLS += [
        f"CAST(COUNT(*) FILTER (WHERE l_returnflag = '{_f}') AS BIGINT) "
        f"AS {_f}_n",
        f"CAST(COUNT(*) FILTER (WHERE l_returnflag = '{_f}' AND "
        f"(l_quantity < 1 OR l_quantity > 49)) AS BIGINT) AS {_f}_unexp",
        f"CAST(CASE WHEN (AVG(l_discount) FILTER (WHERE l_returnflag = "
        f"'{_f}')) BETWEEN 0.0 AND 0.1 THEN 1 ELSE 0 END AS BIGINT) "
        f"AS {_f}_mean_ok",
    ]
register_query(q_grouped_validate_lineitem, (
    "SELECT " + ", ".join(_GV_COLS) + " FROM lineitem"
))
_VERDICT_COLS["grouped_validate_lineitem"] = [
    (f"{f}_{m}", "num") for f in ("A", "N", "R")
    for m in ("n", "unexp", "mean_ok")
]


def q_grouped_wide_validate_lineitem(sf_dir: str) -> pd.DataFrame:
    """WIDE grouped validation (pipelines/grouped.py validate_grouped_wide):
    one suite x every l_suppkey group of lineitem, merged AND finished
    inside ONE bucketed exchange — the unbounded-cardinality path; the
    driver sees only verdict rows.  Summary is integer-only; the mostly
    comparison is float-division in the exact engine order, mirrored
    operation-for-operation in the oracle (both IEEE double), so the
    verdict cannot drift at ratio boundaries."""
    from great_expectations_ray.core.suite import ExpectationSuite as _ES
    from great_expectations_ray.pipelines.grouped import validate_grouped_wide

    ds = _read(sf_dir, "lineitem", columns=["l_suppkey", "l_quantity"])
    suite = (
        _ES("grouped_wide_gate")
        .add("expect_column_values_to_be_between", column="l_quantity",
             min_value=1, max_value=49, mostly=0.98)
        .add("expect_table_row_count_to_be_between", min_value=1)
    )
    wide = validate_grouped_wide(ds, suite, by="l_suppkey").to_pandas()
    return pd.DataFrame([{
        "n_groups": len(wide),
        "failed_groups": int((~wide["success"].astype(bool)).sum()),
        "total_rows": int(wide["row_count"].sum()),
        "ok_expectations": int(wide["successful_expectations"].sum()),
    }]).astype("int64")


register_query(q_grouped_wide_validate_lineitem, """
WITH g AS (
  SELECT l_suppkey,
    COUNT(*) AS n,
    COUNT(*) FILTER (WHERE l_quantity < 1 OR l_quantity > 49) AS unexp
  FROM lineitem GROUP BY l_suppkey
), v AS (
  SELECT n, unexp,
    ((CAST(n AS DOUBLE) - CAST(unexp AS DOUBLE)) / CAST(n AS DOUBLE)
     >= CAST(0.98 AS DOUBLE)) AS between_ok
  FROM g
)
SELECT CAST(COUNT(*) AS BIGINT) AS n_groups,
  CAST(COUNT(*) FILTER (WHERE NOT between_ok) AS BIGINT) AS failed_groups,
  CAST(SUM(n) AS BIGINT) AS total_rows,
  CAST(SUM(CASE WHEN between_ok THEN 2 ELSE 1 END) AS BIGINT)
    AS ok_expectations
FROM v
""")
_VERDICT_COLS["grouped_wide_validate_lineitem"] = [
    ("n_groups", "num"), ("failed_groups", "num"),
    ("total_rows", "num"), ("ok_expectations", "num"),
]


def q_grouped_multicol_validate_lineitem(sf_dir: str) -> pd.DataFrame:
    """MULTI-COLUMN grouped validation (pipelines/grouped.py, by=[...]):
    one suite x every (l_returnflag, l_linestatus) cell of lineitem through
    the wide bucketed-exchange path — tuple keys surface as one
    ``group_<col>`` verdict column per key column (``n_groups_rf_a`` counts
    groups via ``group_l_returnflag``, pinning the per-column key split).
    The mostly comparison mirrors the engine's exact float-division order
    (core/results.py mostly_success), IEEE-identical in DuckDB."""
    from great_expectations_ray.core.suite import ExpectationSuite as _ES
    from great_expectations_ray.pipelines.grouped import validate_grouped_wide

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_linestatus", "l_quantity"])
    suite = (
        _ES("grouped_multicol_gate")
        .add("expect_column_values_to_be_between", column="l_quantity",
             min_value=1, max_value=49, mostly=0.98)
        .add("expect_table_row_count_to_be_between", min_value=1)
    )
    wide = validate_grouped_wide(
        ds, suite, by=["l_returnflag", "l_linestatus"], n_buckets=8
    ).to_pandas()
    return pd.DataFrame([{
        "n_groups": len(wide),
        "failed_groups": int((~wide["success"].astype(bool)).sum()),
        "total_rows": int(wide["row_count"].sum()),
        "ok_expectations": int(wide["successful_expectations"].sum()),
        "n_groups_rf_a": int((wide["group_l_returnflag"] == "A").sum()),
    }]).astype("int64")


register_query(q_grouped_multicol_validate_lineitem, """
WITH g AS (
  SELECT l_returnflag, l_linestatus,
    COUNT(*) AS n,
    COUNT(*) FILTER (WHERE l_quantity < 1 OR l_quantity > 49) AS unexp
  FROM lineitem GROUP BY l_returnflag, l_linestatus
), v AS (
  SELECT l_returnflag, n, unexp,
    ((CAST(n AS DOUBLE) - CAST(unexp AS DOUBLE)) / CAST(n AS DOUBLE)
     >= CAST(0.98 AS DOUBLE)) AS between_ok
  FROM g
)
SELECT CAST(COUNT(*) AS BIGINT) AS n_groups,
  CAST(COUNT(*) FILTER (WHERE NOT between_ok) AS BIGINT) AS failed_groups,
  CAST(SUM(n) AS BIGINT) AS total_rows,
  CAST(SUM(CASE WHEN between_ok THEN 2 ELSE 1 END) AS BIGINT)
    AS ok_expectations,
  CAST(COUNT(*) FILTER (WHERE l_returnflag = 'A') AS BIGINT) AS n_groups_rf_a
FROM v
""")
_VERDICT_COLS["grouped_multicol_validate_lineitem"] = [
    ("n_groups", "num"), ("failed_groups", "num"),
    ("total_rows", "num"), ("ok_expectations", "num"),
    ("n_groups_rf_a", "num"),
]


_AGG_STATS_VERDICT_PARTS = [
    "agg_quantity", "distinct_mktsegment", "most_common_returnflag",
    "quantiles_price", "unique_prefix_violations", "compound_unique_orders",
    "zscore_quantity", "kl_event_types", "cramers_events",
    "ks_uniform_quantity", "exact_n_sample_docs", "psi_quantity_halves",
    "pct_rank_quantity", "grouped_validate_lineitem",
    "grouped_wide_validate_lineitem", "grouped_multicol_validate_lineitem",
]


def _melt_verdicts(parts: list[str], sf_dir: str) -> pd.DataFrame:
    recs: list[tuple] = []
    for name in parts:
        df = _run_part(name, sf_dir)
        if name == "customers_without_orders":
            # list-shaped constituent folded to its count verdict
            recs.append((name, "n", float(len(df)), ""))
            continue
        if name == "psi_quantity_halves":
            # multi-row constituent: one metric per (bin, column)
            for _, r in df.iterrows():
                b = int(r["bin"])
                recs.append((name, f"bin{b}_base", float(r["base_cnt"]), ""))
                recs.append((name, f"bin{b}_cur", float(r["cur_cnt"]), ""))
                recs.append((name, f"bin{b}_term", float(r["term"]), ""))
            continue
        row = df.iloc[0]
        for col, kind in _VERDICT_COLS[name]:
            if kind == "num":
                recs.append((name, col, float(row[col]), ""))
            else:
                recs.append((name, col, 0.0, str(row[col])))
    out = pd.DataFrame(recs, columns=["chk", "metric", "value_num", "value_str"])
    return out.sort_values(["chk", "metric"], kind="mergesort").reset_index(drop=True)


def _melted_sql(parts: list[str]) -> str:
    selects = []
    for name in parts:
        sub = CATALOG[name].sql.strip().rstrip(";")
        if name == "customers_without_orders":
            selects.append(
                f"SELECT '{name}' AS chk, 'n' AS metric, "
                f"CAST(COUNT(*) AS DOUBLE) AS value_num, '' AS value_str "
                f"FROM ({sub})"
            )
            continue
        if name == "psi_quantity_halves":
            for col in ("base", "cur", "term"):
                src = {"base": "base_cnt", "cur": "cur_cnt",
                       "term": "term"}[col]
                selects.append(
                    f"SELECT '{name}' AS chk, "
                    f"'bin' || CAST(bin AS VARCHAR) || '_{col}' AS metric, "
                    f"CAST({src} AS DOUBLE) AS value_num, '' AS value_str "
                    f"FROM ({sub})"
                )
            continue
        for col, kind in _VERDICT_COLS[name]:
            if kind == "num":
                selects.append(
                    f"SELECT '{name}' AS chk, '{col}' AS metric, "
                    f"CAST({col} AS DOUBLE) AS value_num, '' AS value_str "
                    f"FROM ({sub})"
                )
            else:
                selects.append(
                    f"SELECT '{name}' AS chk, '{col}' AS metric, "
                    f"0.0 AS value_num, CAST({col} AS VARCHAR) AS value_str "
                    f"FROM ({sub})"
                )
    return "\nUNION ALL\n".join(selects) + "\nORDER BY chk, metric"


def q_column_map_verdicts(sf_dir: str) -> pd.DataFrame:
    """Melted union of the column-map / sampler / pushdown verdict queries —
    between, value-lengths, in-set, pair, row-condition, json-parseable,
    mod/hash samplers, pushdown read, customers-without-orders count."""
    return _melt_verdicts(_COLUMN_MAP_VERDICT_PARTS, sf_dir)


def q_agg_stats_verdicts(sf_dir: str) -> pd.DataFrame:
    """Melted union of the aggregate / distribution-statistic verdict queries
    — mean/sum/min/max/std, distinct+proportion, most-common, quantiles,
    uniqueness counts, z-score, KL, Cramér's φ, KS."""
    return _melt_verdicts(_AGG_STATS_VERDICT_PARTS, sf_dir)


SQL_COLUMN_MAP_VERDICTS = _melted_sql(_COLUMN_MAP_VERDICT_PARTS)
register_query(q_column_map_verdicts, SQL_COLUMN_MAP_VERDICTS, gate=1, part=False)
SQL_AGG_STATS_VERDICTS = _melted_sql(_AGG_STATS_VERDICT_PARTS)
register_query(q_agg_stats_verdicts, SQL_AGG_STATS_VERDICTS, gate=2, part=False)


# ---- same-family unions ---------------------------------------------------- #

def q_window_events(sf_dir: str) -> pd.DataFrame:
    """Tumbling + sliding + session windows in one frame.  Session rows carry
    (session_start, session_end, n_events) as (window_start, window_end, n);
    tumbling/sliding rows have window_end = 0; session rows sum_value = 0."""
    tum = _run_part("tumbling_events", sf_dir)
    sli = _run_part("sliding_events", sf_dir)
    ses = _run_part("session_events", sf_dir)
    tum.insert(0, "kind", "tumbling")
    sli.insert(0, "kind", "sliding")
    tum["window_end"] = np.int64(0)
    sli["window_end"] = np.int64(0)
    ses = pd.DataFrame({
        "kind": "session",
        "user_id": ses["user_id"],
        "window_start": ses["session_start"],
        "n": ses["n_events"],
        "sum_value": 0.0,
        "window_end": ses["session_end"],
    })
    cols = ["kind", "user_id", "window_start", "window_end", "n", "sum_value"]
    out = pd.concat([tum[cols], sli[cols], ses[cols]], ignore_index=True)
    return out.sort_values(cols[:4], kind="mergesort").reset_index(drop=True)


SQL_WINDOW_EVENTS = f"""
SELECT 'tumbling' AS kind, user_id, window_start,
       CAST(0 AS BIGINT) AS window_end, n, sum_value
FROM ({SQL_TUMBLING_EVENTS.strip()})
UNION ALL
SELECT 'sliding', user_id, window_start, CAST(0 AS BIGINT), n, sum_value
FROM ({SQL_SLIDING_EVENTS.strip()})
UNION ALL
SELECT 'session', user_id, session_start, session_end, n_events,
       CAST(0.0 AS DOUBLE)
FROM ({SQL_SESSION_EVENTS.strip()})
ORDER BY kind, user_id, window_start, window_end
"""
register_query(q_window_events, SQL_WINDOW_EVENTS, gate=12, part=False)


def q_keep_best_dedup_docs(sf_dir: str) -> pd.DataFrame:
    """Keep-BEST dedup (stages/dedup.py dedup_keep_best): per 30-char
    prefix class keep the longest doc (max n_chars, ties -> min doc_id) —
    the curation form of keep-first; same pre-combined bucketed exchange."""
    from great_expectations_ray.stages.dedup import dedup_keep_best

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "n_chars"])

    def add_prefix(tbl: pa.Table) -> pa.Table:
        return tbl.append_column(
            "prefix",
            pc.utf8_slice_codeunits(tbl.column("text").combine_chunks(), 0, 30))

    keyed = ds.map_batches(add_prefix, batch_format="pyarrow",
                           zero_copy_batch=True)
    kept = dedup_keep_best(keyed, ["prefix"], "n_chars", tie_break="doc_id")
    ids = sorted(r["doc_id"] for r in kept.select_columns(["doc_id"]).take_all())
    return pd.DataFrame({"doc_id": ids})


SQL_KEEP_BEST_DEDUP_DOCS = """
SELECT doc_id FROM (
  SELECT doc_id, row_number() OVER (
    PARTITION BY substr(text, 1, 30)
    ORDER BY n_chars DESC, doc_id) AS rn
  FROM documents) WHERE rn = 1 ORDER BY doc_id
"""
register_query(q_keep_best_dedup_docs, SQL_KEEP_BEST_DEDUP_DOCS)


def q_dedup_docs(sf_dir: str) -> pd.DataFrame:
    """Exact dedup survivors by both key paths: 64-char text prefix and
    sha256-of-prefix — same keep-first engine, two key derivations."""
    pre = _run_part("dedup_docs_prefix", sf_dir)
    sha = _run_part("sha_prefix_dedup", sf_dir)
    best = _run_part("keep_best_dedup_docs", sf_dir)
    pre.insert(0, "method", "prefix")
    sha.insert(0, "method", "sha")
    best.insert(0, "method", "best")
    out = pd.concat([pre, sha, best], ignore_index=True)
    return out.sort_values(["method", "doc_id"], kind="mergesort").reset_index(drop=True)


SQL_DEDUP_DOCS = f"""
SELECT 'prefix' AS method, doc_id FROM ({SQL_DEDUP_DOCS_PREFIX.strip()})
UNION ALL
SELECT 'sha', doc_id FROM ({SQL_SHA_PREFIX_DEDUP.strip()})
UNION ALL
SELECT 'best', doc_id FROM ({SQL_KEEP_BEST_DEDUP_DOCS.strip()})
ORDER BY method, doc_id
"""
register_query(q_dedup_docs, SQL_DEDUP_DOCS, gate=5, part=False)


def q_qf_corpus_keep_scrub(sf_dir: str) -> pd.DataFrame:
    """Flagship keep/drop verdict + scrubbed-content digest per doc in one
    frame (north-star criteria: keep/drop F1 and sha-exact scrub)."""
    keep = _run_part("qf_corpus_keep", sf_dir)
    scrub = _run_part("qf_corpus_scrub", sf_dir)
    out = keep.merge(scrub, on="doc_id", how="inner")
    return out.sort_values("doc_id", kind="mergesort").reset_index(drop=True)


SQL_QF_CORPUS_KEEP_SCRUB = f"""
SELECT k.doc_id, k.keep, s.scrub_md5
FROM ({SQL_QF_CORPUS_KEEP.strip()}) k
JOIN ({SQL_QF_CORPUS_SCRUB.strip()}) s USING (doc_id)
ORDER BY doc_id
"""
register_query(q_qf_corpus_keep_scrub, SQL_QF_CORPUS_KEEP_SCRUB, gate=9, part=False)


def q_kmeans_embeddings(sf_dir: str) -> pd.DataFrame:
    """Distributed spherical k-means (fixed-point Lloyd, bit-reproducible
    under any partitioning) + per-batch assignment."""
    from great_expectations_ray.stages.kmeans import assign_kmeans, fit_kmeans

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    C = fit_kmeans(ds, k=8, iters=6, seed=0)
    rows = assign_kmeans(ds, C).select_columns(
        ["vec_id", "cluster", "sim"]).take_all()
    return pd.DataFrame(rows).sort_values("vec_id").reset_index(drop=True)


def q_pca_embeddings(sf_dir: str) -> pd.DataFrame:
    """One-pass streaming PCA (fixed-point moment fold) + broadcast
    projection onto the top-2 components."""
    from great_expectations_ray.stages.pca import fit_pca, project_pca

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    model = fit_pca(ds, n_components=2)
    rows = project_pca(ds, model).select_columns(
        ["vec_id", "pc1", "pc2"]).take_all()
    return pd.DataFrame(rows).sort_values("vec_id").reset_index(drop=True)


def q_knn_graph_embeddings(sf_dir: str) -> pd.DataFrame:
    """kNN-graph strip: exact cosine top-5 neighbors for the 8 lowest
    vec_ids in ONE corpus stream (fixed-point int64 dots — bit-reproducible
    and pure-SQL-oracle-able; see stages/ann.multi_query_topk)."""
    from great_expectations_ray.stages.ann import multi_query_topk

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qrows = sorted(ds.filter(expr="vec_id < 8").take_all(),
                   key=lambda r: r["vec_id"])
    qids = [int(r["vec_id"]) for r in qrows]
    Qm = np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in qrows])
    triples = multi_query_topk(ds, qids, Qm, k=5)
    return pd.DataFrame(triples, columns=["qid", "vec_id", "sim"]) \
        .sort_values(["qid", "vec_id"]).reset_index(drop=True)


SQL_KNN_GRAPH_EMBEDDINGS = """
WITH qi AS (SELECT vec_id AS qid,
  list_transform(embedding, v -> CAST(floor(CAST(v AS DOUBLE)*1048576.0) AS BIGINT)) AS qv
  FROM embeddings WHERE vec_id < 8),
ei AS (SELECT vec_id,
  list_transform(embedding, v -> CAST(floor(CAST(v AS DOUBLE)*1048576.0) AS BIGINT)) AS ev
  FROM embeddings),
sims AS (SELECT qi.qid, ei.vec_id,
  CAST(list_sum(list_transform(list_zip(qi.qv, ei.ev), x -> x[1]*x[2])) AS BIGINT) AS dot,
  CAST(list_sum(list_transform(qi.qv, v -> v*v)) AS BIGINT) AS qn2,
  CAST(list_sum(list_transform(ei.ev, v -> v*v)) AS BIGINT) AS en2
 FROM qi CROSS JOIN ei WHERE ei.vec_id != qi.qid AND
  CAST(list_sum(list_transform(ei.ev, v -> v*v)) AS BIGINT) > 0)
SELECT qid, vec_id,
  CAST(dot AS DOUBLE)/sqrt(CAST(qn2 AS DOUBLE)*CAST(en2 AS DOUBLE)) AS sim
FROM sims
QUALIFY ROW_NUMBER() OVER (PARTITION BY qid ORDER BY sim DESC, vec_id ASC) <= 5
ORDER BY qid, vec_id
"""
register_query(q_knn_graph_embeddings, SQL_KNN_GRAPH_EMBEDDINGS, bench=True)

def q_kmeans_cap_embeddings(sf_dir: str) -> pd.DataFrame:
    """Cluster-capped diversity sampling (SSL-curation retention): keep at
    most 8 members per k-means cluster, lowest vec_id first — distributed
    fit + assign, then ONE bucketed window exchange (windowed_rank)."""
    from great_expectations_ray.functions.window_rank import windowed_rank
    from great_expectations_ray.stages.kmeans import assign_kmeans, fit_kmeans

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    C = fit_kmeans(ds, k=8, iters=6, seed=0)
    assigned = assign_kmeans(ds, C).select_columns(["vec_id", "cluster"])
    ranked = windowed_rank(assigned, partition_by="cluster",
                           order_by="vec_id", outputs=("row_number",),
                           keep_cols=("vec_id",))
    df = pd.DataFrame(ranked.take_all())
    df["keep"] = (df["row_number"] <= 8).astype("int64")
    return df[["vec_id", "keep"]].sort_values("vec_id").reset_index(drop=True)


register_query(q_kmeans_cap_embeddings, _fixture_sql(
    "kmeans_embeddings",
    "vec_id, CAST(ROW_NUMBER() OVER (PARTITION BY cluster ORDER BY vec_id)"
    " <= 8 AS BIGINT) AS keep",
    _FP_EMB, "vec_id"))


def q_pq_embeddings(sf_dir: str) -> pd.DataFrame:
    """Product quantization: distributed fixed-point per-subspace Lloyd fit
    (bit-reproducible under any partitioning), per-batch encode to packed
    base-16 codes, ADC approximate cosine vs the vec_id=0 query (the
    compression half of the ANN story — 64 floats -> 4 codes per row)."""
    from great_expectations_ray.stages.pq import encode_pq, fit_pq

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q_row = [r for r in ds.filter(expr="vec_id == 0").take(1)][0]
    query = np.asarray(q_row["embedding"], dtype=np.float64)
    model = fit_pq(ds, m=4, ncodes=16, iters=6, seed=5)
    rows = encode_pq(ds, model, query=query).select_columns(
        ["vec_id", "code", "adc"]).take_all()
    return pd.DataFrame(rows).sort_values("vec_id").reset_index(drop=True)


register_query(q_pq_embeddings, _fixture_sql(
    "pq_embeddings", "vec_id, code, adc", _FP_EMB, "vec_id"), bench=True)
register_query(q_kmeans_embeddings, _fixture_sql(
    "kmeans_embeddings", "vec_id, cluster, sim", _FP_EMB, "vec_id"), bench=True)
register_query(q_pca_embeddings, _fixture_sql(
    "pca_embeddings", "vec_id, pc1, pc2", _FP_EMB, "vec_id"))


def q_ann_methods_topk(sf_dir: str) -> pd.DataFrame:
    """Embedding-ops family in one frame: ANN top-k by all three methods
    (brute-force cosine, hyperplane-LSH bucketed, IVF probed), distributed
    k-means (cluster assignment + cosine-to-centroid arms), streaming
    PCA (pc1/pc2 projection arms), the multi-query kNN-graph strip
    (encoded qid*100000+neighbor key), and cluster-capped diversity
    sampling (keep flag as sim)."""
    frames = []
    for method, name in [("brute", "ann_topk"), ("lsh", "lsh_ann_topk"),
                         ("ivf", "ivf_ann_topk")]:
        f = _run_part(name, sf_dir)
        f.insert(0, "method", method)
        frames.append(f)
    km = _run_part("kmeans_embeddings", sf_dir)
    frames.append(pd.DataFrame({"method": "kmeans_assign",
                                "vec_id": km["vec_id"],
                                "sim": km["cluster"].astype("float64")}))
    frames.append(pd.DataFrame({"method": "kmeans_sim",
                                "vec_id": km["vec_id"], "sim": km["sim"]}))
    pc = _run_part("pca_embeddings", sf_dir)
    frames.append(pd.DataFrame({"method": "pca1", "vec_id": pc["vec_id"],
                                "sim": pc["pc1"]}))
    frames.append(pd.DataFrame({"method": "pca2", "vec_id": pc["vec_id"],
                                "sim": pc["pc2"]}))
    kn = _run_part("knn_graph_embeddings", sf_dir)
    frames.append(pd.DataFrame({
        "method": "knn",
        # encoded (query, neighbor) key — vec-id space < 100000 documented
        "vec_id": kn["qid"] * 100000 + kn["vec_id"],
        "sim": kn["sim"]}))
    kc = _run_part("kmeans_cap_embeddings", sf_dir)
    frames.append(pd.DataFrame({"method": "kmeans_cap",
                                "vec_id": kc["vec_id"],
                                "sim": kc["keep"].astype("float64")}))
    pq = _run_part("pq_embeddings", sf_dir)
    frames.append(pd.DataFrame({"method": "pq_code", "vec_id": pq["vec_id"],
                                # packed code < 16^4 — exact as float64
                                "sim": pq["code"].astype("float64")}))
    frames.append(pd.DataFrame({"method": "pq_adc", "vec_id": pq["vec_id"],
                                "sim": pq["adc"]}))
    out = pd.concat(frames, ignore_index=True)
    return out.sort_values(["method", "vec_id"], kind="mergesort").reset_index(drop=True)


def q_neardup_docs(sf_dir: str) -> pd.DataFrame:
    """Near-duplicate marking by every method: MinHash-LSH banded, MinHash
    + signature-Jaccard verify, EXACT n-gram Jaccard verify (routed shingle
    sets), SimHash band-blocked, embedding hyperplane-LSH (vec_id reported
    as doc_id), and transitive connected-component clustering.  ``v``
    carries each method's verdict: 0/1 near-dup flag for the five markers,
    the CLUSTER ID (min doc id of the component) for the clustering arm,
    and the best-of-cluster KEEP flag (longest member wins) for the
    retention arm."""
    frames = []
    for method, name in [("minhash", "minhash_neardup_docs"),
                         ("minhash_verified", "minhash_verified_docs"),
                         ("ngram_jaccard", "ngram_jaccard_neardup_docs"),
                         ("simhash", "simhash_neardup_docs"),
                         ("embedding", "embedding_neardup"),
                         ("cc_cluster", "cc_cluster_docs"),
                         ("cc_keep_best", "cc_keep_best_docs")]:
        f = _run_part(name, sf_dir)
        if "vec_id" in f.columns:
            f = f.rename(columns={"vec_id": "doc_id"})
        if method == "cc_cluster":
            v = f["cluster"]
        elif method == "cc_keep_best":
            v = f["keep"]
        else:
            v = f["is_neardup"]
        frames.append(pd.DataFrame({
            "method": method,
            "doc_id": f["doc_id"],
            "v": v.astype("int64"),
        }))
    out = pd.concat(frames, ignore_index=True)
    return out.sort_values(["method", "doc_id"], kind="mergesort").reset_index(drop=True)


def q_fingerprint_docs(sf_dir: str) -> pd.DataFrame:
    """Copy-detection family in one frame: winnowing fingerprints per doc,
    cross-doc fingerprint-overlap pairs, ExactSubstr duplicate windows, and
    ExactSubstr keep-first span REMOVAL.  Generic columns (id_a, v1, v2, h)
    carry each method's tuple: winnow = (doc_id, n_fingerprints, fp_digest,
    ''); overlap = (id_a, id_b, shared, ''); substr = (doc_id, dup_windows,
    first_dup_pos, ''); remove = (doc_id, removed_bytes, n_cuts,
    clean_md5)."""
    win = _run_part("winnow_fingerprint_docs", sf_dir)
    ovl = _run_part("fingerprint_overlap_docs", sf_dir)
    sub = _run_part("substr_dup_docs", sf_dir)
    rem = _run_part("substr_remove_docs", sf_dir)
    frames = [
        pd.DataFrame({"method": "winnow", "id_a": win["doc_id"],
                      "v1": win["n_fingerprints"], "v2": win["fp_digest"],
                      "h": ""}),
        pd.DataFrame({"method": "overlap", "id_a": ovl["id_a"],
                      "v1": ovl["id_b"], "v2": ovl["shared"], "h": ""}),
        pd.DataFrame({"method": "substr", "id_a": sub["doc_id"],
                      "v1": sub["dup_windows"], "v2": sub["first_dup_pos"],
                      "h": ""}),
        pd.DataFrame({"method": "remove", "id_a": rem["doc_id"],
                      "v1": rem["removed_bytes"], "v2": rem["n_cuts"],
                      "h": rem["clean_md5"]}),
    ]
    out = pd.concat(frames, ignore_index=True)
    return out.sort_values(["method", "id_a", "v1"], kind="mergesort").reset_index(drop=True)


def q_logreg_docs(sf_dir: str) -> pd.DataFrame:
    """Distributed logistic-regression classifier (rule-distillation shape):
    full-batch GD over every row — exact int64 gradient partials, one fold
    per iteration, bit-reproducible under any partitioning — then per-batch
    scoring.  Target: lang == 'en'."""
    from great_expectations_ray.stages.logreg import fit_logreg, score_logreg

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def add_y(tbl: pa.Table) -> pa.Table:
        return tbl.append_column(
            "y", pc.equal(pc.fill_null(tbl.column("lang"), ""), "en"))

    labeled = ds.map_batches(add_y, batch_format="pyarrow",
                             zero_copy_batch=True)
    w = fit_logreg(labeled, y_col="y", text_col="text", iters=8, lr=2.0)
    rows = score_logreg(ds, w).select_columns(
        ["doc_id", "prob", "pred"]).take_all()
    return pd.DataFrame(rows).sort_values("doc_id").reset_index(drop=True)


register_query(q_logreg_docs, _fixture_sql(
    "logreg_docs", "doc_id, prob, pred", _FP_DOCS, "doc_id"))


def q_langid_methods_docs(sf_dir: str) -> pd.DataFrame:
    """Language-ID / classifier family: the n-gram heuristic stage, the
    fastText-architecture classifier (heuristic rows: pred_score = 0), and
    the distributed logistic-regression en-vs-rest scorer."""
    heur = _run_part("langid_docs", sf_dir)
    fast = _run_part("fasttext_langid_docs", sf_dir)
    heur = pd.DataFrame({"method": "heuristic", "doc_id": heur["doc_id"],
                         "pred_label": heur["lang_pred"], "pred_score": 0.0})
    fast.insert(0, "method", "fasttext")
    lr = _run_part("logreg_docs", sf_dir)
    lr = pd.DataFrame({"method": "logreg", "doc_id": lr["doc_id"],
                       "pred_label": np.where(lr["pred"] == 1, "en", "other"),
                       "pred_score": lr["prob"]})
    cols = ["method", "doc_id", "pred_label", "pred_score"]
    out = pd.concat([heur[cols], fast[cols], lr[cols]], ignore_index=True)
    return out.sort_values(["method", "doc_id"], kind="mergesort").reset_index(drop=True)


def q_perplexity_methods_docs(sf_dir: str) -> pd.DataFrame:
    """Per-doc LM-based data-selection scores, all methods: the broadcast
    character-bigram perplexity, the distributed-trained LM perplexity
    (bit-identical to the driver trainer), DSIR importance log-weights
    ('dsir' rows carry logw; 'dsir_sel' rows carry the Gumbel-top-k selection
    flag as 0/1), zlib compression-ratio scores, and the interpolated
    Kneser-Ney hashed word-bigram perplexity ('kn' rows; stages/kn_lm.py)."""
    b = _run_part("perplexity_docs", sf_dir)
    t = _run_part("lm_trained_ppl_docs", sf_dir)
    d = _run_part("dsir_docs", sf_dir)
    z = _run_part("zlib_ratio_docs", sf_dir)
    zt = _run_part("zlib_top25_docs", sf_dir)
    kn = _run_part("kn_ppl_docs", sf_dir)
    b.insert(0, "method", "broadcast")
    t.insert(0, "method", "trained")
    kn.insert(0, "method", "kn")
    frames = [
        b, t,
        pd.DataFrame({"method": "dsir", "doc_id": d["doc_id"],
                      "perplexity": d["logw"]}),
        pd.DataFrame({"method": "dsir_sel", "doc_id": d["doc_id"],
                      "perplexity": d["selected"].astype(np.float64)}),
        pd.DataFrame({"method": "zlib", "doc_id": z["doc_id"],
                      "perplexity": z["ratio"]}),
        pd.DataFrame({"method": "zlib_top25", "doc_id": zt["doc_id"],
                      "perplexity": zt["selected"].astype(np.float64)}),
        kn,
    ]
    out = pd.concat(frames, ignore_index=True)
    return out.sort_values(["method", "doc_id"], kind="mergesort").reset_index(drop=True)


def q_kn_ppl_docs(sf_dir: str) -> pd.DataFrame:
    """Interpolated Kneser-Ney hashed word-bigram perplexity (stages/kn_lm.py;
    the CCNet-style KenLM quality signal, Wenzek et al. 2020): ONE sparse
    bigram-count exchange trains the model, broadcast scoring appends per-doc
    perplexity.  Deterministic end-to-end (crc32 word hashing, exact integer
    counts), so the oracle is an independent per-doc dict-count fixture
    (tools/gen_oracle_fixtures.py kn_ppl_fixture)."""
    from great_expectations_ray.stages.kn_lm import kn_perplexity

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    scored = kn_perplexity(ds, column="text")
    rows = scored.select_columns(["doc_id", "kn_ppl"]).take_all()
    df = pd.DataFrame(rows).sort_values("doc_id").reset_index(drop=True)
    return pd.DataFrame({"doc_id": df["doc_id"],
                         "perplexity": df["kn_ppl"].round(6)})


register_query(q_kn_ppl_docs, _fixture_sql(
    "kn_ppl_docs", "doc_id, perplexity", _FP_DOCS, "doc_id"), bench=True)


def q_urlops_docs(sf_dir: str) -> pd.DataFrame:
    """URL operations in one frame: canonicalized URL + domain per doc, and
    the per-domain cap survivor list (cap rows: canon_url = '')."""
    canon = _run_part("url_canon_docs", sf_dir)
    cap = _run_part("domain_cap_docs", sf_dir)
    canon.insert(0, "op", "canon")
    cap = pd.DataFrame({"op": "cap", "doc_id": cap["doc_id"],
                        "canon_url": "", "domain": cap["domain"]})
    cols = ["op", "doc_id", "canon_url", "domain"]
    out = pd.concat([canon[cols], cap[cols]], ignore_index=True)
    return out.sort_values(["op", "doc_id"], kind="mergesort").reset_index(drop=True)


def q_bpe_train_merges(sf_dir: str) -> pd.DataFrame:
    """Distributed BPE tokenizer TRAINING over documents: streaming word
    counts (map-side value_counts pre-combine, one bucketed exchange),
    deterministic top-K cut, incremental driver merge loop
    (stages/bpe_train.py).  Oracle: independent naive recount-per-round
    fixture (tools/gen_oracle_fixtures.py bpe_train_fixture)."""
    from great_expectations_ray.stages.bpe_train import train_bpe

    ds = _read(sf_dir, "documents", columns=["text"])
    m = train_bpe(ds, text_col="text", num_merges=60)
    out = pd.DataFrame({
        "rank": m["rank"],
        "pair": m["left"] + " " + m["right"],
        "cnt": m["cnt"],
    })
    return out.sort_values("rank").reset_index(drop=True)


register_query(q_bpe_train_merges, _fixture_sql(
    "bpe_train_merges", "rank, pair, cnt", _FP_DOCS, "rank"), bench=True)


def q_bpe_apply_docs(sf_dir: str) -> pd.DataFrame:
    """END-TO-END trained-tokenizer application: learn the BPE merges from
    the corpus (stages/bpe_train.py train_bpe), then tokenize the SAME corpus
    with the broadcast encoder (apply_bpe) and report per-language token
    totals.  Oracle: independent per-doc sequential-merge fixture
    (tools/gen_oracle_fixtures.py bpe_apply_fixture) aggregated in SQL."""
    from great_expectations_ray.stages.bpe_train import apply_bpe, train_bpe

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    merges = train_bpe(ds, text_col="text", num_merges=60)
    toks = apply_bpe(ds, merges, text_col="text", id_col="doc_id",
                     keep_cols=("lang",))

    def partial(tbl: pa.Table) -> pa.Table:
        return tbl.group_by("lang").aggregate(
            [("bpe_tokens", "sum"), ("doc_id", "count")])

    rows = (toks.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True).take_all())
    df = pd.DataFrame(rows)
    out = (df.groupby("lang", sort=True)
           .agg(bpe_tokens=("bpe_tokens_sum", "sum"),
                n_docs=("doc_id_count", "sum"))
           .reset_index())
    return out.astype({"bpe_tokens": "int64", "n_docs": "int64"})


register_query(q_bpe_apply_docs, (
    "SELECT d.lang, CAST(SUM(f.bpe_tokens) AS BIGINT) AS bpe_tokens, "
    "COUNT(*) AS n_docs "
    f"FROM read_parquet('{os.path.join(_FIXTURES, 'bpe_apply_docs.parquet')}') f "
    "JOIN documents d USING (doc_id) "
    f"WHERE f.fp = {_FP_DOCS} GROUP BY d.lang ORDER BY d.lang"
))


def q_unigram_train_vocab(sf_dir: str) -> pd.DataFrame:
    """Distributed unigram-LM (SentencePiece-style) tokenizer TRAINING: the
    same word-count exchange as BPE, then driver hard-EM with exact-integer
    Viterbi (stages/unigram.py).  Oracle: independent top-down fixture
    (tools/gen_oracle_fixtures.py unigram_train_fixture)."""
    from great_expectations_ray.stages.unigram import train_unigram

    ds = _read(sf_dir, "documents", columns=["text"])
    v = train_unigram(ds, text_col="text", vocab_size=60, max_piece_len=5,
                      em_iters=3, seed_size=400)
    return v.sort_values("rank").reset_index(drop=True)


register_query(q_unigram_train_vocab, _fixture_sql(
    "unigram_train_vocab", "rank, piece, cnt", _FP_DOCS, "rank"), bench=True)


def q_unigram_apply_docs(sf_dir: str) -> pd.DataFrame:
    """END-TO-END trained unigram tokenizer application: learn the vocab
    from the corpus, segment the SAME corpus with the broadcast exact-Viterbi
    stage (stages/unigram.py apply_unigram), report per-language token
    totals.  Oracle: independent per-doc fixture aggregated in SQL."""
    from great_expectations_ray.stages.unigram import apply_unigram, train_unigram

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    vocab = train_unigram(ds, text_col="text", vocab_size=60,
                          max_piece_len=5, em_iters=3, seed_size=400)
    toks = apply_unigram(ds, vocab, text_col="text", id_col="doc_id",
                         keep_cols=("lang",), max_piece_len=5)

    def partial(tbl: pa.Table) -> pa.Table:
        return tbl.group_by("lang").aggregate(
            [("unigram_tokens", "sum"), ("doc_id", "count")])

    rows = (toks.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True).take_all())
    df = pd.DataFrame(rows)
    out = (df.groupby("lang", sort=True)
           .agg(unigram_tokens=("unigram_tokens_sum", "sum"),
                n_docs=("doc_id_count", "sum"))
           .reset_index())
    return out.astype({"unigram_tokens": "int64", "n_docs": "int64"})


register_query(q_unigram_apply_docs, (
    "SELECT d.lang, CAST(SUM(f.unigram_tokens) AS BIGINT) AS unigram_tokens, "
    "COUNT(*) AS n_docs "
    f"FROM read_parquet('{os.path.join(_FIXTURES, 'unigram_apply_docs.parquet')}') f "
    "JOIN documents d USING (doc_id) "
    f"WHERE f.fp = {_FP_DOCS} GROUP BY d.lang ORDER BY d.lang"
))


def q_wordpiece_train_vocab(sf_dir: str) -> pd.DataFrame:
    """Distributed WordPiece (likelihood-gain BPE variant; BERT tokenizer)
    TRAINING: shared word-count exchange, then driver merge loop picking the
    pair maximizing cnt(ab)/(cnt(a)*cnt(b)) via exact cross-multiplied
    integer compares (stages/wordpiece.py).  Oracle: independent naive
    full-recount fixture (tools/gen_oracle_fixtures.py
    wordpiece_train_fixture)."""
    from great_expectations_ray.stages.wordpiece import train_wordpiece

    ds = _read(sf_dir, "documents", columns=["text"])
    v = train_wordpiece(ds, text_col="text", num_merges=60)
    return v.sort_values("rank").reset_index(drop=True)


register_query(q_wordpiece_train_vocab, _fixture_sql(
    "wordpiece_train_vocab", "rank, piece, cnt", _FP_DOCS, "rank"), bench=True)


def q_wordpiece_apply_docs(sf_dir: str) -> pd.DataFrame:
    """END-TO-END trained WordPiece application: learn the vocab from the
    corpus, encode the SAME corpus greedy-longest-match-first (whole word ->
    [UNK] on any uncovered position) in the broadcast-vocab stage
    (stages/wordpiece.py apply_wordpiece), report per-language token totals.
    Oracle: independent per-doc fixture aggregated in SQL."""
    from great_expectations_ray.stages.wordpiece import (
        apply_wordpiece,
        train_wordpiece,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    vocab = train_wordpiece(ds, text_col="text", num_merges=60)
    toks = apply_wordpiece(ds, vocab, text_col="text", id_col="doc_id",
                           keep_cols=("lang",))

    def partial(tbl: pa.Table) -> pa.Table:
        return tbl.group_by("lang").aggregate(
            [("wordpiece_tokens", "sum"), ("doc_id", "count")])

    rows = (toks.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True).take_all())
    df = pd.DataFrame(rows)
    out = (df.groupby("lang", sort=True)
           .agg(wordpiece_tokens=("wordpiece_tokens_sum", "sum"),
                n_docs=("doc_id_count", "sum"))
           .reset_index())
    return out.astype({"wordpiece_tokens": "int64", "n_docs": "int64"})


register_query(q_wordpiece_apply_docs, (
    "SELECT d.lang, CAST(SUM(f.wordpiece_tokens) AS BIGINT) AS wordpiece_tokens, "
    "COUNT(*) AS n_docs "
    f"FROM read_parquet('{os.path.join(_FIXTURES, 'wordpiece_apply_docs.parquet')}') f "
    "JOIN documents d USING (doc_id) "
    f"WHERE f.fp = {_FP_DOCS} GROUP BY d.lang ORDER BY d.lang"
))


def q_wordpiece_pack_docs(sf_dir: str) -> pd.DataFrame:
    """Tokenize-to-training-sequences (stages/pack_ids.py): train WordPiece,
    encode every doc to rank ids (+EOS), pack the corpus into fixed 128-token
    sequences via the two-pass prefix-sum + one bucketed fragment exchange.
    Reports per sequence (seq_id, n_tokens, idhash) where idhash is an
    order-sensitive polynomial hash of the ids — byte-identical sequences or
    the gate fails.  Oracle: independent driver-side concat+slice fixture
    (tools/gen_oracle_fixtures.py wordpiece_pack_fixture)."""
    from great_expectations_ray.stages.pack_ids import (
        encode_token_ids,
        pack_sequences,
    )
    from great_expectations_ray.stages.wordpiece import train_wordpiece

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    vocab = train_wordpiece(ds, text_col="text", num_merges=60)
    enc = encode_token_ids(ds, vocab, text_col="text", id_col="doc_id",
                           eos_id=len(vocab) + 1)
    packed = pack_sequences(enc, order_col="doc_id", seq_len=128)

    pows = np.array([pow(1000003, 127 - i, 2 ** 64) for i in range(128)],
                    dtype=np.uint64)

    def hash_batch(tbl: pa.Table) -> pa.Table:
        ids = tbl.column("token_ids").combine_chunks()
        n = len(tbl)
        if hasattr(ids, "offsets"):  # plain list<int32>
            offs = np.asarray(ids.offsets, dtype=np.int64)
            flat = np.asarray(ids.values, dtype=np.uint64)[offs[0]:offs[-1]] \
                if n else np.empty(0, dtype=np.uint64)
            mat = flat.reshape(n, 128)
        else:  # Ray packs equal-length rows as a tensor extension array
            mat = np.asarray(ids.to_numpy(zero_copy_only=False),
                             dtype=np.uint64).reshape(n, 128)
        h = (mat * pows).sum(axis=1).astype(np.int64)
        return pa.table({
            "seq_id": tbl.column("seq_id"),
            "n_tokens": tbl.column("n_tokens"),
            "idhash": pa.array(h),
        })

    out = packed.map_batches(hash_batch, batch_format="pyarrow",
                             zero_copy_batch=True)
    return out.to_pandas().sort_values("seq_id").reset_index(drop=True)


register_query(q_wordpiece_pack_docs, _fixture_sql(
    "wordpiece_pack_docs", "seq_id, n_tokens, idhash", _FP_DOCS, "seq_id"), bench=True)


def q_token_stats_methods_docs(sf_dir: str) -> pd.DataFrame:
    """Token statistics per language by every tokenizer family, as generic
    (v1, v2): whitespace = (tokens, alnum_chars); bpe = (ws_tokens,
    bpe_tokens); TRAINED-tokenizer arms 'bpe_train' (lang = merged pair,
    v1 = rank, v2 = pair frequency at merge time) and 'bpe_apply'; unigram-LM
    arms 'unigram_train' (lang = piece, v1 = rank, v2 = count) and
    'unigram_apply' (per-lang trained-unigram token totals); WordPiece
    (likelihood-gain merges + greedy longest-match) arms 'wordpiece_train'
    and 'wordpiece_apply' with the same shapes; 'wordpiece_pack' =
    tokenize-to-training-sequences (lang = seq_id, v1 = n_tokens, v2 =
    order-sensitive id-hash pinning byte-identical 128-token sequences)."""
    ws = _run_part("token_stats_docs", sf_dir)
    bpe = _run_part("bpe_token_stats_docs", sf_dir)
    tr = _run_part("bpe_train_merges", sf_dir)
    ap = _run_part("bpe_apply_docs", sf_dir)
    utr = _run_part("unigram_train_vocab", sf_dir)
    uap = _run_part("unigram_apply_docs", sf_dir)
    wtr = _run_part("wordpiece_train_vocab", sf_dir)
    wap = _run_part("wordpiece_apply_docs", sf_dir)
    wpk = _run_part("wordpiece_pack_docs", sf_dir)
    frames = [
        pd.DataFrame({"method": "whitespace", "lang": ws["lang"],
                      "v1": ws["tokens"], "v2": ws["alnum_chars"]}),
        pd.DataFrame({"method": "bpe", "lang": bpe["lang"],
                      "v1": bpe["ws_tokens"], "v2": bpe["bpe_tokens"]}),
        pd.DataFrame({"method": "bpe_train", "lang": tr["pair"],
                      "v1": tr["rank"], "v2": tr["cnt"]}),
        pd.DataFrame({"method": "bpe_apply", "lang": ap["lang"],
                      "v1": ap["bpe_tokens"], "v2": ap["n_docs"]}),
        pd.DataFrame({"method": "unigram_train", "lang": utr["piece"],
                      "v1": utr["rank"], "v2": utr["cnt"]}),
        pd.DataFrame({"method": "unigram_apply", "lang": uap["lang"],
                      "v1": uap["unigram_tokens"], "v2": uap["n_docs"]}),
        pd.DataFrame({"method": "wordpiece_train", "lang": wtr["piece"],
                      "v1": wtr["rank"], "v2": wtr["cnt"]}),
        pd.DataFrame({"method": "wordpiece_apply", "lang": wap["lang"],
                      "v1": wap["wordpiece_tokens"], "v2": wap["n_docs"]}),
        pd.DataFrame({"method": "wordpiece_pack",
                      "lang": wpk["seq_id"].astype(str),
                      "v1": wpk["n_tokens"], "v2": wpk["idhash"]}),
    ]
    out = pd.concat(frames, ignore_index=True)
    return out.sort_values(["method", "lang"], kind="mergesort").reset_index(drop=True)


def q_mojibake_docs(sf_dir: str) -> pd.DataFrame:
    """Mojibake (double-encoded UTF-8) repair (stages/normalize.py
    fix_mojibake): doc_id%4 plants 'cafÃ© naÃ¯ve' (UTF-8-through-cp1252 of
    'café naïve'), a latin-1-flavor curly apostrophe (raw C1 controls —
    exercises the sloppy-cp1252 path), and a GENUINE 'café' that the
    round-trip guard must leave untouched.  Oracle: pure SQL — the expected
    repaired text is the planted original, so DuckDB reconstructs it from
    CASE arms."""
    from great_expectations_ray.stages.dedup import md5_column
    from great_expectations_ray.stages.normalize import fix_mojibake

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def derive(tbl: pa.Table) -> pa.Table:
        doc_id = pc.cast(tbl.column("doc_id"), pa.int64()).combine_chunks()
        ids = doc_id.to_numpy()
        n = len(ids)
        r4 = ids % 4

        def lit(s):
            return pa.array([s] * n, pa.string())

        suffix = pc.if_else(pa.array(r4 == 0), lit(" cafÃ© naÃ¯ve"),
                 pc.if_else(pa.array(r4 == 1), lit(" it\u00e2\u0080\u0099s fine"),
                 pc.if_else(pa.array(r4 == 2), lit(" plain café ok"),
                            lit(""))))
        content = pc.binary_join_element_wise(
            pc.cast(tbl.column("text").combine_chunks(), pa.string()), suffix, "")
        return pa.table({"doc_id": doc_id, "content": content})

    fixed = fix_mojibake(
        ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True),
        text_col="content", id_col="doc_id", out_col="fixed_text")

    def finish(tbl: pa.Table) -> pa.Table:
        ft = tbl.column("fixed_text").combine_chunks()
        return pa.table({
            "doc_id": tbl.column("doc_id"),
            "n_chars": pc.cast(pc.utf8_length(ft), pa.int64()),
            "out_md5": md5_column(ft),
            "changed": tbl.column("changed"),
        })

    out = fixed.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


SQL_MOJIBAKE_DOCS = """
WITH fixed AS (
  SELECT doc_id,
         text || CASE doc_id % 4 WHEN 0 THEN ' café naïve'
                                 WHEN 1 THEN ' it’s fine'
                                 WHEN 2 THEN ' plain café ok'
                                 ELSE '' END AS t,
         doc_id % 4 IN (0, 1) AS changed
  FROM documents)
SELECT doc_id, CAST(length(t) AS BIGINT) AS n_chars, md5(t) AS out_md5, changed
FROM fixed ORDER BY doc_id
"""
register_query(q_mojibake_docs, SQL_MOJIBAKE_DOCS)


def q_zlib_ratio_docs(sf_dir: str) -> pd.DataFrame:
    """Compression-ratio quality signal (stages/compressratio.py): zlib
    level-6 compressed bytes per raw byte, straight off the Arrow buffer.
    Oracle: independent per-doc fixture
    (tools/gen_oracle_fixtures.zlib_ratio_fixture)."""
    from great_expectations_ray.stages.compressratio import score_compression

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = score_compression(ds, text_col="text").select_columns(
        ["doc_id", "comp_ratio"])
    df = out.to_pandas().rename(columns={"comp_ratio": "ratio"})
    return df.sort_values("doc_id").reset_index(drop=True)


register_query(q_zlib_ratio_docs, _fixture_sql(
    "zlib_ratio_docs", "doc_id, ratio", _FP_DOCS, "doc_id"))


def q_zlib_top25_docs(sf_dir: str) -> pd.DataFrame:
    """Exact top-fraction selection (stages/topfrac.py): keep the top 25%
    of docs by zlib compression ratio, boundary ties to the lowest doc_id —
    semantics = ROW_NUMBER() OVER (ORDER BY score DESC, id) <= ceil(0.25*n),
    computed WITHOUT a global sort (rank-selected threshold + tie cut; the
    catalog input takes the driver fast path, the distributed path is pinned
    equal in tests/test_topfrac.py)."""
    from great_expectations_ray.stages.compressratio import score_compression
    from great_expectations_ray.stages.topfrac import select_top_fraction

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    scored = score_compression(ds, text_col="text")
    out = select_top_fraction(scored, score_col="comp_ratio",
                              id_col="doc_id", frac=0.25)
    df = (out.select_columns(["doc_id", "selected"]).to_pandas()
          .sort_values("doc_id").reset_index(drop=True))
    return df


def q_substr_remove_docs(sf_dir: str) -> pd.DataFrame:
    """ExactSubstr keep-first span REMOVAL (stages/substr_dedup.py
    remove_duplicate_substrings — the rewrite half of Lee et al. 2022) over
    the same derived corpus as the detection query: per doc, removed byte
    count, merged-cut count, md5 of the cleaned text (md5 parity on
    untouched docs proves no false cuts).  Oracle: independent per-doc
    python fixture (tools/gen_oracle_fixtures.substr_remove_fixture)."""
    from great_expectations_ray.stages.dedup import md5_column
    from great_expectations_ray.stages.substr_dedup import (
        remove_duplicate_substrings)

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def derive(tbl: pa.Table) -> pa.Table:
        doc_id = pc.cast(tbl.column("doc_id"), pa.int64()).combine_chunks()
        ids = doc_id.to_numpy()
        n = len(ids)

        def lit(s):
            return pa.array([s] * n, pa.string())

        r10 = ids % 10
        suffix = pc.if_else(pa.array(r10 < 2),
                 lit(" COMMON LICENSE HEADER BLOCK COPIED VERBATIM ACROSS FILES"),
                 pc.if_else(pa.array(r10 == 5),
                 lit(" ANOTHER SHARED DISCLAIMER PARAGRAPH REPEATED IN SOME FILES TOO"),
                 lit("")))
        content = pc.binary_join_element_wise(
            pc.cast(tbl.column("text").combine_chunks(), pa.string()), suffix, "")
        return pa.table({"doc_id": doc_id, "content": content})

    corpus = ds.map_batches(derive, batch_format="pyarrow",
                            zero_copy_batch=True)
    out = remove_duplicate_substrings(corpus, content_col="content",
                                      id_col="doc_id", window=40)

    def finish(tbl: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": tbl.column("doc_id"),
            "removed_bytes": tbl.column("removed_bytes"),
            "n_cuts": tbl.column("n_cuts"),
            "clean_md5": md5_column(tbl.column("content").combine_chunks()),
        })

    res = out.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
    return res.to_pandas().sort_values("doc_id").reset_index(drop=True)


register_query(q_substr_remove_docs, _fixture_sql(
    "substr_remove_docs", "doc_id, removed_bytes, n_cuts, clean_md5",
    _FP_DOCS, "doc_id"))


register_query(q_zlib_top25_docs, f"""
SELECT doc_id,
       ROW_NUMBER() OVER (ORDER BY ratio DESC, doc_id)
         <= CAST(ceil(0.25 * COUNT(*) OVER ()) AS BIGINT) AS selected
FROM read_parquet('{os.path.join(_FIXTURES, 'zlib_ratio_docs.parquet')}')
WHERE fp = {_FP_DOCS}
ORDER BY doc_id
""")


def q_rewrite_docs(sf_dir: str) -> pd.DataFrame:
    """Text rewrite methods in one frame: 'normalize' = the full
    normalization pipeline (control-strip/NFC/quotes/lowercase/ws), 'html' =
    HTML -> text extraction over a deterministic HTML shell, 'mojibake' =
    double-encoded-UTF-8 repair with a genuine-accent guard case.  For
    each: v = output char count, h = output md5."""
    import hashlib

    nz = _run_part("normalize_docs", sf_dir)
    hx = _run_part("html_extract_docs", sf_dir)
    mj = _run_part("mojibake_docs", sf_dir)
    frames = [
        pd.DataFrame({
            "method": "normalize", "doc_id": nz["doc_id"],
            "v": nz["norm_text"].str.len().astype("int64"),
            "h": [hashlib.md5(s.encode()).hexdigest()
                  for s in nz["norm_text"]],
        }),
        pd.DataFrame({"method": "html", "doc_id": hx["doc_id"],
                      "v": hx["n_chars"], "h": hx["out_md5"]}),
        pd.DataFrame({"method": "mojibake", "doc_id": mj["doc_id"],
                      "v": mj["n_chars"], "h": mj["out_md5"]}),
    ]
    out = pd.concat(frames, ignore_index=True)
    return out.sort_values(["method", "doc_id"],
                           kind="mergesort").reset_index(drop=True)


def q_chunk_fim_docs(sf_dir: str) -> pd.DataFrame:
    """Document reshaping for training, both methods in one frame:
    'chunk' = fixed-size overlapping chunks (v1 = chunk_idx, v2 = start,
    h = chunk md5); 'fim' = fill-in-the-middle PSM transform (v1 = cut_lo,
    -1 when not applied; v2 = cut_hi; h = transformed-text md5)."""
    ch = _run_part("chunk_docs", sf_dir)
    fi = _run_part("fim_docs", sf_dir)
    frames = [
        pd.DataFrame({"method": "chunk", "doc_id": ch["doc_id"],
                      "v1": ch["chunk_idx"], "v2": ch["start"],
                      "h": ch["chunk_md5"]}),
        pd.DataFrame({"method": "fim", "doc_id": fi["doc_id"],
                      "v1": fi["cut_lo"], "v2": fi["cut_hi"],
                      "h": fi["fim_md5"]}),
    ]
    out = pd.concat(frames, ignore_index=True)
    return out.sort_values(["method", "doc_id", "v1"],
                           kind="mergesort").reset_index(drop=True)


def q_code_payload_corpus(sf_dir: str) -> pd.DataFrame:
    """Code-payload extraction in one frame: import counts ('imports', module,
    '', cnt), per-repo license majority ('license', repo, license, cnt), and
    the per-file entropy secret scan ('secrets', doc_id,
    'n_candidates:n_hex', n_high_entropy)."""
    imp = _run_part("imports_corpus", sf_dir)
    lic = _run_part("license_majority_corpus", sf_dir)
    sec = _run_part("secret_scan_corpus", sf_dir)
    clo = _run_part("code_clone_corpus", sf_dir)
    frames = [
        pd.DataFrame({"kind": "imports", "key": imp["module"], "label": "",
                      "cnt": imp["cnt"]}),
        pd.DataFrame({"kind": "license", "key": lic["repo"],
                      "label": lic["license"], "cnt": lic["cnt"]}),
        pd.DataFrame({"kind": "secrets",
                      "key": sec["doc_id"].astype(str),
                      "label": (sec["n_secret_candidates"].astype(str) + ":"
                                + sec["n_hex_candidates"].astype(str)),
                      "cnt": sec["n_high_entropy"]}),
        pd.DataFrame({"kind": "clone",
                      "key": (clo["level"].astype(str) + ":"
                              + clo["doc_id"].astype(str)),
                      "label": "", "cnt": clo["is_clone"]}),
    ]
    out = pd.concat(frames, ignore_index=True)
    return out.sort_values(["kind", "key"], kind="mergesort").reset_index(drop=True)


def _union_sql(parts: list[tuple[str, str, str]], order: str) -> str:
    """UNION ALL of (discriminator, select_list, constituent_name) over the
    constituent oracle SQL, wrapped verbatim as subqueries."""
    selects = []
    for i, (disc, select_list, name) in enumerate(parts):
        sub = CATALOG[name].sql.strip().rstrip(";")
        selects.append(f"SELECT {disc}, {select_list} FROM ({sub})")
    return "\nUNION ALL\n".join(selects) + f"\nORDER BY {order}"


SQL_ANN_METHODS_TOPK = _union_sql(
    [("'brute' AS method", "vec_id, sim", "ann_topk"),
     ("'lsh'", "vec_id, sim", "lsh_ann_topk"),
     ("'ivf'", "vec_id, sim", "ivf_ann_topk"),
     ("'kmeans_assign'", "vec_id, CAST(cluster AS DOUBLE) AS sim",
      "kmeans_embeddings"),
     ("'kmeans_sim'", "vec_id, sim", "kmeans_embeddings"),
     ("'pca1'", "vec_id, pc1 AS sim", "pca_embeddings"),
     ("'pca2'", "vec_id, pc2 AS sim", "pca_embeddings"),
     ("'knn'", "qid*100000 + vec_id AS vec_id, sim", "knn_graph_embeddings"),
     ("'kmeans_cap'", "vec_id, CAST(keep AS DOUBLE) AS sim",
      "kmeans_cap_embeddings"),
     ("'pq_code'", "vec_id, CAST(code AS DOUBLE) AS sim", "pq_embeddings"),
     ("'pq_adc'", "vec_id, adc AS sim", "pq_embeddings")],
    "method, vec_id",
)
register_query(q_ann_methods_topk, SQL_ANN_METHODS_TOPK, gate=8, part=False)
SQL_NEARDUP_DOCS = _union_sql(
    [("'minhash' AS method",
      "doc_id, CAST(is_neardup AS BIGINT) AS v", "minhash_neardup_docs"),
     ("'minhash_verified'",
      "doc_id, CAST(is_neardup AS BIGINT) AS v", "minhash_verified_docs"),
     ("'ngram_jaccard'",
      "doc_id, CAST(is_neardup AS BIGINT) AS v", "ngram_jaccard_neardup_docs"),
     ("'simhash'",
      "doc_id, CAST(is_neardup AS BIGINT) AS v", "simhash_neardup_docs"),
     ("'embedding'",
      "vec_id AS doc_id, CAST(is_neardup AS BIGINT) AS v", "embedding_neardup"),
     ("'cc_cluster'",
      "doc_id, CAST(cluster AS BIGINT) AS v", "cc_cluster_docs"),
     ("'cc_keep_best'",
      "doc_id, CAST(keep AS BIGINT) AS v", "cc_keep_best_docs")],
    "method, doc_id",
)
register_query(q_neardup_docs, SQL_NEARDUP_DOCS, gate=49, part=False)
SQL_FINGERPRINT_DOCS = _union_sql(
    [("'winnow' AS method",
      "doc_id AS id_a, n_fingerprints AS v1, fp_digest AS v2, '' AS h",
      "winnow_fingerprint_docs"),
     ("'overlap'", "id_a, id_b AS v1, shared AS v2, '' AS h",
      "fingerprint_overlap_docs"),
     ("'substr'",
      "doc_id AS id_a, dup_windows AS v1, first_dup_pos AS v2, '' AS h",
      "substr_dup_docs"),
     ("'remove'",
      "doc_id AS id_a, removed_bytes AS v1, n_cuts AS v2, clean_md5 AS h",
      "substr_remove_docs")],
    "method, id_a, v1",
)
register_query(q_fingerprint_docs, SQL_FINGERPRINT_DOCS, gate=43, part=False)
SQL_LANGID_METHODS_DOCS = _union_sql(
    [("'heuristic' AS method",
      "doc_id, lang_pred AS pred_label, CAST(0.0 AS DOUBLE) AS pred_score",
      "langid_docs"),
     ("'fasttext'", "doc_id, pred_label, pred_score", "fasttext_langid_docs"),
     ("'logreg'",
      "doc_id, CASE WHEN pred = 1 THEN 'en' ELSE 'other' END AS pred_label, "
      "prob AS pred_score", "logreg_docs")],
    "method, doc_id",
)
register_query(q_langid_methods_docs, SQL_LANGID_METHODS_DOCS, gate=30, part=False)
SQL_PERPLEXITY_METHODS_DOCS = _union_sql(
    [("'broadcast' AS method", "doc_id, perplexity", "perplexity_docs"),
     ("'trained'", "doc_id, perplexity", "lm_trained_ppl_docs"),
     ("'dsir'", "doc_id, logw AS perplexity", "dsir_docs"),
     ("'dsir_sel'", "doc_id, CAST(selected AS DOUBLE) AS perplexity",
      "dsir_docs"),
     ("'zlib'", "doc_id, ratio AS perplexity", "zlib_ratio_docs"),
     ("'zlib_top25'", "doc_id, CAST(selected AS DOUBLE) AS perplexity",
      "zlib_top25_docs"),
     ("'kn'", "doc_id, perplexity", "kn_ppl_docs")],
    "method, doc_id",
)
register_query(q_perplexity_methods_docs, SQL_PERPLEXITY_METHODS_DOCS,
               gate=44, part=False)
SQL_URLOPS_DOCS = _union_sql(
    [("'canon' AS op", "doc_id, canon_url, domain", "url_canon_docs"),
     ("'cap'", "doc_id, '' AS canon_url, domain", "domain_cap_docs")],
    "op, doc_id",
)
register_query(q_urlops_docs, SQL_URLOPS_DOCS, gate=40, part=False)
SQL_TOKEN_STATS_METHODS_DOCS = _union_sql(
    [("'whitespace' AS method", "lang, tokens AS v1, alnum_chars AS v2",
      "token_stats_docs"),
     ("'bpe'", "lang, ws_tokens AS v1, bpe_tokens AS v2",
      "bpe_token_stats_docs"),
     ("'bpe_train'", "pair AS lang, rank AS v1, cnt AS v2",
      "bpe_train_merges"),
     ("'bpe_apply'", "lang, bpe_tokens AS v1, n_docs AS v2",
      "bpe_apply_docs"),
     ("'unigram_train'", "piece AS lang, rank AS v1, cnt AS v2",
      "unigram_train_vocab"),
     ("'unigram_apply'", "lang, unigram_tokens AS v1, n_docs AS v2",
      "unigram_apply_docs"),
     ("'wordpiece_train'", "piece AS lang, rank AS v1, cnt AS v2",
      "wordpiece_train_vocab"),
     ("'wordpiece_apply'", "lang, wordpiece_tokens AS v1, n_docs AS v2",
      "wordpiece_apply_docs"),
     ("'wordpiece_pack'",
      "CAST(seq_id AS VARCHAR) AS lang, n_tokens AS v1, idhash AS v2",
      "wordpiece_pack_docs")],
    "method, lang",
)
register_query(q_token_stats_methods_docs, SQL_TOKEN_STATS_METHODS_DOCS,
               gate=7, part=False)
SQL_CODE_PAYLOAD_CORPUS = _union_sql(
    [("'imports' AS kind", "module AS key, '' AS label, cnt", "imports_corpus"),
     ("'license'", "repo AS key, license AS label, cnt",
      "license_majority_corpus"),
     ("'secrets'",
      "CAST(doc_id AS VARCHAR) AS key, "
      "CAST(n_secret_candidates AS VARCHAR) || ':' || "
      "CAST(n_hex_candidates AS VARCHAR) AS label, "
      "n_high_entropy AS cnt", "secret_scan_corpus"),
     ("'clone'",
      "CAST(level AS VARCHAR) || ':' || CAST(doc_id AS VARCHAR) AS key, "
      "'' AS label, is_clone AS cnt", "code_clone_corpus")],
    "kind, key",
)
register_query(q_code_payload_corpus, SQL_CODE_PAYLOAD_CORPUS, gate=39, part=False)
SQL_CHUNK_FIM_DOCS = _union_sql(
    [("'chunk' AS method",
      "doc_id, chunk_idx AS v1, start AS v2, chunk_md5 AS h", "chunk_docs"),
     ("'fim'", "doc_id, cut_lo AS v1, cut_hi AS v2, fim_md5 AS h",
      "fim_docs")],
    "method, doc_id, v1",
)
register_query(q_chunk_fim_docs, SQL_CHUNK_FIM_DOCS, gate=46, part=False)
SQL_REWRITE_DOCS = _union_sql(
    [("'normalize' AS method",
      "doc_id, CAST(length(norm_text) AS BIGINT) AS v, md5(norm_text) AS h",
      "normalize_docs"),
     ("'html'", "doc_id, n_chars AS v, out_md5 AS h", "html_extract_docs"),
     ("'mojibake'", "doc_id, n_chars AS v, out_md5 AS h", "mojibake_docs")],
    "method, doc_id",
)
register_query(q_rewrite_docs, SQL_REWRITE_DOCS, gate=37, part=False)


def q_shuffle_docs(sf_dir: str) -> pd.DataFrame:
    """Deterministic training-order shuffle (stages/shuffle.py): global
    position in seeded-md5 order via one sort + the packing-style
    distributed prefix sum; shard = pos % 8."""
    from great_expectations_ray.stages.shuffle import training_shuffle

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    out = training_shuffle(ds, id_col="doc_id", n_shards=8, seed=0)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


SQL_SHUFFLE_DOCS = """
WITH k AS (SELECT doc_id,
                  md5('0:' || CAST(doc_id AS VARCHAR)) AS skey
           FROM documents),
r AS (SELECT doc_id,
             ROW_NUMBER() OVER (ORDER BY skey) - 1 AS pos
      FROM k)
SELECT doc_id, CAST(pos % 8 AS BIGINT) AS shard, CAST(pos AS BIGINT) AS pos
FROM r ORDER BY doc_id
"""
register_query(q_shuffle_docs, SQL_SHUFFLE_DOCS)


def q_pack_shuffle_docs(sf_dir: str) -> pd.DataFrame:
    """Training-corpus assembly family in one frame: concat-and-chunk
    sequence packing (v1=tokens, v2=token_offset, v3=seq_id) and the
    deterministic training-order shuffle (v1=shard, v2=pos, v3=0)."""
    pk = _run_part("pack_docs", sf_dir)
    sh = _run_part("shuffle_docs", sf_dir)
    frames = [
        pd.DataFrame({"method": "pack", "doc_id": pk["doc_id"],
                      "v1": pk["tokens"], "v2": pk["token_offset"],
                      "v3": pk["seq_id"]}),
        pd.DataFrame({"method": "shuffle", "doc_id": sh["doc_id"],
                      "v1": sh["shard"], "v2": sh["pos"],
                      "v3": np.int64(0)}),
    ]
    out = pd.concat(frames, ignore_index=True)
    return out.sort_values(["method", "doc_id"],
                           kind="mergesort").reset_index(drop=True)


SQL_PACK_SHUFFLE_DOCS = _union_sql(
    [("'pack' AS method",
      "doc_id, CAST(tokens AS BIGINT) AS v1, token_offset AS v2, "
      "seq_id AS v3", "pack_docs"),
     ("'shuffle'",
      "doc_id, shard AS v1, pos AS v2, CAST(0 AS BIGINT) AS v3",
      "shuffle_docs")],
    "method, doc_id",
)
register_query(q_pack_shuffle_docs, SQL_PACK_SHUFFLE_DOCS, gate=21)


# --------------------------------------------------------------------------- #
# skew kill-test (bench-only, not in the 50-query gate): one mega-key holding
# ~half the table vs a uniform key distribution, through the SAME
# pre-combined dedup path (stages/skew.py local_keep_first + bucketed
# exchange).  BENCH_r04 criterion: skewed wall within ~1.5x of uniform —
# proof the hot key costs the reducer #batches rows, not its group size.
# --------------------------------------------------------------------------- #

def _q_dedup_keyed(sf_dir: str, skewed: bool) -> pd.DataFrame:
    from great_expectations_ray.stages.dedup import dedup_exact

    ds = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_linenumber", "l_quantity"])

    def derive(tbl: pa.Table) -> pa.Table:
        k = np.asarray(pc.cast(tbl.column("l_orderkey"), pa.int64())).copy()
        if skewed:
            k[k % 2 == 0] = 0  # every even orderkey collapses into one key
        order = pc.add(
            pc.multiply(pc.cast(tbl.column("l_orderkey"), pa.int64()), 8),
            pc.cast(tbl.column("l_linenumber"), pa.int64()))
        return pa.table({"k": pa.array(k), "o": order,
                         "v": pc.cast(tbl.column("l_quantity"), pa.float64())})

    keyed = ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True)
    out = dedup_exact(keyed, ["k"], "o")
    n = out.count()
    return pd.DataFrame({"n_unique": [n]})


def q_skew_dedup_lineitem(sf_dir: str) -> pd.DataFrame:
    return _q_dedup_keyed(sf_dir, skewed=True)


def q_uniform_dedup_lineitem(sf_dir: str) -> pd.DataFrame:
    return _q_dedup_keyed(sf_dir, skewed=False)


register_query(q_skew_dedup_lineitem, bench=True)
register_query(q_uniform_dedup_lineitem, bench=True)


# bench-only: the one-pass KLL sketch vs the exact multi-pass rank-selection
# (sorted-block materialization + ~5 histogram-refinement passes) on the
# same continuous column — the scale argument for the sketch is the
# pass-count ratio, and the bench records both walls side by side.
def q_kll_quantiles_lineitem(sf_dir: str) -> pd.DataFrame:
    from great_expectations_ray.functions.kll import kll_quantiles

    ds = _read(sf_dir, "lineitem", columns=["l_extendedprice"])
    vals = kll_quantiles(ds, "l_extendedprice", [0.01, 0.25, 0.5, 0.75, 0.99])
    return pd.DataFrame({"q": [0.01, 0.25, 0.5, 0.75, 0.99], "v": vals})


def q_exact_quantiles_lineitem(sf_dir: str) -> pd.DataFrame:
    from great_expectations_ray.functions.quantiles import (
        exact_quantiles_distributed,
    )

    ds = _read(sf_dir, "lineitem", columns=["l_extendedprice"])
    vals = exact_quantiles_distributed(
        ds, "l_extendedprice", [0.01, 0.25, 0.5, 0.75, 0.99])
    return pd.DataFrame({"q": [0.01, 0.25, 0.5, 0.75, 0.99], "v": vals})


register_query(q_kll_quantiles_lineitem, bench=True)
register_query(q_exact_quantiles_lineitem, bench=True)


# bench-only: per-group sketch quantiles vs the gate's exact grouped path
# (grouped_quantiles_docs) on the same (lang, length) grouping.
def q_grouped_kll_docs(sf_dir: str) -> pd.DataFrame:
    from great_expectations_ray.functions.kll import grouped_kll_quantiles

    ds = _read(sf_dir, "documents", columns=["lang", "text"])

    def add_len(tbl: pa.Table) -> pa.Table:
        s = pc.cast(pc.fill_null(tbl.column("text").combine_chunks(), ""),
                    pa.large_string())
        return pa.table({
            "lang": tbl.column("lang"),
            "doc_len": pc.cast(pc.utf8_length(s), pa.int64()),
        })

    lens = ds.map_batches(add_len, batch_format="pyarrow", zero_copy_batch=True)
    out = grouped_kll_quantiles(lens, ["lang"], "doc_len", [0.25, 0.5, 0.75])
    return out.to_pandas().sort_values("lang").reset_index(drop=True)


register_query(q_grouped_kll_docs, bench=True)


# bench-only: the terminal training sink — encode + pack (same work as
# wordpiece_pack_docs) then Megatron-layout shard export + manifest-verified
# reload; reports per-shard totals.  Output dir under /tmp is recreated per
# run so the timing never measures the resume fast path.
def q_shard_export_docs(sf_dir: str) -> pd.DataFrame:
    import shutil
    import tempfile

    from great_expectations_ray.stages.pack_ids import (
        encode_token_ids,
        pack_sequences,
    )
    from great_expectations_ray.stages.shards import (
        read_token_shards,
        write_token_shards,
    )
    from great_expectations_ray.stages.wordpiece import train_wordpiece

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    vocab = train_wordpiece(ds, text_col="text", num_merges=60)
    enc = encode_token_ids(ds, vocab, text_col="text", id_col="doc_id",
                           eos_id=len(vocab) + 1)
    packed = pack_sequences(enc, order_col="doc_id", seq_len=128)
    out_dir = tempfile.mkdtemp(prefix="gxr_shards_")
    try:
        man = write_token_shards(packed, out_dir, seqs_per_shard=4096,
                                 vocab_size=len(vocab) + 2)
        n_back = read_token_shards(out_dir, verify=True).count()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return pd.DataFrame({
        "n_shards": [len(man["shards"])],
        "total_seqs": [man["total_seqs"]],
        "total_tokens": [man["total_tokens"]],
        "reload_seqs": [n_back],
    })


register_query(q_shard_export_docs, bench=True)


# --------------------------------------------------------------------------- #
# views of the registry
# --------------------------------------------------------------------------- #

_GATED = sorted((e.gate, name) for name, e in CATALOG.items()
                if e.gate is not None)
QUERIES = dict((name, CATALOG[name].fn) for _, name in _GATED)
ORACLE_SQL = dict((name, CATALOG[name].sql) for name in QUERIES
                  if CATALOG[name].sql is not None)
CONSTITUENT_QUERIES = dict((name, e.fn) for name, e in CATALOG.items()
                           if e.part)
BENCH_QUERIES = [name for name, e in CATALOG.items() if e.bench]

assert len(QUERIES) == 50, f"catalog must stay at 50 entries, got {len(QUERIES)}"
assert [slot for slot, _ in _GATED] == list(range(50)), "gate slots must be 0..49"
assert set(ORACLE_SQL) == set(QUERIES), "every query needs an oracle"
