"""The demo_queries catalog registry: one registration per query, the gate
and its views derived from it, every constituent name resolvable."""

from __future__ import annotations

import ast
import inspect

import pytest

from great_expectations_ray.pipelines import demo_queries as dq

# the correctness gate's 50 names, in slot order (only the first 50 are checked)
GATE_ORDER = [
    "table_row_counts", "column_map_verdicts", "agg_stats_verdicts",
    "value_counts_returnflag", "regex_docs_by_lang", "dedup_docs",
    "events_increasing", "token_stats_methods_docs", "ann_methods_topk",
    "qf_corpus_keep_scrub", "qf_corpus_rollup", "content_sha_corpus",
    "window_events", "join_revenue_by_nation", "join_lineitem_orders",
    "orders_by_month", "tpch_q1", "tpch_q3", "props_extract_events",
    "repetition_docs", "decontaminate_docs", "pack_shuffle_docs",
    "stratified_docs", "profile_lineitem", "asof_events",
    "range_join_quantity", "setops_nations", "window_rank_events",
    "paragraph_dedup_docs", "tfidf_docs", "langid_methods_docs",
    "semdedup_embeddings", "heavy_hitters_words", "bloom_incremental_dedup",
    "c4_clean_docs", "bm25_search_docs", "mix_repetition_docs",
    "rewrite_docs", "code_metrics_corpus", "code_payload_corpus",
    "urlops_docs", "toxicity_docs", "boilerplate_docs", "fingerprint_docs",
    "perplexity_methods_docs", "grouped_quantiles_docs", "chunk_fim_docs",
    "web_pipeline_docs", "media_decode_stats", "neardup_docs",
]


def test_gate_keeps_its_50_names_in_order():
    assert list(dq.QUERIES) == GATE_ORDER
    assert set(dq.ORACLE_SQL) == set(GATE_ORDER)
    for name in GATE_ORDER:
        assert dq.QUERIES[name] is dq.CATALOG[name].fn
        assert dq.ORACLE_SQL[name] == dq.CATALOG[name].sql


def test_duplicate_registration_raises():
    before = dict(dq.CATALOG)
    with pytest.raises(ValueError, match="agg_quantity"):
        dq.register_query(dq.q_agg_quantity, dq.SQL_AGG_QUANTITY)
    assert dq.CATALOG == before


def test_views_follow_the_registry():
    # 125 constituents (119 with an oracle), 42 of them timed by bench.py;
    # the gate's 15 same-family unions are not constituents
    assert len(dq.CONSTITUENT_QUERIES) == 125
    assert sum(e.part and e.sql is not None for e in dq.CATALOG.values()) == 119
    assert len(dq.BENCH_QUERIES) == 42
    assert set(dq.BENCH_QUERIES) <= set(dq.CONSTITUENT_QUERIES)
    assert len(set(dq.QUERIES) - set(dq.CONSTITUENT_QUERIES)) == 15
    assert set(dq.CATALOG) == set(dq.QUERIES) | set(dq.CONSTITUENT_QUERIES)
    # every registered function is the module's q_<name>
    for name, entry in dq.CATALOG.items():
        assert getattr(dq, f"q_{name}") is entry.fn


def _calls(tree, fname: str):
    return [n for n in ast.walk(tree) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name) and n.func.id == fname]


def _constituent_names() -> set[str]:
    """Every name the merged queries and oracles look up: the _union_sql
    part lists and the _run_part calls, whether literal or a loop variable
    over a list of (label, name) tuples."""
    tree = ast.parse(inspect.getsource(dq))
    names = {part.elts[2].value for call in _calls(tree, "_union_sql")
             for part in call.args[0].elts}
    names |= {call.args[0].value for call in _calls(tree, "_run_part")
              if isinstance(call.args[0], ast.Constant)}
    for loop in ast.walk(tree):
        if not (isinstance(loop, ast.For) and isinstance(loop.target, ast.Tuple)
                and isinstance(loop.iter, ast.List)):
            continue
        targets = [t.id for t in loop.target.elts]
        for call in _calls(loop, "_run_part"):
            if isinstance(call.args[0], ast.Name) and call.args[0].id in targets:
                i = targets.index(call.args[0].id)
                names |= {t.elts[i].value for t in loop.iter.elts}
    return names


def test_every_constituent_name_resolves():
    names = _constituent_names()
    # the union lists, both (label, name) loops and the literal calls
    assert {"ann_topk", "cc_keep_best_docs", "substr_remove_docs",
            "kn_ppl_docs", "shuffle_docs"} <= names
    verdict_parts = (dq._COLUMN_MAP_VERDICT_PARTS + dq._AGG_STATS_VERDICT_PARTS
                     + list(dq._VERDICT_COLS))
    missing = sorted(n for n in names | set(verdict_parts)
                     if n not in dq.CONSTITUENT_QUERIES)
    assert not missing, f"unregistered constituents: {missing}"
    for name in verdict_parts:
        assert dq.CATALOG[name].sql is not None, name
