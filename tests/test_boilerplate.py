from __future__ import annotations

import pyarrow as pa
import pytest
import ray.data as rd

from great_expectations_ray.stages.boilerplate import (
    frequent_lines,
    remove_boilerplate,
)


def _corpus():
    return rd.from_arrow(pa.table({
        "doc_id": [0, 1, 2, 3],
        "content": [
            "cookie banner\nunique a\nfooter",
            "cookie banner\nunique b",
            "unique c\nfooter",
            "cookie banner\nfooter\nunique d",
        ],
    }))


def test_frequent_lines_df_counts(ray_session):
    freq = {r["line"]: r["df"] for r in
            frequent_lines(_corpus(), min_docs=3).take_all()}
    assert freq == {"cookie banner": 3, "footer": 3}


def test_line_counted_once_per_doc(ray_session):
    ds = rd.from_arrow(pa.table({
        "content": ["dup\ndup\ndup", "dup", "x"],
    }))
    freq = {r["line"]: r["df"] for r in
            frequent_lines(ds, min_docs=2).take_all()}
    assert freq == {"dup": 2}  # 3 occurrences in doc 0 count once


def test_remove_rewrites_and_counts(ray_session):
    out = {r["doc_id"]: r for r in
           remove_boilerplate(_corpus(), min_docs=3).take_all()}
    assert out[0]["content"] == "unique a" and out[0]["n_dropped"] == 2
    assert out[1]["content"] == "unique b" and out[1]["n_dropped"] == 1
    assert out[3]["content"] == "unique d" and out[3]["n_dropped"] == 2


def test_no_frequent_lines_is_identity(ray_session):
    out = remove_boilerplate(_corpus(), min_docs=10).take_all()
    assert all(r["n_dropped"] == 0 for r in out)


def test_max_set_size_guard(ray_session):
    with pytest.raises(ValueError, match="max_set_size"):
        remove_boilerplate(_corpus(), min_docs=1, max_set_size=2)


def test_joined_fallback_matches_broadcast_path(ray_session):
    """Over-cap frequent set + id_col: the bucketed-join rewrite must emit
    exactly what the broadcast path emits (content, n_dropped, all columns)."""
    ds = _corpus().repartition(3)
    broadcast = {r["doc_id"]: r for r in
                 remove_boilerplate(ds, min_docs=3).take_all()}
    # max_set_size=1 forces the fallback (the frequent set has 2 lines)
    joined = {r["doc_id"]: r for r in
              remove_boilerplate(ds, min_docs=3, max_set_size=1,
                                 id_col="doc_id").take_all()}
    assert set(joined) == set(broadcast)
    for k in broadcast:
        assert joined[k]["content"] == broadcast[k]["content"], k
        assert joined[k]["n_dropped"] == broadcast[k]["n_dropped"], k


def test_joined_fallback_null_and_untouched_rows(ray_session):
    ds = rd.from_arrow(pa.table({
        "doc_id": [0, 1, 2, 3],
        "content": ["dup\nx", "dup\ny", None, "solo only"],
    })).repartition(2)
    out = {r["doc_id"]: r for r in
           remove_boilerplate(ds, min_docs=2, max_set_size=0,
                              id_col="doc_id").take_all()}
    assert out[0]["content"] == "x" and out[0]["n_dropped"] == 1
    assert out[2]["content"] is None and out[2]["n_dropped"] is None
    assert out[3]["content"] == "solo only" and out[3]["n_dropped"] == 0


def test_max_set_size_guard_without_id_col(ray_session):
    with pytest.raises(ValueError, match="id_col"):
        remove_boilerplate(_corpus(), min_docs=1, max_set_size=2)


def test_null_content_stays_null(ray_session):
    ds = rd.from_arrow(pa.table({
        "doc_id": [0, 1, 2],
        "content": ["dup\nx", "dup\ny", None],
    }))
    out = {r["doc_id"]: r for r in
           remove_boilerplate(ds, min_docs=2).take_all()}
    assert out[2]["content"] is None and out[2]["n_dropped"] is None
    assert out[0]["content"] == "x"


def test_null_docs_do_not_inflate_empty_line_df(ray_session):
    """SQL split(NULL) emits no lines: NULL docs must not make '' frequent."""
    ds = rd.from_arrow(pa.table({
        "doc_id": [0, 1, 2],
        "content": [None, None, "a\n\nb"],
    }))
    freq = frequent_lines(ds, min_docs=2).take_all()
    assert freq == []
    out = {r["doc_id"]: r for r in remove_boilerplate(ds, min_docs=2).take_all()}
    assert out[2]["content"] == "a\n\nb" and out[2]["n_dropped"] == 0


def test_joined_fallback_runs_the_frequent_lines_exchange_once(ray_session):
    """The over-cap path reuses the frequent-line set the size check built:
    one logged execution reads the lines' document frequencies."""
    from tests.test_unique_keys import _logged

    ds = _corpus().repartition(2)
    with _logged() as (plans, _):
        out = remove_boilerplate(ds, min_docs=3, max_set_size=1,
                                 id_col="doc_id").take_all()
    assert {r["doc_id"]: r["n_dropped"] for r in out} == {0: 2, 1: 1, 2: 1, 3: 2}
    assert sum("_LineDocFreq" in p for p in plans) == 1, plans
