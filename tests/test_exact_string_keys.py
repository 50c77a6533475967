"""String keys that differ only after a NUL, or only in where a separator
falls, stay distinct keys.

- Every sum-by-key merge groups in Arrow: pandas ``groupby`` over object
  strings compares them only up to the first NUL, so ``"x\\x00a"`` and
  ``"x\\x00b"`` used to merge.  One bucket (or ``max_driver_rows=0``) puts
  both keys through the same merge.
- Exact dedup keys on two or more columns are injective: a ``"\\x1f"``
  join with nulls as ``"\\x00"`` gave ``("a\\x1fb", "c")`` and
  ``("a", "b\\x1fc")`` one key, and ``(1, None)`` and ``(1, "\\x00")``
  another.
"""

from __future__ import annotations

import pyarrow as pa
import ray.data as rd

A, B = "x\x00a", "x\x00b"


def _pairs(rows, key: str, val: str) -> dict:
    return {r[key]: r[val] for r in rows}


def test_merge_count_partials_over_cap(ray_session):
    from great_expectations_ray.functions.bucketed import merge_count_partials

    parts = rd.from_arrow(pa.table({"k": [A, B], "cnt": [1, 2]}))
    out = merge_count_partials(parts, ["k"], max_driver_rows=0, n_buckets=1)
    assert _pairs(out.to_pylist(), "k", "cnt") == {A: 1, B: 2}


def test_frequent_lines(ray_session):
    from great_expectations_ray.stages.boilerplate import frequent_lines

    ds = rd.from_arrow(pa.table({"content": [A, B]}))
    assert frequent_lines(ds, min_docs=2, n_buckets=1).take_all() == []


def test_import_counts(ray_session):
    from great_expectations_ray.stages.imports_extract import import_counts

    ds = rd.from_arrow(pa.table({"content": [f"require('{A}')", f"require('{B}')"]}))
    out = import_counts(ds, n_buckets=1).take_all()
    assert _pairs(out, "module", "cnt") == {A: 1, B: 1}


def test_tfidf_document_frequencies_map_side(ray_session):
    from great_expectations_ray.stages.tfidf import document_frequencies

    ds = rd.from_arrow(pa.table({"doc_id": [0], "text": [f"{A} {B}"]}))
    out = document_frequencies(ds, n_buckets=1).take_all()
    assert _pairs(out, "term", "df") == {A: 1, B: 1}


def test_tfidf_document_frequencies_bucket(ray_session):
    from great_expectations_ray.stages.tfidf import document_frequencies

    ds = rd.from_arrow([pa.table({"doc_id": [0], "text": [A]}),
                        pa.table({"doc_id": [1], "text": [B]})])
    out = document_frequencies(ds, n_buckets=1).take_all()
    assert _pairs(out, "term", "df") == {A: 1, B: 1}


def test_bpe_word_counts_over_cap(ray_session):
    from great_expectations_ray.stages.bpe_train import distributed_word_counts

    ds = rd.from_arrow(pa.table({"content": [f"{A} {B} {B}"]}))
    out = distributed_word_counts(ds, max_driver_rows=0, n_buckets=1).take_all()
    assert _pairs(out, "word", "cnt") == {A: 1, B: 2}


def _dedup_input():
    return rd.from_arrow(pa.table({
        "a": ["a\x1fb", "a", "1", "1", "x", "x"],
        "b": ["c", "b\x1fc", None, "\x00", "y", "y"],
        "id": [0, 1, 2, 3, 4, 5],
    }))


def test_dedup_compound_keys_do_not_collide(ray_session):
    from great_expectations_ray.stages.dedup import (
        dedup_exact,
        dedup_keep_best,
        mark_exact_duplicates,
    )

    kept = sorted(r["id"] for r in dedup_exact(_dedup_input(), ["a", "b"], "id").take_all())
    assert kept == [0, 1, 2, 3, 4]
    marks = {r["id"]: r["is_duplicate"] for r in
             mark_exact_duplicates(_dedup_input(), ["a", "b"], "id").take_all()}
    assert marks == {0: False, 1: False, 2: False, 3: False, 4: False, 5: True}
    best = sorted(r["id"] for r in dedup_keep_best(
        _dedup_input(), ["a", "b"], "id", tie_break="id").take_all())
    assert best == [0, 1, 2, 3, 5]
