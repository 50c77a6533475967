"""Corpus diff (stages/corpusdiff.py)."""

import pandas as pd
import pyarrow as pa
import ray

from great_expectations_ray.stages.corpusdiff import diff_corpora


def _run(old_rows, new_rows, parts=3):
    old = ray.data.from_items(old_rows).repartition(parts)
    new = ray.data.from_items(new_rows).repartition(parts)
    return (diff_corpora(old, new, id_col="doc_id", content_col="text")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


def test_diff_corpora_statuses():
    old = [{"doc_id": 1, "text": "same one"},
           {"doc_id": 2, "text": "will change"},
           {"doc_id": 3, "text": "will be removed"}]
    new = [{"doc_id": 1, "text": "same one"},
           {"doc_id": 2, "text": "has changed"},
           {"doc_id": 4, "text": "brand new"}]
    out = _run(old, new)
    assert dict(zip(out["doc_id"], out["status"])) == {
        1: "unchanged", 2: "changed", 3: "removed", 4: "added"}


def test_diff_corpora_partition_invariance():
    old = [{"doc_id": i, "text": f"doc {i} body"} for i in range(50)]
    new = [{"doc_id": i,
            "text": f"doc {i} body" + (" v2" if i % 7 == 0 else "")}
           for i in range(10, 60)]
    a = _run(old, new, parts=1)
    b = _run(old, new, parts=6)
    assert a.equals(b)
    counts = a["status"].value_counts().to_dict()
    assert counts["removed"] == 10 and counts["added"] == 10
    assert counts["changed"] == sum(1 for i in range(10, 50) if i % 7 == 0)


def test_diff_corpora_null_content():
    """Null content hashes like empty string on both sides — stable."""
    old = [{"doc_id": 1, "text": None}]
    new = [{"doc_id": 1, "text": None}]
    out = _run(old, new, parts=1)
    assert out["status"].tolist() == ["unchanged"]


def test_diff_corpora_wider_new_ids():
    """Ids ADDED on the new side keep their value when the new side's id
    type is wider than the old side's (int32 old, int64 new)."""
    big = 1 << 40
    old = ray.data.from_arrow(pa.table({"doc_id": pa.array([1, 2], pa.int32()),
                                        "text": ["x", "y"]}))
    new = ray.data.from_arrow(pa.table({"doc_id": pa.array([1, big], pa.int64()),
                                        "text": ["x", "z"]}))
    out = diff_corpora(old, new, id_col="doc_id", content_col="text", n_buckets=4)
    assert sorted((r["doc_id"], r["status"]) for r in out.take_all()) == [
        (1, "unchanged"), (2, "removed"), (big, "added")]
