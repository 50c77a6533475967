"""fastText-shape hashed classifier (stages/classifier.py)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from great_expectations_ray.stages.classifier import (
    DIM,
    FastTextClassifier,
    _doc_vectors,
    _feature_ids,
    classify,
    embedding_table,
    train_centroids,
)


def test_feature_ids_unigrams_then_bigrams():
    ids, counts = _feature_ids(pa.array(["a b c", "xy"]))
    # doc 0: 3 unigrams + 2 bigrams; doc 1: 1 unigram, 0 bigrams
    assert counts.tolist() == [5, 1]
    assert ids.shape == (6,)


def test_feature_ids_skips_empty_tokens():
    ids1, c1 = _feature_ids(pa.array(["a  b"]))  # double space -> empty token
    ids2, c2 = _feature_ids(pa.array(["a b"]))
    assert c1.tolist() == c2.tolist() == [3]
    assert ids1.tolist() == ids2.tolist()


def test_doc_vectors_zero_feature_doc():
    E = embedding_table()
    ids, counts = _feature_ids(pa.array(["", "hello world"]))
    vecs = _doc_vectors(E, ids, counts)
    assert vecs.shape == (2, DIM)
    assert np.all(vecs[0] == 0.0)
    assert np.any(vecs[1] != 0.0)


def test_classify_end_to_end_deterministic(ray_session):
    docs = pd.DataFrame(
        {
            "doc_id": list(range(8)),
            "text": ["red red apple", "red fruit apple", "blue sky cloud",
                     "cloud blue rain", "red apple pie", "sky blue high",
                     "apple red", "blue cloud"],
            "lang": ["fruit", "fruit", "sky", "sky", "fruit", "sky", "fruit", "sky"],
        }
    )
    ds = rd.from_pandas(docs)
    out1 = classify(ds, sample_n=6).to_pandas().sort_values("doc_id")
    out2 = classify(ds, sample_n=6).to_pandas().sort_values("doc_id")
    assert out1.pred_label.tolist() == out2.pred_label.tolist()
    assert np.array_equal(out1.pred_score.to_numpy(), out2.pred_score.to_numpy())
    # trained on its own labels the centroid classifier separates the
    # 6 training docs; the 2-token holdout doc 7 lands on the wrong side of
    # the random projection (golden-pinned: regression guard, not accuracy)
    assert out1.pred_label.tolist() == [
        "fruit", "fruit", "sky", "sky", "fruit", "sky", "fruit", "fruit"
    ]


def test_empty_doc_is_unknown(ray_session):
    docs = pd.DataFrame(
        {"doc_id": [0, 1], "text": ["some words here", ""], "lang": ["a", "a"]}
    )
    out = classify(rd.from_pandas(docs), sample_n=2).to_pandas().set_index("doc_id")
    assert out.at[1, "pred_label"] == "unknown"
    assert out.at[1, "pred_score"] == 0.0


def test_classifier_batch_split_invariance(ray_session):
    """Same predictions whether the corpus arrives as 1 block or 4."""
    docs = pd.DataFrame(
        {
            "doc_id": list(range(12)),
            "text": [f"word{i} common thing {'x' * (i % 3)}" for i in range(12)],
            "lang": ["a", "b"] * 6,
        }
    )
    classes, cents = train_centroids(rd.from_pandas(docs), sample_n=12)
    clf = FastTextClassifier(classes, cents)
    whole = clf(pa.Table.from_pandas(docs))
    parts = [
        clf(pa.Table.from_pandas(docs.iloc[i : i + 3]))
        for i in range(0, 12, 3)
    ]
    merged = pa.concat_tables(parts)
    assert whole.column("pred_label").to_pylist() == merged.column("pred_label").to_pylist()
    assert whole.column("pred_score").to_pylist() == merged.column("pred_score").to_pylist()


def test_embed_text_matches_driver_math(ray_session):
    """TextEmbedder output == the driver-side _feature_ids/_doc_vectors
    math per doc, float32-cast; partitioning-invariant; zero-feature docs
    embed to the zero vector; chains into cosine similarity."""
    import ray.data as rd

    from great_expectations_ray.stages.classifier import (
        _doc_vectors,
        _feature_ids,
        embed_text,
        embedding_table,
    )

    texts = ["the quick brown fox", "the quick brown fox", "lazy dog", "",
             "one", "completely different words here"]
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    out = {r["doc_id"]: np.asarray(r["text_emb"], dtype=np.float32)
           for r in embed_text(rd.from_pandas(df).repartition(3),
                               batch_size=2).take_all()}
    E = embedding_table(41)
    ids, counts = _feature_ids(pa.array(texts, pa.string()))
    want = _doc_vectors(E, ids, counts).astype(np.float32)
    for i in range(len(texts)):
        np.testing.assert_array_equal(out[i], want[i])
    # identical docs embed identically; empty doc -> zero vector
    np.testing.assert_array_equal(out[0], out[1])
    assert not np.any(out[3])
    # cosine of identical docs = 1, different docs < 1
    def cos(a, b):
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        return float(a @ b / (na * nb)) if na and nb else 0.0
    assert np.isclose(cos(out[0], out[1]), 1.0)
    assert cos(out[0], out[5]) < 0.999


def test_embed_text_chains_into_embedding_neardup(ray_session):
    """End-to-end documents -> embed_text -> embedding-cosine near-dup:
    exact duplicate texts are marked (cosine 1.0 in every bucketing),
    unrelated docs are not."""
    import ray.data as rd

    from great_expectations_ray.stages.classifier import embed_text
    from great_expectations_ray.stages.neardup import embedding_mark_duplicates

    texts = (["the quick brown fox jumps over the lazy dog"] * 3
             + ["vectorized arrow kernels stream blocks with backpressure",
                "completely unrelated words about cooking pasta tonight"])
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    emb = embed_text(rd.from_pandas(df).repartition(2),
                     batch_size=2)
    marked = {r["doc_id"]: r["max(is_neardup)"]
              for r in embedding_mark_duplicates(
                  emb, emb_col="text_emb", id_col="doc_id",
                  cosine_threshold=0.999).take_all()}
    assert marked[0] is False or marked[0] == False  # keeper (lowest id)
    assert marked[1] and marked[2]                   # exact text twins
    assert not marked[3] and not marked[4]
