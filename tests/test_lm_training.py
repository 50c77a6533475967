from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from great_expectations_ray.stages.perplexity import (
    distributed_train_char_lm,
    perplexity_of,
    train_char_lm,
)

TEXTS = [
    "hello world this is a test of the language model",
    "another document with different text entirely",
    "",            # skipped by both (no trigrams)
    "ab",          # too short for a trigram
    "the quick brown fox jumps over the lazy dog",
]


def test_distributed_training_matches_driver_exactly(ray_session):
    ds = rd.from_arrow(pa.table({"content": TEXTS}))
    dist = distributed_train_char_lm(ds)
    ref = train_char_lm([t for t in TEXTS if t])
    assert np.array_equal(dist, ref)


def test_partitioning_invariance(ray_session):
    ds1 = rd.from_arrow(pa.table({"content": TEXTS})).repartition(1)
    ds5 = rd.from_arrow(pa.table({"content": TEXTS})).repartition(5)
    assert np.array_equal(
        distributed_train_char_lm(ds1), distributed_train_char_lm(ds5)
    )


def test_trained_model_prefers_in_domain_text(ray_session):
    ds = rd.from_arrow(pa.table({"content": TEXTS * 20}))
    table = distributed_train_char_lm(ds)
    in_dom = perplexity_of(table, "hello world this is a test")
    out_dom = perplexity_of(table, "zzqxj vvkpw qqq///\\\\###!!!")
    assert in_dom < out_dom


def test_default_lm_sample_ignores_block_order_and_count(ray_session):
    """Without an id column the default LM's sample depends on row contents
    only: the same rows under two block orders and two block counts train a
    byte-identical table."""
    from great_expectations_ray.corpus import corpus_dataset
    from great_expectations_ray.stages.perplexity import build_reference_model

    tables = [
        build_reference_model(
            corpus_dataset(1200, blocks=blocks).materialize()
            .randomize_block_order(seed=seed).select_columns(["content"]),
            sample_rows=100,
        ).tobytes()
        for blocks in (4, 9) for seed in (1, 2)
    ]
    assert len(set(tables)) == 1
