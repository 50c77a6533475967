"""Repetition signals (stages/repetition.py) and benchmark decontamination
(stages/decontaminate.py) — kernel edge cases + end-to-end Ray semantics."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from great_expectations_ray.stages.repetition import word_repetition_stats


def _brute(texts, n, kind):
    """Independent per-doc python reimplementation of the gram stats."""
    out = []
    for t in texts:
        t = t or ""
        toks = t.split()
        total = max(len(t), 1)
        grams = [" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)]
        if not grams:
            out.append(0.0)
            continue
        from collections import Counter

        c = Counter(grams)
        if kind == "top":
            best = max(c.items(), key=lambda kv: (kv[1], len(kv[0])))
            cov = best[1] * len(best[0])
        else:
            cov = sum(cnt * len(g) for g, cnt in c.items() if cnt >= 2)
        out.append(np.floor(cov / total * 1e6 + 0.5) / 1e6)
    return np.array(out)


EDGE_TEXTS = [
    "",  # empty
    "one",  # single token, no 2-grams
    "a a a a a a",  # maximal repetition
    "  leading and trailing  ",  # whitespace edges
    "x y x y x y z",  # alternating
    "café déjà café déjà café",  # multi-byte UTF-8 (char counts, not bytes)
    "tab\tand\nnewline separated words tab\tand",
    None,  # null
]


def test_repetition_edge_cases_match_bruteforce():
    arr = pa.array(EDGE_TEXTS, pa.string())
    stats = word_repetition_stats(arr, top_ns=(2, 3), dup_ns=(2,))
    texts = [t or "" for t in EDGE_TEXTS]
    assert np.array_equal(stats["top2_char_frac"], _brute(texts, 2, "top"))
    assert np.array_equal(stats["top3_char_frac"], _brute(texts, 3, "top"))
    assert np.array_equal(stats["dup2_char_frac"], _brute(texts, 2, "dup"))
    # word counts: \S+ runs
    assert stats["n_words"].tolist() == [0, 1, 6, 3, 7, 5, 7, 0]


def test_repetition_char_not_byte_lengths():
    # "café déjà café" — gram char length counts chars; total chars likewise
    arr = pa.array(["café déjà café déjà"], pa.string())
    s = word_repetition_stats(arr, top_ns=(2,), dup_ns=(2,))
    # top 2-gram "café déjà" occurs 2×, len 9 chars, total 19 chars
    assert s["top2_char_frac"][0] == np.floor(18 / 19 * 1e6 + 0.5) / 1e6
    assert s["mean_word_len"][0] == np.floor(4 * 1e6 + 0.5) / 1e6


def test_decontaminate_end_to_end(ray_session):
    import ray.data as rd

    from great_expectations_ray.stages.decontaminate import mark_contaminated

    bench = rd.from_items([
        {"doc_id": 100, "text": "the quick brown fox jumps over the lazy dog"},
    ])
    corpus = rd.from_items([
        # shares the 5-gram "quick brown fox jumps over"
        {"doc_id": 1, "text": "a quick brown fox jumps over fences daily"},
        # shares tokens and 4-grams but no 5-gram
        {"doc_id": 2, "text": "the quick red fox leaps over the lazy cat"},
        # fewer than 5 tokens
        {"doc_id": 3, "text": "quick brown fox"},
        {"doc_id": 4, "text": ""},
    ])
    out = (
        mark_contaminated(corpus, bench, n=5)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["contaminated"].tolist() == [True, False, False, False]


def test_decontaminate_empty_benchmark(ray_session):
    import ray.data as rd

    from great_expectations_ray.stages.decontaminate import mark_contaminated

    bench = rd.from_items([{"doc_id": 0, "text": "tiny"}])  # no 5-grams at all
    corpus = rd.from_items([{"doc_id": 1, "text": "some words here for testing okay"}])
    out = mark_contaminated(corpus, bench, n=5).to_pandas()
    assert out["contaminated"].tolist() == [False]
