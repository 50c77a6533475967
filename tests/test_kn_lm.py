"""Interpolated Kneser-Ney hashed word-bigram perplexity (stages/kn_lm.py).
CCNet-style quality signal (no reference counterpart — training-data-pipeline
surface); spec shared with tools/gen_oracle_fixtures.py kn_ppl_fixture."""

import math
from zlib import crc32

import numpy as np
import pandas as pd
import ray.data as rd

from great_expectations_ray.stages.kn_lm import (
    DISCOUNT,
    EPS,
    SHORT_DOC_PPL,
    W,
    build_kn_model,
    distributed_train_kn,
    kn_log2_probs,
    kn_perplexity,
)

DOCS = [
    "the cat sat on the mat",
    "the cat ate the rat",
    "a dog sat on a log",
    "the dog and the cat",
    "rat cat mat log dog",
    "singleword",
    "",
    "the the the the",
]


def _naive_model(texts):
    import re

    tok = re.compile(r"[a-z0-9_]+")
    seqs = [[crc32(w.encode()) % W for w in tok.findall(t.lower())]
            for t in texts]
    big = {}
    for s in seqs:
        for a, b in zip(s, s[1:]):
            big[(a, b)] = big.get((a, b), 0) + 1
    return seqs, big


def _naive_ppl(seqs, big):
    c_ctx, n1_after, before = {}, {}, {}
    for (a, b), c in big.items():
        c_ctx[a] = c_ctx.get(a, 0) + c
        n1_after[a] = n1_after.get(a, 0) + 1
        before.setdefault(b, set()).add(a)
    n_types = max(len(big), 1)
    out = []
    for s in seqs:
        if len(s) < 2:
            out.append(SHORT_DOC_PPL)
            continue
        total = 0.0
        for a, b in zip(s, s[1:]):
            pcont = len(before.get(b, ())) / n_types
            cu = c_ctx.get(a, 0)
            if cu:
                p = (max(big.get((a, b), 0) - DISCOUNT, 0.0) / cu
                     + DISCOUNT * n1_after[a] / cu * pcont)
            else:
                p = pcont
            total += math.log2(max(p, EPS))
        out.append(2.0 ** (-(total / (len(s) - 1))))
    return out


def _scored_df(n_parts):
    ds = rd.from_pandas(pd.DataFrame({
        "doc_id": np.arange(len(DOCS), dtype=np.int64), "text": DOCS,
    })).repartition(n_parts)
    out = kn_perplexity(ds, column="text", batch_size=2)
    df = pd.DataFrame(out.select_columns(["doc_id", "kn_ppl"]).take_all())
    return df.sort_values("doc_id").reset_index(drop=True)


def test_matches_naive_reimplementation():
    df = _scored_df(3)
    seqs, big = _naive_model(DOCS)
    expected = _naive_ppl(seqs, big)
    np.testing.assert_allclose(df["kn_ppl"].to_numpy(), expected,
                               rtol=1e-12, atol=0)


def test_partitioning_invariance():
    a = _scored_df(1)["kn_ppl"].to_numpy()
    b = _scored_df(7)["kn_ppl"].to_numpy()
    np.testing.assert_array_equal(a, b)


def test_short_and_empty_docs_get_sentinel():
    df = _scored_df(2)
    assert df.loc[5, "kn_ppl"] == SHORT_DOC_PPL  # one token
    assert df.loc[6, "kn_ppl"] == SHORT_DOC_PPL  # empty


def test_repeated_token_doc_scores_low():
    # "the the the the": c(the,the) dominates its context -> high P -> low ppl
    df = _scored_df(2)
    assert df.loc[7, "kn_ppl"] < df.loc[0, "kn_ppl"]


def test_probabilities_sum_to_one_per_seen_context():
    seqs, big = _naive_model(DOCS)
    cells = np.array([a * W + b for a, b in big], dtype=np.int64)
    cnts = np.array([big[k] for k in big], dtype=np.int64)
    model = build_kn_model(cells, cnts)
    # pick a context seen in training: sum_w P(w|u) over ALL W words == 1
    u = cells[0] // W
    all_cells = u * W + np.arange(W, dtype=np.int64)
    probs = 2.0 ** kn_log2_probs(model, all_cells)
    # the EPS floor adds at most W*EPS excess mass on unseen continuations
    assert abs(probs.sum() - 1.0) < W * EPS + 1e-12


def test_unseen_context_falls_back_to_continuation():
    seqs, big = _naive_model(DOCS)
    cells = np.array([a * W + b for a, b in big], dtype=np.int64)
    cnts = np.array([big[k] for k in big], dtype=np.int64)
    model = build_kn_model(cells, cnts)
    seen_ctx = set(int(c) // W for c in cells)
    u_unseen = next(i for i in range(W) if i not in seen_ctx)
    w_seen = int(cells[0]) % W
    lp = kn_log2_probs(model, np.array([u_unseen * W + w_seen]))
    n1_before = model["n1_before"][w_seen]
    assert np.isclose(2.0 ** lp[0], n1_before / model["n_types"])


def test_never_seen_word_hits_eps_floor():
    seqs, big = _naive_model(DOCS)
    cells = np.array([a * W + b for a, b in big], dtype=np.int64)
    cnts = np.array([big[k] for k in big], dtype=np.int64)
    model = build_kn_model(cells, cnts)
    seen_w = set(int(c) % W for c in cells)
    w_unseen = next(i for i in range(W) if i not in seen_w)
    seen_ctx = int(cells[0]) // W
    lp = kn_log2_probs(model, np.array([seen_ctx * W + w_unseen]))
    # unseen continuation: Pcont = 0, only the discount-mass term * 0 -> EPS
    assert lp[0] == np.log2(EPS)


def test_distributed_train_equals_local_counts():
    ds = rd.from_pandas(pd.DataFrame({"text": DOCS})).repartition(5)
    model = distributed_train_kn(ds, column="text")
    _, big = _naive_model(DOCS)
    assert model["n_types"] == len(big)
    got = {(int(c) // W, int(c) % W): int(n)
           for c, n in zip(model["cells"], model["cnts"])}
    assert got == big


def test_merge_count_partials_paths_identical():
    """Driver fast path (under the cap) and bucketed-exchange path (cap=0)
    produce identical exact sums; both match a local recount."""
    from great_expectations_ray.functions.bucketed import merge_count_partials

    rng = np.random.default_rng(7)
    cells = rng.integers(0, 50, size=400).astype(np.int64)
    cnts = rng.integers(1, 9, size=400).astype(np.int64)
    parts = rd.from_pandas(pd.DataFrame({"cell": cells, "cnt": cnts})
                           ).repartition(8)
    fast = merge_count_partials(parts, ["cell"])
    slow = merge_count_partials(parts, ["cell"], max_driver_rows=0)
    f = pd.DataFrame({"cell": fast.column("cell").to_numpy(),
                      "cnt": fast.column("cnt").to_numpy()}
                     ).sort_values("cell").reset_index(drop=True)
    s = pd.DataFrame({"cell": slow.column("cell").to_numpy(),
                      "cnt": slow.column("cnt").to_numpy()}
                     ).sort_values("cell").reset_index(drop=True)
    ref = (pd.DataFrame({"cell": cells, "cnt": cnts}).groupby("cell")["cnt"]
           .sum().reset_index())
    pd.testing.assert_frame_equal(f, s)
    pd.testing.assert_frame_equal(f, ref)


def test_merge_count_partials_empty():
    from great_expectations_ray.functions.bucketed import merge_count_partials

    parts = rd.from_pandas(pd.DataFrame({"cell": pd.Series([], dtype="int64"),
                                         "cnt": pd.Series([], dtype="int64")}))
    t = merge_count_partials(parts, ["cell"])
    assert t.num_rows == 0
