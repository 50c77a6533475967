"""Round-5 adversarial edge cases over the round-4 modules — constant /
single-value / ±inf / all-NaN sketches, theta set-ops against empty
sketches, unicode + empty-doc tokenizer corpora, a bigram-free KN corpus,
empty-doc packing, and null-ish secret-scanner inputs.  Each probes a
boundary the per-module fixture differentials don't reach."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd


def test_kll_constant_single_inf_nan(ray_session):
    from great_expectations_ray.functions.kll import KLLSketch, kll_quantiles

    sk = KLLSketch(k=16, seed=1)
    sk.update_many(np.full(100_000, 7.0))
    assert sk.quantiles([0.0, 0.5, 1.0]) == [7.0, 7.0, 7.0]

    sk2 = KLLSketch()
    sk2.update_many(np.array([3.5]))
    assert sk2.quantiles([0.0, 1.0]) == [3.5, 3.5]

    sk3 = KLLSketch()
    sk3.update_many(np.array([1.0, np.inf, -np.inf]))
    q = sk3.quantiles([0.0, 1.0])
    assert q[0] == -np.inf and q[1] == np.inf

    ds = rd.from_pandas(pd.DataFrame({"x": [np.nan] * 10}))
    assert kll_quantiles(ds, "x", [0.5]) == [None]


def test_kll_grouped_null_key_group(ray_session):
    from great_expectations_ray.functions.kll import grouped_kll_quantiles

    df = pd.DataFrame({"g": ["a", None, "a", None],
                       "x": [1.0, 10.0, 3.0, 30.0]})
    out = grouped_kll_quantiles(
        rd.from_pandas(df), ["g"], "x", [0.5]).to_pandas()
    assert len(out) == 2  # 'a' and the null-key group


def test_theta_set_ops_vs_empty():
    from great_expectations_ray.functions.sketches import ThetaSketch

    a, b = ThetaSketch(k=64), ThetaSketch(k=64)
    a.update_hashes(
        np.arange(1, 5000, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15))
    assert a.intersect_estimate(b) == 0.0
    assert abs(a.difference_estimate(b) - a.estimate()) < 1e-9
    assert abs(a.union_estimate(b) - a.estimate()) < 1e-9
    assert b.estimate() == 0.0
    assert ThetaSketch(k=16).union_estimate(ThetaSketch(k=16)) == 0.0


def test_wordpiece_unicode_empty_and_long_word(ray_session):
    from great_expectations_ray.stages.wordpiece import (
        apply_wordpiece,
        train_wordpiece,
    )

    df = pd.DataFrame({
        "id": [1, 2, 3, 4],
        "content": ["héllo wörld héllo", "", "a" * 64 + " b", "héllo"],
    })
    ds = rd.from_pandas(df)
    vocab = train_wordpiece(ds, num_merges=10)
    out = apply_wordpiece(ds, vocab, id_col="id").to_pandas()
    assert len(out) == 4

    # a corpus of only empty docs still trains (empty vocab) without raising
    empty = rd.from_pandas(pd.DataFrame({"id": [1], "content": [""]}))
    assert len(train_wordpiece(empty, num_merges=5)) >= 0


def test_unigram_tiny_and_empty_docs(ray_session):
    from great_expectations_ray.stages.unigram import (
        apply_unigram,
        train_unigram,
    )

    ds = rd.from_pandas(
        pd.DataFrame({"id": [1, 2], "content": ["abc abc ab", ""]}))
    v = train_unigram(ds, vocab_size=8)
    assert len(apply_unigram(ds, v, id_col="id").to_pandas()) == 2


def test_kn_perplexity_bigram_free_corpus(ray_session):
    from great_expectations_ray.stages.kn_lm import kn_perplexity

    # every doc is a single token: the corpus has NO bigrams at all — the
    # model must still score every doc with a finite value
    df = pd.DataFrame({"id": [1, 2], "content": ["a", "b"]})
    out = kn_perplexity(rd.from_pandas(df), column="content").to_pandas()
    assert len(out) == 2 and out["kn_ppl"].notna().all()

    # empty docs and unseen-word docs coexist
    df2 = pd.DataFrame({"id": [1, 2, 3], "content": ["a b c a b", "", "z"]})
    out2 = kn_perplexity(rd.from_pandas(df2), column="content").to_pandas()
    assert len(out2) == 3


def test_pack_sequences_empty_docs_between_full_ones(ray_session):
    from great_expectations_ray.stages.pack_ids import pack_sequences

    df = pd.DataFrame({
        "order": [1, 2, 3],
        "ids": [[1, 2, 3, 4], [], [5, 6, 7, 8, 9, 10, 11, 12]],
    })
    out = pack_sequences(rd.from_pandas(df), ids_col="ids",
                         order_col="order", seq_len=4).to_pandas()
    flat = [int(t) for r in out.sort_values("seq_id")["token_ids"]
            for t in np.asarray(r).ravel().tolist()]
    assert flat == list(range(1, 13))

    all_empty = pd.DataFrame({"order": [1, 2], "ids": [[], []]})
    out2 = pack_sequences(rd.from_pandas(all_empty), ids_col="ids",
                          order_col="order", seq_len=4).to_pandas()
    assert len(out2) == 0


def test_secret_scanner_null_empty_nonascii():
    from great_expectations_ray.stages.secrets_entropy import (
        secret_stats_table,
    )

    arr = pa.array(["", None, "x" * 25, "päyload " + "A1b2" * 6,
                    "0123456789abcdef0123"])
    out = secret_stats_table(arr)
    n = out["n_secret_candidates"].to_pylist()
    assert n[:3] == [0, 0, 1]
    assert out["n_hex_candidates"].to_pylist()[4] == 1


def test_pack_sequences_tensor_extension_input(ray_session):
    """Ray repacks list rows as tensor extension arrays after a pandas hop
    (fixed-shape when rows are equal length, variable-shaped otherwise);
    pack_sequences must normalize both back to list<int32>."""
    import ray.data as rd

    from great_expectations_ray.stages.pack_ids import pack_sequences

    # fixed-shape: every doc exactly 4 tokens
    df = pd.DataFrame({"order": range(10),
                       "ids": [np.array([1, 2, 3, 4], np.int32)] * 10})
    ds = rd.from_pandas(df).map_batches(lambda d: d, batch_format="pandas")
    # the pandas hop produced a tensor-typed column, not list<int32>
    assert not str(ds.schema().types[1]).startswith("list"), ds.schema()
    out = pack_sequences(ds, ids_col="ids", order_col="order",
                         seq_len=8).to_pandas()
    flat = [int(t) for r in out.sort_values("seq_id")["token_ids"]
            for t in np.asarray(r).ravel().tolist()]
    assert flat == [1, 2, 3, 4] * 10

    # variable-shaped: ragged docs through the same pandas hop
    df2 = pd.DataFrame({"order": range(3),
                        "ids": [np.array([1, 2, 3], np.int32),
                                np.array([4], np.int32),
                                np.array([5, 6, 7, 8], np.int32)]})
    ds2 = rd.from_pandas(df2).map_batches(lambda d: d, batch_format="pandas")
    out2 = pack_sequences(ds2, ids_col="ids", order_col="order",
                          seq_len=4).to_pandas()
    flat2 = [int(t) for r in out2.sort_values("seq_id")["token_ids"]
             for t in np.asarray(r).ravel().tolist()]
    assert flat2 == [1, 2, 3, 4, 5, 6, 7, 8]


def test_decode_token_ids_tensor_extension_input(ray_session):
    import ray.data as rd

    from great_expectations_ray.stages.pack_ids import decode_token_ids

    vocab = pd.DataFrame({"rank": [0, 1], "piece": ["hi", "##!"],
                          "cnt": [5, 4]})
    # ragged id rows through a pandas hop -> variable-shaped tensor array
    df = pd.DataFrame({"doc_id": [1, 2],
                       "token_ids": [np.array([0, 1], np.int32),
                                     np.array([0], np.int32)]})
    ds = rd.from_pandas(df).map_batches(lambda d: d, batch_format="pandas")
    out = decode_token_ids(ds, vocab, id_col="doc_id").to_pandas()
    got = dict(zip(out["doc_id"], out["text"]))
    assert got == {1: "hi!", 2: "hi"}


def test_emb_matrix_tensor_layout_and_sliced_list(ray_session):
    """_emb_matrix (shared by ANN / k-means / PCA / PQ / SemDeDup /
    embedding-near-dup) must read tensor-extension embedding columns
    (pandas-hop inputs) and sliced list arrays (offsets != 0)."""
    import ray.data as rd

    from great_expectations_ray.stages.ann import _emb_matrix, brute_force_topk

    # tensor-extension input end-to-end
    df = pd.DataFrame({"vec_id": [1, 2, 3],
                       "embedding": [np.array([1.0, 0.0], np.float64),
                                     np.array([0.0, 1.0], np.float64),
                                     np.array([1.0, 1.0], np.float64)]})
    ds = rd.from_pandas(df).map_batches(lambda d: d, batch_format="pandas")
    assert not str(ds.schema().types[1]).startswith("list"), ds.schema()
    top = brute_force_topk(ds, np.array([1.0, 0.0]), k=1)
    assert top[0][0] == 1

    # sliced list array: .values would return the FULL child buffer
    lst = pa.array([[9.0, 9.0], [1.0, 2.0], [3.0, 4.0]],
                   pa.list_(pa.float64()))
    m = _emb_matrix(lst.slice(1, 2))
    assert m.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_validate_dictionary_encoded_columns(ray_session):
    """Dictionary-encoded input columns (read_csv inference / from_arrow /
    parquet read_dictionary) must validate like their plain value types —
    pc.is_in in particular rejects dictionary arrays against a plain
    value_set."""
    import ray.data as rd

    from great_expectations_ray import ExpectationSuite, validate

    tbl = pa.table({"d": pa.array(["a", "b", "a"]).dictionary_encode(),
                    "v": pa.array([1.0, 2.0, 3.0]).dictionary_encode()})
    ds = rd.from_arrow(tbl)
    s = (ExpectationSuite("d")
         .add("expect_column_values_to_be_in_set", column="d",
              value_set=["a", "b"])
         .add("expect_column_distinct_values_to_be_in_set", column="d",
              value_set=["a", "b"])
         .add("expect_column_mean_to_be_between", column="v",
              min_value=1.5, max_value=2.5)
         .add("expect_column_values_to_match_regex", column="d",
              regex="^[ab]$"))
    r = validate(ds, s)
    assert r.success, r.to_json_dict()


def test_date_and_timestamp_bounds(ray_session):
    """ISO-string bounds (the only representation a JSON suite can carry)
    must work against date32 and timestamp columns — both the map kernel
    (between) and the temporal aggregate path (min/max/mean)."""
    import datetime

    import ray.data as rd

    from great_expectations_ray import ExpectationSuite, validate

    tbl = pa.table({
        "d": pa.array([datetime.date(2024, 1, 1), datetime.date(2024, 6, 1),
                       None]),
        "t": pa.array([datetime.datetime(2024, 1, 1, 12),
                       datetime.datetime(2024, 6, 1, 12), None]),
    })
    ds = rd.from_arrow(tbl)
    s = (ExpectationSuite("dt")
         .add("expect_column_values_to_be_between", column="d",
              min_value="2023-12-31", max_value="2024-12-31")
         .add("expect_column_values_to_be_between", column="t",
              min_value="2023-12-31", max_value="2024-12-31")
         .add("expect_column_min_to_be_between", column="d",
              min_value="2023-01-01", max_value="2024-02-01")
         .add("expect_column_max_to_be_between", column="t",
              min_value="2024-06-01", max_value="2024-06-02")
         .add("expect_column_mean_to_be_between", column="d",
              min_value="2024-01-01", max_value="2024-12-31"))
    r = validate(ds, s)
    assert r.success, r.to_json_dict()
    # observed_value for temporal min is a real datetime, not an epoch float
    obs = r.results[2].to_json_dict()["result"]["observed_value"]
    assert "2024-01-01" in str(obs)
    # and a violated bound actually fails (not vacuous)
    bad = ExpectationSuite("bad").add(
        "expect_column_values_to_be_between", column="d",
        min_value="2024-05-01")
    assert not validate(ds, bad).success


def test_date_bounds_merge_across_blocks(ray_session):
    import datetime

    import ray.data as rd

    from great_expectations_ray import ExpectationSuite, validate

    days = [datetime.date(2024, 1, 1) + datetime.timedelta(days=i)
            for i in range(50)]
    ds = rd.from_arrow(pa.table({"d": pa.array(days)})).repartition(7)
    s = (ExpectationSuite("m")
         .add("expect_column_min_to_be_between", column="d",
              min_value="2024-01-01", max_value="2024-01-01")
         .add("expect_column_max_to_be_between", column="d",
              min_value="2024-02-19", max_value="2024-02-19"))
    assert validate(ds, s).success


def test_intraday_string_bound_on_date_column(ray_session):
    """A bound with a time of day on a date32 column compares against each
    day's midnight instead of being truncated to its day."""
    import datetime

    from great_expectations_ray import ExpectationSuite, validate

    ds = rd.from_arrow(pa.table({"d": pa.array(
        [datetime.date(2024, 1, 15), datetime.date(2024, 1, 16)])}))
    r = validate(ds, ExpectationSuite("intra").add(
        "expect_column_values_to_be_between", column="d",
        min_value="2024-01-15 12:00")).results[0]
    assert not r.success
    assert r.result["unexpected_count"] == 1
    assert r.result["partial_unexpected_list"] == [datetime.date(2024, 1, 15)]
    # a midnight bound, with or without its time, still compares as a date
    ok = ExpectationSuite("midnight").add(
        "expect_column_values_to_be_between", column="d",
        min_value="2024-01-15", max_value="2024-01-16 00:00")
    assert validate(ds, ok).success


def test_ns_timestamp_min_max_are_exact(ray_session):
    """Temporal min/max merge as exact int64 epochs: 100 ns past a bound
    fails although float64 rounds both extremes onto the bound."""
    from great_expectations_ray import ExpectationSuite, validate

    t0 = pd.Timestamp("2024-01-15 12:00:00").value
    ns = [t0 - 100, t0 - 10**9, t0 + 10**6, t0 + 100, t0 - 5 * 10**9]
    assert float(t0 - 100) == float(t0) == float(t0 + 100)
    ds = rd.from_arrow(pa.table({"t": pa.array(ns, pa.timestamp("ns"))}))
    s = (ExpectationSuite("ns")
         .add("expect_column_max_to_be_between", column="t",
              max_value="2024-01-15 12:00:00.001")
         .add("expect_column_min_to_be_between", column="t",
              min_value="2024-01-15 11:59:55"))
    r = validate(ds.repartition(3), s)
    mx, mn = (e.result["observed_value"] for e in r.results)
    assert (mx, mn) == (pd.Timestamp(t0 + 10**6), pd.Timestamp(t0 - 5 * 10**9))
    assert r.success  # both extremes sit exactly on their bounds
    at_bound = (ExpectationSuite("at")
                .add("expect_column_max_to_be_between", column="t",
                     max_value="2024-01-15 12:00:00")
                .add("expect_column_min_to_be_between", column="t",
                     min_value="2024-01-15 12:00:00"))
    near = rd.from_arrow(pa.table({"t": pa.array([t0 + 100], pa.timestamp("ns"))}))
    r = validate(near, at_bound)
    assert r.results[0].result["observed_value"] == pd.Timestamp(t0 + 100)
    assert not r.results[0].success  # max is 100 ns past the bound
    assert r.results[1].success
    below = rd.from_arrow(pa.table({"t": pa.array([t0 - 100], pa.timestamp("ns"))}))
    r = validate(below, at_bound)
    assert r.results[0].success
    assert not r.results[1].success  # min is 100 ns before the bound


def test_cli_glob_inputs(ray_session, tmp_path, capsys):
    """Every CLI verb funnels its input through _expand_input — a quoted
    glob pattern (the documented `run` input form) must work for the other
    verbs too, and an unmatched pattern must fail loudly."""
    import json

    import pytest as _pytest

    from great_expectations_ray.__main__ import _expand_input, main as cli_main

    df = pd.DataFrame({"doc_id": range(20), "content": ["hello world"] * 20})
    for i in range(3):
        df.iloc[i * 7:(i + 1) * 7].to_parquet(tmp_path / f"part{i}.parquet")
    pattern = str(tmp_path / "*.parquet")

    assert len(_expand_input(pattern)) == 3
    assert _expand_input("plain/path.parquet") == "plain/path.parquet"
    with _pytest.raises(SystemExit, match="no input files match"):
        _expand_input(str(tmp_path / "nope*.parquet"))

    rc = cli_main(["scan", "--input", pattern, "--text-col", "content",
                   "--id-col", "doc_id"])
    out = json.loads(capsys.readouterr().out)
    assert out["files"] == 20 and rc == 0
