"""Tokenize-to-training-sequences (stages/pack_ids.py): WordPiece token-id
encoding + distributed fixed-length packing.  No reference counterpart
(training-data-pipeline surface); spec shared with
tools/gen_oracle_fixtures.py wordpiece_pack_fixture (naive driver-side
concat+slice reimplementation)."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from great_expectations_ray.stages.pack_ids import (
    encode_token_ids,
    pack_sequences,
)
from great_expectations_ray.stages.wordpiece import (
    encode_word,
    train_wordpiece_from_words,
)

DOCS = [
    {"doc_id": 1, "text": "aa bb aa"},
    {"doc_id": 2, "text": "bb bb cc"},
    {"doc_id": 3, "text": ""},
    {"doc_id": 4, "text": "aa cc aa bb"},
    {"doc_id": 5, "text": "zz"},          # unknown chars -> [UNK]
]
WORDS = {"aa": 4, "bb": 4, "cc": 2}


def _naive_ids(vocab):
    """Driver-side expected encoding: doc_id order, eos after every doc."""
    p2i = {p: int(r) for r, p in zip(vocab["rank"], vocab["piece"])}
    vs = frozenset(p2i)
    unk, eos = len(vocab), len(vocab) + 1
    per_doc = {}
    for d in DOCS:
        ids = []
        for w in d["text"].split():
            ids.extend(p2i.get(p, unk) for p in encode_word(w, vs))
        ids.append(eos)
        per_doc[d["doc_id"]] = ids
    return per_doc


@pytest.fixture(scope="module")
def vocab():
    return train_wordpiece_from_words(WORDS, num_merges=3, min_pair_count=2)


def test_encode_token_ids_matches_naive(ray_session, vocab):
    ds = rd.from_items(DOCS)
    out = (encode_token_ids(ds, vocab, text_col="text", id_col="doc_id",
                            eos_id=len(vocab) + 1)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    exp = _naive_ids(vocab)
    for _, row in out.iterrows():
        assert list(row["token_ids"]) == exp[row["doc_id"]]
        assert row["n_tokens"] == len(exp[row["doc_id"]])


@pytest.mark.parametrize("seq_len,drop_last", [(4, True), (4, False),
                                               (5, True), (100, False)])
def test_pack_sequences_matches_concat_slice(ray_session, vocab, seq_len,
                                             drop_last):
    ds = rd.from_items(DOCS)
    enc = encode_token_ids(ds, vocab, text_col="text", id_col="doc_id",
                           eos_id=len(vocab) + 1)
    packed = (pack_sequences(enc, order_col="doc_id", seq_len=seq_len,
                             drop_last=drop_last)
              .to_pandas().sort_values("seq_id").reset_index(drop=True))
    exp_docs = _naive_ids(vocab)
    stream = [t for did in sorted(exp_docs) for t in exp_docs[did]]
    exp_seqs = [stream[i:i + seq_len]
                for i in range(0, len(stream), seq_len)]
    if drop_last and len(exp_seqs) and len(exp_seqs[-1]) < seq_len:
        exp_seqs.pop()
    assert list(packed["seq_id"]) == list(range(len(exp_seqs)))
    for sid, row in packed.iterrows():
        assert list(row["token_ids"]) == exp_seqs[sid]
        assert row["n_tokens"] == len(exp_seqs[sid])


def test_pack_sequences_many_blocks_cross_doc(ray_session, vocab):
    """Sequences crossing documents that live in different blocks: 60 docs
    over 8 blocks, seq_len chosen to never align with doc boundaries."""
    docs = [{"doc_id": i, "text": "aa bb cc aa"[: 2 + 3 * (i % 4)]}
            for i in range(60)]
    ds = rd.from_items(docs).repartition(8)
    enc = encode_token_ids(ds, vocab, text_col="text", id_col="doc_id",
                           eos_id=len(vocab) + 1)
    packed = (pack_sequences(enc, order_col="doc_id", seq_len=7,
                             drop_last=False)
              .to_pandas().sort_values("seq_id").reset_index(drop=True))
    # independent driver-side expectation
    p2i = {p: int(r) for r, p in zip(vocab["rank"], vocab["piece"])}
    vs = frozenset(p2i)
    unk, eos = len(vocab), len(vocab) + 1
    stream = []
    for d in sorted(docs, key=lambda d: d["doc_id"]):
        for w in d["text"].split():
            stream.extend(p2i.get(p, unk) for p in encode_word(w, vs))
        stream.append(eos)
    exp = [stream[i:i + 7] for i in range(0, len(stream), 7)]
    assert len(packed) == len(exp)
    for sid, row in packed.iterrows():
        assert list(row["token_ids"]) == exp[sid], sid
    # every full sequence has exactly seq_len tokens
    assert (packed["n_tokens"].iloc[:-1] == 7).all()


def test_pack_rejects_bad_seq_len(ray_session, vocab):
    ds = rd.from_items(DOCS)
    enc = encode_token_ids(ds, vocab, text_col="text", id_col="doc_id")
    with pytest.raises(ValueError):
        pack_sequences(enc, order_col="doc_id", seq_len=0)


def _tools_path():
    import os
    import sys
    sys.path.insert(0, os.path.join(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))), "tools"))


def test_distributed_pack_matches_fixture_spec(ray_session):
    """sf0.001 differential: the distributed two-pass pack reproduces the
    naive fixture (train on the corpus, encode per doc, concat in doc_id
    order, slice at 128) byte-identically — lengths AND id-hashes."""
    _tools_path()
    from gen_oracle_fixtures import wordpiece_pack_fixture

    from great_expectations_ray.stages.wordpiece import train_wordpiece

    docs_pd = pd.read_parquet("/root/testdata/sf0.001/documents.parquet")
    ds = rd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                         columns=["doc_id", "text"])
    vocab = train_wordpiece(ds, text_col="text", num_merges=60)
    enc = encode_token_ids(ds, vocab, text_col="text", id_col="doc_id",
                           eos_id=len(vocab) + 1)
    packed = (pack_sequences(enc, order_col="doc_id", seq_len=128)
              .to_pandas().sort_values("seq_id").reset_index(drop=True))
    fix = wordpiece_pack_fixture(docs_pd).sort_values(
        "seq_id").reset_index(drop=True)
    assert list(packed["seq_id"]) == list(fix["seq_id"])
    assert list(packed["n_tokens"]) == list(fix["n_tokens"])
    # same polynomial id-hash the gate pins (order-sensitive, mod 2^64)
    pows = np.array([pow(1000003, 127 - i, 2 ** 64) for i in range(128)],
                    dtype=np.uint64)
    got = [int((np.asarray(ids, dtype=np.uint64) * pows).sum()
               .astype(np.int64))
           for ids in packed["token_ids"]]
    assert got == list(fix["idhash"])


def test_pack_cli_train_then_load(ray_session, tmp_path):
    """`pack` CLI end-to-end: first run trains + saves the vocab and writes
    534 sequences at sf0.001/seq_len=128 (the fixture count); second run
    LOADS the saved vocab (day-2 convention) and reproduces the identical
    output."""
    import json as _json

    import pandas as pd

    from great_expectations_ray.__main__ import main
    from great_expectations_ray.stages.wordpiece import load_vocab

    vocab_path = str(tmp_path / "vocab.json")
    out1 = str(tmp_path / "seqs1")
    rc = main(["pack", "--input", "/root/testdata/sf0.001/documents.parquet",
               "--output", out1, "--seq-len", "128",
               "--vocab", vocab_path, "--partitions", "2", "--cpus", "2"])
    assert rc == 0
    assert _json.load(open(vocab_path))["format"] == "wordpiece_vocab_v1"
    a = pd.read_parquet(out1).sort_values("seq_id").reset_index(drop=True)
    assert len(a) == 534 and (a["n_tokens"] == 128).all()

    out2 = str(tmp_path / "seqs2")
    rc = main(["pack", "--input", "/root/testdata/sf0.001/documents.parquet",
               "--output", out2, "--seq-len", "128",
               "--vocab", vocab_path, "--partitions", "2", "--cpus", "2"])
    assert rc == 0
    b = pd.read_parquet(out2).sort_values("seq_id").reset_index(drop=True)
    assert list(a["seq_id"]) == list(b["seq_id"])
    for x, y in zip(a["token_ids"], b["token_ids"]):
        # written sequences round-trip as Ray's tensor extension type
        assert np.asarray(x).tolist() == np.asarray(y).tolist()
    # vocab round-trip is exact
    v = load_vocab(vocab_path)
    assert list(v.columns) == ["rank", "piece", "cnt"]
    assert (v["rank"] == range(len(v))).all()


def test_pack_cli_with_shards(ray_session, tmp_path):
    """`pack --shards`: the parquet output and the Megatron shard export
    carry the SAME sequences; manifest totals match; loader round-trips."""
    import json as _json

    import pandas as pd

    from great_expectations_ray.__main__ import main
    from great_expectations_ray.stages.shards import read_token_shards

    out = str(tmp_path / "seqs")
    shards = str(tmp_path / "shards")
    rc = main(["pack", "--input", "/root/testdata/sf0.001/documents.parquet",
               "--output", out, "--seq-len", "128",
               "--vocab", str(tmp_path / "v.json"),
               "--shards", shards, "--seqs-per-shard", "100",
               "--partitions", "2", "--cpus", "2"])
    assert rc == 0
    man = _json.load(open(shards + "/manifest.json"))
    pq = pd.read_parquet(out).sort_values("seq_id").reset_index(drop=True)
    assert man["total_seqs"] == len(pq) == 534
    assert man["dtype"] == "uint16"  # vocab + specials fit
    assert len(man["shards"]) == 6  # ceil(534/100)
    back = (read_token_shards(shards, verify=True).to_pandas()
            .sort_values("seq_id").reset_index(drop=True))
    assert len(back) == len(pq)
    for x, y in zip(back["token_ids"], pq["token_ids"]):
        assert np.asarray(x).tolist() == np.asarray(y).tolist()


def test_decode_round_trip(ray_session, vocab):
    """decode(encode(text)) == whitespace-normalized text for covered
    vocab; unknown words render as [UNK]; EOS renders as nothing."""
    from great_expectations_ray.stages.pack_ids import decode_token_ids

    ds = rd.from_items(DOCS).repartition(2)
    enc = encode_token_ids(ds, vocab, text_col="text", id_col="doc_id",
                           eos_id=len(vocab) + 1)
    dec = (decode_token_ids(enc, vocab, id_col="doc_id",
                            eos_id=len(vocab) + 1)
           .to_pandas().set_index("doc_id")["text"])
    for d in DOCS:
        want = " ".join(
            w if set(w) <= set("abc") else "[UNK]"
            for w in d["text"].split())
        assert dec[d["doc_id"]] == want, d


def test_decode_real_docs_round_trip(ray_session):
    """sf0.001 documents: a corpus-trained vocab covers every word (chars
    are all in-alphabet), so decode(encode(text)) == normalized text."""
    import ray.data as rd2

    from great_expectations_ray.stages.pack_ids import decode_token_ids
    from great_expectations_ray.stages.wordpiece import train_wordpiece

    ds = rd2.read_parquet("/root/testdata/sf0.001/documents.parquet",
                          columns=["doc_id", "text"]).limit(50)
    vocab = train_wordpiece(ds, text_col="text", num_merges=30)
    enc = encode_token_ids(ds, vocab, text_col="text", id_col="doc_id",
                           eos_id=len(vocab) + 1)
    dec = (decode_token_ids(enc, vocab, id_col="doc_id",
                            eos_id=len(vocab) + 1)
           .to_pandas().set_index("doc_id")["text"])
    src = ds.to_pandas().set_index("doc_id")["text"]
    unk = 0
    for did, text in src.items():
        want = " ".join(text.split())
        got = dec[did]
        if "[UNK]" in got:
            unk += 1
            continue
        assert got == want, did
    assert unk <= len(src) * 0.5  # vocab covers most docs fully
