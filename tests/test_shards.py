"""Training-shard export (stages/shards.py): Megatron-layout .bin/.idx
writer + manifest + loader.  No reference counterpart (training-sink
surface of the LLM-prep mandate); format re-implemented from the public
Megatron-LM indexed_dataset spec."""

import hashlib
import json
import os
import struct

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from great_expectations_ray.stages.shards import (
    _MAGIC,
    parse_idx,
    read_token_shards,
    write_token_shards,
)


def _seqs(n, seq_len=7, vocab=50, seed=3):
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "seq_id": np.arange(n, dtype=np.int64),
            "token_ids": [
                rng.integers(0, vocab, size=seq_len).astype(np.int32)
                for _ in range(n)
            ],
            "n_tokens": np.full(n, seq_len, dtype=np.int64),
        }
    )


def _naive_bin(df, dtype):
    """Expected .bin bytes: concat in seq_id order, little-endian."""
    df = df.sort_values("seq_id")
    return np.concatenate(list(df["token_ids"])).astype(dtype).astype(
        np.dtype(dtype).newbyteorder("<")).tobytes()


def test_round_trip_and_layout(ray_session, tmp_path):
    df = _seqs(25)
    out = str(tmp_path / "shards")
    man = write_token_shards(
        rd.from_pandas(df).repartition(4), out,
        seqs_per_shard=10, vocab_size=50)
    assert man["dtype"] == "uint16"
    assert [s["shard"] for s in man["shards"]] == [0, 1, 2]
    assert [s["n_seqs"] for s in man["shards"]] == [10, 10, 5]
    assert man["total_tokens"] == 25 * 7

    # .bin bytes are exactly the naive driver-side layout per shard
    for s in man["shards"]:
        lo, hi = s["first_seq_id"], s["first_seq_id"] + s["n_seqs"]
        expect = _naive_bin(df[(df.seq_id >= lo) & (df.seq_id < hi)], np.uint16)
        with open(os.path.join(out, f"shard_{s['shard']:06d}.bin"), "rb") as f:
            assert f.read() == expect
        assert s["sha256_bin"] == hashlib.sha256(expect).hexdigest()

    # .idx parses: header fields, sizes, pointers
    dtype, sizes, pointers = parse_idx(os.path.join(out, "shard_000000.idx"))
    assert dtype == np.uint16
    assert list(sizes) == [7] * 10
    assert list(pointers) == [i * 7 * 2 for i in range(10)]
    with open(os.path.join(out, "shard_000000.idx"), "rb") as f:
        raw = f.read()
    assert raw[: len(_MAGIC)] == _MAGIC
    assert struct.unpack_from("<Q", raw, len(_MAGIC))[0] == 1  # version
    assert struct.unpack_from("<B", raw, len(_MAGIC) + 8)[0] == 8  # uint16

    # loader round-trips ids, seq ids and lengths exactly (sha verified)
    back = (read_token_shards(out, verify=True).to_pandas()
            .sort_values("seq_id").reset_index(drop=True))
    assert list(back["seq_id"]) == list(df["seq_id"])
    for a, b in zip(back["token_ids"], df["token_ids"]):
        assert np.array_equal(np.asarray(a), np.asarray(b))


def test_partitioning_invariance(ray_session, tmp_path):
    """Same data, different block layouts -> byte-identical shards."""
    df = _seqs(23, seq_len=5)
    outs = []
    for i, parts in enumerate((1, 6)):
        out = str(tmp_path / f"v{i}")
        write_token_shards(
            rd.from_pandas(df.sample(frac=1, random_state=i)).repartition(parts),
            out, seqs_per_shard=8, vocab_size=1000)
        outs.append(out)
    for fn in sorted(os.listdir(outs[0])):
        if fn == "manifest.json":
            a = json.load(open(os.path.join(outs[0], fn)))
            b = json.load(open(os.path.join(outs[1], fn)))
            assert a == b
        else:
            with open(os.path.join(outs[0], fn), "rb") as fa, \
                 open(os.path.join(outs[1], fn), "rb") as fb:
                assert fa.read() == fb.read(), fn


def test_resume_skips_complete_shards(ray_session, tmp_path):
    df = _seqs(16, seq_len=4)
    out = str(tmp_path / "shards")
    write_token_shards(rd.from_pandas(df), out, seqs_per_shard=8)
    # corrupt one shard (truncate), keep the other
    victim = os.path.join(out, "shard_000001.bin")
    with open(victim, "r+b") as f:
        f.truncate(3)
    keep = os.path.join(out, "shard_000000.bin")
    mtime_before = os.path.getmtime(keep)
    os.utime(keep, (mtime_before - 100, mtime_before - 100))
    man = write_token_shards(rd.from_pandas(df), out, seqs_per_shard=8)
    # intact shard untouched (skipped), corrupted one rewritten
    assert os.path.getmtime(keep) == mtime_before - 100
    dtype, sizes, _ = parse_idx(os.path.join(out, "shard_000001.idx"))
    assert os.path.getsize(victim) == int(sizes.sum()) * dtype.itemsize
    back = read_token_shards(out, verify=True).to_pandas()
    assert len(back) == 16


def test_int32_dtype_and_variable_lengths(ray_session, tmp_path):
    df = pd.DataFrame(
        {
            "seq_id": np.arange(3, dtype=np.int64),
            "token_ids": [
                np.array([70001, 2], dtype=np.int32),
                np.array([5], dtype=np.int32),
                np.array([1, 2, 3], dtype=np.int32),
            ],
            "n_tokens": np.array([2, 1, 3], dtype=np.int64),
        }
    )
    out = str(tmp_path / "s")
    man = write_token_shards(rd.from_pandas(df), out, vocab_size=None)
    assert man["dtype"] == "int32"
    dtype, sizes, pointers = parse_idx(os.path.join(out, "shard_000000.idx"))
    assert dtype == np.int32
    assert list(sizes) == [2, 1, 3]
    assert list(pointers) == [0, 8, 12]
    back = (read_token_shards(out).to_pandas()
            .sort_values("seq_id").reset_index(drop=True))
    assert list(back["n_tokens"]) == [2, 1, 3]
    assert list(back["token_ids"][0]) == [70001, 2]


def test_guards(ray_session, tmp_path):
    df = _seqs(4)
    # uint16 overflow caught
    df2 = df.copy()
    df2.at[0, "token_ids"] = np.array([70000] * 7, dtype=np.int32)
    with pytest.raises(Exception, match="out of range"):
        write_token_shards(rd.from_pandas(df2), str(tmp_path / "a"),
                           vocab_size=50)
    # non-contiguous seq ids caught
    df3 = df[df.seq_id != 1]
    with pytest.raises(Exception, match="not contiguous"):
        write_token_shards(rd.from_pandas(df3), str(tmp_path / "b"))
    # loader verify catches tampering
    out = str(tmp_path / "c")
    write_token_shards(rd.from_pandas(df), out)
    p = os.path.join(out, "shard_000000.bin")
    data = bytearray(open(p, "rb").read())
    data[0] ^= 0xFF
    open(p, "wb").write(bytes(data))
    with pytest.raises(Exception, match="sha256 mismatch"):
        read_token_shards(out, verify=True).materialize()


def test_pack_to_shards_end_to_end(ray_session, tmp_path):
    """documents -> encode -> pack -> shards -> load: ids survive exactly."""
    from great_expectations_ray.stages.pack_ids import (
        encode_token_ids,
        pack_sequences,
    )
    from great_expectations_ray.stages.wordpiece import (
        train_wordpiece_from_words,
    )

    docs = [{"doc_id": i, "text": "aa bb cc " * (i % 4 + 1)} for i in range(20)]
    vocab = train_wordpiece_from_words({"aa": 9, "bb": 9, "cc": 9},
                                       num_merges=2, min_pair_count=2)
    ds = rd.from_items(docs).repartition(3)
    enc = encode_token_ids(ds, vocab, text_col="text", id_col="doc_id",
                           eos_id=len(vocab) + 1)
    packed = pack_sequences(enc, order_col="doc_id", seq_len=16).materialize()
    exp = packed.to_pandas().sort_values("seq_id").reset_index(drop=True)
    out = str(tmp_path / "shards")
    man = write_token_shards(packed, out, seqs_per_shard=4,
                             vocab_size=len(vocab) + 2)
    assert man["total_seqs"] == len(exp)
    back = (read_token_shards(out, verify=True).to_pandas()
            .sort_values("seq_id").reset_index(drop=True))
    for a, b in zip(back["token_ids"], exp["token_ids"]):
        assert np.array_equal(np.asarray(a), np.asarray(b))


def test_empty_corpus(ray_session, tmp_path):
    out = str(tmp_path / "empty")
    man = write_token_shards(rd.from_pandas(_seqs(0)), out)
    assert man["shards"] == [] and man["total_tokens"] == 0
    back = read_token_shards(out).to_pandas()
    assert len(back) == 0  # Ray drops column metadata on fully-empty frames
