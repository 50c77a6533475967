"""Luhn card scrubbing (stages/luhn.py) and large-dictionary phrase
tagging (stages/dictmatch.py)."""

import numpy as np
import pyarrow as pa
import pytest
import ray

from great_expectations_ray.stages.dictmatch import (
    MAX_N,
    DEFAULT_PHRASES,
    PhraseDict,
    match_counts,
    tag_phrases,
)
from great_expectations_ray.stages.luhn import (
    CardScrubber,
    luhn_valid,
)

# --------------------------------------------------------------------------- #
# Luhn
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("digits,ok", [
    ("4539148803436467", True),    # Visa test number
    ("4539148803436468", False),   # last digit off by one
    ("30569309025904", True),      # Diners (14 digits)
    ("5500000000000004", True),    # Mastercard test
    ("378282246310005", True),     # Amex (15 digits)
    ("1234567890123", False),
    ("123456789012", False),       # 12 digits: below length gate
    ("12345678901234567890", False),  # 20 digits: above length gate
])
def test_luhn_valid(digits, ok):
    assert luhn_valid(digits) is ok


def test_card_scrubber_counts_and_rewrite():
    t = pa.table({"content": [
        "pay 4539 1488 0343 6467 now",          # valid, spaced
        "fake 4539148803436468 card",            # candidate, invalid
        "dash 4539-1488-0343-6467 style",        # valid, dashed
        "clean text with no numbers",
        "run 12345678901234567890 ignored",      # 20 digits: not a candidate
        "two 4539148803436467 and 378282246310005",  # both valid
        None,
    ]})
    out = CardScrubber()(t)
    assert out.column("cc_candidates").to_pylist() == [1, 1, 1, 0, 0, 2, 0]
    assert out.column("cc_valid").to_pylist() == [1, 0, 1, 0, 0, 2, 0]
    content = out.column("content").to_pylist()
    assert content[0] == "pay <CC> now"
    # invalid candidates stay untouched
    assert content[1] == "fake 4539148803436468 card"
    assert content[2] == "dash <CC> style"
    assert content[4] == "run 12345678901234567890 ignored"
    assert content[5] == "two <CC> and <CC>"


def test_card_scrubber_detect_only_keeps_content():
    t = pa.table({"content": ["pay 4539148803436467 now"]})
    out = CardScrubber(rewrite=False)(t)
    assert out.column("content").to_pylist() == ["pay 4539148803436467 now"]
    assert out.column("cc_valid").to_pylist() == [1]


def test_card_scrubber_sliced_batch():
    """Regression: counts come off a read-only Arrow buffer view."""
    base = pa.table({"content": ["x"] * 3 + ["pay 4539148803436467 now"] * 2})
    out = CardScrubber()(base.slice(2))
    assert out.column("cc_valid").to_pylist() == [0, 1, 1]


def test_scrub_cards_dataset():
    ds = ray.data.from_items(
        [{"doc_id": i,
          "content": f"doc {'4539 1488 0343 6467' if i % 3 == 0 else 'clean'} tail"}
         for i in range(30)]).repartition(4)
    out = ds.map_batches(CardScrubber(), batch_format="pyarrow", zero_copy_batch=True)
    out = out.to_pandas().sort_values("doc_id")
    assert (out["cc_valid"] == (out["doc_id"] % 3 == 0).astype(int)).all()
    masked = out[out.doc_id % 3 == 0]["content"]
    assert (masked == "doc <CC> tail").all()


# --------------------------------------------------------------------------- #
# dictionary phrase tagging
# --------------------------------------------------------------------------- #


def test_phrase_dict_rejects_oversize():
    with pytest.raises(ValueError):
        PhraseDict((" ".join(["tok"] * (MAX_N + 1)),))


def test_match_counts_basic():
    pd_ = PhraseDict(DEFAULT_PHRASES)
    col = pa.array([
        "The quick table scan; spark and key order sort!",  # scan+spark+kos+os
        "hash  JOIN hash join dup",                          # 2x hash join + dup
        "tablescan is one token",                            # no match
        "",
        None,
    ])
    assert match_counts(col, pd_).tolist() == [4, 3, 0, 0, 0]


def test_match_counts_no_cross_doc_adjacency():
    """The last token of doc i and the first of doc i+1 never form a gram."""
    pd_ = PhraseDict(("table scan",))
    col = pa.array(["ends with table", "scan starts here"])
    assert match_counts(col, pd_).tolist() == [0, 0]


def test_match_counts_exact_no_hash_collisions():
    """Vocabulary-member tokens in a non-dictionary order do not match."""
    pd_ = PhraseDict(("table scan", "hash join"))
    col = pa.array(["scan table join hash table hash scan join"])
    assert match_counts(col, pd_).tolist() == [0]


def test_tag_phrases_dataset_broadcast():
    ds = ray.data.from_items(
        [{"doc_id": i, "content": "table scan wins" if i % 2 else "nope"}
         for i in range(40)]).repartition(4)
    out = tag_phrases(ds, ("table scan",)).to_pandas().sort_values("doc_id")
    assert (out["dict_hits"] == (out["doc_id"] % 2).astype(int)).all()
    assert (out["dict_flag"] == (out["doc_id"] % 2 == 1)).all()


def test_card_scrubber_preserves_nulls_regardless_of_batching():
    """Regression: a null row in a batch containing a card candidate must
    stay null (nulls were destroyed batch-dependently)."""
    t = pa.table({"content": [None, "pay 4539148803436467 now", None]})
    out = CardScrubber()(t)
    assert out.column("content").to_pylist() == [None, "pay <CC> now", None]
    assert out.column("cc_valid").to_pylist() == [0, 1, 0]
    # detect-only path too
    out2 = CardScrubber(rewrite=False)(t)
    assert out2.column("content").to_pylist() == t.column("content").to_pylist()


def test_phrase_dict_normalizes_punctuated_phrases():
    """Regression: 'hash-join' must tokenize like documents do (bigram
    'hash join'), not enter the vocab verbatim and never match."""
    pd_ = PhraseDict(("hash-join",))
    assert match_counts(pa.array(["uses hash-join here",
                                  "hash join spelled out",
                                  "hashjoin fused"]), pd_).tolist() == [1, 1, 0]
