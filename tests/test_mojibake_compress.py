"""Mojibake repair (stages/normalize.py fix_mojibake) and compression-ratio
signal (stages/compressratio.py)."""

import pyarrow as pa
import ray

from great_expectations_ray.stages.compressratio import CompressionScorer
from great_expectations_ray.stages.normalize import (
    fix_mojibake,
    fix_mojibake_array,
)

# --------------------------------------------------------------------------- #
# mojibake repair
# --------------------------------------------------------------------------- #


def test_mojibake_repair_cp1252_flavor():
    moj = "cafÃ© naÃ¯ve"  # UTF-8 through cp1252
    out = fix_mojibake_array(pa.array([moj]))
    assert out.to_pylist() == ["café naïve"]


def test_mojibake_repair_latin1_flavor():
    # curly apostrophe shown through latin-1 (raw C1 controls kept by the
    # viewer): strict cp1252 encode fails, the sloppy path repairs it
    moj = "itâs"
    out = fix_mojibake_array(pa.array([moj]))
    assert out.to_pylist() == ["it’s"]


def test_mojibake_guard_keeps_genuine_accents():
    vals = ["plain café ok", "naïve résumé",
            "ascii only", None, ""]
    out = fix_mojibake_array(pa.array(vals))
    assert out.to_pylist() == vals


def test_mojibake_non_single_byte_chars_pass_through():
    vals = ["中文 text", "emoji \U0001f600"]
    out = fix_mojibake_array(pa.array(vals))
    assert out.to_pylist() == vals


def test_mojibake_repair_greek_cyrillic_leads():
    # Greek / Cyrillic UTF-8 lead bytes CE CF D0 D1 show as Î Ï Ð Ñ
    vals = ["ÐŸÑ€Ð¸Ð²ÐµÑ‚", "Î±Î²Î³", "ß—"]
    out = fix_mojibake_array(pa.array(vals))
    assert out.to_pylist() == ["Привет", "αβγ", "ß—"]


def test_fix_mojibake_dataset():
    ds = ray.data.from_items([
        {"doc_id": 0, "text": "hello cafÃ©"},
        {"doc_id": 1, "text": "clean"},
    ])
    out = (fix_mojibake(ds, text_col="text", id_col="doc_id")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out["fixed_text"].tolist() == ["hello café", "clean"]
    assert out["changed"].tolist() == [True, False]


# --------------------------------------------------------------------------- #
# compression-ratio signal
# --------------------------------------------------------------------------- #


def test_compression_scorer_matches_stdlib():
    import zlib

    vals = ["abc " * 200, "the quick brown fox", "", None,
            "zzzzzzzzzzzzzzzzzzzzzz"]
    out = CompressionScorer("text")(pa.table({"text": vals}))
    for v, raw, comp, ratio in zip(vals, out.column("raw_len").to_pylist(),
                                   out.column("comp_len").to_pylist(),
                                   out.column("comp_ratio").to_pylist()):
        b = (v or "").encode()
        assert raw == len(b)
        assert comp == len(zlib.compress(b, 6))
        assert ratio == (len(zlib.compress(b, 6)) / len(b) if b else 0.0)
    # repetitive text compresses far better than prose
    ratios = out.column("comp_ratio").to_pylist()
    assert ratios[0] < 0.1 < ratios[1]


def test_compression_scorer_sliced_batch():
    t = pa.table({"text": ["pad"] * 3 + ["abc " * 50, "xyz"]})
    full = CompressionScorer("text")(t)
    part = CompressionScorer("text")(t.slice(3))
    assert (part.column("comp_len").to_pylist()
            == full.column("comp_len").to_pylist()[3:])
