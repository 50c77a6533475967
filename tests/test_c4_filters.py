from __future__ import annotations

import pyarrow as pa

from great_expectations_ray.stages.c4_filters import C4Config, clean_batch


def _tbl(texts):
    return pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })


def test_c4_defaults_line_and_doc_rules():
    doc_good = "\n".join([
        "This is a perfectly fine sentence one.",
        "Here is another reasonable sentence two!",
        'A third quoted line ends well."',
        "too short.",                         # < 5 words -> dropped
        "no terminal punctuation here at all",  # no punct -> dropped
        "Please enable JavaScript to continue browsing.",  # boilerplate
    ])
    doc_short = "Only one good sentence lives here."
    doc_code = "int main() { return 0; }\nAnother line of code follows here.\nAnd one more padding sentence here.\nYet another filler sentence goes here."
    out = clean_batch(_tbl([doc_good, doc_short, doc_code]))
    assert out.column("n_lines_kept").to_pylist() == [3, 1, 3]
    assert out.column("keep").to_pylist() == [True, False, False]  # code: '{' ban
    clean = out.column("clean_text")[0].as_py()
    assert clean.count("\n") == 2 and "JavaScript" not in clean and "too short" not in clean


def test_c4_bad_words_and_lorem():
    cfg = C4Config(min_lines=1, bad_words=("badword",))
    texts = [
        "A clean and wholesome sentence right here.",
        "This document contains badword somewhere in it okay.",
        "Generic filler text lorem ipsum dolor sit amet.",
        "BADWORD appears uppercase in this one too yes.",
    ]
    out = clean_batch(_tbl(texts), config=cfg)
    assert out.column("keep").to_pylist() == [True, False, False, False]


def test_c4_trim_and_null_and_empty():
    cfg = C4Config(min_words_per_line=2, require_terminal_punct=False,
                   boilerplate_regex=None, min_lines=1, ban_regex=None)
    out = clean_batch(_tbl(["  two words  \n one", None, ""]), config=cfg)
    assert out.column("clean_text").to_pylist() == ["two words", "", ""]
    assert out.column("keep").to_pylist() == [True, False, False]

