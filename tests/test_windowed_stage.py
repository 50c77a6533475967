"""The flagship's per-row layers over row-aligned byte windows
(``stages._per_worker.row_windows``): window edges change no output, rows
in the MB range keep exact stats, hashes and perplexities with bounded
temporaries, and the threaded stage equals one pass over the batch."""

from __future__ import annotations

import glob
import hashlib
import string
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from great_expectations_ray.corpus import corpus_batch
from great_expectations_ray.pipelines import quality_filter as qf
from great_expectations_ray.stages import _per_worker
from great_expectations_ray.stages import text_stats as ts
from great_expectations_ray.stages.perplexity import PerplexityScorer, train_char_lm
from tests.oracle_quality import oracle_perplexity, oracle_scrub

STATS = ("n_chars", "n_lines", "max_line_len", "alnum_ratio", "ws_ratio")


def _naive_stats(row: str) -> tuple:
    """The naive loop of ``test_r5_properties.test_text_stats_match_naive_loop``."""
    n_chars = len(row)
    alnum = sum(1 for c in row if c.isascii() and c.isalnum())
    ws = sum(1 for c in row if c in " \t\n\r\f\v")
    return (n_chars, row.count("\n") + 1,
            max((len(line) for line in row.split("\n")), default=0),
            alnum / max(n_chars, 1), ws / max(n_chars, 1))


def _check_stats(out: pa.Table, rows: list) -> None:
    for i, row in enumerate(rows):
        want = _naive_stats(row or "")
        got = tuple(out.column(c)[i].as_py() for c in STATS)
        assert got[:3] == want[:3], (repr(row), got, want)
        assert abs(got[3] - want[3]) < 1e-12 and abs(got[4] - want[4]) < 1e-12, repr(row)


def test_row_windows_cover_rows_in_order():
    with mock.patch.object(_per_worker, "WINDOW_BYTES", 10):
        assert _per_worker.row_windows(np.array([], np.int64)) == [(0, 0)]
        assert _per_worker.row_windows(np.array([3, 3, 3, 3, 0, 25, 0, 10, 1])) == [
            (0, 3), (3, 5), (5, 6), (6, 8), (8, 9)]


@settings(max_examples=120, deadline=None)
@given(
    rows=st.lists(st.one_of(st.none(), st.text(alphabet="ab1 \t\n\ré€😀", max_size=40)),
                  max_size=14),
    window=st.integers(7, 64),
    piece=st.sampled_from([3, 8, 21, ts._PACK_SAFE_BYTES]),
    large=st.booleans(),
)
def test_text_stats_match_naive_loop_across_windows(rows, window, piece, large):
    """All five stats equal the naive per-row loop when rows straddle and
    exceed windows of 7-64 bytes, with multibyte chars and '\\n' at window
    edges, empty and null rows; ``piece`` also cuts rows longer than it
    into packed pieces whose open line carries over."""
    arr = pa.array(rows, pa.large_string() if large else pa.string())
    with mock.patch.object(_per_worker, "WINDOW_BYTES", window), \
            mock.patch.object(ts, "_PACK_SAFE_BYTES", piece):
        out = ts.TextStats("content")(pa.table({"content": arr}))
        _check_stats(out, rows)
        if len(rows) > 2:  # a sliced array reads its offsets from its start
            _check_stats(ts.TextStats("content")(pa.table({"content": arr.slice(2)})),
                         rows[2:])


@pytest.fixture(scope="module")
def corpus():
    return corpus_batch(0, 3000)


@pytest.fixture(scope="module")
def model(corpus):
    texts = [c for c in corpus.column("content").to_pylist()[:400] if c]
    return train_char_lm(texts)


@settings(max_examples=25, deadline=None)
@given(window=st.integers(7, 64), start=st.integers(0, 2900))
def test_windowed_score_array_matches_oracle(corpus, model, window, start):
    """``score_array`` over 7-64 byte windows equals one window over the
    batch bit for bit, and the pure-Python oracle row by row (float32
    accumulation as in the stage)."""
    rows = corpus.column("content").to_pylist()[start:start + 40]
    rows += ["", None, "ab", "é", "x" * 70_000]
    arr = pa.array(rows)
    scorer = PerplexityScorer(model)
    whole = scorer.score_array(arr)
    with mock.patch.object(_per_worker, "WINDOW_BYTES", window):
        windowed = scorer.score_array(arr)
    assert np.array_equal(windowed, whole)
    want = [oracle_perplexity(model, r or "") for r in rows]
    np.testing.assert_allclose(windowed, want, rtol=1e-4)


def _stage(model, **kw):
    cfg = qf.QualityFilterConfig()
    return qf.FusedQualityStage(cfg.suite.resolved_expectations(), cfg.scrub_rules,
                                model_ref=model, key_list=list(cfg.rollup_keys), **kw)


def test_threaded_stage_equals_one_pass(corpus, model):
    """The stage's windows on the pool give the table one pass over the
    whole batch gives, for 1 MiB windows and for many small ones (the pool
    threads share one stage; a short switch interval interleaves them)."""
    stage = _stage(model)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for off in range(0, corpus.num_rows, 1024):
            batch = corpus.slice(off, 1024)
            with mock.patch.object(_per_worker, "WINDOW_BYTES", 1 << 40):
                one_pass = stage(batch)
            assert stage(batch).equals(one_pass)
            with mock.patch.object(_per_worker, "WINDOW_BYTES", 4096):
                assert stage(batch).equals(one_pass)
    finally:
        sys.setswitchinterval(interval)


# --------------------------------------------------------------------------- #
# rows in the MB range
# --------------------------------------------------------------------------- #

_UNIT = "def f(x):\n    return x + 1  # é ☃\n\tmail me: dev@example.com\n"


def _large_rows() -> list[str]:
    big = _UNIT * (16_800_000 // len(_UNIT.encode()))  # >= 16 MB of UTF-8
    # one line longer than a packed piece; words stay short, since the
    # Python ``re`` email pattern of the scrub oracle is quadratic in a run
    just_over = "ab, " * (ts._PACK_SAFE_BYTES // 4) + "\n" + "z = 1 é\n" * 2
    return [big, just_over, "short row\nAKIA0123456789ABCDEF\n", ""]


def _reference(rows: list[str], model) -> dict:
    """Per-row reference from Python str methods, hashlib, ``re`` and the
    pure-Python perplexity over the first 64 KiB."""
    alnum_chars = string.ascii_letters + string.digits
    stats = {k: [] for k in STATS}
    for r in rows:
        n = len(r)
        stats["n_chars"].append(n)
        stats["n_lines"].append(r.count("\n") + 1)
        stats["max_line_len"].append(max(len(line) for line in r.split("\n")))
        stats["alnum_ratio"].append(sum(r.count(c) for c in alnum_chars) / max(n, 1))
        stats["ws_ratio"].append(sum(r.count(c) for c in " \t\n\r\f\v") / max(n, 1))
    return {
        **stats,
        "perplexity": [oracle_perplexity(model, r) for r in rows],
        "content_sha256": [hashlib.sha256(r.encode()).hexdigest() for r in rows],
        "scrubbed_sha256": [hashlib.sha256(oracle_scrub(r).encode()).hexdigest()
                            for r in rows],
    }


def _check_large(out: pa.Table, ref: dict) -> None:
    for c in ("n_chars", "n_lines", "max_line_len", "content_sha256", "scrubbed_sha256"):
        assert out.column(c).to_pylist() == ref[c], c
    for c in ("alnum_ratio", "ws_ratio"):
        np.testing.assert_allclose(out.column(c).to_numpy(), ref[c], rtol=1e-12)
    np.testing.assert_allclose(out.column("perplexity").to_numpy(), ref["perplexity"],
                               rtol=1e-4)


@pytest.fixture(scope="module")
def large(model):
    rows = _large_rows()
    return rows, _reference(rows, model)


@pytest.mark.parametrize("typ", [pa.string(), pa.large_string()])
def test_large_rows_through_the_stage(large, model, typ):
    """A >= 16 MB row and one just over ``_PACK_SAFE_BYTES`` each go alone
    through the stage (with every stat) and keep exact per-row answers,
    with ``string`` and ``large_string`` offsets alike."""
    rows, ref = large
    stage = qf.FusedQualityStage(
        qf.default_quality_suite().resolved_expectations()
        + [qf.ExpectationConfiguration("expect_column_values_to_be_between",
                                       {"column": c, "min_value": 0})
           for c in ("n_chars", "n_lines", "ws_ratio")],
        qf.DEFAULT_SCRUB_RULES, model_ref=model, key_list=["repo"])
    n = len(rows)
    out = stage(pa.table({"repo": ["r"] * n, "content": pa.array(rows, typ)}))
    assert out.column("content").type == typ
    _check_large(out, ref)


def test_large_rows_through_write_mode(large, model, tmp_path):
    import ray.data as rd

    rows, ref = large
    lm = tmp_path / "lm.npy"
    np.save(lm, model)
    n = len(rows)
    src = pa.table({"repo": ["r"] * n, "path": [f"p{i}" for i in range(n)],
                    "commit": ["c"] * n, "lang": ["python"] * n, "content": rows})
    pq.write_table(src, tmp_path / "in.parquet")
    out = qf.run_quality_filter(rd.read_parquet(str(tmp_path / "in.parquet")),
                                qf.QualityFilterConfig(perplexity_model_path=str(lm)),
                                output_dir=str(tmp_path / "out"))
    assert sum(r["row_count"] for r in out["rollup"]) == n
    lineage = pa.concat_tables(
        pq.read_table(f) for f in glob.glob(str(tmp_path / "out/lineage/*.parquet")))
    lineage = lineage.sort_by("path")
    for c in ("content_sha256", "scrubbed_sha256"):
        assert lineage.column(c).to_pylist() == ref[c], c



def test_large_rows_through_exact_dedup(large, model, tmp_path):
    """The exact-dedup write path over the same rows, kept by a suite that
    drops none: each data fragment holds the scrubbed rows, still
    ``large_string`` after the fragment's ``(lang, repo)`` sort reorders
    them, and lineage holds the reference digests."""
    import ray.data as rd

    rows, ref = large
    lm = tmp_path / "lm.npy"
    np.save(lm, model)
    n = len(rows)
    # repo names in reverse row order, so the sort moves every row
    src = pa.table({"repo": [f"r{n - i}" for i in range(n)],
                    "path": [f"p{i}" for i in range(n)],
                    "commit": ["c"] * n, "lang": ["python"] * n,
                    "content": pa.array(rows, pa.large_string())})
    pq.write_table(src, tmp_path / "in.parquet")
    suite = qf.ExpectationSuite("keep_all").add(
        "expect_column_values_to_not_be_null", column="content")
    out = qf.run_quality_filter(
        rd.read_parquet(str(tmp_path / "in.parquet")),
        qf.QualityFilterConfig(suite=suite, dedup="exact",
                               perplexity_model_path=str(lm)),
        output_dir=str(tmp_path / "out"))
    assert out["dedup"] == {"kept_before": n, "kept_after": n, "duplicates_removed": 0}
    frags = [pq.read_table(f) for f in glob.glob(str(tmp_path / "out/data/*.parquet"))]
    for frag in frags:
        assert frag.schema.field("content").type == pa.large_string()
        repos = frag.column("repo").to_pylist()
        assert repos == sorted(repos)
    data = pa.concat_tables(frags).sort_by("path")
    assert data.column("path").to_pylist() == src.column("path").to_pylist()
    assert [hashlib.sha256(c.encode()).hexdigest()
            for c in data.column("content").to_pylist()] == ref["scrubbed_sha256"]
    lineage = pa.concat_tables(
        pq.read_table(f) for f in glob.glob(str(tmp_path / "out/lineage/*.parquet")))
    lineage = lineage.sort_by("path")
    for c in ("content_sha256", "scrubbed_sha256"):
        assert lineage.column(c).to_pylist() == ref[c], c


def test_text_stats_temporaries_are_bounded_by_the_window(large):
    """Peak numpy temporaries of one ``TextStats`` call stay a small
    multiple of the window (or of one long row's packed piece), not of the
    batch: 7.5 MiB of 1 KiB rows peak like one 1 MiB window."""
    rows, _ = large
    stage = ts.TextStats()
    row = ("def g():\n    pass  # " + "x" * 60 + "\n") * 12
    short = pa.table({"content": pa.array([row] * 8000)})
    long = pa.table({"content": pa.array(rows[:1])})
    for tbl, unit in ((short, _per_worker.WINDOW_BYTES), (long, ts._PACK_SAFE_BYTES)):
        assert tbl.column("content").nbytes > 7 * unit
        tracemalloc.start()
        try:
            stage(tbl)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # per byte of a window: 8 B of packed prefix sum, 8 B of gather
        # index, 1 B of '\n' mask (16.3-16.4x measured); per row: a few
        # int64 outputs.  One pass over the batch would peak past 120x.
        assert peak < 20 * unit + 256 * tbl.num_rows, (peak, unit)
