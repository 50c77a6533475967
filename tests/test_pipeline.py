"""Flagship quality-filter pipeline: keep/drop F1 and sha256-exact scrub
parity vs the independent pandas oracle (the north-rule invariants)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from great_expectations_ray.corpus import corpus_batch, corpus_dataset
from great_expectations_ray.pipelines.quality_filter import (
    QualityFilterConfig,
    run_quality_filter,
)
from tests.oracle_quality import run_oracle

N_ROWS = 1500


@pytest.fixture(scope="module")
def pipeline_out():
    ds = corpus_dataset(N_ROWS, blocks=6)
    cfg = QualityFilterConfig()
    out = run_quality_filter(ds, cfg)
    scored = out["scored"].to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
    return out, scored, cfg


@pytest.fixture(scope="module")
def oracle_out(pipeline_out):
    from great_expectations_ray.stages.perplexity import build_reference_model

    _, scored, cfg = pipeline_out
    ds = corpus_dataset(N_ROWS, blocks=6)
    model = build_reference_model(
        ds.select_columns(["content"]), sample_rows=cfg.perplexity_sample_rows
    )
    df = corpus_batch(0, N_ROWS).to_pandas()
    return run_oracle(df, model).sort_values(["repo", "path"]).reset_index(drop=True)


def test_keep_drop_f1(pipeline_out, oracle_out):
    _, scored, _ = pipeline_out
    merged = scored.merge(oracle_out, on=["repo", "path", "commit"], validate="1:1")
    assert len(merged) == N_ROWS
    tp = int((merged.keep & merged.keep_expected).sum())
    fp = int((merged.keep & ~merged.keep_expected).sum())
    fn = int((~merged.keep & merged.keep_expected).sum())
    f1 = 2 * tp / (2 * tp + fp + fn)
    assert f1 >= 0.99, f"keep/drop F1 {f1} (fp={fp}, fn={fn})"
    # drops exist in the corpus by construction — parity must not be vacuous
    assert (~merged.keep_expected).sum() > 10


def test_scrub_sha256_exact(pipeline_out, oracle_out):
    _, scored, _ = pipeline_out
    merged = scored.merge(oracle_out, on=["repo", "path", "commit"], validate="1:1")
    mismatch = merged[merged.scrubbed_sha256 != merged.scrubbed_sha256_expected]
    assert len(mismatch) == 0, mismatch[["repo", "path"]].head()
    # scrubbing must actually fire on the corpus's injected PII
    assert scored.scrub_hit.sum() > 100


def test_rollup_consistency(pipeline_out):
    out, scored, _ = pipeline_out
    roll = pd.DataFrame([
        {k: r[k] for k in ("repo", "lang", "row_count", "keep_count", "drop_count")}
        for r in out["rollup"]
    ])
    assert roll.row_count.sum() == N_ROWS
    assert roll.keep_count.sum() == int(scored.keep.sum())
    assert (roll.row_count == roll.keep_count + roll.drop_count).all()
    # per-group counts match a pandas groupby of the scored output
    g = scored.groupby(["repo", "lang"]).agg(
        row_count=("keep", "size"), keep_count=("keep", "sum")
    ).reset_index()
    m = roll.merge(g, on=["repo", "lang"], suffixes=("", "_pd"))
    assert (m.row_count == m.row_count_pd).all()
    assert (m.keep_count == m.keep_count_pd).all()


def test_rollup_statistics_shape(pipeline_out):
    out, _, cfg = pipeline_out
    r0 = out["rollup"][0]
    st = r0["statistics"]
    n_rules = len(cfg.suite.expectations)
    assert st["evaluated_expectations"] == n_rules
    assert len(r0["results"]) == n_rules
    assert st["successful_expectations"] + st["unsuccessful_expectations"] == n_rules


def test_langid_accuracy(pipeline_out):
    _, scored, _ = pipeline_out
    code = scored[scored.lang.isin(["python", "javascript", "java", "go", "rust"])]
    # corpus intentionally mislabels dup-group rows (python content under a
    # foreign lang label) — langid must CORRECT those, so measure against the
    # true content language, not the label
    is_mislabeled_dup = code.content.str.endswith("# canonical\n") & (
        code.lang != "python"
    )
    clean = code[~is_mislabeled_dup]
    acc = (clean.lang == clean.lang_pred).mean()
    assert acc >= 0.95, f"langid accuracy {acc}"
    # and the mislabeled rows should be re-scored as python
    mis = code[is_mislabeled_dup]
    if len(mis):
        assert (mis.lang_pred == "python").mean() >= 0.9


def test_corpus_determinism():
    a = corpus_batch(100, 200)
    b = corpus_batch(100, 200)
    assert a.equals(b)
    # distributed generation matches serial generation
    ds = corpus_dataset(300, blocks=5).to_pandas().sort_values("path").reset_index(drop=True)
    ser = corpus_batch(0, 300).to_pandas().sort_values("path").reset_index(drop=True)
    pd.testing.assert_frame_equal(ds, ser)


def test_corpus_skew_shape():
    df = corpus_batch(0, 2000).to_pandas()
    share = (df.repo == "repo_0").mean()
    assert 0.25 <= share <= 0.35  # mega-repo skew for the skew tests


def test_quality_filter_with_exact_dedup(tmp_path):
    """Flagship write-mode with the global dedup stage: duplicate scrubbed
    content keeps exactly one row (min path), lineage still covers all rows."""
    import glob

    import pyarrow.parquet as pq

    cfg = QualityFilterConfig(dedup="exact",
                              use_langid=False, use_perplexity=False)
    out = run_quality_filter(corpus_dataset(800, blocks=4), cfg,
                             output_dir=str(tmp_path))
    lin = pd.concat([pd.read_parquet(f) for f in glob.glob(str(tmp_path) + "/lineage/*.parquet")])
    assert len(lin) == 800
    data = pd.concat([pd.read_parquet(f) for f in glob.glob(str(tmp_path) + "/data/*.parquet")])
    # one row per distinct scrubbed hash among kept rows
    kept_hashes = lin[lin.keep].scrubbed_sha256
    assert len(data) == kept_hashes.nunique()
    assert out["dedup"]["kept_before"] == int(lin.keep.sum())
    assert out["dedup"]["kept_after"] == len(data)
    assert out["dedup"]["duplicates_removed"] > 10  # corpus dup groups exist
    # keep-first by min path within each duplicate group
    expected_keep = lin[lin.keep].sort_values("path").drop_duplicates(
        subset=["scrubbed_sha256"], keep="first"
    )
    assert sorted(data.path) == sorted(expected_keep.path)



#: the score columns the default config's stage computes (TextStats only
#: computes the stats its suite judges)
SCORE_COLS = ["max_line_len", "alnum_ratio", "lang_pred", "langid_score", "perplexity"]


@pytest.mark.parametrize("dedup", [None, "exact"])
def test_output_writes_each_fact_once(tmp_path, dedup):
    """``data/`` holds the input's columns and the scores; ``lineage/``
    holds ``LINEAGE_COLS``; the row keys are the only columns in both, so
    no digest, keep flag or rule bitmap is written twice."""
    import glob

    import pyarrow.parquet as pq

    from great_expectations_ray.pipelines.quality_filter import LINEAGE_COLS

    out = run_quality_filter(corpus_dataset(400, blocks=2), QualityFilterConfig(dedup=dedup),
                             output_dir=str(tmp_path))
    schemas = {}
    for sub in ("data", "lineage"):
        files = glob.glob(f"{tmp_path}/{sub}/*.parquet")
        assert files, sub
        names = {tuple(pq.read_schema(f).names) for f in files}
        assert len(names) == 1, names
        schemas[sub] = list(names.pop())
    assert schemas["data"] == corpus_batch(0, 1).column_names + SCORE_COLS
    assert schemas["lineage"] == LINEAGE_COLS
    assert set(schemas["data"]) & set(schemas["lineage"]) == {"repo", "path", "commit", "lang"}
    kept = sum(r["keep_count"] for r in out["rollup"])
    data_rows = sum(pq.read_metadata(f).num_rows
                    for f in glob.glob(f"{tmp_path}/data/*.parquet"))
    assert data_rows == (kept if dedup is None else out["dedup"]["kept_after"])


def test_sink_is_idempotent_and_sorts_data_stably(tmp_path):
    """``SinkStage`` called twice on one batch writes the same fragment
    name with identical bytes.  Its data fragment holds the kept rows
    stably sorted by ``(lang, repo)``; its lineage fragment holds every row
    in batch order."""
    import pyarrow.parquet as pq

    from great_expectations_ray.pipelines.quality_filter import FusedQualityStage, SinkStage

    cfg = QualityFilterConfig(use_perplexity=False)
    rules = [c for c in cfg.suite.resolved_expectations()
             if c.kwargs.get("column") != "perplexity"]
    keys = list(cfg.rollup_keys)
    scored = FusedQualityStage(rules, cfg.scrub_rules, key_list=keys)(corpus_batch(0, 600))

    def written(out_dir):
        return {f"{sub}/{f.name}": f.read_bytes()
                for sub in ("data", "lineage") for f in (out_dir / sub).iterdir()}

    sink = SinkStage(str(tmp_path / "a/data"), str(tmp_path / "a/lineage"), keys, len(rules))
    sink(scored)
    first = written(tmp_path / "a")
    sink(scored)
    SinkStage(str(tmp_path / "b/data"), str(tmp_path / "b/lineage"), keys, len(rules))(scored)
    assert len(first) == 2
    assert written(tmp_path / "a") == first == written(tmp_path / "b")

    kept = scored.filter(scored.column("keep")).to_pydict()
    order = sorted(range(len(kept["path"])), key=lambda i: (kept["lang"][i], kept["repo"][i]))
    want = [kept["path"][i] for i in order]
    assert want != kept["path"]  # the sort moves rows: not vacuous
    data_file, lineage_file = sorted(first)
    assert pq.read_table(tmp_path / "a" / data_file).column("path").to_pylist() == want
    assert (pq.read_table(tmp_path / "a" / lineage_file).column("path").to_pylist()
            == scored.column("path").to_pylist())


def test_missing_rollup_key_fails_fast():
    """The input schema check covers the configured rollup keys: on an
    input whose schema Ray knows, a missing custom key raises on the driver
    before any Ray task runs and names the key."""
    import ray.data as rd

    from tests.test_unique_keys import _logged

    cfg = QualityFilterConfig(rollup_keys=("repo", "team"),
                              use_langid=False, use_perplexity=False)
    with _logged() as (plans, _):
        with pytest.raises(ValueError, match=r"missing column\(s\) \['team'\]"):
            run_quality_filter(rd.from_arrow(corpus_batch(0, 200)), cfg)
    assert plans == []


def test_missing_rollup_key_fails_on_a_derived_input():
    """A derived input's schema is not fetched by running it: the fused
    stage checks its first batch, and its error reaches the caller as the
    same plain ``ValueError`` naming the missing key, in the one execution
    over the input."""
    from tests.test_unique_keys import _logged

    cfg = QualityFilterConfig(rollup_keys=("repo", "team"),
                              use_langid=False, use_perplexity=False)
    with _logged() as (plans, _):
        with pytest.raises(ValueError, match=r"missing column\(s\) \['team'\]") as err:
            run_quality_filter(corpus_dataset(200, blocks=2), cfg)
    assert type(err.value) is ValueError
    assert len(plans) == 1 and "LimitOperator" not in plans[0], plans


@pytest.mark.parametrize("write", [False, True])
def test_derived_input_runs_once(tmp_path, write):
    """A ``map_batches``-derived input (with a cached LM) is run by one
    logged execution, and no execution is a ``LimitOperator`` schema probe
    (the in-memory mode's rollup then reads the materialized scores)."""
    from great_expectations_ray.stages.perplexity import train_char_lm
    from tests.test_unique_keys import _logged

    lm = tmp_path / "lm.npy"
    np.save(lm, train_char_lm(corpus_batch(0, 100).column("content").to_pylist()))
    cfg = QualityFilterConfig(perplexity_model_path=str(lm))
    kwargs = {"output_dir": str(tmp_path / "out")} if write else {}
    with _logged() as (plans, _):
        out = run_quality_filter(corpus_dataset(300, blocks=3), cfg, **kwargs)
    assert sum(r["row_count"] for r in out["rollup"]) == 300
    assert len([p for p in plans if "ReadRange" in p]) == 1, plans
    assert not any("LimitOperator" in p for p in plans), plans


def test_input_without_lang_runs_when_not_a_rollup_key(tmp_path):
    """``lang`` is only required as a rollup key: with ``rollup_keys=("repo",)``
    an input without it runs in both the in-memory and the write mode."""
    import glob

    ds = corpus_dataset(200, blocks=2).drop_columns(["lang"])
    cfg = QualityFilterConfig(rollup_keys=("repo",),
                              use_perplexity=False)
    out = run_quality_filter(ds, cfg)
    assert sum(r["row_count"] for r in out["rollup"]) == 200
    assert all("lang" not in r for r in out["rollup"])

    out = run_quality_filter(ds, cfg, output_dir=str(tmp_path))
    assert sum(r["row_count"] for r in out["rollup"]) == 200
    lin = pd.concat(pd.read_parquet(f)
                    for f in glob.glob(str(tmp_path) + "/lineage/*.parquet"))
    assert len(lin) == 200 and "lang" not in lin.columns
