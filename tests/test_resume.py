"""F4 fixture: partition-level checkpoint/resume (BASELINE.md resumability)."""

from __future__ import annotations

import glob
import os

import pandas as pd
import pytest

from great_expectations_ray.corpus import corpus_dataset
from great_expectations_ray.pipelines.checkpoint import run_checkpoint
from great_expectations_ray.pipelines.quality_filter import QualityFilterConfig


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus_in")
    corpus_dataset(800, blocks=8).write_parquet(str(d))
    return str(d)


def _cfg():
    return QualityFilterConfig(use_langid=False, use_perplexity=False)


def _read_lineage(root: str) -> pd.DataFrame:
    files = glob.glob(os.path.join(root, "partitions", "*", "lineage", "*.parquet"))
    df = pd.concat([pd.read_parquet(f) for f in files])
    return df.sort_values(["repo", "path", "commit"]).reset_index(drop=True)


def test_checkpoint_run_and_resume(corpus_files, tmp_path):
    out_root = str(tmp_path / "out")
    r1 = run_checkpoint(corpus_files + "/*.parquet", out_root, config=_cfg(), n_partitions=4)
    assert len(r1.partitions_run) == 4 and not r1.partitions_skipped
    counts1 = r1.combined_counts()
    assert counts1["row_count"] == 800
    lineage1 = _read_lineage(out_root)
    assert len(lineage1) == 800

    # rerun: everything skipped, same combined result from manifests
    r2 = run_checkpoint(corpus_files + "/*.parquet", out_root, config=_cfg(), n_partitions=4)
    assert len(r2.partitions_skipped) == 4 and not r2.partitions_run
    assert r2.combined_counts() == counts1

    # invalidate one partition -> only that one reruns; global output identical
    os.remove(os.path.join(out_root, "manifests", "p0001.json"))
    import shutil

    shutil.rmtree(os.path.join(out_root, "partitions", "p0001"))
    r3 = run_checkpoint(corpus_files + "/*.parquet", out_root, config=_cfg(), n_partitions=4)
    assert r3.partitions_run == ["p0001"]
    assert sorted(r3.partitions_skipped) == ["p0000", "p0002", "p0003"]
    lineage3 = _read_lineage(out_root)
    pd.testing.assert_frame_equal(lineage1, lineage3)


def test_manifest_fingerprint_guard(corpus_files, tmp_path):
    from great_expectations_ray.state.manifest import (
        input_fingerprint,
        is_partition_complete,
        write_manifest,
    )

    root = str(tmp_path)
    files = sorted(glob.glob(corpus_files + "/*.parquet"))[:2]
    fp = input_fingerprint(files)
    assert not is_partition_complete(root, "pX", fp)
    write_manifest(root, "pX", {"status": "complete", "input_fingerprint": fp})
    assert is_partition_complete(root, "pX", fp)
    # changed inputs -> stale manifest is NOT trusted
    assert not is_partition_complete(root, "pX", input_fingerprint(files[:1]))


def test_checkpoint_actions(corpus_files, tmp_path):
    seen = []
    run_checkpoint(
        corpus_files + "/*.parquet", str(tmp_path / "o2"), config=_cfg(),
        n_partitions=2, actions=[lambda res: seen.append(res.combined_counts())],
    )
    assert seen and seen[0]["row_count"] == 800


def test_checkpoint_stores_validation_results(corpus_files, tmp_path):
    from great_expectations_ray.state.stores import ValidationResultsStore

    out_root = str(tmp_path / "sr")
    res = run_checkpoint(corpus_files + "/*.parquet", out_root, config=_cfg(),
                         n_partitions=2)
    store = ValidationResultsStore(out_root)
    keys = store.list_keys()
    assert len(keys) == 2  # one stored result per freshly-run partition
    # resumed run stores nothing new
    res2 = run_checkpoint(corpus_files + "/*.parquet", out_root, config=_cfg(),
                          n_partitions=2)
    assert len(store.list_keys()) == 2
    assert res2.partitions_run == []
