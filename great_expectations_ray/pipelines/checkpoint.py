"""Checkpoint runner — the production entry point (EP1 analog, SURVEY §3).

``Checkpoint.run`` in the reference orchestrates (batch definition × suite)
-> validate -> store -> actions (``checkpoint/checkpoint.py:274-304``).  Our
Ray recast: partition the input file list into groups, run the quality-filter
pipeline per group with per-partition output directories + atomic manifests,
skip already-complete partitions on restart, and fire action callbacks with
the combined result.

Scale notes: each partition is one streaming Ray Data job over its file
group; partition size should be chosen so one partition's work is minutes,
not hours (restart granularity), e.g. ~1-10 GB of parquet per partition at
cluster scale.
"""

from __future__ import annotations

import glob
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from great_expectations_ray.pipelines.quality_filter import (
    QualityFilterConfig,
    run_quality_filter,
)
from great_expectations_ray.state.manifest import (
    RunIdentifier,
    input_fingerprint,
    is_partition_complete,
    write_manifest,
)


@dataclass
class CheckpointResult:
    run_id: RunIdentifier
    partitions_run: list[str]
    partitions_skipped: list[str]
    rollups: dict[str, list[dict[str, Any]]]  # partition_id -> rollup report

    @property
    def success(self) -> bool:
        """True iff every (repo, lang) rollup group in every partition passed
        its suite (reference: ``CheckpointResult.success`` is
        ``all(r.success)`` over run results, ``checkpoint/checkpoint.py:423``).
        Skipped (resumed) partitions count: their rollups are reloaded from
        the manifest, so a resumed run reports the same verdict as a fresh
        one.  An empty run (no partitions) is vacuously successful, matching
        the reference's ``all([])``."""
        return all(
            grp["statistics"]["success"]
            for rep in self.rollups.values()
            for grp in rep
        )

    def combined_counts(self) -> dict[str, int]:
        rows = kept = 0
        for rep in self.rollups.values():
            for r in rep:
                rows += r["row_count"]
                kept += r["keep_count"]
        return {"row_count": rows, "keep_count": kept, "drop_count": rows - kept}


def partition_files(files: list[str], n_partitions: int) -> dict[str, list[str]]:
    """Deterministic round-robin grouping of sorted input files."""
    files = sorted(files)
    out: dict[str, list[str]] = {}
    for i, f in enumerate(files):
        out.setdefault(f"p{i % n_partitions:04d}", []).append(f)
    return dict(sorted(out.items()))


def run_checkpoint(
    input_glob: str,
    output_root: str,
    *,
    config: Optional[QualityFilterConfig] = None,
    n_partitions: int = 8,
    run_name: str = "quality_filter",
    actions: Optional[list[Callable[[CheckpointResult], None]]] = None,
    store_results: bool = True,
) -> CheckpointResult:
    """Run (or resume) the quality-filter checkpoint over all files matching
    ``input_glob``.  Partitions with a complete, fingerprint-matching
    manifest are skipped; everything else (re)runs."""
    import ray.data as rd

    config = config or QualityFilterConfig()
    files = glob.glob(input_glob)
    if not files:
        raise FileNotFoundError(f"no input files match {input_glob}")
    parts = partition_files(files, n_partitions)
    run_id = RunIdentifier(run_name)

    ran: list[str] = []
    skipped: list[str] = []
    rollups: dict[str, list[dict[str, Any]]] = {}

    for pid, group in parts.items():
        fp = input_fingerprint(group)
        if is_partition_complete(output_root, pid, fp):
            skipped.append(pid)
            from great_expectations_ray.state.manifest import load_manifest

            m = load_manifest(output_root, pid)
            rollups[pid] = m.get("rollup", [])
            continue

        part_dir = os.path.join(output_root, "partitions", pid)
        t0 = time.time()
        ds = rd.read_parquet(group)
        out = run_quality_filter(ds, config, output_dir=part_dir)
        report = out["rollup"]
        rollups[pid] = report
        rows = sum(r["row_count"] for r in report)
        kept = sum(r["keep_count"] for r in report)
        write_manifest(output_root, pid, {
            "partition_id": pid,
            "status": "complete",
            "input_files": [os.path.basename(f) for f in group],
            "input_fingerprint": fp,
            "row_count": rows,
            "keep_count": kept,
            "drop_count": rows - kept,
            "elapsed_sec": round(time.time() - t0, 3),
            "run": run_id.to_json_dict(),
            "suite_name": config.suite.name,
            "rollup": report,
        })
        ran.append(pid)

    result = CheckpointResult(run_id, ran, skipped, rollups)
    if store_results:
        # EP1 chain: validate -> STORE -> actions (validation_definition.py:
        # 306-317) — each freshly-run partition's rollup lands in the
        # ValidationResultsStore keyed by (suite, run, partition)
        from great_expectations_ray.state.stores import ValidationResultsStore

        store = ValidationResultsStore(output_root)
        for pid in ran:
            store.save(
                {
                    "suite_name": config.suite.name,
                    "success": all(
                        grp["statistics"]["success"] for grp in rollups[pid]
                    ),
                    "rollup": rollups[pid],
                },
                run_name=run_id.run_name,
                run_time=run_id.run_time,
                batch_id=pid,
            )
    for action in actions or []:
        action(result)  # reference: checkpoint actions fire post-run
    return result
