"""Mergeable validation state — validate partitions independently, merge
states associatively, finish corpus-level results without re-reading data.

The reference re-validates from raw data every run; its ValidationResult
objects are terminal (no merge).  This engine's partial states
(MapPartialState / NumericAggState / value counts / histogram partials,
engine.py ``_merge_partials``) are associative by construction, so a
partition's MERGED state is itself a valid partial — which makes the day-2
story one line: yesterday's corpus-level suite state is a few-KB blob;
today's new partition validates alone; ``merge`` + ``finish`` yields the
EVRs the whole corpus would produce, with yesterday's bytes never re-read.

Scope: the same families as grouped validation (pipelines/grouped.py):
map, aggregate, table, knob-free value-count (distinct-set / most-common /
unique-count / median / quantile / entropy) and single-column uniqueness —
families needing their own exchange per run (two-phase, KS, ordered,
compound uniqueness, …) raise a named ValueError.

Scale shape: one streaming pass per NEW partition; a state blob is bounded
by the suite size (aggregate moments + capped unexpected samples + capped
value counts), independent of row count.
"""

from __future__ import annotations

import pickle
from typing import Optional

import pyarrow as pa

from great_expectations_ray.core.suite import ExpectationSuite
from great_expectations_ray.engine import (
    _dataset_arrow_schema,
    _finish_suite,
    _merge_partials,
    compile_suite,
)
from great_expectations_ray.pipelines.grouped import (
    _UNSUPPORTED_WIDE,
    _compile_mergeable,
)
from great_expectations_ray.stages._per_worker import unsplit_reads

#: 2: temporal min/max in NumericAggState hold exact int64 epochs;
#: 3: value counts are typed Arrow ``(values, counts)`` arrays, not a dict
_STATE_VERSION = 3


class SuiteValidationState:
    """One partition's (or any union's) merged validation state."""

    def __init__(self, suite_json: dict, blob: bytes, schema: pa.Schema,
                 n_partitions: int = 1):
        self.suite_json = suite_json
        self.blob = blob
        self.schema = schema
        self.n_partitions = n_partitions

    # -- build ---------------------------------------------------------------
    @classmethod
    @unsplit_reads()
    def compute(cls, ds, suite: ExpectationSuite) -> "SuiteValidationState":
        """ONE streaming pass over ``ds`` -> this partition's state."""
        _, evaluator = _compile_mergeable(
            suite, _UNSUPPORTED_WIDE, "SuiteValidationState")
        evaluator.record_schema = True
        parts = [
            r["partial"]
            for r in ds.map_batches(
                evaluator, batch_format="pyarrow", zero_copy_batch=True
            ).take_all()
        ]
        merged = _merge_partials(parts)
        # the schema the blocks record; the probe only when no batch arrived
        schema = merged.pop("schema")
        if schema is None:
            schema = _dataset_arrow_schema(ds)
        return cls(suite.to_json_dict(), pickle.dumps(merged), schema)

    # -- algebra -------------------------------------------------------------
    def merge(self, other: "SuiteValidationState") -> "SuiteValidationState":
        """Associative in-place merge; suites and schemas must agree."""
        if other.suite_json != self.suite_json:
            raise ValueError("cannot merge states of different suites")
        if other.schema != self.schema:
            raise ValueError(
                "cannot merge states over different schemas: "
                f"{self.schema.names} vs {other.schema.names}")
        # a merged dict has the same shape as a per-block partial, so the
        # engine's merge is closed under itself
        self.blob = pickle.dumps(_merge_partials([self.blob, other.blob]))
        self.n_partitions += other.n_partitions
        return self

    def finish(self, *, result_format: str = "SUMMARY",
               catch_exceptions: bool = True):
        """Corpus-level SuiteValidationResult from the merged state —
        engine.validate's own finisher, run without a dataset."""
        suite = ExpectationSuite.from_json_dict(self.suite_json)
        res = _finish_suite(
            compile_suite(suite), suite, pickle.loads(self.blob), self.schema,
            result_format=result_format,
            catch_exceptions=catch_exceptions,
        )
        res.meta["n_partitions"] = self.n_partitions
        return res

    # -- persistence (one bounded blob) ---------------------------------------
    def to_bytes(self) -> bytes:
        return pickle.dumps({
            "version": _STATE_VERSION,
            "suite": self.suite_json,
            "blob": self.blob,
            "schema": self.schema.serialize().to_pybytes(),
            "n_partitions": self.n_partitions,
        })

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SuiteValidationState":
        d = pickle.loads(raw)
        if d.get("version") != _STATE_VERSION:
            raise ValueError(f"unsupported state version {d.get('version')}")
        return cls(d["suite"], d["blob"],
                   pa.ipc.read_schema(pa.py_buffer(d["schema"])),
                   d["n_partitions"])

    def save(self, path: str) -> None:
        with open(path, "wb") as f:
            f.write(self.to_bytes())

    @classmethod
    def load(cls, path: str) -> "SuiteValidationState":
        with open(path, "rb") as f:
            return cls.from_bytes(f.read())


def merge_states(
    states: list[SuiteValidationState],
) -> Optional[SuiteValidationState]:
    """Fold any number of partition states into one (order-insensitive up to
    the engine's documented float-merge convention)."""
    if not states:
        return None
    out = states[0]
    for s in states[1:]:
        out = out.merge(s)
    return out
