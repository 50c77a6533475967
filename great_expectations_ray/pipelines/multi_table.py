"""Concurrent multi-table validation — the reference's checkpoint-over-many-
tables workload (its published benchmark: 100 tables in 323-392 s serial,
22-26 s with experimental multithreading — ``tests/performance/README.md``).

Ray recast: each table's validation is an independent set of Dataset
executions; a driver-side thread pool overlaps them and the Ray scheduler
interleaves their tasks across the cluster.  Per-table wall time is dominated
by scheduling at small table sizes, so overlap is near-perfect.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Any, Mapping

from great_expectations_ray.core.suite import ExpectationSuite
from great_expectations_ray.engine import validate


def validate_many(
    tables: Mapping[str, Any],
    suite: ExpectationSuite | Mapping[str, ExpectationSuite],
    *,
    max_workers: int = 8,
    **validate_kwargs: Any,
) -> dict[str, Any]:
    """Validate many (table -> Dataset) pairs concurrently.

    ``suite`` may be one suite for all tables or a per-table mapping.
    Returns {name: SuiteValidationResult}; per-table failures surface as
    exceptions unless caught by the suite's own catch_exceptions semantics.
    """

    def one(item):
        name, ds = item
        s = suite[name] if isinstance(suite, Mapping) else suite
        return name, validate(ds, s, **validate_kwargs)

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return dict(pool.map(one, tables.items()))
