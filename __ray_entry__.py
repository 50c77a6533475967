"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing here
calls ``ray.init()`` / ``ray.shutdown()``.

- ``entry()``: flagship north-rule pipeline (language-ID + perplexity +
  heuristic expectations + PII scrub with lineage) over the corpus derived
  from sf0.001 documents.
- ``queries()`` / ``oracle_sql()``: operator catalog from SURVEY.md §2 — see
  ``great_expectations_ray/pipelines/demo_queries.py``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001; returns the scored
    dataset (content scrubbed, keep/bitmap/sha256 lineage columns)."""
    from great_expectations_ray.pipelines.demo_queries import _derived_corpus
    from great_expectations_ray.pipelines.quality_filter import (
        QualityFilterConfig,
        run_quality_filter,
    )

    ds = _derived_corpus("/root/testdata/sf0.001")
    out = run_quality_filter(ds, QualityFilterConfig())
    return out["scored"]


def queries() -> dict[str, Callable[[str], Any]]:
    from great_expectations_ray.pipelines.demo_queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from great_expectations_ray.pipelines.demo_queries import ORACLE_SQL

    return dict(ORACLE_SQL)
