"""great_expectations_ray — a Ray-Data-native data-quality / quality-filter engine.

A from-scratch re-expression of great_expectations' (GX Core 1.2.0) expectation
semantics as partition-parallel, Arrow-vectorized Ray Data pipelines:

- Expectation suites compile to ONE fused ``map_batches`` pass emitting small
  per-block partial states that merge associatively (the Ray analog of GX's
  metric bundling, see reference ``execution_engine/sparkdf_execution_engine.py:843``).
- Keep/drop quality filtering, PII scrubbing, language-ID and perplexity
  scoring run as vectorized per-batch stages over zero-copy Arrow batches.
- Rollups reproduce GX's ExpectationSuiteValidationResult statistics
  (reference ``validator/validation_statistics.py:19-42``).

Nothing here ports GX's execution machinery; only its observable semantics.
"""

from great_expectations_ray.core.suite import ExpectationConfiguration, ExpectationSuite
from great_expectations_ray.core.results import (
    ExpectationValidationResult,
    SuiteValidationResult,
)
from great_expectations_ray.engine import validate, validate_many
from great_expectations_ray.pipelines.grouped import (
    validate_grouped,
    validate_grouped_wide,
)
from great_expectations_ray.pipelines.incremental_validate import (
    SuiteValidationState,
    merge_states,
)
from great_expectations_ray.context import DataContext, get_context

# side-effect import: registers the contrib-expectation ports (hexadecimal,
# ARN, scientific notation, future-date, decimal places, special characters)
# through the public register_condition path
import great_expectations_ray.functions.contrib  # noqa: E402,F401

__version__ = "0.1.0"

__all__ = [
    "DataContext",
    "ExpectationConfiguration",
    "ExpectationSuite",
    "ExpectationValidationResult",
    "SuiteValidationResult",
    "get_context",
    "validate",
    "validate_many",
    "validate_grouped",
    "validate_grouped_wide",
    "SuiteValidationState",
    "merge_states",
]
