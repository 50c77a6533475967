"""Inline (atomic) rendering of expectation configs and validation results.

The reference's InlineRenderer (render/renderer/inline_renderer.py:39) turns
an ExpectationConfiguration into ``atomic.prescriptive.summary`` content and
an ExpectationValidationResult into ``atomic.diagnostic.observed_value`` +
``atomic.prescriptive.summary`` content — each a ``RenderedAtomicContent``
dict carrying a ``$param`` string template plus a typed params map
(render/components.py renderedAtomicValueSchema shape).

Here the prescriptive templates are derived from the same sentence table
Data Docs uses (pipelines/prescriptive.py): each kwarg is rendered through
``describe`` with a unique sentinel, and the sentinel is then rewritten to
``$kwarg`` in the output — so the template text, branch structure (which
bounds are set, mostly suffix, row condition) and the flat-sentence renderer
can never drift apart.  The diagnostic observed-value semantics follow the
reference's ``_get_observed_value_from_evr`` (expectations/expectation.py:958):
``observed_value`` if present (numbers via significant-digit formatting),
else ``<pct>% unexpected``, else ``--``.

Deviations, both cosmetic: no locale thousands-separators in numbers, and a
config whose min_value == max_value renders "between $min_value and
$max_value" rather than collapsing to the equality sentence (the sentinels
compare unequal during templating).
"""

from __future__ import annotations

import math
from typing import Any, Optional

from great_expectations_ray.pipelines.prescriptive import describe

# names mirror AtomicRendererType / Atomic*RendererType in the reference's
# render/__init__.py
PRESCRIPTIVE_SUMMARY = "atomic.prescriptive.summary"
PRESCRIPTIVE_FAILED = "atomic.prescriptive.failed"
DIAGNOSTIC_OBSERVED_VALUE = "atomic.diagnostic.observed_value"
DIAGNOSTIC_FAILED = "atomic.diagnostic.failed"

_STRING_SCHEMA = {"type": "com.superconductive.rendered.string"}

# private-use-area brackets: never appear in real templates, survive any
# formatting the sentence table applies to string values
_S0, _S1 = "", ""


def num_to_str(v: float, precision: int = 10) -> str:
    """Significant-digit number formatting, matching the reference's
    util.num_to_str essentials: round to ``precision`` significant digits,
    drop a trailing '.0', never use exponent notation for the magnitudes
    seen in validation results."""
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, int):
        return str(v)
    if not math.isfinite(v):
        return str(v)
    if v == 0:
        return "0"
    digits = precision - 1 - math.floor(math.log10(abs(v)))
    rounded = round(v, max(0, digits))
    if rounded == int(rounded):
        return str(int(rounded))
    return f"{rounded:.{max(0, digits)}f}".rstrip("0").rstrip(".")


def _param_schema_type(v: Any) -> str:
    if isinstance(v, bool):
        return "boolean"
    if isinstance(v, int):
        return "number"
    if isinstance(v, float):
        return "number"
    if isinstance(v, (list, tuple, set)):
        return "array"
    if isinstance(v, dict):
        return "object"
    return "string"


def _prescriptive_value(etype: str, kwargs: dict) -> dict:
    """Build {template, params, schema} for one expectation config."""
    kwargs = kwargs or {}
    sentinel_kwargs: dict[str, Any] = {}
    params: dict[str, dict] = {}
    for k, v in kwargs.items():
        if k.startswith("_") or v is None:
            sentinel_kwargs[k] = v
            continue
        if k in ("mostly", "row_condition"):
            # describe() computes with these (float(mostly)*100; appends the
            # condition verbatim) — keep the real value and rewrite after
            sentinel_kwargs[k] = v
            continue
        sentinel_kwargs[k] = f"{_S0}{k}{_S1}"
        params[k] = {"schema": {"type": _param_schema_type(v)},
                     "value": list(v) if isinstance(v, (tuple, set)) else v}

    template = describe(etype, sentinel_kwargs)
    for k in list(params):
        token = f"{_S0}{k}{_S1}"
        if repr(token) in template:
            # value rendered through !r (regex/strftime templates): absorb
            # the quotes into the substitution
            template = template.replace(repr(token), f"${k}")
        elif token in template:
            template = template.replace(token, f"${k}")
        else:
            # kwarg not referenced by this sentence (e.g. result_format)
            del params[k]
    # the %-rendered mostly suffix -> $mostly_pct (reference param name)
    mostly = kwargs.get("mostly")
    if mostly is not None and mostly < 1:
        pct = f"{round(float(mostly) * 100, 1):g}"
        suffix = f", at least {pct}% of the time"
        if suffix in template:
            template = template.replace(
                suffix, ", at least $mostly_pct% of the time")
            params["mostly_pct"] = {"schema": {"type": "number"},
                                    "value": float(pct)}
    cond = kwargs.get("row_condition")
    if cond:
        suffix = f", if {cond}"
        if suffix in template:
            template = template.replace(suffix, ", if $row_condition")
            params["row_condition"] = {"schema": {"type": "string"},
                                       "value": cond}
    return {"template": template, "params": params, "schema": _STRING_SCHEMA}


def _observed_value_str(result: Optional[dict]) -> str:
    """expectations/expectation.py:958 _get_observed_value_from_evr."""
    if not result:
        return "--"
    observed = result.get("observed_value")
    if observed is not None:
        if isinstance(observed, (int, float)) and not isinstance(observed, bool):
            return num_to_str(observed, precision=10)
        return str(observed)
    pct = result.get("unexpected_percent")
    if pct is not None:
        return num_to_str(pct, precision=5) + "% unexpected"
    return "--"


def _atomic(name: str, value: dict) -> dict:
    return {"name": name, "value": value, "value_type": "StringValueType"}


def _failed(name: str, etype: str) -> dict:
    return _atomic(name, {
        "template": "Rendering failed for expectation: $expectation_type.",
        "params": {"expectation_type": {"schema": {"type": "string"},
                                        "value": etype}},
        "schema": _STRING_SCHEMA,
    })


def inline_render(obj: dict) -> list[dict]:
    """Atomic rendered content for an expectation config or an EVR dict.

    A config dict (``{"type"|"expectation_type", "kwargs"}``) yields
    ``[prescriptive.summary]``; an EVR dict (has ``expectation_config``)
    yields ``[diagnostic.observed_value, prescriptive.summary]`` — the
    reference's renderer_types split at inline_renderer.py:66-81.  Any
    renderer exception degrades to the matching ``*.failed`` content
    instead of raising (inline_renderer.py `_get_atomic_rendered_content
    _from_renderer_names` fallback).
    """
    if "expectation_config" in obj:
        cfg = obj.get("expectation_config") or {}
        etype = cfg.get("expectation_type") or cfg.get("type") or "?"
        out = []
        try:
            out.append(_atomic(
                DIAGNOSTIC_OBSERVED_VALUE,
                {"template": _observed_value_str(obj.get("result")),
                 "params": {}, "schema": _STRING_SCHEMA}))
        except Exception:
            out.append(_failed(DIAGNOSTIC_FAILED, etype))
        try:
            out.append(_atomic(PRESCRIPTIVE_SUMMARY,
                               _prescriptive_value(etype, cfg.get("kwargs"))))
        except Exception:
            out.append(_failed(PRESCRIPTIVE_FAILED, etype))
        return out
    etype = obj.get("expectation_type") or obj.get("type") or "?"
    try:
        return [_atomic(PRESCRIPTIVE_SUMMARY,
                        _prescriptive_value(etype, obj.get("kwargs")))]
    except Exception:
        return [_failed(PRESCRIPTIVE_FAILED, etype)]
