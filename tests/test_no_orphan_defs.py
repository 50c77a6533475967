"""Guard against orphaned package code.

Every top-level function, class and constant in ``great_expectations_ray``
must be used by non-test code: the package itself, ``bench.py``,
``__ray_entry__.py``, ``tools/`` or ``perfbench/``.  A use is a ``Name``
load, an ``Attribute`` access, an imported alias, or a string that is
exactly the identifier (``getattr``-style lookups).  Uses inside the
definition's own body (recursion) and mentions in prose (docstrings) do
not count, and a use counts only from live code: a helper whose only
caller is itself orphaned is an orphan too.

Exempt are kernels added to a registry (the registry calls them),
``__main__.py`` (the CLI entry point), and ``KEEP``: definitions with no
non-test caller that stay on purpose, each with its reason.  A test that
only pins a definition does not keep it alive; delete both together.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "great_expectations_ray"
CALLERS = [PACKAGE, ROOT / "bench.py", ROOT / "__ray_entry__.py", ROOT / "tools", ROOT / "perfbench"]

# Registrars: a def decorated with one, or a constant assigned from a call to
# one, is reachable through the registry it was added to.
REGISTRARS = {"register_condition", "register_table_rule", "_register"}

_DIAGNOSTICS = (
    "GX's custom-expectation diagnostics harness (SURVEY testing item 4, "
    "COVERAGE row 139); test_prescriptive uses the type list as its completeness check"
)
_PARTITIONERS = "GX partitioner/sampler (COVERAGE row 70); nothing else implements it"
_REFERENCE = "reference implementation the tests compare the vectorized stage against"
_NOT_YET_JUDGED = "found only by the transitive scan, not yet judged; kept until a change decides it"

KEEP = {
    "core.diagnostics.run_diagnostics": _DIAGNOSTICS,
    "functions.registry.list_expectations": _DIAGNOSTICS,
    "functions.registry.supported_expectation_types": _DIAGNOSTICS,
    "state.stores.CheckpointStore": "mirrors GX's checkpoint_store (SURVEY 'Sinks', COVERAGE row 152)",
    "functions.partitioners.partition_on_converted_datetime": _PARTITIONERS,
    "functions.partitioners.partition_on_divided_integer": _PARTITIONERS,
    "functions.partitioners.partition_on_mod_integer": _PARTITIONERS,
    "functions.partitioners.partition_on_column_values": _PARTITIONERS,
    "functions.partitioners.partition_on_hashed_column": _PARTITIONERS,
    "functions.partitioners.sample_using_a_list": _PARTITIONERS,
    "sources.readers.partition_files_by_regex": _PARTITIONERS,
    "sources.readers.read_partitioned_files": _PARTITIONERS,
    "stages.pack_ids.decode_token_ids": _REFERENCE,
    "stages.multimodal.log_mel_pooled": _REFERENCE,
    "stages.dsir.hashed_feature_counts": _REFERENCE,
    "stages.dsir.fit_hashed_bag": _REFERENCE,
    "stages.multimodal.MediaDecoder": _NOT_YET_JUDGED,
    "stages.multimodal.MediaResizer": _NOT_YET_JUDGED,
    "stages.multimodal.make_fake_media_table": _NOT_YET_JUDGED,
    "stages.toxicity.toxicity_scrub_rules": _NOT_YET_JUDGED,
    "functions.ks.grouped_parameterized_ks": _NOT_YET_JUDGED,
}


def _module_name(path: Path) -> str:
    return ".".join(path.relative_to(PACKAGE).with_suffix("").parts)


def _is_registrar(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id in REGISTRARS


def _top_level_defs(tree: ast.Module):
    """Yield ``(name, node)`` for each top-level def, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if not any(_is_registrar(d) for d in decorators):
                yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            if isinstance(node.value, ast.Call) and _is_registrar(node.value.func):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, node


def _references(tree: ast.AST) -> set[str]:
    """Identifiers used anywhere in ``tree``."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)
    return names


def _caller_files():
    for root in CALLERS:
        yield from ([root] if root.is_file() else sorted(root.rglob("*.py")))


def _liveness(keep_is_live: bool) -> tuple[set[str], set[str]]:
    """Return (every package definition, the live ones), as qualified names.

    Live code is every statement of a caller file that is not a top-level
    package definition, plus every definition live code uses, to a fixed
    point.  With ``keep_is_live`` the ``KEEP`` entries are live too.
    """
    users: dict[str, set[str]] = {}  # name -> owners of the statements that use it
    defs: set[str] = set()
    live: set[str] = set(KEEP) if keep_is_live else set()
    for path in _caller_files():
        tree = ast.parse(path.read_text(), str(path))
        owned: dict[int, str] = {}
        if path.is_relative_to(PACKAGE) and path.name != "__main__.py":
            module = _module_name(path)
            owned = {id(node): f"{module}.{name}" for name, node in _top_level_defs(tree)}
            defs.update(owned.values())
        live.add(str(path))
        for statement in tree.body:
            owner = owned.get(id(statement), str(path))
            for name in _references(statement):
                users.setdefault(name, set()).add(owner)
    grew = True
    while grew:
        grew = False
        for qualified in defs - live:
            if (users.get(qualified.rsplit(".", 1)[-1], set()) - {qualified}) & live:
                live.add(qualified)
                grew = True
    return defs, live


def find_orphans() -> list[str]:
    """Package definitions that neither live code nor ``KEEP`` code uses."""
    defs, live = _liveness(keep_is_live=True)
    return sorted(defs - live)


def test_every_package_definition_has_a_non_test_caller():
    orphans = find_orphans()
    assert not orphans, (
        "package definitions no non-test code uses (delete them with the tests that "
        f"only pin them, or add them to KEEP with a reason): {orphans}"
    )


def test_keep_holds_only_defined_orphans_with_reasons():
    """A KEEP entry that gained a live caller or lost its definition is stale."""
    defs, live = _liveness(keep_is_live=False)
    stale = sorted(name for name in KEEP if name not in defs or name in live)
    assert not stale, f"KEEP entries that are used or no longer defined: {stale}"
    assert all(reason.strip() for reason in KEEP.values())
