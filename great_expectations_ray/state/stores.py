"""Stores — filesystem-backed suite & validation-result persistence.

Mirror of the reference's store layer (``data_context/store/
expectations_store.py``, ``validation_results_store.py`` over
``tuple_store_backend.py``): suites keyed by name; results keyed by the
``ValidationResultIdentifier`` triple (suite, run_name+run_time, batch) —
``data_context/types/resource_identifiers.py:102-123``.  Everything is plain
JSON files under a root directory (the filesystem tuple-store backend); cloud
object stores mount the same layout via their fuse/URI equivalents.
"""

from __future__ import annotations

import json
import os
import posixpath
from typing import Any

from great_expectations_ray.core.suite import ExpectationSuite


class TupleStoreBackend:
    """Key/value text backend over ``pyarrow.fs`` — the reference's
    ``TupleFilesystemStoreBackend`` / ``TupleS3StoreBackend`` family
    (``data_context/store/tuple_store_backend.py``) collapsed to one class:
    any Arrow-filesystem URI works (``file://``, ``s3://``, ``gs://``,
    ``hdfs://``), plain paths mean the local filesystem.

    Local writes stay atomic (tmp + rename); object-store writes rely on
    the store's atomic PUT semantics."""

    def __init__(self, root: str):
        import pyarrow.fs as pafs

        if "://" in root:
            self.fs, self.base = pafs.FileSystem.from_uri(root)
            self._local = isinstance(self.fs, pafs.LocalFileSystem)
        else:
            self.fs, self.base = pafs.LocalFileSystem(), os.path.abspath(root)
            self._local = True

    def _path(self, key_parts: tuple[str, ...]) -> str:
        return posixpath.join(self.base, *key_parts)

    def set(self, key_parts: tuple[str, ...], text: str) -> str:
        p = self._path(key_parts)
        self.fs.create_dir(posixpath.dirname(p), recursive=True)
        target = p + ".tmp" if self._local else p
        with self.fs.open_output_stream(target) as f:
            f.write(text.encode())
        if self._local:
            os.replace(target, p)  # atomic on the local filesystem
        return p

    def get(self, key_parts: tuple[str, ...]) -> str:
        with self.fs.open_input_stream(self._path(key_parts)) as f:
            return f.read().decode()

    def remove(self, key_parts: tuple[str, ...]) -> None:
        self.fs.delete_file(self._path(key_parts))

    def list_keys(self, prefix: tuple[str, ...] = ()) -> list[tuple[str, ...]]:
        import pyarrow.fs as pafs

        base = self._path(prefix) if prefix else self.base
        try:
            infos = self.fs.get_file_info(
                pafs.FileSelector(base, recursive=True, allow_not_found=True)
            )
        except FileNotFoundError:
            return []
        out = []
        for info in infos:
            if info.type == pafs.FileType.File and info.path.endswith(".json"):
                rel = posixpath.relpath(info.path, self.base)
                out.append(tuple(rel.split("/")))
        return sorted(out)


class ExpectationsStore:
    def __init__(self, root: str):
        self.backend = TupleStoreBackend(root)
        self.root = posixpath.join(self.backend.base, "expectations")

    def save(self, suite: ExpectationSuite) -> str:
        return self.backend.set(("expectations", f"{suite.name}.json"), suite.to_json())

    def load(self, name: str) -> ExpectationSuite:
        return ExpectationSuite.from_json(
            self.backend.get(("expectations", f"{name}.json"))
        )

    def list_suites(self) -> list[str]:
        return sorted(
            key[-1][: -len(".json")]
            for key in self.backend.list_keys(("expectations",))
        )

    def delete(self, name: str) -> None:
        self.backend.remove(("expectations", f"{name}.json"))


class ValidationResultsStore:
    """Results keyed by (suite_name, run_name, run_time, batch_id)."""

    def __init__(self, root: str):
        self.backend = TupleStoreBackend(root)
        self.root = posixpath.join(self.backend.base, "validations")

    def _key(self, suite_name: str, run_name: str, run_time: float,
             batch_id: str) -> tuple[str, ...]:
        return ("validations", suite_name, f"{run_name}-{run_time:.0f}",
                f"{batch_id}.json")

    def save(self, result, *, run_name: str, run_time: float, batch_id: str) -> str:
        payload = result.to_json_dict() if hasattr(result, "to_json_dict") else result
        key = self._key(payload.get("suite_name", "suite"), run_name, run_time, batch_id)
        return self.backend.set(
            key, json.dumps(payload, indent=1, sort_keys=True, default=str)
        )

    def load(self, suite_name: str, run_name: str, run_time: float, batch_id: str) -> dict[str, Any]:
        return json.loads(
            self.backend.get(self._key(suite_name, run_name, run_time, batch_id))
        )

    def list_keys(self) -> list[tuple[str, str, str]]:
        return [
            (k[1], k[2], k[3][: -len(".json")])
            for k in self.backend.list_keys(("validations",))
        ]


class CheckpointStore:
    """Named checkpoint configs (reference ``checkpoint_store.py``): the
    (input glob, suite, partitioning, actions) tuple that defines a
    production run, stored as JSON so `run --checkpoint NAME` is
    reproducible.  Action configs round-trip through
    ``pipelines.actions.ValidationAction.from_config``."""

    def __init__(self, root: str):
        self.backend = TupleStoreBackend(root)

    def save(self, name: str, config: dict[str, Any]) -> str:
        return self.backend.set(
            ("checkpoints", f"{name}.json"),
            json.dumps(config, indent=1, sort_keys=True, default=str),
        )

    def load(self, name: str) -> dict[str, Any]:
        return json.loads(self.backend.get(("checkpoints", f"{name}.json")))

    def list_checkpoints(self) -> list[str]:
        return sorted(
            key[-1][: -len(".json")]
            for key in self.backend.list_keys(("checkpoints",))
        )

    def delete(self, name: str) -> None:
        self.backend.remove(("checkpoints", f"{name}.json"))


class ProfilingResultsStore:
    """Profiler output keyed by (asset_name, run_name) — the reference keeps
    profiling results in the validations store under the profiler's
    run_name (``data_context/store/validation_results_store.py`` +
    ``render/renderer/site_builder.py`` profiling section); here they get
    their own prefix so ``build_site`` can render the profiling tab without
    sniffing payload shapes.  Payload is ``profiler.profile()`` output
    serialized per column (``ColumnProfile.to_json_dict()``)."""

    def __init__(self, root: str):
        self.backend = TupleStoreBackend(root)

    def save(self, asset_name: str, run_name: str,
             profiles: dict[str, Any]) -> str:
        payload = {
            c: (p.to_json_dict() if hasattr(p, "to_json_dict") else p)
            for c, p in profiles.items()
        }
        return self.backend.set(
            ("profiling", asset_name, f"{run_name}.json"),
            json.dumps(payload, indent=1, sort_keys=True, default=str),
        )

    def load(self, asset_name: str, run_name: str) -> dict[str, Any]:
        return json.loads(
            self.backend.get(("profiling", asset_name, f"{run_name}.json"))
        )

    def list_keys(self) -> list[tuple[str, str]]:
        return [
            (k[1], k[2][: -len(".json")])
            for k in self.backend.list_keys(("profiling",))
        ]
