"""PII / secret scrubbing — compiled-regex in-batch content rewrite.

The north rule's scrub stage: rewrite ``content`` in-batch with RE2 kernels
(``pc.replace_substring_regex`` replaces ALL non-overlapping matches), and
emit sha256 lineage before/after.  Patterns are applied in a FIXED order so
scrubbed output is byte-deterministic (the sha256-parity invariant).

This generalizes the reference's regex map metrics
(``column_values_match_regex.py``) from *detect* to *rewrite*; GX itself never
mutates data, so the rewrite semantics (ordered, global, non-overlapping) are
our contract, pinned by tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.stages.text_stats import string_buffer

#: (name, RE2 pattern, replacement) — ORDER MATTERS and is part of the contract
DEFAULT_SCRUB_RULES: list[tuple[str, str, str]] = [
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("aws_key", r"AKIA[0-9A-Z]{16}", "<AWS_KEY>"),
    ("bearer_token", r"Bearer [A-Za-z0-9._~+/-]{16,}", "Bearer <TOKEN>"),
    (
        "private_key",
        r"-----BEGIN [A-Z ]*PRIVATE KEY-----",
        "<PRIVATE_KEY_HEADER>",
    ),
]


def sha256_column(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """sha256 hex of each string value (empty-string hash for nulls).

    Hashes straight off the Arrow UTF-8 data buffer (``string_buffer``, read
    in place) via memoryview slices — no ``as_py()`` decode, no per-row
    Python string materialization.  Arrow string payloads are valid UTF-8 by
    construction, so the buffer bytes are byte-identical to
    ``value.encode("utf-8")`` (sha parity preserved).  Each digest is one C
    call; hashlib releases the GIL for payloads >2 KiB.
    """
    data, offs = string_buffer(col)
    mv, o, _sha = memoryview(data), offs.tolist(), hashlib.sha256
    return pa.array([_sha(mv[a:b]).hexdigest() for a, b in zip(o, o[1:])], pa.string())


def sha256_column_where(
    col: pa.ChunkedArray | pa.Array, changed: np.ndarray, base: pa.Array
) -> pa.Array:
    """sha256 of rows marked ``changed``; unchanged rows REUSE ``base``
    (sound whenever unchanged rows have byte-identical content — i.e.
    ``base = sha256_column(original)`` and ``col`` differs only on changed
    rows).  Cuts post-scrub hashing to the scrub hit rate: only the changed
    rows are hashed and only their digests become Python strings; the rest
    of ``base`` is copied in Arrow."""
    if not changed.any():
        return base
    data, offs = string_buffer(col)
    mv, _sha = memoryview(data), hashlib.sha256
    new = [_sha(mv[offs[i] : offs[i + 1]]).hexdigest()
           for i in np.flatnonzero(changed).tolist()]
    return pc.replace_with_mask(base, pa.array(changed), pa.array(new, base.type))


@dataclass
class Scrubber:
    """Vectorized scrub kernel; usable standalone or fused into the
    quality-filter pass."""

    rules: list[tuple[str, str, str]] = field(default_factory=lambda: list(DEFAULT_SCRUB_RULES))

    def scrub_array(self, content: pa.ChunkedArray | pa.Array
                    ) -> tuple[pa.ChunkedArray | pa.Array, np.ndarray]:
        """Returns (scrubbed, hit_mask) where hit_mask marks rows changed;
        ``scrubbed`` keeps ``content``'s chunks."""
        scrubbed = content
        for _name, pattern, repl in self.rules:
            scrubbed = pc.replace_substring_regex(scrubbed, pattern=pattern, replacement=repl)
        # hit = content changed (replacements never equal their match, so
        # inequality is exact and saves one match-scan per rule)
        hit = ~np.asarray(pc.fill_null(pc.equal(scrubbed, content), True), dtype=bool)
        return scrubbed, hit

    def __call__(self, tbl: pa.Table) -> pa.Table:
        """map_batches form: rewrites ``content``, adds sha256 lineage."""
        content = tbl.column("content")
        pre = sha256_column(content)
        scrubbed, hit = self.scrub_array(content)
        post = sha256_column_where(scrubbed, hit, pre)
        tbl = tbl.set_column(tbl.column_names.index("content"), "content", scrubbed)
        tbl = tbl.append_column("content_sha256", pre)
        tbl = tbl.append_column("scrubbed_sha256", post)
        tbl = tbl.append_column("scrub_hit", pa.array(hit))
        return tbl
