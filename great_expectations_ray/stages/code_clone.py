"""Code-clone detection over a source-code corpus (Type-1 / Type-2-lite).

Classic clone taxonomy (Roy & Cordy 2007 survey, public): Type-1 clones are
identical after comment/whitespace normalization; Type-2 additionally
ignores literal values.  This is the payload-specific dedup a code corpus
needs on top of byte-exact dedup (stages/dedup.py): re-formatted or
re-licensed copies of a file hash differently raw but identically here.

Normalization (ORDER MATTERS; every step is one RE2 kernel, so DuckDB's
regexp_replace reproduces it exactly — the gate oracle groups by the same
normalized text):

1. strip ``/* ... */`` block comments (non-greedy),
2. strip ``//`` / ``#`` / ``--`` line comments to end-of-line,
3. (type 2 only) mask double/single-quoted string literals to ``<S>`` and
   numeric literals to ``<N>``,
4. collapse whitespace runs to one space and trim.

The comment strip is the lexer-free approximation (a ``//`` inside a string
literal is treated as a comment start) — documented contract, identical on
both sides of the gate.

Scale shape: normalization + sha are per-batch Arrow kernels; clone marking
ships only (id, 64-hex digest of the normalized text) through ONE bucketed
exchange (functions/bucketed.py) — file bytes never move.  Keep-first =
smallest id per clone key.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

BLOCK_COMMENT_RE = r"/\*[\s\S]*?\*/"
LINE_COMMENT_RE = r"(?m)(//|#|--).*$"
STRING_LIT_RE = r"\"[^\"\n]*\"|'[^'\n]*'"
NUMBER_LIT_RE = r"\b[0-9]+(\.[0-9]+)?\b"
WS_RUN_RE = r"[ \t\r\n\f\v]+"


def normalize_code(
    content: pa.Array | pa.ChunkedArray, *, level: int = 1
) -> pa.Array:
    """Normalized text per file (level 1 = Type-1, level 2 = Type-2-lite)."""
    if level not in (1, 2):
        raise ValueError("clone level must be 1 or 2")
    if isinstance(content, pa.ChunkedArray):
        content = content.combine_chunks()
    s = pc.cast(pc.fill_null(content, ""), pa.large_string())
    s = pc.replace_substring_regex(s, BLOCK_COMMENT_RE, "")
    s = pc.replace_substring_regex(s, LINE_COMMENT_RE, "")
    if level == 2:
        s = pc.replace_substring_regex(s, STRING_LIT_RE, "<S>")
        s = pc.replace_substring_regex(s, NUMBER_LIT_RE, "<N>")
    s = pc.replace_substring_regex(s, WS_RUN_RE, " ")
    return pc.utf8_trim(s, " ")


def mark_code_clones(
    ds,
    *,
    id_col: str = "doc_id",
    content_col: str = "content",
    level: int = 1,
    n_buckets: int = 256,
):
    """Per-row clone verdicts: ``clone_key`` (sha256 hex of the normalized
    text) and ``is_clone`` (1 unless this row is the keeper — the smallest
    id sharing the key).  ONE bucketed exchange over (id, 64-byte digest)."""
    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed, key_groups
    from great_expectations_ray.stages.scrub import sha256_column

    def keyed(tbl: pa.Table) -> pa.Table:
        norm = normalize_code(tbl.column(content_col), level=level)
        return pa.table({
            id_col: tbl.column(id_col),
            "clone_key": sha256_column(norm),
        })

    def bucket(t: pa.Table) -> pa.Table:
        t, bounds = key_groups(t, ["clone_key"], [(id_col, "ascending")])
        clone = np.ones(t.num_rows, dtype=np.int64)
        clone[bounds[:-1]] = 0
        return t.select([id_col, "clone_key"]).append_column("is_clone", pa.array(clone))

    keys = ds.select_columns([id_col, content_col]).map_batches(
        keyed, batch_format="pyarrow", zero_copy_batch=True
    )
    return grouped_apply_bucketed(keys, ["clone_key"], bucket, n_buckets=n_buckets)
