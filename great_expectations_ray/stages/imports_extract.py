"""Import / dependency extraction over a source-code corpus.

Pulls the imported module out of every import-shaped line (python
``import x`` / ``from x import``, JS ``require('x')``) and aggregates
corpus-wide dependency counts — the "what does this corpus depend on"
pass of a code-data pipeline.

Scale shape: per-batch the content column is split into lines ONCE, each
import pattern runs as one RE2 ``extract_regex`` over the flattened line
array, and matches are pre-aggregated locally (``pa.Table.group_by``)
so the single global ``groupby(module).sum`` exchange moves at most
|distinct modules| rows per batch — never one row per import statement.

Reference parity: GX has no extraction operator; this is a
``flat_map``-shaped derived metric in the spirit of its regex map
metrics (``map_metric_provider.py`` column maps), kept as a first-class
stage for the code payload.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# each pattern must expose ONE capture group named m.  [ \t]+ (not \s+) so
# a full-content (?m) mirror of these patterns can never match across a
# newline — keeps the per-line and whole-string forms equivalent.
DEFAULT_IMPORT_PATTERNS = (
    r"^import[ \t]+(?P<m>[A-Za-z_][A-Za-z0-9_.]*)",
    r"^from[ \t]+(?P<m>[A-Za-z_][A-Za-z0-9_.]*)[ \t]+import",
    r"require\('(?P<m>[^']+)'\)",
)


def extract_import_modules(
    content: pa.Array | pa.ChunkedArray,
    patterns: tuple[str, ...] = DEFAULT_IMPORT_PATTERNS,
) -> tuple[pa.Array, np.ndarray]:
    """(modules, row_ids): one entry per import MATCH (a line can hold
    several) — row_ids maps each module back to its row; output order is
    unspecified beyond per-pattern grouping."""
    if isinstance(content, pa.ChunkedArray):
        content = content.combine_chunks()
    s = pc.cast(pc.fill_null(content, ""), pa.large_string())
    lines = pc.split_pattern(s, "\n")
    flat = lines.values
    loff = np.asarray(lines.offsets, dtype=np.int64)
    line_row = np.repeat(np.arange(len(loff) - 1, dtype=np.int64), np.diff(loff))

    mods: list[pa.Array] = []
    rows: list[np.ndarray] = []
    for pat in patterns:
        # hot path: vectorized FIRST match per line.  extract_regex only
        # returns one match, so lines holding several (minified JS with
        # many require() per line) are completed by a python findall over
        # just those rare lines — count_substring_regex finds them.
        ext = pc.extract_regex(flat, pat)
        ok = pc.is_valid(ext)
        idx = np.flatnonzero(ok.to_numpy(zero_copy_only=False))
        if len(idx):
            hit = ext.take(pa.array(idx))
            mods.append(pc.cast(pc.struct_field(hit, "m"), pa.large_string()))
            rows.append(line_row[idx])
        if pat.startswith("^"):
            # anchored, non-(?m): at most one match per line — skip the sweep
            continue
        n_match = pc.count_substring_regex(flat, pat).to_numpy(zero_copy_only=False)
        multi = np.flatnonzero(n_match > 1)
        if len(multi):
            import re as _re

            rx = _re.compile(pat)
            extra_mods, extra_rows = [], []
            for li in multi:
                found = rx.findall(flat[int(li)].as_py())
                for m in found[1:]:  # first match already captured above
                    extra_mods.append(m)
                    extra_rows.append(line_row[li])
            if extra_mods:
                mods.append(pa.array(extra_mods, pa.large_string()))
                rows.append(np.array(extra_rows, dtype=np.int64))
    if not mods:
        return pa.array([], pa.large_string()), np.array([], dtype=np.int64)
    return pa.concat_arrays(mods), np.concatenate(rows)


class ImportCounter:
    """map_batches callable: batch -> local (module, cnt) partial counts."""

    def __init__(self, content_col: str = "content",
                 patterns: tuple[str, ...] = DEFAULT_IMPORT_PATTERNS):
        self.content_col = content_col
        self.patterns = patterns

    def __call__(self, tbl: pa.Table) -> pa.Table:
        mods, _ = extract_import_modules(tbl.column(self.content_col), self.patterns)
        if not len(mods):
            return pa.table({"module": pa.array([], pa.large_string()),
                             "cnt": pa.array([], pa.int64())})
        g = pa.table({"module": mods}).group_by("module").aggregate([([], "count_all")])
        return pa.table({
            "module": g.column("module"),
            "cnt": pc.cast(g.column("count_all"), pa.int64()),
        })


def import_counts(ds, *, content_col: str = "content",
                  patterns: tuple[str, ...] = DEFAULT_IMPORT_PATTERNS,
                  n_buckets: int = 256):
    """Dataset -> Dataset[(module, cnt)] corpus-wide dependency counts.

    Module-name cardinality is corpus-scale (every distinct import in a code
    corpus), so the partial-sum merge runs on the bucketed substrate instead
    of Ray's per-group reduce (``functions/bucketed.py`` rationale)."""
    from great_expectations_ray.functions.bucketed import (
        grouped_apply_bucketed,
        sum_by_key,
    )

    partials = ds.map_batches(
        ImportCounter(content_col, patterns),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    return grouped_apply_bucketed(partials, ["module"],
                                  lambda t: sum_by_key(t, ["module"], "cnt"),
                                  n_buckets=n_buckets)
