"""Per-file source-code quality metrics — stateless vectorized map_batches
stage for the code-payload corpus (repo, path, lang, content).

Computes the signals a code-corpus quality filter gates on (the
reference expresses these as expect_column_values_to_be_between /
match_regex rules over derived columns; SURVEY.md §2 heuristic rules):

- ``n_lines`` / ``max_line_len`` / ``comment_lines`` / ``comment_frac``
  — line structure and comment density (``#``, ``//``, ``--``, ``*``,
  ``/*`` prefixes),
- ``ws_frac`` — whitespace-character fraction,
- ``autogen`` — generated-file marker ("auto-generated", "do not edit",
  "generated by", case-insensitive),
- ``minified`` — the classic minified-JS shape: a very long line and
  almost no whitespace.

Everything is Arrow kernels + numpy over the flattened line array: ONE
``split_pattern`` per batch, one RE2 match over the flattened lines, and
cumsum/reduceat rollups back to rows.  No shuffle, no Python per row; the
stage pipelines with the parquet read at 100 TB.

Float contract (oracle parity): every float column is a SINGLE division of
two exactly-reproducible integers, so DuckDB reproduces it bit-for-bit
(see graft-host-quirks #4 — never oracle order-dependent float merges).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.stages.text_stats import segment_max, segment_sum, text_counts

# line-anchored because each element IS one line after the split
COMMENT_LINE_RE = r"^\s*(#|//|--|\*|/\*)"
AUTOGEN_RE = r"(?i)(auto-generated|do not edit|generated by)"

MINIFIED_MAX_LINE = 200
MINIFIED_WS_FRAC = 0.05


def code_metrics_table(content: pa.Array | pa.ChunkedArray) -> dict[str, pa.Array]:
    """Metric columns for a content column (one vectorized pass)."""
    if isinstance(content, pa.ChunkedArray):
        content = content.combine_chunks()
    s = pc.cast(pc.fill_null(content, ""), pa.large_string())

    lines = pc.split_pattern(s, "\n")
    flat = lines.values  # large_string child
    loff = np.asarray(lines.offsets)
    n_lines = np.diff(loff).astype(np.int64)

    line_len = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
    is_comment = (
        pc.match_substring_regex(flat, COMMENT_LINE_RE)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    loff64 = loff.astype(np.int64)
    comment_lines = segment_sum(is_comment, loff64)
    max_line_len = segment_max(line_len, loff64)

    _, ws, n_chars, _, _ = text_counts(s, lines=False)

    with np.errstate(divide="ignore", invalid="ignore"):
        ws_frac = np.where(n_chars > 0, ws / np.maximum(n_chars, 1), 0.0)
        comment_frac = np.where(n_lines > 0, comment_lines / np.maximum(n_lines, 1), 0.0)

    autogen = pc.match_substring_regex(s, AUTOGEN_RE)
    minified = pa.array(
        (max_line_len >= MINIFIED_MAX_LINE) & (ws_frac < MINIFIED_WS_FRAC) & (n_chars > 0)
    )
    return {
        "n_lines": pa.array(n_lines),
        "max_line_len": pa.array(max_line_len),
        "comment_lines": pa.array(comment_lines),
        "comment_frac": pa.array(comment_frac),
        "ws_frac": pa.array(ws_frac),
        "autogen": autogen,
        "minified": minified,
    }


class CodeMetrics:
    """map_batches callable: appends the metric columns to each batch."""

    def __init__(self, content_col: str = "content"):
        self.content_col = content_col

    def __call__(self, tbl: pa.Table) -> pa.Table:
        cols = code_metrics_table(tbl.column(self.content_col))
        for name, arr in cols.items():
            tbl = tbl.append_column(name, arr)
        return tbl


def code_metrics(ds, *, content_col: str = "content"):
    """Dataset -> Dataset with the metric columns appended."""
    return ds.map_batches(
        CodeMetrics(content_col), batch_format="pyarrow", zero_copy_batch=True
    )
