"""License detection over a source-code corpus + per-repo majority vote.

Per file: first matching pattern in PRIORITY order wins (SPDX tag or
license-text phrase), else ``"unknown"`` — a handful of RE2 matches per
batch, vectorized ``if_else`` chain, no Python per row.

Per repo: majority license with a deterministic tie-break (higher count
first, then license name ascending) — per-batch (repo, license) partial
counts, ONE ``groupby`` exchange, then the existing partitioned
``row_number`` window (functions/window_rank.py) picks the winner, so the
argmax itself is distributed and a 10^8-repo corpus never collects to the
driver.

Reference parity: GX would express the per-file step as
expect_column_values_to_match_regex_list over content; the majority
rollup mirrors its per-group ValidationResult rollups (SURVEY.md §2).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.functions.bucketed import group_aggregate

# priority order: first match wins
DEFAULT_LICENSE_PATTERNS: tuple[tuple[str, str], ...] = (
    ("mit", r"SPDX-License-Identifier: MIT|MIT License"),
    ("apache-2.0", r"Apache License"),
    ("gpl", r"GNU General Public License"),
    ("bsd", r"BSD [0-9]-Clause"),
)


def detect_license_array(
    content: pa.Array | pa.ChunkedArray,
    patterns: tuple[tuple[str, str], ...] = DEFAULT_LICENSE_PATTERNS,
) -> pa.Array:
    """License label per row (first matching pattern wins)."""
    if isinstance(content, pa.ChunkedArray):
        content = content.combine_chunks()
    s = pc.cast(pc.fill_null(content, ""), pa.large_string())
    out = pa.array(["unknown"] * len(s), pa.string())
    # build the chain back-to-front so earlier patterns take priority
    for name, pat in reversed(patterns):
        out = pc.if_else(pc.match_substring_regex(s, pat), name, out)
    return out


class LicenseTagger:
    """map_batches callable: appends a ``license`` column."""

    def __init__(self, content_col: str = "content",
                 patterns: tuple[tuple[str, str], ...] = DEFAULT_LICENSE_PATTERNS):
        self.content_col = content_col
        self.patterns = patterns

    def __call__(self, tbl: pa.Table) -> pa.Table:
        return tbl.append_column(
            "license", detect_license_array(tbl.column(self.content_col), self.patterns)
        )


def tag_licenses(ds, *, content_col: str = "content",
                 patterns: tuple[tuple[str, str], ...] = DEFAULT_LICENSE_PATTERNS):
    return ds.map_batches(
        LicenseTagger(content_col, patterns),
        batch_format="pyarrow", zero_copy_batch=True,
    )


def repo_majority_license(
    ds,
    *,
    repo_col: str = "repo",
    content_col: str = "content",
    patterns: tuple[tuple[str, str], ...] = DEFAULT_LICENSE_PATTERNS,
):
    """Dataset -> Dataset[(repo, license, cnt)], one row per repo: its
    majority license (ties -> lexicographically smallest license)."""
    from great_expectations_ray.functions.window_rank import windowed_rank

    tagged = tag_licenses(ds, content_col=content_col, patterns=patterns)

    def local_counts(tbl: pa.Table) -> pa.Table:
        g = group_aggregate(tbl.select([repo_col, "license"]), [repo_col, "license"],
                            [([], "count_all")])
        return pa.table({
            repo_col: g.column(repo_col),
            "license": g.column("license"),
            "cnt": pc.cast(g.column("count_all"), pa.int64()),
        })

    counts = (
        tagged.map_batches(local_counts, batch_format="pyarrow", zero_copy_batch=True)
        .groupby([repo_col, "license"])
        .sum("cnt")
        .rename_columns([repo_col, "license", "cnt"])
    )
    ranked = windowed_rank(
        counts,
        partition_by=repo_col,
        order_by=[("cnt", "desc"), "license"],
        outputs=("row_number",),
    )

    def keep_first(tbl: pa.Table) -> pa.Table:
        return tbl.filter(pc.equal(tbl.column("row_number"), 1)).drop_columns(
            ["row_number"]
        )

    return ranked.map_batches(keep_first, batch_format="pyarrow", zero_copy_batch=True)
