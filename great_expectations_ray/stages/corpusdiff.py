"""Corpus diff — dataset versioning between two snapshots of a corpus:
which documents were ADDED, REMOVED, CHANGED (same id, different content)
or UNCHANGED.  The audit artifact an incremental-crawl pipeline publishes
next to each release (and the precondition for incremental downstream
recompute: only added+changed docs re-enter the pipeline).

Distributed shape: each side projects to ``(id, content-hash)`` — document
bytes never move — then a side-tagged union meets in ONE bucketed exchange
on id; per id the status falls out of which sides are present and whether
the hashes agree.  Hashes ride ``scrub.sha256_column`` (straight off the
Arrow buffer).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

def diff_corpora(old_ds, new_ds, *, id_col: str = "doc_id",
                 content_col: str = "text", n_buckets: int = 64):
    """Dataset of (id_col, status) over the UNION of both sides' ids."""
    from great_expectations_ray.functions.bucketed import tag_sides, two_sided_exchange
    from great_expectations_ray.stages.scrub import sha256_column

    def project(tbl: pa.Table) -> pa.Table:
        tbl = tbl.filter(pc.is_valid(tbl.column(id_col)))  # a null id is no doc
        return pa.table({id_col: tbl.column(id_col),
                         "h": sha256_column(tbl.column(content_col))})

    old, new = (d.select_columns([id_col, content_col]).map_batches(
        project, batch_format="pyarrow", zero_copy_batch=True) for d in (old_ds, new_ds))

    def resolve(o: pa.Table, n: pa.Table) -> pa.Table:
        g = pa.concat_tables([
            t.append_column("side", pa.array(np.full(t.num_rows, side, dtype=np.int8)))
            for side, t in ((0, o), (1, n))])
        g = g.group_by(id_col).aggregate(
            [("side", "min"), ("side", "max"), ("h", "count_distinct")])
        lo, hi = np.asarray(g.column("side_min")), np.asarray(g.column("side_max"))
        status = np.where(lo == 1, "added", np.where(
            hi == 0, "removed",
            np.where(np.asarray(g.column("h_count_distinct")) > 1, "changed", "unchanged")))
        return pa.table({id_col: g.column(id_col), "status": pa.array(status, pa.string())})

    return two_sided_exchange(tag_sides(old, new, [id_col], n_buckets=n_buckets), resolve)
