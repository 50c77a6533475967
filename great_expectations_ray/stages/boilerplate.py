"""Boilerplate line removal — drop lines that appear in many documents
(cookie banners, nav menus, license footers).  The CCNet/RefinedWeb-style
corpus cleanup between paragraph dedup (stages/paragraph_dedup.py, which
keeps ONE copy) and C4's line rules (stages/c4_filters.py, which judge
each line locally): here a line's verdict depends on its corpus-wide
DOCUMENT frequency, and every occurrence is dropped.

Two passes:

1. document-frequency: per batch, split to lines, dedupe (doc, line)
   pairs locally, pre-aggregate per-line partial counts — so the ONE
   ``groupby(line)`` exchange moves at most |distinct lines| rows per
   batch — then filter df >= min_docs.
2. rewrite: the frequent-line set is broadcast once via ``ray.put``
   (fetched per worker in ``__init__``), each batch filters its flattened
   line array with one ``is_in`` and rebuilds content with
   ``ListArray.from_arrays`` + ``binary_join`` — no Python per row.

Scale note: |lines with df >= T| <= total_lines / T, so the broadcast is
bounded by corpus_size/T — with T in the thousands at 100 TB this is
MBs.  ``max_set_size`` guards the assumption; above it (and given an
``id_col``) the rewrite switches automatically to the bucketed-join path:
explode docs to (id, pos, line), inner hash-bucket join against the
frequent set on line, re-bucket the dropped positions by id, left-join
them back onto the docs, and rewrite each batch from its own drop
positions.  Four exchanges instead of zero extra — the documented cost of
a frequent set too large to broadcast — but no driver-side collection and
no whole-set copy per node.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from great_expectations_ray.stages._per_worker import map_per_worker


def _line_list(content: pa.Array | pa.ChunkedArray) -> pa.ListArray:
    if isinstance(content, pa.ChunkedArray):
        content = content.combine_chunks()
    s = pc.cast(pc.fill_null(content, ""), pa.large_string())
    return pc.split_pattern(s, "\n")


class _LineDocFreq:
    """batch -> (line, df) local partials: each line counted once per doc."""

    def __init__(self, content_col: str):
        self.content_col = content_col

    def __call__(self, tbl: pa.Table) -> pa.Table:
        # SQL semantics: split(NULL) yields no lines — a NULL doc must not
        # count an empty line toward any document frequency
        col = tbl.column(self.content_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        col = col.filter(pc.is_valid(col))
        lines = _line_list(col)
        loff = np.asarray(lines.offsets, dtype=np.int64)
        rid = np.repeat(np.arange(len(loff) - 1, dtype=np.int64), np.diff(loff))
        pairs = pa.table({"rid": pa.array(rid), "line": lines.values})
        uniq = pairs.group_by(["rid", "line"]).aggregate([])
        g = uniq.group_by("line").aggregate([([], "count_all")])
        return pa.table({
            "line": g.column("line"),
            "df": pc.cast(g.column("count_all"), pa.int64()),
        })


def frequent_lines(ds, *, content_col: str = "content", min_docs: int,
                   n_buckets: int = 256):
    """Dataset[(line, df)] of lines appearing in >= min_docs documents.

    Line cardinality is corpus-scale, so the partial-sum merge runs on the
    bucketed substrate (``functions/bucketed.py``) — Ray's native
    ``groupby(line)`` pays per-GROUP reduce overhead that is pathological at
    high cardinality (~50x measured at 10M distinct keys).  The min_docs
    filter applies inside the bucket merge, so infrequent lines never leave
    the exchange stage."""
    from great_expectations_ray.functions.bucketed import (
        grouped_apply_bucketed,
        sum_by_key,
    )

    partials = ds.map_batches(
        _LineDocFreq(content_col), batch_format="pyarrow", zero_copy_batch=True
    )

    def merge(t: pa.Table) -> pa.Table:
        tot = sum_by_key(t, ["line"], "df")
        return tot.filter(pc.greater_equal(tot.column("df"), min_docs))

    return grouped_apply_bucketed(partials, ["line"], merge,
                                  n_buckets=n_buckets, batch_format="pyarrow")


class _BoilerplateRewriter:
    """Drops broadcast frequent lines; emits clean content + n_dropped."""

    def __init__(self, lines_ref, content_col: str):
        self.content_col = content_col
        lines = lines_ref if isinstance(lines_ref, pa.Array) else ray.get(lines_ref)
        self.drop_set = pc.cast(lines, pa.large_string())

    def __call__(self, tbl: pa.Table) -> pa.Table:
        orig = tbl.column(self.content_col)
        if isinstance(orig, pa.ChunkedArray):
            orig = orig.combine_chunks()
        lines = _line_list(orig)
        loff = np.asarray(lines.offsets, dtype=np.int64)
        flat = lines.values
        keep = pc.invert(pc.is_in(flat, value_set=self.drop_set))
        keep_np = keep.to_numpy(zero_copy_only=False)
        # cumulative kept count at every row boundary IS the new offsets
        new_off = np.concatenate(([0], np.cumsum(keep_np, dtype=np.int64)))[loff]
        rebuilt = pa.LargeListArray.from_arrays(
            pa.array(new_off, pa.int64()), flat.filter(keep)
        )
        clean = pc.binary_join(rebuilt, pa.scalar("\n", pa.large_string()))
        n_dropped = pa.array(np.diff(loff) - np.diff(new_off))
        # SQL null semantics: string ops on NULL content yield NULL — never
        # silently rewrite a null row to ''
        null_mask = pc.is_null(orig)
        clean = pc.if_else(null_mask, pa.scalar(None, pa.large_string()), clean)
        n_dropped = pc.if_else(null_mask, pa.scalar(None, pa.int64()),
                               pc.cast(n_dropped, pa.int64()))
        return (
            tbl.drop_columns([self.content_col])
            .append_column(self.content_col, clean)
            .append_column("n_dropped", n_dropped)
        )


class _ExplodeLines:
    """(id, content) batch -> one row per line: (id, __pos, line).
    NULL docs emit no rows (split(NULL) yields no lines)."""

    def __init__(self, id_col: str, content_col: str):
        self.id_col = id_col
        self.content_col = content_col

    def __call__(self, tbl: pa.Table) -> pa.Table:
        content = tbl.column(self.content_col)
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        valid = pc.is_valid(content)
        tbl = tbl.filter(valid)
        content = content.filter(valid)
        lines = _line_list(content)
        loff = np.asarray(lines.offsets, dtype=np.int64)
        counts = np.diff(loff)
        rid = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        # position of each line within its own doc
        pos = np.arange(loff[-1], dtype=np.int64) - np.repeat(loff[:-1], counts)
        ids = tbl.column(self.id_col)
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        return pa.table({
            self.id_col: ids.take(pa.array(rid)),
            "__pos": pa.array(pos),
            "line": lines.values,
        })


class _PositionRewriter:
    """Rewrites content from a per-row drop-position list (joined column
    ``__drop_pos``, comma-joined string of line indices; null = no drops).

    Arrow-native: unaffected rows stay on the Arrow buffer; only rows with a
    drop list are pulled to Python and written back via ``replace_with_mask``
    (the luhn/substr scrub pattern)."""

    def __init__(self, content_col: str):
        self.content_col = content_col

    def __call__(self, tbl: pa.Table) -> pa.Table:
        content = tbl.column(self.content_col).combine_chunks()
        pos = tbl.column("__drop_pos").combine_chunks()
        content_null = pc.is_null(content).to_numpy(zero_copy_only=False)
        has_pos = np.logical_and(
            pc.is_valid(pos).to_numpy(zero_copy_only=False),
            pc.not_equal(pc.fill_null(pos, ""), "")
            .to_numpy(zero_copy_only=False),
        )
        affected = has_pos & ~content_null
        counts = np.zeros(tbl.num_rows, dtype=np.int64)
        if affected.any():
            reps: list[str] = []
            for i in np.flatnonzero(affected):
                drop = np.array(pos[i].as_py().split(","), dtype=np.int64)
                lines = content[i].as_py().split("\n")
                keep = np.ones(len(lines), dtype=bool)
                keep[drop] = False
                reps.append("\n".join(
                    l for l, k in zip(lines, keep) if k))
                counts[i] = len(drop)
            content = pc.replace_with_mask(
                content, pa.array(affected), pa.array(reps, content.type))
        n_dropped = pa.array(counts, pa.int64(), mask=content_null)
        out = tbl.drop_columns(["__drop_pos", self.content_col])
        return (out.append_column(self.content_col, content)
                .append_column("n_dropped", n_dropped))


def _remove_boilerplate_joined(
    ds, freq, *, content_col: str, id_col: str, n_buckets: int = 64
):
    """Over-cap fallback: no broadcast — the frequent set ``freq`` (the
    materialized :func:`frequent_lines`) stays distributed.

    explode(id, pos, line) ⋈ frequent(line)  [bucketed on line]
      → (id, pos) dropped occurrences
      → grouped_apply_bucketed on id → (id, '3,17,42')
      → ds ⋈ positions [bucketed on id] → per-batch position rewrite
    """
    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed
    from great_expectations_ray.functions.joins import hash_bucket_join

    exploded = ds.select_columns([id_col, content_col]).map_batches(
        _ExplodeLines(id_col, content_col),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    dropped = hash_bucket_join(
        exploded, freq, on="line", n_buckets=n_buckets, how="semi",
    ).select_columns([id_col, "__pos"])

    def agg_positions(g):
        import pandas as pd

        gb = g.groupby(id_col, sort=False)["__pos"].agg(
            lambda s: ",".join(map(str, sorted(s)))
        )
        return pd.DataFrame({id_col: gb.index, "__drop_pos": gb.values})

    per_id = grouped_apply_bucketed(dropped, [id_col], agg_positions,
                                    n_buckets=n_buckets)
    joined = hash_bucket_join(ds, per_id, on=id_col, n_buckets=n_buckets,
                              how="left")
    return joined.map_batches(
        _PositionRewriter(content_col),
        batch_format="pyarrow", zero_copy_batch=True,
    )


def remove_boilerplate(
    ds,
    *,
    content_col: str = "content",
    min_docs: int,
    max_set_size: int = 5_000_000,
    id_col: str | None = None,
):
    """Dataset with frequent lines removed from ``content_col`` and a
    per-row ``n_dropped`` count.  Two passes over the input (df then
    rewrite) — pass the same Dataset twice, it re-streams.

    If the frequent-line set exceeds ``max_set_size`` and ``id_col`` names a
    unique row key, the rewrite switches to the bucketed-join path (module
    docstring) instead of broadcasting; with no ``id_col`` it still fails
    loudly."""
    # materialized: the size check and the joined fallback share one exchange
    freq = frequent_lines(ds, content_col=content_col,
                          min_docs=min_docs).materialize()
    head = freq.take(max_set_size + 1)
    if len(head) > max_set_size:
        if id_col is None:
            raise ValueError(
                f"frequent-line set exceeds max_set_size={max_set_size}; "
                "raise min_docs or pass id_col= to enable the bucketed-join "
                "fallback"
            )
        return _remove_boilerplate_joined(
            ds, freq, content_col=content_col, id_col=id_col
        )
    drop = pa.array([r["line"] for r in head], pa.large_string())
    ref = ray.put(drop)
    return map_per_worker(
        ds, _BoilerplateRewriter, {"lines_ref": ref, "content_col": content_col},
        batch_format="pyarrow", zero_copy_batch=True,
    )
