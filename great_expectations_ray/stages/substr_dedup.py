"""Exact duplicate-substring detection — the ExactSubstr pass of
"Deduplicating Training Data Makes Language Models Better" (Lee et al.,
ACL 2022), re-expressed for Ray Data.

The paper builds a corpus-wide suffix array; the equivalent Ray shape is
fixed ``window``-char windows at EVERY position (stride=1, the default):
any cross-document substring of length >= window produces colliding
windows, exactly.  ``stride > 1`` cuts the explode volume by that factor
but is position-SENSITIVE (two docs sample a shared span at different
alignments unless its offsets agree mod stride) — for robust sampled
detection at 100 TB use the content-defined winnowing fingerprints
(stages/fingerprint.py, ``fingerprint_overlap_docs``), which pick the
same positions inside a shared span regardless of alignment; this stage
is the exact verifier.

Pipeline (two exchanges, both bucketed):

1. explode: per batch, windows are sliced straight off the Arrow byte
   buffer with one numpy 2-D gather (no per-row Python) ->
   (doc_id, pos, win) rows; shuffle volume = len(text)/stride rows/doc.
2. ``groupby(win)`` [bucketed]: keep rows whose window occurs in >= 2
   DISTINCT docs (within-doc repeats alone don't mark — cross-document
   duplication only, the variant CCNet/RefinedWeb apply).
3. ``groupby(doc_id)`` [bucketed, with map-side partial agg]: per-doc
   duplicated-window count and first duplicated position — this second
   exchange only carries the (usually tiny) duplicated subset.

Positions are 0-based BYTE offsets and windows are raw byte slices
(``large_binary`` — a byte window may split a multi-byte UTF-8 sequence);
for ASCII corpora byte and character semantics coincide, which is what
the DuckDB ``substr`` oracle asserts (TESTDATA documents are ASCII).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.functions.bucketed import (
    distinct_in_group,
    grouped_apply_bucketed,
    key_groups,
)
from great_expectations_ray.stages._per_worker import map_per_worker
from great_expectations_ray.stages.text_stats import string_buffer


def window_table(
    content: pa.Array | pa.ChunkedArray,
    doc_ids: pa.Array | pa.ChunkedArray,
    *,
    window: int,
    stride: int,
) -> pa.Table:
    """(doc_id, pos, win) for every sampled window — one numpy gather."""
    if isinstance(doc_ids, pa.ChunkedArray):
        doc_ids = doc_ids.combine_chunks()
    data, offs = string_buffer(content)
    lens = offs[1:] - offs[:-1]
    n_wins = np.maximum((lens - window) // stride + 1, 0)
    total = int(n_wins.sum())
    empty = pa.table({
        "doc_id": pa.array([], doc_ids.type),
        "pos": pa.array([], pa.int64()),
        "win": pa.array([], pa.large_binary()),
    })
    if total == 0:
        return empty
    row = np.repeat(np.arange(len(lens), dtype=np.int64), n_wins)
    # window index within its row
    starts = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(n_wins, out=starts[1:])
    widx = np.arange(total, dtype=np.int64) - np.repeat(starts[:-1], n_wins)
    pos = widx * stride
    abs_start = offs[:-1][row] + pos
    # n x window uint8 gather -> one contiguous buffer
    # windows are raw BYTE slices: typed large_binary, because a byte-offset
    # window may split a multi-byte UTF-8 sequence — binary equality is the
    # dedup contract and never produces an invalid string array
    win_bytes = data[abs_start[:, None] + np.arange(window, dtype=np.int64)]
    win_buf = pa.py_buffer(win_bytes.tobytes())
    win_offs = pa.py_buffer(
        (np.arange(total + 1, dtype=np.int64) * window).tobytes())
    wins = pa.Array.from_buffers(
        pa.large_binary(), total, [None, win_offs, win_buf])
    return pa.table({
        "doc_id": doc_ids.take(pa.array(row)),
        "pos": pa.array(pos),
        "win": wins,
    })


def duplicate_substrings(
    ds,
    *,
    content_col: str = "text",
    id_col: str = "doc_id",
    window: int = 40,
    stride: int = 1,
    candidate_filter: bool = False,
    candidate_k: int = 8,
    candidate_w: int = 4,
    max_broadcast_ids: int = 1_000_000,
):
    """Dataset[(doc_id, dup_windows, first_dup_pos)] for documents holding
    at least one window shared with ANOTHER document.

    ``candidate_filter=True`` runs the winnowing candidate pass first
    (``fingerprint_candidate_ids``) and feeds ONLY flagged docs into the
    every-position exact pass, so the ~``window``× byte amplification of
    stride=1 applies to the candidate subset, not the corpus.  Exactness is
    preserved when ``window >= candidate_w + candidate_k - 1`` (the
    winnowing guarantee: every shared span that long yields >= 1 common
    fingerprint, so both docs are candidates).  The candidate-id set is
    bounded by |docs that actually share content| — corpus-scale on a crawl
    with 30-50% dup rates — so the driver never pulls it wholesale: the
    materialized id set is counted, and above ``max_broadcast_ids`` the
    semi-filter runs as a bucketed semi-join (``hash_bucket_join``
    ``how="semi"``, one exchange, ids stay in the object store); at or
    below the cap the ids broadcast via ``ray.put`` (cheaper: no exchange
    of the corpus side)."""
    if candidate_filter:
        if window < candidate_w + candidate_k - 1:
            raise ValueError(
                f"window={window} < w+k-1={candidate_w + candidate_k - 1}: "
                "the candidate filter would miss short shared spans"
            )
        from great_expectations_ray.functions.joins import (
            broadcast_semi_anti,
            hash_bucket_join,
        )
        from great_expectations_ray.stages.fingerprint import (
            fingerprint_candidate_ids,
        )

        cand = fingerprint_candidate_ids(
            ds, id_col=id_col, text_col=content_col,
            k=candidate_k, w=candidate_w,
        ).materialize()  # id-only rows, object-store resident
        if cand.count() <= max_broadcast_ids:
            cand_ids = {r[id_col] for r in cand.take_all()}
            ds = broadcast_semi_anti(ds, cand_ids, on=id_col)
        else:
            ds = hash_bucket_join(ds, cand, on=id_col, n_buckets=64, how="semi")

    def explode(tbl: pa.Table) -> pa.Table:
        return window_table(
            tbl.column(content_col), tbl.column(id_col),
            window=window, stride=stride)

    exploded = ds.select_columns([id_col, content_col]).map_batches(
        explode, batch_format="pyarrow", zero_copy_batch=True)

    def keep_cross_doc_dups(g: pa.Table) -> pa.Table:
        return g.select([id_col, "pos"]).filter(
            pa.array(distinct_in_group(g, "win", id_col) >= 2))

    dup_rows = grouped_apply_bucketed(exploded, ["win"], keep_cross_doc_dups)

    def local_agg(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by(id_col).aggregate([("pos", "count"), ("pos", "min")])
        return pa.table({
            id_col: g.column(id_col),
            "dup_windows": pc.cast(g.column("pos_count"), pa.int64()),
            "first_dup_pos": pc.cast(g.column("pos_min"), pa.int64()),
        })

    partials = dup_rows.map_batches(
        local_agg, batch_format="pyarrow", zero_copy_batch=True)

    def merge(g: pa.Table) -> pa.Table:
        out = g.group_by(id_col).aggregate([("dup_windows", "sum"),
                                            ("first_dup_pos", "min")])
        return out.rename_columns([id_col, "dup_windows", "first_dup_pos"]) \
            .select([id_col, "dup_windows", "first_dup_pos"])

    return grouped_apply_bucketed(partials, [id_col], merge)


def duplicate_occurrence_cuts(
    ds,
    *,
    content_col: str = "text",
    id_col: str = "doc_id",
    window: int = 40,
):
    """Dataset[(doc_id, start, end)] of byte ranges to DELETE under the
    keep-first rule: for every window shared by >= 2 distinct docs, the
    lexicographically smallest ``(doc_id, pos)`` occurrence is the keeper;
    every other occurrence marks ``[pos, pos+window)`` for removal.
    Overlapping/adjacent marks per doc are merged into maximal ranges, so a
    duplicated span of ANY length >= window becomes one contiguous cut
    (stride is fixed at 1 — removal needs every position).

    Exactly ONE occurrence of each cross-doc-shared window survives
    corpus-wide: extra occurrences INSIDE the keeper doc are cut too, and a
    self-overlapping periodic run (e.g. ``'x' * 100``) collapses to its
    first window even in the keeper."""

    def explode(tbl: pa.Table) -> pa.Table:
        return window_table(
            tbl.column(content_col), tbl.column(id_col),
            window=window, stride=1)

    exploded = ds.select_columns([id_col, content_col]).map_batches(
        explode, batch_format="pyarrow", zero_copy_batch=True)

    def non_keepers(g: pa.Table) -> pa.Table:
        g, bounds = key_groups(g, ["win"], [(id_col, "ascending"), ("pos", "ascending")])
        drop = distinct_in_group(g, "win", id_col) >= 2
        drop[bounds[:-1]] = False  # the keeper: each window's first occurrence
        return g.select([id_col, "pos"]).filter(pa.array(drop))

    marks = grouped_apply_bucketed(exploded, ["win"], non_keepers)

    def merge_ranges(g: pa.Table) -> pa.Table:
        g, bounds = key_groups(g, [id_col], [("pos", "ascending")])
        pos = np.asarray(pc.cast(g.column("pos"), pa.int64()))
        end = pos + window
        # Fully vectorized interval merge.  All marks share one window width,
        # so end = pos + window is monotone nondecreasing within a doc's
        # pos-sorted marks — the running max of previous ends IS end[i-1],
        # and a mark opens a new merged range iff it starts a new doc or its
        # pos clears the previous mark's end.
        new_range = np.zeros(len(pos), dtype=bool)
        new_range[1:] = pos[1:] > end[:-1]
        new_range[bounds[:-1]] = True
        firsts = np.flatnonzero(new_range)
        lasts = np.append(firsts[1:], len(pos)) - 1
        return pa.table({id_col: g.column(id_col).take(firsts),
                         "start": pa.array(pos[firsts]), "end": pa.array(end[lasts])})

    return grouped_apply_bucketed(marks, [id_col], merge_ranges)


class _CutRewriter:
    """Cuts each row's sorted byte ``ranges`` (``{doc id: [(start, end)]}``)
    out of ``content_col`` and appends ``removed_bytes`` / ``n_cuts``."""

    def __init__(self, cut_ref, id_col: str, content_col: str):
        import ray

        self.cuts = ray.get(cut_ref) if not isinstance(cut_ref, dict) else cut_ref
        self.cut_ids = pa.array(list(self.cuts))
        self.id_col, self.content_col = id_col, content_col

    def __call__(self, tbl: pa.Table) -> pa.Table:
        ids = tbl.column(self.id_col)
        content = tbl.column(self.content_col)
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        content = pc.cast(pc.fill_null(content, ""), pa.string())
        removed = np.zeros(len(ids), dtype=np.int64)
        n_cuts = np.zeros(len(ids), dtype=np.int64)
        mask = np.asarray(pc.fill_null(pc.is_in(ids, value_set=self.cut_ids), False))
        hit = np.flatnonzero(mask)
        if not len(hit):
            out_content = content
        else:
            # only affected rows are pulled to Python; the rest of the
            # batch stays on the Arrow buffer (replace_with_mask)
            reps: list[str] = []
            for i, d in zip(hit, ids.take(hit).to_pylist()):
                ranges = self.cuts[d]
                b = content[i].as_py().encode("utf-8")
                pieces, last = [], 0
                for s, e in ranges:
                    pieces.append(b[last:s])
                    last = e
                pieces.append(b[last:])
                reps.append(b"".join(pieces).decode("utf-8", "replace"))
                removed[i] = sum(e - s for s, e in ranges)
                n_cuts[i] = len(ranges)
            out_content = pc.replace_with_mask(
                content, pa.array(mask), pa.array(reps, pa.string()))
        tbl = tbl.set_column(
            tbl.column_names.index(self.content_col), self.content_col, out_content)
        return (tbl.append_column("removed_bytes", pa.array(removed))
                   .append_column("n_cuts", pa.array(n_cuts)))


def remove_duplicate_substrings(
    ds,
    *,
    content_col: str = "text",
    id_col: str = "doc_id",
    window: int = 40,
    max_broadcast_cuts: int = 2_000_000,
):
    """ExactSubstr REMOVAL (the rewrite half of Lee et al. 2022): returns
    the corpus with every non-keeper duplicated span cut out, plus
    ``removed_bytes`` / ``n_cuts`` per doc.  The cut map covers only the
    duplicated subset — but on a crawl corpus with 30-50% dup rates that
    subset is corpus-scale, so the driver pull is capped: the materialized
    cut dataset is counted, and above ``max_broadcast_cuts`` rows the
    rewrite switches to a bucketed join of per-doc cut lists onto the
    corpus (ids/ranges stay in the object store); at or below the cap the
    map is collected once and broadcast via ``ray.put`` (fetched once per
    worker — the _BoilerplateRewriter pattern; cheaper, no corpus exchange).  Cuts
    are BYTE ranges; on non-ASCII content a cut can split a UTF-8 sequence,
    decoded with errors='replace' (deterministic, and byte==char on the
    ASCII testdata)."""
    import ray

    cuts_ds = duplicate_occurrence_cuts(
        ds, content_col=content_col, id_col=id_col,
        window=window).materialize()
    if cuts_ds.count() > max_broadcast_cuts:
        return _remove_cuts_joined(ds, cuts_ds, content_col=content_col,
                                   id_col=id_col)
    cuts = cuts_ds.take_all()
    cut_map: dict = {}
    for r in cuts:
        cut_map.setdefault(r[id_col], []).append((r["start"], r["end"]))
    for v in cut_map.values():
        v.sort()
    ref = ray.put(cut_map)

    return map_per_worker(
        ds, _CutRewriter,
        {"cut_ref": ref, "id_col": id_col, "content_col": content_col},
        batch_format="pyarrow", zero_copy_batch=True)


def _remove_cuts_joined(ds, cuts_ds, *, content_col: str, id_col: str):
    """Over-cap rewrite: per-doc cut lists meet the corpus in a bucketed
    join; the cut map never lands on the driver.  Per-doc ranges serialize
    to one ``"s-e,s-e"`` string (Arrow's join carries no list columns — the
    boilerplate-fallback pattern), and the rewrite is Arrow-native."""
    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed, joined_per_key
    from great_expectations_ray.functions.joins import hash_bucket_join

    def agg_cuts(g: pa.Table) -> pa.Table:
        r = pc.binary_join_element_wise(pc.cast(g.column("start"), pa.string()),
                                        pc.cast(g.column("end"), pa.string()), "-")
        return joined_per_key(g.append_column("__r", r), [id_col], "__r", "__cuts",
                              order_by=["start"])

    cut_lists = grouped_apply_bucketed(cuts_ds, [id_col], agg_cuts)
    joined = hash_bucket_join(ds, cut_lists, on=id_col, how="left")

    def rewrite(tbl: pa.Table) -> pa.Table:
        cuts_col = tbl.column("__cuts").combine_chunks()
        content = pc.fill_null(tbl.column(content_col).combine_chunks(), "")
        hit = pc.is_valid(cuts_col).to_numpy(zero_copy_only=False)
        n = tbl.num_rows
        removed = np.zeros(n, dtype=np.int64)
        n_cuts = np.zeros(n, dtype=np.int64)
        if hit.any():
            reps: list[str] = []
            for i in np.flatnonzero(hit):
                ranges = [tuple(map(int, p.split("-")))
                          for p in cuts_col[i].as_py().split(",")]
                b = content[i].as_py().encode("utf-8")
                pieces, last = [], 0
                for s, e in ranges:
                    pieces.append(b[last:s])
                    last = e
                pieces.append(b[last:])
                reps.append(b"".join(pieces).decode("utf-8", "replace"))
                removed[i] = sum(e - s for s, e in ranges)
                n_cuts[i] = len(ranges)
            content = pc.replace_with_mask(
                content, pa.array(hit), pa.array(reps, content.type))
        out = tbl.drop_columns(["__cuts"])
        out = out.set_column(out.column_names.index(content_col), content_col,
                             content)
        return (out.append_column("removed_bytes", pa.array(removed))
                .append_column("n_cuts", pa.array(n_cuts)))

    return joined.map_batches(rewrite, batch_format="pyarrow",
                              zero_copy_batch=True)
