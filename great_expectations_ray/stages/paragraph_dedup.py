"""Corpus-level paragraph deduplication — remove every repeated paragraph
occurrence beyond its global first (Lee et al. 2021, "Deduplicating Training
Data Makes Language Models Better"; the paragraph/line-level variant used by
CCNet / RefinedWeb).  Not in the reference (GX only detects row-level
duplicates — ``column_values.unique``); a training-data engine needs the
sub-document rewrite.

Scalable shape (two narrow exchanges, text shuffled at most once):

1. **Explode** (map_batches, vectorized): split ``text`` on ``sep`` with one
   ``pc.split_pattern`` per batch, index paragraphs off the list offsets, and
   key each participating paragraph (length ≥ ``min_len``) by the first 128
   bits of its sha256 — so the exchange ships ``(doc_id, para_idx, 32-char
   key)`` instead of paragraph text (~3% of corpus bytes for typical prose).
2. **Keep-first marks** (ONE bucketed exchange on the key —
   ``functions/bucketed.py``): per hash bucket, a vectorized
   ``sort + duplicated(keep='first')`` emits only the LOSERS
   ``(doc_id, para_idx)``.  Equal keys always share a bucket, so the global
   winner (minimum ``(doc_id, para_idx)``) is exact; a mega duplicate class
   (boilerplate license header) costs its bucket O(rows), never O(pairs).
3. **Rebuild**: drop lists aggregate per doc (tiny — only docs that lose a
   paragraph), then join back and re-split/filter/rejoin affected docs only.
   ``broadcast_drops=True`` publishes the drop lists once via ``ray.put``
   (zero doc-text shuffle — the scale path whenever drops fit in memory,
   the common case); otherwise an explicit bucketed hash join co-locates
   docs with their drop lists (doc text crosses the wire exactly once).

sha256 keying means dedup-by-content-hash (collision odds ~2^-64 at 10^12
paragraphs), the standard production trade; the DuckDB oracle partitions by
the paragraph text itself, so any collision would surface as a gate mismatch.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.stages._per_worker import map_per_worker
from great_expectations_ray.stages.scrub import sha256_column


def explode_paragraph_keys(
    ds,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    sep: str = "\n",
    min_len: int = 1,
):
    """Dataset of ``(id_col, para_idx, __pkey)`` — one row per paragraph of
    length ≥ ``min_len``, keyed by sha256[:32].  ``para_idx`` is the
    paragraph's position in the FULL split (0-based), so drops map straight
    back onto a later re-split."""

    def explode(tbl: pa.Table) -> pa.Table:
        ids = tbl.column(id_col).combine_chunks()
        text = pc.fill_null(tbl.column(text_col).combine_chunks(), "")
        lists = pc.split_pattern(text, sep)
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        flat = lists.flatten()
        offs = np.asarray(lists.offsets, dtype=np.int64)
        offs = offs - offs[0]
        counts = np.diff(offs)
        total = int(offs[-1])
        pidx = np.arange(total, dtype=np.int64) - np.repeat(offs[:-1], counts)
        ids_rep = ids.take(pa.array(np.repeat(np.arange(len(ids)), counts)))
        keep = pc.greater_equal(pc.utf8_length(flat), min_len)
        # hash only the participants (skip short/empty paragraphs entirely)
        paras = flat.filter(keep)
        key = pc.utf8_slice_codeunits(sha256_column(paras), 0, 32)
        return pa.table(
            {
                id_col: ids_rep.filter(keep),
                "para_idx": pa.array(pidx, pa.int32()).filter(keep),
                "__pkey": key,
            }
        )

    return ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)


def paragraph_drop_marks(
    ds,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    sep: str = "\n",
    min_len: int = 1,
    n_buckets: int = 256,
):
    """Dataset of ``(id_col, para_idx)`` — every paragraph occurrence that is
    NOT the global first of its content class.  One bucketed exchange."""
    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed

    exploded = explode_paragraph_keys(
        ds, text_col=text_col, id_col=id_col, sep=sep, min_len=min_len
    )

    def losers(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["__pkey", id_col, "para_idx"], kind="mergesort")
        return g.loc[g.duplicated("__pkey", keep="first"), [id_col, "para_idx"]]

    return grouped_apply_bucketed(exploded, ["__pkey"], losers, n_buckets=n_buckets)


def _rebuild_batch_arrow(tbl: pa.Table, text_col: str, sep: str) -> pa.Table:
    """Arrow-native rewrite of a joined batch (``__drop_idxs``: comma-joined
    paragraph indices, null = no drops): docs with no drop list stay on the
    Arrow buffer (``replace_with_mask`` touches only affected rows)."""
    lists = tbl.column("__drop_idxs").combine_chunks()
    hit = pc.is_valid(lists).to_numpy(zero_copy_only=False)
    n = tbl.num_rows
    n_dropped = np.zeros(n, dtype=np.int32)
    out_text = tbl.column(text_col).combine_chunks()
    if hit.any():
        # only affected rows are pulled to Python
        reps: list[str] = []
        for i in np.flatnonzero(hit):
            drop = {int(x) for x in lists[i].as_py().split(",")}
            parts = (out_text[i].as_py() or "").split(sep)
            reps.append(sep.join(
                p for j, p in enumerate(parts) if j not in drop))
            n_dropped[i] = len(drop)
        out_text = pc.replace_with_mask(
            out_text, pa.array(hit), pa.array(reps, out_text.type))
    out = tbl.drop_columns(["__drop_idxs"])
    out = out.set_column(out.column_names.index(text_col), text_col, out_text)
    return out.append_column("n_dropped", pa.array(n_dropped))


class _ParagraphRewriter:
    """Broadcast-rebuild stage: the drop map is fetched ONCE per worker in
    ``__init__`` (the ``_BoilerplateRewriter`` pattern — no per-batch
    ``ray.get``).  Batches with no affected doc take the Arrow-native fast
    path: append a zero ``n_dropped`` column, no pandas conversion, no
    string work."""

    def __init__(self, drops_ref, text_col: str, id_col: str, sep: str):
        import ray

        self.drops: dict = (
            drops_ref if isinstance(drops_ref, dict) else ray.get(drops_ref)
        )
        self.text_col, self.id_col, self.sep = text_col, id_col, sep
        self.key_set = pa.array(list(self.drops.keys())) if self.drops else None

    def __call__(self, tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        if self.key_set is not None:
            ids = tbl.column(self.id_col)
            if isinstance(ids, pa.ChunkedArray):
                ids = ids.combine_chunks()
            hit = pc.is_in(ids, value_set=self.key_set)
            hit_np = hit.to_numpy(zero_copy_only=False)
        else:
            hit_np = None
        if hit_np is None or not hit_np.any():
            return tbl.append_column(
                "n_dropped", pa.array(np.zeros(n, dtype=np.int32))
            )
        # slow path: rewrite only the affected rows
        idx = np.flatnonzero(hit_np)
        texts = tbl.column(self.text_col).to_pandas().to_numpy(dtype=object)
        id_vals = ids.take(pa.array(idx)).to_pylist()
        n_dropped = np.zeros(n, dtype=np.int32)
        for i, doc_id in zip(idx, id_vals):
            drop = set(int(x) for x in self.drops[doc_id])
            parts = (texts[i] or "").split(self.sep)
            texts[i] = self.sep.join(
                p for j, p in enumerate(parts) if j not in drop
            )
            n_dropped[i] = len(drop)
        # replace in place: fast- and slow-path batches must agree on
        # column order or the block union rejects the mixed schemas
        ti = tbl.schema.get_field_index(self.text_col)
        out = tbl.set_column(
            ti, self.text_col,
            pa.array(texts.tolist(), tbl.schema.field(ti).type),
        )
        return out.append_column("n_dropped", pa.array(n_dropped))


def dedup_paragraphs(
    ds,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    sep: str = "\n",
    min_len: int = 1,
    n_buckets: int = 256,
    broadcast_drops: bool = True,
):
    """Rewrite every document so each distinct paragraph survives exactly
    once corpus-wide (first occurrence by ``(id, position)`` wins); adds
    ``n_dropped``.  See module docstring for the exchange plan."""
    drops = paragraph_drop_marks(
        ds, text_col=text_col, id_col=id_col, sep=sep,
        min_len=min_len, n_buckets=n_buckets,
    )

    if broadcast_drops:
        import ray

        drop_df = drops.to_pandas()
        if drop_df.empty:  # schema-less when no paragraph ever drops
            drop_map: dict = {}
        else:
            drop_map = {
                k: np.asarray(v, dtype=np.int64)
                for k, v in drop_df.groupby(id_col)["para_idx"].agg(list).items()
            }
        ref = ray.put(drop_map)

        return map_per_worker(
            ds, _ParagraphRewriter,
            {"drops_ref": ref, "text_col": text_col, "id_col": id_col, "sep": sep},
            batch_format="pyarrow", zero_copy_batch=True,
        )

    # large-drops path: aggregate per doc, bucketed join, rebuild per batch
    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed
    from great_expectations_ray.functions.joins import hash_bucket_join

    def agg_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # comma-joined string, not a list column: Arrow's join carries no
        # list columns
        out = (
            g.groupby(id_col, sort=False)["para_idx"]
            .agg(lambda s: ",".join(map(str, s)))
            .reset_index()
        )
        return out.rename(columns={"para_idx": "__drop_idxs"})

    drop_lists = grouped_apply_bucketed(drops, [id_col], agg_bucket, n_buckets=n_buckets)
    joined = hash_bucket_join(
        ds, drop_lists, on=id_col, n_buckets=n_buckets, how="left"
    )
    return joined.map_batches(
        lambda tbl: _rebuild_batch_arrow(tbl, text_col, sep),
        batch_format="pyarrow", zero_copy_batch=True,
    )
