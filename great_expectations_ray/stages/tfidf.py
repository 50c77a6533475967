"""TF-IDF keyword extraction — corpus document frequencies + per-document
top-k terms.  Not in the reference (GX has no text analytics); a
training-data pipeline uses it for topic tagging, keyword search indexes and
quality signals over 100-TB corpora.

Scalable shape (ONE narrow exchange, then a broadcast and a stateless pass):

- **Pass A (document frequencies)**: per batch, tokens explode off the Arrow
  list offsets and an Arrow ``group_by`` emits each (doc, term) once;
  partial term counts pre-aggregate map-side, then ONE bucketed exchange
  (``functions/bucketed.py``) sums them — the exchange carries ≤ |batch
  vocab| rows per batch, never token volume.
- **Broadcast**: the (term → df) table — optionally capped by ``min_df`` /
  ``max_vocab`` — rides the pass-B function by value, the standard small-side
  pattern (at web scale the full open vocab
  doesn't broadcast: cap it, or swap pass B's map for a bucketed term join).
- **Pass B (TF + top-k)**: documents never split across rows, so term
  frequencies and the per-doc top-k are BATCH-LOCAL — an Arrow ``group_by``
  and a pandas sort per batch, zero shuffle.

Scoring: ``tfidf = tf * (ln((1+N)/(1+df)) + 1)`` (sklearn's smooth idf).
Top-k selection ranks by the monotone surrogate ``tf*(N+1)/(1+df)`` — an
exact IEEE expression over small integers, bit-identical across engines, so
the selected row SET (including boundary ties, broken by term) is
deterministic; ``ln`` only appears in the reported score, rounded to 6dp.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _explode_terms(tbl: pa.Table, text_col: str, id_col: str, sep: str) -> pa.Table:
    """(id, term) pairs for every non-empty token — vectorized split off the
    Arrow buffers, ids repeated via the list offsets."""
    ids = tbl.column(id_col).combine_chunks()
    text = pc.fill_null(tbl.column(text_col).combine_chunks(), "")
    lists = pc.split_pattern(text, sep)
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    flat = lists.flatten()
    offs = np.asarray(lists.offsets, dtype=np.int64)
    counts = np.diff(offs - offs[0])
    ids_rep = ids.take(pa.array(np.repeat(np.arange(len(ids)), counts)))
    keep = pc.greater(pc.utf8_length(flat), 0)
    return pa.table({id_col: ids_rep.filter(keep), "term": flat.filter(keep)})


def document_frequencies(
    ds,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    sep: str = " ",
    n_buckets: int = 64,
):
    """Dataset of (term, df) — number of documents containing each term.
    Terms group in Arrow, by all their bytes (pandas ``groupby`` over
    object strings stops at the first NUL)."""
    from great_expectations_ray.functions.bucketed import (
        grouped_apply_bucketed,
        sum_by_key,
    )

    def partial_df(tbl: pa.Table) -> pa.Table:
        pairs = _explode_terms(tbl, text_col, id_col, sep)
        g = (pairs.group_by([id_col, "term"]).aggregate([])
             .group_by("term").aggregate([([], "count_all")]))
        return pa.table({"term": pc.cast(g.column("term"), pa.string()),
                         "df": g.column("count_all")})

    partials = ds.map_batches(partial_df, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_apply_bucketed(partials, ["term"],
                                  lambda t: sum_by_key(t, ["term"], "df"),
                                  n_buckets=n_buckets, batch_format="pyarrow")


def tfidf_topk(
    ds,
    *,
    k: int = 5,
    text_col: str = "text",
    id_col: str = "doc_id",
    sep: str = " ",
    min_df: int = 1,
    max_vocab: int | None = None,
    n_buckets: int = 64,
):
    """Top-``k`` terms per document by smooth tf-idf.  Output columns:
    ``(id_col, term, tf, df, tfidf)``; ``tfidf`` rounded to 6dp."""
    n_docs = ds.count()
    df_tbl = document_frequencies(
        ds, text_col=text_col, id_col=id_col, sep=sep, n_buckets=n_buckets
    ).to_pandas()
    if min_df > 1:
        df_tbl = df_tbl[df_tbl["df"] >= min_df]
    if max_vocab is not None and len(df_tbl) > max_vocab:
        df_tbl = df_tbl.sort_values(["df", "term"], ascending=[False, True], kind="mergesort")
        df_tbl = df_tbl.head(max_vocab)
    df_map = df_tbl.set_index("term")["df"]

    def top_k(tbl: pa.Table) -> pd.DataFrame:
        g = (_explode_terms(tbl, text_col, id_col, sep)
             .group_by([id_col, "term"]).aggregate([([], "count_all")]))
        tf = pa.table({id_col: g.column(id_col), "term": g.column("term"),
                       "tf": g.column("count_all")}).to_pandas()
        tf["df"] = tf["term"].map(df_map)
        tf = tf.dropna(subset=["df"])
        tf["df"] = tf["df"].astype(np.int64)
        # rank by the tf-idf value itself (rounded to 6dp so the key is
        # reproducible across engines), term as tie-break — a rational
        # surrogate like tf*(N+1)/(1+df) is NOT monotone in tf-idf
        # across differing tf, so it can select lower-scoring terms
        tf["tfidf"] = np.round(
            tf["tf"].to_numpy()
            * (np.log((1.0 + n_docs) / (1 + tf["df"].to_numpy())) + 1.0),
            6,
        )
        tf = tf.sort_values(
            [id_col, "tfidf", "term"], ascending=[True, False, True],
            kind="mergesort",
        )
        top = tf.groupby(id_col, sort=False).head(k)
        return top.reset_index(drop=True)

    return ds.map_batches(top_k, batch_format="pyarrow")
