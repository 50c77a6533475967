"""Distributed inverted-index construction — the classic retrieval
artifact build (term -> sorted posting list of (doc_id, tf)).

stages/bm25.py scores queries on the fly (query-term-only DF pass); this
stage MATERIALIZES the full index, the batch artifact a search/retrieval
system ingests:

1. Per batch (vectorized, reusing ``dictmatch._tokenize_batch``'s Arrow
   tokenize + dictionary-encode): per-(doc, distinct-term) term frequencies
   via one ``np.unique`` over ``doc*V + term`` keys — the map-side
   pre-aggregation that shrinks the exchange from token occurrences to
   distinct (term, doc) pairs.
2. ONE bucketed exchange on term (``grouped_apply_bucketed``); per term:
   ``df``, ``tf_sum`` and the doc-sorted posting list, assembled with
   Arrow string kernels (``binary_join`` over each term's run).

Posting lists for stopword-frequency terms are inherently corpus-sized;
the output stays a Dataset (one row per term) so the caller streams it to
a partitioned sink instead of collecting.  Reference analog: none — GX
has no retrieval surface; this is part of the repo's LLM-pipeline layer
(SURVEY §2.6 extensions).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.stages.dictmatch import _tokenize_batch


def term_doc_frequencies(tbl: pa.Table, *, text_col: str, id_col: str) -> pa.Table:
    """(term, doc_id, tf) for one batch — distinct (doc, term) pairs only."""
    doc_of_tok, idx, words, _, _ = _tokenize_batch(tbl.column(text_col))
    if len(idx) == 0:
        return pa.table({"term": pa.array([], pa.string()),
                         "doc_id": pa.array([], pa.int64()),
                         "tf": pa.array([], pa.int64())})
    ids = np.asarray(pc.cast(tbl.column(id_col), pa.int64()))
    V = len(words)
    key = doc_of_tok * V + idx
    ukey, counts = np.unique(key, return_counts=True)
    term_idx = (ukey % V).astype(np.int32)
    doc_idx = ukey // V
    terms = pa.DictionaryArray.from_arrays(
        pa.array(term_idx), pa.array(words, pa.string())).cast(pa.string())
    return pa.table({
        "term": terms,
        "doc_id": pa.array(ids[doc_idx]),
        "tf": pa.array(counts.astype(np.int64)),
    })


def build_inverted_index(ds, *, text_col: str = "text",
                         id_col: str = "doc_id", n_buckets: int = 64,
                         shard_docs: int | None = None):
    """Dataset of (term, df, tf_sum, posting) — posting is the doc-sorted
    'doc:tf,doc:tf,…' list.  One exchange; rows per term.

    A stopword-frequency term's posting is inherently corpus-sized; with
    the default (one row per term) that whole string lands on one reducer.
    Pass ``shard_docs=N`` for web scale: the exchange keys on
    ``(term, doc_id // N)`` instead, emitting one row per (term, shard)
    with per-shard ``df``/``tf_sum``/``posting`` — no reducer ever holds
    more than N entries of one term, and global df is a trivial downstream
    sum.  Shards of one term concatenate (in shard order) to exactly the
    unsharded posting."""
    from great_expectations_ray.functions.bucketed import (
        group_aggregate,
        grouped_apply_bucketed,
        joined_per_key,
    )

    pairs = ds.select_columns([id_col, text_col]).map_batches(
        lambda t: term_doc_frequencies(t, text_col=text_col, id_col=id_col),
        batch_format="pyarrow", zero_copy_batch=True)

    if shard_docs is not None:
        def add_shard(tbl: pa.Table) -> pa.Table:
            ids = np.asarray(pc.cast(tbl.column("doc_id"), pa.int64()))
            return tbl.append_column("shard", pa.array(ids // shard_docs))

        pairs = pairs.map_batches(add_shard, batch_format="pyarrow",
                                  zero_copy_batch=True)
        keys = ["term", "shard"]
    else:
        keys = ["term"]

    def assemble(g: pa.Table) -> pa.Table:
        entry = pc.binary_join_element_wise(
            pc.cast(g.column("doc_id"), pa.string()), pc.cast(g.column("tf"), pa.string()), ":")
        out = joined_per_key(g.append_column("entry", entry), keys, "entry", "posting",
                             order_by=["doc_id"])
        sums = group_aggregate(g, keys, [([], "count_all"), ("tf", "sum")])
        sums = sums.rename_columns([*keys, "df", "tf_sum"]).cast(pa.schema(
            [sums.schema.field(k) for k in keys] + [("df", pa.int64()), ("tf_sum", pa.int64())]))
        return sums.join(out, keys=keys, join_type="inner").select([*keys, "df", "tf_sum", "posting"])

    return grouped_apply_bucketed(pairs, keys, assemble, n_buckets=n_buckets)
