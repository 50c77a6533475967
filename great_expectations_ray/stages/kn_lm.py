"""Interpolated Kneser-Ney word-bigram LM perplexity — the CCNet-style
quality signal (Wenzek et al. 2020 score documents with a KenLM 5-gram;
this is the same selection signal at bigram order, hashed so the model is
bounded at any corpus size).

Spec (all constants are part of the operator definition — the fixture
oracle in tools/gen_oracle_fixtures.py reimplements them independently):

- tokens: ``[a-z0-9_]+`` over the lowercased text (the DSIR token stream,
  stages/dsir.py TOKEN_RE);
- word id: ``crc32(token) % W`` with ``W = 4096`` — hashing bounds the
  bigram cell domain at ``W**2 = 16.7M`` regardless of corpus size (the
  same bucketed-compression argument as perplexity.py N_CTX: a hashed LM
  is still a deterministic, discriminative perplexity for filtering);
- counts: bigram occurrences ``c(u, w)`` over adjacent same-document
  tokens; context totals ``c(u) = sum_w c(u, w)`` (the standard KN
  convention — contexts are counted only when followed);
- interpolated KN with absolute discount ``d = 0.75``::

      Pcont(w)  = N1+(. w) / N1+(. .)
      P(w | u)  = max(c(u,w) - d, 0)/c(u) + d * N1+(u .)/c(u) * Pcont(w)
                  (c(u) > 0)
      P(w | u)  = Pcont(w)                       (unseen context, c(u)=0)
      P        -> EPS = 2**-40 when the above is 0 (word never seen as a
                  continuation — cannot happen when scoring the training
                  corpus itself)

- per-document perplexity: ``2 ** (-(1/(n-1)) * sum_i log2 P(t_i | t_{i-1}))``
  over the ``n-1`` transitions; documents with fewer than 2 tokens score
  the sentinel ``1e6`` (kept finite so parquet/SQL joins stay sane; length
  rules drop these rows anyway).

Distributed shape (the perplexity.py / dsir.py pattern):

1. **Count pass** (``distributed_train_kn``): per-batch sparse
   ``(cell, cnt)`` partials over bigram cells ``u*W + w`` (map-side
   ``np.unique`` pre-aggregation) -> ONE bucketed ``groupby(cell)``
   exchange -> the <= min(|distinct bigrams|, W^2)-row table lands on the
   driver, which derives every other statistic locally (``c(u)``,
   ``N1+(u .)``, ``N1+(. w)``, ``N1+(. .)`` are sums/uniques over that
   table — exact integers, so the model is bit-identical under any
   partitioning).
2. **Scoring** (``KnScorer``): the model (sorted cell array + count array
   + two dense length-``W`` int64 vectors) rides ``ray.put`` and is
   fetched ONCE per worker in ``__init__``; each batch tokenizes via Arrow
   kernels (``utf8_lower`` + ``split_pattern_regex``), crc32-hashes once
   per DISTINCT token (dictionary encode — the Zipf head does the work),
   forms same-doc transition cells, binary-searches the sorted cell array
   (``np.searchsorted``) and reduces per-doc log-prob sums with
   ``np.add.reduceat``.  No Python loop over tokens anywhere.

At 100 TB: one sparse count exchange bounded by ``W**2`` rows, a <= ~270 MB
broadcast worst-case (16.7M cells x 16 B; typically far smaller — Zipf),
and a streaming scoring pass.  Raising fidelity = raising ``W`` (memory
grows as observed distinct bigrams, never as corpus bytes).
"""

from __future__ import annotations

from zlib import crc32

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.stages._per_worker import map_per_worker

#: hashed word-vocabulary size (spec constant)
W = 4096

#: absolute discount (spec constant — Kneser & Ney 1995's fixed d)
DISCOUNT = 0.75

#: probability floor for never-seen continuations (unreachable when the
#: scored corpus is the training corpus)
EPS = 2.0 ** -40

#: perplexity sentinel for documents with < 2 tokens
SHORT_DOC_PPL = 1e6


def _batch_token_ids(col) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (doc_idx, word_id) in token order for a whole batch
    column: Arrow lower+split (same token stream as ``TOKEN_RE.findall``),
    dictionary-encode the flat token array, crc32 ONCE per distinct token,
    scatter back through the indices.  Empty-string artifacts of
    ``split_pattern_regex`` (which ``findall`` never emits) are dropped."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    low = pc.utf8_lower(pc.fill_null(col, ""))
    lst = pc.split_pattern_regex(low, "[^a-z0-9_]+")
    if isinstance(lst, pa.ChunkedArray):
        lst = lst.combine_chunks()
    flat = lst.flatten()
    n_tok = np.asarray(pc.list_value_length(lst), dtype=np.int64)
    doc_of_tok = np.repeat(np.arange(len(lst), dtype=np.int64), n_tok)

    denc = pc.dictionary_encode(flat)
    if isinstance(denc, pa.ChunkedArray):
        denc = denc.combine_chunks()
    idx = np.asarray(denc.indices, dtype=np.int64)
    words = denc.dictionary.to_pylist()
    dict_ids = np.fromiter(
        ((crc32(w.encode()) % W) if w else -1 for w in words),
        dtype=np.int64, count=len(words))
    ids = dict_ids[idx]
    keep = ids >= 0
    return doc_of_tok[keep], ids[keep]


def _transition_cells(doc_of_tok: np.ndarray, ids: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Same-document adjacent-token transition cells ``u*W + w`` plus the
    doc index of each transition."""
    if len(ids) < 2:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    same = doc_of_tok[:-1] == doc_of_tok[1:]
    return (doc_of_tok[:-1][same],
            ids[:-1][same] * np.int64(W) + ids[1:][same])


class _BigramCounter:
    """map_batches callable: batch -> sparse (cell, cnt) bigram partials."""

    def __init__(self, column: str):
        self.column = column

    def __call__(self, tbl: pa.Table) -> pa.Table:
        docs, ids = _batch_token_ids(tbl.column(self.column))
        _, cells = _transition_cells(docs, ids)
        if len(cells) == 0:
            return pa.table({"cell": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        uniq, cnt = np.unique(cells, return_counts=True)
        return pa.table({"cell": pa.array(uniq),
                         "cnt": pa.array(cnt.astype(np.int64))})


def build_kn_model(cells: np.ndarray, cnts: np.ndarray) -> dict:
    """Derive every KN statistic from the exact merged bigram count table.

    Returns dense length-``W`` vectors (context totals, distinct-follower
    counts, distinct-predecessor counts) plus the sorted sparse cell/count
    arrays and the bigram-type total — everything ``KnScorer`` needs."""
    order = np.argsort(cells, kind="stable")
    cells, cnts = cells[order], cnts[order]
    u = cells // W
    w = cells % W
    c_ctx = np.zeros(W, dtype=np.int64)
    np.add.at(c_ctx, u, cnts)
    n1_after = np.zeros(W, dtype=np.int64)   # N1+(u .)
    np.add.at(n1_after, u, 1)
    n1_before = np.zeros(W, dtype=np.int64)  # N1+(. w)
    np.add.at(n1_before, w, 1)
    return {
        "cells": cells,
        "cnts": cnts.astype(np.int64),
        "c_ctx": c_ctx,
        "n1_after": n1_after,
        "n1_before": n1_before,
        "n_types": int(len(cells)),
    }


def distributed_train_kn(ds, *, column: str = "text") -> dict:
    """Corpus-wide KN bigram model as a Ray pipeline: sparse per-batch
    partials -> ONE bucketed exchange -> driver-side model derivation.
    Bit-identical under any partitioning (integer count sums)."""
    from great_expectations_ray.functions.bucketed import merge_count_partials

    partials = ds.select_columns([column]).map_batches(
        _BigramCounter(column), batch_format="pyarrow", zero_copy_batch=True)
    t = merge_count_partials(partials, ["cell"], n_buckets=64)
    return build_kn_model(np.asarray(t.column("cell"), dtype=np.int64),
                          np.asarray(t.column("cnt"), dtype=np.int64))


def kn_log2_probs(model: dict, cells: np.ndarray) -> np.ndarray:
    """Vectorized log2 P(w|u) for an array of transition cells."""
    u = cells // W
    w = cells % W
    if len(model["cells"]) == 0:
        c_uw = np.zeros(len(cells), dtype=np.float64)
    else:
        pos = np.minimum(np.searchsorted(model["cells"], cells),
                         len(model["cells"]) - 1)
        found = model["cells"][pos] == cells
        c_uw = np.where(found, model["cnts"][pos], 0).astype(np.float64)

    n_types = max(model["n_types"], 1)
    pcont = model["n1_before"][w].astype(np.float64) / n_types
    c_u = model["c_ctx"][u].astype(np.float64)
    seen_ctx = c_u > 0
    c_u_safe = np.where(seen_ctx, c_u, 1.0)
    lam = DISCOUNT * model["n1_after"][u].astype(np.float64) / c_u_safe
    p_seen = np.maximum(c_uw - DISCOUNT, 0.0) / c_u_safe + lam * pcont
    p = np.where(seen_ctx, p_seen, pcont)
    return np.log2(np.maximum(p, EPS))


class KnScorer:
    """Per-batch stage: appends ``kn_ppl`` per row.  The model rides
    ``ray.put`` and is fetched ONCE per worker here in ``__init__``."""

    def __init__(self, model_ref, column: str = "text",
                 out_col: str = "kn_ppl"):
        import ray

        model = (ray.get(model_ref)
                 if not isinstance(model_ref, (dict, tuple)) else model_ref)
        if isinstance(model, tuple):  # broadcast payload (see kn_perplexity)
            model = dict(zip(
                ("cells", "cnts", "c_ctx", "n1_after", "n1_before", "n_types"),
                model))
        self.model = model
        self.column = column
        self.out_col = out_col

    def __call__(self, tbl: pa.Table) -> pa.Table:
        docs, ids = _batch_token_ids(tbl.column(self.column))
        n = tbl.num_rows
        n_tok = np.zeros(n, dtype=np.int64)
        np.add.at(n_tok, docs, 1)
        out = np.full(n, SHORT_DOC_PPL, dtype=np.float64)

        t_docs, cells = _transition_cells(docs, ids)
        if len(cells):
            lp = kn_log2_probs(self.model, cells)
            # per-doc segment sums: transitions are emitted in doc order
            starts = np.concatenate(
                [[0], np.nonzero(np.diff(t_docs))[0] + 1])
            sums = np.add.reduceat(lp, starts)
            seg_docs = t_docs[starts]
            n_trans = (n_tok - 1)[seg_docs].astype(np.float64)
            out[seg_docs] = 2.0 ** (-(sums / n_trans))
        return tbl.append_column(self.out_col, pa.array(out, pa.float64()))


def kn_perplexity(ds, *, column: str = "text", model: dict | None = None,
                  batch_size: int = 1024, out_col: str = "kn_ppl"):
    """Full pass: train the hashed KN bigram LM on ``ds`` (unless a
    precomputed ``model`` is given), broadcast it, score every document."""
    import ray

    if model is None:
        model = distributed_train_kn(ds, column=column)
    # broadcast as a TUPLE; the scorer rebuilds the dict
    ref = ray.put(tuple(model[k] for k in
                        ("cells", "cnts", "c_ctx", "n1_after", "n1_before",
                         "n_types")))
    return map_per_worker(
        ds, KnScorer, {"model_ref": ref, "column": column, "out_col": out_col},
        batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size,
    )
