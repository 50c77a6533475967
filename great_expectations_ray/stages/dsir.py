"""DSIR — Data Selection via Importance Resampling (Xie et al. 2023,
arXiv:2302.03169): select raw-corpus documents whose hashed-n-gram
distribution looks like a target corpus.

Three distributed pieces, each a standard Ray Data shape:

1. **Feature counting** (``fit_hashed_bag`` / ``fit_hashed_bag_pair``): one
   streaming pass -> per-batch SPARSE ``(bucket, cnt)`` partials (map-side
   pre-aggregation bounds the exchange at ``<= D`` rows per batch) -> ONE
   bucketed ``groupby`` merge -> a dense ``D``-float vector on the driver.
   The pair variant fits target AND raw models in a single execution via a
   side-tagged union.  ``D`` is 16384 buckets ~= 128 KB — trivially
   broadcastable.  This is the same sparse-partials/one-exchange shape as
   ``perplexity.distributed_train_char_lm``.
2. **Importance weighting** (``DsirWeigher``): the log-ratio vector rides
   ``ray.put`` and is fetched ONCE per worker in ``__init__``; each batch
   computes ``logw(doc) = sum_f c_f * (log p_f - log q_f)`` with numpy
   (``np.unique`` per doc over crc32-hashed unigram+bigram buckets, then a
   dot against the broadcast vector).
3. **Resampling** (``dsir_select``): Gumbel-top-k over ``logw`` with
   DETERMINISTIC per-doc Gumbel noise (crc32-seeded uniform -> the job is
   reproducible and oracle-checkable).  Selection threshold = k-th largest
   key, found from per-block top-k candidates (each block ships at most
   ``k`` keys; the driver merges ``#blocks x k`` floats — the ANN top-k
   shape, no global sort).

At 100 TB: ONE shared count pass (the target side is normally tiny), one
tiny exchange, a 128 KB broadcast, and a candidates-only threshold pass —
no all-to-all over document bytes anywhere.
"""

from __future__ import annotations

import re
from zlib import crc32

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.stages._per_worker import map_per_worker

#: hashed feature dimensionality (buckets) — DSIR's default ballpark
D = 16384

#: wordish tokenizer (lowercased); bigrams are adjacent token pairs
TOKEN_RE = re.compile(r"[a-z0-9_]+")


def hashed_feature_counts(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Sorted sparse (buckets, counts) of hashed unigram+bigram features of
    one document.  crc32 is the bucket hash: deterministic across runs and
    processes (Python's ``hash`` is salted).  Per-doc reference form of the
    spec; the batch stages use the vectorized ``_batch_feature_buckets``
    (same feature multiset, hash computed once per DISTINCT token/bigram
    per batch instead of per occurrence)."""
    toks = TOKEN_RE.findall(text.lower())
    if not toks:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    feats = [crc32(t.encode()) % D for t in toks]
    feats.extend(
        crc32((toks[i] + " " + toks[i + 1]).encode()) % D
        for i in range(len(toks) - 1)
    )
    return np.unique(np.asarray(feats, dtype=np.int64), return_counts=True)


def _batch_feature_buckets(col) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized hashed-feature extraction over a whole batch column:
    Arrow-side lower+tokenize (``split_pattern_regex`` on the complement of
    ``TOKEN_RE``'s class — same token stream as ``findall``), dictionary-
    encode the flat token array, crc32 ONCE per distinct token (and per
    distinct adjacent pair for bigrams), scatter back through the indices.

    Returns ``(doc_idx, bucket)`` int64 arrays with one entry per feature
    OCCURRENCE — exactly the multiset ``hashed_feature_counts`` builds doc
    by doc, so per-doc ``np.unique`` over a slice reproduces its output
    bit-for-bit.  The Zipf head does the work: a batch's distinct-token
    count is tiny next to its occurrence count, so the Python-level crc32
    loop runs over the dictionary only."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    low = pc.utf8_lower(pc.fill_null(col, ""))
    lst = pc.split_pattern_regex(low, "[^a-z0-9_]+")
    if isinstance(lst, pa.ChunkedArray):
        lst = lst.combine_chunks()
    flat = lst.flatten()  # offset-aware: exactly the concatenated tokens
    n_tok_per_doc = np.asarray(pc.list_value_length(lst), dtype=np.int64)
    doc_of_tok = np.repeat(np.arange(len(lst), dtype=np.int64), n_tok_per_doc)

    denc = pc.dictionary_encode(flat)
    if isinstance(denc, pa.ChunkedArray):
        denc = denc.combine_chunks()
    idx = np.asarray(denc.indices, dtype=np.int64)
    words = denc.dictionary.to_pylist()
    # split emits "" at boundaries ("", "a b ".split -> trailing "");
    # findall never does — mark and drop them
    dict_buckets = np.fromiter(
        ((crc32(w.encode()) % D) if w else -1 for w in words),
        dtype=np.int64, count=len(words))
    keep = dict_buckets[idx] >= 0
    idx, doc_of_tok = idx[keep], doc_of_tok[keep]
    uni_buckets = dict_buckets[idx]

    # bigrams: adjacent surviving tokens within the same doc
    if len(idx) > 1:
        same_doc = doc_of_tok[:-1] == doc_of_tok[1:]
        left, right = idx[:-1][same_doc], idx[1:][same_doc]
        bi_docs = doc_of_tok[:-1][same_doc]
        pair_key = left * len(words) + right
        upairs, inv = np.unique(pair_key, return_inverse=True)
        ul, ur = upairs // len(words), upairs % len(words)
        pair_buckets = np.fromiter(
            (crc32((words[li] + " " + words[ri]).encode()) % D
             for li, ri in zip(ul.tolist(), ur.tolist())),
            dtype=np.int64, count=len(upairs))
        bi_buckets = pair_buckets[inv]
    else:
        bi_docs = np.empty(0, np.int64)
        bi_buckets = np.empty(0, np.int64)

    return (np.concatenate([doc_of_tok, bi_docs]),
            np.concatenate([uni_buckets, bi_buckets]))


class _FeatureCounter:
    """map_batches callable: batch -> sparse (cell, cnt) partials."""

    def __init__(self, column: str):
        self.column = column

    def __call__(self, tbl: pa.Table) -> pa.Table:
        _, buckets = _batch_feature_buckets(tbl.column(self.column))
        if len(buckets) == 0:
            return pa.table({"cell": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        # batch-level occurrence counts == sum of the per-doc counts
        cells, cnts = np.unique(buckets, return_counts=True)
        return pa.table({"cell": pa.array(cells),
                         "cnt": pa.array(cnts.astype(np.int64))})


def fit_hashed_bag(ds, *, column: str = "text", add_k: float = 0.01) -> np.ndarray:
    """One pass over ``ds[column]`` -> dense log-prob vector (float64[D])
    of the smoothed hashed-n-gram bag model."""
    from great_expectations_ray.functions.bucketed import merge_count_partials

    partials = ds.select_columns([column]).map_batches(
        _FeatureCounter(column), batch_format="pyarrow", zero_copy_batch=True)

    # the cell domain is bounded (<= D per side), so the driver fast path
    # almost always applies; 64 buckets on the over-cap exchange
    t = merge_count_partials(partials, ["cell"], n_buckets=64)
    counts = np.zeros(D, dtype=np.float64)
    if t.num_rows:
        counts[np.asarray(t.column("cell"), dtype=np.int64)] = (
            np.asarray(t.column("cnt"), dtype=np.float64))
    sm = counts + add_k
    return np.log(sm / sm.sum())


def fit_hashed_bag_pair(
    target_ds, raw_ds, *, column: str = "text", add_k: float = 0.01
) -> tuple[np.ndarray, np.ndarray]:
    """Fit BOTH bag models in ONE streaming execution: the two corpora's
    sparse partials union with a ``side`` tag (0 = target, 1 = raw) and share
    a single bucketed merge exchange.  Numerically identical to two
    ``fit_hashed_bag`` calls — the per-cell sums are integer — but halves the
    fixed per-execution cost (one executor spin-up, one exchange)."""
    from great_expectations_ray.functions.bucketed import merge_count_partials

    def tagged(ds_, side: int):
        def tag(tbl: pa.Table) -> pa.Table:
            return tbl.append_column(
                "side", pa.array(np.full(tbl.num_rows, side, dtype=np.int8)))

        return ds_.select_columns([column]).map_batches(
            _FeatureCounter(column), batch_format="pyarrow",
            zero_copy_batch=True,
        ).map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)

    t = merge_count_partials(
        tagged(target_ds, 0).union(tagged(raw_ds, 1)), ["side", "cell"],
        n_buckets=64,
    )
    counts = np.zeros((2, D), dtype=np.float64)
    if t.num_rows:
        counts[np.asarray(t.column("side"), dtype=np.int64),
               np.asarray(t.column("cell"), dtype=np.int64)] = (
            np.asarray(t.column("cnt"), dtype=np.float64))
    sm = counts + add_k
    logs = np.log(sm / sm.sum(axis=1, keepdims=True))
    return logs[0], logs[1]


class DsirWeigher:
    """Per-batch stage: adds ``dsir_logw`` per row.  The log-ratio vector
    (``log p_target - log q_raw``) is fetched from the object store ONCE per
    worker here in ``__init__`` — never re-shipped per batch."""

    def __init__(self, log_ratio_ref, column: str = "text"):
        import ray

        self.log_ratio = (
            ray.get(log_ratio_ref)
            if not isinstance(log_ratio_ref, np.ndarray) else log_ratio_ref
        )
        self.column = column

    def __call__(self, tbl: pa.Table) -> pa.Table:
        docs, buckets = _batch_feature_buckets(tbl.column(self.column))
        out = np.zeros(tbl.num_rows, dtype=np.float64)
        if len(docs):
            order = np.argsort(docs, kind="stable")
            docs, buckets = docs[order], buckets[order]
            starts = np.concatenate(
                [[0], np.nonzero(np.diff(docs))[0] + 1, [len(docs)]])
            for s, e in zip(starts[:-1], starts[1:]):
                # per-doc buckets ascending (np.unique) then np.dot — the
                # exact summation the fixture oracle specifies, so the
                # value is bit-identical to the per-doc reference form
                b, c = np.unique(buckets[s:e], return_counts=True)
                out[docs[s]] = float(
                    np.dot(c.astype(np.float64), self.log_ratio[b]))
        return tbl.append_column("dsir_logw", pa.array(out))


def gumbel_keys(doc_ids: np.ndarray, logw: np.ndarray, seed: int = 0) -> np.ndarray:
    """Deterministic Gumbel-top-k sampling keys: ``logw + G`` where ``G``
    comes from a crc32-derived uniform per (seed, doc_id) — reproducible
    resampling (the paper samples without replacement via Gumbel noise)."""
    u = np.array(
        [crc32(f"{seed}:{d}".encode()) for d in doc_ids.tolist()],
        dtype=np.float64,
    )
    u = (u + 1.0) / 4294967297.0  # (0, 1)
    return logw - np.log(-np.log(u))


def dsir_select(ds, *, k: int, column: str = "text", id_col: str = "doc_id",
                target_ds=None, raw_ds=None, seed: int = 0,
                log_ratio: np.ndarray | None = None,
                batch_size: int = 1024, flags_only: bool = False):
    """Full DSIR pass: fit target/raw bag models (unless a precomputed
    ``log_ratio`` is given — both models share ONE streaming execution via
    ``fit_hashed_bag_pair``), weigh every doc, and flag the Gumbel-top-k
    sample.

    Default: returns the dataset with ``dsir_logw``, ``dsir_key`` and
    ``selected`` columns appended — document bytes are never materialized,
    at the cost of the weigher running twice (threshold pass + output pass).

    ``flags_only=True``: returns just ``(id_col, dsir_logw, dsir_key,
    selected)`` with the weigher run ONCE — the projected verdict columns
    (~25 B/doc) are materialized between the threshold and mark passes.
    Right when the caller only needs the selection verdicts (rejoin to the
    corpus by id, or feed a downstream filter)."""
    import ray

    if log_ratio is None:
        log_p, log_q = fit_hashed_bag_pair(
            target_ds, raw_ds if raw_ds is not None else ds, column=column)
        log_ratio = log_p - log_q
    ref = ray.put(log_ratio)

    src = ds.select_columns([id_col, column]) if flags_only else ds
    weighted = map_per_worker(
        src, DsirWeigher, {"log_ratio_ref": ref, "column": column},
        batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size,
    )

    def add_key(tbl: pa.Table) -> pa.Table:
        ids = np.asarray(tbl.column(id_col))
        # logw enters the key ROUNDED to 6dp (spec): kills last-bit
        # accumulation-order noise so the selected set is bit-reproducible
        lw = np.round(np.asarray(tbl.column("dsir_logw")), 6)
        tbl = tbl.append_column("dsir_key", pa.array(gumbel_keys(ids, lw, seed)))
        return tbl.select([id_col, "dsir_logw", "dsir_key"]) if flags_only else tbl

    keyed = weighted.map_batches(add_key, batch_format="pyarrow",
                                 zero_copy_batch=True)
    if flags_only:
        # one weigher execution total: the tiny projection is materialized,
        # then both the threshold scan and the mark pass read it back
        keyed = keyed.materialize()

    # threshold = k-th largest key, from per-block top-k candidates only
    def block_topk(tbl: pa.Table) -> pa.Table:
        keys = np.asarray(tbl.column("dsir_key"))
        if len(keys) > k:
            keys = np.partition(keys, len(keys) - k)[-k:]
        return pa.table({"cand": pa.array(keys)})

    cands = keyed.map_batches(block_topk, batch_format="pyarrow",
                              zero_copy_batch=True).take_all()
    cand = np.array([r["cand"] for r in cands], dtype=np.float64)
    if len(cand) == 0:
        thresh = np.inf
    elif len(cand) <= k:
        thresh = cand.min()
    else:
        thresh = np.partition(cand, len(cand) - k)[-k]

    def mark(tbl: pa.Table) -> pa.Table:
        keys = np.asarray(tbl.column("dsir_key"))
        return tbl.append_column("selected", pa.array(keys >= thresh))

    return keyed.map_batches(mark, batch_format="pyarrow", zero_copy_batch=True)
