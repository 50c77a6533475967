"""Benchmark decontamination — mark training documents that share a word
n-gram with a (small) benchmark/eval set.

The standard training-data hygiene op (e.g. GPT-3 appendix C, PaLM §6;
13-gram overlap): any document containing an n-gram that also appears in
the benchmark set is flagged so it can be dropped or audited.

Scale shape (the part that matters at 100 TB):

- The benchmark side is SMALL by construction (eval sets are MBs, not TBs):
  its n-gram hash set is collected once on the driver, sorted, and shipped
  via ``ray.put`` — every worker fetches it ONCE in ``__init__`` from the
  object store (zero-copy reads thereafter), never per batch.
- The corpus side never shuffles: one embarrassingly-parallel
  ``map_batches`` computes per-doc gram hashes off the Arrow buffer and
  membership via ``np.searchsorted`` against the broadcast sorted array.

Gram semantics match ``stages/repetition.py``: tokens are ``\\S+`` runs,
grams are n consecutive tokens, hashed with the vectorized polynomial token
hash (64-bit; cross-set collision probability is ~|grams|²/2⁶⁴ — negligible,
and collisions only ever ADD a flag).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from great_expectations_ray.stages.neardup import _concat_aranges
from great_expectations_ray.stages._per_worker import map_per_worker
from great_expectations_ray.stages.repetition import ngram_windows, tokenize_nonempty


def word_ngram_hashes(
    text: pa.Array | pa.ChunkedArray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """(gram_hash u64, doc_index i64) for all word n-grams of a batch, in
    document order — token and gram semantics shared with
    ``stages/repetition.py`` (single source, same SQL-oracle contract)."""
    tok_hash, _tok_len, tok_doc, counts = tokenize_nonempty(text)
    pos = _concat_aranges(counts)
    win, g = ngram_windows(tok_hash, tok_doc, counts, pos, n)
    return g, tok_doc[win]


def collect_benchmark_ngrams(bench_ds, *, text_col: str = "text", n: int = 5) -> np.ndarray:
    """Sorted unique u64 gram hashes of the benchmark dataset.  The benchmark
    side is small (an eval set); per-batch local unique bounds what reaches
    the driver to |distinct grams per batch|, and the driver unions arrays."""

    def grams(tbl: pa.Table) -> pa.Table:
        h, _ = word_ngram_hashes(tbl.column(text_col), n)
        return pa.table({"h": pa.array(np.unique(h))})

    parts = [
        np.asarray(b.column("h"), dtype=np.uint64)
        for b in bench_ds.select_columns([text_col])
        .map_batches(grams, batch_format="pyarrow", zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow", batch_size=None)
    ]
    if not parts:
        return np.empty(0, dtype=np.uint64)
    return np.unique(np.concatenate(parts))


class ContaminationMarker:
    """Per-batch stage: flag docs sharing any n-gram with the broadcast
    benchmark gram set.  ``bench_ref`` is a ``ray.put`` handle — fetched once
    per worker here in ``__init__``, not per batch."""

    def __init__(self, bench_ref, *, text_col: str = "text", id_col: str = "doc_id", n: int = 5):
        import ray

        self.bench = (
            ray.get(bench_ref) if not isinstance(bench_ref, np.ndarray) else bench_ref
        )
        self.text_col = text_col
        self.id_col = id_col
        self.n = n

    def __call__(self, tbl: pa.Table) -> pa.Table:
        h, gdoc = word_ngram_hashes(tbl.column(self.text_col), self.n)
        n_docs = len(tbl)
        contaminated = np.zeros(n_docs, dtype=bool)
        if len(h) and len(self.bench):
            idx = np.searchsorted(self.bench, h)
            idx[idx == len(self.bench)] = 0
            hits = self.bench[idx] == h
            if hits.any():
                np.logical_or.at(contaminated, gdoc[hits], True)
        return pa.table({
            self.id_col: tbl.column(self.id_col),
            "contaminated": pa.array(contaminated),
        })


def mark_contaminated(
    ds,
    bench_ds,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 5,
):
    """Dataset of (id_col, contaminated) for every row of ``ds``."""
    import ray

    bench = collect_benchmark_ngrams(bench_ds, text_col=text_col, n=n)
    bench_ref = ray.put(bench)
    return map_per_worker(
        ds.select_columns([id_col, text_col]), ContaminationMarker,
        {"bench_ref": bench_ref, "text_col": text_col, "id_col": id_col, "n": n},
        batch_format="pyarrow", zero_copy_batch=True,
    )
