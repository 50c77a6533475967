"""Compression-ratio quality signal — the classic cheap repetitiveness /
low-entropy detector (used alongside the Gopher rules: highly repetitive or
template text compresses far below natural prose; random noise barely
compresses at all).

Per row: ``zlib.compress`` at a FIXED level straight off the Arrow UTF-8
data buffer (``memoryview`` slices of ``text_stats.string_buffer``, read in
place — no ``as_py()`` decode, no per-row Python string).  zlib is a C call
that releases the GIL on multi-KB payloads, so worker parallelism stacks.  The
ratio is a single float64 division of two exact ints — deterministic for a
fixed zlib, which is what lets the catalog carry a per-doc fixture oracle.

One stateless map_batches pass; no shuffle, no broadcast.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa

from great_expectations_ray.stages.text_stats import string_buffer

#: fixed compression level — part of the signal's contract
ZLIB_LEVEL = 6


def compressed_lengths(col: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """int64 zlib-compressed byte length per value (nulls -> length of the
    empty-string compression, matching ``fill_null('')`` semantics)."""
    data, offs = string_buffer(col)
    mv, o, comp = memoryview(data), offs.tolist(), zlib.compress
    return np.array([len(comp(mv[a:b], ZLIB_LEVEL)) for a, b in zip(o, o[1:])],
                    dtype=np.int64)


class CompressionScorer:
    """map_batches callable: appends ``raw_len`` / ``comp_len`` /
    ``comp_ratio`` (compressed bytes per raw byte; 0.0 for empty rows)."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col

    def __call__(self, tbl: pa.Table) -> pa.Table:
        col = tbl.column(self.text_col)
        raw = np.diff(string_buffer(col)[1])
        comp = compressed_lengths(col)
        ratio = np.where(raw > 0, comp / np.maximum(raw, 1), 0.0)
        return (tbl.append_column("raw_len", pa.array(raw))
                   .append_column("comp_len", pa.array(comp))
                   .append_column("comp_ratio", pa.array(ratio)))


def score_compression(ds, *, text_col: str = "text"):
    """Dataset form: one streaming pass."""
    return ds.map_batches(CompressionScorer(text_col),
                          batch_format="pyarrow", zero_copy_batch=True)
