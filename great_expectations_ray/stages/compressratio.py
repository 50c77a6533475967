"""Compression-ratio quality signal — the classic cheap repetitiveness /
low-entropy detector (used alongside the Gopher rules: highly repetitive or
template text compresses far below natural prose; random noise barely
compresses at all).

Per row: ``zlib.compress`` at a FIXED level straight off the Arrow UTF-8
data buffer (``memoryview`` slices via ``scrub._string_buffer_views`` — no
``as_py()`` decode, no per-row Python string).  zlib is a C call that
releases the GIL on multi-KB payloads, so worker parallelism stacks.  The
ratio is a single float64 division of two exact ints — deterministic for a
fixed zlib, which is what lets the catalog carry a per-doc fixture oracle.

One stateless map_batches pass; no shuffle, no broadcast.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.stages.scrub import _string_buffer_views

#: fixed compression level — part of the signal's contract
ZLIB_LEVEL = 6


def compressed_lengths(col: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """int64 zlib-compressed byte length per value (nulls -> length of the
    empty-string compression, matching ``fill_null('')`` semantics)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = pc.cast(pc.fill_null(col, ""), pa.string())
    views = _string_buffer_views(col)
    out = np.empty(len(col), dtype=np.int64)
    if views is None:  # non-string fallback, not on the hot path
        for i, v in enumerate(col):
            out[i] = len(zlib.compress(
                (v.as_py() or "").encode("utf-8"), ZLIB_LEVEL))
        return out
    offs, mv = views
    comp = zlib.compress
    for i in range(len(col)):
        out[i] = len(comp(mv[offs[i]:offs[i + 1]], ZLIB_LEVEL))
    return out


class CompressionScorer:
    """map_batches callable: appends ``raw_len`` / ``comp_len`` /
    ``comp_ratio`` (compressed bytes per raw byte; 0.0 for empty rows)."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col

    def __call__(self, tbl: pa.Table) -> pa.Table:
        col = tbl.column(self.text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        col = pc.cast(pc.fill_null(col, ""), pa.string())
        raw = np.asarray(pc.binary_length(col), dtype=np.int64)
        comp = compressed_lengths(col)
        ratio = np.where(raw > 0, comp / np.maximum(raw, 1), 0.0)
        return (tbl.append_column("raw_len", pa.array(raw))
                   .append_column("comp_len", pa.array(comp))
                   .append_column("comp_ratio", pa.array(ratio)))


def score_compression(ds, *, text_col: str = "text"):
    """Dataset form: one streaming pass."""
    return ds.map_batches(CompressionScorer(text_col),
                          batch_format="pyarrow", zero_copy_batch=True)
