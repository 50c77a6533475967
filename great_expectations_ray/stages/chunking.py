"""Document chunking — split documents into fixed-size overlapping chunks
(the RAG / context-window preparation pass; the character-level sibling of
token-level ``stages/packing.py``, which concat-and-chunks ACROSS
documents while this splits WITHIN each document).

Semantics are CHARACTER-based (``chunk_size``/``overlap``/``start`` count
codepoints, mirroring SQL ``substr``).  The hot path is vectorized byte
slicing for ASCII rows (codepoints == bytes): per-row chunk counts,
repeat/cumsum offsets, one fancy gather off the Arrow buffer — no Python
per row.  Non-ASCII rows (screened with one ``string_is_ascii`` kernel,
rare in web corpora) fall back to per-row codepoint slicing so a chunk
boundary can never split a multi-byte sequence.

Empty documents produce zero chunks; the final chunk is the only one
allowed shorter than ``chunk_size``.  No shuffle — the stage streams.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.stages.text_stats import string_buffer


def _chunk_ascii(s: pa.Array, doc_ids: pa.Array, chunk_size: int,
                 step: int) -> pa.Table:
    data, offs = string_buffer(s)
    lens = offs[1:] - offs[:-1]
    n_chunks = np.where(lens > 0, (lens - 1) // step + 1, 0).astype(np.int64)
    total = int(n_chunks.sum())
    if total == 0:
        return _empty_chunks(doc_ids.type)
    row = np.repeat(np.arange(len(lens), dtype=np.int64), n_chunks)
    starts_cum = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(n_chunks, out=starts_cum[1:])
    cidx = np.arange(total, dtype=np.int64) - np.repeat(starts_cum[:-1], n_chunks)
    start = cidx * step
    abs_start = offs[:-1][row] + start
    clens = np.minimum(abs_start + chunk_size, offs[1:][row]) - abs_start
    flat_idx = np.repeat(abs_start, clens) + (
        np.arange(int(clens.sum()), dtype=np.int64)
        - np.repeat(np.concatenate(([0], np.cumsum(clens)[:-1])), clens)
    )
    chunk_buf = pa.py_buffer(data[flat_idx].tobytes())
    chunk_offs = pa.py_buffer(
        np.concatenate(([0], np.cumsum(clens))).astype(np.int64).tobytes())
    chunks = pa.Array.from_buffers(
        pa.large_string(), total, [None, chunk_offs, chunk_buf])
    return pa.table({
        "doc_id": doc_ids.take(pa.array(row)),
        "chunk_idx": pa.array(cidx),
        "start": pa.array(start),
        "chunk": chunks,
    })


def _chunk_py(s: pa.Array, doc_ids: pa.Array, chunk_size: int,
              step: int) -> pa.Table:
    ids, cidx, start, chunk = [], [], [], []
    for did, v in zip(doc_ids.to_pylist(), s.to_pylist()):
        t = v or ""
        for i, p in enumerate(range(0, len(t), step)):
            ids.append(did)
            cidx.append(i)
            start.append(p)
            chunk.append(t[p:p + chunk_size])
    return pa.table({
        "doc_id": pa.array(ids, doc_ids.type),
        "chunk_idx": pa.array(cidx, pa.int64()),
        "start": pa.array(start, pa.int64()),
        "chunk": pa.array(chunk, pa.large_string()),
    })


def _empty_chunks(id_type) -> pa.Table:
    return pa.table({
        "doc_id": pa.array([], id_type),
        "chunk_idx": pa.array([], pa.int64()),
        "start": pa.array([], pa.int64()),
        "chunk": pa.array([], pa.large_string()),
    })


def chunk_table(
    content: pa.Array | pa.ChunkedArray,
    doc_ids: pa.Array | pa.ChunkedArray,
    *,
    chunk_size: int,
    overlap: int = 0,
) -> pa.Table:
    """(doc_id, chunk_idx, start, chunk) rows for one batch."""
    if not 0 <= overlap < chunk_size:
        raise ValueError("overlap must satisfy 0 <= overlap < chunk_size "
                         "(a negative overlap would silently drop characters)")
    step = chunk_size - overlap
    if isinstance(content, pa.ChunkedArray):
        content = content.combine_chunks()
    if isinstance(doc_ids, pa.ChunkedArray):
        doc_ids = doc_ids.combine_chunks()
    s = pc.cast(pc.fill_null(content, ""), pa.large_string())
    is_ascii = pc.string_is_ascii(s).to_numpy(zero_copy_only=False)
    if is_ascii.all():
        return _chunk_ascii(s, doc_ids, chunk_size, step)
    a_idx = pa.array(np.flatnonzero(is_ascii))
    p_idx = pa.array(np.flatnonzero(~is_ascii))
    parts = [
        _chunk_ascii(s.take(a_idx), doc_ids.take(a_idx), chunk_size, step),
        _chunk_py(s.take(p_idx), doc_ids.take(p_idx), chunk_size, step),
    ]
    return pa.concat_tables([p for p in parts if len(p)]) if any(
        len(p) for p in parts) else _empty_chunks(doc_ids.type)


def chunk_documents(ds, *, content_col: str = "text", id_col: str = "doc_id",
                    chunk_size: int = 512, overlap: int = 64):
    """Dataset[(doc_id, chunk_idx, start, chunk)] — streams, no shuffle."""

    def f(tbl: pa.Table) -> pa.Table:
        return chunk_table(tbl.column(content_col), tbl.column(id_col),
                           chunk_size=chunk_size, overlap=overlap)

    return ds.select_columns([id_col, content_col]).map_batches(
        f, batch_format="pyarrow", zero_copy_batch=True)
