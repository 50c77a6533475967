"""Fill-in-the-middle (FIM) transformation — the code-corpus training-data
pass from Bavarian et al. 2022 ("Efficient Training of Language Models to
Fill in the Middle", arXiv:2207.14255), applied document-wise the way
StarCoder-style pipelines do: with some rate, split a document into
(prefix, middle, suffix) at two uniform cut points and emit the PSM layout

    <fim_prefix> prefix <fim_suffix> suffix <fim_middle> middle

so the model learns infilling while untouched documents keep the plain
causal layout.

DETERMINISM (what makes the op oracle-checkable in pure SQL): the apply
decision and both cut points derive from ``doc_id`` with modular integer
arithmetic only —

    applied = (doc_id % rate_mod == 0) AND len >= 2 AND text IS NOT NULL
    i = (doc_id * 7919   + 13) % (len + 1)
    j = (doc_id * 104729 +  7) % (len + 1)
    lo, hi = min(i, j), max(i, j)

``len``/cuts count CHARACTERS (SQL ``substr`` semantics).  No RNG state, no
hash functions a SQL engine lacks.

Scale shape: pure streaming ``map_batches`` — no shuffle, no driver state.
The hot path is fully vectorized for ASCII rows: one ``string_is_ascii``
screen, then the three per-row slices come off the Arrow byte buffer with a
repeat/cumsum fancy gather (the ``stages/chunking.py`` construction) and
assemble with ONE ``binary_join_element_wise``.  Non-ASCII rows fall back to
per-row codepoint slicing (rare in web corpora; a byte slice must never
split a multi-byte sequence).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.stages.text_stats import string_buffer

#: default sentinel tokens (StarCoder spelling)
PRE_TOKEN = "<fim_prefix>"
SUF_TOKEN = "<fim_suffix>"
MID_TOKEN = "<fim_middle>"

_MUL_I, _ADD_I = 7919, 13
_MUL_J, _ADD_J = 104729, 7


def fim_cuts(ids: np.ndarray, lens: np.ndarray,
             rate_mod: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(applied, lo, hi) arrays from the shared modular spec (ids/lens are
    int64; callers mask NULL rows out of ``applied`` themselves)."""
    m = lens + 1
    i = (ids * _MUL_I + _ADD_I) % m
    j = (ids * _MUL_J + _ADD_J) % m
    applied = (ids % rate_mod == 0) & (lens >= 2)
    return applied, np.minimum(i, j), np.maximum(i, j)


def _slice_ascii(offs: np.ndarray, data: np.ndarray, starts: np.ndarray,
                 stops: np.ndarray) -> pa.Array:
    """Per-row byte slices [starts, stops) of an ASCII string buffer ->
    large_string array.  Vectorized repeat/cumsum gather — no Python rows."""
    abs_start = offs[:-1] + starts
    clens = np.maximum(stops - starts, 0)
    total = int(clens.sum())
    out_offs = np.concatenate(([0], np.cumsum(clens))).astype(np.int64)
    if total == 0:
        flat = np.empty(0, dtype=np.uint8)
    else:
        flat_idx = np.repeat(abs_start, clens) + (
            np.arange(total, dtype=np.int64) - np.repeat(out_offs[:-1], clens)
        )
        flat = data[flat_idx]
    return pa.Array.from_buffers(
        pa.large_string(), len(starts),
        [None, pa.py_buffer(out_offs.tobytes()), pa.py_buffer(flat.tobytes())],
    )


def _fim_ascii(s: pa.Array, ids: np.ndarray, rate_mod: int,
               pre: str, suf: str, mid: str):
    data, offs = string_buffer(s)
    lens = offs[1:] - offs[:-1]
    applied, lo, hi = fim_cuts(ids, lens, rate_mod)
    n = len(lens)
    zeros = np.zeros(n, dtype=np.int64)
    app_mask = pa.array(applied)
    empty = pa.scalar("", pa.large_string())

    def tok(t: str) -> pa.Array:
        return pc.if_else(app_mask, pa.scalar(t, pa.large_string()), empty)

    parts = [
        tok(pre),
        _slice_ascii(offs, data, zeros, np.where(applied, lo, lens)),
        tok(suf),
        _slice_ascii(offs, data, np.where(applied, hi, lens), lens),
        tok(mid),
        _slice_ascii(offs, data, np.where(applied, lo, zeros),
                     np.where(applied, hi, zeros)),
    ]
    text = pc.binary_join_element_wise(
        *parts, pa.scalar("", pa.large_string()))
    return text, applied, np.where(applied, lo, 0), np.where(applied, hi, 0)


def _fim_py(texts: list, ids: np.ndarray, rate_mod: int,
            pre: str, suf: str, mid: str):
    lens = np.array([len(t or "") for t in texts], dtype=np.int64)
    applied, lo, hi = fim_cuts(ids, lens, rate_mod)
    out = []
    for k, t in enumerate(texts):
        t = t or ""
        if applied[k]:
            out.append(pre + t[: lo[k]] + suf + t[hi[k]:] + mid + t[lo[k]: hi[k]])
        else:
            out.append(t)
    return (pa.array(out, pa.large_string()), applied,
            np.where(applied, lo, 0), np.where(applied, hi, 0))


def fim_table(content, doc_ids, *, rate_mod: int = 2,
              pre: str = PRE_TOKEN, suf: str = SUF_TOKEN,
              mid: str = MID_TOKEN) -> pa.Table:
    """One batch -> (doc_id, fim_applied, cut_lo, cut_hi, fim_text).  NULL
    content stays NULL (never applied), mirroring SQL string semantics."""
    if isinstance(content, pa.ChunkedArray):
        content = content.combine_chunks()
    if isinstance(doc_ids, pa.ChunkedArray):
        doc_ids = doc_ids.combine_chunks()
    ids = np.asarray(pc.cast(doc_ids, pa.int64()))
    null_mask = pc.is_null(content)
    s = pc.cast(pc.fill_null(content, ""), pa.large_string())
    is_ascii = pc.string_is_ascii(s).to_numpy(zero_copy_only=False)
    n = len(s)

    if is_ascii.all():
        text, applied, lo, hi = _fim_ascii(s, ids, rate_mod, pre, suf, mid)
    else:
        text_parts = [None] * n
        app = np.zeros(n, dtype=bool)
        lo = np.zeros(n, dtype=np.int64)
        hi = np.zeros(n, dtype=np.int64)
        for mask, fn, to_list in (
            (is_ascii, _fim_ascii, False),
            (~is_ascii, _fim_py, True),
        ):
            idx = np.flatnonzero(mask)
            if len(idx) == 0:
                continue
            sub = s.take(pa.array(idx))
            arg = sub.to_pylist() if to_list else sub
            t_, a_, lo_, hi_ = fn(arg, ids[idx], rate_mod, pre, suf, mid)
            vals = t_.to_pylist()
            for p, k in enumerate(idx):
                text_parts[k] = vals[p]
            app[idx], lo[idx], hi[idx] = a_, lo_, hi_
        text, applied = pa.array(text_parts, pa.large_string()), app

    nulls = null_mask.to_numpy(zero_copy_only=False)
    text = pc.if_else(null_mask, pa.scalar(None, pa.large_string()), text)
    return pa.table({
        "doc_id": doc_ids,
        "fim_applied": pa.array(applied & ~nulls),
        "cut_lo": pa.array(np.where(nulls, 0, lo)),
        "cut_hi": pa.array(np.where(nulls, 0, hi)),
        "fim_text": text,
    })


def fim_documents(ds, *, content_col: str = "text", id_col: str = "doc_id",
                  rate_mod: int = 2, pre: str = PRE_TOKEN,
                  suf: str = SUF_TOKEN, mid: str = MID_TOKEN):
    """Dataset[(doc_id, fim_applied, cut_lo, cut_hi, fim_text)] — streams,
    no shuffle."""

    def f(tbl: pa.Table) -> pa.Table:
        return fim_table(tbl.column(content_col), tbl.column(id_col),
                         rate_mod=rate_mod, pre=pre, suf=suf, mid=mid)

    return ds.select_columns([id_col, content_col]).map_batches(
        f, batch_format="pyarrow", zero_copy_batch=True)
