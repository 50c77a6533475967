"""Heuristic text/code statistics — stateless vectorized map_batches stage.

Computes the columns the quality suite's heuristic expectations judge
(length / line-length / alphanumeric-ratio rules re-expressed as
``expect_column_values_to_be_between`` over these columns, per the north
star's "vectorized heuristic expectations").

All stats come straight off the Arrow UTF-8 data buffer, read in place by
:func:`string_buffer` (the package's one reader of Arrow string and binary
buffers, which every byte kernel calls), one row-aligned byte window
(``stages._per_worker.row_windows``) at a time: one gather of a
packed alnum / whitespace / char-start lookup table and one prefix sum give
every per-row counter, and line lengths are that prefix sum read at the
``'\\n'`` positions — no per-char regex iteration, no sort, and temporaries
bounded by the window, not the batch.  Char-class counts are byte-based,
which for UTF-8 equals char-based counts for ASCII classes (continuation
bytes >= 0x80 never match), matching the ``[A-Za-z0-9]`` reference
semantics.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.stages._per_worker import row_windows

_ALNUM_LUT = np.zeros(256, dtype=np.int64)
for _c in range(256):
    if chr(_c).isascii() and (chr(_c).isalnum()):
        _ALNUM_LUT[_c] = 1
_WS_LUT = np.zeros(256, dtype=np.int64)
for _c in b" \t\n\r\f\v":
    _WS_LUT[_c] = 1
# UTF-8 continuation bytes (0b10xxxxxx) do NOT start a char
_CHAR_START_LUT = np.ones(256, dtype=np.int64)
_CHAR_START_LUT[0x80:0xC0] = 0


_BYTE_TYPES = (pa.string(), pa.large_string(), pa.binary(), pa.large_binary())


def string_buffer(col: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """(uint8 bytes, int64 row offsets) of a string or binary column: row
    ``i`` is ``data[offsets[i]:offsets[i + 1]]``.  The package's one reader
    of Arrow byte buffers.

    Reads in place: a one-chunk ``ChunkedArray`` through ``chunk(0)`` (in
    pyarrow 16 ``combine_chunks`` copies even one chunk), and a sliced array
    keeps its offsets into the whole data buffer.  Several chunks are
    combined once, with 64-bit offsets so a batch over 2 GiB cannot
    overflow.  Nulls read as empty rows (a ``fill_null`` copy, only when
    there are nulls).  Any type other than ``[large_]string`` and
    ``[large_]binary`` (dictionary strings, numbers) is cast to
    ``large_string`` first."""
    if isinstance(col, pa.ChunkedArray):
        if col.num_chunks == 1:
            col = col.chunk(0)
        else:
            binary = pa.types.is_binary(col.type) or pa.types.is_large_binary(col.type)
            col = col.cast(pa.large_binary() if binary else pa.large_string()).combine_chunks()
    if col.type not in _BYTE_TYPES:
        col = pc.cast(col, pa.large_string())
    if col.null_count:
        col = pc.fill_null(col, "")
    if len(col) == 0:
        return np.empty(0, np.uint8), np.zeros(1, np.int64)
    _, offs, data = col.buffers()
    wide = pa.types.is_large_string(col.type) or pa.types.is_large_binary(col.type)
    offsets = np.frombuffer(offs, np.int64 if wide else np.int32)[
        col.offset : col.offset + len(col) + 1]
    data = np.frombuffer(data, np.uint8) if data is not None else np.empty(0, np.uint8)
    return data, offsets.astype(np.int64, copy=False)


# one packed LUT: alnum | ws<<21 | char_start<<42 — 21-bit fields hold counts
# over up to 2 MiB of content, so ONE gather + ONE prefix sum serves all three
# per-row counters (unpacked from differences of the prefix sum)
_PACKED_LUT = (_ALNUM_LUT + (_WS_LUT << 21) + (_CHAR_START_LUT << 42)).astype(np.int64)
_FIELD_MASK = (1 << 21) - 1
_PACK_SAFE_BYTES = (1 << 21) - 1


def _packed_prefix(data: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum of ``_PACKED_LUT[data]`` (``len(data) + 1``
    entries; at most ``_PACK_SAFE_BYTES`` bytes)."""
    cum = np.empty(len(data) + 1, dtype=np.int64)
    cum[0] = 0
    # bytes are always in range; mode="raise" would buffer the whole output
    np.take(_PACKED_LUT, data, out=cum[1:], mode="wrap")
    np.cumsum(cum[1:], out=cum[1:])
    return cum


def _unpack(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(alnum, ws, chars) fields of packed counts."""
    return v & _FIELD_MASK, (v >> 21) & _FIELD_MASK, v >> 42


def _window_counts(data: np.ndarray, offsets: np.ndarray, lines: bool) -> tuple:
    """(alnum, ws, n_chars, n_newlines, max_line_len) per row of one window
    of at most ``_PACK_SAFE_BYTES`` (offsets relative to ``data``); the line
    counters are None unless ``lines``.  Line lengths are in chars: the
    prefix sum's char field read at each line's start and end."""
    cum = _packed_prefix(data)
    alnum, ws, chars = _unpack(cum[offsets[1:]] - cum[offsets[:-1]])
    if not lines:
        return alnum, ws, chars, None, None
    row_starts = offsets[:-1]
    nl = np.flatnonzero(data == 10)
    lo, hi = np.searchsorted(nl, row_starts), np.searchsorted(nl, offsets[1:])
    has = hi > lo
    # the last line of each row starts after its last '\n', or at the row
    last_start = row_starts.copy()
    last_start[has] = nl[hi[has] - 1] + 1
    longest = (cum[offsets[1:]] >> 42) - (cum[last_start] >> 42)
    if len(nl):
        # a line ending at a '\n' starts after the previous '\n' or at its row
        starts = np.maximum(np.concatenate(([0], nl[:-1] + 1)),
                            np.repeat(row_starts, hi - lo))
        lens = (cum[nl] >> 42) - (cum[starts] >> 42)
        longest[has] = np.maximum(longest[has], np.maximum.reduceat(lens, lo[has]))
    return alnum, ws, chars, hi - lo, longest


def _long_row_counts(data: np.ndarray, lines: bool) -> tuple:
    """``_window_counts`` of one row over ``_PACK_SAFE_BYTES``: the packed
    prefix sum per ``_PACK_SAFE_BYTES`` piece, the open line's length
    carried from piece to piece."""
    alnum = ws = chars = newlines = longest = run = 0
    for lo in range(0, len(data), _PACK_SAFE_BYTES):
        piece = data[lo : lo + _PACK_SAFE_BYTES]
        cum = _packed_prefix(piece)
        a, w, c = (int(x) for x in _unpack(cum[-1]))
        alnum, ws, chars = alnum + a, ws + w, chars + c
        # chars before each '\n' of the piece
        at = cum[np.flatnonzero(piece == 10)] >> 42 if lines else ()
        del cum  # freed before the next piece's prefix sum is allocated
        if len(at):
            longest = max(longest, run + int(at[0]), int(np.diff(at).max(initial=1)) - 1)
            run = c - int(at[-1]) - 1
            newlines += len(at)
        else:
            run += c
    out = [np.array([v], dtype=np.int64)
           for v in (alnum, ws, chars, newlines, max(longest, run))]
    return (*out[:3], *(out[3:] if lines else (None, None)))


def text_counts(content: pa.Array | pa.ChunkedArray, lines: bool = True) -> tuple:
    """(alnum, ws, n_chars, n_newlines, max_line_len) int64 per row of a
    string column, computed one ``row_windows`` window at a time (so
    temporaries are bounded by the window, or by one long row's
    ``_PACK_SAFE_BYTES`` pieces); the line counters are None unless
    ``lines``."""
    data, offsets = string_buffer(content)
    parts = []
    for a, b in row_windows(np.diff(offsets)):
        base = offsets[a]
        win = data[base : offsets[b]]
        if b - a == 1 and len(win) > _PACK_SAFE_BYTES:
            parts.append(_long_row_counts(win, lines))
        else:
            parts.append(_window_counts(win, offsets[a : b + 1] - base, lines))
    return tuple(None if p[0] is None else np.concatenate(p) for p in zip(*parts))


ALL_TEXT_STATS = ("n_chars", "n_lines", "max_line_len", "alnum_ratio", "ws_ratio")


class TextStats:
    """Adds the requested subset of
    (n_chars, n_lines, max_line_len, alnum_ratio, ws_ratio).

    Pass only the stats your suite judges: the line counters are a second
    pass over the content bytes, skipped when no line stat is asked for.
    Holds only read-only state after ``__init__`` (window threads share
    one instance)."""

    def __init__(self, column: str = "content", stats: tuple = ALL_TEXT_STATS):
        self.column = column
        self.stats = tuple(stats)
        unknown = set(self.stats) - set(ALL_TEXT_STATS)
        if unknown:
            raise ValueError(f"unknown stats {sorted(unknown)}")

    def __call__(self, tbl: pa.Table) -> pa.Table:
        want = set(self.stats)
        alnum, ws, n_chars, newlines, longest = text_counts(
            tbl.column(self.column), lines=bool({"n_lines", "max_line_len"} & want))
        denom = np.maximum(n_chars.astype(np.float64), 1.0)
        out = {"n_chars": n_chars, "alnum_ratio": alnum / denom, "ws_ratio": ws / denom}
        if newlines is not None:
            out.update(n_lines=newlines + 1, max_line_len=longest)
        for name in self.stats:  # preserve declared order
            tbl = tbl.append_column(name, pa.array(out[name]))
        return tbl


#: BPE-ish pre-tokenizer split pattern (GPT-2 shape, lookahead dropped —
#: RE2 has no lookahead; Arrow AND DuckDB both run RE2, so Ray counts and
#: SQL-oracle counts agree exactly)
BPE_SPLIT_RE = r"'(?:s|t|re|ve|m|ll|d)| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+"


class TokenCounter:
    """Per-batch stage: per-row token counts — whitespace tokens
    (``\\S+``) and BPE-ish pre-tokenizer pieces (``BPE_SPLIT_RE``) — both
    single vectorized RE2 scans.  The standard length signal for LLM
    training-data budgeting."""

    def __init__(self, column: str = "content"):
        self.column = column

    def __call__(self, tbl: pa.Table) -> pa.Table:
        text = pc.fill_null(tbl.column(self.column).combine_chunks(), "")
        ws = pc.cast(pc.count_substring_regex(text, r"\S+"), pa.int64())
        bpe = pc.cast(pc.count_substring_regex(text, BPE_SPLIT_RE), pa.int64())
        tbl = tbl.append_column("n_tokens_ws", ws)
        tbl = tbl.append_column("n_tokens_bpe", bpe)
        return tbl


# shared segment-reduce kernels (cumsum-diff / reduceat over row offsets) —
# single home so sibling stages (code_metrics, substr_dedup) don't drift
def segment_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment sum of ``values`` delimited by ``offsets`` (int64)."""
    cum = np.concatenate(([0], np.cumsum(values, dtype=np.int64)))
    return cum[offsets[1:]] - cum[offsets[:-1]]


def segment_max(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment max (0 for empty segments)."""
    n = len(offsets) - 1
    out = np.zeros(n, dtype=values.dtype)
    nonempty = offsets[:-1] < offsets[1:]
    if nonempty.any():
        out[nonempty] = np.maximum.reduceat(values, offsets[:-1][nonempty])
    return out
