"""Heuristic text/code statistics — stateless vectorized map_batches stage.

Computes the columns the quality suite's heuristic expectations judge
(length / line-length / alphanumeric-ratio rules re-expressed as
``expect_column_values_to_be_between`` over these columns, per the north
star's "vectorized heuristic expectations").

All stats are computed straight off the Arrow UTF-8 data buffer with numpy
lookup tables + cumsums — zero copies, no per-char regex iteration (counting
every alnum char with an RE2 kernel costs ~100 ns per MATCH; the byte-LUT
path runs at memory bandwidth).  Char-class counts are byte-based, which for
UTF-8 equals char-based counts for ASCII classes (continuation bytes >= 0x80
never match), matching the ``[A-Za-z0-9]`` reference semantics.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

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


def _string_buffer(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(utf8 bytes, int64 row offsets) for a [large_]string array."""
    arr = pc.fill_null(arr, "")
    if not pa.types.is_large_string(arr.type):
        arr = pc.cast(arr, pa.large_string())
    bufs = arr.buffers()
    offsets = np.frombuffer(bufs[1], dtype=np.int64)[arr.offset : arr.offset + len(arr) + 1]
    data = np.frombuffer(bufs[2], dtype=np.uint8)
    return data, offsets


def _per_row_lut_counts(data: np.ndarray, offsets: np.ndarray, lut: np.ndarray) -> np.ndarray:
    cum = np.concatenate(([0], np.cumsum(lut[data], dtype=np.int64)))
    return cum[offsets[1:]] - cum[offsets[:-1]]


# one packed LUT: alnum | ws<<21 | char_start<<42 — 21-bit fields hold counts
# for batches up to 2 MiB of content, so ONE gather + ONE cumsum serves three
# per-row counters (unpacked from the offset diffs)
_PACKED_LUT = (_ALNUM_LUT + (_WS_LUT << 21) + (_CHAR_START_LUT << 42)).astype(np.int64)
_FIELD_MASK = (1 << 21) - 1
_PACK_SAFE_BYTES = (1 << 21) - 1


def _packed_counts(data: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(alnum, ws, n_chars) per row via the packed LUT."""
    if len(data) <= _PACK_SAFE_BYTES:
        # reduceat writes only n_rows outputs (vs a full-length cumsum array)
        gathered = _PACKED_LUT[data]
        n = len(offsets) - 1
        diff = np.zeros(n, dtype=np.int64)
        nonempty = offsets[:-1] < offsets[1:]
        if nonempty.any():
            diff[nonempty] = np.add.reduceat(gathered, offsets[:-1][nonempty])
            # reduceat with duplicate/trailing indices handled via nonempty mask
        return diff & _FIELD_MASK, (diff >> 21) & _FIELD_MASK, (diff >> 42) & _FIELD_MASK
    return (
        _per_row_lut_counts(data, offsets, _ALNUM_LUT),
        _per_row_lut_counts(data, offsets, _WS_LUT),
        _per_row_lut_counts(data, offsets, _CHAR_START_LUT),
    )


def _per_row_max_line(
    data: np.ndarray, offsets: np.ndarray, nl: np.ndarray | None = None
) -> np.ndarray:
    """Max line length (in chars) per row.  Lines break at '\\n' and at row
    boundaries; global line segments are assigned back to rows and reduced
    with ``np.maximum.reduceat``."""
    n = len(offsets) - 1
    row_starts = offsets[:-1]
    if nl is None:
        nl = np.flatnonzero(data == 10).astype(np.int64)
    starts_all = np.unique(np.concatenate((row_starts, nl + 1, offsets[-1:])))
    # drop the sentinel end position from starts; keep as boundary list
    bounds = starts_all
    seg_starts = bounds[:-1]
    seg_ends = bounds[1:]
    # a segment ending at a newline position excludes the newline itself
    is_nl_end = np.zeros(len(seg_ends), dtype=bool)
    inner = seg_ends < len(data)
    # segment end e means next segment starts at e; it was produced by a
    # newline iff data[e-1] == '\n'
    prev = seg_ends - 1
    valid_prev = prev >= 0
    is_nl_end[valid_prev] = data[prev[valid_prev]] == 10
    # char-based line lengths: count char-start bytes, not raw bytes
    cum_chars = np.concatenate(([0], np.cumsum(_CHAR_START_LUT[data], dtype=np.int64)))
    seg_lens = cum_chars[seg_ends] - cum_chars[seg_starts] - is_nl_end.astype(np.int64)

    # map segments to rows
    row_of = np.searchsorted(row_starts, seg_starts, side="right") - 1
    out = np.zeros(n, dtype=np.int64)
    if len(seg_lens):
        # segments are sorted by start, hence grouped by row
        first_idx = np.searchsorted(row_of, np.arange(n), side="left")
        has_segs = first_idx < len(seg_lens)
        has_segs &= row_of[np.minimum(first_idx, len(seg_lens) - 1)] == np.arange(n)
        if has_segs.any():
            red = np.maximum.reduceat(seg_lens, first_idx[has_segs])
            out[has_segs] = red
    return out


ALL_TEXT_STATS = ("n_chars", "n_lines", "max_line_len", "alnum_ratio", "ws_ratio")


class TextStats:
    """Adds the requested subset of
    (n_chars, n_lines, max_line_len, alnum_ratio, ws_ratio).

    Pass only the stats your suite judges — each skipped stat is a skipped
    pass over the content bytes (this stage is memory-bandwidth-bound at high
    core counts, so traffic == wall time)."""

    def __init__(self, column: str = "content", stats: tuple = ALL_TEXT_STATS):
        self.column = column
        self.stats = tuple(stats)
        unknown = set(self.stats) - set(ALL_TEXT_STATS)
        if unknown:
            raise ValueError(f"unknown stats {sorted(unknown)}")

    def __call__(self, tbl: pa.Table) -> pa.Table:
        content = tbl.column(self.column)
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        data, offsets = _string_buffer(content)
        want = set(self.stats)
        out: dict[str, pa.Array] = {}

        need_ratios = bool({"alnum_ratio", "ws_ratio"} & want)
        need_chars = "n_chars" in want or need_ratios
        if need_ratios or need_chars:
            alnum_i, ws_i, n_chars = _packed_counts(data, offsets)
            if "n_chars" in want:
                out["n_chars"] = pa.array(n_chars)
            if need_ratios:
                denom = np.maximum(n_chars.astype(np.float64), 1.0)
                if "alnum_ratio" in want:
                    out["alnum_ratio"] = pa.array(
                        alnum_i.astype(np.float64) / denom, pa.float64()
                    )
                if "ws_ratio" in want:
                    out["ws_ratio"] = pa.array(ws_i.astype(np.float64) / denom, pa.float64())

        if {"n_lines", "max_line_len"} & want:
            nl_pos = np.flatnonzero(data == 10).astype(np.int64)
            if "n_lines" in want:
                n_newlines = (
                    np.searchsorted(nl_pos, offsets[1:])
                    - np.searchsorted(nl_pos, offsets[:-1])
                )
                out["n_lines"] = pa.array(n_newlines + 1)
            if "max_line_len" in want:
                out["max_line_len"] = pa.array(_per_row_max_line(data, offsets, nl_pos))

        for name in self.stats:  # preserve declared order
            if name in out:
                tbl = tbl.append_column(name, out[name])
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
