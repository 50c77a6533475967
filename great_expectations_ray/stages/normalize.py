"""Text normalization — the standard pre-tokenization cleanup pass of a
training-data pipeline (ftfy/CCNet-style): control-character strip, Unicode
NFC normalization, typographic-quote straightening, optional lowercasing,
whitespace collapse + trim.

Every step is an Arrow compute kernel (``pc.replace_substring_regex``,
``pc.utf8_lower``; NFC via an ASCII-screened fallback, see ``_nfc``)
applied in ONE stateless ``map_batches`` pass — zero-copy in, no shuffle,
no Python per row on the ASCII bulk.  At 100 TB this stage runs at
regex-engine speed and pipelines with the reads.

The step ORDER is part of the contract (strip → NFC → quotes → lower →
collapse → trim) and the DuckDB oracle composes the identical functions in
the identical order (both engines use RE2, so ``\\s``/class semantics
agree).

Reference parity: GX normalizes values only incidentally (e.g. regex
expectations lowercase via ``(?i)``); a rewrite stage is beyond its surface
— cited as absent in SURVEY.md §2 notes.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_CONTROL_RE = r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f]"
# typographic -> ASCII: curly double/single quotes, en/em dash, ellipsis
_QUOTE_MAP = [
    ("[“”„]", '"'),
    ("[‘’‚]", "'"),
    ("[–—]", "-"),
    ("…", "..."),
]


def _nfc(arr: pa.Array) -> pa.Array:
    """NFC with an ASCII fast path.  This pyarrow build's ``utf8_normalize``
    never COMPOSES (every form returns decomposed output), so it can't
    produce true NFC; instead: a vectorized ``string_is_ascii`` screen (NFC
    is the identity on ASCII), then CPython's ``unicodedata.normalize`` on
    only the non-ASCII rows, patched back via ``replace_with_mask``.  Web
    corpora are overwhelmingly ASCII per row, so the Python path touches a
    tiny residue and the stage stays batch-vectorized."""
    need = pc.invert(pc.fill_null(pc.string_is_ascii(arr), True))
    idx = np.flatnonzero(need.to_numpy(zero_copy_only=False))
    if not len(idx):
        return arr
    fixed = pa.array(
        [unicodedata.normalize("NFC", v)
         for v in arr.take(pa.array(idx)).to_pylist()],
        pa.string(),
    )
    return pc.replace_with_mask(arr, need, fixed)


@dataclass(frozen=True)
class NormalizeConfig:
    strip_control: bool = True
    nfc: bool = True
    straighten_quotes: bool = True
    lowercase: bool = False
    collapse_whitespace: bool = True


def normalize_array(text: pa.Array | pa.ChunkedArray,
                    config: NormalizeConfig = NormalizeConfig()) -> pa.Array:
    """Normalized copy of a string array (nulls preserved)."""
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    out = pc.cast(text, pa.string())
    if config.strip_control:
        out = pc.replace_substring_regex(out, _CONTROL_RE, "")
    if config.nfc:
        out = _nfc(out)
    if config.straighten_quotes:
        for pat, rep in _QUOTE_MAP:
            out = pc.replace_substring_regex(out, pat, rep)
    if config.lowercase:
        out = pc.utf8_lower(out)
    if config.collapse_whitespace:
        out = pc.replace_substring_regex(out, r"\s+", " ")
        out = pc.utf8_trim_whitespace(out)
    return out


def normalize_text(
    ds,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    config: NormalizeConfig = NormalizeConfig(),
    out_col: str = "norm_text",
):
    """(id, norm_text, changed) per row — one vectorized pass."""

    def f(tbl: pa.Table) -> pa.Table:
        orig = pc.cast(tbl.column(text_col).combine_chunks(), pa.string())
        norm = normalize_array(orig, config)
        return pa.table({
            id_col: tbl.column(id_col),
            out_col: norm,
            "changed": pc.fill_null(pc.not_equal(norm, orig), False),
        })

    return ds.select_columns([id_col, text_col]).map_batches(
        f, batch_format="pyarrow", zero_copy_batch=True
    )


# --------------------------------------------------------------------------- #
# mojibake repair (double-encoded UTF-8)
# --------------------------------------------------------------------------- #

def _sloppy_cp1252_bytes(v: str) -> bytes | None:
    """Bytes the string would have been displayed FROM, under either common
    mojibake flavor: cp1252 glyphs (''â€™'') or latin-1 passthrough where the
    viewer kept C1 controls (''â\\x80\\x99'').  ftfy calls this
    sloppy-windows-1252: cp1252 where it applies, the raw latin-1 byte for
    code points cp1252 can't encode.  None when any char is >= U+0100 and
    not a cp1252 glyph (can't have come from a single byte)."""
    try:
        return v.encode("cp1252")
    except UnicodeEncodeError:
        out = bytearray()
        for ch in v:
            try:
                out += ch.encode("cp1252")
            except UnicodeEncodeError:
                o = ord(ch)
                if o >= 256:
                    return None
                out.append(o)
        return bytes(out)


#: mojibake ANCHOR chars — the cp1252 display of UTF-8 lead bytes that are
#: rare as genuine text: 0xC2 'Â', 0xC3 'Ã', 0xE2 'â' (when followed by C1
#: glyphs), 0xEF 'ï' (BOM mojibake 'ï»¿'), 0xF0 'ð' (emoji mojibake), and
#: the Greek / Cyrillic leads 0xCE 'Î', 0xCF 'Ï', 0xD0 'Ð', 0xD1 'Ñ'
#: ('Î±Î²Î³' = 'αβγ', 'ÐŸÑ€Ð¸Ð²ÐµÑ‚' = 'Привет').
#: Deliberately EXCLUDES the real-word leads Ä Å Æ Ç È É … ß á à (ftfy's
#: badness heuristics make the same call): without this guard, plausible
#: text like 'ß—' — whose cp1252 bytes DF 97 happen to be valid UTF-8 —
#: would be "repaired" into an unrelated NKO codepoint (found by the
#: round-5 hypothesis sweep).
_MOJIBAKE_ANCHORS = frozenset("ÂÃâïðÎÏÐÑ")


def _repair_mojibake_value(v: str) -> str:
    """ftfy-style single-step repair: if the string round-trips back to
    bytes (sloppy cp1252) AND those bytes decode as valid UTF-8 to a
    DIFFERENT string, it was UTF-8 shown through a one-byte codec — return
    the decode.  Most genuine accented text fails the UTF-8 decode (e.g.
    lone 0xE9 from 'é'); the anchor-char guard above covers the residue
    whose bytes accidentally form valid UTF-8."""
    if not any(ch in _MOJIBAKE_ANCHORS for ch in v):
        return v
    b = _sloppy_cp1252_bytes(v)
    if b is None:
        return v
    try:
        r = b.decode("utf-8")
    except UnicodeDecodeError:
        return v
    return r if r != v else v


def fix_mojibake_array(text: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Repaired copy of a string array.  Vectorized ASCII screen (mojibake
    requires non-ASCII bytes), Python repair on the non-ASCII residue only —
    the same hit-rate discipline as ``_nfc``."""
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    arr = pc.cast(text, pa.string())
    need = pc.invert(pc.fill_null(pc.string_is_ascii(arr), True))
    idx = np.flatnonzero(need.to_numpy(zero_copy_only=False))
    if not len(idx):
        return arr
    fixed = pa.array(
        [_repair_mojibake_value(v)
         for v in arr.take(pa.array(idx)).to_pylist()],
        pa.string(),
    )
    return pc.replace_with_mask(arr, need, fixed)


def fix_mojibake(ds, *, text_col: str = "text", id_col: str = "doc_id",
                 out_col: str = "fixed_text"):
    """(id, fixed_text, changed) per row — one vectorized pass."""

    def f(tbl: pa.Table) -> pa.Table:
        orig = pc.cast(tbl.column(text_col).combine_chunks(), pa.string())
        fixed = fix_mojibake_array(orig)
        return pa.table({
            id_col: tbl.column(id_col),
            out_col: fixed,
            "changed": pc.fill_null(pc.not_equal(fixed, orig), False),
        })

    return ds.select_columns([id_col, text_col]).map_batches(
        f, batch_format="pyarrow", zero_copy_batch=True
    )
