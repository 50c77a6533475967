"""Luhn-validated payment-card detection and masking.

A bare regex over digit runs over-matches wildly on web data (timestamps,
ids, phone numbers); real PII scrubbing validates the ISO/IEC 7812 Luhn
checksum per candidate before masking.  This stage extends the scrub
pipeline (stages/scrub.py, the north rule's compiled-regex PII scrub; see
reference expectations/regex_based_column_map_expectation.py for the
detect-only analog) with a *checksum-gated* rewrite:

1. **RE2 prefilter** (`pc.count_substring_regex`) finds candidate rows per
   batch — one vectorized scan, zero Python on clean rows.  On web corpora
   the candidate rate is a small fraction of rows, so the per-match Python
   validation below runs at the hit rate, the same cost discipline as
   ``sha256_column_where``.
2. **Per-match Luhn validation** (`re.finditer` with the identical pattern
   — both engines are leftmost-first/greedy, and the ASCII class ``[0-9]``
   keeps Python's ``re`` and RE2 byte-equivalent) on candidate rows only;
   valid matches are masked, invalid digit runs are left untouched.

Output columns: ``cc_candidates`` (regex matches), ``cc_valid``
(Luhn-valid matches), and optionally the rewritten content.  The counts
are exactly reproducible in DuckDB SQL (same RE2 pattern + a list-lambda
Luhn sum), which is how the catalog oracles this stage.

At 100 TB: single map_batches pass, no shuffle, no broadcast state.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

#: candidate pattern: 13-19 digits with optional single space/dash separators,
#: word-bounded.  ASCII [0-9] (not \d) so RE2, Python re and DuckDB agree.
CC_CANDIDATE_RE = r"\b(?:[0-9][ -]?){12,18}[0-9]\b"

_PY_RE = re.compile(CC_CANDIDATE_RE)

DEFAULT_MASK = "<CC>"


def luhn_valid(digits: str) -> bool:
    """ISO/IEC 7812 Luhn checksum over an all-digit string (reference form:
    double every second digit from the right, subtract 9 above 9, sum % 10
    == 0).  Length gate 13-19 matches real card number lengths."""
    n = len(digits)
    if not (13 <= n <= 19):
        return False
    total = 0
    for i, ch in enumerate(digits):
        d = ord(ch) - 48
        if (n - i) % 2 == 0:  # even position from the right -> doubled
            d *= 2
            if d > 9:
                d -= 9
        total += d
    return total % 10 == 0


def _scan_value(text: str, mask: str, rewrite: bool) -> tuple[int, int, str]:
    """(candidates, valid, masked_text) for one candidate row."""
    cand = 0
    valid = 0
    if not rewrite:
        for m in _PY_RE.finditer(text):
            cand += 1
            if luhn_valid(re.sub(r"[^0-9]", "", m.group(0))):
                valid += 1
        return cand, valid, text
    pieces: list[str] = []
    last = 0
    for m in _PY_RE.finditer(text):
        cand += 1
        if luhn_valid(re.sub(r"[^0-9]", "", m.group(0))):
            valid += 1
            pieces.append(text[last : m.start()])
            pieces.append(mask)
            last = m.end()
    pieces.append(text[last:])
    return cand, valid, "".join(pieces)


class CardScrubber:
    """map_batches callable: appends ``cc_candidates`` / ``cc_valid`` (and
    rewrites ``content`` in place when ``rewrite=True``, masking only the
    Luhn-valid matches)."""

    def __init__(self, content_col: str = "content", *,
                 mask: str = DEFAULT_MASK, rewrite: bool = True):
        self.content_col = content_col
        self.mask = mask
        self.rewrite = rewrite

    def __call__(self, tbl: pa.Table) -> pa.Table:
        orig = tbl.column(self.content_col)
        if isinstance(orig, pa.ChunkedArray):
            orig = orig.combine_chunks()
        # null-filled copy is used for SCANNING only; rewrites patch into
        # the ORIGINAL column so null rows stay null regardless of batching
        s = pc.cast(pc.fill_null(orig, ""), pa.string())
        # vectorized RE2 prefilter: candidate count per row
        cand = np.asarray(
            pc.cast(pc.count_substring_regex(s, CC_CANDIDATE_RE), pa.int64())
        ).copy()  # Arrow buffer view is read-only; hit rows are updated below
        valid = np.zeros(len(cand), dtype=np.int64)
        hit_rows = np.nonzero(cand > 0)[0]
        out = tbl
        if len(hit_rows) > 0:
            if self.rewrite:
                # only candidate rows are pulled to Python; mutated rows
                # are patched back via replace_with_mask (the _nfc pattern)
                fixed_idx: list[int] = []
                fixed_vals: list[str] = []
                for i in hit_rows:
                    i = int(i)
                    c, v, new = _scan_value(s[i].as_py(), self.mask, True)
                    cand[i], valid[i] = c, v
                    if v:
                        fixed_idx.append(i)
                        fixed_vals.append(new)
                if fixed_idx:
                    mask = np.zeros(len(s), dtype=bool)
                    mask[fixed_idx] = True
                    patched = pc.replace_with_mask(
                        pc.cast(orig, pa.string()), pa.array(mask),
                        pa.array(fixed_vals, pa.string()))
                    out = tbl.set_column(
                        tbl.column_names.index(self.content_col),
                        self.content_col, patched)
            else:
                for i in hit_rows:
                    i = int(i)
                    c, v, _ = _scan_value(s[i].as_py(), self.mask, False)
                    cand[i], valid[i] = c, v
        return (out.append_column("cc_candidates", pa.array(cand))
                   .append_column("cc_valid", pa.array(valid)))
