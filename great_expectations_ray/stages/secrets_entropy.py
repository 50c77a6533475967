"""Entropy-based secret detection over a source-code corpus.

The classic truffleHog signal (Dylan Ayrey, 2017 — public): credentials
that regex rules miss (random API keys, tokens, key material) are long
runs of base64/hex characters with abnormally HIGH Shannon entropy,
unlike identifiers and prose.  The reference expresses detection-shaped
rules only as regex map expectations (column_values_match_regex); this
stage generalizes them with the entropy signal the code-payload corpus
needs (stages/scrub.py covers the *known-shape* secrets: AKIA keys,
bearer tokens, PEM headers).

Per row emits:
- ``n_secret_candidates`` — maximal runs of ``[A-Za-z0-9+/=_-]`` with
  length >= 20 (the candidate charset: base64 + url-safe variants),
- ``n_hex_candidates``    — candidates that are pure ``[0-9a-fA-F]``,
- ``n_high_entropy``      — candidates over the per-class threshold
  (hex >= 3.0 bits/char, base64 >= 4.5 bits/char — truffleHog's bars).

Scale shape: ONE C-regex sweep over the batch's contiguous Arrow UTF-8
buffer (candidates are pure ASCII, so byte-level maximal runs == char
level maximal runs; matches crossing row boundaries are split at the
offsets and re-checked for length), then fully vectorized entropy: one
``np.add.at`` scatter into an (n_candidates x 256) histogram, one log2
reduction.  No shuffle, no per-row Python; pipelines with the read.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

from great_expectations_ray.stages.text_stats import string_buffer

#: maximal base64-ish runs; '-' last so the class needs no escaping
CANDIDATE_RE = re.compile(rb"[A-Za-z0-9+/=_-]{20,}")
MIN_LEN = 20
HEX_THRESHOLD = 3.0   # bits/char — hex alphabet caps at 4.0
B64_THRESHOLD = 4.5   # bits/char — truffleHog's high-entropy bar

_HEX_LUT = np.zeros(256, dtype=np.int64)
for _c in b"0123456789abcdefABCDEF":
    _HEX_LUT[_c] = 1


def secret_stats_table(content: pa.Array | pa.ChunkedArray) -> dict[str, pa.Array]:
    """Candidate/entropy columns for a content column (one vectorized pass)."""
    data, offsets = string_buffer(content)
    n = len(offsets) - 1
    zeros = np.zeros(n, dtype=np.int64)
    if n == 0 or offsets[-1] == offsets[0]:
        return {
            "n_secret_candidates": pa.array(zeros),
            "n_hex_candidates": pa.array(zeros),
            "n_high_entropy": pa.array(zeros),
        }

    base = int(offsets[0])
    window = data[base:int(offsets[-1])]
    starts, ends = [], []
    for m in CANDIDATE_RE.finditer(window):
        ms, me = m.start() + base, m.end() + base
        r0 = int(np.searchsorted(offsets, ms, side="right")) - 1
        r1 = int(np.searchsorted(offsets, me - 1, side="right")) - 1
        if r0 == r1:
            starts.append(ms)
            ends.append(me)
        else:
            # run crosses row boundaries: split at the offsets; each piece is
            # the maximal run within its row (the buffer run was maximal)
            for r in range(r0, r1 + 1):
                ps = max(ms, int(offsets[r]))
                pe = min(me, int(offsets[r + 1]))
                if pe - ps >= MIN_LEN:
                    starts.append(ps)
                    ends.append(pe)
    if not starts:
        return {
            "n_secret_candidates": pa.array(zeros),
            "n_hex_candidates": pa.array(zeros),
            "n_high_entropy": pa.array(zeros),
        }

    st = np.asarray(starts, dtype=np.int64)
    en = np.asarray(ends, dtype=np.int64)
    lengths = en - st
    m_count = len(st)
    rows = np.searchsorted(offsets, st, side="right") - 1

    seg_bytes = np.concatenate([data[a:b] for a, b in zip(st, en)])
    seg_ids = np.repeat(np.arange(m_count, dtype=np.int64), lengths)

    # pure-hex flag: per-candidate sum of the hex LUT equals its length
    cum = np.concatenate(([0], np.cumsum(lengths)))
    hex_hits = np.add.reduceat(_HEX_LUT[seg_bytes], cum[:-1])
    is_hex = hex_hits == lengths

    counts = np.zeros((m_count, 256), dtype=np.int64)
    np.add.at(counts, (seg_ids, seg_bytes), 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / lengths[:, None]
        terms = np.where(counts > 0, p * np.log2(p, where=counts > 0), 0.0)
    entropy = -terms.sum(axis=1)

    high = np.where(is_hex, entropy >= HEX_THRESHOLD, entropy >= B64_THRESHOLD)

    return {
        "n_secret_candidates": pa.array(np.bincount(rows, minlength=n).astype(np.int64)),
        "n_hex_candidates": pa.array(
            np.bincount(rows, weights=is_hex.astype(np.float64), minlength=n).astype(np.int64)
        ),
        "n_high_entropy": pa.array(
            np.bincount(rows, weights=high.astype(np.float64), minlength=n).astype(np.int64)
        ),
    }


def scan_secrets(ds, column: str = "content"):
    """Append the three secret-candidate columns to every row (streaming,
    stateless, no shuffle)."""

    def fn(tbl: pa.Table) -> pa.Table:
        cols = secret_stats_table(tbl.column(column))
        for name, arr in cols.items():
            tbl = tbl.append_column(name, arr)
        return tbl

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)
