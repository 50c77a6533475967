"""Deterministic data mixing with per-source repetition factors — the
"epochs per domain" step of training-corpus assembly (the Pile §2.1 and
DoReMi-style domain weighting): each document is repeated
``floor(w_source)`` times plus one extra copy for a deterministic
``frac(w_source)`` fraction of its source's documents.

Determinism (order-free, resumable, SQL-oracle-able): the extra-copy
decision is NOT random — it is ``md5(str(id))`` rank-based, the same
device as GX's ``sample_using_hash`` (reference
``execution_engine/split_and_sample/data_sampler.py``): a document gets
the extra copy iff its first-8-hex-chars md5 value is below
``floor(frac(w) * 16^8)``.  Both sides of the oracle compare FIXED-LENGTH
lowercase hex strings, whose lexicographic order equals numeric order, so
the verdict is engine-independent.

Scale shape: stateless vectorized ``map_batches`` explode — per-row weight
lookup (broadcast dict), vectorized md5 off the Arrow buffer, rows repeated
via ``Table.take`` on a repeat index.  No shuffle; output size =
Σ w_s · |source_s| by construction.  Fractional weights mean the engine
never materialises "0.5 epochs" as a shuffle+limit — selection is local.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from great_expectations_ray.stages.dedup import md5_column
from great_expectations_ray.stages.neardup import _concat_aranges
from great_expectations_ray.stages.text_stats import string_buffer


def weight_threshold_hex(w: float) -> str:
    """8-char lowercase hex literal for floor(frac(w)·16⁸) — the same
    constant the SQL oracle embeds."""
    frac = w - math.floor(w)
    return format(int(math.floor(frac * 16**8)), "08x")


def _hex8_to_u64(md5_hex: pa.Array) -> np.ndarray:
    """First 8 hex chars of each 32-char md5 string as uint64 — vectorized
    off the Arrow buffer (every row is exactly 32 ASCII bytes)."""
    data, offs = string_buffer(md5_hex)
    data = data[offs[0] : offs[-1]].reshape(len(offs) - 1, 32)
    nib = data[:, :8].astype(np.uint64)
    nib = nib - 48 - 39 * (nib >= 97)  # '0'-'9' -> 0-9, 'a'-'f' -> 10-15
    powers = (np.uint64(16) ** np.arange(7, -1, -1, dtype=np.uint64))
    return (nib * powers).sum(axis=1, dtype=np.uint64)


def repeat_plan(
    tbl: pa.Table,
    weights: dict[str, float],
    *,
    source_col: str = "source",
    id_col: str = "doc_id",
    default_weight: float = 1.0,
) -> np.ndarray:
    """int64 repeat count per row of the batch."""
    src = tbl.column(source_col).to_pandas()
    w = src.map(weights).fillna(default_weight).to_numpy(dtype=np.float64)
    base = np.floor(w).astype(np.int64)
    thr = np.floor((w - np.floor(w)) * 16**8).astype(np.uint64)
    rank = _hex8_to_u64(md5_column(tbl.column(id_col)))
    return base + (rank < thr).astype(np.int64)


def mix_with_repetition(
    ds,
    weights: dict[str, float],
    *,
    source_col: str = "source",
    id_col: str = "doc_id",
    default_weight: float = 1.0,
    epoch_col: str = "epoch",
):
    """Explode each row into its repetition copies, adding ``epoch_col``
    (0-based copy index).  Rows whose source weighs < 1 and miss the
    fractional draw vanish (0 copies)."""

    def explode(tbl: pa.Table) -> pa.Table:
        reps = repeat_plan(
            tbl, weights, source_col=source_col, id_col=id_col,
            default_weight=default_weight,
        )
        take = np.repeat(np.arange(len(tbl), dtype=np.int64), reps)
        out = tbl.take(pa.array(take))
        return out.append_column(epoch_col, pa.array(_concat_aranges(reps)))

    return ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
