"""Distributed exact top-k heavy hitters (frequent items) — the classic
two-pass sketch-then-verify shape (Misra-Gries / Charikar et al. lineage).

Finding the k most frequent words (or column values) with a plain
``groupby(value).count()`` shuffles EVERY distinct value — at 100 TB of web
text that is a multi-TB all-to-all exchange for an answer that is ~k rows.
The two-pass shape bounds the exchange to sketch-sized partials:

- **Pass 1 (candidates)**: each batch emits only the values whose in-batch
  count is ≥ ``n_batch / (capacity+1)``.  At most ``capacity+1`` values per
  batch can clear that bar, so the per-batch output is bounded regardless
  of batch vocabulary.  By the standard averaging argument, any value whose
  GLOBAL frequency exceeds ``N / (capacity+1)`` must clear the bar in at
  least one batch — the union of per-batch survivors is a guaranteed
  superset of every such value.  (Same guarantee Misra-Gries gives, without
  maintaining decrement state.)
- **Pass 2 (exact verify)**: the candidate set (sorted u64 hashes + the
  idx→value strings) is broadcast once via ``ray.put``; each batch counts
  ONLY candidates (vectorized ``np.searchsorted`` + ``bincount``) and emits
  one bounded count vector; the driver sums vectors.  Counts are EXACT, so
  the final top-k (count DESC, value ASC) is exact whenever the true k-th
  frequency exceeds ``N/(capacity+1)`` — trivially true for word
  distributions (Zipf) at any realistic ``capacity``.  The result carries
  ``guaranteed`` so callers can detect the (pathological) other case and
  re-run with a larger capacity.

Values are keyed by the shared 64-bit polynomial token hash
(``functions/bucketed._poly_sums``); as elsewhere in this repo the
2⁻⁶⁴-scale collision probability is documented and accepted.

Reference parity: great_expectations' closest surface is
``expect_column_most_common_value_to_be_in_set``
(expectations/core/expect_column_most_common_value_to_be_in_set.py), which
computes the single modal value via a full value-count metric; this module
generalises to top-k under a bounded exchange.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.functions.bucketed import _poly_sums
from great_expectations_ray.stages._per_worker import map_per_worker
from great_expectations_ray.stages.repetition import tokenize_nonempty


def _flat_words(text: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Flattened \\S+ tokens of a text column (empty tokens dropped) —
    the same token semantics as ``stages/repetition.tokenize_nonempty``."""
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    text = pc.fill_null(text, "")
    flat = pc.split_pattern_regex(pc.cast(text, pa.string()), r"\s+").values
    return flat.filter(pc.greater(pc.utf8_length(flat), 0))


def _flat_values(col: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Column values as strings, nulls dropped (one 'token' per row)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pc.cast(col.drop_null(), pa.string())


def _candidate_batch(flat: pa.Array, capacity: int) -> pa.Table:
    """Values whose in-batch count clears n/(capacity+1) — ≤ capacity+1 rows,
    plus one NULL-valued marker row carrying the batch token total (so the
    driver can reason about the exactness guarantee even when nothing
    clears the bar)."""
    n = len(flat)
    if n == 0:
        return pa.table({"value": pa.array([], pa.string()),
                         "n_tok": pa.array([], pa.int64())})
    vc = pc.value_counts(flat)
    counts = np.asarray(vc.field("counts"), dtype=np.int64)
    keep = counts >= max(1, math.ceil(n / (capacity + 1)))
    vals = vc.field("values").filter(pa.array(keep))
    return pa.table({
        "value": pa.concat_arrays([vals.cast(pa.string()),
                                   pa.array([None], pa.string())]),
        "n_tok": pa.array([0] * len(vals) + [n], pa.int64()),
    })


class _CandidateCounter:
    """Pass-2 stage: exact in-batch counts of the broadcast candidate set.
    The sorted hash array is fetched from the object store ONCE per worker
    (``__init__``), never per batch."""

    def __init__(self, hashes_ref, *, col: str, mode: str):
        import ray

        self.hashes = (
            ray.get(hashes_ref) if not isinstance(hashes_ref, np.ndarray) else hashes_ref
        )
        self.col = col
        self.mode = mode

    def __call__(self, tbl: pa.Table) -> pa.Table:
        if self.mode == "words":
            h, _l, _d, _c = tokenize_nonempty(tbl.column(self.col))
        else:
            h = _poly_sums(_flat_values(tbl.column(self.col)))[0]
        total = len(h)
        cnts = np.zeros(len(self.hashes), dtype=np.int64)
        if total and len(self.hashes):
            idx = np.searchsorted(self.hashes, h)
            idx[idx == len(self.hashes)] = 0
            hit = self.hashes[idx] == h
            cnts = np.bincount(idx[hit], minlength=len(self.hashes)).astype(np.int64)
        # emit only candidates SEEN in this batch — the per-batch output is
        # bounded by the batch vocabulary, not |candidates| × |batches|
        nz = np.flatnonzero(cnts)
        out = pa.table({
            "cand_idx": pa.array(nz.astype(np.int64)),
            "cnt": pa.array(cnts[nz]),
        })
        # one synthetic row carries the batch's total token count (cand_idx=-1)
        tot = pa.table({"cand_idx": pa.array([-1], pa.int64()),
                        "cnt": pa.array([total], pa.int64())})
        return pa.concat_tables([out, tot])


def heavy_hitters(
    ds,
    *,
    col: str,
    k: int = 10,
    capacity: int = 4096,
    mode: str = "words",
) -> pd.DataFrame:
    """Exact top-k most frequent words (``mode="words"``) or column values
    (``mode="values"``) of ``ds[col]``, ordered (cnt DESC, value ASC).

    Returns a k-row DataFrame ``(value, cnt)`` plus a ``guaranteed`` bool
    attr (``df.attrs["guaranteed"]``): True iff the k-th count exceeds
    ``N/(capacity+1)``, i.e. the candidate superset provably contained the
    true top-k.
    """
    import ray

    flat_fn = _flat_words if mode == "words" else _flat_values
    proj = ds.select_columns([col])

    # ---- pass 1: bounded per-batch candidate emission -> driver union ----
    cand_parts: list[pa.Table] = []
    for b in (
        proj.map_batches(
            lambda t: _candidate_batch(flat_fn(t.column(col)), capacity),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).iter_batches(batch_format="pyarrow", batch_size=None)
    ):
        cand_parts.append(b)
    pass1_total = sum(
        int(pc.sum(t.column("n_tok")).as_py() or 0) for t in cand_parts
    )
    cand_vals = (
        pc.unique(
            pa.concat_tables(cand_parts).column("value").combine_chunks().drop_null()
        )
        if cand_parts
        else pa.array([], pa.string())
    )
    if len(cand_vals) == 0:
        df = pd.DataFrame({"value": pd.Series([], dtype=str), "cnt": pd.Series([], dtype="int64")})
        # vacuously exact only if the input had no tokens at all; otherwise
        # nothing cleared the bar and the caller must raise capacity
        df.attrs["guaranteed"] = pass1_total == 0
        return df
    hashes = _poly_sums(cand_vals)[0]
    order = np.argsort(hashes, kind="stable")
    hashes_sorted = np.ascontiguousarray(hashes[order])
    words_sorted = cand_vals.take(pa.array(order)).to_pylist()

    # ---- pass 2: broadcast candidates, exact vectorized counts ----
    hashes_ref = ray.put(hashes_sorted)
    totals = np.zeros(len(hashes_sorted), dtype=np.int64)
    grand_total = 0
    for b in (
        map_per_worker(
            proj, _CandidateCounter,
            {"hashes_ref": hashes_ref, "col": col, "mode": mode},
            batch_format="pyarrow", zero_copy_batch=True,
        ).iter_batches(batch_format="pyarrow", batch_size=None)
    ):
        ci = np.asarray(b.column("cand_idx"), dtype=np.int64)
        cn = np.asarray(b.column("cnt"), dtype=np.int64)
        tot_mask = ci == -1
        grand_total += int(cn[tot_mask].sum())
        np.add.at(totals, ci[~tot_mask], cn[~tot_mask])

    df = pd.DataFrame({"value": words_sorted, "cnt": totals})
    df = df.sort_values(["cnt", "value"], ascending=[False, True], kind="stable")
    df = df.head(k).reset_index(drop=True)
    # conservative: exactness is only provable when we returned a full k rows
    # whose k-th count clears the candidate-superset threshold; fewer than k
    # candidates does NOT prove the distinct universe is smaller than k
    kth = int(df["cnt"].iloc[-1]) if len(df) else 0
    df.attrs["guaranteed"] = (
        len(df) == k and kth > grand_total / (capacity + 1)
    )
    return df
