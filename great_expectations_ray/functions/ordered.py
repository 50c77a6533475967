"""Order-sensitive operators (reference #21/#22: increasing/decreasing).

GX's pandas impl assumes the batch's physical row order
(``column_values_increasing.py:20-43``: ``series.diff()``, first row
vacuously true).  Ray Data blocks are unordered, so we require explicit
``partition_by``/``order_by`` keys — the same move GX makes for SQL backends
with ``unexpected_index_column_names`` (documented deviation, SURVEY §7).

Implementation: ONE hash-bucket shuffle on ``partition_by``, then a
vectorized whole-bucket pass: sort by [key, order_by], diff once across the
bucket, mask out key boundaries, and count violations per key with a single
groupby — per-key Python callbacks don't survive millions of partitions
(functions/bucketed.py).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.functions.bucketed import key_groups


def _sorted_partitions(g: pa.Table, partition_by: str, order_cols: list[str]):
    """The bucket sorted by (partition, order), its partition bounds, and per
    adjacent row pair: same partition (a null key is ONE partition — SQL
    window PARTITION BY semantics)."""
    g, bounds = key_groups(g, [partition_by], [(c, "ascending") for c in order_cols])
    head = np.zeros(g.num_rows, dtype=bool)
    head[bounds[:-1]] = True
    return g, bounds, ~head[1:]


def _verdicts(g: pa.Table, bounds: np.ndarray, viol: np.ndarray,
              partition_by: str) -> pa.Table:
    """One row per partition: ``n_rows``, ``n_violations``, ``monotonic``."""
    starts = bounds[:-1]
    n_viol = np.add.reduceat(viol.astype(np.int64), starts) if len(starts) \
        else np.zeros(0, dtype=np.int64)
    return pa.table({partition_by: g.column(partition_by).take(starts),
                     "n_rows": pa.array(np.diff(bounds)),
                     "n_violations": pa.array(n_viol),
                     "monotonic": pa.array(n_viol == 0)})


def _floats(col) -> np.ndarray:
    """float64 values (NaN for null); temporal values by their integer."""
    if pa.types.is_temporal(col.type):
        col = pc.cast(col, pa.int64())
    return np.asarray(pc.fill_null(pc.cast(col, pa.float64(), safe=False), np.nan))


def grouped_monotonic(
    ds,
    column: str,
    partition_by: str,
    order_by: list[str] | str,
    *,
    strictly: bool = False,
    decreasing: bool = False,
):
    """Per-partition monotonicity verdicts: one row per partition key with
    ``n_rows``, ``n_violations`` and ``monotonic`` (bool).  First row of each
    group is vacuously conforming, as in the reference."""
    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed

    order_cols = [order_by] if isinstance(order_by, str) else list(order_by)

    def check_bucket(g: pa.Table) -> pa.Table:
        g, bounds, same = _sorted_partitions(g, partition_by, order_cols)
        vals = _floats(g.column(column))
        viol = np.zeros(g.num_rows, dtype=bool)
        if g.num_rows > 1:
            d = np.diff(vals)
            if decreasing:
                bad = (d >= 0) if strictly else (d > 0)
            else:
                bad = (d <= 0) if strictly else (d < 0)
            # a diff across a partition boundary is not a violation (first
            # row of each group is vacuously conforming)
            viol[1:] = bad & same
        return _verdicts(g, bounds, viol, partition_by)

    # prune before the shuffle: only the verdict columns move
    needed = sorted({column, partition_by, *order_cols})
    return grouped_apply_bucketed(
        ds.select_columns(needed), [partition_by], check_bucket
    )


def grouped_ordered_rule(
    ds,
    column: str,
    partition_by: str,
    order_by: list[str] | str,
    *,
    kind: str,
    reverse: bool = False,
    strictly: bool = False,
    from_value: float | None = None,
    to_value: float | None = None,
):
    """Ordered contrib rules over the same one-shuffle substrate as
    ``grouped_monotonic``.  ``kind``:

    - ``alphabetical`` — consecutive lowercased values in order
      (expect_column_values_to_be_alphabetical.py:29-50; ``reverse=True``
      checks Z->A; comparisons with a null/empty neighbour are skipped)
    - ``change_between`` — ``from_value <= |cur - prev| <= to_value``; the
      first row of each partition compares against a ``from_value`` fill
      (expect_column_values_to_change_between.py:30-42; non-numeric/null
      values raise TypeError, as the contrib does)
    - ``string_integers_increasing`` — all-digit strings cast to int, diffs
      >= 0 (or > 0 when ``strictly``)
      (expect_column_values_to_be_string_integers_increasing.py:43-56)

    Partitions come from exact group codes (``bucketed.key_groups``); the
    values of ``column`` go through pandas string/number parsing only."""
    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed

    order_cols = [order_by] if isinstance(order_by, str) else list(order_by)

    def check_bucket(g: pa.Table) -> pa.Table:
        g, bounds, same = _sorted_partitions(g, partition_by, order_cols)
        values = g.column(column).to_pandas()
        n = g.num_rows
        viol = np.zeros(n, dtype=bool)
        if kind == "alphabetical":
            s = values.astype("string").str.lower()
            vals = s.to_numpy(dtype=object)
            if n > 1:
                prev, cur = vals[:-1], vals[1:]
                # null/empty neighbours -> comparison skipped (contrib None)
                comparable = np.array(
                    [p is not pd.NA and c is not pd.NA and bool(p) and bool(c)
                     for p, c in zip(prev, cur)], dtype=bool
                )
                if reverse:
                    bad = np.array([not (p >= c) if ok_ else False
                                    for p, c, ok_ in zip(prev, cur, comparable)])
                else:
                    bad = np.array([not (p <= c) if ok_ else False
                                    for p, c, ok_ in zip(prev, cur, comparable)])
                viol[1:] = bad & same
        elif kind == "change_between":
            raw = pd.to_numeric(values, errors="coerce")
            if raw.isna().any():
                raise TypeError("Column values must be numeric !")
            vals = raw.to_numpy(dtype=np.float64)
            if n:
                d = np.empty(n, dtype=np.float64)
                d[0] = from_value
                if n > 1:
                    d[1:] = np.diff(vals)
                    # first row of each NEW partition also compares the fill
                    d[1:][~same] = from_value
                ok_ = (np.abs(d) >= from_value) & (np.abs(d) <= to_value)
                viol[:] = ~ok_
        elif kind == "string_integers_increasing":
            s = values.astype("string")
            if not s.str.isdigit().fillna(False).all():
                raise TypeError(
                    "Column must be a string-type capable of being cast to int."
                )
            vals = s.astype("int64").to_numpy()
            if n > 1:
                d = np.diff(vals)
                bad = (d <= 0) if strictly else (d < 0)
                viol[1:] = bad & same
        else:
            raise ValueError(f"unknown ordered kind {kind!r}")
        return _verdicts(g, bounds, viol, partition_by)

    needed = sorted({column, partition_by, *order_cols})
    return grouped_apply_bucketed(
        ds.select_columns(needed), [partition_by], check_bucket
    )


# --------------------------------------------------------------------------- #
# global (no partition_by) monotonicity — reference pandas semantics
# --------------------------------------------------------------------------- #


def global_monotonic(
    ds,
    column: str,
    *,
    strictly: bool = False,
    decreasing: bool = False,
    sample_cap: int = 20,
):
    """Whole-dataset-order monotonicity, the reference's pandas semantics
    (``column_values_increasing.py:20-43``: ``series.diff()`` over the
    batch's physical row order, nulls dropped first, first value vacuously
    conforming) — without requiring ``partition_by``/``order_by``.

    Shape: ``select_columns([column])`` prunes to the ONE needed column
    before materializing, so only that column's bytes land in the object
    store; per-block summaries ``(first, last, within-block violations)``
    run as parallel Ray tasks (vectorized ``np.diff``); the driver stitches
    block boundaries in block order — O(#blocks) driver work, no shuffle.
    Raw Ray tasks are used because the Dataset API has no ordered
    block-index primitive (an ordered zip); block order of a read dataset
    follows file/fragment order, which is the only global order a
    distributed Parquet corpus has.

    Returns ``(element_count, null_count, violations, sample_values)``
    where ``element_count`` counts non-null values considered.
    """
    import ray

    mat = ds.select_columns([column]).materialize()
    try:
        bundles = list(mat.iter_internal_ref_bundles())
        block_refs = [ref for b in bundles for ref in b.block_refs]
    except AttributeError:  # older Ray
        block_refs = mat.get_internal_block_refs()

    @ray.remote
    def summarize(block) -> dict:
        tbl = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
        col = tbl.column(column)
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        valid = arr.drop_null()
        nulls = len(arr) - len(valid)
        if pa.types.is_string(valid.type) or pa.types.is_large_string(valid.type):
            raise TypeError(
                f"{column} is a string column; increasing/decreasing needs a "
                "numeric/temporal column (cast or parse upstream)"
            )
        vals = np.asarray(valid)  # timestamps -> datetime64, diffs compare fine
        n = len(vals)
        if n <= 1:
            return {"n": n, "nulls": nulls, "viol": 0, "sample": [],
                    "first": vals[0] if n else None,
                    "last": vals[-1] if n else None}
        d = np.diff(vals)
        zero = d - d  # typed zero (works for timedelta64 and numbers)
        if decreasing:
            bad = (d >= zero) if strictly else (d > zero)
        else:
            bad = (d <= zero) if strictly else (d < zero)
        sample = vals[1:][bad][:sample_cap]
        return {"n": n, "nulls": nulls, "viol": int(bad.sum()),
                "sample": [v.item() if hasattr(v, "item") else v for v in sample],
                "first": vals[0], "last": vals[-1]}

    summaries = ray.get([summarize.remote(r) for r in block_refs])

    element_count = null_count = violations = 0
    sample: list = []
    prev_last = None
    for s in summaries:
        element_count += s["n"]
        null_count += s["nulls"]
        violations += s["viol"]
        if len(sample) < sample_cap:
            sample.extend(s["sample"][: sample_cap - len(sample)])
        if s["n"] == 0:
            continue  # all-null block: boundary carries across it
        if prev_last is not None:
            first = s["first"]
            if decreasing:
                bad = first >= prev_last if strictly else first > prev_last
            else:
                bad = first <= prev_last if strictly else first < prev_last
            if bad:
                violations += 1
                if len(sample) < sample_cap:
                    v = first
                    sample.append(v.item() if hasattr(v, "item") else v)
        prev_last = s["last"]
    return element_count, null_count, violations, sample
