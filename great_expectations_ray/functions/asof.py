"""Distributed as-of join — for each left row, the latest right row with the
same key and ``right.ts <= left.ts`` (backward direction; ``forward`` gives
the earliest right row with ``right.ts >= left.ts``).

One of the canonical operators Ray Data lacks (the reference has no joins at
all — SURVEY §2.6).  Scale shape: ONE two-sided bucketed exchange on the
``by`` key (``bucketed.two_sided_exchange``: equal keys always co-locate,
rows stay typed), then a vectorized ``pd.merge_asof`` per bucket over exact
integer group codes of ``by`` (never object strings) and row positions —
C-speed merge over the bucket's sorted frames, never an all-pairs product.
The payload columns are taken from the typed Arrow sides by the matched
positions, so they keep their types.

Partitioning assumption (documented per the build brief): a bucket must
hold every row of each key it owns — guaranteed by hashing the key, NOT
range-partitioning time; a hot key's full history lands on one reducer, so
extremely hot keys bound reducer memory (cap or split upstream if a single
key's history exceeds a worker's heap).

Null handling matches SQL ASOF LEFT JOIN: null-timestamp right rows can
never match; null-timestamp left rows are kept with null payload.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.functions.bucketed import group_codes, tag_sides, two_sided_exchange


def _usable(t: pa.Table, cols: list[str]) -> np.ndarray:
    """Rows whose ``cols`` are all non-null (and not NaN)."""
    ok = np.ones(t.num_rows, dtype=bool)
    for c in cols:
        ok &= ~np.asarray(pc.is_null(t.column(c), nan_is_null=True))
    return ok


def asof_join(
    left_ds,
    right_ds,
    *,
    by: str,
    on: str,
    left_cols: list[str],
    right_cols: list[str],
    direction: str = "backward",
    suffix: str = "_r",
):
    """Dataset of ``by, on, left_cols, right_cols{suffix}`` — one output row
    per left row (left outer semantics)."""
    if direction not in ("backward", "forward"):
        raise ValueError("direction must be 'backward' or 'forward'")
    overlap = ({by, on} & set(left_cols)) | ({by, on} & set(right_cols))
    if overlap:
        raise ValueError(
            f"by/on columns {sorted(overlap)} must not appear in "
            "left_cols/right_cols (they are emitted automatically)"
        )
    out_right = [c + suffix for c in right_cols]

    def merge_bucket(l: pa.Table, r: pa.Table) -> pa.Table:
        codes = group_codes(pa.table({by: pa.chunked_array(
            l.column(by).chunks + r.column(by).chunks, l.schema.field(by).type)}), [by])
        # SQL 'ON l.by = r.by AND l.on >= r.on' semantics: a null key or
        # null timestamp can never MATCH, but left rows are still kept
        # (left outer)
        lok, rok = _usable(l, [by, on]), _usable(r, [by, on])
        r_on = r.column(on)
        if r_on.type != l.schema.field(on).type:
            r_on = pc.cast(r_on, l.schema.field(on).type)

        def frame(t_on, g, ok, pos):
            return pd.DataFrame({on: t_on.filter(pa.array(ok)).to_numpy(),
                                 "__g": g[ok], pos: np.flatnonzero(ok)}
                                ).sort_values(on, kind="mergesort")

        match = np.full(l.num_rows, -1, dtype=np.int64)
        if lok.any() and rok.any():
            m = pd.merge_asof(
                frame(l.column(on), codes[:l.num_rows], lok, "__l"),
                frame(r_on, codes[l.num_rows:], rok, "__r"),
                on=on, by="__g", direction=direction, allow_exact_matches=True)
            match[m["__l"].to_numpy()] = m["__r"].fillna(-1).to_numpy(np.int64)
        hit = pa.array(np.maximum(match, 0), mask=match < 0)
        return pa.table([l.column(c) for c in (by, on, *left_cols)]
                        + [r.column(c).take(hit) for c in right_cols],
                        names=[by, on, *left_cols, *out_right])

    return two_sided_exchange(tag_sides(
        left_ds.select_columns(sorted({by, on, *left_cols})),
        right_ds.select_columns(sorted({by, on, *right_cols})),
        [by], n_buckets=256), merge_bucket)
