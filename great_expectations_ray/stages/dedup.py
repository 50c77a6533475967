"""Deduplication operators — the quality-filter engine's [S] wide ops.

The reference only *detects* duplicates (``column_values.unique``,
``compound_columns.unique`` — SURVEY §2.6); a training-data pipeline must also
*drop* them.  All variants follow the same scalable shape: derive a compact
key per row in a vectorized ``map_batches``, then ONE hash shuffle on the key
(``groupby``), never an all-pairs comparison.

- exact: sha256(content) (or any key columns) -> keep-first by a
  deterministic order column
- minhash-LSH / simhash / ngram-jaccard / embedding-LSH: see the sibling
  functions below (near-dup family)
"""

from __future__ import annotations

import hashlib
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.stages.text_stats import string_buffer


def composite_key_column(tbl: pa.Table, columns: list[str]) -> pa.Array:
    parts = [pc.cast(tbl.column(c).combine_chunks(), pa.string()) for c in columns]
    if len(parts) == 1:
        return parts[0]
    return pc.binary_join_element_wise(
        *parts, "\x1f", null_handling="replace", null_replacement="\x00"
    )


def _dedup_key_column(tbl: pa.Table, columns: list[str]) -> pa.Array:
    """One exact key per row: :func:`composite_key_column` for one column;
    for several, each part length-prefixed (``"3:abc"``) or ``"~"`` for a
    null, so distinct tuples never share a key (a separator join maps
    ``("a\x1fb", "c")`` and ``("a", "b\x1fc")`` to one)."""
    if len(columns) == 1:
        return composite_key_column(tbl, columns)
    parts = []
    for c in columns:
        s = pc.cast(tbl.column(c).combine_chunks(), pa.string())
        parts.append(pc.fill_null(pc.binary_join_element_wise(
            pc.cast(pc.binary_length(s), pa.string()), s, ":"), "~"))
    return pc.binary_join_element_wise(*parts, "")


def dedup_exact(ds, key_columns: list[str], order_by: str, n_buckets: int = 256):
    """Keep exactly one row per key: the row with the MINIMUM ``order_by``
    value (deterministic keep-first).  One shuffle, bucketed: per-key work is
    a vectorized sort + first-of-run take over each hash bucket, so reduce
    cost is independent of key cardinality (Ray's per-group overhead is
    pathological at millions of distinct keys — see functions/bucketed.py).

    Scale note: map-side ``local_keep_first`` pre-combine means ≤1 row per
    key leaves each batch, so a hot key (mega duplicate class) costs the
    reducer #batches rows, not its full group size (skew mitigation,
    SURVEY §4).
    """

    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed, key_groups
    from great_expectations_ray.stages.skew import local_keep_first

    def add_key_and_prereduce(tbl: pa.Table) -> pa.Table:
        tbl = tbl.append_column("__dedup_key", _dedup_key_column(tbl, key_columns))
        return local_keep_first(tbl, "__dedup_key", order_by)

    def keep_first_bucket(g: pa.Table) -> pa.Table:
        g, bounds = key_groups(g, ["__dedup_key"], [(order_by, "ascending")])
        return g.take(bounds[:-1]).drop_columns(["__dedup_key"])

    keyed = ds.map_batches(
        add_key_and_prereduce, batch_format="pyarrow", zero_copy_batch=True
    )
    return grouped_apply_bucketed(
        keyed, ["__dedup_key"], keep_first_bucket, n_buckets=n_buckets
    )


def md5_column(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """md5 hex per value — mirrors the reference's hash sampler
    (``pandas_data_sampler.py:117`` hashes str(value) with md5).

    String columns hash straight off the Arrow UTF-8 buffer (str(value) is
    the value itself; nulls give None); other types fall back to the str()
    loop for md5 parity with the reference."""
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        data, offs = string_buffer(col)
        mv, o, _md5 = memoryview(data), offs.tolist(), hashlib.md5
        return pa.array([_md5(mv[a:b]).hexdigest() for a, b in zip(o, o[1:])], pa.string(),
                        mask=np.asarray(pc.is_null(col)) if col.null_count else None)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pa.array(
        [hashlib.md5(str(v.as_py()).encode()).hexdigest() if v.is_valid else None for v in col],
        pa.string(),
    )


def sample_using_hash(ds, column: str, matches: str = "0", digits: int = 1):
    """GX ``sample_using_hash`` semantics: keep rows whose md5(str(value))
    hex suffix equals ``matches``."""

    def f(tbl: pa.Table) -> pa.Table:
        h = md5_column(tbl.column(column))
        suffix = pc.utf8_slice_codeunits(h, 32 - digits, 32)
        return tbl.filter(pc.equal(suffix, matches))

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def sample_using_mod(ds, column: str, mod: int, value: int):
    """GX ``sample_using_mod``: keep rows where column % mod == value."""

    def f(tbl: pa.Table) -> pa.Table:
        # modulo via subtract/divide to stay in Arrow kernels (int divide truncates)
        col = pc.cast(tbl.column(column), pa.int64())
        rem = pc.subtract(col, pc.multiply(pc.divide(col, mod), mod))
        return tbl.filter(pc.equal(rem, value))

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def dedup_keep_best(
    ds,
    key_columns: list[str],
    score_col: str,
    *,
    tie_break: str,
    higher_is_better: bool = True,
    n_buckets: int = 256,
):
    """Keep the BEST row of every duplicate class, not the first: per key,
    the row with the max (or min) ``score_col``, ties broken by minimum
    ``tie_break`` (deterministic).  The curation form of
    :func:`dedup_exact` — when a crawl carries near-identical copies at
    different quality levels, the survivor should be the best one, not the
    lexicographically first.

    Same scale shape as keep-first: a map-side per-batch combine leaves at
    most one row per key per batch, then ONE bucketed exchange finishes
    each key vectorized — a hot key costs the reducer #batches rows."""
    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed, key_groups

    order = [(score_col, "descending" if higher_is_better else "ascending"),
             (tie_break, "ascending")]

    def best_of(t: pa.Table) -> pa.Table:
        t, bounds = key_groups(t, ["__dedup_key"], order)
        return t.take(bounds[:-1])

    def add_key_and_prereduce(tbl: pa.Table) -> pa.Table:
        return best_of(tbl.append_column(
            "__dedup_key", _dedup_key_column(tbl, key_columns)))

    def keep_best_bucket(g: pa.Table) -> pa.Table:
        return best_of(g).drop_columns(["__dedup_key"])

    keyed = ds.map_batches(
        add_key_and_prereduce, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_apply_bucketed(
        keyed, ["__dedup_key"], keep_best_bucket, n_buckets=n_buckets)
