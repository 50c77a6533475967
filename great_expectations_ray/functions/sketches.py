"""Mergeable sketches — the approximate path for cardinality at corpus scale.

The reference is exact-only (``allow_relative_error`` exists only for SQL
quantiles — SURVEY §2.6); at 10^12 rows, exact distinct counting of
high-cardinality columns costs a full shuffle.  HyperLogLog gives ~1.6%
error (p=12, 4096 registers, 4 KB state) with a per-batch partial and an
associative max-merge — the canonical sketch shape for
``map_batches -> merge`` (see the Ray guide's aggregation notes).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit mix of int64/uint64 values (vectorized)."""
    z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _hash_column(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """uint64 hashes per nonnull value; ints vectorized, strings via md5."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = col.drop_null()
    if pa.types.is_integer(col.type):
        return _splitmix64(np.asarray(pc.cast(col, pa.int64())))
    if pa.types.is_floating(col.type):
        return _splitmix64(np.asarray(pc.cast(col, pa.float64())).view(np.int64))
    s = pc.cast(col, pa.string())
    return np.fromiter(
        (int.from_bytes(hashlib.md5(v.as_py().encode()).digest()[:8], "little")
         for v in s),
        dtype=np.uint64,
        count=len(s),
    )


class HyperLogLog:
    """p=12 HLL: 4096 uint8 registers; update / merge / estimate."""

    P = 12
    M = 1 << 12

    def __init__(self):
        self.registers = np.zeros(self.M, dtype=np.uint8)

    def update_hashes(self, h: np.ndarray) -> None:
        if not len(h):
            return
        idx = (h >> np.uint64(64 - self.P)).astype(np.int64)
        rest = (h << np.uint64(self.P)) | np.uint64(1 << (self.P - 1))
        # rho = leading zeros of the remaining bits + 1, via a vectorized
        # 6-step binary leading-zero count
        bits = np.zeros(len(h), dtype=np.uint64)
        x = rest
        for s in (32, 16, 8, 4, 2, 1):
            mask = x >> np.uint64(64 - s) == 0
            bits = bits + np.where(mask, np.uint64(s), np.uint64(0))
            x = np.where(mask, x << np.uint64(s), x)
        rho = (bits + 1).astype(np.uint8)
        np.maximum.at(self.registers, idx, rho)

    def update_column(self, col) -> None:
        self.update_hashes(_hash_column(col))

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        m = float(self.M)
        alpha = 0.7213 / (1 + 1.079 / m)
        est = alpha * m * m / np.sum(2.0 ** (-self.registers.astype(np.float64)))
        zeros = int((self.registers == 0).sum())
        if est <= 2.5 * m and zeros > 0:
            est = m * np.log(m / zeros)  # linear counting, small range
        return float(est)


def approx_distinct(ds, column: str) -> float:
    """Approximate distinct count of a column: per-batch HLL partial, driver
    max-merge — constant memory regardless of cardinality."""
    import pickle

    def partial(tbl: pa.Table) -> pa.Table:
        h = HyperLogLog()
        h.update_column(tbl.column(column))
        return pa.table({"sk": pa.array([pickle.dumps(h.registers)], pa.large_binary())})

    merged = HyperLogLog()
    for r in ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True).take_all():
        other = HyperLogLog()
        other.registers = pickle.loads(r["sk"])
        merged.merge(other)
    return merged.estimate()


class ThetaSketch:
    """Theta (KMV) distinct-count sketch with SET OPERATIONS — the piece
    HLL lacks: union, intersection and A-minus-B estimates across corpora
    (Dasgupta et al., "Theta-Sketch Framework", public; Apache DataSketches
    semantics).  Keeps the k smallest distinct uint64 value hashes; theta is
    the sampling threshold (entries are strictly below it), so
    ``estimate = |retained| / (theta / 2^64)``.

    Fully deterministic and order/partitioning-invariant: no RNG — the
    retained set is a pure function of the value-hash set, so a merge of
    per-block partials is BIT-IDENTICAL to a single-pass build.  Day-2 use:
    sketch yesterday's url/doc-key column once, persist the ~32 KB row, and
    answer "how many NEW keys today" without touching yesterday's corpus.
    """

    FULL = 1 << 64

    def __init__(self, k: int = 4096):
        if k < 16:
            raise ValueError("theta sketch k must be >= 16")
        self.k = int(k)
        self.theta = self.FULL
        self.hashes = np.empty(0, dtype=np.uint64)  # sorted, distinct, < theta

    def _trim(self, r: np.ndarray) -> None:
        if len(r) > self.k:
            self.theta = int(r[self.k])
            r = r[: self.k]
        self.hashes = r

    def update_hashes(self, h: np.ndarray) -> None:
        if not len(h):
            return
        h = np.unique(h.astype(np.uint64))
        if self.theta < self.FULL:
            h = h[h < np.uint64(self.theta)]
        self._trim(np.union1d(self.hashes, h))

    def update_column(self, col) -> None:
        self.update_hashes(_hash_column(col))

    def merge(self, other: "ThetaSketch") -> "ThetaSketch":
        t = min(self.theta, other.theta)
        r = np.union1d(self.hashes, other.hashes)
        if t < self.FULL:
            r = r[r < np.uint64(t)]
        self.theta = t
        self._trim(r)
        return self

    def estimate(self) -> float:
        return len(self.hashes) / (self.theta / self.FULL)

    # -- set operations (estimates over the common sampling threshold) ------
    def _common(self, other: "ThetaSketch") -> tuple[np.ndarray, np.ndarray, int]:
        t = min(self.theta, other.theta)
        a, b = self.hashes, other.hashes
        if t < self.FULL:
            a = a[a < np.uint64(t)]
            b = b[b < np.uint64(t)]
        return a, b, t

    def intersect_estimate(self, other: "ThetaSketch") -> float:
        a, b, t = self._common(other)
        return len(np.intersect1d(a, b)) / (t / self.FULL)

    def difference_estimate(self, other: "ThetaSketch") -> float:
        """Estimated |self \\ other| (e.g. NEW keys today vs a snapshot)."""
        a, b, t = self._common(other)
        return len(np.setdiff1d(a, b)) / (t / self.FULL)

    def union_estimate(self, other: "ThetaSketch") -> float:
        out = ThetaSketch(self.k)
        out.theta = self.theta
        out.hashes = self.hashes
        return ThetaSketch.merge(out, other).estimate()

    # -- serialization (one bounded row) ------------------------------------
    def to_row(self) -> dict:
        return {
            "hashes": self.hashes,
            "theta_m1": np.uint64(self.theta - 1),
            "k": self.k,
        }

    @classmethod
    def from_row(cls, row: dict) -> "ThetaSketch":
        sk = cls(int(row["k"]))
        sk.theta = int(row["theta_m1"]) + 1
        sk.hashes = np.asarray(row["hashes"], dtype=np.uint64)
        return sk


def theta_sketch_of(ds, column: str, *, k: int = 4096) -> ThetaSketch:
    """ONE streaming pass -> per-block theta partials (<= 8k bytes each,
    one row per block) -> driver merge.  The result supports estimate() and
    cross-dataset union/intersect/difference — persist row via to_row()."""

    def partial(tbl: pa.Table) -> pa.Table:
        sk = ThetaSketch(k)
        sk.update_column(tbl.column(column))
        row = sk.to_row()
        return pa.table({
            "hashes": pa.array([row["hashes"].tolist()], pa.list_(pa.uint64())),
            "theta_m1": pa.array([int(row["theta_m1"])], pa.uint64()),
            "k": pa.array([k], pa.int64()),
        })

    merged = ThetaSketch(k)
    for r in ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True).take_all():
        merged.merge(ThetaSketch.from_row(r))
    return merged


def grouped_theta_distinct(
    ds,
    group_cols: list[str],
    value_col: str,
    *,
    k: int = 4096,
    n_buckets: int = 256,
):
    """Per-GROUP distinct-count estimates at unbounded group cardinality:
    one theta partial per (block, group) built map-side, then ONE bucketed
    exchange (functions/bucketed.py) merging each group's partials — the
    grouped sibling of :func:`theta_sketch_of`, shaped like
    kll.grouped_kll_quantiles.  Deterministic and partitioning-invariant
    (no RNG in the sketch); groups with fewer than ``k`` distinct values
    get EXACT counts (theta never trims).

    Output columns: group_cols + ``distinct_est`` (float64).  Null group
    keys form their own group."""
    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed, key_groups
    from great_expectations_ray.functions.kll import _ragged
    from great_expectations_ray.functions.ks import _with_keys

    group_cols = list(group_cols)

    def partial(tbl: pa.Table) -> pa.Table:
        g, bounds = key_groups(tbl.select(group_cols + [value_col]), group_cols)
        vals = g.column(value_col).combine_chunks()
        hashes, thetas = [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            sk = ThetaSketch(k)
            sk.update_column(vals.slice(s, e - s))
            row = sk.to_row()
            hashes.append(row["hashes"].tolist())
            thetas.append(int(row["theta_m1"]))
        return _with_keys(g, bounds, group_cols, {
            "__hashes": pa.array(hashes, pa.list_(pa.uint64())),
            "__theta_m1": pa.array(thetas, pa.uint64())})

    def bucket(g: pa.Table) -> pa.Table:
        g, bounds = key_groups(g, group_cols)
        hashes = _ragged(g.column("__hashes"))
        tm1 = np.asarray(g.column("__theta_m1"))
        ests = []
        for s, e in zip(bounds[:-1], bounds[1:]):
            merged = ThetaSketch(k)
            for i in range(s, e):
                merged.merge(ThetaSketch.from_row(
                    {"hashes": hashes[i].astype(np.uint64),
                     "theta_m1": np.uint64(tm1[i]), "k": k}))
            ests.append(merged.estimate())
        return _with_keys(g, bounds, group_cols,
                          {"distinct_est": pa.array(ests, pa.float64())})

    parts_ds = ds.select_columns(group_cols + [value_col]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return grouped_apply_bucketed(parts_ds, group_cols, bucket,
                                  n_buckets=n_buckets)
