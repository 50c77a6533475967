"""Incremental dedup against a prior corpus snapshot — Bloom-filter
prefilter + exact verify on the survivors only (the textbook "bloom join").

The recurring training-data job: a new crawl arrives and every document that
already exists in the previous snapshot must be dropped.  A direct semi-join
shuffles BOTH corpora end-to-end; at 100 TB that is two full all-to-all
exchanges for an answer that is usually "almost everything is novel".  The
bloom shape bounds the exchange to the overlap:

1. **Snapshot bloom** — one embarrassingly-parallel pass builds per-batch
   Bloom partials (``num_bits``-bit arrays, vectorized double hashing); the
   driver ORs them (the filter is KBs–MBs, independent of corpus size) and
   broadcasts the result via ``ray.put`` (fetched once per worker).
2. **Candidate filter** — new rows whose key misses the bloom are definitely
   novel and never shuffle.  Survivors (true dups + the ~(1-e^{-kn/m})^k
   false-positive sliver) proceed.
3. **Reverse bloom** — a second filter built from the CANDIDATE keys prunes
   the snapshot side to the rows that could possibly match.
4. **Exact verify** — the two pruned sides (bounded by overlap + FP rate,
   not corpus size) meet in ONE bucketed exchange and are compared on the
   RAW key values (no hash-collision caveat: the blooms only ever shrink
   the work; membership verdicts come from real equality).

Reference parity: great_expectations has no incremental-dedup surface; this
generalises ``expect_column_values_to_not_be_in_set`` (a broadcast small set)
to a set the size of a corpus.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.functions.bucketed import (
    _MIX1,
    _MIX2,
    poly_hash_strings,
    tag_sides,
    two_sided_exchange,
)
from great_expectations_ray.functions.joins import key_in
from great_expectations_ray.stages._per_worker import map_per_worker


def key_hash64(arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Full-width uint64 hash per value (same kernels as
    ``functions/bucketed.hash_bucket_of``, without the bucket mod)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    t = arr.type
    if pa.types.is_integer(t):
        target = pa.uint64() if pa.types.is_unsigned_integer(t) else pa.int64()
        x = np.asarray(pc.fill_null(pc.cast(arr, target), 0)).astype(np.uint64)
        h = (x * _MIX1) ^ (x >> np.uint64(31))
        return h * _MIX2
    return poly_hash_strings(arr)


def _bloom_positions(h: np.ndarray, num_bits: int, num_hashes: int) -> np.ndarray:
    """(num_hashes, n) bit positions via double hashing h1 + i·h2 (odd h2)."""
    h2 = ((h ^ (h >> np.uint64(33))) * _MIX2) | np.uint64(1)
    out = np.empty((num_hashes, len(h)), dtype=np.uint64)
    acc = h.copy()
    for i in range(num_hashes):
        out[i] = acc % np.uint64(num_bits)
        acc = acc + h2  # wrapping uint64 add, contiguous 1-D (fast path)
    return out


def bloom_set(h: np.ndarray, num_bits: int, num_hashes: int) -> np.ndarray:
    """Bloom words (uint64[num_bits/64]) with all positions of ``h`` set.
    Bits are merged per word via sort + 1-D ``bitwise_or.reduceat`` (this
    box's fast reduceat path) instead of ``ufunc.at``."""
    words = np.zeros(num_bits >> 6, dtype=np.uint64)
    if len(h) == 0:
        return words
    pos = _bloom_positions(h, num_bits, num_hashes).ravel()
    wi = (pos >> np.uint64(6)).astype(np.int64)
    masks = np.uint64(1) << (pos & np.uint64(63))
    order = np.argsort(wi, kind="stable")
    wi_s, masks_s = wi[order], masks[order]
    starts = np.flatnonzero(np.r_[True, wi_s[1:] != wi_s[:-1]])
    words[wi_s[starts]] = np.bitwise_or.reduceat(masks_s, starts)
    return words


def bloom_maybe(words: np.ndarray, h: np.ndarray, num_bits: int, num_hashes: int) -> np.ndarray:
    """Boolean mask: all ``num_hashes`` bits set → possibly a member."""
    if len(h) == 0:
        return np.zeros(0, dtype=bool)
    pos = _bloom_positions(h, num_bits, num_hashes)
    ok = np.ones(len(h), dtype=bool)
    for i in range(num_hashes):
        p = pos[i]
        ok &= (words[(p >> np.uint64(6)).astype(np.int64)] >> (p & np.uint64(63))) & np.uint64(1) != 0
    return ok


def build_bloom(ds, col: str, *, num_bits: int = 1 << 22, num_hashes: int = 4) -> np.ndarray:
    """Bloom filter over ``ds[col]`` — per-batch partial blooms emitted as
    one binary blob each, OR-merged on the driver (stream of fixed-size
    partials; driver state = one filter, regardless of corpus size)."""

    def partial(tbl: pa.Table) -> pa.Table:
        w = bloom_set(key_hash64(tbl.column(col)), num_bits, num_hashes)
        return pa.table({"bloom": pa.array([w.tobytes()], pa.binary())})

    words = np.zeros(num_bits >> 6, dtype=np.uint64)
    for b in (
        ds.select_columns([col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow", batch_size=None)
    ):
        for blob in b.column("bloom"):
            words |= np.frombuffer(blob.as_py(), dtype=np.uint64)
    return words


class _BloomFilterStage:
    """Per-batch stage marking rows whose key possibly appears in the
    broadcast bloom (``ray.put`` handle, fetched once per worker)."""

    def __init__(self, bloom_ref, *, col: str, num_bits: int, num_hashes: int,
                 keep: str = "all"):
        import ray

        self.words = (
            ray.get(bloom_ref) if not isinstance(bloom_ref, np.ndarray) else bloom_ref
        )
        self.col = col
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self.keep = keep  # "all" (append maybe col) | "maybe" | "definitely_not"

    def __call__(self, tbl: pa.Table) -> pa.Table:
        maybe = bloom_maybe(
            self.words, key_hash64(tbl.column(self.col)), self.num_bits, self.num_hashes
        )
        if self.keep == "maybe":
            return tbl.filter(pa.array(maybe))
        if self.keep == "definitely_not":
            return tbl.filter(pa.array(~maybe))
        return tbl.append_column("__maybe", pa.array(maybe))


def mark_known(
    new_ds,
    snapshot_ds,
    *,
    key_col: str = "text",
    id_col: str = "doc_id",
    num_bits: int = 1 << 22,
    num_hashes: int = 4,
    n_buckets: int = 64,
    bloom_words: np.ndarray | None = None,
):
    """Dataset of ``(id_col, is_known)`` for every row of ``new_ds`` —
    ``is_known`` is EXACT membership of the row's ``key_col`` value in the
    snapshot (bloom phases only prune work; verdicts come from raw-value
    equality in one bucketed exchange over the pruned sides).

    ``bloom_words``: a prebuilt snapshot filter (``load_bloom`` — the day-2
    incremental path) skips the snapshot build pass; ``num_bits``/
    ``num_hashes`` must match the persisted header.  The exact verify still
    reads the snapshot, but only its bloom-pruned sliver moves."""
    import ray

    if bloom_words is not None:
        if len(bloom_words) != num_bits >> 6:
            raise ValueError(
                f"bloom_words has {len(bloom_words)} words; num_bits="
                f"{num_bits} needs {num_bits >> 6} — pass the header values "
                "returned by load_bloom")
        bloom_s_ref = ray.put(bloom_words)
    else:
        bloom_s_ref = ray.put(build_bloom(snapshot_ds, key_col,
                                          num_bits=num_bits,
                                          num_hashes=num_hashes))
    flt = dict(num_bits=num_bits, num_hashes=num_hashes)
    tagged = map_per_worker(
        new_ds.select_columns([id_col, key_col]), _BloomFilterStage,
        {"bloom_ref": bloom_s_ref, "col": key_col, **flt},
        batch_format="pyarrow", zero_copy_batch=True,
    )
    def _novel_fn(t: pa.Table) -> pa.Table:
        sub = t.filter(pc.invert(t.column("__maybe")))
        return pa.table({
            id_col: sub.column(id_col),
            "is_known": pa.array(np.zeros(len(sub), dtype=bool)),
        })

    novel = tagged.map_batches(_novel_fn, batch_format="pyarrow", zero_copy_batch=True)
    # candidates are small (overlap + FP sliver) by construction — materialize
    # once so the reverse-bloom build and the verify exchange don't re-run the
    # upstream read+filter
    candidates = tagged.map_batches(
        lambda t: t.filter(t.column("__maybe")).drop_columns(["__maybe"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()

    # reverse bloom: prune the snapshot to rows that could match a candidate
    bloom_c_ref = ray.put(build_bloom(candidates, key_col, num_bits=num_bits,
                                      num_hashes=num_hashes))
    snap_pruned = map_per_worker(
        snapshot_ds.select_columns([key_col]), _BloomFilterStage,
        {"bloom_ref": bloom_c_ref, "col": key_col, "keep": "maybe", **flt},
        batch_format="pyarrow", zero_copy_batch=True,
    )

    # exact verify: one bucketed exchange over (pruned candidates ∪ pruned
    # snapshot keys), raw-value membership per bucket (SQL semantics: a null
    # key is never known)
    def verify_bucket(cand: pa.Table, snap: pa.Table) -> pa.Table:
        return pa.table({
            id_col: cand.column(id_col),
            "is_known": key_in(cand, snap.column(key_col), key_col),
        })

    verified = two_sided_exchange(
        tag_sides(candidates, snap_pruned, [key_col], n_buckets=n_buckets), verify_bucket)
    return novel.union(verified)


# --------------------------------------------------------------------------- #
# filter persistence — day-2 incremental runs
# --------------------------------------------------------------------------- #

_BLOOM_MAGIC = b"GXRBLOOM1"


def save_bloom(words: np.ndarray, path: str, *, num_hashes: int) -> None:
    """Persist a bloom filter (the ``build_bloom`` words array) to any
    Arrow-filesystem URI (plain path, file://, s3://, gs://) so tomorrow's
    incremental run can ``load_bloom`` instead of re-reading yesterday's
    corpus.  Layout: magic | num_bits u64 | num_hashes u64 | words."""
    import posixpath

    import pyarrow.fs as pafs

    if "://" in path:
        fs, p = pafs.FileSystem.from_uri(path)
    else:
        fs, p = pafs.LocalFileSystem(), os.path.abspath(path)
    parent = posixpath.dirname(p)
    if parent:
        fs.create_dir(parent, recursive=True)
    # on-disk format is pinned little-endian ('<u8'): a filter saved to shared
    # storage (s3://) must load bit-identically on any host byte order.
    header = np.array([len(words) << 6, num_hashes], dtype="<u8")
    with fs.open_output_stream(p) as f:
        f.write(_BLOOM_MAGIC)
        f.write(header.tobytes())
        f.write(np.ascontiguousarray(words, dtype=np.uint64)
                .astype("<u8", copy=False).tobytes())


def load_bloom(path: str) -> tuple[np.ndarray, int, int]:
    """(words, num_bits, num_hashes) saved by ``save_bloom``."""
    import pyarrow.fs as pafs

    if "://" in path:
        fs, p = pafs.FileSystem.from_uri(path)
    else:
        fs, p = pafs.LocalFileSystem(), os.path.abspath(path)
    with fs.open_input_stream(p) as f:
        data = f.read()
    if data[:len(_BLOOM_MAGIC)] != _BLOOM_MAGIC:
        raise ValueError(f"{path} is not a saved bloom filter")
    off = len(_BLOOM_MAGIC)
    num_bits, num_hashes = np.frombuffer(data[off:off + 16], dtype="<u8")
    # astype copies (and byteswaps on a big-endian host), so the returned
    # array is always native-endian and writable.
    words = np.frombuffer(data[off + 16:], dtype="<u8").astype(np.uint64)
    if len(words) != int(num_bits) >> 6:
        raise ValueError(f"{path}: truncated bloom payload")
    return words, int(num_bits), int(num_hashes)
