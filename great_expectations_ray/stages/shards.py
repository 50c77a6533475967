"""Training-shard export — the terminal sink of the LLM-prep story.

:mod:`stages/pack_ids` emits fixed-length token-id sequences; GPT-style
pretraining consumes them as **memory-mapped binary shards** (the
Megatron-LM ``MMapIndexedDataset`` layout is the de-facto public format:
a ``.bin`` of raw little-endian token ids plus a ``.idx`` of per-sequence
lengths and byte pointers).  This module writes that layout from a Ray
Dataset in ONE bucketed exchange, deterministically and resumably, and
reads it back as a Ray Dataset.

Layout (public Megatron-LM ``indexed_dataset.py`` format, re-implemented
from the published spec — magic ``MMIDIDX``, version 1):

- ``shard_NNNNNN.bin`` — the shard's sequences' token ids concatenated in
  ``seq_id`` order, little-endian, dtype ``uint16`` (vocab ≤ 65536) or
  ``int32``.
- ``shard_NNNNNN.idx`` — ``b"MMIDIDX\\x00\\x00"``, ``<Q`` version=1,
  ``<B`` dtype code (8=uint16, 4=int32), ``<Q`` n_sequences,
  ``<Q`` n_docs, ``<i4`` sizes[n], ``<i8`` byte pointers[n],
  ``<i8`` doc_idx[n_docs] (one doc per sequence: ``0..n``).
- ``manifest.json`` — per-shard ``{shard, first_seq_id, n_seqs, n_tokens,
  sha256_bin}`` plus corpus totals; the resume key and the loader's input.

Scale shape:

- **Deterministic sharding**: ``shard = seq_id // seqs_per_shard`` — the
  on-disk layout depends only on the data, never on block boundaries, so
  re-runs (any partitioning) produce byte-identical shards.
- **ONE exchange**: rows are bucketed by shard id
  (``functions/bucketed.py grouped_apply_bucketed``); each bucket writes
  its shards with vectorized concatenation and returns one manifest row
  per shard — the driver sees O(#shards) rows, never token payload.
- **Resumable**: with ``resume=True`` a shard whose final files already
  exist with the expected byte sizes is verified (sha256) and skipped —
  a failed run re-writes only missing/short shards.  Writes are atomic
  (``.tmp`` + ``os.replace``).
- **Multi-node**: ``out_dir`` must be a shared filesystem path (every
  bucket task writes its own shards directly — no driver funnel).

Reference parity note: the reference repo has no training-sink surface;
this operator exists for the training-data-pipeline mandate and pairs
with stages/pack_ids.py (see its module docstring for the packing spec).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_MAGIC = b"MMIDIDX\x00\x00"
_VERSION = 1
_TOKEN_SCHEMA = pa.schema([("seq_id", pa.int64()), ("token_ids", pa.list_(pa.int32())),
                           ("n_tokens", pa.int64())])
# Megatron-LM public dtype codes (indexed_dataset.py): 4=int32, 8=uint16.
_DTYPE_CODES = {np.dtype(np.uint16): 8, np.dtype(np.int32): 4}
_CODE_DTYPES = {8: np.dtype(np.uint16), 4: np.dtype(np.int32)}


def _pick_dtype(vocab_size: int | None) -> np.dtype:
    if vocab_size is not None and vocab_size <= (1 << 16):
        return np.dtype(np.uint16)
    return np.dtype(np.int32)


def _idx_bytes(sizes: np.ndarray, itemsize: int, dtype_code: int) -> bytes:
    n = len(sizes)
    pointers = np.zeros(n, dtype=np.int64)
    if n > 1:
        np.cumsum(sizes[:-1].astype(np.int64) * itemsize, out=pointers[1:])
    doc_idx = np.arange(n + 1, dtype=np.int64)
    return b"".join(
        (
            _MAGIC,
            struct.pack("<Q", _VERSION),
            struct.pack("<B", dtype_code),
            struct.pack("<Q", n),
            struct.pack("<Q", n + 1),
            sizes.astype("<i4").tobytes(),
            pointers.astype("<i8").tobytes(),
            doc_idx.astype("<i8").tobytes(),
        )
    )


def parse_idx(path: str) -> tuple[np.dtype, np.ndarray, np.ndarray]:
    """Read a ``.idx`` file → (dtype, sizes int32[n], pointers int64[n])."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[: len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path}: bad magic (not an MMIDIDX index)")
    off = len(_MAGIC)
    (version,) = struct.unpack_from("<Q", raw, off)
    off += 8
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported index version {version}")
    (code,) = struct.unpack_from("<B", raw, off)
    off += 1
    if code not in _CODE_DTYPES:
        raise ValueError(f"{path}: unsupported dtype code {code}")
    (n,) = struct.unpack_from("<Q", raw, off)
    off += 8
    off += 8  # n_docs (always n+1 here; loaders that care re-derive it)
    sizes = np.frombuffer(raw, dtype="<i4", count=n, offset=off)
    off += 4 * n
    pointers = np.frombuffer(raw, dtype="<i8", count=n, offset=off)
    return _CODE_DTYPES[code], sizes, pointers


def _shard_paths(out_dir: str, shard: int) -> tuple[str, str]:
    return (
        os.path.join(out_dir, f"shard_{shard:06d}.bin"),
        os.path.join(out_dir, f"shard_{shard:06d}.idx"),
    )


def _atomic_write(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
    os.replace(tmp, path)


def write_token_shards(
    ds_seq,
    out_dir: str,
    *,
    seq_id_col: str = "seq_id",
    ids_col: str = "token_ids",
    seqs_per_shard: int = 8192,
    vocab_size: int | None = None,
    resume: bool = True,
    n_buckets: int = 64,
) -> dict:
    """Write packed sequences as Megatron-layout shards + a manifest.

    ``ds_seq`` is the output of :func:`stages.pack_ids.pack_sequences`
    (``seq_id`` unique and globally contiguous from 0, ``token_ids``
    list<int>).  Returns the manifest dict (also written to
    ``out_dir/manifest.json``).
    """
    if seqs_per_shard <= 0:
        raise ValueError("seqs_per_shard must be positive")
    np_dtype = _pick_dtype(vocab_size)
    code = _DTYPE_CODES[np_dtype]
    os.makedirs(out_dir, exist_ok=True)

    def write_bucket(g: pa.Table) -> pa.Table:
        # bucket tasks may land on any node: ensure the (shared-FS) dir
        # exists locally too, not just where the driver ran makedirs
        os.makedirs(out_dir, exist_ok=True)
        rows = []
        g = g.sort_by(seq_id_col)
        sids = np.asarray(g.column(seq_id_col))
        ids = g.column(ids_col).combine_chunks()
        shard_of = sids // seqs_per_shard
        for shard in np.unique(shard_of):
            at = np.flatnonzero(shard_of == shard)  # one run: g is sorted
            sid = sids[at[0]:at[-1] + 1]
            first = int(shard) * seqs_per_shard
            expect = np.arange(first, first + len(sid))
            if not np.array_equal(sid, expect):
                raise ValueError(
                    "write_token_shards: seq ids are not contiguous within "
                    f"shard {shard} (pack_sequences output is contiguous by "
                    "construction — re-keyed or filtered input needs a "
                    "re-numbering pass first)"
                )
            lists = ids.slice(at[0], len(sid))
            flat = np.asarray(pc.list_flatten(lists))
            if len(flat) and (flat.min() < 0 or (np_dtype == np.uint16 and flat.max() >= (1 << 16))):
                raise ValueError(
                    "write_token_shards: token id out of range for "
                    f"dtype {np_dtype} (pass vocab_size=None for int32)"
                )
            sizes = np.asarray(pc.list_value_length(lists).fill_null(0)).astype(np.int32)
            flat = flat.astype(np_dtype)
            bin_bytes = flat.astype(np_dtype.newbyteorder("<")).tobytes()
            idx_bytes = _idx_bytes(sizes, np_dtype.itemsize, code)
            bin_path, idx_path = _shard_paths(out_dir, int(shard))
            skipped = False
            if (
                resume
                and os.path.exists(bin_path)
                and os.path.exists(idx_path)
                and os.path.getsize(bin_path) == len(bin_bytes)
                and os.path.getsize(idx_path) == len(idx_bytes)
            ):
                with open(bin_path, "rb") as f:
                    existing_sha = hashlib.sha256(f.read()).hexdigest()
                if existing_sha == hashlib.sha256(bin_bytes).hexdigest():
                    skipped = True
            if not skipped:
                _atomic_write(bin_path, bin_bytes)
                _atomic_write(idx_path, idx_bytes)
            rows.append(
                {
                    "shard": int(shard),
                    "first_seq_id": first,
                    "n_seqs": len(sid),
                    "n_tokens": int(sizes.sum()),
                    "sha256_bin": hashlib.sha256(bin_bytes).hexdigest(),
                    "skipped": skipped,
                }
            )
        return pa.Table.from_pylist(rows)

    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed

    def add_shard(tbl: pa.Table) -> pa.Table:
        from great_expectations_ray.stages.pack_ids import ensure_list_int32

        sid = np.asarray(tbl.column(seq_id_col).combine_chunks(), dtype=np.int64)
        # Ray packs list rows as (possibly variable-shaped) tensor extension
        # arrays after the arrow->pandas hop in map_groups — normalize to a
        # plain list<int32>
        ids = ensure_list_int32(tbl.column(ids_col), len(tbl))
        return pa.table(
            {
                seq_id_col: pa.array(sid, pa.int64()),
                ids_col: ids,
                "__shard": pa.array(sid // seqs_per_shard, pa.int64()),
            }
        )

    ds_shard = ds_seq.select_columns([seq_id_col, ids_col]).map_batches(
        add_shard, batch_format="pyarrow", zero_copy_batch=True
    )
    # one manifest row per shard — bounded driver pull (O(corpus/seqs_per_shard))
    rows = grouped_apply_bucketed(
        ds_shard, ["__shard"], write_bucket, n_buckets=n_buckets
    ).take_all()
    rows.sort(key=lambda r: r["shard"])
    manifest = {
        "format": "MMIDIDX",
        "version": _VERSION,
        "dtype": str(np_dtype),
        "seqs_per_shard": seqs_per_shard,
        "total_seqs": int(sum(r["n_seqs"] for r in rows)),
        "total_tokens": int(sum(r["n_tokens"] for r in rows)),
        "shards": [
            {k: r[k] for k in ("shard", "first_seq_id", "n_seqs", "n_tokens", "sha256_bin")}
            for r in rows
        ],
    }
    _atomic_write(
        os.path.join(out_dir, "manifest.json"),
        json.dumps(manifest, indent=1).encode(),
    )
    return manifest


def read_token_shards(out_dir: str, *, verify: bool = False):
    """Load a shard directory back as a Ray Dataset of
    ``(seq_id int64, token_ids list<int32>, n_tokens int64)`` — one read
    task per shard (parallel, streaming; nothing funnels through the
    driver)."""
    import ray

    with open(os.path.join(out_dir, "manifest.json")) as f:
        manifest = json.load(f)
    if not manifest["shards"]:
        return ray.data.from_arrow(_TOKEN_SCHEMA.empty_table())
    items = [
        {**s, "__dir": out_dir, "__verify": verify} for s in manifest["shards"]
    ]

    def load(tbl: pa.Table) -> pa.Table:
        out = [_TOKEN_SCHEMA.empty_table()]
        for r in tbl.to_pylist():
            bin_path, idx_path = _shard_paths(r["__dir"], int(r["shard"]))
            dtype, sizes, pointers = parse_idx(idx_path)
            with open(bin_path, "rb") as f:
                raw = f.read()
            if r["__verify"]:
                sha = hashlib.sha256(raw).hexdigest()
                if sha != r["sha256_bin"]:
                    raise IOError(
                        f"shard {r['shard']}: sha256 mismatch vs manifest "
                        f"({sha[:12]} != {r['sha256_bin'][:12]})"
                    )
            flat = np.frombuffer(raw, dtype=dtype.newbyteorder("<")).astype(np.int32)
            offsets = np.r_[0, np.cumsum(sizes)].astype(np.int32)
            out.append(pa.table({
                "seq_id": np.arange(r["first_seq_id"], r["first_seq_id"] + len(sizes),
                                    dtype=np.int64),
                "token_ids": pa.ListArray.from_arrays(pa.array(offsets), pa.array(flat)),
                "n_tokens": sizes.astype(np.int64),
            }, schema=_TOKEN_SCHEMA))
        return pa.concat_tables(out)

    return ray.data.from_items(items).map_batches(
        load, batch_format="pyarrow", batch_size=1
    )
