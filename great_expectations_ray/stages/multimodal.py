"""Multimodal columns — binary payloads with typed metadata, REAL decoders
for the container-native formats, per-batch decode/feature stages.

Images/audio/video are opaque ``binary`` columns plus metadata columns.
Formats that need no external codec are decoded for REAL, pure
numpy/stdlib: **PPM (P6) / PGM (P5)** images (``decode_ppm``) and **PCM
WAV** audio (``decode_wav``, stdlib ``wave``).  Encoders for both
(``encode_ppm`` / ``encode_wav_pcm16``) round-trip in tests and back the
oracled ``media_decode_stats`` catalog query (bytes -> decode -> pixel/
sample statistics, verified against a DuckDB closed-form).  Only formats
whose codecs aren't in this container (png/jpeg/mp4) raise
``DecodeNotAvailable``; the deterministic fake decoder remains for
exercising plumbing without real payloads.

Scale notes baked into the design:
- binary payloads make rows WIDE: callers should drop ``batch_size`` to keep
  ``batch_size × payload × CPUs`` inside worker heaps (e.g. 64 rows of
  4 MB images × 8 CPUs ≈ 2 GB in flight)
- decode/feature stages are classes whose ``__init__`` does the one-off set-up
  (codec init is expensive); run them with
  ``stages._per_worker.map_per_worker`` so each worker builds one instance
- outputs are separate feature columns, never re-encoded payloads, so the
  heavy bytes stay in their original blocks
"""

from __future__ import annotations

import hashlib
import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        pa.field("media_id", pa.string()),
        pa.field("media_type", pa.string()),   # image/png, audio/wav, ...
        pa.field("payload", pa.large_binary()),
        pa.field("width", pa.int32()),
        pa.field("height", pa.int32()),
        pa.field("duration_ms", pa.int32()),
    ]
)


class DecodeNotAvailable(NotImplementedError):
    """Raised for formats whose codec libraries are not installed."""


# --------------------------------------------------------------------------- #
# real codecs (pure numpy / stdlib — no external libraries)
# --------------------------------------------------------------------------- #


def encode_ppm(pixels: np.ndarray) -> bytes:
    """(H, W, 3) or (H, W) uint8 -> binary PPM (P6) / PGM (P5) bytes."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.ndim == 3:
        h, w, c = pixels.shape
        if c != 3:
            raise ValueError("P6 needs 3 channels")
        magic = b"P6"
    elif pixels.ndim == 2:
        h, w = pixels.shape
        magic = b"P5"
    else:
        raise ValueError("pixels must be (H, W[, 3])")
    return magic + f"\n{w} {h}\n255\n".encode() + pixels.tobytes()


def decode_ppm(payload: bytes) -> np.ndarray:
    """Binary PPM (P6) -> (H, W, 3) uint8; PGM (P5) -> (H, W) uint8."""
    if payload[:2] not in (b"P6", b"P5"):
        raise ValueError(f"not a binary PPM/PGM payload: {payload[:2]!r}")
    # header = magic, width, height, maxval as whitespace-separated tokens
    # (with optional '#' comment lines); pixel data starts after the single
    # whitespace byte that terminates maxval
    tokens, i = [], 2
    while len(tokens) < 3:
        while i < len(payload) and payload[i:i + 1].isspace():
            i += 1
        if payload[i:i + 1] == b"#":
            while i < len(payload) and payload[i:i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < len(payload) and not payload[j:j + 1].isspace():
            j += 1
        tokens.append(int(payload[i:j]))
        i = j
    i += 1  # the single whitespace after maxval
    w, h, maxval = tokens
    if maxval > 255:
        raise ValueError("16-bit PPM not supported")
    ch = 3 if payload[:2] == b"P6" else 1
    arr = np.frombuffer(payload, dtype=np.uint8, count=w * h * ch, offset=i)
    return arr.reshape(h, w, 3) if ch == 3 else arr.reshape(h, w)


def encode_wav_pcm16(samples: np.ndarray, rate: int = 16000) -> bytes:
    """1-D int16 samples -> mono PCM WAV bytes (stdlib wave)."""
    import io
    import wave

    buf = io.BytesIO()
    with wave.open(buf, "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(rate)
        f.writeframes(np.asarray(samples, dtype="<i2").tobytes())
    return buf.getvalue()


def decode_wav(payload: bytes) -> tuple[np.ndarray, int]:
    """PCM WAV bytes -> (int16 samples of shape (n, channels), rate)."""
    import io
    import wave

    with wave.open(io.BytesIO(payload), "rb") as f:
        if f.getsampwidth() != 2:
            raise DecodeNotAvailable("only 16-bit PCM WAV is decoded natively")
        ch = f.getnchannels()
        data = np.frombuffer(f.readframes(f.getnframes()), dtype="<i2")
        return data.reshape(-1, ch), f.getframerate()


def _real_decode(payload: bytes, media_type: str) -> np.ndarray:
    """bytes -> 2-D float32 array in [0, 1] (the pooling contract).

    Container-native formats decode for real; anything else raises
    ``DecodeNotAvailable`` (png/jpeg/mp4 need external codec libraries)."""
    mt = (media_type or "").lower()
    if mt in ("image/ppm", "image/x-portable-pixmap",
              "image/pgm", "image/x-portable-graymap"):
        img = decode_ppm(payload)
        if img.ndim == 3:  # grayscale for the 2-D pooling contract
            img = img.mean(axis=2)
        return (img.astype(np.float32)) / 255.0
    if mt in ("audio/wav", "audio/x-wav", "audio/wave"):
        samples, _ = decode_wav(payload)
        mono = samples.astype(np.float32).mean(axis=1) / 32768.0
        n = len(mono)
        frame = 256
        pad = (-n) % frame
        if pad:
            mono = np.concatenate([mono, np.zeros(pad, dtype=np.float32)])
        return mono.reshape(-1, frame) if len(mono) else np.zeros((1, frame), np.float32)
    raise DecodeNotAvailable(
        f"no codec available for {media_type}; PPM/PGM images and PCM WAV "
        "audio decode natively — other formats need an image/audio library"
    )


def _fake_decode(payload: bytes, media_type: str) -> np.ndarray:
    """Deterministic stand-in: 'pixels' derived from the payload digest —
    stable shapes/dtypes so downstream plumbing is fully exercised."""
    digest = hashlib.sha256(payload).digest()
    arr = np.frombuffer((digest * 48)[: 32 * 32], dtype=np.uint8)
    return arr.reshape(32, 32).astype(np.float32) / 255.0


class MediaDecoder:
    """Per-batch stage: ``map_per_worker(ds, MediaDecoder, {"use_fake": True},
    batch_size=SMALL)``.

    Emits ``feat`` (list<float> pooled feature vector) + ``payload_sha256``;
    never mutates or re-emits the payload column downstream (project it away
    with ``select_columns`` after this stage to free the heavy bytes)."""

    def __init__(self, use_fake: bool = False, feat_dim: int = 16):
        self.decode = _fake_decode if use_fake else _real_decode
        self.feat_dim = feat_dim

    def __call__(self, tbl: pa.Table) -> pa.Table:
        payloads = tbl.column("payload").combine_chunks()
        types = tbl.column("media_type").combine_chunks()
        feats = []
        shas = []
        for i in range(len(payloads)):
            raw = payloads[i].as_py() if payloads[i].is_valid else b""
            shas.append(hashlib.sha256(raw).hexdigest())
            img = self.decode(raw, types[i].as_py())
            # mean-pool rows into a fixed-dim feature (the plumbing contract;
            # a real model replaces this in `decode`)
            pooled = img.mean(axis=0)
            k = max(len(pooled) // self.feat_dim, 1)
            feats.append([float(x) for x in pooled[: self.feat_dim * k : k][: self.feat_dim]])
        tbl = tbl.append_column("payload_sha256", pa.array(shas, pa.string()))
        tbl = tbl.append_column("feat", pa.array(feats, pa.list_(pa.float32())))
        return tbl


def make_fake_media_table(n: int, seed: int = 11) -> pa.Table:
    """Deterministic media fixture rows (synthetic payload bytes)."""
    rng = np.random.default_rng(seed)
    payloads = [rng.integers(0, 256, size=64 + (i % 5) * 32, dtype=np.uint8).tobytes()
                for i in range(n)]
    return pa.table({
        "media_id": pa.array([f"m{i}" for i in range(n)], pa.string()),
        "media_type": pa.array(["image/png" if i % 2 else "audio/wav" for i in range(n)]),
        "payload": pa.array(payloads, pa.large_binary()),
        "width": pa.array([32] * n, pa.int32()),
        "height": pa.array([32] * n, pa.int32()),
        "duration_ms": pa.array([0 if i % 2 else 1000 for i in range(n)], pa.int32()),
    })


def resize_nearest(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor resize of a decoded (H, W[, C]) array — pure numpy
    index math, no codec needed (the resize itself is NOT stubbed; only the
    bytes->array decode is)."""
    h, w = img.shape[:2]
    rows = np.minimum((np.arange(out_h) * h) // out_h, h - 1)
    cols = np.minimum((np.arange(out_w) * w) // out_w, w - 1)
    return img[rows][:, cols]


class MediaResizer:
    """Per-batch stage: decode -> nearest-neighbor resize -> pooled feature.
    ``map_per_worker(ds, MediaResizer, {"use_fake": True, "out_h": 16,
    "out_w": 16}, batch_size=SMALL)``."""

    def __init__(self, use_fake: bool = False, out_h: int = 16, out_w: int = 16):
        self.decode = _fake_decode if use_fake else _real_decode
        self.out_h = out_h
        self.out_w = out_w

    def __call__(self, tbl: pa.Table) -> pa.Table:
        payloads = tbl.column("payload").combine_chunks()
        types = tbl.column("media_type").combine_chunks()
        out = []
        for i in range(len(payloads)):
            raw = payloads[i].as_py() if payloads[i].is_valid else b""
            img = self.decode(raw, types[i].as_py())
            small = resize_nearest(img, self.out_h, self.out_w)
            out.append(small.reshape(-1).astype(np.float32).tolist())
        tbl = tbl.append_column("resized", pa.array(out, pa.list_(pa.float32())))
        tbl = tbl.append_column(
            "resized_shape",
            pa.array([[self.out_h, self.out_w]] * tbl.num_rows, pa.list_(pa.int32())),
        )
        return tbl


class FrameSampler:
    """Video frame sampling as a flat-map-shaped per-batch stage: each payload
    row expands to one row per sampled frame (uniform stride from
    ``duration_ms`` at ``fps``), each with a pooled frame feature.  The frame
    DECODE is behind the same stub; the sampling math (which frames, how
    many, output layout) is the real contract.

    Output: media_id, frame_idx, frame_ms, frame_feat — payload dropped so
    the heavy bytes never fan out with the frames."""

    def __init__(self, use_fake: bool = False, fps: float = 1.0,
                 max_frames: int = 8, feat_dim: int = 16):
        self.decode = _fake_decode if use_fake else _real_decode
        self.fps = fps
        self.max_frames = max_frames
        self.feat_dim = feat_dim

    def sample_times_ms(self, duration_ms: int) -> list[int]:
        if duration_ms <= 0:
            return [0]
        n = min(max(int(duration_ms / 1000.0 * self.fps), 1), self.max_frames)
        step = duration_ms / n
        return [int(i * step) for i in range(n)]

    def __call__(self, tbl: pa.Table) -> pa.Table:
        payloads = tbl.column("payload").combine_chunks()
        ids = tbl.column("media_id").combine_chunks()
        types = tbl.column("media_type").combine_chunks()
        durs = tbl.column("duration_ms").combine_chunks()
        out_id, out_idx, out_ms, out_feat = [], [], [], []
        for i in range(len(payloads)):
            raw = payloads[i].as_py() if payloads[i].is_valid else b""
            base = self.decode(raw, types[i].as_py())
            for j, t_ms in enumerate(self.sample_times_ms(int(durs[i].as_py() or 0))):
                # fake path: derive the frame from (payload, t_ms) so frames
                # differ deterministically; a real codec seeks to t_ms
                frame = (
                    self.decode(raw + t_ms.to_bytes(4, "little"), types[i].as_py())
                    if self.decode is _fake_decode else base
                )
                pooled = frame.mean(axis=0)
                k = max(len(pooled) // self.feat_dim, 1)
                out_feat.append(
                    [float(x) for x in pooled[: self.feat_dim * k : k][: self.feat_dim]]
                )
                out_id.append(ids[i].as_py())
                out_idx.append(j)
                out_ms.append(t_ms)
        return pa.table({
            "media_id": pa.array(out_id, pa.string()),
            "frame_idx": pa.array(out_idx, pa.int32()),
            "frame_ms": pa.array(out_ms, pa.int32()),
            "frame_feat": pa.array(out_feat, pa.list_(pa.float32())),
        })


class MediaStats:
    """Per-batch stage: REAL decode -> exact per-payload statistics.

    For PPM/PGM images: ``mean_val`` = mean pixel / 255.0, plus width and
    height.  For WAV audio: ``mean_val`` = mean int16 sample / 32768.0,
    plus sample count.  Means are exact float64 over the raw decoded
    values (no framing/padding), which is what the SQL oracle of
    ``media_decode_stats`` recomputes in closed form."""

    def __call__(self, tbl: pa.Table) -> pa.Table:
        payloads = tbl.column("payload").combine_chunks()
        types = tbl.column("media_type").combine_chunks()
        mean_val, width, height, n_samples = [], [], [], []
        for i in range(len(payloads)):
            raw = payloads[i].as_py() if payloads[i].is_valid else b""
            mt = (types[i].as_py() or "").lower()
            if mt.startswith("image/"):
                img = decode_ppm(raw)
                mean_val.append(float(img.astype(np.float64).mean()) / 255.0)
                height.append(img.shape[0])
                width.append(img.shape[1])
                n_samples.append(0)
            else:
                samples, _ = decode_wav(raw)
                m = float(samples.astype(np.float64).mean()) if samples.size else 0.0
                mean_val.append(m / 32768.0)
                height.append(0)
                width.append(0)
                n_samples.append(int(samples.shape[0]))
        return (
            tbl.append_column("mean_val", pa.array(mean_val, pa.float64()))
            .append_column("width_dec", pa.array(width, pa.int32()))
            .append_column("height_dec", pa.array(height, pa.int32()))
            .append_column("n_samples", pa.array(n_samples, pa.int64()))
        )


# --------------------------------------------------------------------------- #
# perceptual image hashing + near-duplicate detection
# --------------------------------------------------------------------------- #


def dhash64(img: np.ndarray) -> np.uint64:
    """Difference hash (dHash): integer luma -> 8x9 nearest resize ->
    horizontal-gradient bits packed into one uint64.  Robust to uniform
    brightness shifts and re-encoding (the gradient SIGN survives both);
    pure numpy, deterministic, no codec."""
    img = np.asarray(img)
    if img.ndim == 3:
        if np.issubdtype(img.dtype, np.floating):
            # decoder contract arrays ([0,1] float32): float luma
            g = (299 * img[..., 0].astype(np.float64)
                 + 587 * img[..., 1].astype(np.float64)
                 + 114 * img[..., 2].astype(np.float64))
        else:
            # ITU-R 601 luma in exact integer arithmetic
            g = (299 * img[..., 0].astype(np.int64)
                 + 587 * img[..., 1].astype(np.int64)
                 + 114 * img[..., 2].astype(np.int64)) // 1000
    elif np.issubdtype(img.dtype, np.floating):
        g = img.astype(np.float64)
    else:
        g = img.astype(np.int64)
    small = resize_nearest(g, 8, 9)
    bits = (small[:, 1:] > small[:, :-1]).reshape(-1)  # 8x8 row-major
    return np.uint64(np.packbits(bits.astype(np.uint8)).view(">u8")[0])


def _dhash_batch(payloads, types, decode) -> np.ndarray:
    out = np.zeros(len(payloads), dtype=np.uint64)
    for i in range(len(payloads)):
        raw = payloads[i].as_py() if payloads[i].is_valid else b""
        out[i] = dhash64(decode(raw, types[i].as_py()))
    return out


def hamming64(a: np.ndarray, b: np.ndarray | np.uint64) -> np.ndarray:
    """Vectorized popcount of XOR over uint64 arrays."""
    x = np.bitwise_xor(a, b)
    return np.unpackbits(x.view(np.uint8).reshape(len(a), 8),
                         axis=1).sum(axis=1)


class ImageHasher:
    """Per-batch stage: decode -> dHash; emits ``dhash`` (uint64) next to
    the id columns, payload dropped so the heavy bytes stop here."""

    def __init__(self, use_fake: bool = False, id_col: str = "media_id"):
        self.decode = _fake_decode if use_fake else _real_decode
        self.id_col = id_col

    def __call__(self, tbl: pa.Table) -> pa.Table:
        h = _dhash_batch(tbl.column("payload").combine_chunks(),
                         tbl.column("media_type").combine_chunks(),
                         self.decode)
        return pa.table({
            self.id_col: tbl.column(self.id_col),
            "dhash": pa.array(h),
        })


def hash64_mark_duplicates(hashed, *, id_col: str, hash_col: str,
                           max_distance: int = 3):
    """Near-dup marking over any 64-bit perceptual hash column:
    ``(id_col, is_neardup)`` — marked iff the row's hash is within
    ``max_distance`` Hamming bits of an earlier (smaller-id) row sharing a
    16-bit band.  The simhash blocking shape (stages/neardup.py:298): 4
    bands of 16 bits catch every pair within Hamming distance 3 by
    pigeonhole; candidates verify with the exact 64-bit Hamming distance
    inside the band bucket, so band collisions between genuinely different
    media are killed before marking.  Only (id, 8-byte hash) rows enter the
    exchange — shared by the image dHash and audio energy-fingerprint
    dedups."""
    import pandas as pd

    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed
    from great_expectations_ray.stages.neardup import _bucketed_any_mark

    def explode(tbl: pa.Table) -> pa.Table:
        h = np.asarray(tbl.column(hash_col)).astype(np.uint64)
        ids = np.asarray(tbl.column(id_col))
        parts = []
        for bi in range(4):
            band_val = (h >> np.uint64(16 * bi)) & np.uint64(0xFFFF)
            parts.append(pa.table({
                id_col: pa.array(ids),
                "band": pa.array(np.full(len(ids), bi, dtype=np.int64)),
                "bkey": pa.array(band_val.astype(np.int64)),
                "dhash": pa.array(h),
            }))
        return pa.concat_tables(parts)

    def mark_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["band", "bkey", id_col], kind="mergesort")
        ids = g[id_col].to_numpy()
        hs = g["dhash"].to_numpy().astype(np.uint64)
        band = g["band"].to_numpy()
        bkey = g["bkey"].to_numpy()
        dup = np.zeros(len(g), dtype=bool)
        if len(g):
            newseg = np.empty(len(g), dtype=bool)
            newseg[0] = True
            newseg[1:] = (band[1:] != band[:-1]) | (bkey[1:] != bkey[:-1])
            firsts = np.flatnonzero(newseg)
            ends = np.append(firsts[1:], len(g))
            # python loop over multi-member GROUPS only, not rows
            for s, e in zip(firsts[ends - firsts >= 2],
                            ends[ends - firsts >= 2]):
                # verify against the group's keeper (min id): exact 64-bit
                # Hamming kills band-collision false positives
                dup[s + 1:e] = hamming64(hs[s + 1:e], hs[s]) <= max_distance
        return pd.DataFrame({id_col: ids, "is_neardup": dup})

    marked = grouped_apply_bucketed(
        hashed.map_batches(explode, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["band", "bkey"], mark_bucket,
    )
    out = _bucketed_any_mark(marked, id_col)
    # any-mark reducers emit Ray's aggregate column name on pandas blocks
    return out.map_batches(
        lambda df: df.rename(columns={"max(is_neardup)": "is_neardup"}),
        batch_format="pandas")


def dhash_mark_duplicates(
    ds,
    *,
    id_col: str = "media_id",
    max_distance: int = 3,
    use_fake: bool = False,
    batch_size: int = 64,
    prehashed=None,
):
    """Image near-duplicate marking: decode -> dHash per batch with a SMALL
    batch_size (payload bytes are wide), then the shared 64-bit
    band-blocked Hamming dedup (``hash64_mark_duplicates``)."""
    if prehashed is not None:
        # caller already ran ImageHasher (and may reuse its output): skip
        # the second decode pass
        hashed = prehashed
    else:
        hashed = ds.map_batches(
            ImageHasher(use_fake=use_fake, id_col=id_col),
            batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size,
        )
    return hash64_mark_duplicates(hashed, id_col=id_col, hash_col="dhash",
                                  max_distance=max_distance)


def audio_fp64(samples: np.ndarray) -> np.uint64:
    """Energy-delta audio fingerprint (the dHash analog for audio): mono
    mix -> 65 equal-length frames -> mean energy per frame -> sign of the
    frame-to-frame energy delta packed into 64 bits.  Invariant to uniform
    gain (scaling multiplies every energy by c^2, preserving delta signs)
    and to small trims; pure numpy."""
    s = np.asarray(samples, dtype=np.float64)
    if s.ndim == 2:
        s = s.mean(axis=1)
    n = len(s)
    if n < 65:
        s = np.concatenate([s, np.zeros(65 - n)])
        n = 65
    edges = (np.arange(66, dtype=np.int64) * n) // 65
    sq = np.concatenate([[0.0], np.cumsum(s * s)])
    energy = (sq[edges[1:]] - sq[edges[:-1]]) / np.maximum(
        edges[1:] - edges[:-1], 1)
    bits = (energy[1:] > energy[:-1]).astype(np.uint8)
    return np.uint64(np.packbits(bits).view(">u8")[0])


class AudioFingerprinter:
    """Per-batch stage: WAV decode -> energy fingerprint; emits ``afp``
    (uint64) next to the id column, payload dropped."""

    def __init__(self, id_col: str = "media_id"):
        self.id_col = id_col

    def __call__(self, tbl: pa.Table) -> pa.Table:
        payloads = tbl.column("payload").combine_chunks()
        out = np.zeros(len(payloads), dtype=np.uint64)
        for i in range(len(payloads)):
            raw = payloads[i].as_py() if payloads[i].is_valid else b""
            samples, _ = decode_wav(raw)
            out[i] = audio_fp64(samples)
        return pa.table({
            self.id_col: tbl.column(self.id_col),
            "afp": pa.array(out),
        })


def audio_mark_duplicates(
    ds,
    *,
    id_col: str = "media_id",
    max_distance: int = 3,
    batch_size: int = 64,
    prehashed=None,
):
    """Audio near-duplicate marking over PCM WAV payloads: decode ->
    energy fingerprint per batch, then the shared band-blocked
    Hamming dedup (``hash64_mark_duplicates``) — gain-shifted re-encodes of
    the same clip mark; unrelated clips verify apart."""
    if prehashed is not None:
        hashed = prehashed
    else:
        hashed = ds.map_batches(
            AudioFingerprinter(id_col=id_col),
            batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size,
        )
    return hash64_mark_duplicates(hashed, id_col=id_col, hash_col="afp",
                                  max_distance=max_distance)



def encode_ppm_sequence(frames: "list[np.ndarray]") -> bytes:
    """Frame list -> concatenated binary PPM/PGM stream (``video/ppms``):
    each P6/P5 header is self-delimiting, so frames decode sequentially
    with no extra container framing."""
    if not frames:
        raise ValueError("a video needs at least one frame")
    return b"".join(encode_ppm(f) for f in frames)


def decode_ppm_sequence(payload: bytes) -> "list[np.ndarray]":
    """Concatenated binary PPM/PGM stream -> list of frames.  Parses each
    header to find where the frame's pixel data ends, then resumes at the
    next magic byte."""
    frames, i, n = [], 0, len(payload)
    while i < n:
        if payload[i:i + 2] not in (b"P6", b"P5"):
            raise ValueError(
                f"bad frame magic {payload[i:i + 2]!r} at offset {i}")
        tokens, j = [], i + 2
        while len(tokens) < 3:
            while j < n and payload[j:j + 1].isspace():
                j += 1
            if payload[j:j + 1] == b"#":
                while j < n and payload[j:j + 1] != b"\n":
                    j += 1
                continue
            k = j
            while k < n and not payload[k:k + 1].isspace():
                k += 1
            tokens.append(int(payload[j:k]))
            j = k
        j += 1  # single whitespace terminating maxval
        w, h, _ = tokens
        ch = 3 if payload[i:i + 2] == b"P6" else 1
        end = j + w * h * ch
        frames.append(decode_ppm(payload[i:end]))
        i = end
    return frames


def video_fp64(frame_hashes: "np.ndarray") -> "np.uint64":
    """Per-video fingerprint from per-frame 64-bit hashes: majority vote per
    bit (a SimHash over frame dHashes).  A minority of changed / inserted
    frames cannot flip any bit, so re-encodes with a frame swapped or a
    brightness-shifted frame land within Hamming<=3 of the original; pure
    integer arithmetic, endian-independent."""
    hs = np.asarray(frame_hashes, dtype=np.uint64)
    if len(hs) == 0:
        return np.uint64(0)
    fp = np.uint64(0)
    for bit in range(64):
        ones = int(((hs >> np.uint64(bit)) & np.uint64(1)).sum())
        if 2 * ones > len(hs):
            fp |= np.uint64(1) << np.uint64(bit)
    return fp


class VideoFingerprinter:
    """Per-batch stage: ``video/ppms`` payload -> per-frame dHash; emits
    ``vfp`` (uint64 majority-vote signature), ``n_frames`` and the distinct
    ``frame_hashes`` (list<uint64>) next to the id column — payload dropped
    so the heavy bytes stop here and only (id, a-few-hashes) rows travel."""

    def __init__(self, id_col: str = "media_id"):
        self.id_col = id_col

    def __call__(self, tbl: pa.Table) -> pa.Table:
        payloads = tbl.column("payload").combine_chunks()
        fps = np.zeros(len(payloads), dtype=np.uint64)
        nf = np.zeros(len(payloads), dtype=np.int32)
        fhs: list[list[int]] = []
        for i in range(len(payloads)):
            raw = payloads[i].as_py() if payloads[i].is_valid else b""
            frames = decode_ppm_sequence(raw)
            hs = np.array([dhash64(f) for f in frames], dtype=np.uint64)
            fps[i] = video_fp64(hs)
            nf[i] = len(frames)
            fhs.append(sorted({int(h) for h in hs}))
        return pa.table({
            self.id_col: tbl.column(self.id_col),
            "vfp": pa.array(fps),
            "n_frames": pa.array(nf),
            "frame_hashes": pa.array(fhs, pa.list_(pa.uint64())),
        })


def video_mark_duplicates(
    ds,
    *,
    id_col: str = "media_id",
    min_overlap: float = 0.6,
    batch_size: int = 64,
    prehashed=None,
):
    """Video near-duplicate marking over concatenated-PPM payloads by
    FRAME-SET OVERLAP — robust to uniform photometric changes (dHash eats
    those frame-by-frame) AND to a minority of inserted / re-rendered
    frames (which a whole-video 64-bit signature is not: over k distinct
    frame hashes a per-bit majority flips wherever the rest split evenly).

    Shape: decode -> per-frame dHash per batch; explode distinct
    (id, frame_hash, n_frames) rows; ONE bucketed exchange keyed on the
    exact frame hash emits star edges (bucket keeper = min id -> member)
    carrying both frame counts — O(videos sharing the frame), never
    all-pairs; a second bucketed pass counts shared frames per (keeper,
    member) pair and marks the member iff
    ``shared >= min_overlap * min(n_keeper, n_member)``.  Keeper-star is
    the same approximation the image/audio paths take: members verify
    against the bucket keeper, not transitively.  Returns
    ``(id_col, is_neardup)``."""
    import pandas as pd

    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed
    from great_expectations_ray.stages.neardup import _bucketed_any_mark

    if prehashed is not None:
        hashed = prehashed
    else:
        hashed = ds.map_batches(
            VideoFingerprinter(id_col=id_col),
            batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size,
        )

    def explode(tbl: pa.Table) -> pa.Table:
        ids = tbl.column(id_col).combine_chunks()
        nfs = tbl.column("n_frames").combine_chunks()
        fhs = tbl.column("frame_hashes").combine_chunks()
        out_id, out_fh, out_n = [], [], []
        for i in range(len(ids)):
            hv = fhs[i].as_py() or []
            out_id.extend([ids[i].as_py()] * len(hv))
            out_fh.extend(hv)
            out_n.extend([nfs[i].as_py()] * len(hv))
        return pa.table({
            id_col: pa.array(out_id),
            "fh": pa.array(np.asarray(out_fh, dtype=np.uint64)),
            "nf": pa.array(out_n, pa.int32()),
        })

    frames = hashed.map_batches(explode, batch_format="pyarrow",
                                zero_copy_batch=True)

    def star(g: pd.DataFrame) -> pd.DataFrame:
        # per frame-hash bucket: keeper = min id; one edge keeper->member
        # per member, both frame counts riding along (no join needed later)
        g = g.sort_values(["fh", id_col], kind="mergesort")
        fh = g["fh"].to_numpy()
        ids = g[id_col].to_numpy()
        nf = g["nf"].to_numpy()
        newseg = np.empty(len(g), dtype=bool)
        if len(g):
            newseg[0] = True
            newseg[1:] = fh[1:] != fh[:-1]
        seg = np.cumsum(newseg) - 1
        firsts = np.flatnonzero(newseg)
        keeper_idx = firsts[seg]
        member = keeper_idx != np.arange(len(g))
        return pd.DataFrame({
            "a": ids[keeper_idx][member],
            "b": ids[member],
            "n_a": nf[keeper_idx][member].astype(np.int32),
            "n_b": nf[member].astype(np.int32),
        })

    edges = grouped_apply_bucketed(frames, ["fh"], star)

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        # per (a, b) pair: shared-frame count vs the smaller video (the
        # bucket carries many pairs — aggregate per pair, vectorized)
        gb = (g.groupby(["a", "b"], sort=False)
               .agg(shared=("n_a", "size"), n_a=("n_a", "first"),
                    n_b=("n_b", "first"))
               .reset_index())
        ok = gb["shared"].to_numpy() >= min_overlap * np.minimum(
            gb["n_a"].to_numpy(), gb["n_b"].to_numpy())
        return pd.DataFrame({id_col: gb["b"], "is_neardup": ok})

    marked = grouped_apply_bucketed(edges, ["a", "b"], verify)
    base = hashed.map_batches(
        lambda t: pa.table({
            id_col: t.column(id_col),
            "is_neardup": pa.array(np.zeros(len(t), dtype=bool)),
        }),
        batch_format="pyarrow", zero_copy_batch=True)
    out = _bucketed_any_mark(base.union(marked), id_col)
    return out.map_batches(
        lambda df: df.rename(columns={"max(is_neardup)": "is_neardup"}),
        batch_format="pandas")


# --------------------------------------------------------------------------- #
# audio feature extraction: log-mel spectrogram (pure-numpy STFT)
# --------------------------------------------------------------------------- #


def _hann(n: int) -> np.ndarray:
    # periodic Hann (the STFT convention), computed once per instance
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def mel_filterbank(n_mels: int, n_fft: int, rate: int,
                   fmin: float = 0.0, fmax: float | None = None) -> np.ndarray:
    """HTK-mel triangular filterbank, shape (n_mels, n_fft//2 + 1).

    mel(f) = 2595 * log10(1 + f/700); triangle peaks at n_mels + 2 points
    equally spaced in mel between fmin and fmax (default Nyquist)."""
    if fmax is None:
        fmax = rate / 2.0
    def to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)
    def from_mel(m):
        return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)
    pts = from_mel(np.linspace(to_mel(fmin), to_mel(fmax), n_mels + 2))
    bins = np.fft.rfftfreq(n_fft, d=1.0 / rate)          # (n_fft//2+1,) Hz
    fb = np.zeros((n_mels, len(bins)), dtype=np.float64)
    for m in range(n_mels):
        lo, mid, hi = pts[m], pts[m + 1], pts[m + 2]
        up = (bins - lo) / max(mid - lo, 1e-12)
        down = (hi - bins) / max(hi - mid, 1e-12)
        fb[m] = np.clip(np.minimum(up, down), 0.0, None)
    return fb


def log_mel_frames(samples: np.ndarray, rate: int, *, n_mels: int = 24,
                   frame_len: int = 400, hop: int = 160,
                   eps: float = 1e-10) -> np.ndarray:
    """(n_frames, n_mels) log-mel spectrogram of a mono int16/float signal.

    STFT = strided Hann-windowed frames -> |rfft|^2 power -> mel filterbank
    -> log.  Vectorized: ONE sliding_window_view + ONE batched rfft; no
    per-frame Python loop.  Signals shorter than one frame are zero-padded
    to a single frame, so every non-empty payload yields >= 1 frame."""
    s = np.asarray(samples, dtype=np.float64)
    if s.ndim == 2:                          # stereo -> mono mix
        s = s.mean(axis=1)
    if len(s) < frame_len:
        s = np.concatenate([s, np.zeros(frame_len - len(s))])
    frames = np.lib.stride_tricks.sliding_window_view(s, frame_len)[::hop]
    spec = np.abs(np.fft.rfft(frames * _hann(frame_len), axis=1)) ** 2
    fb = mel_filterbank(n_mels, frame_len, rate)
    return np.log(spec @ fb.T + eps)


def log_mel_pooled(samples: np.ndarray, rate: int, *, n_mels: int = 24,
                   frame_len: int = 400, hop: int = 160) -> np.ndarray:
    """Fixed-dim audio feature: per-mel-band (mean, std) over time, shape
    (2 * n_mels,) — the standard pooled-spectrogram embedding for
    similarity / clustering / quality stages downstream (chains directly
    into the ANN / k-means / SemDeDup stages over a list<float> column)."""
    lm = log_mel_frames(samples, rate, n_mels=n_mels,
                        frame_len=frame_len, hop=hop)
    return np.concatenate([lm.mean(axis=0), lm.std(axis=0)])


class AudioFeaturizer:
    """Per-batch stage: WAV decode -> pooled log-mel feature vector.

    Emits ``audio_feat`` (list<float32>, 2*n_mels) + ``n_frames`` next to
    the id column; payload dropped (features leave the stage, bytes don't).
    The Hann window and mel filterbank are built ONCE per instance in
    ``__init__`` (per the stateful-stage convention); non-audio or empty
    payloads yield a zero vector and n_frames = 0.

    Reference parity note: the reference engine has no audio feature
    extraction; this is part of the beyond-reference multimodal surface
    (task brief: decode / feature-extract / resize / frame-sample)."""

    def __init__(self, id_col: str = "media_id", n_mels: int = 24,
                 frame_len: int = 400, hop: int = 160):
        self.id_col = id_col
        self.n_mels = n_mels
        self.frame_len = frame_len
        self.hop = hop
        self._window = _hann(frame_len)
        self._fb_cache: dict[int, np.ndarray] = {}

    def _fb(self, rate: int) -> np.ndarray:
        fb = self._fb_cache.get(rate)
        if fb is None:
            fb = mel_filterbank(self.n_mels, self.frame_len, rate)
            self._fb_cache[rate] = fb
        return fb

    def __call__(self, tbl: pa.Table) -> pa.Table:
        payloads = tbl.column("payload").combine_chunks()
        types = tbl.column("media_type").combine_chunks()
        feats = np.zeros((len(payloads), 2 * self.n_mels), dtype=np.float32)
        n_frames = np.zeros(len(payloads), dtype=np.int64)
        for i in range(len(payloads)):
            mt = (types[i].as_py() or "").lower()
            raw = payloads[i].as_py() if payloads[i].is_valid else b""
            if not mt.startswith("audio/") or not raw:
                continue
            samples, rate = decode_wav(raw)
            if samples.size == 0:
                continue
            s = np.asarray(samples, dtype=np.float64)
            if s.ndim == 2:
                s = s.mean(axis=1)
            if len(s) < self.frame_len:
                s = np.concatenate([s, np.zeros(self.frame_len - len(s))])
            frames = np.lib.stride_tricks.sliding_window_view(
                s, self.frame_len)[::self.hop]
            spec = np.abs(np.fft.rfft(frames * self._window, axis=1)) ** 2
            lm = np.log(spec @ self._fb(rate).T + 1e-10)
            feats[i] = np.concatenate([lm.mean(axis=0), lm.std(axis=0)])
            n_frames[i] = lm.shape[0]
        return pa.table({
            self.id_col: tbl.column(self.id_col),
            "audio_feat": pa.array(feats.tolist(), pa.list_(pa.float32())),
            "n_frames": pa.array(n_frames),
        })
