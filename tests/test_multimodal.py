"""Multimodal plumbing: schema, actor stage contract, stubbed decode."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from great_expectations_ray.stages.multimodal import (
    DecodeNotAvailable,
    MediaDecoder,
    make_fake_media_table,
)


def test_fake_decode_pipeline():
    import ray.data as rd

    t = make_fake_media_table(40)
    ds = rd.from_arrow(t).repartition(2)
    out = ds.map_batches(
        MediaDecoder,
        fn_constructor_kwargs={"use_fake": True},
        batch_format="pyarrow",
        batch_size=8,
        concurrency=2,
    )
    df = out.to_pandas()
    assert len(df) == 40
    assert df.payload_sha256.str.len().eq(64).all()
    assert df.feat.map(len).eq(16).all()
    # deterministic: same payload -> same feature
    df2 = (
        rd.from_arrow(t)
        .map_batches(MediaDecoder, fn_constructor_kwargs={"use_fake": True},
                     batch_format="pyarrow", batch_size=8, concurrency=2)
        .to_pandas()
    )
    a = df.sort_values("media_id").reset_index(drop=True)
    b = df2.sort_values("media_id").reset_index(drop=True)
    assert (a.payload_sha256 == b.payload_sha256).all()
    assert all(list(x) == list(y) for x, y in zip(a.feat, b.feat))


def test_real_decode_raises_clearly_for_codec_formats():
    # png/jpeg/mp4 still need external codecs; PPM/WAV now decode natively
    from great_expectations_ray.stages.multimodal import _real_decode

    with pytest.raises(DecodeNotAvailable):
        _real_decode(b"\x89PNG...", "image/png")
    with pytest.raises(DecodeNotAvailable):
        _real_decode(b"....", "video/mp4")


def test_real_ppm_and_wav_decode_end_to_end():
    import numpy as np

    from great_expectations_ray.stages.multimodal import (
        _real_decode,
        decode_ppm,
        decode_wav,
        encode_ppm,
        encode_wav_pcm16,
    )

    img = (np.arange(6 * 8 * 3) % 256).astype(np.uint8).reshape(6, 8, 3)
    assert np.array_equal(decode_ppm(encode_ppm(img)), img)
    gray = (np.arange(48) % 256).astype(np.uint8).reshape(6, 8)
    assert np.array_equal(decode_ppm(encode_ppm(gray)), gray)
    # comment lines in the header are skipped
    with_comment = b"P5\n# a comment\n8 6\n255\n" + gray.tobytes()
    assert np.array_equal(decode_ppm(with_comment), gray)

    s = (np.arange(1000) % 500 - 250).astype(np.int16)
    dec, rate = decode_wav(encode_wav_pcm16(s, 8000))
    assert rate == 8000 and np.array_equal(dec[:, 0], s)
    d = _real_decode(encode_wav_pcm16(s, 8000), "audio/wav")
    assert d.ndim == 2 and d.shape[1] == 256


def test_media_decoder_real_path_on_native_formats(ray_session):
    import numpy as np
    import ray.data as rd

    from great_expectations_ray.stages.multimodal import (
        encode_ppm,
        encode_wav_pcm16,
    )

    t = pa.table({
        "media_id": ["a", "b"],
        "media_type": ["image/ppm", "audio/wav"],
        "payload": pa.array([
            encode_ppm(np.full((4, 4, 3), 128, np.uint8)),
            encode_wav_pcm16(np.zeros(300, np.int16)),
        ], pa.large_binary()),
    })
    out = rd.from_arrow(t).map_batches(
        MediaDecoder, batch_format="pyarrow", concurrency=1,
        fn_constructor_kwargs={"use_fake": False}).take_all()
    # a 4-wide image pools to 4 values (feat is at most feat_dim)
    assert len(out[0]["feat"]) == 4
    assert abs(out[0]["feat"][0] - 128 / 255) < 1e-6
    assert all(abs(v) < 1e-9 for v in out[1]["feat"])  # silent wav -> zeros


def test_resize_nearest_math():
    from great_expectations_ray.stages.multimodal import resize_nearest

    img = np.arange(64, dtype=np.float32).reshape(8, 8)
    small = resize_nearest(img, 4, 4)
    assert small.shape == (4, 4)
    assert small[0, 0] == img[0, 0] and small[3, 3] == img[6, 6]
    up = resize_nearest(img, 16, 16)
    assert up.shape == (16, 16) and up[15, 15] == img[7, 7]


def test_media_resizer_stage():
    import ray.data as rd

    from great_expectations_ray.stages.multimodal import (
        MediaResizer,
        make_fake_media_table,
    )

    ds = rd.from_arrow(make_fake_media_table(12))
    out = ds.map_batches(
        MediaResizer, fn_constructor_kwargs={"use_fake": True, "out_h": 8, "out_w": 8},
        batch_size=4, batch_format="pyarrow", concurrency=2,
    )
    rows = out.take_all()
    assert len(rows) == 12
    assert all(len(r["resized"]) == 64 for r in rows)
    assert all(list(r["resized_shape"]) == [8, 8] for r in rows)


def test_dhash64_properties():
    """dHash invariants: deterministic; invariant to uniform brightness
    shift; a few flipped gradients move few bits; different images differ."""
    from great_expectations_ray.stages.multimodal import dhash64, hamming64

    rng = np.random.default_rng(5)
    img = rng.integers(0, 200, (32, 32, 3)).astype(np.uint8)
    h = dhash64(img)
    assert h == dhash64(img.copy())
    # uniform brightness shift preserves every gradient sign
    assert dhash64(np.clip(img.astype(np.int16) + 40, 0, 255)
                   .astype(np.uint8)) == h
    other = rng.integers(0, 200, (32, 32, 3)).astype(np.uint8)
    d = hamming64(np.array([dhash64(other)], dtype=np.uint64), h)[0]
    assert d > 10  # unrelated noise images: ~32 expected
    # small local perturbation: few bits move
    pert = img.copy()
    pert[:4, :4] = 255
    dp = hamming64(np.array([dhash64(pert)], dtype=np.uint64), h)[0]
    assert dp <= 10


def test_dhash_mark_duplicates_real_ppm(ray_session):
    """Near-dup marking over REAL PPM payloads: brightness-shifted copy
    marked; unrelated image kept; keeper (min id) never marked."""
    import ray.data as rd

    from great_expectations_ray.stages.multimodal import (
        dhash_mark_duplicates,
        encode_ppm,
    )

    rng = np.random.default_rng(9)
    base = rng.integers(0, 200, (24, 24, 3)).astype(np.uint8)
    shifted = np.clip(base.astype(np.int16) + 30, 0, 255).astype(np.uint8)
    other = rng.integers(0, 200, (24, 24, 3)).astype(np.uint8)
    rows = [("a_base", base), ("b_shift", shifted), ("c_other", other)]
    t = pa.table({
        "media_id": [r[0] for r in rows],
        "media_type": ["image/ppm"] * 3,
        "payload": pa.array([encode_ppm(r[1]) for r in rows],
                            pa.large_binary()),
    })
    out = {r["media_id"]: r["is_neardup"] for r in
           dhash_mark_duplicates(rd.from_arrow(t).repartition(2),
                                 id_col="media_id").take_all()}
    assert out == {"a_base": False, "b_shift": True, "c_other": False}


def test_dhash_mark_duplicates_partition_invariance(ray_session):
    import ray.data as rd

    from great_expectations_ray.stages.multimodal import (
        dhash_mark_duplicates,
        encode_ppm,
    )

    rng = np.random.default_rng(13)
    imgs = []
    for i in range(12):
        img = rng.integers(0, 200, (16, 16, 3)).astype(np.uint8)
        imgs.append((f"m{i:02d}", img))
        if i % 4 == 0:  # every 4th gets a brightness-shifted twin
            imgs.append((f"m{i:02d}_twin",
                         np.clip(img.astype(np.int16) + 25, 0, 255)
                         .astype(np.uint8)))
    t = pa.table({
        "media_id": [m for m, _ in imgs],
        "media_type": ["image/ppm"] * len(imgs),
        "payload": pa.array([encode_ppm(im) for _, im in imgs],
                            pa.large_binary()),
    })

    def run(parts):
        ds = rd.from_arrow(t).repartition(parts)
        return sorted(
            (r["media_id"], bool(r["is_neardup"]))
            for r in dhash_mark_duplicates(ds, id_col="media_id").take_all())

    a, b = run(1), run(5)
    assert a == b
    marks = dict(a)
    assert all(marks[f"m{i:02d}_twin"] for i in range(0, 12, 4))
    assert not any(marks[f"m{i:02d}"] for i in range(12))


def test_ppm_sequence_roundtrip():
    """Concatenated-PPM video container: frames survive encode/decode
    byte-exactly, mixed P6/P5 streams parse, bad magic raises."""
    import pytest

    from great_expectations_ray.stages.multimodal import (
        decode_ppm_sequence,
        encode_ppm_sequence,
    )

    rgb = (np.arange(6 * 8 * 3, dtype=np.uint8) % 200).reshape(6, 8, 3)
    gray = (np.arange(4 * 5, dtype=np.uint8) % 100).reshape(4, 5)
    frames = decode_ppm_sequence(encode_ppm_sequence([rgb, gray, rgb]))
    assert len(frames) == 3
    assert (frames[0] == rgb).all() and (frames[1] == gray).all()
    with pytest.raises(ValueError):
        decode_ppm_sequence(b"XX nonsense")
    with pytest.raises(ValueError):
        encode_ppm_sequence([])


def test_video_fp64_majority_and_photometric_invariance():
    """Majority-vote signature: identical frame multisets agree; a uniform
    brightness shift on any frame leaves the per-frame dHash (and so the
    signature) unchanged."""
    from great_expectations_ray.stages.multimodal import dhash64, video_fp64

    rng = np.random.default_rng(5)
    frames = [rng.integers(0, 200, (16, 16, 3)).astype(np.uint8)
              for _ in range(5)]
    hs = np.array([dhash64(f) for f in frames], dtype=np.uint64)
    # 2-of-3 majority equals the repeated hash exactly
    assert video_fp64(np.array([hs[0], hs[1], hs[0]])) == hs[0]
    shifted = [frames[0] + np.uint8(20)] + frames[1:]
    hs2 = np.array([dhash64(f) for f in shifted], dtype=np.uint64)
    assert video_fp64(hs) == video_fp64(hs2)


def test_video_mark_duplicates_frame_overlap(ray_session):
    """Frame-set overlap dedup: a copy with one frame re-rendered and one
    brightness-shifted marks (4/5 shared >= 0.6*5); a video sharing only
    2/5 frames does not; unrelated videos survive; partition-invariant."""
    import ray.data as rd

    from great_expectations_ray.stages.multimodal import (
        encode_ppm_sequence,
        video_mark_duplicates,
    )

    rng = np.random.default_rng(9)

    def frame():
        return rng.integers(0, 200, (16, 16, 3)).astype(np.uint8)

    base = [frame() for _ in range(5)]
    twin = [base[0] + np.uint8(20), base[1], base[2], base[3], frame()]
    partial = [base[0], base[1], frame(), frame(), frame()]  # 2/5 shared
    other = [frame() for _ in range(5)]

    def run(nparts: int) -> list:
        tbl = pa.table({
            "media_id": ["a_base", "b_twin", "c_partial", "d_other"],
            "media_type": ["video/ppms"] * 4,
            "payload": pa.array([encode_ppm_sequence(f) for f in
                                 (base, twin, partial, other)],
                                pa.large_binary()),
        })
        out = video_mark_duplicates(
            rd.from_arrow(tbl).repartition(nparts), id_col="media_id")
        return sorted((r["media_id"], bool(r["is_neardup"]))
                      for r in out.take_all())

    a, b = run(1), run(4)
    assert a == b
    marks = dict(a)
    assert marks == {"a_base": False, "b_twin": True,
                     "c_partial": False, "d_other": False}


# --------------------------------------------------------------------------- #
# log-mel spectrogram feature extraction
# --------------------------------------------------------------------------- #


def _naive_log_mel(samples, rate, n_mels=24, frame_len=400, hop=160,
                   eps=1e-10):
    """Independent per-frame loop reimplementation (explicit frame slicing,
    per-frame rfft, explicit triangle evaluation per bin)."""
    from great_expectations_ray.stages.multimodal import mel_filterbank

    s = np.asarray(samples, dtype=np.float64)
    if s.ndim == 2:
        s = s.mean(axis=1)
    if len(s) < frame_len:
        s = np.concatenate([s, np.zeros(frame_len - len(s))])
    win = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(frame_len) / frame_len)
    fb = mel_filterbank(n_mels, frame_len, rate)
    out = []
    start = 0
    while start + frame_len <= len(s):
        fr = s[start:start + frame_len] * win
        p = np.abs(np.fft.rfft(fr)) ** 2
        out.append(np.log(fb @ p + eps))
        start += hop
    return np.array(out)


def test_log_mel_matches_naive_loop():
    from great_expectations_ray.stages.multimodal import log_mel_frames

    rng = np.random.default_rng(3)
    s = (rng.standard_normal(16000) * 3000).astype(np.int16)
    got = log_mel_frames(s, 16000)
    ref = _naive_log_mel(s, 16000)
    assert got.shape == ref.shape and got.shape[1] == 24
    np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)


def test_log_mel_tone_concentrates_in_right_band():
    from great_expectations_ray.stages.multimodal import (
        log_mel_frames,
        mel_filterbank,
    )

    rate, f0 = 16000, 1000.0
    t = np.arange(rate) / rate
    tone = (np.sin(2 * np.pi * f0 * t) * 10000).astype(np.int16)
    lm = log_mel_frames(tone, rate).mean(axis=0)
    # expected band: the filter with max response at the tone's fft bin
    fb = mel_filterbank(24, 400, rate)
    bin_hz = np.fft.rfftfreq(400, d=1.0 / rate)
    expect = int(np.argmax(fb[:, np.argmin(np.abs(bin_hz - f0))]))
    assert int(np.argmax(lm)) == expect


def test_log_mel_short_and_stereo():
    from great_expectations_ray.stages.multimodal import log_mel_frames

    rng = np.random.default_rng(5)
    short = (rng.standard_normal(100) * 1000).astype(np.int16)
    assert log_mel_frames(short, 16000).shape[0] == 1  # zero-padded to 1 frame
    mono = (rng.standard_normal(4000) * 1000).astype(np.int16)
    stereo = np.stack([mono, mono], axis=1)
    np.testing.assert_allclose(log_mel_frames(stereo, 16000),
                               log_mel_frames(mono, 16000))


def test_mel_filterbank_shape_and_coverage():
    from great_expectations_ray.stages.multimodal import mel_filterbank

    fb = mel_filterbank(24, 400, 16000)
    assert fb.shape == (24, 201)
    assert (fb >= 0).all() and np.isclose(fb.max(), 1.0, atol=0.05)
    # every filter has support, and interior bins are covered by some filter
    assert (fb.sum(axis=1) > 0).all()
    assert (fb[:, 5:-5].sum(axis=0) > 0).any()


def test_audio_featurizer_stage(ray_session):
    import ray.data as rd

    from great_expectations_ray.stages.multimodal import (
        AudioFeaturizer,
        encode_wav_pcm16,
        log_mel_pooled,
    )

    rng = np.random.default_rng(9)
    sigs = [(rng.standard_normal(3000 + 500 * i) * 5000).astype(np.int16)
            for i in range(4)]
    rows = {
        "media_id": [f"a{i}" for i in range(4)] + ["img0", "empty0"],
        "media_type": ["audio/wav"] * 4 + ["image/ppm", "audio/wav"],
        "payload": [encode_wav_pcm16(s) for s in sigs] + [b"P6 junk", b""],
    }
    ds = rd.from_arrow(pa.table(rows)).repartition(3)
    out = {r["media_id"]: r for r in ds.map_batches(
        AudioFeaturizer, concurrency=(1, 2), batch_size=2,
        batch_format="pyarrow").take_all()}
    assert len(out) == 6
    for i, s in enumerate(sigs):
        want = log_mel_pooled(s, 16000).astype(np.float32)
        np.testing.assert_allclose(out[f"a{i}"]["audio_feat"], want,
                                   rtol=1e-6, atol=1e-6)
        assert out[f"a{i}"]["n_frames"] >= 1
    # non-audio and empty payloads: zero vector, 0 frames, no crash
    for mid in ("img0", "empty0"):
        assert out[mid]["n_frames"] == 0
        assert not np.any(out[mid]["audio_feat"])
