"""Near-duplicate detection — MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine.  The wide-op family a training-data pipeline needs beyond
the reference's exact-uniqueness expectations (SURVEY §2.6).

All variants share the scalable shape:

    map_batches (vectorized signature per row)
      -> explode to (bucket_key, doc_id) rows            [tiny vs content]
      -> ONE groupby(bucket_key)                         [the only shuffle]
      -> within-bucket candidate marking / verification  [groups are small]

A document is marked duplicate iff it shares a bucket with a LOWER-keyed
document (deterministic keep-first).  Bucket-connected marking is the
standard LSH approximation of connected components; a verification predicate
(true Jaccard / cosine / hamming) can be applied within buckets before
marking.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.stages._per_worker import map_per_worker

_MERSENNE = (1 << 61) - 1


def _bucketed_any_mark(marked_ds, id_col: str):
    """``groupby(id).max(is_neardup)`` without per-group reduce overhead:
    hash-bucket the ids, vectorized ``groupby().max()`` per bucket.  Output
    column is named ``max(is_neardup)`` (Ray aggregate naming, kept for
    API compatibility)."""
    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed

    def reduce_max(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(id_col, sort=True)["is_neardup"].max().reset_index()
        out.columns = [id_col, "max(is_neardup)"]
        return out

    return grouped_apply_bucketed(marked_ds, [id_col], reduce_max)


def _shingle_hashes(data: np.ndarray, offsets: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rolling polynomial hashes of all k-byte shingles, flattened across the
    batch, plus per-row shingle counts.  Fully vectorized over the
    concatenated byte stream (row-crossing windows are dropped)."""
    n = len(offsets) - 1
    lens = offsets[1:] - offsets[:-1]
    counts = np.maximum(lens - k + 1, 0)
    if data.size == 0 or counts.sum() == 0:
        return np.empty(0, dtype=np.uint64), counts
    # polynomial rolling hash base 257 mod 2^61-1 over the whole stream via
    # prefix sums in uint64 with explicit mod (python ints too slow):
    # H[i] = sum_{j<i} data[j] * B^{i-1-j}.  Window hash derived from two
    # prefixes needs modpow arrays — simpler: direct k-column sum since k is
    # small (5-10): hash = sum_j data[i+j] * B^j  (not rolling, k gathers)
    B = np.uint64(1099511628211)  # FNV prime as mixing base
    total = int(counts.sum())
    # window start positions (global stream indices), per row
    starts_per_row = offsets[:-1]
    win_starts = np.repeat(starts_per_row, counts) + _concat_aranges(counts)
    h = np.zeros(total, dtype=np.uint64)
    mult = np.uint64(1)
    for j in range(k):
        h = h * B + data[win_starts + j].astype(np.uint64)
    return h, counts


def _concat_aranges(counts: np.ndarray) -> np.ndarray:
    """[arange(c) for c in counts] concatenated, vectorized."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    seg_starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=seg_starts[1:])
    return np.arange(total, dtype=np.int64) - np.repeat(seg_starts, counts)


def minhash_signatures(
    content: pa.Array | pa.ChunkedArray,
    *,
    num_perm: int = 128,
    shingle_k: int = 8,
    seed: int = 17,
) -> np.ndarray:
    """(n, num_perm) uint64 MinHash signatures, vectorized.

    Permutations are universal hashes a*x+b over the shingle hash set;
    per-row minima via ``np.minimum.reduceat``.  Rows with no shingles get
    all-max signatures (never collide)."""
    if isinstance(content, pa.ChunkedArray):
        content = content.combine_chunks()
    content = pc.fill_null(content, "")
    if not pa.types.is_large_string(content.type):
        content = pc.cast(content, pa.large_string())
    bufs = content.buffers()
    offsets = np.frombuffer(bufs[1], dtype=np.int64)[
        content.offset : content.offset + len(content) + 1
    ]
    data = np.frombuffer(bufs[2], dtype=np.uint8)
    n = len(content)

    hashes, counts = _shingle_hashes(data, offsets, shingle_k)
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64) | np.uint64(1)
    b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)

    sig = np.full((n, num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
    if hashes.size:
        firsts = np.zeros(len(counts), dtype=np.int64)
        np.cumsum(counts[:-1], out=firsts[1:])
        rows = np.flatnonzero(counts > 0)
        local_firsts = firsts[rows]
        # One contiguous 1-D pass per permutation.  numpy's strided uint64
        # multiply loop (a 2-D broadcast hs[:,None]*a[None,:]) is ~80× slower
        # than the contiguous 1-D SIMD loop on this build, so the per-perm
        # formulation wins despite touching `hashes` num_perm times; the
        # temporary is a single shingles-sized uint64 vector.
        hv = np.empty_like(hashes)
        for p in range(num_perm):
            np.multiply(hashes, a[p], out=hv)  # uint64 wrap mixing
            hv += b[p]
            sig[rows, p] = np.minimum.reduceat(hv, local_firsts)
    return sig


def band_keys(sig: np.ndarray, bands: int) -> np.ndarray:
    """(n, bands) uint64 band hashes (rows of each band hashed together)."""
    n, num_perm = sig.shape
    r = num_perm // bands
    out = np.empty((n, bands), dtype=np.uint64)
    B = np.uint64(1099511628211)
    for bi in range(bands):
        h = np.zeros(n, dtype=np.uint64)
        for j in range(bi * r, (bi + 1) * r):
            h = h * B + sig[:, j]
        out[:, bi] = h
    return out


def optimal_bands(
    num_perm: int,
    threshold: float,
    *,
    fp_weight: float = 0.5,
) -> tuple[int, int]:
    """Pick the (bands, rows) split of ``num_perm`` minimizing the weighted
    false-positive + false-negative mass around a target Jaccard
    ``threshold`` — the standard LSH S-curve tuning (Leskovec/Rajaraman/
    Ullman, *Mining of Massive Datasets* §3.4; same objective as
    datasketch's public ``_optimal_param``, re-derived here).

    Collision probability at similarity ``s`` is ``1 − (1 − s^r)^b``;
    FP mass = ∫₀ᵗ P(s) ds (dissimilar pairs that collide), FN mass =
    ∫ₜ¹ (1 − P(s)) ds.  Only ``b`` dividing ``num_perm`` are considered, so
    the returned split always consumes the full signature.
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must be in (0, 1)")
    if not (0.0 <= fp_weight <= 1.0):
        raise ValueError("fp_weight must be in [0, 1]")
    s = np.linspace(0.0, 1.0, 1001)
    below = s <= threshold
    best, best_err = None, np.inf
    for b in range(1, num_perm + 1):
        if num_perm % b:
            continue
        r = num_perm // b
        p = 1.0 - (1.0 - s**r) ** b
        fp = np.trapz(p[below], s[below])
        fn = np.trapz(1.0 - p[~below], s[~below])
        err = fp_weight * fp + (1.0 - fp_weight) * fn
        if err < best_err:
            best, best_err = (b, r), err
    return best


def minhash_lsh_mark_duplicates(
    ds,
    *,
    text_col: str = "content",
    id_col: str,
    num_perm: int = 128,
    bands: int | str = 16,
    shingle_k: int = 8,
    seed: int = 17,
    jaccard_threshold: float | None = None,
    max_bucket_size: int = 2000,
):
    """Returns a Dataset of (id_col, is_neardup) — is_neardup True iff the
    row shares an LSH bucket with a lower id (after optional signature-
    Jaccard verification within the bucket).

    ``max_bucket_size`` caps the in-bucket verification work: a degenerate
    bucket (thousands of near-identical docs on one reducer) is verified
    against the bucket REPRESENTATIVE (lowest id) only — O(bucket) instead
    of O(bucket²) — so a hot bucket cannot go quadratic.

    ``bands="auto"`` tunes the (bands, rows) split to ``jaccard_threshold``
    via :func:`optimal_bands` (requires a threshold)."""
    if bands == "auto":
        if jaccard_threshold is None:
            raise ValueError('bands="auto" requires jaccard_threshold')
        bands, _ = optimal_bands(num_perm, jaccard_threshold)
    r = num_perm // bands

    def explode(tbl: pa.Table) -> pa.Table:
        sig = minhash_signatures(
            tbl.column(text_col), num_perm=num_perm, shingle_k=shingle_k, seed=seed
        )
        bk = band_keys(sig, bands)
        n = len(sig)
        ids = np.asarray(tbl.column(id_col))
        band_id = np.tile(np.arange(bands, dtype=np.int64), n)
        out = {
            id_col: pa.array(np.repeat(ids, bands)),
            "band": pa.array(band_id),
            "bkey": pa.array(bk.reshape(-1)),
        }
        if jaccard_threshold is not None:
            # ship the full signature per (row, band) for in-bucket verify
            out["sig"] = pa.array(list(np.repeat(sig, bands, axis=0)))
        return pa.table(out)

    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed

    def mark_bucket(g: pd.DataFrame) -> pd.DataFrame:
        """One hash BUCKET of (band, bkey) groups — vectorized across all
        groups in the bucket (Ray's per-group reduce overhead is pathological
        at #docs×#bands group counts; see functions/bucketed.py)."""
        g = g.sort_values(["band", "bkey", id_col], kind="mergesort").reset_index(drop=True)
        if jaccard_threshold is None:
            # near-dup iff a LOWER id shares the (band, bkey) group
            dup = g.duplicated(subset=["band", "bkey"], keep="first").to_numpy()
        else:
            dup = np.zeros(len(g), dtype=bool)
            for _, grp in g.groupby(["band", "bkey"], sort=False):
                loc = grp.index.to_numpy()  # positional after reset_index
                sigs = np.stack(grp["sig"].to_numpy())
                if len(grp) > max_bucket_size:
                    # degenerate group: verify vs representative only — O(n)
                    sim = (sigs[1:] == sigs[0]).mean(axis=1)
                    dup[loc[1:]] = sim >= jaccard_threshold
                else:
                    for i in range(1, len(grp)):
                        sim = (sigs[i] == sigs[:i]).mean(axis=1).max()
                        dup[loc[i]] = sim >= jaccard_threshold
        return pd.DataFrame({id_col: g[id_col].to_numpy(), "is_neardup": dup})

    marked = grouped_apply_bucketed(
        ds.select_columns([id_col, text_col])
        .map_batches(explode, batch_format="pyarrow", zero_copy_batch=True),
        ["band", "bkey"],
        mark_bucket,
    )
    # a doc is near-dup if ANY band marked it (bucketed vectorized max)
    return _bucketed_any_mark(marked, id_col)


_SIMHASH_B = np.uint64(1099511628211)  # FNV prime mixing base


def _token_poly_hashes(flat: pa.Array) -> np.ndarray:
    """uint64 polynomial hash per token, fully vectorized off the flattened
    token values buffer: h(tok) = Σ_j byte_j · B^j  (mod 2^64).  No per-token
    Python loop, no ``as_py()``."""
    from great_expectations_ray.stages.scrub import _string_buffer_views

    m = len(flat)
    if m == 0:
        return np.empty(0, dtype=np.uint64)
    offs, mv = _string_buffer_views(flat)
    offs = offs.astype(np.int64)
    tok_lens = offs[1:] - offs[:-1]
    total = int(tok_lens.sum())
    out = np.zeros(m, dtype=np.uint64)
    if total == 0:
        return out
    data = np.frombuffer(mv, dtype=np.uint8)[offs[0] : offs[-1]]
    starts = offs[:-1] - offs[0]
    pos = _concat_aranges(tok_lens)  # position of each byte within its token
    maxlen = int(tok_lens.max())
    # powers[j] = B^j mod 2^64 via wrapping cumulative product of [1, B, B, …]
    powers = np.ones(maxlen, dtype=np.uint64)
    if maxlen > 1:
        powers[1:] = _SIMHASH_B
        np.multiply.accumulate(powers, out=powers, dtype=np.uint64)
    # byte stream is contiguous token bytes (split output has no separators)
    contrib = data.astype(np.uint64) * powers[pos]
    nz = tok_lens > 0
    seg_starts = np.zeros(m, dtype=np.int64)
    np.cumsum(tok_lens[:-1], out=seg_starts[1:])
    out[nz] = np.add.reduceat(contrib, seg_starts[nz])
    return out


def simhash64(
    content: pa.Array | pa.ChunkedArray, *, seed: int = 29
) -> np.ndarray:
    """64-bit SimHash per row from whitespace tokens.  Token extraction is
    Arrow; token hashing is one vectorized polynomial pass over the flattened
    token bytes (``_token_poly_hashes``) — no per-token Python loop."""
    if isinstance(content, pa.ChunkedArray):
        content = content.combine_chunks()
    content = pc.fill_null(content, "")
    tokens = pc.split_pattern_regex(pc.cast(content, pa.string()), r"\s+")
    flat = tokens.values
    tok_counts = np.asarray(pc.list_value_length(tokens), dtype=np.int64)
    mix = np.uint64(0x9E3779B97F4A7C15 + seed)
    tok_hashes = _token_poly_hashes(flat)
    tok_hashes = (tok_hashes * mix) ^ (tok_hashes >> np.uint64(13))
    tok_hashes *= np.uint64(0xC2B2AE3D27D4EB4F)

    n = len(tok_counts)
    out = np.zeros(n, dtype=np.uint64)
    nonzero = tok_counts > 0
    firsts = np.zeros(n, dtype=np.int64)
    np.cumsum(tok_counts[:-1], out=firsts[1:])
    if len(flat):
        # SIMD bit unpack (the strided uint64 shift-broadcast alternative is
        # ~80× slower on this numpy build): (tokens, 64) 0/1 matrix with
        # column j = bit j of the hash, little-endian throughout.
        bits = np.unpackbits(
            tok_hashes.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
        ).astype(np.int32)
        # segmented column sums via cumsum-diff: 2-D ufunc.reduceat(axis=0)
        # is ~20× slower than one contiguous cumsum on this numpy build.
        csum = np.cumsum(bits, axis=0, dtype=np.int32)
        f = firsts[nonzero]
        ends = np.append(f[1:], len(bits)) - 1
        sums = csum[ends]
        sums[1:] -= csum[f[1:] - 1]
        # majority vote: bit set iff #ones > #zeros  ⇔  2·#ones > count
        sim_bits = (2 * sums > tok_counts[nonzero, None]).astype(np.uint8)
        out[nonzero] = np.packbits(sim_bits, axis=1, bitorder="little").reshape(
            -1, 8
        ).copy().view(np.uint64).reshape(-1)
    return out


def simhash_mark_duplicates(ds, *, text_col: str = "content", id_col: str,
                            seed: int = 29, n_bands: int = 4):
    """Hamming-distance blocking: 4 bands of 16 bits; docs sharing any band
    value with a lower id are near-dup candidates (catches hamming <= 3
    within 64 bits by pigeonhole when bands are intact)."""

    def explode(tbl: pa.Table) -> pa.Table:
        h = simhash64(tbl.column(text_col), seed=seed)
        ids = np.asarray(tbl.column(id_col))
        parts = []
        for bi in range(n_bands):
            band_val = (h >> np.uint64(16 * bi)) & np.uint64(0xFFFF)
            parts.append(pa.table({
                id_col: pa.array(ids),
                "band": pa.array(np.full(len(ids), bi, dtype=np.int64)),
                "bkey": pa.array(band_val),
                "simhash": pa.array(h),
            }))
        return pa.concat_tables(parts)

    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed

    def mark_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["band", "bkey", id_col], kind="mergesort")
        dup = g.duplicated(subset=["band", "bkey"], keep="first").to_numpy()
        return pd.DataFrame({id_col: g[id_col].to_numpy(), "is_neardup": dup})

    marked = grouped_apply_bucketed(
        ds.select_columns([id_col, text_col])
        .map_batches(explode, batch_format="pyarrow", zero_copy_batch=True),
        ["band", "bkey"],
        mark_bucket,
    )
    return _bucketed_any_mark(marked, id_col)


def ngram_jaccard(a: str, b: str, k: int = 8) -> float:
    """Exact k-gram Jaccard — the in-bucket verification predicate."""
    sa = {a[i : i + k] for i in range(max(len(a) - k + 1, 0))}
    sb = {b[i : i + k] for i in range(max(len(b) - k + 1, 0))}
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / max(len(sa | sb), 1)


def ngram_jaccard_mark_duplicates(
    ds,
    *,
    text_col: str = "content",
    id_col: str,
    num_perm: int = 128,
    bands: int = 16,
    shingle_k: int = 8,
    seed: int = 17,
    threshold: float = 0.5,
    max_candidate_pairs: int = 50_000_000,
):
    """EXACT n-gram (k-byte-shingle) Jaccard near-dup marking at scale.

    The MinHash arms above verify with the signature-Jaccard ESTIMATE; this
    stage verifies candidates with the exact deduplicated k-gram Jaccard
    (over 64-bit shingle hashes — collision odds negligible), the fourth
    dedup mode next to exact / MinHash-LSH / SimHash.

    Shape (four bounded exchanges, no corpus reshuffle):
      1. MinHash-LSH banding (same signature/band spec as
         ``minhash_lsh_mark_duplicates``) → (id, band, bkey), one bucketed
         exchange of 24-byte rows;
      2. per (band, bkey) bucket, STAR pairing: each non-minimal member is
         paired with the bucket REPRESENTATIVE (lowest id) — O(n) pairs per
         bucket, a hot bucket cannot go quadratic; pairs dedup'd across
         bands by one 16-byte-row exchange;
      3. the deduplicated pair list (ids only; guarded by
         ``max_candidate_pairs``) is broadcast once via ``ray.put``, the
         corpus streams through a per-batch stage that computes shingle sets for
         CANDIDATE rows only and routes them keyed by representative —
         member sets ship once per pair, each representative's set ships
         ONCE — then one bucketed group computes every pair's exact Jaccard.
         Shingle bytes enter the exchange only for candidate docs, never the
         full corpus (contrast stages/substr_dedup.py's every-position
         pass);
      4. per-doc OR across pairs via the bucketed any-mark.

    is_neardup(d) = EXISTS (band, bkey) bucket whose representative r < d
    has J_kgram(d, r) >= threshold.  Docs shorter than ``shingle_k`` have
    empty shingle sets: J(empty, empty) = 1.0 (the ``ngram_jaccard``
    convention; such docs also share the all-max signature so they bucket
    together), J(empty, nonempty) = 0.0.

    Returns a Dataset of (id_col, ``max(is_neardup)``) like the other
    marking arms.
    """
    import ray

    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed

    def explode(tbl: pa.Table) -> pa.Table:
        sig = minhash_signatures(
            tbl.column(text_col), num_perm=num_perm, shingle_k=shingle_k, seed=seed
        )
        bk = band_keys(sig, bands)
        n = len(sig)
        ids = np.asarray(tbl.column(id_col))
        return pa.table({
            id_col: pa.array(np.repeat(ids, bands)),
            "band": pa.array(np.tile(np.arange(bands, dtype=np.int64), n)),
            "bkey": pa.array(bk.reshape(-1)),
        })

    def star_pairs(g: pd.DataFrame) -> pd.DataFrame:
        rep = g.groupby(["band", "bkey"], sort=False)[id_col].transform("min")
        ids = g[id_col].to_numpy()
        m = ids != rep.to_numpy()
        return pd.DataFrame({"a": rep.to_numpy()[m], "b": ids[m]})

    def distinct_pairs(g: pd.DataFrame) -> pd.DataFrame:
        return g[["a", "b"]].drop_duplicates()

    exploded = ds.select_columns([id_col, text_col]).map_batches(
        explode, batch_format="pyarrow", zero_copy_batch=True
    )
    pairs_ds = grouped_apply_bucketed(exploded, ["band", "bkey"], star_pairs)
    pairs_ds = grouped_apply_bucketed(pairs_ds, ["a", "b"], distinct_pairs)

    # Candidate pairs are ids only (16 B/pair) and near-dup-proportional, so
    # the driver pull is bounded like the bloom/substr candidate broadcasts;
    # to_pandas(limit=) raises rather than silently materializing more.
    pairs_df = pairs_ds.to_pandas(limit=max_candidate_pairs)

    def all_false(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            "is_neardup": np.zeros(len(df), dtype=bool),
        })

    base = ds.select_columns([id_col]).map_batches(all_false, batch_format="pandas")
    if len(pairs_df) == 0:  # no candidates anywhere (also loses its columns)
        return _bucketed_any_mark(base, id_col)

    a_ids = pairs_df["a"].to_numpy().astype(np.int64)
    b_ids = pairs_df["b"].to_numpy().astype(np.int64)
    order = np.argsort(b_ids, kind="stable")
    pairs_ref = ray.put((a_ids[order], b_ids[order], np.unique(a_ids)))

    sh_type = pa.list_(pa.uint64())
    empty_routed = pa.table({
        "a": pa.array([], pa.int64()),
        "b": pa.array([], pa.int64()),
        "role": pa.array([], pa.int8()),
        "sh": pa.array([], sh_type),
    })

    class _RouteSets:
        """Per worker: fetch the pair routing once; per batch: shingle the
        candidate rows and emit set-carrying rows keyed by representative."""

        def __init__(self):
            a_by_b, b_sorted, reps = ray.get(pairs_ref)
            self.a_by_b, self.b_sorted, self.reps = a_by_b, b_sorted, reps
            self.cand = pa.array(np.unique(np.concatenate([b_sorted, reps])))

        def __call__(self, tbl: pa.Table) -> pa.Table:
            ids_arr = tbl.column(id_col).combine_chunks()
            keep = pc.fill_null(pc.is_in(ids_arr, value_set=self.cand), False)
            sub = tbl.filter(keep)
            if sub.num_rows == 0:
                return empty_routed
            content = pc.fill_null(sub.column(text_col).combine_chunks(), "")
            if not pa.types.is_large_string(content.type):
                content = pc.cast(content, pa.large_string())
            bufs = content.buffers()
            offsets = np.frombuffer(bufs[1], dtype=np.int64)[
                content.offset : content.offset + len(content) + 1
            ]
            data = np.frombuffer(bufs[2], dtype=np.uint8)
            hashes, counts = _shingle_hashes(data, offsets, shingle_k)
            firsts = np.zeros(len(counts), dtype=np.int64)
            np.cumsum(counts[:-1], out=firsts[1:])
            ids = np.asarray(sub.column(id_col), dtype=np.int64)
            out_a, out_b, out_role, out_sh = [], [], [], []
            for i, doc in enumerate(ids):
                sh = np.unique(hashes[firsts[i] : firsts[i] + counts[i]])
                lo = np.searchsorted(self.b_sorted, doc, side="left")
                hi = np.searchsorted(self.b_sorted, doc, side="right")
                for rep in self.a_by_b[lo:hi]:  # member side, once per pair
                    out_a.append(int(rep))
                    out_b.append(int(doc))
                    out_role.append(0)
                    out_sh.append(sh)
                j = np.searchsorted(self.reps, doc)
                if j < len(self.reps) and self.reps[j] == doc:  # rep: ONCE
                    out_a.append(int(doc))
                    out_b.append(-1)
                    out_role.append(1)
                    out_sh.append(sh)
            if not out_a:
                return empty_routed
            return pa.table({
                "a": pa.array(out_a, pa.int64()),
                "b": pa.array(out_b, pa.int64()),
                "role": pa.array(out_role, pa.int8()),
                "sh": pa.array(out_sh, sh_type),
            })

    routed = map_per_worker(ds.select_columns([id_col, text_col]), _RouteSets,
                            batch_format="pyarrow", zero_copy_batch=True)

    def verify_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out_b: list[int] = []
        out_flag: list[bool] = []
        for _, grp in g.groupby("a", sort=False):
            rep_rows = grp[grp["role"] == 1]
            if len(rep_rows) == 0:
                continue
            sa = np.asarray(rep_rows["sh"].iloc[0], dtype=np.uint64)
            mem = grp[grp["role"] == 0]
            for b, sb in zip(mem["b"].to_numpy(), mem["sh"].to_numpy()):
                sb = np.asarray(sb, dtype=np.uint64)
                if sa.size == 0 and sb.size == 0:
                    j = 1.0
                elif sa.size == 0 or sb.size == 0:
                    j = 0.0
                else:
                    inter = int(np.isin(sb, sa, assume_unique=True).sum())
                    j = inter / (sa.size + sb.size - inter)
                out_b.append(int(b))
                out_flag.append(j >= threshold)
        return pd.DataFrame({
            id_col: np.asarray(out_b, dtype=np.int64),
            "is_neardup": np.asarray(out_flag, dtype=bool),
        })

    verified = grouped_apply_bucketed(routed, ["a"], verify_bucket)
    return _bucketed_any_mark(verified.union(base), id_col)


def embedding_mark_duplicates(
    ds,
    *,
    emb_col: str = "embedding",
    id_col: str,
    cosine_threshold: float = 0.95,
    n_planes: int = 12,
    seed: int = 7,
    max_bucket_size: int = 2000,
):
    """Embedding near-dup: random-hyperplane LSH buckets, exact cosine verify
    within buckets against every lower-id member.  Buckets larger than
    ``max_bucket_size`` verify against the bucket representative (lowest id)
    only — bounds a degenerate hot bucket to O(bucket) work."""
    from great_expectations_ray.stages.ann import _emb_matrix, lsh_bucket_assignments

    planes_holder = {}

    def explode(tbl: pa.Table) -> pa.Table:
        M = _emb_matrix(tbl.column(emb_col))
        if "p" not in planes_holder:
            rng = np.random.default_rng(seed)
            planes_holder["p"] = rng.standard_normal((n_planes, M.shape[1] if M.size else 1))
        buckets = lsh_bucket_assignments(M, planes_holder["p"]) if M.size else np.empty(0, np.int64)
        return pa.table({
            id_col: tbl.column(id_col),
            "bkey": pa.array(buckets),
            emb_col: tbl.column(emb_col),
        })

    def mark(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(id_col, kind="mergesort")
        ids = g[id_col].to_numpy()
        M = np.stack(g[emb_col].to_numpy()).astype(np.float64)
        norms = np.linalg.norm(M, axis=1)
        n = len(g)
        dup = np.zeros(n, dtype=bool)
        if n > max_bucket_size:
            # degenerate bucket: one matvec vs the representative — O(n·d)
            sims = (M[1:] @ M[0]) / np.maximum(norms[1:] * norms[0], 1e-30)
            dup[1:] = sims >= cosine_threshold
        elif n > 1:
            # one GEMM for the whole bucket: dup[i] iff any LOWER-id j has
            # cosine >= threshold (strict lower triangle)
            sims = (M @ M.T) / np.maximum(np.outer(norms, norms), 1e-30)
            lower = np.tril(sims >= cosine_threshold, k=-1)
            dup = lower.any(axis=1)
        return pd.DataFrame({id_col: ids, "is_neardup": dup})

    marked = (
        ds.select_columns([id_col, emb_col])
        .map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bkey")  # ≤2^n_planes groups — per-group verify is inherent
        .map_groups(mark, batch_format="pandas")
    )
    return _bucketed_any_mark(marked, id_col)


def mark_known_neardup(
    new_ds,
    snapshot_ds,
    *,
    text_col: str = "text",
    id_col: str,
    num_perm: int = 128,
    bands: int = 16,
    shingle_k: int = 8,
    seed: int = 17,
):
    """Incremental NEAR-duplicate marking against a prior snapshot: each new
    doc is ``is_known`` iff it shares any MinHash-LSH band bucket with a
    snapshot doc — the fuzzy sibling of ``bloomdedup.mark_known`` (which is
    exact-key).  The continuously-crawled-corpus shape: the snapshot corpus
    is NOT broadcast; both sides explode to 8-byte band keys (``bands`` rows
    per doc, tiny vs content) and meet in ONE bucketed exchange, so the
    snapshot can be arbitrarily large.

    Same signature/band construction (and defaults) as
    ``minhash_lsh_mark_duplicates``, so thresholds tuned in-corpus carry
    over.  Returns a Dataset of ``(id_col, is_known)`` over the NEW side
    only."""
    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed

    def explode_side(side: int):
        def fn(tbl: pa.Table) -> pa.Table:
            sig = minhash_signatures(
                tbl.column(text_col), num_perm=num_perm,
                shingle_k=shingle_k, seed=seed)
            bk = band_keys(sig, bands)
            n = len(sig)
            ids = np.asarray(tbl.column(id_col))
            return pa.table({
                id_col: pa.array(np.repeat(ids, bands)),
                "band": pa.array(np.tile(np.arange(bands, dtype=np.int64), n)),
                "bkey": pa.array(bk.reshape(-1)),
                "side": pa.array(np.full(n * bands, side, dtype=np.int8)),
            })

        return fn

    both = (
        new_ds.select_columns([id_col, text_col])
        .map_batches(explode_side(1), batch_format="pyarrow", zero_copy_batch=True)
        .union(
            snapshot_ds.select_columns([id_col, text_col])
            .map_batches(explode_side(0), batch_format="pyarrow",
                         zero_copy_batch=True))
    )

    def mark_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # per (band, bkey) group: a NEW row is known iff the group contains
        # any snapshot row (side 0); vectorized across all groups in the
        # bucket via a transform-min
        has_snap = g.groupby(["band", "bkey"], sort=False)["side"].transform("min") == 0
        new_rows = g["side"].to_numpy() == 1
        return pd.DataFrame({
            id_col: g.loc[new_rows, id_col].to_numpy(),
            "is_neardup": has_snap.to_numpy()[new_rows],
        })

    marked = grouped_apply_bucketed(both, ["band", "bkey"], mark_bucket)
    reduced = _bucketed_any_mark(marked, id_col)

    def rename(df: pd.DataFrame) -> pd.DataFrame:
        return df.rename(columns={"max(is_neardup)": "is_known"})

    return reduced.map_batches(rename, batch_format="pandas")
