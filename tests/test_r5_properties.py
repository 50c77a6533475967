"""Property-based tests (hypothesis) over the pure-python core kernels —
invariants that hold for ALL inputs, not just the fixtures: KLL rank-error
and merge determinism, theta-sketch exactness under k and partitioning
invariance, polynomial string-hash determinism/injectivity-in-practice,
greedy WordPiece reconstruction, and the mostly_success ratio boundary."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

# Ray-free targets only — property sweeps run hundreds of examples and must
# not pay a Dataset round-trip per example.


@settings(max_examples=60, deadline=None)
@given(
    vals=st.lists(
        st.floats(min_value=-1e12, max_value=1e12,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=2000),
    q=st.floats(min_value=0.0, max_value=1.0),
)
def test_kll_rank_error_bound(vals, q):
    from great_expectations_ray.functions.kll import KLLSketch

    sk = KLLSketch(k=200, seed=7)
    sk.update_many(np.asarray(vals))
    est = sk.quantiles([q], interpolation="lower")[0]
    arr = np.sort(np.asarray(vals))
    # rank of the estimate must be within ~3/k * n of the target rank
    target = int(np.floor(q * (len(arr) - 1)))
    lo = np.searchsorted(arr, est, side="left")
    hi = np.searchsorted(arr, est, side="right") - 1
    tol = max(3, int(0.1 * len(arr)))  # k=200 -> far tighter in practice
    assert lo - tol <= target <= hi + tol


@settings(max_examples=40, deadline=None)
@given(
    vals=st.lists(
        st.floats(min_value=-1e9, max_value=1e9,
                  allow_nan=False, allow_infinity=False),
        min_size=2, max_size=600),
    cut=st.integers(min_value=1, max_value=599),
)
def test_kll_merge_deterministic_for_fixed_split(vals, cut):
    from great_expectations_ray.functions.kll import KLLSketch

    cut = min(cut, len(vals) - 1)

    def build():
        a = KLLSketch(k=32, seed=1)
        a.update_many(np.asarray(vals[:cut]))
        b = KLLSketch(k=32, seed=2)
        b.update_many(np.asarray(vals[cut:]))
        a.merge(b)
        return a.quantiles([0.0, 0.25, 0.5, 0.75, 1.0])

    assert build() == build()  # same split + same seeds -> bit-identical


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1),
                min_size=0, max_size=3000),
       st.integers(min_value=1, max_value=2999))
def test_theta_sketch_partitioning_invariant_and_exact_under_k(ints, cut):
    from great_expectations_ray.functions.sketches import ThetaSketch, _splitmix64

    h = _splitmix64(np.asarray(ints, dtype=np.uint64)) if ints else \
        np.empty(0, dtype=np.uint64)
    one = ThetaSketch(k=256)
    one.update_hashes(h)

    cut = min(cut, len(h))
    a = ThetaSketch(k=256)
    a.update_hashes(h[:cut])
    b = ThetaSketch(k=256)
    b.update_hashes(h[cut:])
    a.merge(b)
    # merge of split partials is BIT-identical to the single-pass build
    assert a.theta == one.theta
    assert np.array_equal(a.hashes, one.hashes)

    n_distinct = len(np.unique(h))
    if n_distinct <= 256:
        assert one.estimate() == float(n_distinct)  # exact under k


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(min_size=0, max_size=40), min_size=1, max_size=300))
def test_poly_hash_strings_deterministic_and_discriminating(strs):
    import pyarrow as pa

    from great_expectations_ray.functions.bucketed import poly_hash_strings

    arr = pa.array(strs, pa.large_string())
    h1 = poly_hash_strings(arr)
    h2 = poly_hash_strings(pa.array(strs, pa.large_string()))
    assert np.array_equal(h1, h2)
    # equal strings always hash equal; distinct strings collide at ~2^-64,
    # so ANY observed collision among a few hundred inputs is a bug
    uniq_strings = len(set(strs))
    uniq_hashes = len(set(h1.tolist()))
    assert uniq_hashes == uniq_strings


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(min_size=0, max_size=40), min_size=1, max_size=300),
       st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=300))
def test_poly_hashes_match_the_python_formula_on_any_chunking(strs, cut1, cut2):
    """``poly_hash_strings`` (bucket placement) and ``_poly_sums`` (SimHash
    token hashes) equal the pure-Python Σ byte_j·B^j sum and avalanche bit
    for bit, over one array and over the same rows in 3 chunks."""
    import pyarrow as pa

    from great_expectations_ray.functions.bucketed import (
        _MIX1,
        _MIX2,
        _POLY_B,
        _poly_sums,
        poly_hash_strings,
    )

    m = 1 << 64
    b, mix1, mix2 = int(_POLY_B), int(_MIX1), int(_MIX2)

    def sum_ref(s):
        return sum(x * pow(b, j, m) for j, x in enumerate(s.encode())) % m

    def hash_ref(s):
        h = sum_ref(s) ^ (len(s.encode()) * mix1 % m)
        h = (h * mix1 % m) ^ (h >> 29)
        return h * mix2 % m

    lo, hi = sorted((min(cut1, len(strs)), min(cut2, len(strs))))
    one = pa.array(strs, pa.large_string())
    three = pa.chunked_array([pa.array(strs[:lo], pa.string()), pa.array(strs[lo:hi], pa.string()),
                              pa.array(strs[hi:], pa.string())])
    for col in (one, three):
        assert poly_hash_strings(col).tolist() == [hash_ref(s) for s in strs]
        assert _poly_sums(col)[0].tolist() == [sum_ref(s) for s in strs]


@settings(max_examples=80, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122),
               min_size=1, max_size=12),
       st.sets(st.text(alphabet=st.characters(min_codepoint=97,
                                              max_codepoint=122),
                       min_size=1, max_size=4), max_size=30))
def test_encode_word_reconstructs_or_unks(word, pieces):
    from great_expectations_ray.stages.wordpiece import UNK, encode_word

    # vocab: the given pieces as word-starts plus their ## continuations,
    # so coverage varies per example
    vocab = set(pieces) | {"##" + p for p in pieces}
    out = encode_word(word, vocab)
    assert out  # never empty
    if out == [UNK]:
        return
    # non-UNK encodings must reconstruct the word exactly, first piece
    # bare and every later piece ##-prefixed
    assert not out[0].startswith("##")
    assert all(p.startswith("##") for p in out[1:])
    rebuilt = out[0] + "".join(p[2:] for p in out[1:])
    assert rebuilt == word


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=10_000),
       st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=0.0, max_value=1.0))
def test_mostly_success_matches_exact_ratio(n, bad, mostly):
    from great_expectations_ray.core.results import mostly_success

    bad = min(bad, n)
    got = mostly_success(n, bad, mostly)
    assert got == ((float(n) - float(bad)) / float(n) >= mostly)
    # boundary: the exact achieved ratio always passes as its own bar
    assert mostly_success(n, bad, (float(n) - float(bad)) / float(n))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=-1e6, max_value=1e6),
                min_size=0, max_size=500),
       st.integers(min_value=2, max_value=7))
def test_numeric_agg_state_split_merge_equals_whole(ints, parts):
    import pyarrow as pa

    from great_expectations_ray.functions.aggregates import NumericAggState

    whole = NumericAggState()
    whole.update(pa.chunked_array([pa.array(ints, pa.int64())]))

    merged = NumericAggState()
    step = max(1, len(ints) // parts)
    for i in range(0, max(len(ints), 1), step):
        s = NumericAggState()
        s.update(pa.chunked_array([pa.array(ints[i:i + step], pa.int64())]))
        merged.merge(s)

    assert merged.n == whole.n and merged.total == whole.total
    assert merged.min == whole.min and merged.max == whole.max
    if whole.n:
        assert np.isclose(merged.mean, whole.mean, rtol=1e-12, atol=1e-9)
        assert np.isclose(merged.sum, whole.sum, rtol=1e-12, atol=1e-9)
    if whole.n > 1:
        a = merged.metric("column.standard_deviation")
        b = whole.metric("column.standard_deviation")
        assert np.isclose(a, b, rtol=1e-9, atol=1e-9)


@settings(max_examples=80, deadline=None)
@given(st.lists(
    # candidate-heavy alphabet (few separators) so ≥20-char runs — and runs
    # CROSSING row boundaries — occur in most examples
    st.text(alphabet="Ab3+/=_- ", min_size=0, max_size=80),
    min_size=1, max_size=40))
def test_secret_stats_buffer_scan_equals_per_row_scan(rows):
    """The one-sweep buffer scan (runs crossing row boundaries split at the
    offsets) must agree with a naive independent per-row regex scan for
    ANY row contents — the boundary-splitting math is the risky part."""
    import re

    import pyarrow as pa

    from great_expectations_ray.stages.secrets_entropy import (
        secret_stats_table,
    )

    pat = re.compile(r"[A-Za-z0-9+/=_-]{20,}")
    out = secret_stats_table(pa.array(rows, pa.large_string()))
    got = out["n_secret_candidates"].to_pylist()
    want = [len(pat.findall(r)) for r in rows]
    assert got == want, (rows, got, want)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="abcdé ", min_size=0, max_size=30),
                min_size=1, max_size=20),
       st.integers(min_value=2, max_value=6),
       st.integers(min_value=1, max_value=5))
def test_winnow_fingerprints_match_naive_loop(rows, k, w):
    """The vectorized winnowing (one shingle pass + w shifted gathers over
    the concatenated byte stream) must equal a per-row python loop for any
    rows/k/w — byte-level shingles, multibyte chars included."""
    import pyarrow as pa

    from great_expectations_ray.stages.fingerprint import (
        winnow_fingerprints_batch,
    )

    B = 1099511628211

    def naive(row: str):
        bs = row.encode("utf-8")
        m = len(bs) - k + 1
        hs = []
        for i in range(max(m, 0)):
            h = 0
            for j in range(k):
                h = ((h * B) + bs[i + j]) % (1 << 64)
            hs.append(h)
        wins = [min(hs[i:i + w]) for i in range(len(hs) - w + 1)]
        return sorted(set(wins))

    got, counts = winnow_fingerprints_batch(
        pa.array(rows, pa.large_string()), k=k, w=w)
    for i, row in enumerate(rows):
        assert got[i].tolist() == naive(row), (row, k, w)
        assert counts[i] == max(len(row.encode("utf-8")) - k + 1, 0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="ab cé\t", min_size=0, max_size=60),
                min_size=1, max_size=15),
       st.integers(min_value=0, max_value=100))
def test_simhash64_matches_naive_loop(rows, seed):
    """The vectorized SimHash (flattened-buffer token hashing + unpackbits
    majority vote) must equal a per-row per-token python loop — empty
    tokens from edge whitespace included, multibyte chars included."""
    import re

    import pyarrow as pa

    from great_expectations_ray.stages.neardup import simhash64

    B = 1099511628211
    M64 = (1 << 64) - 1

    def naive(row: str) -> int:
        toks = re.split(r"\s+", row)  # Arrow split keeps edge empties too
        if not toks:
            return 0
        mix = (0x9E3779B97F4A7C15 + seed) & M64
        votes = [0] * 64
        for t in toks:
            h = 0
            for j, byte in enumerate(t.encode("utf-8")):
                h = (h + byte * pow(B, j, 1 << 64)) & M64
            h = ((h * mix) & M64) ^ (h >> 13)
            h = (h * 0xC2B2AE3D27D4EB4F) & M64
            for b in range(64):
                votes[b] += (h >> b) & 1
        out = 0
        for b in range(64):
            if 2 * votes[b] > len(toks):
                out |= 1 << b
        return out

    got = simhash64(pa.array(rows, pa.string()), seed=seed)
    for i, row in enumerate(rows):
        assert int(got[i]) == naive(row), (row, seed)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(alphabet="abcdé ", min_size=0, max_size=40),
                min_size=1, max_size=10),
       st.integers(min_value=2, max_value=6))
def test_minhash_signatures_match_naive_loop(rows, k):
    """Vectorized MinHash (reduceat per-row minima over the flattened
    shingle stream) == a naive per-row per-shingle python loop; shingle-free
    rows get the all-max never-collide signature."""
    import pyarrow as pa

    from great_expectations_ray.stages.neardup import minhash_signatures

    NUM_PERM, SEED = 8, 17
    B = 1099511628211
    M64 = (1 << 64) - 1
    rng = np.random.default_rng(SEED)
    MERSENNE = (1 << 61) - 1
    a = (rng.integers(1, MERSENNE, size=NUM_PERM, dtype=np.uint64)
         | np.uint64(1))
    b = rng.integers(0, MERSENNE, size=NUM_PERM, dtype=np.uint64)

    got = minhash_signatures(pa.array(rows, pa.large_string()),
                             num_perm=NUM_PERM, shingle_k=k, seed=SEED)
    for i, row in enumerate(rows):
        bs = row.encode("utf-8")
        shingles = []
        for s in range(max(len(bs) - k + 1, 0)):
            h = 0
            for j in range(k):
                h = ((h * B) + bs[s + j]) & M64
            shingles.append(h)
        if not shingles:
            assert (got[i] == np.iinfo(np.uint64).max).all(), row
            continue
        for p in range(NUM_PERM):
            want = min(((h * int(a[p]) + int(b[p])) & M64) for h in shingles)
            assert int(got[i, p]) == want, (row, k, p)


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="0123456789", min_size=12, max_size=18))
def test_luhn_accepts_computed_check_digit_rejects_others(prefix):
    """For any digit prefix, exactly ONE of the ten possible check digits
    makes a Luhn-valid number — luhn_valid must accept it and reject the
    other nine (lengths 13-19 only)."""
    from great_expectations_ray.stages.luhn import luhn_valid

    # standard check-digit computation over prefix + d
    def check_digit(p: str) -> int:
        total = 0
        for i, ch in enumerate(reversed(p)):
            d = int(ch)
            if i % 2 == 0:  # rightmost prefix digit doubles (payload pos 2)
                d *= 2
                if d > 9:
                    d -= 9
            total += d
        return (10 - total % 10) % 10

    cd = check_digit(prefix)
    accepted = [d for d in range(10) if luhn_valid(prefix + str(d))]
    assert accepted == [cd], (prefix, accepted, cd)


@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.text(alphabet="ab é \t", min_size=0, max_size=60),
    min_size=1, max_size=12))
def test_word_repetition_stats_match_naive_loop(rows):
    """The lexsort/reduceat repetition signals (Gopher top-n / dup-n char
    fractions) must equal a naive Counter-based per-row loop over REAL
    gram tuples — hash-free oracle, multibyte + repeated-separator rows."""
    import re
    from collections import Counter

    import pyarrow as pa

    from great_expectations_ray.stages.repetition import (
        _round6,
        word_repetition_stats,
    )

    got = word_repetition_stats(pa.array(rows, pa.string()),
                                top_ns=(2, 3), dup_ns=(2, 3))

    for i, row in enumerate(rows):
        toks = [t for t in re.split(r"\s+", row) if t]
        total = max(len(row), 1)
        assert got["n_words"][i] == len(toks), row
        mw = (sum(len(t) for t in toks) / len(toks)) if toks else 0.0
        assert got["mean_word_len"][i] == _round6(np.array([mw]))[0], row
        for n in (2, 3):
            grams = [tuple(toks[j:j + n]) for j in range(len(toks) - n + 1)]
            cnt = Counter(grams)
            if cnt:
                # winner: count DESC then char-length DESC
                def length(g):
                    return sum(len(t) for t in g) + (n - 1)
                best = max(cnt, key=lambda g: (cnt[g], length(g)))
                top = cnt[best] * length(best) / total
                dup = sum(c * length(g) for g, c in cnt.items()
                          if c >= 2) / total
            else:
                top = dup = 0.0
            assert got[f"top{n}_char_frac"][i] == _round6(
                np.array([top]))[0], (row, n)
            assert got[f"dup{n}_char_frac"][i] == _round6(
                np.array([dup]))[0], (row, n)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.text(alphabet="ab c-D_2 ", min_size=0, max_size=60),
                min_size=1, max_size=10),
       st.sets(st.sampled_from(["a", "b", "c", "ab", "a b", "b c",
                                "a b c", "d_2", "c d_2"]),
               min_size=1, max_size=6))
def test_dictmatch_counts_match_naive_scan(rows, phrases):
    """Vectorized token-level phrase matching (dictionary-encode + distinct
    n-gram verify + scatter) == a naive per-row sliding-window count, for
    random docs × random phrase dictionaries (normalization contract:
    lowercase, [^a-z0-9_]+ splits)."""
    import re

    from great_expectations_ray.stages.dictmatch import (
        PhraseDict,
        match_counts,
    )
    import pyarrow as pa

    pdict = PhraseDict(tuple(phrases))
    got = match_counts(pa.array(rows, pa.string()), pdict)

    split = re.compile("[^a-z0-9_]+")
    norm_phrases = set()
    for p in phrases:
        toks = [t for t in split.split(p.lower()) if t]
        norm_phrases.add(tuple(toks))
    for i, row in enumerate(rows):
        toks = [t for t in split.split(row.lower()) if t]
        want = 0
        for n in {len(p) for p in norm_phrases}:
            for j in range(len(toks) - n + 1):
                if tuple(toks[j:j + n]) in norm_phrases:
                    want += 1
        assert int(got[i]) == want, (row, sorted(phrases))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="abcdé", min_size=0, max_size=50),
                min_size=1, max_size=8),
       st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=11))
def test_chunk_table_matches_naive_slicing(rows, chunk_size, overlap):
    """The ASCII buffer-gather fast path and the python fallback must both
    equal naive string slicing (chars, not bytes) for any docs × size ×
    overlap — including the mixed-batch split/recombine path."""
    import pyarrow as pa

    from great_expectations_ray.stages.chunking import chunk_table

    overlap = min(overlap, chunk_size - 1)
    step = chunk_size - overlap
    out = chunk_table(pa.array(rows, pa.string()),
                      pa.array(range(len(rows)), pa.int64()),
                      chunk_size=chunk_size, overlap=overlap).to_pandas()
    want = []
    for did, t in enumerate(rows):
        for i, p in enumerate(range(0, len(t), step)):
            want.append((did, i, p, t[p:p + chunk_size]))
    got = sorted(zip(out["doc_id"], out["chunk_idx"], out["start"],
                     out["chunk"]))
    assert got == sorted(want), (rows, chunk_size, overlap)


@settings(max_examples=80, deadline=None)
@given(st.text(alphabet="abé€ßñ— ", min_size=1, max_size=30))
def test_mojibake_repair_roundtrip(clean):
    """For any text whose UTF-8 bytes all map through cp1252 glyphs, the
    mis-decoded (UTF-8 → shown as cp1252) form must repair EXACTLY back to
    the original, and already-clean text must pass through untouched."""
    import pyarrow as pa

    from great_expectations_ray.stages.normalize import fix_mojibake_array

    # the classic corruption: UTF-8 bytes displayed through cp1252
    try:
        garbled = clean.encode("utf-8").decode("cp1252")
    except UnicodeDecodeError:
        garbled = None  # some byte sequences aren't cp1252-displayable

    rows, want = [clean], [clean]
    if garbled is not None and garbled != clean:
        rows.append(garbled)
        want.append(clean)
    got = fix_mojibake_array(pa.array(rows, pa.string())).to_pylist()
    assert got == want, (clean, garbled, got)


def test_mojibake_anchor_guard_keeps_plausible_text():
    """Regression for the hypothesis-found false positive: 'ß—' (real
    German-ish text) has cp1252 bytes DF 97 that decode as valid UTF-8 —
    without the anchor guard it was "repaired" into an NKO codepoint."""
    import pyarrow as pa

    from great_expectations_ray.stages.normalize import fix_mojibake_array

    vals = ["ß—", "groß—und klein", "Ä–", "naïve résumé"]
    assert fix_mojibake_array(pa.array(vals)).to_pylist() == vals


@settings(max_examples=80, deadline=None)
@given(st.lists(
    # alphabet includes the combining acute U+0301 so NFC composition runs
    st.text(alphabet="ab C\t\n\x07\x1f\x7f“”‘’–—…é́",
            min_size=0, max_size=40),
    min_size=1, max_size=8))
def test_normalize_array_matches_naive_pipeline(rows):
    """normalize_array's Arrow kernel chain == a naive python re-implementation
    of the documented steps (strip control, NFC via unicodedata, straighten
    typographic quotes/dashes/ellipsis, collapse+trim whitespace) — incl.
    combining characters (NFC composition) and C0/C1 controls."""
    import re
    import unicodedata

    import pyarrow as pa

    from great_expectations_ray.stages.normalize import (
        NormalizeConfig,
        normalize_array,
    )

    got = normalize_array(pa.array(rows, pa.string()),
                          NormalizeConfig()).to_pylist()

    def naive(s: str) -> str:
        s = re.sub(r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f]", "", s)
        s = unicodedata.normalize("NFC", s)
        s = re.sub("[“”„]", '"', s)
        s = re.sub("[‘’‚]", "'", s)
        s = re.sub("[–—]", "-", s)
        s = s.replace("…", "...")
        s = re.sub(r"\s+", " ", s)
        return s.strip()

    assert got == [naive(r) for r in rows], rows


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["norm", "expon", "uniform", "lognorm", "chi2",
                        "gamma"]),
       st.floats(min_value=-5, max_value=5),
       st.floats(min_value=0.1, max_value=10),
       st.floats(min_value=0.5, max_value=8))
def test_make_cdf_is_a_cdf_and_matches_quadrature(dist, loc, scale, shape):
    """Every supported CDF must be monotone, bounded in [0,1], hit its
    limits, and agree with numerical quadrature of the analytic density —
    an oracle independent of the incomplete-gamma/erf implementations."""
    import math

    from great_expectations_ray.functions.ks import make_cdf

    params = {"loc": loc, "scale": scale}
    if dist == "lognorm":
        params["s"] = shape
    if dist == "chi2":
        params["df"] = shape * 2  # a = df/2 = shape
    if dist == "gamma":
        params["a"] = shape
    cdf = make_cdf(dist, params)

    xs = loc + scale * np.linspace(-6, 12, 400)
    vals = np.asarray(cdf(xs), dtype=np.float64)
    assert ((vals >= -1e-12) & (vals <= 1 + 1e-12)).all()
    assert (np.diff(vals) >= -1e-12).all()  # monotone
    assert cdf(np.array([loc - 1e6 * scale]))[0] <= 1e-9
    far = loc + scale * (math.exp(8 * shape) if dist == "lognorm" else 1e7)
    assert cdf(np.array([far]))[0] >= 1 - 1e-6

    # quadrature check on one interior point per example
    def pdf(z):  # standardized density at z = (x - loc)/scale, times 1/scale
        if dist == "norm":
            return np.exp(-z * z / 2) / math.sqrt(2 * math.pi)
        if dist == "expon":
            return np.where(z >= 0, np.exp(-np.clip(z, 0, 700)), 0.0)
        if dist == "uniform":
            return np.where((z >= 0) & (z <= 1), 1.0, 0.0)
        if dist == "lognorm":
            out = np.zeros_like(z)
            p = z > 0
            out[p] = np.exp(-np.log(z[p]) ** 2 / (2 * shape * shape)) / (
                z[p] * shape * math.sqrt(2 * math.pi))
            return out
        a = shape  # chi2 (a=df/2, z in units of 2*scale) and gamma share form
        out = np.zeros_like(z)
        p = z > 0
        out[p] = z[p] ** (a - 1) * np.exp(-z[p]) / math.gamma(a)
        return out

    zt = 1.7  # interior standardized point
    if dist == "lognorm":
        # u = ln z substitution: the density can spike arbitrarily high
        # near 0 for large s; in log space it is a plain Gaussian
        u = np.linspace(-8 * shape, math.log(zt), 200_001)
        integrand = np.exp(-u * u / (2 * shape * shape)) / (
            shape * math.sqrt(2 * math.pi))
        quad = np.trapz(integrand, u)
    elif dist in ("chi2", "gamma"):
        # u = sqrt(z) substitution removes the z**(a-1) integrable
        # singularity at 0 (a < 1), where plain trapezoid under-integrates
        u = np.linspace(0, math.sqrt(zt), 200_001)
        integrand = 2 * u ** (2 * shape - 1) * np.exp(-u * u) / math.gamma(
            shape)
        quad = np.trapz(integrand, u)
    else:
        grid = np.linspace(-8 if dist == "norm" else 0, zt, 200_001)
        quad = np.trapz(pdf(grid), grid)
    unit = (2 * scale if dist == "chi2" else scale)
    got = float(cdf(np.array([loc + zt * unit]))[0])
    assert abs(got - quad) < 5e-4, (dist, params, got, quad)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=10), min_size=1,
                max_size=8),
       st.floats(min_value=-3, max_value=3),
       st.floats(min_value=0.05, max_value=4))
def test_piecewise_cdf_matches_naive_interpolation(weights, b0, width):
    from great_expectations_ray.functions.ks import (
        piecewise_cdf_from_partition,
    )

    bins = [b0 + i * width for i in range(len(weights) + 1)]
    po = {"bins": bins, "weights": weights}
    cdf = piecewise_cdf_from_partition(po)
    total = sum(weights)
    cum = [0.0]
    for w in weights:
        cum.append(cum[-1] + w / total)

    def naive(x):
        if x <= bins[0]:
            return 0.0
        if x >= bins[-1]:
            return 1.0
        for i in range(len(weights)):
            if bins[i] <= x < bins[i + 1]:
                frac = (x - bins[i]) / (bins[i + 1] - bins[i])
                return cum[i] + frac * (cum[i + 1] - cum[i])
        return 1.0

    xs = np.linspace(bins[0] - width, bins[-1] + width, 97)
    got = cdf(xs)
    for x, g in zip(xs, got):
        assert abs(g - naive(float(x))) < 1e-12, (x, g, naive(float(x)))


@settings(max_examples=80, deadline=None)
@given(st.lists(
    st.text(alphabet="aB3 .\né✓", min_size=0, max_size=60),
    min_size=1, max_size=15))
def test_text_stats_match_naive_loop(rows):
    """TextStats' packed-LUT / reduceat kernels == naive per-row python:
    n_chars (unicode chars), n_lines (= newlines+1), max_line_len (chars,
    lines split at \\n), ascii-alnum and whitespace ratios over chars."""
    import pyarrow as pa

    from great_expectations_ray.stages.text_stats import TextStats

    out = TextStats("content")(pa.table({"content": pa.array(rows)}))
    for i, row in enumerate(rows):
        n_chars = len(row)
        n_lines = row.count("\n") + 1
        max_line = max((len(l) for l in row.split("\n")), default=0)
        alnum = sum(1 for c in row if c.isascii() and c.isalnum())
        ws = sum(1 for c in row if c in " \t\n\r\f\v")
        denom = max(n_chars, 1)
        assert out.column("n_chars")[i].as_py() == n_chars, row
        assert out.column("n_lines")[i].as_py() == n_lines, row
        assert out.column("max_line_len")[i].as_py() == max_line, repr(row)
        assert abs(out.column("alnum_ratio")[i].as_py() - alnum / denom) \
            < 1e-12, row
        assert abs(out.column("ws_ratio")[i].as_py() - ws / denom) \
            < 1e-12, row


@settings(max_examples=80, deadline=None)
@given(st.lists(st.text(
    alphabet="htps:/w.exampleABC?&=utm_source#frag123",
    min_size=0, max_size=60), min_size=1, max_size=12))
def test_url_canonicalization_matches_naive_regex_chain(urls):
    """canonicalize_url_array / extract_domain_array == a python re chain
    implementing the documented contract step-for-step (strip fragment,
    lowercase scheme://authority, drop utm_* params, tidy '?', domain minus
    leading www.) — arbitrary messy crawl strings included."""
    import re

    import pyarrow as pa

    from great_expectations_ray.stages.urlops import (
        canonicalize_url_array,
        extract_domain_array,
    )

    got_canon = canonicalize_url_array(pa.array(urls)).to_pylist()
    got_dom = extract_domain_array(pa.array(got_canon)).to_pylist()

    def canon(u: str) -> str:
        u = re.sub(r"#.*$", "", u)
        m = re.match(r"^(https?://[^/?#]*)", u)
        if m:
            u = m.group(1).lower() + u[m.end():]
        u = re.sub(r"utm_[a-z]+=[^&]*&", "", u)
        u = re.sub(r"[?&]utm_[a-z]+=[^&]*$", "", u)
        return re.sub(r"\?$", "", u)

    def dom(u: str) -> str:
        m = re.match(r"^https?://(?:www\.)?([^/:?#]+)", u)
        return m.group(1) if m else ""

    assert got_canon == [canon(u) for u in urls], urls
    assert got_dom == [dom(c) for c in got_canon], urls


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.one_of(st.none(),
                       st.integers(min_value=-5, max_value=5)),
             min_size=1, max_size=40),
    st.lists(st.one_of(st.none(), st.sampled_from(["x", "y", "z"])),
             min_size=1, max_size=40),
    st.lists(st.tuples(
        st.sampled_from(["num", "cat"]),
        st.sampled_from([">", ">=", "<", "<=", "==", "!=",
                         "isnull", "notnull"]),
        st.integers(min_value=-4, max_value=4),
        st.sampled_from(["x", "y", "w"])),
        min_size=1, max_size=4),
    st.lists(st.sampled_from(["and", "or"]), min_size=3, max_size=3))
def test_row_condition_dsl_matches_naive_eval(nums, cats, spec, conns):
    """compile_row_condition (Arrow masks, null→False, left-to-right
    and/or) == a naive per-row python evaluator, and row_condition_to_sql
    agrees through DuckDB — three implementations, one semantics."""
    import duckdb
    import pandas as pd
    import pyarrow as pa

    from great_expectations_ray.core.row_conditions import (
        compile_row_condition,
        row_condition_to_sql,
    )

    n = min(len(nums), len(cats))
    df = pd.DataFrame({"num": pd.array(nums[:n], dtype="Int64"),
                       "cat": pd.array(cats[:n], dtype="string")})

    parts = []
    for col, op, ilit, slit in spec:
        if op in ("isnull", "notnull"):
            parts.append(f'col("{col}").{op}()')
        elif col == "num":
            parts.append(f'col("num") {op} {ilit}')
        else:
            if op not in ("==", "!="):
                op = "=="  # strings: equality ops only (portable semantics)
            parts.append(f'col("cat") {op} "{slit}"')
    cond = parts[0]
    for c, p in zip(conns, parts[1:]):
        cond += f" {c} {p}"

    tbl = pa.Table.from_pandas(df, preserve_index=False)
    got = compile_row_condition(cond)(tbl)

    def term(row, col, op, ilit, slit):
        v = row[col]
        if op == "isnull":
            return pd.isna(v)
        if op == "notnull":
            return not pd.isna(v)
        if pd.isna(v):
            return False  # null comparisons are False (fill_null contract)
        if col == "num":
            return {"<": v < ilit, "<=": v <= ilit, ">": v > ilit,
                    ">=": v >= ilit, "==": v == ilit, "!=": v != ilit}[op]
        return (v == slit) if op == "==" else (v != slit)

    want = []
    for _, row in df.iterrows():
        acc = None
        for i, (col, op, ilit, slit) in enumerate(spec):
            if col == "cat" and op not in ("==", "!=", "isnull", "notnull"):
                op = "=="
            t = term(row, col, op, ilit, slit)
            if acc is None:
                acc = t
            elif conns[i - 1] == "and":
                acc = acc and t
            else:
                acc = acc or t
        want.append(bool(acc))
    assert got.tolist() == want, cond

    # SQL mirror through DuckDB (WHERE drops null-predicate rows = False)
    con = duckdb.connect()
    con.register("t", df.assign(__rid=range(n)))
    sql = row_condition_to_sql(cond)
    kept = set(con.execute(
        f"SELECT __rid FROM t WHERE {sql}").fetchdf()["__rid"])
    assert kept == {i for i, w in enumerate(want) if w}, (cond, sql)


@settings(max_examples=80, deadline=None)
@given(st.lists(
    st.text(alphabet="a #/-*\n\té", min_size=0, max_size=80),
    min_size=1, max_size=12))
def test_code_metrics_match_naive_loop(rows):
    """code_metrics_table's flattened-line kernels == a naive per-row
    python loop (line split, comment-prefix regex, ws/char counts,
    autogen marker, minified shape)."""
    import re

    import pyarrow as pa

    from great_expectations_ray.stages.code_metrics import (
        AUTOGEN_RE,
        COMMENT_LINE_RE,
        MINIFIED_MAX_LINE,
        MINIFIED_WS_FRAC,
        code_metrics_table,
    )

    got = code_metrics_table(pa.array(rows))
    comment = re.compile(COMMENT_LINE_RE)
    autogen = re.compile(AUTOGEN_RE)
    for i, row in enumerate(rows):
        lines = row.split("\n")
        n_chars = len(row)
        ws = sum(1 for c in row if c in " \t\n\r\f\v")
        cl = sum(1 for l in lines if comment.search(l))
        mll = max((len(l) for l in lines), default=0)
        assert got["n_lines"][i].as_py() == len(lines), repr(row)
        assert got["max_line_len"][i].as_py() == mll, repr(row)
        assert got["comment_lines"][i].as_py() == cl, repr(row)
        assert abs(got["comment_frac"][i].as_py() - cl / len(lines)) < 1e-12
        want_ws = (ws / n_chars) if n_chars else 0.0
        assert abs(got["ws_frac"][i].as_py() - want_ws) < 1e-12, repr(row)
        assert got["autogen"][i].as_py() == bool(autogen.search(row))
        assert got["minified"][i].as_py() == (
            mll >= MINIFIED_MAX_LINE and want_ws < MINIFIED_WS_FRAC
            and n_chars > 0)


@settings(max_examples=80, deadline=None)
@given(st.lists(
    st.text(alphabet="word .!?\n\t{j cookie", min_size=0, max_size=120),
    min_size=1, max_size=10))
def test_c4_clean_batch_matches_naive_loop(rows):
    """C4 line/doc filters (split → trim → word count → punct/boilerplate →
    rejoin → doc gates) == a naive per-row python pipeline, incl. the
    trimmed-line contract and the bincount/offsets rebuild."""
    import re

    import pyarrow as pa

    from great_expectations_ray.stages.c4_filters import C4Config, clean_batch

    cfg = C4Config(min_words_per_line=2, min_lines=1)
    tbl = pa.table({"doc_id": pa.array(range(len(rows)), pa.int64()),
                    "text": pa.array(rows)})
    out = clean_batch(tbl, config=cfg)

    boiler = re.compile(cfg.boilerplate_regex)
    punct = re.compile(cfg.terminal_punct_regex)
    # python re requires inline flags scoped: RE2's mid-pattern (?i) becomes (?i:)
    ban = re.compile(cfg.ban_regex.replace("(?i)", "(?i:") + ")"
                     if "(?i)" in cfg.ban_regex and
                     not cfg.ban_regex.startswith("(?i)")
                     else cfg.ban_regex)
    for i, row in enumerate(rows):
        kept = []
        for line in row.split("\n"):
            t = line.strip()
            if len(re.findall(r"\S+", t)) < cfg.min_words_per_line:
                continue
            if not punct.search(t):
                continue
            if boiler.search(t):
                continue
            kept.append(t)
        keep_doc = len(kept) >= cfg.min_lines and not ban.search(row)
        assert out.column("n_lines_kept")[i].as_py() == len(kept), repr(row)
        assert out.column("clean_text")[i].as_py() == "\n".join(kept), \
            repr(row)
        assert out.column("keep")[i].as_py() == keep_doc, repr(row)


# --------------------------------------------------------------------------- #
# per-value Python kernels: once per distinct value (_per_distinct) must equal
# the per-row loop each kernel used to run
# --------------------------------------------------------------------------- #

_DATE_EDGES = [
    "2020-01-01", "1999-12-31", "2024-02-29", "2099-07-04",
    # Arrow's strptime rolls these into the next month; dateutil rejects them
    "2020-04-31", "1996-02-30", "1900-02-29", "2023-02-29",
    "0000-01-01", "0001-01-01", "9999-12-31", " 2020-01-01", "2020-1-1",
    "20200101", "2020-01-01T12:30:00", "2020-01-01 08:00:00+02:00",
    "2020-13-01", "2020-01-00", "12020-01-01",
]
_JSON_FRAGMENTS = [
    '{"a": 1}', "[1, 2]", '"s"', "null", "{", '{"a":}', "[]", "{}", " 7 ",
    "NaN", "1e5", "-2.5E-3", "+.5", "0x1F",
]
_CELL = st.one_of(
    st.none(),
    st.sampled_from(_DATE_EDGES + _JSON_FRAGMENTS),
    st.text(max_size=12),
    st.text(alphabet="0123456789-:T .e", max_size=12),
)
_LAYOUTS = ["string", "large_string", "dictionary", "chunked", "sliced"]


def _string_column(vals, layout):
    import pyarrow as pa

    if layout == "large_string":
        return pa.array(vals, pa.large_string())
    if layout == "dictionary":
        return pa.array(vals, pa.string()).dictionary_encode()
    if layout == "chunked":
        k = len(vals) // 2
        return pa.chunked_array(
            [pa.array(vals[:k], pa.string()), pa.array(vals[k:], pa.string())])
    if layout == "sliced":
        return pa.array(["pad"] + vals + ["pad"], pa.string()).slice(1, len(vals))
    return pa.array(vals, pa.string())


def _row_oracles():
    """Per-value predicates exactly as each kernel's per-row loop ran them."""
    import datetime
    import json
    import re

    import jsonschema
    from dateutil import parser as _p

    from great_expectations_ray.functions.contrib import SCIENTIFIC_NOTATION_REGEX

    def dateutil_ok(v):
        try:
            _p.parse(v)
            return True
        except (ValueError, OverflowError, TypeError):
            return False

    def json_ok(v):
        try:
            json.loads(v)
            return True
        except (ValueError, TypeError):
            return False

    schema = {"type": "array", "items": {"type": "integer"}}
    validator = jsonschema.validators.validator_for(schema)(schema)

    def schema_ok(v):
        try:
            obj = json.loads(v)
        except (ValueError, TypeError):
            return False
        return not any(True for _ in validator.iter_errors(obj))

    sci = re.compile(SCIENTIFIC_NOTATION_REGEX)
    today = datetime.date.today()

    def not_future(v):
        try:
            return _p.parse(v).date() <= today
        except Exception:
            return False

    rule = {"ranges": {"a": [0, 2], "b": [2, 4]}, "expr": "a <= b"}
    return [
        ("expect_column_values_to_be_dateutil_parseable", {}, dateutil_ok),
        ("expect_column_values_to_be_json_parseable", {}, json_ok),
        ("expect_column_values_to_match_json_schema",
         {"json_schema": schema}, schema_ok),
        ("expect_column_values_to_be_valid_scientific_notation", {},
         lambda v: sci.search(v) is not None),
        ("expect_column_values_to_not_be_future_date", {}, not_future),
        ("expect_column_values_to_follow_rule", {"rule": rule},
         lambda v: bool(v[0:2] <= v[2:4])),
    ]


@settings(max_examples=60, deadline=None)
@given(vals=st.lists(_CELL, max_size=60), reps=st.integers(1, 4),
       layout=st.sampled_from(_LAYOUTS))
def test_per_distinct_kernels_match_per_row_loop(vals, reps, layout):
    import pyarrow as pa

    from great_expectations_ray.functions.column_map import CONDITION_KERNELS

    vals = vals * reps  # heavy duplicates
    tbl = pa.table({"c": _string_column(vals, layout)})
    for name, extra, ok in _row_oracles():
        if name.endswith("follow_rule") and layout == "dictionary":
            continue  # follow_rule rejects non-string columns (TypeError)
        res = CONDITION_KERNELS[name](tbl, {"column": "c", **extra})
        want = [v is not None and ok(v) for v in vals]
        assert res.meets.tolist() == want, name
        assert res.considered.tolist() == [v is not None for v in vals], name
        assert res.values.to_pylist() == vals, name


def test_dateutil_kernel_iso_edge_cases():
    import pyarrow as pa

    from great_expectations_ray.functions.column_map import (
        CONDITION_KERNELS,
        _iso_dates,
    )

    expect = {
        "2020-01-01": True, "2024-02-29": True, "0001-01-01": True,
        "9999-12-31": True, " 2020-01-01": True, "2020-1-1": True,
        "20200101": True, "2020-01-01T12:30:00": True,
        "2020-04-31": False, "1996-02-30": False, "1900-02-29": False,
        "2023-02-29": False, "0000-01-01": False, "2020-13-01": False,
        "12020-01-01": False,
    }
    tbl = pa.table({"c": list(expect)})
    got = CONDITION_KERNELS["expect_column_values_to_be_dateutil_parseable"](
        tbl, {"column": "c"}).meets
    assert dict(zip(expect, got.tolist())) == expect
    # only canonical dates of years 0001-9999 skip dateutil
    pre = _iso_dates(pa.array(list(expect), pa.large_string()))
    assert [v for v, p in zip(expect, pre) if p] == [
        "2020-01-01", "2024-02-29", "0001-01-01", "9999-12-31"]
