"""Large-dictionary phrase tagging — exact multi-phrase matching that stays
vectorized when the dictionary is far too big for a regex alternation.

``stages/toxicity.py`` compiles a word list into ONE RE2 alternation; that
is the right call up to a few hundred terms, but a production policy /
topic / PII-phrase dictionary runs 10⁴–10⁶ entries and an alternation that
size blows RE2's DFA budget.  The classic answer is Aho-Corasick; a
byte-level automaton in Python would be a per-character interpreter loop —
exactly the non-vectorized hot path this repo bans.  Instead this stage
matches at TOKEN granularity (policy dictionaries are token phrases):

1. Tokenize the batch Arrow-side (``utf8_lower`` + ``split_pattern_regex``
   on ``[^a-z0-9_]+``) — the same normalization contract as stages/dsir.py,
   reproducible in DuckDB (``string_split_regex`` + ``list_filter``).
2. ``dictionary_encode`` the flat token array; per DISTINCT token, one set
   lookup against the dictionary's token vocabulary (Zipf: distinct ≪
   occurrences).
3. An n-gram occurrence is a match CANDIDATE only if all n component
   tokens are in the vocabulary — candidates collapse to distinct
   index-tuples (``np.unique``), and only those few distinct n-grams are
   string-joined and checked EXACTLY against the phrase set.  No hashing,
   no false positives.
4. Scatter matched distinct grams back to occurrences, ``np.bincount`` per
   doc.

The dictionary rides ``ray.put`` once and is fetched per worker in
``__init__`` (never per batch).  One streaming pass, no shuffle; memory is
O(|dictionary|) per worker.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.stages._per_worker import map_per_worker

TOKEN_SPLIT_RE = "[^a-z0-9_]+"

#: demo dictionary (swap for a production list); phrases are normalized
#: token sequences joined by single spaces, 1..MAX_N tokens
DEFAULT_PHRASES: tuple[str, ...] = (
    "spark", "dup",
    "table scan", "hash join", "order sort",
    "key order sort",
)

MAX_N = 4


class PhraseDict:
    """Broadcastable compiled dictionary: phrase set per n + token vocab."""

    def __init__(self, phrases: tuple[str, ...]):
        import re

        self.by_n: dict[int, frozenset[str]] = {}
        vocab: set[str] = set()
        split = re.compile(TOKEN_SPLIT_RE)
        for p in phrases:
            # normalize with the SAME tokenizer documents go through, so a
            # phrase like 'hash-join' matches text 'hash-join' (both become
            # the bigram 'hash join') instead of silently never matching
            toks = [t for t in split.split(p.lower()) if t]
            if not toks or len(toks) > MAX_N:
                raise ValueError(f"phrase must be 1..{MAX_N} tokens: {p!r}")
            self.by_n.setdefault(len(toks), set()).add(" ".join(toks))  # type: ignore[arg-type]
            vocab.update(toks)
        self.by_n = {n: frozenset(s) for n, s in self.by_n.items()}
        self.vocab = frozenset(vocab)


def _tokenize_batch(col) -> tuple[np.ndarray, np.ndarray, list[str], np.ndarray, int]:
    """(doc_of_tok, tok_dict_idx, distinct_words, n_docs_lengths, n_docs)
    for a string column — Arrow tokenize + dictionary encode, empty tokens
    dropped (split emits '' at boundaries; the SQL oracle filters the same).
    """
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    low = pc.utf8_lower(pc.fill_null(col, ""))
    lst = pc.split_pattern_regex(low, TOKEN_SPLIT_RE)
    if isinstance(lst, pa.ChunkedArray):
        lst = lst.combine_chunks()
    flat = lst.flatten()
    n_per_doc = np.asarray(pc.list_value_length(lst), dtype=np.int64)
    doc_of_tok = np.repeat(np.arange(len(lst), dtype=np.int64), n_per_doc)
    denc = pc.dictionary_encode(flat)
    if isinstance(denc, pa.ChunkedArray):
        denc = denc.combine_chunks()
    idx = np.asarray(denc.indices, dtype=np.int64)
    words = denc.dictionary.to_pylist()
    keep = np.array([bool(w) for w in words], dtype=bool)
    mask = keep[idx]
    return doc_of_tok[mask], idx[mask], words, n_per_doc, len(lst)


def match_counts(col, pdict: PhraseDict) -> np.ndarray:
    """Per-row count of phrase-dictionary match occurrences (all n)."""
    doc_of_tok, idx, words, _, n_docs = _tokenize_batch(col)
    hits = np.zeros(n_docs, dtype=np.int64)
    if len(idx) == 0:
        return hits
    in_vocab = np.array([w in pdict.vocab for w in words], dtype=bool)
    occ_ok = in_vocab[idx]
    V = len(words)
    for n, phrase_set in pdict.by_n.items():
        if len(idx) < n:
            continue
        # candidate start positions: n consecutive in-vocab tokens, same doc
        ok = occ_ok[: len(idx) - n + 1].copy()
        same = doc_of_tok[: len(idx) - n + 1] == doc_of_tok[n - 1 :]
        ok &= same
        for j in range(1, n):
            ok &= occ_ok[j : len(idx) - n + 1 + j]
        starts = np.nonzero(ok)[0]
        if len(starts) == 0:
            continue
        # distinct n-gram keys over candidate starts (V^MAX_N fits int64 for
        # realistic per-batch vocab; guarded)
        if V ** n > 2**62:
            raise ValueError("per-batch distinct-token count too large for "
                             f"{n}-gram keying; lower batch_size")
        key = idx[starts].copy()
        for j in range(1, n):
            key = key * V + idx[starts + j]
        ukey, inv = np.unique(key, return_inverse=True)
        # exact string check on the FEW distinct candidate grams only
        matched = np.empty(len(ukey), dtype=bool)
        for u, k in enumerate(ukey.tolist()):
            parts = []
            for _ in range(n):
                parts.append(words[k % V])
                k //= V
            matched[u] = " ".join(reversed(parts)) in phrase_set
        occ_matched = matched[inv]
        if occ_matched.any():
            hits += np.bincount(doc_of_tok[starts[occ_matched]],
                                minlength=n_docs)
    return hits


class PhraseDictTagger:
    """Per-batch map_batches callable: appends ``dict_hits`` (match
    occurrences) and ``dict_flag`` (any match).  The compiled dictionary is
    fetched from the object store ONCE per worker."""

    def __init__(self, dict_ref, content_col: str = "content"):
        import ray

        self.pdict = (
            ray.get(dict_ref) if not isinstance(dict_ref, PhraseDict)
            else dict_ref
        )
        self.content_col = content_col

    def __call__(self, tbl: pa.Table) -> pa.Table:
        hits = match_counts(tbl.column(self.content_col), self.pdict)
        return (tbl.append_column("dict_hits", pa.array(hits))
                   .append_column("dict_flag", pa.array(hits > 0)))


def tag_phrases(ds, phrases: tuple[str, ...] = DEFAULT_PHRASES, *,
                content_col: str = "content"):
    """Dataset form: broadcast the compiled dictionary, tag every row."""
    import ray

    ref = ray.put(PhraseDict(phrases))
    return map_per_worker(
        ds, PhraseDictTagger, {"dict_ref": ref, "content_col": content_col},
        batch_format="pyarrow", zero_copy_batch=True,
    )
