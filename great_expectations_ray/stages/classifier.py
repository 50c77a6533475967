"""fastText-architecture text classifier (Joulin et al. 2016, "Bag of Tricks
for Efficient Text Classification"): hashed word-unigram + bigram features →
mean-pooled embedding → linear scores.  The north-star quality-filter stack
names a fastText language-ID stage; this is that architecture run the
Ray-native way — no external .bin models exist in this sandbox, so the
embedding table is a seeded random projection and the linear layer is
TRAINED on the corpus itself (deterministic Rocchio/nearest-class-mean over
a fixed doc_id-prefix sample — the same corpus-self-supervised move the
perplexity LM makes in ``stages/perplexity.py``).

Scale shape:

- **Training** touches only the sample rows (``doc_id < sample_n`` — an
  order-free predicate, so the sample is identical however blocks arrive),
  pulled once to the driver; centroids are a tiny (n_classes × dim) matrix.
- **Inference** is a stateless per-batch stage: the embedding table
  (~4 MiB) regenerates from its seed ONCE per worker in ``__init__`` (cheaper
  than shipping it), centroids broadcast by value, and the hashed-feature →
  gather → segment-mean pipeline is fully vectorized off the Arrow buffers
  (no per-row Python, no per-token Python).

Determinism: feature hashing is the shared polynomial spec
(``functions/bucketed.poly_hash_strings``), embedding values come from a
seeded PCG64, and all accumulations are sequential float64 — so an
independent per-doc reimplementation (tools/gen_oracle_fixtures.py)
reproduces scores bit-exactly.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.functions.bucketed import poly_hash_strings
from great_expectations_ray.stages._per_worker import map_per_worker

DIM = 16          #: embedding dimension
BUCKETS = 1 << 16  #: hashed feature space
_BIGRAM_MIX = np.uint64(0x100000001B3)  #: FNV prime — combine h_i, h_{i+1}
UNKNOWN = "unknown"


def embedding_table(seed: int = 41) -> np.ndarray:
    """float32[BUCKETS, DIM] seeded random projection in [-0.5, 0.5)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return (rng.random((BUCKETS, DIM), dtype=np.float32) - 0.5).astype(np.float32)


def _feature_ids(texts: pa.Array, sep: str = " ") -> tuple[np.ndarray, np.ndarray]:
    """(feature_ids, doc_lengths): hashed unigram+bigram ids per doc,
    concatenated in document order — one vectorized pass, ids via the list
    offsets, bigrams by mixing consecutive token hashes within a doc."""
    texts = pc.fill_null(texts, "")
    lists = pc.split_pattern(texts, sep)
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    flat = lists.flatten()
    offs = np.asarray(lists.offsets, dtype=np.int64)
    offs = offs - offs[0]
    keep = np.asarray(pc.greater(pc.utf8_length(flat), 0))
    th = poly_hash_strings(flat)[keep]
    # recompute per-doc token counts after dropping empty tokens
    ndocs = len(offs) - 1
    tok_doc = np.repeat(np.arange(ndocs), np.diff(offs))[keep]
    tok_counts = np.bincount(tok_doc, minlength=ndocs)
    # bigrams: consecutive token pairs within the same doc
    same_doc = tok_doc[1:] == tok_doc[:-1] if len(tok_doc) else np.empty(0, bool)
    bg = (th[:-1] * _BIGRAM_MIX + th[1:])[same_doc] if len(th) else th[:0]
    bg_doc = tok_doc[1:][same_doc] if len(tok_doc) else tok_doc[:0]
    # interleave per doc: unigrams first, then bigrams (spec order)
    all_ids = np.concatenate([th % np.uint64(BUCKETS), bg % np.uint64(BUCKETS)])
    all_doc = np.concatenate([tok_doc, bg_doc])
    order = np.argsort(all_doc, kind="stable")  # stable: unigrams stay first
    feat_counts = np.bincount(all_doc, minlength=ndocs)
    return all_ids[order].astype(np.int64), feat_counts.astype(np.int64)


def _doc_vectors(E: np.ndarray, ids: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """float64[ndocs, DIM] mean embedding per doc — sequential segment sums
    (``np.add.reduceat``) so the accumulation order matches a per-doc loop
    bit-for-bit; zero-feature docs get a zero vector."""
    ndocs = len(counts)
    out = np.zeros((ndocs, DIM), dtype=np.float64)
    nz = counts > 0
    if ids.size:
        seg_starts = np.zeros(ndocs, dtype=np.int64)
        np.cumsum(counts[:-1], out=seg_starts[1:])
        contrib = E[ids].astype(np.float64)
        sums = np.add.reduceat(contrib, seg_starts[nz], axis=0)
        out[nz] = sums / counts[nz, None]
    return out


def train_centroids(
    ds,
    *,
    label_col: str = "lang",
    text_col: str = "text",
    id_col: str = "doc_id",
    sample_n: int = 200,
    seed: int = 41,
    sep: str = " ",
) -> tuple[list[str], np.ndarray]:
    """(classes, centroids float64[n_classes, DIM]) — nearest-class-mean
    weights from the deterministic ``id < sample_n`` sample."""

    def pick(tbl: pa.Table) -> pa.Table:
        return tbl.filter(pc.less(tbl.column(id_col), sample_n))

    sample = (
        ds.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True)
        .select_columns([id_col, text_col, label_col])
        .to_pandas()
        .sort_values(id_col, kind="mergesort")
        .reset_index(drop=True)
    )
    E = embedding_table(seed)
    ids, counts = _feature_ids(pa.array(sample[text_col], pa.string()), sep)
    vecs = _doc_vectors(E, ids, counts)
    classes = sorted(sample[label_col].dropna().unique().tolist())
    cents = np.zeros((len(classes), DIM), dtype=np.float64)
    for ci, cls in enumerate(classes):
        rows = np.flatnonzero((sample[label_col] == cls).to_numpy())
        # sequential accumulation in doc_id order: bit-exact vs a per-doc
        # reimplementation (np.sum's pairwise order would not be)
        for r in rows:
            cents[ci] += vecs[r]
        if rows.size:
            cents[ci] /= rows.size
    return classes, cents


class FastTextClassifier:
    """``map_per_worker(ds, FastTextClassifier, {...},
    batch_format="pyarrow")`` (``stages._per_worker``) — adds ``pred_label``
    and ``pred_score`` (rounded 6dp dot product against the winning centroid)."""

    def __init__(
        self,
        classes: list[str],
        centroids: np.ndarray,
        *,
        column: str = "text",
        seed: int = 41,
        sep: str = " ",
    ):
        self.E = embedding_table(seed)  # regenerated once per worker
        self.classes = np.array(classes, dtype=object)
        self.C = np.asarray(centroids, dtype=np.float64)
        self.column = column
        self.sep = sep

    def __call__(self, tbl: pa.Table) -> pa.Table:
        col = tbl.column(self.column)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        ids, counts = _feature_ids(col, self.sep)
        vecs = _doc_vectors(self.E, ids, counts)
        # dimension-sequential dot (16 vectorized adds) instead of BLAS
        # dgemm: accumulation order matches a scalar per-doc loop bit-exactly
        logits = np.zeros((len(counts), len(self.C)), dtype=np.float64)
        for d in range(DIM):
            logits += vecs[:, d, None] * self.C.T[None, d, :]
        best = np.argmax(logits, axis=1)
        score = np.round(logits[np.arange(len(best)), best], 6)
        labels = self.classes[best].astype(object)
        labels[counts == 0] = UNKNOWN
        score = np.where(counts == 0, 0.0, score)
        tbl = tbl.append_column("pred_label", pa.array(labels, pa.string()))
        return tbl.append_column("pred_score", pa.array(score, pa.float64()))


def classify(ds, *, label_col: str = "lang", text_col: str = "text",
             id_col: str = "doc_id", sample_n: int = 200, seed: int = 41,
             sep: str = " "):
    """Train on the corpus prefix sample, then classify every row."""
    classes, cents = train_centroids(
        ds, label_col=label_col, text_col=text_col, id_col=id_col,
        sample_n=sample_n, seed=seed, sep=sep,
    )
    return map_per_worker(
        ds, FastTextClassifier,
        {"classes": classes, "centroids": cents, "column": text_col,
         "seed": seed, "sep": sep},
        batch_format="pyarrow",
    )


class TextEmbedder:
    """First-class text -> embedding stage: the fastText-style hashed
    unigram+bigram mean-pooled vector exposed as a ``list<float32>``
    column (default ``text_emb``), so the `documents` table chains
    directly into the embedding operators (ANN / k-means / PCA /
    SemDeDup / embedding-cosine near-dup) without an external model.

    ``map_per_worker(ds, TextEmbedder, {"text_col": "text"},
    batch_format="pyarrow")`` (``stages._per_worker``) — the ~4 MiB
    embedding table regenerates from its seed ONCE per worker (cheaper
    than shipping it); the per-batch path is the same vectorized
    hash → gather → segment-mean used by the classifier, emitted as
    float32 (deterministic quantization of the float64 pipeline)."""

    def __init__(self, text_col: str = "text", seed: int = 41,
                 sep: str = " ", out_col: str = "text_emb"):
        self.text_col = text_col
        self.sep = sep
        self.out_col = out_col
        self.E = embedding_table(seed)

    def __call__(self, tbl: pa.Table) -> pa.Table:
        texts = tbl.column(self.text_col).combine_chunks()
        ids, counts = _feature_ids(texts, self.sep)
        vecs = _doc_vectors(self.E, ids, counts).astype(np.float32)
        return tbl.append_column(
            self.out_col,
            pa.array(vecs.tolist(), pa.list_(pa.float32())),
        )


def embed_text(ds, *, text_col: str = "text", seed: int = 41,
               sep: str = " ", out_col: str = "text_emb",
               batch_size: int = 4096):
    """Dataset -> Dataset with a pooled hashed-feature embedding column."""
    return map_per_worker(
        ds, TextEmbedder,
        {"text_col": text_col, "seed": seed, "sep": sep, "out_col": out_col},
        batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size,
    )
