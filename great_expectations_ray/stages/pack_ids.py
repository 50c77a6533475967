"""Tokenize-to-training-sequences: trained-vocab token-ID encoding plus
distributed fixed-length sequence packing.

The missing tail of the LLM-prep story: :mod:`stages/wordpiece` (and its BPE /
unigram siblings) already train a vocab and count tokens; GPT-style
pretraining additionally needs the corpus **emitted as fixed-length token-id
sequences** — all documents concatenated in a deterministic global order
(optionally EOS-separated) and sliced every ``seq_len`` tokens, sequences
freely crossing document boundaries.

Distributed shape (two wide steps, both unavoidable for cross-document
sequences):

1. ``encode_token_ids`` — broadcast the trained vocab once (``ray.put``)
   to every worker; greedy longest-match WordPiece encode per word with a
   per-worker word→ids cache; emits one ``list<int32>`` row per document.
2. ``pack_sequences`` —
   a. sort by the unique order column (the ONE sort; payload rides along),
      materialize;
   b. per-block ``(first_key, token_sum)`` summaries → driver prefix-sums a
      per-block offset table (O(#blocks) driver work — the
      :mod:`stages/packing` trick, packing.py:30);
   c. a second pass over the SAME materialized blocks slices each document's
      ids at global ``seq_len`` boundaries and emits fragments
      ``(seq_id, frag_start, ids)``;
   d. one bucketed exchange (``functions/bucketed.py
      grouped_apply_bucketed`` — NOT per-group ``map_groups``, which pays
      per-sequence reduce overhead at millions of sequences) re-assembles
      fragments in ``frag_start`` order with one vectorized pass per
      bucket; this is the only step that moves token payload, inherent to
      sequences spanning documents that live in different blocks.

Reference parity note: the reference repo has no tokenizer/packing surface;
this operator exists for the training-data-pipeline mandate.  Spec is shared
with the independent fixture oracle (tools/gen_oracle_fixtures.py
``wordpiece_pack_fixture``: naive per-doc encode → driver-side concatenate →
slice), which pins byte-identical sequences.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.stages._per_worker import map_per_worker
from great_expectations_ray.stages.bpe_train import _WS_SPLIT
from great_expectations_ray.stages.wordpiece import encode_word


def ensure_list_int32(ids, n_rows: int) -> pa.Array:
    """Return an id-list column as a plain ``list<int32>`` array.

    Ray stores list rows that crossed a pandas hop (a pandas-format map
    stage, or ``from_pandas`` input) as ArrowTensorArray extension arrays — fixed-shape
    when every row has equal length, variable-shaped otherwise.  Arrow's list
    kernels (``list_value_length``, ``.offsets``/``.values``) have no tensor
    kernels, so every list-consuming stage normalizes through this helper
    (loud ``ArrowNotImplementedError`` otherwise)."""
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    if hasattr(ids, "offsets"):
        return ids
    if n_rows == 0:
        return pa.ListArray.from_arrays(
            pa.array([0], pa.int32()), pa.array([], pa.int32()))[:0]
    vals = ids.to_numpy(zero_copy_only=False)
    if getattr(vals, "dtype", None) == object:  # variable-shaped tensor rows
        rows = [np.asarray(v, dtype=np.int32).ravel() for v in vals]
        lens = np.fromiter((len(v) for v in rows), dtype=np.int64,
                           count=len(rows))
        flat = (np.concatenate(rows) if rows
                else np.array([], dtype=np.int32))
    else:  # fixed-shape tensor rows
        mat = np.asarray(vals, dtype=np.int32).reshape(n_rows, -1)
        lens = np.full(n_rows, mat.shape[1], dtype=np.int64)
        flat = mat.reshape(-1)
    offs = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(lens, out=offs[1:])
    return pa.ListArray.from_arrays(
        pa.array(offs.astype(np.int32)), pa.array(flat, pa.int32()))


def encode_token_ids(
    ds,
    vocab: pd.DataFrame,
    *,
    text_col: str = "content",
    id_col: str,
    unk_id: int | None = None,
    eos_id: int | None = None,
):
    """Per-document token-id lists under a trained WordPiece vocab.

    ``vocab`` is ``train_wordpiece`` output ``(rank, piece, cnt)``; a piece's
    id IS its rank.  Unknown words map to ``unk_id`` (default:
    ``len(vocab)``); when ``eos_id`` is given it is appended after every
    document (GPT-style document separator — default id convention:
    ``len(vocab) + 1``).  Returns ``(id_col, token_ids list<int32>,
    n_tokens int64)``.
    """
    import ray

    if unk_id is None:
        unk_id = len(vocab)
    piece_to_id = {p: int(r) for r, p in zip(vocab["rank"], vocab["piece"])}
    ref = ray.put(piece_to_id)
    eos_arr = (np.array([eos_id], dtype=np.int32)
               if eos_id is not None else np.array([], dtype=np.int32))

    class _Encoder:
        def __init__(self):
            self.p2i = ray.get(ref)
            self.vocab = frozenset(self.p2i)
            self.cache: dict[str, np.ndarray] = {}

        def _word_ids(self, w: str) -> np.ndarray:
            ids = self.cache.get(w)
            if ids is None:
                pieces = encode_word(w, self.vocab)
                ids = np.fromiter(
                    (self.p2i.get(p, unk_id) for p in pieces),
                    dtype=np.int32, count=len(pieces))
                self.cache[w] = ids
            return ids

        def __call__(self, tbl: pa.Table) -> pa.Table:
            text = pc.fill_null(tbl.column(text_col).combine_chunks(), "")
            words = pc.split_pattern_regex(text, _WS_SPLIT)
            if isinstance(words, pa.ChunkedArray):
                words = words.combine_chunks()
            docs: list[np.ndarray] = []
            for row in words.to_pylist():
                parts = [self._word_ids(w) for w in row if w]
                parts.append(eos_arr)
                docs.append(np.concatenate(parts) if parts else eos_arr)
            n = pa.array([len(d) for d in docs], pa.int64())
            flat = (np.concatenate(docs) if docs
                    else np.array([], dtype=np.int32))
            offs = np.zeros(len(docs) + 1, dtype=np.int32)
            np.cumsum([len(d) for d in docs], out=offs[1:])
            ids = pa.ListArray.from_arrays(
                pa.array(offs), pa.array(flat, pa.int32()))
            return pa.table({
                id_col: tbl.column(id_col),
                "token_ids": ids,
                "n_tokens": n,
            })

    return map_per_worker(ds.select_columns([id_col, text_col]), _Encoder,
                          batch_format="pyarrow", zero_copy_batch=True)


def pack_sequences(
    ds_ids,
    *,
    order_col: str,
    ids_col: str = "token_ids",
    seq_len: int,
    drop_last: bool = True,
):
    """Slice an encoded corpus into fixed-length sequences.

    ``ds_ids`` carries one ``list<int32>`` row per document (``order_col``
    must be UNIQUE — it defines the global concatenation order and keys the
    per-block offset table).  Returns ``(seq_id int64, token_ids list<int32>,
    n_tokens int64)`` where every sequence has exactly ``seq_len`` tokens
    (the trailing partial sequence is dropped unless ``drop_last=False``).
    """
    if seq_len <= 0:
        raise ValueError("seq_len must be positive")

    def _norm_layout(tbl: pa.Table) -> pa.Table:
        # tensor-extension id columns (pandas-hop / map_groups inputs) back
        # to plain list<int32> so the two list passes below stay Arrow-native
        fixed = ensure_list_int32(tbl.column(ids_col), len(tbl))
        return tbl.set_column(
            tbl.schema.get_field_index(ids_col), ids_col, fixed)

    sorted_ds = ds_ids.select_columns([order_col, ids_col]).map_batches(
        _norm_layout, batch_format="pyarrow", zero_copy_batch=True,
    ).sort(order_col).materialize()

    def block_summary(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return pa.table({
                "first_key": pa.array([], tbl.schema.field(order_col).type),
                "tok_sum": pa.array([], pa.int64()),
            })
        lens = pc.list_value_length(tbl.column(ids_col))
        return pa.table({
            "first_key": pa.array([tbl.column(order_col)[0].as_py()]),
            "tok_sum": pa.array(
                [int(pc.sum(lens).as_py() or 0)], pa.int64()),
        })

    summaries = sorted_ds.map_batches(
        block_summary, batch_format="pyarrow", batch_size=None
    ).take_all()
    summaries.sort(key=lambda r: r["first_key"])
    offsets: dict = {}
    acc = 0
    for r in summaries:
        offsets[r["first_key"]] = acc
        acc += int(r["tok_sum"])
    total_tokens = acc
    n_full = total_tokens // seq_len
    keep_partial = (not drop_last) and (total_tokens % seq_len != 0)

    def fragments(tbl: pa.Table) -> pa.Table:
        out_seq: list[int] = []
        out_start: list[int] = []
        out_frag: list[np.ndarray] = []
        if len(tbl):
            fk = tbl.column(order_col)[0].as_py()
            if fk not in offsets:
                raise RuntimeError(
                    "pack_sequences: block boundaries shifted between "
                    "passes (dataset must stay materialized)")
            ids_arr = tbl.column(ids_col).combine_chunks()
            flat = np.asarray(ids_arr.values, dtype=np.int32)
            doc_offs = np.asarray(ids_arr.offsets, dtype=np.int64)
            lens = np.diff(doc_offs)
            starts = offsets[fk] + np.concatenate(
                ([0], np.cumsum(lens[:-1]))) if len(lens) else []
            for i in range(len(lens)):
                n = int(lens[i])
                if n == 0:
                    continue
                g0 = int(starts[i])
                ids = flat[doc_offs[i]:doc_offs[i + 1]]
                # cut at global positions that are multiples of seq_len
                first_cut = ((g0 // seq_len) + 1) * seq_len
                cuts = np.arange(first_cut - g0, n, seq_len)
                for pos, frag in zip(
                        np.concatenate(([0], cuts)),
                        np.split(ids, cuts)):
                    g = g0 + int(pos)
                    sid = g // seq_len
                    if sid >= n_full and not keep_partial:
                        continue
                    out_seq.append(sid)
                    out_start.append(g)
                    out_frag.append(frag)
        offs = np.zeros(len(out_frag) + 1, dtype=np.int32)
        if out_frag:
            np.cumsum([len(f) for f in out_frag], out=offs[1:])
        flat_out = (np.concatenate(out_frag) if out_frag
                    else np.array([], dtype=np.int32))
        return pa.table({
            "seq_id": pa.array(out_seq, pa.int64()),
            "frag_start": pa.array(out_start, pa.int64()),
            "frags": pa.ListArray.from_arrays(
                pa.array(offs), pa.array(flat_out, pa.int32())),
        })

    frags = sorted_ds.map_batches(
        fragments, batch_format="pyarrow", batch_size=None)

    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed, key_groups

    def assemble_bucket(g: pa.Table) -> pa.Table:
        # all fragments of a sequence share its bucket; one vectorized pass
        # assembles EVERY sequence in the bucket (no per-group python)
        g, bounds = key_groups(g, ["seq_id"], [("frag_start", "ascending")])
        frags = g.column("frags").combine_chunks()
        flat = pc.list_flatten(frags)
        # token offset of each sequence = its first fragment's offset
        offs = np.asarray(pc.list_value_length(frags).fill_null(0)).astype(np.int64)
        at = np.r_[0, np.cumsum(offs)][bounds]
        return pa.table({
            "seq_id": g.column("seq_id").take(bounds[:-1]),
            "token_ids": pa.ListArray.from_arrays(pa.array(at, pa.int32()),
                                                  pc.cast(flat, pa.int32())),
            "n_tokens": pa.array(np.diff(at)),
        })

    return grouped_apply_bucketed(frags, ["seq_id"], assemble_bucket)


def decode_token_ids(
    ds_ids,
    vocab: pd.DataFrame,
    *,
    ids_col: str = "token_ids",
    id_col: str,
    unk_id: int | None = None,
    eos_id: int | None = None,
    unk_token: str = "[UNK]",
):
    """Inverse of :func:`encode_token_ids` — token-id lists back to text,
    fully vectorized: one broadcast id→piece table, one numpy gather per
    batch, prefix logic (``##`` continuation vs space-joined word starts)
    via boolean masks, and the per-document join done in C by
    ``pc.binary_join`` over a ListArray.  EOS ids (when given) terminate
    nothing visible; unknown-word ids render as ``unk_token``.

    Lossy exactly where WordPiece is lossy: runs of whitespace collapse to
    single spaces and [UNK]-encoded words cannot be recovered — the
    round-trip ``decode(encode(text)) == " ".join(text.split())`` holds for
    fully-covered vocabularies (pinned by test).  Inspection / debugging
    surface for the encode → pack → shard chain."""
    import ray

    if unk_id is None:
        unk_id = len(vocab)
    # dense id -> piece table: ranks are contiguous from 0 by construction
    n_ids = max(int(vocab["rank"].max()) + 1 if len(vocab) else 0,
                unk_id + 1, (eos_id + 1) if eos_id is not None else 0)
    table = np.full(n_ids, unk_token, dtype=object)
    for r, p in zip(vocab["rank"], vocab["piece"]):
        table[int(r)] = p
    table[unk_id] = unk_token
    if eos_id is not None:
        table[eos_id] = ""  # document separator: renders as nothing
    ref = ray.put(table)

    class _Decoder:
        def __init__(self):
            # piece prep happens ONCE over the id table; per batch is gathers
            tab = ray.get(ref)
            self.cont = np.fromiter((p.startswith("##") for p in tab),
                                    dtype=bool, count=len(tab))
            body = [p[2:] if c else p for p, c in zip(tab, self.cont)]
            self.body = np.array(body, dtype=object)
            self.spaced = np.array([" " + p for p in body], dtype=object)
            self.empty = self.body == ""

        def __call__(self, tbl: pa.Table) -> pa.Table:
            # tensor-extension inputs (fixed OR variable shaped) normalize
            # to plain list<int32> first
            ids = ensure_list_int32(tbl.column(ids_col), len(tbl))
            offs = np.asarray(ids.offsets, dtype=np.int64)
            flat = np.asarray(ids.values, dtype=np.int64)[offs[0]:offs[-1]] \
                if len(tbl) else np.empty(0, dtype=np.int64)
            offs = offs - offs[0] if len(offs) else offs
            # out-of-range ids (shards from a DIFFERENT vocab) surface as
            # [UNK] — never silently clip to the top slot (usually EOS="")
            flat = np.where((flat < 0) | (flat >= len(self.body)),
                            unk_id, flat)
            # space before every word START except a document's first piece;
            # invisible pieces (EOS) never earn a separator
            starts = np.zeros(len(flat), dtype=bool)
            starts[offs[:-1][offs[:-1] < len(flat)]] = True
            no_sep = self.cont[flat] | starts | self.empty[flat]
            glued = pa.array(
                np.where(no_sep, self.body[flat], self.spaced[flat]),
                pa.string())
            lists = pa.ListArray.from_arrays(
                pa.array(offs.astype(np.int32)), glued)
            text = pc.binary_join(lists, "")
            return pa.table({id_col: tbl.column(id_col), "text": text})

    return map_per_worker(ds_ids.select_columns([id_col, ids_col]), _Decoder,
                          batch_format="pyarrow", zero_copy_batch=True)
