"""C4-style line- and document-level cleaning filters (Raffel et al. 2020,
§2.2 — the heuristics behind the C4 corpus), fully vectorized, no shuffle.

Per LINE (lines = ``\\n``-separated):
- keep only lines with ≥ ``min_words_per_line`` words (C4: 5, counted as
  ``\\S+`` runs over the trimmed line);
- optionally require a terminal punctuation mark (C4: ``. ! ? "``);
- drop lines matching ``boilerplate_regex`` (C4 drops lines with the word
  "javascript"; cookie/consent banners are the modern additions).

Per DOCUMENT:
- keep only docs whose surviving line count ≥ ``min_lines`` (C4: 3
  sentences);
- drop docs matching ``ban_regex`` (C4: ``{`` — source code — and
  "lorem ipsum") or containing any of ``bad_words`` as a whole word.

Everything runs off the Arrow buffers of ONE ``map_batches`` pass: lines via
``pc.split_pattern``, per-line word counts via ``pc.count_substring_regex``,
per-doc rollups via ``np.bincount`` over the list offsets, and the cleaned
text is re-joined with ``pc.binary_join`` over a rebuilt ListArray — no
Python loops over rows or lines.  At 100 TB this stage is embarrassingly
parallel and memory-bandwidth-bound, like ``stages/text_stats.py``.

Reference parity: great_expectations expresses per-row predicates of this
shape via ``expect_column_values_to_match_regex`` + row conditions
(expectations/core/expect_column_values_to_match_regex.py); the line-rewrite
(keep-lines) semantics are beyond its surface and follow the C4 paper.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


@dataclass(frozen=True)
class C4Config:
    min_words_per_line: int = 5
    require_terminal_punct: bool = True
    terminal_punct_regex: str = r'[.!?"]$'
    boilerplate_regex: str | None = r"(?i)javascript|cookie"
    min_lines: int = 3
    ban_regex: str | None = r"\{|(?i)lorem ipsum"
    bad_words: tuple[str, ...] = field(default_factory=tuple)


def clean_batch(
    tbl: pa.Table,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    config: C4Config = C4Config(),
) -> pa.Table:
    """(id, clean_text, n_lines_kept, keep) for one batch — pure function,
    usable directly in ``map_batches``."""
    text = tbl.column(text_col).combine_chunks()
    text = pc.fill_null(pc.cast(text, pa.string()), "")
    n_docs = len(text)

    lines = pc.split_pattern(text, "\n")
    flat = lines.values
    per_doc = np.asarray(pc.list_value_length(lines), dtype=np.int64)
    doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), per_doc)

    trimmed = pc.utf8_trim_whitespace(flat)
    keep_line = np.asarray(
        pc.greater_equal(
            pc.count_substring_regex(trimmed, r"\S+"),
            config.min_words_per_line,
        )
    )
    if config.require_terminal_punct:
        keep_line &= np.asarray(
            pc.match_substring_regex(trimmed, config.terminal_punct_regex)
        )
    if config.boilerplate_regex:
        keep_line &= ~np.asarray(
            pc.match_substring_regex(trimmed, config.boilerplate_regex)
        )

    kept_counts = np.bincount(doc_idx[keep_line], minlength=n_docs).astype(np.int64)

    # rebuild list<string> of kept lines per doc, then join with '\n'
    kept_flat = trimmed.filter(pa.array(keep_line))
    offsets = np.zeros(n_docs + 1, dtype=np.int32)
    np.cumsum(kept_counts, out=offsets[1:])
    kept_lists = pa.ListArray.from_arrays(pa.array(offsets), kept_flat)
    clean_text = pc.binary_join(kept_lists, "\n")

    keep_doc = kept_counts >= config.min_lines
    if config.ban_regex:
        keep_doc &= ~np.asarray(pc.match_substring_regex(text, config.ban_regex))
    if config.bad_words:
        # escape each word: entries like "c++" or "f*ck" must match literally,
        # and a stray "|" inside an entry must not widen the alternation
        pat = r"(?i)\b(" + "|".join(re.escape(w) for w in config.bad_words) + r")\b"
        keep_doc &= ~np.asarray(pc.match_substring_regex(text, pat))

    return pa.table({
        id_col: tbl.column(id_col),
        "clean_text": clean_text,
        "n_lines_kept": pa.array(kept_counts),
        "keep": pa.array(keep_doc),
    })
