from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data as rd

from great_expectations_ray.stages.substr_dedup import (
    _CutRewriter,
    duplicate_substrings,
    window_table,
)

SHARED = "SHARED LICENSE BLOCK THAT IS WELL OVER FORTY CHARS LONG INDEED"  # 62


def test_window_table_positions_and_content():
    t = window_table(pa.array(["abcdefghij"]), pa.array([7]), window=4, stride=3)
    assert t.column("pos").to_pylist() == [0, 3, 6]
    assert t.column("win").to_pylist() == [b"abcd", b"defg", b"ghij"]
    assert t.column("doc_id").to_pylist() == [7, 7, 7]


def test_window_table_short_and_null_rows():
    t = window_table(pa.array(["ab", None, "abcd"]), pa.array([0, 1, 2]),
                     window=4, stride=1)
    assert t.column("doc_id").to_pylist() == [2]
    assert t.column("win").to_pylist() == [b"abcd"]


def test_exact_detection(ray_session):
    ds = rd.from_arrow(pa.table({
        "doc_id": [0, 1, 2],
        "text": ["prefix " + SHARED, SHARED + " suffix",
                 "nothing in common with the others at all, guaranteed xyz"],
    }))
    out = {r["doc_id"]: r for r in
           duplicate_substrings(ds, window=40).take_all()}
    assert set(out) == {0, 1}
    # 62-char shared span -> 62-40+1 = 23 windows in each doc
    assert out[0]["dup_windows"] == 23 and out[0]["first_dup_pos"] == 7
    assert out[1]["dup_windows"] == 23 and out[1]["first_dup_pos"] == 0


def test_within_doc_repeats_do_not_mark(ray_session):
    rep = "self repeated block of more than forty characters here! "
    ds = rd.from_arrow(pa.table({
        "doc_id": [0, 1],
        "text": [rep * 3, "completely unrelated other document body text okay"],
    }))
    assert duplicate_substrings(ds, window=40).take_all() == []


def test_candidate_filter_matches_full_pass(ray_session):
    """candidate_filter=True must emit exactly what the full pass emits —
    window=40 >= w+k-1 preserves the winnowing guarantee."""
    ds = rd.from_arrow(pa.table({
        "doc_id": [0, 1, 2, 3],
        "text": ["prefix " + SHARED, SHARED + " suffix",
                 "nothing in common with the others at all, guaranteed xyz",
                 "another entirely unrelated document with its own words"],
    })).repartition(2)
    full = sorted(duplicate_substrings(ds, window=40).take_all(),
                  key=lambda r: r["doc_id"])
    cand = sorted(duplicate_substrings(ds, window=40,
                                       candidate_filter=True).take_all(),
                  key=lambda r: r["doc_id"])
    assert cand == full and len(full) == 2


def test_candidate_filter_prunes_exact_pass_input(ray_session):
    """The every-position exact pass must see ONLY the candidate docs: with
    the filter on, non-candidate docs never enter the window explode."""
    from great_expectations_ray.functions.joins import broadcast_semi_anti
    from great_expectations_ray.stages.fingerprint import (
        fingerprint_candidate_ids,
    )

    ds = rd.from_arrow(pa.table({
        "doc_id": [0, 1, 2, 3],
        "text": ["prefix " + SHARED, SHARED + " suffix",
                 "nothing in common with the others at all, guaranteed xyz",
                 "another entirely unrelated document with its own words"],
    }))
    cand_ids = {r["doc_id"] for r in
                fingerprint_candidate_ids(ds, id_col="doc_id",
                                          text_col="text").take_all()}
    assert cand_ids == {0, 1}  # only the SHARED pair are candidates
    pruned = broadcast_semi_anti(ds, cand_ids, on="doc_id")
    assert pruned.count() == 2  # docs 2 and 3 never reach the exact pass


def test_candidate_filter_window_guard(ray_session):
    import pytest

    ds = rd.from_arrow(pa.table({"doc_id": [0], "text": ["x" * 50]}))
    with pytest.raises(ValueError, match="w\\+k-1"):
        duplicate_substrings(ds, window=8, candidate_filter=True,
                             candidate_k=8, candidate_w=4)


def test_non_ascii_content_does_not_crash(ray_session):
    shared = "SHARED LICENSE BLOCK THAT IS WELL OVER FORTY CHARS LONG INDEED"
    ds = rd.from_arrow(pa.table({
        "doc_id": [0, 1],
        "text": ["héllo wörld prefix " + shared, shared + " suffix é çontent"],
    }))
    out = {r["doc_id"]: r for r in
           duplicate_substrings(ds, window=40).take_all()}
    assert set(out) == {0, 1}
    assert out[0]["dup_windows"] == 23


def test_remove_duplicate_substrings_keep_first():
    """The smallest (doc_id, pos) occurrence keeps the span; every other
    occurrence is cut; unaffected docs pass through byte-identical."""
    import ray

    from great_expectations_ray.stages.substr_dedup import (
        remove_duplicate_substrings,
    )

    hdr = " SHARED HEADER BLOCK THAT IS WAY LONGER THAN FORTY CHARACTERS!!"
    docs = [
        {"doc_id": 0, "text": "keeper body" + hdr},
        {"doc_id": 1, "text": "second body" + hdr + " tail"},
        {"doc_id": 2, "text": "untouched unique content of document two"},
    ]
    ds = ray.data.from_items(docs).repartition(2)
    out = (remove_duplicate_substrings(ds, content_col="text",
                                       id_col="doc_id")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out.loc[0, "removed_bytes"] == 0
    assert out.loc[0, "text"] == "keeper body" + hdr
    # doc 1 loses the shared span (which extends left over the common
    # " body" suffix of both prefixes)
    assert out.loc[1, "removed_bytes"] >= len(hdr)
    assert hdr not in out.loc[1, "text"]
    assert out.loc[1, "text"].startswith("second")
    assert out.loc[1, "text"].endswith(" tail")
    assert out.loc[2, "text"] == docs[2]["text"]
    assert out.loc[2, "n_cuts"] == 0


def test_remove_duplicate_substrings_partition_invariance():
    import ray

    from great_expectations_ray.stages.substr_dedup import (
        remove_duplicate_substrings,
    )

    # aperiodic span: no self-overlapping windows, so the keeper doc
    # retains it whole (a periodic run like 'x'*60 would collapse to its
    # first window even in the keeper — documented semantics)
    span = "".join(chr(97 + (j * 7) % 26) for j in range(60))
    docs = [{"doc_id": i,
             "text": f"doc {i} prefix {span if i % 4 == 0 else ''} suffix {i}"}
            for i in range(24)]

    def run(parts):
        ds = ray.data.from_items(docs).repartition(parts)
        return (remove_duplicate_substrings(ds, content_col="text",
                                            id_col="doc_id")
                .to_pandas().sort_values("doc_id").reset_index(drop=True))

    a, b = run(1), run(6)
    assert a.equals(b)
    carriers = a[a.doc_id % 4 == 0]
    # lowest-id carrier keeps the run; the rest lose it
    assert carriers.iloc[0]["removed_bytes"] == 0
    assert (carriers.iloc[1:]["removed_bytes"] > 0).all()


def test_candidate_filter_join_path_matches_broadcast(ray_session, monkeypatch):
    """max_broadcast_ids=0 forces the bucketed semi-join path (no driver id
    pull) and must emit exactly what the broadcast path emits."""
    import great_expectations_ray.stages.substr_dedup as sd

    ds = rd.from_arrow(pa.table({
        "doc_id": [0, 1, 2, 3],
        "text": ["prefix " + SHARED, SHARED + " suffix",
                 "nothing in common with the others at all, guaranteed xyz",
                 "another entirely unrelated document with its own words"],
    })).repartition(2)
    bcast = sorted(duplicate_substrings(ds, window=40,
                                        candidate_filter=True).take_all(),
                   key=lambda r: r["doc_id"])

    def _no_broadcast(*a, **k):
        raise AssertionError("broadcast path taken despite cap=0")

    monkeypatch.setattr(
        "great_expectations_ray.functions.joins.broadcast_semi_anti",
        _no_broadcast)
    joined = sorted(
        duplicate_substrings(ds, window=40, candidate_filter=True,
                             max_broadcast_ids=0).take_all(),
        key=lambda r: r["doc_id"])
    assert joined == bcast and len(joined) == 2


def test_merge_ranges_vectorized_interval_merge(ray_session):
    """Adjacent/overlapping marks merge into maximal ranges; disjoint marks
    stay separate — pinned against a scalar reference merge."""
    from great_expectations_ray.stages.substr_dedup import (
        duplicate_occurrence_cuts,
    )

    pad = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmn"  # 40 unique chars
    blk1 = "FIRST SHARED RUN OF WAY MORE THAN FORTY CHARACTERS IN IT!!"
    blk2 = "SECOND DISTINCT SHARED RUN ALSO LONGER THAN FORTY CHARS!!!"
    docs = pa.table({
        "doc_id": [0, 1],
        "text": [blk1 + " mid " + blk2,
                 "x" + blk1 + pad + blk2 + "y"],  # disjoint cuts in doc 1
    })
    cuts = (duplicate_occurrence_cuts(rd.from_arrow(docs), window=40)
            .to_pandas().sort_values(["doc_id", "start"])
            .reset_index(drop=True))
    d1 = cuts[cuts.doc_id == 1]
    # doc 0 is the keeper (lower id): zero cuts; doc 1 loses both blocks as
    # two maximal disjoint ranges (pad has no 40-char window in common)
    assert (cuts.doc_id == 1).all()
    assert len(d1) == 2
    assert d1.iloc[0]["start"] == 1 and d1.iloc[0]["end"] == 1 + len(blk1)
    s2 = 1 + len(blk1) + len(pad)
    assert d1.iloc[1]["start"] == s2 and d1.iloc[1]["end"] == s2 + len(blk2)


def test_remove_duplicate_substrings_joined_path_matches_broadcast(ray_session):
    """max_broadcast_cuts=0 forces the bucketed-join rewrite (cut map never
    lands on the driver) — output must be row-for-row identical to the
    broadcast path, dtypes included."""
    import ray

    from great_expectations_ray.stages.substr_dedup import (
        remove_duplicate_substrings,
    )

    span = "".join(chr(97 + (j * 7) % 26) for j in range(60))
    docs = [{"doc_id": i,
             "text": f"doc {i} prefix {span if i % 3 == 0 else ''} tail {i}"}
            for i in range(18)]
    ds = ray.data.from_items(docs).repartition(4)
    bcast = (remove_duplicate_substrings(ds, content_col="text",
                                         id_col="doc_id")
             .to_pandas().sort_values("doc_id").reset_index(drop=True))
    joined = (remove_duplicate_substrings(ds, content_col="text",
                                          id_col="doc_id",
                                          max_broadcast_cuts=0)
              .to_pandas().sort_values("doc_id").reset_index(drop=True))
    import pandas as pd

    pd.testing.assert_frame_equal(joined[bcast.columns], bcast)
    assert joined["doc_id"].dtype.kind == "i"
    assert (joined[joined.doc_id % 3 == 0].iloc[1:]["removed_bytes"] > 0).all()


def _per_row_rewrite(tbl: pa.Table, cuts: dict):
    """The per-row membership loop the rewriter replaced."""
    ids = tbl.column("doc_id").to_pylist()
    texts = pc.fill_null(tbl.column("text"), "").to_pylist()
    content, removed, n_cuts = [], [], []
    for d, text in zip(ids, texts):
        if d not in cuts:
            content.append(text)
            removed.append(0)
            n_cuts.append(0)
            continue
        b, pieces, last = text.encode("utf-8"), [], 0
        for s, e in cuts[d]:
            pieces.append(b[last:s])
            last = e
        pieces.append(b[last:])
        content.append(b"".join(pieces).decode("utf-8", "replace"))
        removed.append(sum(e - s for s, e in cuts[d]))
        n_cuts.append(len(cuts[d]))
    return content, removed, n_cuts


@pytest.mark.parametrize("ids,cuts", [
    # int ids, hits on the first and the last row
    ([10, 11, 12, 13], {10: [(0, 2)], 13: [(1, 3), (4, 5)]}),
    # int32 column against the int64 cut ids, and a null id
    (pa.array([10, None, 12, 13], pa.int32()), {12: [(0, 1)], 13: [(2, 6)]}),
    # string ids, hits on the first and the last row
    (["a", "b", "c", "d"], {"a": [(0, 1)], "d": [(2, 4)], "zz": [(0, 1)]}),
    # batches with no hits
    ([10, 11, 12, 13], {99: [(0, 2)]}),
    (["a", "b", "c", "d"], {"z": [(0, 1)]}),
    ([10, 11, 12, 13], {}),
])
def test_cut_rewriter_matches_per_row_loop(ids, cuts):
    base = pa.table({"doc_id": ids, "text": ["abcdef", "ghijkl", None, "mnopqr"]})
    tbl = pa.concat_tables([base.slice(0, 1), base.slice(1)])  # two chunks
    out = _CutRewriter(cuts, "doc_id", "text")(tbl)
    content, removed, n_cuts = _per_row_rewrite(tbl, cuts)
    assert out.column("text").to_pylist() == content
    assert out.column("removed_bytes").to_pylist() == removed
    assert out.column("n_cuts").to_pylist() == n_cuts
