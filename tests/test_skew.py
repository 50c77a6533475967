"""Skew mitigation: dedup pre-reduce preserves keep-first semantics on the
Zipf-skewed corpus and keeps a hot key from costing per-group reduce time."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from great_expectations_ray.corpus import corpus_batch
from great_expectations_ray.stages.dedup import dedup_exact


def test_dedup_prereduce_keeps_min_order():
    import ray.data as rd

    df = corpus_batch(0, 1500).to_pandas()
    df["doc_id"] = df.path.str.extract(r"file_(\d+)\.").astype(int)
    ds = rd.from_pandas(df).repartition(6)
    kept = dedup_exact(ds, ["content"], order_by="doc_id")
    got = pd.DataFrame(kept.select_columns(["doc_id"]).take_all())
    exp = df.sort_values("doc_id").drop_duplicates(subset=["content"], keep="first")
    assert sorted(got.doc_id) == sorted(exp.doc_id)
    # duplicates actually exist (canonical groups)
    assert len(exp) < len(df)


def test_skewed_dedup_correct_and_not_pathological(ray_session):
    """One mega-key holding half the rows: dedup_exact must (a) keep exactly
    the min-order row of the hot group, and (b) not degrade to per-group
    reduce cost — the pre-combine bounds the hot key at #batches rows, so
    the skewed run stays within ~2x of the uniform run on identical volume
    (bench criterion is 1.5x at sf0.1; the small-input bound here is looser
    because fixed overheads weigh more)."""
    import time

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from great_expectations_ray.stages.dedup import dedup_exact

    n = 200_000
    order = np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(3)
    vals = rng.integers(0, 1 << 40, n)

    def build(skewed: bool):
        k = np.arange(n, dtype=np.int64)
        if skewed:
            k = np.where(k % 2 == 0, 0, k)  # 50% of rows share key 0
        t = pa.table({"k": k, "o": order, "v": vals})
        return rd.from_arrow(t).repartition(16)

    def run(skewed: bool) -> tuple[float, "object"]:
        ds = build(skewed)
        t0 = time.time()
        out = dedup_exact(ds, ["k"], "o").to_pandas()
        return time.time() - t0, out

    # throwaway warm-up: the session's first bucketed exchange pays one-time
    # reduce-task spin-up that would otherwise land on the first timed leg
    run(False)
    # interleave legs so a host-bandwidth episode hits both sides alike
    t_u1, out_u = run(False)
    t_s, out_s = run(True)
    t_u2, _ = run(False)
    t_uniform = min(t_u1, t_u2)

    # correctness: uniform keeps everything; skewed keeps the hot group's
    # min-order row (o=0) plus every odd key
    assert len(out_u) == n
    assert len(out_s) == n // 2 + 1
    hot = out_s[out_s.k == 0]
    assert len(hot) == 1 and hot.iloc[0]["o"] == 0
    assert hot.iloc[0]["v"] == vals[0]

    assert t_s <= 2.0 * t_uniform, (
        f"skewed dedup {t_s:.2f}s vs uniform {t_uniform:.2f}s — hot key is "
        "hitting per-group reduce cost; pre-combine regressed")
