"""Product quantization (stages/pq.py): bit-reproducibility of codebooks,
codes and ADC scores under re-partitioning (fixed-point integer partials),
driver fast path == distributed path, and ADC ranking against exact cosine."""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from great_expectations_ray.stages.pq import (
    PQModel,
    encode_pq,
    fit_pq,
)


def _emb_df(n: int = 150, dim: int = 16, seed: int = 9) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((5, dim)) * 2.5
    rows = centers[rng.integers(0, 5, n)] + 0.25 * rng.standard_normal((n, dim))
    rows = np.clip(rows, -7.9, 7.9).astype(np.float32)
    return pd.DataFrame({"vec_id": np.arange(n, dtype=np.int64),
                         "embedding": [list(map(float, r)) for r in rows]})


def test_pq_bitwise_stable_under_repartition(ray_session):
    df = _emb_df()
    ds1 = rd.from_pandas(df)
    ds2 = rd.from_pandas(df).repartition(7)
    m1 = fit_pq(ds1, m=4, ncodes=8, iters=4, seed=3, max_driver_rows=0)
    m2 = fit_pq(ds2, m=4, ncodes=8, iters=4, seed=3, max_driver_rows=0)
    assert np.array_equal(m1.C, m2.C)  # bit-identical, not allclose

    q = np.asarray(df["embedding"].iloc[0], dtype=np.float64)
    e1 = encode_pq(ds1, m1, query=q).to_pandas().sort_values("vec_id")
    e2 = encode_pq(ds2, m2, query=q).to_pandas().sort_values("vec_id")
    assert e1["code"].tolist() == e2["code"].tolist()
    assert e1["adc"].tolist() == e2["adc"].tolist()  # exact float equality


def test_pq_driver_fast_path_matches_distributed(ray_session):
    df = _emb_df(n=90)
    ds = rd.from_pandas(df).repartition(5)
    m_dist = fit_pq(ds, m=4, ncodes=8, iters=3, seed=7, max_driver_rows=0)
    m_fast = fit_pq(ds, m=4, ncodes=8, iters=3, seed=7, max_driver_rows=10_000)
    assert np.array_equal(m_dist.C, m_fast.C)


def test_pq_code_packing_and_range(ray_session):
    df = _emb_df(n=80)
    ds = rd.from_pandas(df)
    model = fit_pq(ds, m=4, ncodes=8, iters=3, seed=1)
    enc = encode_pq(ds, model).to_pandas()
    assert enc["code"].between(0, 8 ** 4 - 1).all()
    # unpack round-trips through PQModel.pack
    codes = np.stack([((enc["code"].to_numpy() // (8 ** s)) % 8)
                      for s in range(4)], axis=1)
    assert np.array_equal(model.pack(codes), enc["code"].to_numpy())


def test_pq_adc_approximates_cosine_and_topk(ray_session):
    df = _emb_df(n=200)
    ds = rd.from_pandas(df)
    model = fit_pq(ds, m=4, ncodes=16, iters=6, seed=5)
    q = np.asarray(df["embedding"].iloc[3], dtype=np.float64)
    # ADC approximates true cosine: rank correlation with exact cosine > 0.7
    M = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q)
    exact = Mn @ qn
    enc = encode_pq(ds, model, query=q).to_pandas().sort_values("vec_id")
    adc = enc["adc"].to_numpy()
    ra, rb = np.argsort(np.argsort(exact)), np.argsort(np.argsort(adc))
    rho = np.corrcoef(ra, rb)[0, 1]
    assert rho > 0.7


def test_pq_model_assign_tie_breaks_low_code():
    # two identical centroids -> argmax must pick the lower code index
    C = np.zeros((1, 2, 4))
    C[0, 0] = [1.0, 0, 0, 0]
    C[0, 1] = [1.0, 0, 0, 0]
    model = PQModel(C)
    codes = model.assign(np.array([[1.0, 0, 0, 0]]))
    assert codes[0, 0] == 0
