"""Moving-window aggregates (functions/window_rank.py)."""


def test_moving_window_aggregates_match_pandas_rolling():
    """moving_sum / moving_avg == pandas rolling over each partition."""
    import numpy as np
    import pandas as pd
    import ray

    from great_expectations_ray.functions.window_rank import windowed_rank

    rng = np.random.default_rng(9)
    df = pd.DataFrame({
        "k": [f"p{i % 3}" for i in range(60)],
        "o": np.arange(60),
        "v": rng.integers(0, 1000, size=60),
    })
    ds = ray.data.from_pandas(df).repartition(5)
    out = (windowed_rank(ds, partition_by="k", order_by="o", value_col="v",
                         outputs=("moving_sum", "moving_avg"), frame_rows=3)
           .to_pandas().sort_values(["k", "o"]).reset_index(drop=True))
    ref = df.sort_values(["k", "o"]).reset_index(drop=True)
    roll = ref.groupby("k")["v"].rolling(4, min_periods=1)
    exp_sum = roll.sum().reset_index(drop=True)
    exp_avg = roll.mean().reset_index(drop=True)
    assert np.allclose(out["moving_sum"], exp_sum)
    assert np.allclose(out["moving_avg"], exp_avg)


def test_moving_window_requires_value_col():
    import pytest
    import ray

    from great_expectations_ray.functions.window_rank import windowed_rank

    ds = ray.data.from_items([{"k": 1, "o": 1}])
    with pytest.raises(ValueError):
        windowed_rank(ds, partition_by="k", order_by="o",
                      outputs=("moving_avg",))


def test_sessionize_gap_semantics(ray_session):
    """Gap-based sessions: 1-based index, strict-> gap comparison (a gap of
    exactly `gap` stays in-session), numeric ts supported, null-safe
    first-row start, partition-invariant."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from great_expectations_ray.functions.window_rank import sessionize

    ts = pd.to_datetime([
        "2026-01-01 00:00", "2026-01-01 00:30", "2026-01-01 02:00",  # u1: gap 90m splits
        "2026-01-01 00:00", "2026-01-01 01:00",                      # u2: gap == 60m stays
        "2026-01-01 00:00",                                          # u3: singleton
    ])
    df = pd.DataFrame({
        "u": ["u1", "u1", "u1", "u2", "u2", "u3"],
        "eid": [1, 2, 3, 4, 5, 6],
        "ts": ts,
    })

    def run(nparts):
        out = sessionize(rd.from_pandas(df).repartition(nparts),
                         partition_by="u", order_by=["ts", "eid"],
                         ts_col="ts", gap="60 minutes", keep_cols=("eid",))
        return (out.to_pandas().sort_values("eid")["session_idx"]
                .astype(int).tolist())

    a, b = run(1), len(df) and run(3)
    assert a == b == [1, 1, 2, 1, 1, 1]

    # numeric ts column
    nd = pd.DataFrame({"u": ["x"] * 4, "eid": [1, 2, 3, 4],
                       "t": [0.0, 5.0, 20.0, 21.0]})
    out = sessionize(rd.from_pandas(nd), partition_by="u",
                     order_by=["t", "eid"], ts_col="t", gap=10,
                     keep_cols=("eid",)).to_pandas().sort_values("eid")
    assert out["session_idx"].astype(int).tolist() == [1, 1, 2, 2]
