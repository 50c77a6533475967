from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    # workers' prints stay in their log files: forwarded to the driver they
    # land in the stdout the CLI tests parse as JSON
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
        log_to_driver=False,
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def fixture_table() -> pa.Table:
    """F2-style conformance table (FIXTURES.md): typed columns exercising
    nulls, mostly boundaries, vacuous truth, pairs, multicolumn."""
    rng = np.random.default_rng(42)
    n = 100
    return pa.table(
        {
            "s_clean": pa.array([f"abc_{i}" for i in range(n)], pa.string()),
            "s_mixed": pa.array(
                ["match"] * 80 + ["NOPE"] * 10 + [None] * 10, pa.string()
            ),
            "s_allnull": pa.array([None] * n, pa.string()),
            "n_int": pa.array(
                [int(x) for x in rng.integers(0, 50, n - 5)] + [None] * 5, pa.int64()
            ),
            "n_float": pa.array(rng.normal(10.0, 2.0, n), pa.float64()),
            "dup_key": pa.array([f"k{i % 40}" for i in range(n)], pa.string()),
            "pair_a": pa.array([1] * 50 + [2] * 40 + [None] * 10, pa.int64()),
            "pair_b": pa.array([1] * 45 + [0] * 45 + [None] * 10, pa.int64()),
            "mc_1": pa.array([1] * n, pa.int64()),
            "mc_2": pa.array([2] * n, pa.int64()),
            "mc_3": pa.array([3] * 90 + [1] * 10, pa.int64()),
            "js": pa.array(
                ['{"a": 1}'] * 70 + ["not json"] * 20 + [None] * 10, pa.string()
            ),
        }
    )


@pytest.fixture()
def fixture_ds(fixture_table):
    import ray.data as rd

    # multiple blocks so partial-merge paths are exercised
    return rd.from_arrow(fixture_table).repartition(7)
