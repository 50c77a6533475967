"""§2.4 partitioners/samplers + join shapes vs pandas oracles."""

from __future__ import annotations

import hashlib

import pandas as pd
import pyarrow as pa
import pytest

from great_expectations_ray.functions.joins import (
    broadcast_join,
    broadcast_semi_anti,
    hash_bucket_join,
)
from great_expectations_ray.functions.partitioners import (
    partition_on_column_values,
    partition_on_divided_integer,
    partition_on_hashed_column,
    partition_on_mod_integer,
    sample_using_a_list,
)


@pytest.fixture(scope="module")
def small_ds():
    import ray.data as rd

    t = pa.table({
        "k": list(range(100)),
        "name": [f"n{i % 7}" for i in range(100)],
        "grp": [f"g{i % 3}" for i in range(100)],
    })
    return rd.from_arrow(t).repartition(4)


def test_divided_and_mod(small_ds):
    df = partition_on_divided_integer(small_ds, "k", 10).to_pandas()
    assert (df.partition_key == df.k // 10).all()
    df = partition_on_mod_integer(small_ds, "k", 7).to_pandas()
    assert (df.partition_key == df.k % 7).all()


def test_column_values_and_hashed(small_ds):
    df = partition_on_column_values(small_ds, ["name", "grp"]).to_pandas()
    assert (df.partition_key == df.name + "\x1f" + df.grp).all()
    df = partition_on_hashed_column(small_ds, "name", 8).to_pandas()
    exp = df.name.map(lambda v: int(hashlib.md5(str(v).encode()).hexdigest()[24:32], 16) % 8)
    assert (df.partition_key == exp).all()


def test_sample_using_a_list(small_ds):
    out = sample_using_a_list(small_ds, "name", ["n0", "n1"]).to_pandas()
    assert set(out.name) == {"n0", "n1"}
    assert len(out) == sum(1 for i in range(100) if i % 7 in (0, 1))


def test_broadcast_join_and_semi_anti(small_ds):
    dim = pd.DataFrame({"grp": ["g0", "g1", "g2"], "label": ["A", "B", "C"]})
    out = broadcast_join(small_ds, dim, on="grp").to_pandas()
    assert len(out) == 100
    assert (out.label == out.grp.str[1].map({"0": "A", "1": "B", "2": "C"})).all()

    semi = broadcast_semi_anti(small_ds, ["n0"], on="name").to_pandas()
    assert set(semi.name) == {"n0"}
    anti = broadcast_semi_anti(small_ds, ["n0"], on="name", anti=True).to_pandas()
    assert "n0" not in set(anti.name)
    assert len(semi) + len(anti) == 100


def test_hash_bucket_join_matches_pandas(small_ds):
    import ray.data as rd

    right = pa.table({"k": list(range(0, 100, 2)), "flag": [True] * 50})
    rds = rd.from_arrow(right).repartition(3)
    out = hash_bucket_join(small_ds, rds, on="k", n_buckets=8).to_pandas()
    left_df = small_ds.to_pandas()
    exp = left_df.merge(right.to_pandas(), on="k", how="inner")
    got = out.sort_values("k").reset_index(drop=True)[["k", "name", "grp", "flag"]]
    exp = exp.sort_values("k").reset_index(drop=True)[["k", "name", "grp", "flag"]]
    got["flag"] = got.flag.astype(bool)  # union null-padding makes it nullable
    pd.testing.assert_frame_equal(got, exp)


def test_hash_bucket_join_string_key():
    import ray.data as rd

    l = rd.from_arrow(pa.table({"s": ["a", "b", "c", "a"], "x": [1, 2, 3, 4]}))
    r = rd.from_arrow(pa.table({"s": ["a", "c"], "y": [10, 30]}))
    out = hash_bucket_join(l, r, on="s", n_buckets=4).to_pandas()
    assert len(out) == 3
    assert set(zip(out.s, out.y)) == {("a", 10), ("a", 10), ("c", 30)} or \
        sorted(out.y) == [10, 10, 30]


def test_setops_intersect_except(ray_session):
    import pandas as pd
    import ray.data as rd

    from great_expectations_ray.functions.setops import (
        except_distinct,
        intersect_distinct,
    )

    a = rd.from_pandas(pd.DataFrame({"k": [1, 1, 2, 3, None]})).repartition(3)
    b = rd.from_pandas(pd.DataFrame({"k": [2, 2, 4, None]})).repartition(2)
    inter = sorted(intersect_distinct(a, b, ["k"]).to_pandas()["k"].tolist(),
                   key=lambda v: (v != v, v))  # NaN sorts last
    exc = sorted(except_distinct(a, b, ["k"]).to_pandas()["k"].tolist())
    # SQL set semantics: NULL keys compare equal in INTERSECT/EXCEPT
    assert inter[0] == 2 and len(inter) == 2  # {2, NULL}
    assert exc == [1, 3]


def test_setops_empty_except_side_keeps_integer_dtype(ray_session):
    """Regression for the r2 red row: when EXCEPT returns zero rows, a
    pd.concat with the empty frame must not leave the key as float64
    downstream — the query-glue pattern in q_setops_nations restores the
    source dtype.  Here we exercise the engine on an empty result and the
    concat-restore pattern directly."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from great_expectations_ray.functions.setops import (
        except_distinct,
        intersect_distinct,
    )

    a = rd.from_pandas(
        pd.DataFrame({"k": pd.array([1, 2, 3], dtype="int32")})
    ).repartition(2)
    b = rd.from_pandas(
        pd.DataFrame({"k": pd.array([1, 2, 3, 4], dtype="int32")})
    ).repartition(2)
    both = intersect_distinct(a, b, ["k"]).to_pandas()
    only = except_distinct(a, b, ["k"]).to_pandas()  # empty: A ⊆ B
    assert len(only) == 0 and len(both) == 3
    out = pd.concat([both, only], ignore_index=True)
    # the concat with an empty side upcasts — the query glue must restore
    out["k"] = out["k"].astype(np.int32)
    assert out["k"].dtype == np.int32
    assert sorted(out["k"].tolist()) == [1, 2, 3]


def test_window_rank_functions(ray_session):
    import pandas as pd
    import ray.data as rd

    from great_expectations_ray.functions.window_rank import windowed_rank

    df = pd.DataFrame({
        "k": ["a", "a", "a", "b", "b"],
        "o": [3, 1, 1, 10, 5],  # ties within key 'a'
        "v": [30.0, 10.0, 20.0, 100.0, 50.0],
        "id": [0, 1, 2, 3, 4],
    })
    out = (
        windowed_rank(rd.from_pandas(df).repartition(3), partition_by="k",
                      order_by="o", value_col="v",
                      outputs=("row_number", "rank", "dense_rank", "lag", "lead"),
                      keep_cols=("id",))
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    by_id = out.set_index("id")
    assert by_id.loc[0, "row_number"] == 3  # o=3 last within 'a'
    assert by_id.loc[0, "rank"] == 3 and by_id.loc[0, "dense_rank"] == 2
    assert by_id.loc[1, "rank"] == 1 and by_id.loc[2, "rank"] == 1  # tie
    assert by_id.loc[3, "lag"] == 50.0  # prior row of 'b' by o
    assert pd.isna(by_id.loc[4, "lag"]) and by_id.loc[4, "lead"] == 100.0

    with pytest.raises(ValueError):
        windowed_rank(rd.from_pandas(df), partition_by="k", order_by="o",
                      outputs=("lag",))


def test_window_rank_composite_order_and_nulls(ray_session):
    import pandas as pd
    import ray.data as rd

    from great_expectations_ray.functions.window_rank import windowed_rank

    df = pd.DataFrame({
        "k": ["a", "a", "a", "b", "b", "b"],
        "o1": [1, 1, 2, 5, None, 5],
        "o2": [2, 1, 1, 9, 9, 9],
        "id": [0, 1, 2, 3, 4, 5],
    })
    out = (
        windowed_rank(rd.from_pandas(df).repartition(2), partition_by="k",
                      order_by=["o1", "o2"],
                      outputs=("row_number", "rank", "dense_rank"),
                      keep_cols=("id",))
        .to_pandas().set_index("id")
    )
    # key 'a': (1,1) < (1,2) < (2,1) — composite ordering, no ties
    assert out.loc[1, "row_number"] == 1 and out.loc[0, "row_number"] == 2
    assert out.loc[2, "rank"] == 3 and out.loc[2, "dense_rank"] == 3
    # key 'b': (5,9) ties twice, null o1 sorts LAST and still gets a rank
    assert out.loc[3, "rank"] == 1 and out.loc[5, "rank"] == 1
    assert out.loc[4, "row_number"] == 3 and out.loc[4, "rank"] == 3
    assert out.loc[4, "dense_rank"] == 2
    # rank must not leak across partitions (id=3 is b's first row)
    assert out.loc[3, "row_number"] == 1


def test_sample_exact_n_is_partitioning_free(ray_session):
    """md5-ordered exact-N sample: same N rows under any partitioning;
    count is EXACTLY n (RNG-free, unlike p-based random_sample)."""
    import pandas as pd
    import ray.data as rd

    from great_expectations_ray.functions.partitioners import sample_exact_n

    df = pd.DataFrame({"id": range(200), "v": [f"s{i}" for i in range(200)]})
    a = sample_exact_n(rd.from_pandas(df), 17, column="id", keep_cols=["v"])
    b = sample_exact_n(rd.from_pandas(df).repartition(9), 17, column="id",
                       keep_cols=["v"])
    assert len(a) == 17
    assert sorted(a["id"]) == sorted(b["id"])
    # matches the SQL spec ordering exactly
    import hashlib
    want = sorted(range(200),
                  key=lambda i: (hashlib.md5(str(i).encode()).hexdigest(), i))[:17]
    assert sorted(a["id"]) == sorted(want)


def test_bucketed_semi_anti_matches_broadcast(small_ds):
    """The dataset-keyed semi/anti (scale path for candidate sets too large
    to collect) must emit exactly what the broadcast key-set path emits,
    with int dtypes kept through the null-padded union."""
    import ray.data as rd

    keys = [3, 5, 8, 13, 21, 34, 55, 89, 144]  # 144 not in ds
    keys_ds = rd.from_arrow(pa.table({"k": keys})).repartition(2)

    for anti in (False, True):
        got = (hash_bucket_join(small_ds, keys_ds, on="k",
                                how="anti" if anti else "semi", n_buckets=8)
               .to_pandas().sort_values("k").reset_index(drop=True))
        want = (broadcast_semi_anti(small_ds, keys, on="k", anti=anti)
                .to_pandas().sort_values("k").reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want)
        assert got["k"].dtype.kind == "i"  # union padding must not floatify


def test_bucketed_semi_anti_string_key(ray_session):
    import ray.data as rd

    left = rd.from_arrow(pa.table({
        "name": [f"doc{i}" for i in range(50)],
        "score": list(range(50)),
    })).repartition(3)
    keys_ds = rd.from_arrow(pa.table(
        {"name": ["doc7", "doc7", "doc13", "nope"]}))  # dup keys: no row dup
    got = (hash_bucket_join(left, keys_ds, on="name", how="semi", n_buckets=4)
           .to_pandas().sort_values("score").reset_index(drop=True))
    assert got["name"].tolist() == ["doc7", "doc13"]
    assert got["score"].tolist() == [7, 13]
    assert got["score"].dtype.kind == "i"
