"""Relational building blocks: salted two-phase groupby under skew."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def test_salted_group_count_matches_plain_groupby(ray_session):
    import ray.data

    from sciscraper_ray.stages.relational import salted_group_count

    rng = np.random.default_rng(7)
    # one mega-hot key (~60% of rows) + a uniform tail — the skew shape
    # salting exists for
    keys = np.where(
        rng.random(20_000) < 0.6,
        "hot",
        np.char.add("k", rng.integers(0, 50, 20_000).astype(str)),
    )
    vals = rng.integers(0, 100, 20_000)
    t = pa.table({"host": keys, "v": vals.astype("int64")})

    out = (
        salted_group_count(
            ray.data.from_arrow(t), "host", salts=8, agg_cols={"v": "sum_v"}
        )
        .to_pandas()
        .sort_values("host")
        .reset_index(drop=True)
    )
    expected = (
        pd.DataFrame({"host": keys, "v": vals})
        .groupby("host")
        .agg(cnt=("v", "size"), sum_v=("v", "sum"))
        .reset_index()
        .sort_values("host")
        .reset_index(drop=True)
    )
    assert out["host"].tolist() == expected["host"].tolist()
    assert out["cnt"].tolist() == expected["cnt"].tolist()
    assert out["sum_v"].tolist() == expected["sum_v"].tolist()


def test_revenue_by_nation_matches_pandas(ray_session):
    import numpy as np
    import pandas as pd

    from sciscraper_ray.pipelines.queries import QUERIES

    sf = "/root/testdata/sf0.001"
    out = QUERIES["revenue_by_nation"](sf).to_pandas()
    orders = pd.read_parquet(sf + "/orders.parquet")
    cust = pd.read_parquet(sf + "/customer.parquet")
    nation = pd.read_parquet(sf + "/nation.parquet")
    region = pd.read_parquet(sf + "/region.parquet")
    j = (
        orders.merge(cust, left_on="o_custkey", right_on="c_custkey")
        .merge(nation, left_on="c_nationkey", right_on="n_nationkey")
        .merge(region, left_on="n_regionkey", right_on="r_regionkey")
    )
    j["cents"] = np.round(j["o_totalprice"].to_numpy() * 100).astype(np.int64)
    exp = (
        j.groupby(["r_name", "n_name"])
        .agg(revenue_cents=("cents", "sum"), n_orders=("cents", "size"))
        .reset_index()
        .sort_values(["r_name", "n_name"])
    )
    got = out.sort_values(["r_name", "n_name"]).reset_index(drop=True)
    assert got["revenue_cents"].tolist() == exp["revenue_cents"].tolist()
    assert got["n_orders"].tolist() == exp["n_orders"].tolist()
    assert got["n_name"].tolist() == exp["n_name"].tolist()


def test_bucketed_storage_join_matches_plain_join(ray_session):
    import numpy as np
    import pandas as pd

    from sciscraper_ray.pipelines.queries import QUERIES

    sf = "/root/testdata/sf0.001"
    out = QUERIES["bucketed_storage_join"](sf).to_pandas()
    orders = pd.read_parquet(sf + "/orders.parquet")
    cust = pd.read_parquet(sf + "/customer.parquet")
    j = orders.merge(
        cust[cust.c_mktsegment == "MACHINERY"],
        left_on="o_custkey",
        right_on="c_custkey",
    )
    j["cents"] = np.round(j["o_totalprice"].to_numpy() * 100).astype(np.int64)
    exp = (
        j.groupby("o_orderpriority")
        .agg(n_orders=("cents", "size"), revenue_cents=("cents", "sum"))
        .reset_index()
        .sort_values("o_orderpriority")
    )
    got = out.sort_values("o_orderpriority").reset_index(drop=True)
    assert got["o_orderpriority"].tolist() == exp["o_orderpriority"].tolist()
    assert got["n_orders"].tolist() == exp["n_orders"].tolist()
    assert got["revenue_cents"].tolist() == exp["revenue_cents"].tolist()


def test_orders_by_region_plan_parity(ray_session):
    """broadcast (small-side fast path) and bucketed (scale path) plans
    agree — the scale path must not depend on an sf-proportional
    broadcast (VERDICT r3 item 6)."""
    from sciscraper_ray.pipelines.queries import QUERIES

    sf = "/root/testdata/sf0.001"
    bc = QUERIES["orders_by_region"](sf, mode="broadcast").to_pandas()
    bk = QUERIES["orders_by_region"](sf, mode="bucketed").to_pandas()
    bc = bc.sort_values("r_name").reset_index(drop=True)
    bk = bk.sort_values("r_name").reset_index(drop=True)
    assert bc["r_name"].tolist() == bk["r_name"].tolist()
    assert bc["order_cnt"].tolist() == bk["order_cnt"].tolist()
    # Summation order differs between the two physical plans, so the
    # rounded doubles can differ in the last ULP — compare at cent
    # precision, not bitwise.
    import numpy as np

    assert np.allclose(
        bc["total_price"].to_numpy(), bk["total_price"].to_numpy(), atol=1e-6
    )
    assert len(bc) > 0


def test_group_count_matches_pandas_with_null_keys(ray_session):
    """The owner's merge keeps a null key as its own group (SQL GROUP BY,
    pandas ``dropna=False``) for string and int keys, over several blocks
    and an empty one, with the count, sums and max/min."""
    import ray.data

    from sciscraper_ray.stages.relational import group_count

    blocks = [
        {"s": ["a", None, "b", None], "i": [1, None, 2, 1], "v": [1, 2, 3, 4]},
        {"s": [], "i": [], "v": []},
        {"s": [None, "a", "c"], "i": [None, None, 3], "v": [5, 6, 7]},
        {"s": ["b"], "i": [2], "v": [8]},
    ]
    schema = pa.schema([("s", pa.string()), ("i", pa.int64()), ("v", pa.int64())])
    ds = ray.data.from_arrow([pa.table(b, schema=schema) for b in blocks])
    frame = pd.concat([pd.DataFrame(b) for b in blocks if b["v"]], ignore_index=True)
    frame["i"] = frame["i"].astype("Int64")

    for keys in (["s"], ["i"], ["s", "i"]):
        got = (
            group_count(
                ds,
                keys,
                {"v": "sum_v"},
                count="n",
                aggs={"max_v": ("v", "max"), "min_v": ("v", "min")},
            )
            .to_pandas()
            .astype({"i": "Int64"} if "i" in keys else {})
        )
        want = (
            frame.groupby(keys, dropna=False)
            .agg(
                n=("v", "size"),
                sum_v=("v", "sum"),
                max_v=("v", "max"),
                min_v=("v", "min"),
            )
            .reset_index()
        )
        assert list(got.columns) == keys + ["n", "sum_v", "max_v", "min_v"]

        def rows(df):
            cells = df.astype(object).where(df.notna(), None)
            return sorted(map(repr, cells.values.tolist()))

        assert rows(got) == rows(want[list(got.columns)]), keys

    # count=None leaves the count out; a string key alone names the group
    got = group_count(ds, "s", {"v": "v"}, count=None).to_pandas()
    assert list(got.columns) == ["s", "v"]
    assert sorted(got["v"].tolist()) == [7, 7, 11, 11]
