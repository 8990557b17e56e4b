"""Round-2 widening ops: quantiles, repetition, anti-join, bigram LM,
stratified sampling. Oracle parity runs in tools/check_correctness.py;
these tests pin the kernel-level contracts and degenerate inputs."""

import numpy as np
import pyarrow as pa

from sciscraper_ray.kernels.md5 import md5_hex15
from sciscraper_ray.pipelines.queries import QUERIES
from sciscraper_ray.pipelines.queries.dedup import _ngram_positions
from sciscraper_ray.pipelines.queries.round2 import _STRATA_RATES

SF = "/root/testdata/sf0.001"


def test_ngram_positions_degenerates():
    b = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array([None, "", "a", "a b a b c"], pa.string()),
        }
    )
    pos, ng = _ngram_positions(b, 2)
    # only the 4-token doc (row position 3) yields bigrams; none cross rows
    assert pos.tolist() == [3, 3, 3, 3]
    assert ng.to_pylist() == ["a b", "b a", "a b", "b c"]
    # n larger than any doc -> empty, not an error
    pos5, ng5 = _ngram_positions(b, 6)
    assert len(pos5) == 0 and len(ng5) == 0


def test_repetition_counts_and_keep():
    out = QUERIES["doc_repetition"](SF).to_pandas().set_index("doc_id")
    assert (out["n_repeated"] <= out["n_bigrams"]).all()
    # keep is the integer predicate, never a float ratio
    assert (
        out["keep"] == (out["n_repeated"] * 5 < out["n_bigrams"])
    ).all()


def test_quantiles_ordered_within_group():
    t = QUERIES["lineitem_quantiles"](SF).to_pandas()
    for _, g in t.groupby("l_returnflag"):
        g = g.sort_values("p")
        assert g["q_value"].is_monotonic_increasing or len(g) == 1
        assert set(g["p"]) == {0.25, 0.5, 0.75}


def test_anti_join_disjoint():
    import ray.data

    anti = QUERIES["orders_anti_join"](SF).to_pandas()
    li_keys = set(
        ray.data.read_parquet(
            f"{SF}/lineitem.parquet", columns=["l_orderkey"]
        )
        .to_pandas()["l_orderkey"]
    )
    assert not (set(anti["o_orderkey"]) & li_keys)


def test_bigram_next_is_argmax():
    t = QUERIES["token_bigram_next"](SF).to_pandas()
    assert t["token"].is_unique
    assert (t["cnt"] >= 1).all()


def test_stratified_rates_deterministic():
    out1 = QUERIES["doc_sample_stratified"](SF).to_pandas()
    out2 = QUERIES["doc_sample_stratified"](SF).to_pandas()
    assert sorted(out1["doc_id"]) == sorted(out2["doc_id"])
    for _, row in out1.iterrows():
        rate = _STRATA_RATES.get(row["lang"], 1)
        assert md5_hex15([str(row["doc_id"])])[0] % 10 < rate


def test_bucketed_join_multiplicity():
    import ray.data

    joined = QUERIES["order_lineitem_join"](SF).to_pandas()
    li = ray.data.read_parquet(
        f"{SF}/lineitem.parquet", columns=["l_orderkey"]
    ).to_pandas()
    # inner join on the FK: every lineitem row appears exactly once
    assert len(joined) == len(li)
    assert joined["o_orderpriority"].notna().all()


def test_bucketed_join_rejects_name_overlap():
    import pytest
    import ray.data

    from sciscraper_ray.stages.relational import bucketed_hash_join

    a = ray.data.read_parquet(f"{SF}/orders.parquet", columns=["o_orderkey"])
    with pytest.raises(ValueError, match="share column names"):
        bucketed_hash_join(a, a, left_on="o_orderkey", right_on="o_orderkey")


def test_sliding_window_mass_conservation():
    import ray.data

    out = QUERIES["events_sliding"](SF).to_pandas()
    n_events = ray.data.read_parquet(f"{SF}/events.parquet").count()
    # every event lands in exactly 4 panes
    assert out["cnt"].sum() == 4 * n_events


def test_topk_users_rank_contract():
    t = QUERIES["events_topk_users"](SF).to_pandas()
    for _, g in t.groupby("event_type"):
        g = g.sort_values("rnk")
        assert list(g["rnk"]) == list(range(1, len(g) + 1))
        assert (g["total_value"].diff().dropna() <= 0).all()


def test_user_cumsum_final_equals_total():
    import ray.data

    out = QUERIES["events_user_cumsum"](SF).to_pandas()
    ev = ray.data.read_parquet(f"{SF}/events.parquet").to_pandas()
    finals = out.groupby("user_id")["cum_value"].max()
    totals = ev.groupby("user_id")["value"].sum().round(4)
    assert (finals.round(4) == totals).all()


def test_length_rank_is_permutation():
    out = QUERIES["doc_length_rank"](SF).to_pandas()
    assert sorted(out["rnk"]) == list(range(1, len(out) + 1))
    s = out.sort_values("rnk")
    assert s["n_chars"].is_monotonic_increasing


def test_moments_match_numpy():
    import ray.data

    out = QUERIES["lineitem_moments"](SF).to_pandas().set_index("l_returnflag")
    li = ray.data.read_parquet(
        f"{SF}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    ).to_pandas()
    for flag, g in li.groupby("l_returnflag"):
        row = out.loc[flag]
        assert row["cnt"] == len(g)
        assert abs(row["std_qty"] - g["l_quantity"].std(ddof=1)) < 1e-5
        assert (
            abs(row["corr_qty_price"] - g["l_quantity"].corr(g["l_extendedprice"]))
            < 1e-5
        )


def test_rollup_levels_consistent():
    out = QUERIES["orders_rollup"](SF).to_pandas()
    fine = out[(out["status"] != "ALL") & (out["priority"] != "ALL")]
    grand = out[(out["status"] == "ALL") & (out["priority"] == "ALL")]
    assert int(grand["cnt"].iloc[0]) == int(fine["cnt"].sum())
    mid = out[(out["status"] != "ALL") & (out["priority"] == "ALL")]
    assert mid["cnt"].sum() == fine["cnt"].sum()


def test_dup_substring_plan_parity():
    import ray.data

    from sciscraper_ray.pipelines.substr import dup_substring_mass

    docs = ray.data.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    d = dup_substring_mass(docs, k=20, plan="driver").to_pandas()
    s = dup_substring_mass(docs, k=20, plan="shuffle").to_pandas()
    d = d.sort_values("doc_id").reset_index(drop=True)
    s = s.sort_values("doc_id").reset_index(drop=True)
    assert d.equals(s)
    assert (d["n_dup"] <= d["n_grams"]).all()
    assert d["n_dup"].sum() > 0  # corpus has natural near-copies


def test_dup_substring_kernel_semantics():
    import ray.data

    from sciscraper_ray.pipelines.substr import dup_substring_mass

    base = "abcdefghijklmnopqrstuvwxyz0123456789ABCD"
    rows = [
        {"doc_id": 1, "text": base + " unique tail one"},
        {"doc_id": 2, "text": base + " other ending two"},  # shares 20-grams of base
        {"doc_id": 3, "text": "zz"},  # too short: 0 grams
        {"doc_id": 4, "text": None},  # null text: 0 grams
        {"doc_id": 5, "text": "q" * 50},  # within-doc repeats only
    ]
    out = (
        dup_substring_mass(ray.data.from_items(rows), k=20, plan="driver")
        .to_pandas()
        .set_index("doc_id")
    )
    assert out.loc[3, "n_grams"] == 0 and out.loc[4, "n_grams"] == 0
    # doc 5: all 31 grams are the same 'q'*20 gram -> all duplicated
    assert out.loc[5, "n_grams"] == 31 and out.loc[5, "n_dup"] == 31
    # docs 1/2 share the 21 grams fully inside `base` (windows that end
    # at or before position len(base)) -> both have dup mass, less than total
    assert 0 < out.loc[1, "n_dup"] < out.loc[1, "n_grams"]
    assert out.loc[1, "n_dup"] == out.loc[2, "n_dup"]


def test_levenshtein_kernel():
    from sciscraper_ray.pipelines.dedup import levenshtein_np

    assert levenshtein_np("kitten", "sitting") == 3
    assert levenshtein_np("", "") == 0
    assert levenshtein_np("a", "") == 1
    assert levenshtein_np("flaw", "lawn") == 2
    assert levenshtein_np("abcdef", "abcdef") == 0


def test_editdist_blocking_no_false_negatives():
    import ray.data

    from sciscraper_ray.pipelines.dedup import levenshtein_np, near_dup_pairs_editdist

    rows = [
        {"doc_id": 1, "text": "the quick brown fox jumps over the lazy dog"},
        {"doc_id": 2, "text": "the quick brown fox jumps over the lazy do"},  # d=1
        {"doc_id": 3, "text": "the quick brown fox leaps over the lazy dog"},  # d<=5
        {"doc_id": 4, "text": "completely different content here entirely xx"},
        {"doc_id": 5, "text": None},
    ]
    got = near_dup_pairs_editdist(
        ray.data.from_items(rows), max_dist=8
    ).to_pandas()
    got_pairs = set(zip(got["a"], got["b"]))
    # brute-force expectation
    want = set()
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            ta, tb = rows[i]["text"], rows[j]["text"]
            if ta is not None and tb is not None and levenshtein_np(ta, tb) <= 8:
                want.add((rows[i]["doc_id"], rows[j]["doc_id"]))
    assert got_pairs == want and (1, 2) in want


def test_lag_delta_nulls_and_positive():
    out = QUERIES["events_lag_delta"](SF).to_pandas()
    # one NULL (first event) per user; all other deltas non-negative
    per_user_nulls = out.groupby("user_id")["delta_us"].apply(lambda s: s.isna().sum())
    assert (per_user_nulls == 1).all()
    assert (out["delta_us"].dropna() >= 0).all()


def test_pivot_columns_sum_to_total():
    import ray.data

    out = QUERIES["events_pivot_hourly"](SF).to_pandas()
    total = ray.data.read_parquet(f"{SF}/events.parquet").count()
    pivot_cols = [c for c in out.columns if c.startswith("n_")]
    assert out[pivot_cols].to_numpy().sum() == total


def test_ntile_sizes():
    out = QUERIES["doc_ntile"](SF).to_pandas()
    sizes = out["decile"].value_counts()
    assert set(sizes.index) == set(range(1, 11))
    assert sizes.max() - sizes.min() <= 1
    # deciles ordered by n_chars
    s = out.sort_values(["n_chars", "doc_id"])
    assert s["decile"].is_monotonic_increasing


def test_distinct_users_vs_pandas():
    import ray.data

    out = QUERIES["events_distinct_users"](SF).to_pandas().set_index("event_type")
    ev = ray.data.read_parquet(f"{SF}/events.parquet").to_pandas()
    want = ev.groupby("event_type")["user_id"].nunique()
    for t, n in want.items():
        assert out.loc[t, "n_users"] == n


def test_heavy_hitters_threshold_exact():
    import ray.data

    from sciscraper_ray.kernels.tokenize import tokenize_column
    import pyarrow.compute as pc

    out = QUERIES["token_heavy_hitters"](SF).to_pandas()
    docs = ray.data.read_parquet(f"{SF}/documents.parquet", columns=["text"]).to_pandas()
    toks = pc.list_flatten(tokenize_column(pa.array(docs["text"]))).to_pandas()
    counts = toks.value_counts()
    n = len(toks)
    want = counts[counts * 200 > n]
    assert set(out["token"]) == set(want.index)
    got = out.set_index("token")["cnt"]
    assert all(got[t] == c for t, c in want.items())


def test_centroid_norms_reasonable():
    out = QUERIES["embedding_group_centroid"](SF).to_pandas()
    import re

    cs = [c for c in out.columns if re.fullmatch(r"c\d+", c)]
    assert len(cs) == 64 and out["cnt"].sum() == 500
    # centroids of unit-ish vectors have norm <= 1
    norms = np.sqrt((out[cs].to_numpy() ** 2).sum(axis=1))
    assert (norms <= 1.0).all()


def test_zscore_is_standardized():
    out = QUERIES["events_zscore"](SF).to_pandas()
    g = out.groupby("event_type")["z"]
    assert np.allclose(g.mean(), 0, atol=1e-4)
    assert np.allclose(g.std(ddof=1), 1, atol=1e-3)


def test_funnel_monotonic():
    row = QUERIES["events_funnel"](SF).to_pandas().iloc[0]
    assert row["n_view"] >= row["n_click_after_view"] >= row["n_full_funnel"] >= 0


def test_pack_offsets_contiguous():
    out = QUERIES["doc_pack_offsets"](SF).to_pandas().sort_values("doc_id")
    expect = np.concatenate(([0], np.cumsum(out["n_tokens"].to_numpy()[:-1])))
    assert (out["start_offset"].to_numpy() == expect).all()
    assert (out["seq_id"] == out["start_offset"] // 2048).all()


def test_leftjoin_keeps_orderless_customers():
    import ray.data

    out = QUERIES["customer_orders_leftjoin"](SF).to_pandas()
    cust = ray.data.read_parquet(f"{SF}/customer.parquet").count()
    orders = ray.data.read_parquet(
        f"{SF}/orders.parquet", columns=["o_custkey"]
    ).to_pandas()
    assert len(out) == cust  # every customer survives the left join
    want = orders.groupby("o_custkey").size()
    got = out.set_index("c_custkey")["n_orders"]
    n_zero = cust - len(want)
    assert (got == 0).sum() == n_zero
    assert all(got[k] == v for k, v in want.items())
    assert ((out["n_orders"] == 0) == (out["spend"] == 0)).all()


def test_gram_symmetric_psd_diagonal():
    out = QUERIES["embedding_gram"](SF).to_pandas()
    d = int(out["i"].max()) + 1
    m = out.sort_values(["i", "j"])["m2"].to_numpy().reshape(d, d)
    assert np.allclose(m, m.T, atol=1e-9)
    assert (np.diag(m) >= 0).all()
    ev = np.linalg.eigvalsh(m)
    assert ev.min() > -1e-8  # PSD up to rounding
