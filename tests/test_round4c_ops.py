"""Round-4 session-C additions: TPC-H-style distribution/threshold ops
(Q13/Q11/Q22 shapes, CUBE), each recomputed from first principles in
pandas/numpy (oracle parity runs in tools/check_correctness.py)."""

import numpy as np
import pandas as pd

from sciscraper_ray.pipelines.queries import QUERIES

SF = "/root/testdata/sf0.001"


def _df(out):
    return out.to_pandas() if hasattr(out, "to_pandas") else out


def test_customer_order_dist_matches_left_join(ray_session):
    got = _df(QUERIES["customer_order_dist"](SF))
    cust = pd.read_parquet(SF + "/customer.parquet", columns=["c_custkey"])
    orders = pd.read_parquet(SF + "/orders.parquet", columns=["o_custkey"])
    per = (
        cust.merge(
            orders.groupby("o_custkey").size().rename("c_count"),
            left_on="c_custkey",
            right_index=True,
            how="left",
        )["c_count"]
        .fillna(0)
        .astype(np.int64)
    )
    want = per.value_counts().rename_axis("c_count").reset_index(name="custdist")
    got = got.sort_values(["c_count"]).reset_index(drop=True)
    want = want.sort_values(["c_count"]).reset_index(drop=True)
    assert (got["c_count"].to_numpy() == want["c_count"].to_numpy()).all()
    assert (got["custdist"].to_numpy() == want["custdist"].to_numpy()).all()
    # the headline ordering: custdist desc, c_count desc
    ordered = _df(QUERIES["customer_order_dist"](SF))
    pairs = list(zip(-ordered["custdist"], -ordered["c_count"]))
    assert pairs == sorted(pairs)


def test_part_value_threshold_matches_integer_math(ray_session):
    got = _df(QUERIES["part_value_threshold"](SF)).sort_values(
        ["value_c2", "l_partkey"], ascending=[False, True]
    )
    li = pd.read_parquet(
        SF + "/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount"],
    )
    cents = np.round(li["l_extendedprice"].to_numpy() * 100).astype(object)
    bp = np.round(li["l_discount"].to_numpy() * 100).astype(object)
    li["v"] = cents * (100 - bp)
    pv = li.groupby("l_partkey")["v"].sum()
    total = int(pv.sum())
    n_parts = len(pd.read_parquet(SF + "/part.parquet", columns=["p_partkey"]))
    want = pv[pv * 2 * n_parts > 3 * total].sort_values(ascending=False)
    want = (
        want.rename("value_c2")
        .reset_index()
        .sort_values(["value_c2", "l_partkey"], ascending=[False, True])
        .head(100)
    )
    assert len(got) == len(want)
    assert (got["l_partkey"].to_numpy() == want["l_partkey"].to_numpy()).all()
    assert (
        got["value_c2"].to_numpy().astype(np.int64)
        == want["value_c2"].to_numpy().astype(np.int64)
    ).all()


def test_customer_idle_highvalue_matches_pandas(ray_session):
    got = _df(QUERIES["customer_idle_highvalue"](SF)).set_index("n_name")
    cust = pd.read_parquet(SF + "/customer.parquet")
    orders = pd.read_parquet(
        SF + "/orders.parquet", columns=["o_custkey", "o_orderpriority"]
    )
    nation = pd.read_parquet(SF + "/nation.parquet")
    bal = np.round(cust["c_acctbal"].to_numpy() * 100).astype(np.int64)
    pos = bal[bal > 0]
    urgent = set(
        orders.loc[orders["o_orderpriority"] == "1-URGENT", "o_custkey"]
    )
    keep = (bal * len(pos) > pos.sum()) & ~cust["c_custkey"].isin(urgent)
    idle = cust[keep].copy()
    idle["bal_c"] = bal[keep]
    idle = idle.merge(
        nation, left_on="c_nationkey", right_on="n_nationkey"
    )
    want = idle.groupby("n_name").agg(
        numcust=("c_custkey", "size"), totacctbal_c=("bal_c", "sum")
    )
    assert len(got) == len(want) > 0
    want = want.sort_index()
    got = got.sort_index()
    assert (got["numcust"].to_numpy() == want["numcust"].to_numpy()).all()
    assert (
        got["totacctbal_c"].to_numpy() == want["totacctbal_c"].to_numpy()
    ).all()


def test_orders_grouping_sets_is_consistent_cube(ray_session):
    got = _df(QUERIES["orders_grouping_sets"](SF))
    orders = pd.read_parquet(SF + "/orders.parquet")
    cents = np.round(orders["o_totalprice"].to_numpy() * 100).astype(np.int64)
    orders = orders.assign(c=cents)
    fine = orders.groupby(["o_orderpriority", "o_orderstatus"])["c"].agg(
        ["sum", "size"]
    )
    n_pri = orders["o_orderpriority"].nunique()
    n_st = orders["o_orderstatus"].nunique()
    assert len(got) == len(fine) + n_pri + n_st + 1
    # grand total row
    g = got[(got["priority"] == "ALL") & (got["status"] == "ALL")]
    assert int(g["total_c"].iloc[0]) == int(cents.sum())
    assert int(g["cnt"].iloc[0]) == len(orders)
    # one fine cell and one margin spot-checked exactly
    pri, st = fine.index[0]
    cell = got[(got["priority"] == pri) & (got["status"] == st)]
    assert int(cell["total_c"].iloc[0]) == int(fine.loc[(pri, st), "sum"])
    marg = got[(got["priority"] == pri) & (got["status"] == "ALL")]
    want_m = orders[orders["o_orderpriority"] == pri]["c"]
    assert int(marg["total_c"].iloc[0]) == int(want_m.sum())
    assert int(marg["cnt"].iloc[0]) == len(want_m)


def test_events_rfm_quartiles_match_pandas_ntile(ray_session):
    got = _df(QUERIES["events_rfm"](SF)).sort_values("user_id")
    ev = pd.read_parquet(SF + "/events.parquet")
    us = ev["ts"].astype("int64")
    per = pd.DataFrame(
        {
            "user_id": ev["user_id"],
            "us": us,
            "mon": np.where(
                ev["event_type"] == "purchase",
                np.round(ev["value"] * 100),
                0,
            ).astype(np.int64),
        }
    ).groupby("user_id").agg(
        frequency=("us", "size"), last_us=("us", "max"), monetary_c=("mon", "sum")
    )
    per["recency_d"] = (per["last_us"].max() - per["last_us"]) // 86400000000

    def ntile4(df, key):
        df = df.sort_values([key, "user_id"]).reset_index()
        n = len(df)
        q, r = divmod(n, 4)
        sizes = [q + 1] * r + [q] * (4 - r)
        tiles = np.repeat(np.arange(1, 5), sizes)
        return dict(zip(df["user_id"], tiles))

    rq = ntile4(per.reset_index(), "recency_d")
    fq = ntile4(per.reset_index(), "frequency")
    got = got.set_index("user_id")
    per = per.sort_index()
    assert (got["frequency"].to_numpy() == per["frequency"].to_numpy()).all()
    assert (got["monetary_c"].to_numpy() == per["monetary_c"].to_numpy()).all()
    assert (got["recency_d"].to_numpy() == per["recency_d"].to_numpy()).all()
    for uid in per.index:
        assert got.loc[uid, "r_quartile"] == rq[uid]
        assert got.loc[uid, "f_quartile"] == fq[uid]


def test_events_minute_burst_matches_pandas(ray_session):
    got = _df(QUERIES["events_minute_burst"](SF)).set_index("user_id").sort_index()
    ev = pd.read_parquet(SF + "/events.parquet", columns=["user_id", "ts"])
    ev["m"] = ev["ts"].astype("int64") // 60000000
    w = ev.groupby(["user_id", "m"]).size().rename("c").reset_index()
    want = w.groupby("user_id").agg(
        max_per_min=("c", "max"), active_minutes=("c", "size")
    )
    assert (got["max_per_min"].to_numpy() == want["max_per_min"].to_numpy()).all()
    assert (
        got["active_minutes"].to_numpy() == want["active_minutes"].to_numpy()
    ).all()


def test_doc_readability_formula(ray_session):
    import re

    got = _df(QUERIES["doc_readability"](SF)).set_index("doc_id")
    docs = pd.read_parquet(SF + "/documents.parquet")
    for _, row in docs.head(30).iterrows():
        words = len(row["text"].strip().split(" "))
        syl = len(re.findall(r"[aeiouy]+", row["text"].lower()))
        sent = max(len(re.findall(r"[.!?]+", row["text"])), 1)
        g = got.loc[row["doc_id"]]
        assert g["n_words"] == words
        assert g["n_syllables"] == syl
        assert g["n_sentences"] == sent
        want = 206.835 - 1.015 * (words / sent) - 84.6 * (syl / words)
        assert g["flesch"] == want  # bit-identical double expression


def test_source_temperature_sampling_weights(ray_session):
    got = _df(QUERIES["source_temperature_sampling"](SF))
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["source", "text"])
    docs["w"] = docs["text"].str.strip().str.split(" ").str.len()
    n = docs.groupby("source")["w"].sum().sort_index()
    wt = n.to_numpy().astype(np.float64) ** 0.7
    p = wt / wt.sum()
    got = got.to_pandas() if hasattr(got, "to_pandas") else got
    got = got.sort_values("source").reset_index(drop=True)
    assert (got["n_tokens"].to_numpy() == n.to_numpy()).all()
    assert np.allclose(got["p_sample"].to_numpy(), p, atol=1e-9)
    # small sources oversampled, large undersampled, mass sums to 1
    assert abs(got["p_sample"].sum() - 1.0) < 1e-6
    big, small = n.idxmax(), n.idxmin()
    gi = got.set_index("source")
    if n[big] > n[small]:
        assert gi.loc[small, "epochs_rel"] >= gi.loc[big, "epochs_rel"]


def _undirected_edges():
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["doc_id"])
    ids = docs["doc_id"].to_numpy()
    t1 = (ids * 17 + 13) % 997
    t2 = (ids * 29 + 7) % 997
    s = np.concatenate([ids, ids])
    t = np.concatenate([t1, t2])
    keep = s != t
    a = np.minimum(s[keep], t[keep])
    b = np.maximum(s[keep], t[keep])
    return set(zip(a.tolist(), b.tolist()))


def test_node_clustering_coeff_matches_bruteforce(ray_session):
    got = _df(QUERIES["node_clustering_coeff"](SF)).set_index("node").sort_index()
    E = _undirected_edges()
    adj = {}
    for a, b in E:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    for node, nbrs in adj.items():
        d = len(nbrs)
        tri = sum(
            1
            for i, u in enumerate(sorted(nbrs))
            for v in sorted(nbrs)[i + 1 :]
            if (min(u, v), max(u, v)) in E
        )
        assert got.loc[node, "d"] == d
        assert got.loc[node, "triangles"] == tri
        want = round(2.0 * tri / (d * (d - 1)), 6) if d >= 2 else 0.0
        assert got.loc[node, "clustering"] == want
    assert len(got) == len(adj)
    # triangles actually exist in the synth graph at this sf
    assert got["triangles"].sum() > 0


def test_node_clustering_coeff_raises_no_runtime_warning(ray_session):
    """Nodes of degree below 2 have no wedge: their coefficient is 0
    without a 0/0 division (the driver-side merge raised RuntimeWarning)."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _df(QUERIES["node_clustering_coeff"](SF))
    low = got[got["d"] < 2]
    assert len(low) > 0  # the case the warning came from is exercised
    assert (low["clustering"] == 0.0).all()


def test_link_degree_assortativity_matches_numpy(ray_session):
    got = _df(QUERIES["link_degree_assortativity"](SF))
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["doc_id"])
    ids = docs["doc_id"].to_numpy()
    src = np.concatenate([ids, ids])
    dst = np.concatenate([(ids * 17 + 13) % 997, (ids * 29 + 7) % 997])
    ind = pd.Series(dst).value_counts()
    dx = pd.Series(src).map(ind).fillna(0).to_numpy(np.float64)
    dy = pd.Series(dst).map(ind).to_numpy(np.float64)
    r = np.corrcoef(dx, dy)[0, 1]
    assert int(got["n_edges"].iloc[0] if hasattr(got, "iloc") else got["n_edges"][0].as_py()) == len(src)
    g = got["assortativity"]
    gv = float(g.iloc[0]) if hasattr(g, "iloc") else g[0].as_py()
    assert abs(gv - r) < 1e-4


def test_knn_label_classify_majority_vote(ray_session):
    got = _df(QUERIES["knn_label_classify"](SF)).set_index("qid").sort_index()
    emb = pd.read_parquet(SF + "/embeddings.parquet")
    mat = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    norm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    labels = emb.set_index("vec_id")["label"]
    ids = emb["vec_id"].to_numpy()
    for qid in got.index:
        qv = norm[ids == qid][0]
        sims = norm @ qv
        sims[ids == qid] = -np.inf
        order = np.lexsort((ids, -sims))[:5]
        votes = pd.Series(labels.loc[ids[order]].to_numpy()).value_counts()
        top = votes[votes == votes.max()].index.min()
        assert got.loc[qid, "pred_label"] == top
        assert got.loc[qid, "votes"] == votes.max()
        assert got.loc[qid, "true_label"] == labels.loc[qid]
    assert len(got) == 10


def test_embedding_label_centroid_sim_matches_numpy(ray_session):
    got = _df(QUERIES["embedding_label_centroid_sim"](SF))
    emb = pd.read_parquet(SF + "/embeddings.parquet")
    mat = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    out = got.set_index(["label_a", "label_b"]).sort_index()
    labels = sorted(emb["label"].unique())
    assert len(out) == len(labels) * (len(labels) - 1) // 2
    cents = {
        lb: mat[emb["label"].to_numpy() == lb].mean(axis=0) for lb in labels
    }
    for (a, b), row in out.iterrows():
        ca, cb = cents[a], cents[b]
        want = float(ca @ cb) / (np.linalg.norm(ca) * np.linalg.norm(cb))
        assert abs(row["cos_sim"] - want) < 1e-5


def test_events_cohort_ltv_matches_pandas(ray_session):
    got = _df(QUERIES["events_cohort_ltv"](SF)).set_index(
        ["cohort_week", "age_weeks"]
    ).sort_index()
    ev = pd.read_parquet(SF + "/events.parquet")
    us = ev["ts"].astype("int64")
    first = us.groupby(ev["user_id"]).transform("min")
    WEEK = 604800000000
    df = pd.DataFrame(
        {
            "cohort_week": first // WEEK,
            "age_weeks": (us - first) // WEEK,
            "cents": np.where(
                ev["event_type"] == "purchase",
                np.round(ev["value"] * 100),
                0,
            ).astype(np.int64),
        }
    )
    want = df.groupby(["cohort_week", "age_weeks"]).agg(
        revenue_c=("cents", "sum"), n_events=("cents", "size")
    ).sort_index()
    assert len(got) == len(want)
    assert (got["revenue_c"].to_numpy() == want["revenue_c"].to_numpy()).all()
    assert (got["n_events"].to_numpy() == want["n_events"].to_numpy()).all()


def test_basket_part_pairs_matches_pandas(ray_session):
    got = _df(QUERIES["basket_part_pairs"](SF))
    li = pd.read_parquet(
        SF + "/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    ).drop_duplicates()
    j = li.merge(li, on="l_orderkey")
    j = j[j["l_partkey_x"] < j["l_partkey_y"]]
    want = (
        j.groupby(["l_partkey_x", "l_partkey_y"])
        .size()
        .rename("support")
        .reset_index()
        .sort_values(
            ["support", "l_partkey_x", "l_partkey_y"],
            ascending=[False, True, True],
        )
        .head(50)
        .reset_index(drop=True)
    )
    got = got.reset_index(drop=True)
    assert len(got) == len(want)
    # support sequence must match exactly; pairs can tie at equal support,
    # so compare the (support, a, b) triples as sorted sets
    assert (got["support"].to_numpy() == want["support"].to_numpy()).all()
    gset = set(zip(got["part_a"], got["part_b"], got["support"]))
    wset = set(
        zip(want["l_partkey_x"], want["l_partkey_y"], want["support"])
    )
    assert gset == wset


def test_events_top_trigrams_matches_pandas(ray_session):
    got = _df(QUERIES["events_top_trigrams"](SF)).reset_index(drop=True)
    ev = pd.read_parquet(SF + "/events.parquet").sort_values(
        ["user_id", "ts", "event_id"]
    )
    frames = []
    for _, g in ev.groupby("user_id"):
        et = g["event_type"].to_numpy()
        for i in range(2, len(et)):
            frames.append((et[i - 2], et[i - 1], et[i]))
    want = (
        pd.DataFrame(frames, columns=["t1", "t2", "t3"])
        .value_counts()
        .rename("cnt")
        .reset_index()
        .sort_values(["cnt", "t1", "t2", "t3"], ascending=[False, True, True, True])
        .head(25)
        .reset_index(drop=True)
    )
    assert len(got) == len(want)
    assert (got["cnt"].to_numpy() == want["cnt"].to_numpy()).all()
    gset = set(zip(got["t1"], got["t2"], got["t3"], got["cnt"]))
    wset = set(zip(want["t1"], want["t2"], want["t3"], want["cnt"]))
    assert gset == wset


def test_orders_monthly_cumsum(ray_session):
    got = _df(QUERIES["orders_monthly_cumsum"](SF)).sort_values("month")
    o = pd.read_parquet(SF + "/orders.parquet")
    month = o["o_orderdate"].dt.year * 100 + o["o_orderdate"].dt.month
    cents = np.round(o["o_totalprice"].to_numpy() * 100).astype(np.int64)
    want = (
        pd.DataFrame({"month": month, "c": cents})
        .groupby("month")["c"]
        .agg(["sum", "size"])
        .sort_index()
    )
    assert (got["rev_c"].to_numpy() == want["sum"].to_numpy()).all()
    assert (got["n_orders"].to_numpy() == want["size"].to_numpy()).all()
    assert (got["cum_rev_c"].to_numpy() == want["sum"].cumsum().to_numpy()).all()


def test_source_vocab_coverage(ray_session):
    got = _df(QUERIES["source_vocab_coverage"](SF)).set_index("source")
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["source", "text"])
    toks = docs["text"].str.strip().str.lower().str.split(" ")
    all_tokens = pd.Series(
        [t for lst in toks for t in lst], name="token"
    )
    vc = all_tokens.value_counts()
    vocab = set(
        vc.rename("c")
        .reset_index()
        .sort_values(["c", "token"], ascending=[False, True])
        .head(100)["token"]
    )
    per = pd.DataFrame(
        {
            "source": docs["source"].repeat(toks.str.len().to_numpy()),
            "token": all_tokens.to_numpy(),
        }
    )
    per["hit"] = per["token"].isin(vocab)
    want = per.groupby("source")["hit"].agg(["sum", "size"])
    assert (got["covered"].to_numpy() == want.loc[got.index, "sum"].to_numpy()).all()
    assert (got["total"].to_numpy() == want.loc[got.index, "size"].to_numpy()).all()
    assert ((got["coverage"] > 0) & (got["coverage"] <= 1)).all()


def test_source_length_gini(ray_session):
    got = _df(QUERIES["source_length_gini"](SF)).set_index("source")
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["source", "n_chars"])
    for src, g in docs.groupby("source"):
        x = np.sort(g["n_chars"].to_numpy(np.int64))
        n = len(x)
        i = np.arange(1, n + 1)
        gini = ((2 * i - n - 1) * x).sum() / (n * x.sum())
        assert got.loc[src, "n_docs"] == n
        assert got.loc[src, "total_chars"] == x.sum()
        assert abs(got.loc[src, "gini"] - gini) < 1e-6


def test_promo_revenue_share_matches_join(ray_session):
    got = _df(QUERIES["promo_revenue_share"](SF))
    li = pd.read_parquet(SF + "/lineitem.parquet")
    part = pd.read_parquet(SF + "/part.parquet", columns=["p_partkey", "p_type"])
    j = li.merge(part, left_on="l_partkey", right_on="p_partkey")
    cents = np.round(j["l_extendedprice"].to_numpy() * 100).astype(np.int64)
    bp = np.round(j["l_discount"].to_numpy() * 100).astype(np.int64)
    rev = cents * (100 - bp)
    promo = rev[(j["p_type"] == "PROMO").to_numpy()].sum()
    total = rev.sum()
    assert int(got["promo_rev_c2"].iloc[0] if hasattr(got, "iloc") else got["promo_rev_c2"][0].as_py()) == promo
    t = got["total_rev_c2"]
    assert int(t.iloc[0] if hasattr(t, "iloc") else t[0].as_py()) == total
    p = got["promo_pct"]
    pv = float(p.iloc[0] if hasattr(p, "iloc") else p[0].as_py())
    assert abs(pv - 100.0 * promo / total) < 1e-5


def test_top_suppliers_by_nation(ray_session):
    got = _df(QUERIES["top_suppliers_by_nation"](SF))
    li = pd.read_parquet(SF + "/lineitem.parquet")
    supp = pd.read_parquet(SF + "/supplier.parquet")
    nat = pd.read_parquet(SF + "/nation.parquet")
    cents = np.round(li["l_extendedprice"].to_numpy() * 100).astype(np.int64)
    bp = np.round(li["l_discount"].to_numpy() * 100).astype(np.int64)
    li = li.assign(rev=cents * (100 - bp))
    rev = li.groupby("l_suppkey")["rev"].sum().reset_index()
    j = rev.merge(supp, left_on="l_suppkey", right_on="s_suppkey").merge(
        nat, left_on="s_nationkey", right_on="n_nationkey"
    )
    j = j.sort_values(["n_name", "rev", "s_suppkey"], ascending=[True, False, True])
    j["rnk"] = j.groupby("n_name").cumcount() + 1
    want = j[j["rnk"] <= 3]
    got = got.sort_values(["n_name", "rnk"]).reset_index(drop=True)
    want = want.sort_values(["n_name", "rnk"]).reset_index(drop=True)
    assert len(got) == len(want)
    assert (got["s_name"].to_numpy() == want["s_name"].to_numpy()).all()
    assert (got["rev_c2"].to_numpy() == want["rev"].to_numpy()).all()
    # every nation with suppliers appears, capped at 3 rows
    assert got.groupby("n_name").size().max() <= 3


def test_doc_cocitation_pairs(ray_session):
    got = _df(QUERIES["doc_cocitation_pairs"](SF)).reset_index(drop=True)
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["doc_id"])
    ids = docs["doc_id"].to_numpy()
    links = pd.DataFrame(
        {
            "src": np.concatenate([ids, ids]),
            "dst": np.concatenate([(ids * 17 + 13) % 997, (ids * 29 + 7) % 997]),
        }
    ).drop_duplicates()
    j = links.merge(links, on="dst")
    j = j[j["src_x"] < j["src_y"]]
    want = (
        j.groupby(["src_x", "src_y"])
        .size()
        .rename("shared_refs")
        .reset_index()
        .sort_values(
            ["shared_refs", "src_x", "src_y"], ascending=[False, True, True]
        )
        .head(50)
        .reset_index(drop=True)
    )
    assert len(got) == len(want)
    assert (got["shared_refs"].to_numpy() == want["shared_refs"].to_numpy()).all()
    gset = set(zip(got["doc_a"], got["doc_b"], got["shared_refs"]))
    wset = set(zip(want["src_x"], want["src_y"], want["shared_refs"]))
    assert gset == wset
