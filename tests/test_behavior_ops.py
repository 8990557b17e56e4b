"""Retention, session-path mining, weighted sampling: from-first-principles
pandas recomputation of each contract (oracle parity runs in
tools/check_correctness.py)."""

import hashlib

import numpy as np
import pandas as pd

from sciscraper_ray.pipelines.queries import QUERIES
from sciscraper_ray.pipelines.queries.corpus_ops import _TOP_PATHS_K
from sciscraper_ray.pipelines.queries.dedup import _SESSION_GAP_MIN

SF = "/root/testdata/sf0.001"


def _events():
    return pd.read_parquet(SF + "/events.parquet")


def test_retention_matches_pandas(ray_session):
    out = QUERIES["events_retention"](SF).to_pandas()
    ev = _events()
    day = (ev["ts"].astype("datetime64[us]").astype("int64") // 86_400_000_000)
    pairs = pd.DataFrame({"u": ev["user_id"], "d": day}).drop_duplicates()
    first = pairs.groupby("u")["d"].min()
    pairs["cohort"] = pairs["u"].map(first)
    pairs["off"] = pairs["d"] - pairs["cohort"]
    exp = (
        pairs.groupby(["cohort", "off"]).size().reset_index(name="users")
    )
    got = out.sort_values(["cohort_day", "day_offset"]).reset_index(drop=True)
    exp = exp.sort_values(["cohort", "off"]).reset_index(drop=True)
    assert got["cohort_day"].tolist() == exp["cohort"].tolist()
    assert got["day_offset"].tolist() == exp["off"].tolist()
    assert got["users"].tolist() == exp["users"].tolist()
    # day-0 cohort sizes must equal the distinct-user count
    assert got[got.day_offset == 0]["users"].sum() == ev["user_id"].nunique()


def test_top_paths_matches_pandas(ray_session):
    out = QUERIES["events_top_paths"](SF).to_pandas()
    ev = _events().sort_values(["user_id", "ts", "event_id"])
    gap = np.timedelta64(_SESSION_GAP_MIN * 60 * 1_000_000, "us")
    paths = []
    for _, g in ev.groupby("user_id"):
        ts = g["ts"].to_numpy()
        new_s = np.ones(len(g), bool)
        new_s[1:] = (ts[1:] - ts[:-1]) > gap
        sid = np.cumsum(new_s)
        for _, s in pd.Series(
            g["event_type"].to_numpy()
        ).groupby(sid):
            paths.append(">".join(s))
    vc = pd.Series(paths).value_counts()
    exp = vc.reset_index()
    exp.columns = ["path", "cnt"]
    exp = exp.sort_values(["cnt", "path"], ascending=[False, True]).head(
        _TOP_PATHS_K
    )
    got = out.sort_values(["cnt", "path"], ascending=[False, True])
    assert got["path"].tolist() == exp["path"].tolist()
    assert got["cnt"].tolist() == exp["cnt"].tolist()


def test_weighted_sample_threshold(ray_session):
    out = QUERIES["doc_sample_weighted"](SF).to_pandas()
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["doc_id", "n_chars"])
    kept = set(out["doc_id"])
    for doc_id, n_chars in docs.itertuples(index=False):
        h = int(hashlib.md5(str(doc_id).encode()).hexdigest()[:15], 16)
        assert (h < min(int(n_chars), 1024) << 50) == (doc_id in kept)
    assert 0 < len(kept) < len(docs)
    # longer docs are sampled at a visibly higher rate
    med = docs["n_chars"].median()
    lo = docs[docs.n_chars <= med]
    hi = docs[docs.n_chars > med]
    assert (
        len(kept & set(hi.doc_id)) / len(hi)
        > len(kept & set(lo.doc_id)) / len(lo)
    )


def test_user_mode_matches_pandas(ray_session):
    out = QUERIES["events_user_mode"](SF).to_pandas()
    ev = _events()
    c = ev.groupby(["user_id", "event_type"]).size().reset_index(name="cnt")
    c = c.sort_values(
        ["user_id", "cnt", "event_type"], ascending=[True, False, True]
    )
    exp = c.groupby("user_id").head(1)
    got = out.sort_values("user_id")
    assert got["user_id"].tolist() == exp["user_id"].tolist()
    assert got["mode_type"].tolist() == exp["event_type"].tolist()
    assert got["cnt"].tolist() == exp["cnt"].tolist()


def test_value_histogram_sums_to_total(ray_session):
    out = QUERIES["events_value_histogram"](SF).to_pandas()
    ev = _events()
    assert out["cnt"].sum() == len(ev)
    exp = (
        np.floor(ev["value"].to_numpy() / 16).astype(np.int64)
    )
    vals, cnts = np.unique(exp, return_counts=True)
    got = out.sort_values("bin")
    assert got["bin"].tolist() == vals.tolist()
    assert got["cnt"].tolist() == cnts.tolist()


def test_canonicalize_kernel_edges():
    import pyarrow as pa

    from sciscraper_ray.kernels.links import canonicalize_urls

    c, h = canonicalize_urls(
        pa.array(
            [
                "HTTPS://WWW.Ex.COM:443/a/?utm_s=1&id=2&utm_c=3#f",
                "https://Ex.ORG:8080/a/b",
                "http://a.b:80/",
                "https://x.y/p?utm_a=1&utm_b=2",
                "ftp://Files.NET/pub/",
                "no scheme here",
                None,
            ]
        )
    )
    assert c.to_pylist() == [
        "https://ex.com/a?id=2",
        "https://ex.org:8080/a/b",
        "http://a.b/",
        "https://x.y/p",
        "ftp://files.net/pub",
        None,
        None,
    ]
    assert h.to_pylist() == [
        "ex.com", "ex.org", "a.b", "x.y", "files.net", None, None,
    ]


def test_crawl_delta_statuses(ray_session):
    out = QUERIES["crawl_delta"](SF).to_pandas()
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["doc_id"])
    assert len(out) == len(docs)
    for doc_id, status, n in out.itertuples(index=False):
        if doc_id % 17:
            assert (status, n) == ("new", 1)
        elif doc_id % 3 == 0:
            assert (status, n) == ("changed", 2)
        else:
            assert (status, n) == ("unchanged", 2)
    # every class occurs
    assert set(out["status"]) == {"new", "unchanged", "changed"}


def test_bloom_semijoin_superset_with_fps(ray_session):
    out = QUERIES["bloom_semijoin"](SF).to_pandas()
    cust = pd.read_parquet(SF + "/customer.parquet")
    orders = pd.read_parquet(SF + "/orders.parquet")
    members = set(cust[cust.c_mktsegment == "BUILDING"].c_custkey)
    true_rows = orders[orders.o_custkey.isin(members)]
    got = set(out["o_orderkey"])
    # no false negatives, ever
    assert set(true_rows["o_orderkey"]) <= got
    # any extras must be bloom false positives, bounded (k=2, m=4096)
    extras = len(got) - len(true_rows)
    assert extras <= max(20, len(orders) // 20)


def test_corpus_summary_single_row(ray_session):
    out = QUERIES["corpus_summary"](SF)
    docs = pd.read_parquet(SF + "/documents.parquet")
    assert len(out) == 1
    r = out.iloc[0]
    assert r.n_docs == len(docs)
    nn = docs["text"].dropna()
    assert r.null_texts == len(docs) - len(nn)
    toks = nn.map(lambda t: len(t.strip().lower().split(" ")))
    assert r.total_tokens == toks.sum()
    assert (r.min_tokens, r.max_tokens) == (toks.min(), toks.max())
    assert r.langs == docs["lang"].nunique()
    assert r.sources == docs["source"].nunique()
    assert r.dup_text_rows == len(nn) - nn.nunique()


def test_zonemap_actually_prunes(ray_session, tmp_path):
    import ray.data

    from sciscraper_ray.pipelines.queries.corpus_ops import (
        _ZONE_HI,
        _ZONE_LO,
        zonemap_prune,
    )

    out_dir = str(tmp_path / "zonemap")
    (
        ray.data.read_parquet(
            SF + "/documents.parquet", columns=["doc_id", "n_chars"]
        )
        .sort("doc_id")
        .repartition(8)
        .write_parquet(out_dir)
    )
    picked, total = zonemap_prune(out_dir, "doc_id", _ZONE_LO, _ZONE_HI)
    assert total >= 8
    assert 0 < len(picked) < total  # the manifest skipped real files
    # pruning loses nothing: picked files contain every in-range row
    rows = ray.data.read_parquet(picked).to_pandas()
    in_range = rows[(rows.doc_id >= _ZONE_LO) & (rows.doc_id <= _ZONE_HI)]
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["doc_id"])
    want = docs[(docs.doc_id >= _ZONE_LO) & (docs.doc_id <= _ZONE_HI)]
    assert set(in_range.doc_id) == set(want.doc_id)


def test_normalize_collapses_empty_tokens(ray_session):
    out = QUERIES["doc_normalize"](SF).to_pandas().set_index("doc_id")
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["doc_id", "text"])
    import math

    for doc_id, text in docs.itertuples(index=False):
        row = out.loc[doc_id]
        if text is None:
            assert row.norm_text is None or (
                isinstance(row.norm_text, float) and math.isnan(row.norm_text)
            )
            continue
        toks = text.strip().lower().split(" ")
        kept = [t for t in toks if t != ""]
        assert row.norm_text == " ".join(kept)
        assert row.n_empty == len(toks) - len(kept)


def test_quantize_bounds_and_absmax(ray_session):
    out = QUERIES["embedding_quantize"](SF).to_pandas()
    assert out["q"].abs().max() <= 127
    # every sampled vector's max-magnitude element quantizes to ±127
    # (trunc of exactly ±127.0) unless the vector is all zeros
    gm = out.groupby("vec_id")["q"].agg(lambda s: s.abs().max())
    assert ((gm == 127) | (gm == 0)).all()
    emb = pd.read_parquet(SF + "/embeddings.parquet")
    want = set(emb[emb.vec_id % 50 == 0].vec_id)
    assert set(out["vec_id"]) == want
    d = len(emb["embedding"].iloc[0])
    assert len(out) == len(want) * d


def test_debounce_adjacent_gap_semantics(ray_session):
    from sciscraper_ray.pipelines.queries.corpus_ops import _DEBOUNCE_S

    out = QUERIES["events_debounce"](SF).to_pandas()
    ev = _events().sort_values(["user_id", "event_type", "ts", "event_id"])
    keep_ids = []
    for _, g in ev.groupby(["user_id", "event_type"]):
        ts = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        prev = None
        for eid, t in zip(g["event_id"], ts):
            if prev is None or t - prev > _DEBOUNCE_S * 1_000_000:
                keep_ids.append(eid)
            prev = t
    assert set(out["event_id"]) == set(keep_ids)
    assert 0 < len(out) < len(ev)  # the window actually suppresses rows


def test_partitioned_write_layout(ray_session):

    out = QUERIES["lang_partitioned_write"](SF)
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["lang"])
    assert set(out["lang"]) == set(docs["lang"].unique())
    assert out["n_docs"].sum() == len(docs)


def test_cdc_merge_upserts_and_tombstones(ray_session):
    out = QUERIES["cdc_merge"](SF).to_pandas().set_index("doc_id")
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["doc_id", "text"])
    for doc_id, text in docs.itertuples(index=False):
        if doc_id % 21 == 0:
            assert doc_id not in out.index  # tombstoned
        elif doc_id % 7 == 0:
            row = out.loc[doc_id]
            assert row.version == 1 and row.text == text + " v2"
        else:
            row = out.loc[doc_id]
            assert row.version == 0 and row.text == text
    assert len(out) == (docs.doc_id % 21 != 0).sum()


def test_watermark_final_windows(ray_session):
    out = QUERIES["events_watermark"](SF).to_pandas()
    ev = _events()
    us = ev["ts"].astype("datetime64[us]").astype("int64")
    mark = us.max() - 3_600_000_000
    hours = us // 3_600_000_000
    exp = hours.value_counts().sort_index()
    got = out.sort_values("hour").reset_index(drop=True)
    assert got["hour"].tolist() == exp.index.tolist()
    assert got["n_events"].tolist() == exp.tolist()
    for h, f in zip(got["hour"], got["is_final"]):
        assert f == int((h + 1) * 3_600_000_000 <= mark)
    assert 0 < got["is_final"].sum() < len(got)  # both classes occur
