"""Round-3 operator additions: link harvesting, tokenizer-training pair
counts, quota/retention sampling, boolean retrieval, IQR gate — each
recomputed from first principles in pandas (oracle parity runs in
tools/check_correctness.py)."""

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from sciscraper_ray.kernels.md5 import md5_hex15
from sciscraper_ray.pipelines.queries import QUERIES
from sciscraper_ray.pipelines.queries.retrieval import (
    _BOOL_QUERIES,
    _LATEST_K,
    _MIXTURE_QUOTA,
)
from sciscraper_ray.sources.page_synth import host_for, ref_targets, render_html
from sciscraper_ray.stages.dom_select import select_links

SF = "/root/testdata/sf0.001"


def _docs():
    return pd.read_parquet(SF + "/documents.parquet")


# ---------------------------------------------------------------- pure kernels


def test_select_links_returns_all_matches_in_order():
    html = (
        '<div class="refs"><a href="/a">one</a><p><a href="/b">two</a></p>'
        '</div><a href="/c">outside</a>'
    )
    assert select_links(html, "div.refs a") == [("/a", "one"), ("/b", "two")]
    assert select_links(html, "a") == [
        ("/a", "one"),
        ("/b", "two"),
        ("/c", "outside"),
    ]


def test_render_html_with_links_is_opt_in():
    plain = render_html(7, "alpha beta", "en")
    linked = render_html(7, "alpha beta", "en", with_links=True)
    assert b'class="refs"' not in plain  # existing fixtures byte-unchanged
    t1, t2 = ref_targets(7)
    for t in (t1, t2):
        assert (
            f'href="https://{host_for(t)}/html/doc-{t}"'.encode() in linked
        )
    # the refs block must sit OUTSIDE the main-content article
    assert linked.index(b"</article>") < linked.index(b'class="refs"')


def test_md5_hex15_np_matches_scalar_convention():
    ids = np.array([0, 1, 17, 123456789], dtype=np.int64)
    got = md5_hex15(map(str, ids))
    for i, g in zip(ids, got):
        assert g == int(hashlib.md5(str(i).encode()).hexdigest()[:15], 16)


# ------------------------------------------------------------- Ray pipelines


def test_token_pair_counts_do_not_cross_doc_boundaries(ray_session):
    out = QUERIES["token_pair_counts"](SF).to_pandas()
    docs = _docs()
    pairs: dict[str, int] = {}
    for text in docs["text"]:
        toks = text.strip().lower().split(" ")
        for a, b in zip(toks, toks[1:]):
            pairs[a + " " + b] = pairs.get(a + " " + b, 0) + 1
    exp = sorted(pairs.items(), key=lambda kv: (-kv[1], kv[0]))[:50]
    got = list(zip(out["pair"], out["cnt"]))
    assert got == exp


def test_mixture_quota_keeps_k_smallest_hashes_per_source(ray_session):
    out = QUERIES["doc_mixture_quota"](SF).to_pandas()
    docs = _docs()
    docs["h"] = md5_hex15(map(str, docs["doc_id"].to_numpy()))
    exp = (
        docs.sort_values(["source", "h", "doc_id"])
        .groupby("source", sort=False)
        .head(_MIXTURE_QUOTA)
    )
    assert sorted(out["doc_id"]) == sorted(exp["doc_id"])
    assert out.groupby("source").size().max() <= _MIXTURE_QUOTA


def test_latest_k_matches_pandas_window(ray_session):
    out = QUERIES["events_latest_k"](SF).to_pandas()
    ev = pd.read_parquet(SF + "/events.parquet")
    exp = (
        ev.sort_values(["user_id", "ts", "event_id"], ascending=[True, False, False])
        .groupby("user_id", sort=False)
        .head(_LATEST_K)
    )
    assert sorted(out["event_id"]) == sorted(exp["event_id"])
    assert out.groupby("user_id").size().max() <= _LATEST_K


def test_boolean_retrieval_matches_pandas(ray_session):
    out = QUERIES["doc_boolean_retrieval"](SF).to_pandas()
    docs = _docs()
    exp = set()
    for _, row in docs.iterrows():
        toks = set(row["text"].strip().lower().split(" "))
        for qid, terms in _BOOL_QUERIES:
            if all(t in toks for t in terms):
                exp.add((qid, row["doc_id"]))
    assert set(zip(out["query_id"], out["doc_id"])) == exp
    assert len(out) == len(exp)


def test_iqr_filter_tukey_fences(ray_session):
    out = QUERIES["doc_iqr_filter"](SF).to_pandas()
    docs = _docs()
    v = np.sort(docs["n_chars"].to_numpy())
    n = len(v)
    q1 = int(v[-(-n // 4) - 1])  # smallest value with cum >= ceil(n/4)
    q3 = int(v[-(-(3 * n) // 4) - 1])
    iqr = q3 - q1
    lo, hi = q1 - (3 * iqr) // 2, q3 + (3 * iqr) // 2
    exp = docs[(docs["n_chars"] >= lo) & (docs["n_chars"] <= hi)]
    assert sorted(out["doc_id"]) == sorted(exp["doc_id"])


def test_charset_decode_reproduces_ground_truth(ray_session):
    out = QUERIES["page_charset_decode"](SF).to_pandas()
    docs = _docs().set_index("doc_id")
    assert len(out) == len(docs)
    cs = out["doc_id"] % 3
    assert (out["charset"] == cs.map({0: "utf-8", 1: "latin-1", 2: "utf-16"})).all()
    assert (
        out["extracted_text"] == out["doc_id"].map(docs["text"])
    ).all()


def test_sitemap_roundtrip_identity(ray_session):
    out = QUERIES["sitemap_roundtrip"](SF).to_pandas()
    docs = _docs()
    assert sorted(out["doc_id"]) == sorted(docs["doc_id"])
    row = out[out["doc_id"] == 37].iloc[0]
    assert row["host"] == host_for(37)
    assert row["url"] == f"https://{host_for(37)}/html/doc-37"
    assert row["lastmod"] == "2023-11-21"


def _expected_boilerplate_strip(docs, df_min, width=8):
    segs = []  # (doc_id, seg_no, seg)
    for _, row in docs.iterrows():
        toks = row["text"].strip().lower().split(" ")
        for k in range(0, len(toks), width):
            segs.append((row["doc_id"], k // width, " ".join(toks[k : k + width])))
    df = pd.DataFrame(segs, columns=["doc_id", "seg_no", "seg"])
    freq = df.groupby("seg")["doc_id"].nunique()
    frequent = set(freq[freq >= df_min].index)
    kept = df[~df["seg"].isin(frequent)]
    return (
        kept.sort_values(["doc_id", "seg_no"])
        .groupby("doc_id")["seg"]
        .agg(" ".join)
    )


def test_boilerplate_strip_matches_pandas(ray_session):
    from sciscraper_ray.pipelines.queries.corpus_ops import _BOILER_DF_MIN

    out = QUERIES["doc_boilerplate_strip"](SF).to_pandas()
    exp = _expected_boilerplate_strip(_docs(), _BOILER_DF_MIN)
    got = out.set_index("doc_id")["text"]
    assert sorted(got.index) == sorted(exp.index)
    assert (got.sort_index() == exp.sort_index()).all()


def test_boilerplate_strip_plan_parity(ray_session):
    drv = QUERIES["doc_boilerplate_strip"](SF, plan="driver").to_pandas()
    shf = QUERIES["doc_boilerplate_strip"](SF, plan="shuffle").to_pandas()
    d = drv.sort_values("doc_id").reset_index(drop=True)
    s = shf.sort_values("doc_id").reset_index(drop=True)
    assert d.equals(s)


def test_top_tokens_plan_parity(ray_session):
    drv = QUERIES["top_tokens_global"](SF, plan="driver")
    shf = QUERIES["top_tokens_global"](SF, plan="shuffle").to_pandas()
    assert drv["token"].tolist() == shf["token"].tolist()
    assert drv["cnt"].tolist() == shf["cnt"].tolist()


def test_ngram_novelty_plan_parity(ray_session):
    """driver and shuffle plans agree row-for-row (VERDICT r3 item 2: the
    shuffle path must be real, not just documented)."""
    drv = QUERIES["doc_ngram_novelty"](SF, mode="driver").to_pandas()
    shf = QUERIES["doc_ngram_novelty"](SF, mode="shuffle").to_pandas()
    d = drv.sort_values("doc_id").reset_index(drop=True)
    s = shf.sort_values("doc_id").reset_index(drop=True)
    assert d.equals(s)
    assert len(d) > 0


def test_ngram_novelty_empty_corpus(ray_session):
    """A corpus with no 3-token docs returns an empty, correctly-typed
    table instead of IndexError (ADVICE r3)."""
    import tempfile

    import pyarrow.parquet as pq

    with tempfile.TemporaryDirectory() as td:
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array([1, 2], pa.int64()),
                    "text": pa.array(["one two", "single"], pa.string()),
                    "lang": pa.array(["en", "en"], pa.string()),
                }
            ),
            td + "/documents.parquet",
        )
        out = QUERIES["doc_ngram_novelty"](td).to_pandas()
    assert len(out) == 0
    assert list(out.columns) == ["doc_id", "novelty", "n_grams"]


def test_link_graph_edges_match_arithmetic(ray_session):
    out = QUERIES["page_link_graph"](SF).to_pandas()
    docs = _docs()
    edges: dict[tuple[str, str], int] = {}
    for i in docs["doc_id"]:
        s = host_for(int(i))
        for t in ref_targets(int(i)):
            k = (s, host_for(t))
            edges[k] = edges.get(k, 0) + 1
    got = {
        (r.src_host, r.dst_host): r.cnt for r in out.itertuples(index=False)
    }
    assert got == edges
    assert int(out["cnt"].sum()) == 2 * len(docs)

def test_redirect_resolve_pointer_doubling(ray_session):
    out = QUERIES["redirect_resolve"](SF).to_pandas()
    docs = _docs()
    assert len(out) == len(docs)
    # terminal = doc_id - (doc_id % 4), hops = doc_id % 4 — but computed
    # via two co-partitioned join rounds, which this checks transitively
    assert (out["terminal_id"] == out["doc_id"] - out["doc_id"] % 4).all()
    assert (out["hops"] == out["doc_id"] % 4).all()
    assert (out["terminal_id"] % 4 == 0).all()


def test_teaser_prefix_finds_every_injected_excerpt(ray_session):
    from sciscraper_ray.pipelines.queries.retrieval import (
        _TEASER_MOD,
        _TEASER_OFFSET,
    )

    out = QUERIES["dedup_teaser_prefix"](SF).to_pandas()
    docs = _docs()
    sources = docs["doc_id"][docs["doc_id"] % _TEASER_MOD == 0]
    got = set(zip(out["a"], out["b"]))
    for s in sources:
        assert (s + _TEASER_OFFSET, s) in got  # excerpt oriented as contained
    # orientation invariant: contained side never has MORE shingles
    assert (out["a"] != out["b"]).all()


def test_host_topk_plan_parity(ray_session):
    drv = QUERIES["host_topk_docs"](SF, plan="driver")
    shf = QUERIES["host_topk_docs"](SF, plan="shuffle")
    assert drv.reset_index(drop=True).equals(shf.reset_index(drop=True))
    assert drv.groupby("host").size().max() <= 3


def test_length_median_by_lang_matches_pandas(ray_session):
    out = QUERIES["doc_length_median_by_lang"](SF).to_pandas()
    docs = _docs()
    keep = []
    for lang, grp in docs.groupby("lang"):
        v = np.sort(grp["n_chars"].to_numpy())
        med = int(v[-(-len(v) // 2) - 1])  # smallest value with cum >= ceil(n/2)
        keep.extend(grp["doc_id"][grp["n_chars"] >= med])
    assert sorted(out["doc_id"]) == sorted(keep)

def test_crawl_waves_match_pandas_rank(ray_session):
    from sciscraper_ray.pipelines.queries.web_graph import _CRAWL_BUDGET

    out = QUERIES["crawl_schedule_waves"](SF).to_pandas()
    docs = _docs()
    hosts = docs["doc_id"].map(lambda i: host_for(int(i)))
    exp = (
        pd.DataFrame({"doc_id": docs["doc_id"], "host": hosts})
        .sort_values(["host", "doc_id"])
        .assign(wave=lambda d: d.groupby("host").cumcount() // _CRAWL_BUDGET)
    )
    merged = out.merge(exp, on=["doc_id", "host"], suffixes=("", "_exp"))
    assert len(merged) == len(docs)
    assert (merged["wave"] == merged["wave_exp"]).all()


def test_triangle_count_matches_bruteforce(ray_session):
    out = QUERIES["host_triangle_count"](SF).to_pandas()
    docs = _docs()
    edges = set()
    for i in docs["doc_id"]:
        s = host_for(int(i))
        for t in ref_targets(int(i)):
            d = host_for(t)
            if s != d:
                edges.add((min(s, d), max(s, d)))
    nodes = sorted({x for e in edges for x in e})
    n = 0
    for ai in range(len(nodes)):
        for bi in range(ai + 1, len(nodes)):
            for ci in range(bi + 1, len(nodes)):
                a, b, c = nodes[ai], nodes[bi], nodes[ci]
                if (a, b) in edges and (b, c) in edges and (a, c) in edges:
                    n += 1
    assert out["triangles"].iloc[0] == n


def test_top_tokens_by_lang_plan_parity(ray_session):
    drv = QUERIES["top_tokens_by_lang"](SF, plan="driver")
    shf = QUERIES["top_tokens_by_lang"](SF, plan="shuffle")
    assert drv.reset_index(drop=True).equals(shf.reset_index(drop=True))
    assert drv.groupby("lang").size().max() <= 5
