"""Round-4 session-AR additions: unrestricted Damerau-Levenshtein
similarity join (Lowrance-Wagner semantics, three-tier verify) and the
vectorized multi-literal scan — first-principles recomputes (oracle
parity runs in tools/check_correctness.py)."""

import pandas as pd

from sciscraper_ray.pipelines.dedup import (
    damerau_levenshtein_exact,
    levenshtein_np,
    osa_np,
)
from sciscraper_ray.pipelines.queries import QUERIES

SF = "/root/testdata/sf0.001"


def _df(out):
    out = out.to_pandas() if hasattr(out, "to_pandas") else out
    return pd.DataFrame(out)


def test_damerau_kernel_goldens():
    # the canonical unrestricted-vs-OSA divergence: 'ca' -> 'abc'
    assert damerau_levenshtein_exact("ca", "abc") == 2
    assert osa_np("ca", "abc") == 3
    assert levenshtein_np("ca", "abc") == 3
    # plain transposition costs 1 in both Damerau variants
    assert damerau_levenshtein_exact("abcd", "acbd") == 1
    assert osa_np("abcd", "acbd") == 1
    assert levenshtein_np("abcd", "acbd") == 2
    # degenerate / identity / pure-Levenshtein cases agree
    for a, b in [
        ("", ""),
        ("", "xyz"),
        ("kitten", "sitting"),
        ("flaw", "lawn"),
        ("abc", "abc"),
        ("a cat", "an act"),
        ("a cat", "a abct"),
    ]:
        exact = damerau_levenshtein_exact(a, b)
        assert exact <= osa_np(a, b) <= levenshtein_np(a, b) <= 2 * exact


def test_damerau_kernel_vs_duckdb_fuzz():
    import duckdb

    # deterministic fuzz over a tiny alphabet (maximizes transpositions)
    strs = []
    for seed in range(40):
        s, x = [], seed * 2654435761 % 2**32
        for _ in range(seed % 9 + 1):
            x = (x * 1103515245 + 12345) % 2**31
            s.append("abz"[x % 3])
        strs.append("".join(s))
    con = duckdb.connect()
    for i, a in enumerate(strs):
        for b in strs[i + 1 :]:
            want = con.execute(
                "SELECT damerau_levenshtein(?, ?)", [a, b]
            ).fetchone()[0]
            assert damerau_levenshtein_exact(a, b) == want, (a, b)


def test_dedup_damerau(ray_session):
    got = _df(QUERIES["dedup_damerau"](SF))
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["doc_id", "text"])
    rows = [(int(i), t) for i, t in docs.itertuples(index=False) if i % 5 == 1]
    rows += [
        (int(i) + 900_000, t[1] + "q" + t[0] + t[2:])
        for i, t in rows
        if i % 17 == 0 and len(t) >= 2
    ]
    want = set()
    for ai, (a, ta) in enumerate(rows):
        for b, tb in rows[ai + 1 :]:
            if abs(len(ta) - len(tb)) <= 6 and damerau_levenshtein_exact(ta, tb) <= 6:
                want.add((min(a, b), max(a, b)))
    assert set(map(tuple, got[["a", "b"]].to_numpy())) == want
    assert want, "fixture must produce at least one qualifying pair"
    # every mutant pairs with its source (distance exactly 2)
    assert all((i, i + 900_000) in want for i, t in rows if i % 17 == 0 and i < 900_000 and len(t) >= 2)


def test_doc_literal_scan(ray_session):
    got = _df(QUERIES["doc_literal_scan"](SF))
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["doc_id", "text"])
    pats = ("data", "model", "tion", "stream", "batch", "index")
    want = {
        (int(i), p): t.count(p) for i, t in docs.itertuples(index=False) for p in pats
    }
    assert len(got) == len(docs) * len(pats)
    got_map = {
        (int(r.doc_id), r.pattern): int(r.cnt) for r in got.itertuples(index=False)
    }
    assert got_map == want
    assert sum(got_map.values()) > 0


def _s_stem_ref(w: str) -> str:
    if len(w) > 4 and w.endswith("ies") and not w.endswith(("eies", "aies")):
        return w[:-3] + "y"
    if len(w) > 3 and w.endswith("es") and not w.endswith(("aes", "ees", "oes")):
        return w[:-1]
    if len(w) > 2 and w.endswith("s") and not w.endswith(("us", "ss")):
        return w[:-1]
    return w


def test_token_stem_conflate(ray_session):
    got = _df(QUERIES["token_stem_conflate"](SF))
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["doc_id", "text"])
    from collections import Counter, defaultdict

    cnt = Counter()
    forms = defaultdict(set)
    for i, t in docs.itertuples(index=False):
        toks = t.strip().lower().split(" ")
        for k, tok in enumerate(toks):
            sel = (int(i) + k) % 7
            surf = tok + {0: "s", 1: "ies", 2: "es"}.get(sel, "")
            stem = _s_stem_ref(surf)
            cnt[stem] += 1
            forms[stem].add(surf)
    want = {(s, len(forms[s]), c) for s, c in cnt.items()}
    assert set(map(tuple, got[["stem", "n_forms", "cnt"]].to_numpy())) == want
    # conflation must actually happen somewhere in the fixture
    assert any(len(forms[s]) >= 2 for s in forms)


def test_source_chao1_richness(ray_session):
    got = _df(QUERIES["source_chao1_richness"](SF))
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["lang", "text"])
    from collections import Counter

    per_lang = {}
    for lang, t in docs.itertuples(index=False):
        per_lang.setdefault(lang, Counter()).update(t.strip().lower().split(" "))
    for r in got.itertuples(index=False):
        c = per_lang[r.lang]
        d = len(c)
        f1 = sum(1 for v in c.values() if v == 1)
        f2 = sum(1 for v in c.values() if v == 2)
        assert (r.n_types, r.f1, r.f2) == (d, f1, f2)
        assert abs(r.chao1 - (d + f1 * (f1 - 1) / (2 * (f2 + 1)))) < 1e-9
    assert len(got) == len(per_lang)


def test_token_textrank(ray_session):
    got = _df(QUERIES["token_textrank"](SF))
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["text"])
    edges = set()
    for (t,) in docs.itertuples(index=False):
        toks = t.strip().lower().split(" ")
        for x, y in zip(toks, toks[1:]):
            if x != y:
                edges.add((min(x, y), max(x, y)))
    nodes = sorted({n for e in edges for n in e})
    deg = {n: 0 for n in nodes}
    adj = {n: [] for n in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
        deg[a] += 1
        deg[b] += 1
    n = len(nodes)
    r = {x: 1.0 / n for x in nodes}
    for _ in range(5):
        nxt = {}
        for x in nodes:
            nxt[x] = 0.15 / n + 0.85 * sum(r[y] / deg[y] for y in adj[x])
        r = nxt
    got_map = dict(zip(got["token"], got["r"]))
    assert set(got_map) == set(nodes)
    for x in nodes:
        assert abs(got_map[x] - r[x]) < 1e-9, x
    # ranks sum to ~1 (no dangling mass on a symmetrized graph)
    assert abs(sum(got_map.values()) - 1.0) < 1e-6


def test_link_reciprocity(ray_session):
    got = _df(QUERIES["link_reciprocity"](SF))
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["doc_id"])
    e = set()
    for (d,) in docs.itertuples(index=False):
        d = int(d)
        for v in ((d * 17 + 13) % 997, (d * 29 + 7) % 997):
            if v != d:
                e.add((d, v))
    recip = sum(1 for u, v in e if (v, u) in e)
    row = got.iloc[0]
    assert int(row.n_edges) == len(e)
    assert int(row.n_reciprocal) == recip
    assert abs(row.reciprocity - recip / len(e)) < 1e-12


def test_events_ks_test(ray_session):
    got = _df(QUERIES["events_ks_test"](SF)).iloc[0]
    ev = pd.read_parquet(SF + "/events.parquet", columns=["event_type", "value"])
    ev = ev[ev.event_type.isin(["click", "view"])]
    import numpy as np

    cents = np.round(ev.value.to_numpy() * 100).astype(int)
    g = (ev.event_type == "click").to_numpy()
    pts = sorted(set(cents))
    n1, n2 = int(g.sum()), int((~g).sum())
    d_num = max(
        abs(int((g & (cents <= p)).sum()) * n2 - int((~g & (cents <= p)).sum()) * n1)
        for p in pts
    )
    assert (int(got.d_num), int(got.n1), int(got.n2)) == (d_num, n1, n2)
    assert abs(got.d - d_num / (n1 * n2)) < 1e-15
    assert 0 < got.d < 1


def test_token_llr_keyness(ray_session):
    import math

    got = _df(QUERIES["token_llr_keyness"](SF))
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["lang", "text"])
    from collections import Counter

    en, rest = Counter(), Counter()
    for lang, t in docs.itertuples(index=False):
        (en if lang == "en" else rest).update(t.strip().lower().split(" "))
    n_en, n_rest = sum(en.values()), sum(rest.values())
    nn = n_en + n_rest
    for r in got.itertuples(index=False):
        a, b = en[r.token], rest[r.token]
        assert (r.k_en, r.k_rest) == (a, b)
        c, d = n_en - a, n_rest - b
        r1 = a + b
        want = 2 * sum(
            k * math.log(k * nn / (row * col))
            for k, row, col in [
                (a, r1, n_en),
                (b, r1, n_rest),
                (c, nn - r1, n_en),
                (d, nn - r1, n_rest),
            ]
            if k > 0
        )
        assert abs(r.llr - want) < 1e-6, r.token
    assert len(got) == len(set(en) | set(rest))
    # high-contrast tokens score positive; G2 is nonnegative up to fp noise
    assert (got.llr > -1e-9).all()


def test_events_holt_linear(ray_session):
    got = _df(QUERIES["events_holt_linear"](SF)).sort_values("hour")
    ev = pd.read_parquet(SF + "/events.parquet", columns=["ts", "value"])
    import numpy as np

    h = (
        (ev.ts.astype("datetime64[us]").astype("int64") - pd.Timestamp("2024-01-01").value // 1000)
        // 3_600_000_000
    ).to_numpy()
    cents = np.round(ev.value.to_numpy() * 100).astype(int)
    h0, h1 = h.min(), h.max()
    x = np.zeros(h1 - h0 + 1, int)
    np.add.at(x, h - h0, cents)
    assert (got.cents.to_numpy() == x).all()
    assert len(got) == h1 - h0 + 1
    l, b = float(x[0]), float(x[1]) - float(x[0])
    for i, r in enumerate(got.itertuples(index=False)):
        if i > 0:
            ln = 0.5 * float(x[i]) + 0.5 * (l + b)
            b = 0.5 * (ln - l) + 0.5 * b
            l = ln
        assert abs(r.level - l) < 1e-6 and abs(r.trend - b) < 1e-6, i


def test_orders_monthly_theilsen(ray_session):
    got = _df(QUERIES["orders_monthly_theilsen"](SF)).iloc[0]
    import numpy as np

    o = pd.read_parquet(SF + "/orders.parquet", columns=["o_orderdate", "o_totalprice"])
    mi = (o.o_orderdate.dt.year * 12 + o.o_orderdate.dt.month - 1).to_numpy()
    cents = np.round(o.o_totalprice.to_numpy() * 100).astype(int)
    df = pd.DataFrame({"mi": mi, "c": cents}).groupby("mi")["c"].sum()
    mm = df.index.to_numpy()
    cc = df.to_numpy().astype(float)
    slopes = [
        (cc[j] - cc[i]) / (mm[j] - mm[i])
        for i in range(len(mm))
        for j in range(i + 1, len(mm))
    ]
    assert int(got.n_slopes) == len(slopes)
    assert abs(got.slope_cents - float(np.median(slopes))) < 1e-9


def test_events_changepoint(ray_session):
    got = _df(QUERIES["events_changepoint"](SF)).iloc[0]
    import numpy as np

    ev = pd.read_parquet(SF + "/events.parquet", columns=["ts", "value"])
    h = (
        (ev.ts.astype("datetime64[us]").astype("int64") - pd.Timestamp("2024-01-01").value // 1000)
        // 3_600_000_000
    ).to_numpy()
    cents = np.round(ev.value.to_numpy() * 100).astype(int)
    h0 = h.min()
    x = np.zeros(h.max() - h0 + 1, int)
    np.add.at(x, h - h0, cents)
    n = len(x)
    best_k, best_gain = None, -1.0
    cs = x.cumsum()
    for k in range(1, n):
        g = cs[k - 1] ** 2 / k + (cs[-1] - cs[k - 1]) ** 2 / (n - k)
        if g > best_gain:
            best_gain, best_k = g, k
    assert int(got.split_hour) == h0 + best_k
    assert (int(got.n_left), int(got.n_right)) == (best_k, n - best_k)
    assert abs(got.mean_left - cs[best_k - 1] / best_k) < 1e-6
    assert abs(got.mean_right - (cs[-1] - cs[best_k - 1]) / (n - best_k)) < 1e-6
    assert abs(got.sse_after - (float((x * x).sum()) - best_gain)) < 1e-3
    # SSE after one split can never exceed the single-segment SSE
    sse0 = float((x * x).sum()) - cs[-1] ** 2 / n
    assert got.sse_after <= sse0 + 1e-9


def test_token_yule_k(ray_session):
    got = _df(QUERIES["token_yule_k"](SF))
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["lang", "text"])
    from collections import Counter

    per_lang = {}
    for lang, t in docs.itertuples(index=False):
        per_lang.setdefault(lang, Counter()).update(t.strip().lower().split(" "))
    assert len(got) == len(per_lang)
    for r in got.itertuples(index=False):
        c = per_lang[r.lang]
        m1 = sum(c.values())
        m2 = sum(v * v for v in c.values())
        assert (r.m1, r.m2) == (m1, m2)
        assert abs(r.yule_k - 10000.0 * (m2 - m1) / (m1 * m1)) < 1e-9
        assert r.yule_k > 0


def test_events_entropy_rate(ray_session):
    import math

    got = _df(QUERIES["events_entropy_rate"](SF))
    ev = pd.read_parquet(
        SF + "/events.parquet", columns=["event_id", "user_id", "ts", "event_type"]
    ).sort_values(["user_id", "ts", "event_id"])
    from collections import Counter

    trans = Counter()
    for _, g in ev.groupby("user_id"):
        et = g.event_type.tolist()
        for a, b in zip(et, et[1:]):
            trans[(a, b)] += 1
    total = sum(trans.values())
    by_from = {}
    for (a, b), c in trans.items():
        by_from.setdefault(a, Counter())[b] = c
    assert len(got) == len(by_from)
    for r in got.itertuples(index=False):
        c = by_from[r.from_type]
        n_out = sum(c.values())
        h = -sum(v / n_out * math.log(v / n_out) for v in c.values())
        assert r.n_out == n_out
        assert abs(r.h_cond - h) < 1e-9
        assert abs(r.rate_term - n_out / total * h) < 1e-9
        assert -1e-12 <= r.h_cond <= math.log(5) + 1e-9


def test_graph_rich_club(ray_session):
    got = _df(QUERIES["graph_rich_club"](SF))
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["doc_id"])
    und = set()
    for (d,) in docs.itertuples(index=False):
        d = int(d)
        for v in ((d * 17 + 13) % 997, (d * 29 + 7) % 997):
            if v != d:
                und.add((min(d, v), max(d, v)))
    from collections import Counter

    deg = Counter()
    for a, b in und:
        deg[a] += 1
        deg[b] += 1
    for r in got.itertuples(index=False):
        club = {n for n, d in deg.items() if d > r.k}
        e = sum(1 for a, b in und if a in club and b in club)
        assert len(club) == r.n_nodes and e == r.n_edges
        assert abs(r.phi - 2 * e / (len(club) * (len(club) - 1))) < 1e-12
    # thresholds increase, club density (phi) must be monotone in k here
    assert (got.sort_values("k").n_nodes.diff().dropna() <= 0).all()


def test_events_emd(ray_session):
    got = _df(QUERIES["events_emd"](SF)).iloc[0]
    import numpy as np

    ev = pd.read_parquet(SF + "/events.parquet", columns=["event_type", "value"])
    ev = ev[ev.event_type.isin(["click", "view"])]
    cents = np.round(ev.value.to_numpy() * 100).astype(int)
    g = (ev.event_type == "click").to_numpy()
    pts = sorted(set(cents))
    n1, n2 = int(g.sum()), int((~g).sum())
    num = 0
    for k in range(len(pts) - 1):
        c1 = int((g & (cents <= pts[k])).sum())
        c2 = int((~g & (cents <= pts[k])).sum())
        num += abs(c1 * n2 - c2 * n1) * (pts[k + 1] - pts[k])
    assert got.emd_num == float(num)
    assert (int(got.n1), int(got.n2)) == (n1, n2)
    assert abs(got.emd_cents - num / (n1 * n2)) < 1e-9
    # scipy-free sanity: EMD in cents is positive and below the value range
    assert 0 < got.emd_cents < pts[-1] - pts[0]


def test_host_crawl_fairness(ray_session):
    got = _df(QUERIES["host_crawl_fairness"](SF)).iloc[0]
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["doc_id"])
    from collections import Counter

    from sciscraper_ray.sources.page_synth import host_for

    c = Counter(host_for(int(d)) for (d,) in docs.itertuples(index=False))
    xs = list(c.values())
    n, s, ssq = len(xs), sum(xs), sum(x * x for x in xs)
    assert (int(got.n_hosts), int(got.total_docs), int(got.max_docs)) == (
        n,
        s,
        max(xs),
    )
    want = (s * s) / (n * ssq)
    assert abs(got.jain_index - want) < 1e-12
    # mega-host skew must push fairness measurably below 1
    assert 1 / n <= got.jain_index < 0.99


def test_orc_roundtrip(ray_session):
    got = _df(QUERIES["orc_roundtrip"](SF)).sort_values("doc_id").reset_index(drop=True)
    want = (
        pd.read_parquet(SF + "/documents.parquet")[
            ["doc_id", "lang", "n_chars", "text"]
        ]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got[["doc_id", "lang", "n_chars", "text"]].equals(
        want[["doc_id", "lang", "n_chars", "text"]]
    )


def test_duckdb_ingest(ray_session):
    got = _df(QUERIES["duckdb_ingest"](SF)).sort_values("doc_id").reset_index(drop=True)
    want = pd.read_parquet(SF + "/documents.parquet").sort_values("doc_id").reset_index(drop=True)
    cols = ["doc_id", "text", "lang", "source", "n_chars"]
    assert got[cols].equals(want[cols])
    # shard boundaries cover the full key range exactly once
    assert len(got) == len(want)


def test_source_js_divergence(ray_session):
    import math

    got = _df(QUERIES["source_js_divergence"](SF)).iloc[0]
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["lang", "text"])
    from collections import Counter

    en, rest = Counter(), Counter()
    for lang, t in docs.itertuples(index=False):
        (en if lang == "en" else rest).update(t.strip().lower().split(" "))
    ne, nr = sum(en.values()), sum(rest.values())
    vocab = set(en) | set(rest)
    js = 0.0
    for w in vocab:
        p, q = en[w] / ne, rest[w] / nr
        m = (p + q) / 2
        if p > 0:
            js += 0.5 * p * math.log2(p / m)
        if q > 0:
            js += 0.5 * q * math.log2(q / m)
    assert int(got.n_types) == len(vocab)
    assert abs(got.js_bits - js) < 1e-5
    assert 0 <= got.js_bits <= 1  # JS in bits is bounded by 1


def test_token_symspell_neighbors(ray_session):
    got = _df(QUERIES["token_symspell_neighbors"](SF))

    def lev1(a, b):
        if abs(len(a) - len(b)) > 1:
            return False
        # brute force small strings
        import itertools

        la, lb = len(a), len(b)
        prev = list(range(lb + 1))
        for i in range(1, la + 1):
            cur = [i] + [0] * lb
            for j in range(1, lb + 1):
                cur[j] = min(
                    prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (a[i - 1] != b[j - 1])
                )
            prev = cur
        return prev[-1] <= 1

    docs = pd.read_parquet(SF + "/documents.parquet", columns=["text"])
    vocab = sorted(
        {w for (t,) in docs.itertuples(index=False) for w in t.strip().lower().split(" ")}
    )
    want = {
        a: sum(1 for b in vocab if a != b and lev1(a, b)) for a in vocab
    }
    got_map = dict(zip(got.token, got.n_neighbors.astype(int)))
    assert got_map == want
    # the deletion-key recall is exact: brute-force and SymSpell agree even
    # if the corpus happens to have zero distance-1 type pairs


def test_graph_bipartite_projection(ray_session):
    got = _df(QUERIES["graph_bipartite_projection"](SF))
    li = pd.read_parquet(SF + "/lineitem.parquet", columns=["l_partkey", "l_suppkey"])
    e = li.drop_duplicates()
    from collections import Counter

    w = Counter()
    for _, g in e.groupby("l_partkey"):
        ss = sorted(g.l_suppkey.unique())
        for i in range(len(ss)):
            for j in range(i + 1, len(ss)):
                w[(ss[i], ss[j])] += 1
    want = sorted(
        ((c, a, b) for (a, b), c in w.items() if c >= 2),
        key=lambda t: (-t[0], t[1], t[2]),
    )[:1000]
    got_t = [(int(r.weight), int(r.s1), int(r.s2)) for r in got.itertuples(index=False)]
    assert got_t == want
    assert all(a < b for _, a, b in got_t)


def test_csv_malformed_quarantine(ray_session):
    got = _df(QUERIES["csv_malformed_quarantine"](SF)).sort_values("shard")
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["doc_id", "n_chars"])
    ledger = {}
    for i, nc in docs.itertuples(index=False):
        i = int(i)
        sh = i % 8
        g, bf, bt, gc = ledger.get(sh, (0, 0, 0, 0))
        if i % 23 == 0:
            bf += 1
        elif i % 41 == 0:
            bt += 1
        else:
            g += 1
            gc += int(nc)
        ledger[sh] = (g, bf, bt, gc)
    assert len(got) == len(ledger)
    for r in got.itertuples(index=False):
        assert ledger[int(r.shard)] == (
            int(r.n_good),
            int(r.n_bad_fields),
            int(r.n_bad_type),
            int(r.good_chars),
        )
    # reconciliation: good + quarantined == total input rows
    assert int(got.n_good.sum() + got.n_bad_fields.sum() + got.n_bad_type.sum()) == len(docs)
    # both failure modes actually fire in the fixture
    assert got.n_bad_fields.sum() > 0 and got.n_bad_type.sum() > 0


def test_join_size_cms_estimate(ray_session):
    got = _df(QUERIES["join_size_cms_estimate"](SF)).iloc[0]
    o = pd.read_parquet(SF + "/orders.parquet", columns=["o_orderkey"])
    li = pd.read_parquet(SF + "/lineitem.parquet", columns=["l_orderkey"])
    oc = o.o_orderkey.value_counts()
    lc = li.l_orderkey.value_counts()
    exact = int(sum(int(oc[k]) * int(lc[k]) for k in oc.index if k in lc.index))
    assert int(got.exact_size) == exact
    assert int(got.overcount_ok) == 1
    assert int(got.cms_estimate) >= exact
    # the CMS bound: est <= exact + (colliding mass)^2/w is loose; just
    # sanity-bound the blowup at this scale
    assert int(got.cms_estimate) < 50 * max(exact, 1)


def test_warc_cdx_lookup(ray_session):
    got = _df(QUERIES["warc_cdx_lookup"](SF)).sort_values("doc_id")
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["doc_id", "text"])
    existing = set(int(d) for d in docs.doc_id)
    probes = (0, 7, 23, 46, 92, 997001, 997007)
    assert list(got.doc_id) == sorted(probes)
    for r in got.itertuples(index=False):
        if int(r.doc_id) in existing:
            assert int(r.found) == 1 and r.offset >= 0 and r.rec_len > 0
        else:
            assert (int(r.found), int(r.offset), int(r.rec_len)) == (0, -1, -1)
    # dereference one hit independently: record really starts at offset
    hit = got[got.found == 1].iloc[0]
    from sciscraper_ray.pipelines.queries.retrieval import _warc_fixture_dir

    out_dir, _ = _warc_fixture_dir(SF)
    with open(f"{out_dir}/shard-{int(hit.shard):04d}.warc", "rb") as f:
        f.seek(int(hit.offset))
        assert f.read(8) == b"WARC/1.0"


def test_page_extract_idempotent(ray_session):
    got = _df(QUERIES["page_extract_idempotent"](SF))
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["doc_id", "text"])
    want = dict(zip(docs.doc_id.astype(int), docs.text))
    assert (got.fixpoint == 1).all()
    assert dict(zip(got.doc_id.astype(int), got.extracted)) == want


def test_events_viterbi_regime(ray_session):
    got = _df(QUERIES["events_viterbi_regime"](SF)).sort_values("hour")
    import numpy as np

    ev = pd.read_parquet(SF + "/events.parquet", columns=["ts", "value"])
    h = (
        (ev.ts.astype("datetime64[us]").astype("int64") - pd.Timestamp("2024-01-01").value // 1000)
        // 3_600_000_000
    ).to_numpy()
    cents = np.round(ev.value.to_numpy() * 100).astype(int)
    h0 = h.min()
    x = np.zeros(h.max() - h0 + 1, dtype=object)  # python ints, no overflow
    for hh, c in zip(h - h0, cents):
        x[hh] += int(c)
    n = len(x)
    mu = int(sum(x)) // n
    muh, mul = (3 * mu) // 2, mu // 2
    pen = ((muh - mul) // 2) ** 2
    vh = [0] * n
    vl = [0] * n
    vh[0], vl[0] = (x[0] - muh) ** 2, (x[0] - mul) ** 2
    for t in range(1, n):
        vh[t] = (x[t] - muh) ** 2 + min(vh[t - 1], vl[t - 1] + pen)
        vl[t] = (x[t] - mul) ** 2 + min(vl[t - 1], vh[t - 1] + pen)
    st = [0] * n
    st[-1] = 1 if vh[-1] <= vl[-1] else 0
    for t in range(n - 2, -1, -1):
        st[t] = (
            (1 if vh[t] <= vl[t] + pen else 0)
            if st[t + 1] == 1
            else (0 if vl[t] <= vh[t] + pen else 1)
        )
    want = ["high" if s == 1 else "low" for s in st]
    assert list(got.regime) == want
    assert list(got.cents) == [int(v) for v in x]
    # both regimes appear (the sparse sf0.001 series has a tiny mean, so
    # the derived penalty is weak and the path tracks the data closely —
    # the smoothing-strength regime is exercised at sf0.01+ by the oracle)
    assert {"high", "low"} == set(got.regime)


def test_counting_bloom_deletes(ray_session):
    got = _df(QUERIES["counting_bloom_deletes"](SF))
    o = pd.read_parquet(SF + "/orders.parquet", columns=["o_orderkey", "o_custkey"])
    live = set(o[o.o_orderkey % 2 == 1].o_custkey.astype(int))
    assert (got.no_false_negative == 1).all()
    for r in got.itertuples(index=False):
        assert int(r.true_present) == int(int(r.custkey) in live)
        if r.true_present:
            assert r.cbf_hit == 1  # live keys can never read absent


def test_retrieval_mmr_rerank(ray_session):
    import numpy as np

    got = _df(QUERIES["retrieval_mmr_rerank"](SF)).sort_values("rank")
    emb = pd.read_parquet(SF + "/embeddings.parquet", columns=["vec_id", "embedding"])
    emb = emb[emb.vec_id < 200].sort_values("vec_id")
    mat = np.stack([np.asarray(v, np.float64) for v in emb.embedding])
    ids = emb.vec_id.to_numpy(int)
    nm = np.linalg.norm(mat, axis=1)
    q = int(np.flatnonzero(ids == 0)[0])
    cmask = ids != 0
    cid, cm, cn = ids[cmask], mat[cmask], nm[cmask]
    rel = (cm @ mat[q]) / (cn * nm[q])
    pair = (cm @ cm.T) / np.outer(cn, cn)
    picked = []
    for _ in range(8):
        pen = pair[:, picked].max(axis=1) if picked else np.zeros(len(cid))
        score = 0.7 * rel - 0.3 * pen
        for j in picked:
            score[j] = -np.inf
        best = min(range(len(cid)), key=lambda j: (-score[j], cid[j]))
        picked.append(best)
    assert list(got.vec_id) == [int(cid[j]) for j in picked]
    # MMR property: picks are pairwise less similar than a pure top-k head
    topk = np.argsort(-rel, kind="stable")[:8]
    mmr_div = pair[np.ix_(picked, picked)][np.triu_indices(8, 1)].mean()
    top_div = pair[np.ix_(topk, topk)][np.triu_indices(8, 1)].mean()
    assert mmr_div <= top_div + 1e-9


def test_host_budget_waterfill(ray_session):
    got = _df(QUERIES["host_budget_waterfill"](SF))
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["doc_id"])
    from collections import Counter

    from sciscraper_ray.sources.page_synth import host_for

    caps = Counter(host_for(int(d)) for (d,) in docs.itertuples(index=False))
    budget = sum(caps.values()) // 2
    # water-filling reference: raise level until budget exhausted
    alloc = {h: 0 for h in caps}
    level = 0
    while sum(min(caps[h], level + 1) for h in caps) <= budget:
        level += 1
    alloc = {h: min(caps[h], level) for h in caps}
    rem = budget - sum(alloc.values())
    unsat = sorted((h for h in caps if caps[h] > level), key=lambda h: (caps[h], h))
    for h in unsat[-rem:] if rem else []:
        alloc[h] += 1
    got_map = {r.host: (int(r.cap), int(r.alloc)) for r in got.itertuples(index=False)}
    assert got_map == {h: (caps[h], alloc[h]) for h in caps}
    # allocation is feasible, exhausts the budget, and is max-min fair:
    assert sum(a for _, a in got_map.values()) == budget
    assert all(a <= c for c, a in got_map.values())


def test_protobuf_roundtrip(ray_session):
    got = _df(QUERIES["protobuf_roundtrip"](SF)).sort_values("doc_id").reset_index(drop=True)
    want = (
        pd.read_parquet(SF + "/documents.parquet")[["doc_id", "lang", "n_chars"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got[["doc_id", "lang", "n_chars"]].astype(
        {"doc_id": "int64", "n_chars": "int64"}
    ).equals(want.astype({"doc_id": "int64", "n_chars": "int64"}))


def test_pb_varint_kernel():
    from sciscraper_ray.pipelines.queries.corpus_ops import (
        _pb_read_varint,
        _pb_varint,
    )

    for n in [0, 1, 127, 128, 300, 2**21 - 1, 2**35 + 7]:
        buf = _pb_varint(n)
        val, pos = _pb_read_varint(buf, 0)
        assert (val, pos) == (n, len(buf))
    assert _pb_varint(300) == b"\xac\x02"  # protobuf docs' canonical example


def test_retrieval_bm25_prf(ray_session):
    import math

    got = _df(QUERIES["retrieval_bm25_prf"](SF)).sort_values("rank")
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["doc_id", "text"])
    toks = {int(i): t.strip().lower().split(" ") for i, t in docs.itertuples(index=False)}
    n = len(toks)
    avgdl = sum(len(v) for v in toks.values()) / n
    from collections import Counter

    df = Counter()
    for v in toks.values():
        df.update(set(v))

    def bm25(terms):
        out = {}
        for d, v in toks.items():
            c = Counter(v)
            s = 0.0
            for t in terms:
                tf = c[t]
                if tf:
                    idf = math.log(1 + (n - df[t] + 0.5) / (df[t] + 0.5))
                    s += idf * (tf * 2.2) / (tf + 1.2 * (0.25 + 0.75 * (len(v) / avgdl)))
            out[d] = s
        return out

    seed = bm25(("join", "hash", "scan"))
    fb = sorted(seed, key=lambda d: (-seed[d], d))[:3]
    cnt = Counter()
    for d in fb:
        cnt.update(toks[d])
    for q in ("join", "hash", "scan"):
        del cnt[q]
    exp = sorted(cnt, key=lambda t: (-cnt[t], t))[:2]
    final = bm25(("join", "hash", "scan") + tuple(exp))
    want = sorted(final, key=lambda d: (-final[d], d))[:10]
    assert list(got.doc_id.astype(int)) == want
    for r in got.itertuples(index=False):
        assert abs(r.score - final[int(r.doc_id)]) < 1e-9
    # feedback must actually change the ranking vs the seed query
    seed_top = sorted(seed, key=lambda d: (-seed[d], d))[:10]
    assert want != seed_top or exp  # expansion terms exist


def test_embedding_greedy_graph_search(ray_session):
    import numpy as np

    got = _df(QUERIES["embedding_greedy_graph_search"](SF)).sort_values("step")
    emb = pd.read_parquet(SF + "/embeddings.parquet", columns=["vec_id", "embedding"])
    emb = emb[emb.vec_id < 300].sort_values("vec_id")
    ids = emb.vec_id.to_numpy(int)
    mat = np.stack([np.asarray(v, np.float64) for v in emb.embedding])
    nm = np.linalg.norm(mat, axis=1)
    q = int(np.flatnonzero(ids == 0)[0])
    mask = ids != 0
    nid, nmx, nnm = ids[mask], mat[mask], nm[mask]
    simq = (nmx @ mat[q]) / (nnm * nm[q])
    pair = (nmx @ nmx.T) / np.outer(nnm, nnm)
    np.fill_diagonal(pair, -np.inf)
    pos = {int(v): i for i, v in enumerate(nid)}
    cur = pos[1]
    trail = [1]
    for _ in range(10):
        nbs = sorted(range(len(nid)), key=lambda j: (-pair[cur][j], nid[j]))[:8]
        best = min(nbs, key=lambda j: (-simq[j], nid[j]))
        if simq[best] > simq[cur]:
            cur = best
        trail.append(int(nid[cur]))
    assert list(got.node) == trail
    # the walk's query similarity is monotone nondecreasing
    sims = [simq[pos[n]] for n in got.node]
    assert all(b >= a - 1e-12 for a, b in zip(sims, sims[1:]))


def test_url_punycode_decode(ray_session):
    got = _df(QUERIES["url_punycode_decode"](SF))
    bases = ("bücher", "café", "niño")
    for r in got.itertuples(index=False):
        i = int(r.doc_id)
        assert r.unicode_host == f"{bases[i % 3]}{i}.example.org"


def test_graph_ppr_sweep_cut(ray_session):
    got = _df(QUERIES["graph_ppr_sweep_cut"](SF)).sort_values("k")
    li = pd.read_parquet(SF + "/lineitem.parquet", columns=["l_partkey", "l_suppkey"])
    e0 = {(int(p), int(s) + 10_000_000) for p, s in li.itertuples(index=False)}
    edges = list(e0) + [(b, a) for a, b in e0]
    from collections import Counter

    deg = Counter(u for u, _ in edges)
    m2 = len(edges)
    members = list(got.node.astype(int))
    # verify the exact conductance of each reported prefix independently
    for k in range(1, len(members) + 1):
        s = set(members[:k])
        vol = sum(deg[u] for u in s)
        # edges holds both directions; an undirected boundary edge crosses twice
        cut = sum(1 for u, v in edges if (u in s) != (v in s)) // 2
        row = got.iloc[k - 1]
        assert (int(row.vol), int(row.cut)) == (vol, cut), k
        assert abs(row.conductance - cut / min(vol, m2 - vol)) < 1e-12
    # sweep members are high-PPR nodes: seeds and their neighborhood
    assert any(n < 50 for n in members)


def test_events_bounce_rate(ray_session):
    got = _df(QUERIES["events_bounce_rate"](SF))
    ev = pd.read_parquet(
        SF + "/events.parquet", columns=["user_id", "event_id", "ts", "event_type"]
    ).sort_values(["user_id", "ts", "event_id"])
    gap = pd.Timedelta(minutes=30)
    from collections import Counter

    n_sessions, n_bounces = Counter(), Counter()
    for _, g in ev.groupby("user_id"):
        entry, n, prev = None, 0, None
        for r in g.itertuples(index=False):
            if prev is None or r.ts - prev > gap:
                if entry is not None:
                    n_sessions[entry] += 1
                    n_bounces[entry] += int(n == 1)
                entry, n = r.event_type, 0
            n += 1
            prev = r.ts
        n_sessions[entry] += 1
        n_bounces[entry] += int(n == 1)
    for r in got.itertuples(index=False):
        assert (int(r.n_sessions), int(r.n_bounces)) == (
            n_sessions[r.entry_type],
            n_bounces[r.entry_type],
        )
        assert abs(r.bounce_rate - n_bounces[r.entry_type] / n_sessions[r.entry_type]) < 1e-12
    assert len(got) == len(n_sessions)


def test_token_subsample_mikolov(ray_session):
    import hashlib
    import math

    got = _df(QUERIES["token_subsample_mikolov"](SF))
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["doc_id", "text"])
    from collections import Counter

    freq = Counter()
    occ = []
    for i, t in docs.itertuples(index=False):
        toks = t.strip().lower().split(" ")
        freq.update(toks)
        occ.extend((int(i), k, tok) for k, tok in enumerate(toks))
    total = sum(freq.values())
    kept = Counter()
    for i, k, tok in occ:
        f = freq[tok] / total
        p = min(1.0, math.sqrt(1e-3 / f) + 1e-3 / f)
        u = int(hashlib.md5(f"{i}:{k}:{tok}".encode()).hexdigest()[:15], 16) / 1152921504606846976
        if u < p:
            kept[tok] += 1
    got_map = {
        r.token: (int(r.orig_cnt), int(r.kept_cnt)) for r in got.itertuples(index=False)
    }
    assert got_map == {t: (freq[t], kept[t]) for t in freq}
    # frequent tokens are thinned, rare tokens survive intact
    common = max(freq, key=freq.get)
    assert got_map[common][1] < got_map[common][0]


def test_lineitem_simpson_audit(ray_session):
    got = _df(QUERIES["lineitem_simpson_audit"](SF))
    li = pd.read_parquet(
        SF + "/lineitem.parquet",
        columns=["l_returnflag", "l_discount", "l_quantity"],
    )
    import numpy as np

    d = np.round(li.l_discount.to_numpy() * 100).astype(int)
    q = li.l_quantity.to_numpy().astype(int)
    g = li.l_returnflag.to_numpy()

    def sign(mask):
        n = int(mask.sum())
        num = n * int((d[mask] * q[mask]).sum()) - int(d[mask].sum()) * int(
            q[mask].sum()
        )
        return (n, 1 if num > 0 else (-1 if num < 0 else 0))

    want = {grp: sign(g == grp) for grp in set(g)}
    want["ALL"] = sign(np.ones(len(g), bool))
    got_map = {r.grp: (int(r.n), int(r.cov_sign)) for r in got.itertuples(index=False)}
    assert got_map == want
    assert len(got) == len(set(g)) + 1


def test_orders_mann_kendall(ray_session):
    import numpy as np

    got = _df(QUERIES["orders_mann_kendall"](SF)).iloc[0]
    o = pd.read_parquet(SF + "/orders.parquet", columns=["o_orderdate", "o_totalprice"])
    mi = (o.o_orderdate.dt.year * 12 + o.o_orderdate.dt.month - 1).to_numpy()
    cents = np.round(o.o_totalprice.to_numpy() * 100).astype(int)
    m = pd.DataFrame({"mi": mi, "c": cents}).groupby("mi")["c"].sum().sort_index()
    c = m.to_numpy()
    n = len(c)
    s = sum(
        int(np.sign(c[j] - c[i])) for i in range(n) for j in range(i + 1, n)
    )
    var18 = n * (n - 1) * (2 * n + 5)
    assert (int(got.n_months), int(got.s_stat), int(got.var18)) == (n, s, var18)
    assert abs(got.z - s / (var18 / 18) ** 0.5) < 1e-9
    assert abs(got.s_stat) <= n * (n - 1) / 2


def test_link_powerlaw_alpha(ray_session):
    import math

    got = _df(QUERIES["link_powerlaw_alpha"](SF)).iloc[0]
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["doc_id"])
    from collections import Counter

    ind = Counter()
    for (i,) in docs.itertuples(index=False):
        i = int(i)
        ind[(i * 17 + 13) % 997] += 1
        ind[(i * 29 + 7) % 997] += 1
    dm = min(ind.values())
    n = len(ind)
    alpha = 1 + n / sum(math.log(d / dm) for d in ind.values())
    assert (int(got.n_nodes), int(got.d_min)) == (n, dm)
    assert abs(got.alpha - alpha) < 1e-9
    assert got.alpha > 1


def test_source_burrows_delta(ray_session):
    import numpy as np

    got = _df(QUERIES["source_burrows_delta"](SF))
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["source", "text"])
    from collections import Counter

    per_src, tot = {}, Counter()
    for s, t in docs.itertuples(index=False):
        ws = t.strip().lower().split(" ")
        per_src.setdefault(s, Counter()).update(ws)
        tot.update(ws)
    mfw = sorted(tot, key=lambda t: (-tot[t], t))[:15]
    sources = sorted(per_src)
    f = np.array(
        [
            [per_src[s][w] / sum(per_src[s].values()) for w in mfw]
            for s in sources
        ]
    )
    mu = f.mean(axis=0)
    sd = np.sqrt((f * f).mean(axis=0) - mu * mu)
    z = (f - mu) / sd
    want = {}
    for i in range(len(sources)):
        for j in range(i + 1, len(sources)):
            want[(sources[i], sources[j])] = np.abs(z[i] - z[j]).mean()
    assert len(got) == len(want)
    for r in got.itertuples(index=False):
        assert abs(r.delta - want[(r.s1, r.s2)]) < 1e-6
    assert (got.delta > 0).all()


def test_events_mutual_info_type_hour(ray_session):
    import math

    got = _df(QUERIES["events_mutual_info_type_hour"](SF)).iloc[0]
    ev = pd.read_parquet(SF + "/events.parquet", columns=["event_type", "ts"])
    from collections import Counter

    joint = Counter(zip(ev.event_type, ev.ts.dt.hour))
    n = sum(joint.values())
    ct, ch = Counter(), Counter()
    for (t, h), c in joint.items():
        ct[t] += c
        ch[h] += c
    mi = sum(
        (c / n) * math.log(c * n / (ct[t] * ch[h])) for (t, h), c in joint.items()
    )
    assert int(got.n_events) == n and int(got.n_cells) == len(joint)
    assert abs(got.mi_nats - mi) < 1e-6
    assert got.mi_nats >= -1e-9  # MI is nonnegative


def test_events_dau_stickiness(ray_session):
    got = _df(QUERIES["events_dau_stickiness"](SF)).sort_values("day")
    ev = pd.read_parquet(SF + "/events.parquet", columns=["ts", "user_id"])
    day = (
        (ev.ts.astype("datetime64[us]").astype("int64") - pd.Timestamp("2024-01-01").value // 1000)
        // 86_400_000_000
    )
    dau = ev.assign(day=day).groupby("day")["user_id"].nunique()
    mau = ev.user_id.nunique()
    assert list(got.day) == sorted(dau.index)
    for r in got.itertuples(index=False):
        assert int(r.dau) == dau[r.day] and int(r.mau) == mau
        assert abs(r.stickiness - dau[r.day] / mau) < 1e-12
    assert (got.stickiness <= 1).all() and (got.stickiness > 0).all()
