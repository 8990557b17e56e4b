"""Round-2 widening: quantiles, windows, graph, substr, C4, sketches, storage ops.

Split from pipelines/queries.py (round 4); registration side effects
only — import order is fixed by the package __init__.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from sciscraper_ray.kernels.md5 import md5_hex15, md5_hex15_sql
from sciscraper_ray.pipelines.queries._shared import (
    _SQL_TOKENS,
    _docs,
    cents,
    register,
)
from sciscraper_ray.pipelines.queries.dedup import _bigram_counts, _ngram_positions
from sciscraper_ray.stages.relational import group_count_batch


# ---------------------------------------------------------------------------
# Round-2 widening: distributed exact quantiles, Gopher-style repetition,
# anti-join, corpus bigram statistics, stratified sampling.


@register(
    "lineitem_quantiles",
    oracle="""
    SELECT l_returnflag,
           unnest([0.25, 0.5, 0.75]) AS p,
           unnest(quantile_disc(l_quantity, [0.25, 0.5, 0.75])) AS q_value
    FROM lineitem
    GROUP BY l_returnflag
    """,
)
def lineitem_quantiles(sf_dir: str):
    """Distributed EXACT grouped quantiles via value-histogram reduction:
    per-batch (group, value) -> count partials compress 10^12 rows into
    |groups| x |distinct values| histogram rows; a tiny global groupby
    sums them, and the driver takes a cumulative sum per group to read
    off quantile_disc (sorted-position ceil(p*n)-1). No row-level
    shuffle ever happens and nothing large is sorted -- the all-to-all
    moves only histogram cells. Assumption (documented): the value
    column has bounded distinct cardinality (prices, sizes, ratings);
    for unbounded continuous columns the scale path is the same shape
    over a t-digest / fixed-bin sketch with bounded error."""
    import math

    import ray.data

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_quantity"]
    )

    def histogram(batch: pa.Table) -> pa.Table:
        agg = batch.group_by(["l_returnflag", "l_quantity"]).aggregate(
            [("l_quantity", "count")]
        )
        return agg.rename_columns(["l_returnflag", "l_quantity", "cnt"])

    # bounded: |flags| x |quantity domain| x blocks
    hist = ds.map_batches(histogram, batch_format="pyarrow").to_pandas()
    hist = (
        hist.groupby(["l_returnflag", "l_quantity"], as_index=False)["cnt"]
        .sum()
        .sort_values(["l_returnflag", "l_quantity"])
    )
    out = {"l_returnflag": [], "p": [], "q_value": []}
    for flag, g in hist.groupby("l_returnflag", sort=True):
        vals = g["l_quantity"].to_numpy()
        cum = g["cnt"].to_numpy().cumsum()
        n = int(cum[-1])
        for p in (0.25, 0.5, 0.75):
            rank = max(1, math.ceil(p * n))  # 1-based sorted position
            out["l_returnflag"].append(flag)
            out["p"].append(p)
            out["q_value"].append(float(vals[np.searchsorted(cum, rank)]))
    return pa.table(
        {
            "l_returnflag": pa.array(out["l_returnflag"], type=pa.string()),
            "p": pa.array(out["p"], type=pa.float64()),
            "q_value": pa.array(out["q_value"], type=pa.float64()),
        }
    )


@register(
    "doc_repetition",
    oracle=f"""
    WITH d AS (
        SELECT doc_id, {_SQL_TOKENS} AS toks, len({_SQL_TOKENS}) AS n
        FROM documents
    ), w AS (
        SELECT doc_id, unnest(range(n - 1)) AS k, toks
        FROM d WHERE n >= 2
    ), bg AS (
        SELECT doc_id,
               array_to_string(list_slice(toks, k + 1, k + 2), ' ') AS bg
        FROM w
    ), per AS (
        SELECT doc_id, bg, count(*) AS cnt FROM bg GROUP BY doc_id, bg
    ), agg AS (
        SELECT doc_id,
               CAST(sum(cnt) AS BIGINT) AS n_bigrams,
               CAST(coalesce(sum(cnt) FILTER (cnt > 1), 0) AS BIGINT)
                   AS n_repeated
        FROM per GROUP BY doc_id
    )
    SELECT d.doc_id,
           coalesce(agg.n_bigrams, 0) AS n_bigrams,
           coalesce(agg.n_repeated, 0) AS n_repeated,
           (coalesce(agg.n_repeated, 0) * 5
               < coalesce(agg.n_bigrams, 0)) AS keep
    FROM d LEFT JOIN agg USING (doc_id)
    """,
)
def doc_repetition(sf_dir: str):
    """Gopher-style within-document repetition filter: the fraction of
    word-bigram OCCURRENCES that belong to a bigram appearing more than
    once in the same document; docs with >= 20% repeated mass are
    flagged (keep = False). Embarrassingly parallel -- each row is one
    whole document, so the per-doc bigram tally completes inside its
    batch with one Arrow group_by; no shuffle. The keep predicate is
    integer-only (n_repeated * 5 < n_bigrams) so both engines compare
    exact ints, never float ratios."""

    def repetition(batch: pa.Table) -> pa.Table:
        pos, bg = _ngram_positions(batch, 2)
        total = np.zeros(len(batch), dtype=np.int64)
        rep = np.zeros(len(batch), dtype=np.int64)
        if len(pos):
            pairs = pa.table({"p": pa.array(pos), "bg": bg})
            per = pairs.group_by(["p", "bg"]).aggregate([("bg", "count")])
            pv = per["p"].to_numpy()
            cnt = per["bg_count"].to_numpy()
            np.add.at(total, pv, cnt)
            dup = cnt > 1
            np.add.at(rep, pv[dup], cnt[dup])
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_bigrams": pa.array(total, type=pa.int64()),
                "n_repeated": pa.array(rep, type=pa.int64()),
                "keep": pa.array(rep * 5 < total),
            }
        )

    return _docs(sf_dir).map_batches(repetition, batch_format="pyarrow")


@register(
    "orders_anti_join",
    oracle="""
    SELECT o_orderkey, o_custkey, o_totalprice
    FROM orders
    WHERE o_orderkey NOT IN (SELECT l_orderkey FROM lineitem)
    """,
)
def orders_anti_join(sf_dir: str):
    """Distributed ANTI-join (orders with no lineitem): the probe side's
    key set is reduced to per-batch distinct partials (key-only columns
    -- payload bytes never move), unioned once, and broadcast via
    ``ray.put``; every orders batch then drops matches with one
    vectorized ``pc.is_in``. Same broadcast-filter shape as exact dedup
    (pipelines/dedup.py): the 10^12-row side streams untouched, only
    distinct keys concentrate. Scale bound (documented): distinct probe
    keys must fit a worker heap (~50M comfortably); past that the scale
    path is the hash-bucketed co-partitioned semi-join -- bucket BOTH
    sides by key hash and anti-join bucket-locally."""
    import ray
    import ray.data

    keys = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey"]
    )

    def distinct_part(b: pa.Table) -> pa.Table:
        return pa.table({"k": pc.unique(b["l_orderkey"])})

    from sciscraper_ray.pipelines.plan import driver_frame

    parts = driver_frame(
        keys.map_batches(distinct_part, batch_format="pyarrow"),
        what="orders_semijoin (distinct-key broadcast side)",
    )
    key_set = pa.array(parts["k"].unique(), type=pa.int64())
    key_ref = ray.put(key_set)

    class AntiFilter:
        def __init__(self):
            self.keys = ray.get(key_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            hit = pc.is_in(batch["o_orderkey"], value_set=self.keys)
            return batch.filter(pc.invert(hit))

    return (
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_custkey", "o_totalprice"],
        )
        .map_batches(AntiFilter, batch_format="pyarrow", concurrency=(1, 4))
    )


@register(
    "token_bigram_next",
    oracle=f"""
    WITH d AS (
        SELECT doc_id, {_SQL_TOKENS} AS toks, len({_SQL_TOKENS}) AS n
        FROM documents
    ), w AS (
        SELECT unnest(range(n - 1)) AS k, toks FROM d WHERE n >= 2
    ), bg AS (
        SELECT toks[k + 1] AS token, toks[k + 2] AS next_token FROM w
    ), cnt AS (
        SELECT token, next_token, count(*) AS cnt
        FROM bg GROUP BY token, next_token
    ), ranked AS (
        SELECT token, next_token, cnt,
               row_number() OVER (
                   PARTITION BY token ORDER BY cnt DESC, next_token ASC
               ) AS rn
        FROM cnt
    )
    SELECT token, next_token, cnt FROM ranked WHERE rn = 1
    """,
)
def token_bigram_next(sf_dir: str):
    """Corpus bigram language-model statistics: for every token, its
    most frequent successor (ties broken by lexicographically smallest
    successor) and that bigram's corpus count. Two-phase: per-batch
    Arrow group_by compresses each batch to its distinct (token, next)
    partial counts -- the all-to-all then moves only O(vocab^2)
    histogram rows, never token streams -- and the tiny combined table
    reduces on the driver with one vectorized lexsort. The same shape
    serves any n-gram LM count collection."""
    merged = _bigram_counts(sf_dir, "token_bigram_next")
    order = np.lexsort(
        (
            merged["next_token"].to_numpy(),
            -merged["cnt"].to_numpy(),
            merged["token"].to_numpy(),
        )
    )
    merged = merged.iloc[order]
    first = merged.drop_duplicates("token", keep="first")
    return pa.table(
        {
            "token": pa.array(first["token"], type=pa.string()),
            "next_token": pa.array(first["next_token"], type=pa.string()),
            "cnt": pa.array(first["cnt"].to_numpy(), type=pa.int64()),
        }
    )


@register(
    "token_zipf_slope",
    oracle=f"""
    WITH toks AS (SELECT unnest({_SQL_TOKENS}) AS token FROM documents),
    cnt AS (SELECT token, CAST(count(*) AS DOUBLE) AS c FROM toks GROUP BY token),
    ranked AS (
        SELECT c, row_number() OVER (ORDER BY c DESC, token ASC) AS rnk FROM cnt
    ),
    xy AS (SELECT ln(CAST(rnk AS DOUBLE)) AS x, ln(c) AS y FROM ranked),
    s AS (
        SELECT count(*) AS n, sum(x) AS sx, sum(y) AS sy,
               sum(x * y) AS sxy, sum(x * x) AS sxx
        FROM xy
    )
    SELECT round((n * sxy - sx * sy) / (n * sxx - sx * sx), 8) AS slope,
           CAST(n AS BIGINT) AS n_types
    FROM s
    """,
)
def token_zipf_slope(sf_dir: str, mode: str = "auto"):
    """Corpus-QA Zipf fit: least-squares slope of ln(frequency) against
    ln(rank) over the full token frequency table (natural text sits near
    -1; a flat or cliffed slope flags boilerplate floods or dedup
    failures — a standard crawl-health dashboard stat). Per-batch Arrow
    group_by partials bound each batch's rows by its vocabulary, but the
    merged partial table is vocab x blocks rows — data-proportional at
    crawl scale — so it routes through ``resolve_plan`` (VERDICT r4
    item 1, same policy as top_tokens_global): below the 50M-row bound
    one pandas hash groupby + lexsort on the driver; above it a
    distributed Sum-aggregate + distributed sort by (cnt desc, token),
    then the five regression sums accumulate STREAMING over
    ``iter_batches`` with a running rank offset — O(1) driver memory,
    never the full frequency table. The closed form is mirrored
    term-for-term in the oracle so the rounded double matches."""
    from sciscraper_ray.kernels.tokenize import tokenize_column
    from sciscraper_ray.pipelines.plan import driver_frame, resolve_plan

    def partials(batch: pa.Table) -> pa.Table:
        toks = tokenize_column(batch["text"]).combine_chunks()
        flat = pc.list_flatten(toks)
        return group_count_batch(pa.table({"token": flat}), ["token"])

    parts_ds = _docs(sf_dir).map_batches(partials, batch_format="pyarrow")
    plan, parts_ds = resolve_plan(parts_ds, mode)

    def fit(n, sx, sy, sxy, sxx) -> pa.Table:
        slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
        return pa.table(
            {
                "slope": pa.array([round(float(slope), 8)], pa.float64()),
                "n_types": pa.array([int(n)], pa.int64()),
            }
        )

    if plan == "shuffle":
        from ray.data.aggregate import Sum

        ranked = (
            parts_ds.groupby("token")
            .aggregate(Sum(on="cnt", alias_name="cnt"))
            .sort(key=["cnt", "token"], descending=[True, False])
        )
        n = 0
        sx = sy = sxy = sxx = 0.0
        for batch in ranked.iter_batches(
            batch_size=1 << 20, batch_format="pyarrow"
        ):
            c = batch["cnt"].to_numpy(zero_copy_only=False).astype(np.float64)
            x = np.log(np.arange(n + 1, n + 1 + len(c), dtype=np.float64))
            y = np.log(c)
            n += len(c)
            sx += float(np.sum(x))
            sy += float(np.sum(y))
            sxy += float(np.sum(x * y))
            sxx += float(np.sum(x * x))
        return fit(float(n), sx, sy, sxy, sxx)

    parts = driver_frame(parts_ds, what="token_zipf_slope")
    merged = parts.groupby("token", as_index=False)["cnt"].sum()
    order = np.lexsort((merged["token"].to_numpy(), -merged["cnt"].to_numpy()))
    c = merged["cnt"].to_numpy()[order].astype(np.float64)
    n = len(c)
    x = np.log(np.arange(1, n + 1, dtype=np.float64))
    y = np.log(c)
    return fit(
        float(n),
        float(np.sum(x)),
        float(np.sum(y)),
        float(np.sum(x * y)),
        float(np.sum(x * x)),
    )


@register(
    "doc_ngram_novelty",
    oracle=f"""
    WITH d AS (
        SELECT doc_id, {_SQL_TOKENS} AS toks, len({_SQL_TOKENS}) AS n
        FROM documents
    ), w AS (
        SELECT doc_id, unnest(range(n - 2)) AS k, toks FROM d WHERE n >= 3
    ), g AS (
        SELECT DISTINCT doc_id,
               toks[k + 1] || ' ' || toks[k + 2] || ' ' || toks[k + 3] AS gram
        FROM w
    ),
    first AS (SELECT gram, min(doc_id) AS fdoc FROM g GROUP BY gram),
    t AS (SELECT doc_id, count(*) AS n_grams FROM g GROUP BY doc_id),
    nv AS (SELECT fdoc AS doc_id, count(*) AS n_new FROM first GROUP BY fdoc)
    SELECT t.doc_id,
           CAST(COALESCE(nv.n_new, 0) AS DOUBLE) / t.n_grams AS novelty,
           CAST(t.n_grams AS BIGINT) AS n_grams
    FROM t LEFT JOIN nv USING (doc_id)
    """,
)
def doc_ngram_novelty(sf_dir: str, mode: str = "auto"):
    """Curation novelty score: the fraction of each document's DISTINCT
    word 3-grams whose corpus-wide first occurrence (min doc_id) is this
    document — near-0 marks template/boilerplate floods, near-1 marks
    fresh content (the ordering-based cousin of the CCNet frequency
    strip). The key insight keeps it join-free: after min-doc-per-gram,
    a doc's novel-gram count is just the SIZE of its segment in that
    winner table (group the winners BY WINNER), so the whole op is two
    corpus-token-bounded aggregates — no gram-level join back to the
    corpus. Grams never materialize as strings: the batch kernel reuses
    the vectorized token-hash + position-weighted window mix from the
    MinHash stage (stages/dedup.py), widened to a 128-bit two-int64 key
    (``_window_hashes128``) so a gram-hash collision — which would merge
    two grams' first-occurrence attribution and diverge from the
    string-keyed oracle — needs both independent channels to collide
    (the same key width the exact-dedup path standardizes on; ADVICE r3).

    Physical plan via ``resolve_plan`` (the same <=50M-row policy as
    dedup_exact): below the limit, the per-doc-distinct (doc_id, h_hi,
    h_lo) pairs merge on the driver (one lexsort + segment heads, all C);
    above it, the SAME materialized pairs feed two distributed
    aggregates — groupby(gram).Min(doc_id) then count-by-winner, plus
    groupby(doc_id).count for the denominators — and only doc-bounded
    rows ever reach the driver. ``auto`` materializes the pair table
    once (object-store blocks, spillable; reused by both aggregates) and
    counts it for free."""
    import pandas as pd

    from ray.data.aggregate import Count, Min

    from sciscraper_ray.kernels.tokenize import tokenize_column
    from sciscraper_ray.pipelines.plan import driver_frame, resolve_plan
    from sciscraper_ray.stages.dedup import _hash_tokens128, _window_hashes128

    def pairs_partial(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "h_hi": pa.array([], pa.int64()),
                "h_lo": pa.array([], pa.int64()),
            }
        )
        toks = tokenize_column(batch["text"]).combine_chunks()
        flat = pc.list_flatten(toks)
        if len(flat) < 3:
            return empty
        par = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        t_hi, t_lo = _hash_tokens128(flat)  # zero-copy Arrow path
        w_hi, w_lo = _window_hashes128(t_hi, t_lo, 3)  # all length-3 windows
        m = len(w_lo)
        same_doc = par[0:m] == par[2 : m + 2]  # window stays inside one doc
        if not same_doc.any():
            return empty
        docs = batch["doc_id"].to_numpy(zero_copy_only=False)[par[0:m][same_doc]]
        hi = w_hi[same_doc].view(np.int64)
        lo = w_lo[same_doc].view(np.int64)
        order = np.lexsort((lo, hi, docs))
        docs, hi, lo = docs[order], hi[order], lo[order]
        keep = np.empty(len(lo), dtype=bool)  # per-doc distinct grams
        keep[0] = True
        keep[1:] = (
            (docs[1:] != docs[:-1]) | (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
        )
        return pa.table(
            {
                "doc_id": pa.array(docs[keep], pa.int64()),
                "h_hi": pa.array(hi[keep], pa.int64()),
                "h_lo": pa.array(lo[keep], pa.int64()),
            }
        )

    def result_table(uniq_docs, n_new_arr, t_cnt) -> pa.Table:
        return pa.table(
            {
                "doc_id": pa.array(np.asarray(uniq_docs, np.int64), pa.int64()),
                "novelty": pa.array(
                    np.asarray(n_new_arr, np.float64)
                    / np.asarray(t_cnt, np.float64),
                    pa.float64(),
                ),
                "n_grams": pa.array(np.asarray(t_cnt, np.int64), pa.int64()),
            }
        )

    pairs_ds = _docs(sf_dir).map_batches(pairs_partial, batch_format="pyarrow")
    mode, pairs_ds = resolve_plan(pairs_ds, mode)

    if mode == "shuffle":
        # Both aggregates consume the same pair rows; materialize once so
        # the tokenize/hash pass runs once (auto already did this — the
        # blocks live in the object store and spill, never on the driver).
        pairs_ds = pairs_ds.materialize()
        winners = pairs_ds.groupby(["h_hi", "h_lo"]).aggregate(
            Min(on="doc_id", alias_name="fdoc")
        )
        n_new_df = (
            winners.groupby("fdoc")
            .aggregate(Count(alias_name="n_new"))
            .to_pandas()  # bounded: docs
        )
        totals_df = (
            pairs_ds.groupby("doc_id")
            .aggregate(Count(alias_name="n_grams"))
            .to_pandas()  # bounded: docs
        )
        if totals_df.empty:
            return result_table([], [], [])
        merged = totals_df.merge(
            n_new_df.rename(columns={"fdoc": "doc_id"}), on="doc_id", how="left"
        ).sort_values("doc_id")
        return result_table(
            merged["doc_id"].to_numpy(),
            merged["n_new"].fillna(0).to_numpy(np.float64),
            merged["n_grams"].to_numpy(),
        )

    pairs = driver_frame(pairs_ds, what="doc_ngram_novelty")
    if pairs.empty:  # corpus with no 3-token docs (ADVICE r3)
        return result_table([], [], [])
    doc = pairs["doc_id"].to_numpy()
    hi = pairs["h_hi"].to_numpy()
    lo = pairs["h_lo"].to_numpy()
    order = np.lexsort((doc, lo, hi))  # by gram, min doc first per segment
    doc_s, hi_s, lo_s = doc[order], hi[order], lo[order]
    starts = np.empty(len(lo_s), dtype=bool)
    starts[0] = True
    starts[1:] = (hi_s[1:] != hi_s[:-1]) | (lo_s[1:] != lo_s[:-1])
    fdoc = doc_s[starts]  # winner (= first) doc of every distinct gram
    uniq_docs, t_cnt = np.unique(doc, return_counts=True)  # per-doc distinct
    n_new = pd.Series(fdoc).value_counts()
    n_new_arr = n_new.reindex(uniq_docs, fill_value=0).to_numpy(np.float64)
    return result_table(uniq_docs, n_new_arr, t_cnt)


@register(
    "token_type_stats",
    oracle=f"""
    WITH toks AS (SELECT unnest({_SQL_TOKENS}) AS token FROM documents),
    cnt AS (SELECT token, count(*) AS c FROM toks GROUP BY token)
    SELECT CAST(count(*) AS BIGINT) AS n_types,
           CAST(sum(c) AS BIGINT) AS n_tokens,
           CAST(count(*) FILTER (c = 1) AS BIGINT) AS n_hapax,
           CAST(count(*) AS DOUBLE) / sum(c) AS type_token_ratio,
           CAST(count(*) FILTER (c = 1) AS DOUBLE) / count(*) AS hapax_ratio
    FROM cnt
    """,
)
def token_type_stats(sf_dir: str):
    """Corpus lexical-diversity dashboard row: vocabulary size, token
    mass, hapax-legomenon count, type-token ratio, and hapax share —
    the companion stats to token_zipf_slope (a hapax share far from
    ~0.4-0.6 flags OCR noise or template floods in a natural-language
    crawl). Same vocab-bounded partial shape; the reduction is four
    scalars off one vectorized pass over the merged frequency table."""
    from sciscraper_ray.kernels.tokenize import tokenize_column

    def partials(batch: pa.Table) -> pa.Table:
        toks = tokenize_column(batch["text"]).combine_chunks()
        flat = pc.list_flatten(toks)
        return group_count_batch(pa.table({"token": flat}), ["token"])

    from sciscraper_ray.pipelines.plan import driver_frame

    parts = driver_frame(
        _docs(sf_dir).map_batches(partials, batch_format="pyarrow"),
        what="token_type_stats",
    )
    merged = parts.groupby("token", as_index=False)["cnt"].sum()
    c = merged["cnt"].to_numpy()
    n_types = len(c)
    n_tokens = int(c.sum())
    n_hapax = int((c == 1).sum())
    return pa.table(
        {
            "n_types": pa.array([n_types], pa.int64()),
            "n_tokens": pa.array([n_tokens], pa.int64()),
            "n_hapax": pa.array([n_hapax], pa.int64()),
            "type_token_ratio": pa.array(
                [float(n_types) / n_tokens], pa.float64()
            ),
            "hapax_ratio": pa.array([float(n_hapax) / n_types], pa.float64()),
        }
    )


_PMI_MIN_CNT = 5


@register(
    "token_pmi_collocations",
    oracle=f"""
    WITH d AS (
        SELECT {_SQL_TOKENS} AS toks, len({_SQL_TOKENS}) AS n FROM documents
    ), w AS (
        SELECT unnest(range(n - 1)) AS k, toks FROM d WHERE n >= 2
    ), bg AS (
        SELECT toks[k + 1] AS token, toks[k + 2] AS next_token FROM w
    ), cnt AS (
        SELECT token, next_token, count(*) AS cnt
        FROM bg GROUP BY token, next_token
    ), tot AS (SELECT sum(cnt) AS total FROM cnt),
    lft AS (SELECT token, sum(cnt) AS lc FROM cnt GROUP BY token),
    rgt AS (SELECT next_token, sum(cnt) AS rc FROM cnt GROUP BY next_token)
    SELECT c.token, c.next_token, c.cnt,
           ln((CAST(c.cnt AS DOUBLE) * t.total) / (l.lc * r.rc)) AS pmi
    FROM cnt c
    CROSS JOIN tot t
    JOIN lft l ON l.token = c.token
    JOIN rgt r ON r.next_token = c.next_token
    WHERE c.cnt >= {_PMI_MIN_CNT}
    """,
)
def token_pmi_collocations(sf_dir: str):
    """Collocation mining: pointwise mutual information of every adjacent
    word bigram seen >= _PMI_MIN_CNT times, over bigram-event marginals
    (pmi = ln(cnt*total / (left_cnt*right_cnt))) — the classic phrase
    detector run before tokenizer training (Mikolov et al.'s word2vec
    phrase pass uses exactly this score). Same two-phase shape as
    token_bigram_next: per-batch Arrow group_by partials, the exchange
    bounded by distinct-bigram vocabulary; marginals + the PMI kernel are
    one vectorized pandas/numpy pass over the vocab-sized merge."""
    merged = _bigram_counts(sf_dir, "token_pmi_collocations")
    total = float(merged["cnt"].sum())
    lc = merged.groupby("token")["cnt"].transform("sum").to_numpy(np.float64)
    rc = merged.groupby("next_token")["cnt"].transform("sum").to_numpy(np.float64)
    cnt = merged["cnt"].to_numpy()
    keep = cnt >= _PMI_MIN_CNT
    pmi = np.log((cnt[keep].astype(np.float64) * total) / (lc[keep] * rc[keep]))
    return pa.table(
        {
            "token": pa.array(merged["token"].to_numpy()[keep], pa.string()),
            "next_token": pa.array(merged["next_token"].to_numpy()[keep], pa.string()),
            "cnt": pa.array(cnt[keep], pa.int64()),
            "pmi": pa.array(pmi, pa.float64()),
        }
    )


_STRATA_RATES = {"en": 9, "de": 5, "fr": 3}  # keep doc iff md5 % 10 < rate
_STRATA_DEFAULT = 1


def _strata_rate_sql() -> str:
    cases = " ".join(
        f"WHEN lang = '{k}' THEN {v}" for k, v in _STRATA_RATES.items()
    )
    return f"CASE {cases} ELSE {_STRATA_DEFAULT} END"


@register(
    "doc_sample_stratified",
    oracle=f"""
    SELECT doc_id, lang
    FROM documents
    WHERE ({md5_hex15_sql("CAST(doc_id AS VARCHAR)")} % 10) < {_strata_rate_sql()}
    """,
)
def doc_sample_stratified(sf_dir: str):
    """Deterministic stratified sampling: each language stratum keeps a
    different fraction (en 90%, de 50%, fr 30%, other 10%) selected by
    content-independent md5(doc_id) -- the same hash split as
    ``doc_split_assign``, so reruns and retries select identical rows
    (resumable by construction, no RNG state to checkpoint). The rate
    table is driver-constant (broadcast by closure); the filter is a
    pure per-batch map, no shuffle. Rebalancing web-scale corpora
    toward under-represented languages is exactly this op."""
    ds = _docs(sf_dir, columns=("doc_id", "lang"))

    def sample(batch: pa.Table) -> pa.Table:
        h = md5_hex15(map(str, batch["doc_id"].to_pylist())) % 10
        keep = [
            bool(x < _STRATA_RATES.get(lg, _STRATA_DEFAULT))
            for x, lg in zip(h, batch["lang"].to_pylist())
        ]
        return batch.filter(pa.array(keep))

    return ds.map_batches(sample, batch_format="pyarrow")


@register(
    "order_lineitem_join",
    oracle="""
    SELECT o.o_orderkey, o.o_orderpriority, l.l_linenumber, l.l_extendedprice
    FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey
    """,
)
def order_lineitem_join(sf_dir: str):
    """Big x big shuffle hash join (fact ⋈ fact): orders and lineitem are
    BOTH row streams — neither side may broadcast — so this runs the
    bucketed co-partition plan (`stages/relational.py
    bucketed_hash_join`): one all-to-all on a uniform bucket key, then
    bucket-local pandas merges. Returns the raw joined rows so the
    oracle verifies join multiplicity (every lineitem matched, no
    fan-out errors), not just an aggregate."""
    import ray.data

    from sciscraper_ray.stages.relational import bucketed_hash_join

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    )
    lineitem = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_extendedprice"],
    )
    joined = bucketed_hash_join(
        orders, lineitem, left_on="o_orderkey", right_on="l_orderkey"
    )
    return joined.map_batches(
        lambda b: b.select(
            ["o_orderkey", "o_orderpriority", "l_linenumber", "l_extendedprice"]
        ),
        batch_format="pyarrow",
    )


_SLIDE_STEP_S = 900  # 15-min hop
_SLIDE_PANES = 4  # 4 hops per 1-hour window


@register(
    "events_sliding",
    oracle=f"""
    WITH panes AS (
        SELECT (epoch_us(ts) // {_SLIDE_STEP_S * 1_000_000} - j)
                   * {_SLIDE_STEP_S} AS w_start,
               value
        FROM events, unnest(range({_SLIDE_PANES})) AS t(j)
    )
    SELECT w_start, count(*) AS cnt, round(sum(value), 6) AS sum_value
    FROM panes GROUP BY w_start
    """,
)
def events_sliding(sf_dir: str):
    """Sliding-window aggregate (1-hour windows hopping every 15 min):
    each event contributes to the {panes} windows covering it. The
    expansion happens INSIDE the per-batch partial — repeat-take the
    batch {panes}x, derive each pane's window start, and group_by down
    to (window, cnt, sum) partial rows — so the shuffle moves one row
    per (window, batch), never the 4x event stream. Window starts are
    int64 epoch seconds (no timestamp-unit drift across the aggregate
    round-trip)."""
    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "value"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        base = us // (_SLIDE_STEP_S * 1_000_000)
        vals = batch["value"].to_numpy(zero_copy_only=False)
        starts = np.concatenate(
            [(base - j) * _SLIDE_STEP_S for j in range(_SLIDE_PANES)]
        )
        t = pa.table(
            {
                "w_start": pa.array(starts, type=pa.int64()),
                "value": pa.array(np.tile(vals, _SLIDE_PANES)),
            }
        )
        return group_count_batch(t, ["w_start"], {"value": "sum_value"})

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("w_start")
        .aggregate(
            Sum(on="cnt", alias_name="cnt"),
            Sum(on="sum_value", alias_name="sum_value"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.column_names.index("sum_value"),
            "sum_value",
            pc.round(batch["sum_value"], 6),
        )

    return agg.map_batches(finish, batch_format="pyarrow")


@register(
    "events_topk_users",
    oracle="""
    WITH totals AS (
        SELECT event_type, user_id, round(sum(value), 6) AS total_value
        FROM events GROUP BY event_type, user_id
    ), ranked AS (
        SELECT event_type, user_id, total_value,
               row_number() OVER (
                   PARTITION BY event_type
                   ORDER BY total_value DESC, user_id ASC
               ) AS rnk
        FROM totals
    )
    SELECT event_type, user_id, total_value, CAST(rnk AS BIGINT) AS rnk
    FROM ranked WHERE rnk <= 3
    """,
)
def events_topk_users(sf_dir: str):
    """Per-group top-k (top-3 users by total event value per event
    type): per-batch (type, user) sum partials shrink the exchange to
    one row per (type, user, batch); the combined totals table
    (|types| x |users| — small relative to the event stream) merges on
    the driver with one vectorized lexsort. Ranking compares ROUNDED
    totals (6 dp, same as the oracle) so both engines rank identical
    keys; ties break by user_id asc."""
    import ray.data

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id", "value"]
    )

    parts = (
        ds.map_batches(
            lambda b: group_count_batch(
                b, ["event_type", "user_id"], {"value": "total_value"}
            ),
            batch_format="pyarrow",
        )
        # bounded: (|types| x active users) partials — small vs the event
        # stream; past the 50M guard the shuffle plan is a distributed
        # groupby + per-type top-k (events_hourly_topk_users machinery)
        .to_pandas()
    )
    totals = parts.groupby(["event_type", "user_id"], as_index=False)[
        "total_value"
    ].sum()
    totals["total_value"] = totals["total_value"].round(6)
    order = np.lexsort(
        (
            totals["user_id"].to_numpy(),
            -totals["total_value"].to_numpy(),
            totals["event_type"].to_numpy(),
        )
    )
    totals = totals.iloc[order]
    totals["rnk"] = totals.groupby("event_type", sort=False).cumcount() + 1
    top = totals[totals["rnk"] <= 3]
    return pa.table(
        {
            "event_type": pa.array(top["event_type"], type=pa.string()),
            "user_id": pa.array(top["user_id"].to_numpy(), type=pa.int64()),
            "total_value": pa.array(
                top["total_value"].to_numpy(), type=pa.float64()
            ),
            "rnk": pa.array(top["rnk"].to_numpy(), type=pa.int64()),
        }
    )


@register(
    "events_user_cumsum",
    oracle="""
    SELECT event_id, user_id,
           round(sum(value) OVER (
               PARTITION BY user_id ORDER BY ts, event_id
           ), 6) AS cum_value
    FROM events
    """,
)
def events_user_cumsum(sf_dir: str):
    """Distributed WINDOW FUNCTION (running per-user sum ordered by
    time) — the canonical `sum() OVER (PARTITION BY .. ORDER BY ..)`,
    on the BUCKETED plan (stages/window.py): ONE shuffle on
    ``user_id % B`` (B = 32 fixed buckets, not per-user groups — group
    count is O(B), so the ~100 µs/group dispatch tax never scales with
    users), then a fully vectorized in-bucket sort + Cython group-cumsum.
    Both engines accumulate per user sequentially in (ts, event_id)
    order, so the running floats agree exactly (rounded 6 dp). Running
    aggregates are order-dependent, so hot keys can NOT be salted — a
    mega-user would be pre-split by time chunk with carried opening
    balances, the standard prefix-sum decomposition."""
    import ray.data

    from sciscraper_ray.stages.window import bucket_cumsum, bucketed_window

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return bucketed_window(ds, bucket_cumsum)


@register(
    "doc_length_rank",
    oracle="""
    SELECT doc_id, n_chars,
           CAST(row_number() OVER (ORDER BY n_chars, doc_id) AS BIGINT)
               AS rnk
    FROM documents
    """,
)
def doc_length_rank(sf_dir: str):
    """GLOBAL order rank (`row_number() OVER (ORDER BY n_chars,
    doc_id)`) without a global sort: pass 1 reduces the corpus to a
    value histogram of n_chars (per-batch counts; only histogram cells
    move) whose driver-side cumsum gives each value its global rank
    OFFSET, broadcast back via closure; pass 2 ranks doc_ids WITHIN
    each n_chars value (`groupby(n_chars).map_groups`, one argsort per
    group) and adds the offset. The all-to-all carries one row per doc
    grouped by a bounded-cardinality key — the histogram trick that
    also powers `lineitem_quantiles`; unbounded continuous keys would
    range-partition on sampled splits instead (Ray sort's own
    strategy)."""
    import ray.data

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )

    h = (
        ds.map_batches(
            lambda b: group_count_batch(b, ["n_chars"]), batch_format="pyarrow"
        )
        .to_pandas()  # bounded: |distinct lengths| x blocks
        .groupby("n_chars")["cnt"]
        .sum()
        .sort_index()
    )
    offsets = dict(zip(h.index, h.cumsum().shift(fill_value=0)))

    def rank_group(g):
        import pandas as pd

        v = int(g["n_chars"].iloc[0])
        ids = np.sort(g["doc_id"].to_numpy())
        return pd.DataFrame(
            {
                "doc_id": ids,
                "n_chars": np.full(len(ids), v, np.int64),
                "rnk": offsets[v] + np.arange(1, len(ids) + 1, dtype=np.int64),
            }
        )

    return ds.groupby("n_chars").map_groups(rank_group, batch_format="pandas")


@register(
    "lineitem_moments",
    oracle="""
    SELECT l_returnflag,
           count(*) AS cnt,
           round(avg(l_quantity), 6) AS avg_qty,
           round(stddev_samp(l_quantity), 6) AS std_qty,
           round(covar_samp(l_quantity, l_extendedprice), 4) AS cov_qty_price,
           round(corr(l_quantity, l_extendedprice), 6) AS corr_qty_price
    FROM lineitem
    GROUP BY l_returnflag
    """,
)
def lineitem_moments(sf_dir: str):
    """Distributed second-moment statistics (stddev / covariance /
    correlation) from MERGEABLE sufficient statistics: each batch emits
    per-group (n, Σx, Σy, Σx², Σy², Σxy); a tiny groupby sums them; the
    closed forms recover the moments. Only |groups| × 6 doubles shuffle
    — the classic one-pass parallel pattern (Chan et al. update formulas
    are the drop-in upgrade if mean² ≫ variance makes the raw-sum form
    cancel; here variance/mean² is O(0.3) so float64 keeps ~10 clean
    digits, comfortably inside the 6-dp compare)."""
    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        x = pc.cast(batch["l_quantity"], pa.float64())
        y = pc.cast(batch["l_extendedprice"], pa.float64())
        t = pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "sx": x,
                "sy": y,
                "sxx": pc.multiply(x, x),
                "syy": pc.multiply(y, y),
                "sxy": pc.multiply(x, y),
            }
        )

        return group_count_batch(
            t,
            ["l_returnflag"],
            {c: c for c in ["sx", "sy", "sxx", "syy", "sxy"]},
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("l_returnflag")
        .aggregate(
            *[Sum(on=c, alias_name=c) for c in ["cnt", "sx", "sy", "sxx", "syy", "sxy"]]
        )
    )

    def finish(b: pa.Table) -> pa.Table:
        n = b["cnt"].to_numpy(zero_copy_only=False).astype(np.float64)
        sx = b["sx"].to_numpy(zero_copy_only=False)
        sy = b["sy"].to_numpy(zero_copy_only=False)
        sxx = b["sxx"].to_numpy(zero_copy_only=False)
        syy = b["syy"].to_numpy(zero_copy_only=False)
        sxy = b["sxy"].to_numpy(zero_copy_only=False)
        mx2 = sxx - sx * sx / n
        my2 = syy - sy * sy / n
        mxy = sxy - sx * sy / n
        return pa.table(
            {
                "l_returnflag": b["l_returnflag"],
                "cnt": b["cnt"],
                "avg_qty": pa.array(np.round(sx / n, 6), pa.float64()),
                "std_qty": pa.array(np.round(np.sqrt(mx2 / (n - 1)), 6), pa.float64()),
                "cov_qty_price": pa.array(np.round(mxy / (n - 1), 4), pa.float64()),
                "corr_qty_price": pa.array(
                    np.round(mxy / np.sqrt(mx2 * my2), 6), pa.float64()
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


@register(
    "orders_rollup",
    oracle="""
    SELECT COALESCE(o_orderstatus, 'ALL') AS status,
           COALESCE(o_orderpriority, 'ALL') AS priority,
           count(*) AS cnt,
           round(sum(o_totalprice), 2) AS total
    FROM orders
    GROUP BY ROLLUP(o_orderstatus, o_orderpriority)
    """,
)
def orders_rollup(sf_dir: str):
    """GROUP BY ROLLUP(status, priority) in ONE corpus pass: the finest
    (status, priority) aggregate is computed distributed (per-batch
    partials → small shuffle); both coarser levels are then re-aggregated
    from that finest result, which has |status| × |priority| ≈ 15 rows —
    driver-side pandas on an already-reduced table, never on the input.
    Rolled-up keys use the 'ALL' sentinel (COALESCE'd identically in the
    oracle) so the compare never hashes NULL-vs-NaN."""
    import pandas as pd

    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderstatus", "o_orderpriority", "o_totalprice"],
    )

    fine = (
        ds.map_batches(
            lambda b: group_count_batch(
                b, ["o_orderstatus", "o_orderpriority"], {"o_totalprice": "total"}
            ),
            batch_format="pyarrow",
        )
        .groupby(["o_orderstatus", "o_orderpriority"])
        .aggregate(Sum(on="cnt", alias_name="cnt"), Sum(on="total", alias_name="total"))
        .to_pandas()  # bounded: |statuses| x |priorities|
    )

    levels = [fine.rename(columns={"o_orderstatus": "status", "o_orderpriority": "priority"})]
    by_status = fine.groupby("o_orderstatus", as_index=False)[["cnt", "total"]].sum()
    by_status = by_status.rename(columns={"o_orderstatus": "status"})
    by_status["priority"] = "ALL"
    levels.append(by_status)
    grand = pd.DataFrame(
        {
            "status": ["ALL"],
            "priority": ["ALL"],
            "cnt": [fine["cnt"].sum()],
            "total": [fine["total"].sum()],
        }
    )
    levels.append(grand)
    out = pd.concat(levels, ignore_index=True)[["status", "priority", "cnt", "total"]]
    out["total"] = out["total"].round(2)
    out["cnt"] = out["cnt"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def _kr_pair_sql(k: int) -> str:
    """Packed Karp-Rabin pair hash of the k-gram at 0-based offset i —
    the exact integer the numpy kernel computes (substr.py
    kgram_pair_hashes): two polynomial hashes with PRECOMPUTED modded
    power weights (so every BIGINT term stays under 2^52 and no HUGEINT
    is needed even for k=20, unlike the direct-power winnow oracle),
    packed as h1 * 2^31 + h2."""
    p = (1 << 31) - 1

    def poly(base: int) -> str:
        return " + ".join(
            f"CAST(ascii(substr(text, i + {1 + j}, 1)) AS BIGINT)"
            f" * {pow(base, k - 1 - j, p)}"
            for j in range(k)
        )

    return (
        f"(CAST(({poly(257)}) % {p} AS BIGINT) * 2147483648"
        f" + CAST(({poly(263)}) % {p} AS BIGINT))"
    )


@register(
    "doc_dup_substrings",
    oracle=f"""
    WITH gh AS (
        SELECT doc_id, {_kr_pair_sql(20)} AS h
        FROM (
            SELECT doc_id, text, unnest(range(length(text) - 19)) AS i
            FROM documents WHERE length(text) >= 20
        )
    ),
    freq AS (SELECT h, count(*) AS fc FROM gh GROUP BY h),
    agg AS (
        SELECT g.doc_id, count(*) AS n_grams,
               CAST(sum(CASE WHEN f.fc > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_dup
        FROM gh g JOIN freq f USING (h) GROUP BY g.doc_id
    )
    SELECT d.doc_id,
           CAST(COALESCE(a.n_grams, 0) AS BIGINT) AS n_grams,
           CAST(COALESCE(a.n_dup, 0) AS BIGINT) AS n_dup
    FROM documents d LEFT JOIN agg a USING (doc_id)
    """,
)
def doc_dup_substrings(sf_dir: str):
    """ExactSubstr-style duplicate-substring mass (Lee et al. ACL'22):
    per doc, how many char-20-gram positions occur >= 2 times anywhere
    in the corpus (the corpus's natural ' dup'-suffix near-copies give
    real cross-doc mass). Vectorized paired-Karp-Rabin kernel + two-plan
    frequency merge — see pipelines/substr.py. The oracle evaluates the
    identical packed polynomial hash in SQL and recounts from scratch."""
    from sciscraper_ray.pipelines.substr import dup_substring_mass

    return dup_substring_mass(_docs(sf_dir), k=20)


def _part_supplier_graph(sf_dir: str):
    """The symmetrized part<->supplier graph from DISTINCT lineitem pairs,
    suppliers offset by 10^7 to disambiguate the bipartite id spaces, as
    pagerank's (a, b) edge list."""
    import ray.data

    from sciscraper_ray.pipelines.graph import _dedup_edges, symmetrize

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
    )
    e0 = _dedup_edges(
        li.map_batches(
            lambda b: pa.table(
                {"a": b["l_partkey"], "b": pc.add(b["l_suppkey"], 10_000_000)}
            ),
            batch_format="pyarrow",
        )
    )
    return e0.map_batches(
        symmetrize, fn_kwargs={"u": "a", "v": "b"}, batch_format="pyarrow"
    )


def _pagerank_sql(iters: int = 5) -> str:
    """PageRank unrolled to a fixed iteration count: r0..r{iters} as
    chained CTEs (standard SQL has no aggregates in recursive terms, so
    a deterministic fixed-K power iteration unrolls instead). Node space
    disambiguates the bipartite ids by offsetting suppliers by 10^7;
    edges are symmetrized, so every node has out-degree >= 1 and the
    dangling-mass term vanishes — the same invariant the Ray operator
    documents."""
    ctes = [
        "e0 AS (SELECT DISTINCT l_partkey AS a, l_suppkey + 10000000 AS b FROM lineitem)",
        "edges AS (SELECT a AS src, b AS dst FROM e0 UNION ALL SELECT b AS src, a AS dst FROM e0)",
        "deg AS (SELECT src AS node, CAST(count(*) AS DOUBLE) AS d FROM edges GROUP BY src)",
        "nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM deg)",
        "r0 AS (SELECT node, 1.0 / (SELECT n FROM nn) AS r FROM deg)",
    ]
    for k in range(1, iters + 1):
        ctes.append(
            f"""r{k} AS (
        SELECT e.dst AS node,
               (1.0 - 0.85) / (SELECT n FROM nn)
                   + 0.85 * sum(p.r / dg.d) AS r
        FROM edges e
        JOIN r{k - 1} p ON p.node = e.src
        JOIN deg dg ON dg.node = e.src
        GROUP BY e.dst
    )"""
        )
    return (
        "WITH "
        + ",\n    ".join(ctes)
        + f"\n    SELECT node, round(r, 10) AS r FROM r{iters}"
    )


@register("graph_pagerank", oracle=_pagerank_sql(5))
def graph_pagerank(sf_dir: str):
    """Distributed PageRank (5 power iterations, d=0.85) over the
    symmetrized part<->supplier graph from DISTINCT lineitem pairs
    (suppliers offset by 10^7 to disambiguate the bipartite id spaces).
    Each iteration is one co-partitioned bucketed hash join + a
    groupby(dst) sum — see pipelines/graph.py pagerank for the physical
    plan; the oracle unrolls the identical fixed-K iteration in SQL."""
    from sciscraper_ray.pipelines.graph import pagerank

    return pagerank(_part_supplier_graph(sf_dir), damping=0.85, iters=5)


def _ppr_sql(iters: int = 5) -> str:
    """Personalized PageRank unrolled like _pagerank_sql, with the teleport
    distribution concentrated on seed nodes (part ids < 50 present in the
    graph) instead of uniform 1/N — r0 = p, each round adds (1-d)*p(dst)."""
    p_case = (
        "CASE WHEN {col} < 50 THEN 1.0 / (SELECT s FROM seedn) ELSE 0.0 END"
    )
    ctes = [
        "e0 AS (SELECT DISTINCT l_partkey AS a, l_suppkey + 10000000 AS b FROM lineitem)",
        "edges AS (SELECT a AS src, b AS dst FROM e0 UNION ALL SELECT b AS src, a AS dst FROM e0)",
        "deg AS (SELECT src AS node, CAST(count(*) AS DOUBLE) AS d FROM edges GROUP BY src)",
        "seedn AS (SELECT CAST(count(*) AS DOUBLE) AS s FROM deg WHERE node < 50)",
        f"r0 AS (SELECT node, {p_case.format(col='node')} AS r FROM deg)",
    ]
    for k in range(1, iters + 1):
        ctes.append(
            f"""r{k} AS (
        SELECT e.dst AS node,
               (1.0 - 0.85) * ({p_case.format(col='e.dst')})
                   + 0.85 * sum(p.r / dg.d) AS r
        FROM edges e
        JOIN r{k - 1} p ON p.node = e.src
        JOIN deg dg ON dg.node = e.src
        GROUP BY e.dst
    )"""
        )
    return (
        "WITH "
        + ",\n    ".join(ctes)
        + f"\n    SELECT node, round(r, 10) AS r FROM r{iters}"
    )


@register("graph_ppr", oracle=_ppr_sql(5))
def graph_ppr(sf_dir: str):
    """PERSONALIZED PageRank / random walk with restart (Haveliwala
    WWW'02) from the seed set {part ids < 50} over the same symmetrized
    part<->supplier graph as graph_pagerank — the 'related items from
    these starting points' primitive behind recsys candidates and
    crawl-frontier prioritization. Same two physical plans as pagerank
    (pipelines/graph.py); the teleport mass rides the static augmented
    edge list like the destination degree, so the per-iteration exchange
    count is unchanged. Oracle unrolls the identical fixed-K iteration."""
    from sciscraper_ray.pipelines.graph import pagerank

    return pagerank(
        _part_supplier_graph(sf_dir),
        damping=0.85,
        iters=5,
        seeds=np.arange(50, dtype=np.int64),
    )


@register(
    "events_decayed_value",
    oracle="""
    WITH mx AS (SELECT max(ts) AS t FROM events)
    SELECT user_id,
           round(sum(value * exp(-(CAST(date_diff('microsecond', ts, (SELECT t FROM mx)) AS DOUBLE) / 1000000.0) / 86400.0)), 6) AS decayed_value,
           count(*) AS cnt
    FROM events
    GROUP BY user_id
    """,
)
def events_decayed_value(sf_dir: str):
    """Time-DECAYED aggregate (exponential half-life weighting to the
    stream's end time, tau = 1 day): the streaming-db primitive for
    'recent activity' scores. Decayed sums are ORDER-INDEPENDENT
    (each row's weight depends only on its own timestamp), so unlike the
    running-sum window this distributes as a plain two-phase aggregate:
    per-batch partial (user, Σ value·e^(−Δt/τ), n) then a tiny groupby —
    no sort, no salting concerns. The reference time is max(ts), read
    in a cheap pruned pre-pass (a metadata-only max at scale)."""
    import pandas as pd

    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )
    t_end = ds.max("ts")
    t_end_us = np.int64(pd.Timestamp(t_end).value // 1000)

    def partial(batch: pa.Table) -> pa.Table:
        ts_us = pc.cast(batch["ts"], pa.timestamp("us")).cast(pa.int64()).to_numpy()
        dt_days = (t_end_us - ts_us).astype(np.float64) / 1_000_000.0 / 86_400.0
        w = batch["value"].to_numpy(zero_copy_only=False) * np.exp(-dt_days)
        t = pa.table(
            {"user_id": batch["user_id"], "wv": pa.array(w, pa.float64())}
        )
        return group_count_batch(t, ["user_id"], {"wv": "wv"})

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(
            Sum(on="wv", alias_name="wv"), Sum(on="cnt", alias_name="cnt")
        )
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": b["user_id"],
                "decayed_value": pa.array(
                    np.round(b["wv"].to_numpy(zero_copy_only=False), 6), pa.float64()
                ),
                "cnt": b["cnt"],
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


@register(
    "dedup_editdistance",
    oracle="""
    WITH all_docs AS (
        SELECT doc_id, text FROM documents WHERE doc_id % 3 = 0
        UNION ALL
        SELECT doc_id + 800000,
               array_to_string(
                   string_split(text, ' ')[1:len(string_split(text, ' ')) - 1], ' ')
        FROM documents WHERE doc_id % 19 = 0 AND doc_id % 3 = 0
    )
    SELECT x.doc_id AS a, y.doc_id AS b
    FROM all_docs x JOIN all_docs y
      ON x.doc_id < y.doc_id
     AND abs(length(x.text) - length(y.text)) <= 8
    WHERE levenshtein(x.text, y.text) <= 8
    """,
)
def dedup_editdistance(sf_dir: str):
    """Edit-distance similarity join (levenshtein <= 8): length-blocked
    candidates with ZERO false negatives (width-D+1 adjacent blocks),
    verified by a vectorized DP row kernel — see
    pipelines/dedup.py near_dup_pairs_editdist. The oracle recomputes
    the join exhaustively with DuckDB's native levenshtein(), which is
    QUADRATIC in corpus size — so the fixture is the deterministic
    doc_id % 3 == 0 third of the corpus (plus near-copies of its
    % 19 == 0 members), keeping re-verification tractable at sf0.1 while
    the engine path (blocking + DP verify) is identical. Only copies
    whose dropped last word is short enough survive the <= 8 bar, and
    natural ' dup' copies (distance 4) qualify too, so the pair set is
    decided by semantics, not construction."""
    from sciscraper_ray.pipelines.dedup import near_dup_pairs_editdist

    ds0 = _docs(sf_dir)

    def third(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids % 3 == 0))

    base = ds0.map_batches(third, batch_format="pyarrow")

    def make_copies(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        keep = ids % 19 == 0
        texts = [
            " ".join(t.split(" ")[:-1])
            for t, k in zip(batch["text"].to_pylist(), keep)
            if k
        ]
        return pa.table(
            {
                "doc_id": pa.array((ids[keep] + 800_000).tolist(), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )

    ds = base.union(base.map_batches(make_copies, batch_format="pyarrow")).materialize()
    return near_dup_pairs_editdist(ds, max_dist=8)


@register(
    "events_lag_delta",
    oracle="""
    SELECT event_id, user_id,
           date_diff('microsecond',
                     lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id),
                     ts) AS delta_us
    FROM events
    """,
)
def events_lag_delta(sf_dir: str):
    """LAG window function (time since the user's previous event, in
    integer microseconds; NULL for each user's first event), on the
    shared BUCKETED window plan (stages/window.py): one shuffle on
    ``user_id % 32``, in-bucket lexsort by (user, ts, event_id), one
    shifted diff with NaN reset at user boundaries — group count is
    O(buckets), never O(users). float64 output because a nullable
    BIGINT oracle column lands in pandas as float64 (exact for deltas
    < 2^53 µs ≈ 285 years)."""
    import ray.data

    from sciscraper_ray.stages.window import bucket_lag_delta, bucketed_window

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )
    return bucketed_window(ds, bucket_lag_delta)


@register(
    "events_type_transitions",
    oracle="""
    WITH seq AS (
        SELECT event_type,
               lag(event_type) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id
               ) AS prev
        FROM events
    )
    SELECT prev AS from_type, event_type AS to_type, count(*) AS cnt
    FROM seq WHERE prev IS NOT NULL GROUP BY prev, event_type
    """,
)
def events_type_transitions(sf_dir: str):
    """Behavior Markov-chain statistics: corpus-wide counts of adjacent
    per-user event-type transitions in (ts, event_id) order — the
    session-modeling / next-action-prediction training table. Runs on
    the shared BUCKETED window plan (one shuffle on user_id % 32,
    in-bucket lexsort, shifted compare with user-boundary reset), and
    each bucket emits partials bounded by the type vocabulary squared,
    so the final groupby-Sum exchange is constant-size."""
    import ray.data
    from ray.data.aggregate import Sum

    from sciscraper_ray.stages.window import bucket_type_transitions, bucketed_window

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )
    return bucketed_window(ds, bucket_type_transitions).groupby(
        ["from_type", "to_type"]
    ).aggregate(Sum(on="cnt", alias_name="cnt"))


_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


@register(
    "events_pivot_hourly",
    oracle=f"""
    SELECT date_trunc('hour', ts) AS window_start,
           {", ".join(f"count(*) FILTER (event_type = '{t}') AS n_{t}" for t in _EVENT_TYPES)}
    FROM events
    GROUP BY date_trunc('hour', ts)
    """,
)
def events_pivot_hourly(sf_dir: str):
    """PIVOT (long -> wide): hourly event counts, one column per event
    type. The pivot happens INSIDE the per-batch partial (conditional
    counts to a fixed, declared column set), so the shuffle carries one
    row per (hour, batch) with 5 int columns — never the long stream;
    unknown types at scale would need a first distinct-keys pass to
    declare the columns, exactly like remove_empty_columns' pre-pass."""
    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(batch["ts"], unit="hour")
        et = batch["event_type"]
        cols = {"window_start": hour}
        for t in _EVENT_TYPES:
            cols[f"n_{t}"] = pc.cast(pc.equal(et, t), pa.int64())
        return (
            pa.table(cols)
            .group_by("window_start")
            .aggregate([(f"n_{t}", "sum") for t in _EVENT_TYPES])
            .rename_columns(["window_start"] + [f"n_{t}" for t in _EVENT_TYPES])
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("window_start")
        .aggregate(*[Sum(on=f"n_{t}", alias_name=f"n_{t}") for t in _EVENT_TYPES])
    )


@register(
    "doc_ntile",
    oracle="""
    SELECT doc_id, n_chars,
           CAST(ntile(10) OVER (ORDER BY n_chars, doc_id) AS BIGINT) AS decile
    FROM documents
    """,
)
def doc_ntile(sf_dir: str):
    """NTILE(10) global decile binning without a global sort: the same
    value-histogram rank-offset trick as `doc_length_rank` (only
    histogram cells cross the wire), then the exact NTILE fill rule —
    the first n % k buckets take ceil(n/k) rows — applied to the global
    rank inside each n_chars group."""
    import ray.data

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )

    h = (
        ds.map_batches(
            lambda b: group_count_batch(b, ["n_chars"]), batch_format="pyarrow"
        )
        .to_pandas()  # bounded: |distinct lengths| x blocks
        .groupby("n_chars")["cnt"]
        .sum()
        .sort_index()
    )
    n = int(h.sum())
    offsets = dict(zip(h.index, h.cumsum().shift(fill_value=0)))
    k = 10
    q, r = divmod(n, k)

    def rank_to_ntile(rank: np.ndarray) -> np.ndarray:
        big = r * (q + 1)
        lo = (rank - 1) // (q + 1) + 1
        hi = r + (rank - 1 - big) // q + 1 if q else lo
        return np.where(rank <= big, lo, hi).astype(np.int64)

    def tile_group(g):
        import pandas as pd

        v = int(g["n_chars"].iloc[0])
        ids = np.sort(g["doc_id"].to_numpy())
        rank = offsets[v] + np.arange(1, len(ids) + 1, dtype=np.int64)
        return pd.DataFrame(
            {
                "doc_id": ids,
                "n_chars": np.full(len(ids), v, np.int64),
                "decile": rank_to_ntile(rank),
            }
        )

    return ds.groupby("n_chars").map_groups(tile_group, batch_format="pandas")


@register(
    "events_distinct_users",
    oracle="""
    SELECT event_type,
           count(DISTINCT user_id) AS n_users,
           count(*) AS cnt
    FROM events
    GROUP BY event_type
    """,
)
def events_distinct_users(sf_dir: str):
    """EXACT grouped count-distinct (the exact twin of the HLL sketch
    query): per-batch dedup to (type, user, c) partials — the only
    all-to-all moves one row per distinct pair per batch — then
    groupby(pair) sum, then a tiny groupby(type) counting pair rows for
    n_users and summing c for cnt."""
    import ray.data
    from ray.data.aggregate import Count, Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )

    pairs = (
        ds.map_batches(
            lambda b: group_count_batch(b, ["event_type", "user_id"]),
            batch_format="pyarrow",
        )
        .groupby(["event_type", "user_id"])
        .aggregate(Sum(on="cnt", alias_name="c"))
    )

    def fold(b: pa.Table) -> pa.Table:
        t = b.group_by("event_type").aggregate([("c", "count"), ("c", "sum")])
        return pa.table(
            {
                "event_type": t["event_type"],
                "n_users": t["c_count"],
                "cnt": t["c_sum"],
            }
        )

    return (
        pairs.map_batches(fold, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Sum(on="n_users", alias_name="n_users"), Sum(on="cnt", alias_name="cnt")
        )
    )


@register(
    "token_heavy_hitters",
    oracle=f"""
    WITH toks AS (SELECT unnest({_SQL_TOKENS}) AS token FROM documents),
    tot AS (SELECT count(*) AS n FROM toks),
    cnts AS (SELECT token, count(*) AS cnt FROM toks GROUP BY token)
    SELECT token, cnt FROM cnts, tot WHERE cnt * 200 > n
    """,
)
def token_heavy_hitters(sf_dir: str):
    """EXACT frequent items (share > 1/200 of all tokens) by the
    two-pass heavy-hitter scheme (Misra-Gries/SpaceSaving candidate
    generation): pass 1 emits each batch's LOCAL hitters (count*200 >
    batch tokens — any global hitter must be a local hitter in >= 1
    batch, so the union is a guaranteed superset, bounded at 200 rows
    per batch regardless of vocabulary size); pass 2 exact-counts ONLY
    the broadcast candidate set plus the total token count (a sentinel
    key no real token can collide with), and the final integer-only
    filter needs no floats. The full vocabulary never shuffles."""
    from ray.data.aggregate import Sum

    from sciscraper_ray.kernels.tokenize import tokenize_column

    inv_phi = 200
    sentinel = "\x00__total__"

    def local_hitters(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(tokenize_column(batch["text"]))
        vc = flat.value_counts()
        keep = pc.greater(pc.multiply(vc.field("counts"), inv_phi), len(flat))
        return pa.table({"token": vc.field("values").filter(keep)})

    cand = (
        _docs(sf_dir, columns=("text",))
        .map_batches(local_hitters, batch_format="pyarrow")
        .groupby("token")
        .count()
        .to_pandas()  # bounded: per-block heavy-hitter candidates
    )
    cand_arr = pa.array(cand["token"].tolist(), pa.string())

    def count_candidates(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(tokenize_column(batch["text"]))
        hits = flat.filter(pc.is_in(flat, value_set=cand_arr))
        vc = hits.value_counts()
        return pa.table(
            {
                "token": pa.concat_arrays(
                    [vc.field("values").cast(pa.string()), pa.array([sentinel])]
                ),
                "cnt": pa.concat_arrays(
                    [vc.field("counts").cast(pa.int64()), pa.array([len(flat)], pa.int64())]
                ),
            }
        )

    agg = (
        _docs(sf_dir, columns=("text",))
        .map_batches(count_candidates, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum(on="cnt", alias_name="cnt"))
        .to_pandas()  # bounded: heavy-hitter candidate set
    )
    n = int(agg.loc[agg["token"] == sentinel, "cnt"].iloc[0])
    out = agg[(agg["token"] != sentinel) & (agg["cnt"] * inv_phi > n)]
    return pa.table(
        {
            "token": pa.array(out["token"].tolist(), pa.string()),
            "cnt": pa.array(out["cnt"].to_numpy(), pa.int64()),
        }
    )


_EMB_DIM = 64


@register(
    "embedding_group_centroid",
    oracle=f"""
    SELECT label,
           count(*) AS cnt,
           {", ".join(f"round(avg(CAST(embedding[{i + 1}] AS DOUBLE)), 6) AS c{i}" for i in range(_EMB_DIM))}
    FROM embeddings
    GROUP BY label
    """,
)
def embedding_group_centroid(sf_dir: str):
    """Per-label embedding CENTROID (element-wise mean of the
    list<float> column, the k-means/class-prototype primitive): each
    batch reduces to one (label, Σvec, n) partial via a zero-copy
    flatten-reshape + np.add.at, so the shuffle carries |labels| x d
    doubles per batch, never the vectors. float32 inputs are widened to
    float64 BEFORE summing on both engines."""
    import ray.data
    from ray.data.aggregate import Sum

    from sciscraper_ray.stages.ann import _stack

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        labels = batch["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        mat = _stack(batch["embedding"])
        uniq, inv = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(uniq), mat.shape[1]), np.float64)
        np.add.at(sums, inv, mat)
        cnt = np.bincount(inv).astype(np.int64)
        cols = {"label": pa.array(uniq, pa.int64()), "cnt": pa.array(cnt, pa.int64())}
        for i in range(mat.shape[1]):
            cols[f"c{i}"] = pa.array(sums[:, i], pa.float64())
        return pa.table(cols)

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("label")
        .aggregate(
            Sum(on="cnt", alias_name="cnt"),
            *[Sum(on=f"c{i}", alias_name=f"c{i}") for i in range(_EMB_DIM)],
        )
    )

    def finish(b: pa.Table) -> pa.Table:
        n = b["cnt"].to_numpy(zero_copy_only=False).astype(np.float64)
        cols = {"label": b["label"], "cnt": b["cnt"]}
        for i in range(_EMB_DIM):
            cols[f"c{i}"] = pa.array(
                np.round(b[f"c{i}"].to_numpy(zero_copy_only=False) / n, 6),
                pa.float64(),
            )
        return pa.table(cols)

    return agg.map_batches(finish, batch_format="pyarrow")


@register(
    "events_zscore",
    oracle="""
    WITH s AS (
        SELECT event_type, avg(value) AS mu,
               stddev_samp(value) AS sd, count(*) AS n
        FROM events GROUP BY event_type
    )
    SELECT e.event_id, e.event_type,
           round((e.value - s.mu) / s.sd, 6) AS z
    FROM events e JOIN s USING (event_type)
    """,
)
def events_zscore(sf_dir: str):
    """Per-group Z-SCORE standardization — the two-pass normalize
    pattern every feature pipeline needs: pass 1 reduces the stream to
    per-group sufficient statistics (n, Σx, Σx² — same mergeable-moment
    partials as `lineitem_moments`), which broadcast back into a
    full-stream vectorized map. No shuffle touches the event rows."""
    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"]
    )

    def moment_partial(batch: pa.Table) -> pa.Table:
        x = pc.cast(batch["value"], pa.float64())
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "sx": x,
                "sxx": pc.multiply(x, x),
            }
        )
        return group_count_batch(t, ["event_type"], {"sx": "sx", "sxx": "sxx"})

    stats = (
        ds.map_batches(moment_partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Sum(on="cnt", alias_name="n"),
            Sum(on="sx", alias_name="sx"),
            Sum(on="sxx", alias_name="sxx"),
        )
        .to_pandas()  # bounded: |event types|
    )
    n = stats["n"].to_numpy(np.float64)
    mu = stats["sx"].to_numpy() / n
    sd = np.sqrt((stats["sxx"].to_numpy() - stats["sx"].to_numpy() ** 2 / n) / (n - 1))
    lut = {t: (m, s) for t, m, s in zip(stats["event_type"], mu, sd)}

    def z(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_pylist()
        m = np.array([lut[t][0] for t in et])
        s = np.array([lut[t][1] for t in et])
        v = batch["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "event_id": batch["event_id"],
                "event_type": batch["event_type"],
                "z": pa.array(np.round((v - m) / s, 6), pa.float64()),
            }
        )

    return ds.map_batches(z, batch_format="pyarrow")


@register(
    "events_funnel",
    oracle="""
    WITH f AS (
        SELECT user_id,
               min(ts) FILTER (event_type = 'view') AS t_view,
               min(ts) FILTER (event_type = 'click') AS t_click,
               min(ts) FILTER (event_type = 'purchase') AS t_purchase
        FROM events GROUP BY user_id
    )
    SELECT CAST(count(*) FILTER (t_view IS NOT NULL) AS BIGINT) AS n_view,
           CAST(count(*) FILTER (t_view IS NOT NULL AND t_click > t_view)
                AS BIGINT) AS n_click_after_view,
           CAST(count(*) FILTER (t_view IS NOT NULL AND t_click > t_view
                                 AND t_purchase > t_click)
                AS BIGINT) AS n_full_funnel
    FROM f
    """,
)
def events_funnel(sf_dir: str):
    """Ordered conversion FUNNEL (view -> click -> purchase, by each
    user's FIRST time at each step): per-batch (user, min-ts-per-step)
    partials with a +inf sentinel for missing steps (so the global
    merge is a plain Min aggregate over int64 — no nullable-min
    semantics in the shuffle), then per-user ordering flags reduced to
    one global row. Classic product-analytics pattern; the event stream
    itself never re-sorts."""
    import ray.data
    from ray.data.aggregate import Min

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "ts"]
    )
    INF = np.int64(1 << 62)
    steps = ["view", "click", "purchase"]

    def partial(batch: pa.Table) -> pa.Table:
        users = batch["user_id"].to_numpy(zero_copy_only=False)
        ts_us = pc.cast(batch["ts"], pa.timestamp("us")).cast(pa.int64()).to_numpy()
        et = np.asarray(batch["event_type"].to_pylist())
        uniq, inv = np.unique(users, return_inverse=True)
        cols = {"user_id": pa.array(uniq, pa.int64())}
        for s in steps:
            m = np.full(len(uniq), INF)
            sel = et == s
            np.minimum.at(m, inv[sel], ts_us[sel])
            cols[f"t_{s}"] = pa.array(m, pa.int64())
        return pa.table(cols)

    mins = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(*[Min(on=f"t_{s}", alias_name=f"t_{s}") for s in steps])
    )

    def flags(b: pa.Table) -> pa.Table:
        tv = b["t_view"].to_numpy(zero_copy_only=False)
        tc = b["t_click"].to_numpy(zero_copy_only=False)
        tp = b["t_purchase"].to_numpy(zero_copy_only=False)
        has_view = tv < INF
        click_after = has_view & (tc < INF) & (tc > tv)
        full = click_after & (tp < INF) & (tp > tc)
        return pa.table(
            {
                "n_view": pa.array([int(has_view.sum())], pa.int64()),
                "n_click_after_view": pa.array([int(click_after.sum())], pa.int64()),
                "n_full_funnel": pa.array([int(full.sum())], pa.int64()),
            }
        )

    import pandas as pd

    parts = mins.map_batches(flags, batch_format="pyarrow").to_pandas()  # bounded: one scalar row per block
    return pa.Table.from_pandas(
        parts.sum().to_frame().T.astype("int64"), preserve_index=False
    )


@register(
    "doc_pack_offsets",
    oracle="""
    WITH t AS (
        SELECT doc_id,
               CAST(COALESCE(len(string_split(lower(trim(text)), ' ')), 0)
                    AS BIGINT) AS n_tokens
        FROM documents
    )
    SELECT doc_id, n_tokens,
           CAST(COALESCE(sum(n_tokens) OVER (
               ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
           ), 0) AS BIGINT) AS start_offset,
           CAST(COALESCE(sum(n_tokens) OVER (
               ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
           ), 0) // 2048 AS BIGINT) AS seq_id
    FROM t
    """,
)
def doc_pack_offsets(sf_dir: str):
    """SEQUENCE PACKING offsets for LLM pretraining: concatenate the
    corpus in doc_id order and cut fixed 2048-token sequences — each doc
    gets its global token start_offset (an exclusive PREFIX SUM over
    doc_id order) and the sequence it starts in. The prefix sum is the
    textbook two-level distributed scan: pass 1 reduces each coarse
    doc_id range (width 1024) to its token total (bounded cardinality —
    only range cells shuffle), the driver cumsums the tiny range table
    into base offsets, pass 2 scans WITHIN each range
    (groupby(range).map_groups sort + cumsum) and adds the base. No
    global sort, no corpus-sized driver state."""
    import ray.data

    from sciscraper_ray.kernels.tokenize import tokenize_column

    W = 1024
    SEQ = 2048
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def tokens_per_doc(batch: pa.Table) -> pa.Table:
        toks = tokenize_column(batch["text"])
        n = pc.list_value_length(toks)
        n = pc.coalesce(n, pa.scalar(0, pa.int32()))
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "rng": pa.array(ids // W, pa.int64()),
                "n_tokens": pc.cast(n, pa.int64()),
            }
        )

    counted = ds.map_batches(tokens_per_doc, batch_format="pyarrow").materialize()

    def range_partial(b: pa.Table) -> pa.Table:
        t = b.group_by("rng").aggregate([("n_tokens", "sum")])
        return t.rename_columns(["rng", "tot"])

    h = (
        counted.map_batches(range_partial, batch_format="pyarrow")
        .to_pandas()  # bounded: |ranges| x blocks
        .groupby("rng")["tot"]
        .sum()
        .sort_index()
    )
    base = dict(zip(h.index, h.cumsum().shift(fill_value=0)))

    def scan_range(g):
        import pandas as pd

        g = g.sort_values("doc_id")
        n = g["n_tokens"].to_numpy()
        start = int(base[int(g["rng"].iloc[0])]) + np.concatenate(
            ([0], np.cumsum(n[:-1]))
        )
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(),
                "n_tokens": n,
                "start_offset": start.astype(np.int64),
                "seq_id": (start // SEQ).astype(np.int64),
            }
        )

    return counted.groupby("rng").map_groups(scan_range, batch_format="pandas")


@register(
    "customer_orders_leftjoin",
    oracle="""
    SELECT c.c_custkey, c.c_mktsegment,
           CAST(COALESCE(o.n_orders, 0) AS BIGINT) AS n_orders,
           round(COALESCE(o.spend, 0), 2) AS spend
    FROM customer c LEFT JOIN (
        SELECT o_custkey, count(*) AS n_orders, sum(o_totalprice) AS spend
        FROM orders GROUP BY o_custkey
    ) o ON o.o_custkey = c.c_custkey
    """,
)
def customer_orders_leftjoin(sf_dir: str):
    """Distributed LEFT OUTER join (customers keep their row with
    zeroed aggregates when they have no orders — TPC-H leaves ~1/3 of
    customers orderless, so the outer semantics are actually exercised):
    the orders side is pre-reduced to per-customer partials first
    (shrinking the shuffle to one row per customer), then
    ``bucketed_hash_join(how="left")`` co-partitions both sides by key
    hash — hash partitioning is key-complete per bucket, so outer
    semantics compose bucket-by-bucket with no driver involvement."""
    import ray.data
    from ray.data.aggregate import Sum

    from sciscraper_ray.stages.relational import bucketed_hash_join

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    agg = (
        orders.map_batches(
            lambda b: group_count_batch(b, ["o_custkey"], {"o_totalprice": "spend"}),
            batch_format="pyarrow",
        )
        .groupby("o_custkey")
        .aggregate(
            Sum(on="cnt", alias_name="n_orders"), Sum(on="spend", alias_name="spend")
        )
    )

    joined = bucketed_hash_join(
        cust, agg, left_on="c_custkey", right_on="o_custkey", how="left"
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = batch["n_orders"].to_numpy(zero_copy_only=False)
        s = batch["spend"].to_numpy(zero_copy_only=False)
        n = np.nan_to_num(n.astype(np.float64), nan=0.0).astype(np.int64)
        s = np.round(np.nan_to_num(s.astype(np.float64), nan=0.0), 2)
        return pa.table(
            {
                "c_custkey": batch["c_custkey"],
                "c_mktsegment": batch["c_mktsegment"],
                "n_orders": pa.array(n, pa.int64()),
                "spend": pa.array(s, pa.float64()),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


@register(
    "embedding_gram",
    oracle=f"""
    SELECT CAST(t1.i AS BIGINT) AS i, CAST(t2.j AS BIGINT) AS j,
           round(avg(CAST(embedding[t1.i + 1] AS DOUBLE)
                     * CAST(embedding[t2.j + 1] AS DOUBLE)), 6) AS m2
    FROM embeddings, range({_EMB_DIM}) t1(i), range({_EMB_DIM}) t2(j)
    GROUP BY t1.i, t2.j
    """,
)
def embedding_gram(sf_dir: str):
    """Distributed GRAM / second-moment matrix E[x_i * x_j] — the
    covariance/PCA building block: each batch contributes ONE d x d
    X^T X partial (a single BLAS matmul over the zero-copy
    flatten-reshape), so the reduction moves d^2 doubles per batch
    regardless of row count; the d x d sum finishes on the driver (a few
    KB) and unpivots to long (i, j, m2) form for the compare. The oracle
    recomputes every entry elementwise from the list column."""
    import ray.data

    from sciscraper_ray.stages.ann import _stack

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        mat = _stack(batch["embedding"])
        g = mat.T @ mat
        return pa.table(
            {
                "cell": pa.array(g.ravel(), pa.float64()),
                "idx": pa.array(np.arange(g.size, dtype=np.int64)),
                "n": pa.array(np.full(g.size, len(mat), np.int64)),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()  # bounded: d^2 x blocks partial cells
    d = _EMB_DIM
    total = parts.groupby("idx")["cell"].sum().to_numpy().reshape(d, d)
    n = int(parts[parts["idx"] == 0]["n"].sum())
    ii, jj = np.divmod(np.arange(d * d, dtype=np.int64), d)
    return pa.table(
        {
            "i": pa.array(ii, pa.int64()),
            "j": pa.array(jj, pa.int64()),
            "m2": pa.array(np.round(total.ravel() / n, 6), pa.float64()),
        }
    )


@register(
    "doc_collect_ids",
    oracle="""
    SELECT source, lang,
           string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) AS ids,
           count(*) AS cnt
    FROM documents
    GROUP BY source, lang
    """,
)
def doc_collect_ids(sf_dir: str):
    """COLLECT-LIST / group-concat aggregate (the materialize-a-group
    operator behind array_agg, training-manifest building, and
    per-partition file lists): groupby(source, lang) -> in-group sort +
    join. Order inside the group is part of the contract (ORDER BY
    doc_id both sides). The output value grows with group size — at
    scale this writes per-group manifest FILES (the checkpoint store's
    layout) rather than returning strings; the operator shape is
    identical."""
    import ray.data

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "lang"]
    ).map_batches(
        # The parquet files carry pandas schema metadata (a dict), which
        # makes pa.Schema unhashable; blocks feeding a shuffle directly
        # must shed it or every reduce task loses Ray's schema-dedup fast
        # path and logs "Failed to hash the schemas". Zero-copy.
        lambda t: t.replace_schema_metadata(None),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def collect(g):
        import pandas as pd

        ids = np.sort(g["doc_id"].to_numpy())
        return pd.DataFrame(
            {
                "source": [g["source"].iloc[0]],
                "lang": [g["lang"].iloc[0]],
                "ids": [",".join(map(str, ids))],
                "cnt": np.array([len(ids)], np.int64),
            }
        )

    return ds.groupby(["source", "lang"]).map_groups(collect, batch_format="pandas")




def _price_quantiles(sf_dir: str, pcts, what: str):
    """(n_rows, {pct: cents}): EXACT quantile_disc order statistics of
    l_extendedprice in cents, in two bounded passes. Pass 1 histograms
    cents into 4096 fixed-width integer bins whose bounds come FREE from
    the parquet footer's row-group statistics; the driver's cumulative
    sum locates, for each target rank ceil(n*q)-1, the one bin holding
    it. Pass 2 collects ONLY values inside the target bins (expected
    n/4096 rows each, under the driver-frame bound) and reads each order
    statistic off a driver sort."""
    import pyarrow.parquet as pq

    import ray.data
    from ray.data.aggregate import Sum

    from sciscraper_ray.pipelines.plan import driver_frame

    NBINS = 4096
    pf = pq.ParquetFile(f"{sf_dir}/lineitem.parquet")
    col = pf.schema_arrow.get_field_index("l_extendedprice")
    stats = [
        pf.metadata.row_group(rg).column(col).statistics
        for rg in range(pf.metadata.num_row_groups)
    ]
    lo = int(np.floor(min(s.min for s in stats) * 100))
    hi = int(np.ceil(max(s.max for s in stats) * 100))
    w = max(1, (hi - lo + NBINS) // NBINS)

    def binned(b: pa.Table):
        cts = cents(b["l_extendedprice"])
        return cts, np.clip((cts - lo) // w, 0, NBINS - 1)

    def hist_partial(b: pa.Table) -> pa.Table:
        cnt = np.bincount(binned(b)[1], minlength=NBINS)
        nz = np.flatnonzero(cnt)
        return pa.table(
            {
                "bin": pa.array(nz.astype(np.int64)),
                "cnt": pa.array(cnt[nz].astype(np.int64)),
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"]
    )
    hist = (
        ds.map_batches(hist_partial, batch_format="pyarrow")
        .groupby("bin")
        .aggregate(Sum(on="cnt", alias_name="cnt"))
        .to_pandas()  # bounded: |bins|
    )
    cnt = np.zeros(NBINS, np.int64)
    cnt[hist["bin"].to_numpy(np.int64)] = hist["cnt"].to_numpy(np.int64)
    cum = np.cumsum(cnt)
    n = int(cum[-1])
    ranks = {pct: (n * pct + 99) // 100 - 1 for pct in pcts}
    tbins = {pct: int(np.searchsorted(cum, r + 1)) for pct, r in ranks.items()}
    need = np.array(sorted(set(tbins.values())), np.int64)

    def in_targets(b: pa.Table) -> pa.Table:
        cts, bins = binned(b)
        keep = np.isin(bins, need)
        return pa.table({"bin": pa.array(bins[keep]), "cents": pa.array(cts[keep])})

    vals = driver_frame(ds.map_batches(in_targets, batch_format="pyarrow"), what=what)
    value = {}
    for pct in pcts:
        bb = tbins[pct]
        rank_in = ranks[pct] - (int(cum[bb - 1]) if bb else 0)
        inbin = np.sort(vals.loc[vals["bin"] == bb, "cents"].to_numpy(np.int64))
        value[pct] = int(inbin[rank_in])
    return n, value


@register(
    "lineitem_price_quantiles_twopass",
    oracle="""
    WITH c AS (
        SELECT CAST(round(l_extendedprice * 100) AS BIGINT) AS cents
        FROM lineitem
    )
    SELECT CAST(unnest([10, 50, 90]) AS BIGINT) AS pct,
           unnest([
               CAST(quantile_disc(cents, 0.1) AS BIGINT),
               CAST(quantile_disc(cents, 0.5) AS BIGINT),
               CAST(quantile_disc(cents, 0.9) AS BIGINT)
           ]) AS value_cents,
           CAST(count(*) AS BIGINT) AS n_rows
    FROM c
    """,
)
def lineitem_price_quantiles_twopass(sf_dir: str):
    """EXACT p10/p50/p90 of a CONTINUOUS column in two bounded passes —
    the scale path lineitem_quantiles' docstring defers (its histogram
    trick needs bounded distinct cardinality; prices have ~n distinct
    values). Pass 1 histograms cents into 4096 fixed-width integer bins
    whose bounds come FREE from the parquet footer's row-group
    statistics (no extra scan); the driver's cumulative sum locates,
    for each target rank ceil(n*q)-1 (the quantile_disc rule), the one
    bin containing it. Pass 2 re-scans collecting ONLY values inside
    the (up to 3) target bins — expected n/4096 rows each, guarded by
    the shared driver-frame bound — and reads the exact order statistic
    off a driver sort. Total exchange: 4096-row histogram partials plus
    the target-bin values; nothing global is ever sorted. A pathological
    single-value bin would simply make pass 2 the exact-count shortcut
    (every rank inside it is that value)."""
    n, value = _price_quantiles(
        sf_dir, (10, 50, 90), "lineitem_price_quantiles_twopass"
    )
    return pa.table(
        {
            "pct": pa.array([10, 50, 90], pa.int64()),
            "value_cents": pa.array([value[pct] for pct in (10, 50, 90)], pa.int64()),
            "n_rows": pa.array([n] * 3, pa.int64()),
        }
    )


@register(
    "lineitem_winsorized_mean",
    oracle="""
    WITH c AS (
        SELECT CAST(round(l_extendedprice * 100) AS BIGINT) AS cents
        FROM lineitem
    ), cuts AS (
        SELECT CAST(quantile_disc(cents, 0.05) AS BIGINT) AS lo_cut,
               CAST(quantile_disc(cents, 0.95) AS BIGINT) AS hi_cut
        FROM c
    )
    SELECT lo_cut, hi_cut,
           CAST(sum(CASE WHEN cents < lo_cut THEN 1 ELSE 0 END) AS BIGINT)
               AS n_clipped_lo,
           CAST(sum(CASE WHEN cents > hi_cut THEN 1 ELSE 0 END) AS BIGINT)
               AS n_clipped_hi,
           CAST(sum(least(greatest(cents, lo_cut), hi_cut)) AS BIGINT)
               AS winsorized_sum_cents,
           CAST(count(*) AS BIGINT) AS n_rows
    FROM c, cuts
    GROUP BY lo_cut, hi_cut
    """,
)
def lineitem_winsorized_mean(sf_dir: str):
    """5/95-winsorized price statistics — the robust-mean prep that
    caps rather than drops outliers (complements events_anomaly_mad's
    flagging and doc_iqr_filter's dropping). Exact on a CONTINUOUS
    column by reusing lineitem_price_quantiles_twopass's plan: pass 1's
    4096-bin histogram (bounds free from the parquet footer) locates
    the p05/p95 bins, pass 2 collects only those two bins' values to
    read the exact cut points, and pass 3 is one clipped partial-sum
    scan. The mean itself stays a (sum, count) integer pair — the one
    division is the caller's, so the oracle compare is exact."""
    import ray.data

    _, cutv = _price_quantiles(sf_dir, (5, 95), "lineitem_winsorized_mean")
    lo_cut, hi_cut = cutv[5], cutv[95]

    def clip_partial(b: pa.Table) -> pa.Table:
        cts = cents(b["l_extendedprice"])
        return pa.table(
            {
                "n_clipped_lo": pa.array(
                    [int((cts < lo_cut).sum())], pa.int64()
                ),
                "n_clipped_hi": pa.array(
                    [int((cts > hi_cut).sum())], pa.int64()
                ),
                "winsorized_sum_cents": pa.array(
                    [int(np.clip(cts, lo_cut, hi_cut).sum())], pa.int64()
                ),
                "n_rows": pa.array([len(cts)], pa.int64()),
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"]
    )
    agg = (
        ds.map_batches(clip_partial, batch_format="pyarrow")
        .to_pandas()  # bounded: one scalar row per block
        .sum()
    )
    return pa.table(
        {
            "lo_cut": pa.array([lo_cut], pa.int64()),
            "hi_cut": pa.array([hi_cut], pa.int64()),
            "n_clipped_lo": pa.array([int(agg["n_clipped_lo"])], pa.int64()),
            "n_clipped_hi": pa.array([int(agg["n_clipped_hi"])], pa.int64()),
            "winsorized_sum_cents": pa.array(
                [int(agg["winsorized_sum_cents"])], pa.int64()
            ),
            "n_rows": pa.array([int(agg["n_rows"])], pa.int64()),
        }
    )


@register(
    "orders_value_quantiles_by_segment",
    oracle="""
    WITH oc AS (
        SELECT c_mktsegment AS seg,
               CAST(round(o_totalprice * 100) AS BIGINT) AS cents
        FROM orders JOIN customer ON o_custkey = c_custkey
    )
    SELECT seg, CAST(unnest([50, 90]) AS BIGINT) AS pct,
           unnest([
               CAST(quantile_disc(cents, 0.5) AS BIGINT),
               CAST(quantile_disc(cents, 0.9) AS BIGINT)
           ]) AS value_cents,
           CAST(count(*) AS BIGINT) AS n_rows
    FROM oc GROUP BY seg
    """,
)
def orders_value_quantiles_by_segment(sf_dir: str):
    """GROUPED exact continuous quantiles (p50/p90 of order value per
    market segment) — the per-cohort percentile dashboard query, solved
    by the same two-bounded-passes plan as
    lineitem_price_quantiles_twopass but with the histogram keyed
    (segment, bin): pass 1 moves at most |segments| x 4096 cells (price
    bounds free from the parquet footer), the driver locates each
    (segment, target-rank) bin, pass 2 collects only those bins' values
    per segment. The segment tag rides a dense custkey->code int8 array
    (one ray.put — the market_share_q8 pattern; where customers outgrow
    the object store comfort bound the same bucketed join applies).
    Never a global sort, never per-row shuffle."""
    import pyarrow.parquet as pq

    import ray
    import ray.data
    from ray.data.aggregate import Sum

    from sciscraper_ray.pipelines.plan import driver_frame

    NBINS = 4096
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    segs = sorted(set(cust["c_mktsegment"].to_pylist()))
    seg_code = {s: i for i, s in enumerate(segs)}
    ck = cust["c_custkey"].to_numpy(zero_copy_only=False)
    code = np.full(int(ck.max()) + 1, -1, np.int8)
    code[ck] = np.array(
        [seg_code[s] for s in cust["c_mktsegment"].to_pylist()], np.int8
    )
    code_ref = ray.put(code)

    pf = pq.ParquetFile(f"{sf_dir}/orders.parquet")
    col = pf.schema_arrow.get_field_index("o_totalprice")
    stats = [
        pf.metadata.row_group(rg).column(col).statistics
        for rg in range(pf.metadata.num_row_groups)
    ]
    lo = int(np.floor(min(s.min for s in stats) * 100))
    hi = int(np.ceil(max(s.max for s in stats) * 100))
    w = max(1, (hi - lo + NBINS) // NBINS)
    ns = len(segs)

    class HistPartial:
        def __init__(self):
            self.code = ray.get(code_ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            cts = cents(b["o_totalprice"])
            sc = self.code[
                b["o_custkey"].to_numpy(zero_copy_only=False)
            ].astype(np.int64)
            binned = np.clip((cts - lo) // w, 0, NBINS - 1)
            key = sc * NBINS + binned
            cnt = np.bincount(key, minlength=ns * NBINS)
            nz = np.flatnonzero(cnt)
            return pa.table(
                {
                    "k": pa.array(nz.astype(np.int64)),
                    "cnt": pa.array(cnt[nz].astype(np.int64)),
                }
            )

    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )
    hist = (
        ds.map_batches(HistPartial, batch_format="pyarrow", concurrency=(1, 4))
        .groupby("k")
        .aggregate(Sum(on="cnt", alias_name="cnt"))
        .to_pandas()  # bounded: |bins|
    )
    cnt = np.zeros(ns * NBINS, np.int64)
    cnt[hist["k"].to_numpy(np.int64)] = hist["cnt"].to_numpy(np.int64)
    cnt = cnt.reshape(ns, NBINS)
    cums = np.cumsum(cnt, axis=1)
    targets = {}  # (seg_idx, pct) -> (bin, rank_in_bin)
    need_keys = set()
    for si in range(ns):
        n = int(cums[si, -1])
        for pct in (50, 90):
            r = (n * pct + 99) // 100 - 1
            bb = int(np.searchsorted(cums[si], r + 1))
            targets[(si, pct)] = (bb, r - (int(cums[si, bb - 1]) if bb else 0))
            need_keys.add(si * NBINS + bb)
    need = np.array(sorted(need_keys), np.int64)

    class TargetCollect:
        def __init__(self):
            self.code = ray.get(code_ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            cts = cents(b["o_totalprice"])
            sc = self.code[
                b["o_custkey"].to_numpy(zero_copy_only=False)
            ].astype(np.int64)
            key = sc * NBINS + np.clip((cts - lo) // w, 0, NBINS - 1)
            keep = np.isin(key, need)
            return pa.table(
                {"k": pa.array(key[keep]), "cents": pa.array(cts[keep])}
            )

    vals = driver_frame(
        ds.map_batches(
            TargetCollect, batch_format="pyarrow", concurrency=(1, 4)
        ),
        what="orders_value_quantiles_by_segment",
    )
    out = []
    for si, s in enumerate(segs):
        n = int(cums[si, -1])
        for pct in (50, 90):
            bb, rank_in = targets[(si, pct)]
            inbin = np.sort(
                vals.loc[vals["k"] == si * NBINS + bb, "cents"].to_numpy(
                    np.int64
                )
            )
            out.append((s, pct, int(inbin[rank_in]), n))
    return pa.table(
        {
            "seg": pa.array([r[0] for r in out], pa.string()),
            "pct": pa.array([r[1] for r in out], pa.int64()),
            "value_cents": pa.array([r[2] for r in out], pa.int64()),
            "n_rows": pa.array([r[3] for r in out], pa.int64()),
        }
    )


_SWEEP_K = 40


def _ppr_sweep_sql(iters: int = 5) -> str:
    """graph_ppr's unrolled iteration, then the Andersen-Chung-Lang
    sweep: rank nodes by r/deg (desc, node asc), take prefixes
    S_1..S_40, and score each by exact-integer conductance
    cut(S)/min(vol(S), 2m - vol(S)) via the incremental identity
    cut(S_k) = sum(deg) - 2*sum(internal edges)."""
    p_case = (
        "CASE WHEN {col} < 50 THEN 1.0 / (SELECT s FROM seedn) ELSE 0.0 END"
    )
    ctes = [
        "e0 AS (SELECT DISTINCT l_partkey AS a, l_suppkey + 10000000 AS b FROM lineitem)",
        "edges AS MATERIALIZED (SELECT a AS src, b AS dst FROM e0 UNION ALL SELECT b AS src, a AS dst FROM e0)",
        "deg AS MATERIALIZED (SELECT src AS node, CAST(count(*) AS DOUBLE) AS d FROM edges GROUP BY src)",
        "seedn AS (SELECT CAST(count(*) AS DOUBLE) AS s FROM deg WHERE node < 50)",
        f"r0 AS (SELECT node, {p_case.format(col='node')} AS r FROM deg)",
    ]
    for k in range(1, iters + 1):
        ctes.append(
            f"""r{k} AS (
        SELECT e.dst AS node,
               (1.0 - 0.85) * ({p_case.format(col='e.dst')})
                   + 0.85 * sum(p.r / dg.d) AS r
        FROM edges e
        JOIN r{k - 1} p ON p.node = e.src
        JOIN deg dg ON dg.node = e.src
        GROUP BY e.dst
    )"""
        )
    ctes.append(
        f"""ranked AS MATERIALIZED (
        SELECT r.node, CAST(dg.d AS BIGINT) AS deg,
               row_number() OVER (
                   ORDER BY round(r.r, 10) / dg.d DESC, r.node ASC
               ) AS rk
        FROM r{iters} r JOIN deg dg ON dg.node = r.node
    )"""
    )
    ctes.append(
        f"""ein AS (
        SELECT r1.rk, CAST(count(*) AS BIGINT) AS e_in
        FROM edges e
        JOIN ranked r1 ON r1.node = e.src AND r1.rk <= {_SWEEP_K}
        JOIN ranked r2 ON r2.node = e.dst AND r2.rk < r1.rk
        GROUP BY r1.rk
    )"""
    )
    ctes.append(
        "m2 AS (SELECT CAST(count(*) AS BIGINT) AS m2 FROM edges)"
    )
    return (
        "WITH "
        + ",\n    ".join(ctes)
        + f"""
    SELECT CAST(r.rk AS BIGINT) AS k, r.node,
           CAST(sum(r.deg) OVER w
                - 2 * sum(coalesce(ein.e_in, 0)) OVER w AS BIGINT) AS cut,
           CAST(sum(r.deg) OVER w AS BIGINT) AS vol,
           CAST(sum(r.deg) OVER w
                - 2 * sum(coalesce(ein.e_in, 0)) OVER w AS DOUBLE)
               / least(sum(r.deg) OVER w,
                       (SELECT m2 FROM m2) - sum(r.deg) OVER w)
               AS conductance
    FROM ranked r LEFT JOIN ein ON ein.rk = r.rk
    WHERE r.rk <= {_SWEEP_K}
    WINDOW w AS (ORDER BY r.rk ROWS UNBOUNDED PRECEDING)
    """
    )


@register("graph_ppr_sweep_cut", oracle=_ppr_sweep_sql(5))
def graph_ppr_sweep_cut(sf_dir: str):
    """Local community detection by the PPR sweep cut (Andersen, Chung
    & Lang FOCS'06): rank nodes by personalized-PageRank mass divided
    by degree, then score every rank prefix S_k by its conductance
    cut(S_k)/min(vol(S_k), 2m - vol(S_k)) — the prefix at the
    conductance minimum is the seed set's community, with a provable
    quality bound. The PPR is the shared two-plan pagerank engine
    (seeds = part ids < 50); the sweep itself is exact integers: degree
    cumsums and internal-edge counts (cut shrinks by 2 for every edge
    closed inside the prefix), evaluated vectorized over the top-40
    prefix — only the ranking key is a double, identical on both sides
    because it divides the same rounded-to-10 PPR mass by the same
    integer degree. Emits the full sweep curve (k, node, cut, vol,
    conductance), auditable rather than just the argmin."""
    from sciscraper_ray.pipelines.graph import pagerank

    edges_ds = _part_supplier_graph(sf_dir).materialize()
    ranked = pagerank(edges_ds, damping=0.85, iters=5, seeds=np.arange(50))
    if not isinstance(ranked, pa.Table):
        ranked = pa.Table.from_pandas(ranked.to_pandas(), preserve_index=False)  # bounded: ranked synth nodes (< 997)
    ed = edges_ds.to_pandas()  # bounded: synth edge set (node space < 997)
    src = ed["a"].to_numpy(np.int64)
    dst = ed["b"].to_numpy(np.int64)
    nodes = ranked["node"].to_numpy(zero_copy_only=False)
    r = ranked["r"].to_numpy(zero_copy_only=False)
    order_all = np.argsort(nodes)
    nodes_s = nodes[order_all]
    deg = np.bincount(np.searchsorted(nodes_s, src)).astype(np.int64)
    r_s = r[order_all]
    key = r_s / deg
    sweep = np.lexsort((nodes_s, -key))[:_SWEEP_K]
    rank_of = {int(nodes_s[j]): i for i, j in enumerate(sweep)}
    m2 = len(src)
    # internal-edge counts per prefix step
    e_in = np.zeros(_SWEEP_K, np.int64)
    rs = np.array([rank_of.get(int(u), _SWEEP_K) for u in src])
    rd = np.array([rank_of.get(int(v), _SWEEP_K) for v in dst])
    inside = (rs < _SWEEP_K) & (rd < rs)
    np.add.at(e_in, rs[inside], 1)
    degs = deg[sweep]
    vol = degs.cumsum()
    cut = vol - 2 * e_in.cumsum()
    cond = cut.astype(np.float64) / np.minimum(vol, m2 - vol)
    return pa.table(
        {
            "k": pa.array(np.arange(1, _SWEEP_K + 1, dtype=np.int64), pa.int64()),
            "node": pa.array(nodes_s[sweep].astype(np.int64), pa.int64()),
            "cut": pa.array(cut, pa.int64()),
            "vol": pa.array(vol, pa.int64()),
            "conductance": pa.array(cond, pa.float64()),
        }
    )
