"""Relational tier: grouped aggregates, joins, enrichment (SURVEY 2.4-2.6, 2.9).

Split from pipelines/queries.py (round 4); registration side effects
only — import order is fixed by the package __init__.
"""
from __future__ import annotations

from sciscraper_ray.words import TARGET_WORDS
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from sciscraper_ray.words import sql_in_list

from sciscraper_ray.kernels.md5 import md5_hex15, md5_hex15_sql
from sciscraper_ray.pipelines.queries._shared import (
    _SQL_TOKENS,
    _docs,
    cents,
    register,
)
from sciscraper_ray.pipelines.queries.doc_analysis import (
    _WORDSCORE_SQL,
)
from sciscraper_ray.stages.relational import group_count, group_count_batch


# --------------------------------------------------------------------------
# Relational tier (SURVEY §2.4-2.6): grouped aggregates with partial
# pre-aggregation, broadcast joins, two-phase token tallies, top-k.
# --------------------------------------------------------------------------


@register(
    "lineitem_pricing",
    oracle="""
    SELECT l_returnflag, l_linestatus,
           round(sum(l_quantity), 2) AS sum_qty,
           round(sum(l_extendedprice), 2) AS sum_base_price,
           round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
           round(sum(l_quantity) / count(*), 6) AS avg_qty,
           count(*) AS cnt
    FROM lineitem
    GROUP BY l_returnflag, l_linestatus
    """,
)
def lineitem_pricing(sf_dir: str):
    """A1/A4-style grouped aggregate, two-phase: per-batch partial sums in
    map_batches, then a small groupby over the partials (SURVEY §4 shuffle
    inventory (2))."""
    import ray.data

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
        ],
    )

    def partial(batch: pa.Table) -> pa.Table:
        revenue = pc.multiply(
            batch["l_extendedprice"], pc.subtract(1, batch["l_discount"])
        )
        return batch.append_column("revenue", revenue)

    agg = group_count(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        {
            "l_quantity": "sum_qty",
            "l_extendedprice": "sum_base_price",
            "revenue": "sum_disc_price",
        },
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "sum_qty": pc.round(batch["sum_qty"], 2),
                "sum_base_price": pc.round(batch["sum_base_price"], 2),
                "sum_disc_price": pc.round(batch["sum_disc_price"], 2),
                "avg_qty": pc.round(
                    pc.divide(batch["sum_qty"], pc.cast(batch["cnt"], pa.float64())), 6
                ),
                "cnt": batch["cnt"],
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


# A broadcast side above this many rows stops being "small": ~5M rows of
# (int64 key, short string) ≈ 100-200 MB per node — past that the big-big
# bucketed join is the correct plan.
_BROADCAST_ROW_LIMIT = 5_000_000


@register(
    "orders_by_region",
    oracle="""
    SELECT r_name,
           count(*) AS order_cnt,
           round(sum(o_totalprice), 2) AS total_price
    FROM orders
    JOIN customer ON o_custkey = c_custkey
    JOIN nation   ON c_nationkey = n_nationkey
    JOIN region   ON n_regionkey = r_regionkey
    GROUP BY r_name
    """,
)
def orders_by_region(sf_dir: str, mode: str = "auto"):
    """J3-style enrichment, two physical plans (VERDICT r3 item 6 — the
    broadcast side must not grow with sf):

    ``broadcast`` (small-side fast path): the custkey→region mapping is
    built driver-side and ``ray.put`` once; orders stream through with no
    shuffle until the tiny final groupby over partials. Correct plan only
    while customer fits a broadcast — customer is fact-sized (150k
    rows/sf), so this caps out.

    ``bucketed`` (scale path): broadcast ONLY the dimension product
    nation⋈region (25 rows, sf-invariant); orders⋈customer goes through
    ``bucketed_hash_join`` (one all-to-all on the mixed custkey, group
    count bounded by num_buckets), then the region lookup + partial
    aggregate run per batch. ``auto`` flips on customer.parquet's free
    metadata row count."""
    import pyarrow.parquet as pq
    import ray
    import ray.data

    from sciscraper_ray.pipelines.plan import parquet_row_bound
    from sciscraper_ray.stages.relational import BroadcastLookup, bucketed_hash_join

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"]
    ).to_pandas()  # bounded: 25-row dimension
    region = pq.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    ).to_pandas()  # bounded: 5-row dimension
    nat2reg = nation.merge(
        region, left_on="n_regionkey", right_on="r_regionkey"
    )[["n_nationkey", "r_name"]]

    if mode == "auto":
        n_cust = parquet_row_bound(f"{sf_dir}/customer.parquet")
        mode = (
            "broadcast"
            if n_cust is not None and n_cust <= _BROADCAST_ROW_LIMIT
            else "bucketed"
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    if mode == "broadcast":
        cust = pq.read_table(
            f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
        ).to_pandas()  # bounded: explicit broadcast plan (auto flips on row bound)
        mapping = cust.merge(
            nat2reg, left_on="c_nationkey", right_on="n_nationkey"
        )[["c_custkey", "r_name"]].rename(columns={"c_custkey": "o_custkey"})
        # Arrow once on the driver; the per-task ray.get is zero-copy. A
        # broadcast this small is a TASK stage, not an actor pool — an
        # autoscaling pool's one-at-a-time ramp was the old wall-clock
        # floor here (~3 s for a 150k-row stream; tasks cut it to ~1 s).
        mapping_ref = ray.put(
            pa.Table.from_pandas(mapping, preserve_index=False)
        )

        partials = ds.map_batches(
            BroadcastLookup(mapping_ref, on="o_custkey"), batch_format="pyarrow"
        )
    else:
        cust_ds = ray.data.read_parquet(
            f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
        )
        nat2reg_ref = ray.put(
            pa.Table.from_pandas(
                nat2reg.rename(columns={"n_nationkey": "c_nationkey"}),
                preserve_index=False,
            )
        )
        joined = bucketed_hash_join(
            ds, cust_ds, left_on="o_custkey", right_on="c_custkey"
        )

        partials = joined.map_batches(
            BroadcastLookup(nat2reg_ref, on="c_nationkey"), batch_format="pyarrow"
        )

    agg = group_count(
        partials, "r_name", {"o_totalprice": "total_price"}, count="order_cnt"
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "r_name": batch["r_name"],
                "order_cnt": batch["order_cnt"],
                "total_price": pc.round(batch["total_price"], 2),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


@register(
    "top_tokens_global",
    oracle=f"""
    SELECT token, count(*) AS cnt
    FROM (SELECT unnest({_SQL_TOKENS}) AS token FROM documents)
    GROUP BY token
    ORDER BY cnt DESC, token ASC
    LIMIT 100
    """,
)
def top_tokens_global(sf_dir: str, plan: str = "auto"):
    """Corpus-wide token frequency top-k (A1 at corpus scale): per-batch
    partial counts, then the shared two-plan merge (pipelines/plan.py).
    The partials defuse hot-token skew (SURVEY §4: salted two-phase) and
    their row count is vocabulary x batches (Heaps'-law small), so the
    driver plan — one pandas hash groupby + partial sort — wins until the
    partial table nears the 50M-row bound, where the distributed
    sort-aggregate takes over automatically."""
    from sciscraper_ray.kernels.tokenize import tokenize_column
    from sciscraper_ray.pipelines.plan import driver_frame, resolve_plan

    def partial(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(tokenize_column(batch["text"]))
        return group_count_batch(pa.table({"token": flat}), ["token"])

    partials = _docs(sf_dir).map_batches(partial, batch_format="pyarrow")
    mode, partials = resolve_plan(partials, plan)
    if mode == "driver":
        df = driver_frame(partials, what="top_tokens_global")
        agg = df.groupby("token", as_index=False)["cnt"].sum()
        return (
            agg.sort_values(["cnt", "token"], ascending=[False, True])
            .head(100)
            .reset_index(drop=True)
        )
    return (
        group_count(partials, "token", {"cnt": "cnt"}, count=None)
        .sort(key=["cnt", "token"], descending=[True, False])
        .limit(100)
    )


@register(
    "source_token_tally",
    oracle=f"""
    SELECT source, token, count(*) AS cnt
    FROM (SELECT source, unnest({_SQL_TOKENS}) AS token FROM documents)
    WHERE token IN {sql_in_list(TARGET_WORDS)}
    GROUP BY source, token
    """,
)
def source_token_tally(sf_dir: str):
    """E2+A4 analog (citation tally after explode): explode tokens with
    provenance, semi-join against the broadcast word set inside the batch,
    partial-count, then groupby (source, token)."""
    from sciscraper_ray.kernels.tokenize import tokenize_column

    vocab = pa.array(sorted(TARGET_WORDS), type=pa.string())

    def partial(batch: pa.Table) -> pa.Table:
        tokens = tokenize_column(batch["text"]).combine_chunks()
        flat = pc.list_flatten(tokens)
        parents = pc.list_parent_indices(tokens)
        mask = pc.is_in(flat, value_set=vocab)
        return pa.table(
            {
                "source": batch["source"].take(parents.filter(mask)),
                "token": flat.filter(mask),
            }
        )

    return group_count(
        _docs(sf_dir, columns=("doc_id", "text", "source")).map_batches(
            partial, batch_format="pyarrow"
        ),
        ["source", "token"],
    )


_ENRICH_WORDSCORE_SQL = f"""
    WITH enriched AS (
        SELECT doc_id, text,
               '10.90/d' || doc_id AS doi,
               'Paper ' || doc_id AS title,
               CAST(doc_id * 7 % 1000 AS SMALLINT) AS times_cited
        FROM documents
    ),
    scored AS ({_WORDSCORE_SQL.replace("FROM documents", "FROM enriched")})
    SELECT e.doc_id, e.doi, e.title, e.times_cited,
           s.matching_terms, s.bycatch_terms, s.total_word_count, s.wordscore
    FROM enriched e JOIN scored s USING (doc_id)
    """


@register("enrich_wordscore", oracle=_ENRICH_WORDSCORE_SQL)
def enrich_wordscore(sf_dir: str):
    """EP2 'wordscore mode' end to end (fetch.py:177-194 composition):
    bibliographic enrichment as a BROADCAST join against a papers fixture
    keyed by doi (the offline J3 form of the Dimensions lookup,
    webscrapers.py:195-262), then the fused DocAnalyzer over the text,
    with the declared int16 cast on times_cited (KEY_TYPE_PAIRINGS)."""
    import pandas as pd
    import ray as _ray

    from sciscraper_ray.pipelines.flagship import wordscore_pipeline
    from sciscraper_ray.stages.relational import BroadcastLookup

    import pyarrow.parquet as pq

    ids = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])[
        "doc_id"
    ].to_pylist()
    papers = pd.DataFrame(
        {
            "doi": [f"10.90/d{i}" for i in ids],
            "title": [f"Paper {i}" for i in ids],
            "times_cited": pd.array(
                [i * 7 % 1000 for i in ids], dtype="int16"
            ),
        }
    ).set_index("doi")
    papers_ref = _ray.put(papers)

    def add_doi(batch: pa.Table) -> pa.Table:
        ids_np = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "doi", pa.array([f"10.90/d{i}" for i in ids_np], pa.string())
        )

    docs = _docs(sf_dir).map_batches(add_doi, batch_format="pyarrow")
    enriched = docs.map_batches(
        BroadcastLookup,
        fn_constructor_kwargs={"mapping_ref": papers_ref, "on": "doi"},
        batch_format="pyarrow",
        concurrency=(1, 4),
    )
    scored = wordscore_pipeline(enriched)
    return scored.select_columns(
        [
            "doc_id", "doi", "title", "times_cited",
            "matching_terms", "bycatch_terms", "total_word_count", "wordscore",
        ]
    )


@register("enrich_ratelimited", oracle=_ENRICH_WORDSCORE_SQL)
def enrich_ratelimited(sf_dir: str):
    """The SAME enrichment contract as ``enrich_wordscore``, deployed
    through the pluggable IO-tier stage instead of the broadcast join:
    ``RateLimitedEnrich`` with an offline ``table_transport`` built once
    per actor (the testable deployment of the reference's
    requests-session scrapers, webscrapers.py:186-262) and a per-actor
    token bucket. Same oracle — the operator contract (key -> columns,
    miss -> null) is deployment-independent, which is the §2.9 claim."""
    import pyarrow.parquet as pq_

    from sciscraper_ray.pipelines.flagship import wordscore_pipeline
    from sciscraper_ray.stages.enrich import RateLimitedEnrich, table_transport

    ids = pq_.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])[
        "doc_id"
    ].to_pylist()
    papers = {
        f"10.90/d{i}": {"title": f"Paper {i}", "times_cited": i * 7 % 1000}
        for i in ids
    }

    def add_doi(batch: pa.Table) -> pa.Table:
        ids_np = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "doi", pa.array([f"10.90/d{i}" for i in ids_np], pa.string())
        )

    docs = _docs(sf_dir).map_batches(add_doi, batch_format="pyarrow")
    enriched = docs.map_batches(
        RateLimitedEnrich,
        fn_constructor_kwargs={
            "transport_factory": lambda: table_transport(papers),
            "on": "doi",
            "out_columns": {"title": pa.string(), "times_cited": pa.int16()},
            # budget sized so rate x pool >> rows/sec needed at test scale;
            # a live deployment would set the external API budget here
            "rate": 100_000.0,
            "burst": 64,
        },
        batch_format="pyarrow",
        concurrency=2,
    )
    scored = wordscore_pipeline(enriched)
    return scored.select_columns(
        [
            "doc_id", "doi", "title", "times_cited",
            "matching_terms", "bycatch_terms", "total_word_count", "wordscore",
        ]
    )


@register(
    "citation_tally",
    oracle="""
    WITH c AS (
        SELECT doc_id,
               unnest([(doc_id * 2) % 997,
                       (doc_id * 3 + 3) % 997,
                       (doc_id * 4 + 6) % 997]) AS cited
        FROM documents
    )
    SELECT cited, count(*) AS cnt, min(doc_id) AS first_source
    FROM c GROUP BY cited
    """,
)
def citation_tally(sf_dir: str):
    """EP3/E2+A4 analog: explode a citations list column with provenance
    (vectorized list_flatten + list_parent_indices, stagers.py:55-125
    semantics), then the citation tally groupby. Citations are synthesized
    deterministically from doc_id."""
    def explode(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        cited = np.stack(
            [(ids * 2) % 997, (ids * 3 + 3) % 997, (ids * 4 + 6) % 997], axis=1
        )
        lists = pa.FixedSizeListArray.from_arrays(
            pa.array(cited.ravel(), type=pa.int64()), 3
        ).cast(pa.list_(pa.int64()))
        parents = pc.list_parent_indices(lists)
        return pa.table(
            {
                "cited": pc.list_flatten(lists),
                "doc_id": batch["doc_id"].take(parents),
            }
        )

    # cnt + min(source) per cited key
    return group_count(
        _docs(sf_dir, columns=("doc_id",)).map_batches(explode, batch_format="pyarrow"),
        "cited",
        aggs={"first_source": ("doc_id", "min")},
    )


@register(
    "citations_enriched",
    oracle="""
    WITH c AS (
        SELECT doc_id AS source_doc_id,
               'Paper ' || doc_id AS source_title,
               unnest([(doc_id * 2) % 997,
                       (doc_id * 3 + 3) % 997,
                       (doc_id * 4 + 6) % 997]) AS cited
        FROM documents
    )
    SELECT source_doc_id, source_title, cited,
           'Paper ' || cited AS cited_title,
           CAST(cited * 7 % 1000 AS SMALLINT) AS cited_times_cited
    FROM c
    """,
)
def citations_enriched(sf_dir: str):
    """EP3 'citations mode' (J2 + staging, fetch.py:138-160,
    stagers.py:55-125): explode the citations list CARRYING source
    provenance through the explode (the positional join-back becomes
    columns that never leave the row), then enrich each cited id from the
    broadcast papers fixture."""
    import pandas as pd
    import ray as _ray

    from sciscraper_ray.stages.relational import BroadcastLookup

    papers = pd.DataFrame(
        {
            "cited": pd.array(range(997), dtype="int64"),
            "cited_title": [f"Paper {i}" for i in range(997)],
            "cited_times_cited": pd.array(
                [i * 7 % 1000 for i in range(997)], dtype="int16"
            ),
        }
    ).set_index("cited")
    papers_ref = _ray.put(papers)

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        cited = np.stack(
            [(ids * 2) % 997, (ids * 3 + 3) % 997, (ids * 4 + 6) % 997], axis=1
        ).ravel()
        src = np.repeat(ids, 3)
        return pa.table(
            {
                "source_doc_id": pa.array(src, type=pa.int64()),
                "source_title": pa.array(
                    [f"Paper {i}" for i in src], pa.string()
                ),
                "cited": pa.array(cited, type=pa.int64()),
            }
        )

    return (
        _docs(sf_dir, columns=("doc_id",))
        .map_batches(explode, batch_format="pyarrow")
        .map_batches(
            BroadcastLookup,
            fn_constructor_kwargs={"mapping_ref": papers_ref, "on": "cited"},
            batch_format="pyarrow",
            concurrency=(1, 4),
        )
    )


@register(
    "link_routing",
    oracle="""
    SELECT doc_id,
           CASE WHEN doc_id % 4 = 0
                    THEN 'https://dacemirror.sci-hub.se/journal/x' || doc_id || '.pdf'
                WHEN doc_id % 4 = 1
                    THEN 'https://sci-hub.se/downloads/2021/x' || doc_id || '.pdf'
           END AS link,
           CASE WHEN doc_id % 2 = 0 THEN 'doi' ELSE 'text_search' END
               AS search_field
    FROM documents
    """,
)
def link_routing(sf_dir: str):
    """M21 link rewrite + M18 query routing over synthesized onclick
    fragments and search terms (goldens: reference
    tests/test_downloaders.py:87-108, tests/test_webscrapers.py:15-31)."""
    from sciscraper_ray.kernels.links import format_download_link, search_field_for

    def build(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        raw = [
            f"location.href='//dacemirror.sci-hub.se/journal/x{i}.pdf" if i % 4 == 0
            else f"location.href='/downloads/2021/x{i}.pdf" if i % 4 == 1
            else f"no match {i}" if i % 4 == 2
            else None
            for i in ids
        ]
        terms = [f"10.{i}/x" if i % 2 == 0 else f"paper {i}" for i in ids]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "link": pa.array(
                    [format_download_link(r) for r in raw], type=pa.string()
                ),
                "search_field": pa.array(
                    [search_field_for(t) for t in terms], type=pa.string()
                ),
            }
        )

    return _docs(sf_dir, columns=("doc_id",)).map_batches(
        build, batch_format="pyarrow"
    )




# --------------------------------------------------------------------------
# TPC-H Q3 (shipping priority) shaped three-table join: the classic
# filter -> big x big join -> pre-reduced aggregate -> top-k pipeline.
# --------------------------------------------------------------------------


@register(
    "orders_q3_priority",
    oracle="""
    SELECT l.l_orderkey,
           CAST(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                    * (100 - CAST(round(l.l_discount * 100) AS BIGINT)))
                AS BIGINT) AS revenue_c2,
           o.o_orderdate, o.o_orderpriority
    FROM customer c
    JOIN orders o ON c.c_custkey = o.o_custkey
    JOIN lineitem l ON l.l_orderkey = o.o_orderkey
    WHERE c.c_mktsegment = 'BUILDING'
      AND o.o_orderdate < DATE '1995-03-15'
      AND l.l_shipdate > DATE '1995-03-15'
    GROUP BY l.l_orderkey, o.o_orderdate, o.o_orderpriority
    ORDER BY revenue_c2 DESC, o.o_orderdate ASC, l.l_orderkey ASC
    LIMIT 10
    """,
)
def orders_q3_priority(sf_dir: str):
    """TPC-H Q3 shape (unshipped-revenue top-10) built scale-first:
    every filter is pushed into the read pass, lineitem pre-reduces to
    one (orderkey, revenue) partial per batch BEFORE any join, and both
    joins are the bucketed co-partition plan (customer x orders and
    orders x lineitem-partials are big x big at warehouse scale — no
    sf-proportional broadcast). Revenue stays integer-exact end to end:
    cents x (100 - discount basis points) avoids the float round()
    half-even/half-away divergence entirely. Final top-10 sorts a
    per-order table already reduced to qualifying orders."""
    import ray.data

    from sciscraper_ray.stages.relational import bucketed_hash_join

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).map_batches(
        lambda b: b.filter(pc.equal(b["c_mktsegment"], "BUILDING")).select(
            ["c_custkey"]
        ),
        batch_format="pyarrow",
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
    ).map_batches(
        lambda b: b.filter(
            pc.less(
                b["o_orderdate"],
                pa.scalar(np.datetime64("1995-03-15", "us"), pa.timestamp("us")),
            )
        ),
        batch_format="pyarrow",
    )
    qual_orders = bucketed_hash_join(
        orders, cust, left_on="o_custkey", right_on="c_custkey"
    ).map_batches(
        lambda b: b.select(["o_orderkey", "o_orderdate", "o_orderpriority"]),
        batch_format="pyarrow",
    )

    def li_partial(b: pa.Table) -> pa.Table:
        b = b.filter(
            pc.greater(
                b["l_shipdate"],
                pa.scalar(np.datetime64("1995-03-15", "us"), pa.timestamp("us")),
            )
        )
        cts = cents(b["l_extendedprice"])
        bp = cents(b["l_discount"])
        return pa.table(
            {
                "l_orderkey": b["l_orderkey"],
                "rev": pa.array(cts * (100 - bp), pa.int64()),
            }
        )

    li = group_count(
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
        ).map_batches(li_partial, batch_format="pyarrow"),
        "l_orderkey",
        {"rev": "revenue_c2"},
        count=None,
    )

    joined = bucketed_hash_join(
        li, qual_orders, left_on="l_orderkey", right_on="o_orderkey"
    )
    top = (
        joined.map_batches(
            lambda b: b.select(
                ["l_orderkey", "revenue_c2", "o_orderdate", "o_orderpriority"]
            ),
            batch_format="pyarrow",
        )
        .sort(
            key=["revenue_c2", "o_orderdate", "l_orderkey"],
            descending=[True, False, False],
        )
        .limit(10)
    )
    return top


# --------------------------------------------------------------------------
# Exact weighted median per group — the robust price point a pricing /
# inventory report quotes (median unit weighted by quantity moved).
# --------------------------------------------------------------------------


@register(
    "lineitem_weighted_median",
    oracle="""
    WITH w AS (
        SELECT l_returnflag AS flag, l_extendedprice AS price,
               sum(l_quantity) AS q
        FROM lineitem GROUP BY flag, price
    ), c AS (
        SELECT flag, price,
               sum(q) OVER (PARTITION BY flag ORDER BY price) AS cumq,
               sum(q) OVER (PARTITION BY flag) AS tot
        FROM w
    )
    SELECT flag, min(price) AS wmedian_price
    FROM c WHERE cumq * 2 >= tot GROUP BY flag
    """,
)
def lineitem_weighted_median(sf_dir: str):
    """Exact weighted (lower) median without a global sort: per-batch
    (flag, price) weight partials collapse duplicate prices first, the
    one exchange moves rows bounded by |flags| x |distinct prices| (a
    bounded price domain, not row count), and each flag's median is a
    vectorized sort + cumsum + first-crossing inside its group.
    Quantities are small integers in doubles, so every cumulative sum is
    exact and the crossing comparison is engine-identical."""
    import pandas as pd

    import ray.data

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_extendedprice", "l_quantity"],
    )

    def partial(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "flag": b["l_returnflag"],
                "price": b["l_extendedprice"],
                "q": b["l_quantity"],
            }
        )

    merged = group_count(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["flag", "price"],
        {"q": "q"},
        count=None,
    )

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("price")
        q = g["q"].to_numpy(np.float64)
        cum = np.cumsum(q)
        tot = cum[-1]
        i = int(np.argmax(cum * 2 >= tot))
        return pd.DataFrame(
            {
                "flag": [g["flag"].iloc[0]],
                "wmedian_price": [float(g["price"].iloc[i])],
            }
        )

    return merged.groupby("flag").map_groups(pick, batch_format="pandas")


# --------------------------------------------------------------------------
# Grouped feature correlation — Pearson r and OLS slope of price vs
# quantity per return flag, from streamed moment partials (the feature-
# screening pass a modeling pipeline runs before training).
# --------------------------------------------------------------------------


@register(
    "lineitem_price_qty_corr",
    oracle="""
    WITH m AS (
        SELECT l_returnflag AS flag, count(*) AS n,
               sum(l_quantity) AS sx, sum(l_extendedprice) AS sy,
               sum(l_quantity * l_extendedprice) AS sxy,
               sum(l_quantity * l_quantity) AS sxx,
               sum(l_extendedprice * l_extendedprice) AS syy
        FROM lineitem GROUP BY flag
    )
    SELECT flag, CAST(n AS BIGINT) AS n,
           round((n * sxy - sx * sy)
                 / sqrt((n * sxx - sx * sx) * (n * syy - sy * sy)), 6)
               AS pearson_r,
           round((n * sxy - sx * sy) / (n * sxx - sx * sx), 6) AS ols_slope
    FROM m
    """,
)
def lineitem_price_qty_corr(sf_dir: str):
    """Per-group Pearson r + OLS slope with a constant-size exchange:
    each batch emits one 7-tuple of moments per flag (|flags| rows per
    block regardless of row count), a tiny groupby merges them, and the
    closed forms evaluate identically on both engines under round(,6)."""
    import ray.data

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    )

    def moments(b: pa.Table) -> pa.Table:
        import pandas as pd

        q = b["l_quantity"].to_numpy(zero_copy_only=False).astype(np.float64)
        p = b["l_extendedprice"].to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        codes, uniq = pd.factorize(
            b["l_returnflag"].to_numpy(zero_copy_only=False), sort=True
        )
        def bc(w=None):
            return np.bincount(codes, weights=w, minlength=len(uniq))
        return pa.table(
            {
                "flag": pa.array(np.asarray(uniq)),
                "n_p": pa.array(bc().astype(np.int64)),
                "sx_p": pa.array(bc(q)),
                "sy_p": pa.array(bc(p)),
                "sxy_p": pa.array(bc(q * p)),
                "sxx_p": pa.array(bc(q * q)),
                "syy_p": pa.array(bc(p * p)),
            }
        )

    # the partial keeps its own float64 bincount sums so the bits match
    agg = group_count(
        ds.map_batches(moments, batch_format="pyarrow"),
        "flag",
        {f"{c}_p": c for c in ("n", "sx", "sy", "sxy", "sxx", "syy")},
        count=None,
    )

    def finish(b: pa.Table) -> pa.Table:
        n = b["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        sx = b["sx"].to_numpy(zero_copy_only=False)
        sy = b["sy"].to_numpy(zero_copy_only=False)
        sxy = b["sxy"].to_numpy(zero_copy_only=False)
        sxx = b["sxx"].to_numpy(zero_copy_only=False)
        syy = b["syy"].to_numpy(zero_copy_only=False)
        cov = n * sxy - sx * sy
        r = cov / np.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
        slope = cov / (n * sxx - sx * sx)
        return pa.table(
            {
                "flag": b["flag"],
                "n": pc.cast(b["n"], pa.int64()),
                "pearson_r": pa.array(np.round(r, 6), pa.float64()),
                "ols_slope": pa.array(np.round(slope, 6), pa.float64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


# --------------------------------------------------------------------------
# TPC-H Q13 shape: order-count-per-customer distribution (incl. the zero
# bucket). The classic "distribution of engagement" report.
# --------------------------------------------------------------------------


@register(
    "customer_order_dist",
    oracle="""
    WITH per AS (
        SELECT c.c_custkey, count(o.o_orderkey) AS c_count
        FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey
        GROUP BY c.c_custkey
    )
    SELECT c_count, count(*) AS custdist
    FROM per GROUP BY c_count
    ORDER BY custdist DESC, c_count DESC
    """,
)
def customer_order_dist(sf_dir: str):
    """TPC-H Q13 (customer order-count distribution) without the left
    join: orders pre-reduce per batch to (custkey, cnt) partials, ONE
    groupby-Sum bounds the exchange by customer cardinality, per-batch
    count histograms shrink that to |distinct c_count| rows (tens), and
    the zero-order bucket is arithmetic — total customers (metadata
    count, no data read) minus customers seen in orders. The full
    customer table never joins anything."""
    import ray.data

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"]
    )

    per = group_count(orders, "o_custkey", count="c_count")

    dist = (
        per.map_batches(
            lambda b: group_count_batch(b, ["c_count"], count="custdist"),
            batch_format="pyarrow",
        )
        .to_pandas()  # bounded: |distinct per-customer order counts| x blocks
        .groupby("c_count")["custdist"]
        .sum()
    )
    n_customers = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]
    ).count()
    zero = n_customers - int(dist.sum())
    counts = dict(dist)
    if zero > 0:
        counts[0] = counts.get(0, 0) + zero
    out = (
        pa.table(
            {
                "c_count": pa.array(list(counts), pa.int64()),
                "custdist": pa.array(
                    [int(v) for v in counts.values()], pa.int64()
                ),
            }
        )
        .sort_by([("custdist", "descending"), ("c_count", "descending")])
    )
    return out


# --------------------------------------------------------------------------
# TPC-H Q11 shape: parts whose traded value exceeds a fixed fraction of the
# global total — grouped aggregate filtered by a global scalar, all integer.
# --------------------------------------------------------------------------


def _revenue_by(sf_dir: str, key: str, alias: str):
    """Lineitem revenue per ``key`` as ``alias``, in exact integers: cents
    x (100 - discount basis points). Per-batch Arrow partials, then one
    groupby-Sum."""
    import ray.data

    def partial(b: pa.Table) -> pa.Table:
        rev = cents(b["l_extendedprice"]) * (100 - cents(b["l_discount"]))
        return pa.table({key: b[key], "rev": pa.array(rev, pa.int64())})

    return group_count(
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=[key, "l_extendedprice", "l_discount"],
        ).map_batches(partial, batch_format="pyarrow"),
        key,
        {"rev": alias},
        count=None,
    )


@register(
    "part_value_threshold",
    oracle="""
    WITH pv AS (
        SELECT l_partkey,
               sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                   * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                   AS value_c2
        FROM lineitem GROUP BY l_partkey
    ), tot AS (SELECT sum(value_c2) AS t FROM pv),
    np AS (SELECT count(*) AS n FROM part)
    SELECT l_partkey, CAST(value_c2 AS BIGINT) AS value_c2
    FROM pv, tot, np WHERE value_c2 * 2 * np.n > 3 * tot.t
    ORDER BY value_c2 DESC, l_partkey ASC
    LIMIT 100
    """,
)
def part_value_threshold(sf_dir: str):
    """TPC-H Q11 shape (value share above a global-fraction threshold):
    per-batch partials bound the one shuffle by part cardinality; the
    part-sized grouped table is materialized ONCE (bounded: |part|, not
    |lineitem|) so the global-total scalar and the threshold filter reuse
    it instead of re-running the groupby. Money stays integer
    (cents x (100-discount bp)); the threshold is scale-relative like
    Q11's 0.0001/SF — parts above 1.5x the mean value share — and the
    strict ``v * 2 * n_parts > 3 * total`` test is exact integer math on
    both engines (floored Python int threshold on the Ray side, BIGINT
    product on DuckDB's)."""
    import ray.data

    # bounded by |part|; materialized, reused by scalar + filter
    pv = _revenue_by(sf_dir, "l_partkey", "value_c2").materialize()
    total = int(pv.sum("value_c2"))
    n_parts = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey"]
    ).count()
    # scale-relative threshold (TPC-H Q11's 0.0001/SF): parts above
    # 1.5x the mean share. v*2n > 3t  <=>  v > (3t) // (2n)  (ints)
    thresh = (3 * total) // (2 * n_parts)

    return (
        pv.filter(
            lambda r: r["value_c2"] > thresh
        )
        .sort(key=["value_c2", "l_partkey"], descending=[True, False])
        .limit(100)
    )


# --------------------------------------------------------------------------
# TPC-H Q22 shape: idle high-balance customers (above the positive-balance
# mean, no orders) tallied per nation. Scalar subquery + anti-join + dim
# broadcast, with the mean comparison kept integer-exact.
# --------------------------------------------------------------------------


@register(
    "customer_idle_highvalue",
    oracle="""
    WITH pos AS (
        SELECT c_custkey, c_nationkey,
               CAST(round(c_acctbal * 100) AS BIGINT) AS bal_c
        FROM customer
    ), stats AS (
        SELECT sum(bal_c) AS s, count(*) AS n FROM pos WHERE bal_c > 0
    ), idle AS (
        SELECT p.* FROM pos p, stats
        WHERE p.bal_c * stats.n > stats.s
          AND NOT EXISTS (
              SELECT 1 FROM orders o WHERE o.o_custkey = p.c_custkey
                AND o.o_orderpriority = '1-URGENT')
    )
    SELECT n.n_name, count(*) AS numcust,
           CAST(sum(bal_c) AS BIGINT) AS totacctbal_c
    FROM idle JOIN nation n ON idle.c_nationkey = n.n_nationkey
    GROUP BY n.n_name
    """,
)
def customer_idle_highvalue(sf_dir: str):
    """TPC-H Q22 shape: customers above the positive-balance mean with no
    urgent-priority orders, tallied per nation. The mean test is exact
    integer cross-multiplication (bal_c * n > sum_c) — no float mean
    crosses engines. The anti-join broadcasts the distinct urgent-order
    custkeys (the priority filter is pushed into the scan, so the
    broadcast is the qualifying subset, bounded by customer cardinality;
    the >50M-key scale path is the bucketed co-partitioned anti-join,
    stages/relational.py:140). The nation dim (25 rows) rides inside the
    final partial as a plain dict lookup, and the one exchange is the
    25-row nation tally."""
    import ray
    import ray.data

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey", "c_acctbal"],
    )

    def bal_stats(b: pa.Table) -> pa.Table:
        bal = cents(b["c_acctbal"])
        pos = bal[bal > 0]
        return pa.table(
            {
                "s": pa.array([int(pos.sum())], pa.int64()),
                "n": pa.array([len(pos)], pa.int64()),
            }
        )

    # bounded: one scalar row per block
    st = cust.map_batches(bal_stats, batch_format="pyarrow").to_pandas()
    s_pos, n_pos = int(st["s"].sum()), int(st["n"].sum())

    ordered = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderpriority"],
    ).map_batches(
        lambda b: pa.table(
            {
                "k": pc.unique(
                    b.filter(
                        pc.equal(b["o_orderpriority"], "1-URGENT")
                    )["o_custkey"]
                )
            }
        ),
        batch_format="pyarrow",
        # bounded: broadcast semi-join key set (must fit to ray.put anyway)
    ).to_pandas()
    key_ref = ray.put(pa.array(ordered["k"].unique(), pa.int64()))

    nat = ray.data.read_parquet(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()  # bounded: 25-row dimension
    nat_ref = ray.put(dict(zip(nat["n_nationkey"], nat["n_name"])))

    class IdleTally:
        def __init__(self):
            self.keys = ray.get(key_ref)
            self.nations = ray.get(nat_ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            bal = cents(b["c_acctbal"])
            rich = bal * n_pos > s_pos
            no_orders = pc.invert(
                pc.is_in(b["c_custkey"], value_set=self.keys)
            ).to_numpy(zero_copy_only=False)
            keep = rich & no_orders
            nk = b["c_nationkey"].to_numpy(zero_copy_only=False)[keep]
            names = np.array(
                [self.nations[int(k)] for k in nk], dtype=object
            )
            t = pa.table(
                {
                    "n_name": pa.array(names, pa.string()),
                    "bal": pa.array(bal[keep], pa.int64()),
                }
            )
            return group_count_batch(t, ["n_name"], {"bal": "totacctbal_c"}, count="numcust")

    return group_count(
        cust.map_batches(IdleTally, batch_format="pyarrow", concurrency=(1, 4)),
        "n_name",
        {"numcust": "numcust", "totacctbal_c": "totacctbal_c"},
        count=None,
    )


# --------------------------------------------------------------------------
# GROUPING SETS / CUBE: multi-grain revenue report from ONE finest-grain
# aggregate — the supersets are derived from the (|priorities| x |statuses|)
# cell table, never from a second scan.
# --------------------------------------------------------------------------


@register(
    "orders_grouping_sets",
    oracle="""
    SELECT coalesce(o_orderpriority, 'ALL') AS priority,
           coalesce(o_orderstatus, 'ALL') AS status,
           CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
               AS total_c,
           count(*) AS cnt
    FROM orders GROUP BY CUBE (o_orderpriority, o_orderstatus)
    """,
)
def orders_grouping_sets(sf_dir: str):
    """CUBE(priority, status) from one pass: per-batch partials reduce to
    finest-grain cells, one tiny groupby merges them (<= 15 cells at any
    scale — both dims are enum-like), and the three coarser grains are
    pure arithmetic over that cell table on the driver. A second scan
    per grouping set (what a naive UNION ALL plan does) would read the
    fact table four times."""
    import pandas as pd
    import ray.data

    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderpriority", "o_orderstatus", "o_totalprice"],
    )

    def partial(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "priority": b["o_orderpriority"],
                "status": b["o_orderstatus"],
                "c": pa.array(cents(b["o_totalprice"])),
            }
        )

    cells = group_count(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["priority", "status"],
        {"c": "total_c"},
    ).to_pandas()  # bounded: |priorities| x |statuses| cells
    frames = [cells]
    for keys in (["priority"], ["status"], []):
        if keys:
            g = cells.groupby(keys, as_index=False)[["total_c", "cnt"]].sum()
        else:
            g = pd.DataFrame(
                {"total_c": [cells["total_c"].sum()], "cnt": [cells["cnt"].sum()]}
            )
        for col in ("priority", "status"):
            if col not in g.columns:
                g[col] = "ALL"
        frames.append(g[["priority", "status", "total_c", "cnt"]])
    out = pd.concat(frames, ignore_index=True)
    out["total_c"] = out["total_c"].astype(np.int64)
    out["cnt"] = out["cnt"].astype(np.int64)
    return pa.Table.from_pandas(out, preserve_index=False)


# --------------------------------------------------------------------------
# Market-basket pair mining: co-purchased part pairs by support — the
# frequent-itemset (k=2) primitive, built on bucketed pair expansion.
# --------------------------------------------------------------------------


@register(
    "basket_part_pairs",
    oracle="""
    WITH d AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem)
    SELECT a.l_partkey AS part_a, b.l_partkey AS part_b,
           count(*) AS support
    FROM d a JOIN d b
      ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
    GROUP BY part_a, part_b
    ORDER BY support DESC, part_a ASC, part_b ASC
    LIMIT 50
    """,
)
def basket_part_pairs(sf_dir: str, num_buckets: int = 16):
    """Frequent-itemset pair mining (k=2 market basket): top co-purchased
    part pairs by order support. Distinct (order, part) via one two-key
    groupby; pair expansion runs bucket-locally (hash(orderkey) % B
    groups — Python overhead bounded by B, the expansion itself is the
    vectorized lexsort + segment-offset kernel shared with the wedge
    join in node_clustering_coeff); pair counts pre-reduce per batch
    before the final (pair -> support) groupby. Basket width bounds the
    blow-up (sum of per-order C(w,2)), the classic guarantee that makes
    pair mining tractable at warehouse scale."""
    import ray.data

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    )

    def dedup_partial(b: pa.Table) -> pa.Table:
        g = b.group_by(["l_orderkey", "l_partkey"]).aggregate([])
        return g

    # Per-batch distinct only — the global (order, part) dedup happens
    # vectorized INSIDE the bucket kernel (one mask after the lexsort it
    # already does). The previous global composite-key groupby.count()
    # paid the documented ~100us/group sort-aggregate overhead on ~|li|
    # mostly-unique keys and timed out the sf0.1 scale-stress sweep.
    distinct = (
        li.map_batches(dedup_partial, batch_format="pyarrow")
        .map_batches(
            lambda b: pa.table(
                {
                    "o": b["l_orderkey"],
                    "p": b["l_partkey"],
                    "bucket": pa.array(
                        (
                            b["l_orderkey"].to_numpy(zero_copy_only=False)
                            * 0x9E3779B9
                            & 0x7FFFFFFF
                        )
                        % num_buckets,
                        pa.int64(),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
    )

    def pairs(g):
        import pandas as pd

        o = g["o"].to_numpy()
        p = g["p"].to_numpy()
        order = np.lexsort((p, o))
        o, p = o[order], p[order]
        uniq = np.r_[True, (o[1:] != o[:-1]) | (p[1:] != p[:-1])]
        o, p = o[uniq], p[uniq]  # global (order, part) distinct, in-bucket
        starts = np.flatnonzero(np.r_[True, o[1:] != o[:-1]])
        ends = np.r_[starts[1:], len(o)]
        seg_end = np.repeat(ends, ends - starts)
        pos = np.arange(len(o))
        reps = seg_end - pos - 1
        total = int(reps.sum())
        if total == 0:
            return pd.DataFrame(
                {"part_a": [], "part_b": [], "c": []}
            ).astype(np.int64)
        left = np.repeat(pos, reps)
        offs = np.concatenate(([0], np.cumsum(reps)[:-1]))
        right = left + (np.arange(total) - np.repeat(offs, reps)) + 1
        out = (
            pd.DataFrame({"part_a": p[left], "part_b": p[right]})
            .value_counts()
            .rename("c")
            .reset_index()
        )
        return out

    pair_parts = distinct.groupby("bucket").map_groups(
        pairs, batch_format="pandas"
    )
    # Final pair reduction through the shared two-plan policy: the pair
    # table (sum of per-order C(w,2), basket-width-bounded) merges on the
    # driver below the 50M bound — one pandas groupby + partial sort —
    # and flips to the distributed sort-aggregate above it (the groupby
    # alone cost ~100us x |pairs| and carried the sf0.1 timeout).
    from sciscraper_ray.pipelines.plan import driver_frame, resolve_plan

    mode, pair_parts = resolve_plan(pair_parts, "auto")
    if mode == "driver":
        import pandas as pd

        df = driver_frame(pair_parts, what="basket_part_pairs")
        agg = df.groupby(["part_a", "part_b"], as_index=False)["c"].sum()
        agg = agg.rename(columns={"c": "support"})
        return (
            agg.sort_values(
                ["support", "part_a", "part_b"],
                ascending=[False, True, True],
            )
            .head(50)
            .reset_index(drop=True)
        )
    return (
        group_count(pair_parts, ["part_a", "part_b"], {"c": "support"}, count=None)
        .sort(
            key=["support", "part_a", "part_b"],
            descending=[True, False, False],
        )
        .limit(50)
    )


# --------------------------------------------------------------------------
# Monthly cumulative revenue: time-series rollup + running total over the
# tiny month table.
# --------------------------------------------------------------------------


@register(
    "orders_monthly_cumsum",
    oracle="""
    WITH m AS (
        SELECT CAST(year(o_orderdate) * 100 + month(o_orderdate) AS BIGINT)
                   AS month,
               CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                    AS BIGINT) AS rev_c,
               count(*) AS n_orders
        FROM orders GROUP BY month
    )
    SELECT month, rev_c, n_orders,
           CAST(sum(rev_c) OVER (ORDER BY month
               ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
               AS BIGINT) AS cum_rev_c
    FROM m
    """,
)
def orders_monthly_cumsum(sf_dir: str):
    """Month-over-month revenue with running total: per-batch partials
    reduce to (yyyymm, cents, count) rows, one tiny groupby merges them
    (months are calendar-bounded regardless of data size), and the
    cumulative sum is driver arithmetic over that bounded table —
    a global windowed cumsum over raw rows would be a full sort for a
    quantity the month table already determines."""
    import ray.data

    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderdate", "o_totalprice"]
    )

    def partial(b: pa.Table) -> pa.Table:
        d = b["o_orderdate"]
        month = pc.add(
            pc.multiply(pc.year(d).cast(pa.int64()), 100),
            pc.month(d).cast(pa.int64()),
        )
        return pa.table({"month": month, "c": pa.array(cents(b["o_totalprice"]))})

    m = (
        group_count(
            ds.map_batches(partial, batch_format="pyarrow"),
            "month",
            {"c": "rev_c"},
            count="n_orders",
        )
        .to_pandas()  # bounded: one row per calendar month
        .sort_values("month", kind="stable")
    )
    m["cum_rev_c"] = m["rev_c"].cumsum()
    return pa.Table.from_pandas(m, preserve_index=False)


# --------------------------------------------------------------------------
# TPC-H Q14 shape: promo revenue share — a dimension-attribute predicate
# pushed through a fact join, all integer until one final ratio.
# --------------------------------------------------------------------------


@register(
    "promo_revenue_share",
    oracle="""
    WITH j AS (
        SELECT p.p_type,
               CAST(round(l.l_extendedprice * 100) AS BIGINT)
                   * (100 - CAST(round(l.l_discount * 100) AS BIGINT))
                   AS rev_c2
        FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
    )
    SELECT CAST(sum(CASE WHEN p_type = 'PROMO' THEN rev_c2 ELSE 0 END)
                AS BIGINT) AS promo_rev_c2,
           CAST(sum(rev_c2) AS BIGINT) AS total_rev_c2,
           round(100.0 * sum(CASE WHEN p_type = 'PROMO' THEN rev_c2
                                  ELSE 0 END) / sum(rev_c2), 6)
               AS promo_pct
    FROM j
    """,
)
def promo_revenue_share(sf_dir: str):
    """TPC-H Q14 shape (promo revenue percentage). The join is never
    executed as a join: part's (partkey -> is_promo) projection is ONE
    BIT per part, broadcast as a packed int64 bitmap keyed by partkey
    (40M parts = 5 MB — broadcast-safe far past the string-dimension
    limit); each lineitem batch then reduces to a single (promo, total)
    integer pair and the driver merges constant-size partials. Money is
    integer cents x basis points end to end; the one float op is the
    final mirrored ratio."""
    import ray
    import ray.data

    import pyarrow.parquet as pq

    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
    )
    keys = part["p_partkey"].to_numpy(zero_copy_only=False)
    promo = pc.equal(part["p_type"], "PROMO").to_numpy(zero_copy_only=False)
    bitmap = np.zeros((int(keys.max()) >> 6) + 1, np.uint64)
    pk = keys[promo].astype(np.uint64)
    np.bitwise_or.at(bitmap, (pk >> np.uint64(6)).astype(np.int64),
                     np.uint64(1) << (pk & np.uint64(63)))
    bitmap_ref = ray.put(bitmap)

    class Partial:
        def __init__(self):
            self.bitmap = ray.get(bitmap_ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            pkey = b["l_partkey"].to_numpy(zero_copy_only=False)
            cts = cents(b["l_extendedprice"])
            bp = cents(b["l_discount"])
            rev = cts * (100 - bp)
            pk = pkey.astype(np.uint64)
            is_promo = (
                self.bitmap[(pk >> np.uint64(6)).astype(np.int64)]
                >> (pk & np.uint64(63))
            ) & np.uint64(1)
            return pa.table(
                {
                    "promo": pa.array(
                        [int(rev[is_promo.astype(bool)].sum())], pa.int64()
                    ),
                    "total": pa.array([int(rev.sum())], pa.int64()),
                }
            )

    parts = (
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_partkey", "l_extendedprice", "l_discount"],
        )
        .map_batches(Partial, batch_format="pyarrow", concurrency=(1, 4))
        .to_pandas()  # bounded: one scalar row per block
        .sum()
    )
    promo_rev, total_rev = int(parts["promo"]), int(parts["total"])
    return pa.table(
        {
            "promo_rev_c2": pa.array([promo_rev], pa.int64()),
            "total_rev_c2": pa.array([total_rev], pa.int64()),
            "promo_pct": pa.array(
                [round(100.0 * promo_rev / total_rev, 6)], pa.float64()
            ),
        }
    )


# --------------------------------------------------------------------------
# Grouped top-k over a dimension join: the 3 highest-revenue suppliers per
# nation — rank-within-group after a bounded supplier-grain aggregate.
# --------------------------------------------------------------------------


@register(
    "top_suppliers_by_nation",
    oracle="""
    WITH rev AS (
        SELECT l_suppkey,
               CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                   * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                   AS BIGINT) AS rev_c2
        FROM lineitem GROUP BY l_suppkey
    ), ranked AS (
        SELECT n.n_name, s.s_name, r.rev_c2,
               row_number() OVER (
                   PARTITION BY n.n_name
                   ORDER BY r.rev_c2 DESC, s.s_suppkey ASC) AS rnk
        FROM rev r
        JOIN supplier s ON s.s_suppkey = r.l_suppkey
        JOIN nation n ON n.n_nationkey = s.s_nationkey
    )
    SELECT n_name, s_name, rev_c2, CAST(rnk AS BIGINT) AS rnk
    FROM ranked WHERE rnk <= 3
    """,
)
def top_suppliers_by_nation(sf_dir: str):
    """Per-nation supplier leaderboard: lineitem pre-reduces to
    (suppkey, revenue) partials per batch, one supplier-bounded
    groupby-Sum, then the supplier->nation dim join and the top-3 take
    run on the supplier-grain table (supplier is the 10x-smaller dim —
    driver-merged here under the same row-bound rule orders_by_region
    uses; past it, bucketed join + per-nation heap partials). Revenue is
    integer cents x basis points; rank ties break on suppkey."""
    import pyarrow.parquet as pq

    rev = _revenue_by(sf_dir, "l_suppkey", "rev_c2").to_pandas()  # bounded: suppliers
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_name", "s_nationkey"],
    ).to_pandas()  # bounded: supplier dimension (small side)
    nat = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()  # bounded: 25-row dimension
    j = rev.merge(supp, left_on="l_suppkey", right_on="s_suppkey").merge(
        nat, left_on="s_nationkey", right_on="n_nationkey"
    )
    j = j.sort_values(
        ["n_name", "rev_c2", "s_suppkey"], ascending=[True, False, True]
    )
    j["rnk"] = j.groupby("n_name").cumcount() + 1
    out = j[j["rnk"] <= 3][["n_name", "s_name", "rev_c2", "rnk"]]
    out["rnk"] = out["rnk"].astype(np.int64)
    return pa.Table.from_pandas(out.reset_index(drop=True), preserve_index=False)


# --------------------------------------------------------------------------
# TPC-H Q10/Q16/Q17/Q18 shapes — the classic multi-join reporting family,
# each built on the bucketed co-partition join (no sf-proportional
# broadcasts) with integer-exact money (cents x basis points; see
# orders_q3_priority for the float-rounding rationale).
# --------------------------------------------------------------------------


@register(
    "returned_revenue_topk",
    oracle="""
    SELECT c_custkey, c_name, n_name, c_acctbal,
           CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                    * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                AS BIGINT) AS revenue_c2
    FROM lineitem
    JOIN orders   ON l_orderkey = o_orderkey
    JOIN customer ON o_custkey = c_custkey
    JOIN nation   ON c_nationkey = n_nationkey
    WHERE l_returnflag = 'R'
    GROUP BY c_custkey, c_name, n_name, c_acctbal
    ORDER BY revenue_c2 DESC, c_custkey ASC
    LIMIT 20
    """,
)
def returned_revenue_topk(sf_dir: str):
    """TPC-H Q10 shape (returned-item reporting): which customers drove
    the most revenue on returned lines. Scale plan: the returnflag filter
    and the per-order revenue partial both run inside the lineitem read
    pass, so the first bucketed join ships one row per qualifying order,
    not one per line; the second bucketed join co-partitions the per-
    customer aggregate with the customer table (both fact-sized — no
    broadcast); only the 25-row nation dim is broadcast. The final top-20
    sorts a per-customer table already reduced by two aggregations."""
    import ray
    import ray.data

    from sciscraper_ray.stages.relational import BroadcastLookup, bucketed_hash_join

    def li_partial(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b["l_returnflag"], "R"))
        rev = cents(b["l_extendedprice"]) * (100 - cents(b["l_discount"]))
        return pa.table({"l_orderkey": b["l_orderkey"], "rev": pa.array(rev, pa.int64())})

    li = group_count(
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"],
        ).map_batches(li_partial, batch_format="pyarrow"),
        "l_orderkey",
        {"rev": "rev"},
        count=None,
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )
    per_cust = group_count(
        bucketed_hash_join(li, orders, left_on="l_orderkey", right_on="o_orderkey"),
        "o_custkey",
        {"rev": "revenue_c2"},
        count=None,
    )
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_acctbal", "c_nationkey"],
    )
    joined = bucketed_hash_join(
        per_cust, cust, left_on="o_custkey", right_on="c_custkey"
    )

    import pyarrow.parquet as pq

    nat = (
        pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
        .to_pandas()  # bounded: 25-row dimension
        .set_index("n_nationkey")
    )
    nat_ref = ray.put(nat)

    def finish(b: pa.Table) -> pa.Table:
        b = BroadcastLookup(nat_ref, on="c_nationkey")(b)
        return b.select(["c_custkey", "c_name", "n_name", "c_acctbal", "revenue_c2"])

    return (
        joined.map_batches(finish, batch_format="pyarrow")
        .sort(key=["revenue_c2", "c_custkey"], descending=[True, False])
        .limit(20)
    )


@register(
    "small_qty_revenue",
    oracle="""
    WITH pq AS (
        SELECT l_partkey,
               CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS s,
               count(*) AS c
        FROM lineitem GROUP BY l_partkey
    )
    SELECT CAST(count(*) AS BIGINT) AS n_small,
           CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT)
               AS revenue_cents
    FROM lineitem JOIN pq USING (l_partkey)
    WHERE CAST(round(l_quantity) AS BIGINT) * 5 * c < s
    """,
)
def small_qty_revenue(sf_dir: str):
    """TPC-H Q17 shape (small-quantity-order revenue): lines whose
    quantity is below 20% of their part's average. The correlated
    per-part average is a two-phase aggregate (per-batch Arrow partials,
    then a partkey groupby whose output is part-cardinality, NOT
    line-cardinality); it rejoins the line stream through the bucketed
    co-partition join, so nothing sf-proportional is broadcast. The
    20%-of-average predicate is evaluated in integers
    (qty * 5 * cnt < sum_qty) — no float-division boundary to diverge
    from the oracle at any scale."""
    import ray.data

    from sciscraper_ray.stages.relational import bucketed_hash_join

    def part_partial(b: pa.Table) -> pa.Table:
        qty = np.round(b["l_quantity"].to_numpy(zero_copy_only=False)).astype(
            np.int64
        )
        return pa.table({"pk": b["l_partkey"], "q": pa.array(qty, pa.int64())})

    li_cols = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice"],
    )
    per_part = group_count(
        li_cols.map_batches(part_partial, batch_format="pyarrow"), "pk", {"q": "s"}, count="c"
    )

    lines = li_cols.map_batches(
        lambda b: pa.table(
            {
                "l_partkey": b["l_partkey"],
                "qty": pa.array(
                    np.round(b["l_quantity"].to_numpy(zero_copy_only=False)).astype(
                        np.int64
                    )
                ),
                "cents": pa.array(cents(b["l_extendedprice"])),
            }
        ),
        batch_format="pyarrow",
    )
    joined = bucketed_hash_join(
        lines, per_part, left_on="l_partkey", right_on="pk"
    )

    def small_partial(b: pa.Table) -> pa.Table:
        qty = b["qty"].to_numpy(zero_copy_only=False)
        s = b["s"].to_numpy(zero_copy_only=False)
        c = b["c"].to_numpy(zero_copy_only=False)
        keep = qty * 5 * c < s
        cents = b["cents"].to_numpy(zero_copy_only=False)[keep]
        return pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "n_small": pa.array([int(keep.sum())], pa.int64()),
                "revenue_cents": pa.array([int(cents.sum())], pa.int64()),
            }
        )

    agg = group_count(
        joined.map_batches(small_partial, batch_format="pyarrow"),
        "k",
        {"n_small": "n_small", "revenue_cents": "revenue_cents"},
        count=None,
    )
    return agg.map_batches(
        lambda b: b.select(["n_small", "revenue_cents"]), batch_format="pyarrow"
    )


@register(
    "large_order_customers",
    oracle="""
    SELECT c_name, c_custkey, o_orderkey, o_orderdate,
           CAST(round(o_totalprice * 100) AS BIGINT) AS total_cents,
           CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty
    FROM customer
    JOIN orders   ON c_custkey = o_custkey
    JOIN lineitem ON o_orderkey = l_orderkey
    GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
    HAVING sum(CAST(round(l_quantity) AS BIGINT)) > 250
    ORDER BY sum_qty DESC, o_orderkey ASC
    LIMIT 100
    """,
)
def large_order_customers(sf_dir: str):
    """TPC-H Q18 shape (large-volume customers): orders whose total line
    quantity exceeds 250 units (the fixture's per-order p99 is ~260, so
    the filter is scale-stable — per-order line counts don't grow with
    sf). The HAVING runs as a filter on the per-order quantity aggregate
    BEFORE any join, so both bucketed joins (orders, then customer) ship
    only the ~1% qualifying orders. Quantities are summed as integers."""
    import ray.data

    from sciscraper_ray.stages.relational import bucketed_hash_join

    def qty_partial(b: pa.Table) -> pa.Table:
        qty = np.round(b["l_quantity"].to_numpy(zero_copy_only=False)).astype(
            np.int64
        )
        return pa.table({"l_orderkey": b["l_orderkey"], "q": pa.array(qty, pa.int64())})

    big = (
        group_count(
            ray.data.read_parquet(
                f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_quantity"]
            ).map_batches(qty_partial, batch_format="pyarrow"),
            "l_orderkey",
            {"q": "sum_qty"},
            count=None,
        )
        .map_batches(
            lambda b: b.filter(pc.greater(b["sum_qty"], 250)),
            batch_format="pyarrow",
        )
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"],
    ).map_batches(
        lambda b: pa.table(
            {
                "o_orderkey": b["o_orderkey"],
                "o_custkey": b["o_custkey"],
                "o_orderdate": b["o_orderdate"],
                "total_cents": pa.array(cents(b["o_totalprice"])),
            }
        ),
        batch_format="pyarrow",
    )
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )
    j1 = bucketed_hash_join(big, orders, left_on="l_orderkey", right_on="o_orderkey")
    j2 = bucketed_hash_join(j1, cust, left_on="o_custkey", right_on="c_custkey")
    return (
        j2.map_batches(
            lambda b: b.select(
                [
                    "c_name",
                    "c_custkey",
                    "o_orderkey",
                    "o_orderdate",
                    "total_cents",
                    "sum_qty",
                ]
            ),
            batch_format="pyarrow",
        )
        .sort(key=["sum_qty", "o_orderkey"], descending=[True, False])
        .limit(100)
    )


@register(
    "brand_supplier_counts",
    oracle="""
    SELECT p_brand, p_size,
           CAST(count(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
    FROM (SELECT DISTINCT l_partkey, l_suppkey FROM lineitem) li
    JOIN part ON l_partkey = p_partkey
    GROUP BY p_brand, p_size
    """,
)
def brand_supplier_counts(sf_dir: str):
    """TPC-H Q16 shape (parts/supplier relationship) without a partsupp
    table: distinct (part, supplier) pairs observed in lineitem, counted
    per brand/size. Two bounded exchanges: per-batch Arrow distinct
    partials collapse the line stream before the pair groupby (output is
    |part x supp| pairs, not lines), and the second distinct runs on
    (brand, size, suppkey) — already pair-bounded. The part attribute
    lookup broadcasts only (p_partkey, p_brand, p_size); at warehouse
    scale where part outgrows a broadcast this lookup flips to the same
    bucketed join used everywhere else (see orders_by_region's auto
    plan)."""
    import pyarrow.parquet as pq
    import ray
    import ray.data

    from sciscraper_ray.stages.relational import BroadcastLookup

    pairs = group_count(
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
        ),
        ["l_partkey", "l_suppkey"],
    )

    part = (
        pq.read_table(
            f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand", "p_size"]
        )
        .to_pandas()  # bounded: part dimension (broadcast side)
        .set_index("p_partkey")
    )
    part_ref = ray.put(part)

    def attr_partial(b: pa.Table) -> pa.Table:
        b = pa.table({"p_partkey": b["l_partkey"], "l_suppkey": b["l_suppkey"]})
        b = BroadcastLookup(part_ref, on="p_partkey")(b)
        return pa.table(
            {
                "p_brand": b["p_brand"],
                "p_size": b["p_size"],
                "l_suppkey": b["l_suppkey"],
            }
        )

    triple = group_count(
        pairs.map_batches(attr_partial, batch_format="pyarrow"),
        ["p_brand", "p_size", "l_suppkey"],
    )
    return group_count(triple, ["p_brand", "p_size"], count="supplier_cnt")


@register(
    "volume_shipping_pairs",
    oracle="""
    SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
           CAST(year(l_shipdate) AS BIGINT) AS l_year,
           CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                    * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                AS BIGINT) AS revenue_c2
    FROM lineitem
    JOIN supplier ON l_suppkey = s_suppkey
    JOIN nation n1 ON s_nationkey = n1.n_nationkey
    JOIN orders   ON l_orderkey = o_orderkey
    JOIN customer ON o_custkey = c_custkey
    JOIN nation n2 ON c_nationkey = n2.n_nationkey
    GROUP BY supp_nation, cust_nation, l_year
    """,
)
def volume_shipping_pairs(sf_dir: str):
    """TPC-H Q7 shape (volume shipping): revenue between every
    (supplier nation, customer nation) pair by ship year. The widest
    join graph in the registry — five tables — planned so line
    granularity crosses at most one exchange: lines pre-reduce per batch
    to (orderkey, supp_nation, year) partials (supplier nation resolved
    through the narrow suppkey→nation keymap broadcast — 16 bytes/row,
    bucketed-join flip at warehouse scale like orders_by_region), the
    partials co-partition with orders then customer through the bucketed
    join, and the output groupby is nation² × years — constant-bounded
    regardless of sf."""
    import pyarrow.parquet as pq
    import ray
    import ray.data

    from sciscraper_ray.stages.relational import BroadcastLookup, bucketed_hash_join

    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).to_pandas()  # bounded: supplier dimension (broadcast side)
    nat = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()  # bounded: 25-row dimension
    supp2nat = (
        supp.merge(nat, left_on="s_nationkey", right_on="n_nationkey")
        .set_index("s_suppkey")[["n_name"]]
        .rename(columns={"n_name": "supp_nation"})
    )
    supp_ref = ray.put(supp2nat)
    cust_nat_ref = ray.put(
        nat.rename(
            columns={"n_nationkey": "c_nationkey", "n_name": "cust_nation"}
        ).set_index("c_nationkey")
    )

    def li_partial(b: pa.Table) -> pa.Table:
        rev = cents(b["l_extendedprice"]) * (100 - cents(b["l_discount"]))
        t = pa.table(
            {
                "s_suppkey": b["l_suppkey"],
                "l_orderkey": b["l_orderkey"],
                "l_year": pc.cast(pc.year(b["l_shipdate"]), pa.int64()),
                "rev": pa.array(rev, pa.int64()),
            }
        )
        t = BroadcastLookup(supp_ref, on="s_suppkey")(t)
        return (
            t.select(["l_orderkey", "supp_nation", "l_year", "rev"])
            .group_by(["l_orderkey", "supp_nation", "l_year"])
            .aggregate([("rev", "sum")])
            .rename_columns(["l_orderkey", "supp_nation", "l_year", "rev"])
        )

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_orderkey",
            "l_suppkey",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
        ],
    ).map_batches(li_partial, batch_format="pyarrow")

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )
    j1 = bucketed_hash_join(li, orders, left_on="l_orderkey", right_on="o_orderkey")
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    j2 = bucketed_hash_join(j1, cust, left_on="o_custkey", right_on="c_custkey")

    return group_count(
        j2.map_batches(BroadcastLookup(cust_nat_ref, on="c_nationkey"), batch_format="pyarrow"),
        ["supp_nation", "cust_nation", "l_year"],
        {"rev": "revenue_c2"},
        count=None,
    )


@register(
    "disjunctive_revenue",
    oracle="""
    SELECT CAST(count(*) AS BIGINT) AS n_lines,
           CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                    * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                AS BIGINT) AS revenue_c2
    FROM lineitem JOIN part ON l_partkey = p_partkey
    WHERE (p_brand = 'Brand#12' AND l_quantity BETWEEN 1 AND 15
           AND p_size BETWEEN 1 AND 25)
       OR (p_brand = 'Brand#23' AND l_quantity BETWEEN 10 AND 25
           AND p_size BETWEEN 1 AND 30)
       OR (p_brand = 'Brand#5' AND l_quantity BETWEEN 20 AND 40
           AND p_size BETWEEN 1 AND 40)
    """,
)
def disjunctive_revenue(sf_dir: str):
    """TPC-H Q19 shape (discounted revenue under an OR-of-ANDs
    predicate): the disjunction mixes line attributes (quantity) with
    part attributes (brand, size), so it can't be pushed into either
    read alone. Plan: broadcast the narrow part attribute columns once
    (brand dictionary + int8-able size; bucketed-join flip past the
    broadcast row limit), evaluate the whole disjunction vectorized per
    batch with numpy boolean algebra, and reduce to one global
    (count, revenue) partial per batch — no shuffle at all except the
    single-row final merge."""
    import pyarrow.parquet as pq
    import ray
    import ray.data

    from sciscraper_ray.stages.relational import BroadcastLookup

    part = (
        pq.read_table(
            f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand", "p_size"]
        )
        .to_pandas()  # bounded: part dimension (broadcast side)
        .set_index("p_partkey")
    )
    part_ref = ray.put(part)

    _CLAUSES = (
        ("Brand#12", 1, 15, 1, 25),
        ("Brand#23", 10, 25, 1, 30),
        ("Brand#5", 20, 40, 1, 40),
    )

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "p_partkey": b["l_partkey"],
                "qty": b["l_quantity"],
                "cents": pa.array(cents(b["l_extendedprice"])),
                "bp": pa.array(cents(b["l_discount"])),
            }
        )
        t = BroadcastLookup(part_ref, on="p_partkey")(t)
        qty = t["qty"].to_numpy(zero_copy_only=False)
        size = t["p_size"].to_numpy(zero_copy_only=False)
        brand = np.asarray(t["p_brand"].to_pylist())
        keep = np.zeros(len(qty), bool)
        for br, qlo, qhi, slo, shi in _CLAUSES:
            keep |= (
                (brand == br)
                & (qty >= qlo)
                & (qty <= qhi)
                & (size >= slo)
                & (size <= shi)
            )
        rev = (
            t["cents"].to_numpy(zero_copy_only=False)[keep]
            * (100 - t["bp"].to_numpy(zero_copy_only=False)[keep])
        )
        return pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "n_lines": pa.array([int(keep.sum())], pa.int64()),
                "revenue_c2": pa.array([int(rev.sum())], pa.int64()),
            }
        )

    return group_count(
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
        ).map_batches(partial, batch_format="pyarrow"),
        "k",
        {"n_lines": "n_lines", "revenue_c2": "revenue_c2"},
        count=None,
    ).drop_columns(["k"])


@register(
    "cheapest_supplier_per_part",
    oracle="""
    WITH c AS (
        SELECT l_partkey, l_suppkey,
               CAST(round(l_extendedprice * 100) AS BIGINT) AS cents
        FROM lineitem
    ), m AS (
        SELECT l_partkey, min(cents) AS mc FROM c GROUP BY l_partkey
    )
    SELECT c.l_partkey, m.mc AS min_cents,
           CAST(min(c.l_suppkey) AS BIGINT) AS best_suppkey
    FROM c JOIN m ON c.l_partkey = m.l_partkey AND c.cents = m.mc
    GROUP BY c.l_partkey, m.mc
    """,
)
def cheapest_supplier_per_part(sf_dir: str):
    """TPC-H Q2 shape without partsupp: distributed ARGMIN — for every
    part, the lowest observed line price and the lowest supplier key
    achieving it. Argmin doesn't decompose as a single aggregate without
    a fused key (cents*2^k + suppkey overflows once suppkey outgrows k
    bits), so it runs as the honest two-pass plan: (1) per-part Min over
    per-batch Arrow partials (output part-bounded); (2) the line stream
    rejoins its part's min through the bucketed co-partition join,
    filters to price-achieving lines (integer equality, no float
    boundary), and takes Min(suppkey) per part. Both exchanges are
    part-bounded; lines never shuffle."""
    import ray.data

    from sciscraper_ray.stages.relational import bucketed_hash_join

    lines = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice"],
    ).map_batches(
        lambda b: pa.table(
            {
                "l_partkey": b["l_partkey"],
                "l_suppkey": b["l_suppkey"],
                "cents": pa.array(cents(b["l_extendedprice"])),
            }
        ),
        batch_format="pyarrow",
    )

    per_part = group_count(
        lines.rename_columns({"l_partkey": "pk"}),
        "pk",
        count=None,
        aggs={"mc": ("cents", "min")},
    )
    joined = bucketed_hash_join(lines, per_part, left_on="l_partkey", right_on="pk")

    def argmin_partial(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b["cents"], b["mc"]))
        return pa.table(
            {
                "l_partkey": b["l_partkey"],
                "min_cents": b["mc"],
                "l_suppkey": b["l_suppkey"],
            }
        )

    return group_count(
        joined.map_batches(argmin_partial, batch_format="pyarrow"),
        ["l_partkey", "min_cents"],
        count=None,
        aggs={"best_suppkey": ("l_suppkey", "min")},
    )


@register(
    "late_shipment_trend",
    oracle="""
    WITH ms AS (
        SELECT l_orderkey, max(l_shipdate) AS m FROM lineitem
        GROUP BY l_orderkey
    )
    SELECT o_orderpriority,
           CAST(year(o_orderdate) AS BIGINT) AS yr,
           CAST(quarter(o_orderdate) AS BIGINT) AS qtr,
           CAST(count(*) AS BIGINT) AS n_late
    FROM orders JOIN ms ON o_orderkey = l_orderkey
    WHERE m > o_orderdate + INTERVAL 60 DAY
    GROUP BY o_orderpriority, yr, qtr
    """,
)
def late_shipment_trend(sf_dir: str):
    """TPC-H Q4 shape (order-priority checking) adapted to this schema:
    orders whose slowest line shipped more than 60 days after the order
    date, tallied per (priority, year, quarter). The EXISTS semi-join
    runs as a per-order Max aggregate (per-batch Arrow partials, then an
    orderkey groupby — one row per order, not per line) followed by the
    bucketed co-partition join with orders; the lateness predicate is an
    exact timestamp comparison (epoch-us + 60 days in integer
    microseconds), and the output groupby is priority x quarter —
    constant-bounded."""
    import ray.data

    from sciscraper_ray.stages.relational import bucketed_hash_join

    ms = group_count(
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_shipdate"]
        ),
        "l_orderkey",
        count=None,
        aggs={"m": ("l_shipdate", "max")},
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    )
    joined = bucketed_hash_join(ms, orders, left_on="l_orderkey", right_on="o_orderkey")

    _60D_US = 60 * 86_400_000_000

    def late_partial(b: pa.Table) -> pa.Table:
        m = b["m"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        od = b["o_orderdate"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        keep = m.astype(np.int64) > od.astype(np.int64) + _60D_US
        b = b.filter(pa.array(keep))
        return pa.table(
            {
                "o_orderpriority": b["o_orderpriority"],
                "yr": pc.cast(pc.year(b["o_orderdate"]), pa.int64()),
                "qtr": pc.cast(pc.quarter(b["o_orderdate"]), pa.int64()),
            }
        )

    return group_count(
        joined.map_batches(late_partial, batch_format="pyarrow"),
        ["o_orderpriority", "yr", "qtr"],
        count="n_late",
    )


@register(
    "orders_yoy_growth",
    oracle="""
    WITH y AS (
        SELECT CAST(year(o_orderdate) AS BIGINT) AS yr,
               CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
                   AS revenue_cents
        FROM orders GROUP BY yr
    )
    SELECT yr, revenue_cents,
           revenue_cents - lag(revenue_cents) OVER (ORDER BY yr)
               AS delta_cents
    FROM y
    """,
)
def orders_yoy_growth(sf_dir: str):
    """Year-over-year revenue growth: a LAG window over a grouped
    aggregate. The yearly rollup is the usual two-phase cents-integer
    sum (per-batch partials, |years|-bounded groupby); the LAG runs on
    the merged handful of rows driver-side — a window over an aggregate
    is always output-bounded, never data-bounded. delta_cents is a
    nullable integer (first year null), landing as float64 on both
    engines."""
    import ray.data

    def partial(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "yr": pc.cast(pc.year(b["o_orderdate"]), pa.int64()),
                "cents": pa.array(cents(b["o_totalprice"])),
            }
        )

    y = (
        group_count(
            ray.data.read_parquet(
                f"{sf_dir}/orders.parquet", columns=["o_orderdate", "o_totalprice"]
            ).map_batches(partial, batch_format="pyarrow"),
            "yr",
            {"cents": "revenue_cents"},
            count=None,
        )
        .to_pandas()  # bounded: |years|
        .sort_values("yr")
        .reset_index(drop=True)
    )
    rc = y["revenue_cents"].to_numpy().astype(np.int64)
    delta = np.empty(len(rc), np.float64)
    delta[0] = np.nan
    delta[1:] = (rc[1:] - rc[:-1]).astype(np.float64)
    return pa.table(
        {
            "yr": pa.array(y["yr"].to_numpy().astype(np.int64), pa.int64()),
            "revenue_cents": pa.array(rc, pa.int64()),
            "delta_cents": pa.array(delta, pa.float64()),
        }
    )


@register(
    "nation_revenue_hhi",
    oracle="""
    WITH rev AS (
        SELECT n_name,
               s_suppkey,
               CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT))
                    AS BIGINT) AS cents
        FROM lineitem
        JOIN supplier ON l_suppkey = s_suppkey
        JOIN nation ON s_nationkey = n_nationkey
        GROUP BY n_name, s_suppkey
    )
    SELECT n_name,
           CAST(count(*) AS BIGINT) AS n_suppliers,
           CAST(sum(cents) AS BIGINT) AS total_cents,
           round(CAST(sum(CAST(cents AS HUGEINT) * cents) AS DOUBLE)
                 / CAST(CAST(sum(cents) AS HUGEINT) * sum(cents) AS DOUBLE),
                 9) AS hhi
    FROM rev GROUP BY n_name
    """,
)
def nation_revenue_hhi(sf_dir: str):
    """Herfindahl–Hirschman revenue concentration per supplier nation —
    the market-structure number a sourcing report quotes. Numerator
    Σcents² overflows int64 at warehouse revenue, so the moments are
    finished with arbitrary-precision Python ints on the
    supplier-bounded merged table (DuckDB mirrors with HUGEINT), and
    only the final ratio becomes a double — both engines round the SAME
    two exact integers' quotient, so the 9-digit round can't diverge.
    Plan: per-batch (suppkey) cents partials with the supplier→nation
    keymap broadcast, one supplier-bounded groupby, driver HHI."""
    import pyarrow.parquet as pq
    import ray
    import ray.data

    from sciscraper_ray.stages.relational import BroadcastLookup

    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).to_pandas()  # bounded: supplier dimension (broadcast side)
    nat = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()  # bounded: 25-row dimension
    s2n = (
        supp.merge(nat, left_on="s_nationkey", right_on="n_nationkey")
        .set_index("s_suppkey")[["n_name"]]
    )
    s2n_ref = ray.put(s2n)

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "s_suppkey": b["l_suppkey"],
                "cents": pa.array(cents(b["l_extendedprice"])),
            }
        )
        return BroadcastLookup(s2n_ref, on="s_suppkey")(t)

    rev = group_count(
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_suppkey", "l_extendedprice"],
        ).map_batches(partial, batch_format="pyarrow"),
        ["n_name", "s_suppkey"],
        {"cents": "cents"},
        count=None,
    ).to_pandas()  # bounded: supplier dimension
    rows = []
    for n_name, g in rev.groupby("n_name", sort=True):
        cts = [int(c) for c in g["cents"]]
        total = sum(cts)
        num = sum(c * c for c in cts)  # exact python ints
        den = total * total
        rows.append(
            (
                n_name,
                len(cts),
                total,
                round(float(num) / float(den), 9) if den else 0.0,
            )
        )
    return pa.table(
        {
            "n_name": pa.array([r[0] for r in rows], pa.string()),
            "n_suppliers": pa.array([r[1] for r in rows], pa.int64()),
            "total_cents": pa.array([r[2] for r in rows], pa.int64()),
            "hhi": pa.array([r[3] for r in rows], pa.float64()),
        }
    )


@register(
    "lineitem_benford",
    oracle="""
    SELECT CAST(substring(CAST(CAST(round(l_extendedprice * 100) AS BIGINT)
                               AS VARCHAR), 1, 1) AS BIGINT) AS digit,
           CAST(count(*) AS BIGINT) AS cnt
    FROM lineitem
    GROUP BY digit
    """,
)
def lineitem_benford(sf_dir: str):
    """Benford first-digit audit over line amounts — the fraud /
    synthetic-data smoke test. First digit extracted arithmetically
    (divide by 10 until < 10 — vectorized with log10 + power, exact for
    cents magnitudes), tallied into a 9-row table: per-batch partials,
    one constant-bounded groupby."""
    import ray.data

    def partial(b: pa.Table) -> pa.Table:
        cts = cents(b["l_extendedprice"])
        # first digit: shift into [1, 10) by integer division with the
        # largest power of ten <= value (exact: cents < 2^53)
        mag = np.floor(np.log10(cts)).astype(np.int64)
        digit = cts // 10**mag
        # float log10 can undershoot at exact powers of ten: correct up
        high = digit >= 10
        digit[high] //= 10
        return pa.table({"digit": pa.array(digit, pa.int64())})

    return group_count(
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"]
        ).map_batches(partial, batch_format="pyarrow"),
        "digit",
    )


@register(
    "customer_order_gaps",
    oracle="""
    WITH g AS (
        SELECT o_custkey,
               datediff('day',
                        lag(o_orderdate) OVER (
                            PARTITION BY o_custkey
                            ORDER BY o_orderdate, o_orderkey
                        ),
                        o_orderdate) AS gap_days
        FROM orders
    )
    SELECT o_custkey,
           CAST(count(*) AS BIGINT) AS n_orders,
           CAST(coalesce(sum(gap_days), 0) AS BIGINT) AS total_gap_days,
           CAST(coalesce(max(gap_days), 0) AS BIGINT) AS max_gap_days
    FROM g GROUP BY o_custkey
    """,
)
def customer_order_gaps(sf_dir: str):
    """Inter-order latency per customer (reorder cadence): day gaps
    between consecutive orders, summarized as integer (count, total,
    max) — no float median to diverge. Same bucketed-window plan as the
    events family but keyed on o_custkey over the ORDERS table: one
    customer-hash shuffle, per bucket a lexsort (custkey, date, orderkey)
    + shifted day diff masked at customer boundaries, per-customer
    reduction via one Arrow group_by. Proves the window machinery is
    table-agnostic."""
    import ray.data

    from sciscraper_ray.stages.window import bucketed_window

    def kernel(g):
        import pandas as pd

        if len(g) == 0:
            return pd.DataFrame(
                {
                    "o_custkey": np.array([], np.int64),
                    "n_orders": np.array([], np.int64),
                    "total_gap_days": np.array([], np.int64),
                    "max_gap_days": np.array([], np.int64),
                }
            )
        cust = g["o_custkey"].to_numpy()
        day = (
            g["o_orderdate"].astype("datetime64[us]").astype("int64").to_numpy()
            // 86_400_000_000
        )
        okey = g["o_orderkey"].to_numpy()
        order = np.lexsort((okey, day, cust))
        cust_s, day_s = cust[order], day[order]
        new_c = np.ones(len(cust_s), bool)
        new_c[1:] = cust_s[1:] != cust_s[:-1]
        gaps = np.zeros(len(day_s), np.int64)
        gaps[1:] = day_s[1:] - day_s[:-1]
        gaps[new_c] = 0
        t = pa.table(
            {
                "o_custkey": pa.array(cust_s, pa.int64()),
                "gap": pa.array(gaps, pa.int64()),
            }
        )
        return group_count_batch(
            t,
            ["o_custkey"],
            {"gap": "total_gap_days"},
            count="n_orders",
            aggs={"max_gap_days": ("gap", "max")},
        ).to_pandas()  # bounded: worker-side kernel return

    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderdate", "o_orderkey"],
    )
    return bucketed_window(ds, kernel, key="o_custkey").map_batches(
        lambda b: b.select(
            ["o_custkey", "n_orders", "total_gap_days", "max_gap_days"]
        ),
        batch_format="pyarrow",
    )


@register(
    "orders_pareto_cutoff",
    oracle="""
    WITH pc AS (
        SELECT o_custkey,
               CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
                   AS cents
        FROM orders GROUP BY o_custkey
    ), r AS (
        SELECT cents,
               sum(cents) OVER (
                   ORDER BY cents DESC, o_custkey ASC
                   ROWS UNBOUNDED PRECEDING
               ) AS cum,
               row_number() OVER (ORDER BY cents DESC, o_custkey ASC) AS rn
        FROM pc
    )
    SELECT CAST(min(rn) AS BIGINT) AS n_customers_80,
           CAST((SELECT count(*) FROM pc) AS BIGINT) AS total_customers,
           CAST((SELECT sum(cents) FROM pc) AS BIGINT) AS total_cents
    FROM r WHERE cum * 5 >= (SELECT sum(cents) FROM pc) * 4
    """,
)
def orders_pareto_cutoff(sf_dir: str):
    """Pareto 80/20 concentration: the smallest prefix of customers
    (revenue-descending, custkey tie-break) covering ≥80% of revenue —
    the account-management headcount number. The 80% test is exact
    integer cross-multiplication (cum*5 ≥ total*4). Per-customer revenue
    is the usual two-phase cents sum; the ranked prefix scan runs on the
    customer-bounded merged table (driver here; at warehouse scale the
    two-level scan corpus_heaps_law uses applies unchanged — range cells
    then carry-in bases)."""
    import ray.data

    pc_ds = group_count(
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
        ).map_batches(
            lambda b: pa.table(
                {"o_custkey": b["o_custkey"], "cents": pa.array(cents(b["o_totalprice"]))}
            ),
            batch_format="pyarrow",
        ),
        "o_custkey",
        {"cents": "cents"},
        count=None,
    )
    from sciscraper_ray.pipelines.plan import driver_frame

    pc_ds = driver_frame(pc_ds, what="orders_pareto_cutoff")
    cts = pc_ds["cents"].to_numpy().astype(np.int64)
    keys = pc_ds["o_custkey"].to_numpy().astype(np.int64)
    order = np.lexsort((keys, -cts))
    cum = np.cumsum(cts[order])
    total = int(cum[-1])
    n80 = int(np.searchsorted(cum * 5, total * 4, side="left")) + 1
    return pa.table(
        {
            "n_customers_80": pa.array([n80], pa.int64()),
            "total_customers": pa.array([len(cts)], pa.int64()),
            "total_cents": pa.array([total], pa.int64()),
        }
    )


@register(
    "orders_fiscal_week_rollup",
    oracle="""
    SELECT CAST(isoyear(o_orderdate) AS BIGINT) AS iso_yr,
           CAST(weekofyear(o_orderdate) AS BIGINT) AS iso_wk,
           CAST(count(*) AS BIGINT) AS n_orders,
           CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
               AS revenue_cents
    FROM orders GROUP BY iso_yr, iso_wk
    """,
)
def orders_fiscal_week_rollup(sf_dir: str):
    """Revenue per ISO week — the fiscal-calendar rollup where the
    year boundary bites (Jan 1 1995 is ISO week 52 of ISO-YEAR 1994;
    grouping by calendar year + week double-counts the split weeks).
    Parity pinned: pc.iso_week/iso_year == DuckDB weekofyear/isoyear.
    One |weeks|-bounded exchange over per-batch cents partials."""
    import ray.data

    def partial(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "iso_yr": pc.cast(pc.iso_year(b["o_orderdate"]), pa.int64()),
                "iso_wk": pc.cast(pc.iso_week(b["o_orderdate"]), pa.int64()),
                "cents": pa.array(cents(b["o_totalprice"])),
            }
        )

    return group_count(
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_orderdate", "o_totalprice"]
        ).map_batches(partial, batch_format="pyarrow"),
        ["iso_yr", "iso_wk"],
        {"cents": "revenue_cents"},
        count="n_orders",
    )


# --------------------------------------------------------------------------
# TPC-H Q21 shape (suppliers who kept waiting orders) adapted to this
# schema: among orders touching >= 2 distinct suppliers, find those where
# EXACTLY ONE supplier shipped late (> 45 days after the order date) and
# blame that supplier. The semi-join + anti-join pair of the original
# (EXISTS another supplier / NOT EXISTS another late supplier) collapses
# into per-order distinct-supplier and late-supplier counts.
# --------------------------------------------------------------------------

_BLAME_LATE_US = 45 * 86_400_000_000  # 45 days in integer microseconds


@register(
    "supplier_late_blame",
    oracle="""
    WITH lo AS (
        SELECT l_orderkey AS ok, l_suppkey AS sk,
               max(CASE WHEN l_shipdate > o_orderdate + INTERVAL 45 DAY
                        THEN 1 ELSE 0 END) AS late
        FROM lineitem JOIN orders ON l_orderkey = o_orderkey
        GROUP BY ok, sk
    ), per_order AS (
        SELECT ok, count(*) AS n_supp, sum(late) AS n_late,
               max(CASE WHEN late = 1 THEN sk END) AS late_sk
        FROM lo GROUP BY ok
    )
    SELECT late_sk AS s_suppkey, CAST(count(*) AS BIGINT) AS n_blame
    FROM per_order WHERE n_supp >= 2 AND n_late = 1
    GROUP BY s_suppkey
    ORDER BY n_blame DESC, s_suppkey ASC
    LIMIT 10
    """,
)
def supplier_late_blame(sf_dir: str):
    """Q21-shape sole-late-supplier blame without any EXISTS dispatch:
    lineitem co-partition-joins orders on orderkey (bucketed_hash_join —
    the one fact x fact all-to-all), then ONE more orderkey-bucketed
    pass runs a vectorized lexsort kernel per bucket: (order, supplier)
    pair segments collapse via maximum.reduceat, order segments count
    distinct/late suppliers via add.reduceat, and the blamed supplier of
    a sole-late order is the masked max over its pair segment. Each
    bucket emits a |suppliers|-bounded partial tally; the global groupby
    is supplier-bounded and the top-10 sort runs on that small result."""
    import pandas as pd

    import ray.data

    from sciscraper_ray.stages.relational import bucketed_hash_join
    from sciscraper_ray.stages.window import bucketed_window

    lines = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_shipdate"],
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"]
    )
    joined = bucketed_hash_join(
        lines, orders, left_on="l_orderkey", right_on="o_orderkey"
    )

    def blame(g: pd.DataFrame) -> pd.DataFrame:
        ok = g["l_orderkey"].to_numpy(np.int64)
        sk = g["l_suppkey"].to_numpy(np.int64)
        ship = g["l_shipdate"].to_numpy("datetime64[us]").astype(np.int64)
        od = g["o_orderdate"].to_numpy("datetime64[us]").astype(np.int64)
        late = (ship > od + _BLAME_LATE_US).astype(np.int64)
        order = np.lexsort((sk, ok))
        ok_s, sk_s, late_s = ok[order], sk[order], late[order]
        n = len(ok_s)
        new_pair = np.r_[True, (ok_s[1:] != ok_s[:-1]) | (sk_s[1:] != sk_s[:-1])]
        p_start = np.nonzero(new_pair)[0]
        pok = ok_s[p_start]
        psk = sk_s[p_start]
        plate = np.maximum.reduceat(late_s, p_start)
        new_ord = np.r_[True, pok[1:] != pok[:-1]]
        o_start = np.nonzero(new_ord)[0]
        n_supp = np.diff(np.r_[o_start, len(pok)])
        n_late = np.add.reduceat(np.r_[plate, np.int64(0)], o_start)[: len(o_start)]
        late_sk = np.maximum.reduceat(
            np.r_[np.where(plate == 1, psk, np.int64(-1)), np.int64(-1)], o_start
        )[: len(o_start)]
        blamed = late_sk[(n_supp >= 2) & (n_late == 1)]
        uniq, cnt = np.unique(blamed, return_counts=True)
        return pd.DataFrame(
            {"s_suppkey": uniq, "n_blame": cnt.astype(np.int64)}
        )

    tallied = group_count(
        bucketed_window(joined, blame, key="l_orderkey"),
        "s_suppkey",
        {"n_blame": "n_blame"},
        count=None,
    )
    return tallied.sort(
        ["n_blame", "s_suppkey"], descending=[True, False]
    ).limit(10)


# --------------------------------------------------------------------------
# TPC-H Q8 shape (national market share): within ASIA-region customers'
# revenue on STANDARD-type parts, what share per order-year came from
# NATION_2 suppliers? The five-table join splits into its physical
# roles: two big-big bucketed joins (orders x customer on custkey,
# lineitem x qualified-orders on orderkey) and three broadcast dims
# (nation->region 25 rows; the STANDARD-partkey bitmap, one bit per
# part; suppkey->nationkey). Money is cents x basis points integers end
# to end; the one float op is the final mirrored share.
# --------------------------------------------------------------------------


@register(
    "market_share_q8",
    oracle="""
    WITH ao AS (
        SELECT o_orderkey, CAST(year(o_orderdate) AS BIGINT) AS yr
        FROM orders
        JOIN customer ON o_custkey = c_custkey
        JOIN nation ON c_nationkey = n_nationkey
        WHERE n_regionkey = 2
    ), lr AS (
        SELECT l_orderkey,
               CAST(round(l_extendedprice * 100) AS BIGINT)
                   * (100 - CAST(round(l_discount * 100) AS BIGINT)) AS rev,
               (s_nationkey = 2) AS n2
        FROM lineitem
        JOIN part ON l_partkey = p_partkey
        JOIN supplier ON l_suppkey = s_suppkey
        WHERE p_type = 'STANDARD'
    )
    SELECT yr,
           CAST(sum(rev) AS BIGINT) AS asia_std_rev_c2,
           round(CAST(sum(CASE WHEN n2 THEN rev ELSE 0 END) AS BIGINT)
                 / CAST(sum(rev) AS BIGINT), 6) AS n2_share
    FROM lr JOIN ao ON l_orderkey = o_orderkey
    GROUP BY yr
    """,
)
def market_share_q8(sf_dir: str):
    """Q8 market share with each join in its scale-correct physical
    form: customer is sf-proportional, so orders qualify through a
    bucketed co-partition join against the ASIA-filtered customer
    projection (the VERDICT r3 orders_by_region lesson — never
    broadcast a fact-sized side); lineitem pre-filters through a
    broadcast partkey BITMAP (one bit per part — 40M parts = 5 MB, the
    promo_revenue_share trick) and tags supplier nation through a
    broadcast dense suppkey->nationkey array (int8 per supplier; at a
    supplier count where that outgrows the object store comfort bound
    the same bucketed join applies); per-batch partials pre-reduce to
    (orderkey, rev, n2rev) rows so the second bucketed join moves
    order-grain integers only, and the year groupby is |years|-bounded."""
    import pyarrow.parquet as pq

    import ray
    import ray.data

    from sciscraper_ray.stages.relational import bucketed_hash_join

    # --- broadcast dims -------------------------------------------------
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"]
    )
    asia_nations = set(
        nation.filter(pc.equal(nation["n_regionkey"], 2))["n_nationkey"]
        .to_numpy(zero_copy_only=False)
        .tolist()
    )
    part = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"])
    keys = part["p_partkey"].to_numpy(zero_copy_only=False)
    std = pc.equal(part["p_type"], "STANDARD").to_numpy(zero_copy_only=False)
    bitmap = np.zeros((int(keys.max()) >> 6) + 1, np.uint64)
    pk = keys[std].astype(np.uint64)
    np.bitwise_or.at(
        bitmap,
        (pk >> np.uint64(6)).astype(np.int64),
        np.uint64(1) << (pk & np.uint64(63)),
    )
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    sk = supp["s_suppkey"].to_numpy(zero_copy_only=False)
    snat = np.full(int(sk.max()) + 1, -1, np.int32)
    snat[sk] = supp["s_nationkey"].to_numpy(zero_copy_only=False)
    bitmap_ref = ray.put(bitmap)
    snat_ref = ray.put(snat)

    # --- ASIA orders via bucketed join against the filtered customer ----
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    asia_arr = np.array(sorted(asia_nations), np.int32)

    def asia_only(b: pa.Table) -> pa.Table:
        keep = np.isin(b["c_nationkey"].to_numpy(zero_copy_only=False), asia_arr)
        return pa.table({"c_custkey": b["c_custkey"].filter(pa.array(keep))})

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )
    asia_orders = bucketed_hash_join(
        orders,
        cust.map_batches(asia_only, batch_format="pyarrow"),
        left_on="o_custkey",
        right_on="c_custkey",
    ).map_batches(
        lambda b: pa.table(
            {
                "o_orderkey": b["o_orderkey"],
                "yr": pc.cast(pc.year(b["o_orderdate"]), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )

    # --- lineitem partials: STANDARD filter + supplier-nation tag -------
    class LinePartial:
        def __init__(self):
            self.bitmap = ray.get(bitmap_ref)
            self.snat = ray.get(snat_ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            pkey = b["l_partkey"].to_numpy(zero_copy_only=False).astype(np.uint64)
            is_std = (
                (self.bitmap[(pkey >> np.uint64(6)).astype(np.int64)]
                 >> (pkey & np.uint64(63)))
                & np.uint64(1)
            ).astype(bool)
            b = b.filter(pa.array(is_std))
            if not b.num_rows:
                return pa.table(
                    {
                        "l_orderkey": pa.array([], pa.int64()),
                        "rev": pa.array([], pa.int64()),
                        "n2rev": pa.array([], pa.int64()),
                    }
                )
            cts = cents(b["l_extendedprice"])
            bp = cents(b["l_discount"])
            rev = cts * (100 - bp)
            n2 = self.snat[b["l_suppkey"].to_numpy(zero_copy_only=False)] == 2
            t = pa.table(
                {
                    "l_orderkey": b["l_orderkey"],
                    "rev": pa.array(rev, pa.int64()),
                    "n2rev": pa.array(np.where(n2, rev, 0), pa.int64()),
                }
            )
            return (
                t.group_by("l_orderkey")
                .aggregate([("rev", "sum"), ("n2rev", "sum")])
                .rename_columns(["l_orderkey", "rev", "n2rev"])
            )

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_suppkey",
                 "l_extendedprice", "l_discount"],
    ).map_batches(LinePartial, batch_format="pyarrow", concurrency=(1, 4))

    joined = bucketed_hash_join(
        li, asia_orders, left_on="l_orderkey", right_on="o_orderkey"
    )

    agg = group_count(joined, "yr", {"rev": "rev", "n2rev": "n2rev"}, count=None)

    def finish(b: pa.Table) -> pa.Table:
        rev = b["rev"].to_numpy(zero_copy_only=False).astype(np.int64)
        n2 = b["n2rev"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "yr": b["yr"],
                "asia_std_rev_c2": pa.array(rev, pa.int64()),
                "n2_share": pa.array(
                    np.round(n2.astype(np.float64) / rev.astype(np.float64), 6),
                    pa.float64(),
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Range-partitioner construction — the backbone of every distributed
# sort / write-ordered step: a DETERMINISTIC hash sample of rows picks
# B-1 price boundaries, and the whole table is histogrammed into the
# resulting ranges. Balanced counts prove the sample-derived splits
# would feed a balanced sort; the md5 row-hash sample (not random())
# is what makes the plan reproducible AND SQL-mirrorable.
# --------------------------------------------------------------------------

_RP_MOD = 50  # 2% deterministic sample
_RP_BUCKETS = 8

_RP_KEY_SQL = (
    "CAST(l_orderkey AS VARCHAR) || '-' || CAST(l_linenumber AS VARCHAR)"
)


@register(
    "lineitem_range_partition",
    oracle=f"""
    WITH s AS (
        SELECT l_extendedprice AS p, {_RP_KEY_SQL} AS k
        FROM lineitem
        WHERE {{mod_expr}} = 0
    ), o AS (
        SELECT p, row_number() OVER (ORDER BY p, k) AS rn FROM s
    ), bnd AS (
        SELECT o.p FROM o, (SELECT count(*) AS n FROM s) t,
             range(1, {_RP_BUCKETS}) g(kk)
        WHERE o.rn = (g.kk * t.n) // {_RP_BUCKETS}
    )
    SELECT CAST((SELECT count(*) FROM bnd
                 WHERE bnd.p < l.l_extendedprice) AS BIGINT) AS bucket,
           CAST(count(*) AS BIGINT) AS n_rows
    FROM lineitem l GROUP BY bucket
    """.replace("{mod_expr}", f"({md5_hex15_sql(_RP_KEY_SQL)} % {_RP_MOD})"),
)
def lineitem_range_partition(sf_dir: str):
    """Sample -> boundaries -> histogram, each stage in its distributed
    form: the 2% sample is a per-batch md5 row-hash filter (pure map,
    deterministic, no coordination); the sampled (price, key) pairs
    merge on the driver and B-1 = 7 boundaries are read at the exact
    rank positions (k*n)//B (at petabyte scale the sample itself is
    re-subsampled by raising the modulus — the documented knob — so the
    driver table stays bounded); the boundaries broadcast and every
    batch histograms itself with one np.searchsorted — the final
    exchange is B partial-count rows per batch. Ties at a boundary go
    left (count of boundaries strictly below, pinned on both engines)."""
    import ray.data

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_extendedprice"],
    )

    def sample_batch(b: pa.Table) -> pa.Table:
        ok = b["l_orderkey"].to_numpy(zero_copy_only=False)
        ln = b["l_linenumber"].to_numpy(zero_copy_only=False)
        keys = [f"{o}-{l}" for o, l in zip(ok, ln)]
        keep = (md5_hex15(keys) % _RP_MOD) == 0
        return pa.table(
            {
                "p": b["l_extendedprice"].filter(pa.array(keep)),
                "k": pa.array([k for k, m in zip(keys, keep) if m], pa.string()),
            }
        )

    # bounded: fixed-rate sample rows per block
    sample = ds.map_batches(sample_batch, batch_format="pyarrow").to_pandas()
    order = np.lexsort((sample["k"].to_numpy(), sample["p"].to_numpy()))
    p_sorted = sample["p"].to_numpy()[order]
    n = len(p_sorted)
    # rank positions are 1-based (row_number); a position of 0 matches no
    # sample row and drops out on BOTH engines (tiny-sample degenerate)
    positions = [(k * n) // _RP_BUCKETS for k in range(1, _RP_BUCKETS)]
    bounds = np.array(
        [p_sorted[q - 1] for q in positions if q >= 1], np.float64
    )

    def hist_batch(b: pa.Table) -> pa.Table:
        price = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        bucket = np.searchsorted(bounds, price, side="left").astype(np.int64)
        return pa.table({"bucket": pa.array(bucket, pa.int64())})

    return group_count(
        ds.map_batches(hist_batch, batch_format="pyarrow"), "bucket", count="n_rows"
    )


# --------------------------------------------------------------------------
# TPC-H shape completion (round 4): Q6 / Q15 / Q20 / Q9 analogs over the
# columns this schema carries (no partsupp, no l_shipmode — the oracles
# pin the adapted semantics). Each exercises a DIFFERENT physical plan:
# Q6 a pure filter-agg with 3 groups, Q15 a distributed argmax-with-ties,
# Q20 a pair-grain conditional aggregate + threshold semi-join, Q9 the
# full mixed broadcast/bucketed star join (reference Q8's machinery).
# Money stays integer end-to-end (cents x basis points) so the hash
# compare is exact — the round-4 FP-parity rule.
# --------------------------------------------------------------------------


@register(
    "forecast_discount_revenue",
    oracle="""
    SELECT CAST(round(l_discount * 100) AS BIGINT) AS disc_bp,
           CAST(count(*) AS BIGINT) AS n_lines,
           CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                    * CAST(round(l_discount * 100) AS BIGINT)) AS BIGINT)
               AS forecast_rev_cbp
    FROM lineitem
    WHERE year(l_shipdate) = 1997
      AND round(l_discount * 100) BETWEEN 4 AND 6
      AND l_quantity < 24
    GROUP BY disc_bp
    """,
)
def forecast_discount_revenue(sf_dir: str):
    """Q6 forecast-revenue-change shape (reference: the what-if filter
    aggregate): revenue that would be reclaimed by eliminating mid-band
    discounts (4-6 bp) on small-quantity 1997 shipments, reported PER
    DISCOUNT LEVEL so the answer is the 3-row what-if curve rather than
    one scalar. Plan: pruned 4-column read; each batch filters and
    reduces to at most 3 (disc_bp, n, sum) rows with np.add.at on int64
    (never float bincount); the global groupby moves 3 rows per batch.
    Nothing here is sf-proportional except the scan itself."""
    import ray.data

    def partial(b: pa.Table) -> pa.Table:
        yr = pc.year(b["l_shipdate"]).to_numpy(zero_copy_only=False)
        bp = cents(b["l_discount"])
        qty = b["l_quantity"].to_numpy(zero_copy_only=False)
        cts = cents(b["l_extendedprice"])
        keep = (yr == 1997) & (bp >= 4) & (bp <= 6) & (qty < 24)
        bpk = bp[keep] - 4
        n = np.bincount(bpk, minlength=3).astype(np.int64)
        s = np.zeros(3, np.int64)
        np.add.at(s, bpk, cts[keep] * (bpk + 4))
        return pa.table(
            {
                "disc_bp": pa.array([4, 5, 6], pa.int64()),
                "n_lines": pa.array(n),
                "forecast_rev_cbp": pa.array(s),
            }
        )

    agg = group_count(
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=[
                "l_shipdate", "l_discount", "l_quantity", "l_extendedprice",
            ],
        ).map_batches(partial, batch_format="pyarrow"),
        "disc_bp",
        {"n_lines": "n_lines", "forecast_rev_cbp": "forecast_rev_cbp"},
        count=None,
    )
    # empty discount bands (possible at tiny sf) don't exist in the oracle
    return agg.filter(lambda r: r["n_lines"] > 0)


@register(
    "supplier_peak_revenue",
    oracle="""
    WITH r AS (
        SELECT l_suppkey AS s_suppkey,
               CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                   * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                   AS BIGINT) AS total_rev_c2
        FROM lineitem
        WHERE l_shipdate >= DATE '1997-01-01'
          AND l_shipdate < DATE '1997-04-01'
        GROUP BY 1
    )
    SELECT r.s_suppkey, s_name, total_rev_c2
    FROM r JOIN supplier ON r.s_suppkey = supplier.s_suppkey
    WHERE total_rev_c2 = (SELECT max(total_rev_c2) FROM r)
    """,
)
def supplier_peak_revenue(sf_dir: str):
    """Q15 top-supplier shape: quarterly revenue per supplier, then the
    suppliers TIED at the global maximum (Q15's correlated =max()
    subquery). Distributed argmax-with-ties: per-batch (suppkey, rev)
    partials keep the exchange supplier-bounded; the supplier-grain
    aggregate is materialized ONCE (object store, never the driver) and
    reused for both the scalar max reduction and the tie filter; the
    name lookup streams the supplier table against the broadcast winner
    keyset (ties are O(1), so that side never grows), not a shuffle."""
    import ray.data

    def partial(b: pa.Table) -> pa.Table:
        ship = b["l_shipdate"].to_numpy(zero_copy_only=False)
        lo = np.datetime64("1997-01-01", "us")
        hi = np.datetime64("1997-04-01", "us")
        keep = (ship >= lo) & (ship < hi)
        cts = cents(b["l_extendedprice"])
        bp = cents(b["l_discount"])
        return pa.table(
            {
                "s_suppkey": b["l_suppkey"].filter(pa.array(keep)),
                "total_rev_c2": pa.array(
                    (cts * (100 - bp))[keep], pa.int64()
                ),
            }
        )

    rev = group_count(
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"],
        ).map_batches(partial, batch_format="pyarrow"),
        "s_suppkey",
        {"total_rev_c2": "total_rev_c2"},
        count=None,
    ).materialize()
    peak = rev.max("total_rev_c2")
    winners = {
        int(r["s_suppkey"]): int(r["total_rev_c2"])
        for r in rev.filter(
            lambda r: r["total_rev_c2"] == peak
        ).take_all()
    }

    def name_join(b: pa.Table) -> pa.Table:
        sk = b["s_suppkey"].to_numpy(zero_copy_only=False)
        keep = np.isin(sk, np.fromiter(winners, np.int64))
        b = b.filter(pa.array(keep))
        return pa.table(
            {
                "s_suppkey": b["s_suppkey"],
                "s_name": b["s_name"],
                "total_rev_c2": pa.array(
                    [winners[int(k)] for k in b["s_suppkey"].to_pylist()],
                    pa.int64(),
                ),
            }
        )

    return ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    ).map_batches(name_join, batch_format="pyarrow")


@register(
    "excess_shipment_suppliers",
    oracle="""
    WITH sp AS (
        SELECT l_suppkey, l_partkey,
               sum(CASE WHEN year(l_shipdate) = 1997
                        THEN CAST(l_quantity AS BIGINT) ELSE 0 END) AS q97,
               sum(CAST(l_quantity AS BIGINT)) AS qtot
        FROM lineitem JOIN part ON l_partkey = p_partkey
        WHERE p_name LIKE 'large%'
        GROUP BY l_suppkey, l_partkey
    )
    SELECT l_suppkey AS s_suppkey, CAST(count(*) AS BIGINT) AS n_excess_parts
    FROM sp WHERE 2 * q97 > qtot
    GROUP BY 1
    """,
)
def excess_shipment_suppliers(sf_dir: str, plan: str = "auto"):
    """Q20 excess-inventory shape, adapted to this schema (no partsupp
    availqty): per (supplier, 'large…' part) pair, did 1997 account for
    MORE THAN HALF of all-time shipped quantity — then the per-supplier
    count of such concentration parts. Plan: the part predicate becomes
    a broadcast partkey bitmap (one bit per part, the promo_revenue_share
    trick) applied inside the lineitem scan; each batch pre-reduces to
    (pair-key, q97, qtot) rows with a single-int64 combined key
    (suppkey * P + partkey — two-column shuffle keys pay double sort
    cost); the pair-grain merge goes through the shared two-plan
    resolver (driver lexsort+reduceat under the 50M bound — lineitem's
    parquet row count is a free upper bound — distributed groupby-Sum
    past it); the final supplier-grain tally is pair-bounded."""
    import pyarrow.parquet as pq

    import ray
    import ray.data

    from sciscraper_ray.pipelines.plan import (
        driver_frame,
        parquet_row_bound,
        resolve_plan,
    )

    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"]
    )
    keys = part["p_partkey"].to_numpy(zero_copy_only=False)
    hit = pc.starts_with(part["p_name"], "large").to_numpy(
        zero_copy_only=False
    )
    pmax = int(keys.max()) + 1
    bitmap = np.zeros((pmax >> 6) + 1, np.uint64)
    pk = keys[hit].astype(np.uint64)
    np.bitwise_or.at(
        bitmap,
        (pk >> np.uint64(6)).astype(np.int64),
        np.uint64(1) << (pk & np.uint64(63)),
    )
    bitmap_ref = ray.put(bitmap)

    class PairPartial:
        def __init__(self):
            self.bitmap = ray.get(bitmap_ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            pkey = (
                b["l_partkey"].to_numpy(zero_copy_only=False).astype(np.uint64)
            )
            keep = (
                (self.bitmap[(pkey >> np.uint64(6)).astype(np.int64)]
                 >> (pkey & np.uint64(63)))
                & np.uint64(1)
            ).astype(bool)
            if not keep.any():
                return pa.table(
                    {
                        "kk": pa.array([], pa.int64()),
                        "q97": pa.array([], pa.int64()),
                        "qtot": pa.array([], pa.int64()),
                    }
                )
            sk = b["l_suppkey"].to_numpy(zero_copy_only=False)[keep]
            pkk = pkey[keep].astype(np.int64)
            qty = (
                b["l_quantity"].to_numpy(zero_copy_only=False)[keep]
            ).astype(np.int64)
            yr97 = (
                pc.year(b["l_shipdate"]).to_numpy(zero_copy_only=False)[keep]
                == 1997
            )
            t = pa.table(
                {
                    "kk": pa.array(sk * pmax + pkk, pa.int64()),
                    "q97": pa.array(np.where(yr97, qty, 0), pa.int64()),
                    "qtot": pa.array(qty, pa.int64()),
                }
            )
            return (
                t.group_by("kk")
                .aggregate([("q97", "sum"), ("qtot", "sum")])
                .rename_columns(["kk", "q97", "qtot"])
            )

    partials = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_partkey", "l_quantity", "l_shipdate"],
    ).map_batches(PairPartial, batch_format="pyarrow", concurrency=(1, 4))

    mode, partials = resolve_plan(
        partials,
        plan,
        est_rows=parquet_row_bound(f"{sf_dir}/lineitem.parquet"),
    )
    if mode == "driver":
        df = driver_frame(
            partials, what="excess_shipment_suppliers"
        )
        kk = df["kk"].to_numpy(np.int64)
        order = np.argsort(kk, kind="stable")
        kk = kk[order]
        starts = np.flatnonzero(np.r_[True, kk[1:] != kk[:-1]])
        q97 = np.add.reduceat(df["q97"].to_numpy(np.int64)[order], starts)
        qtot = np.add.reduceat(df["qtot"].to_numpy(np.int64)[order], starts)
        excess = 2 * q97 > qtot
        supp = (kk[starts][excess] // pmax).astype(np.int64)
        uniq, cnt = np.unique(supp, return_counts=True)
        return pa.table(
            {
                "s_suppkey": pa.array(uniq, pa.int64()),
                "n_excess_parts": pa.array(cnt.astype(np.int64)),
            }
        )

    pairs = group_count(partials, "kk", {"q97": "q97", "qtot": "qtot"}, count=None)

    def supplier_partial(b: pa.Table) -> pa.Table:
        excess = (
            2 * b["q97"].to_numpy(zero_copy_only=False)
            > b["qtot"].to_numpy(zero_copy_only=False)
        )
        supp = (
            b["kk"].to_numpy(zero_copy_only=False)[excess] // pmax
        ).astype(np.int64)
        return pa.table({"s_suppkey": pa.array(supp, pa.int64())})

    return group_count(
        pairs.map_batches(supplier_partial, batch_format="pyarrow"),
        "s_suppkey",
        count="n_excess_parts",
    )


@register(
    "profit_by_nation_year",
    oracle="""
    SELECT n_name, CAST(year(o_orderdate) AS BIGINT) AS yr,
           CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                        * (100 - CAST(round(l_discount * 100) AS BIGINT))
                    - CAST(round(p_retailprice * 100) AS BIGINT)
                        * CAST(l_quantity AS BIGINT) * 80) AS BIGINT)
               AS profit_c2
    FROM lineitem
    JOIN orders ON l_orderkey = o_orderkey
    JOIN part ON l_partkey = p_partkey
    JOIN supplier ON l_suppkey = s_suppkey
    JOIN nation ON s_nationkey = n_nationkey
    WHERE p_name LIKE '%bolt%'
    GROUP BY n_name, yr
    """,
)
def profit_by_nation_year(sf_dir: str):
    """Q9 product-type-profit shape: per supplier-nation x order-year
    margin on 'bolt' parts, with cost proxied at 80 percent of the
    part's retail price (this schema has no partsupp supplycost; the
    oracle pins the proxy). The star join in its scale-correct mixed
    form (market_share_q8's machinery): part contributes a broadcast
    substring-match bitmap PLUS a dense retail-cents array (int64 per
    part — 40M parts = 320 MB would flip to a bucketed join; here it
    rides the same broadcast as the bitmap); supplier contributes the
    dense nationkey array; the one unavoidable fact-fact exchange is
    lineitem-margin x orders on orderkey, entered at order grain after
    per-batch (orderkey, natkey) pre-reduction; the final groupby moves
    |nations x years| rows. Margin stays integer (cents x 100) so the
    oracle compare is exact."""
    import pyarrow.parquet as pq

    import ray
    import ray.data

    from sciscraper_ray.stages.relational import bucketed_hash_join

    part = pq.read_table(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_name", "p_retailprice"],
    )
    keys = part["p_partkey"].to_numpy(zero_copy_only=False)
    hit = pc.match_substring(part["p_name"], "bolt").to_numpy(
        zero_copy_only=False
    )
    pmax = int(keys.max()) + 1
    bitmap = np.zeros((pmax >> 6) + 1, np.uint64)
    pk = keys[hit].astype(np.uint64)
    np.bitwise_or.at(
        bitmap,
        (pk >> np.uint64(6)).astype(np.int64),
        np.uint64(1) << (pk & np.uint64(63)),
    )
    retail = np.zeros(pmax, np.int64)
    retail[keys] = cents(part["p_retailprice"])
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    sk = supp["s_suppkey"].to_numpy(zero_copy_only=False)
    snat = np.full(int(sk.max()) + 1, -1, np.int32)
    snat[sk] = supp["s_nationkey"].to_numpy(zero_copy_only=False)
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    nname = dict(
        zip(
            nation["n_nationkey"].to_pylist(), nation["n_name"].to_pylist()
        )
    )
    bitmap_ref = ray.put(bitmap)
    retail_ref = ray.put(retail)
    snat_ref = ray.put(snat)

    class MarginPartial:
        def __init__(self):
            self.bitmap = ray.get(bitmap_ref)
            self.retail = ray.get(retail_ref)
            self.snat = ray.get(snat_ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            pkey = (
                b["l_partkey"].to_numpy(zero_copy_only=False).astype(np.uint64)
            )
            keep = (
                (self.bitmap[(pkey >> np.uint64(6)).astype(np.int64)]
                 >> (pkey & np.uint64(63)))
                & np.uint64(1)
            ).astype(bool)
            if not keep.any():
                return pa.table(
                    {
                        "l_orderkey": pa.array([], pa.int64()),
                        "natkey": pa.array([], pa.int64()),
                        "margin": pa.array([], pa.int64()),
                    }
                )
            cts = cents(b["l_extendedprice"].to_numpy(zero_copy_only=False)[keep])
            bp = cents(b["l_discount"].to_numpy(zero_copy_only=False)[keep])
            qty = (
                b["l_quantity"].to_numpy(zero_copy_only=False)[keep]
            ).astype(np.int64)
            cost = self.retail[pkey[keep].astype(np.int64)] * qty * 80
            nat = self.snat[
                b["l_suppkey"].to_numpy(zero_copy_only=False)[keep]
            ].astype(np.int64)
            t = pa.table(
                {
                    "l_orderkey": b["l_orderkey"].filter(pa.array(keep)),
                    "natkey": pa.array(nat, pa.int64()),
                    "margin": pa.array(
                        cts * (100 - bp) - cost, pa.int64()
                    ),
                }
            )
            return (
                t.group_by(["l_orderkey", "natkey"])
                .aggregate([("margin", "sum")])
                .rename_columns(["l_orderkey", "natkey", "margin"])
            )

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
            "l_extendedprice", "l_discount",
        ],
    ).map_batches(MarginPartial, batch_format="pyarrow", concurrency=(1, 4))

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"]
    ).map_batches(
        lambda b: pa.table(
            {
                "o_orderkey": b["o_orderkey"],
                "yr": pc.cast(pc.year(b["o_orderdate"]), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )

    joined = bucketed_hash_join(
        li, orders, left_on="l_orderkey", right_on="o_orderkey"
    )

    def nkyr_partial(b: pa.Table) -> pa.Table:
        kk = (
            b["natkey"].to_numpy(zero_copy_only=False) * 10_000
            + b["yr"].to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        return pa.table({"kk": pa.array(kk), "margin": b["margin"]})

    agg = group_count(
        joined.map_batches(nkyr_partial, batch_format="pyarrow"),
        "kk",
        {"margin": "profit_c2"},
        count=None,
    )

    def finish(b: pa.Table) -> pa.Table:
        kk = b["kk"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "n_name": pa.array(
                    [nname[int(k) // 10_000] for k in kk], pa.string()
                ),
                "yr": pa.array(kk % 10_000, pa.int64()),
                "profit_c2": b["profit_c2"],
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


@register(
    "lineitem_skyline",
    oracle="""
    WITH d AS (
        SELECT DISTINCT
               CAST(round(l_extendedprice * 100) AS BIGINT) AS price_c,
               CAST(l_quantity AS BIGINT) AS qty
        FROM lineitem
    ), w AS (
        SELECT price_c, qty,
               max(qty) OVER (
                   ORDER BY price_c ASC, qty DESC
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
               ) AS mq
        FROM d
    )
    SELECT price_c, qty FROM w WHERE mq IS NULL OR qty > mq
    """,
)
def lineitem_skyline(sf_dir: str):
    """2-D skyline (Pareto frontier) over (price asc, quantity desc):
    the distinct (price, qty) points no other point dominates (<= price
    AND >= qty, one strict) — the Borzsony/BNL query shape, here in its
    distributed local-then-global form. The algebraic fact that makes it
    scale: the GLOBAL skyline is a subset of the union of per-block
    LOCAL skylines, and a 2-D local skyline is one vectorized pass
    (sort by price asc / qty desc, keep rows where qty beats the running
    max — identical kernel at both levels, and the oracle's window
    formulation is the same O(n log n) idea, never the n^2 NOT EXISTS).
    A block's skyline over random data is tiny (bounded by |distinct
    qty| = 50 here), so the driver merge handles blocks x 50 rows; the
    scan itself is the only sf-proportional stage."""
    import ray.data

    def local_skyline(price: np.ndarray, qty: np.ndarray) -> pa.Table:
        order = np.lexsort((-qty, price))
        p, q = price[order], qty[order]
        # running max of qty over STRICTLY previous rows; ties of
        # (price, qty) collapse via the distinct filter first
        keep = np.zeros(len(p), bool)
        if len(p):
            rm = np.maximum.accumulate(q)
            keep[0] = True
            keep[1:] = q[1:] > rm[:-1]
        return pa.table(
            {
                "price_c": pa.array(p[keep], pa.int64()),
                "qty": pa.array(q[keep], pa.int64()),
            }
        )

    def batch_skyline(b: pa.Table) -> pa.Table:
        price = cents(b["l_extendedprice"])
        qty = b["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        kk = price * 64 + qty  # qty <= 50 packs losslessly
        uniq = np.unique(kk)
        return local_skyline(uniq // 64, uniq % 64)

    locals_df = (
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_extendedprice", "l_quantity"],
        )
        .map_batches(batch_skyline, batch_format="pyarrow")
        .to_pandas()  # bounded: per-block skyline candidates (tiny frontier)
    )
    kk = np.unique(
        locals_df["price_c"].to_numpy(np.int64) * 64
        + locals_df["qty"].to_numpy(np.int64)
    )
    return local_skyline(kk // 64, kk % 64)


@register(
    "lineitem_zorder_stats",
    oracle="""
    WITH xy AS (
        SELECT date_diff('day', DATE '1995-01-01', l_shipdate) AS x,
               CAST(l_quantity AS BIGINT) * 50 AS y
        FROM lineitem
    ), z AS (
        SELECT x, y,
               (SELECT CAST(sum((((x >> CAST(i AS INT)) & 1) << (2 * CAST(i AS INT)))
                         + (((y >> CAST(i AS INT)) & 1) << (2 * CAST(i AS INT) + 1)))
                 AS BIGINT)
                FROM unnest(range(16)) AS t(i)) AS zv
        FROM xy
    )
    SELECT CAST(zv >> 20 AS BIGINT) AS bucket,
           CAST(count(*) AS BIGINT) AS n_rows,
           CAST(min(x) AS BIGINT) AS min_day, CAST(max(x) AS BIGINT) AS max_day,
           min(y) // 50 AS min_qty, max(y) // 50 AS max_qty,
           CAST(min(x) <= 729 AND max(x) >= 365
                AND min(y) <= 1000 AND max(y) >= 500 AS BIGINT) AS probe_hit
    FROM z
    GROUP BY bucket
    """,
)
def lineitem_zorder_stats(sf_dir: str):
    """Z-order (Morton curve) clustering audit — the data-layout
    technique behind multi-dimensional zone-map pruning (Delta/Iceberg
    OPTIMIZE ZORDER): interleave the bits of (ship-day, quantity), cut
    the curve into 16 coarse buckets (z >> 20), and report each bucket's
    min/max box in BOTH dimensions plus whether the box intersects a
    probe predicate (day in [365, 729], qty in [10, 20] — 1996 shipments
    of mid quantities). Because the curve alternates bits, every bucket
    is tight in BOTH dims — a 2-D predicate prunes most buckets, where
    a single-column sort gives tight boxes in one dim only (the existing
    zonemap_scan shows that layout). The zv computation is pure
    vectorized bit arithmetic per batch; per-batch partial (bucket,
    count, mins, maxes) rows bound the exchange at 16 x batches."""
    import ray.data

    def partial(b: pa.Table) -> pa.Table:
        days = (
            b["l_shipdate"].to_numpy(zero_copy_only=False)
            - np.datetime64("1995-01-01", "us")
        ) // np.timedelta64(1, "D")
        x = days.astype(np.int64)
        y = b["l_quantity"].to_numpy(zero_copy_only=False).astype(
            np.int64
        ) * 50  # scale qty (6 bits) to day magnitude (12 bits) so the
        # interleaved TOP bits carry both dims, not just the wider one
        z = np.zeros(len(x), np.int64)
        for i in range(16):
            z |= ((x >> i) & 1) << (2 * i)
            z |= ((y >> i) & 1) << (2 * i + 1)
        return pa.table(
            {"bucket": pa.array(z >> 20, pa.int64()), "x": pa.array(x), "y": pa.array(y)}
        )

    agg = group_count(
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet", columns=["l_shipdate", "l_quantity"]
        ).map_batches(partial, batch_format="pyarrow"),
        "bucket",
        count="n_rows",
        aggs={
            "min_day": ("x", "min"),
            "max_day": ("x", "max"),
            "min_qty": ("y", "min"),
            "max_qty": ("y", "max"),
        },
    )

    def finish(b: pa.Table) -> pa.Table:
        hit = (
            (b["min_day"].to_numpy(zero_copy_only=False) <= 729)
            & (b["max_day"].to_numpy(zero_copy_only=False) >= 365)
            & (b["min_qty"].to_numpy(zero_copy_only=False) <= 1000)
            & (b["max_qty"].to_numpy(zero_copy_only=False) >= 500)
        )
        out = pa.table(
            {
                "bucket": b["bucket"],
                "n_rows": b["n_rows"],
                "min_day": b["min_day"],
                "max_day": b["max_day"],
                "min_qty": pc.divide(b["min_qty"], 50),
                "max_qty": pc.divide(b["max_qty"], 50),
            }
        )
        return out.append_column(
            "probe_hit", pa.array(hit.astype(np.int64))
        )

    return agg.map_batches(finish, batch_format="pyarrow")


@register(
    "customer_segment_nation_independence",
    oracle="""
    WITH o AS (
        SELECT c_mktsegment AS seg, n_name,
               CAST(count(*) AS BIGINT) AS obs
        FROM customer JOIN nation ON c_nationkey = n_nationkey
        GROUP BY 1, 2
    ), m AS (SELECT seg, CAST(sum(obs) AS BIGINT) AS st FROM o GROUP BY 1),
    n AS (SELECT n_name, CAST(sum(obs) AS BIGINT) AS nt FROM o GROUP BY 1),
    tot AS (SELECT CAST(sum(obs) AS BIGINT) AS N FROM o)
    SELECT m.seg, n.n_name,
           coalesce(o.obs, 0) AS obs,
           m.st * n.nt AS expected_times_n,
           coalesce(o.obs, 0) * tot.N - m.st * n.nt AS deviation_n
    FROM m CROSS JOIN n CROSS JOIN tot
    LEFT JOIN o ON o.seg = m.seg AND o.n_name = n.n_name
    """,
)
def customer_segment_nation_independence(sf_dir: str):
    """Chi-square-style independence audit of market segment x nation —
    the contingency-table screen for 'is this attribute pair actually
    independent' that decides whether a composite partitioning key is
    worth it. Kept EXACT: for each cell (incl. never-observed combos)
    emit observed count, expected*N = row_total * col_total, and the
    signed deviation obs*N - st*nt — all int64 (at 150M customers
    obs*N ~ 2e16, inside int64), so no chi-square float division ever
    happens and the compare is exact; the caller can finish the
    statistic with one division. Plan: per-batch (nationkey, segment)
    partial counts, a 25x5-bounded groupby, marginals and the dense
    cross join computed from those 125 rows on the driver; the nation
    dim joins by broadcast (25 rows)."""
    import pyarrow.parquet as pq

    import ray.data

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    nname = dict(
        zip(nation["n_nationkey"].to_pylist(), nation["n_name"].to_pylist())
    )

    cells = group_count(
        ray.data.read_parquet(
            f"{sf_dir}/customer.parquet",
            columns=["c_mktsegment", "c_nationkey"],
        ).rename_columns({"c_mktsegment": "seg", "c_nationkey": "nk"}),
        ["seg", "nk"],
        count="obs",
    ).to_pandas()  # bounded: |segments| x |nations|
    segs = sorted(cells["seg"].unique())
    nks = sorted(cells["nk"].unique())
    obs = {
        (r.seg, int(r.nk)): int(r.obs) for r in cells.itertuples()
    }
    st = {s: sum(v for (s2, _), v in obs.items() if s2 == s) for s in segs}
    nt = {k: sum(v for (_, k2), v in obs.items() if k2 == k) for k in nks}
    N = sum(obs.values())
    rows = [
        (
            s,
            nname[k],
            obs.get((s, k), 0),
            st[s] * nt[k],
            obs.get((s, k), 0) * N - st[s] * nt[k],
        )
        for s in segs
        for k in nks
    ]
    return pa.table(
        {
            "seg": pa.array([r[0] for r in rows], pa.string()),
            "n_name": pa.array([r[1] for r in rows], pa.string()),
            "obs": pa.array([r[2] for r in rows], pa.int64()),
            "expected_times_n": pa.array([r[3] for r in rows], pa.int64()),
            "deviation_n": pa.array([r[4] for r in rows], pa.int64()),
        }
    )


@register(
    "customer_band_migration",
    oracle="""
    WITH spend AS (
        SELECT o_custkey, CAST(year(o_orderdate) AS BIGINT) AS yr,
               CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                   AS BIGINT) AS cents
        FROM orders GROUP BY 1, 2
    ), banded AS (
        SELECT o_custkey, yr,
               CAST(ntile(10) OVER (
                   PARTITION BY yr ORDER BY cents, o_custkey
               ) AS BIGINT) AS band
        FROM spend
    )
    SELECT a.band AS band_from, b.band AS band_to,
           CAST(count(*) AS BIGINT) AS n_customers
    FROM banded a
    JOIN banded b ON a.o_custkey = b.o_custkey AND b.yr = a.yr + 1
    GROUP BY 1, 2
    """,
)
def customer_band_migration(sf_dir: str):
    """Year-over-year spend-decile migration matrix (the TPC-DS-flavored
    'band transition' shape behind churn/upsell dashboards): customers
    are ranked into per-year deciles by annual spend (ntile ties pinned
    by (cents, custkey) so both sides band identically), and every
    consecutive-year pair contributes one (band_from, band_to)
    transition. Plan: per-batch (custkey, yr) partial sums reduce the
    scan to customer-year grain; that table is driver-merged under the
    orders parquet row bound (the top_suppliers_by_nation rule — past
    ~50M customer-years the banding flips to the sample-derived range
    partitioner rank path of lineitem_range_partition, per year); the
    per-year ntile and the adjacent-year self-join are two vectorized
    passes on the customer-year table; output is the 10x10 matrix."""
    import ray.data

    from sciscraper_ray.pipelines.plan import (
        DRIVER_PLAN_LIMIT,
        driver_frame,
        parquet_row_bound,
    )

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "ck": b["o_custkey"],
                "yr": pc.cast(pc.year(b["o_orderdate"]), pa.int64()),
                "cents": pa.array(
                    cents(b["o_totalprice"]),
                    pa.int64(),
                ),
            }
        )
        return (
            t.group_by(["ck", "yr"])
            .aggregate([("cents", "sum")])
            .rename_columns(["ck", "yr", "cents"])
        )

    partials = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderdate", "o_totalprice"],
    ).map_batches(partial, batch_format="pyarrow")

    bound = parquet_row_bound(f"{sf_dir}/orders.parquet")
    if bound is not None and bound > DRIVER_PLAN_LIMIT:
        raise NotImplementedError(
            "customer_band_migration: customer-year table exceeds the"
            " driver plan bound — use the per-year range-partitioner rank"
            " path (lineitem_range_partition) for the banding step."
        )
    df = driver_frame(partials, what="customer_band_migration")
    # merge partials to customer-year grain
    kk = df["ck"].to_numpy(np.int64) * 10_000 + df["yr"].to_numpy(np.int64)
    order = np.argsort(kk, kind="stable")
    kk = kk[order]
    starts = np.flatnonzero(np.r_[True, kk[1:] != kk[:-1]])
    cts = np.add.reduceat(df["cents"].to_numpy(np.int64)[order], starts)
    ck, yr = kk[starts] // 10_000, kk[starts] % 10_000

    # per-year ntile(10) with DuckDB's distribution rule: the first
    # (n mod 10) bands get the extra row
    band = np.empty(len(ck), np.int64)
    for y in np.unique(yr):
        seg = np.flatnonzero(yr == y)
        o = np.lexsort((ck[seg], cts[seg]))
        n = len(seg)
        q, rem = divmod(n, 10)
        r = np.empty(n, np.int64)  # 0-based rank -> 1-based band
        ranks = np.arange(n)
        cut = rem * (q + 1)
        r[ranks < cut] = ranks[ranks < cut] // (q + 1) + 1
        if q:
            r[ranks >= cut] = rem + (ranks[ranks >= cut] - cut) // q + 1
        band[seg[o]] = r

    # adjacent-year transitions: sort by (ck, yr), compare neighbors
    o = np.lexsort((yr, ck))
    ck_s, yr_s, band_s = ck[o], yr[o], band[o]
    adj = (ck_s[1:] == ck_s[:-1]) & (yr_s[1:] == yr_s[:-1] + 1)
    pair = band_s[:-1][adj] * 100 + band_s[1:][adj]
    uniq, cnt = np.unique(pair, return_counts=True)
    return pa.table(
        {
            "band_from": pa.array(uniq // 100, pa.int64()),
            "band_to": pa.array(uniq % 100, pa.int64()),
            "n_customers": pa.array(cnt.astype(np.int64)),
        }
    )



_KMV_K = 64
_KMV_M = 16**15


@register(
    "customer_year_overlap_kmv",
    oracle=f"""
    WITH ay AS (
        SELECT DISTINCT CAST(year(o_orderdate) AS BIGINT) AS yr,
               {md5_hex15_sql('CAST(o_custkey AS VARCHAR)')} AS h
        FROM orders
    ), pairs AS (
        SELECT DISTINCT yr AS y FROM ay
        WHERE yr + 1 IN (SELECT yr FROM ay)
    ), u AS (
        SELECT p.y, h,
               max(CASE WHEN ay.yr = p.y THEN 1 ELSE 0 END) AS in_a,
               max(CASE WHEN ay.yr = p.y + 1 THEN 1 ELSE 0 END) AS in_b
        FROM pairs p JOIN ay ON ay.yr IN (p.y, p.y + 1)
        GROUP BY p.y, h
    ), r AS (
        SELECT y, h, in_a, in_b,
               row_number() OVER (PARTITION BY y ORDER BY h) AS rn,
               CAST(count(*) OVER (PARTITION BY y) AS BIGINT) AS nd,
               CAST(sum(in_a * in_b) OVER (PARTITION BY y) AS BIGINT)
                   AS true_inter
        FROM u
    ), kth AS (
        SELECT y, h AS hk, nd, true_inter,
               CAST(CASE WHEN nd < {_KMV_K} THEN nd
                    ELSE (CAST({_KMV_K - 1} AS HUGEINT) * {_KMV_M}) // h
                    END AS BIGINT) AS est_union
        FROM r WHERE rn = least(nd, {_KMV_K})
    ), cc AS (
        SELECT y, CAST(sum(in_a * in_b) AS BIGINT) AS c
        FROM r WHERE rn <= {_KMV_K} GROUP BY y
    )
    SELECT kth.y AS yr_from, kth.y + 1 AS yr_to,
           nd AS true_union, est_union, true_inter,
           CAST((CAST(cc.c AS HUGEINT) * est_union)
                // least(nd, {_KMV_K}) AS BIGINT) AS est_inter,
           CAST(least(nd, {_KMV_K}) AS BIGINT) AS k_used
    FROM kth JOIN cc ON kth.y = cc.y
    """,
)
def customer_year_overlap_kmv(sf_dir: str):
    """KMV set-INTERSECTION estimation (Beyer et al. 2007) between
    consecutive years' active-customer sets, audited exactly — the
    sketch capability HLL lacks and the reason events_kmv_distinct's
    docstring advertises KMV: the bottom-k of a union is computable
    from per-set bottom-k's, and the fraction of those k samples lying
    in both sets estimates |A∩B| = (c/k) * est(|A∪B|). All-integer
    floor arithmetic on both sides; when a union is smaller than k the
    estimates collapse to the exact values (the audit's base case).
    Plan: per-batch distinct (year, custkey) partials; the
    customer-year grain table is driver-merged under the orders parquet
    row bound (the shared two-plan rule — past it, per-year bottom-k
    partials merge distributively exactly like events_kmv_distinct);
    output is |year pairs| rows."""
    import ray.data

    from sciscraper_ray.pipelines.plan import driver_frame

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "yr": pc.cast(pc.year(b["o_orderdate"]), pa.int64()),
                "ck": b["o_custkey"],
            }
        )
        return t.group_by(["yr", "ck"]).aggregate([])

    df = driver_frame(
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate"]
        ).map_batches(partial, batch_format="pyarrow"),
        what="customer_year_overlap_kmv",
    )
    kk = np.unique(
        df["yr"].to_numpy(np.int64) * 10_000_000_000
        + df["ck"].to_numpy(np.int64)
    )
    yr, ck = kk // 10_000_000_000, kk % 10_000_000_000
    uc = np.unique(ck)
    hcache = dict(zip(uc.tolist(), md5_hex15(str(int(c)) for c in uc).tolist()))
    by_year = {
        int(y): {hcache[int(c)] for c in ck[yr == y]} for y in np.unique(yr)
    }
    rows = []
    for y in sorted(by_year):
        if y + 1 not in by_year:
            continue
        a, b = by_year[y], by_year[y + 1]
        union = sorted(a | b)
        nd = len(union)
        k_used = min(nd, _KMV_K)
        bottom = union[:k_used]
        est_union = (
            nd if nd < _KMV_K else (_KMV_K - 1) * _KMV_M // union[_KMV_K - 1]
        )
        c = sum(1 for h in bottom if h in a and h in b)
        rows.append(
            (
                y, y + 1, nd, est_union, len(a & b),
                c * est_union // k_used, k_used,
            )
        )
    cols = list(zip(*rows))
    names = [
        "yr_from", "yr_to", "true_union", "est_union", "true_inter",
        "est_inter", "k_used",
    ]
    return pa.table(
        {n: pa.array(list(c), pa.int64()) for n, c in zip(names, cols)}
    )


@register(
    "table_constraint_audit",
    oracle="""
    SELECT 'orders_custkey_fk' AS constraint_name,
           (SELECT count(*) FROM orders) AS n_checked,
           (SELECT count(*) FROM orders
            WHERE o_custkey NOT IN (SELECT c_custkey FROM customer))
               AS n_violations
    UNION ALL
    SELECT 'customer_custkey_unique',
           (SELECT count(*) FROM customer),
           (SELECT count(*) - count(DISTINCT c_custkey) FROM customer)
    UNION ALL
    SELECT 'lineitem_quantity_range',
           (SELECT count(*) FROM lineitem),
           (SELECT count(*) FROM lineitem
            WHERE l_quantity < 1 OR l_quantity > 50)
    UNION ALL
    SELECT 'lineitem_discount_range',
           (SELECT count(*) FROM lineitem),
           (SELECT count(*) FROM lineitem
            WHERE l_discount < 0 OR l_discount > 0.1)
    UNION ALL
    SELECT 'documents_text_nonempty',
           (SELECT count(*) FROM documents),
           (SELECT count(*) FROM documents
            WHERE text IS NULL OR text = '')
    UNION ALL
    SELECT 'events_value_nonnegative',
           (SELECT count(*) FROM events),
           (SELECT count(*) FROM events WHERE value IS NULL OR value < 0)
    """,
)
def table_constraint_audit(sf_dir: str):
    """dbt-style data-quality constraint audit over the whole warehouse:
    one row per declared constraint with exact checked/violation counts
    — the CI gate a production ingest runs before promoting a snapshot
    (referential integrity, key uniqueness, domain ranges, non-null).
    Every check is a streaming aggregate: range/null gates are per-batch
    counter partials summed on the driver (two ints per batch); the FK
    check reduces the dimension side to distinct-key partials broadcast
    once (ray.put) and anti-probes the fact stream with one is_in per
    batch (the orders_anti_join plan — past ~50M distinct keys the
    documented scale path is the hash-bucketed co-partitioned anti
    join); uniqueness compares streamed row count vs distinct-partial
    union. No constraint materializes table rows — only counters move."""
    import ray
    import ray.data

    def count_violations(ds, checker) -> tuple[int, int]:
        def partial(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "n": pa.array([len(b)], pa.int64()),
                    "v": pa.array([int(checker(b))], pa.int64()),
                }
            )

        # bounded: one scalar row per block
        m = ds.map_batches(partial, batch_format="pyarrow").to_pandas().sum()
        return int(m["n"]), int(m["v"])

    rows: list[tuple[str, int, int]] = []

    # FK: orders.o_custkey -> customer.c_custkey (distinct-key broadcast)
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]
    )
    from sciscraper_ray.pipelines.plan import driver_frame

    parts = driver_frame(
        cust.map_batches(
            lambda b: pa.table({"k": pc.unique(b["c_custkey"])}),
            batch_format="pyarrow",
        ),
        what="table_constraint_audit (FK broadcast side)",
    )
    n_cust_rows = int(
        ray.data.read_parquet(
            f"{sf_dir}/customer.parquet", columns=["c_custkey"]
        ).count()
    )
    distinct_keys = parts["k"].unique()
    key_ref = ray.put(pa.array(distinct_keys, type=pa.int64()))

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"]
    )

    def fk_viol(b: pa.Table) -> int:
        hit = pc.is_in(b["o_custkey"], value_set=ray.get(key_ref))
        return len(b) - pc.sum(pc.cast(hit, pa.int64())).as_py()

    n, v = count_violations(orders, fk_viol)
    rows.append(("orders_custkey_fk", n, v))
    rows.append(
        ("customer_custkey_unique", n_cust_rows, n_cust_rows - len(distinct_keys))
    )

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_quantity", "l_discount"]
    )

    def qty_viol(b: pa.Table) -> int:
        q = b["l_quantity"].to_numpy(zero_copy_only=False)
        return int(((q < 1) | (q > 50)).sum())

    def disc_viol(b: pa.Table) -> int:
        x = b["l_discount"].to_numpy(zero_copy_only=False)
        return int(((x < 0) | (x > 0.1)).sum())

    n, v = count_violations(li, qty_viol)
    rows.append(("lineitem_quantity_range", n, v))
    n, v = count_violations(li, disc_viol)
    rows.append(("lineitem_discount_range", n, v))

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text"]
    )

    def text_viol(b: pa.Table) -> int:
        col = b["text"]
        empty = pc.sum(
            pc.cast(pc.equal(pc.fill_null(col, ""), ""), pa.int64())
        ).as_py()
        return int(empty or 0)

    n, v = count_violations(docs, text_viol)
    rows.append(("documents_text_nonempty", n, v))

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])

    def val_viol(b: pa.Table) -> int:
        col = b["value"]
        bad = col.null_count + int(
            (pc.sum(pc.cast(pc.less(pc.fill_null(col, 0.0), 0.0), pa.int64())).as_py() or 0)
        )
        return bad

    n, v = count_violations(ev, val_viol)
    rows.append(("events_value_nonnegative", n, v))

    return pa.table(
        {
            "constraint_name": pa.array([r[0] for r in rows], pa.string()),
            "n_checked": pa.array([r[1] for r in rows], pa.int64()),
            "n_violations": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


@register(
    "schema_evolution_union",
    oracle="""
    SELECT CASE WHEN o_orderdate < DATE '1999-01-01'
                THEN '<pre-evolution>' ELSE o_orderpriority END
               AS priority_label,
           count(*) AS n_orders,
           CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
               AS rev_c
    FROM orders
    GROUP BY priority_label
    """,
)
def schema_evolution_union(sf_dir: str):
    """Lakehouse schema-evolution read: two REAL parquet snapshot
    directories are written with different physical schemas (v1 is the
    pre-2019 export without o_orderpriority; v2 added the column — the
    classic additive evolution), then read back as separate Datasets,
    aligned (the missing column backfills a sentinel), unioned and
    aggregated — the reader-side unification every long-lived table
    needs because historical files are never rewritten. Both snapshots
    are written through Ray's partitioned parquet sink into a FRESH
    temporary directory (no cross-run cache to race on; the result is
    materialized before it is removed), so the query also
    round-trips the engine's own resumable-output layout. The aggregate
    is per-batch (label, n, rev_c) partials -> one tiny groupby-Sum;
    cents stay integer end-to-end. At 10^12 rows nothing changes: each
    snapshot streams, the union is lazy block concatenation (no data
    movement), and only label-bounded partials shuffle."""
    import tempfile

    import ray.data

    split = np.datetime64("1999-01-01")
    with tempfile.TemporaryDirectory(prefix="schema_evo_") as base:
        orders = ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderdate", "o_totalprice", "o_orderpriority"],
        )

        def v1_rows(b: pa.Table) -> pa.Table:
            d = b["o_orderdate"].to_numpy(zero_copy_only=False)
            return b.filter(pa.array(d < split)).drop_columns(
                ["o_orderpriority"]
            )

        def v2_rows(b: pa.Table) -> pa.Table:
            d = b["o_orderdate"].to_numpy(zero_copy_only=False)
            return b.filter(pa.array(d >= split))

        orders.map_batches(v1_rows, batch_format="pyarrow").write_parquet(
            f"{base}/v1"
        )
        orders.map_batches(v2_rows, batch_format="pyarrow").write_parquet(
            f"{base}/v2"
        )

        def tally(b: pa.Table, label) -> pa.Table:
            return pa.table(
                {"priority_label": label, "rev_c": pa.array(cents(b["o_totalprice"]))}
            )

        def label_v1(b: pa.Table) -> pa.Table:
            return tally(b, pa.array(["<pre-evolution>"] * len(b), pa.string()))

        def label_v2(b: pa.Table) -> pa.Table:
            return tally(b, b["o_orderpriority"])

        d1 = ray.data.read_parquet(f"{base}/v1").map_batches(
            label_v1, batch_format="pyarrow"
        )
        d2 = ray.data.read_parquet(f"{base}/v2").map_batches(
            label_v2, batch_format="pyarrow"
        )
        return (
            group_count(d1.union(d2), "priority_label", {"rev_c": "rev_c"}, count="n_orders")
            .materialize()
        )


@register(
    "orders_incremental_agg",
    oracle="""
    WITH tagged AS (
        SELECT CASE WHEN o_orderdate < DATE '1999-01-01'
                    THEN 'base' ELSE 'delta' END AS phase,
               CAST(year(o_orderdate) * 100 + month(o_orderdate) AS BIGINT)
                   AS month,
               CAST(round(o_totalprice * 100) AS BIGINT) AS c
        FROM orders
    ), parts AS (
        SELECT phase, month, count(*) AS n_orders,
               CAST(sum(c) AS BIGINT) AS rev_c
        FROM tagged GROUP BY phase, month
    )
    SELECT phase, month, n_orders, rev_c FROM parts
    UNION ALL
    SELECT 'merged' AS phase, month,
           CAST(sum(n_orders) AS BIGINT) AS n_orders,
           CAST(sum(rev_c) AS BIGINT) AS rev_c
    FROM parts GROUP BY month
    """,
)
def orders_incremental_agg(sf_dir: str):
    """Incremental view maintenance, made visible: the monthly revenue
    view is computed as BASE partials (pre-1999 snapshot) plus DELTA
    partials (the new arrivals), then MERGED by adding partials — never
    rescanning the base — and all three phases are emitted so the
    associativity of the maintenance step is itself oracle-checked
    (merged must equal the direct full-table aggregate, which is what
    the oracle computes for the 'merged' rows). One scan produces both
    phases' partials (the phase tag is derived per batch); the shuffle
    carries only (phase, month) partial rows bounded by the calendar;
    the merge is a month-bounded driver fold. This is the engine
    contract that lets a 10^12-row table absorb a daily delta with
    delta-sized work."""
    import ray.data

    split = np.datetime64("1999-01-01")
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderdate", "o_totalprice"]
    )

    def partial(b: pa.Table) -> pa.Table:
        d = b["o_orderdate"].to_numpy(zero_copy_only=False)
        dd = d.astype("datetime64[M]")
        yrs = dd.astype("datetime64[Y]").astype(np.int64) + 1970
        mos = (dd.astype(np.int64) % 12) + 1
        month = yrs * 100 + mos
        phase = np.where(d < split, "base", "delta")
        return pa.table(
            {
                "phase": pa.array(phase, pa.string()),
                "month": pa.array(month, pa.int64()),
                "c": pa.array(cents(b["o_totalprice"])),
            }
        )

    parts = group_count(
        orders.map_batches(partial, batch_format="pyarrow"),
        ["phase", "month"],
        {"c": "rev_c"},
        count="n_orders",
    ).to_pandas()  # bounded: 2 x calendar months
    merged = (
        parts.groupby("month", as_index=False)[["n_orders", "rev_c"]]
        .sum()
        .assign(phase="merged")
    )
    import pandas as pd

    out = pd.concat(
        [parts[["phase", "month", "n_orders", "rev_c"]], merged], axis=0
    )
    return pa.table(
        {
            "phase": pa.array(out["phase"].tolist(), pa.string()),
            "month": pa.array(out["month"].to_numpy(np.int64)),
            "n_orders": pa.array(out["n_orders"].to_numpy(np.int64)),
            "rev_c": pa.array(out["rev_c"].to_numpy(np.int64)),
        }
    )



_BLOOM_M = 16384  # bits; fixed so the oracle text is sf-independent
_BLOOM_K = 3


@register(
    "bloom_fpr_audit",
    oracle=f"""
    WITH a AS (SELECT p_partkey AS key FROM part WHERE p_partkey % 2 = 0),
    b AS (SELECT p_partkey AS key FROM part WHERE p_partkey % 2 = 1),
    bits AS (
        SELECT DISTINCT
            ({md5_hex15_sql("CAST(i AS VARCHAR) || ':' || CAST(key AS VARCHAR)")}
             % {_BLOOM_M}) AS pos
        FROM a, unnest(range({_BLOOM_K})) AS t(i)
    ),
    probe AS (
        SELECT b.key,
            ({md5_hex15_sql("CAST(i AS VARCHAR) || ':' || CAST(key AS VARCHAR)")}
             % {_BLOOM_M}) AS pos
        FROM b, unnest(range({_BLOOM_K})) AS t(i)
    ),
    fp AS (
        SELECT p.key FROM probe p JOIN bits ON bits.pos = p.pos
        GROUP BY p.key HAVING count(*) = {_BLOOM_K}
    )
    SELECT (SELECT count(*) FROM b) AS n_probes,
           (SELECT count(*) FROM fp) AS n_false_positives,
           (SELECT count(*) FROM bits) AS n_bits_set
    """,
)
def bloom_fpr_audit(sf_dir: str):
    """Bloom-filter quality measurement with a FULL SQL oracle: insert
    the even part keys (k={_BLOOM_K} md5-salted positions into an
    m=16384-bit filter), probe the disjoint odd keys, and report the
    EXACT measured false-positive count plus the realized fill — the
    capacity-planning audit every sketch deployment needs (the same
    md5-position scheme as the production bloom_semijoin, so this
    measures that filter's real FPR at each corpus scale, including the
    saturation regime where an undersized filter goes useless). Plan:
    the build side shrinks to per-batch DISTINCT position sets (never
    more than m rows leave a batch) OR-folded on the driver into one
    2 KiB bitmask; the probe side streams against the broadcast mask
    and emits two counters per batch. Nothing anywhere scales past m
    bits + counters — the textbook reason blooms work at 10^12 rows."""
    import ray
    import ray.data

    def positions(keys: np.ndarray) -> np.ndarray:
        h = md5_hex15(f"{i}:{int(key)}" for key in keys for i in range(_BLOOM_K))
        return h.reshape(len(keys), _BLOOM_K) % _BLOOM_M

    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey"]
    )

    def build_partial(b: pa.Table) -> pa.Table:
        k = b["p_partkey"].to_numpy(zero_copy_only=False)
        evens = k[k % 2 == 0]
        pos = np.unique(positions(evens).ravel()) if evens.size else np.array([], np.int64)
        return pa.table({"pos": pa.array(pos, pa.int64())})

    pos_rows = (
        part.map_batches(build_partial, batch_format="pyarrow")
        .to_pandas()["pos"]  # bounded: bloom bit positions (filter width)
        .to_numpy()
    )
    mask = np.zeros(_BLOOM_M, bool)
    mask[pos_rows] = True
    mask_ref = ray.put(mask)

    class Probe:
        def __init__(self):
            self.mask = ray.get(mask_ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            k = b["p_partkey"].to_numpy(zero_copy_only=False)
            odds = k[k % 2 == 1]
            if odds.size:
                hit = self.mask[positions(odds)].all(axis=1)
                fp = int(hit.sum())
            else:
                fp = 0
            return pa.table(
                {
                    "n_probes": pa.array([int(odds.size)], pa.int64()),
                    "n_false_positives": pa.array([fp], pa.int64()),
                }
            )

    m = (
        part.map_batches(Probe, batch_format="pyarrow", concurrency=(1, 4))
        .to_pandas()  # bounded: one scalar row per block
        .sum()
    )
    return pa.table(
        {
            "n_probes": pa.array([int(m["n_probes"])], pa.int64()),
            "n_false_positives": pa.array(
                [int(m["n_false_positives"])], pa.int64()
            ),
            "n_bits_set": pa.array([int(mask.sum())], pa.int64()),
        }
    )


@register(
    "orders_key_islands",
    oracle="""
    WITH k AS (
        SELECT DISTINCT o_orderkey AS key FROM orders
        WHERE CAST(round(o_totalprice * 100) AS BIGINT) % 7 <> 0
    ),
    d AS (SELECT key, key - lag(key) OVER (ORDER BY key) AS gap FROM k),
    isl AS (
        SELECT key, sum(CASE WHEN gap IS NULL OR gap > 1 THEN 1 ELSE 0 END)
                    OVER (ORDER BY key) AS island_id
        FROM d
    ),
    ilens AS (SELECT island_id, count(*) AS len FROM isl GROUP BY island_id)
    SELECT (SELECT count(*) FROM k) AS n_keys,
           (SELECT count(*) FROM ilens) AS n_islands,
           (SELECT CAST(max(len) AS BIGINT) FROM ilens) AS longest_island,
           (SELECT CAST(coalesce(max(gap - 1), 0) AS BIGINT)
            FROM d WHERE gap > 1) AS max_gap
    """,
)
def orders_key_islands(sf_dir: str, num_ranges: int = 16):
    """Exact gaps-and-islands over a GLOBAL key space without a global
    sort: surviving order keys (a deterministic retention filter stands
    in for deletes) are range-partitioned, every partition solves its
    islands locally with one np.diff, and the driver stitches only the
    B boundary summaries — the parallel run-length merge. Each range
    reports (first/last key, prefix/suffix run, local islands, longest,
    max gap); two adjacent ranges merge an island iff last+1 == first,
    and a range that is one single island forwards the growing run to
    its successor, so an island spanning MANY ranges is measured
    exactly. This is the segmented-scan decomposition every distributed
    RLE/compaction planner uses; exchange volume is one B-way partition
    of bare int64 keys plus B summary rows — at 10^12 keys the driver
    still folds only B tuples."""
    import pandas as pd
    import ray.data

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )

    def keys_partial(b: pa.Table) -> pa.Table:
        cts = cents(b["o_totalprice"])
        k = b["o_orderkey"].to_numpy(zero_copy_only=False)[cts % 7 != 0]
        return pa.table({"key": pa.array(np.unique(k), pa.int64())})

    keys = orders.map_batches(keys_partial, batch_format="pyarrow")
    # sample-free balanced ranges from footer stats would need the true
    # min/max; a cheap Min/Max aggregate pass is calendar-tiny either way
    mm = keys.map_batches(
        lambda b: pa.table(
            {
                "lo": pa.array([int(b["key"][0].as_py())], pa.int64()),
                "hi": pa.array(
                    [int(b["key"][-1].as_py())], pa.int64()
                ),
            }
        )
        if len(b)
        else pa.table(
            {"lo": pa.array([], pa.int64()), "hi": pa.array([], pa.int64())}
        ),
        batch_format="pyarrow",
        # bounded: one 16-byte min/max row per block
    ).to_pandas()
    lo, hi = int(mm["lo"].min()), int(mm["hi"].max())
    width = max(1, (hi - lo + num_ranges) // num_ranges)

    def assign(b: pa.Table) -> pa.Table:
        k = b["key"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "key": b["key"],
                "r": pa.array((k - lo) // width, pa.int64()),
            }
        )

    def range_summary(g: "pd.DataFrame") -> "pd.DataFrame":
        k = np.unique(g["key"].to_numpy())
        d = np.diff(k)
        brk = d > 1
        starts = np.r_[0, np.flatnonzero(brk) + 1]
        ends = np.r_[np.flatnonzero(brk), len(k) - 1]
        lens = k[ends] - k[starts] + 1
        return pd.DataFrame(
            {
                "r": [int(g["r"].iloc[0])],
                "n_keys": [len(k)],
                "n_islands": [len(starts)],
                "first_key": [int(k[0])],
                "last_key": [int(k[-1])],
                "prefix_run": [int(lens[0])],
                "suffix_run": [int(lens[-1])],
                "longest": [int(lens.max())],
                "max_gap": [int((d[brk] - 1).max()) if brk.any() else 0],
            }
        )

    summaries = (
        keys.map_batches(assign, batch_format="pyarrow")
        .groupby("r")
        .map_groups(range_summary, batch_format="pandas")
        .to_pandas()  # bounded: B range summaries
        .sort_values("r")
    )
    tot_keys = int(summaries["n_keys"].sum())
    tot_islands = int(summaries["n_islands"].sum())
    longest = int(summaries["longest"].max())
    max_gap = int(summaries["max_gap"].max())
    open_run = None
    prev_last = None
    for rg in summaries.itertuples():
        if prev_last is not None:
            gap = rg.first_key - prev_last - 1
            if gap == 0:
                tot_islands -= 1
                merged = open_run + rg.prefix_run
                longest = max(longest, merged)
                open_run = merged if rg.n_islands == 1 else rg.suffix_run
            else:
                max_gap = max(max_gap, gap)
                open_run = rg.suffix_run
        else:
            open_run = rg.suffix_run
        prev_last = rg.last_key
    return pa.table(
        {
            "n_keys": pa.array([tot_keys], pa.int64()),
            "n_islands": pa.array([tot_islands], pa.int64()),
            "longest_island": pa.array([longest], pa.int64()),
            "max_gap": pa.array([max_gap], pa.int64()),
        }
    )


@register(
    "orders_seasonal_decompose",
    oracle="""
    WITH m AS (
        SELECT CAST(year(o_orderdate) * 100 + month(o_orderdate) AS BIGINT)
                   AS ym,
               CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
                   AS revenue_cents
        FROM orders GROUP BY ym
    ),
    w AS (
        SELECT ym, revenue_cents,
               row_number() OVER (ORDER BY ym) AS rn,
               count(*) OVER () AS n,
               CAST(sum(revenue_cents) OVER (
                   ORDER BY ym ROWS BETWEEN 6 PRECEDING AND 6 FOLLOWING
               ) AS BIGINT) AS s13,
               lag(revenue_cents, 6) OVER (ORDER BY ym) AS lag6,
               lead(revenue_cents, 6) OVER (ORDER BY ym) AS lead6
        FROM m
    ),
    v AS (
        SELECT ym, revenue_cents, ym % 100 AS mo,
               2 * s13 - lag6 - lead6 AS trend_num
        FROM w WHERE rn BETWEEN 7 AND n - 6
    ),
    s AS (
        SELECT mo,
               CAST(sum(24 * revenue_cents - trend_num) AS BIGINT)
                   AS det_sum,
               count(*) AS n_mo
        FROM v GROUP BY mo
    )
    SELECT v.ym, v.revenue_cents,
           CAST(v.trend_num AS DOUBLE) / 24 AS trend_cents,
           CAST(24 * v.revenue_cents - v.trend_num AS DOUBLE) / 24
               AS detrended_cents,
           CAST(s.det_sum AS DOUBLE) / (24 * s.n_mo) AS seasonal_cents
    FROM v JOIN s ON s.mo = v.mo
    """,
)
def orders_seasonal_decompose(sf_dir: str):
    """Classic 2x12 centered-moving-average seasonal decomposition of the
    monthly revenue series (the textbook additive decompose a demand
    planner runs): trend_t is the 13-month window with half-weight
    endpoints, kept EXACT as the integer numerator
    trend_num = m[t-6] + 2*sum(m[t-5..t+5]) + m[t+6]
              = 2*S13 - m[t-6] - m[t+6]
    over cents (denominator 24 divided out ONCE at emit, identically on
    both engines — the round-half-even lesson means no intermediate
    float ever exists), detrended_t = 24*m_t - trend_num (integer), and
    the seasonal index is the month-of-year mean of the detrended
    numerators (uncentered, documented). Plan: per-batch (ym, cents)
    partials groupby-Sum into a CALENDAR-bounded table (~80 months for
    seven years — never row-bounded), the driver runs the window fold
    with two np.slides; at 10^12 orders the exchange is month-grain
    partials and everything after is O(|months|)."""
    import ray.data

    def partial(b: pa.Table) -> pa.Table:
        ym = (
            pc.year(b["o_orderdate"]).to_numpy(zero_copy_only=False) * 100
            + pc.month(b["o_orderdate"]).to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        return pa.table({"ym": pa.array(ym), "cents": pa.array(cents(b["o_totalprice"]))})

    m = (
        group_count(
            ray.data.read_parquet(
                f"{sf_dir}/orders.parquet", columns=["o_orderdate", "o_totalprice"]
            ).map_batches(partial, batch_format="pyarrow"),
            "ym",
            {"cents": "cents"},
            count=None,
        )
        .to_pandas()  # bounded: calendar months (~80 rows)
        .sort_values("ym")
    )
    ym = m["ym"].to_numpy(np.int64)
    cts = m["cents"].to_numpy(np.int64)
    n = len(cts)
    if n < 13:
        return pa.table(
            {
                "ym": pa.array([], pa.int64()),
                "revenue_cents": pa.array([], pa.int64()),
                "trend_cents": pa.array([], pa.float64()),
                "detrended_cents": pa.array([], pa.float64()),
                "seasonal_cents": pa.array([], pa.float64()),
            }
        )
    win = np.lib.stride_tricks.sliding_window_view(cts, 13)
    s13 = win.sum(axis=1)  # rows 7..n-6 (0-based 6..n-7)
    mid_ym = ym[6 : n - 6]
    mid_cents = cts[6 : n - 6]
    trend_num = 2 * s13 - cts[: n - 12] - cts[12:]
    det_num = 24 * mid_cents - trend_num
    mo = mid_ym % 100
    det_sum = np.zeros(13, np.int64)
    n_mo = np.zeros(13, np.int64)
    np.add.at(det_sum, mo, det_num)
    np.add.at(n_mo, mo, 1)
    seasonal = det_sum[mo].astype(np.float64) / (24.0 * n_mo[mo])
    return pa.table(
        {
            "ym": pa.array(mid_ym, pa.int64()),
            "revenue_cents": pa.array(mid_cents, pa.int64()),
            "trend_cents": pa.array(
                trend_num.astype(np.float64) / 24.0, pa.float64()
            ),
            "detrended_cents": pa.array(
                det_num.astype(np.float64) / 24.0, pa.float64()
            ),
            "seasonal_cents": pa.array(seasonal, pa.float64()),
        }
    )


def _monthly_order_cents(sf_dir: str):
    """Order totals per month in integer cents, as an (mi, cents) frame
    sorted by month index mi = year * 12 + month - 1. Per-batch partials
    bound the exchange by the month grid."""
    import ray.data

    def partials(batch: pa.Table) -> pa.Table:
        d = pc.cast(batch["o_orderdate"], pa.timestamp("us"))
        yr = pc.year(d).to_numpy(zero_copy_only=False).astype(np.int64)
        mo = pc.month(d).to_numpy(zero_copy_only=False).astype(np.int64)
        t = pa.table({"mi": yr * 12 + mo - 1, "cents": cents(batch["o_totalprice"])})
        return group_count_batch(t, ["mi"], {"cents": "cents"}, count=None)

    return (
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_orderdate", "o_totalprice"]
        )
        .map_batches(partials, batch_format="pyarrow")
        .to_pandas()  # bounded: |months| x blocks
        .groupby("mi", as_index=False)
        .sum()
        .sort_values("mi")
    )


@register(
    "orders_monthly_theilsen",
    oracle="""
    WITH m AS (
        SELECT CAST(date_part('year', o_orderdate) * 12
                    + date_part('month', o_orderdate) - 1 AS BIGINT) AS mi,
               SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS cents
        FROM orders GROUP BY 1
    ), sl AS (
        SELECT (CAST(y.cents AS DOUBLE) - CAST(x.cents AS DOUBLE))
                   / (y.mi - x.mi) AS s
        FROM m x JOIN m y ON y.mi > x.mi
    )
    SELECT CAST(count(*) AS BIGINT) AS n_slopes, median(s) AS slope_cents
    FROM sl
    """,
)
def orders_monthly_theilsen(sf_dir: str):
    """Theil-Sen robust trend of monthly order revenue: the median of
    all pairwise month-over-month slopes — the estimator that shrugs
    off the outlier months a least-squares fit chases (up to ~29%
    contamination). Monthly integer-cents totals come from per-batch
    partials (exchange bounded by the MONTH grid); the O(M^2) pairwise
    slope set is months-bounded (~80 months -> ~3k slopes), computed in
    one numpy broadcast on the driver, never per order row. median() on
    an even count averages the two middle doubles on both sides, so the
    statistic hashes bit-identically."""
    m = _monthly_order_cents(sf_dir)
    mi = m["mi"].to_numpy(np.int64)
    cts = m["cents"].to_numpy(np.int64).astype(np.float64)
    di = mi[None, :] - mi[:, None]
    iu = np.triu_indices(len(mi), k=1)
    slopes = (cts[None, :] - cts[:, None])[iu] / di[iu]
    return pa.table(
        {
            "n_slopes": pa.array([len(slopes)], pa.int64()),
            "slope_cents": pa.array([float(np.median(slopes))], pa.float64()),
        }
    )


@register(
    "graph_bipartite_projection",
    oracle="""
    WITH e AS (
        SELECT DISTINCT l_partkey AS p, l_suppkey AS s FROM lineitem
    ), pairs AS (
        SELECT x.s AS s1, y.s AS s2, CAST(count(*) AS BIGINT) AS weight
        FROM e x JOIN e y ON x.p = y.p AND x.s < y.s
        GROUP BY x.s, y.s
    )
    SELECT s1, s2, weight FROM (
        SELECT s1, s2, weight,
               row_number() OVER (ORDER BY weight DESC, s1, s2) AS rk
        FROM pairs WHERE weight >= 2
    ) WHERE rk <= 1000
    """,
)
def graph_bipartite_projection(sf_dir: str):
    """Bipartite projection: collapse the part <-> supplier graph onto
    suppliers, weighting each supplier pair by shared-part count — the
    co-occurrence graph construction behind 'suppliers like this one' /
    co-purchase recommenders, reported as the top-1000 pairs of weight
    >= 2 with a total (weight DESC, s1, s2) order. Per-batch DISTINCT
    (part, supplier) partials feed one groupby on part; pair expansion
    happens inside the per-part bucket (C(deg,2) rows), so the exchange
    carries edges and pair-partials, never lineitem rows. The quadratic
    in part degree is the real scale hazard: mega-degree parts need a
    degree cap or per-part sampling — documented, not silently applied
    (this fixture's max degree is single-digit)."""
    import pandas as pd

    import ray.data

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
    )

    def distinct_edges(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "p": batch["l_partkey"].to_numpy(zero_copy_only=False),
                "s": batch["l_suppkey"].to_numpy(zero_copy_only=False),
            }
        ).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    from sciscraper_ray.pipelines.plan import driver_frame

    e = (
        driver_frame(
            li.map_batches(distinct_edges, batch_format="pyarrow"),
            what="graph_bipartite_projection",
        )
        .drop_duplicates()
        .sort_values(["p", "s"])
    )
    p = e["p"].to_numpy(np.int64)
    s = e["s"].to_numpy(np.int64)
    # per-part segments -> vectorized pair expansion within each segment
    starts = np.flatnonzero(np.concatenate(([True], p[1:] != p[:-1])))
    ends = np.concatenate((starts[1:], [len(p)]))
    s1_parts, s2_parts = [], []
    for a, b in zip(starts, ends):
        seg = s[a:b]
        if len(seg) >= 2:
            i, j = np.triu_indices(len(seg), k=1)
            s1_parts.append(seg[i])
            s2_parts.append(seg[j])
    if not s1_parts:
        return pa.table(
            {
                "s1": pa.array([], pa.int64()),
                "s2": pa.array([], pa.int64()),
                "weight": pa.array([], pa.int64()),
            }
        )
    s1 = np.concatenate(s1_parts)
    s2 = np.concatenate(s2_parts)
    dfp = (
        pd.DataFrame({"s1": s1, "s2": s2})
        .groupby(["s1", "s2"], as_index=False)
        .size()
        .rename(columns={"size": "weight"})
    )
    dfp = dfp[dfp["weight"] >= 2].sort_values(
        ["weight", "s1", "s2"], ascending=[False, True, True]
    ).head(1000)
    return pa.table(
        {
            "s1": pa.array(dfp["s1"].to_numpy(np.int64), pa.int64()),
            "s2": pa.array(dfp["s2"].to_numpy(np.int64), pa.int64()),
            "weight": pa.array(dfp["weight"].to_numpy(np.int64), pa.int64()),
        }
    )


@register(
    "lineitem_simpson_audit",
    oracle="""
    WITH x AS (
        SELECT l_returnflag AS grp,
               CAST(round(l_discount * 100) AS BIGINT) AS d,
               CAST(l_quantity AS BIGINT) AS q
        FROM lineitem
    ), per AS (
        SELECT grp, CAST(count(*) AS BIGINT) AS n,
               CAST(sum(d * q) AS BIGINT) AS sdq,
               CAST(sum(d) AS BIGINT) AS sd,
               CAST(sum(q) AS BIGINT) AS sq
        FROM x GROUP BY grp
    ), tot AS (
        SELECT 'ALL' AS grp, CAST(sum(n) AS BIGINT) AS n,
               CAST(sum(sdq) AS BIGINT) AS sdq,
               CAST(sum(sd) AS BIGINT) AS sd,
               CAST(sum(sq) AS BIGINT) AS sq
        FROM per
    ), u AS (
        SELECT * FROM per UNION ALL SELECT * FROM tot
    )
    SELECT grp, n,
           CAST(CASE WHEN n * sdq - sd * sq > 0 THEN 1
                     WHEN n * sdq - sd * sq < 0 THEN -1 ELSE 0 END
               AS BIGINT) AS cov_sign
    FROM u
    """,
)
def lineitem_simpson_audit(sf_dir: str):
    """Simpson's-paradox detector for the discount-quantity relationship:
    the SIGN of the covariance numerator n*Σxy - Σx*Σy (exact int64 on
    integer discount-percent and quantity) per return-flag stratum and
    for the pooled table — when the pooled sign disagrees with every
    stratum's sign, any dashboard aggregating across the strata reports
    a reversed trend, the classic aggregation hazard audit. Per-batch
    (group, n, Σxy, Σx, Σy) moment partials make the exchange
    groups-bounded; the sign test is exact integer arithmetic, no
    doubles anywhere. Overflow note (ADVICE r4): the numerator
    n*Σxy - Σx*Σy exceeds int64 around sf>=100, so the driver-side
    sign is computed on PYTHON ints (the int() casts below are
    load-bearing — numpy would wrap silently, flipping the sign); the
    int64 moment SUMS themselves stay in range to ~sf 10^4, and the
    DuckDB oracle errors loudly rather than wrapping past that."""
    import ray.data

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_discount", "l_quantity"],
    )

    def moments(batch: pa.Table) -> pa.Table:
        g = batch["l_returnflag"].to_numpy(zero_copy_only=False)
        d = cents(batch["l_discount"])
        q = batch["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = pa.table({"grp": g, "sdq": d * q, "sd": d, "sq": q})
        return group_count_batch(t, ["grp"], {"sdq": "sdq", "sd": "sd", "sq": "sq"}, count="n")

    per = (
        ds.map_batches(moments, batch_format="pyarrow")
        .to_pandas()  # bounded: |groups| x blocks
        .groupby("grp", as_index=False)
        .sum()
    )
    tot = per.drop(columns="grp").sum()
    rows = [(r.grp, int(r.n), int(r.sdq), int(r.sd), int(r.sq)) for r in per.itertuples(index=False)]
    rows.append(("ALL", int(tot["n"]), int(tot["sdq"]), int(tot["sd"]), int(tot["sq"])))
    grps, ns, signs = [], [], []
    for grp, n, sdq, sd, sq in rows:
        num = n * sdq - sd * sq
        grps.append(grp)
        ns.append(n)
        signs.append(1 if num > 0 else (-1 if num < 0 else 0))
    return pa.table(
        {
            "grp": pa.array(grps, pa.string()),
            "n": pa.array(ns, pa.int64()),
            "cov_sign": pa.array(signs, pa.int64()),
        }
    )


@register(
    "orders_mann_kendall",
    oracle="""
    WITH m AS (
        SELECT CAST(date_part('year', o_orderdate) * 12
                    + date_part('month', o_orderdate) - 1 AS BIGINT) AS mi,
               SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS cents
        FROM orders GROUP BY 1
    ), s AS (
        SELECT CAST(sum(CASE WHEN y.cents > x.cents THEN 1
                             WHEN y.cents < x.cents THEN -1 ELSE 0 END)
                   AS BIGINT) AS s_stat
        FROM m x JOIN m y ON y.mi > x.mi
    ), n AS (SELECT CAST(count(*) AS BIGINT) AS n FROM m)
    SELECT n.n AS n_months, s.s_stat,
           CAST(n.n * (n.n - 1) * (2 * n.n + 5) AS BIGINT) AS var18,
           CAST(s.s_stat AS DOUBLE)
               / sqrt(CAST(n.n * (n.n - 1) * (2 * n.n + 5) AS DOUBLE) / 18)
               AS z
    FROM s, n
    """,
)
def orders_mann_kendall(sf_dir: str):
    """Mann-Kendall monotonic-trend test on monthly revenue — the
    nonparametric companion to orders_monthly_theilsen (same pairwise
    month structure; Kendall's S = sum of pairwise sign comparisons is
    EXACT int64, and the no-ties variance n(n-1)(2n+5)/18 is carried as
    its integer numerator so only the final z is a double in identical
    arithmetic order). Month-bounded exchange (integer-cents partials),
    one vectorized sign-matrix pass on the driver — the standard
    'is this KPI really drifting' gate that doesn't assume normality."""
    m = _monthly_order_cents(sf_dir)
    c = m["cents"].to_numpy(np.int64)
    n = len(c)
    diff = np.sign(c[None, :] - c[:, None])
    iu = np.triu_indices(n, k=1)
    s_stat = int(diff[iu].sum())
    var18 = n * (n - 1) * (2 * n + 5)
    z = float(s_stat) / np.sqrt(float(var18) / 18)
    return pa.table(
        {
            "n_months": pa.array([n], pa.int64()),
            "s_stat": pa.array([s_stat], pa.int64()),
            "var18": pa.array([var18], pa.int64()),
            "z": pa.array([z], pa.float64()),
        }
    )
