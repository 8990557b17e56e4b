"""Retrieval / model-inference / index-build tier (BM25, LR, inverted index, LM stats).

Split from pipelines/queries.py (round 4); registration side effects
only — import order is fixed by the package __init__.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from sciscraper_ray.words import sql_in_list

from sciscraper_ray.kernels.md5 import md5_hex15, md5_hex15_sql
from sciscraper_ray.pipelines.queries._shared import (
    _SQL_TOKENS,
    _docs,
    register,
)
from sciscraper_ray.pipelines.queries.text_analysis import (
    _lang_sql,
    lang_id_batch,
)
from sciscraper_ray.stages.relational import group_count, group_count_batch


# --------------------------------------------------------------------------
# Retrieval / model-inference / index-build tier (round 3)
# --------------------------------------------------------------------------

_BM25_QUERIES = (
    (0, ("join", "hash", "scan")),
    (1, ("filter", "merge", "vector")),
    (2, ("customer", "order", "line")),
    (3, ("batch", "row", "column")),
    (4, ("small", "slow", "data")),
)
_BM25_K1 = 1.2
_BM25_B = 0.75
_BM25_TOPK = 10
_BM25_TERMS = tuple(sorted({t for _, ts in _BM25_QUERIES for t in ts}))


def _bm25_oracle() -> str:
    terms_sql = "(" + ", ".join(f"'{t}'" for t in _BM25_TERMS) + ")"
    qvals = ", ".join(
        f"({qid}, '{t1}', '{t2}', '{t3}')" for qid, (t1, t2, t3) in _BM25_QUERIES
    )
    # the score expression mirrors the Ray kernel OPERATION FOR OPERATION
    # (same literals, same association) so IEEE doubles match bit-exactly:
    # idf = ln(1 + (n - df + 0.5)/(df + 0.5));
    # s = idf * (tf*2.2) / (tf + 1.2*(0.25 + 0.75*(dl/(total/n))))
    return f"""
    WITH dl AS (
        SELECT doc_id, CAST(len({_SQL_TOKENS}) AS DOUBLE) AS dl FROM documents
    ), corpus AS (
        SELECT CAST(count(*) AS DOUBLE) AS n, sum(dl) AS total FROM dl
    ), toks AS (
        SELECT doc_id, unnest({_SQL_TOKENS}) AS token FROM documents
    ), tf AS (
        SELECT doc_id, token, CAST(count(*) AS DOUBLE) AS tf
        FROM toks WHERE token IN {terms_sql} GROUP BY doc_id, token
    ), df AS (
        SELECT token, CAST(count(DISTINCT doc_id) AS DOUBLE) AS df
        FROM toks WHERE token IN {terms_sql} GROUP BY token
    ), ts AS (
        SELECT tf.doc_id, tf.token,
               ln(1 + (g.n - f.df + 0.5) / (f.df + 0.5))
               * (tf.tf * 2.2)
               / (tf.tf + {_BM25_K1} * ((1 - {_BM25_B}) + {_BM25_B} * (d.dl / (g.total / g.n)))) AS s
        FROM tf
        JOIN df f ON f.token = tf.token
        JOIN dl d ON d.doc_id = tf.doc_id
        CROSS JOIN corpus g
    ), scored AS (
        SELECT q.query_id, d.doc_id,
               COALESCE(s1.s, 0) + COALESCE(s2.s, 0) + COALESCE(s3.s, 0) AS score
        FROM dl d
        CROSS JOIN (VALUES {qvals}) q(query_id, t1, t2, t3)
        LEFT JOIN ts s1 ON s1.doc_id = d.doc_id AND s1.token = q.t1
        LEFT JOIN ts s2 ON s2.doc_id = d.doc_id AND s2.token = q.t2
        LEFT JOIN ts s3 ON s3.doc_id = d.doc_id AND s3.token = q.t3
    )
    SELECT CAST(query_id AS BIGINT) AS query_id, doc_id, score
    FROM (
        SELECT *, row_number() OVER (
            PARTITION BY query_id ORDER BY score DESC, doc_id ASC
        ) AS rn FROM scored
    ) WHERE rn <= {_BM25_TOPK}
    """


@register("doc_bm25_topk", oracle=_bm25_oracle())
def doc_bm25_topk(sf_dir: str):
    """BM25 retrieval scoring (Robertson/Sparck-Jones; the lexical-search
    op of a retrieval pipeline): score every document against a fixed
    query set, emit global top-10 per query.

    Scale shape: pass 1 streams corpus stats — (N, total_len) plus df for
    the 15 query terms only (per-batch partials, a 15-row exchange).
    Pass 2 broadcasts those constants and scores each batch vectorized
    (one token-mask + bincount per term), keeping only a per-batch top-k
    partial per query; the driver merge sees <= batches * Q * k candidate
    rows, never the corpus. Per-batch top-k is lossless under the global
    (score desc, doc_id asc) order: every kept candidate within a batch
    precedes its dropped batch-mates in the same order.

    Float exactness: idf/length-norm expressions are evaluated in the
    same literal association as the SQL oracle, and the 3-term sum is a
    fixed left-to-right add, so scores are IEEE-bit-identical (no
    rounding on either side)."""
    import ray

    from sciscraper_ray.kernels.tokenize import tokenize_column

    def stats_partial(batch: pa.Table) -> pa.Table:
        toks = tokenize_column(batch["text"]).combine_chunks()
        flat = pc.list_flatten(toks)
        par = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        rows = [("", len(batch), int(len(flat)))]  # "": (n_docs, total_len)
        for t in _BM25_TERMS:
            mask = pc.equal(flat, t).to_numpy(zero_copy_only=False)
            df_t = len(np.unique(par[mask]))
            rows.append((t, df_t, 0))
        term, a, b = zip(*rows)
        return pa.table(
            {
                "term": pa.array(term),
                "a": pa.array(np.array(a, np.int64)),
                "b": pa.array(np.array(b, np.int64)),
            }
        )

    stats = group_count(
        _docs(sf_dir).map_batches(stats_partial, batch_format="pyarrow"),
        "term",
        {"a": "a", "b": "b"},
        count=None,
    ).to_pandas()  # bounded: vocabulary term stats (broadcast side)
    srow = stats[stats["term"] == ""].iloc[0]
    n_docs, total_len = float(srow["a"]), float(srow["b"])
    df = {r["term"]: float(r["a"]) for _, r in stats.iterrows() if r["term"]}
    avgdl = total_len / n_docs
    idf = {
        t: np.log(1 + (n_docs - df.get(t, 0.0) + 0.5) / (df.get(t, 0.0) + 0.5))
        for t in _BM25_TERMS
    }
    consts = ray.put((idf, avgdl))

    def score_partial(batch: pa.Table) -> pa.Table:
        idf_, avgdl_ = ray.get(consts)
        toks = tokenize_column(batch["text"]).combine_chunks()
        flat = pc.list_flatten(toks)
        par = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        nrows = len(batch)
        dl = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.float64)
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        denom_norm = _BM25_K1 * ((1 - _BM25_B) + _BM25_B * (dl / avgdl_))
        s_term = {}
        for t in _BM25_TERMS:
            mask = pc.equal(flat, t).to_numpy(zero_copy_only=False)
            tf = np.bincount(par[mask], minlength=nrows).astype(np.float64)
            s = np.zeros(nrows)
            nz = tf > 0
            s[nz] = idf_[t] * (tf[nz] * 2.2) / (tf[nz] + denom_norm[nz])
            s_term[t] = s
        out_q, out_d, out_s = [], [], []
        for qid, (t1, t2, t3) in _BM25_QUERIES:
            score = s_term[t1] + s_term[t2] + s_term[t3]
            k = min(_BM25_TOPK, nrows)
            order = np.lexsort((doc_ids, -score))[:k]
            out_q.append(np.full(k, qid, np.int64))
            out_d.append(doc_ids[order])
            out_s.append(score[order])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                "doc_id": pa.array(np.concatenate(out_d)),
                "score": pa.array(np.concatenate(out_s)),
            }
        )

    cand = (
        _docs(sf_dir)
        .map_batches(score_partial, batch_format="pyarrow")
        .to_pandas()  # bounded: batches x Q x k candidate rows
    )
    cand = cand.sort_values(
        ["query_id", "score", "doc_id"], ascending=[True, False, True]
    )
    top = cand.groupby("query_id", sort=True).head(_BM25_TOPK).reset_index(drop=True)
    return pa.table(
        {
            "query_id": pa.array(top["query_id"].to_numpy(np.int64)),
            "doc_id": pa.array(top["doc_id"].to_numpy(np.int64)),
            "score": pa.array(top["score"].to_numpy(np.float64)),
        }
    )


# logistic quality scorer: fixed weights over integer document features —
# the broadcast-weights batched-inference pattern (weights load once per
# actor, scoring is one vectorized pass; swap the linear model for any
# batched model and the Ray shape is unchanged)
_LR_STOPS = ("join", "hash", "row", "batch", "scan")
_LR_W = (0.08, -0.004, 0.3, -0.05, 0.01)  # n_tokens, n_chars, stops, digits, distinct
_LR_B = -6.5


class _LrScorer:
    """Actor-pool inference stage: 'model' (weight vector) built once in
    __init__, __call__ scores whole Arrow batches vectorized."""

    def __init__(self):
        self.w = np.array(_LR_W, np.float64)
        self.b = float(_LR_B)
        self.stops = _LR_STOPS

    def __call__(self, batch: pa.Table) -> pa.Table:
        from sciscraper_ray.kernels.tokenize import tokenize_column

        toks = tokenize_column(batch["text"]).combine_chunks()
        flat = pc.list_flatten(toks)
        par = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        nrows = len(batch)
        x0 = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.float64)
        x1 = pc.utf8_length(batch["text"]).to_numpy(zero_copy_only=False).astype(np.float64)
        stop_mask = pc.is_in(flat, value_set=pa.array(self.stops)).to_numpy(
            zero_copy_only=False
        )
        x2 = np.bincount(par[stop_mask], minlength=nrows).astype(np.float64)
        digits = pc.count_substring_regex(batch["text"], "[0-9]").to_numpy(
            zero_copy_only=False
        ).astype(np.float64)
        # distinct tokens per doc: one C-level unique over (doc, token)
        enc = pc.dictionary_encode(flat)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        tok_codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        pairs = par.astype(np.int64) * (tok_codes.max() + 1 if len(tok_codes) else 1) + tok_codes
        uniq_docs = par[np.unique(pairs, return_index=True)[1]]
        x4 = np.bincount(uniq_docs, minlength=nrows).astype(np.float64)
        w = self.w
        # fixed left-to-right association, mirrored in the SQL oracle
        z = self.b + w[0] * x0 + w[1] * x1 + w[2] * x2 + w[3] * digits + w[4] * x4
        prob = 1.0 / (1.0 + np.exp(-z))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "score": pa.array(z),
                "prob": pa.array(prob),
                "label": pa.array((z > 0).astype(np.int64)),
            }
        )


@register(
    "doc_lr_score",
    oracle=f"""
    WITH feats AS (
        SELECT doc_id,
               CAST(len({_SQL_TOKENS}) AS DOUBLE) AS x0,
               CAST(length(text) AS DOUBLE) AS x1,
               CAST((SELECT count(*) FROM unnest({_SQL_TOKENS}) AS u(t)
                     WHERE t IN {sql_in_list(_LR_STOPS)}) AS DOUBLE) AS x2,
               CAST(length(text) - length(regexp_replace(text, '[0-9]', '', 'g'))
                    AS DOUBLE) AS x3,
               CAST((SELECT count(DISTINCT t) FROM unnest({_SQL_TOKENS}) AS u(t))
                    AS DOUBLE) AS x4
        FROM documents
    ), z AS (
        SELECT doc_id,
               {_LR_B} + {_LR_W[0]} * x0 + {_LR_W[1]} * x1 + {_LR_W[2]} * x2
                       + {_LR_W[3]} * x3 + {_LR_W[4]} * x4 AS score
        FROM feats
    )
    SELECT doc_id, score, 1 / (1 + exp(-score)) AS prob,
           CAST(score > 0 AS BIGINT) AS label
    FROM z
    """,
)
def doc_lr_score(sf_dir: str):
    """Model-scoring inference over the corpus: a logistic quality model
    with broadcast weights, run as an actor-pool map_batches stage
    (weights materialize once per actor in __init__ — the shape a real
    learned quality classifier or reward model runs in at 100 TB; the
    features here are integer-exact so the oracle reproduces the scores
    bit-identically, same left-to-right accumulation).

    Zero shuffle: one streaming pass, output is one row per document."""
    return _docs(sf_dir).map_batches(
        _LrScorer,
        batch_format="pyarrow",
        concurrency=(1, 4),
    )


@register(
    "token_inverted_index",
    oracle=f"""
    WITH pairs AS (
        SELECT DISTINCT doc_id, unnest({_SQL_TOKENS}) AS token FROM documents
    )
    SELECT token,
           CAST(count(*) AS BIGINT) AS df,
           string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) AS postings
    FROM pairs GROUP BY token
    """,
)
def token_inverted_index(sf_dir: str):
    """Inverted-index build (the search-index op): token -> document
    frequency + sorted posting list.

    Scale shape: per-batch DISTINCT (token, doc) partials (an Arrow
    group_by inside the batch — the exchange moves one row per distinct
    pair, never repeated occurrences), then a token-partitioned
    ``map_groups`` merge. Group count = vocabulary size (Heaps' law:
    sublinear in corpus size), so per-group dispatch stays bounded; at
    real scale each group writes a posting FILE (hive-partitioned by
    token hash) instead of returning a joined string — the operator
    shape is identical."""
    from sciscraper_ray.kernels.tokenize import tokenize_column

    def pair_partial(batch: pa.Table) -> pa.Table:
        toks = tokenize_column(batch["text"]).combine_chunks()
        flat = pc.list_flatten(toks)
        par = pc.list_parent_indices(toks)
        doc = batch["doc_id"].take(par)
        t = pa.table({"token": flat, "doc_id": doc})
        return t.group_by(["token", "doc_id"]).aggregate([])

    def merge_group(tbl: pa.Table) -> pa.Table:
        ids = np.unique(tbl["doc_id"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "token": pa.array([tbl["token"][0].as_py()]),
                "df": pa.array(np.array([len(ids)], np.int64)),
                "postings": pa.array([",".join(map(str, ids))]),
            }
        )

    return (
        _docs(sf_dir)
        .map_batches(pair_partial, batch_format="pyarrow")
        .groupby("token")
        .map_groups(merge_group, batch_format="pyarrow")
    )


def _warc_fixture_dir(sf_dir: str, n_shards: int = 8) -> tuple[str, int]:
    """Build (once, cached) the 8-shard WARC fixture for ``sf_dir`` and
    return (dir, n_shards). Cache key = the source parquet's identity
    (abspath, mtime_ns, size) so a regenerated fixture never reuses
    stale shards; shards are written to a temp dir and published with an
    atomic rename so concurrent runs never observe a half-written
    cache."""
    import hashlib
    import os
    import shutil

    import pyarrow.parquet as pq

    from sciscraper_ray.sources.warc import build_warc

    src = f"{sf_dir}/documents.parquet"
    st = os.stat(src)
    cache_key = hashlib.sha256(
        f"{os.path.abspath(src)}|{st.st_mtime_ns}|{st.st_size}".encode()
    ).hexdigest()[:16]
    out_dir = f"/tmp/warc_src_{cache_key}"
    if not os.path.isdir(out_dir):
        docs = pq.read_table(src, columns=["doc_id", "text"])
        tmp_dir = f"{out_dir}.tmp.{os.getpid()}"
        os.makedirs(tmp_dir, exist_ok=True)
        ids = docs["doc_id"].to_numpy(zero_copy_only=False)
        texts = docs["text"].to_pylist()
        shards: list[list[tuple[int, str, bytes]]] = [[] for _ in range(n_shards)]
        for i, t in zip(ids, texts):
            shards[int(i) % n_shards].append(
                (int(i), f"https://warc.example/doc-{int(i)}", t.encode("utf-8"))
            )
        for s, recs in enumerate(shards):
            with open(os.path.join(tmp_dir, f"shard-{s:04d}.warc"), "wb") as f:
                f.write(build_warc(recs))
        try:
            os.rename(tmp_dir, out_dir)  # atomic publish
        except OSError:  # lost the race to a concurrent builder — use theirs
            shutil.rmtree(tmp_dir, ignore_errors=True)
    return out_dir, n_shards


@register(
    "warc_roundtrip",
    oracle="""
    SELECT doc_id,
           'https://warc.example/doc-' || CAST(doc_id AS VARCHAR) AS uri,
           text
    FROM documents
    """,
)
def warc_roundtrip(sf_dir: str):
    """WARC segment source (sources/warc.py): documents serialized into
    Content-Length-delimited WARC/1.0 segments (8 shard files — the
    warc.paths fan-out shape), then streamed back through
    ``read_binary_files`` -> per-file record parse -> columns.

    Parallelism = segment files (WARC has no intra-file random access
    without a CDX index — the constraint real Common-Crawl readers have);
    the parse is per-fragment and shuffle-free. Segment synthesis is
    fixture generation (driver-side, cached per sf under /tmp — keyed by
    the source parquet's identity (path, mtime_ns, size) so a regenerated
    fixture never reuses stale shards, and built in a temp dir with an
    atomic rename so a concurrent run can never observe a half-written
    cache)."""
    import os

    import ray.data

    from sciscraper_ray.sources.warc import parse_warc

    out_dir, n_shards = _warc_fixture_dir(sf_dir)

    def parse_batch(batch: pa.Table) -> pa.Table:
        ids_, uris, texts_ = [], [], []
        for blob in batch["bytes"].to_pylist():
            for rec in parse_warc(blob):
                ids_.append(rec["record_id"])
                uris.append(rec["uri"])
                texts_.append(rec["payload"].decode("utf-8"))
        return pa.table(
            {
                "doc_id": pa.array(ids_, pa.int64()),
                "uri": pa.array(uris),
                "text": pa.array(texts_),
            }
        )

    return ray.data.read_binary_files(
        [os.path.join(out_dir, f"shard-{s:04d}.warc") for s in range(n_shards)]
    ).map_batches(parse_batch, batch_format="pyarrow")


# robots.txt-style URL blocklist: deterministic per-host path-prefix rules
# (host index -> disallowed prefix), the crawl-politeness filter shape
_ROBOTS_RULES = (
    ("web-00.example.org", "/pdf/"),
    ("web-03.example.org", "/html/doc-1"),
    ("web-05.example.org", "/"),
)


@register(
    "url_robots_filter",
    oracle="""
    WITH pages AS (
        SELECT doc_id,
               'web-0' || CAST(doc_id % 7 AS VARCHAR)
                   || '.example.org' AS host,
               '/' || (CASE WHEN doc_id % 4 = 0 THEN 'pdf' ELSE 'html' END)
                   || '/doc-' || CAST(doc_id AS VARCHAR) AS path
        FROM documents
    )
    SELECT doc_id, 'https://' || host || path AS url FROM pages
    WHERE NOT (host = 'web-00.example.org' AND path LIKE '/pdf/%')
      AND NOT (host = 'web-03.example.org' AND path LIKE '/html/doc-1%')
      AND NOT (host = 'web-05.example.org')
    """,
)
def url_robots_filter(sf_dir: str):
    """robots.txt-style disallow filtering (the crawl-politeness gate a
    page pipeline runs before fetch/extract): a tiny per-host
    path-prefix rule table is broadcast, every batch evaluates its rules
    vectorized (one ``starts_with`` mask per rule — rule count is small
    by construction; a real exclusion list is grouped per host and only
    the batch's hosts' rules run). Zero shuffle, one streaming pass.

    URLs are derived deterministically from doc_id (a fixed host/path
    scheme, same flavor as the synthetic page table's) so the oracle
    reproduces them exactly."""

    def filt(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        host_idx = ids % 7
        kind = np.where(ids % 4 == 0, "pdf", "html")
        hosts = pa.array([f"web-0{h}.example.org" for h in host_idx])
        paths = pa.array([f"/{k}/doc-{i}" for k, i in zip(kind, ids)])
        keep = np.ones(len(ids), bool)
        for rule_host, prefix in _ROBOTS_RULES:
            hmask = pc.equal(hosts, rule_host).to_numpy(zero_copy_only=False)
            pmask = pc.starts_with(paths, prefix).to_numpy(zero_copy_only=False)
            keep &= ~(hmask & pmask)
        url = pc.binary_join_element_wise(
            pa.array(["https://"] * len(ids)), hosts, paths, ""
        )
        return pa.table({"doc_id": batch["doc_id"], "url": url}).filter(
            pa.array(keep)
        )

    return _docs(sf_dir, columns=("doc_id",)).map_batches(
        filt, batch_format="pyarrow"
    )


@register(
    "token_pair_counts",
    oracle=f"""
    WITH toks AS (
        SELECT doc_id,
               unnest({_SQL_TOKENS}) AS token,
               unnest(range(len({_SQL_TOKENS}))) AS ord
        FROM documents
    )
    SELECT a.token || ' ' || b.token AS pair, count(*) AS cnt
    FROM toks a JOIN toks b ON a.doc_id = b.doc_id AND b.ord = a.ord + 1
    GROUP BY pair
    ORDER BY cnt DESC, pair ASC
    LIMIT 50
    """,
)
def token_pair_counts(sf_dir: str):
    """BPE merge-step statistics: corpus-wide adjacent-token-pair
    frequencies, top-50 — the counting pass a distributed tokenizer
    trainer runs once per merge round. Pairs are built vectorized from
    the flattened token buffer (adjacency = equal parent indices, no
    per-doc loop); each batch value-counts locally so the shuffle moves
    (pair, cnt) partials bounded by the batch's pair vocabulary, then
    groupby-Sum -> sort(cnt desc, pair asc) -> limit. Pair key joins
    with a single space, unambiguous because the reference tokenizer
    splits on exactly that byte (docscraper.py:176-186)."""
    from sciscraper_ray.kernels.tokenize import tokenize_column

    def partial(batch: pa.Table) -> pa.Table:
        tokens = tokenize_column(batch["text"]).combine_chunks()
        flat = pc.list_flatten(tokens)
        n = len(flat)
        if n < 2:
            return pa.table({"pair": pa.array([], pa.string())})
        parents = pc.list_parent_indices(tokens).to_numpy(zero_copy_only=False)
        same_doc = pa.array(parents[:-1] == parents[1:])
        left = flat.slice(0, n - 1).filter(same_doc)
        right = flat.slice(1, n - 1).filter(same_doc)
        return pa.table({"pair": pc.binary_join_element_wise(left, right, " ")})

    return (
        group_count(_docs(sf_dir).map_batches(partial, batch_format="pyarrow"), "pair")
        .sort(key=["cnt", "pair"], descending=[True, False])
        .limit(50)
    )


_MIXTURE_QUOTA = 15


@register(
    "doc_mixture_quota",
    oracle=f"""
    SELECT doc_id, source FROM (
        SELECT doc_id, source,
               row_number() OVER (
                   PARTITION BY source
                   ORDER BY {md5_hex15_sql("CAST(doc_id AS VARCHAR)")} ASC,
                            doc_id ASC
               ) AS rn
        FROM documents
    ) WHERE rn <= {_MIXTURE_QUOTA}
    """,
)
def doc_mixture_quota(sf_dir: str):
    """Domain-balanced mixture downsampling: keep at most K documents per
    source, chosen as the K smallest content-stable id hashes — the
    deterministic quota sampler that balances a training mixture across
    domains without RNG state (reproducible across runs, cluster sizes,
    partitionings). Pass 1 streams (source, h, doc_id) candidates,
    pre-pruned per batch to its local K smallest per source, so the
    driver merge sees <= sources x K rows per batch, never the corpus;
    the per-source K-th smallest (h, doc_id) cutoff is broadcast and
    pass 2 is a zero-shuffle stream filter (payloads never move). The
    (h, doc_id) lexicographic cutoff keeps exactly K even under 60-bit
    hash collisions."""
    import pandas as pd
    import ray

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        df = pd.DataFrame(
            {
                "source": batch["source"].to_pandas(),  # bounded: worker-side column conversion
                "h": md5_hex15(map(str, ids)),
                "doc_id": ids,
            }
        )
        pruned = (
            df.sort_values(["source", "h", "doc_id"])
            .groupby("source", sort=False)
            .head(_MIXTURE_QUOTA)
        )
        return pa.Table.from_pandas(pruned, preserve_index=False)

    cand = (
        _docs(sf_dir, columns=("doc_id", "source"))
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()  # bounded: quota x |sources| candidates per block
    )
    kept = (
        cand.sort_values(["source", "h", "doc_id"])
        .groupby("source", sort=False)
        .head(_MIXTURE_QUOTA)
    )
    # the cutoff row is the lexicographic max (h, doc_id) of the kept set
    cut = (
        kept.sort_values(["source", "h", "doc_id"])
        .groupby("source", sort=False)
        .tail(1)
        .set_index("source")
    )
    cut_ref = ray.put(cut)

    def filt(batch: pa.Table) -> pa.Table:
        c = ray.get(cut_ref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        h = md5_hex15(map(str, ids))
        src = batch["source"].to_pandas()  # bounded: worker-side column conversion
        lim_h = src.map(c["h"]).to_numpy(np.int64)
        lim_id = src.map(c["doc_id"]).to_numpy(np.int64)
        keep = (h < lim_h) | ((h == lim_h) & (ids <= lim_id))
        return pa.table(
            {"doc_id": batch["doc_id"], "source": batch["source"]}
        ).filter(pa.array(keep))

    return _docs(sf_dir, columns=("doc_id", "source")).map_batches(
        filt, batch_format="pyarrow"
    )


@register(
    "doc_unigram_freq_score",
    oracle=f"""
    WITH toks AS (
        SELECT doc_id, unnest({_SQL_TOKENS}) AS token FROM documents
    ), vocab AS (
        SELECT token, count(*) AS gcnt FROM toks GROUP BY token
    )
    SELECT t.doc_id,
           CAST(SUM(v.gcnt) AS BIGINT) AS freq_sum,
           CAST(count(*) AS BIGINT) AS n_tokens
    FROM toks t JOIN vocab v USING (token)
    GROUP BY t.doc_id
    """,
)
def doc_unigram_freq_score(sf_dir: str):
    """Unigram language-model quality scoring (the CCNet/KenLM shape):
    score every document by how typical its tokens are of the corpus.
    Pass 1 builds the global unigram table (per-batch value-count
    partials -> vocabulary-sized groupby, Heaps'-law small); the table is
    broadcast once and pass 2 maps each doc's tokens through it, emitting
    the integer-exact sufficient statistics (sum of global frequencies,
    token count) whose ratio is the mean-frequency score — integers
    instead of a float mean so the oracle comparison is exact; a real
    LM swaps the broadcast table for model weights (doc_lr_score is the
    learned-weights twin). Zero shuffle in pass 2."""
    import pandas as pd
    import ray

    from sciscraper_ray.kernels.tokenize import tokenize_column

    def partial(batch: pa.Table) -> pa.Table:
        return pa.table({"token": pc.list_flatten(tokenize_column(batch["text"]))})

    counts = group_count(
        _docs(sf_dir).map_batches(partial, batch_format="pyarrow"), "token"
    ).to_pandas()  # bounded: vocabulary post-aggregate (broadcast side)
    lut_ref = ray.put(
        pd.Series(counts["cnt"].to_numpy(np.int64), index=counts["token"])
    )

    def score(batch: pa.Table) -> pa.Table:
        lut = ray.get(lut_ref)
        tokens = tokenize_column(batch["text"]).combine_chunks()
        flat = pc.list_flatten(tokens)
        parents = pc.list_parent_indices(tokens).to_numpy(zero_copy_only=False)
        freqs = pd.Series(flat.to_pandas()).map(lut).to_numpy(np.int64)  # bounded: worker-side column conversion
        sums = np.zeros(len(batch), np.int64)
        np.add.at(sums, parents, freqs)
        lens = pc.list_value_length(tokens).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "freq_sum": pa.array(sums, pa.int64()),
                "n_tokens": pa.array(lens.astype(np.int64)),
            }
        )

    return _docs(sf_dir).map_batches(score, batch_format="pyarrow")


_LATEST_K = 20


@register(
    "events_latest_k",
    oracle=f"""
    SELECT event_id, user_id, ts FROM (
        SELECT event_id, user_id, ts,
               row_number() OVER (
                   PARTITION BY user_id ORDER BY ts DESC, event_id DESC
               ) AS rn
        FROM events
    ) WHERE rn <= {_LATEST_K}
    """,
)
def events_latest_k(sf_dir: str):
    """Per-key latest-K row retention (the TTL/compaction policy shape:
    keep each user's K most recent events, drop the tail) — the
    grouped-top-K-ROWS generalization of keep-latest(1). Same two-phase
    plan as doc_mixture_quota: per-batch candidates pre-pruned to the
    local K latest per user (merge sees <= users x K rows per batch),
    the per-user K-th latest (ts, event_id) cutoff broadcast, then a
    zero-shuffle stream filter — full event payloads never shuffle.
    Timestamps compare as epoch-microsecond int64 end to end (the
    pandas-unit round-trip gotcha)."""
    import pandas as pd
    import ray
    import ray.data

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )

    def to_us(batch: pa.Table) -> np.ndarray:
        return (
            pc.cast(batch["ts"], pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "user_id": batch["user_id"].to_numpy(zero_copy_only=False),
                "ts_us": to_us(batch),
                "event_id": batch["event_id"].to_numpy(zero_copy_only=False),
            }
        )
        pruned = (
            df.sort_values(["user_id", "ts_us", "event_id"], ascending=[True, False, False])
            .groupby("user_id", sort=False)
            .head(_LATEST_K)
        )
        return pa.Table.from_pandas(pruned, preserve_index=False)

    cand = ev.map_batches(partial, batch_format="pyarrow").to_pandas()  # bounded: K-per-user candidates (broadcast decision side)
    kept = (
        cand.sort_values(["user_id", "ts_us", "event_id"], ascending=[True, False, False])
        .groupby("user_id", sort=False)
        .head(_LATEST_K)
    )
    cut = (
        kept.sort_values(["user_id", "ts_us", "event_id"], ascending=[True, False, False])
        .groupby("user_id", sort=False)
        .tail(1)
        .set_index("user_id")
    )
    cut_ref = ray.put(cut)

    def filt(batch: pa.Table) -> pa.Table:
        c = ray.get(cut_ref)
        users = pd.Series(batch["user_id"].to_numpy(zero_copy_only=False))
        ts_us = to_us(batch)
        eid = batch["event_id"].to_numpy(zero_copy_only=False)
        lim_ts = users.map(c["ts_us"]).to_numpy(np.int64)
        lim_eid = users.map(c["event_id"]).to_numpy(np.int64)
        keep = (ts_us > lim_ts) | ((ts_us == lim_ts) & (eid >= lim_eid))
        return batch.filter(pa.array(keep))

    return ev.map_batches(filt, batch_format="pyarrow")


def _host_sql(x: str) -> str:
    """page_synth.host_for in SQL (HOSTS table + mega-host skew)."""
    return (
        f"CASE WHEN ({x}) % 10 < 3 THEN 'mega.example.org' "
        f"ELSE CASE ({x}) % 5 WHEN 0 THEN 'alpha.example.com' "
        f"WHEN 1 THEN 'beta.example.net' WHEN 2 THEN 'gamma.example.io' "
        f"WHEN 3 THEN 'delta.example.edu' ELSE 'epsilon.example.dev' END END"
    )


_REF_TARGETS_SQL = "[(doc_id * 17 + 13) % 997, (doc_id * 29 + 7) % 997]"


_BOOL_QUERIES: tuple[tuple[int, tuple[str, ...]], ...] = (
    (0, ("join", "hash")),
    (1, ("scan", "filter", "merge")),
    (2, ("vector", "window")),
)


@register(
    "doc_boolean_retrieval",
    oracle=f"""
    WITH toks AS (
        SELECT doc_id, unnest({_SQL_TOKENS}) AS token FROM documents
    ), qt(query_id, token) AS (VALUES {", ".join(
        f"({qid}, '{t}')" for qid, terms in _BOOL_QUERIES for t in terms
    )}),
    hits AS (
        SELECT q.query_id, t.doc_id, count(DISTINCT t.token) AS k
        FROM qt q JOIN toks t USING (token)
        GROUP BY q.query_id, t.doc_id
    ), need AS (
        SELECT query_id, count(*) AS n FROM qt GROUP BY query_id
    )
    SELECT h.query_id, h.doc_id
    FROM hits h JOIN need USING (query_id) WHERE h.k = need.n
    """,
)
def doc_boolean_retrieval(sf_dir: str):
    """Boolean AND retrieval (conjunctive posting intersection, the query
    side of token_inverted_index): for a broadcast query set, emit every
    (query, doc) where the doc contains ALL the query's terms. Per batch:
    one vectorized is_in + parent-index scatter per DISTINCT query term
    (terms, not docs, drive the loop), then a boolean AND across each
    query's term-presence vectors — zero shuffle, documents stream once
    for all queries together."""
    from sciscraper_ray.kernels.tokenize import tokenize_column

    terms = sorted({t for _, ts in _BOOL_QUERIES for t in ts})

    def probe(batch: pa.Table) -> pa.Table:
        tokens = tokenize_column(batch["text"]).combine_chunks()
        flat = pc.list_flatten(tokens)
        parents = pc.list_parent_indices(tokens).to_numpy(zero_copy_only=False)
        nb = len(batch)
        present: dict[str, np.ndarray] = {}
        for t in terms:
            mask = pc.equal(flat, t).to_numpy(zero_copy_only=False)
            hit = np.zeros(nb, bool)
            hit[parents[mask]] = True
            present[t] = hit
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        out_q: list[np.ndarray] = []
        out_d: list[np.ndarray] = []
        for qid, qterms in _BOOL_QUERIES:
            keep = np.ones(nb, bool)
            for t in qterms:
                keep &= present[t]
            out_q.append(np.full(int(keep.sum()), qid, np.int64))
            out_d.append(ids[keep])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                "doc_id": pa.array(np.concatenate(out_d), pa.int64()),
            }
        )

    return _docs(sf_dir).map_batches(probe, batch_format="pyarrow")


@register(
    "doc_iqr_filter",
    oracle="""
    WITH hist AS (
        SELECT n_chars AS v, count(*) AS c FROM documents GROUP BY n_chars
    ), cum AS (
        SELECT v, SUM(c) OVER (ORDER BY v) AS cum,
               (SELECT SUM(c) FROM hist) AS n
        FROM hist
    ), q AS (
        SELECT
            (SELECT min(v) FROM cum WHERE cum >= CAST(ceil(n * 0.25) AS BIGINT)) AS q1,
            (SELECT min(v) FROM cum WHERE cum >= CAST(ceil(n * 0.75) AS BIGINT)) AS q3
        FROM cum LIMIT 1
    )
    SELECT d.doc_id, d.n_chars
    FROM documents d, q
    WHERE d.n_chars >= q.q1 - (3 * (q.q3 - q.q1)) // 2
      AND d.n_chars <= q.q3 + (3 * (q.q3 - q.q1)) // 2
    """,
)
def doc_iqr_filter(sf_dir: str):
    """Tukey-fence outlier gate on document length (the robust
    length-filter a corpus pipeline runs before training): exact Q1/Q3
    from a value histogram — per-batch (value, count) partials, merged on
    the driver (distinct lengths ≪ corpus), cumulative scan reads off the
    smallest value with cum ≥ ceil(q·n) — then the integer Tukey fences
    [Q1 - 3·IQR/2, Q3 + 3·IQR/2] broadcast into a zero-shuffle stream
    filter. All-integer arithmetic end to end, so the oracle is exact."""
    src = _docs(sf_dir, columns=("doc_id", "n_chars"))

    def hist(batch: pa.Table) -> pa.Table:
        return group_count_batch(pa.table({"v": batch["n_chars"]}), ["v"], count="c")

    h = (
        src.map_batches(hist, batch_format="pyarrow")
        .to_pandas()  # bounded: |distinct lengths| x blocks
        .groupby("v", as_index=False)["c"]
        .sum()
        .sort_values("v")
    )
    n = int(h["c"].sum())
    cum = h["c"].cumsum().to_numpy()
    vals = h["v"].to_numpy()
    q1 = int(vals[np.searchsorted(cum, -(-n // 4))])  # ceil(n/4)
    q3 = int(vals[np.searchsorted(cum, -(-(3 * n) // 4))])
    iqr = q3 - q1
    lo, hi = q1 - (3 * iqr) // 2, q3 + (3 * iqr) // 2

    def filt(batch: pa.Table) -> pa.Table:
        v = batch["n_chars"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array((v >= lo) & (v <= hi)))

    return src.map_batches(filt, batch_format="pyarrow")


_CHARSETS = ("utf-8", "latin-1", "utf-16")


@register(
    "page_charset_decode",
    oracle="""
    SELECT doc_id,
           CASE doc_id % 3 WHEN 0 THEN 'utf-8' WHEN 1 THEN 'latin-1'
                ELSE 'utf-16' END AS charset,
           text AS extracted_text
    FROM documents
    """,
)
def page_charset_decode(sf_dir: str):
    """Charset-sniffing decode in front of main-content extraction — the
    real-crawl concern the fixed-utf-8 page table hides: payload bytes
    arrive in mixed encodings (here utf-8 / latin-1 / utf-16-LE-with-BOM,
    declared by ``<meta charset>``; the footer's © makes the encodings
    byte-distinct). The decode stage sniffs the BOM, else regex-scans the
    first KB ASCII-compatibly for the meta declaration, decodes, then the
    usual text-density extractor reproduces the ground-truth main content
    byte-identically. One streaming pass, zero shuffle."""
    import re as _re

    from sciscraper_ray.sources.page_synth import render_html
    from sciscraper_ray.stages.html_extract import extract_main_content

    _meta_re = _re.compile(rb'<meta charset="([a-zA-Z0-9_-]+)"')

    def build(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        texts = batch["text"].to_pylist()
        langs = batch["lang"].to_pylist()
        payloads: list[bytes] = []
        for i, t, lg in zip(ids, texts, langs):
            cs = _CHARSETS[int(i) % 3]
            page = render_html(int(i), t, lg).decode("utf-8")
            page = page.replace(
                "<head>", f'<head><meta charset="{cs}">', 1
            )
            payloads.append(page.encode(cs))
        return pa.table(
            {"doc_id": batch["doc_id"], "payload": pa.array(payloads, pa.binary())}
        )

    def sniff_decode_extract(batch: pa.Table) -> pa.Table:
        charsets: list[str] = []
        texts: list[str] = []
        for payload in batch["payload"].to_pylist():
            if payload[:2] in (b"\xff\xfe", b"\xfe\xff"):
                cs = "utf-16"
            else:
                m = _meta_re.search(payload[:1024])
                cs = m.group(1).decode("ascii") if m else "utf-8"
            charsets.append(cs)
            text, _spans = extract_main_content(payload.decode(cs))
            texts.append(text)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "charset": pa.array(charsets, pa.string()),
                "extracted_text": pa.array(texts, pa.string()),
            }
        )

    return (
        _docs(sf_dir, columns=("doc_id", "text", "lang"))
        .map_batches(build, batch_format="pyarrow")
        .map_batches(sniff_decode_extract, batch_format="pyarrow")
    )


@register(
    "sitemap_roundtrip",
    oracle=f"""
    SELECT doc_id,
           {_host_sql("doc_id")} AS host,
           'https://' || {_host_sql("doc_id")} || '/html/doc-'
               || CAST(doc_id AS VARCHAR) AS url,
           strftime(DATE '2023-11-14' + CAST(doc_id % 30 AS INTEGER),
                    '%Y-%m-%d') AS lastmod
    FROM documents
    """,
)
def sitemap_roundtrip(sf_dir: str):
    """Sitemap XML write -> streaming parse round trip (the crawl-frontier
    seed format; S-tier source coverage beyond parquet/CSV/txt/JSONL/WARC/
    binary). The writer emits one ``<urlset>`` segment per (host, batch) —
    real sitemap indexes chunk at 50k urls per file, so segments, not
    hosts, are the parallelism unit (the warc.paths shape); the parser
    fans out per segment. Lastmod dates derive from doc_id so the oracle
    rebuilds every row arithmetically."""
    import xml.etree.ElementTree as ET
    from datetime import date, timedelta

    from sciscraper_ray.sources.page_synth import host_for

    _epoch = date(2023, 11, 14)

    def write_segments(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        by_host: dict[str, list[int]] = {}
        for i in ids:
            by_host.setdefault(host_for(int(i)), []).append(int(i))
        hosts: list[str] = []
        xmls: list[str] = []
        for h, members in sorted(by_host.items()):
            entries = "".join(
                f"<url><loc>https://{h}/html/doc-{i}</loc>"
                f"<lastmod>{(_epoch + timedelta(days=i % 30)).isoformat()}</lastmod></url>"
                for i in members
            )
            hosts.append(h)
            xmls.append(
                '<?xml version="1.0" encoding="UTF-8"?>'
                f"<urlset>{entries}</urlset>"
            )
        return pa.table(
            {"host": pa.array(hosts, pa.string()), "xml": pa.array(xmls, pa.string())}
        )

    def parse_segments(batch: pa.Table) -> pa.Table:
        out_id: list[int] = []
        out_host: list[str] = []
        out_url: list[str] = []
        out_mod: list[str] = []
        for h, xml in zip(batch["host"].to_pylist(), batch["xml"].to_pylist()):
            root = ET.fromstring(xml)
            for u in root.findall("url"):
                loc = u.findtext("loc")
                out_id.append(int(loc.rsplit("-", 1)[1]))
                out_host.append(h)
                out_url.append(loc)
                out_mod.append(u.findtext("lastmod"))
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "host": pa.array(out_host, pa.string()),
                "url": pa.array(out_url, pa.string()),
                "lastmod": pa.array(out_mod, pa.string()),
            }
        )

    return (
        _docs(sf_dir, columns=("doc_id",))
        .map_batches(write_segments, batch_format="pyarrow")
        .map_batches(parse_segments, batch_format="pyarrow")
    )


@register(
    "redirect_resolve",
    oracle="""
    WITH RECURSIVE chase(src, cur, d) AS (
        SELECT doc_id, doc_id, 0 FROM documents
        UNION ALL
        SELECT src, cur - 1, d + 1 FROM chase WHERE cur % 4 <> 0
    )
    SELECT src AS doc_id, CAST(cur AS BIGINT) AS terminal_id,
           CAST(d AS BIGINT) AS hops
    FROM chase WHERE cur % 4 = 0
    """,
)
def redirect_resolve(sf_dir: str):
    """Redirect-chain resolution to the terminal URL — the crawl-graph
    normalization every frontier needs before dedup (3xx hops, URL
    shorteners, www/apex canonical moves). The redirect map here is one
    row per URL (corpus-sized: NEITHER side broadcasts), so resolution is
    POINTER DOUBLING: start from the one-hop map f(u) (terminals map to
    themselves with 0 hops) and iterate f <- f∘f via the co-partitioned
    ``bucketed_hash_join`` — each round squares the resolved distance and
    sums hop counts, so ceil(log2(max_chain)) all-to-all rounds replace a
    max_chain-step sequential chase. Chains here are <= 3 hops
    (synthesized: url with doc_id % 4 != 0 redirects to doc_id - 1), so
    TWO rounds reach the fixpoint; the oracle chases the same map with a
    recursive CTE, so transitivity itself is value-checked. Partitioning
    assumption: the hop key is near-uniform (hash-mixed in the join), so
    no bucket concentrates; one straggler chain costs rounds, not skew."""
    from sciscraper_ray.stages.relational import bucketed_hash_join

    def one_hop(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        redirects = ids % 4 != 0
        return pa.table(
            {
                "src": pa.array(ids),
                "cur": pa.array(np.where(redirects, ids - 1, ids)),
                "hops": pa.array(redirects.astype(np.int64)),
            }
        )

    f = _docs(sf_dir, columns=("doc_id",)).map_batches(
        one_hop, batch_format="pyarrow"
    )
    for _round in range(2):  # ceil(log2(3 hops)) = 2 doubling rounds
        # f is total (terminals self-map), so the inner equi-join on
        # cur = src2 matches every row and composes hop counts exactly.
        right = f.map_batches(
            lambda b: b.rename_columns(["src2", "cur2", "hops2"]),
            batch_format="pyarrow",
        )
        joined = bucketed_hash_join(
            f, right, left_on="cur", right_on="src2", num_buckets=32
        )

        def compose(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "src": batch["src"],
                    "cur": batch["cur2"],
                    "hops": pc.add(batch["hops"], batch["hops2"]),
                }
            )

        f = joined.map_batches(compose, batch_format="pyarrow")

    return f.map_batches(
        lambda b: b.rename_columns(["doc_id", "terminal_id", "hops"]),
        batch_format="pyarrow",
    )


_TEASER_MOD = 9
_TEASER_OFFSET = 500_000
_TEASER_FRAC = 0.4
_TEASER_CONTAIN = 0.9


@register(
    "dedup_teaser_prefix",
    oracle=f"""
    WITH all_docs AS (
        SELECT doc_id, text FROM documents
        UNION ALL
        SELECT doc_id + {_TEASER_OFFSET},
               array_to_string(list_slice(
                   string_split(text, ' '), 1,
                   CAST(ceil({_TEASER_FRAC} * len(string_split(text, ' ')))
                        AS BIGINT)), ' ')
        FROM documents WHERE doc_id % {_TEASER_MOD} = 0
    ),
    toks AS (
        SELECT doc_id, string_split(lower(trim(text)), ' ') AS lst
        FROM all_docs
    ),
    heads AS (
        SELECT doc_id, array_to_string(list_slice(lst, 1, 3), ' ') AS head
        FROM toks
    ),
    grams AS (
        SELECT doc_id,
        CASE WHEN len(lst) < 3 THEN [array_to_string(lst, ' ')]
             ELSE list_transform(range(1, len(lst) - 1),
                                 i -> lst[i] || ' ' || lst[i+1] || ' ' || lst[i+2])
        END AS shl
        FROM toks
    ),
    sh AS (SELECT DISTINCT doc_id, unnest(shl) AS g FROM grams),
    sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
    cand AS (
        SELECT x.doc_id AS p, y.doc_id AS q
        FROM heads x JOIN heads y ON x.head = y.head AND x.doc_id < y.doc_id
    ),
    oriented AS (
        SELECT CASE WHEN sp.n < sq.n OR (sp.n = sq.n AND p < q)
                    THEN p ELSE q END AS a,
               CASE WHEN sp.n < sq.n OR (sp.n = sq.n AND p < q)
                    THEN q ELSE p END AS b
        FROM cand
        JOIN sizes sp ON sp.doc_id = p
        JOIN sizes sq ON sq.doc_id = q
    ),
    inter AS (
        SELECT o.a, o.b, count(*) AS i
        FROM oriented o
        JOIN sh x ON x.doc_id = o.a
        JOIN sh y ON y.doc_id = o.b AND y.g = x.g
        GROUP BY o.a, o.b
    )
    SELECT a, b FROM inter
    JOIN sizes sa ON sa.doc_id = a
    WHERE i * 1.0 / sa.n >= {_TEASER_CONTAIN}
    """,
)
def dedup_teaser_prefix(sf_dir: str):
    """Prefix-teaser containment dedup — the AMP/mobile/teaser-page case
    near-dup Jaccard misses: an excerpt sharing only ~40% of its source's
    shingles has Jaccard ~0.4 (invisible at the 0.8 LSH threshold) but
    shingle CONTAINMENT ~1.0. Candidates block on the document HEAD
    fingerprint (128-bit hash of the first 3 tokens) — deterministic and
    complete for prefix excerpts, the declared contract (general
    substring containment is doc_dup_substrings' job) — through the same
    two-plan ``_candidate_pairs`` machinery as MinHash; each candidate
    pair is exact-verified |S(a)∩S(b)|/|S(a)| >= 0.9 with a = the
    smaller-shingle-set side, texts fetched broadcast-small-side.
    Emits oriented (a=contained, b=container) pairs; the oracle
    recomputes head-blocked containment from first principles."""
    import math

    from sciscraper_ray.kernels.tokenize import format_manuscript
    from sciscraper_ray.pipelines.dedup import _candidate_pairs, _texts_for
    from sciscraper_ray.pipelines.plan import parquet_row_bound
    from sciscraper_ray.kernels.md5 import md5_hash128
    from sciscraper_ray.stages.dedup import word_shingles

    ds = _docs(sf_dir)

    def make_teasers(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        keep = ids % _TEASER_MOD == 0
        texts = []
        for t, k in zip(batch["text"].to_pylist(), keep):
            if k:
                words = t.split(" ")
                texts.append(
                    " ".join(words[: math.ceil(_TEASER_FRAC * len(words))])
                )
        return pa.table(
            {
                "doc_id": pa.array(
                    (ids[keep] + _TEASER_OFFSET).tolist(), pa.int64()
                ),
                "text": pa.array(texts, pa.string()),
            }
        )

    corpus = (
        ds.union(ds.map_batches(make_teasers, batch_format="pyarrow"))
        .repartition(
            max(
                1,
                min(
                    64,
                    ((parquet_row_bound(f"{sf_dir}/documents.parquet") or 0))
                    // 500,
                ),
            )
        )
        .materialize()
    )

    def head_rows(batch: pa.Table) -> pa.Table:
        heads = [
            " ".join(format_manuscript(t)[:3]) for t in batch["text"].to_pylist()
        ]
        hi, lo, _valid = md5_hash128(heads)
        return pa.table(
            {"doc_id": batch["doc_id"], "h_hi": pa.array(hi), "h_lo": pa.array(lo)}
        )

    banded = corpus.map_batches(head_rows, batch_format="pyarrow")
    pairs = _candidate_pairs(banded, ["h_hi", "h_lo"])
    if pairs.empty:
        return pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    texts = _texts_for(
        corpus, np.unique(pairs[["a", "b"]].to_numpy()), "doc_id", "text"
    )
    shingles = {
        i: set(word_shingles(format_manuscript(t), 3).tolist())
        for i, t in texts.items()
    }
    out_a: list[int] = []
    out_b: list[int] = []
    for p, q in zip(pairs["a"], pairs["b"]):
        sp, sq = shingles[p], shingles[q]
        a, b = (p, q) if (len(sp), p) < (len(sq), q) else (q, p)
        sa, sb = shingles[a], shingles[b]
        if len(sa & sb) / len(sa) >= _TEASER_CONTAIN:
            out_a.append(int(a))
            out_b.append(int(b))
    return pa.table(
        {"a": pa.array(out_a, pa.int64()), "b": pa.array(out_b, pa.int64())}
    )


@register(
    "host_topk_docs",
    oracle=f"""
    WITH ranked AS (
        SELECT doc_id, n_chars, {_host_sql("doc_id")} AS host,
               row_number() OVER (
                   PARTITION BY {_host_sql("doc_id")}
                   ORDER BY n_chars DESC, doc_id
               ) AS r
        FROM documents
    )
    SELECT host, doc_id, n_chars, CAST(r AS BIGINT) AS rank
    FROM ranked WHERE r <= 3
    """,
)
def host_topk_docs(sf_dir: str, plan: str = "auto"):
    """Per-host top-3 documents by length — grouped top-k WITHOUT a
    global sort or per-host map_groups: each batch keeps at most 3 rows
    per host (vectorized lexsort + segment-boundary take), so the merge
    input is bounded by 3 x hosts x blocks regardless of corpus size and
    hot hosts (mega.example.org holds 30% of rows) are defused before
    any exchange. The merge itself is two-plan: driver pandas under the
    row limit, else one groupby-free repeat of the same partial pass
    after a hash repartition on host."""
    from sciscraper_ray.pipelines.plan import driver_frame, resolve_plan
    from sciscraper_ray.sources.page_synth import host_for

    K = 3

    def partial_topk(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        n = batch["n_chars"].to_numpy(zero_copy_only=False)
        hosts = np.array([host_for(int(i)) for i in ids])
        order = np.lexsort((ids, -n, hosts))
        h_s = hosts[order]
        starts = np.flatnonzero(np.r_[True, h_s[1:] != h_s[:-1]])
        pos = np.arange(len(h_s)) - np.repeat(starts, np.diff(np.r_[starts, len(h_s)]))
        keep = order[pos < K]
        return pa.table(
            {
                "host": pa.array(hosts[keep]),
                "doc_id": pa.array(ids[keep]),
                "n_chars": pa.array(n[keep]),
            }
        )

    partials = _docs(sf_dir, columns=("doc_id", "n_chars")).map_batches(
        partial_topk, batch_format="pyarrow"
    )
    mode, partials = resolve_plan(partials, plan)
    if mode == "driver":
        df = driver_frame(partials, what="host_topk_docs")
    else:
        # beyond driver memory: ONE bounded-cardinality exchange — hosts
        # hash into 32 buckets (the window family's bucket-then-vectorize
        # shape: group count is O(buckets), not O(hosts)), each bucket's
        # partial rows merge with the identical vectorized take
        def tag_bucket(b: pa.Table) -> pa.Table:
            import zlib

            # process-independent hash: Python's hash() is salted per
            # worker, which would split one host across buckets
            h = np.array(
                [zlib.crc32(x.encode()) for x in b["host"].to_pylist()],
                np.int64,
            )
            return b.append_column("__bucket", pa.array(h % 32))

        reduced = (
            partials.map_batches(tag_bucket, batch_format="pyarrow")
            .groupby("__bucket")
            .map_groups(
                lambda t: partial_topk_merge(t.drop_columns(["__bucket"])),
                batch_format="pyarrow",
            )
        )
        df = reduced.to_pandas()  # bounded: k x buckets merged top-k
    df = df.sort_values(
        ["host", "n_chars", "doc_id"], ascending=[True, False, True]
    )
    df["rank"] = df.groupby("host").cumcount() + 1
    out = df[df["rank"] <= K].reset_index(drop=True)
    return out[["host", "doc_id", "n_chars", "rank"]]


def partial_topk_merge(batch: pa.Table) -> pa.Table:
    """host_topk_docs' shuffle-plan reducer: same vectorized per-host
    take over co-located partial rows (host column already present)."""
    hosts = batch["host"].to_numpy(zero_copy_only=False)
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    n = batch["n_chars"].to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, -n, hosts))
    h_s = hosts[order]
    starts = np.flatnonzero(np.r_[True, h_s[1:] != h_s[:-1]])
    pos = np.arange(len(h_s)) - np.repeat(starts, np.diff(np.r_[starts, len(h_s)]))
    keep = order[pos < 3]
    return pa.table(
        {
            "host": pa.array(hosts[keep]),
            "doc_id": pa.array(ids[keep]),
            "n_chars": pa.array(n[keep]),
        }
    )


@register(
    "page_meta_extract",
    oracle="""
    SELECT doc_id,
           'Document ' || CAST(doc_id AS VARCHAR) AS title,
           lang AS html_lang
    FROM documents
    """,
)
def page_meta_extract(sf_dir: str):
    """Page-metadata harvest through the DOM engine (the trafilatura-shaped
    metadata pull that runs beside main-content extraction): <title> text
    and the <html lang> attribute, one parse per page, zero shuffle. The
    fixture pages carry both deterministically so the oracle rebuilds the
    table arithmetically."""
    from sciscraper_ray.sources.page_synth import render_html
    from sciscraper_ray.stages.dom_select import select_attr, select_text

    def harvest(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        titles: list[str] = []
        langs: list[str] = []
        for i, t, lg in zip(
            ids, batch["text"].to_pylist(), batch["lang"].to_pylist()
        ):
            page = render_html(int(i), t, lg).decode()
            titles.append(select_text(page, "title") or "")
            langs.append(select_attr(page, "html", "lang") or "")
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "title": pa.array(titles, pa.string()),
                "html_lang": pa.array(langs, pa.string()),
            }
        )

    return _docs(sf_dir, columns=("doc_id", "text", "lang")).map_batches(
        harvest, batch_format="pyarrow"
    )


@register(
    "doc_length_median_by_lang",
    oracle="""
    WITH hist AS (
        SELECT lang, n_chars AS v, count(*) AS c
        FROM documents GROUP BY lang, n_chars
    ),
    cum AS (
        SELECT lang, v,
               SUM(c) OVER (PARTITION BY lang ORDER BY v) AS cum,
               SUM(c) OVER (PARTITION BY lang) AS n
        FROM hist
    ),
    med AS (
        SELECT lang, min(v) AS m FROM cum
        WHERE cum >= CAST(ceil(n * 0.5) AS BIGINT)
        GROUP BY lang
    )
    SELECT d.doc_id, d.lang, d.n_chars
    FROM documents d JOIN med USING (lang)
    WHERE d.n_chars >= med.m
    """,
)
def doc_length_median_by_lang(sf_dir: str):
    """GROUP-RELATIVE quality gate: keep documents at or above their own
    language's exact median length — the per-language thresholding a
    multilingual corpus needs (a global cut silently drops whole
    languages whose documents run short). Exact grouped medians from
    (lang, length, count) histogram partials — distinct (lang, length)
    pairs ≪ corpus, merged driver-side like doc_iqr_filter — then the
    per-lang thresholds broadcast into one zero-shuffle stream filter."""
    src = _docs(sf_dir, columns=("doc_id", "lang", "n_chars"))

    def hist(batch: pa.Table) -> pa.Table:
        return group_count_batch(batch, ["lang", "n_chars"], count="c")

    h = (
        src.map_batches(hist, batch_format="pyarrow")
        .to_pandas()  # bounded: |langs| x |distinct lengths|
        .groupby(["lang", "n_chars"], as_index=False)["c"]
        .sum()
        .sort_values(["lang", "n_chars"])
    )
    thresholds: dict[str, int] = {}
    for lang, grp in h.groupby("lang"):
        n = int(grp["c"].sum())
        cum = grp["c"].cumsum().to_numpy()
        vals = grp["n_chars"].to_numpy()
        thresholds[lang] = int(vals[np.searchsorted(cum, -(-n // 2))])

    def filt(batch: pa.Table) -> pa.Table:
        v = batch["n_chars"].to_numpy(zero_copy_only=False)
        m = np.array([thresholds[lg] for lg in batch["lang"].to_pylist()])
        return batch.filter(pa.array(v >= m))

    return src.map_batches(filt, batch_format="pyarrow")


@register(
    "top_tokens_by_lang",
    oracle=f"""
    WITH toks AS (
        SELECT lang, unnest({_SQL_TOKENS}) AS token FROM documents
    ),
    counts AS (
        SELECT lang, token, count(*) AS cnt FROM toks GROUP BY lang, token
    ),
    ranked AS (
        SELECT lang, token, cnt,
               row_number() OVER (
                   PARTITION BY lang ORDER BY cnt DESC, token
               ) AS r
        FROM counts
    )
    SELECT lang, token, cnt, CAST(r AS BIGINT) AS rank
    FROM ranked WHERE r <= 5
    """,
)
def top_tokens_by_lang(sf_dir: str, plan: str = "auto"):
    """GROUPED top-k aggregate: the 5 most frequent tokens per language —
    the per-stratum vocabulary summary a multilingual corpus report needs.
    Per-batch (lang, token) count partials (vocabulary x langs x batches
    rows, Heaps'-law small) through the shared two-plan merge; the final
    per-lang take is the same vectorized lexsort + segment-boundary
    pattern as host_topk_docs."""
    from sciscraper_ray.kernels.tokenize import tokenize_column
    from sciscraper_ray.pipelines.plan import driver_frame, resolve_plan

    def partial(batch: pa.Table) -> pa.Table:
        tokens = tokenize_column(batch["text"]).combine_chunks()
        flat = pc.list_flatten(tokens)
        parents = pc.list_parent_indices(tokens).to_numpy(zero_copy_only=False)
        t = pa.table({"lang": batch["lang"].take(parents), "token": flat})
        return group_count_batch(t, ["lang", "token"])

    partials = _docs(sf_dir, columns=("lang", "text")).map_batches(
        partial, batch_format="pyarrow"
    )
    mode, partials = resolve_plan(partials, plan)
    if mode == "driver":
        df = driver_frame(partials, what="top_tokens_by_lang")
        agg = df.groupby(["lang", "token"], as_index=False)["cnt"].sum()
    else:
        agg = group_count(
            partials, ["lang", "token"], {"cnt": "cnt"}, count=None
        ).to_pandas()  # bounded: vocab x langs post-aggregate
    agg = agg.sort_values(["lang", "cnt", "token"], ascending=[True, False, True])
    agg["rank"] = agg.groupby("lang").cumcount() + 1
    out = agg[agg["rank"] <= 5].reset_index(drop=True)
    return out[["lang", "token", "cnt", "rank"]]


@register(
    "doc_lang_mismatch",
    oracle=f"""
    SELECT p.doc_id, d.lang, p.lang_pred
    FROM ({_lang_sql()}) p JOIN documents d USING (doc_id)
    WHERE p.lang_pred <> d.lang
    """,
)
def doc_lang_mismatch(sf_dir: str):
    """Crawl-QA mismatch report: documents whose content-based language ID
    disagrees with the page's DECLARED lang attribute — the wrong-langtag
    detector every multilingual crawl runs before per-lang routing (declared
    tags are wrong or missing on a large fraction of the real web). One
    vectorized pass over (doc_id, text, lang); the declared column rides
    along and the filter is an Arrow kernel — zero shuffle."""
    def mismatch(batch: pa.Table) -> pa.Table:
        out = lang_id_batch(batch)
        keep = pc.invert(pc.equal(out["lang_pred"], out["lang"]))
        return out.filter(keep).select(["doc_id", "lang", "lang_pred"])

    return _docs(sf_dir, columns=("doc_id", "text", "lang")).map_batches(
        mismatch, batch_format="pyarrow"
    )


_GD_ETA = 0.5
_GD_SIGMA = "1/(1+exp(-({z})))"


def _gd_grad_sql(p_expr: str, src: str) -> str:
    """One full-batch gradient CTE body: avg((p - y) * x_k) given the
    prediction expression and the weight-CTE to join."""
    return f"""
        SELECT sum(({p_expr} - y) * x1) / max(n.n) AS ga,
               sum(({p_expr} - y) * x2) / max(n.n) AS gb,
               sum(({p_expr} - y))      / max(n.n) AS gc
        FROM f{src}, n
    """


@register(
    "lr_train_gd",
    oracle=f"""
    WITH f AS (
        SELECT CAST(n_chars AS DOUBLE) / 1000 AS x1,
               CAST(len({_SQL_TOKENS}) AS DOUBLE) / 100 AS x2,
               CASE WHEN lang = 'en' THEN 1.0 ELSE 0.0 END AS y
        FROM documents
    ), n AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM f),
    g1 AS ({_gd_grad_sql("0.5", "")}),
    w1 AS (SELECT -{_GD_ETA}*ga AS wa, -{_GD_ETA}*gb AS wb, -{_GD_ETA}*gc AS wc
           FROM g1),
    g2 AS ({_gd_grad_sql(_GD_SIGMA.format(z="w1.wa*x1 + w1.wb*x2 + w1.wc"), ", w1")}),
    w2 AS (SELECT w1.wa - {_GD_ETA}*g2.ga AS wa, w1.wb - {_GD_ETA}*g2.gb AS wb,
                  w1.wc - {_GD_ETA}*g2.gc AS wc FROM w1, g2),
    g3 AS ({_gd_grad_sql(_GD_SIGMA.format(z="w2.wa*x1 + w2.wb*x2 + w2.wc"), ", w2")}),
    w3 AS (SELECT w2.wa - {_GD_ETA}*g3.ga AS wa, w2.wb - {_GD_ETA}*g3.gb AS wb,
                  w2.wc - {_GD_ETA}*g3.gc AS wc FROM w2, g3),
    acc AS (
        SELECT avg(CASE WHEN (CASE WHEN w3.wa*x1 + w3.wb*x2 + w3.wc >= 0
                                   THEN 1.0 ELSE 0.0 END) = y
                        THEN 1.0 ELSE 0.0 END) AS acc
        FROM f, w3
    )
    SELECT round(w3.wa, 6) AS w_len, round(w3.wb, 6) AS w_tok,
           round(w3.wc, 6) AS w_bias, round(acc.acc, 6) AS train_acc
    FROM w3, acc
    """,
)
def lr_train_gd(sf_dir: str):
    """Distributed quality-classifier TRAINING (companion to the inference
    op doc_lr_score): full-batch logistic-regression gradient descent,
    3 iterations, label = (lang = 'en'), features = (n_chars/1000,
    token_count/100, bias). Each iteration is one streaming pass that
    reduces per-batch PARTIAL gradient sums (one 4-value row per batch;
    the exchange never grows with the corpus), the driver applies the
     3-float weight update, and the next pass closes over the new
    weights — the canonical data-parallel SGD/GD shape (parameters
    broadcast, gradients tree-reduced) at Dataset granularity. A final
    pass measures training accuracy with the sign rule. The oracle
    unrolls all three iterations as chained CTEs, so the driver checks
    the whole optimization trajectory, not just a plausible endpoint."""

    def feats(batch: pa.Table):
        txt = pc.fill_null(batch["text"], "")
        ntok = pc.add(
            pc.count_substring(pc.utf8_trim(txt, " "), " "), 1
        ).to_numpy(zero_copy_only=False)
        x1 = batch["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64) / 1000
        x2 = ntok.astype(np.float64) / 100
        y = pc.equal(batch["lang"], "en").to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        return x1, x2, y

    def grad_pass(w):
        def partial(batch: pa.Table) -> pa.Table:
            x1, x2, y = feats(batch)
            if w is None:
                p = np.full(len(y), 0.5)
            else:
                p = 1.0 / (1.0 + np.exp(-(w[0] * x1 + w[1] * x2 + w[2])))
            d = p - y
            return pa.table(
                {
                    "ga": pa.array([float((d * x1).sum())]),
                    "gb": pa.array([float((d * x2).sum())]),
                    "gc": pa.array([float(d.sum())]),
                    "cnt": pa.array([len(y)]),
                }
            )

        agg = (
            _docs(sf_dir, columns=("text", "lang", "n_chars"))
            .map_batches(partial, batch_format="pyarrow")
            .to_pandas()  # bounded: one row per batch
            .sum()
        )
        n = float(agg["cnt"])
        return np.array([agg["ga"], agg["gb"], agg["gc"]]) / n

    w = None
    for _ in range(3):
        g = grad_pass(w)
        w = (np.zeros(3) if w is None else w) - _GD_ETA * g

    def acc_partial(batch: pa.Table) -> pa.Table:
        x1, x2, y = feats(batch)
        pred = (w[0] * x1 + w[1] * x2 + w[2] >= 0).astype(np.float64)
        return pa.table(
            {
                "correct": pa.array([float((pred == y).sum())]),
                "cnt": pa.array([len(y)]),
            }
        )

    agg = (
        _docs(sf_dir, columns=("text", "lang", "n_chars"))
        .map_batches(acc_partial, batch_format="pyarrow")
        .to_pandas()  # bounded: one scalar row per block
        .sum()
    )
    return pa.table(
        {
            "w_len": pa.array([round(float(w[0]), 6)]),
            "w_tok": pa.array([round(float(w[1]), 6)]),
            "w_bias": pa.array([round(float(w[2]), 6)]),
            "train_acc": pa.array([round(float(agg["correct"] / agg["cnt"]), 6)]),
        }
    )


@register(
    "doc_bigram_lm_ppl",
    oracle=f"""
    WITH toks AS (
        SELECT doc_id,
               unnest({_SQL_TOKENS}) AS token,
               unnest(range(len({_SQL_TOKENS}))) AS ord
        FROM documents
    ), uni AS (
        SELECT token, count(*) AS c1 FROM toks GROUP BY token
    ), vsz AS (
        SELECT count(*) AS v FROM uni
    ), bg AS (
        SELECT a.doc_id, a.token AS w1, b.token AS w2
        FROM toks a JOIN toks b
          ON b.doc_id = a.doc_id AND b.ord = a.ord + 1
    ), bgc AS (
        SELECT w1, w2, count(*) AS c2 FROM bg GROUP BY w1, w2
    ), terms AS (
        SELECT bg.doc_id,
               ln((bgc.c2 + 1.0) / (uni.c1 + vsz.v)) AS t
        FROM bg
        JOIN bgc USING (w1, w2)
        JOIN uni ON uni.token = bg.w1
        CROSS JOIN vsz
    ), agg AS (
        SELECT doc_id, CAST(count(*) AS BIGINT) AS n_bigrams,
               round(sum(t) / count(*), 6) AS avg_logprob
        FROM terms GROUP BY doc_id
    )
    SELECT d.doc_id,
           coalesce(agg.n_bigrams, 0) AS n_bigrams,
           agg.avg_logprob
    FROM documents d LEFT JOIN agg USING (doc_id)
    """,
)
def doc_bigram_lm_ppl(sf_dir: str):
    """Bigram-LM log-likelihood scoring — the CCNet/KenLM perplexity
    filter shape one order up from doc_unigram_freq_score: train pass
    counts global unigrams and bigrams (per-batch value-count partials ->
    vocabulary-sized groupby — Heaps'-law bounded; in production the
    trained LM is the broadcast artifact, exactly as KenLM's binary is),
    the two count tables broadcast once via ray.put; score pass maps each
    document's adjacent token pairs through add-one smoothing
    P(w2|w1) = (c(w1,w2)+1)/(c(w1)+V) and emits the per-token average
    log-probability (the log-domain perplexity equivalent CCNet buckets
    on). Term sums accumulate per doc over <=100 terms; both engines
    round to 6 decimals, burying the <=1e-13 libm/associativity spread.
    Zero shuffle in the score pass."""
    import pandas as pd
    import ray

    from sciscraper_ray.kernels.tokenize import tokenize_column
    from sciscraper_ray.pipelines.queries.dedup import _ngram_positions

    def uni_partial(batch: pa.Table) -> pa.Table:
        return pa.table({"token": pc.list_flatten(tokenize_column(batch["text"]))})

    def bg_partial(batch: pa.Table) -> pa.Table:
        _, bgs = _ngram_positions(batch, 2)
        return pa.table({"bg": bgs})

    uni = group_count(
        _docs(sf_dir).map_batches(uni_partial, batch_format="pyarrow"), "token"
    ).to_pandas()  # bounded: vocab LM table (broadcast side)
    bgc = group_count(
        _docs(sf_dir).map_batches(bg_partial, batch_format="pyarrow"), "bg"
    ).to_pandas()  # bounded: bigram LM table (broadcast side; must fit to ray.put)
    vocab_size = len(uni)
    lm_ref = ray.put(
        (
            pd.Series(uni["cnt"].to_numpy(np.int64), index=uni["token"]),
            pd.Series(bgc["cnt"].to_numpy(np.int64), index=bgc["bg"]),
            vocab_size,
        )
    )

    def score(batch: pa.Table) -> pa.Table:
        uni_lut, bg_lut, v = ray.get(lm_ref)
        pos, bgs = _ngram_positions(batch, 2)
        n = batch.num_rows
        n_bg = np.zeros(n, np.int64)
        tsum = np.zeros(n, np.float64)
        if len(pos):
            bgs_pd = pd.Series(bgs.to_pandas())  # bounded: worker-side column conversion
            c2 = bgs_pd.map(bg_lut).to_numpy(np.int64)
            w1 = bgs_pd.str.split(" ").str[0]
            c1 = w1.map(uni_lut).to_numpy(np.int64)
            terms = np.log((c2 + 1.0) / (c1 + v))
            np.add.at(n_bg, pos, 1)
            np.add.at(tsum, pos, terms)
        avg = np.full(n, np.nan)
        nz = n_bg > 0
        avg[nz] = np.round(tsum[nz] / n_bg[nz], 6)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_bigrams": pa.array(n_bg, pa.int64()),
                "avg_logprob": pa.array(avg, pa.float64()),
            }
        )

    return _docs(sf_dir).map_batches(score, batch_format="pyarrow")


# --------------------------------------------------------------------------
# KWIC concordance snippets — the keyword-in-context view a retrieval UI
# renders for each hit (Luhn 1960); one row per occurrence with clamped
# two-token windows on each side.
# --------------------------------------------------------------------------

_KWIC_TERM = "table"


@register(
    "doc_snippets",
    oracle=f"""
    WITH t AS (
        SELECT doc_id, {_SQL_TOKENS} AS toks FROM documents
    ), pos AS (
        SELECT doc_id, toks, unnest(range(len(toks))) AS i FROM t
    )
    SELECT doc_id,
           CAST(i AS BIGINT) AS pos,
           array_to_string(toks[greatest(i - 1, 1):i], ' ') AS left_ctx,
           array_to_string(toks[i + 2:least(i + 3, len(toks))], ' ')
               AS right_ctx
    FROM pos WHERE toks[i + 1] = '{_KWIC_TERM}'
    """,
)
def doc_snippets(sf_dir: str):
    """Keyword-in-context extraction, fully vectorized: one tokenize pass,
    the match mask is a single Arrow equality over the flat token buffer,
    and each context token is one clamped gather (take with null indices
    at document boundaries) — variable-width windows come from if_else
    composition, never a per-hit Python loop. Zero shuffle: every row of
    output is produced in the block that read its document. Boundary
    semantics match the oracle's 1-indexed list slices exactly (empty
    window -> NULL on both engines)."""
    from sciscraper_ray.kernels.tokenize import tokenize_column

    def snippets(batch: pa.Table) -> pa.Table:
        toks = tokenize_column(batch["text"]).combine_chunks()
        flat = toks.flatten()
        offs = np.asarray(toks.offsets, dtype=np.int64)
        starts, ends = offs[:-1], offs[1:]
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        hit = pc.equal(flat, _KWIC_TERM).to_numpy(zero_copy_only=False)
        g = np.nonzero(hit)[0]
        doc_idx = parents[g]
        st, en = starts[doc_idx], ends[doc_idx]

        def gather(idx: np.ndarray, lo: np.ndarray, hi: np.ndarray):
            ok = (idx >= lo) & (idx < hi)
            ia = pa.array(
                np.where(ok, idx, 0), pa.int64(), mask=~ok
            )
            return flat.take(ia)

        tm2 = gather(g - 2, st, en)
        tm1 = gather(g - 1, st, en)
        tp1 = gather(g + 1, st, en)
        tp2 = gather(g + 2, st, en)
        left = pc.if_else(
            pc.is_valid(tm2),
            pc.binary_join_element_wise(tm2, tm1, " "),
            tm1,
        )
        right = pc.if_else(
            pc.is_valid(tp2),
            pc.binary_join_element_wise(tp1, tp2, " "),
            tp1,
        )
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)[doc_idx]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "pos": pa.array(g - st, pa.int64()),
                "left_ctx": left,
                "right_ctx": right,
            }
        )

    return _docs(sf_dir).map_batches(snippets, batch_format="pyarrow")


@register(
    "token_postings_delta_stats",
    oracle=f"""
    WITH pairs AS (
        SELECT DISTINCT doc_id, unnest({_SQL_TOKENS}) AS token FROM documents
    ), d AS (
        SELECT token, doc_id,
               doc_id - lag(doc_id) OVER (
                   PARTITION BY token ORDER BY doc_id
               ) AS delta
        FROM pairs
    )
    SELECT token, CAST(count(*) AS BIGINT) AS df,
           CAST(min(doc_id) AS BIGINT) AS min_doc,
           CAST(max(doc_id) AS BIGINT) AS max_doc,
           CAST(coalesce(max(delta), 0) AS BIGINT) AS max_gap
    FROM d GROUP BY token
    """,
)
def token_postings_delta_stats(sf_dir: str):
    """Posting-list delta statistics — the compressibility profile an
    index builder reads before picking a varint/PFor layout (df, id
    range, and the worst consecutive-id gap per token). The max-gap
    aggregate needs SORTED postings, so it can't fold into a plain
    groupby; plan: per-batch DISTINCT (token, doc) partials, ONE
    token-hash bucket shuffle (token_inverted_index's exchange), then
    per bucket a vectorized lexsort (token, doc) + shifted diff with
    same-token masking + np.maximum.reduceat over token segments — no
    per-token Python. Group count is O(buckets), not vocabulary."""
    def pair_partial(b: pa.Table) -> pa.Table:
        from sciscraper_ray.kernels.tokenize import tokenize_column

        toks = tokenize_column(b["text"]).combine_chunks()
        offs = np.asarray(toks.offsets, np.int64)
        flat = toks.values
        counts = np.diff(offs)
        doc = np.repeat(
            b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64), counts
        )
        keep = pc.is_valid(flat).to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "token": flat.filter(pa.array(keep)),
                "doc_id": pa.array(doc[keep], pa.int64()),
            }
        )
        return t

    pairs = group_count(
        _docs(sf_dir, columns=("doc_id", "text")).map_batches(
            pair_partial, batch_format="pyarrow"
        ),
        ["token", "doc_id"],
    ).drop_columns(["cnt"])

    N_BUCKETS = 32

    def add_bucket(b: pa.Table) -> pa.Table:
        # process-stable bucket hash (NOT Python hash(): PYTHONHASHSEED
        # varies across workers and would split a token's postings)
        import zlib

        h = np.array(
            [
                zlib.crc32(t.encode("utf-8")) & (N_BUCKETS - 1)
                for t in b["token"].to_pylist()
            ],
            np.int64,
        )
        return b.append_column("bucket", pa.array(h, pa.int64()))

    def bucket_kernel(g):
        import pandas as pd

        tok = g["token"].to_numpy()
        doc = g["doc_id"].to_numpy()
        order = np.lexsort((doc, tok))
        tok_s, doc_s = tok[order], doc[order]
        new_tok = np.ones(len(tok_s), bool)
        new_tok[1:] = tok_s[1:] != tok_s[:-1]
        starts = np.flatnonzero(new_tok)
        lens = np.diff(np.append(starts, len(tok_s)))
        gaps = np.zeros(len(doc_s), np.int64)
        gaps[1:] = doc_s[1:] - doc_s[:-1]
        gaps[new_tok] = 0
        max_gap = np.maximum.reduceat(gaps, starts)
        # single-posting tokens: reduceat over a 1-length segment sees
        # its own zeroed gap, so max_gap is already 0 there
        return pd.DataFrame(
            {
                "token": tok_s[starts],
                "df": lens.astype(np.int64),
                "min_doc": doc_s[starts].astype(np.int64),
                "max_doc": doc_s[starts + lens - 1].astype(np.int64),
                "max_gap": max_gap,
            }
        )

    return (
        pairs.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_kernel, batch_format="pandas")
        .map_batches(
            lambda b: b.select(["token", "df", "min_doc", "max_doc", "max_gap"]),
            batch_format="pyarrow",
        )
    )


@register(
    "page_paragraph_stats",
    oracle="""
    SELECT doc_id,
           CAST((len(string_split(text, ' ')) + 39) // 40 AS BIGINT)
               AS n_paras,
           CAST(length(text)
                - ((len(string_split(text, ' ')) + 39) // 40 - 1)
               AS BIGINT) AS sum_chars
    FROM documents
    """,
)
def page_paragraph_stats(sf_dir: str):
    """Paragraph-level extraction parity: parse every fixture page with
    the REAL DOM engine, count the <article id=main> paragraphs and sum
    their extracted text lengths. The synthesizer chunks main content
    into 40-word paragraphs, so the oracle rebuilds both numbers
    arithmetically — ceil(tokens/40) paragraphs, and the joined-chunk
    char total telescopes to length(text) minus the (n_paras-1) removed
    separator spaces. Any escape/unescape or whitespace bug anywhere in
    the parse chain breaks the equality; one parse per page, zero
    shuffle."""
    from sciscraper_ray.sources.page_synth import render_html
    from sciscraper_ray.stages.dom_select import select_texts

    def harvest(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        n_paras: list[int] = []
        sum_chars: list[int] = []
        for i, t, lg in zip(
            ids, batch["text"].to_pylist(), batch["lang"].to_pylist()
        ):
            page = render_html(int(i), t, lg).decode()
            paras = select_texts(page, "article p")
            n_paras.append(len(paras))
            sum_chars.append(sum(len(p) for p in paras))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_paras": pa.array(n_paras, pa.int64()),
                "sum_chars": pa.array(sum_chars, pa.int64()),
            }
        )

    return _docs(sf_dir, columns=("doc_id", "text", "lang")).map_batches(
        harvest, batch_format="pyarrow"
    )


# --------------------------------------------------------------------------
# Deterministic synchronous label propagation (Raghavan et al. 2007,
# restricted to the SQL-mirrorable synchronous min-tiebreak form): the
# cheap community-detection pass crawl pipelines run between WCC (too
# coarse: one giant component) and modularity methods (not
# fixed-round-deterministic). 3 synchronous rounds, then the community
# size histogram.
# --------------------------------------------------------------------------



# --------------------------------------------------------------------------
# CDX sidecar index build: the (offset, length) table that turns
# sequential-only WARC segments into a random-access store (what
# Common Crawl publishes as .cdx). The oracle derives every offset
# arithmetically — the WARC/1.0 envelope is deterministic, so
# rec_len = 127 + 2*len(digits(id)) + len(digits(payload_len)) +
# payload_len and offsets are the per-shard prefix sum — which means a
# single byte of writer/scanner drift fails the compare.
# --------------------------------------------------------------------------


@register(
    "warc_cdx_index",
    oracle="""
    WITH r AS (
        SELECT doc_id, doc_id % 8 AS shard,
               127 + 2 * length(CAST(doc_id AS VARCHAR))
                   + length(CAST(octet_length(encode(text)) AS VARCHAR))
                   + octet_length(encode(text)) AS rec_len
        FROM documents
    )
    SELECT doc_id, CAST(shard AS BIGINT) AS shard,
           CAST(sum(rec_len) OVER (PARTITION BY shard ORDER BY doc_id
                ROWS UNBOUNDED PRECEDING) - rec_len AS BIGINT) AS offset,
           CAST(rec_len AS BIGINT) AS rec_len
    FROM r
    """,
)
def warc_cdx_index(sf_dir: str):
    """Build the CDX index by scanning the WARC shards themselves
    (sources/warc.py cdx_scan: Content-Length-delimited walk recording
    each record's magic offset and full envelope span). One task per
    segment file — the index build is embarrassingly parallel and
    shuffle-free, exactly how real .cdx generation fans out over
    warc.paths; the oracle recomputes every byte offset from the
    envelope arithmetic, so the check pins the writer AND scanner to
    the format contract."""
    import os

    import ray.data

    from sciscraper_ray.sources.warc import cdx_scan

    out_dir, n_shards = _warc_fixture_dir(sf_dir)

    def scan_batch(batch: pa.Table) -> pa.Table:
        ids_, shards_, offs_, lens_ = [], [], [], []
        for path, blob in zip(
            batch["path"].to_pylist(), batch["bytes"].to_pylist()
        ):
            shard = int(os.path.basename(path).split("-")[1].split(".")[0])
            for rec_id, _uri, off, ln in cdx_scan(blob):
                ids_.append(rec_id)
                shards_.append(shard)
                offs_.append(off)
                lens_.append(ln)
        return pa.table(
            {
                "doc_id": pa.array(ids_, pa.int64()),
                "shard": pa.array(shards_, pa.int64()),
                "offset": pa.array(offs_, pa.int64()),
                "rec_len": pa.array(lens_, pa.int64()),
            }
        )

    return ray.data.read_binary_files(
        [os.path.join(out_dir, f"shard-{s:04d}.warc") for s in range(n_shards)],
        include_paths=True,
    ).map_batches(scan_batch, batch_format="pyarrow")


@register(
    "warc_gzip_member_split",
    oracle="""
    SELECT doc_id,
           doc_id % 8 AS shard,
           CAST(row_number() OVER (PARTITION BY doc_id % 8
                                   ORDER BY doc_id) AS BIGINT)
               AS member_index,
           CAST(14 + length(CAST(doc_id AS VARCHAR)) + strlen(text)
                AS BIGINT) AS uncomp_len
    FROM documents
    """,
)
def warc_gzip_member_split(sf_dir: str):
    """Member-gzip WARC ingestion — the REAL Common-Crawl `.warc.gz`
    framing, where every record is its own gzip member and a reader must
    discover member boundaries by decoding (no Content-Length framing
    like warc_roundtrip's plain segments, no index). The fixture is
    written per run into a fresh temporary directory, removed once the
    result is materialized (the warc_roundtrip cache-race lesson: no
    shared /tmp cache to go stale), by an 8-group
    groupby-map_groups — one worker per shard concatenates its members
    in doc order. The read side is the honest scale plan: one task per
    shard file (gzip members force sequential decode within a file —
    exactly why crawl archives ship thousands of small shards), each
    walking members with a streaming decompressor whose unused_data
    yields the next member's offset; rows (doc, shard, member_index,
    byte length) stream out per member, nothing buffers a whole shard's
    decompressed payloads. The oracle reconstructs the member layout
    from the synthesis arithmetic. (Shard files carry a .warcgz
    suffix: read_binary_files auto-gunzips *.gz paths via Arrow's
    extension sniffing, which would hide the member framing this op
    exists to exercise.)"""
    import gzip
    import io
    import tempfile
    import zlib

    import pandas as pd

    with tempfile.TemporaryDirectory(prefix="warc_gz_") as base:
        def add_shard(b: pa.Table) -> pa.Table:
            ids = b["doc_id"].to_numpy(zero_copy_only=False)
            return b.append_column(
                "shard", pa.array((ids % 8).astype(np.int64))
            )

        def write_shard(g: "pd.DataFrame") -> "pd.DataFrame":
            g = g.sort_values("doc_id")
            shard = int(g["shard"].iloc[0])
            buf = io.BytesIO()
            for i, t in zip(g["doc_id"], g["text"]):
                payload = f"WARC/1.0\ndoc:{int(i)}\n{t}".encode()
                with gzip.GzipFile(
                    fileobj=buf, mode="wb", mtime=0, compresslevel=6
                ) as gz:
                    gz.write(payload)
            with open(f"{base}/shard-{shard:02d}.warcgz", "wb") as f:
                f.write(buf.getvalue())
            return pd.DataFrame({"shard": [shard], "n": [len(g)]})

        (
            _docs(sf_dir, columns=("doc_id", "text"))
            .map_batches(add_shard, batch_format="pyarrow")
            .groupby("shard")
            .map_groups(write_shard, batch_format="pandas")
            .materialize()  # barrier: shards fully written before the read
        )

        def split_members(b: pa.Table) -> pa.Table:
            out_doc: list[int] = []
            out_shard: list[int] = []
            out_idx: list[int] = []
            out_len: list[int] = []
            for blob in b["bytes"].to_pylist():
                rest = bytes(blob)
                idx = 0
                shard = None
                while rest:
                    obj = zlib.decompressobj(31)  # one gzip member
                    payload = obj.decompress(rest)
                    payload += obj.flush()
                    rest = obj.unused_data
                    idx += 1
                    head, doc_line, text = payload.decode().split("\n", 2)
                    assert head == "WARC/1.0"
                    doc = int(doc_line.removeprefix("doc:"))
                    if shard is None:
                        shard = doc % 8
                    out_doc.append(doc)
                    out_shard.append(shard)
                    out_idx.append(idx)
                    out_len.append(len(payload))
            return pa.table(
                {
                    "doc_id": pa.array(out_doc, pa.int64()),
                    "shard": pa.array(out_shard, pa.int64()),
                    "member_index": pa.array(out_idx, pa.int64()),
                    "uncomp_len": pa.array(out_len, pa.int64()),
                }
            )

        import ray.data as rd

        return rd.read_binary_files(base).map_batches(
            split_members, batch_format="pyarrow"
        ).materialize()


@register(
    "doc_ccnet_ppl_bins",
    oracle=f"""
    WITH toks AS (
        SELECT doc_id,
               unnest({_SQL_TOKENS}) AS token,
               unnest(range(len({_SQL_TOKENS}))) AS ord
        FROM documents
    ), uni AS (
        SELECT token, count(*) AS c1 FROM toks GROUP BY token
    ), vsz AS (
        SELECT count(*) AS v FROM uni
    ), bg AS (
        SELECT a.doc_id, a.token AS w1, b.token AS w2
        FROM toks a JOIN toks b
          ON b.doc_id = a.doc_id AND b.ord = a.ord + 1
    ), bgc AS (
        SELECT w1, w2, count(*) AS c2 FROM bg GROUP BY w1, w2
    ), terms AS (
        SELECT bg.doc_id,
               ln((bgc.c2 + 1.0) / (uni.c1 + vsz.v)) AS t
        FROM bg
        JOIN bgc USING (w1, w2)
        JOIN uni ON uni.token = bg.w1
        CROSS JOIN vsz
    ), agg AS (
        SELECT doc_id,
               CAST(round(round(sum(t) / count(*), 6) * 1000000) AS BIGINT)
                   AS lp
        FROM terms GROUP BY doc_id
    ), p AS (
        SELECT d.lang, agg.lp FROM documents d JOIN agg USING (doc_id)
    ), q AS (
        SELECT lang,
               quantile_disc(lp, 1.0/3) AS q1,
               quantile_disc(lp, 2.0/3) AS q2
        FROM p GROUP BY lang
    )
    SELECT p.lang,
           CASE WHEN p.lp <= q.q1 THEN 'tail'
                WHEN p.lp <= q.q2 THEN 'middle'
                ELSE 'head' END AS bin,
           CAST(count(*) AS BIGINT) AS n_docs,
           CAST(min(p.lp) AS BIGINT) AS min_lp_micro,
           CAST(max(p.lp) AS BIGINT) AS max_lp_micro
    FROM p JOIN q USING (lang)
    GROUP BY p.lang, bin
    """,
)
def doc_ccnet_ppl_bins(sf_dir: str):
    """CCNet's actual selection step: per-language head/middle/tail
    binning of documents by LM perplexity tertiles (Wenzek et al. keep
    'head' as the cleanest third; here higher avg log-prob = lower
    perplexity = head). Everything after the bigram-LM score runs in
    INTEGER micro-log-prob units — the rounded-6 score is scaled to an
    exact int64 the moment it exists, so tertile thresholds, bin
    comparisons and the min/max outputs never touch a float boundary
    (quantile_disc over BIGINT returns an element; the driver mirrors
    the sorted[ceil(n*q)-1] rule with the same double n*q product the
    engine uses — the pinned formula in test_round4_properties). Plan:
    the per-doc score Dataset joins lang via one bucketed co-partitioned
    join, compresses to a (lang, lp) histogram whose cell count is
    RESOLUTION-bounded (<= 1.5e7 cells for the whole [-15, 0] log-prob
    range at 6 decimals — calendar-bounded in spirit, never row-bounded,
    the two-pass-quantile contract), thresholds broadcast, bins assign
    distributed, and the output is the |langs| x 3 summary."""
    import math

    import ray
    import ray.data

    from sciscraper_ray.stages.relational import bucketed_hash_join

    from sciscraper_ray.pipelines.queries._shared import QUERIES

    ppl = QUERIES["doc_bigram_lm_ppl"](sf_dir)

    def to_micro(b: pa.Table) -> pa.Table:
        lp = b["avg_logprob"].to_numpy(zero_copy_only=False)
        keep = ~np.isnan(lp)
        return pa.table(
            {
                "doc_id": pa.array(
                    b["doc_id"].to_numpy(zero_copy_only=False)[keep].astype(
                        np.int64
                    )
                ),
                "lp": pa.array(
                    np.round(lp[keep] * 1_000_000).astype(np.int64)
                ),
            }
        )

    lang_side = _docs(sf_dir, columns=("doc_id", "lang")).map_batches(
        lambda b: pa.table({"doc_id_r": b["doc_id"], "lang": b["lang"]}),
        batch_format="pyarrow",
    )
    joined = bucketed_hash_join(
        ppl.map_batches(to_micro, batch_format="pyarrow"),
        lang_side,
        left_on="doc_id",
        right_on="doc_id_r",
        num_buckets=8,
    )

    hist = group_count(joined, ["lang", "lp"]).to_pandas()  # bounded: resolution cells

    thresholds: dict[str, tuple[int, int]] = {}
    for lang, g in hist.groupby("lang"):
        g = g.sort_values("lp")
        vals = g["lp"].to_numpy(np.int64)
        cnts = g["cnt"].to_numpy(np.int64)
        cum = np.cumsum(cnts)
        n = int(cum[-1])

        def disc(q: float) -> int:
            k = math.ceil(n * q)  # same double product DuckDB forms
            return int(vals[np.searchsorted(cum, k)])

        thresholds[str(lang)] = (disc(1.0 / 3), disc(2.0 / 3))
    thr_ref = ray.put(thresholds)

    def assign(b: pa.Table) -> pa.Table:
        thr = ray.get(thr_ref)
        langs = b["lang"].to_pylist()
        lp = b["lp"].to_numpy(zero_copy_only=False)
        bins = [
            "tail"
            if lp[j] <= thr[langs[j]][0]
            else ("middle" if lp[j] <= thr[langs[j]][1] else "head")
            for j in range(len(langs))
        ]
        return pa.table(
            {
                "lang": pa.array(langs, pa.string()),
                "bin": pa.array(bins, pa.string()),
                "lp": b["lp"],
            }
        )

    return group_count(
        joined.map_batches(assign, batch_format="pyarrow"),
        ["lang", "bin"],
        count="n_docs",
        aggs={"min_lp_micro": ("lp", "min"), "max_lp_micro": ("lp", "max")},
    )


# --------------------------------------------------------------------------
# Hybrid retrieval: reciprocal-rank fusion + ranked-list evaluation
# --------------------------------------------------------------------------

_RRF_K = 60  # the canonical smoothing constant (Cormack et al. 2009)

_BM25_QVALS = ", ".join(
    f"({qid}, '{t1}', '{t2}', '{t3}')" for qid, (t1, t2, t3) in _BM25_QUERIES
)
_BM25_TERMS_SQL = "(" + ", ".join(f"'{t}'" for t in _BM25_TERMS) + ")"

# Second ranker shared by the fusion/eval oracles: rank documents by TOTAL
# query-term frequency (an exact-integer lexical ranker — the "sparse"
# leg of a hybrid stack), score > 0 only, ties doc_id asc, top-10.
_TF_RANKER_SQL = f"""
        SELECT query_id, doc_id, r FROM (
            SELECT q.query_id, f.doc_id,
                   row_number() OVER (
                       PARTITION BY q.query_id
                       ORDER BY (COALESCE(a.tf, 0) + COALESCE(b.tf, 0)
                                 + COALESCE(c.tf, 0)) DESC, f.doc_id ASC
                   ) AS r,
                   COALESCE(a.tf, 0) + COALESCE(b.tf, 0) + COALESCE(c.tf, 0)
                       AS s
            FROM (SELECT DISTINCT doc_id FROM tft) f
            CROSS JOIN (VALUES {_BM25_QVALS}) q(query_id, t1, t2, t3)
            LEFT JOIN tft a ON a.doc_id = f.doc_id AND a.token = q.t1
            LEFT JOIN tft b ON b.doc_id = f.doc_id AND b.token = q.t2
            LEFT JOIN tft c ON c.doc_id = f.doc_id AND c.token = q.t3
        ) WHERE s > 0 AND r <= {_BM25_TOPK}
"""

_TFT_CTE = f"""
    toks AS (
        SELECT doc_id, unnest({_SQL_TOKENS}) AS token FROM documents
    ), tft AS (
        SELECT doc_id, token, CAST(count(*) AS BIGINT) AS tf
        FROM toks WHERE token IN {_BM25_TERMS_SQL} GROUP BY doc_id, token
    )
"""


def _tf_topk_pandas(sf_dir: str):
    """Total-query-term-frequency top-10 per query: one corpus scan, a
    per-batch integer partial top-k per query (lossless under the global
    (s desc, doc_id asc) order), bounded driver merge."""
    from sciscraper_ray.kernels.tokenize import tokenize_column

    def partial(batch: pa.Table) -> pa.Table:
        toks = tokenize_column(batch["text"]).combine_chunks()
        flat = pc.list_flatten(toks)
        par = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        nrows = len(batch)
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        tf = {}
        for t in _BM25_TERMS:
            mask = pc.equal(flat, t).to_numpy(zero_copy_only=False)
            tf[t] = np.bincount(par[mask], minlength=nrows).astype(np.int64)
        out_q, out_d, out_s = [], [], []
        for qid, (t1, t2, t3) in _BM25_QUERIES:
            s = tf[t1] + tf[t2] + tf[t3]
            nz = np.flatnonzero(s > 0)
            order = nz[np.lexsort((doc_ids[nz], -s[nz]))][: _BM25_TOPK]
            out_q.append(np.full(len(order), qid, np.int64))
            out_d.append(doc_ids[order])
            out_s.append(s[order])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                "doc_id": pa.array(np.concatenate(out_d)),
                "s": pa.array(np.concatenate(out_s)),
            }
        )

    cand = (
        _docs(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()  # bounded: batches x Q x k rows
    )
    cand = cand.sort_values(
        ["query_id", "s", "doc_id"], ascending=[True, False, True]
    )
    return cand.groupby("query_id", sort=True).head(_BM25_TOPK)


def _ranks_of(df, score_col: str, ascending: bool = False):
    """1-based per-query rank under (score desc, doc_id asc) — the same
    total order every ranked-list oracle here uses."""
    df = df.sort_values(
        ["query_id", score_col, "doc_id"], ascending=[True, ascending, True]
    ).reset_index(drop=True)
    df["r"] = df.groupby("query_id").cumcount() + 1
    return df[["query_id", "doc_id", "r"]]


@register(
    "retrieval_rrf_fusion",
    oracle=f"""
    WITH bm AS ({_bm25_oracle()}),
    bmr AS (
        SELECT query_id, doc_id,
               row_number() OVER (
                   PARTITION BY query_id ORDER BY score DESC, doc_id ASC
               ) AS r
        FROM bm
    ),
    {_TFT_CTE},
    tfr AS ({_TF_RANKER_SQL}),
    cand AS (
        SELECT query_id, doc_id FROM bmr
        UNION
        SELECT query_id, doc_id FROM tfr
    ),
    fused AS (
        SELECT c.query_id, c.doc_id,
               COALESCE(1.0 / ({_RRF_K} + b.r), 0.0)
               + COALESCE(1.0 / ({_RRF_K} + t.r), 0.0) AS rrf_score
        FROM cand c
        LEFT JOIN bmr b ON b.query_id = c.query_id AND b.doc_id = c.doc_id
        LEFT JOIN tfr t ON t.query_id = c.query_id AND t.doc_id = c.doc_id
    )
    SELECT CAST(query_id AS BIGINT) AS query_id, doc_id, rrf_score,
           CAST(fused_rank AS BIGINT) AS fused_rank
    FROM (
        SELECT *, row_number() OVER (
            PARTITION BY query_id ORDER BY rrf_score DESC, doc_id ASC
        ) AS fused_rank
        FROM fused
    ) WHERE fused_rank <= {_BM25_TOPK}
    """,
)
def retrieval_rrf_fusion(sf_dir: str):
    """Reciprocal-rank fusion (Cormack/Clarke/Buettcher 2009) of two
    retrieval legs — the standard hybrid-search merge (dense+sparse in a
    RAG stack; here BM25 + an exact-integer total-term-frequency ranker,
    so both legs and the fusion are engine-reproducible). Each leg is a
    full corpus scan with per-batch bounded top-k partials (the BM25 plan
    and its integer twin); fusion itself touches only the <= 2*Q*k
    candidate rows. RRF score = sum over lists of 1/(60+rank), docs
    absent from a list contribute 0 — computed as two exactly-rounded
    IEEE divisions plus one add in the SAME association on both engines,
    so the emitted doubles are bit-identical (no transcendentals, no
    reduction-order ambiguity). At 100 TB each leg is the already-proven
    streaming top-k; the fused merge never leaves candidate scale."""
    import pandas as pd

    from sciscraper_ray.pipelines.queries._shared import QUERIES

    bm = QUERIES["doc_bm25_topk"](sf_dir).to_pandas()  # bounded: Q x k fused top-k
    bmr = _ranks_of(bm, "score")
    tfr = _ranks_of(_tf_topk_pandas(sf_dir), "s")

    cand = pd.merge(
        bmr.rename(columns={"r": "r_bm"}),
        tfr.rename(columns={"r": "r_tf"}),
        on=["query_id", "doc_id"],
        how="outer",
    )
    a = np.where(
        cand["r_bm"].notna(), 1.0 / (_RRF_K + cand["r_bm"].fillna(0.0)), 0.0
    )
    b = np.where(
        cand["r_tf"].notna(), 1.0 / (_RRF_K + cand["r_tf"].fillna(0.0)), 0.0
    )
    cand["rrf_score"] = a + b
    cand = cand.sort_values(
        ["query_id", "rrf_score", "doc_id"], ascending=[True, False, True]
    ).reset_index(drop=True)
    cand["fused_rank"] = cand.groupby("query_id").cumcount() + 1
    top = cand[cand["fused_rank"] <= _BM25_TOPK]
    return pa.table(
        {
            "query_id": pa.array(top["query_id"].to_numpy(np.int64)),
            "doc_id": pa.array(top["doc_id"].to_numpy(np.int64)),
            "rrf_score": pa.array(top["rrf_score"].to_numpy(np.float64)),
            "fused_rank": pa.array(top["fused_rank"].to_numpy(np.int64)),
        }
    )


@register(
    "retrieval_eval_mrr",
    oracle=f"""
    WITH bm AS ({_bm25_oracle()}),
    bmr AS (
        SELECT query_id, doc_id,
               row_number() OVER (
                   PARTITION BY query_id ORDER BY score DESC, doc_id ASC
               ) AS r
        FROM bm
    ),
    {_TFT_CTE},
    rel AS (
        SELECT q.query_id, a.doc_id
        FROM (VALUES {_BM25_QVALS}) q(query_id, t1, t2, t3)
        JOIN tft a ON a.token = q.t1
        JOIN tft b ON b.doc_id = a.doc_id AND b.token = q.t2
        JOIN tft c ON c.doc_id = a.doc_id AND c.token = q.t3
    ),
    hit AS (
        SELECT bmr.query_id, bmr.r
        FROM bmr JOIN rel
          ON rel.query_id = bmr.query_id AND rel.doc_id = bmr.doc_id
    ),
    per AS (
        SELECT q.query_id,
               (SELECT count(*) FROM rel
                WHERE rel.query_id = q.query_id) AS n_rel,
               (SELECT count(*) FROM hit
                WHERE hit.query_id = q.query_id AND hit.r <= 5) AS hits_at_5,
               (SELECT count(*) FROM hit
                WHERE hit.query_id = q.query_id AND hit.r <= 10)
                   AS hits_at_10,
               COALESCE((SELECT min(hit.r) FROM hit
                         WHERE hit.query_id = q.query_id), 0)
                   AS first_rel_rank
        FROM (VALUES {_BM25_QVALS}) q(query_id, t1, t2, t3)
    )
    SELECT CAST(query_id AS BIGINT) AS query_id,
           CAST(n_rel AS BIGINT) AS n_rel,
           CAST(hits_at_5 AS BIGINT) AS hits_at_5,
           CAST(hits_at_10 AS BIGINT) AS hits_at_10,
           CAST(first_rel_rank AS BIGINT) AS first_rel_rank,
           CASE WHEN first_rel_rank = 0 THEN 0
                ELSE CAST(round(1000000.0 / first_rel_rank) AS BIGINT)
           END AS mrr_micro
    FROM per
    """,
)
def retrieval_eval_mrr(sf_dir: str):
    """Ranked-list evaluation of the BM25 leg against a deterministic
    relevance oracle (doc is relevant to a query iff it contains ALL
    three query terms — the boolean-AND containment label): per query
    emits n_rel, hits@5, hits@10, the first relevant rank, and MRR in
    exact micro units (round(1e6 / first_rank); 1e6/r never lands on a
    .5 for r <= 10, so half-even vs half-up cannot diverge). Plan: the
    ranked list is the proven bounded top-k; relevance then needs ONE
    more corpus scan emitting per-batch 5-int relevant-doc COUNT
    partials plus flags for the <= Q*k broadcast ranked docs — the
    exchange is (Q + Q*k) rows regardless of corpus size, and the
    metric assembly happens on that bounded table."""
    import ray

    from sciscraper_ray.kernels.tokenize import tokenize_column
    from sciscraper_ray.pipelines.queries._shared import QUERIES

    bm = QUERIES["doc_bm25_topk"](sf_dir).to_pandas()  # bounded: Q x k top-k
    bmr = _ranks_of(bm, "score")
    ranked = {
        int(q): dict(zip(g["doc_id"].astype(np.int64), g["r"].astype(np.int64)))
        for q, g in bmr.groupby("query_id")
    }
    ranked_ref = ray.put(ranked)

    def partial(batch: pa.Table) -> pa.Table:
        ranked_ = ray.get(ranked_ref)
        toks = tokenize_column(batch["text"]).combine_chunks()
        flat = pc.list_flatten(toks)
        par = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        nrows = len(batch)
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        has = {}
        for t in _BM25_TERMS:
            mask = pc.equal(flat, t).to_numpy(zero_copy_only=False)
            has[t] = np.bincount(par[mask], minlength=nrows) > 0
        out_q, out_d, out_c = [], [], []
        for qid, (t1, t2, t3) in _BM25_QUERIES:
            rel = has[t1] & has[t2] & has[t3]
            # count partial rides doc_id = -1
            out_q.append(qid)
            out_d.append(-1)
            out_c.append(int(rel.sum()))
            rdocs = ranked_.get(qid, {})
            for j in np.flatnonzero(rel):
                d = int(doc_ids[j])
                if d in rdocs:
                    out_q.append(qid)
                    out_d.append(d)
                    out_c.append(1)
        return pa.table(
            {
                "query_id": pa.array(np.array(out_q, np.int64)),
                "doc_id": pa.array(np.array(out_d, np.int64)),
                "c": pa.array(np.array(out_c, np.int64)),
            }
        )

    agg = group_count(
        _docs(sf_dir).map_batches(partial, batch_format="pyarrow"),
        ["query_id", "doc_id"],
        {"c": "c"},
        count=None,
    ).to_pandas()  # bounded: Q count rows + Q*k flag rows
    rows = []
    for qid, _terms in _BM25_QUERIES:
        g = agg[agg["query_id"] == qid]
        n_rel = int(g.loc[g["doc_id"] == -1, "c"].sum())
        rdocs = ranked.get(qid, {})
        hit_ranks = sorted(
            rdocs[int(d)]
            for d in g.loc[g["doc_id"] >= 0, "doc_id"]
            if int(d) in rdocs
        )
        h5 = sum(1 for r in hit_ranks if r <= 5)
        h10 = sum(1 for r in hit_ranks if r <= 10)
        first = hit_ranks[0] if hit_ranks else 0
        mrr = int(np.round(1_000_000.0 / first)) if first else 0
        rows.append((qid, n_rel, h5, h10, first, mrr))
    q, nr, h5s, h10s, fr, mm = zip(*rows)
    return pa.table(
        {
            "query_id": pa.array(np.array(q, np.int64)),
            "n_rel": pa.array(np.array(nr, np.int64)),
            "hits_at_5": pa.array(np.array(h5s, np.int64)),
            "hits_at_10": pa.array(np.array(h10s, np.int64)),
            "first_rel_rank": pa.array(np.array(fr, np.int64)),
            "mrr_micro": pa.array(np.array(mm, np.int64)),
        }
    )


_CDX_PROBES = (0, 7, 23, 46, 92, 997001, 997007)  # last two never exist


@register(
    "warc_cdx_lookup",
    oracle=f"""
    WITH r AS (
        SELECT doc_id, doc_id % 8 AS shard,
               127 + 2 * length(CAST(doc_id AS VARCHAR))
                   + length(CAST(octet_length(encode(text)) AS VARCHAR))
                   + octet_length(encode(text)) AS rec_len
        FROM documents
    ), cdx AS (
        SELECT doc_id, shard,
               sum(rec_len) OVER (PARTITION BY shard ORDER BY doc_id
                   ROWS UNBOUNDED PRECEDING) - rec_len AS offset,
               rec_len
        FROM r
    )
    SELECT p.doc_id, CAST(p.doc_id % 8 AS BIGINT) AS shard,
           CAST(coalesce(cdx.offset, -1) AS BIGINT) AS offset,
           CAST(coalesce(cdx.rec_len, -1) AS BIGINT) AS rec_len,
           CAST(cdx.doc_id IS NOT NULL AS BIGINT) AS found
    FROM (VALUES {", ".join(f"({p})" for p in _CDX_PROBES)}) AS p(doc_id)
    LEFT JOIN cdx ON cdx.doc_id = p.doc_id
    """,
)
def warc_cdx_lookup(sf_dir: str):
    """Random-access record lookup through a CDX index — the serving
    path of a crawl archive (wayback-style): each shard task SCANS its
    WARC shard once to build the sorted in-shard index, binary-searches
    the broadcast probe list (probe shard = id % 8, so each probe has
    exactly one owner and misses are provably absent, not elsewhere),
    then actually SEEKS the returned (offset, rec_len) slice and
    verifies the record magic before reporting it found — an index
    entry that doesn't dereference is a corrupt archive, reported as
    absent rather than trusted. Probes include two ids beyond any
    fixture's range to pin the miss path. Zero exchange beyond the
    7-row probe result; the oracle states offsets from the record-
    length arithmetic already proven by warc_cdx_index."""
    import os

    import ray.data

    from sciscraper_ray.sources.warc import cdx_scan

    out_dir, n_shards = _warc_fixture_dir(sf_dir)
    by_shard: dict[int, list[int]] = {}
    for p in _CDX_PROBES:
        by_shard.setdefault(p % n_shards, []).append(p)

    def lookup(batch: pa.Table) -> pa.Table:
        rows = []
        for path, blob in zip(batch["path"].to_pylist(), batch["bytes"].to_pylist()):
            shard = int(os.path.basename(path).split("-")[1].split(".")[0])
            probes = by_shard.get(shard, [])
            if not probes:
                continue
            idx = sorted((rec_id, off, ln) for rec_id, _u, off, ln in cdx_scan(blob))
            ids = [r[0] for r in idx]
            import bisect

            for p in probes:
                j = bisect.bisect_left(ids, p)
                if j < len(ids) and ids[j] == p:
                    off, ln = idx[j][1], idx[j][2]
                    ok = blob[off : off + 8] == b"WARC/1.0"
                    rows.append((p, shard, off if ok else -1, ln if ok else -1, int(ok)))
                else:
                    rows.append((p, shard, -1, -1, 0))
        return pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "shard": pa.array([r[1] for r in rows], pa.int64()),
                "offset": pa.array([r[2] for r in rows], pa.int64()),
                "rec_len": pa.array([r[3] for r in rows], pa.int64()),
                "found": pa.array([r[4] for r in rows], pa.int64()),
            }
        )

    return ray.data.read_binary_files(
        [os.path.join(out_dir, f"shard-{s:04d}.warc") for s in range(n_shards)],
        include_paths=True,
    ).map_batches(lookup, batch_format="pyarrow")


_PRF_Q = ("join", "hash", "scan")  # seed query (BM25 query 0)
_PRF_FB_DOCS = 3
_PRF_FB_TERMS = 2


def _prf_oracle() -> str:
    """RM3-lite pseudo-relevance feedback, fully in SQL: BM25 the seed
    query, take its top-3 docs, rank their non-query tokens by raw count
    (ties -> token asc) for 2 expansion terms, then re-score BM25 over
    the 5-term query with a FIXED left-to-right sum (t1..t3, e1, e2) so
    IEEE doubles match the Ray kernel bit-exactly."""
    q_sql = "(" + ", ".join(f"'{t}'" for t in _PRF_Q) + ")"
    base = f"""
    WITH dl AS (
        SELECT doc_id, CAST(len({_SQL_TOKENS}) AS DOUBLE) AS dl FROM documents
    ), corpus AS (
        SELECT CAST(count(*) AS DOUBLE) AS n, sum(dl) AS total FROM dl
    ), toks AS (
        SELECT doc_id, unnest({_SQL_TOKENS}) AS token FROM documents
    ), df AS MATERIALIZED (
        SELECT token, CAST(count(DISTINCT doc_id) AS DOUBLE) AS df
        FROM toks GROUP BY token
    ), ts AS MATERIALIZED (
        SELECT t.doc_id, t.token,
               ln(1 + (g.n - f.df + 0.5) / (f.df + 0.5))
               * (CAST(t.tf AS DOUBLE) * 2.2)
               / (t.tf + {_BM25_K1} * ((1 - {_BM25_B}) + {_BM25_B} * (d.dl / (g.total / g.n)))) AS s
        FROM (SELECT doc_id, token, CAST(count(*) AS DOUBLE) AS tf
              FROM toks GROUP BY doc_id, token) t
        JOIN df f ON f.token = t.token
        JOIN dl d ON d.doc_id = t.doc_id
        CROSS JOIN corpus g
    ), seed AS MATERIALIZED (
        SELECT d.doc_id,
               (COALESCE(s1.s, 0) + COALESCE(s2.s, 0)) + COALESCE(s3.s, 0)
                   AS score
        FROM dl d
        LEFT JOIN ts s1 ON s1.doc_id = d.doc_id AND s1.token = '{_PRF_Q[0]}'
        LEFT JOIN ts s2 ON s2.doc_id = d.doc_id AND s2.token = '{_PRF_Q[1]}'
        LEFT JOIN ts s3 ON s3.doc_id = d.doc_id AND s3.token = '{_PRF_Q[2]}'
    ), fb AS MATERIALIZED (
        SELECT doc_id FROM seed
        ORDER BY score DESC, doc_id ASC LIMIT {_PRF_FB_DOCS}
    ), exp AS MATERIALIZED (
        SELECT token, row_number() OVER (
                   ORDER BY count(*) DESC, token ASC
               ) AS rk
        FROM toks
        WHERE doc_id IN (SELECT doc_id FROM fb) AND token NOT IN {q_sql}
        GROUP BY token
        ORDER BY count(*) DESC, token ASC LIMIT {_PRF_FB_TERMS}
    )
    SELECT d.doc_id,
           ((((COALESCE(s1.s, 0) + COALESCE(s2.s, 0)) + COALESCE(s3.s, 0))
               + COALESCE(e1.s, 0)) + COALESCE(e2.s, 0)) AS score
    FROM dl d
    LEFT JOIN ts s1 ON s1.doc_id = d.doc_id AND s1.token = '{_PRF_Q[0]}'
    LEFT JOIN ts s2 ON s2.doc_id = d.doc_id AND s2.token = '{_PRF_Q[1]}'
    LEFT JOIN ts s3 ON s3.doc_id = d.doc_id AND s3.token = '{_PRF_Q[2]}'
    LEFT JOIN ts e1 ON e1.doc_id = d.doc_id
        AND e1.token = (SELECT token FROM exp WHERE rk = 1)
    LEFT JOIN ts e2 ON e2.doc_id = d.doc_id
        AND e2.token = (SELECT token FROM exp WHERE rk = 2)
    ORDER BY score DESC, d.doc_id ASC LIMIT {_BM25_TOPK}
    """
    return (
        f"SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC)"
        f" AS BIGINT) AS rank, doc_id, score FROM ({base})"
    )


@register("retrieval_bm25_prf", oracle=_prf_oracle())
def retrieval_bm25_prf(sf_dir: str):
    """Pseudo-relevance feedback (RM3-lite, Lavrenko & Croft shape):
    BM25 the seed query, harvest the 2 highest-count non-query tokens
    from its top-3 documents, and re-run BM25 over the expanded 5-term
    query — the zero-training recall booster classical IR systems run
    between first-pass retrieval and reranking. Three bounded passes:
    (1) the shared BM25 stats pass but with FULL vocabulary df (one
    vocab-bounded exchange instead of a fixed term list — expansion
    terms aren't known in advance, which is the whole point), (2) seed
    scoring with per-batch top-k partials, (3) feedback-term tally over
    just 3 broadcast doc ids, then expanded scoring, again top-k
    partials. Every score expression and the 5-term left-to-right sum
    mirror the oracle literal-for-literal, so the final ranking is
    IEEE-bit-exact with no rounding."""
    import ray

    from sciscraper_ray.kernels.tokenize import tokenize_column

    ds = _docs(sf_dir)

    # pass 1: corpus stats + FULL-vocab df (vocab-bounded partials)
    def stats_partial(batch: pa.Table) -> pa.Table:
        toks = tokenize_column(batch["text"]).combine_chunks()
        flat = pc.list_flatten(toks)
        par = pc.list_parent_indices(toks)
        pairs = pa.table({"term": flat, "d": par}).group_by(["term", "d"]).aggregate([])
        dfp = group_count_batch(pairs, ["term"], count="a")
        head = pa.table(
            {
                "term": pa.array([""]),
                "a": pa.array([len(batch)], pa.int64()),
            }
        )
        # 'b' carries total token length on the "" row only
        out = pa.concat_tables(
            [
                head.append_column("b", pa.array([int(len(flat))], pa.int64())),
                dfp.append_column("b", pa.array([0] * len(dfp), pa.int64())),
            ]
        )
        return out

    stats = group_count(
        ds.map_batches(stats_partial, batch_format="pyarrow"),
        "term",
        {"a": "a", "b": "b"},
        count=None,
    ).to_pandas()  # bounded: vocabulary term stats (broadcast side)
    srow = stats[stats["term"] == ""].iloc[0]
    n_docs, total_len = float(srow["a"]), float(srow["b"])
    avgdl = total_len / n_docs
    df_all = dict(
        zip(stats["term"], stats["a"].astype(float))
    )  # per-batch partials count distinct docs per batch; docs never split
    # across batches for df because group was (token, in-batch doc) — the
    # groupby Sum then adds per-batch distinct-doc counts, and a doc lives
    # in exactly one batch, so the sum IS the global df.

    def idf_of(t: str) -> float:
        d = df_all.get(t, 0.0)
        return float(np.log(1 + (n_docs - d + 0.5) / (d + 0.5)))

    def score_terms(terms: tuple, k: int) -> "pa.Table":
        idf = {t: idf_of(t) for t in terms}
        consts = ray.put((idf, avgdl, tuple(terms)))

        def score_partial(batch: pa.Table) -> pa.Table:
            idf_, avgdl_, terms_ = ray.get(consts)
            toks = tokenize_column(batch["text"]).combine_chunks()
            flat = pc.list_flatten(toks)
            par = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
            nrows = len(batch)
            dl = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(
                np.float64
            )
            doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            denom = _BM25_K1 * ((1 - _BM25_B) + _BM25_B * (dl / avgdl_))
            score = None
            for t in terms_:
                mask = pc.equal(flat, t).to_numpy(zero_copy_only=False)
                tf = np.bincount(par[mask], minlength=nrows).astype(np.float64)
                s = np.zeros(nrows)
                nz = tf > 0
                s[nz] = idf_[t] * (tf[nz] * 2.2) / (tf[nz] + denom[nz])
                score = s if score is None else score + s
            kk = min(k, nrows)
            order = np.lexsort((doc_ids, -score))[:kk]
            return pa.table(
                {
                    "doc_id": pa.array(doc_ids[order], pa.int64()),
                    "score": pa.array(score[order], pa.float64()),
                }
            )

        cand = (
            ds.map_batches(score_partial, batch_format="pyarrow")
            .to_pandas()  # bounded: per-block top candidates
            .sort_values(["score", "doc_id"], ascending=[False, True])
            .head(k)
        )
        return cand

    seed_top = score_terms(_PRF_Q, _PRF_FB_DOCS)
    fb_ids = set(int(d) for d in seed_top["doc_id"])
    fb_ref = ray.put(fb_ids)

    def fb_tokens(batch: pa.Table) -> pa.Table:
        wanted = ray.get(fb_ref)
        keep = np.isin(
            batch["doc_id"].to_numpy(zero_copy_only=False), list(wanted)
        )
        if not keep.any():
            return pa.table(
                {"token": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())}
            )
        toks = tokenize_column(batch.filter(pa.array(keep))["text"]).combine_chunks()
        flat = pc.list_flatten(toks)
        return group_count_batch(pa.table({"token": flat}), ["token"])

    fb = (
        ds.map_batches(fb_tokens, batch_format="pyarrow")
        .to_pandas()  # bounded: feedback-doc vocabulary
        .groupby("token", as_index=False)["cnt"]
        .sum()
    )
    fb = fb[~fb["token"].isin(_PRF_Q)].sort_values(
        ["cnt", "token"], ascending=[False, True]
    )
    expansion = tuple(fb["token"].head(_PRF_FB_TERMS))
    top = score_terms(tuple(_PRF_Q) + expansion, _BM25_TOPK).reset_index(drop=True)
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(top) + 1, dtype=np.int64), pa.int64()),
            "doc_id": pa.array(top["doc_id"].to_numpy(np.int64), pa.int64()),
            "score": pa.array(top["score"].to_numpy(np.float64), pa.float64()),
        }
    )