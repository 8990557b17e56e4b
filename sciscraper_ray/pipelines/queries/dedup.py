"""Deduplication + training-prep tier (exact/minhash/simhash/ngram, splits, PII, decon).

Split from pipelines/queries.py (round 4); registration side effects
only — import order is fixed by the package __init__.
"""
from __future__ import annotations

import pyarrow.compute as pc

import numpy as np
import pyarrow as pa
from sciscraper_ray.kernels.md5 import md5_hash128, md5_hex15, md5_hex15_sql
from sciscraper_ray.kernels.tokenize import format_manuscript
from sciscraper_ray.words import sql_in_list

from sciscraper_ray.pipelines.queries._shared import (
    _SQL_TOKENS,
    _docs,
    register,
)
from sciscraper_ray.stages.relational import group_count, group_count_batch


# --------------------------------------------------------------------------
# Deduplication family (SURVEY §2.6 rebuild additions). The synthetic
# corpus has no duplicates, so each query injects deterministic copies
# (keyed on doc_id) on BOTH sides; the oracle states the expected survivors
# or pairs by construction.
# --------------------------------------------------------------------------


def _with_copies(sf_dir: str, mod: int, offset: int, drop_last_word: bool):
    """documents ∪ deterministic copies: doc_id % mod == 0 -> copy at
    doc_id+offset (optionally with the last word dropped = near-dup)."""
    ds = _docs(sf_dir)

    def make_copies(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        keep = ids % mod == 0
        texts = [t for t, k in zip(batch["text"].to_pylist(), keep) if k]
        if drop_last_word:
            texts = [" ".join(t.split(" ")[:-1]) for t in texts]
        return pa.table(
            {
                "doc_id": pa.array((ids[keep] + offset).tolist(), type=pa.int64()),
                "text": pa.array(texts, type=pa.string()),
            }
        )

    # Materialized once: every dedup consumer reads the corpus twice
    # (key/band pass + verify/filter pass); a computed union graph would
    # re-execute per pass. For a real corpus the input is parquet and each
    # pass is an independent pruned read instead. The repartition compacts
    # the union's pathological block layout (Ray splits the small fixture
    # file for parallelism, then union doubles it: ~45-row blocks, so every
    # downstream pass paid ~128 task dispatches of overhead for microseconds
    # of work each) — fixture-shape-only concern; real parquet reads block
    # at row-group granularity. Block count sized off the free parquet
    # metadata row bound (~500 rows/block, capped at 64).
    from sciscraper_ray.pipelines.plan import parquet_row_bound

    base = parquet_row_bound(f"{sf_dir}/documents.parquet") or 0
    total = base + base // mod + 1
    nblocks = max(1, min(64, total // 500))
    return (
        ds.union(ds.map_batches(make_copies, batch_format="pyarrow"))
        .repartition(nblocks)
        .materialize()
    )


@register(
    "doc_split_assign",
    oracle=f"""
    SELECT doc_id,
           CASE WHEN ({md5_hex15_sql("CAST(doc_id AS VARCHAR)")} % 100) < 90 THEN 'train'
                WHEN ({md5_hex15_sql("CAST(doc_id AS VARCHAR)")} % 100) < 95 THEN 'val'
                ELSE 'test' END AS split
    FROM documents
    """,
)
def doc_split_assign(sf_dir: str):
    """Deterministic train/val/test assignment (90/5/5) by content-stable
    id hash — the split op a training-data pipeline needs to be
    reproducible across runs, cluster sizes, and partitionings (row
    position or RNG would not be). Pure map, no shuffle."""

    def assign(batch: pa.Table) -> pa.Table:
        h = md5_hex15(map(str, batch["doc_id"].to_pylist())) % 100
        splits = ["train" if x < 90 else "val" if x < 95 else "test" for x in h]
        return pa.table(
            {"doc_id": batch["doc_id"], "split": pa.array(splits, pa.string())}
        )

    return _docs(sf_dir, columns=("doc_id",)).map_batches(
        assign, batch_format="pyarrow"
    )


_CHUNK_TOKENS = 128
_CHUNK_STRIDE = 64


def _chunk_sql(source: str) -> str:
    """The context-window chunking contract in SQL, over any relation with
    (doc_id, text) — THE single definition both the standalone doc_chunks
    oracle and the composed training_prep oracle reuse (a one-sided edit
    must be impossible)."""
    return f"""d AS (
        SELECT doc_id, {_SQL_TOKENS} AS toks, len({_SQL_TOKENS}) AS n
        FROM {source}
    ), c AS (
        SELECT doc_id, n, unnest(range((n + {_CHUNK_STRIDE} - 1) // {_CHUNK_STRIDE})) AS k
        FROM d
    )
    SELECT c.doc_id, CAST(k AS BIGINT) AS chunk_id,
           CAST(k * {_CHUNK_STRIDE} AS BIGINT) AS start_tok,
           CAST(LEAST({_CHUNK_TOKENS}, c.n - k * {_CHUNK_STRIDE}) AS BIGINT) AS n_tokens,
           array_to_string(
               list_slice(d.toks, k * {_CHUNK_STRIDE} + 1,
                          k * {_CHUNK_STRIDE} + LEAST({_CHUNK_TOKENS}, c.n - k * {_CHUNK_STRIDE})),
               ' ') AS chunk_text
    FROM c JOIN d USING (doc_id)
    WHERE k * {_CHUNK_STRIDE} < c.n"""


@register("doc_chunks", oracle=f"WITH {_chunk_sql('documents')}")
def doc_chunks(sf_dir: str):
    """Context-window chunking with overlap (the sequence-prep op of a
    training-data pipeline): reference-tokenizer tokens, windows of 128
    tokens at stride 64 (50% overlap), emitted as exploded (doc_id,
    chunk_id, start_tok, n_tokens, chunk_text) rows. Pure flat_map —
    embarrassingly parallel, no shuffle."""
    return _docs(sf_dir).map_batches(_chunk_batch, batch_format="pyarrow")


def _chunk_batch(batch: pa.Table) -> pa.Table:
    """Exploded overlapping context windows (mirrored in the chunk SQL)."""
    from sciscraper_ray.kernels.tokenize import format_manuscript

    out = {"doc_id": [], "chunk_id": [], "start_tok": [], "n_tokens": [], "chunk_text": []}
    for i, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
        if t is None:
            # null text -> no chunks (string_split(NULL) drops the doc in
            # the oracle too; '' still yields one ''-token chunk, matching)
            continue
        toks = format_manuscript(t)
        n = len(toks)
        k = 0
        while k * _CHUNK_STRIDE < n:
            start = k * _CHUNK_STRIDE
            m = min(_CHUNK_TOKENS, n - start)
            out["doc_id"].append(i)
            out["chunk_id"].append(k)
            out["start_tok"].append(start)
            out["n_tokens"].append(m)
            out["chunk_text"].append(" ".join(toks[start : start + m]))
            k += 1
    return pa.table(
        {
            "doc_id": pa.array(out["doc_id"], pa.int64()),
            "chunk_id": pa.array(out["chunk_id"], pa.int64()),
            "start_tok": pa.array(out["start_tok"], pa.int64()),
            "n_tokens": pa.array(out["n_tokens"], pa.int64()),
            "chunk_text": pa.array(out["chunk_text"], pa.string()),
        }
    )


_PREP_QUALITY_MIN = 0.65


def _training_prep_oracle() -> str:
    """The whole C4-style prep recomputed in SQL: union with exact copies
    -> quality formula -> threshold filter -> keep-lowest-id exact dedup
    -> overlapping chunk windows."""
    from sciscraper_ray.stages.textstats import STOPWORDS_EN

    quality = f"""
        0.5 * LEAST(1.0, len({_SQL_TOKENS}) / 100.0)
      + 0.3 * (1.0 - len(list_filter({_SQL_TOKENS},
                   x -> x IN {sql_in_list(STOPWORDS_EN)})) * 1.0 / len({_SQL_TOKENS}))
      + 0.2 * LEAST(1.0,
            (list_sum(list_transform({_SQL_TOKENS}, x -> length(x))) * 1.0
             / len({_SQL_TOKENS})) / 8.0)"""
    return f"""
    WITH all_docs AS (
        SELECT doc_id, text FROM documents
        UNION ALL
        SELECT doc_id + 1000000, text FROM documents WHERE doc_id % 5 = 0
    ), kept AS (
        SELECT doc_id, text FROM all_docs WHERE ({quality}) > {_PREP_QUALITY_MIN}
    ), winners AS (
        SELECT min(doc_id) AS doc_id, text FROM kept GROUP BY text
    ), {_chunk_sql("winners")}
    """


@register("training_prep", oracle=_training_prep_oracle())
def training_prep(sf_dir: str):
    """The composed LLM training-data prep pipeline — quality filter ->
    exact dedup -> context-window chunking, over a corpus with injected
    exact duplicates. One streamed dataflow: the filter and chunker are
    pure map_batches; dedup is the shared winner_filter two-pass plan.
    The oracle recomputes every stage from first principles in SQL."""
    from sciscraper_ray.pipelines.dedup import exact_dedup
    from sciscraper_ray.stages.textstats import quality_batch

    ds = _with_copies(sf_dir, mod=5, offset=1_000_000, drop_last_word=False)

    def qfilter(batch: pa.Table) -> pa.Table:
        metrics = quality_batch(batch)
        mask = pc.greater(metrics["quality"], _PREP_QUALITY_MIN)
        return batch.filter(mask)

    kept = ds.map_batches(qfilter, batch_format="pyarrow")
    deduped = exact_dedup(kept)
    return deduped.map_batches(_chunk_batch, batch_format="pyarrow")


def _tf_table(batch: pa.Table) -> pa.Table:
    """Exploded per-doc term counts for THIS batch: one row per
    (row-position p, term) with its count — each input row is one whole
    document, so tf needs no shuffle at all. Arrow-native group_by."""
    from sciscraper_ray.kernels.tokenize import tokenize_column

    tokens = tokenize_column(batch["text"]).combine_chunks()
    pairs = pa.table(
        {
            "p": pc.list_parent_indices(tokens),
            "term": pc.list_flatten(tokens),
        }
    )
    return pairs.group_by(["p", "term"]).aggregate([("term", "count")])


class _TfIdfRank:
    """Actor-pool rank stage: fetch the broadcast df table once per actor,
    then per batch recompute the in-row tf counts, attach df by vectorized
    ``pc.index_in`` lookup, Arrow-sort, and keep the top-k per document."""

    def __init__(self, df_ref, k: int):
        import ray

        m = ray.get(df_ref)  # pandas: term -> df, built once on the driver
        self.terms = pa.array(m["term"], type=pa.string())
        self.df = m["df"].to_numpy()
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_schema = pa.schema(
            [
                ("doc_id", batch.schema.field("doc_id").type),
                ("term", pa.string()),
                ("tf", pa.int64()),
                ("df", pa.int64()),
            ]
        )
        tf = _tf_table(batch)
        if len(tf) == 0:
            return out_schema.empty_table()
        hit = pc.index_in(tf["term"], value_set=self.terms).to_numpy(
            zero_copy_only=False
        )
        tf = tf.append_column("df", pa.array(self.df[hit], type=pa.int64()))
        # Rank order inside each doc: tf desc, df asc (monotone in idf
        # desc), term asc — a total order, so top-k is reproducible.
        srt = tf.sort_by(
            [
                ("p", "ascending"),
                ("term_count", "descending"),
                ("df", "ascending"),
                ("term", "ascending"),
            ]
        )
        p = srt["p"].to_numpy()
        starts = np.flatnonzero(np.r_[True, p[1:] != p[:-1]])
        counts = np.diff(np.r_[starts, len(p)])
        rank = np.arange(len(p)) - np.repeat(starts, counts)
        top = srt.filter(pa.array(rank < self.k))
        return pa.table(
            {
                "doc_id": batch["doc_id"].take(top["p"]),
                "term": top["term"],
                "tf": pc.cast(top["term_count"], pa.int64()),
                "df": top["df"],
            },
            schema=out_schema,
        )


@register(
    "doc_tfidf_topk",
    oracle=f"""
    WITH toks AS (
        SELECT doc_id, unnest({_SQL_TOKENS}) AS term FROM documents
    ), tf AS (
        SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY doc_id, term
    ), df AS (
        SELECT term, count(*) AS df FROM tf GROUP BY term
    ), ranked AS (
        SELECT tf.doc_id, tf.term, tf.tf, df.df,
               row_number() OVER (
                   PARTITION BY tf.doc_id
                   ORDER BY tf.tf DESC, df.df ASC, tf.term ASC
               ) AS rnk
        FROM tf JOIN df USING (term)
    )
    SELECT doc_id, term, tf, df FROM ranked WHERE rnk <= 3
    """,
)
def doc_tfidf_topk(sf_dir: str, k: int = 3):
    """TF-IDF salient-term extraction (the keyword/rare-term op of a
    training-data pipeline): per-document top-k terms ranked by
    (tf desc, df asc, term asc). Ranking by df ascending IS ranking by
    idf descending — idf is strictly monotone-decreasing in df — so the
    comparison stays integer-only and exactly reproducible (no float
    log in the ranking or the output).

    Two streaming passes over the column-pruned source, no payload
    shuffle:
      df pass: per-batch distinct (doc, term) partials collapse to
        per-term doc counts inside the batch, then a groupby(term).Sum
        moves one row per (term, batch).
      rank pass: the df table is driver-collected and ``ray.put``
        broadcast (vocabulary-sized — Heaps' law keeps it ~1e8 even at
        web scale; above a worker heap, prune min_df>=2 first or join
        term-partitioned instead), and each batch ranks its own docs
        vectorized (tf is in-row: one document per input row).
    """
    import ray

    def df_partial(batch: pa.Table) -> pa.Table:
        return _tf_table(batch).select(["term"])

    df_pd = group_count(
        _docs(sf_dir).map_batches(df_partial, batch_format="pyarrow"),
        "term",
        count="df",
    ).to_pandas()  # bounded: vocab-sized post-aggregate DF table (the broadcast side)
    df_ref = ray.put(df_pd)
    return _docs(sf_dir).map_batches(
        _TfIdfRank,
        fn_constructor_args=(df_ref, k),
        batch_format="pyarrow",
        # (1, 4): min 1 so the pool can make progress even when actors
        # would otherwise hold every CPU (4-cpu driver contract).
        concurrency=(1, 4),
    )


_DECON_N = 8  # word n-gram size for benchmark-overlap decontamination
_DECON_MOD = 50  # doc_id % mod == 0 -> benchmark member
_DECON_OFFSET = 2_000_000  # injected near-dup copy id offset


def _ngram_positions(batch: pa.Table, n: int):
    """Vectorized word n-grams: (row-position array, n-gram string array)
    for every length-n token window that stays inside one document. One
    ``binary_join_element_wise`` over n shifted zero-copy slices of the
    flattened token column — no Python per row."""
    from sciscraper_ray.kernels.tokenize import tokenize_column

    toks = tokenize_column(batch["text"]).combine_chunks()
    flat = pc.list_flatten(toks)
    par = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    m = len(flat) - n + 1
    if m <= 0:
        return np.empty(0, dtype=np.int64), pa.array([], type=pa.string())
    parts = [flat.slice(i, m) for i in range(n)]
    ng = pc.binary_join_element_wise(*parts, " ")
    inside = par[:m] == par[n - 1 :]
    return par[:m][inside], ng.filter(pa.array(inside))


def _prefix_keys(b: pa.Table, num_buckets: int) -> pa.Table:
    """Candidate keys of the prefix-hash dedup: the md5-128 halves (p1,
    p2) of each text's first 32 chars, with doc_id and a bucket of p1."""
    ids = b["doc_id"].to_numpy(zero_copy_only=False)
    p1, p2, _ = md5_hash128([t[:32] for t in b["text"].to_pylist()])
    return pa.table(
        {
            "p1": pa.array(p1),
            "p2": pa.array(p2),
            "doc_id": pa.array(ids.astype(np.int64)),
            "bucket": pa.array((p1 & 0x7FFFFFFF) % num_buckets, pa.int64()),
        }
    )


def _bigram_counts(sf_dir: str, what: str):
    """Corpus adjacent-word bigram counts as a (token, next_token, cnt)
    frame. Per-batch partial counts keep the exchange bounded by the
    distinct-bigram vocabulary, never token streams; the driver sums
    them (``what`` names the query in the driver-plan guard)."""
    from sciscraper_ray.pipelines.plan import driver_frame

    def partials(batch: pa.Table) -> pa.Table:
        _, bg = _ngram_positions(batch, 2)
        flat = pc.list_flatten(pc.split_pattern(bg, " "))
        pairs = pa.table(
            {
                "token": flat.take(np.arange(0, len(flat), 2)),
                "next_token": flat.take(np.arange(1, len(flat), 2)),
            }
        )
        return group_count_batch(pairs, ["token", "next_token"])

    parts = driver_frame(
        _docs(sf_dir).map_batches(partials, batch_format="pyarrow"), what=what
    )
    return parts.groupby(["token", "next_token"], as_index=False)["cnt"].sum()


@register(
    "doc_decontaminate",
    oracle=f"""
    WITH all_docs AS (
        SELECT doc_id, text FROM documents
        UNION ALL
        SELECT doc_id + {_DECON_OFFSET},
               array_to_string(
                   list_slice(string_split(text, ' '), 1,
                              len(string_split(text, ' ')) - 1), ' ')
        FROM documents WHERE doc_id % {_DECON_MOD} = 0
    ), d AS (
        SELECT doc_id, {_SQL_TOKENS} AS toks, len({_SQL_TOKENS}) AS n
        FROM all_docs
    ), w AS (
        SELECT doc_id, unnest(range(n - {_DECON_N - 1})) AS k, toks
        FROM d WHERE n >= {_DECON_N}
    ), ng AS (
        SELECT doc_id,
               array_to_string(list_slice(toks, k + 1, k + {_DECON_N}), ' ') AS ng
        FROM w
    ), bench AS (
        SELECT DISTINCT ng FROM ng
        WHERE doc_id % {_DECON_MOD} = 0 AND doc_id < {_DECON_OFFSET}
    ), hits AS (
        SELECT ng.doc_id, count(DISTINCT ng.ng) AS cnt
        FROM ng JOIN bench USING (ng)
        WHERE ng.doc_id % {_DECON_MOD} != 0 OR ng.doc_id >= {_DECON_OFFSET}
        GROUP BY ng.doc_id
    )
    SELECT d.doc_id, CAST(coalesce(hits.cnt, 0) AS BIGINT) AS n_contaminated
    FROM d LEFT JOIN hits USING (doc_id)
    WHERE d.doc_id % {_DECON_MOD} != 0 OR d.doc_id >= {_DECON_OFFSET}
    """,
)
def doc_decontaminate(sf_dir: str):
    """Benchmark decontamination (the eval-leakage gate of a
    training-data pipeline): flag every training document sharing any
    word {n}-gram with the benchmark set, reporting the count of
    distinct shared n-grams. Benchmark = docs with id % {mod} == 0; the
    corpus additionally carries injected near-dup copies of those docs
    so the detector provably fires.

    Broadcast plan: the benchmark n-gram set is corpus-fraction-small
    (here 2%; real eval suites are KBs-to-MBs against a 100 TB corpus)
    — distinct n-grams are reduced per-batch, unioned once on the
    driver, ``ray.put``, and every training batch does one vectorized
    ``pc.is_in`` + per-batch Arrow ``count_distinct`` group-by. The big
    side never shuffles: each input row is one whole document, so the
    per-doc distinct count completes inside its batch. If the benchmark
    set ever outgrows a worker heap, the scale path is an n-gram-hash
    bucketed semi-join (same banded-shuffle shape as MinHash-LSH).
    """
    import ray

    def bench_ngrams(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        b = b.filter(pa.array(ids % _DECON_MOD == 0))
        return pa.table({"ng": pc.unique(_ngram_positions(b, _DECON_N)[1])})

    bench_parts = (
        _docs(sf_dir)
        .map_batches(bench_ngrams, batch_format="pyarrow")
        # bounded: benchmark-subset n-grams (the small decontamination side)
        .to_pandas()
    )
    bench = pa.array(bench_parts["ng"].unique(), type=pa.string())
    bench_ref = ray.put(bench)

    class Decontaminate:
        def __init__(self):
            self.bench = ray.get(bench_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            keep = (ids % _DECON_MOD != 0) | (ids >= _DECON_OFFSET)
            batch = batch.filter(pa.array(keep))
            pos, ng = _ngram_positions(batch, _DECON_N)
            hit = pc.is_in(ng, value_set=self.bench).to_numpy(
                zero_copy_only=False
            )
            counts = np.zeros(len(batch), dtype=np.int64)
            if hit.any():
                pairs = pa.table(
                    {"p": pa.array(pos[hit]), "ng": ng.filter(pa.array(hit))}
                )
                agg = pairs.group_by("p").aggregate([("ng", "count_distinct")])
                counts[agg["p"].to_numpy()] = agg[
                    "ng_count_distinct"
                ].to_numpy()
            return pa.table(
                {
                    "doc_id": batch["doc_id"],
                    "n_contaminated": pa.array(counts, type=pa.int64()),
                }
            )

    corpus = _with_copies(
        sf_dir, mod=_DECON_MOD, offset=_DECON_OFFSET, drop_last_word=True
    )
    return corpus.map_batches(
        Decontaminate, batch_format="pyarrow", concurrency=(1, 4)
    )


# PII scrubbing: an email-address pattern plus a denylist of sensitive
# terms. Both engines run RE2 (Arrow's replace_substring_regex and
# DuckDB's regexp_replace), so one pattern string serves both sides.
_PII_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
_PII_DENY = r"\b(key|hash|secret)\b"


@register(
    "doc_pii_scrub",
    oracle=f"""
    SELECT doc_id,
           regexp_replace(
               regexp_replace(text, '{_PII_EMAIL}', '<EMAIL>', 'g'),
               '{_PII_DENY}', '<REDACTED>', 'g') AS clean_text,
           len(regexp_extract_all(text, '{_PII_EMAIL}'))
           + len(regexp_extract_all(
                 regexp_replace(text, '{_PII_EMAIL}', '<EMAIL>', 'g'),
                 '{_PII_DENY}')) AS n_redacted
    FROM documents
    """,
)
def doc_pii_scrub(sf_dir: str):
    """PII scrubbing (the redaction op of a training-data pipeline):
    replace email addresses with ``<EMAIL>`` and denylisted sensitive
    terms with ``<REDACTED>``, reporting the per-document redaction
    count. Pure vectorized map — compiled RE2 kernels
    (``pc.replace_substring_regex`` / ``pc.count_substring_regex``)
    over zero-copy Arrow batches, no shuffle, no Python per row. The
    denylist count runs over the post-email text so overlapping matches
    are counted once, pinned identically in the oracle."""

    def scrub(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        after_email = pc.replace_substring_regex(
            text, pattern=_PII_EMAIL, replacement="<EMAIL>"
        )
        clean = pc.replace_substring_regex(
            after_email, pattern=_PII_DENY, replacement="<REDACTED>"
        )
        n = pc.add(
            pc.count_substring_regex(text, pattern=_PII_EMAIL),
            pc.count_substring_regex(after_email, pattern=_PII_DENY),
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "clean_text": clean,
                "n_redacted": pc.cast(n, pa.int64()),
            }
        )

    return _docs(sf_dir).map_batches(scrub, batch_format="pyarrow")


_SESSION_GAP_MIN = 30


@register(
    "events_sessionize",
    oracle=f"""
    WITH o AS (
        SELECT user_id, ts, event_id, value,
               CASE WHEN lag(ts) OVER w IS NULL
                         OR ts - lag(ts) OVER w > INTERVAL {_SESSION_GAP_MIN} MINUTE
                    THEN 1 ELSE 0 END AS new_s
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
    ), s AS (
        SELECT user_id, ts, value,
               sum(new_s) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id
                   ROWS UNBOUNDED PRECEDING
               ) AS session_id
        FROM o
    )
    SELECT user_id, CAST(session_id AS BIGINT) AS session_id,
           min(ts) AS session_start, max(ts) AS session_end,
           count(*) AS n_events,
           CAST(round(sum(value), 6) AS DOUBLE) AS sum_value
    FROM s GROUP BY user_id, session_id
    """,
)
def events_sessionize(sf_dir: str):
    """Gap-based sessionization (§2.10 streaming-shaped): per user, a new
    session starts when the gap to the previous event exceeds
    {gap} minutes — on the shared BUCKETED window plan
    (stages/window.py): ONE shuffle on ``user_id % 32``, in-bucket
    lexsort, session boundaries via np.diff over (user-change | gap),
    session aggregates via np.add.reduceat on session segments. Group
    count is O(buckets), never O(users); one bucket must fit a worker
    (a mega-user would be time-bucket pre-split, the documented skew
    caveat)."""
    import ray.data

    from sciscraper_ray.stages.window import (
        bucketed_window,
        make_bucket_sessionize,
    )

    gap_us = _SESSION_GAP_MIN * 60 * 1_000_000
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "value"],
    )
    return bucketed_window(ds, make_bucket_sessionize(gap_us))


def _hll_oracle() -> str:
    """The HLL register table recomputed from first principles in SQL:
    the same md5-derived 60-bit hash (hex parsed positionally), the same
    bucket split, the same MSB-position rho (DuckDB's bin() has no
    leading zeros, so length(bin(rem)) IS the bit length; rem = 0 is
    special-cased to 55 exactly like Python's bit_length())."""
    return f"""
    WITH h AS (
        SELECT {md5_hex15_sql("CAST(user_id AS VARCHAR)")} AS hv
        FROM events WHERE user_id IS NOT NULL
    ), r AS (
        SELECT hv % 64 AS bucket,
               CASE WHEN hv // 64 = 0 THEN 55
                    ELSE 54 - length(bin(hv // 64)) + 1 END AS rho
        FROM h
    )
    SELECT bucket, max(rho) AS max_rho FROM r GROUP BY bucket
    """


@register("hll_distinct_users", oracle=_hll_oracle())
def hll_distinct_users(sf_dir: str):
    """Distributed HyperLogLog over events.user_id (the custom-sketch
    operator class): per-batch partial registers (≤64 rows/batch), one
    tiny groupby(bucket).max merge — driver reads 64 rows regardless of
    corpus size. The oracle recomputes the register table exactly;
    estimate accuracy is unit-tested (tests/test_sketch.py)."""
    import ray.data

    from sciscraper_ray.stages.sketch import hll_partial_batch

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"]
    )
    return group_count(
        ds.map_batches(
            lambda b: hll_partial_batch(b, "user_id"), batch_format="pyarrow"
        ),
        "bucket",
        count=None,
        aggs={"max_rho": ("rho", "max")},
    )


_ASOF_BUCKETS = 32


@register(
    "events_asof_join",
    oracle="""
    WITH p AS (
        SELECT event_id, user_id, ts, value FROM events
        WHERE event_type = 'purchase'
    ), v AS (
        SELECT user_id, ts AS view_ts, max(event_id) AS view_event_id
        FROM events WHERE event_type = 'view' GROUP BY user_id, ts
    )
    SELECT p.event_id, p.user_id, p.ts, p.value,
           CAST(v.view_event_id AS DOUBLE) AS view_event_id, v.view_ts
    FROM p ASOF LEFT JOIN v
      ON p.user_id = v.user_id AND p.ts >= v.view_ts
    """,
)
def events_asof_join(sf_dir: str):
    """AS-OF join (the custom operator class Ray Data lacks natively):
    each purchase event is joined to the same user's most recent view at
    or before its timestamp (left join; equal-(user,ts) views tie-break
    to max event_id, pinned on both sides).

    Partitioning contract: ONE shuffle on a user-id hash bucket (NOT per
    user — per-group Python overhead at ~1e8 users would dominate; 32
    buckets here, scale ∝ cluster). Within a bucket both sides are
    merged fully vectorized: lexsort by (user, ts, side, event_id) with
    views ordered before purchases at equal ts, then one
    ``np.maximum.accumulate`` forward-fill of view positions — a match
    from the previous user block is rejected by a user-equality check.
    Per-bucket rows must fit a worker (the documented skew caveat: salt
    a mega-user by time range first). The type filter is pushed into the
    parquet scan, so only the two event types leave storage.
    """
    import pandas as pd
    import pyarrow.dataset as pads

    import ray.data

    def asof_bucket(g: pd.DataFrame) -> pd.DataFrame:
        is_view = (g["event_type"] == "view").to_numpy()
        ts = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        user = g["user_id"].to_numpy()
        eid = g["event_id"].to_numpy()
        val = g["value"].to_numpy()
        order = np.lexsort((eid, (~is_view).view(np.int8), ts, user))
        user_s, ts_s, eid_s = user[order], ts[order], eid[order]
        view_s = is_view[order]
        idx = np.where(view_s, np.arange(len(order)), -1)
        cand = np.maximum.accumulate(idx)
        safe = np.maximum(cand, 0)
        valid = (cand >= 0) & (user_s[safe] == user_s)
        left = np.flatnonzero(~view_s)
        v = valid[left]
        c = safe[left]
        view_eid = np.where(v, eid_s[c].astype(np.float64), np.nan)
        view_ts = pd.Series(ts_s[c].astype("datetime64[us]"))
        view_ts[~v] = pd.NaT
        return pd.DataFrame(
            {
                "event_id": eid_s[left],
                "user_id": user_s[left],
                "ts": pd.Series(ts_s[left].astype("datetime64[us]")),
                "value": val[order][left],
                "view_event_id": view_eid,
                "view_ts": view_ts,
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type", "value"],
        filter=pads.field("event_type").isin(["purchase", "view"]),
    )

    def add_bucket(batch: pa.Table) -> pa.Table:
        bucket = pc.cast(
            pc.bit_wise_and(batch["user_id"], _ASOF_BUCKETS - 1), pa.int64()
        )
        return batch.append_column("bucket", bucket)

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(asof_bucket, batch_format="pandas")
    )


_RANGE_WINDOW_DAYS = 3


@register(
    "events_range_join",
    oracle=f"""
    WITH w AS (
        SELECT event_id AS window_id, user_id, ts AS w_start,
               ts + INTERVAL {_RANGE_WINDOW_DAYS} DAY AS w_end
        FROM events WHERE event_type = 'signup'
    )
    SELECT w.window_id, e.user_id, e.event_id, e.ts
    FROM events e
    JOIN w ON e.user_id = w.user_id
          AND e.ts >= w.w_start AND e.ts <= w.w_end
    """,
)
def events_range_join(sf_dir: str):
    """Keyed range (interval) join — the second custom-join operator
    class: every signup opens a {days}-day window for its user; each
    event pairs with every window of its user that contains its
    timestamp (inner join, multiplicity > 1 allowed).

    Distributed plan: BOTH sides are co-partitioned on a user-id hash
    bucket through ``bucketed_hash_join`` — the window side is never
    driver-materialized or broadcast whole (at 100 TB signups are ~one
    row per user, a driver-memory scale-killer as a broadcast). Each
    bucket-local merge equi-joins on user then range-filters to the
    containing windows. Partitioning assumption: one bucket of events
    PLUS its user-matched window pairs fits a worker heap (windows per
    user are small constants; a mega-user would be salted by time range
    exactly like ``events_asof_join``'s documented caveat).
    """
    import pyarrow.dataset as pads

    import ray.data

    from sciscraper_ray.stages.relational import bucketed_hash_join

    windows = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts"],
        filter=pads.field("event_type") == "signup",
    ).map_batches(
        lambda b: pa.table(
            {
                "window_id": b["event_id"],
                "w_user": b["user_id"],
                "w_start": pc.cast(b["ts"], pa.timestamp("us")),
                "w_end": pc.add(
                    pc.cast(b["ts"], pa.timestamp("us")),
                    pa.scalar(_RANGE_WINDOW_DAYS * 86_400_000_000, pa.duration("us")),
                ),
            }
        ),
        batch_format="pyarrow",
    )
    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )
    joined = bucketed_hash_join(
        events, windows, left_on="user_id", right_on="w_user", num_buckets=32
    )

    def range_filter(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch["ts"], pa.timestamp("us"))
        keep = pc.and_(
            pc.greater_equal(ts, batch["w_start"]),
            pc.less_equal(ts, batch["w_end"]),
        )
        return batch.filter(keep).select(
            ["window_id", "user_id", "event_id", "ts"]
        )

    return joined.map_batches(range_filter, batch_format="pyarrow")


@register(
    "dedup_exact",
    oracle="""
    WITH all_docs AS (
        SELECT doc_id, text FROM documents
        UNION ALL
        SELECT doc_id + 100000, text FROM documents WHERE doc_id % 5 = 0
    )
    SELECT min(doc_id) AS doc_id, text FROM all_docs GROUP BY text
    """,
)
def dedup_exact(sf_dir: str):
    """Exact dedup: content-hash partition -> keep lowest id. Input is
    documents ∪ exact copies (+100000 for doc_id%5==0). The oracle states
    keep-lowest-id-per-distinct-text from first principles rather than
    assuming survivors == originals: sf0.1 contains 8 NATURALLY identical
    text pairs among distinct doc_ids (sf0.01 has none), which the engine
    correctly collapses — the round-1 oracle form only held at gate
    scale."""
    from sciscraper_ray.pipelines.dedup import exact_dedup

    ds = _with_copies(sf_dir, mod=5, offset=100_000, drop_last_word=False)
    return exact_dedup(ds)


def _jaccard_pairs_parts(
    copy_mod: int, copy_offset: int, mode: str, threshold: float
) -> tuple[str, str]:
    """Oracle that INDEPENDENTLY computes exact-Jaccard near-dup pairs in
    SQL (distinct word-3-gram or char-5-gram shingles) over the same
    union input — the strongest check for the LSH pipelines: the synthetic
    corpus contains natural near-dups (text || ' dup' copies) in addition
    to the injected ones, and this oracle finds them all from semantics."""
    union_docs = f"""
    all_docs AS (
        SELECT doc_id, text FROM documents
        UNION ALL
        SELECT doc_id + {copy_offset},
               array_to_string(
                   string_split(text, ' ')[1:len(string_split(text, ' ')) - 1], ' ')
        FROM documents WHERE doc_id % {copy_mod} = 0
    )"""
    if mode == "word":
        shingle_list = """
        CASE WHEN len(lst) < 3 THEN [array_to_string(lst, ' ')]
             ELSE list_transform(range(1, len(lst) - 1),
                                 i -> lst[i] || ' ' || lst[i+1] || ' ' || lst[i+2])
        END"""
        prep = f"toks AS (SELECT doc_id, string_split(lower(trim(text)), ' ') AS lst FROM all_docs),\n    grams AS (SELECT doc_id, {shingle_list} AS shl FROM toks)"
    else:
        shingle_list = """
        CASE WHEN length(text) < 5 THEN [text]
             ELSE list_transform(range(1, length(text) - 3), i -> substr(text, i, 5))
        END"""
        prep = f"grams AS (SELECT doc_id, {shingle_list} AS shl FROM all_docs)"
    ctes = f"""{union_docs},
    {prep},
    sh AS (SELECT DISTINCT doc_id, unnest(shl) AS g FROM grams),
    sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
    inter AS (
        SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS i
        FROM sh x JOIN sh y ON x.g = y.g AND x.doc_id < y.doc_id
        GROUP BY x.doc_id, y.doc_id
    )"""
    select = f"""
    SELECT a, b FROM inter
    JOIN sizes sa ON sa.doc_id = a
    JOIN sizes sb ON sb.doc_id = b
    WHERE i * 1.0 / (sa.n + sb.n - i) >= {threshold}
    """
    return ctes, select


def _jaccard_pairs_sql(copy_mod: int, copy_offset: int, mode: str, threshold: float) -> str:
    ctes, select = _jaccard_pairs_parts(copy_mod, copy_offset, mode, threshold)
    return f"WITH {ctes}\n{select}"


def _jaccard_cluster_sql(copy_mod: int, copy_offset: int, mode: str, threshold: float) -> str:
    """Pair oracle + transitive closure: min-label propagation as a
    DuckDB recursive CTE over the symmetrized exact-Jaccard pair graph —
    an independent fixpoint computation checking the distributed
    Large-Star/Small-Star rounds end-to-end."""
    ctes, select = _jaccard_pairs_parts(copy_mod, copy_offset, mode, threshold)
    return f"""
    WITH RECURSIVE {ctes},
    pairs AS ({select}),
    edges AS (SELECT a AS u, b AS v FROM pairs UNION SELECT b, a FROM pairs),
    lbl(node, l) AS (
        SELECT u, u FROM edges
        UNION
        SELECT e.v, lbl.l FROM lbl JOIN edges e ON e.u = lbl.node
    )
    SELECT node AS doc_id, CAST(min(l) AS BIGINT) AS comp_id
    FROM lbl GROUP BY node
    """


@register(
    "dedup_minhash",
    oracle=_jaccard_pairs_sql(copy_mod=7, copy_offset=200_000, mode="word", threshold=0.8),
)
def dedup_minhash(sf_dir: str):
    """MinHash+LSH near-dup pairs (word 3-gram shingles, 64 perms, 16x4
    bands, exact-verified Jaccard >= 0.8). The oracle recomputes exact
    Jaccard dedup in SQL from first principles."""
    from sciscraper_ray.pipelines.dedup import near_dup_pairs_minhash

    ds = _with_copies(sf_dir, mod=7, offset=200_000, drop_last_word=True)
    # _with_copies materializes, so count() is free metadata; the bound
    # lets the plan flip skip its materialize barrier on the band rows.
    return near_dup_pairs_minhash(ds, threshold=0.8, est_input_rows=ds.count())


@register(
    "dedup_simhash",
    oracle="""
    SELECT doc_id AS a, doc_id + 300000 AS b FROM documents
    WHERE doc_id % 11 = 0
      AND NOT list_contains(string_split(lower(trim(text)), ' '), 'dup')
    """,
)
def dedup_simhash(sf_dir: str):
    """SimHash near-dup pairs (hamming <= 3, 4x16-bit chunk blocking with
    guaranteed recall for that radius). The fixture filters out the
    corpus's natural ' dup'-suffix near-copies (their hamming distance is
    data-dependent, not SQL-expressible) and injects exact copies
    (hamming 0); perturbation cases are covered in tests/test_dedup.py."""
    from sciscraper_ray.pipelines.dedup import near_dup_pairs_simhash

    def drop_natural_dups(batch: pa.Table) -> pa.Table:
        keep = [
            "dup" not in format_manuscript(t)
            for t in batch["text"].to_pylist()
        ]
        return batch.filter(pa.array(keep))

    base = _docs(sf_dir).map_batches(drop_natural_dups, batch_format="pyarrow")

    def make_copies(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        keep = ids % 11 == 0
        return pa.table(
            {
                "doc_id": pa.array((ids[keep] + 300_000).tolist(), type=pa.int64()),
                "text": pa.array(
                    [t for t, k in zip(batch["text"].to_pylist(), keep) if k],
                    type=pa.string(),
                ),
            }
        )

    from sciscraper_ray.pipelines.plan import parquet_row_bound

    # same fixture-block compaction as _with_copies: the lazy union's
    # ~45-row blocks would be re-executed by all three downstream passes
    # (signature, banding, verify fetch) at ~task-dispatch cost per block
    nblocks = max(
        1, min(64, (parquet_row_bound(f"{sf_dir}/documents.parquet") or 0) // 500)
    )
    ds = (
        base.union(base.map_batches(make_copies, batch_format="pyarrow"))
        .repartition(nblocks)
        .materialize()
    )
    return near_dup_pairs_simhash(ds, max_hamming=3)


@register(
    "dedup_ngram_jaccard",
    oracle=_jaccard_pairs_sql(copy_mod=13, copy_offset=400_000, mode="char", threshold=0.8),
)
def dedup_ngram_jaccard(sf_dir: str):
    """Char-5-gram Jaccard near-dup pairs (>= 0.8), LSH-blocked then
    exact-verified; the oracle recomputes exact char-gram Jaccard dedup in
    SQL from first principles."""
    from sciscraper_ray.pipelines.dedup import near_dup_pairs_ngram

    ds = _with_copies(sf_dir, mod=13, offset=400_000, drop_last_word=True)
    # free metadata bound (materialized input) — skips the plan barrier
    return near_dup_pairs_ngram(ds, threshold=0.8, n=5, est_input_rows=ds.count())


@register(
    "dedup_components",
    oracle=_jaccard_cluster_sql(copy_mod=7, copy_offset=200_000, mode="word", threshold=0.8),
)
def dedup_components(sf_dir: str):
    """Duplicate-CLUSTER formation: MinHash pairs -> distributed
    connected components (alternating Large-Star/Small-Star edge-list
    rounds, Kiveris et al. SoCC'14 — see pipelines/graph.py). Emits
    (doc_id, comp_id = min doc in cluster) for every node of the
    verified >= 0.8-Jaccard pair graph; the oracle independently
    recomputes exact-Jaccard pairs in SQL and closes them transitively
    with a recursive min-label-propagation CTE."""
    from sciscraper_ray.pipelines.dedup import near_dup_pairs_minhash
    from sciscraper_ray.pipelines.graph import connected_components

    ds = _with_copies(sf_dir, mod=7, offset=200_000, drop_last_word=True)
    pairs = near_dup_pairs_minhash(ds, threshold=0.8, est_input_rows=ds.count())
    return connected_components(pairs)


@register(
    "dedup_cluster_survivors",
    oracle=f"""
    WITH RECURSIVE {_jaccard_pairs_parts(7, 200_000, "word", 0.8)[0]},
    pairs AS ({_jaccard_pairs_parts(7, 200_000, "word", 0.8)[1]}),
    edges AS (SELECT a AS u, b AS v FROM pairs UNION SELECT b, a FROM pairs),
    lbl(node, l) AS (
        SELECT u, u FROM edges
        UNION
        SELECT e.v, lbl.l FROM lbl JOIN edges e ON e.u = lbl.node
    ),
    comp AS (SELECT node, min(l) AS c FROM lbl GROUP BY node)
    SELECT doc_id FROM all_docs
    WHERE doc_id NOT IN (SELECT node FROM comp WHERE node != c)
    """,
)
def dedup_cluster_survivors(sf_dir: str):
    """End-to-end near-dup DEDUP: corpus minus every non-representative
    cluster member (keep the min doc_id of each duplicate cluster plus
    all singletons). The kept-id set is tiny relative to the corpus
    (only docs in dup clusters are dropped), so the drop-list broadcasts
    and the final pass is an Arrow-native anti-filter — no corpus
    shuffle. Output is the kept doc_id column."""
    import pyarrow.compute as pc

    from sciscraper_ray.pipelines.dedup import near_dup_pairs_minhash
    from sciscraper_ray.pipelines.graph import connected_components

    ds = _with_copies(sf_dir, mod=7, offset=200_000, drop_last_word=True)
    pairs = near_dup_pairs_minhash(ds, threshold=0.8, est_input_rows=ds.count())
    # bounded: dup-cluster members only (the drop-list broadcast side)
    comp = connected_components(pairs).to_pandas()
    drop_arr = pa.array(
        comp.loc[comp["doc_id"] != comp["comp_id"], "doc_id"].to_numpy(), pa.int64()
    )

    def keep(batch: pa.Table) -> pa.Table:
        mask = pc.invert(pc.is_in(batch["doc_id"], value_set=drop_arr))
        return batch.select(["doc_id"]).filter(mask)

    return ds.map_batches(keep, batch_format="pyarrow")


@register(
    "dedup_embedding",
    oracle="""
    SELECT vec_id AS a, vec_id + 500000 AS b FROM embeddings
    WHERE vec_id % 9 = 0
    """,
)
def dedup_embedding(sf_dir: str):
    """Embedding-cosine near-dup (SRP-LSH candidates + exact cosine >= 0.95
    verify). The corpus has no natural pairs (max cosine ~0.65, checked per
    sf), so deterministic perturbed copies are injected for vec_id % 9 == 0
    (seeded noise, cosine ~0.99 to the source); the oracle states the
    expected pairs by construction. Perturbation-sweep recall is asserted
    in tests/test_dedup.py."""
    import ray.data

    from sciscraper_ray.pipelines.dedup import near_dup_pairs_embedding

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )

    def make_copies(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        keep = ids % 9 == 0
        vecs = [
            v for v, k in zip(batch["embedding"].to_pylist(), keep) if k
        ]
        out = []
        for vid, v in zip(ids[keep], vecs):
            v = np.asarray(v, dtype=np.float64)
            rng = np.random.default_rng(1000 + int(vid))
            d = rng.standard_normal(len(v))
            d *= 0.15 * np.linalg.norm(v) / np.linalg.norm(d)
            out.append((v + d).astype(np.float32).tolist())
        return pa.table(
            {
                "vec_id": pa.array((ids[keep] + 500_000).tolist(), type=pa.int64()),
                "embedding": pa.array(out, type=pa.list_(pa.float32())),
            }
        )

    full = ds.union(ds.map_batches(make_copies, batch_format="pyarrow"))
    return near_dup_pairs_embedding(full, threshold=0.95)




# ---------------------------------------------------------------------------
# HLL ROLLUP — the mergeability payoff: day-level register tables are
# built ONCE from the raw stream, then every coarser level (here the
# whole-range total) is a register-table max-merge — no second scan of
# the data. This is how a 100 TB pipeline serves "distinct users per
# day AND overall" from one pass. Output carries the finished ESTIMATES
# (alpha * m^2 / sum(2^-rho) with the linear-counting small-range
# branch), not raw registers.
# ---------------------------------------------------------------------------


def _hll_rollup_oracle() -> str:
    rho = """CASE WHEN hv // 64 = 0 THEN 55
                    ELSE 54 - length(bin(hv // 64)) + 1 END"""
    est = (
        "round(CASE WHEN 0.709 * 4096 / denom <= 160.0 AND zeros > 0 "
        "THEN 64 * ln(64.0 / zeros) ELSE 0.709 * 4096 / denom END, 6)"
    )
    return f"""
    WITH h AS (
        SELECT strftime(ts, '%Y-%m-%d') AS d,
               {md5_hex15_sql("CAST(user_id AS VARCHAR)")} AS hv
        FROM events WHERE user_id IS NOT NULL
    ), r AS (
        SELECT d, hv % 64 AS bucket, {rho} AS rho FROM h
    ), regs AS (
        SELECT d, bucket, max(rho) AS mr FROM r GROUP BY d, bucket
    ), day_d AS (
        SELECT d, sum(power(2.0, -mr)) + (64 - count(*)) AS denom,
               64 - count(*) AS zeros
        FROM regs GROUP BY d
    ), tot_r AS (
        SELECT bucket, max(mr) AS mr FROM regs GROUP BY bucket
    ), tot_d AS (
        SELECT sum(power(2.0, -mr)) + (64 - count(*)) AS denom,
               64 - count(*) AS zeros
        FROM tot_r
    )
    SELECT 'day' AS level, d AS key, {est} AS est_users FROM day_d
    UNION ALL
    SELECT 'total' AS level, '*' AS key, {est} AS est_users FROM tot_d
    """


@register("events_hll_rollup", oracle=_hll_rollup_oracle())
def events_hll_rollup(sf_dir: str):
    """Hierarchical HLL rollup (distinct users per day + overall) from
    ONE scan: per-batch grouped partial registers (vectorized md5 parse
    + np.maximum.at, <= |days| x 64 rows per batch), one
    groupby(day, bucket).Max exchange, then the total level is a pure
    register merge (per-bucket max over the day table). The finished
    register table is |days| x 64 rows — that it fits anywhere IS the
    sketch contract — so the estimate finish (stages/sketch.py
    hll_estimate, same alpha/linear-counting branch as the oracle) runs
    vectorized on the driver."""
    import ray.data

    from sciscraper_ray.stages.sketch import (
        hll_estimate,
        hll_grouped_partial_batch,
    )

    def add_day(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "day": pc.strftime(b["ts"], format="%Y-%m-%d"),
                "user_id": b["user_id"],
            }
        )

    regs = group_count(
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["ts", "user_id"]
        )
        .map_batches(add_day, batch_format="pyarrow")
        .map_batches(
            lambda b: hll_grouped_partial_batch(b, "day", "user_id"),
            batch_format="pyarrow",
        ),
        ["day", "bucket"],
        count=None,
        aggs={"mr": ("rho", "max")},
    ).to_pandas()  # bounded: |days| x 2^p HLL registers
    levels: list[str] = []
    keys: list[str] = []
    ests: list[float] = []
    for day, g in sorted(regs.groupby("day")):
        reg = dict(zip(g["bucket"].astype(int), g["mr"].astype(int)))
        levels.append("day")
        keys.append(str(day))
        ests.append(round(hll_estimate(reg), 6))
    tot = regs.groupby("bucket")["mr"].max()
    levels.append("total")
    keys.append("*")
    ests.append(round(hll_estimate(dict(zip(tot.index.astype(int), tot.astype(int)))), 6))
    return pa.table(
        {
            "level": pa.array(levels, pa.string()),
            "key": pa.array(keys, pa.string()),
            "est_users": pa.array(ests, pa.float64()),
        }
    )


# --------------------------------------------------------------------------
# Kneser-Ney continuation statistics — the smoothing ingredient plain
# bigram counts can't give: how many DISTINCT left contexts precede
# each token (N1+(.w)) and the continuation probability
# P_cont(w) = N1+(.w) / |distinct bigrams|. "san francisco" scores high
# on raw counts but low on continuation — the signal KN smoothing is
# built on (Kneser & Ney 1995).
# --------------------------------------------------------------------------


@register(
    "token_kn_continuation",
    oracle=f"""
    WITH d AS (
        SELECT doc_id, {_SQL_TOKENS} AS toks, len({_SQL_TOKENS}) AS n
        FROM documents
    ), w AS (
        SELECT unnest(range(n - 1)) AS k, toks FROM d WHERE n >= 2
    ), bg AS (
        SELECT toks[k + 1] AS prev, toks[k + 2] AS nxt FROM w
    ), db AS (
        SELECT DISTINCT prev, nxt FROM bg
    ), tot AS (
        SELECT count(*) AS t FROM db
    )
    SELECT nxt AS token, CAST(count(*) AS BIGINT) AS cont_cnt,
           round(count(*) / (SELECT CAST(t AS DOUBLE) FROM tot), 6)
               AS p_cont
    FROM db GROUP BY nxt
    """,
)
def token_kn_continuation(sf_dir: str):
    """Distinct-left-context counts per token: per-batch Arrow group_by
    compresses each batch to its DISTINCT (prev, next) pairs — the
    exchange moves O(vocab^2) pair rows, never token streams — and the
    vocab-bounded union dedups once on the driver (same plan budget as
    token_bigram_next; above the driver bound the identical dedup is
    one groupby on the pair key). The one float op (the shared
    normalizer division) is mirrored exactly."""

    def partials(batch: pa.Table) -> pa.Table:
        _, bg = _ngram_positions(batch, 2)
        if len(bg) == 0:
            return pa.table(
                {
                    "prev": pa.array([], type=pa.string()),
                    "nxt": pa.array([], type=pa.string()),
                }
            )
        split = pc.split_pattern(bg, " ")
        flat = pc.list_flatten(split)
        tok = flat.take(np.arange(0, len(flat), 2))
        nxt = flat.take(np.arange(1, len(flat), 2))
        return (
            pa.table({"prev": tok, "nxt": nxt})
            .group_by(["prev", "nxt"])
            .aggregate([])
        )

    from sciscraper_ray.pipelines.plan import driver_frame

    parts = driver_frame(
        _docs(sf_dir).map_batches(partials, batch_format="pyarrow"),
        what="token_kn_continuation",
    )
    db = parts.drop_duplicates(["prev", "nxt"])
    total = float(len(db))
    cont = db.groupby("nxt", as_index=False).size()
    return pa.table(
        {
            "token": pa.array(cont["nxt"], pa.string()),
            "cont_cnt": pa.array(cont["size"].to_numpy(np.int64)),
            "p_cont": pa.array(
                np.round(cont["size"].to_numpy(np.float64) / total, 6),
                pa.float64(),
            ),
        }
    )


# --------------------------------------------------------------------------
# The PRODUCTION dedup cascade — exact pass first (cheap, kills byte
# copies), MinHash-LSH near-dup pass on the survivors (expensive,
# kills fuzzy copies) — reported as a per-stage funnel. Running near-dup
# only on exact survivors is the standard cost structure (C4, CCNet,
# RefinedWeb all stage it this way); the funnel row counts are the
# pipeline's operational dashboard.
# --------------------------------------------------------------------------


@register(
    "dedup_cascade",
    oracle="""
    WITH all_docs AS (
        SELECT doc_id, text FROM documents
        UNION ALL
        SELECT doc_id + 200000,
               array_to_string(
                   string_split(text, ' ')[1:len(string_split(text, ' ')) - 1], ' ')
        FROM documents WHERE doc_id % 7 = 0
        UNION ALL
        SELECT doc_id + 400000, text FROM documents WHERE doc_id % 9 = 0
    ), g AS (
        SELECT md5(text) AS h, min(doc_id) AS keep FROM all_docs GROUP BY h
    ), surv AS (
        SELECT d.doc_id, d.text FROM all_docs d JOIN g ON d.doc_id = g.keep
    ), toks AS (
        SELECT doc_id, string_split(lower(trim(text)), ' ') AS lst FROM surv
    ), grams AS (
        SELECT doc_id,
               CASE WHEN len(lst) < 3 THEN [array_to_string(lst, ' ')]
                    ELSE list_transform(range(1, len(lst) - 1),
                        i -> lst[i] || ' ' || lst[i+1] || ' ' || lst[i+2])
               END AS shl
        FROM toks
    ), sh AS (
        SELECT DISTINCT doc_id, unnest(shl) AS gr FROM grams
    ), sizes AS (
        SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id
    ), inter AS (
        SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS i
        FROM sh x JOIN sh y ON x.gr = y.gr AND x.doc_id < y.doc_id
        GROUP BY x.doc_id, y.doc_id
    ), pairs AS (
        SELECT a, b FROM inter
        JOIN sizes sa ON sa.doc_id = a
        JOIN sizes sb ON sb.doc_id = b
        WHERE i * 1.0 / (sa.n + sb.n - i) >= 0.8
    ), c0 AS (SELECT count(*) AS n FROM all_docs),
       c1 AS (SELECT count(*) AS n FROM surv),
       r2 AS (SELECT count(DISTINCT b) AS r FROM pairs)
    SELECT 'input' AS stage, CAST(0 AS BIGINT) AS n_removed,
           CAST(n AS BIGINT) AS n_remaining FROM c0
    UNION ALL
    SELECT 'exact', CAST((SELECT n FROM c0) - n AS BIGINT),
           CAST(n AS BIGINT) FROM c1
    UNION ALL
    SELECT 'near', CAST(r AS BIGINT),
           CAST((SELECT n FROM c1) - r AS BIGINT) FROM r2
    """,
)
def dedup_cascade(sf_dir: str):
    """Two-stage funnel over documents + injected near copies (id%7 ->
    +200000, last word dropped) + injected exact copies (id%9 ->
    +400000): the exact pass is the shared winner_filter two-pass plan
    (128-bit md5 keys, payloads never shuffle), the near pass runs
    MinHash-LSH + exact verify (>= 0.8 word-3-gram Jaccard) over the
    exact survivors only, and a survivor is near-removed iff it is the
    GREATER side of any qualifying pair (single-pass rule, mirrored in
    SQL — full transitive clustering is dedup_components' job). Stage
    counts are Dataset metadata / a distinct-count over the pair table;
    the pair table is bounded by dup volume."""
    from sciscraper_ray.pipelines.dedup import exact_dedup, near_dup_pairs_minhash

    docs = _docs(sf_dir)

    def near_copies(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        keep = ids % 7 == 0
        texts = [
            " ".join(t.split(" ")[:-1])
            for t, k in zip(batch["text"].to_pylist(), keep)
            if k
        ]
        return pa.table(
            {
                "doc_id": pa.array((ids[keep] + 200_000).tolist(), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )

    def exact_copies(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        keep = ids % 9 == 0
        return pa.table(
            {
                "doc_id": pa.array((ids[keep] + 400_000).tolist(), pa.int64()),
                "text": batch["text"].filter(pa.array(keep)),
            }
        )

    ds = (
        docs.union(docs.map_batches(near_copies, batch_format="pyarrow"))
        .union(docs.map_batches(exact_copies, batch_format="pyarrow"))
        .materialize()
    )
    n0 = ds.count()
    surv = exact_dedup(ds).materialize()
    n1 = surv.count()
    pairs = near_dup_pairs_minhash(surv, threshold=0.8, est_input_rows=n1)
    if isinstance(pairs, pa.Table):
        b_vals = pairs["b"].to_numpy(zero_copy_only=False)
    else:
        b_vals = pairs.to_pandas()["b"].to_numpy()  # bounded: dup mass
    r2 = int(len(np.unique(b_vals)))
    return pa.table(
        {
            "stage": pa.array(["input", "exact", "near"], pa.string()),
            "n_removed": pa.array([0, n0 - n1, r2], pa.int64()),
            "n_remaining": pa.array([n0, n1, n1 - r2], pa.int64()),
        }
    )


@register(
    "dedup_minhash_jaccard_audit",
    oracle=f"""
    WITH toks AS (
        SELECT doc_id, {_SQL_TOKENS} AS ts FROM documents
    ), tri AS (
        SELECT DISTINCT doc_id, ts[p+1] || ' ' || ts[p+2] || ' ' || ts[p+3] AS g
        FROM toks, unnest(range(len(ts) - 2)) AS u(p)
        WHERE len(ts) >= 3
    ), pref AS (
        SELECT doc_id, md5(substr(text, 1, 32)) AS pfx FROM documents
    ), pairs AS (
        SELECT x.doc_id AS a, y.doc_id AS b
        FROM pref x JOIN pref y ON x.pfx = y.pfx AND x.doc_id < y.doc_id
    ), sig AS (
        SELECT doc_id, s,
               min({md5_hex15_sql("CAST(s AS VARCHAR) || '|' || g")}) AS mh
        FROM tri, unnest(range(8)) AS v(s)
        WHERE doc_id IN (SELECT a FROM pairs UNION SELECT b FROM pairs)
        GROUP BY doc_id, s
    ), agree AS (
        SELECT p.a, p.b,
               CAST(sum(CASE WHEN sa.mh = sb.mh THEN 1 ELSE 0 END) AS BIGINT)
                   AS agree
        FROM pairs p
        JOIN sig sa ON sa.doc_id = p.a
        JOIN sig sb ON sb.doc_id = p.b AND sb.s = sa.s
        GROUP BY p.a, p.b
    ), isect AS (
        SELECT p.a, p.b, count(*) AS inter
        FROM pairs p
        JOIN tri ga ON ga.doc_id = p.a
        JOIN tri gb ON gb.doc_id = p.b AND gb.g = ga.g
        GROUP BY p.a, p.b
    ), sizes AS (
        SELECT doc_id, count(*) AS n FROM tri GROUP BY doc_id
    )
    SELECT ag.a, ag.b, ag.agree,
           CAST(coalesce(i.inter, 0) AS BIGINT) AS inter,
           CAST(na.n + nb.n - coalesce(i.inter, 0) AS BIGINT) AS uni
    FROM agree ag
    LEFT JOIN isect i ON i.a = ag.a AND i.b = ag.b
    JOIN sizes na ON na.doc_id = ag.a
    JOIN sizes nb ON nb.doc_id = ag.b
    """,
)
def dedup_minhash_jaccard_audit(
    sf_dir: str, num_perm: int = 8, num_buckets: int = 16
):
    """MinHash estimator audit with a FULL SQL oracle: for every
    candidate pair (docs sharing the 32-char text prefix — the corpus's
    real near-dup signal), the 8-permutation md5-salted minhash
    agreement count next to the EXACT trigram-set intersection and
    union. agree/8 is the Jaccard estimate, inter/uni the truth — the
    estimator-quality report every LSH threshold tuning needs, and
    unlike dedup_minhash's banded pipeline this one is end-to-end
    SQL-checkable because min-over-md5(salt||gram) IS expressible in
    the oracle (the salted-min trick: each salt is one independent
    permutation of gram space). Plan: (1) candidate pairs via the
    bucketed prefix-hash lexsort (128-bit md5 prefix keys as two int64
    columns, hash(p1) %% B groups, one vectorized segment pair
    expansion per bucket — pairs-only shuffle, bounded by dup mass);
    (2) a second pruned pass computes signatures and 128-bit gram ids
    for CANDIDATE docs only (Arrow is_in filter pushes everyone else
    out before any Python); (3) the driver merge handles
    candidate-bounded rows (set ops per pair). At 10^12 docs step (3)
    becomes a bucketed co-partitioned join on pair keys — same shape;
    gram ids stay 128-bit so estimator-vs-truth divergence can never
    come from key collisions (the doc_ngram_novelty lesson)."""
    import pandas as pd

    docs = _docs(sf_dir)

    def expand_pairs(g: "pd.DataFrame") -> "pd.DataFrame":
        p1 = g["p1"].to_numpy()
        p2 = g["p2"].to_numpy()
        d = g["doc_id"].to_numpy()
        order = np.lexsort((d, p2, p1))
        p1, p2, d = p1[order], p2[order], d[order]
        new = np.r_[True, (p1[1:] != p1[:-1]) | (p2[1:] != p2[:-1])]
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:], len(d)]
        seg_end = np.repeat(ends, ends - starts)
        pos = np.arange(len(d))
        reps = seg_end - pos - 1
        total = int(reps.sum())
        if total == 0:
            return pd.DataFrame(
                {"a": np.array([], np.int64), "b": np.array([], np.int64)}
            )
        left = np.repeat(pos, reps)
        offs = np.concatenate(([0], np.cumsum(reps)[:-1]))
        right = left + (np.arange(total) - np.repeat(offs, reps)) + 1
        x, y = d[left], d[right]
        return pd.DataFrame(
            {"a": np.minimum(x, y), "b": np.maximum(x, y)}
        )

    pairs = (
        docs.map_batches(
            _prefix_keys, fn_kwargs={"num_buckets": num_buckets}, batch_format="pyarrow"
        )
        .groupby("bucket")
        .map_groups(expand_pairs, batch_format="pandas")
        .to_pandas()  # bounded: duplicate mass, never corpus size
    )
    if len(pairs) == 0:
        return pa.table(
            {
                "a": pa.array([], pa.int64()),
                "b": pa.array([], pa.int64()),
                "agree": pa.array([], pa.int64()),
                "inter": pa.array([], pa.int64()),
                "uni": pa.array([], pa.int64()),
            }
        )
    cand = np.unique(
        np.concatenate([pairs["a"].to_numpy(), pairs["b"].to_numpy()])
    )
    cand_arr = pa.array(cand.astype(np.int64))

    def cand_partial(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_in(b["doc_id"], value_set=cand_arr))
        out_doc: list[int] = []
        out_kind: list[int] = []  # 0..num_perm-1 = sig slot, -1 = gram id
        out_v1: list[int] = []
        out_v2: list[int] = []
        for i, t in zip(
            b["doc_id"].to_numpy(zero_copy_only=False), b["text"].to_pylist()
        ):
            toks = format_manuscript(t)
            grams = sorted(
                {
                    " ".join(toks[j : j + 3])
                    for j in range(len(toks) - 2)
                }
            )
            if not grams:
                continue
            g1, g2, _ = md5_hash128(grams)
            mins = md5_hex15(
                f"{s}|{g}" for g in grams for s in range(num_perm)
            ).reshape(len(grams), num_perm).min(axis=0)
            out_doc.extend([int(i)] * (len(grams) + num_perm))
            out_kind.extend([-1] * len(grams) + list(range(num_perm)))
            out_v1.extend(g1.tolist() + mins.tolist())
            out_v2.extend(g2.tolist() + [0] * num_perm)
        return pa.table(
            {
                "doc_id": pa.array(out_doc, pa.int64()),
                "kind": pa.array(out_kind, pa.int64()),
                "v1": pa.array(out_v1, pa.int64()),
                "v2": pa.array(out_v2, pa.int64()),
            }
        )

    # bounded: candidate-pair docs only (cand_partial pre-filters on cand_arr)
    rows = docs.map_batches(cand_partial, batch_format="pyarrow").to_pandas()
    sig: dict[tuple[int, int], int] = {}
    grams_by_doc: dict[int, set[tuple[int, int]]] = {}
    for doc, kind, v1, v2 in zip(
        rows["doc_id"].to_numpy(),
        rows["kind"].to_numpy(),
        rows["v1"].to_numpy(),
        rows["v2"].to_numpy(),
    ):
        if kind < 0:
            grams_by_doc.setdefault(int(doc), set()).add((int(v1), int(v2)))
        else:
            sig[(int(doc), int(kind))] = int(v1)

    out = {"a": [], "b": [], "agree": [], "inter": [], "uni": []}
    pairs = pairs.drop_duplicates().sort_values(["a", "b"])
    for a, b in zip(pairs["a"].to_numpy(), pairs["b"].to_numpy()):
        a, b = int(a), int(b)
        ga, gb = grams_by_doc.get(a), grams_by_doc.get(b)
        if not ga or not gb:
            continue  # oracle's inner join on sig drops gram-less docs
        agree = sum(
            1 for s in range(num_perm) if sig[(a, s)] == sig[(b, s)]
        )
        inter = len(ga & gb)
        out["a"].append(a)
        out["b"].append(b)
        out["agree"].append(agree)
        out["inter"].append(inter)
        out["uni"].append(len(ga) + len(gb) - inter)
    return pa.table(
        {k: pa.array(v, pa.int64()) for k, v in out.items()}
    )


@register(
    "dedup_incremental_ingest",
    oracle=f"""
    WITH d AS (
        SELECT doc_id, md5(substr(text, 1, 32)) AS pfx, {_SQL_TOKENS} AS ts
        FROM documents
    ), tri AS (
        SELECT DISTINCT doc_id, ts[p+1] || ' ' || ts[p+2] || ' ' || ts[p+3] AS g
        FROM d, unnest(range(len(ts) - 2)) AS u(p)
        WHERE len(ts) >= 3
    ), pairs AS (
        SELECT a.doc_id AS a, b.doc_id AS b
        FROM d a JOIN d b ON a.pfx = b.pfx
        WHERE a.doc_id % 4 = 0 AND b.doc_id % 4 <> 0
    ), i AS (
        SELECT p.a, p.b, count(*) AS inter
        FROM pairs p
        JOIN tri ga ON ga.doc_id = p.a
        JOIN tri gb ON gb.doc_id = p.b AND gb.g = ga.g
        GROUP BY p.a, p.b
    ), s AS (
        SELECT doc_id, count(*) AS n FROM tri GROUP BY doc_id
    ), dec AS (
        SELECT p.a,
               count(*) AS n_candidates,
               sum(CASE WHEN 20 * coalesce(i.inter, 0)
                             >= 19 * (na.n + nb.n - coalesce(i.inter, 0))
                        THEN 1 ELSE 0 END) AS n_rej,
               min(CASE WHEN 20 * coalesce(i.inter, 0)
                             >= 19 * (na.n + nb.n - coalesce(i.inter, 0))
                        THEN p.b END) AS dup_of
        FROM pairs p
        LEFT JOIN i ON i.a = p.a AND i.b = p.b
        JOIN s na ON na.doc_id = p.a
        JOIN s nb ON nb.doc_id = p.b
        GROUP BY p.a
    )
    SELECT nd.doc_id,
           CAST(coalesce(dec.n_candidates, 0) AS BIGINT) AS n_candidates,
           CAST(CASE WHEN coalesce(dec.n_rej, 0) > 0 THEN 0 ELSE 1 END
                AS BIGINT) AS accepted,
           dec.dup_of
    FROM (SELECT doc_id FROM documents WHERE doc_id % 4 = 0) nd
    LEFT JOIN dec ON dec.a = nd.doc_id
    """,
)
def dedup_incremental_ingest(sf_dir: str, num_buckets: int = 16):
    """Incremental shard ingest against an accepted corpus — the
    continuous-crawl dedup decision a production pipeline makes every
    batch: docs with doc_id % 4 == 0 arrive as the NEW shard, the rest
    are the standing corpus, and each new doc is ACCEPTED unless its
    exact trigram Jaccard against some corpus doc reaches tau = 0.95
    (integer rule 20*inter >= 19*uni — no float ever compares). Emits
    the full ingest ledger per new doc: candidate count (prefix-hash
    collisions against the corpus), the accept/reject bit, and dup_of =
    the smallest rejecting corpus doc (provenance for the crawl log).
    Plan: the dedup_minhash_jaccard_audit candidate machinery restricted
    to CROSS-class pairs (new x corpus — intra-shard and corpus-corpus
    pairs are dropped inside the bucket expansion, shrinking the pair
    stream ~2x), exact gram-set verify on the candidate-bounded subset,
    then the decision table broadcasts (it is dup-mass-bounded, NOT
    shard-bounded) and the new-doc slice annotates distributed — the
    output ledger never materializes on the driver. At 10^12 docs the
    shard's signatures would come from the standing LSH index
    (dedup_minhash's banded shuffle) instead of a corpus rescan; the
    decision/annotate contract is unchanged."""
    import pandas as pd
    import ray

    docs = _docs(sf_dir)

    def expand_cross_pairs(g: "pd.DataFrame") -> "pd.DataFrame":
        p1 = g["p1"].to_numpy()
        p2 = g["p2"].to_numpy()
        d = g["doc_id"].to_numpy()
        order = np.lexsort((d, p2, p1))
        p1, p2, d = p1[order], p2[order], d[order]
        new = np.r_[True, (p1[1:] != p1[:-1]) | (p2[1:] != p2[:-1])]
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:], len(d)]
        seg_end = np.repeat(ends, ends - starts)
        pos = np.arange(len(d))
        reps = seg_end - pos - 1
        total = int(reps.sum())
        if total == 0:
            return pd.DataFrame(
                {"a": np.array([], np.int64), "b": np.array([], np.int64)}
            )
        left = np.repeat(pos, reps)
        offs = np.concatenate(([0], np.cumsum(reps)[:-1]))
        right = left + (np.arange(total) - np.repeat(offs, reps)) + 1
        x, y = d[left], d[right]
        x_new = x % 4 == 0
        y_new = y % 4 == 0
        cross = x_new != y_new
        x, y, x_new = x[cross], y[cross], x_new[cross]
        return pd.DataFrame(
            {
                "a": np.where(x_new, x, y).astype(np.int64),
                "b": np.where(x_new, y, x).astype(np.int64),
            }
        )

    pairs = (
        docs.map_batches(
            _prefix_keys, fn_kwargs={"num_buckets": num_buckets}, batch_format="pyarrow"
        )
        .groupby("bucket")
        .map_groups(expand_cross_pairs, batch_format="pandas")
        .to_pandas()  # bounded: cross-class dup mass
        .drop_duplicates()
    )

    decisions: dict[int, tuple[int, int, "int | None"]] = {}
    if len(pairs):
        cand = np.unique(
            np.concatenate([pairs["a"].to_numpy(), pairs["b"].to_numpy()])
        )
        cand_arr = pa.array(cand.astype(np.int64))

        def gram_partial(b: pa.Table) -> pa.Table:
            b = b.filter(pc.is_in(b["doc_id"], value_set=cand_arr))
            out_doc, out_v1, out_v2 = [], [], []
            for i, t in zip(
                b["doc_id"].to_numpy(zero_copy_only=False),
                b["text"].to_pylist(),
            ):
                toks = format_manuscript(t)
                grams = list(
                    {" ".join(toks[j : j + 3]) for j in range(len(toks) - 2)}
                )
                g1, g2, _ = md5_hash128(grams)
                out_doc.extend([int(i)] * len(grams))
                out_v1.extend(g1.tolist())
                out_v2.extend(g2.tolist())
            return pa.table(
                {
                    "doc_id": pa.array(out_doc, pa.int64()),
                    "v1": pa.array(out_v1, pa.int64()),
                    "v2": pa.array(out_v2, pa.int64()),
                }
            )

        # bounded: candidate-pair docs only (gram_partial pre-filters)
        rows = docs.map_batches(gram_partial, batch_format="pyarrow").to_pandas()
        grams: dict[int, set] = {}
        for doc, v1, v2 in zip(
            rows["doc_id"].to_numpy(), rows["v1"].to_numpy(), rows["v2"].to_numpy()
        ):
            grams.setdefault(int(doc), set()).add((int(v1), int(v2)))
        for a, b in zip(pairs["a"].to_numpy(), pairs["b"].to_numpy()):
            a, b = int(a), int(b)
            ga, gb = grams.get(a), grams.get(b)
            if not ga or not gb:
                continue  # mirrors the oracle's inner join on sizes
            n_cand, n_rej, dup_of = decisions.get(a, (0, 0, None))
            inter = len(ga & gb)
            uni = len(ga) + len(gb) - inter
            rej = 20 * inter >= 19 * uni
            decisions[a] = (
                n_cand + 1,
                n_rej + int(rej),
                min(dup_of, b) if rej and dup_of is not None
                else (b if rej else dup_of),
            )

    dec_ref = ray.put(decisions)

    def annotate(b: pa.Table) -> pa.Table:
        dec = ray.get(dec_ref)
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ids = ids[ids % 4 == 0]
        n_cand = np.zeros(len(ids), np.int64)
        accepted = np.ones(len(ids), np.int64)
        dup_of: list = [None] * len(ids)
        for j, i in enumerate(ids):
            if int(i) in dec:
                nc, nr, dof = dec[int(i)]
                n_cand[j] = nc
                accepted[j] = 0 if nr > 0 else 1
                dup_of[j] = dof
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_candidates": pa.array(n_cand, pa.int64()),
                "accepted": pa.array(accepted, pa.int64()),
                "dup_of": pa.array(dup_of, pa.int64()),
            }
        )

    return _docs(sf_dir, columns=("doc_id",)).map_batches(
        annotate, batch_format="pyarrow"
    )


@register(
    "dedup_damerau",
    oracle="""
    WITH all_docs AS (
        SELECT doc_id, text FROM documents WHERE doc_id % 5 = 1
        UNION ALL
        SELECT doc_id + 900000,
               substr(text, 2, 1) || 'q' || substr(text, 1, 1) || substr(text, 3)
        FROM documents
        WHERE doc_id % 17 = 0 AND doc_id % 5 = 1 AND length(text) >= 2
    )
    SELECT x.doc_id AS a, y.doc_id AS b
    FROM all_docs x JOIN all_docs y
      ON x.doc_id < y.doc_id
     AND abs(length(x.text) - length(y.text)) <= 6
    WHERE damerau_levenshtein(x.text, y.text) <= 6
    """,
)
def dedup_damerau(sf_dir: str):
    """Transposition-aware edit-similarity join (UNRESTRICTED
    Damerau-Levenshtein <= 6): the OCR/typo dedup regime where swapped
    adjacent characters are one error, not two — including the
    Lowrance-Wagner case OSA misses (transposed characters drifting
    apart through a later insertion). Length-blocked candidates with
    zero false negatives, then a three-tier verify (byte-histogram
    counting filter -> vectorized OSA row-DP, exact only inside the
    D < OSA <= 2D band) — see pipelines/dedup.py
    near_dup_pairs_damerau. The fixture is the doc_id % 5 == 1 fifth of
    the corpus plus, for its % 17 == 0 members, a mutant built by
    transposing the first two characters AND inserting 'q' between them
    (distance exactly 2 under unrestricted D-L, 3 under OSA and 4 under
    plain Levenshtein — so the oracle's native damerau_levenshtein is
    the only semantics that reproduces the pair set). The oracle
    recomputes the join exhaustively on the same fixture."""
    from sciscraper_ray.pipelines.dedup import near_dup_pairs_damerau

    ds0 = _docs(sf_dir)

    def fifth(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids % 5 == 1))

    base = ds0.map_batches(fifth, batch_format="pyarrow")

    def mutants(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        texts = batch["text"].to_pylist()
        out_id, out_tx = [], []
        for i, t in zip(ids, texts):
            if i % 17 == 0 and t is not None and len(t) >= 2:
                out_id.append(int(i) + 900_000)
                out_tx.append(t[1] + "q" + t[0] + t[2:])
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "text": pa.array(out_tx, pa.string()),
            }
        )

    ds = base.union(base.map_batches(mutants, batch_format="pyarrow")).materialize()
    return near_dup_pairs_damerau(ds, max_dist=6)
