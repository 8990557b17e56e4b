"""Corpus-level ops: segment dedup, quality gates, sessions, sketches, CDC, sinks.

Split from pipelines/queries.py (round 4); registration side effects
only — import order is fixed by the package __init__.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from sciscraper_ray.kernels.md5 import md5_hash128, md5_hex15, md5_hex15_sql
from sciscraper_ray.kernels.tokenize import format_manuscript
from sciscraper_ray.pipelines.queries._shared import (
    _SQL_TOKENS,
    _docs,
    cents,
    register,
)
from sciscraper_ray.pipelines.queries.dedup import _SESSION_GAP_MIN
from sciscraper_ray.stages.relational import group_count_batch


# ---------------------------------------------------------------------------
# C4-style corpus-level segment dedup (line dedup over fixed-width token
# segments — the synthetic corpus has no newline structure, so the "line"
# unit is an 8-token window; the operator shape is identical to C4's
# remove-duplicate-lines pass: first global occurrence of each distinct
# unit survives, documents are rebuilt from their surviving units, and
# fully-duplicate documents vanish).

SEGDEDUP_W = 8


@register(
    "doc_segment_dedup",
    oracle=f"""
    WITH toks AS (
        SELECT doc_id,
               unnest({_SQL_TOKENS}) AS token,
               unnest(range(len({_SQL_TOKENS}))) AS ord
        FROM documents
    ), segs AS (
        SELECT doc_id, ord // {SEGDEDUP_W} AS seg_no,
               string_agg(token, ' ' ORDER BY ord) AS seg
        FROM toks GROUP BY doc_id, ord // {SEGDEDUP_W}
    ), firsts AS (
        SELECT doc_id, seg_no, seg,
               row_number() OVER (
                   PARTITION BY seg ORDER BY doc_id, seg_no
               ) AS rn
        FROM segs
    )
    SELECT doc_id,
           string_agg(seg, ' ' ORDER BY seg_no) AS text,
           CAST(count(*) AS BIGINT) AS n_segs
    FROM firsts WHERE rn = 1 GROUP BY doc_id
    """,
)
def doc_segment_dedup(sf_dir: str):
    """Corpus-level first-occurrence segment dedup (C4's duplicate-line
    removal): explode docs into 8-token segments, keep each distinct
    segment only at its globally first (doc_id, seg_no) site, rebuild doc
    text from the survivors. The dedup itself is the shared two-pass
    ``winner_filter`` (key = md5-128 of the segment, winner = min
    composite position) — only 128-bit keys enter the exchange, never
    segment text. The segment table is materialized once because
    winner_filter streams it twice (key pass + filter pass); at real
    scale the segment pass writes partitioned parquet and each pass is an
    independent pruned read instead (same contract as the flagship's
    pre-materialized key pass)."""
    from sciscraper_ray.pipelines.winner import WinnerSpec, winner_filter

    segs = _doc_segments(sf_dir)

    def position(batch: pa.Table) -> np.ndarray:
        """Winner value = doc_id * 2^20 + seg_no: min composite ==
        (doc_id, seg_no) lexicographic order. Bounds: doc_id < 2^43,
        segments-per-doc < 2^20 (a 8M-token doc would overflow; raise
        loudly rather than mis-rank)."""
        d = batch["doc_id"].to_numpy(zero_copy_only=False)
        s = batch["seg_no"].to_numpy(zero_copy_only=False)
        if len(s) and (s.max() >= (1 << 20) or d.max() >= (1 << 43)):
            raise ValueError("segment position overflows the composite key")
        return d * (1 << 20) + s

    kept = winner_filter(
        segs,
        WinnerSpec(
            keys=lambda b: md5_hash128(b["seg"].to_pylist()),
            value=position,
            np_reducer=np.minimum,
            agg_name="min",
            what="segment_dedup",
        ),
    )

    return _rebuild_docs_from_segments(kept)


def _doc_segments(sf_dir: str):
    """Every document's ``SEGDEDUP_W``-token segments as (doc_id, seg_no,
    seg) rows, materialized: each segment pass scans them twice."""
    import ray.data

    from sciscraper_ray.kernels.tokenize import segment_column

    def to_segments(batch: pa.Table) -> pa.Table:
        row, seg_no, seg = segment_column(batch["text"], SEGDEDUP_W)
        doc = batch["doc_id"].to_numpy(zero_copy_only=False)[row]
        return pa.table(
            {"doc_id": pa.array(doc), "seg_no": pa.array(seg_no), "seg": seg}
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return ds.map_batches(to_segments, batch_format="pyarrow").materialize()


def _rebuild_docs_from_segments(kept):
    """Bucketed vectorized doc rebuild shared by the segment-level ops
    (doc_segment_dedup, doc_boilerplate_strip): 32 doc-hash buckets, and
    within each bucket a MANY-docs-per-group rebuild (no per-doc
    map_groups) — lexsort by (doc, seg_no), doc-boundary offsets via
    np.diff, one zero-copy pc.binary_join over a re-offset ListArray —
    segment_column's construction run in reverse."""

    def rebuild_bucket(tbl: pa.Table) -> pa.Table:
        d = tbl["doc_id"].to_numpy(zero_copy_only=False)
        s = tbl["seg_no"].to_numpy(zero_copy_only=False)
        order = np.lexsort((s, d))
        d_s = d[order]
        seg = tbl["seg"].take(pa.array(order)).combine_chunks()
        n = len(d_s)
        starts = np.flatnonzero(np.r_[True, d_s[1:] != d_s[:-1]])
        offsets = np.append(starts, n).astype(np.int32)
        seg_list = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), seg)
        return pa.table(
            {
                "doc_id": pa.array(d_s[starts]),
                "text": pc.binary_join(seg_list, " "),
                "n_segs": pa.array(np.diff(offsets).astype(np.int64)),
            }
        )

    def add_doc_bucket(batch: pa.Table) -> pa.Table:
        bucket = pc.cast(pc.bit_wise_and(batch["doc_id"], 31), pa.int64())
        return batch.append_column("bucket", bucket)

    return (
        kept.map_batches(add_doc_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(
            lambda t: rebuild_bucket(t.drop_columns(["bucket"])),
            batch_format="pyarrow",
        )
    )


_BOILER_DF_MIN = 3


@register(
    "doc_boilerplate_strip",
    oracle=f"""
    WITH toks AS (
        SELECT doc_id,
               unnest({_SQL_TOKENS}) AS token,
               unnest(range(len({_SQL_TOKENS}))) AS ord
        FROM documents
    ), segs AS (
        SELECT doc_id, ord // {SEGDEDUP_W} AS seg_no,
               string_agg(token, ' ' ORDER BY ord) AS seg
        FROM toks GROUP BY doc_id, ord // {SEGDEDUP_W}
    ), freq AS (
        SELECT seg FROM (
            SELECT seg, count(DISTINCT doc_id) AS df FROM segs GROUP BY seg
        ) WHERE df >= {_BOILER_DF_MIN}
    )
    SELECT doc_id,
           string_agg(seg, ' ' ORDER BY seg_no) AS text,
           CAST(count(*) AS BIGINT) AS n_segs
    FROM segs WHERE seg NOT IN (SELECT seg FROM freq)
    GROUP BY doc_id
    """,
)
def doc_boilerplate_strip(sf_dir: str, plan: str = "auto"):
    """CCNet-style FREQUENCY-based boilerplate removal: a segment whose
    corpus document-frequency reaches the threshold is chrome/navigation
    by construction and is stripped from EVERY document (the complement
    of doc_segment_dedup, which keeps first occurrences). DF counting is
    exact and shuffle-light: a document's segments never span batches, so
    per-batch-distinct (key, doc) pairs are globally distinct and their
    counts are plain mergeable partials — 128-bit segment keys enter the
    exchange, never segment text; the frequent-key set (rare by
    construction: high-DF segments have low distinct count) is broadcast
    into a zero-shuffle strip filter, and the doc rebuild is the shared
    bucketed vectorized pass. Two-plan via pipelines/plan.py."""
    import pandas as pd
    import ray

    from sciscraper_ray.pipelines.plan import driver_frame, resolve_plan

    segs = _doc_segments(sf_dir)

    def key_pairs(batch: pa.Table) -> pa.Table:
        hi, lo, _valid = md5_hash128(batch["seg"].to_pylist())
        df = pd.DataFrame(
            {
                "h_hi": hi,
                "h_lo": lo,
                "doc_id": batch["doc_id"].to_numpy(zero_copy_only=False),
            }
        ).drop_duplicates()
        return pa.Table.from_pandas(df[["h_hi", "h_lo"]], preserve_index=False)

    pairs = segs.map_batches(key_pairs, batch_format="pyarrow")
    mode, pairs = resolve_plan(pairs, plan)
    if mode == "driver":
        pdf = driver_frame(pairs, what="doc_boilerplate_strip")
        vc = pdf.groupby(["h_hi", "h_lo"]).size()
        freq = vc[vc >= _BOILER_DF_MIN].reset_index()[["h_hi", "h_lo"]]
    else:
        from ray.data.aggregate import Count

        counted = pairs.groupby(["h_hi", "h_lo"]).aggregate(
            Count(alias_name="df")
        )

        def over_threshold(b: pa.Table) -> pa.Table:
            return b.filter(
                pc.greater_equal(b["df"], _BOILER_DF_MIN)
            ).select(["h_hi", "h_lo"])

        freq = counted.map_batches(
            over_threshold, batch_format="pyarrow"
        ).to_pandas()  # bounded: df>=threshold boilerplate hashes (broadcast side)

    freq_ref = ray.put(freq.assign(_boiler=True))

    def strip(batch: pa.Table) -> pa.Table:
        f = ray.get(freq_ref)
        if not len(f):
            return batch
        hi, lo, _valid = md5_hash128(batch["seg"].to_pylist())
        m = pd.DataFrame({"h_hi": hi, "h_lo": lo}).merge(
            f, on=["h_hi", "h_lo"], how="left"
        )
        return batch.filter(pa.array(m["_boiler"].isna().to_numpy()))

    kept = segs.map_batches(strip, batch_format="pyarrow")
    return _rebuild_docs_from_segments(kept)


# ---------------------------------------------------------------------------
# Gopher-style document quality gate (Rae et al. 2021 §A1.1 rule shapes,
# constants calibrated to this synthetic corpus so every rule actually
# discriminates: token counts span 10-99, mean word length 3.7-5.3, and
# the "stopword" analog is the corpus's highest-frequency function words).
# All metrics are INTEGER (ratio rules are cross-multiplied) so the
# oracle hash is float-free.

_GOPHER_STOPS = ("join", "hash", "row", "batch", "scan")


@register(
    "doc_gopher_filter",
    oracle=f"""
    WITH toks AS (
        SELECT doc_id, unnest({_SQL_TOKENS}) AS token FROM documents
    ), m AS (
        SELECT doc_id,
               CAST(count(*) AS BIGINT) AS n_words,
               CAST(sum(length(token)) AS BIGINT) AS sum_chars,
               CAST(sum(CASE WHEN token IN {_GOPHER_STOPS!r} THEN 1 ELSE 0 END)
                    AS BIGINT) AS stop_hits,
               CAST(sum(CASE WHEN regexp_matches(token, '[a-z]') THEN 1 ELSE 0 END)
                    AS BIGINT) AS alpha_words
        FROM toks GROUP BY doc_id
    )
    SELECT doc_id, n_words, sum_chars, stop_hits, alpha_words,
           CAST(CASE WHEN n_words BETWEEN 20 AND 80
                      AND sum_chars BETWEEN 4 * n_words AND 5 * n_words
                      AND 5 * alpha_words >= 4 * n_words
                      AND stop_hits >= 2
                THEN 1 ELSE 0 END AS BIGINT) AS keep
    FROM m
    """,
)
def doc_gopher_filter(sf_dir: str):
    """Gopher quality rules as one vectorized Arrow pass: per doc, token
    count bounds, mean-word-length bounds (cross-multiplied so the
    contract stays in int64), alpha-word ratio >= 0.8, and >= 2 hits of a
    fixed function-word set. Emits the metrics plus the keep bit — the
    shape of every LLM-corpus quality gate (score columns + boolean),
    embarrassingly parallel, no shuffle at all."""
    import ray.data

    from sciscraper_ray.kernels.tokenize import tokenize_column

    stops = list(_GOPHER_STOPS)

    def metrics(batch: pa.Table) -> pa.Table:
        mask = pc.is_valid(batch["text"])
        batch = batch.filter(mask)  # SQL's unnest drops null-text docs
        if not batch.num_rows:  # reduceat rejects an empty start list
            empty = pa.array([], pa.int64())
            return pa.table(
                {
                    "doc_id": empty,
                    "n_words": empty,
                    "sum_chars": empty,
                    "stop_hits": empty,
                    "alpha_words": empty,
                    "keep": empty,
                }
            )
        toks = tokenize_column(batch["text"]).combine_chunks()
        offs = np.asarray(toks.offsets).astype(np.int64)
        starts = offs[:-1]
        flat = toks.values
        lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
        alpha = pc.match_substring_regex(flat, "[a-z]").to_numpy(
            zero_copy_only=False
        )
        stop = pc.is_in(flat, value_set=pa.array(stops)).to_numpy(
            zero_copy_only=False
        )
        n = (offs[1:] - starts).astype(np.int64)
        # reduceat needs non-empty slices; empty rows cannot occur here
        # (split(" ") of any non-null string yields >= 1 token)
        sum_chars = np.add.reduceat(lens.astype(np.int64), starts)
        alpha_w = np.add.reduceat(alpha.astype(np.int64), starts)
        stop_h = np.add.reduceat(stop.astype(np.int64), starts)
        keep = (
            (n >= 20)
            & (n <= 80)
            & (sum_chars >= 4 * n)
            & (sum_chars <= 5 * n)
            & (5 * alpha_w >= 4 * n)
            & (stop_h >= 2)
        ).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_words": pa.array(n),
                "sum_chars": pa.array(sum_chars),
                "stop_hits": pa.array(stop_h),
                "alpha_words": pa.array(alpha_w),
                "keep": pa.array(keep),
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return ds.map_batches(metrics, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Cohort retention: users grouped by first-active day, counted per
# day-offset they return — the canonical product-analytics matrix and a
# second-order aggregate (groupby over the OUTPUT of a grouped min).

_US_PER_DAY = 86_400_000_000


@register(
    "events_retention",
    oracle=f"""
    WITH p AS (
        SELECT DISTINCT user_id,
               epoch_us(ts) // {_US_PER_DAY} AS day
        FROM events
    ), f AS (
        SELECT user_id, min(day) AS cohort_day FROM p GROUP BY user_id
    )
    SELECT f.cohort_day,
           p.day - f.cohort_day AS day_offset,
           CAST(count(*) AS BIGINT) AS users
    FROM p JOIN f USING (user_id)
    GROUP BY f.cohort_day, day_offset
    """,
)
def events_retention(sf_dir: str):
    """Retention matrix in three shuffle-lean stages: (1) distinct
    (user, day) pairs — per-batch np.unique pre-shrink, then one exact
    groupby; (2) per-user cohort day = grouped Min over the PAIRS (a
    users-sized table), broadcast back via the Arrow-native lookup (the
    bucketed hash join is the swap-in once the user set outgrows a
    broadcast); (3) (cohort, offset) counts via composite-int64 partials
    + one tiny Sum groupby. Day arithmetic stays in int64 epoch-days
    end to end. The pairs table is materialized once because stages 2
    and 3 both consume it."""
    import ray
    import ray.data
    from ray.data.aggregate import Min, Sum

    from sciscraper_ray.stages.relational import BroadcastLookup

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )

    def day_pairs(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = (
            batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        )
        day = us // _US_PER_DAY  # epoch-day; events are post-1970
        if len(day) and (day.max() >= (1 << 20) or u.max() >= (1 << 43)):
            raise ValueError("user/day overflows the composite key")
        comp = np.unique(u * (1 << 20) + day)
        return pa.table(
            {
                "user_id": pa.array(comp >> 20),
                "day": pa.array(comp & ((1 << 20) - 1)),
            }
        )

    pairs = (
        ds.map_batches(day_pairs, batch_format="pyarrow")
        .groupby(["user_id", "day"])
        .count()
        .drop_columns(["count()"])
        .materialize()
    )

    from sciscraper_ray.pipelines.plan import driver_frame

    firsts = driver_frame(
        pairs.groupby("user_id").aggregate(
            Min(on="day", alias_name="cohort_day")
        ),
        what="events_cohort_retention",
    ).set_index("user_id")
    ref = ray.put(firsts)  # broadcast once; tasks ray.get it zero-copy

    def offsets(batch: pa.Table) -> pa.Table:
        joined = BroadcastLookup(ref, on="user_id")(batch)
        day = joined["day"].to_numpy(zero_copy_only=False)
        cohort = joined["cohort_day"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        comp, cnt = np.unique(
            cohort * (1 << 20) + (day - cohort), return_counts=True
        )
        return pa.table(
            {"k": pa.array(comp), "cnt": pa.array(cnt.astype(np.int64))}
        )

    agg = (
        pairs.map_batches(offsets, batch_format="pyarrow")
        .groupby("k")
        .aggregate(Sum(on="cnt", alias_name="users"))
    )

    def decompose(batch: pa.Table) -> pa.Table:
        k = batch["k"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "cohort_day": pa.array(k >> 20),
                "day_offset": pa.array(k & ((1 << 20) - 1)),
                "users": batch["users"].cast(pa.int64()),
            }
        )

    return agg.map_batches(decompose, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Session path mining: the ordered event-type sequence of each session,
# counted globally — clickstream sequence analysis (top navigation paths).
# Composes the sessionizer with a grouped ordered string-agg and a
# deterministic global top-k.

_TOP_PATHS_K = 20


@register(
    "events_top_paths",
    oracle=f"""
    WITH o AS (
        SELECT user_id, ts, event_id, event_type,
               CASE WHEN lag(ts) OVER w IS NULL
                         OR ts - lag(ts) OVER w > INTERVAL {_SESSION_GAP_MIN} MINUTE
                    THEN 1 ELSE 0 END AS new_s
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
    ), s AS (
        SELECT user_id, ts, event_id, event_type,
               sum(new_s) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id
                   ROWS UNBOUNDED PRECEDING
               ) AS session_id
        FROM o
    ), p AS (
        SELECT user_id, session_id,
               string_agg(event_type, '>' ORDER BY ts, event_id) AS path
        FROM s GROUP BY user_id, session_id
    )
    SELECT path, CAST(count(*) AS BIGINT) AS cnt
    FROM p GROUP BY path
    ORDER BY cnt DESC, path ASC LIMIT {_TOP_PATHS_K}
    """,
)
def events_top_paths(sf_dir: str):
    """Top session paths, on the shared BUCKETED window plan
    (stages/window.py): ONE shuffle on ``user_id % 32`` builds every
    session's '>'-joined event-type path with two C-level string ops
    (vectorized prefix concat + sentinel join/split — no per-session
    Python) and pre-counts paths per bucket, so the global groupby Sums
    tiny (path, cnt) partials instead of raw sessions; the final top-k
    is a sort+limit over the already-aggregated path table. Group count
    is O(buckets), never O(users). Ties at the k boundary are impossible
    (path is the group key); order inside a session is (ts, event_id)
    on both engine and oracle."""
    import ray.data
    from ray.data.aggregate import Sum

    from sciscraper_ray.stages.window import (
        bucketed_window,
        make_bucket_session_paths,
    )

    gap_us = _SESSION_GAP_MIN * 60 * 1_000_000
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "event_type"],
    )
    counts = bucketed_window(
        ds, make_bucket_session_paths(gap_us)
    ).groupby("path").aggregate(Sum(on="cnt", alias_name="cnt"))
    return counts.sort(["cnt", "path"], descending=[True, False]).limit(
        _TOP_PATHS_K
    )


# ---------------------------------------------------------------------------
# Deterministic WEIGHTED Bernoulli sampling: P(keep) = min(n_chars, 1024)
# / 1024, decided by an id-hash threshold instead of an RNG, so the sample
# is reproducible across runs, cluster sizes, and partitionings, and the
# inclusion test is a pure integer compare (hex15 of md5 < weight * 2^50 —
# both sides < 2^60, no floats anywhere). The length-proportional weight
# is the shape used for loss-weighted corpus subsampling.


@register(
    "doc_sample_weighted",
    oracle=f"""
    SELECT doc_id, n_chars FROM documents
    WHERE {md5_hex15_sql("CAST(doc_id AS VARCHAR)")}
          < least(n_chars, 1024) * {1 << 50}
    """,
)
def doc_sample_weighted(sf_dir: str):
    """Length-weighted deterministic sample — pure map, no shuffle. The
    per-row md5 key is hex15 of str(id), the oracle's VARCHAR cast."""
    import ray.data

    def pick(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        if not ids:
            return batch
        h = md5_hex15(map(str, ids))
        w = np.minimum(
            batch["n_chars"].to_numpy(zero_copy_only=False), 1024
        ).astype(np.int64)
        return batch.filter(pa.array(h < (w << 50)))

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    return ds.map_batches(pick, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Grouped MODE (per-key most-frequent value, deterministic tiebreak) and a
# fixed-width value histogram — two small aggregate shapes every
# analytics layer expects.


@register(
    "events_user_mode",
    oracle="""
    WITH c AS (
        SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS cnt
        FROM events GROUP BY user_id, event_type
    )
    SELECT user_id, event_type AS mode_type, cnt FROM (
        SELECT *, row_number() OVER (
            PARTITION BY user_id ORDER BY cnt DESC, event_type ASC
        ) AS rn FROM c
    ) WHERE rn = 1
    """,
)
def events_user_mode(sf_dir: str):
    """Per-user modal event type: per-batch (user, type) count partials
    (the full stream never shuffles, only <= |users| x |types| partial
    rows), one exact groupby Sum, then the per-user argmax through
    ``bucketed_window`` — group count is O(buckets), NOT O(users), so
    there is no per-user Python dispatch (VERDICT r3 item 4; the
    anti-pattern stages/window.py:1-13 documents). Inside each bucket
    the argmax is one lexsort (cnt desc, type asc within user) plus a
    segment-head mask."""
    import pandas as pd

    import ray.data
    from ray.data.aggregate import Sum

    from sciscraper_ray.stages.window import bucketed_window

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    counts = (
        ds.map_batches(
            lambda b: group_count_batch(b, ["user_id", "event_type"]),
            batch_format="pyarrow",
        )
        .groupby(["user_id", "event_type"])
        .aggregate(Sum(on="cnt", alias_name="cnt"))
    )

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        user = g["user_id"].to_numpy()
        etype = g["event_type"].to_numpy()
        cnt = g["cnt"].to_numpy().astype(np.int64)
        order = np.lexsort((etype, -cnt, user))
        user_s = user[order]
        head = np.ones(len(order), dtype=bool)
        head[1:] = user_s[1:] != user_s[:-1]
        return pd.DataFrame(
            {
                "user_id": user_s[head],
                "mode_type": etype[order][head],
                "cnt": cnt[order][head],
            }
        )

    return bucketed_window(counts, pick, key="user_id")


_HIST_BIN = 16  # power of two: value / 16 is an exact double op, so
# floor() agrees bit-for-bit between numpy and SQL


@register(
    "events_value_histogram",
    oracle=f"""
    SELECT CAST(floor(value / {_HIST_BIN}) AS BIGINT) AS bin,
           CAST(count(*) AS BIGINT) AS cnt
    FROM events GROUP BY bin
    """,
)
def events_value_histogram(sf_dir: str):
    """Fixed-width histogram: per-batch np.unique bin partials, one tiny
    Sum groupby over <= |bins| rows per batch. The bin width is a power
    of two so the double divide is exact and the floor is deterministic
    across engines."""
    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["value"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        bins, cnt = np.unique(
            np.floor(v / _HIST_BIN).astype(np.int64), return_counts=True
        )
        return pa.table(
            {"bin": pa.array(bins), "cnt": pa.array(cnt.astype(np.int64))}
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bin")
        .aggregate(Sum(on="cnt", alias_name="cnt"))
    )


# ---------------------------------------------------------------------------
# URL canonicalization — the crawl-frontier normal form every web-scale
# dedup/politeness stage keys on. Messy fixtures are synthesized
# deterministically from doc_id (the link_routing pattern) and the oracle
# states the EXPECTED canonical form from first principles, so a kernel
# bug cannot hide in a mirrored transform.

_CANON_HOSTS_RAW = (
    "Example.COM", "www.Sample.ORG", "Docs.Example.COM",
    "WWW.Data.NET", "archive.Edu",
)
_CANON_HOSTS = (
    "example.com", "sample.org", "docs.example.com", "data.net",
    "archive.edu",
)


@register(
    "url_canonicalize",
    oracle=f"""
    SELECT doc_id,
           CASE WHEN doc_id % 11 = 0 THEN NULL ELSE
               'https://' ||
               CASE doc_id % 5
                   WHEN 0 THEN '{_CANON_HOSTS[0]}' WHEN 1 THEN '{_CANON_HOSTS[1]}'
                   WHEN 2 THEN '{_CANON_HOSTS[2]}' WHEN 3 THEN '{_CANON_HOSTS[3]}'
                   ELSE '{_CANON_HOSTS[4]}' END
               || '/papers/x' || doc_id
               || CASE WHEN doc_id % 2 = 0 OR doc_id % 5 = 0
                       THEN '?id=' || doc_id ELSE '' END
           END AS canonical_url,
           CASE WHEN doc_id % 11 = 0 THEN NULL ELSE
               CASE doc_id % 5
                   WHEN 0 THEN '{_CANON_HOSTS[0]}' WHEN 1 THEN '{_CANON_HOSTS[1]}'
                   WHEN 2 THEN '{_CANON_HOSTS[2]}' WHEN 3 THEN '{_CANON_HOSTS[3]}'
                   ELSE '{_CANON_HOSTS[4]}' END
           END AS host
    FROM documents
    """,
)
def url_canonicalize(sf_dir: str):
    """Canonical URLs + registrable host from deliberately messy inputs
    (scheme/host case noise, www. prefixes, default :443 ports, trailing
    slashes, utm_* tracking params, fragments, plus unparseable rows
    that canonicalize to null). The kernel
    (kernels/links.py canonicalize_urls) is one pc.extract_regex + Arrow
    string kernels — no Python per row; the fixture synth is the only
    row loop, as in link_routing."""
    from sciscraper_ray.kernels.links import canonicalize_urls

    def build(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        raw = []
        for i in ids:
            if i % 11 == 0:
                raw.append(f"not a url {i}")
                continue
            scheme = "HTTPS" if i % 2 == 0 else "https"
            host = _CANON_HOSTS_RAW[i % 5]
            port = ":443" if i % 3 == 0 else ""
            path = f"/papers/x{i}" + ("/" if i % 4 == 0 else "")
            if i % 2 == 0:
                query = f"?utm_source=feed&id={i}&utm_campaign=x"
            elif i % 5 == 0:
                query = f"?id={i}"
            else:
                query = ""
            frag = f"#sec{i % 7}" if i % 7 else ""
            raw.append(f"{scheme}://{host}{port}{path}{query}{frag}")
        canonical, host = canonicalize_urls(pa.array(raw, pa.string()))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "canonical_url": canonical,
                "host": host,
            }
        )

    return _docs(sf_dir, columns=("doc_id",)).map_batches(
        build, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# Crawl snapshot diff: the incremental-recrawl primitive — per url,
# compare the LATEST fetch's extracted content against the previous one
# and classify new / unchanged / changed. Exercises the real extraction
# stack on both snapshots (revised refetches re-render the payload), so
# a byte-level extraction regression shows up as a wrong delta.


@register(
    "crawl_delta",
    oracle="""
    SELECT doc_id,
           CASE WHEN doc_id % 17 <> 0 THEN 'new'
                WHEN doc_id % 3 = 0 THEN 'changed'
                ELSE 'unchanged' END AS status,
           CAST(CASE WHEN doc_id % 17 = 0 THEN 2 ELSE 1 END AS BIGINT)
               AS n_fetches
    FROM documents
    """,
)
def crawl_delta(sf_dir: str):
    """Snapshot diff over the page table (dup_mod=17 refetches, of which
    the ids also divisible by 3 carry revised content): full extraction
    (HTML strip / PDF parse as task map_batches, dedup off — we NEED every
    fetch), then ONE shuffle on url; each url's tiny fetch group is
    sorted by warc_ts and the last two extracted texts compared. Only
    (url, warc_ts, doc_id, extracted_text) enter the shuffle — payload
    bytes are projected away by the extraction stage itself."""
    import pandas as pd

    from sciscraper_ray.pipelines.extract import extraction_pipeline
    from sciscraper_ray.sources.page_synth import synth_pages_batch

    pages = _docs(sf_dir, columns=("doc_id", "text", "lang")).map_batches(
        lambda b: synth_pages_batch(
            b, pdf_mod=10, dup_mod=17, change_mod=3
        ),
        batch_format="pyarrow",
    )
    extracted = extraction_pipeline(
        pages, dedup=False, analyze=False
    ).select_columns(["url", "warc_ts", "doc_id", "extracted_text"])

    def classify(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("warc_ts")
        if len(g) == 1:
            status = "new"
        elif g["extracted_text"].iloc[-1] == g["extracted_text"].iloc[-2]:
            status = "unchanged"
        else:
            status = "changed"
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].iloc[-1:].to_numpy(),
                "status": [status],
                "n_fetches": np.array([len(g)], np.int64),
            }
        )

    return extracted.groupby("url").map_groups(
        classify, batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# Bloom-filter semi-join — the join-pruning primitive big engines push
# below a shuffle: build a small bloom over the selective side's keys,
# broadcast it, and filter the big side BEFORE any exchange. False
# positives are part of the operator contract (they cost a little extra
# downstream work, never correctness), so the oracle reproduces the
# EXACT bit arithmetic — md5-salted positions recomputed independently
# by DuckDB — and must match engine output fp-for-fp.

_BLOOM_M = 4096  # small on purpose: ~18% load at sf0.01 so the fp path
# is actually exercised (a production filter would size m >> n)


def _bloom_positions(values: "np.ndarray", salt: str) -> "np.ndarray":
    """hex15 of '<salt>:<v>' % m: _bloom_pos_sql's Python twin."""
    return md5_hex15(f"{salt}:{v}" for v in values) % _BLOOM_M


def _bloom_pos_sql(expr: str, salt: str) -> str:
    return md5_hex15_sql(f"'{salt}:' || CAST({expr} AS VARCHAR)") + f" % {_BLOOM_M}"


@register(
    "bloom_semijoin",
    oracle=f"""
    WITH members AS (
        SELECT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING'
    ), pos AS (
        SELECT DISTINCT p FROM (
            SELECT {_bloom_pos_sql("c_custkey", "b1")} AS p FROM members
            UNION ALL
            SELECT {_bloom_pos_sql("c_custkey", "b2")} AS p FROM members
        )
    )
    SELECT o_orderkey, o_custkey FROM orders
    WHERE {_bloom_pos_sql("o_custkey", "b1")} IN (SELECT p FROM pos)
      AND {_bloom_pos_sql("o_custkey", "b2")} IN (SELECT p FROM pos)
    """,
)
def bloom_semijoin(sf_dir: str):
    """Orders whose o_custkey passes a k=2 bloom built over BUILDING-
    segment customers. Build side: per-batch distinct positions -> one
    tiny groupby (<= 2n rows of int64; the key column never leaves the
    batch); the sorted position array broadcasts via ray.put and the
    probe is a zero-shuffle Arrow filter (np.isin against the sorted
    set). The downstream exact join this would guard is order_lineitem_
    join; here the filtered rows ARE the result so the fp contract is
    checkable."""
    import ray
    import ray.data

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )

    def build_positions(batch: pa.Table) -> pa.Table:
        keys = batch.filter(
            pc.equal(batch["c_mktsegment"], "BUILDING")
        )["c_custkey"].to_numpy(zero_copy_only=False)
        if not len(keys):
            return pa.table({"pos": pa.array([], pa.int64())})
        p = np.unique(
            np.concatenate(
                [_bloom_positions(keys, "b1"), _bloom_positions(keys, "b2")]
            )
        )
        return pa.table({"pos": pa.array(p)})

    pos = (
        cust.map_batches(build_positions, batch_format="pyarrow")
        .groupby("pos")
        .count()
        .to_pandas()["pos"]  # bounded: set bloom bit positions (filter width)
        .to_numpy()
    )
    pos_ref = ray.put(np.sort(pos.astype(np.int64)))

    def probe(batch: pa.Table) -> pa.Table:
        bits = ray.get(pos_ref)
        keys = batch["o_custkey"].to_numpy(zero_copy_only=False)
        hit = np.isin(_bloom_positions(keys, "b1"), bits) & np.isin(
            _bloom_positions(keys, "b2"), bits
        )
        return batch.filter(pa.array(hit))

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )
    return orders.map_batches(probe, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Count-min sketch — the mergeable frequency sketch (Cormode & Muthu
# 2005): d=2 salted rows x w=1024 cells. Like the HLL and bloom rows,
# the sketch's deterministic OVER-count is part of the contract, so the
# oracle rebuilds both hash rows cell-exactly in SQL and the point
# estimates must match collision-for-collision.

_CMS_W = 1024
_CMS_SALTS = ("c1", "c2")
_CMS_PROBES = _GOPHER_STOPS + ("stream", "nosuchtoken",)


def _cms_cells(tokens: list, salt: str) -> "np.ndarray":
    """hex15 of '<salt>:<token>' % w: _cms_cell_sql's Python twin."""
    return md5_hex15(f"{salt}:{t}" for t in tokens) % _CMS_W


def _cms_cell_sql(expr: str, salt: str) -> str:
    return md5_hex15_sql(f"'{salt}:' || {expr}") + f" % {_CMS_W}"


def _cms_oracle() -> str:
    probes = ", ".join(f"('{t}')" for t in _CMS_PROBES)
    rows = []
    for r, salt in enumerate(_CMS_SALTS):
        rows.append(f"""
        SELECT {r} AS r, {_cms_cell_sql("token", salt)} AS cell,
               CAST(sum(cnt) AS BIGINT) AS total
        FROM counts GROUP BY cell""")
    cells = " UNION ALL ".join(rows)
    ests = ", ".join(
        f"""coalesce((SELECT total FROM cells
             WHERE r = {r} AND cell = {_cms_cell_sql("p.token", salt)}), 0)"""
        for r, salt in enumerate(_CMS_SALTS)
    )
    return f"""
    WITH toks AS (
        SELECT unnest({_SQL_TOKENS}) AS token FROM documents
    ), counts AS (
        SELECT token, CAST(count(*) AS BIGINT) AS cnt FROM toks GROUP BY token
    ), cells AS ({cells})
    SELECT p.token, CAST(least({ests}) AS BIGINT) AS est
    FROM (VALUES {probes}) AS p(token)
    """


@register("token_cms_estimate", oracle=_cms_oracle())
def token_cms_estimate(sf_dir: str):
    """CMS point estimates for a fixed probe set: per-batch partials emit
    at most d*w (cell, count) rows regardless of vocabulary (distinct
    tokens are hashed once per batch via value_counts), one tiny
    groupby Sum merges the sketch, and the driver reads <= 2048 rows to
    answer any number of point queries. est >= true always; equality
    collision-for-collision with the SQL rebuild."""
    import ray.data
    from ray.data.aggregate import Sum

    from sciscraper_ray.kernels.tokenize import tokenize_column

    def partial(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(tokenize_column(batch["text"]))
        vc = flat.value_counts()
        toks = vc.field("values").to_pylist()
        cnts = vc.field("counts").to_numpy(zero_copy_only=False).astype(np.int64)
        if not toks:
            e = pa.array([], pa.int64())
            return pa.table({"k": e, "cnt": e})
        ks, totals = [], []
        for r, salt in enumerate(_CMS_SALTS):
            cells = _cms_cells(toks, salt)
            k = r * _CMS_W + cells
            agg_k, inv = np.unique(k, return_inverse=True)
            agg_c = np.bincount(inv, weights=cnts).astype(np.int64)
            ks.append(agg_k)
            totals.append(agg_c)
        return pa.table(
            {
                "k": pa.array(np.concatenate(ks)),
                "cnt": pa.array(np.concatenate(totals)),
            }
        )

    sketch = (
        _docs(sf_dir, columns=("text",))
        .map_batches(partial, batch_format="pyarrow")
        .groupby("k")
        .aggregate(Sum(on="cnt", alias_name="cnt"))
        .to_pandas()  # bounded: d x w CMS cells
    )
    table = np.zeros(len(_CMS_SALTS) * _CMS_W, np.int64)
    table[sketch["k"].to_numpy()] = sketch["cnt"].to_numpy()

    import pandas as pd

    probes = list(_CMS_PROBES)
    ests = np.full(len(probes), np.iinfo(np.int64).max)
    for r, salt in enumerate(_CMS_SALTS):
        cells = _cms_cells(probes, salt)
        ests = np.minimum(ests, table[r * _CMS_W + cells])
    return pd.DataFrame(
        {"token": probes, "est": ests.astype(np.int64)}
    )


# ---------------------------------------------------------------------------
# Corpus summary — the "dataset card" single-row report every corpus
# release ships: sizes, null rate, token totals, language/source
# cardinalities, and the exact duplicate-text rate. Integer-only.


@register(
    "corpus_summary",
    oracle=f"""
    WITH t AS (
        SELECT doc_id, text, lang, source,
               CASE WHEN text IS NULL THEN NULL
                    ELSE len({_SQL_TOKENS}) END AS n
        FROM documents
    )
    SELECT CAST(count(*) AS BIGINT) AS n_docs,
           CAST(sum(CASE WHEN text IS NULL THEN 1 ELSE 0 END) AS BIGINT)
               AS null_texts,
           CAST(sum(n) AS BIGINT) AS total_tokens,
           CAST(min(n) AS BIGINT) AS min_tokens,
           CAST(max(n) AS BIGINT) AS max_tokens,
           CAST(count(DISTINCT lang) AS BIGINT) AS langs,
           CAST(count(DISTINCT source) AS BIGINT) AS sources,
           CAST(sum(CASE WHEN text IS NOT NULL THEN 1 ELSE 0 END)
                - count(DISTINCT text) AS BIGINT) AS dup_text_rows
    FROM t
    """,
)
def corpus_summary(sf_dir: str):
    """One streaming pass emits per-batch scalar partials (counts, token
    sums, min/max, the batch's distinct lang/source lists — both
    low-cardinality by contract); the driver folds a handful of rows.
    The one genuinely global quantity — distinct text count — reuses the
    md5-128 key partials (only hashes shuffle, texts never do):
    dup_text_rows = non-null rows - distinct hashes."""
    import pandas as pd

    import ray.data

    from sciscraper_ray.kernels.tokenize import tokenize_column

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang", "source"],
    ).materialize()  # consumed twice (scalars + distinct-hash pass)

    def scalars(batch: pa.Table) -> pa.Table:
        toks = tokenize_column(batch["text"]).combine_chunks()
        valid = batch["text"].is_valid().to_numpy(zero_copy_only=False)
        nn = (
            pc.drop_null(pc.list_value_length(toks))
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        return pa.table(
            {
                "n_docs": pa.array([len(batch)], pa.int64()),
                "null_texts": pa.array([int((~valid).sum())], pa.int64()),
                "total_tokens": pa.array([int(nn.sum())], pa.int64()),
                "min_tokens": pa.array(
                    [int(nn.min()) if len(nn) else np.iinfo(np.int64).max],
                    pa.int64(),
                ),
                "max_tokens": pa.array(
                    [int(nn.max()) if len(nn) else np.iinfo(np.int64).min],
                    pa.int64(),
                ),
                "langs": pa.array(
                    [",".join(sorted(set(batch["lang"].to_pylist()) - {None}))],
                    pa.string(),
                ),
                "sources": pa.array(
                    [",".join(sorted(set(batch["source"].to_pylist()) - {None}))],
                    pa.string(),
                ),
            }
        )

    # bounded: one scalar row per block
    parts = ds.map_batches(scalars, batch_format="pyarrow").to_pandas()

    def hash_partial(batch: pa.Table) -> pa.Table:
        hi, lo, valid = md5_hash128(batch["text"].to_pylist())
        comp = np.unique(np.stack([hi[valid], lo[valid]], axis=1), axis=0)
        return pa.table(
            {"h_hi": pa.array(comp[:, 0]), "h_lo": pa.array(comp[:, 1])}
        )

    distinct_texts = (
        ds.map_batches(hash_partial, batch_format="pyarrow")
        .groupby(["h_hi", "h_lo"])
        .count()
        .count()
    )

    langs: set = set()
    sources: set = set()
    for ls in parts["langs"]:
        langs.update(x for x in ls.split(",") if x)
    for ss in parts["sources"]:
        sources.update(x for x in ss.split(",") if x)
    non_null = int(parts["n_docs"].sum()) - int(parts["null_texts"].sum())
    return pd.DataFrame(
        {
            "n_docs": np.array([parts["n_docs"].sum()], np.int64),
            "null_texts": np.array([parts["null_texts"].sum()], np.int64),
            "total_tokens": np.array([parts["total_tokens"].sum()], np.int64),
            "min_tokens": np.array([parts["min_tokens"].min()], np.int64),
            "max_tokens": np.array([parts["max_tokens"].max()], np.int64),
            "langs": np.array([len(langs)], np.int64),
            "sources": np.array([len(sources)], np.int64),
            "dup_text_rows": np.array(
                [non_null - distinct_texts], np.int64
            ),
        }
    )


# ---------------------------------------------------------------------------
# Zone-map pruned scan — the storage-layer scale primitive: write the
# table CLUSTERED by the filter key, build a per-file min/max manifest
# from parquet FOOTERS only, and answer a range predicate by opening only
# the files whose zone overlaps. At 10^12 rows this is the difference
# between touching 100 TB and touching one key range's worth of files.

_ZONE_LO, _ZONE_HI = 100, 199


def zonemap_manifest(out_dir: str, column: str) -> list[tuple[str, int, int]]:
    """(path, min, max) per data file, read from footer statistics only —
    no row data is touched to build the manifest."""
    import glob as _glob
    import os

    import pyarrow.parquet as pq

    entries = []
    for f in sorted(_glob.glob(os.path.join(out_dir, "*.parquet"))):
        md = pq.read_metadata(f)
        idx = md.schema.names.index(column)
        mins, maxs = [], []
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(idx).statistics
            mins.append(st.min)
            maxs.append(st.max)
        if mins:
            entries.append((f, min(mins), max(maxs)))
    return entries


def zonemap_prune(
    out_dir: str, column: str, lo: int, hi: int
) -> tuple[list[str], int]:
    """Files whose [min, max] zone overlaps [lo, hi], plus the total file
    count (so callers can assert real pruning happened)."""
    manifest = zonemap_manifest(out_dir, column)
    picked = [f for f, mn, mx in manifest if mx >= lo and mn <= hi]
    return picked, len(manifest)


@register(
    "zonemap_scan",
    oracle=f"""
    SELECT doc_id, n_chars FROM documents
    WHERE doc_id BETWEEN {_ZONE_LO} AND {_ZONE_HI}
    """,
)
def zonemap_scan(sf_dir: str):
    """Range scan through a zone map: sort by doc_id (the clustering
    write — one shuffle, paid once at ingest), write >= 8 parquet files,
    manifest their footer min/max, then read ONLY overlapping files and
    apply the residual Arrow filter. The pruning ratio is asserted in
    tests/test_behavior_ops.py; the gate checks the rows."""
    import tempfile

    import ray.data

    with tempfile.TemporaryDirectory(prefix="zonemap_") as out_dir:
        (
            ray.data.read_parquet(
                f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
            )
            .sort("doc_id")
            .repartition(8)
            .write_parquet(out_dir)
        )
        picked, _total = zonemap_prune(out_dir, "doc_id", _ZONE_LO, _ZONE_HI)
        lo = pa.scalar(_ZONE_LO, pa.int64())
        hi = pa.scalar(_ZONE_HI, pa.int64())
        return ray.data.read_parquet(picked).map_batches(
            lambda b: b.filter(
                pc.and_(
                    pc.greater_equal(b["doc_id"], lo),
                    pc.less_equal(b["doc_id"], hi),
                )
            ),
            batch_format="pyarrow",
        ).materialize()


# ---------------------------------------------------------------------------
# Multi-hop star join (TPC-H Q5 shape): fact ⋈ fact through the bucketed
# co-partition plan, then the dimension chain (nation -> region) as ONE
# broadcast lookup, finished by a partial-agg groupby. Money stays exact:
# prices convert to integer cents before any aggregation, so the oracle
# hash has no float in it.


@register(
    "revenue_by_nation",
    oracle="""
    SELECT r_name, n_name,
           CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
               AS revenue_cents,
           CAST(count(*) AS BIGINT) AS n_orders
    FROM orders
    JOIN customer ON o_custkey = c_custkey
    JOIN nation ON c_nationkey = n_nationkey
    JOIN region ON n_regionkey = r_regionkey
    GROUP BY r_name, n_name
    """,
)
def revenue_by_nation(sf_dir: str):
    """Revenue per (region, nation): orders ⋈ customer is big x big (one
    all-to-all on the bucket key, `bucketed_hash_join`); nation+region
    are a few dozen rows, pre-joined on the driver and broadcast once;
    the final aggregate ships only per-batch (region, nation) partials."""
    import pandas as pd

    import ray
    import ray.data
    from ray.data.aggregate import Sum

    from sciscraper_ray.stages.relational import BroadcastLookup, bucketed_hash_join

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    ).map_batches(
        lambda b: pa.table(
            {
                "o_custkey": b["o_custkey"],
                "cents": pa.array(
                    cents(b["o_totalprice"])
                ),
            }
        ),
        batch_format="pyarrow",
    )
    customer = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    joined = bucketed_hash_join(
        orders, customer, left_on="o_custkey", right_on="c_custkey"
    )

    nation = pd.read_parquet(
        f"{sf_dir}/nation.parquet",
        columns=["n_nationkey", "n_name", "n_regionkey"],
    )
    region = pd.read_parquet(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    )
    dim = (
        nation.merge(region, left_on="n_regionkey", right_on="r_regionkey")
        .set_index("n_nationkey")[["n_name", "r_name"]]
    )
    dim_ref = ray.put(dim)

    def enrich_and_count(batch: pa.Table) -> pa.Table:
        looked = BroadcastLookup(dim_ref, on="c_nationkey")(batch)
        return group_count_batch(
            looked, ["r_name", "n_name"], {"cents": "revenue_cents"}
        )

    return (
        joined.map_batches(enrich_and_count, batch_format="pyarrow")
        .groupby(["r_name", "n_name"])
        .aggregate(
            Sum(on="revenue_cents", alias_name="revenue_cents"),
            Sum(on="cnt", alias_name="n_orders"),
        )
    )


# ---------------------------------------------------------------------------
# Text normalization — the cleanup pass upstream corpora run before
# hashing/dedup: collapse whitespace runs (which the reference's
# single-space tokenizer surfaces as EMPTY tokens) into single spaces,
# and report how many empties were dropped. Normalized text is what the
# exact-dedup and segment-dedup keys would hash in a production corpus.


@register(
    "doc_normalize",
    oracle=f"""
    SELECT doc_id,
           array_to_string(
               list_filter({_SQL_TOKENS}, x -> x <> ''), ' '
           ) AS norm_text,
           CAST(len({_SQL_TOKENS})
                - len(list_filter({_SQL_TOKENS}, x -> x <> '')) AS BIGINT)
               AS n_empty
    FROM documents
    """,
)
def doc_normalize(sf_dir: str):
    """Vectorized: tokenize (list array), mask out empty tokens on the
    FLAT buffer, rebuild per-row offsets with a cumsum, one binary_join.
    No Python per row; null texts stay null (SQL's string_split(NULL)
    row-drop is mirrored by the filter-side contract of downstream ops —
    here nulls survive as null norm_text with n_empty null, exactly what
    the SQL lambda yields)."""
    import ray.data

    from sciscraper_ray.kernels.tokenize import tokenize_column

    def normalize(batch: pa.Table) -> pa.Table:
        toks = tokenize_column(batch["text"]).combine_chunks()
        offs = np.asarray(toks.offsets).astype(np.int64)
        flat = toks.values
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        kept_flat = flat.filter(pa.array(keep))
        kept_cum = np.concatenate(([0], np.cumsum(keep)))
        new_offsets = kept_cum[offs]
        n = offs[1:] - offs[:-1]
        n_kept = new_offsets[1:] - new_offsets[:-1]
        valid = batch["text"].is_valid().to_numpy(zero_copy_only=False)
        lst = pa.ListArray.from_arrays(
            pa.array(new_offsets.astype(np.int32), pa.int32()),
            kept_flat,
        )
        norm = pc.binary_join(lst, " ")
        n_empty = (n - n_kept).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "norm_text": pc.if_else(
                    pa.array(valid), norm, pa.scalar(None, pa.string())
                ),
                "n_empty": pa.array(n_empty, pa.int64(), mask=~valid),
            }
        )

    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(normalize, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# GROUPED HyperLogLog — the per-key form of the sketch (distinct users
# per event type): what actually runs at 100 TB, where one register
# table per group replaces an exact per-group distinct. The register
# recomputation oracle generalizes the global one with the key carried.


@register(
    "event_type_hll_users",
    oracle=f"""
    WITH h AS (
        SELECT event_type,
               {md5_hex15_sql("CAST(user_id AS VARCHAR)")} AS hv
        FROM events WHERE user_id IS NOT NULL
    ), r AS (
        SELECT event_type, hv % 64 AS bucket,
               CASE WHEN hv // 64 = 0 THEN 55
                    ELSE 54 - length(bin(hv // 64)) + 1 END AS rho
        FROM h
    )
    SELECT event_type, bucket, max(rho) AS max_rho
    FROM r GROUP BY event_type, bucket
    """,
)
def event_type_hll_users(sf_dir: str):
    """Per-group HLL registers: the vectorized grouped partial (one md5
    digest-join parse + one np.maximum.at scatter per batch, <= |groups|
    x 64 rows out) then a single groupby Max — per group the driver-side
    estimate reads 64 rows no matter the cardinality. Register-exact
    against the SQL rebuild; estimate accuracy is pinned in
    tests/test_sketch.py."""
    import ray.data
    from ray.data.aggregate import Max

    from sciscraper_ray.stages.sketch import hll_grouped_partial_batch

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )
    return (
        ds.map_batches(
            lambda b: hll_grouped_partial_batch(b, "event_type", "user_id"),
            batch_format="pyarrow",
        )
        .groupby(["event_type", "bucket"])
        .aggregate(Max(on="rho", alias_name="max_rho"))
    )


# ---------------------------------------------------------------------------
# Embedding int8 quantization — the serving/ANN compression step (per-
# vector absmax scale, symmetric int8). Quantized values are defined via
# trunc(x * 127 / absmax): every operation is the same double arithmetic
# on both engines and trunc has no tie cases, so the long-form output is
# hash-exact. Emitted long (vec_id, i, q) — a list column would compare
# as opaque reprs; long form lets the oracle check every element.


@register(
    "embedding_quantize",
    oracle=f"""
    WITH e AS (
        SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings
        WHERE vec_id % 50 = 0
    ), m AS (
        SELECT vec_id, v, list_max(list_transform(v, x -> abs(x))) AS s
        FROM e
    ), x AS (
        SELECT vec_id, v, s, unnest(range(len(v))) AS i FROM m
    )
    SELECT vec_id, CAST(i AS BIGINT) AS i,
           CAST(CASE WHEN s = 0 THEN 0
                     ELSE trunc(v[i + 1] * 127 / s) END AS BIGINT) AS q
    FROM x
    """,
)
def embedding_quantize(sf_dir: str):
    """Symmetric absmax int8 quantization over a deterministic 1-in-50
    vector sample (the long-form output is 64 rows per vector; sampling
    keeps the gate compare proportionate while the kernel itself is a
    full zero-copy batch op). One flatten-reshape matmul-free pass: scale
    = absmax per row, q = trunc(x * 127 / scale), zero vectors quantize
    to zeros."""
    import ray.data

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )

    def quantize(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        keep = ids % 50 == 0
        if not keep.any():
            e = pa.array([], pa.int64())
            return pa.table({"vec_id": e, "i": e, "q": e})
        ids = ids[keep]
        emb = batch["embedding"].combine_chunks() if isinstance(
            batch["embedding"], pa.ChunkedArray
        ) else batch["embedding"]
        mat = np.asarray(emb.values).reshape(len(batch), -1)[keep].astype(
            np.float64
        )
        s = np.abs(mat).max(axis=1, keepdims=True)
        q = np.where(s == 0, 0.0, np.trunc(mat * 127 / np.where(s == 0, 1, s)))
        n, d = q.shape
        return pa.table(
            {
                "vec_id": pa.array(np.repeat(ids, d)),
                "i": pa.array(np.tile(np.arange(d, dtype=np.int64), n)),
                "q": pa.array(q.reshape(-1).astype(np.int64)),
            }
        )

    return ds.map_batches(quantize, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# JSONL source/sink round trip — S-tier source-format coverage beyond
# parquet/CSV/txt/binary dirs: write the table as line-delimited JSON,
# read it back with ray.data.read_json, and prove nothing was lost or
# retyped (the gate compares values AND dtypes against the parquet
# original).


@register(
    "jsonl_roundtrip",
    oracle="SELECT doc_id, lang, n_chars FROM documents",
)
def jsonl_roundtrip(sf_dir: str):
    """documents -> JSONL shards (one file per block, the resumable
    layout) -> read_json -> project. Text columns stay out of the round
    trip on purpose: JSON re-escaping is the classic silent-corruption
    spot, so the covered contract is the typed scalar columns; payload
    text rides parquet/binary in this engine."""
    import tempfile

    import ray.data

    with tempfile.TemporaryDirectory(prefix="jsonl_") as out_dir:
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
        ).write_json(out_dir)
        return ray.data.read_json(out_dir).select_columns(
            ["doc_id", "lang", "n_chars"]
        ).materialize()


# ---------------------------------------------------------------------------
# Event debounce — streaming retry suppression: drop an event when the
# previous event of the SAME (user, type) lies within the debounce
# window (events are time-ordered, so "any prior within T" reduces to
# the adjacent gap — the lag-window form both engines share).

_DEBOUNCE_S = 7200  # 2 h: the synthetic stream's same-(user,type)
# gaps start at ~525 s, so a sub-10th-percentile window genuinely fires


@register(
    "events_debounce",
    oracle=f"""
    SELECT event_id, user_id, event_type, ts FROM (
        SELECT event_id, user_id, event_type, ts,
               lag(ts) OVER (
                   PARTITION BY user_id, event_type ORDER BY ts, event_id
               ) AS prev_ts
        FROM events
    ) WHERE prev_ts IS NULL
          OR ts - prev_ts > INTERVAL {_DEBOUNCE_S} SECOND
    """,
)
def events_debounce(sf_dir: str):
    """ONE shuffle on ``bucket = user_id % B`` through ``bucketed_window``
    (group count O(buckets), not O(users) — VERDICT r3 item 4); inside a
    bucket, one lexsort by (user, type, ts, event_id) and a shifted
    compare: keep a row iff it starts a (user, type) segment or its
    adjacent same-segment gap exceeds the window. The oracle's lag() is
    over ALL partition rows (not survivors), so the adjacent gap is the
    exact semantics. Same partitioning contract as the sessionizer: one
    bucket fits a worker."""
    import pandas as pd

    import ray.data

    from sciscraper_ray.stages.window import bucketed_window

    gap_us = _DEBOUNCE_S * 1_000_000

    def debounce(g: pd.DataFrame) -> pd.DataFrame:
        user = g["user_id"].to_numpy()
        etype = g["event_type"].to_numpy()
        ts_raw = g["ts"].to_numpy()
        ts = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        eid = g["event_id"].to_numpy()
        order = np.lexsort((eid, ts, etype, user))
        user_s, etype_s, ts_s = user[order], etype[order], ts[order]
        keep = np.ones(len(order), dtype=bool)
        if len(order) > 1:
            same = (user_s[1:] == user_s[:-1]) & (etype_s[1:] == etype_s[:-1])
            close = (ts_s[1:] - ts_s[:-1]) <= gap_us
            keep[1:] = ~(same & close)
        return pd.DataFrame(
            {
                "event_id": eid[order][keep],
                "user_id": user_s[keep],
                "event_type": etype_s[keep],
                "ts": ts_raw[order][keep],
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type", "ts"],
    )
    return bucketed_window(ds, debounce, key="user_id")


# ---------------------------------------------------------------------------
# Hive-partitioned sink + pruned read-back — the "resumable output"
# contract as an operator: write documents PARTITIONED BY lang (one
# directory per key, the layout a failed run resumes by skipping
# finished partitions), then answer a per-lang count by reading back
# ONLY that partition's directory. The oracle is the plain aggregate, so
# any row lost or misrouted by the partitioned writer breaks the hash.


@register(
    "lang_partitioned_write",
    oracle="""
    SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
           CAST(sum(n_chars) AS BIGINT) AS total_chars
    FROM documents GROUP BY lang
    """,
)
def lang_partitioned_write(sf_dir: str):
    """write_parquet(partition_cols=['lang']) -> one hive directory per
    language; each partition is then read back independently (a pruned
    read that never touches sibling partitions — the reader lists
    lang=<v>/ only) and reduced to (lang, count, char sum). Partition
    discovery comes from the directory listing, not from re-scanning
    data."""
    import os
    import tempfile

    import pandas as pd

    import ray.data

    with tempfile.TemporaryDirectory(prefix="langpart_") as out_dir:
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
        ).write_parquet(out_dir, partition_cols=["lang"])

        rows = []
        for entry in sorted(os.listdir(out_dir)):
            if not entry.startswith("lang="):
                continue
            lang = entry.split("=", 1)[1]
            part = ray.data.read_parquet(os.path.join(out_dir, entry))
            agg = part.map_batches(
                lambda b: pa.table(
                    {
                        "n_docs": pa.array([len(b)], pa.int64()),
                        "total_chars": pa.array(
                            [int(b["n_chars"].to_numpy(zero_copy_only=False).sum())],
                            pa.int64(),
                        ),
                    }
                ),
                batch_format="pyarrow",
            ).to_pandas()  # bounded: one scalar row per block of one partition
            rows.append(
                {
                    "lang": lang,
                    "n_docs": int(agg["n_docs"].sum()),
                    "total_chars": int(agg["total_chars"].sum()),
                }
            )
        return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# Storage-bucketed shuffle-free join — the warehouse bucketing pattern
# (Hive bucketed tables / Iceberg bucket transforms): both sides are
# written ONCE partitioned by the same key-hash bucket, and every later
# join reads matching bucket directories pairwise with ZERO exchange.
# At 100 TB you pay the bucketing write once and join forever without an
# all-to-all; here the whole cycle (bucketed write -> per-bucket joins
# -> aggregate) runs inside one query so the oracle checks it end to end.

_STORAGE_BUCKETS = 8


@register(
    "bucketed_storage_join",
    oracle=f"""
    SELECT o_orderpriority,
           CAST(count(*) AS BIGINT) AS n_orders,
           CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
               AS revenue_cents
    FROM orders JOIN customer ON o_custkey = c_custkey
    WHERE c_mktsegment = 'MACHINERY'
    GROUP BY o_orderpriority
    """,
)
def bucketed_storage_join(sf_dir: str):
    """orders ⋈ customer with no runtime shuffle: both sides get bucket =
    md5_mod(custkey, {_STORAGE_BUCKETS}) and are written hive-partitioned
    by it; one Ray task per bucket then joins exactly its two directories
    (hash partitioning is key-complete per bucket) and emits aggregate
    partials; ray.data.from_arrow_refs turns the per-bucket results back
    into a Dataset for the final tiny groupby. Money in integer cents."""
    import os
    import tempfile

    import pandas as pd

    import ray
    import ray.data
    from ray.data.aggregate import Sum

    def add_bucket(col: str):
        def fn(batch: pa.Table) -> pa.Table:
            h = md5_hex15(map(str, batch[col].to_pylist()))
            return batch.append_column(
                "bucket", pa.array(h % _STORAGE_BUCKETS)
            )

        return fn

    with tempfile.TemporaryDirectory(prefix="bucketjoin_") as base:
        o_dir, c_dir = os.path.join(base, "orders"), os.path.join(base, "cust")
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_custkey", "o_orderpriority", "o_totalprice"],
        ).map_batches(add_bucket("o_custkey"), batch_format="pyarrow").write_parquet(
            o_dir, partition_cols=["bucket"]
        )
        ray.data.read_parquet(
            f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
        ).map_batches(add_bucket("c_custkey"), batch_format="pyarrow").write_parquet(
            c_dir, partition_cols=["bucket"]
        )

        @ray.remote
        def join_bucket(b: int):
            import pyarrow.parquet as pq

            op = os.path.join(o_dir, f"bucket={b}")
            cp = os.path.join(c_dir, f"bucket={b}")
            if not os.path.isdir(op) or not os.path.isdir(cp):
                return pa.table(
                    {
                        "o_orderpriority": pa.array([], pa.string()),
                        "n_orders": pa.array([], pa.int64()),
                        "revenue_cents": pa.array([], pa.int64()),
                    }
                )
            orders = pq.read_table(op).to_pandas()  # bounded: one hash bucket (worker task)
            cust = pq.read_table(cp).to_pandas()  # bounded: one hash bucket (worker task)
            cust = cust[cust["c_mktsegment"] == "MACHINERY"]
            j = orders.merge(
                cust, left_on="o_custkey", right_on="c_custkey", how="inner"
            )
            j["cents"] = cents(j["o_totalprice"])
            agg = (
                j.groupby("o_orderpriority")
                .agg(n_orders=("cents", "size"), revenue_cents=("cents", "sum"))
                .reset_index()
            )
            return pa.Table.from_pandas(
                agg.astype({"n_orders": "int64", "revenue_cents": "int64"}),
                preserve_index=False,
            )

        refs = [join_bucket.remote(b) for b in range(_STORAGE_BUCKETS)]
        parts = ray.data.from_arrow_refs(refs)
        return parts.groupby("o_orderpriority").aggregate(
            Sum(on="n_orders", alias_name="n_orders"),
            Sum(on="revenue_cents", alias_name="revenue_cents"),
        ).materialize()


# ---------------------------------------------------------------------------
# CDC merge (MERGE INTO): apply a change batch — updates + tombstone
# deletes — onto a base table, keeping the highest version per key and
# dropping deleted keys. The lakehouse upsert primitive, expressed as
# the shared winner filter (key = doc_id, winner = max version) so the
# change stream never forces a payload shuffle.


@register(
    "cdc_merge",
    oracle="""
    SELECT doc_id,
           CAST(CASE WHEN doc_id % 7 = 0 THEN 1 ELSE 0 END AS BIGINT)
               AS version,
           CASE WHEN doc_id % 7 = 0 THEN text || ' v2' ELSE text END AS text
    FROM documents
    WHERE doc_id % 21 <> 0
    """,
)
def cdc_merge(sf_dir: str):
    """Base = documents at version 0; delta = every 7th doc updated to
    version 1 (text + ' v2'), every 21st additionally tombstoned. Merge =
    union -> winner_filter on (doc_id, max version) -> drop tombstones.
    Only (key, version) pairs enter the key pass; the text payload
    streams through the Arrow filter untouched."""
    import ray.data

    from sciscraper_ray.pipelines.winner import WinnerSpec, winner_filter

    base = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(
        lambda b: b.append_column(
            "version", pa.array(np.zeros(len(b), np.int64))
        ).append_column("deleted", pa.array(np.zeros(len(b), bool))),
        batch_format="pyarrow",
    )

    def make_delta(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        upd = ids % 7 == 0
        t = batch.filter(pa.array(upd))
        uids = t["doc_id"].to_numpy(zero_copy_only=False)
        new_text = pc.binary_join_element_wise(
            t["text"].combine_chunks()
            if isinstance(t["text"], pa.ChunkedArray)
            else t["text"],
            pa.scalar(" v2"),
            "",
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "text": new_text,
                "version": pa.array(np.ones(len(t), np.int64)),
                "deleted": pa.array(uids % 21 == 0),
            }
        )

    delta = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(make_delta, batch_format="pyarrow")

    merged = winner_filter(
        base.union(delta).materialize(),  # winner_filter streams twice
        WinnerSpec(
            keys=lambda b: (
                b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64),
                np.zeros(b.num_rows, np.int64),
                None,
            ),
            value=lambda b: b["version"]
            .to_numpy(zero_copy_only=False)
            .astype(np.int64),
            np_reducer=np.maximum,
            agg_name="max",
            what="cdc_merge",
        ),
    )
    return merged.map_batches(
        lambda b: b.filter(pc.equal(b["deleted"], False)).select(
            ["doc_id", "version", "text"]
        ),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# Watermark accounting — the streaming-completeness primitive: with the
# watermark at max(event time) - 1 h, every hourly window whose end is
# at or before the watermark is FINAL (safe to emit downstream); later
# windows are still provisional. Batch-emulated here, but the emitted
# (window, count, is_final) contract is exactly what an incremental
# consumer checkpoints on.

_WATERMARK_LAG_US = 3_600_000_000  # 1 h


@register(
    "events_watermark",
    oracle=f"""
    WITH w AS (
        SELECT max(epoch_us(ts)) - {_WATERMARK_LAG_US} AS mark FROM events
    )
    SELECT epoch_us(ts) // 3600000000 AS hour,
           CAST(count(*) AS BIGINT) AS n_events,
           CAST(CASE WHEN (epoch_us(ts) // 3600000000 + 1) * 3600000000
                          <= (SELECT mark FROM w)
                THEN 1 ELSE 0 END AS BIGINT) AS is_final
    FROM events GROUP BY hour
    """,
)
def events_watermark(sf_dir: str):
    """Hourly counts tagged final/provisional against the stream's
    watermark: one tiny Max aggregate fixes the mark, then the usual
    composite-int64 partial counts; the final tag is pure arithmetic on
    the window boundary. Integer microseconds end to end."""
    import ray.data
    from ray.data.aggregate import Max, Sum

    us_hour = 3_600_000_000

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])

    def to_us(batch: pa.Table) -> pa.Table:
        return pa.table({"us": batch["ts"].cast(pa.int64())})

    us_ds = ds.map_batches(to_us, batch_format="pyarrow").materialize()
    mark = (
        us_ds.aggregate(Max(on="us", alias_name="m"))["m"]
        - _WATERMARK_LAG_US
    )

    def partial(batch: pa.Table) -> pa.Table:
        us = batch["us"].to_numpy(zero_copy_only=False)
        hours, cnt = np.unique(us // us_hour, return_counts=True)
        return pa.table(
            {
                "hour": pa.array(hours.astype(np.int64)),
                "n_events": pa.array(cnt.astype(np.int64)),
            }
        )

    agg = (
        us_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("hour")
        .aggregate(Sum(on="n_events", alias_name="n_events"))
    )

    def tag(batch: pa.Table) -> pa.Table:
        h = batch["hour"].to_numpy(zero_copy_only=False)
        final = ((h + 1) * us_hour <= mark).astype(np.int64)
        return batch.append_column("is_final", pa.array(final))

    return agg.map_batches(tag, batch_format="pyarrow")




# ---------------------------------------------------------------------------
# DSIR-style importance weights (Xie et al. 2023, arXiv:2302.03169): hashed
# unigram features, per-doc log-likelihood ratio of a target distribution
# (lang='en' docs) vs the raw corpus. Companion to doc_sample_weighted,
# which consumes per-doc weights for the resampling step.
# ---------------------------------------------------------------------------

_DSIR_B = 64  # hash buckets (paper uses 10k; sized to the synthetic vocab)


def _dsir_bucket_sql() -> str:
    return f"({md5_hex15_sql('token')} % {_DSIR_B})"


@register(
    "doc_dsir_weight",
    oracle=f"""
    WITH toks AS (
        SELECT doc_id, lang, unnest({_SQL_TOKENS}) AS token FROM documents
    ), b AS (
        SELECT doc_id, lang, {_dsir_bucket_sql()} AS bucket FROM toks
    ), tgt AS (
        SELECT bucket, count(*) AS c FROM b WHERE lang = 'en' GROUP BY bucket
    ), raw AS (
        SELECT bucket, count(*) AS c FROM b GROUP BY bucket
    ), tot AS (
        SELECT (SELECT count(*) FROM b WHERE lang = 'en') AS tgt_tot,
               (SELECT count(*) FROM b) AS raw_tot
    ), lr AS (
        SELECT g.bucket,
               ln((coalesce(tgt.c, 0) + 1.0) / (tot.tgt_tot + {_DSIR_B}))
                 - ln((coalesce(raw.c, 0) + 1.0) / (tot.raw_tot + {_DSIR_B}))
                   AS w
        FROM (SELECT unnest(range({_DSIR_B})) AS bucket) g
        CROSS JOIN tot
        LEFT JOIN tgt ON tgt.bucket = g.bucket
        LEFT JOIN raw ON raw.bucket = g.bucket
    )
    SELECT b.doc_id, round(sum(lr.w), 6) AS dsir_weight
    FROM b JOIN lr ON lr.bucket = b.bucket
    GROUP BY b.doc_id
    """,
)
def doc_dsir_weight(sf_dir: str):
    """DSIR importance weights: pass 1 computes the B-bucket hashed-unigram
    histograms for the target (lang='en') and raw distributions as
    per-batch PARTIAL count vectors (B rows per batch -> driver sum; the
    exchange is B x n_batches rows, never corpus-sized), then the
    64-double log-ratio table is broadcast once via ray.put and pass 2
    scores each doc with one vectorized gather-and-reduceat per batch.
    md5 calls are amortized to UNIQUE tokens per batch (np.unique inverse
    indices re-expand), the hex15 key of the token string, so the SQL
    oracle replays the exact hash. Weight = sum over token OCCURRENCES of
    ln(p_tgt[b]) - ln(p_raw[b]) with add-1 smoothing, the paper's
    bag-of-hashed-ngrams estimator with unigram features."""
    import ray

    def _doc_buckets(batch: pa.Table):
        """tokens of each doc -> (flat bucket ids, doc boundaries, en mask)."""
        texts = batch["text"].to_pylist()
        tok_lists = [
            format_manuscript("" if t is None else t) for t in texts
        ]
        counts = np.fromiter((len(t) for t in tok_lists), np.int64, len(tok_lists))
        flat = np.array(
            [t for toks in tok_lists for t in toks], dtype=object
        )
        uniq, inv = np.unique(flat, return_inverse=True)
        ub = md5_hex15(uniq) % _DSIR_B
        return ub[inv], counts

    def partials(batch: pa.Table) -> pa.Table:
        buckets, counts = _doc_buckets(batch)
        en = np.repeat(
            pc.equal(batch["lang"], "en").to_numpy(zero_copy_only=False), counts
        )
        raw_c = np.bincount(buckets, minlength=_DSIR_B)
        tgt_c = np.bincount(buckets[en], minlength=_DSIR_B)
        return pa.table(
            {
                "bucket": pa.array(np.arange(_DSIR_B, dtype=np.int64)),
                "tgt": pa.array(tgt_c.astype(np.int64)),
                "raw": pa.array(raw_c.astype(np.int64)),
            }
        )

    hist = (
        _docs(sf_dir, columns=("doc_id", "text", "lang"))
        .map_batches(partials, batch_format="pyarrow")
        .to_pandas()  # bounded: _DSIR_B rows per input batch
        .groupby("bucket", as_index=False)
        .sum()
    )
    tgt = np.zeros(_DSIR_B, np.float64)
    raw = np.zeros(_DSIR_B, np.float64)
    tgt[hist["bucket"].to_numpy()] = hist["tgt"].to_numpy()
    raw[hist["bucket"].to_numpy()] = hist["raw"].to_numpy()
    lr = np.log((tgt + 1.0) / (tgt.sum() + _DSIR_B)) - np.log(
        (raw + 1.0) / (raw.sum() + _DSIR_B)
    )
    lr_ref = ray.put(lr)

    def score(batch: pa.Table) -> pa.Table:
        table = ray.get(lr_ref)
        buckets, counts = _doc_buckets(batch)
        ends = np.cumsum(counts)
        starts = np.concatenate(([0], ends[:-1]))
        w = np.add.reduceat(table[buckets], starts) if len(buckets) else []
        # reduceat misbehaves on empty segments; token lists are never
        # empty ('' splits to ['']), so starts are strictly increasing.
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "dsir_weight": pa.array(np.round(w, 6), pa.float64()),
            }
        )

    return _docs(sf_dir, columns=("doc_id", "text", "lang")).map_batches(
        score, batch_format="pyarrow"
    )


_SHUF_SHARDS = 8


@register(
    "doc_shuffle_deterministic",
    oracle=f"""
    WITH k AS (
        SELECT doc_id,
               {md5_hex15_sql("CAST(doc_id AS VARCHAR)")} AS hkey
        FROM documents
    )
    SELECT doc_id,
           CAST(hkey % {_SHUF_SHARDS} AS INTEGER) AS shard,
           CAST(row_number() OVER (
               PARTITION BY hkey % {_SHUF_SHARDS}
               ORDER BY hkey, doc_id
           ) - 1 AS BIGINT) AS pos
    FROM k
    """,
)
def doc_shuffle_deterministic(sf_dir: str):
    """Reproducible global shuffle for training order: every doc gets a
    content-stable 60-bit md5 key, a shard (key % S — the file a packer
    would write), and its position within the shard (rank by key). Unlike
    random_shuffle this is identical across runs, cluster sizes, and
    partitionings — the property epoch-reshuffle + checkpoint-resume
    pipelines actually need. No global sort: ranking happens inside the
    S shard groups (group count = shard count, bounded; within a shard
    one vectorized argsort), so the only exchange is the S-way groupby.
    At real scale S ~ total/target-file-size and the per-shard sort is
    the per-output-file sort the writer does anyway."""

    def keyed(batch: pa.Table) -> pa.Table:
        hk = md5_hex15(map(str, batch["doc_id"].to_pylist()))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "hkey": pa.array(hk),
                "shard": pa.array((hk % _SHUF_SHARDS).astype(np.int32)),
            }
        )

    def rank(group):
        import pandas as pd

        g = group.sort_values(["hkey", "doc_id"]).reset_index(drop=True)
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"],
                "shard": g["shard"],
                "pos": np.arange(len(g), dtype=np.int64),
            }
        )

    return (
        _docs(sf_dir, columns=("doc_id",))
        .map_batches(keyed, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(rank, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# Fused quality-filter chain (FineWeb / RefinedWeb pipeline shape): the
# production corpus gates — lang-ID, Gopher token-count / word-length /
# alpha-ratio / stopword rules, bigram-repetition mass — computed in ONE
# map_batches pass over the text (one tokenize, shared flat-token arrays)
# instead of five separate full-corpus passes, with first-failing-reason
# attribution per document. Each signal reuses the exact contract its
# standalone query pins (doc_lang_id, doc_gopher_filter, doc_repetition),
# so the chain is verifiable against their composition.


def _filter_chain_reason_sql() -> str:
    from sciscraper_ray.stages.textstats import LANG_PROFILES

    from sciscraper_ray.words import sql_in_list

    langs = sorted(LANG_PROFILES)
    counts = ",\n".join(
        f"sum(CASE WHEN token IN {sql_in_list(LANG_PROFILES[lang])} "
        f"THEN 1 ELSE 0 END) AS c_{lang}"
        for lang in langs
    )
    pick = "CASE "
    for lang in langs:
        cond = f"c_{lang} > 0"
        for o in langs:
            if o < lang:
                cond += f" AND c_{lang} > c_{o}"
            elif o > lang:
                cond += f" AND c_{lang} >= c_{o}"
        pick += f"WHEN {cond} THEN '{lang}' "
    pick += "ELSE 'und' END"
    return counts, pick


_FC_COUNTS, _FC_PICK = _filter_chain_reason_sql()


@register(
    "doc_filter_chain",
    oracle=f"""
    WITH toks AS (
        SELECT doc_id, unnest({_SQL_TOKENS}) AS token FROM documents
    ), m AS (
        SELECT doc_id,
               CAST(count(*) AS BIGINT) AS n_words,
               CAST(sum(length(token)) AS BIGINT) AS sum_chars,
               CAST(sum(CASE WHEN token IN {_GOPHER_STOPS!r} THEN 1 ELSE 0 END)
                    AS BIGINT) AS stop_hits,
               CAST(sum(CASE WHEN regexp_matches(token, '[a-z]') THEN 1 ELSE 0 END)
                    AS BIGINT) AS alpha_words,
               {_FC_COUNTS}
        FROM toks GROUP BY doc_id
    ), d AS (
        SELECT doc_id, {_SQL_TOKENS} AS tl, len({_SQL_TOKENS}) AS n
        FROM documents
    ), w AS (
        SELECT doc_id, unnest(range(n - 1)) AS k, tl FROM d WHERE n >= 2
    ), bg AS (
        SELECT doc_id, array_to_string(list_slice(tl, k + 1, k + 2), ' ') AS b
        FROM w
    ), per AS (
        SELECT doc_id, b, count(*) AS cnt FROM bg GROUP BY doc_id, b
    ), rep AS (
        SELECT doc_id,
               CAST(sum(cnt) AS BIGINT) AS n_bigrams,
               CAST(coalesce(sum(cnt) FILTER (cnt > 1), 0) AS BIGINT)
                   AS n_repeated
        FROM per GROUP BY doc_id
    )
    SELECT m.doc_id,
           CASE
               WHEN ({_FC_PICK}) = 'und' THEN 'lang'
               WHEN m.n_words < 20 OR m.n_words > 80 THEN 'n_words'
               WHEN m.sum_chars < 4 * m.n_words
                 OR m.sum_chars > 5 * m.n_words THEN 'mean_word_len'
               WHEN 5 * m.alpha_words < 4 * m.n_words THEN 'alpha_ratio'
               WHEN m.stop_hits < 2 THEN 'stopwords'
               WHEN coalesce(rep.n_repeated, 0) * 5
                    >= coalesce(rep.n_bigrams, 0) THEN 'repetition'
               ELSE 'pass'
           END AS reason,
           CASE
               WHEN ({_FC_PICK}) <> 'und'
                AND m.n_words BETWEEN 20 AND 80
                AND m.sum_chars BETWEEN 4 * m.n_words AND 5 * m.n_words
                AND 5 * m.alpha_words >= 4 * m.n_words
                AND m.stop_hits >= 2
                AND coalesce(rep.n_repeated, 0) * 5 < coalesce(rep.n_bigrams, 0)
               THEN TRUE ELSE FALSE
           END AS keep
    FROM m LEFT JOIN rep USING (doc_id)
    """,
)
def doc_filter_chain(sf_dir: str):
    """One fused pass, five production gates: at 100 TB the difference
    between this and running doc_lang_id + doc_gopher_filter +
    doc_repetition separately is 3x the read + 3x the tokenize — here the
    text is read once, tokenized once, and every signal (lang-profile
    hits, Gopher integer rules, bigram repetition mass) is computed from
    the same flattened token arrays. Emits first-failing-reason
    attribution ('lang' -> 'n_words' -> 'mean_word_len' -> 'alpha_ratio'
    -> 'stopwords' -> 'repetition' -> 'pass'), the per-stage audit
    column every corpus-curation run reports. Embarrassingly parallel,
    zero shuffle; integer-only predicates so the oracle hash is
    float-free."""
    import ray.data

    from sciscraper_ray.kernels.tokenize import tokenize_column
    from sciscraper_ray.stages.textstats import LANG_PROFILES

    from sciscraper_ray.pipelines.queries.dedup import _ngram_positions

    stops = list(_GOPHER_STOPS)
    langs = sorted(LANG_PROFILES)

    def chain(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch["text"]))
        if not batch.num_rows:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "reason": pa.array([], pa.string()),
                    "keep": pa.array([], pa.bool_()),
                }
            )
        toks = tokenize_column(batch["text"]).combine_chunks()
        offs = np.asarray(toks.offsets).astype(np.int64)
        starts = offs[:-1]
        flat = toks.values
        n = (offs[1:] - starts).astype(np.int64)
        lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
        alpha = (
            pc.match_substring_regex(flat, "[a-z]")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        stop = (
            pc.is_in(flat, value_set=pa.array(stops))
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        sum_chars = np.add.reduceat(lens, starts)
        alpha_w = np.add.reduceat(alpha, starts)
        stop_h = np.add.reduceat(stop, starts)
        # lang profile hits over the SAME flat token array
        nrows = batch.num_rows
        scores = np.zeros((len(langs), nrows), np.int64)
        par = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        for li, lang in enumerate(langs):
            vocab = pa.array(sorted(LANG_PROFILES[lang]), type=pa.string())
            hit = pc.is_in(flat, value_set=vocab).to_numpy(zero_copy_only=False)
            np.add.at(scores[li], par[hit], 1)
        lang_und = scores.max(axis=0) == 0
        # bigram repetition mass (doc_repetition contract)
        total = np.zeros(nrows, dtype=np.int64)
        rep = np.zeros(nrows, dtype=np.int64)
        pos, bg = _ngram_positions(batch, 2)
        if len(pos):
            pairs = pa.table({"p": pa.array(pos), "bg": bg})
            per = pairs.group_by(["p", "bg"]).aggregate([("bg", "count")])
            pv = per["p"].to_numpy()
            cnt = per["bg_count"].to_numpy()
            np.add.at(total, pv, cnt)
            dup = cnt > 1
            np.add.at(rep, pv[dup], cnt[dup])
        conds = [
            lang_und,
            (n < 20) | (n > 80),
            (sum_chars < 4 * n) | (sum_chars > 5 * n),
            5 * alpha_w < 4 * n,
            stop_h < 2,
            rep * 5 >= total,
        ]
        names = [
            "lang",
            "n_words",
            "mean_word_len",
            "alpha_ratio",
            "stopwords",
            "repetition",
        ]
        reason = np.select(conds, names, default="pass")
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "reason": pa.array(reason.astype(object), pa.string()),
                "keep": pa.array(reason == "pass"),
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return ds.map_batches(chain, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# SCD2 dimension build — slowly-changing-dimension type 2 from a change
# stream: per user, consecutive runs of the same event_type collapse into
# one validity interval [valid_from, valid_to), the current state's
# valid_to is NULL, and version_seq numbers the intervals. The warehouse
# primitive that turns an event log into a point-in-time-joinable
# dimension table.


@register(
    "events_scd2",
    oracle="""
    WITH e AS (
        SELECT user_id, event_type, ts, event_id,
               lag(event_type) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id
               ) AS prev_type
        FROM events
    ), ch AS (
        SELECT user_id, event_type, ts, event_id FROM e
        WHERE prev_type IS NULL OR prev_type <> event_type
    )
    SELECT user_id, event_type AS state, ts AS valid_from,
           lead(ts) OVER (
               PARTITION BY user_id ORDER BY ts, event_id
           ) AS valid_to,
           row_number() OVER (
               PARTITION BY user_id ORDER BY ts, event_id
           ) AS version_seq
    FROM ch
    """,
)
def events_scd2(sf_dir: str):
    """SCD2 intervals on the shared ``bucketed_window`` plan: ONE shuffle
    on ``bucket = user_id % B`` (group count O(buckets), never O(users));
    inside a bucket one lexsort by (user, ts, event_id), change points
    via a shifted compare (segment start OR type != previous), valid_to
    via a forward shift of the surviving change timestamps within each
    user segment, version_seq via cumcount reset at user boundaries — all
    vectorized, zero per-user dispatch. NaT/NULL marks the open (current)
    interval on both engines."""
    import pandas as pd

    import ray.data

    from sciscraper_ray.stages.window import bucketed_window

    def scd2(g: pd.DataFrame) -> pd.DataFrame:
        user = g["user_id"].to_numpy()
        etype = g["event_type"].to_numpy()
        ts_raw = g["ts"].astype("datetime64[us]").to_numpy()
        eid = g["event_id"].to_numpy()
        order = np.lexsort((eid, ts_raw.astype("int64"), user))
        user_s, etype_s, ts_s = user[order], etype[order], ts_raw[order]
        n = len(order)
        first = np.ones(n, dtype=bool)
        if n > 1:
            same_user = user_s[1:] == user_s[:-1]
            first[1:] = ~same_user
            change = first.copy()
            change[1:] |= etype_s[1:] != etype_s[:-1]
        else:
            change = first
        cu, ce, cts = user_s[change], etype_s[change], ts_s[change]
        m = len(cu)
        valid_to = np.full(m, np.datetime64("NaT", "us"))
        if m > 1:
            nxt_same = cu[1:] == cu[:-1]
            valid_to[:-1][nxt_same] = cts[1:][nxt_same]
        # version_seq: cumcount within user over the change rows
        seg_start = np.ones(m, dtype=bool)
        if m > 1:
            seg_start[1:] = cu[1:] != cu[:-1]
        idx = np.arange(m, dtype=np.int64)
        version_seq = idx - np.maximum.accumulate(np.where(seg_start, idx, 0)) + 1
        return pd.DataFrame(
            {
                "user_id": cu,
                "state": ce,
                "valid_from": cts,
                "valid_to": valid_to,
                "version_seq": version_seq,
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type", "ts"],
    )
    return bucketed_window(ds, scd2, key="user_id")


# ---------------------------------------------------------------------------
# Proportional budget allocation (largest-remainder / Hamilton method):
# given a global sampling budget, allocate per-source integer quotas
# proportional to source sizes, exactly summing to the budget. The crawl
# -scheduling / mixture-design primitive that feeds quota samplers like
# doc_mixture_quota.

_ALLOC_BUDGET = 100


@register(
    "source_budget_allocation",
    oracle=f"""
    WITH c AS (
        SELECT source, CAST(count(*) AS BIGINT) AS n_docs
        FROM documents GROUP BY source
    ), tot AS (
        SELECT sum(n_docs) AS t FROM c
    ), base AS (
        SELECT source, n_docs,
               (n_docs * {_ALLOC_BUDGET}) // t AS fl,
               (n_docs * {_ALLOC_BUDGET}) % t AS rem
        FROM c, tot
    ), ranked AS (
        SELECT source, n_docs, fl,
               row_number() OVER (ORDER BY rem DESC, source ASC) AS rk,
               {_ALLOC_BUDGET} - sum(fl) OVER () AS leftover
        FROM base
    )
    SELECT source, n_docs,
           CAST(fl + CASE WHEN rk <= leftover THEN 1 ELSE 0 END AS BIGINT)
               AS quota
    FROM ranked
    """,
)
def source_budget_allocation(sf_dir: str):
    """Integer-exact proportional quotas: one count-by-source aggregate
    (pre-aggregated per batch by Ray's Count, exchange is O(sources)),
    then the Hamilton largest-remainder rounding — floor shares, leftover
    seats to the largest remainders (ties to source name) — computed
    vectorized on the O(sources) allocation table, which is the correct
    place for a global argsort: quotas must sum EXACTLY to the budget, a
    property per-partition rounding cannot give. At 10^7 hosts the
    allocation table is still driver-trivial next to the corpus."""
    import ray.data
    from ray.data.aggregate import Count

    counts = (
        ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["source"])
        .groupby("source")
        .aggregate(Count(alias_name="n_docs"))
        .to_pandas()  # bounded: |sources|
        .sort_values("source")
        .reset_index(drop=True)
    )
    n = counts["n_docs"].to_numpy(np.int64)
    t = int(n.sum())
    fl = n * _ALLOC_BUDGET // t
    rem = n * _ALLOC_BUDGET % t
    leftover = _ALLOC_BUDGET - int(fl.sum())
    # rank by (rem desc, source asc); counts is source-sorted already
    rk = np.empty(len(n), np.int64)
    rk[np.lexsort((np.arange(len(n)), -rem))] = np.arange(1, len(n) + 1)
    quota = fl + (rk <= leftover)
    return pa.table(
        {
            "source": pa.array(counts["source"], pa.string()),
            "n_docs": pa.array(n, pa.int64()),
            "quota": pa.array(quota.astype(np.int64), pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# Small-file compaction — the table-maintenance job every lakehouse runs:
# a fragmented dataset (many tiny files, the natural debris of streaming
# ingestion / per-wave resumable writes) is rewritten into few
# near-target-size files. The oracle is the content aggregate, so any
# row lost or duplicated by the rewrite breaks the hash; the file-count
# reduction is asserted in-code (the oracle cannot see the filesystem).


@register(
    "small_files_compaction",
    oracle="""
    SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
           CAST(sum(n_chars) AS BIGINT) AS total_chars
    FROM documents GROUP BY lang
    """,
)
def small_files_compaction(sf_dir: str):
    """Fragment documents into 64 shard files (repartition + write — the
    ingestion-debris fixture), compact by reading the fragment directory
    and rewriting at 4 blocks, then aggregate the compacted copy. The
    compaction itself is the streaming read -> repartition -> write: no
    driver materialization, and at warehouse scale the same job runs per
    partition directory so each compaction unit is bounded. Fresh temp
    dirs per call (no cross-run cache to go stale)."""
    import tempfile

    import ray.data
    from ray.data.aggregate import Count, Sum

    with (
        tempfile.TemporaryDirectory(prefix="compact_in_") as frag_dir,
        tempfile.TemporaryDirectory(prefix="compact_out_") as out_dir,
    ):
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
        ).repartition(64).write_parquet(frag_dir)

        import os

        n_frag = len([f for f in os.listdir(frag_dir) if f.endswith(".parquet")])
        ray.data.read_parquet(frag_dir).repartition(4).write_parquet(out_dir)
        n_out = len([f for f in os.listdir(out_dir) if f.endswith(".parquet")])
        if not (n_out < n_frag):
            raise RuntimeError(f"compaction did not reduce files: {n_frag}->{n_out}")

        return (
            ray.data.read_parquet(out_dir, columns=["lang", "n_chars"])
            .groupby("lang")
            .aggregate(Count(alias_name="n_docs"), Sum(on="n_chars", alias_name="total_chars"))
            .materialize()
        )


# ---------------------------------------------------------------------------
# Robust per-user anomaly flags (median absolute deviation): an event is
# an outlier when |value - user_median| > 3 * user_MAD. Means/stds are
# skew-fragile on web-scale telemetry; MAD is the robust-stats standard.
# Both medians interpolate even counts as (a+b)/2 — identical float ops
# on both engines, so the strict-> comparison needs no rounding.


@register(
    "events_anomaly_mad",
    oracle="""
    WITH m AS (
        SELECT user_id, median(value) AS med FROM events GROUP BY user_id
    ), a AS (
        SELECT e.user_id, median(abs(e.value - m.med)) AS mad
        FROM events e JOIN m USING (user_id) GROUP BY e.user_id
    )
    SELECT e.event_id, e.user_id,
           (abs(e.value - m.med) > 3 * a.mad) AS is_outlier
    FROM events e JOIN m USING (user_id) JOIN a ON a.user_id = e.user_id
    """,
)
def events_anomaly_mad(sf_dir: str):
    """Two order statistics per user WITHOUT per-user dispatch: the
    shared bucketed_window plan (one shuffle on user_id % B), then inside
    a bucket one lexsort by (user, value) gives every user's median via
    segment-offset arithmetic, a second stable lexsort on the deviations
    gives the MAD, and the flags map back through the sort permutation —
    all vectorized across the bucket's users."""
    import pandas as pd

    import ray.data

    from sciscraper_ray.stages.window import bucketed_window

    def mad_flags(g: pd.DataFrame) -> pd.DataFrame:
        v = g["value"].to_numpy(np.float64)
        u = g["user_id"].to_numpy(np.int64)
        eid = g["event_id"].to_numpy(np.int64)
        order = np.lexsort((v, u))
        us, vs = u[order], v[order]
        new_seg = np.r_[True, us[1:] != us[:-1]]
        starts = np.nonzero(new_seg)[0]
        counts = np.diff(np.r_[starts, len(us)])
        lo = starts + (counts - 1) // 2
        hi = starts + counts // 2
        med_seg = (vs[lo] + vs[hi]) / 2
        segid = np.cumsum(new_seg) - 1
        dev = np.abs(vs - med_seg[segid])
        order2 = np.lexsort((dev, us))  # per-segment sort of deviations
        dev_s = dev[order2]
        mad_seg = (dev_s[lo] + dev_s[hi]) / 2
        return pd.DataFrame(
            {
                "event_id": eid[order],
                "user_id": us,
                "is_outlier": dev > 3 * mad_seg[segid],
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "value"]
    )
    return bucketed_window(ds, mad_flags, key="user_id")


# ---------------------------------------------------------------------------
# Per-source duplication-rate report — the curation dashboard row that
# decides which ingest feeds are worth their storage (a source shipping
# 40% exact dupes gets its crawler fixed, not more budget).
# ---------------------------------------------------------------------------


@register(
    "source_dup_rate",
    oracle="""
    SELECT source,
           count(*) AS docs,
           count(DISTINCT md5(text)) AS uniq,
           round(1.0 - count(DISTINCT md5(text)) / CAST(count(*) AS DOUBLE), 6)
               AS dup_rate
    FROM documents GROUP BY source
    """,
)
def source_dup_rate(sf_dir: str):
    """Exact-duplicate share per source: per-batch rows collapse to
    distinct (source, 128-bit content hash, partial_count) — text never
    enters the exchange — one groupby merges the hash partials (bounded
    by unique content x sources), and a second per-batch fold + tiny
    groupby yields docs/uniq per source. Same two-stage exact-distinct
    plan as events_k_anonymity; hashes ride as int64 bit-views (uint64
    groupby keys promote to float64 inside Ray's sort-aggregate)."""
    import ray.data
    from ray.data.aggregate import Sum


    ds = _docs(sf_dir, columns=("source", "text"))

    def hash_partial(b: pa.Table) -> pa.Table:
        h_hi, h_lo, _valid = md5_hash128(b["text"].to_pylist())
        t = pa.table(
            {
                "source": b["source"],
                "h_hi": pa.array(h_hi, pa.int64()),
                "h_lo": pa.array(h_lo, pa.int64()),
            }
        )
        g = t.group_by(["source", "h_hi", "h_lo"]).aggregate([("h_hi", "count")])
        return g.rename_columns(["source", "h_hi", "h_lo", "c"])

    per_hash = (
        ds.map_batches(hash_partial, batch_format="pyarrow")
        .groupby(["source", "h_hi", "h_lo"])
        .aggregate(Sum(on="c", alias_name="cnt"))
    )

    def fold(b: pa.Table) -> pa.Table:
        g = b.group_by(["source"]).aggregate(
            [("h_hi", "count"), ("cnt", "sum")]
        )
        return g.rename_columns(["source", "uniq_p", "docs_p"])

    agg = (
        per_hash.map_batches(fold, batch_format="pyarrow")
        .groupby("source")
        .aggregate(
            Sum(on="uniq_p", alias_name="uniq"),
            Sum(on="docs_p", alias_name="docs"),
        )
    )

    def finish(b: pa.Table) -> pa.Table:
        docs = b["docs"].to_numpy(zero_copy_only=False).astype(np.float64)
        uniq = b["uniq"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "source": b["source"],
                "docs": b["docs"],
                "uniq": b["uniq"],
                "dup_rate": pa.array(
                    np.round(1.0 - uniq / docs, 6), pa.float64()
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Temperature sampling (T=0.7 source re-weighting): the multinomial
# mixture weights an LLM data loader draws sources with.
# --------------------------------------------------------------------------


@register(
    "source_temperature_sampling",
    oracle=f"""
    WITH n AS (
        SELECT source,
               CAST(sum(CAST(len({_SQL_TOKENS}) AS BIGINT)) AS BIGINT)
                   AS n_tokens
        FROM documents GROUP BY source
    ), w AS (
        SELECT source, n_tokens,
               pow(CAST(n_tokens AS DOUBLE), 0.7) AS wt
        FROM n
    )
    SELECT source, n_tokens,
           round(wt / (SELECT sum(wt) FROM w), 9) AS p_sample,
           round((wt / (SELECT sum(wt) FROM w))
                 / (CAST(n_tokens AS DOUBLE)
                    / (SELECT sum(n_tokens) FROM n)), 6) AS epochs_rel
    FROM w
    """,
)
def source_temperature_sampling(sf_dir: str):
    """Temperature-0.7 source sampling weights (the unigram-mixture
    re-weighting LLM data loaders use to up-sample small sources):
    p_i ∝ n_i^0.7 over per-source token counts, plus the relative
    epoch count (p_i / natural share — how many times a source is
    re-seen per natural epoch). Token counts reduce per batch to one
    int64 per source (sources are bounded), the groupby moves only
    those partials, and the finishing arithmetic runs on the tiny
    source table mirroring the SQL's op order exactly."""
    import ray.data
    from ray.data.aggregate import Sum

    ds = _docs(sf_dir, columns=("source", "text"))

    def partial(b: pa.Table) -> pa.Table:
        trimmed = pc.ascii_trim_whitespace(b["text"])
        words = pc.add(
            pc.count_substring(trimmed, pattern=" "), 1
        ).cast(pa.int64())
        t = pa.table({"source": b["source"], "w": words})
        return (
            t.group_by("source")
            .aggregate([("w", "sum")])
            .rename_columns(["source", "w"])
        )

    per = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Sum(on="w", alias_name="n_tokens"))
        .to_pandas()  # bounded: |sources|
        .sort_values("source", kind="stable")
    )
    n = per["n_tokens"].to_numpy().astype(np.int64)
    wt = n.astype(np.float64) ** 0.7
    p = wt / wt.sum()
    epochs = p / (n.astype(np.float64) / float(n.sum()))
    return pa.table(
        {
            "source": pa.array(per["source"], pa.string()),
            "n_tokens": pa.array(n, pa.int64()),
            "p_sample": pa.array(np.round(p, 9), pa.float64()),
            "epochs_rel": pa.array(np.round(epochs, 6), pa.float64()),
        }
    )


# --------------------------------------------------------------------------
# Vocabulary coverage: share of each source's token stream covered by the
# global top-V vocabulary — the OOV-rate audit for tokenizer planning.
# --------------------------------------------------------------------------

_VOCAB_V = 100


@register(
    "source_vocab_coverage",
    oracle=f"""
    WITH toks AS (
        SELECT source, unnest({_SQL_TOKENS}) AS token FROM documents
    ), vocab AS (
        SELECT token FROM (
            SELECT token, count(*) AS c FROM toks GROUP BY token
            ORDER BY c DESC, token ASC LIMIT {_VOCAB_V}
        )
    )
    SELECT source, count(*) AS total,
           count(*) FILTER (WHERE token IN (SELECT token FROM vocab))
               AS covered,
           round(CAST(count(*) FILTER (
                     WHERE token IN (SELECT token FROM vocab))
                 AS DOUBLE) / count(*), 6) AS coverage
    FROM toks GROUP BY source
    """,
)
def source_vocab_coverage(sf_dir: str):
    """Tokenizer-planning audit: fraction of each source's token stream
    covered by the global top-{_VOCAB_V} vocabulary. Two passes, both
    vocabulary-bounded: (1) per-batch token-count partials -> groupby-Sum
    -> deterministic top-V (count desc, token asc); (2) the V-entry set
    broadcasts via ray.put and each batch reduces to per-source
    (covered, total) int partials — the final exchange is |sources|
    rows. Same Heaps'-law bound as top_tokens_global; no raw token ever
    crosses the wire twice."""
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    from sciscraper_ray.kernels.tokenize import tokenize_column

    ds = _docs(sf_dir, columns=("source", "text"))

    def count_partial(b: pa.Table) -> pa.Table:
        import pandas as pd

        toks = tokenize_column(b["text"]).combine_chunks()
        flat = pc.list_flatten(toks)
        vc = (
            pd.Series(flat.to_pylist()).value_counts().rename("c").reset_index()
        )
        vc.columns = ["token", "c"]
        return pa.Table.from_pandas(vc, preserve_index=False)

    counts = (
        ds.map_batches(count_partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum(on="c", alias_name="c"))
        .to_pandas()  # bounded: vocabulary (Heaps' law), top-V kept
        .sort_values(["c", "token"], ascending=[False, True], kind="stable")
        .head(_VOCAB_V)
    )
    vocab_ref = ray.put(pa.array(counts["token"], pa.string()))

    class Coverage:
        def __init__(self):
            self.vocab = ray.get(vocab_ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            import pandas as pd

            toks = tokenize_column(b["text"]).combine_chunks()
            flat = pc.list_flatten(toks)
            parents = pc.list_parent_indices(toks).to_numpy(
                zero_copy_only=False
            )
            src = np.asarray(b["source"].to_pylist())[parents]
            hit = pc.is_in(flat, value_set=self.vocab).to_numpy(
                zero_copy_only=False
            )
            df = pd.DataFrame({"source": src, "hit": hit.astype(np.int64)})
            g = df.groupby("source")["hit"].agg(["sum", "size"]).reset_index()
            g.columns = ["source", "covered_p", "total_p"]
            return pa.Table.from_pandas(g, preserve_index=False)

    agg = (
        ds.map_batches(Coverage, batch_format="pyarrow", concurrency=(1, 4))
        .groupby("source")
        .aggregate(
            Sum(on="covered_p", alias_name="covered"),
            Sum(on="total_p", alias_name="total"),
        )
    )

    def finish(b: pa.Table) -> pa.Table:
        cov = b["covered"].to_numpy(zero_copy_only=False).astype(np.float64)
        tot = b["total"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "source": b["source"],
                "total": b["total"],
                "covered": b["covered"],
                "coverage": pa.array(
                    np.round(cov / tot, 6), pa.float64()
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Length inequality: exact per-source Gini coefficient of document
# lengths from the (source, n_chars) histogram — no per-source sort.
# --------------------------------------------------------------------------


@register(
    "source_length_gini",
    oracle="""
    WITH r AS (
        SELECT source, n_chars,
               row_number() OVER (
                   PARTITION BY source ORDER BY n_chars) AS i,
               count(*) OVER (PARTITION BY source) AS n,
               sum(n_chars) OVER (PARTITION BY source) AS s
        FROM documents
    )
    SELECT source, CAST(max(n) AS BIGINT) AS n_docs,
           CAST(max(s) AS BIGINT) AS total_chars,
           round(CAST(sum((2 * i - n - 1) * n_chars) AS DOUBLE)
                 / (CAST(max(n) AS DOUBLE) * CAST(max(s) AS DOUBLE)), 6)
               AS gini
    FROM r GROUP BY source
    """,
)
def source_length_gini(sf_dir: str):
    """EXACT Gini coefficient of document lengths per source, computed
    from the (source, n_chars) value histogram instead of a per-source
    sort: inside a run of c equal values starting after a smaller rows,
    the rank weights sum to c*(2a + c - n) — integer-exact — so the
    whole numerator reduces over histogram cells. The one exchange is
    the histogram itself (|sources| x |distinct lengths|, tiny); the
    oracle recomputes the textbook row_number formula and both engines
    divide once at the end."""
    import ray.data
    from ray.data.aggregate import Sum

    ds = _docs(sf_dir, columns=("source", "n_chars"))

    h = (
        ds.map_batches(
            lambda b: group_count_batch(b, ["source", "n_chars"]),
            batch_format="pyarrow",
        )
        .groupby(["source", "n_chars"])
        .aggregate(Sum(on="cnt", alias_name="cnt"))
        .to_pandas()  # bounded: |sources| x |distinct lengths|
        .sort_values(["source", "n_chars"], kind="stable")
    )
    src_out, nd_out, tc_out, gini_out = [], [], [], []
    for src, g in h.groupby("source", sort=True):
        x = g["n_chars"].to_numpy(np.int64)
        c = g["cnt"].to_numpy(np.int64)
        n = int(c.sum())
        s = int((x * c).sum())
        a = np.concatenate(([0], np.cumsum(c)[:-1]))
        num = int((x * c * (2 * a + c - n)).sum())
        src_out.append(src)
        nd_out.append(n)
        tc_out.append(s)
        gini_out.append(round(float(num) / (float(n) * float(s)), 6))
    return pa.table(
        {
            "source": pa.array(src_out, pa.string()),
            "n_docs": pa.array(nd_out, pa.int64()),
            "total_chars": pa.array(tc_out, pa.int64()),
            "gini": pa.array(gini_out, pa.float64()),
        }
    )


@register(
    "doc_length_dup_crosstab",
    oracle="""
    WITH d AS (
        SELECT doc_id, n_chars,
               CAST(count(*) OVER (PARTITION BY md5(substr(text, 1, 32))) > 1
                   AS BIGINT) AS is_dup
        FROM documents
    ), b AS (
        SELECT CAST(ntile(10) OVER (ORDER BY n_chars, doc_id) AS BIGINT)
                   AS band,
               is_dup
        FROM d
    )
    SELECT band, is_dup, CAST(count(*) AS BIGINT) AS n_docs
    FROM b GROUP BY 1, 2
    """,
)
def doc_length_dup_crosstab(sf_dir: str):
    """Curation-bias audit: length-decile x exact-duplicate crosstab —
    the 'is dedup about to skew my length distribution' check run before
    committing a dedup pass (dup probability usually CORRELATES with
    length on the real web: short boilerplate dominates dup clusters).
    Deciles band n_chars with the DuckDB ntile tie rule pinned by
    (n_chars, doc_id); is_dup marks PREFIX duplicates — docs
    sharing their first 32 chars with another doc (the teaser-prefix
    signal; whole-text exact dups are absent from this fixture at small
    sf, so the prefix key is what keeps the audit non-degenerate). Plan: batches reduce to
    (doc_id, n_chars, hash-hi, hash-lo) — text never leaves the worker —
    and the doc-grain table is driver-merged under the shared row bound
    (top_suppliers_by_nation rule; past it the banding flips to the
    range-partitioner rank path and dup flags to the groupby-count
    two-pass of source_dup_rate). Output is the 10 x 2 table."""
    import ray.data

    from sciscraper_ray.pipelines.plan import driver_frame

    def partial(b: pa.Table) -> pa.Table:
        hi, lo, _ = md5_hash128(
            pc.utf8_slice_codeunits(b["text"], 0, 32).to_pylist()
        )
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_chars": b["n_chars"],
                "hi": pa.array(hi),
                "lo": pa.array(lo),
            }
        )

    df = driver_frame(
        _docs(sf_dir, columns=("doc_id", "text", "n_chars")).map_batches(
            partial, batch_format="pyarrow"
        ),
        what="doc_length_dup_crosstab",
    )
    key = list(zip(df["hi"].to_numpy(np.int64), df["lo"].to_numpy(np.int64)))
    _, inv, cnt = np.unique(key, axis=0, return_inverse=True, return_counts=True)
    is_dup = (cnt[inv] > 1).astype(np.int64)
    order = np.lexsort(
        (df["doc_id"].to_numpy(np.int64), df["n_chars"].to_numpy(np.int64))
    )
    n = len(df)
    q, rem = divmod(n, 10)
    ranks = np.arange(n)
    cut = rem * (q + 1)
    band_sorted = np.where(
        ranks < cut,
        ranks // (q + 1) + 1,
        rem + np.maximum(ranks - cut, 0) // max(q, 1) + 1,
    )
    band = np.empty(n, np.int64)
    band[order] = band_sorted
    pair = band * 2 + is_dup
    uniq, n_docs = np.unique(pair, return_counts=True)
    return pa.table(
        {
            "band": pa.array(uniq // 2, pa.int64()),
            "is_dup": pa.array(uniq % 2, pa.int64()),
            "n_docs": pa.array(n_docs.astype(np.int64)),
        }
    )


@register(
    "source_length_mannwhitney",
    oracle="""
    WITH g AS (
        SELECT CASE WHEN source = 'src0' THEN 0 ELSE 1 END AS grp,
               CAST(n_chars AS BIGINT) AS v
        FROM documents WHERE source IN ('src0', 'src1')
    ), h AS (
        SELECT grp, v, CAST(count(*) AS BIGINT) AS c FROM g GROUP BY 1, 2
    ), tot AS (
        SELECT v, CAST(sum(c) AS BIGINT) AS ct FROM h GROUP BY v
    ), cl AS (
        SELECT v, ct,
               coalesce(CAST(sum(ct) OVER (
                   ORDER BY v ROWS BETWEEN UNBOUNDED PRECEDING
                   AND 1 PRECEDING) AS BIGINT), 0) AS below
        FROM tot
    ), r1 AS (
        SELECT CAST(sum(h.c * (2 * cl.below + cl.ct + 1)) AS BIGINT)
                   AS two_r1,
               CAST(sum(h.c) AS BIGINT) AS n1
        FROM h JOIN cl ON h.v = cl.v WHERE grp = 0
    ), n2t AS (
        SELECT CAST(sum(c) AS BIGINT) AS n2 FROM h WHERE grp = 1
    )
    SELECT n1, n2, two_r1,
           two_r1 - n1 * (n1 + 1) AS two_u1,
           2 * n1 * n2 - (two_r1 - n1 * (n1 + 1)) AS two_u2
    FROM r1, n2t
    """,
)
def source_length_mannwhitney(sf_dir: str):
    """Mann-Whitney U between src0 and src1 document lengths — the
    nonparametric two-sample location test (does one source emit
    systematically longer docs), joining the robust family
    (events_ab_welch is its parametric cousin). Everything stays
    integer by the doubled-midrank identity: a value v's midrank is
    (2*count_below(v) + count_equal(v) + 1) / 2, so 2*R1 =
    sum over group-1 rows of (2*below + ties + 1) — exact with ties,
    no float ranks ever. 2*U1 = 2*R1 - n1(n1+1); U1 + U2 = n1*n2
    closes the audit. Plan: per-batch (group, length) histogram
    partials; the merged histogram is |distinct length| x 2 rows
    (value-domain bounded, like lineitem_quantiles), and the midrank
    cumulative runs on that tiny table."""
    import ray.data
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        src = b["source"].to_numpy(zero_copy_only=False)
        keep = (src == "src0") | (src == "src1")
        grp = (src[keep] == "src1").astype(np.int64)
        v = b["n_chars"].to_numpy(zero_copy_only=False)[keep].astype(np.int64)
        t = pa.table({"grp": pa.array(grp), "v": pa.array(v)})
        return group_count_batch(t, ["grp", "v"], count="c")

    h = (
        _docs(sf_dir, columns=("source", "n_chars"))
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["grp", "v"])
        .aggregate(Sum(on="c", alias_name="c"))
        .to_pandas()  # bounded: |groups| x |distinct values|
        .sort_values(["v", "grp"], ignore_index=True)
    )
    vals = np.sort(h["v"].unique())
    ct = np.zeros(len(vals), np.int64)
    for g in (0, 1):
        sub = h[h["grp"] == g]
        ct[np.searchsorted(vals, sub["v"].to_numpy(np.int64))] += (
            sub["c"].to_numpy(np.int64)
        )
    below = np.concatenate(([0], np.cumsum(ct)[:-1]))
    pos = {int(v): i for i, v in enumerate(vals)}
    g0 = h[h["grp"] == 0]
    idx = np.array([pos[int(v)] for v in g0["v"]], np.int64)
    c0 = g0["c"].to_numpy(np.int64)
    two_r1 = int((c0 * (2 * below[idx] + ct[idx] + 1)).sum())
    n1 = int(c0.sum())
    n2 = int(h.loc[h["grp"] == 1, "c"].sum())
    two_u1 = two_r1 - n1 * (n1 + 1)
    return pa.table(
        {
            "n1": pa.array([n1], pa.int64()),
            "n2": pa.array([n2], pa.int64()),
            "two_r1": pa.array([two_r1], pa.int64()),
            "two_u1": pa.array([two_u1], pa.int64()),
            "two_u2": pa.array([2 * n1 * n2 - two_u1], pa.int64()),
        }
    )


@register(
    "doc_sample_bottomk",
    oracle=f"""
    SELECT doc_id, CAST(row_number() OVER (ORDER BY h) AS BIGINT)
               AS sample_rank
    FROM (SELECT doc_id, {md5_hex15_sql("CAST(doc_id AS VARCHAR)")} AS h FROM documents)
    ORDER BY h LIMIT 100
    """,
)
def doc_sample_bottomk(sf_dir: str):
    """Exactly-k uniform corpus sample by bottom-k content-stable hash —
    the eval-set/holdout primitive the fractional samplers
    (doc_split_assign, doc_sample_stratified) can't give: EXACTLY 100
    docs, the same 100 on any cluster size, partitioning, or rerun, and
    mergeable (bottom-k of a union is bottom-k of concatenated per-batch
    bottom-k's — the KMV argument applied to sampling). Per batch at
    most k (doc_id, hash) rows survive, the driver merge handles
    batches x k rows, and sample_rank pins a total order for downstream
    pairing. At 10^12 docs nothing changes — that's the point."""
    def partial(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        hs = md5_hex15(str(int(i)) for i in ids)
        take = np.argsort(hs, kind="stable")[:100]
        return pa.table(
            {
                "doc_id": pa.array(ids[take].astype(np.int64)),
                "h": pa.array(hs[take]),
            }
        )

    merged = (
        _docs(sf_dir, columns=("doc_id",))
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()  # bounded: <=100 bottom-k rows per block
        .sort_values("h", ignore_index=True)
        .head(100)
    )
    return pa.table(
        {
            "doc_id": pa.array(merged["doc_id"].to_numpy(np.int64)),
            "sample_rank": pa.array(
                np.arange(1, len(merged) + 1, dtype=np.int64)
            ),
        }
    )


@register(
    "doc_bootstrap_mean_ci",
    oracle=f"""
    WITH n AS (SELECT count(*) AS c FROM documents),
    slots AS (
        SELECT b, i
        FROM unnest(range(16)) AS t(b), unnest(range(2000)) AS u(i)
    ),
    draw AS (
        SELECT b,
               ({md5_hex15_sql("CAST(b AS VARCHAR) || ':' || CAST(i AS VARCHAR)")}
                % (SELECT c FROM n)) AS did
        FROM slots
    )
    SELECT b, count(*) AS m, CAST(sum(d.n_chars) AS BIGINT) AS sum_chars
    FROM draw JOIN documents d ON d.doc_id = draw.did
    GROUP BY b
    """,
)
def doc_bootstrap_mean_ci(sf_dir: str, n_boot: int = 16, m: int = 2000):
    """Deterministic bootstrap for the corpus mean document length: 16
    resamples of 2,000 draws WITH replacement, each draw addressed by a
    content-stable hash (slot (b,i) -> doc hex15(md5("b:i")) % n) so
    every cluster size, partitioning, and rerun resamples the SAME
    rows — the reproducible-CI primitive (percentile CI over the per-
    resample means) that np.random-based bootstraps can't give a
    distributed engine. Plan: the slot table is tiny (B*m rows) and
    ships once via ray.put sorted by target doc; each document batch
    answers all resamples at once — np.searchsorted locates the batch's
    draws, np.bincount folds n_chars into per-resample partial sums —
    and only (b, partial_sum, partial_m) counters leave the batch.
    Integer sums end-to-end; the one division (mean) is left to the
    reader on both sides. At 10^12 docs the slot side stays B*m and the
    doc side streams — nothing scales with the corpus."""
    import ray
    import pyarrow.parquet as pq

    n = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    b_arr = np.repeat(np.arange(n_boot, dtype=np.int64), m)
    i_arr = np.tile(np.arange(m, dtype=np.int64), n_boot)
    did = md5_hex15(f"{b}:{i}" for b, i in zip(b_arr, i_arr)) % n
    order = np.argsort(did, kind="stable")
    slots_ref = ray.put((did[order], b_arr[order]))

    class Partial:
        def __init__(self):
            self.did, self.b = ray.get(slots_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            chars = batch["n_chars"].to_numpy(zero_copy_only=False)
            o = np.argsort(ids, kind="stable")
            ids_s, chars_s = ids[o], chars[o]
            pos = np.searchsorted(ids_s, self.did)
            ok = (pos < len(ids_s)) & (
                ids_s[np.minimum(pos, len(ids_s) - 1)] == self.did
            )
            bs = self.b[ok]
            vals = chars_s[pos[ok]].astype(np.int64)
            sums = np.bincount(bs, weights=vals, minlength=16).astype(np.int64)
            cnts = np.bincount(bs, minlength=16).astype(np.int64)
            return pa.table(
                {
                    "b": pa.array(np.arange(16, dtype=np.int64)),
                    "m": pa.array(cnts),
                    "sum_chars": pa.array(sums),
                }
            )

    from ray.data.aggregate import Sum

    return (
        _docs(sf_dir, columns=("doc_id", "n_chars"))
        .map_batches(Partial, batch_format="pyarrow", concurrency=(1, 4))
        .groupby("b")
        .aggregate(
            Sum(on="m", alias_name="m"),
            Sum(on="sum_chars", alias_name="sum_chars"),
        )
    )


# ---------------------------------------------------------------------------
# Registrable-domain (eTLD+1) resolution — the PSL algorithm every
# crawl-politeness/per-site-quota stage keys on (kernels/psl.py). The
# messy-host fixture exercises all four rule classes plus the IP and
# host-is-suffix edge cases; the oracle states the expected resolution
# per case from first principles (never by mirroring the kernel).


@register(
    "url_registrable_domain",
    oracle="""
    SELECT doc_id,
           CASE
               WHEN doc_id % 13 = 0 THEN
                   '192.168.' || (doc_id % 256) || '.' || ((doc_id * 7) % 256)
               WHEN doc_id % 17 = 0 THEN 'github.io'
               WHEN doc_id % 8 = 0 THEN 'a' || doc_id || '.example.com'
               WHEN doc_id % 8 = 1 THEN 'b' || doc_id || '.sub.example.co.uk'
               WHEN doc_id % 8 = 2 THEN 'site' || doc_id || '.github.io'
               WHEN doc_id % 8 = 3 THEN 'deep.x.data' || doc_id || '.org'
               WHEN doc_id % 8 = 4 THEN 'w.zone' || doc_id || '.ck'
               WHEN doc_id % 8 = 5 THEN 'sub' || doc_id || '.www.ck'
               WHEN doc_id % 8 = 6 THEN 'shop' || doc_id || '.example.com.au'
               ELSE 'x' || doc_id || '.svc.internal'
           END AS host,
           CASE
               WHEN doc_id % 13 = 0 THEN NULL
               WHEN doc_id % 17 = 0 THEN 'github.io'
               WHEN doc_id % 8 = 0 THEN 'com'
               WHEN doc_id % 8 = 1 THEN 'co.uk'
               WHEN doc_id % 8 = 2 THEN 'github.io'
               WHEN doc_id % 8 = 3 THEN 'org'
               WHEN doc_id % 8 = 4 THEN 'zone' || doc_id || '.ck'
               WHEN doc_id % 8 = 5 THEN 'ck'
               WHEN doc_id % 8 = 6 THEN 'com.au'
               ELSE 'internal'
           END AS public_suffix,
           CASE
               WHEN doc_id % 13 = 0 THEN NULL
               WHEN doc_id % 17 = 0 THEN NULL
               WHEN doc_id % 8 = 0 THEN 'example.com'
               WHEN doc_id % 8 = 1 THEN 'example.co.uk'
               WHEN doc_id % 8 = 2 THEN 'site' || doc_id || '.github.io'
               WHEN doc_id % 8 = 3 THEN 'data' || doc_id || '.org'
               WHEN doc_id % 8 = 4 THEN 'w.zone' || doc_id || '.ck'
               WHEN doc_id % 8 = 5 THEN 'www.ck'
               WHEN doc_id % 8 = 6 THEN 'example.com.au'
               ELSE 'svc.internal'
           END AS registrable_domain,
           CASE
               WHEN doc_id % 13 = 0 THEN NULL
               WHEN doc_id % 17 = 0 THEN 'normal'
               WHEN doc_id % 8 = 4 THEN 'wildcard'
               WHEN doc_id % 8 = 5 THEN 'exception'
               WHEN doc_id % 8 = 7 THEN 'default'
               ELSE 'normal'
           END AS rule_type
    FROM documents
    """,
)
def url_registrable_domain(sf_dir: str):
    """eTLD+1 resolution over deliberately adversarial hosts: deep
    subdomains under 1- and 2-label suffixes, a private-registry suffix
    (site.github.io must be its OWN registrable domain), the *.ck
    wildcard, its !www.ck exception (which must also win for deeper
    subdomains), hosts that ARE a public suffix (registrable = null),
    unknown TLDs (the implicit '*' default rule) and IPv4 literals
    (all-null — the PSL is a DNS-name algorithm). Kernel is three
    tail-label extract_regex calls + is_in against per-length rule sets
    (kernels/psl.py) — pure Arrow, one map stage, zero exchange; at
    100 TB this runs as-is over the page table's url column after
    canonicalize_urls."""
    from sciscraper_ray.kernels.psl import psl_registrable

    def build(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        hosts = []
        for i in ids:
            i = int(i)
            if i % 13 == 0:
                hosts.append(f"192.168.{i % 256}.{(i * 7) % 256}")
            elif i % 17 == 0:
                hosts.append("github.io")
            elif i % 8 == 0:
                hosts.append(f"a{i}.example.com")
            elif i % 8 == 1:
                hosts.append(f"b{i}.sub.example.co.uk")
            elif i % 8 == 2:
                hosts.append(f"site{i}.github.io")
            elif i % 8 == 3:
                hosts.append(f"deep.x.data{i}.org")
            elif i % 8 == 4:
                hosts.append(f"w.zone{i}.ck")
            elif i % 8 == 5:
                hosts.append(f"sub{i}.www.ck")
            elif i % 8 == 6:
                hosts.append(f"shop{i}.example.com.au")
            else:
                hosts.append(f"x{i}.svc.internal")
        host_arr = pa.array(hosts, pa.string())
        suffix, registrable, rule = psl_registrable(host_arr)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "host": host_arr,
                "public_suffix": suffix,
                "registrable_domain": registrable,
                "rule_type": rule,
            }
        )

    return _docs(sf_dir, columns=("doc_id",)).map_batches(
        build, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# Canonical-URL crawl dedup: explode each page into its crawl-record
# variants (case/port/utm/fragment noise around ONE canonical form),
# canonicalize, and keep one record per canonical URL via the shared
# winner-filter plan — the frontier-dedup composition a real crawler
# runs before fetch scheduling.


@register(
    "dedup_url_canonical",
    oracle="""
    SELECT doc_id,
           'https://' ||
           CASE doc_id % 5
               WHEN 0 THEN 'example.com' WHEN 1 THEN 'sample.org'
               WHEN 2 THEN 'docs.example.com' WHEN 3 THEN 'data.net'
               ELSE 'archive.edu' END
           || '/papers/x' || doc_id AS canonical_url,
           CAST(1 + doc_id % 3 AS BIGINT) AS n_variants,
           CAST(4 * doc_id AS BIGINT) AS survivor_record
    FROM documents
    WHERE doc_id % 11 <> 0
    """,
)
def dedup_url_canonical(sf_dir: str):
    """Frontier dedup by canonical URL: each parseable page explodes into
    1 + doc_id%3 raw crawl records that differ only in canonicalization
    noise (scheme case, :443, one trailing slash, utm_* params, fragment
    — variant v of doc d has record_id 4d+v), records canonicalize
    vectorized (kernels/links.canonicalize_urls; unparseable %11 rows
    canonicalize to null and are excluded from dup detection, not
    collapsed onto a sentinel), and the shared two-pass winner filter
    (key = md5-128 of the canonical form, winner = min record_id) keeps
    exactly the v=0 record per URL. Per-canonical variant counts ride
    the same pass-1 partials. Payloads never shuffle; the exchange is
    key partials only — the identical plan dedup_exact proved at the
    50M-key flip point."""
    import pandas as pd

    import ray  # noqa: F401

    from sciscraper_ray.pipelines.winner import WinnerSpec, winner_filter

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        rec_ids, raws, dids = [], [], []
        for i in ids:
            i = int(i)
            if i % 11 == 0:
                rec_ids.append(4 * i)
                raws.append(f"not a url {i}")
                dids.append(i)
                continue
            host = ("Example.COM", "www.Sample.ORG", "Docs.Example.COM",
                    "WWW.Data.NET", "archive.Edu")[i % 5]
            for v in range(1 + i % 3):
                scheme = "HTTPS" if v == 1 else "https"
                port = ":443" if v == 2 else ""
                path = f"/papers/x{i}" + ("/" if v == 1 else "")
                query = "?utm_source=feed&utm_campaign=x" if v == 2 else ""
                frag = f"#sec{v}" if v else ""
                rec_ids.append(4 * i + v)
                raws.append(f"{scheme}://{host}{port}{path}{query}{frag}")
                dids.append(i)
        return pa.table(
            {
                "record_id": pa.array(rec_ids, pa.int64()),
                "doc_id": pa.array(dids, pa.int64()),
                "raw_url": pa.array(raws, pa.string()),
            }
        )

    def canonize(batch: pa.Table) -> pa.Table:
        from sciscraper_ray.kernels.links import canonicalize_urls

        canonical, _host = canonicalize_urls(batch["raw_url"])
        return batch.append_column("canonical_url", canonical)

    records = (
        _docs(sf_dir, columns=("doc_id",))
        .map_batches(explode, batch_format="pyarrow")
        .map_batches(canonize, batch_format="pyarrow")
    )

    spec = WinnerSpec(
        keys=lambda b: md5_hash128(b["canonical_url"].to_pylist()),
        value=lambda b: b["record_id"].to_numpy(zero_copy_only=False).astype(
            np.int64
        ),
        np_reducer=np.minimum,
        agg_name="min",
        what="dedup_url_canonical",
    )
    survivors = winner_filter(
        records,
        spec,
        keys_source=records.select_columns(["record_id", "canonical_url"]),
    )

    def surviving_rows(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch["canonical_url"]))
        return pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "canonical_url": batch["canonical_url"],
                "survivor_record": pc.cast(batch["record_id"], pa.int64()),
            }
        )

    # n_variants is doc_id%3+1 by construction, but deriving it from the
    # survivor row would be oracle-mirroring; count it from the actual
    # record stream instead (per-batch partial + groupby), then attach it
    # with the big-big bucketed hash join — both sides are corpus-sized,
    # so neither a broadcast nor a driver merge is scale-honest here.
    from ray.data.aggregate import Sum

    from sciscraper_ray.stages.relational import bucketed_hash_join

    def variant_partial(batch: pa.Table) -> pa.Table:
        valid = batch.filter(pc.is_valid(batch["canonical_url"]))
        ids = valid["doc_id"].to_numpy(zero_copy_only=False)
        uniq, cnt = np.unique(ids, return_counts=True)
        return pa.table(
            {
                "cnt_doc_id": pa.array(uniq.astype(np.int64)),
                "n_variants": pa.array(cnt.astype(np.int64)),
            }
        )

    counts = (
        records.map_batches(variant_partial, batch_format="pyarrow")
        .groupby("cnt_doc_id")
        .aggregate(Sum(on="n_variants", alias_name="n_variants"))
    )
    joined = bucketed_hash_join(
        survivors.map_batches(surviving_rows, batch_format="pyarrow"),
        counts,
        left_on="doc_id",
        right_on="cnt_doc_id",
    )

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(
            ["doc_id", "canonical_url", "n_variants", "survivor_record"]
        )

    return joined.map_batches(project, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Host-level template detection: the longest common prefix of a host's
# pages IS its boilerplate template (sites render one skeleton per
# host). LCP of a SET equals LCP(lexicographic min, lexicographic max) —
# so the whole-corpus op reduces to a (min, max, count) groupby on host
# and an O(template) char compare per host: no pairwise work, no page
# text leaving the aggregate.


@register(
    "host_template_lcp",
    oracle="""
    WITH t AS (
        SELECT CASE WHEN doc_id % 10 < 3 THEN 'mega.example.org'
               ELSE CASE doc_id % 5 WHEN 0 THEN 'alpha.example.com'
               WHEN 1 THEN 'beta.example.net' WHEN 2 THEN 'gamma.example.io'
               WHEN 3 THEN 'delta.example.edu'
               ELSE 'epsilon.example.dev' END END AS host,
               text FROM documents
    ),
    tt AS (
        SELECT host, '[' || host || '] Daily Digest :: ' || text AS page
        FROM t
    ),
    mm AS (
        SELECT host, min(page) AS lo, max(page) AS hi, count(*) AS n_pages
        FROM tt GROUP BY host
    ),
    pos AS (
        SELECT host, lo, hi, n_pages,
               unnest(range(least(length(lo), length(hi)) + 1)) AS p
        FROM mm
    )
    SELECT host, CAST(max(p) AS BIGINT) AS template_len,
           CAST(min(n_pages) AS BIGINT) AS n_pages
    FROM pos WHERE substr(lo, 1, CAST(p AS INTEGER))
                 = substr(hi, 1, CAST(p AS INTEGER))
    GROUP BY host
    """,
)
def host_template_lcp(sf_dir: str):
    """Per-host template length via the min/max-LCP identity: pages are
    rendered with a host-specific skeleton prefix, per-batch partials
    reduce each host to (lex-min page, lex-max page, count), the
    host-bounded merge happens on the driver, and the template length is
    one char-compare of the two extreme strings per host (LCP(set) =
    LCP(min, max) because lexicographic order sandwiches every other
    string's divergence point). The exchange is 2 strings + 1 int per
    host per batch — page text never shuffles; at 10^8 hosts the same
    partials feed a groupby(host) Min/Max instead of the driver merge."""
    import pandas as pd

    from sciscraper_ray.sources.page_synth import host_for

    def partial(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        texts = b["text"].to_pylist()
        pages = [
            f"[{host_for(int(i))}] Daily Digest :: {t}"
            for i, t in zip(ids, texts)
        ]
        df = pd.DataFrame(
            {"host": [host_for(int(i)) for i in ids], "page": pages}
        )
        agg = df.groupby("host", as_index=False).agg(
            lo=("page", "min"), hi=("page", "max"), n_pages=("page", "size")
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    from sciscraper_ray.pipelines.plan import driver_frame

    parts = driver_frame(
        _docs(sf_dir, columns=("doc_id", "text")).map_batches(
            partial, batch_format="pyarrow"
        ),
        what="host_template_lcp",
    )
    merged = parts.groupby("host", as_index=False).agg(
        lo=("lo", "min"), hi=("hi", "max"), n_pages=("n_pages", "sum")
    )

    def lcp(a: str, b: str) -> int:
        n = min(len(a), len(b))
        for k in range(n):
            if a[k] != b[k]:
                return k
        return n

    return pa.table(
        {
            "host": pa.array(merged["host"], pa.string()),
            "template_len": pa.array(
                [lcp(a, b) for a, b in zip(merged["lo"], merged["hi"])],
                pa.int64(),
            ),
            "n_pages": pa.array(
                merged["n_pages"].to_numpy(np.int64), pa.int64()
            ),
        }
    )


# ---------------------------------------------------------------------------
# Per-document suffix arrays via vectorized prefix doubling (the
# Manber-Myers O(n log n) construction, all numpy — no O(n^2) suffix
# materialization), plus Kasai-adjacent LCP for the longest repeated
# substring. This is the in-doc half of the ExactSubstr machinery
# (Lee et al. 2022 "Deduplicating Training Data Makes Language Models
# Better" builds exactly these arrays); the cross-doc half is
# pipelines/substr.py.


def suffix_ranks(s: "np.ndarray") -> "np.ndarray":
    """rank[i] = 0-based lexicographic rank of suffix s[i:] among all
    suffixes (uint8 array in, int64 out); prefix doubling with lexsort —
    O(n log^2 n) C-level work, no suffix strings materialized."""
    n = len(s)
    if n == 0:
        return np.zeros(0, np.int64)
    rank = s.astype(np.int64)
    k = 1
    while True:
        key2 = np.full(n, -1, np.int64)
        if k < n:
            key2[:-k] = rank[k:]
        order = np.lexsort((key2, rank))
        new = np.zeros(n, np.int64)
        if n > 1:
            r_o, k_o = rank[order], key2[order]
            bump = (r_o[1:] != r_o[:-1]) | (k_o[1:] != k_o[:-1])
            new[order[1:]] = np.cumsum(bump)
        if new.max() == n - 1 or k >= n:
            return new
        rank = new
        k *= 2


_LRS_CAP = 32  # capped LCP grid keeps the SQL oracle polynomial


@register(
    "doc_suffix_array",
    oracle="""
    SELECT doc_id, CAST(pos AS BIGINT) AS pos,
           CAST(rank() OVER (
               PARTITION BY doc_id ORDER BY substr(text, CAST(pos AS INTEGER))
           ) AS BIGINT) AS suffix_rank
    FROM (
        SELECT doc_id, text,
               unnest(range(1, length(text) + 1)) AS pos
        FROM documents
    )
    """,
)
def doc_suffix_array(sf_dir: str):
    """Suffix array of every document (char grain): rank[pos] via
    prefix doubling — each round is one np.lexsort over (rank, rank
    shifted by 2^k) with cumsum re-ranking, terminating when ranks are a
    permutation. Emits (doc_id, 1-based pos, 1-based rank); suffixes of
    one string are pairwise distinct so the oracle's plain ORDER BY
    substr rank is total. Per-doc arrays factorize, so the stage is a
    pure map over batches — corpus-scale cost is the same O(chars)
    row emission as any tokenizing pass, zero exchange."""

    def run(b: pa.Table) -> pa.Table:
        ids_, pos_, rk_ = [], [], []
        for did, text in zip(
            b["doc_id"].to_numpy(zero_copy_only=False),
            b["text"].to_pylist(),
        ):
            s = np.frombuffer(text.encode("ascii"), np.uint8)
            r = suffix_ranks(s)
            n = len(s)
            ids_.append(np.full(n, int(did), np.int64))
            pos_.append(np.arange(1, n + 1, dtype=np.int64))
            rk_.append(r + 1)
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate(ids_)),
                "pos": pa.array(np.concatenate(pos_)),
                "suffix_rank": pa.array(np.concatenate(rk_)),
            }
        )

    return _docs(sf_dir).map_batches(run, batch_format="pyarrow")


@register(
    "doc_longest_repeat",
    oracle=f"""
    WITH sa AS (
        SELECT doc_id, text, pos,
               rank() OVER (
                   PARTITION BY doc_id
                   ORDER BY substr(text, CAST(pos AS INTEGER))
               ) AS r
        FROM (
            SELECT doc_id, text,
                   unnest(range(1, length(text) + 1)) AS pos
            FROM documents
        )
    ),
    adj AS (
        SELECT a.doc_id, a.text, a.pos AS p1, b.pos AS p2
        FROM sa a JOIN sa b
          ON b.doc_id = a.doc_id AND b.r = a.r + 1
    ),
    grid AS (
        SELECT doc_id, text, p1, p2, unnest(range({_LRS_CAP} + 1)) AS q
        FROM adj
    )
    SELECT doc_id, CAST(max(q) AS BIGINT) AS lrs_capped
    FROM grid
    WHERE substr(text, CAST(p1 AS INTEGER), CAST(q AS INTEGER))
        = substr(text, CAST(p2 AS INTEGER), CAST(q AS INTEGER))
    GROUP BY doc_id
    """,
)
def doc_longest_repeat(sf_dir: str):
    """Longest repeated substring per document (capped at {CAP} chars;
    the within-doc repetition signal ExactSubstr thresholds at 50
    tokens): Kasai's theorem says the LRS is the max LCP of RANK-adjacent
    suffixes, so the engine walks the suffix array once with the O(n)
    Kasai h-decrement trick instead of comparing all pairs. The oracle
    computes the same adjacent-pair max with a capped position grid.
    Same zero-exchange per-doc map shape as doc_suffix_array."""

    def kasai_lrs(s: "np.ndarray", rank: "np.ndarray") -> int:
        n = len(s)
        sa = np.empty(n, np.int64)
        sa[rank] = np.arange(n)
        best = 0
        h = 0
        for i in range(n):
            r = rank[i]
            if r + 1 < n:
                j = sa[r + 1]
                while (
                    i + h < n and j + h < n and s[i + h] == s[j + h]
                    and h < _LRS_CAP
                ):
                    h += 1
                best = max(best, h)
                if best >= _LRS_CAP:
                    return _LRS_CAP
            else:
                h = 0
                continue
            if h:
                h -= 1
        return best

    def run(b: pa.Table) -> pa.Table:
        ids_, lr_ = [], []
        for did, text in zip(
            b["doc_id"].to_numpy(zero_copy_only=False),
            b["text"].to_pylist(),
        ):
            s = np.frombuffer(text.encode("ascii"), np.uint8)
            r = suffix_ranks(s)
            ids_.append(int(did))
            lr_.append(kasai_lrs(s, r))
        return pa.table(
            {
                "doc_id": pa.array(ids_, pa.int64()),
                "lrs_capped": pa.array(lr_, pa.int64()),
            }
        )

    return _docs(sf_dir).map_batches(run, batch_format="pyarrow")


@register(
    "orc_roundtrip",
    oracle="SELECT doc_id, lang, n_chars, text FROM documents",
)
def orc_roundtrip(sf_dir: str):
    """documents -> sharded Apache ORC -> distributed read-back, byte
    exact including the text column (the column-stride format used by
    Hive-era warehouses; ingesting it is table stakes for a crawl
    engine sitting next to one). Ray Data has no native ORC IO, so both
    directions are the custom-sink/source pattern: the WRITE is a
    map_batches stage where each task serializes its own Arrow block
    with pyarrow.orc (one shard per block — the same one-file-per-
    fragment layout every resumable sink here uses), and the READ is a
    from_items(shard paths) fan-out where each task deserializes one
    shard back to Arrow — both sides embarrassingly parallel, no
    driver-side table. The shard dir is a driver-created /tmp path, so
    writer and reader tasks must share a filesystem — single-node or
    shared-FS only, like the jsonl/langpart sinks (ADVICE r4); a
    multi-node run points the export/config path at network storage."""
    import os
    import tempfile

    import ray.data

    with tempfile.TemporaryDirectory(prefix="orc_") as out_dir:
        cols = ["doc_id", "lang", "n_chars", "text"]

        def write_shard(batch: pa.Table) -> pa.Table:
            import pyarrow.orc as orc

            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            path = os.path.join(out_dir, f"shard-{int(ids.min()):08d}.orc")
            orc.write_table(batch, path)
            return pa.table({"path": pa.array([path], pa.string())})

        paths = (
            ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=cols)
            .map_batches(write_shard, batch_format="pyarrow")
            .to_pandas()["path"]  # bounded: one path per shard
            .tolist()
        )

        def read_shard(batch: pa.Table) -> pa.Table:
            import pyarrow.orc as orc

            return pa.concat_tables(
                [orc.ORCFile(p).read() for p in batch["path"].to_pylist()]
            )

        return ray.data.from_items([{"path": p} for p in sorted(paths)]).map_batches(
            read_shard, batch_format="pyarrow"
        ).materialize()


def _duckdb_fixture(sf_dir: str) -> str:
    """Build (once, cached) a .duckdb database file holding the sf dir's
    documents table. Cache key = source parquet identity (abspath,
    mtime_ns, size); the db is built at a temp path and published with
    an atomic rename so concurrent runs never open a half-built file."""
    import hashlib
    import os

    src = f"{sf_dir}/documents.parquet"
    st = os.stat(src)
    key = hashlib.sha256(
        f"{os.path.abspath(src)}|{st.st_mtime_ns}|{st.st_size}".encode()
    ).hexdigest()[:16]
    db_path = f"/tmp/ingest_{key}.duckdb"
    if not os.path.exists(db_path):
        import duckdb

        tmp = f"{db_path}.tmp.{os.getpid()}"
        con = duckdb.connect(tmp)
        con.execute(
            f"CREATE TABLE documents AS SELECT * FROM read_parquet('{src}')"
        )
        con.close()
        try:
            os.rename(tmp, db_path)
        except OSError:
            os.unlink(tmp)
    return db_path


@register(
    "duckdb_ingest",
    oracle="SELECT doc_id, text, lang, source, n_chars FROM documents",
)
def duckdb_ingest(sf_dir: str):
    """Parallel ingest FROM AN OLTP-STYLE DATABASE FILE: key-range
    sharded SELECTs against a DuckDB database, each shard pulled by its
    own actor holding a read-only connection opened ONCE in __init__
    (the canonical read_sql shape — at warehouse scale the shards are
    range predicates against a replica, and the connection is the
    expensive per-worker state an actor pool amortizes). The key range
    comes from one min/max probe; shard boundaries are arithmetic, so
    no coordination and any shard can be retried idempotently."""
    import ray
    import ray.data

    db_path = _duckdb_fixture(sf_dir)
    import duckdb

    probe = duckdb.connect(db_path, read_only=True)
    lo, hi = probe.execute("SELECT min(doc_id), max(doc_id) FROM documents").fetchone()
    probe.close()
    n_shards = 8
    step = (int(hi) - int(lo)) // n_shards + 1
    bounds = [
        {"lo": int(lo) + s * step, "hi": min(int(lo) + (s + 1) * step, int(hi) + 1)}
        for s in range(n_shards)
    ]

    class RangeReader:
        def __init__(self):
            self.con = duckdb.connect(db_path, read_only=True)

        def __call__(self, batch: pa.Table) -> pa.Table:
            tables = []
            for lo_k, hi_k in zip(
                batch["lo"].to_pylist(), batch["hi"].to_pylist()
            ):
                tables.append(
                    self.con.execute(
                        "SELECT doc_id, text, lang, source, n_chars "
                        "FROM documents WHERE doc_id >= ? AND doc_id < ?",
                        [lo_k, hi_k],
                    ).arrow()
                )
            return pa.concat_tables(tables)

    return ray.data.from_items(bounds).map_batches(
        RangeReader, batch_format="pyarrow", concurrency=4, batch_size=1
    )


def _csv_quarantine_fixture(sf_dir: str, n_shards: int = 8) -> str:
    """Build (once, cached, atomically published) CSV shards of
    (doc_id, lang, n_chars) with DETERMINISTIC malformations:
    doc_id % 23 == 0 rows drop their last field (field-count error);
    else doc_id % 41 == 0 rows write 'NaN' for n_chars (type error).
    Shard = doc_id % n_shards. Values are unquoted and comma-free by
    construction, so a strict split(',') parser is exact."""
    import hashlib
    import os
    import shutil

    import pyarrow.parquet as pq

    src = f"{sf_dir}/documents.parquet"
    st = os.stat(src)
    key = hashlib.sha256(
        f"csvq|{os.path.abspath(src)}|{st.st_mtime_ns}|{st.st_size}".encode()
    ).hexdigest()[:16]
    out_dir = f"/tmp/csvq_{key}"
    if not os.path.isdir(out_dir):
        tmp = f"{out_dir}.tmp.{os.getpid()}"
        os.makedirs(tmp, exist_ok=True)
        t = pq.read_table(src, columns=["doc_id", "lang", "n_chars"])
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        langs = t["lang"].to_pylist()
        ncs = t["n_chars"].to_numpy(zero_copy_only=False)
        shards: list[list[str]] = [[] for _ in range(n_shards)]
        for i, lg, nc in zip(ids, langs, ncs):
            i = int(i)
            if i % 23 == 0:
                line = f"{i},{lg}"  # missing n_chars field
            elif i % 41 == 0:
                line = f"{i},{lg},NaN"  # non-integer n_chars
            else:
                line = f"{i},{lg},{int(nc)}"
            shards[i % n_shards].append(line)
        for sh, lines in enumerate(shards):
            with open(os.path.join(tmp, f"shard-{sh:04d}.csv"), "w") as f:
                f.write("doc_id,lang,n_chars\n")
                f.write("\n".join(lines) + "\n")
        try:
            os.rename(tmp, out_dir)
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)
    return out_dir


@register(
    "csv_malformed_quarantine",
    oracle="""
    SELECT CAST(doc_id % 8 AS BIGINT) AS shard,
           CAST(count(*) FILTER (doc_id % 23 <> 0 AND doc_id % 41 <> 0)
               AS BIGINT) AS n_good,
           CAST(count(*) FILTER (doc_id % 23 = 0) AS BIGINT) AS n_bad_fields,
           CAST(count(*) FILTER (doc_id % 23 <> 0 AND doc_id % 41 = 0)
               AS BIGINT) AS n_bad_type,
           CAST(sum(n_chars) FILTER (doc_id % 23 <> 0 AND doc_id % 41 <> 0)
               AS BIGINT) AS good_chars
    FROM documents GROUP BY 1
    """,
)
def csv_malformed_quarantine(sf_dir: str):
    """Tolerant CSV ingest with a DEAD-LETTER CHANNEL: each shard is
    parsed line by line (vectorized split on a comma-free fixture);
    rows failing the declared 3-field schema quarantine with reason
    'field_count', rows whose n_chars fails integer parse quarantine
    with 'type_error', and the survivors aggregate per shard — the
    quarantine-not-crash contract every production ingest needs (a
    single malformed row must never poison a 100 TB load, and the
    dead-letter counts must reconcile: good + quarantined = input).
    One task per shard, no exchange beyond the per-shard summary row.
    The fixture injects both failure modes deterministically
    (doc_id % 23 / % 41), so the oracle states the ledger from pure
    arithmetic."""
    import os

    import ray.data

    src_dir = _csv_quarantine_fixture(sf_dir)
    paths = sorted(
        os.path.join(src_dir, f) for f in os.listdir(src_dir) if f.endswith(".csv")
    )

    def parse_shard(batch: pa.Table) -> pa.Table:
        out = []
        for path in batch["path"].to_pylist():
            shard = int(os.path.basename(path).split("-")[1].split(".")[0])
            n_good = n_bad_fields = n_bad_type = good_chars = 0
            with open(path) as f:
                next(f)  # header
                for line in f:
                    parts = line.rstrip("\n").split(",")
                    if len(parts) != 3:
                        n_bad_fields += 1
                        continue
                    try:
                        nc = int(parts[2])
                    except ValueError:
                        n_bad_type += 1
                        continue
                    n_good += 1
                    good_chars += nc
            out.append((shard, n_good, n_bad_fields, n_bad_type, good_chars))
        return pa.table(
            {
                "shard": pa.array([r[0] for r in out], pa.int64()),
                "n_good": pa.array([r[1] for r in out], pa.int64()),
                "n_bad_fields": pa.array([r[2] for r in out], pa.int64()),
                "n_bad_type": pa.array([r[3] for r in out], pa.int64()),
                "good_chars": pa.array([r[4] for r in out], pa.int64()),
            }
        )

    return ray.data.from_items([{"path": p} for p in paths]).map_batches(
        parse_shard, batch_format="pyarrow"
    )


@register(
    "join_size_cms_estimate",
    oracle=f"""
    WITH oc AS (
        SELECT o_orderkey AS k, CAST(count(*) AS BIGINT) AS c
        FROM orders GROUP BY 1
    ), lc AS (
        SELECT l_orderkey AS k, CAST(count(*) AS BIGINT) AS c
        FROM lineitem GROUP BY 1
    ), exact AS (
        SELECT CAST(sum(oc.c * lc.c) AS BIGINT) AS x
        FROM oc JOIN lc USING (k)
    ), ocell AS (
        {" UNION ALL ".join(
            f'''SELECT {r} AS r,
                {_cms_cell_sql("CAST(k AS VARCHAR)", salt)} AS cell,
                CAST(sum(c) AS BIGINT) AS total FROM oc GROUP BY cell'''
            for r, salt in enumerate(_CMS_SALTS)
        )}
    ), lcell AS (
        {" UNION ALL ".join(
            f'''SELECT {r} AS r,
                {_cms_cell_sql("CAST(k AS VARCHAR)", salt)} AS cell,
                CAST(sum(c) AS BIGINT) AS total FROM lc GROUP BY cell'''
            for r, salt in enumerate(_CMS_SALTS)
        )}
    ), ip AS (
        SELECT o.r, CAST(sum(o.total * l.total) AS BIGINT) AS est
        FROM ocell o JOIN lcell l ON l.r = o.r AND l.cell = o.cell
        GROUP BY o.r
    )
    SELECT (SELECT x FROM exact) AS exact_size,
           (SELECT CAST(min(est) AS BIGINT) FROM ip) AS cms_estimate,
           CAST((SELECT min(est) FROM ip) >= (SELECT x FROM exact)
               AS BIGINT) AS overcount_ok
    """,
)
def join_size_cms_estimate(sf_dir: str):
    """Join-cardinality estimation by count-min inner product (Cormode
    & Muthukrishnan 2005 §4.2): |orders JOIN lineitem| is estimated as
    min over sketch rows of <cms_orders[r], cms_lineitem[r]> — the
    query-planner primitive that prices a join WITHOUT running it, from
    two sketches whose size (d=2 x w=1024 cells) is independent of the
    tables. Each side's sketch is built from per-batch partial cell
    counts (the exchange is 2048 cells per side, never key rows); the
    exact size Σ c_o(k)·c_l(k) is recomputed as the audit baseline, and
    the CMS guarantee est >= exact must hold collision-for-collision —
    the oracle rebuilds both hash rows cell-exactly from the same md5
    cell function as the engine (shared with token_cms_estimate)."""
    import pandas as pd

    import ray.data

    def side(path: str, col: str) -> tuple["pd.Series", "np.ndarray"]:
        ds = ray.data.read_parquet(path, columns=[col])

        def partial(batch: pa.Table) -> pa.Table:
            df = (
                pd.DataFrame({"k": batch[col].to_numpy(zero_copy_only=False)})
                .groupby("k", as_index=False)
                .size()
                .rename(columns={"size": "c"})
            )
            return pa.Table.from_pandas(df, preserve_index=False)

        from sciscraper_ray.pipelines.plan import driver_frame

        counts = (
            driver_frame(
                ds.map_batches(partial, batch_format="pyarrow"),
                what="join_size_cms_estimate (exact audit side)",
            )
            .groupby("k")["c"]
            .sum()
        )
        keys = [str(int(k)) for k in counts.index]
        cms = np.zeros((len(_CMS_SALTS), _CMS_W), np.int64)
        for r, salt in enumerate(_CMS_SALTS):
            cells = _cms_cells(keys, salt)
            np.add.at(cms[r], cells, counts.to_numpy(np.int64))
        return counts, cms

    oc, ocms = side(f"{sf_dir}/orders.parquet", "o_orderkey")
    lc, lcms = side(f"{sf_dir}/lineitem.parquet", "l_orderkey")
    joined = oc.to_frame("co").join(lc.to_frame("cl"), how="inner")
    exact = int((joined["co"].to_numpy(np.int64) * joined["cl"].to_numpy(np.int64)).sum())
    est = int(min((ocms[r] * lcms[r]).sum() for r in range(len(_CMS_SALTS))))
    return pa.table(
        {
            "exact_size": pa.array([exact], pa.int64()),
            "cms_estimate": pa.array([est], pa.int64()),
            "overcount_ok": pa.array([int(est >= exact)], pa.int64()),
        }
    )


_CBF_PROBES = tuple(range(1, 21))


@register(
    "counting_bloom_deletes",
    oracle=f"""
    WITH ins AS (
        SELECT o_custkey AS k FROM orders
    ), dels AS (
        SELECT o_custkey AS k FROM orders WHERE o_orderkey % 2 = 0
    ), cells AS (
        SELECT cell, CAST(sum(d) AS BIGINT) AS c FROM (
            SELECT {_bloom_pos_sql("k", "b1")} AS cell, 1 AS d FROM ins
            UNION ALL
            SELECT {_bloom_pos_sql("k", "b2")} AS cell, 1 AS d FROM ins
            UNION ALL
            SELECT {_bloom_pos_sql("k", "b1")} AS cell, -1 AS d FROM dels
            UNION ALL
            SELECT {_bloom_pos_sql("k", "b2")} AS cell, -1 AS d FROM dels
        ) GROUP BY cell
    ), truth AS (
        SELECT o_custkey AS k, count(*) AS live
        FROM orders WHERE o_orderkey % 2 = 1 GROUP BY 1
    )
    SELECT p.k AS custkey,
           CAST(coalesce((SELECT c FROM cells
                 WHERE cell = {_bloom_pos_sql("p.k", "b1")}), 0) > 0
            AND coalesce((SELECT c FROM cells
                 WHERE cell = {_bloom_pos_sql("p.k", "b2")}), 0) > 0
               AS BIGINT) AS cbf_hit,
           CAST(coalesce((SELECT live FROM truth WHERE truth.k = p.k), 0) > 0
               AS BIGINT) AS true_present,
           CAST(CAST(coalesce((SELECT c FROM cells
                 WHERE cell = {_bloom_pos_sql("p.k", "b1")}), 0) > 0
            AND coalesce((SELECT c FROM cells
                 WHERE cell = {_bloom_pos_sql("p.k", "b2")}), 0) > 0
               AS BIGINT)
             >= CAST(coalesce((SELECT live FROM truth WHERE truth.k = p.k), 0) > 0
               AS BIGINT) AS BIGINT) AS no_false_negative
    FROM (VALUES {", ".join(f"({p})" for p in _CBF_PROBES)}) AS p(k)
    """,
)
def counting_bloom_deletes(sf_dir: str):
    """COUNTING Bloom filter (Fan et al. 1998) with live deletions — the
    membership sketch plain Bloom can't give a streaming system, because
    retractions (cancelled orders, redacted docs, CDC deletes) must
    decrement. Inserts are every order's custkey x2 salted cells;
    deletes retract the even-orderkey half; a probe reports present iff
    BOTH its cells stay positive. The no-false-negative guarantee (a
    live key can never read absent) is asserted per probe against
    recomputed ground truth; false positives remain possible and are
    part of the contract. Cell deltas are per-batch partials (exchange
    bounded by 4096 cells); the oracle rebuilds every cell from the
    same salted md5 the engine uses, collision-for-collision."""
    import ray
    import ray.data

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )

    def cell_partials(batch: pa.Table) -> pa.Table:
        import pandas as pd

        ok = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        deleted = ok % 2 == 0
        cells = np.concatenate(
            [
                _bloom_positions(ck, "b1"),
                _bloom_positions(ck, "b2"),
                _bloom_positions(ck[deleted], "b1"),
                _bloom_positions(ck[deleted], "b2"),
            ]
        )
        delta = np.concatenate(
            [
                np.ones(2 * len(ck), np.int64),
                -np.ones(2 * int(deleted.sum()), np.int64),
            ]
        )
        df = (
            pd.DataFrame({"cell": cells, "c": delta})
            .groupby("cell", as_index=False)
            .sum()
        )
        return pa.Table.from_pandas(df, preserve_index=False)

    cells_df = (
        orders.map_batches(cell_partials, batch_format="pyarrow")
        .to_pandas()  # bounded: _BLOOM_M filter cells
        .groupby("cell")["c"]
        .sum()
    )
    arr = np.zeros(_BLOOM_M, np.int64)
    arr[cells_df.index.to_numpy(np.int64)] = cells_df.to_numpy(np.int64)

    def live_truth(batch: pa.Table) -> pa.Table:
        import pandas as pd

        ok = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        live = ck[ok % 2 == 1]
        df = (
            pd.DataFrame({"k": live})
            .groupby("k", as_index=False)
            .size()
            .rename(columns={"size": "live"})
        )
        return pa.Table.from_pandas(df, preserve_index=False)

    from sciscraper_ray.pipelines.plan import driver_frame

    truth = (
        driver_frame(
            orders.map_batches(live_truth, batch_format="pyarrow"),
            what="counting_bloom_deletes (exact audit side)",
        )
        .groupby("k")["live"]
        .sum()
    )
    probes = np.array(_CBF_PROBES, np.int64)
    hit = (arr[_bloom_positions(probes, "b1")] > 0) & (
        arr[_bloom_positions(probes, "b2")] > 0
    )
    present = np.array([int(truth.get(int(p), 0) > 0) for p in probes], np.int64)
    return pa.table(
        {
            "custkey": pa.array(probes, pa.int64()),
            "cbf_hit": pa.array(hit.astype(np.int64), pa.int64()),
            "true_present": pa.array(present, pa.int64()),
            "no_false_negative": pa.array(
                (hit.astype(np.int64) >= present).astype(np.int64), pa.int64()
            ),
        }
    )


def _pb_varint(n: int) -> bytes:
    """Protobuf base-128 varint (unsigned)."""
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _pb_read_varint(buf: bytes, pos: int) -> tuple[int, int]:
    shift = val = 0
    while True:
        b = buf[pos]
        pos += 1
        val |= (b & 0x7F) << shift
        if not b & 0x80:
            return val, pos
        shift += 7


@register(
    "protobuf_roundtrip",
    oracle="SELECT doc_id, lang, n_chars FROM documents",
)
def protobuf_roundtrip(sf_dir: str):
    """documents -> length-delimited protobuf wire format -> distributed
    parse-back, byte-exact: each record is a message with field 1
    (varint doc_id), field 2 (LEN lang utf-8), field 3 (varint n_chars),
    framed by an outer length varint — the canonical streaming protobuf
    layout (what a gRPC crawl-log or an embedded record bus emits),
    encoded and decoded FROM SCRATCH (base-128 varints, wire-type tags),
    no generated stubs. Write: map_batches, one shard per block (same
    fragment layout as the ORC/JSONL sinks). Read: from_items fan-out,
    one decoder task per shard. The decoder tolerates and skips unknown
    fields (wire-type-driven skip), which the fixture exercises with an
    injected field 15 every 7th record — forward compatibility is the
    entire point of the format. Shards live in a driver-created /tmp
    dir: single-node or shared-FS only, like the ORC/JSONL sinks
    (ADVICE r4); multi-node runs route the dir through export/config."""
    import os
    import tempfile

    import ray.data

    with tempfile.TemporaryDirectory(prefix="pb_") as out_dir:
        def write_shard(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            langs = batch["lang"].to_pylist()
            ncs = batch["n_chars"].to_numpy(zero_copy_only=False)
            buf = bytearray()
            for k, (i, lg, nc) in enumerate(zip(ids, langs, ncs)):
                body = bytearray()
                body += b"\x08" + _pb_varint(int(i))  # field 1, varint
                lb = lg.encode()
                body += b"\x12" + _pb_varint(len(lb)) + lb  # field 2, LEN
                body += b"\x18" + _pb_varint(int(nc))  # field 3, varint
                if k % 7 == 0:  # unknown field 15 (varint) — must be skipped
                    body += b"\x78" + _pb_varint(99)
                buf += _pb_varint(len(body)) + body
            path = os.path.join(out_dir, f"shard-{int(ids.min()):08d}.pb")
            with open(path, "wb") as f:
                f.write(bytes(buf))
            return pa.table({"path": pa.array([path], pa.string())})

        paths = (
            ray.data.read_parquet(
                f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
            )
            .map_batches(write_shard, batch_format="pyarrow")
            .to_pandas()["path"]  # bounded: one path per shard
            .tolist()
        )

        def read_shard(batch: pa.Table) -> pa.Table:
            ids, langs, ncs = [], [], []
            for p in batch["path"].to_pylist():
                with open(p, "rb") as f:
                    buf = f.read()
                pos = 0
                while pos < len(buf):
                    mlen, pos = _pb_read_varint(buf, pos)
                    end = pos + mlen
                    i = nc = None
                    lg = None
                    while pos < end:
                        tag, pos = _pb_read_varint(buf, pos)
                        field, wt = tag >> 3, tag & 7
                        if wt == 0:
                            val, pos = _pb_read_varint(buf, pos)
                            if field == 1:
                                i = val
                            elif field == 3:
                                nc = val
                            # unknown varint fields: skipped by the read
                        elif wt == 2:
                            ln, pos = _pb_read_varint(buf, pos)
                            raw, pos = buf[pos : pos + ln], pos + ln
                            if field == 2:
                                lg = raw.decode()
                        else:  # pragma: no cover - fixture emits only 0/2
                            raise ValueError(f"unsupported wire type {wt}")
                    ids.append(i)
                    langs.append(lg)
                    ncs.append(nc)
            return pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "lang": pa.array(langs, pa.string()),
                    "n_chars": pa.array(ncs, pa.int64()),
                }
            )

        return ray.data.from_items([{"path": p} for p in sorted(paths)]).map_batches(
            read_shard, batch_format="pyarrow"
        ).materialize()


# ---------------------------------------------------------------------------
# Exactly-K weighted sampling WITHOUT replacement (Efraimidis & Spirakis
# 2006, IPL 97(5): top-K by u^(1/w)): the companion to the Bernoulli
# doc_sample_weighted above — fixed sample SIZE, inclusion probability
# proportional to weight, and mergeable because the top-K of a union is
# the top-K of per-partition top-K's. u is the deterministic md5 coin
# (hex15 / 2^60), so the sample is reproducible across runs, cluster
# sizes and partitionings, and the oracle can rank the identical keys.
# ---------------------------------------------------------------------------


_ES_SAMPLE_K = 64


@register(
    "doc_reservoir_weighted",
    oracle=f"""
    WITH k AS (
        SELECT doc_id, n_chars,
               ln(CAST({md5_hex15_sql("CAST(doc_id AS VARCHAR)")} AS DOUBLE)
                  / 1152921504606846976.0)
                   / greatest(n_chars, 1) AS es_key
        FROM documents
    )
    SELECT doc_id, n_chars FROM k
    ORDER BY es_key DESC, doc_id LIMIT {_ES_SAMPLE_K}
    """,
)
def doc_reservoir_weighted(sf_dir: str):
    """Distributed Efraimidis-Spirakis reservoir: per batch the key
    ln(u)/w is vectorized (one md5 per row for the deterministic coin,
    numpy for the rest) and only that batch's top-K survive, so the
    driver merge sees <= K rows per batch — sample-bounded, not
    data-bounded; the final top-K is one argpartition. At 100 TB this
    is the loss-weighted eval-set sampler: every worker ships K
    candidates no matter how many rows it scanned."""
    import ray.data

    def partial_topk(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        if not ids:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_chars": pa.array([], pa.int64()),
                    "es_key": pa.array([], pa.float64()),
                }
            )
        h = md5_hex15(map(str, ids))
        w = np.maximum(
            np.asarray(
                batch["n_chars"].to_numpy(zero_copy_only=False), np.int64
            ),
            1,
        )
        u = h.astype(np.float64) / float(1 << 60)
        key = np.log(u) / w
        k = min(_ES_SAMPLE_K, len(key))
        keep = np.argpartition(-key, k - 1)[:k]
        return pa.table(
            {
                "doc_id": pa.array(
                    np.asarray(ids, np.int64)[keep]
                ),
                "n_chars": pa.array(
                    np.asarray(
                        batch["n_chars"].to_numpy(zero_copy_only=False),
                        np.int64,
                    )[keep]
                ),
                "es_key": pa.array(key[keep]),
            }
        )

    parts = (
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
        )
        .map_batches(partial_topk, batch_format="pyarrow")
        # bounded: <= K rows per batch by construction (sample-bounded)
        .to_pandas()
    )
    order = np.lexsort(
        (parts["doc_id"].to_numpy(), -parts["es_key"].to_numpy())
    )
    top = parts.iloc[order[:_ES_SAMPLE_K]]
    return pa.table(
        {
            "doc_id": pa.array(top["doc_id"].to_numpy(), pa.int64()),
            "n_chars": pa.array(top["n_chars"].to_numpy(), pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# Stratified sampling with an EXACT per-stratum quota: K docs per language
# by the deterministic md5 coin — the eval-set construction shape (equal
# representation per stratum regardless of stratum skew). Mergeable like
# the weighted reservoir above: per-batch per-stratum bottom-K partials,
# driver merge bounded by K x |strata| x batches.
# ---------------------------------------------------------------------------


_STRAT_K = 16


@register(
    "doc_stratified_sample",
    oracle=f"""
    WITH ranked AS (
        SELECT doc_id, lang,
               row_number() OVER (
                   PARTITION BY lang
                   ORDER BY {md5_hex15_sql("CAST(doc_id AS VARCHAR)")},
                            doc_id
               ) AS rnk
        FROM documents
    )
    SELECT doc_id, lang, CAST(rnk AS BIGINT) AS rnk
    FROM ranked WHERE rnk <= {_STRAT_K}
    """,
)
def doc_stratified_sample(sf_dir: str):
    """Exactly-K-per-stratum sample: rank within each language by the
    deterministic md5 coin (bottom-K of a union is the bottom-K of
    per-batch bottom-K's), so every batch ships at most K rows per
    stratum and the driver merge is quota-bounded, not data-bounded.
    Ranks are recomputed after the merge so the output carries the
    exact global per-stratum rank the oracle's row_number() assigns."""
    import ray.data

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        ids = batch["doc_id"].to_pylist()
        if not ids:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "lang": pa.array([], pa.string()),
                    "coin": pa.array([], pa.int64()),
                }
            )
        h = md5_hex15(map(str, ids))
        df = pd.DataFrame(
            {
                "doc_id": np.asarray(ids, np.int64),
                "lang": batch["lang"].to_pylist(),
                "coin": h,
            }
        )
        order = np.lexsort((df["doc_id"].to_numpy(), df["coin"].to_numpy()))
        df = df.iloc[order]
        keep = df.groupby("lang", sort=False).cumcount() < _STRAT_K
        return pa.Table.from_pandas(df[keep], preserve_index=False)

    parts = (
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
        )
        .map_batches(partial, batch_format="pyarrow")
        # bounded: <= K rows per (stratum, batch) by construction
        .to_pandas()
    )
    order = np.lexsort((parts["doc_id"].to_numpy(), parts["coin"].to_numpy()))
    parts = parts.iloc[order]
    parts["rnk"] = parts.groupby("lang", sort=False).cumcount() + 1
    top = parts[parts["rnk"] <= _STRAT_K]
    return pa.table(
        {
            "doc_id": pa.array(top["doc_id"].to_numpy(), pa.int64()),
            "lang": pa.array(top["lang"], pa.string()),
            "rnk": pa.array(top["rnk"].to_numpy(), pa.int64()),
        }
    )


@register(
    "corpus_tarzst_shard_ingest",
    oracle="""
    SELECT doc_id,
           CAST(octet_length(encode(text)) AS BIGINT) AS txt_bytes,
           CAST(length(text) AS BIGINT) AS n_chars_decoded,
           CAST(unicode(text) AS BIGINT) AS first_cp
    FROM documents
    """,
)
def corpus_tarzst_shard_ingest(sf_dir: str):
    """WebDataset-shaped shard ingest, end to end: documents ->
    .tar.zst shards on disk -> distributed read-back. The write stage
    packs each Arrow block into a tar (stdlib tarfile, one member per
    doc) and compresses it with pyarrow's zstd codec; the read stage
    fans shard paths out to tasks that stream each shard through
    pyarrow's zstd input stream and walk its members with stdlib
    tarfile — the ingest path of a multimodal corpus. Both sides are
    embarrassingly parallel (one file per fragment, no driver table
    beyond the path manifest); the shard dir is driver-created /tmp,
    so single-node/shared-FS like the orc/jsonl sinks (multi-node
    points at network storage)."""
    import os
    import tempfile

    import pyarrow as _pa_codec

    import ray.data

    with tempfile.TemporaryDirectory(prefix="tarzst_") as out_dir:
        def write_shard(batch: pa.Table) -> pa.Table:
            import io
            import tarfile as _tarfile

            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            buf = io.BytesIO()
            with _tarfile.open(
                fileobj=buf, mode="w", format=_tarfile.PAX_FORMAT
            ) as tf:
                for i, t in zip(ids, batch["text"].to_pylist()):
                    raw = (t or "").encode("utf-8")
                    info = _tarfile.TarInfo(f"{int(i):012d}.txt")
                    info.size = len(raw)
                    tf.addfile(info, io.BytesIO(raw))
            comp = bytes(_pa_codec.Codec("zstd", 3).compress(buf.getvalue()))
            path = os.path.join(out_dir, f"shard-{int(ids.min()):012d}.tar.zst")
            with open(path, "wb") as f:
                f.write(comp)
            return pa.table({"path": pa.array([path], pa.string())})

        paths = (
            ray.data.read_parquet(
                f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
            )
            .map_batches(write_shard, batch_format="pyarrow")
            .to_pandas()["path"]  # bounded: one path per shard
            .tolist()
        )

        def read_shard(batch: pa.Table) -> pa.Table:
            import tarfile as _tarfile

            ids, tbs, ncs, fcs = [], [], [], []
            for p in batch["path"].to_pylist():
                with pa.input_stream(p, compression="zstd") as f, _tarfile.open(
                    fileobj=f, mode="r|"
                ) as tf:
                    for m in tf:
                        text = tf.extractfile(m).read().decode("utf-8")
                        ids.append(int(m.name.split(".")[0]))
                        tbs.append(m.size)
                        # content-sensitive attest: decoded char count + first
                        # code point must match the oracle's length()/unicode()
                        ncs.append(len(text))
                        fcs.append(ord(text[0]) if text else -1)
            return pa.table(
                {
                    "doc_id": pa.array(np.asarray(ids, np.int64)),
                    "txt_bytes": pa.array(np.asarray(tbs, np.int64)),
                    "n_chars_decoded": pa.array(np.asarray(ncs, np.int64)),
                    "first_cp": pa.array(np.asarray(fcs, np.int64)),
                }
            )

        return ray.data.from_items(
            [{"path": p} for p in sorted(paths)]
        ).map_batches(read_shard, batch_format="pyarrow").materialize()
