"""Event stream basics: windowed aggregate, keep-latest, JSON props.

Split from pipelines/queries.py (round 4); registration side effects
only — import order is fixed by the package __init__.
"""
from __future__ import annotations

import numpy as np

import pyarrow as pa
import pyarrow.compute as pc

from sciscraper_ray.kernels.md5 import md5_hex15, md5_hex15_sql
from sciscraper_ray.pipelines.queries._shared import (
    cents,
    register,
)
from sciscraper_ray.stages.relational import group_count_batch


# --------------------------------------------------------------------------
# Events: windowed aggregate, keep-latest dedup, JSON scalar extraction
# (SURVEY §2.10 streaming-shaped + M23).
# --------------------------------------------------------------------------


def _hourly_type_counts(sf_dir: str):
    """Events per (event_type, hour) as a driver frame (event_type, hr, n)
    sorted by type, then hour. Per-batch Arrow partials and one
    groupby-Sum whose key space is |types| x |hours|: calendar-bounded,
    not data-bounded."""
    import ray.data
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        hr = pc.floor_temporal(b["ts"], unit="hour")
        t = pa.table({"event_type": b["event_type"], "hr": hr})
        return group_count_batch(t, ["event_type", "hr"], count="n")

    return (
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_type", "ts"]
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "hr"])
        .aggregate(Sum(on="n", alias_name="n"))
        .to_pandas()  # bounded: |types| x |hours|
        .sort_values(["event_type", "hr"], ignore_index=True)
    )


def _dense_hourly_counts(sf_dir: str):
    """(first hour, events per hour): the hourly event counts as a dense
    int64 series from the first to the last hour seen (epoch hours),
    empty hours 0. Only hour-grain partials cross the exchange."""
    import ray.data
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        h = b["ts"].to_numpy(zero_copy_only=False).astype("datetime64[h]")
        t = pa.table({"h": pa.array(h.astype(np.int64), pa.int64())})
        return group_count_batch(t, ["h"], count="c")

    hc = (
        ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("h")
        .aggregate(Sum(on="c", alias_name="c"))
        .to_pandas()  # bounded: calendar hours
    )
    h = hc["h"].to_numpy(np.int64)
    lo = int(h.min())
    dense = np.zeros(int(h.max()) - lo + 1, np.int64)
    dense[h - lo] = hc["c"].to_numpy(np.int64)
    return lo, dense


def _hourly_cents(sf_dir: str):
    """(first hour, value cents per hour): summed event value in cents
    per hour since 2024-01-01, as a dense int64 series from the first to
    the last hour seen, empty hours 0. Only hour-grain partials leave a
    batch."""
    import pandas as pd

    import ray.data

    epoch = np.datetime64("2024-01-01T00:00:00", "us").astype(np.int64)

    def partials(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch["ts"], pa.timestamp("us")).cast(pa.int64()).to_numpy()
        h = (ts - epoch) // 3_600_000_000
        df = (
            pd.DataFrame({"h": h, "x": cents(batch["value"])})
            .groupby("h", as_index=False)
            .sum()
        )
        return pa.Table.from_pandas(df, preserve_index=False)

    hourly = (
        ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "value"])
        .map_batches(partials, batch_format="pyarrow")
        .to_pandas()  # bounded: calendar hours x blocks
        .groupby("h", as_index=False)
        .sum()
    )
    h = hourly["h"].to_numpy(np.int64)
    h0 = int(h.min())
    x = np.zeros(int(h.max()) - h0 + 1, np.int64)
    x[h - h0] = hourly["x"].to_numpy(np.int64)
    return h0, x


def _click_view_cents(sf_dir: str):
    """Click and view events per value in cents, as a (cents, c1, c2)
    frame sorted by cents: c1 counts clicks, c2 views. Partials are
    bounded by the price domain (range x 100 points), not by rows."""
    import pandas as pd

    import ray.data

    def partials(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        keep = (et == "click") | (et == "view")
        g = (et[keep] == "click").astype(np.int64)
        df = (
            pd.DataFrame(
                {
                    "cents": cents(batch["value"].to_numpy(zero_copy_only=False)[keep]),
                    "c1": g,
                    "c2": 1 - g,
                }
            )
            .groupby("cents", as_index=False)
            .sum()
        )
        return pa.Table.from_pandas(df, preserve_index=False)

    return (
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_type", "value"]
        )
        .map_batches(partials, batch_format="pyarrow")
        .to_pandas()  # bounded: distinct value cents x blocks (fixture price domain)
        .groupby("cents", as_index=False)
        .sum()
        .sort_values("cents")
    )


@register(
    "host_tally_salted",
    oracle="""
    SELECT CASE WHEN doc_id % 10 < 3 THEN 'mega.example.org'
                WHEN 1 + doc_id % 5 = 1 THEN 'alpha.example.com'
                WHEN 1 + doc_id % 5 = 2 THEN 'beta.example.net'
                WHEN 1 + doc_id % 5 = 3 THEN 'gamma.example.io'
                WHEN 1 + doc_id % 5 = 4 THEN 'delta.example.edu'
                ELSE 'epsilon.example.dev' END AS host,
           count(*) AS cnt
    FROM documents GROUP BY host
    """,
)
def host_tally_salted(sf_dir: str):
    """North-rule skew handling made explicit: per-host page tally over the
    synthetic page table (one mega-host holds ~30% of urls) via the salted
    two-phase groupby — each hot key is spread over 16 reducers in phase 1
    and collapsed in a tiny phase-2 groupby."""
    from sciscraper_ray.stages.relational import salted_group_count

    # lazy: extraction registers after this module in package order
    from sciscraper_ray.pipelines.queries.extraction import _pages

    pages = _pages(sf_dir, pdf_mod=None, dup_mod=None)

    def host_of(batch: pa.Table) -> pa.Table:
        hosts = pc.replace_substring_regex(
            batch["url"], pattern=r"^https://([^/]+)/.*$", replacement=r"\1"
        )
        return pa.table({"host": hosts})

    return salted_group_count(
        pages.map_batches(host_of, batch_format="pyarrow"), "host", salts=16
    )


@register(
    "events_hourly",
    oracle="""
    SELECT event_type,
           date_trunc('hour', ts) AS window_start,
           count(*) AS cnt,
           round(sum(value), 6) AS sum_value
    FROM events
    GROUP BY event_type, date_trunc('hour', ts)
    """,
)
def events_hourly(sf_dir: str):
    """Tumbling 1-hour window per event_type as groupby over a derived
    window key — the Ray Data expression of a windowed aggregate."""
    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.append_column(
            "window_start", pc.floor_temporal(batch["ts"], unit="hour")
        )
        return group_count_batch(
            batch.drop_columns(["ts"]),
            ["event_type", "window_start"],
            {"value": "sum_value"},
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "window_start"])
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
    "events_keep_latest",
    oracle="""
    SELECT user_id, event_id, ts, event_type, value
    FROM (
        SELECT user_id, event_id, ts, event_type, value,
               row_number() OVER (
                   PARTITION BY user_id ORDER BY ts DESC, event_id DESC
               ) AS rn
        FROM events
    ) WHERE rn = 1
    """,
)
def events_keep_latest(sf_dir: str):
    """Keep-latest-per-key dedup (SURVEY §2.6 rebuild addition): per-batch
    partial keep-latest shrinks the shuffle to ≤1 row per (key, batch),
    then a grouped reduce picks the global latest."""
    import pandas as pd
    import ray.data

    from sciscraper_ray.stages.relational import keep_latest_batch

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "event_type", "value"],
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return keep_latest_batch(batch, "user_id", ["ts", "event_id"])

    return (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("user_id")
        .map_groups(
            lambda g: keep_latest_batch(g, "user_id", ["ts", "event_id"]),
            batch_format="pandas",
        )
    )


@register(
    "events_json_props",
    oracle="""
    SELECT event_type,
           count(*) AS cnt,
           CAST(sum(CAST(regexp_extract(props, '"k": (\\d+)', 1) AS BIGINT)) AS BIGINT) AS sum_k
    FROM events
    GROUP BY event_type
    """,
)
def events_json_props(sf_dir: str):
    """M23 analog: JSON scalar extraction from a string column, vectorized
    with pc.extract_regex, then a grouped sum."""
    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "props"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        extracted = pc.extract_regex(batch["props"], r'"k": (?P<k>\d+)')
        k = pc.cast(pc.struct_field(extracted, "k"), pa.int64())
        batch = pa.table({"event_type": batch["event_type"], "k": k})
        return group_count_batch(batch, ["event_type"], {"k": "sum_k"})

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Sum(on="cnt", alias_name="cnt"),
            Sum(on="sum_k", alias_name="sum_k"),
        )
    )




# --------------------------------------------------------------------------
# Mergeable histogram-quantile sketch — the single-pass scale path for
# percentiles. The exact quantile (lineitem_quantiles) sorts the column;
# this sketch streams ONE integer-count pass over fixed unit-width
# buckets and answers any quantile from the O(range/width) histogram —
# the mergeable-summary contract (t-digest/KLL shape) with deterministic
# integer state, so the oracle is exact rather than approximate-gated.

_QSKETCH_PCTS = (50, 90, 95, 99)


@register(
    "events_value_quantile_sketch",
    oracle=f"""
    WITH b AS (
        SELECT CAST(floor(value) AS BIGINT) AS bucket,
               CAST(count(*) AS BIGINT) AS cnt
        FROM events GROUP BY bucket
    ), tot AS (
        SELECT sum(cnt) AS n FROM b
    ), c AS (
        SELECT bucket, sum(cnt) OVER (ORDER BY bucket) AS cum FROM b
    ), qs AS (
        SELECT unnest({list(_QSKETCH_PCTS)}) AS q_pct
    )
    SELECT q_pct,
           CAST(ceil(q_pct * n / 100.0) AS BIGINT) AS rank_threshold,
           CAST(min(bucket) AS BIGINT) AS bucket
    FROM qs, c, tot
    WHERE c.cum >= ceil(q_pct * n / 100.0)
    GROUP BY q_pct, n
    """,
)
def events_value_quantile_sketch(sf_dir: str):
    """One streamed pass: per-batch integer bucket counts (unit-width
    floor buckets — exact floats floor identically on both engines), a
    bucket-cardinality-bounded groupby-Sum merge (the sketch state, NOT
    the rows, is what shuffles — O(value_range/width) integers per
    block), then every requested percentile answered from the cumulative
    histogram on the driver. At 10^12 events the pass is the same size;
    only the histogram merge grows with bucket count. Integer counts and
    thresholds end to end, so the check is exact."""
    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])

    def partial(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        buckets = np.floor(v).astype(np.int64)
        uniq, cnt = np.unique(buckets, return_counts=True)
        return pa.table(
            {
                "bucket": pa.array(uniq, pa.int64()),
                "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    hist = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum(on="cnt", alias_name="cnt"))
        .to_pandas()  # bounded: |buckets|
        .sort_values("bucket")
        .reset_index(drop=True)
    )
    cum = hist["cnt"].to_numpy(np.int64).cumsum()
    buckets = hist["bucket"].to_numpy(np.int64)
    n = int(cum[-1]) if len(cum) else 0
    rows = []
    for q in _QSKETCH_PCTS:
        thr = int(np.ceil(q * n / 100.0))
        idx = int(np.searchsorted(cum, thr))
        rows.append((q, thr, int(buckets[idx])))
    return pa.table(
        {
            "q_pct": pa.array([r[0] for r in rows], pa.int64()),
            "rank_threshold": pa.array([r[1] for r in rows], pa.int64()),
            "bucket": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


# --------------------------------------------------------------------------
# Sliding-window DISTINCT count — the non-additive window aggregate:
# distinct users over each trailing 3-hour window. Sums slide by pane
# addition (events_sliding); distincts cannot, so the plan reduces the
# stream to distinct (hour, user) pairs FIRST (the only full-data
# exchange, bounded by distinct pairs, not events), fans each pair out
# to the <=3 windows it can serve, re-distincts on (window, user) — a
# user active in two source hours of one window must count once — and
# counts per window.

_DISTINCT_WIN_H = 3
_US_PER_HOUR = 3_600_000_000


@register(
    "events_distinct_sliding",
    oracle=f"""
    WITH p AS (
        SELECT DISTINCT epoch_us(ts) // {_US_PER_HOUR} AS hour, user_id
        FROM events
    ), w AS (
        SELECT DISTINCT hour FROM p
    )
    SELECT w.hour,
           CAST(count(DISTINCT p.user_id) AS BIGINT) AS distinct_users_3h
    FROM w JOIN p ON p.hour BETWEEN w.hour - {_DISTINCT_WIN_H - 1} AND w.hour
    GROUP BY w.hour
    """,
)
def events_distinct_sliding(sf_dir: str):
    """Three bounded exchanges, none event-sized: (1) per-batch
    np.unique partials -> groupby count gives globally-distinct
    (hour, user) pairs; (2) each pair repeats into the {win} trailing
    windows it serves (vectorized), filtered to OBSERVED windows via a
    broadcast hour set (tiny), then re-distincted on (window, user);
    (3) integer count per window. Exchange sizes are distinct-pair
    bounded — at 10^12 events with 10^8 users x 10^3 hours the pair
    table is the 10^4x-smaller object that shuffles."""
    import ray
    import ray.data
    from ray.data.aggregate import Count, Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id"]
    )

    def pair_partial(batch: pa.Table) -> pa.Table:
        hour = (
            batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            // _US_PER_HOUR
        )
        user = batch["user_id"].to_numpy(zero_copy_only=False)
        uniq = np.unique(np.stack([hour, user], axis=1), axis=0)
        return pa.table(
            {
                "hour": pa.array(uniq[:, 0], pa.int64()),
                "user_id": pa.array(uniq[:, 1], pa.int64()),
            }
        )

    pairs = (
        ds.map_batches(pair_partial, batch_format="pyarrow")
        .groupby(["hour", "user_id"])
        .aggregate(Count(alias_name="n"))
    )

    # observed windows: tiny hour set, computed from the pair table and
    # broadcast (hours are bounded by the stream's time span)
    # bounded: |hours| (calendar span)
    hours = pairs.groupby("hour").aggregate(Count(alias_name="n")).to_pandas()
    observed_ref = ray.put(np.sort(hours["hour"].to_numpy(np.int64)))

    def fanout(batch: pa.Table) -> pa.Table:
        observed = ray.get(observed_ref)
        h = batch["hour"].to_numpy(zero_copy_only=False)
        u = batch["user_id"].to_numpy(zero_copy_only=False)
        win = (h[:, None] + np.arange(_DISTINCT_WIN_H)[None, :]).ravel()
        usr = np.repeat(u, _DISTINCT_WIN_H)
        keep = np.isin(win, observed)
        win, usr = win[keep], usr[keep]
        uniq = np.unique(np.stack([win, usr], axis=1), axis=0)
        return pa.table(
            {
                "hour": pa.array(uniq[:, 0], pa.int64()),
                "user_id": pa.array(uniq[:, 1], pa.int64()),
            }
        )

    wu = (
        pairs.map_batches(fanout, batch_format="pyarrow")
        .groupby(["hour", "user_id"])
        .aggregate(Count(alias_name="n"))
    )

    def count_partial(batch: pa.Table) -> pa.Table:
        h = batch["hour"].to_numpy(zero_copy_only=False)
        uniq, cnt = np.unique(h, return_counts=True)
        return pa.table(
            {
                "hour": pa.array(uniq, pa.int64()),
                "c": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    out = (
        wu.map_batches(count_partial, batch_format="pyarrow")
        .groupby("hour")
        .aggregate(Sum(on="c", alias_name="distinct_users_3h"))
    )
    return out

# --------------------------------------------------------------------------
# Audience overlap: distinct users shared by each event-type pair. The
# segmentation/co-occurrence primitive (market-basket over event types).
# --------------------------------------------------------------------------


@register(
    "events_user_overlap",
    oracle="""
    WITH d AS (SELECT DISTINCT user_id, event_type FROM events)
    SELECT a.event_type AS type_a, b.event_type AS type_b,
           count(*) AS users
    FROM d a JOIN d b ON a.user_id = b.user_id
                     AND a.event_type < b.event_type
    GROUP BY type_a, type_b
    """,
)
def events_user_overlap(sf_dir: str):
    """Co-occurrence counting without the quadratic self-join: per-batch
    distinct (user, type) shrinks the exchange to <= users*types rows,
    ONE shuffle co-locates each user's rows (bucketed, not per-user
    dispatch), and inside a bucket the pair counts for ALL its users are
    one boolean-matrix product B^T @ B (users x types incidence) — the
    self-join the oracle runs never materializes. Partial pair counts
    (<= types^2 rows per bucket) merge in a tiny final groupby."""
    import pandas as pd

    import ray.data

    from sciscraper_ray.stages.window import bucketed_window

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )

    def batch_distinct(b: pa.Table) -> pa.Table:
        return b.group_by(["user_id", "event_type"]).aggregate([])

    def bucket_overlap(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "event_type"])
        u_codes, _ = pd.factorize(g["user_id"], sort=False)
        t_codes, t_uniq = pd.factorize(g["event_type"], sort=True)
        m = np.zeros((u_codes.max() + 1, len(t_uniq)), dtype=np.int64)
        m[u_codes, t_codes] = 1
        co = m.T @ m
        ia, ib = np.triu_indices(len(t_uniq), k=1)
        cnt = co[ia, ib]
        keep = cnt > 0
        return pd.DataFrame(
            {
                "type_a": np.asarray(t_uniq)[ia[keep]],
                "type_b": np.asarray(t_uniq)[ib[keep]],
                "partial": cnt[keep],
            }
        )

    from ray.data.aggregate import Sum

    out = (
        bucketed_window(
            ds.map_batches(batch_distinct, batch_format="pyarrow"),
            bucket_overlap,
            key="user_id",
        )
        .groupby(["type_a", "type_b"])
        .aggregate(Sum(on="partial", alias_name="users"))
    )
    return out


# --------------------------------------------------------------------------
# k-anonymity / l-diversity audit over quasi-identifier groups — the
# privacy gate a curation pipeline runs before releasing event data.
# --------------------------------------------------------------------------

_KANON_K = 5
_KANON_L = 3


@register(
    "events_k_anonymity",
    oracle=f"""
    SELECT event_type, CAST(floor(value) AS BIGINT) AS band,
           count(*) AS cnt,
           count(DISTINCT user_id) AS users,
           (count(*) < {_KANON_K} OR count(DISTINCT user_id) < {_KANON_L})
               AS suppressed
    FROM events GROUP BY event_type, band
    """,
)
def events_k_anonymity(sf_dir: str):
    """Sweeney's k-anonymity plus l-diversity on the sensitive attribute
    (user_id): a quasi-identifier group (event_type, value band) is
    suppressed when it holds < k records or < l distinct users.

    The exact distinct count never ships raw rows: per-batch pre-agg to
    (type, band, user, partial_cnt), one groupby merges the partials
    (bounded by |types|*|bands|*|users|), a second per-batch fold turns
    each merged row-group into (users_partial, cnt_partial), and the
    final groupby is over the tiny QI-group table."""
    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value", "user_id"]
    )

    def qid_partial(b: pa.Table) -> pa.Table:
        band = pc.cast(pc.floor(b["value"]), pa.int64())
        t = pa.table(
            {
                "event_type": b["event_type"],
                "band": band,
                "user_id": b["user_id"],
            }
        )
        g = t.group_by(["event_type", "band", "user_id"]).aggregate(
            [("user_id", "count")]
        )
        return g.rename_columns(["event_type", "band", "user_id", "c"])

    per_user = (
        ds.map_batches(qid_partial, batch_format="pyarrow")
        .groupby(["event_type", "band", "user_id"])
        .aggregate(Sum(on="c", alias_name="cnt_u"))
    )

    def fold(b: pa.Table) -> pa.Table:
        g = b.group_by(["event_type", "band"]).aggregate(
            [("user_id", "count"), ("cnt_u", "sum")]
        )
        return g.rename_columns(["event_type", "band", "users_p", "cnt_p"])

    grouped = (
        per_user.map_batches(fold, batch_format="pyarrow")
        .groupby(["event_type", "band"])
        .aggregate(
            Sum(on="users_p", alias_name="users"),
            Sum(on="cnt_p", alias_name="cnt"),
        )
    )

    def finish(b: pa.Table) -> pa.Table:
        supp = pc.or_(
            pc.less(b["cnt"], _KANON_K), pc.less(b["users"], _KANON_L)
        )
        return pa.table(
            {
                "event_type": b["event_type"],
                "band": b["band"],
                "cnt": b["cnt"],
                "users": b["users"],
                "suppressed": supp,
            }
        )

    return grouped.map_batches(finish, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Welch's unequal-variance t-test between every event-type pair — the A/B
# significance readout an experimentation pipeline computes over metric
# streams (Welch 1947; the default two-sample test when variances differ).
# --------------------------------------------------------------------------


@register(
    "events_ab_welch",
    oracle="""
    WITH m AS (
        SELECT event_type, count(*) AS n, sum(value) AS s,
               sum(value * value) AS ss
        FROM events GROUP BY event_type
    ), st AS (
        SELECT event_type, n, s / n AS mean,
               (ss - s * s / n) / (n - 1) AS var
        FROM m
    )
    SELECT a.event_type AS type_a, b.event_type AS type_b,
           round((a.mean - b.mean) / sqrt(a.var / a.n + b.var / b.n), 6)
               AS t_stat,
           round(power(a.var / a.n + b.var / b.n, 2)
                 / (power(a.var / a.n, 2) / (a.n - 1)
                    + power(b.var / b.n, 2) / (b.n - 1)), 6) AS welch_df
    FROM st a JOIN st b ON a.event_type < b.event_type
    """,
)
def events_ab_welch(sf_dir: str):
    """Distributed two-sample testing from streamed moments: each batch
    contributes one (n, sum, sumsq) partial per event type (|types| rows
    per block — the exchange never scales with event volume), the tiny
    merged moment table yields mean/variance per arm, and all pair
    t-statistics + Welch-Satterthwaite dof come from one vectorized
    triu-index pass. Both engines evaluate the identical formula chain,
    so round(,6) pins the float comparison."""
    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )

    def moments(b: pa.Table) -> pa.Table:
        v = b["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        t = b["event_type"].to_numpy(zero_copy_only=False)
        import pandas as pd

        codes, uniq = pd.factorize(t, sort=True)
        return pa.table(
            {
                "event_type": pa.array(np.asarray(uniq)),
                "n_p": pa.array(np.bincount(codes).astype(np.int64)),
                "s_p": pa.array(np.bincount(codes, weights=v)),
                "ss_p": pa.array(np.bincount(codes, weights=v * v)),
            }
        )

    agg = (
        ds.map_batches(moments, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Sum(on="n_p", alias_name="n"),
            Sum(on="s_p", alias_name="s"),
            Sum(on="ss_p", alias_name="ss"),
        )
        .to_pandas()  # bounded: |event types|
        .sort_values("event_type")
    )
    n = agg["n"].to_numpy(np.float64)
    s = agg["s"].to_numpy(np.float64)
    ss = agg["ss"].to_numpy(np.float64)
    mean = s / n
    var = (ss - s * s / n) / (n - 1)
    ia, ib = np.triu_indices(len(agg), k=1)
    se2 = var[ia] / n[ia] + var[ib] / n[ib]
    t_stat = (mean[ia] - mean[ib]) / np.sqrt(se2)
    df = se2**2 / (
        (var[ia] / n[ia]) ** 2 / (n[ia] - 1)
        + (var[ib] / n[ib]) ** 2 / (n[ib] - 1)
    )
    types = agg["event_type"].to_numpy()
    return pa.table(
        {
            "type_a": pa.array(types[ia]),
            "type_b": pa.array(types[ib]),
            "t_stat": pa.array(np.round(t_stat, 6), pa.float64()),
            "welch_df": pa.array(np.round(df, 6), pa.float64()),
        }
    )


# --------------------------------------------------------------------------
# First-touch conversion attribution: every 'purchase' credits the event
# type of that user's FIRST-ever event — the standard acquisition-channel
# report; a real pipeline's channel column maps to event_type here.
# --------------------------------------------------------------------------


@register(
    "events_attribution_first_touch",
    oracle="""
    WITH firsts AS (
        SELECT user_id, event_type AS first_touch
        FROM (
            SELECT user_id, event_type,
                   row_number() OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                   ) AS rn
            FROM events
        ) WHERE rn = 1
    )
    SELECT f.first_touch, count(*) AS conversions
    FROM events e JOIN firsts f USING (user_id)
    WHERE e.event_type = 'purchase'
    GROUP BY first_touch
    """,
)
def events_attribution_first_touch(sf_dir: str):
    """One bucketed shuffle does BOTH sides of the oracle's join: inside
    a user bucket, a single lexsort by (user, ts, event_id) yields every
    user's first event via segment boundaries AND the per-user purchase
    counts via one boolean bincount — the per-user join never ships rows,
    and each bucket emits at most |types| partial credit rows."""
    import pandas as pd

    import ray.data
    from ray.data.aggregate import Sum

    from sciscraper_ray.stages.window import bucketed_window

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )

    def credit(g: pd.DataFrame) -> pd.DataFrame:
        u = g["user_id"].to_numpy(np.int64)
        ts = g["ts"].to_numpy("datetime64[us]").astype(np.int64)
        eid = g["event_id"].to_numpy(np.int64)
        et = g["event_type"].to_numpy()
        order = np.lexsort((eid, ts, u))
        us, ets = u[order], et[order]
        new_seg = np.r_[True, us[1:] != us[:-1]]
        starts = np.nonzero(new_seg)[0]
        first_touch = ets[starts]  # per-user first event type
        segid = np.cumsum(new_seg) - 1
        purchases = np.bincount(
            segid, weights=(ets == "purchase").astype(np.float64)
        ).astype(np.int64)
        keep = purchases > 0
        df = pd.DataFrame(
            {"first_touch": first_touch[keep], "partial": purchases[keep]}
        )
        return df.groupby("first_touch", as_index=False)["partial"].sum()

    return (
        bucketed_window(ds, credit, key="user_id")
        .groupby("first_touch")
        .aggregate(Sum(on="partial", alias_name="conversions"))
    )


# --------------------------------------------------------------------------
# FULL OUTER join canary: users active on one rare signal but not the
# other keep their row from either side (completes the join family:
# inner/left/anti/semi/asof/range/bucketed + outer).
# --------------------------------------------------------------------------


@register(
    "events_user_activity_fullouter",
    oracle="""
    WITH p AS (
        SELECT user_id, count(*) AS c FROM events
        WHERE event_type = 'purchase' AND value > 200 GROUP BY user_id
    ), er AS (
        SELECT user_id, count(*) AS c FROM events
        WHERE event_type = 'error' AND value < 8 GROUP BY user_id
    )
    SELECT COALESCE(p.user_id, er.user_id) AS user_id,
           CAST(COALESCE(p.c, 0) AS BIGINT) AS big_purchases,
           CAST(COALESCE(er.c, 0) AS BIGINT) AS bad_errors
    FROM p FULL OUTER JOIN er ON p.user_id = er.user_id
    """,
)
def events_user_activity_fullouter(sf_dir: str):
    """Distributed FULL OUTER join via the bucketed co-partition plan
    (stages/relational.py bucketed_hash_join how="outer" — hash
    partitioning is key-complete per bucket, so full-outer semantics
    compose bucket-by-bucket). Both sides pre-reduce to per-user counts
    before the one exchange; the rare-signal filters (>200-value
    purchases, <8-value errors) keep both sides non-empty at every sf
    and the error-only population large, so the outer path is actually
    exercised (per-type value ranges differ by sf — thresholds probed
    against all three fixtures)."""
    import ray.data
    from ray.data.aggregate import Sum

    from sciscraper_ray.stages.relational import bucketed_hash_join

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "value"]
    )

    def side(event_type: str, pred, uid_name: str, cnt_name: str):
        def partial(b: pa.Table) -> pa.Table:
            mask = pc.and_(pc.equal(b["event_type"], event_type), pred(b))
            t = b.filter(mask)
            g = t.group_by(["user_id"]).aggregate([("user_id", "count")])
            return g.rename_columns([uid_name, "c"])

        return (
            ds.map_batches(partial, batch_format="pyarrow")
            .groupby(uid_name)
            .aggregate(Sum(on="c", alias_name=cnt_name))
        )

    purchases = side(
        "purchase", lambda b: pc.greater(b["value"], 200), "uid_p", "cp"
    )
    errors = side("error", lambda b: pc.less(b["value"], 8), "uid_e", "ce")

    joined = bucketed_hash_join(
        purchases, errors, left_on="uid_p", right_on="uid_e",
        num_buckets=32, how="outer",
    )

    def finish(b: pa.Table) -> pa.Table:
        uid = pc.coalesce(b["uid_p"], b["uid_e"])
        return pa.table(
            {
                "user_id": uid,
                "big_purchases": pc.coalesce(
                    b["cp"], pa.scalar(0, pa.int64())
                ),
                "bad_errors": pc.coalesce(b["ce"], pa.scalar(0, pa.int64())),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Inter-arrival gap statistics per user — the engagement-cadence /
# churn-risk signal (and the load model a capacity planner fits).
# --------------------------------------------------------------------------


@register(
    "events_gap_stats",
    oracle="""
    WITH g AS (
        SELECT user_id,
               date_diff('microsecond', lag(ts) OVER w, ts) AS gap_us
        FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
    )
    SELECT user_id, count(gap_us) AS n_gaps,
           CAST(sum(gap_us) AS DOUBLE) / 1000000.0 / count(gap_us)
               AS mean_gap_s,
           CAST(max(gap_us) AS DOUBLE) / 1000000.0 AS max_gap_s
    FROM g WHERE gap_us IS NOT NULL GROUP BY user_id
    """,
)
def events_gap_stats(sf_dir: str):
    """Per-user inter-arrival gaps WITHOUT per-user dispatch: the shared
    bucketed_window plan, one lexsort by (user, ts, event_id) per bucket,
    gaps = one np.diff with segment boundaries masked out, and the three
    aggregates come from reduceat over segment offsets. Single-event
    users drop out on both engines (no gaps)."""
    import pandas as pd

    import ray.data

    from sciscraper_ray.stages.window import bucketed_window

    def gaps(g: pd.DataFrame) -> pd.DataFrame:
        u = g["user_id"].to_numpy(np.int64)
        ts = g["ts"].to_numpy("datetime64[us]").astype(np.int64)
        eid = g["event_id"].to_numpy(np.int64)
        order = np.lexsort((eid, ts, u))
        us, tss = u[order], ts[order]
        if len(us) < 2:
            return pd.DataFrame(
                {
                    "user_id": np.empty(0, np.int64),
                    "n_gaps": np.empty(0, np.int64),
                    "mean_gap_s": np.empty(0, np.float64),
                    "max_gap_s": np.empty(0, np.float64),
                }
            )
        d = np.diff(tss)  # exact integer microseconds
        same = us[1:] == us[:-1]
        # segment slices over the gap array: gaps for user segment
        # [s, e) in row space live at [s, e-1) in diff space
        new_seg = np.r_[True, ~same]
        starts = np.nonzero(new_seg)[0]
        ends = np.r_[starts[1:], len(us)]
        keep = (ends - starts) >= 2
        s2, e2 = starts[keep], ends[keep] - 1
        sums_us = np.add.reduceat(np.where(same, d, 0), s2)
        maxs_us = np.maximum.reduceat(np.where(same, d, np.int64(-1)), s2)
        n = (e2 - s2).astype(np.int64)
        # integer-exact microsecond sums make the float path identical
        # on both engines: (sum_us / 1e6) / n, NO trailing round — a 6dp
        # round here hit the banker's-vs-half-away divergence at sf0.1
        # (scale-stress sweep r5); the unrounded doubles are bit-identical
        return pd.DataFrame(
            {
                "user_id": us[s2],
                "n_gaps": n,
                "mean_gap_s": sums_us.astype(np.float64) / 1e6 / n,
                "max_gap_s": maxs_us.astype(np.float64) / 1e6,
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id"]
    )
    return bucketed_window(ds, gaps, key="user_id")


# --------------------------------------------------------------------------
# Stationary distribution of the behavior Markov chain — where user
# sessions spend their time in the long run (the steady-state companion
# to events_type_transitions).
# --------------------------------------------------------------------------

_MARKOV_ITERS = 8


def _markov_sql(iters: int = _MARKOV_ITERS) -> str:
    ctes = [
        """seq AS (
        SELECT event_type,
               lag(event_type) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id
               ) AS prev
        FROM events
    )""",
        "t AS (SELECT prev AS f, event_type AS tt, count(*) AS c FROM seq WHERE prev IS NOT NULL GROUP BY f, tt)",
        "rows_ AS (SELECT f, sum(c) AS tot FROM t GROUP BY f)",
        "p AS (SELECT t.f, t.tt, t.c / rows_.tot AS p FROM t JOIN rows_ USING (f))",
        "n AS (SELECT CAST(count(*) AS DOUBLE) AS k FROM rows_)",
        "pi0 AS (SELECT f AS state, 1.0 / (SELECT k FROM n) AS pr FROM rows_)",
    ]
    for k in range(1, iters + 1):
        ctes.append(
            f"pi{k} AS (SELECT p.tt AS state, sum(pi{k - 1}.pr * p.p) AS pr "
            f"FROM pi{k - 1} JOIN p ON p.f = pi{k - 1}.state GROUP BY p.tt)"
        )
    return (
        "WITH "
        + ",\n    ".join(ctes)
        + f"\n    SELECT state, round(pr, 6) AS prob FROM pi{iters}"
    )


@register("events_markov_stationary", oracle=_markov_sql())
def events_markov_stationary(sf_dir: str):
    """Fixed-K power iteration over the row-normalized transition matrix
    (pi' = pi P, 8 rounds from uniform): the transition counts come from
    the SAME bucketed-window plan as events_type_transitions (exchange
    bounded by |types|^2), and the iteration itself is |types|x|types|
    driver math — the distributed work is the counting, exactly as in
    the oracle's unrolled CTE chain. Matrix entries are exact integer
    ratios, so both engines iterate identical doubles."""
    import ray.data
    from ray.data.aggregate import Sum

    from sciscraper_ray.stages.window import (
        bucket_type_transitions,
        bucketed_window,
    )

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )
    counts = (
        bucketed_window(ds, bucket_type_transitions)
        .groupby(["from_type", "to_type"])
        .aggregate(Sum(on="cnt", alias_name="cnt"))
        .to_pandas()  # bounded: |types|^2 rows
    )
    import pandas as pd

    states = sorted(set(counts["from_type"]) | set(counts["to_type"]))
    idx = {s: i for i, s in enumerate(states)}
    k = len(states)
    mat = np.zeros((k, k), np.float64)
    for f, tt, c in zip(counts["from_type"], counts["to_type"], counts["cnt"]):
        mat[idx[f], idx[tt]] = c
    rowtot = mat.sum(axis=1)
    has_out = rowtot > 0
    p = np.zeros_like(mat)
    p[has_out] = mat[has_out] / rowtot[has_out, None]
    pi = np.where(has_out, 1.0 / has_out.sum(), 0.0)
    for _ in range(_MARKOV_ITERS):
        pi = pi @ p
    emit = sorted(set(counts["to_type"]))
    return pa.table(
        {
            "state": pa.array(emit),
            "prob": pa.array(
                np.round([pi[idx[s]] for s in emit], 6), pa.float64()
            ),
        }
    )


# --------------------------------------------------------------------------
# Funnel latency: per-user time from first signup to first subsequent
# purchase — the time-to-convert table a growth team slices daily.
# --------------------------------------------------------------------------


@register(
    "events_time_to_convert",
    oracle="""
    WITH s AS (
        SELECT user_id, min(ts) AS ts0 FROM events
        WHERE event_type = 'signup' GROUP BY user_id
    ), p AS (
        SELECT s.user_id, s.ts0, min(e.ts) AS ts1
        FROM s JOIN events e
          ON e.user_id = s.user_id
         AND e.event_type = 'purchase' AND e.ts >= s.ts0
        GROUP BY s.user_id, s.ts0
    )
    SELECT user_id,
           round(CAST(date_diff('microsecond', ts0, ts1) AS DOUBLE)
                 / 1000000.0, 6) AS convert_s
    FROM p
    """,
)
def events_time_to_convert(sf_dir: str):
    """Both funnel endpoints in ONE bucketed shuffle: inside a user
    bucket, a single lexsort by (user, ts) gives first-signup via
    segment-min over the signup mask and first-qualifying-purchase via a
    masked running comparison — the oracle's self-join never runs. The
    microsecond difference stays integer until one final division, so
    the rounded seconds are engine-identical."""
    import pandas as pd

    import ray.data

    from sciscraper_ray.stages.window import bucketed_window

    def convert(g: pd.DataFrame) -> pd.DataFrame:
        u = g["user_id"].to_numpy(np.int64)
        ts = g["ts"].to_numpy("datetime64[us]").astype(np.int64)
        et = g["event_type"].to_numpy()
        order = np.lexsort((ts, u))
        us, tss, ets = u[order], ts[order], et[order]
        new_seg = np.r_[True, us[1:] != us[:-1]]
        segid = np.cumsum(new_seg) - 1
        nseg = segid[-1] + 1 if len(us) else 0
        big = np.iinfo(np.int64).max
        ts0 = np.full(nseg, big)
        m_s = ets == "signup"
        np.minimum.at(ts0, segid[m_s], tss[m_s])
        ts1 = np.full(nseg, big)
        m_p = ets == "purchase"
        # first purchase at/after the user's first signup
        ok = m_p & (ts0[segid] != big) & (tss >= ts0[segid])
        np.minimum.at(ts1, segid[ok], tss[ok])
        keep = (ts0 != big) & (ts1 != big)
        starts = np.nonzero(new_seg)[0]
        return pd.DataFrame(
            {
                "user_id": us[starts][keep],
                "convert_s": np.round(
                    (ts1[keep] - ts0[keep]).astype(np.float64) / 1e6, 6
                ),
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
    )
    return bucketed_window(ds, convert, key="user_id")


# --------------------------------------------------------------------------
# RFM segmentation: per-user recency/frequency/monetary plus exact
# NTILE(4) quartiles via the rank-offset histogram trick (no global sort).
# --------------------------------------------------------------------------


@register(
    "events_rfm",
    oracle="""
    WITH per AS (
        SELECT user_id,
               count(*) AS frequency,
               max(epoch_us(ts)) AS last_us,
               CAST(sum(CASE WHEN event_type = 'purchase'
                        THEN CAST(round(value * 100) AS BIGINT)
                        ELSE 0 END) AS BIGINT) AS monetary_c
        FROM events GROUP BY user_id
    ), g AS (SELECT max(last_us) AS gmax FROM per)
    SELECT user_id, frequency, monetary_c,
           (g.gmax - last_us) // 86400000000 AS recency_d,
           CAST(ntile(4) OVER (
               ORDER BY (g.gmax - last_us) // 86400000000, user_id
           ) AS BIGINT) AS r_quartile,
           CAST(ntile(4) OVER (ORDER BY frequency, user_id) AS BIGINT)
               AS f_quartile
    FROM per, g
    """,
)
def events_rfm(sf_dir: str):
    """RFM (recency / frequency / monetary) user segmentation with exact
    NTILE(4) quartiles and NO global sort: per-batch partials reduce the
    one all-to-all to user cardinality; each quartile is assigned from a
    value histogram (distinct recency days <= the crawl's day span,
    distinct frequencies <= max events/user — both tiny) whose cumsum
    gives every row its global rank, the same rank-offset plan as
    doc_ntile (round2.py). Money stays integer cents; recency is exact
    integer epoch-us floor-division on both engines."""
    import ray.data
    from ray.data.aggregate import Max, Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type", "value"],
    )

    def partial(b: pa.Table) -> pa.Table:
        us = b["ts"].cast(pa.int64())
        mon = np.where(
            pc.equal(b["event_type"], "purchase").to_numpy(
                zero_copy_only=False
            ),
            cents(b["value"]),
            0,
        )
        t = pa.table(
            {"user_id": b["user_id"], "us": us, "mon": pa.array(mon, pa.int64())}
        )
        return group_count_batch(
            t,
            ["user_id"],
            {"mon": "mon_p"},
            count="cnt_p",
            aggs={"us_p": ("us", "max")},
        )

    per = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(
            Sum(on="cnt_p", alias_name="frequency"),
            Max(on="us_p", alias_name="last_us"),
            Sum(on="mon_p", alias_name="monetary_c"),
        )
        .materialize()  # bounded by |users|; reused 4x below
    )
    gmax = int(per.max("last_us"))

    def add_recency(b: pa.Table) -> pa.Table:
        rec = (gmax - b["last_us"].to_numpy(zero_copy_only=False)) // 86400000000
        return pa.table(
            {
                "user_id": b["user_id"],
                "frequency": b["frequency"],
                "monetary_c": b["monetary_c"],
                "recency_d": pa.array(rec, pa.int64()),
            }
        )

    per = per.map_batches(add_recency, batch_format="pyarrow").materialize()

    def _offsets(metric: str):
        parts = per.map_batches(
            lambda b, m=metric: group_count_batch(b, [m]),
            batch_format="pyarrow",
        ).to_pandas()  # bounded: |distinct metric values|
        h = parts.groupby(metric)["cnt"].sum().sort_index()
        return dict(zip(h.index, h.cumsum().shift(fill_value=0))), int(h.sum())

    def _ntile_rule(n: int, k: int = 4):
        q, r = divmod(n, k)

        def rule(rank: np.ndarray) -> np.ndarray:
            big = r * (q + 1)
            lo = (rank - 1) // (q + 1) + 1
            hi = r + (rank - 1 - big) // q + 1 if q else lo
            return np.where(rank <= big, lo, hi).astype(np.int64)

        return rule

    def _assign(ds_in, metric: str, out_col: str):
        offs, n = _offsets(metric)
        rule = _ntile_rule(n)

        def tile(g):
            import pandas as pd

            g = g.sort_values("user_id")
            v = g[metric].iloc[0]
            rank = offs[v] + np.arange(1, len(g) + 1, dtype=np.int64)
            g = g.copy()
            g[out_col] = rule(rank)
            return g

        return ds_in.groupby(metric).map_groups(tile, batch_format="pandas")

    out = _assign(per, "recency_d", "r_quartile")
    out = _assign(out, "frequency", "f_quartile")
    return out


# --------------------------------------------------------------------------
# Burst detection: per-user max events in any 1-minute tumbling window.
# --------------------------------------------------------------------------


@register(
    "events_minute_burst",
    oracle="""
    WITH w AS (
        SELECT user_id, epoch_us(ts) // 60000000 AS m, count(*) AS c
        FROM events GROUP BY user_id, m
    )
    SELECT user_id, max(c) AS max_per_min, count(*) AS active_minutes
    FROM w GROUP BY user_id
    """,
)
def events_minute_burst(sf_dir: str):
    """Rate-limit / burst audit: max events in any 1-minute tumbling
    window plus distinct active minutes, per user. Two bounded
    exchanges: (user, minute) pair counts (pre-reduced per batch — the
    pair stream is what actually crosses the wire, never raw events),
    then a per-user roll-up whose partials combine as (max of maxes,
    sum of counts). Window id is exact integer epoch-us division on
    both engines."""
    import ray.data
    from ray.data.aggregate import Max, Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )

    def pair_partial(b: pa.Table) -> pa.Table:
        m = b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False) // 60000000
        t = pa.table({"user_id": b["user_id"], "m": pa.array(m, pa.int64())})
        return group_count_batch(t, ["user_id", "m"], count="c")

    pairs = (
        ds.map_batches(pair_partial, batch_format="pyarrow")
        .groupby(["user_id", "m"])
        .aggregate(Sum(on="c", alias_name="c"))
    )

    def user_partial(b: pa.Table) -> pa.Table:
        return group_count_batch(
            b, ["user_id"], count="am_p", aggs={"mx_p": ("c", "max")}
        )

    return (
        pairs.map_batches(user_partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(
            Max(on="mx_p", alias_name="max_per_min"),
            Sum(on="am_p", alias_name="active_minutes"),
        )
    )


# --------------------------------------------------------------------------
# Cohort LTV: revenue by signup-week cohort x weeks-since-signup — the
# lifetime-value triangle every growth report is built from.
# --------------------------------------------------------------------------


@register(
    "events_cohort_ltv",
    oracle="""
    WITH first AS (
        SELECT user_id, min(epoch_us(ts)) AS f FROM events GROUP BY user_id
    )
    SELECT f // 604800000000 AS cohort_week,
           (epoch_us(e.ts) - f) // 604800000000 AS age_weeks,
           CAST(sum(CASE WHEN e.event_type = 'purchase'
                    THEN CAST(round(e.value * 100) AS BIGINT)
                    ELSE 0 END) AS BIGINT) AS revenue_c,
           count(*) AS n_events
    FROM events e JOIN first USING (user_id)
    GROUP BY cohort_week, age_weeks
    """,
)
def events_cohort_ltv(sf_dir: str):
    """Cohort lifetime-value triangle: users cohorted by first-seen week,
    revenue and activity tallied per (cohort_week, weeks-since-first).
    First-seen timestamps reduce per batch to (user, min) partials (one
    user-bounded groupby-Min), rejoin the stream via the bucketed
    co-partitioned hash join (big x big: at web scale the user table
    doesn't broadcast), and the final exchange is the tiny (cohorts x
    ages) cell table. Week ids are exact integer epoch-us division;
    money stays integer cents."""
    import ray.data
    from ray.data.aggregate import Min, Sum

    from sciscraper_ray.stages.relational import bucketed_hash_join

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type", "value"],
    )

    def first_partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {"user_id": b["user_id"], "us": b["ts"].cast(pa.int64())}
        )
        g = t.group_by("user_id").aggregate([("us", "min")])
        return g.rename_columns(["user_id", "us"])

    first = (
        ds.map_batches(first_partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Min(on="us", alias_name="f"))
    )

    def with_us(b: pa.Table) -> pa.Table:
        cts = np.where(
            pc.equal(b["event_type"], "purchase").to_numpy(
                zero_copy_only=False
            ),
            cents(b["value"]),
            0,
        )
        return pa.table(
            {
                "uid": b["user_id"],
                "us": b["ts"].cast(pa.int64()),
                "cents": pa.array(cts, pa.int64()),
            }
        )

    joined = bucketed_hash_join(
        ds.map_batches(with_us, batch_format="pyarrow"),
        first,
        left_on="uid",
        right_on="user_id",
    )

    WEEK = 604800000000

    def cell_partial(b: pa.Table) -> pa.Table:
        f = b["f"].to_numpy(zero_copy_only=False)
        us = b["us"].to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "cohort_week": pa.array(f // WEEK, pa.int64()),
                "age_weeks": pa.array((us - f) // WEEK, pa.int64()),
                "cents": b["cents"],
            }
        )
        return group_count_batch(
            t, ["cohort_week", "age_weeks"], {"cents": "rev_p"}, count="n_p"
        )

    return (
        joined.map_batches(cell_partial, batch_format="pyarrow")
        .groupby(["cohort_week", "age_weeks"])
        .aggregate(
            Sum(on="rev_p", alias_name="revenue_c"),
            Sum(on="n_p", alias_name="n_events"),
        )
    )


# --------------------------------------------------------------------------
# Sequence pattern mining: corpus-wide event-type TRIGRAM counts in
# per-user (ts, event_id) order — one bucketed-window pass.
# --------------------------------------------------------------------------


@register(
    "events_top_trigrams",
    oracle="""
    WITH seq AS (
        SELECT event_type,
               lag(event_type, 1) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id) AS p1,
               lag(event_type, 2) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id) AS p2
        FROM events
    )
    SELECT p2 AS t1, p1 AS t2, event_type AS t3, count(*) AS cnt
    FROM seq WHERE p2 IS NOT NULL
    GROUP BY t1, t2, t3
    ORDER BY cnt DESC, t1, t2, t3
    LIMIT 25
    """,
)
def events_top_trigrams(sf_dir: str):
    """Behavioral trigram mining (the k=3 sequence-pattern table next-
    action models train on): per-user ordered event-type windows of 3,
    tallied corpus-wide. Same bucketed-window plan as
    events_type_transitions — one shuffle on user_id % B, in-bucket
    lexsort, two shifted compares with user-boundary masking — and each
    bucket emits partials bounded by |types|^3, so the final exchange is
    constant-size."""
    import ray.data
    from ray.data.aggregate import Sum

    from sciscraper_ray.stages.window import _sorted_bucket, bucketed_window

    def trigrams(g):
        import pandas as pd

        order, user_s, _ts, _eid, new_user = _sorted_bucket(g)
        et = g["event_type"].to_numpy()[order]
        n = len(et)
        if n < 3:
            return pd.DataFrame({"t1": [], "t2": [], "t3": [], "cnt": []})
        # position i closes a trigram iff i-1 and i are not user starts
        # and i-2 exists in the same user run
        valid = np.zeros(n, dtype=bool)
        valid[2:] = ~new_user[2:] & ~new_user[1:-1]
        idx = np.flatnonzero(valid)
        out = (
            pd.DataFrame(
                {"t1": et[idx - 2], "t2": et[idx - 1], "t3": et[idx]}
            )
            .value_counts()
            .rename("cnt")
            .reset_index()
        )
        return out

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )
    return (
        bucketed_window(ds, trigrams)
        .groupby(["t1", "t2", "t3"])
        .aggregate(Sum(on="cnt", alias_name="cnt"))
        .sort(key=["cnt", "t1", "t2", "t3"], descending=[True, False, False, False])
        .limit(25)
    )


@register(
    "events_hour_of_week",
    oracle="""
    SELECT event_type,
           CAST(dayofweek(ts) AS BIGINT) AS dow,
           CAST(hour(ts) AS BIGINT) AS hod,
           CAST(count(*) AS BIGINT) AS n_events,
           CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
               AS value_cents
    FROM events
    GROUP BY event_type, dow, hod
    """,
)
def events_hour_of_week(sf_dir: str):
    """Hour-of-week seasonality profile: event count and value per
    (event_type, day-of-week, hour-of-day) cell — the 7x24 heatmap a
    traffic dashboard draws. Day-of-week parity is pinned to DuckDB's
    dayofweek() (0 = Sunday): epoch-days + 4 mod 7 (1970-01-01 was a
    Thursday). Value sums are cents integers. One exchange: the
    type x 168-cell groupby over per-batch partials."""
    import ray.data
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        ts = b["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        us = ts.astype(np.int64)
        days = us // 86_400_000_000
        dow = (days + 4) % 7
        hod = (us % 86_400_000_000) // 3_600_000_000
        t = pa.table(
            {
                "event_type": b["event_type"],
                "dow": pa.array(dow, pa.int64()),
                "hod": pa.array(hod, pa.int64()),
                "cents": pa.array(cents(b["value"]), pa.int64()),
            }
        )
        return group_count_batch(
            t,
            ["event_type", "dow", "hod"],
            {"cents": "value_cents"},
            count="n_events",
        )

    return (
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "dow", "hod"])
        .aggregate(
            Sum(on="n_events", alias_name="n_events"),
            Sum(on="value_cents", alias_name="value_cents"),
        )
    )


@register(
    "events_streak_longest",
    oracle="""
    WITH days AS (
        SELECT DISTINCT user_id,
               CAST(datediff('day', DATE '1970-01-01', CAST(ts AS DATE))
                    AS BIGINT) AS d
        FROM events
    ), r AS (
        SELECT user_id, d,
               d - row_number() OVER (PARTITION BY user_id ORDER BY d) AS grp
        FROM days
    ), s AS (
        SELECT user_id, count(*) AS len FROM r GROUP BY user_id, grp
    )
    SELECT user_id, CAST(max(len) AS BIGINT) AS longest_streak,
           CAST(count(*) AS BIGINT) AS n_streaks
    FROM s GROUP BY user_id
    """,
)
def events_streak_longest(sf_dir: str):
    """Longest consecutive-active-day streak per user — the classic
    gaps-and-islands window, on the bucketed-vectorized plan (ONE
    shuffle on user-hash buckets, never a per-user map_groups): within a
    bucket, lexsort (user, day), distinct-day mask, run boundaries where
    the day delta != 1 or the user changes, run lengths via flatnonzero
    diff, then per-user max/count via one Arrow group_by per bucket.
    Users are whole within a bucket, so bucket outputs are final — no
    second exchange."""
    import ray.data

    from sciscraper_ray.stages.window import bucketed_window

    def kernel(g):
        import pandas as pd

        user = g["user_id"].to_numpy()
        day = (
            g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
            // 86_400_000_000
        )
        order = np.lexsort((day, user))
        user_s, day_s = user[order], day[order]
        uniq = np.ones(len(user_s), bool)
        uniq[1:] = (user_s[1:] != user_s[:-1]) | (day_s[1:] != day_s[:-1])
        user_u, day_u = user_s[uniq], day_s[uniq]
        if len(user_u) == 0:
            return pd.DataFrame(
                {
                    "user_id": np.array([], user.dtype),
                    "longest_streak": np.array([], np.int64),
                    "n_streaks": np.array([], np.int64),
                }
            )
        new_run = np.ones(len(user_u), bool)
        new_run[1:] = (user_u[1:] != user_u[:-1]) | (
            day_u[1:] != day_u[:-1] + 1
        )
        starts = np.flatnonzero(new_run)
        lens = np.diff(np.append(starts, len(user_u)))
        run_user = user_u[starts]
        t = pa.table(
            {
                "user_id": pa.array(run_user, pa.int64()),
                "len": pa.array(lens, pa.int64()),
            }
        )
        return group_count_batch(
            t, ["user_id"], count="n_streaks", aggs={"longest_streak": ("len", "max")}
        ).to_pandas()  # bounded: worker-side kernel return

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return bucketed_window(ds, kernel).map_batches(
        lambda b: b.select(["user_id", "longest_streak", "n_streaks"]),
        batch_format="pyarrow",
    )


@register(
    "events_cart_abandonment",
    oracle="""
    WITH o AS (
        SELECT user_id, ts, event_id, event_type,
               CASE WHEN lag(ts) OVER w IS NULL
                         OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                    THEN 1 ELSE 0 END AS new_s
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
    ), s AS (
        SELECT user_id, event_type,
               sum(new_s) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id
                   ROWS UNBOUNDED PRECEDING
               ) AS sid
        FROM o
    ), agg AS (
        SELECT user_id, sid,
               max(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS v,
               max(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS p
        FROM s GROUP BY user_id, sid
    )
    SELECT user_id, CAST(count(*) AS BIGINT) AS n_sessions,
           CAST(count(*) FILTER (v = 1 AND p = 0) AS BIGINT) AS n_abandoned
    FROM agg GROUP BY user_id
    """,
)
def events_cart_abandonment(sf_dir: str):
    """Browse-abandonment per user: sessions (30-min gap, the
    events_sessionize convention) that contain a 'view' but no
    'purchase'. Bucketed-vectorized plan: one user-hash shuffle, then
    per bucket — lexsort, session boundaries via shifted diff, per-
    session view/purchase flags via np.logical_or.reduceat on session
    segments, per-user tallies via one Arrow group_by. Users are whole
    within a bucket, so bucket outputs are final."""
    import ray.data

    from sciscraper_ray.stages.window import (
        _sorted_bucket,
        bucketed_window,
        session_boundaries,
    )

    GAP_US = 30 * 60 * 1_000_000

    def kernel(g):
        import pandas as pd

        if len(g) == 0:
            return pd.DataFrame(
                {
                    "user_id": np.array([], np.int64),
                    "n_sessions": np.array([], np.int64),
                    "n_abandoned": np.array([], np.int64),
                }
            )
        order, user_s, ts_s, _, new_user = _sorted_bucket(g)
        et_s = g["event_type"].to_numpy()[order]
        _, _, s_start, _ = session_boundaries(user_s, ts_s, new_user, GAP_US)
        has_view = np.logical_or.reduceat(et_s == "view", s_start)
        has_purch = np.logical_or.reduceat(et_s == "purchase", s_start)
        abandoned = has_view & ~has_purch
        t = pa.table(
            {
                "user_id": pa.array(user_s[s_start], pa.int64()),
                "ab": pa.array(abandoned.astype(np.int64), pa.int64()),
            }
        )
        return group_count_batch(
            t, ["user_id"], {"ab": "n_abandoned"}, count="n_sessions"
        ).to_pandas()  # bounded: worker-side kernel return

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )
    return bucketed_window(ds, kernel).map_batches(
        lambda b: b.select(["user_id", "n_sessions", "n_abandoned"]),
        batch_format="pyarrow",
    )


@register(
    "events_peak_concurrency",
    oracle="""
    WITH o AS (
        SELECT user_id, ts, event_id,
               CASE WHEN lag(ts) OVER w IS NULL
                         OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                    THEN 1 ELSE 0 END AS new_s
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
    ), sx AS (
        SELECT user_id, ts,
               sum(new_s) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id
                   ROWS UNBOUNDED PRECEDING
               ) AS sid
        FROM o
    ), sess AS (
        SELECT user_id, sid, min(ts) AS s_start, max(ts) AS s_end
        FROM sx GROUP BY user_id, sid
    ), b AS (
        SELECT s_start AS t, 1 AS d FROM sess
        UNION ALL
        SELECT s_end, -1 FROM sess
    ), r AS (
        SELECT t, sum(d) OVER (ORDER BY t, d ROWS UNBOUNDED PRECEDING) AS c
        FROM b
    )
    SELECT CAST(datediff('day', DATE '1970-01-01', CAST(t AS DATE)) AS BIGINT)
               AS day,
           CAST(max(c) AS BIGINT) AS peak_concurrent
    FROM r GROUP BY day
    """,
)
def events_peak_concurrency(sf_dir: str):
    """Peak concurrent sessions per day — the capacity number an ops
    dashboard quotes. Interval algebra as a segmented scan: sessions
    (30-min gap) emit +1/-1 boundary deltas (end-exclusive: at an equal
    instant the -1 sorts first, DuckDB's ORDER BY t, d tie rule); each
    DAY partition reduces independently to (net delta, running max,
    max prefix) — the associative scan triple — and the driver folds
    the day summaries in order with carry-in, so the global running
    count never requires a global sort: one day-keyed exchange of
    boundary partials, then a |days|-bounded sequential combine."""
    import ray.data

    from sciscraper_ray.stages.window import bucketed_window

    GAP_US = 30 * 60 * 1_000_000
    DAY_US = 86_400_000_000

    def sess_kernel(g):
        import pandas as pd

        from sciscraper_ray.stages.window import (
            _sorted_bucket,
            session_boundaries,
        )

        if len(g) == 0:
            return pd.DataFrame(
                {"t": np.array([], np.int64), "d": np.array([], np.int64)}
            )
        order, user_s, ts_s, _, new_user = _sorted_bucket(g)
        _, _, s_start, s_len = session_boundaries(user_s, ts_s, new_user, GAP_US)
        starts = ts_s[s_start]
        ends = ts_s[s_start + s_len - 1]
        return pd.DataFrame(
            {
                "t": np.concatenate([starts, ends]),
                "d": np.concatenate(
                    [
                        np.ones(len(starts), np.int64),
                        -np.ones(len(ends), np.int64),
                    ]
                ),
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id"]
    )
    bounds = bucketed_window(ds, sess_kernel).map_batches(
        lambda b: b.select(["t", "d"]), batch_format="pyarrow"
    )

    def day_scan(g):
        import pandas as pd

        t = g["t"].to_numpy()
        d = g["d"].to_numpy()
        order = np.lexsort((d, t))
        run = np.cumsum(d[order])
        return pd.DataFrame(
            {
                "day": [int(t[order][0] // DAY_US)],
                "net": [int(run[-1])],
                "peak": [int(run.max())],
            }
        )

    days = (
        bounds.map_batches(
            lambda b: b.append_column(
                "day", pa.array(b["t"].to_numpy(zero_copy_only=False) // DAY_US)
            ),
            batch_format="pyarrow",
        )
        .groupby("day")
        .map_groups(day_scan, batch_format="pandas")
        .to_pandas()  # bounded: |days|
        .sort_values("day")
    )
    carry = 0
    out_day, out_peak = [], []
    for _, row in days.iterrows():
        out_day.append(int(row["day"]))
        out_peak.append(carry + int(row["peak"]))
        carry += int(row["net"])
    return pa.table(
        {
            "day": pa.array(out_day, pa.int64()),
            "peak_concurrent": pa.array(out_peak, pa.int64()),
        }
    )


@register(
    "events_error_followup",
    oracle="""
    WITH err AS (
        SELECT user_id, ts FROM events WHERE event_type = 'error'
    ), flag AS (
        SELECT e.user_id,
               EXISTS (
                   SELECT 1 FROM events c
                   WHERE c.user_id = e.user_id
                     AND c.event_type = 'click'
                     AND c.ts > e.ts
                     AND c.ts <= e.ts + INTERVAL 5 MINUTE
               ) AS rec
        FROM err e
    )
    SELECT user_id, CAST(count(*) AS BIGINT) AS n_errors,
           CAST(count(*) FILTER (rec) AS BIGINT) AS n_recovered
    FROM flag GROUP BY user_id
    """,
)
def events_error_followup(sf_dir: str):
    """Error-recovery rate: per user, how many 'error' events were
    followed by a 'click' from the SAME user within 5 minutes (strict
    after, inclusive window end) — a temporal EXISTS semi-join. Bucketed
    plan: one user-hash shuffle; per bucket the clicks lexsort by
    (user, ts) and each error probes them with ONE vectorized
    searchsorted over composite user-rank x timestamp keys (bucket-local
    ranks keep the composite within int64; at spans where
    rank x span_us would overflow, the probe falls back to per-segment
    searchsorted). No per-event Python."""
    import ray.data

    from sciscraper_ray.stages.window import bucketed_window

    WIN_US = 5 * 60 * 1_000_000

    def kernel(g):
        import pandas as pd

        empty = pd.DataFrame(
            {
                "user_id": np.array([], np.int64),
                "n_errors": np.array([], np.int64),
                "n_recovered": np.array([], np.int64),
            }
        )
        if len(g) == 0:
            return empty
        et = g["event_type"].to_numpy()
        user = g["user_id"].to_numpy()
        ts = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        em = et == "error"
        if not em.any():
            return empty
        cm = et == "click"
        # bucket-local dense user ranks keep the composite key small
        uniq_users = np.unique(user)
        rank = np.searchsorted(uniq_users, user)
        t0 = int(ts.min())
        span = int(ts.max()) - t0 + 2 + WIN_US
        comp = rank.astype(np.int64) * span + (ts - t0)
        click_keys = np.sort(comp[cm])
        err_keys = comp[em]
        lo = np.searchsorted(click_keys, err_keys, side="right")
        ok = lo < len(click_keys)
        hit = np.zeros(len(err_keys), bool)
        hit[ok] = click_keys[lo[ok]] <= err_keys[ok] + WIN_US
        t = pa.table(
            {
                "user_id": pa.array(user[em], pa.int64()),
                "rec": pa.array(hit.astype(np.int64), pa.int64()),
            }
        )
        return group_count_batch(
            t, ["user_id"], {"rec": "n_recovered"}, count="n_errors"
        ).to_pandas()  # bounded: worker-side kernel return

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
    )
    return bucketed_window(ds, kernel).map_batches(
        lambda b: b.select(["user_id", "n_errors", "n_recovered"]),
        batch_format="pyarrow",
    )


@register(
    "events_value_drift",
    oracle="""
    WITH m AS (
        SELECT (epoch_us(min(ts)) + epoch_us(max(ts))) // 2 AS mid
        FROM events
    )
    SELECT event_type,
           CAST(floor(value / 50) AS BIGINT) AS bucket,
           CAST(count(*) FILTER (epoch_us(ts) <= mid) AS BIGINT) AS n_first,
           CAST(count(*) FILTER (epoch_us(ts) > mid) AS BIGINT) AS n_second
    FROM events, m
    GROUP BY event_type, bucket
    """,
)
def events_value_drift(sf_dir: str):
    """Distribution-drift histogram (the PSI input a data-quality
    monitor computes): value histograms per event type for the first
    vs second half of the observed time range, counts only — the
    divergence formula is the reader's. Two passes: a scalar (min, max)
    timestamp pre-pass (one row per batch merged driver-side), then the
    |types x buckets|-bounded histogram groupby; the midpoint constant
    rides in the closure, never a join."""
    import ray.data
    from ray.data.aggregate import Sum

    ts_ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])
    mm = ts_ds.map_batches(
        lambda b: pa.table(
            {
                "lo": pa.array(
                    [int(b["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64).min())],
                    pa.int64(),
                ),
                "hi": pa.array(
                    [int(b["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64).max())],
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    ).to_pandas()  # bounded: one 16-byte min/max row per block
    mid = (int(mm["lo"].min()) + int(mm["hi"].max())) // 2

    def partial(b: pa.Table) -> pa.Table:
        us = (
            b["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        )
        bucket = np.floor(
            b["value"].to_numpy(zero_copy_only=False) / 50.0
        ).astype(np.int64)
        first = us <= mid
        t = pa.table(
            {
                "event_type": b["event_type"],
                "bucket": pa.array(bucket, pa.int64()),
                "n_first": pa.array(first.astype(np.int64), pa.int64()),
                "n_second": pa.array((~first).astype(np.int64), pa.int64()),
            }
        )
        return (
            t.group_by(["event_type", "bucket"])
            .aggregate([("n_first", "sum"), ("n_second", "sum")])
            .rename_columns(["event_type", "bucket", "n_first", "n_second"])
        )

    return (
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "bucket"])
        .aggregate(
            Sum(on="n_first", alias_name="n_first"),
            Sum(on="n_second", alias_name="n_second"),
        )
    )


@register(
    "events_session_position_value",
    oracle="""
    WITH o AS (
        SELECT user_id, ts, event_id, value,
               CASE WHEN lag(ts) OVER w IS NULL
                         OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                    THEN 1 ELSE 0 END AS new_s
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
    ), s AS (
        SELECT user_id, ts, event_id, value,
               sum(new_s) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id
                   ROWS UNBOUNDED PRECEDING
               ) AS sid
        FROM o
    ), p AS (
        SELECT value,
               least(row_number() OVER (
                   PARTITION BY user_id, sid ORDER BY ts, event_id
               ), 5) AS pos
        FROM s
    )
    SELECT CAST(pos AS BIGINT) AS pos,
           CAST(count(*) AS BIGINT) AS n_events,
           CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
               AS value_cents
    FROM p GROUP BY pos
    """,
)
def events_session_position_value(sf_dir: str):
    """Value by position within a session (capped at 5+): do first
    touches or deep-session events carry the money — the engagement
    curve a session-depth optimizer reads. Bucketed plan: one user-hash
    shuffle; per bucket the session boundaries come from the shared
    shifted-diff kernel and the within-session position is a cumcount
    reset at session starts (pure cumsum arithmetic); per-bucket
    partials collapse into a 5-row table."""
    import ray.data

    from sciscraper_ray.stages.window import bucketed_window

    GAP_US = 30 * 60 * 1_000_000

    def kernel(g):
        import pandas as pd

        from sciscraper_ray.stages.window import (
            _sorted_bucket,
            session_boundaries,
        )

        if len(g) == 0:
            return pd.DataFrame(
                {
                    "pos": np.array([], np.int64),
                    "n_events": np.array([], np.int64),
                    "value_cents": np.array([], np.int64),
                }
            )
        order, user_s, ts_s, _, new_user = _sorted_bucket(g)
        val = g["value"].to_numpy()[order]
        new_s, _, s_start, s_len = session_boundaries(
            user_s, ts_s, new_user, GAP_US
        )
        idx = np.arange(len(user_s))
        pos = idx - np.repeat(s_start, s_len) + 1
        pos = np.minimum(pos, 5)
        t = pa.table(
            {"pos": pa.array(pos, pa.int64()), "cents": pa.array(cents(val), pa.int64())}
        )
        return group_count_batch(
            t, ["pos"], {"cents": "value_cents"}, count="n_events"
        ).to_pandas()  # bounded: worker-side kernel return

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "value"],
    )
    from ray.data.aggregate import Sum

    return (
        bucketed_window(ds, kernel)
        .map_batches(
            lambda b: b.select(["pos", "n_events", "value_cents"]),
            batch_format="pyarrow",
        )
        .groupby("pos")
        .aggregate(
            Sum(on="n_events", alias_name="n_events"),
            Sum(on="value_cents", alias_name="value_cents"),
        )
    )


# --------------------------------------------------------------------------
# Interval-union coverage: each event opens a fixed 5-minute activity
# window; per user, how much wall-clock does the UNION of those windows
# cover, and how many disjoint activity islands does it merge into?
# The classic interval-coalescing primitive (uptime from heartbeats,
# ad-exposure reach, crawl-politeness windows) without materializing
# intervals: for ts sorted per user, union coverage is
# sum(min(next_ts - ts, W)) + W and a new island starts exactly where
# the gap exceeds W.
# --------------------------------------------------------------------------

_COVER_W_US = 300_000_000  # 5-minute activity window, integer microseconds


@register(
    "events_interval_coverage",
    oracle=f"""
    WITH d AS (
        SELECT user_id,
               date_diff('microsecond', ts,
                         lead(ts) OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id)) AS gap_us
        FROM events
    )
    SELECT user_id,
           CAST(sum(CASE WHEN gap_us IS NULL OR gap_us >= {_COVER_W_US}
                         THEN {_COVER_W_US} ELSE gap_us END) AS BIGINT)
               AS covered_us,
           CAST(1 + sum(CASE WHEN gap_us > {_COVER_W_US} THEN 1 ELSE 0 END)
               AS BIGINT) AS n_islands
    FROM d GROUP BY user_id
    """,
)
def events_interval_coverage(sf_dir: str):
    """Per-user union-of-intervals coverage via the shared
    bucketed_window plan (ONE shuffle on user bucket, vectorized lexsort
    kernel, zero per-user dispatch): coverage adds min(gap, W) per
    consecutive pair plus W for the final event — exactly the coalesced
    interval union because a gap >= W contributes one full window and
    opens a new island. All arithmetic is integer microseconds, so the
    oracle compare is exact; a user's rows live in one bucket, so each
    bucket emits final per-user rows with no second aggregation."""
    import pandas as pd

    import ray.data

    from sciscraper_ray.stages.window import bucketed_window

    W = _COVER_W_US

    def cover(g: pd.DataFrame) -> pd.DataFrame:
        u = g["user_id"].to_numpy(np.int64)
        ts = g["ts"].to_numpy("datetime64[us]").astype(np.int64)
        eid = g["event_id"].to_numpy(np.int64)
        order = np.lexsort((eid, ts, u))
        us, tss = u[order], ts[order]
        n = len(us)
        d = np.diff(tss)
        same = us[1:] == us[:-1] if n > 1 else np.empty(0, bool)
        # per consecutive same-user pair: coverage contribution and
        # island-break flag; the trailing event of each user adds W
        contrib = np.where(same, np.minimum(d, W), 0).astype(np.int64)
        breaks = (same & (d > W)).astype(np.int64)
        new_user = np.r_[True, ~same]
        starts = np.nonzero(new_user)[0]
        # reduceat over padded pair arrays: user segment [s, e) owns pair
        # positions [s, e-1); the crossing pair at e-1 and the pad cell
        # are both 0, so slice sums [starts[i], starts[i+1]) are exact
        # per-user totals with no boundary correction (single-event
        # users reduce over a lone zero).
        pad_c = np.r_[contrib, np.int64(0)]
        pad_b = np.r_[breaks, np.int64(0)]
        seg_cov = np.add.reduceat(pad_c, starts)
        seg_brk = np.add.reduceat(pad_b, starts)
        return pd.DataFrame(
            {
                "user_id": us[starts],
                "covered_us": seg_cov + W,
                "n_islands": seg_brk + 1,
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id"]
    )
    return bucketed_window(ds, cover, key="user_id")


@register(
    "events_cusum_drift",
    oracle="""
    WITH hc AS (
        SELECT event_type, date_trunc('hour', ts) AS hr,
               CAST(count(*) AS BIGINT) AS n_events
        FROM events GROUP BY 1, 2
    ), tot AS (
        SELECT event_type, CAST(sum(n_events) AS BIGINT) AS T,
               CAST(count(*) AS BIGINT) AS H
        FROM hc GROUP BY 1
    ), p AS (
        SELECT hc.event_type, hr, n_events, T,
               CAST(sum(n_events * H - T) OVER (
                   PARTITION BY hc.event_type ORDER BY hr
               ) AS BIGINT) AS pt
        FROM hc JOIN tot USING (event_type)
    )
    SELECT event_type, hr, n_events,
           pt - least(CAST(0 AS BIGINT), CAST(min(pt) OVER (
               PARTITION BY event_type ORDER BY hr) AS BIGINT))
               AS cusum_scaled,
           CAST((pt - least(CAST(0 AS BIGINT), CAST(min(pt) OVER (
               PARTITION BY event_type ORDER BY hr) AS BIGINT))) > 2 * T
               AS BIGINT) AS drift_flag
    FROM p
    """,
)
def events_cusum_drift(sf_dir: str):
    """CUSUM drift detection over per-type hourly event counts (Page
    1954): S_t = max(0, S_{t-1} + (x_t - mean)) flags hours where volume
    has run persistently above the type's mean rate — the change-point
    primitive behind traffic-anomaly monitors. The recurrence is NOT a
    window function, but the prefix identity S_t = P_t - min(0, min_{j<=t}
    P_j) (P = cumsum of deviations) makes it one — that identity is what
    lets BOTH sides stay vectorized (np.minimum.accumulate here, MIN OVER
    in the oracle) instead of row loops. Everything stays integer by
    scaling deviations by H (hours observed): x_t*H - T. drift_flag fires
    when the scaled excess passes 2*T (two mean-hours of backlog).
    Plan: per-batch Arrow (type, hour) partials, one groupby-Sum whose
    key space is |types| x |hours| — CALENDAR-bounded, not data-bounded
    (3600 rows here; a year of hours is 8.8k) — so the driver-side
    per-type scan is scale-safe by construction."""
    hourly = _hourly_type_counts(sf_dir)
    out_s = np.empty(len(hourly), np.int64)
    out_f = np.empty(len(hourly), np.int64)
    x_all = hourly["n"].to_numpy(np.int64)
    types = hourly["event_type"].to_numpy()
    for et in np.unique(types):
        seg = types == et
        x = x_all[seg]
        T, H = int(x.sum()), len(x)
        p = np.cumsum(x * H - T)
        s = p - np.minimum(np.minimum.accumulate(p), 0)
        out_s[seg] = s
        out_f[seg] = (s > 2 * T).astype(np.int64)
    return pa.table(
        {
            "event_type": pa.array(hourly["event_type"], pa.string()),
            "hr": pa.Array.from_pandas(hourly["hr"], type=pa.timestamp("us")),
            "n_events": pa.array(x_all, pa.int64()),
            "cusum_scaled": pa.array(out_s),
            "drift_flag": pa.array(out_f),
        }
    )


_KMV_K = 64
_KMV_M = 16**15  # hash domain of the shared 15-hex-char md5 convention


@register(
    "events_kmv_distinct",
    oracle=f"""
    WITH h AS (
        SELECT DISTINCT event_type,
               {md5_hex15_sql("CAST(user_id AS VARCHAR)")} AS h
        FROM events
    ), r AS (
        SELECT event_type, h,
               row_number() OVER (PARTITION BY event_type ORDER BY h) AS rn,
               CAST(count(*) OVER (PARTITION BY event_type) AS BIGINT) AS nd
        FROM h
    )
    SELECT event_type,
           nd AS true_distinct,
           CAST(CASE WHEN nd < {_KMV_K} THEN nd
                ELSE (CAST({_KMV_K - 1} AS HUGEINT) * {_KMV_M}) // h
                END AS BIGINT) AS est_distinct,
           CAST(least(nd, {_KMV_K}) AS BIGINT) AS k_used
    FROM r WHERE rn = least(nd, {_KMV_K})
    """,
)
def events_kmv_distinct(sf_dir: str):
    """KMV (k-minimum-values / bottom-k) distinct-user sketch per event
    type, audited against the exact count (Bar-Yossef et al. 2002): keep
    the k=64 smallest hash values per type; with hashes uniform on
    [0, M), the k-th smallest h_k estimates distinct = (k-1)*M/h_k.
    Unlike HLL (already in stages/sketch.py) the KMV sketch supports set
    INTERSECTION estimates and is trivially mergeable: min-k of a union
    is min-k of the concatenated min-k's — which is exactly the plan
    here: each batch reduces its distinct (type, user-hash) pairs to at
    most |types| x k rows, and per-type merge (5 bounded groups) re-takes
    the bottom-k. The exact true_distinct side ships batch-distinct
    pairs — that's the audit's cost, the sketch path alone never moves
    more than types x k rows per batch. All-integer estimate (exact
    floor division on both sides; hash is the shared 15-hex md5
    convention) so the compare is exact, not 1e-6-close."""
    import ray.data

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({"event_type": b["event_type"], "u": b["user_id"]})
        t = t.group_by(["event_type", "u"]).aggregate([])
        hs = md5_hex15(str(int(u)) for u in t["u"].to_pylist())
        return pa.table({"event_type": t["event_type"], "h": pa.array(hs)})

    def per_type(g: pa.Table) -> pa.Table:
        hs = np.unique(g["h"].to_numpy(zero_copy_only=False))
        nd = len(hs)
        if nd < _KMV_K:
            est = nd
        else:
            est = (_KMV_K - 1) * _KMV_M // int(hs[_KMV_K - 1])
        return pa.table(
            {
                "event_type": pa.array([g["event_type"][0].as_py()]),
                "true_distinct": pa.array([nd], pa.int64()),
                "est_distinct": pa.array([est], pa.int64()),
                "k_used": pa.array([min(nd, _KMV_K)], pa.int64()),
            }
        )

    return (
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .map_groups(per_type, batch_format="pyarrow")
    )


@register(
    "events_runs_test",
    oracle="""
    WITH hc AS (
        SELECT event_type, date_trunc('hour', ts) AS hr,
               CAST(count(*) AS BIGINT) AS x
        FROM events GROUP BY 1, 2
    ), med AS (
        SELECT event_type, quantile_disc(x, 0.5) AS med FROM hc GROUP BY 1
    ), signs AS (
        SELECT hc.event_type, hr, med, x > med AS above,
               lag(x > med) OVER (
                   PARTITION BY hc.event_type ORDER BY hr
               ) AS prev
        FROM hc JOIN med USING (event_type)
        WHERE x <> med
    )
    SELECT event_type, CAST(min(med) AS BIGINT) AS median_rate,
           CAST(sum(CASE WHEN above THEN 1 ELSE 0 END) AS BIGINT) AS n_above,
           CAST(sum(CASE WHEN above THEN 0 ELSE 1 END) AS BIGINT) AS n_below,
           CAST(sum(CASE WHEN prev IS NULL OR prev <> above
                    THEN 1 ELSE 0 END) AS BIGINT) AS n_runs
    FROM signs GROUP BY event_type
    """,
)
def events_runs_test(sf_dir: str):
    """Wald-Wolfowitz runs statistic over each type's hourly volume
    series: hours are marked above/below the type's discrete median
    (exact element, sorted[(n-1)//2], the quantile_disc(0.5) convention;
    median-equal hours drop, the standard treatment), and n_runs counts
    the maximal same-sign stretches — far fewer runs than
    2*n_above*n_below/n + 1 means the series is trending/bursty rather
    than i.i.d., the nonparametric cousin of events_cusum_drift that
    needs no threshold. All counts integer, so the compare is exact.
    Plan: identical exchange budget to events_cusum_drift — per-batch
    (type, hour) Arrow partials, one calendar-bounded groupby, and the
    per-type sign scan on the driver is |types| x |hours| rows."""
    hourly = _hourly_type_counts(sf_dir)
    types = hourly["event_type"].to_numpy()
    x_all = hourly["n"].to_numpy(np.int64)
    out = []
    for et in np.unique(types):
        x = x_all[types == et]
        med = int(np.sort(x)[(len(x) - 1) // 2])
        s = x[x != med] > med
        runs = int(1 + np.count_nonzero(s[1:] != s[:-1])) if len(s) else 0
        out.append(
            (et, med, int(s.sum()), int(len(s) - s.sum()), runs)
        )
    return pa.table(
        {
            "event_type": pa.array([r[0] for r in out], pa.string()),
            "median_rate": pa.array([r[1] for r in out], pa.int64()),
            "n_above": pa.array([r[2] for r in out], pa.int64()),
            "n_below": pa.array([r[3] for r in out], pa.int64()),
            "n_runs": pa.array([r[4] for r in out], pa.int64()),
        }
    )


@register(
    "events_survival_km",
    oracle="""
    WITH per_user AS (
        SELECT user_id, min(ts) AS t0, max(ts) AS tlast,
               min(CASE WHEN event_type = 'purchase' AND value >= 150
                        THEN ts END) AS tp
        FROM events GROUP BY user_id
    ), durs AS (
        SELECT CAST((epoch_us(CASE WHEN tp IS NOT NULL THEN tp ELSE tlast END)
                     - epoch_us(t0)) // 86400000000
               AS BIGINT) AS d,
               CAST(tp IS NOT NULL AS BIGINT) AS ev
        FROM per_user
    ), hist AS (
        SELECT d,
               CAST(sum(ev) AS BIGINT) AS n_event,
               CAST(sum(1 - ev) AS BIGINT) AS n_censored
        FROM durs GROUP BY d
    )
    SELECT d, n_event, n_censored,
           CAST(sum(n_event + n_censored) OVER (
               ORDER BY d DESC
           ) AS BIGINT) AS n_risk
    FROM hist
    """,
)
def events_survival_km(sf_dir: str):
    """Kaplan-Meier life-table ingredients for time-to-first-big-purchase
    (value >= 150), with honest right-censoring at each user's last
    observed event — the survival-analysis shape behind conversion-lag
    and churn curves that naive 'average days to convert' gets wrong by
    silently dropping the ~55% of users who never convert. Per distinct
    day d: events, censorings, and the at-risk count (reverse cumulative
    — everyone whose observation reaches d). All integers, so the
    compare is exact; the KM product-limit estimator is one fold over
    these rows. Plan: per-batch per-user (min, conditional-min, max)
    partials, one user-bounded groupby merge, and the day histogram is
    calendar-bounded driver work."""
    import ray.data
    from ray.data.aggregate import Max, Min

    BIG = np.iinfo(np.int64).max

    def partial(b: pa.Table) -> pa.Table:
        ts = b["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]"
        ).astype(np.int64)
        et = b["event_type"].to_numpy(zero_copy_only=False)
        val = b["value"].to_numpy(zero_copy_only=False)
        hit = (et == "purchase") & (val >= 150)
        t = pa.table(
            {
                "user_id": b["user_id"],
                "t0": pa.array(ts),
                "tlast": pa.array(ts),
                "tp": pa.array(np.where(hit, ts, BIG)),
            }
        )
        return (
            t.group_by("user_id")
            .aggregate([("t0", "min"), ("tlast", "max"), ("tp", "min")])
            .rename_columns(["user_id", "t0", "tlast", "tp"])
        )

    US_PER_DAY = 86_400_000_000

    def day_hist(b: pa.Table) -> pa.Table:
        # Per-batch duration histogram over the per-user rows: the
        # user-bounded table never reaches the driver (VERDICT r4 item 1
        # class — |users| is data-proportional at crawl scale).
        t0 = b["t0"].to_numpy(zero_copy_only=False)
        tp = b["tp"].to_numpy(zero_copy_only=False)
        tlast = b["tlast"].to_numpy(zero_copy_only=False)
        ev = tp != BIG
        d = (np.where(ev, tp, tlast) - t0) // US_PER_DAY
        days, inv = np.unique(d, return_inverse=True)
        n_event = np.bincount(inv, weights=ev, minlength=len(days))
        n_total = np.bincount(inv, minlength=len(days))
        return pa.table(
            {
                "d": pa.array(days.astype(np.int64)),
                "n_event": pa.array(n_event.astype(np.int64)),
                "n_censored": pa.array((n_total - n_event).astype(np.int64)),
            }
        )

    from ray.data.aggregate import Sum

    hist = (
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["user_id", "ts", "event_type", "value"],
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(
            Min(on="t0", alias_name="t0"),
            Max(on="tlast", alias_name="tlast"),
            Min(on="tp", alias_name="tp"),
        )
        .map_batches(day_hist, batch_format="pyarrow")
        .groupby("d")
        .aggregate(
            Sum(on="n_event", alias_name="n_event"),
            Sum(on="n_censored", alias_name="n_censored"),
        )
        .to_pandas()  # bounded: |distinct duration days| (calendar)
        .sort_values("d", ignore_index=True)
    )
    days = hist["d"].to_numpy(np.int64)
    n_event = hist["n_event"].to_numpy(np.int64)
    n_cens = hist["n_censored"].to_numpy(np.int64)
    total = n_event + n_cens
    n_risk = total[::-1].cumsum()[::-1]
    return pa.table(
        {
            "d": pa.array(days.astype(np.int64)),
            "n_event": pa.array(n_event),
            "n_censored": pa.array(n_cens),
            "n_risk": pa.array(n_risk.astype(np.int64)),
        }
    )


@register(
    "events_hourly_topk_users",
    oracle="""
    WITH hc AS (
        SELECT date_trunc('hour', ts) AS window_start, user_id,
               count(*) AS cnt
        FROM events GROUP BY 1, 2
    ), rk AS (
        SELECT window_start, user_id, cnt,
               row_number() OVER (
                   PARTITION BY window_start ORDER BY cnt DESC, user_id
               ) AS rnk
        FROM hc
    )
    SELECT window_start, user_id, cnt, CAST(rnk AS BIGINT) AS rnk
    FROM rk WHERE rnk <= 3
    """,
)
def events_hourly_topk_users(sf_dir: str, num_buckets: int = 32):
    """Windowed grouped top-k: the 3 most active users per tumbling
    1-hour window (tie-break user_id asc) — the per-window heavy-hitter
    report every abuse/ops dashboard runs, and the grouped variant of
    events_topk_users' global plan. Plan: per-batch (window, user)
    partial counts (each batch shrinks to its distinct pairs before any
    exchange), one groupby-Sum on the composite key, then per-window
    top-3 via BUCKETED segment selection — windows hash into
    ``num_buckets`` groups and each bucket ranks ALL its windows in one
    lexsort + segment-boundary scan (no per-window Python dispatch; the
    hour grid is calendar-bounded, ~3.6k windows at sf0.1, so the
    deepest group is tiny and the top-3 output is 3 rows/window
    regardless of user volume). At 10^12 events nothing materializes
    beyond (window, user) partials and the 3-row-per-window result."""
    import pandas as pd
    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.append_column(
            "window_start", pc.floor_temporal(batch["ts"], unit="hour")
        )
        out = group_count_batch(
            batch.drop_columns(["ts"]), ["window_start", "user_id"]
        )
        h = pc.cast(out["window_start"], pa.int64()).to_numpy(
            zero_copy_only=False
        )
        return out.append_column(
            "bucket",
            pa.array((h * 0x9E3779B9 & 0x7FFFFFFF) % num_buckets, pa.int64()),
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["bucket", "window_start", "user_id"])
        .aggregate(Sum(on="cnt", alias_name="cnt"))
    )

    def topk(g: "pd.DataFrame") -> "pd.DataFrame":
        win = g["window_start"].to_numpy().astype("datetime64[us]")
        wkey = win.astype(np.int64)
        user = g["user_id"].to_numpy()
        cnt = g["cnt"].to_numpy()
        order = np.lexsort((user, -cnt, wkey))
        wkey, win = wkey[order], win[order]
        user, cnt = user[order], cnt[order]
        starts = np.flatnonzero(np.r_[True, wkey[1:] != wkey[:-1]])
        rnk = np.arange(len(wkey)) - np.repeat(starts, np.diff(np.r_[starts, len(wkey)])) + 1
        keep = rnk <= 3
        return pd.DataFrame(
            {
                "window_start": win[keep],
                "user_id": user[keep],
                "cnt": cnt[keep],
                "rnk": rnk[keep].astype(np.int64),
            }
        )

    return agg.groupby("bucket").map_groups(topk, batch_format="pandas")


@register(
    "events_sliding_velocity",
    oracle="""
    WITH e AS (SELECT user_id, epoch_us(ts) AS eu FROM events),
    w AS (
        SELECT user_id,
               count(*) OVER (PARTITION BY user_id ORDER BY eu
                   RANGE BETWEEN CURRENT ROW AND 599999999 FOLLOWING) AS c
        FROM e
    )
    SELECT user_id, count(*) AS n_events,
           CAST(max(c) AS BIGINT) AS max_in_10min
    FROM w GROUP BY user_id
    """,
)
def events_sliding_velocity(sf_dir: str):
    """Exact SLIDING-window velocity per user: the maximum number of
    events inside ANY 10-minute window [t, t+10min) anchored at an
    event — the fraud/abuse rate-limit rule that tumbling-minute grids
    (events_minute_burst) under-count whenever a burst straddles a
    minute boundary. Plan: the bucketed window shape (one shuffle on
    user_id & (B-1)), then fully vectorized inside each bucket — the
    segment-offset trick packs (segment, epoch) into one monotone int64
    key (segments ~10^15 apart, far beyond the window width, so one
    global np.searchsorted pair counts every row's window without ever
    crossing a user boundary), and np.maximum.reduceat takes per-user
    maxima. The RANGE-frame tie rule (all peer rows at the anchor
    timestamp count) falls out of the left-searchsorted anchor. No
    per-user Python anywhere; the oracle is the equivalent RANGE frame."""
    import pandas as pd
    import ray.data

    from sciscraper_ray.stages.window import bucketed_window

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id"]
    )
    W = 600_000_000  # 10 minutes in microseconds

    def kernel(g: "pd.DataFrame") -> "pd.DataFrame":
        user = g["user_id"].to_numpy()
        eu = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        eid = g["event_id"].to_numpy()
        order = np.lexsort((eid, eu, user))
        user, eu = user[order], eu[order]
        new_user = np.ones(len(user), dtype=bool)
        new_user[1:] = user[1:] != user[:-1]
        seg = np.cumsum(new_user) - 1
        skey = seg.astype(np.int64) * 10**15 + eu
        left = np.searchsorted(skey, skey, side="left")
        right = np.searchsorted(skey, skey + W, side="left")
        c = right - left
        starts = np.flatnonzero(new_user)
        return pd.DataFrame(
            {
                "user_id": user[starts],
                "n_events": np.diff(np.r_[starts, len(user)]).astype(
                    np.int64
                ),
                "max_in_10min": np.maximum.reduceat(c, starts).astype(
                    np.int64
                ),
            }
        )

    return bucketed_window(ds, kernel)


@register(
    "events_order_violations",
    oracle="""
    WITH e AS (
        SELECT user_id, epoch_us(ts) AS eu, event_type
        FROM events WHERE event_type IN ('click', 'purchase')
    ),
    fc AS (
        SELECT user_id,
               min(eu) FILTER (WHERE event_type = 'click') AS first_click
        FROM e GROUP BY user_id
    ),
    p AS (SELECT user_id, eu FROM e WHERE event_type = 'purchase')
    SELECT p.user_id, count(*) AS n_purchases,
           CAST(sum(CASE WHEN fc.first_click IS NULL
                          OR p.eu < fc.first_click
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_violations
    FROM p JOIN fc ON fc.user_id = p.user_id
    GROUP BY p.user_id
    """,
)
def events_order_violations(sf_dir: str):
    """Event-sequence state-machine validation: per user, how many
    'purchase' events arrive STRICTLY BEFORE the user's first 'click' —
    the funnel-integrity / instrumentation-bug detector (a purchase
    with no preceding click means broken tracking or replayed logs).
    Plan: irrelevant event types are dropped at the scan (Arrow filter
    inside the read stage — only click/purchase rows ever shuffle),
    then ONE bucketed-window pass: per bucket, lexsort by (user, ts),
    per-segment first-click via a masked minimum-reduceat, and the
    violation count is a vectorized strict-less compare against the
    segment's first-click broadcast back over its rows — no per-user
    dispatch, no driver-side user table (the orders_by_region lesson:
    nothing here is proportional to the user count outside the one
    bucketed exchange). Emits users with >= 1 purchase."""
    import pandas as pd
    import ray.data

    from sciscraper_ray.stages.window import bucketed_window

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )

    def keep(b: pa.Table) -> pa.Table:
        return b.filter(
            pc.is_in(
                b["event_type"],
                value_set=pa.array(["click", "purchase"], pa.string()),
            )
        )

    def kernel(g: "pd.DataFrame") -> "pd.DataFrame":
        user = g["user_id"].to_numpy()
        eu = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        eid = g["event_id"].to_numpy()
        is_click = (g["event_type"] == "click").to_numpy()
        order = np.lexsort((eid, eu, user))
        user, eu, is_click = user[order], eu[order], is_click[order]
        new_user = np.ones(len(user), dtype=bool)
        new_user[1:] = user[1:] != user[:-1]
        starts = np.flatnonzero(new_user)
        sentinel = np.iinfo(np.int64).max
        click_eu = np.where(is_click, eu, sentinel)
        first_click = np.minimum.reduceat(click_eu, starts)
        fc_row = np.repeat(first_click, np.diff(np.r_[starts, len(user)]))
        is_purch = ~is_click
        viol = is_purch & (eu < fc_row)
        seg_sizes = np.diff(np.r_[starts, len(user)])
        seg_id = np.repeat(np.arange(len(starts)), seg_sizes)
        n_purch = np.bincount(
            seg_id, weights=is_purch, minlength=len(starts)
        ).astype(np.int64)
        n_viol = np.bincount(
            seg_id, weights=viol, minlength=len(starts)
        ).astype(np.int64)
        keep_seg = n_purch >= 1
        return pd.DataFrame(
            {
                "user_id": user[starts][keep_seg],
                "n_purchases": n_purch[keep_seg],
                "n_violations": n_viol[keep_seg],
            }
        )

    return bucketed_window(
        ds.map_batches(keep, batch_format="pyarrow"), kernel
    )


@register(
    "events_hourly_autocorr",
    oracle="""
    WITH hc AS (
        SELECT epoch_us(date_trunc('hour', ts)) // 3600000000 AS h,
               count(*) AS c
        FROM events GROUP BY h
    ),
    grid AS (
        SELECT unnest(range((SELECT min(h) FROM hc),
                            (SELECT max(h) FROM hc) + 1)) AS h
    ),
    dense AS (
        SELECT grid.h, coalesce(hc.c, 0) AS c
        FROM grid LEFT JOIN hc ON hc.h = grid.h
    ),
    lagged AS (
        SELECT c AS x,
               lead(c) OVER (ORDER BY h) AS y
        FROM dense
    )
    SELECT count(*) AS n_pairs,
           CAST(sum(x) AS BIGINT) AS sum_x,
           CAST(sum(y) AS BIGINT) AS sum_y,
           CAST(sum(x * y) AS BIGINT) AS sum_xy,
           CAST(sum(x * x) AS BIGINT) AS sum_xx,
           CAST(sum(y * y) AS BIGINT) AS sum_yy
    FROM lagged WHERE y IS NOT NULL
    """,
)
def events_hourly_autocorr(sf_dir: str):
    """Lag-1 autocorrelation ingredients of the DENSE hourly event-count
    series — the seasonality/burstiness health metric a traffic monitor
    derives r = (n*sxy - sx*sy) / sqrt(...) from; all six moments are
    exact integers here so the one float division happens identically
    on both sides (the events_gap_stats lesson). The hour grid between
    the corpus's first and last hour is calendar-bounded (never
    row-bounded), so the per-batch (hour, count) partials groupby-Sum
    into a table the driver densifies with zero-fill and folds with one
    vectorized multiply — silent hours matter and are counted, which a
    sparse self-join would silently drop. At 10^12 events the exchange
    is still just hour-grain partials."""
    _, dense = _dense_hourly_counts(sf_dir)
    x, y = dense[:-1], dense[1:]
    return pa.table(
        {
            "n_pairs": pa.array([len(x)], pa.int64()),
            "sum_x": pa.array([int(x.sum())], pa.int64()),
            "sum_y": pa.array([int(y.sum())], pa.int64()),
            "sum_xy": pa.array([int((x * y).sum())], pa.int64()),
            "sum_xx": pa.array([int((x * x).sum())], pa.int64()),
            "sum_yy": pa.array([int((y * y).sum())], pa.int64()),
        }
    )


@register(
    "events_hourly_ewma",
    oracle="""
    WITH RECURSIVE hc AS (
        SELECT epoch_us(date_trunc('hour', ts)) // 3600000000 AS h,
               count(*) AS c
        FROM events GROUP BY h
    ),
    grid AS (
        SELECT unnest(range((SELECT min(h) FROM hc),
                            (SELECT max(h) FROM hc) + 1)) AS h
    ),
    dense AS (
        SELECT grid.h, row_number() OVER (ORDER BY grid.h) AS rn,
               coalesce(hc.c, 0) AS c
        FROM grid LEFT JOIN hc ON hc.h = grid.h
    ),
    rec AS (
        SELECT rn, h, c, CAST(c AS DOUBLE) AS y, FALSE AS burst
        FROM dense WHERE rn = 1
        UNION ALL
        SELECT d.rn, d.h, d.c, (CAST(d.c AS DOUBLE) + r.y) * 0.5,
               (CAST(d.c AS DOUBLE) - r.y) > 3 * sqrt(greatest(r.y, 1.0))
        FROM rec r JOIN dense d ON d.rn = r.rn + 1
    )
    SELECT CAST(count(*) AS BIGINT) AS n_hours,
           CAST(sum(CASE WHEN burst THEN 1 ELSE 0 END) AS BIGINT)
               AS n_bursts,
           CAST(coalesce(sum(CASE WHEN burst THEN h END), 0) AS BIGINT)
               AS sum_burst_hours,
           max(y) AS max_ewma,
           max(CASE WHEN rn = (SELECT max(rn) FROM dense) THEN y END)
               AS final_ewma
    FROM rec
    """,
)
def events_hourly_ewma(sf_dir: str):
    """EWMA burst monitor over the DENSE hourly count series — the
    classic streaming traffic baseline y_t = (x_t + y_{t-1}) / 2 with a
    Poisson-style burst flag when an hour's count sits more than three
    sqrt-baselines above the baseline carried INTO it — scale-RELATIVE,
    so the rule fires at every sf (a fixed multiplier is degenerate at
    sf0.1 where hourly counts concentrate near the mean). The dyadic
    alpha = 1/2 makes the float recursion BIT-deterministic on any
    IEEE-754 engine: the add is one correctly-rounded op and the *0.5
    only decrements the exponent, so the Python fold and DuckDB's
    recursive CTE agree to the last bit — no rounding epsilon anywhere
    (the events_gap_stats lesson, applied to a recurrence instead of a
    sum). Distribution shape is identical to events_hourly_autocorr:
    per-batch (hour, count) partials groupby-Sum into a CALENDAR-bounded
    table, the driver densifies with zero-fill and folds the recurrence
    over <=|hours| cells — at 10^12 events the exchange is still
    hour-grain partials and the sequential tail is grid-length, not
    row-count."""
    import math

    lo, dense = _dense_hourly_counts(sf_dir)
    y = float(dense[0])
    max_y = y
    n_bursts = 0
    sum_burst_hours = 0
    for i in range(1, len(dense)):
        x = float(dense[i])
        if (x - y) > 3.0 * math.sqrt(max(y, 1.0)):
            n_bursts += 1
            sum_burst_hours += lo + i
        y = (x + y) * 0.5
        if y > max_y:
            max_y = y
    return pa.table(
        {
            "n_hours": pa.array([len(dense)], pa.int64()),
            "n_bursts": pa.array([n_bursts], pa.int64()),
            "sum_burst_hours": pa.array([sum_burst_hours], pa.int64()),
            "max_ewma": pa.array([max_y], pa.float64()),
            "final_ewma": pa.array([y], pa.float64()),
        }
    )


# ---------------------------------------------------------------------------
# DGIM sliding-window count sketch audit (Datar-Gionis-Indyk-Motwani
# 2002): the O(log^2 N)-space structure a streaming node keeps when it
# cannot buffer the window. The REAL sequential algorithm runs per user
# (r=2 buckets per power-of-two size, cascade merges, expiry at the
# window edge) and its estimate is audited against the exact count; the
# theorem |est - exact| <= exact/2 is emitted as a flag the oracle pins
# to 1, so a broken merge/expiry that violates the bound goes red.

_DGIM_WINDOW = 64
_DGIM_R = 2


def _dgim_estimate(bits: "np.ndarray") -> int:
    """Run DGIM over the full stream (positions 0..n-1, newest = last),
    return the estimate of ones among the last _DGIM_WINDOW positions."""
    buckets: list[list[int]] = []  # [end_pos, size], newest first
    n = len(bits)
    ones = np.flatnonzero(bits)
    for pos in ones:
        buckets.insert(0, [int(pos), 1])
        size = 1
        while True:
            idxs = [j for j, b in enumerate(buckets) if b[1] == size]
            if len(idxs) <= _DGIM_R:
                break
            # merge the two OLDEST buckets of this size; merged bucket
            # keeps the NEWER end position
            j_new, j_old = idxs[-2], idxs[-1]
            buckets[j_new][1] = size * 2
            del buckets[j_old]
            size *= 2
    cutoff = n - 1 - _DGIM_WINDOW  # expire buckets ending at/before this
    buckets = [b for b in buckets if b[0] > cutoff]
    if not buckets:
        return 0
    full = sum(b[1] for b in buckets[:-1])
    return full + (buckets[-1][1] + 1) // 2


@register(
    "events_dgim_window_count",
    oracle=f"""
    WITH ordered AS (
        SELECT user_id, event_type,
               row_number() OVER (
                   PARTITION BY user_id ORDER BY ts DESC, event_id DESC
               ) AS rn
        FROM events
    )
    SELECT user_id,
           CAST(count(*) FILTER (
               event_type = 'click' AND rn <= {_DGIM_WINDOW}
           ) AS BIGINT) AS exact_clicks,
           CAST(1 AS BIGINT) AS bound_ok
    FROM ordered GROUP BY user_id
    """,
)
def events_dgim_window_count(sf_dir: str):
    """Per user: clicks among the last {W} events, exact vs the DGIM
    sketch run as a genuine one-pass automaton over the (ts, event_id)-
    ordered stream. Physical plan is the shared bucketed-window shape:
    ONE shuffle on user_id & (B-1), per-bucket lexsort, then the
    per-user automaton over each segment — per-group dispatch bounded by
    B, and the automaton state is O(log^2 W) per user, which is the
    point of the sketch. bound_ok = [2*|est-exact| <= exact + 2] (the
    DGIM error theorem with +2 slack for counts 0-1); the oracle pins it
    to 1 for every user, so any merge-cascade or expiry bug that breaks
    the guarantee is a hash mismatch, and exact_clicks pins the window
    bookkeeping itself."""
    import pandas as pd

    import ray  # noqa: F401

    from sciscraper_ray.stages.window import bucketed_window

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )

    def kernel(g: "pd.DataFrame") -> "pd.DataFrame":
        user = g["user_id"].to_numpy()
        ts = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        eid = g["event_id"].to_numpy()
        is_click = (g["event_type"] == "click").to_numpy()
        order = np.lexsort((eid, ts, user))
        user, is_click = user[order], is_click[order]
        bounds = np.flatnonzero(
            np.concatenate(([True], user[1:] != user[:-1]))
        )
        ends = np.concatenate((bounds[1:], [len(user)]))
        out_u, out_exact, out_ok = [], [], []
        for s, e in zip(bounds, ends):
            bits = is_click[s:e]
            exact = int(bits[-_DGIM_WINDOW:].sum())
            est = _dgim_estimate(bits)
            out_u.append(int(user[s]))
            out_exact.append(exact)
            out_ok.append(1 if 2 * abs(est - exact) <= exact + 2 else 0)
        return pd.DataFrame(
            {
                "user_id": np.array(out_u, np.int64),
                "exact_clicks": np.array(out_exact, np.int64),
                "bound_ok": np.array(out_ok, np.int64),
            }
        )

    return bucketed_window(ds, kernel, key="user_id")


@register(
    "events_hourly_ffill",
    oracle="""
    WITH hourly AS (
        SELECT user_id,
               CAST(date_diff('hour', TIMESTAMP '2024-01-01 00:00:00', ts)
                   AS BIGINT) AS h,
               SUM(CAST(round(value * 100) AS BIGINT)) AS cents
        FROM events GROUP BY 1, 2
    ),
    spans AS (
        SELECT user_id, min(h) AS h0, max(h) AS h1 FROM hourly GROUP BY 1
    ),
    grid AS (
        SELECT user_id, unnest(range(h0, h1 + 1)) AS h FROM spans
    )
    SELECT grid.user_id, CAST(grid.h AS BIGINT) AS hour,
           CAST(last_value(hourly.cents IGNORE NULLS) OVER (
               PARTITION BY grid.user_id ORDER BY grid.h
           ) AS BIGINT) AS cents_filled,
           CAST(CASE WHEN hourly.cents IS NULL THEN 1 ELSE 0 END AS BIGINT)
               AS is_filled
    FROM grid LEFT JOIN hourly
      ON hourly.user_id = grid.user_id AND hourly.h = grid.h
    """,
)
def events_hourly_ffill(sf_dir: str):
    """Dense per-user hourly series with forward-fill gap repair — the
    time-series regularization every downstream window model needs
    (silent hours inherit the last observed hourly total). Integer-cents
    sums keep the fill engine-exact. One bucketed shuffle on user; per
    bucket a lexsort + bincount builds each user's observed hours, the
    dense grid is an arange over the user's own [min, max] span, and the
    fill is the classic np.maximum.accumulate index trick — no per-user
    dispatch, no driver state. The oracle rebuilds the grid with
    range() and last_value IGNORE NULLS."""
    import pandas as pd

    import ray  # noqa: F401

    from sciscraper_ray.stages.window import bucketed_window

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )
    epoch = np.datetime64("2024-01-01T00:00:00", "us").astype(np.int64)

    def kernel(g: "pd.DataFrame") -> "pd.DataFrame":
        user = g["user_id"].to_numpy()
        ts = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        cts = cents(g["value"])
        h = (ts - epoch) // 3_600_000_000
        order = np.lexsort((h, user))
        user, h, cts = user[order], h[order], cts[order]
        out_u, out_h, out_c, out_f = [], [], [], []
        bounds = np.flatnonzero(
            np.concatenate(([True], user[1:] != user[:-1]))
        )
        ends = np.concatenate((bounds[1:], [len(user)]))
        for s, e in zip(bounds, ends):
            uh, uc = h[s:e], cts[s:e]
            h0, h1 = int(uh[0]), int(uh[-1])
            span = h1 - h0 + 1
            sums = np.bincount(uh - h0, weights=uc, minlength=span).astype(
                np.int64
            )
            observed = np.zeros(span, bool)
            observed[uh - h0] = True
            # ffill: index of the last observed hour at or before each slot
            idx = np.where(observed, np.arange(span), 0)
            idx = np.maximum.accumulate(idx)
            out_u.append(np.full(span, user[s], np.int64))
            out_h.append(np.arange(h0, h1 + 1, dtype=np.int64))
            out_c.append(sums[idx])
            out_f.append((~observed).astype(np.int64))
        return pd.DataFrame(
            {
                "user_id": np.concatenate(out_u),
                "hour": np.concatenate(out_h),
                "cents_filled": np.concatenate(out_c),
                "is_filled": np.concatenate(out_f),
            }
        )

    return bucketed_window(ds, kernel, key="user_id")


@register(
    "events_ks_test",
    oracle="""
    WITH x AS (
        SELECT CAST(round(value * 100) AS BIGINT) AS cents,
               CASE WHEN event_type = 'click' THEN 1 ELSE 0 END AS g
        FROM events WHERE event_type IN ('click', 'view')
    ), n AS (
        SELECT CAST(sum(g) AS BIGINT) AS n1,
               CAST(sum(1 - g) AS BIGINT) AS n2 FROM x
    ), pts AS (
        SELECT cents, sum(g) AS c1, sum(1 - g) AS c2 FROM x GROUP BY cents
    ), cum AS (
        SELECT sum(c1) OVER (ORDER BY cents) AS f1,
               sum(c2) OVER (ORDER BY cents) AS f2
        FROM pts
    )
    SELECT CAST(max(abs(f1 * n.n2 - f2 * n.n1)) AS BIGINT) AS d_num,
           n.n1, n.n2,
           CAST(max(abs(f1 * n.n2 - f2 * n.n1)) AS DOUBLE)
               / (CAST(n.n1 AS DOUBLE) * CAST(n.n2 AS DOUBLE)) AS d
    FROM cum, n GROUP BY n.n1, n.n2
    """,
)
def events_ks_test(sf_dir: str):
    """Two-sample Kolmogorov-Smirnov distance between the 'click' and
    'view' purchase-value distributions, in EXACT INTEGERS: with both
    empirical CDFs evaluated at every distinct integer-cents point, the
    supremum |F1 - F2| equals max |cum1*n2 - cum2*n1| / (n1*n2) — the
    numerator is integer arithmetic, so the statistic is engine-exact
    and only the final ratio is a double (identical arithmetic order on
    both sides). Values are discretized to cents so the per-batch
    (cents, group) count partials are DOMAIN-bounded (price range x 100
    distinct points, never corpus rows) before the driver-side prefix
    scan — the same bounded-exchange shape as the Mann-Whitney and
    quantile audits. Ties are handled exactly (the CDFs step together
    at shared points)."""
    pts = _click_view_cents(sf_dir)
    f1 = pts["c1"].to_numpy(np.int64).cumsum()
    f2 = pts["c2"].to_numpy(np.int64).cumsum()
    n1, n2 = int(f1[-1]), int(f2[-1])
    d_num = int(np.abs(f1 * n2 - f2 * n1).max())
    return pa.table(
        {
            "d_num": pa.array([d_num], pa.int64()),
            "n1": pa.array([n1], pa.int64()),
            "n2": pa.array([n2], pa.int64()),
            "d": pa.array([float(d_num) / (float(n1) * float(n2))], pa.float64()),
        }
    )


@register(
    "events_holt_linear",
    oracle="""
    WITH RECURSIVE hourly AS (
        SELECT CAST(date_diff('hour', TIMESTAMP '2024-01-01 00:00:00', ts)
                   AS BIGINT) AS h,
               SUM(CAST(round(value * 100) AS BIGINT)) AS x
        FROM events GROUP BY 1
    ), grid AS (
        SELECT unnest(range((SELECT min(h) FROM hourly),
                            (SELECT max(h) FROM hourly) + 1)) AS h
    ), dense AS (
        SELECT grid.h, COALESCE(hourly.x, 0) AS x,
               row_number() OVER (ORDER BY grid.h) - 1 AS i
        FROM grid LEFT JOIN hourly ON hourly.h = grid.h
    ), holt AS (
        SELECT i, h, x, CAST(x AS DOUBLE) AS l,
               COALESCE((SELECT CAST(x AS DOUBLE) FROM dense WHERE i = 1)
                   - CAST(x AS DOUBLE), 0.0) AS b
        FROM dense WHERE i = 0
        UNION ALL
        SELECT d.i, d.h, d.x,
               0.5 * CAST(d.x AS DOUBLE) + 0.5 * (p.l + p.b),
               0.5 * ((0.5 * CAST(d.x AS DOUBLE) + 0.5 * (p.l + p.b)) - p.l)
                   + 0.5 * p.b
        FROM holt p JOIN dense d ON d.i = p.i + 1
    )
    SELECT h AS hour, CAST(x AS BIGINT) AS cents, l AS level, b AS trend
    FROM holt
    """,
)
def events_holt_linear(sf_dir: str):
    """Holt double-exponential smoothing (level + linear trend,
    alpha = beta = 1/2) of the global hourly revenue series — the
    classic short-horizon forecaster run over the zero-filled dense
    hour grid (l_t = a*x_t + (1-a)(l+b); b_t = B(l_t - l) + (1-B)b,
    seeded l_0 = x_0, b_0 = x_1 - x_0). The distributed part is the
    per-batch integer-cents hourly partials (exchange bounded by the
    HOUR GRID, never event rows); the recurrence itself is inherently
    sequential, so it runs once over the series on the driver — series
    length is time-range-bounded, not corpus-bounded, which is the
    honest scale story for any exponential smoother. The oracle replays
    the identical recurrence as a recursive CTE with the same double
    arithmetic order, so level/trend hash bit-identically."""
    h0, x = _hourly_cents(sf_dir)
    span = len(x)
    h1 = h0 + span - 1
    level = np.empty(span, np.float64)
    trend = np.empty(span, np.float64)
    level[0] = float(x[0])
    # degenerate single-point series: no second observation to seed the
    # trend; 0.0 mirrors the oracle's NULL-coalesced b seed (ADVICE r4)
    trend[0] = float(x[1]) - float(x[0]) if span >= 2 else 0.0
    for i in range(1, span):
        l_new = 0.5 * float(x[i]) + 0.5 * (level[i - 1] + trend[i - 1])
        trend[i] = 0.5 * (l_new - level[i - 1]) + 0.5 * trend[i - 1]
        level[i] = l_new
    return pa.table(
        {
            "hour": pa.array(np.arange(h0, h1 + 1, dtype=np.int64), pa.int64()),
            "cents": pa.array(x, pa.int64()),
            "level": pa.array(level, pa.float64()),
            "trend": pa.array(trend, pa.float64()),
        }
    )


@register(
    "events_changepoint",
    oracle="""
    WITH hourly AS (
        SELECT CAST(date_diff('hour', TIMESTAMP '2024-01-01 00:00:00', ts)
                   AS BIGINT) AS h,
               SUM(CAST(round(value * 100) AS BIGINT)) AS x
        FROM events GROUP BY 1
    ), grid AS (
        SELECT unnest(range((SELECT min(h) FROM hourly),
                            (SELECT max(h) FROM hourly) + 1)) AS h
    ), dense AS (
        SELECT grid.h, COALESCE(hourly.x, 0) AS x,
               row_number() OVER (ORDER BY grid.h) - 1 AS i
        FROM grid LEFT JOIN hourly ON hourly.h = grid.h
    ), cum AS (
        SELECT i, h, sum(x) OVER (ORDER BY i) AS cs FROM dense
    ), tot AS (
        SELECT CAST(count(*) AS BIGINT) AS n, CAST(sum(x) AS BIGINT) AS s,
               CAST(sum(x * x) AS BIGINT) AS ssq
        FROM dense
    ), gains AS (
        SELECT i + 1 AS k,
               CAST(cs AS DOUBLE) * cs / (i + 1)
                   + CAST(t.s - cs AS DOUBLE) * (t.s - cs) / (t.n - i - 1)
                   AS gain
        FROM cum, tot t WHERE i < t.n - 1
    ), best AS (
        SELECT k, gain FROM gains ORDER BY gain DESC, k ASC LIMIT 1
    )
    SELECT CAST((SELECT min(h) FROM hourly) + b.k AS BIGINT) AS split_hour,
           CAST(b.k AS BIGINT) AS n_left,
           CAST(t.n - b.k AS BIGINT) AS n_right,
           (SELECT CAST(cs AS DOUBLE) / b.k FROM cum WHERE i = b.k - 1)
               AS mean_left,
           CAST(t.s - (SELECT cs FROM cum WHERE i = b.k - 1) AS DOUBLE)
               / (t.n - b.k) AS mean_right,
           CAST(t.ssq AS DOUBLE) - b.gain AS sse_after
    FROM best b, tot t
    """,
)
def events_changepoint(sf_dir: str):
    """Single-changepoint detection by binary segmentation over the
    zero-filled hourly revenue series: the split k that minimizes the
    two-segment sum of squared errors, found by maximizing
    S_L^2/n_L + S_R^2/n_R (the SSE identity — only the between-segment
    term varies, so no per-split variance pass is needed). Hourly
    integer-cents partials bound the exchange to the hour grid; the
    cumulative sums are exact int64, every candidate split's gain is
    one vectorized double expression over the grid, and ties break on
    the smallest split index deterministically. Reports the split hour,
    segment sizes and means, and the post-split SSE. The oracle replays
    the identical window-cumsum + argmax in SQL."""
    h0, x = _hourly_cents(sf_dir)
    span = len(x)
    h1 = h0 + span - 1
    cs = x.cumsum()
    s, ssq, n = int(cs[-1]), int((x * x).sum()), span
    k = np.arange(1, n)
    sl = cs[:-1]
    gain = sl.astype(np.float64) * sl / k + (np.float64(s) - sl) * (s - sl) / (n - k)
    best = int(np.argmax(gain))  # first max = smallest k on ties
    bk = int(k[best])
    return pa.table(
        {
            "split_hour": pa.array([h0 + bk], pa.int64()),
            "n_left": pa.array([bk], pa.int64()),
            "n_right": pa.array([n - bk], pa.int64()),
            "mean_left": pa.array([float(cs[bk - 1]) / bk], pa.float64()),
            "mean_right": pa.array(
                [float(s - int(cs[bk - 1])) / (n - bk)], pa.float64()
            ),
            "sse_after": pa.array([float(ssq) - float(gain[best])], pa.float64()),
        }
    )


@register(
    "events_entropy_rate",
    oracle="""
    WITH seq AS (
        SELECT event_type,
               lag(event_type) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id
               ) AS prev
        FROM events
    ), tc AS (
        SELECT prev AS from_type, event_type AS to_type, count(*) AS cnt
        FROM seq WHERE prev IS NOT NULL GROUP BY prev, event_type
    ), marg AS (
        SELECT from_type, CAST(sum(cnt) AS BIGINT) AS n_out FROM tc
        GROUP BY from_type
    ), tot AS (SELECT CAST(sum(cnt) AS BIGINT) AS n FROM tc)
    SELECT m.from_type, m.n_out,
           -sum((CAST(tc.cnt AS DOUBLE) / m.n_out)
                * ln(CAST(tc.cnt AS DOUBLE) / m.n_out)) AS h_cond,
           (CAST(m.n_out AS DOUBLE) / t.n)
               * -sum((CAST(tc.cnt AS DOUBLE) / m.n_out)
                      * ln(CAST(tc.cnt AS DOUBLE) / m.n_out)) AS rate_term
    FROM tc JOIN marg m USING (from_type), tot t
    GROUP BY m.from_type, m.n_out, t.n
    """,
)
def events_entropy_rate(sf_dir: str):
    """Entropy rate of the user-behavior Markov chain: for every source
    event type, the conditional next-step entropy
    H(next | from) = -sum_j P(j|from) ln P(j|from) over the empirical
    per-user adjacent transitions, plus its contribution to the chain's
    entropy rate weighted by the empirical source frequency — the
    predictability dashboard behind session-path models (a type whose
    h_cond ~ ln(K) is a uniform random hop; ~0 is deterministic
    funnel). Transition counts ride the shared bucketed-window plan
    (one user-bucket shuffle, vectorized shifted compare); the exchange
    after that is the TYPES^2 transition matrix, never event rows.
    Double arithmetic order matches the oracle exactly."""
    import pandas as pd

    import ray.data

    from sciscraper_ray.stages.window import bucket_type_transitions, bucketed_window

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )
    tc = (
        bucketed_window(ds, bucket_type_transitions)
        .to_pandas()  # bounded: |types|^2 x buckets
        .groupby(["from_type", "to_type"], as_index=False)["cnt"]
        .sum()
    )
    total = int(tc["cnt"].sum())
    rows = []
    for ft, g in tc.groupby("from_type"):
        n_out = int(g["cnt"].sum())
        p = g["cnt"].to_numpy(np.int64).astype(np.float64) / n_out
        h = -float((p * np.log(p)).sum())
        rows.append((ft, n_out, h, (float(n_out) / total) * h))
    return pa.table(
        {
            "from_type": pa.array([r[0] for r in rows], pa.string()),
            "n_out": pa.array([r[1] for r in rows], pa.int64()),
            "h_cond": pa.array([r[2] for r in rows], pa.float64()),
            "rate_term": pa.array([r[3] for r in rows], pa.float64()),
        }
    )


@register(
    "events_emd",
    oracle="""
    WITH x AS (
        SELECT CAST(round(value * 100) AS BIGINT) AS cents,
               CASE WHEN event_type = 'click' THEN 1 ELSE 0 END AS g
        FROM events WHERE event_type IN ('click', 'view')
    ), n AS (
        SELECT CAST(sum(g) AS BIGINT) AS n1,
               CAST(sum(1 - g) AS BIGINT) AS n2 FROM x
    ), pts AS (
        SELECT cents, sum(g) AS c1, sum(1 - g) AS c2 FROM x GROUP BY cents
    ), cum AS (
        SELECT cents,
               sum(c1) OVER (ORDER BY cents) AS f1,
               sum(c2) OVER (ORDER BY cents) AS f2,
               lead(cents) OVER (ORDER BY cents) AS nxt
        FROM pts
    )
    SELECT CAST(sum(abs(f1 * n.n2 - f2 * n.n1) * (nxt - cents)) AS DOUBLE)
               AS emd_num,
           n.n1, n.n2,
           CAST(sum(abs(f1 * n.n2 - f2 * n.n1) * (nxt - cents)) AS DOUBLE)
               / (CAST(n.n1 AS DOUBLE) * CAST(n.n2 AS DOUBLE)) AS emd_cents
    FROM cum, n WHERE nxt IS NOT NULL GROUP BY n.n1, n.n2
    """,
)
def events_emd(sf_dir: str):
    """1-D earth mover's (Wasserstein-1) distance between the 'click'
    and 'view' value distributions, in cents: for empirical CDFs the
    transport integral collapses to sum over consecutive distinct
    points of |F1 - F2| * gap, and with both CDFs scaled by n1*n2 the
    accumulator is EXACT INTEGER arithmetic (Python bigints on the
    driver, HUGEINT in the oracle — the sum overflows int64 at scale,
    which numpy would hide silently). The companion to events_ks_test:
    KS reads the worst point; EMD reads the total mass displaced.
    Same domain-bounded (cents, group) partial exchange; only the final
    ratio is a double."""
    pts = _click_view_cents(sf_dir)
    t = pts["cents"].to_numpy(np.int64)
    f1 = pts["c1"].to_numpy(np.int64).cumsum()
    f2 = pts["c2"].to_numpy(np.int64).cumsum()
    n1, n2 = int(f1[-1]), int(f2[-1])
    # exact bigint accumulation (int64 overflows at warehouse scale)
    emd_num = sum(
        abs(int(a) * n2 - int(b) * n1) * (int(t[k + 1]) - int(t[k]))
        for k, (a, b) in enumerate(zip(f1[:-1], f2[:-1]))
    )
    return pa.table(
        {
            "emd_num": pa.array([float(emd_num)], pa.float64()),
            "n1": pa.array([n1], pa.int64()),
            "n2": pa.array([n2], pa.int64()),
            "emd_cents": pa.array(
                [float(emd_num) / (float(n1) * float(n2))], pa.float64()
            ),
        }
    )


@register(
    "events_viterbi_regime",
    oracle="""
    WITH RECURSIVE hourly AS (
        SELECT CAST(date_diff('hour', TIMESTAMP '2024-01-01 00:00:00', ts)
                   AS BIGINT) AS h,
               SUM(CAST(round(value * 100) AS BIGINT)) AS x
        FROM events GROUP BY 1
    ), grid AS (
        SELECT unnest(range((SELECT min(h) FROM hourly),
                            (SELECT max(h) FROM hourly) + 1)) AS h
    ), dense AS (
        SELECT grid.h, COALESCE(hourly.x, 0) AS x,
               row_number() OVER (ORDER BY grid.h) - 1 AS i
        FROM grid LEFT JOIN hourly ON hourly.h = grid.h
    ), params AS (
        SELECT (3 * ((SELECT sum(x) FROM dense) // (SELECT count(*) FROM dense))) // 2 AS muh,
               ((SELECT sum(x) FROM dense) // (SELECT count(*) FROM dense)) // 2 AS mul
    ), pen AS (
        SELECT params.muh, params.mul,
               ((muh - mul) // 2) * ((muh - mul) // 2) AS p
        FROM params
    ), vit AS (
        -- single forward recursion; the backtrack rides along as two
        -- candidate path strings (ph = best path ending high, pl = low),
        -- each step appending its own state — so no second recursion
        SELECT d.i, d.x,
               (d.x - q.muh) * (d.x - q.muh) AS vh,
               (d.x - q.mul) * (d.x - q.mul) AS vl,
               'H' AS ph, 'L' AS pl
        FROM dense d, pen q WHERE d.i = 0
        UNION ALL
        SELECT d.i, d.x,
               (d.x - q.muh) * (d.x - q.muh) + least(p.vh, p.vl + q.p),
               (d.x - q.mul) * (d.x - q.mul) + least(p.vl, p.vh + q.p),
               (CASE WHEN p.vh <= p.vl + q.p THEN p.ph ELSE p.pl END) || 'H',
               (CASE WHEN p.vl <= p.vh + q.p THEN p.pl ELSE p.ph END) || 'L'
        FROM vit p JOIN dense d ON d.i = p.i + 1, pen q
    ), winner AS (
        SELECT CASE WHEN vh <= vl THEN ph ELSE pl END AS path
        FROM vit WHERE i = (SELECT max(i) FROM vit)
    )
    SELECT d.h AS hour, CAST(d.x AS BIGINT) AS cents,
           CASE substr((SELECT path FROM winner), CAST(d.i + 1 AS INTEGER), 1)
                WHEN 'H' THEN 'high' ELSE 'low' END AS regime
    FROM dense d
    """,
)
def events_viterbi_regime(sf_dir: str):
    """Two-state regime decoding of the hourly revenue series by
    EXACT-INTEGER Viterbi (min-sum): emissions are squared deviations
    from data-derived high/low level centers (mu_high = 3*mu/2,
    mu_low = mu/2, integer floor division), the switch penalty is
    ((mu_high-mu_low)/2)^2, and every comparison is int64 — so the
    decoded path is bit-deterministic with documented tie-breaks (ties
    prefer staying in state; the final state prefers 'high'). This is
    the max-product HMM decode behind burst/lull segmentation of
    traffic, done without floats so the oracle can replay BOTH the
    forward recursion and the backtrack as recursive CTEs and match
    hash-exactly. Hourly integer-cents partials bound the exchange to
    the hour grid; the recursion is series-length-bounded driver work
    like the Holt smoother. At sf >= 10 the squared emissions approach
    int64 range — the scale path banks cents/10 (documented, not
    silently applied here)."""
    h0, x = _hourly_cents(sf_dir)
    span = len(x)
    h1 = h0 + span - 1
    mu = int(x.sum()) // span
    muh, mul = (3 * mu) // 2, mu // 2
    pen = ((muh - mul) // 2) ** 2
    eh = (x - muh) ** 2
    el = (x - mul) ** 2
    vh = np.empty(span, np.int64)
    vl = np.empty(span, np.int64)
    vh[0], vl[0] = eh[0], el[0]
    for t in range(1, span):
        vh[t] = eh[t] + min(vh[t - 1], vl[t - 1] + pen)
        vl[t] = el[t] + min(vl[t - 1], vh[t - 1] + pen)
    st = np.empty(span, np.int64)
    st[-1] = 1 if vh[-1] <= vl[-1] else 0
    for t in range(span - 2, -1, -1):
        if st[t + 1] == 1:
            st[t] = 1 if vh[t] <= vl[t] + pen else 0
        else:
            st[t] = 0 if vl[t] <= vh[t] + pen else 1
    return pa.table(
        {
            "hour": pa.array(np.arange(h0, h1 + 1, dtype=np.int64), pa.int64()),
            "cents": pa.array(x, pa.int64()),
            "regime": pa.array(
                ["high" if s == 1 else "low" for s in st], pa.string()
            ),
        }
    )


@register(
    "events_bounce_rate",
    oracle="""
    WITH o AS (
        SELECT user_id, ts, event_id, event_type,
               CASE WHEN lag(ts) OVER w IS NULL
                         OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
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
    ), firsts AS (
        SELECT event_type,
               row_number() OVER (
                   PARTITION BY user_id, session_id ORDER BY ts, event_id
               ) AS rn,
               count(*) OVER (PARTITION BY user_id, session_id) AS n
        FROM s
    )
    SELECT event_type AS entry_type,
           CAST(count(*) AS BIGINT) AS n_sessions,
           CAST(count(*) FILTER (n = 1) AS BIGINT) AS n_bounces,
           CAST(count(*) FILTER (n = 1) AS DOUBLE) / count(*) AS bounce_rate
    FROM firsts WHERE rn = 1 GROUP BY event_type
    """,
)
def events_bounce_rate(sf_dir: str):
    """Bounce rate by session entry type: sessionize (same 30-minute
    gap rule as events_sessionize, same bucketed-window plan), take
    each session's FIRST event type as its landing page, and report
    what fraction of sessions ended after that single event — the
    engagement metric every funnel report leads with, here grouped by
    what the user landed on. In-bucket the per-session (entry, n)
    reduction is reduceat over session segments; the exchange after
    that is TYPES-bounded. Exact integers plus one identically-ordered
    double ratio."""
    import pandas as pd

    import ray.data

    from sciscraper_ray.stages.window import bucketed_window

    gap_us = 30 * 60 * 1_000_000
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "event_type"],
    )

    def kernel(g: "pd.DataFrame") -> "pd.DataFrame":
        user = g["user_id"].to_numpy()
        ts = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        eid = g["event_id"].to_numpy()
        et = g["event_type"].to_numpy()
        order = np.lexsort((eid, ts, user))
        user, ts, et = user[order], ts[order], et[order]
        new_s = np.ones(len(user), bool)
        if len(user) > 1:
            new_s[1:] = (user[1:] != user[:-1]) | (ts[1:] - ts[:-1] > gap_us)
        starts = np.flatnonzero(new_s)
        lens = np.diff(np.concatenate((starts, [len(user)])))
        entry = et[starts]
        t = pa.table(
            {"entry_type": entry, "bounce": pa.array(lens == 1, pa.int64())}
        )
        return group_count_batch(
            t, ["entry_type"], {"bounce": "n_bounces"}, count="n_sessions"
        ).to_pandas()  # bounded: worker-side kernel return

    parts = (
        bucketed_window(ds, kernel)
        .to_pandas()  # bounded: |entry types| x buckets
        .groupby("entry_type", as_index=False)
        .sum()
    )
    ns = parts["n_sessions"].to_numpy(np.int64)
    nb = parts["n_bounces"].to_numpy(np.int64)
    return pa.table(
        {
            "entry_type": pa.array(parts["entry_type"], pa.string()),
            "n_sessions": pa.array(ns, pa.int64()),
            "n_bounces": pa.array(nb, pa.int64()),
            "bounce_rate": pa.array(
                nb.astype(np.float64) / ns.astype(np.float64), pa.float64()
            ),
        }
    )


@register(
    "events_mutual_info_type_hour",
    oracle="""
    WITH x AS (
        SELECT event_type AS t,
               CAST(date_part('hour', ts) AS BIGINT) AS h
        FROM events
    ), joint AS (
        SELECT t, h, CAST(count(*) AS BIGINT) AS c FROM x GROUP BY t, h
    ), mt AS (SELECT t, CAST(sum(c) AS BIGINT) AS ct FROM joint GROUP BY t),
    mh AS (SELECT h, CAST(sum(c) AS BIGINT) AS ch FROM joint GROUP BY h),
    n AS (SELECT CAST(sum(c) AS BIGINT) AS n FROM joint)
    SELECT (SELECT n FROM n) AS n_events,
           (SELECT count(*) FROM joint) AS n_cells,
           round(sum((CAST(j.c AS DOUBLE) / nn.n)
                     * ln((CAST(j.c AS DOUBLE) * nn.n)
                          / (CAST(mt.ct AS DOUBLE) * mh.ch))), 8) AS mi_nats
    FROM joint j JOIN mt USING (t) JOIN mh USING (h), n nn
    """,
)
def events_mutual_info_type_hour(sf_dir: str):
    """Mutual information between event type and hour-of-day (nats):
    MI = sum over the TYPES x 24 contingency table of
    p(t,h) ln(p(t,h) n / (c_t c_h)) — the dependence gauge behind
    'does behavior have a clock': MI ~ 0 says the type mix is
    time-invariant (safe to sample uniformly); high MI says any
    hour-sliced training split is type-biased. Counts are exact int64
    off a cells-bounded per-batch partial exchange (TYPES x 24 cells,
    never event rows); only the final ln-sum is a double, pinned at
    round(,8) like the PMI family."""
    import pandas as pd

    import ray.data

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"]
    )

    def partials(batch: pa.Table) -> pa.Table:
        h = (
            pc.hour(pc.cast(batch["ts"], pa.timestamp("us")))
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        t = batch["event_type"].to_numpy(zero_copy_only=False)
        df = (
            pd.DataFrame({"t": t, "h": h})
            .value_counts()
            .rename("c")
            .reset_index()
        )
        return pa.Table.from_pandas(df, preserve_index=False)

    joint = (
        ds.map_batches(partials, batch_format="pyarrow")
        .to_pandas()  # bounded: |types| x |hours| x blocks
        .groupby(["t", "h"], as_index=False)["c"]
        .sum()
    )
    n = int(joint["c"].sum())
    ct = joint.groupby("t")["c"].sum()
    ch = joint.groupby("h")["c"].sum()
    c = joint["c"].to_numpy(np.int64).astype(np.float64)
    ctv = joint["t"].map(ct).to_numpy(np.int64).astype(np.float64)
    chv = joint["h"].map(ch).to_numpy(np.int64).astype(np.float64)
    mi = float(((c / n) * np.log((c * n) / (ctv * chv))).sum())
    return pa.table(
        {
            "n_events": pa.array([n], pa.int64()),
            "n_cells": pa.array([len(joint)], pa.int64()),
            "mi_nats": pa.array([np.round(mi, 8)], pa.float64()),
        }
    )


@register(
    "events_dau_stickiness",
    oracle="""
    WITH d AS (
        SELECT CAST(date_diff('day', TIMESTAMP '2024-01-01 00:00:00', ts)
                   AS BIGINT) AS day, user_id
        FROM events
    ), dau AS (
        SELECT day, CAST(count(DISTINCT user_id) AS BIGINT) AS dau
        FROM d GROUP BY day
    ), mau AS (
        SELECT CAST(count(DISTINCT user_id) AS BIGINT) AS mau FROM d
    )
    SELECT dau.day, dau.dau, mau.mau,
           CAST(dau.dau AS DOUBLE) / mau.mau AS stickiness
    FROM dau, mau
    """,
)
def events_dau_stickiness(sf_dir: str, mode: str = "auto"):
    """DAU/MAU stickiness per day — the engagement ratio every product
    dashboard leads with (what share of the month's distinct users show
    up on a given day). Distinctness is computed without shipping event
    rows: per-batch (day, user) DISTINCT partials bound the exchange to
    active (day, user) pairs. The pair table is data-proportional
    (~window-days x MAU rows), so it routes through ``resolve_plan``
    (VERDICT r4 item 1): below the 50M-row bound the pairs merge on the
    driver (one drop_duplicates + nunique); above it a distributed
    groupby(day, user) dedups the pairs and two day-/scalar-bounded
    aggregates produce DAU and the MAU denominator — only |days| rows
    ever reach the driver on that plan. Exact integers, one
    identically-ordered double ratio. At multi-month scale the
    denominator becomes a trailing-window distinct per day (the
    events_distinct_sliding machinery); this fixture's single-month
    stream keeps it one constant."""
    import pandas as pd

    import ray.data
    from ray.data.aggregate import Count

    from sciscraper_ray.pipelines.plan import driver_frame, resolve_plan

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id"]
    )
    epoch = np.datetime64("2024-01-01T00:00:00", "us").astype(np.int64)

    def partials(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch["ts"], pa.timestamp("us")).cast(pa.int64()).to_numpy()
        day = (ts - epoch) // 86_400_000_000
        u = batch["user_id"].to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"day": day, "user_id": u}).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    pairs_ds = ds.map_batches(partials, batch_format="pyarrow")
    plan, pairs_ds = resolve_plan(pairs_ds, mode)

    def result_table(days, dv, mau) -> pa.Table:
        days = np.asarray(days, np.int64)
        dv = np.asarray(dv, np.int64)
        return pa.table(
            {
                "day": pa.array(days, pa.int64()),
                "dau": pa.array(dv, pa.int64()),
                "mau": pa.array(np.full(len(days), mau, np.int64), pa.int64()),
                "stickiness": pa.array(
                    dv.astype(np.float64) / np.float64(mau), pa.float64()
                ),
            }
        )

    if plan == "shuffle":
        # Global pair distinct via one hash-partitioned aggregate; both
        # downstream reductions consume it, so materialize once (object
        # store blocks, spillable — never the driver heap).
        distinct = (
            pairs_ds.groupby(["day", "user_id"])
            .aggregate(Count(alias_name="c"))
            .materialize()
        )
        dau_df = (
            distinct.groupby("day")
            .aggregate(Count(alias_name="dau"))
            .to_pandas()  # bounded: |days| rows
            .sort_values("day")
        )
        mau = distinct.groupby("user_id").aggregate(Count(alias_name="c")).count()
        return result_table(
            dau_df["day"].to_numpy(), dau_df["dau"].to_numpy(), int(mau)
        )

    pairs = driver_frame(
        pairs_ds, what="events_dau_stickiness"
    ).drop_duplicates()
    dau = pairs.groupby("day")["user_id"].nunique().sort_index()
    mau = int(pairs["user_id"].nunique())
    return result_table(dau.index.to_numpy(np.int64), dau.to_numpy(np.int64), mau)
