"""Histogram-quantile sketch + sliding distinct-count invariants."""

from __future__ import annotations

import numpy as np
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


@pytest.mark.usefixtures("ray_session")
def test_quantile_sketch_brackets_exact_percentiles():
    """The sketch bucket must CONTAIN the exact percentile value (unit
    buckets: floor(exact_pctl) == bucket), and thresholds follow the
    ceil-rank definition."""
    from sciscraper_ray.pipelines.queries.events import (
        events_value_quantile_sketch,
    )

    got = events_value_quantile_sketch(SF).to_pandas().set_index("q_pct")
    v = np.sort(
        pq.read_table(f"{SF}/events.parquet", columns=["value"])["value"]
        .to_numpy(zero_copy_only=False)
    )
    n = len(v)
    for q in (50, 90, 95, 99):
        thr = int(np.ceil(q * n / 100.0))
        assert got.loc[q, "rank_threshold"] == thr
        exact = v[thr - 1]  # rank-thr order statistic
        assert got.loc[q, "bucket"] == int(np.floor(exact)), (q, exact)


@pytest.mark.usefixtures("ray_session")
def test_distinct_sliding_matches_pandas_replay():
    from sciscraper_ray.pipelines.queries.events import events_distinct_sliding

    got = (
        events_distinct_sliding(SF)
        .to_pandas()
        .set_index("hour")["distinct_users_3h"]
        .sort_index()
    )
    t = pq.read_table(f"{SF}/events.parquet", columns=["ts", "user_id"]).to_pandas()
    t["hour"] = t["ts"].astype("datetime64[us]").astype("int64") // 3_600_000_000
    pairs = t[["hour", "user_id"]].drop_duplicates()
    hours = np.sort(pairs["hour"].unique())
    assert list(got.index) == list(hours)
    for h in hours[:: max(1, len(hours) // 25)]:
        exp = pairs.loc[pairs.hour.between(h - 2, h), "user_id"].nunique()
        assert got.loc[h] == exp, h


@pytest.mark.usefixtures("ray_session")
def test_compaction_preserves_content_and_reduces_files():
    from sciscraper_ray.pipelines.queries.corpus_ops import (
        small_files_compaction,
    )

    got = small_files_compaction(SF).to_pandas().sort_values("lang")
    docs = pq.read_table(
        f"{SF}/documents.parquet", columns=["lang", "n_chars"]
    ).to_pandas()
    exp = docs.groupby("lang").agg(n_docs=("lang", "size"), total_chars=("n_chars", "sum"))
    for _, r in got.iterrows():
        assert r.n_docs == exp.loc[r.lang, "n_docs"]
        assert r.total_chars == exp.loc[r.lang, "total_chars"]


@pytest.mark.usefixtures("ray_session")
def test_mad_flags_match_pandas_replay():
    from sciscraper_ray.pipelines.queries.corpus_ops import events_anomaly_mad

    got = (
        events_anomaly_mad(SF).to_pandas().set_index("event_id").sort_index()
    )
    ev = pq.read_table(
        f"{SF}/events.parquet", columns=["event_id", "user_id", "value"]
    ).to_pandas()
    med = ev.groupby("user_id")["value"].median()
    dev = (ev["value"] - ev["user_id"].map(med)).abs()
    mad = dev.groupby(ev["user_id"]).median()
    exp = (
        ev.assign(f=(dev > 3 * ev["user_id"].map(mad)))
        .set_index("event_id")["f"]
        .sort_index()
    )
    assert (got["is_outlier"] == exp).all()
    assert got["is_outlier"].sum() > 0  # the rule actually fires
