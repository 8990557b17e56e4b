"""Fused filter chain + SCD2 interval build."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.mark.usefixtures("ray_session")
def test_filter_chain_matches_standalone_gates():
    """The fused pass must agree with each standalone query's verdict:
    keep == (lang != und) AND gopher keep AND repetition keep, and the
    reason names the FIRST failing gate in chain order."""
    from sciscraper_ray.pipelines.queries.corpus_ops import (
        doc_filter_chain,
        doc_gopher_filter,
    )
    from sciscraper_ray.pipelines.queries.round2 import doc_repetition
    from sciscraper_ray.pipelines.queries.text_analysis import doc_lang_id

    chain = doc_filter_chain(SF).to_pandas().set_index("doc_id").sort_index()
    lang = doc_lang_id(SF).to_pandas().set_index("doc_id").sort_index()
    gopher = doc_gopher_filter(SF).to_pandas().set_index("doc_id").sort_index()
    rep = doc_repetition(SF).to_pandas().set_index("doc_id").sort_index()

    assert (chain.index == lang.index).all()
    expected_keep = (
        (lang["lang_pred"] != "und")
        & (gopher["keep"] == 1)
        & rep["keep"]
    )
    assert (chain["keep"] == expected_keep).all()
    # first-failing attribution: every 'lang' reason has lang_pred == und,
    # every 'pass' passes all three standalone gates
    assert (lang.loc[chain.reason == "lang", "lang_pred"] == "und").all()
    assert (gopher.loc[chain.reason == "pass", "keep"] == 1).all()
    assert rep.loc[chain.reason == "pass", "keep"].all()
    # n_words reason implies the gopher word-count rule specifically failed
    nw = gopher.loc[chain.reason == "n_words", "n_words"]
    assert ((nw < 20) | (nw > 80)).all()


@pytest.mark.usefixtures("ray_session")
def test_scd2_interval_invariants():
    """Per user: intervals tile the change history — valid_from strictly
    increasing, valid_to == next valid_from, exactly one open (NaT)
    interval per user, version_seq is 1..n, and consecutive intervals
    never carry the same state (runs are collapsed)."""
    from sciscraper_ray.pipelines.queries.corpus_ops import events_scd2

    df = events_scd2(SF).to_pandas()
    assert df.groupby("user_id")["valid_to"].apply(lambda s: s.isna().sum()).eq(1).all()
    for uid, g in df.groupby("user_id"):
        g = g.sort_values("version_seq").reset_index(drop=True)
        assert list(g["version_seq"]) == list(range(1, len(g) + 1))
        assert g["valid_from"].is_monotonic_increasing
        closed = g.iloc[:-1]
        nxt = g["valid_from"].iloc[1:].reset_index(drop=True)
        assert (
            closed["valid_to"].reset_index(drop=True) == nxt
        ).all(), uid
        assert pd.isna(g["valid_to"].iloc[-1])
        assert (g["state"].values[1:] != g["state"].values[:-1]).all()


@pytest.mark.usefixtures("ray_session")
def test_scd2_replays_event_log():
    """Interval count per user == number of event_type run boundaries in
    that user's (ts, event_id)-ordered log."""
    import pyarrow.parquet as pq

    from sciscraper_ray.pipelines.queries.corpus_ops import events_scd2

    df = events_scd2(SF).to_pandas()
    ev = pq.read_table(
        f"{SF}/events.parquet", columns=["event_id", "user_id", "event_type", "ts"]
    ).to_pandas()
    ev = ev.sort_values(["user_id", "ts", "event_id"])
    for uid, g in ev.groupby("user_id"):
        types = g["event_type"].to_numpy()
        n_runs = 1 + int((types[1:] != types[:-1]).sum())
        assert (df.user_id == uid).sum() == n_runs, uid


@pytest.mark.usefixtures("ray_session")
def test_budget_allocation_sums_exactly():
    from sciscraper_ray.pipelines.queries.corpus_ops import (
        _ALLOC_BUDGET,
        source_budget_allocation,
    )

    df = source_budget_allocation(SF).to_pandas()
    assert df.quota.sum() == _ALLOC_BUDGET
    # proportionality: quota within 1 of the exact share (Hamilton bound)
    share = df.n_docs / df.n_docs.sum() * _ALLOC_BUDGET
    assert ((df.quota - share).abs() <= 1).all()


@pytest.mark.usefixtures("ray_session")
def test_bigram_lm_scores_repetitive_text_higher():
    """A document's avg_logprob must equal the driver-side replay of the
    broadcast LM on its bigrams, and n_bigrams == n_tokens - 1."""
    import pyarrow.parquet as pq

    from sciscraper_ray.pipelines.queries.retrieval import doc_bigram_lm_ppl

    df = doc_bigram_lm_ppl(SF).to_pandas().set_index("doc_id").sort_index()
    docs = pq.read_table(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    toks = docs.set_index("doc_id")["text"].str.strip().str.lower().str.split(" ")
    assert (df["n_bigrams"] == toks.map(len).sort_index() - 1).all()
    # replay the LM for a handful of docs
    from collections import Counter

    uni = Counter()
    bg = Counter()
    for t in toks:
        uni.update(t)
        bg.update(zip(t, t[1:]))
    v = len(uni)
    for doc_id in list(df.index[:5]):
        t = toks.loc[doc_id]
        terms = [
            np.log((bg[(a, b)] + 1.0) / (uni[a] + v)) for a, b in zip(t, t[1:])
        ]
        assert df.loc[doc_id, "avg_logprob"] == pytest.approx(
            np.round(np.mean(terms), 6), abs=2e-6
        )
