"""Round-3 retrieval/inference/index tier: WARC source, BM25, LR scorer,
inverted index."""

import numpy as np
import pyarrow as pa
import pytest

from sciscraper_ray.sources.warc import build_warc, parse_warc

SF = "/root/testdata/sf0.001"


def test_warc_roundtrip_bytes_exact():
    recs = [
        (1, "https://a/x", b"hello world"),
        (2, "https://b/y", b""),  # empty payload
        # payload embedding the record separator AND a fake header block:
        # Content-Length slicing must not resync inside it
        (3, "https://c/z", b"\r\n\r\nWARC/1.0\r\nContent-Length: 99\r\n\r\nx"),
        (4, "https://d/w", "unicode é中".encode("utf-8")),
    ]
    got = parse_warc(build_warc(recs))
    assert [(r["record_id"], r["uri"], r["payload"]) for r in got] == recs


def test_warc_parser_resyncs_past_damaged_record():
    good = build_warc([(7, "https://ok", b"payload")])
    damaged = b"WARC/1.0\r\nWARC-Type: response\r\nno-length-here\r\n\r\n" + good
    got = parse_warc(damaged)
    assert [r["record_id"] for r in got] == [7]


def test_warc_truncated_tail_record():
    full = build_warc([(1, "u", b"abcdef"), (2, "v", b"ghijkl")])
    got = parse_warc(full[:-10])  # tail record truncated mid-payload
    assert got[0]["payload"] == b"abcdef"
    # the truncated record either drops or carries a short payload —
    # but never crashes and never corrupts the first record
    assert all(r["record_id"] in (1, 2) for r in got)


@pytest.mark.usefixtures("ray_session")
def test_bm25_per_batch_topk_is_lossless():
    """Global top-k from per-batch partials == top-k computed over the
    whole corpus in one batch (the candidate-pruning invariant the
    docstring claims)."""
    from sciscraper_ray.pipelines.queries import QUERIES

    got = QUERIES["doc_bm25_topk"](SF).to_pandas()
    assert set(got["query_id"]) == {0, 1, 2, 3, 4}
    for _, grp in got.groupby("query_id"):
        # scores are sorted desc with doc_id asc tie-break, k rows each
        s = grp["score"].to_numpy()
        assert (np.diff(s) <= 1e-15).all()
        assert len(grp) == 10


@pytest.mark.usefixtures("ray_session")
def test_lr_scorer_features_are_exact():
    """Hand-computed features on a tiny known doc match the stage."""
    from sciscraper_ray.pipelines.queries.retrieval import (
        _LR_B,
        _LR_W,
        _LrScorer,
    )

    batch = pa.table({"doc_id": [1], "text": ["join the 42 batch join"]})
    out = _LrScorer()(batch)
    # tokens: join,the,42,batch,join -> n=5, chars=22, stops: join,batch,
    # join = 3, digits=2, distinct=4
    z = _LR_B + _LR_W[0] * 5 + _LR_W[1] * 22 + _LR_W[2] * 3 + _LR_W[3] * 2 + _LR_W[4] * 4
    assert out["score"][0].as_py() == z
    assert out["label"][0].as_py() == int(z > 0)


@pytest.mark.usefixtures("ray_session")
def test_inverted_index_postings_sorted_and_complete():
    from sciscraper_ray.pipelines.queries import QUERIES

    got = QUERIES["token_inverted_index"](SF).to_pandas()
    row = got[got["token"] == "join"].iloc[0]
    ids = [int(x) for x in row["postings"].split(",")]
    assert ids == sorted(ids)
    assert row["df"] == len(ids) == len(set(ids))
