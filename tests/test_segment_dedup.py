"""C4-style corpus-level segment dedup: kernel degenerate inputs plus a
from-first-principles pandas recomputation of the keep-first-occurrence
contract (oracle parity runs in tools/check_correctness.py)."""

import pandas as pd
import pyarrow as pa

from sciscraper_ray.kernels.tokenize import segment_column
from sciscraper_ray.pipelines.queries import QUERIES
from sciscraper_ray.pipelines.queries.corpus_ops import SEGDEDUP_W

SF = "/root/testdata/sf0.001"


def test_segment_column_degenerates():
    texts = pa.array(["a b c d e f g h i j", "x y", None, "", " one  two "])
    row, seg_no, seg = segment_column(texts, 4)
    assert row.tolist() == [0, 0, 0, 1, 3, 4]
    assert seg_no.tolist() == [0, 1, 2, 0, 0, 0]
    # exact 4-token windows, a short tail, null -> no segments, "" -> one
    # empty segment, and the single-space-split quirk round-trips (the
    # double space survives as an empty token inside the segment)
    assert seg.to_pylist() == ["a b c d", "e f g h", "i j", "x y", "", "one  two"]


def test_segment_column_exact_multiple():
    row, seg_no, seg = segment_column(pa.array(["a b c d"]), 2)
    assert seg.to_pylist() == ["a b", "c d"]
    # rejoining a row's segments reproduces its tokenized text
    assert " ".join(seg.to_pylist()) == "a b c d"


def test_segment_dedup_matches_first_occurrence_scan(ray_session):
    out = QUERIES["doc_segment_dedup"](SF).to_pandas()
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["doc_id", "text"])

    seen = set()
    exp = {}
    for doc_id, text in docs.sort_values("doc_id").itertuples(index=False):
        if text is None:
            continue
        toks = text.strip().lower().split(" ")
        kept = []
        for i in range(0, len(toks), SEGDEDUP_W):
            s = " ".join(toks[i : i + SEGDEDUP_W])
            if s not in seen:
                seen.add(s)
                kept.append(s)
        if kept:
            exp[doc_id] = (" ".join(kept), len(kept))

    got = {r.doc_id: (r.text, r.n_segs) for r in out.itertuples(index=False)}
    assert got == exp
    # the corpus actually exercises the operator: some doc loses a segment
    assert any(
        n * SEGDEDUP_W < len(t.split(" ")) + SEGDEDUP_W - 1 for t, n in exp.values()
    )
    assert len(exp) < len(docs)  # at least one fully-duplicate doc vanishes
