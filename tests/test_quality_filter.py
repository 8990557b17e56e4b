"""Gopher-style quality gate: degenerate inputs + a pandas recomputation
of the integer rule contract (oracle parity in tools/check_correctness.py)."""

import pandas as pd

from sciscraper_ray.pipelines.queries import QUERIES
from sciscraper_ray.pipelines.queries.corpus_ops import _GOPHER_STOPS

SF = "/root/testdata/sf0.001"


def test_gopher_rules_match_scalar_recompute(ray_session):
    out = QUERIES["doc_gopher_filter"](SF).to_pandas().set_index("doc_id")
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["doc_id", "text"])
    checked = kept = 0
    for doc_id, text in docs.itertuples(index=False):
        if text is None:
            assert doc_id not in out.index
            continue
        toks = text.strip().lower().split(" ")
        n = len(toks)
        s = sum(len(t) for t in toks)
        st = sum(t in _GOPHER_STOPS for t in toks)
        al = sum(any("a" <= c <= "z" for c in t) for t in toks)
        row = out.loc[doc_id]
        assert (row.n_words, row.sum_chars, row.stop_hits, row.alpha_words) == (
            n,
            s,
            st,
            al,
        )
        keep = int(
            20 <= n <= 80 and 4 * n <= s <= 5 * n and 5 * al >= 4 * n and st >= 2
        )
        assert row.keep == keep
        checked += 1
        kept += keep
    assert checked == len(out)
    assert 0 < kept < checked  # the gate must actually split the corpus
