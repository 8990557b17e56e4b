"""Round-4 batch AK: charset-mismatch sniffing."""

from __future__ import annotations

SF = "/root/testdata/sf0.001"


def test_charset_mismatch_query(ray_session):
    from sciscraper_ray.pipelines.queries import QUERIES

    got = QUERIES["page_charset_mismatch"](SF).to_pandas()
    lies = got[got["mismatch"] == 1]
    assert set(lies["doc_id"] % 4) == {1, 2}
    # both lie cases still recover the exact accented string
    sample = lies.iloc[0]
    assert sample["body_text"].startswith("Résumé ")
    assert "naïve café" in sample["body_text"]
    truthful = got[got["mismatch"] == 0]
    assert set(truthful["doc_id"] % 4) == {0, 3}
