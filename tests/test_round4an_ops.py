"""Round-4 batch AN: magic-byte sniffing + script-mix profiling."""

from __future__ import annotations

import gzip

from sciscraper_ray.pipelines.queries.extraction import sniff_payload_type

SF = "/root/testdata/sf0.001"


def test_sniff_magic_bytes():
    from sciscraper_ray.sources.pdf_write import build_pdf

    assert sniff_payload_type(build_pdf(["x"])) == "pdf"
    assert sniff_payload_type(b"\x89PNG\r\n\x1a\n\x00\x00\x00\rIHDR") == "png"
    assert sniff_payload_type(gzip.compress(b"x", mtime=0)) == "gzip"
    assert sniff_payload_type(b"\xff\xd8\xff\xe0rest") == "jpeg"
    assert sniff_payload_type(b"  <!DOCTYPE HTML><html>") == "html"
    assert sniff_payload_type(b"<HTML><body>") == "html"
    assert sniff_payload_type(b"\x00\x01garbage") == "octet-stream"


def test_magic_sniff_query(ray_session):
    from sciscraper_ray.pipelines.queries import QUERIES

    got = QUERIES["payload_magic_sniff"](SF).to_pandas()
    assert len(got) == 500
    # every %5 row (lying declaration) is flagged, regardless of format
    assert (got[got["doc_id"] % 5 == 0]["mislabeled"] == 1).all()
    assert (got[got["doc_id"] % 5 != 0]["mislabeled"] == 0).all()
    # sniff never trusts the declaration
    exp_type = got["doc_id"].mod(6).map(
        {0: "pdf", 1: "png", 2: "gif", 3: "wav", 4: "gzip", 5: "html"}
    )
    assert (got["sniffed_type"] == exp_type).all()


def test_script_mix_query(ray_session):
    from sciscraper_ray.pipelines.queries import QUERIES

    got = QUERIES["doc_script_mix"](SF).to_pandas()
    cyr = got[got["doc_id"] % 7 == 0]
    assert (cyr["cyrillic_chars"] == len("Приветмир") ).all()
    mixed = got[got["doc_id"] % 7 == 3]
    assert (mixed["is_mixed"] == 1).all()
    assert (mixed["cjk_chars"] == 1).all()
    latin = got[got["doc_id"] % 7 > 3]
    assert (latin[["cyrillic_chars", "greek_chars", "cjk_chars"]] == 0).all().all()
    assert (latin["is_mixed"] == 0).all()
