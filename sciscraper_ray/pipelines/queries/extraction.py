"""Page-table extraction: the north-star HTML/PDF pipeline family.

Split from pipelines/queries.py (round 4); registration side effects
only — import order is fixed by the package __init__.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from sciscraper_ray.pipelines.queries._shared import (
    _docs,
    register,
)
from sciscraper_ray.pipelines.queries.doc_analysis import (
    _IDENT_SUFFIX_SQL,
    _WORDSCORE_SQL,
    _ident_suffix_ray,
)
from sciscraper_ray.stages.relational import group_count, group_count_batch


# --------------------------------------------------------------------------
# Page-table extraction (the north-star pipeline): HTML boilerplate strip,
# PDF layout parse, payload routing, url dedup. Pages are synthesized
# deterministically from the documents table (sources/page_synth.py), so
# the oracle for byte-identical extraction is the identity on text.
# --------------------------------------------------------------------------


def _pages(sf_dir: str, pdf_mod: int | None, dup_mod: int | None):
    from sciscraper_ray.sources.page_synth import synth_pages_batch

    return _docs(sf_dir, columns=("doc_id", "text", "lang")).map_batches(
        lambda b: synth_pages_batch(b, pdf_mod=pdf_mod or 0, dup_mod=dup_mod or 0),
        batch_format="pyarrow",
    )


@register(
    "dom_extract",
    oracle="""
    SELECT doc_id,
           'Title ' || doc_id AS title,
           CAST(doc_id % 500 AS VARCHAR) AS cited_by,
           CAST(1990 + doc_id % 35 AS VARCHAR) AS year,
           'https://sci-hub.se/downloads/x' || doc_id || '.pdf' AS link
    FROM documents
    """,
)
def dom_extract(sf_dir: str):
    """M19/M20: CSS-select text extraction with regex refinement
    (find_element_text, webscrapers.py:163-183) and the #buttons
    button:nth-child(1) onclick probe + M21 rewrite (downloaders.py:198-280)
    over synthesized scholar-result HTML."""
    from sciscraper_ray.kernels.links import format_download_link
    from sciscraper_ray.stages.dom_select import DomSelectStage

    def build(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        htmls = [
            (
                f'<html><body><div id="gs_res"><div class="gs_ri">'
                f'<h3 class="gs_rt">Title {i}</h3>'
                f'<div class="gs_fl">Cited by {i % 500} - year {1990 + i % 35}</div>'
                f"</div></div>"
                f'<div id="buttons"><button onclick="location.href=\'/downloads/x{i}.pdf">dl</button>'
                f"<button>other</button></div></body></html>"
            )
            for i in ids
        ]
        return pa.table(
            {"doc_id": batch["doc_id"], "html": pa.array(htmls, pa.string())}
        )

    pages = _docs(sf_dir, columns=("doc_id",)).map_batches(
        build, batch_format="pyarrow"
    )
    selected = pages.map_batches(
        DomSelectStage,
        fn_constructor_kwargs={
            "extractions": [
                ("title", "h3.gs_rt", None),
                ("cited_by", "div.gs_fl", r"\d+"),
                ("year", "div.gs_fl", r"\d{4}"),
            ],
            # M20's onclick probe runs on the SAME parse as the text
            # extractions
            "attr_extractions": [
                ("onclick", "#buttons button:nth-child(1)", "onclick"),
            ],
            "html_col": "html",
        },
        batch_format="pyarrow",
        concurrency=(1, 8),
    )

    def rewrite_link(batch: pa.Table) -> pa.Table:
        links = [
            format_download_link(v)
            for v in batch["onclick"].to_pylist()
        ]
        return batch.drop_columns(["onclick"]).append_column(
            "link", pa.array(links, pa.string())
        )

    return selected.map_batches(rewrite_link, batch_format="pyarrow")


@register(
    "scholar_paginate",
    oracle="""
    WITH q AS (
        SELECT doc_id AS qid, (doc_id * 7 + 3) % 37 + 1 AS n FROM documents
    ), r AS (
        SELECT qid, unnest(range(n)) AS rank FROM q
    )
    SELECT qid, rank,
           'Deterministic result ' || rank || ' for query ' || qid AS title,
           'Abstract snippet ' || ((qid + rank * 13) % 101) AS abstract,
           CAST(1980 + (qid + rank) % 45 AS BIGINT) AS pub_year,
           CAST((qid * (rank + 1)) % 997 AS BIGINT) AS times_cited
    FROM r
    """,
)
def scholar_paginate(sf_dir: str):
    """The reference's GoogleScholar 10-per-page pagination loop
    (webscrapers.py:94-161) as an offline generator stage (VERDICT r2
    #8): one flat_map-shaped expansion emits (query, page) rows until
    each query's deterministic result count is exhausted, a fixture
    transport renders Scholar-shaped HTML per page, and the shared
    CSS-select engine parses every div.gs_ri entry back out (title /
    abstract / year via \\d{{4}} / cited via \\d+, int-coerced — exactly
    find_element_text's refinement chain). The oracle restates the
    fixture ground truth from first principles. Scale shape: pure maps
    (1 -> pages -> results), no shuffle; one tree parse per page serves
    all fields."""
    from sciscraper_ray.stages.scholar import ScholarResultsStage, expand_pages

    pages = _docs(sf_dir, columns=("doc_id",)).map_batches(
        expand_pages, batch_format="pyarrow"
    )
    return pages.map_batches(
        ScholarResultsStage, batch_format="pyarrow", concurrency=(1, 8)
    )


@register(
    "terms_from_txt",
    oracle="SELECT 'src-' || CAST(x AS VARCHAR) AS term FROM range(20) t(x)",
)
def terms_from_txt(sf_dir: str):
    """S1 serialize_from_txt (serials.py:14-23): a txt term file (one term
    per line, messy case/whitespace) -> read_text -> strip().lower() per
    line, vectorized with pyarrow compute."""
    import os
    import tempfile

    import ray.data

    with tempfile.TemporaryDirectory(prefix="sciscraper_terms_") as d:
        path = os.path.join(d, "terms.txt")
        with open(path, "w") as f:
            for k in range(20):
                f.write(f"  SRC-{k}\t \n")

        def normalize(batch: pa.Table) -> pa.Table:
            col = batch["text"]
            return pa.table(
                {"term": pc.utf8_lower(pc.utf8_trim_whitespace(col))}
            )

        # drop_empty_lines=False: serialize_from_txt keeps blank lines as ""
        # (each raw line goes through strip().lower()) — byte-faithful parity
        # is pinned on the reference's real multiline fixture in test_kernels.
        return ray.data.read_text(path, drop_empty_lines=False).map_batches(
            normalize, batch_format="pyarrow"
        ).materialize()


@register(
    "extract_spans",
    oracle="""
    WITH w AS (
        SELECT doc_id,
               unnest(string_split(text, ' ')) AS word,
               unnest(range(len(string_split(text, ' ')))) AS ord
        FROM documents
    ), pos AS (
        SELECT doc_id, word, ord, ord // 40 AS blk,
               sum(length(word) + 1) OVER (
                   PARTITION BY doc_id ORDER BY ord
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
               ) AS prefix
        FROM w
    ), blocks AS (
        SELECT doc_id, blk,
               min(COALESCE(prefix, 0)) AS s,
               sum(length(word)) + count(*) - 1 AS blen
        FROM pos GROUP BY doc_id, blk
    )
    SELECT doc_id, CAST(blk AS BIGINT) AS block_idx,
           CAST(s AS BIGINT) AS span_start,
           CAST(s + blen AS BIGINT) AS span_end
    FROM blocks
    """,
)
def extract_spans(sf_dir: str):
    """North-star span check: per-block [start, end) offsets into the
    extracted text (HTML paragraphs / PDF pages, both 40-word blocks in
    the fixture), recomputed by the oracle from pure string arithmetic
    over the ground-truth text."""
    from sciscraper_ray.pipelines.extract import extraction_pipeline

    out = extraction_pipeline(
        _pages(sf_dir, pdf_mod=10, dup_mod=None), dedup=False, analyze=False
    )

    def explode_spans(batch: pa.Table) -> pa.Table:
        spans = batch["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        parents = pc.list_parent_indices(spans)
        flat = pc.list_flatten(spans)
        n = len(spans)
        # block index within each document
        lengths = pc.list_value_length(spans).to_numpy(zero_copy_only=False)
        block_idx = np.concatenate(
            [np.arange(k, dtype=np.int64) for k in lengths]
        ) if n else np.empty(0, np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"].take(parents),
                "block_idx": pa.array(block_idx),
                "span_start": pc.struct_field(flat, "start"),
                "span_end": pc.struct_field(flat, "end"),
            }
        )

    return out.map_batches(explode_spans, batch_format="pyarrow")


@register(
    "terms_from_csv",
    oracle="""
    SELECT doc_id,
           CASE WHEN doc_id % 4 = 0 THEN '10.55/x' || doc_id
                WHEN doc_id % 4 = 1 THEN 'N/A'
                ELSE 'doi-' || doc_id END AS doi
    FROM documents
    """,
)
def terms_from_csv(sf_dir: str):
    """S2 serialize_from_csv (serials.py:26-43): read a CSV whose doi
    column mixes plain values, dict-literal cells, and empties ->
    fillna('N/A') + M14 nested unwrap."""
    import csv
    import os
    import tempfile

    import pyarrow.parquet as pq

    import ray.data

    from sciscraper_ray.kernels.nested import clean_nested_values, fill_na

    ids = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )["doc_id"].to_pylist()
    with tempfile.TemporaryDirectory(prefix="sciscraper_csv_") as d:
        path = os.path.join(d, "input.csv")
        with open(path, "w", newline="") as f:
            wcsv = csv.writer(f)
            wcsv.writerow(["doc_id", "doi", "other"])
            for i in ids:
                if i % 4 == 0:
                    doi = "{'doi': '10.55/x%d'}" % i  # dict-literal cell
                elif i % 4 == 1:
                    doi = ""  # empty -> N/A
                else:
                    doi = f"doi-{i}"
                wcsv.writerow([i, doi, "x"])

        def unwrap(batch: pa.Table) -> pa.Table:
            # empty/missing -> null -> fillna('N/A'), then M14 nested unwrap
            raw = pa.array(
                [v if v else None for v in batch["doi"].to_pylist()],
                type=pa.string(),
            )
            na_filled = fill_na(raw, "N/A").to_pylist()
            unwrapped = [clean_nested_values([v], "doi")[0] for v in na_filled]
            return pa.table(
                {
                    "doc_id": batch["doc_id"],
                    "doi": pa.array(unwrapped, type=pa.string()),
                }
            )

        return (
            ray.data.read_csv(path)
            .select_columns(["doc_id", "doi"])
            .map_batches(unwrap, batch_format="pyarrow")
            .materialize()
        )


@register(
    "html_extract",
    oracle="SELECT doc_id, text AS extracted_text FROM documents",
)
def html_extract(sf_dir: str):
    """Readability/text-density boilerplate strip (PayloadExtractor's HTML
    route): byte-identical main content per url vs the known ground truth."""
    from sciscraper_ray.pipelines.extract import extraction_pipeline

    out = extraction_pipeline(
        _pages(sf_dir, pdf_mod=None, dup_mod=None), dedup=False, analyze=False
    )
    return out.select_columns(["doc_id", "extracted_text"])


@register(
    "pdf_extract",
    oracle="SELECT doc_id, text AS extracted_text FROM documents",
)
def pdf_extract(sf_dir: str):
    """PDF layout parse (PayloadExtractor, a task map_batches stage:
    content-stream interpret, glyph clustering with x_tol=1/y_tol=3, pages
    joined ' ' — docscraper.py:188-205): byte-identical text per url."""
    from sciscraper_ray.pipelines.extract import extraction_pipeline

    out = extraction_pipeline(
        _pages(sf_dir, pdf_mod=1, dup_mod=None), dedup=False, analyze=False
    )
    return out.select_columns(["doc_id", "extracted_text"])


@register(
    "page_extract_identifiers",
    oracle=f"""
    WITH pages AS (SELECT doc_id, {_IDENT_SUFFIX_SQL} AS text FROM documents)
    SELECT doc_id, text AS extracted_text,
           CASE WHEN doc_id % 3 = 0
                    THEN '10.' || (1000 + doc_id % 9000) || '/ax.' || doc_id
                WHEN doc_id % 3 = 1 THEN '2345.' || (20000 + doc_id)
           END AS doi,
           CASE WHEN doc_id % 3 = 0 THEN 'doi'
                WHEN doc_id % 3 = 1 THEN 'arxiv'
           END AS identifier_type
    FROM pages
    """,
)
def page_extract_identifiers(sf_dir: str):
    """EP1 identifier parity end to end: page texts carry known DOI/arXiv
    ids -> render HTML/PDF -> extract -> identifier chain over the
    EXTRACTED text. Byte-identical extraction is a precondition — the
    $-anchored arXiv canonicalizer only matches if the id survives at
    end-of-text through render + strip."""
    from sciscraper_ray.pipelines.extract import extraction_pipeline

    docs = _docs(sf_dir, columns=("doc_id", "text")).map_batches(
        _ident_suffix_ray, batch_format="pyarrow"
    )

    def add_lang(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "lang", pa.array(["en"] * len(batch), pa.string())
        )

    from sciscraper_ray.sources.page_synth import synth_pages_batch

    pages = docs.map_batches(add_lang, batch_format="pyarrow").map_batches(
        lambda b: synth_pages_batch(b, pdf_mod=10, dup_mod=0),
        batch_format="pyarrow",
    )
    out = extraction_pipeline(pages, dedup=False, analyze=True)
    return out.select_columns(
        ["doc_id", "extracted_text", "doi", "identifier_type"]
    )


@register(
    "page_extract_identifiers_metadata",
    oracle="""
    SELECT doc_id,
           CASE doc_id % 4
               WHEN 0 THEN '10.5555/meta.' || doc_id
               WHEN 1 THEN '10.4444/p2d.' || doc_id
               WHEN 2 THEN '10.3333/info.' || doc_id
               ELSE '10.2222/text.' || doc_id
           END AS doi,
           CASE doc_id % 4
               WHEN 1 THEN 'pdf2doi_identifier'
               ELSE 'doi'
           END AS identifier_type
    FROM documents
    """,
)
def page_extract_identifiers_metadata(sf_dir: str):
    """M8-M10: the doi_from_pdf metadata chain end to end
    (/root/reference/src/doifrompdf.py:30-126). Every payload is a PDF
    whose /Info dict exercises one branch: priority-key probe (doi /
    pdf2doi_identifier, raw value + key as type — M8), pdf-info value scan
    with the last-value-wins quirk (M9) via the trailer-parsed Info dict
    (M10), and the text fallback for id-less Info. Every document ALSO
    carries a trailing doi in its body text, so the %4 in (0,1,2) rows
    prove metadata takes PRECEDENCE over the text step."""
    from sciscraper_ray.pipelines.extract import extraction_pipeline
    from sciscraper_ray.sources.page_synth import synth_pages_batch

    def suffix(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = [
            f"{t} doi:10.2222/text.{i}"
            for i, t in zip(ids, batch["text"].to_pylist())
        ]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * len(ids), pa.string()),
            }
        )

    pages = (
        _docs(sf_dir, columns=("doc_id", "text"))
        .map_batches(suffix, batch_format="pyarrow")
        .map_batches(
            lambda b: synth_pages_batch(
                b, pdf_mod=1, dup_mod=0, with_pdf_info=True
            ),
            batch_format="pyarrow",
        )
    )
    out = extraction_pipeline(pages, dedup=False, analyze=True)
    return out.select_columns(["doc_id", "doi", "identifier_type"])


@register(
    "page_validate_identifiers",
    oracle="""
    WITH ids AS (
        SELECT doc_id,
               CASE WHEN doc_id % 3 = 0
                        THEN '10.' || (1000 + doc_id % 9000) || '/ax.' || doc_id
                    WHEN doc_id % 3 = 1 THEN '2345.' || (20000 + doc_id)
               END AS doi,
               CASE WHEN doc_id % 3 = 0 THEN 'doi'
                    WHEN doc_id % 3 = 1 THEN 'arxiv'
               END AS identifier_type
        FROM documents
    )
    SELECT doc_id, doi, identifier_type,
           CASE WHEN doc_id % 2 = 0 AND identifier_type = 'doi'
                    THEN '{"DOI": "' || doi || '"}'
                WHEN doc_id % 2 = 0 AND identifier_type = 'arxiv'
                    THEN 'entry(id=http://arxiv.org/abs/' || doi
                         || ', title=Title ' || doi || ')'
           END AS validation_info
    FROM ids
    """,
)
def page_validate_identifiers(sf_dir: str):
    """M12 — network identifier validation end to end
    (/root/reference/src/doifrompdf.py:166-190): the extracted-identifier
    stream from page_extract_identifiers flows through
    ``IdentifierValidationStage``. The LIVE dx.doi.org / export.arxiv.org
    path is offline-gated (SCISCRAPER_ALLOW_NETWORK); this query injects a
    deterministic registry opener — a DOI resolves (200 + citeproc body)
    iff its registrant is even, an arXiv query returns a one-entry Atom
    feed iff its number is even — so the full request/parse/None-on-miss
    chain runs for real and the oracle can state the result from doc_id
    parity. Null identifiers (doc_id % 3 = 2) make no request.

    Note the reference validates the RAW regex match before DOI
    canonicalization; these fixtures are already canonical, so raw ==
    canonical here."""
    import json

    from sciscraper_ray.stages.enrich import (
        IdentifierValidationStage,
        validation_transport,
    )

    def registry_opener(full_url: str, timeout: float):
        if "dx.doi.org/" in full_url:
            ident = full_url.split("dx.doi.org/", 1)[1]
            registrant = int(ident.split("/", 1)[0].split(".", 1)[1])
            if registrant % 2 == 0:
                return 200, json.dumps({"DOI": ident}).encode()
            return 404, b""
        ident = full_url.split("id:", 1)[1]
        atom = "http://www.w3.org/2005/Atom"
        if int(ident.split(".", 1)[1]) % 2 == 0:
            body = (
                f'<feed xmlns="{atom}"><entry>'
                f"<id>http://arxiv.org/abs/{ident}</id>"
                f"<title>Title {ident}</title>"
                f"</entry></feed>"
            )
            return 200, body.encode()
        return 200, f'<feed xmlns="{atom}"></feed>'.encode()

    ids = page_extract_identifiers(sf_dir).drop_columns(["extracted_text"])
    return ids.map_batches(
        IdentifierValidationStage,
        fn_constructor_kwargs={
            "transport_factory": lambda: validation_transport(registry_opener),
        },
        batch_format="pyarrow",
        concurrency=(1, 8),
    )


_WORDSCORE_WITH_TEXT_SQL = _WORDSCORE_SQL.replace(
    "SELECT d.doc_id,", "SELECT d.doc_id, d.text AS extracted_text,", 1
)


@register("page_extract_pipeline", oracle=_WORDSCORE_WITH_TEXT_SQL)
def page_extract_pipeline(sf_dir: str):
    """EP1-analog end to end: mixed HTML/PDF page table with duplicate
    fetches -> keep-latest url dedup -> payload routing -> extraction ->
    DocAnalyzer. Verifies byte-identical extracted text AND the full
    downstream analysis in one pipeline."""
    from sciscraper_ray.pipelines.extract import extraction_pipeline

    out = extraction_pipeline(
        _pages(sf_dir, pdf_mod=10, dup_mod=17), dedup=True, analyze=True
    )
    return out.select_columns(
        [
            "doc_id",
            "extracted_text",
            "matching_terms",
            "bycatch_terms",
            "total_word_count",
            "wordscore",
        ]
    )




@register(
    "pdf_page_stats",
    oracle="""
    SELECT doc_id,
           CAST((len(string_split(text, ' ')) + 39) // 40 AS BIGINT)
               AS n_pages,
           CAST(length(text)
                - ((len(string_split(text, ' ')) + 39) // 40 - 1)
               AS BIGINT) AS sum_chars
    FROM documents
    """,
)
def pdf_page_stats(sf_dir: str):
    """Page-level PDF parity (the PDF twin of page_paragraph_stats):
    every doc renders as a real PDF payload (40 words per page), the
    REAL document model parses it back (xref/content-stream/glyph
    clustering — stages/pdf_parse.extract_pdf_pages), and the page count
    plus summed page-text lengths must equal the closed form —
    ceil(tokens/40) pages, total chars telescoping to length(text) minus
    the (n_pages-1) page-break separators. Any font-width, spacing or
    stream-slicing bug anywhere in the parser breaks the equality. One
    parse per payload, zero shuffle."""
    from sciscraper_ray.stages.pdf_parse import extract_pdf_pages

    def stats(batch: pa.Table) -> pa.Table:
        out_id: list[int] = []
        n_pages: list[int] = []
        sum_chars: list[int] = []
        for did, payload in zip(
            batch["doc_id"].to_numpy(zero_copy_only=False),
            batch["html"].to_pylist(),
        ):
            pages = extract_pdf_pages(payload)
            out_id.append(int(did))
            n_pages.append(len(pages))
            sum_chars.append(sum(len(p) for p in pages))
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "n_pages": pa.array(n_pages, pa.int64()),
                "sum_chars": pa.array(sum_chars, pa.int64()),
            }
        )

    return _pages(sf_dir, pdf_mod=1, dup_mod=None).map_batches(
        stats, batch_format="pyarrow"
    )


# --------------------------------------------------------------------------
# Block-density X-ray of the readability stripper: per page, the
# per-container (n_blocks, text_chars, link_chars) table the
# Arc90/Kohlschütter scorer actually sees, plus which container won.
# The oracle derives every number arithmetically from the deterministic
# render (sources/page_synth.py) — nav chrome is constant, the header
# varies only with the id's digit count, the article with the text's
# word count — so a single off-by-one in the parser's block
# segmentation or link-char accounting fails the compare.
# --------------------------------------------------------------------------


@register(
    "page_block_density",
    oracle="""
    WITH base AS (
        SELECT doc_id, length(text) AS L,
               CAST(ceil(len(string_split(text, ' ')) / 40.0) AS BIGINT) AS nb
        FROM documents
    )
    SELECT doc_id, 'ul' AS tag, CAST(4 AS BIGINT) AS n_blocks,
           CAST(25 AS BIGINT) AS text_chars, CAST(25 AS BIGINT) AS link_chars,
           CAST(0 AS BIGINT) AS is_winner FROM base
    UNION ALL
    SELECT doc_id, 'aside', 3, 73, 47, 0 FROM base
    UNION ALL
    SELECT doc_id, 'header', 2,
           33 + length(CAST(doc_id AS VARCHAR)), 0, 0 FROM base
    UNION ALL
    SELECT doc_id, 'article', nb, L - (nb - 1), 0, 1 FROM base
    UNION ALL
    SELECT doc_id, 'footer', 1, 38, 12, 0 FROM base
    """,
)
def page_block_density(sf_dir: str):
    """Run the real block scanner (stages/html_extract.py _scan_blocks)
    over every rendered page and aggregate its block stream per
    innermost container, tagging the scorer's winning container. Pure
    map stage — one task per batch, no exchange; the page render and
    parse both happen inside the batch so payload bytes never leave the
    task. The fixture guarantees the winner is the article for every
    row (min text length >= 44 chars, one positive-scoring container),
    which the oracle pins structurally."""
    from collections import defaultdict

    from sciscraper_ray.sources.page_synth import render_html
    from sciscraper_ray.stages.html_extract import _block_score, _scan_blocks

    def profile(batch: pa.Table) -> pa.Table:
        ids_, tags_, nbs_, tcs_, lcs_, win_ = [], [], [], [], [], []
        for i, t, lg in zip(
            batch["doc_id"].to_pylist(),
            batch["text"].to_pylist(),
            batch["lang"].to_pylist(),
        ):
            page = render_html(int(i), t, lg).decode("utf-8")
            blocks, container_tags, container_neg = _scan_blocks(page)
            agg: dict[int, list[int]] = defaultdict(lambda: [0, 0, 0])
            scores: dict[int, float] = defaultdict(float)
            for text, lc, cid in blocks:
                a = agg[cid]
                a[0] += 1
                a[1] += len(text)
                a[2] += lc
                scores[cid] += _block_score(text, lc)
            positive = {
                c: s
                for c, s in scores.items()
                if s > 0 and not container_neg.get(c, False)
            }
            best = max(positive, key=lambda c: (positive[c], -c)) if positive else -1
            for cid, (nb, tc, lc) in agg.items():
                ids_.append(int(i))
                tags_.append(container_tags[cid])
                nbs_.append(nb)
                tcs_.append(tc)
                lcs_.append(lc)
                win_.append(1 if cid == best else 0)
        return pa.table(
            {
                "doc_id": pa.array(ids_, pa.int64()),
                "tag": pa.array(tags_, pa.string()),
                "n_blocks": pa.array(nbs_, pa.int64()),
                "text_chars": pa.array(tcs_, pa.int64()),
                "link_chars": pa.array(lcs_, pa.int64()),
                "is_winner": pa.array(win_, pa.int64()),
            }
        )

    return _docs(sf_dir, columns=("doc_id", "text", "lang")).map_batches(
        profile, batch_format="pyarrow"
    )


import re as _re

_SX_RE = _re.compile(rb"startxref\n(\d+)\n%%EOF\n?$")
_XREF_HDR_RE = _re.compile(rb"xref\n(\d+) (\d+)\n")
_SIZE_RE = _re.compile(rb"/Size (\d+)")
_PAGES_COUNT_RE = _re.compile(
    rb"^2 0 obj\n<< /Type /Pages /Kids \[[^\]]*\] /Count (\d+) >>"
)


def _pdf_audit_one(payload: bytes) -> tuple[int, int, int]:
    """(n_pages, n_objects, xref_ok) for one PDF payload — see
    pdf_xref_audit for the checks. Module-level so the corruption tests
    can probe single payloads directly."""
    m = _SX_RE.search(payload, max(0, len(payload) - 64))
    if not m:
        return 0, 0, 0
    xref_at = int(m.group(1))
    hdr = _XREF_HDR_RE.match(payload, xref_at)
    if not hdr:
        return 0, 0, 0
    start, count = int(hdr.group(1)), int(hdr.group(2))
    ok = start == 0
    sz = _SIZE_RE.search(payload, xref_at)
    ok &= bool(sz) and int(sz.group(1)) == count
    at = hdr.end()
    for num in range(count):
        e = payload[at + 20 * num : at + 20 * (num + 1)]
        if len(e) != 20 or e[17:18] not in (b"n", b"f"):
            return 0, 0, 0
        if num == 0:
            ok &= e[17:18] == b"f"
            continue
        off = int(e[0:10])
        ok &= e[17:18] == b"n" and payload.startswith(
            b"%d 0 obj\n" % num, off
        )
    n_objects = count - 1
    # pages-tree /Count, read at the xref-declared offset of object 2
    obj2_off = int(payload[at + 40 : at + 50]) if count > 2 else -1
    pm = (
        _PAGES_COUNT_RE.match(payload[obj2_off : obj2_off + 4096])
        if obj2_off >= 0
        else None
    )
    n_pages = int(pm.group(1)) if pm else 0
    ok &= pm is not None and n_objects == 4 + 2 * n_pages
    return n_pages, n_objects, int(bool(ok))


@register(
    "pdf_xref_audit",
    oracle="""
    SELECT doc_id,
           CAST(ceil(len(string_split(text, ' ')) / 40.0) AS BIGINT)
               AS n_pages,
           CAST(4 + 2 * ceil(len(string_split(text, ' ')) / 40.0) AS BIGINT)
               AS n_objects,
           CAST(1 AS BIGINT) AS xref_ok
    FROM documents
    """,
)
def pdf_xref_audit(sf_dir: str):
    """Cross-reference-table integrity audit over every PDF payload — the
    structural half of what a repair/lint tool (qpdf --check) does, and
    the part of the document model pdf_extract never touches because the
    text path only needs objects it can reach. Per payload, all verified
    byte-exactly:

    - trailer ``startxref`` points at the literal ``xref`` keyword;
    - the xref section header (start=0, count) matches trailer ``/Size``;
    - every in-use entry's 10-digit offset lands EXACTLY on its
      ``N 0 obj`` header (targeted startswith probe — no global regex
      scan, so bytes inside FlateDecode streams can't false-match);
    - object numbers are contiguous 1..count-1;
    - page count re-read from the pages-tree ``/Count`` at the
      xref-declared offset of object 2 (never by scanning).

    The oracle mirrors the writer's arithmetic (sources/pdf_write.py):
    ceil(words/40) pages, 3 fixed objects + /Info + (page, content) pair
    per page. Pure map stage — parse work stays in the task, nothing
    shuffles; a corrupt byte anywhere flips xref_ok to 0 and fails the
    hash compare."""
    from sciscraper_ray.sources.page_synth import synth_pages_batch

    def audit(batch: pa.Table) -> pa.Table:
        rows = [_pdf_audit_one(p) for p in batch["html"].to_pylist()]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_pages": pa.array([r[0] for r in rows], pa.int64()),
                "n_objects": pa.array([r[1] for r in rows], pa.int64()),
                "xref_ok": pa.array([r[2] for r in rows], pa.int64()),
            }
        )

    return (
        _docs(sf_dir, columns=("doc_id", "text"))
        .map_batches(
            lambda b: pa.table(
                {
                    "doc_id": b["doc_id"],
                    "text": b["text"],
                    "lang": pa.array(["en"] * len(b), pa.string()),
                }
            ),
            batch_format="pyarrow",
        )
        .map_batches(
            lambda b: synth_pages_batch(
                b, pdf_mod=1, dup_mod=0, with_pdf_info=True
            ),
            batch_format="pyarrow",
        )
        .map_batches(audit, batch_format="pyarrow")
    )


@register(
    "csv_quoted_roundtrip",
    oracle="""
    SELECT doc_id, lang,
           text || ',"' || lang || chr(10) || '"end' AS payload
    FROM documents
    """,
)
def csv_quoted_roundtrip(sf_dir: str):
    """RFC 4180 hard-case CSV round trip: every document is exported
    with a payload field that embeds a comma, a double quote, AND a
    newline (the three cases naive line-split CSV readers corrupt),
    sharded to 8 real files, then read back through the engine's own
    quote-aware record scanner — the ingestion-robustness proof for the
    S2 csv source beyond terms_from_csv's clean fixture. Writer uses
    minimal quoting with quote doubling; the reader is a byte-level
    state machine (in-quote toggling, doubled-quote unescape, records
    split only on unquoted newlines) running one task per shard file —
    multi-line records mean a file cannot be split mid-record, exactly
    the real constraint that makes crawl CSV dumps ship as many small
    shards. The oracle reconstructs the payload by string arithmetic,
    so one mis-parsed byte anywhere fails the hash."""
    import csv
    import io
    import tempfile

    import pandas as pd
    import ray.data

    with tempfile.TemporaryDirectory(prefix="csv_quoted_") as base:
        def add_shard(b: pa.Table) -> pa.Table:
            ids = b["doc_id"].to_numpy(zero_copy_only=False)
            return b.append_column(
                "shard", pa.array((ids % 8).astype(np.int64))
            )

        def write_shard(g: "pd.DataFrame") -> "pd.DataFrame":
            g = g.sort_values("doc_id")
            shard = int(g["shard"].iloc[0])
            buf = io.StringIO()
            w = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
            for i, lang, text in zip(g["doc_id"], g["lang"], g["text"]):
                payload = f'{text},"{lang}\n"end'
                w.writerow([int(i), lang, payload])
            with open(f"{base}/shard-{shard:02d}.csv", "w") as f:
                f.write(buf.getvalue())
            return pd.DataFrame({"shard": [shard], "n": [len(g)]})

        (
            ray.data.read_parquet(
                f"{sf_dir}/documents.parquet",
                columns=["doc_id", "lang", "text"],
            )
            .map_batches(add_shard, batch_format="pyarrow")
            .groupby("shard")
            .map_groups(write_shard, batch_format="pandas")
            .materialize()  # barrier: shards complete before the read
        )

        def parse_rfc4180(blob: bytes) -> list[list[str]]:
            s = blob.decode()
            rows: list[list[str]] = []
            field: list[str] = []
            row: list[str] = []
            in_quotes = False
            i, n = 0, len(s)
            while i < n:
                ch = s[i]
                if in_quotes:
                    if ch == '"':
                        if i + 1 < n and s[i + 1] == '"':
                            field.append('"')
                            i += 1
                        else:
                            in_quotes = False
                    else:
                        field.append(ch)
                elif ch == '"':
                    in_quotes = True
                elif ch == ",":
                    row.append("".join(field))
                    field = []
                elif ch == "\n":
                    row.append("".join(field))
                    rows.append(row)
                    field, row = [], []
                else:
                    field.append(ch)
                i += 1
            if field or row:
                row.append("".join(field))
                rows.append(row)
            return rows

        def read_shard(b: pa.Table) -> pa.Table:
            ids: list[int] = []
            langs: list[str] = []
            payloads: list[str] = []
            for blob in b["bytes"].to_pylist():
                for row in parse_rfc4180(bytes(blob)):
                    ids.append(int(row[0]))
                    langs.append(row[1])
                    payloads.append(row[2])
            return pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "lang": pa.array(langs, pa.string()),
                    "payload": pa.array(payloads, pa.string()),
                }
            )

        return ray.data.read_binary_files(base).map_batches(
            read_shard, batch_format="pyarrow"
        ).materialize()


@register(
    "pdf_reading_order_extract",
    oracle="SELECT doc_id, text AS extracted_text FROM documents",
)
def pdf_reading_order_extract(sf_dir: str):
    """Two-column PDF layout parse with READING-ORDER block clustering —
    the north-star's 'char/word box clustering into reading-order text
    blocks' exercised where it actually matters: every document renders
    as a single-page TWO-column PDF (build_pdf_two_column — newspaper
    layout, left column holds the first half of the wrapped lines), and
    the extractor must emit left column top-to-bottom THEN right column
    to reproduce the source text byte-identically. The naive page-wide
    y-cluster (glyphs_to_text) zips the columns line-by-line and fails
    this oracle on every multi-line document — tests pin that negative
    control. Column bands come from the x-interval projection
    (split_columns): a gutter must be empty across every line, so word
    gaps and ragged edges can't fake one. Same task-shape as
    pdf_extract: render and extract are stateless per-batch callables,
    payloads never shuffle."""
    import ray.data  # noqa: F401 — Dataset ops on _docs

    from sciscraper_ray.sources.pdf_write import build_pdf_two_column
    from sciscraper_ray.stages.pdf_parse import (
        extract_pdf_pages,
        glyphs_to_reading_order,
    )

    def render(b: pa.Table) -> pa.Table:
        payloads = [build_pdf_two_column(t) for t in b["text"].to_pylist()]
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "payload": pa.array(payloads, pa.binary()),
            }
        )

    def extract(b: pa.Table) -> pa.Table:
        texts = [
            " ".join(
                extract_pdf_pages(p, assemble=glyphs_to_reading_order)
            )
            for p in b["payload"].to_pylist()
        ]
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "extracted_text": pa.array(texts, pa.string()),
            }
        )

    return (
        _docs(sf_dir, columns=("doc_id", "text"))
        .map_batches(render, batch_format="pyarrow")
        .map_batches(extract, batch_format="pyarrow")
    )


def damage_page(doc_id: int, html: bytes) -> bytes:
    """``page_extract_damage_matrix``'s damage class ``doc_id % 5`` applied
    to a rendered page."""
    m = doc_id % 5
    if m == 0:
        return b"\xef\xbb\xbf" + html
    if m == 1:
        return html.replace(b"</body></html>", b"")
    if m == 2:
        cut = html.find(b"</article>")
        return html[: cut + len(b"</article>")]
    if m == 3:
        start = html.find(b'<article id="main">')
        cut = html.find(b"</p>", start)
        return html[: cut + len(b"</p>")]
    return html[: html.find(b"<article")]


@register(
    "page_extract_damage_matrix",
    oracle="""
    SELECT doc_id,
           CASE doc_id % 5
               WHEN 3 THEN array_to_string(
                   (string_split(text, ' '))[1:40], ' ')
               WHEN 4 THEN 'Document ' || doc_id
                           || ' by the synthesis authors'
               ELSE text
           END AS extracted_text
    FROM documents
    """,
)
def page_extract_damage_matrix(sf_dir: str):
    """Extraction under deterministic page damage — the malformed-HTML
    reality of a web crawl, pinned as a per-document BYTE-EXACT contract
    instead of a vague robustness claim. Five damage classes by
    doc_id % 5: (0) UTF-8 BOM prefix, (1) closing </body></html>
    stripped, (2) truncated right after </article> (footer lost), (3)
    truncated at the first </p> INSIDE the article — the extractor must
    degrade to exactly the first paragraph (40 words), (4) truncated
    BEFORE the article — every surviving container is nav/aside/header
    chrome, and the Arc90 last-resort branch (no content-like container
    anywhere) hands the page to the least-bad boilerplate container:
    the byline header, NOT the link-dense sidebar. Classes 0-2 must
    extract the full text unchanged (resilience); 3-4 pin the DEGRADED
    output precisely, so a scoring regression that starts leaking
    boilerplate fails the oracle byte-visibly. Same stateless task shape
    as pdf_extract; damage is applied to payload bytes, never to the
    ground-truth column."""
    import ray.data  # noqa: F401

    from sciscraper_ray.sources.page_synth import render_html
    from sciscraper_ray.stages.html_extract import extract_main_content

    def run(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        out = []
        for i, t, lang in zip(ids, b["text"].to_pylist(), b["lang"].to_pylist()):
            payload = damage_page(int(i), render_html(int(i), t, lang))
            out.append(extract_main_content(payload.decode("utf-8"))[0])
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "extracted_text": pa.array(out, pa.string()),
            }
        )

    return _docs(sf_dir, columns=("doc_id", "text", "lang")).map_batches(
        run, batch_format="pyarrow"
    )


@register(
    "warc_revisit_dedup",
    oracle="""
    WITH d AS (
        SELECT doc_id,
               CASE WHEN doc_id % 10 < 3 THEN 'mega.example.org'
                    WHEN 1 + doc_id % 5 = 1 THEN 'alpha.example.com'
                    WHEN 1 + doc_id % 5 = 2 THEN 'beta.example.net'
                    WHEN 1 + doc_id % 5 = 3 THEN 'gamma.example.io'
                    WHEN 1 + doc_id % 5 = 4 THEN 'delta.example.edu'
                    ELSE 'epsilon.example.dev'
               END AS host
        FROM documents
    )
    SELECT host,
           CAST(count(*)
                + sum(CASE WHEN doc_id % 17 = 0 AND doc_id % 2 = 0
                           THEN 1 ELSE 0 END) AS BIGINT) AS n_response,
           CAST(sum(CASE WHEN doc_id % 17 = 0 AND doc_id % 2 = 1
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_revisit
    FROM d GROUP BY host
    """,
)
def warc_revisit_dedup(sf_dir: str):
    """Crawl-time dedup with real WARC `revisit` records — what an
    archiving crawler actually writes when a refetch comes back
    byte-identical (identical-payload-digest profile: empty payload,
    WARC-Refers-To the first capture, WARC-Payload-Digest header). The
    crawl fixture refetches every 17th url; half the refetches carry
    REVISED content (so they must stay full `response` records — dedup
    is by (url, payload digest), not by url). Plan is the winner-filter
    shape with ANNOTATE instead of FILTER: pass 1 reduces
    md5(url+payload) 128-bit keys to (key, min_ts) partials through
    resolve_plan (driver lexsort below the limit, groupby-Min above);
    only COLLIDING keys broadcast; pass 2 classifies each row against
    the broadcast, serializes the batch into a WARC segment via
    build_warc, and the emitted counts come from PARSING that segment
    back (parse_warc) — the record envelope round-trips inside the
    operator, payloads never shuffle. At 10^12 pages the exchange is
    key partials + the colliding subset, same contract as dedup_exact."""
    import collections

    import pandas as pd
    import ray
    import ray.data

    from sciscraper_ray.pipelines.plan import driver_frame, resolve_plan
    from sciscraper_ray.kernels.md5 import md5_hash128, md5_hex
    from sciscraper_ray.pipelines.winner import _segment_reduce
    from sciscraper_ray.sources.page_synth import synth_pages_batch
    from sciscraper_ray.sources.warc import build_warc, parse_warc

    def pages(sf_dir: str):
        return _docs(sf_dir, columns=("doc_id", "text", "lang")).map_batches(
            lambda b: synth_pages_batch(b, pdf_mod=0, dup_mod=17, change_mod=2),
            batch_format="pyarrow",
        )

    def keyed(b: pa.Table):
        urls = b["url"].to_pylist()
        pls = b["html"].to_pylist()
        hi, lo, _ = md5_hash128(
            [u.encode() + b"\0" + p for u, p in zip(urls, pls)]
        )
        return hi, lo

    def ts_us(b: pa.Table) -> np.ndarray:
        return (
            b["warc_ts"]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )

    def key_partial(b: pa.Table) -> pd.DataFrame:
        hi, lo = keyed(b)
        return _segment_reduce(
            hi, lo, ts_us(b), np.ones(len(hi), np.int64), np.minimum, min_cnt=1
        )

    partials = pages(sf_dir).map_batches(key_partial, batch_format="pyarrow")
    merge, partials = resolve_plan(partials, "auto")
    if merge == "driver":
        merged = driver_frame(partials, what="warc_revisit_dedup")
        dups = _segment_reduce(
            merged["h_hi"].to_numpy(),
            merged["h_lo"].to_numpy(),
            merged["val"].to_numpy(),
            merged["cnt"].to_numpy(),
            np.minimum,
            min_cnt=2,
        )
    else:
        dups = (
            group_count(
                partials,
                ["h_hi", "h_lo"],
                {"cnt": "cnt"},
                count=None,
                aggs={"val": ("val", "min")},
            )
            .map_batches(
                lambda b: b.filter(pc.greater(b["cnt"], 1)),
                batch_format="pyarrow",
            )
            # bounded: duplicated revisit keys only (cnt>1) — the broadcast
            # side the classify step ray.put's, so it must fit regardless
            .to_pandas()
        )
    refs = ray.put(dups[["h_hi", "h_lo", "val"]].astype("int64"))

    def classify_roundtrip(b: pa.Table) -> pa.Table:
        d = ray.get(refs)
        hi, lo = keyed(b)
        ts = ts_us(b)
        left = pd.DataFrame({"h_hi": hi, "h_lo": lo})
        m = left.merge(d, on=["h_hi", "h_lo"], how="left")
        win = m["val"].to_numpy(dtype="float64", na_value=np.nan)
        revisit = ~np.isnan(win) & (ts.astype("float64") > win)
        urls = b["url"].to_pylist()
        pls = b["html"].to_pylist()
        payload_md5 = md5_hex(pls).to_pylist()
        recs = []
        for j in range(len(urls)):
            rid = int(ts[j])  # unique per capture
            if revisit[j]:
                recs.append(
                    (
                        rid,
                        urls[j],
                        b"",
                        {
                            "WARC-Type": "revisit",
                            "WARC-Profile": "http://netpreserve.org/warc/"
                            "1.0/revisit/identical-payload-digest",
                            "WARC-Refers-To": f"<urn:doc:{int(win[j])}>",
                            "WARC-Payload-Digest": "md5:" + payload_md5[j],
                        },
                    )
                )
            else:
                recs.append((rid, urls[j], pls[j]))
        parsed = parse_warc(build_warc(recs))
        n_resp: collections.Counter = collections.Counter()
        n_rev: collections.Counter = collections.Counter()
        for rec in parsed:
            host = rec["uri"].split("/")[2]
            if rec["warc_type"] == "revisit":
                n_rev[host] += 1
            else:
                n_resp[host] += 1
        hosts = sorted(set(n_resp) | set(n_rev))
        return pa.table(
            {
                "host": pa.array(hosts, pa.string()),
                "n_response": pa.array(
                    [n_resp[h] for h in hosts], pa.int64()
                ),
                "n_revisit": pa.array([n_rev[h] for h in hosts], pa.int64()),
            }
        )

    return group_count(
        pages(sf_dir).map_batches(classify_roundtrip, batch_format="pyarrow"),
        "host",
        {"n_response": "n_response", "n_revisit": "n_revisit"},
        count=None,
    )


# --------------------------------------------------------------------------
# PDF document-structure graphs: the outline (bookmark) tree and URI link
# annotations. The reference's PDF tier stops at text + /Info metadata
# (doifrompdf.py:30-126); a bulk academic-PDF pipeline also mines the TOC
# and outbound links, so both graphs are written as REAL cross-linked
# objects (sources/pdf_write.build_pdf_structured) and walked back by the
# document model (stages/pdf_struct.py). The fixture derives every item
# from doc_id arithmetic, so the oracle reproduces the pre-order
# enumeration in closed form.
# --------------------------------------------------------------------------


def _outline_spec(did: int) -> list[tuple[str, int, int]]:
    """t = 1 + did%3 top-level sections; c = did%2 children under EACH
    (so half the corpus exercises the nested walk and half the flat one);
    dests alternate between the two pages."""
    t, c = 1 + did % 3, did % 2
    items: list[tuple[str, int, int]] = []
    for i in range(t):
        items.append((f"Section {i + 1} of {did}", i % 2, 0))
        for j in range(c):
            items.append((f"Sub {i + 1}.{j + 1} of {did}", (i + j + 1) % 2, 1))
    return items


@register(
    "pdf_outline_extract",
    oracle="""
    WITH base AS (
        SELECT doc_id, 1 + doc_id % 3 AS t, doc_id % 2 AS c FROM documents
    ),
    tops AS (
        SELECT doc_id, c, unnest(range(t)) AS i FROM base
    ),
    top_rows AS (
        SELECT doc_id,
               CAST(i * (1 + c) AS BIGINT) AS ord,
               CAST(0 AS BIGINT) AS depth,
               'Section ' || (i + 1) || ' of ' || doc_id AS title,
               CAST(i % 2 AS BIGINT) AS page_idx
        FROM tops
    ),
    child_rows AS (
        SELECT doc_id,
               CAST(i * (1 + c) + 1 + j AS BIGINT) AS ord,
               CAST(1 AS BIGINT) AS depth,
               'Sub ' || (i + 1) || '.' || (j + 1) || ' of ' || doc_id
                   AS title,
               CAST((i + j + 1) % 2 AS BIGINT) AS page_idx
        FROM (SELECT doc_id, i, c, unnest(range(c)) AS j FROM tops)
    )
    SELECT * FROM top_rows UNION ALL SELECT * FROM child_rows
    """,
)
def pdf_outline_extract(sf_dir: str):
    """Bookmark-tree (TOC) recovery: each doc renders as a 2-page PDF
    whose /Outlines graph is real linked objects (/Parent /Prev /Next
    /First /Last /Dest), and the extractor walks /First-children +
    /Next-siblings in pre-order — never trusting the advisory /Count —
    resolving each /Dest page ref back to its tree-order index. Render,
    walk and row emission are fused in ONE stateless map stage, so
    payload bytes never leave the task and the op is a pure map at any
    corpus size (the 100 TB plan is the same stage over read_parquet of
    the real page table). Oracle reproduces the doc_id-arithmetic
    enumeration in closed form; any linkage or dest-resolution bug
    desynchronizes ord/depth/page_idx."""
    from sciscraper_ray.sources.pdf_write import build_pdf_structured
    from sciscraper_ray.stages.pdf_struct import extract_outline

    def run(b: pa.Table) -> pa.Table:
        ids_, ords_, deps_, titles_, pages_ = [], [], [], [], []
        for did, text in zip(
            b["doc_id"].to_numpy(zero_copy_only=False),
            b["text"].to_pylist(),
        ):
            did = int(did)
            words = text.split(" ")
            half = (len(words) + 1) // 2
            payload = build_pdf_structured(
                [" ".join(words[:half]) or "x", " ".join(words[half:]) or "y"],
                outline=_outline_spec(did),
            )
            for ord_, depth, title, page_idx in extract_outline(payload):
                ids_.append(did)
                ords_.append(ord_)
                deps_.append(depth)
                titles_.append(title)
                pages_.append(page_idx)
        return pa.table(
            {
                "doc_id": pa.array(ids_, pa.int64()),
                "ord": pa.array(ords_, pa.int64()),
                "depth": pa.array(deps_, pa.int64()),
                "title": pa.array(titles_, pa.string()),
                "page_idx": pa.array(pages_, pa.int64()),
            }
        )

    return _docs(sf_dir, columns=("doc_id", "text")).map_batches(
        run, batch_format="pyarrow"
    )


@register(
    "pdf_annotation_links",
    oracle="""
    SELECT doc_id,
           CAST(j AS BIGINT) AS link_ord,
           CAST(j % 2 AS BIGINT) AS page_idx,
           CAST(100 + 10 * j AS BIGINT) AS x0,
           CAST(700 - 20 * j AS BIGINT) AS y0,
           CAST(160 + 10 * j AS BIGINT) AS x1,
           CAST(712 - 20 * j AS BIGINT) AS y1,
           'https://ref.example/' || doc_id || '/' || j AS uri
    FROM (SELECT doc_id, unnest(range(1 + doc_id % 4)) AS j FROM documents)
    """,
)
def pdf_annotation_links(sf_dir: str):
    """Outbound-link harvest from /Annots Link annotations with /S /URI
    actions (§12.5.6.5) — the citation-graph edge source real academic
    PDFs carry. 1 + doc_id%4 links per doc, link j on page j%2, so the
    extractor's page-major harvest order (page, array-pos) deliberately
    DIFFERS from synthesis order for docs with >= 3 links (link 2 lives
    on page 0 and is harvested before link 1). The synthesis index j is
    recovered from the uri tail and emitted as ``link_ord`` so both sides
    key rows identically — the remap only yields a consistent rect/uri
    pairing if the walk really is page-major and skips nothing. Fused
    single map stage, zero exchange."""
    from sciscraper_ray.sources.pdf_write import build_pdf_structured
    from sciscraper_ray.stages.pdf_struct import extract_link_annots

    def run(b: pa.Table) -> pa.Table:
        ids_, ords_, pg_, x0_, y0_, x1_, y1_, uri_ = (
            [], [], [], [], [], [], [], [],
        )
        for did in b["doc_id"].to_numpy(zero_copy_only=False):
            did = int(did)
            k = 1 + did % 4
            links = [
                (
                    j % 2,
                    (100 + 10 * j, 700 - 20 * j, 160 + 10 * j, 712 - 20 * j),
                    f"https://ref.example/{did}/{j}",
                )
                for j in range(k)
            ]
            payload = build_pdf_structured(["alpha", "beta"], links=links)
            rows = extract_link_annots(payload)
            # harvest order is (page, array-pos); recover the synthesis
            # index j from the uri tail so link_ord is j on both sides —
            # the reorder itself is what proves the walk is page-major
            for _, page_i, x0, y0, x1, y1, uri in rows:
                j = int(uri.rsplit("/", 1)[1])
                ids_.append(did)
                ords_.append(j)
                pg_.append(page_i)
                x0_.append(x0)
                y0_.append(y0)
                x1_.append(x1)
                y1_.append(y1)
                uri_.append(uri)
        return pa.table(
            {
                "doc_id": pa.array(ids_, pa.int64()),
                "link_ord": pa.array(ords_, pa.int64()),
                "page_idx": pa.array(pg_, pa.int64()),
                "x0": pa.array(x0_, pa.int64()),
                "y0": pa.array(y0_, pa.int64()),
                "x1": pa.array(x1_, pa.int64()),
                "y1": pa.array(y1_, pa.int64()),
                "uri": pa.array(uri_, pa.string()),
            }
        )

    return _docs(sf_dir, columns=("doc_id",)).map_batches(
        run, batch_format="pyarrow"
    )


# --------------------------------------------------------------------------
# HTML structured-data extraction: <table> grids (WHATWG forming-a-table
# algorithm incl. colspan/rowspan) and JSON-LD metadata blocks
# (stages/html_tables.py). Fixtures exercise the span geometry the naive
# cells-in-order reading gets wrong; oracles state the FILLED grid in
# closed form.
# --------------------------------------------------------------------------


@register(
    "page_html_tables",
    oracle="""
    WITH p AS (
        SELECT doc_id, 2 + doc_id % 3 AS r, 2 + doc_id % 2 AS c,
               (doc_id % 5 = 0) AS cs, (doc_id % 7 = 0) AS rs
        FROM documents
    ),
    cells AS (
        SELECT doc_id, cs, rs, i, unnest(range(c)) AS j
        FROM (SELECT doc_id, c, cs, rs, unnest(range(r + 1)) AS i FROM p)
    )
    SELECT doc_id, CAST(0 AS BIGINT) AS table_idx,
           CAST(i AS BIGINT) AS row, CAST(j AS BIGINT) AS col,
           CASE
               WHEN i = 0 THEN 'h' || (j + 1)
               WHEN i = 1 AND cs AND j <= 1 THEN 'v1.0'
               WHEN i = 1 AND cs THEN 'v1.' || (j - 1)
               WHEN i = 2 AND cs AND rs AND j <= 1 THEN 'v1.0'
               WHEN i = 2 AND cs AND rs THEN 'v2.' || (j - 2)
               WHEN i = 2 AND rs AND j = 0 THEN 'v1.0'
               WHEN i = 2 AND rs THEN 'v2.' || (j - 1)
               ELSE 'v' || i || '.' || j
           END AS text,
           CAST(CASE WHEN i = 0 THEN 1 ELSE 0 END AS BIGINT) AS is_header
    FROM cells
    UNION ALL
    SELECT doc_id, 1, 0, 0, 't2_' || doc_id, 0
    FROM documents WHERE doc_id % 4 = 0
    """,
)
def page_html_tables(sf_dir: str):
    """Relational extraction of HTML tables via the real grid-filling
    algorithm (WHATWG §4.9.12): written cells place left-to-right
    skipping slots occupied by rowspans from above; colspan/rowspan
    expand over multiple slots; the emitted rows are the FILLED grid
    (one row per slot, span text duplicated into every covered slot).
    The fixture puts a colspan=2 on %5 docs' first data cell, a
    rowspan=2 on %7 docs' (both on %35), so cells-in-written-order
    misassigns columns on ~31%% of the corpus and fails the closed-form
    oracle. A second 1x1 table on %4 docs pins per-table indexing.
    Single fused map stage — render and parse never leave the task."""
    from sciscraper_ray.stages.html_tables import extract_tables

    def run(b: pa.Table) -> pa.Table:
        ids_, ti_, ri_, ci_, tx_, hd_ = [], [], [], [], [], []
        for did in b["doc_id"].to_numpy(zero_copy_only=False):
            i = int(did)
            r, c = 2 + i % 3, 2 + i % 2
            cs, rs = i % 5 == 0, i % 7 == 0
            rows = [
                "<tr>" + "".join(f"<th>h{j + 1}</th>" for j in range(c)) + "</tr>"
            ]
            for row_i in range(1, r + 1):
                if row_i == 1:
                    attrs = (' colspan="2"' if cs else "") + (
                        ' rowspan="2"' if rs else ""
                    )
                    written = c - (1 if cs else 0)
                    cells = [f"<td{attrs}>v1.0</td>"] + [
                        f"<td>v1.{k}</td>" for k in range(1, written)
                    ]
                elif row_i == 2:
                    written = c - (1 if rs else 0) - (1 if cs and rs else 0)
                    cells = [f"<td>v2.{k}</td>" for k in range(written)]
                else:
                    cells = [f"<td>v{row_i}.{k}</td>" for k in range(c)]
                rows.append("<tr>" + "".join(cells) + "</tr>")
            html = "<table>" + "".join(rows) + "</table>"
            if i % 4 == 0:
                html += f"<table><tr><td>t2_{i}</td></tr></table>"
            html = f"<html><body><h1>Doc {i}</h1>{html}</body></html>"
            for t_idx, row, col, text, hdr in extract_tables(html):
                ids_.append(i)
                ti_.append(t_idx)
                ri_.append(row)
                ci_.append(col)
                tx_.append(text)
                hd_.append(1 if hdr else 0)
        return pa.table(
            {
                "doc_id": pa.array(ids_, pa.int64()),
                "table_idx": pa.array(ti_, pa.int64()),
                "row": pa.array(ri_, pa.int64()),
                "col": pa.array(ci_, pa.int64()),
                "text": pa.array(tx_, pa.string()),
                "is_header": pa.array(hd_, pa.int64()),
            }
        )

    return _docs(sf_dir, columns=("doc_id",)).map_batches(
        run, batch_format="pyarrow"
    )


@register(
    "page_jsonld_extract",
    oracle="""
    SELECT doc_id, CAST(0 AS BIGINT) AS block_ord,
           'ScholarlyArticle' AS type,
           'Title ' || doc_id AS headline,
           CAST(1990 + doc_id % 35 AS BIGINT) AS year,
           CAST(doc_id % 500 AS BIGINT) AS citations
    FROM documents
    UNION ALL
    SELECT doc_id, 1, 'Dataset', 'DS ' || doc_id,
           CAST(2000 + doc_id % 20 AS BIGINT), 0
    FROM documents WHERE doc_id % 6 = 0
    """,
)
def page_jsonld_extract(sf_dir: str):
    """schema.org JSON-LD harvest: <script type="application/ld+json">
    blocks parsed as JSON in document order; %9 docs lead with a
    MALFORMED block that must be skipped without shifting the valid
    ordinals, %6 docs carry a second (Dataset) block. Per-block rows
    (type/headline/year/citations) — the metadata sidecar a scholarly
    crawl mines alongside the extracted text. Fused render+parse map
    stage, zero exchange."""
    import json

    from sciscraper_ray.stages.html_tables import extract_jsonld

    def run(b: pa.Table) -> pa.Table:
        ids_, bo_, ty_, hl_, yr_, ci_ = [], [], [], [], [], []
        for did in b["doc_id"].to_numpy(zero_copy_only=False):
            i = int(did)
            blocks = []
            if i % 9 == 0:
                blocks.append('{"@type": broken')
            blocks.append(
                json.dumps(
                    {
                        "@type": "ScholarlyArticle",
                        "headline": f"Title {i}",
                        "year": 1990 + i % 35,
                        "citations": i % 500,
                    }
                )
            )
            if i % 6 == 0:
                blocks.append(
                    json.dumps(
                        {
                            "@type": "Dataset",
                            "headline": f"DS {i}",
                            "year": 2000 + i % 20,
                            "citations": 0,
                        }
                    )
                )
            scripts = "".join(
                f'<script type="application/ld+json">{blk}</script>'
                for blk in blocks
            )
            html = f"<html><head>{scripts}</head><body>Doc {i}</body></html>"
            for ord_, obj in enumerate(extract_jsonld(html)):
                ids_.append(i)
                bo_.append(ord_)
                ty_.append(str(obj.get("@type", "")))
                hl_.append(str(obj.get("headline", "")))
                yr_.append(int(obj.get("year", 0)))
                ci_.append(int(obj.get("citations", 0)))
        return pa.table(
            {
                "doc_id": pa.array(ids_, pa.int64()),
                "block_ord": pa.array(bo_, pa.int64()),
                "type": pa.array(ty_, pa.string()),
                "headline": pa.array(hl_, pa.string()),
                "year": pa.array(yr_, pa.int64()),
                "citations": pa.array(ci_, pa.int64()),
            }
        )

    return _docs(sf_dir, columns=("doc_id",)).map_batches(
        run, batch_format="pyarrow"
    )


@register(
    "page_hreflang_clusters",
    oracle="""
    SELECT doc_id,
           CAST(CASE WHEN doc_id % 10 = 9 THEN doc_id
                ELSE doc_id - doc_id % 3 END AS BIGINT) AS cluster_id,
           CASE WHEN doc_id % 10 = 9 THEN NULL
                ELSE CASE doc_id % 3
                    WHEN 0 THEN 'en' WHEN 1 THEN 'de' ELSE 'fr'
                END
           END AS lang,
           CAST(CASE WHEN doc_id % 10 = 9 THEN 0 ELSE 3 END AS BIGINT)
               AS n_alternates
    FROM documents
    """,
)
def page_hreflang_clusters(sf_dir: str):
    """Language-variant clustering from <link rel="alternate" hreflang>
    declarations: consecutive id-triples form en/de/fr variant clusters
    whose pages all declare the same alternates plus an x-default
    pointing at the cluster head; %10==9 pages declare nothing (broken
    reciprocity is normal on the web) and become their own singleton
    cluster with a null language. The engine parses the REAL link tags
    (stages/html_tables.extract_hreflang), takes cluster_id from the
    x-default href tail and its own language from the alternate whose
    href matches the page's own path — no doc_id arithmetic on the
    engine side. Fused render+parse map stage, zero exchange; the
    follow-on dedup-by-cluster is the standard keep-one-per-cluster
    winner filter."""
    from sciscraper_ray.stages.html_tables import extract_hreflang

    def run(b: pa.Table) -> pa.Table:
        ids_, cl_, lg_, na_ = [], [], [], []
        for did in b["doc_id"].to_numpy(zero_copy_only=False):
            i = int(did)
            if i % 10 == 9:
                head = ""
            else:
                c = i - i % 3
                head = (
                    f'<link rel="alternate" hreflang="en" href="https://h/x{c}">'
                    f'<link rel="alternate" hreflang="de" href="https://h/x{c + 1}">'
                    f'<link rel="alternate" hreflang="fr" href="https://h/x{c + 2}">'
                    f'<link rel="alternate" hreflang="x-default" href="https://h/x{c}">'
                )
            html = f"<html><head>{head}</head><body>Doc {i}</body></html>"
            alts = extract_hreflang(html)
            own = f"https://h/x{i}"
            lang = None
            cluster = i
            n_alt = 0
            for hl, href in alts:
                if hl == "x-default":
                    cluster = int(href.rsplit("x", 1)[1])
                else:
                    n_alt += 1
                    if href == own:
                        lang = hl
            ids_.append(i)
            cl_.append(cluster)
            lg_.append(lang)
            na_.append(n_alt)
        return pa.table(
            {
                "doc_id": pa.array(ids_, pa.int64()),
                "cluster_id": pa.array(cl_, pa.int64()),
                "lang": pa.array(lg_, pa.string()),
                "n_alternates": pa.array(na_, pa.int64()),
            }
        )

    return _docs(sf_dir, columns=("doc_id",)).map_batches(
        run, batch_format="pyarrow"
    )


@register(
    "pdf_incremental_update_extract",
    oracle="""
    SELECT doc_id,
           CASE WHEN doc_id % 3 = 0
                THEN 'REVISED ' || doc_id || ': ' || array_to_string(
                    (string_split(text, ' '))[1:5], ' ')
                ELSE text
           END AS extracted_text,
           CAST(CASE WHEN doc_id % 3 = 0 THEN 2 ELSE 1 END AS BIGINT)
               AS n_generations
    FROM documents
    """,
)
def pdf_incremental_update_extract(sf_dir: str):
    """Incremental-update PDFs (§7.5.6 — how editors save annotations and
    revisions without rewriting the file): %3 docs get an appended update
    section that REDEFINES the page content object (new stream, one-entry
    xref subsection, /Prev-chained trailer). The extractor must honor the
    newest definition — the body-scan model's later-definition-overrides
    policy — and emit the revised text; a reader that trusts the FIRST
    xref or the first object definition returns the stale pre-update text
    and fails the oracle on a third of the corpus. n_generations counts
    '%%EOF' markers (1 original + 1 per update) — the file-forensics
    signal for revision history. Stateless fused map, zero exchange."""
    from sciscraper_ray.sources.pdf_write import (
        _page_stream,
        append_incremental_update,
        build_pdf,
    )
    from sciscraper_ray.stages.pdf_parse import extract_pdf_pages

    def run(b: pa.Table) -> pa.Table:
        ids_, tx_, ng_ = [], [], []
        for did, text in zip(
            b["doc_id"].to_numpy(zero_copy_only=False),
            b["text"].to_pylist(),
        ):
            i = int(did)
            payload = build_pdf([text])
            if i % 3 == 0:
                revised = f"REVISED {i}: " + " ".join(text.split(" ")[:5])
                stream = _page_stream([revised])
                body = (
                    f"<< /Length {len(stream)} /Filter /FlateDecode >>"
                    "\nstream\n".encode()
                    + stream
                    + b"\nendstream"
                )
                payload = append_incremental_update(payload, 5, body)
            pages = extract_pdf_pages(payload)
            ids_.append(i)
            tx_.append(" ".join(pages))
            ng_.append(payload.count(b"%%EOF"))
        return pa.table(
            {
                "doc_id": pa.array(ids_, pa.int64()),
                "extracted_text": pa.array(tx_, pa.string()),
                "n_generations": pa.array(ng_, pa.int64()),
            }
        )

    return _docs(sf_dir, columns=("doc_id", "text")).map_batches(
        run, batch_format="pyarrow"
    )


@register(
    "page_charset_mismatch",
    oracle="""
    SELECT doc_id,
           CASE doc_id % 4
               WHEN 0 THEN 'utf-8' WHEN 1 THEN 'iso-8859-1'
               WHEN 2 THEN 'utf-8' ELSE 'iso-8859-1'
           END AS declared,
           CASE doc_id % 4
               WHEN 0 THEN 'utf-8' WHEN 1 THEN 'utf-8'
               WHEN 2 THEN 'iso-8859-1' ELSE 'iso-8859-1'
           END AS sniffed,
           CAST(CASE WHEN doc_id % 4 IN (1, 2) THEN 1 ELSE 0 END AS BIGINT)
               AS mismatch,
           CASE WHEN doc_id % 4 = 3 THEN 'plain ascii ' || doc_id
                ELSE chr(82) || chr(233) || 'sum' || chr(233) || ' '
                     || doc_id || ' na' || chr(239) || 've caf'
                     || chr(233)
           END AS body_text
    FROM documents
    """,
)
def page_charset_mismatch(sf_dir: str):
    """Charset lie detection — a crawl's <meta charset> declarations are
    wrong often enough that production extractors sniff bytes instead of
    trusting headers. Deterministic sniff rule: a body with non-ASCII
    bytes that validates as UTF-8 IS UTF-8; invalid UTF-8 falls back to
    iso-8859-1 (byte-faithful); pure ASCII carries no evidence and
    inherits the declaration. %4 cases: truthful UTF-8, UTF-8 bytes
    declared latin-1 (the classic double-encoding source), latin-1 bytes
    declared UTF-8 (mojibake source), truthful ASCII-only latin-1. The
    emitted body_text is decoded with the SNIFFED charset, so both lie
    cases must still recover the exact accented string. Pure fused map
    stage over payload bytes, zero exchange."""
    import re as _re

    meta_re = _re.compile(rb'<meta charset="([^"]+)">')

    def run(b: pa.Table) -> pa.Table:
        ids_, dec_, sn_, mm_, tx_ = [], [], [], [], []
        for did in b["doc_id"].to_numpy(zero_copy_only=False):
            i = int(did)
            case = i % 4
            if case == 3:
                body_s = f"plain ascii {i}"
            else:
                body_s = f"Résumé {i} naïve café"
            declared = ("utf-8", "iso-8859-1", "utf-8", "iso-8859-1")[case]
            body_b = body_s.encode(
                "latin-1" if case == 2 else "utf-8"
            )
            page = (
                f'<html><head><meta charset="{declared}"></head><body>'.encode()
                + body_b
                + b"</body></html>"
            )
            # --- engine side: sniff from bytes only ---
            m = meta_re.search(page)
            decl = m.group(1).decode("ascii") if m else "utf-8"
            body = page.split(b"<body>")[1].split(b"</body>")[0]
            try:
                decoded = body.decode("utf-8")
                sniffed = "utf-8" if max(body) > 127 else decl
            except UnicodeDecodeError:
                decoded = None
                sniffed = "iso-8859-1"
            if sniffed == "iso-8859-1" or decoded is None:
                decoded = body.decode("iso-8859-1")
            ids_.append(i)
            dec_.append(decl)
            sn_.append(sniffed)
            mm_.append(1 if sniffed != decl else 0)
            tx_.append(decoded)
        return pa.table(
            {
                "doc_id": pa.array(ids_, pa.int64()),
                "declared": pa.array(dec_, pa.string()),
                "sniffed": pa.array(sn_, pa.string()),
                "mismatch": pa.array(mm_, pa.int64()),
                "body_text": pa.array(tx_, pa.string()),
            }
        )

    return _docs(sf_dir, columns=("doc_id",)).map_batches(
        run, batch_format="pyarrow"
    )


@register(
    "page_rss_items",
    oracle="""
    SELECT doc_id, CAST(j AS BIGINT) AS item_ord,
           CASE WHEN doc_id % 5 = 0 AND j = 0
                THEN 'News & <updates> ' || doc_id
                ELSE 'Item ' || doc_id || '.' || j END AS title,
           'tag:' || doc_id || ':' || j AS guid,
           '2024-01-' || lpad(CAST(1 + (doc_id + j) % 28 AS VARCHAR), 2, '0')
               AS pub_date
    FROM (SELECT doc_id, unnest(range(1 + doc_id % 3)) AS j FROM documents)
    """,
)
def page_rss_items(sf_dir: str):
    """RSS 2.0 feed-item extraction (the discovery surface a news crawl
    polls): 1 + doc_id%3 items per feed with title/guid/pubDate; %5
    feeds lead with an entity-escaped title (&amp;, &lt;) that must
    arrive UNESCAPED, pinning charref handling, and <pubDate>'s mixed
    case pins the parser's tag normalization. Fused render+parse map
    stage, zero exchange."""
    from html import escape

    from sciscraper_ray.stages.html_tables import extract_rss_items

    def run(b: pa.Table) -> pa.Table:
        ids_, io_, ti_, gu_, pd_ = [], [], [], [], []
        for did in b["doc_id"].to_numpy(zero_copy_only=False):
            i = int(did)
            items_xml = []
            for j in range(1 + i % 3):
                title = (
                    f"News & <updates> {i}"
                    if i % 5 == 0 and j == 0
                    else f"Item {i}.{j}"
                )
                items_xml.append(
                    "<item>"
                    f"<title>{escape(title)}</title>"
                    f"<guid>tag:{i}:{j}</guid>"
                    f"<pubDate>2024-01-{1 + (i + j) % 28:02d}</pubDate>"
                    "</item>"
                )
            xml = (
                '<?xml version="1.0"?><rss version="2.0"><channel>'
                f"<title>Feed {i}</title>{''.join(items_xml)}</channel></rss>"
            )
            for ord_, item in enumerate(extract_rss_items(xml)):
                ids_.append(i)
                io_.append(ord_)
                ti_.append(item.get("title", ""))
                gu_.append(item.get("guid", ""))
                pd_.append(item.get("pubdate", ""))
        return pa.table(
            {
                "doc_id": pa.array(ids_, pa.int64()),
                "item_ord": pa.array(io_, pa.int64()),
                "title": pa.array(ti_, pa.string()),
                "guid": pa.array(gu_, pa.string()),
                "pub_date": pa.array(pd_, pa.string()),
            }
        )

    return _docs(sf_dir, columns=("doc_id",)).map_batches(
        run, batch_format="pyarrow"
    )


# --------------------------------------------------------------------------
# Magic-byte payload sniffing: crawl servers lie about Content-Type, so
# the router classifies by leading bytes. PDF, gzip and HTML payloads are
# built by real writers, PNG/GIF/WAV ones are literal format headers, and
# %5 rows declare a wrong type, which the sniffer must override.
# --------------------------------------------------------------------------

_MAGIC_TABLE = (
    ("pdf", b"%PDF-"),
    ("png", b"\x89PNG\r\n\x1a\n"),
    ("gif", b"GIF8"),
    ("jpeg", b"\xff\xd8\xff"),
    ("wav", b"RIFF"),
    ("gzip", b"\x1f\x8b"),
)


def sniff_payload_type(payload: bytes) -> str:
    for name, magic in _MAGIC_TABLE:
        if payload[: len(magic)] == magic:
            return name
    head = payload[:256].lstrip().lower()
    if head.startswith((b"<!doctype", b"<html")):
        return "html"
    return "octet-stream"


@register(
    "payload_magic_sniff",
    oracle="""
    SELECT doc_id,
           CASE doc_id % 6
               WHEN 0 THEN 'pdf' WHEN 1 THEN 'png' WHEN 2 THEN 'gif'
               WHEN 3 THEN 'wav' WHEN 4 THEN 'gzip' ELSE 'html'
           END AS sniffed_type,
           CASE WHEN doc_id % 5 = 0 THEN 'text/plain' ELSE
               CASE doc_id % 6
                   WHEN 0 THEN 'application/pdf' WHEN 1 THEN 'image/png'
                   WHEN 2 THEN 'image/gif' WHEN 3 THEN 'audio/wav'
                   WHEN 4 THEN 'application/gzip' ELSE 'text/html'
               END
           END AS declared_type,
           CAST(CASE WHEN doc_id % 5 = 0 THEN 1 ELSE 0 END AS BIGINT)
               AS mislabeled
    FROM documents
    """,
)
def payload_magic_sniff(sf_dir: str):
    """Content-type routing by magic bytes over PDF writer output, a
    one-member gzip, rendered HTML and literal PNG/GIF/WAV headers
    (signature plus first header fields): %5 rows carry a
    lying 'text/plain' declaration that the sniffer must override —
    exactly the router decision the extraction pipeline makes before
    dispatching to the PDF pool vs the DOM stripper. Prefix compares
    only (first 8 bytes + an HTML head probe); one fused map stage."""
    import gzip as _gzip

    from sciscraper_ray.sources.pdf_write import build_pdf

    # 4x4 greyscale IHDR, 3x3 GIF89a screen, mono 8 kHz PCM RIFF header
    png = b"\x89PNG\r\n\x1a\n\x00\x00\x00\rIHDR" + bytes(
        [0, 0, 0, 4, 0, 0, 0, 4, 8, 0, 0, 0, 0]
    )
    gif = b"GIF89a\x03\x00\x03\x00\x00\x00\x00"
    wav = b"RIFF\x24\x00\x00\x00WAVEfmt \x10\x00\x00\x00\x01\x00\x01\x00"

    _MIME = {
        "pdf": "application/pdf", "png": "image/png", "gif": "image/gif",
        "wav": "audio/wav", "gzip": "application/gzip", "html": "text/html",
    }

    def run(b: pa.Table) -> pa.Table:
        ids_, sn_, de_, mi_ = [], [], [], []
        for did in b["doc_id"].to_numpy(zero_copy_only=False):
            i = int(did)
            case = i % 6
            if case == 0:
                payload = build_pdf([f"doc {i}"])
            elif case == 1:
                payload = png
            elif case == 2:
                payload = gif
            elif case == 3:
                payload = wav
            elif case == 4:
                payload = _gzip.compress(f"record {i}".encode(), mtime=0)
            else:
                payload = f"<!DOCTYPE html><html><body>{i}</body></html>".encode()
            declared = "text/plain" if i % 5 == 0 else _MIME[
                ("pdf", "png", "gif", "wav", "gzip", "html")[case]
            ]
            sniffed = sniff_payload_type(payload)
            ids_.append(i)
            sn_.append(sniffed)
            de_.append(declared)
            mi_.append(1 if _MIME.get(sniffed) != declared else 0)
        return pa.table(
            {
                "doc_id": pa.array(ids_, pa.int64()),
                "sniffed_type": pa.array(sn_, pa.string()),
                "declared_type": pa.array(de_, pa.string()),
                "mislabeled": pa.array(mi_, pa.int64()),
            }
        )

    return _docs(sf_dir, columns=("doc_id",)).map_batches(
        run, batch_format="pyarrow"
    )


@register(
    "dom_xpath_select",
    oracle="""
    WITH q(ord, xpath) AS (
        VALUES (0, '/html/body/div[1]/p[2]'), (1, '//span/@data-x'),
               (2, '/html/body/ul/li[2]'), (3, '//p')
    )
    SELECT d.doc_id, q.xpath,
           CASE q.ord
               WHEN 0 THEN 'B' || d.doc_id
               WHEN 1 THEN 'v' || d.doc_id
               WHEN 2 THEN 'two' || d.doc_id
               ELSE 'A' || d.doc_id
           END AS value
    FROM documents d CROSS JOIN q
    """,
)
def dom_xpath_select(sf_dir: str):
    """XPath-lite DOM selection (the second selector language next to
    the CSS engine): absolute child-axis paths, 1-based SAME-TAG
    positional predicates (XPath semantics — div[2] is the second div
    sibling, not nth-child), a //tag descendant seed, and a trailing
    @attr step, evaluated against the real tree builder. Four
    expressions per page cover each feature; the sibling-index fixture
    (two <p> under one <div>, the value in the SECOND) fails any
    evaluator that confuses nth-of-type with nth-child. Fused map,
    zero exchange."""
    from sciscraper_ray.stages.dom_select import xpath_select

    _XPATHS = (
        "/html/body/div[1]/p[2]", "//span/@data-x",
        "/html/body/ul/li[2]", "//p",
    )

    def run(b: pa.Table) -> pa.Table:
        ids_, xp_, va_ = [], [], []
        for did in b["doc_id"].to_numpy(zero_copy_only=False):
            i = int(did)
            html = (
                f"<html><body><div><p>A{i}</p><p>B{i}</p></div>"
                f'<div><span data-x="v{i}">C{i}</span></div>'
                f"<ul><li>one{i}</li><li>two{i}</li></ul></body></html>"
            )
            for xp in _XPATHS:
                ids_.append(i)
                xp_.append(xp)
                va_.append(xpath_select(html, xp))
        return pa.table(
            {
                "doc_id": pa.array(ids_, pa.int64()),
                "xpath": pa.array(xp_, pa.string()),
                "value": pa.array(va_, pa.string()),
            }
        )

    return _docs(sf_dir, columns=("doc_id",)).map_batches(
        run, batch_format="pyarrow"
    )


def _docs_per_host(sf_dir: str, count: str, what: str):
    """Documents per synthetic crawl host as a (host, ``count``) frame.
    Per-batch host tallies bound the exchange by the host set; ``what``
    names the query in the driver-plan guard."""
    from sciscraper_ray.pipelines.plan import driver_frame
    from sciscraper_ray.sources.page_synth import host_for

    def partials(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        hosts = pa.array([host_for(int(i)) for i in ids], pa.string())
        return group_count_batch(pa.table({"host": hosts}), ["host"], count=count)

    parts = driver_frame(
        _docs(sf_dir, columns=("doc_id",)).map_batches(
            partials, batch_format="pyarrow"
        ),
        what=what,
    )
    return parts.groupby("host", as_index=False)[count].sum()


@register(
    "host_crawl_fairness",
    oracle="""
    WITH per_host AS (
        SELECT CASE WHEN doc_id % 10 < 3 THEN 'mega.example.org'
               ELSE CASE doc_id % 5
                    WHEN 0 THEN 'alpha.example.com'
                    WHEN 1 THEN 'beta.example.net'
                    WHEN 2 THEN 'gamma.example.io'
                    WHEN 3 THEN 'delta.example.edu'
                    ELSE 'epsilon.example.dev' END END AS host,
               CAST(count(*) AS BIGINT) AS docs
        FROM documents GROUP BY 1
    )
    SELECT CAST(count(*) AS BIGINT) AS n_hosts,
           CAST(sum(docs) AS BIGINT) AS total_docs,
           CAST(max(docs) AS BIGINT) AS max_docs,
           (CAST(sum(docs) AS DOUBLE) * sum(docs))
               / (count(*) * CAST(sum(docs * docs) AS DOUBLE)) AS jain_index
    FROM per_host
    """,
)
def host_crawl_fairness(sf_dir: str):
    """Jain's fairness index of the crawl's per-host page allocation:
    J = (sum x)^2 / (n * sum x^2) — 1.0 is a perfectly even crawl, 1/n
    is one host hogging the budget. The politeness-scheduler health
    gauge that catches mega-host skew BEFORE it becomes a shuffle
    hot-key problem downstream (this fixture's mega.example.org takes
    ~30% by construction). Per-batch host tallies bound the exchange to
    the host set; moments are exact int64 and only the final index is a
    double, identical arithmetic order both sides."""
    per_host = _docs_per_host(sf_dir, "docs", "host_crawl_fairness")
    docs = per_host["docs"].to_numpy(np.int64)
    n = len(docs)
    s = int(docs.sum())
    ssq = int((docs * docs).sum())
    return pa.table(
        {
            "n_hosts": pa.array([n], pa.int64()),
            "total_docs": pa.array([s], pa.int64()),
            "max_docs": pa.array([int(docs.max())], pa.int64()),
            "jain_index": pa.array(
                [(float(s) * s) / (n * float(ssq))], pa.float64()
            ),
        }
    )


@register(
    "page_extract_idempotent",
    oracle="""
    SELECT doc_id, text AS extracted, CAST(1 AS BIGINT) AS fixpoint
    FROM documents
    """,
)
def page_extract_idempotent(sf_dir: str):
    """Extraction idempotence audit — the north-rule invariant run as a
    FIXPOINT test: render(text) -> extract must reproduce text
    byte-identically, and re-wrapping THAT extraction in fresh
    boilerplate and extracting again must be a no-op (extract ∘ render
    is idempotent). A main-content stripper that only approximately
    inverts the chrome drifts a little on every re-crawl/re-process
    cycle; this query pins drift to zero per url. Pure map stage (both
    render and the two extraction passes stay inside the task); the
    oracle is the input text itself, so any byte of drift in EITHER
    pass hash-fails."""
    from sciscraper_ray.sources.page_synth import render_html
    from sciscraper_ray.stages.html_extract import extract_main_content

    def audit(batch: pa.Table) -> pa.Table:
        ids_, texts_, fix_ = [], [], []
        for i, t, lg in zip(
            batch["doc_id"].to_pylist(),
            batch["text"].to_pylist(),
            batch["lang"].to_pylist(),
        ):
            once, _ = extract_main_content(
                render_html(int(i), t, lg).decode("utf-8")
            )
            twice, _ = extract_main_content(
                render_html(int(i), once, lg).decode("utf-8")
            )
            ids_.append(int(i))
            texts_.append(once)
            fix_.append(1 if twice == once else 0)
        return pa.table(
            {
                "doc_id": pa.array(ids_, pa.int64()),
                "extracted": pa.array(texts_, pa.string()),
                "fixpoint": pa.array(fix_, pa.int64()),
            }
        )

    return _docs(sf_dir, columns=("doc_id", "text", "lang")).map_batches(
        audit, batch_format="pyarrow"
    )


@register(
    "host_budget_waterfill",
    oracle="""
    WITH per_host AS (
        SELECT CASE WHEN doc_id % 10 < 3 THEN 'mega.example.org'
               ELSE CASE doc_id % 5
                    WHEN 0 THEN 'alpha.example.com'
                    WHEN 1 THEN 'beta.example.net'
                    WHEN 2 THEN 'gamma.example.io'
                    WHEN 3 THEN 'delta.example.edu'
                    ELSE 'epsilon.example.dev' END END AS host,
               CAST(count(*) AS BIGINT) AS cap
        FROM documents GROUP BY 1
    ), b AS (
        SELECT CAST(sum(cap) // 2 AS BIGINT) AS budget,
               CAST(count(*) AS BIGINT) AS n
        FROM per_host
    ), ord AS (
        SELECT host, cap,
               row_number() OVER (ORDER BY cap, host) - 1 AS i,
               sum(cap) OVER (ORDER BY cap, host
                   ROWS UNBOUNDED PRECEDING) - cap AS prefix
        FROM per_host
    ), lvl AS (
        -- water level L: the largest fill where smaller hosts saturate;
        -- remaining budget spreads over the n-i unsaturated hosts
        SELECT CAST(max((b.budget - o.prefix) // (b.n - o.i)) FILTER (
                   o.cap * (b.n - o.i) + o.prefix >= b.budget
               ) AS BIGINT) AS level
        FROM ord o, b
    )
    SELECT o.host, o.cap,
           CAST(least(o.cap, l.level)
                + CASE WHEN o.cap > l.level
                       AND o.i >= b.n - ((b.budget
                           - (SELECT sum(least(cap, l2.level))
                              FROM per_host, lvl l2)))
                  THEN 1 ELSE 0 END AS BIGINT) AS alloc
    FROM ord o, lvl l, b
    """,
)
def host_budget_waterfill(sf_dir: str):
    """Max-min fair (water-filling) crawl-budget allocation: a budget of
    half the corpus is poured across hosts, each capped by its own page
    count — small hosts saturate, the rest share the common water level
    L = max over saturation points of (remaining budget // unsaturated
    hosts), and the integer remainder goes one page each to the LARGEST
    unsaturated hosts (deterministic (cap, host) order). This is the
    politeness scheduler's inverse of host_crawl_fairness: given the
    skew, compute the fairest feasible allocation in exact integers.
    Host tallies are per-batch partials (host-bounded exchange); the
    fill itself is one sorted prefix-sum pass."""
    per_host = (
        _docs_per_host(sf_dir, "cap", "host_budget_waterfill")
        .sort_values(["cap", "host"])
        .reset_index(drop=True)
    )
    cap = per_host["cap"].to_numpy(np.int64)
    n = len(cap)
    budget = int(cap.sum()) // 2
    prefix = np.concatenate(([0], cap.cumsum()[:-1]))
    # water level: max feasible fill among saturation candidates
    feasible = cap * (n - np.arange(n)) + prefix >= budget
    level = int(((budget - prefix) // (n - np.arange(n)))[feasible].max())
    alloc = np.minimum(cap, level)
    rem = budget - int(alloc.sum())
    # remainder: one page each to the largest unsaturated hosts
    unsat = np.flatnonzero(cap > level)
    if rem > 0:
        alloc[unsat[-rem:]] += 1
    return pa.table(
        {
            "host": pa.array(per_host["host"], pa.string()),
            "cap": pa.array(cap, pa.int64()),
            "alloc": pa.array(alloc, pa.int64()),
        }
    )


# --------------------------------------------------------------------------
# Stored-payload wire formats (kernels/wire.py): HTTP/1.1 chunked
# transfer coding and response framing, decoded from scratch and attested
# against closed-form lengths + exact roundtrips.
# --------------------------------------------------------------------------


@register(
    "page_chunked_decode",
    oracle="""
    SELECT doc_id,
           CAST(5 + doc_id % 11 AS BIGINT) AS chunk_size,
           CAST((octet_length(encode(text)) + 4 + doc_id % 11)
                // (5 + doc_id % 11) AS BIGINT) AS n_chunks,
           CAST(octet_length(encode(text)) AS BIGINT) AS body_len,
           CAST(1 AS BIGINT) AS roundtrip_exact,
           CAST(1 AS BIGINT) AS trailer_ok
    FROM documents
    """,
)
def page_chunked_decode(sf_dir: str):
    """HTTP/1.1 chunked transfer decoding (RFC 9112 §7.1,
    kernels/wire.py): each doc's UTF-8 body is framed into fixed-size
    chunks (size 5 + doc_id%11, so every size-line/CRLF alignment
    appears across the corpus) with a trailer field carrying the body
    length; the decoder re-assembles the body, skips a chunk extension
    on the first chunk, and parses the trailer. The oracle pins the
    chunk count closed-form (ceil division) and body length;
    roundtrip_exact + trailer_ok attest content and trailer parsing."""
    from sciscraper_ray.kernels.wire import chunked_decode, chunked_encode

    def sweep(b: pa.Table) -> pa.Table:
        ids = np.asarray(b["doc_id"].to_numpy(zero_copy_only=False), np.int64)
        csz = np.empty(len(ids), np.int64)
        nch = np.empty(len(ids), np.int64)
        blen = np.empty(len(ids), np.int64)
        exact = np.empty(len(ids), np.int64)
        trok = np.empty(len(ids), np.int64)
        for j, (i, t) in enumerate(zip(ids, b["text"].to_pylist())):
            raw = (t or "").encode("utf-8")
            s = 5 + int(i) % 11
            n_chunks = (len(raw) + s - 1) // s
            framed = chunked_encode(
                raw, [s] * n_chunks, {"x-len": str(len(raw))}
            )
            # exercise the extension-skip path on the first size line
            if n_chunks:
                eol = framed.index(b"\r\n")
                framed = framed[:eol] + b";ext=1" + framed[eol:]
            body, trailers = chunked_decode(framed)
            csz[j] = s
            nch[j] = n_chunks
            blen[j] = len(body)
            exact[j] = int(body == raw)
            trok[j] = int(trailers.get("x-len") == str(len(raw)))
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "chunk_size": pa.array(csz),
                "n_chunks": pa.array(nch),
                "body_len": pa.array(blen),
                "roundtrip_exact": pa.array(exact),
                "trailer_ok": pa.array(trok),
            }
        )

    return _docs(sf_dir).map_batches(sweep, batch_format="pyarrow")


@register(
    "page_http_response_decode",
    oracle="""
    SELECT doc_id,
           CAST(200 AS BIGINT) AS status,
           CAST(3 AS BIGINT) AS n_headers,
           CAST(octet_length(encode(text)) AS BIGINT) AS body_len,
           CAST(1 AS BIGINT) AS roundtrip_exact
    FROM documents
    """,
)
def page_http_response_decode(sf_dir: str):
    """Stored raw HTTP response decoding: the fixture wraps each doc's
    text as a full HTTP/1.1 response with ``Transfer-Encoding: chunked``
    AND ``Content-Encoding: gzip``; the decoder parses the status line +
    headers (kernels/wire.py parse_http_response), de-chunks with the
    from-scratch chunked decoder, and inflates with stdlib gzip — the
    unwrap every WARC-stored crawl response needs. roundtrip_exact
    attests the recovered body byte-for-byte."""
    import gzip as _gzip

    from sciscraper_ray.kernels.wire import (
        chunked_decode,
        chunked_encode,
        parse_http_response,
    )

    def sweep(b: pa.Table) -> pa.Table:
        ids = np.asarray(b["doc_id"].to_numpy(zero_copy_only=False), np.int64)
        status = np.empty(len(ids), np.int64)
        nh = np.empty(len(ids), np.int64)
        bl = np.empty(len(ids), np.int64)
        exact = np.empty(len(ids), np.int64)
        for j, (i, t) in enumerate(zip(ids, b["text"].to_pylist())):
            raw = (t or "").encode("utf-8")
            body = chunked_encode(
                _gzip.compress(raw, mtime=0), [64 + int(i) % 64]
            )
            resp = (
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/plain; charset=utf-8\r\n"
                b"Transfer-Encoding: chunked\r\n"
                b"Content-Encoding: gzip\r\n\r\n" + body
            )
            st, headers, raw_body = parse_http_response(resp)
            assert headers["transfer-encoding"] == "chunked"
            dechunked, _tr = chunked_decode(raw_body)
            assert headers["content-encoding"] == "gzip"
            out = _gzip.decompress(dechunked)
            status[j] = st
            nh[j] = len(headers)
            bl[j] = len(out)
            exact[j] = int(out == raw)
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "status": pa.array(status),
                "n_headers": pa.array(nh),
                "body_len": pa.array(bl),
                "roundtrip_exact": pa.array(exact),
            }
        )

    return _docs(sf_dir).map_batches(sweep, batch_format="pyarrow")


@register(
    "doc_mojibake_repair",
    oracle="""
    SELECT doc_id,
           CAST(1 AS BIGINT) AS was_mojibake,
           CAST(length(text) + 2 + doc_id % 3 AS BIGINT) AS orig_chars,
           CAST(1 AS BIGINT) AS repaired_exact
    FROM documents
    """,
)
def doc_mojibake_repair(sf_dir: str):
    """Double-encoding (mojibake) detection + repair — the ftfy-class
    cleanup every web corpus needs: the fixture builds an accented
    original (text + a doc_id-chosen accented suffix), then simulates
    the classic crawl bug of decoding its UTF-8 bytes as Latin-1
    ('café' -> 'cafÃ©'). The repair detects the UTF-8-lead-byte
    signature in the char stream and reverses it (latin-1 re-encode ->
    UTF-8 decode), which must recover the original EXACTLY; plain-ASCII
    strings must pass through untouched (checked per doc against the
    un-suffixed text). Oracle pins the original char count closed-form
    (text + space + 1+doc_id%3 accented chars)."""

    accents = ("é", "ü", "ñ", "ø")

    def repair(s: str) -> tuple[str, bool]:
        # UTF-8 lead byte (0xC2-0xF4) followed by a continuation byte
        # (0x80-0xBF), both visible as Latin-1 chars
        suspicious = any(
            0xC2 <= ord(a) <= 0xF4 and 0x80 <= ord(b2) <= 0xBF
            for a, b2 in zip(s, s[1:])
        )
        if not suspicious:
            return s, False
        try:
            return s.encode("latin-1").decode("utf-8"), True
        except (UnicodeEncodeError, UnicodeDecodeError):
            return s, False

    def sweep(b: pa.Table) -> pa.Table:
        ids = np.asarray(b["doc_id"].to_numpy(zero_copy_only=False), np.int64)
        was = np.empty(len(ids), np.int64)
        oc = np.empty(len(ids), np.int64)
        exact = np.empty(len(ids), np.int64)
        for j, (i, t) in enumerate(zip(ids, b["text"].to_pylist())):
            i = int(i)
            original = (t or "") + " " + accents[i % 4] * (1 + i % 3)
            mojibake = original.encode("utf-8").decode("latin-1")
            repaired, detected = repair(mojibake)
            clean_roundtrip, clean_detected = repair(t or "")
            was[j] = int(detected)
            oc[j] = len(original)
            exact[j] = int(
                repaired == original
                and not clean_detected
                and clean_roundtrip == (t or "")
            )
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "was_mojibake": pa.array(was),
                "orig_chars": pa.array(oc),
                "repaired_exact": pa.array(exact),
            }
        )

    return _docs(sf_dir).map_batches(sweep, batch_format="pyarrow")
