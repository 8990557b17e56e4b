"""The flagship extraction pipeline over Common-Crawl-style page tables —
the engine's north-star dataflow (BASELINE.json north_rule).

    read_parquet(pages)                       column-pruned, streamed
      -> keep-latest dedup by url             ONE shuffle (hash on url),
                                              fed by per-batch partials
      -> PayloadExtractor                     per-row payload-magic routing:
                                              %PDF- -> layout parse, else
                                              readability strip — ONE pass,
                                              no dataset split/union (a
                                              split would re-execute the
                                              dedup subgraph per branch and
                                              double the payload traffic)
      -> DocAnalyzer                          fused tokenize/terms/wordscore
      -> (caller writes / consumes)

Per-row invariant: ``extracted_text`` is byte-identical per url to the
reference semantics (pdfplumber-style layout parse joined with " " across
pages — docscraper.py:188-205 — and readability main-content for HTML).

EP1 analog ("directory" mode, factories.py:27-33): the binary payload
column replaces the PDF directory walk; identifier mining runs on the
extracted text (doifrompdf.py:30-52 text fallback).
"""

from __future__ import annotations

import pyarrow as pa

import ray.data

from sciscraper_ray.stages.doc_analyzer import DocAnalyzer
from sciscraper_ray.stages.html_extract import extract_main_content
from sciscraper_ray.stages.pdf_parse import extract_pdf_pages

EXTRACT_COLUMNS = [
    "url", "warc_ts", "lang", "doc_id",
    "extracted_text", "spans", "payload_kind", "extract_status",
    "meta_identifier", "meta_identifier_type",
]

SPAN_TYPE = pa.list_(pa.struct([("start", pa.int64()), ("end", pa.int64())]))


class PayloadExtractor:
    """Task stage (a serialized instance; it holds only the payload column
    name): sniff each payload's magic and extract.

    %PDF- payloads -> content-stream layout parse (pages joined " ",
    docscraper.py:205); everything else -> readability main-content strip.
    Emits extracted_text, spans, payload_kind, extract_status; errors
    degrade to null text, never crash the task.
    """

    def __init__(self, payload_col: str = "html"):
        self.payload_col = payload_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from sciscraper_ray.kernels.identifiers import identifier_from_pdf_metadata
        from sciscraper_ray.stages.pdf_parse import extract_pdf_info

        texts: list[str | None] = []
        spans_col: list[list[dict] | None] = []
        kinds: list[str] = []
        status: list[str] = []
        meta_ids: list[str | None] = []
        meta_kinds: list[str | None] = []
        for payload in batch[self.payload_col].to_pylist():
            if payload is None:
                texts.append(None)
                spans_col.append(None)
                kinds.append("none")
                status.append("error: null payload")
                meta_ids.append(None)
                meta_kinds.append(None)
                continue
            kind = "pdf" if bytes(payload).startswith(b"%PDF-") else "html"
            kinds.append(kind)
            row_text = row_spans = row_mid = row_mkind = None
            try:
                if kind == "pdf":
                    pages = extract_pdf_pages(payload)
                    spans, pos = [], 0
                    for p in pages:
                        spans.append({"start": pos, "end": pos + len(p)})
                        pos += len(p) + 1
                    row_text = " ".join(pages)
                    row_spans = spans
                    # doi_from_pdf chain prefix (doifrompdf.py:30-52): the
                    # payload is open RIGHT HERE, so the metadata and
                    # pdf-info probes run in this stage (the reference
                    # reopens the PDF for metadata — doifrompdf.py:123);
                    # the text step runs downstream in DocAnalyzer.
                    row_mid, row_mkind = identifier_from_pdf_metadata(
                        extract_pdf_info(payload)
                    )
                else:
                    text, spans = extract_main_content(payload.decode("utf-8", errors="replace"))
                    row_text = text
                    row_spans = [{"start": s, "end": e} for s, e in spans]
                status.append("ok")
            except Exception as exc:  # noqa: BLE001 — degrade, never crash
                row_text = row_spans = row_mid = row_mkind = None
                status.append(f"error: {type(exc).__name__}")
            texts.append(row_text)
            spans_col.append(row_spans)
            meta_ids.append(row_mid)
            meta_kinds.append(row_mkind)
        return (
            batch.drop_columns([self.payload_col])
            .append_column("extracted_text", pa.array(texts, type=pa.large_string()))
            .append_column("spans", pa.array(spans_col, type=SPAN_TYPE))
            .append_column("payload_kind", pa.array(kinds, type=pa.string()))
            .append_column("extract_status", pa.array(status, type=pa.string()))
            .append_column("meta_identifier", pa.array(meta_ids, type=pa.string()))
            .append_column("meta_identifier_type", pa.array(meta_kinds, type=pa.string()))
        )


# Second pandas hash key (exactly 16 chars, the pandas requirement): the
# default-key hash plus this one give two independent 64-bit hashes = one
# 128-bit url key. 64-bit keys collide ~27k times at 10^12 rows (birthday);
# 128-bit keys make collisions physically negligible.
_LO_HASH_KEY = "sciscraper-lo-k1"


def _url_hash128(batch: pa.Table, url_col: str) -> "tuple":
    """(hi, lo) int64 views of a 128-bit url hash. Shared by BOTH passes of
    keep_latest_by_url — they must agree bit-for-bit.

    The hashes travel as INT64 (bit view), never uint64: a uint64 key
    silently promotes to float64 inside Ray's sort-aggregate (numpy's
    uint64+int64 rule), which rounds away the low bits and breaks every
    equality downstream."""
    import numpy as np
    import pandas as pd

    urls = pd.DataFrame({url_col: batch[url_col].to_pandas()})
    hi = pd.util.hash_pandas_object(urls, index=False).to_numpy().view(np.int64)
    lo = (
        pd.util.hash_pandas_object(urls, index=False, hash_key=_LO_HASH_KEY)
        .to_numpy()
        .view(np.int64)
    )
    return hi, lo


def _ts_us_i64(col) -> "object":
    """int64 epoch-microsecond view of a timestamp-ish column; nulls become
    int64 min. Shared by BOTH passes of keep_latest_by_url — the two passes
    must normalize identically or winner keys never match and every
    duplicated url is silently dropped (ADVICE r1: pass 1 used pandas
    to_datetime, which reads int64 as NANOseconds, while pass 2 cast
    int64 -> timestamp[us], reading the same value as MICROseconds).
    Integer columns are taken as epoch-us verbatim; anything else goes
    through Arrow's timestamp[us] cast (strings must parse or this raises
    — better than two passes silently disagreeing)."""
    import numpy as np
    import pyarrow.compute as _pc

    if pa.types.is_integer(col.type):
        casted = _pc.cast(col, pa.int64())
    else:
        casted = _pc.cast(_pc.cast(col, pa.timestamp("us")), pa.int64())
    return _pc.fill_null(casted, np.iinfo(np.int64).min).to_numpy(
        zero_copy_only=False
    )


def keep_latest_by_url(
    ds: ray.data.Dataset,
    url_col: str = "url",
    ts_col: str = "warc_ts",
    keys_source: "ray.data.Dataset | None" = None,
    key_merge: str = "auto",
    driver_merge_limit: int | None = None,
    est_rows: int | None = None,
) -> ray.data.Dataset:
    """Exact dedup, keep-latest fetch per url (SURVEY §2.6) — WITHOUT
    moving payloads through a shuffle. A deployment of the shared
    ``winner_filter`` two-pass plan (pipelines/winner.py): key = 128-bit
    url hash, value = warc_ts epoch-us, winner = max, with the
    first-seen tie-break for identical (url, ts) fetches.

    Hashing the url BEFORE the shuffle matters twice at scale: the
    sort-exchange moves 16-byte int pairs instead of full url strings,
    and the range-sort itself is an integer sort (utf8 comparisons were
    the dominant cost of this pass). ``keys_source`` lets path callers
    pass a column-pruned parquet read for pass 1.
    """
    import numpy as np

    from sciscraper_ray.pipelines.winner import WinnerSpec, winner_filter

    spec = WinnerSpec(
        keys=lambda b: (*_url_hash128(b, url_col), None),
        value=lambda b: _ts_us_i64(b[ts_col]),
        np_reducer=np.maximum,
        agg_name="max",
        first_seen_tiebreak=True,
        what="keep_latest_by_url",
    )
    return winner_filter(
        ds,
        spec,
        keys_source=keys_source
        if keys_source is not None
        else ds.select_columns([url_col, ts_col]),
        key_merge=key_merge,
        driver_merge_limit=driver_merge_limit,
        est_rows=est_rows,
    )


def extraction_pipeline(
    source: str | ray.data.Dataset,
    *,
    dedup: bool = True,
    analyze: bool = True,
    dedup_key_merge: str = "auto",
) -> ray.data.Dataset:
    """pages (path or Dataset) -> extracted (and optionally analyzed) docs.

    Both map stages run as Ray tasks over serialized instances, not actor
    pools: PayloadExtractor holds only a column name and DocAnalyzer two
    frozen word sets. Tasks take CPU slots only while they run, so the
    reads are never starved (an actor holds its slot for the whole
    execution, and at one CPU the reads never ran —
    tests/test_single_cpu.py).

    No map in the chain sets ``batch_size``. ``map_batches(batch_size=n)``
    gives its operator ``min_rows_per_bundled_input=n``, and Ray's fusion
    rule (``operator_fusion.py``, ``_can_fuse_map_ops``) keeps such a map
    apart from an upstream operator that can change row counts — a Read
    among them. Unbatched, Ray fuses ``ReadParquet -> keep_winners ->
    PayloadExtractor -> project -> DocAnalyzer`` into ONE task operator
    (``ReadParquet -> tag -> ... -> Write`` under ``run_resumable``): each
    task carries what it reads through every stage, and the operator gets
    as many tasks as the read has.

    On a path, both reads (payload, and the ``url``/``warc_ts`` key pass)
    go through ``plan.read_at_full_width``. A small local input (at most
    ``plan.FULL_WIDTH_MAX_BYTES`` on disk) of at least ``2 × cluster
    CPUs`` files is read by exactly ``2 × CPUs`` tasks with blocks of at
    most ``plan.READ_BLOCK_BYTES`` (256 KiB). Ray's own shape for such an
    input is ``min(200, data MiB)`` tasks of about 1 MiB. Its executor
    waits on the whole round of running tasks
    (``ray.wait(num_returns=len(active_tasks), timeout=0.1)``), and until
    an operator's first output it charges each running task a 256 MiB
    output estimate, so on a 512 MiB object store a second task waited
    for the first. On perfbench's ``crawl_extract`` input (32 files,
    10,590 pages) at 2 CPUs the fused operator kept about 1.15 CPUs busy
    that way, and keeps about 1.75 at full width. Any other input keeps
    Ray's shape; with fewer files Ray splits the read blocks
    (``ReadParquet->SplitBlocks``): the read leaves the fused operator,
    but the chain still runs as wide as the cluster.

    Rows per call: ``keep_winners`` gets one parquet reader batch, which
    Ray sizes from the process-wide context (at most 10,000 rows or a
    tenth of 128 MiB; a whole file of ``crawl_extract``'s input), or one
    split block. The stages after it get blocks of at most
    ``READ_BLOCK_BYTES``, about 180 pages of ``crawl_extract``'s input
    (at Ray's shape, a whole ~1 MiB read task, about 750 pages). On a
    Dataset source each call gets one input block. tests/test_extract.py
    checks these shapes.
    """
    est_rows = None
    if isinstance(source, str):
        import pyarrow.dataset as pads

        from sciscraper_ray.pipelines.plan import read_at_full_width

        listing = pads.dataset(source)
        ds = read_at_full_width(source, listing.files)
        keys = read_at_full_width(source, listing.files, columns=["url", "warc_ts"])
        # free metadata row bound lets the dedup auto-plan skip its
        # materialize barrier (distinct urls <= rows)
        est_rows = listing.count_rows()
    else:
        # Dataset source + dedup: the two-pass dedup consumes the source
        # twice (key pass + filter pass). For a parquet path the key pass
        # is a cheap pruned read; for an arbitrary upstream graph it would
        # RE-EXECUTE the whole subgraph, so pin the blocks once. At true
        # corpus scale pass a path — materializing 100 TB trades object
        # store/spill for the recompute, which is the wrong trade there.
        ds = source.materialize() if dedup else source
        keys = None
    if dedup:
        ds = keep_latest_by_url(
            ds, keys_source=keys, key_merge=dedup_key_merge, est_rows=est_rows
        )

    extracted = ds.map_batches(
        PayloadExtractor(),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    # Pass lineage columns (fragment_id from run_resumable) through untouched;
    # a per-batch projection avoids ds.schema()'s partial execution.
    def project(batch: pa.Table) -> pa.Table:
        keep = [
            c for c in EXTRACT_COLUMNS + ["fragment_id"]
            if c in batch.column_names
        ]
        return batch.select(keep)

    out = extracted.map_batches(project, batch_format="pyarrow")
    if analyze:
        out = out.map_batches(
            DocAnalyzer(
                text_column="extracted_text",
                with_identifiers=True,  # EP1: doi_from_pdf text chain
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    return out
