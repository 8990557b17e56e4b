"""HTML/PDF extraction tests: boilerplate stripping, layout parsing,
routing, dedup, byte-identical round trips, error degradation."""

from __future__ import annotations

import json
import textwrap

import pyarrow as pa
import pytest

from sciscraper_ray.sources.page_synth import render_html, synth_pages_batch
from sciscraper_ray.sources.pdf_write import build_pdf
from sciscraper_ray.stages.html_extract import extract_main_content
from sciscraper_ray.stages.pdf_parse import extract_pdf_text

from isolated_run import run_script


def test_html_extractor_strips_boilerplate():
    text = " ".join(f"word{i}" for i in range(60))
    html = render_html(7, text, "en").decode()
    got, spans = extract_main_content(html)
    assert got == text
    # nav/footer/sidebar content must not leak
    for boiler in ("privacy", "newsletter", "about us", "related one", "Document 7"):
        assert boiler not in got
    # spans tile the extracted text (two 40/20-word paragraphs)
    assert len(spans) == 2
    assert spans[0][0] == 0 and spans[-1][1] == len(got)
    assert got[spans[1][0] : spans[1][1]] == " ".join(f"word{i}" for i in range(40, 60))


def test_html_extractor_entities_and_garbage():
    got, _ = extract_main_content(
        "<body><article><p>a &amp; b &lt;tag&gt; and some more padding text</p></article></body>"
    )
    assert got == "a & b <tag> and some more padding text"
    # garbage input degrades, never raises
    extract_main_content("<<<>>>< not html at all")
    extract_main_content("")


def test_pdf_multipage_multiline():
    pages = ["first page words here", "second page more words"]
    text, n = extract_pdf_text(build_pdf(pages))
    assert n == 2
    assert text == "first page words here second page more words"
    # multi-line pages produce newlines within a page (pdfplumber-style)
    text2, _ = extract_pdf_text(build_pdf(["one two three four"], lines_per_page=2))
    assert text2 == "one two\nthree four"


def test_pdf_escapes():
    tricky = r"paren (open and close) back\slash"
    text, _ = extract_pdf_text(build_pdf([tricky]))
    assert text == tricky


@pytest.mark.usefixtures("ray_session")
def test_extraction_pipeline_end_to_end():
    import ray.data

    from sciscraper_ray.pipelines.extract import extraction_pipeline

    docs = pa.table(
        {
            "doc_id": pa.array(range(12), pa.int64()),
            "text": pa.array(
                [" ".join(f"tok{i}w{j}" for j in range(50)) for i in range(12)]
            ),
            "lang": pa.array(["en"] * 12),
        }
    )
    pages = synth_pages_batch(docs, pdf_mod=3, dup_mod=5)
    ds = ray.data.from_arrow(pages)
    out = extraction_pipeline(ds, dedup=True, analyze=True).to_pandas()
    assert len(out) == 12  # dup fetches removed
    src = {i: t for i, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist())}
    for _, r in out.iterrows():
        assert r["extract_status"] == "ok"
        assert r["extracted_text"] == src[r["doc_id"]], r["doc_id"]
        assert r["total_word_count"] == 50
    # both payload routes exercised
    assert (out["doc_id"] % 3 == 0).any() and (out["doc_id"] % 3 != 0).any()


@pytest.mark.usefixtures("ray_session")
def test_extract_chain_runs_one_task_per_block(tmp_path):
    """No map in the extract chain sets batch_size, so Ray fuses it into
    one task operator that carries each input block through every stage:
    24 input blocks give 24 output blocks, and on a parquet directory the
    read fuses in too (a batch_size anywhere in the chain splits it out)."""
    import pyarrow.parquet as pq

    import ray
    import ray.data

    from sciscraper_ray.pipelines.extract import extraction_pipeline

    n = 960
    docs = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array([f"scan join doc {i} hash sort" for i in range(n)]),
            "lang": pa.array(["en"] * n),
        }
    )
    pages = synth_pages_batch(docs)
    ds = ray.data.from_arrow([pages.slice(i, 40) for i in range(0, n, 40)])
    out = extraction_pipeline(ds, dedup=False).materialize()
    assert out.count() == n
    assert out.num_blocks() == n // 40

    # Ray wants 2 read blocks per CPU for small data; with fewer files it
    # splits each read block (SplitBlocks), and a split read never fuses.
    n_files = 2 * int(ray.cluster_resources()["CPU"])
    step = -(-n // n_files)
    for i in range(n_files):
        pq.write_table(pages.slice(i * step, step), tmp_path / f"part{i}.parquet")
    out = extraction_pipeline(str(tmp_path), dedup=False).materialize()
    assert out.count() == n

    def operator_names(summary):
        names = [op.operator_name for op in summary.operators_stats]
        for parent in summary.parents:
            names += operator_names(parent)
        return names

    names = operator_names(out._get_stats_summary())
    assert len(names) == 1, names
    assert names[0].startswith("ReadParquet->"), names
    assert names[0].endswith("MapBatches(DocAnalyzer)"), names


STREAMED_WIDTH_SCRIPT = textwrap.dedent(
    """
    import json, os, sys

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from sciscraper_ray.sources.page_synth import synth_pages_batch

    root = sys.argv[1]
    # Pages Ray estimates at ~24 MiB in memory: its own rule wants 24 read
    # blocks, more than either directory has files, and splits them.
    n = 2400
    docs = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": [" ".join(f"w{i}x{j}" for j in range(500)) for i in range(n)],
        "lang": ["en"] * n,
    })
    pages = synth_pages_batch(docs)
    dirs = {}
    for n_files in (12, 3):
        d = f"{root}/files{n_files}"
        os.mkdir(d)
        step = -(-pages.num_rows // n_files)
        for i in range(n_files):
            pq.write_table(pages.slice(i * step, step), f"{d}/part{i:02}.parquet")
        dirs[n_files] = d

    ray.init(address="local", num_cpus=2, object_store_memory=512 * 1024 * 1024,
             include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    shape = lambda ctx: [ctx.target_max_block_size, ctx.read_op_min_num_blocks]
    before = shape(DataContext.get_current())

    from sciscraper_ray.pipelines import plan
    from sciscraper_ray.pipelines.extract import extraction_pipeline

    key_passes = []
    driver_frame = plan.driver_frame

    def frame(ds, *args):
        key_passes.append(ds)
        return driver_frame(ds, *args)

    plan.driver_frame = frame
    default_max = plan.FULL_WIDTH_MAX_BYTES

    def operators(ds):
        def walk(summary):
            ops = [(op.operator_name, op.task_rows["count"]) for op in summary.operators_stats]
            for parent in summary.parents:
                ops += walk(parent)
            return ops
        return walk(ds._get_stats_summary())

    res = {}
    for name, d, max_bytes in (("12", dirs[12], default_max), ("3", dirs[3], default_max),
                               ("12 large", dirs[12], 0)):
        plan.FULL_WIDTH_MAX_BYTES = max_bytes
        key_passes.clear()
        out = extraction_pipeline(d).materialize()
        res[name] = {"rows": out.count(), "chain": operators(out),
                     "keys": operators(key_passes[0]),
                     "block": out.context.target_max_block_size}
    res["before"], res["after"] = before, shape(DataContext.get_current())
    ray.shutdown()
    print(json.dumps(res))
    """
)


def test_streamed_reads_run_at_full_width(tmp_path):
    """On a 2-CPU cluster with a 512 MiB object store, both reads of
    ``extraction_pipeline(dir)`` (payload and dedup keys) of a small
    12-file input run 2 x CPUs tasks with small blocks, each fused with
    its chain into one operator, and the process-wide DataContext is left
    as it was. A 3-file input, and the 12-file input once it counts as
    large, keep Ray's shape: split read blocks and the chain after them
    as wide as the cluster, not one task per file."""
    from sciscraper_ray.pipelines.plan import READ_BLOCK_BYTES

    proc = run_script(STREAMED_WIDTH_SCRIPT, str(tmp_path))
    assert proc.returncode == 0, proc.stderr[-2000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["after"] == res["before"]
    for name in ("12", "3", "12 large"):
        assert res[name]["rows"] == 2400
    got = res["12"]
    [(chain, chain_tasks)] = got["chain"]
    assert chain.startswith("ReadParquet->MapBatches(keep_winners)->"), chain
    assert chain.endswith("MapBatches(DocAnalyzer)"), chain
    [(keys, key_tasks)] = got["keys"]
    assert keys == "ReadParquet->MapBatches(key_partial)", keys
    assert (chain_tasks, key_tasks) == (4, 4), got
    assert got["block"] == READ_BLOCK_BYTES
    for name in ("3", "12 large"):
        got = res[name]
        [(chain, chain_tasks), (read, _)] = got["chain"]
        assert read.startswith("ReadParquet->SplitBlocks("), got
        assert chain.endswith("MapBatches(DocAnalyzer)"), got
        assert chain_tasks > 4, got
        [_, (key_read, _)] = got["keys"]
        assert key_read.startswith("ReadParquet->SplitBlocks("), got
        assert got["block"] == res["before"][0], got


@pytest.mark.usefixtures("ray_session")
def test_local_parquet_footers_read_in_process(tmp_path, monkeypatch):
    """Past Ray's parallel-fetch threshold, a local read's footers still come
    from the calling process, one per file and in file order."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    from ray.data.datasource import parquet_meta_provider

    from sciscraper_ray.pipelines.plan import _InProcessFooters, read_parquet

    n_files = parquet_meta_provider.PARALLELIZE_META_FETCH_THRESHOLD + 6
    for i in range(n_files):
        pq.write_table(pa.table({"x": pa.array(range(i + 1), pa.int64())}),
                       tmp_path / f"f{i:03d}.parquet")

    def in_tasks(*args, **kwargs):
        raise AssertionError("footers fetched in Ray tasks")

    monkeypatch.setattr(parquet_meta_provider, "_fetch_metadata_parallel", in_tasks)
    fragments = list(pads.dataset(str(tmp_path)).get_fragments())
    footers = _InProcessFooters().prefetch_file_metadata(fragments)
    assert [m.num_rows for m in footers] == [f.metadata.num_rows for f in fragments]
    ds = read_parquet(str(tmp_path))
    assert ds.count() == n_files * (n_files + 1) // 2
    assert sorted(r["x"] for r in ds.take_all()) == sorted(
        x for i in range(n_files) for x in range(i + 1)
    )


@pytest.mark.usefixtures("ray_session")
def test_driver_frame_runs_its_input_once(tmp_path):
    """driver_frame returns ds.to_pandas()'s frame from ONE execution of
    its input (to_pandas(limit=...) counts first, running it twice), and
    past the limit raises the plan-limit error."""
    import pandas as pd

    import ray.data

    from sciscraper_ray.pipelines.plan import driver_frame

    calls = tmp_path / "calls.txt"

    def mark(batch):
        with open(calls, "a") as f:
            f.write("".join(f"{i}\n" for i in batch["id"]))
        return batch.assign(name=batch["id"].map(lambda i: f"row{i}"))

    ds = ray.data.range(10, override_num_blocks=4).map_batches(
        mark, batch_format="pandas"
    )
    got = driver_frame(ds, 10, "probe")
    # every row went through the map exactly once
    assert sorted(int(i) for i in calls.read_text().split()) == list(range(10))

    def by_id(df):
        return df.sort_values("id").reset_index(drop=True)

    pd.testing.assert_frame_equal(by_id(got), by_id(ds.to_pandas()))
    with pytest.raises(ValueError, match=r"probe: key table exceeds the "
                       r"driver plan limit \(9 rows\)"):
        driver_frame(ds, 9, "probe")


@pytest.mark.usefixtures("ray_session")
def test_extraction_error_rows_degrade():
    import ray.data

    from sciscraper_ray.pipelines.extract import PayloadExtractor

    bad = pa.table(
        {
            "url": pa.array(["u1", "u2"]),
            "html": pa.array([b"%PDF-garbage no streams", None], type=pa.binary()),
        }
    )
    out = (
        ray.data.from_arrow(bad)
        .map_batches(PayloadExtractor(), batch_format="pyarrow")
        .to_pandas()
    )
    assert out["extract_status"].str.startswith(("ok", "error")).all()
    assert out["extracted_text"].iloc[1] is None


def test_bad_operand_stream_degrades_alike_with_and_without_page_tree():
    """A name where a number belongs makes the content-stream interpreter
    raise TypeError. On a page-tree page that page becomes ""; a payload
    with no page tree goes through the stream scan, which must skip the
    stream the same way rather than fail the whole document."""
    from sciscraper_ray.pipelines.extract import PayloadExtractor
    from sciscraper_ray.stages.pdf_parse import extract_pdf_pages

    stream = b"BT /F1 /F2 Tf (x y) Tj ET"
    body = b"<< /Length %d >>\nstream\n%s\nendstream" % (len(stream), stream)
    objs = [
        b"<< /Type /Catalog /Pages 2 0 R >>",
        b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        b"<< /Type /Page /Parent 2 0 R /Contents 4 0 R >>",
        body,
    ]
    tree = bytearray(b"%PDF-1.4\n")
    for num, obj in enumerate(objs, start=1):
        tree += b"%d 0 obj\n" % num + obj + b"\nendobj\n"
    tree += b"trailer\n<< /Root 1 0 R >>\n%%EOF\n"
    no_tree = b"%PDF-1.4\n1 0 obj\n" + body + b"\nendobj\n%%EOF\n"

    assert extract_pdf_pages(bytes(tree)) == [""]
    assert extract_pdf_pages(no_tree) == []
    out = PayloadExtractor()(
        pa.table({"html": pa.array([bytes(tree), no_tree], pa.binary())})
    )
    assert out["extract_status"].to_pylist() == ["ok", "ok"]
    assert out["extracted_text"].to_pylist() == ["", ""]


def test_keep_latest_merge_plans_agree(ray_session):
    """driver-merge and shuffle-merge keep-latest produce identical rows."""
    import pyarrow.parquet as pq

    import ray.data
    from sciscraper_ray.pipelines.extract import keep_latest_by_url
    from sciscraper_ray.sources.page_synth import synth_pages_batch

    docs = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet",
        columns=["doc_id", "text", "lang"],
    ).slice(0, 150)
    pages = synth_pages_batch(docs, pdf_mod=10, dup_mod=7)
    ds = ray.data.from_arrow(pages)
    a = (
        keep_latest_by_url(ds, key_merge="driver")
        .to_pandas()
        .sort_values(["url", "warc_ts"])
        .reset_index(drop=True)
    )
    b = (
        keep_latest_by_url(ds, key_merge="shuffle")
        .to_pandas()
        .sort_values(["url", "warc_ts"])
        .reset_index(drop=True)
    )
    assert len(a) == 150  # dups removed
    assert a["url"].tolist() == b["url"].tolist()
    assert a["warc_ts"].tolist() == b["warc_ts"].tolist()


from hypothesis import given, settings
from hypothesis import strategies as st

# word alphabet deliberately includes unicode, digits and punctuation that
# must survive HTML-escape round-trips and PDF string encoding
_words = st.text(
    alphabet=st.characters(
        whitelist_categories=("Ll", "Lu", "Nd", "Po"),
        blacklist_characters=" \t\n\r",
        max_codepoint=0x2FF,
    ),
    min_size=1,
    max_size=12,
)
_texts = st.lists(_words, min_size=1, max_size=120).map(" ".join)


@settings(max_examples=60, deadline=None)
@given(text=_texts, doc_id=st.integers(0, 10_000))
def test_html_roundtrip_byte_identical(text, doc_id):
    """render -> readability strip reproduces the text byte-identically,
    and spans index exactly into it (north-star per-row invariant)."""
    from sciscraper_ray.sources.page_synth import render_html
    from sciscraper_ray.stages.html_extract import extract_main_content

    html = render_html(doc_id, text, "en").decode("utf-8")
    got, spans = extract_main_content(html)
    assert got == text
    words = text.split(" ")
    blocks = [" ".join(words[i : i + 40]) for i in range(0, len(words), 40)]
    assert [got[s:e] for s, e in spans] == blocks


@settings(max_examples=40, deadline=None)
@given(text=_texts)
def test_pdf_roundtrip_byte_identical(text):
    """build_pdf -> layout parse, pages joined with " "
    (docscraper.py:202-205 semantics) reproduces the text exactly."""
    from sciscraper_ray.sources.pdf_write import build_pdf
    from sciscraper_ray.stages.pdf_parse import extract_pdf_pages

    words = text.split(" ")
    pages = [" ".join(words[i : i + 40]) for i in range(0, len(words), 40)]
    payload = build_pdf(pages)
    got = extract_pdf_pages(payload)
    assert " ".join(got) == text


def test_pdf_odd_length_hex_string_pads():
    """PDF spec 7.3.4.3: odd final hex digit is padded with 0."""
    from sciscraper_ray.stages.pdf_parse import _tokenize

    toks = list(_tokenize(b"<48656C6C6F2> Tj"))
    assert toks[0] == ("str", b"Hello "), toks


def test_keep_latest_drops_same_batch_ts_ties(ray_session):
    import pyarrow as pa

    import ray.data
    from sciscraper_ray.pipelines.extract import keep_latest_by_url

    t = pa.table(
        {
            "url": ["u", "u", "v"],
            "warc_ts": pa.array([100, 100, 5], pa.timestamp("us")),
            "payload": ["a", "b", "c"],
        }
    )
    out = keep_latest_by_url(ray.data.from_arrow(t)).to_pandas()
    assert sorted(out["url"]) == ["u", "v"]  # one survivor per url


def test_full_width_read_before_ray_starts(tmp_path):
    """In a process that has not started Ray a full-width read keeps Ray's
    shape and, like ``ray.data.read_parquet``, starts a local Ray and
    reads every row."""
    import pyarrow.parquet as pq

    for i in range(3):
        pq.write_table(pa.table({"x": list(range(i * 10, i * 10 + 10))}),
                       tmp_path / f"f{i}.parquet")
    script = textwrap.dedent(
        """
        import sys

        import pyarrow.dataset as pads
        import ray

        from sciscraper_ray.pipelines.plan import read_at_full_width

        ds = read_at_full_width(sys.argv[1], pads.dataset(sys.argv[1]).files)
        print(ds.count())
        ray.shutdown()
        """
    )
    proc = run_script(script, str(tmp_path))
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split()[-1] == "30"


def test_exact_tie_in_one_file_keeps_one_row(ray_session, tmp_path):
    """One parquet file holds the same (url, warc_ts, payload) at its first
    and last rows, and is 9 times larger in memory than a full-width read's
    blocks; the directory has 2 files per CPU, so the read is full width.
    The file is one read task and Ray's parquet reader hands it to
    ``keep_winners`` as one batch (its batch size comes from the
    process-wide context), so the first-seen tie-break keeps one row.
    Ties across files, and within a file whose read blocks Ray splits
    (fewer files than 2 per CPU), all survive (ROADMAP Direction 8)."""
    import pyarrow.parquet as pq
    import ray

    from sciscraper_ray.pipelines.extract import extraction_pipeline
    from sciscraper_ray.pipelines.plan import READ_BLOCK_BYTES

    n_files = 2 * int(ray.cluster_resources()["CPU"])
    n, small = 600, 5  # pages in the tie file and in each other file
    total = n + small * (n_files - 1)
    docs = pa.table(
        {
            "doc_id": pa.array(range(total), pa.int64()),
            "text": [" ".join(f"w{i}x{j}" for j in range(200)) for i in range(total)],
            "lang": ["en"] * total,
        }
    )
    pages = synth_pages_batch(docs, pdf_mod=7, dup_mod=0)
    table = pa.concat_tables([pages.slice(0, n), pages.slice(0, 1)])
    assert table.nbytes > 8 * READ_BLOCK_BYTES
    pq.write_table(table, tmp_path / "pages00.parquet")
    for i in range(1, n_files):
        pq.write_table(pages.slice(n + (i - 1) * small, small), tmp_path / f"pages{i:02}.parquet")

    urls = extraction_pipeline(str(tmp_path)).to_pandas()["url"]
    assert len(urls) == total
    assert urls.nunique() == total


def test_keep_latest_int_epoch_ts(ray_session):
    """ADVICE r1: an int64 epoch-us warc_ts column must dedup identically
    to a timestamp[us] one — the two passes used to normalize ints
    differently (ns vs us), so winner keys never matched and every
    duplicated url was silently dropped."""
    import pyarrow as pa

    import ray.data
    from sciscraper_ray.pipelines.extract import keep_latest_by_url

    base = 1_700_000_000_000_000  # epoch-us
    as_int = pa.table(
        {
            "url": ["u", "u", "v", "w"],
            "warc_ts": pa.array([base + 1, base + 9, base, base], pa.int64()),
            "payload": ["old", "new", "x", "y"],
        }
    )
    out = (
        keep_latest_by_url(ray.data.from_arrow(as_int))
        .to_pandas()
        .sort_values("url")
    )
    assert list(out["url"]) == ["u", "v", "w"]
    assert out[out["url"] == "u"]["payload"].iloc[0] == "new"

    as_ts = as_int.set_column(
        1, "warc_ts", pa.compute.cast(as_int["warc_ts"], pa.timestamp("us"))
    )
    out_ts = (
        keep_latest_by_url(ray.data.from_arrow(as_ts))
        .to_pandas()
        .sort_values("url")
    )
    assert list(out_ts["payload"]) == list(out["payload"])


def test_keep_latest_auto_plan_flips(ray_session):
    """key_merge='auto' must pick the shuffle plan above the driver limit
    (the 10^12-row safety: scale must not depend on a caller kwarg)."""
    import pyarrow as pa

    import ray.data
    from sciscraper_ray.pipelines.extract import keep_latest_by_url

    t = pa.table(
        {
            "url": [f"u{i}" for i in range(10)] + ["u0"],
            "warc_ts": pa.array(list(range(10)) + [99], pa.timestamp("us")),
            "payload": [str(i) for i in range(11)],
        }
    )
    ds = ray.data.from_arrow(t)
    # limit below the key count -> auto resolves to shuffle; result identical
    out = keep_latest_by_url(ds, key_merge="auto", driver_merge_limit=3).to_pandas()
    assert len(out) == 10
    assert "0" not in set(out[out["url"] == "u0"]["payload"])


def test_pdf_info_round_trip():
    """M10: /Info dict written by the synthetic writer is recoverable,
    pdfplumber-shaped (slash-less keys, insertion order preserved)."""
    from sciscraper_ray.sources.pdf_write import build_pdf
    from sciscraper_ray.stages.pdf_parse import extract_pdf_info, extract_pdf_pages

    pdf = build_pdf(
        ["hello world"],
        info={"Title": "Doc (1)", "doi": "10.5555/meta.8", "arxiv": "2345.6789"},
    )
    info = extract_pdf_info(pdf)
    assert info == {
        "Title": "Doc (1)", "doi": "10.5555/meta.8", "arxiv": "2345.6789"
    }
    assert list(info) == ["Title", "doi", "arxiv"]  # on-disk order
    assert extract_pdf_pages(pdf) == ["hello world"]  # text unharmed
    assert extract_pdf_info(build_pdf(["x"])) == {}  # no Info -> {}


def test_pdf_string_escapes_per_spec():
    """ADVICE r2: PDF literal-string escapes decode per spec §7.3.4.2 —
    \\n/\\t/\\r are control chars (not the letters n/t/r), octal \\ddd
    decodes, \\<EOL> is a line continuation, unknown escapes fall through
    to the literal byte."""
    from sciscraper_ray.stages.pdf_parse import _decode_pdf_string

    assert _decode_pdf_string(rb"(a\nb\tc\rd)") == "a\nb\tc\rd"
    assert _decode_pdf_string(rb"(\101\102\1038)") == "ABC8"  # 3-digit octal + literal 8
    assert _decode_pdf_string(rb"(\53)") == "+"  # 2-digit octal
    assert _decode_pdf_string(b"(one \\\ntwo)") == "one two"  # continuation
    assert _decode_pdf_string(b"(one \\\r\ntwo)") == "one two"  # CRLF continuation
    assert _decode_pdf_string(rb"(par\(en\))") == "par(en)"
    assert _decode_pdf_string(rb"(back\\slash)") == "back\\slash"
    assert _decode_pdf_string(rb"(unk\zq)") == "unkzq"  # unknown escape


def test_metadata_probe_order_and_raw_value():
    """M8 (doifrompdf.py:55-82): fixed probe order doi >
    pdf2doi_identifier > arxiv (replacing the reference's set iteration);
    the RAW value is returned with the KEY as identifier type."""
    from sciscraper_ray.kernels.identifiers import find_identifier_in_metadata

    meta = {
        "arxiv": "2345.1111",
        "pdf2doi_identifier": "10.4444/p.1",
        "doi": "RAW-VALUE-NOT-NORMALIZED",
    }
    assert find_identifier_in_metadata(meta) == ("RAW-VALUE-NOT-NORMALIZED", "doi")
    del meta["doi"]
    assert find_identifier_in_metadata(meta) == ("10.4444/p.1", "pdf2doi_identifier")
    del meta["pdf2doi_identifier"]
    assert find_identifier_in_metadata(meta) == ("2345.1111", "arxiv")
    assert find_identifier_in_metadata({"Title": "x"}) is None
    assert find_identifier_in_metadata({"doi": ""}) is None  # falsy skipped


def test_pdf_info_scan_last_value_wins():
    """M9 (doifrompdf.py:85-111): the loop overwrites result per value —
    only the LAST value's outcome survives; '/wps-journaldoi' is skipped."""
    from sciscraper_ray.kernels.identifiers import find_identifier_in_pdf_info

    hit_then_miss = {"Title": "see doi:10.3333/x.1 inside", "Producer": "none"}
    assert find_identifier_in_pdf_info(hit_then_miss) is None
    miss_then_hit = {"Producer": "none", "Title": "see doi:10.3333/x.1 inside"}
    assert find_identifier_in_pdf_info(miss_then_hit) == ("10.3333/x.1", "doi")
    excluded = {"/wps-journaldoi": "doi:10.9999/skip.me"}
    assert find_identifier_in_pdf_info(excluded) is None
