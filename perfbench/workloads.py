"""The three benchmark workloads, one per user-facing CLI mode.

Each workload generates its input table from the documents table, runs one
timed pass of its mode against the parquet fragments, and checks every
output row against ground truth computed in-process.

- ``crawl_extract`` (CLI ``extract``): ``extraction_pipeline(path)``
  consumed by streaming ``iter_batches``, nothing written.
- ``pdf_resume`` (CLI ``resume``): ``run_resumable`` over all-PDF pages
  with ``extraction_pipeline(ds, dedup=False)``, 8 fragments per wave.
- ``text_export`` (CLI ``wordscore``): ``wordscore_pipeline(path)``
  materialized, then ``export_results``.

The program's entry points are called through their modules
(``extract.extraction_pipeline`` …) so that a traced pass can wrap them.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.csv as pcsv
import pyarrow.parquet as pq

from sciscraper_ray.pipelines import extract, flagship, sink
from sciscraper_ray.sources.page_synth import synth_pages_batch
from sciscraper_ray.stages.doc_analyzer import DocAnalyzer
from sciscraper_ray.state import checkpoint

from inputs import ID_STRIDE, N_FRAGMENTS, repeat_rows

N_DOCS = 5000  # rows of the documents table (the sf0.1 test table's size)
DATE_STAMP = "240101"
WAVE_SIZE = 8

ANALYZER_COLUMNS = [
    "matching_terms", "bycatch_terms", "total_word_count", "wordscore",
    "target_terms_top_3", "bycatch_terms_top_3", "paper_parentheticals",
]
# columns of an extraction_pipeline row checked against ground truth
EXTRACT_COMPARE = [
    "doc_id", "extracted_text", "extract_status", "doi", "identifier_type",
    *ANALYZER_COLUMNS,
]


class ReusedOutputDir(RuntimeError):
    """A resume pass was pointed at a directory that already exists: it
    would measure a no-op."""


@dataclass
class PassResult:
    wall_s: float
    first_batch_s: float  # entry call -> first output the caller can use
    call_s: float  # the eager pipeline-constructor call(s)
    datasets: list  # executed Ray datasets, for their stats
    output: object = None  # the pass output, or the directory holding it
    out_dir: str = ""
    detail: dict = field(default_factory=dict)


@dataclass
class CheckResult:
    wrong_rows: int
    docs: int  # distinct documents out
    problems: list[str]
    facts: dict = field(default_factory=dict)  # sizes read back for layer metrics


def count_wrong(out: pa.Table, truth: pa.Table, key: str, columns: list[str]) -> int:
    """Output rows that differ from ``truth`` in any of ``columns``, plus
    truth keys missing from ``out`` and unknown or repeated keys in it."""
    expected = truth.select([key, *columns]).sort_by(key)
    try:  # fast path: the whole output, ordered by key, equals the truth
        if out.select([key, *columns]).sort_by(key).cast(expected.schema).equals(expected):
            return 0
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
        pass  # types differ: the row-by-row count below reports it
    want ={k: i for i, k in enumerate(truth[key].to_pylist())}
    seen: set = set()
    wrong = 0
    out_rows, truth_rows = [], []
    for j, k in enumerate(out[key].to_pylist()):
        i = want.get(k)
        if i is None or k in seen:
            wrong += 1
            continue
        seen.add(k)
        out_rows.append(j)
        truth_rows.append(i)
    wrong += len(want) - len(seen)
    bad = np.zeros(len(out_rows), bool)
    for c in columns:
        got = out[c].take(out_rows).to_pylist()
        exp = truth[c].take(truth_rows).to_pylist()
        bad |= np.fromiter((g != e for g, e in zip(got, exp)), bool, len(got))
    return wrong + int(bad.sum())


def _analyzed(table: pa.Table, text_column: str, **kw) -> pa.Table:
    return DocAnalyzer(text_column=text_column, **kw)(table)


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs
    )


class CrawlExtract:
    name = "crawl_extract"
    mode = "extract"
    sort_keys = ["url", "warc_ts"]
    dedup = True
    compare = EXTRACT_COMPARE

    def generate(self, docs: pa.Table) -> pa.Table:
        # Two pages per document (distinct urls), 90% HTML / 10% PDF, every
        # 17th doc refetched, refetches of ids divisible by 3 carry revised
        # text; 30% of rows on the mega-host.
        return synth_pages_batch(docs, change_mod=3, repeat=2)

    def truth(self, docs: pa.Table, pages: pa.Table) -> pa.Table:
        text = docs["text"].to_pylist()
        urls = pc.unique(pages["url"])
        ids = pc.take(pages["doc_id"], pc.index_in(urls, pages["url"])).to_numpy()
        base = ids % ID_STRIDE
        revised = (base % 17 == 0) & (base % 3 == 0)
        expected = [text[b] + (" rev" if r else "") for b, r in zip(base, revised)]
        t = pa.table(
            {
                "url": urls,
                "doc_id": pa.array(ids, pa.int64()),
                "extracted_text": pa.array(expected, pa.large_string()),
                "extract_status": pa.array(["ok"] * len(urls), pa.string()),
            }
        )
        return _analyzed(t, "extracted_text", with_identifiers=True)

    def run(self, input_dir: str, out_dir: str) -> PassResult:
        t0 = perf_counter()
        ds = extract.extraction_pipeline(input_dir)
        t_call = perf_counter()
        parts, first = [], None
        for batch in ds.iter_batches(batch_format="pyarrow", batch_size=None):
            if first is None:
                first = perf_counter()
            parts.append(batch.select(["url", *self.compare]))
        t1 = perf_counter()
        return PassResult(
            wall_s=t1 - t0,
            first_batch_s=(first or t1) - t0,
            call_s=t_call - t0,
            datasets=[ds],
            output=pa.concat_tables(parts),
        )

    def check(self, result: PassResult, truth: pa.Table) -> CheckResult:
        out = result.output
        wrong = count_wrong(out, truth, "url", self.compare)
        return CheckResult(wrong, pc.count_distinct(out["url"]).as_py(), [])


class PdfResume:
    name = "pdf_resume"
    mode = "resume"
    sort_keys = ["url"]
    dedup = False
    compare = EXTRACT_COMPARE

    def generate(self, docs: pa.Table) -> pa.Table:
        # all PDF, no refetches: dedup and HTML strip stay idle
        return synth_pages_batch(docs.slice(0, docs.num_rows // 4), pdf_mod=1, dup_mod=0)

    def truth(self, docs: pa.Table, pages: pa.Table) -> pa.Table:
        text = docs["text"].to_pylist()
        ids = pages["doc_id"].to_numpy()
        t = pa.table(
            {
                "url": pages["url"],
                "doc_id": pages["doc_id"],
                "extracted_text": pa.array([text[i] for i in ids], pa.large_string()),
                "extract_status": pa.array(["ok"] * len(ids), pa.string()),
            }
        )
        return _analyzed(t, "extracted_text", with_identifiers=True)

    def run(self, input_dir: str, out_dir: str) -> PassResult:
        if os.path.exists(out_dir):
            raise ReusedOutputDir(out_dir)
        wave_starts, outs = [], []

        def pipeline(ds):
            wave_starts.append(perf_counter())
            out = extract.extraction_pipeline(ds, dedup=False)
            wave_starts.append(perf_counter())
            outs.append(out)
            return out

        t0 = perf_counter()
        summary = checkpoint.run_resumable(input_dir, out_dir, pipeline, wave_size=WAVE_SIZE)
        t1 = perf_counter()
        starts = wave_starts[0::2]
        return PassResult(
            wall_s=t1 - t0,
            # the second wave starts right after the first one commits
            first_batch_s=(starts[1] if len(starts) > 1 else t1) - t0,
            call_s=sum(b - a for a, b in zip(wave_starts[0::2], wave_starts[1::2])),
            datasets=[o._write_ds for o in outs if getattr(o, "_write_ds", None) is not None],
            output=out_dir,
            out_dir=out_dir,
            detail={"summary": summary, "input_dir": input_dir},
        )

    def check(self, result: PassResult, truth: pa.Table) -> CheckResult:
        problems = []
        summary = result.detail["summary"]
        if summary["processed"] != N_FRAGMENTS or summary["skipped"] != 0:
            problems.append(f"resume pass did not process {N_FRAGMENTS} fragments: {summary}")
        store = checkpoint.CheckpointStore(result.out_dir)
        manifest = store.manifest()
        rows = sum(manifest["num_rows"].to_pylist())
        if manifest.num_rows != N_FRAGMENTS or rows != truth.num_rows:
            problems.append(
                f"manifest holds {manifest.num_rows} fragments and {rows} rows, "
                f"expected {N_FRAGMENTS} and {truth.num_rows}"
            )
        out = pq.read_table(store.data_dir, columns=["url", *self.compare])
        wrong = count_wrong(out, truth, "url", self.compare)
        again = checkpoint.run_resumable(
            result.detail["input_dir"], result.out_dir,
            lambda ds: extract.extraction_pipeline(ds, dedup=False), wave_size=WAVE_SIZE,
        )
        if again["skipped"] != N_FRAGMENTS or again["processed"] != 0:
            problems.append(f"second run on a finished dir did not skip every fragment: {again}")
        facts = {
            "bytes_out": _dir_bytes(store.data_dir),
            "wave_walls": store.metrics()["wall_s"].to_pylist(),
        }
        return CheckResult(wrong, pc.count_distinct(out["url"]).as_py(), problems, facts)


class TextExport:
    name = "text_export"
    mode = "wordscore"
    sort_keys = ["doc_id"]
    dedup = False

    def generate(self, docs: pa.Table) -> pa.Table:
        return repeat_rows(docs, 4)

    def truth(self, docs: pa.Table, rows: pa.Table) -> pa.Table:
        scored = sink.cast_declared_schema(_analyzed(rows.select(["doc_id", "text"]), "text"))
        keep = []
        for name in scored.column_names:  # export_results drops all-empty columns
            col = scored[name]
            valid = pc.is_valid(col)
            if pa.types.is_string(col.type):
                valid = pc.and_(valid, pc.not_equal(pc.coalesce(col, ""), ""))
            if pc.any(valid).as_py():
                keep.append(name)
        return scored.select(keep)

    def run(self, input_dir: str, out_dir: str) -> PassResult:
        t0 = perf_counter()
        ds = flagship.wordscore_pipeline(input_dir)
        t_call = perf_counter()
        scored = ds.materialize()
        t_mat = perf_counter()
        run_dir = sink.export_results(scored, out_dir, date_stamp=DATE_STAMP)
        t1 = perf_counter()
        return PassResult(
            wall_s=t1 - t0,
            first_batch_s=t_mat - t0,
            call_s=t_call - t0,
            datasets=[scored],
            output=run_dir,
            out_dir=out_dir,
        )

    def check(self, result: PassResult, truth: pa.Table) -> CheckResult:
        problems = []
        out = pq.read_table(os.path.join(result.output, "parquet"))
        if sorted(out.column_names) != sorted(truth.column_names):
            problems.append(f"exported columns {out.column_names} != {truth.column_names}")
        columns = [c for c in truth.column_names if c in out.column_names and c != "doc_id"]
        wrong = count_wrong(out, truth, "doc_id", columns)
        csv_dir = os.path.join(result.output, "csv")
        csv_rows = sum(
            pcsv.read_csv(os.path.join(csv_dir, f)).num_rows for f in sorted(os.listdir(csv_dir))
        )
        if csv_rows != truth.num_rows:
            problems.append(f"csv export holds {csv_rows} rows, expected {truth.num_rows}")
        facts = {"bytes_out": _dir_bytes(result.output)}
        return CheckResult(wrong, pc.count_distinct(out["doc_id"]).as_py(), problems, facts)


WORKLOADS = {w.name: w for w in (CrawlExtract(), PdfResume(), TextExport())}


def cleanup(result: PassResult) -> None:
    if result.out_dir:
        shutil.rmtree(result.out_dir, ignore_errors=True)
