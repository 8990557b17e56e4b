"""Spans, Ray Data operator stats and Ray-free kernel timings for the
traced pass.

Spans are recorded from the benchmark's own process only: the tracer wraps
the public functions each layer exposes to its caller (pipeline
constructors, the checkpoint store, the sink, and the Ray Dataset methods
that execute a plan). Work inside Ray workers is attributed from Ray Data's
structured stats (``Dataset._get_stats_summary()``).
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter

import pyarrow as pa


class Tracer:
    """In-memory spans: name, start, end, parent, run id (+ attributes)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.datasets: list = []  # Ray datasets executed while tracing

    @contextmanager
    def span(self, name: str, **attrs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": perf_counter(), "end": None,
                           "parent": parent, "run_id": self.run_id, **attrs})
        self._stack.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self._stack.pop()
            self.spans[idx]["end"] = perf_counter()

    def wrap(self, owner, attr: str, name: str, record=None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper; ``record(self_obj,
        result)`` may note the Ray dataset a call executed."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if record is not None:
                record(args, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total duration and self time (duration
        minus the time its child spans cover)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            d = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            d["calls"] += 1
            d["total_s"] += s["end"] - s["start"]
            d["self_s"] += s["end"] - s["start"] - child[i]
        return out

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def write(self, path: str, header: dict) -> None:
        with open(path, "w") as f:
            f.write(json.dumps({"header": header}) + "\n")
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, **s}) + "\n")


def install_program_spans(tracer: Tracer) -> None:
    """Wrap the layer entry points the workloads reach from this process."""
    import ray.data

    from sciscraper_ray.pipelines import extract, flagship, sink
    from sciscraper_ray.state import checkpoint

    tracer.wrap(extract, "extraction_pipeline", "extraction_pipeline")
    tracer.wrap(extract, "keep_latest_by_url", "dedup.keep_latest_by_url")
    tracer.wrap(flagship, "wordscore_pipeline", "wordscore_pipeline")
    tracer.wrap(sink, "export_results", "sink.export_results")
    tracer.wrap(sink, "nonempty_columns", "sink.nonempty_columns")
    tracer.wrap(checkpoint, "run_resumable", "checkpoint.run_resumable")
    tracer.wrap(checkpoint, "content_hash_of_dir", "checkpoint.content_hash")
    tracer.wrap(checkpoint.CheckpointStore, "mark_done", "checkpoint.mark_done")
    tracer.wrap(checkpoint.CheckpointStore, "write_metrics", "checkpoint.write_metrics")

    def executed(args, result):
        tracer.datasets.append(args[0])

    def materialized(args, result):
        tracer.datasets.append(result)

    def written(args, result):
        ds = getattr(args[0], "_write_ds", None)
        if ds is not None:
            tracer.datasets.append(ds)

    D = ray.data.Dataset
    tracer.wrap(D, "iter_batches", "ray.iter_batches", record=executed)
    tracer.wrap(D, "materialize", "ray.materialize", record=materialized)
    tracer.wrap(D, "write_parquet", "ray.write_parquet", record=written)
    tracer.wrap(D, "write_csv", "ray.write_csv", record=written)


# ---- Ray Data stats -------------------------------------------------------

LAYER_OF_OPERATOR = (  # first substring match wins; fused names keep all parts
    ("key_partial", "dedup"),
    ("PayloadExtractor", "extract"),
    ("DocAnalyzer", "analyze"),
    ("ReadParquet", "read"),
    ("Write", "write"),
)


def _walk(summary, ops: dict) -> None:
    for op in summary.operators_stats:
        if op.is_sub_operator or op.wall_time is None:
            continue
        ops[(op.operator_name, op.earliest_start_time, op.latest_end_time)] = op
    for parent in summary.parents:
        _walk(parent, ops)


def operator_stats(datasets: list) -> tuple[list, list]:
    """Distinct executed operators over the datasets' stats trees (a parent
    shared by two trees counts once), and each dataset's own summary."""
    ops: dict = {}
    tops = [ds._get_stats_summary() for ds in {id(d): d for d in datasets}.values()]
    for summary in tops:
        _walk(summary, ops)
    return list(ops.values()), tops


def peak_heap_mb(datasets: list) -> float:
    """Largest per-task peak USS (MiB) of any operator."""
    ops, _ = operator_stats(datasets)
    return max((op.memory["max"] for op in ops if op.memory), default=0.0)


def layer_of(op_name: str) -> str:
    for needle, layer in LAYER_OF_OPERATOR:
        if needle in op_name:
            return layer
    return "other"


def _union(intervals: list[tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def ray_layers(datasets: list, window: tuple[float, float]) -> dict:
    """Operator wall/cpu/rows/bytes per layer, time covered by operator
    intervals within the pass window, residual, scheduling and iterator
    blocking. ``window`` is the pass's (start, end) in ``perf_counter()``,
    the clock Ray Data stamps block execution with (CLOCK_MONOTONIC, shared
    by every process on the host)."""
    ops, tops = operator_stats(datasets)
    layers: dict[str, dict] = {}
    for op in ops:
        d = layers.setdefault(layer_of(op.operator_name),
                              {"wall_s": 0.0, "cpu_s": 0.0, "rows": 0, "bytes": 0})
        d["wall_s"] += op.wall_time["sum"]
        d["cpu_s"] += op.cpu_time["sum"]
        if not op.operator_name.endswith("Write"):  # a write emits receipts, not rows
            d["rows"] += int((op.output_num_rows or {}).get("sum", 0))
        d["bytes"] += int((op.output_size_bytes or {}).get("sum", 0))
    # executions chained on one input share its control-loop timer
    timers = {}
    for ds in datasets:
        t = ds._plan.stats().streaming_exec_schedule_s
        if t is not None:
            timers[id(t)] = t
    sched_s = sum(t.get() for t in timers.values())
    w0, w1 = window
    spans = [(op.earliest_start_time, op.latest_end_time) for op in ops]
    covered = _union([(max(s, w0), min(e, w1)) for s, e in spans if e > w0 and s < w1])
    wall = w1 - w0
    residual = wall - covered
    return {
        "layers": layers,
        "operators": [
            {"name": op.operator_name, "layer": layer_of(op.operator_name),
             "wall_s": op.wall_time["sum"], "cpu_s": op.cpu_time["sum"],
             "start_offset_s": op.earliest_start_time - w0,
             "end_offset_s": op.latest_end_time - w0,
             "rows": int((op.output_num_rows or {}).get("sum", 0)),
             "peak_mb": (op.memory or {}).get("max")}
            for op in sorted(ops, key=lambda o: o.earliest_start_time)
        ],
        "covered_s": covered,
        "residual_s": residual,
        # time operators report outside the pass window (clock or
        # attribution error), as a share of the pass
        "reconcile_err": abs(_union(spans) + residual - wall) / wall,
        "sched_s": sched_s,
        "iter_blocked_s": sum(t.iter_stats.block_time.get() for t in tops if t.iter_stats),
        "spilled_bytes": max((t.global_bytes_spilled or 0 for t in tops), default=0),
        "ops_cpu_s": sum(op.cpu_time["sum"] for op in ops),
    }


# ---- Ray-free kernels -----------------------------------------------------

def kernel_spans(tracer: Tracer, pages: pa.Table, docs: pa.Table) -> dict[str, dict]:
    """Time each per-row hot path in-process over ``pages`` (crawl-style
    HTML/PDF payloads) and ``docs`` (text rows). Returns, per kernel,
    calls, input bytes, busy seconds and throughput."""
    from sciscraper_ray.kernels.identifiers import extract_identifiers_array
    from sciscraper_ray.kernels.parentheticals import parentheticals_array
    from sciscraper_ray.kernels.terms import top_terms_exploded
    from sciscraper_ray.kernels.tokenize import tokenize_column
    from sciscraper_ray.kernels.wordscore import wordscore_vec
    from sciscraper_ray.pipelines.extract import PayloadExtractor, _url_hash128
    from sciscraper_ray.pipelines.sink import cast_declared_schema
    from sciscraper_ray.stages.doc_analyzer import DocAnalyzer
    from sciscraper_ray.stages.html_extract import extract_main_content
    from sciscraper_ray.stages.pdf_parse import extract_pdf_info, extract_pdf_pages
    from sciscraper_ray.words import BYCATCH_WORDS, TARGET_WORDS

    import numpy as np

    payloads = pages["html"].to_pylist()
    pdfs = [p for p in payloads if p.startswith(b"%PDF-")]
    htmls = [p for p in payloads if not p.startswith(b"%PDF-")]
    page_batches = [pages.slice(i, 256) for i in range(0, pages.num_rows, 256)]
    doc_batches = [docs.slice(i, 2048) for i in range(0, docs.num_rows, 2048)]
    texts = docs["text"]
    text_list = texts.to_pylist()
    text_bytes = sum(len(t) for t in text_list)
    extractor = PayloadExtractor()
    analyzer = DocAnalyzer(text_column="text", with_identifiers=True)
    analyzed = [analyzer(b) for b in doc_batches]
    tokens = tokenize_column(texts).combine_chunks()
    lengths = np.asarray(tokens.value_lengths().to_numpy(zero_copy_only=False))
    t_counts = top_terms_exploded(tokens, TARGET_WORDS)["term_count"]
    b_counts = top_terms_exploded(tokens, BYCATCH_WORDS)["term_count"]

    def nbytes(items):
        return sum(len(x) for x in items)

    n_pages, n_docs = pages.num_rows, docs.num_rows
    plan = [  # name, rate unit, inputs, input bytes, rows, call per input
        ("html_extract", "MB/s", htmls, nbytes(htmls), len(htmls),
         lambda p: extract_main_content(p.decode("utf-8", errors="replace"))),
        ("pdf_parse", "MB/s", pdfs, nbytes(pdfs), len(pdfs),
         lambda p: (extract_pdf_pages(p), extract_pdf_info(p))),
        ("payload_extractor", "1/s", page_batches, nbytes(payloads), n_pages, extractor),
        ("url_hash", "1/s", page_batches, pages["url"].nbytes, n_pages,
         lambda b: _url_hash128(b, "url")),
        ("doc_analyzer", "1/s", doc_batches, text_bytes, n_docs, analyzer),
        ("tokenize", "1/s", [texts], text_bytes, n_docs, tokenize_column),
        ("terms", "1/s", [tokens], text_bytes, n_docs,
         lambda t: (top_terms_exploded(t, TARGET_WORDS), top_terms_exploded(t, BYCATCH_WORDS))),
        ("wordscore", "1/s", [lengths], lengths.nbytes, n_docs,
         lambda n: wordscore_vec(n, t_counts, b_counts)),
        ("parentheticals", "1/s", [text_list], text_bytes, n_docs, parentheticals_array),
        ("identifiers", "1/s", [text_list], text_bytes, n_docs, extract_identifiers_array),
        ("sink_cast", "1/s", analyzed, sum(a.nbytes for a in analyzed), n_docs,
         cast_declared_schema),
    ]
    out = {}
    with tracer.span("kernels"):
        for name, unit, items, n_bytes, rows, fn in plan:
            with tracer.span(f"kernel.{name}") as s:
                for item in items:
                    fn(item)
            busy = s["end"] - s["start"]
            rate = n_bytes / busy / 1e6 if unit == "MB/s" else rows / busy
            out[name] = {"calls": len(items), "rows": rows, "bytes": n_bytes,
                         "busy_s": busy, "rate": rate, "rate_unit": unit}
    return out
