#!/usr/bin/env python3
"""Extraction benchmark: one workload per user-facing CLI mode.

    python3 perfbench/run.py --workload crawl_extract --seed 1 --seconds 12 --trace 0

Runs from any directory; the repository root is this file's parent's
parent, and Ray workers import ``sciscraper_ray`` from it. One process
measures one workload with one ``ray.init`` at ``RAY_CPUS`` logical CPUs:

1. set-up: generate the input (three times, median), ``ray.init``, one
   warm-up pass;
2. untraced passes until ``--seconds`` have elapsed (at least
   ``MIN_PASSES``), every output row checked against ground truth; timings
   are reported as the interquartile mean over passes;
3. with ``--trace 1``: one traced pass (spans + Ray Data operator stats)
   and Ray-free kernel timings.

Every metric is printed by name with its unit, after the host block; the
last stdout line is the JSON result. Exit status is non-zero on any wrong
row, failed or timed-out pass, or input-digest mismatch.

``--print-digests`` prints the input digests to pin in ``digests.json``.
See README.md in this directory for the metrics and the known defects.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(BENCH_DIR, "_work")
RAY_CPUS = 2  # at 1 CPU the flagship hangs (README.md, known defects)
MIN_PASSES = 3
PASS_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0  # no pass starts after this; a run must end within 180 s
KERNEL_SAMPLE_DOCS = 1000
SETUP_REPEATS = 3

END_TO_END = {
    "docs_per_s": "1/s",
    "first_batch_s": "s",
    "setup_s": "s",
    "peak_heap_mb": "MiB",
}
KERNELS = {
    "html_extract": "MB/s", "pdf_parse": "MB/s", "payload_extractor": "1/s",
    "url_hash": "1/s", "doc_analyzer": "1/s", "tokenize": "1/s", "terms": "1/s",
    "wordscore": "1/s", "parentheticals": "1/s", "identifiers": "1/s",
    "sink_cast": "1/s",
}
PER_LAYER = {
    "pass.wall_s": "s",
    "trace.overhead_s": "s",
    "pipeline.call_s": "s",
    "dedup.rows_in": "count",
    "dedup.rows_dropped": "count",
    "read.wall_s": "s",
    "read.bytes": "bytes",
    "extract.rows": "count",
    "analyze.wall_s": "s",
    "analyze.cpu_s": "s",
    "analyze.rows": "count",
    "ops.cpu_s": "s",
    "ray.covered_s": "s",
    "ray.residual_s": "s",
    "ray.sched_s": "s",
    "ray.spilled_bytes": "bytes",
    "trace.reconcile_err": "ratio",
    "checkpoint.waves": "count",
    "checkpoint.bytes_per_doc": "bytes/doc",
    "sink.bytes_per_doc": "bytes/doc",
    **{
        f"kernel.{k}.{m}": u
        for k, rate_unit in KERNELS.items()
        for m, u in (("busy_s", "s"),
                     ("mb_per_s" if rate_unit == "MB/s" else "docs_per_s", rate_unit))
    },
}
# Printed with the per-layer block but not in the JSON result: each is a
# layer that only some workloads have, and would read a constant 0 elsewhere.
LAYER_EXTRAS = {
    "dedup.key_pass_s": "s",
    "extract.wall_s": "s",
    "extract.cpu_s": "s",
    "write.wall_s": "s",
    "sink.export_s": "s",
    "checkpoint.wave_s": "s",
    "checkpoint.commit_s": "s",
    "iter.blocked_s": "s",
}


def iqm(values) -> float:
    """Interquartile mean: the mean of the middle half. Like a median it
    ignores the occasional 2-3x slow pass; unlike one it does not jump
    between the ~0.3 s steps that Ray execution start-up takes."""
    v = sorted(values)
    k = max(1, len(v) // 4) if len(v) >= 3 else 0  # 3 or 4 passes: the median
    return statistics.fmean(v[k:len(v) - k])


class PassTimeout(RuntimeError):
    pass


class RunAborted(RuntimeError):
    """No result can be reported; ``hung`` says a pass thread is still
    running (and would hang ``ray.shutdown()`` too)."""

    def __init__(self, message: str, hung: bool):
        super().__init__(message)
        self.hung = hung


def call_with_timeout(fn, timeout: float):
    """Run ``fn`` in a daemon thread; a hang raises PassTimeout instead of
    stalling the benchmark."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # handed to the caller below
            box["error"] = exc

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    if th.is_alive():
        raise PassTimeout(f"pass still running after {timeout:.0f} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


@dataclass
class PassRecord:
    wall_s: float
    first_batch_s: float
    call_s: float
    docs: int
    peak_heap_mb: float
    facts: dict


@dataclass
class Runner:
    """Runs and checks passes of one workload; counts attempts and failures."""

    workload: object
    input_dir: str
    truth: object
    deadline: float
    attempted: int = 0
    failed: int = 0
    wrong_rows: int = 0
    hung: bool = False
    problems: list = field(default_factory=list)

    def one_pass(self, label: str, tracer=None):
        from tracing import install_program_spans, peak_heap_mb, ray_layers
        from workloads import cleanup

        wl = self.workload
        out_dir = os.path.join(os.path.dirname(self.input_dir), f"out-{label}")
        timeout = min(PASS_TIMEOUT_S, max(1.0, self.deadline - time.monotonic() + 15.0))
        self.attempted += 1
        layers = None
        if tracer is not None:
            install_program_spans(tracer)
        try:
            w0 = perf_counter()
            if tracer is not None:
                with tracer.span("pass", workload=wl.name):
                    res = call_with_timeout(lambda: wl.run(self.input_dir, out_dir), timeout)
            else:
                res = call_with_timeout(lambda: wl.run(self.input_dir, out_dir), timeout)
            window = (w0, perf_counter())
        except PassTimeout as exc:
            self.failed += 1
            self.hung = True
            self.problems.append(f"{label}: {exc}")
            return None
        except Exception:  # noqa: BLE001 — a failed pass is counted, not fatal
            self.failed += 1
            self.problems.append(f"{label}: {traceback.format_exc(limit=4)}")
            return None
        finally:
            if tracer is not None:
                tracer.restore()
        try:
            chk = wl.check(res, self.truth)
            self.wrong_rows += chk.wrong_rows
            self.problems += [f"{label}: {p}" for p in chk.problems]
            if chk.wrong_rows:
                self.problems.append(f"{label}: {chk.wrong_rows} wrong rows")
            if tracer is not None:
                layers = ray_layers(tracer.datasets, window)
            heap = peak_heap_mb(res.datasets)
        finally:
            cleanup(res)
        facts = {**chk.facts, "layers": layers}
        return PassRecord(res.wall_s, res.first_batch_s, res.call_s, chk.docs, heap, facts)


def ray_stop() -> None:
    exe = shutil.which("ray")
    cmd = [exe] if exe else [sys.executable, "-m", "ray.scripts.scripts"]
    subprocess.run(cmd + ["stop", "--force"], stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=60, check=False)


def ray_temp_dir() -> str | None:
    """A Ray session dir inside the checkout when its socket paths fit the
    107-byte AF_UNIX limit (the session name adds ~64 bytes), else None
    (Ray's default under /tmp)."""
    path = os.path.join(ROOT, ".ray")
    return path if len(path) <= 40 else None


def init_ray() -> None:
    import ray
    from ray.data import DataContext

    temp = ray_temp_dir()
    ray.init(
        num_cpus=RAY_CPUS,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 * 1024 * 1024,
        **({"_temp_dir": temp} if temp else {}),
    )
    DataContext.get_current().enable_progress_bars = False


def host_facts() -> dict:
    import numpy
    import pandas
    import pyarrow
    import ray

    def sh(*cmd):
        try:
            r = subprocess.run(cmd, capture_output=True, text=True, timeout=10, cwd=ROOT)
        except OSError:
            return None
        return r.stdout.strip() if r.returncode == 0 else None

    return {
        "nproc": sh("nproc"),
        "nproc_all": sh("nproc", "--all"),
        "os_cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": sh("git", "rev-parse", "HEAD"),
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "pandas": pandas.__version__,
        "numpy": numpy.__version__,
        "ray_cpus": RAY_CPUS,
        "ray_temp_dir": ray_temp_dir() or "ray default",
    }


def cpu_canary() -> float:
    """Median time of a fixed pure-Python loop: the host's speed at this
    moment, to tell a slow host from a slow program."""
    times = []
    for _ in range(5):
        t = perf_counter()
        sum(i * i for i in range(500_000))
        times.append(perf_counter() - t)
    return statistics.median(times)


def generate_input(wl, n_docs: int, seed: int, input_dir: str):
    import inputs

    shutil.rmtree(input_dir, ignore_errors=True)
    docs = inputs.documents(n_docs)
    table = wl.generate(docs)
    inputs.write_fragments(table, input_dir, seed)
    return docs, table, inputs.digest(table, wl.sort_keys)


def per_layer_metrics(wl, table, traced: PassRecord, untraced_wall: float,
                      tracer, kernels: dict) -> tuple[dict, dict]:
    layers = traced.facts["layers"]
    lay = layers["layers"]

    def get(layer, key):
        return lay.get(layer, {}).get(key, 0)

    facts = traced.facts
    docs = max(traced.docs, 1)
    extract_rows = get("extract", "rows")
    metrics = {
        "pass.wall_s": traced.wall_s,
        "trace.overhead_s": traced.wall_s - untraced_wall,
        "pipeline.call_s": traced.call_s,
        "dedup.rows_in": table.num_rows if wl.dedup else 0,
        "dedup.rows_dropped": table.num_rows - extract_rows if wl.dedup else 0,
        "read.wall_s": get("read", "wall_s"),
        "read.bytes": get("read", "bytes"),
        "extract.rows": extract_rows,
        "analyze.wall_s": get("analyze", "wall_s"),
        "analyze.cpu_s": get("analyze", "cpu_s"),
        "analyze.rows": get("analyze", "rows"),
        "ops.cpu_s": layers["ops_cpu_s"],
        "ray.covered_s": layers["covered_s"],
        "ray.residual_s": layers["residual_s"],
        "ray.sched_s": layers["sched_s"],
        "ray.spilled_bytes": layers["spilled_bytes"],
        "trace.reconcile_err": layers["reconcile_err"],
        "checkpoint.waves": len(facts.get("wave_walls", [])),
        "checkpoint.bytes_per_doc": facts["bytes_out"] / docs if wl.mode == "resume" else 0,
        "sink.bytes_per_doc": facts["bytes_out"] / docs if wl.mode == "wordscore" else 0,
    }
    for name, k in kernels.items():
        rate = "mb_per_s" if k["rate_unit"] == "MB/s" else "docs_per_s"
        metrics[f"kernel.{name}.busy_s"] = k["busy_s"]
        metrics[f"kernel.{name}.{rate}"] = k["rate"]
    waves = facts.get("wave_walls", [])
    extras = {
        "dedup.key_pass_s": tracer.total("dedup.keep_latest_by_url"),
        "extract.wall_s": get("extract", "wall_s"),
        "extract.cpu_s": get("extract", "cpu_s"),
        "write.wall_s": get("write", "wall_s"),
        "sink.export_s": tracer.total("sink.export_results"),
        "checkpoint.wave_s": statistics.median(waves) if waves else 0.0,
        "checkpoint.commit_s": traced.wall_s - sum(waves) if waves else 0.0,
        "iter.blocked_s": layers["iter_blocked_s"],
    }
    return metrics, extras


def run_workload(wl, n_docs: int, seed: int, seconds: float, trace: bool,
                 work: str, out) -> dict:
    """Set up, measure and check one workload; returns the JSON result."""
    import inputs
    from tracing import Tracer, kernel_spans
    from workloads import CrawlExtract

    t_start = time.monotonic()
    input_dir = os.path.join(work, "input")
    gen_s = []
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        docs, table, got = generate_input(wl, n_docs, seed, input_dir)
        gen_s.append(perf_counter() - t)
    inputs.check_digest(f"{wl.name}:{n_docs}", got)
    t = perf_counter()
    init_ray()
    init_s = perf_counter() - t
    truth = wl.truth(docs, table)

    runner = Runner(wl, input_dir, truth, deadline=t_start + RUN_DEADLINE_S)
    warm = runner.one_pass("warmup")
    passes: list[PassRecord] = []
    t_meas = time.monotonic()
    while not runner.hung and time.monotonic() < runner.deadline:
        if time.monotonic() - t_meas >= seconds and len(passes) >= MIN_PASSES:
            break
        rec = runner.one_pass(f"p{len(passes)}")
        if rec is not None:
            passes.append(rec)

    print(f"input digest {got} ({table.num_rows} rows, {inputs.N_FRAGMENTS} fragments)", file=out)
    print(f"passes: {len(passes)} measured + 1 warm-up; attempted {runner.attempted}, "
          f"failed {runner.failed}", file=out)
    if warm is None or not passes:
        raise RunAborted("no pass completed:\n" + "\n".join(runner.problems), runner.hung)
    med = statistics.median
    metrics = {
        "docs_per_s": iqm(p.docs / p.wall_s for p in passes),
        "first_batch_s": iqm(p.first_batch_s for p in passes),
        "setup_s": med(gen_s) + init_s + warm.wall_s,
        "peak_heap_mb": med(p.peak_heap_mb for p in passes),
    }
    print(f"setup: input {med(gen_s):.3f} s (median of {SETUP_REPEATS}), ray.init "
          f"{init_s:.3f} s, warm-up pass {warm.wall_s:.3f} s", file=out)
    units = dict(END_TO_END)
    for name, unit in END_TO_END.items():
        print(f"{name:<34} {metrics[name]:.6g} {unit}", file=out)
    print(f"{'pass.wall_s (untraced IQM)':<34} {iqm(p.wall_s for p in passes):.6g} s", file=out)
    print("pass walls: " + " ".join(f"{p.wall_s:.3f}" for p in passes) + " s", file=out)
    print(f"{'wrong_rows':<34} {runner.wrong_rows} rows", file=out)
    print(f"{'error_ratio':<34} {runner.failed / runner.attempted:.6g} ratio", file=out)

    if trace and not runner.hung:
        tracer = Tracer(run_id=f"{wl.name}-seed{seed}-{os.getpid()}")
        traced = runner.one_pass("traced", tracer=tracer)
        if traced is None:
            raise RunAborted("traced pass failed:\n" + "\n".join(runner.problems), runner.hung)
        sample_docs = docs.slice(0, KERNEL_SAMPLE_DOCS)
        kernels = kernel_spans(tracer, CrawlExtract().generate(sample_docs), sample_docs)
        metrics, extras = per_layer_metrics(
            wl, table, traced, iqm(p.wall_s for p in passes), tracer, kernels)
        units = dict(PER_LAYER)
        print("per-layer (traced pass):", file=out)
        for name, unit in {**PER_LAYER, **LAYER_EXTRAS}.items():
            value = metrics.get(name, extras.get(name))
            print(f"  {name:<32} {value:.6g} {unit}", file=out)
        for name, k in kernels.items():
            print(f"  kernel.{name}: {k['calls']} calls over {k['rows']} rows, "
                  f"{k['bytes']} bytes in", file=out)
        print("span self times:", file=out)
        for name, d in tracer.self_times().items():
            print(f"  {name:<32} calls {d['calls']:>3}  total {d['total_s']:.4f} s  "
                  f"self {d['self_s']:.4f} s", file=out)
        print("operators:", file=out)
        for op in traced.facts["layers"]["operators"]:
            print(f"  [{op['layer']}] {op['name']}: wall {op['wall_s']:.4f} s cpu "
                  f"{op['cpu_s']:.4f} s rows {op['rows']} span "
                  f"{op['start_offset_s']:.3f}..{op['end_offset_s']:.3f} s", file=out)
        ok = metrics["trace.reconcile_err"] <= 0.10
        print(f"reconciled: covered {metrics['ray.covered_s']:.4f} s + residual "
              f"{metrics['ray.residual_s']:.4f} s vs pass {traced.wall_s:.4f} s "
              f"(error {metrics['trace.reconcile_err']:.2%}): {'yes' if ok else 'NO'}", file=out)
        os.makedirs(WORK_DIR, exist_ok=True)
        path = os.path.join(WORK_DIR, f"spans-{wl.name}-seed{seed}.jsonl")
        tracer.write(path, {"workload": wl.name, "seed": seed, "host": host_facts(),
                            "metrics": metrics, "extras": extras,
                            "operators": traced.facts["layers"]["operators"],
                            "self_times": tracer.self_times()})
        print(f"spans written to {os.path.relpath(path, ROOT)}", file=out)

    print(f"host.cpu_canary_s = {cpu_canary():.4f} (after the run)", file=out)
    for p in runner.problems:
        print(f"PROBLEM {p}", file=out)
    return {
        "correct": runner.wrong_rows == 0 and not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "_hung": runner.hung,
    }


def print_digests() -> None:
    import inputs
    from workloads import N_DOCS, WORKLOADS

    out = {}
    for n_docs in (N_DOCS, 500):
        docs = inputs.documents(n_docs)
        for wl in WORKLOADS.values():
            out[f"{wl.name}:{n_docs}"] = inputs.digest(wl.generate(docs), wl.sort_keys)
    print(json.dumps(out, indent=2))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--print-digests", action="store_true")
    args = ap.parse_args(argv)

    sys.path[:0] = [BENCH_DIR, ROOT]
    try:
        import sciscraper_ray.pipelines.extract
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(sciscraper_ray.__file__).startswith(ROOT + os.sep):
        print(f"perfbench: sciscraper_ray comes from {sciscraper_ray.__file__}, "
              f"not from {ROOT}", file=sys.stderr)
        return 2
    from workloads import N_DOCS, WORKLOADS

    if args.print_digests:
        print_digests()
        return 0
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    # Ray workers inherit this environment: they must import sciscraper_ray.
    os.chdir(ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    work = os.path.join(WORK_DIR, f"{wl.name}-{os.getpid()}")
    out = sys.stdout
    print(f"perfbench {wl.name} (CLI mode {wl.mode}) seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}", file=out)
    for k, v in host_facts().items():
        print(f"host.{k} = {v}", file=out)
    print(f"host.cpu_canary_s = {cpu_canary():.4f} (before the run)", file=out)
    ray_stop()  # no session may leak into this measurement
    result, hung = None, False
    try:
        result = run_workload(wl, N_DOCS, args.seed, args.seconds, bool(args.trace), work, out)
        hung = result.pop("_hung")
    except RunAborted as exc:
        hung = exc.hung
        print(f"perfbench: {exc}", file=sys.stderr)
    except Exception:  # noqa: BLE001 — report, stop Ray, exit non-zero
        traceback.print_exc()
    finally:
        if not hung:  # a hung pass would hang ray.shutdown() too
            import ray

            ray.shutdown()
        ray_stop()
        shutil.rmtree(work, ignore_errors=True)
        temp = ray_temp_dir()
        if temp:
            shutil.rmtree(temp, ignore_errors=True)
    if result is not None:
        out.flush()
        print(json.dumps(result), flush=True)
    if hung:  # the hung pass's thread would block interpreter exit
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(1)
    return 0 if result and result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
