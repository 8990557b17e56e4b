#!/usr/bin/env python3
"""Self-test of the extraction benchmark.

Runs each workload once at 500 documents and checks every output row, then
plants three faults the benchmark must catch:

- one altered output row gives ``wrong_rows == 1``;
- a resume pass pointed at an existing output directory is refused, and a
  pass over a finished directory is flagged by the output check;
- a changed input is refused by the pinned input digest.

    python3 perfbench/selftest.py        # exit status 0 when every check holds
"""

from __future__ import annotations

import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
N_DOCS = 500
SEED = 7


def main() -> int:
    sys.path[:0] = [BENCH_DIR, ROOT]
    os.chdir(ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    import pyarrow as pa
    import ray

    import inputs
    import run
    from sciscraper_ray.pipelines import extract
    from sciscraper_ray.state import checkpoint
    from workloads import WORKLOADS, PassResult, ReusedOutputDir, cleanup

    outcomes = []

    def expect(name: str, ok: bool, detail: str = "") -> None:
        outcomes.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}".rstrip(), flush=True)

    work = os.path.join(run.WORK_DIR, f"selftest-{os.getpid()}")
    run.ray_stop()
    run.init_ray()
    try:
        for wl in WORKLOADS.values():
            input_dir = os.path.join(work, wl.name, "input")
            docs, table, got = run.generate_input(wl, N_DOCS, SEED, input_dir)
            inputs.check_digest(f"{wl.name}:{N_DOCS}", got)
            truth = wl.truth(docs, table)
            res = wl.run(input_dir, os.path.join(work, wl.name, "out"))
            chk = wl.check(res, truth)
            expect(f"{wl.name}: one pass, every row right",
                   chk.wrong_rows == 0 and not chk.problems and chk.docs == truth.num_rows,
                   f"wrong_rows={chk.wrong_rows} docs={chk.docs}/{truth.num_rows} {chk.problems}")

            if wl.name == "crawl_extract":
                out = res.output
                i = out.column_names.index("extracted_text")
                texts = out["extracted_text"].to_pylist()
                texts[0] += " altered"
                res.output = out.set_column(i, out.field(i), pa.array(texts, out.field(i).type))
                wrong = wl.check(res, truth).wrong_rows
                expect("one altered output row gives wrong_rows == 1", wrong == 1,
                       f"wrong_rows={wrong}")

            if wl.name == "pdf_resume":
                try:
                    wl.run(input_dir, res.out_dir)
                    refused = False
                except ReusedOutputDir:
                    refused = True
                expect("a resume pass into an existing dir is refused", refused)
                summary = checkpoint.run_resumable(
                    input_dir, res.out_dir,
                    lambda ds: extract.extraction_pipeline(ds, dedup=False), wave_size=8)
                noop = PassResult(0.0, 0.0, 0.0, [], res.out_dir, res.out_dir,
                                  {"summary": summary, "input_dir": input_dir})
                problems = wl.check(noop, truth).problems
                expect("a pass over a finished dir is flagged by the output check",
                       any("did not process" in p for p in problems), f"{summary}")
            cleanup(res)

            if wl.name == "text_export":
                texts = table["text"].to_pylist()
                texts[0] += " x"
                altered = table.set_column(1, "text", pa.array(texts, pa.string()))
                try:
                    inputs.check_digest(f"{wl.name}:{N_DOCS}", inputs.digest(altered, wl.sort_keys))
                    refused = False
                except inputs.InputDigestMismatch:
                    refused = True
                expect("a changed input is refused by its digest", refused)
    finally:
        ray.shutdown()
        run.ray_stop()
        shutil.rmtree(work, ignore_errors=True)
        if run.ray_temp_dir():
            shutil.rmtree(run.ray_temp_dir(), ignore_errors=True)
    print(f"{sum(outcomes)}/{len(outcomes)} checks hold")
    return 0 if all(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
