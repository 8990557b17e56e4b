"""Both paper-path pipelines must finish on a 1-CPU Ray cluster.

A stage run as a fixed actor pool holds its CPU slot for the whole
execution; at one CPU the upstream read tasks then never get scheduled and
the pipeline hangs. The check runs in a fresh interpreter (the session
fixture's cluster has 4 CPUs) under a hard timeout, so a hang fails the
test instead of stalling the suite.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = textwrap.dedent(
    """
    import json, sys

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from sciscraper_ray.sources.page_synth import synth_pages_batch

    out_dir = sys.argv[1]
    n = 200
    docs = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": [f"scan join the filter doc {i} hash sort" for i in range(n)],
        "lang": ["en"] * n,
    })
    pages = synth_pages_batch(docs)
    for i in range(4):
        pq.write_table(pages.slice(i * 60, 60), f"{out_dir}/part-{i}.parquet")

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    from sciscraper_ray.pipelines.extract import extraction_pipeline
    from sciscraper_ray.pipelines.flagship import wordscore_pipeline

    counts = {
        "pages": pages.num_rows,
        "extract": extraction_pipeline(out_dir).count(),
        "wordscore": wordscore_pipeline(out_dir).count(),
    }
    ray.shutdown()
    print(json.dumps(counts))
    """
)


def test_pipelines_finish_on_one_cpu(tmp_path):
    env = dict(os.environ)
    # Ray workers import sciscraper_ray from the repository root.
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (REPO, env.get("PYTHONPATH")) if p
    )
    # Own process group, so a hung run's Ray processes die with it.
    proc = subprocess.Popen(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        cwd=REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        raise AssertionError(
            "a paper-path pipeline did not finish within 120 s on a 1-CPU "
            f"Ray cluster\nstderr tail:\n{err[-2000:]}"
        ) from None
    assert proc.returncode == 0, err[-2000:]
    counts = json.loads(out.strip().splitlines()[-1])
    # 200 documents; ids divisible by 17 get a second fetch of the same url.
    assert counts == {"pages": 212, "extract": 200, "wordscore": 212}
