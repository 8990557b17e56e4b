"""Checkpoint store + resumable runs: interrupted job resumes at partition
granularity without recomputing completed fragments (north_rule)."""

from __future__ import annotations

import json
import os
import random
import signal
import textwrap

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from sciscraper_ray.sources.page_synth import synth_page_table
from sciscraper_ray.state import CheckpointStore, fragment_id, run_resumable
from sciscraper_ray.state.lineage import content_hash, content_hash_of_dir

from isolated_run import run_script

SF_DIR = "/root/testdata/sf0.001"


def _pipeline(ds):
    from sciscraper_ray.pipelines.extract import extraction_pipeline

    return extraction_pipeline(ds, dedup=False, analyze=False)


@pytest.fixture(scope="module")
def pages_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pages")
    return synth_page_table(SF_DIR, str(out), num_files=6)


def _read_all(out_dir: str):
    t = pq.read_table(os.path.join(out_dir, "data"))
    return t.sort_by("doc_id")


def test_interrupt_then_resume_matches_full_run(pages_dir, tmp_path):
    full_dir = str(tmp_path / "full")
    part_dir = str(tmp_path / "interrupted")

    full = run_resumable(pages_dir, full_dir, _pipeline, wave_size=6)
    assert full == {"skipped": 0, "processed": 6, "waves": 1}

    # Simulate a kill after 2 of 3 waves...
    first = run_resumable(pages_dir, part_dir, _pipeline, wave_size=2, max_waves=2)
    assert first == {"skipped": 0, "processed": 4, "waves": 2}
    assert len(CheckpointStore(part_dir).completed()) == 4

    # ...then restart: only the remaining fragments run.
    second = run_resumable(pages_dir, part_dir, _pipeline, wave_size=2)
    assert second == {"skipped": 4, "processed": 2, "waves": 1}

    # Final output is identical to the uninterrupted run.
    a, b = _read_all(full_dir), _read_all(part_dir)
    assert a.column("doc_id") == b.column("doc_id")
    assert a.column("extracted_text") == b.column("extracted_text")

    # Idempotent: a third run does nothing.
    third = run_resumable(pages_dir, part_dir, _pipeline, wave_size=2)
    assert third == {"skipped": 6, "processed": 0, "waves": 0}


def test_lineage_records_are_deterministic(pages_dir, tmp_path):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    run_resumable(pages_dir, d1, _pipeline, wave_size=3)
    run_resumable(pages_dir, d2, _pipeline, wave_size=2)  # different waves

    m1 = CheckpointStore(d1).manifest().sort_by("fragment_id")
    m2 = CheckpointStore(d2).manifest().sort_by("fragment_id")
    assert m1["fragment_id"] == m2["fragment_id"]
    assert m1["num_rows"] == m2["num_rows"]
    # Content hashes are order-independent and stable across wave layouts.
    assert m1["content_hash"] == m2["content_hash"]
    input_rows = sum(
        pq.read_metadata(os.path.join(pages_dir, f)).num_rows
        for f in os.listdir(pages_dir)
        if f.endswith(".parquet")
    )
    assert sum(m1["num_rows"].to_pylist()) == input_rows  # incl. dup fetches

    # The manifest hash matches a recomputation from the persisted data.
    store = CheckpointStore(d1)
    for fid, h in zip(
        m1["fragment_id"].to_pylist(), m1["content_hash"].to_pylist()
    ):
        assert content_hash(pq.read_table(store.fragment_dir(fid))) == h


def test_changed_input_fragment_gets_new_id(pages_dir):
    files = sorted(os.listdir(pages_dir))
    f0 = os.path.join(pages_dir, files[0])
    fid = fragment_id(f0, pages_dir)
    assert files[0].replace(".", "-") in fid
    assert f"-{os.path.getsize(f0)}-" in fid
    # absolute-path digest: same basename+size elsewhere -> different id
    assert fragment_id(f0, pages_dir) == fid  # deterministic
    assert fragment_id(os.path.join("/elsewhere", files[0])) != fid


def test_per_wave_metrics_recorded(pages_dir, tmp_path):
    out = str(tmp_path / "metrics_run")
    run_resumable(pages_dir, out, _pipeline, wave_size=3)
    m = CheckpointStore(out).metrics()
    assert m.num_rows == 2  # 6 fragments / wave_size 3
    assert set(m.column_names) >= {"wave", "fragments", "wall_s", "stage_stats"}
    frags = sorted(f for row in m["fragments"].to_pylist() for f in row)
    assert frags == sorted(CheckpointStore(out).completed())
    # per-stage operator timings are captured for each wave
    assert all("Operator" in s for s in m["stage_stats"].to_pylist())


def test_content_hash_sees_long_list_differences():
    """repr() of numpy arrays truncates >1000 elements; the hash must not."""
    import pyarrow as pa

    from sciscraper_ray.state.lineage import content_hash

    a = pa.table({"v": [list(range(2000))]})
    changed = list(range(2000)); changed[1000] = -1
    b = pa.table({"v": [changed]})
    assert content_hash(a) != content_hash(b)
    assert content_hash(a) == content_hash(a)


def test_fragment_id_portable_across_roots(tmp_path):
    """Moving/symlinking the input tree must not invalidate the manifest:
    the id depends on the root-RELATIVE path + size only (ADVICE r1)."""
    import shutil

    d1 = tmp_path / "a" / "pages"
    d2 = tmp_path / "b" / "pages"
    d1.mkdir(parents=True)
    (d1 / "f.parquet").write_bytes(b"x" * 37)
    shutil.copytree(d1, d2)
    assert fragment_id(str(d1 / "f.parquet"), str(d1)) == fragment_id(
        str(d2 / "f.parquet"), str(d2)
    )


# ---- lineage computed in the write tasks --------------------------------


def _write_inputs(root, n_files: int, rows: int = 5, *, negative: int | None = None):
    """``n_files`` small parquet files with an ``x`` column; file
    ``negative`` (if given) holds only negative values."""
    os.makedirs(root, exist_ok=True)
    for i in range(n_files):
        xs = [-(j + 1) for j in range(rows)] if i == negative else [i * 100 + j for j in range(rows)]
        pq.write_table(pa.table({"x": pa.array(xs, pa.int64())}), os.path.join(root, f"f{i:03d}.parquet"))
    return str(root)


def _assert_manifest_matches_disk(out_dir: str, columns=None) -> pa.Table:
    """Every committed fragment's manifest (content_hash, num_rows) equals a
    re-read of its directory; a fragment without rows has no directory."""
    store = CheckpointStore(out_dir)
    m = store.manifest()
    for fid, rows, h in zip(
        m["fragment_id"].to_pylist(), m["num_rows"].to_pylist(), m["content_hash"].to_pylist()
    ):
        d = store.fragment_dir(fid)
        on_disk = content_hash_of_dir(d, columns) if os.path.isdir(d) else (0, 0)
        assert (h, rows) == on_disk, fid
    return m


@pytest.mark.usefixtures("ray_session")
def test_manifest_lineage_equals_hash_of_written_dirs(tmp_path):
    """The write tasks' summed partials equal content_hash_of_dir of each
    fragment directory: nulls, list<struct> and large_string columns, a
    lineage_columns subset, a fragment whose rows are all dropped, and a
    fragment split across write tasks."""
    src = _write_inputs(tmp_path / "in", 4, rows=40, negative=2)

    def odd_columns(batch: pa.Table) -> pa.Table:
        """Adds nulls, a list<struct> and a large_string column."""
        xs = batch["x"].to_pylist()
        spans = pa.array(
            [None if x % 3 == 0 else [{"k": str(x), "v": x}, {"k": None, "v": -x}] for x in xs],
            pa.list_(pa.struct([("k", pa.string()), ("v", pa.int64())])),
        )
        text = pa.array([None if x % 2 else f"row {x} " * (x % 7) for x in xs], pa.large_string())
        maybe = pa.array([None if x % 5 == 0 else x / 3 for x in xs], pa.float64())
        return batch.append_column("spans", spans).append_column("text", text).append_column("maybe", maybe)

    def pipeline(ds):
        out = ds.filter(expr="x >= 0").map_batches(odd_columns, batch_format="pyarrow")
        return out.repartition(7)  # each fragment's rows go to several write tasks

    full = str(tmp_path / "full")
    run_resumable(src, full, pipeline, wave_size=4)
    m = _assert_manifest_matches_disk(full)
    assert m.num_rows == 4
    by_path = dict(zip(m["path"].to_pylist(), zip(m["num_rows"].to_pylist(), m["content_hash"].to_pylist())))
    dropped = os.path.join(src, "f002.parquet")
    assert by_path[dropped] == (0, 0)
    store = CheckpointStore(full)
    assert not os.path.exists(store.fragment_dir(fragment_id(dropped, src)))
    # some fragment's rows were written by more than one task
    files_per_fragment = [
        len(os.listdir(store.fragment_dir(fid)))
        for fid, rows in zip(m["fragment_id"].to_pylist(), m["num_rows"].to_pylist())
        if rows
    ]
    assert max(files_per_fragment) > 1
    t = pq.read_table(store.data_dir)
    assert set(t.column_names) >= {"x", "spans", "text", "maybe", "fragment_id"}
    assert t.schema.field("text").type == pa.large_string()

    subset = str(tmp_path / "subset")
    run_resumable(src, subset, pipeline, wave_size=2, lineage_columns=["x", "text"])
    ms = _assert_manifest_matches_disk(subset, ["x", "text"])
    assert ms.sort_by("fragment_id")["num_rows"] == m.sort_by("fragment_id")["num_rows"]


@pytest.mark.usefixtures("ray_session")
def test_wave_footers_read_in_process(tmp_path, monkeypatch):
    """A wave wider than Ray's parallel footer-fetch threshold reads its
    footers in the driver, not in Ray tasks."""
    from ray.data.datasource import parquet_meta_provider

    n_files = 30
    assert n_files > parquet_meta_provider.PARALLELIZE_META_FETCH_THRESHOLD
    src = _write_inputs(tmp_path / "in", n_files, rows=3)

    def in_tasks(*args, **kwargs):
        raise AssertionError("footers fetched in Ray tasks")

    monkeypatch.setattr(parquet_meta_provider, "_fetch_metadata_parallel", in_tasks)
    out = str(tmp_path / "out")
    summary = run_resumable(src, out, lambda ds: ds, wave_size=n_files)
    assert summary == {"skipped": 0, "processed": n_files, "waves": 1}
    m = _assert_manifest_matches_disk(out)
    assert sum(m["num_rows"].to_pylist()) == 3 * n_files


# ---- subprocess runs: a fresh Ray cluster per run, under a timeout -------

FULL_WIDTH_SCRIPT = textwrap.dedent(
    """
    import json, os, sys, time

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    src, out_dir, log = sys.argv[1:4]
    for i in range(4):
        pq.write_table(pa.table({"x": list(range(i * 10, i * 10 + 10))}),
                       f"{src}/f{i}.parquet")

    ray.init(address="local", num_cpus=2, object_store_memory=512 * 1024 * 1024,
             include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    before = DataContext.get_current().target_max_block_size

    from sciscraper_ray.state import run_resumable

    def timed(batch):
        start = time.time()
        time.sleep(0.5)
        with open(log, "a") as f:
            f.write(json.dumps([os.getpid(), start, time.time()]) + "\\n")
        return batch

    summary = run_resumable(src, out_dir,
                            lambda ds: ds.map_batches(timed, batch_format="pyarrow"),
                            wave_size=4)
    after = DataContext.get_current().target_max_block_size
    ray.shutdown()
    print(json.dumps({"summary": summary, "before": before, "after": after}))
    """
)


def test_wave_tasks_run_at_full_width(tmp_path):
    """On a 2-CPU cluster with a 512 MiB object store, a wave's second task
    starts while its first is still running, and the process-wide
    DataContext is left as it was."""
    src = tmp_path / "in"
    src.mkdir()
    log = tmp_path / "tasks.jsonl"
    proc = run_script(FULL_WIDTH_SCRIPT, str(src), str(tmp_path / "out"), str(log))
    assert proc.returncode == 0, proc.stderr[-2000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["summary"] == {"skipped": 0, "processed": 4, "waves": 1}
    assert res["after"] == res["before"]
    spans = sorted(json.loads(line) for line in log.read_text().splitlines())
    spans.sort(key=lambda s: s[1])
    assert len(spans) >= 2
    (_, _, first_end), (_, second_start, _) = spans[0], spans[1]
    assert second_start < first_end, spans


KILL_SCRIPT = textwrap.dedent(
    """
    import os, signal, sys

    import ray

    src, out_dir, event, wave = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
    ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    from sciscraper_ray.pipelines.extract import extraction_pipeline
    from sciscraper_ray.state import checkpoint

    driver = os.getpid()
    seen = {"plan": 0, "commit": 0, "done": 0}

    def reached(what):
        seen[what] += 1
        if what == event and seen[what] == wave:
            os.kill(driver, signal.SIGKILL)

    def kill_driver(batch):
        os.kill(driver, signal.SIGKILL)
        return batch

    def pipeline(ds):
        reached("plan")
        if event == "task" and seen["plan"] == wave:
            # the driver dies while this wave's tasks run
            ds = ds.map_batches(kill_driver, batch_format="pyarrow")
        return extraction_pipeline(ds, dedup=False, analyze=False)

    mark_done = checkpoint.CheckpointStore.mark_done

    def marked(self, records):
        reached("commit")  # the wave's output is on disk, not yet committed
        name = mark_done(self, records)
        reached("done")
        return name

    checkpoint.CheckpointStore.mark_done = marked
    checkpoint.run_resumable(src, out_dir, pipeline, wave_size=2)
    print("finished")
    """
)

N_KILL_WAVES = 3  # 6 fragments, 2 per wave
KILL_POINTS = [(e, w) for w in range(1, N_KILL_WAVES + 1) for e in ("plan", "task", "commit", "done")]
# Between a wave's write and its commit always; two more points drawn by a seed.
KILL_DRAWS = [("commit", 2)] + random.Random(20261018).sample(
    [p for p in KILL_POINTS if p != ("commit", 2) and p != ("done", N_KILL_WAVES)], 2
)


@pytest.fixture(scope="module")
def uninterrupted(pages_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("uninterrupted"))
    run_resumable(pages_dir, out, _pipeline, wave_size=2)
    return CheckpointStore(out).manifest()


def _files_of(store: CheckpointStore, fid: str) -> dict:
    d = store.fragment_dir(fid)
    if not os.path.isdir(d):
        return {}
    return {n: os.stat(os.path.join(d, n)).st_mtime_ns for n in os.listdir(d)}


@pytest.mark.parametrize("event,wave", KILL_DRAWS, ids=[f"{e}{w}" for e, w in KILL_DRAWS])
def test_sigkill_then_resume(pages_dir, uninterrupted, tmp_path, event, wave):
    """SIGKILL the driver at a point of the wave loop, then resume: no
    committed fragment is recomputed, half-written fragments are cleared
    and re-run, and the final manifest equals an uninterrupted run's."""
    out = str(tmp_path / "run")
    proc = run_script(KILL_SCRIPT, pages_dir, out, event, str(wave))
    assert proc.returncode == -signal.SIGKILL, proc.stderr[-2000:]

    store = CheckpointStore(out)
    committed = store.completed()
    assert len(committed) == 2 * (wave - (event in ("plan", "task", "commit")))
    committed_files = {fid: _files_of(store, fid) for fid in committed}
    manifest_files = sorted(os.listdir(store.manifest_dir))
    on_disk = [name.split("=", 1)[1] for name in os.listdir(store.data_dir)]
    half_written = {fid: _files_of(store, fid) for fid in on_disk if fid not in committed}
    if event == "commit":
        assert half_written  # the killed wave's output was on disk

    summary = run_resumable(pages_dir, out, _pipeline, wave_size=2)
    assert summary["skipped"] == len(committed)
    assert summary["processed"] == 6 - len(committed)
    # committed fragments were neither cleared nor rewritten
    assert {fid: _files_of(store, fid) for fid in committed} == committed_files
    assert set(manifest_files) <= set(os.listdir(store.manifest_dir))
    # half-written output was cleared before its fragment ran again
    for fid, old in half_written.items():
        assert not set(old) & set(_files_of(store, fid)), fid

    final = _assert_manifest_matches_disk(out)
    key = ["fragment_id", "num_rows", "row_start", "row_end", "content_hash"]
    assert final.select(key).sort_by("fragment_id") == uninterrupted.select(key).sort_by("fragment_id")
