"""Checkpoint store + partition-granular resumable runs (north_rule).

Output layout under ``out_dir``::

    data/fragment_id=<fid>/*.parquet   hive-partitioned results, one
                                       directory per INPUT fragment
    _manifest/*.parquet                lineage side table (LINEAGE_SCHEMA):
                                       one row per COMPLETED fragment

Execution is wave-based: the input fragment list is filtered against the
manifest, the remaining fragments are processed ``wave_size`` at a time,
and a wave's lineage rows are committed only after its output is fully on
disk. A killed run therefore resumes at wave granularity, never
recomputing completed fragments, and a half-written wave is cleaned up and
re-run (its fragments are absent from the manifest). At cluster scale one
wave is hundreds of fragments — the manifest stays tiny (one row per
fragment) while the data tier streams.

Each wave is one Ray Data execution whose plan fuses into a single
``ReadParquet->tag->...->Write`` task operator. The write task writes its
rows, reads back the files it wrote, hashes their rows in one call and
returns a (fragment, rows, hash) partial per file; the driver adds the
partials per fragment and commits them, so it never re-reads output. A
wave is read by ``plan.read_at_full_width`` on a DataContext seeded so
that every task of the operator can start at once
(``_seed_wave_context``): a wave of at least two files per CPU runs one
task per CPU, in one round.

The reference restarts from scratch and overwrites its day-stamped CSV
(/root/reference/src/fetch.py:236-263); this is the scale replacement.
"""

from __future__ import annotations

import os
import shutil
import time
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from ray.data.block import BlockAccessor
from ray.data.datasource import Datasink

from sciscraper_ray.pipelines.sink import task_table
from sciscraper_ray.state.lineage import (  # noqa: F401 — content_hash_of_dir: the benchmark's tracer wraps this name
    HASH_MASK,
    LINEAGE_SCHEMA,
    content_hash_of_dir,
    fragment_id,
    row_hashes,
)

# Pre-sample output estimate for a wave's write-terminated operator (see
# _seed_wave_context).
WAVE_BLOCK_BYTES = 1 << 20


class CheckpointStore:
    """Parquet-backed manifest of completed fragments."""

    def __init__(self, out_dir: str):
        self.root = out_dir
        self.data_dir = os.path.join(out_dir, "data")
        self.manifest_dir = os.path.join(out_dir, "_manifest")
        self.metrics_dir = os.path.join(out_dir, "_metrics")
        os.makedirs(self.data_dir, exist_ok=True)
        os.makedirs(self.manifest_dir, exist_ok=True)
        os.makedirs(self.metrics_dir, exist_ok=True)

    def manifest(self) -> pa.Table:
        files = [
            os.path.join(self.manifest_dir, f)
            for f in sorted(os.listdir(self.manifest_dir))
            if f.endswith(".parquet")
        ]
        if not files:
            return LINEAGE_SCHEMA.empty_table()
        return pa.concat_tables(pq.read_table(f) for f in files)

    def completed(self) -> set[str]:
        return set(self.manifest()["fragment_id"].to_pylist())

    @staticmethod
    def wave_name(fragment_ids) -> str:
        """Deterministic wave file name: blake2 digest of the sorted
        fragment ids (builtin hash() is PYTHONHASHSEED-randomized, which
        would make manifest names irreproducible across runs)."""
        import hashlib

        digest = hashlib.blake2b(
            "|".join(sorted(fragment_ids)).encode(), digest_size=8
        ).hexdigest()
        return f"wave-{digest}"

    def mark_done(self, records: list[dict]) -> str:
        """Atomic-enough commit: write to a temp name, then rename."""
        if not records:
            return ""
        table = pa.Table.from_pylist(records, schema=LINEAGE_SCHEMA)
        name = self.wave_name(r["fragment_id"] for r in records)
        tmp = os.path.join(self.manifest_dir, f".{name}.tmp")
        pq.write_table(table, tmp)
        os.replace(tmp, os.path.join(self.manifest_dir, f"{name}.parquet"))
        return name

    def write_metrics(self, wave_name: str, record: dict) -> None:
        """Per-wave, per-stage metrics side table (north_rule: metrics to
        the checkpoint store). One parquet per wave, same atomic rename."""
        table = pa.Table.from_pylist([record])
        tmp = os.path.join(self.metrics_dir, f".{wave_name}.tmp")
        pq.write_table(table, tmp)
        os.replace(tmp, os.path.join(self.metrics_dir, f"{wave_name}.parquet"))

    def metrics(self) -> pa.Table:
        files = [
            os.path.join(self.metrics_dir, f)
            for f in sorted(os.listdir(self.metrics_dir))
            if f.endswith(".parquet")
        ]
        if not files:
            return pa.table({})
        return pa.concat_tables(
            (pq.read_table(f) for f in files), promote_options="default"
        )

    def fragment_dir(self, fid: str) -> str:
        return os.path.join(self.data_dir, f"fragment_id={fid}")

    def clear_fragment(self, fid: str) -> None:
        """Drop any half-written output for a fragment before re-running."""
        shutil.rmtree(self.fragment_dir(fid), ignore_errors=True)


class _LineageSink(Datasink):
    """Writes each task's rows under ``data_dir`` in the hive layout of
    ``write_parquet(partition_cols=["fragment_id"])``, one file per
    fragment the task holds, and returns, per file it wrote, the
    ``(fragment_id, rows, content_hash)`` of that file read back from
    disk. ``run_resumable`` sums them per fragment.

    A task reads back every file it wrote and hashes those rows in one
    ``row_hashes`` call, then sums the hashes per file: the row hash is
    additive over any split of the rows, so the per-file sums are what
    ``content_hash_of_dir`` gives for the same files.

    Each file is written with ``pq.write_table``, not Arrow's dataset
    writer (``pyarrow.dataset.write_dataset``): that one raises a wave
    task's peak memory by about 12 MiB on perfbench's ``pdf_resume`` (99 →
    111 MiB at 4 files per task)."""

    def __init__(self, data_dir: str, columns: list[str] | None):
        self.data_dir = os.path.abspath(data_dir)  # workers may run elsewhere
        self.columns = columns
        self.write_id = uuid.uuid4().hex  # per wave: task files never collide
        self.partials: list[tuple[str, int, int]] = []

    def write(self, blocks, ctx) -> list[tuple[str, int, int]]:
        table = task_table([BlockAccessor.for_block(b).to_arrow() for b in blocks])
        if table is None:
            return []
        fids = table["fragment_id"]
        data = table.drop_columns(["fragment_id"])
        written = []
        for i, fid in enumerate(pc.unique(fids).to_pylist()):
            frag_dir = os.path.join(self.data_dir, f"fragment_id={fid}")
            os.makedirs(frag_dir, exist_ok=True)
            path = os.path.join(frag_dir, f"{self.write_id}_{ctx.task_idx:06}-{i}.parquet")
            pq.write_table(data.filter(pc.equal(fids, fid)), path)
            written.append((fid, pq.ParquetFile(path).read()))
        hashes = row_hashes(pa.concat_tables([t for _, t in written]), self.columns)
        partials = []
        start = 0
        for fid, t in written:
            end = start + t.num_rows
            partials.append((fid, t.num_rows, int(hashes[start:end].sum(dtype=np.uint64))))
            start = end
        return partials

    def on_write_complete(self, write_result) -> None:
        self.partials = [p for ret in write_result.write_returns for p in ret]


def _seed_wave_context(ds) -> None:
    """Let every task of a wave's fused operator start at once.

    Until an operator has produced an output, Ray Data 2.49 sizes each
    running task's pending output at ``target_max_block_size`` (128 MiB)
    times ``_max_num_blocks_in_streaming_gen_buffer`` (2): 256 MiB. The
    operators share half of the object store, so with a 512 MiB store one
    task fills the budget and the next one waits for it to finish; every
    wave paid that again. A wave's plan ends in a write, and its only
    object-store output is one write receipt of a few hundred bytes per
    task, so seeding the estimate at ``WAVE_BLOCK_BYTES`` (2 MiB per task)
    costs nothing. Smaller blocks cost nothing either: the chain is
    per-row Python, and its blocks move between fused stages in-process
    and never reach the object store.

    The setting goes on the wave dataset's own context, which every
    dataset derived from it shares; ``DataContext.get_current()`` stays
    as it is, so other pipelines keep Ray's defaults. A wave that
    ``plan.read_at_full_width`` shaped keeps its smaller blocks."""
    ctx = ds.context
    ctx.target_max_block_size = min(ctx.target_max_block_size, WAVE_BLOCK_BYTES)


def _list_fragments(input_path: str | list[str]) -> list[str]:
    if isinstance(input_path, list):
        return sorted(input_path)
    if os.path.isfile(input_path):
        return [input_path]
    return sorted(
        os.path.join(input_path, f)
        for f in os.listdir(input_path)
        if f.endswith(".parquet")
    )


def run_resumable(
    input_path: str | list[str],
    out_dir: str,
    pipeline_fn,
    *,
    wave_size: int = 64,
    max_waves: int | None = None,
    lineage_columns: list[str] | None = None,
) -> dict:
    """Run ``pipeline_fn`` over the input's parquet fragments, resumably.

    ``pipeline_fn(ds)`` takes a Dataset that carries a ``fragment_id``
    column and must preserve that column in its output. Completed
    fragments (per the manifest) are skipped at the READ — they never
    leave storage. ``max_waves`` caps this invocation (used by tests to
    simulate an interrupted run).

    Each wave reads its files through ``plan.read_at_full_width`` (footers
    in-process), on a DataContext seeded by ``_seed_wave_context``, so the
    fused operator runs at full width. A small wave of at least two files
    per CPU is read by one task per CPU and runs in one round of tasks:
    Ray Data 2.49 starts any task beyond the first round only one at a
    time (see ``read_at_full_width``). Its write tasks hash the files
    they wrote (over ``lineage_columns``, default all); the driver sums
    the partials per fragment and commits them with ``mark_done``. A
    fragment whose rows were all dropped commits as 0 rows, hash 0, with
    no directory.

    Returns ``{"skipped": n, "processed": n, "waves": n}``.
    """
    from sciscraper_ray.pipelines.plan import read_at_full_width

    files = _list_fragments(input_path)
    root = input_path if isinstance(input_path, str) and os.path.isdir(input_path) else None
    store = CheckpointStore(out_dir)
    done = store.completed()
    frag_of = {f: fragment_id(f, root) for f in files}
    todo = [f for f in files if frag_of[f] not in done]

    waves = [todo[i : i + wave_size] for i in range(0, len(todo), wave_size)]
    if max_waves is not None:
        waves = waves[:max_waves]

    for wave in waves:
        t0 = time.perf_counter()
        fids = {f: frag_of[f] for f in wave}
        for fid in fids.values():
            store.clear_fragment(fid)

        ds = read_at_full_width(wave, include_paths=True)
        _seed_wave_context(ds)
        path_to_fid = {os.path.abspath(p): fid for p, fid in fids.items()}

        def tag(batch: pa.Table, _m=path_to_fid) -> pa.Table:
            fid_col = pa.array(
                [_m[os.path.abspath(p)] for p in batch["path"].to_pylist()],
                type=pa.string(),
            )
            return batch.drop_columns(["path"]).append_column("fragment_id", fid_col)

        out = pipeline_fn(ds.map_batches(tag, batch_format="pyarrow"))
        sink = _LineageSink(store.data_dir, lineage_columns)
        out.write_datasink(sink)
        wall = time.perf_counter() - t0

        wave_name = CheckpointStore.wave_name(fids.values())
        try:
            stats_text = out.stats()
        except Exception:  # noqa: BLE001 — stats are best-effort telemetry
            stats_text = ""
        store.write_metrics(
            wave_name,
            {
                "wave": wave_name,
                "fragments": sorted(fids.values()),
                "wall_s": round(wall, 4),
                "stage_stats": stats_text,
            },
        )

        lineage = {fid: (0, 0) for fid in fids.values()}
        for fid, rows, h in sink.partials:
            n, total = lineage[fid]
            lineage[fid] = (n + rows, (total + h) & HASH_MASK)
        records = []
        for f in wave:
            rows, h = lineage[fids[f]]
            records.append(
                {
                    "fragment_id": fids[f],
                    "path": f,
                    "num_rows": rows,
                    "row_start": 0,
                    "row_end": rows,
                    "content_hash": h,
                    "wall_s": round(wall / len(wave), 4),
                }
            )
        store.mark_done(records)

    return {
        "skipped": len(files) - len(todo),
        "processed": sum(len(w) for w in waves),
        "waves": len(waves),
    }
