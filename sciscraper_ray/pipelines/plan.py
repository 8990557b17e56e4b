"""Physical-plan auto-selection for the engine's two-plan operators.

Several operators carry two physical plans for their small "key table"
side (dedup winner keys, LSH band rows):

  driver  — stream the key-only rows to the driver and merge/pair with one
            vectorized pandas call. Wins by a wide margin while the table
            fits driver memory: Ray's sort-aggregate pays per-GROUP Python
            overhead (~100 µs/group), which at millions of mostly-unique
            keys dwarfs the actual work.
  shuffle — distributed sort-aggregate / map_groups on the uniform hash
            key; nothing ever concentrates on one node. The only plan that
            works at 10^12 rows.

``resolve_plan`` makes the flip automatic: ``mode='auto'`` materializes
the key-only dataset ONCE (a few tens of bytes per row; reused by
whichever plan runs, so nothing executes twice — and the shuffle plan
would have to produce these rows anyway), counts it for free off the
materialized metadata, and picks ``driver`` iff the count is under the
threshold. Scale safety must not depend on a caller remembering a kwarg
(BASELINE.json north_rule).

``read_at_full_width`` picks a read's physical shape the same way, from
what it can observe: the input's size and file count and the cluster's
CPUs.
"""

from __future__ import annotations

import os

import ray.data
from ray.data.datasource import ParquetMetadataProvider
from ray.data.datasource.parquet_meta_provider import PARALLELIZE_META_FETCH_THRESHOLD

# Above this many key rows the driver merge plan is refused: ~50M rows of
# a few-int64 columns ≈ 1-2 GB on the driver, the documented comfort bound.
DRIVER_PLAN_LIMIT = 50_000_000


def resolve_plan(
    ds: ray.data.Dataset,
    mode: str,
    *,
    limit: int = DRIVER_PLAN_LIMIT,
    est_rows: int | None = None,
) -> tuple[str, ray.data.Dataset]:
    """(resolved_mode, dataset). ``mode`` other than 'auto' passes through
    untouched. 'auto' with an ``est_rows`` UPPER BOUND (e.g. parquet
    metadata row count — free, no execution) picks the plan without
    touching the dataset: distinct keys ≤ input rows, so a bound under
    the limit proves the driver plan safe and skips the materialize
    barrier entirely (it showed up as fixed serial cost in the scaling
    bench). Without a bound, 'auto' materializes the key-only dataset
    once — reused by whichever plan runs, so nothing executes twice."""
    if mode != "auto":
        return mode, ds
    if est_rows is not None:
        return ("driver" if est_rows <= limit else "shuffle"), ds
    mat = ds.materialize()
    return ("driver" if mat.count() <= limit else "shuffle"), mat


def parquet_row_bound(path) -> int | None:
    """Metadata-only row count of a parquet file/dir (None if unreadable)."""
    try:
        import pyarrow.dataset as pads

        return pads.dataset(path).count_rows()
    except Exception:  # noqa: BLE001 — fall back to the measured probe
        return None


class _InProcessFooters(ParquetMetadataProvider):
    """Reads parquet footers in the calling process, never in Ray tasks.

    Past ``PARALLELIZE_META_FETCH_THRESHOLD`` files Ray Data fetches the
    footers in 0.5-CPU tasks, up to twice as many at once as there are
    CPUs. A local footer takes well under a millisecond, but when fewer
    idle workers are up than fetch tasks run at once (Ray retires idle
    workers after ~1 s), the call waits ~0.5 s for a worker to start. That
    happens on some calls and not others. Chunks of at most the threshold
    keep every fetch on Ray's in-process path."""

    def prefetch_file_metadata(self, fragments, **ray_remote_args):
        step = PARALLELIZE_META_FETCH_THRESHOLD
        out = []
        for i in range(0, len(fragments), step):
            chunk = fragments[i : i + step]
            got = super().prefetch_file_metadata(chunk, **ray_remote_args) or []
            out += got
            if len(got) < len(chunk):  # Ray stops at a fragment without a footer
                break
        return out


def read_parquet(paths: str | list[str], **kwargs) -> ray.data.Dataset:
    """``ray.data.read_parquet`` that reads local footers in-process.

    ``paths`` is a file, a directory or a list of files (a resumable
    run's wave). Remote paths (with a URI scheme) keep Ray's parallel
    footer fetch: an object-store footer costs a round trip, and there the
    tasks pay off. Ray Data marks ``meta_provider`` deprecated; 2.49 still
    honours it."""
    listed = [paths] if isinstance(paths, str) else paths
    if not any("://" in p for p in listed):
        kwargs["meta_provider"] = _InProcessFooters()
    return ray.data.read_parquet(paths, **kwargs)


# Largest block a full-width read hands to its fused chain (see
# read_at_full_width).
READ_BLOCK_BYTES = 256 << 10

# Largest input, in bytes on disk, that read_at_full_width shapes. The
# shape was measured on inputs of up to this size (crawl_extract's 32
# files and inputs 8 and 16 times larger); larger ones keep Ray's shape.
FULL_WIDTH_MAX_BYTES = 64 << 20


def read_at_full_width(paths: str | list[str], files: list[str], **kwargs) -> ray.data.Dataset:
    """``read_parquet`` shaped for a chain of per-row task maps that Ray
    fuses into the read. ``files`` are the input's parquet files (a
    listing the caller already holds).

    A small local input (at most ``FULL_WIDTH_MAX_BYTES`` on disk) with at
    least two files per cluster CPU is read by exactly ``2 × CPUs`` tasks
    that emit blocks of at most ``READ_BLOCK_BYTES``. Two Ray Data 2.49
    behaviours make Ray's own shape run such a chain at a fraction of the
    cluster's width:

    - Lockstep. A small input gets ``max(2 × CPUs, min(200, data MiB))``
      read tasks, about 1 MiB each, and the executor collects finished
      tasks with ``ray.wait(num_returns=len(active_tasks), timeout=0.1)``
      (``streaming_executor_state.process_completed_tasks``). A new round
      of tasks starts only after every running task has returned or
      0.1 s has passed, so many short tasks leave CPUs idle between
      rounds. Two tasks per CPU keep the rounds few.
    - Pre-sample estimate. Until an operator has produced an output, each
      running task is charged ``target_max_block_size`` (128 MiB) × 2
      buffered blocks. Operators share half of the object store, so on a
      512 MiB store the second task waits for the first to finish. At
      ``READ_BLOCK_BYTES`` the charge is 512 KiB per task.

    Any other input keeps Ray's shape. With fewer files than ``2 × CPUs``
    Ray splits the read blocks (``ReadParquet->SplitBlocks``), which takes
    the read out of the fused operator but runs the chain as wide as the
    cluster; one task per file, or small blocks alone (Ray then counts
    the small blocks as enough and does not split), would run a one-file
    input serially. Large and remote inputs, and a process without a
    running Ray, were not measured. The CPUs are counted when the plan is
    built, as Ray counts them for its own ``2 × CPUs`` floor.

    The block size goes on the dataset's own context, which every dataset
    derived from it shares, never on ``DataContext.get_current()``: plans
    that emit large blocks keep Ray's defaults.
    ``ds.context.read_op_min_num_blocks`` cannot shape the read (Ray takes
    it from the process-wide context), so the task count goes in as
    ``override_num_blocks``."""
    listed = [paths] if isinstance(paths, str) else paths
    cpus = int(ray.cluster_resources().get("CPU", 0)) if ray.is_initialized() else 0
    if (
        not cpus
        or len(files) < 2 * cpus
        or any("://" in p for p in listed)
        or sum(os.path.getsize(f) for f in files) > FULL_WIDTH_MAX_BYTES
    ):
        return read_parquet(paths, **kwargs)
    ds = read_parquet(paths, override_num_blocks=2 * cpus, **kwargs)
    ds.context.target_max_block_size = READ_BLOCK_BYTES
    return ds


def driver_frame(ds: ray.data.Dataset, limit: int, what: str):
    """``ds.to_pandas()`` with the oversize guard every driver plan needs:
    failing fast with a pointer at the shuffle plan beats a silent driver
    OOM (ADVICE r1).

    Runs ``ds`` once. ``ds.to_pandas(limit=...)`` would run it twice: its
    ``count()`` executes the whole plan, and collecting the rows executes
    it again. Here rows are counted as the batches stream in, and the
    guard raises as soon as the count passes ``limit``. The frame is built
    the way ``to_pandas`` builds it."""
    from ray.data._internal.pandas_block import PandasBlockBuilder
    from ray.data.block import BlockAccessor

    builder = PandasBlockBuilder()
    rows = 0
    for batch in ds.iter_batches(batch_format="pandas", batch_size=None):
        rows += len(batch)
        if rows > limit:
            raise ValueError(
                f"{what}: key table exceeds the driver plan limit ({limit} rows)"
                " — rerun with the 'shuffle' plan (or 'auto')."
            )
        builder.add_block(batch)
    return BlockAccessor.for_block(builder.build()).to_pandas()
