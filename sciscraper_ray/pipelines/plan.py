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
CPUs. A small local input is read by one task per CPU, so the chain Ray
fuses into the read runs in one round of tasks.
"""

from __future__ import annotations

import os

import pyarrow.dataset as pads
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

# Fewest input files per cluster CPU that read_at_full_width shapes; below
# it Ray's own read floor of 2 × CPUs tasks splits the read blocks.
MIN_FILES_PER_CPU = 2

# Largest input, in bytes on disk, that read_at_full_width shapes; larger
# ones keep Ray's shape. One task per CPU was measured on crawl_extract's
# 32 files and on inputs 8 and 16 times larger (29 and 58 MiB), at 2 and
# 4 CPUs: as fast as two tasks per CPU or faster, and twice as fast as
# Ray's shape at 8 times. With every PDF page in the first tenth of the
# files, the 8 and 16 times inputs ran 14-20% slower than at two tasks
# per CPU at 4 CPUs, though as fast at 2 CPUs, and Ray's shape was
# slower still.
FULL_WIDTH_MAX_BYTES = 64 << 20


def read_at_full_width(
    paths: str | list[str], files: list[str] | None = None, **kwargs
) -> ray.data.Dataset:
    """``read_parquet`` shaped for a chain of per-row task maps that Ray
    fuses into the read. ``files`` are the input's parquet files; left
    ``None``, they are listed here (a list of ``paths`` is the listing). A
    caller that reads one input twice lists it once and passes ``files``.

    A small local input (at most ``FULL_WIDTH_MAX_BYTES`` on disk) with at
    least ``MIN_FILES_PER_CPU`` files per cluster CPU is read by exactly
    one task per CPU, each emitting blocks of at most ``READ_BLOCK_BYTES``,
    so the fused operator runs in one round. Three Ray Data 2.49
    behaviours make every task beyond one per CPU cost time:

    - Lockstep. A small input gets ``max(2 × CPUs, min(200, data MiB))``
      read tasks, about 1 MiB each, and the executor collects finished
      tasks with ``ray.wait(num_returns=len(active_tasks), timeout=0.1)``
      (``streaming_executor_state.process_completed_tasks``). A new round
      of tasks starts only after every running task has returned or
      0.1 s has passed, so many short tasks leave CPUs idle between
      rounds.
    - One task at a time after the first round. Once a task of the first
      round has ended, ``ResourceBudgetBackpressurePolicy.can_add_input``
      refuses a new task while the operator's CPU budget reads 0, which it
      does while the operator still counts a finished task as active. The
      remaining tasks then start one by one. On 8 one-block parquet files
      and a ``map_batches`` busy for 0.1 s per block, at 2 CPUs with a
      512 MiB object store, 2 tasks took 0.44 s and 8 tasks 0.76 s; after
      the first two, tasks started about 0.1 s apart.
    - Pre-sample estimate. Until an operator has produced an output, each
      running task is charged ``target_max_block_size`` (128 MiB) × 2
      buffered blocks. Operators share half of the object store, so on a
      512 MiB store the second task waits for the first to finish. At
      ``READ_BLOCK_BYTES`` the charge is 512 KiB per task.

    One round leaves no later task to even out uneven ones. Ray gives each
    task a contiguous run of the files, so when the costly rows sit in a
    few neighbouring files, one task gets most of the work (see
    ``FULL_WIDTH_MAX_BYTES``).

    Any other input keeps Ray's shape. With fewer files than ``2 × CPUs``
    Ray splits the read blocks (``ReadParquet->SplitBlocks``), which takes
    the read out of the fused operator but runs the chain as wide as the
    cluster; one task per file, or small blocks alone (Ray then counts
    the small blocks as enough and does not split), would run a one-file
    input serially. Inputs above the bound, remote inputs and a process
    without a running Ray were not measured. The CPUs are counted when
    the plan is built, as Ray counts them for its own ``2 × CPUs`` floor.

    The block size goes on the dataset's own context, which every dataset
    derived from it shares, never on ``DataContext.get_current()``: plans
    that emit large blocks keep Ray's defaults.
    ``ds.context.read_op_min_num_blocks`` cannot shape the read (Ray takes
    it from the process-wide context), so the task count goes in as
    ``override_num_blocks``."""
    listed = [paths] if isinstance(paths, str) else paths
    cpus = int(ray.cluster_resources().get("CPU", 0)) if ray.is_initialized() else 0
    if not cpus or any("://" in p for p in listed):
        return read_parquet(paths, **kwargs)
    if files is None:
        files = pads.dataset(paths).files if isinstance(paths, str) else paths
    if (
        len(files) < MIN_FILES_PER_CPU * cpus
        or sum(os.path.getsize(f) for f in files) > FULL_WIDTH_MAX_BYTES
    ):
        return read_parquet(paths, **kwargs)
    ds = read_parquet(paths, override_num_blocks=cpus, **kwargs)
    ds.context.target_max_block_size = READ_BLOCK_BYTES
    return ds


def driver_frame(
    ds: ray.data.Dataset, limit: int = DRIVER_PLAN_LIMIT, what: str = "driver_frame"
):
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
