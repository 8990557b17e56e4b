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
"""

from __future__ import annotations

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


def read_parquet(path: str, **kwargs) -> ray.data.Dataset:
    """``ray.data.read_parquet`` that reads local footers in-process.

    Remote paths (with a URI scheme) keep Ray's parallel footer fetch: an
    object-store footer costs a round trip, and there the tasks pay off.
    Ray Data marks ``meta_provider`` deprecated; 2.49 still honours it."""
    if "://" not in path:
        kwargs["meta_provider"] = _InProcessFooters()
    return ray.data.read_parquet(path, **kwargs)


def driver_frame(ds: ray.data.Dataset, limit: int, what: str):
    """``to_pandas`` with the oversize guard every driver plan needs:
    failing fast with a pointer at the shuffle plan beats a silent driver
    OOM (ADVICE r1)."""
    try:
        return ds.to_pandas(limit=limit)
    except ValueError as exc:
        raise ValueError(
            f"{what}: key table exceeds the driver plan limit ({limit} rows)"
            " — rerun with the 'shuffle' plan (or 'auto')."
        ) from exc
