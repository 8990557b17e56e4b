"""Output sink with the reference's CSV export semantics (SURVEY §2.1 S5,
§2.2 M16/M17):

- declared-schema cast applied at the sink only: int16 for the count
  columns, float16 for wordscore (KEY_TYPE_PAIRINGS,
  /root/reference/src/config.py:119-135 — compute stays float64 upstream),
  ``pub_date`` coerced to timestamp with null-on-garbage
  (/root/reference/src/fetch.py:217-234);
- all-empty column drop (/root/reference/src/fetch.py:201-203) folded
  into the write: each write task counts its columns' non-empty values
  before the cast and writes its parquet and CSV files, and the driver
  sums the counts. When a column is empty everywhere, the part files are
  deleted and the projection written again — never a driver-side
  to_pandas of the data;
- date-stamped run directory ``{export_dir}/{YYMMDD}_{prefix}/`` with
  partitioned part files (S5's single CSV becomes a resumable multi-file
  layout; /root/reference/src/fetch.py:236-263, change_dir.py:16-26);
- list columns written to CSV as the Python ``repr`` of each row's list,
  as pandas' ``to_csv`` prints them. Common columns take a fast path built
  from Arrow string joins: a string renders as ``'s'``, an integer as its
  decimal digits, a struct as ``{'name': value, ...}``. A column in which
  any string is not printable ASCII free of ``'`` and ``\\``, any value
  at any nesting level is null, or any type is other than string, integer
  or a struct of those, falls back to per-row ``repr``; both give the same
  bytes.
"""

from __future__ import annotations

import os
import posixpath
import re
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.csv as pacsv
import pyarrow.fs as pafs
import pyarrow.parquet as pq

import ray
import ray.data
from ray.data._internal.util import call_with_retry
from ray.data.block import BlockAccessor
from ray.data.dataset import MaterializedDataset
from ray.data.datasource.file_datasink import _FileDatasink
from ray.util.scheduling_strategies import NodeAffinitySchedulingStrategy

from sciscraper_ray.pipelines import plan

# KEY_TYPE_PAIRINGS analog (config.py:119-135): declared sink dtypes.
INT16_COLUMNS = ("times_cited", "matching_terms", "bycatch_terms", "total_word_count")
FLOAT16_COLUMNS = ("wordscore",)
DATETIME_COLUMNS = ("pub_date",)


def cast_declared_schema(batch: pa.Table) -> pa.Table:
    """M17: apply the declared output dtypes to whichever columns exist."""
    for name in batch.column_names:
        i = batch.column_names.index(name)
        col = batch[name]
        if name in INT16_COLUMNS:
            # numpy-style WRAPPING cast, not Arrow's checked cast: the
            # reference's astype('int16') wraps silently (fetch.py:205-227),
            # and a >32767-word document must not kill the export job.
            # Arrow's unsafe cast wraps the same way AND keeps the validity
            # bitmap — a null (e.g. times_cited after a join miss) stays
            # null instead of round-tripping through float NaN to garbage.
            if pa.types.is_floating(col.type):
                col = pc.if_else(pc.is_nan(col), pa.nulls(len(col), col.type), col)
            batch = batch.set_column(i, name, pc.cast(col, pa.int16(), safe=False))
        elif name in FLOAT16_COLUMNS:
            batch = batch.set_column(i, name, pc.cast(col, pa.float16()))
        elif name in DATETIME_COLUMNS and pa.types.is_string(col.type):
            batch = batch.set_column(
                i,
                name,
                pc.strptime(col, format="%Y-%m-%d", unit="us", error_is_null=True),
            )
    return batch


def _nonempty_partial(batch: pa.Table) -> dict[str, int]:
    """Per-column count of non-null, non-empty-string values in this batch."""
    counts = {}
    for name in batch.column_names:
        col = batch[name]
        valid = pc.is_valid(col)
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            valid = pc.and_(valid, pc.not_equal(pc.coalesce(col, ""), ""))
        counts[name] = pc.sum(pc.cast(valid, pa.int64())).as_py() or 0
    return counts


def nonempty_columns(partials: list[dict[str, int]]) -> list[str]:
    """M16 reduction: fold per-task non-empty counts into the columns that
    have at least one non-empty value, in first-seen column order."""
    totals: dict[str, int] = {}
    for counts in partials:
        for name, n in counts.items():
            totals[name] = totals.get(name, 0) + n
    return [c for c, n in totals.items() if n > 0]


# Strings whose repr() is the string in single quotes with nothing escaped:
# printable ASCII without ' or \.
_PLAIN_REPR = r"^[ -&(-\[\]-~]*$"


def _repr_values(arr: pa.Array) -> pa.Array | None:
    """repr() of every value of ``arr`` as a string array, or None where
    the fast path does not apply (see the module docstring)."""
    if arr.null_count:
        return None
    t = arr.type
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        plain = pc.match_substring_regex(arr, _PLAIN_REPR)
        if not pc.all(plain, min_count=0).as_py():
            return None
        return pc.binary_join_element_wise("'", arr.cast(pa.string()), "'", "")
    if pa.types.is_integer(t):
        return arr.cast(pa.string())
    if pa.types.is_struct(t):
        names = [t.field(i).name for i in range(t.num_fields)]
        if not names or len(set(names)) < len(names) or not all(
            re.fullmatch(_PLAIN_REPR, name) for name in names
        ):
            return None
        parts = []
        for i, (name, child) in enumerate(zip(names, arr.flatten())):
            rendered = _repr_values(child)
            if rendered is None:
                return None
            parts += [("{" if i == 0 else ", ") + f"'{name}': ", rendered]
        return pc.binary_join_element_wise(*parts, "}", "")
    return None


def _repr_lists(col: pa.Array) -> pa.Array:
    """list or large_list array -> string array of each row's Python list
    repr (null stays null)."""
    rendered = _repr_values(pc.list_flatten(col))
    if rendered is None:
        return pa.array(
            [repr(v) if v is not None else None for v in col.to_pylist()],
            type=pa.string(),
        )
    offsets = np.zeros(len(col) + 1, np.int64)
    np.cumsum(pc.fill_null(pc.list_value_length(col), 0).to_numpy(), out=offsets[1:])
    lists = pa.LargeListArray.from_arrays(offsets, rendered, mask=col.is_null())
    return pc.binary_join_element_wise("[", pc.binary_join(lists, ", "), "]", "")


def csv_safe(batch: pa.Table) -> pa.Table:
    """Make a batch CSV-writable: float16 renders via float32 (Arrow's CSV
    writer has no float16) and list columns as their rows' Python repr.

    Zero-length chunks are dropped first: pyarrow 16's ``write_csv``
    repeats earlier rows for a column chunked ``[1, 2] | [] | [3]``
    (it writes 1, 2, 1, 2, 3) and repeats the header for ``[] | [1]``."""
    for i, name in enumerate(batch.column_names):
        col = batch[name]
        if any(len(chunk) == 0 for chunk in col.chunks):
            col = pa.chunked_array([c for c in col.chunks if len(c)], col.type)
            batch = batch.set_column(i, name, col)
        if pa.types.is_float16(col.type):
            batch = batch.set_column(i, name, pc.cast(col, pa.float32()))
        elif pa.types.is_list(col.type) or pa.types.is_large_list(col.type):
            batch = batch.set_column(i, name, _repr_lists(col.combine_chunks()))
    return batch


def task_table(tables: list[pa.Table]) -> pa.Table | None:
    """A write task's blocks as one table: tables with no rows dropped, the
    rest cast to their unified schema and concatenated; None if no rows."""
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return None
    schema = pa.unify_schemas([t.schema for t in tables])
    return pa.concat_tables(t if t.schema.equals(schema) else t.cast(schema) for t in tables)


class _ExportSink(_FileDatasink):
    """Writes each task's rows, cast to the declared schema, as one parquet
    file (when ``also_parquet``) and one CSV file under ``run_dir``, both
    named ``{write_id}_{task_idx:06}``. Each task returns its columns'
    non-empty counts, taken before the cast, and the paths it wrote.

    ``rows_per_write``, when given, is the sink's ``min_rows_per_write``:
    Ray bundles input blocks until a write task holds at least that many
    rows, so ``ceil(rows / CPUs)`` gives one write task per CPU however
    many blocks the input has. Left ``None``, each write task gets Ray's
    default bundle.

    The file system comes from ``run_dir`` as in Ray's own file sinks
    (``s3://``, ``gs://``, ``file://``, ``local://`` …), and IO errors
    listed in ``DataContext.retried_io_errors`` are retried."""

    def __init__(self, run_dir: str, also_parquet: bool, rows_per_write: int | None = None):
        super().__init__(run_dir)
        self.rows_per_write = rows_per_write
        if isinstance(self.filesystem.unwrap(), pafs.LocalFileSystem):
            self.path = os.path.abspath(self.path)  # workers may run elsewhere
        self.csv_dir = posixpath.join(self.path, "csv")
        self.parquet_dir = posixpath.join(self.path, "parquet") if also_parquet else None
        self.write_id = uuid.uuid4().hex  # per write: a rerun never collides
        self.counts: list[dict[str, int]] = []
        self.written: dict[str, list[str]] = {}  # node id -> paths

    @property
    def min_rows_per_write(self) -> int | None:
        return self.rows_per_write

    def on_write_start(self) -> None:
        super().on_write_start()
        for d in (self.csv_dir, self.parquet_dir):
            if d is not None:
                self._create_dir(d)

    def write(self, blocks, ctx) -> tuple[list[dict[str, int]], str, list[str]]:
        tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
        counts = [_nonempty_partial(t) for t in tables]
        table = task_table([cast_declared_schema(t) for t in tables])
        node = ray.get_runtime_context().get_node_id()
        if table is None:
            return counts, node, []
        name = f"{self.write_id}_{ctx.task_idx:06}"
        paths = [posixpath.join(self.csv_dir, f"{name}.csv")]
        if self.parquet_dir is not None:
            paths.append(posixpath.join(self.parquet_dir, f"{name}.parquet"))

        def write_files():
            with self.open_output_stream(paths[0]) as f:
                pacsv.write_csv(csv_safe(table), f)
            if self.parquet_dir is not None:
                with self.open_output_stream(paths[1]) as f:
                    pq.write_table(table, f)

        call_with_retry(
            write_files,
            description=f"write '{name}' to '{self.path}'",
            match=self._data_context.retried_io_errors,
        )
        return counts, node, paths

    def on_write_complete(self, write_result) -> None:
        for counts, node, paths in write_result.write_returns:
            self.counts += counts
            self.written.setdefault(node, []).extend(paths)

    def delete_files(self) -> None:
        """Delete every part file this sink wrote, each on the node that
        wrote it: a local path need not be on a disk the nodes share."""
        ray.get([
            _delete_files.options(
                scheduling_strategy=NodeAffinitySchedulingStrategy(node, soft=False)
            ).remote(self.filesystem, paths)
            for node, paths in self.written.items()
            if paths
        ])


@ray.remote(num_cpus=0)
def _delete_files(filesystem: pafs.FileSystem, paths: list[str]) -> None:
    for path in paths:
        filesystem.delete_file(path)


def export_results(
    ds: ray.data.Dataset,
    export_dir: str,
    *,
    prefix: str = "sciscraper",
    date_stamp: str,
    drop_empty_columns: bool = True,
    also_parquet: bool = True,
) -> str:
    """S5 analog: cast -> drop all-empty columns -> date-stamped run dir.

    ``date_stamp`` (YYMMDD) is an explicit argument — the reference stamps
    with ``datetime.now`` (fetch.py:241), which is not reproducible; the
    caller owns the clock. ``export_dir`` is a local path or a URI
    (``s3://...``, ``local://...``); the file system comes from it as in
    Ray's own file sinks.

    The export is one Ray Data execution of ``ds``. When a column is empty
    in every row, the part files are deleted and the remaining columns
    are written again, a second execution of the input pipeline, so pass
    a materialized Dataset for expensive inputs. That is the common case
    for some inputs: ``extract-only`` over HTML pages keeps their null
    ``meta_identifier`` columns, and an input with no DOI hit has an
    all-null ``doi``. When every column is empty (no rows, or only empty
    values), the run dir holds its output directories and no part files.

    A small materialized ``ds`` (at most ``plan.FULL_WIDTH_MAX_BYTES`` in
    memory) is written by one task per cluster CPU: its row count and
    size are free from the block metadata, and the sink asks for at least
    ``ceil(rows / CPUs)`` rows per write, so however many small blocks the
    input pipeline made (a full-width read emits blocks of at most 256
    KiB), the write runs in one round and writes one parquet and one CSV
    file per CPU. The rewrite of the non-empty columns keeps that shape.
    A write task joins its blocks into one table and the CSV writer copies
    it, so the size bound caps a task's memory; a larger ``ds`` keeps
    Ray's bundling, one task per block. So does a lazy ``ds``: its row
    count would cost an execution.
    """
    run_dir = os.path.join(export_dir, f"{date_stamp}_{prefix}")
    rows_per_write = None
    size = ds.size_bytes() if isinstance(ds, MaterializedDataset) else None
    if size is not None and size <= plan.FULL_WIDTH_MAX_BYTES:
        rows, cpus = ds.count(), int(ray.cluster_resources().get("CPU", 0))
        if rows and cpus:
            rows_per_write = -(-rows // cpus)
    sink = _ExportSink(run_dir, also_parquet, rows_per_write)
    ds.write_datasink(sink)
    if drop_empty_columns:
        keep = nonempty_columns(sink.counts)
        if len(keep) < len(set().union(*sink.counts)):
            sink.delete_files()
            if keep:
                ds.select_columns(keep).write_datasink(
                    _ExportSink(run_dir, also_parquet, rows_per_write)
                )
    return run_dir




def write_artifacts(
    ds: ray.data.Dataset,
    export_dir: str,
    *,
    date_stamp: str,
    url_col: str = "url",
    payload_col: str = "html",
    etag_col: str | None = None,
    ext: str = "pdf",
) -> str:
    """S7 analog (downloaders.py:91-117 create_document): persist binary
    payload rows as a ``(filename, payload)`` parquet table, one
    deterministic filename per row via ``format_filename`` (M22).

    A parquet table of (name, bytes) rather than a file-per-row directory:
    at corpus scale millions of small files destroy object-store/file-system
    metadata; the table layout stays streamable and resumable, and a
    fan-out-to-files step can consume it downstream where real files are
    required."""
    from sciscraper_ray.kernels.links import format_filename

    def name_rows(batch: pa.Table) -> pa.Table:
        urls = batch[url_col].to_pylist()
        etags = (
            batch[etag_col].to_pylist() if etag_col and etag_col in batch.column_names
            else [None] * len(urls)
        )
        names = pa.array(
            [
                format_filename(e, ext, url=u or "", date_stamp=date_stamp)
                for u, e in zip(urls, etags)
            ],
            type=pa.string(),
        )
        return pa.table({"filename": names, "payload": batch[payload_col]})

    out_dir = os.path.join(export_dir, f"{date_stamp}_artifacts")
    ds.map_batches(name_rows, batch_format="pyarrow").write_parquet(out_dir)
    return out_dir
