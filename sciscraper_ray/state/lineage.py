"""Per-partition lineage records (BASELINE.json north_rule).

Every completed partition is described by one lineage row:

    fragment_id    deterministic id of the INPUT fragment (relative path
                   + file size — stable across runs, changes when the
                   input file changes)
    path           input file path
    num_rows       rows persisted for this fragment
    row_start/row_end   row range within the fragment (0-based, [start, end))
    content_hash   order-independent 64-bit content hash of the persisted
                   rows (sum of vectorized per-row hashes mod 2^64), so a
                   resume that reorders blocks still verifies
    wall_s         seconds spent on the wave that produced this fragment

A row's hash is computed from each column's Arrow type and values
(``row_hashes``), so it depends on that row alone: the content hash of
any split of the rows (files, row groups, write tasks) sums to the hash
of the whole. Manifests written before this definition hold hashes of
the older, pandas-based one (``to_pandas`` dtypes and ``repr`` of nested
values), which were not additive when an integer column held a null in
only some parts. A resume skips fragments by ``fragment_id`` and never
re-verifies a committed hash, so those manifests stay resumable; only a
comparison of an old hash with a new one differs.

The reference has no lineage or resume at all (reruns start from scratch,
/root/reference/src/fetch.py:236-263); this module is the scale-mandated
addition.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

LINEAGE_SCHEMA = pa.schema(
    [
        ("fragment_id", pa.string()),
        ("path", pa.string()),
        ("num_rows", pa.int64()),
        ("row_start", pa.int64()),
        ("row_end", pa.int64()),
        ("content_hash", pa.uint64()),
        ("wall_s", pa.float64()),
    ]
)


def fragment_id(path: str, root: str | None = None) -> str:
    """Deterministic input-fragment id: sanitized relative path + byte
    size + a digest of the RELATIVE path.

    Restricted to ``[A-Za-z0-9_-]`` so it is usable verbatim as a hive
    partition value (anything else gets %-encoded by the parquet writer,
    which would break dir lookups). The digest prevents collisions that
    the readable prefix alone would allow — same-named same-sized files in
    different subdirectories, or names that sanitize to the same string
    ('a.b.parquet' vs 'a-b.parquet'); a collision here would make a later
    wave clear_fragment() an earlier wave's committed output. The digest
    covers the ROOT-RELATIVE path (not the absolute one) so manifests stay
    portable: moving or symlinking the input directory, or reading it via
    a different mount, must not invalidate every completed fragment."""
    import hashlib
    import re

    rel = os.path.relpath(path, root) if root else os.path.basename(path)
    try:
        size = os.path.getsize(path)
    except OSError:
        size = -1
    safe = re.sub(r"[^A-Za-z0-9_-]", "-", rel)
    # Digest the root-relative path when a root is given (portable
    # manifests), but the ABSOLUTE path when it is not: with root=None the
    # readable prefix is just the basename, so a basename-only digest
    # would let same-named same-sized files in different directories
    # collide — exactly the clear_fragment() hazard the digest exists to
    # prevent (ADVICE r2).
    digested = rel if root else os.path.abspath(path)
    digest = hashlib.blake2b(digested.encode(), digest_size=6).hexdigest()
    return f"{safe}-{size}-{digest}"


# splitmix64's constants (Steele, Lea and Flood, OOPSLA 2014)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)
# the hash of a null, at any nesting level
_NULL = np.uint64(0x6E756C6C6E756C6C)


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer over a uint64 array (arithmetic mod 2^64),
    into a new array, in place after the first step to hold few
    temporaries."""
    z = z + _GOLDEN
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z


def _sequences(elems: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """One hash per sequence ``elems[offsets[i]:offsets[i+1]]``: the sum
    of its elements' hashes, each mixed with its position in the
    sequence. Computed over the offsets by one cumulative sum, so a
    sequence's hash depends on its own elements alone."""
    offsets = offsets.astype(np.int64)
    rel = offsets - offsets[0]
    elems = elems[offsets[0] : offsets[-1]]
    terms = np.arange(len(elems), dtype=np.int64)
    terms -= np.repeat(rel[:-1], np.diff(rel))  # position in the sequence
    terms = terms.view(np.uint64)
    terms *= _GOLDEN
    terms += elems
    sums = np.zeros(len(elems) + 1, np.uint64)
    np.cumsum(_mix(terms), out=sums[1:])
    return sums[rel[1:]] - sums[rel[:-1]]


def _fields(hashes: list[np.ndarray], n: int) -> np.ndarray:
    """Per-row hash of a fixed sequence of columns or struct fields: the
    ``_sequences`` rule, mixed once more so that a sum over rows cannot
    be regrouped column by column."""
    total = np.zeros(n, np.uint64)
    positions = np.arange(len(hashes), dtype=np.uint64) * _GOLDEN
    for h, p in zip(hashes, positions):
        total += _mix(h + p)
    return _mix(total)


def _offsets(arr: pa.Array, wide: bool) -> np.ndarray:
    """The ``len(arr) + 1`` value offsets of a (large_)string/binary array."""
    count = arr.offset + len(arr) + 1
    dtype = np.int64 if wide else np.int32
    return np.frombuffer(arr.buffers()[1], dtype, count=count)[arr.offset :]


def _array_hashes(arr: pa.Array) -> np.ndarray:
    """One uint64 hash per value of ``arr``, from its Arrow type and
    value: integers (any width) by value, floats as float64 with one NaN,
    booleans as 0/1, temporal values by their integer storage, strings
    and binaries as sequences of bytes, lists as sequences of their
    elements' hashes, structs field by field, dictionaries through their
    values; a null is ``_NULL`` at any depth. A value's hash depends on
    that value alone, never on its neighbours, slicing or chunking."""
    t = arr.type
    n = len(arr)
    if isinstance(t, pa.ExtensionType):
        return _array_hashes(arr.storage)
    if pa.types.is_dictionary(t):
        return _array_hashes(arr.dictionary_decode())
    if pa.types.is_decimal(t):
        return _array_hashes(arr.cast(pa.string()))
    if pa.types.is_null(t):
        return np.full(n, _NULL, np.uint64)
    wide = pa.types.is_large_string(t) or pa.types.is_large_binary(t)
    if wide or pa.types.is_string(t) or pa.types.is_binary(t):
        data = arr.buffers()[2]
        data = np.zeros(0, np.uint8) if data is None else np.frombuffer(data, np.uint8)
        h = _sequences(data.astype(np.uint64), _offsets(arr, wide))
    elif pa.types.is_fixed_size_binary(t):
        w = t.byte_width
        data = np.frombuffer(arr.buffers()[1], np.uint8, count=(arr.offset + n) * w)
        h = _sequences(data.astype(np.uint64), (np.arange(n + 1) + arr.offset) * w)
    elif pa.types.is_list(t) or pa.types.is_large_list(t) or pa.types.is_map(t):
        h = _sequences(_array_hashes(arr.values), arr.offsets.to_numpy())
    elif pa.types.is_fixed_size_list(t):
        offsets = (np.arange(n + 1) + arr.offset) * t.list_size
        h = _sequences(_array_hashes(arr.values), offsets)
    elif pa.types.is_struct(t):
        h = _fields([_array_hashes(f) for f in arr.flatten()], n)
    else:
        vals = arr
        if pa.types.is_temporal(t):
            vals = vals.view(pa.int64() if t.bit_width == 64 else pa.int32())
        if vals.null_count:
            vals = vals.fill_null(False if pa.types.is_boolean(t) else 0)
        v = vals.to_numpy(zero_copy_only=False)
        if pa.types.is_boolean(t) or pa.types.is_unsigned_integer(vals.type):
            v = v.astype(np.uint64)
        elif pa.types.is_integer(vals.type):
            v = v.astype(np.int64).view(np.uint64)
        elif pa.types.is_floating(t):
            v = v.astype(np.float64)
            v[np.isnan(v)] = np.nan
            v = v.view(np.uint64)
        else:
            raise TypeError(f"no content hash for Arrow type {t}")
        h = _mix(v)
    if arr.null_count:
        h[arr.is_null().to_numpy(zero_copy_only=False)] = _NULL
    return h


def row_hashes(table: pa.Table, columns: list[str] | None = None) -> np.ndarray:
    """Per-row 64-bit hashes, computed from each column's Arrow type and
    values (``_array_hashes``) and folded across the columns by position.
    Vectorized over Arrow buffers: no per-row Python call, no pandas
    conversion. A row's hash depends on its values alone, so the sum of
    the row hashes (``content_hash``) is additive over any split of the
    rows into slices, chunks or files."""
    table = table.select(columns or table.column_names)
    cols = [_array_hashes(col.combine_chunks()) for col in table.columns]
    return _fields(cols, table.num_rows)


def content_hash(table: pa.Table, columns: list[str] | None = None) -> int:
    """Order-independent content hash: uint64 wrap-around sum of row hashes."""
    if table.num_rows == 0:
        return 0
    return int(row_hashes(table, columns).sum(dtype=np.uint64))


# content_hash is a sum mod 2^64, so partial hashes over disjoint row sets
# (row groups, files, write tasks) add up to the hash of their union.
HASH_MASK = 0xFFFFFFFFFFFFFFFF


def content_hash_of_dir(frag_dir: str, columns: list[str] | None = None) -> tuple[int, int]:
    """(content_hash, num_rows) of a written fragment directory, read
    back one row group at a time — never a whole fragment in memory.

    The lineage pass certifies what is actually on disk. Under
    ``run_resumable`` each write task reads back the files it has just
    written and hashes their rows in one ``row_hashes`` call
    (``checkpoint._LineageSink``), and the driver adds the per-file
    partials, so the driver never re-reads output; this whole-directory
    form is the reference those partials must sum to
    (tests/test_checkpoint.py)."""
    import pyarrow.parquet as pq

    total = 0  # Python int accumulator, masked to uint64 wraparound
    rows = 0
    for name in sorted(n for n in os.listdir(frag_dir) if n.endswith(".parquet")):
        f = pq.ParquetFile(os.path.join(frag_dir, name))
        for rg in range(f.num_row_groups):
            t = f.read_row_group(rg)
            rows += t.num_rows
            total = (total + content_hash(t, columns)) & HASH_MASK
    return total, rows


def lineage_for_table(
    frag_id: str,
    path: str,
    table: pa.Table,
    *,
    wall_s: float = 0.0,
    columns: list[str] | None = None,
) -> dict:
    return {
        "fragment_id": frag_id,
        "path": path,
        "num_rows": table.num_rows,
        "row_start": 0,
        "row_end": table.num_rows,
        "content_hash": content_hash(table, columns),
        "wall_s": wall_s,
    }
