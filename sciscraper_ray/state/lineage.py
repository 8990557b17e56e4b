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

The reference has no lineage or resume at all (reruns start from scratch,
/root/reference/src/fetch.py:236-263); this module is the scale-mandated
addition.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
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


def row_hashes(table: pa.Table, columns: list[str] | None = None) -> np.ndarray:
    """Vectorized per-row 64-bit hashes (pandas hash_pandas_object — no
    Python loop). Lists/structs are stringified first; binary is hashed by
    content."""
    cols = columns or table.column_names

    def stringify(v):
        # numpy arrays repr-truncate beyond 1000 elements, which would make
        # the content hash blind to mid-array differences — go through
        # tolist() (exact, full-length; float repr round-trips).
        if isinstance(v, np.ndarray):
            return repr(v.tolist())
        return repr(v)

    df = table.select(cols).to_pandas()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].map(stringify, na_action="ignore")
    return pd.util.hash_pandas_object(df, index=False).to_numpy()


def content_hash(table: pa.Table, columns: list[str] | None = None) -> int:
    """Order-independent content hash: uint64 wrap-around sum of row hashes."""
    if table.num_rows == 0:
        return 0
    return int(row_hashes(table, columns).sum(dtype=np.uint64))


# content_hash is a sum mod 2^64, so partial hashes over disjoint row sets
# (row groups, files, write tasks) add up to the hash of their union.
HASH_MASK = 0xFFFFFFFFFFFFFFFF


def content_hash_of_files(paths, columns: list[str] | None = None) -> tuple[int, int]:
    """(content_hash, num_rows) of the rows in these parquet files, read
    back one row group at a time — never a whole fragment in memory."""
    import pyarrow.parquet as pq

    total = 0  # Python int accumulator, masked to uint64 wraparound
    rows = 0
    for path in paths:
        f = pq.ParquetFile(path)
        for rg in range(f.num_row_groups):
            t = f.read_row_group(rg)
            rows += t.num_rows
            if t.num_rows:
                total = (total + int(row_hashes(t, columns).sum(dtype=np.uint64))) & HASH_MASK
    return total, rows


def content_hash_of_dir(frag_dir: str, columns: list[str] | None = None) -> tuple[int, int]:
    """(content_hash, num_rows) of a written fragment directory.

    The lineage pass certifies what is actually on disk. Under
    ``run_resumable`` each write task calls :func:`content_hash_of_files`
    on the files it has just written, and the driver adds the partials, so
    the driver never re-reads output; this whole-directory form is the
    reference those partials must sum to (tests/test_checkpoint.py)."""
    names = sorted(n for n in os.listdir(frag_dir) if n.endswith(".parquet"))
    return content_hash_of_files([os.path.join(frag_dir, n) for n in names], columns)


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
