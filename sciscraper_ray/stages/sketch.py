"""Distributed cardinality sketch: HyperLogLog (Flajolet et al. 2007).

The textbook distributed-sketch shape on Ray Data: ``map_batches`` emits a
PARTIAL register table (≤ m rows per batch — (bucket, max rho)), a tiny
``groupby(bucket).aggregate(Max)`` merges them, and the driver reads m
rows total regardless of corpus size. Registers are built from an
md5-derived hash so an exact SQL oracle can recompute the IDENTICAL
register table from first principles (the estimate itself is then a pure
function of the registers, unit-tested for accuracy).

Hash layout (mirrored in the oracle SQL): h = first 15 hex chars of
md5(str(value)) as a 60-bit int; bucket = h % m; rho = position of the
most significant 1-bit of the remaining 54 bits counted from the top
(all-zero remainder -> 55).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from sciscraper_ray.kernels.md5 import md5_hex15

M_BUCKETS = 64
_REM_BITS = 60 - 6  # 54


def hll_partial_batch(batch: pa.Table, col: str) -> pa.Table:
    """Per-batch partial registers: (bucket, rho) with rho already maxed
    within the batch — at most ``M_BUCKETS`` rows leave the task. One
    md5_hex15 call + one np.maximum.at scatter (the md5 calls are the
    irreducible cost; everything after is numpy)."""
    vals = [v for v in batch[col].to_pylist() if v is not None]
    regs = np.zeros(M_BUCKETS, np.int64)
    if vals:
        h = md5_hex15(map(str, vals))
        rem = h >> 6
        rho = np.where(rem == 0, 55, _REM_BITS - _bit_length_u64(rem) + 1)
        np.maximum.at(regs, h % M_BUCKETS, rho)
    hit = np.nonzero(regs)[0]
    return pa.table(
        {
            "bucket": pa.array(hit.astype(np.int64)),
            "rho": pa.array(regs[hit]),
        }
    )


def hll_estimate(registers: dict[int, int], m: int = M_BUCKETS) -> float:
    """Standard HLL estimate from merged registers (missing buckets are
    zero), with the small-range linear-counting correction."""
    alpha = {16: 0.673, 32: 0.697, 64: 0.709}.get(
        m, 0.7213 / (1 + 1.079 / m)
    )
    regs = np.zeros(m, np.float64)
    for b, r in registers.items():
        regs[b] = r
    est = alpha * m * m / np.sum(np.power(2.0, -regs))
    zeros = int(np.sum(regs == 0))
    if est <= 2.5 * m and zeros > 0:
        est = m * np.log(m / zeros)
    return float(est)


def _bit_length_u64(x: np.ndarray) -> np.ndarray:
    """Exact integer bit_length, vectorized (no float round-trip — values
    can exceed 2^53 where log2 would misround at powers of two)."""
    r = x.astype(np.uint64).copy()
    bl = np.zeros(len(r), np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        m = r >= np.uint64(1 << s)
        bl[m] += s
        r[m] >>= np.uint64(s)
    return bl + (r > 0)


def hll_grouped_partial_batch(
    batch: pa.Table, key_col: str, col: str
) -> pa.Table:
    """Per-(group, bucket) partial registers, fully vectorized: one
    md5_hex15 call for the batch, dictionary-coded group keys,
    and a single np.maximum.at scatter — at most |groups| x M_BUCKETS
    rows leave the task regardless of batch size."""
    import pyarrow.compute as pc

    keys = batch[key_col]
    vals = batch[col]
    valid = pc.and_(pc.is_valid(keys), pc.is_valid(vals))
    t = batch.filter(valid)
    if not t.num_rows:
        return pa.table(
            {
                key_col: pa.array([], pa.string()),
                "bucket": pa.array([], pa.int64()),
                "rho": pa.array([], pa.int64()),
            }
        )
    v = t[col].to_pylist()
    h = md5_hex15(map(str, v))
    bucket = h % M_BUCKETS
    rem = h >> 6
    rho = np.where(rem == 0, 55, _REM_BITS - _bit_length_u64(rem) + 1)
    enc = pc.dictionary_encode(
        t[key_col].combine_chunks()
        if isinstance(t[key_col], pa.ChunkedArray)
        else t[key_col]
    )
    codes = np.asarray(enc.indices).astype(np.int64)
    uniques = enc.dictionary.to_pylist()
    regs = np.zeros(len(uniques) * M_BUCKETS, np.int64)
    np.maximum.at(regs, codes * M_BUCKETS + bucket, rho)
    hit = np.nonzero(regs)[0]
    return pa.table(
        {
            key_col: pa.array(
                [uniques[i] for i in (hit // M_BUCKETS)], pa.string()
            ),
            "bucket": pa.array((hit % M_BUCKETS).astype(np.int64)),
            "rho": pa.array(regs[hit]),
        }
    )
