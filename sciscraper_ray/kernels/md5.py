"""md5 key kernels: the one owner of the registry's md5-derived keys.

Samplers, sketches, Bloom filters and dedup keys hash rows with md5 so a
DuckDB oracle can recompute the identical key in SQL:

- ``md5_hex15`` is the "hex15" key: the first 15 hex digits of md5(s)
  read as a 60-bit int, ``int(hexdigest[:15], 16)``, which is the
  big-endian first 8 digest bytes ``>> 4``. ``md5_hex15_sql`` is its
  DuckDB twin. Salts and ``% m`` stay with the caller.
- ``md5_hash128`` is the full 128-bit md5 as two int64 halves.
- ``md5_hex`` is the md5 hex column, DuckDB's ``md5()``.

Strings hash as their UTF-8 bytes (DuckDB's ``md5(VARCHAR)``). Every
kernel joins the per-row digests into one buffer and parses it with one
numpy view: no per-row hex parsing.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence

import numpy as np
import pyarrow as pa

_NULL_DIGEST = bytes(16)


def _md5(value: str | bytes):
    return hashlib.md5(value.encode() if isinstance(value, str) else value)


def md5_hex15(strings: Iterable[str]) -> np.ndarray:
    """int64 hex15 key of each string, ``int(md5(s).hexdigest()[:15], 16)``."""
    digests = b"".join(hashlib.md5(s.encode()).digest() for s in strings)
    return (np.frombuffer(digests, ">u8")[::2] >> np.uint64(4)).astype(np.int64)


def md5_hex15_sql(expr: str) -> str:
    """DuckDB expression equal to ``md5_hex15`` of the VARCHAR ``expr``:
    the first 15 hex digits of ``md5(expr)`` parsed positionally to a
    BIGINT."""
    hexsum = " + ".join(
        f"(strpos('0123456789abcdef', substr(md5({expr}), {j + 1}, 1)) - 1) * {16 ** (14 - j)}"
        for j in range(15)
    )
    return f"({hexsum})"


def md5_hash128(
    values: Sequence[str | bytes | None],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(hi, lo, valid): the full 128-bit md5 of each value as two int64
    bit-views of its big-endian halves, offset to signed: hi equals
    ``int(hexdigest[:16], 16) - 2**63`` and lo ``int(hexdigest[16:], 16)
    - 2**63``. The two's-complement reading of a half
    (``int.from_bytes(half, "big", signed=True)``) differs only in the top
    bit. A None value (a null row, never a duplicate of another) carries
    valid=False and the halves of sixteen zero bytes."""
    valid = np.fromiter((v is not None for v in values), bool, len(values))
    digests = b"".join(
        _NULL_DIGEST if v is None else _md5(v).digest() for v in values
    )
    words = np.frombuffer(digests, ">u8").reshape(-1, 2)
    halves = (words ^ np.uint64(1 << 63)).view(np.int64)
    return halves[:, 0].copy(), halves[:, 1].copy(), valid


def md5_hex(values: Iterable[str | bytes | None]) -> pa.Array:
    """md5 hex string of each value (DuckDB's ``md5()``); None stays null."""
    return pa.array(
        [None if v is None else _md5(v).hexdigest() for v in values],
        type=pa.string(),
    )
