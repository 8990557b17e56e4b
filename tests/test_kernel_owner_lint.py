"""Structural guard: the tokenizer and the md5 key rule each have one owner.

The engine's byte-identical outputs rest on two rules that used to be
re-derived by hand across the query registry:

  * the reference tokenizer, ``strip().lower().split(" ")``
    (docscraper.py:176-186), owned by ``kernels/tokenize.py``:
    ``format_manuscript`` for one string, ``tokenize_column`` for a
    column. ``tokenize_column`` always returns a ``pa.ChunkedArray``, so
    no caller tests for one;
  * the md5 keys that samplers, sketches and Bloom filters share with
    their DuckDB oracles (hex15, the 128-bit halves, the hex column),
    owned by ``kernels/md5.py``.

This lint fails with the file:line list on any new inline copy:

  * ``hashlib.md5(`` anywhere in ``sciscraper_ray/`` outside
    ``kernels/md5.py``;
  * a ``pa.ChunkedArray`` test within two lines after a
    ``tokenize_column(`` call;
  * ``.lower().split(" ")`` outside ``kernels/tokenize.py``.
"""

from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "sciscraper_ray"
MD5_OWNER = PKG / "kernels" / "md5.py"
TOKENIZE_OWNER = PKG / "kernels" / "tokenize.py"


def _lines():
    for path in sorted(PKG.rglob("*.py")):
        yield path, path.read_text().splitlines()


def _where(path: Path, i: int, line: str) -> str:
    return f"{path.relative_to(PKG.parent)}:{i + 1}: {line.strip()[:90]}"


def test_md5_has_one_owner():
    offenders = [
        _where(path, i, line)
        for path, lines in _lines()
        if path != MD5_OWNER
        for i, line in enumerate(lines)
        if "hashlib.md5(" in line
    ]
    assert not offenders, (
        "inline md5 outside kernels/md5.py (use md5_hex15 / md5_hash128 / "
        "md5_hex):\n" + "\n".join(offenders)
    )


def test_tokenize_column_callers_do_not_test_for_chunked_array():
    offenders = [
        _where(path, j, lines[j])
        for path, lines in _lines()
        for i, line in enumerate(lines)
        if "tokenize_column(" in line and "def tokenize_column(" not in line
        for j in range(i + 1, min(i + 3, len(lines)))
        if "pa.ChunkedArray" in lines[j]
    ]
    assert not offenders, (
        "tokenize_column always returns a ChunkedArray; write "
        "tokenize_column(x).combine_chunks():\n" + "\n".join(offenders)
    )


def test_tokenizer_has_one_owner():
    offenders = [
        _where(path, i, line)
        for path, lines in _lines()
        if path != TOKENIZE_OWNER
        for i, line in enumerate(lines)
        if '.lower().split(" ")' in line
    ]
    assert not offenders, (
        "inline copy of the reference tokenizer outside kernels/tokenize.py "
        "(use format_manuscript / tokenize_column):\n" + "\n".join(offenders)
    )
