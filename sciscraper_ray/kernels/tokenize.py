"""Tokenizer kernel — the reference's quirky single-space split.

``format_manuscript`` (/root/reference/src/docscraper.py:176-186) is
``preprint.strip().lower().split(" ")``: split on a SINGLE SPACE only, so
runs of whitespace/newlines yield empty-string tokens. That quirk is
load-bearing for ``total_word_count`` and the wordscore denominator, so the
vectorized form reproduces it exactly:

- strip  -> ``pc.utf8_trim_whitespace`` (unicode whitespace, like str.strip)
- lower  -> ``pc.utf8_lower``
- split  -> ``pc.split_pattern(..., pattern=" ")`` (keeps empty tokens, like
  str.split(" "))
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def format_manuscript(preprint: str) -> list[str]:
    """Scalar reference-parity tokenizer."""
    return preprint.strip().lower().split(" ")


def tokenize_column(text: pa.ChunkedArray | pa.Array) -> pa.ChunkedArray:
    """Vectorized tokenizer: string column -> list<string> ChunkedArray.

    Element i equals ``format_manuscript(text[i])`` exactly. Nulls stay null.
    Always a ChunkedArray (a ``pa.Array`` input is wrapped as one chunk),
    so a caller that needs one ListArray writes
    ``tokenize_column(x).combine_chunks()``.
    """
    if isinstance(text, pa.Array):
        text = pa.chunked_array([text])
    cleaned = pc.utf8_lower(pc.utf8_trim_whitespace(text))
    return pc.split_pattern(cleaned, pattern=" ")


def segment_column(
    text: pa.ChunkedArray | pa.Array, width: int
) -> tuple["np.ndarray", "np.ndarray", pa.Array]:
    """Split each document into fixed-width token segments, vectorized.

    Returns ``(row_idx, seg_no, seg_text)`` — one entry per segment, in
    (row, seg_no) order. ``row_idx`` indexes into the input column,
    ``seg_no`` counts ``width``-token windows within the row, ``seg_text``
    is the single-space re-join of that window (so joining a row's
    segments with " " reproduces its tokenized text exactly). Null texts
    yield no segments, mirroring SQL ``unnest(string_split(NULL))``.

    No Python loop: segment boundaries are arithmetic over the token
    ListArray's offsets, and each segment is a contiguous slice of the
    flat token buffer, so one ``pc.binary_join`` over a re-offset
    ListArray builds every segment string zero-copy from the tokens.
    """
    import numpy as np

    toks = tokenize_column(text).combine_chunks()
    offs = np.asarray(toks.offsets)
    starts, ends = offs[:-1].astype(np.int64), offs[1:].astype(np.int64)
    # null rows carry start == end in the offsets, so they already produce
    # zero segments; nothing to mask explicitly.
    n_toks = ends - starts
    n_segs = -(-n_toks // width)  # ceil; 0 for empty/null rows
    total = int(n_segs.sum())
    row_idx = np.repeat(np.arange(len(n_segs), dtype=np.int64), n_segs)
    seg_no = np.arange(total, dtype=np.int64) - np.repeat(
        np.concatenate(([0], np.cumsum(n_segs)[:-1])), n_segs
    )
    seg_start = starts[row_idx] + width * seg_no
    # every flat token belongs to exactly one segment, in order, so the
    # segment starts plus the global end form valid ListArray offsets
    new_offsets = np.append(seg_start, offs[-1]).astype(np.int32)
    seg_list = pa.ListArray.from_arrays(
        pa.array(new_offsets, pa.int32()), toks.values
    )
    return row_idx, seg_no, pc.binary_join(seg_list, " ")
