"""Term-matching kernel: per-document top-3 frequency of word-set matches.

Reference semantics (/root/reference/src/docscraper.py:55-94):
``Counter(w for w in tokens if w in word_set).most_common(3)`` and
``term_count`` = sum of those top-3 counts (NOT the count of all matches).

``Counter.most_common`` tie-break: equal counts keep dict insertion order,
i.e. FIRST-OCCURRENCE order of the token in the document. The vectorized
form reproduces that via a per-group lexsort on (-count, first_occurrence).

Tokens are counted by vocabulary id: one ``pc.index_in`` over the flat
token buffer against ``sorted(word_set)`` gives each matching token its
position in the sorted vocabulary, and non-matches come back null. No
token is converted to a Python ``str``; the output strings are taken from
the vocabulary by id.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def match_terms(tokens: Iterable[str], word_set: frozenset[str] | set[str]):
    """Scalar reference-parity form: -> (term_count, [(token, count) x<=3])."""
    dist = Counter(w for w in tokens if w in word_set).most_common(3)
    return sum(c for _, c in dist), dist


def top_terms_exploded(
    token_lists: pa.Array | pa.ChunkedArray,
    word_set: frozenset[str] | set[str],
    k: int = 3,
) -> dict:
    """Vectorized per-document top-k matched-term frequencies.

    Input: a list<string> column (one token list per document) and a word
    set. Output (exploded, one row per (document, top-k term)):

    - ``parent``: int64 index of the document within the input column
    - ``token``:  matched token (object array of str)
    - ``count``:  occurrences of the token in that document
    - ``rank``:   1..k, ordered by (count desc, first occurrence asc)

    plus ``term_count``: int64 array of len(input) with the per-document sum
    of the top-k counts (0 where no matches) — the reference's
    ``FreqDistAndCount.term_count`` — and, for Arrow consumers, ``vocab``
    (the sorted word set as an Arrow array) with ``token_id``, each
    exploded row's index into it.
    """
    if isinstance(token_lists, pa.ChunkedArray):
        token_lists = token_lists.combine_chunks()
    n_docs = len(token_lists)
    empty = dict(
        parent=np.empty(0, np.int64),
        token=np.empty(0, object),
        count=np.empty(0, np.int64),
        rank=np.empty(0, np.int64),
        term_count=np.zeros(n_docs, np.int64),
        token_id=np.empty(0, np.int64),
        vocab=pa.array([], pa.string()),
    )
    if n_docs == 0:
        return empty

    flat = pc.list_flatten(token_lists)
    if len(flat) == 0:
        return empty
    words = sorted(word_set)
    vocab = pa.array(words, type=flat.type)
    ids = pc.fill_null(pc.index_in(flat, value_set=vocab), -1).to_numpy()
    hit_pos = np.flatnonzero(ids >= 0)
    if hit_pos.size == 0:
        return empty
    tok_ids = ids[hit_pos].astype(np.int64)
    # Parent of each hit from the per-document lengths, which count only
    # the values list_flatten emits (pc.list_parent_indices also counts
    # the hidden values behind a null list slot).
    lengths = pc.fill_null(pc.list_value_length(token_lists), 0).to_numpy()
    mparents = np.searchsorted(np.cumsum(lengths), hit_pos, side="right")

    # Encode (doc, token id) pairs into a single int key for one-pass
    # counting. Ids follow the sorted vocabulary, the order np.unique
    # would give the matched strings.
    n_tok = len(words)
    pair_key = mparents * n_tok + tok_ids

    # hit_pos is ascending, so a stable sort by pair_key puts each group's
    # first occurrence first — giving us the Counter insertion-order key.
    order = np.argsort(pair_key, kind="stable")
    sorted_key = pair_key[order]
    group_starts = np.concatenate(([0], np.nonzero(np.diff(sorted_key))[0] + 1))
    counts = np.diff(np.concatenate((group_starts, [len(sorted_key)])))
    first_occ = hit_pos[order][group_starts]
    gkey = sorted_key[group_starts]
    gdoc = gkey // n_tok
    gtok = gkey % n_tok

    # Rank within each document by (count desc, first occurrence asc).
    rank_order = np.lexsort((first_occ, -counts, gdoc))
    rdoc = gdoc[rank_order]
    doc_starts = np.concatenate(([0], np.nonzero(np.diff(rdoc))[0] + 1))
    rank = np.arange(len(rdoc)) - np.repeat(doc_starts, np.diff(np.concatenate((doc_starts, [len(rdoc)]))))
    keep = rank < k

    kdoc = rdoc[keep]
    kcount = counts[rank_order][keep]
    term_count = np.zeros(n_docs, np.int64)
    np.add.at(term_count, kdoc, kcount)

    kid = gtok[rank_order][keep]
    return dict(
        parent=kdoc.astype(np.int64),
        token=np.array(words, dtype=object)[kid],
        token_id=kid,
        vocab=vocab,
        count=kcount.astype(np.int64),
        rank=(rank[keep] + 1).astype(np.int64),
        term_count=term_count,
    )
