"""Word sets for term matching — the actor-state analog of the reference's
``words/target_words.txt`` / ``words/bycatch_words.txt`` files.

The reference re-reads both files per document (docscraper.py:146-147);
here the sets are frozen module constants loaded once per worker process
and embedded verbatim in the DuckDB oracle SQL so both sides agree.

The vocabulary is chosen to overlap the synthetic ``documents`` test table
(31-token vocabulary) so match counts are non-trivial at every scale.
"""

from __future__ import annotations

from pathlib import Path

# Checkout of the reference implementation (its production word lists and
# test fixtures). The one place its location is set: the query registry and
# the reference-fixture tests all build their paths from it. Optional —
# what needs it registers only when present.
REFERENCE_ROOT = Path.home() / "reference"

# Query/engine-flavored "relevant" terms.
TARGET_WORDS: frozenset[str] = frozenset(
    {
        "join",
        "hash",
        "merge",
        "sort",
        "scan",
        "group",
        "query",
        "vector",
        "stream",
        "window",
        "filter",
        "agg",
    }
)

# Noise/"bycatch" terms.
BYCATCH_WORDS: frozenset[str] = frozenset(
    {
        "slow",
        "dup",
        "the",
        "a",
        "big",
    }
)


def sql_in_list(words: frozenset[str]) -> str:
    """Render a word set as a deterministic SQL IN-list literal."""
    return "(" + ", ".join(f"'{w}'" for w in sorted(words)) + ")"


def load_word_file(path: str) -> frozenset[str]:
    """Reference-parity loader: one term per line, strip().lower()
    (docscraper.py:110-127)."""
    with open(path, encoding="utf-8") as fh:
        return frozenset(line.strip().lower() for line in fh)
