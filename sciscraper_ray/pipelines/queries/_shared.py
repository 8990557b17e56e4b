"""Query registry: named Ray pipelines + matching DuckDB oracle SQL.

Each entry is one operator/pipeline from SURVEY.md §2 (or a scale-oriented
extension: dedup, ANN, text analysis). The callable takes ``sf_dir`` and
returns a Dataset / pandas DataFrame / pyarrow Table; ``ORACLE[name]`` is
ANSI SQL DuckDB runs over the same parquet tables (views: region nation
customer supplier part orders lineitem events documents embeddings).

Column names match between both sides — the driver's compare sorts columns
by name and value-hashes. Floating aggregates are rounded identically on
both sides. Word sets are embedded in the SQL from the same constants the
actors load (sciscraper_ray.words).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from sciscraper_ray.words import BYCATCH_WORDS, TARGET_WORDS, sql_in_list

QUERIES: dict[str, Callable[[str], Any]] = {}
ORACLE: dict[str, str] = {}
# Queries left unregistered because an input they need is absent, with the
# reason; the correctness harness lists them as not run.
NOT_RUN: dict[str, str] = {}


def register(name: str, oracle: str | None = None):
    def deco(fn):
        QUERIES[name] = fn
        if oracle is not None:
            ORACLE[name] = oracle
        return fn

    return deco


def _docs(sf_dir: str, columns=("doc_id", "text")):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=list(columns))


def cents(values) -> np.ndarray:
    """Exact cents as int64 from a 2-decimal float column (Arrow, pandas or
    numpy).

    np.round is banker's rounding while the DuckDB oracles' round() is
    half-away-from-zero; the two diverge only when v*100 lands exactly
    on .5 in binary. Fixture prices are generated with exactly 2
    decimals, so v*100 is always within 1e-10 of an integer and the
    .5 case cannot occur (verified over sf0.01: 0 of 10^4 values) —
    the same argument covers every query that discretizes value/price
    to cents (KS/EMD/Holt/Viterbi/Theil-Sen included; ADVICE r4). A
    non-2-decimal source would need a shared half-away helper
    (floor(v*100+0.5)) on BOTH engine and oracle sides first.
    """
    return np.round(np.asarray(values) * 100).astype(np.int64)


# SQL fragment shared by tokenizing oracles: the reference tokenizer
# (kernels.tokenize.format_manuscript, docscraper.py:176-186).
_SQL_TOKENS = "string_split(lower(trim(text)), ' ')"

# Per-document matched-term counts ranked like Counter.most_common:
# count desc, first-occurrence asc (docscraper.py:83-87).
def _sql_ranked(word_sql: str, table: str = "documents") -> str:
    return f"""
    WITH toks AS (
        SELECT doc_id,
               unnest({_SQL_TOKENS}) AS token,
               unnest(range(len({_SQL_TOKENS}))) AS ord
        FROM {table}
    ), counts AS (
        SELECT doc_id, token, count(*) AS cnt, min(ord) AS first_ord
        FROM toks WHERE token IN {word_sql}
        GROUP BY doc_id, token
    ), ranked AS (
        SELECT doc_id, token, cnt,
               row_number() OVER (
                   PARTITION BY doc_id ORDER BY cnt DESC, first_ord ASC
               ) AS rnk
        FROM counts
    )
    """


