"""Flagship pipeline: the reference's ``fastscore`` mode re-expressed
(/root/reference/src/factories.py:38-52,101 — read text rows, run the
document analyzer, emit the scored table).

Shape: ``read_parquet(columns pruned)`` → ``map_batches(DocAnalyzer(),
pyarrow, zero-copy)`` → (caller consumes / writes). At 100 TB this is
embarrassingly parallel — no shuffle anywhere.
"""

from __future__ import annotations

import ray.data

from sciscraper_ray.pipelines.plan import read_parquet
from sciscraper_ray.stages.doc_analyzer import DocAnalyzer


def wordscore_pipeline(
    source: str | ray.data.Dataset,
    *,
    text_column: str = "text",
    key_columns: tuple[str, ...] = ("doc_id",),
    batch_size: int = 2048,
) -> ray.data.Dataset:
    """Score every document: tokenize, match terms, wordscore, top-3s.

    ``source`` is a parquet path (columns are pruned to key+text at the
    read) or an existing Dataset that already has ``text_column``.
    DocAnalyzer runs as a task over a serialized instance (its state is two
    frozen word sets), so it shares every CPU slot with the read.
    """
    if isinstance(source, str):
        ds = read_parquet(source, columns=[*key_columns, text_column])
    else:
        ds = source
    return ds.map_batches(
        DocAnalyzer(text_column=text_column),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
    )
