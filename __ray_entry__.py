"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship wordscore/extraction pipeline on sf0.001;
``queries()``/``oracle_sql()`` expose every implemented operator from
SURVEY.md §2 plus the scale extensions (dedup, ANN, text analysis).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in sciscraper_ray) calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship: the full page-table extraction pipeline on sf0.001 —
    synthesized Common-Crawl-style pages (mixed HTML/PDF payloads,
    duplicate fetches) -> keep-latest url dedup -> payload routing ->
    HTML/PDF extraction -> DocAnalyzer."""
    from sciscraper_ray.pipelines.queries.extraction import (
        page_extract_pipeline,
    )

    return page_extract_pipeline("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from sciscraper_ray.pipelines.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from sciscraper_ray.pipelines.queries import ORACLE

    return dict(ORACLE)
