"""Query registry package: named Ray pipelines + matching DuckDB oracles.

Round-4 split of the former single-file ``pipelines/queries.py`` (9.7k
lines) into family modules (VERDICT r3 item 10). Each module registers its
queries into the shared ``QUERIES`` / ``ORACLE`` dicts on import; the
import order below fixes registration order, and ``_order`` rotates the
never-driver-checked queries to the front (the driver samples a prefix).

Backward compatibility: every module-level name of every family module is
hoisted into this package namespace, so existing imports like
``from sciscraper_ray.pipelines.queries import knn_cosine, _GOPHER_STOPS``
keep working unchanged (tests and __ray_entry__ rely on this).
"""

from __future__ import annotations

from sciscraper_ray.pipelines.queries._shared import (  # noqa: F401
    NOT_RUN,
    ORACLE,
    QUERIES,
    register,
)
from sciscraper_ray.pipelines.queries import (  # noqa: F401  isort: skip
    doc_analysis as _m_doc_analysis,
    relational as _m_relational,
    events as _m_events,
    dedup as _m_dedup,
    embed as _m_embed,
    text_analysis as _m_text_analysis,
    media as _m_media,
    cleaning as _m_cleaning,
    extraction as _m_extraction,
    round2 as _m_round2,
    corpus_ops as _m_corpus_ops,
    retrieval as _m_retrieval,
    web_graph as _m_web_graph,
)
from sciscraper_ray.pipelines.queries import _order as _m_order  # noqa: F401

# Hoist every module-level name (public and private) so the package is a
# drop-in replacement for the old flat module.
for _m in (
    _m_doc_analysis,
    _m_relational,
    _m_events,
    _m_dedup,
    _m_embed,
    _m_text_analysis,
    _m_media,
    _m_cleaning,
    _m_extraction,
    _m_round2,
    _m_corpus_ops,
    _m_retrieval,
    _m_web_graph,
):
    globals().update(
        {
            _k: _v
            for _k, _v in vars(_m).items()
            if not _k.startswith("__")
        }
    )
del _m
