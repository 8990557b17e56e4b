"""Query registry package: named Ray pipelines + matching DuckDB oracles.

Each family module registers its queries into the shared ``QUERIES`` /
``ORACLE`` dicts on import; the import order below fixes registration
order, and ``_order`` rotates the never-driver-checked queries to the
front (the driver samples a prefix). The package exports only the
registry (``QUERIES``, ``ORACLE``, ``NOT_RUN``, ``register``); import a
query function or helper from its family module.
"""

from __future__ import annotations

from sciscraper_ray.pipelines.queries._shared import (  # noqa: F401
    NOT_RUN,
    ORACLE,
    QUERIES,
    register,
)
from sciscraper_ray.pipelines.queries import (  # noqa: F401  isort: skip
    doc_analysis,
    relational,
    events,
    dedup,
    embed,
    text_analysis,
    cleaning,
    extraction,
    round2,
    corpus_ops,
    retrieval,
    web_graph,
)
from sciscraper_ray.pipelines.queries import _order  # noqa: F401

