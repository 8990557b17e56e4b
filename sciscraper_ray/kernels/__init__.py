"""Pure kernels: exact reference semantics, vectorized where hot.

Each kernel is a pure function over Python scalars or Arrow/numpy arrays.
No Ray imports here — kernels are unit-testable without a cluster and are
called from ``map_batches`` UDFs in ``sciscraper_ray.stages`` and the query
registry.

Two rules have exactly one owner each, and nothing else re-derives them
(``tests/test_kernel_owner_lint.py``):

- the reference tokenizer, ``tokenize.format_manuscript`` for one string
  and ``tokenize.tokenize_column`` for a column (always a
  ``pa.ChunkedArray``);
- the md5 keys the registry's samplers, sketches and Bloom filters share
  with their DuckDB oracles, ``md5.md5_hex15`` (with its SQL twin
  ``md5_hex15_sql``), ``md5.md5_hash128`` and ``md5.md5_hex``.
"""

from sciscraper_ray.kernels.wordscore import calculate_likelihood, wordscore_vec
from sciscraper_ray.kernels.tokenize import format_manuscript, tokenize_column
from sciscraper_ray.kernels.terms import match_terms, top_terms_exploded
from sciscraper_ray.kernels.identifiers import extract_identifier, standardize_identifier
from sciscraper_ray.kernels.parentheticals import find_parentheticals
from sciscraper_ray.kernels.links import format_download_link, search_field_for

__all__ = [
    "calculate_likelihood",
    "wordscore_vec",
    "format_manuscript",
    "tokenize_column",
    "match_terms",
    "top_terms_exploded",
    "extract_identifier",
    "standardize_identifier",
    "find_parentheticals",
    "format_download_link",
    "search_field_for",
]
