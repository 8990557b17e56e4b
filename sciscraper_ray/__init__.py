"""sciscraper_ray — a Ray-Data-native bulk document extraction/analysis engine.

A from-scratch rebuild of the query and data-processing capabilities of
Pathos315/sciscraper (reference at /root/reference, cited by file:line in
docstrings) expressed as ``ray.data.Dataset`` pipelines:

- pure kernels (``kernels/``) pin the reference's exact per-document
  semantics (tokenizer, wordscore, top-3 term frequencies, DOI/arXiv
  normalization, parenthetical mining) as vectorized Arrow/numpy functions;
- stages (``stages/``) wrap kernels into ``map_batches`` callables — ones
  with state (word sets, compiled regexes, layout heuristics) are classes
  with setup in ``__init__``, mapped as tasks over a serialized instance;
- sources (``sources/``) read/synthesize Common-Crawl-style page tables;
- pipelines (``pipelines/``) compose named end-to-end dataflows, the analog
  of the reference's SCISCRAPERS factory registry (factories.py:26-103);
- state (``state/``) provides partition-granular lineage + resume.

Nothing in this package calls ``ray.init``/``ray.shutdown`` — sessions are
owned by the caller (bench.py, CLI, test fixtures, or the driver).
"""

__version__ = "0.1.0"
