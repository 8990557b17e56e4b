"""DocAnalyzer — the fused per-document analysis stage.

The Ray-Data re-expression of the reference's ``DocScraper.obtain``
(/root/reference/src/docscraper.py:129-174) text path: tokenize →
target/bycatch top-3 term matching → wordscore → parenthetical mining, all
emitted as one wide Arrow batch. Differences from the reference that are
deliberate scale fixes:

- word sets are frozen in ``__init__`` once per instance (the reference
  re-reads both .txt files per document — docscraper.py:146-147);
- everything except the parenthetical regex is vectorized Arrow/numpy;
- rows never crash the task: nulls propagate as zero-count/empty rows.

Use as a task over a serialized instance: ``ds.map_batches(DocAnalyzer(),
batch_format="pyarrow", zero_copy_batch=True, batch_size=...)``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from sciscraper_ray.kernels.parentheticals import parentheticals_array
from sciscraper_ray.kernels.terms import top_terms_exploded
from sciscraper_ray.kernels.tokenize import tokenize_column
from sciscraper_ray.kernels.wordscore import wordscore_vec
from sciscraper_ray.words import BYCATCH_WORDS, TARGET_WORDS

TOP_TERMS_TYPE = pa.list_(
    pa.struct([("token", pa.string()), ("count", pa.int64())])
)


def _top_terms_list_array(out: dict[str, np.ndarray], n_docs: int) -> pa.ListArray:
    """Exploded top-k arrays -> list<struct<token,count>> (empty list when
    a document has no matches). Exploded rows arrive ordered by (doc, rank)."""
    per_doc = np.bincount(out["parent"], minlength=n_docs) if len(out["parent"]) else np.zeros(n_docs, np.int64)
    offsets = np.zeros(n_docs + 1, np.int64)
    np.cumsum(per_doc, out=offsets[1:])
    values = pa.StructArray.from_arrays(
        [pa.array(out["token"], type=pa.string()), pa.array(out["count"], type=pa.int64())],
        names=["token", "count"],
    )
    return pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), values)


class DocAnalyzer:
    """Stateful analysis stage over a ``text`` column.

    Emits (appended to the incoming batch): ``matching_terms`` int32,
    ``bycatch_terms`` int32, ``total_word_count`` int32, ``wordscore``
    float64, ``target_terms_top_3`` / ``bycatch_terms_top_3``
    list<struct<token,count>>, ``paper_parentheticals`` list<string>.
    """

    def __init__(
        self,
        target_words: frozenset[str] = TARGET_WORDS,
        bycatch_words: frozenset[str] = BYCATCH_WORDS,
        text_column: str = "text",
        with_parentheticals: bool = True,
        with_identifiers: bool = False,
    ):
        self.target_words = frozenset(target_words)
        self.bycatch_words = frozenset(bycatch_words)
        self.text_column = text_column
        self.with_parentheticals = with_parentheticals
        # EP1 parity: mine DOI/arXiv ids from the (extracted) text — the
        # text step of the doifrompdf fallback chain
        # (/root/reference/src/doifrompdf.py:30-52); metadata steps live in
        # PayloadExtractor.
        self.with_identifiers = with_identifiers

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch[self.text_column]
        n = len(batch)
        tokens = tokenize_column(text)
        if isinstance(tokens, pa.ChunkedArray):
            tokens = tokens.combine_chunks()
        # len(token_list); null text -> 0 words (reference would raise; we
        # degrade to an empty row per SURVEY §7 error semantics).
        lengths = np.zeros(n, np.int64)
        valid = ~tokens.is_null().to_numpy(zero_copy_only=False)
        lengths[valid] = np.asarray(
            tokens.value_lengths().to_numpy(zero_copy_only=False)
        )[valid]

        target = top_terms_exploded(tokens, self.target_words)
        bycatch = top_terms_exploded(tokens, self.bycatch_words)
        score = wordscore_vec(lengths, target["term_count"], bycatch["term_count"])

        batch = batch.append_column(
            "matching_terms", pa.array(target["term_count"], type=pa.int32())
        )
        batch = batch.append_column(
            "bycatch_terms", pa.array(bycatch["term_count"], type=pa.int32())
        )
        batch = batch.append_column(
            "total_word_count", pa.array(lengths, type=pa.int32())
        )
        batch = batch.append_column("wordscore", pa.array(score, type=pa.float64()))
        batch = batch.append_column(
            "target_terms_top_3", _top_terms_list_array(target, n)
        )
        batch = batch.append_column(
            "bycatch_terms_top_3", _top_terms_list_array(bycatch, n)
        )
        if self.with_parentheticals:
            stats = parentheticals_array(text.to_pylist())
            batch = batch.append_column(
                "paper_parentheticals",
                pa.array(stats.tolist(), type=pa.list_(pa.string())),
            )
        if self.with_identifiers:
            from sciscraper_ray.kernels.identifiers import extract_identifiers_array

            ids, kinds = extract_identifiers_array(
                [t if t is not None else "" for t in text.to_pylist()]
            )
            # doi_from_pdf chain order (doifrompdf.py:30-52): metadata /
            # pdf-info results (mined upstream in PayloadExtractor, where
            # the payload is open) take precedence over the text step; the
            # text chain only fills rows the metadata probes left empty.
            if "meta_identifier" in batch.column_names:
                meta_col = batch["meta_identifier"]
                if meta_col.null_count < len(meta_col):  # skip all-HTML batches
                    m_ids = meta_col.to_pylist()
                    m_kinds = batch["meta_identifier_type"].to_pylist()
                    for i, (mi, mk) in enumerate(zip(m_ids, m_kinds)):
                        if mi is not None:
                            ids[i] = mi
                            kinds[i] = mk
                batch = batch.drop_columns(
                    ["meta_identifier", "meta_identifier_type"]
                )
            batch = batch.append_column(
                "doi", pa.array(ids, type=pa.string())
            ).append_column(
                "identifier_type", pa.array(kinds, type=pa.string())
            )
        return batch
