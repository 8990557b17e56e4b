"""Text-analysis stages: language-ID, quality scoring, token counting,
document fingerprinting — the training-data-pipeline extensions over the
reference's tokenizer/term semantics.

All vectorized over Arrow batches; every deterministic formula here is
mirrored 1:1 in the DuckDB oracle SQL (same FP op order).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from sciscraper_ray.kernels.tokenize import tokenize_column

# Stopword profiles for the n-gram/stopword language heuristic. Ordered
# dict — classification tie-break is alphabetical lang code (np.argmax
# first-occurrence over lang-sorted profiles).
LANG_PROFILES: dict[str, frozenset[str]] = {
    "de": frozenset({"der", "die", "das", "und", "ist", "nicht", "ein"}),
    "en": frozenset({"the", "a", "of", "and", "in", "to", "is"}),
    "es": frozenset({"el", "los", "las", "y", "es", "un", "una"}),
    "fr": frozenset({"le", "les", "et", "est", "une", "dans", "pour"}),
}

STOPWORDS_EN = LANG_PROFILES["en"]

# GPT2-ish pre-tokenizer shape, restricted to RE2-compatible constructs so
# the DuckDB oracle (regexp_extract_all) counts identically.
BPE_SPLIT_PATTERN = r" ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+|\s+"
_BPE_RE = re.compile(BPE_SPLIT_PATTERN)


def lang_id_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """(id cols ...) + lang_pred: argmax stopword-profile hit share;
    'und' when no profile scores > 0. Tie -> alphabetically first lang."""
    tokens = tokenize_column(batch[text_col]).combine_chunks()
    flat = pc.list_flatten(tokens)
    parents = pc.list_parent_indices(tokens).to_numpy(zero_copy_only=False)
    n = len(batch)
    langs = sorted(LANG_PROFILES)
    scores = np.zeros((len(langs), n), np.int64)
    for li, lang in enumerate(langs):
        vocab = pa.array(sorted(LANG_PROFILES[lang]), type=pa.string())
        mask = pc.is_in(flat, value_set=vocab).to_numpy(zero_copy_only=False)
        np.add.at(scores[li], parents[mask], 1)
    best = np.argmax(scores, axis=0)  # first max -> alphabetical tie-break
    pred = np.array(langs, dtype=object)[best]
    pred[scores.max(axis=0) == 0] = "und"
    return batch.append_column("lang_pred", pa.array(pred, type=pa.string()))


def quality_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Quality metrics + composite score.

    quality = 0.5*min(1, n_words/100) + 0.3*(1 - stopword_ratio)
            + 0.2*min(1, mean_word_len/8)  — mirrored in SQL verbatim.
    """
    tokens = tokenize_column(batch[text_col]).combine_chunks()
    n_words = pc.list_value_length(tokens).to_numpy(zero_copy_only=False).astype(np.float64)
    n_chars = pc.utf8_length(batch[text_col]).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(tokens)
    parents = pc.list_parent_indices(tokens).to_numpy(zero_copy_only=False)
    tok_lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
    sum_len = np.zeros(len(batch), np.int64)
    np.add.at(sum_len, parents, tok_lens)
    stop_vocab = pa.array(sorted(STOPWORDS_EN), type=pa.string())
    stop_mask = pc.is_in(flat, value_set=stop_vocab).to_numpy(zero_copy_only=False)
    stop_cnt = np.zeros(len(batch), np.int64)
    np.add.at(stop_cnt, parents[stop_mask], 1)

    mean_word_len = sum_len / n_words
    stopword_ratio = stop_cnt / n_words
    quality = (
        0.5 * np.minimum(1.0, n_words / 100.0)
        + 0.3 * (1.0 - stopword_ratio)
        + 0.2 * np.minimum(1.0, mean_word_len / 8.0)
    )
    return pa.table(
        {
            **{c: batch[c] for c in batch.column_names if c != text_col},
            "n_chars": pa.array(n_chars),
            "n_words": pa.array(n_words.astype(np.int64)),
            "mean_word_len": pa.array(mean_word_len),
            "stopword_ratio": pa.array(stopword_ratio),
            "quality": pa.array(quality),
        }
    )


def bpe_token_count_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """BPE-ish pre-token count per document (compiled regex, module-level)."""
    counts = np.fromiter(
        (len(_BPE_RE.findall(t)) if t is not None else 0
         for t in batch[text_col].to_pylist()),
        dtype=np.int64,
        count=len(batch),
    )
    return pa.table(
        {
            **{c: batch[c] for c in batch.column_names if c != text_col},
            "bpe_tokens": pa.array(counts),
        }
    )


def winnow_fingerprints(text: str, k: int = 8, window: int = 4) -> list[int]:
    """Winnowing (Schleimer et al. 2003): k-gram Karp-Rabin rolling hashes,
    min per sliding window, deduplicated run-length-wise. Deterministic."""
    if len(text) < k:
        return []
    base, mod = 257, (1 << 61) - 1
    h = 0
    top = pow(base, k - 1, mod)
    hashes = []
    for i, ch in enumerate(text):
        h = (h * base + ord(ch)) % mod
        if i >= k:
            h = (h - ord(text[i - k]) * top * base) % mod
        if i >= k - 1:
            hashes.append(h)
    out: list[int] = []
    prev = -1
    for i in range(len(hashes) - window + 1):
        w = hashes[i : i + window]
        j = i + int(np.argmin(w))
        if j != prev:
            out.append(hashes[j])
            prev = j
    return out


class WinnowStage:
    """map_batches stage: (doc_id, text) -> winnowed fingerprint summary."""

    def __init__(self, k: int = 8, window: int = 4):
        self.k = k
        self.window = window

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"]
        texts = batch["text"].to_pylist()
        n_fp, min_fp, max_fp = [], [], []
        for t in texts:
            fps = winnow_fingerprints(t or "", self.k, self.window)
            n_fp.append(len(fps))
            min_fp.append(min(fps) if fps else None)
            max_fp.append(max(fps) if fps else None)
        return pa.table(
            {
                "doc_id": ids,
                "n_fingerprints": pa.array(n_fp, type=pa.int64()),
                "min_fp": pa.array(min_fp, type=pa.int64()),
                "max_fp": pa.array(max_fp, type=pa.int64()),
            }
        )
