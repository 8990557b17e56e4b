"""Input generation for the extraction benchmark.

The documents table is synthesized from a FIXED corpus seed, in the shape of
the repository's ``documents`` test table (31-token vocabulary, 10-100 words
per document, five languages). The benchmark's ``--seed`` only permutes row
order before the rows are split into parquet fragments, so every seed gives
the same multiset of rows (and the same pinned digest) while the program
sees different fragment contents and row orders.

Each workload's pages are rendered from that table by
``sciscraper_ray.sources.page_synth.synth_pages_batch``, exactly as the
program's own fixtures are, so the ground truth is the documents text.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

CORPUS_SEED = 20240101
N_FRAGMENTS = 32
ID_STRIDE = 100_000_000  # page_synth's doc_id offset per repeat

VOCAB = (
    "spark window merge table column vector stream value data small join "
    "filter big group hash customer sort order slow line part fast row the "
    "agg key query a scan batch"
).split()
LANGS = ["en", "zh", "es", "fr", "de"]
LANG_P = [0.41, 0.15, 0.15, 0.15, 0.14]


class InputDigestMismatch(RuntimeError):
    """The generated input is not the one the benchmark's figures refer to."""


def documents(n_docs: int) -> pa.Table:
    """``n_docs`` rows of (doc_id, text, lang) from the fixed corpus seed."""
    rng = np.random.default_rng(CORPUS_SEED)
    lengths = rng.integers(10, 101, n_docs)
    # "dup" is the rare bycatch token of the test table (~1 word in 1000).
    p = np.full(len(VOCAB) + 1, 0.999 / len(VOCAB))
    p[-1] = 0.001
    words = rng.choice(len(VOCAB) + 1, int(lengths.sum()), p=p)
    vocab = np.array(VOCAB + ["dup"], dtype=object)[words]
    ends = np.cumsum(lengths)
    texts = [" ".join(vocab[e - n : e]) for n, e in zip(lengths, ends)]
    langs = rng.choice(len(LANGS), n_docs, p=LANG_P)
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n_docs), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array([LANGS[i] for i in langs], pa.string()),
        }
    )


def repeat_rows(docs: pa.Table, repeat: int) -> pa.Table:
    """``repeat`` copies of ``docs`` with distinct doc_ids (page_synth's
    ``doc_id + rep * ID_STRIDE`` rule)."""
    parts = []
    for rep in range(repeat):
        ids = pa.array(docs["doc_id"].to_numpy() + rep * ID_STRIDE, pa.int64())
        parts.append(docs.set_column(0, "doc_id", ids))
    return pa.concat_tables(parts).combine_chunks()


def write_fragments(table: pa.Table, out_dir: str, seed: int) -> list[str]:
    """Permute rows by ``seed``, then write ``N_FRAGMENTS`` parquet files."""
    os.makedirs(out_dir, exist_ok=True)
    perm = np.random.default_rng(seed).permutation(table.num_rows)
    table = table.take(pa.array(perm))
    per = -(-table.num_rows // N_FRAGMENTS)
    paths = []
    for i in range(N_FRAGMENTS):
        path = os.path.join(out_dir, f"part-{i:05d}.parquet")
        pq.write_table(table.slice(i * per, per), path)
        paths.append(path)
    return paths


def digest(table: pa.Table, sort_keys: list[str]) -> str:
    """Order-independent sha256 of a table's rows: sort by ``sort_keys``,
    then hash every column's values, null mask and lengths."""
    t = table.sort_by([(k, "ascending") for k in sort_keys]).combine_chunks()
    h = hashlib.sha256()
    for name in t.column_names:
        col = t[name]
        h.update(name.encode())
        h.update(str(col.type).encode())
        h.update(np.packbits(col.is_null().to_numpy(zero_copy_only=False)).tobytes())
        values = col.fill_null(_zero(col.type))
        if pa.types.is_binary(col.type) or pa.types.is_string(col.type):
            vals = values.to_pylist()
            raw = [v if isinstance(v, bytes) else v.encode() for v in vals]
            h.update(np.array([len(v) for v in raw], np.int64).tobytes())
            h.update(b"".join(raw))
        else:
            h.update(values.to_numpy(zero_copy_only=False).astype(np.int64).tobytes())
    return h.hexdigest()


def _zero(t: pa.DataType):
    if pa.types.is_binary(t):
        return b""
    if pa.types.is_string(t):
        return ""
    return pa.scalar(0, pa.int64()).cast(t)


DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def check_digest(key: str, got: str, path: str = DIGESTS) -> None:
    """Refuse an input whose digest is not the one pinned for ``key``."""
    with open(path) as f:
        pinned = json.load(f).get(key)
    if got != pinned:
        raise InputDigestMismatch(f"{key}: input digest {got} != pinned {pinned}")
