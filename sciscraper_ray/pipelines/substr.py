"""Duplicated-substring mass per document (ExactSubstr-style).

Lee et al., "Deduplicating Training Data Makes Language Models Better"
(ACL 2022) deduplicate on exact repeated substrings of a minimum length.
This operator computes, per document, how many of its char-k-gram
positions are globally duplicated (the k-gram occurs at >= 2 positions
anywhere in the corpus, including within the same document) — the
"duplicate mass" used to rank/trim boilerplate-heavy documents.

Hashing: positions are keyed by a PAIR of Karp-Rabin polynomial hashes
mod the Mersenne prime 2^31-1 (bases 257 / 263), packed into one int64
(h1 * 2^31 + h2) — so the shuffle/merge key is 8 bytes, not a k-char
string, and the collision rate is ~n^2 / 2^62. Both hashes are windowed
dot products against precomputed modded power weights: every term is
<= 2^21 * 2^31, a k-term sum stays under 2^63, so the whole kernel is
one vectorized int64 matmul per document (no per-char Python loop), and
the SQL oracle can evaluate the identical polynomial in BIGINT.

Two physical plans (pipelines/plan.py resolve_plan, auto-flip at 50M
gram rows):
  driver  — distinct (h, doc, c) partials stream to the driver; the
            frequency merge + per-doc reduction is one np.lexsort +
            reduceat pass (pure C).
  shuffle — freq(h) via groupby(h) native Sum/Max aggregates; per-doc
            duplicate counts recovered WITHOUT a join by the
            singleton-owner trick: a gram with global freq == 1 has
            exactly one (owner) document, so
            n_dup(d) = n_grams(d) - #(freq==1 grams owned by d).
            Shuffles move only (int64 h, int64 doc, int64 c) rows.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from sciscraper_ray.pipelines.plan import resolve_plan

_P = (1 << 31) - 1  # Mersenne prime


def _weights(k: int, base: int) -> np.ndarray:
    return np.array([pow(base, k - 1 - j, _P) for j in range(k)], dtype=np.int64)


def kgram_pair_hashes(text: str, k: int, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Packed 62-bit pair hash per k-gram position (empty if len < k)."""
    if text is None or len(text) < k:
        return np.empty(0, dtype=np.int64)
    codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(np.int64)
    win = np.lib.stride_tricks.sliding_window_view(codes, k)
    h1 = (win @ w1) % _P
    h2 = (win @ w2) % _P
    return h1 * (1 << 31) + h2


def dup_substring_mass(
    ds: ray.data.Dataset,
    *,
    k: int = 20,
    id_col: str = "doc_id",
    text_col: str = "text",
    plan: str = "auto",
) -> ray.data.Dataset | pa.Table:
    """Per-document (doc_id, n_grams, n_dup) duplicate-substring counts."""
    w1, w2 = _weights(k, 257), _weights(k, 263)

    def gram_partial(batch: pa.Table) -> pa.Table:
        """Distinct (h, doc, c) rows for this batch. Docs never span
        batches (one row each), so these rows are globally distinct and
        per-doc sums are exact without any cross-batch merge. Short/null
        docs emit a sentinel (h=-1, c=0) row so they survive to the
        output with zero counts."""
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        texts = batch[text_col].to_pylist()
        hs, ds_, cs = [], [], []
        for i, t in zip(ids, texts):
            h = kgram_pair_hashes(t, k, w1, w2)
            if len(h) == 0:
                hs.append(np.array([-1], np.int64))
                ds_.append(np.array([i], np.int64))
                cs.append(np.array([0], np.int64))
                continue
            uh, c = np.unique(h, return_counts=True)
            hs.append(uh)
            ds_.append(np.full(len(uh), i, np.int64))
            cs.append(c.astype(np.int64))
        return pa.table(
            {
                "h": pa.array(np.concatenate(hs), pa.int64()),
                "doc_id": pa.array(np.concatenate(ds_), pa.int64()),
                "c": pa.array(np.concatenate(cs), pa.int64()),
            }
        )

    grams = ds.map_batches(gram_partial, batch_format="pyarrow")
    mode, grams = resolve_plan(grams, plan)

    if mode == "driver":
        from sciscraper_ray.pipelines.plan import driver_frame

        g = driver_frame(grams, what="dup_substring_mass")
        if len(g) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_grams": pa.array([], pa.int64()),
                    "n_dup": pa.array([], pa.int64()),
                }
            )
        h = g["h"].to_numpy()
        doc = g["doc_id"].to_numpy()
        c = g["c"].to_numpy()
        order = np.argsort(h, kind="stable")
        h_s, c_s = h[order], c[order]
        starts = np.flatnonzero(np.r_[True, h_s[1:] != h_s[:-1]])
        freq = np.add.reduceat(c_s, starts)
        # map each row's h to its group freq
        grp_of = np.empty(len(h), np.int64)
        grp_of[order] = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, len(h_s)]))
        row_freq = freq[grp_of]
        dup_c = np.where(row_freq > 1, c, 0)
        od = np.argsort(doc, kind="stable")
        d_s = doc[od]
        dstarts = np.flatnonzero(np.r_[True, d_s[1:] != d_s[:-1]])
        n_grams = np.add.reduceat(c[od], dstarts)
        n_dup = np.add.reduceat(dup_c[od], dstarts)
        return pa.table(
            {
                "doc_id": pa.array(d_s[dstarts], pa.int64()),
                "n_grams": pa.array(n_grams, pa.int64()),
                "n_dup": pa.array(n_dup, pa.int64()),
            }
        )

    from ray.data.aggregate import Max, Sum

    # per-doc totals: one row per doc per batch already, just rename
    def doc_totals(b: pa.Table) -> pa.Table:
        t = b.group_by("doc_id").aggregate([("c", "sum")])
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_grams": t["c_sum"],
                "n_single": pa.array(np.zeros(len(t), np.int64)),
            }
        )

    totals = grams.map_batches(doc_totals, batch_format="pyarrow")

    freq = grams.groupby("h").aggregate(
        Sum(on="c", alias_name="total"), Max(on="doc_id", alias_name="owner")
    )

    def singles(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = b.filter(pc.equal(b["total"], 1))
        t = keep.group_by("owner").aggregate([("total", "count")])
        return pa.table(
            {
                "doc_id": t["owner"],
                "n_grams": pa.array(np.zeros(len(t), np.int64)),
                "n_single": t["total_count"],
            }
        )

    single_rows = freq.map_batches(singles, batch_format="pyarrow")

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_grams": b["n_grams"],
                "n_dup": pa.array(
                    b["n_grams"].to_numpy(zero_copy_only=False)
                    - b["n_single"].to_numpy(zero_copy_only=False),
                    pa.int64(),
                ),
            }
        )

    return (
        totals.union(single_rows)
        .groupby("doc_id")
        .aggregate(
            Sum(on="n_grams", alias_name="n_grams"),
            Sum(on="n_single", alias_name="n_single"),
        )
        .map_batches(finish, batch_format="pyarrow")
    )
