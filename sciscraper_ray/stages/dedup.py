"""Deduplication stages: exact, MinHash-LSH, SimHash, n-gram Jaccard.

The rebuild adds these as first-class operators (SURVEY §2.6: the reference
has no dedup; Common-Crawl-style tables require it). All hash functions are
seeded/keyed deterministically — results are reproducible across processes
and cluster sizes.

Scale shape (per the MinHash-LSH literature, Broder 1997 / LSH banding):
  shingle -> minhash signature per doc (map_batches, embarrassingly
  parallel) -> explode to (band_id, band_hash, doc_id) rows -> groupby the
  band key (THE shuffle — keys are uniform hashes, so no skew) -> emit
  candidate pairs per bucket -> exact-verify pairs against the (small)
  set of involved documents, broadcast once.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

# Mersenne prime 2^31-1: universal-hash space. Keeping coefficients and
# (reduced) shingle hashes below 2^31 means a*h+b fits in uint64 with no
# overflow, so minhash signatures stay fully vectorized.
_PRIME = (1 << 31) - 1


# Position weights + murmur3 finalizer for the vectorized k-gram combine.
# Fixed seeded odd constants — deterministic across processes, like the
# blake2b path they replaced (the per-shingle Python blake2b over joined
# k-gram STRINGS was the dominant cost of dedup_minhash; hashing each
# distinct token once and mixing windows with numpy arithmetic is the
# same LSH contract at a fraction of the cost).
_GRAM_WEIGHTS = (
    np.random.default_rng(0x5C15C3A9).integers(
        1, 1 << 63, size=64, dtype=np.uint64
    )
    | np.uint64(1)
)


def _fmix64(x: np.ndarray) -> np.ndarray:
    """MurmurHash3 64-bit finalizer, vectorized (wraparound arithmetic)."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(33)
    x *= np.uint64(0xFF51AFD7ED558CCD)
    x ^= x >> np.uint64(33)
    x *= np.uint64(0xC4CEB9FE1A85EC53)
    x ^= x >> np.uint64(33)
    return x


def _window_hashes(h: np.ndarray, k: int) -> np.ndarray:
    """Combine length-k sliding windows of element hashes into one uint64
    per window (position-weighted sum + finalizer; order-sensitive).
    Shorter-than-k inputs collapse to a single all-elements window, like
    the joined-string path they replaced."""
    n = len(h)
    if n == 0:
        return np.empty(0, np.uint64)
    k_eff = min(k, n)
    m = n - k_eff + 1
    s = np.zeros(m, np.uint64)
    for j in range(k_eff):  # k is 3-5; the loop is over k, not n
        s += h[j : j + m] * _GRAM_WEIGHTS[j]
    return _fmix64(s)


_GRAM_WEIGHTS2 = (
    np.random.default_rng(0x2B7E1516).integers(
        1, 1 << 63, size=64, dtype=np.uint64
    )
    | np.uint64(1)
)


def _window_hashes128(
    h_hi: np.ndarray, h_lo: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """128-bit sliding-window combine: two independent 64-bit channels
    (independent weight vectors over independent per-token hash halves),
    so two distinct k-grams collide only if both channels collide — the
    collision-safe key width the exact-dedup path already standardizes on
    at 10^12-row scale. Inputs are the (hi, lo) halves from
    ``_hash_tokens128``; same short-input collapse rule as
    ``_window_hashes``."""
    n = len(h_lo)
    if n == 0:
        return np.empty(0, np.uint64), np.empty(0, np.uint64)
    k_eff = min(k, n)
    m = n - k_eff + 1
    s1 = np.zeros(m, np.uint64)
    s2 = np.zeros(m, np.uint64)
    for j in range(k_eff):  # k is 3-5; the loop is over k, not n
        s1 += h_lo[j : j + m] * _GRAM_WEIGHTS[j]
        s2 += h_hi[j : j + m] * _GRAM_WEIGHTS2[j]
    return _fmix64(s2), _fmix64(s1)


# Vectorized string hashing over the raw Arrow buffers (VERDICT r4 item
# 3: the per-distinct-token Python blake2b loop sat in the hottest
# kernels — MinHash, novelty, the n-gram families). Two independent
# byte-wise polynomial channels (distinct odd multipliers, distinct
# length-mix constants) cross-mixed through the murmur3 finalizer: two
# different strings collide in the 128-bit key only if BOTH linear codes
# collide. Tokens longer than _HASH_CAP bytes (vanishingly rare in
# natural-language streams) fold a per-token blake2b tail so arbitrarily
# long strings stay fully discriminated.
_HASH_CAP = 64
_PW1 = np.uint64(0x9E3779B97F4A7C15)
_PW2 = np.uint64(0xC2B2AE3D27D4EB4F)
_LEN1 = np.uint64(0xFF51AFD7ED558CCD)
_LEN2 = np.uint64(0x2545F4914F6CDD1D)


def _hash_string_array(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) uint64 channels per element of an Arrow string array,
    computed with ONE gather over the offsets+data buffers — zero Python
    per-string work below _HASH_CAP bytes."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if n == 0:
        return np.empty(0, np.uint64), np.empty(0, np.uint64)
    odt = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    bufs = arr.buffers()
    offs = (
        np.frombuffer(bufs[1], dtype=odt)[arr.offset : arr.offset + n + 1]
        .astype(np.int64)
    )
    data = (
        np.frombuffer(bufs[2], dtype=np.uint8)
        if bufs[2] is not None
        else np.empty(0, np.uint8)
    )
    lens = np.diff(offs)
    h1 = lens.astype(np.uint64) * _LEN1
    h2 = lens.astype(np.uint64) * _LEN2
    m = int(min(lens.max(initial=0), _HASH_CAP))
    if m:
        pos = np.arange(m, dtype=np.int64)
        idx = offs[:-1, None] + pos[None, :]
        np.minimum(idx, max(len(data) - 1, 0), out=idx)  # clamp; masked next
        mat = data[idx].astype(np.uint64)
        mat[pos[None, :] >= lens[:, None]] = 0
        w1 = np.cumprod(np.full(m, _PW1, np.uint64))  # wraps mod 2^64
        w2 = np.cumprod(np.full(m, _PW2, np.uint64))
        h1 += (mat * w1[None, :]).sum(axis=1, dtype=np.uint64)
        h2 += (mat * w2[None, :]).sum(axis=1, dtype=np.uint64)
    for i in np.flatnonzero(lens > _HASH_CAP):  # rare tail fold
        d = hashlib.blake2b(
            data[offs[i] : offs[i + 1]].tobytes(), digest_size=16
        ).digest()
        h1[i] ^= np.uint64(int.from_bytes(d[:8], "little"))
        h2[i] ^= np.uint64(int.from_bytes(d[8:], "little"))
    return (
        _fmix64(h2 ^ (h1 >> np.uint64(32))),
        _fmix64(h1 ^ (h2 << np.uint64(1))),
    )


def _as_string_array(tokens) -> pa.Array:
    if isinstance(tokens, (pa.Array, pa.ChunkedArray)):
        return tokens
    return pa.array(tokens, type=pa.string())


def _hash_tokens128(tokens) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) uint64 channels per token — hashed once per DISTINCT
    token via the buffer-vectorized kernel (accepts a list[str] or an
    Arrow string array; pass the Arrow array to stay zero-copy)."""
    arr = _as_string_array(tokens)
    if len(arr) == 0:
        return np.empty(0, np.uint64), np.empty(0, np.uint64)
    import pyarrow.compute as pc

    uniq = pc.unique(arr)
    inv = pc.index_in(arr, value_set=uniq).to_numpy(zero_copy_only=False)
    hi, lo = _hash_string_array(uniq)
    return hi[inv], lo[inv]


def _hash_tokens(tokens) -> np.ndarray:
    """uint64 per token — hashed once per DISTINCT token (the per-doc
    vocabulary is much smaller than the token stream); lo channel of the
    vectorized 128-bit kernel."""
    return _hash_tokens128(tokens)[1]


def word_shingles(tokens: list[str], k: int = 3) -> np.ndarray:
    """Distinct word k-gram shingle hashes (uint64) of one document."""
    if not tokens:
        return np.empty(0, np.uint64)
    return np.unique(_window_hashes(_hash_tokens(tokens), k))


class MinHasher:
    """num_perms universal-hash minhash over word k-gram shingles.

    Deterministic: permutation coefficients derive from ``seed`` via a
    seeded PCG64. Signature rows -> ``bands`` bands of ``rows_per_band``.
    """

    def __init__(self, num_perms: int = 64, bands: int = 16, k: int = 3, seed: int = 42):
        assert num_perms % bands == 0
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, _PRIME, size=num_perms, dtype=np.uint64)
        self.b = rng.integers(0, _PRIME, size=num_perms, dtype=np.uint64)
        self.num_perms = num_perms
        self.bands = bands
        self.rows_per_band = num_perms // bands
        self.k = k

    def signature(self, shingles: np.ndarray) -> np.ndarray:
        """(num_perms,) uint64 minhash signature; empty doc -> all-max."""
        if shingles.size == 0:
            return np.full(self.num_perms, np.iinfo(np.uint64).max, np.uint64)
        h = (shingles % np.uint64(_PRIME)).astype(np.uint64)
        vals = (self.a[:, None] * h[None, :] + self.b[:, None]) % np.uint64(_PRIME)
        return vals.min(axis=1)

    def band_hashes(self, sig: np.ndarray) -> np.ndarray:
        """(bands,) uint64: one hash per band of the signature
        (position-weighted sum + finalizer — no per-band string building)."""
        v = sig.reshape(self.bands, self.rows_per_band)
        s = np.zeros(self.bands, np.uint64)
        for j in range(self.rows_per_band):
            s += v[:, j] * _GRAM_WEIGHTS[j]
        return _fmix64(s)

    def signatures(self, flat_sh: np.ndarray, ptr: np.ndarray) -> np.ndarray:
        """(num_perms, n_docs) signatures for a WHOLE batch of per-doc
        distinct shingle sets (flat + ptr offsets): one (perms x shingles)
        universal-hash matrix, per-doc mins via ``np.minimum.reduceat``.
        Empty docs get the all-max signature, exactly like
        ``signature(empty)``."""
        n_docs = len(ptr) - 1
        sig = np.full(
            (self.num_perms, n_docs), np.iinfo(np.uint64).max, np.uint64
        )
        nonempty = np.diff(ptr) > 0
        if flat_sh.size and nonempty.any():
            h = (flat_sh % np.uint64(_PRIME)).astype(np.uint64)
            vals = (self.a[:, None] * h[None, :] + self.b[:, None]) % np.uint64(
                _PRIME
            )
            # consecutive nonempty starts delimit exactly the right
            # segments (empty docs occupy zero width in the flat array)
            sig[:, nonempty] = np.minimum.reduceat(
                vals, ptr[:-1][nonempty], axis=1
            )
        return sig

    def band_hashes_many(self, sig: np.ndarray) -> np.ndarray:
        """(bands, n_docs) band hashes for a batch of signatures."""
        v = sig.reshape(self.bands, self.rows_per_band, -1)
        s = np.zeros((self.bands, sig.shape[1]), np.uint64)
        for j in range(self.rows_per_band):
            s += v[:, j, :] * _GRAM_WEIGHTS[j]
        return _fmix64(s)


def char_shingles(text: str, n: int = 5) -> np.ndarray:
    """Distinct char n-gram shingle hashes (uint64) of one document —
    vectorized over the codepoint array (no per-gram Python)."""
    if not text:
        return np.empty(0, np.uint64)
    codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(
        np.uint64
    )
    return np.unique(_window_hashes(codes, n))


# --------------------------------------------------------------------------
# Whole-batch shingling (VERDICT r2 #7): one numpy pass over the WHOLE
# batch's elements concatenated with per-doc offsets (the segment_column
# offset trick) — removes the per-document Python dispatch that was the
# remaining constant in dedup_minhash. Produces bit-identical per-doc
# shingle SETS to the scalar word_shingles/char_shingles path (parity-
# tested in tests/test_dedup.py).
# --------------------------------------------------------------------------


def _flat_word_elements(texts_arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(flat token hashes, per-kept-doc offsets) for NON-NULL docs, batch-
    vocabulary hashing: each distinct token across the batch is blake2b'd
    once (per-doc vocab hashing did redundant work on repeated tokens)."""
    from sciscraper_ray.kernels.tokenize import tokenize_column

    toks = tokenize_column(texts_arr).combine_chunks()
    offs = np.asarray(toks.offsets, dtype=np.int64)
    valid = ~texts_arr.is_null().to_numpy(zero_copy_only=False)
    lens = np.diff(offs)
    kept_offs = np.concatenate(([0], np.cumsum(lens[valid])))
    flat = toks.values
    if len(flat) == 0:
        return np.empty(0, np.uint64), kept_offs
    return _hash_tokens(flat), kept_offs


def _flat_char_elements(texts: list) -> tuple[np.ndarray, np.ndarray]:
    """(flat codepoints, per-kept-doc offsets) for non-None docs: ONE
    utf-32 encode of the batch-concatenated text."""
    kept = [t for t in texts if t is not None]
    lens = np.fromiter((len(t) for t in kept), np.int64, len(kept))
    offs = np.concatenate(([0], np.cumsum(lens)))
    blob = "".join(kept).encode("utf-32-le")
    return np.frombuffer(blob, dtype=np.uint32).astype(np.uint64), offs


def _flat_window_hashes(
    h: np.ndarray, offs: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Window-combine the whole batch at once, respecting doc boundaries:
    per doc the windows (and their position weights) are exactly
    ``_window_hashes``' — shorter-than-k docs collapse to one all-elements
    window; empty docs yield none. Returns (doc_idx, window hashes)."""
    lens = np.diff(offs)
    n_win = np.where(lens >= k, lens - k + 1, (lens > 0).astype(np.int64))
    total = int(n_win.sum())
    doc_idx = np.repeat(np.arange(len(lens), dtype=np.int64), n_win)
    win_no = np.arange(total, dtype=np.int64) - np.repeat(
        np.concatenate(([0], np.cumsum(n_win)[:-1])), n_win
    )
    starts = offs[:-1][doc_idx] + win_no
    eff = np.minimum(lens[doc_idx], k)
    s = np.zeros(total, np.uint64)
    for j in range(k):  # loop over k (3-5), each step one gather
        m = eff > j
        s[m] += h[starts[m] + j] * _GRAM_WEIGHTS[j]
    return doc_idx, _fmix64(s)


def _distinct_per_doc(
    doc_idx: np.ndarray, wh: np.ndarray, n_docs: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc DISTINCT shingles from flat (doc, hash) pairs: one lexsort +
    boundary mask. Returns (flat distinct hashes, per-doc ptr offsets)."""
    order = np.lexsort((wh, doc_idx))
    d, w = doc_idx[order], wh[order]
    keep = np.ones(len(d), dtype=bool)
    keep[1:] = (d[1:] != d[:-1]) | (w[1:] != w[:-1])
    d, w = d[keep], w[keep]
    ptr = np.concatenate(([0], np.cumsum(np.bincount(d, minlength=n_docs))))
    return w, ptr.astype(np.int64)


def batch_shingle_sets(
    texts_arr: pa.Array, mode: str, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct shingle sets for every non-null doc of a batch in one
    vectorized pass: (flat sorted-distinct-per-doc hashes, ptr)."""
    if mode == "char":
        h, offs = _flat_char_elements(texts_arr.to_pylist())
    else:
        h, offs = _flat_word_elements(texts_arr)
    n_docs = len(offs) - 1
    if h.size == 0:
        return np.empty(0, np.uint64), np.zeros(n_docs + 1, np.int64)
    doc_idx, wh = _flat_window_hashes(h, offs, k)
    return _distinct_per_doc(doc_idx, wh, n_docs)


class MinHashBandStage:
    """map_batches stage: (id, text) -> exploded (band_id, band_hash, doc_id).

    ``shingle_mode``: 'word' (k-gram over the reference tokenizer) or
    'char' (n-gram over raw text, for the n-gram-Jaccard dedup variant).
    """

    def __init__(
        self,
        id_col: str = "doc_id",
        text_col: str = "text",
        shingle_mode: str = "word",
        **mh_kwargs,
    ):
        self.mh = MinHasher(**mh_kwargs)
        self.id_col = id_col
        self.text_col = text_col
        self.shingle_mode = shingle_mode

    def _shingles(self, text: str) -> np.ndarray:
        from sciscraper_ray.kernels.tokenize import format_manuscript

        if self.shingle_mode == "char":
            return char_shingles(text, self.mh.k)
        return word_shingles(format_manuscript(text), self.mh.k)

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Whole-batch vectorized path (VERDICT r2 #7): shingle sets,
        signatures and band hashes for every doc in one numpy pass —
        bit-identical output to the per-doc ``signature``/``band_hashes``
        loop (parity-tested)."""
        col = batch[self.text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        kept_ids = ids[~col.is_null().to_numpy(zero_copy_only=False)]
        flat_sh, ptr = batch_shingle_sets(col, self.shingle_mode, self.mh.k)
        sig = self.mh.signatures(flat_sh, ptr)
        bh = self.mh.band_hashes_many(sig)  # (bands, n_docs)
        n = len(kept_ids)
        return pa.table(
            {
                "band_id": pa.array(
                    np.tile(np.arange(self.mh.bands, dtype=np.int32), n)
                ),
                "band_hash": pa.array(bh.T.ravel()),
                "doc_id": pa.array(
                    np.repeat(kept_ids.astype(np.int64), self.mh.bands)
                ),
            }
        )


def bucket_pairs(group: pd.DataFrame) -> pd.DataFrame:
    """All unordered id pairs within one LSH bucket (a < b)."""
    ids = np.sort(group["doc_id"].to_numpy())
    if len(ids) < 2:
        return pd.DataFrame({"a": [], "b": []}).astype({"a": "int64", "b": "int64"})
    ia, ib = np.triu_indices(len(ids), k=1)
    return pd.DataFrame({"a": ids[ia], "b": ids[ib]})


def _simhash_many(flat_sh: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Whole-batch simhash64: per-doc ±1 bit votes via ONE
    ``np.add.reduceat`` over the flat distinct-shingle bit matrix.
    Empty docs -> 0, exactly like ``simhash64([])``."""
    n_docs = len(ptr) - 1
    out = np.zeros(n_docs, np.uint64)
    nonempty = np.diff(ptr) > 0
    if flat_sh.size == 0 or not nonempty.any():
        return out
    shifts = np.arange(64, dtype=np.uint64)
    bits = ((flat_sh[:, None] >> shifts[None, :]) & np.uint64(1)).astype(
        np.int32
    )
    acc = np.add.reduceat(2 * bits - 1, ptr[:-1][nonempty], axis=0)
    out[nonempty] = (
        (acc > 0).astype(np.uint64) << shifts[None, :]
    ).sum(axis=1, dtype=np.uint64)
    return out


def simhash64(tokens: list[str], k: int = 3) -> np.uint64:
    """64-bit SimHash over word k-gram shingle features (weight 1)."""
    sh = word_shingles(tokens, k)
    if sh.size == 0:
        return np.uint64(0)
    bits = ((sh[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.int64)
    acc = (2 * bits - 1).sum(axis=0)
    out = np.uint64(0)
    for j in range(64):
        if acc[j] > 0:
            out |= np.uint64(1) << np.uint64(j)
    return out


class SimHashStage:
    """map_batches stage: (id, text) -> (doc_id, simhash, chunk0..chunk3).

    The four 16-bit chunk columns are the blocking keys: two signatures
    within hamming distance 3 must agree on >=1 chunk (pigeonhole)."""

    def __init__(self, id_col: str = "doc_id", text_col: str = "text", k: int = 3):
        self.id_col = id_col
        self.text_col = text_col
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        # null/shingle-less docs are SKIPPED (they would all land in the
        # simhash-0 bucket, exploding candidate pairs O(n^2) and reporting
        # unrelated empty docs as near-dups). Whole-batch vectorized
        # (VERDICT r2 #7): one shingle pass, one bit-matrix reduceat —
        # bit-identical to the per-doc simhash64 loop (parity-tested).
        col = batch[self.text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        all_ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        kept_ids = all_ids[~col.is_null().to_numpy(zero_copy_only=False)]
        flat_sh, ptr = batch_shingle_sets(col, "word", self.k)
        sigs_all = _simhash_many(flat_sh, ptr)
        nz = sigs_all != 0
        ids = kept_ids[nz].astype(np.int64)
        sigs = sigs_all[nz]
        cols = {
            "doc_id": pa.array(ids, type=pa.int64()),
            "simhash": pa.array(sigs, type=pa.uint64()),
        }
        for c in range(4):
            cols[f"chunk{c}"] = pa.array(
                ((sigs >> np.uint64(16 * c)) & np.uint64(0xFFFF)).astype(np.int64)
            )
        return pa.table(cols)


# byte-wise popcount lookup table (numpy<2 has no np.bitwise_count)
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit hamming distance: XOR, then byte-LUT popcount."""
    x = np.ascontiguousarray(np.bitwise_xor(a, b))
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(x).astype(np.int64)
    by = x.view(np.uint8).reshape(x.shape + (8,))
    return _POPCOUNT8[by].sum(axis=-1).astype(np.int64)


def char_ngrams(text: str, n: int = 5) -> set[str]:
    if len(text) < n:
        return {text} if text else set()
    return {text[i : i + n] for i in range(len(text) - n + 1)}


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


class HyperplaneBandStage:
    """map_batches stage for embedding-cosine near-dup LSH: signed random
    projections (Charikar 2002 SRP) -> exploded (band_id, band_hash, doc_id).

    ``bits`` seeded hyperplanes; sign bits are packed into ``bands`` bands
    of ``bits // bands`` bits each (the band value IS the band hash — no
    rehash needed). One matmul per batch; deterministic across processes.
    """

    def __init__(
        self,
        id_col: str = "vec_id",
        vec_col: str = "embedding",
        dim: int = 64,
        bits: int = 64,
        bands: int = 16,
        seed: int = 42,
    ):
        assert bits % bands == 0
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((bits, dim))
        self.id_col = id_col
        self.vec_col = vec_col
        self.bands = bands
        self.rows_per_band = bits // bands

    def __call__(self, batch: pa.Table) -> pa.Table:
        from sciscraper_ray.stages.ann import _stack

        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        signs = (_stack(batch[self.vec_col]) @ self.planes.T) >= 0  # (n, bits)
        weights = (1 << np.arange(self.rows_per_band, dtype=np.uint64))
        n = len(ids)
        band_vals = (
            signs.reshape(n, self.bands, self.rows_per_band).astype(np.uint64)
            @ weights
        )  # (n, bands)
        band_ids = np.broadcast_to(np.arange(self.bands, dtype=np.int32), (n, self.bands))
        return pa.table(
            {
                "band_id": pa.array(band_ids.ravel()),
                "band_hash": pa.array(band_vals.ravel().astype(np.uint64)),
                "doc_id": pa.array(np.repeat(ids, self.bands).astype(np.int64)),
            }
        )
