"""Dedup pipeline compositions: exact, MinHash-LSH, SimHash, n-gram Jaccard.

Partitioning assumptions (stated per SURVEY §2 custom-operator rule):
- exact dedup shuffles once on the content hash (uniform key, no skew);
- near-dup variants shuffle once on LSH band / chunk keys (uniform by
  construction), then exact-verify only the CANDIDATE pairs — the candidate
  set is assumed ≪ corpus (guaranteed by LSH parameters), so the verify
  step broadcasts just the involved documents' texts.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from sciscraper_ray.stages.dedup import (
    MinHashBandStage,
    SimHashStage,
    bucket_pairs,
    char_ngrams,
    hamming64,
    jaccard,
    word_shingles,
)


def exact_dedup(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    key_merge: str = "auto",
    driver_merge_limit: int | None = None,
) -> ray.data.Dataset:
    """Keep the lowest-id row per distinct text.

    A deployment of the shared ``winner_filter`` two-pass plan
    (pipelines/winner.py): key = the FULL 128-bit md5 of the text, value
    = doc id, winner = min. Null-text rows are NOT duplicates of each
    other — a shared sentinel hash would collapse every failed-extraction
    row into one survivor — so they carry valid=False and are excluded
    from dup detection entirely. Pass 1 reads only (id, text); pass 2
    streams full rows through the Arrow-native winner filter."""
    from sciscraper_ray.kernels.md5 import md5_hash128
    from sciscraper_ray.pipelines.winner import WinnerSpec, winner_filter

    def hash128(batch: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return md5_hash128(batch[text_col].to_pylist())

    spec = WinnerSpec(
        keys=hash128,
        value=lambda b: b[id_col].to_numpy(zero_copy_only=False).astype(np.int64),
        np_reducer=np.minimum,
        agg_name="min",
        what="exact_dedup",
    )
    return winner_filter(
        ds,
        spec,
        keys_source=ds.select_columns([id_col, text_col]),
        key_merge=key_merge,
        driver_merge_limit=driver_merge_limit,
    )


def _candidate_pairs(
    banded: ray.data.Dataset,
    keys: list[str],
    pair_mode: str = "auto",
    est_rows: int | None = None,
) -> pd.DataFrame:
    """LSH buckets -> distinct unordered candidate id pairs.

    ``driver``: stream the band rows (a fixed ``bands`` rows per doc —
    tiny vs the corpus) to the driver and pair with one vectorized pandas
    pass. Ray's ``groupby().map_groups`` pays per-GROUP Python overhead,
    and LSH produces ~one bucket per doc, so the distributed plan costs
    O(corpus) group dispatches to find O(dups) pairs.

    ``shuffle``: the beyond-driver-memory plan — distributed groupby on
    the uniform band key, pairs emitted per bucket.

    ``auto`` (default): measured band-row count picks the plan — driver
    below the plan limit, shuffle above it (pipelines/plan.py).
    """
    from sciscraper_ray.pipelines.plan import driver_frame, resolve_plan

    pair_mode, banded = resolve_plan(banded, pair_mode, est_rows=est_rows)
    if pair_mode == "shuffle":
        pairs = (
            banded.groupby(keys)
            .map_groups(bucket_pairs, batch_format="pandas")
            .to_pandas()
        )
    else:
        df = driver_frame(banded, what="_candidate_pairs")
        pairs = _pairs_vectorized(df, keys)
    if pairs.empty:
        return pd.DataFrame({"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64")})
    return pairs.drop_duplicates(ignore_index=True)


def _pairs_vectorized(df: pd.DataFrame, keys: list[str]) -> pd.DataFrame:
    """All unordered within-bucket id pairs, fully vectorized.

    A per-bucket Python loop (one DataFrame per bucket) was the dominant
    driver-plan cost at ~thousands of buckets. Instead: bucket codes via
    ngroup, one lexsort, then ONE broadcasted triu expansion per distinct
    bucket SIZE (bucket sizes are almost all 2, so this loop runs a
    handful of times regardless of bucket count)."""
    if not len(df):
        return pd.DataFrame({"a": [], "b": []}).astype("int64")
    codes = df.groupby(keys, sort=False).ngroup().to_numpy()
    ids = df["doc_id"].to_numpy().astype(np.int64)
    order = np.lexsort((ids, codes))
    codes_s, ids_s = codes[order], ids[order]
    _, starts, sizes = np.unique(codes_s, return_index=True, return_counts=True)
    out_a, out_b = [], []
    for m in np.unique(sizes[sizes > 1]):
        sel = starts[sizes == m]
        mat = ids_s[sel[:, None] + np.arange(m)]  # (n_buckets, m), ids sorted
        ia, ib = np.triu_indices(m, k=1)
        out_a.append(mat[:, ia].ravel())
        out_b.append(mat[:, ib].ravel())
    if not out_a:
        return pd.DataFrame({"a": [], "b": []}).astype("int64")
    return pd.DataFrame(
        {"a": np.concatenate(out_a), "b": np.concatenate(out_b)}
    )


def _texts_for(
    ds: ray.data.Dataset, ids: np.ndarray, id_col: str, value_col: str
) -> dict:
    """Fetch ``value_col`` of the involved ids only (broadcast-small-side
    pattern; serves texts and embedding vectors alike). The sorted id
    array is built ONCE and closed over — not per batch."""
    ids_arr = np.unique(np.asarray(ids, dtype=np.int64))

    def keep(batch: pa.Table) -> pa.Table:
        mask = np.isin(batch[id_col].to_numpy(zero_copy_only=False), ids_arr)
        return batch.filter(pa.array(mask))

    small = ds.map_batches(keep, batch_format="pyarrow").to_pandas()
    return dict(zip(small[id_col], small[value_col]))


def near_dup_pairs_minhash(
    ds: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    threshold: float = 0.8,
    num_perms: int = 64,
    bands: int = 16,
    k: int = 3,
    pair_mode: str = "auto",
    est_input_rows: int | None = None,
) -> pa.Table:
    """MinHash+LSH near-duplicate pairs, exact-Jaccard verified.

    ``est_input_rows``: free UPPER BOUND on input rows (parquet metadata);
    band rows = rows x bands exactly, so the plan flip needs no
    materialize barrier when the caller can bound the read.

    Returns (a, b) with word-k-gram-shingle Jaccard >= threshold, a < b.
    """
    # instance => task-based map_batches: the stage state (hash
    # coefficients) is tiny, so shipping it once in the serialized fn beats
    # paying an actor pool spin-up per execution
    banded = ds.map_batches(
        MinHashBandStage(
            id_col=id_col, text_col=text_col, num_perms=num_perms, bands=bands, k=k
        ),
        batch_format="pyarrow",
    )
    pairs = _candidate_pairs(
        banded,
        ["band_id", "band_hash"],
        pair_mode,
        est_rows=None if est_input_rows is None else est_input_rows * bands,
    )
    if pairs.empty:
        return pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    texts = _texts_for(ds, np.unique(pairs[["a", "b"]].to_numpy()), id_col, text_col)
    from sciscraper_ray.kernels.tokenize import format_manuscript

    shingle_cache = {
        i: set(word_shingles(format_manuscript(t), k).tolist())
        for i, t in texts.items()
    }
    keep = [
        jaccard(shingle_cache[a], shingle_cache[b]) >= threshold
        for a, b in zip(pairs["a"], pairs["b"])
    ]
    out = pairs[keep]
    return pa.table({"a": pa.array(out["a"], pa.int64()), "b": pa.array(out["b"], pa.int64())})


def near_dup_pairs_simhash(
    ds: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_hamming: int = 3,
    k: int = 3,
    pair_mode: str = "auto",
) -> pa.Table:
    """SimHash near-duplicate pairs: 4×16-bit chunk blocking (pigeonhole
    guarantees recall for hamming <= 3), exact hamming verified.

    Same distributed shape as the MinHash variants: the chunk columns are
    exploded into (band_id=chunk index, band_hash=chunk value) rows and
    routed through ``_candidate_pairs`` — candidate generation scales with
    the shuffle plan instead of materializing every signature on the
    driver. Signatures are materialized ONCE (24 B/doc) and reused for
    both banding and the hamming verify."""
    sigs = ds.map_batches(
        SimHashStage(id_col=id_col, text_col=text_col, k=k),
        batch_format="pyarrow",
    ).materialize()

    def explode_chunks(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        bands = np.concatenate(
            [np.full(n, c, dtype=np.int32) for c in range(4)]
        )
        hashes = np.concatenate(
            [
                batch[f"chunk{c}"].to_numpy(zero_copy_only=False).astype(np.uint64)
                for c in range(4)
            ]
        )
        return pa.table(
            {
                "band_id": pa.array(bands),
                "band_hash": pa.array(hashes, pa.uint64()),
                "doc_id": pa.array(np.tile(ids, 4)),
            }
        )

    banded = sigs.map_batches(explode_chunks, batch_format="pyarrow")
    # sigs is materialized: count() is free metadata; band rows = 4 x sigs
    pairs = _candidate_pairs(
        banded, ["band_id", "band_hash"], pair_mode, est_rows=4 * sigs.count()
    )
    if pairs.empty:
        return pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    sig_map = {
        i: np.uint64(s)
        for i, s in _texts_for(
            sigs, pairs[["a", "b"]].to_numpy().ravel(), id_col, "simhash"
        ).items()
    }
    ha = np.array([sig_map[a] for a in pairs["a"]], np.uint64)
    hb = np.array([sig_map[b] for b in pairs["b"]], np.uint64)
    out = pairs[hamming64(ha, hb) <= max_hamming]
    return pa.table({"a": pa.array(out["a"], pa.int64()), "b": pa.array(out["b"], pa.int64())})


def near_dup_pairs_ngram(
    ds: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    threshold: float = 0.8,
    n: int = 5,
    num_perms: int = 64,
    bands: int = 16,
    pair_mode: str = "auto",
    est_input_rows: int | None = None,
) -> pa.Table:
    """Char n-gram Jaccard near-dup pairs: char-shingle MinHash-LSH
    candidates, then EXACT char-n-gram Jaccard >= threshold."""
    banded = ds.map_batches(
        MinHashBandStage(
            id_col=id_col,
            text_col=text_col,
            shingle_mode="char",
            num_perms=num_perms,
            bands=bands,
            k=n,
        ),
        batch_format="pyarrow",
    )
    pairs = _candidate_pairs(
        banded,
        ["band_id", "band_hash"],
        pair_mode,
        est_rows=None if est_input_rows is None else est_input_rows * bands,
    )
    if pairs.empty:
        return pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    texts = _texts_for(ds, np.unique(pairs[["a", "b"]].to_numpy()), id_col, text_col)
    gram_cache = {i: char_ngrams(t, n) for i, t in texts.items()}
    keep = [
        jaccard(gram_cache[a], gram_cache[b]) >= threshold
        for a, b in zip(pairs["a"], pairs["b"])
    ]
    out = pairs[keep]
    return pa.table({"a": pa.array(out["a"], pa.int64()), "b": pa.array(out["b"], pa.int64())})


def near_dup_pairs_embedding(
    ds: ray.data.Dataset,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    threshold: float = 0.95,
    bits: int = 64,
    bands: int = 16,
    dim: int = 64,
    pair_mode: str = "auto",
) -> pa.Table:
    """Embedding-cosine near-dup pairs: signed-random-projection LSH
    candidates (one matmul per batch, one shuffle on the uniform band key),
    then EXACT cosine >= threshold on the involved vectors only."""
    from sciscraper_ray.stages.dedup import HyperplaneBandStage

    banded = ds.map_batches(
        HyperplaneBandStage(
            id_col=id_col, vec_col=vec_col, dim=dim, bits=bits, bands=bands
        ),
        batch_format="pyarrow",
    )
    pairs = _candidate_pairs(banded, ["band_id", "band_hash"], pair_mode)
    if pairs.empty:
        return pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})

    vecs = _texts_for(ds, pairs[["a", "b"]].to_numpy().ravel(), id_col, vec_col)
    vec_map = {i: np.asarray(v, dtype=np.float64) for i, v in vecs.items()}
    a_mat = np.stack([vec_map[a] for a in pairs["a"]])
    b_mat = np.stack([vec_map[b] for b in pairs["b"]])
    an = a_mat / np.linalg.norm(a_mat, axis=1, keepdims=True)
    bn = b_mat / np.linalg.norm(b_mat, axis=1, keepdims=True)
    sims = np.einsum("ij,ij->i", an, bn)
    out = pairs[sims >= threshold]
    return pa.table({"a": pa.array(out["a"], pa.int64()), "b": pa.array(out["b"], pa.int64())})


def levenshtein_np(s: str, t: str) -> int:
    """Full Levenshtein via the row-DP with the minimum-accumulate trick:
    cur[j] = min over l<=j of c0[l] + (j-l), computed as
    accumulate(c0 - j) + j — so each DP row is O(|t|) numpy with no
    per-cell Python, and a 500x500 comparison is ~100 vector ops."""
    sa = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)
    ta = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32)
    if len(sa) == 0 or len(ta) == 0:
        return max(len(sa), len(ta))
    m = len(ta)
    jar = np.arange(m + 1)
    prev = jar.copy()
    for i in range(1, len(sa) + 1):
        sub = prev[:-1] + (ta != sa[i - 1])
        c0 = np.concatenate(([i], np.minimum(prev[1:] + 1, sub)))
        prev = np.minimum.accumulate(c0 - jar) + jar
    return int(prev[-1])


def _length_block_pairs(
    ds: ray.data.Dataset, id_col: str, text_col: str, max_dist: int, pair_mode: str
) -> pd.DataFrame:
    """Candidate pairs for an edit-distance join, blocked by TEXT LENGTH
    with zero false negatives: distance <= D implies |len(a)-len(b)| <= D,
    and with block width D+1 each doc goes to blocks
    {len//(D+1), len//(D+1)+1}, so every qualifying pair shares a block.
    Null texts take no block."""
    width = max_dist + 1

    def block(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        lens = np.array(
            [len(t) if t is not None else -1 for t in batch[text_col].to_pylist()],
            dtype=np.int64,
        )
        keep = lens >= 0
        ids, lens = ids[keep], lens[keep]
        blk = lens // width
        return pa.table(
            {
                id_col: pa.array(np.concatenate([ids, ids]), pa.int64()),
                "blk": pa.array(np.concatenate([blk, blk + 1]), pa.int64()),
            }
        )

    banded = ds.map_batches(block, batch_format="pyarrow")
    return _candidate_pairs(banded, ["blk"], pair_mode)


def near_dup_pairs_editdist(
    ds: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_dist: int = 8,
    pair_mode: str = "auto",
) -> pa.Table:
    """Edit-distance similarity join: (a, b) with
    levenshtein(text_a, text_b) <= max_dist, a < b.

    Blocking is by TEXT LENGTH with zero false negatives: distance <= D
    implies |len(a)-len(b)| <= D, and with block width D+1 the two
    lengths land in the same or adjacent blocks — so emitting every doc
    to blocks {len//(D+1), len//(D+1)+1} guarantees each qualifying pair
    shares a block. Candidates then go through the shared two-plan
    ``_candidate_pairs`` machinery and are verified with the vectorized
    DP above (plus the |len| prefilter). Length blocks can be skewed
    (many docs of similar length); the scale lever is composing the
    block key with a cheap content prefix (e.g. first-k-char hash) at
    the cost of recall for edits inside the prefix, or salting the
    verify stage — the verify itself is an embarrassingly parallel
    actor-pool stage at scale."""
    pairs = _length_block_pairs(ds, id_col, text_col, max_dist, pair_mode)
    if pairs.empty:
        return pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    texts = _texts_for(ds, np.unique(pairs[["a", "b"]].to_numpy()), id_col, text_col)
    keep = []
    for a, b in zip(pairs["a"], pairs["b"]):
        ta, tb = texts.get(a), texts.get(b)
        if ta is None or tb is None or abs(len(ta) - len(tb)) > max_dist:
            keep.append(False)
            continue
        keep.append(levenshtein_np(ta, tb) <= max_dist)
    out = pairs[np.array(keep, dtype=bool)]
    return pa.table(
        {"a": pa.array(out["a"], pa.int64()), "b": pa.array(out["b"], pa.int64())}
    )


def osa_np(s: str, t: str) -> int:
    """Optimal String Alignment distance (restricted Damerau-Levenshtein:
    adjacent transposition counts 1 but no substring is edited twice) via
    the same row-DP + minimum-accumulate trick as ``levenshtein_np`` —
    the transposition term enters the pre-accumulate candidate row just
    like substitution, so each row stays O(|t|) numpy."""
    sa = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)
    ta = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32)
    if len(sa) == 0 or len(ta) == 0:
        return max(len(sa), len(ta))
    m = len(ta)
    jar = np.arange(m + 1)
    prev = jar.copy()
    prev2 = None
    sprev = None
    for i in range(1, len(sa) + 1):
        sub = prev[:-1] + (ta != sa[i - 1])
        c0 = np.concatenate(([i], np.minimum(prev[1:] + 1, sub)))
        if prev2 is not None and m >= 2:
            # transposition: s[i-2:i] == reversed(t[j-2:j])
            tr_ok = (ta[1:] == sprev) & (ta[:-1] == sa[i - 1])
            trans = np.where(tr_ok, prev2[:-2] + 1, np.iinfo(np.int64).max)
            c0[2:] = np.minimum(c0[2:], trans)
        cur = np.minimum.accumulate(c0 - jar) + jar
        prev2, prev, sprev = prev, cur, sa[i - 1]
    return int(prev[-1])


def damerau_levenshtein_exact(s: str, t: str) -> int:
    """UNRESTRICTED Damerau-Levenshtein (Lowrance-Wagner): transposed
    characters may drift apart through later edits ('ca' -> 'abc' is 2,
    where OSA says 3). Matches DuckDB's ``damerau_levenshtein`` so the
    oracle can recompute the join natively. O(|s|*|t|) Python — only ever
    called on the narrow tier-2 band the vectorized OSA pass can't
    decide (see ``near_dup_pairs_damerau``)."""
    da: dict[str, int] = {}
    la, lb = len(s), len(t)
    inf = la + lb
    d = np.empty((la + 2, lb + 2), np.int64)
    d[0, :] = inf
    d[:, 0] = inf
    d[1, 1:] = np.arange(lb + 1)
    d[1:, 1] = np.arange(la + 1)
    for i in range(1, la + 1):
        db = 0
        ci = s[i - 1]
        for j in range(1, lb + 1):
            cj = t[j - 1]
            k = da.get(cj, 0)
            l = db
            if ci == cj:
                cost = 0
                db = j
            else:
                cost = 1
            d[i + 1, j + 1] = min(
                d[i, j] + cost,
                d[i + 1, j] + 1,
                d[i, j + 1] + 1,
                d[k, l] + (i - k - 1) + 1 + (j - l - 1),
            )
        da[ci] = i
    return int(d[la + 1, lb + 1])


def near_dup_pairs_damerau(
    ds: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_dist: int = 6,
    pair_mode: str = "auto",
) -> pa.Table:
    """Transposition-aware similarity join: (a, b) with unrestricted
    damerau_levenshtein(text_a, text_b) <= max_dist, a < b.

    Same zero-false-negative length blocking as the Levenshtein join
    (transpositions don't change length, so |len diff| <= D still holds),
    then a THREE-TIER verify so the O(n*m) exact DP almost never runs:

    1. counting filter — DL >= sum_c |count_a(c) - count_b(c)| / 2
       (sub changes two char counts, ins/del one, transposition none),
       evaluated as ONE numpy op over the whole candidate set;
    2. vectorized OSA row-DP: DL <= OSA always, and OSA <= Lev <= 2*DL
       (replace each transposition with two substitutions), so
       OSA <= D accepts and OSA > 2*D rejects with no exact call;
    3. Lowrance-Wagner exact DP only for the D < OSA <= 2*D band.
    """
    pairs = _length_block_pairs(ds, id_col, text_col, max_dist, pair_mode)
    empty = pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    if pairs.empty:
        return empty
    texts = _texts_for(ds, np.unique(pairs[["a", "b"]].to_numpy()), id_col, text_col)
    ids_sorted = np.array(sorted(texts), np.int64)
    # 256-wide byte histograms (texts are UTF-8; multibyte chars shift the
    # bound conservatively, never unsafely: each char edit moves <= 8 byte
    # counts, so divide by 8 instead of 2 when any text is non-ASCII).
    hist = np.zeros((len(ids_sorted), 256), np.int32)
    ascii_only = True
    for row, i in enumerate(ids_sorted):
        bb = np.frombuffer(texts[int(i)].encode(), np.uint8)
        if bb.size and bb.max() >= 128:
            ascii_only = False
        hist[row] = np.bincount(bb, minlength=256)
    ai = np.searchsorted(ids_sorted, pairs["a"].to_numpy())
    bi = np.searchsorted(ids_sorted, pairs["b"].to_numpy())
    l1 = np.abs(hist[ai] - hist[bi]).sum(axis=1)
    lower = l1 // (2 if ascii_only else 8)
    pairs = pairs[lower <= max_dist]
    if pairs.empty:
        return empty
    keep = []
    for a, b in zip(pairs["a"], pairs["b"]):
        ta, tb = texts[int(a)], texts[int(b)]
        if abs(len(ta) - len(tb)) > max_dist:
            keep.append(False)
            continue
        osa = osa_np(ta, tb)
        if osa <= max_dist:
            keep.append(True)
        elif osa > 2 * max_dist:
            keep.append(False)
        else:
            keep.append(damerau_levenshtein_exact(ta, tb) <= max_dist)
    out = pairs[np.array(keep, dtype=bool)]
    return pa.table(
        {"a": pa.array(out["a"], pa.int64()), "b": pa.array(out["b"], pa.int64())}
    )

