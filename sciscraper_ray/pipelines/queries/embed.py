"""Similarity search over embeddings (brute-force kNN, IVF, SRP-LSH).

Split from pipelines/queries.py (round 4); registration side effects
only — import order is fixed by the package __init__.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from sciscraper_ray.stages.relational import group_count
from sciscraper_ray.pipelines.queries._shared import (
    register,
)


# --------------------------------------------------------------------------
# Similarity search over embeddings (list<float>).
# --------------------------------------------------------------------------

N_ANN_QUERIES = 10
ANN_K = 5


def _query_vectors(sf_dir: str):
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    t = t.filter(pc.less(t["vec_id"], N_ANN_QUERIES))
    from sciscraper_ray.stages.ann import _stack

    return t["vec_id"].to_numpy(zero_copy_only=False), _stack(t["embedding"])


@register(
    "knn_cosine",
    oracle=f"""
    WITH q AS (
        SELECT vec_id AS qid, embedding AS qe FROM embeddings
        WHERE vec_id < {N_ANN_QUERIES}
    ), s AS (
        SELECT qid, e.vec_id AS neighbor,
               list_cosine_similarity(qe, e.embedding) AS sim
        FROM q, embeddings e WHERE e.vec_id <> qid
    )
    SELECT qid, neighbor, rank FROM (
        SELECT qid, neighbor,
               row_number() OVER (
                   PARTITION BY qid ORDER BY sim DESC, neighbor ASC
               ) AS rank
        FROM s
    ) WHERE rank <= {ANN_K}
    """,
)
def knn_cosine(sf_dir: str):
    """Brute-force cosine top-k: broadcast query matrix, per-batch partial
    top-k (one matmul per batch), tiny grouped merge."""
    import ray
    import ray.data

    from sciscraper_ray.stages.ann import BruteForceTopK, topk_reduce

    qids, qmat = _query_vectors(sf_dir)
    queries_ref = ray.put((qids, qmat))
    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    partials = ds.map_batches(
        BruteForceTopK(queries_ref=queries_ref, k=ANN_K),
        batch_format="pyarrow",
    )
    merged = partials.groupby("qid").map_groups(
        lambda g: topk_reduce(g, ANN_K), batch_format="pandas"
    )
    return merged.select_columns(["qid", "neighbor", "rank"])


def _ivf_neighbors(sf_dir: str):
    """IVF ANN with REAL pruning: deterministic centroids (seeded greedy +
    Lloyd), corpus bucketed by nearest centroid, then SORTED by bucket —
    the one (key-only-sized) shuffle that physically co-locates each
    bucket so blocks hold few buckets. The search kernel multiplies ONLY
    rows whose bucket is probed (nprobe=8 of 16) by some query
    (stages/ann.py pruned_search_batch; round-1 version computed the full
    cosine matrix before filtering — same compute as brute force)."""
    import ray
    import ray.data

    from sciscraper_ray.stages.ann import (
        CentroidAssign,
        cosine_matrix,
        kmeans_fit,
        pruned_search_batch,
        topk_reduce,
    )

    qids, qmat = _query_vectors(sf_dir)
    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    # distributed Lloyd fit: every vector participates via streamed
    # (count, vector-sum) partials — not a driver-side sample-only fit
    cents = kmeans_fit(ds, n_centroids=16, iters=3)
    cents_ref = ray.put(cents)
    bucketed = ds.map_batches(
        CentroidAssign(centroids_ref=cents_ref),
        batch_format="pyarrow",
    ).sort("bucket")
    # (nq, 16) bool: nprobe nearest centroids per query
    order = np.argsort(-cosine_matrix(qmat, cents), axis=1)[:, :8]
    probe = np.zeros((len(qids), 16), dtype=bool)
    np.put_along_axis(probe, order, True, axis=1)

    merged = (
        bucketed.map_batches(
            lambda b: pruned_search_batch(b, qids, qmat, probe, ANN_K)[0],
            batch_format="pyarrow",
        )
        .groupby("qid")
        .map_groups(lambda g: topk_reduce(g, ANN_K), batch_format="pandas")
    )
    return merged.select_columns(["qid", "neighbor", "rank"])


@register(
    "ann_ivf",
    oracle=f"""
    SELECT DISTINCT vec_id AS qid, TRUE AS recall_ok
    FROM embeddings WHERE vec_id < {N_ANN_QUERIES}
    """,
)
def ann_ivf(sf_dir: str):
    """IVF ANN, driver-value-checked through a per-query RECALL gate
    (closing round 2's one rows-only registry entry): the IVF top-k runs
    against the exact brute-force top-k (the ``knn_cosine`` plan) and
    each query id emits ``recall_ok = recall@k >= 0.4``. The oracle
    states the expected table — every query passes — from first
    principles. An exact neighbor-hash oracle is impossible (k-means
    centroids are data-dependent floats), so the contract checked here
    is the approximate-index contract itself: the index finds the true
    neighbors. 0.4 is a deliberately conservative floor (measured
    per-query recalls: min 0.6, mean 0.84-0.9 across sf0.001/0.01/0.1)
    so borderline centroid-assignment jitter between block layouts
    cannot flip the gate; the strong assertions (mean recall, compute
    pruning) live in tests/test_ann.py. Both top-k tables are
    O(queries x k) — the driver-side compare reads ~50 rows, never the
    corpus."""
    ivf = _ivf_neighbors(sf_dir).to_pandas()  # bounded: Q x k rows
    bf = knn_cosine(sf_dir).to_pandas()  # bounded: Q x k rows
    rows = []
    for qid, g in bf.groupby("qid"):
        truth = set(g["neighbor"])
        got = set(ivf.loc[ivf["qid"] == qid, "neighbor"])
        rows.append((int(qid), len(truth & got) / len(truth) >= 0.4))
    return pa.table(
        {
            "qid": pa.array([r[0] for r in rows], pa.int64()),
            "recall_ok": pa.array([r[1] for r in rows], pa.bool_()),
        }
    )


def _srp_bucket_sql(col: str) -> str:
    """The SRP bucket id as a SQL expression over the SAME plane literals
    the Ray side uses (repr round-trips float64 exactly; dot products
    accumulate in DOUBLE on both sides)."""
    from sciscraper_ray.stages.ann import srp_planes

    terms = []
    for j, plane in enumerate(srp_planes()):
        lits = ", ".join(repr(float(x)) for x in plane)
        terms.append(
            f"CASE WHEN list_dot_product(CAST({col} AS DOUBLE[]), [{lits}])"
            f" >= 0 THEN {1 << j} ELSE 0 END"
        )
    return "(" + " + ".join(terms) + ")"


@register(
    "ann_srp_bucketed",
    oracle=f"""
    WITH v AS (
        SELECT vec_id, embedding, {_srp_bucket_sql("embedding")} AS bucket FROM embeddings
    ), q AS (
        SELECT vec_id AS qid, embedding AS qe, bucket AS qb
        FROM v WHERE vec_id < {N_ANN_QUERIES}
    ), s AS (
        SELECT qid, v.vec_id AS neighbor,
               list_cosine_similarity(qe, v.embedding) AS sim
        FROM q, v
        WHERE v.vec_id <> qid AND bit_count(xor(v.bucket, qb)) <= 2
    )
    SELECT qid, neighbor, rank FROM (
        SELECT qid, neighbor,
               row_number() OVER (
                   PARTITION BY qid ORDER BY sim DESC, neighbor ASC
               ) AS rank
        FROM s
    ) WHERE rank <= {ANN_K}
    """,
)
def ann_srp_bucketed(sf_dir: str):
    """LSH-bucketed ANN with a FULL SQL oracle: seeded signed-random-
    projection buckets (64 = 2^6, data-independent so both sides compute
    identical bucket ids from embedded plane literals), corpus sorted by
    bucket (the partitioning shuffle), queries multi-probe buckets within
    hamming distance 2 of their own (22 of 64 — ~1/3 of the corpus
    scanned, a ~3x prune; the synthetic neighbors sit at cosine ~0.3,
    where tighter probes trade too much recall), exact cosine top-k
    within the probed buckets. Deterministic
    by construction, so the driver value-hash check applies — the oracle
    coverage the centroid IVF (k-means is data-dependent) cannot have."""
    import ray.data

    from sciscraper_ray.stages.ann import (
        ANN_SRP_BITS,
        SrpBucketAssign,
        hamming_probe_mask,
        pruned_search_batch,
        srp_bucket_of,
        srp_planes,
        topk_reduce,
    )

    planes = srp_planes()
    qids, qmat = _query_vectors(sf_dir)
    probe = hamming_probe_mask(
        srp_bucket_of(qmat, planes), 1 << ANN_SRP_BITS, max_hamming=2
    )
    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    bucketed = ds.map_batches(
        SrpBucketAssign(planes), batch_format="pyarrow"
    ).sort("bucket")
    merged = (
        bucketed.map_batches(
            lambda b: pruned_search_batch(b, qids, qmat, probe, ANN_K)[0],
            batch_format="pyarrow",
        )
        .groupby("qid")
        .map_groups(lambda g: topk_reduce(g, ANN_K), batch_format="pandas")
    )
    return merged.select_columns(["qid", "neighbor", "rank"])




SEM_K = 8  # seed centroids; at real scale K ~ N / target-cluster-size
SEM_TAU = 0.35  # no natural near-dups in this corpus (max pair cos ~0.51)


@register(
    "dedup_semantic",
    oracle=f"""
    WITH seeds AS (
        SELECT vec_id AS seed_idx, embedding AS se
        FROM embeddings WHERE vec_id < {SEM_K}
    ), assign AS (
        SELECT e.vec_id, s.seed_idx,
               row_number() OVER (
                   PARTITION BY e.vec_id
                   ORDER BY list_cosine_similarity(
                       e.embedding::DOUBLE[], s.se::DOUBLE[]) DESC,
                            s.seed_idx ASC
               ) AS rn
        FROM embeddings e, seeds s
    ), a AS (
        SELECT vec_id, seed_idx AS cluster_id FROM assign WHERE rn = 1
    )
    SELECT a.vec_id,
           CAST(a.cluster_id AS INTEGER) AS cluster_id,
           EXISTS(
               SELECT 1 FROM a a2
               JOIN embeddings e2 ON e2.vec_id = a2.vec_id
               WHERE a2.cluster_id = a.cluster_id
                 AND a2.vec_id < a.vec_id
                 AND list_cosine_similarity(
                         e2.embedding::DOUBLE[], e.embedding::DOUBLE[])
                     >= {SEM_TAU}
           ) AS is_dup
    FROM a JOIN embeddings e ON e.vec_id = a.vec_id
    """,
)
def dedup_semantic(sf_dir: str):
    """SemDeDup-style semantic dedup (Abbas et al. 2023, arXiv:2303.09540):
    cluster embeddings against K fixed seed centroids (broadcast once via
    ray.put, one matmul per batch — the k-means assignment step with
    deterministic seeds so the oracle can replay it), then mark a row
    duplicate when any lower-vec_id member of ITS cluster has cosine >=
    tau. The within-cluster pairwise step runs per cluster (group count =
    K, so groupby.map_groups is the right dispatch here — per-group
    overhead is K * ~100us, not per-doc) with a chunked lower-triangle
    matmul so a mega-cluster never materializes an n^2 matrix. Scale note:
    K grows as N / target-cluster-size (SemDeDup uses 50k clusters for
    LAION), keeping per-cluster cost bounded; cluster skew is the knob to
    watch, and the chunking bounds worst-case memory. Threshold/argmax
    float margins vs the DuckDB oracle were measured (min gap to tau
    2.9e-5, argmax top-2 gap 4.1e-4, cross-engine cosine diff ~4e-16)."""
    import ray
    import ray.data
    import pyarrow.parquet as pq

    from sciscraper_ray.stages.ann import _stack

    seeds_t = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    seeds_t = seeds_t.filter(pc.less(seeds_t["vec_id"], SEM_K)).sort_by("vec_id")
    S = _stack(seeds_t["embedding"]).astype(np.float64)
    S /= np.linalg.norm(S, axis=1, keepdims=True)
    seeds_ref = ray.put(S)

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )

    def assign(batch: pa.Table) -> pa.Table:
        seeds = ray.get(seeds_ref)
        emb = _stack(batch["embedding"]).astype(np.float64)
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        cluster = np.argmax(emb @ seeds.T, axis=1)  # first max = lowest idx
        return pa.table(
            {
                "vec_id": batch["vec_id"],
                "cluster_id": pa.array(cluster.astype(np.int32)),
                "embedding": batch["embedding"],
            }
        )

    assigned = ds.map_batches(assign, batch_format="pyarrow")

    def mark(group):
        import pandas as pd

        g = group.sort_values("vec_id").reset_index(drop=True)
        emb = np.array(g["embedding"].tolist(), dtype=np.float64)
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        n = len(g)
        is_dup = np.zeros(n, dtype=bool)
        chunk = 1024
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            cos = emb[lo:hi] @ emb[:hi].T  # rows lo..hi vs all earlier+self
            earlier = np.arange(hi)[None, :] < np.arange(lo, hi)[:, None]
            is_dup[lo:hi] = ((cos >= SEM_TAU) & earlier).any(axis=1)
        return pd.DataFrame(
            {
                "vec_id": g["vec_id"],
                "cluster_id": g["cluster_id"],
                "is_dup": is_dup,
            }
        )

    return assigned.groupby("cluster_id").map_groups(mark, batch_format="pandas")


_PQ_M = 8  # subspaces (64-dim / 8)
_PQ_K = 4  # centroids per subspace (seeds: vec_id < 4, deterministic)


def _seq_sum(parts) -> "np.ndarray":
    """Strict left-to-right float accumulation (parts: iterable of equal-
    shape arrays). Mirrors SQL's left-associative ``t1 + t2 + ... + tn`` so
    both engines produce BIT-IDENTICAL doubles — the property the ann_ivf_pq
    oracle's exact rank compare rests on (einsum/np.sum use pairwise or
    SIMD-reordered accumulation, which can differ in the last ulp)."""
    it = iter(parts)
    acc = next(it).copy()
    for p in it:
        acc += p
    return acc


def _l2sq_seq(x: "np.ndarray", y: "np.ndarray") -> "np.ndarray":
    """(n, d) x (c, d) -> (n, c) squared-L2 with per-coordinate terms added
    strictly left-to-right over d (see _seq_sum)."""
    d = x.shape[1]
    diff = x[:, None, :] - y[None, :, :]
    sq = diff * diff
    return _seq_sum(sq[:, :, j] for j in range(d))


def _pq_d2_sql(m: str) -> str:
    """L2^2 between 8-dim subvectors of e.embedding and s.se at subspace
    ``m`` (1-based list indexing; explicit terms, no pow())."""
    terms = [
        f"(CAST(e.embedding[{m}*8+{j}] AS DOUBLE) - CAST(s.se[{m}*8+{j}] AS DOUBLE))"
        f" * (CAST(e.embedding[{m}*8+{j}] AS DOUBLE) - CAST(s.se[{m}*8+{j}] AS DOUBLE))"
        for j in range(1, 9)
    ]
    return " + ".join(terms)


@register(
    "embedding_pq_encode",
    oracle=f"""
    WITH seeds AS (
        SELECT vec_id AS k, embedding AS se FROM embeddings
        WHERE vec_id < {_PQ_K}
    ), sub AS (
        SELECT e.vec_id, s.k, g.m, {_pq_d2_sql("g.m")} AS d2
        FROM embeddings e, seeds s, (SELECT unnest(range({_PQ_M})) AS m) g
    ), best AS (
        SELECT vec_id, m, k, d2,
               row_number() OVER (
                   PARTITION BY vec_id, m ORDER BY d2 ASC, k ASC
               ) AS rn
        FROM sub
    )
    SELECT vec_id,
           {", ".join(f"CAST(max(CASE WHEN m = {m} THEN k END) AS INTEGER) AS code_{m}" for m in range(8))},
           round(sum(d2), 6) AS distortion
    FROM best WHERE rn = 1 GROUP BY vec_id
    """,
)
def embedding_pq_encode(sf_dir: str):
    """Product-quantization encoding (Jegou et al. TPAMI'11 — the ANN
    compression standard): split each 64-dim embedding into M=8 8-dim
    subspaces and assign each to its nearest of K=4 per-subspace
    centroids (deterministic seeds = the first K embeddings, so the
    oracle can replay the codebook). The codebook is broadcast once via
    ray.put (M*K*8 doubles); per batch the assignment is one vectorized
    distance tensor (n, M, K) with argmin ties going to the lowest k on
    both engines. Emits the M code columns plus total quantization
    distortion — at real scale the codes (M bytes/vector) are what an
    IVF-PQ index stores in place of the raw vectors."""
    import ray
    import ray.data
    import pyarrow.parquet as pq

    from sciscraper_ray.stages.ann import _stack

    seeds_t = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    seeds_t = seeds_t.filter(pc.less(seeds_t["vec_id"], _PQ_K)).sort_by("vec_id")
    codebook = (
        _stack(seeds_t["embedding"]).astype(np.float64).reshape(_PQ_K, _PQ_M, -1)
    )
    cb_ref = ray.put(np.ascontiguousarray(codebook.transpose(1, 0, 2)))  # (M,K,8)

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )

    def encode(batch: pa.Table) -> pa.Table:
        cb = ray.get(cb_ref)
        emb = _stack(batch["embedding"]).astype(np.float64)
        sub = emb.reshape(len(emb), _PQ_M, -1)  # (n, M, 8)
        diff = sub[:, :, None, :] - cb[None, :, :, :]  # (n, M, K, 8)
        d2 = np.einsum("nmkj,nmkj->nmk", diff, diff)
        codes = np.argmin(d2, axis=2)  # first min = lowest k
        dist = np.take_along_axis(d2, codes[:, :, None], axis=2)[:, :, 0].sum(1)
        cols = {"vec_id": batch["vec_id"]}
        for m in range(_PQ_M):
            cols[f"code_{m}"] = pa.array(codes[:, m].astype(np.int32))
        cols["distortion"] = pa.array(np.round(dist, 6), pa.float64())
        return pa.table(cols)

    return ds.map_batches(encode, batch_format="pyarrow")


# --------------------------------------------------------------------------
# IVF-PQ asymmetric-distance search (IVFADC) — the billion-scale ANN layout.
# --------------------------------------------------------------------------

_IVFPQ_C = 16  # coarse centroids (deterministic seeds: vec_id < 16)
_IVFPQ_NPROBE = 4


def _l2_full_sql(a: str, b: str, dim: int = 64) -> str:
    """Squared L2 between two full list<float> columns as explicit
    left-associative terms (1-based list indexing) — bit-identical to the
    Ray side's _l2sq_seq accumulation."""
    return " + ".join(
        f"(CAST({a}[{j}] AS DOUBLE) - CAST({b}[{j}] AS DOUBLE))"
        f" * (CAST({a}[{j}] AS DOUBLE) - CAST({b}[{j}] AS DOUBLE))"
        for j in range(1, dim + 1)
    )


def _sub_d2_lit_sql(a: str, b: str, m: int) -> str:
    """Squared L2 between 8-dim subvectors at LITERAL subspace m."""
    return " + ".join(
        f"(CAST({a}[{m * 8 + j}] AS DOUBLE) - CAST({b}[{m * 8 + j}] AS DOUBLE))"
        f" * (CAST({a}[{m * 8 + j}] AS DOUBLE) - CAST({b}[{m * 8 + j}] AS DOUBLE))"
        for j in range(1, 9)
    )


@register(
    "ann_ivf_pq",
    oracle=f"""
    WITH coarse AS (
        SELECT vec_id AS c, embedding AS ce FROM embeddings
        WHERE vec_id < {_IVFPQ_C}
    ), pqseeds AS (
        SELECT vec_id AS k, embedding AS se FROM embeddings
        WHERE vec_id < {_PQ_K}
    ), q AS (
        SELECT vec_id AS qid, embedding AS qe FROM embeddings
        WHERE vec_id < {N_ANN_QUERIES}
    ), assign_rn AS (
        SELECT e.vec_id, co.c,
               row_number() OVER (
                   PARTITION BY e.vec_id
                   ORDER BY {_l2_full_sql("e.embedding", "co.ce")} ASC, co.c ASC
               ) AS rn
        FROM embeddings e, coarse co
    ), buckets AS (
        SELECT vec_id, c AS bucket FROM assign_rn WHERE rn = 1
    ), subd AS (
        SELECT e.vec_id, s.k, g.m, {_pq_d2_sql("g.m")} AS d2
        FROM embeddings e, pqseeds s, (SELECT unnest(range({_PQ_M})) AS m) g
    ), code_rn AS (
        SELECT vec_id, m, k,
               row_number() OVER (
                   PARTITION BY vec_id, m ORDER BY d2 ASC, k ASC
               ) AS rn
        FROM subd
    ), codes AS (
        SELECT vec_id,
               {", ".join(f"max(CASE WHEN m = {m} THEN k END) AS code_{m}" for m in range(8))}
        FROM code_rn WHERE rn = 1 GROUP BY vec_id
    ), probe_rn AS (
        SELECT q.qid, co.c,
               row_number() OVER (
                   PARTITION BY q.qid
                   ORDER BY {_l2_full_sql("q.qe", "co.ce")} ASC, co.c ASC
               ) AS rn
        FROM q, coarse co
    ), probe AS (
        SELECT qid, c FROM probe_rn WHERE rn <= {_IVFPQ_NPROBE}
    ), lut AS (
        SELECT q.qid, s.k,
               {", ".join(f'{_sub_d2_lit_sql("q.qe", "s.se", m)} AS l{m}' for m in range(8))}
        FROM q, pqseeds s
    ), cand AS (
        SELECT p.qid, b.vec_id AS neighbor,
               {", ".join(f"cd.code_{m}" for m in range(8))}
        FROM probe p
        JOIN buckets b ON b.bucket = p.c
        JOIN codes cd ON cd.vec_id = b.vec_id
        WHERE b.vec_id <> p.qid
    ), adc AS (
        SELECT c.qid, c.neighbor,
               {" + ".join(f"t{m}.l{m}" for m in range(8))} AS d
        FROM cand c
        {" ".join(f"JOIN lut t{m} ON t{m}.qid = c.qid AND t{m}.k = c.code_{m}" for m in range(8))}
    ), ranked AS (
        SELECT qid, neighbor,
               row_number() OVER (
                   PARTITION BY qid ORDER BY d ASC, neighbor ASC
               ) AS rank
        FROM adc
    )
    SELECT qid, neighbor, rank FROM ranked WHERE rank <= {ANN_K}
    """,
)
def ann_ivf_pq(sf_dir: str):
    """IVF-PQ asymmetric-distance search (Jegou, Douze, Schmid, TPAMI'11 —
    the FAISS IVFADC layout, here without residual encoding so the oracle
    stays closed-form): ONE fused encode pass turns each 64-dim vector into
    a coarse bucket id plus M=8 one-byte PQ codes and DROPS the raw
    embedding — the index that enters the bucket sort is ~10 bytes/vector
    vs 256 raw, the 25x compression that makes a RAM-resident
    billion-vector index possible. Queries probe their nprobe=4 nearest of
    C=16 coarse cells; per probed batch the distance is a pure table
    lookup: an (nq, M, K) ADC lookup table is built ONCE on the driver
    from the broadcast codebook, and each candidate's distance is M
    gather-adds — no floating-point vector math per candidate at all.

    Determinism contract: every distance on both engines is a
    left-associative sum of identical IEEE-double terms (_seq_sum /
    _l2sq_seq mirror the SQL's explicit ``t1 + t2 + ...``), so coarse
    assignment, codes, probe sets, and final ADC ranks compare BIT-EXACTLY
    against the oracle — ties broken by id on both sides. Codebooks are
    deterministic seeds (first C / first K embeddings); at real scale they
    come from kmeans_fit (stages/ann.py) and the oracle property becomes a
    recall gate like ann_ivf's.

    Scale shape: encode is embarrassingly parallel; the one shuffle
    (sort by bucket) moves only the 10-byte code rows, never embeddings;
    search scans just the probed fraction (nprobe/C) and ships O(q x k)
    partials to a tiny grouped merge."""
    import ray
    import ray.data
    import pyarrow.parquet as pq

    from sciscraper_ray.stages.ann import _stack

    head = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    head = head.filter(
        pc.less(head["vec_id"], max(_IVFPQ_C, _PQ_K, N_ANN_QUERIES))
    ).sort_by("vec_id")
    mat = _stack(head["embedding"]).astype(np.float64)
    hvids = head["vec_id"].to_numpy(zero_copy_only=False)
    coarse = mat[hvids < _IVFPQ_C]
    cb = np.ascontiguousarray(
        mat[hvids < _PQ_K].reshape(_PQ_K, _PQ_M, -1).transpose(1, 0, 2)
    )  # (M, K, 8)
    qsel = hvids < N_ANN_QUERIES
    qids, qmat = hvids[qsel].astype(np.int64), mat[qsel]

    # driver-built, broadcast once: probe sets + the ADC lookup table
    pd2 = _l2sq_seq(qmat, coarse)  # (nq, C)
    order = np.lexsort(
        (np.tile(np.arange(_IVFPQ_C), (len(qids), 1)), pd2), axis=1
    )[:, :_IVFPQ_NPROBE]
    probe = np.zeros((len(qids), _IVFPQ_C), dtype=bool)
    np.put_along_axis(probe, order, True, axis=1)
    qsub = qmat.reshape(len(qids), _PQ_M, -1)
    qdiff = qsub[:, :, None, :] - cb[None, :, :, :]  # (nq, M, K, 8)
    qsq = qdiff * qdiff
    lut = _seq_sum(qsq[:, :, :, j] for j in range(8))  # (nq, M, K)

    enc_ref = ray.put((coarse, cb))
    search_ref = ray.put((qids, lut, probe))

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )

    def encode(batch: pa.Table) -> pa.Table:
        co, cbk = ray.get(enc_ref)
        emb = _stack(batch["embedding"]).astype(np.float64)
        bucket = np.argmin(_l2sq_seq(emb, co), axis=1)  # first min = low c
        sub = emb.reshape(len(emb), _PQ_M, -1)
        diff = sub[:, :, None, :] - cbk[None, :, :, :]
        sq = diff * diff
        d2 = _seq_sum(sq[:, :, :, j] for j in range(8))  # (n, M, K)
        codes = np.argmin(d2, axis=2)
        cols = {
            "vec_id": batch["vec_id"],
            "bucket": pa.array(bucket.astype(np.int64)),
        }
        for m in range(_PQ_M):
            cols[f"code_{m}"] = pa.array(codes[:, m].astype(np.int8))
        return pa.table(cols)  # raw embedding dropped here

    index = ds.map_batches(encode, batch_format="pyarrow").sort("bucket")

    def search(batch: pa.Table) -> pa.Table:
        qids_, lut_, probe_ = ray.get(search_ref)
        empty = pa.table(
            {
                "qid": pa.array([], pa.int64()),
                "neighbor": pa.array([], pa.int64()),
                "d": pa.array([], pa.float64()),
            }
        )
        if batch.num_rows == 0:
            return empty
        vids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        bk = batch["bucket"].to_numpy(zero_copy_only=False)
        codes = np.stack(
            [
                batch[f"code_{m}"].to_numpy(zero_copy_only=False)
                for m in range(_PQ_M)
            ],
            axis=1,
        ).astype(np.int64)
        cand = probe_[:, bk]  # (nq, n)
        cand &= vids[None, :] != qids_[:, None]
        if not cand.any():
            return empty
        adc = _seq_sum(lut_[:, m, :][:, codes[:, m]] for m in range(_PQ_M))
        rows_q, rows_n, rows_d = [], [], []
        for qi in range(len(qids_)):
            idx = np.nonzero(cand[qi])[0]
            if not len(idx):
                continue
            sel = idx[np.lexsort((vids[idx], adc[qi, idx]))][:ANN_K]
            rows_q.extend([qids_[qi]] * len(sel))
            rows_n.extend(vids[sel].tolist())
            rows_d.extend(adc[qi, sel].tolist())
        return pa.table(
            {
                "qid": pa.array(rows_q, pa.int64()),
                "neighbor": pa.array(rows_n, pa.int64()),
                "d": pa.array(rows_d, pa.float64()),
            }
        )

    def reduce_asc(g):
        import pandas as pd

        g = g.sort_values(["d", "neighbor"], ascending=True).head(ANN_K)
        g = g.reset_index(drop=True)
        return pd.DataFrame(
            {
                "qid": g["qid"],
                "neighbor": g["neighbor"],
                "rank": np.arange(1, len(g) + 1, dtype=np.int64),
            }
        )

    merged = (
        index.map_batches(search, batch_format="pyarrow")
        .groupby("qid")
        .map_groups(reduce_asc, batch_format="pandas")
    )
    return merged.select_columns(["qid", "neighbor", "rank"])

# --------------------------------------------------------------------------
# Per-dimension feature statistics — the distributed "scaler fit" every
# embedding pipeline runs before normalization/whitening/quantization.
# --------------------------------------------------------------------------


@register(
    "embedding_dim_stats",
    oracle="""
    WITH flat AS (
        SELECT generate_subscripts(embedding, 1) - 1 AS dim,
               CAST(unnest(embedding) AS DOUBLE) AS x
        FROM embeddings
    ), a AS (
        SELECT dim, count(*) AS n, sum(x) AS s, sum(x * x) AS ss,
               min(x) AS mn, max(x) AS mx
        FROM flat GROUP BY dim
    )
    SELECT dim,
           round(s / n, 6) AS mean,
           round(sqrt(greatest(ss / n - (s / n) * (s / n), 0)), 6) AS std,
           round(mn, 6) AS vmin,
           round(mx, 6) AS vmax
    FROM a ORDER BY dim
    """,
)
def embedding_dim_stats(sf_dir: str):
    """Distributed per-dimension moments over the vector column (StandardScaler
    fit): each batch contributes one (d,)-row partial of (n, sum, sumsq,
    min, max) computed as column reductions of the stacked (n, d) matrix —
    the exchange is d rows per block regardless of corpus size, and the
    final groupby merges |blocks| * d tiny rows. Population std uses the
    same naive ss/n - mean^2 form on both engines (clamped at 0), so
    round(,6) pins the comparison."""
    import ray.data

    from sciscraper_ray.stages.ann import _stack

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["embedding"])

    def dim_partial(b: pa.Table) -> pa.Table:
        m = _stack(b["embedding"])
        d = m.shape[1]
        return pa.table(
            {
                "dim": pa.array(np.arange(d, dtype=np.int64), pa.int64()),
                "n_p": pa.array(np.full(d, m.shape[0], dtype=np.int64)),
                "s_p": pa.array(m.sum(axis=0), pa.float64()),
                "ss_p": pa.array((m * m).sum(axis=0), pa.float64()),
                "mn_p": pa.array(m.min(axis=0), pa.float64()),
                "mx_p": pa.array(m.max(axis=0), pa.float64()),
            }
        )

    agg = group_count(
        ds.map_batches(dim_partial, batch_format="pyarrow"),
        "dim",
        {"n_p": "n", "s_p": "s", "ss_p": "ss"},
        count=None,
        aggs={"mn": ("mn_p", "min"), "mx": ("mx_p", "max")},
    )

    def finish(b: pa.Table) -> pa.Table:
        n = b["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        s = b["s"].to_numpy(zero_copy_only=False)
        ss = b["ss"].to_numpy(zero_copy_only=False)
        mean = s / n
        std = np.sqrt(np.maximum(ss / n - mean * mean, 0.0))
        return pa.table(
            {
                "dim": b["dim"],
                "mean": pa.array(np.round(mean, 6), pa.float64()),
                "std": pa.array(np.round(std, 6), pa.float64()),
                "vmin": pa.array(
                    np.round(b["mn"].to_numpy(zero_copy_only=False), 6),
                    pa.float64(),
                ),
                "vmax": pa.array(
                    np.round(b["mx"].to_numpy(zero_copy_only=False), 6),
                    pa.float64(),
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


# --------------------------------------------------------------------------
# k-NN label classification: majority vote among the cosine top-k — the
# label-propagation / quality-transfer primitive over an embedded corpus.
# --------------------------------------------------------------------------


@register(
    "knn_label_classify",
    oracle=f"""
    WITH q AS (
        SELECT vec_id AS qid, embedding AS qe, label AS true_label
        FROM embeddings WHERE vec_id < {N_ANN_QUERIES}
    ), s AS (
        SELECT qid, e.vec_id AS neighbor,
               list_cosine_similarity(qe, e.embedding) AS sim
        FROM q, embeddings e WHERE e.vec_id <> qid
    ), topk AS (
        SELECT qid, neighbor FROM (
            SELECT qid, neighbor,
                   row_number() OVER (
                       PARTITION BY qid ORDER BY sim DESC, neighbor ASC
                   ) AS rank
            FROM s
        ) WHERE rank <= {ANN_K}
    ), votes AS (
        SELECT t.qid, e.label, count(*) AS votes
        FROM topk t JOIN embeddings e ON e.vec_id = t.neighbor
        GROUP BY t.qid, e.label
    )
    SELECT v.qid, v.label AS pred_label, v.votes, q.true_label
    FROM (
        SELECT qid, label, votes,
               row_number() OVER (
                   PARTITION BY qid ORDER BY votes DESC, label ASC
               ) AS r
        FROM votes
    ) v JOIN q ON q.qid = v.qid
    WHERE v.r = 1
    """,
)
def knn_label_classify(sf_dir: str):
    """k-NN classification over the embedding column: majority label of
    the cosine top-{ANN_K} neighbors (tie -> smaller label), with the
    query's own label carried for accuracy audits. Reuses the brute-force
    plan knn_cosine proved: broadcast query matrix, one matmul +
    partial top-k per batch, tiny grouped merge; the vote itself runs on
    the merged (Q x k) table plus one broadcast label lookup — nothing
    corpus-sized moves after the scan."""
    import ray
    import ray.data

    from sciscraper_ray.stages.ann import BruteForceTopK, topk_reduce

    qids, qmat = _query_vectors(sf_dir)
    queries_ref = ray.put((qids, qmat))
    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    partials = ds.map_batches(
        BruteForceTopK(queries_ref=queries_ref, k=ANN_K),
        batch_format="pyarrow",
    )
    topk = partials.groupby("qid").map_groups(
        lambda g: topk_reduce(g, ANN_K), batch_format="pandas"
    ).to_pandas()  # bounded: Q x k rows

    need = pa.array(
        np.unique(
            np.concatenate(
                [topk["neighbor"].to_numpy(np.int64), topk["qid"].to_numpy(np.int64)]
            )
        )
    )
    labels = (
        ray.data.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "label"]
        )
        .map_batches(
            lambda b: b.filter(pc.is_in(b["vec_id"], value_set=need)),
            batch_format="pyarrow",
        )
        # bounded: semi-joined to the Q x (k+1) id set before the pull
        .to_pandas()
        .set_index("vec_id")["label"]
    )
    topk["label"] = topk["neighbor"].map(labels).astype(np.int32)
    votes = (
        topk.groupby(["qid", "label"]).size().rename("votes").reset_index()
    )
    votes = votes.sort_values(
        ["qid", "votes", "label"], ascending=[True, False, True]
    )
    best = votes.groupby("qid", sort=True).head(1).reset_index(drop=True)
    best["true_label"] = best["qid"].map(labels).astype(np.int32)
    return pa.table(
        {
            "qid": pa.array(best["qid"].to_numpy(np.int64)),
            "pred_label": pa.array(best["label"].to_numpy(np.int32)),
            "votes": pa.array(best["votes"].to_numpy(np.int64)),
            "true_label": pa.array(best["true_label"].to_numpy(np.int32)),
        }
    )


# --------------------------------------------------------------------------
# Label-centroid geometry: pairwise cosine similarity between per-label
# mean vectors — the cluster-separation report for an embedded corpus.
# --------------------------------------------------------------------------


@register(
    "embedding_label_centroid_sim",
    oracle="""
    WITH flat AS (
        SELECT label, generate_subscripts(embedding, 1) AS dim,
               CAST(unnest(embedding) AS DOUBLE) AS v
        FROM embeddings
    ), cent AS (
        SELECT label, dim, sum(v) / count(*) AS c
        FROM flat GROUP BY label, dim
    ), pairs AS (
        SELECT a.label AS label_a, b.label AS label_b,
               sum(a.c * b.c) AS dot,
               sqrt(sum(a.c * a.c)) AS na, sqrt(sum(b.c * b.c)) AS nb
        FROM cent a JOIN cent b ON a.dim = b.dim AND a.label < b.label
        GROUP BY label_a, label_b
    )
    SELECT label_a, label_b, round(dot / (na * nb), 6) AS cos_sim
    FROM pairs
    """,
)
def embedding_label_centroid_sim(sf_dir: str):
    """Pairwise cosine similarity of per-label centroid vectors: each
    batch reduces to a (labels x dim) partial sum + count (constant
    size), one driver merge builds the centroids, and the |labels|^2/2
    pair table is pure numpy. The oracle rebuilds the same centroids by
    unnesting the list column with generate_subscripts; float32 elements
    are widened to double on BOTH sides before any arithmetic and the
    similarity is rounded to 6 — centroid sums differ only in addition
    order (<=1 ulp), far below the rounding."""
    import ray.data

    from sciscraper_ray.stages.ann import _stack

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"]
    )

    def partial(b: pa.Table) -> pa.Table:
        import pandas as pd

        mat = _stack(b["embedding"]).astype(np.float64)
        codes, uniq = pd.factorize(
            b["label"].to_numpy(zero_copy_only=False), sort=True
        )
        sums = np.zeros((len(uniq), mat.shape[1]), np.float64)
        np.add.at(sums, codes, mat)
        cnt = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        return pa.table(
            {
                "label": pa.array(np.asarray(uniq, np.int32)),
                "cnt": pa.array(cnt, pa.int64()),
                "s": pa.array(list(sums), pa.list_(pa.float64())),
            }
        )

    # bounded: |labels| rows per block partial (labels is a small class set)
    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    labels = sorted(parts["label"].unique())
    cents = {}
    for lb in labels:
        rows = parts[parts["label"] == lb]
        total = np.sum(np.stack(rows["s"].to_numpy()), axis=0)
        cents[lb] = total / rows["cnt"].sum()
    la, lb_, cs = [], [], []
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            ca, cb = cents[a], cents[b]
            sim = float(ca @ cb) / (np.sqrt(ca @ ca) * np.sqrt(cb @ cb))
            la.append(int(a))
            lb_.append(int(b))
            cs.append(round(sim, 6))
    return pa.table(
        {
            "label_a": pa.array(la, pa.int32()),
            "label_b": pa.array(lb_, pa.int32()),
            "cos_sim": pa.array(cs, pa.float64()),
        }
    )


# --------------------------------------------------------------------------
# Global top-k most-similar embedding pairs — the all-pairs variant of
# knn_cosine (near-dup mining's ranked output, not a per-query search).
# --------------------------------------------------------------------------

_PAIR_TOPK = 100


@register(
    "embedding_pairwise_topk",
    oracle=f"""
    WITH s AS (
        SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
               list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                      CAST(b.embedding AS DOUBLE[])) AS sim
        FROM embeddings a, embeddings b
        WHERE a.vec_id < b.vec_id
    )
    SELECT vec_a, vec_b, rank FROM (
        SELECT vec_a, vec_b,
               row_number() OVER (
                   ORDER BY sim DESC, vec_a ASC, vec_b ASC
               ) AS rank
        FROM s
    ) WHERE rank <= {_PAIR_TOPK}
    """,
)
def embedding_pairwise_topk(sf_dir: str):
    """Global top-k most-similar pairs by cosine: each batch multiplies
    its rows against the broadcast normalized corpus matrix (one matmul,
    float64 like the DOUBLE[]-cast oracle), keeps only upper-triangle
    pairs (vec_a < vec_b counts each pair once), and emits a k-bounded
    per-batch partial; the driver merge sorts batches x k rows — never
    the n² pair stream. Ranks-only output keeps the hash compare off raw
    float sims (knn_cosine's convention). At open-web corpus sizes the
    broadcast matrix swaps for the SRP-bucketed pair generation
    (dedup_semantic's plan); the per-batch top-k + bounded merge is
    unchanged."""
    import pyarrow.parquet as pq
    import ray
    import ray.data

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    mat = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    matn = mat / norms[:, None]
    corpus_ref = ray.put((ids, matn))

    class PairTopK:
        def __init__(self):
            self.ids, self.matn = ray.get(corpus_ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            bid = b["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            bm = np.asarray(b["embedding"].to_pylist(), dtype=np.float64)
            bn = np.linalg.norm(bm, axis=1)
            bn[bn == 0] = 1.0
            sims = (bm / bn[:, None]) @ self.matn.T
            # upper triangle only: batch row id < corpus id
            mask = bid[:, None] < self.ids[None, :]
            sims = np.where(mask, sims, -np.inf)
            flat = sims.ravel()
            k = min(_PAIR_TOPK, (flat > -np.inf).sum())
            if k == 0:
                return pa.table(
                    {
                        "vec_a": pa.array([], pa.int64()),
                        "vec_b": pa.array([], pa.int64()),
                        "sim": pa.array([], pa.float64()),
                    }
                )
            idx = np.argpartition(-flat, k - 1)[:k]
            r, c = np.unravel_index(idx, sims.shape)
            return pa.table(
                {
                    "vec_a": pa.array(bid[r], pa.int64()),
                    "vec_b": pa.array(self.ids[c], pa.int64()),
                    "sim": pa.array(flat[idx], pa.float64()),
                }
            )

    partials = (
        ray.data.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        )
        .map_batches(PairTopK, batch_format="pyarrow", concurrency=(1, 4))
        .to_pandas()  # bounded: n_batches x k rows
    )
    top = partials.sort_values(
        ["sim", "vec_a", "vec_b"], ascending=[False, True, True], kind="stable"
    ).head(_PAIR_TOPK)
    return pa.table(
        {
            "vec_a": pa.array(top["vec_a"].to_numpy(), pa.int64()),
            "vec_b": pa.array(top["vec_b"].to_numpy(), pa.int64()),
            "rank": pa.array(np.arange(1, len(top) + 1), pa.int64()),
        }
    )


# --------------------------------------------------------------------------
# Distributed PCA-direction extraction: top principal axis of the
# embedding cloud via power iteration over the second-moment matrix.
# The Gram accumulation is the same d^2-doubles-per-batch reduction as
# embedding_gram; cross-engine exactness comes from fixed-point
# quantization (floor(x*1000 + 0.5) per coordinate), which makes the
# accumulated matrix INTEGER — addition order can't change it — so both
# engines iterate on bit-identical input and only benign 1e-16/step
# float drift separates them (rounded away at 6 decimals).
# --------------------------------------------------------------------------

_PI_DIM = 64
# the fixture spectrum has lambda2/lambda1 ~ 0.93, so 80 fixed steps put
# the iterate within ~0.4% angle of the true top axis — convergence is a
# property of the input, the cross-engine contract is the FIXED count
_PI_ITERS = 80


def _power_iteration_oracle() -> str:
    steps = []
    prev = "v0"
    for k in range(1, _PI_ITERS + 1):
        # the norm via a window over the SAME select keeps each CTE
        # referenced exactly once — a scalar subquery would re-expand the
        # whole chain per step (inlined CTEs, exponential blowup)
        steps.append(
            f"""v{k} AS MATERIALIZED (
        SELECT i, y / sqrt(sum(y * y) OVER ()) AS x FROM (
            SELECT g.i AS i, sum(CAST(g.m AS DOUBLE) * v.x) AS y
            FROM g JOIN {prev} v ON g.j = v.i GROUP BY g.i
        )
    )"""
        )
        prev = f"v{k}"
    body = ",\n    ".join(steps)
    return f"""
    WITH q AS (
        SELECT vec_id, t.i AS i,
               CAST(floor(CAST(embedding[t.i + 1] AS DOUBLE) * 1000 + 0.5)
                    AS BIGINT) AS qv
        FROM embeddings, range({_PI_DIM}) t(i)
    ), g AS MATERIALIZED (
        SELECT a.i AS i, b.i AS j, sum(a.qv * b.qv) AS m
        FROM q a JOIN q b ON a.vec_id = b.vec_id GROUP BY a.i, b.i
    ), v0 AS (
        SELECT i, 1.0 AS x FROM range({_PI_DIM}) t(i)
    ), {body}
    SELECT CAST(i AS BIGINT) AS dim, round(x, 6) + 0 AS loading FROM {prev}
    """


@register("embedding_power_iteration", oracle=_power_iteration_oracle())
def embedding_power_iteration(sf_dir: str):
    """Dominant eigenvector of the quantized second-moment matrix by 12
    fixed power-iteration steps (v0 = all-ones). Each batch ships ONE
    integer d x d X^T X partial (a single matmul over the zero-copy
    flatten-reshape) — the reduction volume is d^2 int64 per batch
    regardless of row count, the driver-side sum is exact integer
    arithmetic, and the iteration itself is 12 tiny d x d matvecs. Fixed
    iteration count (not convergence) keeps it deterministic and
    SQL-mirrorable; the oracle unrolls the same 12 normalized steps over
    the same integer matrix."""
    import ray.data

    from sciscraper_ray.stages.ann import _stack

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        mat = _stack(batch["embedding"])
        q = np.floor(mat * 1000.0 + 0.5).astype(np.int64)
        g = q.T @ q
        return pa.table(
            {
                "cell": pa.array(g.ravel(), pa.int64()),
                "idx": pa.array(np.arange(g.size, dtype=np.int64)),
            }
        )

    parts = group_count(
        ds.map_batches(partial, batch_format="pyarrow"),
        "idx",
        {"cell": "cell"},
        count=None,
    ).to_pandas()  # bounded: d^2 rows after the distributed integer sum
    d = _PI_DIM
    m = (
        parts.sort_values("idx")["cell"].to_numpy().reshape(d, d).astype(np.float64)
    )
    v = np.ones(d, np.float64)
    for _ in range(_PI_ITERS):
        y = m @ v
        v = y / np.sqrt(np.sum(y * y))
    return pa.table(
        {
            "dim": pa.array(np.arange(d, dtype=np.int64)),
            "loading": pa.array(np.round(v, 6) + 0.0, pa.float64()),
        }
    )


_TRUNC_DIM = 16


@register(
    "ann_dim_truncation_recall",
    oracle=f"""
    WITH q AS (
        SELECT vec_id AS qid, embedding AS qe FROM embeddings
        WHERE vec_id < {N_ANN_QUERIES}
    ), fr AS (
        SELECT qid, e.vec_id AS neighbor,
               row_number() OVER (
                   PARTITION BY qid
                   ORDER BY list_cosine_similarity(qe, e.embedding) DESC,
                            e.vec_id ASC
               ) AS rk
        FROM q, embeddings e WHERE e.vec_id <> qid
    ), tr AS (
        SELECT qid, e.vec_id AS neighbor,
               row_number() OVER (
                   PARTITION BY qid
                   ORDER BY list_cosine_similarity(
                       qe[1:{_TRUNC_DIM}], e.embedding[1:{_TRUNC_DIM}]
                   ) DESC, e.vec_id ASC
               ) AS rk
        FROM q, embeddings e WHERE e.vec_id <> qid
    )
    SELECT f.qid, CAST({ANN_K} AS BIGINT) AS k,
           CAST(count(t.neighbor) AS BIGINT) AS n_common
    FROM (SELECT * FROM fr WHERE rk <= {ANN_K}) f
    LEFT JOIN (SELECT * FROM tr WHERE rk <= {ANN_K}) t
      ON f.qid = t.qid AND f.neighbor = t.neighbor
    GROUP BY f.qid
    """,
)
def ann_dim_truncation_recall(sf_dir: str):
    """Matryoshka-style dimension-truncation recall audit: how many of
    each query's true cosine top-k (full 64 dims) survive when search
    runs on the first 16 dims only — the evaluation that decides whether
    a truncated-dim first pass (4x less matmul and memory bandwidth, the
    standard coarse-then-rerank trick at retrieval scale) is safe for
    this embedding family. One scan computes BOTH variants' per-batch
    partial top-k (two matmuls against the same broadcast query matrix,
    rows tagged by variant), the grouped merge is (2 x queries)-bounded,
    and the overlap count runs on the 2*|q|*k result rows. Output is
    integer counts (n_common of k), so the compare is exact even though
    similarities are float."""
    import ray
    import ray.data

    from sciscraper_ray.stages.ann import BruteForceTopK, topk_reduce

    qids, qmat = _query_vectors(sf_dir)
    full_ref = ray.put((qids, qmat))
    trunc_ref = ray.put((qids, qmat[:, :_TRUNC_DIM].copy()))

    class BothVariants:
        def __init__(self):
            self.full = BruteForceTopK(queries_ref=full_ref, k=ANN_K)
            self.trunc = BruteForceTopK(queries_ref=trunc_ref, k=ANN_K)

        def __call__(self, b: pa.Table) -> pa.Table:
            f = self.full(b)
            vecs = b["embedding"]
            sliced = pc.list_slice(vecs, 0, _TRUNC_DIM)
            t = self.trunc(
                pa.table({"vec_id": b["vec_id"], "embedding": sliced})
            )
            f = f.append_column(
                "variant", pa.array(np.zeros(len(f), np.int64))
            )
            t = t.append_column(
                "variant", pa.array(np.ones(len(t), np.int64))
            )
            return pa.concat_tables([f, t])

    merged = (
        ray.data.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        )
        .map_batches(BothVariants, batch_format="pyarrow", concurrency=(1, 4))
        .groupby(["variant", "qid"])
        .map_groups(lambda g: topk_reduce(g, ANN_K), batch_format="pandas")
        .to_pandas()  # bounded: 2 variants x Q x k rows
    )
    full_sets = {
        q: set(g["neighbor"])
        for q, g in merged[merged["variant"] == 0].groupby("qid")
    }
    trunc_sets = {
        q: set(g["neighbor"])
        for q, g in merged[merged["variant"] == 1].groupby("qid")
    }
    qs = sorted(full_sets)
    return pa.table(
        {
            "qid": pa.array(qs, pa.int64()),
            "k": pa.array([ANN_K] * len(qs), pa.int64()),
            "n_common": pa.array(
                [len(full_sets[q] & trunc_sets.get(q, set())) for q in qs],
                pa.int64(),
            ),
        }
    )


@register(
    "embedding_mutual_knn",
    oracle=f"""
    WITH s AS (
        SELECT a.vec_id AS src, b.vec_id AS dst,
               list_cosine_similarity(a.embedding, b.embedding) AS sim
        FROM embeddings a, embeddings b WHERE a.vec_id <> b.vec_id
    ), m AS (
        SELECT src, dst FROM (
            SELECT src, dst, row_number() OVER (
                PARTITION BY src ORDER BY sim DESC, dst ASC
            ) AS rnk
            FROM s
        ) WHERE rnk <= {ANN_K}
    ), mut AS (
        SELECT a.src AS u, a.dst AS v
        FROM m a JOIN m b ON a.src = b.dst AND a.dst = b.src
        WHERE a.src < a.dst
    ), ends AS (
        SELECT u AS node FROM mut UNION ALL SELECT v FROM mut
    ), deg AS (
        SELECT e.vec_id AS node, coalesce(c.cnt, 0) AS degree
        FROM embeddings e LEFT JOIN (
            SELECT node, count(*) AS cnt FROM ends GROUP BY node
        ) c ON c.node = e.vec_id
    )
    SELECT CAST(degree AS BIGINT) AS degree,
           CAST(count(*) AS BIGINT) AS n_nodes
    FROM deg GROUP BY degree
    """,
)
def embedding_mutual_knn(sf_dir: str):
    """Mutual-kNN graph degree histogram — the symmetrized neighbor
    graph SemDeDup-style embedding clustering and manifold-density
    estimators are built on (an edge survives only if BOTH endpoints
    rank each other in their top-k, which strips the hub-node asymmetry
    plain kNN suffers from). Every vector is a query: the (n,d) matrix
    broadcasts once via ray.put and each corpus batch emits PARTIAL
    top-k rows (rank-only downstream, so ulp-level cosine noise cannot
    flip parity — the knn_cosine contract). Mutuality is decided
    DISTRIBUTED, never on the driver: each directed edge packs into an
    order-free key min<<32|max, a k-bounded groupby counts directions
    (count==2 <=> mutual), endpoints re-explode and a second k-bounded
    groupby yields per-node degrees; the driver folds only the
    <=(k+1)-row histogram plus the zero-degree complement. At 10^9
    vectors the broadcast matrix is replaced by the IVF bucket path
    (stages/ann.py) feeding the same packed-key mutuality plan."""
    import ray
    import ray.data
    import pyarrow.parquet as pq

    from sciscraper_ray.stages.ann import BruteForceTopK, _stack, topk_reduce

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    ids = t["vec_id"].to_numpy(zero_copy_only=False)
    n_total = len(ids)
    queries_ref = ray.put((ids, _stack(t["embedding"])))

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    m = (
        ds.map_batches(
            BruteForceTopK(queries_ref=queries_ref, k=ANN_K),
            batch_format="pyarrow",
        )
        .groupby("qid")
        .map_groups(lambda g: topk_reduce(g, ANN_K), batch_format="pandas")
    )

    def pack(b: pa.Table) -> pa.Table:
        u = b["qid"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = b["neighbor"].to_numpy(zero_copy_only=False).astype(np.int64)
        key = np.minimum(u, v) * (1 << 32) + np.maximum(u, v)
        return pa.table({"key": pa.array(key, pa.int64())})

    def unpack_mutual(b: pa.Table) -> pa.Table:
        k = b["key"].to_numpy(zero_copy_only=False)[
            b["n"].to_numpy(zero_copy_only=False) == 2
        ]
        node = np.concatenate([k >> 32, k & ((1 << 32) - 1)])
        return pa.table({"node": pa.array(node.astype(np.int64), pa.int64())})

    pairs = group_count(m.map_batches(pack, batch_format="pyarrow"), "key", count="n")
    nodes = group_count(
        pairs.map_batches(unpack_mutual, batch_format="pyarrow"), "node", count="degree"
    )
    hist = group_count(nodes, "degree", count="count()").to_pandas()  # bounded: <= k+1 rows
    degree = hist["degree"].to_numpy(np.int64)
    n_nodes = hist["count()"].to_numpy(np.int64)
    n_zero = n_total - int(n_nodes.sum())
    if n_zero > 0:
        degree = np.r_[0, degree]
        n_nodes = np.r_[n_zero, n_nodes]
    return pa.table(
        {
            "degree": pa.array(degree, pa.int64()),
            "n_nodes": pa.array(n_nodes, pa.int64()),
        }
    )


_MMR_POOL = 200
_MMR_K = 8


def _mmr_oracle() -> str:
    """Unrolled greedy MMR: step k picks argmax over remaining candidates
    of 0.7*rel - 0.3*max_sim_to_selected (ties -> smallest vec_id),
    selected = union of steps 1..k-1. Step 1's penalty term is 0."""
    steps = ["s1 AS MATERIALIZED (SELECT vec_id FROM cand ORDER BY 0.7 * rel DESC, vec_id LIMIT 1)"]
    for k in range(2, _MMR_K + 1):
        sel = " UNION ALL ".join(f"SELECT vec_id FROM s{j}" for j in range(1, k))
        steps.append(
            f"""s{k} AS MATERIALIZED (
        SELECT c.vec_id FROM cand c
        JOIN p2 p ON p.ca = c.vec_id AND p.cb IN ({sel})
        WHERE c.vec_id NOT IN ({sel})
        GROUP BY c.vec_id, c.rel
        ORDER BY 0.7 * c.rel - 0.3 * max(p.s) DESC, c.vec_id
        LIMIT 1
    )"""
        )
    ranks = " UNION ALL ".join(
        f"SELECT {k} AS rank, vec_id FROM s{k}" for k in range(1, _MMR_K + 1)
    )
    return f"""
    WITH pool AS (
        SELECT vec_id, embedding FROM embeddings WHERE vec_id < {_MMR_POOL}
    ), q AS (
        SELECT embedding AS qe FROM pool WHERE vec_id = 0
    ), cand AS MATERIALIZED (
        SELECT vec_id,
               list_cosine_similarity(embedding, (SELECT qe FROM q)) AS rel,
               embedding
        FROM pool WHERE vec_id <> 0
    ), p2 AS MATERIALIZED (
        SELECT a.vec_id AS ca, b.vec_id AS cb,
               list_cosine_similarity(a.embedding, b.embedding) AS s
        FROM cand a JOIN cand b ON a.vec_id <> b.vec_id
    ), {", ".join(steps)}
    SELECT CAST(rank AS BIGINT) AS rank, vec_id FROM ({ranks})
    """


@register("retrieval_mmr_rerank", oracle=_mmr_oracle())
def retrieval_mmr_rerank(sf_dir: str):
    """Maximal Marginal Relevance re-ranking (Carbonell & Goldstein
    1998): greedily pick 8 results from a 200-vector candidate pool
    maximizing 0.7*relevance-to-query - 0.3*max-similarity-to-already-
    picked — THE standard diversity re-ranker between ANN retrieval and
    an LLM context window (near-duplicate passages waste the budget;
    MMR spends it on coverage). MMR always runs on a bounded rerank
    pool, so the pool rides one broadcast and the greedy loop is k
    vectorized argmax passes over a (pool,) score array on the driver —
    the pairwise matrix is pool^2, never corpus^2; upstream ANN
    (knn_cosine / ann_ivf) is the corpus-scale stage. float64 cosine
    throughout, ties broken on vec_id; the oracle unrolls the identical
    greedy steps."""
    import ray.data

    pool = (
        ray.data.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        )
        .filter(lambda r: r["vec_id"] < _MMR_POOL)
        .to_pandas()  # bounded: _MMR_POOL rows (fixed pool)
        .sort_values("vec_id")
    )
    ids = pool["vec_id"].to_numpy(np.int64)
    mat = np.stack([np.asarray(v, np.float64) for v in pool["embedding"]])
    norms = np.linalg.norm(mat, axis=1)
    qi = int(np.flatnonzero(ids == 0)[0])
    cand_mask = ids != 0
    cid = ids[cand_mask]
    cm = mat[cand_mask]
    cn = norms[cand_mask]
    rel = (cm @ mat[qi]) / (cn * norms[qi])
    pair = (cm @ cm.T) / (cn[:, None] * cn[None, :])
    picked: list[int] = []
    picked_rows: list[int] = []
    for _ in range(_MMR_K):
        if picked_rows:
            penalty = pair[:, picked_rows].max(axis=1)
        else:
            penalty = np.zeros(len(cid))
        score = 0.7 * rel - 0.3 * penalty
        score[picked_rows] = -np.inf
        # argmax with vec_id tiebreak: stable argmax over (-score, cid)
        best = int(np.lexsort((cid, -score))[0])
        picked_rows.append(best)
        picked.append(int(cid[best]))
    return pa.table(
        {
            "rank": pa.array(np.arange(1, _MMR_K + 1, dtype=np.int64), pa.int64()),
            "vec_id": pa.array(picked, pa.int64()),
        }
    )


_GG_POOL = 300
_GG_DEG = 8
_GG_STEPS = 10


def _greedy_graph_oracle() -> str:
    """Greedy best-first walk on the exact 8-NN graph, unrolled to 10
    steps (each step materialized; LATERAL picks the current node's best
    neighbor by query similarity, ties -> smallest id; the walk absorbs
    when no neighbor improves)."""
    steps = []
    for k in range(1, _GG_STEPS + 1):
        steps.append(
            f"""g{k} AS MATERIALIZED (
        SELECT CASE WHEN bn.s > sq.s THEN bn.nb ELSE g.node END AS node
        FROM g{k - 1} g
        JOIN simq sq ON sq.node = g.node,
        LATERAL (
            SELECT n.nb, s2.s FROM nbrs n
            JOIN simq s2 ON s2.node = n.nb
            WHERE n.node = g.node
            ORDER BY s2.s DESC, n.nb ASC LIMIT 1
        ) bn
    )"""
        )
    ranks = " UNION ALL ".join(
        f"SELECT {k} AS step, node FROM g{k}" for k in range(_GG_STEPS + 1)
    )
    return f"""
    WITH pool AS MATERIALIZED (
        SELECT vec_id, embedding FROM embeddings WHERE vec_id < {_GG_POOL}
    ), q AS (
        SELECT embedding AS qe FROM pool WHERE vec_id = 0
    ), nodes AS MATERIALIZED (
        SELECT vec_id, embedding FROM pool WHERE vec_id <> 0
    ), simq AS MATERIALIZED (
        SELECT vec_id AS node,
               list_cosine_similarity(embedding, (SELECT qe FROM q)) AS s
        FROM nodes
    ), nbrs AS MATERIALIZED (
        SELECT node, nb FROM (
            SELECT a.vec_id AS node, b.vec_id AS nb,
                   row_number() OVER (
                       PARTITION BY a.vec_id
                       ORDER BY list_cosine_similarity(a.embedding, b.embedding)
                           DESC, b.vec_id ASC
                   ) AS rk
            FROM nodes a JOIN nodes b ON a.vec_id <> b.vec_id
        ) WHERE rk <= {_GG_DEG}
    ), g0 AS MATERIALIZED (SELECT 1 AS node),
    {", ".join(steps)}
    SELECT CAST(step AS BIGINT) AS step, CAST(node AS BIGINT) AS node
    FROM ({ranks})
    """


@register("embedding_greedy_graph_search", oracle=_greedy_graph_oracle())
def embedding_greedy_graph_search(sf_dir: str):
    """Graph-based ANN search (the HNSW/NSG layer-0 primitive): greedy
    best-first walk over the exact 8-NN cosine graph of a 300-vector
    pool toward a query — at each step move to the current node's
    best-scoring neighbor if it improves on the current node, else
    absorb. This is the search side of modern vector indexes (the IVF
    family here is the partition side); emitting the full 10-step
    trajectory (absorbed steps repeat the node) makes convergence
    behavior auditable, not just the endpoint. Pool rides one
    broadcast; the kNN graph build is one pool^2 float64 matmul and the
    walk is k argmax probes — at corpus scale the same walk runs
    against a sharded neighbor table with the query fanned out, which
    is exactly ann_ivf's probe shape. Ties break on neighbor id; the
    oracle unrolls the identical walk with LATERAL best-neighbor
    picks."""
    import ray.data

    pool = (
        ray.data.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        )
        .filter(lambda r: r["vec_id"] < _GG_POOL)
        .to_pandas()  # bounded: _GG_POOL rows (fixed pool)
        .sort_values("vec_id")
    )
    ids = pool["vec_id"].to_numpy(np.int64)
    mat = np.stack([np.asarray(v, np.float64) for v in pool["embedding"]])
    nm = np.linalg.norm(mat, axis=1)
    qi = int(np.flatnonzero(ids == 0)[0])
    mask = ids != 0
    nid, nmx, nnm = ids[mask], mat[mask], nm[mask]
    simq = (nmx @ mat[qi]) / (nnm * nm[qi])
    pair = (nmx @ nmx.T) / np.outer(nnm, nnm)
    np.fill_diagonal(pair, -np.inf)
    # exact kNN graph: top-8 by (sim desc, id asc)
    nbr_rows = []
    for r in range(len(nid)):
        order = np.lexsort((nid, -pair[r]))[:_GG_DEG]
        nbr_rows.append(order)
    pos_of = {int(v): i for i, v in enumerate(nid)}
    cur = pos_of[1]
    trail = [int(nid[cur])]
    for _ in range(_GG_STEPS):
        nbs = nbr_rows[cur]
        best = nbs[int(np.lexsort((nid[nbs], -simq[nbs]))[0])]
        if simq[best] > simq[cur]:
            cur = int(best)
        trail.append(int(nid[cur]))
    return pa.table(
        {
            "step": pa.array(np.arange(_GG_STEPS + 1, dtype=np.int64), pa.int64()),
            "node": pa.array(trail, pa.int64()),
        }
    )
