"""ANN tests: brute-force exactness and IVF recall vs brute force."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.mark.usefixtures("ray_session")
def test_brute_force_matches_numpy():
    import ray

    from sciscraper_ray.pipelines.queries.embed import knn_cosine
    from sciscraper_ray.stages.ann import cosine_matrix

    sf = "/root/testdata/sf0.001"
    got = knn_cosine(sf).to_pandas()

    import pyarrow.parquet as pq

    from sciscraper_ray.stages.ann import _stack

    t = pq.read_table(f"{sf}/embeddings.parquet")
    vids = t["vec_id"].to_numpy(zero_copy_only=False)
    mat = _stack(t["embedding"])
    q = vids < 10
    sims = cosine_matrix(mat[q], mat)
    for qi, qid in enumerate(vids[q]):
        s = sims[qi].copy()
        s[vids == qid] = -np.inf
        order = np.lexsort((vids, -s))[:5]
        expected = vids[order].tolist()
        mine = got[got.qid == qid].sort_values("rank")["neighbor"].tolist()
        assert mine == expected, (qid, mine, expected)


@pytest.mark.usefixtures("ray_session")
def test_ivf_recall_vs_brute_force():
    from sciscraper_ray.pipelines.queries.embed import (
        _ivf_neighbors,
        knn_cosine,
    )

    sf = "/root/testdata/sf0.001"
    exact = knn_cosine(sf).to_pandas()
    approx = _ivf_neighbors(sf).to_pandas()
    e = {(r.qid, r.neighbor) for r in exact.itertuples()}
    a = {(r.qid, r.neighbor) for r in approx.itertuples()}
    recall = len(e & a) / len(e)
    assert recall >= 0.7, recall


@pytest.mark.usefixtures("ray_session")
def test_ann_ivf_recall_gate_all_true():
    """The registered ann_ivf query (the driver-checked recall gate) must
    emit recall_ok=True for every query id, matching its SQL oracle."""
    from sciscraper_ray.pipelines.queries.embed import ann_ivf

    got = ann_ivf("/root/testdata/sf0.001").to_pandas()
    assert len(got) == 10
    assert got["recall_ok"].all()


def test_pruned_search_scans_only_probed_buckets():
    """VERDICT r1: the IVF search must NOT multiply the whole corpus —
    only rows whose bucket is probed by some query are scanned."""
    import pyarrow as pa

    from sciscraper_ray.stages.ann import pruned_search_batch

    rng = np.random.default_rng(3)
    n, d, n_buckets = 400, 16, 8
    vec = rng.standard_normal((n, d))
    buckets = np.arange(n) % n_buckets
    batch = pa.table(
        {
            "vec_id": pa.array(np.arange(n), pa.int64()),
            "embedding": pa.array(vec.tolist(), pa.list_(pa.float64())),
            "bucket": pa.array(buckets, pa.int64()),
        }
    )
    qids = np.array([10_000, 10_001])
    qmat = rng.standard_normal((2, d))
    probe = np.zeros((2, n_buckets), dtype=bool)
    probe[0, [0, 1]] = True  # query 0 probes buckets {0,1}
    probe[1, [1, 2]] = True  # query 1 probes buckets {1,2}
    out, n_scanned = pruned_search_batch(batch, qids, qmat, probe, k=5)
    # union of probed buckets {0,1,2} = 3/8 of rows — nothing else scanned
    assert n_scanned == n // n_buckets * 3
    assert n_scanned < n
    got = out.to_pandas()
    # results only from each query's OWN probed buckets
    for qi, allowed in ((10_000, {0, 1}), (10_001, {1, 2})):
        nb = got[got.qid == qi]["neighbor"]
        assert len(nb) == 5
        assert set(buckets[nb.to_numpy()]) <= allowed
    # empty probe -> nothing scanned
    _, zero = pruned_search_batch(batch, qids, qmat, np.zeros_like(probe), 5)
    assert zero == 0


@pytest.mark.usefixtures("ray_session")
def test_srp_bucketed_recall_vs_brute_force():
    from sciscraper_ray.pipelines.queries.embed import (
        ann_srp_bucketed,
        knn_cosine,
    )

    sf = "/root/testdata/sf0.01"
    exact = knn_cosine(sf).to_pandas()
    approx = ann_srp_bucketed(sf).to_pandas()
    e = {(r.qid, r.neighbor) for r in exact.itertuples()}
    a = {(r.qid, r.neighbor) for r in approx.itertuples()}
    recall = len(e & a) / len(e)
    assert recall >= 0.4, recall  # hamming<=2 multiprobe scans ~1/3 of corpus


@pytest.mark.usefixtures("ray_session")
def test_kmeans_fit_distributed():
    """Lloyd iterations stream the corpus via partials; centroids land on
    the obvious clusters of a separable fixture."""
    import pyarrow as pa

    import ray.data
    from sciscraper_ray.stages.ann import cosine_matrix, kmeans_fit

    rng = np.random.default_rng(5)
    centers = np.eye(4, 16) * 10  # 4 well-separated directions
    vecs = np.concatenate(
        [centers[i] + rng.standard_normal((50, 16)) * 0.1 for i in range(4)]
    )
    vecs = vecs[rng.permutation(len(vecs))]  # init sample must see all clusters
    ds = ray.data.from_arrow(
        pa.table({"embedding": pa.array(vecs.tolist(), pa.list_(pa.float64()))})
    )
    cents = kmeans_fit(ds, n_centroids=4, iters=3, init_sample=64)
    assert cents.shape == (4, 16)
    # every true center has a fitted centroid at cosine ~1
    sims = cosine_matrix(centers, cents)
    assert (sims.max(axis=1) > 0.99).all()


@pytest.mark.usefixtures("ray_session")
def test_ivf_pq_adc_search():
    """IVF-PQ: deterministic shape (10 queries x 5 ranks), no self-matches,
    bit-exact rerun, and the ADC ranking agrees with a driver-side numpy
    replay of the same codebook math (the oracle equivalence itself is the
    correctness tool's job)."""
    from sciscraper_ray.pipelines.queries.embed import (
        _IVFPQ_C,
        _IVFPQ_NPROBE,
        _PQ_K,
        _PQ_M,
        _l2sq_seq,
        _seq_sum,
        ann_ivf_pq,
    )
    from sciscraper_ray.stages.ann import _stack

    sf = "/root/testdata/sf0.001"
    got = ann_ivf_pq(sf).to_pandas().sort_values(["qid", "rank"])
    assert got.qid.nunique() == 10
    assert all(
        list(g) == [1, 2, 3, 4, 5] for _, g in got.groupby("qid")["rank"]
    )
    assert (got.qid != got.neighbor).all()

    # bit-exact rerun (the determinism contract the oracle compare rests on)
    again = ann_ivf_pq(sf).to_pandas().sort_values(["qid", "rank"])
    assert got.reset_index(drop=True).equals(again.reset_index(drop=True))

    # full numpy replay: same seeds, same left-to-right accumulation
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf}/embeddings.parquet")
    vids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    mat = _stack(t["embedding"]).astype(np.float64)
    order = np.argsort(vids)
    vids, mat = vids[order], mat[order]
    coarse, cb = mat[:_IVFPQ_C], mat[:_PQ_K].reshape(_PQ_K, _PQ_M, -1).transpose(1, 0, 2)
    bucket = np.argmin(_l2sq_seq(mat, coarse), axis=1)
    sub = mat.reshape(len(mat), _PQ_M, -1)
    sq = (sub[:, :, None, :] - cb[None]) ** 2
    codes = np.argmin(_seq_sum(sq[:, :, :, j] for j in range(8)), axis=2)
    qmat, qids = mat[:10], vids[:10]
    pd2 = _l2sq_seq(qmat, coarse)
    qsq = (qmat.reshape(10, _PQ_M, -1)[:, :, None, :] - cb[None]) ** 2
    lut = _seq_sum(qsq[:, :, :, j] for j in range(8))
    for qi in range(10):
        probed = set(
            np.lexsort((np.arange(_IVFPQ_C), pd2[qi]))[:_IVFPQ_NPROBE].tolist()
        )
        cand = np.array(
            [i for i in range(len(vids)) if bucket[i] in probed and vids[i] != qids[qi]]
        )
        adc = _seq_sum(lut[qi, m, codes[cand, m]] for m in range(_PQ_M))
        exp = vids[cand[np.lexsort((vids[cand], adc))][:5]].tolist()
        mine = got[got.qid == qids[qi]].sort_values("rank")["neighbor"].tolist()
        assert mine == exp, (qids[qi], mine, exp)
