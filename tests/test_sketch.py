"""HyperLogLog sketch: estimate accuracy and partial-merge associativity."""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _merge(tables):
    regs: dict[int, int] = {}
    for t in tables:
        for b, r in zip(t["bucket"].to_pylist(), t["rho"].to_pylist()):
            regs[b] = max(regs.get(b, 0), r)
    return regs


def test_hll_estimate_accuracy():
    """m=64 -> ~13% standard error; assert within 3 sigma for a few
    cardinalities, computed over batch-split partials (the merge path)."""
    from sciscraper_ray.stages.sketch import hll_estimate, hll_partial_batch

    for n in (100, 1_000, 20_000):
        vals = [f"user-{i}" for i in range(n)]
        parts = [
            hll_partial_batch(pa.table({"u": vals[i : i + 512]}), "u")
            for i in range(0, n, 512)
        ]
        est = hll_estimate(_merge(parts))
        assert abs(est - n) / n < 0.4, (n, est)


def test_hll_partials_order_independent():
    """Register merge is a max — any batch split/order gives the same
    registers (the property that makes the sketch distributable)."""
    from sciscraper_ray.stages.sketch import hll_partial_batch

    vals = [f"k{i}" for i in range(500)]
    one = _merge([hll_partial_batch(pa.table({"u": vals}), "u")])
    rng = np.random.default_rng(0)
    shuffled = [vals[i] for i in rng.permutation(500)]
    many = _merge(
        [
            hll_partial_batch(pa.table({"u": shuffled[i : i + 37]}), "u")
            for i in range(0, 500, 37)
        ]
    )
    assert one == many


def test_hll_nulls_skipped():
    from sciscraper_ray.stages.sketch import hll_partial_batch

    t = pa.table({"u": pa.array([None, None], pa.string())})
    assert hll_partial_batch(t, "u").num_rows == 0


def test_cms_estimate_upper_bounds_truth(ray_session):
    import pandas as pd

    from sciscraper_ray.pipelines.queries import QUERIES
    from sciscraper_ray.pipelines.queries.corpus_ops import _CMS_PROBES

    sf = "/root/testdata/sf0.001"
    out = QUERIES["token_cms_estimate"](sf)
    docs = pd.read_parquet(sf + "/documents.parquet", columns=["text"])
    from collections import Counter

    truth = Counter()
    for t in docs["text"]:
        if t is not None:
            truth.update(t.strip().lower().split(" "))
    got = dict(zip(out["token"], out["est"]))
    assert set(got) == set(_CMS_PROBES)
    for tok in _CMS_PROBES:
        assert got[tok] >= truth.get(tok, 0)  # CMS never undercounts
    assert got["nosuchtoken"] < truth.most_common(1)[0][1]  # collisions bounded
    # real tokens estimate close to truth at this scale
    for tok in _CMS_PROBES[:5]:
        assert got[tok] <= truth[tok] + sum(truth.values()) // 256


def test_grouped_hll_estimates_per_group(ray_session):
    import pandas as pd

    from sciscraper_ray.pipelines.queries import QUERIES
    from sciscraper_ray.stages.sketch import hll_estimate

    sf = "/root/testdata/sf0.001"
    regs = QUERIES["event_type_hll_users"](sf).to_pandas()
    ev = pd.read_parquet(sf + "/events.parquet", columns=["event_type", "user_id"])
    truth = ev.groupby("event_type")["user_id"].nunique()
    for etype, g in regs.groupby("event_type"):
        est = hll_estimate(dict(zip(g["bucket"], g["max_rho"])))
        true = truth[etype]
        assert abs(est - true) / true < 0.35  # m=64 -> ~13% typical error
    assert set(regs["event_type"]) == set(truth.index)


def test_bit_length_u64_exact():
    import numpy as np

    from sciscraper_ray.stages.sketch import _bit_length_u64

    xs = np.array(
        [0, 1, 2, 3, 2**20, 2**53, 2**53 + 1, 2**54 - 1, 2**54], np.uint64
    )
    assert _bit_length_u64(xs).tolist() == [
        int(x).bit_length() for x in xs.tolist()
    ]
