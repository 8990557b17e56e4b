"""Distributed connected components over a duplicate-pair graph.

The near-dup pipelines (`pipelines/dedup.py`) stop at verified candidate
PAIRS; full dedup semantics need the transitive closure — if A~B and B~C
then {A,B,C} is one duplicate cluster and one representative survives.
This module computes components with the alternating Large-Star /
Small-Star algorithm (Kiveris, Lattanzi, Mirrokni, Rastogi, Vassilvitskii,
"Connected Components in MapReduce and Beyond", SoCC 2014): each round is
a pure edge-list `groupby(node).map_groups` — no driver-side union-find —
and converges in O(log^2 n) rounds (2 rounds on typical dedup graphs,
whose components are near-cliques).

Scale notes (100 TB corpus):
- The algorithm runs on the PAIR GRAPH, not the corpus: nodes are only
  the documents that appear in >= 1 verified near-dup pair, typically
  orders of magnitude smaller than the corpus. Per-round `materialize()`
  of the edge list is therefore bounded by duplicate volume, not input
  volume (and is required: each convergence probe would otherwise
  re-execute the whole lineage from the pair stage).
- Each star round shuffles only (int64, int64) edges grouped by node;
  payloads never move.
- Per-group Python overhead (~100 us/group) is paid once per graph node
  per round; with dup-graph nodes << corpus rows this is not the
  bottleneck. Group bodies are vectorized numpy.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from sciscraper_ray.pipelines.plan import resolve_plan
from sciscraper_ray.stages.relational import bucketed_hash_join, group_count


def undirected(b: pa.Table) -> pa.Table:
    """A batch of directed ``(src, dst)`` edges as undirected ``(a, b)``
    rows: self-loops dropped, ``a = min(src, dst)``, ``b = max(src, dst)``.
    Multi-edges and both directions of a pair stay; ``_dedup_edges``
    collapses them."""
    s = b["src"].to_numpy(zero_copy_only=False)
    t = b["dst"].to_numpy(zero_copy_only=False)
    keep = s != t
    s, t = s[keep], t[keep]
    return pa.table(
        {
            "a": pa.array(np.minimum(s, t), pa.int64()),
            "b": pa.array(np.maximum(s, t), pa.int64()),
        }
    )


def symmetrize(b: pa.Table, u: str = "u", v: str = "v") -> pa.Table:
    """A batch of ``(a, b)`` edges in both directions, as ``(u, v)`` rows:
    first every ``(a, b)``, then every ``(b, a)``."""
    a = b["a"].to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    bb = b["b"].to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    return pa.table(
        {
            u: pa.array(np.concatenate([a, bb]), pa.int64()),
            v: pa.array(np.concatenate([bb, a]), pa.int64()),
        }
    )


def _star_round(edges: ray.data.Dataset, *, large: bool) -> ray.data.Dataset:
    """One Large-Star (large=True) or Small-Star round.

    Large-Star: group the symmetrized edge list by node u; with
    m = min(N(u) ∪ {u}), emit (v, m) for every neighbor v > u.
    Small-Star: orient each edge max->min, group by the max node u; with
    m = min(N(u)) (all neighbors are < u), emit (v, m) for
    v in N(u) ∪ {u}, v != m.
    Every emitted edge has a > b, pointing down toward the component min.
    """

    def orient(b: pa.Table) -> pa.Table:
        if large:
            return symmetrize(b)
        a = b["a"].to_numpy(zero_copy_only=False)
        bb = b["b"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "u": pa.array(np.maximum(a, bb), pa.int64()),
                "v": pa.array(np.minimum(a, bb), pa.int64()),
            }
        )

    def star(g: pd.DataFrame) -> pd.DataFrame:
        u = int(g["u"].iloc[0])
        nbrs = g["v"].to_numpy()
        m = min(u, int(nbrs.min()))
        if large:
            out = np.unique(nbrs[nbrs > u])
        else:
            out = np.unique(np.append(nbrs, u))
            out = out[out != m]
        return pd.DataFrame(
            {
                "a": out.astype(np.int64),
                "b": np.full(len(out), m, dtype=np.int64),
            }
        )

    return (
        edges.map_batches(orient, batch_format="pyarrow")
        .groupby("u")
        .map_groups(star, batch_format="pandas")
    )


def _dedup_edges(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Distinct (a, b) via a single packed-int64 key groupby.

    Star rounds emit the same (child, parent) edge from many source
    groups; left in place they grow the shuffle quadratically on cliques.
    doc_ids fit in 31 bits here, so (a << 32) | b packs losslessly into
    one int64 and the distinct is a native vectorized count aggregate
    (no per-group Python). Wider id spaces would pack into two int64
    columns (Ray groupby takes a key list) at the same cost.
    """

    def pack(b: pa.Table) -> pa.Table:
        a = b["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        bb = b["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"k": pa.array((a << 32) | bb, pa.int64())})

    def unpack(b: pa.Table) -> pa.Table:
        k = b["k"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "a": pa.array(k >> 32, pa.int64()),
                "b": pa.array(k & 0xFFFFFFFF, pa.int64()),
            }
        )

    packed = edges.map_batches(pack, batch_format="pyarrow")
    return group_count(packed, "k").map_batches(unpack, batch_format="pyarrow")


def _signature(edges: ray.data.Dataset) -> tuple[int, int]:
    """Cheap convergence probe: (row count, sum of packed keys).

    Exact set equality would need another shuffle; count + keyed sum is
    collision-safe in practice for a fixpoint check (the star operators
    are deterministic, so a stable signature means a stable edge set —
    and the loop additionally re-checks one full round after stability).
    """

    def pack(b: pa.Table) -> pa.Table:
        a = b["a"].to_numpy(zero_copy_only=False)
        bb = b["b"].to_numpy(zero_copy_only=False)
        return pa.table({"k": pa.array((a << 32) | bb, pa.int64())})

    packed = edges.map_batches(pack, batch_format="pyarrow")
    n = packed.count()
    s = int(packed.sum("k")) if n else 0
    return n, s


def connected_components(
    pairs: ray.data.Dataset | pa.Table,
    *,
    max_rounds: int = 32,
) -> ray.data.Dataset:
    """Components of an undirected (a, b) pair graph.

    Returns a Dataset (doc_id, comp_id) with one row per graph node and
    comp_id = the smallest doc_id in the node's component (so component
    representatives satisfy doc_id == comp_id). Nodes absent from the
    pair list are singletons and are not emitted — callers doing full
    dedup keep every non-listed doc plus the representatives.
    """
    if isinstance(pairs, pa.Table):
        pairs = ray.data.from_arrow(pairs)
    edges = _dedup_edges(pairs).materialize()
    if edges.count() == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "comp_id": pa.array([], pa.int64()),
                }
            )
        )

    prev = None
    for _ in range(max_rounds):
        edges = _dedup_edges(_star_round(edges, large=True))
        edges = _dedup_edges(_star_round(edges, large=False)).materialize()
        sig = _signature(edges)
        if sig == prev:
            break
        prev = sig
    else:  # pragma: no cover - max_rounds is ~log^2 of any realistic graph
        raise RuntimeError(f"connected_components: no fixpoint in {max_rounds} rounds")

    def finalize(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b["a"], "comp_id": b["b"]})

    def roots(b: pa.Table) -> pa.Table:
        r = np.unique(b["b"].to_numpy(zero_copy_only=False))
        return pa.table(
            {"doc_id": pa.array(r, pa.int64()), "comp_id": pa.array(r, pa.int64())}
        )

    members = edges.map_batches(finalize, batch_format="pyarrow")
    # root self-rows: each component min is a node too; distinct across
    # batches via the same packed-key distinct (roots repeat per batch)
    root_rows = _dedup_edges(
        edges.map_batches(
            lambda b: pa.table({"a": b["b"], "b": b["b"]}), batch_format="pyarrow"
        )
    ).map_batches(finalize, batch_format="pyarrow")
    return members.union(root_rows)


def pagerank(
    edges: ray.data.Dataset | pa.Table,
    *,
    damping: float = 0.85,
    iters: int = 5,
    num_buckets: int = 32,
    plan: str = "auto",
    seeds: "np.ndarray | None" = None,
) -> ray.data.Dataset | pa.Table:
    """Power-iteration PageRank over a DIRECTED (src, dst) edge list.

    Requires every node to have >= 1 out-edge (callers with undirected
    graphs symmetrize first, which guarantees it); with that invariant
    there is no dangling-mass term and each iteration is exactly
    r'(v) = (1-d)/N + d * sum over edges (u,v) of r(u)/outdeg(u).
    Nodes with out-edges but NO in-edges are valid under that contract;
    both plans keep them at their analytically constant rank (1-d)/N and
    keep their out-contributions flowing every iteration (ADVICE r2: the
    shuffle plan used to drop them after iteration 1 because the rank
    table was rebuilt from groupby(dst) alone).

    Two physical plans (pipelines/plan.py resolve_plan, auto-flip at 50M
    edge rows — same policy as every two-plan operator here):

    driver — edge arrays stream to the driver once; each iteration is a
    single vectorized ``np.bincount`` gather/scatter (pure C). Wins by a
    huge margin while edges fit driver memory: the shuffle plan pays
    ~2 all-to-all barriers PER ITERATION in fixed Ray overhead.

    shuffle — per iteration: ONE co-partitioned ``bucketed_hash_join``
    of the static edge list against the (node, r/deg) table on src, then
    a groupby(dst) sum — both all-to-alls move only int64/double
    columns. The destination's degree rides along on the edge rows
    (attached once, up front), so no second join is needed to rebuild
    the rank table. The rank table (N rows) is materialized per
    iteration — the standard iterative-algorithm tradeoff; rank rows are
    24 bytes, so even 10^10 nodes is ~240 GB spread over the object
    store, not driver memory.

    Fixed ``iters`` (not convergence-tested) keeps the result
    deterministic and SQL-mirrorable.

    ``seeds`` switches to PERSONALIZED PageRank (Haveliwala WWW'02 /
    random walk with restart): the teleport distribution p puts mass
    1/|S| on each seed node present in the graph instead of 1/N on
    every node, r0 = p, and each iteration is
    r'(v) = (1-d) p(v) + d * contributions. Physically the only new
    cost is the per-node base term: the driver plan swaps the scalar
    base for a vector, and the shuffle plan rides p(dst) along the
    static augmented edge list exactly like the destination degree, so
    the per-iteration exchange count is unchanged."""
    if isinstance(edges, pa.Table):
        edges = ray.data.from_arrow(edges)

    def as_src_dst(b: pa.Table) -> pa.Table:
        return pa.table({"src": b["a"], "dst": b["b"]})

    e = edges.map_batches(as_src_dst, batch_format="pyarrow")
    mode, e = resolve_plan(e, plan)

    if mode == "driver":
        from sciscraper_ray.pipelines.plan import driver_frame

        g = driver_frame(e, what="pagerank")
        src = g["src"].to_numpy()
        dst = g["dst"].to_numpy()
        nodes, src_idx = np.unique(src, return_inverse=True)
        dst_idx = np.searchsorted(nodes, dst)
        if not np.array_equal(nodes[dst_idx], dst):
            raise ValueError("pagerank requires every dst to have an out-edge")
        deg = np.bincount(src_idx).astype(np.float64)
        n = len(nodes)
        if seeds is None:
            r = np.full(n, 1.0 / n)
            base = (1.0 - damping) / n
        else:
            inset = np.isin(nodes, seeds)
            s = float(inset.sum())
            if s == 0:
                raise ValueError("ppr: no seed node present in the graph")
            p = inset.astype(np.float64) / s
            r = p.copy()
            base = (1.0 - damping) * p
        for _ in range(iters):
            contrib = np.bincount(
                dst_idx, weights=r[src_idx] / deg[src_idx], minlength=n
            )
            r = base + damping * contrib
        return pa.table(
            {
                "node": pa.array(nodes, pa.int64()),
                "r": pa.array(np.round(r, 10), pa.float64()),
            }
        )

    e = e.materialize()
    deg = (
        group_count(e, "src")
        .map_batches(
            lambda b: pa.table(
                {
                    "node": b["src"],
                    "deg": pc.cast(b["cnt"], pa.float64()),
                }
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )
    n = deg.count()

    if seeds is None:
        p_of = None
    else:
        seed_arr = np.asarray(seeds, dtype=np.int64)
        seed_set = pa.array(seed_arr, pa.int64())
        s_total = float(
            sum(
                row["c"]
                for row in deg.map_batches(
                    lambda b: pa.table(
                        {
                            "c": pa.array(
                                [
                                    pc.sum(
                                        pc.cast(
                                            pc.is_in(
                                                b["node"], value_set=seed_set
                                            ),
                                            pa.int64(),
                                        )
                                    ).as_py()
                                    or 0
                                ],
                                pa.int64(),
                            )
                        }
                    ),
                    batch_format="pyarrow",
                ).take_all()
            )
        )
        if s_total == 0:
            raise ValueError("ppr: no seed node present in the graph")

        def p_of(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
            inset = pc.is_in(col, value_set=seed_set)
            return (
                inset.to_numpy(zero_copy_only=False).astype(np.float64)
                / s_total
            )

    # attach dst's degree (and, for PPR, the dst's teleport mass — both
    # static across iterations) to each edge once
    def aug_cols(b: pa.Table) -> pa.Table:
        cols = {"src": b["src"], "dst": b["dst"], "ddeg": b["deg"]}
        if p_of is not None:
            cols["dp"] = pa.array(p_of(b["dst"]), pa.float64())
        return pa.table(cols)

    e_aug = bucketed_hash_join(
        e, deg, left_on="dst", right_on="node", num_buckets=num_buckets
    ).map_batches(aug_cols, batch_format="pyarrow").materialize()

    base = (1.0 - damping) / n

    def init_rank(b: pa.Table) -> pa.Table:
        r0 = (
            np.full(len(b), 1.0 / n)
            if p_of is None
            else p_of(b["node"])
        )
        return pa.table(
            {
                "node": b["node"],
                "deg": b["deg"],
                "r": pa.array(r0, pa.float64()),
            }
        )

    ranks = deg.map_batches(init_rank, batch_format="pyarrow").materialize()

    # Nodes with out-edges but NO in-edges never appear as a groupby(dst)
    # key, so rebuilding ranks from the contribution aggregate alone would
    # silently drop them after iteration 1 (they'd stop contributing AND
    # vanish from the output, diverging from the driver plan on the same
    # valid input). Their rank is analytically constant — (1-d)/N every
    # iteration — so they're computed once up front (one extra co-
    # partitioned join against the distinct-dst table) and unioned back
    # into the rank table each round.
    indeg_nodes = group_count(e, "dst").map_batches(
        lambda b: pa.table(
            {"in_node": b["dst"], "has_in": pa.array(np.ones(len(b), np.int8))}
        ),
        batch_format="pyarrow",
    )
    def no_in_rows(b: pa.Table) -> pa.Table:
        # constant rank: (1-d)/N uniform, (1-d)*p(node) personalized
        r_const = (
            np.full(len(b), base)
            if p_of is None
            else (1.0 - damping) * p_of(b["node"])
        )
        return pa.table(
            {
                "node": b["node"],
                "deg": b["deg"],
                "r": pa.array(r_const, pa.float64()),
            }
        ).filter(pc.is_null(b["has_in"]))

    no_in = (
        bucketed_hash_join(
            deg, indeg_nodes, left_on="node", right_on="in_node",
            num_buckets=num_buckets, how="left",
        )
        .map_batches(no_in_rows, batch_format="pyarrow")
        .materialize()
    )

    for _ in range(iters):
        rd = ranks.map_batches(
            lambda b: pa.table(
                {
                    "node": b["node"],
                    "rd": pc.divide(b["r"], b["deg"]),
                }
            ),
            batch_format="pyarrow",
        )
        contrib = bucketed_hash_join(
            e_aug, rd, left_on="src", right_on="node", num_buckets=num_buckets
        )
        group_keys = ["dst", "ddeg"] if p_of is None else ["dst", "ddeg", "dp"]

        def rebuild(b: pa.Table) -> pa.Table:
            base_vec = (
                base
                if p_of is None
                else (1.0 - damping)
                * b["dp"].to_numpy(zero_copy_only=False)
            )
            return pa.table(
                {
                    "node": b["dst"],
                    "deg": b["ddeg"],
                    "r": pa.array(
                        base_vec
                        + damping * b["c"].to_numpy(zero_copy_only=False),
                        pa.float64(),
                    ),
                }
            )

        ranks = (
            group_count(contrib, group_keys, {"rd": "c"}, count=None)
            .map_batches(rebuild, batch_format="pyarrow")
            .union(no_in)  # constant-rank source-only nodes ride along
            .materialize()
        )

    return ranks.map_batches(
        lambda b: pa.table(
            {
                "node": b["node"],
                "r": pa.array(
                    np.round(b["r"].to_numpy(zero_copy_only=False), 10), pa.float64()
                ),
            }
        ),
        batch_format="pyarrow",
    )


def bfs_distances(
    edges: ray.data.Dataset,
    seeds: "np.ndarray | list[int]",
    max_rounds: int = 12,
) -> pa.Table:
    """Multi-source BFS hop distances over a directed (src, dst) int64
    edge list — crawl-depth assignment from a seed set.

    Frontier-broadcast semi-join plan: each round ships only the CURRENT
    frontier (nodes first reached last round) to every edge block via
    ``ray.put`` and stream-filters the edge list with one Arrow ``is_in``
    kernel — no shuffle, and the edge list never lands on the driver.
    The edge list is materialized ONCE (two int64 columns; callers must
    project payloads away first) so the per-round scans reuse
    object-store blocks instead of re-executing upstream lineage — at
    crawl scale that upstream is the full DOM harvest.

    Driver memory holds only the visited set, bounded by the seeds'
    ``max_rounds``-hop REACHABLE set — the crawl-frontier contract
    (politeness-bounded neighborhoods), NOT O(|edges|). Full-graph
    closure belongs to connected_components' star rounds instead.

    Returns (node, dist) for every node within ``max_rounds`` hops,
    dist = exact minimum hop count (seeds at 0).
    """
    edges = edges.materialize()
    frontier = np.unique(np.asarray(list(seeds), dtype=np.int64))
    visited = frontier
    out_nodes = [frontier]
    out_dist = [np.zeros(frontier.size, np.int64)]
    for d in range(1, max_rounds + 1):
        if frontier.size == 0:
            break
        ref = ray.put(pa.array(frontier, pa.int64()))

        def hop(batch: pa.Table, _ref=ref) -> pa.Table:
            fr = ray.get(_ref)
            hit = batch.filter(pc.is_in(batch["src"], value_set=fr))
            return pa.table({"dst": pc.unique(hit["dst"])})

        cand = (
            edges.map_batches(hop, batch_format="pyarrow")
            .to_pandas()["dst"]
            .to_numpy()
        )
        new = np.unique(cand)
        new = new[~np.isin(new, visited)]
        if new.size == 0:
            break
        visited = np.union1d(visited, new)
        out_nodes.append(new)
        out_dist.append(np.full(new.size, d, np.int64))
        frontier = new
    return pa.table(
        {
            "node": pa.array(np.concatenate(out_nodes), pa.int64()),
            "dist": pa.array(np.concatenate(out_dist), pa.int64()),
        }
    )


def hits(
    edges: ray.data.Dataset | pa.Table,
    *,
    iters: int = 3,
    num_buckets: int = 32,
    plan: str = "auto",
) -> ray.data.Dataset | pa.Table:
    """HITS hub/authority scores (Kleinberg, JACM 1999) over a DISTINCT
    directed (src, dst) edge list — the link-analysis twin of pagerank
    for web graphs where endorsement is asymmetric (pages that LINK well
    vs pages that ARE linked well).

    Fixed-K mutual-reinforcement iteration, L2-normalized each half-step:
        a(j) = sum over (i,j) of h(i), then a /= ||a||
        h(i) = sum over (i,j) of a(j), then h /= ||h||
    with h0 = 1 on every source node. Fixed ``iters`` keeps the result
    deterministic and SQL-mirrorable (the oracle unrolls the identical
    chain of CTEs).

    Two physical plans (resolve_plan, same 50M-row auto-flip policy):
    driver — edge arrays stream to the driver once, each half-step is a
    vectorized np.bincount gather/scatter; shuffle — per half-step ONE
    co-partitioned bucketed_hash_join of the static edge list against
    the node-score table plus a groupby sum (int64/double columns only),
    and the L2 norm is a per-block partial sum-of-squares reduced on the
    driver (a scalar). Score tables are node-sized, never edge-sized.

    Returns (node, kind in {'auth','hub'}, score rounded to 10 dp).
    """
    if isinstance(edges, pa.Table):
        edges = ray.data.from_arrow(edges)
    mode, e = resolve_plan(edges, plan)

    if mode == "driver":
        from sciscraper_ray.pipelines.plan import driver_frame

        g = driver_frame(e, what="hits")
        src = g["src"].to_numpy()
        dst = g["dst"].to_numpy()
        hub_nodes, src_idx = np.unique(src, return_inverse=True)
        auth_nodes, dst_idx = np.unique(dst, return_inverse=True)
        h = np.ones(len(hub_nodes), np.float64)
        a = np.zeros(len(auth_nodes), np.float64)
        for _ in range(iters):
            au = np.bincount(dst_idx, weights=h[src_idx], minlength=len(auth_nodes))
            a = au / np.sqrt(np.sum(au * au))
            hu = np.bincount(src_idx, weights=a[dst_idx], minlength=len(hub_nodes))
            h = hu / np.sqrt(np.sum(hu * hu))
        return pa.table(
            {
                "node": pa.array(
                    np.concatenate([auth_nodes, hub_nodes]), pa.int64()
                ),
                "kind": pa.array(
                    ["auth"] * len(auth_nodes) + ["hub"] * len(hub_nodes),
                    pa.string(),
                ),
                "score": pa.array(
                    np.round(np.concatenate([a, h]), 10), pa.float64()
                ),
            }
        )

    e = e.materialize()

    # per-block distinct srcs -> one tiny groupby to the true hub set
    h_ds = (
        group_count(e, "src")
        .map_batches(
            lambda b: pa.table(
                {"node": b["src"], "s": pa.array(np.ones(len(b)), pa.float64())}
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )

    def _l2_scale(ds: ray.data.Dataset) -> ray.data.Dataset:
        parts = ds.map_batches(
            lambda b: pa.table(
                {
                    "ss": pa.array(
                        [
                            float(
                                np.dot(
                                    b["s"].to_numpy(zero_copy_only=False),
                                    b["s"].to_numpy(zero_copy_only=False),
                                )
                            )
                        ],
                        pa.float64(),
                    )
                }
            ),
            batch_format="pyarrow",
        ).to_pandas()
        norm = float(np.sqrt(parts["ss"].sum()))
        return ds.map_batches(
            lambda b, _n=norm: pa.table(
                {
                    "node": b["node"],
                    "s": pc.divide(b["s"], pa.scalar(_n, pa.float64())),
                }
            ),
            batch_format="pyarrow",
        ).materialize()

    def _half_step(scores: ray.data.Dataset, join_on: str, out: str):
        joined = bucketed_hash_join(
            e, scores, left_on=join_on, right_on="node", num_buckets=num_buckets
        )
        summed = (
            group_count(joined, out, {"s": "s"}, count=None)
            .map_batches(
                lambda b, _o=out: pa.table({"node": b[_o], "s": b["s"]}),
                batch_format="pyarrow",
            )
        )
        return _l2_scale(summed)

    a_ds = None
    for _ in range(iters):
        a_ds = _half_step(h_ds, "src", "dst")
        h_ds = _half_step(a_ds, "dst", "src")

    def tag(kind: str):
        def inner(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "node": b["node"],
                    "kind": pa.array([kind] * len(b), pa.string()),
                    "score": pa.array(
                        np.round(b["s"].to_numpy(zero_copy_only=False), 10),
                        pa.float64(),
                    ),
                }
            )

        return inner

    return a_ds.map_batches(tag("auth"), batch_format="pyarrow").union(
        h_ds.map_batches(tag("hub"), batch_format="pyarrow")
    )


def _mode_per_node(u: np.ndarray, nl: np.ndarray):
    """Vectorized (count desc, label asc) neighbor-label mode: returns
    (nodes, winning labels) for every node present in ``u``. Two
    lexsorts + reduceat boundaries — zero per-node Python."""
    order = np.lexsort((nl, u))
    us, nls = u[order], nl[order]
    new_pair = np.r_[True, (us[1:] != us[:-1]) | (nls[1:] != nls[:-1])]
    p_start = np.nonzero(new_pair)[0]
    cnt = np.diff(np.r_[p_start, len(us)])
    pu, pl = us[p_start], nls[p_start]
    order2 = np.lexsort((pl, -cnt, pu))
    pu2, pl2 = pu[order2], pl[order2]
    first = np.r_[True, pu2[1:] != pu2[:-1]]
    return pu2[first], pl2[first]


def label_propagation(
    edges: ray.data.Dataset | pa.Table,
    *,
    rounds: int = 3,
    num_buckets: int = 32,
    plan: str = "auto",
) -> ray.data.Dataset | pa.Table:
    """Synchronous label propagation over a DISTINCT canonical undirected
    edge list (a < b, no self-loops, no duplicates — multiplicity feeds
    the mode, so callers dedup first): labels start as node ids; each
    round EVERY node simultaneously adopts the mode of its neighbors'
    previous labels, ties broken toward the smallest label. Fixed
    ``rounds`` (not convergence-tested) keeps the result deterministic
    and SQL-mirrorable — the classic community-detection primitive
    (Raghavan et al. 2007) restricted to its deterministic synchronous
    form.

    Two physical plans (resolve_plan policy):

    driver — symmetrized edge arrays stream to the driver once; each
    round is two np.lexsorts + reduceat over the edge list (pure C).

    shuffle — per round: ONE co-partitioned bucketed_hash_join of the
    static symmetrized edge list against the (node, lbl) table on the
    neighbor end, then ONE node-bucketed exchange where each bucket runs
    the same vectorized mode kernel. Both all-to-alls move only int64
    pairs; the label table (N rows) re-materializes per round — the
    standard iterative-algorithm tradeoff."""
    from sciscraper_ray.stages.window import bucketed_window

    if isinstance(edges, pa.Table):
        edges = ray.data.from_arrow(edges)

    e = edges.map_batches(symmetrize, batch_format="pyarrow")
    mode, e = resolve_plan(e, plan)

    if mode == "driver":
        from sciscraper_ray.pipelines.plan import driver_frame

        g = driver_frame(e, what="label_propagation")
        u = g["u"].to_numpy()
        v = g["v"].to_numpy()
        nodes = np.unique(u)
        labels = nodes.copy()
        v_idx = np.searchsorted(nodes, v)
        for _ in range(rounds):
            nl = labels[v_idx]
            win_nodes, win_lbl = _mode_per_node(u, nl)
            # symmetrized edges cover every node as u, so the winner
            # table is complete and positional assignment is total
            labels = win_lbl[np.searchsorted(win_nodes, nodes)]
        return pa.table(
            {
                "node": pa.array(nodes, pa.int64()),
                "lbl": pa.array(labels, pa.int64()),
            }
        )

    # shuffle plan: static edge list, per-round join + bucketed mode
    def init_labels(b: pa.Table) -> pa.Table:
        return pa.table({"node": b["u"], "lbl": b["u"]})

    labels_ds = group_count(
        e.map_batches(init_labels, batch_format="pyarrow"),
        "node",
        count=None,
        aggs={"lbl": ("lbl", "min")},
    )

    def bucket_mode(g: pd.DataFrame) -> pd.DataFrame:
        un, ln = _mode_per_node(
            g["u"].to_numpy(np.int64), g["lbl"].to_numpy(np.int64)
        )
        return pd.DataFrame({"node": un, "lbl": ln})

    for _ in range(rounds):
        joined = bucketed_hash_join(
            e,
            labels_ds.map_batches(
                lambda b: pa.table({"n2": b["node"], "lbl": b["lbl"]}),
                batch_format="pyarrow",
            ),
            left_on="v",
            right_on="n2",
            num_buckets=num_buckets,
        )
        labels_ds = bucketed_window(
            joined, bucket_mode, key="u", buckets=num_buckets
        ).map_batches(
            lambda b: pa.table({"node": b["node"], "lbl": b["lbl"]}),
            batch_format="pyarrow",
        )
        labels_ds = labels_ds.materialize()
    return labels_ds


def _tarjan_scc_sizes(src: np.ndarray, dst: np.ndarray) -> "pd.DataFrame":
    """Iterative Tarjan over the (small, trimmed) core: returns one row
    per SCC as (scc_id = min member, size). Explicit stack — the core can
    still be deep (long cycles), so no Python recursion."""
    nodes = np.unique(np.concatenate([src, dst]))
    n = len(nodes)
    s = np.searchsorted(nodes, src)
    d = np.searchsorted(nodes, dst)
    order = np.argsort(s, kind="stable")
    s, d = s[order], d[order]
    starts = np.searchsorted(s, np.arange(n + 1))

    index = np.full(n, -1, np.int64)
    low = np.zeros(n, np.int64)
    on_stack = np.zeros(n, bool)
    comp_stack: list[int] = []
    out: list[tuple[int, int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                index[v] = low[v] = counter
                counter += 1
                comp_stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(starts[v] + ei, starts[v + 1]):
                w = d[k]
                if index[w] == -1:
                    work[-1] = (v, k - starts[v] + 1)
                    work.append((int(w), 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                members = []
                while True:
                    w = comp_stack.pop()
                    on_stack[w] = False
                    members.append(w)
                    if w == v:
                        break
                out.append(
                    (int(nodes[min(members)]), len(members))
                )
    return pd.DataFrame(out, columns=["scc_id", "size"]).astype(
        {"scc_id": "int64", "size": "int64"}
    )


def strongly_connected_sizes(
    edges: ray.data.Dataset,
    *,
    min_size: int = 2,
    max_trim_rounds: int = 30,
) -> pa.Table:
    """Non-trivial SCC sizes over a directed (src, dst) edge list — the
    MultiStep shape (Slota et al. 2014): distributed TRIM peels nodes
    that cannot be on any cycle (out-degree 0 or in-degree 0; their
    removal cascades, so iterate to fixpoint), then exact Tarjan runs on
    the surviving cyclic core.

    Scale contract: each trim round is two node-set sweeps (per-batch
    np.unique partials, driver-merged — the sets are NODE-bounded, and on
    a web graph the candidate-core set collapses geometrically) plus one
    broadcast ``is_in`` filter over edge blocks; edges never shuffle. The
    core that survives trimming on real crawls is orders of magnitude
    smaller than the corpus (most pages sit on no cycle); it lands on the
    driver through the same bounded-merge contract as
    ``pipelines/plan.py`` driver plans. A core beyond driver memory would
    need FW-BW recursion — out of scope and asserted against, not
    silently mishandled."""
    from sciscraper_ray.pipelines.plan import DRIVER_PLAN_LIMIT

    def _node_set(ds: "ray.data.Dataset", col: str) -> np.ndarray:
        """Distinct values of one column: per-batch np.unique partials
        merged on the driver (node-bounded, never edge-bounded)."""
        parts = [
            np.unique(b[col].to_numpy(zero_copy_only=False))
            for b in ds.select_columns([col]).iter_batches(
                batch_format="pyarrow"
            )
        ]
        if not parts:
            return np.array([], np.int64)
        return np.unique(np.concatenate(parts))

    cur = edges.materialize()
    n_edges = cur.count()
    for _ in range(max_trim_rounds):
        if n_edges == 0:
            break
        srcs = _node_set(cur, "src")
        dsts = _node_set(cur, "dst")
        src_ref = ray.put(srcs)
        dst_ref = ray.put(dsts)

        def keep_cyclic(b: pa.Table, _s=src_ref, _d=dst_ref) -> pa.Table:
            s_set = ray.get(_s)
            d_set = ray.get(_d)
            src_v = b["src"].to_numpy(zero_copy_only=False)
            dst_v = b["dst"].to_numpy(zero_copy_only=False)
            # an edge can be on a cycle only if its src is reachable
            # (src has an in-edge) and its dst can continue (dst has an
            # out-edge)
            keep = np.isin(src_v, d_set) & np.isin(dst_v, s_set)
            return b.filter(pa.array(keep))

        nxt = cur.map_batches(keep_cyclic, batch_format="pyarrow").materialize()
        n_next = nxt.count()
        if n_next == n_edges:
            break
        cur, n_edges = nxt, n_next

    if n_edges > DRIVER_PLAN_LIMIT:
        raise NotImplementedError(
            f"trimmed SCC core ({n_edges} edges) exceeds the driver merge "
            "limit; FW-BW recursion required"
        )
    if n_edges == 0:
        return pa.table(
            {
                "scc_id": pa.array([], pa.int64()),
                "size": pa.array([], pa.int64()),
            }
        )
    core = cur.to_pandas()
    sizes = _tarjan_scc_sizes(
        core["src"].to_numpy(np.int64), core["dst"].to_numpy(np.int64)
    )
    sizes = sizes[sizes["size"] >= min_size]
    return pa.table(
        {
            "scc_id": pa.array(sizes["scc_id"].to_numpy(np.int64)),
            "size": pa.array(sizes["size"].to_numpy(np.int64)),
        }
    )
