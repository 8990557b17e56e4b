"""Relational-tier building blocks: partial aggregation and broadcast joins.

Scale notes (SURVEY §4):
- Every ``groupby`` here is fed by a per-batch PARTIAL aggregate emitted
  from ``map_batches`` — at 100 TB the shuffle moves one row per (key,
  batch), not one row per input row.
- Small sides (dimension tables, key→attribute maps) are broadcast with
  ``ray.put`` once and fetched per actor/task, never shuffled
  (the reference's positional joins J1/J2 become key joins; J3 enrichment
  becomes this broadcast pattern — fetch.py:128-160, webscrapers.py:195-262).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def group_count_batch(
    batch: pa.Table,
    keys: list[str],
    agg_cols: dict[str, str] | None = None,
    *,
    count: str = "cnt",
    aggs: dict[str, tuple[str, str]] | None = None,
) -> pa.Table:
    """Partial per-batch groupby: count(*) plus optional sums.

    ``agg_cols`` maps input column -> output sum-column name; ``aggs`` maps
    output name -> (input column, Arrow hash aggregate) for any other
    per-group aggregate (``("ts", "max")``). Output has one row per
    distinct key combination in this batch with columns
    ``keys + [count] + list(agg_cols.values()) + list(aggs)`` — feed it to
    a global ``groupby(keys).aggregate(Sum(...))`` to finish.
    """
    agg_cols = agg_cols or {}
    aggs = aggs or {}
    spec = [("__one", "sum")] + [(c, "sum") for c in agg_cols] + list(aggs.values())
    t = batch.append_column("__one", pa.array(np.ones(len(batch), np.int64)))
    out = t.group_by(keys).aggregate(spec)
    renames = {"__one_sum": count}
    renames.update({f"{c}_sum": name for c, name in agg_cols.items()})
    renames.update({f"{c}_{fn}": name for name, (c, fn) in aggs.items()})
    return out.rename_columns([renames.get(c, c) for c in out.column_names])


def keep_latest_batch(batch: pd.DataFrame, key: str, order: list[str]) -> pd.DataFrame:
    """Partial keep-latest: per key, the row with max ``order`` tuple within
    this batch. Compose with a global groupby(key).map_groups of the same
    reducer — the partials shrink the shuffle to ≤1 row per (key, batch)."""
    idx = batch.sort_values(order, ascending=False).groupby(key, sort=False).head(1).index
    return batch.loc[idx]


class BroadcastLookup:
    """Actor-pool stage: append columns from a broadcast key→row mapping.

    ``mapping_ref`` is ``ray.put`` of either a key-indexed pandas DataFrame
    or an Arrow table with the key column, created once on the driver;
    each actor fetches it once in ``__init__`` (object store read,
    zero-copy within a node). Per batch the lookup is Arrow-native —
    ``pc.index_in`` on the key column + ``take`` on the value columns
    (misses take null rows) — so an Arrow pipeline never round-trips
    through pandas just to join, row order is preserved exactly, and
    payload columns stay zero-copy. Use with ``batch_format="pyarrow"``.
    """

    def __init__(self, mapping_ref, on: str):
        import ray

        m = ray.get(mapping_ref)
        self.on = on
        if isinstance(m, pd.DataFrame):
            # key = the DataFrame index (the old merge's right_index=True);
            # ``on`` names the BATCH column, which may differ (o_custkey
            # batches against a c_custkey-indexed mapping)
            keys = pa.Array.from_pandas(m.index)
            values = pa.Table.from_pandas(
                m.reset_index(drop=True), preserve_index=False
            )
        else:  # Arrow table: key column named ``on``
            keys = m[on]
            values = m.drop_columns([on])
        self.keys = (
            keys.combine_chunks() if isinstance(keys, pa.ChunkedArray) else keys
        )
        self.values = values

    def __call__(self, batch: pa.Table) -> pa.Table:
        idx = pc.index_in(batch[self.on], value_set=self.keys)
        taken = self.values.take(idx)
        for name in taken.column_names:
            batch = batch.append_column(name, taken[name])
        return batch


def salted_group_count(
    ds,
    key: str,
    *,
    salts: int = 16,
    agg_cols: dict[str, str] | None = None,
):
    """Salted two-phase grouped count/sum (SURVEY §4: hot keys — mega-hosts,
    stop-tokens — overload single reducers in a plain groupby).

    Phase 1 groups by ``(salt, key)`` where salt = row_position % salts,
    spreading each hot key across ``salts`` reducers; phase 2 collapses the
    salted partials with a second (tiny) groupby on the bare key. Combined
    with per-batch partial aggregation the shuffle carries at most
    ``salts`` rows per hot key, never the raw row stream.
    """
    import numpy as np
    import pyarrow as pa

    from ray.data.aggregate import Sum

    agg_cols = agg_cols or {}

    def phase1_partial(batch: pa.Table) -> pa.Table:
        salt = pa.array(
            (np.arange(len(batch)) % salts).astype(np.int32)
        )
        t = batch.append_column("__salt", salt)
        return group_count_batch(t, ["__salt", key], agg_cols)

    salted = (
        ds.map_batches(phase1_partial, batch_format="pyarrow")
        .groupby(["__salt", key])
        .aggregate(
            Sum(on="cnt", alias_name="cnt"),
            *[Sum(on=name, alias_name=name) for name in agg_cols.values()],
        )
    )

    def drop_salt(batch: pa.Table) -> pa.Table:
        return batch.drop_columns(["__salt"])

    return (
        salted.map_batches(drop_salt, batch_format="pyarrow")
        .groupby(key)
        .aggregate(
            Sum(on="cnt", alias_name="cnt"),
            *[Sum(on=name, alias_name=name) for name in agg_cols.values()],
        )
    )


def bucketed_hash_join(
    left,
    right,
    *,
    left_on: str,
    right_on: str,
    num_buckets: int = 64,
    how: str = "inner",
):
    """Big x big co-partitioned inner join — the plan for when NEITHER side
    fits a broadcast (fact ⋈ fact; reference J1/J2 joins outgrow
    ``BroadcastLookup`` the moment both inputs are row streams).

    Physical plan: both sides get ``bucket = mix(key) % num_buckets``
    (driver-free, computed per batch), are null-padded to one unified
    schema with a ``side`` tag, unioned, and hash-partitioned ONCE by
    bucket; each group then runs an in-memory pandas merge over exactly
    the rows that can match. One all-to-all on the bucket key — the
    minimum any big-big join pays — and per-group Python overhead is
    bounded by ``num_buckets`` (not key cardinality), so the ~100 µs/group
    sort-aggregate tax stays in the noise. ``how`` supports "inner" and
    "left": hash-partitioning is key-complete per bucket, so each
    bucket-local merge sees every possible match and outer semantics
    compose bucket-by-bucket (unmatched left rows take null right
    columns). Size ``num_buckets`` so one
    bucket of both sides fits a worker heap (at 100 TB that means
    thousands of buckets; skewed keys get the salted variant of
    ``salted_group_count`` applied to the bucket id).
    """
    import ray.data

    _MIX = 0x9E3779B97F4A7C15

    def tag(on: str, side: int, other_cols: dict[str, pa.DataType]):
        def fn(batch: pa.Table) -> pa.Table:
            # null keys first: a NaN from to_numpy() has undefined uint64
            # cast (platform-dependent bucket). Pin them all to one fixed
            # sentinel bucket so left-outer placement is deterministic;
            # inner-join null keys never match either way.
            key_col = pc.fill_null(batch[on], 0)
            keys = key_col.to_numpy(zero_copy_only=False).astype(np.uint64)
            bucket = ((keys * np.uint64(_MIX)) >> np.uint64(33)) % np.uint64(
                num_buckets
            )
            batch = batch.append_column(
                "__bucket", pa.array(bucket.astype(np.int64))
            )
            batch = batch.append_column(
                "__side", pa.array(np.full(len(batch), side, np.int8))
            )
            for name, typ in other_cols.items():
                batch = batch.append_column(name, pa.nulls(len(batch), typ))
            return batch

        return fn

    lschema = left.schema()
    rschema = right.schema()
    lcols = dict(zip(lschema.names, lschema.types))
    rcols = dict(zip(rschema.names, rschema.types))
    overlap = set(lcols) & set(rcols)
    if overlap:
        raise ValueError(f"join sides share column names: {sorted(overlap)}")

    unified = (
        left.map_batches(tag(left_on, 0, rcols), batch_format="pyarrow")
        .union(right.map_batches(tag(right_on, 1, lcols), batch_format="pyarrow"))
    )

    lnames, rnames = list(lcols), list(rcols)
    join_type = {
        "inner": "inner",
        "left": "left outer",
        "outer": "full outer",
    }[how]

    def merge_bucket(g: pa.Table) -> pa.Table:
        """Arrow-native bucket-local hash join (VERDICT r2 #9): the batch
        never round-trips through pandas, so payload columns stay
        zero-copy and null keys keep SQL semantics (null matches
        nothing — pandas merge treated NaN==NaN as equal)."""
        side = g["__side"]
        lf = g.filter(pc.equal(side, 0)).select(lnames)
        rf = g.filter(pc.equal(side, 1)).select(rnames)
        return lf.join(
            rf,
            keys=left_on,
            right_keys=right_on,
            join_type=join_type,
            coalesce_keys=False,
        ).select(lnames + rnames)

    return unified.groupby("__bucket").map_groups(
        merge_bucket, batch_format="pyarrow"
    )
