"""Relational-tier building blocks: grouped aggregation and broadcast joins.

Scale notes (SURVEY §4):
- Every distributed grouped aggregate goes through ``group_count``: a
  per-block PARTIAL aggregate (``group_count_batch``) mapped over each
  block, one shuffle on the key, and a merge that sums the partial counts
  and sums (max/min of the partial max/min). At 100 TB the shuffle moves
  one row per (key, block), not one row per input row. ``ray.data.aggregate``
  is imported here and nowhere else, so a salted or size-picked plan
  changes one function.
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
    count: str | None = "cnt",
    aggs: dict[str, tuple[str, str]] | None = None,
) -> pa.Table:
    """Partial per-batch groupby: count(*) plus optional sums.

    ``agg_cols`` maps input column -> output sum-column name; ``aggs`` maps
    output name -> (input column, Arrow hash aggregate) for any other
    per-group aggregate (``("ts", "max")``). ``count=None`` leaves the
    count out. Output has one row per distinct key combination in this
    batch with columns ``keys + [count] + list(agg_cols.values()) +
    list(aggs)``; ``group_count`` maps it over a Dataset and merges.
    """
    agg_cols = agg_cols or {}
    aggs = aggs or {}
    spec = [(c, "sum") for c in agg_cols] + list(aggs.values())
    if count is not None:
        spec.insert(0, ("__one", "sum"))
    t = batch.append_column("__one", pa.array(np.ones(len(batch), np.int64)))
    out = t.group_by(keys).aggregate(spec)
    renames = {"__one_sum": count}
    renames.update({f"{c}_sum": name for c, name in agg_cols.items()})
    renames.update({f"{c}_{fn}": name for name, (c, fn) in aggs.items()})
    return out.rename_columns([renames.get(c, c) for c in out.column_names])


def _null_filler(t: pa.DataType) -> pa.Scalar:
    """A valid value of type ``t`` that stands in for a null key in the
    shuffle (the null mask beside the keys keeps the two apart)."""
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return pa.scalar("", t)
    if pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return pa.scalar(b"", t)
    return pa.scalar(False if pa.types.is_boolean(t) else 0, t)


def group_count(
    ds,
    keys: str | list[str],
    agg_cols: dict[str, str] | None = None,
    *,
    count: str | None = "cnt",
    aggs: dict[str, tuple[str, str]] | None = None,
):
    """Distributed grouped count/sum/max/min of a Dataset: the twin of
    ``group_count_batch``, with the same spec and output columns.

    ``group_count_batch`` runs per block (no ``batch_size``, so Ray fuses
    it into the map before it), then one ``groupby(keys).aggregate`` sums
    the counts and sums and takes the max/min of ``aggs``. A null key is
    its own group, as in SQL ``GROUP BY``: Ray's sort shuffle cannot order
    ``None`` against a string, so the keys are shuffled with nulls filled
    plus one bit mask of which keys were null (one column, not one per
    key: each shuffle key column costs time per group), and the nulls
    come back after the merge.
    """
    from ray.data.aggregate import Max, Min, Sum

    keys = [keys] if isinstance(keys, str) else list(keys)
    agg_cols = agg_cols or {}
    aggs = aggs or {}

    def partial(batch: pa.Table) -> pa.Table:
        out = group_count_batch(batch, keys, agg_cols, count=count, aggs=aggs)
        mask = np.zeros(len(out), np.int64)
        for bit, k in enumerate(keys):
            col = out[k]
            if col.null_count and not pa.types.is_null(col.type):
                mask |= pc.is_null(col).to_numpy().astype(np.int64) << bit
                filled = pc.fill_null(col, _null_filler(col.type))
                out = out.set_column(out.schema.get_field_index(k), k, filled)
        return out.append_column("__nulls", pa.array(mask))

    def restore(batch: pa.Table) -> pa.Table:
        for bit, k in enumerate(keys):
            is_null = pc.not_equal(pc.bit_wise_and(batch["__nulls"], 1 << bit), 0)
            i = batch.schema.get_field_index(k)
            null = pa.scalar(None, batch[k].type)
            batch = batch.set_column(i, k, pc.if_else(is_null, null, batch[k]))
        return batch.drop_columns(["__nulls"])

    sums = ([count] if count is not None else []) + list(agg_cols.values())
    merge = [Sum(on=c, alias_name=c) for c in sums] + [
        {"max": Max, "min": Min}[fn](on=name, alias_name=name)
        for name, (_, fn) in aggs.items()
    ]
    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(keys + ["__nulls"])
        .aggregate(*merge)
        .map_batches(restore, batch_format="pyarrow")
    )


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
    salted partials with a second (tiny) ``group_count`` on the bare key
    that sums the phase-1 counts. Combined with per-batch partial
    aggregation the shuffle carries at most ``salts`` rows per hot key,
    never the raw row stream.
    """
    agg_cols = agg_cols or {}

    def salt(batch: pa.Table) -> pa.Table:
        s = pa.array((np.arange(len(batch)) % salts).astype(np.int32))
        return batch.append_column("__salt", s)

    salted = group_count(
        ds.map_batches(salt, batch_format="pyarrow"), ["__salt", key], agg_cols
    )
    sums = {c: c for c in ["cnt", *agg_cols.values()]}
    return group_count(salted, key, sums, count=None)


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
