"""The shared two-pass winner-filter operator.

``keep_latest_by_url`` (pipelines/extract.py) and ``exact_dedup``
(pipelines/dedup.py) are the same physical plan with different key/value
functions — SURVEY §8 named factoring them as debt; this module is that
operator. The plan:

  pass 1 (keys only)  per-batch partials reduce (key128, value) to one
                      row per (key, batch); partials merge on the driver
                      (lexsort + reduceat — the ONE serial stage, so pure
                      C reductions only) below the plan limit, or through
                      the distributed sort-aggregate above it
                      (``pipelines/plan.py`` auto-selects);
  broadcast           only keys that actually collide (cnt > 1) ship via
                      ``ray.put`` with their winning value;
  pass 2 (full rows)  a streamed Arrow-native filter keeps a row unless
                      its key collides AND its value is not the winner —
                      payload bytes never enter a shuffle or leave Arrow.

Keys are 128-bit, carried as (h_hi, h_lo) int64 pairs (collision-safe at
10^12 rows; int64 bit-views because uint64 silently promotes to float64
inside Ray's sort-aggregate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data


@dataclass(frozen=True)
class WinnerSpec:
    """What varies between winner-filter deployments.

    ``keys(batch) -> (h_hi, h_lo, valid | None)``: 128-bit row keys;
    ``valid`` excludes rows from dup detection entirely (e.g. null-text
    rows are not duplicates of each other).
    ``value(batch) -> int64 array``: the quantity the winner maximizes or
    minimizes (warc_ts epoch-us; doc id).
    ``np_reducer``: np.maximum / np.minimum (driver merge).
    ``agg_name``: 'max' / 'min' (distributed merge).
    ``first_seen_tiebreak``: True when several rows can share the winning
    (key, value) — keep only the first within a batch (keep-latest ties).
    CONTRACT (ADVICE r2): this dedupes ties within a batch only; ties
    split across batch boundaries all survive, so the survivor set
    depends on partitioning. Exact keep-ONE semantics would need a
    content-deterministic secondary key folded into ``value`` — which
    requires the payload in pass 1 and would forfeit the column-pruned
    key read. No downstream stage makes it exact: in the flagship
    (``extraction_pipeline``), same-(url, warc_ts) refetches split
    across batches all survive today (ROADMAP Known defects, "Exact-tie
    refetches survive the flagship dedup"; Direction 8(a) is the fix).
    """

    keys: Callable[[pa.Table], tuple]
    value: Callable[[pa.Table], np.ndarray]
    np_reducer: "np.ufunc"
    agg_name: str
    first_seen_tiebreak: bool = False
    what: str = "winner_filter"


def _segment_reduce(
    hi: np.ndarray,
    lo: np.ndarray,
    val: np.ndarray,
    cnt: np.ndarray,
    reducer: "np.ufunc",
    min_cnt: int,
) -> pd.DataFrame:
    """Group (h_hi, h_lo), reduce val, sum cnt, keep segments with
    cnt >= min_cnt. One np.lexsort + reduceat — all C."""
    if not len(hi):
        return pd.DataFrame({"h_hi": [], "h_lo": [], "val": [], "cnt": []}).astype(
            {"h_hi": "int64", "h_lo": "int64", "val": "int64", "cnt": "int64"}
        )
    order = np.lexsort((lo, hi))
    hi, lo, val, cnt = hi[order], lo[order], val[order], cnt[order]
    new_seg = np.empty(len(hi), dtype=bool)
    new_seg[0] = True
    new_seg[1:] = (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
    starts = np.nonzero(new_seg)[0]
    g_val = reducer.reduceat(val, starts)
    g_cnt = np.add.reduceat(cnt, starts)
    keep = g_cnt >= min_cnt
    return pd.DataFrame(
        {
            "h_hi": hi[starts][keep],
            "h_lo": lo[starts][keep],
            "val": g_val[keep],
            "cnt": g_cnt[keep],
        }
    )


def winner_filter(
    ds: ray.data.Dataset,
    spec: WinnerSpec,
    *,
    keys_source: "ray.data.Dataset | None" = None,
    key_merge: str = "auto",
    driver_merge_limit: int | None = None,
    est_rows: int | None = None,
) -> ray.data.Dataset:
    """Keep, per distinct 128-bit key, only the row(s) winning on
    ``spec.value`` — without moving payloads through a shuffle.
    ``est_rows``: optional input-row upper bound (parquet metadata) that
    lets 'auto' pick the plan without the materialize barrier."""
    import pyarrow.compute as pc

    from sciscraper_ray.pipelines.plan import (
        DRIVER_PLAN_LIMIT,
        driver_frame,
        resolve_plan,
    )

    limit = driver_merge_limit or DRIVER_PLAN_LIMIT

    def key_partial(batch: pa.Table) -> pd.DataFrame:
        hi, lo, valid = spec.keys(batch)
        v = spec.value(batch)
        if valid is not None:
            hi, lo, v = hi[valid], lo[valid], v[valid]
        return _segment_reduce(
            hi, lo, v, np.ones(len(hi), np.int64), spec.np_reducer, min_cnt=1
        )

    keys_ds = keys_source if keys_source is not None else ds
    partials = keys_ds.map_batches(key_partial, batch_format="pyarrow")
    key_merge, partials = resolve_plan(
        partials, key_merge, limit=limit, est_rows=est_rows
    )

    if key_merge == "driver":
        merged = driver_frame(partials, limit, spec.what)
        dups = _segment_reduce(
            merged["h_hi"].to_numpy(),
            merged["h_lo"].to_numpy(),
            merged["val"].to_numpy(),
            merged["cnt"].to_numpy(),
            spec.np_reducer,
            min_cnt=2,
        )
    else:
        from sciscraper_ray.stages.relational import group_count

        dups = group_count(
            partials,
            ["h_hi", "h_lo"],
            {"cnt": "cnt"},
            count=None,
            aggs={"val": ("val", spec.agg_name)},
        ).map_batches(
            lambda b: b.filter(pc.greater(b["cnt"], 1)),
            batch_format="pyarrow",
        ).to_pandas()  # only colliding keys reach the driver

    return apply_winner_filter(ds, spec, dups)


def apply_winner_filter(
    ds: ray.data.Dataset, spec: WinnerSpec, dups: pd.DataFrame
) -> ray.data.Dataset:
    """Pass 2 alone: given the colliding-key winner table from the
    groupby/driver merge above, stream the full rows through the
    Arrow-native filter."""
    # Broadcast (h_hi, h_lo) -> winning value for colliding keys only.
    # Int64 keeps the per-batch left-merge exact (no float round-trip of
    # int64 timestamps/ids).
    dups = dups[["h_hi", "h_lo", "val"]].astype(
        {"h_hi": "int64", "h_lo": "int64", "val": "Int64"}
    )
    refs = ray.put(dups)

    def keep_winners(batch: pa.Table) -> pa.Table:
        """Arrow-native filter: only the key columns leave Arrow — payload
        bytes are never materialized as Python objects. A plain TASK, not
        an actor pool: the broadcast table is a zero-copy local ray.get."""
        dups_df = ray.get(refs)
        if not len(dups_df):
            return batch
        hi, lo, valid = spec.keys(batch)
        # cheap prefilter: most batches carry no colliding keys at all
        if not np.isin(hi, dups_df["h_hi"].to_numpy()).any():
            return batch
        v = spec.value(batch)
        left = pd.DataFrame({"h_hi": hi, "h_lo": lo, "v": v})
        # dups_df is unique per key, so the left-merge stays row-aligned.
        m = left.merge(dups_df, on=["h_hi", "h_lo"], how="left")
        in_dup = m["val"].notna().to_numpy()
        if valid is not None:
            in_dup &= valid
        is_winner = (
            m["v"].astype("Int64").eq(m["val"]).fillna(False).to_numpy(bool)
        )
        keep = ~in_dup | is_winner
        if spec.first_seen_tiebreak:
            # a key filter cannot pick among identical (key, value) rows;
            # drop within-batch repeats (same-key rows are adjacent in
            # crawl files, so ties almost always share a batch —
            # cross-batch byte-identical rows are exact-dedup's job)
            first_seen = ~left.duplicated(["h_hi", "h_lo", "v"]).to_numpy()
            keep &= ~in_dup | first_seen
        return batch.filter(pa.array(keep))

    return ds.map_batches(keep_winners, batch_format="pyarrow")
