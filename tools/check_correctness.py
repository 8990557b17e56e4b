"""Local stand-in for the driver's correctness gate.

Runs every ``queries()`` entry and its ``oracle_sql()`` twin over an sf dir
(default sf0.01) and compares row count, column names, and an
order-insensitive value hash (columns sorted by name, rows sorted by all
columns, values canonicalized). Exit 1 on any mismatch.

Usage: python tools/check_correctness.py [--json OUT.json] [--timeout S]
       [sf_dir] [query ...]

``--timeout S`` wall-clocks each query's ray+oracle pair with SIGALRM and
records a timed-out query as ``err: "skipped: timeout"`` (listed, not
counted as a failure) — the scale-stress sweep mode: at 10x the gate
scale a handful of O(n^2)-oracle queries are intractable for DuckDB and
are skipped-as-intractable rather than silently omitted.

With ``--json`` the per-query verdicts are also written to OUT.json in the
driver's CORRECTNESS_r{N}.json format ({name: {rows_match, schema_match,
hash_match, spark_rows, oracle_rows, err}}), so a full local sweep can be
committed as an auditable artifact.

A query left unregistered because an input it needs is absent (see
``NOT_RUN`` in the query registry) is listed as ``skip ...: not run: <reason>``
with that ``err``: never a pass, and not counted as a failure.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import pandas as pd


TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def canonical(df: pd.DataFrame) -> str:
    df = df.copy()
    df = df[sorted(df.columns)]
    for c in df.columns:
        col = df[c]
        if col.dtype == object:
            df[c] = col.map(lambda v: repr(v) if not isinstance(v, str) else v)
        elif str(col.dtype).startswith("datetime"):
            df[c] = col.astype("datetime64[us]").map(
                lambda v: v.isoformat() if pd.notna(v) else "NaT"
            )
        elif col.dtype.kind == "f":
            df[c] = col.map(lambda v: f"{v:.12g}" if pd.notna(v) else "nan")
        else:
            df[c] = col.astype(str)
    rows = sorted("\x1f".join(r) for r in df.itertuples(index=False, name=None))
    return hashlib.sha256("\x1e".join(rows).encode()).hexdigest()


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()  # ray.data.Dataset


def _record(err: str | None = None) -> dict:
    """A per-query verdict in the CORRECTNESS_r{N}.json format, nothing matched."""
    return {
        "rows_match": False,
        "schema_match": False,
        "hash_match": False,
        "spark_rows": None,
        "oracle_rows": None,
        "err": err,
    }


class _QueryTimeout(Exception):
    pass


def main() -> int:
    import signal

    argv = sys.argv[1:]
    json_out = None
    timeout_s = 0
    while argv and argv[0] in ("--json", "--timeout"):
        if argv[0] == "--json":
            json_out = argv[1]
        else:
            timeout_s = int(argv[1])
        argv = argv[2:]

    def _alarm(_sig, _frm):
        raise _QueryTimeout

    if timeout_s:
        signal.signal(signal.SIGALRM, _alarm)
    sf_dir = argv[0] if argv else "/root/testdata/sf0.01"
    only = set(argv[1:])

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=8,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    DataContext.get_current().enable_tensor_extension_casting = False

    import __ray_entry__ as e
    from sciscraper_ray.pipelines.queries import NOT_RUN

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    queries = e.queries()
    oracles = e.oracle_sql()
    failures = []
    records: dict[str, dict] = {}
    not_run = []
    for name, reason in NOT_RUN.items():
        if only and name not in only:
            continue
        not_run.append(name)
        records[name] = _record(f"not run: {reason}")
        print(f"skip {name}: not run: {reason}")
    for name, fn in queries.items():
        if only and name not in only:
            continue
        rec = records[name] = _record()
        if timeout_s:
            signal.alarm(timeout_s)
        try:
            got = to_pandas(fn(sf_dir))
        except _QueryTimeout:
            rec["err"] = "skipped: timeout"
            print(f"skip {name}: ray side exceeded {timeout_s}s")
            continue
        except Exception as exc:  # noqa: BLE001
            failures.append(name)
            rec["err"] = f"ray: {type(exc).__name__}: {exc}"
            print(f"FAIL {name}: ray side raised {type(exc).__name__}: {exc}")
            continue
        rec["spark_rows"] = len(got)
        sql = oracles.get(name)
        if sql is None:
            rec["rows_match"] = len(got) >= 0
            rec["err"] = "no_oracle"
            print(f"ok   {name}: rows-only ({len(got)} rows)")
            continue
        # DuckDB executes in C and never re-enters the Python signal
        # handler, so the oracle timeout is a watchdog thread calling
        # con.interrupt() (raises duckdb.InterruptException in execute).
        import threading

        signal.alarm(0)
        timed_out = threading.Event()

        def _interrupt():
            timed_out.set()
            con.interrupt()

        watchdog = (
            threading.Timer(timeout_s, _interrupt) if timeout_s else None
        )
        if watchdog:
            watchdog.start()
        try:
            want = con.execute(sql).fetchdf()
        except Exception as exc:  # noqa: BLE001
            if timed_out.is_set():
                rec["err"] = "skipped: timeout"
                print(f"skip {name}: oracle exceeded {timeout_s}s")
                continue
            failures.append(name)
            rec["err"] = f"oracle: {type(exc).__name__}: {exc}"
            print(f"FAIL {name}: oracle raised {type(exc).__name__}: {exc}")
            continue
        finally:
            if watchdog:
                watchdog.cancel()
        rec["oracle_rows"] = len(want)
        rec["rows_match"] = len(got) == len(want)
        rec["schema_match"] = sorted(got.columns) == sorted(want.columns)
        problems = []
        if len(got) != len(want):
            problems.append(f"rows {len(got)} != {len(want)}")
        if sorted(got.columns) != sorted(want.columns):
            problems.append(f"cols {sorted(got.columns)} != {sorted(want.columns)}")
        elif canonical(got) != canonical(want):
            problems.append("value hash mismatch")
        else:
            rec["hash_match"] = True
        if problems:
            failures.append(name)
            print(f"FAIL {name}: {'; '.join(problems)}")
            if "value hash mismatch" in problems:
                g = got[sorted(got.columns)].sort_values(sorted(got.columns)).reset_index(drop=True)
                w = want[sorted(want.columns)].sort_values(sorted(want.columns)).reset_index(drop=True)
                diff_shown = 0
                for i in range(min(len(g), len(w))):
                    if not g.iloc[i].equals(w.iloc[i]):
                        print(f"  row {i}:\n    ray   : {g.iloc[i].to_dict()}\n    oracle: {w.iloc[i].to_dict()}")
                        diff_shown += 1
                        if diff_shown >= 3:
                            break
        else:
            print(f"ok   {name}: {len(got)} rows match")

    ray.shutdown()
    if json_out:
        with open(json_out, "w") as f:
            json.dump(records, f, indent=2)
        print(f"wrote {json_out} ({len(records)} queries)")
    if failures:
        print(f"\n{len(failures)} FAILED: {failures}")
        return 1
    if not_run:
        print(f"\nall run queries match; {len(not_run)} not run: {not_run}")
    else:
        print("\nall queries match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
