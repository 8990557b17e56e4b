"""Every registered query against its DuckDB oracle at sf0.001.

The same compare as ``tools/check_correctness.py`` (row count, sorted
column names, order-insensitive value hash), one test per query, so a
query whose code or imports break fails here and not only in a manual
sweep. Queries registered without an oracle must still run.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from sciscraper_ray.pipelines.queries import ORACLE, QUERIES  # noqa: E402
from tools.check_correctness import TABLES, canonical, to_pandas  # noqa: E402

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def oracle_con():
    import duckdb

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    yield con
    con.close()


@pytest.mark.parametrize("name", list(QUERIES))
def test_query_matches_oracle(name, ray_session, oracle_con, tmp_path, monkeypatch):
    # Queries that stage files in tempfile's default directory stage them
    # here; the corpus_ops ones that pass dir="/tmp" still leave theirs.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    got = to_pandas(QUERIES[name](SF))
    sql = ORACLE.get(name)
    if sql is None:
        assert len(got.columns) > 0
        return
    want = oracle_con.execute(sql).fetchdf()
    assert len(got) == len(want)
    assert sorted(got.columns) == sorted(want.columns)
    assert canonical(got) == canonical(want)
