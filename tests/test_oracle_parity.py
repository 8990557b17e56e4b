"""Every registered query against its DuckDB oracle at sf0.001.

The same compare as ``tools/check_correctness.py`` (row count, sorted
column names, order-insensitive value hash), one test per query, so a
query whose code or imports break fails here and not only in a manual
sweep. Queries registered without an oracle must still run.
"""

from __future__ import annotations

import os
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
    # A query that stages files must remove them before it returns: nothing
    # may be left in tempfile's default directory (pointed here), nor any
    # directory that mkdtemp made elsewhere.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    made = []

    def mkdtemp(*args, _mkdtemp=tempfile.mkdtemp, **kwargs):
        made.append(_mkdtemp(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(tempfile, "mkdtemp", mkdtemp)
    got = to_pandas(QUERIES[name](SF))
    assert [p.name for p in tmp_path.iterdir()] == []
    assert [d for d in made if os.path.exists(d)] == []
    sql = ORACLE.get(name)
    if sql is None:
        assert len(got.columns) > 0
        return
    want = oracle_con.execute(sql).fetchdf()
    assert len(got) == len(want)
    assert sorted(got.columns) == sorted(want.columns)
    assert canonical(got) == canonical(want)


def test_priority_names_are_registered():
    # A query deleted from its family module must leave no dead name in the
    # registry's must-recheck head.
    from sciscraper_ray.pipelines.queries._order import _PRIORITY

    assert [n for n in _PRIORITY if n not in QUERIES] == []
