"""CSV-parity sink (M16/M17/S5 semantics) and the CLI driver."""

from __future__ import annotations

import importlib.util
import io
import os
from collections import Counter
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.csv as pcsv
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isolated_run import run_script


def _input_table() -> pa.Table:
    return pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "wordscore": pa.array([0.5625, 0.7425, 0.25], pa.float64()),
            "matching_terms": pa.array([100, 500, 0], pa.int64()),
            "pub_date": pa.array(["2024-01-05", "not a date", None], pa.string()),
            "all_empty": pa.array(["", None, ""], pa.string()),
            "tags": pa.array([["a", "b"], [], None], pa.list_(pa.string())),
        }
    )


def test_export_cast_and_empty_drop(ray_session, tmp_path):
    import ray.data

    from sciscraper_ray.pipelines.sink import export_results

    ds = ray.data.from_arrow(_input_table())
    run_dir = export_results(ds, str(tmp_path), date_stamp="240101")
    assert os.path.basename(run_dir) == "240101_sciscraper"

    out = pq.read_table(os.path.join(run_dir, "parquet")).sort_by("doc_id")
    # M16: the all-empty column is gone
    assert "all_empty" not in out.column_names
    # M17: declared dtypes at the sink (KEY_TYPE_PAIRINGS)
    assert out.schema.field("wordscore").type == pa.float16()
    assert out.schema.field("matching_terms").type == pa.int16()
    assert out.schema.field("pub_date").type == pa.timestamp("us")
    # pub_date errors="coerce": garbage -> null
    assert out["pub_date"].null_count == 2
    assert out["pub_date"][0].as_py().year == 2024
    # float16 rounding is the reference's documented precision loss
    assert out["wordscore"].to_pylist() == pytest.approx(
        [0.5625, 0.7425, 0.25], abs=1e-3
    )

    csv_dir = os.path.join(run_dir, "csv")
    # a null list is written as an unquoted empty cell
    opts = pcsv.ConvertOptions(strings_can_be_null=True, quoted_strings_can_be_null=False)
    csv = pa.concat_tables(
        pcsv.read_csv(os.path.join(csv_dir, f), convert_options=opts)
        for f in sorted(os.listdir(csv_dir))
    ).sort_by("doc_id")
    # list cells are the Python repr of the row's list
    assert csv["tags"].to_pylist() == ["['a', 'b']", "[]", None]


# ---- CSV rendering of list columns, against the per-row repr oracle ----


def _oracle_csv_safe(batch: pa.Table) -> pa.Table:
    """The sink's original per-row renderer: float16 via float32, list
    columns as ``repr`` of each row's Python list."""
    for i, name in enumerate(batch.column_names):
        col = batch[name]
        if pa.types.is_float16(col.type):
            batch = batch.set_column(i, name, pc.cast(col, pa.float32()))
        elif pa.types.is_list(col.type) or pa.types.is_large_list(col.type):
            batch = batch.set_column(
                i,
                name,
                pa.array(
                    [repr(v) if v is not None else None for v in col.to_pylist()],
                    type=pa.string(),
                ),
            )
    return batch


def _csv_bytes(table: pa.Table) -> bytes:
    buf = io.BytesIO()
    pcsv.write_csv(table, buf)
    return buf.getvalue()


def _assert_csv_parity(table: pa.Table) -> None:
    from sciscraper_ray.pipelines.sink import csv_safe

    got, want = csv_safe(table), _oracle_csv_safe(table)
    assert got.schema == want.schema
    assert got.to_pylist() == want.to_pylist()
    assert _csv_bytes(got) == _csv_bytes(want)


TERMS = pa.list_(pa.struct([("token", pa.string()), ("count", pa.int64())]))
# Strings that repr() quotes or escapes, next to plain ones.
ATOMS = ["a", "", "it's", 'say "hi"', "it's \"both\"", "back\\slash",
         "line\nbreak", "café", "nb\xa0sp", "tab\t", "del\x7f", "{'k': 1}, [x]"]


def _benchmark_batches(n_docs: int, batch_rows: int) -> list[pa.Table]:
    """The text_export benchmark's documents through DocAnalyzer, before
    the sink's cast, in batches of ``batch_rows``."""
    from sciscraper_ray.stages.doc_analyzer import DocAnalyzer

    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    docs = inputs.documents(n_docs)
    analyzer = DocAnalyzer(text_column="text")
    return [analyzer(docs.slice(i, batch_rows)) for i in range(0, n_docs, batch_rows)]


def test_csv_safe_benchmark_columns():
    """The text_export benchmark's DocAnalyzer columns, after the sink's
    cast: byte-identical CSV, and every list column on the fast path."""
    from sciscraper_ray.pipelines.sink import _repr_values, cast_declared_schema

    batches = [cast_declared_schema(b) for b in _benchmark_batches(5000, 2048)]
    for batch in batches:
        for name in ("target_terms_top_3", "bycatch_terms_top_3", "paper_parentheticals"):
            flat = pc.list_flatten(batch[name].combine_chunks())
            assert _repr_values(flat) is not None, name
        _assert_csv_parity(batch)


def test_csv_safe_atoms():
    """Quotes, escapes, non-ASCII, empty and null lists, null elements and
    null struct fields, large_list, sliced and chunked inputs."""
    strings = [[a] for a in ATOMS] + [ATOMS, [], None, ["a", None], [None]]
    terms = [
        [{"token": a, "count": i} for i, a in enumerate(ATOMS)],
        [{"token": "a", "count": -3}],
        [],
        None,
        [{"token": None, "count": 1}],
        [{"token": "a", "count": None}],
        [None],
    ]
    tables = [
        pa.table({"s": pa.array(strings, pa.list_(pa.string()))}),
        pa.table({"s": pa.array(strings, pa.large_list(pa.large_string()))}),
        pa.table({"t": pa.array(terms, TERMS)}),
        pa.table({"t": pa.array(terms, pa.large_list(TERMS.value_type))}),
        pa.table({"i": pa.array([[1, -2, 2**62], [], None, [None]], pa.list_(pa.int64()))}),
        pa.table({"u": pa.array([[0, 255], [7]], pa.list_(pa.uint8()))}),
        pa.table({"f": pa.array([[1.5], [], None], pa.list_(pa.float64()))}),
        pa.table({"b": pa.array([[True, False], []], pa.list_(pa.bool_()))}),
        pa.table({"n": pa.array([[["a"], []], None], pa.list_(pa.list_(pa.string())))}),
        pa.table({"w": pa.array([np.float16(0.5), None], pa.float16())}),
    ]
    for table in tables:
        _assert_csv_parity(table)
        for lo in (1, 2):
            _assert_csv_parity(table.slice(lo))
        col = table.column(0).combine_chunks()
        chunked = pa.chunked_array([col.slice(0, 2), col.slice(2), col.slice(1, 1)])
        _assert_csv_parity(pa.table({table.column_names[0]: chunked}))


@pytest.mark.parametrize("atom", ATOMS)
def test_csv_safe_each_atom(atom):
    """One atom per column, so the fast path is decided on that atom alone."""
    _assert_csv_parity(
        pa.table(
            {
                "s": pa.array([[atom], [], None, ["a", atom]], pa.list_(pa.string())),
                "t": pa.array(
                    [[{"token": atom, "count": 2}], [], None, [{"token": "a", "count": 1}]],
                    TERMS,
                ),
            }
        )
    )


def test_csv_safe_struct_field_names():
    """Field names are repr'd like strings; duplicate names fail as before."""
    values = pa.StructArray.from_arrays(
        [pa.array(["a", "b"]), pa.array([1, 2])], names=["it's", "café"]
    )
    offsets = pa.array([0, 2], pa.int32())
    _assert_csv_parity(pa.table({"t": pa.ListArray.from_arrays(offsets, values)}))

    from sciscraper_ray.pipelines.sink import csv_safe

    dup = pa.StructArray.from_arrays(
        [pa.array(["a", "b"]), pa.array([1, 2])], names=["x", "x"]
    )
    table = pa.table({"t": pa.ListArray.from_arrays(offsets, dup)})
    for render in (csv_safe, _oracle_csv_safe):
        with pytest.raises(ValueError):
            render(table)


def test_csv_safe_null_slot_over_values():
    """A null list slot may cover child values; it still renders as null."""
    values = pa.array(["a", "it's", "b"])
    arr = pa.ListArray.from_arrays(
        pa.array([0, 1, 2, 3], pa.int32()), values, mask=pa.array([False, True, False])
    )
    _assert_csv_parity(pa.table({"s": arr}))


_atom = (
    st.sampled_from(ATOMS)
    | st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6)
    | st.text(max_size=3)
)
_nullable = st.none() | _atom


@given(
    st.lists(st.none() | st.lists(_nullable, max_size=4), min_size=1, max_size=12),
    st.lists(
        st.none()
        | st.lists(
            st.none() | st.fixed_dictionaries(
                {"token": _nullable, "count": st.none() | st.integers(-(2**63), 2**63 - 1)}
            ),
            max_size=4,
        ),
        min_size=1,
        max_size=12,
    ),
    st.booleans(),
    st.integers(0, 3),
)
@settings(max_examples=150, deadline=None)
def test_csv_safe_property(strings, terms, large, lead):
    """Random lists of the atoms (and arbitrary text), with nulls at every
    level, as list or large_list, sliced: same cells and bytes as repr."""
    list_of = pa.large_list if large else pa.list_
    string_col = pa.array(strings, list_of(pa.string())).slice(min(lead, len(strings) - 1))
    terms_col = pa.array(terms, list_of(TERMS.value_type)).slice(min(lead, len(terms) - 1))
    _assert_csv_parity(pa.table({"s": string_col}))
    _assert_csv_parity(pa.table({"t": terms_col}))


def _rows(start: int, stop: int) -> pa.Table:
    ids = list(range(start, stop))
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "name": pa.array([f"doc {i}" for i in ids], pa.string()),
            "wordscore": pa.array([i / 4 for i in ids]).cast(pa.float16()),
            "tags": pa.array([["t"] * (i % 3) for i in ids], pa.list_(pa.string())),
        }
    )


def test_csv_safe_drops_empty_chunks():
    """pyarrow 16's write_csv repeats rows around a zero-length chunk; the
    sink writes the same bytes as for the combined batch."""
    from sciscraper_ray.pipelines.sink import csv_safe

    empty = _rows(0, 0)
    for parts in ([_rows(0, 2), empty, _rows(2, 3)], [empty, _rows(0, 1)], [empty, empty]):
        batch = pa.concat_tables(parts)
        assert any(len(c) == 0 for c in batch["doc_id"].chunks)
        assert _csv_bytes(csv_safe(batch)) == _csv_bytes(csv_safe(batch.combine_chunks()))
    # a column without empty chunks keeps its chunks
    batch = pa.concat_tables([_rows(0, 2), _rows(2, 3)])
    assert [len(c) for c in csv_safe(batch)["doc_id"].chunks] == [2, 1]


def test_export_csv_rows_across_empty_blocks(ray_session, tmp_path):
    """Empty blocks and a block with an empty chunk export their rows once."""
    import ray.data

    from sciscraper_ray.pipelines.sink import export_results

    chunked = pa.concat_tables([_rows(3, 5), _rows(0, 0), _rows(5, 6)])
    ds = ray.data.from_arrow([_rows(0, 2), _rows(0, 0), _rows(2, 3), chunked])
    run_dir = export_results(ds, str(tmp_path), date_stamp="240101", also_parquet=False)
    csv_dir = os.path.join(run_dir, "csv")
    csv = pa.concat_tables(
        pcsv.read_csv(os.path.join(csv_dir, f)) for f in sorted(os.listdir(csv_dir))
    ).sort_by("doc_id")
    want = _rows(0, 6)
    assert csv["doc_id"].to_pylist() == want["doc_id"].to_pylist()
    assert csv["name"].to_pylist() == want["name"].to_pylist()
    assert csv["wordscore"].to_pylist() == [i / 4 for i in range(6)]
    assert csv["tags"].to_pylist() == [repr(v) for v in want["tags"].to_pylist()]


def _old_export(ds, export_dir, *, date_stamp, drop_empty_columns=True, also_parquet=True):
    """The export as three Ray executions, kept as the oracle: a non-empty
    count pass, then Ray's write_parquet and write_csv over the cast."""
    from sciscraper_ray.pipelines.sink import _nonempty_partial, cast_declared_schema, csv_safe

    run_dir = os.path.join(export_dir, f"{date_stamp}_sciscraper")
    os.makedirs(run_dir, exist_ok=True)
    if drop_empty_columns:
        totals: dict[str, int] = {}
        for b in ds.map_batches(
            lambda t: pa.table({k: [v] for k, v in _nonempty_partial(t).items()}),
            batch_format="pyarrow",
        ).iter_batches(batch_format="pyarrow"):
            for name in b.column_names:
                totals[name] = totals.get(name, 0) + pc.sum(b[name]).as_py()
        ds = ds.select_columns([c for c, n in totals.items() if n > 0])
    out = ds.map_batches(cast_declared_schema, batch_format="pyarrow")
    if also_parquet:
        out.write_parquet(os.path.join(run_dir, "parquet"))
    out.map_batches(csv_safe, batch_format="pyarrow").write_csv(os.path.join(run_dir, "csv"))
    return run_dir


def _csv_header_and_rows(csv_dir: str) -> tuple[set[bytes], Counter]:
    headers, rows = set(), Counter()
    for name in os.listdir(csv_dir):
        lines = Path(csv_dir, name).read_bytes().splitlines()
        headers.add(lines[0])
        rows.update(lines[1:])
    return headers, rows


def _nan_and_junk_table() -> pa.Table:
    """Columns the cast empties: all-NaN counts and junk-only dates."""
    return pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "matching_terms": pa.array([float("nan")] * 3, pa.float64()),
            "pub_date": pa.array(["junk", "n/a", "2024-13-45"], pa.string()),
        }
    )


@pytest.mark.parametrize(
    "case, options, scheme",
    [
        ("benchmark", {}, ""),
        ("rewrite", {}, ""),
        ("empty_blocks", {}, ""),
        ("nan_and_junk", {}, ""),
        ("rewrite", {"drop_empty_columns": False}, ""),
        ("benchmark", {"also_parquet": False}, ""),
        ("rewrite", {}, "file://"),
        ("rewrite", {}, "local://"),
        ("many_blocks", {}, ""),
        ("many_blocks_rewrite", {}, ""),
        ("many_blocks_lazy", {}, ""),
        ("many_blocks_large", {}, ""),
    ],
    ids=[
        "benchmark", "rewrite", "empty_blocks", "nan_and_junk",
        "keep_empty_columns", "benchmark_csv_only", "rewrite_file_uri",
        "rewrite_local_uri", "many_blocks", "many_blocks_rewrite",
        "many_blocks_lazy", "many_blocks_large",
    ],
)
def test_export_matches_three_execution_export(
    ray_session, tmp_path, monkeypatch, case, options, scheme
):
    """Same parquet columns, schema and rows, and the same CSV header and
    row lines, as the export it replaced. An export dir given as a URI
    resolves its file system from the scheme, as Ray's file sinks do. A
    small materialized input of many blocks is written by one task per
    CPU, its rewrite too; a lazy one, and a materialized one above the
    size bound, keep Ray's bundling."""
    import ray
    import ray.data

    from sciscraper_ray.pipelines import plan
    from sciscraper_ray.pipelines.sink import export_results

    def with_empty_column(tables):
        return [t.append_column("all_empty", pa.array([""] * t.num_rows)) for t in tables]

    tables = {
        "benchmark": lambda: _benchmark_batches(2000, 512),
        "rewrite": lambda: [_input_table()],
        "empty_blocks": lambda: [
            _rows(0, 2), _rows(0, 0), _rows(2, 3),
            pa.concat_tables([_rows(3, 5), _rows(0, 0), _rows(5, 6)]),
        ],
        "nan_and_junk": lambda: [_nan_and_junk_table()],
        "many_blocks": lambda: _benchmark_batches(2400, 100),
        "many_blocks_rewrite": lambda: with_empty_column(_benchmark_batches(2400, 100)),
        "many_blocks_lazy": lambda: _benchmark_batches(2400, 100),
        "many_blocks_large": lambda: _benchmark_batches(2400, 100),
    }[case]()
    ds = ray.data.from_arrow(tables)
    if case == "many_blocks_lazy":
        ds = ds.map_batches(lambda t: t, batch_format="pyarrow")
    if case == "many_blocks_large":
        monkeypatch.setattr(plan, "FULL_WIDTH_MAX_BYTES", ds.size_bytes() - 1)
    new = export_results(ds, scheme + str(tmp_path / "new"), date_stamp="240101", **options)
    assert new.startswith(scheme)
    new = new[len(scheme):]
    assert sorted(os.listdir(tmp_path)) == ["new"]  # written at the URI's path
    old = _old_export(ds, str(tmp_path / "old"), date_stamp="240101", **options)

    has_parquet = options.get("also_parquet", True)
    assert os.path.isdir(os.path.join(new, "parquet")) == has_parquet
    if has_parquet:
        got = pq.read_table(os.path.join(new, "parquet"))
        want = pq.read_table(os.path.join(old, "parquet"))
        assert got.schema.equals(want.schema)  # names, order and types
        assert got.sort_by("doc_id").to_pylist() == want.sort_by("doc_id").to_pylist()
        if case == "rewrite":
            assert ("all_empty" in got.column_names) == ("drop_empty_columns" in options)
        if case == "nan_and_junk":
            assert got.column_names == ["doc_id", "matching_terms", "pub_date"]
            assert got["matching_terms"].null_count == got["pub_date"].null_count == 3
    got_header, got_rows = _csv_header_and_rows(os.path.join(new, "csv"))
    want_header, want_rows = _csv_header_and_rows(os.path.join(old, "csv"))
    assert len(got_header) == 1 and got_header == want_header
    assert got_rows == want_rows and sum(got_rows.values()) == sum(t.num_rows for t in tables)
    if case.startswith("many_blocks"):
        assert len(tables) >= 20
        cpus = int(ray.cluster_resources()["CPU"])
        parts = [len(os.listdir(os.path.join(new, d))) for d in ("csv", "parquet")]
        if case in ("many_blocks_lazy", "many_blocks_large"):
            assert min(parts) > cpus, parts
        else:
            assert parts == [cpus, cpus], parts


@pytest.mark.parametrize(
    "table",
    [
        _input_table().slice(0, 0),
        pa.table({"doc_id": pa.array([None, None], pa.int64()), "name": ["", None]}),
    ],
    ids=["zero_rows", "only_empty_values"],
)
def test_export_with_every_column_empty(ray_session, tmp_path, table):
    """Nothing to export: empty parquet/ and csv/ directories, no part files."""
    import ray.data

    from sciscraper_ray.pipelines.sink import export_results

    run_dir = export_results(ray.data.from_arrow(table), str(tmp_path), date_stamp="240101")
    assert sorted(os.listdir(run_dir)) == ["csv", "parquet"]
    assert os.listdir(os.path.join(run_dir, "csv")) == []
    assert os.listdir(os.path.join(run_dir, "parquet")) == []


@pytest.mark.parametrize(
    "table, executions",
    [(_rows(0, 6), 1), (_input_table(), 2)],
    ids=["no_empty_column", "one_empty_column"],
)
def test_export_executions(ray_session, tmp_path, monkeypatch, table, executions):
    """One Ray Data execution per export; a second only to drop a column
    that is empty everywhere."""
    import ray.data
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from sciscraper_ray.pipelines.sink import export_results

    ds = ray.data.from_arrow(table)
    starts = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        starts.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    export_results(ds, str(tmp_path), date_stamp="240101")
    assert len(starts) == executions


def test_cli_wordscore_mode(ray_session, tmp_path):
    from sciscraper_ray.cli import main

    run_dir = main(
        [
            "-m", "wordscore",
            "-f", "/root/testdata/sf0.001/documents.parquet",
            "-e", str(tmp_path),
            "--date-stamp", "240102",
        ]
    )
    out = pq.read_table(os.path.join(run_dir, "parquet"))
    assert out.num_rows == 500
    assert out.schema.field("wordscore").type == pa.float16()


def test_cli_query_mode(ray_session, tmp_path):
    from sciscraper_ray.cli import main

    run_dir = main(
        [
            "-m", "query:top_tokens_global",
            "-f", "/root/testdata/sf0.001",
            "-e", str(tmp_path),
            "--date-stamp", "240103",
        ]
    )
    out = pq.read_table(os.path.join(run_dir, "parquet"))
    assert out.num_rows > 0 and "token" in out.column_names


_REJECT_SCRIPT = """
import sys

import ray

from sciscraper_ray.cli import main

for mode in ("images", "nope", "query:nope"):
    try:
        main(["-m", mode, "-f", "x", "-e", sys.argv[1]])
    except SystemExit as e:
        print(mode, e.code, ray.is_initialized())
"""


def test_cli_rejects_unknown_mode(tmp_path):
    """An unknown mode or query name exits with usage before Ray starts
    (a fresh interpreter: the session fixture's Ray is already up here)."""
    out = run_script(_REJECT_SCRIPT, str(tmp_path), timeout=60)
    assert out.stdout.split("\n")[:3] == [
        "images 2 False", "nope 2 False", "query:nope 2 False"
    ], out.stderr[-2000:]
    assert "unknown mode 'images': choose from " in out.stderr
    assert "resume, download, or query:<name>" in out.stderr
    assert "no registered query named 'nope'" in out.stderr


def test_int16_cast_wraps_instead_of_crashing():
    """>32767 counts must wrap (reference astype semantics), not raise."""
    import numpy as np

    from sciscraper_ray.pipelines.sink import cast_declared_schema

    batch = pa.table({"matching_terms": pa.array([40_000, 5], pa.int64())})
    out = cast_declared_schema(batch)
    assert out["matching_terms"].to_pylist() == [
        int(np.int64(40_000).astype(np.int16)), 5
    ]


def test_int16_cast_preserves_nulls():
    """A null count column (e.g. times_cited after a join miss) must stay
    null through the wrapping cast — not become garbage via float NaN."""
    batch = pa.table(
        {
            "times_cited": pa.array([7, None, 40_000], pa.int64()),
            "matching_terms": pa.array([1.0, float("nan"), 3.0], pa.float64()),
        }
    )
    out = cast_from_sink(batch)
    assert out["times_cited"].to_pylist() == [7, None, -25536]
    assert out.schema.field("times_cited").type == pa.int16()
    # float NaN (pandas-style missing) also lands as a true null
    assert out["matching_terms"].to_pylist() == [1, None, 3]


def cast_from_sink(batch):
    from sciscraper_ray.pipelines.sink import cast_declared_schema

    return cast_declared_schema(batch)


def test_format_filename_deterministic():
    """M22: reference shape {date}_{etag}_{id}.{ext} with the randint
    replaced by a stable url-derived 1..255 id
    (/root/reference/src/downloaders.py:346-366 minus the randomness)."""
    from sciscraper_ray.kernels.links import format_filename

    a = format_filename('"abc123"', "pdf", url="https://x/p1", date_stamp="240101")
    b = format_filename('"abc123"', "pdf", url="https://x/p1", date_stamp="240101")
    c = format_filename(None, "png", url="https://x/p2", date_stamp="240101")
    assert a == b  # idempotent across calls/workers
    assert a.startswith("240101_abc123_") and a.endswith(".pdf")
    file_id = int(a.rsplit("_", 1)[1].split(".")[0])
    assert 1 <= file_id <= 255
    # None etag -> _NaN_ like the reference
    assert c.startswith("240101__NaN__") and c.endswith(".png")


def test_write_artifacts(ray_session, tmp_path):
    import ray.data

    from sciscraper_ray.pipelines.sink import write_artifacts

    ds = ray.data.from_arrow(
        pa.table(
            {
                "url": pa.array(["https://x/a", "https://x/b"]),
                "html": pa.array([b"%PDF-1", b"%PDF-2"], pa.binary()),
            }
        )
    )
    out_dir = write_artifacts(ds, str(tmp_path), date_stamp="240101")
    t = pq.read_table(out_dir).sort_by("filename")
    assert t.num_rows == 2
    assert sorted(t.column_names) == ["filename", "payload"]
    assert all(n.startswith("240101__NaN__") for n in t["filename"].to_pylist())
    assert set(t["payload"].to_pylist()) == {b"%PDF-1", b"%PDF-2"}


def test_cli_reference_mode_coverage():
    """Every reference SCISCRAPERS named pipeline (factories.py:26-103)
    has a CLI mode: directory, wordscore, citations, download (which also
    serves images), fastscore, google."""
    from sciscraper_ray.cli import MODES

    for mode in ("directory", "wordscore", "citations", "fastscore", "google"):
        assert mode in MODES, mode
    # 'download' is a main()-level mode (needs the export dir); it also
    # serves the reference's 'images' mode, whose figure fetch is a
    # (filename, payload) artifact table offline


def test_cli_citations_and_download_modes(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from sciscraper_ray.cli import main

    # citations: EP3 analog over the sf-dir layout
    run_dir = main(
        [
            "-m", "citations",
            "-f", "/root/testdata/sf0.001",
            "-e", str(tmp_path / "cit"),
            "--date-stamp", "240101",
        ]
    )
    out = pq_.read_table(os.path.join(run_dir, "parquet"))
    assert out.num_rows == 1500  # 500 docs x 3 citations

    # download: binary artifact sink over a page table
    pages = tmp_path / "pages.parquet"
    pq_.write_table(
        pa.table(
            {
                "url": ["https://x/a", "https://x/b"],
                "html": pa.array([b"%PDF-a", b"%PDF-b"], pa.binary()),
            }
        ),
        str(pages),
    )
    out_dir = main(
        [
            "-m", "download",
            "-f", str(pages),
            "-e", str(tmp_path / "dl"),
            "--date-stamp", "240101",
        ]
    )
    t = pq_.read_table(out_dir)
    assert t.num_rows == 2 and "filename" in t.column_names


def test_read_mode_prompt_loop():
    """Reference read_factory contract (factories.py:106-125): re-prompt
    on unknown modes, accept registry names / resume / query:*."""
    from sciscraper_ray.cli import read_mode

    prompts = []

    def fake_input(prompt):
        prompts.append(prompt)
        return ["bogus", "  wordscore "][len(prompts) - 1]

    assert read_mode(fake_input) == "wordscore"
    assert len(prompts) == 2
    assert "wordscore" in prompts[0] and "resume" in prompts[0]
    assert read_mode(lambda p: "query:top_tokens_global") == "query:top_tokens_global"
    assert read_mode(lambda p: "download") == "download"


def test_cli_profiler_benchmark(ray_session, tmp_path, capsys):
    from sciscraper_ray.cli import main

    out = main(
        [
            "-m", "wordscore",
            "-f", "/root/testdata/sf0.001/documents.parquet",
            "-e", str(tmp_path),
            "--date-stamp", "250101",
            "-p", "benchmark",
        ]
    )
    assert (tmp_path / "profile_250101.pstats").exists()
    captured = capsys.readouterr().out
    assert "cumulative" in captured or "tottime" in captured
    import os

    assert os.path.isdir(out)


def test_cli_profiler_bytecode(ray_session, tmp_path, capsys):
    from sciscraper_ray.cli import main

    main(
        [
            "-m", "wordscore",
            "-f", "/root/testdata/sf0.001/documents.parquet",
            "-e", str(tmp_path),
            "-p", "bytecode",
        ]
    )
    captured = capsys.readouterr().out
    assert "LOAD_" in captured  # dis output, nothing executed
    assert not list(tmp_path.iterdir())  # bytecode mode runs no pipeline


def test_cli_profiler_memory(ray_session, tmp_path, capsys):
    from sciscraper_ray.cli import main

    out = main(
        [
            "-m", "wordscore",
            "-f", "/root/testdata/sf0.001/documents.parquet",
            "-e", str(tmp_path),
            "--date-stamp", "250101",
            "-p", "memory",
        ]
    )
    captured = capsys.readouterr().out
    assert "driver peak traced memory" in captured
    import os

    assert os.path.isdir(out)
