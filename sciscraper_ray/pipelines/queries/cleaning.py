"""Messy-source cleaning, declared-schema cast (M14-M17), lineage/resume.

Split from pipelines/queries.py (round 4); registration side effects
only — import order is fixed by the package __init__.
"""
from __future__ import annotations

import numpy as np

import pyarrow as pa
import pyarrow.compute as pc

from sciscraper_ray.pipelines.queries._shared import (
    _docs,
    register,
)


# --------------------------------------------------------------------------
# Messy-source cleaning + declared-schema cast (M14-M17).
# --------------------------------------------------------------------------


@register(
    "nested_unwrap",
    oracle="""
    SELECT doc_id,
           CASE WHEN doc_id % 6 = 0 THEN '10.77' || doc_id || '/z'
                ELSE 'plain-' || doc_id END AS value,
           CASE WHEN doc_id % 9 = 0 THEN 'N/A'
                ELSE 'src-' || (doc_id % 20) END AS filled
    FROM documents
    """,
)
def nested_unwrap(sf_dir: str):
    """M14+M15: dict-literal cell unwrap (ast.literal_eval, never eval) and
    fillna('N/A'). The reference's plain-rows-first reorder (serials.py:66-86)
    is order-only — the keyed output here is order-insensitive."""
    from sciscraper_ray.kernels.nested import clean_nested_values, fill_na

    def build_and_clean(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        messy = [
            ("{'doi': '10.77%d/z'}" % i) if i % 6 == 0 else f"plain-{i}"
            for i in ids
        ]
        # per-row unwrap (keyed variant of clean_nested_values)
        values = [
            clean_nested_values([m], "doi")[0] for m in messy
        ]
        maybe_null = pa.array(
            [None if i % 9 == 0 else f"src-{i % 20}" for i in ids], type=pa.string()
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "value": pa.array(values, type=pa.string()),
                "filled": fill_na(maybe_null, "N/A"),
            }
        )

    return _docs(sf_dir).map_batches(build_and_clean, batch_format="pyarrow")


@register(
    "schema_cast",
    oracle="""
    SELECT doc_id,
           TRY_CAST(CASE WHEN doc_id % 10 = 0 THEN 'not a date'
                         WHEN doc_id % 10 = 1 THEN ''
                         ELSE '2024-' || lpad(CAST(1 + doc_id % 12 AS VARCHAR), 2, '0')
                              || '-' || lpad(CAST(1 + doc_id % 28 AS VARCHAR), 2, '0')
                    END AS TIMESTAMP) AS pub_date,
           CAST(doc_id % 1000 AS SMALLINT) AS times_cited
    FROM documents
    """,
)
def schema_cast(sf_dir: str):
    """M17: declared-schema cast — pub_date to_datetime(errors='coerce')
    analog (null on garbage) + int16 downcast (KEY_TYPE_PAIRINGS,
    config.py:119-135)."""
    def build_and_cast(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        raw = [
            "not a date" if i % 10 == 0 else
            "" if i % 10 == 1 else
            f"2024-{1 + i % 12:02d}-{1 + i % 28:02d}"
            for i in ids
        ]
        parsed = pc.strptime(
            pa.array(raw, type=pa.string()), format="%Y-%m-%d", unit="us",
            error_is_null=True,
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "pub_date": parsed,
                "times_cited": pc.cast(pa.array(ids % 1000), pa.int16()),
            }
        )

    return _docs(sf_dir).map_batches(build_and_cast, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Lineage + checkpoint/resume (north_rule). Stateful across runs -> not
# SQL-expressible -> rows-only driver check; full interrupted-run semantics
# are asserted in tests/test_checkpoint.py.
# --------------------------------------------------------------------------


@register(
    "resumable_extract",
    oracle="""
    SELECT doc_id, text AS extracted_text FROM documents
    UNION ALL
    SELECT doc_id, text AS extracted_text FROM documents WHERE doc_id % 17 = 0
    """,
)
def resumable_extract(sf_dir: str):
    """Checkpointed extraction: synth page table -> run INTERRUPTED after
    1 of 3 waves -> resume -> read back the persisted output. The oracle
    states the complete corpus (each doc once, plus the dup_mod=17
    duplicate fetches — dedup off here), so a green hash proves the
    interrupted+resumed run persisted exactly the full result with no
    fragment lost or doubled. Manifest/lineage mechanics (fragment skip,
    content hashes, clear-on-retry) are asserted in tests/test_checkpoint."""
    import shutil
    import tempfile

    import ray.data

    from sciscraper_ray.pipelines.extract import extraction_pipeline
    from sciscraper_ray.sources.page_synth import synth_page_table
    from sciscraper_ray.state import CheckpointStore, run_resumable

    work = tempfile.mkdtemp(prefix="sciscraper_resume_")
    try:
        pages = synth_page_table(sf_dir, f"{work}/pages", num_files=8)

        def pipeline(ds):
            return extraction_pipeline(ds, dedup=False, analyze=False)

        out = f"{work}/out"
        run_resumable(pages, out, pipeline, wave_size=3, max_waves=1)
        run_resumable(pages, out, pipeline, wave_size=3)
        import os as _os

        n_frags = sum(
            1 for f in _os.listdir(pages) if f.endswith(".parquet")
        )
        assert len(CheckpointStore(out).completed()) == n_frags
        persisted = ray.data.read_parquet(
            CheckpointStore(out).data_dir, columns=["doc_id", "extracted_text"]
        )
        # final — materialize before the tempdir vanishes (finally: rmtree)
        return persisted.to_pandas()
    finally:
        shutil.rmtree(work, ignore_errors=True)




# ---------------------------------------------------------------------------
# CSV schema inference — the type-sniffing pass every lakehouse ingest
# runs over schemaless text files. Deterministic promotion lattice:
# bool < bigint < double < varchar per column over non-null cells
# (date is its own leaf; any mix with non-dates promotes to varchar);
# all-null columns infer 'null'. The fixture exercises every lattice
# edge; the oracle states the expected type per (doc case, column) from
# first principles.

_CSV_INT_RE = None  # compiled lazily per worker


def infer_csv_schema(blob: str) -> list[tuple[str, str, int]]:
    """``(column, inferred_type, n_nulls)`` per column of one
    header-bearing CSV blob (simple commas — quoting is
    csv_quoted_roundtrip's dedicated surface)."""
    import re as _re

    global _CSV_INT_RE
    if _CSV_INT_RE is None:
        _CSV_INT_RE = (
            _re.compile(r"^-?\d+$"),
            _re.compile(r"^-?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$"),
            _re.compile(r"^\d{4}-\d{2}-\d{2}$"),
            _re.compile(r"^(true|false)$", _re.IGNORECASE),
        )
    int_re, dbl_re, date_re, bool_re = _CSV_INT_RE
    lines = blob.strip("\n").split("\n")
    header = lines[0].split(",")
    cols: list[list[str]] = [[] for _ in header]
    for line in lines[1:]:
        for j, cell in enumerate(line.split(",")):
            cols[j].append(cell)
    out = []
    for name, cells in zip(header, cols):
        non_null = [c for c in cells if c != ""]
        n_nulls = len(cells) - len(non_null)
        if not non_null:
            out.append((name, "null", n_nulls))
            continue
        if all(bool_re.match(c) for c in non_null):
            typ = "boolean"
        elif all(int_re.match(c) for c in non_null):
            typ = "bigint"
        elif all(dbl_re.match(c) for c in non_null):
            typ = "double"
        elif all(date_re.match(c) for c in non_null):
            typ = "date"
        else:
            typ = "varchar"
        out.append((name, typ, n_nulls))
    return out


@register(
    "csv_schema_infer",
    oracle="""
    WITH cols(col_ord, col) AS (
        VALUES (0, 'c0'), (1, 'c1'), (2, 'c2'), (3, 'c3')
    )
    SELECT d.doc_id, c.col,
           CASE c.col_ord
               WHEN 0 THEN 'bigint'
               WHEN 1 THEN CASE d.doc_id % 3
                   WHEN 0 THEN 'date' WHEN 1 THEN 'double' ELSE 'boolean'
               END
               WHEN 2 THEN CASE WHEN d.doc_id % 4 = 0
                   THEN 'varchar' ELSE 'bigint' END
               ELSE 'null'
           END AS inferred_type,
           CAST(CASE c.col_ord
               WHEN 0 THEN CASE WHEN d.doc_id % 2 = 0 THEN 1 ELSE 0 END
               WHEN 3 THEN 5 ELSE 0
           END AS BIGINT) AS n_nulls
    FROM documents d CROSS JOIN cols c
    """,
)
def csv_schema_infer(sf_dir: str):
    """Type inference over messy schemaless CSVs: per doc a 5-row blob
    whose columns walk the promotion lattice — c0 ints with an empty
    (null) cell on even docs, c1 cycles date/double/boolean by %3 (the
    double case mixes plain ints with exponent floats, so an int-greedy
    sniffer that stops at the first row infers wrong), c2 is ints except
    one trailing string on %4 docs (the late-row varchar demotion the
    one-row-lookahead samplers miss), c3 all-null. Emits (doc_id, col,
    inferred_type, n_nulls); pure fused map stage."""

    def run(b: pa.Table) -> pa.Table:
        ids_, co_, ty_, nn_ = [], [], [], []
        for did in b["doc_id"].to_numpy(zero_copy_only=False):
            i = int(did)
            c0 = [str(10 * i + k) for k in range(5)]
            if i % 2 == 0:
                c0[3] = ""
            if i % 3 == 0:
                c1 = [f"2024-{1 + k:02d}-{(i % 27) + 1:02d}" for k in range(5)]
            elif i % 3 == 1:
                c1 = [str(i), f"{i}.5", f"{i}e3", "0.25", str(i + 1)]
            else:
                c1 = ["true", "FALSE", "True", "false", "TRUE"]
            c2 = [str(k - 2) for k in range(5)]
            if i % 4 == 0:
                c2[4] = f"x{i}"
            c3 = [""] * 5
            blob = "c0,c1,c2,c3\n" + "\n".join(
                ",".join(r) for r in zip(c0, c1, c2, c3)
            )
            for name, typ, nn in infer_csv_schema(blob):
                ids_.append(i)
                co_.append(name)
                ty_.append(typ)
                nn_.append(nn)
        return pa.table(
            {
                "doc_id": pa.array(ids_, pa.int64()),
                "col": pa.array(co_, pa.string()),
                "inferred_type": pa.array(ty_, pa.string()),
                "n_nulls": pa.array(nn_, pa.int64()),
            }
        )

    return _docs(sf_dir, columns=("doc_id",)).map_batches(
        run, batch_format="pyarrow"
    )


@register(
    "url_punycode_decode",
    oracle="""
    SELECT doc_id,
           CASE doc_id % 3 WHEN 0 THEN 'bücher' WHEN 1 THEN 'café'
                ELSE 'niño' END || CAST(doc_id AS VARCHAR)
               || '.example.org' AS unicode_host
    FROM documents
    """,
)
def url_punycode_decode(sf_dir: str):
    """IDN hostname normalization: decode xn-- (punycode, RFC 3492)
    labels back to unicode — crawl host tables carry ACE-encoded
    internationalized domains, and per-domain dedup / politeness /
    homograph checks all need the unicode form. Each xn-- label is
    decoded with Python's stdlib punycode codec and ASCII labels pass
    through; the fixture builds each doc's hostname by encoding a
    deterministic unicode label with the same codec, and the oracle
    states the expected unicode directly. Pure map stage, zero
    exchange."""

    def idn_to_unicode(host: str) -> str:
        return ".".join(
            lbl[4:].encode().decode("punycode") if lbl.startswith("xn--") else lbl
            for lbl in host.split(".")
        )

    bases = ("bücher", "café", "niño")

    def decode(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        hosts = []
        for i in ids:
            label = bases[int(i) % 3] + str(int(i))
            ace = "xn--" + label.encode("punycode").decode()
            hosts.append(idn_to_unicode(f"{ace}.example.org"))
        return pa.table(
            {
                "doc_id": pa.array(ids.astype(np.int64), pa.int64()),
                "unicode_host": pa.array(hosts, pa.string()),
            }
        )

    return _docs(sf_dir, columns=("doc_id",)).map_batches(
        decode, batch_format="pyarrow"
    )
