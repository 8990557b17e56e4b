"""Golden kernel tests.

The parametrized vectors are ported verbatim from the reference suite
(tests/test_wordscore.py, test_doiregex.py,
test_webscrapers.py:15-31, test_downloaders.py:87-108) — they pin the exact
per-document semantics before any distribution. Additional tests check the
vectorized Arrow/numpy forms against the scalar reference-parity forms.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sciscraper_ray.kernels import (
    calculate_likelihood,
    extract_identifier,
    find_parentheticals,
    format_download_link,
    format_manuscript,
    match_terms,
    search_field_for,
    tokenize_column,
    top_terms_exploded,
    wordscore_vec,
)
from sciscraper_ray.kernels.nested import clean_nested_values
from sciscraper_ray.words import REFERENCE_ROOT

REFERENCE_FIXTURES = REFERENCE_ROOT / "tests" / "test_dirs"
REFERENCE_PDF = str(REFERENCE_FIXTURES / "test_pdf_1.pdf")
# Reference fixtures copied byte for byte into the repo (FIXTURES.md §3).
COMMITTED_FIXTURES = Path(__file__).parent / "fixtures" / "reference"


def needs_reference_files(*paths):
    """Skip unless every file of the reference checkout that the test
    opens is present; the reason names the absent ones."""
    missing = [str(p) for p in paths if not Path(p).is_file()]
    return pytest.mark.skipif(
        bool(missing), reason="reference file absent: " + ", ".join(missing)
    )


@pytest.mark.parametrize(
    ("total_words", "match_words", "bycatch_words", "expected"),
    [
        (100, 20, 5, 0.5625),
        (1000, 500, 10, 0.7425),
        (0, 20, 5, 0.0),
        (100, -20, 5, 0.0),
        (100, 20, -5, 0.0),
        (100, 20, 80, 0.0),
        (100, 100, 0, 1.0),
        (100, 0, 0, 0.5),
        (1, 0, 0, 0.5),
    ],
)
def test_calculate_likelihood(total_words, match_words, bycatch_words, expected):
    assert calculate_likelihood(total_words, match_words, bycatch_words) == expected
    vec = wordscore_vec(
        np.array([total_words]), np.array([match_words]), np.array([bycatch_words])
    )
    assert vec[0] == expected


@given(
    st.integers(-5, 10_000), st.integers(-5, 10_000), st.integers(-5, 10_000)
)
@settings(max_examples=200)
def test_wordscore_vec_matches_scalar(t, d, u):
    assert wordscore_vec(np.array([t]), np.array([d]), np.array([u]))[0] == (
        calculate_likelihood(t, d, u)
    )


@pytest.mark.parametrize(
    ("identifier", "expected"),
    [
        ("10.1234/abc.123", "10.1234/abc.123"),
        ("10.1234/abc123", "10.1234/abc123"),
        ("https://doi.org/10.1234/abc.123", "10.1234/abc.123"),
        ("https://doi.org/10.1234/abc123", "10.1234/abc123"),
        ("https://doi.org/10.1234/123.456", "10.1234/123.456"),
        ("https://doi.org/10.1234/123456", "10.1234/123456"),
        ("1234.5678", "1234.5678"),
        ("arxiv:1234.5678v1", "1234.5678"),
        ("arxiv:1234.5678", "1234.5678"),
        ("arxiv:1234.5678.pdf", "1234.5678"),
        ("arxiv:1234.5678v123", "1234.5678"),
        ("arxiv:1234.5678v123.pdf", "1234.5678"),
        ("1234.5678v123.pdf", "1234.5678"),
        ("https://arxiv.org/abs/1234.5678", None),
        ("https://arxiv.org/abs/1234.5678v1", None),
        ("https://arxiv.org/abs/1234.5678.pdf", "1234.5678"),
        ("https://arxiv.org/abs/1234.5678v123", None),
        ("https://arxiv.org/abs/1234.5678v123.pdf", "1234.5678"),
    ],
)
def test_extract_identifier(identifier, expected):
    assert extract_identifier(identifier) == expected


@pytest.mark.parametrize(
    ("search_input", "expected"),
    [
        ("10.1000/182", "doi"),
        ("apples", "text_search"),
        ("10.1000/185", "doi"),
        ("Don Quixote", "text_search"),
        ("12.1050/100", "text_search"),
        ("100.000", "text_search"),
    ],
)
def test_search_field(search_input, expected):
    assert search_field_for(search_input) == expected


@pytest.mark.parametrize(
    ("download_link", "expected"),
    [
        (
            "location.href='/downloads/2022-11-06/46/li2022.pdf?download=true",
            "https://sci-hub.se/downloads/2022-11-06/46/li2022.pdf?download=true",
        ),
        (
            "location.href='//zero.sci-hub.se/7011/f4d76a25ca2ccd9ff38f46fd75b0b3bf/wang2017.pdf?download=true",
            "https://zero.sci-hub.se/7011/f4d76a25ca2ccd9ff38f46fd75b0b3bf/wang2017.pdf?download=true",
        ),
        (
            "location.href='/downloads/2020-01-28/9e/10.1016@B978-0-12-849867-5.00001-X.pdf?download=true",
            "https://sci-hub.se/downloads/2020-01-28/9e/10.1016@B978-0-12-849867-5.00001-X.pdf?download=true",
        ),
        (None, None),
        ("no match here", None),
    ],
)
def test_format_download_link(download_link, expected):
    assert format_download_link(download_link) == expected


def test_tokenizer_single_space_quirk():
    # Runs of whitespace yield empty tokens; newlines are NOT split points.
    assert format_manuscript("  A  b c\nd ") == ["a", "", "b", "c\nd"]
    col = tokenize_column(pa.array(["  A  b c\nd ", "x y", None]))
    assert col.to_pylist() == [["a", "", "b", "c\nd"], ["x", "y"], None]


_TOKENIZE_TEXTS = ["  A  b c\nd ", None, "", "x y", "   ", "Ünï  CÖDÉ"]


@pytest.mark.parametrize(
    "column",
    [
        pa.array(_TOKENIZE_TEXTS, pa.string()),
        pa.chunked_array([_TOKENIZE_TEXTS], pa.string()),
        pa.chunked_array(
            [[], _TOKENIZE_TEXTS[:2], [], _TOKENIZE_TEXTS[2:], []], pa.string()
        ),
        pa.chunked_array([], pa.string()),
    ],
    ids=["array", "one_chunk", "multi_chunk", "zero_chunks"],
)
def test_tokenize_column_always_chunked(column):
    # One return type for every input shape: callers write
    # tokenize_column(x).combine_chunks() when they need one ListArray.
    tokens = tokenize_column(column)
    assert isinstance(tokens, pa.ChunkedArray)
    texts = column.to_pylist()
    got = tokens.combine_chunks().to_pylist()
    assert got == [None if t is None else format_manuscript(t) for t in texts]


def test_md5_kernels_match_hexdigest():
    import hashlib

    from sciscraper_ray.kernels.md5 import md5_hash128, md5_hex, md5_hex15

    texts = ["", "a", "bücher日本", "x" * 1000]
    hexes = [hashlib.md5(t.encode()).hexdigest() for t in texts]
    assert md5_hex15(texts).tolist() == [int(h[:15], 16) for h in hexes]
    hi, lo, valid = md5_hash128(texts + [None, b"\0raw"])
    raw = hashlib.md5(b"\0raw").hexdigest()
    assert hi.tolist() == [int(h[:16], 16) - 2**63 for h in hexes + ["0" * 32, raw]]
    assert lo.tolist() == [int(h[16:], 16) - 2**63 for h in hexes + ["0" * 32, raw]]
    assert valid.tolist() == [True] * 4 + [False, True]
    assert md5_hex(texts + [None]).to_pylist() == hexes + [None]


def test_match_terms_reference_example():
    # Docstring example from docscraper.py:55-94.
    words = ["a", "a", "b", "c", "d", "d", "d", "d", "c", "a", "f", "f", "f", "g", "d"]
    count, dist = match_terms(words, {"a", "b", "f"})
    assert dist == [("a", 3), ("f", 3), ("b", 1)]
    assert count == 7


def test_top_terms_exploded_matches_counter():
    docs = [
        ["a", "a", "b", "c", "d", "d", "d", "d", "c", "a", "f", "f", "f", "g", "d"],
        [],
        ["z", "z"],
        ["b", "f", "a", "b", "f", "a"],  # all ties -> first-occurrence order
        None,
    ]
    word_set = frozenset({"a", "b", "f"})
    arr = pa.array(docs, type=pa.list_(pa.string()))
    out = top_terms_exploded(arr, word_set)
    per_doc = {}
    for p, t, c, r in zip(out["parent"], out["token"], out["count"], out["rank"]):
        per_doc.setdefault(p, []).append((t, c, r))
    assert per_doc[0] == [("a", 3, 1), ("f", 3, 2), ("b", 1, 3)]
    assert 1 not in per_doc and 2 not in per_doc
    assert per_doc[3] == [("b", 2, 1), ("f", 2, 2), ("a", 2, 3)]
    assert out["term_count"].tolist() == [7, 0, 0, 6, 0]


def _assert_counter_parity(docs, arr, word_set):
    """``top_terms_exploded(arr)`` equals ``match_terms`` on every doc of
    ``docs`` (a None doc counts as no tokens), and the Arrow ``vocab`` /
    ``token_id`` outputs name the same tokens as ``token``."""
    out = top_terms_exploded(arr, word_set)
    per_doc: dict[int, list] = {}
    for p, t, c in zip(out["parent"], out["token"], out["count"]):
        per_doc.setdefault(int(p), []).append((t, int(c)))
    for i, doc in enumerate(docs):
        count, dist = match_terms(doc or [], word_set)
        assert per_doc.get(i, []) == dist
        assert out["term_count"][i] == count
    assert len(out["term_count"]) == len(docs)
    assert out["vocab"].take(pa.array(out["token_id"])).to_pylist() == list(out["token"])
    assert [r for _, r in sorted(zip(out["parent"], out["rank"]))] == [
        r for d in sorted(per_doc) for r in range(1, len(per_doc[d]) + 1)
    ]


# Tokens that are "", unicode, or prefixes of one another (the tokenizer
# emits "" for every run of spaces).
_TOKENS = ["a", "b", "c", "d", "e", "", "ab", "abc", "é", "éé", "ß", "日本", "x y"]
_WORD_SETS = [
    frozenset({"a", "b", "c", "d"}),
    frozenset({"", "a", "ab", "é", "日本"}),
    frozenset({"abc", "éé", "x y", "ß"}),
    frozenset({"zzz", "not-a-token"}),  # none of the documents' tokens
    frozenset(),
]


@given(
    st.lists(
        st.one_of(st.none(), st.lists(st.sampled_from(_TOKENS), max_size=30)),
        max_size=20,
    ),
    st.sampled_from(_WORD_SETS),
    st.sampled_from([pa.list_(pa.string()), pa.list_(pa.large_string()),
                     pa.large_list(pa.large_string())]),
    st.integers(0, 3),
    st.integers(1, 4),
)
@settings(max_examples=200, deadline=None)
def test_top_terms_exploded_property(docs, word_set, list_type, lead, n_chunks):
    """Counter parity over string and large_string token lists, sliced
    (offset != 0) and chunked inputs."""
    padded = [["a", "b"]] * lead + docs
    arr = pa.array(padded, type=list_type)
    _assert_counter_parity(padded, arr, word_set)
    _assert_counter_parity(docs, arr.slice(lead), word_set)
    bounds = np.linspace(0, len(docs), n_chunks + 1).astype(int)
    sliced = arr.slice(lead)
    chunked = pa.chunked_array(
        [sliced.slice(lo, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:])],
        type=list_type,
    )
    _assert_counter_parity(docs, chunked, word_set)


def test_top_terms_exploded_null_slot_over_values():
    """A null list slot may cover child values; they belong to no document."""
    values = pa.array(["a", "a", "b", "b", "b", "a", "c"])
    offsets = pa.array([0, 2, 5, 7], pa.int32())
    arr = pa.ListArray.from_arrays(offsets, values, mask=pa.array([False, True, False]))
    _assert_counter_parity([["a", "a"], None, ["a", "c"]], arr, frozenset({"a", "b"}))


def test_parentheticals_greedy():
    text = "result (p = .05) and also (n=10) end"
    # Greedy .* -> ONE span covering both parens on the same line.
    assert find_parentheticals(text) == ["(p = .05) and also (n=10)"]
    assert find_parentheticals("line1 (a=1)\nline2 (b=2)") == ["(a=1)", "(b=2)"]
    assert find_parentheticals("nothing here") == []


def test_clean_nested_values_reorder():
    vals = ["plain1", "{'doi': '10.1/x'}", "plain2", "{'other': 1}"]
    # Plain rows first, then unwrapped nested rows (serials.py:66-86).
    assert clean_nested_values(vals, "doi") == ["plain1", "plain2", "10.1/x", ""]


@needs_reference_files(
    REFERENCE_ROOT / "words" / "target_words.txt",
    REFERENCE_ROOT / "words" / "bycatch_words.txt",
)
def test_reference_word_lists_parity(ray_session):
    """M4/M5 on the PRODUCTION vocabulary: DocAnalyzer with the reference's
    real word files (load_word_file = strip().lower per line,
    docscraper.py:110-127) must agree with a literal transliteration of
    the reference's Counter/most_common/wordscore logic."""
    from collections import Counter

    import pyarrow as pa

    import ray.data
    from sciscraper_ray.kernels.tokenize import format_manuscript
    from sciscraper_ray.stages.doc_analyzer import DocAnalyzer
    from sciscraper_ray.words import load_word_file

    tgt = load_word_file(str(REFERENCE_ROOT / "words" / "target_words.txt"))
    byc = load_word_file(str(REFERENCE_ROOT / "words" / "bycatch_words.txt"))
    assert len(tgt) >= 300 and len(byc) >= 100  # the real lists, not stubs

    vocab = sorted(w for w in (tgt | byc) if w and " " not in w)
    texts = [
        " ".join(vocab[(i * 7 + j * 13) % len(vocab)] for j in range(50))
        + " some unmatched tail words"
        for i in range(40)
    ]
    ds = ray.data.from_arrow(
        pa.table({"doc_id": list(range(40)), "text": texts})
    )
    got = (
        ds.map_batches(
            DocAnalyzer,
            fn_constructor_kwargs={"target_words": tgt, "bycatch_words": byc},
            batch_format="pyarrow",
            concurrency=2,
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

    # reference transliteration (docscraper.py:55-94, 208-244)
    def match_terms(tokens, words):
        freq = Counter(w for w in tokens if w in words)
        top3 = freq.most_common(3)
        return sum(c for _, c in top3), top3

    for i, text in enumerate(texts):
        tokens = format_manuscript(text)
        t_cnt, t_top = match_terms(tokens, tgt)
        b_cnt, _ = match_terms(tokens, byc)
        total = len(tokens)
        score = (t_cnt * 1.0 + b_cnt * -0.25 + (total - t_cnt - b_cnt) * 0.5) / total
        score = max(0.0, min(1.0, score))
        row = got.iloc[i]
        assert row["matching_terms"] == t_cnt
        assert row["bycatch_terms"] == b_cnt
        assert row["total_word_count"] == total
        assert abs(row["wordscore"] - score) < 1e-12
        got_top = [(d["token"], d["count"]) for d in row["target_terms_top_3"]]
        assert got_top == t_top  # Counter insertion-order tie-break


@needs_reference_files(REFERENCE_PDF)
def test_reference_real_pdf_fixture_end_to_end():
    """The reference's own pytest PDF fixture (a real Adobe-produced
    journal article, tests/conftest.py:36) through the from-scratch
    parser: /Info parses to pdfplumber's pdf.metadata shape, the
    metadata and pdf-info probes correctly find nothing (no doi/arxiv
    keys; the last Info value is the Title, which carries no
    identifier — the reference's last-value-wins quirk), and the chain
    falls through to body text, where pattern-priority (doi:-prefixed
    beats bare 10.x) picks the citation DOI — faithful to
    doifrompdf.py's chain order on real-world input."""
    from sciscraper_ray.kernels.identifiers import (
        extract_identifier,
        find_identifier_in_metadata,
        find_identifier_in_pdf_info,
    )
    from sciscraper_ray.stages.pdf_parse import (
        extract_pdf_info,
        extract_pdf_text,
    )

    data = open(REFERENCE_PDF, "rb").read()
    info = extract_pdf_info(data)
    assert info["Title"] == (
        "Implicit Bias Is Behavior: "
        "A Functional-Cognitive Perspective on Implicit Bias"
    )
    assert info["Author"] == "Jan De Houwer"
    assert info["Keywords"] == "implicit bias,functional psychology,racism"
    assert find_identifier_in_metadata(info) is None
    assert find_identifier_in_pdf_info(info) is None

    text, n_streams = extract_pdf_text(data)
    assert len(text) > 20_000  # full body text, not a fragment
    assert "10.1177/1745691619855638" in text  # the article's own DOI
    # pattern priority: the doi:-prefixed citation outranks bare 10.x
    assert extract_identifier(text) == "10.1017/s0140525x17002266"


@needs_reference_files(REFERENCE_FIXTURES / "test_file_multiline.txt")
def test_reference_txt_fixture_serializer_parity(ray_session):
    """serialize_from_txt (serials.py:14-23) on the reference's REAL
    multiline fixture: every raw line through strip().lower(), blank
    lines preserved as '' — matched exactly by read_text(
    drop_empty_lines=False) + the vectorized normalize."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    path = str(REFERENCE_FIXTURES / "test_file_multiline.txt")
    with open(path, encoding="utf-8") as f:
        expected = [w.strip().lower() for w in f]

    got = (
        ray.data.read_text(path, drop_empty_lines=False)
        .map_batches(
            lambda b: pa.table(
                {"term": pc.utf8_lower(pc.utf8_trim_whitespace(b["text"]))}
            ),
            batch_format="pyarrow",
        )
        .to_pandas()["term"]
        .tolist()
    )
    assert got == expected
    assert "" in got  # the fixture's blank lines survive serialization


@needs_reference_files(REFERENCE_FIXTURES / "test_example_file_1.csv")
def test_reference_csv_fixture_serializer_parity(ray_session):
    """serialize_from_csv (serials.py:26-43) on the reference's REAL
    example CSV: distributed read_csv parses the quoted/comma-laden
    cells exactly, fillna('N/A') fires on the empty cells, and the M14
    unwrap applies the plain-rows-first reorder quirk to the
    dict-literal authors cell."""
    import pyarrow as pa

    import ray.data

    from sciscraper_ray.kernels.nested import clean_nested_values, fill_na

    path = str(REFERENCE_FIXTURES / "test_example_file_1.csv")
    rows = ray.data.read_csv(path).to_pandas()

    doi = clean_nested_values(
        fill_na(pa.array(rows["doi"].tolist(), pa.string())).to_pylist(),
        "doi",
    )
    assert doi == [
        "10.1000/12345", "10.1000/23456", "10.1000/34567", "pub.12345",
    ]

    authors = clean_nested_values(
        fill_na(pa.array(rows["authors"].tolist(), pa.string())).to_pylist(),
        "authors",
    )
    # plain rows first (reference reorder quirk), then the dict-literal
    # cell unwrapped to its ['authors'] value
    assert authors == [
        "Darius Lettsgetham", "Anne Elon-Ux", "Jujubee", "I. Ron Butterfly",
    ]

    # the quoted title with embedded commas survives CSV parsing intact
    assert (
        rows["title"].iloc[3]
        == "Memoirs of a Gaysha, Jujubee's Journey, I'm Still Here"
    )

    # empty numeric cells arrive null and fillna replaces them
    import pandas as pd

    tc = pa.array(
        [None if pd.isna(v) else str(v) for v in rows["times_cited"]],
        pa.string(),
    )
    assert fill_na(tc).to_pylist().count("N/A") == 2


def test_reference_blank_txt_fixture(ray_session):
    """serialize_from_txt of the reference's zero-byte fixture is [] —
    the distributed reader must agree (no phantom empty row). Runs on the
    committed copy, and on the checkout's own file where it exists."""
    import ray.data

    paths = [COMMITTED_FIXTURES / "test_file_blank.txt"]
    if (REFERENCE_FIXTURES / "test_file_blank.txt").is_file():
        paths.append(REFERENCE_FIXTURES / "test_file_blank.txt")
    for path in map(str, paths):
        with open(path, encoding="utf-8") as f:
            assert [w.strip().lower() for w in f] == []
        got = ray.data.read_text(path, drop_empty_lines=False).take_all()
        assert got == []


def test_doc_analyzer_identifier_overlay():
    """DocAnalyzer's doi column: a metadata identifier mined upstream wins,
    the text chain fills the rest, null text gives nulls; an all-null
    metadata batch only drops the metadata columns."""
    from sciscraper_ray.kernels.identifiers import extract_identifier, identifier_kind
    from sciscraper_ray.stages.doc_analyzer import DocAnalyzer

    texts = ["see doi:10.1234/abc.1 here", "arxiv:2345.67890v2 x", None,
             "no id (p = .05)", "doi:10.9999/zz.9 again"]
    meta = [None, "10.5555/meta.1", "10.5555/meta.2", None, None]
    meta_kind = [None, "doi", "pdf2doi_identifier", None, None]
    want_ids, want_kinds = [], []
    for t, m, mk in zip(texts, meta, meta_kind):
        ident = extract_identifier(t) if t is not None else None
        kind = identifier_kind(t) if ident is not None else None
        want_ids.append(m if m is not None else ident)
        want_kinds.append(mk if m is not None else kind)
    assert want_ids[0] is not None and want_ids[1] == "10.5555/meta.1"

    analyzer = DocAnalyzer(with_identifiers=True)
    batch = pa.table(
        {
            "text": pa.array(texts, pa.string()),
            "meta_identifier": pa.array(meta, pa.string()),
            "meta_identifier_type": pa.array(meta_kind, pa.string()),
        }
    )
    out = analyzer(batch)
    assert "meta_identifier" not in out.column_names
    assert out["doi"].to_pylist() == want_ids
    assert out["identifier_type"].to_pylist() == want_kinds
    assert out.schema.field("doi").type == pa.string()
    assert out["paper_parentheticals"].to_pylist()[3] == ["(p = .05)"]

    no_meta = batch.set_column(1, "meta_identifier", pa.nulls(5, pa.string()))
    out = analyzer(no_meta)
    assert "meta_identifier_type" not in out.column_names
    assert out["doi"].to_pylist() == [
        extract_identifier(t) if t is not None else None for t in texts
    ]
