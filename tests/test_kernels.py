"""Golden kernel tests.

The parametrized vectors are ported verbatim from the reference suite
(tests/test_wordscore.py, test_doiregex.py,
test_webscrapers.py:15-31, test_downloaders.py:87-108) — they pin the exact
per-document semantics before any distribution. Additional tests check the
vectorized Arrow/numpy forms against the scalar reference-parity forms.
"""

from __future__ import annotations

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


@given(
    st.lists(
        st.lists(st.sampled_from("abcdefgh"), max_size=30),
        max_size=20,
    )
)
@settings(max_examples=100)
def test_top_terms_exploded_property(docs):
    word_set = frozenset({"a", "b", "c", "d"})
    arr = pa.array(docs, type=pa.list_(pa.string()))
    out = top_terms_exploded(arr, word_set)
    per_doc: dict[int, list] = {}
    for p, t, c in zip(out["parent"], out["token"], out["count"]):
        per_doc.setdefault(int(p), []).append((t, int(c)))
    for i, doc in enumerate(docs):
        count, dist = match_terms(doc, word_set)
        assert per_doc.get(i, []) == dist
        assert out["term_count"][i] == count


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


REFERENCE_FIXTURES = REFERENCE_ROOT / "tests" / "test_dirs"
REFERENCE_PDF = str(REFERENCE_FIXTURES / "test_pdf_1.pdf")


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
    the distributed reader must agree (no phantom empty row)."""
    import ray.data

    path = str(REFERENCE_FIXTURES / "test_file_blank.txt")
    with open(path, encoding="utf-8") as f:
        assert [w.strip().lower() for w in f] == []
    got = ray.data.read_text(path, drop_empty_lines=False).take_all()
    assert got == []
