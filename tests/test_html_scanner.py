"""Differential test of the HTML block scanner against stdlib html.parser.

``stages/html_extract._scan_blocks`` reproduces the events stdlib
``HTMLParser(convert_charrefs=True)`` delivers to the block handlers. The
oracle below is those handlers as an ``HTMLParser`` subclass (the
extractor's implementation before the scanner); the extractor itself no
longer imports ``html.parser``. Both sides must give the same blocks and
containers, or raise the same exception type, on synthetic pages, every
HTML string in the test suite, the damage-matrix pages and hostile markup.
A divergence is fixed in the scanner, never in the oracle.
"""

from __future__ import annotations

import ast
import pathlib
import random
import re
import time
from html.parser import HTMLParser
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sciscraper_ray.pipelines.queries.extraction import damage_page
from sciscraper_ray.sources.page_synth import render_html
from sciscraper_ray.stages import html_extract
from sciscraper_ray.stages.html_extract import (
    BLOCK_TAGS,
    CONTAINER_TAGS,
    NEGATIVE_CONTAINER_TAGS,
    SKIP_CONTENT_TAGS,
    _scan_blocks,
    extract_main_content,
)


class _OracleParser(HTMLParser):
    """Collect (text, link_chars, container_id) per block-level segment."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.blocks: list[tuple[str, int, int]] = []
        self._buf: list[str] = []
        self._link_chars = 0
        self._skip_depth = 0
        self._in_link = 0
        self._containers: list[int] = [0]  # innermost-last; 0 = implicit body
        self.container_tags: dict[int, str] = {0: "body"}
        # boilerplate-ness INHERITS: a <ul> inside <nav> is still nav chrome
        self.container_neg: dict[int, bool] = {0: False}
        self._next_container = 1

    def _flush(self) -> None:
        text = "".join(self._buf).strip()
        if text:
            self.blocks.append((text, self._link_chars, self._containers[-1]))
        self._buf = []
        self._link_chars = 0

    def handle_starttag(self, tag, attrs):
        if tag in SKIP_CONTENT_TAGS:
            self._skip_depth += 1
            return
        if tag in BLOCK_TAGS:
            self._flush()
        if tag in CONTAINER_TAGS:
            parent_neg = self.container_neg[self._containers[-1]]
            self.container_tags[self._next_container] = tag
            self.container_neg[self._next_container] = (
                parent_neg or tag in NEGATIVE_CONTAINER_TAGS
            )
            self._containers.append(self._next_container)
            self._next_container += 1
        if tag == "a":
            self._in_link += 1

    def handle_endtag(self, tag):
        if tag in SKIP_CONTENT_TAGS:
            self._skip_depth = max(0, self._skip_depth - 1)
            return
        if tag in BLOCK_TAGS:
            self._flush()
        if tag in CONTAINER_TAGS and len(self._containers) > 1:
            self._containers.pop()
        if tag == "a":
            self._in_link = max(0, self._in_link - 1)

    def handle_data(self, data):
        if self._skip_depth:
            return
        self._buf.append(data)
        if self._in_link:
            self._link_chars += len(data)


def _oracle_scan(html: str):
    parser = _OracleParser()
    parser.feed(html)
    parser.close()
    return parser.blocks, parser.container_tags, parser.container_neg


def _outcome(fn, html: str):
    try:
        return fn(html)
    except Exception as exc:  # noqa: BLE001 — compared by type
        return type(exc)


def _oracle_extract(html: str):
    with mock.patch.object(html_extract, "_scan_blocks", _oracle_scan):
        return extract_main_content(html)


def assert_matches_oracle(html: str) -> None:
    want = _outcome(_oracle_scan, html)
    assert _outcome(_scan_blocks, html) == want, html
    if not isinstance(want, type):
        assert extract_main_content(html) == _oracle_extract(html), html


def _words(rng: random.Random, n: int) -> str:
    alphabet = "abcdefghijxyz0123456789&<>\"'é€—"
    return " ".join(
        "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 9)))
        for _ in range(n)
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("with_links", [False, True])
def test_page_synth_pages_match_oracle(seed, with_links):
    rng = random.Random(seed)
    for doc_id in range(seed * 1000, seed * 1000 + 25):
        text = _words(rng, rng.randint(1, 130))
        page = render_html(doc_id, text, "en", with_links=with_links).decode()
        assert_matches_oracle(page)


def test_damage_matrix_pages_match_oracle():
    rng = random.Random(7)
    for doc_id in range(50):
        page = render_html(doc_id, _words(rng, rng.randint(1, 90)), "en")
        assert_matches_oracle(damage_page(doc_id, page).decode("utf-8"))


def _fixture_strings() -> list[str]:
    """Every string or bytes literal in the test suite that holds markup."""
    markup = re.compile(r"<[a-zA-Z/!?]")
    found = set()
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Constant):
                continue
            value = node.value
            if isinstance(value, bytes):
                value = value.decode("utf-8", errors="replace")
            if isinstance(value, str) and markup.search(value):
                found.add(value)
    return sorted(found)


def test_fixture_strings_match_oracle():
    fixtures = _fixture_strings()
    assert len(fixtures) > 50
    for html in fixtures:
        assert_matches_oracle(html)


HOSTILE_ATOMS = [
    # unterminated or odd markup declarations
    "<!--", "-->", "--!>", "<!-- c -->", "<!", "<!x>", "<!x", "<!DOCTYPE html>",
    "<!doctype", "<?", "<?xml v?>", "<![if x]>", "<![endif]>", "<![if ",
    "<![bogus", "<![bogus x]>", "<![CDATA[x]]>", "<![ ", "]]>", "]>",
    # start tags, plain and not
    "<p>", "<P>", "<DIV CLASS=main>", "<div>", "<article>", "<nav>",
    "<section id='s'>", "<ul>", "<li>", "<a href=\"/x\">", "<a href='x>y'>",
    "<a href=\"x>y\">", "<a b=c/>", "<a b=\"c\"/>", "<a b/>", "<p =x>",
    "<a b=c=d>", "<a b= >", "<a / >", "<a/b>", "<img src=x/ >", "<br/>",
    "<br>", "<svg/>", "<a b=\"c\"d=\"e\">", "<a\vb>", "<p\x00>", "<a b", "<a",
    "<a b=\"", "<a b='", "<h1 data-x=1>", "<form>", "<td nowrap>",
    "<b&amp;\x00", "<i`x", "\x00",
    # end tags
    "</p>", "</P >", "</ div>", "</p x>", "</div>", "</article>", "</nav>",
    "</a>", "</A>", "</>", "</", "</ >", "</1>", "</section\n>", "</ul>",
    # raw text and skipped elements
    "<script>", "</script>", "</scr", "</SCRIPT >", "<style>", "</style >",
    "<title>", "</title>", "<noscript>", "</noscript>", "<template>",
    # text, entities and separators
    "lorem ipsum dolor sit amet", " consectetur adipiscing elit sed do ",
    "<", ">", "a < b", "&", "&amp;", "&amp", "&#x4", "&#", "&#65;", "&lt",
    "&ampx", "&nbsp;", "\"", "'", "=", "/", "`", " ", "\n", "\t", "\xa0",
    "\x0b", "é",
]

_hostile = st.lists(st.sampled_from(HOSTILE_ATOMS), max_size=40).map("".join)


@settings(max_examples=400, deadline=None)
@given(html=_hostile)
def test_hostile_markup_matches_oracle(html):
    assert_matches_oracle(html)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_atom_concatenations_match_oracle(seed):
    rng = random.Random(seed)
    for _ in range(1500):
        atoms = rng.choices(HOSTILE_ATOMS, k=rng.randint(1, 60))
        assert_matches_oracle("".join(atoms))


def test_regression_unquoted_value_before_slash_is_a_start_tag():
    """stdlib reads ``<a b=c/>`` as a start tag whose value is ``c/``: the
    link stays open, so the text after it counts as link text."""
    page = "<p><a b=c/>some link text that goes on</p>"
    assert_matches_oracle(page)
    blocks, _, _ = _scan_blocks(page)
    assert blocks == [("some link text that goes on", 27, 0)]


def test_regression_bogus_marked_section():
    """``<![bogus`` at end of input is unterminated text; with more input
    after the keyword, stdlib raises AssertionError."""
    for page in ("<p>text<![bogus", "<![bogus", "<p>x<![bogus"):
        assert_matches_oracle(page)
    assert _outcome(_scan_blocks, "<p>x<![bogus x]>") is AssertionError
    assert_matches_oracle("<p>x<![bogus x]>")


def test_unterminated_raw_text_drops_the_rest():
    page = "<p>kept text here</p><script>var a = '</scr' + 'ipt>';<p>lost</p>"
    assert_matches_oracle(page)
    assert extract_main_content(page)[0] == "kept text here"


@pytest.mark.parametrize("unit", ["<!--", "<?", "</x ", "<!x", "<!doctype", "<![if "])
def test_unterminated_constructs_scan_in_linear_time(unit):
    """Each repeat searches for a closer that is not there; failed searches
    are remembered, so 200 KB scans far below a second (stdlib takes ~30 s
    on the comment case)."""
    big = "<p>" + unit * (200_000 // len(unit))
    t0 = time.perf_counter()
    got = _scan_blocks(big)
    assert time.perf_counter() - t0 < 1.0
    small = "<p>" + unit * (20_000 // len(unit))
    assert_matches_oracle(small)
    assert got == _scan_blocks(small) == ([], {0: "body"}, {0: False})


def test_extractor_does_not_import_html_parser():
    tree = ast.parse(pathlib.Path(html_extract.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    } | {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    }
    assert not any(name.startswith("html.parser") for name in imported)
    assert "_markupbase" not in imported
