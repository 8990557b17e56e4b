"""HTML main-content extractor — readability/text-density boilerplate
stripping, the HTML route of ``PayloadExtractor`` (pipelines/extract.py).

The reference has no HTML stripper (its DOM use is CSS-select scraping,
webscrapers.py:163-183); the north-star requires one for the page table's
``html`` rows. From-scratch implementation (selectolax/bs4/lxml are not
available), using the Arc90-readability / Kohlschütter-boilerplate signals:

1. segment the DOM into text blocks at block-level tags, tracking each
   block's innermost CONTAINER element (article/section/div/nav/...);
2. score blocks by length and link density (short or link-dominated
   blocks score 0 — nav bars, sidebars, footers);
3. pick the top-scoring container (the "top candidate") and emit ALL its
   blocks in document order — short trailing paragraphs of the winning
   container survive, boilerplate containers are dropped wholesale;
4. emit the concatenated text plus per-block span offsets into it.

Step 1 is ``_scan_blocks``, one loop that reproduces the events stdlib
``html.parser.HTMLParser(convert_charrefs=True)`` delivers for a whole
document (``feed`` then ``close``), with the block handlers inlined and
without the work they never use (attribute lists, attribute unescaping,
line/column tracking). It has two paths:

- fast path: one compiled regex (``_TAG``) finds the next ``<`` and, in
  the same match, reads a plain end tag ``</name>`` or a plain start tag
  (ASCII attribute names, quoted values without ``<``/``>``, possessive
  unquoted values, optional ``/>``); data between tags is unescaped only
  when it contains ``&``;
- general path: any other ``<`` goes to ``_markup``, which applies the
  stdlib parser's own regexes and rules — tolerant start tags, end-tag
  fallbacks, comments, processing instructions, declarations, marked
  sections (and their ``AssertionError`` on an unknown keyword), a lone
  ``<``, and the end-of-input handling of unterminated constructs.

``script``/``style`` raw text is skipped to its ``</tag>``; unterminated
raw text drops the rest of the page, as stdlib does. Searches that fail
are remembered per document, so unterminated comments and tags cost
linear time. ``tests/test_html_scanner.py`` is the fidelity contract: it
runs the old ``HTMLParser`` subclass as an oracle against the scanner on
synthetic pages, the test fixtures, damaged pages and hostile markup.
"""

from __future__ import annotations

import re
from html import unescape

BLOCK_TAGS = frozenset(
    "p div article section main li ul ol nav footer header aside h1 h2 h3 h4 h5 h6 "
    "table tr td th blockquote pre br form".split()
)
CONTAINER_TAGS = frozenset(
    "body article section main div aside nav footer header ul ol table blockquote form".split()
)
SKIP_CONTENT_TAGS = frozenset(
    {"script", "style", "noscript", "template", "svg", "title"}
)

MIN_BLOCK_CHARS = 20
MAX_LINK_DENSITY = 0.33
NEGATIVE_CONTAINER_TAGS = frozenset({"nav", "footer", "aside", "header", "form"})


# The stdlib parser's grammar (Lib/html/parser.py, Lib/_markupbase.py),
# copied unchanged for the general path.
_STARTTAGOPEN = re.compile("<[a-zA-Z]")
_TAGFIND = re.compile(r"([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*")
_ATTRFIND = re.compile(
    r"((?<=[\'\"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*"
    r"(\'[^\']*\'|\"[^\"]*\"|(?![\'\"])[^>\s]*))?(?:\s|/(?!>))*"
)
_LOCATESTARTTAGEND = re.compile(r"""
  <[a-zA-Z][^\t\n\r\f />\x00]*       # tag name
  (?:[\s/]*                          # optional whitespace before attribute name
    (?:(?<=['"\s/])[^\s/>][^\s/=>]*  # attribute name
      (?:\s*=+\s*                    # value indicator
        (?:'[^']*'                   # LITA-enclosed value
          |"[^"]*"                   # LIT-enclosed value
          |(?!['"])[^>\s]*           # bare value
         )
        \s*                          # possibly followed by a space
       )?(?:\s|/(?!>))*
     )*
   )?
  \s*                                # trailing whitespace
""", re.VERBOSE)
_ENDTAGFIND = re.compile(r"</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>")
_COMMENTCLOSE = re.compile(r"--\s*>")
_DECLNAME = re.compile(r"[a-zA-Z][-_.a-zA-Z0-9]*\s*")
_MARKEDSECTIONCLOSE = re.compile(r"]\s*]\s*>")
_MSMARKEDSECTIONCLOSE = re.compile(r"]\s*>")

# Fast path: the next "<", plus (when it is one) a plain end tag (group 1)
# or a plain start tag (group 2; group 3 is the "/" of "/>"). Every tag it
# reads, stdlib reads as the same tag with the same end; anything else
# leaves the groups empty for the general path. An unquoted value takes
# "/" (possessively), so "<a b=c/>" stays a start tag with value "c/", as
# in stdlib.
_TAG = re.compile(
    r"""<(?:
      /\s*([a-zA-Z][-.a-zA-Z0-9:_]*+)\s*>
    | ([a-zA-Z][-.a-zA-Z0-9:_]*+)
      (?:[ \t\n\r\f]++[a-zA-Z_:][-.a-zA-Z0-9:_]*+
        (?:[ \t\n\r\f]*+=[ \t\n\r\f]*+
          (?:"[^"<>]*+"|'[^'<>]*+'|[^\s"'<>=`]++))?
      )*+
      [ \t\n\r\f]*+(/?)>
    )?""",
    re.VERBOSE,
)
_RAWTEXT_CLOSE = {
    tag: re.compile(r"</\s*%s\s*>" % tag, re.IGNORECASE)
    for tag in ("script", "style")
}

# event kinds of the general path
_NONE, _DATA, _START, _STARTEND, _END = range(5)


def _search(pattern: re.Pattern, html: str, pos: int, fails: dict):
    """``pattern.search(html, pos)``, remembering the least position a
    search failed from. The patterns passed here have no anchors or
    lookarounds, so a search that fails from p fails from every later
    position: repeated unterminated constructs stay linear."""
    if pos >= fails.get(pattern, len(html) + 1):
        return None
    m = pattern.search(html, pos)
    if m is None:
        fails[pattern] = pos
    return m


def _find_gt(html: str, pos: int, fails: dict) -> int:
    """``html.find(">", pos)``, remembered like ``_search``."""
    if pos >= fails.get(">", len(html) + 1):
        return -1
    k = html.find(">", pos)
    if k < 0:
        fails[">"] = pos
    return k


def _whole_start_tag(html: str, i: int) -> int:
    """HTMLParser.check_for_whole_start_tag: the tag's end, or -1."""
    j = _LOCATESTARTTAGEND.match(html, i).end()
    nxt = html[j : j + 1]
    if nxt == ">":
        return j + 1
    if nxt == "/":
        if html.startswith("/>", j):
            return j + 2
        return -1
    if nxt == "" or nxt in (
        "abcdefghijklmnopqrstuvwxyz=/ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    ):
        return -1
    return j if j > i else i + 1


def _start_tag(html: str, i: int) -> tuple[int, int, str | None]:
    """HTMLParser.parse_starttag, walking the attributes without keeping
    them."""
    endpos = _whole_start_tag(html, i)
    if endpos < 0:
        return -1, _NONE, None
    m = _TAGFIND.match(html, i + 1)
    tag = m.group(1).lower()
    k = m.end()
    while k < endpos:
        m = _ATTRFIND.match(html, k)
        if not m:
            break
        k = m.end()
    end = html[k:endpos].strip()
    if end == ">":
        return endpos, _START, tag
    if end == "/>":
        return endpos, _STARTEND, tag
    return endpos, _DATA, html[i:endpos]  # junk, passed on as raw text


def _end_tag(html: str, i: int, fails: dict) -> tuple[int, int, str | None]:
    """HTMLParser.parse_endtag outside script/style raw text."""
    gtpos = _find_gt(html, i + 1, fails)
    if gtpos < 0:
        return -1, _NONE, None
    m = _ENDTAGFIND.match(html, i)
    if m:
        return gtpos + 1, _END, m.group(1).lower()
    m = _TAGFIND.match(html, i + 2)
    if m:
        return html.find(">", m.end()) + 1, _END, m.group(1).lower()
    if html.startswith("</>", i):
        return i + 3, _NONE, None
    pos = _find_gt(html, i + 2, fails)  # bogus comment
    return (pos + 1 if pos >= 0 else -1), _NONE, None


def _marked_section(html: str, i: int, fails: dict) -> int:
    """ParserBase.parse_marked_section: the section's end, or -1."""
    j = i + 3
    if j == len(html):
        return -1
    m = _DECLNAME.match(html, j)
    if not m:
        raise AssertionError("expected name token at %r" % html[i : i + 20])
    if m.end() == len(html):
        return -1
    name = m.group().strip().lower()
    if name in {"temp", "cdata", "ignore", "include", "rcdata"}:
        close = _MARKEDSECTIONCLOSE
    elif name in {"if", "else", "endif"}:
        close = _MSMARKEDSECTIONCLOSE
    else:
        raise AssertionError(
            "unknown status keyword %r in marked section" % html[j : m.end()]
        )
    m = _search(close, html, j, fails)
    return m.end() if m else -1


def _markup(html: str, i: int, fails: dict) -> tuple[int, int, str | None]:
    """HTMLParser.goahead(end=1) at a "<" the fast path did not read:
    (next position, event kind, tag name or data)."""
    kind, value = _NONE, None
    if _STARTTAGOPEN.match(html, i):
        k, kind, value = _start_tag(html, i)
    elif html.startswith("</", i):
        k, kind, value = _end_tag(html, i, fails)
    elif html.startswith("<!--", i):
        m = _search(_COMMENTCLOSE, html, i + 4, fails)
        k = m.end() if m else -1
    elif html.startswith("<?", i):
        k = _find_gt(html, i + 2, fails)
        k = k + 1 if k >= 0 else -1
    elif html.startswith("<![", i):
        k = _marked_section(html, i, fails)
    elif html.startswith("<!", i):
        if html[i : i + 9].lower() == "<!doctype":
            k = _find_gt(html, i + 9, fails)
        else:  # bogus comment
            k = _find_gt(html, i + 2, fails)
        k = k + 1 if k >= 0 else -1
    else:
        return i + 1, _DATA, "<"
    if k >= 0:
        return k, kind, value
    # unterminated at end of input: pass the text on as data
    k = _find_gt(html, i + 1, fails)
    if k >= 0:
        k += 1
    else:
        k = html.find("<", i + 1)
        if k < 0:
            k = i + 1
    data = html[i:k]
    return k, _DATA, unescape(data) if "&" in data else data


def _scan_blocks(
    html: str,
) -> tuple[list[tuple[str, int, int]], dict[int, str], dict[int, bool]]:
    """Segment ``html`` into (text, link_chars, container_id) blocks.

    Also returns each container's tag and whether it is boilerplate;
    container 0 is the implicit body. Text after the last block-level tag
    is never flushed into a block.
    """
    blocks: list[tuple[str, int, int]] = []
    buf: list[str] = []
    link_chars = 0
    skip = 0  # depth inside SKIP_CONTENT_TAGS: their text is dropped
    in_link = 0
    containers = [0]  # innermost-last
    container_tags = {0: "body"}
    # boilerplate-ness INHERITS: a <ul> inside <nav> is still nav chrome
    container_neg = {0: False}
    fails: dict = {}
    search = _TAG.search
    n = len(html)
    pos = 0
    while pos < n:
        m = search(html, pos)
        j = m.start() if m else n
        if pos < j and not skip:
            data = html[pos:j]
            if "&" in data:
                data = unescape(data)
            buf.append(data)
            if in_link:
                link_chars += len(data)
        if m is None:
            break
        end_name, tag, slash = m.groups()
        if end_name is not None:
            kind, tag = _END, end_name.lower()
            pos = m.end()
        elif tag is not None:
            kind, tag = (_STARTEND if slash else _START), tag.lower()
            pos = m.end()
        else:
            pos, kind, tag = _markup(html, j, fails)
            if kind == _DATA:
                if not skip:
                    buf.append(tag)
                    if in_link:
                        link_chars += len(tag)
                continue
            if kind == _NONE:
                continue
        if tag in SKIP_CONTENT_TAGS:
            if kind == _START:
                close = _RAWTEXT_CLOSE.get(tag)
                if close is None:
                    skip += 1
                else:  # raw text: skip to its end tag, which undoes the skip
                    m = close.search(html, pos)
                    if m is None:
                        break
                    pos = m.end()
            elif kind == _END and skip:
                skip -= 1
            continue
        if tag in BLOCK_TAGS and buf:
            text = "".join(buf).strip()
            if text:
                blocks.append((text, link_chars, containers[-1]))
            buf = []
            link_chars = 0
        if kind != _END:
            if tag in CONTAINER_TAGS:
                cid = len(container_tags)
                container_tags[cid] = tag
                container_neg[cid] = (
                    container_neg[containers[-1]] or tag in NEGATIVE_CONTAINER_TAGS
                )
                containers.append(cid)
            elif tag == "a":
                in_link += 1
        if kind != _START:
            if tag in CONTAINER_TAGS:
                if len(containers) > 1:
                    containers.pop()
            elif tag == "a" and in_link:
                in_link -= 1
    return blocks, container_tags, container_neg

def _block_score(text: str, link_chars: int) -> float:
    if len(text) < MIN_BLOCK_CHARS:
        return 0.0
    link_density = link_chars / len(text)
    if link_density > MAX_LINK_DENSITY:
        return 0.0
    return len(text) * (1.0 - link_density)


def extract_main_content(html: str) -> tuple[str, list[tuple[int, int]]]:
    """(extracted_text, spans): the top-candidate container's blocks joined
    with single spaces; spans are [start, end) offsets of each block."""
    blocks, _, container_neg = _scan_blocks(html)
    if not blocks:
        return "", []
    scores: dict[int, float] = {}
    textlen: dict[int, int] = {}
    for text, link_chars, cid in blocks:
        scores[cid] = scores.get(cid, 0.0) + _block_score(text, link_chars)
        textlen[cid] = textlen.get(cid, 0) + len(text)
    def negative(cid: int) -> bool:
        return container_neg.get(cid, False)

    # Arc90-style tag prior: boilerplate containers (nav/footer/aside/...)
    # only win if no content-like container exists at all. Without this, a
    # page whose main content is shorter than MIN_BLOCK_CHARS hands the
    # whole document to its footer.
    positive = {c: s for c, s in scores.items() if s > 0 and not negative(c)}
    if positive:
        best = max(positive, key=lambda c: (positive[c], -c))
    else:
        nonneg = {c: n for c, n in textlen.items() if n > 0 and not negative(c)}
        if nonneg:
            best = max(nonneg, key=lambda c: (nonneg[c], -c))
        elif any(s > 0 for s in scores.values()):
            best = max(scores, key=lambda c: (scores[c], -c))
        else:
            return "", []
    kept = [t for t, _, cid in blocks if cid == best]
    spans: list[tuple[int, int]] = []
    pos = 0
    for t in kept:
        spans.append((pos, pos + len(t)))
        pos += len(t) + 1  # the joining space
    return " ".join(kept), spans

