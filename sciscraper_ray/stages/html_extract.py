"""HTML main-content extractor — readability/text-density boilerplate
stripping, the HTML route of ``PayloadExtractor`` (pipelines/extract.py).

The reference has no HTML stripper (its DOM use is CSS-select scraping,
webscrapers.py:163-183); the north-star requires one for the page table's
``html`` rows. From-scratch implementation over stdlib html.parser
(selectolax/bs4 are not available), using the Arc90-readability /
Kohlschütter-boilerplate signals:

1. segment the DOM into text blocks at block-level tags, tracking each
   block's innermost CONTAINER element (article/section/div/nav/...);
2. score blocks by length and link density (short or link-dominated
   blocks score 0 — nav bars, sidebars, footers);
3. pick the top-scoring container (the "top candidate") and emit ALL its
   blocks in document order — short trailing paragraphs of the winning
   container survive, boilerplate containers are dropped wholesale;
4. emit the concatenated text plus per-block span offsets into it.
"""

from __future__ import annotations

from html.parser import HTMLParser

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


class _BlockParser(HTMLParser):
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
    parser = _BlockParser()
    parser.feed(html)
    parser.close()
    if not parser.blocks:
        return "", []
    scores: dict[int, float] = {}
    textlen: dict[int, int] = {}
    for text, link_chars, cid in parser.blocks:
        scores[cid] = scores.get(cid, 0.0) + _block_score(text, link_chars)
        textlen[cid] = textlen.get(cid, 0) + len(text)
    def negative(cid: int) -> bool:
        return parser.container_neg.get(cid, False)

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
    kept = [t for t, _, cid in parser.blocks if cid == best]
    spans: list[tuple[int, int]] = []
    pos = 0
    for t in kept:
        spans.append((pos, pos + len(t)))
        pos += len(t) + 1  # the joining space
    return " ".join(kept), spans

