"""PDF layout parser — the PDF route of ``PayloadExtractor``
(pipelines/extract.py) and a re-expression of the reference's
pdfplumber text path (/root/reference/src/docscraper.py:188-205): per page
``extract_text(x_tolerance=1, y_tolerance=3)``, pages joined with ``" "``.

From-scratch implementation (pdfplumber is not a dependency). The document
model (stages/pdf_doc.py) resolves the page tree, per-page content streams
and font tables; this module interprets the content-stream text operators
(BT/ET, Tf, Tm, Td, TD, T*, TL, Tc, Tw, Tz, Tj, TJ, ', ", with q/Q/cm
graphics state) placing glyphs with the font's /Widths (or /W CID)
advances — char/word spacing and horizontal scaling applied per spec
§9.4.4 — then clusters glyphs pdfplumber-style: lines by y within
``y_tolerance``, words split on whitespace glyphs or horizontal gaps >
``x_tolerance``, words joined with single spaces, lines with newlines,
pages with a single space.

A page's glyphs are glyph runs ``(text, x, y, step)``: character k of
``text`` sits at ``x + k*step`` and advances by ``step``. A string shown
at a fixed metric on an unrotated baseline is one run; any other string
is one 1-character run per character, the ``(char, x, y, advance)``
glyph. The assemblers (``glyphs_to_text``, ``split_columns``) give the
text the per-character rules give over the runs split into characters;
they take a longer run whole where that is exact, and split the page
into 1-character runs where it might not be.

Fonts that declare no metric for a code (and payloads with no page tree,
e.g. raw fragments) fall back to the fixed 0.6 em advance the synthetic
writer uses (sources/pdf_write.py) — documented there as the shared
metric, which keeps synthetic round-trips byte-exact.

A content stream reaches the operator dispatch (``_interpreter``) by one
of two lanes, which differ only in how operands are found and parsed:

- the regex lane: one compiled pattern must tile the WHOLE decoded stream
  as (operands, operator) pairs, operands being numbers, names, plain
  literal strings (no backslash, no nested parenthesis), hex strings and
  flat arrays of those. The cover is checked in C (``fullmatch``), then
  the pairs are collected with ``findall``; possessive quantifiers keep
  both linear in the stream length;
- the token lane: ``_tokenize`` and an operand stack, the rules for any
  stream. A stream the pattern does not cover goes through this lane
  whole (comments, escaped or nested literals, ``<<`` dictionaries,
  inline images, stray delimiters, numbers such as ``1e5``, operators
  inside arrays). It is also the oracle the regex lane is tested against
  (tests/test_pdf_content_fastpath.py).
"""

from __future__ import annotations

import bisect
import math
import re
import zlib
from operator import itemgetter

from sciscraper_ray.stages.pdf_doc import (
    FontInfo,
    PdfDocument,
    decode_text_string,
    unescape_literal,
)

_STREAM_KW_RE = re.compile(rb"(?<!end)stream\r?\n")
_LENGTH_RE = re.compile(rb"/Length\s+(\d+)")

X_TOLERANCE = 1.0
Y_TOLERANCE = 3.0
DEFAULT_CHAR_EM = 0.6

# (text, x, y, step): character k of text at x + k*step (see _interpreter)
GlyphRun = tuple[str, float, float, float]


class _TextState:
    __slots__ = ("tm", "lm", "size", "leading", "tc", "tw", "hscale", "font")

    def __init__(self):
        self.tm = [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]  # a b c d e f
        self.lm = list(self.tm)
        self.size = 12.0
        self.leading = 0.0
        self.tc = 0.0  # char spacing (Tc)
        self.tw = 0.0  # word spacing (Tw)
        self.hscale = 1.0  # horizontal scaling (Tz / 100)
        self.font: FontInfo | None = None

    def translate_line(self, tx: float, ty: float) -> None:
        """Td semantics: new line matrix = translate(tx, ty) x lm."""
        self.lm = [
            self.lm[0], self.lm[1], self.lm[2], self.lm[3],
            self.lm[4] + tx * self.lm[0] + ty * self.lm[2],
            self.lm[5] + tx * self.lm[1] + ty * self.lm[3],
        ]
        self.tm = list(self.lm)


_WS_RUN_RE = re.compile(rb"[\x00\t\n\x0c\r ]+")
_REG_TOK_RE = re.compile(rb"[^\x00\t\n\x0c\r ()<>\[\]{}/%]+")


def _hex_string(body: bytes) -> bytes:
    """Bytes of a <hex> string body: whitespace dropped, an odd final
    digit padded with 0 (PDF spec §7.3.4.3)."""
    digits = b"".join(body.split())
    if len(digits) % 2:
        digits += b"0"
    return bytes.fromhex(digits.decode("ascii"))


def _tokenize(stream: bytes):
    """Content-stream tokens: numbers, names, (strings)/<hex> as raw BYTES
    (codes, not text — the font maps codes to unicode), [arrays],
    operators (as bytes). Whitespace runs and regular-token spans scan
    via compiled regex (C), not per-char Python."""
    i, n = 0, len(stream)
    ws_match = _WS_RUN_RE.match
    tok_match = _REG_TOK_RE.match
    while i < n:
        m = ws_match(stream, i)
        if m is not None:
            i = m.end()
            if i >= n:
                break
        c = stream[i]
        if c == 0x25:  # % comment
            j = stream.find(b"\n", i)
            i = n if j < 0 else j + 1
            continue
        if c == 0x28:  # (literal string)
            # fast path: next ')' with no escapes/nesting in between
            j = stream.find(b")", i + 1)
            if j < 0:
                break
            seg = stream[i + 1 : j]
            if b"\\" not in seg and b"(" not in seg:
                yield ("str", seg)
                i = j + 1
                continue
            depth, j = 1, i + 1
            while j < n and depth:
                ch = stream[j]
                if ch == 0x5C:
                    j += 2
                    continue
                if ch == 0x28:
                    depth += 1
                elif ch == 0x29:
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            yield ("str", unescape_literal(stream[i + 1 : j]))
            i = j + 1
        elif c == 0x3C and not (i + 1 < n and stream[i + 1] == 0x3C):
            j = stream.find(b">", i + 1)
            if j == -1:
                break
            try:
                raw = _hex_string(stream[i + 1 : j])
            except (ValueError, UnicodeDecodeError):
                # real-world streams embed non-text <...> runs (inline
                # images, font programs); draw nothing rather than die
                raw = b""
            yield ("str", raw)
            i = j + 1
        elif c == 0x5B:
            yield ("arr_open", None)
            i += 1
        elif c == 0x5D:
            yield ("arr_close", None)
            i += 1
        elif c == 0x2F:
            m = tok_match(stream, i + 1)
            j = m.end() if m is not None else i + 1
            yield ("name", stream[i + 1 : j].decode("latin-1"))
            i = j
        else:
            m = tok_match(stream, i)
            j = m.end() if m is not None else i
            tok = stream[i:j]
            # numbers vastly outnumber operators in content streams;
            # a first-byte gate + float() beats a regex fullmatch
            if tok and tok[0] in b"+-.0123456789":
                try:
                    yield ("num", float(tok))
                except ValueError:
                    yield ("op", tok)
            else:
                yield ("op", tok)
            i = j if j > i else i + 1


def _token_lane(stream: bytes, run) -> None:
    """Feed ``run`` every operator of ``stream`` with its operand stack,
    tokenized by ``_tokenize``: the rules for any stream at all. An open
    ``[`` waits on the stack as ``None`` until its ``]`` folds the values
    above it into a list."""
    stack: list = []
    for kind, val in _tokenize(stream):
        if kind == "op":
            run(val, stack)
            stack = []  # operands are consumed by their operator
        elif kind == "arr_open":
            stack.append(None)
        elif kind == "arr_close":
            arr = []
            while stack and stack[-1] is not None:
                arr.append(stack.pop())
            if stack:
                stack.pop()
            arr.reverse()
            stack.append(arr)
        else:
            stack.append(val)


# The regex lane: one pattern tiles a whole stream into (operands,
# operator) pairs. Operands are numbers, names, plain literals (no
# backslash, no nested parenthesis), hex strings and flat arrays of
# those; each is a maximal token under ``_tokenize``'s rules, so a stream
# the pattern covers tokenizes the same both ways. Every quantifier is
# possessive and every operand starts with a byte no other operand or
# operator starts with, so the cover check is linear in the stream.
_W = rb"[\x00\t\n\x0c\r ]"
_WS_DELIMS = rb"\x00\t\n\x0c\r ()<>\[\]{}/%"
_REG = rb"[^" + _WS_DELIMS + rb"]"  # a byte of a regular token
_NUM = rb"[+-]?+(?:\d++(?:\.\d*+)?+|\.\d++)(?!" + _REG + rb")"
_NAME = rb"/" + _REG + rb"*+"
_LIT = rb"\([^\\()]*+\)"
_HEX = rb"<[0-9A-Fa-f\t\n\x0c\r ]*+>"
_SCALAR = rb"(?:" + b"|".join((_NUM, _NAME, _LIT, _HEX)) + rb")"
_OPERAND = (
    rb"(?:" + _SCALAR + rb"|\[" + _W + rb"*+(?:" + _SCALAR + _W + rb"*+)*+\])"
)
# inline images (BI ... ID data EI) always take the token lane
_OP = rb"(?!BI(?!" + _REG + rb"))[^" + _WS_DELIMS + rb"+\-.0-9]" + _REG + rb"*+"
_OPERANDS = rb"(?:" + _OPERAND + _W + rb"*+)"
_COVER_RE = re.compile(
    rb"(?:" + _W + rb"*+" + _OPERANDS + rb"*+" + _OP + rb")*+" + _W + rb"*+"
)
# one pair, its operands split three ways: only numbers (the separators
# exclude NUL, which bytes.split keeps), one plain literal, or any other
# operand run
_PAIR_RE = re.compile(
    _W + rb"*+(?:("
    + _NUM + rb"(?:[\t\n\x0c\r ]++" + _NUM + rb")*+)[\t\n\x0c\r ]*+|("
    + _LIT + rb")" + _W + rb"*+|(" + _OPERANDS + rb"++))?(" + _OP + rb")"
)
_OPERAND_TOKEN_RE = re.compile(
    rb"(" + _NUM + rb")|/(" + _REG + rb"*+)|\(([^\\()]*+)\)|<([^>]*+)>|(\[)|\]"
)


def _operands(span: bytes) -> list:
    """Operand stack of a covered operand span, as ``_token_lane`` builds
    it: bare values, an array as a list of its scalars."""
    stack: list = []
    top = stack
    for m in _OPERAND_TOKEN_RE.finditer(span):
        k = m.lastindex
        if k == 1:
            top.append(float(m.group(1)))
        elif k == 2:
            top.append(m.group(2).decode("latin-1"))
        elif k == 3:
            top.append(m.group(3))
        elif k == 4:
            top.append(_hex_string(m.group(4)))
        elif k == 5:
            top = []
        else:  # `]`
            stack.append(top)
            top = stack
    return stack


def _regex_lane(stream: bytes, run) -> bool:
    """Feed ``run`` every operator of ``stream`` with its operand stack if
    the cover pattern tiles the stream, and return True; else run nothing
    and return False."""
    if _COVER_RE.fullmatch(stream) is None:
        return False
    for nums, lit, other, op in _PAIR_RE.findall(stream):
        if nums:
            stack = list(map(float, nums.split()))
        elif lit:
            stack = [lit[1:-1]]
        elif other:
            stack = _operands(other)
        else:
            stack = []
        run(op, stack)
    return True


def _default_chars(raw: bytes) -> str:
    """Text of a code run when no font table is known: UTF-16BE with BOM
    (the synthetic writer's non-Latin path), else byte-identity latin-1;
    each char's code is its ``ord``."""
    if raw[:2] == b"\xfe\xff":
        return raw[2:].decode("utf-16-be", "replace")
    return raw.decode("latin-1")


def _interpreter(fonts: dict[str, FontInfo] | None):
    """(glyphs, run) for one content stream: ``run(op, stack)`` applies
    one operator (bytes) to its operand stack, appending glyph runs to
    ``glyphs``. Both lanes drive the same ``run``. An operand is a bare
    value: a
    ``float`` for a number, ``bytes`` for a string, a ``str`` for a name
    and a ``list`` for an array; ``run`` dispatches on those types.

    A glyph run ``(text, x, y, step)`` places ``len(text)`` characters on
    one baseline: character k sits at ``x + k*step`` and advances by
    ``step``. The fixed-metric fast path of ``draw`` appends one run per
    shown string; the general path (font widths, spacing, rotation,
    ligatures) appends one 1-character run per character, the
    ``(char, x, y, advance)`` glyph. x/y are device coordinates (text
    matrix composed with the q/Q/cm graphics state); step is the full
    device-space displacement (glyph width + Tc/Tw, scaled) — what the
    line assembler needs to detect word gaps."""
    st = _TextState()
    ctm = [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]
    ctm_stack: list[list[float]] = []
    glyphs: list[GlyphRun] = []

    def draw(raw: bytes) -> None:
        f = st.font
        # UTF-16BE BOM: the synthetic writer's non-Latin string convention
        # (sources/pdf_write.py) — not a font code sequence; a real 1-byte
        # code run can't start 0xFE 0xFF under any standard encoding
        trivial = f is None or f.trivial or raw[:2] == b"\xfe\xff"
        if trivial:
            chars = _default_chars(raw)
        else:
            units = f.decode(raw)
        size = st.size
        tm = st.tm
        a, b, tx, ty = tm[0], tm[1], tm[4], tm[5]
        c0, c1, c2, c3, c4, c5 = ctm
        em = DEFAULT_CHAR_EM * size
        if trivial and st.tc == 0.0 and st.tw == 0.0 and b == 0.0 and c1 == 0.0:
            # batch fast path (the synthetic writer's shape: fixed metric,
            # no spacing params, unrotated matrices): constant advance, so
            # the whole string is one glyph run
            adv = em * st.hscale
            x0 = tx * c0 + ty * c2 + c4
            y0 = tx * c1 + ty * c3 + c5
            if chars:
                glyphs.append((chars, x0, y0, adv * a * c0))
            n_units = len(chars)
            tm[4] = tx + adv * n_units * a
            tm[5] = ty + adv * n_units * b
            return
        tc, tw, hscale = st.tc, st.tw, st.hscale
        if trivial:
            units = [(ord(ch), ch) for ch in chars]
        append = glyphs.append
        width = None if trivial else f.width
        # §9.3.3: word spacing applies only to SINGLE-BYTE code 32 —
        # 2-byte Type0/CID code 32 must not pick up Tw
        tw_applies = trivial or f.code_bytes == 1
        for code, text in units:
            if width is None:
                gw = em
            else:
                w1000 = width(code)
                gw = em if w1000 is None else w1000 * 0.001 * size
            # §9.4.4 glyph displacement in text space
            adv = (gw + tc + (tw if (code == 32 and tw_applies) else 0.0)) * hscale
            x = tx * c0 + ty * c2 + c4
            y = tx * c1 + ty * c3 + c5
            # full device-space advance: text-space (adv*a, adv*b) through
            # the CTM — both cross terms, plus the y component for rotated
            # or skewed Tm x CTM compositions
            dev_adv = adv * (a * c0 + b * c2)
            dev_adv_y = adv * (a * c1 + b * c3)
            for k, ch in enumerate(text):
                # ligature/multi-char mappings share one advance: the first
                # char carries it, the rest sit at the pen end with zero
                # width so word logic sees them adjacent
                append(
                    (
                        ch,
                        x if k == 0 else x + dev_adv,
                        y if k == 0 else y + dev_adv_y,
                        dev_adv if k == 0 else 0.0,
                    )
                )
            tx += adv * a
            ty += adv * b
        tm[4] = tx
        tm[5] = ty

    def run(op: bytes, stack: list) -> None:
        nonlocal ctm
        # the two operators of every positioned word come first
        if op == b"Tj" and stack and isinstance(stack[-1], bytes):
            draw(stack[-1])
        elif op == b"Tm" and len(stack) >= 6:
            st.tm = stack[-6:]
            st.lm = stack[-6:]
        elif op == b"BT":
            st.tm = [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]
            st.lm = list(st.tm)
        elif op == b"q":
            ctm_stack.append(list(ctm))
        elif op == b"Q":
            if ctm_stack:
                ctm = ctm_stack.pop()
        elif op == b"cm" and len(stack) >= 6:
            a, b, c, d, e, f_ = stack[-6:]
            ctm = [
                a * ctm[0] + b * ctm[2],
                a * ctm[1] + b * ctm[3],
                c * ctm[0] + d * ctm[2],
                c * ctm[1] + d * ctm[3],
                e * ctm[0] + f_ * ctm[2] + ctm[4],
                e * ctm[1] + f_ * ctm[3] + ctm[5],
            ]
        elif op == b"Tf" and len(stack) >= 2:
            if fonts and isinstance(stack[-2], str):
                st.font = fonts.get(stack[-2])
            st.size = stack[-1]
        elif op == b"Tc" and stack:
            st.tc = stack[-1]
        elif op == b"Tw" and stack:
            st.tw = stack[-1]
        elif op == b"Tz" and stack:
            st.hscale = stack[-1] / 100.0
        elif op in (b"Td", b"TD") and len(stack) >= 2:
            tx, ty = stack[-2], stack[-1]
            if op == b"TD":
                st.leading = -ty
            st.translate_line(tx, ty)
        elif op == b"TL" and stack:
            st.leading = stack[-1]
        elif op == b"T*":
            st.translate_line(0.0, -st.leading)
        elif op == b"'" and stack and isinstance(stack[-1], bytes):
            st.translate_line(0.0, -st.leading)
            draw(stack[-1])
        elif op == b'"' and len(stack) >= 3 and isinstance(stack[-1], bytes):
            st.tw = stack[-3]
            st.tc = stack[-2]
            st.translate_line(0.0, -st.leading)
            draw(stack[-1])
        elif op == b"TJ" and stack and isinstance(stack[-1], list):
            for v in stack[-1]:
                if isinstance(v, bytes):
                    draw(v)
                elif isinstance(v, float):
                    tx = -v / 1000.0 * st.size * st.hscale
                    st.tm[4] += tx * st.tm[0]
                    st.tm[5] += tx * st.tm[1]

    return glyphs, run


def _extract_glyphs(
    stream: bytes, fonts: dict[str, FontInfo] | None = None
) -> list[GlyphRun]:
    """Glyph runs ``(text, x, y, step)`` from one content stream: the
    regex lane when its pattern covers the stream, else the token lane
    (see ``_interpreter`` for the run record and the coordinates)."""
    glyphs, run = _interpreter(fonts)
    if not _regex_lane(stream, run):
        _token_lane(stream, run)
    return glyphs


# A run of two or more characters is handled whole only where every
# coordinate it implies lies within this many tolerances of 0: there the
# rounding of ``x + k*step`` keeps each gap between its characters (0 in
# exact arithmetic) far below the tolerance the gap is compared with.
_WHOLE_RUN_RANGE = 2.0**40


def _whole_runs(glyphs: list[GlyphRun], tolerance: float) -> bool:
    """Whether every run of two or more characters can be assembled whole:
    a positive or zero step, finite coordinates within
    ``tolerance * _WHOLE_RUN_RANGE`` of 0, and no NaN coordinate on the
    page (NaN sort keys order runs and characters differently)."""
    lim = tolerance * _WHOLE_RUN_RANGE
    multi = nan = False
    for text, x, y, step in glyphs:
        n = len(text)
        if n == 1:
            nan = nan or x != x or y != y
        elif n and step >= 0.0 and -lim < x and x + n * step < lim and (
            abs(y) < math.inf
        ):
            multi = True
        else:
            return False
    return not (multi and nan)


def _char_runs(glyphs: list[GlyphRun]) -> list[GlyphRun]:
    """The glyph list split into 1-character runs, in emission order:
    character k of a longer run sits at ``x + k*step``."""
    out = []
    for g in glyphs:
        text, x, y, step = g
        if len(text) == 1:
            out.append(g)
        else:
            out.extend((ch, x + k * step, y, step) for k, ch in enumerate(text))
    return out


def _assemble(
    glyphs: list[GlyphRun], x_tolerance: float, y_tolerance: float
) -> str | None:
    """``glyphs_to_text`` over runs; None when two runs on one line overlap
    in x, or tie with a run whose characters span more than one x, so that
    their characters would interleave."""
    lines: list[list[GlyphRun]] = []
    for g in sorted(glyphs, key=lambda g: (-g[2], g[1])):
        if lines and abs(lines[-1][0][2] - g[2]) <= y_tolerance:
            lines[-1].append(g)
        else:
            lines.append([g])
    out_lines = []
    for line in lines:
        line.sort(key=itemgetter(1))
        words: list[str] = []
        cur: list[str] = []
        prev_end = prev_last = None
        prev_point = True
        for text, x, _, step in line:
            if prev_end is not None:
                if not prev_point and x <= prev_last:
                    return None
                if (x - prev_end) > x_tolerance and cur:
                    words.append("".join(cur))
                    cur = []
            n = len(text)
            if n == 1:
                if text.isspace():
                    if cur:
                        words.append("".join(cur))
                        cur = []
                else:
                    cur.append(text)
                prev_end = x + step
                prev_point = True
                continue
            # a whole run: no gap inside it breaks a word, whitespace does
            if text[0].isspace() and cur:
                words.append("".join(cur))
                cur = []
            parts = text.split()
            if parts:
                cur.append(parts[0])
                if len(parts) > 1:
                    words.append("".join(cur))
                    words.extend(parts[1:-1])
                    cur = [parts[-1]]
                if text[-1].isspace():
                    words.append("".join(cur))
                    cur = []
            prev_last = x + (n - 1) * step
            prev_end = prev_last + step
            prev_point = prev_last == x
        if cur:
            words.append("".join(cur))
        out_lines.append(" ".join(words))
    return "\n".join(out_lines)


def glyphs_to_text(
    glyphs: list[GlyphRun],
    x_tolerance: float = X_TOLERANCE,
    y_tolerance: float = Y_TOLERANCE,
) -> str:
    """pdfplumber-style assembly of glyph runs ``(text, x, y, step)``:
    cluster lines by y (within y_tolerance), split words on whitespace or
    x-gaps > x_tolerance, single-space words, newline lines.

    The text is what the same rules give character by character
    (character k of a run at ``x + k*step``, advancing by ``step``). A
    run is taken whole: ``str.split`` gives the words inside it, the gap
    rule applies between runs, and a run ends at
    ``(x + (n-1)*step) + step``, the float the per-character rule
    computes. A page where that could differ — two runs on one line
    overlapping in x, or tying with a run whose characters span more
    than one x; a longer run with a negative step or with a non-finite
    or huge coordinate (``_whole_runs``); a NaN coordinate beside a
    longer run — is assembled from its glyph list split into
    1-character runs, in emission order; on 1-character runs the two
    readings are the same."""
    if not glyphs:
        return ""
    if y_tolerance >= 0.0 and _whole_runs(glyphs, x_tolerance):
        text = _assemble(glyphs, x_tolerance, y_tolerance)
        if text is not None:
            return text
    return _assemble(_char_runs(glyphs), x_tolerance, y_tolerance)


def split_columns(
    glyphs: list[GlyphRun], gutter_min: float = 24.0
) -> list[list[GlyphRun]]:
    """Cluster glyph runs into COLUMN bands by projecting every run's
    x-interval onto the x-axis and splitting at empty gaps wider than
    ``gutter_min`` — a gutter must be empty across EVERY line of the
    page, so ragged right edges and ordinary word gaps (one em or less)
    can never fake one. A run's interval reaches its end,
    ``(x + (n-1)*step) + step``: cut at its first character, a long run
    would leave a fake gutter behind it. A page whose longer runs cannot
    be measured whole (see ``_whole_runs``) is split into 1-character
    runs first. Returns bands
    left-to-right; a page with no gutter comes back as a single band."""
    if not glyphs:
        return []
    if not _whole_runs(glyphs, gutter_min):
        glyphs = _char_runs(glyphs)
    iv = sorted(
        (x, x + step if len(text) == 1 else x + (len(text) - 1) * step + step)
        for text, x, _, step in glyphs
    )
    bands = [[iv[0][0], iv[0][1]]]
    for x0, x1 in iv[1:]:
        if x0 > bands[-1][1] + gutter_min:
            bands.append([x0, x1])
        elif x1 > bands[-1][1]:
            bands[-1][1] = x1
    if len(bands) == 1:
        return [list(glyphs)]
    starts = [b[0] for b in bands]
    out: list[list[GlyphRun]] = [[] for _ in bands]
    for g in glyphs:
        out[bisect.bisect_right(starts, g[1]) - 1].append(g)
    return out


def glyphs_to_reading_order(
    glyphs: list[GlyphRun],
    x_tolerance: float = X_TOLERANCE,
    y_tolerance: float = Y_TOLERANCE,
    gutter_min: float = 24.0,
) -> str:
    """pdfplumber-style word/box clustering into READING-ORDER text
    blocks (the north-star layout contract): glyphs split into column
    bands first (``split_columns``), each band runs the y-then-x line
    assembly independently, and blocks emit left column first, top to
    bottom, then the next column — the order a human reads a
    two-column paper. The naive page-wide y-cluster (``glyphs_to_text``)
    zips the columns line by line instead; this function exists because
    that garbling is byte-visible against the known main text. Output is
    single-space-joined words (the reference's ' '.join contract —
    docscraper.py:205), so a correctly ordered extraction reproduces the
    source text byte-identically."""
    cols = split_columns(glyphs, gutter_min)
    parts = [
        glyphs_to_text(c, x_tolerance, y_tolerance).replace("\n", " ")
        for c in cols
    ]
    return " ".join(p for p in parts if p)


def _scan_pages(payload: bytes) -> list[str]:
    """Legacy fallback for payloads with no parseable page tree (raw
    fragments, exotic writers): every Flate stream containing a BT block
    is treated as one page, glyphs placed with the default 0.6 em metric.

    Streams are sliced by the dict's /Length (never by scanning for
    ``endstream`` — compressed bytes can contain CR/LF sequences that a
    delimiter scan would truncate); /Length-less streams fall back to the
    next ``endstream`` with EOL trim."""
    pages: list[str] = []
    for m in _STREAM_KW_RE.finditer(payload):
        header = payload[max(0, m.start() - 256) : m.start()]
        lengths = _LENGTH_RE.findall(header)
        start = m.end()
        if lengths:
            data = payload[start : start + int(lengths[-1])]
        else:
            end = payload.find(b"endstream", start)
            if end < 0:
                continue
            data = payload[start:end].rstrip(b"\r\n")
        if b"FlateDecode" in header:
            try:
                data = zlib.decompress(data)
            except zlib.error:
                continue
        if b"BT" not in data:
            continue
        try:
            pages.append(glyphs_to_text(_extract_glyphs(data)))
        except Exception:  # noqa: BLE001 — degrade per stream, never die
            # one exotic stream (unsupported filter chain, binary run that
            # happened to decode, a name where a number belongs) must not
            # take down the document
            continue
    return pages


def extract_pdf_pages(payload: bytes, assemble=glyphs_to_text) -> list[str]:
    """Per-page extracted text (pdfplumber extract_text analog per page).

    Primary path: the document model (pdf_doc.PdfDocument) resolves the
    page tree, joins each page's content-stream array, and supplies the
    page's font tables so glyph advances use real /Widths metrics. A
    payload with no parseable page tree degrades to the legacy
    stream-scan path.

    ``assemble`` maps a page's glyph list to text — the default is the
    single-flow line clusterer; pass ``glyphs_to_reading_order`` for
    column-aware block assembly (multi-column layouts)."""
    try:
        doc = PdfDocument(payload)
        page_nodes = doc.pages()
    except Exception:  # noqa: BLE001 — damaged file: fall back to scan
        page_nodes = []
        doc = None
    if doc is not None and page_nodes:
        pages = []
        for node in page_nodes:
            try:
                content = doc.page_content(node)
                if not content:
                    pages.append("")
                    continue
                fonts = doc.page_fonts(node)
                pages.append(assemble(_extract_glyphs(content, fonts)))
            except Exception:  # noqa: BLE001 — degrade per page, never die
                pages.append("")
        return pages
    return _scan_pages(payload)


_INFO_REF_RE = re.compile(rb"/Info\s+(\d+)\s+\d+\s+R")
_INFO_ENTRY_RE = re.compile(
    # /Name followed by a literal (...) string or a <hex> string
    rb"/([A-Za-z0-9_.\-#]+)\s*(\((?:\\.|[^\\()])*\)|<[0-9A-Fa-f\s]+>)"
)


def _decode_pdf_string(raw: bytes) -> str:
    if raw.startswith(b"("):
        return decode_text_string(unescape_literal(raw[1:-1]))
    digits = b"".join(raw[1:-1].split())
    if len(digits) % 2:
        digits += b"0"
    return decode_text_string(bytes.fromhex(digits.decode("ascii")))


def extract_pdf_info(payload: bytes) -> dict[str, str]:
    """M10 analog (extract_metadata, /root/reference/src/doifrompdf.py:114-126):
    the document-information dictionary, from the trailer's /Info reference.

    Keys are returned WITHOUT the leading slash and values decoded to str —
    pdfplumber's ``pdf.metadata`` shape, which is what the reference's
    probe functions receive. Insertion order = the dict's on-disk entry
    order (the last-value-wins quirk of find_identifier_in_pdf_info
    depends on it). Missing/this-parser-unreadable Info -> {}."""
    m = None
    for m in _INFO_REF_RE.finditer(payload):
        pass  # last /Info reference wins (incremental updates append)
    if m is None:
        return {}
    obj_num = int(m.group(1))
    om = re.search(
        rb"(?<![0-9])" + str(obj_num).encode() + rb"\s+0\s+obj\s*<<(.*?)>>",
        payload,
        re.DOTALL,
    )
    out: dict[str, str] = {}
    if om is not None:
        for key, val in _INFO_ENTRY_RE.findall(om.group(1)):
            try:
                out[key.decode("latin-1")] = _decode_pdf_string(val)
            except ValueError:
                continue
    if out:
        return out
    # Fallback: the Info object lives inside an /ObjStm or carries nested
    # dict values the flat regex can't slice — resolve it through the
    # document model (dict insertion order = on-disk entry order there too)
    try:
        doc = PdfDocument(payload)
        d = doc.values.get(obj_num)
        if isinstance(d, dict):
            for key, val in d.items():
                if isinstance(val, bytes):
                    out[key] = decode_text_string(val)
    except Exception:  # noqa: BLE001 — metadata probe must never crash
        return out
    return out


def extract_pdf_text(payload: bytes) -> tuple[str, int]:
    """Full-document text (pages joined with ' ', docscraper.py:205) and
    the page count."""
    pages = extract_pdf_pages(payload)
    return " ".join(pages), len(pages)

