"""The PDF content-stream regex lane against the token lane, and the
glyph-run assembler against the per-character one.

``stages/pdf_parse._extract_glyphs`` interprets a stream through the
regex lane when its cover pattern tiles the whole stream, and through
``_tokenize`` (the token lane) otherwise. Both lanes drive the same
operator dispatch, so on every stream the glyph list (or the exception)
must equal what the token lane alone gives. The token lane is the
oracle: fix a divergence in the regex lane, never in ``_tokenize``.

The glyph list holds runs ``(text, x, y, step)``: character k at
``x + k*step``. ``glyphs_to_text`` and ``glyphs_to_reading_order`` over
runs must give what the per-character assembler kept below
(``reference_text``, the assembler before runs existed) gives over the
runs split into characters.
"""

from __future__ import annotations

import bisect
import math
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from sciscraper_ray.sources.pdf_write import (
    _page_stream,
    append_incremental_update,
    build_pdf,
    build_pdf_structured,
    build_pdf_two_column,
)
from sciscraper_ray.stages.pdf_doc import FontInfo, PdfDocument
from sciscraper_ray.stages.pdf_parse import (
    _COVER_RE,
    _extract_glyphs,
    _interpreter,
    _regex_lane,
    _token_lane,
    _tokenize,
    glyphs_to_reading_order,
    glyphs_to_text,
)

# A /Widths font with an /Encoding remap and a ligature ToUnicode entry,
# a two-byte Type0 font with a ToUnicode CMap, and a widths-less one.
FONTS = {
    "F1": FontInfo({}, None, 1, {}, {}),
    "F2": FontInfo(
        {87: 900.0, 105: 200.0, 32: 250.0}, 500.0, 1, {102: "fi"}, {67: " "}
    ),
    "F3": FontInfo({0x41: 700.0}, 1000.0, 2, {0x41: "A", 0x42: "ß"}, {}),
}


def _outcome(call) -> tuple:
    """("ok", repr of the glyph list) or ("raise", type, message); the
    repr makes NaN coordinates equal and keeps -0.0 apart from 0.0."""
    try:
        return ("ok", repr(call()))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raise", type(exc).__name__, str(exc))


def assert_lanes_agree(stream: bytes, fonts=None) -> bool:
    """``_extract_glyphs``, and the regex lane alone where its pattern
    covers the stream, both equal the token lane; returns whether the
    pattern covered."""

    def through(lane):
        glyphs, run = _interpreter(fonts)
        lane(stream, run)
        return glyphs

    want = _outcome(lambda: through(_token_lane))
    assert _outcome(lambda: _extract_glyphs(stream, fonts)) == want, stream
    covered = _COVER_RE.fullmatch(stream) is not None
    if covered:
        assert _outcome(lambda: through(_regex_lane)) == want, stream
    return covered


# ---------------------------------------------------------------------------
# streams from the synthetic writer

WORDS = "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu".split()
LATIN = " ".join(WORDS * 3)
NON_LATIN = "plain naïve Ωμέγα 日本語 слово mixed ✓ end"


def _page_contents(payload: bytes) -> list[tuple[bytes, dict]]:
    doc = PdfDocument(payload)
    out = [(doc.page_content(n), doc.page_fonts(n)) for n in doc.pages()]
    assert out and all(content for content, _ in out)
    return out


def _builder_payloads() -> list[bytes]:
    base = build_pdf([LATIN, NON_LATIN], lines_per_page=3)
    replacement = _page_stream(["updated page text", NON_LATIN])
    updated = append_incremental_update(
        base,
        5,  # the first page's content stream
        b"<< /Length %d /Filter /FlateDecode >>\nstream\n%s\nendstream"
        % (len(replacement), replacement),
    )
    return [
        build_pdf([LATIN]),
        build_pdf([LATIN, LATIN[:40]], lines_per_page=4),
        build_pdf([NON_LATIN, "Ωμέγα"]),
        build_pdf_structured(
            [LATIN, NON_LATIN],
            outline=[("Intro", 0, 0), ("Detail", 1, 1)],
            links=[(0, (72, 700, 200, 712), "https://example.org/a")],
            info={"Title": "T"},
        ),
        build_pdf_two_column(" ".join(WORDS * 12)),
        build_pdf_two_column(NON_LATIN + " " + LATIN, col_chars=18),
        updated,
    ]


def test_regex_lane_covers_every_builder_stream():
    """A pattern edit that sent the writer's streams to the token lane
    would keep every output and lose only speed: fail it here."""
    payloads = _builder_payloads()
    # the incremental update's first page is the redefined stream
    assert b"(updated) Tj" in _page_contents(payloads[-1])[0][0]
    n = 0
    for payload in payloads:
        for content, fonts in _page_contents(payload):
            assert assert_lanes_agree(content, fonts), content[:200]
            assert assert_lanes_agree(content, FONTS)
            n += 1
    assert n == 11


def test_builder_streams_truncated_at_many_offsets():
    seen_fallback = 0
    for payload in _builder_payloads():
        for content, fonts in _page_contents(payload):
            step = max(1, len(content) // 97)
            for cut in list(range(0, len(content), step)) + [len(content) - 1]:
                covered = assert_lanes_agree(content[:cut], fonts)
                seen_fallback += not covered
    assert seen_fallback  # cuts inside an operand reach the token lane


# ---------------------------------------------------------------------------
# handwritten streams: widths, Type0 + ToUnicode, TJ kerning, Tz, spacing

HANDWRITTEN = [
    # the /Widths page of tests/test_pdf_doc.py
    b"BT /F2 10 Tf 1 0 0 1 50 700 Tm (WWii) Tj 1 0 0 1 80 700 Tm (right) Tj "
    b"0.5 Tc 1 0 0 1 50 650 Tm (ab) Tj ET",
    # odd-length hex pads a 0 (tests/test_extract.py)
    b"<48656C6C6F2> Tj",
    b"BT /F1 12 Tf 72 700 Td <48656C6C6F2> Tj ET",
    # Type0 two-byte codes through a ToUnicode CMap, Tw must not apply
    b"BT /F3 11 Tf 2 Tw 1 0 0 1 72 700 Tm <004100200042 0043> Tj "
    b"[<0041> -120 <0042>] TJ ET",
    # TJ kerning, Tz scaling, Tc/Tw spacing, ligature mapping
    b"BT /F2 9 Tf 80 Tz 0.3 Tc 1.5 Tw 72 690 Td "
    b"[(Wi) -250 (fi) 400 (C i) -33.5 <5769>] TJ 100 Tz (W i) Tj ET",
    # leading: TL, TD, T*, ' and "
    b"BT /F1 10 Tf 14 TL 72 720 Td (one) Tj T* (two) Tj 0 -20 TD (three) ' "
    b"1 0.5 (four) \" ET",
    # graphics state: q/cm/Q around a rotated text matrix
    b"q 0.5 0 0 0.5 10 20 cm BT /F1 8 Tf 0 1 -1 0 300 400 Tm (up) Tj ET Q "
    b"q 1 0 0 1 5 5 cm BT /F2 8 Tf .5 0 0 2 100 100 Tm (sk W) Tj ET Q "
    b"BT (after) Tj ET",
    # non-text operators and their operands ride along untouched (an
    # inline << >> property list is a token-lane trigger)
    b"0 0 1 rg 0.5 w 10 10 100 50 re f /GS1 gs /P <</MCID 0>> BDC EMC "
    b"BT /F1 10 Tf 1 0 0 1 9 9 Tm (x) Tj ET",
    b"/P /MC0 BDC 72 700 m 100 700 l S BT /F9 7 Tf (unknown font) Tj ET",
    # UTF-16 hex words, the writer's non-Latin convention, under every font
    b"BT /F1 10 Tf 1 0 0 1 72 720 Tm <FEFF65E5672C> Tj /F2 10 Tf "
    b"<FEFF03A9> Tj /F3 10 Tf <FEFF0041> Tj ET",
    # operand counts that do not match their operator
    b"BT 1 2 Tm 5 Tf /F1 Tf (a) (b) Tj 3 4 5 Td 1 2 3 4 5 6 7 cm (c) Tj "
    b"(d) 1 Tj TJ [(e)] Tj 7 ' (f) \" Tz Tc Tw TL ET",
    # names where numbers belong: the interpreter raises, in both lanes
    b"BT /F1 /F2 Tf (x) Tj ET",
    b"BT /a Tc (x y) Tj ET",
]


def test_handwritten_streams_agree_under_every_font_table():
    for stream in HANDWRITTEN:
        for fonts in (None, FONTS, {"F1": FONTS["F3"], "F2": FONTS["F1"]}):
            covered = assert_lanes_agree(stream, fonts)
            assert covered == (b"<<" not in stream), stream


def test_handwritten_streams_draw_their_text():
    glyphs = _extract_glyphs(HANDWRITTEN[3], FONTS)
    assert "".join(g[0] for g in glyphs) == "A ßC" + "Aß"
    glyphs = _extract_glyphs(HANDWRITTEN[4], FONTS)
    assert "".join(g[0] for g in glyphs) == "Wifii  iWiW i"


# ---------------------------------------------------------------------------
# hypothesis streams: every token kind and every token-lane trigger

_number = st.one_of(
    st.integers(-9999, 9999).map(str),
    st.floats(-1e4, 1e4, allow_nan=False).map(lambda f: f"{f:.3f}"),
    st.sampled_from(["0", "-0", "+1", ".5", "-.25", "5.", "+.0", "007"]),
)
_name = st.sampled_from(["/F1", "/F2", "/F3", "/", "/GS1", "/a#20b", "/F1/F2"])
_plain = st.text("ab Wfi\t\xe9<>[]/%{}", max_size=6).map(lambda s: f"({s})")
_hex = st.one_of(
    st.binary(max_size=5).map(lambda b: f"<{b.hex()}>"),
    st.sampled_from(["<>", "<4>", "<FE FF 00\n41>", "<004100420020>"]),
)
_scalar = st.one_of(_number, _name, _plain, _hex)
_flat_array = st.lists(_scalar, max_size=4).map(lambda xs: "[" + " ".join(xs) + "]")
_operator = st.sampled_from(
    ["BT", "ET", "Tf", "Tm", "Td", "TD", "T*", "TL", "Tc", "Tw", "Tz", "Tj",
     "TJ", "'", '"', "cm", "q", "Q", "re", "f", "BDC", "EMC", "d0", "W*", "nan",
     "\xff"]
)
# everything the cover pattern must refuse, so the token lane takes it
TRIGGERS = [
    "% comment ( [ <\n", "%", "(esc \\) \\061)", "(a (nested) b)", "(\\",
    "<<", ">>", "<</MCID 3>>", "BI /W 1 /H 1 ID \x00\x01( EI", "BI",
    ")", "]", "[", "{", "}", ">", "1e5", "1.2.3", "-inf", "1_0",
    "--1", "-", ".", "+", "5Tj", "[(a) Tj]", "[[1] 2]", "(unclosed",
    "<4g>", "<\x0b41>", "<\x0041>", "<unclosed",
]
_trigger = st.sampled_from(TRIGGERS)
_sep = st.sampled_from([" ", "\n", "\r\n", "\t", "\x00", "\x0c", "  ", ""])


def _join(parts: list[str], seps: list[str]) -> bytes:
    """``parts`` with the separators in ``seps`` between them, cycled."""
    return "".join(p + seps[k % len(seps)] for k, p in enumerate(parts)).encode(
        "latin-1"
    )


_pair = st.tuples(st.lists(st.one_of(_scalar, _flat_array), max_size=7), _operator)


@st.composite
def covered_streams(draw) -> bytes:
    """Streams of well-formed (operands, operator) pairs."""
    pairs = draw(st.lists(_pair, max_size=25))
    parts = [p for operands, op in pairs for p in (*operands, op)]
    seps = draw(st.lists(_sep.filter(bool), min_size=1, max_size=5))
    return _join(parts, seps)


@st.composite
def any_streams(draw) -> bytes:
    """Pairs, stray operands and token-lane triggers, any separators."""
    parts = draw(
        st.lists(
            st.one_of(_scalar, _flat_array, _operator, _operator, _trigger),
            max_size=40,
        )
    )
    seps = draw(st.lists(_sep, min_size=1, max_size=5))
    return _join(parts, seps)


@settings(max_examples=300, deadline=None)
@given(stream=covered_streams(), fonted=st.booleans())
def test_regex_lane_covers_and_matches_well_formed_streams(stream, fonted):
    assert assert_lanes_agree(stream, FONTS if fonted else None), stream


@settings(max_examples=600, deadline=None)
@given(stream=any_streams(), fonted=st.booleans())
def test_lanes_agree_on_any_stream(stream, fonted):
    assert_lanes_agree(stream, FONTS if fonted else None)


def test_every_trigger_takes_the_token_lane():
    for trigger in TRIGGERS:
        stream = b"BT /F1 10 Tf (a) Tj " + trigger.encode("latin-1") + b" (b) Tj ET"
        assert not assert_lanes_agree(stream, FONTS), trigger


# ---------------------------------------------------------------------------
# bounded time on crafted streams

_VALID = b"1 0 0 1 72 720 Tm (word) Tj /F1 10 Tf [(a) -20 (b)] TJ\n"
CRAFTED = {
    "valid ops, long operator, <<": _VALID * (200_000 // len(_VALID))
    + b"abcdefghijklmn" * 3
    + b" <<",
    "digit run ending in x": b"7" * 200_000 + b"x",
    "1. repeated": b"1." * 100_000,
    "unclosed (": b"(" * 200_000,
}


def test_crafted_streams_finish_in_bounded_time():
    """Each 200 KB stream is refused by the cover pattern and read by the
    token lane in under 1 s."""
    for label, stream in CRAFTED.items():
        t0 = time.perf_counter()
        _extract_glyphs(stream, FONTS)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, (label, elapsed)
        assert _COVER_RE.fullmatch(stream) is None, label


# ---------------------------------------------------------------------------
# glyph runs: the run assembler against the per-character assembler


def characters(runs: list[tuple]) -> list[tuple]:
    """Runs split into 1-character glyphs, in emission order: character k
    of a longer run at ``x + k*step``, advancing by ``step``."""
    out = []
    for run in runs:
        text, x, y, step = run
        if len(text) == 1:
            out.append(run)
        else:
            out.extend((ch, x + k * step, y, step) for k, ch in enumerate(text))
    return out


def reference_text(glyphs, x_tolerance=1.0, y_tolerance=3.0) -> str:
    """The per-character ``glyphs_to_text``: lines by y, words split on
    whitespace glyphs or x-gaps > x_tolerance."""
    if not glyphs:
        return ""
    arr = sorted(glyphs, key=lambda g: (-g[2], g[1]))
    lines = []
    for g in arr:
        if lines and abs(lines[-1][0][2] - g[2]) <= y_tolerance:
            lines[-1].append(g)
        else:
            lines.append([g])
    out_lines = []
    for line in lines:
        line.sort(key=lambda g: g[1])
        words, cur = [], []
        prev_end = None
        for ch, x, _, w in line:
            gap_break = prev_end is not None and (x - prev_end) > x_tolerance
            if ch.isspace() or gap_break:
                if cur:
                    words.append("".join(cur))
                    cur = []
            if not ch.isspace():
                cur.append(ch)
            prev_end = x + w
        if cur:
            words.append("".join(cur))
        out_lines.append(" ".join(words))
    return "\n".join(out_lines)


def reference_split_columns(glyphs, gutter_min=24.0):
    """The per-character ``split_columns``."""
    if not glyphs:
        return []
    iv = sorted((g[1], g[1] + g[3]) for g in glyphs)
    bands = [[iv[0][0], iv[0][1]]]
    for x0, x1 in iv[1:]:
        if x0 > bands[-1][1] + gutter_min:
            bands.append([x0, x1])
        elif x1 > bands[-1][1]:
            bands[-1][1] = x1
    if len(bands) == 1:
        return [list(glyphs)]
    starts = [b[0] for b in bands]
    out = [[] for _ in bands]
    for g in glyphs:
        out[bisect.bisect_right(starts, g[1]) - 1].append(g)
    return out


def reference_reading_order(glyphs) -> str:
    parts = [reference_text(c).replace("\n", " ") for c in reference_split_columns(glyphs)]
    return " ".join(p for p in parts if p)


def assert_runs_assemble_like_characters(runs, x_tolerance=1.0, y_tolerance=3.0):
    chars = characters(runs)
    assert glyphs_to_text(runs, x_tolerance, y_tolerance) == reference_text(
        chars, x_tolerance, y_tolerance
    ), runs
    if (x_tolerance, y_tolerance) == (1.0, 3.0):
        assert glyphs_to_reading_order(runs) == reference_reading_order(chars), runs


def test_builder_streams_draw_one_run_per_shown_string():
    """The writer shows one string per word with ``Tj``; each non-empty
    one must become one glyph run, so the assembler sees words, not
    characters (an empty string draws nothing)."""
    n = 0
    for payload in _builder_payloads():
        for content, fonts in _page_contents(payload):
            tokens = list(_tokenize(content))
            strings = [val for kind, val in tokens if kind == "str"]
            assert sum(1 for kind, val in tokens if kind == "op" and val == b"Tj") == len(strings)
            runs = _extract_glyphs(content, fonts)
            assert len(runs) == sum(1 for s in strings if s), content[:200]
            assert any(len(text) > 1 for text, *_ in runs)
            n += 1
    assert n == 11


def test_builder_pages_assemble_like_characters():
    seen = 0
    for payload in _builder_payloads():
        for content, fonts in _page_contents(payload):
            step = max(1, len(content) // 97)
            for cut in [len(content), *range(0, len(content), step)]:
                try:
                    runs = _extract_glyphs(content[:cut], fonts)
                except Exception:  # noqa: BLE001 - a cut operand may not parse
                    continue
                assert_runs_assemble_like_characters(runs)
                seen += bool(runs)
    assert seen > 100


def test_long_run_spans_its_extent_in_the_column_split():
    """A run reaching past a later run's start leaves no gutter there."""
    runs = [("a" * 40, 72.0, 700.0, 6.0), ("b", 200.0, 686.0, 6.0), ("c", 330.0, 672.0, 6.0)]
    assert glyphs_to_reading_order(runs) == reference_reading_order(characters(runs))
    assert glyphs_to_reading_order(runs) == "a" * 40 + " b c"


def test_nan_coordinate_sorts_runs_and_characters_apart():
    """Python's sort places a NaN key by the comparisons it happens to
    make, which differ between a run and its characters: here the run
    order puts "z" after the NaN glyph and the character order before
    it. A page with a NaN coordinate and a longer run goes by
    characters."""
    runs = [
        ("bcdef", 10.0, 700.0, 6.0),
        ("n", math.nan, 700.0, 6.0),
        ("q", 40.0, 700.0, 6.0),
        ("z", 2.0, 700.0, 6.0),
    ]
    assert_runs_assemble_like_characters(runs)
    assert_runs_assemble_like_characters([(t, x, y if t != "n" else math.nan, s) for t, x, y, s in runs])


_coord = st.one_of(
    st.sampled_from([0.0, 6.0, 12.0, 72.0, 72.5, 700.0, 703.0, -0.0, -12.0]),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 1e17]),
    st.floats(-1000, 1000),
)
_step = st.one_of(
    st.sampled_from([6.0, 7.2, 0.0, -6.0, 0.5, 1e-300, 30.0]),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300]),
    st.floats(-20, 40),
)
_y = st.one_of(
    st.sampled_from([700.0, 700.0, 701.5, 703.0, 704.0, 686.0, 0.0]),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300]),
    st.floats(-10, 800),
)
# words, edge and inner whitespace, all-whitespace runs, ligature letters
_text = st.text("ab fi\t\xa0\ufb01x", min_size=1, max_size=6)


@st.composite
def glyph_runs(draw) -> list[tuple]:
    """Run lists with overlapping runs, equal-x ties between runs of
    different y, zero and negative steps, zero-width ligature glyphs and
    non-finite or huge coordinates."""
    runs = []
    for _ in range(draw(st.integers(0, 10))):
        text = draw(_text)
        x = draw(st.one_of(_coord, st.sampled_from([r[1] for r in runs] or [0.0])))
        y = draw(st.one_of(_y, st.sampled_from([r[2] for r in runs] or [0.0])))
        runs.append((text, x, y, draw(_step)))
        if draw(st.booleans()) and len(text) == 1:
            # a ligature's zero-width tail at the pen end
            runs.append((draw(_text)[:1], x + runs[-1][3], y, 0.0))
    return runs


@st.composite
def line_runs(draw) -> list[tuple]:
    """Well-formed runs, most of them on shared lines: the whole-run path."""
    runs = []
    for _ in range(draw(st.integers(1, 12))):
        text = draw(_text)
        x = float(draw(st.integers(0, 60))) * 6.0 + draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))
        y = draw(st.sampled_from([720.0, 719.0, 706.0, 692.0, 500.0]))
        runs.append((text, x, y, draw(st.sampled_from([6.0, 0.0, 7.2, 1.0]))))
    return runs


@settings(max_examples=600, deadline=None)
@given(runs=glyph_runs())
def test_any_runs_assemble_like_characters(runs):
    assert_runs_assemble_like_characters(runs)


@settings(max_examples=400, deadline=None)
@given(runs=line_runs(), x_tol=st.sampled_from([1.0, 0.0, 0.5, 8.0]), y_tol=st.sampled_from([3.0, 0.0, -1.0]))
def test_line_runs_assemble_like_characters(runs, x_tol, y_tol):
    assert_runs_assemble_like_characters(runs, x_tol, y_tol)
