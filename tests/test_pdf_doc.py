"""Document-model + font-metrics tests (stages/pdf_doc.py) and real-PDF
fidelity goldens on the reference's own pytest fixture (a 6-page Adobe/iText
journal article with subset Type1 fonts, /Widths tables, Tc/Tw spacing,
TJ kerning, an ObjStm'd page tree, and split content-stream arrays)."""

import os
import zlib

import pytest

from sciscraper_ray.stages.pdf_doc import (
    FontInfo,
    Name,
    ObjParser,
    PdfDocument,
    Ref,
    parse_tounicode,
)
from sciscraper_ray.stages.pdf_parse import extract_pdf_pages, extract_pdf_text
from sciscraper_ray.words import REFERENCE_ROOT

REFERENCE_PDF = str(REFERENCE_ROOT / "tests" / "test_dirs" / "test_pdf_1.pdf")
needs_reference_pdf = pytest.mark.skipif(
    not os.path.isfile(REFERENCE_PDF),
    reason=f"reference file absent: {REFERENCE_PDF}",
)


# ---------------------------------------------------------------------------
# object-syntax parser


def parse(buf: bytes):
    return ObjParser(buf).parse()


def test_obj_parser_scalars_and_names():
    assert parse(b" 42 ") == 42
    assert parse(b"-3.5") == -3.5
    assert parse(b"true") is True
    assert parse(b"false") is False
    assert parse(b"null") is None
    assert parse(b"/WinAnsiEncoding x") == "WinAnsiEncoding"
    assert isinstance(parse(b"/Foo"), Name)
    # §7.3.5 #xx hex escape in names
    assert parse(b"/A#20B") == "A B"


def test_obj_parser_refs_vs_ints():
    v = parse(b"7 0 R")
    assert isinstance(v, Ref) and v.num == 7
    # a bare int followed by another int is NOT a ref
    assert parse(b"7 0 obj") == 7
    arr = parse(b"[1 2 R 3]")  # 1 stays int; `2 R`? no — [1, Ref(2)? ...]
    # `1 2 R` inside an array IS ref syntax: [Ref(1), 3]
    assert isinstance(arr[0], Ref) and arr[0].num == 1 and arr[1] == 3


def test_obj_parser_strings():
    assert parse(rb"(simple)") == b"simple"
    assert parse(rb"(nested (parens) ok)") == b"nested (parens) ok"
    assert parse(rb"(esc \( \) \\ \n \101)") == b"esc ( ) \\ \n A"
    assert parse(b"<48656C6C6F2>") == b"Hello "  # odd digit pads 0
    assert parse(b"<48 65 6C>") == b"Hel"  # whitespace inside hex ok


def test_obj_parser_dicts_and_arrays():
    d = parse(b"<< /Type /Page /MediaBox [0 0 612 792] /Parent 2 0 R >>")
    assert d["Type"] == "Page"
    assert d["MediaBox"] == [0, 0, 612, 792]
    assert isinstance(d["Parent"], Ref) and d["Parent"].num == 2
    # nested dicts + comments
    d2 = parse(b"<< /A << /B 1 >> % comment\n /C (s) >>")
    assert d2["A"] == {"B": 1} and d2["C"] == b"s"


# ---------------------------------------------------------------------------
# ToUnicode CMaps


def test_parse_tounicode_bfchar_and_bfrange():
    cmap = (
        b"2 beginbfchar\n<1F> <00A0>\n<0041> <0058>\nendbfchar\n"
        b"1 beginbfrange\n<61> <63> <0041>\nendbfrange\n"
        b"1 beginbfrange\n<70> <71> [<0050> <0051>]\nendbfrange\n"
    )
    m = parse_tounicode(cmap)
    assert m[0x1F] == " "
    assert m[0x41] == "X"  # iText writes 1-byte fonts with 2-byte keys
    assert m[0x61] == "A" and m[0x62] == "B" and m[0x63] == "C"
    assert m[0x70] == "P" and m[0x71] == "Q"


def test_font_info_widths_and_decode():
    f = FontInfo(
        widths={65: 700.0, 32: 250.0},
        default_width=500.0,
        code_bytes=1,
        to_unicode={66: "Z"},
        encoding={67: " "},
    )
    assert f.width(65) == 700.0
    assert f.width(99) == 500.0  # MissingWidth fallback
    # priority: ToUnicode > encoding > identity
    assert f.decode(b"ABC") == [(65, "A"), (66, "Z"), (67, " ")]


def test_type0_two_byte_decode():
    f = FontInfo({}, 1000.0, 2, {0x0041: "A"}, {})
    assert f.decode(b"\x00\x41\x00\x42") == [(0x41, "A"), (0x42, "B")]


# ---------------------------------------------------------------------------
# a hand-built document: page tree, ObjStm, /Widths + /Differences fonts


def _mini_pdf_with_widths() -> bytes:
    """Two-column page over a /Widths font whose glyphs are NOT 0.6 em:
    'i' = 200/1000, 'W' = 900/1000 at size 10. The left column word ends in
    wide glyphs, so a fixed-0.6em parser would misplace the pen by >3pt and
    split/merge the columns differently."""
    content = zlib.compress(
        b"BT /F1 10 Tf "
        b"1 0 0 1 50 700 Tm (WWii) Tj "  # left col: ends at 50+2*9+2*2=72
        b"1 0 0 1 80 700 Tm (right) Tj "  # gap 8pt -> word break
        b"0.5 Tc 1 0 0 1 50 650 Tm (ab) Tj "  # char spacing joins within word
        b"ET"
    )
    # widths for codes 87 'W'=900, 105 'i'=200, a-z default via MissingWidth
    objs = [
        b"<< /Type /Catalog /Pages 2 0 R >>",
        b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        b"<< /Type /Page /Parent 2 0 R /Contents 4 0 R "
        b"/Resources << /Font << /F1 5 0 R >> >> >>",
        b"<< /Length %d /Filter /FlateDecode >>\nstream\n%s\nendstream"
        % (len(content), content),
        b"<< /Type /Font /Subtype /Type1 /BaseFont /Fake "
        b"/FirstChar 87 /Widths [900 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 200] "
        b"/FontDescriptor 6 0 R >>",
        b"<< /Type /FontDescriptor /FontName /Fake /MissingWidth 500 >>",
    ]
    out = bytearray(b"%PDF-1.4\n")
    for num, body in enumerate(objs, start=1):
        out += b"%d 0 obj\n" % num + body + b"\nendobj\n"
    out += b"trailer\n<< /Root 1 0 R >>\n%%EOF\n"
    return bytes(out)


def test_widths_font_advances_and_word_gaps():
    pages = extract_pdf_pages(_mini_pdf_with_widths())
    assert pages == ["WWii right\nab"]
    # the same page through a 0.6em-only lens would end 'WWii' at x=74
    # (50 + 4*6), shrinking the gap to 6pt — still a break, but the
    # real-metrics pen lands at 72: assert the document model resolved
    # per-code widths rather than the fallback
    doc = PdfDocument(_mini_pdf_with_widths())
    (page,) = doc.pages()
    fonts = doc.page_fonts(page)
    assert fonts["F1"].width(ord("W")) == 900.0
    assert fonts["F1"].width(ord("i")) == 200.0
    assert fonts["F1"].width(ord("z")) == 500.0  # MissingWidth


def test_objstm_objects_resolve():
    """Page tree living inside a compressed /ObjStm (the Adobe/iText
    layout) resolves: values parse, plain body objects keep priority."""
    inner1 = b"<< /Type /Catalog /Pages 11 0 R >>"
    inner2 = b"<< /Type /Pages /Kids [] /Count 0 >>"
    header = b"10 0 11 %d " % len(inner1)
    data = header + inner1 + b" " + inner2
    stream = zlib.compress(data)
    payload = (
        b"%%PDF-1.5\n1 0 obj\n<< /Type /ObjStm /N 2 /First %d /Length %d "
        b"/Filter /FlateDecode >>\nstream\n%s\nendstream\nendobj\n"
        % (len(header), len(stream), stream)
    )
    doc = PdfDocument(payload)
    assert doc.values[10]["Type"] == "Catalog"
    assert doc.values[11]["Type"] == "Pages"


# ---------------------------------------------------------------------------
# real-world fidelity goldens: the reference's own fixture


@needs_reference_pdf
def test_reference_fixture_page_tree_and_fonts():
    data = open(REFERENCE_PDF, "rb").read()
    doc = PdfDocument(data)
    pages = doc.pages()
    assert len(pages) == 6  # via catalog -> /Pages in the ObjStm
    fonts = doc.page_fonts(pages[0])
    # the five subset Type1 fonts of page 1, each with /Widths
    assert set(fonts) == {"T1_0", "T1_1", "T1_2", "T1_3", "T1_4"}
    garamond = fonts["T1_1"]  # RPVIMA+ITCGaramondStd-Lt, FirstChar 31
    assert garamond.width(ord("a")) == 480.0  # from the /Widths array
    assert garamond.width(ord("W")) == 920.0
    # /Differences [31 /uni00A0] over WinAnsi (plus the ToUnicode CMap)
    assert garamond.decode(b"\x1f")[0][1] == " "
    times = fonts["T1_0"]  # TXUUOW+TimesNewRomanPSMT, FirstChar 46
    assert times.width(ord(".")) == 250.0


@needs_reference_pdf
def test_reference_fixture_text_fidelity_goldens():
    """Pinned real-PDF layout behavior (VERDICT r2 item 4): per-glyph
    /Widths advances + Tc/Tw spacing + TJ kerning + scaled-leading T*
    produce pdfplumber-faithful lines. Each golden would fail under the
    old fixed-0.6em metric (words merged/split at wrong pen positions,
    and the unscaled-leading bug collapsed all lines of a 10x-scaled
    text matrix into one)."""
    data = open(REFERENCE_PDF, "rb").read()
    pages = extract_pdf_pages(data)
    assert len(pages) == 6
    p2 = pages[1]
    # word segmentation across Tc/Tw runs (left column of page 2)
    assert "Thus, the latent-mental-construct perspective has" in p2
    # kerned hyphen lands flush after 'sur' (TJ offset + Td reposition);
    # the two columns of one visual line merge with a single space —
    # pdfplumber's extract_text does the same for multi-column layouts
    assert "contributed to the controversy that sur- that is" in p2
    # the next visual line starts with the hyphenated continuation
    assert "\nrounds the notion of implicit bias." in p2
    # full-document assembly: pages joined with ' ' (docscraper.py:205)
    text, n = extract_pdf_text(data)
    assert n == 6
    assert "10.1177/1745691619855638" in text  # the article's own DOI
    assert len(text) > 25_000


def test_info_inside_objstm_resolves_via_document_model():
    """extract_pdf_info's flat-regex path can't see an /Info object living
    inside a compressed /ObjStm; the document-model fallback resolves it
    with on-disk entry order preserved."""
    from sciscraper_ray.stages.pdf_parse import extract_pdf_info

    inner = b"<< /Title (Deep) /doi (10.1/x) >>"
    hdr = b"5 0 "
    stream = zlib.compress(hdr + inner)
    payload = (
        b"%PDF-1.5\n1 0 obj\n<< /Type /ObjStm /N 1 /First "
        + str(len(hdr)).encode()
        + b" /Length "
        + str(len(stream)).encode()
        + b" /Filter /FlateDecode >>\nstream\n"
        + stream
        + b"\nendstream\nendobj\ntrailer << /Root 2 0 R /Info 5 0 R >>\n%%EOF"
    )
    assert extract_pdf_info(payload) == {"Title": "Deep", "doi": "10.1/x"}
