"""PDF document model: body-object loader, object-syntax parser, and font
width/encoding tables.

Implements the public PDF 32000-1:2008 spec surface the layout parser
(stages/pdf_parse.py) needs to honor real-world files the way the
reference's pdfplumber path does (/root/reference/src/docscraper.py:188-205):

- §7.3 object syntax (dicts, arrays, names, literal/hex strings, refs),
- §7.5.7 object streams (/Type/ObjStm) so Adobe/iText files whose page
  tree lives in a compressed stream resolve,
- §7.7.3 the page tree (with inheritable /Resources),
- §9.6-9.7 font programs: /FirstChar + /Widths per-glyph advances,
  /MissingWidth, Type0 /W + /DW CID widths, /Encoding base +
  /Differences remaps, and /ToUnicode CMaps (bfchar + bfrange).

Objects are discovered by a sequential body scan rather than the xref
table: the scan skips stream payloads (so compressed bytes can't fake an
object header) and later definitions override earlier ones, which makes
incremental-update files resolve to their newest generation for free.
"""

from __future__ import annotations

import re
import zlib

_WS = b"\x00\t\n\x0c\r "
_DELIMS = b"()<>[]{}/%"
_NAME_ESCAPE_RE = re.compile(rb"#([0-9A-Fa-f]{2})")  # §7.3.5
_REF_TAIL_RE = re.compile(rb"\s+(\d+)\s+R(?![A-Za-z0-9])")  # `gen R` after a number


class Ref:
    """Indirect object reference (``num gen R``)."""

    __slots__ = ("num",)

    def __init__(self, num: int):
        self.num = num

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Ref({self.num})"


class Name(str):
    """A /Name token — distinct from text strings (which parse to bytes)."""

    __slots__ = ()


_PDF_ESCAPES = {
    b"n": b"\n", b"r": b"\r", b"t": b"\t", b"b": b"\b", b"f": b"\f",
    b"(": b"(", b")": b")", b"\\": b"\\",
}


def unescape_literal(body: bytes) -> bytes:
    """PDF §7.3.4.2 literal-string escapes: named escapes, octal \\ddd
    (1-3 digits), line continuations (backslash-EOL disappears); any other
    escaped byte falls through as the literal byte."""
    if b"\\" not in body:  # fast path: nothing to unescape
        return body
    out = []
    i = 0
    n = len(body)
    while i < n:
        b = body[i : i + 1]
        if b == b"\\" and i + 1 < n:
            nxt = body[i + 1 : i + 2]
            if nxt in _PDF_ESCAPES:
                out.append(_PDF_ESCAPES[nxt])
                i += 2
            elif nxt.isdigit() and nxt < b"8":
                j = i + 1
                while (
                    j < n
                    and j < i + 4
                    and body[j : j + 1].isdigit()
                    and body[j : j + 1] < b"8"
                ):
                    j += 1
                out.append(bytes([int(body[i + 1 : j], 8) & 0xFF]))
                i = j
            elif nxt in (b"\r", b"\n"):
                i += 2
                if nxt == b"\r" and body[i : i + 1] == b"\n":
                    i += 1
            else:
                out.append(nxt)
                i += 2
        else:
            out.append(b)
            i += 1
    return b"".join(out)


def decode_text_string(raw: bytes) -> str:
    """§7.9.2 text-string decode: UTF-16BE when BOM'd, else PDFDocEncoding
    (latin-1 is byte-faithful for the printable range the engine probes)."""
    if raw[:2] == b"\xfe\xff":
        return raw[2:].decode("utf-16-be", errors="replace")
    return raw.decode("latin-1")


class ObjParser:
    """Recursive-descent parser over one PDF object value (§7.3)."""

    __slots__ = ("buf", "i")

    def __init__(self, buf: bytes, i: int = 0):
        self.buf = buf
        self.i = i

    def _ws(self) -> None:
        buf, n = self.buf, len(self.buf)
        i = self.i
        while i < n:
            c = buf[i]
            if c in _WS:
                i += 1
            elif c == 0x25:  # % comment to EOL
                j = buf.find(b"\n", i)
                i = n if j < 0 else j + 1
            else:
                break
        self.i = i

    def parse(self):
        self._ws()
        buf, i = self.buf, self.i
        if i >= len(buf):
            raise ValueError("eof")
        c = buf[i]
        if buf[i : i + 2] == b"<<":
            return self._dict()
        if c == 0x3C:  # <hex>
            j = buf.find(b">", i + 1)
            if j < 0:
                raise ValueError("unterminated hex string")
            digits = b"".join(buf[i + 1 : j].split())
            if len(digits) % 2:
                digits += b"0"
            self.i = j + 1
            return bytes.fromhex(digits.decode("ascii"))
        if c == 0x5B:  # [
            self.i = i + 1
            out = []
            while True:
                self._ws()
                if self.i >= len(buf):
                    raise ValueError("unterminated array")
                if buf[self.i] == 0x5D:
                    self.i += 1
                    return out
                out.append(self.parse())
        if c == 0x28:  # (literal)
            depth, j = 1, i + 1
            while j < len(buf) and depth:
                b = buf[j]
                if b == 0x5C:
                    j += 2
                    continue
                if b == 0x28:
                    depth += 1
                elif b == 0x29:
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            if depth:
                raise ValueError("unterminated literal string")
            self.i = j + 1
            return unescape_literal(buf[i + 1 : j])
        if c == 0x2F:  # /Name
            j = i + 1
            while j < len(buf) and buf[j] not in _WS and buf[j] not in _DELIMS:
                j += 1
            self.i = j
            raw = buf[i + 1 : j]
            # §7.3.5 #xx hex escapes in names
            if b"#" in raw:
                raw = _NAME_ESCAPE_RE.sub(
                    lambda m: bytes([int(m.group(1), 16)]), raw
                )
            return Name(raw.decode("latin-1"))
        # number / ref / keyword
        j = i
        while j < len(buf) and buf[j] not in _WS and buf[j] not in _DELIMS:
            j += 1
        tok = buf[i:j]
        self.i = j
        if tok == b"true":
            return True
        if tok == b"false":
            return False
        if tok == b"null":
            return None
        try:
            if b"." in tok:
                return float(tok)
            num = int(tok)
        except ValueError as exc:
            raise ValueError(f"bad token {tok[:20]!r}") from exc
        # `num gen R` lookahead -> Ref
        m = _REF_TAIL_RE.match(buf, self.i)
        if m and num >= 0:
            self.i = m.end()
            return Ref(num)
        return num

    def _dict(self) -> dict:
        self.i += 2
        out: dict = {}
        while True:
            self._ws()
            if self.buf[self.i : self.i + 2] == b">>":
                self.i += 2
                return out
            key = self.parse()
            if not isinstance(key, Name):
                raise ValueError("dict key is not a name")
            out[str(key)] = self.parse()


_OBJ_HDR = re.compile(rb"(\d+)\s+(\d+)\s+obj\b")
_STREAM_AT = re.compile(rb"stream(?:\r\n|\n|\r)")


def load_objects(payload: bytes) -> tuple[dict[int, object], dict[int, bytes]]:
    """Sequential body scan -> ({num: value}, {num: raw stream bytes}).

    Streams are sliced by /Length (resolving an indirect /Length through a
    one-off regex probe) and the scan cursor jumps past stream payloads so
    binary bytes can never be misread as an object header. Later
    definitions of the same object number override earlier ones
    (incremental updates append, newest wins)."""
    values: dict[int, object] = {}
    streams: dict[int, bytes] = {}
    pos = 0
    n = len(payload)
    while pos < n:
        m = _OBJ_HDR.search(payload, pos)
        if m is None:
            break
        num = int(m.group(1))
        p = ObjParser(payload, m.end())
        try:
            val = p.parse()
        except (ValueError, IndexError):
            pos = m.end()
            continue
        p._ws()
        sm = _STREAM_AT.match(payload, p.i)
        if sm is None:
            values[num] = val
            pos = p.i
            continue
        data_start = sm.end()
        length = val.get("Length") if isinstance(val, dict) else None
        candidates: list[int] = []
        if isinstance(length, Ref):
            # Indirect /Length: probe every 'N g obj <int>' definition,
            # NEWEST FIRST (incremental updates append — later definitions
            # override, same policy as the object map below). Each
            # candidate must still pass the endstream-window check, which
            # also rejects probe hits that landed inside another stream's
            # compressed payload.
            candidates = [
                int(lm.group(1))
                for lm in re.finditer(
                    rb"(?<![0-9])"
                    + str(length.num).encode()
                    + rb"\s+\d+\s+obj\s*(\d+)",
                    payload,
                )
            ][::-1]
        elif isinstance(length, (int, float)) and length >= 0:
            candidates = [int(length)]
        raw = None
        for cand in candidates:
            end = data_start + cand
            # sanity: `endstream` must follow within a short EOL window,
            # else the declared length is broken and we rescan
            if payload.find(b"endstream", end, end + 32) >= 0:
                raw = payload[data_start:end]
                break
        if raw is None:
            end = payload.find(b"endstream", data_start)
            if end < 0:
                end = n
            raw = payload[data_start:end].rstrip(b"\r\n")
        values[num] = val
        streams[num] = raw
        nxt = payload.find(b"endstream", data_start + len(raw))
        pos = nxt + len(b"endstream") if nxt >= 0 else data_start + len(raw)
    return values, streams


# --------------------------------------------------------------------------
# Fonts

# WinAnsiEncoding codes that differ from latin-1 (§D.2): the 0x80-0x9F
# window latin-1 leaves as C1 controls.
_WINANSI_DIFFS = {
    0x80: "€", 0x82: "‚", 0x83: "ƒ", 0x84: "„",
    0x85: "…", 0x86: "†", 0x87: "‡", 0x88: "ˆ",
    0x89: "‰", 0x8A: "Š", 0x8B: "‹", 0x8C: "Œ",
    0x8E: "Ž", 0x91: "‘", 0x92: "’", 0x93: "“",
    0x94: "”", 0x95: "•", 0x96: "–", 0x97: "—",
    0x98: "˜", 0x99: "™", 0x9A: "š", 0x9B: "›",
    0x9C: "œ", 0x9E: "ž", 0x9F: "Ÿ",
}

# Adobe-Glyph-List subset covering the names /Differences arrays use in
# practice (ASCII punctuation + typographic extras); single-letter names
# map to themselves, uniXXXX/uXXXX parse numerically.
_AGL = {
    "space": " ", "exclam": "!", "quotedbl": '"', "numbersign": "#",
    "dollar": "$", "percent": "%", "ampersand": "&", "quotesingle": "'",
    "parenleft": "(", "parenright": ")", "asterisk": "*", "plus": "+",
    "comma": ",", "hyphen": "-", "period": ".", "slash": "/",
    "zero": "0", "one": "1", "two": "2", "three": "3", "four": "4",
    "five": "5", "six": "6", "seven": "7", "eight": "8", "nine": "9",
    "colon": ":", "semicolon": ";", "less": "<", "equal": "=",
    "greater": ">", "question": "?", "at": "@", "bracketleft": "[",
    "backslash": "\\", "bracketright": "]", "asciicircum": "^",
    "underscore": "_", "grave": "`", "braceleft": "{", "bar": "|",
    "braceright": "}", "asciitilde": "~", "quoteleft": "‘",
    "quoteright": "’", "quotedblleft": "“",
    "quotedblright": "”", "endash": "–", "emdash": "—",
    "bullet": "•", "ellipsis": "…", "fi": "ﬁ",
    "fl": "ﬂ", "dagger": "†", "daggerdbl": "‡",
    "copyright": "©", "registered": "®", "trademark": "™",
    "degree": "°", "plusminus": "±", "multiply": "×",
    "divide": "÷", "germandbls": "ß", "ae": "æ",
    "AE": "Æ", "oe": "œ", "OE": "Œ",
}


def _glyph_name_to_char(name: str) -> str | None:
    if len(name) == 1:
        return name
    if name in _AGL:
        return _AGL[name]
    if name.startswith("uni") and len(name) >= 7:
        try:
            return chr(int(name[3:7], 16))
        except ValueError:
            return None
    if name.startswith("u") and 5 <= len(name) <= 7:
        try:
            return chr(int(name[1:], 16))
        except ValueError:
            return None
    return None


_HEX_PAIR_RE = re.compile(
    rb"<([0-9A-Fa-f]+)>\s*<([0-9A-Fa-f]+)>"
)
_BFRANGE_ITEM_RE = re.compile(
    rb"<([0-9A-Fa-f]+)>\s*<([0-9A-Fa-f]+)>\s*(<[0-9A-Fa-f]+>|\[[^\]]*\])"
)


def parse_tounicode(cmap: bytes) -> dict[int, str]:
    """§9.10.3 ToUnicode CMap: bfchar pairs + bfrange runs -> {code: text}.
    Source codes parse as integers whatever their hex width (iText writes
    1-byte fonts with <0020>-style 2-byte keys)."""
    out: dict[int, str] = {}

    def _dst(hexs: bytes) -> str:
        raw = bytes.fromhex(hexs.decode("ascii"))
        return raw.decode("utf-16-be", errors="replace")

    for sec in re.findall(rb"beginbfchar(.*?)endbfchar", cmap, re.DOTALL):
        for src, dst in _HEX_PAIR_RE.findall(sec):
            out[int(src, 16)] = _dst(dst)
    for sec in re.findall(rb"beginbfrange(.*?)endbfrange", cmap, re.DOTALL):
        for lo_h, hi_h, dst in _BFRANGE_ITEM_RE.findall(sec):
            lo, hi = int(lo_h, 16), int(hi_h, 16)
            if hi - lo > 0xFFFF:  # corrupt range: refuse to expand
                continue
            if dst.startswith(b"["):
                items = re.findall(rb"<([0-9A-Fa-f]+)>", dst)
                for k, item in enumerate(items):
                    if lo + k <= hi:
                        out[lo + k] = _dst(item)
            else:
                base_raw = bytes.fromhex(dst[1:-1].decode("ascii"))
                base = int.from_bytes(base_raw, "big")
                width = len(base_raw)
                for c in range(lo, hi + 1):
                    out[c] = (
                        (base + c - lo)
                        .to_bytes(width, "big")
                        .decode("utf-16-be", errors="replace")
                        if width >= 2
                        else chr(base + c - lo)
                    )
    return out


class FontInfo:
    """Per-glyph advance + text decode for one font resource.

    ``width(code)`` returns the advance in 1/1000 text-space units, or
    None when the font declares no metric for the code (the interpreter
    falls back to its documented default em)."""

    __slots__ = (
        "widths",
        "default_width",
        "code_bytes",
        "to_unicode",
        "encoding",
        "trivial",
    )

    def __init__(
        self,
        widths: dict[int, float],
        default_width: float | None,
        code_bytes: int,
        to_unicode: dict[int, str],
        encoding: dict[int, str],
    ):
        self.widths = widths
        self.default_width = default_width
        self.code_bytes = code_bytes
        self.to_unicode = to_unicode
        self.encoding = encoding
        # trivial = no declared metric and byte-identity text (the
        # widths-less standard-font shape the synthetic writer emits):
        # the interpreter can skip per-code lookups entirely
        self.trivial = (
            not widths
            and default_width is None
            and not to_unicode
            and not encoding
            and code_bytes == 1
        )

    def width(self, code: int) -> float | None:
        w = self.widths.get(code)
        return self.default_width if w is None else w

    def decode(self, raw: bytes) -> list[tuple[int, str]]:
        """(code, unicode text) per glyph. Priority: ToUnicode CMap, then
        /Encoding (base + Differences), then byte-identity (latin-1)."""
        if self.code_bytes == 2:
            codes = [
                int.from_bytes(raw[i : i + 2], "big")
                for i in range(0, len(raw) - len(raw) % 2, 2)
            ]
        else:
            codes = list(raw)
        out = []
        for code in codes:
            ch = self.to_unicode.get(code)
            if ch is None:
                ch = self.encoding.get(code)
            if ch is None:
                ch = chr(code) if code < 256 else "�"
            out.append((code, ch))
        return out


class PdfDocument:
    """Body-scan document model: object map, page tree, font tables."""

    def __init__(self, payload: bytes):
        self.values, self._raw_streams = load_objects(payload)
        self._decoded: dict[int, bytes | None] = {}
        self._fonts: dict[int, FontInfo] = {}
        self._expand_object_streams()

    # -- objects ----------------------------------------------------------
    def resolve(self, v, depth: int = 0):
        while isinstance(v, Ref) and depth < 32:
            v = self.values.get(v.num)
            depth += 1
        return v

    def stream_data(self, num: int) -> bytes | None:
        """Decoded stream bytes (FlateDecode only; other filters -> None)."""
        if num in self._decoded:
            return self._decoded[num]
        raw = self._raw_streams.get(num)
        data: bytes | None = None
        if raw is not None:
            val = self.values.get(num)
            filt = self.resolve(val.get("Filter")) if isinstance(val, dict) else None
            filters = filt if isinstance(filt, list) else ([filt] if filt else [])
            data = raw
            for f in filters:
                f = self.resolve(f)
                if f == "FlateDecode":
                    try:
                        data = zlib.decompress(data)
                    except zlib.error:
                        data = None
                        break
                else:  # unsupported filter (DCT, LZW, ...): not text-bearing
                    data = None
                    break
        self._decoded[num] = data
        return data

    def _expand_object_streams(self) -> None:
        for num, val in list(self.values.items()):
            if not (isinstance(val, dict) and val.get("Type") == "ObjStm"):
                continue
            data = self.stream_data(num)
            if data is None:
                continue
            try:
                first = int(self.resolve(val.get("First")))
                count = int(self.resolve(val.get("N")))
                header = data[:first].split()
                for k in range(count):
                    onum = int(header[2 * k])
                    off = int(header[2 * k + 1])
                    p = ObjParser(data, first + off)
                    obj = p.parse()
                    # plain body objects win (they are the incremental
                    # update layer); ObjStm fills the rest
                    self.values.setdefault(onum, obj)
            except (ValueError, IndexError):
                continue

    # -- page tree ----------------------------------------------------------
    def pages(self) -> list[dict]:
        root = None
        for v in self.values.values():
            if isinstance(v, dict) and v.get("Type") == "Catalog":
                root = v  # last catalog wins (incremental updates)
        out: list[dict] = []

        def walk(node, depth: int = 0) -> None:
            node = self.resolve(node)
            if not isinstance(node, dict) or depth > 64:
                return
            if node.get("Type") == "Page":
                out.append(node)
                return
            kids = self.resolve(node.get("Kids"))
            if isinstance(kids, list):
                for kid in kids:
                    walk(kid, depth + 1)

        if root is not None:
            walk(root.get("Pages"))
        if not out:  # damaged/absent tree: every /Type/Page in number order
            for num in sorted(self.values):
                v = self.values[num]
                if isinstance(v, dict) and v.get("Type") == "Page":
                    out.append(v)
        return out

    def _inherited(self, page: dict, key: str):
        node, depth = page, 0
        while isinstance(node, dict) and depth < 64:
            if key in node:
                return self.resolve(node[key])
            node = self.resolve(node.get("Parent"))
            depth += 1
        return None

    def page_content(self, page: dict) -> bytes:
        """Concatenated decoded content streams (§7.8.2: a page's content
        may be split across an array of streams; they form one stream)."""
        contents = page.get("Contents")
        if isinstance(contents, Ref):
            inner = self.values.get(contents.num)
            refs = inner if isinstance(inner, list) else [contents]
        elif isinstance(contents, list):
            refs = contents
        else:
            return b""
        parts = []
        for ref in refs:
            if isinstance(ref, Ref):
                data = self.stream_data(ref.num)
                if data is not None:
                    parts.append(data)
        return b"\n".join(parts)

    # -- fonts --------------------------------------------------------------
    def page_fonts(self, page: dict) -> dict[str, FontInfo]:
        res = self._inherited(page, "Resources")
        if not isinstance(res, dict):
            return {}
        fdict = self.resolve(res.get("Font"))
        if not isinstance(fdict, dict):
            return {}
        out = {}
        for name, ref in fdict.items():
            font = self._font(ref)
            if font is not None:
                out[name] = font
        return out

    def _font(self, ref) -> FontInfo | None:
        num = ref.num if isinstance(ref, Ref) else None
        if num is not None and num in self._fonts:
            return self._fonts[num]
        d = self.resolve(ref)
        if not isinstance(d, dict):
            return None
        font = self._build_font(d)
        if num is not None and font is not None:
            self._fonts[num] = font
        return font

    def _build_font(self, d: dict) -> FontInfo | None:
        subtype = self.resolve(d.get("Subtype"))
        to_unicode: dict[int, str] = {}
        tu = d.get("ToUnicode")
        if isinstance(tu, Ref):
            data = self.stream_data(tu.num)
            if data:
                to_unicode = parse_tounicode(data)

        if subtype == "Type0":
            desc_list = self.resolve(d.get("DescendantFonts"))
            desc = (
                self.resolve(desc_list[0])
                if isinstance(desc_list, list) and desc_list
                else None
            )
            widths: dict[int, float] = {}
            default_w: float | None = 1000.0
            if isinstance(desc, dict):
                dw = self.resolve(desc.get("DW"))
                if isinstance(dw, (int, float)):
                    default_w = float(dw)
                warr = self.resolve(desc.get("W"))
                if isinstance(warr, list):
                    i = 0
                    while i < len(warr):
                        a = self.resolve(warr[i])
                        nxt = self.resolve(warr[i + 1]) if i + 1 < len(warr) else None
                        if isinstance(nxt, list):
                            for j, w in enumerate(nxt):
                                w = self.resolve(w)
                                if isinstance(w, (int, float)):
                                    widths[int(a) + j] = float(w)
                            i += 2
                        elif i + 2 < len(warr):
                            w = self.resolve(warr[i + 2])
                            if isinstance(w, (int, float)):
                                for c in range(int(a), int(nxt) + 1):
                                    widths[c] = float(w)
                            i += 3
                        else:
                            break
            return FontInfo(widths, default_w, 2, to_unicode, {})

        # simple fonts (Type1/TrueType/Type3): FirstChar + Widths
        widths = {}
        first = self.resolve(d.get("FirstChar"))
        warr = self.resolve(d.get("Widths"))
        if isinstance(first, (int, float)) and isinstance(warr, list):
            for j, w in enumerate(warr):
                w = self.resolve(w)
                if isinstance(w, (int, float)):
                    widths[int(first) + j] = float(w)
        default_w = None
        fdesc = self.resolve(d.get("FontDescriptor"))
        if isinstance(fdesc, dict):
            mw = self.resolve(fdesc.get("MissingWidth"))
            if isinstance(mw, (int, float)):
                default_w = float(mw)

        encoding: dict[int, str] = {}
        enc = self.resolve(d.get("Encoding"))
        base = enc if isinstance(enc, str) else None
        diffs = None
        if isinstance(enc, dict):
            base = self.resolve(enc.get("BaseEncoding"))
            diffs = self.resolve(enc.get("Differences"))
        if base == "WinAnsiEncoding":
            encoding.update(_WINANSI_DIFFS)
        if isinstance(diffs, list):
            code = 0
            for item in diffs:
                item = self.resolve(item)
                if isinstance(item, (int, float)):
                    code = int(item)
                elif isinstance(item, Name):
                    ch = _glyph_name_to_char(str(item))
                    if ch is not None:
                        encoding[code] = ch
                    code += 1
        return FontInfo(widths, default_w, 1, to_unicode, encoding)
