"""From-scratch PNG codec (stdlib ``zlib`` + ``struct`` only).

Implements the public PNG specification (W3C PNG, RFC 2083): chunk
framing with CRC-32 validation, IHDR/PLTE/IDAT/IEND, zlib inflate, all
five scanline filters (None/Sub/Up/Average/Paeth), every legal bit
depth (1/2/4/8/16) for every legal color-type combination, and Adam7
interlacing (seven-pass sub-image extraction). No query or CLI mode
calls it: the media tier it served is gone, and the reference decodes no
image format (its ``downloaders.py:283-366`` only fetches and stores
figure files). It is the last piece of that tier and is due for deletion
(ROADMAP Direction 5(a)).

Sample semantics: sub-byte gray/palette samples are returned at their
RAW code values (0..2**depth-1, uint8) and 16-bit samples as uint16 —
no rescale to 8-bit, so round-trips are exact.

Performance notes: decode is inherently per-payload work. Within one image,
Up is fully vectorized, Sub is a per-lane prefix-sum (mod 256, exact via
``np.cumsum`` in a wider dtype), and Average/Paeth vectorize across the
pixel's channel lanes with a sequential pass along x — the spec's data
dependence, not a Python-loop accident. Sub-byte bit packing uses
``np.unpackbits``/``np.packbits`` (MSB-first, matching the spec's
pixel-packing order).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"

# color type -> samples per pixel
_CHANNELS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}
# legal bit depths per color type (PNG spec §11.2.2, Table 11.1)
_LEGAL_DEPTHS = {
    0: (1, 2, 4, 8, 16),
    2: (8, 16),
    3: (1, 2, 4, 8),
    4: (8, 16),
    6: (8, 16),
}
# inferred color type when encoding from an (h, w, c) array
_COLOR_TYPE_FOR_C = {1: 0, 2: 4, 3: 2, 4: 6}

# Adam7 pass grid: (x_start, y_start, x_step, y_step), spec §8.2
_ADAM7 = (
    (0, 0, 8, 8),
    (4, 0, 8, 8),
    (0, 4, 4, 8),
    (2, 0, 4, 4),
    (0, 2, 2, 4),
    (1, 0, 2, 2),
    (0, 1, 1, 2),
)


class PngError(ValueError):
    """Malformed or out-of-scope PNG payload."""


def _chunk(ctype: bytes, data: bytes) -> bytes:
    return (
        struct.pack(">I", len(data))
        + ctype
        + data
        + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF)
    )


def _paeth(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Vectorized Paeth predictor over int16/int32 inputs."""
    p = a.astype(np.int32) + b.astype(np.int32) - c.astype(np.int32)
    pa_ = np.abs(p - a)
    pb = np.abs(p - b)
    pc_ = np.abs(p - c)
    out = np.where((pa_ <= pb) & (pa_ <= pc_), a, np.where(pb <= pc_, b, c))
    return out.astype(np.uint8)


def _row_stride(w: int, depth: int, channels: int) -> int:
    """Bytes per packed scanline (spec: rows pad to a byte boundary)."""
    return (w * depth * channels + 7) // 8


def _filter_bpp(depth: int, channels: int) -> int:
    """Filter byte distance: whole bytes per pixel, min 1 (spec §9.2)."""
    return max(1, (depth * channels) // 8)


# ---------------------------------------------------------------------------
# Decoder
# ---------------------------------------------------------------------------


def _defilter(raw: bytes, h: int, stride: int, bpp: int) -> np.ndarray:
    """Filtered scanline stream -> (h, stride) uint8 recon byte array."""
    if len(raw) != h * (stride + 1):
        raise PngError(
            f"decompressed IDAT length {len(raw)} != expected {h * (stride + 1)}"
        )
    lines = np.frombuffer(raw, np.uint8).reshape(h, stride + 1)
    ftypes = lines[:, 0]
    data = lines[:, 1:]
    recon = np.zeros((h, stride), np.uint8)
    prev = np.zeros(stride, np.uint8)
    nlanes = stride // bpp  # whole filter lanes; stride % bpp == 0 always
    for y in range(h):
        f = int(ftypes[y])
        row = data[y]
        if f == 0:  # None
            cur = row.copy()
        elif f == 1:  # Sub: prefix-sum per bpp lane, mod 256
            cur = (
                np.cumsum(row.reshape(nlanes, bpp).astype(np.uint32), axis=0)
                % 256
            ).astype(np.uint8).reshape(stride)
        elif f == 2:  # Up
            cur = row + prev  # uint8 wraps mod 256
        elif f == 3:  # Average
            cur = np.empty(stride, np.uint8)
            left = np.zeros(bpp, np.uint16)
            for x in range(nlanes):
                s = slice(x * bpp, (x + 1) * bpp)
                cur[s] = row[s] + ((left + prev[s]) >> 1).astype(np.uint8)
                left = cur[s].astype(np.uint16)
        elif f == 4:  # Paeth
            cur = np.empty(stride, np.uint8)
            left = np.zeros(bpp, np.uint8)
            upleft = np.zeros(bpp, np.uint8)
            for x in range(nlanes):
                s = slice(x * bpp, (x + 1) * bpp)
                cur[s] = row[s] + _paeth(left, prev[s], upleft)
                left = cur[s]
                upleft = prev[s].copy()
        else:
            raise PngError(f"unknown filter type {f} on scanline {y}")
        recon[y] = cur
        prev = cur
    return recon


def _rows_to_samples(
    recon: np.ndarray, w: int, depth: int, channels: int
) -> np.ndarray:
    """(h, stride) packed recon bytes -> (h, w, channels) sample array."""
    h = recon.shape[0]
    nsamp = w * channels
    if depth == 8:
        return recon[:, :nsamp].reshape(h, w, channels).copy()
    if depth == 16:
        hi = recon[:, 0 : 2 * nsamp : 2].astype(np.uint16)
        lo = recon[:, 1 : 2 * nsamp : 2].astype(np.uint16)
        return ((hi << 8) | lo).reshape(h, w, channels)
    # sub-byte depths: MSB-first d-bit groups across the scanline
    bits = np.unpackbits(np.ascontiguousarray(recon), axis=1)
    groups = bits[:, : nsamp * depth].reshape(h, nsamp, depth)
    weights = (1 << np.arange(depth - 1, -1, -1)).astype(np.uint8)
    vals = (groups * weights).sum(axis=2).astype(np.uint8)
    return vals.reshape(h, w, channels)


def _pass_layout(w: int, h: int):
    """Adam7 pass geometry: (x0, y0, dx, dy, pass_w, pass_h) per pass."""
    for x0, y0, dx, dy in _ADAM7:
        pw = max(0, (w - x0 + dx - 1) // dx)
        ph = max(0, (h - y0 + dy - 1) // dy)
        yield x0, y0, dx, dy, pw, ph


def decode_png(payload: bytes) -> np.ndarray:
    """PNG bytes -> (h, w, channels) sample array (palette expanded to
    RGB). uint16 for 16-bit images, uint8 otherwise; sub-byte samples
    keep their raw code values. Raises PngError on malformed input.
    """
    if payload[:8] != PNG_SIGNATURE:
        raise PngError("bad PNG signature")
    pos = 8
    ihdr = None
    plte: bytes | None = None
    idat = bytearray()
    seen_iend = False
    while pos < len(payload):
        if pos + 8 > len(payload):
            raise PngError("truncated chunk header")
        (length,) = struct.unpack(">I", payload[pos : pos + 4])
        ctype = payload[pos + 4 : pos + 8]
        data = payload[pos + 8 : pos + 8 + length]
        if len(data) != length:
            raise PngError(f"truncated {ctype!r} chunk")
        (crc,) = struct.unpack(
            ">I", payload[pos + 8 + length : pos + 12 + length]
        )
        if zlib.crc32(ctype + data) & 0xFFFFFFFF != crc:
            raise PngError(f"CRC mismatch in {ctype!r} chunk")
        pos += 12 + length
        if ctype == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", data)
        elif ctype == b"PLTE":
            plte = data
        elif ctype == b"IDAT":
            idat.extend(data)
        elif ctype == b"IEND":
            seen_iend = True
            break
        # ancillary chunks (tEXt, pHYs, ...) are skipped after CRC check
    if ihdr is None:
        raise PngError("missing IHDR")
    if not seen_iend:
        raise PngError("missing IEND")
    w, h, depth, color_type, compression, filter_method, interlace = ihdr
    if compression != 0 or filter_method != 0:
        raise PngError("nonstandard compression/filter method")
    if interlace not in (0, 1):
        raise PngError(f"bad interlace method {interlace}")
    if color_type not in _CHANNELS:
        raise PngError(f"bad color type {color_type}")
    if depth not in _LEGAL_DEPTHS[color_type]:
        raise PngError(
            f"illegal bit depth {depth} for color type {color_type}"
        )
    if w == 0 or h == 0:
        raise PngError("zero-dimension image")
    channels = _CHANNELS[color_type]
    bpp = _filter_bpp(depth, channels)
    try:
        raw = zlib.decompress(bytes(idat))
    except zlib.error as exc:
        raise PngError(f"IDAT inflate failed: {exc}") from exc
    out_dtype = np.uint16 if depth == 16 else np.uint8
    if interlace == 0:
        recon = _defilter(raw, h, _row_stride(w, depth, channels), bpp)
        img = _rows_to_samples(recon, w, depth, channels)
    else:
        img = np.zeros((h, w, channels), out_dtype)
        off = 0
        for x0, y0, dx, dy, pw, ph in _pass_layout(w, h):
            if pw == 0 or ph == 0:
                continue  # empty passes contribute no scanlines (spec §8.2)
            stride = _row_stride(pw, depth, channels)
            need = ph * (stride + 1)
            recon = _defilter(raw[off : off + need], ph, stride, bpp)
            off += need
            img[y0::dy, x0::dx] = _rows_to_samples(recon, pw, depth, channels)
        if off != len(raw):
            raise PngError(
                f"decompressed IDAT length {len(raw)} != Adam7 expected {off}"
            )
    if color_type == 3:
        if plte is None or len(plte) % 3 != 0 or len(plte) == 0:
            raise PngError("palette image without valid PLTE")
        pal = np.frombuffer(plte, np.uint8).reshape(-1, 3)
        idx = img[:, :, 0]
        if int(idx.max(initial=0)) >= len(pal):
            raise PngError("palette index out of range")
        img = pal[idx]
    return np.ascontiguousarray(img)


# ---------------------------------------------------------------------------
# Encoder (fixture writer — same spec, used to build deterministic inputs)
# ---------------------------------------------------------------------------


def _filter_line(
    ftype: int, cur: np.ndarray, prev: np.ndarray, bpp: int
) -> np.ndarray:
    """Apply scanline filter ``ftype`` to recon row ``cur`` (encoding
    direction — fully vectorized: no data dependence when filtering)."""
    stride = cur.shape[0]
    left = np.zeros(stride, np.uint8)
    left[bpp:] = cur[:-bpp]
    upleft = np.zeros(stride, np.uint8)
    upleft[bpp:] = prev[:-bpp]
    if ftype == 0:
        return cur.copy()
    if ftype == 1:
        return cur - left
    if ftype == 2:
        return cur - prev
    if ftype == 3:
        avg = (left.astype(np.uint16) + prev.astype(np.uint16)) >> 1
        return cur - avg.astype(np.uint8)
    if ftype == 4:
        return cur - _paeth(left, prev, upleft)
    raise PngError(f"unknown filter type {ftype}")


def _pack_rows(img: np.ndarray, depth: int) -> np.ndarray:
    """(h, w, c) sample array -> (h, stride) packed scanline bytes."""
    h, w, c = img.shape
    nsamp = w * c
    flat = img.reshape(h, nsamp)
    if depth == 8:
        return flat.astype(np.uint8)
    if depth == 16:
        out = np.empty((h, nsamp * 2), np.uint8)
        v = flat.astype(np.uint16)
        out[:, 0::2] = (v >> 8).astype(np.uint8)
        out[:, 1::2] = (v & 0xFF).astype(np.uint8)
        return out
    if (flat >= (1 << depth)).any():
        raise PngError(f"sample value out of range for depth {depth}")
    shifts = np.arange(depth - 1, -1, -1, dtype=np.uint8)
    bits = ((flat[:, :, None].astype(np.uint8) >> shifts) & 1).reshape(h, -1)
    return np.packbits(bits, axis=1)  # MSB-first, zero-padded to the byte


def _encode_scanlines(
    img: np.ndarray, depth: int, channels: int, ftypes: list[int]
) -> bytes:
    """Filter one (sub-)image's packed scanlines; consumes len(img) of
    ``ftypes`` (mutated: callers thread one list across Adam7 passes)."""
    h = img.shape[0]
    packed = _pack_rows(img, depth)
    bpp = _filter_bpp(depth, channels)
    stride = packed.shape[1]
    lines = bytearray()
    prev = np.zeros(stride, np.uint8)
    for y in range(h):
        ft = ftypes.pop(0)
        lines.append(ft)
        lines.extend(_filter_line(ft, packed[y], prev, bpp).tobytes())
        prev = packed[y]
    return bytes(lines)


def encode_png(
    img: np.ndarray,
    filter_type: int | list[int] = 0,
    level: int = 6,
    depth: int = 8,
    interlace: int = 0,
    palette: np.ndarray | None = None,
) -> bytes:
    """Sample array -> PNG bytes.

    - ``img``: (h, w) or (h, w, c) array. uint8 for depths <= 8 (values
      must fit the depth), uint16 for depth 16. With ``palette`` set,
      ``img`` holds palette indices (1 channel) and ``palette`` is an
      (n, 3) uint8 RGB table written as PLTE (color type 3).
    - ``filter_type``: one filter for every scanline or a per-scanline
      list — fixtures use varying types to exercise the decoder's five
      filter paths deterministically. For ``interlace=1`` the list is
      consumed across passes in pass order.
    - ``interlace``: 0 (sequential) or 1 (Adam7 seven-pass).
    """
    if img.ndim == 2:
        img = img[:, :, None]
    if img.ndim != 3:
        raise PngError("encoder takes (h, w[, c]) arrays")
    h, w, c = img.shape
    if palette is not None:
        if c != 1 or depth == 16:
            raise PngError("palette images are 1-channel, depth <= 8")
        color_type = 3
        pal = np.ascontiguousarray(palette, dtype=np.uint8)
        if pal.ndim != 2 or pal.shape[1] != 3 or not len(pal):
            raise PngError("palette must be (n, 3) uint8")
        if int(img.max(initial=0)) >= len(pal):
            raise PngError("palette index out of range")
    elif c not in _COLOR_TYPE_FOR_C:
        raise PngError(f"unsupported channel count {c}")
    else:
        color_type = _COLOR_TYPE_FOR_C[c]
        if depth in (1, 2, 4) and color_type != 0:
            raise PngError("sub-byte depths are grayscale/palette only")
    if depth not in _LEGAL_DEPTHS[color_type]:
        raise PngError(
            f"illegal bit depth {depth} for color type {color_type}"
        )
    want_dtype = np.uint16 if depth == 16 else np.uint8
    if img.dtype != want_dtype:
        raise PngError(f"depth {depth} takes {np.dtype(want_dtype).name}")
    if interlace not in (0, 1):
        raise PngError(f"bad interlace {interlace}")
    total_rows = (
        h
        if interlace == 0
        else sum(ph for *_unused, pw, ph in _pass_layout(w, h) if pw and ph)
    )
    ftypes = (
        [int(filter_type)] * total_rows
        if isinstance(filter_type, int)
        else list(filter_type)
    )
    if len(ftypes) != total_rows:
        raise PngError("per-scanline filter list length != scanline count")
    img = np.ascontiguousarray(img)
    if interlace == 0:
        lines = _encode_scanlines(img, depth, c, ftypes)
    else:
        parts = []
        for x0, y0, dx, dy, pw, ph in _pass_layout(w, h):
            if pw == 0 or ph == 0:
                continue
            sub = np.ascontiguousarray(img[y0::dy, x0::dx])
            parts.append(_encode_scanlines(sub, depth, c, ftypes))
        lines = b"".join(parts)
    ihdr = struct.pack(">IIBBBBB", w, h, depth, color_type, 0, 0, interlace)
    out = PNG_SIGNATURE + _chunk(b"IHDR", ihdr)
    if palette is not None:
        out += _chunk(b"PLTE", pal.tobytes())
    return out + _chunk(b"IDAT", zlib.compress(lines, level)) + _chunk(
        b"IEND", b""
    )
