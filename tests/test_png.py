"""From-scratch PNG codec: filter/color-type round-trips, a hand-built
byte fixture (independent of the encoder) and error paths."""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from sciscraper_ray.stages.png import (
    PNG_SIGNATURE,
    PngError,
    decode_png,
    encode_png,
)


def _rng_img(h, w, c, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(h, w, c), dtype=np.uint8)


@pytest.mark.parametrize("ftype", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("c", [1, 2, 3, 4])
def test_roundtrip_every_filter_and_color_type(ftype, c):
    img = _rng_img(11, 7, c, seed=ftype * 10 + c)
    out = decode_png(encode_png(img, filter_type=ftype))
    assert out.shape == img.shape
    assert (out == img).all()


def test_roundtrip_mixed_filters_per_scanline():
    img = _rng_img(25, 13, 3, seed=99)
    out = decode_png(encode_png(img, filter_type=[y % 5 for y in range(25)]))
    assert (out == img).all()


def test_hand_built_fixture_independent_of_encoder():
    """2x3 RGB built chunk-by-chunk by hand: scanline 0 unfiltered,
    scanline 1 Up-filtered. Catches encoder+decoder bugs that cancel."""
    row0 = bytes([10, 20, 30, 40, 50, 60, 70, 80, 90])
    # recon row1 = row0 + delta (mod 256)
    delta = bytes([1, 2, 3, 4, 5, 6, 7, 8, 9])
    raw = b"\x00" + row0 + b"\x02" + delta

    def chunk(ctype, data):
        return (
            struct.pack(">I", len(data))
            + ctype
            + data
            + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF)
        )

    payload = (
        PNG_SIGNATURE
        + chunk(b"IHDR", struct.pack(">IIBBBBB", 3, 2, 8, 2, 0, 0, 0))
        + chunk(b"IDAT", zlib.compress(raw))
        + chunk(b"IEND", b"")
    )
    img = decode_png(payload)
    assert img.shape == (2, 3, 3)
    assert img[0].ravel().tolist() == list(row0)
    assert img[1].ravel().tolist() == [
        (a + b) % 256 for a, b in zip(row0, delta)
    ]


def test_palette_decode():
    pal = bytes([255, 0, 0, 0, 255, 0, 0, 0, 255])  # R, G, B entries
    raw = b"\x00" + bytes([0, 1, 2]) + b"\x00" + bytes([2, 1, 0])

    def chunk(ctype, data):
        return (
            struct.pack(">I", len(data))
            + ctype
            + data
            + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF)
        )

    payload = (
        PNG_SIGNATURE
        + chunk(b"IHDR", struct.pack(">IIBBBBB", 3, 2, 8, 3, 0, 0, 0))
        + chunk(b"PLTE", pal)
        + chunk(b"IDAT", zlib.compress(raw))
        + chunk(b"IEND", b"")
    )
    img = decode_png(payload)
    assert img.shape == (2, 3, 3)
    assert img[0, 0].tolist() == [255, 0, 0]
    assert img[1, 0].tolist() == [0, 0, 255]


def test_multi_idat_chunks_concatenate():
    img = _rng_img(6, 5, 3, seed=3)
    payload = bytearray(encode_png(img, filter_type=4))
    # split the single IDAT into two by re-chunking its inflate stream
    sig_ihdr = bytes(payload[: 8 + 25])  # signature + IHDR chunk (13+12)
    (length,) = struct.unpack(">I", payload[33:37])
    idat = bytes(payload[41 : 41 + length])
    half = len(idat) // 2

    def chunk(ctype, data):
        return (
            struct.pack(">I", len(data))
            + ctype
            + data
            + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF)
        )

    rebuilt = (
        sig_ihdr
        + chunk(b"IDAT", idat[:half])
        + chunk(b"IDAT", idat[half:])
        + chunk(b"IEND", b"")
    )
    assert (decode_png(rebuilt) == img).all()


def test_crc_mismatch_rejected():
    payload = bytearray(encode_png(_rng_img(4, 4, 1, seed=1)))
    payload[-5] ^= 0xFF  # corrupt IEND CRC
    with pytest.raises(PngError, match="CRC"):
        decode_png(bytes(payload))


def test_malformed_rejected_loudly():
    def chunk(ctype, data):
        return (
            struct.pack(">I", len(data))
            + ctype
            + data
            + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF)
        )

    # 16-bit is now in scope: a hand-built 2x2 gray16 of zeros decodes
    p16 = (
        PNG_SIGNATURE
        + chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 16, 0, 0, 0, 0))
        + chunk(b"IDAT", zlib.compress(b"\x00" * 10))
        + chunk(b"IEND", b"")
    )
    out = decode_png(p16)
    assert out.dtype == np.uint16 and out.shape == (2, 2, 1)
    assert not out.any()
    # Adam7 with the wrong scanline byte count (6 vs the 7 the seven-pass
    # layout of a 2x2 needs) is a loud length error, not a silent decode
    adam7_short = (
        PNG_SIGNATURE
        + chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 1))
        + chunk(b"IDAT", zlib.compress(b"\x00" * 6))
        + chunk(b"IEND", b"")
    )
    with pytest.raises(PngError, match="length"):
        decode_png(adam7_short)
    # illegal depth/color combos stay rejected (spec Table 11.1)
    rgb2 = (
        PNG_SIGNATURE
        + chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 2, 2, 0, 0, 0))
        + chunk(b"IDAT", zlib.compress(b"\x00" * 6))
        + chunk(b"IEND", b"")
    )
    with pytest.raises(PngError, match="illegal bit depth"):
        decode_png(rgb2)
    with pytest.raises(PngError, match="signature"):
        decode_png(b"JUNKJUNKJUNK")
    with pytest.raises(PngError, match="truncated"):
        decode_png(PNG_SIGNATURE + b"\x00\x00")


# ---------------------------------------------------------------------------
# Full-depth + Adam7 coverage (spec §8.2, Table 11.1)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ftype", range(5))
def test_16bit_rgb_roundtrip_every_filter(ftype):
    rng = np.random.default_rng(40 + ftype)
    img = rng.integers(0, 65536, (9, 7, 3), dtype=np.uint16)
    out = decode_png(encode_png(img, filter_type=ftype, depth=16))
    assert out.dtype == np.uint16
    assert (out == img).all()


@pytest.mark.parametrize("depth", [1, 2, 4])
@pytest.mark.parametrize("ftype", range(5))
def test_subbyte_gray_roundtrip(depth, ftype):
    rng = np.random.default_rng(depth * 10 + ftype)
    img = rng.integers(0, 1 << depth, (11, 13), dtype=np.uint8)
    out = decode_png(encode_png(img, filter_type=ftype, depth=depth))
    # raw code values, no rescale
    assert (out[:, :, 0] == img).all()


def test_subbyte_palette_roundtrip():
    rng = np.random.default_rng(5)
    pal = rng.integers(0, 256, (4, 3), dtype=np.uint8)
    idx = rng.integers(0, 4, (6, 10), dtype=np.uint8)
    out = decode_png(encode_png(idx, filter_type=1, depth=2, palette=pal))
    assert (out == pal[idx]).all()


def test_1bit_known_vector():
    # hand-packed 1-bit: row bits 1,0,1 pack MSB-first to byte 0b1010_0000
    img = np.array([[1, 0, 1], [0, 1, 1]], np.uint8)
    payload = encode_png(img, filter_type=0, depth=1)
    raw = zlib.decompress(
        payload[41 : 41 + struct.unpack(">I", payload[33:37])[0]]
    )
    assert raw == b"\x00\xa0\x00\x60"
    assert (decode_png(payload)[:, :, 0] == img).all()


@pytest.mark.parametrize("dims", [(1, 1), (2, 2), (3, 5), (8, 8), (13, 17), (7, 2)])
def test_adam7_roundtrip_all_sizes(dims):
    h, w = dims
    rng = np.random.default_rng(h * 100 + w)
    rgb = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    assert (
        decode_png(encode_png(rgb, filter_type=2, depth=8, interlace=1)) == rgb
    ).all()
    g16 = rng.integers(0, 65536, (h, w), dtype=np.uint16)
    assert (
        decode_png(encode_png(g16, filter_type=4, depth=16, interlace=1))[
            :, :, 0
        ]
        == g16
    ).all()
    g1 = rng.integers(0, 2, (h, w), dtype=np.uint8)
    assert (
        decode_png(encode_png(g1, filter_type=0, depth=1, interlace=1))[
            :, :, 0
        ]
        == g1
    ).all()


def test_adam7_palette_with_per_pass_filters():
    from sciscraper_ray.stages.png import _pass_layout

    rng = np.random.default_rng(9)
    pal = rng.integers(0, 256, (16, 3), dtype=np.uint8)
    idx = rng.integers(0, 16, (10, 11), dtype=np.uint8)
    nrows = sum(ph for *_, pw, ph in _pass_layout(11, 10) if pw and ph)
    fts = [i % 5 for i in range(nrows)]
    out = decode_png(
        encode_png(idx, filter_type=fts, depth=4, palette=pal, interlace=1)
    )
    assert (out == pal[idx]).all()


def test_encoder_rejects_bad_combos():
    img16 = np.zeros((2, 2), np.uint16)
    with pytest.raises(PngError, match="uint8"):
        encode_png(img16, depth=8)
    with pytest.raises(PngError, match="grayscale/palette only"):
        encode_png(np.zeros((2, 2, 3), np.uint8), depth=4)
    with pytest.raises(PngError, match="illegal bit depth"):
        encode_png(np.zeros((2, 2), np.uint8), depth=3)
    with pytest.raises(PngError, match="out of range"):
        encode_png(np.full((2, 2), 4, np.uint8), depth=2)
    with pytest.raises(PngError, match="out of range"):
        encode_png(
            np.full((2, 2), 9, np.uint8),
            depth=8,
            palette=np.zeros((4, 3), np.uint8),
        )
