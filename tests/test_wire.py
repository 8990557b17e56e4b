"""Wire-format kernels: HTTP/1.1 chunked transfer coding with
extensions + trailers, and response framing."""

from __future__ import annotations

import pytest

from sciscraper_ray.kernels.wire import (
    WireError,
    chunked_decode,
    chunked_encode,
)


def test_chunked_roundtrip_with_trailers():
    body = b"hello world, this is a chunked payload" * 20
    enc = chunked_encode(body, [5, 17, 100, 256], {"x-digest": "abc"})
    dec, tr = chunked_decode(enc)
    assert dec == body
    assert tr == {"x-digest": "abc"}


def test_chunk_extensions_skipped():
    assert chunked_decode(b"5;ext=1\r\nhello\r\n0\r\n\r\n") == (b"hello", {})


def test_empty_body():
    assert chunked_decode(chunked_encode(b"", [5])) == (b"", {})


@pytest.mark.parametrize(
    "bad",
    [
        b"5\r\nhell\r\n0\r\n\r\n",  # short chunk -> missing CRLF
        b"zz\r\n\r\n",  # bad hex size
        b"1\r\na\r\n0\r\n",  # unterminated trailer section
        b"1\r\na\r\n0\r\n\r\nXX",  # trailing bytes
        b"1\r\na\r\n0\r\nbadline\r\n\r\n",  # trailer without colon
    ],
)
def test_chunked_malformed_rejected(bad):
    with pytest.raises(WireError):
        chunked_decode(bad)


def test_parse_http_response():
    from sciscraper_ray.kernels.wire import parse_http_response

    resp = (
        b"HTTP/1.1 404 Not Found\r\n"
        b"Content-Type: text/html\r\n"
        b"X-Custom:  spaced value \r\n\r\nbody bytes"
    )
    status, headers, body = parse_http_response(resp)
    assert status == 404
    assert headers == {
        "content-type": "text/html",
        "x-custom": "spaced value",
    }
    assert body == b"body bytes"
    with pytest.raises(WireError, match="terminator"):
        parse_http_response(b"HTTP/1.1 200 OK\r\n")
    with pytest.raises(WireError, match="status line"):
        parse_http_response(b"ICY 200 OK\r\n\r\n")
    with pytest.raises(WireError, match="status code"):
        parse_http_response(b"HTTP/1.1 abc OK\r\n\r\n")
