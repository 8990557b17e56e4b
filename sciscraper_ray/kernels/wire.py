"""Wire-format decoders for stored web payloads — from scratch.

- **HTTP/1.1 chunked transfer coding** (RFC 9112 §7.1): hex chunk
  sizes with optional chunk extensions (`;ext=val` — parsed past, per
  spec), CRLF framing, the terminating zero chunk, and optional
  trailer fields returned to the caller. A stored raw HTTP body must
  be de-chunked before any text pipeline sees it. No stdlib function
  parses chunked transfer coding.
- **HTTP/1.1 response framing**: status line and header fields.

Pure byte-level kernels (no Ray, no state) — run inside
``map_batches`` like the other per-payload decoders; the registry
queries attest them against closed-form producers.
"""

from __future__ import annotations


class WireError(ValueError):
    """Malformed chunked-coding or HTTP response payload."""


def chunked_decode(data: bytes) -> tuple[bytes, dict[str, str]]:
    """HTTP/1.1 chunked transfer coding -> (body, trailer fields).

    Parses hex chunk sizes (chunk extensions skipped per RFC 9112
    §7.1.1), enforces CRLF framing after every chunk, and reads trailer
    fields between the zero chunk and the final CRLF.
    """
    pos = 0
    out = bytearray()
    n = len(data)
    while True:
        eol = data.find(b"\r\n", pos)
        if eol < 0:
            raise WireError("missing CRLF after chunk size")
        size_line = data[pos:eol]
        semi = size_line.find(b";")
        size_str = size_line[:semi] if semi >= 0 else size_line
        try:
            size = int(size_str, 16)
        except ValueError:
            raise WireError(f"bad chunk size {size_str!r}") from None
        if size < 0:
            raise WireError("negative chunk size")
        pos = eol + 2
        if size == 0:
            break
        if pos + size + 2 > n:
            raise WireError("truncated chunk data")
        out += data[pos : pos + size]
        if data[pos + size : pos + size + 2] != b"\r\n":
            raise WireError("missing CRLF after chunk data")
        pos = pos + size + 2
    trailers: dict[str, str] = {}
    while True:
        eol = data.find(b"\r\n", pos)
        if eol < 0:
            raise WireError("unterminated trailer section")
        line = data[pos:eol]
        pos = eol + 2
        if not line:
            break
        colon = line.find(b":")
        if colon < 0:
            raise WireError(f"bad trailer line {line!r}")
        trailers[line[:colon].decode("latin-1").strip().lower()] = (
            line[colon + 1 :].decode("latin-1").strip()
        )
    if pos != n:
        raise WireError("trailing bytes after chunked body")
    return bytes(out), trailers


def chunked_encode(
    body: bytes, sizes: list[int], trailers: dict[str, str] | None = None
) -> bytes:
    """Chunked-coding fixture producer: split ``body`` into chunks of the
    given sizes (the final partial remainder becomes the last chunk)."""
    out = bytearray()
    pos = 0
    for size in sizes:
        if pos >= len(body):
            break
        chunk = body[pos : pos + size]
        pos += len(chunk)
        out += f"{len(chunk):x}".encode() + b"\r\n" + chunk + b"\r\n"
    if pos < len(body):
        chunk = body[pos:]
        out += f"{len(chunk):x}".encode() + b"\r\n" + chunk + b"\r\n"
    out += b"0\r\n"
    for k, v in (trailers or {}).items():
        out += f"{k}: {v}\r\n".encode("latin-1")
    out += b"\r\n"
    return bytes(out)


def parse_http_response(raw: bytes) -> tuple[int, dict[str, str], bytes]:
    """HTTP/1.1 response bytes -> (status, headers, raw body bytes).

    Status line + CRLF header block parsing (field names case-folded,
    values trimmed — RFC 9112 §2.1/§5); the body is returned verbatim
    for the caller to de-chunk / decompress per the framing headers."""
    head_end = raw.find(b"\r\n\r\n")
    if head_end < 0:
        raise WireError("missing header terminator")
    lines = raw[:head_end].split(b"\r\n")
    parts = lines[0].split(b" ", 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/"):
        raise WireError(f"bad status line {lines[0]!r}")
    try:
        status = int(parts[1])
    except ValueError:
        raise WireError(f"bad status code {parts[1]!r}") from None
    headers: dict[str, str] = {}
    for line in lines[1:]:
        colon = line.find(b":")
        if colon < 0:
            raise WireError(f"bad header line {line!r}")
        headers[line[:colon].decode("latin-1").strip().lower()] = (
            line[colon + 1 :].decode("latin-1").strip()
        )
    return status, headers, raw[head_end + 4 :]
