"""Hypothesis property test for the wire tier: every byte string must
round-trip through chunked transfer coding regardless of shape."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from sciscraper_ray.kernels.wire import chunked_decode, chunked_encode

_bytes = st.binary(min_size=0, max_size=4000)


@settings(max_examples=60, deadline=None)
@given(_bytes, st.lists(st.integers(1, 50), min_size=1, max_size=8))
def test_chunked_roundtrip(payload, sizes):
    body, trailers = chunked_decode(chunked_encode(payload, sizes))
    assert body == payload
    assert trailers == {}
