import random

import pytest

from conftest import random_graph, random_weighted
from lcfoliage.graph import build_graph
from lcfoliage.graph6 import (
    decode_graph6,
    decode_weighted,
    encode_graph6,
    encode_weighted,
)


def test_known_encodings():
    assert encode_graph6(build_graph(2, [(0, 1)])) == "A_"
    assert encode_graph6(build_graph(3, [(0, 1), (0, 2), (1, 2)])) == "Bw"
    assert decode_graph6("A_").edges() == [(0, 1)]
    assert decode_graph6("Bw").edges() == [(0, 1), (0, 2), (1, 2)]


def test_empty_and_trivial_sizes():
    assert encode_graph6(build_graph(0, [])) == "?"
    assert decode_graph6("?").n == 0
    assert decode_graph6("@").n == 1


def test_optional_format_header_is_accepted():
    assert decode_graph6(">>graph6<<A_").edges() == [(0, 1)]


@pytest.mark.parametrize("seed", range(40))
def test_roundtrip_random(seed):
    rng = random.Random(seed)
    g = random_graph(rng.randrange(0, 25), rng.random(), rng)
    assert decode_graph6(encode_graph6(g)) == g


@pytest.mark.parametrize("n", [62, 63, 100])
def test_roundtrip_large_sizes(n):
    rng = random.Random(n)
    g = random_graph(n, 0.3, rng)
    text = encode_graph6(g)
    if n > 62:
        assert text.startswith("~")
    assert decode_graph6(text) == g


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "A",        # missing body byte
        "A__",      # extra body byte
        "A\x1f",    # character below the graph6 range
        "B",        # n=3 with no body byte
        "~~????",   # 8-byte size header
    ],
)
def test_decode_rejects_malformed(bad):
    with pytest.raises(ValueError):
        decode_graph6(bad)


def test_decode_rejects_nonzero_padding():
    # K_2 is "A_" (body 0b100000); any padding bit set is invalid
    with pytest.raises(ValueError):
        decode_graph6("A`")


def test_weighted_roundtrip():
    rng = random.Random(7)
    for d in (2, 3, 5):
        g = random_weighted(6, d, 0.5, rng)
        assert decode_weighted(encode_weighted(g)) == g


def test_weighted_text_form():
    g = decode_weighted("d 3 n 4\n0 1 2\n1 2 1\n")
    assert g.d == 3
    assert g.n == 4
    assert g.edges() == [(0, 1, 2), (1, 2, 1)]
    assert encode_weighted(g) == "d 3 n 4\n0 1 2\n1 2 1\n"


def test_weighted_text_with_weights_past_a_byte():
    g = decode_weighted("d 257 n 3\n0 1 256\n1 2 3\n")
    assert g.weights == ((0, 256, 0), (256, 0, 3), (0, 3, 0))
    assert g.supports == (0b010, 0b101, 0b010)


def test_weighted_accepts_comments_and_blank_lines():
    g = decode_weighted("# a comment\nd 5 n 3\n\n0 2 4\n")
    assert g.edges() == [(0, 2, 4)]


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "d 3 4\n",          # malformed header
        "n 3 d 4\n",
        "d 4 n 3\n",        # composite modulus
        "d 3 n 3\n0 1\n",   # short edge line
        "d 3 n 3\n0 1 0\n",  # zero weight
        "d 3 n 3\n0 1 3\n",  # weight = d
        "d 3 n 3\n0 3 1\n",  # vertex out of range
        "d 3 n 3\n1 1 1\n",  # loop
        "d 3 n 3\n0 1 1\n1 0 2\n",  # duplicate pair
    ],
)
def test_weighted_rejects_malformed(bad):
    with pytest.raises(ValueError):
        decode_weighted(bad)
