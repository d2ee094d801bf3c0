import hashlib
import random
import sys

import networkx as nx
import pytest

from conftest import cpu_s_and_peak_rss_mb_under_1_gib, peak_rss_mb_under_1_gib, random_graph, random_weighted
from lcfoliage.graph import Graph, SizeGuardError, build_graph
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


def test_weighted_header_above_the_bound_is_refused():
    # the CLI test feeds n = 100000 under a memory limit; just past the
    # bound a decoder without the guard would still finish
    with pytest.raises(SizeGuardError, match="n <= 8192, header says n = 8193"):
        decode_weighted("d 3 n 8193\n")


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("d 3 n 3\n0 1 1\n1 0 2\n", ValueError, "duplicate edge (1, 0)"),
        ("d 3 n 3\n0 1 1\n0 1 1\n", ValueError, "duplicate edge (0, 1)"),
        ("d 3 n 3\n0 1 x\n", ValueError, "bad edge line '0 1 x'"),
        ("d 3 n 3\n0 1\n", ValueError, "bad edge line '0 1', expected 'u v weight'"),
        ("d x n 3\n", ValueError, "bad weighted header 'd x n 3'"),
        ("d 3 n 3 x\n", ValueError, "bad weighted header 'd 3 n 3 x', expected 'd <d> n <n>'"),
        ("d 3 n 8193\n0 1 x\n", SizeGuardError, "weighted graph text is limited to n <= 8192, header says n = 8193"),
        ("d 3 n 3\n5 1 1\n", ValueError, "edge (5, 1) out of range for n=3"),
        ("d 3 n 3\n1 1 9\n", ValueError, "self-loop at vertex 1"),
        ("d 3 n 3\n0 2 1\n1 2 0\n", ValueError, "weight 0 outside 1..2"),
        # a bad weight is named before the order and the modulus, and a
        # vertex out of range after them
        ("d 4 n 3\n0 1 5\n", ValueError, "weight 5 outside 1..3"),
        ("d 1 n 2\n0 1 1\n", ValueError, "weight 1 outside 1..0"),
        ("d 3 n -1\n0 1 1\n", ValueError, "vertex count must be nonnegative"),
        ("d 4 n 2\n0 5 1\n", ValueError, "modulus 4 is not prime"),
        ("d 4 n -1\n", ValueError, "vertex count must be nonnegative"),
        ("d -3 n 2\n", ValueError, "modulus -3 is not prime"),
        ("d 4 n 3\n0 1 1\n", ValueError, "modulus 4 is not prime"),
        ("d 18446744073709551629 n 2\n0 1 1\n", ValueError, "modulus 18446744073709551629 is not below 2**64"),
    ],
)
def test_weighted_text_error_messages(text, error, message):
    with pytest.raises(error) as exc:
        decode_weighted(text)
    assert str(exc.value) == message


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from Linux's /proc")
def test_weighted_header_at_the_bound_decodes_small():
    code = (
        "from lcfoliage.graph6 import decode_weighted\n"
        "g = decode_weighted('d 3 n 8192\\n')\n"
        "assert (g.n, g.d, g.edges()) == (8192, 3, [])\n"
    )
    assert peak_rss_mb_under_1_gib(code) < 64


def sha256(text):
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def networkx_graph6(n, edges):
    """graph6 text written by networkx, a codec that shares no code with this one."""
    h = nx.empty_graph(n)
    h.add_edges_from(edges)
    return nx.to_graph6_bytes(h, header=False).decode("ascii").strip()


def text_of_body_bits(n, bits):
    """graph6 of the graph whose body bit ``j * (j - 1) // 2 + i`` is the edge ``ij``."""
    bits += "0" * (-len(bits) % 6)
    head = chr(n + 63) if n <= 62 else "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    return head + "".join(chr(int(bits[k : k + 6], 2) + 63) for k in range(0, len(bits), 6))


def body_bits_of_edges(n, edges):
    ones = sorted(j * (j - 1) // 2 + i for i, j in (sorted(e) for e in edges))
    bits = "".join("0" * (b - a - 1) + "1" for a, b in zip([-1] + ones, ones))
    return bits + "0" * (n * (n - 1) // 2 - len(bits))


def cycle_with_chords(n, chords, rng):
    edges = {(v, v + 1) for v in range(n - 1)} | {(0, n - 1)}
    while len(edges) < n + chords:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return sorted(edges)


# the big_graphs benchmark families: G(2000, 1/2), whose body bits are
# uniform, cycles plus n/2 chords, and the path; the edge list when sparse
def big_graph_family(name):
    rng = random.Random(name)
    if name == "dense2000":
        n = 2000
        return n, None, format(rng.getrandbits(n * (n - 1) // 2), f"0{n * (n - 1) // 2}b")
    if name == "path2000":
        n, edges = 2000, [(v, v + 1) for v in range(1999)]
    else:
        n = int(name[len("sparse"):])
        edges = cycle_with_chords(n, n // 2, rng)
    return n, edges, body_bits_of_edges(n, edges)


@pytest.mark.parametrize("name", ["dense2000", "sparse2000", "sparse4000", "path2000"])
def test_big_graph_families_roundtrip(name):
    n, edges, bits = big_graph_family(name)
    text = text_of_body_bits(n, bits)
    g = decode_graph6(text)
    assert sha256(encode_graph6(g)) == sha256(text)
    assert Graph(n, g.rows) == g
    assert sum(row.bit_count() for row in g.rows) == 2 * bits.count("1")
    rng = random.Random(n)
    for _ in range(2000):
        i, j = sorted(rng.sample(range(n), 2))
        assert g.has_edge(i, j) == (bits[j * (j - 1) // 2 + i] == "1")
    if edges is not None:
        assert g.edges() == edges


def test_every_type_up_to_order_7_matches_networkx():
    atlas = nx.graph_atlas_g()
    assert len(atlas) == 1253
    for h in atlas:
        text = nx.to_graph6_bytes(h, header=False).decode("ascii").strip()
        g = decode_graph6(text)
        assert sorted(g.edges()) == sorted(tuple(sorted(e)) for e in h.edges())
        assert sha256(encode_graph6(g)) == sha256(text)


@pytest.mark.parametrize("n", [0, 1, 62, 63, 64])
def test_size_boundaries_match_networkx(n):
    rng = random.Random(n)
    graphs = [
        [],
        [(i, j) for j in range(n) for i in range(j)],
        [(v, v + 1) for v in range(n - 1)],
        [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.5],
    ]
    for edges in graphs:
        text = networkx_graph6(n, edges)
        assert text.startswith("~") == (n >= 63)
        g = decode_graph6(text)
        assert g == build_graph(n, edges)
        assert sha256(encode_graph6(g)) == sha256(text)


# a 20,000-vertex cycle: 31 MB of graph6 for 20,000 edges
CYCLE_20000 = (
    "from lcfoliage.graph import Graph\n"
    "from lcfoliage.graph6 import decode_graph6, encode_graph6\n"
    "n = 20000\n"
    "rows = [(1 << (v - 1) % n) | (1 << (v + 1) % n) for v in range(n)]\n"
)


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from Linux's /proc")
def test_sparse_decode_of_a_20000_cycle_is_small_and_quick():
    setup = CYCLE_20000 + "text = encode_graph6(Graph._wrap(n, tuple(rows)))\ndel rows\n"
    code = "g = decode_graph6(text)\nassert g.edges()[:2] == [(0, 1), (0, 19999)]\n"
    cpu, mb = cpu_s_and_peak_rss_mb_under_1_gib(setup, code)
    assert cpu < 2.5
    assert mb < 250
