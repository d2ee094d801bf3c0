"""Property tests for the graph6 codec, the graph validators and the row primitives.

The references below are the plain bit-by-bit and cell-by-cell loops the
fast paths must agree with, down to the first offending pair an error names.
The row-level relabelling and complementation that the orbit and census
loops share are checked against their defining properties: relabelling
inverts, canonical keys ignore labels, and lifted moves on the foliage
representation follow complementation of the graph.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from lcfoliage.canonical import canonical_graph, canonical_key
from lcfoliage.foliage import foliage_representation, lifted_local_complement
from lcfoliage.graph import (
    Graph,
    WeightedGraph,
    _relabel_rows,
    induced_subgraph,
    local_complement,
)
from lcfoliage.graph6 import decode_graph6, encode_graph6


@st.composite
def graphs(draw, min_n=0, max_n=40):
    """Any graph on ``min_n..max_n`` vertices, drawn as its upper-triangle bits."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for j in range(n) for i in range(j)]
    upper = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph.from_edges(n, [pair for k, pair in enumerate(pairs) if (upper >> k) & 1])


def reference_encode(g):
    n = g.n
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = ["~", chr(((n >> 12) & 63) + 63), chr(((n >> 6) & 63) + 63), chr((n & 63) + 63)]
    acc = nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | ((g.rows[j] >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = nbits = 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)


def reference_decode(text):
    """The bit-by-bit decoder, checks in the same order."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValueError("empty graph6 string")
    vals = []
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise ValueError(f"invalid graph6 character {ch!r}")
        vals.append(ord(ch) - 63)
    if vals[0] < 63:
        n, body = vals[0], vals[1:]
    else:
        if len(vals) < 4:
            raise ValueError("truncated graph6 size header")
        if vals[1] == 63:
            raise ValueError("8-byte graph6 size headers are not supported")
        n, body = (vals[1] << 12) | (vals[2] << 6) | vals[3], vals[4:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} bytes, expected {need} for n={n}")
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if (body[pos // 6] >> (5 - pos % 6)) & 1:
                edges.append((i, j))
            pos += 1
    if need and body[-1] & ((1 << (need * 6 - nbits)) - 1):
        raise ValueError("graph6 padding bits are not zero")
    return Graph.from_edges(n, edges)


def reference_asymmetry(rows):
    for v in range(len(rows)):
        for w in range(len(rows)):
            if (rows[v] >> w) & 1 and not (rows[w] >> v) & 1:
                return f"adjacency not symmetric at ({v}, {w})"
    return None


def reference_weight_error(n, d, weights):
    for v, row in enumerate(weights):
        if len(row) != n:
            return f"weight row {v} has wrong length"
        for w, x in enumerate(row):
            if not (0 <= x < d):
                return f"weight at ({v}, {w}) outside 0..{d - 1}"
            if v == w and x != 0:
                return f"self-loop at vertex {v}"
            if row[w] != weights[w][v]:
                return f"weights not symmetric at ({v}, {w})"
    return None


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"error: {exc}"


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 300), p=st.floats(0, 1), seed=st.integers(0, 2**32))
def test_graph6_roundtrip_across_size_headers(n, p, seed):
    g = random_graph(n, p, random.Random(seed))
    text = encode_graph6(g)
    assert text == reference_encode(g)
    assert text.startswith("~") == (n > 62)
    assert decode_graph6(text) == g


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_decode_inverts_encode_on_random_rows(g):
    assert decode_graph6(encode_graph6(g)) == g


def test_graph6_roundtrip_large():
    n = 2017
    g = random_graph(n, 0.01, random.Random(n))
    text = encode_graph6(g)
    assert text == reference_encode(g)
    assert decode_graph6(text) == g


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="?@ABC_`o~w\x1f\n é", max_size=12))
def test_decode_agrees_with_reference_on_any_text(text):
    assert outcome(decode_graph6, text) == outcome(reference_decode, text)


@pytest.mark.parametrize(
    "bad, message",
    [
        ("", "empty graph6 string"),
        ("A", "graph6 body has 0 bytes, expected 1 for n=2"),
        ("A__", "graph6 body has 2 bytes, expected 1 for n=2"),
        ("A\x1f", "graph6 body has 0 bytes, expected 1 for n=2"),
        ("B", "graph6 body has 0 bytes, expected 1 for n=3"),
        ("~~????", "8-byte graph6 size headers are not supported"),
        ("A`", "graph6 padding bits are not zero"),
        ("~?", "truncated graph6 size header"),
        ("~??~", "graph6 body has 0 bytes, expected 326 for n=63"),
        ("A_\nB", "invalid graph6 character '\\n'"),
        ("A_☃", "invalid graph6 character '☃'"),
    ],
)
def test_malformed_graph6_messages(bad, message):
    with pytest.raises(ValueError) as exc:
        decode_graph6(bad)
    assert str(exc.value) == message


@pytest.mark.parametrize("seed", range(10))
def test_graph_names_the_first_pair_after_one_bit_corruptions(seed):
    # 50 corruptions per seed, on graphs sparse enough for the edge walk and
    # dense enough for the transposed strings
    rng = random.Random(seed)
    for _ in range(50):
        n = rng.randrange(2, 71)
        rows = list(random_graph(n, rng.choice([0.0, 0.001, 0.01, 0.1, 0.5, 0.9, 1.0]), rng).rows)
        v, w = rng.sample(range(n), 2)
        rows[v] ^= 1 << w
        with pytest.raises(ValueError) as exc:
            Graph(n, rows)
        assert str(exc.value) == reference_asymmetry(rows)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_graph_rejects_asymmetry_at_the_first_pair(data):
    n = data.draw(st.integers(0, 12))
    rows = [data.draw(st.integers(0, (1 << n) - 1)) & ~(1 << v) for v in range(n)]
    if data.draw(st.booleans()):  # mostly symmetric: drop a few arcs
        for v in range(n):
            for w in range(n):
                if (rows[v] >> w) & 1:
                    rows[w] |= 1 << v
        for _ in range(data.draw(st.integers(0, 2 if n else 0))):
            v, w = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            rows[v] &= ~(1 << w)
    expected = reference_asymmetry(rows)
    if expected is None:
        assert Graph(n, rows).rows == tuple(rows)
    else:
        with pytest.raises(ValueError) as exc:
            Graph(n, rows)
        assert str(exc.value) == expected


def test_graph_asymmetry_named_in_a_large_graph():
    n = 2100
    g = random_graph(n, 0.002, random.Random(3))
    rows = list(g.rows)
    rows[1500] |= 1 << 2050
    rows[2090] |= 1 << 5
    with pytest.raises(ValueError, match=r"^adjacency not symmetric at \(1500, 2050\)$"):
        Graph(n, rows)
    assert Graph(n, g.rows) == g


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_weighted_graph_names_the_first_bad_cell(data):
    n = data.draw(st.integers(0, 7))
    d = data.draw(st.sampled_from([2, 3, 5, 7, 257]))
    cell = st.integers(0, d - 1)
    mat = [[0] * n for _ in range(n)]
    for v in range(n):
        for w in range(v + 1, n):
            mat[v][w] = mat[w][v] = data.draw(cell)
    for _ in range(data.draw(st.integers(0, 2))):  # a few arbitrary cells
        if n:
            v, w = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            mat[v][w] = data.draw(st.integers(-1, d))
    if n and data.draw(st.integers(0, 9)) == 0:
        mat[data.draw(st.integers(0, n - 1))].append(0)
    expected = reference_weight_error(n, d, mat)
    if expected is None:
        g = WeightedGraph(n, d, mat)
        assert g.weights == tuple(map(tuple, mat))
        assert g.supports == tuple(
            sum(1 << w for w in range(n) if mat[v][w]) for v in range(n)
        )
    else:
        with pytest.raises(ValueError) as exc:
            WeightedGraph(n, d, mat)
        assert str(exc.value) == expected


@pytest.mark.parametrize(
    "d, weights, message",
    [
        (2, [(0, 0, 1), (0, 0, 0), (1,)], "weight row 2 has wrong length"),
        (2, [(0, 1), ()], "weight row 1 has wrong length"),
        (3, [(0, 1.5), (1.5, 0)], "weight at (0, 1) is not an integer"),
        (3, [(0, 1.0), (1.0, 0)], "weight at (0, 1) is not an integer"),
        (3, [(0, "1"), ("1", 0)], "weight at (0, 1) is not an integer"),
    ],
)
def test_weighted_graph_rejects_short_rows_and_non_integer_weights(d, weights, message):
    with pytest.raises(ValueError) as exc:
        WeightedGraph(len(weights), d, weights)
    assert str(exc.value) == message


def test_weighted_from_edges_rejects_non_integer_weights():
    with pytest.raises(ValueError, match="is not an integer"):
        WeightedGraph.from_edges(2, 5, [(0, 1, 2.5)])


# ---------------------------------------------------------------------------
# row primitives


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_relabel_then_inverse_gives_back_the_rows(data):
    g = data.draw(graphs(max_n=12))
    perm = data.draw(st.permutations(range(g.n)))
    inverse = [0] * g.n
    for v, image in enumerate(perm):
        inverse[image] = v
    moved = Graph(g.n, _relabel_rows(g.rows, perm))  # validates the relabelled rows
    assert sorted(moved.edges()) == sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges()
    )
    assert _relabel_rows(moved.rows, inverse) == g.rows


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_canonical_key_ignores_relabelling(data):
    g = data.draw(graphs(max_n=9))
    perm = data.draw(st.permutations(range(g.n)))
    moved = Graph._wrap(g.n, _relabel_rows(g.rows, perm))
    assert canonical_key(moved) == canonical_key(g)
    assert canonical_graph(moved) == canonical_graph(g)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lifted_moves_follow_local_complementation(data):
    g = data.draw(graphs(min_n=1, max_n=10))
    rep = foliage_representation(g)
    for a in data.draw(st.lists(st.integers(0, g.n - 1), max_size=8)):
        rep = lifted_local_complement(rep, a)
        g = local_complement(g, a)
        assert rep == foliage_representation(g)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_induced_subgraph_matches_edge_reference(data):
    g = data.draw(graphs(max_n=16))
    mask = data.draw(st.integers(0, (1 << g.n) - 1))
    label = {v: i for i, v in enumerate(v for v in range(g.n) if (mask >> v) & 1)}
    expected = Graph.from_edges(
        len(label), [(label[u], label[v]) for u, v in g.edges() if u in label and v in label]
    )
    assert induced_subgraph(g, mask) == expected
