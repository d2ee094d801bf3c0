import random
import sys
from fractions import Fraction

import pytest

from conftest import complete, cpu_s_and_peak_rss_mb_under_1_gib, peak_rss_mb_under_1_gib, random_graph, random_weighted, star
from lcfoliage.graph import (
    Graph,
    WeightedGraph,
    connected_components,
    induced_subgraph,
    iter_bits,
    local_complement,
    mask_of,
    qudit_scale,
    qudit_star,
)


def test_build_and_accessors():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.rows == (mask_of([1]), mask_of([0, 2]), mask_of([1, 3]), mask_of([2]))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Graph(3, [0, 0]), "need one adjacency row per vertex"),
        (lambda: WeightedGraph(3, 3, [[0, 0, 0], [0, 0, 0]]), "need one weight row per vertex"),
    ],
    ids=["Graph", "WeightedGraph"],
)
def test_a_row_count_other_than_n_is_refused(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("move", [qudit_star, qudit_scale])
@pytest.mark.parametrize("v", [3, -1])
def test_qudit_moves_refuse_a_vertex_out_of_range(move, v):
    g = WeightedGraph.from_edges(3, 3, [(0, 1, 1), (1, 2, 2)])
    with pytest.raises(ValueError, match=rf"^vertex {v} out of range$"):
        move(g, v, 1)


@pytest.mark.parametrize("build", [Graph, Graph.from_edges])
def test_a_negative_order_is_refused(build):
    with pytest.raises(ValueError) as exc:
        build(-1, [])
    assert str(exc.value) == "vertex count must be nonnegative"


def test_build_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])


def test_graph_ctor_rejects_asymmetry_and_loops():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))
    with pytest.raises(ValueError):
        Graph(1, (0b1,))
    with pytest.raises(ValueError):
        Graph(2, (0b100, 0b01))


@pytest.mark.parametrize(
    "rows, message",
    [
        ([0.0, 0.0], "row 0 is not an integer"),
        ("ab", "row 0 is not an integer"),
        ([0b10, True], "row 1 is not an integer"),
        ([0b10, None], "row 1 is not an integer"),
    ],
)
def test_graph_ctor_rejects_non_integer_rows(rows, message):
    with pytest.raises(ValueError) as exc:
        Graph(2, rows)
    assert str(exc.value) == message


def test_iter_bits():
    assert list(iter_bits(0b101001)) == [0, 3, 5]
    assert list(iter_bits(0)) == []


def test_induced_subgraph_renumbers_in_increasing_order():
    g = Graph.from_edges(5, [(0, 1), (1, 3), (3, 4), (0, 4)])
    assert induced_subgraph(g, 0b11010) == Graph.from_edges(3, [(0, 1), (1, 2)])
    assert induced_subgraph(g, 0) == Graph.from_edges(0, [])
    assert induced_subgraph(g, 0b11111) == g
    with pytest.raises(ValueError):
        induced_subgraph(g, 1 << 5)
    with pytest.raises(ValueError):
        induced_subgraph(g, -1)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_lc_swaps_star_and_complete(n):
    assert local_complement(complete(n), 0) == star(n)
    assert local_complement(star(n), 0) == complete(n)


@pytest.mark.parametrize("seed", range(30))
def test_lc_is_an_involution(seed):
    rng = random.Random(seed)
    g = random_graph(rng.randrange(1, 9), 0.5, rng)
    a = rng.randrange(g.n)
    assert local_complement(local_complement(g, a), a) == g


@pytest.mark.parametrize("seed", range(10))
def test_lc_keeps_the_pivot_neighbourhood(seed):
    rng = random.Random(50 + seed)
    g = random_graph(7, 0.5, rng)
    a = rng.randrange(7)
    assert local_complement(g, a).rows[a] == g.rows[a]


def test_lc_fixes_isolated_and_pendant_vertices():
    g = Graph.from_edges(3, [(0, 1)])
    assert local_complement(g, 2) == g
    assert local_complement(g, 0) == g  # single neighbour


def test_lc_vertex_range():
    with pytest.raises(ValueError):
        local_complement(complete(3), 3)


def test_weighted_validation():
    with pytest.raises(ValueError):
        WeightedGraph.from_edges(3, 4, [])  # composite modulus
    with pytest.raises(ValueError):
        WeightedGraph.from_edges(3, 1, [])
    with pytest.raises(ValueError):
        WeightedGraph(2, 3, [[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(ValueError):
        WeightedGraph(1, 3, [[2]])  # loop
    with pytest.raises(ValueError):
        WeightedGraph(2, 3, [[0, 5], [5, 0]])  # weight out of range


@pytest.mark.parametrize(
    "d",
    [
        561,  # a Carmichael number
        3825123056546413051,  # a strong pseudoprime to every base from 2 to 23
        1000000007 * 998244353,  # two large prime factors
    ],
)
def test_weighted_refuses_composite_moduli(d):
    with pytest.raises(ValueError, match="is not prime"):
        WeightedGraph(0, d, [])


def test_weighted_takes_large_prime_moduli_and_refuses_from_2_to_the_64():
    for d in (1000000000000000003, (1 << 61) - 1, (1 << 64) - 59):
        assert WeightedGraph(0, d, []).d == d
    with pytest.raises(ValueError, match="not below 2\\*\\*64"):
        WeightedGraph(0, (1 << 64) + 13, [])


@pytest.mark.parametrize(
    "weights, message",
    [
        ([1, 2], "weight row 0 is not a sequence"),
        ([[0, 1], None], "weight row 1 is not a sequence"),
        ([[0, True], [True, 0]], "weight at (0, 1) is not an integer"),
        ([[False, 1], [1, 0]], "weight at (0, 0) is not an integer"),
        ([b"\x00\x01", [True, 0]], "weight at (1, 0) is not an integer"),
    ],
)
def test_weighted_ctor_rejects_non_sequence_rows_and_bools(weights, message):
    with pytest.raises(ValueError) as exc:
        WeightedGraph(2, 3, weights)
    assert str(exc.value) == message


def test_weighted_ctor_takes_byte_string_rows():
    g = WeightedGraph(3, 5, [b"\x00\x04\x00", bytearray(b"\x04\x00\x02"), [0, 2, 0]])
    assert g.weights == ((0, 4, 0), (4, 0, 2), (0, 2, 0))
    assert all(type(x) is int for row in g.weights for x in row)
    assert g.supports == (0b010, 0b101, 0b010)
    assert g == WeightedGraph.from_edges(3, 5, [(0, 1, 4), (1, 2, 2)])


def test_weighted_from_edges_last_weight_wins_either_way_round():
    g = WeightedGraph.from_edges(3, 5, [(1, 0, 2), (0, 1, 3), (2, 1, 4), (1, 2, 1)])
    assert g.edges() == [(0, 1, 3), (1, 2, 1)]
    assert g.weights == ((0, 3, 0), (3, 0, 1), (0, 1, 0))


def test_weighted_from_edges_zero_weight_removes_the_pair():
    g = WeightedGraph.from_edges(3, 5, [(0, 1, 2), (1, 0, 10), (0, 2, 5), (1, 2, 3)])
    assert g.edges() == [(1, 2, 3)]
    assert g.supports == (0b000, 0b100, 0b010)
    assert g == WeightedGraph(3, 5, [[0, 0, 0], [0, 0, 3], [0, 3, 0]])
    assert WeightedGraph.from_edges(2, 3, [(0, 1, 1), (0, 1, -3)]) == WeightedGraph(2, 3, [[0, 0], [0, 0]])


def test_weighted_graphs_equal_by_either_constructor_hash_alike():
    a = WeightedGraph.from_edges(4, 5, [(2, 0, 3), (0, 1, 4), (3, 2, 7)])
    b = WeightedGraph(4, 5, [[0, 4, 3, 0], [4, 0, 0, 0], [3, 0, 0, 2], [0, 0, 2, 0]])
    other_d = WeightedGraph.from_edges(4, 7, [(0, 1, 4), (0, 2, 3), (2, 3, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != other_d
    assert len({a, b, other_d}) == 2


def test_weighted_repr_lists_n_d_and_the_edges():
    g = WeightedGraph.from_edges(4, 5, [(2, 0, 3), (0, 1, 4), (3, 2, 7)])
    assert repr(g) == "WeightedGraph(n=4, d=5, edges=[(0, 1, 4), (0, 2, 3), (2, 3, 2)])"
    assert repr(WeightedGraph(2, 3, [[0, 0], [0, 0]])) == "WeightedGraph(n=2, d=3, edges=[])"


def test_weighted_from_edges_reduces_negative_weights():
    g = WeightedGraph.from_edges(3, 5, [(0, 1, -1), (1, 2, 6), (2, 0, -7)])
    assert g.edges() == [(0, 1, 4), (0, 2, 3), (1, 2, 1)]
    assert all(type(x) is int for row in g.weights for x in row)


@pytest.mark.parametrize(
    "n, d, edges, message",
    [
        (3, 5, [(2, 1, 2.5), (1, 0, 1.5)], "weight at (0, 1) is not an integer"),
        (3, 5, [(0, 2, 0.5), (0, 1, 1.5)], "weight at (0, 1) is not an integer"),
        (3, 5, [(0, 2, 0.5), (2, 0, 1), (1, 2, 5.0)], "weight at (1, 2) is not an integer"),
        (3, 5, [(0, 1, Fraction(7, 2))], "weight at (0, 1) is not an integer"),
        # the order and the modulus come first, then range and loop errors
        # in edge order, then the first bad cell in row-major order
        (3, 5, [(0, 1, 1.5), (1, 1, 1)], "self-loop at vertex 1"),
        (3, 5, [(0, 1, 1.5), (0, 3, 1)], "edge (0, 3) out of range for n=3"),
        (3, 4, [(0, 1, 1.5)], "modulus 4 is not prime"),
        (-1, 4, [], "vertex count must be nonnegative"),
        (3, 0, [(0, 1, 1)], "modulus 0 is not prime"),
        (3, 5, [(0, 1, "a")], "weight at (0, 1) is not an integer"),
        (-1, 3, [(0, 1, 1)], "vertex count must be nonnegative"),
        (2, 4, [(0, 5, 1)], "modulus 4 is not prime"),
    ],
)
def test_weighted_from_edges_names_the_first_error(n, d, edges, message):
    with pytest.raises(ValueError) as exc:
        WeightedGraph.from_edges(n, d, edges)
    assert str(exc.value) == message


# a bool or a non-integer is refused as the constructors refuse it, naming
# the vertex count, the edge or the weight's pair
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Graph.from_edges(3, [(0.0, 1)]), "edge (0.0, 1) has an endpoint that is not an integer"),
        (lambda: Graph.from_edges(3, [(0, 1.0)]), "edge (0, 1.0) has an endpoint that is not an integer"),
        (lambda: Graph.from_edges(3, [("0", 1)]), "edge ('0', 1) has an endpoint that is not an integer"),
        (lambda: Graph.from_edges(3, [(0, True)]), "edge (0, True) has an endpoint that is not an integer"),
        (lambda: Graph.from_edges(3, [(0, 1), (5, 0.5)]), "edge (5, 0.5) has an endpoint that is not an integer"),
        (lambda: Graph.from_edges(2.0, [(0, 1)]), "vertex count 2.0 is not an integer"),
        (lambda: Graph.from_edges(True, []), "vertex count True is not an integer"),
        (lambda: WeightedGraph.from_edges(3, 3, [(0, 1, True)]), "weight at (0, 1) is not an integer"),
        (lambda: WeightedGraph.from_edges(3, 3, [(2, 1, False)]), "weight at (1, 2) is not an integer"),
        (lambda: WeightedGraph.from_edges(3, 3, [(0, 1.0, 1)]), "edge (0, 1.0) has an endpoint that is not an integer"),
        (lambda: WeightedGraph.from_edges(3.0, 3, []), "vertex count 3.0 is not an integer"),
    ],
    ids=[
        "float-u", "float-v", "str-u", "bool-v", "second-edge", "float-n", "bool-n",
        "bool-weight", "false-weight", "weighted-float-v", "weighted-float-n",
    ],
)
def test_from_edges_refuses_non_integers(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


# a modulus that is not an integer is refused before the primality test
@pytest.mark.parametrize("d", [3.0, Fraction(3), "3", True], ids=["float", "fraction", "str", "bool"])
@pytest.mark.parametrize(
    "build",
    [lambda d: WeightedGraph.from_edges(3, d, [(0, 1, 1)]), lambda d: WeightedGraph(2, d, [[0, 1], [1, 0]])],
    ids=["from_edges", "rows"],
)
def test_weighted_refuses_a_non_integer_modulus(build, d):
    with pytest.raises(ValueError) as exc:
        build(d)
    assert str(exc.value) == f"modulus {d!r} is not an integer"


def test_from_edges_keeps_python_ints_for_numpy_endpoints():
    # 1 << numpy.int64(70) overflows to 0, which once left half an edge
    np = pytest.importorskip("numpy")
    g = Graph.from_edges(100, [(np.int64(0), np.int64(70))])
    assert g == Graph.from_edges(100, [(0, 70)])
    assert all(type(row) is int for row in g.rows)
    w = WeightedGraph.from_edges(100, 5, [(np.int64(70), np.int64(0), np.int64(3))])
    assert w == WeightedGraph.from_edges(100, 5, [(0, 70, 3)])
    assert (w.supports[0], w.supports[70]) == (1 << 70, 1)


def test_weighted_from_edges_takes_an_overwritten_non_integer():
    g = WeightedGraph.from_edges(3, 5, [(0, 1, 2.5), (1, 0, 4), (0, 2, Fraction(1, 2)), (0, 2, 0)])
    assert g.edges() == [(0, 1, 4)]


def test_qudit_star_example_d3():
    # path 0-1-2 with weights 1 and 2, complement at the middle vertex
    g = WeightedGraph.from_edges(3, 3, [(0, 1, 1), (1, 2, 2)])
    out = qudit_star(g, 1, 1)
    assert out.edges() == [(0, 1, 1), (0, 2, 2), (1, 2, 2)]


def test_qudit_star_zero_scalar_is_identity():
    rng = random.Random(1)
    g = random_weighted(5, 5, 0.6, rng)
    assert qudit_star(g, 2, 0) == g


@pytest.mark.parametrize("seed", range(10))
def test_qudit_star_inverse(seed):
    rng = random.Random(200 + seed)
    d = rng.choice([3, 5])
    g = random_weighted(6, d, 0.5, rng)
    w = rng.randrange(6)
    a = rng.randrange(1, d)
    assert qudit_star(qudit_star(g, w, a), w, d - a) == g


def test_qudit_scale_basics():
    rng = random.Random(2)
    g = random_weighted(5, 5, 0.6, rng)
    assert qudit_scale(g, 0, 1) == g
    with pytest.raises(ValueError):
        qudit_scale(g, 0, 0)
    b = 3
    binv = pow(b, -1, 5)
    assert qudit_scale(qudit_scale(g, 2, b), 2, binv) == g


@pytest.mark.parametrize("seed", range(15))
def test_qudit_star_matches_qubit_lc_for_d2(seed):
    rng = random.Random(300 + seed)
    g = random_graph(7, 0.5, rng)
    wg = WeightedGraph(
        7, 2, [[(g.rows[v] >> w) & 1 for w in range(7)] for v in range(7)]
    )
    a = rng.randrange(7)
    lhs = qudit_star(wg, a, 1)
    rhs = local_complement(g, a)
    assert lhs.supports == rhs.rows


def dense_star(mat, d, w, a):
    n = len(mat)
    return [
        [
            (mat[j][k] + a * mat[w][j] * mat[w][k]) % d if w not in (j, k) and j != k else mat[j][k]
            for k in range(n)
        ]
        for j in range(n)
    ]


def dense_scale(mat, d, v, b):
    n = len(mat)
    return [[mat[j][k] * (b if v in (j, k) else 1) % d for k in range(n)] for j in range(n)]


def from_dense(mat, d):
    n = len(mat)
    return WeightedGraph.from_edges(n, d, [(j, k, mat[j][k]) for j in range(n) for k in range(j + 1, n)])


@pytest.mark.parametrize("d", [3, 5, 7])
def test_qudit_moves_match_dense_formulas(d):
    # from_edges drops zero weights, so equality also checks that a move
    # stores no weight that cancelled to 0
    rng = random.Random(400 + d)
    cancelled = 0
    for _ in range(80):
        n = rng.randrange(1, 9)
        g = random_weighted(n, d, rng.random(), rng)
        mat = [list(row) for row in g.weights]
        w = rng.randrange(n)
        scalars = [0, d, -2 * d, rng.randrange(-2 * d, 2 * d)]
        nbrs = [j for j in range(n) if mat[w][j]]
        if len(nbrs) >= 2:
            j, k = rng.sample(nbrs, 2)
            scalars.append(-mat[j][k] * pow(mat[w][j] * mat[w][k], -1, d))
        for a in scalars:
            expect = dense_star(mat, d, w, a)
            out = qudit_star(g, w, a)
            assert out == from_dense(expect, d)
            assert out.weights == tuple(map(tuple, expect))
            assert out.supports == from_dense(expect, d).supports
            cancelled += len(g.edges()) > len(out.edges())
        for b in (1, d + 1, -1, rng.randrange(1, d)):
            expect = dense_scale(mat, d, w, b)
            out = qudit_scale(g, w, b)
            assert out == from_dense(expect, d)
            assert out.weights == tuple(map(tuple, expect))
            assert out.supports == g.supports
        for b in (0, d, -d):
            with pytest.raises(ValueError, match="scale factor must be nonzero mod d"):
                qudit_scale(g, w, b)
    assert cancelled > 0


WEIGHTED_CYCLE_MOVES = """
from lcfoliage.graph import WeightedGraph, qudit_scale, qudit_star
from lcfoliage.graph6 import decode_weighted, encode_weighted

n = 8192
g = WeightedGraph.from_edges(n, 3, [(v, (v + 1) % n, 1 + v % 2) for v in range(n)])
h = qudit_scale(qudit_star(g, 0, 1), 1, 2)
weight = {(v, w): x for v, w, x in h.edges()}
assert (weight[0, 1], weight[1, 2], weight[1, n - 1]) == (2, 1, 1)
assert len(weight) == n + 1
assert decode_weighted(encode_weighted(h)) == h
"""


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from Linux's /proc")
def test_weighted_cycle_moves_and_round_trip_stay_small():
    # the moves touch the neighbourhood of one vertex; no n x n matrix is built
    assert peak_rss_mb_under_1_gib(WEIGHTED_CYCLE_MOVES) < 64


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from Linux's /proc")
def test_validating_a_20000_cycle_is_small_and_quick():
    # 20,000 edges are checked one by one; no n x n string is written
    setup = "n = 20000\nrows = [(1 << (v - 1) % n) | (1 << (v + 1) % n) for v in range(n)]\n"
    code = "from lcfoliage.graph import Graph\nassert Graph(n, rows).rows[0].bit_count() == 2\n"
    cpu, mb = cpu_s_and_peak_rss_mb_under_1_gib(setup, code)
    assert cpu < 0.5
    assert mb < 100


def test_connected_components():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (4, 5)])
    assert connected_components(g) == [0b000111, 0b001000, 0b110000]
    w = WeightedGraph.from_edges(4, 3, [(1, 3, 2)])
    assert connected_components(w) == [0b0001, 0b1010, 0b0100]
