import random
import sys
import time
from functools import reduce
from itertools import combinations
from operator import or_, xor

import pytest

from conftest import complete, cycle, path, peak_rss_mb_under_1_gib, random_graph, random_weighted, star
from lcfoliage.entanglement import (
    UniformityReport,
    e_matrix,
    entropy,
    entropy_via_foliage,
    marginal_maximally_mixed,
    schmidt_vector,
    statevector_entropy_oracle,
    uniformity,
)
from lcfoliage.foliage import foliage_partition, foliage_representation, normal_form
from lcfoliage.graph import (
    Graph,
    SizeGuardError,
    WeightedGraph,
    connected_components,
    local_complement,
    qudit_scale,
    qudit_star,
)
from lcfoliage.orbits import graph_for_partition, nonisomorphic_graphs


K23 = Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])


def test_entropy_anchors():
    c5 = cycle(5)
    assert entropy(c5, 0) == 0
    assert entropy(c5, 0b11111) == 0
    assert entropy(c5, 0b00011) == 2
    s4 = star(4)
    for mask in range(1, 15):
        assert entropy(s4, mask) == 1
    assert entropy(complete(6), 0b000111) == 1


def test_entropy_validates_mask():
    with pytest.raises(ValueError):
        entropy(cycle(4), 0b10000)


@pytest.mark.parametrize("seed", range(20))
def test_entropy_palindrome(seed):
    rng = random.Random(seed)
    g = random_graph(rng.randrange(2, 10), rng.random(), rng)
    full = (1 << g.n) - 1
    for _ in range(10):
        mask = rng.randrange(1 << g.n)
        assert entropy(g, mask) == entropy(g, full ^ mask)


def test_schmidt_vector_k2():
    vec = schmidt_vector(Graph.from_edges(2, [(0, 1)]))
    assert list(vec.values) == [0, 1, 1, 0]
    assert vec[0b01] == 1


def test_schmidt_vector_csv():
    vec = schmidt_vector(Graph.from_edges(2, [(0, 1)]))
    assert vec.to_csv() == "mask,size,entropy\n0,0,0\n1,1,1\n2,1,1\n3,2,0\n"


def test_schmidt_singletons_on_connected_graphs():
    rng = random.Random(11)
    for _ in range(20):
        g = random_graph(rng.randrange(2, 9), 0.7, rng)
        if len(connected_components(g)) != 1:
            continue
        vec = schmidt_vector(g)
        for v in range(g.n):
            assert vec[1 << v] == 1


def test_schmidt_guard():
    # 2^25 lanes of four bytes: refused before any array is built
    start = time.process_time()
    with pytest.raises(SizeGuardError, match="lane bytes <= 67108864$"):
        schmidt_vector(Graph.from_edges(25, []))
    assert time.process_time() - start < 0.1


@pytest.mark.parametrize("seed", range(20))
def test_schmidt_vector_is_lc_invariant(seed):
    rng = random.Random(500 + seed)
    g = random_graph(rng.randrange(2, 10), rng.random(), rng)
    vec = schmidt_vector(g).values
    h = g
    for _ in range(5):
        h = local_complement(h, rng.randrange(h.n))
    assert schmidt_vector(h).values == vec


def assert_vector_matches_entropy(g):
    assert schmidt_vector(g).values == bytes(entropy(g, mask) for mask in range(1 << g.n))


@pytest.mark.parametrize("n", range(1, 7))
def test_schmidt_vector_matches_entropy_on_every_type(n):
    for g in nonisomorphic_graphs(n):
        assert_vector_matches_entropy(g)


@pytest.mark.parametrize("n", range(11))
def test_schmidt_vector_matches_entropy_on_complete_star_and_empty_graphs(n):
    for g in (complete(n), star(n), Graph.from_edges(n, [])):
        assert_vector_matches_entropy(g)


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("n", range(7, 13))
def test_schmidt_vector_matches_entropy_on_random_graphs(n, p):
    assert_vector_matches_entropy(random_graph(n, p, random.Random(100 * n + int(10 * p))))


@pytest.mark.parametrize("n", [15, 16])
def test_schmidt_vector_at_the_lane_width_boundary(n):
    # N[V] = 2^n first needs 17 bits at n = 16; from n = 15 the lanes span
    # more than one int of 2^14 lanes
    rng = random.Random(1500 + n)
    masks = [0, (1 << n) - 1, *(1 << v for v in range(n))]
    masks += [rng.randrange(1 << n) for _ in range(200)]
    for g in (random_graph(n, 0.5, rng), Graph.from_edges(n, [])):
        vec = schmidt_vector(g)
        assert [vec[mask] for mask in masks] == [entropy(g, mask) for mask in masks]


P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
SUBSET_READERS = {
    "schmidt_vector": lambda mask: schmidt_vector(P3)[mask],
    "entropy_via_foliage": lambda mask: entropy_via_foliage(complete(3), mask),  # K3 is in normal form
    "statevector_entropy_oracle": lambda mask: statevector_entropy_oracle(P3, mask),
}
OUTSIDE_MASKS = (-1, -8, 8, 1 << 40)


@pytest.mark.parametrize(
    "reader, mask",
    [(reader, mask) for reader in SUBSET_READERS for mask in OUTSIDE_MASKS],
    # the EntropyVector cases keep the ids they had before the other readers joined
    ids=[
        str(mask) if reader == "schmidt_vector" else f"{reader}-{mask}"
        for reader in SUBSET_READERS
        for mask in OUTSIDE_MASKS
    ],
)
def test_entropy_vector_rejects_masks_outside_the_vertex_range(reader, mask, monkeypatch):
    # the oracle checks the subset before it imports numpy, so the check
    # holds without numpy too
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(ValueError, match="subset has bits outside the vertex range"):
        SUBSET_READERS[reader](mask)


SCHMIDT_PEAK_RSS = """
import random
from lcfoliage.entanglement import schmidt_vector
from lcfoliage.graph import Graph

rng = random.Random(20)
g = Graph.from_edges(20, [(u, v) for u in range(20) for v in range(u + 1, 20) if rng.random() < 0.5])
vec = schmidt_vector(g)
assert vec[0] == vec[(1 << 20) - 1] == 0
"""


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from Linux's /proc")
def test_schmidt_vector_peak_rss_at_n_20():
    # the lanes live in arrays and in ints of 2^14 lanes, never in a list of 2^n ints
    assert peak_rss_mb_under_1_gib(SCHMIDT_PEAK_RSS) < 96


def test_e_matrix_anchors():
    em = e_matrix(foliage_representation(complete(5)))
    assert em == (0b1,)
    em = e_matrix(foliage_representation(K23))
    assert em == (0b10, 0b01)


def test_e_matrix_requires_normal_form():
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError):
        e_matrix(foliage_representation(p4))
    with pytest.raises(ValueError):
        entropy_via_foliage(p4, 0b0011)


def test_entropy_via_foliage_raises_on_every_call():
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    for _ in range(2):
        with pytest.raises(ValueError):
            entropy_via_foliage(p4, 0b0011)
    assert entropy_via_foliage(normal_form(p4), 0b0011) == 1
    with pytest.raises(ValueError):
        entropy_via_foliage(p4, 0b0011)


def test_entropy_via_foliage_on_alternating_graphs():
    # the kept matrix belongs to one graph: asking about two graphs of the
    # same order in turn must not answer for the other one
    rng = random.Random(12)
    graphs = [normal_form(graph_for_partition(sizes)) for sizes in ((2, 3, 3), (1, 3, 4))]
    graphs += [normal_form(random_graph(8, p, rng)) for p in (0.2, 0.5, 0.8)]
    for g, h in zip(graphs, graphs[1:]):
        for mask in range(1 << 8):
            assert entropy_via_foliage(g, mask) == entropy(g, mask)
            assert entropy_via_foliage(h, mask) == entropy(h, mask)


def test_entropy_via_foliage_matches_direct_exhaustively():
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            h = normal_form(g)
            for mask in range(1 << n):
                assert entropy_via_foliage(h, mask) == entropy(h, mask)


def scrambled_normal_form(n, rng):
    """A seeded normal form of order ``n`` with a foliage part of two or more vertices."""
    while True:
        k = rng.randrange(2, n)
        cuts = [0, *sorted(rng.sample(range(1, n), k - 1)), n]
        sizes = sorted(b - a for a, b in zip(cuts, cuts[1:]))
        if sizes[-1] > 1 and not (k <= 4 and sizes[-2] == 1):
            break
    g = graph_for_partition(sizes)
    for _ in range(2 * n):
        g = local_complement(g, rng.randrange(n))
    perm = list(range(n))
    rng.shuffle(perm)
    g = normal_form(Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()]))
    assert sorted(foliage_partition(g).sizes()) == sizes
    return g


def test_entropy_via_foliage_matches_direct_on_larger_parts():
    rng = random.Random(1012)
    for n in (10, 11, 12):
        for _ in range(2):
            g = scrambled_normal_form(n, rng)
            for mask in range(1 << n):
                assert entropy_via_foliage(g, mask) == entropy(g, mask), (g.rows, mask)


def test_entropy_via_foliage_on_single_vertex_parts_ranks_the_rows_of_entropy(monkeypatch):
    import lcfoliage.entanglement as entanglement_mod

    ranked = []
    real = entanglement_mod.rank_of_rows

    def rank_of_rows(rows):
        ranked.append(list(rows))
        return real(ranked[-1])

    monkeypatch.setattr(entanglement_mod, "rank_of_rows", rank_of_rows)
    rng = random.Random(1013)
    g = normal_form(random_graph(10, 0.5, rng))
    while not foliage_partition(g).is_trivial:
        g = normal_form(random_graph(10, 0.5, rng))
    for mask in range(1 << 10):
        ranked.clear()
        assert entropy_via_foliage(g, mask) == entropy(g, mask)
        assert ranked[0] == ranked[1], mask


def test_marginal_anchors():
    assert not marginal_maximally_mixed(complete(5), 0, 1)
    assert marginal_maximally_mixed(K23, 0, 2)
    assert not marginal_maximally_mixed(K23, 2, 3)
    with pytest.raises(ValueError):
        marginal_maximally_mixed(Graph.from_edges(3, [(0, 1)]), 0, 2)
    with pytest.raises(ValueError):
        marginal_maximally_mixed(K23, 1, 1)


@pytest.mark.parametrize("w", [5, -1])
def test_marginal_rejects_vertices_outside_the_graph(w):
    with pytest.raises(ValueError, match=rf"^vertex {w} out of range$"):
        marginal_maximally_mixed(complete(3), 0, w)


def test_marginal_equals_pair_entropy_exhaustively():
    for n in range(2, 7):
        for g in nonisomorphic_graphs(n, connected=True):
            for v in range(n):
                for w in range(v + 1, n):
                    expected = entropy(g, (1 << v) | (1 << w)) == 2
                    assert marginal_maximally_mixed(g, v, w) == expected


def test_uniformity_anchors():
    rep = uniformity(cycle(5))
    assert (rep.k_max, rep.witness) == (2, None)
    rep = uniformity(complete(5))
    assert rep.k_max == 1
    assert rep.witness == 0b00011
    rep = uniformity(K23)
    assert rep.k_max == 1
    assert entropy(K23, rep.witness) < rep.witness.bit_count()
    assert uniformity(Graph.from_edges(3, [(0, 1)])).k_max == 0
    assert uniformity(Graph.from_edges(1, [])).k_max == 0


def uniformity_by_cut_ranks(g):
    """``(k_max, witness)``: the first k-subset, by size then ``combinations``, of entropy below k."""
    for k in range(1, g.n // 2 + 1):
        for combo in combinations(range(g.n), k):
            mask = sum(1 << v for v in combo)
            if entropy(g, mask) != k:
                return k - 1, mask
    return g.n // 2, None


def relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[v], perm[w]) for v in range(g.n) for w in range(v) if g.rows[v] >> w & 1]
    return Graph.from_edges(g.n, edges)


def uniformity_cases():
    rng = random.Random(4207)
    yield Graph.from_edges(0, [])
    for n in range(1, 8):
        for g in nonisomorphic_graphs(n):
            yield relabelled(g, rng)
    for n in range(8, 17):
        for p in (0.15, 0.5, 0.85):
            yield random_graph(n, p, rng)
        # two random blocks with no edge between them, relabelled
        k = rng.randrange(1, n)
        low, high = random_graph(k, 0.5, rng), random_graph(n - k, 0.5, rng)
        yield relabelled(Graph(n, low.rows + tuple(row << k for row in high.rows)), rng)
    for n in range(1, 13):
        yield complete(n)
        yield Graph.from_edges(n, [])


def test_uniformity_matches_the_first_failing_cut():
    for g in uniformity_cases():
        rep = uniformity(g)
        assert (rep.n, rep.k_max, rep.witness) == (g.n, *uniformity_by_cut_ranks(g)), g.rows
    assert uniformity(cycle(5)).witness is None  # C5, among the cases, has none


def test_uniformity_below_three_is_read_off_the_foliage_partition():
    # the paper's two-body result: the stabilizer supports of weight 1 are
    # the isolated vertices, and those of weight 2 the pairs inside one
    # non-singleton foliage part (besides pairs of isolated vertices)
    rng = random.Random(2305)
    graphs = [relabelled(g, rng) for n in range(1, 8) for g in nonisomorphic_graphs(n)]
    graphs += [random_graph(rng.randint(4, 14), rng.random(), rng) for _ in range(2000)]
    assert len(graphs) == 3252
    for g in graphs:
        rep = uniformity(g)
        isolated = [v for v in range(g.n) if not g.rows[v]]
        pairs = [part[:2] for part in foliage_partition(g).parts if len(part) > 1]
        if isolated and g.n >= 2:
            assert (rep.k_max, rep.witness) == (0, 1 << isolated[0]), g.rows
        elif pairs and g.n >= 4:
            v, w = min(pairs)
            assert (rep.k_max, rep.witness) == (1, 1 << v | 1 << w), g.rows
        if g.n >= 4:
            assert (rep.k_max >= 2) == (not isolated and not pairs), g.rows


def first_sets(g, count):
    """``(size, least)``: the size of the ``count``-th vertex set x by size, then in
    ``combinations`` order, and the least support weight |x | Gamma(x)| up to it."""
    bits = [1 << v for v in range(g.n)]
    seen, least = 0, g.n + 1
    for size in range(1, g.n + 1):
        for x in combinations(range(g.n), size):
            support = reduce(or_, map(bits.__getitem__, x), reduce(xor, map(g.rows.__getitem__, x)))
            least = min(least, support.bit_count())
            seen += 1
            if seen == count:
                return size, least
    raise ValueError("fewer sets than count")


UNIFORMITY_SETS = 1 << 20


def test_uniformity_guard_and_force():
    # the budget counts the vertex sets read, not n.  uniformity reads every
    # set of a size below both n // 2 and the least support weight met so
    # far, in this order, so a seeded G(40, 1/2) must pass the budget: no
    # support among its first 2^20 + 1 sets has a weight at or below their
    # largest size
    g = random_graph(40, 0.5, random.Random(40))
    size, least = first_sets(g, UNIFORMITY_SETS + 1)
    assert size < min(g.n // 2, least), (size, least)
    with pytest.raises(SizeGuardError, match="vertex sets read <= 1048576$"):
        uniformity(g)
    # many vertices and few sets read, with no force to ask for
    assert uniformity(Graph.from_edges(21, [])) == UniformityReport(21, 0, 0b1)
    assert uniformity(path(2000)) == UniformityReport(2000, 1, 0b11)
    with pytest.raises(TypeError):
        uniformity(g, force=True)


def test_two_uniform_iff_trivial_partition():
    for n in range(4, 7):
        for g in nonisomorphic_graphs(n, connected=True):
            is_two_uniform = uniformity(g).k_max >= 2
            assert is_two_uniform == foliage_partition(g).is_trivial


def test_oracle_anchors():
    assert statevector_entropy_oracle(Graph.from_edges(2, [(0, 1)]), 0b01) == 1
    assert statevector_entropy_oracle(cycle(5), 0b00011) == 2
    assert statevector_entropy_oracle(cycle(5), 0) == 0
    w = weighted_triangle()
    assert statevector_entropy_oracle(w, 0b001) == 1


def weighted_triangle():
    from lcfoliage.graph import WeightedGraph

    return WeightedGraph.from_edges(3, 3, [(0, 1, 1), (1, 2, 2), (0, 2, 1)])


def test_oracle_guard():
    with pytest.raises(SizeGuardError, match=r"d\^n <= 1048576$"):
        statevector_entropy_oracle(Graph.from_edges(21, []), 1)


@pytest.mark.parametrize(
    "g",
    [path(4000), WeightedGraph.from_edges(4000, 5, [(v, v + 1, 1 + v % 4) for v in range(3999)])],
    ids=["qubit", "weighted"],
)
def test_oracle_refuses_before_its_weight_table(g):
    # the n x n weight table of a 4000-vertex path takes about a CPU second
    # to build, so the budget must be checked before it
    start = time.process_time()
    with pytest.raises(SizeGuardError):
        statevector_entropy_oracle(g, 1)
    assert time.process_time() - start < 0.1


@pytest.mark.parametrize("seed", range(10))
def test_oracle_matches_rank_on_random_graphs(seed):
    rng = random.Random(3000 + seed)
    g = random_graph(rng.randrange(2, 7), rng.random(), rng)
    for _ in range(8):
        mask = rng.randrange(1 << g.n)
        assert statevector_entropy_oracle(g, mask) == entropy(g, mask)


@pytest.mark.parametrize("d", [3, 5])
def test_oracle_entropy_invariant_under_qudit_moves(d):
    rng = random.Random(d * 11)
    for _ in range(10):
        g = random_weighted(4, d, 0.7, rng)
        masks = [rng.randrange(1 << g.n) for _ in range(4)]
        before = [statevector_entropy_oracle(g, m) for m in masks]
        h = g
        for _ in range(6):
            if rng.random() < 0.5:
                h = qudit_star(h, rng.randrange(h.n), rng.randrange(d))
            else:
                h = qudit_scale(h, rng.randrange(h.n), rng.randrange(1, d))
        after = [statevector_entropy_oracle(h, m) for m in masks]
        assert after == before
