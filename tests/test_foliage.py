import hashlib
import random

import pytest

from conftest import (
    complete,
    cycle,
    partition_by_definition,
    parts_as_sets,
    path,
    random_graph,
    random_weighted,
    related_by_definition,
    star,
    weight_matrix,
)
from lcfoliage.foliage import (
    PartType,
    foliage_graph,
    foliage_partition,
    foliage_representation,
    foliage_set,
    lifted_local_complement,
    normal_form,
    partition_text,
    reconstruct_graph,
    representation_json,
    representation_text,
    saturation,
    vertices_related,
)
from lcfoliage.graph import Graph, WeightedGraph, local_complement, mask_of
from lcfoliage.orbits import nonisomorphic_graphs


K23 = Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])


# ---------------------------------------------------------------------------
# the pairwise relation

def test_relation_anchors():
    k5 = complete(5)
    assert vertices_related(k5, 0, 3)
    assert vertices_related(k5, 2, 4)
    p4 = path(4)
    assert vertices_related(p4, 0, 1)   # leaf and axil
    assert not vertices_related(p4, 1, 2)
    two_isolated = Graph.from_edges(2, [])
    assert not vertices_related(two_isolated, 0, 1)


def test_relation_validates_arguments():
    g = path(3)
    with pytest.raises(ValueError):
        vertices_related(g, 1, 1)
    with pytest.raises(ValueError):
        vertices_related(g, 0, 3)


def test_relation_matches_definition_exhaustively():
    for n in range(2, 7):
        for g in nonisomorphic_graphs(n):
            for v in range(n):
                for w in range(v + 1, n):
                    assert vertices_related(g, v, w) == related_by_definition(g, v, w)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_relation_matches_definition_weighted(d):
    rng = random.Random(d)
    for _ in range(100):
        g = random_weighted(rng.randrange(2, 8), d, rng.random(), rng)
        for v in range(g.n):
            for w in range(v + 1, g.n):
                assert vertices_related(g, v, w) == related_by_definition(g, v, w)


def test_relation_is_transitive_on_random_weighted_graphs():
    rng = random.Random(99)
    for _ in range(1000):
        d = rng.choice([2, 3, 5])
        g = random_weighted(rng.randrange(3, 9), d, rng.random(), rng)
        rel = {
            (v, w): vertices_related(g, v, w)
            for v in range(g.n)
            for w in range(g.n)
            if v != w
        }
        for u in range(g.n):
            for v in range(g.n):
                for w in range(g.n):
                    if len({u, v, w}) == 3 and rel[(u, v)] and rel[(v, w)]:
                        assert rel[(u, w)]


# ---------------------------------------------------------------------------
# the partition

def test_partition_anchors():
    assert foliage_partition(complete(5)).parts == ((0, 1, 2, 3, 4),)
    assert foliage_partition(K23).parts == ((0, 1), (2, 3, 4))
    assert foliage_partition(cycle(5)).parts == ((0,), (1,), (2,), (3,), (4,))
    assert foliage_partition(path(4)).parts == ((0, 1), (2, 3))


def test_partition_matches_definition_exhaustively():
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            assert parts_as_sets(foliage_partition(g).parts) == partition_by_definition(g)


def test_partition_matches_definition_weighted():
    rng = random.Random(4242)
    for _ in range(500):
        d = rng.choice([2, 3, 5])
        g = random_weighted(rng.randrange(1, 9), d, rng.random(), rng)
        assert parts_as_sets(foliage_partition(g).parts) == partition_by_definition(g)


# Random graphs rarely hold more than one twin, so these families are built
# from twin classes: every vertex of the base graph becomes a class of true
# (adjacent) or false twins, under a random relabelling.  Weighted blow-ups
# scale vertex u by lam[u], so a class's rows are proportional over Z_d, and
# then knock out a few weights to break some of the proportions.

def blow_up(base, sizes, true_twins, rng, d=None, noise=0.0):
    """Graph on the classes of ``base`` (an edge set on range(len(sizes)))."""
    members = [b for b, size in enumerate(sizes) for _ in range(size)]
    rng.shuffle(members)  # members[u] is the class of vertex u
    n = len(members)
    lam = [rng.randrange(1, d) if d else 1 for _ in range(n)]
    scale = {}  # one weight per class pair
    edges = []
    for u in range(n):
        for w in range(u + 1, n):
            a, b = sorted((members[u], members[w]))
            if (a, b) not in base and not (a == b and true_twins[a]):
                continue
            x = scale.setdefault((a, b), rng.randrange(1, d) if d else 1)
            if d:
                x = x * lam[u] * lam[w] % d
                if rng.random() < noise:
                    x = rng.randrange(1, d)
            edges.append((u, w, x))
    if d:
        return WeightedGraph.from_edges(n, d, edges)
    return Graph.from_edges(n, [(u, w) for u, w, _ in edges])


def twin_rich_graph(rng, d=None):
    kind = rng.randrange(4)
    if kind == 0:  # complete multipartite: false-twin classes, all joined
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        base = {(a, b) for a in range(len(sizes)) for b in range(a + 1, len(sizes))}
        true_twins = [False] * len(sizes)
    elif kind == 1:  # a star: a centre and its leaves
        sizes = [1, rng.randint(1, 8)]
        base = {(0, 1)}
        true_twins = [False, False]
    elif kind == 2:  # disjoint cliques
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        base = set()
        true_twins = [True] * len(sizes)
    else:  # blow-up of a random graph
        k = rng.randint(1, 5)
        sizes = [rng.randint(1, 3) for _ in range(k)]
        base = {(a, b) for a in range(k) for b in range(a + 1, k) if rng.random() < 0.5}
        true_twins = [rng.random() < 0.5 for _ in range(k)]
    return blow_up(base, sizes, true_twins, rng, d, noise=0.1 if d else 0.0)


def test_partition_matches_definition_on_twin_rich_graphs():
    rng = random.Random(2305)
    for _ in range(300):
        g = twin_rich_graph(rng)
        assert parts_as_sets(foliage_partition(g).parts) == partition_by_definition(g)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_partition_matches_definition_on_twin_rich_weighted_graphs(d):
    rng = random.Random(d)
    for _ in range(150):
        g = twin_rich_graph(rng, d)
        assert parts_as_sets(foliage_partition(g).parts) == partition_by_definition(g)


def with_pendant_leaves(g, rng):
    """``g`` with one to three new vertices, each joined to a random old one."""
    leaves = rng.randint(1, 3)
    edges = g.edges() + [(rng.randrange(g.n), g.n + i, rng.randrange(1, g.d)) for i in range(leaves)]
    return WeightedGraph.from_edges(g.n + leaves, g.d, edges)


def test_weighted_twin_check_is_asked_only_about_support_twins(monkeypatch):
    # _weighted_rows_dependent has no branch for supports that differ away
    # from the two vertices, or are empty there: the sweep asks it only
    # about support twins, which share one nonempty support away from each
    # other
    import lcfoliage.foliage as foliage_mod

    real = foliage_mod._weighted_rows_dependent
    asked = []

    def spy(g, v, w):
        asked.append((g.supports[v] & ~(1 << w), g.supports[w] & ~(1 << v)))
        return real(g, v, w)

    monkeypatch.setattr(foliage_mod, "_weighted_rows_dependent", spy)
    rng = random.Random(45)
    graphs = [
        random_weighted(rng.randrange(1, 10), d, rng.random(), rng)
        for d in (2, 3, 5, 7)
        for _ in range(300)
    ]
    graphs += [with_pendant_leaves(twin_rich_graph(rng, d), rng) for d in (2, 3, 5, 7) for _ in range(100)]
    for g in graphs:
        assert parts_as_sets(foliage_partition(g).parts) == partition_by_definition(g)
    assert asked
    assert [(sv, sw) for sv, sw in asked if sv != sw or not sv] == []


# parts, in order, of the sample below; the order reaches the CLI text and
# JSON, so it must not drift
FROZEN_PARTS = [
    ((0, 5), (1, 2), (3, 4)),
    ((0, 1),),
    ((0, 2, 5, 9), (1, 8), (3, 4), (6, 7)),
    ((0, 1, 2),),
    ((0, 8, 9), (1, 2, 6), (3, 5, 7), (4, 10)),
    ((0,),),
    ((0, 1, 4, 6), (2,), (3, 5, 7)),
    ((0,), (1,), (2,), (3,)),
    ((0, 3), (1, 4), (2, 5)),
    ((0,), (1, 4), (2,), (3,), (5,), (6,)),
    ((0, 1, 2),),
    ((0,), (1,), (2,), (3,)),
    ((0,), (1, 5, 7), (2,), (3,), (4, 6), (8,)),
    ((0,), (1,), (2, 6, 7), (3,), (4,), (5,), (8,), (9,)),
]


def test_parts_order_is_frozen():
    rng = random.Random(77)
    moduli = [None] * 8 + [3, 5, 7, 3, 5, 7]
    got = [foliage_partition(twin_rich_graph(rng, d)).parts for d in moduli]
    assert got == FROZEN_PARTS


def test_parts_are_ordered_by_least_member():
    rng = random.Random(5)
    for _ in range(50):
        g = random_graph(8, 0.4, rng)
        parts = foliage_partition(g).parts
        heads = [p[0] for p in parts]
        assert heads == sorted(heads)
        assert all(list(p) == sorted(p) for p in parts)


def test_partition_helpers():
    part = foliage_partition(K23)
    assert part.part_of(3) == 1
    assert part.sizes() == (2, 3)
    assert part.masks == (0b00011, 0b11100)
    assert not part.is_trivial
    assert foliage_partition(cycle(5)).is_trivial


@pytest.mark.parametrize("v", [5, -1])
def test_part_of_rejects_vertices_outside_the_graph(v):
    with pytest.raises(ValueError, match=rf"^vertex {v} out of range$"):
        foliage_partition(K23).part_of(v)


@pytest.mark.parametrize("v", [7, -1])
def test_relation_names_the_vertex_outside_the_graph(v):
    with pytest.raises(ValueError, match=rf"^vertex {v} out of range$"):
        vertices_related(K23, 0, v)


def test_foliage_set():
    assert foliage_set(path(4)) == 0b1111
    assert foliage_set(cycle(5)) == 0
    assert foliage_set(star(4)) == 0b1111
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    # a chorded 6-cycle: no leaves and no twins, so the set is empty
    assert foliage_set(g) == 0


# ---------------------------------------------------------------------------
# representation

def test_representation_anchors():
    rep = foliage_representation(complete(5))
    assert rep.types == (PartType.K,)
    assert rep.axils == ()

    rep = foliage_representation(star(5))
    assert rep.types == (PartType.AL,)
    assert rep.axils == (0,)

    rep = foliage_representation(K23)
    assert rep.types == (PartType.D, PartType.D)
    assert rep.axils == ()
    assert rep.quotient.edges() == [(0, 1)]

    rep = foliage_representation(path(4))
    assert rep.types == (PartType.AL, PartType.AL)
    assert rep.axils == (1, 2)

    rep = foliage_representation(Graph.from_edges(3, []))
    assert rep.types == (PartType.Z, PartType.Z, PartType.Z)


def test_isolated_edge_is_typed_k_without_axil():
    rep = foliage_representation(Graph.from_edges(2, [(0, 1)]))
    assert rep.types == (PartType.K,)
    assert rep.axils == ()
    # and in a larger graph with other components
    g = Graph.from_edges(5, [(0, 1), (2, 3), (2, 4)])
    rep = foliage_representation(g)
    assert rep.types[rep.partition.part_of(0)] == PartType.K
    assert rep.types[rep.partition.part_of(2)] == PartType.AL


def types_and_axils_by_definition(g):
    """Parts, their types and the sorted axils, read off the adjacency matrix.

    A singleton is Z; a part whose members are all leaves is an isolated
    edge, typed K; a part of leaves and one non-leaf is AL with the non-leaf
    as its axil; any other part is K if its members are adjacent, D if not.
    """
    mat, _ = weight_matrix(g)
    leaf = [sum(row) == 1 for row in mat]
    parts = sorted(sorted(p) for p in partition_by_pairs(g))
    types, axils = [], []
    for members in parts:
        rest = [v for v in members if not leaf[v]]
        if len(members) == 1:
            types.append(PartType.Z)
        elif not rest:
            types.append(PartType.K)
        elif len(rest) < len(members):
            (axil,) = rest
            types.append(PartType.AL)
            axils.append(axil)
        else:
            types.append(PartType.K if mat[members[0]][members[1]] else PartType.D)
    return tuple(map(tuple, parts)), tuple(types), tuple(sorted(axils))


def relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[w]) for u, w in g.edges()])


def typed_blocks_graph(rng):
    """Stars, isolated edges, singletons and K/D twin classes on 20-200
    vertices, joined through a random graph on the blocks and relabelled.

    A star meets other blocks only through its axil, a twin class through
    every member.  A sparse join can merge or split blocks (a D class with
    one neighbour is a star's leaves), which the oracle sees as it is.
    """
    target = rng.randint(20, 200)
    visible = []  # per joinable block, the vertices that other blocks see
    edges = []
    n = 0
    while n < target:
        kind = rng.choice("SEZKD")
        if kind == "E":
            edges.append((n, n + 1))
            n += 2
            continue
        size = 1 if kind == "Z" else rng.randint(2, 5)
        members = list(range(n, n + size))
        if kind == "S":
            edges += [(n, v) for v in members[1:]]
        elif kind == "K":
            edges += [(u, w) for u in members for w in members if u < w]
        visible.append(members[:1] if kind == "S" else members)
        n += size
    p = 2.5 / max(len(visible), 1)
    for a in range(len(visible)):
        for b in range(a):
            if rng.random() < p:
                edges += [(u, w) for u in visible[a] for w in visible[b]]
    return relabelled(Graph.from_edges(n, edges), rng)


def test_types_and_axils_match_the_definition():
    rng = random.Random(1907)
    graphs = [relabelled(g, rng) for n in range(1, 8) for g in nonisomorphic_graphs(n)]
    graphs += [typed_blocks_graph(rng) for _ in range(40)]
    seen = set()
    for g in graphs:
        rep = foliage_representation(g)
        expected = types_and_axils_by_definition(g)
        assert (rep.partition.parts, rep.types, rep.axils) == expected
        seen.update(expected[1])
    assert seen == set(PartType)


def test_reconstruct_roundtrip_exhaustive():
    for n in range(1, 8):
        for g in nonisomorphic_graphs(n):
            assert reconstruct_graph(foliage_representation(g)) == g


def test_reconstruct_rejects_malformed_axils():
    rep = foliage_representation(path(4))
    broken = type(rep)(rep.partition, rep.quotient, rep.types, ())
    with pytest.raises(ValueError):
        reconstruct_graph(broken)
    rep_k = foliage_representation(complete(3))
    broken_k = type(rep_k)(rep_k.partition, rep_k.quotient, rep_k.types, (0,))
    with pytest.raises(ValueError):
        reconstruct_graph(broken_k)


def test_reconstruct_rejects_a_z_part_of_two_vertices():
    rep = foliage_representation(complete(2))
    assert rep.types == (PartType.K,)
    with pytest.raises(ValueError, match="^Z part 0 must be a singleton$"):
        reconstruct_graph(type(rep)(rep.partition, rep.quotient, (PartType.Z,), ()))


@pytest.mark.parametrize("typed", [foliage_representation, normal_form])
def test_part_typing_refuses_a_weighted_graph(typed):
    with pytest.raises(TypeError, match="^part typing is defined for qubit graphs$"):
        typed(WeightedGraph.from_edges(2, 3, [(0, 1, 2)]))


# ---------------------------------------------------------------------------
# lifted local complementation

@pytest.mark.parametrize("a", [5, -1])
def test_lifted_move_refuses_a_vertex_out_of_range(a):
    with pytest.raises(ValueError, match=rf"^vertex {a} out of range$"):
        lifted_local_complement(foliage_representation(K23), a)


def test_lifted_matches_recomputation_exhaustively():
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            rep = foliage_representation(g)
            for a in range(n):
                assert lifted_local_complement(rep, a) == foliage_representation(
                    local_complement(g, a)
                )


def test_lifted_type_flips():
    rep = foliage_representation(complete(5))
    lifted = lifted_local_complement(rep, 2)
    assert lifted.types == (PartType.AL,)
    assert lifted.axils == (2,)
    back = lifted_local_complement(lifted, 2)
    assert back == rep
    # complementing at a leaf of a star does nothing
    s = foliage_representation(star(5))
    assert lifted_local_complement(s, 3) == s


def test_lifted_toggles_neighbour_twins():
    # quotient edge between the axil part of a star and a twin pair
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (2, 3)])
    rep = foliage_representation(g)
    i_axil = rep.partition.part_of(0)
    i_pair = rep.partition.part_of(2)
    assert rep.types[i_axil] == PartType.AL
    assert rep.types[i_pair] == PartType.K
    lifted = lifted_local_complement(rep, 0)
    assert lifted.types[i_pair] == PartType.D


# ---------------------------------------------------------------------------
# normal form

def test_normal_form_anchors():
    assert normal_form(star(5)) == complete(5)
    assert normal_form(complete(5)) == complete(5)
    assert normal_form(Graph.from_edges(2, [(0, 1)])) == Graph.from_edges(2, [(0, 1)])


def test_normal_form_has_no_axils_exhaustive():
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            rep = foliage_representation(normal_form(g))
            assert rep.axils == ()
            assert PartType.AL not in rep.types


def test_normal_form_keeps_the_partition():
    rng = random.Random(17)
    for _ in range(50):
        g = random_graph(rng.randrange(2, 9), rng.random(), rng)
        assert foliage_partition(normal_form(g)).parts == foliage_partition(g).parts


# ---------------------------------------------------------------------------
# saturation

def test_saturation_anchors():
    assert saturation(complete(5)).chain == (5, 1)
    assert saturation(K23).chain == (5, 2, 1)
    assert saturation(cycle(5)).chain == (5,)
    sat = saturation(complete(5))
    assert (sat.time, sat.size) == (1, 1)
    assert (saturation(K23).time, saturation(K23).size) == (2, 1)
    assert (saturation(cycle(5)).time, saturation(cycle(5)).size) == (0, 5)


@pytest.mark.parametrize("n", range(4, 11))
def test_path_saturation_time(n):
    assert saturation(path(n)).time == n // 2


def test_saturation_of_disconnected_graphs():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert saturation(g).chain == (4, 2)
    h = Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                    + [(5 + i, 5 + (i + 1) % 5) for i in range(5)])
    assert saturation(h).chain == (10,)


def test_foliage_graph_quotient():
    assert foliage_graph(K23).edges() == [(0, 1)]
    assert foliage_graph(cycle(5)).n == 5


def quotient_by_definition(g, parts):
    """Edges between parts that some edge of ``g`` joins."""
    mat, _ = weight_matrix(g)
    return [
        (i, j)
        for i in range(len(parts))
        for j in range(i + 1, len(parts))
        if any(mat[u][w] for u in parts[i] for w in parts[j])
    ]


def sparse_with_twins(rng, largest=30):
    """A path with chords, then some vertices given a leaf or a twin."""
    n = rng.randint(3, largest)
    edges = {(v, v + 1) for v in range(n - 1)}
    edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, n // 2))}
    rows = [set() for _ in range(n)]
    for u, w in edges:
        rows[u].add(w)
        rows[w].add(u)
    for v in rng.sample(range(n), rng.randint(0, n // 3)):
        new = len(rows)
        kind = rng.randrange(3)  # leaf, false twin, true twin
        rows.append({v} if kind == 0 else set(rows[v]) | ({v} if kind == 2 else set()))
        for w in rows[new]:
            rows[w].add(new)
    order = list(range(len(rows)))
    rng.shuffle(order)
    edges = [(order[u], order[w]) for u in range(len(rows)) for w in rows[u] if u < w]
    return Graph.from_edges(len(rows), edges)


def test_quotient_matches_definition():
    rng = random.Random(6)
    graphs = [sparse_with_twins(rng) for _ in range(300)]
    graphs += [twin_rich_graph(rng) for _ in range(200)]
    for g in graphs:
        rep = foliage_representation(g)
        expected = quotient_by_definition(g, rep.partition.parts)
        assert rep.quotient.edges() == expected
        assert foliage_graph(g).edges() == expected


def partition_by_pairs(g):
    """Qubit parts from the definition over GF(2): v and w are related iff
    they share a component and their rows away from v and w are equal, or
    one of them is empty."""
    n = g.n
    comp = list(range(n))  # least vertex of the component
    for v in range(n):
        stack = [v]
        while stack:
            u = stack.pop()
            for w in range(n):
                if (g.rows[u] >> w) & 1 and comp[w] > comp[v]:
                    comp[w] = comp[v]
                    stack.append(w)
    # the relation is an equivalence, so a vertex's least relative names its part
    parts = {}
    for v in range(n):
        least = next(
            (w for w in range(v) if comp[w] == comp[v] and related_over_gf2(g, v, w)), v
        )
        parts.setdefault(least, set()).add(v)
    return {frozenset(p) for p in parts.values()}


def related_over_gf2(g, v, w):
    away = ~((1 << v) | (1 << w))
    rv, rw = g.rows[v] & away, g.rows[w] & away
    return rv == rw or not rv or not rw


def test_partition_matches_definition_past_64_vertices():
    # rows wider than 64 bits: far leaves, far twins and chords to far vertices
    rng = random.Random(64)
    for _ in range(60):
        g = sparse_with_twins(rng, largest=160)
        assert parts_as_sets(foliage_partition(g).parts) == partition_by_pairs(g)


def test_partition_matches_definition_when_a_hub_fills_one_bucket():
    # a new vertex joined to all others gives every row the same top bit
    # and, past 64 vertices, mostly the same head: one bucket of twin
    # candidates, split by whole masks
    rng = random.Random(65)
    for _ in range(40):
        g = sparse_with_twins(rng, largest=160)
        hub = Graph.from_edges(g.n + 1, g.edges() + [(v, g.n) for v in range(g.n)])
        assert parts_as_sets(foliage_partition(hub).parts) == partition_by_pairs(hub)


@pytest.mark.parametrize("d", [3, 5])
def test_weighted_quotient_matches_definition(d):
    rng = random.Random(d)
    for _ in range(150):
        g = twin_rich_graph(rng, d)
        parts = foliage_partition(g).parts
        assert foliage_graph(g).edges() == quotient_by_definition(g, parts)


# ---------------------------------------------------------------------------
# LC invariance of the partition

def test_partition_is_lc_invariant_qubit():
    rng = random.Random(31337)
    for _ in range(200):
        g = random_graph(rng.randrange(2, 11), rng.random(), rng)
        before = foliage_partition(g).parts
        h = g
        for _ in range(rng.randrange(1, 21)):
            h = local_complement(h, rng.randrange(h.n))
        assert foliage_partition(h).parts == before


# ---------------------------------------------------------------------------
# serialization

def test_serialization_text_forms():
    assert partition_text(foliage_partition(K23)) == "parts=[{0,1},{2,3,4}]"
    rep = foliage_representation(path(4))
    assert representation_text(rep) == "parts=[{0,1}AL:a1,{2,3}AL:a2] edges=[(0,1)]"
    assert representation_text(foliage_representation(K23)) == (
        "parts=[{0,1}D,{2,3,4}D] edges=[(0,1)]"
    )


def test_serialization_json_form():
    rep = foliage_representation(path(4))
    assert representation_json(rep) == (
        '{"n":4,"parts":[{"vertices":[0,1],"type":"AL","axil":1},'
        '{"vertices":[2,3],"type":"AL","axil":2}],"edges":[[0,1]]}'
    )


def test_weighted_partition_strong_twins():
    # proportional rows with different scalars are still one part
    g = WeightedGraph.from_edges(4, 5, [(0, 2, 1), (0, 3, 2), (1, 2, 3), (1, 3, 1)])
    # rows of 0 and 1 against {2,3}: (1,2) vs (3,1): 3*(1,2) = (3,6%5=1) -> twins
    part = foliage_partition(g)
    assert part.part_of(0) == part.part_of(1)
    g2 = WeightedGraph.from_edges(4, 5, [(0, 2, 1), (0, 3, 2), (1, 2, 3), (1, 3, 2)])
    part2 = foliage_partition(g2)
    assert part2.part_of(0) != part2.part_of(1)


# ---------------------------------------------------------------------------
# frozen outputs

def tree_with_chords(rng):
    """A random tree on 10-30 vertices plus n // 3 chords: leaves, axils and
    a few twin classes."""
    n = rng.randint(10, 30)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + n // 3:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return Graph.from_edges(n, sorted(edges))


def test_outputs_are_frozen_on_a_seeded_corpus():
    # sha256 of the reprs: any change to a part, type, axil, quotient edge,
    # saturation chain or normal form of these graphs changes a digest
    rng = random.Random(19)
    digest = hashlib.sha256()
    for _ in range(500):
        g = tree_with_chords(rng)
        frozen = (foliage_representation(g), saturation(g).chain, normal_form(g))
        digest.update(repr(frozen).encode())
    assert digest.hexdigest() == "1320cbdbddc2d7c86221cb4a4c861b8c46b1c657696e0fd84f6cbe848d0bb6db"
    digest = hashlib.sha256()
    for _ in range(100):
        n = rng.randint(6, 24)
        g = random_weighted(n, rng.choice((3, 5, 7)), 2 / n, rng)
        digest.update(repr((foliage_partition(g), foliage_graph(g))).encode())
    assert digest.hexdigest() == "ab551f1e6d4d03626fa95d41ea3bd11f626be91f8d0f42883e95384f0dfdf730"
