import gc
import hashlib
import os
import random
import tracemalloc
from itertools import permutations

import pytest

import lcfoliage
from conftest import cpu_s_and_peak_rss_mb_under_1_gib, random_graph
from lcfoliage.canonical import _search, _unpack, canonical_form, canonical_graph, canonical_key
from lcfoliage.graph import Graph, _find
from lcfoliage.orbits import lc_automorphism_group, nonisomorphic_graphs


def relabel(g, perm):
    rows = [0] * g.n
    for v in range(g.n):
        row = 0
        for w in range(g.n):
            if (g.rows[v] >> w) & 1:
                row |= 1 << perm[w]
        rows[perm[v]] = row
    return Graph(g.n, rows)


def brute_isomorphic(g, h):
    if g.n != h.n:
        return False
    return any(relabel(g, p) == h for p in permutations(range(g.n)))


def test_p3_relabelings_share_a_key():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    keys = {canonical_key(relabel(g, p)) for p in permutations(range(3))}
    assert len(keys) == 1


def test_p3_and_k3_differ():
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert canonical_key(p3) != canonical_key(k3)


@pytest.mark.parametrize("seed", range(100))
def test_key_is_invariant_under_all_relabelings(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 7)
    g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
    want = canonical_key(g)
    for p in permutations(range(n)):
        assert canonical_key(relabel(g, p)) == want


@pytest.mark.parametrize("seed", range(40))
def test_key_equality_matches_brute_isomorphism(seed):
    rng = random.Random(1000 + seed)
    n = rng.randrange(2, 6)
    g = random_graph(n, 0.5, rng)
    h = random_graph(n, 0.5, rng)
    assert (canonical_key(g) == canonical_key(h)) == brute_isomorphic(g, h)


@pytest.mark.parametrize("seed", range(30))
def test_perm_produces_the_canonical_graph(seed):
    rng = random.Random(2000 + seed)
    g = random_graph(rng.randrange(1, 8), 0.5, rng)
    key, perm = canonical_form(g)
    assert sorted(perm) == list(range(g.n))
    cg = canonical_graph(g)
    assert relabel(g, perm) == cg
    # canonical graphs are fixed points with the same key
    key2, _ = canonical_form(cg)
    assert key2 == key


@pytest.mark.parametrize("connected", [False, True], ids=["all", "connected"])
def test_unpack_reads_the_canonical_rows_of_every_small_type(connected):
    for n in range(1, 8):
        for g in nonisomorphic_graphs(n, connected=connected):
            assert _unpack(canonical_key(g)) == canonical_graph(g).rows


def test_unpack_reads_the_canonical_rows_of_random_graphs():
    rng = random.Random(3000)
    sizes = [0, 1] + [rng.randrange(0, 13) for _ in range(2998)]
    for n in sizes:
        g = random_graph(n, rng.random(), rng)
        assert _unpack(canonical_key(g)) == canonical_graph(g).rows, (n, g.rows)


def test_hard_symmetric_cases():
    k8 = Graph.from_edges(8, [(i, j) for i in range(8) for j in range(i + 1, 8)])
    empty8 = Graph.from_edges(8, [])
    assert canonical_graph(k8) == k8
    assert canonical_graph(empty8) == empty8
    assert canonical_key(k8) != canonical_key(empty8)


def test_canonical_form_keeps_nothing_after_an_orbit():
    from lcfoliage.orbits import lc_orbit

    # the 8-cycle with a pendant vertex
    g = Graph.from_edges(9, [(v, (v + 1) % 8) for v in range(8)] + [(0, 8)])
    package = os.path.join(os.path.dirname(lcfoliage.__file__), "*")
    tracemalloc.start()
    try:
        # each labelled member is given a canonical key
        assert lc_orbit(g).labeled_size == 3828
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = snapshot.filter_traces([tracemalloc.Filter(True, package)])
    assert sum(stat.size for stat in held.statistics("filename")) < 1 << 20


def test_canonical_search_leaves_no_reference_cycle():
    rng = random.Random(9)
    graphs = [random_graph(9, 0.5, rng) for _ in range(200)]
    gc.collect()
    gc.disable()
    try:
        for g in graphs:
            canonical_form(g)
        # everything a search built was freed by reference counting alone
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_lc_automorphism_report_leaves_no_reference_cycle():
    rng = random.Random(7)
    graphs = [random_graph(7, 0.5, rng) for _ in range(20)]
    gc.collect()
    gc.disable()
    try:
        for g in graphs:
            lc_automorphism_group(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


def search_corpus():
    """3,000 seeded random graphs, then the empty, complete and complete bipartite graphs up to n = 30."""
    rng = random.Random(24)
    for _ in range(3000):
        n = rng.randrange(1, 15)
        yield random_graph(n, rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]), rng)
    for n in range(31):
        yield Graph.from_edges(n, [])
        yield Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        for a in range(1, n // 2 + 1):
            yield Graph.from_edges(n, [(i, j) for i in range(a) for j in range(a, n)])


def corpus_digest(part) -> str:
    """sha256 over the search corpus of ``repr(part(g, key, perm, auts))``."""
    digest = hashlib.sha256()
    for g in search_corpus():
        digest.update(repr(part(g, *_search(g.n, g.rows))).encode())
    return digest.hexdigest()


def test_search_labellings_are_frozen_over_a_seeded_corpus():
    # (key, perm) is the first least leaf in search order, which pruning
    # and the backjump never leave out; these are the digests of the search
    # that refined every signature in full and knew no twin swaps
    assert corpus_digest(lambda g, key, perm, auts: (key, perm)) == (
        "179b7087ffa85f376f5f4545017f2b42e820c22ded72a50bdc4d3076298730e1"
    )


def orbit_masks(n, perm, auts):
    """Orbits of the group that ``auts`` generate, as masks of canonical labels, by least vertex."""
    up = list(range(n))
    for a in auts:
        for x, y in enumerate(a):
            up[_find(up, x)] = _find(up, y)
    masks = {}
    for v in range(n):
        root = _find(up, v)
        masks[root] = masks.get(root, 0) | 1 << perm[v]
    return tuple(masks.values())


def test_search_orbits_are_frozen_over_a_seeded_corpus():
    # a search that misses automorphisms splits orbits here; the census and
    # the LC groups build on the automorphisms, so their work follows these
    assert corpus_digest(lambda g, key, perm, auts: orbit_masks(g.n, perm, auts)) == (
        "e50cb8c74380974999f4f849d5188bd5e7fcfe2b2569f93c00779d1542a4871c"
    )


def test_search_automorphisms_are_frozen_over_a_seeded_corpus():
    # each generator in the order it was listed: the twin swaps, then those
    # found at tied leaves, so any change to the tree explored shows here
    assert corpus_digest(lambda g, key, perm, auts: auts) == (
        "7dd41a8c9f8e932de4b536979e19f0144538c0d0f4ea8e021b4bf95cba9f0083"
    )


def brute_automorphism_count(g):
    # a permutation that maps every edge to an edge maps the edges onto
    # themselves, so it is an automorphism
    edges = g.edges()
    return sum(all(g.rows[p[u]] >> p[v] & 1 for u, v in edges) for p in permutations(range(g.n)))


def generated_order(n, gens):
    ident = tuple(range(n))
    group, todo = {ident}, [ident]
    while todo:
        p = todo.pop()
        for a in gens:
            q = tuple(a[x] for x in p)
            if q not in group:
                group.add(q)
                todo.append(q)
    return len(group)


def test_search_automorphisms_generate_the_group_over_the_small_corpus():
    for g in search_corpus():
        if g.n > 6:
            continue
        _, _, auts = _search(g.n, g.rows)
        for a in auts:
            assert relabel(g, a) == g, (g.rows, a)
        assert generated_order(g.n, auts) == brute_automorphism_count(g), g.rows


@pytest.mark.slow
@pytest.mark.parametrize(
    "n, edges, bound",
    [
        (100, "[]", 0.8),
        (100, "[(i, j) for i in range(100) for j in range(i)]", 0.8),
        (200, "[]", 4.5),
        (200, "[(i, j) for i in range(200) for j in range(i)]", 4.5),
        (400, "[]", 1.5),
        (400, "[(i, j) for i in range(400) for j in range(i)]", 1.5),
        (800, "[]", 12),
        (800, "[(i, j) for i in range(800) for j in range(i)]", 12),
    ],
    ids=["empty", "K100", "empty200", "K200", "empty400", "K400", "empty800", "K800"],
)
def test_symmetric_search_cpu_time(n, edges, bound):
    # CPU medians on a shared 2-vCPU host, five fresh interpreters each:
    # 3.56 s (empty) and 3.08 s (K100) when each sibling's path stabilizer
    # was rebuilt from every automorphism found, 1.65 s and 1.44 s with one
    # union-find per node fed only the new ones.  With the degree cells,
    # the twin swaps and refinement against fresh cells only, about 0.14 s
    # and 0.15 s, and 1.3 s and 1.5 s at n = 200, nearly all of it feeding
    # the twin swaps to each level's union-find: 11.6 s and 16.4 s at
    # n = 400.  Feeding only the points each automorphism moves, about
    # 0.03 s at n = 100, 0.07 s at n = 200, 0.4 s at n = 400 and 1.2-3.9 s
    # at n = 800, where K_n paid most for its leaf's packed key, one bit
    # shifted into the whole key per vertex pair; shifting in one row
    # segment at a time, 1.3-1.8 s for each (2.7-4.9 s for K_800 before)
    setup = (
        "from lcfoliage.canonical import _search\n"
        f"from lcfoliage.graph import Graph\ng = Graph.from_edges({n}, {edges})\n"
    )
    cpu, _ = cpu_s_and_peak_rss_mb_under_1_gib(setup, "_search(g.n, g.rows)")
    assert cpu < bound
