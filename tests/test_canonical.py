import gc
import os
import random
import tracemalloc
from itertools import permutations

import pytest

import lcfoliage
from conftest import random_graph
from lcfoliage.canonical import canonical_form, canonical_graph, canonical_key
from lcfoliage.graph import Graph, build_graph


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
    g = build_graph(3, [(0, 1), (1, 2)])
    keys = {canonical_key(relabel(g, p)) for p in permutations(range(3))}
    assert len(keys) == 1


def test_p3_and_k3_differ():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    k3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
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


def test_hard_symmetric_cases():
    k8 = build_graph(8, [(i, j) for i in range(8) for j in range(i + 1, 8)])
    empty8 = build_graph(8, [])
    assert canonical_graph(k8) == k8
    assert canonical_graph(empty8) == empty8
    assert canonical_key(k8) != canonical_key(empty8)


def test_canonical_form_keeps_nothing_after_an_orbit():
    from lcfoliage.orbits import lc_orbit

    # the 8-cycle with a pendant vertex
    g = build_graph(9, [(v, (v + 1) % 8) for v in range(8)] + [(0, 8)])
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
