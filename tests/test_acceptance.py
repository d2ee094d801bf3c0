"""End-to-end gate for the toolkit's headline numbers and guarantees.

Every test prints one PASS/FAIL line (run with ``pytest -s`` to see them all
at once) and fails hard on the first mismatch.  The long n = 8 census legs
carry the ``slow`` marker; everything else stays in the default run.
"""

import math
import random
import time
from itertools import combinations

import numpy as np
import pytest

from conftest import random_graph, random_weighted
from lcfoliage.cli import main
from lcfoliage.entanglement import (
    entropy,
    entropy_via_foliage,
    marginal_maximally_mixed,
    statevector_entropy_oracle,
    uniformity,
)
from lcfoliage.foliage import (
    foliage_graph,
    foliage_partition,
    foliage_representation,
    lifted_local_complement,
    normal_form,
    reconstruct_graph,
    representation_json,
    representation_text,
)
from lcfoliage.graph import (
    Graph,
    WeightedGraph,
    local_complement,
    qudit_scale,
    qudit_star,
)
from lcfoliage.graph6 import decode_graph6, encode_graph6
from lcfoliage.orbits import (
    aut_bounds,
    class_lower_bound,
    lc_automorphism_group,
    lc_classes,
    nonisomorphic_graphs,
    partition_number,
    saturation_stats,
)

C5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
K5 = Graph.from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
K23 = Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])


def _check(num, desc, body):
    try:
        body()
    except BaseException:
        print(f"criterion {num}: FAIL - {desc}")
        raise
    print(f"criterion {num}: PASS - {desc}")


def test_criterion_1_census_small():
    def body():
        start = time.perf_counter()
        counts = [lc_classes(n).count for n in range(2, 8)]
        assert counts == [1, 1, 2, 4, 11, 26]
        assert time.perf_counter() - start < 60

    _check("1", "connected class counts for n=2..7 are 1,1,2,4,11,26 in under 60 s", body)


@pytest.mark.slow
def test_criterion_1_census_n8():
    def body():
        counts = [lc_classes(n).count for n in range(2, 9)]
        assert counts[-1] == 101
        assert sum(counts) == 146

    _check("1 (n=8)", "the n=8 census has 101 classes and the n=2..8 total is 146", body)


def test_criterion_2_saturation_table(capsys):
    golden = {
        2: ("1.00", "1.00", "1.00", "1.00"),
        3: ("1.00", "1.00", "1.00", "1.00"),
        4: ("1.50", "1.00", "1.00", "1.00"),
        5: ("1.25", "2.00", "0.75", "0.75"),
        6: ("1.55", "2.27", "0.82", "0.73"),
    }

    def body():
        for n, row in golden.items():
            assert saturation_stats(n).two_decimals() == row
        assert main(["stats", "--n", "6", "--csv"]) == 0
        assert capsys.readouterr().out == "1.55,2.27,0.82,0.73\n"

    _check("2", "saturation averages for n=2..6 match the frozen rows", body)


def test_criterion_3_lc_invariance():
    def body():
        rng = random.Random(20260823)
        for _ in range(1000):
            n = rng.randint(2, 10)
            g = random_graph(n, rng.uniform(0.1, 0.9), rng)
            before = foliage_partition(g).parts
            h = g
            for _ in range(rng.randint(1, 20)):
                h = local_complement(h, rng.randrange(n))
            assert foliage_partition(h).parts == before
        for _ in range(500):
            n = rng.randint(2, 8)
            d = rng.choice([3, 5])
            w = random_weighted(n, d, rng.uniform(0.2, 0.9), rng)
            before = foliage_partition(w).parts
            x = w
            for _ in range(rng.randint(1, 12)):
                if rng.random() < 0.5:
                    x = qudit_star(x, rng.randrange(n), rng.randrange(d))
                else:
                    x = qudit_scale(x, rng.randrange(n), rng.randrange(1, d))
            assert foliage_partition(x).parts == before

    _check("3", "foliage partition is identical under 1000 qubit and 500 qudit move sequences", body)


def test_criterion_4_entropy_matches_statevector():
    def body():
        start = time.perf_counter()
        for n in range(1, 7):
            for g in nonisomorphic_graphs(n, connected=True):
                for mask in range(1 << n):
                    assert entropy(g, mask) == statevector_entropy_oracle(g, mask)
        assert time.perf_counter() - start < 300

    _check("4", "rank entropy equals the state-vector entropy on every cut, connected n<=6", body)


def test_criterion_5_part_matrix_entropy():
    def body():
        for n in range(1, 8):
            for g in nonisomorphic_graphs(n, connected=True):
                nf = normal_form(g)
                for mask in range(1 << n):
                    assert entropy_via_foliage(nf, mask) == entropy(nf, mask)

    _check("5", "part-indexed entropy equals direct entropy on all normal forms n<=7", body)


def test_criterion_6_uniformity():
    def body():
        rep = uniformity(C5)
        assert rep.k_max == 2 and rep.witness is None
        assert foliage_partition(C5).is_trivial
        for g in (K5, K23):
            rep = uniformity(g)
            assert rep.k_max == 1 and rep.witness is not None
            assert not foliage_partition(g).is_trivial
        for n in range(2, 7):
            for g in nonisomorphic_graphs(n, connected=True):
                part = foliage_partition(g)
                for v, w in combinations(range(n), 2):
                    pair = (1 << v) | (1 << w)
                    split = part.part_of(v) != part.part_of(w)
                    assert split == marginal_maximally_mixed(g, v, w)
                    assert split == (entropy(g, pair) == 2)
                    assert split == (statevector_entropy_oracle(g, pair) == 2)

    _check("6", "k-uniformity anchors and the three-way marginal test agree, n<=6", body)


def test_criterion_7_automorphism_groups():
    def body():
        assert lc_automorphism_group(K5).order == 120
        assert lc_automorphism_group(K23).order == 12
        for n in range(2, 8):
            for cls in lc_classes(n).classes:
                g = cls.representative
                report = lc_automorphism_group(g)
                lower, upper = aut_bounds(foliage_partition(g))
                assert lower <= report.order <= upper
                assert report.order * report.class_size >= report.labeled_size

    _check("7", "automorphism orders 120/12 and part-size bounds hold for all reps n<=7", body)


def test_criterion_8_partition_bound():
    def body():
        limit = 30
        table = [1] + [0] * limit
        for coin in range(1, limit + 1):
            for total in range(coin, limit + 1):
                table[total] += table[total - coin]
        for n in range(limit + 1):
            assert partition_number(n) == table[n]
        assert partition_number(100) == 190569292
        for n in range(4, 8):
            assert class_lower_bound(n) <= lc_classes(n).count

    _check("8", "partition numbers match enumeration and the bound stays below counts n=4..7", body)


@pytest.mark.slow
def test_criterion_8_partition_bound_n8():
    def body():
        assert class_lower_bound(8) == 19 <= lc_classes(8).count

    _check("8 (n=8)", "the n=8 lower bound 19 stays below the computed class count", body)


def test_criterion_9_structural_roundtrips():
    def body():
        for n in range(1, 8):
            for g in nonisomorphic_graphs(n):
                rep = foliage_representation(g)
                assert reconstruct_graph(rep) == g
                for a in range(n):
                    assert lifted_local_complement(rep, a) == foliage_representation(
                        local_complement(g, a)
                    )
        rng = random.Random(4096)
        for _ in range(10_000):
            g = random_graph(rng.randint(1, 20), rng.random(), rng)
            assert decode_graph6(encode_graph6(g)) == g

    _check("9", "represent/reconstruct and lifted moves commute n<=7; graph6 roundtrips", body)


def _dense_random(n, seed):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < 0.5, 1)
    adj = upper | upper.T
    packed = np.packbits(adj, axis=1, bitorder="little")
    rows = [int.from_bytes(packed[v].tobytes(), "little") for v in range(n)]
    return Graph(n, rows)


def test_criterion_10_performance():
    def body():
        timings = {}
        for n in (250, 500, 1000, 2000):
            g = _dense_random(n, seed=n)
            start = time.perf_counter()
            foliage_partition(g)
            timings[n] = max(time.perf_counter() - start, 1e-3)
        assert timings[2000] < 10.0
        assert _loglog_slope(timings) < 3.5

    _check("10", "dense n=2000 partition under 10 s with at-most-cubic scaling", body)


def _cycle_with_chords(n, seed):
    """Edges of an n-cycle plus n/2 distinct seeded chords."""
    rng = random.Random(seed)
    edges = {(v, v + 1) for v in range(n - 1)} | {(0, n - 1)}
    while len(edges) < n + n // 2:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return sorted(edges)


def _loglog_slope(timings):
    xs = [math.log(n) for n in timings]
    ys = [math.log(t) for t in timings.values()]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )


def test_criterion_11_sparse_performance():
    def qudit(n):
        rng = random.Random(n)
        edges = [(u, v, rng.randrange(1, 5)) for u, v in _cycle_with_chords(n, seed=n)]
        return WeightedGraph.from_edges(n, 5, edges)

    def body():
        sizes = (2500, 5000, 10000, 20000)
        families = {
            "path": {n: Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)]) for n in sizes},
            "cycle+chords": {n: Graph.from_edges(n, _cycle_with_chords(n, seed=n)) for n in sizes},
            "qudit cycle+chords": {n: qudit(n) for n in sizes},
        }
        best = {(name, n): math.inf for name, graphs in families.items() for n in graphs}
        # each round visits every size, so a burst of host noise hits them all
        for _ in range(7):
            for name, graphs in families.items():
                for n, g in graphs.items():
                    start = time.perf_counter()
                    foliage_partition(g)
                    if isinstance(g, Graph):
                        foliage_representation(g)
                    else:
                        foliage_graph(g)
                    best[name, n] = min(best[name, n], time.perf_counter() - start)
        for name, graphs in families.items():
            assert best[name, max(graphs)] < 1.0, name
            assert _loglog_slope({n: best[name, n] for n in graphs}) < 1.5, name

    _check(
        "11",
        "sparse partition+representation under 1 s at n=20000, slope < 1.5",
        body,
    )


def test_criterion_11_hub_partition():
    # every vertex but the hub n - 1 is joined to it and to one partner, so
    # all rows share their top bit and an empty 64-bit head: one bucket of
    # n - 1 vertices, on whose whole masks a dict would collide modulo
    # 2**61 - 1
    def hub(n):
        pairs = [(2 * i, 2 * i + 1) for i in range((n - 1) // 2)]
        return Graph.from_edges(n, [(v, n - 1) for v in range(n - 1)] + pairs)

    def body():
        graphs = {n: hub(n) for n in (2500, 5000, 10000, 20000)}
        best = dict.fromkeys(graphs, math.inf)
        for _ in range(5):
            for n, g in graphs.items():
                start = time.perf_counter()
                foliage_partition(g)
                best[n] = min(best[n], time.perf_counter() - start)
        assert best[20000] < 0.5, best
        assert _loglog_slope(best) < 2, best

    _check("11", "hub partition under 0.5 s at n=20000, slope < 2", body)


def test_criterion_11_representation_writers_scale():
    # the writers list the quotient's edges row by row; each row's labels
    # are cut at its last neighbour, so a long sparse row costs its span
    def body():
        sizes = (2500, 5000, 10000, 20000)
        families = {
            "path": {n: [(v, v + 1) for v in range(n - 1)] for n in sizes},
            "cycle+chords": {n: _cycle_with_chords(n, seed=n) for n in sizes},
        }
        reps = {
            (name, n): foliage_representation(Graph.from_edges(n, edges))
            for name, graphs in families.items()
            for n, edges in graphs.items()
        }
        best = dict.fromkeys(((*k, w) for k in reps for w in ("text", "json")), math.inf)
        for _ in range(5):
            for (name, n), rep in reps.items():
                for writer, write in (("text", representation_text), ("json", representation_json)):
                    start = time.perf_counter()
                    write(rep)
                    best[name, n, writer] = min(best[name, n, writer], time.perf_counter() - start)
        for name in families:
            for writer in ("text", "json"):
                timings = {n: max(best[name, n, writer], 1e-4) for n in sizes}
                assert _loglog_slope(timings) < 1.5, (name, writer, timings)

    _check("11", "representation text and JSON writers scale with slope < 1.5 on sparse graphs", body)
