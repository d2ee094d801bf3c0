import dataclasses
import hashlib
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import prod

import pytest

import lcfoliage
from conftest import complete, cycle, path, peak_rss_mb_under_1_gib, random_graph, star
from lcfoliage.canonical import canonical_graph, canonical_key
from lcfoliage.cli import main
from lcfoliage.foliage import (
    FoliagePartition,
    PartType,
    foliage_partition,
    foliage_representation,
    lifted_local_complement,
)
from lcfoliage.graph import (
    Graph,
    SizeGuardError,
    _find,
    _relabel_rows,
    connected_components,
    local_complement,
)
from lcfoliage.orbits import (
    _Packed,
    aut_bounds,
    class_lower_bound,
    graph_for_partition,
    lc_automorphism_group,
    lc_classes,
    lc_orbit,
    nonisomorphic_graphs,
    partition_number,
    saturation_stats,
    symmetry_table,
)


K23 = Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])


# ---------------------------------------------------------------------------
# orbits

def test_orbit_anchors():
    rep = lc_orbit(Graph.from_edges(2, [(0, 1)]))
    assert (rep.labeled_size, rep.class_size) == (1, 1)
    rep = lc_orbit(path(3))
    assert (rep.labeled_size, rep.class_size) == (4, 2)
    rep = lc_orbit(complete(5))
    assert (rep.labeled_size, rep.class_size) == (6, 2)


@pytest.mark.parametrize("n", range(13))
def test_packed_lc_matches_lc_rows(n):
    # local_complement's row tuples are the reference for the packed kernel
    # the orbit loops use
    rng = random.Random(1300 + n)
    packed = _Packed(n)
    graphs = [random_graph(n, p, rng) for p in (0.2, 0.5, 0.8) for _ in range(4)]
    for g in graphs:
        m = packed.pack(g.rows)
        assert packed.unpack(m) == g.rows
        for a, shift in enumerate(packed.shifts):
            image = m ^ packed[m >> shift & packed.full]
            assert packed.unpack(image) == local_complement(g, a).rows, (g.rows, a)
    ints = [packed.pack(g.rows) for g in graphs]
    assert [packed.unpack(m) for m in sorted(ints)] == sorted(g.rows for g in graphs)


def test_orbit_members_are_closed_and_sorted():
    rep = lc_orbit(path(4))
    members = set(rep.members)
    assert list(rep.members) == sorted(rep.members)
    assert path(4).rows in members
    for rows in rep.members:
        for a in range(4):
            assert tuple(local_complement(Graph(4, rows), a).rows) in members


def test_orbit_report_repr_shows_the_sizes_and_unpacks_no_member(monkeypatch):
    g = random_graph(9, 0.5, random.Random(9))
    report = lc_orbit(g)
    unpacked = []
    unpack = _Packed.unpack
    monkeypatch.setattr(_Packed, "unpack", lambda self, m: unpacked.append(m) or unpack(self, m))
    text = repr(report)
    assert unpacked == []
    assert text == (
        f"OrbitReport(representative={g!r}, labeled_size={report.labeled_size}, "
        f"class_size={report.class_size})"
    )
    assert "members=" not in text
    assert len(report.members) == len(unpacked) == report.labeled_size > 1
    # the packed members still take part in == and hash
    assert report == dataclasses.replace(report) and hash(report) == hash(dataclasses.replace(report))
    assert report != dataclasses.replace(report, _packed=report._packed[1:])


def test_orbit_size_is_relabeling_invariant():
    rng = random.Random(8)
    for _ in range(10):
        g = random_graph(6, 0.5, rng)
        perm = list(range(6))
        rng.shuffle(perm)
        h = Graph(6, _relabel_rows(g.rows, tuple(perm)))
        a, b = lc_orbit(g), lc_orbit(h)
        assert (a.labeled_size, a.class_size) == (b.labeled_size, b.class_size)


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from Linux's /proc")
def test_forced_orbit_above_the_guard_fills_no_table_of_2_to_the_n():
    # K_{1,39}: a table with an entry per neighbourhood would have 2^40
    code = (
        "from lcfoliage.orbits import lc_orbit\n"
        "from lcfoliage.graph import Graph\n"
        "report = lc_orbit(Graph.from_edges(40, [(0, v) for v in range(1, 40)]))\n"
        "assert (report.labeled_size, report.class_size) == (41, 2)\n"
    )
    assert peak_rss_mb_under_1_gib(code) < 64


# A connected G(12, 1/2): the first connected random_graph(12, 0.5, rng) with
# rng = random.Random(12).
# Before the orbit layer packed each member into one int, its orbit took
# 9.9 CPU s and peaked at 121 MB here.
N12_ROWS = (242, 2745, 616, 2806, 3499, 2143, 3245, 347, 2704, 2318, 2128, 1914)


@pytest.mark.slow
@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from Linux's /proc")
def test_n12_orbit_peak_rss_gate():
    # VmHWM starts afresh at exec; it is read as soon as lc_orbit returns,
    # because the text of the members alone then takes about 40 MB more to
    # build.  The digest is of the report's fields with its members, the
    # text that OrbitReport's repr gave when it listed them
    code = (
        "import hashlib\n"
        "from lcfoliage.graph import Graph\n"
        "from lcfoliage.orbits import lc_orbit\n"
        f"rows = {N12_ROWS!r}\n"
        "g = Graph.from_edges(12, [(v, w) for v in range(12) for w in range(v) if rows[v] >> w & 1])\n"
        "report = lc_orbit(g)\n"
        "with open('/proc/self/status') as fh:\n"
        "    peak = next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))\n"  # KiB
        "text = (f'OrbitReport(representative={report.representative!r}, labeled_size='\n"
        "        f'{report.labeled_size!r}, class_size={report.class_size!r}, members={report.members!r})')\n"
        "digest = hashlib.sha256(text.encode()).hexdigest()\n"
        "print(report.labeled_size, report.class_size, peak, digest)\n"
    )
    src = os.path.dirname(os.path.dirname(lcfoliage.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    labeled, classes, peak_kib, digest = proc.stdout.split()
    assert (int(labeled), int(classes)) == (236604, 236604)
    assert digest == "c69311520929e32c83dae6583c74b3a575586b18eb475237f53aae0a5d19d52a"
    assert int(peak_kib) < 64 * 1024


# A traced peak counts the bytes the interpreter asked for, so unlike VmHWM
# it does not move with heap layout or hash seed.  Under tracemalloc the
# n = 12 orbit took 22 CPU s and this G(10, 1/2) orbit about 2 (2 shared
# vCPUs, Python 3.11).
@pytest.mark.slow
def test_n10_orbit_traced_peak_gate():
    code = (
        "import random, tracemalloc\n"
        "from lcfoliage.graph import Graph\n"
        "from lcfoliage.orbits import lc_orbit\n"
        "rng = random.Random(10)\n"
        "g = Graph.from_edges(10, [(v, w) for v in range(10) for w in range(v) if rng.random() < 0.5])\n"
        "tracemalloc.start()\n"
        "report = lc_orbit(g)\n"
        "print(report.labeled_size, tracemalloc.get_traced_memory()[1])\n"
    )
    src = os.path.dirname(os.path.dirname(lcfoliage.__file__))
    peaks = []
    for seed in ("1", "2"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=seed,
            PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        labeled, peak = map(int, proc.stdout.split())
        assert labeled == 25428
        peaks.append(peak)
    assert peaks[0] == peaks[1]
    # 3,946,330 B under CPython 3.11; the bound leaves 27 % for the object
    # and table sizes of 3.10 to 3.14
    assert peaks[0] < 5_000_000


def test_orbit_member_budget(monkeypatch):
    import lcfoliage.orbits as orbits_mod

    labeled = lc_orbit(cycle(5)).labeled_size
    monkeypatch.setattr(orbits_mod, "_ORBIT_MEMBERS", labeled)
    assert lc_orbit(cycle(5)).labeled_size == labeled
    monkeypatch.setattr(orbits_mod, "_ORBIT_MEMBERS", labeled - 1)
    with pytest.raises(SizeGuardError, match=f"passed {labeled - 1} labelled members"):
        lc_orbit(cycle(5))


def test_orbit_member_budget_falls_with_n_squared(monkeypatch):
    import lcfoliage.orbits as orbits_mod

    # members of n^2 bits each: 2^28 bits hold 2^20 members up to n = 16
    assert orbits_mod._ORBIT_BITS // (16 * 16) == orbits_mod._ORBIT_MEMBERS
    labeled = lc_orbit(cycle(5)).labeled_size
    monkeypatch.setattr(orbits_mod, "_ORBIT_BITS", 25 * labeled)
    assert lc_orbit(cycle(5)).labeled_size == labeled
    monkeypatch.setattr(orbits_mod, "_ORBIT_BITS", 25 * labeled - 1)
    with pytest.raises(SizeGuardError, match=f"passed {labeled - 1} labelled members"):
        lc_orbit(cycle(5))


def test_orbit_budget_caps_the_complementation_table(monkeypatch):
    import lcfoliage.orbits as orbits_mod

    # the orbit of this graph has 50 members, and its table 65 entries
    g = Graph(7, (120, 120, 120, 103, 103, 95, 63))
    packed, _, members, _, _ = orbits_mod._orbit_members(g)
    assert (len(members), len(packed)) == (50, 65)
    monkeypatch.setattr(orbits_mod, "_ORBIT_MEMBERS", 65)
    assert lc_orbit(g).labeled_size == 50
    monkeypatch.setattr(orbits_mod, "_ORBIT_MEMBERS", 50)
    with pytest.raises(SizeGuardError, match="passed 50 complementation-table entries$"):
        lc_orbit(g)


def test_orbit_member_budget_exits_3(monkeypatch, capsys):
    import lcfoliage.orbits as orbits_mod

    monkeypatch.setattr(orbits_mod, "_ORBIT_MEMBERS", 10)
    assert main(["orbit", "--g6", "Dhc"]) == 3  # the 5-cycle
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: lc_orbit passed 10 labelled members\n"


# ---------------------------------------------------------------------------
# enumeration

A001349 = [1, 1, 2, 6, 21, 112, 853, 11117]  # connected graphs on 1..8 vertices


@lru_cache(maxsize=None)
def atlas_types(n, connected=False):
    """Every isomorphism type of order ``n`` <= 7, from the networkx graph atlas."""
    nx = pytest.importorskip("networkx")
    return tuple(
        Graph.from_edges(n, list(g.edges()))
        for g in nx.graph_atlas_g()
        if g.number_of_nodes() == n and (not connected or nx.is_connected(g))
    )


@pytest.mark.parametrize("connected", [False, True], ids=["all", "connected"])
def test_enumeration_has_the_types_of_the_networkx_atlas(connected):
    for n in range(1, 8):
        expected = {canonical_key(g) for g in atlas_types(n, connected)}
        found = [canonical_key(g) for g in nonisomorphic_graphs(n, connected=connected)]
        assert len(found) == len(expected)
        assert set(found) == expected


def test_nonisomorphic_counts_match_the_networkx_atlas():
    nx = pytest.importorskip("networkx")
    atlas = Counter(g.number_of_nodes() for g in nx.graph_atlas_g())
    assert [atlas[n] for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]
    assert [len(nonisomorphic_graphs(n)) for n in range(1, 8)] == [
        atlas[n] for n in range(1, 8)
    ]


def test_nonisomorphic_counts():
    all_counts = [len(nonisomorphic_graphs(n)) for n in range(1, 8)]
    assert all_counts == [1, 2, 4, 11, 34, 156, 1044]
    conn_counts = [len(nonisomorphic_graphs(n, connected=True)) for n in range(1, 8)]
    assert conn_counts == [1, 1, 2, 6, 21, 112, 853]


def test_enumeration_is_canonical_and_sorted():
    graphs = nonisomorphic_graphs(5)
    keys = [canonical_key(g) for g in graphs]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


# ---------------------------------------------------------------------------
# class census

def test_class_counts_small_n():
    assert [lc_classes(n).count for n in range(2, 8)] == [1, 1, 2, 4, 11, 26]


def test_census_sizes_sum_to_type_count():
    for n in range(1, 8):
        assert sum(c.size for c in lc_classes(n).classes) == A001349[n - 1]


def test_census_agrees_with_orbit_route():
    # independent route: group isomorphism types by the canonical keys of
    # their full labelled orbits
    for n in range(2, 6):
        for connected in (True, False):
            census = lc_classes(n, connected_only=connected)
            types = atlas_types(n, connected)
            classes = {}
            for g in types:
                orbit_types = frozenset(
                    canonical_key(Graph(n, rows)) for rows in lc_orbit(g).members
                )
                classes[orbit_types] = classes.get(orbit_types, 0) + 1
            assert census.count == len(classes)
            assert sorted(c.size for c in census.classes) == sorted(
                len(k) for k in classes
            )
            for k, seen in classes.items():
                assert seen == len(k)


def union_find_census(n):
    """(representative rows, size) per class: every connected type joined to its move images."""
    types = [canonical_graph(g) for g in atlas_types(n, connected=True)]
    keys = [canonical_key(g) for g in types]
    index = {k: i for i, k in enumerate(keys)}
    parent = list(range(len(types)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, g in enumerate(types):
        for a in range(n):
            j = index[canonical_key(local_complement(g, a))]
            parent[find(i)] = find(j)
    classes = {}
    for i in range(len(types)):
        classes.setdefault(find(i), []).append(i)
    out = []
    for members in classes.values():
        lead = min(members, key=lambda i: keys[i])
        out.append((keys[lead], types[lead].rows, len(members)))
    return [(rows, size) for _, rows, size in sorted(out)]


@pytest.mark.parametrize("n", range(1, 8))
def test_census_matches_union_find_over_all_types(n):
    census = lc_classes(n)
    assert [(c.representative.rows, c.size) for c in census.classes] == union_find_census(n)


def euler_transform(a):
    """b[n] counts multisets of items of sizes summing to n, with a[k] kinds of size k."""
    c = [0] + [sum(d * a[d] for d in range(1, k + 1) if k % d == 0) for k in range(1, len(a))]
    b = [1]
    for n in range(1, len(a)):
        b.append(sum(c[k] * b[n - k] for k in range(1, n + 1)) // n)
    return b


def test_all_graph_class_counts_are_the_euler_transform_of_connected_counts():
    connected = [0] + [lc_classes(n).count for n in range(1, 8)]
    expected = euler_transform(connected)[1:]
    assert expected == [1, 2, 3, 6, 11, 26, 59]
    assert [lc_classes(n, connected_only=False).count for n in range(1, 8)] == expected


def test_census_guard():
    # 11,989,764 connected types of orders 1 to 10 and 12,293,434 in all,
    # against a budget of 2^20: refused before any search
    for connected in (True, False):
        start = time.process_time()
        with pytest.raises(SizeGuardError, match="isomorphism types <= 1048576$"):
            lc_classes(10, connected_only=connected)
        assert time.process_time() - start < 0.1


@pytest.mark.parametrize("connected", [False, True])
def test_cold_type_enumeration_above_the_guard_is_refused(monkeypatch, connected):
    import lcfoliage.orbits as orbits_mod

    # the budget counts the types of every order from 1 to 6, not of order
    # 6 alone: 143 connected types and 208 in all
    types = 143 if connected else 208
    monkeypatch.setattr(orbits_mod, "_CENSUS_TYPES", types - 1)
    orbits_mod._CENSUS_CACHE.pop((6, connected), None)
    with pytest.raises(SizeGuardError) as err:
        nonisomorphic_graphs(6, connected=connected)
    assert str(err.value) == f"class census is limited to isomorphism types <= {types - 1}"
    assert (6, connected) not in orbits_mod._CENSUS_CACHE
    monkeypatch.setattr(orbits_mod, "_CENSUS_TYPES", types)
    assert len(nonisomorphic_graphs(6, connected=connected)) == (112 if connected else 156)
    # the budget bounds the work, and a cached census costs none
    monkeypatch.setattr(orbits_mod, "_CENSUS_TYPES", 0)
    assert len(nonisomorphic_graphs(6, connected=connected)) == (112 if connected else 156)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("enumerate_", [lc_classes, nonisomorphic_graphs])
def test_order_below_one_is_refused(enumerate_, n):
    with pytest.raises(ValueError, match="need at least one vertex"):
        enumerate_(n)


def counted_searches(monkeypatch):
    """Route every canonical search through a counter; returns the list of searched rows."""
    import lcfoliage.canonical as canonical_mod

    searched = []
    real = canonical_mod._search

    def search(n, rows):
        searched.append(rows)
        return real(n, rows)

    monkeypatch.setattr(canonical_mod, "_search", search)
    return searched


@pytest.mark.slow
def test_cold_n8_census_work_gate(monkeypatch):
    import lcfoliage.canonical as canonical_mod
    import lcfoliage.orbits as orbits_mod

    # cleared rather than swapped out, so later tests reuse this census
    orbits_mod._CENSUS_CACHE.clear()
    searched = counted_searches(monkeypatch)
    nodes = []
    real_descend = canonical_mod._descend
    # the search recurses through the module's name, so this sees every node
    monkeypatch.setattr(canonical_mod, "_descend", lambda *args: nodes.append(1) or real_descend(*args))
    census = lc_classes(8)
    assert census.count == 101
    # every move of every type canonicalised 66933 images; one move per
    # automorphism orbit and none back across a joined edge needed 40440.
    # Splitting each new class's labelled orbit into types by its LC
    # automorphisms, one search per kept seed and about one per type, 14251
    assert len(searched) == 14251
    # search tree nodes: 142059 when each search started from one cell and
    # found twin swaps only at tied leaves; the degree cells and the twin
    # swaps known up front left 93165 over the move closure's searches
    assert len(nodes) == 36953


@pytest.mark.slow
def test_cold_n8_all_graph_census_gate(monkeypatch):
    import lcfoliage.orbits as orbits_mod

    # the census over all graphs reads only its own smaller orders, so
    # dropping those makes it cold; connected censuses stay for later tests
    for n in range(1, 9):
        orbits_mod._CENSUS_CACHE.pop((n, False), None)
    searched = counted_searches(monkeypatch)
    census = lc_classes(8, connected_only=False)
    # seeding with every type from vertex augmentation, then closing,
    # made 193868 searches; seeding from the order-7 classes and closing
    # under moves 48753; one labelled orbit per class 17886
    assert len(searched) == 17886
    # the Euler transform of the connected counts 1, 1, 1, 2, 4, 11, 26, 101
    assert census.count == 182
    assert sum(c.size for c in census.classes) == 12346  # A000088
    assert len(nonisomorphic_graphs(8, connected=True)) == A001349[7]


def test_cold_census_relabels_once_per_generator_of_each_class_orbit(monkeypatch):
    import lcfoliage.canonical as canonical_mod
    import lcfoliage.orbits as orbits_mod

    # a type is its key: its canonical rows are unpacked, never relabelled;
    # only the root of each class's labelled orbit is, once per generator
    relabelled = []
    for module in (orbits_mod, canonical_mod):
        real = module._relabel_rows
        monkeypatch.setattr(
            module,
            "_relabel_rows",
            lambda rows, perm, real=real: relabelled.append(perm) or real(rows, perm),
        )
    generators = []
    real_group = orbits_mod._lc_group

    def lc_group(g, tree, found):
        out = real_group(g, tree, found)
        generators.extend(out[0])
        return out

    monkeypatch.setattr(orbits_mod, "_lc_group", lc_group)
    searched = counted_searches(monkeypatch)
    # over all orders: one search per kept seed, and one per type that the
    # class's LC group did not search on the way.  Closing the seeds under
    # moves, one search per moved automorphism orbit, made 3019 and 731
    for order, connected, searches in ((7, True, 1430), (6, False, 464)):
        for n in range(1, order + 1):
            orbits_mod._CENSUS_CACHE.pop((n, connected), None)
        searched.clear()
        census = lc_classes(order, connected_only=connected)
        assert sum(c.size for c in census.classes) == (853 if connected else 156)
        assert len(searched) == searches
    assert generators
    assert relabelled == generators


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("LCFOLIAGE_N9") != "1", reason="set LCFOLIAGE_N9=1 to run (about 30 CPU s)"
)
def test_n9_census_gate():
    # peak RSS is VmHWM, which starts afresh at exec; ru_maxrss in a child
    # keeps the peak of the process that started it, the test runner's
    code = (
        "import contextlib, hashlib, io\n"
        "import lcfoliage.canonical as canonical\n"
        "from lcfoliage.cli import main\n"
        "from lcfoliage.orbits import lc_classes\n"
        "searches = [0]\n"
        "real = canonical._search\n"
        "def search(n, rows):\n"
        "    searches[0] += 1\n"
        "    return real(n, rows)\n"
        "canonical._search = search\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    assert main(['classes', '--n', '9', '--reps', '-']) == 0\n"
        "census = lc_classes(9)\n"  # the cached census
        "with open('/proc/self/status') as fh:\n"
        "    peak = next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))\n"  # KiB
        "reps = hashlib.sha256(out.getvalue().encode()).hexdigest()\n"
        "print(census.count, sum(c.size for c in census.classes), searches[0], peak, reps)\n"
    )
    src = os.path.dirname(os.path.dirname(lcfoliage.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    count, types, searches, peak_kib, reps = proc.stdout.split()
    assert int(count) == 440
    assert int(types) == 261080  # connected graphs on 9 vertices, OEIS A001349
    # canonical searches of the cold census, orders 1 to 9: one per kept
    # seed and one per type its class's LC group did not search, so a
    # search that misses automorphisms splits orbits and adds searches here.
    # Closing the seeds under one move per automorphism orbit made 1085644
    assert int(searches) == 290158
    assert int(peak_kib) < 100 * 1024
    # sha256 of `classes --n 9 --reps -`, frozen from the move closure
    assert reps == "2c890990739b7e5f5ef211b3c2e1e06cd0df489fbeadb72634ce80ee1a9c5b5c"


def test_seed_masks_keep_one_set_per_orbit_of_the_brute_force_group():
    import lcfoliage.canonical as canonical_mod
    import lcfoliage.orbits as orbits_mod

    # the seeds of order n <= 6 join a new vertex to sets of k = n - 1 vertices
    for k in range(6):
        for g in nonisomorphic_graphs(k) if k else [Graph(0, [])]:
            auts = [p for p in permutations(range(k)) if oracle_relabel(k, g.rows, p) == g.rows]
            orbits = {
                frozenset(sum(1 << p[v] for v in range(k) if m >> v & 1) for p in auts)
                for m in range(1 << k)
            }
            for low in (0, 1):
                kept = orbits_mod._seed_masks(k, canonical_mod._search(k, g.rows)[2], low)
                want = sorted(min(o) for o in orbits if max(o) >= low)
                assert kept == want, (k, g.rows, low)


# ---------------------------------------------------------------------------
# LC automorphisms

def test_aut_anchors():
    assert lc_automorphism_group(complete(5)).order == 120
    assert lc_automorphism_group(K23).order == 12
    assert lc_automorphism_group(path(4)).order == 8


def test_aut_interplay_for_k5():
    rep = lc_automorphism_group(complete(5))
    assert rep.labeled_size == 6
    assert rep.class_size == 2
    assert rep.interplay == Fraction(120 * 2, 6) == 40


def test_aut_generators_generate_the_group():
    for g in (K23, path(4), cycle(5)):
        rep = lc_automorphism_group(g)
        assert len(oracle_group(g.n, rep.generators)) == rep.order
        orbit = set(lc_orbit(g).members)
        for sigma in rep.generators:
            assert _relabel_rows(g.rows, sigma) in orbit


def test_aut_bounds_anchors():
    assert aut_bounds(foliage_partition(complete(5))) == (120, 120)
    assert aut_bounds(foliage_partition(K23)) == (12, 12)
    assert aut_bounds(foliage_partition(cycle(5))) == (1, 120)
    p4 = foliage_partition(path(4))
    assert aut_bounds(p4) == (4, 8)


def test_aut_bounds_hold_on_small_classes():
    # every class with n <= 7, disconnected ones included; the group order
    # and the part sizes are class invariants, so this covers every type.
    # The class size is counted on the orbit and checked against the
    # census's, two routes that share no count
    classes = [cls for n in range(1, 8) for cls in lc_classes(n, connected_only=False).classes]
    assert len(classes) == 108
    for cls in classes:
        g = cls.representative
        rep = lc_automorphism_group(g)
        lower, upper = aut_bounds(foliage_partition(g))
        assert lower <= rep.order <= upper, g.rows
        assert rep.order % rep.aut_in_order == 0, g.rows
        assert rep.class_size == cls.size, g.rows
        assert rep.order * rep.class_size >= rep.labeled_size
        assert rep.interplay >= 1


def aut_in_group(part: FoliagePartition) -> list[tuple[int, ...]]:
    """Adjacent-transposition generators of the within-part permutations."""
    n = part.n
    gens = []
    for members in part.parts:
        for a, b in zip(members, members[1:]):
            p = list(range(n))
            p[a], p[b] = b, a
            gens.append(tuple(p))
    return gens


def test_aut_in_group_generators():
    part = foliage_partition(K23)
    gens = aut_in_group(part)
    assert gens == [
        (1, 0, 2, 3, 4),
        (0, 1, 3, 2, 4),
        (0, 1, 2, 4, 3),
    ]
    assert aut_in_group(foliage_partition(cycle(5))) == []


def test_aut_in_is_inside_aut_and_normal():
    rng = random.Random(77)
    for g in (K23, path(4), star(5)):
        part = foliage_partition(g)
        gens = aut_in_group(part)
        inner = oracle_group(g.n, gens)
        orbit = set(lc_orbit(g).members)
        for sigma in gens:
            assert _relabel_rows(g.rows, sigma) in orbit
        report = lc_automorphism_group(g)
        full = oracle_group(g.n, report.generators)
        for _ in range(30):
            sigma = rng.choice(sorted(full))
            pi = rng.choice(sorted(inner))
            inv = [0] * g.n
            for v, x in enumerate(sigma):
                inv[x] = v
            conj = tuple(sigma[pi[inv[v]]] for v in range(g.n))
            assert conj in inner


def test_part_permutations_preserve_sizes():
    for g in (K23, path(4), star(5), cycle(5)):
        part = foliage_partition(g)
        report = lc_automorphism_group(g)
        size_of = {}
        for p in part.parts:
            for v in p:
                size_of[v] = len(p)
        full_orbit = set(lc_orbit(g).members)
        for sigma in permutations(range(g.n)):
            if _relabel_rows(g.rows, sigma) not in full_orbit:
                continue
            for p in part.parts:
                image = {sigma[v] for v in p}
                target = part.parts[part.part_of(sigma[p[0]])]
                assert image == set(target)
                assert len(image) == len(p)


# An oracle for the automorphism search that shares no code with orbits.py:
# its own complementation, relabelling, orbit BFS, n! scan and generator
# selection (the first permutation, in lexicographic order, outside the
# group generated so far).

def oracle_relabel(n, rows, perm):
    out = [0] * n
    for v in range(n):
        for w in range(n):
            if rows[v] >> w & 1:
                out[perm[v]] |= 1 << perm[w]
    return tuple(out)


def oracle_orbit(n, rows):
    seen = {tuple(rows)}
    todo = [tuple(rows)]
    while todo:
        cur = todo.pop()
        for a in range(n):
            nbrs = [v for v in range(n) if cur[a] >> v & 1]
            out = list(cur)
            for v in nbrs:
                for w in nbrs:
                    if v != w:
                        out[v] ^= 1 << w
            image = tuple(out)
            if image not in seen:
                seen.add(image)
                todo.append(image)
    return seen


def oracle_group(n, gens):
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        p = todo.pop()
        for q in gens:
            r = tuple(q[p[v]] for v in range(n))
            if r not in group:
                group.add(r)
                todo.append(r)
    return group


def test_orbit_matches_the_oracle_group():
    rng = random.Random(622)
    for _ in range(60):
        n = rng.randrange(1, 8)
        gens = []
        for _ in range(rng.randrange(0, 4)):
            p = list(range(n))
            rng.shuffle(p)
            gens.append(tuple(p))
        group = oracle_group(n, gens)
        up = list(range(n))
        for gen in gens:
            for x, y in enumerate(gen):
                up[_find(up, x)] = _find(up, y)
        for v in range(n):
            orbit = {w for w in range(n) if _find(up, w) == _find(up, v)}
            assert orbit == {sigma[v] for sigma in group}, (n, gens)


def oracle_automorphisms(g):
    """(order, generators) by scanning all n! relabellings against the orbit."""
    orbit = oracle_orbit(g.n, g.rows)
    auts = [p for p in permutations(range(g.n)) if oracle_relabel(g.n, g.rows, p) in orbit]
    gens = []
    group = {tuple(range(g.n))}
    for p in auts:
        if p not in group:
            gens.append(p)
            group = oracle_group(g.n, gens)
    return len(auts), tuple(gens)


def random_split_graph(n, rng):
    """A random graph on two vertex blocks with no edge between them, relabelled."""
    k = rng.randrange(1, n)
    a, b = random_graph(k, 0.6, rng), random_graph(n - k, 0.6, rng)
    rows = list(a.rows) + [row << k for row in b.rows]
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, oracle_relabel(n, rows, perm))


def oracle_cases():
    rng = random.Random(2305)
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            yield f"type{n}", Graph(n, oracle_relabel(n, g.rows, perm))
    for n, count in ((7, 6), (8, 4)):
        for i in range(count):
            g = random_graph(n, 0.5, rng)
            while len(connected_components(g)) != 1:
                g = random_graph(n, 0.5, rng)
            yield f"connected{n}", g
            yield f"split{n}", random_split_graph(n, rng)


def test_aut_search_matches_the_full_scan_oracle():
    for label, g in oracle_cases():
        rep = lc_automorphism_group(g)
        assert (rep.order, rep.generators) == oracle_automorphisms(g), (label, g.rows)
        orbit = oracle_orbit(g.n, g.rows)
        types = {canonical_key(Graph(g.n, rows)) for rows in orbit}
        assert rep.class_size == len(types), (label, g.rows)
        assert rep.labeled_size == len(orbit)
        # every automorphism maps each foliage part onto a part of the same
        # size, so Aut_in <= Aut <= Aut_out
        part = foliage_partition(g)
        parts = {frozenset(p) for p in part.parts}
        for sigma in oracle_group(g.n, rep.generators):
            for p in part.parts:
                assert frozenset(sigma[v] for v in p) in parts, (label, g.rows, sigma)
        assert rep.aut_in_order <= rep.order <= rep.aut_in_order * rep.aut_out_upper_order


def same_degree_members(g):
    """Members of the oracle orbit of ``g`` with the sorted degrees of ``g``."""
    degrees = sorted(row.bit_count() for row in g.rows)
    return sum(
        sorted(row.bit_count() for row in rows) == degrees
        for rows in oracle_orbit(g.n, g.rows)
    )


def test_aut_report_searches_only_members_with_the_degrees_of_g(monkeypatch):
    searched = counted_searches(monkeypatch)
    rng = random.Random(88)
    for g in [cycle(8)] + [random_graph(8, 0.5, rng) for _ in range(20)]:
        same_degrees = same_degree_members(g)
        searched.clear()
        lc_automorphism_group(g)
        # g itself, then the orbit members that may have its type
        assert len(searched) <= 1 + same_degrees, g.rows
        assert len(searched) <= 200, g.rows  # 8! = 40320
    # K_8 and the empty graph are alone with their degrees in their orbits,
    # so only g is searched; the star's orbit holds the eight stars, and the
    # first isomorphism onto another one, with Aut(S_8), reaches them all
    for g, searches in ((complete(8), 1), (Graph.from_edges(8, []), 1), (star(8), 2)):
        searched.clear()
        assert lc_automorphism_group(g).order == 40320
        assert len(searched) == searches, g.rows


def test_lc_orbit_searches_only_members_with_the_degrees_of_g(monkeypatch):
    searched = counted_searches(monkeypatch)
    rng = random.Random(89)
    for g in [cycle(8)] + [random_graph(8, 0.5, rng) for _ in range(20)]:
        searched.clear()
        lc_orbit(g)
        # g itself, then the orbit members that may have its type
        assert len(searched) <= 1 + same_degree_members(g), g.rows
    # the orbit of K_16 and S_16 holds K_16 and the sixteen stars: one
    # isomorphism onto another star, with Aut(S_16), reaches them all
    for g in (complete(16), star(16)):
        searched.clear()
        assert lc_orbit(g).class_size == 2
        assert len(searched) <= 2, g.rows


def test_lc_orbit_class_size_matches_the_canonical_keys_of_the_oracle_orbit():
    def cases():
        rng = random.Random(1994)
        for n in range(1, 7):
            for g in nonisomorphic_graphs(n):
                perm = list(range(n))
                rng.shuffle(perm)
                yield Graph(n, oracle_relabel(n, g.rows, perm))
        for n in (7, 7, 8, 8, 9):
            g = random_graph(n, 0.5, rng)
            while len(connected_components(g)) != 1:
                g = random_graph(n, 0.5, rng)
            yield g

    for g in cases():
        types = {canonical_key(Graph(g.n, rows)) for rows in oracle_orbit(g.n, g.rows)}
        assert lc_orbit(g).class_size == len(types), g.rows


def test_orbit_members_is_a_bfs_tree_of_the_oracle_orbit():
    import lcfoliage.orbits as orbits_mod

    rng = random.Random(1107)
    for _ in range(40):
        n = rng.randrange(1, 9)
        g = random_graph(n, 0.5, rng)
        packed, index, members, parent, move = orbits_mod._orbit_members(g)
        rows = [packed.unpack(m) for m in members]
        assert set(rows) == oracle_orbit(n, g.rows), g.rows
        assert len(set(rows)) == len(members)
        assert rows[0] == g.rows
        assert list(index) == members
        assert all(index[m] == h for h, m in enumerate(members))
        assert len(parent) == len(move) == len(members)
        for h in range(1, len(members)):
            assert parent[h] < h, (g.rows, h)
            assert local_complement(Graph._wrap(n, rows[parent[h]]), move[h]).rows == rows[h], (g.rows, h)


def labeled_size_from_reduced_states(g):
    """The labelled orbit size of ``g`` from its foliage representation alone.

    A reduced state is the quotient's rows and the part types.  A move
    changes it by the part moved at alone, so the BFS makes one lifted move
    per part: at the axil of an AL part, else at the least member.  Each
    state stands for one labelled graph per choice of axil in each AL part,
    so it counts the product of their sizes.  Nothing here touches the
    packed orbit, its group or the canonical search.
    """
    rep = foliage_representation(g)
    sizes = rep.partition.sizes()
    seen = {(rep.quotient.rows, rep.types)}
    states = [rep]
    total = 0
    for rep in states:  # the list grows while it is read
        total += prod(s for s, t in zip(sizes, rep.types) if t is PartType.AL)
        axil = {rep.partition.part_of(a): a for a in rep.axils}
        for i, part in enumerate(rep.partition.parts):
            image = lifted_local_complement(rep, axil.get(i, part[0]))
            state = (image.quotient.rows, image.types)
            if state not in seen:
                seen.add(state)
                states.append(image)
    return total


REDUCED_STATE_PROFILES = [(2, 2, 2), (3, 3, 3), (1, 2, 3, 4), (1, 1, 1, 1, 5), (2, 5), (1, 1, 4, 4)]


@pytest.mark.parametrize(
    "family",
    [
        # the 1,252 types take 2.1M lifted moves, about 7 us each on 2 shared vCPUs
        pytest.param("all-types-to-7", marks=pytest.mark.slow),
        pytest.param("random-8-9", marks=pytest.mark.slow),
        "profiles",
    ],
)
def test_labeled_size_matches_the_reduced_state_orbit(family):
    if family == "all-types-to-7":
        graphs = [g for n in range(1, 8) for g in nonisomorphic_graphs(n)]
        assert len(graphs) == 1252
    elif family == "random-8-9":
        rng = random.Random(4506)
        graphs = [random_graph(n, rng.choice((0.2, 0.35, 0.5)), rng) for n in (8, 9) for _ in range(20)]
    else:
        graphs = [graph_for_partition(sizes) for sizes in REDUCED_STATE_PROFILES]
    for g in graphs:
        assert labeled_size_from_reduced_states(g) == lc_orbit(g).labeled_size, g.rows


def plain_bfs_tree(n, rows):
    """``(members, parent, move)``: the BFS of the orbit with every move of every member tried."""
    members, parent, move = [tuple(rows)], [0], [0]
    index = {members[0]: 0}
    for i, cur in enumerate(members):
        for a in range(n):
            nb = cur[a]
            if nb & (nb - 1) == 0:
                continue  # degree 0 or 1
            out = list(cur)
            for v in range(n):
                if nb >> v & 1:
                    out[v] ^= nb & ~(1 << v)
            image = tuple(out)
            if image not in index:
                index[image] = len(members)
                members.append(image)
                parent.append(i)
                move.append(a)
    return members, parent, move


def plain_bfs_cases():
    for n in range(1, 7):
        yield from nonisomorphic_graphs(n)
    rng = random.Random(4208)
    for n, densities in ((7, (0.15, 0.3, 0.5, 0.7)), (8, (0.3, 0.5, 0.7)), (9, (0.3, 0.5))):
        for p in densities:
            yield random_graph(n, p, rng)


def test_orbit_members_is_the_plain_bfs_tree():
    import lcfoliage.orbits as orbits_mod

    for g in plain_bfs_cases():
        packed, _, members, parent, move = orbits_mod._orbit_members(g)
        assert ([packed.unpack(m) for m in members], list(parent), list(move)) == plain_bfs_tree(
            g.n, g.rows
        ), g.rows


def test_forced_orbit_of_a_star_above_64_vertices():
    # the masks of known moves no longer fit a machine word
    report = lc_orbit(star(70))
    assert (report.labeled_size, report.class_size) == (71, 2)


def test_orbit_count_relabels_once_per_generator(monkeypatch):
    import lcfoliage.canonical as canonical_mod
    import lcfoliage.orbits as orbits_mod

    relabelled = []
    real = orbits_mod._relabel_rows
    monkeypatch.setattr(
        orbits_mod,
        "_relabel_rows",
        lambda rows, perm: relabelled.append(perm) or real(rows, perm),
    )
    rng = random.Random(1108)
    graphs = [complete(5), cycle(6)] + [random_graph(8, 0.5, rng) for _ in range(3)]
    for g in graphs:
        tree = orbits_mod._orbit_members(g)
        relabelled.clear()
        gens, roots, _ = orbits_mod._lc_group(g, tree, canonical_mod._search(g.n, g.rows))
        count = len(roots)
        assert gens, g.rows  # every one of these graphs has a nontrivial group
        # only the root is relabelled, once per generator, for sigma . g
        assert len(relabelled) == len(gens), g.rows
        types = {canonical_key(Graph(g.n, rows)) for rows in oracle_orbit(g.n, g.rows)}
        assert count == len(types), g.rows


# Reports frozen from the earlier class-size count, which relabelled every
# orbit member by every generator: seeded connected G(n, 1/2), then the
# edgeless graph on 5 vertices and the single vertex.  An orbit report is
# (n, rows, labeled_size, class_size, sha256 of repr(members) cut to 16
# hex digits); an automorphism report is (n, rows, then every field).
ORBIT_GOLDENS = [
    (6, (54, 41, 17, 34, 37, 27), 372, 16, "829bc2762ff43823"),
    (6, (62, 1, 41, 21, 9, 5), 176, 21, "b53c3c73bf400493"),
    (7, (30, 17, 49, 113, 111, 92, 56), 1052, 92, "77ce89bd1914be9d"),
    (7, (120, 100, 114, 113, 109, 95, 63), 236, 72, "48043b91f52cf5d2"),
    (8, (30, 213, 19, 97, 135, 8, 138, 82), 1404, 542, "48ef8dfa2fc40f68"),
    (8, (38, 245, 243, 176, 14, 143, 134, 110), 1492, 46, "2e3207f1547028d4"),
    (9, (158, 129, 177, 417, 485, 284, 272, 287, 248), 8404, 4246, "171c13e3f26fdef7"),
    (9, (68, 240, 25, 372, 174, 410, 11, 50, 40), 8836, 8836, "222593e3455251ec"),
    (5, (0, 0, 0, 0, 0), 1, 1, "555fce3b542ce540"),
    (1, (0,), 1, 1, "efd70b49446e8be6"),
]
AUT_GOLDENS = [
    (6, (46, 53, 35, 33, 34, 31), 48,
     ((0, 1, 2, 4, 3, 5), (0, 1, 3, 2, 5, 4), (1, 0, 2, 3, 4, 5), (2, 5, 0, 3, 4, 1)),
     1, 720, 372, 16, "64/31"),
    (6, (38, 37, 27, 52, 12, 11), 16,
     ((0, 1, 2, 3, 5, 4), (0, 1, 3, 2, 4, 5), (0, 1, 4, 5, 2, 3), (1, 0, 2, 3, 4, 5)),
     2, 24, 176, 21, "21/11"),
    (7, (26, 33, 80, 81, 45, 82, 44), 48,
     ((0, 1, 2, 3, 6, 5, 4), (0, 1, 3, 2, 4, 5, 6), (0, 4, 2, 3, 1, 6, 5),
      (2, 1, 0, 3, 4, 5, 6)),
     1, 5040, 1056, 33, "3/2"),
    (7, (4, 48, 105, 4, 34, 86, 36), 12,
     ((0, 1, 3, 2, 4, 5, 6), (0, 4, 2, 3, 1, 5, 6), (2, 1, 0, 3, 4, 5, 6)),
     12, 2, 104, 44, "66/13"),
    (8, (190, 65, 65, 113, 105, 153, 158, 97), 8,
     ((0, 1, 2, 4, 3, 5, 6, 7), (0, 2, 1, 3, 4, 5, 6, 7), (6, 1, 2, 3, 4, 5, 0, 7)),
     4, 48, 640, 176, "11/5"),
    (8, (56, 80, 224, 161, 99, 93, 54, 12), 12,
     ((0, 2, 4, 1, 7, 5, 3, 6), (5, 1, 3, 2, 6, 0, 4, 7)),
     1, 40320, 3156, 298, "298/263"),
    (5, (0, 0, 0, 0, 0), 120,
     ((0, 1, 2, 4, 3), (0, 1, 3, 2, 4), (0, 2, 1, 3, 4), (1, 0, 2, 3, 4)),
     1, 120, 1, 1, "120"),
    (1, (0,), 1, (), 1, 1, 1, 1, "1"),
]


def test_orbit_reports_are_frozen():
    for n, rows, labeled_size, class_size, digest in ORBIT_GOLDENS:
        rep = lc_orbit(Graph(n, rows))
        assert rep.representative == Graph(n, rows)
        assert (rep.labeled_size, rep.class_size) == (labeled_size, class_size), rows
        assert hashlib.sha256(repr(rep.members).encode()).hexdigest()[:16] == digest, rows


def test_orbit_reports_unpack_members_only_when_they_are_read(monkeypatch):
    unpacked = []
    real = _Packed.unpack
    monkeypatch.setattr(_Packed, "unpack", lambda self, m: unpacked.append(m) or real(self, m))
    rng = random.Random(1109)
    for g in [cycle(7), star(6)] + [random_graph(8, 0.5, rng) for _ in range(8)]:
        orbit = oracle_orbit(g.n, g.rows)
        bits = sum(map(int.bit_count, g.rows))
        same_edges = sum(sum(map(int.bit_count, rows)) == bits for rows in orbit)
        unpacked.clear()
        rep = lc_orbit(g)
        assert rep.labeled_size == len(orbit), g.rows
        # only the class count's candidates: members with g's edge count but g
        assert len(unpacked) < same_edges < rep.labeled_size, g.rows
        unpacked.clear()
        first = rep.members
        assert len(unpacked) == rep.labeled_size, g.rows  # one unpack per member per read
        assert rep.members == first == tuple(sorted(orbit)), g.rows
        assert [h.rows for h in rep.member_graphs()] == list(first)
        again = lc_orbit(g)
        assert again == rep and hash(again) == hash(rep), g.rows


def test_aut_reports_are_frozen():
    for n, rows, *fields, interplay in AUT_GOLDENS:
        rep = lc_automorphism_group(Graph(n, rows))
        assert [
            rep.order,
            rep.generators,
            rep.aut_in_order,
            rep.aut_out_upper_order,
            rep.labeled_size,
            rep.class_size,
        ] == fields, rows
        assert rep.interplay == Fraction(interplay), rows


@pytest.mark.parametrize("n", [16, 24])
def test_canonical_search_keeps_one_automorphism_per_level_on_symmetric_graphs(n):
    import lcfoliage.canonical as canonical_mod

    # backjumping to where a tie leaf parts from the least leaf's path finds
    # one transposition per level; without it the search keeps about n^2/2
    for g in (complete(n), star(n), Graph.from_edges(n, [])):
        auts = canonical_mod._search(n, g.rows)[2]
        assert len(auts) <= n - 1, g.rows


def test_canonical_search_automorphisms_generate_the_automorphism_group():
    import lcfoliage.canonical as canonical_mod

    def cases():
        rng = random.Random(1981)
        for n in range(1, 7):
            for g in nonisomorphic_graphs(n):
                perm = list(range(n))
                rng.shuffle(perm)
                yield Graph(n, oracle_relabel(n, g.rows, perm))
        for n in range(1, 8):
            yield from (complete(n), star(n), Graph.from_edges(n, []))
            if n >= 3:
                yield cycle(n)

    for g in cases():
        n, rows = g.n, g.rows
        auts = canonical_mod._search(n, rows)[2]
        fixing = {p for p in permutations(range(n)) if oracle_relabel(n, rows, p) == rows}
        assert oracle_group(n, auts) == fixing, rows


def test_aut_guard():
    with pytest.raises(SizeGuardError, match="group order <= 362880$"):
        lc_automorphism_group(Graph.from_edges(10, []))


@pytest.mark.parametrize("g", [Graph.from_edges(9, []), complete(9)], ids=["empty9", "K9"])
def test_aut_lists_a_group_of_exactly_9_factorial(g):
    # S_9, at the budget: the listing stops before a coset would pass it,
    # not before a generator that might
    assert lc_automorphism_group(g).order == 362880


# ---------------------------------------------------------------------------
# stats rows

def test_stats_row_n6_exact_fractions():
    row = saturation_stats(6)
    assert row.class_count == 11
    assert row.avg_time == Fraction(17, 11)
    assert row.avg_size == Fraction(25, 11)
    assert row.reducible == Fraction(9, 11)
    assert row.fully_reducible == Fraction(8, 11)
    assert row.two_decimals() == ("1.55", "2.27", "0.82", "0.73")


@pytest.mark.parametrize(
    "n,expected",
    [
        (2, ("1.00", "1.00", "1.00", "1.00")),
        (3, ("1.00", "1.00", "1.00", "1.00")),
        (4, ("1.50", "1.00", "1.00", "1.00")),
        (5, ("1.25", "2.00", "0.75", "0.75")),
    ],
)
def test_stats_rows_small_n(n, expected):
    # derived by hand: the class representatives are stars, paths, cycles
    # and one spider, whose saturation chains are short enough to enumerate
    assert saturation_stats(n).two_decimals() == expected


def test_symmetry_table_shape():
    rows = symmetry_table(4)
    assert len(rows) == 2
    for cid, row in enumerate(rows, start=1):
        assert row[0] == cid
        assert row[1] == 4
        assert len(row) == 9
        assert row[3] <= row[5] <= row[3] * row[4]
        assert isinstance(row[8], str) and len(row[8].split(".")[1]) == 2


@pytest.mark.parametrize(
    "n, connected",
    [pytest.param(n, True, id=f"connected-{n}") for n in range(1, 8)]
    + [pytest.param(n, False, id=f"all-{n}") for n in range(1, 7)]
    + [pytest.param(8, True, id="connected-8", marks=pytest.mark.slow)],
)
def test_symmetry_table_counts_class_sizes_that_match_the_census(n, connected):
    import lcfoliage.orbits as orbits_mod

    # each row again from the representative's own labelled orbit and LC
    # group, where the table reads the orbit the census grew the class from
    expected = []
    for cid, cls in enumerate(lc_classes(n, connected_only=connected).classes, start=1):
        rep = cls.representative
        report = lc_automorphism_group(rep)
        assert report.class_size == cls.size
        shape = "+".join(str(s) for s in sorted(foliage_partition(rep).sizes()))
        expected.append(
            (
                cid,
                n,
                shape,
                report.aut_in_order,
                report.aut_out_upper_order,
                report.order,
                report.labeled_size,
                report.class_size,
                orbits_mod._fmt2(report.interplay),
            )
        )
    assert symmetry_table(n, connected_only=connected) == expected


@pytest.mark.parametrize("n", [7, pytest.param(8, marks=pytest.mark.slow)])
def test_symmetry_table_of_a_cached_census_enumerates_no_orbit_and_searches_nothing(monkeypatch, n):
    import lcfoliage.orbits as orbits_mod

    lc_classes(n)
    enumerated = []
    real = orbits_mod._orbit_members
    monkeypatch.setattr(orbits_mod, "_orbit_members", lambda g: enumerated.append(g) or real(g))
    searched = counted_searches(monkeypatch)
    rows = symmetry_table(n)
    assert len(rows) == lc_classes(n).count
    assert (enumerated, searched) == ([], [])


# ---------------------------------------------------------------------------
# integer partitions

def test_partition_number_anchors():
    assert partition_number(0) == 1
    assert partition_number(1) == 1
    assert partition_number(5) == 7
    assert partition_number(8) == 22
    assert partition_number(100) == 190569292
    with pytest.raises(ValueError):
        partition_number(-1)


def test_partition_number_refuses_n_above_its_limit():
    import lcfoliage.orbits as orbits_mod

    limit = orbits_mod._MAX_PARTITION_N
    computed = len(orbits_mod._PARTITION_NUMBERS)
    for refused in (partition_number, class_lower_bound):
        with pytest.raises(SizeGuardError, match=f"n <= {limit}"):
            refused(limit + 1)
    # refused before the recurrence extends its table
    assert len(orbits_mod._PARTITION_NUMBERS) == computed


def test_partition_number_matches_dp_oracle():
    # coin-counting dynamic programme, independent of the recurrence
    limit = 30
    table = [1] + [0] * limit
    for coin in range(1, limit + 1):
        for total in range(coin, limit + 1):
            table[total] += table[total - coin]
    for n in range(limit + 1):
        assert partition_number(n) == table[n]


def integer_partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of ``n`` as non-decreasing tuples, lexicographic."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, minimum: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for first in range(minimum, remaining + 1):
            rec(remaining - first, first, prefix + (first,))

    rec(n, 1, ())
    return out


def test_integer_partitions_enumeration():
    assert integer_partitions(4) == [
        (1, 1, 1, 1),
        (1, 1, 2),
        (1, 3),
        (2, 2),
        (4,),
    ]
    for n in range(1, 12):
        parts = integer_partitions(n)
        assert len(parts) == partition_number(n)
        assert all(sum(p) == n and list(p) == sorted(p) for p in parts)


def test_class_lower_bound_values():
    assert class_lower_bound(2) == 1
    assert class_lower_bound(3) == 1
    assert class_lower_bound(4) == 2
    assert class_lower_bound(5) == 4
    assert class_lower_bound(8) == 19
    with pytest.raises(ValueError):
        class_lower_bound(1)


def test_bound_below_class_count():
    for n in range(2, 8):
        assert class_lower_bound(n) <= lc_classes(n).count


def test_realized_profiles_are_all_but_exceptional():
    for n in range(2, 8):
        realized = {
            tuple(sorted(foliage_partition(g).sizes()))
            for g in nonisomorphic_graphs(n, connected=True)
        }
        exceptional = set()
        if n >= 2:
            exceptional.add(tuple(sorted((1, n - 1))))
        if n >= 3:
            exceptional.add(tuple(sorted((1, 1, n - 2))))
        if n >= 4:
            exceptional.add(tuple(sorted((1, 1, 1, n - 3))))
        assert realized == set(integer_partitions(n)) - exceptional


# ---------------------------------------------------------------------------
# constructions

def test_graph_for_partition_anchors():
    g = graph_for_partition([2, 3])
    assert foliage_partition(g).sizes() == (2, 3)
    assert graph_for_partition([1, 1, 1, 1, 1]) == cycle(5)
    assert graph_for_partition([5]) == star(5)
    assert graph_for_partition([1]).n == 1


@pytest.mark.parametrize("bad", [[1, 4], [1, 1, 3], [1, 1, 1, 2], [1, 1], [1, 1, 1, 1]])
def test_graph_for_partition_exceptional(bad):
    with pytest.raises(ValueError):
        graph_for_partition(bad)


@pytest.mark.parametrize("bad", [[], [0, 2], [3, 2], [-1]])
def test_graph_for_partition_invalid_input(bad):
    with pytest.raises(ValueError):
        graph_for_partition(bad)


def test_graph_for_partition_all_profiles_up_to_nine():
    for n in range(1, 10):
        for sizes in integer_partitions(n):
            k = len(sizes)
            if 2 <= k <= 4 and all(s == 1 for s in sizes[:-1]):
                continue
            g = graph_for_partition(sizes)
            assert tuple(sorted(foliage_partition(g).sizes())) == sizes


# ---------------------------------------------------------------------------
# frozen census output, taken from the census that enumerated every
# isomorphism type of the order before joining them along moves

N8_REPS_SHA256 = "9a9558fe0a75fca6cb8daeba1bdb91dca76e562754677e42a59216a961d36da7"
N8_SIZES = [2, 6, 6, 16, 4, 16, 10, 10, 16, 10, 44, 21, 10, 16, 10, 10, 25, 44, 66, 44, 44, 44, 26, 28, 44, 26, 120, 132, 114, 56, 57, 9, 26, 14, 66, 72, 198, 66, 72, 6, 10, 14, 25, 28, 10, 17, 7, 120, 72, 72, 76, 72, 28, 66, 66, 63, 56, 176, 114, 172, 194, 372, 352, 36, 39, 103, 70, 66, 37, 87, 46, 542, 264, 170, 542, 154, 300, 74, 340, 542, 156, 174, 46, 24, 46, 262, 254, 117, 476, 214, 802, 433, 208, 298, 28, 267, 4, 28, 7, 51, 22]
N7_CSV_SHA256 = "f92efd7dc0375c2bd56b55d3d6e7567cac2e29449c4704f92d24c4744c0282c9"
N7_STATS_SHA256 = "5c0ee4e7fec7548457aa10287ee7ffb1a906cc400b84d569868259f131928f08"
N6_ALL_REPS_SHA256 = "5a118355ff01f6a316575be2e544d5d46dbb309fe3ca9dcd49a280ccd6e53f8e"


def cli_sha256(capsys, *argv):
    assert main(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest()


def test_census_all_graphs_n6_reps_frozen(capsys):
    assert cli_sha256(capsys, "classes", "--n", "6", "--all", "--reps", "-") == N6_ALL_REPS_SHA256


@pytest.mark.slow
def test_census_n8_frozen(capsys):
    assert cli_sha256(capsys, "classes", "--n", "8", "--reps", "-") == N8_REPS_SHA256
    assert main(["classes", "--n", "8"]) == 0
    assert capsys.readouterr().out == "101\n"
    assert [c.size for c in lc_classes(8).classes] == N8_SIZES
    assert sum(N8_SIZES) == 11117  # connected graphs on 8 vertices, OEIS A001349


@pytest.mark.slow
def test_census_n7_tables_frozen(capsys):
    assert cli_sha256(capsys, "classes", "--n", "7", "--csv") == N7_CSV_SHA256
    assert cli_sha256(capsys, "stats", "--n", "7", "--csv") == N7_STATS_SHA256
