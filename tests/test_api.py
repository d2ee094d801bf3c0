"""The public surface: every exported name resolves, every public function
is named in the README or the CLI, every public member of a public class is
read, every private module-level definition
has a caller, and importing the package, every CLI command and every query
but the state-vector oracle stay free of numpy and of the process pool."""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import random
import subprocess
import sys
from dataclasses import astuple
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest

import lcfoliage
from conftest import random_graph
from lcfoliage import canonical, entanglement, foliage, gf2, graph, graph6, orbits

MODULES = ["lcfoliage"] + [
    f"lcfoliage.{info.name}"
    for info in pkgutil.iter_modules(lcfoliage.__path__)
    if not info.name.startswith("_")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    assert [attr for attr in exported if not hasattr(mod, attr)] == []


def test_package_exports_the_union_of_the_module_lists():
    owner = {}
    for module in (canonical, entanglement, foliage, gf2, graph, graph6, orbits):
        for name in module.__all__:
            assert owner.setdefault(name, module) is module, f"{name} is declared twice"
    assert lcfoliage.__all__ == sorted(owner)
    assert [name for name in owner if getattr(lcfoliage, name) is not getattr(owner[name], name)] == []


def test_dir_lists_every_exported_name():
    # names resolve on first use (PEP 562), but dir() lists them all before
    assert set(lcfoliage.__all__) <= set(dir(lcfoliage))
    assert dir(lcfoliage) == sorted(dir(lcfoliage))


def test_every_private_definition_is_referenced():
    # a private function or class whose last caller went is dead code
    trees = [ast.parse(path.read_text()) for path in Path(lcfoliage.__file__).parent.glob("*.py")]
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defined = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    assert defined
    assert [name for name in defined if name not in used] == []


def test_every_public_function_is_named_in_the_readme_or_the_cli():
    # a public function that neither the README nor a command names has no
    # documented use, and neither has a public method or property of a
    # public class that the README does not name as ``.member`` and that no
    # module of the package reads
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    cli = (Path(lcfoliage.__file__).parent / "cli.py").read_text()
    named = set(re.findall(r"\w+", readme + cli))
    functions = [name for name in lcfoliage.__all__ if inspect.isfunction(getattr(lcfoliage, name))]
    assert functions
    assert [name for name in functions if name not in named] == []
    read = set(re.findall(r"\.(\w+)", readme)) | {
        node.attr
        for path in Path(lcfoliage.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
    }
    kinds = (type(lambda: None), property, cached_property, classmethod, staticmethod)
    members = [
        (name, attr)
        for name in lcfoliage.__all__
        if inspect.isclass(getattr(lcfoliage, name))
        for attr, value in vars(getattr(lcfoliage, name)).items()
        if not attr.startswith("_") and isinstance(value, kinds)
    ]
    assert ("Graph", "edges") in members and ("OrbitReport", "members") in members
    assert [f"{name}.{attr}" for name, attr in members if attr not in read] == []


def test_no_public_function_takes_a_force_flag():
    # every limit is a budget that nothing lifts
    takes_force = [
        name
        for name in lcfoliage.__all__
        if inspect.isfunction(getattr(lcfoliage, name))
        and "force" in inspect.signature(getattr(lcfoliage, name)).parameters
    ]
    assert takes_force == []


def empty(n):
    return graph.Graph(n, [0] * n)


path9 = graph.Graph.from_edges(9, [(v, v + 1) for v in range(8)])


# each budget that nothing lifts, one input above it, with its message frozen
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: orbits.lc_classes(10), "class census is limited to isomorphism types <= 1048576"),
        (lambda: entanglement.schmidt_vector(empty(25)), "schmidt_vector is limited to lane bytes <= 67108864"),
        (
            # reads past 2^20 sets: see test_entanglement.py::test_uniformity_guard_and_force
            lambda: entanglement.uniformity(random_graph(40, 0.5, random.Random(40))),
            "uniformity is limited to vertex sets read <= 1048576",
        ),
        (
            lambda: entanglement.statevector_entropy_oracle(empty(21), 0),
            "statevector oracle is limited to d^n <= 1048576",
        ),
        # the canonical search runs before the orbit BFS packs a member
        (lambda: orbits.lc_orbit(empty(1200)), "canonical search is limited to n <= 800 by its recursion depth"),
        # S_10, refused as its listing passes 9!
        (lambda: orbits.lc_automorphism_group(empty(10)), "lc_automorphism_group is limited to group order <= 362880"),
    ],
    ids=["lc_classes", "schmidt_vector", "uniformity", "statevector_oracle", "lc_orbit", "lc_automorphism_group"],
)
def test_each_budget_keeps_its_message(call, message):
    with pytest.raises(graph.SizeGuardError) as exc:
        call()
    assert str(exc.value) == message


# inputs of many vertices and little work, which budgets on the work admit
@pytest.mark.parametrize(
    "call, result",
    [
        (lambda: astuple(entanglement.uniformity(empty(21))), (21, 0, 1)),
        (
            lambda: astuple(entanglement.uniformity(graph.Graph.from_edges(2000, [(v, v + 1) for v in range(1999)]))),
            (2000, 1, 0b11),
        ),
        (lambda: orbits.lc_orbit(empty(17)).labeled_size, 1),
        (
            lambda: astuple(orbits.lc_automorphism_group(path9)),
            (
                8,
                ((0, 1, 2, 3, 4, 5, 6, 8, 7), (1, 0, 2, 3, 4, 5, 6, 7, 8), (7, 8, 6, 5, 4, 3, 2, 0, 1)),
                4, 240, 1672, 464, Fraction(464, 209),
            ),
        ),
    ],
    ids=["uniformity", "uniformity_path", "lc_orbit", "lc_automorphism_group"],
)
def test_budgets_admit_large_inputs_of_little_work(call, result):
    assert call() == result


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(lcfoliage.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env
    )


@pytest.mark.parametrize("module", ["numpy", "concurrent.futures.process"])
def test_import_leaves_module_out(module):
    code = "import sys, lcfoliage, lcfoliage.cli, lcfoliage.graph6; print(sys.argv[1] in sys.modules)"
    proc = run_python(code, module)
    assert (proc.returncode, proc.stdout) == (0, "False\n")


LOADED = "import sys\nprint(sorted(m for m in sys.modules if m.startswith('lcfoliage.')))\n"


# the package modules a fresh interpreter holds after each step
@pytest.mark.parametrize(
    "code, loaded",
    [
        ("import lcfoliage\n", []),
        (
            "from lcfoliage.cli import main\nmain(['foliage', '--g6', 'D~{'])\n",
            ["lcfoliage.cli", "lcfoliage.foliage", "lcfoliage.graph", "lcfoliage.graph6"],
        ),
        (
            "from lcfoliage.cli import main\nmain(['lc', '0', '--g6', 'D~{'])\n",
            ["lcfoliage.cli", "lcfoliage.graph", "lcfoliage.graph6"],
        ),
        (
            "from lcfoliage.cli import main\nmain(['classes', '--n', '5'])\n",
            ["lcfoliage.canonical", "lcfoliage.cli", "lcfoliage.foliage", "lcfoliage.graph", "lcfoliage.orbits"],
        ),
    ],
    ids=["import", "foliage", "lc", "classes"],
)
def test_each_step_loads_only_the_modules_it_uses(code, loaded):
    proc = run_python(code + LOADED)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr(loaded)


def test_star_import_binds_each_name_to_its_owner():
    code = (
        "import importlib, lcfoliage\n"
        "names = {}\n"
        "exec('from lcfoliage import *', names)\n"
        "del names['__builtins__']\n"
        "assert sorted(names) == lcfoliage.__all__\n"
        "owner = {}\n"
        "for part in ('canonical', 'entanglement', 'foliage', 'gf2', 'graph', 'graph6', 'orbits'):\n"
        "    module = importlib.import_module('lcfoliage.' + part)\n"
        "    owner.update((name, module) for name in module.__all__)\n"
        "print([name for name, value in names.items() if value is not getattr(owner[name], name)])\n"
        "print(set(lcfoliage.__all__) <= set(dir(lcfoliage)))\n"
    )
    proc = run_python(code)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\nTrue\n")


# Runs the census commands and the weighted foliage command through the CLI
# and the orbit, automorphism, cut-rank and weighted queries through the
# library, printing everything to stdout.  With argument "block", every
# import of numpy raises ImportError.  The qubit graphs come from edge lists,
# so no graph6 text is decoded.
NUMPY_FREE_PATHS = """
import io, runpy, sys

if sys.argv[1] == "block":
    sys.modules["numpy"] = None

WEIGHTED = "d 5 n 6\\n0 1 1\\n0 2 2\\n1 2 3\\n2 3 4\\n3 4 1\\n3 5 2\\n"
sys.stdin = io.StringIO(WEIGHTED)
for argv in (
    ["classes", "--n", "7"],
    ["classes", "--n", "7", "--csv"],
    ["stats", "--n", "6", "--csv"],
    ["foliage", "--weighted", "-"],
):
    sys.argv = ["lcfoliage", *argv]
    try:
        runpy.run_module("lcfoliage", run_name="__main__")
    except SystemExit as exc:
        print("exit", exc.code)

from lcfoliage import (
    Graph, entropy_via_foliage, lc_automorphism_group, lc_orbit, normal_form, schmidt_vector,
    uniformity,
)

path7 = Graph.from_edges(7, [(v, v + 1) for v in range(6)])
wheel = Graph.from_edges(7, [(0, v) for v in range(1, 7)] + [(v, v % 6 + 1) for v in range(1, 7)])
k23 = Graph.from_edges(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])
chords = Graph.from_edges(10, [(v, (v + 1) % 10) for v in range(10)] + [(0, 5), (2, 7), (3, 8)])
for g in (path7, wheel, k23):
    print(lc_orbit(g))
    print(lc_automorphism_group(g))
for g in (wheel, chords):
    print(schmidt_vector(g))
    print(uniformity(g))
nf = normal_form(chords)
print([entropy_via_foliage(nf, s) for s in range(1 << nf.n)])

from lcfoliage import decode_weighted, encode_weighted, foliage_partition, qudit_scale, qudit_star

wg = decode_weighted(WEIGHTED)
print(foliage_partition(wg))
print(encode_weighted(qudit_scale(qudit_star(wg, 2, 3), 3, 2)))
"""


def test_census_and_queries_run_with_numpy_blocked():
    free = run_python(NUMPY_FREE_PATHS, "free")
    blocked = run_python(NUMPY_FREE_PATHS, "block")
    assert (free.returncode, free.stderr) == (0, "")
    assert (blocked.returncode, blocked.stderr) == (0, "")
    assert blocked.stdout == free.stdout


# Runs every CLI command that reads or writes graph6, and the commands no
# other test here runs, through ``main``, printing each output and exit code.
# With argument "block", every import of numpy raises ImportError; the last
# line says whether numpy was loaded.  The 1000-vertex path is coded edge by
# edge, the wheel through bit strings.
GRAPH6_COMMANDS = """
import sys

if sys.argv[1] == "block":
    sys.modules["numpy"] = None

from lcfoliage import Graph, encode_graph6
from lcfoliage.cli import main

wheel = encode_graph6(Graph.from_edges(7, [(0, v) for v in range(1, 7)] + [(v, v % 6 + 1) for v in range(1, 7)]))
path = encode_graph6(Graph.from_edges(1000, [(v, v + 1) for v in range(999)]))
for argv in (
    ["foliage", "--g6", path],
    ["foliage", "--g6", wheel],
    ["foliage", "--json", "--g6", wheel],
    ["lc", "0", "--g6", wheel],
    ["lc", "3", "--g6", path],
    ["normal-form", "--g6", wheel],
    ["saturation", "--g6", wheel],
    ["orbit", "--members", "-", "--g6", wheel],
    ["aut", "--g6", wheel],
    ["entropy", "--subset", "0,2,4", "--g6", wheel],
    ["schmidt", "--g6", wheel],
    ["uniformity", "--g6", wheel],
    ["classes", "--n", "5", "--reps", "-"],
    ["qlc", "star", "1", "1", "--g6", "d 5 n 3\\n0 1 2\\n1 2 3\\n"],
    ["bound", "--n", "7"],
    ["construct", "--partition", "2,3"],
):
    print("exit", main(argv))
print(sys.modules.get("numpy") is not None)
"""


def test_every_cli_command_runs_with_numpy_blocked():
    free = run_python(GRAPH6_COMMANDS, "free")
    blocked = run_python(GRAPH6_COMMANDS, "block")
    assert (free.returncode, free.stderr) == (0, "")
    assert (blocked.returncode, blocked.stderr) == (0, "")
    assert blocked.stdout == free.stdout
    assert free.stdout.endswith("exit 0\nFalse\n")
    assert free.stdout.count("exit 0") == 16


def test_statevector_oracle_names_its_extra_without_numpy():
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from lcfoliage import Graph, statevector_entropy_oracle\n"
        "try:\n"
        "    statevector_entropy_oracle(Graph.from_edges(2, [(0, 1)]), 1)\n"
        "except ImportError as exc:\n"
        "    print(exc)\n"
    )
    proc = run_python(code)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "lcfoliage[oracle]" in proc.stdout
