"""Mutation checks: each row edits one module of a copy of ``src/`` and runs
the tests that must see the edit.

Run from anywhere with ``python tests/mutants.py``; pytest does not collect
this file.  For each row the runner copies ``src/`` to a temporary
directory, checks that the old text occurs exactly once in the module and
replaces it, checks that a child imports ``lcfoliage`` from the copy, and
runs the row's pytest arguments in a child with the copy on
``PYTHONPATH``.  Pytest's exit status 1 (tests failed) counts as killed, 0
as survived, and anything else as an error.  The runner prints one line per
row and exits 1 unless every row ends as the table expects.  The no-op row
must survive: it shows that the runner really runs the tests it names.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAST = ["-m", "not slow"]

# (module under src/lcfoliage/, exact old text, new text, pytest arguments, expected outcome)
MUTANTS = [
    # keeping the greatest leaf in place of the least changes canonical keys
    # only on types whose search tree has leaves of distinct keys
    ("canonical.py", "bits < best[0]", "bits > best[0]", [*FAST, "tests/test_canonical.py"], "killed"),
    # with an empty flip table the lifted move leaves the twin parts next to
    # the touched part unflipped
    (
        "foliage.py",
        "_TWIN_FLIP = {PartType.K: PartType.D, PartType.D: PartType.K}",
        "_TWIN_FLIP = {}",
        [*FAST, "tests/test_foliage.py", "-k", "lifted"],
        "killed",
    ),
    # a non-AL part may hold an axil: the walk then refuses K3 with axil 0
    # only at its closing count, with another message
    (
        "foliage.py",
        "elif not axils.isdisjoint(members):",
        "elif False:",
        ["tests/test_foliage.py::test_every_reader_refuses_a_representation_no_graph_has"],
        "killed",
    ),
    ("foliage.py", "_TWIN_FLIP = {", "_TWIN_FLIP = {", [*FAST, "tests/test_foliage.py", "-k", "lifted"], "survived"),
]


def run_mutant(module: str, old: str, new: str, pytest_args: list[str]) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
        path = copy / "lcfoliage" / module
        text = path.read_text()
        count = text.count(old)
        if count != 1:
            raise SystemExit(f"{module}: the old text occurs {count} times, not once: {old!r}")
        path.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(copy), os.environ.get("PYTHONPATH", "")]))
        where = subprocess.run(
            [sys.executable, "-c", "import lcfoliage; print(lcfoliage.__file__)"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if Path(where).resolve() != (copy / "lcfoliage" / "__init__.py").resolve():
            raise SystemExit(f"the child imported lcfoliage from {where}, not from the copy")
        status = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *pytest_args],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        ).returncode
    return {1: "killed", 0: "survived"}.get(status, f"error (pytest exit {status})")


def main() -> int:
    failed = 0
    for module, old, new, pytest_args, expected in MUTANTS:
        outcome = run_mutant(module, old, new, pytest_args)
        ok = outcome == expected
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {outcome}, expected {expected}: {module} {old!r} -> {new!r}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
