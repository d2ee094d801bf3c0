"""lcfoliage benchmark.

    python3 bench/run.py --workload {census,big_graphs,small_queries} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout.  Inputs are generated from the seed into
``.bench_work/`` and every output is checked.  The last line of standard
output is the result object; the line before it is the detail record, which
is also saved under ``.bench_work/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import checks
import inputs
import layertrace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(ROOT, "bench", "child.py")

TIME_LIMIT_S = 160  # every child is killed by then, so a run ends within 180 s
SETUP_LAUNCHES = 7

# op-group timings, each defined on one workload only; see README.md for
# why they are reported with the per-layer metrics
WORKLOAD_TIMINGS = (
    "census_s", "symmetry_s", "stats_s",
    "dense_s", "sparse_s", "weighted_s", "build_s",
    "query_p50_ms", "query_p90_ms",
)


class Run:
    """Children, failures and the deadline of one benchmark run."""

    def __init__(self, scratch: str) -> None:
        self.start = perf_counter()
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.ops: list[dict] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + os.pathsep + self.env.get("PYTHONPATH", "")

    def remaining(self) -> float:
        return max(1.0, TIME_LIMIT_S - (perf_counter() - self.start))

    def record(self, what: str, error: str | None) -> bool:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {error}")
        return error is None

    def child(self, argv: list[str]) -> tuple[str | None, str, float, float]:
        """Run one child; return (error, stdout, wall seconds, CPU seconds)."""
        cpu0 = _children_cpu()
        t0 = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable] + argv, capture_output=True, text=True,
                env=self.env, timeout=self.remaining(),
            )
        except subprocess.TimeoutExpired:
            return "killed at the time limit", "", perf_counter() - t0, _children_cpu() - cpu0
        wall = perf_counter() - t0
        cpu = _children_cpu() - cpu0
        self.ops.append({"argv": argv[-3:], "wall_s": wall, "cpu_s": cpu})
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            return f"exit code {proc.returncode}: {tail[0]}", proc.stdout, wall, cpu
        return None, proc.stdout, wall, cpu

    def cli(self, args: list[str], trace_out: str | None) -> tuple[str | None, str, float, float]:
        if trace_out is None:
            return self.child(["-m", "lcfoliage"] + args)
        return self.child([CHILD, "cli", trace_out, "--"] + args)

    def trace_file(self, name: str) -> str:
        return os.path.join(self.scratch, name + ".trace.json")


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _verdict(check, out) -> str | None:
    """Run an output check; output the check cannot even parse fails it."""
    try:
        return check(out)
    except (ValueError, IndexError, KeyError, TypeError, ArithmeticError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"


def _load(path: str) -> dict:
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def _read(path: str) -> str:
    with open(path, encoding="ascii") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# workloads; each runs one pass and returns its timings, plus the trace
# dumps of its children when traced

def census(run: Run, seed: int, traced: bool) -> tuple[dict, list[dict]]:
    """Three cold CLI commands, each in a fresh interpreter."""
    commands = [
        ("census_s", ["classes", "--n", "8"], lambda out: checks.check_census_count(out, 8)),
        ("symmetry_s", ["classes", "--n", "7", "--csv"], lambda out: checks.check_symmetry_csv(out, 7)),
        ("stats_s", ["stats", "--n", "7", "--csv"], lambda out: checks.check_stats(out, 7)),
    ]
    random.Random(f"census:{seed}").shuffle(commands)
    times, dumps = {"run_s": 0.0, "run_wall_s": 0.0}, []
    for name, args, check in commands:
        trace_out = run.trace_file(name) if traced else None
        error, out, wall, cpu = run.cli(args, trace_out)
        if run.record(" ".join(args), error or _verdict(check, out)) and traced:
            dumps.append(_load(trace_out))
        times[name] = wall
        times["run_s"] += cpu
        times["run_wall_s"] += wall
    return times, dumps


def big_graphs(run: Run, seed: int, traced: bool) -> tuple[dict, list[dict]]:
    """Single large graphs through the CLI graph6 path, plus one library op."""
    directory = os.path.join(WORK, "inputs", f"seed-{seed}", "big_graphs")
    files = inputs.big_graph_inputs(directory, seed)
    path = {k: os.path.join(directory, v["file"]) for k, v in files.items()}
    mats = {k: inputs.matrix_of_graph6(_read(path[k])) for k in ("dense", "sparse2000", "sparse4000", "path")}
    weights, d = checks.weights_of_text(_read(path["weighted"]))
    ops = [
        ("dense_s", "dense", ["foliage", path["dense"]], lambda out: checks.check_foliage_text(out, mats["dense"])),
        ("dense_s", "dense_lc", ["lc", "0", path["dense"]], lambda out: checks.check_lc(out, mats["dense"], 0)),
        ("sparse_s", "sparse2000", ["foliage", path["sparse2000"]], lambda out: checks.check_foliage_text(out, mats["sparse2000"])),
        ("sparse_s", "sparse4000", ["foliage", path["sparse4000"]], lambda out: checks.check_foliage_text(out, mats["sparse4000"])),
        ("sparse_s", "path", ["foliage", path["path"]], lambda out: checks.check_foliage_text(out, mats["path"])),
        ("weighted_s", "weighted", ["foliage", "--weighted", path["weighted"]], lambda out: checks.check_weighted_text(out, weights, d)),
    ]
    times = {"dense_s": 0.0, "sparse_s": 0.0, "weighted_s": 0.0, "build_s": 0.0, "run_s": 0.0, "run_wall_s": 0.0}
    dumps, partition_s = [], {}
    for group, name, args, check in ops:
        trace_out = run.trace_file(name) if traced else None
        error, out, wall, cpu = run.cli(args, trace_out)
        if run.record(" ".join(args[:-1] + [name]), error or _verdict(check, out)) and traced:
            dump = _load(trace_out)
            dumps.append(dump)
            partition_s[name] = dump["spans"]["foliage.foliage_partition"][2]
        times[group] += wall
        times["run_s"] += cpu
        times["run_wall_s"] += wall

    text_out = os.path.join(run.scratch, "build.g6")
    trace_out = run.trace_file("build") if traced else None
    error, out, wall, cpu = run.child([CHILD, "build", path["dense"], text_out] + ([trace_out] if traced else []))
    if error is None and _read(text_out) != _read(path["dense"]):
        error = "Graph(n, rows) + encode_graph6 does not reproduce the input graph6"
    if run.record("build dense", error):
        times["build_s"] = json.loads(out)["build_s"]
        if traced:
            dumps.append(_load(trace_out))
    times["run_s"] += cpu
    times["run_wall_s"] += wall
    if traced:
        n1, n2 = inputs.SPARSE_NS
        times["foliage.sparse_slope"] = layertrace.loglog_slope(
            n1, partition_s.get(f"sparse{n1}", 0.0), n2, partition_s.get(f"sparse{n2}", 0.0)
        )
    return times, dumps


def small_queries(run: Run, seed: int, traced: bool, seconds: float) -> tuple[dict, list[dict]]:
    """Seeded library queries in one long-lived process, closed loop."""
    directory = os.path.join(WORK, "inputs", f"seed-{seed}", "small_queries")
    manifest = inputs.query_inputs(directory, seed)
    q_in = os.path.join(directory, manifest["queries"]["file"])
    passes = json.loads(_read(q_in))
    out = os.path.join(run.scratch, "queries.json")
    trace_out = run.trace_file("queries") if traced else None
    # a fixed pass count keeps the work, and the cache memory, the same on
    # every commit; two passes or more leave 17+ samples beyond p90
    n_passes = min(max(2, round(seconds / inputs.QUERY_PASS_SECONDS)), len(passes))
    error, _, _, _ = run.child([CHILD, "queries", q_in, out, str(n_passes)] + ([trace_out] if traced else []))
    if error is not None:
        run.record("small_queries worker", error)
        return {}, []
    doc = _load(out)
    rng = random.Random(f"checks:{seed}")
    for rec in doc["records"]:
        q = passes[rec["pass"]][rec["index"]]
        what = f"{q['kind']} n={q['n']} pass {rec['pass']} #{rec['index']}"
        err = rec["error"] or _verdict(lambda result: checks.check_query(q, result, rng), rec["result"])
        run.record(what, err)
    ms = [rec["ms"] for rec in doc["records"]]
    times = {
        "run_s": statistics.median(doc["pass_cpu_s"]),
        "run_wall_s": statistics.median(doc["pass_s"]),
        "query_p50_ms": statistics.median(ms),
        "query_p90_ms": statistics.quantiles(ms, n=10)[-1],
        "queries": len(ms),
        "passes": len(doc["pass_s"]),
    }
    return times, [_load(trace_out)] if traced else []


# ---------------------------------------------------------------------------

def setup_seconds(run: Run) -> float:
    """Median time from interpreter start to lcfoliage imported, over fresh launches."""
    walls = []
    for i in range(SETUP_LAUNCHES + 1):
        error, _, wall, _ = run.child(["-c", "import lcfoliage"])
        if error is not None:
            raise RuntimeError(f"cannot import lcfoliage from {SRC}: {error}")
        if i:  # the first launch also writes bytecode caches
            walls.append(wall)
    return statistics.median(walls)


def environment() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "lcfoliage", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def run_pass(workload: str, run: Run, seed: int, traced: bool, seconds: float):
    if workload == "census":
        return census(run, seed, traced)
    if workload == "big_graphs":
        return big_graphs(run, seed, traced)
    return small_queries(run, seed, traced, seconds)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["census", "big_graphs", "small_queries"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "lcfoliage", "__init__.py")):
        print(f"error: no lcfoliage sources under {SRC}", file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = os.path.join(WORK, "scratch", tag)
    os.makedirs(scratch, exist_ok=True)
    run = Run(scratch)
    detail: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "environment": env}

    if args.trace == 0:
        setup_s = setup_seconds(run)
        times, _ = run_pass(args.workload, run, args.seed, False, args.seconds)
        values = {
            "setup_s": setup_s,
            "run_s": times.get("run_s", 0.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
    else:
        # the same pass untraced, then traced; small_queries splits its time
        share = args.seconds / 2 if args.workload == "small_queries" else args.seconds
        times, _ = run_pass(args.workload, run, args.seed, False, share)
        traced, dumps = run_pass(args.workload, run, args.seed, True, share)
        merged = layertrace.merge(dumps)
        values = layertrace.layer_metrics(merged)
        values["foliage.sparse_slope"] = traced.get("foliage.sparse_slope", 0.0)
        base = times.get("run_s", 0.0)
        values["trace.overhead_frac"] = traced.get("run_s", 0.0) / base - 1 if base else 0.0
        for name in WORKLOAD_TIMINGS:
            values[name] = times.get(name, 0.0)
        values["failed_frac"] = run.failed / max(run.attempted, 1)
        detail.update(traced_times=traced, spans=merged["spans"], counters=merged["counters"])

    env["loadavg_1m_end"] = os.getloadavg()[0]
    detail.update(
        times=times, ops=run.ops, attempted=run.attempted, failed=run.failed, failures=run.failures,
        inputs=_manifests(args.seed, args.workload),
    )
    result = {
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    detail["result"] = result
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", tag + ".json"), "w", encoding="ascii") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


def _manifests(seed: int, workload: str) -> dict | None:
    path = os.path.join(WORK, "inputs", f"seed-{seed}", workload, "manifest.json")
    return _load(path) if os.path.exists(path) else None


if __name__ == "__main__":
    sys.exit(main())
