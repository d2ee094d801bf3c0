"""Benchmark child processes: a traced CLI call, the build op, the query loop.

    python3 bench/child.py cli TRACE_OUT -- CLI_ARGS...
    python3 bench/child.py build GRAPH6_IN TEXT_OUT [TRACE_OUT]
    python3 bench/child.py queries QUERIES_IN RESULTS_OUT PASSES [TRACE_OUT]

Untraced CLI calls do not come here: the benchmark runs ``python3 -m
lcfoliage`` for those, as a user's shell would.  A trailing TRACE_OUT turns
tracing on; the wrappers go in after the inputs are decoded and before the
timed work starts.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter, process_time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import layertrace  # noqa: E402


def _tracer(path: str | None):
    if path is None:
        return None
    tracer = layertrace.Tracer()
    layertrace.install(tracer)
    return tracer


def run_cli(trace_out: str, argv: list[str]) -> int:
    import lcfoliage.cli

    tracer = _tracer(trace_out)
    rc = lcfoliage.cli.main(argv)
    tracer.dump(trace_out)
    return rc


def run_build(g6_in: str, text_out: str, trace_out: str | None) -> int:
    """Time ``Graph(n, rows)`` plus ``encode_graph6`` on rows decoded here."""
    with open(g6_in, encoding="ascii") as fh:
        mat = inputs.matrix_of_graph6(fh.read())
    rows = inputs.rows_of_matrix(mat)
    import lcfoliage.graph
    import lcfoliage.graph6

    tracer = _tracer(trace_out)
    t0 = perf_counter()
    g = lcfoliage.graph.Graph(len(rows), rows)
    text = lcfoliage.graph6.encode_graph6(g)
    elapsed = perf_counter() - t0
    with open(text_out, "w", encoding="ascii") as fh:
        fh.write(text)
    if tracer is not None:
        tracer.dump(trace_out)
    print(json.dumps({"build_s": elapsed}))
    return 0


# ---------------------------------------------------------------------------
# small_queries: one long-lived process, closed loop, one query at a time

def _query(lf, kind: str, g, q: dict) -> dict:
    if kind == "lc_orbit":
        rep = lf.lc_orbit(g)
        return {"labeled": rep.labeled_size, "classes": rep.class_size}
    if kind == "lc_automorphism_group":
        rep = lf.lc_automorphism_group(g)
        return {
            "order": rep.order,
            "generators": [list(p) for p in rep.generators],
            "aut_in": rep.aut_in_order,
            "labeled": rep.labeled_size,
            "classes": rep.class_size,
        }
    if kind == "schmidt_vector":
        return {"values": lf.schmidt_vector(g).values.hex()}
    if kind == "uniformity":
        rep = lf.uniformity(g)
        return {"k_max": rep.k_max, "witness": rep.witness}
    if kind == "entropy_via_foliage":
        nf = lf.normal_form(g)
        return {"values": bytes(lf.entropy_via_foliage(nf, m) for m in range(1 << g.n)).hex()}
    if kind == "saturation":
        chain = lf.saturation(g).chain
        rep = lf.foliage_representation(g)
        return {
            "chain": list(chain),
            "parts": [list(p) for p in rep.partition.parts],
            "types": [t.value for t in rep.types],
            "axils": list(rep.axils),
            "edges": [list(e) for e in rep.quotient.edges()],
        }
    if kind == "statevector_entropy_oracle":
        return {
            "oracle": lf.statevector_entropy_oracle(g, q["mask"]),
            "entropy": lf.entropy(g, q["mask"]),
        }
    raise ValueError(f"unknown query kind {kind!r}")


def run_queries(q_in: str, out: str, n_passes: int, trace_out: str | None) -> int:
    with open(q_in, encoding="ascii") as fh:
        passes = json.load(fh)[:n_passes]
    import lcfoliage as lf

    graphs = [
        [lf.Graph(q["n"], inputs.rows_of_matrix(inputs.matrix_of_graph6(q["g6"]))) for q in p]
        for p in passes
    ]
    tracer = _tracer(trace_out)
    records = []
    pass_s, pass_cpu_s = [], []
    for p, (queries, gs) in enumerate(zip(passes, graphs)):
        t_pass, cpu_pass = perf_counter(), process_time()
        for i, (q, g) in enumerate(zip(queries, gs)):
            t0 = perf_counter()
            try:
                result = _query(lf, q["kind"], g, q)
                error = None
            except Exception as exc:  # a failed query is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            records.append(
                {"pass": p, "index": i, "ms": (perf_counter() - t0) * 1e3,
                 "result": result, "error": error}
            )
        pass_s.append(perf_counter() - t_pass)
        pass_cpu_s.append(process_time() - cpu_pass)
    if tracer is not None:
        tracer.dump(trace_out)
    with open(out, "w", encoding="ascii") as fh:
        json.dump({"pass_s": pass_s, "pass_cpu_s": pass_cpu_s, "records": records}, fh)
    return 0


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        return run_cli(rest[0], rest[rest.index("--") + 1 :])
    if mode == "build":
        return run_build(rest[0], rest[1], rest[2] if len(rest) > 2 else None)
    if mode == "queries":
        return run_queries(rest[0], rest[1], int(rest[2]), rest[3] if len(rest) > 3 else None)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
