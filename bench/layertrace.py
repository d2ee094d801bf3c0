"""Per-layer spans recorded from outside the program.

``install`` wraps every public function of the traced ``lcfoliage`` modules,
plus the two validating constructors, and rebinds each wrapper in every
module namespace that holds the original, which is where callers look the
function up (``lcfoliage.orbits.canonical_form`` and so on).  Nothing in the
package itself changes.

Each span adds to three sums per name: calls, inclusive time of the
outermost (non-recursive) entries, and self time, which is the span minus
the time of the traced spans it covers.  Spans stay in memory and ``dump``
writes the sums once the traced process is done.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
from time import perf_counter

LAYERS = ("cli", "graph6", "graph", "foliage", "gf2", "entanglement", "canonical", "orbits")


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self._child = [0.0]  # covered child time of each open span
        self._depth: dict[str, int] = {}

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, before=None, after=None):
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        child = self._child
        depth = self._depth
        depth[name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            outer = depth[name] == 0
            depth[name] += 1
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                covered = child.pop()
                child[-1] += dt
                depth[name] -= 1
                rec[0] += 1
                rec[2] += dt - covered
                if outer:
                    rec[1] += dt
            if after is not None:
                after(result, outer)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def _hooks(tracer: Tracer) -> dict[str, tuple]:
    """Counters taken at the layer boundaries: name -> (before, after)."""

    seen: set[tuple] = set()

    def canonical_seen(args) -> None:
        g = args[0]
        key = (g.n, g.rows)
        if key in seen:
            tracer.count("canonical.repeats", 1)
        else:
            seen.add(key)

    def text_in(args) -> None:
        tracer.count("graph6.bytes", len(args[0]))

    def text_out(result, outer) -> None:
        tracer.count("graph6.bytes", len(result))

    def types_out(result, outer) -> None:
        if outer:
            tracer.count("orbits.types", len(result))

    def members_out(result, outer) -> None:
        tracer.count("orbits.orbit_members", result.labeled_size)

    return {
        "canonical.canonical_form": (canonical_seen, None),
        "graph6.decode_graph6": (text_in, None),
        "graph6.decode_weighted": (text_in, None),
        "graph6.encode_graph6": (None, text_out),
        "graph6.encode_weighted": (None, text_out),
        "orbits.nonisomorphic_graphs": (None, types_out),
        "orbits.lc_orbit": (None, members_out),
    }


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer and rebind the wrappers."""
    hooks = _hooks(tracer)
    wrapped: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
    for layer in LAYERS:
        mod = importlib.import_module("lcfoliage." + layer)
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            before, after = hooks.get(name, (None, None))
            wrapped[id(obj)] = (obj, tracer.wrap(name, obj, before, after))
    for modname, mod in list(sys.modules.items()):
        if modname != "lcfoliage" and not modname.startswith("lcfoliage."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    graph = importlib.import_module("lcfoliage.graph")
    for cls in (graph.Graph, graph.WeightedGraph):
        cls.__init__ = tracer.wrap("graph.validate", cls.__init__)


# ---------------------------------------------------------------------------
# per-layer metrics from the dumped sums of one or more traced processes

def merge(dumps: list[dict]) -> dict:
    spans: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    for doc in dumps:
        for name, rec in doc["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += rec[i]
        for name, value in doc["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {"spans": spans, "counters": counters}


def _calls(spans, *names) -> int:
    return int(sum(spans.get(n, (0, 0, 0))[0] for n in names))


def _self(spans, *names) -> float:
    return sum(spans.get(n, (0, 0, 0))[2] for n in names)


def _layer_self(spans, layer: str, exclude: tuple[str, ...] = ()) -> float:
    return sum(
        rec[2]
        for name, rec in spans.items()
        if name.split(".", 1)[0] == layer and name not in exclude
    )


def layer_metrics(doc: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass (all times are self times)."""
    s, c = doc["spans"], doc["counters"]
    canon_calls = _calls(s, "canonical.canonical_form")
    return {
        "canonical.calls": canon_calls,
        "canonical.self_s": _layer_self(s, "canonical"),
        "canonical.repeat_frac": c.get("canonical.repeats", 0) / canon_calls if canon_calls else 0.0,
        "orbits.enumerate_s": _self(s, "orbits.nonisomorphic_graphs"),
        "orbits.types": int(c.get("orbits.types", 0)),
        "orbits.union_s": _self(s, "orbits.lc_classes"),
        "orbits.orbit_s": _self(s, "orbits.lc_orbit"),
        "orbits.orbit_members": int(c.get("orbits.orbit_members", 0)),
        "orbits.aut_s": _self(s, "orbits.lc_automorphism_group"),
        "foliage.partition_calls": _calls(s, "foliage.foliage_partition"),
        "foliage.partition_s": _self(s, "foliage.foliage_partition"),
        "foliage.quotient_s": _self(
            s, "foliage.foliage_graph", "foliage.foliage_representation", "foliage.saturation"
        ),
        "foliage.format_s": _self(
            s, "foliage.partition_text", "foliage.representation_text", "foliage.representation_json"
        ),
        "graph6.decode_s": _self(s, "graph6.decode_graph6", "graph6.decode_weighted"),
        "graph6.encode_s": _self(s, "graph6.encode_graph6", "graph6.encode_weighted"),
        "graph6.bytes": int(c.get("graph6.bytes", 0)),
        "graph.validate_s": _self(s, "graph.validate"),
        "graph.local_complement_calls": _calls(s, "graph.local_complement"),
        "graph.local_complement_s": _self(s, "graph.local_complement"),
        "graph.components_s": _self(s, "graph.connected_components"),
        "gf2.rank_calls": _calls(s, "gf2.rank_of_rows"),
        "gf2.rank_s": _self(s, "gf2.gf2_rank", "gf2.rank_of_rows"),
        "gf2.submatrix_s": _self(s, "gf2.submatrix"),
        "entanglement.entropy_calls": _calls(
            s, "entanglement.entropy", "entanglement.entropy_via_foliage"
        ),
        "entanglement.self_s": _layer_self(
            s, "entanglement", exclude=("entanglement.statevector_entropy_oracle",)
        ),
        "entanglement.oracle_s": _self(s, "entanglement.statevector_entropy_oracle"),
        "cli.self_s": _layer_self(s, "cli"),
    }


def loglog_slope(n1: int, t1: float, n2: int, t2: float) -> float:
    """Exponent k in t ~ n^k between two sizes."""
    if t1 <= 0 or t2 <= 0:
        return 0.0
    return math.log(t2 / t1) / math.log(n2 / n1)
