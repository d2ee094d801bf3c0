"""Foliage partitions and local-complementation invariants of graph states.

Each public name is listed once, in ``_NAMES`` below, and each module reads
its ``__all__`` from it; ``__all__`` here is their sorted union.  Tests fail
on a listed name that its module does not define and on a public function
that neither README.md nor the CLI names.
Importing the package loads no submodule: the first use of a name imports
its module and keeps it here (PEP 562), so a command loads only what it calls.
"""

import importlib

__version__ = "0.1.0"

_NAMES = {
    "canonical": ("canonical_form", "canonical_key", "canonical_graph"),
    "entanglement": (
        "EntropyVector", "UniformityReport", "entropy", "schmidt_vector", "e_matrix",
        "entropy_via_foliage", "marginal_maximally_mixed", "uniformity",
        "statevector_entropy_oracle",
    ),
    "foliage": (
        "PartType", "FoliagePartition", "FoliageRepresentation", "SaturationReport",
        "vertices_related", "foliage_partition", "foliage_set", "foliage_graph",
        "foliage_representation", "reconstruct_graph", "lifted_local_complement", "normal_form",
        "saturation", "partition_text", "representation_text", "representation_json",
    ),
    "gf2": ("rank_of_rows",),
    "graph": (
        "Graph", "WeightedGraph", "SizeGuardError", "local_complement", "induced_subgraph",
        "qudit_star", "qudit_scale", "connected_components",
    ),
    "graph6": ("encode_graph6", "decode_graph6", "encode_weighted", "decode_weighted"),
    "orbits": (
        "OrbitReport", "AutReport", "LCClass", "ClassCensus", "SaturationStatsRow", "lc_orbit",
        "nonisomorphic_graphs", "lc_classes", "lc_automorphism_group", "aut_bounds",
        "saturation_stats", "symmetry_table", "partition_number", "class_lower_bound",
        "graph_for_partition",
    ),
}

_OWNER = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _NAMES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
