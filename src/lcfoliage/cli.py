"""Command-line interface.

Graphs come in as graph6 (or the weighted text format), results go out as
plain deterministic text; tabular reports offer ``--csv``.  Exit status is 0
on success; 1, silently, when the reader closes stdout (``| head``); 2 on a
usage error, bad input, or an unwritable output path or stdout; 3 when a
size limit trips or the computation runs out of memory; and 130, with one
``error: interrupted`` line, on SIGINT (Ctrl-C).  ``construct`` exits 2
before it builds anything when the part sizes sum above graph6's limit.

Limits, none of which can be lifted, each checked before the work it bounds:

- for ``orbit`` and ``aut``, 2^20 labelled orbit members, and fewer from
  n = 17 on, so that they hold at most 2^28 packed bits (n^2 each);
- an ``aut`` group order <= 9!, checked before the orbit and as the group
  is listed;
- for ``classes`` and ``stats``, 2^20 isomorphism types of orders 1 to n
  (OEIS A001349 and A000088), which admits n <= 9;
- ``schmidt``: 2^26 lane bytes, n <= 24;
- ``uniformity``: 2^20 vertex sets read, which every n <= 20 fits;
- weighted text n <= 8192;
- the canonical search behind ``orbit`` and ``aut``, run before the
  orbit: n <= 800;
- ``bound --n`` <= 240000.
"""

from __future__ import annotations

import argparse
import sys

# each command imports what it calls when it runs, so a command loads only
# the modules it uses
from .graph import (
    Graph,
    SizeGuardError,
    connected_components,
    induced_subgraph,
    iter_bits,
    local_complement,
    qudit_scale,
    qudit_star,
)

_CSV_HEADER = "class_id,n,partition,aut_in,aut_out_upper,aut_order,L,C,I"


def _read_source(args: argparse.Namespace) -> str:
    if getattr(args, "g6", None) is not None:
        return args.g6
    path = args.input
    if path is None:
        raise ValueError("no input given (pass a path, '-', or --g6 TEXT)")
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _write(path: str | None, text: str) -> None:
    """Write ``text`` to the file ``path``, or to stdout when ``path`` is None."""
    try:
        if path is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)
    except OSError as exc:
        if path is None:
            import os

            # what was not written stays buffered: point the descriptor at the
            # null device so that the flush at exit does not fail a second time
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
            if isinstance(exc, BrokenPipeError):
                sys.exit(1)  # the reader went away, as under ``| head``: no error line
        raise ValueError(f"cannot write {'stdout' if path is None else path}: {exc}") from exc


def _load_graph(args: argparse.Namespace) -> Graph:
    from .graph6 import decode_graph6

    return decode_graph6(_read_source(args))


def _subset_mask(args: argparse.Namespace, n: int) -> int:
    if args.mask is not None:
        mask = int(args.mask, 0)
        if mask < 0:
            raise ValueError("subset mask must be nonnegative")
    else:
        mask = 0
        for chunk in args.subset.split(","):
            chunk = chunk.strip()
            if chunk == "":
                continue
            try:
                v = int(chunk)
            except ValueError as exc:
                raise ValueError(f"bad subset entry {chunk!r}") from exc
            if not (0 <= v < n):
                raise ValueError(f"subset vertex {v} out of range")
            mask |= 1 << v
    if mask >= 1 << n:
        raise ValueError("subset mask has bits outside the vertex range")
    return mask


def _set_str(mask: int) -> str:
    return "{" + ",".join(str(v) for v in iter_bits(mask)) + "}"


def _cycle_str(perm: tuple[int, ...]) -> str:
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            continue
        cyc = [start]
        seen[start] = True
        v = perm[start]
        while v != start:
            cyc.append(v)
            seen[v] = True
            v = perm[v]
        out.append("(" + " ".join(str(x) for x in cyc) + ")")
    return "".join(out) if out else "()"


def _cmd_foliage(args: argparse.Namespace) -> str:
    from .foliage import (
        foliage_partition,
        foliage_representation,
        partition_text,
        representation_json,
        representation_text,
    )
    from .graph6 import decode_weighted

    if args.weighted:
        g = decode_weighted(_read_source(args))
        return partition_text(foliage_partition(g)) + "\n"
    rep = foliage_representation(_load_graph(args))
    if args.json:
        return representation_json(rep) + "\n"
    return representation_text(rep) + "\n"


def _cmd_lc(args: argparse.Namespace) -> str:
    from .graph6 import encode_graph6

    g = _load_graph(args)
    return encode_graph6(local_complement(g, args.vertex)) + "\n"


def _cmd_qlc(args: argparse.Namespace) -> str:
    from .graph6 import decode_weighted, encode_weighted

    g = decode_weighted(_read_source(args))
    if args.op == "star":
        out = qudit_star(g, args.vertex, args.scalar)
    else:
        out = qudit_scale(g, args.vertex, args.scalar)
    return encode_weighted(out)


def _cmd_normal_form(args: argparse.Namespace) -> str:
    from .foliage import normal_form
    from .graph6 import encode_graph6

    return encode_graph6(normal_form(_load_graph(args))) + "\n"


def _chain_str(chain: tuple[int, ...]) -> str:
    return "[" + ",".join(str(x) for x in chain) + "]"


def _cmd_saturation(args: argparse.Namespace) -> str:
    from .foliage import saturation

    g = _load_graph(args)
    sat = saturation(g)
    lines = [f"time={sat.time} size={sat.size} chain={_chain_str(sat.chain)}"]
    comps = connected_components(g)
    if len(comps) > 1:
        for comp in comps:
            s = saturation(induced_subgraph(g, comp))
            lines.append(
                f"component={_set_str(comp)} time={s.time} size={s.size} "
                f"chain={_chain_str(s.chain)}"
            )
    return "\n".join(lines) + "\n"


def _cmd_entropy(args: argparse.Namespace) -> str:
    from .entanglement import entropy

    g = _load_graph(args)
    mask = _subset_mask(args, g.n)
    return f"subset={_set_str(mask)} entropy={entropy(g, mask)}\n"


def _cmd_schmidt(args: argparse.Namespace) -> str:
    from .entanglement import schmidt_vector

    g = _load_graph(args)
    return schmidt_vector(g).to_csv()


def _cmd_uniformity(args: argparse.Namespace) -> str:
    from .entanglement import uniformity

    g = _load_graph(args)
    rep = uniformity(g)
    witness = "none" if rep.witness is None else _set_str(rep.witness)
    return f"k_max={rep.k_max} witness={witness}\n"


def _cmd_orbit(args: argparse.Namespace) -> str:
    from .graph6 import encode_graph6
    from .orbits import lc_orbit

    g = _load_graph(args)
    rep = lc_orbit(g)
    if args.members is not None:
        lines = "".join(
            encode_graph6(h) + "\n" for h in rep.member_graphs()
        )
        if args.members in ("-", ""):  # as -o "", an empty path is stdout
            return lines + f"labeled={rep.labeled_size} classes={rep.class_size}\n"
        _write(args.members, lines)
    return f"labeled={rep.labeled_size} classes={rep.class_size}\n"


def _cmd_aut(args: argparse.Namespace) -> str:
    from .orbits import lc_automorphism_group

    g = _load_graph(args)
    rep = lc_automorphism_group(g)
    gens = ",".join(_cycle_str(p) for p in rep.generators)
    return (
        f"order={rep.order} aut_in={rep.aut_in_order} "
        f"aut_out_upper={rep.aut_out_upper_order} L={rep.labeled_size} "
        f"C={rep.class_size} interplay={float(rep.interplay):.2f}\n"
        f"generators=[{gens}]\n"
    )


def _cmd_classes(args: argparse.Namespace) -> str:
    from .orbits import lc_classes, symmetry_table

    connected = not args.all
    if args.csv:
        rows = symmetry_table(args.n, connected_only=connected)
        lines = [_CSV_HEADER]
        for row in rows:
            lines.append(",".join(str(x) for x in row))
        return "\n".join(lines) + "\n"
    census = lc_classes(args.n, connected_only=connected)
    if args.reps is not None:
        from .graph6 import encode_graph6

        lines = "".join(
            encode_graph6(cls.representative) + "\n" for cls in census.classes
        )
        if args.reps in ("-", ""):  # as -o "", an empty path is stdout
            return lines
        _write(args.reps, lines)
    return f"{census.count}\n"


def _cmd_stats(args: argparse.Namespace) -> str:
    from .orbits import saturation_stats

    row = saturation_stats(args.n)
    t, s, r, f = row.two_decimals()
    if args.csv:
        return f"{t},{s},{r},{f}\n"
    return f"time={t} size={s} reducible={r} fully_reducible={f}\n"


def _cmd_bound(args: argparse.Namespace) -> str:
    from .orbits import class_lower_bound, partition_number

    return f"p={partition_number(args.n)} bound={class_lower_bound(args.n)}\n"


def _cmd_construct(args: argparse.Namespace) -> str:
    from .graph6 import _MAX_G6_N, encode_graph6
    from .orbits import graph_for_partition

    try:
        sizes = [int(x) for x in args.partition.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad partition {args.partition!r}") from exc
    if sum(sizes) > _MAX_G6_N:
        raise ValueError(f"part sizes sum to {sum(sizes)}, but graph6 holds at most n = {_MAX_G6_N}")
    return encode_graph6(graph_for_partition(sizes)) + "\n"


def _add_graph_input(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", nargs="?", help="path to a graph file, or - for stdin")
    sub.add_argument("--g6", help="inline graph text instead of a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcfoliage",
        description="Foliage partitions and local-complementation invariants of graph states",
    )
    parser.add_argument("-o", "--output", help="write the result to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("foliage", help="foliage partition / representation")
    _add_graph_input(p)
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--weighted", action="store_true", help="input is weighted text")
    grp.add_argument("--json", action="store_true", help="structured output")
    p.set_defaults(func=_cmd_foliage)

    p = sub.add_parser("lc", help="local complementation at a vertex")
    p.add_argument("vertex", type=int)
    _add_graph_input(p)
    p.set_defaults(func=_cmd_lc)

    p = sub.add_parser("qlc", help="qudit local-complementation steps")
    p.add_argument("op", choices=["star", "scale"])
    p.add_argument("vertex", type=int)
    p.add_argument("scalar", type=int)
    _add_graph_input(p)
    p.set_defaults(func=_cmd_qlc)

    p = sub.add_parser("normal-form", help="complement away every axil")
    _add_graph_input(p)
    p.set_defaults(func=_cmd_normal_form)

    p = sub.add_parser("saturation", help="iterate the foliage graph to a fixed point")
    _add_graph_input(p)
    p.set_defaults(func=_cmd_saturation)

    p = sub.add_parser("entropy", help="bipartite entropy of a subset")
    _add_graph_input(p)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--subset", help="comma-separated vertices, e.g. 0,2")
    grp.add_argument("--mask", help="subset bitmask (int literal)")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("schmidt", help="entropies of all bipartitions (CSV)")
    _add_graph_input(p)
    p.set_defaults(func=_cmd_schmidt)

    p = sub.add_parser("uniformity", help="largest k with all k-subsets maximal")
    _add_graph_input(p)
    p.set_defaults(func=_cmd_uniformity)

    p = sub.add_parser("orbit", help="labelled LC orbit and class size")
    _add_graph_input(p)
    p.add_argument("--members", help="write orbit members as graph6 to this path (- for stdout)")
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("aut", help="LC automorphism group report")
    _add_graph_input(p)
    p.set_defaults(func=_cmd_aut)

    p = sub.add_parser("classes", help="LC class census for a given order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--all", action="store_true", help="include disconnected graphs")
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--csv", action="store_true", help="per-class symmetry table")
    grp.add_argument("--reps", help="write class representatives as graph6 to this path")
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("stats", help="average saturation statistics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("bound", help="partition-count lower bound on classes")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("construct", help="graph realising given foliage part sizes")
    p.add_argument("--partition", required=True, help="comma-separated sizes, e.g. 2,3")
    p.set_defaults(func=_cmd_construct)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.func(args)
        _write(args.output or None, text)  # -o "" writes to stdout
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
