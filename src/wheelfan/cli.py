"""Command-line front end.

Subcommands: count, resist, bijection {forward,inverse,audit}, enumerate,
verify, oeis.  Exit codes: 0 success, 1 verification mismatch, 2 usage or
domain error.  All numbers print in plain decimal; rationals print as p/q.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bijection, formulas, kirchhoff, verify
from .enumeration import DEFAULT_ENUM_CAP, enum_arc_forests, enum_spanning_trees, enum_two_forests
from .graphs import LabeledGraph, format_edge_list, make_fan, make_wheel, parse_edge_list
from .report import BFile, format_fraction


def _parse_graph(spec: str) -> tuple[str, int, LabeledGraph]:
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"bad graph spec {spec!r}; expected wheel:N, fan:M or file:PATH")
    if kind == "wheel":
        n = _parse_int(rest, "rim size")
        return "wheel", n, make_wheel(n)
    if kind == "fan":
        m = _parse_int(rest, "path size")
        return "fan", m, make_fan(m)
    if kind == "file":
        g = parse_edge_list(Path(rest).read_text())
        return "file", g.vertex_count, g
    raise ValueError(f"unknown graph kind {kind!r}; expected wheel, fan or file")


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad {what} {text!r}") from None


def _parse_pair(text: str, g: LabeledGraph) -> tuple[int, int]:
    """Two distinct vertices of g, checked before any route runs."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"bad vertex pair {text!r}; expected A,B")
    u, v = _parse_int(parts[0], "vertex"), _parse_int(parts[1], "vertex")
    if u == v:
        raise ValueError("the two vertices must be distinct")
    for w in (u, v):
        if not 0 <= w < g.vertex_count:
            raise ValueError(f"vertex {w} out of range")
    return u, v


def _parse_inline_edges(text: str) -> list[tuple[int, int]]:
    edges = []
    for chunk in text.split(","):
        ends = chunk.split("-")
        if len(ends) != 2:
            raise ValueError(f"bad edge {chunk!r}; expected A-B")
        edges.append((_parse_int(ends[0], "vertex"), _parse_int(ends[1], "vertex")))
    return edges


def _render_edges(edges) -> str:
    return " ".join(f"{a}-{b}" for a, b in sorted(edges))


def _emit_methods(values: dict[str, object]) -> int:
    for name, value in values.items():
        print(f"{name}: {value}")
    if len(set(map(str, values.values()))) > 1:
        print("MISMATCH: methods disagree")
        return 1
    return 0


def cmd_count(args) -> int:
    kind, size, g = _parse_graph(args.graph)
    if args.object == "trees":
        compute = {
            "formula": lambda: (
                formulas.trees_wheel(size) if kind == "wheel" else formulas.trees_fan(size)
            ),
            "minor": lambda: kirchhoff.count_spanning_trees(g),
            "enum": lambda: len(enum_spanning_trees(g, cap=args.enum_cap)),
        }
        formula_ok = kind in ("wheel", "fan")
    else:
        if not args.separate:
            raise ValueError("count forests requires --separate A,B")
        u, v = _parse_pair(args.separate, g)
        if kind == "wheel" and 0 in (u, v):
            closed = lambda: formulas.forests_sep_center(size)
            formula_ok = True
        elif kind == "wheel":
            closed = lambda: formulas.forests_separating(formulas.RimPair(size, u, v))
            formula_ok = True
        else:
            closed = lambda: None
            formula_ok = False
        compute = {
            "formula": closed,
            "minor": lambda: kirchhoff.count_two_forests(g, u, v),
            "enum": lambda: len(enum_two_forests(g, u, v, cap=args.enum_cap)),
        }
    if args.method == "all":
        values = {}
        if formula_ok:
            values["formula"] = compute["formula"]()
        values["minor"] = compute["minor"]()
        if g.vertex_count <= args.enum_cap:
            values["enum"] = compute["enum"]()
        return _emit_methods(values)
    if args.method == "formula" and not formula_ok:
        raise ValueError("no closed form for this graph; use --method minor or enum")
    print(compute[args.method]())
    return 0


def cmd_resist(args) -> int:
    kind, size, g = _parse_graph(args.graph)
    u, v = _parse_pair(args.pair, g)
    if kind == "wheel" and 0 in (u, v):
        closed = lambda: formulas.resistance_center(size)
        formula_ok = True
    elif kind == "wheel":
        closed = lambda: formulas.resistance_rim(size, formulas.RimPair(size, u, v).k)
        formula_ok = True
    else:
        closed = lambda: None
        formula_ok = False
    if args.method == "all":
        values = {}
        if formula_ok:
            values["formula"] = format_fraction(closed())
        values["minor"] = format_fraction(kirchhoff.effective_resistance(g, u, v))
        return _emit_methods(values)
    if args.method == "formula":
        if not formula_ok:
            raise ValueError("no closed form for this graph; use --method minor")
        print(format_fraction(closed()))
    else:
        print(format_fraction(kirchhoff.effective_resistance(g, u, v)))
    return 0


def _bijection_input(args, expect: str) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Shared edge intake for forward/inverse.  Returns (rim size, edges)."""
    if bool(args.edges) == bool(args.file):
        raise ValueError("supply exactly one of --edges or --file")
    if args.edges:
        if args.n is None:
            raise ValueError("--edges needs --n to fix the rim size")
        return args.n, tuple(_parse_inline_edges(args.edges))
    g = parse_edge_list(Path(args.file).read_text())
    # a wheel forest file carries n+1 vertices, a fan tree file carries n
    derived = g.vertex_count - 1 if expect == "forest" else g.vertex_count
    if args.n is not None and args.n != derived:
        raise ValueError(f"--n {args.n} disagrees with the file's vertex count (implies {derived})")
    return derived, g.edges


def cmd_bijection(args) -> int:
    if args.direction == "audit":
        rep = bijection.fiber_report(args.n, cap=args.enum_cap)
        for line in rep.render_lines():
            print(line)
        return 0
    if args.direction == "forward":
        n, edges = _bijection_input(args, "forest")
        image = bijection.forward(bijection.WheelForest.from_edges(n, edges))
        print(_render_edges(image.edges))
    else:
        n, edges = _bijection_input(args, "tree")
        tree = bijection.FanTree.from_edges(n - 1, edges)
        print(_render_edges(bijection.inverse(tree, n).edges))
    return 0


def cmd_enumerate(args) -> int:
    kind, size, g = _parse_graph(args.graph)
    if args.object == "trees":
        blocks = enum_spanning_trees(g, cap=args.enum_cap)
    elif args.object == "forests":
        if not args.separate:
            raise ValueError("enumerate forests requires --separate A,B")
        u, v = _parse_pair(args.separate, g)
        blocks = [rec.edges for rec in enum_two_forests(g, u, v, cap=args.enum_cap)]
    else:
        if kind != "wheel":
            raise ValueError("enumerate tau requires --graph wheel:N")
        blocks = [rec.edges for rec in enum_arc_forests(size, cap=args.enum_cap)]
    sys.stdout.write("\n".join(format_edge_list(g.vertex_count, b) for b in blocks))
    return 0


def cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    report = verify.run_suites(names, args.max_n, args.enum_cap)
    for line in report.render_lines():
        print(line)
    return 0 if report.all_ok else 1


# name -> (offset, per-index value, description)
SEQUENCES = {
    "wheel-trees": (3, formulas.trees_wheel, "spanning trees of the wheel, l(2n)-2"),
    "fan-trees": (1, formulas.trees_fan, "spanning trees of the fan, f(2n)"),
    "sep-adjacent": (
        3,
        formulas.forests_sep_adjacent,
        "wheel forests separating two adjacent rim vertices, 2(f(2n-1)-1)",
    ),
    "sep-dist2": (
        4,
        formulas.forests_sep_dist2,
        "wheel forests separating rim vertices at cycle distance 2, 2(l(2n-2)-3)",
    ),
    "sep-center": (
        3,
        formulas.forests_sep_center,
        "wheel forests separating a rim vertex from the center, f(2n)",
    ),
}


def cmd_oeis(args) -> int:
    offset, value_at, description = SEQUENCES[args.sequence]
    if args.max_n < offset:
        raise ValueError(f"--max-n must be at least the offset {offset} for {args.sequence}")
    rows = tuple((i, value_at(i)) for i in range(offset, args.max_n + 1))
    comments = () if args.bfile else (f"{args.sequence}: {description}; offset {offset}",)
    sys.stdout.write(BFile(offset, rows).render(comments))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wheelfan",
        description="exact spanning-tree and two-forest toolkit for wheel and fan graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count spanning trees or separating two-forests")
    p.add_argument("object", choices=["trees", "forests"])
    p.add_argument("--graph", required=True, help="wheel:N, fan:M or file:PATH")
    p.add_argument("--separate", help="vertex pair A,B for forests")
    p.add_argument("--method", choices=["formula", "minor", "enum", "all"], default="minor")
    p.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP)
    p.set_defaults(run=cmd_count)

    p = sub.add_parser("resist", help="exact effective resistance between two vertices")
    p.add_argument("--graph", required=True)
    p.add_argument("--pair", required=True, help="vertex pair A,B")
    p.add_argument("--method", choices=["formula", "minor", "all"], default="minor")
    p.set_defaults(run=cmd_resist)

    p = sub.add_parser("bijection", help="map wheel forests to fan trees and back")
    dirs = p.add_subparsers(dest="direction", required=True)
    for name in ("forward", "inverse"):
        q = dirs.add_parser(name)
        q.add_argument("--n", type=int, help="rim size of the wheel")
        q.add_argument("--edges", help="inline edges A-B,C-D,...")
        q.add_argument("--file", help="edge-list file")
        q.set_defaults(run=cmd_bijection)
    q = dirs.add_parser("audit")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP)
    q.set_defaults(run=cmd_bijection)

    p = sub.add_parser("enumerate", help="list trees, forests or the arc-forest family")
    p.add_argument("object", choices=["trees", "forests", "tau"])
    p.add_argument("--graph", required=True)
    p.add_argument("--separate")
    p.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP)
    p.set_defaults(run=cmd_enumerate)

    p = sub.add_parser("verify", help="run the cross-validation suites")
    p.add_argument("--suite", default="all", help="identities, trees, forests, resistance, bijection, tau or all")
    p.add_argument("--max-n", type=int, default=10)
    p.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("oeis", help="emit b-file rows for the counting sequences")
    p.add_argument("--sequence", required=True, choices=sorted(SEQUENCES))
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--bfile", action="store_true", help="rows only, no comment header")
    p.set_defaults(run=cmd_oeis)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
