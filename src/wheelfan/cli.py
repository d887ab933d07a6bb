"""Command-line front end.

Subcommands: count, resist, bijection {forward,inverse,audit}, enumerate,
verify, oeis.  Exit codes: 0 success, 1 verification mismatch, 2 usage or
domain error, or output that cannot be written.  Integers print in full
decimal, however long; rationals as p/q.  count and resist answer from
verify.answer, which picks the routes --method names, and oeis from the rows
of verify.CLOSED_FORMS, the one table of closed forms the verify suites
check; this module only parses the query and prints.
It is the one front end: a b-file is `wheelfan oeis ... --bfile > FILE`.
Importing it runs verify, graphs, report and sequences, all that building
the parser needs; kirchhoff, enumeration, bijection and formulas run on the
first command that reads them, so a count on the minor route never loads the
brute-force or bijection layers.
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import sys
from itertools import islice
from pathlib import Path

from . import lazy_module, verify
from .graphs import (
    DEFAULT_ENUM_CAP, LabeledGraph, Refusal, _check_distinct, _check_vertices, _parse_int, format_edge_list, make_fan,
    make_wheel, parse_edge_list,
)
from .report import format_int, summary_line

# run on the first command that reads them, not when the parser is built
bijection, enumeration, kirchhoff = map(lazy_module, ("bijection", "enumeration", "kirchhoff"))


def _read_edge_list(path: str) -> LabeledGraph:
    """The graph in an edge-list file; text that will not decode, or a NUL in the path, is refused."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except ValueError as exc:
        raise Refusal(str(exc)) from None
    return parse_edge_list(text)


def _parse_graph(spec: str) -> tuple[str, int, LabeledGraph]:
    kind, sep, rest = spec.partition(":")
    # an empty path would read the working directory
    if not sep or (kind == "file" and not rest):
        raise Refusal(f"bad graph spec {spec!r}; expected wheel:N, fan:M or file:PATH")
    if kind == "wheel":
        n = _parse_int(rest, "rim size")
        return "wheel", n, make_wheel(n)
    if kind == "fan":
        m = _parse_int(rest, "path size")
        return "fan", m, make_fan(m)
    if kind == "file":
        g = _read_edge_list(rest)
        return "file", g.vertex_count, g
    raise Refusal(f"unknown graph kind {kind!r}; expected wheel, fan or file")


def _parse_pair(text: str, g: LabeledGraph) -> tuple[int, int]:
    """Two distinct vertices of g, checked before any route runs."""
    parts = text.split(",")
    if len(parts) != 2:
        raise Refusal(f"bad vertex pair {text!r}; expected A,B")
    u, v = _parse_int(parts[0], "vertex"), _parse_int(parts[1], "vertex")
    _check_distinct(u, v)
    _check_vertices(g.vertex_count, u, v)
    return u, v


def _parse_inline_edges(text: str) -> list[tuple[int, int]]:
    edges = []
    for chunk in text.split(","):
        ends = chunk.split("-")
        if len(ends) != 2:
            raise Refusal(f"bad edge {chunk!r}; expected A-B")
        edges.append((_parse_int(ends[0], "vertex"), _parse_int(ends[1], "vertex")))
    return edges


def _render_edges(edges) -> str:
    return " ".join(f"{a}-{b}" for a, b in edges)


def _separated_pair(args, g: LabeledGraph) -> tuple[int, int]:
    """The --separate pair of count forests and enumerate forests."""
    if not args.separate:
        raise Refusal(f"{args.command} forests requires --separate A,B")
    return _parse_pair(args.separate, g)


def _answer(args, quantity: str) -> int:
    """Run the routes verify.answer gives for --method, then print the one value,
    or with --method all each route's line, and MISMATCH with exit 1 if they differ."""
    kind, size, g = _parse_graph(args.graph)
    pair = None
    if quantity == "forests":
        pair = _separated_pair(args, g)
    elif quantity == "resist":
        pair = _parse_pair(args.pair, g)
    # resist has no --enum-cap, and no enum route to use one
    routes = verify.answer(kind, size, g, quantity, pair, args.method, getattr(args, "enum_cap", DEFAULT_ENUM_CAP))
    values = {name: route() for name, route in routes.items()}
    if args.method != "all":
        print(values[args.method])
        return 0
    for name, value in values.items():
        print(f"{name}: {value}")
    if len(set(values.values())) > 1:
        print("MISMATCH: methods disagree")
        return 1
    return 0


def cmd_count(args) -> int:
    return _answer(args, args.object)


def cmd_resist(args) -> int:
    return _answer(args, "resist")


def _bijection_input(args, expect: str) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Shared edge intake for forward/inverse.  Returns (rim size, edges)."""
    if bool(args.edges) == bool(args.file):
        raise Refusal("supply exactly one of --edges or --file")
    if args.edges:
        if args.n is None:
            raise Refusal("--edges needs --n to fix the rim size")
        return args.n, tuple(_parse_inline_edges(args.edges))
    g = _read_edge_list(args.file)
    # a wheel forest file carries n+1 vertices, a fan tree file carries n
    derived = g.vertex_count - 1 if expect == "forest" else g.vertex_count
    if args.n is not None and args.n != derived:
        raise Refusal(f"--n {args.n} disagrees with the file's vertex count (implies {derived})")
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


# how many blocks enumerate joins into one write
_WRITE_CHUNK = 512


def cmd_enumerate(args) -> int:
    kind, size, g = _parse_graph(args.graph)
    if args.object == "trees":
        blocks = enumeration.enum_spanning_trees(g, lambda: kirchhoff.count_spanning_trees(g), cap=args.enum_cap)
    elif args.object == "forests":
        u, v = _separated_pair(args, g)
        blocks = enumeration.enum_two_forests(g, u, v, lambda: kirchhoff.count_two_forests(g, u, v), cap=args.enum_cap)
    else:
        if kind != "wheel":
            raise Refusal("enumerate tau requires --graph wheel:N")
        blocks = enumeration.enum_arc_forest_edges(size, cap=args.enum_cap)
    # each block is a subsequence of g.edges in order, so its text is the
    # header and its edges' lines of g's own edge list, formatted once here
    header, *lines = format_edge_list(g.vertex_count, g.edges).splitlines(keepends=True)
    line = dict(zip(g.edges, lines))
    # a chunk of blocks per write: one joined string of every block can
    # exhaust memory, and one write per block costs more than the text
    blocks = iter(blocks)
    sep = "\n" + header
    for i, chunk in enumerate(iter(lambda: list(islice(blocks, _WRITE_CHUNK)), [])):
        text = sep.join(["".join(map(line.__getitem__, b)) for b in chunk])
        sys.stdout.write(("\n" if i else "") + header + text)
    return 0


def cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    checks = verify.run_suites(names, args.max_n, args.enum_cap)
    for check in checks:
        print(check.render())
    print(summary_line(checks))
    return 1 if any(check.ok is False for check in checks) else 0


def cmd_oeis(args) -> int:
    form = next(form for form in verify.CLOSED_FORMS if form.sequence == args.sequence)
    if args.max_n < form.low:
        raise Refusal(f"--max-n must be at least the offset {form.low} for {args.sequence}")
    if not args.bfile:
        sys.stdout.write(f"# {args.sequence}: {form.description}; offset {form.low}\n")
    # row by row: a long b-file never sits in memory whole
    for i in range(form.low, args.max_n + 1):
        sys.stdout.write(f"{i} {format_int(form(i))}\n")
    return 0


def _int_option(text: str) -> int:
    return _parse_int(text, "integer")


# argparse names the type by __name__ when it refuses a value: "invalid int value: 'x'"
_int_option.__name__ = "int"


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
    p.add_argument("--enum-cap", type=_int_option, default=DEFAULT_ENUM_CAP)

    p = sub.add_parser("resist", help="exact effective resistance between two vertices")
    p.add_argument("--graph", required=True)
    p.add_argument("--pair", required=True, help="vertex pair A,B")
    p.add_argument("--method", choices=["formula", "minor", "all"], default="minor")

    p = sub.add_parser("bijection", help="map wheel forests to fan trees and back")
    dirs = p.add_subparsers(dest="direction", required=True)
    for name in ("forward", "inverse"):
        q = dirs.add_parser(name)
        q.add_argument("--n", type=_int_option, help="rim size of the wheel")
        q.add_argument("--edges", help="inline edges A-B,C-D,...")
        q.add_argument("--file", help="edge-list file")
    q = dirs.add_parser("audit")
    q.add_argument("--n", type=_int_option, required=True)
    q.add_argument("--enum-cap", type=_int_option, default=DEFAULT_ENUM_CAP)

    p = sub.add_parser("enumerate", help="list trees, forests or the arc-forest family")
    p.add_argument("object", choices=["trees", "forests", "tau"])
    p.add_argument("--graph", required=True)
    p.add_argument("--separate")
    p.add_argument("--enum-cap", type=_int_option, default=DEFAULT_ENUM_CAP)

    p = sub.add_parser("verify", help="run the cross-validation suites")
    p.add_argument("--suite", default="all", help=", ".join(verify.SUITES) + " or all")
    p.add_argument("--max-n", type=_int_option, default=10)
    p.add_argument("--enum-cap", type=_int_option, default=DEFAULT_ENUM_CAP)

    p = sub.add_parser("oeis", help="emit b-file rows for the counting sequences")
    sequences = sorted(form.sequence for form in verify.CLOSED_FORMS if form.sequence)
    p.add_argument("--sequence", required=True, choices=sequences)
    p.add_argument("--max-n", type=_int_option, required=True)
    p.add_argument("--bfile", action="store_true", help="rows only, no comment header")
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every main call reuses, built on the first call, not on import."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command; may be called repeatedly in one process."""
    # argparse ignores a failed write of --help, so the parse writes into a
    # buffer and the help is written below, where a failed write exits 2
    out, sys.stdout = sys.stdout, io.StringIO()
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        args, code = None, int(exc.code) if exc.code else 0
    finally:
        printed, sys.stdout = sys.stdout.getvalue(), out
    try:
        if args is None:
            sys.stdout.write(printed)
        else:
            # looked up by name at call time, so a rebound cmd_* is the one that runs
            code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # so that output which cannot be written exits 2 too
        return code
    except (Refusal, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError:
        # exit 2, not 1: 1 means the routes disagree; any other exception is a bug and escapes
        print("error: out of memory", file=sys.stderr)
    return 2


def entry():
    """The console script.  main maps a failed write, its reader gone, to exit
    2 and one error line, but the text stays buffered; then both streams
    point at os.devnull, so that the shutdown flush has nothing to fail on."""
    code = 2  # main raises an OSError only when its own error line cannot be written
    try:
        code = main()
        sys.stdout.flush()  # fails only after a failed write
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.dup2(devnull, sys.stderr.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
