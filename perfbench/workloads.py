"""Seeded workloads for the wheelfan benchmark, and the checks on their outputs.

Each workload turns a seed into a list of ops.  An op is one argv for
``wheelfan.cli.main`` plus what the benchmark needs to judge its output.  All
inputs are written before any timing; the program sees only argv and edge-list
files.  Sizes, densities and enumeration work sit on fixed grids over their
ranges, so every seed gives the same size distribution; the seed picks the
graphs' structure, the queried pairs and the op order.  Op cost grows with
the cube of the vertex count, so jitter in sizes alone would move the
latency percentiles by ten percent from seed to seed.

Expected answers are Laplacian minors of a seeded relabeling of the same
graph, computed by the benchmark's own elimination (_minor), not by
wheelfan.kirchhoff.  Relabeling drops a different vertex and eliminates rows
in another order, so a determinant that depends on either shows up as a
mismatch, and a fault that does not still differs from the independent
code.  Wheel and fan queries that have a closed form run with
``--method all`` and are checked by the agreement of its lines.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from wheelfan.enumeration import DEFAULT_ENUM_CAP
from wheelfan.graphs import LabeledGraph, format_edge_list, make_fan, make_graph, make_wheel

# pinned at the commit that introduced the benchmark; the sweep is deterministic
VERIFY_ARGV = ["verify", "--suite", "all", "--max-n", "12", "--enum-cap", "9"]
VERIFY_SUMMARY = "passed=237 failed=0 info=12"
VERIFY_SHA256 = "127d41acf8feb135bf981d3bead1f9f194dd4cf3706709a5e8546b73da1d8bec"

QUERIES = ("trees", "forests", "resist")


@dataclass
class Op:
    argv: list[str]
    kind: str  # verify, count, enumerate or resist
    obj: str  # all, trees, forests or resist
    source: str  # sweep, wheel, fan or file
    vertices: int
    edges: int
    graph: LabeledGraph | None = None
    pair: tuple[int, int] | None = None
    expect: str | None = None  # reference value; None when closed forms check it

    def manifest(self) -> dict:
        return {
            "argv": self.argv,
            "kind": self.kind,
            "object": self.obj,
            "source": self.source,
            "vertices": self.vertices,
            "edges": self.edges,
        }


def _grid(count: int, lo: float, hi: float, stride: int = 1) -> list[float]:
    """The midpoints of count equal slices of [lo, hi].

    stride (coprime to count) permutes them by a fixed rule, so that two
    grids zipped together always pair the same values: the seed must not
    decide whether the largest graphs are also the densest.
    """
    width = (hi - lo) / count
    return [lo + width * ((i * stride) % count + 0.5) for i in range(count)]


def _random_connected(rng: random.Random, vertices: int, edge_count: int) -> LabeledGraph:
    # a random spanning tree over shuffled labels, then distinct random extras
    order = list(range(vertices))
    rng.shuffle(order)
    edges = set()
    for i in range(1, vertices):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    edge_count = min(edge_count, vertices * (vertices - 1) // 2)
    while len(edges) < edge_count:
        a, b = rng.sample(range(vertices), 2)
        edges.add((min(a, b), max(a, b)))
    return LabeledGraph(vertices, tuple(sorted(edges)))


def _minor(g: LabeledGraph, drop: tuple[int, ...]) -> int:
    """Determinant of g's Laplacian without the rows and columns in drop.

    The benchmark's own fraction-free (Bareiss) elimination, kept apart from
    wheelfan.kirchhoff so that the references and the generated inputs do
    not depend on the code being measured.
    """
    keep = [v for v in range(g.vertex_count) if v not in drop]
    index = {v: i for i, v in enumerate(keep)}
    n = len(keep)
    rows = [[0] * n for _ in range(n)]
    for a, b in g.edges:
        for x, y in ((a, b), (b, a)):
            if x in index:
                rows[index[x]][index[x]] += 1
                if y in index:
                    rows[index[x]][index[y]] -= 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot, rk = rows[k][k], rows[k]
        for i in range(k + 1, n):
            ri = rows[i]
            lead = ri[k]
            ri[k + 1 :] = [(pivot * x - lead * y) // prev for x, y in zip(ri[k + 1 :], rk[k + 1 :])]
        prev = pivot
    return sign * rows[n - 1][n - 1] if n else 1


def _reference(rng: random.Random, g: LabeledGraph, obj: str, pair) -> str:
    """The answer, from the minor of a seeded relabeling of g.

    The relabeled graph drops another vertex than the program does for
    trees, and eliminates rows in another order for every query.
    """
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    if perm[0] == 0:
        perm[0], perm[-1] = perm[-1], perm[0]
    h = make_graph(g.vertex_count, ((perm[a], perm[b]) for a, b in g.edges))
    if obj == "trees":
        return str(_minor(h, (0,)))
    forests = _minor(h, (perm[pair[0]], perm[pair[1]]))
    if obj == "forests":
        return str(forests)
    r = Fraction(forests, _minor(h, (0,)))
    return f"{r.numerator}/{r.denominator}"


def _write_graph(run_dir: Path, name: str, g: LabeledGraph) -> str:
    path = run_dir / name
    path.write_text(format_edge_list(g.vertex_count, g.edges))
    return f"file:{path}"


def _query_argv(obj: str, graph_arg: str, pair, method_all: bool) -> list[str]:
    if obj == "resist":
        argv = ["resist", "--graph", graph_arg, "--pair", f"{pair[0]},{pair[1]}"]
    else:
        argv = ["count", obj, "--graph", graph_arg]
        if obj == "forests":
            argv += ["--separate", f"{pair[0]},{pair[1]}"]
    return argv + (["--method", "all"] if method_all else [])


def verify_sweep(rng: random.Random, run_dir: Path) -> list[Op]:
    return [Op(list(VERIFY_ARGV), "verify", "all", "sweep", 0, 0)]


def _two_forest_bound(g: LabeledGraph) -> float:
    """Upper bound on the number of spanning two-forests, from the minors.

    Summing the separating-forest count over all vertex pairs counts each
    two-forest with parts A, B exactly |A||B| >= V-1 times.  On these small
    graphs the bound is within a factor 1.5 of the true count, which is the
    number of subsets enum_two_forests walks.
    """
    n = g.vertex_count
    total = sum(_minor(g, (u, v)) for u in range(n) for v in range(u + 1, n))
    return total / (n - 1)


def enum_oracle(rng: random.Random, run_dir: Path, per_object: int = 30) -> list[Op]:
    """Small random graphs with 10^2..10^4 spanning trees, on a grid of enumeration work.

    Trees and separating forests each get per_object graphs.  The grid is
    over the enumerator's work: the number of subsets it walks times the
    vertex count, since each subset costs a tuple of about V edges (trees)
    or a components() pass over V vertices (forests).  Subsets walked are
    the spanning trees for trees and the two-forest bound for forests.  Each
    graph serves one count op (--method all, so the program checks
    enumeration against the minor) and one enumerate op.
    """
    ops = []
    for obj, lo_exp, hi_exp in (("trees", 2.9, 4.9), ("forests", 3.3, 5.1)):
        half = (hi_exp - lo_exp) / per_object / 2
        for j, target in enumerate(_grid(per_object, lo_exp, hi_exp)):
            lo, hi = 10 ** (target - half), 10 ** (target + half)
            for _ in range(100_000):
                vertices = rng.randint(6, DEFAULT_ENUM_CAP)
                full = vertices * (vertices - 1) // 2
                g = _random_connected(rng, vertices, rng.randint(vertices, full))
                trees = _minor(g, (0,))
                if not 100 <= trees <= 10**4:
                    continue
                if obj == "trees":
                    if lo <= trees * vertices <= hi:
                        break
                # the bound is at least the tree count and rarely ten times it
                elif lo / 10 <= trees * vertices <= hi and lo <= _two_forest_bound(g) * vertices <= hi:
                    break
            else:
                raise RuntimeError(f"no random graph found for {obj} near 10^{target:.2f}")
            pair = tuple(rng.sample(range(vertices), 2)) if obj == "forests" else None
            graph_arg = _write_graph(run_dir, f"enum-{obj}-{j}.txt", g)
            sep = ["--separate", f"{pair[0]},{pair[1]}"] if pair else []
            common = dict(
                source="file", vertices=vertices, edges=len(g.edges), graph=g, pair=pair,
                expect=_reference(rng, g, obj, pair),
            )
            ops.append(Op(["count", obj, "--graph", graph_arg, "--method", "all"] + sep, "count", obj, **common))
            ops.append(Op(["enumerate", obj, "--graph", graph_arg] + sep, "enumerate", obj, **common))
    rng.shuffle(ops)
    return ops


def _file_query(rng, run_dir, name, obj, g) -> Op:
    pair = tuple(rng.sample(range(g.vertex_count), 2)) if obj != "trees" else None
    graph_arg = _write_graph(run_dir, name, g)
    return Op(
        _query_argv(obj, graph_arg, pair, method_all=False),
        "resist" if obj == "resist" else "count",
        obj,
        "file",
        g.vertex_count,
        len(g.edges),
        graph=g,
        pair=pair,
        expect=_reference(rng, g, obj, pair),
    )


def minor_sparse(rng: random.Random, run_dir: Path, per_cell: int = 20) -> list[Op]:
    """Wheels, fans and sparse random graphs under trees/forests/resist queries.

    Six cells (three queries times family or random file), per_cell ops each,
    each cell with its own size grid.
    """
    ops = []
    for obj in QUERIES:
        for i, size in enumerate(_grid(per_cell, 16, 113)):
            size = int(size)
            kind = "wheel" if i % 2 == 0 else "fan"
            g = make_wheel(size) if kind == "wheel" else make_fan(size)
            pair = tuple(rng.sample(range(g.vertex_count), 2)) if obj != "trees" else None
            closed = kind == "wheel" or obj == "trees"
            ops.append(
                Op(
                    _query_argv(obj, f"{kind}:{size}", pair, method_all=True),
                    "resist" if obj == "resist" else "count",
                    obj,
                    kind,
                    g.vertex_count,
                    len(g.edges),
                    graph=g,
                    pair=pair,
                    expect=None if closed else _reference(rng, g, obj, pair),
                )
            )
        degrees = _grid(per_cell, 3.0, 4.0, stride=7)
        for i, size in enumerate(_grid(per_cell, 32, 141)):
            vertices = int(size)
            g = _random_connected(rng, vertices, round(vertices * degrees[i] / 2))
            ops.append(_file_query(rng, run_dir, f"sparse-{obj}-{i}.txt", obj, g))
    rng.shuffle(ops)
    return ops


def minor_dense(rng: random.Random, run_dir: Path, per_query: int = 40) -> list[Op]:
    """Dense random graphs (20-64 vertices, density 0.3-0.7) under the same queries."""
    ops = []
    for obj in QUERIES:
        densities = _grid(per_query, 0.3, 0.7, stride=7)
        for i, size in enumerate(_grid(per_query, 20, 65)):
            vertices = int(size)
            g = _random_connected(rng, vertices, round(densities[i] * vertices * (vertices - 1) / 2))
            ops.append(_file_query(rng, run_dir, f"dense-{obj}-{i}.txt", obj, g))
    rng.shuffle(ops)
    return ops


# generator and the host-speed probe that tracks the workload (see probe.py):
# big-integer elimination follows the arithmetic loop, allocation-heavy
# enumeration and bijection work the mixed one
WORKLOADS = {
    "verify-sweep": (verify_sweep, "mixed"),
    "enum-oracle": (enum_oracle, "mixed"),
    "minor-sparse": (minor_sparse, "arith"),
    "minor-dense": (minor_dense, "arith"),
}


def build(workload: str, seed: int, run_dir: Path) -> list[Op]:
    # str seeds hash through sha512, so the inputs do not depend on PYTHONHASHSEED
    return WORKLOADS[workload][0](random.Random(f"{workload}:{seed}"), run_dir)


def summary(ops: list[Op]) -> str:
    """One line on the op mix: kinds, objects, sources and size ranges."""

    def tally(key):
        counts: dict[str, int] = {}
        for op in ops:
            counts[getattr(op, key)] = counts.get(getattr(op, key), 0) + 1
        return ",".join(f"{k}={v}" for k, v in sorted(counts.items()))

    sized = [op for op in ops if op.vertices]
    text = f"ops={len(ops)} kind[{tally('kind')}] object[{tally('obj')}] source[{tally('source')}]"
    if sized:
        vs = sorted(op.vertices for op in sized)
        es = sorted(op.edges for op in sized)
        dens = sorted(2 * op.edges / (op.vertices * (op.vertices - 1)) for op in sized)
        text += (
            f" vertices[{vs[0]}..{vs[-1]} median {vs[len(vs) // 2]}]"
            f" edges[{es[0]}..{es[-1]} median {es[len(es) // 2]}]"
            f" density[{dens[0]:.2f}..{dens[-1]:.2f} median {dens[len(dens) // 2]:.2f}]"
        )
    return text


# --- output checks ------------------------------------------------------------


def check(op: Op, text: str, rc: int) -> str | None:
    """None when the op's output is right, else the reason it is not."""
    if rc != 0:
        return f"exit code {rc}"
    if op.kind == "verify":
        lines = text.splitlines()
        if not lines or lines[-1] != VERIFY_SUMMARY:
            return f"summary line {lines[-1] if lines else ''!r}"
        if _sha256(text) != VERIFY_SHA256:
            return "stdout digest differs from the pinned one"
        return None
    if op.kind == "enumerate":
        return _check_blocks(op, text)
    return _check_values(op, text)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _check_values(op: Op, text: str) -> str | None:
    lines = text.splitlines()
    if any(line.startswith("MISMATCH") for line in lines):
        return "MISMATCH line"
    values = {}
    for line in lines:
        name, sep, value = line.partition(": ")
        values[name if sep else "minor"] = value if sep else line
    if "minor" not in values:
        return "no minor value printed"
    if op.expect is None:
        if "formula" not in values:
            return "closed form missing from --method all"
    elif values["minor"] != op.expect:
        return f"minor {values['minor']} != relabeled minor {op.expect}"
    if len(set(values.values())) != 1:
        return f"methods disagree: {values}"
    if op.vertices <= DEFAULT_ENUM_CAP and "--method" in op.argv and "enum" not in values:
        return "enumeration missing from --method all"
    return None


def _check_blocks(op: Op, text: str) -> str | None:
    g, n = op.graph, op.vertices
    want_edges = n - 1 if op.obj == "trees" else n - 2
    allowed = g.edge_set
    blocks: list[tuple[tuple[int, int], ...]] = []
    current: list[tuple[int, int]] | None = None
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("V "):
            if line != f"V {n}":
                return f"block header {line!r}"
            current = []
            blocks.append(current)
            continue
        parts = line.split()
        if current is None or len(parts) != 2 or not all(p.isdigit() for p in parts):
            return f"unexpected line {line!r}"
        current.append((int(parts[0]), int(parts[1])))
    blocks = [tuple(b) for b in blocks]
    if len(blocks) != int(op.expect):
        return f"{len(blocks)} blocks, relabeled minor says {op.expect}"
    if any(x >= y for x, y in zip(blocks, blocks[1:])):
        return "blocks are not distinct and in lexicographic order"
    for block in blocks:
        if len(block) != want_edges or not set(block) <= allowed:
            return f"block {block} has the wrong size or a non-edge"
        root = list(range(n))

        def find(x):
            while root[x] != x:
                root[x] = root[root[x]]
                x = root[x]
            return x

        for a, b in block:
            ra, rb = find(a), find(b)
            if ra == rb:
                return f"block {block} has a cycle"
            root[ra] = rb
        if op.pair and find(op.pair[0]) == find(op.pair[1]):
            return f"block {block} does not separate {op.pair}"
    return None

