"""Verification suites, and the one table of closed forms the CLI answers from.

CLOSED_FORMS has one row per function of formulas.  answer() picks the exact
routes of a query (trees, separating forests or a resistance): the closed
form of the row that matches it, the Laplacian minor, and enumeration for
counts, sized by the minor's one count.  count and resist print its answers,
and the trees, forests and resistance suites check each against the minor;
the forests suite also checks the labeled rows, and oeis prints the rows
with a sequence.  Rows look their function up in formulas when they run, so
a test build can corrupt one and watch every reader fail.  The bijection
suite takes every per-n check from one bijection.fiber_report, the single
pass over that wheel's arc forests.  The tau suite emits informational rows
only: its census is a finding, not an assertion.  Every report.Check row is
built here, as the math layers return plain integers, fractions and edges.
Each suite returns its plan, (indices, step) pairs: step(i) builds index i's
checks, sizing their enumerations, and returns the thunk that runs them.
"""

from __future__ import annotations

import functools
from itertools import chain
from typing import Callable, NamedTuple

from . import lazy_module
from .graphs import DEFAULT_ENUM_CAP, MIN_PATH, MIN_RIM, LabeledGraph, Refusal, make_fan, make_wheel
from .report import Check, equality_check, format_fraction, format_int, info_check
from .sequences import fib, lucas

# run on the first check or route that reads them, not when a suite is named
bijection, enumeration, formulas, kirchhoff = map(lazy_module, ("bijection", "enumeration", "formulas", "kirchhoff"))

Plan = list[tuple[range, Callable[[int], Callable[[], list[Check]]]]]


def suite_identities(max_n: int, enum_cap: int = DEFAULT_ENUM_CAP) -> Plan:
    """Even-index identity sweep for n = 1..max_n, all in exact integers, as one thunk.

    The third identity carries coefficient 3 on the Lucas term:
    3*l(2n) - 5*f(2n) = 2*l(2n-2).  Dropping the 3 fails for every n
    (n=1 gives -2 vs 4); with it the two sides agree identically, since
    l(2n)=f(2n-1)+f(2n+1) and both sides reduce to 2f(2n-3)+2f(2n-1).
    """

    def rows():
        checks = []
        running = 0  # sum of f(2k) for k < n
        for n in range(1, max_n + 1):
            f2n, l2n = fib(2 * n), lucas(2 * n)
            for name, lhs, rhs in (
                ("f(4n) = f(2n)*l(2n)", fib(4 * n), f2n * l2n),
                ("l(2n) - f(2n) = 2*f(2n-1)", l2n - f2n, 2 * fib(2 * n - 1)),
                ("3*l(2n) - 5*f(2n) = 2*l(2n-2)", 3 * l2n - 5 * f2n, 2 * lucas(2 * n - 2)),
                ("sum_{k<n} f(2k) = f(2n-1) - 1", running, fib(2 * n - 1) - 1),
            ):
                checks.append(equality_check(name, f"n={n}", lhs, rhs))
            running += f2n
        return checks

    return [(range(1), lambda _: rows)]


class ClosedForm(NamedTuple):
    # one function of formulas, by name: pair is None for trees, "center" for a
    # pair holding the center, "rim" for a rim pair at any cycle distance k, or k
    # for rim vertex 1 against 1+k; low is the smallest index and oeis offset
    family: str
    quantity: str
    pair: object
    low: int
    function: str
    label: str | None = None  # the forests suite's named check
    sequence: str | None = None  # oeis name and description
    description: str | None = None

    def __call__(self, n: int, pair=None):
        # looked up when it runs, so a patched formulas function is the one called
        form = getattr(formulas, self.function)
        if self.pair != "rim":
            return form(n)
        d = abs(pair[0] - pair[1])  # checked by cli._parse_pair, or built by a suite as (1, 1+k)
        return form(n, min(d, n - d))


# a query has a formula route exactly where a row has its family, quantity and
# pair class; the labeled rows are the forests suite's named checks, in order
CLOSED_FORMS = (
    ClosedForm(
        "wheel", "trees", None, MIN_RIM, "trees_wheel", None, "wheel-trees", "spanning trees of the wheel, l(2n)-2"
    ),
    ClosedForm("fan", "trees", None, MIN_PATH, "trees_fan", None, "fan-trees", "spanning trees of the fan, f(2n)"),
    ClosedForm("wheel", "forests", "rim", MIN_RIM, "forests_separating"),
    ClosedForm(
        "wheel", "forests", 1, MIN_RIM, "forests_sep_adjacent", "adjacent-pair", "sep-adjacent",
        "wheel forests separating two adjacent rim vertices, 2(f(2n-1)-1)",
    ),
    ClosedForm(
        "wheel", "forests", 2, 4, "forests_sep_dist2", "distance-2", "sep-dist2",
        "wheel forests separating rim vertices at cycle distance 2, 2(l(2n-2)-3)",
    ),
    ClosedForm(
        "wheel", "forests", "center", MIN_RIM, "forests_sep_center", "center-pair", "sep-center",
        "wheel forests separating a rim vertex from the center, f(2n)",
    ),
    ClosedForm("wheel", "resist", "rim", MIN_RIM, "resistance_rim"),
    ClosedForm("wheel", "resist", "center", MIN_RIM, "resistance_center"),
)


def closed_form(kind: str, quantity: str, pair=None) -> ClosedForm | None:
    """The row answering quantity on a graph of this kind for this pair, if any."""
    where = None if pair is None else "center" if 0 in pair else "rim"
    return next((form for form in CLOSED_FORMS if form[:3] == (kind, quantity, where)), None)


def answer(kind, size, g: LabeledGraph, quantity, pair=None, method="all", enum_cap=DEFAULT_ENUM_CAP) -> dict:
    """A thunk per route of trees, forests or resist on g, giving its answer as
    printed (p/q for resist, else in full): the route method names, or for all
    formula where a closed form exists, minor, then enum for counts up to
    enum_cap vertices.  None runs here, but a kept enum route is sized, or
    refused, by the minor's count, which the minor route then reuses."""
    form = closed_form(kind, quantity, pair)
    found = {} if form is None else {"formula": lambda: form(size, pair)}
    if quantity == "trees":
        found["minor"] = minor = functools.cache(lambda: kirchhoff.count_spanning_trees(g))
        found["enum"] = lambda: len(enumeration.enum_spanning_trees(g, minor, enum_cap))
        size_enum = lambda: enumeration.size_spanning_trees(g, minor, enum_cap)
    elif quantity == "forests":
        found["minor"] = minor = functools.cache(lambda: kirchhoff.count_two_forests(g, *pair))
        found["enum"] = lambda: len(enumeration.enum_two_forests(g, *pair, minor, enum_cap))
        size_enum = lambda: enumeration.size_two_forests(g, *pair, minor, enum_cap)
    else:
        found["minor"] = lambda: kirchhoff.effective_resistance(g, *pair)
    if method != "all":
        if method not in found:
            raise Refusal(f"no closed form for this graph; use --method {' or '.join(found)}")
        found = {method: found[method]}
    elif g.vertex_count > enum_cap:
        found = {name: route for name, route in found.items() if name != "enum"}
    if "enum" in found:
        size_enum()
    show = format_fraction if quantity == "resist" else format_int
    return {name: (lambda route=route: show(route())) for name, route in found.items()}


# what a check's name calls each route it compares against the minor
_SHOWN_AS = {"formula": "closed form", "enum": "enumeration"}


def _compared(label: str, params: str, routes: dict, ratio: str = "") -> list[Check]:
    # every other route of the query against its minor, as the CLI prints them
    found = {name: route() for name, route in routes.items()}
    minor = found.pop("minor")
    return [
        equality_check(f"{label}: {_SHOWN_AS[name]} vs minor{ratio}", params, value, minor)
        for name, value in found.items()
    ]


def suite_trees(max_n: int, enum_cap: int = DEFAULT_ENUM_CAP) -> Plan:
    def step(family, index, make, i):
        routes = answer(family, i, make(i), "trees", None, "all", enum_cap)
        return lambda: _compared(f"{family} trees", f"{index}={i}", routes)

    return [
        (range(MIN_RIM, max_n + 1), functools.partial(step, "wheel", "n", make_wheel)),
        (range(MIN_PATH, max_n + 1), functools.partial(step, "fan", "m", make_fan)),
    ]


def suite_forests(max_n: int, enum_cap: int = DEFAULT_ENUM_CAP) -> Plan:
    def step(n):
        g = make_wheel(n)
        # rim vertex 1 against 1+k at each cycle distance k; the labeled rows
        # read the minors of k = 1 and 2, and of the center pair
        rim = {k: answer("wheel", n, g, "forests", (1, 1 + k), "all", enum_cap) for k in range(1, n // 2 + 1)}
        minor = {k: routes["minor"] for k, routes in rim.items()}
        minor["center"] = answer("wheel", n, g, "forests", (1, 0), "minor")["minor"]
        labeled = [form for form in CLOSED_FORMS if form.label and n >= form.low]
        return lambda: [
            check for k, routes in rim.items() for check in _compared("separating forests", f"n={n} k={k}", routes)
        ] + [
            equality_check(f"{form.label} closed form vs minor", f"n={n}", format_int(form(n)), minor[form.pair]())
            for form in labeled
        ]

    return [(range(MIN_RIM, max_n + 1), step)]


def suite_resistance(max_n: int, enum_cap: int = DEFAULT_ENUM_CAP) -> Plan:
    def step(n):
        g = make_wheel(n)
        # rim vertex 1 against 1+k at each cycle distance k, then against the center
        cases = [("rim", f"n={n} k={k}", 1 + k) for k in range(1, n // 2 + 1)] + [("center", f"n={n}", 0)]
        routes = [
            (f"{where} resistance", params, answer("wheel", n, g, "resist", (1, v), "all", enum_cap))
            for where, params, v in cases
        ]
        return lambda: [check for label, params, found in routes for check in _compared(label, params, found, " ratio")]

    return [(range(MIN_RIM, max_n + 1), step)]


# forward/inverse vectors pinned from worked examples; edges over wheel rim
# size 4 and its 3-path-vertex fan
_PINNED = [
    ("forward", ((1, 2), (2, 3), (0, 4)), ((0, 3), (1, 2), (2, 3))),
    ("forward", ((2, 3), (0, 1), (0, 4)), ((0, 2), (0, 3), (1, 2))),
    ("forward", ((1, 2), (2, 3), (3, 4)), ((0, 1), (1, 2), (2, 3))),
    ("inverse", ((1, 2), (0, 2), (0, 3)), ((0, 3), (0, 4), (1, 2))),
    ("inverse", ((0, 1), (1, 2), (2, 3)), ((1, 2), (2, 3), (3, 4))),
]


def _pinned_image(direction: str, given) -> tuple:
    if direction == "forward":
        return bijection.forward(bijection.WheelForest.from_edges(4, given)).edges
    return bijection.inverse(bijection.FanTree.from_edges(3, given), 4).edges


def _arc_forest_pair(rows, max_n: int, enum_cap: int):
    # a suite's walks over the arc forests of the wheels within enum_cap; a step sizes its walk when built
    def step(n):
        enumeration.size_arc_forests(n, enum_cap)
        return lambda: rows(n)

    return range(MIN_RIM, min(max_n, enum_cap - 1) + 1), step


def suite_bijection(max_n: int, enum_cap: int = DEFAULT_ENUM_CAP) -> Plan:
    def pinned():
        checks = []
        for direction, given, expected in _PINNED:
            # a refused vector is a failed row, as a refused image is in the audit
            actual = bijection._built(_pinned_image, direction, given)
            shown = "refused" if actual is None else str(actual)
            checks.append(equality_check(f"pinned {direction} vector", "n=4 " + str(given), str(expected), shown))
        return checks

    def fibers(n):
        rep = bijection.fiber_report(n, cap=enum_cap)
        params = f"n={n}"
        return [
            equality_check(
                "all images are fan spanning trees",
                params,
                f"{rep.class_count}/{rep.class_count}",
                f"{rep.class_count if rep.all_images_valid else 'fewer'}/{rep.class_count}",
            ),
            equality_check("images cover the target fan", params, True, rep.covers_target_fan),
            equality_check("forward map is rotation invariant", params, rep.labeled_count, rep.rotation_stable),
            equality_check(
                "round trip on spoke-only normalized forests",
                params,
                f"{rep.spoke_only_total}/{rep.spoke_only_total}",
                f"{rep.spoke_only_ok}/{rep.spoke_only_total}",
            ),
            info_check(
                "round trips over all normalized forests",
                params,
                f"{rep.roundtrip_ok}/{rep.class_count}; {rep.class_count} classes fold onto "
                f"{rep.image_count} images, so a universal round trip is impossible",
            ),
        ]

    return [(range(1), lambda _: pinned), _arc_forest_pair(fibers, max_n, enum_cap)]


def suite_tau(max_n: int, enum_cap: int = DEFAULT_ENUM_CAP) -> Plan:
    """The arc-forest census: measured cardinalities as info rows.

    Reports the labeled count and the rotation-class count next to f(2n-2),
    f(2n-1), f(2n) and n*f(2n-1), and names whichever candidates match.  A
    rim rotation moves the arc start, so each class has exactly one member
    whose arc starts at rim vertex 1, and the census counts those.  Nothing
    here asserts; the comparison itself is the deliverable.
    """

    def census(n):
        records = enumeration.enum_arc_forests(n, cap=enum_cap)
        labeled = len(records)
        classes = sum(r.arc_start == 1 for r in records)
        candidates = {
            "f(2n-2)": fib(2 * n - 2),
            "f(2n-1)": fib(2 * n - 1),
            "f(2n)": fib(2 * n),
            "n*f(2n-1)": n * fib(2 * n - 1),
        }
        label_hits = [name for name, v in candidates.items() if v == labeled] or ["none"]
        class_hits = [name for name, v in candidates.items() if v == classes] or ["none"]
        values = " ".join(f"{name}={v}" for name, v in candidates.items())
        return [
            info_check(
                "arc-forest census",
                f"n={n}",
                f"labeled={labeled} classes={classes} {values} "
                f"labeled_matches={','.join(label_hits)} class_matches={','.join(class_hits)}",
            )
        ]

    return [_arc_forest_pair(census, max_n, enum_cap)]


SUITES = {
    "identities": suite_identities,
    "trees": suite_trees,
    "forests": suite_forests,
    "resistance": suite_resistance,
    "bijection": suite_bijection,
    "tau": suite_tau,
}


def run_suites(names, max_n: int, enum_cap: int = DEFAULT_ENUM_CAP) -> list[Check]:
    for name in names:
        if name not in SUITES:
            raise Refusal(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or all")
    if max_n < 1:
        raise Refusal("max_n must be at least 1")
    plan = [pair for name in names for pair in SUITES[name](max_n, enum_cap)]
    # the graph of index i has i + 1 vertices, so only steps below enum_cap
    # enumerate: built first, they size every walk before any runs, and a run
    # over the budget is refused at once.  Every other step is built as it runs
    early = [[step(i) for i in indices[: max(enum_cap - indices.start, 0)]] for indices, step in plan]
    checks = []
    for (indices, step), built in zip(plan, early):
        for run in chain(built, map(step, indices[len(built) :])):
            checks += run()
    return checks
