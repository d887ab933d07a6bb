"""Verification suites: closed forms vs Laplacian minors vs brute force.

Suites call the formula layer through its module object on purpose, so a
test build can corrupt one function and watch the sweep fail.  The tau suite
emits informational rows only; its cardinality comparisons are findings, not
assertions (see arc_forest_census).
"""

from __future__ import annotations

from . import bijection, enumeration, formulas, kirchhoff, sequences
from .enumeration import DEFAULT_ENUM_CAP
from .graphs import make_fan, make_wheel
from .report import VerificationReport, equality_check, format_fraction, info_check


def suite_identities(max_n: int, enum_cap: int = DEFAULT_ENUM_CAP) -> VerificationReport:
    return VerificationReport(sequences.check_identities(max_n))


def suite_trees(max_n: int, enum_cap: int = DEFAULT_ENUM_CAP) -> VerificationReport:
    report = VerificationReport()
    for n in range(3, max_n + 1):
        g = make_wheel(n)
        minor = kirchhoff.count_spanning_trees(g)
        report.checks.append(
            equality_check("wheel trees: closed form vs minor", f"n={n}", formulas.trees_wheel(n), minor)
        )
        if g.vertex_count <= enum_cap:
            report.checks.append(
                equality_check(
                    "wheel trees: enumeration vs minor",
                    f"n={n}",
                    len(enumeration.enum_spanning_trees(g, cap=enum_cap)),
                    minor,
                )
            )
    for m in range(1, max_n + 1):
        g = make_fan(m)
        minor = kirchhoff.count_spanning_trees(g)
        report.checks.append(
            equality_check("fan trees: closed form vs minor", f"m={m}", formulas.trees_fan(m), minor)
        )
        if g.vertex_count <= enum_cap:
            report.checks.append(
                equality_check(
                    "fan trees: enumeration vs minor",
                    f"m={m}",
                    len(enumeration.enum_spanning_trees(g, cap=enum_cap)),
                    minor,
                )
            )
    return report


def suite_forests(max_n: int, enum_cap: int = DEFAULT_ENUM_CAP) -> VerificationReport:
    report = VerificationReport()
    for n in range(3, max_n + 1):
        g = make_wheel(n)
        for k in range(1, n // 2 + 1):
            minor = kirchhoff.count_two_forests(g, 1, 1 + k)
            report.checks.append(
                equality_check(
                    "separating forests: closed form vs minor",
                    f"n={n} k={k}",
                    formulas.forests_separating(formulas.RimPair(n, 1, 1 + k)),
                    minor,
                )
            )
            if g.vertex_count <= enum_cap:
                report.checks.append(
                    equality_check(
                        "separating forests: enumeration vs minor",
                        f"n={n} k={k}",
                        len(enumeration.enum_two_forests(g, 1, 1 + k, cap=enum_cap)),
                        minor,
                    )
                )
        report.checks.append(
            equality_check(
                "adjacent-pair closed form vs minor",
                f"n={n}",
                formulas.forests_sep_adjacent(n),
                kirchhoff.count_two_forests(g, 1, 2),
            )
        )
        if n >= 4:
            report.checks.append(
                equality_check(
                    "distance-2 closed form vs minor",
                    f"n={n}",
                    formulas.forests_sep_dist2(n),
                    kirchhoff.count_two_forests(g, 1, 3),
                )
            )
        report.checks.append(
            equality_check(
                "center-pair closed form vs minor",
                f"n={n}",
                formulas.forests_sep_center(n),
                kirchhoff.count_two_forests(g, 1, 0),
            )
        )
    return report


def suite_resistance(max_n: int, enum_cap: int = DEFAULT_ENUM_CAP) -> VerificationReport:
    report = VerificationReport()
    for n in range(3, max_n + 1):
        g = make_wheel(n)
        for k in range(1, n // 2 + 1):
            report.checks.append(
                equality_check(
                    "rim resistance: closed form vs minor ratio",
                    f"n={n} k={k}",
                    format_fraction(formulas.resistance_rim(n, k)),
                    format_fraction(kirchhoff.effective_resistance(g, 1, 1 + k)),
                )
            )
        report.checks.append(
            equality_check(
                "center resistance: closed form vs minor ratio",
                f"n={n}",
                format_fraction(formulas.resistance_center(n)),
                format_fraction(kirchhoff.effective_resistance(g, 1, 0)),
            )
        )
    return report


# forward/inverse vectors pinned from worked examples; edges over wheel rim
# size 4 and its 3-path-vertex fan
_PINNED = [
    ("forward", ((1, 2), (2, 3), (0, 4)), ((0, 3), (1, 2), (2, 3))),
    ("forward", ((2, 3), (0, 1), (0, 4)), ((0, 2), (0, 3), (1, 2))),
    ("forward", ((1, 2), (2, 3), (3, 4)), ((0, 1), (1, 2), (2, 3))),
    ("inverse", ((1, 2), (0, 2), (0, 3)), ((0, 3), (0, 4), (1, 2))),
    ("inverse", ((0, 1), (1, 2), (2, 3)), ((1, 2), (2, 3), (3, 4))),
]


def suite_bijection(max_n: int, enum_cap: int = DEFAULT_ENUM_CAP) -> VerificationReport:
    report = VerificationReport()
    for direction, given, expected in _PINNED:
        if direction == "forward":
            actual = bijection.forward(bijection.WheelForest.from_edges(4, given)).edges
        else:
            actual = bijection.inverse(bijection.FanTree.from_edges(3, given), 4).edges
        report.checks.append(
            equality_check(
                f"pinned {direction} vector", "n=4 " + str(given), str(expected), str(actual)
            )
        )
    for n in range(3, min(max_n, enum_cap - 1) + 1):
        records = enumeration.enum_arc_forests(n, cap=enum_cap)
        rep = bijection.fiber_report(n, cap=enum_cap, records=records)
        report.checks.append(
            equality_check(
                "all images are fan spanning trees",
                f"n={n}",
                f"{rep.class_count}/{rep.class_count}",
                f"{rep.class_count if rep.all_images_valid else 'fewer'}/{rep.class_count}",
            )
        )
        report.checks.append(
            equality_check("images cover the target fan", f"n={n}", True, rep.covers_target_fan)
        )
        # one pass over the labeled forests, each built once:
        # rotation invariance: forward of any labeled forest equals forward of
        # its normalized representative;
        # forests whose center component uses spokes only invert exactly
        stable = 0
        spoke_only = 0
        inverted = 0
        for wf in records:
            nf = bijection.normalize(wf)
            image = bijection.forward(nf.forest)
            if bijection.forward(wf).edges == image.edges:
                stable += 1
            if nf.rotation != 0 or any(a != 0 for a, _ in nf.forest.center_edges):
                continue
            spoke_only += 1
            try:
                if bijection.inverse(image, n).edges == nf.forest.edges:
                    inverted += 1
            except ValueError:
                pass
        report.checks.append(
            equality_check(
                "forward map is rotation invariant", f"n={n}", len(records), stable
            )
        )
        report.checks.append(
            equality_check(
                "round trip on spoke-only normalized forests",
                f"n={n}",
                f"{spoke_only}/{spoke_only}",
                f"{inverted}/{spoke_only}",
            )
        )
        report.checks.append(
            info_check(
                "round trips over all normalized forests",
                f"n={n}",
                f"{rep.roundtrip_ok}/{rep.roundtrip_total}; {rep.class_count} classes fold onto "
                f"{rep.image_count} images, so a universal round trip is impossible",
            )
        )
    return report


def suite_tau(max_n: int, enum_cap: int = DEFAULT_ENUM_CAP) -> VerificationReport:
    top = min(max_n, enum_cap - 1)
    return VerificationReport(enumeration.arc_forest_census(range(3, top + 1), cap=enum_cap))


SUITES = {
    "identities": suite_identities,
    "trees": suite_trees,
    "forests": suite_forests,
    "resistance": suite_resistance,
    "bijection": suite_bijection,
    "tau": suite_tau,
}


def run_suites(names, max_n: int, enum_cap: int = DEFAULT_ENUM_CAP) -> VerificationReport:
    combined = VerificationReport()
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or all")
        combined.extend(SUITES[name](max_n, enum_cap).checks)
    return combined
