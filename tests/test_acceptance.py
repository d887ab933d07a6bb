"""Acceptance sweep: one test per criterion, one recorded verdict line each.

Every comparison is exact integer or exact rational equality; there are no
tolerances anywhere.  Criterion 8 is split into its three clauses (8a, 8b,
8c).  8a checks the paper's bijection between the forests of F(v1|vc) and
the spanning trees of the fan F_n in both directions; both sets have f(2n)
members, and the f(2n-1) rotation-normalized forests all lie in the first.
8b and 8c pin the collapse map into the fan with n-1 path vertices.
"""

import time
from itertools import combinations

from conftest import acceptance_lines

import wheelfan.formulas
from wheelfan.bijection import (
    FanTree,
    WheelForest,
    conditioned_forward,
    conditioned_inverse,
    fiber_report,
    forward,
    inverse,
    normalize,
)
from wheelfan.cli import main
from wheelfan.enumeration import (
    enum_arc_forests,
    enum_spanning_trees,
    enum_two_forests,
)
from wheelfan.formulas import (
    forests_sep_adjacent,
    forests_sep_center,
    forests_sep_dist2,
    forests_separating,
    resistance_center,
    resistance_rim,
)
from wheelfan.graphs import is_spanning_tree, make_fan, make_wheel
from wheelfan.kirchhoff import count_spanning_trees, count_two_forests, effective_resistance
from wheelfan.sequences import fib, lucas
from wheelfan.verify import run_suites


def record(tag, ok, detail):
    line = f"criterion {tag}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    acceptance_lines.append(line)
    return ok


def test_criterion_01_wheel_tree_closed_form():
    t0 = time.perf_counter()
    bad = [n for n in range(3, 65) if count_spanning_trees(make_wheel(n)) != lucas(2 * n) - 2]
    ok = not bad
    assert record(
        "1",
        ok,
        f"wheel tree count equals l(2n)-2 for n=3..64, exact equality "
        f"({62 - len(bad)}/62, {time.perf_counter() - t0:.2f}s)",
    )


def test_criterion_02_fan_tree_closed_form():
    t0 = time.perf_counter()
    bad = [m for m in range(1, 65) if count_spanning_trees(make_fan(m)) != fib(2 * m)]
    ok = not bad
    assert record(
        "2",
        ok,
        f"fan tree count equals f(2m) for m=1..64, exact equality "
        f"({64 - len(bad)}/64, {time.perf_counter() - t0:.2f}s)",
    )


def test_criterion_03_separation_formula():
    t0 = time.perf_counter()
    total = good = 0
    for n in range(3, 33):
        g = make_wheel(n)
        for k in range(1, n // 2 + 1):
            total += 1
            if forests_separating(n, k) == count_two_forests(g, 1, 1 + k):
                good += 1
    assert record(
        "3",
        good == total,
        f"separating-forest closed form equals the all-minors count for n=3..32, "
        f"every cycle distance, zero tolerance ({good}/{total}, {time.perf_counter() - t0:.2f}s)",
    )


def test_criterion_04_special_case_closed_forms():
    t0 = time.perf_counter()
    total = good = 0
    for n in range(3, 33):
        g = make_wheel(n)
        cases = [
            (forests_sep_adjacent(n), count_two_forests(g, 1, 2)),
            (forests_sep_center(n), count_two_forests(g, 1, 0)),
        ]
        if n >= 4:
            cases.append((forests_sep_dist2(n), count_two_forests(g, 1, 3)))
        for formula, minor in cases:
            total += 1
            good += formula == minor
    assert record(
        "4",
        good == total,
        f"adjacent/distance-2/center closed forms equal the all-minors counts "
        f"for n=3..32, exact ({good}/{total}, {time.perf_counter() - t0:.2f}s)",
    )


def test_criterion_05_resistance_closed_forms():
    t0 = time.perf_counter()
    total = good = 0
    for n in range(3, 33):
        g = make_wheel(n)
        for k in range(1, n // 2 + 1):
            total += 1
            good += resistance_rim(n, k) == effective_resistance(g, 1, 1 + k)
        total += 1
        good += resistance_center(n) == effective_resistance(g, 1, 0)
    assert record(
        "5",
        good == total,
        f"rim and center resistance closed forms equal minor ratios as normalized "
        f"exact rationals, n=3..32 ({good}/{total}, {time.perf_counter() - t0:.2f}s)",
    )


def test_criterion_06_enumeration_agrees_with_determinants():
    t0 = time.perf_counter()
    graphs = [make_wheel(n) for n in range(3, 8)] + [make_fan(m) for m in range(1, 8)]
    assert all(g.vertex_count <= 8 for g in graphs)
    total = good = 0
    for g in graphs:
        total += 1
        good += len(enum_spanning_trees(g, lambda: count_spanning_trees(g))) == count_spanning_trees(g)
        for u, v in combinations(range(g.vertex_count), 2):
            total += 1
            forests = enum_two_forests(g, u, v, lambda: count_two_forests(g, u, v))
            good += len(forests) == count_two_forests(g, u, v)
    assert record(
        "6",
        good == total,
        f"brute-force enumeration equals determinant counts for all wheels and fans "
        f"with <= 8 vertices, every vertex pair, exact ({good}/{total}, "
        f"{time.perf_counter() - t0:.2f}s)",
    )


def test_criterion_07_identity_sweep():
    t0 = time.perf_counter()
    checks = run_suites(["identities"], 500)
    bad = [c for c in checks if not c.ok]
    assert record(
        "7",
        not bad and len(checks) == 2000,
        f"product, difference, tripled-Lucas difference and telescoping-sum "
        f"identities hold for n=1..500, exact integers ({len(checks) - len(bad)}/"
        f"{len(checks)}, {time.perf_counter() - t0:.2f}s)",
    )


def test_criterion_08a_round_trip_on_every_normalized_forest():
    # the paper's bijection F(v1|vc) <-> F_n, checked both ways on every member
    t0 = time.perf_counter()
    good = total = 0
    for n in range(3, 9):
        wheel, fan = make_wheel(n), make_fan(n)
        forests = enum_two_forests(wheel, 0, 1, lambda: count_two_forests(wheel, 0, 1))
        family = [WheelForest.from_edges(n, r) for r in forests]
        fan_trees = {tuple(t) for t in enum_spanning_trees(fan, lambda: count_spanning_trees(fan))}
        # equal sizes: f(2n) conditioned forests, f(2n) trees of F_n
        assert len(family) == fib(2 * n) == len(fan_trees)
        reps = {normalize(WheelForest.from_edges(n, r.edges)) for r in enum_arc_forests(n)}
        assert len(reps) == fib(2 * n - 1)
        assert reps <= set(family)
        images = set()
        for f in family:
            total += 1
            image = conditioned_forward(f)
            images.add(image.edges)
            good += conditioned_inverse(image) == f
        assert images == fan_trees
        for edges in fan_trees:
            tree = FanTree(n, edges)
            total += 1
            good += conditioned_forward(conditioned_inverse(tree)) == tree
    assert record(
        "8a",
        good == total,
        f"conditioned_inverse(conditioned_forward(f)) == f on every forest of F(v1|vc), "
        f"which holds every rotation-normalized forest, and conditioned_forward"
        f"(conditioned_inverse(t)) == t on every tree of F_n, n=3..8, exact "
        f"({good}/{total}, {time.perf_counter() - t0:.2f}s)",
    )


def test_criterion_08b_images_are_fan_spanning_trees():
    t0 = time.perf_counter()
    good = total = 0
    for n in range(3, 9):
        fan = make_fan(n - 1)
        reps = {normalize(WheelForest.from_edges(n, r.edges)) for r in enum_arc_forests(n)}
        for f in reps:
            total += 1
            good += is_spanning_tree(fan, forward(f).edges)
    assert record(
        "8b",
        good == total,
        f"forward image is a spanning tree of the fan with n-1 path vertices for every "
        f"normalized forest, n=3..8 ({good}/{total}, {time.perf_counter() - t0:.2f}s)",
    )


def test_criterion_08c_worked_example_vectors():
    t0 = time.perf_counter()
    forward_vectors = [
        (((1, 2), (2, 3), (0, 4)), ((0, 3), (1, 2), (2, 3))),
        (((2, 3), (0, 1), (0, 4)), ((0, 2), (0, 3), (1, 2))),
        (((1, 2), (2, 3), (3, 4)), ((0, 1), (1, 2), (2, 3))),
    ]
    inverse_vectors = [
        (((1, 2), (0, 2), (0, 3)), ((0, 3), (0, 4), (1, 2))),
        (((0, 1), (1, 2), (2, 3)), ((1, 2), (2, 3), (3, 4))),
    ]
    good = 0
    for given, expected in forward_vectors:
        good += forward(WheelForest.from_edges(4, given)).edges == expected
    for given, expected in inverse_vectors:
        good += inverse(FanTree.from_edges(3, given), 4).edges == expected
    assert record(
        "8c",
        good == 5,
        f"the three forward and two inverse worked-example vectors reproduce "
        f"byte-exactly at n=4 ({good}/5, {time.perf_counter() - t0:.2f}s)",
    )


def test_criterion_09_reports_complete_deterministically():
    t0 = time.perf_counter()
    first = [fiber_report(n) for n in range(3, 8)]
    second = [fiber_report(n) for n in range(3, 8)]
    census_a = run_suites(["tau"], 7)
    census_b = run_suites(["tau"], 7)
    ok = first == second and census_a == census_b
    for rep, n in zip(first, range(3, 8)):
        ok &= rep.labeled_count == n * fib(2 * n - 1)
        ok &= rep.class_count == fib(2 * n - 1)
        ok &= rep.machine_line().startswith(f"n={n} ")
    for chk, n in zip(census_a, range(3, 8)):
        ok &= all(s in chk.actual for s in ("f(2n-2)=", "f(2n-1)=", "f(2n)=", "n*f(2n-1)="))
        ok &= "labeled=" in chk.actual and "classes=" in chk.actual
    assert record(
        "9",
        ok,
        f"fiber reports and cardinality census complete for n=3..7, twice with "
        f"identical output, labeled and class counts beside all four candidate "
        f"closed forms ({time.perf_counter() - t0:.2f}s)",
    )


def test_criterion_10_cli_verify_and_fault_injection(capsys, monkeypatch):
    t0 = time.perf_counter()
    argv = ["verify", "--suite", "all", "--max-n", "12", "--enum-cap", "9"]
    clean = main(argv)
    capsys.readouterr()
    flipped = []
    corruptions = {
        "trees_wheel": lambda n: 7,
        "trees_fan": lambda m: 7,
        "forests_separating": lambda n, k: 7,
        "forests_sep_center": lambda n: 7,
        "resistance_rim": lambda n, k: 7,
    }
    for name, fake in corruptions.items():
        with monkeypatch.context() as mp:
            mp.setattr(wheelfan.formulas, name, fake)
            flipped.append(main(argv) == 1)
        capsys.readouterr()
    ok = clean == 0 and all(flipped)
    assert record(
        "10",
        ok,
        f"verify --suite all --max-n 12 --enum-cap 9 exits 0; corrupting any one of "
        f"{len(corruptions)} formula functions flips the exit code to 1 "
        f"({sum(flipped)}/{len(corruptions)} flips, {time.perf_counter() - t0:.2f}s)",
    )
