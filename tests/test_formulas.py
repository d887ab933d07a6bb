import io
from contextlib import redirect_stderr
from fractions import Fraction

import pytest

from wheelfan.cli import main
from wheelfan.formulas import (
    forests_sep_adjacent,
    forests_sep_center,
    forests_sep_dist2,
    forests_separating,
    resistance_center,
    resistance_rim,
    trees_fan,
    trees_wheel,
)
from wheelfan.sequences import fib, lucas
from wheelfan.verify import closed_form


def test_wheel_tree_values():
    assert [trees_wheel(n) for n in range(3, 9)] == [16, 45, 121, 320, 841, 2205]


def test_fan_tree_values():
    assert [trees_fan(m) for m in range(1, 8)] == [1, 3, 8, 21, 55, 144, 377]


def test_domain_errors():
    # every wheel form but sep-dist2, which keeps its own n >= 4, refuses n = 2 alike
    wheel_forms = (trees_wheel, forests_sep_adjacent, forests_sep_center, resistance_center)
    for closed in (*wheel_forms, lambda n: forests_separating(n, 1), lambda n: resistance_rim(n, 1)):
        with pytest.raises(ValueError, match="^wheel requires at least 3 rim vertices$"):
            closed(2)
    with pytest.raises(ValueError, match="^fan requires at least 1 path vertex$"):
        trees_fan(0)
    with pytest.raises(ValueError, match="^cycle distance 2 requires at least 4 rim vertices$"):
        forests_sep_dist2(3)


def test_rim_pair_distance():
    # the wheel-rim closed forms read a vertex pair at its cycle distance
    forests = closed_form("wheel", "forests", (1, 2))
    resist = closed_form("wheel", "resist", (1, 2))
    assert (forests.function, resist.function) == ("forests_separating", "resistance_rim")
    for n, pair, k in (
        (8, (1, 3), 2),
        (8, (1, 8), 1),  # wraps around the cycle
        (8, (8, 1), 1),
        (8, (2, 6), 4),
        (7, (1, 5), 3),
    ):
        assert forests(n, pair) == forests_separating(n, k)
        assert resist(n, pair) == resistance_rim(n, k)
    assert resist(5, (2, 2)) == 0


def test_rim_pair_validation():
    for argv, message in (
        (["count", "forests", "--graph", "wheel:5", "--separate", "1,6"], "vertex 6 out of range"),
        (["resist", "--graph", "wheel:5", "--pair=-1,2"], "vertex -1 out of range"),
        (["count", "forests", "--graph", "wheel:5", "--separate", "2,2"], "must be distinct"),
    ):
        err = io.StringIO()
        with redirect_stderr(err):
            assert main(argv) == 2
        assert message in err.getvalue()
    with pytest.raises(ValueError, match=r"cycle distance must lie in 1\.\.2"):
        closed_form("wheel", "forests", (1, 2))(5, (2, 2))
    with pytest.raises(ValueError, match="at least 3 rim vertices"):
        forests_separating(2, 1)


def test_separation_values():
    assert forests_separating(3, 1) == 8
    assert forests_separating(4, 1) == 24
    assert forests_separating(4, 2) == 30


def test_separation_refuses_a_distance_outside_one_to_half_the_rim():
    for n, k in ((4, 0), (5, 0), (4, 3), (5, 3), (8, 7)):
        with pytest.raises(ValueError, match=f"cycle distance must lie in 1..{n // 2}"):
            forests_separating(n, k)
    with pytest.raises(ValueError, match="at least 3 rim vertices"):
        forests_separating(2, 1)


def test_special_cases_match_general_formula():
    for n in range(3, 13):
        assert forests_sep_adjacent(n) == forests_separating(n, 1)
        if n >= 4:
            assert forests_sep_dist2(n) == forests_separating(n, 2)


def test_special_case_closed_forms():
    assert forests_sep_adjacent(3) == 8 == 2 * (fib(5) - 1)
    assert forests_sep_dist2(4) == 30 == 2 * (lucas(6) - 3)
    assert forests_sep_center(3) == 8
    assert forests_sep_center(4) == 21


def test_dist2_equals_twice_previous_wheel_trees_minus_one():
    for n in range(4, 16):
        assert forests_sep_dist2(n) == 2 * (trees_wheel(n - 1) - 1)


def test_tree_count_difference_form():
    # the separation count rewritten through tree counts, with the k<3
    # factors taken as the literal quantities l(2)-2=1 and l(4)-2=5
    for n in range(3, 16):
        for k in range(1, n // 2 + 1):
            literal = lucas(2 * k) - 2
            assert forests_separating(n, k) == fib(2 * k) * trees_wheel(n) - fib(2 * n) * literal


def test_rim_resistance_values():
    assert resistance_rim(3, 1) == Fraction(1, 2)
    assert resistance_rim(4, 1) == Fraction(8, 15)
    assert resistance_rim(4, 2) == Fraction(2, 3)


def test_rim_resistance_conventions():
    assert resistance_rim(5, 0) == 0
    with pytest.raises(ValueError, match="cycle distance"):
        resistance_rim(5, 3)
    with pytest.raises(ValueError):
        resistance_rim(2, 1)


def test_center_resistance_values():
    assert resistance_center(3) == Fraction(1, 2)
    assert resistance_center(4) == Fraction(7, 15)


def test_center_resistance_simplifies_to_fib_over_trees():
    # f(4n)-2f(2n) factors as f(2n)*(l(2n)-2), so both evaluations agree
    for n in range(3, 33):
        assert resistance_center(n) == Fraction(fib(2 * n), trees_wheel(n))


def test_resistance_times_trees_is_the_separation_count():
    for n in range(3, 16):
        for k in range(1, n // 2 + 1):
            assert resistance_rim(n, k) * trees_wheel(n) == forests_separating(n, k)


def test_one_fraction_forms_equal_the_five_fraction_expressions():
    # the forms as first written, before f(4i) = f(2i)*l(2i) folded them and
    # the factor f(n) or l(n) was cancelled; both parities, every k
    for n in range(3, 301):
        f2n = fib(2 * n)
        scale = Fraction(f2n * f2n, fib(4 * n) - 2 * f2n)
        assert resistance_center(n) == scale
        for k in range(1, n // 2 + 1):
            f2k = fib(2 * k)
            assert resistance_rim(n, k) == scale * (2 - Fraction(fib(4 * k), f2k)) + f2k
