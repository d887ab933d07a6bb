from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wheelfan.sequences import fib, lucas
from wheelfan.verify import run_suites


def naive_fib(i):
    a, b = 0, 1
    for _ in range(i):
        a, b = b, a + b
    return a


def test_fib_small_values():
    assert [fib(i) for i in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


def test_lucas_small_values():
    assert [lucas(j) for j in range(7)] == [2, 1, 3, 4, 7, 11, 18]


def test_fib_matches_iteration_at_40():
    assert fib(40) == naive_fib(40) == 102334155


def test_lucas_40_from_neighbors():
    assert lucas(40) == naive_fib(39) + naive_fib(41)


def test_negative_indices_rejected():
    with pytest.raises(ValueError):
        fib(-1)
    with pytest.raises(ValueError):
        lucas(-3)


@given(st.integers(0, 2000))
def test_fast_doubling_equals_iteration(i):
    assert fib(i) == naive_fib(i)


def test_fast_doubling_equals_iteration_exhaustive():
    a, b = 0, 1
    for i in range(2001):
        assert fib(i) == a
        a, b = b, a + b


@given(st.integers(0, 10**4))
def test_recurrences(i):
    assert fib(i + 2) == fib(i + 1) + fib(i)
    assert lucas(i + 2) == lucas(i + 1) + lucas(i)


def test_identity_sweep_to_500():
    checks = run_suites(["identities"], 500)
    assert len(checks) == 4 * 500
    bad = [c for c in checks if not c.ok]
    assert bad == []


def test_identity_sweep_rejects_bad_bound():
    with pytest.raises(ValueError, match="max_n must be at least 1"):
        run_suites(["identities"], 0)


def test_lucas_minus_five_fib_needs_the_coefficient():
    # without the factor 3 on the Lucas term the third identity is false
    # everywhere: l(2n) - 5f(2n) equals -2*l(2n-1), which is negative
    for n in range(1, 60):
        assert lucas(2 * n) - 5 * fib(2 * n) == -2 * lucas(2 * n - 1)
        assert lucas(2 * n) - 5 * fib(2 * n) != 2 * lucas(2 * n - 2)
        assert 3 * lucas(2 * n) - 5 * fib(2 * n) == 2 * lucas(2 * n - 2)


def test_exact_rational_is_normalized_fraction():
    r = Fraction(21, 45)
    assert (r.numerator, r.denominator) == (7, 15)


@given(st.integers(-99, 99).filter(bool), st.integers(1, 99))
def test_rational_inverse_product(a, b):
    assert Fraction(a, b) * Fraction(b, a) == 1
