"""Exact Fibonacci and Lucas numbers and the even-index identities.

Conventions: f(0)=0, f(1)=1; l(0)=2, l(1)=1.  Everything is an arbitrary
precision Python int; rationals elsewhere in the package are
fractions.Fraction, which already keeps gcd(num, den)=1 and den>0.
"""

from __future__ import annotations

from .report import Check, equality_check


def _fib_pair(i: int) -> tuple[int, int]:
    # fast doubling: returns (f(i), f(i+1))
    if i == 0:
        return 0, 1
    a, b = _fib_pair(i >> 1)
    c = a * (2 * b - a)
    d = a * a + b * b
    if i & 1:
        return d, c + d
    return c, d


def fib(i: int) -> int:
    if i < 0:
        raise ValueError("fib index must be nonnegative")
    return _fib_pair(i)[0]


def lucas(j: int) -> int:
    """l(j) = f(j-1) + f(j+1), computed as 2*f(j+1) - f(j) to stay valid at j=0."""
    if j < 0:
        raise ValueError("lucas index must be nonnegative")
    a, b = _fib_pair(j)
    return 2 * b - a


def check_identities(max_n: int) -> list[Check]:
    """Even-index identity sweep for n = 1..max_n, all in exact integers.

    The third identity carries coefficient 3 on the Lucas term:
    3*l(2n) - 5*f(2n) = 2*l(2n-2).  Dropping the 3 fails for every n
    (n=1 gives -2 vs 4); with it the two sides agree identically, since
    l(2n)=f(2n-1)+f(2n+1) and both sides reduce to 2f(2n-3)+2f(2n-1).
    """
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    checks = []
    running = 0  # sum of f(2k) for k < n
    for n in range(1, max_n + 1):
        f2n, l2n = fib(2 * n), lucas(2 * n)
        checks.append(
            equality_check("f(4n) = f(2n)*l(2n)", f"n={n}", fib(4 * n), f2n * l2n)
        )
        checks.append(
            equality_check("l(2n) - f(2n) = 2*f(2n-1)", f"n={n}", l2n - f2n, 2 * fib(2 * n - 1))
        )
        checks.append(
            equality_check(
                "3*l(2n) - 5*f(2n) = 2*l(2n-2)", f"n={n}", 3 * l2n - 5 * f2n, 2 * lucas(2 * n - 2)
            )
        )
        checks.append(
            equality_check(
                "sum_{k<n} f(2k) = f(2n-1) - 1", f"n={n}", running, fib(2 * n - 1) - 1
            )
        )
        running += f2n
    return checks
