"""Exact Fibonacci and Lucas numbers by fast doubling.

Conventions: f(0)=0, f(1)=1; l(0)=2, l(1)=1.  Everything is an arbitrary
precision Python int; rationals elsewhere in the package are
fractions.Fraction, which already keeps gcd(num, den)=1 and den>0.  The
even-index identities are checked by verify.suite_identities.
"""

from __future__ import annotations

from .graphs import Refusal


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
        raise Refusal("fib index must be nonnegative")
    return _fib_pair(i)[0]


def lucas(j: int) -> int:
    """l(j) = f(j-1) + f(j+1), computed as 2*f(j+1) - f(j) to stay valid at j=0."""
    if j < 0:
        raise Refusal("lucas index must be nonnegative")
    a, b = _fib_pair(j)
    return 2 * b - a
