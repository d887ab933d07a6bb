"""Closed-form counts and resistances for wheels and fans, exactly evaluated.

These are the third computation path next to the Laplacian minors and the
brute-force oracle; the verification suites hold all three together.
"""

from __future__ import annotations

from fractions import Fraction

from .sequences import fib, lucas


def trees_wheel(n: int) -> int:
    """l(2n) - 2 spanning trees for the wheel with n rim vertices."""
    if n < 3:
        raise ValueError("wheel requires at least 3 rim vertices")
    return lucas(2 * n) - 2


def trees_fan(m: int) -> int:
    """f(2m) spanning trees for the fan with m path vertices."""
    if m < 1:
        raise ValueError("fan requires at least 1 path vertex")
    return fib(2 * m)


def forests_separating(n: int, k: int) -> int:
    """Two-component forests of the wheel with n rim vertices that separate
    two rim vertices at cycle distance k.

    f(2k)*(l(2n)-2) - f(2n)*(l(2k)-2), for k in 1..n//2.
    """
    if n < 3:
        raise ValueError("wheel requires at least 3 rim vertices")
    if not 0 < k <= n // 2:
        raise ValueError(f"cycle distance must lie in 1..{n // 2} for {n} rim vertices")
    return fib(2 * k) * (lucas(2 * n) - 2) - fib(2 * n) * (lucas(2 * k) - 2)


def forests_sep_adjacent(n: int) -> int:
    """2*(f(2n-1) - 1), the k=1 case in closed form."""
    if n < 3:
        raise ValueError("wheel requires at least 3 rim vertices")
    return 2 * (fib(2 * n - 1) - 1)


def forests_sep_dist2(n: int) -> int:
    """2*(l(2n-2) - 3), the k=2 case; needs n >= 4 so distance 2 exists."""
    if n < 4:
        raise ValueError("cycle distance 2 requires at least 4 rim vertices")
    return 2 * (lucas(2 * n - 2) - 3)


def forests_sep_center(n: int) -> int:
    """f(2n) forests separating a rim vertex from the center."""
    if n < 3:
        raise ValueError("wheel requires at least 3 rim vertices")
    return fib(2 * n)


def resistance_rim(n: int, k: int) -> Fraction:
    """Resistance between rim vertices at cycle distance k on the wheel.

    f(2n)^2/(f(4n)-2f(2n)) * (2 - f(4k)/f(2k)) + f(2k), exactly.  With
    f(4i) = f(2i)*l(2i), that is the one fraction
    (f(2n)(2 - l(2k)) + f(2k)(l(2n) - 2)) / (l(2n) - 2).  Since
    f(2n) = f(n)l(n), and l(2n) - 2 is 5f(n)^2 for even n and l(n)^2 for
    odd n, a common factor f(n) or l(n) cancels before the reduction:
    (l(n)(2 - l(2k)) + 5f(n)f(2k)) / (5f(n)) for even n and
    (f(n)(2 - l(2k)) + f(2k)l(n)) / l(n) for odd n, on half-size numbers.
    """
    if n < 3:
        raise ValueError("wheel requires at least 3 rim vertices")
    if k == 0:
        return Fraction(0)
    if not 0 < k <= n // 2:
        raise ValueError(f"cycle distance must lie in 0..{n // 2} for {n} rim vertices")
    fn, ln, rest = fib(n), lucas(n), 2 - lucas(2 * k)
    if n % 2 == 0:
        return Fraction(ln * rest + 5 * fn * fib(2 * k), 5 * fn)
    return Fraction(fn * rest + fib(2 * k) * ln, ln)


def resistance_center(n: int) -> Fraction:
    """Resistance between any rim vertex and the center.

    f(2n)^2/(f(4n)-2f(2n)); the denominator factors as f(2n)*(l(2n)-2), so
    this is f(2n)/(l(2n)-2), f(2n) over the wheel's spanning-tree count.
    With f(2n) = f(n)l(n) and the factorisations of l(2n) - 2 above, it is
    l(n)/(5f(n)) for even n and f(n)/l(n) for odd n, whose gcd is at most 2.
    """
    if n < 3:
        raise ValueError("wheel requires at least 3 rim vertices")
    if n % 2 == 0:
        return Fraction(lucas(n), 5 * fib(n))
    return Fraction(fib(n), lucas(n))
