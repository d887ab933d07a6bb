"""Pass/fail records of the verification suites, and how the CLI prints them:
one line per check, a closing count line, and integers and rationals in full."""

from __future__ import annotations

from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext
from fractions import Fraction
from typing import Optional


@dataclass(frozen=True)
class Check:
    """One comparison.  ok=None marks an informational row that never fails."""

    name: str
    params: str = ""
    expected: str = ""
    actual: str = ""
    ok: Optional[bool] = True

    def render(self) -> str:
        status = "INFO" if self.ok is None else ("PASS" if self.ok else "FAIL")
        bits = [status, self.name]
        if self.params:
            bits.append(f"[{self.params}]")
        if self.ok is None:
            if self.actual:
                bits.append(self.actual)
        else:
            bits.append(f"expected={self.expected} actual={self.actual}")
        return " ".join(bits)


# bit length up to which Decimal(n) converts at once; its cost is quadratic
# in the digits, so longer integers are split, and from about 2**14 bits the
# split wins
_SPLIT_BITS = 2**13


def format_int(n: int) -> str:
    """An exact integer in full decimal.  str() refuses more digits than
    sys.get_int_max_str_digits(), a limit kept so int() bounds typed sizes.

    Above _SPLIT_BITS the integer is split at half its bit length, each half
    converted alone and joined as lo + hi * 2**half in exact decimal
    arithmetic, whose multiplication is subquadratic: the method of
    CPython 3.12's _pylong.int_to_decimal.
    """
    if n.bit_length() <= _SPLIT_BITS:
        return str(Decimal(n))
    powers: dict[int, Decimal] = {}

    def power(w: int) -> Decimal:  # 2**w, each w built once
        if w not in powers:
            powers[w] = Decimal(1 << w) if w <= _SPLIT_BITS else power(w >> 1) * power(w - (w >> 1))
        return powers[w]

    def convert(m: int, w: int) -> Decimal:  # 0 <= m < 2**w
        if w <= _SPLIT_BITS:
            return Decimal(m)
        half = w >> 1
        hi = m >> half
        return convert(m - (hi << half), half) + convert(hi, w - half) * power(half)

    with localcontext() as ctx:
        # every digit kept, and a rounding would raise rather than pass
        ctx.prec, ctx.Emax = MAX_PREC, MAX_EMAX
        ctx.traps[Inexact] = True
        digits = convert(abs(n), n.bit_length())
    return ("-" if n < 0 else "") + str(digits)


def format_fraction(r: Fraction) -> str:
    """A rational as p/q, denominator always shown (1 prints as 1/1)."""
    return f"{format_int(r.numerator)}/{format_int(r.denominator)}"


def equality_check(name: str, params: str, expected, actual) -> Check:
    shown = (format_int(x) if type(x) is int else str(x) for x in (expected, actual))
    return Check(name, params, *shown, expected == actual)


def info_check(name: str, params: str, message: str) -> Check:
    return Check(name, params, "", message, None)


def summary_line(checks: list[Check]) -> str:
    """The closing line of a verify run; informational rows count apart."""
    counts = [sum(c.ok is status for c in checks) for status in (True, False, None)]
    return "passed={} failed={} info={}".format(*counts)
