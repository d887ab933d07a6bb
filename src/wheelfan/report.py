"""Pass/fail records of the verification suites, and how the CLI prints them:
one line per check, a closing count line, and integers and rationals in full."""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
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


def format_int(n: int) -> str:
    """An exact integer in full decimal.  str() refuses more digits than
    sys.get_int_max_str_digits(), a limit kept so int() bounds typed sizes."""
    return str(Decimal(n))


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
