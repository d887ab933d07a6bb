"""Structured pass/fail records shared by the verification suites and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Iterator, Optional


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


@dataclass
class VerificationReport:
    checks: list[Check] = field(default_factory=list)

    def extend(self, more) -> "VerificationReport":
        self.checks.extend(more)
        return self

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.ok is True)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if c.ok is False)

    @property
    def informational(self) -> int:
        return sum(1 for c in self.checks if c.ok is None)

    @property
    def all_ok(self) -> bool:
        return self.failed == 0

    def render_lines(self) -> list[str]:
        lines = [c.render() for c in self.checks]
        lines.append(f"passed={self.passed} failed={self.failed} info={self.informational}")
        return lines


@dataclass(frozen=True)
class BFile:
    """OEIS-style b-file: consecutive indices from a fixed offset.

    rows may be a generator: lines() checks and renders one row at a time,
    so a long b-file is never held in memory whole."""

    offset: int
    rows: Iterable[tuple[int, int]]

    def lines(self, comments: tuple[str, ...] = ()) -> Iterator[str]:
        """Each line with its newline; a row out of sequence raises ValueError when reached."""
        for c in comments:
            yield f"# {c}\n"
        for pos, (idx, value) in enumerate(self.rows):
            if idx != self.offset + pos:
                raise ValueError(f"row {pos} has index {idx}, expected {self.offset + pos}")
            yield f"{idx} {format_int(value)}\n"
