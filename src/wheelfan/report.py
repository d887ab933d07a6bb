"""Structured pass/fail records shared by the verification suites and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field
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


def format_fraction(r: Fraction) -> str:
    """A rational as p/q, denominator always shown (1 prints as 1/1)."""
    return f"{r.numerator}/{r.denominator}"


def equality_check(name: str, params: str, expected, actual) -> Check:
    return Check(name, params, str(expected), str(actual), expected == actual)


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

    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.ok is False]

    def render_lines(self) -> list[str]:
        lines = [c.render() for c in self.checks]
        lines.append(f"passed={self.passed} failed={self.failed} info={self.informational}")
        return lines


@dataclass(frozen=True)
class BFile:
    """OEIS-style b-file: consecutive indices from a fixed offset."""

    offset: int
    rows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for pos, (idx, _) in enumerate(self.rows):
            if idx != self.offset + pos:
                raise ValueError(f"row {pos} has index {idx}, expected {self.offset + pos}")

    def render(self, comments: tuple[str, ...] = ()) -> str:
        lines = [f"# {c}" for c in comments]
        lines.extend(f"{idx} {value}" for idx, value in self.rows)
        return "\n".join(lines) + "\n"
