import sys
from fractions import Fraction

import pytest

from wheelfan.report import BFile, equality_check, format_fraction, format_int


def full_decimal(n: int) -> str:
    # reference conversion with str()'s digit limit lifted for this call only,
    # independent of the route the program takes; test_cli uses it too
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


BIG = 7 * 10**5000 + 123456789


def test_format_int_prints_every_digit():
    assert [format_int(n) for n in (0, 7, -12, 10**30)] == ["0", "7", "-12", str(10**30)]
    assert format_int(BIG) == full_decimal(BIG)
    assert format_int(-BIG) == "-" + full_decimal(BIG)


def test_every_printed_integer_goes_through_the_formatter():
    digits = full_decimal(BIG)
    assert format_fraction(Fraction(BIG, 10**4400 + 1)) == f"{digits}/{full_decimal(10**4400 + 1)}"
    check = equality_check("big", "n=1", BIG, BIG + 1)
    assert (check.expected, check.actual, check.ok) == (digits, full_decimal(BIG + 1), False)
    assert check.render() == f"FAIL big [n=1] expected={digits} actual={full_decimal(BIG + 1)}"
    # non-integers keep their text; a bool is not printed as a number
    assert equality_check("flag", "", True, True).render() == "PASS flag expected=True actual=True"
    assert equality_check("text", "", "1/2", "1/2").expected == "1/2"
    assert list(BFile(3, ((3, BIG),)).lines()) == [f"3 {digits}\n"]


def test_the_str_limit_stays_for_parsing():
    # the formatter must not lift the interpreter's limit: int() of a typed
    # size over 4300 digits still refuses, which bounds graph sizes on input
    format_int(BIG)
    with pytest.raises(ValueError, match="4300 digits"):
        int("9" * 5000)


def test_bfile_streams_rows_and_checks_each_index_when_reached():
    rows = iter(((3, 8), (4, 21), (6, 89)))
    lines = BFile(3, rows).lines(("sep-center",))
    assert [next(lines), next(lines), next(lines)] == ["# sep-center\n", "3 8\n", "4 21\n"]
    with pytest.raises(ValueError, match="row 2 has index 6, expected 5"):
        next(lines)
