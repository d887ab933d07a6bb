import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from wheelfan import report
from wheelfan.report import equality_check, format_fraction, format_int


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


def _split_point_values():
    # bit lengths around the threshold w and around the widths a split makes
    # of a longer integer, odd ones too; each as 2**k, 2**k - 1, a random
    # k-bit value, and one whose low half is all ones
    w = report._SPLIT_BITS
    rng = random.Random(19)
    for k in (w - 1, w, w + 1, 2 * w - 1, 2 * w, 2 * w + 1, 3 * w + 7, 4 * w, 4 * w + 1, 9 * w + 3):
        low_ones = (1 << (k >> 1)) - 1
        yield from (2**k, 2**k - 1, rng.getrandbits(k) | (1 << (k - 1)), (1 << (k - 1)) | low_ones)
    yield from (rng.getrandbits(rng.randrange(1, 6 * w)) for _ in range(40))


def test_split_conversion_matches_the_direct_one():
    values = [0, 1, -1, *_split_point_values()]
    for n in values + [-n for n in values]:
        assert format_int(n) == str(Decimal(n))


def test_every_printed_integer_goes_through_the_formatter():
    digits = full_decimal(BIG)
    assert format_fraction(Fraction(BIG, 10**4400 + 1)) == f"{digits}/{full_decimal(10**4400 + 1)}"
    check = equality_check("big", "n=1", BIG, BIG + 1)
    assert (check.expected, check.actual, check.ok) == (digits, full_decimal(BIG + 1), False)
    assert check.render() == f"FAIL big [n=1] expected={digits} actual={full_decimal(BIG + 1)}"
    # non-integers keep their text; a bool is not printed as a number
    assert equality_check("flag", "", True, True).render() == "PASS flag expected=True actual=True"
    assert equality_check("text", "", "1/2", "1/2").expected == "1/2"


def test_the_str_limit_stays_for_parsing():
    # the formatter must not lift the interpreter's limit: int() of a typed
    # size over 4300 digits still refuses, which bounds graph sizes on input
    format_int(BIG)
    with pytest.raises(ValueError, match="4300 digits"):
        int("9" * 5000)

