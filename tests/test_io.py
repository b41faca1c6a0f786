import random
import sys

import pytest

from rectdual.boxes import IntBox, Overlap
from rectdual.dual import build_dual
from rectdual.embedding import Projection
from rectdual.io import (
    ParseError,
    format_dual,
    format_partition,
    format_projection,
    parse_partition,
    parse_projection,
)

from oracles.partitions import random_partition, unit_grid2


def test_partition_round_trip():
    p = unit_grid2(2)
    text = format_partition(p)
    assert text == "2 2 4\n0 1 0 1\n0 1 1 2\n1 2 0 1\n1 2 1 2\n"
    q = parse_partition(text)
    assert q.boxes == p.boxes and q.n == p.n and q.dim == p.dim
    assert format_partition(q) == text


def test_partition_round_trip_random():
    # parsed boxes skip the constructor, yet compare, hash and print like
    # constructed ones, and keep a key-sharing dict of the same size
    rng = random.Random(13)
    for d, n in [(1, 9), (2, 6), (3, 4), (4, 3)] * 20:
        p = random_partition(d, n, rng)
        text = format_partition(p)
        q = parse_partition(text)
        assert q.boxes == p.boxes and q.owner_grid() == p.owner_grid()
        assert format_partition(q) == text
        for got, box in zip(q.boxes, p.boxes):
            assert hash(got) == hash(box) and str(got) == str(box)
            assert type(got.lo) is type(got.hi) is tuple
            assert all(type(x) is int for x in got.lo + got.hi)
            assert list(vars(got)) == ["lo", "hi"]
            assert sys.getsizeof(vars(got)) == sys.getsizeof(vars(box))


def test_partition_comments_and_blanks():
    text = "# a comment\n\n2 1 1\n# another\n0 1 0 1\n"
    p = parse_partition(text)
    assert len(p.boxes) == 1


def test_partition_parse_errors():
    with pytest.raises(ParseError):
        parse_partition("")
    with pytest.raises(ParseError):
        parse_partition("2 2\n")  # short header
    with pytest.raises(ParseError):
        parse_partition("2 2 1\n0 1 0 1\n0 1 1 2\n")  # box count mismatch
    with pytest.raises(ParseError):
        parse_partition("2 2 1\n0 1 0\n")  # wrong arity
    with pytest.raises(ParseError):
        parse_partition("2 2 1\n1 0 0 1\n")  # inverted corner
    with pytest.raises(ParseError):
        parse_partition("2 2 1\na b c d\n")
    # the header is checked by itself, at its own line
    for text, line in (("-1 2 1\n0 1\n", 1), ("0 1 0\n", 1), ("2 0 0\n", 1),
                       ("2 1 -1\n", 1), ("# comment\n0 1 1\n0 1\n", 2)):
        with pytest.raises(ParseError, match="header needs") as info:
            parse_partition(text)
        assert info.value.line == line


# (text, line, message) of a file whose first bad line is that line
BAD_BOX_LINES = {
    "non_integer": ("2 2 1\n0 1 0 x\n", 2, "expected integers, got '0 1 0 x'"),
    "short": ("2 2 1\n0 1 0\n", 2, "expected 4 integers, got 3"),
    "long": ("2 2 1\n0 1 0 1 0\n", 2, "expected 4 integers, got 5"),
    "inverted": ("2 2 1\n1 0 0 1\n", 2, "empty interior: (1, 0) (0, 1)"),
    "flat": ("2 2 1\n0 1 1 1\n", 2, "empty interior: (0, 1) (1, 1)"),
    # a token is tested before the count, on one line
    "short_non_integer": ("2 2 1\n0 1 y\n", 2,
                          "expected integers, got '0 1 y'"),
    "after_comments_and_blanks": (
        "# head\n2 2 4\n0 1 0 1\n\n# between\n  \n0 1 1 2\n"
        "# before the bad line\n1 2 2 1\n1 2 1 2\n", 9,
        "empty interior: (1, 2) (2, 1)"),
    # the first bad line is named, whatever breaks the lines after it
    "first_of_several": ("1 3 4\n0 1\n2 1\n1\nz 3\n", 3,
                         "empty interior: (2,) (1,)"),
    "count_before_token": ("1 3 3\n0 1\n1 2 3\nz 3\n", 3,
                           "expected 2 integers, got 3"),
    "stripped_line": ("1 2 1\n\t0  q \n", 2, "expected integers, got '0  q'"),
}


@pytest.mark.parametrize("text, line, message", BAD_BOX_LINES.values(),
                         ids=BAD_BOX_LINES.keys())
def test_a_bad_box_line_is_named(text, line, message):
    with pytest.raises(ParseError) as info:
        parse_partition(text)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: {message}"


@pytest.mark.parametrize("token", ["1_0", "+1", "\u0661", "1.0", "0x1"])
def test_partition_numbers_are_canonical_integers(token):
    # int() alone would take the first three
    for text, line in ((f"2 1 1\n0 1 0 {token}\n", 2),
                       (f"# {token}\n2 {token} 1\n0 1 0 1\n", 2)):
        with pytest.raises(ParseError, match="expected integers") as info:
            parse_partition(text)
        assert info.value.line == line
    with pytest.raises(ParseError, match="expected integers") as info:
        parse_projection(f"1 1\n1 {token}\n")
    assert info.value.line == 2


def test_partition_numbers_may_have_leading_zeros_and_minus_zero():
    # comments stay free text
    text = "# 1_0 +1 \u0661\n2 2 1\n-0 02 0 002\n"
    assert parse_partition(text).boxes == (IntBox((0, 0), (2, 2)),)


def test_partition_parse_validates():
    bad = "2 2 2\n0 2 0 2\n1 2 1 2\n"
    with pytest.raises(Overlap):
        parse_partition(bad)


def test_projection_round_trip():
    proj = Projection(((1, 1), (3, 1), (1, 3), (3, 3)))
    text = format_projection(proj)
    assert text == "1 1\n3 1\n1 3\n3 3\n"
    assert parse_projection(text) == proj


def test_projection_parse_errors():
    with pytest.raises(ParseError):
        parse_projection("")
    with pytest.raises(ParseError):
        parse_projection("1 2\n3\n")  # ragged row


def test_dual_dump_2x2():
    dc = build_dual(unit_grid2(2))
    text = format_dual(dc)
    lines = text.strip().split("\n")
    assert lines[0] == "0 0"
    assert "1 0 3" in lines
    assert "1 1 2" not in lines
    tops = [l for l in lines if l.startswith("2 ")]
    assert tops == ["2 0 1 3 | 1 1 2,1", "2 0 2 3 | 1 1 1,2"]
