import random

import pytest

from rectdual.boxes import Overlap
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
    rng = random.Random(13)
    for _ in range(20):
        p = random_partition(2, 6, rng)
        assert parse_partition(format_partition(p)).boxes == p.boxes


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
