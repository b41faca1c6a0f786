"""Malformed grid3sat texts: one per raise site of the parser and the
structural checks, each with the exception it must raise."""

import importlib

import pytest

from rectdual.grid3sat import InvalidInstance, parse_grid3sat
from rectdual.io import ParseError

# one variable at (0,1) wired to one clause at (2,1) by three paths
VALID = """\
2 1 1 3
V 0 0 1
C 0 2 1 0 1 2
P 0 0 0 + 1 1 1
P 1 0 0 + 3 0 2 1 2 2 2
P 2 0 0 + 3 0 0 1 0 2 0
"""


def edit(old, new):
    assert VALID.count(old) == 1
    return VALID.replace(old, new)


# id: (text, exception, message fragment, line of a ParseError)
MALFORMED = {
    "empty": ("# nothing but a comment\n\n", ParseError, "empty input", 0),
    "header_shape": (edit("2 1 1 3", "2 1 1"),
                     ParseError, "header must be", 1),
    "header_counts": (edit("2 1 1 3", "0 1 1 3"),
                      ParseError, "bad header counts", 1),
    "not_integer": (edit("V 0 0 1", "V 0 x 1"),
                    ParseError, "expected integers", 2),
    "variable_shape": (edit("V 0 0 1", "V 0 0"),
                       ParseError, "variable needs", 2),
    "clause_shape": (edit("C 0 2 1 0 1 2", "C 0 2 1 0 1"),
                     ParseError, "clause needs", 3),
    "path_shape": (edit("P 0 0 0 + 1 1 1", "P 0 0 0 +"),
                   ParseError, "path needs", 4),
    "sign": (edit("P 0 0 0 + 1 1 1", "P 0 0 0 * 1 1 1"),
             ParseError, "sign must be", 4),
    "point_count": (edit("P 0 0 0 + 1 1 1", "P 0 0 0 + 2 1 1"),
                    ParseError, "expected 2 points", 4),
    "unknown_record": (VALID + "# trailer\nQ 0\n",
                       ParseError, "unknown record", 8),
    "counts_vs_body": ("# leading comment\n" + edit("2 1 1 3", "2 1 1 4"),
                       ParseError, "do not match body", 2),
    "duplicate_variable": (edit("V 0 0 1", "V 0 0 1\nV 0 1 1")
                           .replace("2 1 1 3", "2 2 1 3"),
                           InvalidInstance, "duplicate variable", None),
    "duplicate_clause": (edit("C 0 2 1 0 1 2", "C 0 2 1 0 1 2\nC 0 0 0 0 1 2")
                         .replace("2 1 1 3", "2 1 2 3"),
                         InvalidInstance, "duplicate clause", None),
    "duplicate_path": (edit("P 2 0 0 +", "P 1 0 0 +"),
                       InvalidInstance, "duplicate path", None),
    "variable_off_grid": (edit("V 0 0 1", "V 0 0 3"),
                          InvalidInstance, "variable 0 off grid", None),
    "clause_off_grid": (edit("C 0 2 1", "C 0 3 1"),
                        InvalidInstance, "clause 0 off grid", None),
    "unknown_variable": (edit("P 0 0 0 +", "P 0 5 0 +"),
                         InvalidInstance, "unknown variable", None),
    "unknown_clause": (edit("P 0 0 0 +", "P 0 0 4 +"),
                       InvalidInstance, "unknown clause", None),
    "path_jumps": (edit("P 1 0 0 + 3 0 2 1 2 2 2", "P 1 0 0 + 2 0 2 2 2"),
                   InvalidInstance, r"path 1 jumps from \(0, 2\)", None),
    "path_off_grid": (edit("P 1 0 0 + 3 0 2 1 2 2 2",
                           "P 1 0 0 + 5 0 2 0 3 1 3 2 3 2 2"),
                      InvalidInstance, "leaves the grid", None),
    # the route check rejects a first step away from the variable
    "path_starts_away": (edit("P 0 0 0 + 1 1 1", "P 0 0 0 + 0"),
                         InvalidInstance, r"path 0 jumps from \(0, 1\)", None),
}


def test_valid_instance_parses():
    inst = parse_grid3sat(VALID)
    assert (len(inst.variables), len(inst.clauses), len(inst.paths)) == (1, 1, 3)


@pytest.mark.parametrize("text, exc, fragment, line", MALFORMED.values(),
                         ids=MALFORMED.keys())
def test_malformed_text_raises_typed_error(text, exc, fragment, line):
    with pytest.raises(exc, match=fragment) as info:
        parse_grid3sat(text)
    assert type(info.value) is exc
    if exc is ParseError:
        assert info.value.line == line


@pytest.mark.parametrize("module", ["counterexamples", "grid3sat", "reduction"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"rectdual.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"rectdual.{module}.__all__ lists {name}"
