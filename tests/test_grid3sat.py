"""Malformed grid3sat texts: one per raise site of the parser and the
structural checks, each with the exception it must raise. A fifth path
or colliding first steps of one variable need no check of their own
(grid3sat._validate says why); their entries pin the error those inputs
do raise."""

import importlib
import pkgutil

import pytest

import rectdual
from rectdual.grid3sat import (
    ClauseArity,
    DisjointnessViolation,
    InvalidInstance,
    parse_grid3sat,
)
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
    # int() alone would read these as 0, 1 and 1
    "underscore_in_number": (edit("V 0 0 1", "V 0_0 0 1"),
                             ParseError, "expected integers", 2),
    "plus_sign_on_number": (edit("C 0 2 1 0 1 2", "C 0 2 +1 0 1 2"),
                            ParseError, "expected integers", 3),
    "non_ascii_digit": (edit("P 0 0 0 + 1 1 1", "P 0 0 0 + 1 \u0661 1"),
                        ParseError, "expected integers", 4),
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
    "variable_on_variable": (edit("V 0 0 1", "V 0 0 1\nV 1 0 1")
                             .replace("2 1 1 3", "2 2 1 3"),
                             DisjointnessViolation,
                             r"terminal collision at \(0, 1\)", None),
    "clause_on_variable": (edit("C 0 2 1", "C 0 0 1"), DisjointnessViolation,
                           r"terminal collision at \(0, 1\)", None),
    "path_through_terminal": (edit("P 0 0 0 + 1 1 1",
                                   "P 0 0 0 + 3 1 1 2 1 2 2"),
                              DisjointnessViolation,
                              r"path 0 runs through terminal \('C', 0\)", None),
    "shared_vertex": (edit("P 2 0 0 + 3 0 0 1 0 2 0",
                           "P 2 0 0 + 3 0 2 1 2 2 2"),
                      DisjointnessViolation,
                      r"paths 1 and 2 share vertex \(0, 2\)", None),
    "clause_repeats_a_path": (edit("C 0 2 1 0 1 2", "C 0 2 1 0 1 1"),
                              ClauseArity, r"clause 0 lists \(0, 1, 1\)",
                              None),
    "clause_names_unknown_path": (edit("C 0 2 1 0 1 2", "C 0 2 1 0 1 5"),
                                  ClauseArity,
                                  "clause 0 references unknown path 5", None),
    "clause_names_foreign_path": (
        edit("C 0 2 1 0 1 2", "C 0 2 1 0 1 2\nC 1 2 0 0 1 2")
        .replace("2 1 1 3", "2 1 2 3")
        .replace("P 2 0 0 + 3 0 0 1 0 2 0", "P 2 0 1 + 2 0 0 1 0"),
        ClauseArity, "clause 0 lists path 2 which targets clause 1", None),
    "path_not_listed": (edit("V 0 0 1", "V 0 0 1\nV 1 3 2")
                        .replace("2 1 1 3", "3 2 1 4")
                        + "P 3 1 0 + 1 3 1\n",
                        ClauseArity, "path 3 is not referenced by its clause 0",
                        None),
    # a variable next to its clause, wired to it twice with no point
    "colliding_final_steps": ("2 1 1 3\nV 0 0 1\nC 0 1 1 0 1 2\n"
                              "P 0 0 0 + 0\nP 1 0 0 + 0\n"
                              "P 2 0 0 + 4 0 2 1 2 2 2 2 1\n",
                              DisjointnessViolation,
                              "clause 0 has colliding final steps", None),
    # a fifth path from one variable, and two paths from one variable
    # with one first step: earlier checks refuse both (module docstring)
    "fifth_path": (VALID.replace("2 1 1 3", "2 1 1 5")
                   + "P 3 0 0 + 1 1 1\nP 4 0 0 + 1 1 1\n",
                   DisjointnessViolation,
                   r"paths 0 and 3 share vertex \(1, 1\)", None),
    "colliding_first_steps": (edit("P 2 0 0 + 3 0 0 1 0 2 0",
                                   "P 2 0 0 + 3 1 1 1 0 2 0"),
                              DisjointnessViolation,
                              r"paths 0 and 2 share vertex \(1, 1\)", None),
}


def test_valid_instance_parses():
    inst = parse_grid3sat(VALID)
    assert (len(inst.variables), len(inst.clauses), len(inst.paths)) == (1, 1, 3)
    # comments stay free text, and -0 and 001 are canonical tokens
    text = "# 1_0 +1 \u0661\n" + edit("V 0 0 1", "V -0 0 001 # +2 1_0")
    assert parse_grid3sat(text) == inst


@pytest.mark.parametrize("text, exc, fragment, line", MALFORMED.values(),
                         ids=MALFORMED.keys())
def test_malformed_text_raises_typed_error(text, exc, fragment, line):
    with pytest.raises(exc, match=fragment) as info:
        parse_grid3sat(text)
    assert type(info.value) is exc
    if exc is ParseError:
        assert info.value.line == line


# every module of the package that has an __all__
EXPORTING = [m.name for m in pkgutil.iter_modules(rectdual.__path__)
             if hasattr(importlib.import_module(f"rectdual.{m.name}"),
                        "__all__")]


def test_the_exporting_modules_are_found():
    # every module but __init__, which iter_modules does not list
    assert EXPORTING == [m.name for m in pkgutil.iter_modules(rectdual.__path__)]


@pytest.mark.parametrize("module", EXPORTING)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"rectdual.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"rectdual.{module}.__all__ lists {name}"
