from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from rectdual import ratlp
from rectdual.ratlp import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    PhaseOneUnbounded,
    feasible_point,
    solve_lp,
    strict_feasible,
)

from oracles import fraclp


def test_simple_max():
    res = solve_lp([1, 1], [([1, 0], LE, 3), ([0, 1], LE, 2)], maximize=True)
    assert res.status == OPTIMAL
    assert res.value == 5
    assert res.x == (3, 2)


def test_simple_min():
    res = solve_lp([1], [([1], GE, 2)])
    assert res.status == OPTIMAL
    assert res.value == 2


def test_infeasible():
    res = solve_lp([1], [([1], LE, 1), ([1], GE, 2)])
    assert res.status == INFEASIBLE


def test_unbounded():
    res = solve_lp([1], [([1], GE, 0)], maximize=True)
    assert res.status == UNBOUNDED


def test_equalities_exact():
    res = solve_lp([0, 0], [([2, 3], EQ, 7), ([1, -1], EQ, 1)])
    assert res.status == OPTIMAL
    assert res.x == (2, 1)


def test_fractional_data_stays_exact():
    res = solve_lp([Fraction(1, 3)], [([1], LE, Fraction(1, 7))], maximize=True)
    assert res.status == OPTIMAL
    assert res.value == Fraction(1, 21)
    assert isinstance(res.value, Fraction)


def test_redundant_equalities():
    cons = [([1, 1], EQ, 1), ([2, 2], EQ, 2), ([1, -1], EQ, 0)]
    res = solve_lp([1, 0], cons, maximize=True)
    assert res.status == OPTIMAL
    assert res.x == (Fraction(1, 2), Fraction(1, 2))


def test_redundant_row_then_unbounded():
    res = solve_lp([1, 0], [([1, 1], EQ, 1), ([1, 1], EQ, 1)], maximize=True)
    assert res.status == UNBOUNDED


def test_beale_cycling_example_terminates():
    # classic degenerate instance that cycles under naive pivoting
    cons = [
        ([Fraction(1, 4), -60, -Fraction(1, 25), 9], LE, 0),
        ([Fraction(1, 2), -90, -Fraction(1, 50), 3], LE, 0),
        ([0, 0, 1, 0], LE, 1),
        ([1, 0, 0, 0], GE, 0),
        ([0, 1, 0, 0], GE, 0),
        ([0, 0, 1, 0], GE, 0),
        ([0, 0, 0, 1], GE, 0),
    ]
    res = solve_lp([-Fraction(3, 4), 150, -Fraction(1, 50), 6], cons)
    assert res.status == OPTIMAL
    assert res.value == -Fraction(1, 20)


def test_feasible_point():
    res = feasible_point([([1, 1], EQ, 2), ([1, -1], LE, 0)], 2)
    assert res.status == OPTIMAL
    x, y = res.x
    assert x + y == 2 and x <= y


def test_strict_open_interval():
    ok, x, margin = strict_feasible(1, strict_rows=[([1], 1), ([-1], 0)])
    assert ok
    assert margin > 0
    assert 0 < x[0] < 1


def test_strict_empty_interval():
    ok, x, margin = strict_feasible(1, strict_rows=[([1], 0), ([-1], 0)])
    assert not ok
    assert margin is not None and margin <= 0


def test_strict_with_equalities():
    ok, x, _ = strict_feasible(
        2, eq_rows=[([1, 1], 1)], strict_rows=[([1, -1], 0)])
    assert ok
    assert x[0] + x[1] == 1 and x[0] < x[1]


def test_strict_weak_part_infeasible():
    ok, x, margin = strict_feasible(
        1, weak_rows=[([1], 0), ([-1], -1)], strict_rows=[([1], 5)])
    assert not ok
    assert x is None and margin is None


def test_weak_only_boundary_point():
    ok, x, margin = strict_feasible(1, weak_rows=[([1], 0), ([-1], 0)])
    assert ok
    assert x[0] == 0
    assert margin == 1  # the cap, since no strict rows constrain it


def test_no_rows_left_after_phase_one():
    # every variable is free once no row constrains it
    assert solve_lp([1], []).status == UNBOUNDED
    assert solve_lp([1], [([0], EQ, 0)]).status == UNBOUNDED
    assert solve_lp([0, 2], [([0, 0], LE, 1)], maximize=True).status == UNBOUNDED
    for cons in ([], [([0], EQ, 0)], [([0], GE, -3)]):
        res = solve_lp([0], cons)
        assert (res.status, res.x, res.value) == (OPTIMAL, (0,), 0)
        assert isinstance(res.value, Fraction)
    assert feasible_point([], 2).x == (0, 0)


def test_phase_one_unbounded_raises(monkeypatch):
    monkeypatch.setattr(ratlp, "_simplex_min", lambda M, basis, d: (UNBOUNDED, d))
    with pytest.raises(PhaseOneUnbounded):
        solve_lp([1], [([1], LE, 1)])


# --- equivalence with the frozen Fraction simplex ---------------------------

_q = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))


@st.composite
def small_lps(draw):
    nv = draw(st.integers(1, 4))
    coeffs = st.lists(_q, min_size=nv, max_size=nv)
    row = st.tuples(coeffs, st.sampled_from([LE, GE, EQ]), _q)
    return (draw(coeffs), draw(st.lists(row, min_size=1, max_size=6)),
            draw(st.booleans()))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(small_lps())
def test_matches_fraction_oracle(lp):
    objective, constraints, maximize = lp
    try:
        want = fraclp.solve_lp(objective, constraints, maximize)
    except IndexError:  # the oracle cannot run when no row survives phase one
        assume(False)
    got = solve_lp(objective, constraints, maximize)
    assert (got.status, got.x, got.value) == (want.status, want.x, want.value)
    if got.status == OPTIMAL:
        assert isinstance(got.value, Fraction)
