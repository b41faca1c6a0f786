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
    DualSimplexFault,
    MarginLp,
    PhaseOneUnbounded,
    feasible_point,
    reoptimize,
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


# --- the incremental margin LP against cold solves -----------------------

@st.composite
def row_batches(draw):
    """nvars and batches of (kind, coeffs, rhs) rows, kind 0/1/2 for
    equality/weak/strict; some rows are zero rows or repeat an earlier
    row."""
    nv = draw(st.integers(1, 3))
    coeffs = st.lists(_q, min_size=nv, max_size=nv)
    seen, batches = [], []
    for _ in range(draw(st.integers(1, 6))):
        batch = []
        for _ in range(draw(st.integers(1, 3))):
            how = draw(st.sampled_from(["new", "new", "new", "zero", "dup"]))
            if how == "dup" and seen:
                row = draw(st.sampled_from(seen))
            else:
                row = (draw(st.integers(0, 2)),
                       [0] * nv if how == "zero" else draw(coeffs), draw(_q))
            seen.append(row)
            batch.append(row)
        batches.append(batch)
    return nv, batches


def _split(rows):
    return tuple([(c, r) for k, c, r in rows if k == kind]
                 for kind in range(3))


def _snapshot(lp):
    return ([list(r) for r in lp.rows], list(lp.basis), lp.d, lp.status,
            lp.margin)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(row_batches())
def test_margin_lp_matches_cold_solves(case):
    nv, batches = case
    lp = MarginLp(nv)
    assert (lp.status, lp.margin) == (OPTIMAL, 1)
    rows = []
    for batch in batches:
        before = _snapshot(lp)
        child = reoptimize(lp, *_split(batch))
        assert _snapshot(lp) == before  # the parent is left as it was
        rows += batch
        _, _, margin = strict_feasible(nv, *_split(rows))
        assert child.margin == margin
        assert child.status == (INFEASIBLE if margin is None else OPTIMAL)
        if margin is not None:
            assert isinstance(child.margin, Fraction)
        lp = child


def test_margin_lp_infeasible_weak_part_stays_infeasible():
    lp = reoptimize(MarginLp(1), weak_rows=[([1], 0)])
    assert lp.margin == 1
    bad = reoptimize(lp, weak_rows=[([-1], -1)])
    assert (bad.status, bad.margin) == (INFEASIBLE, None)
    worse = reoptimize(bad, eq_rows=[([1], 0)], strict_rows=[([1], 5)])
    assert (worse.status, worse.margin) == (INFEASIBLE, None)
    assert reoptimize(lp, strict_rows=[([-1], 0)]).margin == 0
    assert reoptimize(lp, weak_rows=[([0], -1)]).status == INFEASIBLE


def test_margin_lp_breaks_ratio_ties_by_least_index(monkeypatch):
    # every pivot takes the least basic index below zero to leave and
    # the least column index among the least ratios to enter; the log
    # keeps each pivot's tied columns and their ratio
    ties = []
    pivot = ratlp._pivot

    def checked(M, basis, d, row, col):
        below = [i for i in range(len(basis)) if M[i][0] < 0]
        assert row == min(below, key=lambda i: basis[i])
        r, z = M[row], M[-1]
        ratios = {j: Fraction(z[j], -r[j]) for j in range(1, len(r))
                  if r[j] < 0}
        least = min(ratios.values())
        tied = [j for j, q in ratios.items() if q == least]
        assert col == tied[0]
        ties.append((tied, least))
        return pivot(M, basis, d, row, col)

    monkeypatch.setattr(ratlp, "_pivot", checked)
    # -x - y <= -1 leaves its slack at -1; x+ (column 1) and y+ (column 3)
    # both price out at ratio 0, and x+ enters
    lp = reoptimize(MarginLp(2), weak_rows=[([-1, -1], -1)])
    assert ties == [([1, 3], 0)] and lp.basis == [5, 1] and lp.margin == 1
    # two rows below zero at once: the slack of least index leaves first
    ties.clear()
    lp = reoptimize(MarginLp(2), weak_rows=[([0, -1], -2), ([-1, 0], -1)])
    assert [t[0][0] for t in ties] == [3, 1] and lp.margin == 1
    # a tie at a positive ratio
    ties.clear()
    lp = reoptimize(MarginLp(1), weak_rows=[([-1], 0)],
                    strict_rows=[([2], 0), ([0], -2)])
    assert any(len(tied) > 1 and least > 0 for tied, least in ties)
    assert lp.margin == -2


def test_margin_lp_rejects_rows_of_the_wrong_length():
    with pytest.raises(ValueError):
        reoptimize(MarginLp(2), weak_rows=[([1], 0)])


def test_dual_simplex_fault_raises(monkeypatch):
    pivot = ratlp._pivot

    def corrupt(M, basis, d, row, col):
        d = pivot(M, basis, d, row, col)
        M[-1][1] = -1
        return d

    monkeypatch.setattr(ratlp, "_pivot", corrupt)
    with pytest.raises(DualSimplexFault):
        reoptimize(MarginLp(1), weak_rows=[([-1], -1)])
