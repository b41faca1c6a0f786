from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rectdual import ratlp
from rectdual.ratlp import DualSimplexFault, strict_feasible

from oracles import fraclp


def _eq(rows):
    """Equalities as weak rows: (c, r) then (-c, -r) for each."""
    return [row for c, r in rows for row in ((c, r), ([-a for a in c], -r))]


def test_simple_max():
    # the strict row x + y > 9/2 has margin x + y - 9/2, largest at (3, 2)
    res = strict_feasible(2, weak_rows=[([1, 0], 3), ([0, 1], 2)],
                          strict_rows=[([-1, -1], -Fraction(9, 2))])
    assert res == (True, (3, 2), Fraction(1, 2))


def test_simple_min():
    # x >= 2 and x < 5/2: the margin 5/2 - x is largest at x = 2
    res = strict_feasible(1, weak_rows=[([-1], -2)],
                          strict_rows=[([1], Fraction(5, 2))])
    assert res == (True, (2,), Fraction(1, 2))


def test_infeasible():
    res = strict_feasible(1, weak_rows=[([1], 1), ([-1], -2)])
    assert res == (False, None, None)


def test_unbounded():
    # x may grow without bound, and so would the margin of x > 0 without
    # the cap t <= 1: no system is unbounded
    ok, x, margin = strict_feasible(1, weak_rows=[([-1], 0)],
                                    strict_rows=[([-1], 0)])
    assert ok and margin == 1 and x[0] >= 1


def test_equalities_exact():
    res = strict_feasible(2, weak_rows=_eq([([2, 3], 7), ([1, -1], 1)]))
    assert res == (True, (2, 1), 1)


def test_fractional_data_stays_exact():
    ok, x, margin = strict_feasible(1, weak_rows=[([1], Fraction(1, 7))],
                                    strict_rows=[([-Fraction(1, 3)], 0)])
    assert ok and x == (Fraction(1, 7),) and margin == Fraction(1, 21)
    assert isinstance(margin, Fraction)
    assert all(isinstance(v, Fraction) for v in x)


def test_redundant_equalities():
    eq = [([1, 1], 1), ([2, 2], 2), ([1, -1], 0)]
    res = strict_feasible(2, weak_rows=_eq(eq))
    assert res == (True, (Fraction(1, 2), Fraction(1, 2)), 1)


def test_redundant_row_then_unbounded():
    # x + y = 1 twice leaves x free to grow: the margin of x > 0 reads
    # the cap
    ok, x, margin = strict_feasible(2, weak_rows=_eq([([1, 1], 1)] * 2),
                                    strict_rows=[([-1, 0], 0)])
    assert ok and margin == 1
    assert x[0] + x[1] == 1 and x[0] >= 1


def test_beale_cycling_example_terminates():
    # classic degenerate instance that cycles under naive pivoting, as a
    # weak system; the strict row c.x < 0 has margin -c.x, and the least
    # c.x over the rows is -1/20
    F = Fraction
    weak = [
        ([F(1, 4), -60, -F(1, 25), 9], 0),
        ([F(1, 2), -90, -F(1, 50), 3], 0),
        ([0, 0, 1, 0], 1),
        ([-1, 0, 0, 0], 0),
        ([0, -1, 0, 0], 0),
        ([0, 0, -1, 0], 0),
        ([0, 0, 0, -1], 0),
    ]
    c = [-F(3, 4), 150, -F(1, 50), 6]
    ok, x, margin = strict_feasible(4, weak_rows=weak, strict_rows=[(c, 0)])
    assert ok and margin == F(1, 20)
    assert sum(a * v for a, v in zip(c, x)) == -F(1, 20)
    for row, rhs in weak:
        assert sum(a * v for a, v in zip(row, x)) <= rhs


def test_feasible_point():
    ok, (x, y), margin = strict_feasible(
        2, weak_rows=_eq([([1, 1], 2)]) + [([1, -1], 0)])
    assert ok and margin == 1
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
    # x <= 0 and -x < 0 meet only at x = 0: the margin is exactly 0
    assert strict_feasible(1, weak_rows=[([1], 0)],
                           strict_rows=[([-1], 0)]) == (False, None, 0)


def test_strict_with_equalities():
    ok, x, _ = strict_feasible(
        2, weak_rows=_eq([([1, 1], 1)]), strict_rows=[([1, -1], 0)])
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


def test_no_rows():
    # the root alone: every unknown at 0 and the margin at its cap
    for nv in (0, 1, 3):
        assert strict_feasible(nv) == (True, (0,) * nv, 1)
    # zero rows that hold change nothing; one that fails decides
    assert strict_feasible(1, weak_rows=_eq([([0], 0)]) + [([0], 3)]) == \
        (True, (0,), 1)
    assert strict_feasible(1, weak_rows=[([0], -3)]) == (False, None, None)
    assert strict_feasible(1, weak_rows=[([1], 0), ([0], -1)]) == \
        (False, None, None)
    assert strict_feasible(1, strict_rows=[([0], 0)]) == (False, None, 0)


@pytest.mark.parametrize("rows", [
    {"weak_rows": [([0.5], 1)]},
    {"weak_rows": _eq([([1], 0.25)])},
    {"strict_rows": [(["1"], 0)]},
    {"weak_rows": [([True], 1)]},
])
def test_inexact_data_refused(rows):
    with pytest.raises(TypeError):
        strict_feasible(1, **rows)


@pytest.mark.parametrize("nvars, error", [
    (-1, ValueError), (True, TypeError), (1.0, TypeError), ("2", TypeError),
])
def test_nvars_refused(nvars, error):
    with pytest.raises(error):
        strict_feasible(nvars)


# --- against the frozen Fraction simplex ---------------------------------

_q = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))


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


def _dot(coeffs, x):
    return sum((c * v for c, v in zip(coeffs, x)), Fraction(0))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(row_batches())
def test_matches_fraction_oracle(case):
    # same verdict and margin as the two-phase Fraction simplex, which
    # takes the equalities as such; the witness is a vertex either engine
    # may pick, so it is re-checked row by row instead of compared
    nv, batches = case
    rows = [row for batch in batches for row in batch]
    eq, weak, strict = _split(rows)
    ok, x, margin = strict_feasible(nv, weak_rows=_eq(eq) + weak,
                                    strict_rows=strict)
    want_ok, _, want_margin = fraclp.strict_feasible(nv, eq, weak, strict)
    assert (ok, margin) == (want_ok, want_margin)
    if not ok:
        assert x is None
        return
    assert len(x) == nv and all(isinstance(v, Fraction) for v in x)
    assert all(_dot(c, x) == r for c, r in eq)
    assert all(_dot(c, x) <= r for c, r in weak)
    assert all(_dot(c, x) <= r - margin for c, r in strict)


def test_margin_lp_breaks_ratio_ties_by_least_index(monkeypatch):
    # every pivot takes the least basic index below zero to leave and
    # the least column index among the least ratios to enter; the log
    # keeps each pivot's tied columns and their ratio, and final holds
    # the basis after the last pivot
    ties, final = [], []
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
        d = pivot(M, basis, d, row, col)
        final[:] = basis
        return d

    monkeypatch.setattr(ratlp, "_pivot", checked)
    # -x - y <= -1 leaves its slack at -1; x+ (column 1) and y+ (column 3)
    # both price out at ratio 0, and x+ enters
    _, _, margin = strict_feasible(2, weak_rows=[([-1, -1], -1)])
    assert ties == [([1, 3], 0)] and final == [5, 1] and margin == 1
    # two rows below zero at once: the slack of least index leaves first
    ties.clear()
    _, _, margin = strict_feasible(2, weak_rows=[([0, -1], -2),
                                                 ([-1, 0], -1)])
    assert [t[0][0] for t in ties] == [3, 1] and margin == 1
    # a tie at a positive ratio
    ties.clear()
    _, _, margin = strict_feasible(1, weak_rows=[([-1], 0)],
                                   strict_rows=[([2], 0), ([0], -2)])
    assert any(len(tied) > 1 and least > 0 for tied, least in ties)
    assert margin == -2


def test_margin_lp_rejects_rows_of_the_wrong_length():
    for rows in ({"weak_rows": [([1], 0)]},
                 {"weak_rows": _eq([([1, 2, 3], 0)])},
                 {"strict_rows": [([], 0)]}):
        with pytest.raises(ValueError):
            strict_feasible(2, **rows)


def test_dual_simplex_fault_raises(monkeypatch):
    pivot = ratlp._pivot

    def corrupt(M, basis, d, row, col):
        d = pivot(M, basis, d, row, col)
        M[-1][1] = -1
        return d

    monkeypatch.setattr(ratlp, "_pivot", corrupt)
    with pytest.raises(DualSimplexFault):
        strict_feasible(1, weak_rows=[([-1], -1)])
