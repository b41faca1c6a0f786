"""Exact margin linear programs over the rationals.

One problem, one routine. A mixed system of weak (<=) and strict (<)
rows over free unknowns is decided by its margin LP: maximize a shared
margin t, subtracted from every strict row, subject to t <= 1. The
strict system is feasible exactly when the optimal margin is positive.
An equality is written as two weak rows. The systems this package
produces are small: a handful of unknowns and tens of rows.

strict_feasible builds the tableau in one pass, the cap row t <= 1 with
t basic, then each input row with its own slack basic, and solves it by
the dual simplex. That basis is dual feasible, since every reduced cost
is 0 except the cap slack's, which is 1; the dual simplex keeps it so
while it drives the rows' negative slacks out.

No system is unbounded: the unknowns are free but do not enter the
objective, and the cap bounds -t below by -1. So the dual simplex ends
in one of two ways: at an optimal tableau, whose margin is the exact
optimum, or at a row proving the weak part infeasible. The optimal
margin is unique whatever basis reaches it; the witness, the basic
solution's unknowns, is a vertex that depends on the pivots taken. The
smallest-index rule on leaving rows and entering columns is Bland's
rule applied to the dual problem (Bland, "New finite pivoting rules for
the simplex method", 1977), so no basis repeats and the loop ends.

The tableau is integer-preserving (Edmonds 1967, Bareiss 1968): integer
rows M over one common positive denominator D stand for the rational
tableau T = M / D. Each input row is scaled to integers by the lcm of its
own denominators, its slack keeps coefficient 1, and the start has D = 1.
A pivot on p = M[r][c] leaves row r as it is, replaces every other row i
by (p * M[i] - M[i][c] * M[r]) / D and sets D = p (negating M and D if
p < 0). Each division is exact by Sylvester's identity: D is, up to
sign, the determinant of the basis, and M is D times its inverse applied
to the scaled input. The reduced costs are one more row of M that the
same pivots update. Scaling a row or a slack column by a positive factor
scales the ratios the pivot rules compare by positive factors that they
share, so the pivots are the ones the rational tableau takes. Only ints
and Fractions are read, through their numerators and denominators;
anything else is refused with a TypeError.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

__all__ = ["DualSimplexFault", "strict_feasible"]


class DualSimplexFault(RuntimeError):
    """The dual simplex lost dual feasibility (a negative reduced cost
    after a pivot); exact pivoting cannot, so this is a fault."""


def _pivot(M, basis, d, row, col):
    """Pivot on (row, col) over the denominator d; returns the new one."""
    p = M[row][col]
    pr = M[row]
    for i, r in enumerate(M):
        if i == row:
            continue
        f = r[col]
        if f:
            M[i] = [(p * a - f * b) // d for a, b in zip(r, pr)]
        elif p != d:
            M[i] = [p * a // d for a in r]
    basis[row] = col
    if p < 0:
        M[:] = [[-a for a in r] for r in M]
        p = -p
    return p


def _integer_row(values):
    """values scaled to integers by the lcm of their denominators."""
    for v in values:
        if type(v) is not int and type(v) is not Fraction:
            raise TypeError(f"LP data {v!r} is not an int or a Fraction")
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def strict_feasible(nvars, weak_rows=(), strict_rows=()):
    """Decide a mixed weak/strict linear system exactly.

    Rows are (coeffs, rhs) meaning coeffs . x <= rhs for weak_rows and
    < rhs for strict_rows. Returns (feasible, witness, margin): strict
    rows are tightened by a shared margin which is then maximized
    (capped at 1), so feasibility of the strict system is equivalent to
    a positive optimal margin. margin is None when the weak part alone
    is infeasible, and the witness is None unless the system is
    feasible.

    Tableau columns: the right-hand side, the split parts x_j+ (column
    2j+1) and x_j- (column 2j+2) of the unknowns and of t (unknown
    nvars), then one slack per row. Rows: the cap, the weak rows, the
    strict rows, then d times [-objective | reduced costs] for
    minimizing -t. An input row scaled to integers as (coeffs, m, rhs),
    m the margin's coefficient, is put in canonical form by subtracting
    m times the cap row. An nvars that is not an int (bools included)
    and data other than ints and Fractions raise TypeError; a negative
    nvars or a row of the wrong length raises ValueError.
    """
    if type(nvars) is not int:
        raise TypeError(f"nvars {nvars!r} is not an int")
    if nvars < 0:
        raise ValueError(f"nvars {nvars} is negative")
    t = 2 * nvars + 1  # column of the positive part of t
    rows = [(r, 0) for r in weak_rows] + [(r, 1) for r in strict_rows]
    width = t + 3 + len(rows)
    cap = [0] * width
    cap[0] = cap[t] = cap[t + 2] = 1
    cap[t + 1] = -1
    M = [cap]
    for slack, ((coeffs, rhs), margin) in enumerate(rows, t + 3):
        if len(coeffs) != nvars:
            raise ValueError(f"row has {len(coeffs)} coefficients, "
                             f"not {nvars}")
        *vals, m, rhs = _integer_row((*coeffs, margin, rhs))
        row = [0] * width
        row[0] = rhs - m
        for j, c in enumerate(vals):
            row[2 * j + 1] = c
            row[2 * j + 2] = -c
        row[t + 2] = -m
        row[slack] = 1
        M.append(row)
    z = [0] * width
    z[0] = z[t + 2] = 1
    M.append(z)
    basis = [t, *range(t + 3, width)]
    d = _dual_simplex(M, basis, 1)
    if d is None:
        return False, None, None
    margin = Fraction(M[-1][0], d)
    if margin <= 0:
        return False, None, margin
    value = {col: row[0] for row, col in zip(M, basis)}  # nonbasic: 0
    return True, tuple(
        Fraction(value.get(2 * j + 1, 0) - value.get(2 * j + 2, 0), d)
        for j in range(nvars)), margin


def _dual_simplex(M, basis, d):
    """Dual simplex under the smallest-index rule, over the denominator
    d, from a dual-feasible tableau laid out as in strict_feasible.

    The leaving row holds the basic variable of least index among those
    below zero; the entering column is the least index among the least
    ratios z_j / -a_j over that row's a_j < 0. This is Bland's rule on
    the dual problem, so no basis repeats and the loop ends. Each pivot
    keeps every reduced cost nonnegative; the loop stops at a primal
    feasible tableau, which is then optimal, or at a leaving row with no
    a_j < 0: a sum of nonnegative terms set equal to a negative number,
    so the system is infeasible. Returns the final denominator at an
    optimal tableau, or None when the system is infeasible.
    """
    m = len(basis)
    while True:
        leave = -1
        for i in range(m):
            if M[i][0] < 0 and (leave < 0 or basis[i] < basis[leave]):
                leave = i
        if leave < 0:
            return d
        r = M[leave]
        z = M[-1]
        enter = -1
        for j in range(1, len(r)):
            a = r[j]
            # z_j / -a < z_e / -r[e], cross-multiplied
            if a < 0 and (enter < 0 or z[j] * r[enter] > z[enter] * a):
                enter = j
        if enter < 0:
            return None
        d = _pivot(M, basis, d, leave, enter)
        if min(M[-1][1:]) < 0:
            raise DualSimplexFault(
                f"negative reduced cost after pivoting on column {enter}")
