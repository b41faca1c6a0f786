"""Exact margin linear programs over the rationals.

One problem, one engine. A mixed system of equality, weak (<=) and
strict (<) rows over free unknowns is decided by its margin LP:
maximize a shared margin t, subtracted from every strict row, subject to
t <= 1. The strict system is feasible exactly when the optimal margin is
positive. The systems this package produces are small: a handful of
unknowns and tens of rows.

MarginLp holds the margin LP as an exact optimal tableau, and
reoptimize adds rows to a copy of it and re-optimizes by the dual
simplex. strict_feasible is reoptimize on the root: the root holds only
the row t <= 1, and its basis {t} is optimal, since the objective
(minimize -t) is as small as that row allows, and dual feasible, since
every reduced cost is 0 except the cap slack's, which is 1. Callers that
solve a chain of systems, each its parent plus a few rows (the sign-case
scan in stabbing), re-optimize the parent's tableau instead of the root.

No system is unbounded: the unknowns are free but do not enter the
objective, and the cap bounds -t below by -1. So the dual simplex ends
in one of two ways: at an optimal tableau, whose margin is the exact
optimum, or at a row proving the weak part infeasible. The optimal
margin is unique whatever basis reaches it; the witness, the basic
solution's unknowns, is a vertex that depends on the pivots taken.

Adding a row leaves the reduced costs as they are: each new row is put
into canonical form with its slack basic, so the tableau stays dual
feasible, and the dual simplex keeps it so while it drives the new rows'
negative slacks out. The smallest-index rule on leaving rows and
entering columns is Bland's rule applied to the dual problem (Bland,
"New finite pivoting rules for the simplex method", 1977), so no basis
repeats and the loop ends.

The tableau is integer-preserving (Edmonds 1967, Bareiss 1968): integer
rows M over one common positive denominator D stand for the rational
tableau T = M / D. Each input row is scaled to integers by the lcm of its
own denominators, its slack keeps coefficient 1, and the root has D = 1.
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

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


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


def strict_feasible(nvars, eq_rows=(), weak_rows=(), strict_rows=()):
    """Decide a mixed weak/strict linear system exactly.

    Rows are (coeffs, rhs) meaning coeffs . x == rhs for eq_rows,
    <= rhs for weak_rows, and < rhs for strict_rows. Returns
    (feasible, witness, margin): strict rows are tightened by a shared
    margin which is then maximized (capped at 1), so feasibility of the
    strict system is equivalent to a positive optimal margin. margin is
    None when the weak part alone is infeasible, and the witness is None
    unless the system is feasible.
    """
    lp = reoptimize(MarginLp(nvars), eq_rows, weak_rows, strict_rows)
    if lp.margin is None or lp.margin <= 0:
        return False, None, lp.margin
    return True, lp.witness(), lp.margin


class MarginLp:
    """strict_feasible's problem, kept as an optimal tableau rows can be
    added to: maximize the margin t subject to t <= 1, with every unknown
    free. The root holds only the row t <= 1; reoptimize adds rows.

    status is OPTIMAL, with the exact optimal margin, or INFEASIBLE (the
    weak system is infeasible), with margin None. The tableau rows are
    integer-preserving over the denominator d: column 0 is the right-hand
    side, then the split parts of the unknowns and of t, then one slack
    per row in the order the rows came; the last row holds d times
    [-objective | reduced costs] for minimizing -t.
    """

    __slots__ = ("nvars", "rows", "basis", "d", "status", "margin")

    def __init__(self, nvars):
        t = 2 * nvars + 1  # column of the positive part of t
        row = [0] * (t + 3)
        row[0] = row[t] = row[t + 2] = 1
        row[t + 1] = -1
        z = [0] * (t + 3)
        z[0] = z[t + 2] = 1
        self.nvars = nvars
        self.rows = [row, z]
        self.basis = [t]
        self.d = 1
        self.status = OPTIMAL
        self.margin = Fraction(1)

    def witness(self) -> tuple:
        """The unknowns at the tableau's basic solution: x_j is the value
        of column 2j+1 minus that of column 2j+2, over d. A point of the
        system when status is OPTIMAL."""
        value = [0] * (2 * self.nvars + 1)
        for row, col in zip(self.rows, self.basis):
            if col <= 2 * self.nvars:
                value[col] = row[0]
        return tuple(Fraction(value[2 * j + 1] - value[2 * j + 2], self.d)
                     for j in range(self.nvars))


def reoptimize(lp: MarginLp, eq_rows=(), weak_rows=(),
               strict_rows=()) -> MarginLp:
    """A copy of lp with the rows added, re-optimized; lp is unchanged.

    Rows are as in strict_feasible; an equality becomes two <= rows, a
    strict row gets the margin's coefficient 1. Each new row r, scaled
    to integers by the lcm of its own denominators, is put into
    canonical form over the current denominator as
    d * r - sum_i r[basis[i]] * rows[i], with its slack basic. Neither
    step touches the reduced costs, so the tableau stays dual feasible,
    and the dual simplex re-optimizes it (see _dual_simplex). A row of
    the wrong length raises ValueError; data other than ints and
    Fractions raises TypeError.
    """
    nv = lp.nvars
    new = []
    for coeffs, rhs in eq_rows:
        new += [(coeffs, 0, rhs, 1), (coeffs, 0, rhs, -1)]
    new += [(coeffs, 0, rhs, 1) for coeffs, rhs in weak_rows]
    new += [(coeffs, 1, rhs, 1) for coeffs, rhs in strict_rows]
    pad = [0] * len(new)
    M = [r + pad for r in lp.rows]
    z = M.pop()
    old = list(enumerate(lp.basis))
    basis = list(lp.basis)
    d = lp.d
    slack = len(z) - len(new)
    for coeffs, margin, rhs, sign in new:
        if len(coeffs) != nv:
            raise ValueError(f"row has {len(coeffs)} coefficients, "
                             f"not {nv}")
        *vals, rhs = _integer_row((*coeffs, margin, rhs))
        raw = [0] * len(z)
        raw[0] = sign * rhs
        for j, c in enumerate(vals):  # t is unknown nv
            raw[2 * j + 1] = sign * c
            raw[2 * j + 2] = -sign * c
        raw[slack] = 1
        row = [d * v for v in raw]
        for i, b in old:
            f = raw[b]
            if f:
                row = [a - f * v for a, v in zip(row, M[i])]
        M.append(row)
        basis.append(slack)
        slack += 1
    M.append(z)
    status, d = _dual_simplex(M, basis, d)
    out = MarginLp.__new__(MarginLp)
    out.nvars, out.rows, out.basis, out.d = nv, M, basis, d
    out.status = status
    out.margin = Fraction(M[-1][0], d) if status == OPTIMAL else None
    return out


def _dual_simplex(M, basis, d):
    """Dual simplex under the smallest-index rule, over the denominator
    d, from a dual-feasible tableau laid out as in MarginLp.

    The leaving row holds the basic variable of least index among those
    below zero; the entering column is the least index among the least
    ratios z_j / -a_j over that row's a_j < 0. This is Bland's rule on
    the dual problem, so no basis repeats and the loop ends. Each pivot
    keeps every reduced cost nonnegative; the loop stops at a primal
    feasible tableau, which is then optimal, or at a leaving row with no
    a_j < 0: a sum of nonnegative terms set equal to a negative number,
    so the system is infeasible. Returns the status and the final
    denominator.
    """
    m = len(basis)
    while True:
        leave = -1
        for i in range(m):
            if M[i][0] < 0 and (leave < 0 or basis[i] < basis[leave]):
                leave = i
        if leave < 0:
            return OPTIMAL, d
        r = M[leave]
        z = M[-1]
        enter = -1
        for j in range(1, len(r)):
            a = r[j]
            # z_j / -a < z_e / -r[e], cross-multiplied
            if a < 0 and (enter < 0 or z[j] * r[enter] > z[enter] * a):
                enter = j
        if enter < 0:
            return INFEASIBLE, d
        d = _pivot(M, basis, d, leave, enter)
        if min(M[-1][1:]) < 0:
            raise DualSimplexFault(
                f"negative reduced cost after pivoting on column {enter}")
