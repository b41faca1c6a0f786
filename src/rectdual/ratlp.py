"""Exact linear programming over the rationals.

Dense two-phase simplex with Bland's rule, intended for the small systems
this package produces (a handful of variables, tens of rows). Strict
inequalities are handled by maximizing a shared margin variable.

The tableau is integer-preserving (Edmonds 1967, Bareiss 1968): integer
rows M over one common positive denominator D stand for the rational
tableau T = M / D. The input rows are scaled by the lcm L of all
constraint denominators, the slack and artificial columns keep
coefficient 1, and D starts at 1. A pivot on p = M[r][c] leaves row r as
it is, replaces every other row i by (p * M[i] - M[i][c] * M[r]) / D and
sets D = p (negating M and D if p < 0). Each division is exact by
Sylvester's identity: D is, up to sign, the determinant of the basis,
and M is D times its inverse applied to the scaled input. The reduced
costs are one more row of M that the same pivots update.

The pivots are the ones Bland's rule takes over Fractions. Scaling all
rows by one L leaves the canonical tableau as it is. Scaling a column by
a positive factor (each slack and each artificial, with coefficient 1,
reads L times its variable) or the objective (the phase-two costs by the
lcm of their denominators) multiplies every reduced cost by a positive
number, and all ratios of one column's ratio test by the same positive
number. So the same column enters, the same row leaves, and the
structural columns, and with them the witness, are those of the
rational tableau. The input is read through the numerators and
denominators of its ints and Fractions, with no Fraction copies; only
the result is converted back.

MarginLp keeps strict_feasible's problem as an optimal tableau of the
same kind, for callers that solve a chain of systems, each its parent
plus a few rows (the sign-case scan in stabbing). reoptimize adds the
rows in canonical form with their slacks basic and re-optimizes by the
dual simplex. Adding rows leaves the reduced costs as they are, so the
parent's optimal basis stays dual feasible, and the dual simplex keeps
it so while it drives the new rows' negative slacks out; it stops at an
optimal tableau of the whole system or at a row proving the weak part
infeasible. Its pivots are exact integer-preserving ones (_pivot), so
the margin it reads is the exact optimum, which is unique whatever basis
reaches it; the witness vertex is not, so callers that need the cold
solve's witness solve cold. The smallest-index rule on leaving rows and
entering columns is Bland's rule applied to the dual problem, so no
basis repeats and the loop ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LE, GE, EQ = "<=", ">=", "=="


class PhaseOneUnbounded(RuntimeError):
    """Phase one reported an unbounded minimum; its objective, a sum of
    nonnegative artificials, is bounded below by 0, so this is a fault."""


class DualSimplexFault(RuntimeError):
    """The dual simplex lost dual feasibility (a negative reduced cost
    after a pivot), or a margin it found disagrees with a cold solve of
    the same system; exact pivoting can do neither, so this is a fault."""


@dataclass
class LpResult:
    status: str
    x: tuple = None
    value: Fraction = None


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


def _simplex_min(M, basis, d):
    """Bland's rule minimization over the denominator d.

    M holds the constraint rows [A | b] in canonical form, then the
    reduced-cost row. Returns the status and the final denominator.
    """
    m = len(basis)
    while True:
        z = M[-1]
        enter = next((j for j in range(len(z) - 1) if z[j] < 0), -1)
        if enter < 0:
            return OPTIMAL, d
        leave = -1
        for i in range(m):
            a = M[i][enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                # ratios M[i][-1] / a against the best so far, cross-multiplied
                lhs = M[i][-1] * M[leave][enter]
                rhs = M[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            return UNBOUNDED, d
        d = _pivot(M, basis, d, leave, enter)


def _scaled(values, scale):
    return [v.numerator * (scale // v.denominator) for v in values]


def solve_lp(objective, constraints, maximize=False) -> LpResult:
    """Optimize a linear objective over free variables.

    constraints is a list of (coeffs, rel, rhs) with rel in {"<=", ">=",
    "=="}. Every variable is free; internally split into two nonnegative
    parts. Returns OPTIMAL with a witness, INFEASIBLE, or UNBOUNDED.
    """
    nv = len(objective)
    obj = [-c for c in objective] if maximize else list(objective)
    cons = list(constraints)
    scale = lcm(*(v.denominator for coeffs, _, rhs in cons
                  for v in (*coeffs, rhs)))
    m = len(cons)
    width = 2 * nv + sum(1 for _, rel, _ in cons if rel != EQ)
    # phase 1 with one artificial per row
    M = []
    si = 2 * nv
    for i, (coeffs, rel, rhs) in enumerate(cons):
        sign = -1 if rel == GE else 1
        *coeffs, rhs = _scaled((*coeffs, rhs), scale)
        row = [0] * (width + m + 1)
        for j, c in enumerate(coeffs):
            row[2 * j] = sign * c
            row[2 * j + 1] = -sign * c
        if rel != EQ:
            row[si] = 1
            si += 1
        row[-1] = sign * rhs
        if row[-1] < 0:
            row = [-v for v in row]
        row[width + i] = 1
        M.append(row)
    z = [-sum(col) for col in zip(*M)] if M else [0] * (width + 1)
    z[width:-1] = [0] * m
    M.append(z)
    basis = [width + i for i in range(m)]
    status, d = _simplex_min(M, basis, 1)
    if status != OPTIMAL:
        raise PhaseOneUnbounded("phase one of the simplex is unbounded")
    if M.pop()[-1] != 0:  # the reduced-cost row ends in -D * L * (phase-1 min)
        return LpResult(INFEASIBLE)
    # drive surviving artificials out of the basis, drop redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= width:
            col = next((j for j in range(width) if M[i][j] != 0), None)
            if col is None:
                continue  # redundant row
            d = _pivot(M, basis, d, i, col)
        keep.append(i)
    M = [M[i][:width] + [M[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    cost = [0] * width
    for j, c in enumerate(_scaled(obj, lcm(*(c.denominator for c in obj)))):
        cost[2 * j] = c
        cost[2 * j + 1] = -c
    z = [d * c for c in cost] + [0]
    for i, b in enumerate(basis):
        if cost[b]:
            z = [a - cost[b] * v for a, v in zip(z, M[i])]
    M.append(z)
    status, d = _simplex_min(M, basis, d)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED)
    x = [0] * width
    for i, b in enumerate(basis):
        x[b] = M[i][-1]
    point = tuple(Fraction(x[2 * j] - x[2 * j + 1], d) for j in range(nv))
    value = sum((o * v for o, v in zip(obj, point)), Fraction(0))
    if maximize:
        value = -value
    return LpResult(OPTIMAL, point, value)


def feasible_point(constraints, nvars) -> LpResult:
    """Plain feasibility; constraints as in solve_lp."""
    return solve_lp([0] * nvars, constraints)


def strict_feasible(nvars, eq_rows=(), weak_rows=(), strict_rows=()):
    """Decide a mixed weak/strict linear system exactly.

    Rows are (coeffs, rhs) meaning coeffs . x == rhs for eq_rows,
    <= rhs for weak_rows, and < rhs for strict_rows. Returns
    (feasible, witness, margin): strict rows are tightened by a shared
    margin which is then maximized (capped at 1), so feasibility of the
    strict system is equivalent to a positive optimal margin.
    """
    cons = []
    for coeffs, rhs in eq_rows:
        cons.append((list(coeffs) + [0], EQ, rhs))
    for coeffs, rhs in weak_rows:
        cons.append((list(coeffs) + [0], LE, rhs))
    for coeffs, rhs in strict_rows:
        cons.append((list(coeffs) + [1], LE, rhs))
    cons.append(([0] * nvars + [1], LE, 1))
    obj = [0] * nvars + [1]
    res = solve_lp(obj, cons, maximize=True)
    if res.status != OPTIMAL:
        return False, None, None
    if res.value <= 0:
        return False, None, res.value
    return True, res.x[:nvars], res.value


class MarginLp:
    """strict_feasible's problem, kept as an optimal tableau rows can be
    added to: maximize the margin t subject to t <= 1, with every unknown
    free. The root holds only the row t <= 1; reoptimize adds rows.

    status is OPTIMAL, with the exact optimal margin, or INFEASIBLE (the
    weak system is infeasible), with margin None. The tableau rows are
    integer-preserving as in solve_lp, over the denominator d: column 0
    is the right-hand side, then the split parts of the unknowns and of
    t, then one slack per row in the order the rows came; the last row
    holds d times [-objective | reduced costs] for minimizing -t.
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


def reoptimize(lp: MarginLp, eq_rows=(), weak_rows=(),
               strict_rows=()) -> MarginLp:
    """A copy of lp with the rows added, re-optimized; lp is unchanged.

    Rows are as in strict_feasible; an equality becomes two <= rows, a
    strict row gets the margin's coefficient 1. Each new row r, scaled
    to integers by the lcm of its own denominators, is put into
    canonical form over the current denominator as
    d * r - sum_i r[basis[i]] * rows[i], with its slack basic. Neither
    step touches the reduced costs, so the tableau stays dual feasible,
    and the dual simplex re-optimizes it (see _dual_simplex).
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
        vals = (*coeffs, margin, rhs)
        *vals, rhs = _scaled(vals, lcm(*(v.denominator for v in vals)))
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
