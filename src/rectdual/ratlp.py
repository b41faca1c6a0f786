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
