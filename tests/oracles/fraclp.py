"""Reference exact LP: a Fraction two-phase simplex with Bland's rule.

A frozen copy of the Fraction tableau simplex that rectdual.ratlp
replaced with an integer-preserving one. The oracles solve their own LPs
with it, so they do not check ratlp with ratlp, and the equivalence tests
compare ratlp against it. Same API as rectdual.ratlp, plus eq_rows,
which ratlp takes as pairs of weak rows. Strict inequalities are
handled by maximizing a shared margin variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LE, GE, EQ = "<=", ">=", "=="


@dataclass
class LpResult:
    status: str
    x: tuple = None
    value: Fraction = None


def _pivot(T, basis, row, col):
    piv = T[row][col]
    T[row] = [v / piv for v in T[row]]
    for i in range(len(T)):
        if i != row and T[i][col] != 0:
            f = T[i][col]
            T[i] = [a - f * b for a, b in zip(T[i], T[row])]
    basis[row] = col


def _simplex_min(T, basis, cost):
    """Bland's rule minimization; T rows are [A | b] in canonical form."""
    m = len(T)
    ncols = len(T[0]) - 1
    while True:
        cb = [cost[basis[i]] for i in range(m)]
        enter = -1
        for j in range(ncols):
            rc = cost[j] - sum(cb[i] * T[i][j] for i in range(m) if T[i][j] != 0)
            if rc < 0:
                enter = j
                break
        if enter < 0:
            return OPTIMAL
        leave = -1
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][-1] / T[i][enter]
                if best is None or ratio < best or \
                        (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return UNBOUNDED
        _pivot(T, basis, leave, enter)


def solve_lp(objective, constraints, maximize=False) -> LpResult:
    """Optimize a linear objective over free variables.

    constraints is a list of (coeffs, rel, rhs) with rel in {"<=", ">=",
    "=="}. Every variable is free; internally split into two nonnegative
    parts. Returns OPTIMAL with a witness, INFEASIBLE, or UNBOUNDED.
    """
    nv = len(objective)
    obj = [Fraction(c) for c in objective]
    if maximize:
        obj = [-c for c in obj]

    rows = []
    slack_count = sum(1 for _, rel, _ in constraints if rel != EQ)
    width = 2 * nv + slack_count
    si = 2 * nv
    for coeffs, rel, rhs in constraints:
        coeffs = [Fraction(c) for c in coeffs]
        rhs = Fraction(rhs)
        if rel == GE:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            rel = LE
        row = [Fraction(0)] * (width + 1)
        for j, c in enumerate(coeffs):
            row[2 * j] = c
            row[2 * j + 1] = -c
        if rel == LE:
            row[si] = Fraction(1)
            si += 1
        row[-1] = rhs
        if rhs < 0:
            row = [-v for v in row]
        rows.append(row)

    m = len(rows)
    # phase 1 with one artificial per row
    T = []
    for i, row in enumerate(rows):
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        T.append(row[:-1] + art + [row[-1]])
    basis = [width + i for i in range(m)]
    cost1 = [Fraction(0)] * width + [Fraction(1)] * m
    status = _simplex_min(T, basis, cost1)
    assert status == OPTIMAL  # phase 1 is always bounded below by 0
    val1 = sum(cost1[basis[i]] * T[i][-1] for i in range(m))
    if val1 != 0:
        return LpResult(INFEASIBLE)
    # drive surviving artificials out of the basis, drop redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= width:
            col = next((j for j in range(width) if T[i][j] != 0), None)
            if col is None:
                continue  # redundant row
            _pivot(T, basis, i, col)
        keep.append(i)
    T = [T[i][:width] + [T[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    cost2 = [Fraction(0)] * width
    for j in range(nv):
        cost2[2 * j] = obj[j]
        cost2[2 * j + 1] = -obj[j]
    status = _simplex_min(T, basis, cost2)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED)
    x = [Fraction(0)] * width
    for i, b in enumerate(basis):
        x[b] = T[i][-1]
    point = tuple(x[2 * j] - x[2 * j + 1] for j in range(nv))
    value = sum(o * v for o, v in zip(obj, point))
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
