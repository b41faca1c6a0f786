"""Independent checks for hyperplane stabbing of flagged convex sets.

Decision logic here is deliberately separate from the package: meeting a
fixed hyperplane is decided by a feasibility LP over convex-combination
weights, and membership in the concrete set families is hand-coded from
their closed-form descriptions. Two references stand for
stabbing._first_feasible, both with the package's atom filter and
solve_case, which solves a case's whole system at once with
ratlp.strict_feasible: flat_first_feasible solves every combined sign
case on its own, and cold_first_feasible is the same depth-first scan
solving each node at once instead of re-optimizing its parent's tableau.
FracMarginLp and frac_reoptimize stand in for ratlp's margin LP with the
Fraction simplex.
"""

from fractions import Fraction
from itertools import product
from math import prod

from oracles.fraclp import EQ, LE, OPTIMAL, feasible_point, strict_feasible
from rectdual import ratlp
from rectdual.stabbing import _atoms_conflict, _refutation, _rows_for_case


def _functional(vertices, face):
    """Supporting affine functional of an exposed face, solved directly."""
    d = len(vertices[0])
    cons = []
    on = set(face)
    for i, v in enumerate(vertices):
        row = list(v) + [-1]
        cons.append((row, EQ if i in on else LE, 0 if i in on else -1))
    res = feasible_point(cons, d + 1)
    assert res.status == OPTIMAL, f"not a face: {face}"
    return res.x[:d], res.x[d]


def set_functionals(fset):
    return [_functional(fset.vertices, f) for f in fset.excluded_faces]


def lp_meets(fset, coeffs, functionals=None):
    """Does the hyperplane meet the flagged set? One strict LP over the
    convex-combination weights."""
    if functionals is None:
        functionals = set_functionals(fset)
    verts = fset.vertices
    m = len(verts)
    vals = [sum(c * x for c, x in zip(coeffs, v)) + coeffs[-1] for v in verts]
    eq = [([1] * m, 1), (vals, 0)]
    weak = []
    for j in range(m):
        row = [0] * m
        row[j] = -1
        weak.append((row, 0))
    strict = []
    for a, c in functionals:
        strict.append(([sum(ai * vi for ai, vi in zip(a, v)) - c
                        for v in verts], 0))
    ok, _, _ = strict_feasible(m, eq, weak, strict)
    return ok


# closed-form membership for the built-in families (unit short side)

def in_regular(i, b, pt):
    b = Fraction(b)
    x, y, z = pt
    if i == 0:
        return x == y == z and -b <= x <= -1
    if i == 1:
        return y == z == -x and 1 <= x <= b
    if i == 2:
        return z == -y and 1 <= y <= b and abs(x) < y
    return 1 <= z <= b and abs(x) < z and abs(y) < z


def in_singular(i, b, pt):
    b = Fraction(b)
    x, y, z = pt
    if i == 0:
        return y == z and -b <= y <= -1 and abs(x) < -y
    if i == 1:
        return z == -y and 1 <= y <= b and abs(x) < y
    if i == 2:
        return x == -z and 1 <= z <= b and abs(y) < z
    return x == z and 1 <= z <= b and abs(y) < z


def in_planar(i, b, pt):
    h = Fraction(b) / 2
    q = Fraction(1, 2)
    x, y = pt
    if i == 0:
        return -h <= x <= -q and -h <= y <= -q
    if i == 1:
        return -h <= x <= -q and q <= y <= h
    return q <= x <= h and -h < y <= h


def solve_case(prefix, dim, cond):
    """One sign case, all its rows at once: (witness, None) or (None,
    reason)."""
    nvars = dim + 1 - len(prefix)
    ok, x, margin = ratlp.strict_feasible(nvars,
                                          *_rows_for_case(prefix, cond))
    if ok:
        return tuple(prefix) + x, None
    return None, _refutation(margin)


def flat_first_feasible(prefix, dim, per_set_conditions, certificate, label):
    """Flat scan of the product of per-set sign cases, last set fastest:
    one atom check and one LP per case, every case counted."""
    count = 0
    found = None
    for combo in product(*per_set_conditions):
        count += 1
        if found is not None:
            continue
        cond = tuple(atom for c in combo for atom in c)
        if _atoms_conflict(prefix, cond):
            certificate.append((f"{label}#{count}", "sign atoms conflict"))
            continue
        witness, reason = solve_case(prefix, dim, cond)
        if witness is not None:
            found = witness
        else:
            certificate.append((f"{label}#{count}", reason))
    return found, count


def cold_first_feasible(prefix, dim, per_set_conditions, certificate, label):
    """Depth-first scan of the product of per-set sign cases, last set
    fastest, with one cold LP on every node's accumulated atoms; an
    infeasible node refutes its subtree under a reason naming its sets."""
    sizes = [len(c) for c in per_set_conditions]
    last = len(sizes) - 1
    refuted = 0

    def refute(depth, reason):
        nonlocal refuted
        if depth < last:
            sets = f"sets 0-{depth}" if depth else "set 0"
            reason = f"{sets} infeasible: {reason}"
        for _ in range(prod(sizes[depth + 1:])):
            refuted += 1
            certificate.append((f"{label}#{refuted}", reason))

    def scan(depth, atoms):
        for cond in per_set_conditions[depth]:
            node = atoms + cond
            if _atoms_conflict(prefix, node):
                witness, reason = None, "sign atoms conflict"
            else:
                witness, reason = solve_case(prefix, dim, node)
            if witness is None:
                refute(depth, reason)
            elif depth == last:
                return witness
            else:
                witness = scan(depth + 1, node)
                if witness is not None:
                    return witness
        return None

    if not sizes:
        return solve_case(prefix, dim, ())[0], 1
    return scan(0, ()), prod(sizes)


class FracMarginLp:
    """The margin LP of the rows accumulated so far, solved from scratch
    by the Fraction simplex; margin is None when the weak part is
    infeasible, and witness() is None unless the system is feasible."""

    def __init__(self, nvars, eq_rows=(), weak_rows=(), strict_rows=()):
        self.nvars = nvars
        self.eq_rows, self.weak_rows, self.strict_rows = \
            list(eq_rows), list(weak_rows), list(strict_rows)
        _, self.x, self.margin = strict_feasible(nvars, eq_rows, weak_rows,
                                                 strict_rows)

    def witness(self):
        return self.x


def frac_reoptimize(lp, eq_rows=(), weak_rows=(), strict_rows=()):
    return FracMarginLp(lp.nvars, lp.eq_rows + list(eq_rows),
                        lp.weak_rows + list(weak_rows),
                        lp.strict_rows + list(strict_rows))
