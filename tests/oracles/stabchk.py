"""Independent checks for hyperplane stabbing of the built-in families.

Decision logic here is deliberately separate from the package, and every
LP is solved by the Fraction simplex of oracles.fraclp.

- hull_sets describes each class as rectdual.stabbing once did: the
  convex hull of its vertices minus excluded closed faces. lp_meets
  decides whether a fixed hyperplane meets such a set by one strict LP
  over convex-combination weights.
- in_regular, in_singular and in_planar are closed-form memberships.
- case_margin rebuilds one sign case of a verdict from its label, with
  its own interval tables (interval_sets) and the interval-sum rule,
  over every coefficient and c, the fixed coefficients held by equality
  rows; case_labels lists every label a family's cases must carry.
"""

from fractions import Fraction
from itertools import product
from typing import NamedTuple

from oracles.fraclp import EQ, LE, OPTIMAL, feasible_point, strict_feasible

CODES = {
    "regular": ("---", "+--", "*+-", "**+"),
    "singular": ("*--", "*+-", "-*+", "+*+"),
}
_SIGNS = {"-": (-1,), "+": (1,), "*": (-1, 1)}


class Hull(NamedTuple):
    vertices: tuple
    functionals: tuple  # (a, c) per excluded face: a.v = c on it


def _functional(vertices, face):
    """Supporting affine functional of an exposed face, solved directly."""
    d = len(vertices[0])
    cons = []
    on = set(face)
    for i, v in enumerate(vertices):
        row = list(v) + [-1]
        cons.append((row, EQ if i in on else LE, 0 if i in on else -1))
    res = feasible_point(cons, d + 1)
    if res.status != OPTIMAL:
        raise ValueError(f"not a face: {face}")
    return res.x[:d], res.x[d]


def _hull(vertices, faces=()):
    vertices = tuple(tuple(Fraction(x) for x in v) for v in vertices)
    return Hull(vertices, tuple(_functional(vertices, f) for f in faces))


def hull_sets(kind, b):
    """The classes of a family as hulls minus faces. A 3d class is the
    hull of s and b.s over the sign vectors s of its code, minus, for
    each free coordinate and each sign, the face of the vertices on that
    side; the planar third box has its lower side excluded."""
    b = Fraction(b)
    if kind == "planar":
        h, q = b / 2, Fraction(1, 2)
        return [_hull(((-h, -h), (-q, -h), (-q, -q), (-h, -q))),
                _hull(((-h, q), (-q, q), (-q, h), (-h, h))),
                _hull(((q, -h), (h, -h), (h, h), (q, h)), ((0, 1),))]
    sets = []
    for code in CODES[kind]:
        verts = [v for s in product(*(_SIGNS[c] for c in code))
                 for v in (s, tuple(b * x for x in s))]
        faces = [[i for i, v in enumerate(verts) if v[axis] * side > 0]
                 for axis, c in enumerate(code) if c == "*"
                 for side in (-1, 1)]
        sets.append(_hull(verts, faces))
    return sets


def lp_meets(hull, coeffs):
    """Does the hyperplane meet the hull minus its faces? One strict LP
    over the convex-combination weights w: sum w = 1, w >= 0, the plane's
    value is 0, and the point is strictly off every excluded face."""
    verts = hull.vertices
    m = len(verts)
    vals = [sum(c * x for c, x in zip(coeffs, v)) + coeffs[-1] for v in verts]
    eq = [([1] * m, 1), (vals, 0)]
    weak = [([-int(i == j) for i in range(m)], 0) for j in range(m)]
    strict = [([sum(ai * vi for ai, vi in zip(a, v)) - c for v in verts], 0)
              for a, c in hull.functionals]
    return strict_feasible(m, eq, weak, strict)[0]


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


# the sign cases of a verdict

_CUBE = {"-": (-1, -1, False, False), "+": (1, 1, False, False),
         "*": (-1, 1, True, True)}


def interval_sets(kind, b):
    """Each class as ([(lo, hi, lo_open, hi_open) per axis], rho)."""
    b = Fraction(b)
    if kind == "planar":
        h, q = b / 2, Fraction(1, 2)
        return [([(-h, -q, False, False)] * 2, 1),
                ([(-h, -q, False, False), (q, h, False, False)], 1),
                ([(q, h, False, False), (-h, h, True, False)], 1)]
    return [([_CUBE[c] for c in code], b) for code in CODES[kind]]


def case_labels(d, swept):
    """The labels of every sign case, as a set."""
    labels = set()
    for k in range(d):
        for tail in product("0+-", repeat=d - 1 - k):
            head = "0" * k + "1" + "".join(tail)
            labels |= {head + " c>=0", head + " c<=0"} if swept else {head}
    return labels


def case_margin(intervals, label):
    """The optimal margin of the case's system (None when its weak part
    is infeasible). Unknowns: a_1..a_d, then c, of the plane a.x = c.

    A class meets the plane iff C = {c/r : r in [1, rho]} meets
    S = sum_j a_j.I_j. Under the case's signs S's low end takes lo_j
    where a_j > 0 and hi_j where a_j < 0, and is open iff one of those
    ends is; its high end takes the others. The rows are min C - high(S)
    and low(S) - max C, each < 0 where the end of S is open and <= 0
    otherwise; a_j > 0 is -a_j < 0, a_j < 0 is a_j < 0."""
    head, _, c_part = label.partition(" ")
    d, k = len(head), head.index("1")
    signs = [{"0": 0, "1": 1, "+": 1, "-": -1}[ch] for ch in head]
    c_sign = {"": 0, "c>=0": 1, "c<=0": -1}[c_part]

    def unit(j, factor=1):
        return [factor if i == j else 0 for i in range(d + 1)]

    eq = [(unit(k), 1)] + [(unit(j), 0) for j in range(d) if not signs[j]]
    strict = [(unit(j, -signs[j]), 0) for j in range(k + 1, d) if signs[j]]
    weak = [(unit(d, -c_sign), 0)] if c_sign else []
    for axes, rho in intervals:
        low, high = [0] * d, [0] * d
        low_open = high_open = False
        for j, (lo, hi, lo_o, hi_o) in enumerate(axes):
            if signs[j] > 0:
                low[j], high[j] = lo, hi
                low_open, high_open = low_open or lo_o, high_open or hi_o
            elif signs[j] < 0:
                low[j], high[j] = hi, lo
                low_open, high_open = low_open or hi_o, high_open or lo_o
        c_ends = sorted([Fraction(1), 1 / Fraction(rho)])
        near, far = c_ends if c_sign >= 0 else c_ends[::-1]
        (strict if high_open else weak).append(
            ([-x for x in high] + [near], 0))
        (strict if low_open else weak).append((low + [-far], 0))
    return strict_feasible(d + 1, eq, weak, strict)[2]
