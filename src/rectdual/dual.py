"""Dual complexes of box partitions.

The dual complex records which boxes meet after an infinitesimal shear
pushes every pixel slightly off the diagonal. Concretely, the cells of a
partition refine into unit pixels; shearing the pixel centers turns the
grid of pixels into the staircase triangulation of the cube, and a set of
boxes forms a simplex exactly when some monotone chain of pixels visits
all of them. Every simplex therefore arises from a chain

    u_0, u_0 + e_{pi(1)}, u_0 + e_{pi(1)} + e_{pi(2)}, ...

anchored at a grid vertex w (u_0 is the all-below cell) for some axis
permutation pi. Chains at boundary vertices simply lose their
out-of-domain cells. A chain whose d+1 cells lie in d+1 distinct boxes
witnesses a top-dimensional simplex; the chain is stored as its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .boxes import Partition, Pixel


class SeedConflict(Exception):
    """The same top simplex was produced by chains of opposite orientation."""


class NotTopSimplex(Exception):
    """Seed requested for a simplex that is not top-dimensional."""


class DimensionMismatch(ValueError):
    """Point count does not match the ambient dimension."""


class SeedMisoriented(Exception):
    """A seed chain's pixel centers lack the orientation of its axis order."""


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _sign_det(rows) -> int:
    n = len(rows)
    if n == 1:
        return _sign(rows[0][0])
    if n == 2:
        (a, b), (c, d) = rows
        return _sign(a * d - b * c)
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return _sign(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))
    # generic exact elimination
    m = [[Fraction(x) for x in row] for row in rows]
    sign = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        if m[col][col] < 0:
            sign = -sign
            m[col] = [-x for x in m[col]]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return sign


def orientation(points) -> int:
    """Orientation sign of d+1 points in R^d.

    Sign of the determinant of the (d+1)x(d+1) matrix whose rows are
    (1, p_i). Exact for integer or Fraction coordinates, and invariant
    under scaling all coordinates by a positive factor, so doubled
    half-integral coordinates can be passed directly.
    """
    pts = [tuple(p) for p in points]
    d = len(pts) - 1
    if d < 1 or any(len(p) != d for p in pts):
        raise DimensionMismatch(f"need d+1 points of dimension d, got {len(pts)}")
    rows = [[pts[i][j] - pts[0][j] for j in range(d)] for i in range(1, d + 1)]
    return _sign_det(rows)


def _perm_parity(perm) -> int:
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv & 1 else 1


@dataclass(frozen=True)
class SeedChain:
    """Seed of a top simplex: its boxes and pixels in chain order."""

    boxes: tuple      # box ids, order of first visit along the chain
    pixels: tuple     # one Pixel per box, same order
    anchor: tuple     # grid vertex the chain starts below
    perm: tuple       # axis visit order (0-based)
    sign: int         # orientation of the pixel centers, +1 or -1


class DualComplex:
    """Simplices over box ids, downward closed; top simplices carry seeds."""

    def __init__(self, partition, simplices, top):
        self.partition = partition
        self.dim = partition.dim
        self.simplices = simplices          # k -> set of sorted id tuples
        self._top = top                     # sorted ids -> (anchor, perm, ordered ids)

    def edges(self):
        return self.simplices.get(1, ())

    def top_simplices(self):
        return self._top.keys()

    def has_top(self) -> bool:
        return bool(self._top)

    def top_items(self):
        """Yield (simplex, ordered box ids, seed orientation sign)."""
        for key, (anchor, perm, ordered) in self._top.items():
            yield key, ordered, _perm_parity(perm)

    def seed_raw(self, simplex):
        key = tuple(sorted(simplex))
        if key not in self._top:
            raise NotTopSimplex(f"{key} has no seed")
        return self._top[key]


def seed_of(dc: DualComplex, simplex) -> SeedChain:
    anchor, perm, ordered = dc.seed_raw(simplex)
    cell = list(x - 1 for x in anchor)
    cells = [tuple(cell)]
    for axis in perm:
        cell[axis] += 1
        cells.append(tuple(cell))
    pixels = tuple(Pixel(c) for c in cells)
    sign = orientation([px.center2 for px in pixels])
    if sign != _perm_parity(perm):
        raise SeedMisoriented(
            f"seed of {ordered} has orientation {sign}, axis order {perm}")
    return SeedChain(ordered, pixels, anchor, perm, sign)


def build_dual(p: Partition) -> DualComplex:
    """Enumerate all monotone chains at all grid vertices.

    Raises SeedConflict if two chains witness the same top simplex with
    opposite orientations (cannot happen for valid partitions; the check
    guards the construction).
    """
    d = p.dim
    if d == 2:
        top, lower = _chains_2d(p)
    else:
        top, lower = _chains_generic(p)

    m = len(p.boxes)
    simplices = {k: set() for k in range(d + 1)}
    simplices[d] = set(top.keys())
    for s in lower:
        simplices[len(s) - 1].add(s)
    # downward closure
    for k in range(d, 1, -1):
        target = simplices[k - 1]
        for s in simplices[k]:
            for i in range(k + 1):
                target.add(s[:i] + s[i + 1 :])
    simplices[0] = {(i,) for i in range(m)}
    return DualComplex(p, simplices, top)


def _register_top(top, key, ordered, anchor, perm):
    canon = _perm_parity(perm) * _perm_parity(ordered)
    prev = top.get(key)
    if prev is None:
        top[key] = (anchor, perm, ordered)
        return
    p_anchor, p_perm, p_ordered = prev
    p_canon = _perm_parity(p_perm) * _perm_parity(p_ordered)
    if p_canon != canon:
        raise SeedConflict(f"simplex {key} seen with both orientations")


def _chains_2d(p: Partition):
    n = p.n
    owner = p.owner_grid()
    top = {}
    lower = set()
    add_lower = lower.add
    for x in range(n + 1):
        for y in range(n + 1):
            # owners of the four cells around vertex (x, y); -1 outside
            ll = owner[(x - 1) * n + (y - 1)] if x > 0 and y > 0 else -1
            lr = owner[x * n + (y - 1)] if x < n and y > 0 else -1
            ul = owner[(x - 1) * n + y] if x > 0 and y < n else -1
            ur = owner[x * n + y] if x < n and y < n else -1
            w = (x, y)
            for seq, perm in (((ll, lr, ur), (0, 1)), ((ll, ul, ur), (1, 0))):
                a = [v for v in seq if v >= 0]
                if not a:
                    continue
                dd = [a[0]]
                for v in a[1:]:
                    if v != dd[-1]:
                        dd.append(v)
                k = len(dd)
                if k == 3:
                    i, j, l = dd
                    key = (i, j, l) if i < j < l else tuple(sorted(dd))
                    _register_top(top, key, tuple(dd), w, perm)
                elif k == 2:
                    i, j = dd
                    add_lower((i, j) if i < j else (j, i))
                else:
                    add_lower((dd[0],))
    return top, lower


def _chains_generic(p: Partition):
    d, n = p.dim, p.n
    owner = p.owner_grid()
    top = {}
    lower = set()
    perms = [tuple(pi) for pi in permutations(range(d))]
    # bitmask prefixes per permutation: cell shifts visited along the chain
    prefix_masks = []
    for pi in perms:
        masks = [0]
        acc = 0
        for axis in pi:
            acc |= 1 << axis
            masks.append(acc)
        prefix_masks.append(masks)
    shifts = list(range(1 << d))

    def owners_around(w):
        out = []
        for s in shifts:
            cell = []
            ok = True
            for k in range(d):
                c = w[k] - 1 + ((s >> k) & 1)
                if c < 0 or c >= n:
                    ok = False
                    break
                cell.append(c)
            if not ok:
                out.append(-1)
            else:
                idx = 0
                for c in cell:
                    idx = idx * n + c
                out.append(owner[idx])
        return out

    def vertices():
        w = [0] * d
        while True:
            yield tuple(w)
            i = d - 1
            while i >= 0 and w[i] == n:
                w[i] = 0
                i -= 1
            if i < 0:
                return
            w[i] += 1

    for w in vertices():
        around = owners_around(w)
        for pi, masks in zip(perms, prefix_masks):
            a = [around[msk] for msk in masks]
            a = [v for v in a if v >= 0]
            if not a:
                continue
            dd = [a[0]]
            for v in a[1:]:
                if v != dd[-1]:
                    dd.append(v)
            if len(dd) == d + 1:
                _register_top(top, tuple(sorted(dd)), tuple(dd), w, pi)
            else:
                lower.add(tuple(sorted(set(dd))))
    return top, lower
