"""Dual complexes of box partitions.

The dual complex records which boxes meet after an infinitesimal shear
pushes every pixel slightly off the diagonal. Concretely, the cells of a
partition refine into unit pixels; shearing the pixel centers turns the
grid of pixels into the staircase triangulation of the cube, and a set of
boxes forms a simplex exactly when some monotone chain of pixels visits
all of them. Every simplex therefore arises from a chain

    u_0, u_0 + e_{pi(1)}, u_0 + e_{pi(1)} + e_{pi(2)}, ...

anchored at a grid vertex w (u_0 is the all-below cell) for some axis
permutation pi. A walk reads interior grid vertices with the owners of
the 2^d cells around each (boxes.vertex_owners) and follows the d!
chains there in permutations order; gaps read -1 and drop out of the
chain. A chain never comes back to a box it has left (boxes are convex
and the chain is monotone), so a vertex with at most d distinct owners
witnesses no top simplex.

Interior vertices [1, n-1]^d suffice. A chain holds the cells w - 1 and
w, so at a boundary vertex it leaves the cube. For n >= 2 its cells in
the cube there form a contiguous run, after its steps on the axes where
w_k = 0 and before those where w_k = n; moved one step inward on those
axes, w' has the run around it, and the chain at w' that steps the axes
where w_k = n and those stepped before the run, then the run, then the
rest, holds it all. So DualComplex.simplices, one lazy walk over every
interior vertex, finds every set a chain visits; its top simplices are
build_dual's (a chain of d+1 distinct boxes has no gap, so the top walk
keeps its vertex).

The top walk (_seeds) reads (w, around) pairs in their order. A chain
whose d+1 cells lie in d+1 distinct boxes witnesses a top simplex, and
it is the one such chain: its seed is (w, pi, ordered ids, sign), the
ids in chain order and sign the orientation of the chain's pixel
centers, which is the parity of pi (DualComplex.seed_raw). So _seeds
stores each simplex once and raises SeedConflict on any repeat. Proof:
around w the cells are masks in {0,1}^d, and a box's cells there form a
sub-cube Q_B = Q_B,1 x ... x Q_B,d. A chain of d+1 boxes that enters
box B on axis a forces Q_B,a = {1}.
- Same vertex: two such chains with the same boxes part at a mask m,
  one adding axis a into box X, the other axis c into box Y. Each later
  enters the other's box with both bits set, so Q_X,c = Q_Y,a = {0,1},
  and cell m + e_a + e_c lies in both X and Y; but Q_X,a = {1} != Q_Y,a.
- Two vertices w != w': every box's closure holds the segment ww'. On
  an axis k with w'_k > w_k every box therefore holds a cell around w
  with bit k set, so the box the chain leaves on its k-step owns the
  next cell too and the chain repeats a box; w'_k < w_k is symmetric.
Gaps play no part, so the same holds for partial partitions.

build_dual runs the top walk once per partition (the complex is cached
on it) and keeps the top simplices with their seeds, which is all that
classifying and a solution's re-check read. It reads only the vertices
whose all-below and all-above cells differ in owner (vertex_owners'
default): two cells of one box B put all 2^d cells around w in B (B is
convex), and two gaps put -1 in every chain. That skip is exact for
tops, so the walk gives the seeds and the order of the walk over every
vertex, but not for the closure: unit boxes at cells (1,0,0) and
(1,1,0) alone in [0,2]^3 form an edge. The solver's root feeds _seeds
some interior vertices in the same order (solver's module docstring).
Every walk refuses d! chains above boxes._GRID_LIMIT with TooManyChains
before it reads a vertex or builds the chain table.

_exact is the exactness gate of orientation, stabbing and the generators
(ratlp._integer_row keeps its own TypeError): it accepts ints (not
bools) and Fractions and raises InexactCoordinate otherwise. _kernel(n)
is the one dispatcher of the orientation sign of n points: the closed
forms _orient2 (d = 2), _orient3 (d = 3) and _orient4 (d = 4, a Laplace
expansion over 2x2 minors), else Bareiss elimination (_orient_det, d = 1
and d >= 5), all on int coordinates and none checking its points.
orientation passes its points through the gate and scales them to ints
by the lcm of their denominators, which keeps the sign. The loops that
orient many simplices bind the unchecked kernel once instead:
DualComplex.misoriented, on points check_faithful has checked, and the
solver's revise.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import factorial, lcm
from operator import attrgetter, itemgetter

from .boxes import (_GRID_LIMIT, BalanceReport, Partition, balance_of_set,
                    vertex_owners)

__all__ = [
    "DimensionMismatch", "DualComplex", "InexactCoordinate", "NotTopSimplex",
    "SeedConflict", "TooManyChains", "build_dual", "orientation",
    "partition_balance",
]


class SeedConflict(Exception):
    """A second chain witnesses a top simplex (module docstring: never)."""


class NotTopSimplex(Exception):
    """Seed requested for a simplex that is not top-dimensional."""


class TooManyChains(ValueError):
    """The d! chains at a grid vertex exceed boxes._GRID_LIMIT."""

    def __init__(self, d):
        self.dim = d
        self.chains = factorial(d)
        super().__init__(f"{self.chains} chains per grid vertex in {d}d "
                         f"exceed the limit of {_GRID_LIMIT}")


class DimensionMismatch(ValueError):
    """Point count does not match the ambient dimension."""


class InexactCoordinate(TypeError):
    """An orientation coordinate is neither an int nor a Fraction."""


def _exact(values, what):
    """values, read once, as a tuple of Fractions; InexactCoordinate
    refuses anything but an int (not a bool) or a Fraction."""
    values = tuple(values)
    for x in values:
        if type(x) is not int and type(x) is not Fraction:
            raise InexactCoordinate(f"{what} {x!r} is not an int or a "
                                    f"Fraction")
    return tuple(map(Fraction, values))


def _det(rows):
    """Exact determinant of a square int matrix, by fraction-free
    elimination (Bareiss 1968)."""
    n = len(rows)
    m = [list(row) for row in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if m[r][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pivot, top = m[k][k], m[k]
        for row in m[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                # exact by Sylvester's identity
                row[j] = (pivot * row[j] - f * top[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def _orient2(a, b, c) -> int:
    """Orientation sign of three points in the plane."""
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    v = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (v > 0) - (v < 0)


def _orient3(a, b, c, d) -> int:
    """Orientation sign of four points in space."""
    (ax, ay, az), (bx, by, bz), (cx, cy, cz), (dx, dy, dz) = a, b, c, d
    bx, by, bz = bx - ax, by - ay, bz - az
    cx, cy, cz = cx - ax, cy - ay, cz - az
    dx, dy, dz = dx - ax, dy - ay, dz - az
    v = (bx * (cy * dz - cz * dy) - by * (cx * dz - cz * dx)
         + bz * (cx * dy - cy * dx))
    return (v > 0) - (v < 0)


def _orient4(a, b, c, d, e) -> int:
    """Orientation sign of five points in R^4: the Laplace expansion of
    the difference rows over the 2x2 minors of the first two and of the
    last two."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b[0] - a0, b[1] - a1, b[2] - a2, b[3] - a3
    c0, c1, c2, c3 = c[0] - a0, c[1] - a1, c[2] - a2, c[3] - a3
    d0, d1, d2, d3 = d[0] - a0, d[1] - a1, d[2] - a2, d[3] - a3
    e0, e1, e2, e3 = e[0] - a0, e[1] - a1, e[2] - a2, e[3] - a3
    v = ((b0 * c1 - b1 * c0) * (d2 * e3 - d3 * e2)
         - (b0 * c2 - b2 * c0) * (d1 * e3 - d3 * e1)
         + (b0 * c3 - b3 * c0) * (d1 * e2 - d2 * e1)
         + (b1 * c2 - b2 * c1) * (d0 * e3 - d3 * e0)
         - (b1 * c3 - b3 * c1) * (d0 * e2 - d2 * e0)
         + (b2 * c3 - b3 * c2) * (d0 * e1 - d1 * e0))
    return (v > 0) - (v < 0)


def _orient_det(*points) -> int:
    """Orientation sign of d+1 points in R^d, any d >= 1: the sign of the
    Bareiss determinant (_det) of the difference rows p_i - p_0."""
    p0 = points[0]
    v = _det([[x - y for x, y in zip(p, p0)] for p in points[1:]])
    return (v > 0) - (v < 0)


def _kernel(n):
    """The orientation sign of n int points of dimension n - 1, as a
    function of the n points: _orient2, _orient3, _orient4, else
    _orient_det. The points are not checked."""
    if n == 3:
        return _orient2
    if n == 4:
        return _orient3
    if n == 5:
        return _orient4
    return _orient_det


def orientation(points) -> int:
    """Orientation sign of d+1 points in R^d: the sign of the determinant
    of the (d+1)x(d+1) matrix whose rows are (1, p_i).

    points is a sequence of d+1 points, each a sequence of d int or
    Fraction coordinates; DimensionMismatch refuses any other count and
    InexactCoordinate any other coordinate, in every dimension. Invariant
    under scaling all coordinates by a positive factor, so doubled
    half-integral coordinates can be passed directly.
    """
    n = len(points)
    if n < 2 or any(len(p) != n - 1 for p in points):
        raise DimensionMismatch(f"need d+1 points of dimension d, got {n}")
    rows = [_exact(p, "coordinate") for p in points]
    den = lcm(*(x.denominator for row in rows for x in row))
    return _kernel(n)(*[[x.numerator * (den // x.denominator) for x in row]
                        for row in rows])


def _perm_parity(perm) -> int:
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv & 1 else 1


class DualComplex:
    """Simplices over box ids, downward closed; top simplices carry seeds.

    The top simplices come from build_dual's top walk; simplices (and so
    edges) comes from the closure walk on its first read. For that walk
    the complex keeps the partition's n and owner grid (the partition's
    own list, not a copy), never the partition itself."""

    def __init__(self, partition, top):
        self.dim = partition.dim
        self._boxes = len(partition.boxes)
        self._top = top     # sorted ids -> (anchor, perm, ordered ids, sign)
        self._n = partition.n
        self._grid = partition.owner_grid()
        self._simplices = None

    @property
    def simplices(self):
        """k -> set of sorted id tuples, for k = 0..dim: every box, every
        set of two or more boxes one chain visits, and all their subsets,
        walked on the first read."""
        if self._simplices is None:
            d, n = self.dim, self._n
            getters = [chain_of for _, chain_of, _ in _chain_table(d)]
            # each distinct owner tuple, and chain of it, is followed once
            arounds = set(map(itemgetter(1), vertex_owners(
                d, n, self._grid, [((0,) * d, (n,) * d)])))
            chains = {chain_of(a) for a in arounds for chain_of in getters}
            found = {k: set() for k in range(d)} | {d: set(self._top)}
            for owners in chains:
                boxes = set(owners)
                boxes.discard(-1)
                if 1 < len(boxes) <= d:
                    found[len(boxes) - 1].add(tuple(sorted(boxes)))
            for k in range(d, 1, -1):
                for s in found[k]:
                    found[k - 1].update(combinations(s, k))
            found[0] = {(i,) for i in range(self._boxes)}
            self._simplices = found
        return self._simplices

    def edges(self):
        return self.simplices.get(1, ())

    def top_simplices(self):
        return self._top.keys()

    def has_top(self) -> bool:
        return bool(self._top)

    def misoriented(self, pts):
        """(simplex, seed sign, sign) of every top simplex whose points
        pts[i] (by box id) do not orient as its seed, in walk order. Every
        top simplex is evaluated, by one kernel bound for the dimension;
        pts must hold int points of dimension dim."""
        found = []
        if self.dim == 2:
            orient = _orient2
            for key, (_, _, (a, b, c), want) in self._top.items():
                got = orient(pts[a], pts[b], pts[c])
                if got != want:
                    found.append((key, want, got))
        elif self.dim == 3:
            orient = _orient3
            for key, (_, _, (a, b, c, d), want) in self._top.items():
                got = orient(pts[a], pts[b], pts[c], pts[d])
                if got != want:
                    found.append((key, want, got))
        else:
            orient = _kernel(self.dim + 1)
            for key, (_, _, ordered, want) in self._top.items():
                got = orient(*[pts[i] for i in ordered])
                if got != want:
                    found.append((key, want, got))
        return found

    def seed_raw(self, simplex):
        """The seed (anchor, perm, ordered ids, sign) of a top simplex,
        given as any ordering of its box ids; NotTopSimplex otherwise."""
        key = tuple(sorted(simplex))
        if key not in self._top:
            raise NotTopSimplex(f"{key} has no seed")
        return self._top[key]


def build_dual(p: Partition) -> DualComplex:
    """The dual complex of p, with its top simplices from the monotone
    chains at the grid vertices that have more than d distinct owners;
    its lower simplices are found on the first read of simplices.

    The top walk runs once per partition: the complex is cached on p
    (Partition._dual), which is sound because a partition is treated as
    immutable, and every later call returns the same object. Raises
    SeedConflict if a second chain witnesses a top simplex, which the
    module docstring proves cannot happen; the check guards the walk.
    """
    if p._dual is None:
        p._dual = DualComplex(p, _chains(p))
    return p._dual


def partition_balance(p: Partition) -> BalanceReport:
    """The first greatest balance_of_set over every edge of the dual
    complex of p, then over every single box: every simplex's longest
    and shortest sides appear on one of its edges. Raises ValueError, as
    balance_of_set does, for a partition with no boxes."""
    if not p.boxes:
        return balance_of_set(p.boxes)  # raises its ValueError
    sets = [(p.boxes[i], p.boxes[j]) for i, j in build_dual(p).edges()]
    return max(map(balance_of_set, sets + [(box,) for box in p.boxes]),
               key=attrgetter("value"))


def _refuse_too_many_chains(d):
    """Raise TooManyChains when the d! chains at a vertex exceed
    _GRID_LIMIT."""
    if factorial(d) > _GRID_LIMIT:
        raise TooManyChains(d)


def _chain_table(d):
    """(perm, getter, parity of perm) for each axis order, in
    permutations order: the getter reads, from the owners around a
    vertex, those of the cells the chain visits, whose shifts from the
    all-below cell are bitmasks. TooManyChains refuses d! > _GRID_LIMIT
    before any getter is built."""
    _refuse_too_many_chains(d)
    table = []
    for perm in permutations(range(d)):
        masks, acc = [0], 0
        for axis in perm:
            acc |= 1 << axis
            masks.append(acc)
        table.append((perm, itemgetter(*masks), _perm_parity(perm)))
    return table


def _chains(p: Partition):
    """build_dual's walk, over vertex_owners' default selection."""
    _refuse_too_many_chains(p.dim)
    return _seeds(p.dim, vertex_owners(p.dim, p.n, p.owner_grid()))


def _seeds(d, pairs):
    """sorted ids -> seed of the top simplices that the chains at the
    (w, around) pairs of a partition of dimension d witness, in the
    pairs' order. SeedConflict refuses a second chain of one simplex."""
    table = _chain_table(d)
    cells = 1 << d
    top = {}
    for w, around in pairs:
        boxes = set(around)
        boxes.discard(-1)
        if len(boxes) <= d:
            continue
        # with 2^d distinct boxes around w, every chain visits d + 1
        every = len(boxes) == cells
        for perm, chain_of, sign in table:
            owners = chain_of(around)
            if every or -1 not in owners and len(set(owners)) > d:
                key = tuple(sorted(owners))
                if key in top:
                    raise SeedConflict(f"simplex {key} has a second chain, "
                                       f"at {w}")
                top[key] = (w, perm, owners, sign)
    return top
