"""Integral boxes, partitions of a cube, and balance measurements.

All geometry in this package is exact. Coordinates of box corners are
integers; half-integral data (pixel centers, projections) is stored as
doubled integers so that every predicate reduces to integer arithmetic.

A partition of [0,n]^d owns one flat grid of box ids over the cube's
n^d unit cells, row-major in their lower corners (last axis fastest):
each cell holds its box, or -1 where a partial partition leaves a gap.
Validation fills this grid, which is also how it finds overlaps and,
from the cells left at -1, gaps, so every validated partition has one.
_check_grid, the one size rule, refuses with GridTooLarge, before
anything is allocated, n^d cells or a d with 2^d cells around a vertex
(what a vertex walk reads) above _GRID_LIMIT. pixel_fill fills the grid
by validating the given boxes as a partial partition and then writing
a unit pixel into each cell still left at -1, so its coverage holds by
construction and GridTooLarge comes before any pixel is built. Its
pixels are checked once, by construction: their corners are int
tuples one apart, so they skip the IntBox constructor and its
re-checks (_pixel).

IntBox.is_pixel is the one pixel test. The owner grid is read and
written in runs along the last axis; _run_starts gives the index where
each run of a block of cells starts, for validation and the vertex walk
alike, and Partition.owner_of indexes one cell. vertex_owners, the one
vertex walk, reads interior vertices only (dual's and is_generic's
docstrings say why), so every cell it reads lies in the cube.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, compress, product
from operator import add, ne
from typing import Iterator, NamedTuple

__all__ = [
    "BalanceReport", "CoverageGap", "Genericity", "GridTooLarge", "IntBox",
    "OutOfBounds", "Overlap", "Partition", "ValidationError",
    "balance_of_set", "is_generic", "pixel_fill", "validate_partition",
    "vertex_owners",
]


class ValidationError(Exception):
    """A collection of boxes is not a valid partition."""


class OutOfBounds(ValidationError):
    def __init__(self, box):
        self.box = box
        super().__init__(f"box {box} leaves the outer cube")


class Overlap(ValidationError):
    def __init__(self, box_a, box_b):
        self.box_a = box_a
        self.box_b = box_b
        super().__init__(f"boxes {box_a} and {box_b} have intersecting interiors")


class CoverageGap(ValidationError):
    def __init__(self, missing_volume):
        self.missing_volume = missing_volume
        super().__init__(f"boxes cover too little volume (missing {missing_volume})")


class GridTooLarge(ValidationError):
    def __init__(self, d, n):
        self.d = d
        self.n = n
        super().__init__(f"owner grid of [0,{n}]^{d} exceeds {_GRID_LIMIT} "
                         f"cells, {n}^{d} in all or 2^{d} around a vertex")

    @property
    def cells(self):
        return self.n ** self.d


# the one cell limit: owner grids, and materialized generator output
_GRID_LIMIT = 10 ** 7


@dataclass(frozen=True)
class IntBox:
    """Axis-aligned box with integer corners and nonempty interior."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo, hi = tuple(self.lo), tuple(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi):
            raise ValueError("corner dimensions differ")
        for a, b in zip(lo, hi):
            if type(a) is not int or type(b) is not int:
                raise ValueError("box corners must be integral")
            if a >= b:
                raise ValueError(f"empty interior: {lo} {hi}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def sides(self) -> tuple:
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    def volume(self) -> int:
        v = 1
        for s in self.sides():
            v *= s
        return v

    def center2(self) -> tuple:
        # doubled coordinates of the center; always integral
        return tuple(map(add, self.lo, self.hi))

    def is_pixel(self) -> bool:
        # every side is at least 1, so they sum to d exactly for a pixel
        return sum(self.hi) - sum(self.lo) == len(self.lo)

    def cells(self) -> Iterator[tuple]:
        """All unit cells covered by the box, as lower-corner tuples."""
        return product(*(range(a, b) for a, b in zip(self.lo, self.hi)))

    def __str__(self):
        return "x".join(f"[{a},{b}]" for a, b in zip(self.lo, self.hi))


def _pixel(lo, hi) -> IntBox:
    """The unit box [lo, hi], for int tuples with hi = lo + 1, built
    without IntBox's re-checks. lo is set before hi, in field order, as
    the constructor does, so the box keeps CPython's key-sharing instance
    dict and costs no more memory than one the constructor builds."""
    px = object.__new__(IntBox)
    object.__setattr__(px, "lo", lo)
    object.__setattr__(px, "hi", hi)
    return px


@dataclass(frozen=True)
class BalanceReport:
    value: Fraction
    witness: tuple  # boxes achieving (longest side, shortest side)

    def __post_init__(self):
        if self.value < 1:
            raise ValueError(f"balance {self.value} is below 1")


@dataclass
class Partition:
    """A validated collection of boxes tiling (or partially tiling) [0,n]^d.

    Construct through validate_partition or pixel_fill, which fill the
    owner grid (_owner); the constructor itself does not re-check the
    invariants.
    Treated as immutable after construction, which is what makes the
    cached dual complex (_dual, filled by dual.build_dual) and solver root
    (_solver_root, the unpinned constraint setup the first solve builds)
    sound.
    """

    dim: int
    n: int
    boxes: tuple
    partial: bool
    _owner: list = field(repr=False, compare=False)
    _dual: object = field(default=None, repr=False, compare=False, init=False)
    _solver_root: object = field(default=None, repr=False, compare=False,
                                 init=False)

    def owner_grid(self) -> list:
        """Flat cell -> box id map over the n^d cells of the cube, in
        row-major order of their lower corners (-1 for uncovered cells)."""
        return self._owner

    def owner_of(self, cell) -> int:
        """Owner of the unit cell with this lower corner, -1 outside the
        cube or in a gap; ValueError unless it is dim ints (not bools)."""
        if len(cell) != self.dim or any(type(c) is not int for c in cell):
            raise ValueError(f"not a cell of a {self.dim}d partition: {cell!r}")
        idx = 0
        for c in cell:
            if c < 0 or c >= self.n:
                return -1
            idx = idx * self.n + c
        return self.owner_grid()[idx]


def vertex_owners(d, n, grid, within=None):
    """(w, around) for interior grid vertices w in [1, n-1]^d, in
    lexicographic order, read by rows from the owner grid of a
    partition of [0,n]^d; around[s] is the owner of the cell
    w - 1 + bits(s), bit k of s standing for axis k (-1 in a gap). By
    default, the vertices whose all-below and all-above cells differ in
    owner, filtered at C speed; within, an iterable of closed vertex
    boxes (lo, hi), selects the interior vertices in them instead, each
    once, by a mask over their all-below cells."""
    strides = _strides(d, n)
    # cell w - 1 + bits(s) has index sum((w[k] - 1) * strides[k]) + shift[s]
    shift = [0]
    for st in strides:
        shift += [s + st for s in shift]
    m = n - 1
    rows = list(_run_starts(strides, (0,) * d, (m,) * d))
    if within is None:
        up = shift[-1]
        keep = (map(ne, grid[r:r + m], grid[r + up:r + up + m]) for r in rows)
    else:
        mask = bytearray(len(grid))
        for lo, hi in within:
            # all-below cells of the interior vertices in [lo, hi], if any
            lo = [max(a, 1) - 1 for a in lo]
            hi = [min(b, m) for b in hi]
            run = hi[-1] - lo[-1]
            for start in _run_starts(strides, lo, hi):
                mask[start:start + run] = b"\1" * run
        keep = (mask[r:r + m] for r in rows)
    around = chain.from_iterable(
        zip(*[grid[r + s:r + s + m] for s in shift]) for r in rows)
    return compress(zip(product(range(1, n), repeat=d), around),
                    chain.from_iterable(keep))


def _strides(d, n):
    return [n ** (d - 1 - k) for k in range(d)]


def _run_starts(strides, lo, hi):
    """Index of the first cell of each run along the last axis of the
    cells [lo, hi) of an owner grid with these strides, in lexicographic
    order."""
    return map(sum, product(*(range(a * st, b * st, st)
                              for a, b, st in zip(lo, hi, strides[:-1])),
                            (lo[-1],)))


def _check_grid(d, n) -> int:
    """Cell count n^d of the owner grid of [0,n]^d. GridTooLarge refuses
    2^d > _GRID_LIMIT (d >= 24: a vertex walk reads 2^d cells) before n^d
    is computed, then n^d > _GRID_LIMIT."""
    if d >= _GRID_LIMIT.bit_length() or n ** d > _GRID_LIMIT:
        raise GridTooLarge(d, n)
    return n ** d


def _claim_cells(boxes, d, n) -> list:
    """Owner grid of the boxes, which lie inside [0,n]^d.

    Raises GridTooLarge before allocating, and Overlap at the first cell
    (in box order, then lexicographic cell order) claimed twice."""
    grid = [-1] * _check_grid(d, n)
    strides = _strides(d, n)
    for bid, box in enumerate(boxes):
        run = box.hi[-1] - box.lo[-1]
        free = [-1] * run
        claim = [bid] * run
        for start in _run_starts(strides, box.lo, box.hi):
            if grid[start:start + run] != free:
                prev = next(o for o in grid[start:start + run] if o != -1)
                raise Overlap(boxes[prev], box)
            grid[start:start + run] = claim
    return grid


def validate_partition(boxes, d: int, n: int, partial: bool = False) -> Partition:
    """Validate containment, interior disjointness and (unless partial)
    exact coverage of [0,n]^d, filling the owner grid. Raises ValueError
    for a d or n that is not an int >= 1 (bools included), OutOfBounds,
    GridTooLarge (before the grid is allocated), Overlap or CoverageGap.

    Disjointness is checked while the owner grid is filled; an overfull
    partition covers some cell twice, so that check rejects it. Coverage
    is then the count of cube cells the filled grid leaves at -1."""
    if type(d) is not int or type(n) is not int or d < 1 or n < 1:
        raise ValueError(f"need int d >= 1 and n >= 1, not d={d!r}, "
                         f"n={n!r}")
    boxes = tuple(b if isinstance(b, IntBox) else IntBox(*b) for b in boxes)
    for box in boxes:
        if box.dim != d:
            raise ValueError(f"box {box} has dimension {box.dim}, expected {d}")
        if any(a < 0 for a in box.lo) or any(b > n for b in box.hi):
            raise OutOfBounds(box)
    owner = _claim_cells(boxes, d, n)
    if not partial:
        missing = owner.count(-1)
        if missing:
            raise CoverageGap(missing)
    return Partition(d, n, boxes, partial, owner)


def pixel_fill(boxes, n: int) -> Partition:
    """Complete boxes to a validated partition of [0,n]^d, d their
    dimension (2 when there are none): every cell no box covers becomes a
    unit pixel, appended in lexicographic order of its lower corner.

    The given boxes are validated as a partial partition, which claims
    their cells in the owner grid (and raises GridTooLarge before any
    pixel is built); each cell the grid still holds -1 for then gets its
    pixel's id, so coverage holds by construction. The pixels' corners
    are int tuples one apart by construction, so they are built by
    _pixel, without the checks of the IntBox constructor."""
    boxes = [b if isinstance(b, IntBox) else IntBox(*b) for b in boxes]
    d = boxes[0].dim if boxes else 2
    grid = validate_partition(boxes, d, n, partial=True).owner_grid()
    # lower and upper corners of each cell, in the grid's row-major order
    corners = zip(product(range(n), repeat=d),
                  product(range(1, n + 1), repeat=d))
    for i, (lo, hi) in enumerate(corners):
        if grid[i] == -1:
            grid[i] = len(boxes)
            boxes.append(_pixel(lo, hi))
    return Partition(d, n, tuple(boxes), False, grid)


class Genericity(NamedTuple):
    """is_generic's answer: it unpacks as (flag, witness) and is true
    exactly when flag is."""

    flag: bool
    witness: tuple = None

    def __bool__(self):
        return self.flag


def is_generic(p: Partition) -> Genericity:
    """Whether no point lies in more than d+1 closed boxes.

    Returns Genericity(flag, witness), where witness is the first
    violating interior grid vertex or None; its truth value is flag.
    Only grid vertices can witness a violation since boxes have integral
    corners, and for n >= 2 interior ones suffice: moved one step inward
    on each boundary axis, a vertex keeps every cube cell around it (so
    from d = 4 on, the witness may move inward from the boundary)."""
    d, n = p.dim, p.n
    for vert, around in vertex_owners(d, n, p.owner_grid(),
                                      [((0,) * d, (n,) * d)]):
        owners = set(around)
        owners.discard(-1)
        if len(owners) > d + 1:
            return Genericity(False, vert)
    return Genericity(True)


def balance_of_set(boxes) -> BalanceReport:
    """Longest side over shortest side across all boxes of the set,
    witnessed by the first box with each."""
    boxes = list(boxes)
    if not boxes:
        raise ValueError("balance of an empty set of boxes")
    longest = max(boxes, key=lambda box: max(box.sides()))
    shortest = min(boxes, key=lambda box: min(box.sides()))
    return BalanceReport(Fraction(max(longest.sides()),
                                  min(shortest.sides())), (longest, shortest))
