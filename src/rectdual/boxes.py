"""Integral boxes, partitions of a cube, and balance measurements.

All geometry in this package is exact. Coordinates of box corners are
integers; half-integral data (pixel centers, projections) is stored as
doubled integers so that every predicate reduces to integer arithmetic.

A partition of [0,n]^d owns one flat grid of box ids over the cube's
n^d unit cells, row-major in their lower corners (last axis fastest):
each cell holds its box, or -1 where a partial partition leaves a gap.
_check_grid, the one size rule, refuses with GridTooLarge, before
anything is allocated, n^d cells or a d with 2^d cells around a vertex
(what a vertex walk reads) above _GRID_LIMIT.

Validation checks whole box lists at once: every corner has length d,
the least lower corner coordinate is >= 0 and the greatest upper one
<= n. It then writes each box's runs into the owner grid unchecked, and
counts: the boxes overlap exactly when their volumes add up to more than
the cells the grid holds an owner for, and a full partition's gap is the
count of cells left at -1. Only when a bulk check fails, or cannot
apply (an empty list), are the boxes walked in order, or the grid
filled again run by run, so the error raised names the first offender:
the first box of the wrong dimension or out of the cube, or the first
cell, in box order, claimed twice, with its earlier owner. pixel_fill
validates the given boxes as a partial partition and then writes a unit
pixel into each cell still left at -1, so its coverage holds by
construction and GridTooLarge comes before any pixel is built.

IntBox's constructor checks its corners. _unchecked_box skips those
checks, and only code that has made them already may call it: pixel_fill
for its pixels (int tuples one apart by construction) and
io.parse_partition for boxes whose lines it has checked in bulk.

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
from operator import add, attrgetter, ne
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


def _unchecked_box(lo, hi) -> IntBox:
    """The box [lo, hi] built without IntBox's checks, for callers that
    have made them already: lo and hi are tuples of the same length
    d >= 1, of ints (not bools), with lo < hi on every axis. pixel_fill
    and io.parse_partition are its callers. lo is set before hi, in field
    order, as the constructor does, so the box keeps CPython's
    key-sharing instance dict and costs no more memory than one the
    constructor builds."""
    box = object.__new__(IntBox)
    object.__setattr__(box, "lo", lo)
    object.__setattr__(box, "hi", hi)
    return box


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
    order: for d = 1 a range of one start, for d = 2 a range over the
    first axis, and from d = 3 on a list, each further outer axis
    expanded by a list comprehension. Validation, vertex_owners' rows
    and its within mask all read the grid through it."""
    last = lo[-1]
    if len(lo) == 1:
        return range(last, last + 1)
    st = strides[0]
    starts = range(lo[0] * st + last, hi[0] * st + last, st)
    for k in range(1, len(lo) - 1):
        st = strides[k]
        starts = [s + o for s in starts
                  for o in range(lo[k] * st, hi[k] * st, st)]
    return starts


def _check_grid(d, n) -> int:
    """Cell count n^d of the owner grid of [0,n]^d. GridTooLarge refuses
    2^d > _GRID_LIMIT (d >= 24: a vertex walk reads 2^d cells) before n^d
    is computed, then n^d > _GRID_LIMIT."""
    if d >= _GRID_LIMIT.bit_length() or n ** d > _GRID_LIMIT:
        raise GridTooLarge(d, n)
    return n ** d


def _claim_cells(boxes, d, n) -> tuple:
    """(owner grid, cells left at -1) of the boxes, which lie inside
    [0,n]^d.

    Raises GridTooLarge before allocating, and Overlap at the first cell
    (in box order, then lexicographic cell order) claimed twice. The
    runs are written unchecked: a cell claimed twice leaves fewer cells
    claimed than the boxes' volumes add up to, and only that mismatch
    calls _first_overlap."""
    grid = [-1] * _check_grid(d, n)
    strides = _strides(d, n)
    volume = 0
    for bid, box in enumerate(boxes):
        run = box.hi[-1] - box.lo[-1]
        claim = [bid] * run
        starts = _run_starts(strides, box.lo, box.hi)
        volume += run * len(starts)
        for start in starts:
            grid[start:start + run] = claim
    gaps = grid.count(-1)
    if volume != len(grid) - gaps:
        _first_overlap(boxes, len(grid), strides)
    return grid, gaps


def _first_overlap(boxes, cells, strides):
    """Raise Overlap at the first cell, in box order and then
    lexicographic cell order, that the boxes claim twice, by filling a
    fresh grid of this many cells and checking each run before it is
    written; _claim_cells calls it once its count has shown such a
    cell."""
    grid = [-1] * cells
    for bid, box in enumerate(boxes):
        run = box.hi[-1] - box.lo[-1]
        free = [-1] * run
        for start in _run_starts(strides, box.lo, box.hi):
            if grid[start:start + run] != free:
                prev = next(o for o in grid[start:start + run] if o != -1)
                raise Overlap(boxes[prev], box)
            grid[start:start + run] = [bid] * run


def validate_partition(boxes, d: int, n: int, partial: bool = False) -> Partition:
    """Validate containment, interior disjointness and (unless partial)
    exact coverage of [0,n]^d, filling the owner grid. Raises ValueError
    for a d or n that is not an int >= 1 (bools included), OutOfBounds,
    GridTooLarge (before the grid is allocated), Overlap or CoverageGap.

    Dimensions and bounds are checked over the whole list, disjointness
    by counting the cells the filled owner grid claims (an overfull
    partition covers some cell twice, so that count rejects it), and
    coverage by counting the cells it leaves at -1; the module docstring
    says how the first offender is found when a check fails."""
    if type(d) is not int or type(n) is not int or d < 1 or n < 1:
        raise ValueError(f"need int d >= 1 and n >= 1, not d={d!r}, "
                         f"n={n!r}")
    boxes = tuple(b if isinstance(b, IntBox) else IntBox(*b) for b in boxes)
    los = list(map(attrgetter("lo"), boxes))
    # an empty list or a 0-d corner fails the first test, as it must
    if not (set(map(len, los)) == {d} and min(map(min, los)) >= 0
            and max(map(max, map(attrgetter("hi"), boxes))) <= n):
        _first_misfit(boxes, d, n)
    owner, gaps = _claim_cells(boxes, d, n)
    if gaps and not partial:
        raise CoverageGap(gaps)
    return Partition(d, n, boxes, partial, owner)


def _first_misfit(boxes, d, n):
    """Raise for the first box, in order, of a dimension other than d
    (ValueError) or leaving [0,n]^d (OutOfBounds); validate_partition
    walks the boxes here only when its bulk checks fail or cannot apply,
    so that the first offender is the one reported."""
    for box in boxes:
        if box.dim != d:
            raise ValueError(f"box {box} has dimension {box.dim}, expected {d}")
        if any(a < 0 for a in box.lo) or any(b > n for b in box.hi):
            raise OutOfBounds(box)


def pixel_fill(boxes, n: int) -> Partition:
    """Complete boxes to a validated partition of [0,n]^d, d their
    dimension (2 when there are none): every cell no box covers becomes a
    unit pixel, appended in lexicographic order of its lower corner.

    The given boxes are validated as a partial partition, which claims
    their cells in the owner grid (and raises GridTooLarge before any
    pixel is built); each cell the grid still holds -1 for then gets its
    pixel's id, so coverage holds by construction. The pixels' corners
    are int tuples one apart by construction, so they are built by
    _unchecked_box, without the checks of the IntBox constructor."""
    boxes = [b if isinstance(b, IntBox) else IntBox(*b) for b in boxes]
    d = boxes[0].dim if boxes else 2
    grid = validate_partition(boxes, d, n, partial=True).owner_grid()
    # lower and upper corners of each cell, in the grid's row-major order
    corners = zip(product(range(n), repeat=d),
                  product(range(1, n + 1), repeat=d))
    for i, (lo, hi) in enumerate(corners):
        if grid[i] == -1:
            grid[i] = len(boxes)
            boxes.append(_unchecked_box(lo, hi))
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
