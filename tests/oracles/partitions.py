"""Partition generators used across the test suite.

enumerate_rectangulations lists every way to tile an n x n (or n^d) grid
with boxes, by always covering the first uncovered cell with all boxes
having it as their lowest corner. random_partition produces seeded
guillotine-style partitions, random_disjoint_boxes a few seeded boxes
that do not overlap, random_pixel_fill seeded boxes of side 1 or 2 amid
unit pixels. pixel_fill_by_validation is the reference for
boxes.pixel_fill: it lists the uncovered cells from a set of covered ones
and validates the completed list as a whole. unit_grid2 and
planar3_partition are two fixed planar partitions: the unit pixels of
[0,n]^2, and [0,4]^2 with two boxes larger than a pixel amid ten
pixels.
"""

import random
from itertools import chain, product

from rectdual.boxes import IntBox, pixel_fill, validate_partition


def enumerate_rectangulations(d, n):
    """All partitions of [0,n]^d, as lists of IntBox. Desk scale only."""
    cells = n ** d

    def cell_coords(idx):
        out = []
        for _ in range(d):
            out.append(idx % n)
            idx //= n
        return tuple(reversed(out))

    def cell_index(c):
        idx = 0
        for x in c:
            idx = idx * n + x
        return idx

    results = []
    boxes = []
    covered = [False] * cells

    def candidates(lo):
        # all boxes with lowest corner lo whose cells are all free
        his = []

        def rec(k, hi):
            if k == d:
                his.append(tuple(hi))
                return
            for h in range(lo[k] + 1, n + 1):
                rec(k + 1, hi + [h])

        rec(0, [])
        for hi in his:
            box = IntBox(lo, hi)
            if all(not covered[cell_index(c)] for c in box.cells()):
                yield box

    def rec():
        idx = next((i for i in range(cells) if not covered[i]), None)
        if idx is None:
            results.append(list(boxes))
            return
        lo = cell_coords(idx)
        for box in candidates(lo):
            for c in box.cells():
                covered[cell_index(c)] = True
            boxes.append(box)
            rec()
            boxes.pop()
            for c in box.cells():
                covered[cell_index(c)] = False

    rec()
    return [validate_partition(bs, d, n) for bs in results]


def random_partition(d, n, rng: random.Random, stop=0.3):
    """Seeded random guillotine partition of [0,n]^d."""
    boxes = []

    def split(lo, hi):
        sides = [h - l for l, h in zip(lo, hi)]
        splittable = [k for k in range(d) if sides[k] >= 2]
        if not splittable or rng.random() < stop:
            boxes.append(IntBox(tuple(lo), tuple(hi)))
            return
        k = rng.choice(splittable)
        cut = rng.randrange(lo[k] + 1, hi[k])
        mid_lo = list(lo)
        mid_hi = list(hi)
        mid_hi[k] = cut
        split(mid_lo, mid_hi)
        mid_lo2 = list(lo)
        mid_lo2[k] = cut
        split(mid_lo2, list(hi))

    split([0] * d, [n] * d)
    return validate_partition(boxes, d, n)


def random_disjoint_boxes(d, n, rng: random.Random):
    """Up to eight seeded boxes of sides 1 to 3 in [0,n]^d, each kept
    unless it covers a cell of an earlier one."""
    boxes, covered = [], set()
    for _ in range(8):
        lo = [rng.randrange(n) for _ in range(d)]
        box = IntBox(lo, [min(n, a + rng.randint(1, 3)) for a in lo])
        cells = set(box.cells())
        if not cells & covered:
            boxes.append(box)
            covered |= cells
    return boxes


def random_pixel_fill(n, rng: random.Random):
    """Seeded partition of [0,n]^2: boxes with sides of 1 or 2 cells at
    random corners, each kept unless it covers a cell of an earlier one,
    and a unit pixel on every cell left over."""
    boxes, covered = [], set()
    for _ in range(rng.randrange(1, n * n // 2)):
        lo = (rng.randrange(n), rng.randrange(n))
        box = IntBox(lo, tuple(min(n, a + rng.randint(1, 2)) for a in lo))
        cells = set(box.cells())
        if not cells & covered:
            boxes.append(box)
            covered |= cells
    return pixel_fill(boxes, n)


def pixel_fill_by_validation(boxes, n):
    """boxes.pixel_fill by a covered set and one validation of all boxes,
    the given ones first, then a unit pixel on every uncovered cell in
    lexicographic order."""
    boxes = [b if isinstance(b, IntBox) else IntBox(*b) for b in boxes]
    d = boxes[0].dim if boxes else 2
    covered = set(chain.from_iterable(b.cells() for b in boxes))
    boxes += [IntBox(c, tuple(x + 1 for x in c))
              for c in product(range(n), repeat=d) if c not in covered]
    return validate_partition(boxes, d, n)


def unit_grid2(n):
    """The n^2 unit pixels of [0,n]^2."""
    boxes = [IntBox((x, y), (x + 1, y + 1)) for x in range(n) for y in range(n)]
    return validate_partition(boxes, 2, n)


def planar3_partition():
    """[0,4]^2 as the boxes [0,3]x[0,1] and [3,4]x[1,4] amid ten unit
    pixels."""
    boxes = [
        IntBox((0, 0), (3, 1)),
        IntBox((2, 1), (3, 2)),
        IntBox((3, 1), (4, 4)),
        IntBox((3, 0), (4, 1)),
        IntBox((0, 1), (1, 2)), IntBox((1, 1), (2, 2)),
        IntBox((0, 2), (1, 3)), IntBox((1, 2), (2, 3)), IntBox((2, 2), (3, 3)),
        IntBox((0, 3), (1, 4)), IntBox((1, 3), (2, 4)), IntBox((2, 3), (3, 4)),
    ]
    return validate_partition(boxes, 2, 4)
