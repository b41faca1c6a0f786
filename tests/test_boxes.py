import random
import sys
from fractions import Fraction
from itertools import product

import pytest

from rectdual import boxes as boxes_mod
from rectdual.boxes import (
    BalanceReport,
    CoverageGap,
    GridTooLarge,
    IntBox,
    OutOfBounds,
    Overlap,
    balance_of_set,
    is_generic,
    pixel_fill,
    validate_partition,
)
from rectdual.dual import build_dual, partition_balance

from oracles.partitions import (
    pixel_fill_by_validation,
    random_disjoint_boxes,
    random_partition,
)


def pixels(cells):
    return [IntBox(c, tuple(x + 1 for x in c)) for c in cells]


def test_box_basics():
    b = IntBox((0, 0), (3, 1))
    assert b.sides() == (3, 1)
    assert b.volume() == 3
    assert b.center2() == (3, 1)
    assert balance_of_set((b,)).value == 3
    assert not b.is_pixel()
    assert sorted(b.cells()) == [(0, 0), (1, 0), (2, 0)]


def test_box_rejects_bad_corners():
    with pytest.raises(ValueError):
        IntBox((0, 0), (0, 1))
    with pytest.raises(ValueError):
        IntBox((0,), (1, 2))
    with pytest.raises(ValueError):
        IntBox((0.5, 0), (1, 1))
    # a bool is an int subclass: [False,True]x[0,1] passed as a partition
    # of [0,1]^2 and was written as "False True 0 1", which no parser reads
    with pytest.raises(ValueError):
        IntBox((False, 0), (True, 1))
    with pytest.raises(ValueError):
        IntBox((0, 0), (1, True))


def test_validate_unit_grid():
    p = validate_partition(pixels([(0, 0), (0, 1), (1, 0), (1, 1)]), 2, 2)
    assert p.n == 2 and len(p.boxes) == 4
    assert p.owner_of((1, 1)) == 3
    assert p.owner_of((2, 0)) == -1


@pytest.mark.parametrize("cell", [(1,), (0, 1, 0), (True, 1), (0, 1.0)],
                         ids=["short", "long", "bool", "float"])
def test_owner_of_refuses_a_cell_that_is_not_dim_ints(cell):
    p = validate_partition(pixels([(0, 0), (0, 1), (1, 0), (1, 1)]), 2, 2)
    with pytest.raises(ValueError):
        p.owner_of(cell)


def test_validate_single_box():
    p = validate_partition([IntBox((0, 0, 0), (2, 2, 2))], 3, 2)
    assert p.boxes[0].volume() == 8


def test_validate_errors():
    with pytest.raises(OutOfBounds):
        validate_partition([IntBox((0, 0), (3, 2))], 2, 2)
    with pytest.raises(Overlap):
        validate_partition(
            [IntBox((0, 0), (2, 1)), IntBox((1, 0), (2, 2)),
             IntBox((0, 1), (1, 2))], 2, 2)
    with pytest.raises(CoverageGap):
        validate_partition([IntBox((0, 0), (1, 2))], 2, 2)
    # partial mode tolerates gaps but not overlaps
    p = validate_partition([IntBox((0, 0), (1, 2))], 2, 2, partial=True)
    assert p.partial
    with pytest.raises(Overlap):
        validate_partition([IntBox((0, 0), (2, 2)), IntBox((1, 1), (2, 2))],
                           2, 2, partial=True)


def test_coverage_gap_names_the_missing_volume():
    cases = [([IntBox((0, 0), (1, 2))], 2, 2, 2), ([], 2, 3, 9),
             ([IntBox((0, 0), (2, 1)), IntBox((0, 1), (1, 2))], 2, 2, 1),
             ([IntBox((0, 0, 0), (2, 1, 2)), IntBox((1, 1, 1), (2, 2, 2))],
              3, 2, 3)]
    rng = random.Random(13)
    for d, n in ((2, 6), (3, 4), (4, 3)) * 4:
        boxes = random_partition(d, n, rng, stop=0.2).boxes
        if len(boxes) > 1:
            kept = boxes[::3] + boxes[2::3]
            cases.append((kept, d, n, sum(b.volume() for b in boxes[1::3])))
    assert len(cases) > 10
    for boxes, d, n, missing in cases:
        with pytest.raises(CoverageGap) as info:
            validate_partition(boxes, d, n)
        assert info.value.missing_volume == missing


@pytest.mark.parametrize("d, n", [
    (True, 1), (2, True), (2, 2.5), (2, "3"), (2.0, 2), (0, 2), (2, 0),
])
def test_validate_refuses_malformed_d_and_n(d, n):
    with pytest.raises(ValueError) as info:
        validate_partition([], d, n, partial=True)
    assert type(info.value) is ValueError


def test_is_generic():
    # four pixels meeting at one point exceed d+1 = 3 boxes
    p = validate_partition(pixels([(0, 0), (0, 1), (1, 0), (1, 1)]), 2, 2)
    flag, witness = is_generic(p)
    assert not flag and witness == (1, 1)
    # the answer's truth value is its flag, not that of a nonempty pair
    assert bool(is_generic(p)) is False
    assert not is_generic(p)
    # a guillotine split never stacks more than 3 boxes at a point
    p2 = validate_partition(
        [IntBox((0, 0), (1, 2)), IntBox((1, 0), (2, 1)), IntBox((1, 1), (2, 2))],
        2, 2)
    flag, witness = is_generic(p2)
    assert flag and witness is None
    assert bool(is_generic(p2)) is True
    # the 16 unit pixels of [0,2]^4: the boundary vertex (0, 1, 1, 1)
    # already has 8 > 5 boxes around it, but the witness is the first
    # interior vertex, which has all 16
    p4 = validate_partition(pixels(product(range(2), repeat=4)), 4, 2)
    assert is_generic(p4) == (False, (1, 1, 1, 1))


def test_balance_of_set():
    rep = balance_of_set([IntBox((0, 0), (3, 1)), IntBox((0, 1), (3, 3))])
    assert rep.value == Fraction(3, 1)
    assert rep.witness[0].sides() == (3, 1) or rep.witness[0].sides() == (3, 2)
    rep2 = balance_of_set([IntBox((0, 0), (2, 2))])
    assert rep2.value == 1


def test_balance_rejects_bad_input():
    with pytest.raises(ValueError):
        balance_of_set([])
    box = IntBox((0, 0), (1, 1))
    with pytest.raises(ValueError):
        BalanceReport(Fraction(1, 2), (box, box))


def test_partition_balance_uses_dual_edges():
    # 1x1 pixels and one 1x4 box that never meets the far pixels
    boxes = [IntBox((0, 0), (1, 4))] + pixels(
        [(1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2), (2, 3),
         (3, 0), (3, 1), (3, 2), (3, 3)])
    p = validate_partition(boxes, 2, 4)
    rep = partition_balance(p)
    assert rep.value == 4


def _balance_by_edges(p):
    """partition_balance by its definition: balance_of_set of every edge
    and then of every box, in order, kept when strictly greater."""
    best = BalanceReport(Fraction(1), (p.boxes[0], p.boxes[0]))
    for i, j in build_dual(p).edges():
        rep = balance_of_set((p.boxes[i], p.boxes[j]))
        if rep.value > best.value:
            best = rep
    for box in p.boxes:
        rep = balance_of_set((box,))
        if rep.value > best.value:
            best = rep
    return best


def test_partition_balance_matches_per_edge_reports():
    rng = random.Random(5)
    parts = [random_partition(d, n, rng, stop=0.1)
             for d, n in ((2, 6), (2, 8), (3, 4), (3, 5)) for _ in range(6)]
    parts.append(validate_partition(
        [IntBox((0, 0), (1, 4))] + pixels([(x, y) for x in (1, 2, 3)
                                           for y in range(4)]), 2, 4))
    # two boxes, each the longest of one edge and the shortest of another
    parts.append(validate_partition(
        [IntBox((0, 0), (2, 1)), IntBox((0, 1), (1, 2)),
         IntBox((1, 1), (2, 2))], 2, 2))
    assert sum(len(p.boxes) > 1 for p in parts) > 20
    for p in parts:
        got = partition_balance(p)
        want = _balance_by_edges(p)
        assert (got.value, got.witness) == (want.value, want.witness)


def test_partition_balance_of_no_boxes_is_refused():
    # as balance_of_set refuses the empty set, not with an IndexError
    p = validate_partition([], 2, 3, partial=True)
    with pytest.raises(ValueError, match="empty set"):
        partition_balance(p)


def test_partition_balance_unit_grid_is_one():
    p = validate_partition(pixels([(0, 0), (0, 1), (1, 0), (1, 1)]), 2, 2)
    assert partition_balance(p).value == 1


def test_random_partitions_validate():
    rng = random.Random(11)
    for _ in range(50):
        p = random_partition(2, 5, rng)
        total = sum(b.volume() for b in p.boxes)
        assert total == 25


# ---------------------------------------------------------------- pixel_fill


PIXEL_FILL_CASES = [
    pytest.param(random_disjoint_boxes(d, n, random.Random(seed)), n,
                 id=f"{seed}-{d}-{n}")
    for d, n in [(2, 7), (3, 4), (4, 3)] for seed in range(5)
] + [
    pytest.param([], 3, id="no-boxes"),
    pytest.param([IntBox((0, 0), (1, 3)), IntBox((1, 0), (3, 2)),
                  IntBox((1, 2), (3, 3))], 3, id="full-tiling"),
]


@pytest.mark.parametrize("boxes, n", PIXEL_FILL_CASES)
def test_pixel_fill_matches_validation(boxes, n):
    got = pixel_fill(boxes, n)
    want = pixel_fill_by_validation(boxes, n)
    assert got.boxes == want.boxes
    assert got.owner_grid() == want.owner_grid()
    assert (got.dim, got.n, got.partial) == (want.dim, want.n, False)


def test_pixel_fill_refuses_before_building_pixels(monkeypatch):
    given = [IntBox((0, 0), (1, 1))]
    built = []
    post_init, pixel = IntBox.__post_init__, boxes_mod._pixel

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(boxes_mod, "_GRID_LIMIT", 100)
    monkeypatch.setattr(IntBox, "__post_init__", counting)
    # pixels skip the constructor, so count the path that builds them too
    monkeypatch.setattr(boxes_mod, "_pixel",
                        lambda lo, hi: built.append(lo) or pixel(lo, hi))
    with pytest.raises(GridTooLarge) as info:
        pixel_fill(given, 20)
    assert info.value.cells == 20 * 20
    assert built == []
    # with the limit lifted the same fill builds its 399 pixels there
    monkeypatch.setattr(boxes_mod, "_GRID_LIMIT", 10 ** 7)
    assert len(pixel_fill(given, 20).boxes) == 400
    assert len(built) == 399


@pytest.mark.parametrize("boxes, n", PIXEL_FILL_CASES)
def test_pixel_fill_pixels_are_constructed_boxes(boxes, n):
    # the pixels skip the constructor, yet compare, hash and print like
    # constructed ones, and keep a key-sharing dict of the same size
    p = pixel_fill(boxes, n)
    made = p.boxes[len(boxes):]
    assert all(b.is_pixel() for b in made)
    for px in made:
        box = IntBox(list(px.lo), [x + 1 for x in px.lo])
        assert px == box and hash(px) == hash(box) and str(px) == str(box)
        assert type(px.lo) is type(px.hi) is tuple
        assert all(type(x) is int for x in px.lo + px.hi)
        assert list(vars(px)) == ["lo", "hi"]
        assert sys.getsizeof(vars(px)) == sys.getsizeof(vars(box))


def test_pixel_fill_errors():
    a, b = IntBox((0, 0), (2, 2)), IntBox((1, 1), (3, 3))
    with pytest.raises(Overlap) as info:
        pixel_fill([a, b], 4)
    assert (info.value.box_a, info.value.box_b) == (a, b)
    with pytest.raises(OutOfBounds) as info:
        pixel_fill([IntBox((2, 0), (5, 1))], 4)
    assert info.value.box == IntBox((2, 0), (5, 1))
    with pytest.raises(ValueError) as info:
        pixel_fill([IntBox((0, 0), (1, 1)), IntBox((1, 1, 1), (2, 2, 2))], 4)
    assert type(info.value) is ValueError
