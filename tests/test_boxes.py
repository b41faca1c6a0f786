import random
from fractions import Fraction

import pytest

from rectdual.boxes import (
    BalanceReport,
    CoverageGap,
    IntBox,
    OutOfBounds,
    Overlap,
    balance_of_set,
    is_generic,
    partition_balance,
    validate_partition,
    _check_disjoint_sweep,
)
from rectdual.dual import build_dual

from oracles.disjoint import check_disjoint_all_pairs
from oracles.partitions import random_partition


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
    assert b.contains_point2((3, 1))
    assert not b.contains_point2((0, 0))


def test_box_rejects_bad_corners():
    with pytest.raises(ValueError):
        IntBox((0, 0), (0, 1))
    with pytest.raises(ValueError):
        IntBox((0,), (1, 2))
    with pytest.raises(ValueError):
        IntBox((0.5, 0), (1, 1))


def test_validate_unit_grid():
    p = validate_partition(pixels([(0, 0), (0, 1), (1, 0), (1, 1)]), 2, 2)
    assert p.n == 2 and len(p.boxes) == 4
    assert p.owner_of((1, 1)) == 3
    assert p.owner_of((2, 0)) == -1


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


def test_sweep_agrees_with_all_pairs():
    rng = random.Random(7)
    for _ in range(200):
        d = rng.choice((2, 3))
        n = rng.randrange(2, 7)
        boxes = []
        for _ in range(rng.randrange(2, 8)):
            lo = tuple(rng.randrange(0, n) for _ in range(d))
            hi = tuple(l + rng.randrange(1, n - l + 1) for l in lo)
            boxes.append(IntBox(lo, hi))
        try:
            check_disjoint_all_pairs(boxes)
            ok_pairs = True
        except Overlap:
            ok_pairs = False
        try:
            _check_disjoint_sweep(boxes)
            ok_sweep = True
        except Overlap:
            ok_sweep = False
        assert ok_pairs == ok_sweep


def test_is_generic():
    # four pixels meeting at one point exceed d+1 = 3 boxes
    p = validate_partition(pixels([(0, 0), (0, 1), (1, 0), (1, 1)]), 2, 2)
    flag, witness = is_generic(p)
    assert not flag and witness == (1, 1)
    # a guillotine split never stacks more than 3 boxes at a point
    p2 = validate_partition(
        [IntBox((0, 0), (1, 2)), IntBox((1, 0), (2, 1)), IntBox((1, 1), (2, 2))],
        2, 2)
    flag, witness = is_generic(p2)
    assert flag and witness is None


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
    dc = build_dual(p)
    rep = partition_balance(p, dc)
    assert rep.value == 4


def test_partition_balance_unit_grid_is_one():
    p = validate_partition(pixels([(0, 0), (0, 1), (1, 0), (1, 1)]), 2, 2)
    assert partition_balance(p, build_dual(p)).value == 1


def test_random_partitions_validate():
    rng = random.Random(11)
    for _ in range(50):
        p = random_partition(2, 5, rng)
        total = sum(b.volume() for b in p.boxes)
        assert total == 25
