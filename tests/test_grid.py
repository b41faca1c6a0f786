"""The owner grid of the cube's n^d cells, its vertex walk, and the
chains read from it, checked against brute force and the frozen generic
enumerator."""

import random
import time
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectdual import boxes as boxes_mod
from rectdual import dual, solver
from rectdual.boxes import (
    _GRID_LIMIT,
    GridTooLarge,
    IntBox,
    Overlap,
    validate_partition,
    vertex_owners,
)
from rectdual.counterexamples import gen_3d_layered, gen_planar_lcycle
from rectdual.dual import DualComplex, TooManyChains, build_dual
from rectdual.io import parse_partition
from rectdual.solver import solve

from oracles.chains import dual_of
from oracles.determinant import orientation_sign
from oracles.disjoint import check_disjoint_all_pairs
from oracles.partitions import random_partition


def _guillotine(d, n, seed):
    return lambda: random_partition(d, n, random.Random(seed), stop=0.2)


def _with_gaps(d, n, seed):
    # every third box of a guillotine dropped leaves gaps inside the cube
    def build():
        boxes = random_partition(d, n, random.Random(seed), stop=0.2).boxes
        return validate_partition(boxes[::3] + boxes[2::3], d, n, partial=True)
    return build


def _unit_cubes(d, n, drop=()):
    # every unit cell of [0,n]^d is a box, but the dropped cells
    cells = [c for c in product(range(n), repeat=d) if c not in drop]
    return lambda: validate_partition(
        [IntBox(c, tuple(x + 1 for x in c)) for c in cells], d, n,
        partial=bool(drop))


# labelled by position: seed 1 leaves the cube undivided in every
# dimension, so it is skipped
PARTITIONS = {
    **{f"guillotine{d}d#{i}": _guillotine(d, n, seed)
       for d, n, seeds in ((2, 8, (0, 2, 3, 4)), (3, 5, (0, 2, 3)),
                           (4, 3, (0, 2)), (5, 3, (4,)))
       for i, seed in enumerate(seeds)},
    # n = 1 has no interior grid vertex; n = 2 has one, with 2^d owners
    **{f"cubes{d}d_n{n}": _unit_cubes(d, n) for d in (3, 4) for n in (1, 2)},
    # one gap at a corner of the cube, one strictly inside it
    "cubes3d_two_gaps": _unit_cubes(3, 3, drop=((0, 0, 0), (1, 1, 1))),
    **{f"gaps{d}d#{seed}": _with_gaps(d, n, seed)
       for d, n, seed in ((2, 8, 0), (2, 8, 2), (3, 5, 0), (4, 3, 0))},
    "gaps_and_a_lone_box": lambda: validate_partition(
        [IntBox((0, 0), (2, 4)), IntBox((2, 0), (4, 2)),
         IntBox((2, 2), (4, 4)), IntBox((5, 5), (6, 6))], 2, 6, partial=True),
    "strip4": lambda: validate_partition(
        [IntBox((i, 0), (i + 1, 4)) for i in range(4)], 2, 4),
    "one_box": lambda: validate_partition([IntBox((0, 0), (3, 3))], 2, 3),
    "lcycle": gen_planar_lcycle,
    "layered4": lambda: gen_3d_layered(4),
}


@pytest.mark.parametrize("label", PARTITIONS)
def test_chains_match_frozen_enumerator(label):
    p = PARTITIONS[label]()
    dc = build_dual(p)
    if label.startswith("guillotine"):
        assert dc.has_top()
    top, simplices = dual_of(p)
    # same keys, seeds and insertion order
    assert [(k, v[:3]) for k, v in dc._top.items()] == list(top.items())
    assert dc.simplices == simplices
    # each stored sign is the orientation of its chain's pixel centers
    for anchor, perm, _, sign in dc._top.values():
        cell = [x - 1 for x in anchor]
        centers = [tuple(2 * c + 1 for c in cell)]
        for axis in perm:
            cell[axis] += 1
            centers.append(tuple(2 * c + 1 for c in cell))
        assert orientation_sign(centers) == sign


def _brute_owner(boxes, cell):
    for i, box in enumerate(boxes):
        if all(a <= c < b for a, b, c in zip(box.lo, box.hi, cell)):
            return i
    return -1


def _first_claimed_twice(boxes):
    """(owner, box) for the first cell, in box order and then
    lexicographic cell order, that a box shares with an earlier box, the
    owner being the earlier box; None for disjoint boxes."""
    for i, box in enumerate(boxes):
        for cell in box.cells():
            owner = _brute_owner(boxes[:i], cell)
            if owner != -1:
                return boxes[owner], box
    return None


@st.composite
def _box_sets(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4 if d < 4 else 3))
    boxes = []
    for _ in range(draw(st.integers(1, 5))):
        lo = [draw(st.integers(0, n - 1)) for _ in range(d)]
        hi = [draw(st.integers(a + 1, n)) for a in lo]
        boxes.append(IntBox(tuple(lo), tuple(hi)))
    return d, n, boxes


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_box_sets())
def test_owner_grid_matches_brute_force(case):
    d, n, boxes = case
    try:
        check_disjoint_all_pairs(boxes)
        disjoint = True
    except Overlap:
        disjoint = False
    pair = _first_claimed_twice(boxes)
    assert (pair is None) == disjoint
    if pair:
        with pytest.raises(Overlap) as info:
            validate_partition(boxes, d, n, partial=True)
        assert (info.value.box_a, info.value.box_b) == pair
        return
    p = validate_partition(boxes, d, n, partial=True)
    grid = p.owner_grid()
    # the cube's cells in row-major order, and -1 outside the cube
    assert grid == [_brute_owner(boxes, cell)
                    for cell in product(range(n), repeat=d)]
    for cell in product(range(-1, n + 1), repeat=d):
        assert p.owner_of(cell) == _brute_owner(boxes, cell)
    # the whole cube selects every interior vertex
    walk = list(vertex_owners(d, n, grid, [((0,) * d, (n,) * d)]))
    assert [w for w, _ in walk] == list(product(range(1, n), repeat=d))
    for w, around in walk:
        assert list(around) == [
            _brute_owner(boxes, [x - 1 + (s >> k & 1) for k, x in enumerate(w)])
            for s in range(1 << d)]
    # the default selection: all-below and all-above cells differ in owner
    assert list(vertex_owners(d, n, grid)) == [
        (w, around) for w, around in walk if around[0] != around[-1]]


@st.composite
def _vertex_boxes(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    within = []
    for _ in range(draw(st.integers(0, 4))):
        lo = [draw(st.integers(0, n)) for _ in range(d)]
        hi = [draw(st.integers(a, n)) for a in lo]
        within.append((tuple(lo), tuple(hi)))
    return d, n, within


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_vertex_boxes())
def test_vertex_boxes_select_the_interior_vertices_in_them(case):
    # every box is given twice, so every selected vertex lies in two or
    # more of them, and is still read once, in lexicographic order
    d, n, within = case
    grid = random_partition(d, n, random.Random(n)).owner_grid()
    every = dict(vertex_owners(d, n, grid, [((0,) * d, (n,) * d)]))
    got = list(vertex_owners(d, n, grid, within + within))
    assert [w for w, _ in got] == [
        w for w in product(range(1, n), repeat=d)
        if any(all(a <= x <= b for a, x, b in zip(lo, w, hi))
               for lo, hi in within)]
    assert all(around == every[w] for w, around in got)


def test_a_chain_table_larger_than_the_grid_limit_is_refused():
    # 2^11 cells pass the grid limit; 11! chains per vertex do not
    p = validate_partition([IntBox((0,) * 11, (2,) * 11)], 11, 2)
    with pytest.raises(TooManyChains) as info:
        build_dual(p)
    assert info.value.chains == factorial(11) > _GRID_LIMIT
    # the closure walk refuses it too, on a complex with no top simplex
    with pytest.raises(TooManyChains):
        DualComplex(p, {}).simplices


def test_build_dual_refuses_a_huge_chain_table_before_reading_vertices(
        monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("read a vertex")
    # 2^23 cells around a vertex pass the grid limit; 23! chains do not
    p = validate_partition([IntBox((0,) * 23, (1,) * 23)], 23, 1)
    monkeypatch.setattr(dual, "vertex_owners", refuse)
    with pytest.raises(TooManyChains):
        build_dual(p)


def test_solve_refuses_a_huge_chain_table_before_listing_vertices(
        monkeypatch):
    def refuse(boxes):
        raise AssertionError("selected the lower faces")
    monkeypatch.setattr(solver, "_lower_faces", refuse)
    p = validate_partition([IntBox((0,) * 11, (2,) * 11)], 11, 2)
    with pytest.raises(TooManyChains):
        solve(p)


def test_huge_grid_is_refused_before_allocation():
    # the owner grid would need about 10^15 cells
    with pytest.raises(GridTooLarge) as info:
        parse_partition("3 100000 1\n0 100000 0 100000 0 100000\n")
    assert info.value.cells == 100000 ** 3


def test_the_size_rule_counts_the_cubes_cells(monkeypatch):
    monkeypatch.setattr(boxes_mod, "_GRID_LIMIT", 100)
    assert len(validate_partition([IntBox((0, 0), (10, 10))], 2, 10)
               .owner_grid()) == 100
    with pytest.raises(GridTooLarge) as info:
        validate_partition([IntBox((0, 0), (11, 11))], 2, 11)
    assert info.value.cells == 121


def test_the_size_rule_bounds_the_dimension():
    # 2^24 cells around a vertex exceed the limit, though [0,1]^24 has one
    with pytest.raises(GridTooLarge) as info:
        validate_partition([IntBox((0,) * 24, (1,) * 24)], 24, 1)
    assert (info.value.d, info.value.n, info.value.cells) == (24, 1, 1)


def test_a_huge_dimension_is_refused_before_any_power_is_built():
    start = time.perf_counter()
    with pytest.raises(GridTooLarge) as info:
        parse_partition("10000000 1 0\n")
    assert time.perf_counter() - start < 0.1
    assert info.value.d == 10 ** 7
