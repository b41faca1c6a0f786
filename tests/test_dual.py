import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectdual import dual
from rectdual.boxes import IntBox, validate_partition, vertex_owners
from rectdual.dual import (
    DimensionMismatch,
    InexactCoordinate,
    NotTopSimplex,
    SeedConflict,
    build_dual,
    orientation,
    partition_balance,
)
from rectdual.embedding import center_embeddable
from rectdual.solver import enumerate_all, solve

from oracles.determinant import orientation_sign
from oracles.partitions import enumerate_rectangulations, random_partition
from oracles.voronoi import nerve_of_partition


def unit_grid(d, n):
    cells = [(x, y) for x in range(n) for y in range(n)] if d == 2 else [
        (x, y, z) for x in range(n) for y in range(n) for z in range(n)]
    boxes = [IntBox(c, tuple(v + 1 for v in c)) for c in cells]
    return validate_partition(boxes, d, n)


# floats whose float orientation is 0; their exact sign is +1
NEAR_COLLINEAR = ((0.0, 0.0), (2834747.652200631, 283474.7652200631),
                  (8504242.956601892, 850424.2956601892))


def test_orientation_small():
    assert orientation(((0, 0), (2, 0), (0, 2))) == 1
    assert orientation(((0, 0), (0, 2), (2, 0))) == -1
    assert orientation(((0, 0), (1, 1), (2, 2))) == 0
    assert orientation(((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1))) == 1
    assert orientation([tuple(map(Fraction, p)) for p in NEAR_COLLINEAR]) == 1
    with pytest.raises(DimensionMismatch):
        orientation(((0, 0), (1, 0)))


def test_orientation_scale_invariant():
    rng = random.Random(3)
    for _ in range(100):
        pts = [tuple(rng.randrange(-9, 10) for _ in range(3)) for _ in range(4)]
        s = orientation(pts)
        scaled = [tuple(7 * x for x in p) for p in pts]
        assert orientation(scaled) == s


@st.composite
def _point_sets(draw):
    """d+1 points in R^d, d = 2, 3, 4, 5, of int or Fraction coordinates;
    degenerate sets repeat a point or put the last one on the affine hull
    of the others."""
    d = draw(st.sampled_from((2, 3, 4, 5)))
    ints = st.integers(-9, 9)
    fractions = st.fractions(-9, 9, max_denominator=6)
    coord = draw(st.sampled_from((ints, fractions, ints | fractions)))
    pts = [tuple(draw(coord) for _ in range(d)) for _ in range(d + 1)]
    kind = draw(st.sampled_from(("free", "repeat", "affine")))
    if kind == "repeat":
        pts[-1] = pts[draw(st.integers(0, d - 1))]
    elif kind == "affine":
        weights = [draw(st.integers(-3, 3)) for _ in range(d - 1)]
        weights.append(1 - sum(weights))
        pts[-1] = tuple(sum(w * p[k] for w, p in zip(weights, pts))
                        for k in range(d))
    return kind, pts


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_point_sets())
def test_orientation_agrees_with_the_leibniz_expansion(case):
    kind, pts = case
    want = orientation_sign(pts)
    assert kind == "free" or want == 0
    got = orientation(pts)
    assert type(got) is int and got == want
    assert orientation([list(p) for p in pts]) == want
    den = lcm(*(Fraction(x).denominator for p in pts for x in p))
    scaled = [[int(x * den) for x in p] for p in pts]
    assert dual._kernel(len(pts))(*scaled) == want


def test_each_dimension_has_its_kernel():
    assert [dual._kernel(d + 1) for d in range(1, 6)] == [
        dual._orient_det, dual._orient2, dual._orient3, dual._orient4,
        dual._orient_det]


@pytest.mark.parametrize("points", [
    ((0, 0), (1, 0), (0, 1, 0)),
    ((0, 0, 0), (1, 0, 0), (0, 1), (0, 0, 1)),
    ((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 1)),
    ((0, 0, 0), (1, 0, 0), (0, 1, 0)),
    ((0,),),
])
def test_orientation_refuses_points_of_the_wrong_dimension(points):
    with pytest.raises(DimensionMismatch):
        orientation(points)


@pytest.mark.parametrize("points", [
    NEAR_COLLINEAR,
    ((0, 0), (1, 0), (0, 1.0)),
    ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 0.5)),
    ((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1.0)),
    ((0, 0), (1, 0), (0, "1")),
])
def test_orientation_refuses_a_coordinate_that_is_not_exact(points):
    # floats were oriented in floating point for d = 2, 3 (NEAR_COLLINEAR
    # came out 0) and raised a bare AttributeError for d >= 4
    with pytest.raises(InexactCoordinate):
        orientation(points)


def test_dual_2x2_grid_exact():
    # lex box order: 0=(0,0) 1=(0,1) 2=(1,0) 3=(1,1)
    p = unit_grid(2, 2)
    dc = build_dual(p)
    assert dc.simplices[0] == {(0,), (1,), (2,), (3,)}
    assert dc.simplices[1] == {(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)}
    assert (1, 2) not in dc.simplices[1]
    assert dc.simplices[2] == {(0, 2, 3), (0, 1, 3)}
    # staircase chains fix the seed signs
    assert dc.seed_raw((0, 2, 3))[3] == 1
    assert dc.seed_raw((0, 1, 3))[3] == -1
    with pytest.raises(NotTopSimplex):
        dc.seed_raw((0, 1, 2))


def test_dual_2x2_seed_anchor():
    p = unit_grid(2, 2)
    dc = build_dual(p)
    anchor, perm, ordered, sign = dc.seed_raw((3, 2, 0))
    assert anchor == (1, 1)
    assert perm == (0, 1)
    # the pixels (0,0), (1,0), (1,1), in chain order
    assert ordered == (0, 2, 3)
    assert sign == 1


def test_dual_1xn_strip_has_no_triangles():
    p = validate_partition(
        [IntBox((i, 0), (i + 1, 4)) for i in range(4)], 2, 4)
    dc = build_dual(p)
    assert dc.simplices[1] == {(0, 1), (1, 2), (2, 3)}
    assert not dc.top_simplices()


def test_dual_3d_unit_cube_pair():
    p = validate_partition(
        [IntBox((0, 0, 0), (1, 1, 1)), IntBox((1, 0, 0), (2, 1, 1)),
         IntBox((0, 0, 1), (1, 1, 2)), IntBox((1, 0, 1), (2, 1, 2)),
         IntBox((0, 1, 0), (2, 2, 2))], 3, 2)
    dc = build_dual(p)
    # only the central vertex sees four distinct boxes along a chain
    assert dc.simplices[3] == {(0, 1, 3, 4), (0, 2, 3, 4)}
    assert dc.seed_raw((0, 1, 3, 4))[3] == -1  # chain order x, z, y
    assert dc.seed_raw((0, 2, 3, 4))[3] == 1   # chain order z, x, y


def test_dual_2x2x2_grid_tetra_count():
    p = unit_grid(3, 2)
    dc = build_dual(p)
    # all 6 axis orders give distinct chains through the center vertex
    assert len(dc.simplices[3]) == 6
    signs = sorted(dc.seed_raw(k)[3] for k in dc.simplices[3])
    assert signs == [-1, -1, -1, 1, 1, 1]


def test_downward_closure():
    rng = random.Random(5)
    for _ in range(20):
        p = random_partition(2, 5, rng)
        dc = build_dual(p)
        for tri in dc.simplices.get(2, ()):
            for i in range(3):
                e = tri[:i] + tri[i + 1:]
                assert e in dc.simplices[1]


def test_dual_matches_voronoi_nerve_2x2():
    p = unit_grid(2, 2)
    want = nerve_of_partition(p, 3)
    dc = build_dual(p)
    assert dc.simplices[1] == want[1]
    assert dc.simplices[2] == want[2]


@pytest.mark.parametrize("n", [2, 3])
def test_dual_matches_voronoi_nerve_exhaustive(n):
    seen = 0
    for p in enumerate_rectangulations(2, n):
        dc = build_dual(p)
        want = nerve_of_partition(p, 3)
        assert dc.simplices.get(1, set()) == want.get(1, set()), p.boxes
        assert dc.simplices.get(2, set()) == want.get(2, set()), p.boxes
        seen += 1
        if seen >= 60:
            break
    assert seen > 5


def test_dual_matches_voronoi_nerve_random_3x3():
    rng = random.Random(17)
    for _ in range(12):
        p = random_partition(2, 3, rng)
        dc = build_dual(p)
        want = nerve_of_partition(p, 3)
        assert dc.simplices.get(1, set()) == want.get(1, set())
        assert dc.simplices.get(2, set()) == want.get(2, set())


def test_dual_matches_voronoi_nerve_3d():
    p = validate_partition(
        [IntBox((0, 0, 0), (1, 1, 1)), IntBox((1, 0, 0), (2, 1, 1)),
         IntBox((0, 0, 1), (1, 1, 2)), IntBox((1, 0, 1), (2, 1, 2)),
         IntBox((0, 1, 0), (2, 2, 2))], 3, 2)
    dc = build_dual(p)
    want = nerve_of_partition(p, 4)
    for k in (1, 2, 3):
        assert dc.simplices.get(k, set()) == want.get(k, set())


def test_closure_reads_a_vertex_with_gaps_on_its_diagonal():
    # the one interior vertex of [0,2]^3 has gaps in its all-below and
    # all-above cells, so the top walk skips it; the chain (0,0,0),
    # (1,0,0), (1,1,0), (1,1,1) there still visits both boxes
    p = validate_partition([IntBox((1, 0, 0), (2, 1, 1)),
                            IntBox((1, 1, 0), (2, 2, 1))], 3, 2, partial=True)
    dc = build_dual(p)
    assert not dc.has_top()
    assert dc.edges() == {(0, 1)}


def test_seed_conflict_never_fires_on_valid_partitions():
    rng = random.Random(23)
    for _ in range(40):
        p = random_partition(2, 6, rng)
        try:
            build_dual(p)
        except SeedConflict as exc:  # pragma: no cover - would be a real bug
            pytest.fail(f"seed conflict on valid partition: {exc}")


def test_a_second_chain_of_a_top_simplex_is_refused():
    p = unit_grid(2, 2)
    pair = next(iter(vertex_owners(2, 2, p.owner_grid())))
    assert list(dual._seeds(2, [pair])) == [(0, 2, 3), (0, 1, 3)]
    with pytest.raises(SeedConflict):
        dual._seeds(2, [pair, pair])


def _rainbow_chains(p):
    """sorted ids -> number of chains, over every grid vertex and axis
    order, whose d+1 cells lie in d+1 distinct boxes; each cell's owner
    is read off the box corners."""
    d, n = p.dim, p.n
    owner = {}
    for i, box in enumerate(p.boxes):
        for cell in product(*map(range, box.lo, box.hi)):
            owner[cell] = i
    counts = Counter()
    for w in product(range(n + 1), repeat=d):
        for perm in permutations(range(d)):
            cell = [x - 1 for x in w]
            ids = [owner.get(tuple(cell))]
            for k in perm:
                cell[k] += 1
                ids.append(owner.get(tuple(cell)))
            if None not in ids and len(set(ids)) == d + 1:
                counts[tuple(sorted(ids))] += 1
    return counts


def _one_chain_corpus():
    yield from enumerate_rectangulations(2, 3)
    yield from enumerate_rectangulations(3, 2)
    rng = random.Random(29)
    for d, n, count in ((2, 8, 40), (3, 5, 20), (4, 4, 8)):
        for _ in range(count):
            boxes = random_partition(d, n, rng, stop=0.2).boxes
            yield validate_partition(boxes, d, n)
            # every third box dropped leaves gaps
            yield validate_partition(boxes[::3] + boxes[2::3], d, n,
                                     partial=True)


def test_every_top_simplex_has_one_chain():
    # the proof in the dual module docstring, checked over the 3x3
    # rectangulations, those of [0,2]^3, and guillotine partitions with
    # and without gaps in 2d, 3d and 4d
    seen = 0
    for p in _one_chain_corpus():
        counts = _rainbow_chains(p)
        assert set(counts.values()) <= {1}, p.boxes
        assert set(counts) == set(build_dual(p).top_simplices()), p.boxes
        seen += len(counts)
    assert seen > 1000


def test_balance_reads_a_box_with_no_edge():
    p = validate_partition([IntBox((0, 0), (1, 3))], 2, 3, partial=True)
    assert not build_dual(p).edges()
    report = partition_balance(p)
    assert report.value == 3
    assert report.witness == (p.boxes[0], p.boxes[0])
    # beside an edge of two unit squares, the box with no edge still counts
    q = validate_partition([IntBox((0, 0), (1, 1)), IntBox((1, 0), (2, 1)),
                            IntBox((3, 0), (4, 3))], 2, 4, partial=True)
    assert list(build_dual(q).edges()) == [(0, 1)]
    assert partition_balance(q).witness == (q.boxes[2], q.boxes[2])


def test_build_dual_is_cached_on_the_partition(monkeypatch):
    p = unit_grid(2, 3)
    walks = []
    real = dual._chains
    monkeypatch.setattr(dual, "_chains", lambda q: walks.append(q) or real(q))
    dc = build_dual(p)
    assert build_dual(p) is dc
    assert len(walks) == 1 and walks[0] is p
    # an equal partition built on its own gets its own walk
    q = validate_partition(p.boxes, 2, 3)
    assert q == p and build_dual(q) is not dc
    assert len(walks) == 2


def test_closure_is_built_only_when_read(monkeypatch):
    p = random_partition(2, 5, random.Random(2))
    walks = []
    real = dual._chains
    monkeypatch.setattr(dual, "_chains", lambda q: walks.append(q) or real(q))
    dc = build_dual(p)
    assert dc.has_top()
    center_embeddable(p, dc)
    center_embeddable(p)
    solve(p)
    enumerate_all(p, pins={0: [p.boxes[0].center2()]})
    assert len(walks) == 1 and walks[0] is p
    # the downward closure was not walked
    assert dc._simplices is None
    monkeypatch.undo()
    # first read builds the closure, later reads return the same dict
    assert dc.simplices is dc.simplices
    assert dc.simplices[2] == set(dc.top_simplices())
    assert dc.edges() is dc.simplices[1]
