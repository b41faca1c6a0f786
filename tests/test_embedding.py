import gc
import random
from fractions import Fraction

import pytest

from rectdual import dual
from rectdual.boxes import IntBox, validate_partition
from rectdual.dual import DimensionMismatch, build_dual
from rectdual.embedding import (
    NotFaithful,
    NotHalfIntegral,
    Projection,
    center_embeddable,
    center_projection,
    check_faithful,
    classify_projection,
)

from oracles.chains import _perm_parity as chain_parity, dual_of
from oracles.determinant import orientation_sign
from oracles.injectivity import projection_injective
from oracles.partitions import (
    planar3_partition,
    random_partition,
    unit_grid2,
)


def test_center_projection_is_faithful():
    p = unit_grid2(3)
    proj = center_projection(p)
    check_faithful(p, proj)


def test_not_faithful_on_boundary_point():
    p = unit_grid2(2)
    pts = list(center_projection(p).points2)
    pts[1] = (0, 2)  # on the boundary of box 1, not strictly inside
    with pytest.raises(NotFaithful) as exc:
        check_faithful(p, Projection(tuple(pts)))
    assert exc.value.vertex == 1


def test_not_faithful_outside_box():
    p = unit_grid2(2)
    pts = list(center_projection(p).points2)
    pts[0] = (3, 3)
    with pytest.raises(NotFaithful):
        check_faithful(p, Projection(tuple(pts)))


def test_faithful_means_strictly_inside():
    # box [0,3]x[0,1] in doubled coordinates: (3, 1) is its center; its
    # corners and points on its sides are not inside
    p = validate_partition([IntBox((0, 0), (3, 1))], 2, 3, partial=True)
    check_faithful(p, Projection(((3, 1),)))
    for pt in [(0, 0), (6, 2), (0, 1), (6, 1), (3, 0), (3, 2), (7, 1)]:
        with pytest.raises(NotFaithful):
            check_faithful(p, Projection((pt,)))


@pytest.mark.parametrize("point", [(11,), (11, 11, 0)])
def test_a_point_with_the_wrong_coordinate_count_is_refused(point):
    # box 3 lies in no top simplex, so only the faithfulness check reads it
    boxes = [IntBox((0, 0), (2, 4)), IntBox((2, 0), (4, 2)),
             IntBox((2, 2), (4, 4)), IntBox((5, 5), (6, 6))]
    p = validate_partition(boxes, 2, 6, partial=True)
    pts = center_projection(p).points2
    assert classify_projection(p, Projection(pts)).is_embedding
    proj = Projection(pts[:3] + (point,))
    with pytest.raises(DimensionMismatch):
        check_faithful(p, proj)
    with pytest.raises(DimensionMismatch):
        classify_projection(p, proj)


def test_a_projection_with_the_wrong_point_count_is_refused():
    p = unit_grid2(2)
    pts = center_projection(p).points2
    for wrong in (pts[:-1], pts + pts[:1]):
        with pytest.raises(ValueError, match="wrong number of vertices"):
            check_faithful(p, Projection(wrong))


def test_unit_grid_center_is_embedding():
    p = unit_grid2(2)
    dc = build_dual(p)
    verdict = classify_projection(p, center_projection(p))
    assert verdict.kind == "embedding"
    assert verdict.is_embedding
    assert not verdict.violations
    assert center_embeddable(p, dc)


def test_classify_refuses_the_dual_of_another_partition():
    p, q = unit_grid2(2), planar3_partition()
    with pytest.raises(ValueError, match="dual complex of another partition"):
        center_embeddable(q, build_dual(p))
    # an equal partition validated on its own has a complex of its own,
    # refused whether or not that partition is still alive
    twin = validate_partition(p.boxes, 2, 2)
    assert twin is not p
    with pytest.raises(ValueError, match="dual complex of another partition"):
        center_embeddable(twin, build_dual(p))
    dc = build_dual(twin)
    with pytest.raises(ValueError, match="dual complex of another partition"):
        center_embeddable(p, dc)
    del twin
    gc.collect()
    with pytest.raises(ValueError, match="dual complex of another partition"):
        center_embeddable(p, dc)
    assert center_embeddable(p, build_dual(p)).is_embedding


def test_strip_partition_is_unsupported():
    p = validate_partition(
        [IntBox((i, 0), (i + 1, 4)) for i in range(4)], 2, 4)
    verdict = classify_projection(p, center_projection(p))
    assert verdict.kind == "unsupported"
    assert not verdict.is_embedding


def test_planar3_center_fails_with_one_flat_triangle():
    p = planar3_partition()
    dc = build_dual(p)
    verdict = classify_projection(p, center_projection(p))
    assert verdict.kind == "not_embedding"
    assert len(verdict.violations) == 1
    v = verdict.violations[0]
    assert v.simplex == (0, 1, 2)
    assert v.expected == -1
    assert v.actual == 0
    assert not center_embeddable(p, dc)


def test_planar3_collinear_centers():
    p = planar3_partition()
    c0, c1, c2 = (p.boxes[i].center2() for i in range(3))
    assert c0 == (3, 1) and c1 == (5, 3) and c2 == (7, 5)
    rel = [tuple(a - b for a, b in zip(c, c1)) for c in (c0, c1, c2)]
    assert rel == [(-2, -2), (0, 0), (2, 2)]


def test_embedding_implies_injective():
    rng = random.Random(31)
    checked = 0
    for _ in range(30):
        # redraw the undivided square and others with no top simplex
        p = random_partition(2, 4, rng)
        while not build_dual(p).has_top():
            p = random_partition(2, 4, rng)
        dc = build_dual(p)
        proj = center_projection(p)
        verdict = classify_projection(p, proj)
        if verdict.is_embedding:
            assert projection_injective(dc, proj)
            checked += 1
    assert checked >= 5


def test_violation_implies_not_injective_or_degenerate():
    # collapsing two adjacent centers makes the map non-faithful or degenerate;
    # instead perturb a center so a triangle flips and check the oracle agrees
    p = planar3_partition()
    dc = build_dual(p)
    proj = center_projection(p)
    assert not projection_injective(dc, proj)  # flat triangle is degenerate


def _random_projection(p, rng):
    """A point strictly inside every box: its center or, for half the
    boxes, a random doubled point, which lands on many flat simplices."""
    pts = []
    for box in p.boxes:
        if rng.random() < 0.5:
            pts.append(box.center2())
        else:
            pts.append(tuple(rng.randrange(2 * a + 1, 2 * b)
                             for a, b in zip(box.lo, box.hi)))
    return Projection(tuple(pts))


@pytest.mark.parametrize("d, n, count", [(2, 8, 40), (3, 4, 40), (4, 3, 20),
                                         (5, 3, 2)])
def test_violations_match_a_recomputation_by_the_oracles(d, n, count):
    # every top simplex of the frozen enumerator, in its order, with the
    # seed sign its axis order gives and the sign of the Leibniz expansion
    rng = random.Random(17 + d)
    kinds, flat = set(), 0
    for _ in range(count):
        p = random_partition(d, n, rng, stop=0.1)
        top, _ = dual_of(p)
        if not top:
            continue
        proj = _random_projection(p, rng)
        want = []
        for key, (_, perm, ordered) in top.items():
            sign = chain_parity(perm)
            got = orientation_sign([proj.points2[i] for i in ordered])
            if got != sign:
                want.append((key, sign, got))
        verdict = classify_projection(p, proj)
        assert [(v.simplex, v.expected, v.actual)
                for v in verdict.violations] == want
        assert verdict.kind == ("not_embedding" if want else "embedding")
        kinds.add(verdict.kind)
        flat += sum(got == 0 for _, _, got in want)
    assert kinds == {"embedding", "not_embedding"} and flat


def three_box_partition():
    return validate_partition([IntBox((0, 0), (2, 1)), IntBox((0, 1), (1, 2)),
                               IntBox((1, 1), (2, 2))], 2, 2)


@pytest.mark.parametrize("points", [
    ((2.0000000001, 1.0), (1, 3), (3, 3)),
    ((2, 1), (1, 3), (Fraction(5, 2), 3)),
    ((2, 1), (1, 3), (3, 3.0)),
])
def test_a_coordinate_that_is_not_an_int_is_refused(monkeypatch, points):
    # refused before any orientation; the float point lies inside box 0 and
    # used to be classified in floating point
    p = three_box_partition()
    assert classify_projection(p, center_projection(p)).is_embedding
    bad = next(i for i, pt in enumerate(points)
               if any(type(x) is not int for x in pt))

    def refuse(*pts):
        raise AssertionError("an orientation was computed")
    monkeypatch.setattr(dual, "_orient2", refuse)
    proj = Projection(points)
    for check in (check_faithful, classify_projection):
        with pytest.raises(NotHalfIntegral) as info:
            check(p, proj)
        assert info.value.vertex == bad
