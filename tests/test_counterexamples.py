import hashlib
import time
from fractions import Fraction

import pytest

from rectdual import counterexamples
from rectdual.boxes import GridTooLarge, balance_of_set
from rectdual.counterexamples import (
    BetaTooSmall,
    gen_3d_layered,
    gen_cubical_config,
    gen_planar_3balanced,
    gen_planar_beta4,
    gen_planar_lcycle,
)
from rectdual.dual import (InexactCoordinate, build_dual, orientation,
                           partition_balance)
from rectdual.embedding import center_embeddable
from rectdual.io import format_partition
from rectdual.solver import SAT, UNSAT, enumerate_all, solve

from oracles.chains import _perm_parity as chain_parity, window_seeds
from oracles.determinant import leibniz_det, orientation_sign


# ---------------------------------------------------------------- planar


def test_lcycle_is_unsat():
    p = gen_planar_lcycle()
    assert len(p.boxes) == 225
    for i in range(6):  # the six thin rectangles lead the box order
        lo, hi = sorted(p.boxes[i].sides())
        assert lo == 1 and hi >= 4
    assert solve(p).status == UNSAT


def test_lcycle_without_sink_is_sat():
    p = gen_planar_lcycle(drop_sink=True)
    assert len(p.boxes) == 232
    res = solve(p)
    assert res.status == SAT
    assert res.projection is not None  # certificate verified inside solve


def test_planar3_balance_exactly_three():
    p = gen_planar_3balanced()
    dc = build_dual(p)
    assert partition_balance(p).value == Fraction(3)
    verdict = center_embeddable(p, dc)
    assert verdict.kind == "not_embedding"
    assert any(v.simplex == (0, 1, 2) and v.actual == 0 for v in verdict.violations)


def test_planar3_is_solvable_with_fourteen_placements():
    p = gen_planar_3balanced()
    res = enumerate_all(p)
    assert res.status == SAT
    assert len(res.solutions) == 14
    # pinning both bars to hostile corners kills every placement
    assert solve(p, pins={0: [(1, 1)], 2: [(7, 5)]}).status == UNSAT
    sub = enumerate_all(p, pins={0: [(5, 1)]})
    assert len(sub.solutions) == 5


def test_beta4_flips_the_triangle():
    p = gen_planar_beta4()
    dc = build_dual(p)
    assert partition_balance(p).value == Fraction(4)
    verdict = center_embeddable(p, dc)
    assert verdict.kind == "not_embedding"
    assert any(v.simplex == (0, 1, 2) and v.expected == -1 and v.actual == 1
               for v in verdict.violations)


# sha256 of format_partition for each planar generator: all four complete
# their gadget rectangles with boxes.pixel_fill, whose box order and ids
# must not change
PLANAR_SHA256 = {
    "lcycle":
        "8ee2b4be850428985fecb53bdc25e4c83db735a65f1b5006d7ea475bfe4c8fdd",
    "lcycle_drop_sink":
        "1bac2e2969ddf76f12f749acb04b76349afaeb3ecf78d2a9d94d6ff70bf06515",
    "3balanced":
        "6da9497d68c03d966342a8c429d1e9bf758f97e20060a7bbb1846d1eb6fff4dc",
    "beta4":
        "7cacc81ecb6d77b512631888812efb031c2f1cf65f0b86e0f589ad19c85eab8d",
}
PLANAR_GENERATORS = {
    "lcycle": gen_planar_lcycle,
    "lcycle_drop_sink": lambda: gen_planar_lcycle(drop_sink=True),
    "3balanced": gen_planar_3balanced,
    "beta4": gen_planar_beta4,
}


@pytest.mark.parametrize("name", list(PLANAR_SHA256))
def test_planar_generator_output_is_unchanged(name):
    text = format_partition(PLANAR_GENERATORS[name]())
    assert hashlib.sha256(text.encode()).hexdigest() == PLANAR_SHA256[name]


# ---------------------------------------------------------------- layered 3d


@pytest.mark.parametrize("beta,b", [(Fraction(3, 2), 11), (Fraction(2), 7), (Fraction(3), 5)])
def test_layered_partition(beta, b):
    p = gen_3d_layered(beta)
    assert len(p.boxes) == 64
    assert p.n == 4 * b
    sides = {s for bx in p.boxes for s in bx.sides()}
    assert sides == {b - 1, b, b + 2}
    assert all(b - 2 <= s <= b + 2 for s in sides)
    dc = build_dual(p)
    assert partition_balance(p).value <= beta
    verdict = center_embeddable(p, dc)
    assert verdict.kind == "not_embedding"
    # four coplanar centers: some simplex degenerates outright
    assert any(v.actual == 0 for v in verdict.violations)


@pytest.mark.parametrize("beta", [1 + Fraction(1, 10 ** 9), Fraction(55, 51)])
def test_layered_refuses_a_cube_past_the_grid_limit(beta):
    # b = 54 at 55/51 and about 4 * 10^9 at 1 + 10^-9; validation refuses
    # the owner grid before allocating it
    start = time.monotonic()
    with pytest.raises(GridTooLarge):
        gen_3d_layered(beta)
    assert time.monotonic() - start < 1


@pytest.mark.parametrize("beta", [1, Fraction(1, 2), Fraction(99, 100)])
def test_layered_rejects_tiny_beta(beta):
    with pytest.raises(BetaTooSmall):
        gen_3d_layered(beta)


@pytest.mark.parametrize("beta", ["3", 2.5, True])
def test_layered_refuses_an_inexact_beta(beta):
    # a string or a float was read by Fraction as a bound
    with pytest.raises(InexactCoordinate):
        gen_3d_layered(beta)


# ---------------------------------------------------------------- determinant


def closed_form(d, a, b):
    return Fraction(b) ** (d - 1) * (d * a - (d - 2) * b) / 2


def unperturbed_det(d, a, b):
    # the staircase centers with the unit shifts removed: the corner cube
    # [-a,0]^d, then cube i with [0,b] on axis i and [-b,0] elsewhere
    rows = [(1,) + (Fraction(-a, 2),) * d]
    for i in range(d):
        rows.append((1,) + (Fraction(-b, 2),) * i + (Fraction(b, 2),)
                    + (Fraction(-b, 2),) * (d - 1 - i))
    return leibniz_det(rows)


def test_det_formula_examples():
    for d, a, b, want in ((3, 1, 3, 0), (3, 1, 1, 1), (4, 1, 3, -27)):
        assert unperturbed_det(d, a, b) == closed_form(d, a, b) == want


def test_det_formula_exhaustive():
    # the Leibniz oracle sums (d+1)! terms, so d stops at 5
    for d in range(3, 6):
        for a in range(1, 6):
            for b in range(1, 6):
                assert unperturbed_det(d, a, b) == closed_form(d, a, b), (d, a, b)


def test_det_formula_vanishes_on_the_critical_ratio():
    # b/a = d/(d-2) zeroes the closed form
    for d, a, b in ((3, 1, 3), (4, 1, 2), (4, 2, 4), (6, 2, 3)):
        assert unperturbed_det(d, a, b) == closed_form(d, a, b) == 0


def test_the_shifts_never_flip_the_critical_ratio():
    # at b/a = d/(d-2) the unit shifts leave the centers positively oriented
    for d in (3, 4, 5):
        for a in range(1, 60):
            if a * d % (d - 2) == 0:
                cubes = counterexamples._staircase(d, a, a * d // (d - 2))
                assert orientation([c.center2() for c in cubes]) == 1


# ---------------------------------------------------------------- cubical staircase


def seed_sign_by_oracle(p, d):
    # the frozen enumerator on the 2^d cells around the vertex where the
    # staircase meets, which hold only boxes 0..d; the sign of its seed
    # chain, for the ids taken in sorted order
    t = p.boxes[0].hi[0]
    seeds = window_seeds(p.boxes[:d + 1], (t,) * d)
    assert list(seeds) == [tuple(range(d + 1))]
    return seeds[tuple(range(d + 1))][1]


@pytest.mark.parametrize("d, beta", [(3, Fraction(5)), (3, Fraction(7, 2)),
                                     (4, Fraction(5))],
                         ids=["d3-beta5", "d3-beta7_2", "d4-beta5"])
def test_cubical_staircase_flips_through_the_pipeline(d, beta):
    p = gen_cubical_config(d, beta)
    a, b = p.boxes[0].sides()[0], p.boxes[1].sides()[0]
    assert p.dim == d and p.n == 2 * b + 2
    assert [box.sides() for box in p.boxes[:d + 1]] == [(a,) * d] + [(b,) * d] * d
    assert Fraction(d, d - 2) < Fraction(b, a) < beta
    assert balance_of_set(p.boxes).value == b  # the pixels have side 1
    key = tuple(range(d + 1))
    _, _, ordered, sign = build_dual(p).seed_raw(key)
    assert sign * chain_parity(ordered) == seed_sign_by_oracle(p, d) == 1
    centers = [p.boxes[i].center2() for i in ordered]
    got = orientation_sign(centers)
    assert got == -sign
    verdict = center_embeddable(p)
    assert (key, sign, got) in [(v.simplex, v.expected, v.actual)
                                for v in verdict.violations]


def refused_by_the_grid_limit(monkeypatch, d, beta):
    def refuse(boxes, n):
        raise AssertionError("a staircase was pixel-filled")
    monkeypatch.setattr(counterexamples, "pixel_fill", refuse)
    start = time.monotonic()
    with pytest.raises(GridTooLarge):
        gen_cubical_config(d, beta)
    assert time.monotonic() - start < 1


def test_cubical_config_near_three_is_refused_by_the_grid_limit(monkeypatch):
    # no 3d staircase within 10^-9 of the bound flips before the owner grid
    # of [0, 2b+2]^3 outgrows its limit at b = 106; nothing is built
    refused_by_the_grid_limit(monkeypatch, 3, 3 + Fraction(1, 10 ** 9))


def test_cubical_config_in_5d_is_refused_before_the_scan(monkeypatch):
    # at beta = 2 no 5d staircase flips before the limit at b = 11
    refused_by_the_grid_limit(monkeypatch, 5, 2)


def test_cubical_infeasible_beta():
    for d, beta in ((3, 3), (3, Fraction(5, 2)), (4, 2), (5, Fraction(5, 3))):
        with pytest.raises(BetaTooSmall):
            gen_cubical_config(d, beta)
    with pytest.raises(ValueError):
        gen_cubical_config(2, 10)


@pytest.mark.parametrize("d, beta, error", [
    (3, "5", InexactCoordinate), (3, 5.0, InexactCoordinate),
    (3.0, 5, ValueError), (True, 5, ValueError), ("3", 5, ValueError)])
def test_cubical_config_refuses_an_inexact_argument(d, beta, error):
    with pytest.raises(error) as info:
        gen_cubical_config(d, beta)
    assert type(info.value) is error
