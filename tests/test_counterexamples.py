import hashlib
import time
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest

from rectdual import counterexamples
from rectdual.boxes import GridTooLarge, IntBox
from rectdual.counterexamples import (
    BetaTooSmall,
    ConstructionFault,
    NoFeasibleAB,
    NotRepresentable,
    ScanTooLarge,
    TooSmall,
    coprime_base,
    fill_threshold,
    gen_3d_layered,
    gen_cubical_config,
    gen_planar_3balanced,
    gen_planar_beta4,
    gen_planar_lcycle,
    represent_two_products,
    square_fill,
    verify_det_formula,
)
from rectdual.dual import build_dual, orientation, partition_balance
from rectdual.embedding import center_embeddable
from rectdual.io import format_partition
from rectdual.solver import SAT, UNSAT, enumerate_all, solve

from oracles.numbers import brute_fill_threshold, brute_represent


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


# ---------------------------------------------------------------- determinant


def test_det_formula_examples():
    assert verify_det_formula(3, 1, 3) == (0, 0, True)
    assert verify_det_formula(3, 1, 1) == (1, 1, True)
    assert verify_det_formula(4, 1, 3) == (-27, -27, True)


def test_det_formula_exhaustive():
    for d in range(3, 11):
        for a in range(1, 6):
            for b in range(1, 6):
                exact, closed, equal = verify_det_formula(d, a, b)
                assert equal, (d, a, b, exact, closed)


def test_det_formula_vanishes_on_the_critical_ratio():
    # b/a = d/(d-2) zeroes the closed form
    for d, a, b in ((3, 1, 3), (4, 1, 2), (4, 2, 4), (6, 2, 3)):
        exact, closed, equal = verify_det_formula(d, a, b)
        assert equal and exact == 0


# ---------------------------------------------------------------- coprime sides


def test_coprime_base_examples():
    assert coprime_base(2, 1) == (7, 8, 9)
    assert coprime_base(3, 1) == (31, 32, 33, 35)
    assert coprime_base(1, 2) == (5, 6)


def test_coprime_base_exhaustive_gcd():
    for k in range(1, 8):
        for lam in range(1, 4):
            out = coprime_base(k, lam)
            assert len(out) == k + 1
            for x, y in combinations(out, 2):
                assert gcd(x, y) == 1


def test_coprime_base_rejects_bad_input():
    with pytest.raises(ValueError):
        coprime_base(0, 1)
    with pytest.raises(ValueError):
        coprime_base(2, 0)


# ---------------------------------------------------------------- representability


def test_represent_examples():
    assert represent_two_products(6, 35, 170) == (5, 4)
    assert represent_two_products(6, 35, 169) is None
    assert represent_two_products(1, 5, 3) == (3, 0)


def test_represent_matches_brute_force():
    for length in range(501):
        got = represent_two_products(6, 35, length)
        want = brute_represent(6, 35, length)
        assert got == want, (length, got, want)
        if got is not None:
            lam1, lam2 = got
            assert lam1 >= 0 and lam2 >= 0 and 6 * lam1 + 35 * lam2 == length


def test_represent_rejects_shared_factor():
    with pytest.raises(ValueError):
        represent_two_products(6, 10, 46)


def test_fill_threshold_values():
    assert fill_threshold((2, 3)) == 2
    assert fill_threshold((2, 3, 5, 7)) == 182
    for sides in ((2, 3), (5, 7), (2, 3, 5, 7), (3, 4, 5, 7)):
        assert fill_threshold(sides) == brute_fill_threshold(sides)


def test_fill_threshold_needs_two_sides():
    for sides in ((), (5,)):
        with pytest.raises(ValueError):
            fill_threshold(sides)


def test_fill_threshold_refuses_a_scan_over_the_limit(monkeypatch):
    # k sides have 2^(k-1) - 1 bipartitions: 7 for four, 15 for five
    monkeypatch.setattr(counterexamples, "_GRID_LIMIT", 7)
    assert fill_threshold((2, 3, 5, 7)) == 182
    with pytest.raises(ScanTooLarge) as info:
        fill_threshold((2, 3, 5, 7, 11))
    assert (info.value.sides, info.value.iterations) == (5, 15)
    assert isinstance(info.value, ValueError)


def test_cubical_config_in_5d_is_refused_before_the_scan(monkeypatch):
    # 32 sides: the 2^31 - 1 bipartitions used to be scanned, for hours
    calls = []

    def counted(factors):
        calls.append(1)
        if len(calls) > 1000:
            raise AssertionError("the bipartition scan started")
        return prod(factors)
    monkeypatch.setattr(counterexamples, "prod", counted)
    with pytest.raises(ScanTooLarge) as info:
        gen_cubical_config(5, 3)
    assert info.value.sides == 32
    monkeypatch.undo()
    rep = gen_cubical_config(4, 3)
    assert len(rep.side_set) == 16
    assert rep.L0_bound == fill_threshold(rep.side_set)


# ---------------------------------------------------------------- square filling


def test_square_fill_interval():
    p = square_fill(IntBox((0,), (7,)), (2, 3))
    assert [(b.lo[0], b.sides()[0]) for b in p.boxes] == [(0, 2), (2, 2), (4, 3)]
    assert not p.partial


def test_square_fill_210_by_211():
    box = IntBox((0, 0), (210, 211))
    p = square_fill(box, (2, 3, 5, 7))
    assert len(p.boxes) == 3360
    for sq in p.boxes:
        s = sq.sides()
        assert s[0] == s[1] and s[0] in (2, 3, 5, 7)
    assert sum(sq.volume() for sq in p.boxes) == box.volume()
    corner = next(sq for sq in p.boxes if sq.lo == (0, 0))
    assert corner.sides() == (2, 2)
    assert p.partial  # bounding frame is the 211-cube


def test_square_fill_cube_uses_every_side():
    p = square_fill(IntBox((0, 0), (211, 211)), (2, 3, 5, 7))
    assert not p.partial and p.n == 211
    assert {sq.sides()[0] for sq in p.boxes} == {2, 3, 5, 7}


def test_square_fill_translates_to_origin():
    p = square_fill(IntBox((5, 5), (215, 215)), (2, 3, 5, 7))
    assert not p.partial and p.n == 210
    assert any(sq.lo == (0, 0) for sq in p.boxes)


def test_square_fill_error_order():
    # unrepresentable height wins over the short-side check
    with pytest.raises(NotRepresentable) as exc:
        square_fill(IntBox((0, 0), (210, 169)), (2, 3, 5, 7))
    assert exc.value.length == 169
    with pytest.raises(TooSmall) as exc:
        square_fill(IntBox((0, 0), (100, 210)), (2, 3, 5, 7))
    assert exc.value.side == 100 and exc.value.threshold == 182


def test_square_fill_refuses_a_huge_grid_before_tiling(monkeypatch):
    # the 4000-square used to be tiled (44 s, 1.5 GB) before validation
    # refused its grid; the other checks still come first
    def refuse(ext, sides):
        raise AssertionError("_tile ran")
    monkeypatch.setattr(counterexamples, "_tile", refuse)
    with pytest.raises(GridTooLarge) as exc:
        square_fill(IntBox((0, 0), (4000, 4000)), (2, 3, 5, 7))
    assert exc.value.cells == 4002 ** 2
    with pytest.raises(NotRepresentable):
        square_fill(IntBox((0, 0), (4000, 169)), (2, 3, 5, 7))
    with pytest.raises(TooSmall):
        square_fill(IntBox((0, 0), (100, 4000)), (2, 3, 5, 7))


def test_square_fill_input_validation():
    box = IntBox((0, 0), (210, 210))
    with pytest.raises(ValueError):
        square_fill(box, (3, 2, 5, 7))  # unsorted
    with pytest.raises(ValueError):
        square_fill(box, (2, 3, 5, 6))  # shared factor
    with pytest.raises(ValueError):
        square_fill(box, (2, 3, 5))  # wrong count


def test_square_fill_construction_faults(monkeypatch):
    # with the threshold check defeated, an extent of 1 has no (3, 5) tiling
    monkeypatch.setattr(counterexamples, "fill_threshold", lambda sides: 0)
    with pytest.raises(ConstructionFault):
        square_fill(IntBox((0, 0), (1, 2)), (1, 2, 3, 5))
    monkeypatch.setattr(counterexamples, "_tile", lambda ext, sides: [])
    with pytest.raises(ConstructionFault):
        square_fill(IntBox((0, 0), (2, 2)), (1, 2, 3, 5))


def test_coprimality_faults(monkeypatch):
    monkeypatch.setattr(counterexamples, "gcd", lambda a, b: 2)
    with pytest.raises(ConstructionFault):
        coprime_base(2, 1)
    with pytest.raises(ConstructionFault):
        gen_cubical_config(3, Fraction(7, 2))


def test_cubical_seed_orientation_fault(monkeypatch):
    monkeypatch.setattr(counterexamples, "orientation", lambda pts: -1)
    with pytest.raises(ConstructionFault):
        gen_cubical_config(3, Fraction(7, 2))


# ---------------------------------------------------------------- cubical report


def test_cubical_d3_certificate():
    beta = Fraction(7, 2)
    rep = gen_cubical_config(3, beta)
    assert rep.b == 510511  # 1 + 2*3*5*7*11*13*17
    assert rep.a == 170169
    assert rep.det_sign == -1
    assert rep.side_set == tuple(rep.b + z - 1 for z in (1, 2, 3, 5, 7, 11, 13, 17))
    for x, y in combinations(rep.side_set, 2):
        assert gcd(x, y) == 1
    # the inequality chain, exactly
    zmax = 17
    assert beta > Fraction(rep.b + zmax - 1, rep.a) > Fraction(rep.b, rep.a) >= Fraction(3)
    # independent sign check of the center orientation
    assert orientation(rep.centers) == -1
    assert rep.centers[0] == (Fraction(-rep.a, 2),) * 3
    assert rep.centers[1] == (Fraction(rep.b, 2), Fraction(-rep.b, 2), Fraction(-rep.b, 2))
    assert rep.centers[2][0] == Fraction(-rep.b, 2) + 1
    assert not rep.materializable


def test_cubical_l0_matches_bipartition_scan():
    rep = gen_cubical_config(3, Fraction(7, 2))
    best = 0
    sides = rep.side_set
    for r in range(1, len(sides)):
        for left in combinations(range(len(sides)), r):
            if 0 not in left:
                continue  # fix side 0 on the left to dedupe
            p1 = prod(sides[i] for i in left)
            p2 = prod(sides[i] for i in range(len(sides)) if i not in left)
            best = max(best, p1 * p2 - p1 - p2)
    assert rep.L0_bound == best + 1


def test_cubical_infeasible_beta():
    with pytest.raises(NoFeasibleAB):
        gen_cubical_config(3, 3)  # not above d/(d-2)
    with pytest.raises(NoFeasibleAB):
        gen_cubical_config(4, 2)
    with pytest.raises(ValueError):
        gen_cubical_config(2, 10)
