import random
import re
from fractions import Fraction
from itertools import product

import pytest

from rectdual import stabbing
from rectdual.dual import InexactCoordinate
from rectdual.stabbing import (
    FEASIBLE,
    INFEASIBLE,
    ArityMismatch,
    FlaggedConvexSet,
    StabbingProblem,
    UnsupportedShape,
    build_config_sets,
    build_planar_sets,
    contains_point,
    face_functional,
    hull2d,
    lemma_formulas_hold,
    line_stab,
    meets_hyperplane,
    plane_stab,
    stab_point,
    _project_to_yz,
)

from oracles import fraclp, shadows as lp_shadows
from oracles.stabchk import (
    FracMarginLp,
    cold_first_feasible,
    flat_first_feasible,
    frac_reoptimize,
    in_planar,
    in_regular,
    in_singular,
    lp_meets,
    set_functionals,
)

F = Fraction

SUB3 = [F(3, 2), F(2), F(5, 2), F(29, 10)]


def rand_plane(rng, dim, t0=None):
    lead = rng.choice([-3, -2, -1, 1, 2, 3]) if t0 is None else t0
    tail = [F(rng.randint(-60, 60), rng.randint(1, 9)) for _ in range(dim)]
    return (F(lead), *tail)


# --- builders -----------------------------------------------------------

def test_build_config_sets_shapes():
    p = build_config_sets("regular", 3)
    assert p.dim == 3 and p.b == 3
    assert [len(s.vertices) for s in p.sets] == [2, 2, 4, 8]
    assert [len(s.excluded_faces) for s in p.sets] == [0, 0, 2, 4]
    q = build_config_sets("singular", F(5, 2))
    assert [len(s.vertices) for s in q.sets] == [4, 4, 4, 4]
    assert all(len(s.excluded_faces) == 2 for s in q.sets)


def test_build_planar_sets_exact():
    p = build_planar_sets(3)
    c0, c1, c2 = p.sets
    assert c0.vertices == ((F(-3, 2), F(-3, 2)), (F(-1, 2), F(-3, 2)),
                           (F(-1, 2), F(-1, 2)), (F(-3, 2), F(-1, 2)))
    assert c0.excluded_faces == () and c1.excluded_faces == ()
    # lower side of the third region is excluded
    assert c2.excluded_faces == ((0, 1),)
    assert c2.vertices[0] == (F(1, 2), F(-3, 2))


def test_builders_reject_small_b():
    for bad in (1, F(1, 2), 0):
        with pytest.raises(ValueError):
            build_config_sets("regular", bad)
        with pytest.raises(ValueError):
            build_planar_sets(bad)
        with pytest.raises(ValueError):
            lemma_formulas_hold("regular", bad, (1, 0, 0, 0))
    with pytest.raises(ValueError):
        build_config_sets("octagonal", 3)
    with pytest.raises(ValueError):
        lemma_formulas_hold("octagonal", 3, (1, 0, 0, 0))


def test_malformed_arguments_raise_typed_errors():
    with pytest.raises(ArityMismatch):
        lemma_formulas_hold("regular", 3, (1, 1))
    with pytest.raises(TypeError):
        StabbingProblem(2, (((0, 0), (1, 1)),), 2)
    with pytest.raises(ArityMismatch):
        StabbingProblem(3, build_planar_sets(3).sets, 3)


_SEG = FlaggedConvexSet(((F(1, 10), 0), (F(3, 10), 0)))


@pytest.mark.parametrize("call", [
    lambda: meets_hyperplane(_SEG, (1, 0, -(0.1 + 0.2))),
    lambda: stab_point(_SEG, (1, 0, -0.3)),
    lambda: stab_point(_SEG, (True, 0, 0)),
    lambda: contains_point(_SEG, (0.2, 0)),
    lambda: contains_point(_SEG, ("1/5", 0)),
    lambda: FlaggedConvexSet(((True, 0), (1, 1))),
    lambda: FlaggedConvexSet(((0.5, 0),)),
    lambda: build_config_sets("regular", 3.1),
    lambda: build_planar_sets(3.5),
    lambda: lemma_formulas_hold("regular", 3.5, (1, 0, 0, 0)),
    lambda: lemma_formulas_hold("regular", 3, (1, 0.5, 0, 0)),
    lambda: StabbingProblem(2, (), 2.5),
], ids=["meets-float-plane", "stab-float-plane", "stab-bool-plane",
        "contains-float-point", "contains-str-point", "bool-vertex",
        "float-vertex", "config-float-b", "planar-float-b",
        "formulas-float-b", "formulas-float-plane", "problem-float-b"])
def test_inexact_input_refused(call):
    # the exact plane x = 3/10 touches the segment; its float spelling
    # must not decide that
    assert meets_hyperplane(_SEG, (1, 0, -F(3, 10)))
    with pytest.raises(InexactCoordinate):
        call()


def test_hull2d_small_cases():
    assert hull2d([(0, 0), (2, 2), (1, 1)]) == [(0, 0), (2, 2)]
    assert hull2d([(5, 5), (5, 5)]) == [(5, 5)]
    quad = hull2d([(0, 0), (1, 0), (1, 1), (0, 1), (F(1, 2), F(1, 2))])
    assert len(quad) == 4 and (F(1, 2), F(1, 2)) not in quad


# --- face machinery -----------------------------------------------------

def test_face_functional_validates_faces():
    p = build_config_sets("regular", 3)
    trap = p.sets[2]
    for face in trap.excluded_faces:
        a, c = face_functional(trap, face)
        vals = [sum(ai * vi for ai, vi in zip(a, v)) for v in trap.vertices]
        for i, v in enumerate(vals):
            assert (v == c) == (i in face)
    with pytest.raises(ValueError):
        face_functional(trap, (0, 3))  # diagonal pair is not a face


def test_contains_point_flagged_trapezoid():
    trap = build_config_sets("regular", 3).sets[2]
    assert contains_point(trap, (0, 2, -2))
    assert not contains_point(trap, (-2, 2, -2))   # on an excluded slant
    assert not contains_point(trap, (0, 2, -1))    # off the carrier plane
    assert contains_point(trap, (F(1, 2), 1, -1))  # open lower edge
    assert not contains_point(trap, (1, 1, -1))    # excluded corner


def test_contains_point_builds_face_functionals_once(monkeypatch):
    calls = []
    build = stabbing.face_functional

    def counted(fset, face):
        calls.append(face)
        return build(fset, face)

    monkeypatch.setattr(stabbing, "face_functional", counted)
    trap = build_config_sets("regular", 3).sets[2]
    for pt in ((0, 2, -2), (-2, 2, -2), (9, 9, 9), (1, 1, -1)):
        contains_point(trap, pt)
    assert calls == list(trap.excluded_faces)
    # a non-face is refused on every call, as before
    square = FlaggedConvexSet(((0, 0), (1, 0), (1, 1), (0, 1)), ((0, 2),))
    for _ in range(2):
        with pytest.raises(ValueError):
            contains_point(square, (F(1, 2), F(1, 2)))


def test_flagged_set_rejects_malformed_vertices():
    with pytest.raises(ValueError):
        FlaggedConvexSet(())
    with pytest.raises(ValueError):
        FlaggedConvexSet(((0, 0), (1, 1, 1)))


def test_point_and_hyperplane_arity_checked():
    square = FlaggedConvexSet(((0, 0), (1, 0), (1, 1), (0, 1)))
    with pytest.raises(ArityMismatch):
        contains_point(square, (1,))
    with pytest.raises(ArityMismatch):
        contains_point(square, (1, 1, 1))
    for coeffs in ((1, 1), (1, 1, 1, 1)):
        with pytest.raises(ArityMismatch):
            stab_point(square, coeffs)
        with pytest.raises(ArityMismatch):
            meets_hyperplane(square, coeffs)
    assert contains_point(square, (1, 1))
    assert stab_point(square, (1, 1, -1)) is not None


# --- fixed-plane evaluation vs LP oracle ---------------------------------

@pytest.mark.parametrize("kind", ["regular", "singular"])
def test_meets_hyperplane_agrees_with_lp(kind):
    rng = random.Random({"regular": 1, "singular": 2}[kind])
    for b in (2, 3, 4):
        prob = build_config_sets(kind, b)
        funcs = [set_functionals(s) for s in prob.sets]
        for _ in range(25):
            coeffs = rand_plane(rng, 3)
            for s, fn in zip(prob.sets, funcs):
                assert meets_hyperplane(s, coeffs) == lp_meets(s, coeffs, fn)


@pytest.mark.parametrize("kind", ["regular", "singular"])
def test_stab_point_consistent(kind):
    rng = random.Random({"regular": 3, "singular": 4}[kind])
    member = in_regular if kind == "regular" else in_singular
    hits = 0
    for b in (2, 3, 4):
        prob = build_config_sets(kind, b)
        for _ in range(60):
            coeffs = rand_plane(rng, 3)
            for i, s in enumerate(prob.sets):
                pt = stab_point(s, coeffs)
                if meets_hyperplane(s, coeffs):
                    hits += 1
                    val = sum(c * x for c, x in zip(coeffs, pt)) + coeffs[-1]
                    assert val == 0
                    assert contains_point(s, pt)
                    assert member(i, b, pt)
                else:
                    assert pt is None
    assert hits > 50


# --- product formulas ----------------------------------------------------

@pytest.mark.parametrize("kind", ["regular", "singular"])
def test_formulas_match_direct_stabbing(kind):
    rng = random.Random(7 if kind == "regular" else 11)
    for b in (F(5, 2), F(3), F(7, 2)):
        prob = build_config_sets(kind, b)
        for _ in range(80):
            coeffs = rand_plane(rng, 3, t0=1)
            direct = all(meets_hyperplane(s, coeffs) for s in prob.sets)
            assert lemma_formulas_hold(kind, b, coeffs) == direct


# --- shadows (zero leading coefficient phase) ----------------------------

@pytest.mark.parametrize("kind", ["regular", "singular"])
def test_yz_shadows(kind):
    b = F(3)
    shadows = _project_to_yz(build_config_sets(kind, b), kind)
    seg_low = FlaggedConvexSet(((-b, -b), (-1, -1)))
    seg_high = FlaggedConvexSet(((1, -1), (b, -b)))
    trap = FlaggedConvexSet(((-b, b), (-1, 1), (1, 1), (b, b)),
                            ((0, 1), (2, 3)))
    assert shadows == (seg_low, seg_high, trap)


@pytest.mark.parametrize("kind", ["regular", "singular"])
def test_yz_shadows_match_lp_oracle(kind, monkeypatch):
    # the face-code rule gives the shadows the fiber LPs gave, and solves
    # no LP doing so
    probs = {b: build_config_sets(kind, b)
             for b in (F(3, 2), F(2), F(3), F(7, 2), F(9))}
    want = {b: lp_shadows.project_to_yz(p) for b, p in probs.items()}

    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(stabbing, "strict_feasible", no_lp)
    for b, p in probs.items():
        assert _project_to_yz(p, kind) == want[b], f"b={b}"


def test_shadow_problem_never_line_stabbed():
    for kind in ("regular", "singular"):
        for b in (F(2), F(3), F(9)):
            shadows = _project_to_yz(build_config_sets(kind, b), kind)
            v = line_stab(StabbingProblem(2, shadows, b))
            assert v.status == INFEASIBLE


# --- plane_stab verdicts --------------------------------------------------

@pytest.mark.parametrize("kind", ["regular", "singular"])
def test_plane_stab_threshold_grid(kind):
    # 301/100 and 31/10 pin the regular threshold at 3, not 7/2
    grid = SUB3 + [F(3), F(301, 100), F(31, 10), F(7, 2), F(4), F(5)]
    verdicts = {b: plane_stab(build_config_sets(kind, b)) for b in grid}
    if kind == "regular":
        want = [INFEASIBLE] * 5 + [FEASIBLE] * 5
        for b in grid[5:]:
            v = verdicts[b]
            assert v.witness[0] in (0, 1)
            for i, pt in enumerate(v.witness_points):
                assert in_regular(i, b, pt)
    else:
        # cone analysis of the per-set fibers shows no plane ever meets
        # all four sets of this family once the slants are excluded
        want = [INFEASIBLE] * 10
    assert [verdicts[b].status for b in grid] == want
    # once feasible, stays feasible
    seen = False
    for b in grid:
        assert not (seen and not verdicts[b].feasible), f"flip at b={b}"
        seen = seen or verdicts[b].feasible
    infeas = verdicts[F(2)]
    assert infeas.witness is None
    assert infeas.cases == 20 + (128 if kind == "regular" else 256)
    assert len(infeas.certificate) == infeas.cases
    assert all(why for _, why in infeas.certificate)


def test_plane_stab_rejects_foreign_input():
    prob = build_config_sets("regular", 3)
    with pytest.raises(ArityMismatch):
        plane_stab(StabbingProblem(3, prob.sets[:3], 3))
    with pytest.raises(ArityMismatch):
        plane_stab(build_planar_sets(3))
    tweaked = (FlaggedConvexSet(((0, 0, 0), (1, 1, 1))),) + prob.sets[1:]
    with pytest.raises(ArityMismatch):
        plane_stab(StabbingProblem(3, tweaked, 3))


def test_closed_reading_feasible_at_three():
    # with every facet kept, the plane through the four far corners of the
    # scaled pattern meets all four sets at b = 3; the excluded slants are
    # exactly what blocks it in the flagged reading
    b = F(3)
    flagged = build_config_sets("regular", b)
    closed = [FlaggedConvexSet(s.vertices) for s in flagged.sets]
    plane = (1, 1, 1, 3)
    assert all(meets_hyperplane(s, plane) for s in closed)
    met = [meets_hyperplane(s, plane) for s in flagged.sets]
    assert met == [True, True, False, False]
    # and no plane at all meets the flagged configuration (threshold case)
    assert plane_stab(flagged).status == INFEASIBLE


def test_regular_witness_survives_beyond_three():
    # the same corner plane is a valid witness once b exceeds 3
    for b in (F(31, 10), F(7, 2), F(13)):
        sets = build_config_sets("regular", b).sets
        assert all(meets_hyperplane(s, (1, 1, 1, 3)) for s in sets)


def test_verdicts_match_fraction_oracle(monkeypatch):
    # every witness, certificate string and case count is the one the
    # Fraction simplex gives, the scan's warm margins included
    probs = [build_config_sets("regular", F(3)),
             build_config_sets("regular", F(7, 2)),
             build_config_sets("singular", F(5)),
             build_planar_sets(F(29, 10)), build_planar_sets(F(3))]

    def stab_all():
        return [plane_stab(p) if p.dim == 3 else line_stab(p) for p in probs]

    got = stab_all()
    monkeypatch.setattr(stabbing, "strict_feasible", fraclp.strict_feasible)
    # the scan's margin LPs too, each node re-solved from all its rows
    monkeypatch.setattr(stabbing, "MarginLp", FracMarginLp)
    monkeypatch.setattr(stabbing, "reoptimize", frac_reoptimize)
    assert got == stab_all()
    assert [v.status for v in got] == [INFEASIBLE, FEASIBLE, INFEASIBLE,
                                       INFEASIBLE, FEASIBLE]


# --- the pruned sign-case scan against the flat scan -------------------------

SCAN_GRID = [F(11, 10), F(2), F(29, 10), F(3), F(31, 10), F(7, 2), F(5), F(13)]
PRUNED = stabbing._first_feasible


def _stab(kind, b):
    if kind == "planar":
        return line_stab(build_planar_sets(b))
    return plane_stab(build_config_sets(kind, b))


def _logged_scan(monkeypatch, scan):
    """Route every sign-case scan through scan, logging its result and the
    case labels it refuted."""
    log = []

    def logged(prefix, dim, conds, certificate, label):
        start = len(certificate)
        found, count = scan(prefix, dim, conds, certificate, label)
        log.append((found, count, [lbl for lbl, _ in certificate[start:]]))
        return found, count

    monkeypatch.setattr(stabbing, "_first_feasible", logged)
    return log


@pytest.mark.parametrize("kind", ["regular", "singular", "planar"])
def test_pruned_scan_matches_flat_scan(kind, monkeypatch):
    for b in SCAN_GRID:
        pruned_log = _logged_scan(monkeypatch, PRUNED)
        pruned = _stab(kind, b)
        flat_log = _logged_scan(monkeypatch, flat_first_feasible)
        flat = _stab(kind, b)
        assert (pruned.status, pruned.witness, pruned.witness_points,
                pruned.cases, len(pruned.certificate)) == \
            (flat.status, flat.witness, flat.witness_points,
             flat.cases, len(flat.certificate)), f"b={b}"
        assert [r[:2] for r in pruned_log] == [r[:2] for r in flat_log]
        for (_, _, got), (_, _, want) in zip(pruned_log, flat_log):
            assert set(got) <= set(want), f"b={b}"


@pytest.mark.parametrize("kind", ["regular", "singular", "planar"])
def test_warm_scan_matches_cold_scan(kind, monkeypatch):
    # re-optimizing the parent's tableau changes no verdict, witness,
    # case count or certificate string against one cold LP per node
    for b in SCAN_GRID + [F(301, 100), F(13, 4)]:
        monkeypatch.setattr(stabbing, "_first_feasible", PRUNED)
        warm = _stab(kind, b)
        monkeypatch.setattr(stabbing, "_first_feasible", cold_first_feasible)
        assert warm == _stab(kind, b), f"b={b}"


def test_warm_scan_solves_nothing_cold(monkeypatch):
    calls = []
    cold = stabbing.strict_feasible

    def counted(*args, **kwargs):
        calls.append(args)
        return cold(*args, **kwargs)

    monkeypatch.setattr(stabbing, "strict_feasible", counted)
    v = plane_stab(build_config_sets("singular", 5))
    assert v.status == INFEASIBLE and len(v.certificate) == v.cases
    assert calls == []
    # a feasible verdict reads its witness off the leaf's tableau; only
    # the witness re-check solves from scratch: one membership LP per set
    # and one face functional per excluded face (0 + 0 + 2 + 4)
    assert plane_stab(build_config_sets("regular", F(7, 2))).feasible
    assert len(calls) == 4 + 6


@pytest.mark.parametrize("kind,b", [("regular", F(3)), ("singular", F(5))])
def test_prefix_reasons_hold(kind, b):
    # each certificate entry's reason holds for the sets it names: that
    # prefix of the case is infeasible under the Fraction simplex, with
    # the margin the entry quotes
    conds = [[atoms for p, q, strict in row
              for atoms in stabbing._product_split(p, q, strict)]
             for row in stabbing._lemma_rows(kind, b)]
    cert = []
    found, count = PRUNED((1,), 3, conds, cert, "unit")
    assert found is None and len(cert) == count
    prefixed = 0
    for (lbl, why), combo in zip(cert, product(*conds)):
        m = re.fullmatch(r"(?:sets? 0(?:-(\d))? infeasible: )?(.*)", why)
        sets = len(conds)
        if why != m.group(2):
            prefixed += 1
            sets = int(m.group(1) or 0) + 1
        cond = tuple(a for c in combo[:sets] for a in c)
        eq, weak, strict = stabbing._rows_for_case((1,), cond)
        ok, _, margin = fraclp.strict_feasible(3, eq, weak, strict)
        assert not ok, lbl
        if m.group(2).startswith("max margin"):
            assert m.group(2) == f"max margin {margin} <= 0", lbl
    assert prefixed > 0


def test_line_stab_empty_family():
    # the product of no sign cases is one empty case, met by any line
    v = line_stab(StabbingProblem(2, (), 3))
    assert v.status == FEASIBLE
    assert v.witness == (1, 0, 0) and v.witness_points == ()
    assert v.cases == 1 and v.certificate == ()


# --- line_stab on the planar family ---------------------------------------

def test_line_stab_planar_threshold():
    for b in SUB3:
        v = line_stab(build_planar_sets(b))
        assert v.status == INFEASIBLE, f"b={b}"
    for b in (F(3), F(7, 2), F(5)):
        v = line_stab(build_planar_sets(b))
        assert v.status == FEASIBLE, f"b={b}"
        for i, pt in enumerate(v.witness_points):
            assert in_planar(i, b, pt)


def test_line_stab_unique_witness_at_three():
    # at the threshold the stabbing line is forced: y = x + 1 touching the
    # two closed squares at corners and the third set on its kept top side
    v = line_stab(build_planar_sets(3))
    assert v.witness == (1, -1, 1)
    assert v.witness_points == (
        (F(-3, 2), F(-1, 2)), (F(-1, 2), F(1, 2)), (F(1, 2), F(3, 2)))


def test_line_stab_planar_case_count():
    v = line_stab(build_planar_sets(2))
    assert v.status == INFEASIBLE
    assert v.cases == 96 + 1


def test_line_stab_excluded_side_matters():
    # closing the lower side of the third region changes nothing at the
    # threshold (the witness uses its top side) but admits new lines above it
    b = F(3)
    flagged = build_planar_sets(b)
    closed = StabbingProblem(
        2, [FlaggedConvexSet(s.vertices) for s in flagged.sets], b)
    assert line_stab(closed).status == FEASIBLE
    # y = -x - 1 touches both squares and the reinstated lower-left corner
    down = (1, 1, 1)
    assert all(meets_hyperplane(s, down) for s in closed.sets)
    assert not meets_hyperplane(flagged.sets[2], down)


def test_line_stab_common_point_degenerate():
    segs = [
        FlaggedConvexSet(((-1, -1), (1, 1))),
        FlaggedConvexSet(((-1, 1), (1, -1))),
        FlaggedConvexSet(((-2, 0), (2, 0))),
    ]
    v = line_stab(StabbingProblem(2, segs, F(2)))
    assert v.status == FEASIBLE
    for pt in v.witness_points:
        val = sum(c * x for c, x in zip(v.witness, pt)) + v.witness[-1]
        assert val == 0
    point = FlaggedConvexSet(((3, 4),))
    v2 = line_stab(StabbingProblem(2, [point, segs[2]], F(2)))
    assert v2.status == FEASIBLE


def test_line_stab_rejects_wrong_dim():
    with pytest.raises(ArityMismatch):
        line_stab(build_config_sets("regular", 2))


def test_unsupported_shapes_raise():
    penta = FlaggedConvexSet(((0, 0), (4, 0), (5, 2), (2, 4), (-1, 2)))
    with pytest.raises(UnsupportedShape):
        line_stab(StabbingProblem(2, [penta], F(2)))
    diag = FlaggedConvexSet(((0, 0), (1, 0), (1, 1), (0, 1)), ((0, 2),))
    with pytest.raises(UnsupportedShape):
        line_stab(StabbingProblem(2, [diag], F(2)))


# --- falsification sampling ------------------------------------------------

def test_no_sampled_plane_beats_infeasible_verdicts():
    rng = random.Random(2024)
    reg = build_config_sets("regular", F(29, 10)).sets
    sing = build_config_sets("singular", F(4)).sets
    for _ in range(2000):
        coeffs = rand_plane(rng, 3)
        assert not all(meets_hyperplane(s, coeffs) for s in reg)
        assert not all(meets_hyperplane(s, coeffs) for s in sing)
    planar = build_planar_sets(F(29, 10)).sets
    for _ in range(2000):
        coeffs = rand_plane(rng, 2)
        assert not all(meets_hyperplane(s, coeffs) for s in planar)
