import random
from dataclasses import replace
from fractions import Fraction

import pytest

from rectdual import stabbing
from rectdual.boxes import IntBox, balance_of_set, pixel_fill
from rectdual.dual import InexactCoordinate, build_dual
from rectdual.embedding import Violation, center_embeddable
from rectdual.stabbing import (
    FEASIBLE,
    INFEASIBLE,
    ArityMismatch,
    IntervalClass,
    StabbingProblem,
    TooManyCases,
    WitnessFault,
    box_reading,
    build_config_sets,
    build_planar_sets,
    contains_point,
    cube_reading,
    hyperplane_stab,
    line_stab,
    meets_hyperplane,
    plane_stab,
    regular_codes,
)

from oracles import fraclp
from oracles.chains import window_seeds
from oracles.determinant import orientation_sign
from oracles.stabchk import (
    case_labels,
    case_margin,
    hull_sets,
    in_planar,
    in_regular,
    in_singular,
    interval_sets,
    lp_meets,
)

F = Fraction

SUB3 = [F(3, 2), F(2), F(5, 2), F(29, 10)]
# the threshold grid: 11 values of b for each of the three families
GRID = [F(11, 10), F(2), F(29, 10), F(3), F(301, 100), F(31, 10), F(13, 4),
        F(7, 2), F(4), F(5), F(13)]
MEMBER = {"regular": in_regular, "singular": in_singular,
          "planar": in_planar}


def rand_plane(rng, dim, t0=None):
    lead = rng.choice([-3, -2, -1, 1, 2, 3]) if t0 is None else t0
    tail = [F(rng.randint(-60, 60), rng.randint(1, 9)) for _ in range(dim)]
    return (F(lead), *tail)


def family(kind, b):
    if kind == "planar":
        return build_planar_sets(b)
    return build_config_sets(kind, b)


def closed(s):
    """The class with every end kept."""
    return replace(s, lo_open=(), hi_open=())


# --- builders -----------------------------------------------------------

def test_build_config_sets_shapes():
    p = build_config_sets("regular", 3)
    assert p.dim == 3 and len(p.sets) == 4
    assert all(s.rho == 3 for s in p.sets)
    trap = p.sets[2]  # code *+-
    assert trap.lo == (-1, 1, -1) and trap.hi == (1, 1, -1)
    assert trap.lo_open == trap.hi_open == (True, False, False)
    assert [sum(s.lo_open) for s in p.sets] == [0, 0, 1, 2]
    q = build_config_sets("singular", F(5, 2))
    assert all(s.rho == F(5, 2) for s in q.sets)
    assert all(sum(s.lo_open) == sum(s.hi_open) == 1 for s in q.sets)


def test_build_planar_sets_exact():
    p = build_planar_sets(3)
    c0, c1, c2 = p.sets
    assert (c0.lo, c0.hi) == ((F(-3, 2), F(-3, 2)), (F(-1, 2), F(-1, 2)))
    assert (c1.lo, c1.hi) == ((F(-3, 2), F(1, 2)), (F(-1, 2), F(3, 2)))
    assert (c2.lo, c2.hi) == ((F(1, 2), F(-3, 2)), (F(3, 2), F(3, 2)))
    assert all(s.rho == 1 and not any(s.hi_open) for s in p.sets)
    assert not any(c0.lo_open) and not any(c1.lo_open)
    # lower side of the third region is excluded
    assert c2.lo_open == (False, True)


def test_readings_shapes():
    assert regular_codes(2) == ("--", "+-", "*+")
    assert build_config_sets("regular", 3) == \
        cube_reading(("---", "+--", "*+-", "**+"), 3)
    s, = box_reading(["+*-"], 3).sets
    assert (s.lo, s.hi, s.rho) == ((1, -3, -3), (3, 3, -1), 1)
    assert s.lo_open == s.hi_open == (False, True, False)
    p = cube_reading(regular_codes(4), F(5, 2))
    assert p.dim == 4 and len(p.sets) == 5
    assert all(s.rho == F(5, 2) for s in p.sets)


def test_builders_reject_small_b():
    codes = regular_codes(3)
    for bad in (1, F(1, 2), 0):
        for build in (lambda: build_config_sets("regular", bad),
                      lambda: build_planar_sets(bad),
                      lambda: cube_reading(codes, bad),
                      lambda: box_reading(codes, bad)):
            with pytest.raises(ValueError):
                build()
    with pytest.raises(ValueError):
        build_config_sets("octagonal", 3)
    # no code, codes of two lengths, a character outside '-', '+', '*',
    # an empty code
    for bad in ((), ("--", "-"), ("-x",), ("",)):
        for reading in (cube_reading, box_reading):
            with pytest.raises(ValueError, match="not of one length"):
                reading(bad, 3)


def test_malformed_arguments_raise_typed_errors():
    with pytest.raises(TypeError):
        StabbingProblem(2, (((0, 0), (1, 1)),))
    with pytest.raises(ArityMismatch):
        StabbingProblem(3, build_planar_sets(3).sets)
    # each set carries its own geometry: a problem takes no side ratio
    with pytest.raises(TypeError):
        StabbingProblem(2, (), -3)
    for dim in (0, 2.0, True):
        with pytest.raises(ValueError):
            StabbingProblem(dim, ())


_SEG = IntervalClass((F(1, 10), 0), (F(3, 10), 0))


@pytest.mark.parametrize("call", [
    lambda: meets_hyperplane(_SEG, (1, 0, -(0.1 + 0.2))),
    lambda: meets_hyperplane(_SEG, (True, 0, 0)),
    lambda: contains_point(_SEG, (0.2, 0)),
    lambda: contains_point(_SEG, ("1/5", 0)),
    lambda: IntervalClass((True, 0), (1, 1)),
    lambda: IntervalClass((0.5, 0), (1, 1)),
    lambda: build_config_sets("regular", 3.1),
    lambda: build_planar_sets(3.5),
    lambda: IntervalClass((0, 0), (1, 1), rho=2.5),
    lambda: cube_reading(regular_codes(3), 3.1),
    lambda: box_reading(regular_codes(3), 3.1),
], ids=["meets-float-plane", "meets-bool-plane", "contains-float-point",
        "contains-str-point", "bool-vertex", "float-vertex",
        "config-float-b", "planar-float-b", "class-float-rho",
        "cube-float-b", "box-float-b"])
def test_inexact_input_refused(call):
    # the exact plane x = 3/10 touches the segment; its float spelling
    # must not decide that
    assert meets_hyperplane(_SEG, (1, 0, -F(3, 10)))
    with pytest.raises(InexactCoordinate):
        call()


# --- the set shape ------------------------------------------------------

def test_contains_point_flagged_trapezoid():
    trap = build_config_sets("regular", 3).sets[2]
    assert contains_point(trap, (0, 2, -2))
    assert not contains_point(trap, (-2, 2, -2))   # on an excluded slant
    assert not contains_point(trap, (0, 2, -1))    # off the carrier plane
    assert contains_point(trap, (F(1, 2), 1, -1))  # open lower edge
    assert not contains_point(trap, (1, 1, -1))    # excluded corner


def test_interval_class_rejects_malformed_input():
    for lo, hi, lo_open, hi_open, rho in [
            ((), (), (), (), 1),                      # no axis
            ((0, 0), (1,), (), (), 1),                # ends differ in length
            ((1,), (0,), (), (), 1),                  # lo above hi
            ((0,), (0,), (True,), (), 1),             # open point
            ((0,), (1,), (False, False), (), 1),      # flags of another arity
            ((0,), (1,), (1,), (), 1),                # a flag that is no bool
            ((0,), (1,), (), (), F(1, 2))]:           # rho below 1
        with pytest.raises(ValueError):
            IntervalClass(lo, hi, lo_open, hi_open, rho)


def test_interval_ends_may_come_as_iterators():
    # the exactness gate reads its values once; an iterator's ends were
    # consumed by the check and read back as no axis
    s = IntervalClass(iter((0, 0)), iter((1, 1)))
    assert s.lo == (0, 0) and s.hi == (1, 1)


def test_point_and_hyperplane_arity_checked():
    square = IntervalClass((0, 0), (1, 1))
    with pytest.raises(ArityMismatch):
        contains_point(square, (1,))
    with pytest.raises(ArityMismatch):
        contains_point(square, (1, 1, 1))
    for coeffs in ((1, 1), (1, 1, 1, 1)):
        with pytest.raises(ArityMismatch):
            meets_hyperplane(square, coeffs)
    assert contains_point(square, (1, 1))
    assert meets_hyperplane(square, (1, 1, -1))


def test_contains_point_on_a_swept_box():
    # [1, 2] x (-1, 1] swept to 3: the points r.u, r in [1, 3]
    s = IntervalClass((1, -1), (2, 1), (False, True), (), 3)
    assert contains_point(s, (6, 3))           # r = 3, u = (2, 1)
    assert contains_point(s, (1, 0))
    assert not contains_point(s, (6, -3))      # y = -x/2 needs u_y = -1
    assert not contains_point(s, (F(1, 2), 0))  # x below r.1 for every r
    assert not contains_point(s, (7, 0))        # x above 3.2
    assert not contains_point(s, (1, 2))        # y above x on u_x = 1
    assert not contains_point(s, (0, 0))        # x = 0 is outside [1, 2]


# --- the meeting rule against the hull-minus-faces reference -------------

@pytest.mark.parametrize("kind", ["regular", "singular", "planar"])
def test_meets_hyperplane_agrees_with_lp(kind):
    rng = random.Random({"regular": 1, "singular": 2, "planar": 5}[kind])
    for b in (2, 3, 4):
        sets = family(kind, b).sets
        hulls = hull_sets(kind, b)
        for _ in range(25):
            coeffs = rand_plane(rng, len(sets[0].lo))
            for s, hull in zip(sets, hulls):
                assert meets_hyperplane(s, coeffs) == lp_meets(hull, coeffs)


def test_meeting_rule_on_planes_through_the_classes():
    # random planes rarely meet a class; these pass through a point of
    # one, and the rule must agree with the reference on every class
    rng = random.Random(9)
    met = 0
    for kind in ("regular", "singular", "planar"):
        for b in (2, 3, 4):
            sets = family(kind, b).sets
            hulls = hull_sets(kind, b)
            for _ in range(8):
                i = rng.randrange(len(sets))
                verts = hulls[i].vertices
                w = [rng.randint(1, 9) for _ in verts]
                pt = [sum(wi * v[j] for wi, v in zip(w, verts)) / sum(w)
                      for j in range(len(verts[0]))]
                a = rand_plane(rng, len(pt))[:-1]
                coeffs = (*a, -sum(x * y for x, y in zip(a, pt)))
                assert meets_hyperplane(sets[i], coeffs)
                for s, hull in zip(sets, hulls):
                    got = meets_hyperplane(s, coeffs)
                    assert got == lp_meets(hull, coeffs)
                    met += got
    assert met > 80


@pytest.mark.parametrize("kind", ["regular", "singular"])
def test_stab_point_consistent(kind):
    # the closed-form point of a class on a plane that meets it lies on
    # the plane and in the class
    rng = random.Random({"regular": 3, "singular": 4}[kind])
    member = in_regular if kind == "regular" else in_singular
    hits = 0
    for b in (2, 3, 4):
        prob = build_config_sets(kind, b)
        for _ in range(60):
            coeffs = rand_plane(rng, 3)
            a, c = coeffs[:-1], -coeffs[-1]
            for i, s in enumerate(prob.sets):
                if meets_hyperplane(s, coeffs):
                    hits += 1
                    pt = stabbing._point(s, a, c)
                    assert sum(x * y for x, y in zip(a, pt)) == c
                    assert contains_point(s, pt)
                    assert member(i, b, pt)
    assert hits > 50


# --- verdicts on the threshold grid ------------------------------------

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
    assert infeas.cases == 26
    assert len(infeas.certificate) == infeas.cases
    assert all(why for _, why in infeas.certificate)


@pytest.mark.parametrize("kind", ["regular", "singular", "planar"])
def test_threshold_grid_statuses(kind):
    # the statuses of the whole grid; each feasible witness passes the
    # closed-form membership and the reference meeting LP on every set,
    # and each infeasible verdict refutes every case
    threshold = {"regular": F(3), "planar": F(3), "singular": None}[kind]
    for b in GRID:
        v = family(kind, b)
        v = plane_stab(v) if kind != "planar" else line_stab(v)
        if threshold is None or b < threshold or \
                (kind == "regular" and b == threshold):
            assert v.status == INFEASIBLE, f"b={b}"
            assert len(v.certificate) == v.cases, f"b={b}"
            continue
        assert v.status == FEASIBLE, f"b={b}"
        assert v.witness[0] in (0, 1) and v.certificate == ()
        hulls = hull_sets(kind, b)
        assert len(v.witness_points) == len(hulls)
        for i, (pt, hull) in enumerate(zip(v.witness_points, hulls)):
            assert MEMBER[kind](i, b, pt), f"b={b} set {i}"
            assert lp_meets(hull, v.witness), f"b={b} set {i}"


@pytest.mark.parametrize("kind,b", [("regular", F(3)), ("singular", F(5)),
                                    ("singular", F(13)), ("planar", F(2))])
def test_certificate_margins_match_fraction_oracle(kind, b):
    # every case of an infeasible verdict, rebuilt by the oracle from its
    # label and solved by the Fraction simplex, has the reason it quotes
    v = family(kind, b)
    v = line_stab(v) if kind == "planar" else plane_stab(v)
    assert v.status == INFEASIBLE
    labels = [lbl for lbl, _ in v.certificate]
    assert len(labels) == v.cases == len(set(labels))
    assert set(labels) == case_labels(2 if kind == "planar" else 3,
                                      kind != "planar")
    intervals = interval_sets(kind, b)
    for lbl, why in v.certificate:
        margin = case_margin(intervals, lbl)
        if margin is None:
            assert why == "weak system infeasible", lbl
        else:
            assert margin <= 0 and why == f"max margin {margin} <= 0", lbl


def test_plane_stab_rejects_foreign_input():
    with pytest.raises(ArityMismatch):
        plane_stab(build_planar_sets(3))
    with pytest.raises(ArityMismatch):
        plane_stab(StabbingProblem(4, ()))


def test_closed_reading_feasible_at_three():
    # with every facet kept, the plane through the four far corners of the
    # scaled pattern meets all four sets at b = 3; the excluded slants are
    # exactly what blocks it in the flagged reading
    b = F(3)
    flagged = build_config_sets("regular", b)
    plane = (1, 1, 1, 3)
    assert all(meets_hyperplane(closed(s), plane) for s in flagged.sets)
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
    # Fraction simplex gives
    probs = [build_config_sets("regular", F(3)),
             build_config_sets("regular", F(7, 2)),
             build_config_sets("singular", F(5)),
             build_planar_sets(F(29, 10)), build_planar_sets(F(3))]

    def stab_all():
        return [plane_stab(p) if p.dim == 3 else line_stab(p) for p in probs]

    got = stab_all()
    monkeypatch.setattr(stabbing, "strict_feasible", fraclp.strict_feasible)
    assert got == stab_all()
    assert [v.status for v in got] == [INFEASIBLE, FEASIBLE, INFEASIBLE,
                                       INFEASIBLE, FEASIBLE]


def test_one_lp_per_case(monkeypatch):
    # an infeasible verdict solves one LP per case; a feasible one stops
    # at its first feasible case, and its witness check solves none
    calls = []
    solve = stabbing.strict_feasible

    def counted(*args, **kwargs):
        out = solve(*args, **kwargs)
        calls.append(out[0])
        return out

    monkeypatch.setattr(stabbing, "strict_feasible", counted)
    v = plane_stab(build_config_sets("singular", 5))
    assert v.status == INFEASIBLE and len(calls) == v.cases == 26
    calls.clear()
    v = plane_stab(build_config_sets("regular", F(7, 2)))
    assert v.feasible and calls[-1] and not any(calls[:-1])
    assert len(calls) < v.cases


def test_corrupted_witness_raises_fault(monkeypatch):
    # a hyperplane that misses a class cannot pass the point check
    solve = stabbing.strict_feasible

    def corrupt(*args, **kwargs):
        ok, x, margin = solve(*args, **kwargs)
        return ok, x and (*x[:-1], x[-1] + 1), margin

    monkeypatch.setattr(stabbing, "strict_feasible", corrupt)
    with pytest.raises(WitnessFault):
        line_stab(build_planar_sets(3))
    with pytest.raises(WitnessFault):
        plane_stab(build_config_sets("regular", F(7, 2)))


def test_line_stab_empty_family():
    # every sign case of an empty family is feasible; the first is a = (1, 0)
    v = line_stab(StabbingProblem(2, ()))
    assert v.status == FEASIBLE
    assert v.witness == (1, 0, 0) and v.witness_points == ()
    assert v.cases == 4 and v.certificate == ()


def _refuse(*args, **kwargs):
    raise AssertionError("sign cases listed or an LP solved")


@pytest.mark.parametrize("d, swept", [(16, False), (15, True),
                                      (10 ** 9, False)])
def test_too_many_sign_cases_are_refused_before_any_lp(monkeypatch, d,
                                                       swept):
    # (3^d - 1)/2 cases, twice that when a class is swept: 21,523,360 at
    # d = 16 and 14,348,906 at d = 15 swept exceed the limit
    sets = (IntervalClass((0,) * d, (1,) * d, rho=2),) if swept else ()
    problem = StabbingProblem(d, sets)
    monkeypatch.setattr(stabbing, "_cases", _refuse)
    monkeypatch.setattr(stabbing, "strict_feasible", _refuse)
    with pytest.raises(TooManyCases) as info:
        hyperplane_stab(problem)
    assert info.value.dim == d


def test_sign_cases_are_read_lazily(monkeypatch):
    # an empty family in 15d stops at the first of its 7,174,453 cases
    drawn = []
    cases = stabbing._cases

    def counted(d, swept):
        for case in cases(d, swept):
            if len(drawn) == 3:
                raise AssertionError("read past the first feasible case")
            drawn.append(case)
            yield case

    monkeypatch.setattr(stabbing, "_cases", counted)
    v = hyperplane_stab(StabbingProblem(15, ()))
    assert v.feasible and v.cases == 7_174_453 and len(drawn) == 1


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
    assert v.cases == 4


def test_line_stab_excluded_side_matters():
    # closing the lower side of the third region changes nothing at the
    # threshold (the witness uses its top side) but admits new lines above it
    b = F(3)
    flagged = build_planar_sets(b)
    closed_sets = StabbingProblem(2, [closed(s) for s in flagged.sets])
    assert line_stab(closed_sets).status == FEASIBLE
    # y = -x - 1 touches both squares and the reinstated lower-left corner
    down = (1, 1, 1)
    assert all(meets_hyperplane(s, down) for s in closed_sets.sets)
    assert not meets_hyperplane(flagged.sets[2], down)


def test_line_stab_common_point_degenerate():
    segs = [
        IntervalClass((-1, 0), (1, 0)),
        IntervalClass((0, -1), (0, 1)),
        IntervalClass((-2, -2), (2, 2), (True, True), (True, True)),
    ]
    v = line_stab(StabbingProblem(2, segs))
    assert v.status == FEASIBLE
    for s, pt in zip(segs, v.witness_points):
        val = sum(c * x for c, x in zip(v.witness, pt)) + v.witness[-1]
        assert val == 0 and contains_point(s, pt)
    point = IntervalClass((3, 4), (3, 4))
    v2 = line_stab(StabbingProblem(2, [point, segs[0]]))
    assert v2.status == FEASIBLE
    # two points span a line; three points in general position do not
    corner = IntervalClass((5, 5), (5, 5))
    v3 = line_stab(StabbingProblem(2, [point, corner]))
    assert v3.feasible and v3.witness_points == ((3, 4), (5, 5))
    far = IntervalClass((0, 9), (0, 9))
    assert not line_stab(StabbingProblem(2, [point, corner, far])).feasible


T_JUNCTION = ("--", "-+", "+*")
CROSS = ("--", "-+", "++")


def test_planar_sets_are_the_box_reading_but_one_end():
    # the box reading of the T-junction leaves the third class's upper y
    # end open, and only the line that stabs at b = 3 needs it closed;
    # the cross, whose third box has its lower side at w, has it closed
    for b in GRID:
        want = line_stab(build_planar_sets(b)).status
        t_status = line_stab(box_reading(T_JUNCTION, b)).status
        assert t_status == (INFEASIBLE if b == 3 else want), f"b={b}"
        assert line_stab(box_reading(CROSS, b)).status == want, f"b={b}"


@pytest.mark.parametrize("reading,codes,b,status", [
    (box_reading, CROSS, F(3), FEASIBLE),
    (box_reading, CROSS, 3 - F(1, 10**9), INFEASIBLE),
    (box_reading, T_JUNCTION, F(3), INFEASIBLE),
    (box_reading, T_JUNCTION, 3 + F(1, 10**9), FEASIBLE),
    (box_reading, ("*--", "*+-", "-*+", "+*+"), F(9, 8), FEASIBLE),
    (cube_reading, ("*--", "*+-", "-*+", "+*+"), F(10**6), INFEASIBLE),
], ids=["cross-at-3", "cross-below-3", "t-at-3", "t-above-3",
        "singular-box-9_8", "singular-cube-10^6"])
def test_local_thresholds(reading, codes, b, status):
    # the 2d box threshold is 3 for both patterns, attained by the cross
    # only; the singular 3d pattern stabs in its box reading at the 9/8
    # of the flipping partition, and never in its cube reading
    assert hyperplane_stab(reading(codes, b)).status == status


def test_line_stab_rejects_wrong_dim():
    with pytest.raises(ArityMismatch):
        line_stab(build_config_sets("regular", 2))


# --- thresholds beyond the built-in families --------------------------------

@pytest.mark.parametrize("d,threshold,above", [
    (3, F(3), F(1, 1000)), (4, F(2), F(1, 1000)), (5, F(3, 2), F(1, 10**6))])
def test_regular_cube_thresholds(d, threshold, above):
    # infeasible at the threshold, feasible just above it
    codes = regular_codes(d)
    assert hyperplane_stab(cube_reading(codes, threshold)).status == \
        INFEASIBLE
    v = hyperplane_stab(cube_reading(codes, threshold + above))
    assert v.feasible and len(v.witness_points) == d + 1


def test_regular_box_threshold_in_3d():
    # the box reading's threshold lies in (5/3, 5/3 + 10^-9]
    b = F(5, 3)
    codes = regular_codes(3)
    assert hyperplane_stab(box_reading(codes, b)).status == INFEASIBLE
    v = hyperplane_stab(box_reading(codes, b + F(1, 10**9)))
    assert v.feasible and v.cases == 13


def test_3d_boxes_flip_at_local_balance_two():
    # sides 4 and 8 in the regular pattern around w = (8, 8, 8): the
    # pixel-filled partition's centers misorient the four boxes, and the
    # box reading of the pattern is stabbable at b = 2, as a flip needs
    boxes = [IntBox((4, 0, 4), (8, 8, 8)), IntBox((8, 4, 0), (12, 8, 8)),
             IntBox((6, 8, 4), (14, 12, 8)), IntBox((1, 7, 8), (9, 15, 12))]
    p = pixel_fill(boxes, 15)
    assert len(p.boxes) == 2739
    assert balance_of_set(p.boxes[:4]).value == 2
    key = (0, 1, 2, 3)
    assert Violation(key, expected=1, actual=-1) in \
        center_embeddable(p).violations
    # the frozen enumerator on the 8 cells around w gives the seed
    w = (8, 8, 8)
    ordered, sign = window_seeds(boxes, w)[key]
    assert sign == 1
    assert build_dual(p).seed_raw(key)[0] == w
    assert orientation_sign([boxes[i].center2() for i in ordered]) == -1
    assert hyperplane_stab(box_reading(regular_codes(3), 2)).feasible


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
