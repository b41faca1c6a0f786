import random
from itertools import product

import pytest

from rectdual import dual, solver
from rectdual.boxes import (IntBox, pixel_fill, validate_partition,
                            vertex_owners)
from rectdual.counterexamples import gen_planar_lcycle
from rectdual.dual import DimensionMismatch, build_dual, orientation
from rectdual.embedding import (
    EmbeddingVerdict,
    Projection,
    center_embeddable,
    center_projection,
    classify_projection,
)
from rectdual.io import parse_partition
from rectdual.solver import (
    SAT,
    TIMEOUT,
    UNSAT,
    CertificateRejected,
    DomainTooLarge,
    SolverConfig,
    UnknownBox,
    Unsupported,
    box_domain,
    enumerate_all,
    solve,
)

from oracles.partitions import (
    planar3_partition,
    random_disjoint_boxes,
    random_partition,
    random_pixel_fill,
    unit_grid2,
)
from oracles.roots import check_root


def test_box_domain():
    assert box_domain(IntBox((0, 0), (1, 1))) == ((1, 1),)
    dom = box_domain(IntBox((0, 0), (2, 1)))
    assert dom == ((1, 1), (2, 1), (3, 1))
    assert len(box_domain(IntBox((0, 0, 0), (2, 2, 2)))) == 27


def test_pixel_grid_sat_immediately():
    p = unit_grid2(2)
    res = solve(p)
    assert res.status == SAT
    assert res.projection == center_projection(p)
    assert res.stats["nodes"] <= 1


def test_unsupported_raises():
    p = validate_partition(
        [IntBox((i, 0), (i + 1, 4)) for i in range(4)], 2, 4)
    with pytest.raises(Unsupported):
        solve(p)


def test_planar3_sat():
    p = planar3_partition()
    res = solve(p)
    assert res.status == SAT
    assert classify_projection(p, res.projection).is_embedding


def _classified_as(kind):
    return lambda p, proj: EmbeddingVerdict(kind)


def _refused(p, proj):
    raise ValueError("forced")


@pytest.mark.parametrize("run", [solve, enumerate_all])
def test_rejected_certificate_raises(monkeypatch, run):
    # the re-check's ValueError, or any verdict but an embedding, rejects
    for recheck, reason in [
            (_classified_as("not_embedding"), "classification: not_embedding"),
            (_classified_as("unsupported"), "classification: unsupported"),
            (_refused, "verification: forced")]:
        monkeypatch.setattr(solver, "classify_projection", recheck)
        with pytest.raises(CertificateRejected, match=reason):
            run(planar3_partition())


def brute_force_planar3(p):
    """Try every faithful half-integral placement of the two free boxes."""
    base = list(center_projection(p).points2)
    sols = []
    for x0, y2 in product(range(1, 6), range(3, 8)):
        pts = list(base)
        pts[0] = (x0, 1)
        pts[2] = (7, y2)
        verdict = classify_projection(p, Projection(tuple(pts)))
        if verdict.is_embedding:
            sols.append(tuple(pts))
    return sorted(sols)


def test_planar3_enumeration_matches_brute_force():
    p = planar3_partition()
    res = enumerate_all(p)
    assert res.status == SAT
    got = sorted(s.points2 for s in res.solutions)
    want = brute_force_planar3(p)
    assert len(want) == 14
    assert got == want


def test_pins_force_unsat():
    p = planar3_partition()
    res = solve(p, pins={0: [(1, 1)], 2: [(7, 5)]})
    assert res.status == UNSAT
    assert res.stats["nodes"] == 0  # contradiction already at the root


def test_pins_restrict_enumeration():
    p = planar3_partition()
    res = enumerate_all(p, pins={0: [(5, 1)]})
    assert res.status == SAT
    assert len(res.solutions) == 5  # 0 * anything stays below the threshold


@pytest.mark.parametrize("bid", [-12, 12, 0.0, 5.0, "0", None])
@pytest.mark.parametrize("run", [solve, enumerate_all])
def test_a_pin_on_no_box_is_refused(monkeypatch, run, bid):
    # -12 would index box 0 of the 12 and restrict it silently, 0.0 was
    # taken as box 0, and 5.0 raised a bare TypeError; an id that is not
    # an int naming a box is refused before any domain is listed
    def refuse(box):
        raise AssertionError("a domain was listed")
    monkeypatch.setattr(solver, "box_domain", refuse)
    with pytest.raises(UnknownBox) as info:
        run(planar3_partition(), pins={2: [(7, 5)], bid: [(1, 1)]})
    assert isinstance(info.value, ValueError) and info.value.bid is bid


@pytest.mark.parametrize("value", [(2, 1, 7), (2,), 5, (2.0, 1), "21",
                                   (2, None)])
@pytest.mark.parametrize("run", [solve, enumerate_all])
def test_a_pin_that_is_not_a_point_is_refused(monkeypatch, run, value):
    # (2, 1, 7) used to empty the domain (UNSAT, 0 nodes) and 5 to raise
    # a bare TypeError; a value that is not two ints is now refused
    # before any domain is listed
    p = validate_partition([IntBox((0, 0), (2, 1)), IntBox((0, 1), (1, 2)),
                            IntBox((1, 1), (2, 2))], 2, 2)

    def refuse(box):
        raise AssertionError("a domain was listed")
    monkeypatch.setattr(solver, "box_domain", refuse)
    with pytest.raises(DimensionMismatch):
        run(p, pins={0: [(2, 1), value]})
    assert p._solver_root is None


@pytest.mark.parametrize("make", [planar3_partition, gen_planar_lcycle])
def test_pins_on_a_pixel(make):
    # a unit box's only half-integral point is its center: a pin elsewhere
    # empties its domain, a pin on it changes nothing
    p = make()
    pixels = [i for i, b in enumerate(p.boxes) if b.is_pixel()]
    for run in (solve, enumerate_all):
        free = run(p)
        for i in (pixels[0], pixels[-1]):
            x, y = p.boxes[i].center2()
            off = run(p, pins={i: [(x + 1, y), (x, y - 2)]})
            assert off.status == UNSAT
            assert off.stats == {"nodes": 0, "propagations": 0}
            on = run(p, pins={i: [(x, y)]})
            assert (on.status, on.stats) == (free.status, free.stats)
            assert on.projection == free.projection
            assert on.solutions == free.solutions


def test_pin_to_empty_is_unsat():
    p = planar3_partition()
    res = solve(p, pins={0: []})
    assert res.status == UNSAT


def test_pin_to_empty_outside_every_simplex_is_unsat():
    # box 0 touches only box 1, so it is in no top simplex and no
    # constraint sees its empty domain
    p = parse_partition("2 5 7\n0 1 0 5\n1 4 0 5\n4 5 0 1\n4 5 1 2\n"
                        "4 5 2 3\n4 5 3 4\n4 5 4 5\n")
    assert all(0 not in simplex for simplex in build_dual(p).top_simplices())
    for run in (solve, enumerate_all):
        res = run(p, pins={0: []})
        assert res.status == UNSAT
        assert res.stats == {"nodes": 0, "propagations": 0}


def test_node_limit_times_out():
    p = planar3_partition()
    res = solve(p, cfg=SolverConfig(node_limit=1))
    assert res.status == TIMEOUT


@pytest.mark.parametrize("limits", [
    {"node_limit": -1}, {"node_limit": 0.5}, {"node_limit": "5"},
    {"node_limit": True}, {"time_limit": -1.0}, {"time_limit": float("nan")},
    {"time_limit": "2"}, {"time_limit": False},
])
def test_malformed_limits_refused(limits):
    with pytest.raises(ValueError):
        SolverConfig(**limits)


def test_time_limit_times_out():
    p = planar3_partition()
    res = solve(p, cfg=SolverConfig(time_limit=1e-9))
    assert res.status == TIMEOUT


def walked_vertices(p):
    """The grid vertices the constraint root walks: the interior ones on
    a lower face of a box larger than a pixel."""
    faces = solver._lower_faces(b for b in p.boxes if not b.is_pixel())
    return [w for w, _ in vertex_owners(p.dim, p.n, p.owner_grid(), faces)]


def test_time_limit_stops_root_propagation(monkeypatch):
    # a fake clock one second later at every reading: the first solve of a
    # partition reads it once per vertex the constraint root walks, so a
    # deadline three readings past that passes inside the root
    # propagation, before any node
    full = solve(planar3_partition())
    p = planar3_partition()
    setup_readings = len(walked_vertices(p))
    ticks = iter(range(10**6))
    monkeypatch.setattr(solver.time, "monotonic", lambda: next(ticks))
    res = solve(p, cfg=SolverConfig(time_limit=setup_readings + 3))
    assert res.status == TIMEOUT
    assert res.projection is None
    assert res.stats["nodes"] == 0
    assert 0 < res.stats["propagations"] < full.stats["propagations"]


def test_time_limit_stops_root_propagation_on_a_cached_root(monkeypatch):
    # a later solve finds the root built: it reads the clock first in the
    # root propagation, so a deadline three readings past the one that
    # fixes it passes there, before any node
    p = planar3_partition()
    full = solve(p)
    ticks = iter(range(10**6))
    monkeypatch.setattr(solver.time, "monotonic", lambda: next(ticks))
    res = solve(p, cfg=SolverConfig(time_limit=3))
    assert res.status == TIMEOUT
    assert res.projection is None
    assert res.stats["nodes"] == 0
    assert 0 < res.stats["propagations"] < full.stats["propagations"]


def test_time_limit_stops_the_search_at_its_first_node(monkeypatch):
    # the fake clock stands at 0 until root propagation returns, then
    # jumps past the deadline: the first node reads it and stops before
    # it propagates a branch
    p = planar3_partition()
    now = [0]
    seeds = []
    propagate = solver._Csp.propagate

    def jump_after_the_root(csp, watched=None):
        seeds.append(watched)
        ok = propagate(csp, watched)
        now[0] = 10
        return ok
    monkeypatch.setattr(solver._Csp, "propagate", jump_after_the_root)
    monkeypatch.setattr(solver.time, "monotonic", lambda: now[0])
    res = solve(p, cfg=SolverConfig(time_limit=1))
    assert res.status == TIMEOUT
    assert res.projection is None
    assert res.stats["nodes"] == 1
    assert seeds == [None]


def test_time_limit_stops_setup(monkeypatch):
    # the deadline, fixed at 0 + 2, passes at the third vertex the
    # constraint root walks, so the root must walk three or more: reading
    # 0 fixes it, readings 1, 2 and 3 precede the first three vertices;
    # the stopped solve caches no root, so enumerate_all reads it alike
    p = planar3_partition()
    assert len(walked_vertices(p)) >= 3
    readings = []

    def clock():
        readings.append(len(readings))
        return readings[-1]

    monkeypatch.setattr(solver.time, "monotonic", clock)
    for run in (solve, enumerate_all):
        readings.clear()
        res = run(p, cfg=SolverConfig(time_limit=2))
        assert res.status == TIMEOUT
        assert res.stats == {"nodes": 0, "propagations": 0}
        assert readings == [0, 1, 2, 3]


def test_a_deadline_in_the_root_build_caches_nothing(monkeypatch):
    p = planar3_partition()
    fresh = solve(planar3_partition())
    ticks = iter(range(10**6))
    monkeypatch.setattr(solver.time, "monotonic", lambda: next(ticks))
    # reading 0 fixes the deadline at 2; it passes at the third walked vertex
    assert solve(p, cfg=SolverConfig(time_limit=2)).status == TIMEOUT
    assert p._solver_root is None
    monkeypatch.undo()
    again = solve(p)
    assert (again.status, again.stats) == (fresh.status, fresh.stats)
    assert again.projection == fresh.projection


def test_a_later_solve_reuses_the_root(monkeypatch):
    # domain listing does not run again, and the root build makes no
    # orientation call: count the calls made before each solve's first
    # propagation
    p = planar3_partition()
    calls, before = [], []
    real_domain, real_kernel = solver.box_domain, solver._kernel
    real_propagate = solver._Csp.propagate
    monkeypatch.setattr(solver, "box_domain", lambda box: (
        calls.append("box_domain") or real_domain(box)))
    monkeypatch.setattr(solver, "_kernel", lambda n: lambda *pts: (
        calls.append("orientation") or real_kernel(n)(*pts)))
    monkeypatch.setattr(solver._Csp, "propagate", lambda csp, seeds=None: (
        before.append(len(calls)) or real_propagate(csp, seeds)))
    assert solve(p).status == SAT
    assert "box_domain" in calls[:before[0]]
    assert "orientation" not in calls[:before[0]]
    for run, pins in [(solve, None), (solve, {0: [(5, 1)]}),
                      (enumerate_all, None)]:
        calls.clear()
        before.clear()
        assert run(p, pins=pins).status == SAT
        assert before[0] == 0


def pixel_pins(p):
    """Pins of the first and the last pixel, on and off their centers."""
    pixels = [i for i, b in enumerate(p.boxes) if b.is_pixel()]
    pins = []
    for i in (pixels[0], pixels[-1]):
        x, y = p.boxes[i].center2()
        pins += [{i: [(x, y)]}, {i: [(x + 1, y), (x, y - 2)]}]
    return pins


@pytest.mark.parametrize("make, pin_sets", [
    (planar3_partition, [{0: [(1, 1)], 2: [(7, 5)]}, {0: [(5, 1)]}, {0: []}]),
    (gen_planar_lcycle, [])], ids=["planar3", "lcycle"])
def test_a_cached_root_answers_as_a_fresh_one(make, pin_sets):
    cached = make()
    for run in (solve, enumerate_all):
        for pins in [None] + pin_sets + pixel_pins(cached):
            fresh = run(make(), pins=pins)
            got = run(cached, pins=pins)
            assert cached._solver_root is not None
            assert (got.status, got.stats) == (fresh.status, fresh.stats)
            assert got.projection == fresh.projection
            assert got.solutions == fresh.solutions


def test_pinned_runs_leave_the_root_as_it_was():
    p = planar3_partition()
    solve(p)
    root = p._solver_root
    kept = (dict(root.domains), list(root.constraints), list(root.free),
            {i: list(c) for i, c in root.watching.items()})
    for run in (solve, enumerate_all):
        assert run(p, pins={0: [(5, 1)]}).status == SAT
    assert p._solver_root is root
    assert kept == (root.domains, root.constraints, root.free,
                    root.watching)


def test_solver_is_deterministic():
    p = planar3_partition()
    a = solve(p)
    b = solve(p)
    assert a.projection == b.projection
    assert a.stats == b.stats


def test_center_embedding_implies_sat():
    rng = random.Random(41)
    seen_sat = 0
    for _ in range(25):
        # redraw the undivided square and others with no top simplex
        p = random_partition(2, 4, rng)
        while not build_dual(p).has_top():
            p = random_partition(2, 4, rng)
        dc = build_dual(p)
        res = solve(p)
        assert res.status in (SAT, UNSAT)
        if center_embeddable(p, dc):
            assert res.status == SAT
            seen_sat += 1
    assert seen_sat >= 5


def seeded_pixel_fill(d, n, seed):
    return pixel_fill(random_disjoint_boxes(d, n, random.Random(seed)), n)


def seeded_guillotine(d, n, seed):
    return random_partition(d, n, random.Random(seed))


# pixel fills keep the ids seed-d-n; the guillotine seeds are ones whose
# partitions have both kinds of simplex the test reads
ONE_BOX_CASES = [
    pytest.param(seeded_pixel_fill, d, n, seed, id=f"{seed}-{d}-{n}")
    for d, n in [(2, 8), (3, 5), (4, 3)] for seed in range(3)
] + [
    pytest.param(seeded_guillotine, d, n, seed,
                 id=f"guillotine-{seed}-{d}-{n}")
    for d, n, seeds in [(2, 8, (0, 6)), (3, 5, (0, 6)), (4, 3, (0, 2))]
    for seed in seeds
]


@pytest.mark.parametrize("make, d, n, seed", ONE_BOX_CASES)
def test_unit_simplices_orient_as_their_seeds(make, d, n, seed):
    # the one-box lemma behind the constraint setup: a top simplex with at
    # most one box larger than a pixel keeps its seed sign at the pixel
    # centers and at every half-integral point inside that box
    p = make(d, n, seed)
    assert p.dim == d
    units, one_box = 0, 0
    dc = build_dual(p)
    for _, _, ordered, want in map(dc.seed_raw, dc.top_simplices()):
        pts = [p.boxes[i].center2() for i in ordered]
        big = [k for k, i in enumerate(ordered) if not p.boxes[i].is_pixel()]
        if not big:
            units += 1
            assert orientation(pts) == want
        elif len(big) == 1:
            one_box += 1
            k = big[0]
            for v in box_domain(p.boxes[ordered[k]]):
                pts[k] = v
                assert orientation(pts) == want
    assert units and one_box


def test_unit_simplices_cost_no_orientation_call(monkeypatch):
    p = unit_grid2(3)
    calls = []
    real_kernel = solver._kernel
    monkeypatch.setattr(solver, "_kernel", lambda n: lambda *pts: (
        calls.append(pts) or real_kernel(n)(*pts)))
    res = solve(p)
    assert res.status == SAT and res.projection == center_projection(p)
    assert calls == []


# 30 pixel fills in each of d = 2, 3, 4, 30 planar random_pixel_fills,
# and 30 guillotines in each of d = 2, 3
ROOT_CASES = [
    pytest.param(seeded_pixel_fill, (d, n), range(30), id=f"fill-{d}-{n}")
    for d, n in [(2, 8), (3, 5), (4, 3)]
] + [
    pytest.param(lambda n, seed: random_pixel_fill(n, random.Random(seed)),
                 (6,), range(30), id="random_pixel_fill-6"),
] + [
    pytest.param(seeded_guillotine, (d, n), range(30),
                 id=f"guillotine-{d}-{n}")
    for d, n in [(2, 8), (3, 5)]
]


@pytest.mark.parametrize("make, args, seeds", ROOT_CASES)
def test_root_is_the_full_walk_filtered(make, args, seeds):
    # the root walks only the boundary vertices of the boxes larger than
    # a pixel, yet keeps what the full walk keeps under the one-box lemma
    constraints = [check_root(make(*args, seed)) for seed in seeds]
    assert sum(map(bool, constraints)) >= 10


@pytest.mark.parametrize("run", [solve, enumerate_all])
def test_an_unsat_solve_walks_no_whole_grid(monkeypatch, run):
    # lcycle is UNSAT in one node: with no solution to re-check, the top
    # walk over every grid vertex never runs; its SAT twin runs it for the
    # re-check
    def refuse(p):
        raise AssertionError("full top walk")
    monkeypatch.setattr(dual, "_chains", refuse)
    res = run(gen_planar_lcycle())
    assert res.status == UNSAT
    assert res.stats == {"nodes": 1, "propagations": 110}
    with pytest.raises(AssertionError, match="full top walk"):
        run(gen_planar_lcycle(drop_sink=True))


def test_solve_3d_smoke():
    p = validate_partition(
        [IntBox((0, 0, 0), (1, 1, 1)), IntBox((1, 0, 0), (2, 1, 1)),
         IntBox((0, 0, 1), (1, 1, 2)), IntBox((1, 0, 1), (2, 1, 2)),
         IntBox((0, 1, 0), (2, 2, 2))], 3, 2)
    res = solve(p)
    assert res.status in (SAT, UNSAT)
    if res.status == SAT:
        assert classify_projection(p, res.projection).is_embedding



def refuse_listing(box):
    raise AssertionError("box_domain called")


@pytest.mark.parametrize("run", [solve, enumerate_all])
def test_domain_guard_refuses_before_listing(monkeypatch, run):
    # a 2x1 box under two pixels: 3 + 1 + 1 = 5 domain points, and the
    # (2n)^d = 16 bound does not spare the count
    p = validate_partition([IntBox((0, 0), (2, 1)), IntBox((0, 1), (1, 2)),
                            IntBox((1, 1), (2, 2))], 2, 2)
    monkeypatch.setattr(solver, "_GRID_LIMIT", 5)
    assert run(p).status == SAT
    monkeypatch.setattr(solver, "_GRID_LIMIT", 4)
    monkeypatch.setattr(solver, "box_domain", refuse_listing)
    with pytest.raises(DomainTooLarge) as info:
        run(p)
    assert info.value.points == 5


def test_domain_guard_at_the_real_limit(monkeypatch):
    # three boxes whose domains would hold 15,986,003 points
    p = parse_partition("2 2000 3\n0 2000 0 1000\n0 1000 1000 2000\n"
                        "1000 2000 1000 2000\n")
    monkeypatch.setattr(solver, "box_domain", refuse_listing)
    with pytest.raises(DomainTooLarge) as info:
        solve(p)
    assert info.value.points == 3999 * 1999 + 2 * 1999 * 1999
