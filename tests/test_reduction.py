"""The grid-3SAT reduction on hand-routed instances.

Law: pinning a variable's ring to its front markers (true) or its back
markers (false) leaves a solvable partition exactly when the assignment
satisfies the instance, and a solution reads back as that assignment.
"""

from dataclasses import replace
import gc
import hashlib
from itertools import product
import json
from pathlib import Path
import random
import weakref

import pytest

from rectdual import dual, reduction
from rectdual.boxes import GridTooLarge, IntBox, pixel_fill
from rectdual.grid3sat import (
    brute_force_sat,
    evaluate,
    format_grid3sat,
    parse_grid3sat,
)
from rectdual.embedding import Projection
from rectdual.io import format_partition
from rectdual.reduction import (
    CycleRect,
    GadgetMap,
    InconsistentCycle,
    MalformedAssignment,
    PathGadget,
    RoutingFailure,
    UnsatisfiedClause,
    VariableGadget,
    assignment_from_projection,
    check_gadget_map,
    gadget_map_from_json,
    gadget_map_to_json,
    projection_from_assignment,
    reduce,
)
from rectdual.solver import (
    SAT,
    UNSAT,
    SolveResult,
    SolverConfig,
    enumerate_all,
    solve,
)

from oracles.instances import random_grid3sat
from oracles.roots import check_root
from oracles.router import route as oracle_route

# one variable at (0,1) wired to one clause at (2,1) by three disjoint
# paths: through (1,1), around the top, around the bottom
ALL_POSITIVE = """\
2 1 1 3
V 0 0 1
C 0 2 1 0 1 2
P 0 0 0 + 1 1 1
P 1 0 0 + 3 0 2 1 2 2 2
P 2 0 0 + 3 0 0 1 0 2 0
"""
# the same routing with the bottom path negated: satisfied either way
BOTTOM_NEGATED = ALL_POSITIVE.replace("P 2 0 0 +", "P 2 0 0 -")
# x0 at (0,2) and x1 at (4,2) feed c0 = (x0 or x1 or x0) at (2,3) and
# c1 = (not x0 or not x1 or not x1) at (2,1): satisfied exactly when
# x0 != x1; false-false breaks c0, true-true breaks c1
TWO_VAR_TWO_CLAUSE = """\
4 2 2 6
V 0 0 2
V 1 4 2
C 0 2 3 0 1 2
C 1 2 1 3 4 5
P 0 0 0 + 2 0 3 1 3
P 1 1 0 + 2 4 3 3 3
P 2 0 0 + 2 1 2 2 2
P 3 0 1 - 2 0 1 1 1
P 4 1 1 - 2 3 2 3 1
P 5 1 1 - 4 4 1 4 0 3 0 2 0
"""

INSTANCES = {
    "all_positive": ALL_POSITIVE,
    "bottom_negated": BOTTOM_NEGATED,
    "two_var_two_clause": TWO_VAR_TWO_CLAUSE,
}
# x, y and z at (5,5), (1,5) and (9,5) feed (x|y|y) at (3,7), (x|~y|~y)
# at (3,3), (~x|z|z) at (7,7) and (~x|~z|~z) at (7,3): unsatisfiable
UNSAT3 = """\
10 3 4 12
V 0 5 5
V 1 1 5
V 2 9 5
C 0 3 7 0 4 5
C 1 3 3 1 6 7
C 2 7 7 2 8 9
C 3 7 3 3 10 11
P 0 0 0 + 3 5 6 5 7 4 7
P 1 0 1 + 3 4 5 4 4 4 3
P 2 0 2 - 3 6 5 6 6 6 7
P 3 0 3 - 3 5 4 6 4 6 3
P 4 1 0 + 3 1 6 1 7 2 7
P 5 1 0 + 3 2 5 2 6 3 6
P 6 1 1 - 3 1 4 1 3 2 3
P 7 1 1 - 7 0 5 0 4 0 3 0 2 1 2 2 2 3 2
P 8 2 2 + 3 9 6 9 7 8 7
P 9 2 2 + 3 8 5 8 6 7 6
P 10 2 3 - 3 9 4 9 3 8 3
P 11 2 3 - 7 10 5 10 4 10 3 10 2 9 2 8 2 7 2
"""
# path 11 made positive: the last clause becomes (~x|~z|z), and the
# instance holds exactly when x and z are true
SAT3 = UNSAT3.replace("P 11 2 3 -", "P 11 2 3 +")
# reduced like INSTANCES, but with no pinned solve per assignment
LARGE = {"unsat3": UNSAT3, "sat3": SAT3}


def assignments(inst):
    """Every assignment of the instance's variables, in brute_force_sat's
    lexicographic order."""
    vids = sorted(v.id for v in inst.variables)
    return [dict(zip(vids, bits))
            for bits in product((False, True), repeat=len(vids))]


# (instance, assignment) pairs, named like all_positive-false or
# two_var_two_clause-false-true
CASES = [
    pytest.param(name, a, id="-".join([name] + [str(a[v]).lower() for v in a]))
    for name, text in INSTANCES.items()
    for a in assignments(parse_grid3sat(text))
]


@pytest.fixture(scope="module")
def reduced_of():
    """Instance name -> (instance, partition, gadget map), each instance
    reduced once per module."""
    cache = {}

    def get(name):
        if name not in cache:
            inst = parse_grid3sat({**INSTANCES, **LARGE}[name])
            p, gmap = reduce(inst)
            cache[name] = inst, p, gmap
        return cache[name]
    return get


@pytest.fixture(params=list(INSTANCES))
def reduced(request, reduced_of):
    return reduced_of(request.param)


def test_instance_round_trips(reduced):
    inst = reduced[0]
    assert parse_grid3sat(format_grid3sat(inst)) == inst


def test_gadget_map_checks_and_round_trips(reduced):
    _, p, gmap = reduced
    assert check_gadget_map(p, gmap)
    text = gadget_map_to_json(gmap)
    assert gadget_map_from_json(text) == gmap
    # older maps carry a top-level "profile" key, which is ignored
    legacy = json.dumps({**json.loads(text), "profile": [4, 4, 5]})
    assert gadget_map_from_json(legacy) == gmap


_NO_GADGETS = {"scale": 1, "variables": [], "paths": [], "clauses": []}


@pytest.mark.parametrize("doc, match", [
    ({}, "GadgetMap has no 'scale' field"),
    ([], "GadgetMap must be a dict, got list"),
    ({**_NO_GADGETS, "variables": [5]},
     "VariableGadget must be a dict, got int"),
    ({**_NO_GADGETS, "paths": {}}, "GadgetMap.paths must be a list, got dict"),
    ({**_NO_GADGETS, "clauses": [{"clause": 0}]},
     "ClauseGadget has no 'point' field"),
], ids=["empty", "list", "int-gadget", "dict-paths", "short-clause"])
def test_gadget_map_from_json_names_malformed_input(doc, match):
    with pytest.raises(ValueError, match=match) as info:
        gadget_map_from_json(json.dumps(doc))
    assert type(info.value) is ValueError


@pytest.mark.parametrize("name, assignment", CASES)
def test_ring_pins_solve_iff_satisfied(reduced_of, name, assignment):
    inst, p, gmap = reduced_of(name)
    pins = {c.box: [c.front2 if assignment[v.var] else c.back2]
            for v in gmap.variables for c in v.cycle}
    res = solve(p, SolverConfig(node_limit=2000), pins=pins)
    assert res.status == (SAT if evaluate(inst, assignment) else UNSAT)
    if res.status == SAT:
        assert assignment_from_projection(res.projection, gmap) == assignment


@pytest.mark.parametrize("name, assignment", CASES)
def test_projection_from_assignment_law(reduced_of, name, assignment):
    inst, p, gmap = reduced_of(name)
    if not evaluate(inst, assignment):
        rejected = [c.id for c in sorted(inst.clauses, key=lambda c: c.id)
                    if not evaluate(replace(inst, clauses=(c,)), assignment)]
        with pytest.raises(UnsatisfiedClause) as info:
            projection_from_assignment(assignment, p, gmap)
        assert info.value.clause == rejected[0]
        return
    proj = projection_from_assignment(assignment, p, gmap)
    assert assignment_from_projection(proj, gmap) == assignment


@pytest.mark.parametrize("where, message", [("center", "dead center"),
                                             ("back", "mixes halves")])
def test_an_inconsistent_ring_reads_back_as_no_assignment(reduced_of, where,
                                                          message):
    # one ring vertex of a solved projection moved to the middle of its
    # rectangle, or to its back marker while the others stay in front
    _, p, gmap = reduced_of("all_positive")
    proj = projection_from_assignment({0: True}, p, gmap)
    c = gmap.variables[0].cycle[0]
    axis = 0 if c.front2[0] != c.back2[0] else 1
    pt = list(c.back2)
    if where == "center":
        span = abs(c.front2[axis] - c.back2[axis])
        step = 1 if c.back2[axis] > c.front2[axis] else -1
        pt[axis] = c.front2[axis] + step * ((span + 2) // 2 - 1)
    pts = list(proj.points2)
    pts[c.box] = tuple(pt)
    with pytest.raises(InconsistentCycle, match=message):
        assignment_from_projection(Projection(tuple(pts)), gmap)


@pytest.mark.parametrize("case, message", [
    ("short", "no point of two ints"),
    ("3d", "no point of two ints"),
    ("off", "no point of two ints"),
])
def test_assignment_from_projection_refuses_a_malformed_projection(
        reduced_of, case, message):
    # a solved projection with its last ring box's point cut off, with a
    # third coordinate on every point, or with one ring point moved off
    # its rectangle
    _, p, gmap = reduced_of("all_positive")
    pts = list(projection_from_assignment({0: True}, p, gmap).points2)
    cycle = gmap.variables[0].cycle
    if case == "short":
        pts = pts[:max(c.box for c in cycle)]
    elif case == "3d":
        pts = [pt + (1,) for pt in pts]
    else:
        x, y = pts[cycle[0].box]
        pts[cycle[0].box] = (x + 10, y + 10)
    with pytest.raises(ValueError, match=message) as info:
        assignment_from_projection(Projection(tuple(pts)), gmap)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("assignment, message", [
    ({0: "false"}, "is not a bool"),
    ({}, "names variables"),
    ({0: True, 7: False}, "names variables"),
], ids=["string-value", "empty", "unknown-variable"])
def test_projection_from_assignment_refuses_a_malformed_assignment(
        reduced_of, assignment, message):
    # all_positive has the one variable 0
    _, p, gmap = reduced_of("all_positive")
    with pytest.raises(MalformedAssignment, match=message):
        projection_from_assignment(assignment, p, gmap)


@pytest.mark.parametrize("name, assignment", CASES)
def test_a_cached_root_answers_as_a_fresh_one(reduced_of, name, assignment):
    # the root is built unpinned by whichever solve comes first, so pins
    # of another assignment, or none, must not change this one's answer
    _, p, gmap = reduced_of(name)
    solve(p, SolverConfig(node_limit=1))
    assert p._solver_root is not None
    pins = {c.box: [c.front2 if assignment[v.var] else c.back2]
            for v in gmap.variables for c in v.cycle}
    # a copy of the partition carries no dual, and so no root: the pinned
    # solve builds it, and the enumeration reads what that solve built
    copy = replace(p)
    for run, limit in ((solve, 2000), (enumerate_all, 30)):
        fresh = run(copy, SolverConfig(node_limit=limit), pins=pins)
        got = run(p, SolverConfig(node_limit=limit), pins=pins)
        assert (got.status, got.stats) == (fresh.status, fresh.stats)
        assert got.projection == fresh.projection
        assert got.solutions == fresh.solutions


# sha256 of format_partition + gadget_map_to_json for each instance: the
# router and the gadget geometry must reproduce reduce's output byte for
# byte
REDUCED_SHA256 = {
    "all_positive":
        "95fd1c4c94927f8ef6907a324e22ba7c382e3223492d6cee84574f1759cfdaa4",
    "bottom_negated":
        "f565a25ae686e3d5378f1856221c6eb5fc05f3cd328a18b761592d18de2131ee",
    "two_var_two_clause":
        "fcdc00866e1386c71f1b8956c6589945cc257695eaed8b1b98778b5382c88943",
    "unsat3":
        "418f00e33a4a9ec93c16ec99a45eb188847e5ff906f1577bc79f475aad2e94e7",
    "sat3":
        "8420c046bf734fa18f6572fbb5b86220d5c193d4db9e18fddfe5f0e84f6e546b",
}


@pytest.mark.parametrize("name", list(REDUCED_SHA256))
def test_reduce_output_is_unchanged(reduced_of, name):
    _, p, gmap = reduced_of(name)
    text = format_partition(p) + gadget_map_to_json(gmap)
    assert hashlib.sha256(text.encode()).hexdigest() == REDUCED_SHA256[name]


# sha256 over the first 16 instances random_grid3sat draws from
# random.Random(0): format_grid3sat of each, then its reduce output as
# above.  Their reception searches try legs next to their own lane, next
# to its older legs and next to its arm, which the router does not
# refuse; the contact law is checked once, by check_gadget_map at the end
# of reduce
GENERATED_SHA256 = \
    "143de22368dc804238d36f8b638034caa41f784817a05cc2d6b3d65e3fd03b0a"


def test_reduce_output_is_unchanged_on_generated_instances():
    rng = random.Random(0)
    digest = hashlib.sha256()
    for _ in range(16):
        inst = random_grid3sat(rng)
        p, gmap = reduce(inst)
        digest.update(format_grid3sat(inst).encode())
        digest.update((format_partition(p) + gadget_map_to_json(gmap))
                      .encode())
    assert digest.hexdigest() == GENERATED_SHA256


def test_router_returns_the_oracles_legs(monkeypatch):
    # every route call of reduce, failed searches included, answered by
    # the router and by its frozen oracle on the canvas as it stands at
    # that call; the hashes above see failed searches only through the
    # layout reduce keeps
    route = reduction._route
    results = []

    def both(canvas, *args):
        got = route(canvas, *args)
        assert got == oracle_route(canvas, *args)
        results.append(got)
        return got
    monkeypatch.setattr(reduction, "_route", both)
    for name in REDUCED_SHA256:
        reduce(parse_grid3sat({**INSTANCES, **LARGE}[name]))
    rng = random.Random(0)
    for _ in range(16):
        reduce(random_grid3sat(rng))
    assert None in results and any(results)


def test_unsat3_has_no_completion(reduced_of):
    # the free solve is test_free_solve_of_unsat3_is_unsat: dom/wdeg
    # branching decides it in 76 nodes, where smallest-domain branching
    # did not within minutes
    inst, p, gmap = reduced_of("unsat3")
    assert brute_force_sat(inst) is None
    for a in assignments(inst):
        with pytest.raises(UnsatisfiedClause):
            projection_from_assignment(a, p, gmap)


@pytest.mark.parametrize("y", [False, True])
def test_sat3_completes_and_reads_back(reduced_of, y):
    inst, p, gmap = reduced_of("sat3")
    assert [a for a in assignments(inst) if evaluate(inst, a)] == [
        {0: True, 1: False, 2: True}, {0: True, 1: True, 2: True}]
    a = {0: True, 1: y, 2: True}
    proj = projection_from_assignment(a, p, gmap)
    assert assignment_from_projection(proj, gmap) == a


def refuse_full_walk(p):
    raise AssertionError("full top walk")


def test_free_solve_of_unsat3_is_unsat(reduced_of, monkeypatch):
    # the reduction law on a free solve of an unsatisfiable formula; the
    # root walks only the gadget boxes' boundaries, and with no solution
    # to re-check the top walk over the whole grid never runs
    _, p, _ = reduced_of("unsat3")
    monkeypatch.setattr(dual, "_chains", refuse_full_walk)
    res = solve(replace(p), SolverConfig(node_limit=2000))
    assert res.status == UNSAT
    assert res.stats == {"nodes": 76, "propagations": 18776}


def test_free_solve_of_sat3_reads_back_a_satisfying_assignment(reduced_of):
    inst, p, gmap = reduced_of("sat3")
    res = solve(p, SolverConfig(node_limit=2000))
    assert res.status == SAT
    assert res.stats["nodes"] == 82
    a = assignment_from_projection(res.projection, gmap)
    assert evaluate(inst, a)


FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


@pytest.mark.parametrize("name", list(REDUCED_SHA256) + sorted(
    path.stem for path in FIXTURES.glob("*.g3s")))
def test_root_is_the_full_walk_filtered(reduced_of, name):
    if name in REDUCED_SHA256:
        p = reduced_of(name)[1]
    else:
        p, _ = reduce(parse_grid3sat((FIXTURES / f"{name}.g3s").read_text()))
    assert check_root(replace(p)) > 0


def test_one_walk_per_partition(monkeypatch):
    """Pinned completion and a later solve of one reduced partition share
    one dual complex, and neither walks its downward closure."""
    p, gmap = reduce(parse_grid3sat(ALL_POSITIVE))
    walks = []
    real = dual._chains
    monkeypatch.setattr(dual, "_chains", lambda q: walks.append(q) or real(q))
    proj = projection_from_assignment({0: True}, p, gmap)
    pins = {c.box: [c.front2] for v in gmap.variables for c in v.cycle}
    res = solve(p, SolverConfig(node_limit=2000), pins=pins)
    assert res.status == SAT
    assert assignment_from_projection(proj, gmap) == {0: True}
    assert len(walks) == 1 and walks[0] is p
    assert p._dual._simplices is None


def test_unit_simplices_orient_as_their_seeds(reduced_of):
    _, p, _ = reduced_of("all_positive")
    units = 0
    dc = dual.build_dual(p)
    for _, _, ordered, want in map(dc.seed_raw, dc.top_simplices()):
        if all(p.boxes[i].is_pixel() for i in ordered):
            units += 1
            assert dual.orientation([p.boxes[i].center2()
                                     for i in ordered]) == want
    assert units == 16350


def test_a_dropped_partition_is_freed_at_once():
    # the partition caches its dual, which must not hold it in return
    p, gmap = reduce(parse_grid3sat(ALL_POSITIVE))
    projection_from_assignment({0: True}, p, gmap)
    assert solve(p).status == SAT
    assert p._dual is not None and p._solver_root is not None
    ref = weakref.ref(p)
    gc.disable()
    try:
        del p
        assert ref() is None
    finally:
        gc.enable()


def test_reduce_refuses_a_canvas_over_the_cell_limit(monkeypatch):
    def refuse(*args):
        raise AssertionError("routed")
    monkeypatch.setattr(reduction, "_route", refuse)
    monkeypatch.setattr(reduction, "pixel_fill", refuse)
    # on a grid of 98 the canvas's owner grid has (32 * 99)^2 > 10^7 cells
    big = parse_grid3sat(ALL_POSITIVE.replace("2 1 1 3", "98 1 1 3", 1))
    with pytest.raises(GridTooLarge) as info:
        reduce(big)
    assert info.value.cells == (32 * 99) ** 2
    # on a grid of 97, (32 * 98)^2 cells are within the limit
    with pytest.raises(AssertionError, match="routed"):
        reduce(parse_grid3sat(ALL_POSITIVE.replace("2 1 1 3", "97 1 1 3", 1)))


def test_brute_force_agrees(reduced):
    inst = reduced[0]
    sat = [a for a in assignments(inst) if evaluate(inst, a)]
    assert brute_force_sat(inst) == (sat[0] if sat else None)


# ------------------------------------------------ check_gadget_map rejects


def first(items, **changes):
    """items with the fields of its first entry replaced."""
    return (replace(items[0], **changes),) + items[1:]


def ring0(g, **changes):
    """g with the first ring rectangle of its first variable changed."""
    v = g.variables[0]
    return replace(g, variables=first(g.variables,
                                      cycle=first(v.cycle, **changes)))


def path0(g, **changes):
    return replace(g, paths=first(g.paths, **changes))


def clause0(g, **changes):
    return replace(g, clauses=first(g.clauses, **changes))


_OPP = {"E": "W", "W": "E", "N": "S", "S": "N"}
_TURN = {"E": "N", "W": "N", "N": "E", "S": "E"}


def bulge_merged(p, g):
    """Path 0 leaves east and turns south, so its first bulge pixel is the
    cell under the stub's head; merge it with the cell to its west.  The
    gadget boxes keep their ids, since pixels come after them."""
    stub = p.boxes[g.paths[0].boxes[0]]
    assert g.paths[0].headings[:2] == ("E", "S")
    x, y = stub.hi[0] - 1, stub.lo[1] - 1
    gadgets = [b for b in p.boxes if b.volume() > 1]
    return pixel_fill(gadgets + [IntBox((x - 1, y), (x + 1, y + 1))], p.n), g


# one row per raise site of check_gadget_map: (how the reduced
# all_positive map, or once its partition, is tampered, the message)
REJECTS = [
    pytest.param(lambda p, g: (p, ring0(g, box=len(p.boxes))),
                 r"box id \d+ out of range", id="box-id-out-of-range"),
    pytest.param(lambda p, g: (p, replace(g, variables=first(
                     g.variables, cycle=g.variables[0].cycle[:3]))),
                 "variable 0: ring is not four rects", id="ring-of-three"),
    pytest.param(lambda p, g: (p, ring0(g, box=g.clauses[0].square)),
                 "variable 0: ring rect not thin", id="ring-rect-thick"),
    pytest.param(lambda p, g: (p, ring0(
                     g, front2=g.variables[0].cycle[0].back2)),
                 "variable 0: bad front marker", id="front-marker"),
    pytest.param(lambda p, g: (p, ring0(
                     g, back2=g.variables[0].cycle[0].front2)),
                 "variable 0: bad back marker", id="back-marker"),
    pytest.param(lambda p, g: (p, path0(g, headings=g.paths[0].headings[1:])),
                 "path 0: not one side per box", id="heading-missing"),
    pytest.param(lambda p, g: (p, path0(g, headings=g.paths[0].headings[:-1]
                                        + ("up",))),
                 "path 0: not one side per box", id="heading-not-a-side"),
    pytest.param(lambda p, g: (p, path0(g, headings=(
                     _TURN[g.paths[0].headings[0]],)
                     + g.paths[0].headings[1:])),
                 "path 0: rect not thin enough", id="stub-read-across"),
    pytest.param(lambda p, g: (p, path0(
                     g, boxes=g.paths[0].boxes[:1] + g.paths[0].boxes,
                     headings=g.paths[0].headings[:1] + g.paths[0].headings)),
                 "path 0: consecutive rects do not turn", id="no-turn"),
    pytest.param(lambda p, g: (p, path0(g, headings=(
                     g.paths[0].headings[0], _OPP[g.paths[0].headings[1]])
                     + g.paths[0].headings[2:])),
                 "path 0: rects not L-joined", id="not-l-joined"),
    pytest.param(bulge_merged, r"path 0: missing bulge pixel at \(",
                 id="bulge-not-a-pixel"),
    pytest.param(lambda p, g: (p, clause0(
                     g, square=g.variables[0].cycle[0].box)),
                 r"clause 0: square is \(8, 1\)", id="square-not-6x6"),
    pytest.param(lambda p, g: (p, clause0(g, arm_headings=(
                     _TURN[g.clauses[0].arm_headings[0]],)
                     + g.clauses[0].arm_headings[1:])),
                 "clause 0: arm length off", id="arm-read-across"),
    pytest.param(lambda p, g: (p, clause0(
                     g, arms=g.paths[0].boxes[:1] + g.clauses[0].arms[1:],
                     arm_headings=g.paths[0].headings[:1]
                     + g.clauses[0].arm_headings[1:])),
                 "clause 0: arm does not end at the square",
                 id="arm-away-from-square"),
    pytest.param(lambda p, g: (p, clause0(
                     g, arm_headings=g.clauses[0].arm_headings[:2])),
                 "clause 0: not three arms with one side and one path each",
                 id="two-arm-headings"),
    pytest.param(lambda p, g: (p, clause0(
                     g, arm_headings=g.clauses[0].arm_headings[:2] + ("up",))),
                 "clause 0: not three arms with one side and one path each",
                 id="arm-heading-not-a-side"),
    pytest.param(lambda p, g: (p, clause0(
                     g, arm_paths=g.clauses[0].arm_paths[:2])),
                 "clause 0: not three arms with one side and one path each",
                 id="two-arm-paths"),
    pytest.param(lambda p, g: (p, clause0(
                     g, arms=g.clauses[0].arms[:2],
                     arm_headings=g.clauses[0].arm_headings[:2],
                     arm_paths=g.clauses[0].arm_paths[:2])),
                 "clause 0: not three arms with one side and one path each",
                 id="two-arms"),
    pytest.param(lambda p, g: (p, path0(g, var=len(g.variables))),
                 "path 0: unknown variable 1", id="unknown-variable"),
    # path 0 is positive: negated, its stub may no longer touch the next
    # ring rectangle
    pytest.param(lambda p, g: (p, path0(g, sign=-g.paths[0].sign)),
                 "boxes 2 and 9 touch unplanned", id="sign-flipped"),
    pytest.param(lambda p, g: (p, clause0(g, helpers=())),
                 "box 8 is neither a pixel nor mapped", id="helper-dropped"),
]


@pytest.mark.parametrize("tamper, message", REJECTS)
def test_check_gadget_map_rejects(reduced_of, tamper, message):
    _, p, gmap = reduced_of("all_positive")
    assert gmap.paths[0].sign > 0
    p, gmap = tamper(p, gmap)
    loaded = gadget_map_from_json(gadget_map_to_json(gmap))
    for m in (gmap, loaded):
        with pytest.raises(ValueError, match=f"^{message}"):
            check_gadget_map(p, m)


def looped_path(last_leg):
    """A ring and one path drawn by hand on an 18 x 18 grid: a stub
    heading E from the ring's E rectangle, then legs heading N, W and S,
    the S leg running last_leg cells down from y = 13.  Boxes 0-3 are
    the ring, 4-7 the path."""
    ring = [(((1, 9), (9, 10)), "E"), (((9, 2), (10, 10)), "S"),
            (((2, 1), (10, 2)), "W"), (((1, 1), (2, 9)), "N")]
    path = [(((10, 8), (16, 9)), "E"), (((16, 8), (17, 13)), "N"),
            (((12, 13), (17, 14)), "W"),
            (((11, 14 - last_leg), (12, 14)), "S")]
    p = pixel_fill([IntBox(*rect) for rect, _ in ring + path], 18)
    cycle = []
    for i, (rect, h) in enumerate(ring):
        L = max(b - a for a, b in zip(*rect))
        cycle.append(CycleRect(i, h, reduction._off_point2(rect, h, 1),
                               reduction._off_point2(rect, h, 2 * L - 1)))
    gmap = GadgetMap(32, (VariableGadget(0, (0, 0), tuple(cycle)),),
                     (PathGadget(0, 0, 0, 1, (4, 5, 6, 7),
                                 tuple(h for _, h in path)),), ())
    return p, gmap


def test_check_gadget_map_rejects_a_path_that_touches_itself():
    # the S leg's head at (11, 9) sits on the stub's cell (11, 8); four
    # cells long, it ends at (11, 10) and keeps clear of the stub
    p, gmap = looped_path(4)
    assert check_gadget_map(p, gmap)
    p, gmap = looped_path(5)
    loaded = gadget_map_from_json(gadget_map_to_json(gmap))
    for m in (gmap, loaded):
        with pytest.raises(ValueError,
                           match="^boxes 4 and 7 touch unplanned"):
            check_gadget_map(p, m)


# ------------------------------------------------ RoutingFailure guards


def test_the_canvas_refuses_a_claim_off_the_frame_or_on_another_tag():
    canvas = reduction._Canvas(8)
    canvas.claim(((0, 0), (4, 1)), "E", (0, 0, 0))
    with pytest.raises(RoutingFailure, match="leaves the frame"):
        canvas.claim(((5, 0), (9, 1)), "E", (0, 0, 1))
    with pytest.raises(RoutingFailure,
                       match=r"overlaps \(0, 0, 0\) at \(3, 0\)"):
        canvas.claim(((3, 0), (4, 4)), "N", (0, 0, 1))
    # a refused claim claims nothing
    assert canvas.occ == {(x, 0): (0, 0, 0) for x in range(4)}
    assert canvas.rects == {(0, 0, 0): (((0, 0), (4, 1)), "E")}


def test_reduce_refuses_a_transit_leg_shorter_than_a_thin_rect(monkeypatch):
    # path 1 turns east in the block above its variable; an offset of -4
    # leaves its leg from the exit zigzag up to that turn three cells long
    monkeypatch.setattr(reduction, "_TRANSIT_OFF", -4)
    with pytest.raises(RoutingFailure,
                       match="^path 1: transit leg too short$"):
        reduce(parse_grid3sat(ALL_POSITIVE))


def test_reduce_refuses_a_clause_no_arm_layout_reaches(monkeypatch):
    # a router that finds no legs: each of the six arm layouts stops at
    # its first lane
    calls = []
    monkeypatch.setattr(reduction, "_route", lambda *args: calls.append(args))
    with pytest.raises(RoutingFailure,
                       match="^clause 0: no reception layout found$"):
        reduce(parse_grid3sat(ALL_POSITIVE))
    assert len(calls) == 6


def test_projection_from_assignment_refuses_a_failed_completion(
        reduced_of, monkeypatch):
    _, p, gmap = reduced_of("all_positive")
    monkeypatch.setattr(reduction, "solve",
                        lambda p, pins: SolveResult(UNSAT))
    with pytest.raises(RoutingFailure, match="pinned completion failed"):
        projection_from_assignment({0: True}, p, gmap)
