"""The grid-3SAT reduction on hand-routed one-variable instances.

Law: pinning a variable's ring to its front markers (true) or its back
markers (false) leaves a solvable partition exactly when the assignment
satisfies the instance, and a solution reads back as that assignment.
"""

import pytest

from rectdual.dual import build_dual
from rectdual.grid3sat import (
    brute_force_sat,
    evaluate,
    format_grid3sat,
    parse_grid3sat,
)
from rectdual.reduction import (
    UnsatisfiedClause,
    assignment_from_projection,
    check_gadget_map,
    gadget_map_from_json,
    gadget_map_to_json,
    projection_from_assignment,
    reduce,
)
from rectdual.solver import SAT, UNSAT, SolverConfig, solve

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

ASSIGNMENTS = ({0: False}, {0: True})


@pytest.fixture(scope="module", params=[ALL_POSITIVE, BOTTOM_NEGATED],
                ids=["all_positive", "bottom_negated"])
def reduced(request):
    inst = parse_grid3sat(request.param)
    p, gmap = reduce(inst)
    return inst, p, gmap, build_dual(p)


def test_instance_round_trips(reduced):
    inst = reduced[0]
    assert parse_grid3sat(format_grid3sat(inst)) == inst


def test_gadget_map_checks_and_round_trips(reduced):
    _, p, gmap, _ = reduced
    assert check_gadget_map(p, gmap)
    assert gadget_map_from_json(gadget_map_to_json(gmap)) == gmap


@pytest.mark.parametrize("assignment", ASSIGNMENTS, ids=["false", "true"])
def test_ring_pins_solve_iff_satisfied(reduced, assignment):
    inst, p, gmap, dc = reduced
    pins = {c.box: [c.front2 if assignment[v.var] else c.back2]
            for v in gmap.variables for c in v.cycle}
    res = solve(p, SolverConfig(node_limit=2000), dc=dc, pins=pins)
    assert res.status == (SAT if evaluate(inst, assignment) else UNSAT)
    if res.status == SAT:
        assert assignment_from_projection(res.projection, gmap) == assignment


@pytest.mark.parametrize("assignment", ASSIGNMENTS, ids=["false", "true"])
def test_projection_from_assignment_law(reduced, assignment):
    inst, p, gmap, _ = reduced
    if not evaluate(inst, assignment):
        with pytest.raises(UnsatisfiedClause):
            projection_from_assignment(assignment, p, gmap)
        return
    proj = projection_from_assignment(assignment, p, gmap)
    assert assignment_from_projection(proj, gmap) == assignment


def test_brute_force_agrees(reduced):
    inst = reduced[0]
    sat = [a for a in ASSIGNMENTS if evaluate(inst, a)]
    assert brute_force_sat(inst) == (sat[0] if sat else None)
