"""The grid-3SAT reduction on hand-routed instances.

Law: pinning a variable's ring to its front markers (true) or its back
markers (false) leaves a solvable partition exactly when the assignment
satisfies the instance, and a solution reads back as that assignment.
"""

from dataclasses import replace
from itertools import product
import json

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
    """Instance name -> (instance, partition, gadget map, dual complex),
    each instance reduced once per module."""
    cache = {}

    def get(name):
        if name not in cache:
            inst = parse_grid3sat(INSTANCES[name])
            p, gmap = reduce(inst)
            cache[name] = inst, p, gmap, build_dual(p)
        return cache[name]
    return get


@pytest.fixture(params=list(INSTANCES))
def reduced(request, reduced_of):
    return reduced_of(request.param)


def test_instance_round_trips(reduced):
    inst = reduced[0]
    assert parse_grid3sat(format_grid3sat(inst)) == inst


def test_gadget_map_checks_and_round_trips(reduced):
    _, p, gmap, _ = reduced
    assert check_gadget_map(p, gmap)
    text = gadget_map_to_json(gmap)
    assert gadget_map_from_json(text) == gmap
    # older maps carry a top-level "profile" key, which is ignored
    legacy = json.dumps({**json.loads(text), "profile": [4, 4, 5]})
    assert gadget_map_from_json(legacy) == gmap


@pytest.mark.parametrize("name, assignment", CASES)
def test_ring_pins_solve_iff_satisfied(reduced_of, name, assignment):
    inst, p, gmap, dc = reduced_of(name)
    pins = {c.box: [c.front2 if assignment[v.var] else c.back2]
            for v in gmap.variables for c in v.cycle}
    res = solve(p, SolverConfig(node_limit=2000), dc=dc, pins=pins)
    assert res.status == (SAT if evaluate(inst, assignment) else UNSAT)
    if res.status == SAT:
        assert assignment_from_projection(res.projection, gmap) == assignment


@pytest.mark.parametrize("name, assignment", CASES)
def test_projection_from_assignment_law(reduced_of, name, assignment):
    inst, p, gmap, _ = reduced_of(name)
    if not evaluate(inst, assignment):
        rejected = [c.id for c in sorted(inst.clauses, key=lambda c: c.id)
                    if not evaluate(replace(inst, clauses=(c,)), assignment)]
        with pytest.raises(UnsatisfiedClause) as info:
            projection_from_assignment(assignment, p, gmap)
        assert info.value.clause == rejected[0]
        return
    proj = projection_from_assignment(assignment, p, gmap)
    assert assignment_from_projection(proj, gmap) == assignment


def test_brute_force_agrees(reduced):
    inst = reduced[0]
    sat = [a for a in assignments(inst) if evaluate(inst, a)]
    assert brute_force_sat(inst) == (sat[0] if sat else None)
