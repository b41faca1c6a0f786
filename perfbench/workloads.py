"""The four workloads: seeded inputs, the timed call per item, and the
check of each verdict against its known answer and the re-check.

An item is one input; running it goes from the input text (or, for the
gadget items, the reduced partition) to a verdict. Program functions
are looked up on their modules at call time, so the tracer's wrappers
see every call.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import rectdual.counterexamples as rcx
import rectdual.dual as rdual
import rectdual.embedding as remb
import rectdual.grid3sat as rg3
import rectdual.io as rio
import rectdual.reduction as rred
import rectdual.solver as rsol
import rectdual.stabbing as rstab

import gen
import recheck

FIXTURES = Path(__file__).resolve().parent / "fixtures"
# every solve the benchmark starts is bounded by nodes; the runner adds a
# wall cap on the whole process (SolverConfig.time_limit is not used)
NODE_LIMIT = 20_000
F = Fraction


@dataclass(frozen=True)
class Item:
    kind: str
    label: str
    data: object
    expect: str = None  # known verdict; None when the re-check decides


@dataclass
class Outcome:
    verdict: str
    key: object  # hardware-independent fingerprint, compared across passes
    detail: object = None  # program output kept for the re-check


# ------------------------------------------------------------ timed calls

def _center(item, ctx):
    p = rio.parse_partition(item.data)
    dc = rdual.build_dual(p)
    v = remb.center_embeddable(p, dc)
    key = (v.kind, len(dc.top_simplices()),
           tuple(sorted((x.simplex, x.expected * x.actual)
                        for x in v.violations)))
    return Outcome(v.kind, key, (v, dc))


def _reduce(item, ctx):
    inst = rg3.parse_grid3sat(item.data)
    p, gmap = rred.reduce(inst)
    rred.check_gadget_map(p, gmap)
    ctx["gadget"] = (p, gmap)
    return Outcome("reduced", (len(p.boxes), p.n), p)


def _pinned(item, ctx):
    p, gmap = ctx["gadget"]
    try:
        proj = rred.projection_from_assignment(dict(item.data), p, gmap)
    except rred.UnsatisfiedClause as e:
        return Outcome("unsatisfied_clause", ("unsatisfied_clause", e.clause))
    return Outcome("sat", ("sat", proj.points2), (p, gmap, proj))


def _solved(p, res):
    sol = res.projection.points2 if res.projection else None
    key = (res.status, res.stats.get("nodes"), res.stats.get("propagations"),
           sol)
    return Outcome(res.status, key, (p, res))


def _gadget_solve(item, ctx):
    p = ctx["gadget"][0]
    return _solved(p, rsol.solve(p, rsol.SolverConfig(node_limit=NODE_LIMIT)))


def _solve(item, ctx):
    outs = []
    for text in item.data:
        p = rio.parse_partition(text)
        try:
            res = rsol.solve(p, rsol.SolverConfig(node_limit=NODE_LIMIT))
        except rsol.Unsupported:
            outs.append(Outcome("unsupported", "unsupported", (p, None)))
            continue
        outs.append(_solved(p, res))
    return Outcome("/".join(o.verdict for o in outs),
                   tuple(o.key for o in outs), [o.detail for o in outs])


def _enumerate(item, ctx):
    p = rio.parse_partition(item.data)
    res = rsol.enumerate_all(p, rsol.SolverConfig(node_limit=NODE_LIMIT))
    verdict = f"{res.status}:{len(res.solutions)}"
    key = (verdict, res.stats.get("nodes"),
           tuple(s.points2 for s in res.solutions))
    return Outcome(verdict, key, (p, res))


def _stab(v):
    return Outcome(v.status, (v.status, v.witness, v.cases,
                              len(v.certificate)), v)


def _plane(item, ctx):
    family, b = item.data
    return _stab(rstab.plane_stab(rstab.build_config_sets(family, b)))


def _line(item, ctx):
    return _stab(rstab.line_stab(rstab.build_planar_sets(item.data)))


# ------------------------------------------------------------- re-checks

def _certificate(p, points2):
    boxes = gen.partition_boxes(p)
    tops, problems = recheck.top_simplices(p.dim, p.n, boxes)
    return problems + recheck.check_certificate(boxes, tops, points2)


def recheck_outcome(item, out):
    """Problems the independent re-check finds with one outcome."""
    kind = item.kind
    if kind == "center":
        v, dc = out.detail
        return recheck.check_center(item.data, v, dc)
    if kind == "reduce":
        p = out.detail
        return recheck.top_simplices(p.dim, p.n, gen.partition_boxes(p))[1]
    if kind == "pinned" and out.verdict == "sat":
        p, gmap, proj = out.detail
        problems = _certificate(p, proj.points2)
        back = rred.assignment_from_projection(proj, gmap)
        if back != dict(item.data):
            problems.append(f"certificate reads back as {back}")
        return problems
    if kind == "gadget_solve" and out.verdict == "sat":
        p, res = out.detail
        return _certificate(p, res.projection.points2)
    if kind == "solve":
        problems = []
        for verdict, (p, res) in zip(out.verdict.split("/"), out.detail):
            if verdict == "sat":
                problems += _certificate(p, res.projection.points2)
            elif verdict == "unsupported":
                boxes = gen.partition_boxes(p)
                tops, found = recheck.top_simplices(p.dim, p.n, boxes)
                problems += found + (["unsupported, yet the re-check finds "
                                      "top simplices"] if tops else [])
            elif item.expect is None:
                problems.append(f"{verdict} cannot be re-checked")
        return problems
    if kind == "enumerate":
        p, res = out.detail
        problems = []
        for proj in res.solutions:
            problems += _certificate(p, proj.points2)
        if len({s.points2 for s in res.solutions}) != len(res.solutions):
            problems.append("enumeration repeats a placement")
        return problems
    if kind in ("plane", "line"):
        family = item.data[0] if kind == "plane" else "planar"
        b = item.data[1] if kind == "plane" else item.data
        return recheck.check_stab(family, b, out.detail)
    return []


RUN = {"center": _center, "reduce": _reduce, "pinned": _pinned,
       "gadget_solve": _gadget_solve, "solve": _solve,
       "enumerate": _enumerate, "plane": _plane, "line": _line}


def run_item(item, ctx):
    return RUN[item.kind](item, ctx)


# ---------------------------------------------------------------- inputs

def _builtin(p):
    return gen.partition_text(p.dim, p.n, gen.partition_boxes(p))


def _guillotine(d, n, rng, lo, hi):
    """A seeded guillotine partition with lo..hi boxes, so that an item's
    work does not depend much on the seed."""
    while True:
        boxes = gen.random_partition(d, n, rng)
        if lo <= len(boxes) <= hi:
            return gen.partition_text(d, n, boxes)


def center_2d(seed):
    # short items time steadily on a shared host, so the partitions are
    # n = 128; the quadtrees have a fixed leaf count and are the majority,
    # so the median verdict is a quadtree's
    rng = random.Random(seed)
    items = [Item("center", f"quadtree#{i}",
                  gen.partition_text(2, 128,
                                     gen.balanced_tree(2, 7, 1_000, rng)),
                  "embedding") for i in range(4)]
    items += [Item("center", f"guillotine2d#{i}",
                   _guillotine(2, 128, rng, 100, 140)) for i in range(2)]
    return items


def center_hidim(seed):
    rng = random.Random(seed)
    text = gen.partition_text
    items = [
        Item("center", "guillotine3d", _guillotine(3, 8, rng, 45, 55)),
        Item("center", "guillotine4d", _guillotine(4, 5, rng, 45, 55)),
        Item("center", "octree",
             text(3, 16, gen.balanced_tree(3, 4, 300, rng)), "embedding"),
        Item("center", "hextree",
             text(4, 4, gen.balanced_tree(4, 2, 60, rng)), "embedding"),
    ]
    # the paper's counterexample, balanced below beta, yet four centers
    # coplanar; beta 6 and 4 give cube sides 3 and 4
    items += [Item("center", f"layered_beta{beta}",
                   _builtin(rcx.gen_3d_layered(F(beta))), "not_embedding")
              for beta in (6, 4)]
    return items


def _satisfies(text, assignment):
    """Own evaluation of a grid3sat instance: every clause needs one path
    whose literal holds."""
    clauses = {}
    for line in text.splitlines():
        tok = line.split()
        if tok and tok[0] == "P":
            var, clause, sign = int(tok[2]), int(tok[3]), tok[4]
            clauses.setdefault(clause, []).append(
                assignment[var] == (sign == "+"))
    return all(any(lits) for lits in clauses.values())


def gadget_solve(seed):
    # the fixture items (reduce, pinned completions, free solve) are the
    # majority, so the median verdict is a reduction or a completion
    items = []
    for path in sorted(FIXTURES.glob("*.g3s")):
        text = path.read_text()
        items.append(Item("reduce", path.stem, text))
        variables = sorted({int(line.split()[1]) for line in text.splitlines()
                            if line.startswith("V ")})
        for bits in range(1 << len(variables)):
            assignment = tuple((v, bool(bits >> k & 1))
                               for k, v in enumerate(variables))
            items.append(Item(
                "pinned", f"{path.stem}:{bits:0{len(variables)}b}",
                assignment,
                "sat" if _satisfies(text, dict(assignment))
                else "unsatisfied_clause"))
        items.append(Item("gadget_solve", f"{path.stem}:free", None, "sat"))
    items += [
        Item("solve", "lcycle", (_builtin(rcx.gen_planar_lcycle()),),
             "unsat"),
        Item("solve", "lcycle_drop_sink",
             (_builtin(rcx.gen_planar_lcycle(drop_sink=True)),), "sat"),
        Item("enumerate", "planar_3balanced",
             _builtin(rcx.gen_planar_3balanced()), "sat:14"),
    ]
    # seeded images of one small 3d partition, solved in one item: the
    # seed moves the solver's search order, the re-check decides
    rng = random.Random(seed)
    small = gen.random_partition(3, 3, random.Random(0))
    items.append(Item("solve", "guillotine3d_images", tuple(
        gen.partition_text(3, 3, gen.cube_image(small, 3, rng))
        for _ in range(4))))
    return items


def stab_grid(seed):
    # plane_stab takes seconds per b, so it runs the regular threshold
    # pair and the cheapest singular b, and holds the median verdict;
    # line_stab runs the planar threshold pair. The families depend only
    # on b and the known answers hold only on the tested grid, so the
    # seed sets the order of the items.
    items = [
        Item("plane", "regular@3", ("regular", F(3)), "infeasible"),
        Item("plane", "regular@7/2", ("regular", F(7, 2)), "feasible"),
        Item("plane", "singular@5", ("singular", F(5)), "infeasible"),
        Item("line", "planar@29/10", F(29, 10), "infeasible"),
        Item("line", "planar@3", F(3), "feasible"),
    ]
    random.Random(seed).shuffle(items)
    return items


WORKLOADS = {
    "center_2d": center_2d,
    "center_hidim": center_hidim,
    "gadget_solve": gadget_solve,
    "stab_grid": stab_grid,
}
