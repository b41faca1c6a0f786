"""Grid-routed 3SAT instances.

A grid3sat instance places variables and clauses on integer grid points
and connects them with vertex-disjoint paths along grid edges, three
incoming paths per clause, at most four outgoing per variable.  Each
path carries a sign: + delivers the variable's value to the clause, -
delivers its negation.

Text format (whitespace separated, # starts a comment line):

    N V C P                         header: grid size and section counts
    V id x y                        one per variable
    C id x y p1 p2 p3               one per clause, its three path ids
    P id var clause sign k x1 y1 .. xk yk
                                    path with k interior points, in order
                                    from the variable to the clause

Every number is a token matching -?[0-9]+. Path points exclude the
variable and clause endpoints; the first must be grid-adjacent to the
variable's point, the last to the clause's point (k = 0 means the two
are adjacent).

A text that does not follow the format raises io.ParseError with its
line number; a well-formed instance that breaks a structural rule raises
InvalidInstance or one of its more specific siblings below.
"""

from dataclasses import dataclass
from itertools import product as iproduct

from .io import ParseError, _int_tokens

__all__ = [
    "InvalidInstance",
    "DisjointnessViolation",
    "ClauseArity",
    "Variable",
    "Clause",
    "Path",
    "Grid3SatInstance",
    "parse_grid3sat",
    "format_grid3sat",
    "evaluate",
    "brute_force_sat",
]


class InvalidInstance(ValueError):
    """A well-formed instance names unknown or duplicate ids, or leaves
    the grid, or routes a path through non-adjacent points."""


class DisjointnessViolation(ValueError):
    """Two paths share a grid vertex, or a path hits a terminal point."""


class ClauseArity(ValueError):
    """A clause is not wired to exactly three distinct incoming paths."""


@dataclass(frozen=True)
class Variable:
    id: int
    point: tuple


@dataclass(frozen=True)
class Clause:
    id: int
    point: tuple
    paths: tuple  # three path ids


@dataclass(frozen=True)
class Path:
    id: int
    var: int
    clause: int
    sign: int      # +1 or -1
    points: tuple  # interior route, variable side first


@dataclass(frozen=True)
class Grid3SatInstance:
    n: int
    variables: tuple
    clauses: tuple
    paths: tuple


def _adjacent(p, q):
    return abs(p[0] - q[0]) + abs(p[1] - q[1]) == 1


def parse_grid3sat(text: str) -> Grid3SatInstance:
    """Parse and validate an instance; see the module docstring for the
    format and the structural rules enforced."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            rows.append((lineno, stripped.split()))
    if not rows:
        raise ParseError(0, "empty input")

    def ints(lineno, toks):
        try:
            return _int_tokens(toks)
        except ValueError:
            raise ParseError(lineno, f"expected integers, got {toks}") from None

    lineno, head = rows[0]
    if len(head) != 4:
        raise ParseError(lineno, "header must be 'N V C P'")
    n, nv, nc, np_ = ints(lineno, head)
    if n < 1 or nv < 0 or nc < 0 or np_ < 0:
        raise ParseError(lineno, "bad header counts")

    variables, clauses, paths = [], [], []
    for lineno, toks in rows[1:]:
        kind = toks[0]
        if kind == "V":
            if len(toks) != 4:
                raise ParseError(lineno, "variable needs 'V id x y'")
            vid, x, y = ints(lineno, toks[1:])
            variables.append(Variable(vid, (x, y)))
        elif kind == "C":
            if len(toks) != 7:
                raise ParseError(lineno, "clause needs 'C id x y p1 p2 p3'")
            cid, x, y, p1, p2, p3 = ints(lineno, toks[1:])
            clauses.append(Clause(cid, (x, y), (p1, p2, p3)))
        elif kind == "P":
            if len(toks) < 6:
                raise ParseError(lineno, "path needs 'P id var clause sign k ...'")
            pid, var, clause = ints(lineno, toks[1:4])
            if toks[4] not in ("+", "-"):
                raise ParseError(lineno, "sign must be + or -")
            sign = 1 if toks[4] == "+" else -1
            k = ints(lineno, toks[5:6])[0]
            coords = ints(lineno, toks[6:])
            if k < 0 or len(coords) != 2 * k:
                raise ParseError(lineno, f"expected {k} points")
            pts = tuple((coords[2 * i], coords[2 * i + 1]) for i in range(k))
            paths.append(Path(pid, var, clause, sign, pts))
        else:
            raise ParseError(lineno, f"unknown record '{kind}'")

    if (len(variables), len(clauses), len(paths)) != (nv, nc, np_):
        raise ParseError(rows[0][0], "header counts do not match body")

    inst = Grid3SatInstance(n, tuple(variables), tuple(clauses), tuple(paths))
    _validate(inst)
    return inst


def _validate(inst):
    """Raise on the first structural rule the instance breaks.

    A variable's paths need no check of their own: the route check puts
    every first step on one of the variable's four grid neighbours, so a
    fifth path or a repeated first step makes two paths share a vertex,
    runs one through the other's clause or gives that clause colliding
    final steps, and a check below refuses each of these."""
    vmap = {v.id: v for v in inst.variables}
    cmap = {c.id: c for c in inst.clauses}
    pmap = {p.id: p for p in inst.paths}
    if len(vmap) != len(inst.variables):
        raise InvalidInstance("duplicate variable id")
    if len(cmap) != len(inst.clauses):
        raise InvalidInstance("duplicate clause id")
    if len(pmap) != len(inst.paths):
        raise InvalidInstance("duplicate path id")

    def inside(pt):
        return 0 <= pt[0] <= inst.n and 0 <= pt[1] <= inst.n

    terminals = {}
    for v in inst.variables:
        if not inside(v.point):
            raise InvalidInstance(f"variable {v.id} off grid")
        if v.point in terminals:
            raise DisjointnessViolation(f"terminal collision at {v.point}")
        terminals[v.point] = ("V", v.id)
    for c in inst.clauses:
        if not inside(c.point):
            raise InvalidInstance(f"clause {c.id} off grid")
        if c.point in terminals:
            raise DisjointnessViolation(f"terminal collision at {c.point}")
        terminals[c.point] = ("C", c.id)

    seen = {}
    for p in inst.paths:
        if p.var not in vmap:
            raise InvalidInstance(f"path {p.id} names unknown variable {p.var}")
        if p.clause not in cmap:
            raise InvalidInstance(f"path {p.id} names unknown clause {p.clause}")
        route = (vmap[p.var].point,) + p.points + (cmap[p.clause].point,)
        for a, b in zip(route, route[1:]):
            if not _adjacent(a, b):
                raise InvalidInstance(f"path {p.id} jumps from {a} to {b}")
        for pt in p.points:
            if not inside(pt):
                raise InvalidInstance(f"path {p.id} leaves the grid at {pt}")
            if pt in terminals:
                raise DisjointnessViolation(
                    f"path {p.id} runs through terminal {terminals[pt]} at {pt}")
            if pt in seen:
                raise DisjointnessViolation(
                    f"paths {seen[pt]} and {p.id} share vertex {pt}")
            seen[pt] = p.id

    for c in inst.clauses:
        if len(set(c.paths)) != 3:
            raise ClauseArity(f"clause {c.id} lists {c.paths}")
        for pid in c.paths:
            if pid not in pmap:
                raise ClauseArity(f"clause {c.id} references unknown path {pid}")
            if pmap[pid].clause != c.id:
                raise ClauseArity(f"clause {c.id} lists path {pid} "
                                  f"which targets clause {pmap[pid].clause}")
    owned = {pid for c in inst.clauses for pid in c.paths}
    for p in inst.paths:
        if p.id not in owned:
            raise ClauseArity(f"path {p.id} is not referenced by its clause {p.clause}")
    # incoming edges must be distinct: last step direction per clause
    for c in inst.clauses:
        lasts = set()
        for pid in c.paths:
            p = pmap[pid]
            prev = p.points[-1] if p.points else vmap[p.var].point
            lasts.add(prev)
        if len(lasts) != 3:
            raise DisjointnessViolation(f"clause {c.id} has colliding final steps")


def format_grid3sat(inst: Grid3SatInstance) -> str:
    """Inverse of parse_grid3sat (modulo whitespace and comments)."""
    out = [f"{inst.n} {len(inst.variables)} {len(inst.clauses)} {len(inst.paths)}"]
    for v in inst.variables:
        out.append(f"V {v.id} {v.point[0]} {v.point[1]}")
    for c in inst.clauses:
        out.append(f"C {c.id} {c.point[0]} {c.point[1]} " + " ".join(map(str, c.paths)))
    for p in inst.paths:
        sign = "+" if p.sign > 0 else "-"
        coords = " ".join(f"{x} {y}" for x, y in p.points)
        tail = f" {coords}" if p.points else ""
        out.append(f"P {p.id} {p.var} {p.clause} {sign} {len(p.points)}{tail}")
    return "\n".join(out) + "\n"


def evaluate(inst: Grid3SatInstance, assignment) -> bool:
    """True when every clause has a path whose literal is satisfied."""
    pmap = {p.id: p for p in inst.paths}
    for c in inst.clauses:
        ok = False
        for pid in c.paths:
            p = pmap[pid]
            val = assignment[p.var]
            ok = ok or (val if p.sign > 0 else not val)
        if not ok:
            return False
    return True


def brute_force_sat(inst: Grid3SatInstance):
    """First satisfying assignment in lexicographic order, or None.
    Exponential in the variable count; meant for small instances."""
    vids = sorted(v.id for v in inst.variables)
    for bits in iproduct((False, True), repeat=len(vids)):
        assignment = dict(zip(vids, bits))
        if evaluate(inst, assignment):
            return assignment
    return None
