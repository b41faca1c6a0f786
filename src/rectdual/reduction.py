"""Hardness-gadget synthesis: grid3sat instances to rectangular partitions.

The gadgets have one fixed geometry, the one whose joint law the solver
confirms: every grid point becomes a square block of side 32, thin
rectangles are at least 4 cells long and clause arms exactly 4.  A
variable becomes a clockwise ring of four thin rectangles; the truth
value is which half of its rectangle each ring vertex occupies (head
cells = front = True).  A path becomes a chain of thin rectangles, every
consecutive pair meeting in an L-joint: a stub attached to the ring's
head corner (positive sign) or tail corner (negative sign), a short
zigzag out of the block, then one long rectangle per straight run of
the path, turning inside blocks.  The measured joint law drives the
whole reduction: an upstream vertex in its back window forces the
downstream vertex into its back window, while a front upstream leaves
the downstream free.  A clause becomes a 6x6 square with three thin
arms whose placement was found by exhaustive search: with all three arm
vertices pinned to their back windows the square's vertex cannot be
placed, with any arm on its head pixel it can.  All remaining cells are
unit pixels; a pixel's vertex is pinned at its center by the
half-integral model itself, which keeps every local law exact under
composition in that model.  These laws are half-integral: a drawing with
finer rational coordinates may break them.

The gadget map is also the contact law: two gadget boxes may touch
(their closed boxes meet) only if they are consecutive ring rectangles,
consecutive boxes of a path, a path's stub and the ring rectangle it
leaves through (or the next one, for a positive path), or two boxes of
one clause core.  check_gadget_map enforces it on the finished partition.
Box ids follow reduce's sorted canvas tags: the ring rectangles, the
clause cores, the path chains, then the unit pixels.
The router keeps a lane's reception legs off every foreign tag, and only
check_gadget_map keeps a lane off its own arm.
"""

import dataclasses
from dataclasses import dataclass
from itertools import combinations, count, permutations, takewhile
import json

from .boxes import IntBox, _check_grid, pixel_fill
from .embedding import Projection
from .grid3sat import Grid3SatInstance
from .solver import SAT, solve

__all__ = [
    "RoutingFailure",
    "InconsistentCycle",
    "UnsatisfiedClause",
    "MalformedAssignment",
    "CycleRect",
    "VariableGadget",
    "PathGadget",
    "ClauseGadget",
    "GadgetMap",
    "reduce",
    "assignment_from_projection",
    "projection_from_assignment",
    "check_gadget_map",
    "gadget_map_to_json",
    "gadget_map_from_json",
]


class RoutingFailure(RuntimeError):
    """Gadget placement failed; guards construction bugs."""


class InconsistentCycle(ValueError):
    """A variable ring mixes front and back halves; not an embedding."""


class UnsatisfiedClause(ValueError):
    def __init__(self, clause):
        super().__init__(f"assignment leaves clause {clause} unsatisfied")
        self.clause = clause


class MalformedAssignment(ValueError):
    """An assignment that is not one bool for each variable of the map."""


# ---------------------------------------------------------------- geometry

_THIN = 4     # least length of a thin rectangle
_ARM = 4      # length of a clause arm
_BLOCK = 32   # side of the block each grid point becomes

_VEC = {"E": (1, 0), "N": (0, 1), "W": (-1, 0), "S": (0, -1)}
_OPP = {"E": "W", "W": "E", "N": "S", "S": "N"}
_PERP = {"E": ("N", "S"), "W": ("N", "S"), "N": ("E", "W"), "S": ("E", "W")}
_LETTER = {v: k for k, v in _VEC.items()}

# ring of four thin rectangles, block-local, clockwise:
# N heads E, E heads S, S heads W, W heads N
_RING = (
    (((12, 20), (20, 21)), "E"),
    (((20, 13), (21, 21)), "S"),
    (((13, 12), (21, 13)), "W"),
    (((12, 12), (13, 20)), "N"),
)
_RING_INDEX = {"N": 0, "E": 1, "S": 2, "W": 3}

# stub anchor (the fixed cross coordinate) per exit side and sign;
# + attaches at the ring rect's head corner, - at its tail corner
_STUB_SPOT = {
    ("N", 1): 19, ("N", -1): 12,
    ("E", 1): 13, ("E", -1): 20,
    ("S", 1): 13, ("S", -1): 20,
    ("W", 1): 19, ("W", -1): 12,
}
# first corridor turn direction per lane (picked for mutual clearance)
_CORR1_HEAD = {
    ("N", 1): "E", ("N", -1): "W",
    ("E", 1): "S", ("E", -1): "N",
    ("S", 1): "E", ("S", -1): "W",
    ("W", 1): "N", ("W", -1): "S",
}

# canonical cross offset after any transit turn; clear of every clause
# arm line and every exit channel by at least two cells
_TRANSIT_OFF = 25

# clause core, block-local: 6x6 square; arms keyed by (head cell
# touching the square, outward growth direction); one helper strip
_R0 = ((13, 13), (19, 19))
_ARM_SEEDS = (((19, 19), "N"), ((12, 12), "S"), ((19, 15), "E"))
_M_TAIL = (13, 12)  # helper grows east from here

# a cell's 3x3 neighbourhood, read by _route
_HALO = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1))


def _step(cell, h, m=1):
    v = _VEC[h]
    return (cell[0] + v[0] * m, cell[1] + v[1] * m)


def _span(a, b):
    lo = (min(a[0], b[0]), min(a[1], b[1]))
    hi = (max(a[0], b[0]) + 1, max(a[1], b[1]) + 1)
    return (lo, hi)


def _cells(rect):
    (x0, y0), (x1, y1) = rect
    for x in range(x0, x1):
        for y in range(y0, y1):
            yield (x, y)


def _length(rect, h):
    (x0, y0), (x1, y1) = rect
    return x1 - x0 if h in ("E", "W") else y1 - y0


def _head_cell(rect, h):
    (x0, y0), (x1, y1) = rect
    return {"E": (x1 - 1, y0), "W": (x0, y0),
            "N": (x0, y1 - 1), "S": (x0, y0)}[h]


def _tail_cell(rect, h):
    return _head_cell(rect, _OPP[h])


def _off_point2(rect, h, k):
    # doubled point at head offset k; 1 = head cell center
    (x0, y0), (x1, y1) = rect
    if h == "E":
        return (2 * x1 - k, y0 + y1)
    if h == "W":
        return (2 * x0 + k, y0 + y1)
    if h == "N":
        return (x0 + x1, 2 * y1 - k)
    return (x0 + x1, 2 * y0 + k)


# ---------------------------------------------------------------- gadget map


@dataclass(frozen=True)
class CycleRect:
    box: int
    heading: str
    front2: tuple
    back2: tuple


@dataclass(frozen=True)
class VariableGadget:
    var: int
    point: tuple
    cycle: tuple  # four CycleRect in ring order N, E, S, W


@dataclass(frozen=True)
class PathGadget:
    path: int
    var: int
    clause: int
    sign: int
    boxes: tuple     # stub, corridor rectangles, final arm
    headings: tuple


@dataclass(frozen=True)
class ClauseGadget:
    clause: int
    point: tuple
    square: int
    arms: tuple          # three box ids, site order
    arm_headings: tuple  # heading of each arm (toward the square)
    arm_paths: tuple     # path id each arm receives
    helpers: tuple


@dataclass(frozen=True)
class GadgetMap:
    """Where reduce put each gadget: box ids of the variable rings, the
    path chains and the clause cores.  Its laws (front or back ring
    halves, the joint law along a path, the clause law) are those of
    half-integral drawings, the ones the solver searches."""
    scale: int
    variables: tuple
    paths: tuple
    clauses: tuple


def gadget_map_to_json(gmap: GadgetMap) -> str:
    return json.dumps(dataclasses.asdict(gmap), indent=1, sort_keys=True)


# fields that hold nested gadgets, by the class of their items
_NESTED = {"variables": VariableGadget, "cycle": CycleRect,
           "paths": PathGadget, "clauses": ClauseGadget}


def _rebuild(cls, doc):
    """cls from its asdict() form: nested gadgets rebuilt, lists turned
    back into tuples; keys that name no field (a legacy "profile") are
    ignored. A doc that is not a dict, lacks a field or holds something
    other than a list of nested gadgets raises ValueError."""
    name = cls.__name__
    if not isinstance(doc, dict):
        raise ValueError(f"{name} must be a dict, got {type(doc).__name__}")
    kw = {}
    for f in dataclasses.fields(cls):
        if f.name not in doc:
            raise ValueError(f"{name} has no {f.name!r} field")
        v = doc[f.name]
        if f.name in _NESTED:
            if not isinstance(v, list):
                raise ValueError(f"{name}.{f.name} must be a list, got "
                                 f"{type(v).__name__}")
            kw[f.name] = tuple(_rebuild(_NESTED[f.name], d) for d in v)
        else:
            kw[f.name] = tuple(v) if isinstance(v, list) else v
    return cls(**kw)


def gadget_map_from_json(text: str) -> GadgetMap:
    """The GadgetMap gadget_map_to_json wrote; malformed JSON or a
    document of the wrong shape raises ValueError."""
    return _rebuild(GadgetMap, json.loads(text))


# ---------------------------------------------------------------- builder


class _Canvas:
    """Cell claims with tags, and the rectangle each tag has claimed."""

    def __init__(self, n):
        self.n = n
        self.occ = {}       # cell -> tag
        self.rects = {}     # tag -> (rect, heading or None)

    def copy(self):
        """A trial canvas: claims on it leave this one as it is."""
        trial = _Canvas(self.n)
        trial.occ, trial.rects = dict(self.occ), dict(self.rects)
        return trial

    def claim(self, rect, heading, tag):
        """Claim the rect's cells for tag, growing the tag's rectangle;
        leaving the frame or overlapping another tag raises."""
        (x0, y0), (x1, y1) = rect
        if x0 < 0 or y0 < 0 or x1 > self.n or y1 > self.n:
            raise RoutingFailure(f"{tag}: rect {rect} leaves the frame")
        cells = list(_cells(rect))
        for c in cells:
            prev = self.occ.get(c)
            if prev is not None and prev != tag:
                raise RoutingFailure(f"{tag} overlaps {prev} at {c}")
        for c in cells:
            self.occ[c] = tag
        if tag in self.rects:
            old, h = self.rects[tag]
            self.rects[tag] = (_span(
                (min(old[0][0], rect[0][0]), min(old[0][1], rect[0][1])),
                (max(old[1][0], rect[1][0]) - 1,
                 max(old[1][1], rect[1][1]) - 1)), heading or h)
        else:
            self.rects[tag] = (rect, heading)


def _clause_core(base):
    """Clause square, arms and helper in global cells."""

    def shift(c):
        return (base[0] + c[0], base[1] + c[1])

    sq = (shift(_R0[0]), shift(_R0[1]))
    arms = []
    for head, out in _ARM_SEEDS:
        h0 = shift(head)
        tail = _step(h0, out, _ARM - 1)
        arms.append((_span(h0, tail), out, _OPP[out], tail))
    m0 = shift(_M_TAIL)
    helper = _span(m0, _step(m0, "E", _THIN - 1))
    return sq, arms, helper


def _slice(i, di, count):
    """The slice over count flat indices from i in steps of di."""
    if di < 0:
        i, di = i + di * (count - 1), -di
    return slice(i, i + di * (count - 1) + 1, di)


def _route(canvas, region, h_in, face, target, own_tag, arm_tag):
    """Find reception legs from an entering corridor to a clause arm.

    region: the block coordinates the legs may use.  target: (arm tail
    cell, allowed final headings).  Returns a list of
    (tail, head, heading) legs; the first starts at the block face and
    continues the open corridor rectangle.  The legs keep off every
    foreign tag, that is every tag but the corridor rectangle they
    continue and the arm they reach, and they may lie next to both.
    Whether they touch where the contact law forbids it, their own arm
    included, is checked on the finished partition by check_gadget_map.

    The search is depth first with at most four bends.  A node first
    tries its final leg, which exists when its heading is a final heading
    and the arm's head lies ahead on its line.  Then it grows its run
    cell by cell, and at each bend it turns toward the arm tail first.
    The first legs found in this order are returned.

    seen holds the (bend, heading) pairs tried, whatever the bends left
    at them.  Each pair is expanded at most once per call, which bounds
    the work by the region's cells.  The search is incomplete: a pair
    first reached with few bends left is not tried again with more.
    reduce's output comes from exactly this order and this seen set,
    and the tests pin it byte for byte.

    A node with one bend left is settled in bulk, without a call per
    bend.  Its children can only try their final leg.  A final leg
    turning off the run lies on the arm tail's cross line, so only the
    one bend on that line can succeed, and its two turns are tried in
    turn order.  On failure the node marks every bend of its run as tried
    for both turns, by slice assignment.

    Cells are flat indices into the region's bounding box, padded by a
    blocked one-cell border that stops every run.  The canvas does not
    change during the search, so each cell's free/blocked state is read
    from it at most once, when first needed.  A free cell is unclaimed,
    in the region and next to no foreign tag."""
    T, finals = target
    bx = [b[0] for b in region]
    by = [b[1] for b in region]
    x0, y0 = min(bx) * _BLOCK - 1, min(by) * _BLOCK - 1
    col = (max(by) + 1) * _BLOCK + 1 - y0   # cells per column
    size = ((max(bx) + 1) * _BLOCK + 1 - x0) * col
    step = {"E": col, "W": -col, "N": 1, "S": -1}
    # 0 unread, 1 free, 2 blocked; cells outside the region are blocked
    # from the start
    state = bytearray(b"\x02") * size
    for qx, qy in region:
        corner = (qx * _BLOCK - x0) * col + qy * _BLOCK - y0
        for i in range(corner, corner + _BLOCK * col, col):
            state[i:i + _BLOCK] = bytes(_BLOCK)
    mine = bytearray(size)  # the cells of the legs laid so far
    seen = {h: bytearray(size) for h in _VEC}  # bends tried, per heading
    occ = canvas.occ
    legs = []

    def at(c):
        return (c[0] - x0) * col + c[1] - y0

    def read(i):
        x, y = divmod(i, col)
        x += x0
        y += y0
        f = 1
        if (x, y) in occ:
            f = 2
        else:
            for dx, dy in _HALO:
                t = occ.get((x + dx, y + dy))
                if t is not None and t != own_tag and t != arm_tag:
                    f = 2
                    break
        state[i] = f
        return f

    def final(tail, h, first):
        """The final leg from tail on heading h, or None."""
        if h not in finals:
            return None
        vx, vy = _VEC[h]
        head = (T[0] - vx, T[1] - vy)
        dx, dy = head[0] - tail[0], head[1] - tail[1]
        d = dx * vx + dy * vy
        if dx * vy != dy * vx or d < 0 or d + 1 < _THIN and not first:
            return None
        i, di = at(tail), step[h]
        for i in range(i, i + (d + 1) * di, di):
            if (state[i] or read(i)) != 1 or mine[i]:
                return None
        return (tail, head, h)

    def turns(tail, h):
        # greedy: turn toward the arm tail first
        a, b = _PERP[h]
        ux, uy = _VEC[a]
        if (T[0] - tail[0]) * ux + (T[1] - tail[1]) * uy < 0:
            return b, a
        return a, b

    def settle(tail, h, first):
        """A node with one bend left, whose children are leaves."""
        vx, vy = _VEC[h]
        i0, di = at(tail), step[h]
        i, run = i0, 0
        while (state[i] or read(i)) == 1 and not mine[i]:
            run += 1
            i += di
        lo = 1 if first else _THIN
        if run < lo:
            return None
        perp = turns(tail, h)
        # a final leg turning off the run heads along the arm tail's
        # cross line, so both turns can end only at the bend on it
        m = (T[0] - tail[0]) * vx + (T[1] - tail[1]) * vy
        if lo <= m <= run:
            bend = (tail[0] + vx * m, tail[1] + vy * m)
            for h2 in perp:
                if not seen[h2][i0 + m * di]:
                    leg = final(bend, h2, False)
                    if leg:
                        return legs + [(tail, (bend[0] - vx, bend[1] - vy),
                                        h), leg]
        tried = _slice(i0 + lo * di, di, run - lo + 1)
        for h2 in perp:
            seen[h2][tried] = b"\x01" * (run - lo + 1)
        return None

    def dfs(tail, h, bends, first):
        """legs holds the legs laid before this node; the cells its run
        marks in mine are cleared again before it returns."""
        leg = final(tail, h, first)
        if leg:
            return legs + [leg]
        if bends == 1:
            return settle(tail, h, first)
        perp = turns(tail, h)
        vx, vy = _VEC[h]
        i0, di = at(tail), step[h]
        lo = 1 if first else _THIN
        i, m = i0, 0
        x, y = tail
        try:
            while (state[i] or read(i)) == 1 and not mine[i]:
                mine[i] = 1
                m += 1
                i += di
                x += vx
                y += vy
                if m < lo:
                    continue
                for h2 in perp:
                    tried = seen[h2]
                    if tried[i]:
                        continue
                    tried[i] = 1
                    legs.append((tail, (x - vx, y - vy), h))
                    got = dfs((x, y), h2, bends - 1, False)
                    legs.pop()
                    if got:
                        return got
            return None
        finally:
            if m:
                mine[_slice(i0, di, m)] = bytes(m)

    return dfs(face, h_in, 4, True)


def _exit_zigzag(base, side, sign):
    """Stub and first turn of a lane.  Returns (stub rect, corr1 rect,
    corr1 heading, bend2 cell) in global cells."""
    spot = _STUB_SPOT[(side, sign)]
    # the first cell outside the ring; the stub runs _THIN cells on
    x, y = {"N": (spot, 21), "S": (spot, 11),
            "E": (21, spot), "W": (11, spot)}[side]
    first = (base[0] + x, base[1] + y)
    stub = _span(first, _step(first, side, _THIN - 1))
    bend1 = _step(first, side, _THIN)
    h1 = _CORR1_HEAD[(side, sign)]
    corr1 = _span(bend1, _step(bend1, h1, _THIN - 1))
    bend2 = _step(bend1, h1, _THIN)
    return stub, corr1, h1, bend2


# a canvas tag is (kind, gadget id, slot), and the tags sort in box id
# order: ring rects by variable, clause cores by clause (square 0, arms
# 1-3, helper 4), path chains by path in flow order
_RING_TAG, _CORE_TAG, _CHAIN_TAG = 0, 1, 2


def reduce(inst: Grid3SatInstance):
    """Build the gadget partition for a grid3sat instance.

    Returns (partition, gadget map).  The gadgets have the module's one
    geometry (blocks of side 32, thin rectangles at least 4 long, clause
    arms exactly 4), whose laws hold for half-integral drawings, the
    ones the solver searches.  Raises
    boxes.GridTooLarge before routing anything when the owner grid of
    the canvas, its (32(n + 1))^2 cells, exceeds the cell limit, since
    every free cell becomes a pixel box."""
    n = _BLOCK * (inst.n + 1)
    _check_grid(2, n)
    canvas = _Canvas(n)
    variables = sorted(inst.variables, key=lambda v: v.id)
    paths = sorted(inst.paths, key=lambda p: p.id)
    clauses = sorted(inst.clauses, key=lambda c: c.id)

    def block(pt):
        return (pt[0] * _BLOCK, pt[1] * _BLOCK)

    # variable rings
    for v in variables:
        base = block(v.point)
        for i, (rect, h) in enumerate(_RING):
            g = ((base[0] + rect[0][0], base[1] + rect[0][1]),
                 (base[0] + rect[1][0], base[1] + rect[1][1]))
            canvas.claim(g, h, (_RING_TAG, v.id, i))

    # path chains: stub, first corridor turn, straight runs between turns
    open_slot = {}         # pid -> slot of the leg open up to the face
    entries = {}           # cid -> list of (pid, face, heading)
    vmap = {v.id: v for v in inst.variables}
    cmap = {c.id: c for c in inst.clauses}
    for p in paths:
        route = (vmap[p.var].point,) + p.points + (cmap[p.clause].point,)
        dirs = [_LETTER[(b[0] - a[0], b[1] - a[1])]
                for a, b in zip(route, route[1:])]
        side = dirs[0]
        base = block(vmap[p.var].point)
        stub, corr1, h1, bend2 = _exit_zigzag(base, side, p.sign)
        canvas.claim(stub, side, (_CHAIN_TAG, p.id, 0))
        canvas.claim(corr1, h1, (_CHAIN_TAG, p.id, 1))
        slot = 2
        tail, h = bend2, side
        for i in range(1, len(dirs)):
            if dirs[i] == dirs[i - 1]:
                continue
            b = block(route[i])
            axis = 0 if h in ("E", "W") else 1
            bend = [0, 0]
            bend[axis] = b[axis] + _TRANSIT_OFF
            bend[1 - axis] = tail[1 - axis]
            bend = tuple(bend)
            leg = _span(tail, _step(bend, h, -1))
            if _length(leg, h) < _THIN:
                raise RoutingFailure(f"path {p.id}: transit leg too short")
            canvas.claim(leg, h, (_CHAIN_TAG, p.id, slot))
            slot += 1
            tail, h = bend, dirs[i]
        # open leg up to the clause block's face
        cbase = block(cmap[p.clause].point)
        axis = 0 if h in ("E", "W") else 1
        face = [0, 0]
        face[1 - axis] = tail[1 - axis]
        face[axis] = cbase[axis] if _VEC[h][axis] > 0 \
            else cbase[axis] + _BLOCK - 1
        face = tuple(face)
        outside = _span(tail, _step(face, h, -1))
        canvas.claim(outside, h, (_CHAIN_TAG, p.id, slot))
        open_slot[p.id] = slot
        entries.setdefault(p.clause, []).append((p.id, face, h))

    # interior grid points free of terminals and path vertices may host
    # reception detours
    used_pts = {v.point for v in inst.variables}
    used_pts |= {c.point for c in inst.clauses}
    for p in inst.paths:
        used_pts.update(p.points)

    arm_slot = {}          # pid -> core slot of the arm its lane reached
    for c in clauses:
        base = block(c.point)
        ent = sorted(entries[c.id], key=lambda e: c.paths.index(e[0]))
        blocks = {c.point}
        for d in _VEC.values():
            q = (c.point[0] + d[0], c.point[1] + d[1])
            if 0 <= q[0] <= inst.n and 0 <= q[1] <= inst.n \
                    and q not in used_pts:
                blocks.add(q)
        sq, arms, helper = _clause_core(base)
        core = [(sq, None, 0), (helper, "E", 4)] + \
               [(arms[k][0], arms[k][2], 1 + k) for k in range(3)]
        for rect, h, slot in core:
            canvas.claim(rect, h, (_CORE_TAG, c.id, slot))
        # an arm growing out toward the side a lane enters from is
        # preferred for that lane
        perms = sorted(
            permutations(range(3)),
            key=lambda pm: (-sum(arms[pm[i]][1] == _OPP[ent[i][2]]
                                 for i in range(3)), pm))
        for pm in perms:
            # route and claim on a trial canvas, kept only on success
            trial = canvas.copy()
            for (pid, face, h_in), k in zip(ent, pm):
                _, out, _, arm_tail = arms[k]
                d_in = _VEC[_OPP[h_in]]
                own = (c.point[0] + d_in[0], c.point[1] + d_in[1])
                slot = open_slot[pid]
                legs = _route(trial, blocks | {own}, h_in, face,
                              (arm_tail, _PERP[out]), (_CHAIN_TAG, pid, slot),
                              (_CORE_TAG, c.id, 1 + k))
                if not legs:
                    break
                # the first leg extends the open corridor rectangle
                for j, (lt, lh, lhead) in enumerate(legs, slot):
                    trial.claim(_span(lt, lh), lhead, (_CHAIN_TAG, pid, j))
                arm_slot[pid] = 1 + k
            else:
                canvas = trial  # every entry reached its arm
                break
        else:
            raise RoutingFailure(f"clause {c.id}: no reception layout found")

    tags = sorted(canvas.rects)
    ids = {tag: i for i, tag in enumerate(tags)}
    p_out = pixel_fill([IntBox(*canvas.rects[tag][0]) for tag in tags], n)

    gvars = []
    for v in variables:
        cyc = []
        for tag in [(_RING_TAG, v.id, i) for i in range(4)]:
            rect, h = canvas.rects[tag]
            back = 2 * _length(rect, h) - 1
            cyc.append(CycleRect(ids[tag], h, _off_point2(rect, h, 1),
                                 _off_point2(rect, h, back)))
        gvars.append(VariableGadget(v.id, v.point, tuple(cyc)))
    gpaths = []
    for p in paths:
        chain = list(takewhile(canvas.rects.__contains__,
                               ((_CHAIN_TAG, p.id, j) for j in count())))
        chain.append((_CORE_TAG, p.clause, arm_slot[p.id]))
        gpaths.append(PathGadget(
            p.id, p.var, p.clause, p.sign, tuple(ids[t] for t in chain),
            tuple(canvas.rects[t][1] for t in chain)))
    gclauses = []
    for c in clauses:
        sq, *arms, helper = [(_CORE_TAG, c.id, slot) for slot in range(5)]
        gclauses.append(ClauseGadget(
            c.id, c.point, ids[sq], tuple(ids[t] for t in arms),
            tuple(canvas.rects[t][1] for t in arms),
            tuple(sorted(c.paths, key=arm_slot.__getitem__)), (ids[helper],)))
    gmap = GadgetMap(_BLOCK, tuple(gvars), tuple(gpaths), tuple(gclauses))
    check_gadget_map(p_out, gmap)
    return p_out, gmap


# ----------------------------------------------------- map sanity checking


def _as_rect(box):
    return (tuple(box.lo), tuple(box.hi))


def _thin(box, h) -> bool:
    """Whether the box is one cell wide and at least _THIN long along h."""
    return min(box.sides()) == 1 and _length(_as_rect(box), h) >= _THIN


def _planned_contacts(gmap: GadgetMap) -> dict:
    """Box id -> the box ids the map plans it to touch (the module's
    contact law); a path's arm is its last box."""
    rings = {v.var: [c.box for c in v.cycle] for v in gmap.variables}
    pairs = []
    for ring in rings.values():
        pairs += zip(ring, ring[1:] + ring[:1])
    for pg in gmap.paths:
        if pg.var not in rings:
            raise ValueError(f"path {pg.path}: unknown variable {pg.var}")
        pairs += zip(pg.boxes, pg.boxes[1:])
        ring, k = rings[pg.var], _RING_INDEX[pg.headings[0]]
        pairs.append((pg.boxes[0], ring[k]))
        if pg.sign > 0:
            pairs.append((pg.boxes[0], ring[(k + 1) % 4]))
    for cg in gmap.clauses:
        pairs += combinations((cg.square,) + cg.arms + cg.helpers, 2)
    plan = {}
    for a, b in pairs:
        plan.setdefault(a, set()).add(b)
        plan.setdefault(b, set()).add(a)
    return plan


def check_gadget_map(p, gmap: GadgetMap):
    """Geometric invariants: mapped ids exist, chains are L-joint chains
    of thin rectangles with the bulge pixel present, a clause has three
    arms, each with one side and one path, of the exact fixed length.
    Then the contact law: every box but a unit pixel is mapped, and two
    mapped boxes touch only if consecutive in a ring or a path, a stub
    and its ring rectangle (or the next one, for a positive path), or in
    one clause core."""
    nboxes = len(p.boxes)

    def box_of(i):
        if not 0 <= i < nboxes:
            raise ValueError(f"box id {i} out of range")
        return p.boxes[i]

    for v in gmap.variables:
        if len(v.cycle) != 4:
            raise ValueError(f"variable {v.var}: ring is not four rects")
        for c in v.cycle:
            box = box_of(c.box)
            if not _thin(box, c.heading):
                raise ValueError(f"variable {v.var}: ring rect not thin")
            rect = _as_rect(box)
            if c.front2 != _off_point2(rect, c.heading, 1):
                raise ValueError(f"variable {v.var}: bad front marker")
            L = _length(rect, c.heading)
            if c.back2 != _off_point2(rect, c.heading, 2 * L - 1):
                raise ValueError(f"variable {v.var}: bad back marker")
    for pg in gmap.paths:
        if not pg.boxes or len(pg.headings) != len(pg.boxes) \
                or not set(pg.headings) <= set(_VEC):
            raise ValueError(f"path {pg.path}: not one side per box")
        boxes = [box_of(b) for b in pg.boxes]
        for box, h in zip(boxes, pg.headings):
            if not _thin(box, h):
                raise ValueError(f"path {pg.path}: rect not thin enough")
        rects = [_as_rect(box) for box in boxes]
        for (ra, ha), (rb, hb) in zip(zip(rects, pg.headings),
                                      zip(rects[1:], pg.headings[1:])):
            if hb in (ha, _OPP[ha]):
                raise ValueError(f"path {pg.path}: consecutive rects "
                                 "do not turn")
            if _tail_cell(rb, hb) != _step(_head_cell(ra, ha), ha):
                raise ValueError(f"path {pg.path}: rects not L-joined")
            bulge = _step(_head_cell(ra, ha), hb)
            owner = p.owner_of(bulge)
            if owner < 0 or not p.boxes[owner].is_pixel():
                raise ValueError(f"path {pg.path}: missing bulge pixel "
                                 f"at {bulge}")
    for cg in gmap.clauses:
        if not len(cg.arms) == len(cg.arm_headings) == len(cg.arm_paths) == 3 \
                or not set(cg.arm_headings) <= set(_VEC):
            raise ValueError(f"clause {cg.clause}: not three arms with one "
                             "side and one path each")
        sq = box_of(cg.square)
        if sq.sides() != (6, 6):
            raise ValueError(f"clause {cg.clause}: square is {sq.sides()}")
        for b, h in zip(cg.arms, cg.arm_headings):
            rect = _as_rect(box_of(b))
            if _length(rect, h) != _ARM:
                raise ValueError(f"clause {cg.clause}: arm length off")
            hx, hy = _head_cell(rect, h)
            if not any(p.owner_of((hx + dx, hy + dy)) == cg.square
                       for dx in (-1, 0, 1) for dy in (-1, 0, 1)):
                raise ValueError(f"clause {cg.clause}: arm does not end "
                                 "at the square")

    plan = _planned_contacts(gmap)
    for i, b in enumerate(p.boxes):
        if not b.is_pixel() and i not in plan:
            raise ValueError(f"box {i} is neither a pixel nor mapped")
    # closed boxes meet exactly when a cell of one is among the eight
    # neighbours of a cell of the other
    for i in sorted(plan):
        (x0, y0), (x1, y1) = _as_rect(box_of(i))
        for x in range(x0 - 1, x1 + 1):
            for y in range(y0 - 1, y1 + 1):
                j = p.owner_of((x, y))
                if j != i and j in plan and j not in plan[i]:
                    raise ValueError(f"boxes {min(i, j)} and {max(i, j)} "
                                     "touch unplanned")
    return True


# ------------------------------------------------- assignment <-> projection


def assignment_from_projection(proj: Projection, gmap: GadgetMap) -> dict:
    """Read each ring's half; front = True.  Raises ValueError unless
    each ring box has a point of two ints on the segment from its front2
    to its back2, where all its half-integral points lie, and
    InconsistentCycle on a ring that mixes halves or sits dead center."""
    pts = proj.points2
    out = {}
    for v in gmap.variables:
        halves = set()
        for c in v.cycle:
            axis = 0 if c.front2[0] != c.back2[0] else 1
            pt = pts[c.box] if c.box in range(len(pts)) else ()
            a, b = sorted((c.front2[axis], c.back2[axis]))
            if (list(map(type, pt)) != [int, int] or not a <= pt[axis] <= b
                    or pt[1 - axis] != c.front2[1 - axis]):
                raise ValueError(f"variable {v.var}: box {c.box} has no "
                                 "point of two ints on its ring segment")
            off = 1 + abs(pt[axis] - c.front2[axis])
            L = (abs(c.front2[axis] - c.back2[axis]) + 2) // 2
            if off == L:
                raise InconsistentCycle(f"variable {v.var}: ring vertex "
                                        "at dead center")
            halves.add(off < L)
        if len(halves) != 1:
            raise InconsistentCycle(f"variable {v.var}: ring mixes halves")
        out[v.var] = halves.pop()
    return out


def projection_from_assignment(assignment, p, gmap: GadgetMap) -> Projection:
    """Pin gadget boxes to the windows the assignment dictates and let
    constraint search settle the clause squares; the result is verified.
    Raises MalformedAssignment unless the assignment maps exactly the
    map's variables, each to a bool."""
    vids = {v.var for v in gmap.variables}
    if set(assignment) != vids:
        raise MalformedAssignment(
            f"assignment names variables {sorted(assignment)}, "
            f"the map {sorted(vids)}")
    for var, val in assignment.items():
        if type(val) is not bool:
            raise MalformedAssignment(f"variable {var}: {val!r} is not a bool")
    lit = {}
    for pg in gmap.paths:
        val = assignment[pg.var]
        lit[pg.path] = val if pg.sign > 0 else not val
    for cg in gmap.clauses:
        if not any(lit[pid] for pid in cg.arm_paths):
            raise UnsatisfiedClause(cg.clause)

    pins = {}

    def window(box, h, back):
        rect = _as_rect(box)
        L = _length(rect, h)
        offs = range(2 * L - 3, 2 * L) if back else (1,)
        return [_off_point2(rect, h, k) for k in offs]

    for v in gmap.variables:
        front = assignment[v.var]
        for c in v.cycle:
            pins[c.box] = window(p.boxes[c.box], c.heading, not front)
    for pg in gmap.paths:
        true_lane = lit[pg.path]
        for j, (b, h) in enumerate(zip(pg.boxes, pg.headings)):
            if true_lane:
                pins[b] = window(p.boxes[b], h, False)
            elif j == 0:
                rect = _as_rect(p.boxes[b])
                L = _length(rect, h)
                pins[b] = [_off_point2(rect, h, 2 * L - 1)]
            else:
                pins[b] = window(p.boxes[b], h, True)
    res = solve(p, pins=pins)
    if res.status != SAT:
        raise RoutingFailure("pinned completion failed; gadget bug")
    return res.projection
