"""Exact search for faithful half-integral embeddings.

Each box contributes a finite domain: the half-integral points strictly
inside it, prod(2 l_i - 1) many for side lengths l_i. Every top simplex of
the dual complex is a constraint requiring the seed's orientation sign.
The solver runs generalized arc consistency over the constraints whose
scope still has undecided boxes, and branches by bisecting the
lexicographically sorted domain of an undecided box chosen by dom/wdeg
(below). UNSAT is reported only on exhaustion, so it proves that no
half-integral drawing exists; a drawing with finer rational coordinates
may still exist.

A unit box has one half-integral point, its center, which is also the
center of the seed-chain pixel inside it. One-box lemma: a top simplex
with at most one box larger than a pixel keeps its seed sign wherever
that box's point lies inside the box. Let its seed chain be the pixels
u_0, ..., u_d at grid vertex w with axis order pi, and let B_i, the box
holding u_i, be the only box that may be larger. The other d pixel
centers lie on one hyperplane: x_pi(1) = w_pi(1) + 1/2 when i = 0,
x_pi(d) = w_pi(d) - 1/2 when i = d, and x_pi(i) - w_pi(i) =
x_pi(i+1) - w_pi(i+1) otherwise. B_i holds neither chain neighbour of
u_i, u_i - e_pi(i) and u_i + e_pi(i+1), so its interior lies on the
open side of that hyperplane where u_i's center lies (x_pi(1) < w_pi(1),
x_pi(d) > w_pi(d), or x_pi(i) > w_pi(i) and x_pi(i+1) < w_pi(i+1)), and
the orientation, affine in B_i's point, keeps its sign. A simplex of
unit boxes only is the case where B_i is a pixel too
(test_unit_simplices_orient_as_their_seeds checks both cases).

The constraints of the search are therefore the top simplices with two
or more boxes larger than a pixel, and the setup, the constraint root,
finds them without the walk over the whole grid. The one chain of such a
simplex (dual's module docstring) lies at a grid vertex w in the closure
of both larger boxes. Their interiors are disjoint, so some axis k
separates them, hi_k of one <= lo_k of the other, and w_k, bounded by
both, equals that lo_k: w lies on a lower face of a box larger than a
pixel, and is interior. The root walks only the interior vertices
of those faces, in lexicographic order (boxes.vertex_owners), so it
reads the one chain the full walk reads, and each constraint keeps the
seed, ordered ids, sign and place in the order that the full walk
gives it; the root makes no orientation call. Domains
are listed only for the boxes larger than a pixel and for the pixels
that some constraint names; every other box's point is its center,
filled into each solution. On a reduced grid-3SAT partition, where
almost every box is a pixel, the root and every search node then cost
what the gadget boxes cost, not what the pixels do.

The root is built once per partition, unpinned, the first time a solve
reaches it, and kept on the partition (Partition._solver_root) for every
later solve and enumeration. A solve copies the root's domains and
intersects the pinned ones; a pin that empties a domain, or a pin on an
unlisted pixel that leaves out its center, is a root failure. A domain
is the tuple box_domain returns or a filtered copy of it, rebound but
never changed in place. If the root has no constraint, the partition
may still have no top simplex at all, and only then is build_dual read,
to raise Unsupported.

Branching is dom/wdeg (Boussemart, Hemery, Lecoutre & Sais, "Boosting
systematic search by weighting constraints", ECAI 2004). Each
constraint has a weight that starts at 1 and rises by one each time its
revise wipes out a domain; the weights belong to one solve. wdeg of a
box is the sum of the weights of its constraints that still have
another undecided box. The branching box is the undecided box larger
than a pixel that minimizes |dom| / wdeg, compared by cross-multiplying,
with ties broken by the lower id; a box of wdeg 0 comes last.

revise, the inner loop of the search, tests each value of a box
against the product of the other domains of one constraint, in product
order, and keeps it at the first tuple with the required sign. It binds
the orientation kernel for the constraint's arity once per call
(dual._kernel: the closed form for d = 2, 3, 4), not once per tuple.

solve and enumerate_all share one routine, _drive: it reads the
constraint root, searches, stopping at the first solution unless every
one is wanted, and re-checks each solution as a certificate with
classify_projection against every top simplex of build_dual(p). Only a
solution runs that walk over the whole grid, so an UNSAT or TIMEOUT
answer never does, unless the root has no constraint. A solution the
re-check refuses raises CertificateRejected, with the re-check's
ValueError or classification as the reason. A pin on an id that is not
an int naming a box raises UnknownBox, a pinned value that is not a
point of d ints raises DimensionMismatch, and a partition whose domains
together would hold more than boxes._GRID_LIMIT points raises
DomainTooLarge, both before any domain is listed. A dimension whose d!
chains per vertex exceed that limit raises dual.TooManyChains before the
root reads a vertex. The search
honours SolverConfig.node_limit between nodes. SolverConfig.time_limit
fixes a deadline when solve or enumerate_all starts. It is read once per
vertex the root walks, between nodes, before each revise of the
arc-consistency loop and once per domain value inside it; build_dual,
when it runs, cannot be interrupted, and a deadline that passes while
the root is built leaves no root behind. Either limit ends the run with
TIMEOUT and the nodes and propagations counted so far.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import compress, product, starmap
from math import prod

from .boxes import _GRID_LIMIT, Partition, vertex_owners
from .dual import (DimensionMismatch, _kernel, _refuse_too_many_chains,
                   _seeds, build_dual)
from .embedding import Projection, classify_projection

__all__ = [
    "SAT", "TIMEOUT", "UNSAT", "CertificateRejected", "DomainTooLarge",
    "SolveResult", "SolverConfig", "UnknownBox", "Unsupported", "box_domain",
    "enumerate_all", "solve",
]


class Unsupported(Exception):
    """Partition has no top-dimensional simplex; embedding is undefined."""


class CertificateRejected(Exception):
    """A solution the search found failed the certificate re-check."""


class DomainTooLarge(Exception):
    """The domains would hold more than boxes._GRID_LIMIT points."""

    def __init__(self, points):
        self.points = points
        super().__init__(f"domains of {points} points exceed the limit")


class UnknownBox(ValueError):
    """A pin names a box id the partition does not have."""

    def __init__(self, bid, boxes):
        self.bid = bid
        super().__init__(f"pin on box {bid!r}; box ids run from 0 to {boxes - 1}")


SAT = "sat"
UNSAT = "unsat"
TIMEOUT = "timeout"


class _Deadline(Exception):
    """The time limit passed inside propagation."""


@dataclass
class SolverConfig:
    """Search limits. A node_limit that is not an int >= 0 (a bool
    included) or a time_limit that is not an int or float >= 0 (a bool
    or NaN included) raises ValueError."""
    node_limit: int = 0          # 0 = unlimited
    time_limit: float = 0.0      # seconds, 0 = unlimited

    def __post_init__(self):
        n, t = self.node_limit, self.time_limit
        if type(n) is not int or n < 0:
            raise ValueError(f"node_limit {n!r} is not an int >= 0")
        # not (t >= 0) also holds for NaN
        if type(t) not in (int, float) or not t >= 0:
            raise ValueError(f"time_limit {t!r} is not a number >= 0")


@dataclass
class SolveResult:
    status: str
    projection: Projection = None
    stats: dict = field(default_factory=dict)
    solutions: list = None


def box_domain(box) -> tuple:
    """Half-integral points strictly inside the box, doubled, lex sorted."""
    ranges = [range(2 * a + 1, 2 * b) for a, b in zip(box.lo, box.hi)]
    return tuple(product(*ranges))


def _lower_faces(boxes):
    """The lower faces of the boxes, each as a closed vertex box (lo, hi)."""
    return [(b.lo, b.hi[:k] + b.lo[k:k + 1] + b.hi[k + 1:])
            for b in boxes for k in range(b.dim)]


def _reading(deadline, pairs):
    """The (w, around) pairs, with the deadline read before each."""
    for pair in pairs:
        if time.monotonic() > deadline:
            raise _Deadline
        yield pair


class _Root:
    """The unpinned constraint setup of one partition.

    constraints: (ordered box ids, required sign) of the top simplices
    with two or more boxes larger than a pixel, in the order of the full
    walk, found at the interior vertices on those boxes' lower faces;
    domains: box id -> box_domain's tuple, for the boxes larger than a
    pixel and the pixels some constraint names, ascending; watching: box
    id -> constraint indices; free: the boxes larger than a pixel,
    ascending. Built by the first solve of the partition and
    kept on it; solves read it and change only centers, once."""

    def __init__(self, p: Partition, deadline):
        # the chain table's limit, before any vertex is read
        _refuse_too_many_chains(p.dim)
        big = [not b.is_pixel() for b in p.boxes]
        free = list(compress(range(len(big)), big))
        pairs = vertex_owners(p.dim, p.n, p.owner_grid(),
                              _lower_faces(p.boxes[i] for i in free))
        if deadline is not None:
            pairs = _reading(deadline, pairs)
        # with at most one box larger than a pixel the simplex keeps its
        # seed sign wherever that box's point lies (one-box lemma)
        constraints = [(ordered, want) for _, _, ordered, want
                       in _seeds(p.dim, pairs).values()
                       if sum(map(big.__getitem__, ordered)) > 1]
        listed = set(free).union(*(ordered for ordered, _ in constraints))
        self.domains = {i: box_domain(p.boxes[i]) for i in sorted(listed)}
        self.constraints = constraints
        self.watching = {}
        for ci, (ordered, _) in enumerate(constraints):
            for i in ordered:
                self.watching.setdefault(i, []).append(ci)
        self.free = free
        self.centers = None  # every box's center, listed at the first solution

    def points(self, p: Partition, sol) -> tuple:
        """Every box's point: sol's (box id -> point) for the listed boxes,
        the center for the others. The centers are listed once per
        partition, by the first solve that finds a solution."""
        if self.centers is None:
            self.centers = [b.center2() for b in p.boxes]
        pts = list(self.centers)
        for i, v in sol.items():
            pts[i] = v
        return tuple(pts)


class _Csp:
    def __init__(self, p: Partition, pins=None, deadline=None):
        # pins: box id -> set of points, as _pin_sets returns them
        self.deadline = deadline  # time.monotonic() value, or None
        root = p._solver_root
        if root is None:
            # a deadline passing inside the build leaves nothing cached
            root = p._solver_root = _Root(p, deadline)
        # any constraint is a top simplex; without one, ask the full walk
        if not root.constraints and not build_dual(p).has_top():
            raise Unsupported("no top-dimensional simplex")
        self.root = root
        self.constraints = root.constraints
        self.watching = root.watching
        self.free = root.free
        self.weights = [1] * len(root.constraints)  # dom/wdeg, this solve's
        domains = dict(root.domains)
        for bid, allowed in (pins or {}).items():
            # an unlisted box is a pixel, whose one point is its center
            dom = domains.get(bid, (p.boxes[bid].center2(),))
            domains[bid] = tuple(v for v in dom if v in allowed)
        self.domains = domains
        self.propagations = 0
        # a box in no constraint is seen by none, so an empty domain (from
        # a pin) must fail here
        self.root_failed = not all(domains.values())

    def _check_deadline(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _Deadline

    def revise(self, ci, var) -> bool:
        """Drop values of var without support in constraint ci."""
        ordered, want = self.constraints[ci]
        self.propagations += 1
        doms = self.domains
        dom = doms[var]
        # var's slot holds one value at a time; the others keep their order
        pos = ordered.index(var)
        scope = [doms[i] for i in ordered]
        orient = _kernel(len(ordered))
        keep = []
        deadline = self.deadline
        for v in dom:
            if deadline is not None and time.monotonic() > deadline:
                raise _Deadline
            scope[pos] = (v,)
            # stops at the first supporting tuple, in product order
            if want in starmap(orient, product(*scope)):
                keep.append(v)
        if len(keep) != len(dom):
            doms[var] = tuple(keep)
            return True
        return False

    def propagate(self, seeds=None) -> bool:
        """AC-3 loop; returns False on a wiped-out domain."""
        if seeds is None:
            queue = list(range(len(self.constraints)))
        else:
            queue = sorted(set(seeds))
        queue = [(ci, v) for ci in queue for v in self.constraints[ci][0]]
        seen = set(queue)
        while queue:
            ci, var = queue.pop()
            seen.discard((ci, var))
            self._check_deadline()
            if self.revise(ci, var):
                if not self.domains[var]:
                    self.weights[ci] += 1
                    return False
                for cj in self.watching.get(var, ()):
                    for u in self.constraints[cj][0]:
                        if u != var and (cj, u) not in seen:
                            queue.append((cj, u))
                            seen.add((cj, u))
        return True


def _search(csp: _Csp, cfg: SolverConfig, sols: list, every: bool):
    """Bisection search; appends each solution (listed box id -> point) to
    sols, stopping at the first unless every is set. Returns (status,
    nodes)."""
    nodes = 0
    try:
        if not csp.propagate():
            return UNSAT, nodes
        # domains are rebound, never changed in place, so shallow copies do
        stack = [dict(csp.domains)]
        while stack:
            nodes += 1
            if cfg.node_limit and nodes > cfg.node_limit:
                return TIMEOUT, nodes
            csp._check_deadline()
            csp.domains = stack.pop()
            var = _pick_var(csp)
            if var is None:
                sols.append({i: dom[0] for i, dom in csp.domains.items()})
                if not every:
                    return SAT, nodes
                continue
            dom = csp.domains[var]
            mid = len(dom) // 2
            lo_half, hi_half = dom[:mid], dom[mid:]
            base = csp.domains  # second branch must not see the first one's pruning
            for half in (hi_half, lo_half):  # explore the low half first
                saved = dict(base)
                saved[var] = half
                csp.domains = saved
                if csp.propagate(csp.watching.get(var, ())):
                    stack.append(csp.domains)
            csp.domains = None
    except _Deadline:
        return TIMEOUT, nodes
    return (SAT if sols else UNSAT), nodes


def _pick_var(csp: _Csp):
    """The undecided box of least |dom| / wdeg, the first by id on ties;
    boxes of wdeg 0 come last. None once every box is decided."""
    doms, constraints, weights = csp.domains, csp.constraints, csp.weights
    best = None  # (|dom|, wdeg, box)
    for i in csp.free:
        k = len(doms[i])
        if k < 2:
            continue
        w = 0
        for ci in csp.watching.get(i, ()):
            if any(u != i and len(doms[u]) > 1 for u in constraints[ci][0]):
                w += weights[ci]
        # k / w < bk / bw, with w = 0 standing for an infinite ratio
        if best is None or w and (not best[1] or k * best[1] < best[0] * w):
            best = (k, w, i)
    return best[2] if best else None


def _pin_sets(p, pins) -> dict:
    """pins as box id -> set of doubled points, checked: UnknownBox for an
    id that is not an int naming a box, DimensionMismatch for a value that
    is not a point of p.dim ints."""
    sets = {}
    for bid, allowed in (pins or {}).items():
        if type(bid) is not int or bid not in range(len(p.boxes)):
            raise UnknownBox(bid, len(p.boxes))
        points = set()
        for v in allowed:
            try:
                v = tuple(v)
            except TypeError:
                raise DimensionMismatch(
                    f"pin on box {bid}: {v!r} is not a point") from None
            if len(v) != p.dim or any(type(x) is not int for x in v):
                raise DimensionMismatch(
                    f"pin on box {bid}: {v!r} is not {p.dim} ints")
            points.add(v)
        sets[bid] = points
    return sets


def _drive(p, cfg, pins, every):
    """Search, then re-check every solution found as a certificate.

    Returns (status, projections in sorted order, stats)."""
    cfg = cfg or SolverConfig()
    pins = _pin_sets(p, pins)
    # prod(2 l_i - 1) < 2^d prod(l_i): fewer than (2n)^d points in all
    if (2 * p.n) ** p.dim > _GRID_LIMIT:
        points = sum(prod(2 * (h - l) - 1 for l, h in zip(b.lo, b.hi))
                     for b in p.boxes)
        if points > _GRID_LIMIT:
            raise DomainTooLarge(points)
    deadline = time.monotonic() + cfg.time_limit if cfg.time_limit else None
    try:
        csp = _Csp(p, pins=pins, deadline=deadline)
    except _Deadline:
        return TIMEOUT, [], {"nodes": 0, "propagations": 0}
    sols = []
    if csp.root_failed:
        status, nodes = UNSAT, 0
    else:
        status, nodes = _search(csp, cfg, sols, every)
    points = sorted(csp.root.points(p, sol) for sol in sols)
    projections = [Projection(pts) for pts in points]
    for proj in projections:
        try:
            kind = classify_projection(p, proj).kind
        except ValueError as e:
            raise CertificateRejected(
                f"certificate failed verification: {e}") from e
        if kind != "embedding":
            raise CertificateRejected(
                f"certificate failed verification: classification: {kind}")
    return status, projections, {"nodes": nodes,
                                 "propagations": csp.propagations}


def solve(p: Partition, cfg: SolverConfig = None, pins=None) -> SolveResult:
    """Decide whether a faithful half-integral embedding exists.

    SAT certificates are re-verified against the full orientation check
    before being returned. pins optionally restricts the domain of given
    boxes to the supplied doubled points (used to probe gadgets).
    """
    status, projections, stats = _drive(p, cfg, pins, every=False)
    return SolveResult(status, projections[0] if projections else None, stats)


def enumerate_all(p: Partition, cfg: SolverConfig = None,
                  pins=None) -> SolveResult:
    """Enumerate every faithful half-integral embedding (desk scale only)."""
    status, projections, stats = _drive(p, cfg, pins, every=True)
    return SolveResult(status, stats=stats, solutions=projections)
