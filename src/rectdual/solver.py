"""Exact search for faithful half-integral embeddings.

Each box contributes a finite domain: the half-integral points strictly
inside it, prod(2 l_i - 1) many for side lengths l_i. Every top simplex of
the dual complex is a constraint requiring the seed's orientation sign.
The solver runs generalized arc consistency over the constraints whose
scope still has undecided boxes, and branches by bisecting the
lexicographically sorted domain of a smallest undecided box. UNSAT is
reported only on exhaustion, so it is a proof.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import product

from .boxes import Partition
from .dual import DualComplex, build_dual, orientation
from .embedding import Projection, classify_projection


class Unsupported(Exception):
    """Partition has no top-dimensional simplex; embedding is undefined."""


class CertificateRejected(Exception):
    """A solution the search found failed the certificate re-check."""


SAT = "sat"
UNSAT = "unsat"
TIMEOUT = "timeout"


@dataclass
class SolverConfig:
    variable_order: str = "mrv"  # "mrv" or "input"
    node_limit: int = 0          # 0 = unlimited
    time_limit: float = 0.0      # seconds, 0 = unlimited


@dataclass
class SolveResult:
    status: str
    projection: Projection = None
    stats: dict = field(default_factory=dict)
    solutions: list = None


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str = ""

    def __bool__(self):
        return self.ok


def verify_certificate(p: Partition, dc: DualComplex, proj: Projection) -> VerifyResult:
    try:
        verdict = classify_projection(p, dc, proj)
    except ValueError as e:
        return VerifyResult(False, str(e))
    if verdict.kind != "embedding":
        return VerifyResult(False, f"classification: {verdict.kind}")
    return VerifyResult(True)


def box_domain(box) -> tuple:
    """Half-integral points strictly inside the box, doubled, lex sorted."""
    ranges = [range(2 * a + 1, 2 * b) for a, b in zip(box.lo, box.hi)]
    return tuple(product(*ranges))


def _tri_sign(a, b, c):
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


class _Csp:
    def __init__(self, p: Partition, dc: DualComplex, pins=None):
        self.p = p
        self.dc = dc
        self.d = p.dim
        if not dc.has_top():
            raise Unsupported("no top-dimensional simplex")
        domains = [list(box_domain(b)) for b in p.boxes]
        if pins:
            for bid, allowed in pins.items():
                allowed = set(tuple(v) for v in allowed)
                domains[bid] = [v for v in domains[bid] if v in allowed]
        self.domains = domains
        self.propagations = 0
        # constraints: (ordered box ids, required sign)
        self.constraints = []
        self.watching = {}  # box id -> constraint indices
        self.root_failed = False
        self._setup()

    def _sign(self, pts):
        if self.d == 2:
            return _tri_sign(*pts)
        return orientation(pts)

    def _setup(self):
        dyn = []
        for key, ordered, want in self.dc.top_items():
            sizes = [len(self.domains[i]) for i in ordered]
            if any(s == 0 for s in sizes):
                self.root_failed = True
                return
            free = [i for i, s in zip(ordered, sizes) if s > 1]
            if not free:
                pts = [self.domains[i][0] for i in ordered]
                if self._sign(pts) != want:
                    self.root_failed = True
                    return
            elif len(free) == 1:
                # filter the single undecided box once
                var = free[0]
                pos = ordered.index(var)
                fixed = [self.domains[i][0] for i in ordered]
                keep = []
                for v in self.domains[var]:
                    fixed[pos] = v
                    if self._sign(fixed) == want:
                        keep.append(v)
                self.domains[var] = keep
                if not keep:
                    self.root_failed = True
                    return
            else:
                dyn.append((ordered, want))
        self.constraints = dyn
        for ci, (ordered, _) in enumerate(dyn):
            for i in ordered:
                self.watching.setdefault(i, []).append(ci)

    def revise(self, ci, var) -> bool:
        """Drop values of var without support in constraint ci."""
        ordered, want = self.constraints[ci]
        self.propagations += 1
        pos = ordered.index(var)
        others = [self.domains[i] if i != var else None for i in ordered]
        keep = []
        sign = self._sign
        for v in self.domains[var]:
            pts = [None] * len(ordered)
            pts[pos] = v
            found = False
            for combo in product(*(dom for dom in others if dom is not None)):
                k = 0
                for idx in range(len(ordered)):
                    if idx != pos:
                        pts[idx] = combo[k]
                        k += 1
                if sign(pts) == want:
                    found = True
                    break
            if found:
                keep.append(v)
        if len(keep) != len(self.domains[var]):
            self.domains[var] = keep
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
            if self.revise(ci, var):
                if not self.domains[var]:
                    return False
                for cj in self.watching.get(var, ()):
                    for u in self.constraints[cj][0]:
                        if u != var and (cj, u) not in seen:
                            queue.append((cj, u))
                            seen.add((cj, u))
        return True


def _search(csp: _Csp, cfg: SolverConfig, collect=None):
    """Bisection search; returns (status, assignment or None, nodes)."""
    nodes = 0
    deadline = time.monotonic() + cfg.time_limit if cfg.time_limit else None
    if not csp.propagate():
        return UNSAT, None, nodes
    # domains are rebound, never changed in place, so shallow copies do
    stack = [list(csp.domains)]
    found = None
    while stack:
        nodes += 1
        if cfg.node_limit and nodes > cfg.node_limit:
            return TIMEOUT, found, nodes
        if deadline and time.monotonic() > deadline:
            return TIMEOUT, found, nodes
        csp.domains = stack.pop()
        var = _pick_var(csp, cfg)
        if var is None:
            sol = tuple(dom[0] for dom in csp.domains)
            if collect is not None:
                collect.append(sol)
                continue
            return SAT, sol, nodes
        dom = csp.domains[var]
        mid = len(dom) // 2
        lo_half, hi_half = dom[:mid], dom[mid:]
        base = csp.domains  # second branch must not see the first one's pruning
        for half in (hi_half, lo_half):  # explore the low half first
            saved = list(base)
            saved[var] = half
            csp.domains = saved
            if csp.propagate(csp.watching.get(var, ())):
                stack.append(csp.domains)
        csp.domains = None
    if collect is not None:
        return SAT if collect else UNSAT, None, nodes
    return UNSAT, None, nodes


def _pick_var(csp: _Csp, cfg: SolverConfig):
    best = None
    if cfg.variable_order == "input":
        for i, dom in enumerate(csp.domains):
            if len(dom) > 1:
                return i
        return None
    for i, dom in enumerate(csp.domains):
        k = len(dom)
        if k > 1 and (best is None or k < best[0]):
            best = (k, i)
    return best[1] if best else None


def solve(p: Partition, cfg: SolverConfig = None, dc: DualComplex = None,
          pins=None) -> SolveResult:
    """Decide whether a faithful half-integral embedding exists.

    SAT certificates are re-verified against the full orientation check
    before being returned. pins optionally restricts the domain of given
    boxes to the supplied doubled points (used to probe gadgets).
    """
    cfg = cfg or SolverConfig()
    if dc is None:
        dc = build_dual(p)
    csp = _Csp(p, dc, pins=pins)
    if csp.root_failed:
        return SolveResult(UNSAT, stats={"nodes": 0, "propagations": 0})
    status, sol, nodes = _search(csp, cfg)
    stats = {"nodes": nodes, "propagations": csp.propagations}
    if status == SAT:
        proj = Projection(sol)
        check = verify_certificate(p, dc, proj)
        if not check.ok:
            raise CertificateRejected(
                f"certificate failed verification: {check.reason}")
        return SolveResult(SAT, projection=proj, stats=stats)
    return SolveResult(status, stats=stats)


def enumerate_all(p: Partition, cfg: SolverConfig = None, dc: DualComplex = None,
                  pins=None) -> SolveResult:
    """Enumerate every faithful half-integral embedding (desk scale only)."""
    cfg = cfg or SolverConfig()
    if dc is None:
        dc = build_dual(p)
    csp = _Csp(p, dc, pins=pins)
    if csp.root_failed:
        return SolveResult(UNSAT, stats={"nodes": 0, "propagations": 0},
                           solutions=[])
    sols = []
    status, _, nodes = _search(csp, cfg, collect=sols)
    stats = {"nodes": nodes, "propagations": csp.propagations}
    projections = []
    seenq = set()
    for sol in sorted(sols):
        if sol in seenq:
            continue
        seenq.add(sol)
        proj = Projection(sol)
        check = verify_certificate(p, dc, proj)
        if not check.ok:
            raise CertificateRejected(
                f"certificate failed verification: {check.reason}")
        projections.append(proj)
    if status == TIMEOUT:
        return SolveResult(TIMEOUT, stats=stats, solutions=projections)
    return SolveResult(SAT if projections else UNSAT, stats=stats,
                       solutions=projections)
