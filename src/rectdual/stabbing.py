"""Exact stabbing of convex sets with excluded facets by a hyperplane.

A FlaggedConvexSet is a convex hull minus a union of excluded closed
faces; equivalently an intersection of halfspaces some of which are
open. The feasibility question "is there a hyperplane meeting every set
of a family" is decided exactly over the rationals: the hyperplane
coefficients are normalized by case analysis on the leading coefficient,
the meeting condition for each set is expanded into a disjunction of
sign conditions on the values at its vertices, and the combined sign
cases are scanned depth first, one set at a time, as linear feasibility
problems: an infeasible prefix (the conditions of the first sets)
refutes every case that extends it with one LP. Strict inequalities are
settled by margin maximization, so verdicts carry no epsilon. Each node
of the scan is its parent's system plus one set's rows, so its LP starts
from the parent's optimal tableau and is re-optimized by the dual
simplex (ratlp.reoptimize). The scan's root is the margin LP with only
its cap t <= 1, which is optimal as it stands, and the cap keeps every
node's LP bounded, so no node is solved from scratch; the witness is
read off the first feasible leaf's tableau.

Every coordinate, coefficient and side ratio is an int or a Fraction;
anything else, bools included, raises dual.InexactCoordinate.

Three set families are built in: the two three-dimensional
configurations (regular and singular) whose stabbing planes certify
flat tetrahedra in balanced partitions, and the planar triple whose
stabbing line certifies a flat triangle. All are parametrized by the
side-ratio bound b with unit short side.

Each set of a 3d configuration is one point class around the meeting
vertex, written as a cube-face code: "-" or "+" fixes the sign of a
coordinate, "*" leaves it free. The class is the hull of s and b.s over
its sign vectors s, minus, for each free coordinate and each sign, the
face of the vertices on that side:

    regular   ---  +--  *+-  **+
    singular  *--  *+-  -*+  +*+

The codes alone give the sets, the per-set product formulas of the
lemma (each unit vertex s against b.s reflected in the free
coordinates) and the yz-shadows: the shadow of a class is the class of
its code without the x sign over the hull of the projected vertices.
That needs no LP: every vertex has |x| = |z| and z's sign is fixed, so
with x's sign fixed too the class lies in one plane x = +-z and projects
injectively; with x free, the fiber points with x = 0 avoid both x faces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import product
from math import prod

from .dual import InexactCoordinate, orientation
from .ratlp import MarginLp, reoptimize, strict_feasible

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

# sign relations tying a vertex value E(p) to zero
_LE0, _LT0, _GE0, _GT0, _EQ0 = "<=0", "<0", ">=0", ">0", "==0"


class ArityMismatch(ValueError):
    """Problem shape does not fit the requested operation."""


class UnsupportedShape(ValueError):
    """A flagged set falls outside the shapes this checker handles."""


def _exact(values, what):
    """values as Fractions; InexactCoordinate refuses anything but an
    int (not a bool) or a Fraction, as dual.orientation does."""
    for x in values:
        if type(x) is not int and type(x) is not Fraction:
            raise InexactCoordinate(f"{what} {x!r} is not an int or a "
                                    f"Fraction")
    return tuple(Fraction(x) for x in values)


def _eval(coeffs, pt):
    v = coeffs[-1]
    for c, x in zip(coeffs, pt):
        v += c * x
    return v


def hull2d(points):
    """Extreme points in counterclockwise order (monotone chain).

    Collinear input collapses to its two endpoints; a single repeated
    point collapses to one.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and orientation((lower[-2], lower[-1], p)) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and orientation((upper[-2], upper[-1], p)) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # fully collinear
        return [pts[0], pts[-1]]
    return hull


@dataclass(frozen=True)
class FlaggedConvexSet:
    """Convex hull of vertices minus the listed closed faces.

    excluded_faces holds vertex index tuples; each must span a genuine
    face of the hull (checked when the supporting functional is built).
    """

    vertices: tuple
    excluded_faces: tuple = ()

    def __post_init__(self):
        verts = tuple(_exact(v, "vertex coordinate") for v in self.vertices)
        if not verts:
            raise ValueError("a flagged set needs at least one vertex")
        if len({len(v) for v in verts}) != 1:
            raise ValueError("vertices differ in length")
        object.__setattr__(self, "vertices", verts)
        faces = tuple(tuple(sorted(f)) for f in self.excluded_faces)
        for f in faces:
            if not f or any(i < 0 or i >= len(verts) for i in f):
                raise ValueError(f"bad face index tuple {f}")
        object.__setattr__(self, "excluded_faces", faces)

    @property
    def dim(self) -> int:
        return len(self.vertices[0])

    @cached_property
    def face_functionals(self) -> tuple:
        """face_functional of each excluded face, in order; built on the
        first read and kept (a non-face raises every time it is read)."""
        return tuple(face_functional(self, f) for f in self.excluded_faces)


def face_functional(fset: FlaggedConvexSet, face) -> tuple:
    """Affine functional (a, c) with a.v = c on the face and a.v <= c - 1
    on all other vertices; exists iff the face is exposed."""
    d = fset.dim
    on = set(face)
    eq, weak = [], []
    for i, v in enumerate(fset.vertices):
        row = [*v, -1]
        if i in on:
            eq.append((row, 0))
        else:
            weak.append((row, -1))
    ok, x, _ = strict_feasible(d + 1, eq, weak)
    if not ok:
        raise ValueError(f"vertex set {tuple(face)} is not a face of the hull")
    return x[:d], x[d]


def contains_point(fset: FlaggedConvexSet, pt) -> bool:
    """Exact membership: inside the hull and off every excluded face.

    The point is a convex combination w of the vertices.  Every excluded
    face a.x = c, given by its functional (a, c), becomes the strict row
    sum_j (a.v_j - c) w_j < 0: the point lies off the face. The
    functionals are built once per set (FlaggedConvexSet.face_functionals)."""
    if len(pt) != fset.dim:
        raise ArityMismatch(f"point needs {fset.dim} coordinates")
    verts = fset.vertices
    m = len(verts)
    eq = [([1] * m, 1)]
    for axis, x in enumerate(_exact(pt, "point coordinate")):
        eq.append(([v[axis] for v in verts], x))
    weak = []
    for j in range(m):
        row = [0] * m
        row[j] = -1
        weak.append((row, 0))
    strict = [([sum(ai * vi for ai, vi in zip(a, v)) - c for v in verts], 0)
              for a, c in fset.face_functionals]
    return strict_feasible(m, eq, weak, strict)[0]


def meets_hyperplane(fset: FlaggedConvexSet, coeffs) -> bool:
    """Does the hyperplane coeffs[:-1].x + coeffs[-1] = 0 meet the set?"""
    return stab_point(fset, coeffs) is not None


def stab_point(fset: FlaggedConvexSet, coeffs):
    """A rational point of the flagged set on the hyperplane, or None.

    Pure sign analysis: if the vertex values take both strict signs the
    plane crosses the relative interior; a one-sided touch meets the set
    unless the zero vertices all lie in a single excluded face.

    Crossing case: move from the vertex centroid (relative interior)
    toward an opposite-signed vertex; the zero stays interior. Touching
    case: the zero vertices span the touching face; its centroid avoids
    every excluded face not containing the whole touch.
    """
    if len(coeffs) != fset.dim + 1:
        raise ArityMismatch(f"hyperplane needs {fset.dim + 1} coefficients")
    _exact(coeffs, "hyperplane coefficient")
    verts = fset.vertices
    vals = [_eval(coeffs, v) for v in verts]
    if min(vals) > 0 or max(vals) < 0:
        return None
    if min(vals) < 0 < max(vals):
        m = len(verts)
        cen = tuple(sum(v[i] for v in verts) / m for i in range(fset.dim))
        cv = _eval(coeffs, cen)
        if cv == 0:
            return cen
        far = min(range(m), key=lambda i: vals[i]) if cv > 0 else \
            max(range(m), key=lambda i: vals[i])
        fv = vals[far]
        t = cv / (cv - fv)  # in (0, 1); zero of the segment centroid->vertex
        return tuple(c + t * (verts[far][i] - c) for i, c in enumerate(cen))
    zero = [i for i, v in enumerate(vals) if v == 0]
    if any(set(zero) <= set(f) for f in fset.excluded_faces):
        return None
    k = len(zero)
    return tuple(sum(verts[i][j] for i in zero) / k for j in range(fset.dim))


@dataclass(frozen=True)
class StabbingProblem:
    dim: int
    sets: tuple
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(self.sets))
        object.__setattr__(self, "b", _exact((self.b,), "side ratio")[0])
        for s in self.sets:
            if not isinstance(s, FlaggedConvexSet):
                raise TypeError(f"{s!r} is not a FlaggedConvexSet")
            if s.dim != self.dim:
                raise ArityMismatch(
                    "set dimension differs from problem dimension")


@dataclass(frozen=True)
class StabVerdict:
    status: str
    witness: tuple = None        # hyperplane coefficients, constant last
    witness_points: tuple = ()   # one point per set when feasible
    certificate: tuple = ()      # per-case infeasibility reasons
    cases: int = 0

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


# --- 3d: the two meeting configurations as face codes ------------------

_CODES = {
    "regular": ("---", "+--", "*+-", "**+"),
    "singular": ("*--", "*+-", "-*+", "+*+"),
}
_SIGNS = {"-": (-1,), "+": (1,), "*": (-1, 1)}


def _signs(code) -> list:
    """Sign vectors of a class, first coordinate slowest."""
    return list(product(*(_SIGNS[c] for c in code)))


def _class_set(code, vertices) -> FlaggedConvexSet:
    """The hull of vertices minus, for each free coordinate of code and
    each sign, the face made of the vertices on that side."""
    faces = [tuple(i for i, v in enumerate(vertices) if v[axis] * side > 0)
             for axis, c in enumerate(code) if c == "*" for side in (-1, 1)]
    return FlaggedConvexSet(tuple(vertices), tuple(sorted(faces)))


def _side_ratio(b) -> Fraction:
    """b as a Fraction; refuses an inexact b and b <= 1."""
    b = _exact((b,), "side ratio")[0]
    if b <= 1:
        raise ValueError("need b > 1")
    return b


def _config_args(kind, b) -> Fraction:
    """Check a configuration's kind and side ratio; returns the ratio."""
    if kind not in _CODES:
        raise ValueError(f"unknown kind {kind!r}")
    return _side_ratio(b)


def build_config_sets(kind: str, b) -> StabbingProblem:
    """The four point-class sets of the regular or singular meeting
    pattern around a vertex, at side ratio b (unit short side)."""
    b = _config_args(kind, b)
    sets = tuple(
        _class_set(code, [v for s in _signs(code)
                          for v in (s, tuple(b * x for x in s))])
        for code in _CODES[kind])
    return StabbingProblem(3, sets, b)


def build_planar_sets(b) -> StabbingProblem:
    """Center regions of three rectangles meeting at a point in the
    plane: two closed boxes and one box whose lower side is excluded."""
    b = _side_ratio(b)
    h = b / 2
    q = Fraction(1, 2)
    sets = (
        FlaggedConvexSet(((-h, -h), (-q, -h), (-q, -q), (-h, -q))),
        FlaggedConvexSet(((-h, q), (-q, q), (-q, h), (-h, h))),
        FlaggedConvexSet(((q, -h), (h, -h), (h, h), (q, h)), ((0, 1),)),
    )
    return StabbingProblem(2, sets, b)


# --- sign-case systems -------------------------------------------------

def _rows_for_case(prefix, cond):
    """Translate (point, relation-to-zero) atoms into LP rows over the
    trailing coefficients (unknowns: coeffs after prefix, constant last)."""
    k = len(prefix)
    eq, weak, strict = [], [], []
    for pt, rel in cond:
        const = sum(c * x for c, x in zip(prefix, pt[:k]))
        row = [*pt[k:], 1]
        if rel == _EQ0:
            eq.append((row, -const))
        elif rel == _LE0:
            weak.append((row, -const))
        elif rel == _LT0:
            strict.append((row, -const))
        elif rel == _GE0:
            weak.append(([-x for x in row], const))
        else:
            strict.append(([-x for x in row], const))
    return eq, weak, strict


def _refutation(margin):
    """Why a case with this optimal margin (None: weak part infeasible)
    has no solution."""
    if margin is None:
        return "weak system infeasible"
    return f"max margin {margin} <= 0"


def _product_split(p, q, strict):
    """Sign cases of E(p).E(q) <= 0 (or < 0 when strict)."""
    if strict:
        return [((p, _GT0), (q, _LT0)), ((p, _LT0), (q, _GT0))]
    return [((p, _GE0), (q, _LE0)), ((p, _LE0), (q, _GE0))]


_REL_BOUNDS = {
    _GE0: (0, None, False, False),
    _GT0: (0, None, True, False),
    _LE0: (None, 0, False, False),
    _LT0: (None, 0, False, True),
    _EQ0: (0, 0, False, False),
}


def _atoms_conflict(prefix, cond):
    """Cheap soundness filter: two atoms whose points agree on every
    unknown coordinate differ by a known constant, so incompatible sign
    demands rule the case out without an LP."""
    k = len(prefix)
    n = len(cond)
    for i in range(n):
        p, rp = cond[i]
        lo_p, up_p, slo_p, sup_p = _REL_BOUNDS[rp]
        for j in range(i + 1, n):
            q, rq = cond[j]
            if tuple(p[k:]) != tuple(q[k:]):
                continue
            d = sum(c * (a - e) for c, a, e in zip(prefix, p[:k], q[:k]))
            lo_q, up_q, slo_q, sup_q = _REL_BOUNDS[rq]
            # E(p) = E(q) + d must fit both value intervals
            if lo_p is not None and up_q is not None:
                gap = lo_p - d
                if gap > up_q or (gap == up_q and (slo_p or sup_q)):
                    return True
            if lo_q is not None and up_p is not None:
                gap = up_p - d
                if lo_q > gap or (lo_q == gap and (slo_q or sup_p)):
                    return True
    return False


# --- 2d set conditions -------------------------------------------------

def _quad_frame(fset: FlaggedConvexSet):
    """Corners of a quad with two horizontal edges, plus exclusion flags."""
    hull = hull2d(fset.vertices)
    if len(hull) != 4:
        raise UnsupportedShape("expected four extreme points")
    ys = sorted({p[1] for p in hull})
    if len(ys) != 2:
        raise UnsupportedShape("quad needs exactly two horizontal edges")
    bot = sorted([p for p in hull if p[1] == ys[0]])
    top = sorted([p for p in hull if p[1] == ys[1]])
    if len(bot) != 2 or len(top) != 2:
        raise UnsupportedShape("quad needs exactly two horizontal edges")
    bl, br = bot
    tl, tr = top
    edges = {
        "bottom": {bl, br}, "top": {tl, tr},
        "left": {bl, tl}, "right": {br, tr},
    }
    excluded = set()
    for face in fset.excluded_faces:
        coords = {fset.vertices[i] for i in face}
        for name, edge in edges.items():
            if coords == edge:
                excluded.add(name)
                break
        else:
            raise UnsupportedShape(f"excluded face {face} is not an edge")
    return bl, br, tl, tr, excluded


def _set_conditions(fset: FlaggedConvexSet, steep: bool):
    """Disjunctive meeting conditions for one 2d set.

    steep=True is the branch with unit first coefficient (every
    non-horizontal line); steep=False the horizontal branch (0, 1, c).
    """
    hull = hull2d(fset.vertices)
    if len(hull) == 1:
        if fset.excluded_faces:
            raise UnsupportedShape("point set cannot exclude faces")
        return [((hull[0], _EQ0),)]
    if len(hull) == 2:
        if fset.excluded_faces:
            raise UnsupportedShape("segments here are always closed")
        return _product_split(hull[0], hull[1], False)
    bl, br, tl, tr, excluded = _quad_frame(fset)
    if not steep:
        relb = _LT0 if "bottom" in excluded else _LE0
        relt = _GT0 if "top" in excluded else _GE0
        return [((bl, relb), (tl, relt))]
    if not excluded:
        return _product_split(bl, tr, False) + _product_split(br, tl, False)
    conds = _product_split(bl, tr, True) + _product_split(br, tl, True)
    excl_coords = set()
    for face in fset.excluded_faces:
        excl_coords |= {fset.vertices[i] for i in face}
    corners = [c for c in (bl, br, tl, tr) if c not in excl_coords]
    for c in corners:
        conds.append(((c, _EQ0),))
    for e0, e1, name in ((bl, tl, "left"), (br, tr, "right")):
        if name not in excluded and e0 in excl_coords and e1 in excl_coords:
            conds.append(((e0, _EQ0), (e1, _EQ0)))
    return conds


def _first_feasible(prefix, dim, per_set_conditions, certificate, label):
    """Depth-first scan of the product of per-set sign cases, in the
    order of the flat product (last set fastest).

    Each node adds one set's atoms to its parent's and is checked by the
    atom filter, then by the margin LP: a copy of its parent's optimal
    tableau with the node's rows added, re-optimized by the dual simplex
    (ratlp.reoptimize). The root tableau holds only the cap t <= 1. A
    node's LP is exactly the strict_feasible problem of its atoms, and
    the optimal margin of an LP is unique whatever basis reaches it, so
    each reason ("weak system infeasible", "max margin m <= 0") does not
    depend on the order the rows came in.

    An infeasible node refutes every case under it at once, since more
    rows never make an infeasible system feasible; each such case still
    gets its own certificate entry, in scan order, naming the refuting
    sets. The first feasible leaf is the flat scan's first feasible
    case, and its witness is read off its tableau: the prefix, then the
    unknowns at the tableau's basic solution. The empty family has one
    case with no atoms, and its witness is read off the root.
    """
    sizes = [len(c) for c in per_set_conditions]
    last = len(sizes) - 1
    refuted = 0

    def refute(depth, reason):
        nonlocal refuted
        if depth < last:
            sets = f"sets 0-{depth}" if depth else "set 0"
            reason = f"{sets} infeasible: {reason}"
        for _ in range(prod(sizes[depth + 1:])):
            refuted += 1
            certificate.append((f"{label}#{refuted}", reason))

    def scan(depth, atoms, lp):
        for cond in per_set_conditions[depth]:
            node = atoms + cond
            if _atoms_conflict(prefix, node):
                refute(depth, "sign atoms conflict")
                continue
            child = reoptimize(lp, *_rows_for_case(prefix, cond))
            if child.margin is None or child.margin <= 0:
                refute(depth, _refutation(child.margin))
            elif depth < last:
                witness = scan(depth + 1, node, child)
                if witness is not None:
                    return witness
            else:
                return tuple(prefix) + child.witness()
        return None

    root = MarginLp(dim + 1 - len(prefix))
    if not sizes:
        return tuple(prefix) + root.witness(), 1
    return scan(0, (), root), prod(sizes)


def _verify_witness(sets, coeffs):
    """Re-check a feasible verdict by direct evaluation on every set."""
    points = []
    for i, s in enumerate(sets):
        pt = stab_point(s, coeffs)
        if pt is None:
            raise AssertionError(f"witness misses set {i}")
        if _eval(coeffs, pt) != 0 or not contains_point(s, pt):
            raise AssertionError(f"witness point check failed on set {i}")
        points.append(pt)
    return tuple(points)


def line_stab(problem: StabbingProblem) -> StabVerdict:
    """Is there a line meeting every flagged set of a planar family?

    Branches on the line normal: unit first coefficient covers every
    non-horizontal line, (0, 1, c) the horizontal ones. Within a branch
    each set contributes a disjunction of linear sign conditions; the
    first feasible combined case (fixed enumeration order) supplies the
    witness, which is re-verified geometrically.

    An infeasible verdict's certificate has one (case, reason) entry per
    combined case, in order. A case refuted on its own reads "sign atoms
    conflict" or "max margin m <= 0"; a case refuted through an
    infeasible prefix names it, as in "sets 0-2 infeasible: max margin
    -3 <= 0", and the margin is the prefix's, not the case's.
    """
    if problem.dim != 2:
        raise ArityMismatch("line_stab needs a 2d problem")
    cert = []
    cases = 0
    for prefix, label in (((1,), "steep"), ((0, 1), "flat")):
        conds = [_set_conditions(s, prefix == (1,)) for s in problem.sets]
        witness, count = _first_feasible(prefix, 2, conds, cert, label)
        cases += count
        if witness is not None:
            points = _verify_witness(problem.sets, witness)
            return StabVerdict(FEASIBLE, witness=witness,
                               witness_points=points, cases=cases)
    return StabVerdict(INFEASIBLE, certificate=tuple(cert), cases=cases)


# --- 3d: plane stabbing -------------------------------------------------

def _lemma_rows(kind: str, b: Fraction):
    """Per-set disjunctions of vertex-pair product conditions for the
    t0 = 1 normalization; (p, q, strict) encodes E(p).E(q) <= 0 / < 0.

    Each unit vertex s of a class, first coordinate fastest, pairs with
    b.s reflected in the free coordinates; only a closed segment (no
    free coordinate) admits a zero product."""
    rows = []
    for code in _CODES[kind]:
        rows.append([
            (s, tuple(-b * x if c == "*" else b * x for c, x in zip(code, s)),
             "*" in code)
            for s in sorted(_signs(code), key=lambda s: s[::-1])])
    return rows


def lemma_formulas_hold(kind: str, b, coeffs) -> bool:
    """Evaluate the four per-set product formulas at a fixed plane with
    unit first coefficient."""
    b = _config_args(kind, b)
    if len(coeffs) != 4:
        raise ArityMismatch("a plane needs 4 coefficients")
    _exact(coeffs, "hyperplane coefficient")
    if coeffs[0] != 1:
        raise ValueError("formulas assume unit first coefficient")
    for row in _lemma_rows(kind, b):
        ok = False
        for p, q, strict in row:
            prod = _eval(coeffs, p) * _eval(coeffs, q)
            if prod < 0 or (not strict and prod == 0):
                ok = True
                break
        if not ok:
            return False
    return True


def _detect_kind(problem: StabbingProblem) -> str:
    for kind in _CODES:
        if problem.sets == build_config_sets(kind, problem.b).sets:
            return kind
    raise ArityMismatch(
        "sets are not the regular or singular configuration at this scale")


def _project_to_yz(problem: StabbingProblem, kind: str):
    """Shadows of the four sets of a configuration on the last two
    coordinates, repeats dropped: the class of each code without its x
    sign, over the hull of the projected vertices (see the module
    docstring for why no LP is needed)."""
    shadows = []
    for code, fset in zip(_CODES[kind], problem.sets):
        shadow = _class_set(code[1:], hull2d([v[1:] for v in fset.vertices]))
        if shadow not in shadows:
            shadows.append(shadow)
    return tuple(shadows)


def plane_stab(problem: StabbingProblem) -> StabVerdict:
    """Is there a plane meeting all four sets of a meeting configuration?

    Phase one settles planes with zero first coefficient by projecting
    the sets onto the last two coordinates and stabbing the shadows with
    a line. Phase two normalizes the first coefficient to one and scans
    the sign cases of the per-set product formulas, refuting the cases
    under an infeasible prefix of sets at once. Certificate entries read
    as in line_stab; those of phase one carry an "x-coefficient 0: "
    label prefix.
    """
    if problem.dim != 3 or len(problem.sets) != 4:
        raise ArityMismatch("plane_stab needs exactly four 3d sets")
    kind = _detect_kind(problem)
    cert = []
    shadow_problem = StabbingProblem(2, _project_to_yz(problem, kind),
                                     problem.b)
    flat = line_stab(shadow_problem)
    cases = flat.cases
    if flat.feasible:
        coeffs = (Fraction(0),) + tuple(flat.witness)
        points = _verify_witness(problem.sets, coeffs)
        return StabVerdict(FEASIBLE, witness=coeffs, witness_points=points,
                           cases=cases)
    cert.extend(("x-coefficient 0: " + lbl, why) for lbl, why in flat.certificate)

    rows = _lemma_rows(kind, problem.b)
    conds = [[atoms for p, q, strict in row
              for atoms in _product_split(p, q, strict)] for row in rows]
    witness, count = _first_feasible((1,), 3, conds, cert, "unit")
    cases += count
    if witness is not None:
        points = _verify_witness(problem.sets, witness)
        return StabVerdict(FEASIBLE, witness=witness, witness_points=points,
                           cases=cases)
    return StabVerdict(INFEASIBLE, certificate=tuple(cert), cases=cases)
