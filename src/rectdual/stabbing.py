"""Exact stabbing of interval classes by a hyperplane.

An interval class is a box B = I_1 x ... x I_d of rational intervals,
each end open or closed, swept radially: the union of r.B over r in
[1, rho], rho >= 1. It is the shape of the point classes of the paper's
stabbing lemmas:

- a meeting pattern has one box per cube-face code around a vertex w:
  per axis, '-' (below w), '+' (above) or '*' (straddling). From w and
  doubled, with unit short side, the boxes' centers lie in the pattern's
  cube reading (cube_reading, every box a cube: '-' to [-1, -1], '+' to
  [1, 1], '*' to (-1, 1), rho = b) or its box reading (box_reading:
  '-' to [-b, -1], '+' to [1, b], '*' to (-b, b), rho = 1). The 3d
  build_config_sets(kind, b) is the cube reading of one of

      regular   ---  +--  *+-  **+
      singular  *--  *+-  -*+  +*+

- the planar triple (build_planar_sets) is three boxes with rho = 1:
  the center regions of three rectangles meeting at a point, the third
  with its lower side excluded.

The interval-sum rule. The hyperplane a.x = c meets a class iff the
closed interval C = {c/r : r in [1, rho]} meets the sum S = a_1.I_1 +
... + a_d.I_d, since a.(r.u) = c exactly when a.u = c/r. Once the sign
of each a_j is fixed, S runs from L, the sum of a_j.lo_j over a_j > 0
and a_j.hi_j over a_j < 0, to U, the sum of the other ends; both are
linear in a, and an end of S is open iff one of the ends adding to it,
over a_j != 0, is open. Once the sign of c is fixed, C runs between c
and c/rho, linear in c. Two nonempty intervals meet iff each one's low
end is below the other's high end, strictly where either of the two
ends is open; as C is closed, each class adds two rows: min C <= U and
L <= max C, strict where U or L is open.

The decider (hyperplane_stab). A hyperplane is normalized to have its
first nonzero coefficient a_k = 1. A sign case fixes k, a sign (0, +,
-) for each later a_j, and, when some class has rho > 1, whether c >= 0
or c <= 0. The case is then one linear system over its nonzero
coefficients after a_k and c: a strict row -a_j < 0 or a_j < 0 per
nonzero sign, the row of c's sign, and two rows per class, with a_k = 1
and the zero coefficients substituted. ratlp.strict_feasible decides it
exactly, by margin maximization, so verdicts carry no epsilon. Cases run
k = 0 first, signs in the order 0, +, -, last coefficient fastest, then
c >= 0 before c <= 0. A hyperplane meets every class iff some case is
feasible.

The first feasible case's solution is the witness, written
(a_1, ..., a_d, -c), constant last, so witness[0] is 0 or 1. Each
class's witness point is a closed form (_point): v is the midpoint of
the interval where C meets S, and r = c/v (1 when v = 0). On the axes
with a_j != 0, u moves from S's low-end corner toward its high-end
corner by the fraction that puts a.u at v; on the others it sits at its
interval's midpoint. The point r.u is re-checked by exact evaluation,
and a failed check raises WitnessFault. An infeasible verdict has one
certificate entry per case: its label, such as "1+0 c<=0" (a = (1, +,
0), c <= 0), and the reason, "weak system infeasible" or
"max margin m <= 0".

Every coordinate, coefficient and ratio is an int or a Fraction;
anything else, bools included, raises dual.InexactCoordinate (dual._exact).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .boxes import _GRID_LIMIT
from .dual import _exact
from .ratlp import strict_feasible

__all__ = [
    "FEASIBLE", "INFEASIBLE", "ArityMismatch", "IntervalClass",
    "StabVerdict", "StabbingProblem", "TooManyCases", "WitnessFault",
    "box_reading", "build_config_sets", "build_planar_sets",
    "contains_point", "cube_reading", "hyperplane_stab", "line_stab",
    "meets_hyperplane", "plane_stab", "regular_codes",
]

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


class ArityMismatch(ValueError):
    """Problem shape does not fit the requested operation."""


class TooManyCases(ValueError):
    """The sign cases of a problem exceed boxes._GRID_LIMIT."""

    def __init__(self, d):
        self.dim = d
        super().__init__(f"the sign cases in {d}d exceed the limit of "
                         f"{_GRID_LIMIT}")


class WitnessFault(RuntimeError):
    """A witness point is off its hyperplane or outside its class; exact
    arithmetic on a feasible case cannot give one, so this is a fault."""


def _flags(values, d, what):
    """One bool per axis; an empty tuple reads as all False."""
    flags = tuple(values) or (False,) * d
    if len(flags) != d or any(type(f) is not bool for f in flags):
        raise ValueError(f"{what} needs one bool per axis")
    return flags


@dataclass(frozen=True)
class IntervalClass:
    """The union of r.B over r in [1, rho], B the box whose axis j runs
    from lo[j] to hi[j], that end excluded where lo_open[j] or
    hi_open[j] is True (every end is closed when a flag tuple is left
    empty)."""

    lo: tuple
    hi: tuple
    lo_open: tuple = ()
    hi_open: tuple = ()
    rho: Fraction = Fraction(1)

    def __post_init__(self):
        lo = _exact(self.lo, "interval end")
        hi = _exact(self.hi, "interval end")
        d = len(lo)
        if not d or len(hi) != d:
            raise ValueError("need one low and one high end per axis")
        lo_open = _flags(self.lo_open, d, "lo_open")
        hi_open = _flags(self.hi_open, d, "hi_open")
        for j in range(d):
            if lo[j] > hi[j] or lo[j] == hi[j] and (lo_open[j] or hi_open[j]):
                raise ValueError(f"interval {j} is empty")
        rho = _exact((self.rho,), "sweep ratio")[0]
        if rho < 1:
            raise ValueError("need rho >= 1")
        for name, value in (("lo", lo), ("hi", hi), ("lo_open", lo_open),
                            ("hi_open", hi_open), ("rho", rho)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return len(self.lo)


def _ends(s: IntervalClass, signs):
    """The sum a_1.I_1 + ... + a_d.I_d over a coefficient vector with
    these signs (any numbers; only their signs are read): the per-axis
    factors of its low and its high end, 0 where a_j = 0, and whether
    each end is open."""
    low, high = [], []
    low_open = high_open = False
    for sign, lo, hi, lo_o, hi_o in zip(signs, s.lo, s.hi, s.lo_open,
                                        s.hi_open):
        if sign < 0:
            lo, hi, lo_o, hi_o = hi, lo, hi_o, lo_o
        elif sign == 0:
            lo = hi = 0
            lo_o = hi_o = False
        low.append(lo)
        high.append(hi)
        low_open |= lo_o
        high_open |= hi_o
    return low, high, low_open, high_open


def _dot(a, x):
    return sum(ai * xi for ai, xi in zip(a, x))


def meets_hyperplane(s: IntervalClass, coeffs) -> bool:
    """Does the hyperplane coeffs[:-1].x + coeffs[-1] = 0 meet the class?
    The interval-sum rule at a fixed hyperplane a.x = c."""
    if len(coeffs) != s.dim + 1:
        raise ArityMismatch(f"hyperplane needs {s.dim + 1} coefficients")
    *a, const = _exact(coeffs, "hyperplane coefficient")
    c = -const
    low, high, low_open, high_open = _ends(s, a)
    lo_c, hi_c = sorted((c, c / s.rho))
    big_l, big_u = _dot(a, low), _dot(a, high)
    return (lo_c < big_u or lo_c == big_u and not high_open) and \
        (big_l < hi_c or big_l == hi_c and not low_open)


def contains_point(s: IntervalClass, pt) -> bool:
    """Exact membership: pt = r.u for some r in [1, rho] and u in the box.

    With t = 1/r, each axis asks lo <= t.x <= hi, a bound on t from each
    end, as open as that end; the point is in the class iff the bounds
    leave some t in [1/rho, 1]."""
    if len(pt) != s.dim:
        raise ArityMismatch(f"point needs {s.dim} coordinates")
    low, low_open = 1 / s.rho, False
    high, high_open = Fraction(1), False
    for x, lo, hi, lo_o, hi_o in zip(_exact(pt, "point coordinate"), s.lo,
                                     s.hi, s.lo_open, s.hi_open):
        if x == 0:
            if lo > 0 or lo == 0 and lo_o or hi < 0 or hi == 0 and hi_o:
                return False
            continue
        if x < 0:
            lo, hi, lo_o, hi_o = hi, lo, hi_o, lo_o
        if lo / x > low or lo / x == low and lo_o:
            low, low_open = lo / x, lo_o
        if hi / x < high or hi / x == high and hi_o:
            high, high_open = hi / x, hi_o
    return low < high or low == high and not (low_open or high_open)


def _point(s: IntervalClass, a, c) -> tuple:
    """The witness point of a class on a hyperplane a.x = c that meets
    it (module docstring)."""
    low, high, _, _ = _ends(s, a)
    big_l, big_u = _dot(a, low), _dot(a, high)
    lo_c, hi_c = sorted((c, c / s.rho))
    v = (max(lo_c, big_l) + min(hi_c, big_u)) / 2
    lam = (v - big_l) / (big_u - big_l) if big_u != big_l else 0
    r = c / v if v else 1
    return tuple(r * (l + lam * (h - l) if aj else (lo + hi) / 2)
                 for aj, l, h, lo, hi in zip(a, low, high, s.lo, s.hi))


def _witness_points(sets, witness) -> tuple:
    """One checked point of each class on the witness hyperplane."""
    *a, const = witness
    points = tuple(_point(s, a, -const) for s in sets)
    for i, (s, pt) in enumerate(zip(sets, points)):
        if _dot(a, pt) + const != 0 or not contains_point(s, pt):
            raise WitnessFault(f"witness point {pt} fails on set {i}")
    return points


@dataclass(frozen=True)
class StabbingProblem:
    dim: int
    sets: tuple

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(self.sets))
        if type(self.dim) is not int or self.dim < 1:
            raise ValueError(f"dimension {self.dim!r} is not a positive int")
        for s in self.sets:
            if not isinstance(s, IntervalClass):
                raise TypeError(f"{s!r} is not an IntervalClass")
            if s.dim != self.dim:
                raise ArityMismatch(
                    "set dimension differs from problem dimension")


@dataclass(frozen=True)
class StabVerdict:
    status: str
    witness: tuple = None        # hyperplane coefficients, constant last
    witness_points: tuple = ()   # one point per set when feasible
    certificate: tuple = ()      # one (case, reason) per case when not
    cases: int = 0

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


_SIGN_CHAR = {0: "0", 1: "+", -1: "-"}
_C_SIGN = {0: "", 1: " c>=0", -1: " c<=0"}


def _cases(d, swept):
    """(label, k, signs, c sign) of every sign case, in scan order; the
    c sign is 0 (free) unless some class is swept."""
    for k in range(d):
        for tail in product((0, 1, -1), repeat=d - 1 - k):
            label = "0" * k + "1" + "".join(_SIGN_CHAR[s] for s in tail)
            for c_sign in (1, -1) if swept else (0,):
                yield label + _C_SIGN[c_sign], k, (0,) * k + (1,) + tail, \
                    c_sign


def _rows(sets, k, signs, c_sign):
    """A case's free coefficients (the nonzero ones after a_k), and its
    weak and strict rows over them and c."""
    d = len(signs)
    free = [j for j in range(k + 1, d) if signs[j]]
    weak, strict = [], []

    def add(dense, is_strict):
        # dense holds the factors of a_1..a_d and c of a row "< 0" or
        # "<= 0"; a_k = 1 moves to the right-hand side
        row = [dense[j] for j in free] + [dense[d]]
        (strict if is_strict else weak).append((row, -dense[k]))

    def unit(j, factor):
        return [factor if i == j else 0 for i in range(d + 1)]

    for j in free:
        add(unit(j, -signs[j]), True)
    if c_sign:
        add(unit(d, -c_sign), False)
    for s in sets:
        low, high, low_open, high_open = _ends(s, signs)
        inv = 1 / s.rho
        lo_c, hi_c = (inv, 1) if c_sign >= 0 else (1, inv)
        add([-h for h in high] + [lo_c], high_open)  # min C - U
        add(low + [-hi_c], low_open)                 # L - max C
    return free, weak, strict


def hyperplane_stab(problem: StabbingProblem) -> StabVerdict:
    """Is there a hyperplane meeting every class of the problem? One
    strict_feasible call per sign case (module docstring); cases counts
    every case, scanned or not: (3^d - 1)/2, twice that when a class is
    swept. TooManyCases refuses a count above _GRID_LIMIT before any
    LP."""
    d = problem.dim
    swept = any(s.rho != 1 for s in problem.sets)
    # 3^d > 2^d > _GRID_LIMIT once d exceeds the limit's bit length
    top = min(d, _GRID_LIMIT.bit_length() + 1)
    cases = (3 ** top - 1) // 2 * (2 if swept else 1)
    if cases > _GRID_LIMIT:
        raise TooManyCases(d)
    certificate = []
    for label, k, signs, c_sign in _cases(d, swept):
        free, weak, strict = _rows(problem.sets, k, signs, c_sign)
        ok, x, margin = strict_feasible(len(free) + 1, weak_rows=weak,
                                        strict_rows=strict)
        if ok:
            a = [Fraction(int(i == k)) for i in range(d)]
            for j, value in zip(free, x):
                a[j] = value
            witness = (*a, -x[-1])
            return StabVerdict(FEASIBLE, witness=witness, cases=cases,
                               witness_points=_witness_points(problem.sets,
                                                              witness))
        certificate.append((label, "weak system infeasible" if margin is None
                            else f"max margin {margin} <= 0"))
    return StabVerdict(INFEASIBLE, certificate=tuple(certificate),
                       cases=cases)


def line_stab(problem: StabbingProblem) -> StabVerdict:
    """hyperplane_stab for a planar problem."""
    if problem.dim != 2:
        raise ArityMismatch("line_stab needs a 2d problem")
    return hyperplane_stab(problem)


def plane_stab(problem: StabbingProblem) -> StabVerdict:
    """hyperplane_stab for a 3d problem."""
    if problem.dim != 3:
        raise ArityMismatch("plane_stab needs a 3d problem")
    return hyperplane_stab(problem)


# --- the built-in families ---------------------------------------------

def regular_codes(d) -> tuple:
    """The regular pattern: '-'^d, then '*'^i '+' '-'^(d-1-i), i < d."""
    return ("-" * d, *("*" * i + "+" + "-" * (d - 1 - i) for i in range(d)))


_CODES = {"regular": regular_codes(3),
          "singular": ("*--", "*+-", "-*+", "+*+")}


def _side_ratio(b) -> Fraction:
    """b as a Fraction; refuses an inexact b and b <= 1."""
    b = _exact((b,), "side ratio")[0]
    if b <= 1:
        raise ValueError("need b > 1")
    return b


def _reading(codes, ends, rho) -> StabbingProblem:
    """One class per code, swept to rho; its axis j is ends[code[j]]."""
    if not codes or any(type(c) is not str or not c or len(c) != len(codes[0])
                        or not set(c) <= ends.keys() for c in codes):
        raise ValueError(f"codes {codes!r} are not of one length over -+*")
    axes = (zip(*(ends[ch] for ch in code)) for code in codes)
    return StabbingProblem(len(codes[0]), [
        IntervalClass(lo, hi, free, free, rho) for lo, hi, free in axes])


def cube_reading(codes, b) -> StabbingProblem:
    """The cube reading of a pattern at side ratio b (module docstring)."""
    return _reading(codes, {"-": (-1, -1, False), "+": (1, 1, False),
                            "*": (-1, 1, True)}, _side_ratio(b))


def box_reading(codes, b) -> StabbingProblem:
    """The box reading of a pattern at side ratio b (module docstring)."""
    b = _side_ratio(b)
    return _reading(codes, {"-": (-b, -1, False), "+": (1, b, False),
                            "*": (-b, b, True)}, 1)


def build_config_sets(kind: str, b) -> StabbingProblem:
    """The cube reading of the regular or singular 3d pattern."""
    if kind not in _CODES:
        raise ValueError(f"unknown kind {kind!r}")
    return cube_reading(_CODES[kind], b)


def build_planar_sets(b) -> StabbingProblem:
    """Center regions of three rectangles meeting at a point in the
    plane: the box reading of the T-junction ('--', '-+', '+*'), halved,
    but with the third class's upper y end closed. At y = b/2 that box's
    lower side reaches w and its y code turns '+': the 4-owner cross
    ('--', '-+', '++')."""
    b = _side_ratio(b)
    h = b / 2
    q = Fraction(1, 2)
    return StabbingProblem(2, (
        IntervalClass((-h, -h), (-q, -q)),
        IntervalClass((-h, q), (-q, h)),
        IntervalClass((q, -h), (h, h), (False, True)),
    ))
