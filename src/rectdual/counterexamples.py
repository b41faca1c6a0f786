"""Counterexample generators and the coprime square-filling machinery.

The planar generators return small pixel-filled partitions with known
embedding behaviour: a balance-3 partition whose center projection is
degenerate, a balance-4 variant that flips an orientation outright, and
a six-rectangle construction with no faithful half-integral embedding
(finer rational embeddings exist).  The 3d generators scale from a
concrete 64-box layered partition up to certificate-only cubical
configurations whose boxes are far too large to materialize.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .boxes import (_GRID_LIMIT, IntBox, Partition, _check_grid, pixel_fill,
                    validate_partition)
from .dual import _det, orientation

__all__ = [
    "BetaTooSmall",
    "ConstructionFault",
    "NoFeasibleAB",
    "TooSmall",
    "NotRepresentable",
    "ScanTooLarge",
    "CubicalConfigReport",
    "gen_planar_lcycle",
    "gen_planar_3balanced",
    "gen_planar_beta4",
    "gen_3d_layered",
    "gen_cubical_config",
    "verify_det_formula",
    "coprime_base",
    "represent_two_products",
    "fill_threshold",
    "square_fill",
]


class BetaTooSmall(ValueError):
    """Requested aspect bound admits no construction."""


class ConstructionFault(Exception):
    """A generator's output broke an invariant its construction guarantees."""


class NoFeasibleAB(Exception):
    """No (a, b) pair satisfies the inequality chain within the search bound."""


class TooSmall(ValueError):
    def __init__(self, side, threshold):
        super().__init__(f"box side {side} is below the fillable threshold {threshold}")
        self.side = side
        self.threshold = threshold


class ScanTooLarge(ValueError):
    def __init__(self, sides, iterations):
        super().__init__(f"{sides} sides need {iterations} bipartitions, "
                         f"over the limit of {_GRID_LIMIT}")
        self.sides = sides
        self.iterations = iterations


class NotRepresentable(ValueError):
    def __init__(self, length):
        super().__init__(f"{length} is not a nonnegative combination of the block heights")
        self.length = length


# ---------------------------------------------------------------------------
# planar generators


_LCYCLE_N = 16
_LCYCLE_RECTS = (
    ((6, 4), (14, 5)),    # T0 central bar
    ((5, 4), (6, 12)),    # T1 left riser, corner contact with T0's left end
    ((14, 4), (15, 8)),   # T2 right riser, corner contact with T0's right end
    ((5, 12), (10, 13)),  # T3 top bar, corner contact with T1's top
    ((11, 8), (15, 9)),   # T4 crossbar, corner contact with T2's top
    ((10, 5), (11, 13)),  # T5 sink, both chains reconverge here
)


def gen_planar_lcycle(drop_sink: bool = False) -> Partition:
    """Six thin rectangles wired into a cycle of contacts that no
    half-integral drawing satisfies.

    A central bar T0 feeds two chains of corner contacts, T1 -> T3 on
    the left and T2 -> T4 on the right.  Each contact forces "this
    rectangle's vertex sits near the contact corner, or the neighbour's
    does".  Both chains terminate on the vertical bar T5: the left one
    demands its vertex in the top quarter, the right one (through a
    side junction) in the middle band, and T5's own foot junction on T0
    ties the escape routes together.  Chasing the implications from
    either branch of that junction dead-ends, so no faithful
    half-integral placement exists.  Finer points do: scaled by 3, the
    partition has a half-integral drawing (solve finds it in 898 nodes),
    so the original has one at denominator 6.

    With drop_sink=True the rectangle T5 is replaced by pixels and the
    remaining system is satisfiable, isolating T5 as the sink of the
    contradiction.  Rectangles come first in box order, so the thin
    rectangles are boxes 0..5 (0..4 when dropped).
    """
    rects = _LCYCLE_RECTS[:5] if drop_sink else _LCYCLE_RECTS
    return pixel_fill(rects, _LCYCLE_N)


def gen_planar_3balanced() -> Partition:
    """Balance-3 partition whose center projection degenerates.

    A 3x1 bar, a pixel, and a 1x3 bar meet at the point (3, 1); their
    centers are collinear, so the dual triangle they span gets
    orientation 0 under the center projection.  Other projections do
    exist (the partition itself is embeddable).
    """
    rects = (((0, 0), (3, 1)), ((2, 1), (3, 2)), ((3, 1), (4, 4)))
    return pixel_fill(rects, 4)


def gen_planar_beta4() -> Partition:
    """Balance-4 variant that flips the degenerate triangle's sign.

    Stretches the 1x3 bar of the balance-3 construction by one unit.
    The three centers then wind the wrong way around: the triangle that
    was collinear now has orientation +1 against a seed of -1, so the
    center projection is rejected outright rather than by degeneracy.
    The output is validated by measurement, not assumed.
    """
    rects = (((0, 0), (3, 1)), ((2, 1), (3, 2)), ((3, 1), (4, 5)))
    return pixel_fill(rects, 5)


# ---------------------------------------------------------------------------
# layered 3d partition


def gen_3d_layered(beta) -> Partition:
    """64-box partition of a cube with balance below beta, yet with four
    box centers coplanar.

    Picks the smallest b >= 3 with (b+2)/(b-2) < beta, which is
    b = max(3, floor(2(beta+1)/(beta-1)) + 1), then builds four
    b-cubes cornered at the origin, each stretched by one voxel layer on
    two opposite faces so that all four centers land on the plane y = z.
    The surrounding region splits into eight blocks, each cut into eight
    boxes at one interior point (the stretched cube's far corner where
    there is one, the block's near-center otherwise).  Every side length
    lands in [b-2, b+2], so the balance stays below beta, but the
    coplanar centers kill the center projection in any dimension of
    wiggle room: the degenerate 3-simplex has orientation 0.

    The cube has side 4b, so validation raises GridTooLarge from b = 54,
    that is for every beta <= 55/51.
    """
    beta = Fraction(beta)
    if beta <= 1:
        raise BetaTooSmall(f"no layered construction for aspect bound {beta} <= 1")
    # (b+2)/(b-2) < beta  <=>  b > 2(beta+1)/(beta-1), for b > 2
    b = max(3, 2 * (beta + 1) // (beta - 1) + 1)
    m = 2 * b
    # block low corner, high corner, interior split point
    blocks = (
        ((-m, -m, -m), (0, 0, 1), (-b, -b, -b - 1)),   # holds the stretched cube r0
        ((-m, -m, 1), (0, 0, m), (-b, -b, b)),
        ((-m, 0, -m), (0, m, -1), (-b, b, -b - 1)),
        ((-m, 0, -1), (0, m, m), (-b, b, b + 1)),      # holds r2
        ((0, -m, -m), (m, 1, 0), (b, -b - 1, -b)),     # holds r1
        ((0, 1, -m), (m, m, 0), (b, b, -b)),
        ((0, -m, 0), (m, -1, m), (b, -b - 1, b)),
        ((0, -1, 0), (m, m, m), (b, b + 1, b)),        # holds r3
    )
    boxes = []
    for lo, hi, cut in blocks:
        for corner in range(8):
            plo, phi = [], []
            for ax in range(3):
                if corner >> ax & 1:
                    plo.append(cut[ax])
                    phi.append(hi[ax])
                else:
                    plo.append(lo[ax])
                    phi.append(cut[ax])
            boxes.append(IntBox(tuple(x + m for x in plo), tuple(x + m for x in phi)))
    return validate_partition(boxes, 3, 2 * m)


# ---------------------------------------------------------------------------
# number theory for the filling machinery


def _first_primes(k):
    out = []
    cand = 2
    while len(out) < k:
        if all(cand % p for p in out):
            out.append(cand)
        cand += 1
    return tuple(out)


def coprime_base(k, lam):
    """Side lengths b + z_i - 1 for z_0 = 1 and z_1..z_k the first k primes,
    with b = lam * z_1 * ... * z_k + 1.  Pairwise coprime by construction:
    any common divisor of b + z_i - 1 and b + z_j - 1 divides z_j - z_i,
    and b is congruent to 1 modulo every prime up to z_k."""
    if k < 1 or lam < 1:
        raise ValueError("need k >= 1 and lam >= 1")
    zs = (1,) + _first_primes(k)
    b = lam * prod(zs) + 1
    out = tuple(b + z - 1 for z in zs)
    for i, s in enumerate(out):
        for t in out[i + 1:]:
            if gcd(s, t) != 1:
                raise ConstructionFault(f"sides {s} and {t} share a factor")
    return out


def represent_two_products(p1, p2, length):
    """Nonnegative (lam1, lam2) with lam1*p1 + lam2*p2 = length, or None.

    Deterministic: lam2 is minimal.  p1 and p2 must be coprime positive."""
    if p1 < 1 or p2 < 1 or gcd(p1, p2) != 1:
        raise ValueError("block heights must be positive and coprime")
    if length < 0:
        return None
    if p1 == 1:
        return (length, 0)
    lam2 = length * pow(p2, -1, p1) % p1
    rest = length - lam2 * p2
    if rest < 0:
        return None
    return (rest // p1, lam2)


def fill_threshold(sides) -> int:
    """Smallest L such that every length >= L is representable by every
    disjoint-subset-product pair of the side set.

    Equals 1 plus the largest two-product Frobenius number p1*p2-p1-p2
    over bipartitions of the set; folding an unused side into either
    part only raises that number, so bipartitions dominate all disjoint
    pairs.

    The scan visits the 2^(k-1) - 1 bipartitions of k sides; ScanTooLarge
    refuses a scan of more than _GRID_LIMIT before it starts."""
    sides = tuple(sides)
    if len(sides) < 2:
        raise ValueError("need at least two sides")
    scan = 2 ** (len(sides) - 1) - 1
    if scan > _GRID_LIMIT:
        raise ScanTooLarge(len(sides), scan)
    best = 0
    for mask in range(1, scan + 1):
        p1 = prod(s for i, s in enumerate(sides) if mask >> i & 1)
        p2 = prod(s for i, s in enumerate(sides) if not mask >> i & 1)
        best = max(best, p1 * p2 - p1 - p2)
    return best + 1


def _represent(p1, p2, length):
    # square_fill checked the threshold, so every extent is representable
    lam = represent_two_products(p1, p2, length)
    if lam is None:
        raise ConstructionFault(f"{length} is not representable by {p1} and {p2}")
    return lam


def _tile(ext, sides):
    # exact cover of a d-dimensional extent by squares with the given
    # sorted coprime sides; yields (low corner, side) pairs
    if len(ext) == 1:
        lam = _represent(sides[0], sides[1], ext[0])
        out, x = [], 0
        for s, count in zip(sides, lam):
            for _ in range(count):
                out.append(((x,), s))
                x += s
        return out
    half = len(sides) // 2
    groups = (sides[:half], sides[half:])
    heights = (prod(groups[0]), prod(groups[1]))
    lam = _represent(heights[0], heights[1], ext[-1])
    layers = (_tile(ext[:-1], groups[0]), _tile(ext[:-1], groups[1]))
    out, z = [], 0
    for which in (0, 1):
        p = heights[which]
        for _ in range(lam[which]):
            for lo, s in layers[which]:
                # a side-s square column stacks p // s copies exactly
                for j in range(p // s):
                    out.append((lo + (z + j * s,), s))
            z += p
    return out


def square_fill(box: IntBox, sides) -> Partition:
    """Tile a box exactly by squares whose sides come from a sorted,
    pairwise-coprime set of 2^d lengths.

    Recursive construction: the (d-1)-projection is tiled once with the
    first half of the sides and once with the second half; those two
    slabs have heights p1 and p2 (the half products) and are stacked
    lam1 + lam2 times with lam1*p1 + lam2*p2 = box height.  First-half
    slabs are placed first, which pins a square of the smallest side at
    the box's low corner whenever lam1 > 0.

    The output is translated so the box's low corner sits at the origin.
    Non-cube boxes come back as a partial partition of the bounding
    cube; coverage of the requested box itself is exact either way.
    Raises NotRepresentable if the height has no two-product
    representation, then ScanTooLarge if fill_threshold's scan is too
    large, then TooSmall if some side is below fill_threshold, then
    GridTooLarge if the owner grid of the bounding cube would exceed
    its limit, before any square is built.
    """
    d = box.dim
    sides = tuple(sides)
    if len(sides) != 2 ** d:
        raise ValueError(f"need {2 ** d} side lengths for a {d}-dimensional box")
    if any(s < 1 for s in sides) or list(sides) != sorted(sides):
        raise ValueError("sides must be positive and sorted")
    for i in range(len(sides)):
        for j in range(i + 1, len(sides)):
            if gcd(sides[i], sides[j]) != 1:
                raise ValueError(f"sides {sides[i]} and {sides[j]} share a factor")
    ext = box.sides()
    half = len(sides) // 2
    rep = represent_two_products(prod(sides[:half]), prod(sides[half:]), ext[-1])
    if rep is None:
        raise NotRepresentable(ext[-1])
    threshold = fill_threshold(sides)
    if min(ext) < threshold:
        raise TooSmall(min(ext), threshold)
    _check_grid(d, max(ext))
    squares = [IntBox(lo, tuple(c + s for c in lo)) for lo, s in _tile(ext, sides)]
    if sum(sq.volume() for sq in squares) != box.volume():
        raise ConstructionFault(f"squares do not fill {box}")
    return validate_partition(squares, d, max(ext), partial=len(set(ext)) > 1)


# ---------------------------------------------------------------------------
# cubical configurations (certificate scale)


@dataclass(frozen=True)
class CubicalConfigReport:
    """Certificate for a d-dimensional cubical configuration: d+1 cube
    centers with a strictly negative orientation determinant against a
    positive seed, plus the coprime side set and filling threshold that
    a full materialization would use."""
    d: int
    a: int
    b: int
    centers: tuple      # d+1 rows, Fraction coordinates
    det_sign: int
    side_set: tuple
    L0_bound: int
    materializable: bool


def _center_rows(d, a, b, delta):
    rows = [tuple(Fraction(-a, 2) for _ in range(d))]
    for i in range(1, d + 1):
        row = [Fraction(-b, 2) + delta] * (i - 1)
        row.append(Fraction(b, 2))
        row.extend([Fraction(-b, 2)] * (d - i))
        rows.append(tuple(row))
    return rows


def _bordered_det(rows):
    return _det([[1, *r] for r in rows])


def verify_det_formula(d, a, b):
    """Exact orientation determinant of the unperturbed center matrix
    against its closed form b^(d-1) * (d*a - (d-2)*b) / 2.

    Returns (exact, closed_form, equal)."""
    if d < 3:
        raise ValueError("needs d >= 3")
    exact = Fraction(_bordered_det(_center_rows(d, a, b, delta=0)))
    closed = Fraction(b) ** (d - 1) * (d * a - (d - 2) * b) / 2
    return exact, closed, exact == closed


def _seed_cube_corners(d):
    # doubled staircase corners of the centered unit cube
    pts = [(-1,) * d]
    for i in range(d):
        nxt = list(pts[-1])
        nxt[i] = 1
        pts.append(tuple(nxt))
    return pts


def gen_cubical_config(d, beta) -> CubicalConfigReport:
    """Find the smallest-b cubical configuration certificate for
    dimension d under aspect bound beta.

    Scans b = lam * (z_1 * ... * z_{D-1}) + 1 for lam = 1, 2, ... with
    D = 2^d and z_i the first D-1 primes (the side sets
    coprime_base(D - 1, lam)), then picks the largest cube
    side a with beta > (b + z_max - 1)/a and b/a >= d/(d-2) whose
    perturbed center matrix has a strictly negative determinant.  The
    report carries the centers, the pairwise-coprime filler side set
    b + z_i - 1, and the filling threshold those sides would need.

    Nothing is materialized: the smallest admissible b for d = 3 is
    already 510511, putting the full partition's cell count far beyond
    any sensible limit; the report's materializable field says whether
    its (4b)^d cells would fit.  The threshold scan enumerates
    2^(D-1) - 1 bipartitions, so for d >= 5 fill_threshold raises
    ScanTooLarge.
    """
    if d < 3:
        raise ValueError("needs d >= 3")
    beta = Fraction(beta)
    critical = Fraction(d, d - 2)
    if beta <= critical:
        raise NoFeasibleAB(f"aspect bound {beta} does not exceed d/(d-2) = {critical}")
    if orientation(_seed_cube_corners(d)) != 1:
        raise ConstructionFault("the staircase seed is not positively oriented")
    for lam in range(1, 65):
        side_set = coprime_base(2 ** d - 1, lam)
        b = side_set[0]
        a_hi = b * (d - 2) // d                      # largest a with b/a >= d/(d-2)
        a_lo = side_set[-1] * beta.denominator // beta.numerator + 1
        tried = 0
        for a in range(a_hi, a_lo - 1, -1):
            tried += 1
            if tried > 256:
                break  # no sign flip this close to the boundary; grow b instead
            det = _bordered_det(_center_rows(d, a, b, delta=1))
            if det >= 0:
                continue
            return CubicalConfigReport(
                d=d, a=a, b=b,
                centers=tuple(_center_rows(d, a, b, delta=1)),
                det_sign=-1,
                side_set=side_set,
                L0_bound=fill_threshold(side_set),
                materializable=(4 * b) ** d <= _GRID_LIMIT,
            )
    raise NoFeasibleAB(f"no (a, b) found for d={d}, beta={beta} within the search bound")
