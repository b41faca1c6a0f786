"""Counterexample generators: small pixel-filled partitions with known
center-drawing or embedding behaviour.

The planar generators give a balance-3 partition whose center projection
is degenerate, a balance-4 variant that flips an orientation outright,
and a six-rectangle construction with no faithful half-integral
embedding (finer rational embeddings exist). In 3d, gen_3d_layered
builds a 64-box partition of small balance with four coplanar centers.
gen_cubical_config builds, in any d >= 3, a staircase of d+1 cubes whose
balance lies between d/(d-2) and the requested bound and whose center
drawing misorients their top simplex. The bound holds for those d+1
cubes only: the pixels that fill the rest of the cube bring the global
balance to the staircase's larger side.
"""

from fractions import Fraction
from itertools import count

from .boxes import IntBox, Partition, _check_grid, pixel_fill, validate_partition
from .dual import _exact, orientation

__all__ = [
    "BetaTooSmall",
    "gen_planar_lcycle",
    "gen_planar_3balanced",
    "gen_planar_beta4",
    "gen_3d_layered",
    "gen_cubical_config",
]


class BetaTooSmall(ValueError):
    """Requested aspect bound admits no construction."""


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
    that is for every beta <= 55/51. A beta that is not an int or a
    Fraction raises dual.InexactCoordinate.
    """
    beta = _exact((beta,), "aspect bound")[0]
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
# cubical staircase


def _staircase(d, a, b):
    # the corner cube [-a,0]^d, then cube i = 1..d with [-b+1,1] on the
    # axes before i, [0,b] on axis i and [-b,0] on the axes after it, all
    # translated by b+1; they meet at the vertex (b+1,...,b+1)
    t = b + 1
    cubes = [IntBox((t - a,) * d, (t,) * d)]
    for i in range(d):
        k = d - 1 - i
        cubes.append(IntBox((t - b + 1,) * i + (t,) + (t - b,) * k,
                            (t + 1,) * i + (t + b,) + (t,) * k))
    return cubes


def gen_cubical_config(d, beta) -> Partition:
    """Pixel-filled cubical staircase of [0, 2b+2]^d whose center drawing
    misorients the top simplex of its d+1 cubes.

    Boxes 0..d are the staircase: the corner cube of side a, then d cubes
    of side b, cube i shifted by one unit toward the positive side on
    the axes before its own, so a = boxes[0] side and b = boxes[1] side.
    With those shifts removed, the orientation of the d+1 centers is
    b^(d-1)(d*a - (d-2)*b)/2, negative exactly for b/a > d/(d-2); the
    shifts pull it back toward positive, so not every such ratio flips.

    Scans b = 2, 3, ... and, for each, a in increasing order over
    d/(d-2) < b/a < beta; returns the first staircase whose doubled
    centers orient as -1 against the seed's +1. The balance bound holds
    for the d+1 staircase cubes only: the pixels bring the partition's
    global balance to b.

    Raises ValueError for a d that is not an int >= 3,
    dual.InexactCoordinate for a beta that is not an int or a Fraction,
    and BetaTooSmall for beta <= d/(d-2).
    Each b is refused with GridTooLarge before anything is built once
    the (2b+2)^d cells of [0, 2b+2]^d exceed the cell limit (every b from
    d = 24 on), so a beta too close to d/(d-2) ends the scan there.
    """
    if type(d) is not int or d < 3:
        raise ValueError(f"needs an int d >= 3, not {d!r}")
    beta = _exact((beta,), "aspect bound")[0]
    critical = Fraction(d, d - 2)
    if beta <= critical:
        raise BetaTooSmall(f"aspect bound {beta} does not exceed d/(d-2) = {critical}")
    for b in count(2):
        _check_grid(d, 2 * b + 2)
        # b/beta < a < b/critical
        for a in range(b // beta + 1, -(-b * (d - 2) // d)):
            cubes = _staircase(d, a, b)
            if orientation([c.center2() for c in cubes]) == -1:
                return pixel_fill(cubes, 2 * b + 2)
