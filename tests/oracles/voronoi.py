"""Independent dual complex oracle built from the distortion definition.

Shear every pixel center p to p - (eps/2) * (sum of coordinates) * 1 with
eps = 1/8, take Voronoi cells of the sheared centers, and call a set of
boxes a simplex when some choice of one pixel per box has cells with a
common point. Common points of closed Voronoi cells are decided by an
exact rational LP over (z, rho): the chosen sites are equally near, all
other sites no nearer.

The sites only depend on the domain [0,n]^d, so the pixel-level complex
is computed once and cached; a partition's nerve is then the image of
that complex under the pixel -> owner map.
"""

from functools import lru_cache
from itertools import combinations

from oracles.fraclp import EQ, LE, feasible_point


def _sheared_sites(d, n):
    """Integer-scaled sheared pixel centers, keyed by cell."""
    sites = {}

    def rec(prefix):
        if len(prefix) == d:
            cell = tuple(prefix)
            p2 = [2 * c + 1 for c in cell]  # doubled center
            s = sum(p2)
            # 32 * (p - (1/16) * sum(p) * 1)  with eps = 1/8
            sites[cell] = tuple(16 * x - s for x in p2)
            return
        for c in range(n):
            rec(prefix + [c])

    rec([])
    return sites


def _cells_share_point(chosen, others, d):
    """LP feasibility: a point equidistant to chosen sites, no farther
    from them than from any other site. Variables (z_1..z_d, rho)."""
    rows = []
    base = chosen[0]
    base_sq = sum(x * x for x in base)
    for s in chosen[1:]:
        coeffs = [2 * (base[k] - s[k]) for k in range(d)] + [0]
        rhs = base_sq - sum(x * x for x in s)
        rows.append((coeffs, EQ, rhs))
    for t in others:
        # |z-t|^2 >= |z-base|^2  <=>  2(t-base).z <= t^2 - base^2
        coeffs = [2 * (t[k] - base[k]) for k in range(d)] + [0]
        rhs = sum(x * x for x in t) - base_sq
        rows.append((coeffs, LE, rhs))
    res = feasible_point(rows, d + 1)
    return res.status == "optimal"


@lru_cache(maxsize=None)
def pixel_complex(d, n, max_size):
    """All site subsets of size <= max_size whose cells share a point."""
    sites = _sheared_sites(d, n)
    cells = sorted(sites)
    all_sites = [sites[c] for c in cells]
    complex_ = {1: {(c,) for c in cells}}
    prev = [(c,) for c in cells]
    for size in range(2, max_size + 1):
        found = []
        prev_set = set(prev)
        if size == 2:
            cands = list(combinations(cells, 2))
        else:
            cands = set()
            for base in prev:
                for extra in cells:
                    if extra <= base[-1]:
                        continue
                    cand = base + (extra,)
                    if all(cand[:i] + cand[i + 1:] in prev_set
                           for i in range(size)):
                        cands.add(cand)
            cands = sorted(cands)
        for cand in cands:
            chosen = [sites[c] for c in cand]
            others = [s for c, s in zip(cells, all_sites) if c not in cand]
            if _cells_share_point(chosen, others, d):
                found.append(cand)
        if not found:
            break
        complex_[size] = set(found)
        prev = found
    return complex_


def _owner(boxes, cell):
    # the box containing the cell, found from the box corners alone
    for i, box in enumerate(boxes):
        if all(a <= c < b for a, b, c in zip(box.lo, box.hi, cell)):
            return i
    return -1


def nerve_of_partition(p, max_size):
    """Box subsets (as sorted tuples) with a common distorted point,
    keyed by dimension (set size minus one) to match DualComplex."""
    K = pixel_complex(p.dim, p.n, max_size)
    out = {}
    for size, tuples in K.items():
        for cand in tuples:
            owners = tuple(sorted({_owner(p.boxes, c) for c in cand}))
            assert all(o >= 0 for o in owners)
            out.setdefault(len(owners) - 1, set()).add(owners)
    return out
