"""Frozen chain enumerator: the generic d-dimensional pixel-chain walk as
it stood before the dual complex moved onto the padded owner grid.

It shares no code with rectdual beyond reading the partition's boxes:
the owner map is rebuilt here from the box corners, and the vertex walk,
the owner lookup with its bounds checks, the seed registration and the
downward closure are kept verbatim. dual_of returns the top simplices
(sorted ids -> (anchor, perm, ordered ids), in insertion order) and the
simplex sets, keyed by dimension like DualComplex.simplices.
window_seeds runs the same walk on the 2^d cells around one vertex.
"""

from itertools import permutations, product
from types import SimpleNamespace


class SeedConflict(Exception):
    pass


def _perm_parity(perm) -> int:
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv & 1 else 1


def _register_top(top, key, ordered, anchor, perm):
    canon = _perm_parity(perm) * _perm_parity(ordered)
    prev = top.get(key)
    if prev is None:
        top[key] = (anchor, perm, ordered)
        return
    p_anchor, p_perm, p_ordered = prev
    p_canon = _perm_parity(p_perm) * _perm_parity(p_ordered)
    if p_canon != canon:
        raise SeedConflict(f"simplex {key} seen with both orientations")


def _owner_grid(p):
    # flat, unpadded cell -> box id map rebuilt from the box corners
    d, n = p.dim, p.n
    owner = [-1] * (n ** d)
    for bid, box in enumerate(p.boxes):
        for cell in product(*(range(a, b) for a, b in zip(box.lo, box.hi))):
            idx = 0
            for c in cell:
                idx = idx * n + c
            owner[idx] = bid
    return owner


def _chains_generic(p):
    d, n = p.dim, p.n
    owner = _owner_grid(p)
    top = {}
    lower = set()
    perms = [tuple(pi) for pi in permutations(range(d))]
    # bitmask prefixes per permutation: cell shifts visited along the chain
    prefix_masks = []
    for pi in perms:
        masks = [0]
        acc = 0
        for axis in pi:
            acc |= 1 << axis
            masks.append(acc)
        prefix_masks.append(masks)
    shifts = list(range(1 << d))

    def owners_around(w):
        out = []
        for s in shifts:
            cell = []
            ok = True
            for k in range(d):
                c = w[k] - 1 + ((s >> k) & 1)
                if c < 0 or c >= n:
                    ok = False
                    break
                cell.append(c)
            if not ok:
                out.append(-1)
            else:
                idx = 0
                for c in cell:
                    idx = idx * n + c
                out.append(owner[idx])
        return out

    def vertices():
        w = [0] * d
        while True:
            yield tuple(w)
            i = d - 1
            while i >= 0 and w[i] == n:
                w[i] = 0
                i -= 1
            if i < 0:
                return
            w[i] += 1

    for w in vertices():
        around = owners_around(w)
        for pi, masks in zip(perms, prefix_masks):
            a = [around[msk] for msk in masks]
            a = [v for v in a if v >= 0]
            if not a:
                continue
            dd = [a[0]]
            for v in a[1:]:
                if v != dd[-1]:
                    dd.append(v)
            if len(dd) == d + 1:
                _register_top(top, tuple(sorted(dd)), tuple(dd), w, pi)
            else:
                lower.add(tuple(sorted(set(dd))))
    return top, lower


def dual_of(p):
    d = p.dim
    top, lower = _chains_generic(p)
    m = len(p.boxes)
    simplices = {k: set() for k in range(d + 1)}
    simplices[d] = set(top.keys())
    for s in lower:
        simplices[len(s) - 1].add(s)
    # downward closure
    for k in range(d, 1, -1):
        target = simplices[k - 1]
        for s in simplices[k]:
            for i in range(k + 1):
                target.add(s[:i] + s[i + 1 :])
    simplices[0] = {(i,) for i in range(m)}
    return top, simplices


def window_seeds(boxes, w):
    """The top simplices of boxes on the 2^d cells around the grid
    vertex w: each box clipped to [w - 1, w + 1]^d and shifted to
    [0, 2]^d, where the clipped boxes must tile the window. Returns
    sorted ids -> (ordered ids, sign), in insertion order; sign is the
    parity of the chain's axis order times that of the ordered ids, so
    a seed (w, pi, ordered, s) of the same simplex agrees when s times
    the parity of ordered equals it."""
    window = [SimpleNamespace(lo=tuple(max(x, c - 1) - c + 1
                                       for x, c in zip(box.lo, w)),
                              hi=tuple(min(x, c + 1) - c + 1
                                       for x, c in zip(box.hi, w)))
              for box in boxes]
    cells = [cell for box in window
             for cell in product(*map(range, box.lo, box.hi))]
    if sorted(cells) != list(product(range(2), repeat=len(w))):
        raise ValueError(f"the boxes do not tile the window around {w}")
    top, _ = dual_of(SimpleNamespace(dim=len(w), n=2, boxes=window))
    return {key: (ordered, _perm_parity(perm) * _perm_parity(ordered))
            for key, (_, perm, ordered) in top.items()}
