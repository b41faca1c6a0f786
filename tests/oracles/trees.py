"""Seeded 2:1-balanced 2^d-trees.

balanced_tree splits cells of [0, 2^depth]^d into 2^d children until
enough leaves exist, and keeps every two leaves that meet within a factor
of two in side length. Edelsbrunner & Kerber, "Dual complexes of cubical
subdivisions of R^n" (DCG 2012), prove that the box centers draw the
dual complex of such a subdivision.
"""

from itertools import product

from rectdual.boxes import IntBox, validate_partition


def balanced_tree(d, depth, leaves, rng):
    """Seeded 2:1-balanced 2^d-tree partition of [0, 2^depth]^d.

    Splits the leaf under a random grid cell until at least `leaves`
    leaves exist. Half of the cells are drawn near one seeded focus, at a
    random scale, so the tree is graded rather than uniform. After every
    split, each leaf that touches a new child (shares a point with it)
    and is more than one level coarser is split in turn, so any two
    leaves that meet differ by at most a factor of two in side length.
    Leaves are keyed by (level, integer coordinates at that level).
    """
    n = 1 << depth
    offsets = [o for o in product((-1, 0, 1), repeat=d) if any(o)]
    corners = list(product((0, 1), repeat=d))
    leaf = {(0, (0,) * d)}

    def find(level, cell):
        # the leaf containing a level-`level` cell, if it is that coarse
        for lv in range(level, -1, -1):
            key = (lv, tuple(x >> (level - lv) for x in cell))
            if key in leaf:
                return key
        return None

    def split(key):
        lv, cell = key
        leaf.remove(key)
        kids = [(lv + 1, tuple(2 * x + b for x, b in zip(cell, bits)))
                for bits in corners]
        leaf.update(kids)
        side = 1 << (lv + 1)
        for klv, kc in kids:
            for off in offsets:
                nb = tuple(x + o for x, o in zip(kc, off))
                if any(x < 0 or x >= side for x in nb):
                    continue
                while True:
                    other = find(klv, nb)
                    if other is None or other[0] >= lv:
                        break
                    split(other)

    focus = tuple(rng.randrange(n) for _ in range(d))
    while len(leaf) < leaves:
        if rng.random() < 0.5:
            cell = tuple(rng.randrange(n) for _ in range(d))
        else:
            reach = max(1, n >> rng.randrange(depth + 1))
            cell = tuple(min(n - 1, max(0, f + rng.randrange(-reach, reach)))
                         for f in focus)
        key = find(depth, cell)
        if key[0] < depth:
            split(key)
    boxes = []
    for lv, cell in sorted(leaf):
        s = 1 << (depth - lv)
        boxes.append(IntBox(tuple(x * s for x in cell),
                            tuple((x + 1) * s for x in cell)))
    return validate_partition(boxes, d, n)
