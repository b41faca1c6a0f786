"""Seeded input generators and the partition text formatter.

Generators return boxes as (lo, hi) corner tuples; partition_text turns
them into the text format rectdual.io.parse_partition reads, so the
program under test receives only generated text.
"""

from itertools import product


def random_partition(d, n, rng, stop=0.3):
    """Seeded random guillotine partition of [0,n]^d.

    The same algorithm and random-number sequence as the guillotine
    generator of the test oracles, emitting corner tuples instead of
    validated boxes.
    """
    boxes = []

    def split(lo, hi):
        sides = [h - l for l, h in zip(lo, hi)]
        splittable = [k for k in range(d) if sides[k] >= 2]
        if not splittable or rng.random() < stop:
            boxes.append((tuple(lo), tuple(hi)))
            return
        k = rng.choice(splittable)
        cut = rng.randrange(lo[k] + 1, hi[k])
        mid_hi = list(hi)
        mid_hi[k] = cut
        split(list(lo), mid_hi)
        mid_lo = list(lo)
        mid_lo[k] = cut
        split(mid_lo, list(hi))

    split([0] * d, [n] * d)
    return boxes


def balanced_tree(d, depth, leaves, rng):
    """Seeded 2:1-balanced 2^d-tree subdivision of [0, 2^depth]^d.

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
        boxes.append((tuple(x * s for x in cell),
                      tuple((x + 1) * s for x in cell)))
    return boxes


def cube_image(boxes, n, rng):
    """The partition under a seeded symmetry of the cube [0,n]^d: an axis
    permutation followed by reflections."""
    d = len(boxes[0][0])
    perm = rng.sample(range(d), d)
    flip = [rng.random() < 0.5 for _ in range(d)]
    out = []
    for lo, hi in boxes:
        sides = [(n - hi[a], n - lo[a]) if flip[a] else (lo[a], hi[a])
                 for a in perm]
        out.append((tuple(a for a, _ in sides), tuple(b for _, b in sides)))
    return out


def partition_boxes(p):
    """Corner tuples of the boxes of a rectdual Partition."""
    return [(tuple(b.lo), tuple(b.hi)) for b in p.boxes]


def partition_text(d, n, boxes):
    lines = [f"{d} {n} {len(boxes)}"]
    for lo, hi in boxes:
        lines.append(" ".join(f"{a} {b}" for a, b in zip(lo, hi)))
    return "\n".join(lines) + "\n"
