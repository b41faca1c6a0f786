"""Reference for the solver's constraint root: build_dual's full top
walk, filtered by the one-box lemma. check_root compares a partition's
root with it."""

from itertools import product

from rectdual import dual, solver
from rectdual.boxes import vertex_owners
from rectdual.dual import build_dual
from rectdual.solver import box_domain


def lemma_seeds(p):
    """(sorted ids, seed) of every top simplex with two or more boxes
    larger than a pixel, in the order of the full walk; a seed is
    (anchor, axis order, ordered ids, sign)."""
    dc = build_dual(p)
    big = [not b.is_pixel() for b in p.boxes]
    return [(key, dc.seed_raw(key)) for key in dc.top_simplices()
            if sum(big[i] for i in key) > 1]


def lower_face_vertices(p, boxes):
    """The interior grid vertices of p on a lower face of one of the
    boxes, sorted."""
    found = set()
    for box in boxes:
        for k in range(p.dim):
            found.update(product(*(
                (box.lo[j],) if j == k else range(box.lo[j], box.hi[j] + 1)
                for j in range(p.dim))))
    return sorted(w for w in found if all(0 < x < p.n for x in w))


def check_root(p):
    """Assert that the root of p, built from the interior vertices on the
    lower faces of its boxes larger than a pixel, keeps exactly the
    reference's simplices in its order, with its seeds, ordered ids and
    signs, and lists domains for exactly the larger boxes and the pixels
    those simplices name. Returns the number of constraints."""
    want = lemma_seeds(p)
    root = solver._Root(p, None)
    assert root.constraints == [(ordered, sign)
                                for _, (_, _, ordered, sign) in want]
    free = [i for i, b in enumerate(p.boxes) if not b.is_pixel()]
    assert root.free == free
    faces = list(solver._lower_faces(p.boxes[i] for i in free))
    pairs = list(vertex_owners(p.dim, p.n, p.owner_grid(), faces))
    assert [w for w, _ in pairs] == lower_face_vertices(
        p, [p.boxes[i] for i in free])
    big = set(free)
    seeds = dual._seeds(p.dim, pairs)
    assert [(key, seed) for key, seed in seeds.items()
            if len(big.intersection(key)) > 1] == want
    listed = big.union(*(ordered for _, (_, _, ordered, _) in want))
    assert list(root.domains) == sorted(listed)
    assert all(dom == box_domain(p.boxes[i])
               for i, dom in root.domains.items())
    return len(want)
