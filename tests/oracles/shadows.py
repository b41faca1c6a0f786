"""Reference yz-shadows of the 3d meeting configurations, found by LPs.

A frozen copy of the construction rectdual.stabbing replaced with the
face-code rule: each shadow edge and vertex is kept or excluded after a
strict feasibility LP over the fiber of a sample point. The equivalence
test compares the rule against it.
"""

from rectdual.ratlp import strict_feasible
from rectdual.stabbing import (
    FlaggedConvexSet,
    UnsupportedShape,
    face_functional,
    hull2d,
)


def _in_fiber(fset: FlaggedConvexSet, axes, sample, functionals) -> bool:
    """Does the set have a point whose coordinates on `axes` are `sample`?

    The point is a convex combination w of the vertices.  Every excluded
    face a.x = c, given by its functional (a, c), becomes the strict row
    sum_j (a.v_j - c) w_j < 0: the point lies off the face."""
    verts = fset.vertices
    m = len(verts)
    eq = [([1] * m, 1)]
    for axis, x in zip(axes, sample):
        eq.append(([v[axis] for v in verts], x))
    weak = []
    for j in range(m):
        row = [0] * m
        row[j] = -1
        weak.append((row, 0))
    strict = [([sum(ai * vi for ai, vi in zip(a, v)) - c for v in verts], 0)
              for a, c in functionals]
    return strict_feasible(m, eq, weak, strict)[0]


def project_to_yz(problem):
    """Exact shadows of the four sets on the last two coordinates.

    The shadow hull is the hull of projected vertices; each face of the
    shadow is kept or excluded according to whether some preimage of a
    relative-interior sample avoids all excluded faces upstairs (a
    strict rational feasibility question over the fiber). Raises if the
    shadow is not itself hull-minus-faces.
    """
    shadows = []
    for fset in problem.sets:
        proj = [(v[1], v[2]) for v in fset.vertices]
        hull = hull2d(proj)
        functionals = [face_functional(fset, f) for f in fset.excluded_faces]

        def fiber_included(sample):
            return _in_fiber(fset, (1, 2), sample, functionals)

        k = len(hull)
        edges = [(i, (i + 1) % k) for i in range(k)] if k > 2 else []
        excluded_edges = []
        for i, j in edges:
            mid = tuple((a + c) / 2 for a, c in zip(hull[i], hull[j]))
            if not fiber_included(mid):
                excluded_edges.append((i, j))
        for idx, v in enumerate(hull):
            on_excluded = any(idx in e for e in excluded_edges)
            if fiber_included(v) == on_excluded:
                raise UnsupportedShape(
                    "shadow is not a hull minus whole faces")
        if k > 2:
            cen = tuple(sum(v[i] for v in hull) / k for i in range(2))
            if not fiber_included(cen):
                raise UnsupportedShape("shadow interior is not included")
        shadows.append(FlaggedConvexSet(
            tuple(hull), tuple(tuple(sorted(e)) for e in excluded_edges)))
    unique = []
    for s in shadows:
        if s not in unique:
            unique.append(s)
    return tuple(unique)
