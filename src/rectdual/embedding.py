"""Projections of dual complexes back into the box partition.

A projection places one half-integral point in the interior of every box
(its vertex). It is an embedding when every top-dimensional simplex keeps
the orientation of its seed; degenerate simplices (orientation 0) never
count as preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boxes import Partition
from .dual import DimensionMismatch, DualComplex, build_dual

__all__ = [
    "EmbeddingVerdict", "NotFaithful", "NotHalfIntegral", "Projection",
    "Violation", "center_embeddable", "center_projection", "check_faithful",
    "classify_projection",
]


class NotFaithful(ValueError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"vertex of box {vertex} is not strictly inside the box")


class NotHalfIntegral(ValueError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"vertex of box {vertex} is not half-integral")


@dataclass(frozen=True)
class Projection:
    """One point per box, stored in doubled coordinates."""

    points2: tuple  # tuple of d-tuples of ints, indexed by box id

    def __post_init__(self):
        object.__setattr__(self, "points2", tuple(tuple(p) for p in self.points2))


@dataclass(frozen=True)
class Violation:
    simplex: tuple
    expected: int
    actual: int


@dataclass(frozen=True)
class EmbeddingVerdict:
    kind: str  # "embedding" | "not_embedding" | "unsupported"
    violations: tuple = ()

    @property
    def is_embedding(self) -> bool:
        return self.kind == "embedding"

    def __bool__(self) -> bool:
        return self.is_embedding


def center_projection(p: Partition) -> Projection:
    # box centers are always half-integral and strictly interior
    return Projection(tuple(b.center2() for b in p.boxes))


def check_faithful(p: Partition, proj: Projection) -> None:
    """Raise unless proj has one point of p.dim int coordinates per box,
    each strictly inside its box (NotHalfIntegral names the first box
    whose point has a coordinate that is not an int, NotFaithful the
    first whose point lies outside)."""
    points = proj.points2
    if len(points) != len(p.boxes):
        raise ValueError("projection has wrong number of vertices")
    if points and set(map(len, points)) != {p.dim}:
        raise DimensionMismatch(f"projection points need {p.dim} coordinates")
    for i, (box, pt) in enumerate(zip(p.boxes, points)):
        for a, b, x in zip(box.lo, box.hi, pt):
            if type(x) is not int:
                raise NotHalfIntegral(i)
            if not 2 * a < x < 2 * b:
                raise NotFaithful(i)


def classify_projection(p: Partition, proj: Projection) -> EmbeddingVerdict:
    """Check faithfulness, then the orientation of every top simplex of
    build_dual(p), the dual complex cached on p."""
    check_faithful(p, proj)
    dc = build_dual(p)
    if not dc.has_top():
        return EmbeddingVerdict("unsupported")
    violations = tuple(Violation(*v) for v in dc.misoriented(proj.points2))
    if violations:
        return EmbeddingVerdict("not_embedding", violations)
    return EmbeddingVerdict("embedding")


def center_embeddable(p: Partition, dc: DualComplex = None) -> EmbeddingVerdict:
    """Classify the center projection of p.

    dc may only be build_dual(p) itself; any other complex, even that of
    an equal partition, raises ValueError."""
    if dc is not None and dc is not build_dual(p):
        raise ValueError("dual complex of another partition")
    return classify_projection(p, center_projection(p))
