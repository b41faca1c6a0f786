"""Quadratic interior-disjointness check, the oracle for the overlap
check that boxes.validate_partition makes while it fills the owner
grid."""

from itertools import combinations

from rectdual.boxes import Overlap


def check_disjoint_all_pairs(boxes) -> None:
    """Raise Overlap for the first pair of boxes whose interiors meet."""
    for a, b in combinations(boxes, 2):
        if all(al < bh and bl < ah
               for al, ah, bl, bh in zip(a.lo, a.hi, b.lo, b.hi)):
            raise Overlap(a, b)
