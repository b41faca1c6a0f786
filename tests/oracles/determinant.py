"""Orientation by the Leibniz expansion, deliberately naive.

It shares no code with rectdual: the determinant of the (d+1)x(d+1)
matrix whose rows are (1, p_i) is summed over all permutations, each
term signed by its inversion count. Exact for ints and Fractions."""

from itertools import permutations


def leibniz_det(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def orientation_sign(points):
    """Sign of det [(1, p_0), ..., (1, p_d)] for d+1 points of dimension d."""
    v = leibniz_det([(1,) + tuple(p) for p in points])
    return (v > 0) - (v < 0)
