"""The center-drawing theorems on generated partitions.

Box centers draw the dual complex of a 2:1-balanced 2^d-tree
(Edelsbrunner & Kerber, DCG 2012), and of every planar partition whose
balance is below 3, the least b at which line_stab is feasible.  A
partition for which center_embeddable says otherwise is a finding: the
assertion message carries it in the partition text format.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectdual.boxes import IntBox, is_generic, validate_partition
from rectdual.dual import build_dual, partition_balance
from rectdual.embedding import Violation, center_embeddable
from rectdual.io import format_partition
from rectdual.solver import SAT, solve

from oracles.partitions import random_partition, random_pixel_fill
from oracles.trees import balanced_tree

# (d, depth, most leaves asked for): about 10 ms a tree at d = 3 and
# 40 ms at d = 4
TREES = {2: (5, 120), 3: (3, 60), 4: (2, 40)}


@pytest.mark.parametrize("d", sorted(TREES))
@settings(derandomize=True, max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_centers_draw_balanced_trees(d, seed):
    depth, most = TREES[d]
    rng = random.Random(seed)
    p = balanced_tree(d, depth, rng.randint(2, most), rng)
    assert center_embeddable(p).kind == "embedding", format_partition(p)


def _planar_below_three():
    """Seeded guillotine and pixel-filled partitions of the plane with
    a top simplex and balance below 3."""
    candidates = [random_partition(2, n, random.Random(seed), stop=0.1)
                  for n in (4, 6, 8) for seed in range(60)]
    candidates += [random_pixel_fill(n, random.Random(seed))
                   for n in (3, 4, 5, 6) for seed in range(10)]
    for p in candidates:
        dc = build_dual(p)
        if dc.has_top() and partition_balance(p).value < 3:
            yield p


def test_centers_draw_planar_partitions_below_balance_three():
    count = 0
    for p in _planar_below_three():
        assert center_embeddable(p).kind == "embedding", format_partition(p)
        count += 1
    assert count >= 20


def test_the_planar_bound_three_is_reached():
    # one of the four 6-box partitions among the 246 center failures of
    # the 4 x 4 rectangulations (enumerate_rectangulations(2, 4), about
    # 10 s, so the sweep itself is not run here): its balance is exactly
    # 3, four boxes meet at (1, 3), and the centers of boxes 0, 3 and 4
    # fall on one line; a half-integral drawing still exists
    p = validate_partition([IntBox(lo, hi) for lo, hi in [
        ((0, 0), (1, 3)), ((0, 3), (1, 4)), ((1, 0), (2, 2)),
        ((1, 2), (2, 3)), ((1, 3), (4, 4)), ((2, 0), (4, 3))]], 2, 4)
    assert partition_balance(p).value == 3
    assert is_generic(p) == (False, (1, 3)) and not is_generic(p)
    v = center_embeddable(p)
    assert v.kind == "not_embedding"
    assert v.violations == (Violation((0, 3, 4), expected=1, actual=0),)
    assert solve(p).status == SAT
