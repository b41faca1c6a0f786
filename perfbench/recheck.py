"""Independent re-check of the program's verdicts.

Runs outside the timed pass. It has its own partition parser, owner
grid, monotone-chain enumeration of top simplices and exact integer
determinant (fraction-free Bareiss elimination), and imports nothing
from rectdual. Every check returns a list of problems; empty means the
verdict stands.
"""

from fractions import Fraction
from itertools import permutations, product


def det(rows) -> int:
    """Exact determinant of a square integer matrix (Bareiss)."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def orient(points) -> int:
    """Sign of det(p_i - p_0), i = 1..d, for d+1 points in Z^d."""
    p0 = points[0]
    v = det([[a - b for a, b in zip(p, p0)] for p in points[1:]])
    return (v > 0) - (v < 0)


def _parity(seq) -> int:
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
              if seq[i] > seq[j])
    return -1 if inv & 1 else 1


def parse_partition(text):
    """(d, n, boxes) from the partition text format; boxes as (lo, hi)."""
    rows = [line.split() for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]
    d, n, m = (int(x) for x in rows[0])
    boxes = []
    for row in rows[1:]:
        vals = [int(x) for x in row]
        boxes.append((tuple(vals[0::2]), tuple(vals[1::2])))
    if len(boxes) != m or any(len(lo) != d for lo, _ in boxes):
        raise ValueError("malformed partition text")
    return d, n, boxes


def top_simplices(d, n, boxes):
    """Top simplices of the dual complex, each with the orientation its
    box centers must have when listed in sorted id order.

    Returns (tops, problems). A chain of pixels around a grid vertex,
    stepping along the axes in order perm, witnesses a top simplex when
    its d+1 cells lie in d+1 distinct boxes; the pixel centers of the
    chain have orientation parity(perm), and reordering the chain's boxes
    into sorted order multiplies that by the parity of the reordering.
    """
    problems = []
    w = n + 2  # owner grid padded by one layer of -1 on every side
    strides = [w ** (d - 1 - k) for k in range(d)]
    owner = [-1] * (w ** d)
    for bid, (lo, hi) in enumerate(boxes):
        for cell in product(*(range(a, b) for a, b in zip(lo, hi))):
            idx = sum((c + 1) * s for c, s in zip(cell, strides))
            if owner[idx] != -1:
                problems.append(f"boxes {owner[idx]} and {bid} overlap")
                return {}, problems
            owner[idx] = bid
    if n ** d != sum(1 for x in owner if x >= 0):
        problems.append("boxes do not cover the cube")
    # around[s]: owner of the cell w - 1 + bits(s) around grid vertex w
    shift = [sum(s for k, s in enumerate(strides) if (bits >> k) & 1)
             for bits in range(1 << d)]
    chains = []
    for perm in permutations(range(d)):
        masks, acc = [0], 0
        for axis in perm:
            acc |= 1 << axis
            masks.append(acc)
        chains.append((masks, _parity(perm)))
    tops = {}
    for vert in product(range(n + 1), repeat=d):
        base = sum(v * s for v, s in zip(vert, strides))
        around = [owner[base + s] for s in shift]
        if len(set(around)) < d + 1:
            continue
        for masks, par in chains:
            chain = [around[m] for m in masks]
            if -1 in chain or len(set(chain)) != d + 1:
                continue
            key = tuple(sorted(chain))
            sign = par * _parity(chain)
            if tops.setdefault(key, sign) != sign:
                problems.append(f"simplex {key} seen with both orientations")
    return tops, problems


def violations(tops, points2):
    """{simplex: (required sign, actual sign)} for every top simplex the
    doubled points do not orient as required."""
    out = {}
    for key, want in tops.items():
        got = orient([points2[i] for i in key])
        if got != want:
            out[key] = (want, got)
    return out


def check_center(text, verdict, dc):
    """Re-derive the center-projection verdict from the input text and
    compare kind, top simplices and violations with the program's."""
    d, n, boxes = parse_partition(text)
    tops, problems = top_simplices(d, n, boxes)
    centers = [tuple(a + b for a, b in zip(lo, hi)) for lo, hi in boxes]
    bad = violations(tops, centers)
    kind = "unsupported" if not tops else (
        "not_embedding" if bad else "embedding")
    if verdict.kind != kind:
        problems.append(f"verdict {verdict.kind}, re-check says {kind}")
    if set(dc.top_simplices()) != set(tops):
        problems.append(f"{len(dc.top_simplices())} top simplices, "
                        f"re-check finds {len(tops)}")
    # expected*actual does not depend on the order a simplex is listed in
    got = {v.simplex: v.expected * v.actual for v in verdict.violations}
    if got != {k: e * a for k, (e, a) in bad.items()}:
        problems.append(f"{len(got)} violations, re-check finds {len(bad)}")
    return problems


def check_certificate(boxes, tops, points2):
    """A placement is an embedding certificate: one doubled point strictly
    inside every box, and every top simplex keeps its orientation."""
    if len(points2) != len(boxes):
        return ["certificate has the wrong number of points"]
    problems = []
    for i, ((lo, hi), pt) in enumerate(zip(boxes, points2)):
        if not all(2 * a < x < 2 * b for a, b, x in zip(lo, hi, pt)):
            problems.append(f"point of box {i} is not strictly inside it")
            break
    bad = violations(tops, points2)
    if bad:
        problems.append(f"certificate flips {len(bad)} top simplices")
    return problems


# closed-form descriptions of the flagged sets (unit short side)

def _in_regular(i, b, pt):
    x, y, z = pt
    if i == 0:
        return x == y == z and -b <= x <= -1
    if i == 1:
        return y == z == -x and 1 <= x <= b
    if i == 2:
        return z == -y and 1 <= y <= b and abs(x) < y
    return 1 <= z <= b and abs(x) < z and abs(y) < z


def _in_planar(i, b, pt):
    h, q = b / 2, Fraction(1, 2)
    x, y = pt
    if i == 0:
        return -h <= x <= -q and -h <= y <= -q
    if i == 1:
        return -h <= x <= -q and q <= y <= h
    return q <= x <= h and -h < y <= h


_MEMBER = {"regular": _in_regular, "planar": _in_planar}


def check_stab(family, b, verdict):
    """A feasible verdict's witness hyperplane must have a non-zero normal
    and pass through one point of every set. An infeasible verdict is not
    re-solved: it rests on its known answer, and is only checked to give
    a reason for every sign case it counted."""
    if verdict.status != "feasible":
        if len(verdict.certificate) != verdict.cases or \
                not all(why for _, why in verdict.certificate):
            return ["infeasible verdict does not refute every case"]
        return []
    member = _MEMBER.get(family)
    if member is None:
        return [f"no membership test for a feasible {family} verdict"]
    coeffs = verdict.witness
    problems = []
    if not any(coeffs[:-1]):
        problems.append("witness hyperplane has a zero normal")
    for i, pt in enumerate(verdict.witness_points):
        if sum(c * x for c, x in zip(coeffs, pt)) + coeffs[-1] != 0:
            problems.append(f"witness point {i} is off the hyperplane")
        if not member(i, Fraction(b), pt):
            problems.append(f"witness point {i} is outside set {i}")
    if len(verdict.witness_points) != {"regular": 4, "planar": 3}[family]:
        problems.append("witness does not cover every set")
    return problems
