"""Text formats for partitions, projections and dual complex dumps.

Partition files:
    d n m
    lo_1 hi_1 lo_2 hi_2 ... lo_d hi_d     (one line per box, m lines)
Lines starting with '#' and blank lines are ignored; every other line
is whitespace-separated integers, each token matching -?[0-9]+ (int()
alone would also take 1_0, +1 and non-ASCII digits). Serialization is
canonical (single spaces, trailing newline), so files round-trip
bit-exactly.

parse_partition checks the box lines in bulk: their token counts, the
token grammar over the joined tokens, one int conversion and lo < hi
over the flat list. The boxes are then built by boxes._unchecked_box.
Only when a bulk check fails does it walk the lines in order, so that
the ParseError names the first bad line, as a line-by-line parse would.

Projection files carry one line per box with d doubled coordinates, in
the same box order as the partition they accompany.

Dual dumps list one simplex per line as "k v_0 ... v_k"; top simplices
additionally carry their seed chain after a '|': the anchor vertex and
the axis order as a comma-separated 1-based list.
"""

from __future__ import annotations

import re
from itertools import chain
from operator import lt

from .boxes import IntBox, Partition, _unchecked_box, validate_partition
from .dual import DualComplex
from .embedding import Projection

__all__ = [
    "ParseError", "format_dual", "format_partition", "format_projection",
    "parse_partition", "parse_projection",
]


class ParseError(ValueError):
    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _content_lines(text):
    return [(no, line)
            for no, line in enumerate(map(str.strip, text.splitlines()), 1)
            if line and line[0] != "#"]


_INT_TOKEN = re.compile(r"-?[0-9]+")


def _int_tokens(toks) -> list:
    """The tokens as ints; ValueError unless each matches -?[0-9]+."""
    if not all(map(_INT_TOKEN.fullmatch, toks)):
        raise ValueError("not an integer token")
    return list(map(int, toks))


def _ints(no, line, expect=None):
    try:
        vals = _int_tokens(line.split())
    except ValueError:
        raise ParseError(no, f"expected integers, got {line!r}")
    if expect is not None and len(vals) != expect:
        raise ParseError(no, f"expected {expect} integers, got {len(vals)}")
    return vals


def format_partition(p: Partition) -> str:
    out = [f"{p.dim} {p.n} {len(p.boxes)}"]
    for b in p.boxes:
        flat = []
        for a, c in zip(b.lo, b.hi):
            flat.append(str(a))
            flat.append(str(c))
        out.append(" ".join(flat))
    return "\n".join(out) + "\n"


def parse_partition(text: str) -> Partition:
    lines = _content_lines(text)
    if not lines:
        raise ParseError(0, "empty partition file")
    no, head = lines[0]
    d, n, m = _ints(no, head, expect=3)
    if d < 1 or n < 1 or m < 0:
        raise ParseError(no, f"header needs d >= 1, n >= 1 and m >= 0, got {d} {n} {m}")
    if len(lines) - 1 != m:
        raise ParseError(no, f"header says {m} boxes, file has {len(lines) - 1}")
    boxes = _bulk_boxes([line.split() for _, line in lines[1:]], d)
    if boxes is None:
        boxes = []
        for no, line in lines[1:]:
            vals = _ints(no, line, expect=2 * d)
            try:
                boxes.append(IntBox(tuple(vals[0::2]), tuple(vals[1::2])))
            except ValueError as e:
                raise ParseError(no, str(e))
    return validate_partition(boxes, d, n)


def _bulk_boxes(rows, d):
    """The boxes of the split box lines, each lo_1 hi_1 ... lo_d hi_d; None
    unless there are rows, every row has 2d tokens matching -?[0-9]+, and
    lo < hi on every axis."""
    flat = list(chain.from_iterable(rows))
    joined = "".join(flat)
    if set(map(len, rows)) != {2 * d} or not joined.isascii() or \
            "_" in joined or "+" in joined:
        return None
    try:
        vals = list(map(int, flat))
    except ValueError:
        return None
    los, his = vals[0::2], vals[1::2]
    if not all(map(lt, los, his)):
        return None
    return list(map(_unchecked_box, zip(*[iter(los)] * d),
                    zip(*[iter(his)] * d)))


def format_projection(proj: Projection) -> str:
    return "\n".join(" ".join(str(x) for x in pt) for pt in proj.points2) + "\n"


def parse_projection(text: str) -> Projection:
    pts = []
    d = None
    for no, line in _content_lines(text):
        vals = _ints(no, line)
        if d is None:
            d = len(vals)
        elif len(vals) != d:
            raise ParseError(no, f"expected {d} coordinates, got {len(vals)}")
        pts.append(tuple(vals))
    if not pts:
        raise ParseError(0, "empty projection file")
    return Projection(tuple(pts))


def format_dual(dc: DualComplex) -> str:
    out = []
    for k in sorted(dc.simplices):
        for key in sorted(dc.simplices[k]):
            line = f"{k} " + " ".join(str(v) for v in key)
            if k == dc.dim:
                # every simplex of full dimension carries a seed
                anchor, perm, _ordered, _sign = dc.seed_raw(key)
                permtok = ",".join(str(a + 1) for a in perm)
                line += " | " + " ".join(str(w) for w in anchor) + " " + permtok
            out.append(line)
    return "\n".join(out) + "\n"
