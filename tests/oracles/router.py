"""The reception router as it was before its flat-array rewrite.

route is a verbatim copy of that reduction._route: a depth-first search
over cell tuples, with the free/blocked state in a dict and the legs
copied per call.  The package's router must return exactly what this one
returns on every canvas, failed searches (None) included.
"""

from rectdual.reduction import _BLOCK, _HALO, _PERP, _THIN, _VEC, _step


def route(canvas, region, h_in, face, target, own_tag, arm_tag):
    """Find reception legs from an entering corridor to a clause arm.

    region: the block coordinates the legs may use.  target: (arm tail
    cell, allowed final headings).  Returns a list of
    (tail, head, heading) legs; the first starts at the block face and
    continues the open corridor rectangle.  The legs keep off every
    foreign tag, that is every tag but the corridor rectangle they
    continue and the arm they reach, and they may lie next to both.
    Whether they touch where the contact law forbids it, their own arm
    included, is checked on the finished partition by check_gadget_map."""
    T, finals = target
    seen = set()  # (bend, heading) pairs tried; finite, as runs stay in region
    # the canvas does not change during the search, so whether a cell is
    # free (unclaimed, in region, next to no foreign tag) is read once
    free = {}
    mine = set()  # the cells of the legs laid so far

    def is_free(c):
        if c in canvas.occ or (c[0] // _BLOCK, c[1] // _BLOCK) not in region:
            return False
        for dx, dy in _HALO:
            t = canvas.occ.get((c[0] + dx, c[1] + dy))
            if t is not None and t != own_tag and t != arm_tag:
                return False
        return True

    def ok(c):
        f = free.get(c)
        if f is None:
            f = free[c] = is_free(c)
        return f and c not in mine

    def dfs(tail, h, bends, first, legs):
        """The cells this call adds to mine are removed again before it
        returns."""
        for hf in finals:
            if hf != h:
                continue
            head = _step(T, hf, -1)
            v = _VEC[h]
            d = (head[0] - tail[0]) * v[0] + (head[1] - tail[1]) * v[1]
            if (head[0] - tail[0]) * v[1] != (head[1] - tail[1]) * v[0]:
                continue  # off this line
            if d < 0:
                continue
            m = d + 1
            if m < _THIN and not first:
                continue
            if all(ok(_step(tail, h, i)) for i in range(m)):
                return legs + [(tail, head, h)]
        if bends == 0:
            return None
        # greedy: turn toward the arm tail first
        perp = sorted(_PERP[h], key=lambda h2: (
            (T[0] - tail[0]) * _VEC[h2][0] + (T[1] - tail[1]) * _VEC[h2][1]
        ) <= 0)
        # the run grows one cell at a time: ok(cell), inlined on the
        # router's hot path
        vx, vy = _VEC[h]
        x, y = tail
        run = []
        try:
            m = 0
            while True:
                m += 1
                cell = (x, y)
                f = free.get(cell)
                if f is None:
                    f = free[cell] = is_free(cell)
                if not f or cell in mine:
                    return None
                run.append(cell)
                mine.add(cell)
                x += vx
                y += vy
                if m < _THIN and not first:
                    continue
                bend = (x, y)
                for h2 in perp:
                    if (bend, h2) in seen:
                        continue
                    seen.add((bend, h2))
                    got = dfs(bend, h2, bends - 1, False,
                              legs + [(tail, cell, h)])
                    if got:
                        return got
        finally:
            mine.difference_update(run)

    return dfs(face, h_in, 4, True, [])
