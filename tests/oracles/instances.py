"""Seeded grid3sat instances with breadth-first routed paths.

random_grid3sat draws a grid of side 2 to 4, one to three variables and
one to three clauses on distinct grid points, then wires each clause to
three paths, one at a time: each picks a variable that feeds fewer than
four paths and follows a shortest route, by breadth-first search in a
shuffled neighbour order, through the grid points no terminal or earlier
path holds. A route whose first step its variable already uses, or whose
last step its clause already receives, is not taken. A draw that leaves
a clause unwired is thrown away and drawn again from the same generator,
so every instance returned passes grid3sat._validate.
"""

from collections import deque

from rectdual.grid3sat import Clause, Grid3SatInstance, Path, Variable, _validate


def _neighbours(pt, n):
    x, y = pt
    for q in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
        if 0 <= q[0] <= n and 0 <= q[1] <= n:
            yield q


def _shortest_route(rng, n, start, goal, blocked, firsts, lasts):
    """The interior points of a shortest route from start to goal through
    points outside blocked, or None; its first step must not be in firsts
    nor its last step in lasts."""
    prev = {start: None}
    queue = deque([start])
    while queue:
        pt = queue.popleft()
        steps = list(_neighbours(pt, n))
        rng.shuffle(steps)
        for q in steps:
            if q in prev or (pt == start and q in firsts):
                continue
            if q == goal:
                if pt in lasts:
                    continue
                route = []
                while pt != start:
                    route.append(pt)
                    pt = prev[pt]
                return tuple(reversed(route))
            if q not in blocked:
                prev[q] = pt
                queue.append(q)
    return None


def _draw(rng):
    n = rng.randint(2, 4)
    nv, nc = rng.randint(1, 3), rng.randint(1, 3)
    spots = [(x, y) for x in range(n + 1) for y in range(n + 1)]
    rng.shuffle(spots)
    variables = tuple(Variable(i, spots[i]) for i in range(nv))
    clauses = []
    paths = []
    blocked = set(spots[:nv + nc])
    firsts = {v.id: set() for v in variables}
    for cid in range(nc):
        goal = spots[nv + cid]
        lasts = set()
        pids = []
        for _ in range(3):
            free = [v for v in variables if len(firsts[v.id]) < 4]
            if not free:
                return None
            v = rng.choice(free)
            route = _shortest_route(rng, n, v.point, goal, blocked,
                                    firsts[v.id], lasts)
            if route is None:
                return None
            firsts[v.id].add(route[0] if route else goal)
            lasts.add(route[-1] if route else v.point)
            blocked.update(route)
            pids.append(len(paths))
            paths.append(Path(len(paths), v.id, cid, rng.choice((1, -1)),
                              route))
        clauses.append(Clause(cid, goal, tuple(pids)))
    return Grid3SatInstance(n, variables, tuple(clauses), tuple(paths))


def random_grid3sat(rng):
    """A seeded instance that passes grid3sat._validate."""
    while True:
        inst = _draw(rng)
        if inst is not None:
            _validate(inst)
            return inst
