"""Spans around rectdual's public functions, installed from outside.

Tracer.install wraps every public function of every rectdual module, on
each module that holds a reference to it: a caller that imported a
function by name (rectdual.io.validate_partition,
rectdual.solver.orientation, ...) gets its own wrapper, whose span
records that module as its site. Partition.owner_grid is wrapped on the
class. Nothing in the program is edited.

A span is (id, name, site, item, parent id, start, end). Its self time
is its duration minus the time covered by its child spans. The hot
kernels in LEAVES are called up to ~10^5 times per item, so they are
not recorded one span per call; their calls are counted and timed per
enclosing span, and that time counts as covered by a child.

layer_metrics bills each span's self time to the layer metric of the
span's function, or, for a function with no metric of its own, to the
metric its nearest ancestor is billed to.
"""

import functools
import inspect
import json
from time import perf_counter

PACKAGE = "rectdual"
LEAVES = {"dual.orientation", "solver.box_domain"}

# span name -> time metric; a module name stands for all its functions
_TIME_METRIC = {
    "io": "io.parse_s",
    "boxes.validate_partition": "boxes.validate_s",
    "boxes.Partition.owner_grid": "boxes.owner_grid_s",
    "dual.build_dual": "dual.build_s",
    "embedding": "embedding.classify_s",
    "solver": "solver.solve_s",
    "grid3sat": "grid3sat.parse_s",
    "reduction.reduce": "reduction.reduce_s",
    "reduction.check_gadget_map": "reduction.check_s",
    "reduction.projection_from_assignment": "reduction.pinned_s",
    "stabbing.plane_stab": "stabbing.plane_stab_s",
    "stabbing.line_stab": "stabbing.line_stab_s",
    "ratlp": "ratlp.solve_lp_s",
}
_LEAF_METRIC = {("dual.orientation", "embedding"): "embedding.orientation_s"}
_LEAF_CALLS = {
    ("dual.orientation", "embedding"): "embedding.orientation_calls",
    ("dual.orientation", "solver"): "solver.orientation_calls",
}
_SPAN_CALLS = {
    "ratlp.solve_lp": "ratlp.solve_lp_calls",
    "ratlp.strict_feasible": "ratlp.strict_feasible_calls",
}

def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _solver_stats(c, tracer, args, r):
    _add(c, "solver.nodes", r.stats.get("nodes", 0))
    _add(c, "solver.propagations", r.stats.get("propagations", 0))


def _stab_stats(c, tracer, args, r):
    # nested stabbing calls are already counted in the outermost verdict
    if tracer.stack and tracer.stack[-1][1].startswith("stabbing."):
        return
    _add(c, "stabbing.cases", r.cases)
    _add(c, "stabbing.certificate", len(r.certificate))
    _add(c, "stabbing.atom_pruned",
         sum(1 for _, why in r.certificate if why == "sign atoms conflict"))


# counters read from a call's arguments and result
_AFTER = {
    "io.parse_partition": lambda c, t, a, r: _add(c, "io.input_bytes",
                                                  len(a[0])),
    "boxes.validate_partition": lambda c, t, a, r: _add(c, "boxes.boxes",
                                                        len(r.boxes)),
    "dual.build_dual": lambda c, t, a, r: (
        _add(c, "dual.top_simplices", len(r.top_simplices())),
        _add(c, "dual.simplices", sum(len(s) for s in r.simplices.values()))),
    "embedding.classify_projection": lambda c, t, a, r: _add(
        c, "embedding.violations", len(r.violations)),
    "solver.solve": _solver_stats,
    "solver.enumerate_all": _solver_stats,
    "solver.box_domain": lambda c, t, a, r: _add(c, "solver.domain_points",
                                                 len(r)),
    "reduction.reduce": lambda c, t, a, r: _add(c, "reduction.boxes",
                                                len(r[0].boxes)),
    "stabbing.plane_stab": _stab_stats,
    "stabbing.line_stab": _stab_stats,
}


class Tracer:
    def __init__(self, modules, names):
        self.modules = modules
        self.names = names  # the per-layer metrics to report
        # span records: [id, name, site, item, parent id, start, end,
        # time covered by children, {leaf key: [calls, seconds]}]
        self.spans = []     # finished
        self.stack = []     # open
        self.counters = {}
        self.item = None
        self._next_id = 0
        self._patches = []

    def reset(self):
        self.spans, self.stack, self.counters = [], [], {}

    def install(self):
        for mod in self.modules:
            site = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or \
                        not fn.__module__.startswith(PACKAGE):
                    continue
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                self._patch(mod, attr, self._wrap(fn, name, site))
        part = next(m for m in self.modules
                    if m.__name__ == f"{PACKAGE}.boxes").Partition

        def grid_cells(c, args):
            p = args[0]
            if p._owner is None:
                _add(c, "boxes.grid_cells", p.n ** p.dim)

        self._patch(part, "owner_grid",
                    self._wrap(part.owner_grid, "boxes.Partition.owner_grid",
                               "boxes",
                               before=grid_cells))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name, site, before=None):
        after = _AFTER.get(name)
        if name in LEAVES:
            key = (name, site)

            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                start = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - start
                    if self.stack:
                        parent = self.stack[-1]
                        parent[7] += dt
                        stat = parent[8].setdefault(key, [0, 0.0])
                        stat[0] += 1
                        stat[1] += dt
                if after:
                    after(self.counters, self, args, out)
                return out
            return leaf

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before:
                before(self.counters, args)
            parent = self.stack[-1] if self.stack else None
            rec = [self._next_id, name, site, self.item,
                   parent[0] if parent else None, 0.0, 0.0, 0.0, {}]
            self._next_id += 1
            self.stack.append(rec)
            rec[5] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[6] = end = perf_counter()
                self.stack.pop()
                if parent:
                    parent[7] += end - rec[5]
                self.spans.append(rec)
            if after:
                after(self.counters, self, args, out)
            return out
        return span

    def metrics(self):
        return layer_metrics(self.spans, self.counters, self.names)

    def write(self, path, label):
        """Append the finished spans as JSON lines."""
        with open(path, "a") as fh:
            for sid, name, site, item, parent, start, end, covered, leaves in \
                    self.spans:
                fh.write(json.dumps({
                    "run": label, "id": sid, "name": name, "site": site,
                    "item": item, "parent": parent, "start": start,
                    "end": end, "self": end - start - covered,
                    "leaves": {f"{n}@{s}": v for (n, s), v in leaves.items()},
                }) + "\n")


def _own_metric(name):
    return _TIME_METRIC.get(name) or _TIME_METRIC.get(name.split(".", 1)[0])


def layer_metrics(spans, counters, names):
    """The named per-layer times and counts of one traced pass (without
    the overhead ratio, which needs an untraced pass)."""
    out = {name: counters.get(name, 0) for name in names}
    billed = {}  # span id -> metric
    for sid, name, site, item, parent, start, end, covered, leaves in \
            sorted(spans):
        metric = _own_metric(name) or billed.get(parent)
        billed[sid] = metric
        if metric:
            out[metric] += end - start - covered
        if name in _SPAN_CALLS:
            out[_SPAN_CALLS[name]] += 1
        for key, (calls, seconds) in leaves.items():
            if key in _LEAF_CALLS:
                out[_LEAF_CALLS[key]] += calls
            leaf_metric = _LEAF_METRIC.get(key, metric)
            if leaf_metric:
                out[leaf_metric] += seconds
    total = counters.get("stabbing.certificate", 0)
    out["stabbing.atom_pruned_ratio"] = (
        counters.get("stabbing.atom_pruned", 0) / total if total else 0.0)
    return out


def hardware_independent(metrics):
    """The metrics that must repeat exactly from run to run."""
    return {k: v for k, v in metrics.items()
            if not k.endswith("_s") and k != "trace.overhead_ratio"}
