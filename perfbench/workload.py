"""One workload in one process: set-up, timed passes, re-check, report.

run.py starts this file once per workload. The loop is closed: one
caller runs the workload's fixed item list back to back, pass after
pass, until the time budget is spent; the last pass may stop part-way
through the list. Human-readable lines come first; the last line of
output is one JSON object. Metric names and units come from
BENCHMARK.json.

The host's speed drifts by up to a factor of two over minutes, so an
item's wall time alone does not repeat from run to run. Each item run
is followed by runs of the probe (probe.py), fixed work in the
benchmark's own code, for at least half as long as the item took; the
item's time is its wall time over the probe's mean run around it, in
reference seconds, and each item's figure is the median over the
passes.

Each item is judged right after its first run, outside the timed
region: its verdict against the known answer, and its output by the
re-check, which runs in a forked child so that its memory does not
count in this process's peak RSS. The output is then dropped, so the
peak is the program's working set for one item at a time. Later runs
must give the same result as the first.

With --trace 1 the same items run untraced for half the budget, then at
least twice under the tracer; the per-layer metrics come from the first
traced pass, and every traced pass must repeat its hardware-independent
counters exactly.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# set-up runs several times (see main)
SETUP_REPS = 5
# each item run is followed by probe runs lasting at least this share of it
PROBE_SHARE = 0.5
MODULES = ("boxes", "dual", "embedding", "solver", "ratlp", "stabbing", "io",
           "grid3sat", "reduction", "counterexamples")


def metric_units():
    """{name: unit} of the end-to-end and of the per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


class Pass:
    def __init__(self):
        self.busy = 0.0  # seconds spent running items and probes
        self.raw = []    # each item's wall time
        self.rel = []    # each item's time in reference seconds
        self.layers = None


def attempt(workloads, item, ctx):
    """Run one item; an exception becomes an "error" outcome."""
    try:
        return workloads.run_item(item, ctx)
    except Exception as e:  # any raise is a failed item, not a crash
        return workloads.Outcome("error", ("error", repr(e)),
                                 traceback.format_exc())


def apart(fn):
    """fn() -> list of problems, run in a forked child."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(rfd)
            try:
                problems = fn()
            except Exception as e:  # a re-check that cannot run fails
                problems = [f"re-check raised {e!r}"]
            with os.fdopen(wfd, "w") as fh:
                json.dump(problems, fh)
        finally:
            os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd) as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    return json.loads(data) if data else ["the re-check process died"]


def judge(workloads, item, out):
    """What is wrong with an item's first outcome."""
    if out.verdict == "error":
        print(out.detail or "", file=sys.stderr)
        return [out.key[1]]
    if out.verdict == "timeout":
        return ["solver hit its node limit"]
    problems = []
    if item.expect is not None and out.verdict != item.expect:
        problems.append(f"verdict {out.verdict}, known answer {item.expect}")
    return problems + apart(lambda: workloads.recheck_outcome(item, out))


def run_passes(workloads, items, meter, budget, min_passes, problems,
               reference=None, tracer=None, span_file=None):
    """Passes over the items until budget seconds of runs are spent.

    The first min_passes passes are whole; after them, a pass stops at the
    first item that would start past the budget, so the last pass may
    reach only some items. Each item runs once per pass, timed by the
    meter in reference seconds. Every run must give the same result as
    the first. With no reference, each item's first outcome is judged
    and becomes the reference. Whatever is wrong with item i is appended
    to problems[i].
    """
    passes = []
    spent = 0.0
    if reference is None:
        reference = []
    while True:
        ps = Pass()
        ctx = {}
        if tracer:
            tracer.reset()
        for idx, item in enumerate(items):
            if len(passes) >= min_passes and spent + ps.busy >= budget:
                break
            if tracer:
                tracer.item = idx
            # garbage left by the item before is not this item's cost
            gc.collect()
            t = perf_counter()
            out = attempt(workloads, item, ctx)
            took = perf_counter() - t
            rel, probing = meter.measure(took)
            ps.raw.append(took)
            ps.rel.append(rel)
            ps.busy += took + probing
            if len(reference) == idx:
                problems[idx] += judge(workloads, item, out)
                reference.append(out.key)
            elif out.key != reference[idx]:
                problems[idx].append(
                    f"pass {len(passes) + 1} gives a different result")
            del out  # the peak RSS is one item's working set at a time
        if tracer and len(ps.rel) == len(items):
            ps.layers = tracer.metrics()
            tracer.write(span_file, f"pass{len(passes) + 1}")
        passes.append(ps)
        spent += ps.busy
        if len(passes) >= min_passes and spent >= budget:
            return passes, reference


def per_item(passes, n, field):
    """Each of the n items' median of field over the passes that reached
    it."""
    return [statistics.median(getattr(p, field)[i] for p in passes
                              if i < len(p.rel))
            for i in range(n)]


def import_seconds():
    """Time to import the program and the benchmark in a fresh interpreter."""
    code = ("import sys, time; t = time.perf_counter(); "
            f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import workloads; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    return float(proc.stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    end_to_end, per_layer = metric_units()

    sys.path.insert(0, str(SRC))
    import rectdual
    if not Path(rectdual.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"rectdual was imported from {rectdual.__file__}, "
                 f"not from {SRC}")
    import spans
    import workloads

    build = workloads.WORKLOADS[args.workload]
    meter = probe.Meter(PROBE_SHARE)
    # the import time does not follow the probe (it varies as much, but
    # not with it), so it counts as is, the fastest of the set-ups;
    # generating the inputs is pure Python and counts in reference seconds
    imports, gens, gens_raw, items = [], [], [], None
    for _ in range(1 if args.trace else SETUP_REPS):
        imports.append(import_seconds())
        t = perf_counter()
        got = build(args.seed)
        gens_raw.append(perf_counter() - t)
        gens.append(meter.measure(gens_raw[-1])[0])
        if items is not None and got != items:
            sys.exit("input generation is not deterministic")
        items = got
    setup_s = min(imports) + statistics.median(gens)

    problems = [[] for _ in items]
    budget = args.seconds / 2 if args.trace else args.seconds
    plain, reference = run_passes(workloads, items, meter, budget, 1,
                                  problems)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    traced = []
    if args.trace:
        modules = [rectdual] + [sys.modules[f"rectdual.{m}"] for m in MODULES]
        tracer = spans.Tracer(modules, per_layer)
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"trace_{args.workload}_{args.seed}.jsonl"
        span_file.unlink(missing_ok=True)
        tracer.install()
        try:
            traced, _ = run_passes(workloads, items, meter, budget, 2,
                                   problems,
                                   reference=reference, tracer=tracer,
                                   span_file=span_file)
        finally:
            tracer.uninstall()

    failures = {item.label: found for item, found in zip(items, problems)
                if found}
    for label, found in failures.items():
        print(f"FAILED {args.workload} {label}: {'; '.join(found)}",
              file=sys.stderr)
    correct = not failures
    rel = per_item(plain, len(items), "rel")
    raw = per_item(plain, len(items), "raw")
    print(f"workload {args.workload} seed {args.seed}: {len(items)} items, "
          f"one closed-loop caller, {len(plain)} untraced passes")
    print(f"  fail_ratio    {len(failures)}/{len(items)}")
    print(f"  wall time     inputs {statistics.median(gens_raw):.4f} s, "
          f"{sum(raw):.4f} s to all verdicts, median item "
          f"{statistics.median(raw):.4f} s (medians; not metrics, they move "
          f"with the host's speed)")

    if args.trace:
        counts = [spans.hardware_independent(p.layers) for p in traced
                  if p.layers]
        for k, c in enumerate(counts[1:], 2):
            if c != counts[0]:
                diff = sorted(n for n in c if c[n] != counts[0][n])
                print(f"NONDETERMINISTIC: traced pass {k} changes {diff}",
                      file=sys.stderr)
                correct = False
        metrics = dict(traced[0].layers)
        metrics["trace.overhead_ratio"] = (
            sum(per_item(traced, len(items), "rel")) / sum(rel))
        units = per_layer
        notes = {"trace.overhead_ratio": f"{len(counts)} whole traced passes, "
                                         f"spans in {span_file.name}"}
    else:
        metrics = {
            "setup_s": setup_s,
            "run_s": sum(rel),
            "verdict_p50_s": statistics.median(rel),
            "peak_rss_mb": peak_rss_mb,
        }
        units = end_to_end
        notes = {
            "setup_s": f"imports {min(imports):.4f} s (fastest of "
                       f"{len(imports)}) + inputs {statistics.median(gens):.4f}"
                       f" s (median)",
            "run_s": f"{len(rel)} items, each the median of its "
                     f"{len(plain)} passes",
            "verdict_p50_s": f"median of the {len(rel)} items",
        }
    assert set(metrics) == set(units), "metrics differ from BENCHMARK.json"
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {units[name]:<6} "
              f"{notes.get(name, '')}".rstrip())
    print(json.dumps({
        "correct": correct,
        "attempted": len(items),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
