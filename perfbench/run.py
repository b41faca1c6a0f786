"""Run the rectdual benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in its own fresh single-threaded Python process
(workload.py), one after another, under a wall cap; the program is
imported from src/ of the checkout this file sits in. --workload all
runs every workload. The last line of output is one JSON object.
"""

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("center_2d", "center_hidim", "gadget_solve", "stab_grid")
WALL_CAP_S = 160


def run_workload(name, args):
    """Run one workload process; returns (report lines, result or None)."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=WALL_CAP_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: killed at the {WALL_CAP_S} s wall cap",
              file=sys.stderr)
        return [], None
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{name}: exited with code {proc.returncode} and no result",
              file=sys.stderr)
        return lines, None
    return lines[:-1], result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills the workload
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "rectdual" / "__init__.py").is_file():
        print(f"no rectdual sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        lines, result = run_workload(name, args)
        print("\n".join(lines), flush=True)
        if result is None:
            return 3
        results[name] = result
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
