#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs ``perfbench/run.py`` once per seed for each workload (one process
at a time, each waited for) and prints, for every end-to-end metric, the
median of the runs and the distance between the first and third
quartiles as a share of that median — the figure each metric's
``bound`` in ``BENCHMARK.json`` is compared against.

    python3 perfbench/spread.py --runs 10 --seconds 10
    python3 perfbench/spread.py --workload acked-churn --runs 5
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import median, quartile_spread  # noqa: E402


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=int,
                        default=spec["run_seconds"])
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for name in names:
        values = {metric: [] for metric in bounds}
        for index in range(args.runs):
            seed = args.first_seed + index
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d failed (exit %d)\n%s"
                      % (name, seed, proc.returncode, proc.stderr[-2000:]))
                return 1
            result = json.loads(lines[-1])
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
        print("== %s (%d runs, %d s each)" % (name, args.runs, args.seconds))
        for metric, bound in bounds.items():
            spread = quartile_spread(values[metric]) or 0.0
            if metric != "setup_s":
                worst = max(worst, spread / bound)
            print("  %-22s median %14.6g  spread %.4f  bound %.2f  %s"
                  % (metric, median(values[metric]), spread, bound,
                     "ok" if spread < bound / 3 else "WIDE"))
    print("widest spread / bound (setup_s excluded): %.3f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
