#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how far each metric spreads.

    python3 bench/spread.py --seeds 1-10                 # every workload
    python3 bench/spread.py --seeds 1-5 --workload koch-anchored

Runs ``bench/run.py`` once per workload and seed, one after another. For
each workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median
beside the metric's bound from BENCHMARK.json; "steady" means the spread
is under a third of the bound. With one seed it simply prints every
workload's metrics. Exits 1 if any run failed a check or if the
structural counts differ between seeds, 2 if a run produced no result.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - t
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr)
        sys.exit(f"{workload} seed {seed}: no result (exit {proc.returncode})")
    detail = next(json.loads(l[7:]) for l in lines if l.startswith("detail "))
    detail["run_wall_s"] = wall
    return json.loads(lines[-1]), detail


def main(argv=None):
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in definition["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,7,11")
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    bad = 0
    for workload in args.workload or names:
        runs = [run_once(workload, s, definition["run_seconds"]) for s in seeds]
        failed = sum(r["failed"] for r, _ in runs)
        attempted = sum(r["attempted"] for r, _ in runs)
        shapes = {json.dumps(d["structure"], sort_keys=True) for _, d in runs}
        walls = [d["run_wall_s"] for _, d in runs]
        print(f"{workload}: seeds {args.seeds}, {failed} of {attempted} checks "
              f"failed, structure {'identical' if len(shapes) == 1 else 'DIFFERS'} "
              f"across seeds, runs took {min(walls):.0f}-{max(walls):.0f} s")
        bad += failed > 0 or len(shapes) > 1
        for m in definition["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r, _ in runs]
            med = statistics.median(vals)
            line = f"  {m['name']:<30} {med:>14.6g} {m['unit']:<7} {m['better']:<6}"
            if len(vals) > 1:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else 0.0
                line += f" q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}"
                verdict = ("steady" if spread < m["bound"] / 3
                           else "within bound" if spread <= m["bound"] else "TOO WIDE")
                line += f" bound {m['bound']} {verdict}"
            print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
