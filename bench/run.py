#!/usr/bin/env python3
"""refinet benchmark: set up, compile, evaluate and verify one workload.

    python3 bench/run.py --workload koch-anchored --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``. Over ten interleaved rounds a run times set-ups in fresh
processes, compiles through the public ``compile_*`` API with cold caches
(several times a round, each compile one sample), evaluates the compiled
net on seeded 2000-point batches for ``--seconds`` in all and, in rounds
spread evenly over the run, runs the ``refinet verify`` check. Every batch, verify grid and cascade sample is compared
with an oracle that never uses the compiled net.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
is a separate run that does half the rounds untraced, then wraps the
program's public functions in spans, does half again and reports the
per-layer metrics and the tracing overhead. The last line of standard output is the JSON
result; the full record, with provenance and spans, goes to ``bench/out/``.

Exit codes: 0 every check passed, 1 a check failed, 2 the program or the
benchmark definition is missing or does not match.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

ROUNDS = 10       # compile groups, eval slices and verifies per run, interleaved
SETUP_EVERY = 2   # a set-up process in every second round
WAITS = ("no layer waits: refinet is single-threaded and has no queues, "
         "so no wait time is reported")


def fail_setup(msg: str):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import refinet from this checkout's src/, never from elsewhere."""
    if not (SRC / "refinet" / "__init__.py").is_file():
        fail_setup(f"no refinet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import refinet
    if Path(refinet.__file__).resolve().parent != SRC / "refinet":
        fail_setup(f"imported refinet from {refinet.__file__}, not {SRC}")


def load_definition() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail_setup(f"missing {path}")
    return json.loads(path.read_text())


def pin_blas_threads() -> int:
    """Pin BLAS threads to min(nproc, 2) before numpy loads."""
    n = str(min(len(os.sched_getaffinity(0)), 2))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n
    return int(n)


def untraced(name):
    return contextlib.nullcontext()


def max_err(got, want) -> float:
    import numpy as np
    return float(np.max(np.abs(got - want)))


class Gate:
    """Oracle checks; each comparison is one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.max_err = 0.0
        self.points = 0

    def check(self, what, err, points, tol):
        self.attempted += 1
        self.points += points
        self.max_err = max(self.max_err, err)
        if not err <= tol:       # also catches NaN
            self.failures.append(f"{what}: max|err| {err:.3e} > tol {tol:.1e}")

    def same(self, what, values):
        self.attempted += 1
        if any(v != values[0] for v in values[1:]):
            self.failures.append(f"{what}: differs between compiles: {values}")


def time_setup(workload: str, seed: int) -> float:
    """Wall time of one fresh process that only sets up, from spawn to exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    t = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t


def compile_cold(wl, inp, phase):
    """Times of ``wl.compiles_per_round`` compiles, each with every program
    cache emptied as in a fresh CLI process; returns the last net too."""
    from spans import clear_caches
    times = []
    for _ in range(wl.compiles_per_round):
        ci = None            # drop the previous net before compiling again
        gc.collect()
        clear_caches()
        with phase("bench.compile"):
            t = time.perf_counter()
            ci = wl.compile(inp.problem)
            times.append(time.perf_counter() - t)
    return ci, times


def eval_batches(ci, inp, oracle, tol, budget, gate, phase, times):
    """Timed batches until all of them together take ``budget`` seconds;
    each is checked untimed."""
    while sum(times) < budget:
        x = inp.batches[(len(times) + 1) % len(inp.batches)]
        with phase("bench.batch"):
            t = time.perf_counter()
            y = ci(x)
            times.append(time.perf_counter() - t)
        with phase("bench.check"):
            err = max_err(y, oracle(x).reshape(y.shape))
        gate.check(f"batch {len(times)}", err, len(x), tol)


def verify(wl, inp, ci, gate, phase):
    """`refinet verify` minus compile: oracle, one net call, oracle, compare."""
    gc.collect()
    with phase("bench.verify"):
        t = time.perf_counter()
        oracle = wl.oracle(inp.problem)
        got = ci(inp.grid)
        err = max_err(got, oracle(inp.grid).reshape(got.shape))
        dt = time.perf_counter() - t
    gate.check("verify grid", err, len(inp.grid), wl.tol)
    return dt, err


def cascade(wl, inp, ci, gate, phase):
    """Seeded points against the pointwise digit cascade (scalar-deep only)."""
    if not len(inp.cascade_pts):
        return
    with phase("bench.cascade"):
        want = wl.cascade(inp.problem, inp.cascade_pts)
    with phase("bench.check"):
        got = ci(inp.cascade_pts)
    gate.check("cascade sample", max_err(got, want[:, :inp.p]), len(got), wl.tol)


@dataclass
class Samples:
    setup: list = field(default_factory=list)
    compile: list = field(default_factory=list)
    eval: list = field(default_factory=list)
    verify: list = field(default_factory=list)
    verify_err: float = 0.0


def run_rounds(wl, inp, seconds, gate, phase, rounds=ROUNDS, setup=None,
               verify_reps=None):
    """Set-up, compiles, eval slice and verify, repeated ``rounds`` times.

    The machine's speed drifts over seconds, so each metric's samples are
    spread across the whole run rather than taken in one stretch of it.
    Batches run on the first round's net, after one warm-up batch; by the
    end of round r they have taken (r + 1) / rounds of ``seconds``, so a
    batch longer than a slice runs in fewer rounds. ``verify_reps``
    rounds (default ``wl.verify_reps``), evenly spaced, also verify. Returns the samples, the evaluated
    net and its structure counts.
    """
    from workloads import structure
    oracle = wl.oracle(inp.problem)          # for the batch checks, untimed
    s = Samples()
    reps = min(wl.verify_reps if verify_reps is None else verify_reps, rounds)
    verify_rounds = {r * rounds // reps for r in range(reps)}
    shapes = []
    net = None
    for r in range(rounds):
        if setup is not None and r % SETUP_EVERY == 0:
            s.setup.append(setup())
        ci, times = compile_cold(wl, inp, phase)
        s.compile.extend(times)
        shapes.append(structure(ci.net))
        if net is None:
            net = ci
            with phase("bench.warmup"):
                net(inp.batches[0])
        del ci
        eval_batches(net, inp, oracle, wl.tol, seconds * (r + 1) / rounds, gate,
                     phase, s.eval)
        if r in verify_rounds:
            dt, s.verify_err = verify(wl, inp, net, gate, phase)
            s.verify.append(dt)
    gate.same("structure", shapes)
    cascade(wl, inp, net, gate, phase)
    return s, net, shapes[0]


def tail(times):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 11:
        return {"percentile": None,
                "reason": f"{n} samples; a percentile needs at least 11"}
    p = (100 * (n - 10)) // n
    k = -(-p * n // 100)                      # nearest rank, 1-based
    return {"percentile": p, "batch_s": sorted(times)[k - 1], "beyond": n - k}


def batch_rate(e_times):
    from workloads import BATCH_POINTS
    return BATCH_POINTS / statistics.median(e_times)


def run_untraced(wl, inp, args, gate):
    s, _, shape = run_rounds(wl, inp, args.seconds, gate, untraced,
                             setup=lambda: time_setup(args.workload, args.seed))
    metrics = {
        "setup_s": statistics.median(s.setup),
        "compile_s": statistics.median(s.compile),
        "eval_pts_per_s": batch_rate(s.eval),
        "verify_s": statistics.median(s.verify),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "net_depth": shape["depth"],
        "net_width": shape["width"],
        "net_nnz": shape["nnz"],
    }
    detail = {
        "setup_s": s.setup,
        "compile_s": s.compile,
        "eval": {"batches": len(s.eval), "median_batch_s": statistics.median(s.eval),
                 "tail": tail(s.eval), "batch_s": s.eval},
        "verify": {"grid_points": len(inp.grid), "max_abs_err": s.verify_err,
                   "times_s": s.verify},
        "structure": shape,
    }
    return metrics, detail


def run_traced(wl, inp, args, gate):
    from spans import Tracer, by_name, span_metrics
    # two half-length passes, so a traced run lasts about as long as an
    # untraced one; the untraced pass only sets the overhead baseline
    half = dict(seconds=args.seconds / 2, gate=gate, rounds=ROUNDS // 2)
    s0, _, _ = run_rounds(wl, inp, phase=untraced, verify_reps=0, **half)
    tracer = Tracer()
    tracer.install()
    s1, _, shape = run_rounds(wl, inp, phase=tracer.phase, **half)
    spans = tracer.analyse()
    metrics = span_metrics(spans, len(inp.cascade_pts))
    metrics.update({f"network.{k}": shape[k] for k in (
        "layers", "csr_layers", "csr_nnz", "csr_zero_entries", "dense_entries",
        "eval_flops_per_pt", "act_bytes_per_pt", "weight_bytes")})
    metrics["compiler.coeff_max"] = shape["coeff_max"]
    metrics["verify.max_abs_err"] = gate.max_err
    metrics["verify.checked_points"] = gate.points
    metrics["verify.failed_checks"] = len(gate.failures)
    overhead = {
        "untraced_compile_s": statistics.median(s0.compile),
        "traced_compile_s": statistics.median(s1.compile),
        "untraced_eval_pts_per_s": batch_rate(s0.eval),
        "traced_eval_pts_per_s": batch_rate(s1.eval),
    }
    metrics["trace.compile_overhead_s"] = (overhead["traced_compile_s"]
                                           - overhead["untraced_compile_s"])
    metrics["trace.eval_overhead_pts_per_s"] = (overhead["traced_eval_pts_per_s"]
                                                - overhead["untraced_eval_pts_per_s"])
    detail = {"absent": tracer.absent, "tracing_overhead": overhead,
              "spans_by_name": by_name(spans), "structure": shape}
    return metrics, detail, tracer.spans


def provenance(threads: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable: not a git checkout"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unresolved {name}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up and exit (how setup_s is timed)")
    args = ap.parse_args(argv)

    threads = pin_blas_threads()
    import_program()
    import workloads
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        fail_setup(f"unknown workload {args.workload!r}; "
                   f"choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_only:
        workloads.make_inputs(wl, args.seed)
        return 0

    definition = load_definition()
    declared = definition["per_layer" if args.trace else "end_to_end"]
    inp = workloads.make_inputs(wl, args.seed)
    gate = Gate()
    spans = None
    if args.trace:
        metrics, detail, spans = run_traced(wl, inp, args, gate)
    else:
        metrics, detail = run_untraced(wl, inp, args, gate)
    if set(metrics) != {m["name"] for m in declared}:
        fail_setup(f"metrics {sorted(metrics)} do not match BENCHMARK.json "
                   f"{sorted(m['name'] for m in declared)}")

    ok = not gate.failures
    result = {"correct": ok, "attempted": gate.attempted,
              "failed": len(gate.failures),
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in declared}}
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, failures=gate.failures, waits=WAITS,
                  provenance=provenance(threads))

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(gate.failures)} of {gate.attempted} checks failed")
    for f in gate.failures:
        print(f"  FAILED {f}")
    for m in declared:
        print(f"  {m['name']:<32} {metrics[m['name']]:>16.6g} {m['unit']:<8} "
              f"{m['better']} is better")
    print(WAITS)
    if spans is not None and detail["absent"]:
        print(f"absent public names (metrics that need them read 0): {detail['absent']}")
    print("detail " + json.dumps(detail))
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"result": result, "detail": detail,
                                  "spans": spans}))
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
