"""The benchmark's workloads: instance, compile recipe and oracles.

Each workload follows a `refinet` CLI recipe. scalar-deep is the `stats`
sweep of a homogeneous compile; the anchored workloads are
`verify --example NAME` with the default anchored mode. Program functions
are looked up on their modules at call time, so that the traced run sees
the wrapped versions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

import refinet
from refinet import gallery

BATCH_POINTS = 2000      # points per timed evaluation batch
BATCH_POOL = 64          # distinct seeded batches; longer runs cycle through them
CASCADE_POINTS = 500     # seeded points checked against the pointwise cascade
VERIFY_UNIFORM = 1000    # uniform points of the CLI verify grid (its --grid default)


class ScalarDeep:
    """Scalar M=2 hat, homogeneous: the n=1..16 `stats` sweep, then n=16."""

    name = "scalar-deep"
    n = 16
    tol = 1e-7
    compiles_per_round = 4   # one sweep takes about 0.27 s
    verify_reps = 1          # one verify call takes about 16 s

    def problem(self):
        op = refinet.RefinementOp(2, 1, 1, {0: [[1.0]], 1: [[1.0]]})
        gamma = refinet.CpwlCurve((refinet.hat(0.25, 0.5, 0.75),), 1)
        return op, gamma

    def compile(self, problem):
        op, gamma = problem
        for k in range(1, self.n + 1):
            ci = refinet.compile_homogeneous(op, gamma, k)
        return ci

    def oracle(self, problem):
        op, gamma = problem
        return refinet.apply_v_n(op, gamma, self.n)

    def cascade(self, problem, xs):
        """G_n(x) by the digit-driven matrix cascade, one point at a time."""
        op, gamma = problem
        return np.array([refinet.cascade_eval(op, gamma, x, self.n) for x in xs])


class Anchored:
    """A polygonal gallery curve compiled by `compile_anchored` at stage n."""

    tol = 1e-6
    cascade = None

    def __init__(self, name, example, n, compiles_per_round, verify_reps):
        self.name, self.example, self.n = name, example, n
        self.compiles_per_round, self.verify_reps = compiles_per_round, verify_reps

    def problem(self):
        inst = getattr(gallery, self.example)()
        return inst.op(), inst

    def compile(self, problem):
        op, inst = problem
        return refinet.compile_anchored(op, None, inst.anchor(), None, self.n)

    def oracle(self, problem):
        return gallery.polygonal_oracle(problem[1], self.n)


WORKLOADS = {w.name: w for w in (
    ScalarDeep(),
    # compile about 0.42 s, verify 2.6 s, a 2000-point batch 4.7 s
    Anchored("koch-anchored", "koch", 3, compiles_per_round=3, verify_reps=3),
    # compile about 0.3 s, verify 0.85 s, a batch 1 s
    Anchored("heighway-anchored", "heighway", 8, compiles_per_round=4, verify_reps=10),
)}


@dataclass
class Inputs:
    """Everything a run needs before it compiles: the seeded points."""

    problem: tuple
    batches: np.ndarray      # (BATCH_POOL, BATCH_POINTS) parameters in [0, L]
    grid: np.ndarray         # the CLI verify grid
    cascade_pts: np.ndarray  # parameters in [0, 1) for the cascade oracle

    @property
    def p(self) -> int:
        return self.problem[0].p


def verify_grid(M: int, n: int, L: int) -> np.ndarray:
    """`refinet verify`'s grid: uniform points plus every stage breakpoint
    and the points delta_n/2 either side of it."""
    d = refinet.LoopConfig(M, max(n, 1)).delta_n
    breaks = np.arange(M ** n * L + 1) / M ** n
    uniform = np.linspace(-0.5, L + 0.5, VERIFY_UNIFORM)
    return np.sort(np.concatenate([uniform, breaks, breaks + d / 2, breaks - d / 2]))


def make_inputs(workload, seed: int) -> Inputs:
    """Build the instance and draw every input point from ``seed``."""
    problem = workload.problem()
    op = problem[0]
    rng = np.random.default_rng(seed)
    batches = rng.uniform(0.0, op.L, size=(BATCH_POOL, BATCH_POINTS))
    n_cascade = CASCADE_POINTS if workload.cascade else 0
    cascade_pts = rng.uniform(0.0, 1.0, n_cascade)
    return Inputs(problem, batches, verify_grid(op.M, workload.n, op.L), cascade_pts)


def structure(net) -> dict:
    """Size counts of a network, read from ``net.layers`` from outside.

    CSR layers count their stored entries (scipy's ``nnz``, which keeps the
    explicit zeros that folding leaves), dense layers their nonzero values:
    together the nonzeros the evaluator multiplies. FLOPs and activation
    bytes are computed from shapes and formats (a multiply-add per stored
    weight plus the bias; float64 inputs read and outputs written once).
    """
    s = dict(depth=0, width=0, nnz=0, layers=len(net.layers), csr_layers=0,
             csr_nnz=0, csr_zero_entries=0, dense_entries=0,
             eval_flops_per_pt=0, act_bytes_per_pt=0, weight_bytes=0,
             coeff_max=0.0)
    for lay in net.layers:
        W, b = lay.weights, np.asarray(lay.bias)
        rows, cols = W.shape
        s["depth"] += lay.activation == "relu"
        s["width"] = max(s["width"], rows)
        if sparse.issparse(W):
            stored = int(W.nnz)
            s["csr_layers"] += 1
            s["csr_nnz"] += stored
            s["csr_zero_entries"] += stored - int(W.count_nonzero())
            s["nnz"] += stored
            s["weight_bytes"] += W.data.nbytes + W.indices.nbytes + W.indptr.nbytes
            big = float(np.max(np.abs(W.data))) if stored else 0.0
        else:
            stored = int(W.size)
            s["dense_entries"] += stored
            s["nnz"] += int(np.count_nonzero(W))
            s["weight_bytes"] += W.nbytes
            big = float(np.max(np.abs(W))) if W.size else 0.0
        s["weight_bytes"] += b.nbytes
        s["eval_flops_per_pt"] += 2 * stored + rows
        s["act_bytes_per_pt"] += 8 * (rows + cols)
        s["coeff_max"] = max(s["coeff_max"], big,
                             float(np.max(np.abs(b))) if b.size else 0.0)
    return {k: (v if isinstance(v, float) else int(v)) for k, v in s.items()}
