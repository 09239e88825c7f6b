"""Reductions of inhomogeneous / anchored / finite-state recursions to the
homogeneous compiler.

Stage-dependent forcing is a function ``forcing(r) -> B_r``; the stage map
W_r gamma = V gamma + B_r unrolls to

    W_{n-1} .. W_0 gamma = V^n gamma + sum_r V^{n-1-r} B_r,

one job (curve, power) per summand, all built by the compiler's one
assembly ``compile_jobs``, which runs them serially and carries t and the
running sum only where they are live.  Anchored profiles Gamma
(eventually constant) reduce to a compactly supported defect, with Gamma
added to the power-0 job; finite-state systems stack into one block
operator that commutes with stacking of the state tuple.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cpwl import (CpwlCurve, ScalarCpwl, SupportError, curve_add,
                   curve_scale, merge_grids, zero_curve)
from .compiler import CompiledIterate, compile_jobs
from .refinement import RefinementOp, apply_v, check_breakpoint_cap


def iterate_w(op: RefinementOp, gamma: CpwlCurve, forcing, n: int) -> CpwlCurve:
    """Direct oracle: gamma_{r+1} = V gamma_r + B_r, with B_r = forcing(r)."""
    # each step at most multiplies by len(mask) and adds B_r's breakpoints,
    # so the iterate stays below (|gamma| + max |B_r|) len(mask)^n
    size = max(c.ts.size for c in gamma.components) + max(
        (c.ts.size for r in range(n) for c in forcing(r).components), default=0)
    check_breakpoint_cap(size, len(op.mask), n)
    cur = gamma
    for r in range(n):
        cur = curve_add(apply_v(op, cur), forcing(r))
    return cur


def expand_stage_iterate(gamma: CpwlCurve, forcing, n: int) -> list:
    """Homogeneous jobs [(curve, power)] whose V-powers sum to the iterate."""
    return [(gamma, n)] + [(forcing(r), n - 1 - r) for r in range(n)]


def compile_affine(op: RefinementOp, gamma: CpwlCurve, forcing,
                   n: int) -> CompiledIterate:
    """Compile the stage-dependent iterate W_{n-1}..W_0 gamma, where
    ``forcing(r)`` is the curve B_r."""
    jobs = expand_stage_iterate(gamma, forcing, n)
    net, info = compile_jobs(op, jobs)
    return CompiledIterate(net, n, "affine", {"jobs": len(jobs), **info})


def anchor_mismatch(op: RefinementOp, B: CpwlCurve, Gamma: CpwlCurve):
    """Defect E = V Gamma + B - Gamma; returns (E, compact_flag).

    E is compact (tails within ``cpwl.TAIL_TOL``) iff the anchor tails are
    fixed by the tail maps: S Gamma_- + B_- = Gamma_- with S = sum_j A_j,
    and likewise at +infinity.
    """
    E = curve_add(apply_v(op, Gamma), curve_scale(Gamma, -1.0))
    if B is not None:
        E = curve_add(E, B)
    compact = E.is_compact()
    if compact:
        # zero out the roundoff tails so the defect is exactly compact
        comps = []
        for c in E.components:
            vs = c.vs.copy()
            vs[0] = 0.0
            vs[-1] = 0.0
            comps.append(c.with_values(vs))
        E = CpwlCurve(tuple(comps), E.L)
    return E, compact


def anchor_power0(gamma: CpwlCurve, forcing, n: int, Gamma: CpwlCurve):
    """(gamma, forcing) with Gamma added to the power-0 job: to B_{n-1},
    or to gamma itself when n = 0.  That job's one cell is its curve's
    one-hidden-layer lowering, added to the running sum in the last stage
    of ``compile_jobs``, so Gamma needs no branch of its own."""
    if n == 0:
        return curve_add(gamma, Gamma), forcing
    return gamma, lambda r: (curve_add(forcing(r), Gamma) if r == n - 1
                             else forcing(r))


def compile_anchored(op: RefinementOp, B: CpwlCurve, Gamma: CpwlCurve,
                     eta: CpwlCurve, n: int) -> CompiledIterate:
    """Evaluator for W^n gamma = Gamma + (V + E)^n eta with gamma = Gamma + eta."""
    E, compact = anchor_mismatch(op, B, Gamma)
    if not compact:
        raise SupportError(
            "anchor tails are not fixed points of the tail recursion; "
            "the defect is not compactly supported")
    eta = eta if eta is not None else zero_curve(op.p, op.L)
    ci = compile_affine(op, *anchor_power0(eta, lambda r: E, n, Gamma), n)
    return replace(ci, builder="anchored")


@dataclass(frozen=True)
class FiniteStateSystem:
    """Deterministic finite-state refinement system.

    State a picks, for digit j, a matrix C[a, j] and successor state
    transitions[a, j]:  (V Gamma)_a(t) = sum_j C[a,j] Gamma_{sigma(a,j)}(M t - j).
    """

    p: int
    M: int
    L: int
    transitions: np.ndarray  # (r, M) int
    C: np.ndarray            # (r, M, p, p)

    def __post_init__(self):
        object.__setattr__(self, "transitions", np.asarray(self.transitions, dtype=int))
        object.__setattr__(self, "C", np.asarray(self.C, dtype=float))

    @property
    def r(self) -> int:
        return self.transitions.shape[0]

    def apply(self, curves: list) -> list:
        """Per-state direct recursion on a tuple of curves."""
        out = []
        for a in range(self.r):
            comps = None
            grids = []
            for j in range(self.M):
                grids.extend([(c.ts + j) / self.M
                              for c in curves[self.transitions[a, j]].components])
            ts = merge_grids(*grids)
            vals = np.zeros((ts.size, self.p))
            for j in range(self.M):
                g = curves[self.transitions[a, j]]
                vals += g(self.M * ts - j) @ self.C[a, j].T
            out.append(CpwlCurve(tuple(ScalarCpwl(ts, vals[:, i])
                                       for i in range(self.p)), curves[a].L))
        return out


def stack_curves(curves: list) -> CpwlCurve:
    comps = []
    for c in curves:
        comps.extend(c.components)
    return CpwlCurve(tuple(comps), curves[0].L)


def stack_system(sys: FiniteStateSystem) -> RefinementOp:
    """Block operator on p*r components equivalent to the state system:
    applying it to stacked curves commutes with per-state recursion."""
    r, p, M = sys.r, sys.p, sys.M
    mask = {}
    for j in range(M):
        A = np.zeros((p * r, p * r))
        for a in range(r):
            b = sys.transitions[a, j]
            A[a * p:(a + 1) * p, b * p:(b + 1) * p] = sys.C[a, j]
        if np.any(A):
            mask[j] = A
    return RefinementOp(M, p * r, sys.L, mask)
