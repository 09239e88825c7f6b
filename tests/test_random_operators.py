"""Seeded random operators that the gallery does not reach: M 2..7, p 1..3
and L 1..2, with 70-80% of the mask indices present, compiled homogeneous,
affine, anchored and through ``stack_system``.  The gallery has L = 1
only, and p >= 2 with L >= 2 is where the (pL)^2 branch channels of a core
are indexed by both the cell k and the coordinate r.  Each net agrees with
its direct oracle to criterion 8's relative tolerance, 1e-9, on uniform
points and every stage breakpoint, and stores no dead row and no unit
that is 0 for every input, as the CLI sweep holds the gallery's nets to."""
from itertools import product

import numpy as np
import pytest

from refinet import network
from refinet.compiler import compile_homogeneous
from refinet.cpwl import CpwlCurve, ScalarCpwl, curve_add
from refinet.reductions import (FiniteStateSystem, compile_affine, compile_anchored,
                                iterate_w, stack_curves, stack_system)
from refinet.refinement import RefinementOp, apply_v_n

REL_TOL = 1e-9


def random_op(rng, M: int, p: int, L: int) -> RefinementOp:
    count = (M - 1) * L + 1
    keep = max(1, round(rng.uniform(0.7, 0.8) * count))
    scale = rng.uniform(0.4, 0.5)
    return RefinementOp(M, p, L, {int(j): rng.normal(scale=scale, size=(p, p))
                                  for j in rng.choice(count, keep, replace=False)})


def random_curve(rng, p: int, L: int) -> CpwlCurve:
    """p components on [0, L], each zero at its ends with 1-5 interior
    breakpoints."""
    comps = []
    for _ in range(p):
        k = int(rng.integers(1, 6))
        ts = np.concatenate([[0.0], np.sort(rng.uniform(0.05, L - 0.05, k)), [float(L)]])
        comps.append(ScalarCpwl(ts, np.concatenate([[0.0], rng.normal(size=k), [0.0]])))
    return CpwlCurve(tuple(comps), L)


def check(net, want: CpwlCurve, M: int, n: int, L: int):
    """``net`` against the oracle curve ``want`` to REL_TOL, and its layers
    hold only live units that can be nonzero."""
    ts = np.concatenate([np.linspace(-0.25, L + 0.25, 1001),
                         np.arange(L * M ** n + 1) / M ** n])
    ref = want(ts)
    err = np.max(np.abs(net.eval_scalar_input(ts) - ref))
    assert err <= REL_TOL * max(1.0, float(np.max(np.abs(ref)))), err
    shapes = [l.weights.shape for l in net.layers]
    for cut in [network._live_layers, network._nonzero_layers]:
        assert [l.weights.shape for l in cut(net.layers)] == shapes


# (M, p, L, n): every (p, L) at every dilation, one stage deeper on small
# operators and one shallower on large ones (the widest net has 3,472 units)
CASES = [(M, p, L, 3 if M * p * L <= 8 else 2 if M * p * L <= 30 else 1)
         for p, L, M in product([1, 2, 3], [1, 2], range(2, 8))]


@pytest.mark.parametrize("M, p, L, n", CASES, ids=[f"M{M}p{p}L{L}n{n}" for M, p, L, n in CASES])
def test_random_homogeneous(M, p, L, n):
    rng = np.random.default_rng([M, p, L, n])
    op, curve = random_op(rng, M, p, L), random_curve(rng, p, L)
    check(compile_homogeneous(op, curve, n).net, apply_v_n(op, curve, n), M, n, L)


@pytest.mark.parametrize("M, p, L", [(2, 2, 2), (3, 2, 2), (4, 1, 2), (3, 3, 1), (5, 2, 1),
                                     (2, 3, 2)])
def test_random_affine(M, p, L):
    n = 2
    rng = np.random.default_rng([M, p, L, 1])
    op, gamma = random_op(rng, M, p, L), random_curve(rng, p, L)
    B = [random_curve(rng, p, L) for _ in range(n)]
    check(compile_affine(op, gamma, B.__getitem__, n).net,
          iterate_w(op, gamma, B.__getitem__, n), M, n, L)


def test_random_finite_state_system():
    # two states of a planar system with M = 3: the stacked operator's
    # compile agrees with the per-state recursion, stacked
    r, p, M, n = 2, 2, 3, 2
    rng = np.random.default_rng(5)
    system = FiniteStateSystem(p, M, 1, rng.integers(0, r, (r, M)),
                               rng.normal(scale=0.45, size=(r, M, p, p)))
    curves = [random_curve(rng, p, 1) for _ in range(r)]
    want = curves
    for _ in range(n):
        want = system.apply(want)
    net = compile_homogeneous(stack_system(system), stack_curves(curves), n).net
    check(net, stack_curves(want), M, n, 1)


@pytest.mark.parametrize("M, p, L", [(2, 2, 2), (3, 1, 2), (4, 2, 1)])
def test_random_anchored(M, p, L):
    # a compact random anchor Gamma and forcing B: the defect
    # V Gamma + B - Gamma is compact, and the net is W^n (Gamma + eta)
    n = 2
    rng = np.random.default_rng([M, p, L, 2])
    op, Gamma, eta, B = random_op(rng, M, p, L), *(random_curve(rng, p, L) for _ in range(3))
    check(compile_anchored(op, B, Gamma, eta, n).net,
          iterate_w(op, curve_add(Gamma, eta), lambda r: B, n), M, n, L)
