"""Triangle-loop controller for the M-ary residual map.

The unit parameter interval is bent onto the boundary of the triangle with
vertices a0=(0,0), a1=(1,1), a2=(1,0) by the embedding E; a CPwL field F on
the (convex) triangle satisfies F(E(t)) = E(R(t)), so iterating F tracks
the residual orbit of the digit map.  A scalar field H with H(E(t)) = h(t)
reads a special hat's value, and selector fields recover the current digit
away from a small transition set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cpwl import (RHO, CpwlCurve, ScalarCpwl, SpecialHat, cpwl_combine,
                   merge_grids)
from .planar import PlanarCpwlField, fan_core


DELTA_BAR = 0.5  # selector transition half-width in units of RHO * M^-(n+1)


@dataclass(frozen=True)
class LoopConfig:
    """The stage a controller's selectors are built for."""

    M: int
    n: int

    def __post_init__(self):
        if self.M < 2:
            raise ValueError("M must be >= 2")

    @property
    def delta_n(self) -> float:
        """Transition half-width DELTA_BAR * RHO * M^-(n+1)."""
        a, b = _delta_n_ratio(self)
        return a / b


def _delta_n_ratio(cfg: LoopConfig) -> tuple:
    """delta_n as the integers (a, b) with delta_n = a / b."""
    a, b = (DELTA_BAR * RHO).as_integer_ratio()
    return a, b * cfg.M ** (cfg.n + 1)


def _E(i: int, Q: int) -> tuple:
    """Q E(i / Q) for integers 0 <= i <= Q: the walk a0 -> a1 -> a2 -> a0
    around the triangle at constant speed 3, in integers."""
    s = 3 * i
    return (s, s) if s <= Q else (Q, 2 * Q - s) if s <= 2 * Q else (3 * Q - s, 0)


def embed(t):
    """E(t) in float64 (``_E`` states E in integers).

    3t, 2 - 3t and 3 - 3t need up to 55 bits, so E(t) is rounded, and the
    controller amplifies that rounding M-fold per step; ``_embed_exact``
    gives the exact image of a rational t.
    """
    t3 = 3 * np.asarray(t, dtype=float)
    return np.stack([np.where(t3 <= 2, np.minimum(t3, 1), 3 - t3),
                     np.where(t3 <= 1, t3, np.maximum(2 - t3, 0))], axis=-1)


def _embed_exact(t: Fraction) -> tuple:
    """E(t) for a rational t in [0, 1]."""
    return tuple(Fraction(c, t.denominator) for c in _E(t.numerator, t.denominator))


def embed_curve() -> CpwlCurve:
    """E as a CPwL curve on its corners 0, 1/3, 2/3, 1."""
    return CpwlCurve(tuple(ScalarCpwl(np.arange(4) / 3, np.array(c) / 3)
                           for c in zip(*(_E(i, 3) for i in range(4)))), 1)


def _knots_cpwl(knots) -> ScalarCpwl:
    """The float64 CPwL function through rational ``knots``."""
    return ScalarCpwl(np.array([float(t) for t, _ in knots]),
                      np.array([float(v) for _, v in knots]))


def _knots_at(knots, ts) -> list:
    """Values at the sorted integers ts of the CPwL function through the
    integer ``knots`` [(0, v_0), .., (Q, v_k)]: a knot value at a knot and
    on a flat piece, else the exact interpolated ``Fraction``."""
    out, i = [], 0
    for t in ts:
        while t > knots[i + 1][0]:
            i += 1
        (t0, v0), (t1, v1) = knots[i], knots[i + 1]
        out.append(v1 if t == t1 else v0 if t == t0 or v0 == v1 else
                   Fraction(v0 * (t1 - t) + v1 * (t - t0), t1 - t0))
    return out


def _loop_field(Q: int, knot_lists) -> PlanarCpwlField:
    """One fan field whose outputs are the CPwL functions through
    ``knot_lists``, each [(0, v_0), .., (Q, v_k)] of integer knots (i, v)
    at t = i / Q with value v / Q, for Q a multiple of 3.  Its boundary
    vertices are E(t) for t in the corners {0, 1/3, 2/3} and every knot in
    [0, 1), where each output is exact.  Loop fields are only read on the
    loop, so the center value is free, and 0 makes every readout weight a
    loop value.  The data are integers over Q times the denominators of
    the values interpolated off a knot, 1 for the controller and selectors."""
    ts = sorted({0, Q // 3, 2 * Q // 3}.union(
        *({i for i, _ in knots if i < Q} for knots in knot_lists)))
    values = [_knots_at(knots, ts) for knots in knot_lists]
    m = math.lcm(*(v.denominator for vs in values for v in vs))
    rows = [[2 * Q // 3, Q // 3, *[0] * len(values)],
            *([*_E(t, Q), *vs] for t, *vs in zip(ts, *values))]
    return fan_core(Q * m, [[int(m * v) for v in row] for row in rows])


def build_controller_field(M: int) -> PlanarCpwlField:
    """CPwL field F on the triangle with F(E(t)) = E(R(t)).

    The loop vertices k/M, (3k+1)/(3M), (3k+2)/(3M) and their values are
    rational and the hat planes are solved from them exactly; for M = 2..16
    every hat-plane coefficient is an integer and every readout weight is
    0 or 1, so the lowered controller's weights are exact.  Iterated by
    ``network.eval_exact`` from an exact E(x) it then follows the exact
    orbit that ``residual_iterate`` rounds.  In float64 (the compiled
    networks) its drift grows about M^n eps.
    """
    Q = 3 * M  # at t = j / Q, Q E(M t mod 1) = Q E((M j mod Q) / Q)
    images = [_E(M * j % Q, Q) for j in range(Q + 1)]
    return _loop_field(Q, [list(enumerate(coord)) for coord in zip(*images)])


def controller_orbit(x: float, n: int, F) -> np.ndarray:
    """z_0 = E(x), z_{j+1} = F(z_j); returns (n+1, 2) in float64.
    A reference orbit for ``test_loop``; compile does not use it."""
    z = np.empty((n + 1, 2))
    z[0] = embed(np.array(x))
    for j in range(n):
        z[j + 1] = F(z[j])
    return z


def readout_minus(epsilon: float) -> ScalarCpwl:
    """r^-: identity up to 1 - eps, then a steep return to 0 at t = 1; a
    reference for criterion 5 and ``test_loop``, which compile does not use."""
    return ScalarCpwl(np.array([0, 1 - epsilon, 1]), np.array([0, 1 - epsilon, 0]))


def readout_plus(epsilon: float) -> ScalarCpwl:
    """r^+: steep drop from 1 to eps on [0, eps], then the identity; a
    reference for criterion 5 and ``test_loop``, which compile does not use."""
    return ScalarCpwl(np.array([0, epsilon, 1]), np.array([1, epsilon, 1]))


def scalar_field(h: SpecialHat) -> PlanarCpwlField:
    """H on the triangle with H(E(t)) = h(t).

    h vanishes off [RHO, 1 - RHO], so h(0) = h(1) = 0 agree at the seam
    E(0) = E(1) and h is a single-valued CPwL function on the loop; H sits
    on the corners and h's breakpoints, so it depends on the hat alone.
    """
    b = h.base
    ratios = [x.as_integer_ratio() for x in [*b.ts.tolist(), *b.vs.tolist()]]
    Q = math.lcm(3, *(q for _, q in ratios))
    nums = [p * (Q // q) for p, q in ratios]
    return _loop_field(Q, [[(0, 0), *zip(nums[:b.ts.size], nums[b.ts.size:]), (Q, 0)]])


def min_readout_scalar(h: ScalarCpwl, epsilon: float) -> ScalarCpwl:
    """min(h(r^-(t)), h(r^+(t))), equal to h on [0, 1] when eps < RHO: the
    reference for ``test_loop::test_min_readout_identity``, not compiled."""
    hm = _compose_scalar(h, readout_minus(epsilon))
    hp = _compose_scalar(h, readout_plus(epsilon))
    return cpwl_combine(hm, hp, "min")


def _compose_scalar(outer: ScalarCpwl, inner: ScalarCpwl) -> ScalarCpwl:
    """outer(inner(t)) as CPwL on [inner breakpoints + pullbacks]."""
    pull = []
    sl = inner.slopes()
    for i in range(inner.ts.size - 1):
        if sl[i] == 0:
            continue
        for b in outer.ts:
            t = inner.ts[i] + (b - inner.vs[i]) / sl[i]
            if inner.ts[i] < t < inner.ts[i + 1]:
                pull.append(t)
    ts = merge_grids(inner.ts, np.array(pull) if pull else np.zeros(0))
    return ScalarCpwl(ts, outer(inner(ts)))


def _selector_grid(cfg: LoopConfig) -> tuple:
    """(Q, knot lists) of theta_0..theta_{M-1} (see ``selector_scalars``):
    each list is [(0, v_0), .., (Q, v_k)] of integer knots (i, v) at
    t = i / Q with value v / Q, on Q = 3 b for delta_n = a / b, where every
    knot is an integer."""
    M, (a, b) = cfg.M, _delta_n_ratio(cfg)
    Q = 3 * b
    d, w = 3 * a, Q // M          # delta_n and a cell's width, over Q
    lists = [[(0, 0), *[(q * w, 0)] * (q > 0), (q * w + d, Q), ((q + 1) * w, Q),
              ((q + 1) * w + d, 0), (Q, 0)] for q in range(M - 1)]
    lists.append([(0, Q), (d, 0), ((M - 1) * w, 0), ((M - 1) * w + d, Q), (Q, Q)])
    return Q, lists


def _selector_knots(cfg: LoopConfig) -> list:
    """The knots of ``_selector_grid`` as ``Fraction``s (t, theta_q(t))."""
    Q, lists = _selector_grid(cfg)
    return [[(Fraction(i, Q), Fraction(v, Q)) for i, v in knots] for knots in lists]


def selector_scalars(cfg: LoopConfig) -> list:
    """theta_q on [0, 1]: exact indicator of cell q away from the
    transition set, affine ramps of width delta_n after each cell start.

    The outgoing and incoming selectors cross at the midpoint of every
    transition interval; at the seam theta_{M-1}(0) = theta_{M-1}(1) = 1.
    A reference for the selector tests of ``test_loop``; compile lowers
    ``selector_field`` and does not use these.
    """
    return [_knots_cpwl(k) for k in _selector_knots(cfg)]


def selector_field(cfg: LoopConfig) -> PlanarCpwlField:
    """chi on the triangle with chi_q(E(t)) = theta_q(t), q = 0..M-1: one
    fan on the corners and the knots of ``_selector_grid``, with M outputs."""
    return _loop_field(*_selector_grid(cfg))
