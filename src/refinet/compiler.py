"""Compiler from refinement operators to exact ReLU networks.

An atomic curve h(t) e_mu on one support cell is compiled by
  * a controller pass computing the scalar factor h(R^n(x)) through one
    loop field H with H(E(t)) = h(t), with E(x) carried alongside,
  * a second controller pass, restarted from the carried E(x), driving
    selector-gated transition blocks:
    Phi_0 = h(R^n x) e_l,  Phi_j = sum_q T_q' Pi_a(chi_q(z_{j-1}), Phi_{j-1}),
    one branch per output coordinate l; a one-layer gate per digit q
    gates all branches, since they share the selector chi_q, and the
    transitions T_q' are applied after it, linearly.
Each distinct hat h gets one core net at stage n, shared by every shift
and support cell of h.  One net per (shift, hat) group and cell runs that
core on its shifted input, and all of them are summed.

Every compile is one assembly, ``compile_jobs``: jobs (curve, k) run one
after another, each stacking its cell nets once beside the live carries
(t while a later job reads it, the running sum once an earlier job has
written it).  A homogeneous compile is the one job and carries nothing.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .cpwl import CpwlCurve, SpecialHat, decompose_atomic
from .loop import (LoopConfig, build_controller_field, embed_curve,
                   scalar_field, selector_field)
from .network import (Layer, ReluNetwork, affine_net, cut_tail, cut_zeros,
                      lower_curve_1d, net_stats, passthrough, post_affine,
                      serial, stack_nets)
from .planar import lower_planar_field
from .refinement import RefinementOp, block_transitions, transition_norm

GADGET_SAFETY = 2.0


@dataclass
class CompiledIterate:
    """A compiled network together with its stage and provenance."""

    net: ReluNetwork
    n: int
    builder: str
    info: dict = field(default_factory=dict)

    def __call__(self, t):
        return self.net.eval_scalar_input(t)

    @property
    def stats(self):
        return net_stats(self.net)


def product_gadget(a: float, N: int) -> ReluNetwork:
    """Depth-1, width-2N gate Pi_a(lambda, y) =
    ReLU(y - a(1 - lambda)) - ReLU(-y - a(1 - lambda)).

    For lambda in [0, 1] and y in [-a, a]^N:
      Pi_a(1, y) = y,  Pi_a(0, y) = 0,  Pi_a(lambda, 0) = 0.
    """
    if a <= 0:
        raise ValueError("gadget bound must be positive")
    I = np.eye(N)
    W1 = np.hstack([np.full((2 * N, 1), a), np.vstack([I, -I])])
    l1 = Layer(W1, np.full(2 * N, -a), "relu")
    return ReluNetwork(N + 1, [l1, Layer(np.hstack([I, -I]), np.zeros(N), "linear")])


@lru_cache(maxsize=None)
def _embed_net() -> ReluNetwork:
    return lower_curve_1d(embed_curve())


@lru_cache(maxsize=None)
def _controller_net(M: int) -> ReluNetwork:
    return lower_planar_field(build_controller_field(M))


@lru_cache(maxsize=None)
def loop_assets(M: int, n: int) -> ReluNetwork:
    """The lowered selectors chi_0..chi_{M-1} of stage n.  Each loop field is
    lowered once per value of what it depends on: the selectors on (M, n),
    the controller on M (``_controller_net``), the embedding on nothing
    (``_embed_net``) and the scalar field H once per hat (``_scalar_head``)."""
    return lower_planar_field(selector_field(LoopConfig(M, n)))


def _beside_E(net: ReluNetwork) -> ReluNetwork:
    """(z, E) -> (net(z), E), E carried on two nonnegative channels."""
    return stack_nets([net, passthrough(2, "nonneg", net.depth)], [[0, 1], [2, 3]], 4)


@lru_cache(maxsize=None)
def _controller_step(M: int) -> ReluNetwork:
    """One controller step of the scalar factor net, built once per M."""
    return _beside_E(_controller_net(M))


@lru_cache(maxsize=None)
def _scalar_head(h: SpecialHat) -> ReluNetwork:
    """H beside the carry of E, built once per hat."""
    return _beside_E(lower_planar_field(scalar_field(h)))


def scalar_factor_net(h: SpecialHat, M: int, n: int) -> ReluNetwork:
    """x in [0, 1] -> (h(R^n(x)), E(x)), E(x) carried on two nonnegative
    channels."""
    # x -> (z, E(x)) with z = E(x)
    start = post_affine(_embed_net(), np.vstack([np.eye(2)] * 2), np.zeros(4))
    return serial(start, *[_controller_step(M)] * n, _scalar_head(h))


@lru_cache(maxsize=None)
def _growth(op: RefinementOp) -> float:
    """max(1, transition_norm) of the operator, computed once per operator."""
    return max(1.0, transition_norm(op))


def gadget_bound(op: RefinementOp, h: SpecialHat, n: int) -> float:
    """A bound a on |Phi_j| for j < n, as the gates Pi_a need."""
    return GADGET_SAFETY * max(h.base.max_abs(), 1e-30) * _growth(op) ** n


@lru_cache(maxsize=None)
def _gate_half(op: RefinementOp, a: float) -> ReluNetwork:
    """The controller step beside a one-layer carry of (c, Phi) feeding the
    gates, Phi' = sum_q T_q' Pi_a(lambda_q, Phi), on (z, c, Phi): the part
    of a gated stage that does not depend on n, built once per operator and
    gate bound a.  lambda_q = 1 - ReLU(1 - 2 c_q) is exactly 1 for
    c_q >= 1/2, so open gates are exact."""
    M, pL = op.M, op.p * op.L
    B = pL * pL
    I = np.eye(M)
    sat = ReluNetwork(M, [Layer(-2 * I, np.ones(M), "relu"),
                          Layer(-I, np.ones(M), "linear")])
    carry = stack_nets([sat, passthrough(B, "general")],
                       [list(range(M)), list(range(M, M + B))], M + B)
    gates = stack_nets([product_gadget(a, B)] * M,
                       [[q, *range(M, M + B)] for q in range(M)], M + B)
    T = np.hstack([np.kron(np.eye(pL), Tq.T) for Tq in block_transitions(op)])
    return stack_nets([_controller_net(M), serial(carry, post_affine(gates, T, np.zeros(B)))],
                      [[0, 1], list(range(2, 2 + M + B))], 2 + M + B)


def atomic_core_net(op: RefinementOp, h: SpecialHat, n: int) -> ReluNetwork:
    """x in [0, 1] -> all branch vectors Phi^{(l)}_n (p*L * p*L channels).

    The first stage reads (z_0, Phi_0) = (E(x), s e_l) linearly from the
    scalar factor net's output (s, E(x)).  Each gated stage updates (z, Phi)
    by the selectors chi_q(z) of stage n beside the carries of z and Phi,
    then the gate half.  Phi holds p*L branch vectors of length p*L each
    (branch-major); the gate of digit q gates all of them with chi_q before
    T_q' is applied.
    """
    pL = op.p * op.L
    B = pL * pL
    W = np.zeros((2 + B, 3))
    W[:2, 1:] = np.eye(2)
    W[2 + np.arange(pL) * (pL + 1), 0] = 1.0
    start = post_affine(scalar_factor_net(h, op.M, n), W, np.zeros(2 + B))
    chi = loop_assets(op.M, n)
    head = stack_nets([passthrough(2, "nonneg", chi.depth), chi,
                       passthrough(B, "general", chi.depth)],
                      [[0, 1], [0, 1], list(range(2, 2 + B))], 2 + B)
    stage = serial(head, _gate_half(op, gadget_bound(op, h, n)))
    core = serial(start, *[stage] * n)
    Wsel = np.hstack([np.zeros((B, 2)), np.eye(B)])
    return post_affine(core, Wsel, np.zeros(B))


def atomic_unit_interval_net(op: RefinementOp, h: SpecialHat, mu: int,
                             n: int) -> ReluNetwork:
    """Exact net for G_n of the atomic curve h e_mu on the unit cell; a
    reference for ``test_compiler``, which compile does not use."""
    core = atomic_core_net(op, h, n)
    pL = op.p * op.L
    W = np.zeros((pL, pL * pL))
    for l in range(pL):
        W[l, l * pL + mu] = 1.0
    return post_affine(core, W, np.zeros(pL))


@lru_cache(maxsize=None)
def _atomic_terms(curve: CpwlCurve) -> tuple:
    """``decompose_atomic`` of the curve, run once per curve: every stage of
    a sweep and every job of a forcing repeats it."""
    return tuple(decompose_atomic(curve))


def _job_cells(op: RefinementOp, curve: CpwlCurve, n: int):
    """(cells, terms, groups): nets t -> R^p whose sum is V^n(curve).  At
    power 0 the cell is the curve's own lowering; a zero curve has none."""
    if n == 0:
        return ([lower_curve_1d(curve)] if curve.max_abs() > 0 else []), 0, 0
    terms = _atomic_terms(curve)
    p, L, pL = op.p, op.L, op.p * op.L
    groups = {}
    for t in terms:
        groups.setdefault((t.shift, t.hat), []).append(t)
    scale = float(op.M) ** (-n)
    # Cell k's net runs on t - k unclamped: E's lowering is constant off
    # [0, 1], and E(0) = E(1) is the seam, where h vanishes, so the net is
    # 0 outside its cell.  The core depends on the hat alone, so every
    # shift and cell of a hat shares one, cut once to the units that can be
    # nonzero (Phi_0 has only pL nonzero channels, and h >= 0 with
    # nonnegative transitions keeps Phi >= 0), then once per set of branch
    # channels that cells read: no unit stays behind the other channels,
    # nor behind z, which no stage reads after the last digit.
    cores, cuts, cells = {}, {}, []
    for (shift, h), ts in groups.items():
        if h not in cores:
            cores[h] = cut_zeros(atomic_core_net(op, h, n))
        for k in range(L):
            Wk = np.zeros((p, pL * pL))
            for t in ts:
                for r in range(p):
                    Wk[r, (k * p + r) * pL + t.direction] += t.coeff
            read = np.flatnonzero(Wk.any(axis=0))
            key = (h, read.tobytes())
            if key not in cuts:
                cuts[key] = cut_tail(cores[h], read)
            cells.append(serial(affine_net([[1.0]], [-scale * shift - k]), cuts[key],
                                affine_net(Wk[:, read], np.zeros(p))))
    return cells, len(terms), len(groups)


def compile_jobs(op: RefinementOp, jobs) -> tuple:
    """(net, info): t -> the sum of V^k(curve) over ``jobs`` [(curve, k)],
    and the atomic terms and (shift, hat) groups it was built from."""
    if any(k < 0 for _, k in jobs):
        raise ValueError("a stage power must be nonnegative")
    p = op.p
    built = [_job_cells(op, curve, k) for curve, k in jobs]
    info = {"terms": sum(b[1] for b in built), "groups": sum(b[2] for b in built)}
    cells = [b[0] for b in built if b[0]]
    if not cells:
        return affine_net(np.zeros((p, 1)), np.zeros(p)), info
    stages = []
    for j, cs in enumerate(cells):
        t_out, acc_in = int(j + 1 < len(cells)), int(j > 0)
        # the live carries, (width, joint input): t, then the running sum
        carries = [(1, [0])] * t_out + [(p, list(range(1, 1 + p)))] * acc_in
        d = max(c.depth for c in cs)
        nets = [passthrough(k, "general", d) for k, _ in carries] + cs
        ins = [sl for _, sl in carries] + [[0]] * len(cs)
        W = np.zeros((t_out + p, t_out + p * (acc_in + len(cs))))
        W[:t_out, :t_out] = 1.0
        W[t_out:, t_out:] = np.hstack([np.eye(p)] * (acc_in + len(cs)))
        # a lone cell with no carries reads the whole input: no copy to stack
        stage = nets[0] if len(nets) == 1 else stack_nets(nets, ins, 1 + p * acc_in)
        stages.append(post_affine(stage, W, np.zeros(t_out + p)))
    # each stage is cut already: a seam can zero units from the first layer
    # of the next stage on, such as the negative half of a running sum >= 0
    seams = list(accumulate(len(s.layers) - 1 for s in stages[:-1]))
    return cut_zeros(serial(*stages), seams), info


def compile_homogeneous(op: RefinementOp, curve: CpwlCurve,
                        n: int) -> CompiledIterate:
    """Compile V^n(curve) into an exact ReLU network on the real line."""
    net, info = compile_jobs(op, [(curve, n)])
    return CompiledIterate(net, n, "homogeneous", info)
