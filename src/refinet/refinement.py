"""M-ary vector refinement operators and the direct-recursion oracle.

The operator acts on p-component curves supported in [0, L]:

    (V gamma)(t) = sum_j A_j gamma(M t - j)

with p x p mask matrices A_j.  Support is preserved iff every nonzero
mask index satisfies 0 <= j <= (M - 1) * L.

An operator is a value, as a ``cpwl`` function is: it equals, and hashes
as, any operator with the same M, p, L and bytes of every A_j.  Each A_j
is a read-only view of the caller's array, not a copy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpwl import CpwlCurve, ScalarCpwl, SupportError, merge_grids, read_only, zero_curve

SNAP_TOL = 1e-12
BREAKPOINT_CAP = 10_000_000


@dataclass(frozen=True)
class RefinementOp:
    """Dilation M, block size p, support width L and mask {j: A_j} by j."""

    M: int
    p: int
    L: int
    mask: dict

    def __post_init__(self):
        if self.M < 2:
            raise ValueError("dilation factor must be >= 2")
        if self.p < 1 or self.L < 1:
            raise ValueError("p and L must be positive")
        mask = {}
        for j, A in sorted(self.mask.items()):
            A = np.asarray(A, dtype=float)
            if A.shape != (self.p, self.p):
                raise ValueError(f"mask A_{j} has shape {A.shape}, want {(self.p, self.p)}")
            if not np.any(A):
                continue
            if j < 0 or j > (self.M - 1) * self.L:
                raise SupportError(
                    f"mask index j={j} outside support-preserving range "
                    f"[0, {(self.M - 1) * self.L}]")
            mask[int(j)] = read_only(A)
        object.__setattr__(self, "mask", mask)

    def _content(self) -> tuple:
        return self.M, self.p, self.L, tuple((j, A.tobytes()) for j, A in self.mask.items())

    def __eq__(self, other):
        return isinstance(other, RefinementOp) and self._content() == other._content()

    def __hash__(self):
        return hash(self._content())


@dataclass(frozen=True)
class DigitStream:
    """M-ary digits q_1..q_n and residuals R^0(x)..R^n(x) of a point x.

    The residuals are the exact orbit of the float64 value x, each rounded
    once to float64 (see ``residual_iterate``).
    """

    x: float
    M: int
    digits: tuple
    residuals: tuple


def residual_iterate(x: float, M: int, n: int) -> DigitStream:
    """The first n digits and residuals of the exact orbit of x: the one
    statement of the M-ary digit map, which ``digit_residual`` and
    ``cascade_eval`` read.

    A step maps r to q = floor(M r) and M r - q, snapping M r within 1e-12
    of an integer to it (right-cell digit) and r >= 1 - 1e-12 / M to
    (M - 1, 1); x may lie 1e-12 outside [0, 1], and a negative x reads as
    0.  x is read as the exact rational value of its float64 and iterated
    in integers over its power-of-two denominator, so each residual is
    rounded to float64 once: rounded residuals fed back into the map would
    gain a factor M of error per step.
    """
    x = float(x)
    if x < -SNAP_TOL or x > 1 + SNAP_TOL:
        raise ValueError(f"digit map argument {x} outside [0, 1]")
    x = max(x, 0.0)
    num, den = x.as_integer_ratio()       # the residual is num / den
    # the thresholds as exact bounds on integers:
    # num >= top  <=>  residual >= 1 - SNAP_TOL / M,
    # d < snap    <=>  d / den < SNAP_TOL
    top = _ceil_times(1 - SNAP_TOL / M, den)
    snap = _ceil_times(SNAP_TOL, den)
    digits = []
    res = [x]
    for _ in range(n):
        if num >= top:
            q, num = M - 1, den
        else:
            q, num = divmod(M * num, den)
            if num < snap:
                num = 0
            elif den - num < snap:
                q, num = q + 1, 0
        digits.append(q)
        res.append(num / den)
    return DigitStream(x, M, tuple(digits), tuple(res))


def digit_residual(x: float, M: int):
    """One step (q, r) of the digit map of ``residual_iterate``."""
    stream = residual_iterate(x, M, 1)
    return stream.digits[0], stream.residuals[1]


def _ceil_times(a: float, den: int) -> int:
    """ceil(a * den) for a float a, exactly."""
    p, q = a.as_integer_ratio()
    return -(-p * den // q)


def apply_v(op: RefinementOp, curve: CpwlCurve) -> CpwlCurve:
    """Exact CPwL image of ``curve`` under the refinement operator.

    Works for curves with constant (possibly nonzero) tails: the output
    tails are S times the input tails.
    """
    if curve.p != op.p:
        raise ValueError("curve dimension does not match operator")
    in_grid = merge_grids(*[c.ts for c in curve.components])
    if not op.mask:
        return zero_curve(op.p, op.L)
    grids = [(in_grid + j) / op.M for j in op.mask]
    ts = merge_grids(*grids)
    # between consecutive output breakpoints every gamma(M t - j) is affine
    vals = np.zeros((ts.size, op.p))
    for j, A in op.mask.items():
        vals += curve(op.M * ts - j) @ A.T
    comps = tuple(ScalarCpwl(ts, vals[:, i]) for i in range(op.p))
    return CpwlCurve(comps, curve.L)


def check_breakpoint_cap(size: int, factor: int, n: int):
    """Refuse a direct recursion of n steps from ``size`` breakpoints, each
    step multiplying them by at most ``factor``, whose estimate
    size * factor^n exceeds ``BREAKPOINT_CAP``."""
    est = size
    for _ in range(n):
        est *= max(factor, 1)
        if est > BREAKPOINT_CAP:
            raise SupportError(f"direct recursion would need more than "
                               f"{BREAKPOINT_CAP} breakpoints")


def apply_v_n(op: RefinementOp, curve: CpwlCurve, n: int) -> CpwlCurve:
    """n-fold application of the operator (the direct-recursion oracle);
    refuses a negative n, a curve of another dimension than the operator's
    (at n = 0 too), and a stage past ``check_breakpoint_cap``."""
    if n < 0:
        raise ValueError("a stage power must be nonnegative")
    if curve.p != op.p:
        raise ValueError("curve dimension does not match operator")
    check_breakpoint_cap(max(c.ts.size for c in curve.components), len(op.mask), n)
    out = curve
    for _ in range(n):
        out = apply_v(op, out)
    return out


def vectorize(curve: CpwlCurve):
    """The window vector G(x) = (gamma(x), gamma(x+1), .., gamma(x+L-1)).

    Returns a callable mapping x (scalar or array) to shape (..., p*L).
    """
    L, p = curve.L, curve.p

    def G(x):
        x = np.asarray(x, dtype=float)
        parts = [curve(x + k) for k in range(L)]
        return np.concatenate(parts, axis=-1)

    return G


def block_transitions(op: RefinementOp) -> np.ndarray:
    """The digit-indexed p*L x p*L transition blocks T_0..T_{M-1}, stacked.

    Block (k, l) of T_q, 1-based, is A_{q + M(k-1) - (l-1)} when present,
    else 0.
    """
    p, L, M = op.p, op.L, op.M
    T = np.zeros((M, L, p, L, p))
    for j, A in op.mask.items():
        for k in range(L):
            for l in range(L):
                if 0 <= j - M * k + l < M:
                    T[j - M * k + l, k, :, l] = A
    return T.reshape(M, p * L, p * L)


def cascade_eval(op: RefinementOp, curve: CpwlCurve, x, n: int) -> np.ndarray:
    """G_n(x) via the digit-driven matrix cascade (no curve refinement), of
    shape x.shape + (p*L,) for a point or an array of points x.

    Each point's orbit is ``residual_iterate``'s; G is evaluated once at
    all last residuals, and each digit, from the last, is one batched
    matrix-vector product over the points."""
    x = np.asarray(x, dtype=float)
    streams = [residual_iterate(t, op.M, n) for t in x.ravel().tolist()]
    digits = np.array([s.digits for s in streams], dtype=np.intp).reshape(len(streams), n)
    v = vectorize(curve)(np.array([s.residuals[-1] for s in streams]))[..., None]
    T = block_transitions(op)
    for j in reversed(range(n)):
        v = T[digits[:, j]] @ v
    return v.reshape(x.shape + (op.p * op.L,))


def transition_norm(op: RefinementOp) -> float:
    """max_q of the infinity norm of T_q transposed (cascade growth rate)."""
    return max(np.linalg.norm(T.T, np.inf) for T in block_transitions(op))
