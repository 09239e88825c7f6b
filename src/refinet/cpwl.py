"""Continuous piecewise-linear (CPwL) scalar functions and vector curves.

Scalar functions are stored as breakpoint/value arrays with constant tails:
the function is affine between consecutive breakpoints and constant outside
the breakpoint hull, equal to the first/last value.  Compactly supported
curves are the special case where both tails are zero.

A function is a value: it equals, and hashes as, any function with the same
bytes of breakpoints and values (so -0.0 != 0.0), and hats, curves and
atomic terms compare through it.  Its arrays are read-only views of the
caller's, not copies; ``np.interp`` copies a read-only array on every call,
so a function with many breakpoints is best evaluated at all points at once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MERGE_TOL = 1e-12
TAIL_TOL = 1e-10  # curve values this small count as zero in support checks
RHO = 0.25  # special hats live inside [RHO, 1 - RHO]


class SupportError(ValueError):
    """Raised when a curve violates a required support window."""


def read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``; ``a`` itself stays writeable."""
    v = a.view()
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class ScalarCpwl:
    """A scalar CPwL function given by breakpoints ``ts`` and values ``vs``.

    Constant tails: f(t) = vs[0] for t <= ts[0] and f(t) = vs[-1] for
    t >= ts[-1].
    """

    ts: np.ndarray
    vs: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.ts, dtype=float).ravel()
        vs = np.asarray(self.vs, dtype=float).ravel()
        if ts.size == 0 or ts.size != vs.size:
            raise ValueError("breakpoints and values must be nonempty and match")
        if ts.size > 1 and not np.all(np.diff(ts) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "ts", read_only(ts))
        object.__setattr__(self, "vs", read_only(vs))

    def __eq__(self, other):
        return (isinstance(other, ScalarCpwl) and self.ts.tobytes() == other.ts.tobytes()
                and self.vs.tobytes() == other.vs.tobytes())

    def __hash__(self):
        return hash((self.ts.tobytes(), self.vs.tobytes()))

    @property
    def left_tail(self) -> float:
        return float(self.vs[0])

    @property
    def right_tail(self) -> float:
        return float(self.vs[-1])

    def __call__(self, t):
        return np.interp(t, self.ts, self.vs)

    def slopes(self) -> np.ndarray:
        """Slope on each interior interval (empty for a single breakpoint)."""
        if self.ts.size < 2:
            return np.zeros(0)
        return np.diff(self.vs) / np.diff(self.ts)

    def scale(self, a: float) -> "ScalarCpwl":
        return ScalarCpwl(self.ts, a * self.vs)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.vs)))


def constant(c: float, t0: float = 0.0) -> ScalarCpwl:
    return ScalarCpwl(np.array([t0]), np.array([float(c)]))


def hat(left: float, mid: float, right: float, height: float = 1.0) -> ScalarCpwl:
    """Triangle bump: 0 at ``left``/``right``, ``height`` at ``mid``."""
    return ScalarCpwl(np.array([left, mid, right]), np.array([0.0, height, 0.0]))


def merge_grids(*grids) -> np.ndarray:
    """Sorted union of breakpoint grids, deduplicated with tolerance ``MERGE_TOL``."""
    allts = np.sort(np.concatenate([np.asarray(g, dtype=float).ravel() for g in grids]))
    if allts.size == 0:
        return allts
    keep = np.ones(allts.size, dtype=bool)
    keep[1:] = np.diff(allts) > MERGE_TOL
    return allts[keep]


def cpwl_combine(f: ScalarCpwl, g: ScalarCpwl, op: str) -> ScalarCpwl:
    """Exact pointwise sum / min / max of two scalar CPwL functions.

    For min/max, interior crossing points of f - g are inserted so the
    result is again CPwL on its breakpoint grid.
    """
    ts = merge_grids(f.ts, g.ts)
    if op in ("min", "max"):
        fv = f(ts)
        gv = g(ts)
        d = fv - gv
        cross = []
        for i in range(ts.size - 1):
            if d[i] * d[i + 1] < 0:
                # strict sign change: affine pieces intersect inside
                t = ts[i] + d[i] / (d[i] - d[i + 1]) * (ts[i + 1] - ts[i])
                cross.append(t)
        if cross:
            ts = merge_grids(ts, np.array(cross))
    fv = f(ts)
    gv = g(ts)
    if op == "sum":
        vs = fv + gv
    elif op == "min":
        vs = np.minimum(fv, gv)
    elif op == "max":
        vs = np.maximum(fv, gv)
    else:
        raise ValueError(f"unknown combine op {op!r}")
    return ScalarCpwl(ts, vs)


@dataclass(frozen=True)
class SpecialHat:
    """Nonnegative CPwL bump supported inside [RHO, 1 - RHO]."""

    base: ScalarCpwl

    def __post_init__(self):
        b = self.base
        if np.any(b.vs < -MERGE_TOL):
            raise ValueError("special hat must be nonnegative")
        if b.left_tail != 0.0 or b.right_tail != 0.0:
            raise SupportError("special hat must vanish outside its breakpoints")
        if b.ts[0] < RHO - MERGE_TOL or b.ts[-1] > 1 - RHO + MERGE_TOL:
            raise SupportError("special hat support must lie in [RHO, 1-RHO]")

    def __call__(self, t):
        return self.base(t)


@dataclass(frozen=True)
class CpwlCurve:
    """A vector-valued CPwL curve: one ScalarCpwl per coordinate.

    ``L`` is the declared support window [0, L] for compactly supported
    curves; curves with nonzero tails (anchor profiles) use it only as a
    bookkeeping width.
    """

    components: tuple
    L: int = 1

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("curve needs at least one component")
        object.__setattr__(self, "components", comps)

    @property
    def p(self) -> int:
        return len(self.components)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.stack([c(t) for c in self.components], axis=-1)

    def is_compact(self, tol: float = TAIL_TOL) -> bool:
        return all(abs(c.left_tail) <= tol and abs(c.right_tail) <= tol
                   for c in self.components)

    def check_support(self):
        """Compactly supported curves must live inside [0, L]."""
        if not self.is_compact():
            raise SupportError("curve has nonzero tails")
        for c in self.components:
            lo, hi = _support_hull(c)
            if lo < -TAIL_TOL or hi > self.L + TAIL_TOL:
                raise SupportError(
                    f"support [{lo}, {hi}] exceeds window [0, {self.L}]")

    def max_abs(self) -> float:
        return max(c.max_abs() for c in self.components)


def _support_hull(c: ScalarCpwl):
    nz = np.nonzero(np.abs(c.vs) > TAIL_TOL)[0]
    if nz.size == 0:
        return 0.0, 0.0
    lo = c.ts[max(nz[0] - 1, 0)]
    hi = c.ts[min(nz[-1] + 1, c.ts.size - 1)]
    return float(lo), float(hi)


def curve_add(a: CpwlCurve, b: CpwlCurve) -> CpwlCurve:
    if a.p != b.p:
        raise ValueError("component counts differ")
    comps = tuple(cpwl_combine(x, y, "sum") for x, y in zip(a.components, b.components))
    return CpwlCurve(comps, max(a.L, b.L))


def curve_scale(a: CpwlCurve, s: float) -> CpwlCurve:
    return CpwlCurve(tuple(c.scale(s) for c in a.components), a.L)


def zero_curve(p: int, L: int = 1) -> CpwlCurve:
    return CpwlCurve(tuple(constant(0.0) for _ in range(p)), L)


@dataclass(frozen=True)
class AtomicTerm:
    """One atom of a compactly supported curve: coeff * h(t - shift) * e_mu.

    ``direction`` is the 0-based coordinate index.
    """

    coeff: float
    shift: float
    hat: SpecialHat
    direction: int

    def __call__(self, t, p: int):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape + (p,))
        out[..., self.direction] = self.coeff * self.hat(t - self.shift)
        return out


def decompose_atomic(curve: CpwlCurve) -> list:
    """Write a compactly supported curve as a sum of shifted special hats.

    The shared breakpoint grid is refined by midpoint insertion until every
    nodal hat fits (after recentring at 1/2) inside [RHO, 1 - RHO]; each
    interior node then contributes one term per coordinate with a nonzero
    nodal value.
    """
    curve.check_support()
    grid = merge_grids(*[c.ts for c in curve.components])
    if grid.size < 2:
        return []
    max_len = 0.5 - RHO
    while True:
        gaps = np.diff(grid)
        bad = gaps > max_len + MERGE_TOL
        if not np.any(bad):
            break
        mids = (grid[:-1] + grid[1:])[bad] / 2
        grid = merge_grids(grid, mids)
    terms = []
    vals = curve(grid)  # (n, p)
    for i in range(1, grid.size - 1):
        delta = grid[i] - 0.5
        h = None
        for mu in range(curve.p):
            a = vals[i, mu]
            if a == 0.0:
                continue
            if h is None:
                base = hat(grid[i - 1] - delta, 0.5, grid[i + 1] - delta)
                h = SpecialHat(base)
            terms.append(AtomicTerm(float(a), float(delta), h, mu))
    return terms


def reconstruct_atomic(terms, p: int):
    """Pointwise evaluator for a sum of atomic terms: the reference that
    ``test_cpwl`` checks ``decompose_atomic`` against; not compiled."""
    def ev(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape + (p,))
        for term in terms:
            out += term(t, p)
        return out
    return ev
