"""Planar CPwL fields on a fan, and their exact lowering to depth-2 ReLU
networks through Courant hat functions.

A fan field is affine on each triangle (c, v_i, v_{i+1}) of a closed
boundary polygon v_0..v_{n-1} around a center c, so it equals
v_c + sum_i (v_i - v_c) hat_i, where hat_i is the Courant hat of boundary
vertex i.  With lr_i its barycentric coordinate in (c, v_i, v_{i+1}) and
ll_i its coordinate in (c, v_{i-1}, v_i), hat_i = ReLU(min(lr_i, ll_i))
whenever the two triangles at v_i span less than pi at the center, and
ReLU(min(a, b)) = ReLU(ReLU(a) - ReLU(a - b)) for any a, b: two ReLU
layers (He, Li, Xu & Zheng, arXiv:1807.03973).  ``fan_field`` inserts
boundary-edge midpoints until every wedge is below pi, and fields on one
fan share the hat layers, differing only in the linear readout.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .network import Layer, ReluNetwork


@dataclass(frozen=True)
class PlanarCpwlField:
    """A fan field: vertices (n+1, 2), the center first; values (n+1, d);
    hat_planes (2n, 3), the first-layer planes a x + b y + c of lr_i
    (rows 0..n-1) and lr_i - ll_i (rows n..2n-1); weights (n, d), the
    readout v_i - v_c."""

    vertices: np.ndarray
    values: np.ndarray
    hat_planes: np.ndarray
    weights: np.ndarray

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def triangles(self) -> np.ndarray:
        n = self.vertices.shape[0] - 1
        return np.array([[0, 1 + i, 1 + (i + 1) % n] for i in range(n)])

    def __call__(self, pts, tol: float = 1e-9):
        """Direct barycentric evaluation (oracle path)."""
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        P = np.atleast_2d(pts)
        out = np.full((P.shape[0], self.d), np.nan)
        best = np.full(P.shape[0], -np.inf)
        for tri in self.triangles:
            V = self.vertices[tri]
            A = np.column_stack([V, np.ones(3)])
            lam = np.linalg.solve(A.T, np.column_stack([P, np.ones(P.shape[0])]).T).T
            m = lam.min(axis=1)
            upd = m > best
            if np.any(upd):
                out[upd] = lam[upd] @ self.values[tri]
                best[upd] = m[upd]
        if np.any(best < -tol):
            raise ValueError("point outside the triangulated region")
        return out[0] if single else out


def fan_field(center, center_value, boundary_pts, boundary_values) -> PlanarCpwlField:
    """Fan triangulation over a closed boundary polygon (cyclic order).

    Every datum is read as its exact rational value (floats of any width,
    ints or ``fractions.Fraction``).  Boundary-edge midpoints, with their
    interpolated values, are inserted until every wedge is below pi, which
    leaves the field unchanged.  The hat planes and the readout weights are
    solved exactly and each rounded once to float64.
    """
    def exact(v):
        return Fraction(*v.as_integer_ratio())

    cx, cy, *cv = (exact(v) for v in [*center, *np.atleast_1d(
        np.asarray(center_value, dtype=object))])
    bvals = np.asarray(boundary_values, dtype=object)
    if bvals.ndim == 1:
        bvals = bvals[:, None]
    # rows (x - cx, y - cy, values...) of the boundary vertices
    ring = [[exact(p[0]) - cx, exact(p[1]) - cy, *map(exact, v)]
            for p, v in zip(boundary_pts, bvals)]

    def cross(a, b):
        return a[0] * b[1] - a[1] * b[0]

    def mid(a, b):
        return [(s + t) / 2 for s, t in zip(a, b)]

    sign = 1 if cross(ring[0], ring[1]) > 0 else -1
    if any(sign * cross(ring[i - 1], ring[i]) <= 0 for i in range(len(ring))):
        raise ValueError("boundary polygon is not star-shaped around the center")
    while True:
        n = len(ring)
        wide = [i for i in range(n) if sign * cross(ring[i - 1], ring[(i + 1) % n]) <= 0]
        if not wide:
            break
        i = wide[0]
        ring[i:i + 1] = [mid(ring[i - 1], ring[i]), ring[i], mid(ring[i], ring[(i + 1) % n])]

    def plane(a, den):
        # the affine function p -> cross(a, p - c) / den
        return -a[1] / den, a[0] / den, (a[1] * cx - a[0] * cy) / den

    right, diff = [], []
    for i, u in enumerate(ring):
        prev, nxt = ring[i - 1], ring[(i + 1) % n]
        lr = plane([-nxt[0], -nxt[1]], cross(u, nxt))
        ll = plane(prev, cross(prev, u))
        right.append(lr)
        diff.append([a - b for a, b in zip(lr, ll)])
    vertices = [[cx, cy]] + [[r[0] + cx, r[1] + cy] for r in ring]
    return PlanarCpwlField(
        vertices=np.array(vertices, dtype=float),
        values=np.array([cv] + [r[2:] for r in ring], dtype=float),
        hat_planes=np.array(right + diff, dtype=float),
        weights=np.array([[v - w for v, w in zip(r[2:], cv)] for r in ring], dtype=float))


def lower_planar_field(*fields: PlanarCpwlField) -> ReluNetwork:
    """Exact depth-2 ReLU realization of fields on one fan: a shared layer
    of hats and one linear readout, the fields' outputs concatenated."""
    f0 = fields[0]
    if any(not np.array_equal(f.vertices, f0.vertices) for f in fields):
        raise ValueError("fields lowered together must share their fan vertices")
    n = f0.weights.shape[0]
    P = f0.hat_planes
    return ReluNetwork(2, [
        Layer(P[:, :2], P[:, 2], "relu"),
        Layer(np.hstack([np.eye(n), -np.eye(n)]), np.zeros(n), "relu"),
        Layer(np.hstack([f.weights for f in fields]).T,
              np.concatenate([f.values[0] for f in fields]), "linear")])
