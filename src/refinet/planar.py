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
boundary-edge midpoints until every wedge is below pi, and the outputs of
a field share the hat layers, differing only in the linear readout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import Layer, ReluNetwork

INSIDE_TOL = 1e-9  # barycentric slack before a point counts as outside the fan


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

    def __call__(self, pts):
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
        if np.any(best < -INSIDE_TOL):
            raise ValueError("point outside the triangulated region")
        return out[0] if single else out


def fan_field(center, center_value, boundary_pts, boundary_values) -> PlanarCpwlField:
    """Fan triangulation over a closed boundary polygon (cyclic order).

    Every datum is read as its exact rational value (floats of any width,
    ints or ``fractions.Fraction``).  Boundary-edge midpoints, with their
    interpolated values, are inserted until every wedge is below pi, which
    leaves the field unchanged.  The hat planes and the readout weights are
    solved exactly in integers over one common denominator D of the data
    (``fan_core``), and each rounded once to float64 as a correctly rounded
    int / int.
    """
    bvals = np.asarray(boundary_values, dtype=object)
    if bvals.ndim == 1:
        bvals = bvals[:, None]
    rows = [[*center, *np.atleast_1d(np.asarray(center_value, dtype=object))]]
    rows += [[*p, *v] for p, v in zip(boundary_pts, bvals)]
    rows = [[v.as_integer_ratio() for v in row] for row in rows]
    D = math.lcm(*(q for row in rows for _, q in row))
    return fan_core(D, [[p * (D // q) for p, q in row] for row in rows])


def fan_core(D: int, rows) -> PlanarCpwlField:
    """``fan_field``'s integer core: ``rows`` [x, y, values...] of the center
    and then of the boundary vertices, every datum an integer numerator over
    D > 0."""
    (cx, cy, *cv), *ring = rows
    # rows D * (x - cx, y - cy, values...) of the boundary vertices
    ring = [[x - cx, y - cy, *v] for x, y, *v in ring]

    def cross(a, b):
        return a[0] * b[1] - a[1] * b[0]

    def mid(a, b):
        return [(s + t) // 2 for s, t in zip(a, b)]

    sign = 1 if cross(ring[0], ring[1]) > 0 else -1
    if any(sign * cross(ring[i - 1], ring[i]) <= 0 for i in range(len(ring))):
        raise ValueError("boundary polygon is not star-shaped around the center")
    while True:
        n = len(ring)
        wide = [i for i in range(n) if sign * cross(ring[i - 1], ring[(i + 1) % n]) <= 0]
        if not wide:
            break
        # double every datum with D, so that the midpoints are integers
        D, cx, cy, cv = 2 * D, 2 * cx, 2 * cy, [2 * v for v in cv]
        ring = [[2 * s for s in r] for r in ring]
        i = wide[0]
        ring[i:i + 1] = [mid(ring[i - 1], ring[i]), ring[i], mid(ring[i], ring[(i + 1) % n])]

    def plane(a):
        # numerators of the affine function p -> cross(a, p - c) / den over
        # sign D^2 den, for a and den stored as D and D^2 times their values;
        # sign den > 0, so no coefficient rounds to -0.0
        return [sign * s for s in (-a[1] * D, a[0] * D, a[1] * cx - a[0] * cy)]

    right, diff = [], []
    for i, u in enumerate(ring):
        prev, nxt = ring[i - 1], ring[(i + 1) % n]
        den_r, den_l = sign * cross(u, nxt), sign * cross(prev, u)
        lr, ll = plane([-nxt[0], -nxt[1]]), plane(prev)
        right.append([a / den_r for a in lr])
        diff.append([(a * den_l - b * den_r) / (den_r * den_l) for a, b in zip(lr, ll)])
    return PlanarCpwlField(
        vertices=np.array([[cx / D, cy / D]] + [[(r[0] + cx) / D, (r[1] + cy) / D]
                                                for r in ring]),
        values=np.array([[v / D for v in r] for r in [cv] + [r[2:] for r in ring]]),
        hat_planes=np.array(right + diff),
        weights=np.array([[(v - w) / D for v, w in zip(r[2:], cv)] for r in ring]))


def lower_planar_field(field: PlanarCpwlField) -> ReluNetwork:
    """Exact depth-2 ReLU realization of a fan field: a layer of hats shared
    by its outputs, and one linear readout.  Only the hats of vertices with
    a nonzero readout row are emitted: the others add 0 to every output.
    A field with none keeps both (empty) hat layers, so it stays depth 2."""
    live = np.flatnonzero(np.any(field.weights != 0, axis=1))
    P = field.hat_planes[np.concatenate([live, len(field.weights) + live])]
    I = np.eye(live.size)
    return ReluNetwork(2, [
        Layer(P[:, :2], P[:, 2], "relu"),
        Layer(np.hstack([I, -I]), np.zeros(live.size), "relu"),
        Layer(field.weights[live].T, field.values[0], "linear")])
