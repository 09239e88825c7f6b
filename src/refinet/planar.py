"""Planar CPwL fields on a fan, and their exact lowering to depth-2 ReLU
networks through Courant hat functions.

A fan field is affine on each triangle (c, v_i, v_{i+1}) of a closed
boundary polygon v_0..v_{n-1} around a center c, so it equals
v_c + sum_i (v_i - v_c) hat_i, where hat_i is the Courant hat of boundary
vertex i.  With lr_i its barycentric coordinate in (c, v_i, v_{i+1}) and
ll_i its coordinate in (c, v_{i-1}, v_i), hat_i = ReLU(min(lr_i, ll_i)) =
ReLU(ReLU(lr_i) - ReLU(lr_i - ll_i)) whenever the two triangles at v_i
span less than pi at the center (He, Li, Xu & Zheng, arXiv:1807.03973).
Let rho_j be a linear function that vanishes on the line through c and
v_j and is positive toward v_{j-1}.  Then lr_i = alpha_i rho_{i+1} and
lr_i - ll_i = beta_i rho_i with alpha_i, beta_i > 0, so hat_i =
ReLU(alpha_i ReLU(rho_{i+1}) - beta_i ReLU(rho_i)): one first-layer unit
per ray.  ``fan_field`` inserts boundary-edge midpoints until every wedge
is below pi, and the outputs of a field share the hidden layers, differing
only in the linear readout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import Layer, ReluNetwork


@dataclass(frozen=True)
class PlanarCpwlField:
    """A fan field: vertices (n+1, 2), the center first; values (n+1, d);
    rays (n, 3), the linear functions a x + b y + c of rho_i; hat_weights
    (n, 2), the (alpha_i, beta_i) of hat_i = ReLU(alpha_i ReLU(rho_{i+1}) -
    beta_i ReLU(rho_i)), indices mod n; weights (n, d), the readout
    v_i - v_c."""

    vertices: np.ndarray
    values: np.ndarray
    rays: np.ndarray
    hat_weights: np.ndarray
    weights: np.ndarray


def fan_field(center, center_value, boundary_pts, boundary_values) -> PlanarCpwlField:
    """Fan triangulation over a closed boundary polygon (cyclic order).

    Every datum is read as its exact rational value (floats of any width,
    ints or ``fractions.Fraction``).  Boundary-edge midpoints, with their
    interpolated values, are inserted until every wedge is below pi, which
    leaves the field unchanged.  The rays, hat weights and readout weights
    are solved exactly in integers over one common denominator D of the data
    (``fan_core``), and each rounded once to float64.
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

    # P_j: the numerators over D^2 of p -> sign cross(p - c, u_j / D), which
    # vanishes on the line through c and v_j.  With den_i =
    # sign cross(u_i, u_{i+1}) > 0, lr_i = P_{i+1} / den_i and lr_i - ll_i =
    # sign cross(u_{i-1}, u_{i+1}) P_i / (den_{i-1} den_i).  rho_j =
    # 2^e P_j / gcd(P_j), e = floor(log2) of m_j = gcd(P_j) / den_{j-1} in
    # float64, so that alpha_{j-1} = m_j / 2^e lies in [1, 2).
    P = [[sign * s for s in (u[1] * D, -u[0] * D, u[0] * cy - u[1] * cx)] for u in ring]
    G = [math.gcd(*p) for p in P]
    den = [sign * cross(u, ring[(i + 1) % n]) for i, u in enumerate(ring)]
    m = [math.frexp(g / d) for g, d in zip(G, den[-1:] + den[:-1])]
    beta = [sign * cross(ring[i - 1], ring[(i + 1) % n]) * G[i] / (den[i - 1] * den[i])
            for i in range(n)]
    return PlanarCpwlField(
        vertices=np.array([[cx / D, cy / D]] + [[(r[0] + cx) / D, (r[1] + cy) / D]
                                                for r in ring]),
        values=np.array([[v / D for v in r] for r in [cv] + [r[2:] for r in ring]]),
        rays=np.array([[math.ldexp(s // g, e - 1) for s in p] for p, g, (_, e) in zip(P, G, m)]),
        hat_weights=np.array([[2 * f, math.ldexp(b, 1 - e)] for (f, _), b, (_, e)
                              in zip(m[1:] + m[:1], beta, m)]),
        weights=np.array([[(v - w) / D for v, w in zip(r[2:], cv)] for r in ring]))


def lower_planar_field(field: PlanarCpwlField) -> ReluNetwork:
    """Exact depth-2 ReLU realization of a fan field: a layer of rays, a
    layer of hats shared by its outputs, and one linear readout.  Only the
    hats of vertices with a nonzero readout row are emitted, as the others
    add 0 to every output, and only the rays they read: the right ray of
    each, in hat order, then the left rays that are no hat's right ray.  A
    field with no live hat keeps both (empty) hidden layers: depth 2."""
    n = len(field.weights)
    live = [i for i, w in enumerate(field.weights.tolist()) if any(w)]
    col = {r: k for k, r in enumerate(dict.fromkeys([(i + 1) % n for i in live] + live))}
    H = np.zeros((len(live), len(col)))
    k = np.arange(len(live))
    H[k, k], H[k, [col[i] for i in live]] = field.hat_weights[live].T * [[1], [-1]]
    R = field.rays[list(col)]
    return ReluNetwork(2, [
        Layer(R[:, :2], R[:, 2], "relu"),
        Layer(H, np.zeros(len(live)), "relu"),
        Layer(field.weights[live].T, field.values[0], "linear")])
