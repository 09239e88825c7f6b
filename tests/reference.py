"""References that only the tests read: direct evaluations, independent of
the lowerings that the tests check them against."""
import numpy as np

INSIDE_TOL = 1e-9  # barycentric slack before a point counts as outside the fan


def fan_triangles(field) -> np.ndarray:
    """The triangles (c, v_i, v_{i+1}) of a fan field, as vertex indices."""
    n = field.vertices.shape[0] - 1
    return np.array([[0, 1 + i, 1 + (i + 1) % n] for i in range(n)])


def fan_eval(field, pts):
    """A fan field at pts of shape (2,) or (N, 2), by direct barycentric
    evaluation on the triangle where the point lies deepest."""
    pts = np.asarray(pts, dtype=float)
    P = np.atleast_2d(pts)
    out = np.full((P.shape[0], field.values.shape[1]), np.nan)
    best = np.full(P.shape[0], -np.inf)
    for tri in fan_triangles(field):
        A = np.column_stack([field.vertices[tri], np.ones(3)])
        lam = np.linalg.solve(A.T, np.column_stack([P, np.ones(P.shape[0])]).T).T
        m = lam.min(axis=1)
        upd = m > best
        if np.any(upd):
            out[upd] = lam[upd] @ field.values[tri]
            best[upd] = m[upd]
    if np.any(best < -INSIDE_TOL):
        raise ValueError("point outside the triangulated region")
    return out[0] if pts.ndim == 1 else out
