from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from refinet.loop import embed
from refinet.planar import fan_field, lower_planar_field


def sample_fan_points(rng, field, n):
    """Random barycentric points inside the field's own triangles."""
    tris = field.triangles[rng.integers(0, len(field.triangles), n)]
    w = rng.uniform(0, 1, (n, 3))
    w /= w.sum(axis=1, keepdims=True)
    return np.einsum("nk,nkd->nd", w, field.vertices[tris])


def make_fan(rng, nb, d):
    # boundary points on the triangle loop, strictly ordered parameters
    ts = np.sort(rng.uniform(0, 1, nb))
    bpts = embed(ts)
    vals = rng.normal(size=(nb, d))
    center = np.array([2 / 3, 1 / 3])
    return fan_field(center, rng.normal(size=d), bpts, vals)


def test_fan_interpolates_vertices():
    rng = np.random.default_rng(0)
    f = make_fan(rng, 7, 2)
    got = f(f.vertices)
    assert np.max(np.abs(got - f.values)) < 1e-10


def test_lowered_field_matches_everywhere():
    rng = np.random.default_rng(1)
    for d in [1, 2]:
        f = make_fan(rng, 9, d)
        net = lower_planar_field(f)
        pts = sample_fan_points(rng, f, 500)
        got = net(pts)
        want = f(pts).reshape(-1, d)
        assert np.max(np.abs(got - want)) < 1e-10


def test_fields_on_one_fan_share_the_hats():
    rng = np.random.default_rng(4)
    f = make_fan(rng, 8, 2)
    g = fan_field(f.vertices[0], rng.normal(size=1), f.vertices[1:],
                  rng.normal(size=(8, 1)))
    joint = lower_planar_field(f, g)
    assert joint.depth == 2 and joint.output_dim == 3
    pts = sample_fan_points(rng, f, 300)
    want = np.hstack([lower_planar_field(f)(pts), lower_planar_field(g)(pts)])
    assert np.max(np.abs(joint(pts) - want)) < 1e-12
    with pytest.raises(ValueError):
        lower_planar_field(f, make_fan(rng, 8, 1))


def test_lowered_depth_depends_only_on_piece_count():
    rng = np.random.default_rng(2)
    f1 = make_fan(rng, 8, 1)
    f2 = make_fan(rng, 8, 1)
    n1 = lower_planar_field(f1)
    n2 = lower_planar_field(f2)
    assert n1.depth == n2.depth


def test_field_continuous_across_shared_edges():
    rng = np.random.default_rng(3)
    f = make_fan(rng, 6, 1)
    # points on the segment between the center and each boundary vertex
    for tri in f.triangles:
        a, b = f.vertices[tri[0]], f.vertices[tri[1]]
        mid = 0.5 * (a + b)
        va = f(np.array([mid]))
        net = lower_planar_field(f)
        assert np.max(np.abs(net(np.array([mid])) - va.reshape(1, -1))) < 1e-10


def _exact_plane(pts, vals):
    """(a, b, c) with a x + b y + c = vals at the three pts, in Fractions."""
    (x0, y0), (x1, y1), (x2, y2) = pts
    z0, z1, z2 = vals
    det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    a = ((z1 - z0) * (y2 - y0) - (z2 - z0) * (y1 - y0)) / det
    b = ((x1 - x0) * (z2 - z0) - (x2 - x0) * (z1 - z0)) / det
    return a, b, z0 - a * x0 - b * y0


def test_fan_planes_exact_on_rational_data():
    # an affine function sampled at rational vertices that float64 cannot
    # hold: the hat planes and readout weights the lowering reads must be
    # the exact ones, each rounded once
    ts = [Fraction(j, 21) for j in range(21)]
    bpts = [(3 * t, 3 * t) if t <= Fraction(1, 3) else
            (1, 2 - 3 * t) if t <= Fraction(2, 3) else (3 - 3 * t, 0) for t in ts]
    f = lambda p: [3 * p[0] - 2 * p[1] + Fraction(1, 4)]
    center = (Fraction(2, 3), Fraction(1, 3))
    field = fan_field(center, f(center), bpts, [f(p) for p in bpts])
    n = len(bpts)
    assert field.hat_planes.shape == (2 * n, 3)   # no midpoint was needed
    for i in range(n):
        prev, v, nxt = bpts[i - 1], bpts[i], bpts[(i + 1) % n]
        lr = _exact_plane([center, v, nxt], [0, 1, 0])
        ll = _exact_plane([center, prev, v], [0, 0, 1])
        assert list(field.hat_planes[i]) == [float(c) for c in lr]
        assert list(field.hat_planes[n + i]) == [float(a - b) for a, b in zip(lr, ll)]
        assert field.weights[i, 0] == float(f(v)[0] - f(center)[0])
    assert field.values[0, 0] == float(f(center)[0])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 999), min_size=3, max_size=12, unique=True),
       st.sampled_from([1, 2]), st.integers(0, 2 ** 32 - 1))
def test_lowered_fan_exact_with_wide_wedges(ks, d, seed):
    # sparse loop vertices leave wedges of pi or wider at the center
    rng = np.random.default_rng(seed)
    ts = np.sort(np.array(ks)) / 1000
    center = np.array([2 / 3, 1 / 3])
    u = embed(ts).astype(float) - center
    w = np.roll(u, -1, axis=0)
    # a fan: every triangle (c, v_i, v_{i+1}) turns clockwise, as the loop does
    assume(np.all(u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0] < -1e-9))
    f = fan_field(center, rng.normal(size=d), embed(ts), rng.normal(size=(len(ts), d)))
    net = lower_planar_field(f)
    assert net.depth == 2
    pts = np.vstack([f.vertices, sample_fan_points(rng, f, 200)])
    assert np.max(np.abs(net(pts) - f(pts).reshape(-1, d))) < 1e-10
