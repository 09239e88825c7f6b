import math
import random
from fractions import Fraction

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from refinet.loop import embed
from refinet.network import stack_nets
from refinet.planar import fan_field, lower_planar_field
from reference import fan_eval, fan_triangles


def sample_fan_points(rng, field, n):
    """Random barycentric points inside the field's own triangles."""
    tris = fan_triangles(field)
    tris = tris[rng.integers(0, len(tris), n)]
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
    got = fan_eval(f, f.vertices)
    assert np.max(np.abs(got - f.values)) < 1e-10


def test_lowered_field_matches_everywhere():
    rng = np.random.default_rng(1)
    for d in [1, 2]:
        f = make_fan(rng, 9, d)
        net = lower_planar_field(f)
        pts = sample_fan_points(rng, f, 500)
        got = net(pts)
        want = fan_eval(f, pts).reshape(-1, d)
        assert np.max(np.abs(got - want)) < 1e-10


def test_fields_on_one_fan_share_the_hats():
    # the outputs of one field share its hat layers and differ only in the
    # readout: a field with the outputs of f and g lowers to both side by side
    rng = np.random.default_rng(4)
    f = make_fan(rng, 8, 2)
    center, ring = f.vertices[0], f.vertices[1:]
    g = fan_field(center, rng.normal(size=1), ring, rng.normal(size=(len(ring), 1)))
    both = fan_field(center, np.hstack([f.values[0], g.values[0]]), ring,
                     np.hstack([f.values[1:], g.values[1:]]))
    joint, nf, ng = (lower_planar_field(h) for h in (both, f, g))
    assert joint.depth == 2 and joint.output_dim == 3
    for l, lf, lg in zip(joint.layers[:2], nf.layers, ng.layers):
        assert np.array_equal(l.weights, lf.weights)
        assert np.array_equal(l.weights, lg.weights)
    pts = sample_fan_points(rng, f, 300)
    assert np.max(np.abs(joint(pts) - np.hstack([nf(pts), ng(pts)]))) < 1e-12


def test_field_with_no_live_hat_lowers_at_depth_two():
    # every readout row is zero, so no hat is emitted, but both hat layers
    # stay (empty): the field is depth 2, and stack_nets does not pad it
    rng = np.random.default_rng(7)
    f = make_fan(rng, 6, 2)
    ring = f.vertices[1:]
    flat = fan_field(f.vertices[0], [1.5, -2.0], ring, np.tile([1.5, -2.0], (len(ring), 1)))
    net = lower_planar_field(flat)
    assert net.depth == 2 and [l.weights.shape[0] for l in net.layers] == [0, 0, 2]
    pts = sample_fan_points(rng, f, 50)
    assert np.array_equal(net(pts), np.tile([1.5, -2.0], (50, 1)))
    fan = lower_planar_field(f)
    joint = stack_nets([fan, net], [[0, 1], [0, 1]], 2)
    assert [l.weights.shape[0] for l in joint.layers] == [
        l.weights.shape[0] + w for l, w in zip(fan.layers, [0, 0, 2])]


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
    for tri in fan_triangles(f):
        a, b = f.vertices[tri[0]], f.vertices[tri[1]]
        mid = 0.5 * (a + b)
        va = fan_eval(f, np.array([mid]))
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


def _exact_ring(center, ring):
    """``ring`` (rows x, y, values...) after fan_field's midpoint insertion,
    in Fractions: split the edges at the first vertex whose wedge is pi or
    wider, until none is."""
    def cross(a, b):
        return ((a[0] - center[0]) * (b[1] - center[1])
                - (a[1] - center[1]) * (b[0] - center[0]))

    def mid(a, b):
        return [(s + t) / 2 for s, t in zip(a, b)]

    sign = 1 if cross(ring[0], ring[1]) > 0 else -1
    while True:
        n = len(ring)
        wide = [i for i in range(n) if sign * cross(ring[i - 1], ring[(i + 1) % n]) <= 0]
        if not wide:
            return ring
        i = wide[0]
        ring[i:i + 1] = [mid(ring[i - 1], ring[i]), ring[i], mid(ring[i], ring[(i + 1) % n])]


def _as_kind(x: Fraction, kind):
    if kind == "fraction":
        return x
    if kind == "float":
        return float(x)
    return np.longdouble(x.numerator) / np.longdouble(x.denominator)


@st.composite
def rational_rings(draw):
    """(center, center value, ring, ring values) on a star-shaped ring of
    3-9 points, with denominators 3 M^(n+1) or 2^k, each datum a Fraction,
    a float64 or a long double (rounded from the rational it is drawn as)."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        q = 3 * draw(st.integers(2, 16)) ** (draw(st.integers(0, 16)) + 1)
    else:
        q = 2 ** draw(st.integers(0, 60))
    kinds = draw(st.lists(st.sampled_from(["fraction", "float", "long"]),
                          min_size=3, max_size=3))
    d = draw(st.integers(1, 2))

    def num(scale=1):
        return Fraction(rng.randrange(-scale * q, scale * q + 1), q)

    center = [num(), num()]
    pts = {}
    for _ in range(draw(st.integers(3, 9))):
        p = (center[0] + num(4), center[1] + num(4))
        ang = math.atan2(p[1] - center[1], p[0] - center[0])
        pts.setdefault(ang, p)
    ring = [pts[a] for a in sorted(pts)]
    u = [(x - center[0], y - center[1]) for x, y in ring]
    # a star-shaped fan: every triangle (c, v_i, v_{i+1}) turns the same way
    assume(len(u) >= 3 and all(u[i - 1][0] * u[i][1] - u[i - 1][1] * u[i][0] > 0
                               for i in range(len(u))))
    center = [_as_kind(x, kinds[0]) for x in center]
    ring = [[_as_kind(x, kinds[1]) for x in p] for p in ring]
    cval = [_as_kind(num(), kinds[2]) for _ in range(d)]
    vals = [[_as_kind(num(), kinds[2]) for _ in range(d)] for _ in ring]
    return center, cval, ring, vals


def _triangle_ring():
    # an affine function sampled at rational vertices of the triangle loop
    # that float64 cannot hold; no midpoint is needed
    ts = [Fraction(j, 21) for j in range(21)]
    bpts = [(3 * t, 3 * t) if t <= Fraction(1, 3) else
            (1, 2 - 3 * t) if t <= Fraction(2, 3) else (3 - 3 * t, 0) for t in ts]
    f = lambda p: [3 * p[0] - 2 * p[1] + Fraction(1, 4)]
    center = (Fraction(2, 3), Fraction(1, 3))
    return center, f(center), bpts, [f(p) for p in bpts]


@settings(max_examples=300, deadline=None)
@given(rational_rings())
@example(_triangle_ring())
# a square around the center: every wedge is exactly pi, so midpoints go in
@example(((0.5, 0.5), [1], [(1.5, 0.5), (0.5, 1.5), (-0.5, 0.5), (0.5, -0.5)],
          [[Fraction(1, 3)], [2], [Fraction(-5, 7)], [0]]))
def test_fan_planes_exact_on_rational_data(data):
    # the rays, hat weights, readout weights, values and vertices the
    # lowering reads must be the exact ones, each rounded once
    center, cval, pts, vals = data
    field = fan_field(center, cval, pts, vals)

    def exact(v):
        return Fraction(*v.as_integer_ratio())

    assert_exact_fan(field, [exact(v) for v in center], [exact(v) for v in cval],
                     [[*map(exact, p), *map(exact, v)] for p, v in zip(pts, vals)])


def _ratio(a, b):
    """The c with a = c b, for vectors a and b of ``Fraction``s."""
    k = next(k for k, x in enumerate(b) if x)
    c = a[k] / b[k]
    assert list(a) == [c * x for x in b]
    return c


def _ray(plane):
    """The ray unit that replaces ``plane`` (``Fraction``s): its primitive
    integer functional g times the power of two 2^e with plane / g in
    [2^e, 2^(e+1)) in float64."""
    q = math.lcm(*(x.denominator for x in plane))
    ints = [int(x * q) for x in plane]
    g = math.gcd(*ints)
    e = math.frexp(g / q)[1] - 1
    return [Fraction(k // g) * Fraction(2) ** e for k in ints]


def assert_exact_fan(field, c, cv, ring):
    """``field``'s vertices, values, rays, hat weights and readout weights
    are each the correctly rounded exact one of the fan with center c,
    center values cv and boundary rows ``ring`` [x, y, values...], all
    ``Fraction``s.  Ray i replaces the right plane lr_{i-1} of vertex i - 1,
    and hat i's (alpha_i, beta_i) are the positive ratios lr_i / rho_{i+1}
    and (lr_i - ll_i) / rho_i of its barycentric planes."""
    ring = _exact_ring(c, ring)
    n = len(ring)

    def rounded(xs):
        return np.array([float(x) for x in xs]).tobytes()

    assert field.rays.shape == (n, 3) and field.hat_weights.shape == (n, 2)
    assert field.vertices.tobytes() == rounded([x for r in [c] + ring for x in r[:2]])
    assert field.values.tobytes() == rounded([x for r in [c + cv] + ring for x in r[2:]])
    xy = [r[:2] for r in ring]
    lr = [_exact_plane([c, xy[i], xy[(i + 1) % n]], [0, 1, 0]) for i in range(n)]
    rays = [_ray(lr[i - 1]) for i in range(n)]
    for i in range(n):
        ll = _exact_plane([c, xy[i - 1], xy[i]], [0, 0, 1])
        alpha = _ratio(lr[i], rays[(i + 1) % n])
        beta = _ratio([a - b for a, b in zip(lr[i], ll)], rays[i])
        assert alpha > 0 and beta > 0
        assert field.rays[i].tobytes() == rounded(rays[i])
        assert field.hat_weights[i].tobytes() == rounded([alpha, beta])
        assert field.weights[i].tobytes() == rounded([a - b for a, b in zip(ring[i][2:], cv)])
    assert len(_directions(rays)) == n


def _directions(units) -> set:
    """The units (``Fraction`` rows) scaled to a first nonzero entry of
    magnitude 1: two units share one if one is a positive multiple of the
    other."""
    out = set()
    for u in units:
        s = next(abs(x) for x in u if x)
        out.add(tuple(x / s for x in u))
    return out


def assert_one_unit_per_ray(field):
    """The first layer of ``field``'s lowering holds each ray that a live hat
    reads once and no other, and no two of its rows are positive multiples
    of each other, in ``Fraction``s; hat i reads alpha_i from ray i + 1 and
    -beta_i from ray i."""
    net = lower_planar_field(field)
    n = len(field.weights)
    live = np.flatnonzero(np.any(field.weights != 0, axis=1)).tolist()
    units = np.column_stack([net.layers[0].weights, net.layers[0].bias])
    col = {u.tobytes(): k for k, u in enumerate(units)}
    assert len(col) == len(units)
    assert set(col) == {field.rays[j].tobytes() for i in live for j in (i, (i + 1) % n)}
    want = np.zeros((len(live), len(units)))
    for k, i in enumerate(live):
        want[k, col[field.rays[(i + 1) % n].tobytes()]] = field.hat_weights[i, 0]
        want[k, col[field.rays[i].tobytes()]] = -field.hat_weights[i, 1]
    assert np.array_equal(net.layers[1].weights, want)
    assert len(_directions([[Fraction(x) for x in u] for u in units.tolist()])) == len(units)


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
    assert_one_unit_per_ray(f)
    pts = np.vstack([f.vertices, sample_fan_points(rng, f, 200)])
    assert np.max(np.abs(net(pts) - fan_eval(f, pts).reshape(-1, d))) < 1e-10
