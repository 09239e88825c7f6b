import argparse
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from refinet import cli, compiler, gallery
from refinet.cpwl import RHO, ScalarCpwl, SpecialHat, decompose_atomic, hat
from refinet.loop import (DELTA_BAR, LoopConfig, _embed_exact,
                          _selector_knots, build_controller_field,
                          controller_orbit, embed,
                          min_readout_scalar, readout_minus, readout_plus,
                          scalar_field, selector_field, selector_scalars)
from refinet.network import eval_exact
from refinet.planar import lower_planar_field
from refinet.refinement import digit_residual, residual_iterate
from test_compiler import clear_caches
from test_network import unread_units
from reference import fan_eval
from test_planar import assert_exact_fan, assert_one_unit_per_ray


def test_embed_landmarks():
    assert np.allclose(embed(np.array(0.0)), [0.0, 0.0])
    assert np.allclose(embed(np.array(1.0)), [0.0, 0.0])
    assert np.allclose(embed(np.array(1 / 3)), [1.0, 1.0])
    assert np.allclose(embed(np.array(2 / 3)), [1.0, 0.0])
    assert np.allclose(embed(np.array(0.5)), [1.0, 0.5])


def test_embed_traverses_whole_boundary():
    ts = np.linspace(0, 1, 601)
    pts = embed(ts)
    d = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    assert np.all(d > 0)
    # total arc length equals the triangle perimeter
    per = np.sqrt(2) + 1 + 1
    assert np.sum(d) == pytest.approx(per, rel=1e-9)


def test_controller_transports_residual():
    rng = np.random.default_rng(0)
    for M in [2, 3, 7]:
        F = build_controller_field(M)
        ts = rng.uniform(0, 1, 300)
        got = fan_eval(F, embed(ts)).reshape(-1, 2)
        want = embed(np.array([digit_residual(t, M)[1] for t in ts]))
        assert np.max(np.abs(got - want)) < 1e-12


def test_controller_examples():
    F2 = build_controller_field(2)
    assert np.allclose(fan_eval(F2, np.array([embed(np.array(0.25))]))[0], [1.0, 0.5])
    assert np.allclose(fan_eval(F2, np.array([[0.0, 0.0]]))[0], [0.0, 0.0])


def test_orbit_alternates_for_third():
    F = lower_planar_field(build_controller_field(2))
    z = controller_orbit(1 / 3, 4, lambda v: F(np.array([v]))[0])
    want = np.array([[1, 1], [1, 0], [1, 1], [1, 0], [1, 1]], dtype=float)
    assert np.max(np.abs(z - want)) < 1e-9


def test_lowered_controller_orbit_drift_small_m():
    rng = np.random.default_rng(1)
    for M in [2, 3]:
        net = lower_planar_field(build_controller_field(M))
        xs = rng.uniform(0, 1, 100)
        z = embed(xs)
        worst = 0.0
        for j in range(1, 9):
            z = net(z)
            want = embed(np.array([residual_iterate(x, M, j).residuals[-1] for x in xs]))
            worst = max(worst, float(np.max(np.abs(z - want))))
        assert worst < 1e-9


def test_lowered_controller_exact_for_every_m():
    # iterated exactly from the exact E(x), the lowered controller follows
    # the exact residual orbit, which is a float64 at every step
    xs = np.random.default_rng(4).uniform(0, 1, 200)
    for M in range(2, 17):
        net = lower_planar_field(build_controller_field(M))
        orbits = [residual_iterate(x, M, 8).residuals for x in xs]
        z = [_embed_exact(Fraction(x)) for x in xs]
        for j in range(1, 9):
            z = eval_exact(net, z)
            assert z.tolist() == [list(_embed_exact(Fraction(o[j]))) for o in orbits]


@pytest.fixture(scope="module")
def gallery_hats():
    """Every special hat that the gallery's compiles read, at stage 2."""
    hats = set()

    def record(curve):
        terms = decompose_atomic(curve)
        hats.update(t.hat for t in terms)
        return terms

    clear_caches()    # decompose every curve anew
    with mock.patch.object(compiler, "decompose_atomic", record):
        for name in gallery.NAMED_INSTANCES:
            kind, op, src = cli._source(argparse.Namespace(spec=None, example=name))
            for compile_, _ in cli.MODES[kind].values():
                compile_(op, src, 2)
    return hats


def test_loop_lowerings_emit_no_unread_unit(gallery_hats):
    # a hat is emitted only where the readout row is nonzero: F reads 0 at
    # the M vertices E(k/M) = a0, as at the center, so 2M of its 3M stay
    for M in range(2, 17):
        net = lower_planar_field(build_controller_field(M))
        assert unread_units(net) == 0 and net.layers[1].weights.shape[0] == 2 * M
    for M, n in [(2, 16), (4, 3), (7, 6)]:
        assert unread_units(lower_planar_field(selector_field(LoopConfig(M, n)))) == 0
    assert len(gallery_hats) >= 6
    for h in gallery_hats:
        field = scalar_field(h)
        net = lower_planar_field(field)
        assert unread_units(net) == 0
        assert net.layers[1].weights.shape[0] == np.count_nonzero(field.values[1:])


def test_lowered_loop_fans_hold_one_unit_per_ray(gallery_hats):
    # F, the selectors and H emit each ray that a live hat reads once, and
    # no unit that is a positive multiple of another.  At M = 16, n = 20
    # (delta_n = 2^-87) the selector fan's float64 vertices coincide, so its
    # rays cannot all round apart (``test_selector_fields_are_exact`` checks
    # them exact there); n = 12 stands in for it.
    fields = [build_controller_field(M) for M in range(2, 17)]
    fields += [selector_field(LoopConfig(M, n)) for M in [2, 3, 4, 7, 16]
               for n in [0, 1, 5, 20 if M < 16 else 12]]
    fields += [scalar_field(h) for h in gallery_hats]
    for field in fields:
        assert_one_unit_per_ray(field)


def _exact_at(knots, t):
    """The CPwL function through the ``Fraction`` knots at t, exactly."""
    for (t0, v0), (t1, v1) in zip(knots, knots[1:]):
        if t0 <= t <= t1:
            return v0 + (t - t0) * (v1 - v0) / (t1 - t0)


def _exact_loop_fan(knot_lists):
    """(center, center values, boundary rows) of the loop field through the
    ``Fraction`` knot lists, each [(0, v_0), .., (1, v_k)]: the center
    (2/3, 1/3) reads 0, and the boundary is E(t), with every list's value,
    for t in the corners and every knot in [0, 1)."""
    ts = sorted({Fraction(j, 3) for j in range(3)}
                | {t for knots in knot_lists for t, _ in knots if t < 1})
    rows = [[*_embed_exact(t), *(_exact_at(knots, t) for knots in knot_lists)]
            for t in ts]
    return [Fraction(2, 3), Fraction(1, 3)], [Fraction(0)] * len(knot_lists), rows


def test_controller_fields_are_exact():
    # F(E(t)) = E(M t mod 1) on the grid t = j / (3M)
    for M in range(2, 17):
        ts = [Fraction(j, 3 * M) for j in range(3 * M + 1)]
        images = [_embed_exact(M * t % 1) for t in ts]
        knots = [list(zip(ts, coord)) for coord in zip(*images)]
        assert_exact_fan(build_controller_field(M), *_exact_loop_fan(knots))


@pytest.mark.parametrize("M", [2, 3, 4, 7, 16])
def test_selector_fields_are_exact(M):
    for n in [0, 1, 5, 20]:
        cfg = LoopConfig(M, n)
        assert_exact_fan(selector_field(cfg), *_exact_loop_fan(_selector_knots(cfg)))


def _hat_knots(h):
    """h's knots on [0, 1] as ``Fraction``s, from its float breakpoints."""
    zero = Fraction(0)
    return [(zero, zero), *((Fraction(t), Fraction(v)) for t, v in zip(h.base.ts, h.base.vs)),
            (Fraction(1), zero)]


def test_scalar_fields_are_exact(gallery_hats):
    # random hats put the corners 1/3 and 2/3 inside a piece that is not flat
    for h in [*gallery_hats, *_random_hats(np.random.default_rng(5))]:
        assert_exact_fan(scalar_field(h), *_exact_loop_fan([_hat_knots(h)]))


def test_readout_endpoints():
    eps = 0.125
    rm, rp = readout_minus(eps), readout_plus(eps)
    assert rm(np.array([1.0])) == 0.0
    assert rm(np.array([0.0])) == 0.0
    assert rp(np.array([0.0])) == 1.0
    assert rp(np.array([1.0])) == 1.0
    assert rm(np.array([0.5])) == pytest.approx(0.5)


def test_min_readout_identity():
    rng = np.random.default_rng(2)
    ts = np.linspace(0, 1, 2000)
    for _ in range(20):
        mid = rng.uniform(0.3, 0.7)
        h = hat(rng.uniform(0.25, mid - 0.01), mid, rng.uniform(mid + 0.01, 0.75),
                height=rng.uniform(0.2, 2.0))
        for eps in [0.125, 0.2]:
            m = min_readout_scalar(h, eps)
            assert np.max(np.abs(m(ts) - h(ts))) < 1e-12


def _random_hats(rng):
    hats = [SpecialHat(hat(0.25, 0.5, 0.75))]
    for _ in range(6):
        k = int(rng.integers(3, 7))
        ts = np.sort(rng.uniform(RHO, 1 - RHO, k))
        vs = np.concatenate([[0.0], rng.uniform(0.1, 3.0, k - 2), [0.0]])
        hats.append(SpecialHat(ScalarCpwl(ts, vs)))
    return hats


def test_scalar_field_reads_the_hat():
    rng = np.random.default_rng(5)
    hats = _random_hats(rng)
    ts = rng.uniform(0, 1, 2000)
    for h in hats:
        field = scalar_field(h)
        # exact at every loop vertex: the corners and h's breakpoints
        params = {Fraction(j, 3) for j in range(3)}
        params |= {Fraction(t) for t in h.base.ts}
        for t in params:
            v = np.array([float(c) for c in _embed_exact(t)])
            row = np.flatnonzero(np.all(field.vertices == v, axis=1))
            assert row.size == 1
            assert field.values[row[0], 0] == float(_exact_at(_hat_knots(h), t))
        got = lower_planar_field(field)(embed(ts))[:, 0]
        assert np.max(np.abs(got - h(ts))) < 1e-12


def test_selector_conventions():
    for M in [2, 3, 5]:
        cfg = LoopConfig(M, 3)
        thetas = selector_scalars(cfg)
        # seam: the last selector owns both endpoints
        assert thetas[M - 1](np.array([0.0])) == 1.0
        assert thetas[M - 1](np.array([1.0])) == 1.0
        for q in range(M - 1):
            assert thetas[q](np.array([0.0])) == 0.0
            assert thetas[q](np.array([1.0])) == 0.0
        # ramp endpoints: outgoing selector still 1 at the cell boundary
        for k in range(1, M):
            t = np.array([k / M])
            assert thetas[k - 1](t) == 1.0
            assert thetas[k](t) == 0.0


def test_selector_partition_and_indicator():
    rng = np.random.default_rng(3)
    for M in [2, 3]:
        cfg = LoopConfig(M, 2)
        thetas = selector_scalars(cfg)
        ts = rng.uniform(0, 1, 4000)
        tot = sum(th(ts) for th in thetas)
        assert np.max(np.abs(tot - 1.0)) < 1e-12
        d = cfg.delta_n
        off = ts[np.all([(np.mod(ts, 1 / M) > d)], axis=0)]
        qs = np.floor(M * off).astype(int)
        for q in range(M):
            sel = off[qs == q]
            assert np.all(thetas[q](sel) == 1.0)
            for r in range(M):
                if r != q:
                    assert np.all(thetas[r](sel) == 0.0)


def test_selector_knots_ramp_after_each_cell_start():
    # theta_q rises over [q/M, q/M + delta_n] and falls over [(q+1)/M,
    # (q+1)/M + delta_n]; theta_{M-1} owns the seam; exact in Fractions
    for M in range(2, 8):
        for n in range(6):
            d = Fraction(DELTA_BAR) * Fraction(RHO) / M ** (n + 1)
            knots = _selector_knots(LoopConfig(M, n))
            assert len(knots) == M
            for q in range(M - 1):
                c0, c1 = Fraction(q, M), Fraction(q + 1, M)
                assert knots[q] == [(0, 0), *[(c0, 0)] * (q > 0), (c0 + d, 1),
                                    (c1, 1), (c1 + d, 0), (1, 0)]
            c0 = Fraction(M - 1, M)
            assert knots[-1] == [(0, 1), (d, 0), (c0, 0), (c0 + d, 1), (1, 1)]
            assert all(type(x) is Fraction for k in knots for knot in k for x in knot)


def test_selector_fields_match_scalars():
    cfg = LoopConfig(3, 2)
    thetas = selector_scalars(cfg)
    ts = np.linspace(0, 1, 700)
    got = fan_eval(selector_field(cfg), embed(ts))
    want = np.column_stack([th(ts) for th in thetas])
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("M, n, rows", [(2, 16, 6), (4, 3, 10), (7, 6, 16)])
def test_selector_fan_sits_on_corners_and_knots(M, n, rows):
    # the fan's boundary vertices are E(t) for the corners and the selector
    # knots in [0, 1), and nothing else: not the controller's grid j/(3M);
    # its lowering's first layer holds one unit per ray that a live hat reads
    cfg = LoopConfig(M, n)
    params = {Fraction(j, 3) for j in range(3)}
    params |= {t for knots in _selector_knots(cfg) for t, _ in knots if t < 1}
    want = {tuple(float(c) for c in _embed_exact(t)) for t in params}
    field = selector_field(cfg)
    ring = field.vertices[1:]
    assert len(ring) == len(want) and {tuple(v) for v in ring} == want
    assert lower_planar_field(field).layers[0].weights.shape[0] == rows


def test_config_validation():
    with pytest.raises(ValueError):
        LoopConfig(1, 2)
    cfg = LoopConfig(2, 3)
    assert cfg.delta_n == pytest.approx(0.5 * 0.25 * 2.0 ** -4)
