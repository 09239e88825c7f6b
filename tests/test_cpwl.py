import tracemalloc

import numpy as np
import pytest

from refinet.cpwl import (AtomicTerm, CpwlCurve, ScalarCpwl, SpecialHat,
                          SupportError, constant, cpwl_combine,
                          decompose_atomic, hat, merge_grids,
                          reconstruct_atomic, zero_curve)


def test_scalar_eval_and_tails():
    f = ScalarCpwl(np.array([0.0, 1.0, 2.0]), np.array([1.0, 3.0, 0.0]))
    assert f(np.array([-5.0])) == 1.0          # constant left tail
    assert f(np.array([10.0])) == 0.0          # constant right tail
    assert f(np.array([0.5])) == pytest.approx(2.0)
    assert f(np.array([1.5])) == pytest.approx(1.5)


def test_hat_and_slopes():
    h = hat(0.25, 0.5, 0.75)
    assert h(np.array([0.5])) == 1.0
    assert h(np.array([0.25])) == 0.0
    s = h.slopes()
    assert s[0] == pytest.approx(4.0)
    assert s[1] == pytest.approx(-4.0)


def test_breakpoints_must_increase():
    with pytest.raises(ValueError):
        ScalarCpwl(np.array([0.0, 0.0]), np.array([1.0, 2.0]))


def test_combine_min_inserts_crossings():
    f = ScalarCpwl(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    g = ScalarCpwl(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    m = cpwl_combine(f, g, "min")
    ts = np.linspace(-0.5, 1.5, 301)
    want = np.minimum(f(ts), g(ts))
    assert np.max(np.abs(m(ts) - want)) < 1e-14
    # the crossing at t = 0.5 must be an exact breakpoint
    assert np.min(np.abs(m.ts - 0.5)) < 1e-12


def test_combine_sum_and_max():
    rng = np.random.default_rng(0)
    for _ in range(10):
        f = ScalarCpwl(np.sort(rng.uniform(0, 1, 4)), rng.normal(size=4))
        g = ScalarCpwl(np.sort(rng.uniform(0, 1, 3)), rng.normal(size=3))
        ts = np.linspace(-0.2, 1.2, 500)
        assert np.max(np.abs(cpwl_combine(f, g, "sum")(ts) - (f(ts) + g(ts)))) < 1e-12
        assert np.max(np.abs(cpwl_combine(f, g, "max")(ts) - np.maximum(f(ts), g(ts)))) < 1e-12


def test_merge_grids_dedupes():
    a = np.array([0.0, 0.5, 1.0])
    b = np.array([0.5 + 1e-14, 0.75])
    m = merge_grids(a, b)
    assert m.size == 4


def test_special_hat_validation():
    SpecialHat(hat(0.3, 0.5, 0.7))
    with pytest.raises(ValueError):
        SpecialHat(hat(0.1, 0.5, 0.7))   # support leaks left
    with pytest.raises(ValueError):
        SpecialHat(hat(0.3, 0.5, 0.7, height=-1.0))  # negative


def test_curve_support_check():
    c = CpwlCurve((hat(0.25, 0.5, 0.75),), 1)
    c.check_support()
    bad = CpwlCurve((hat(-0.5, 0.0, 0.5),), 1)
    with pytest.raises(SupportError):
        bad.check_support()


def test_zero_curve_and_compactness():
    z = zero_curve(2, 3)
    assert z.is_compact()
    assert np.all(z(np.linspace(-1, 4, 50)) == 0.0)


def test_atomic_decomposition_reconstructs():
    rng = np.random.default_rng(1)
    for p in [1, 2]:
        comps = []
        for _ in range(p):
            ts = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, 5)), [1.0]])
            vs = np.concatenate([[0.0], rng.normal(size=5), [0.0]])
            comps.append(ScalarCpwl(ts, vs))
        curve = CpwlCurve(tuple(comps), 1)
        terms = decompose_atomic(curve)
        ev = reconstruct_atomic(terms, p)
        ts = np.linspace(-0.5, 1.5, 700)
        err = np.max(np.abs(ev(ts) - curve(ts)))
        assert err < 1e-12


def test_atomic_hats_are_special():
    curve = CpwlCurve((hat(0.25, 0.5, 0.75), constant(0.0)), 1)
    terms = decompose_atomic(curve)
    assert terms
    for t in terms:
        assert isinstance(t.hat, SpecialHat)
        assert t.hat.base.ts[0] >= 0.25 - 1e-12
        assert t.hat.base.ts[-1] <= 0.75 + 1e-12


def test_atomic_zero_curve_has_no_terms():
    assert decompose_atomic(zero_curve(1, 1)) == []


def test_values_compare_by_content():
    # functions, hats, curves and atomic terms built apart from equal data
    # are equal and hash alike; one breakpoint, one value or L tells them
    # apart, and so does the sign of a zero, since equality is by bytes
    def values(mid=0.5, height=1.0, L=1):
        f = hat(0.25, mid, 0.75, height)
        h = SpecialHat(f)
        return f, h, CpwlCurve((f, f.scale(-1.0)), L), AtomicTerm(0.5, 0.25, h, 1)

    for a, b in zip(values(), values()):
        assert a is not b and a == b and hash(a) == hash(b) and a in {b}
    for other in [values(mid=0.4), values(height=0.5)]:
        assert all(a != b for a, b in zip(values(), other))
    assert values()[2] != values(L=2)[2]
    assert constant(0.0) == constant(0.0) != constant(-0.0)


def test_arrays_are_read_only_views():
    # a function holds the caller's arrays as read-only views: no copy,
    # and the caller's own arrays stay writeable
    ts, vs = np.array([0.25, 0.5, 0.75]), np.array([0.0, 1.0, 0.0])
    curve = CpwlCurve((ScalarCpwl(ts, vs),), 1)
    f = curve.components[0]
    with pytest.raises(ValueError):
        f.ts[1] = 0.4
    with pytest.raises(ValueError):
        f.vs[1] = 2.0
    assert ts.flags.writeable and vs.flags.writeable
    assert np.shares_memory(f.ts, ts) and np.shares_memory(f.vs, vs)


def test_evaluation_copies_no_breakpoints():
    # np.interp copies a read-only array on every call: a one-point call on
    # 10^5 breakpoints would allocate 1.6 MB, and reading the caller's
    # writeable arrays allocates a few hundred bytes; a function built from
    # another's breakpoints (scale, with_values) reads the same arrays
    ts = np.linspace(0.0, 1.0, 100_000)
    f, x = ScalarCpwl(ts, ts * ts), np.array([0.3])
    for g, vs in [(f, ts * ts), (f.scale(2.0), 2.0 * (ts * ts)), (f.with_values(-ts), -ts)]:
        g(x)
        tracemalloc.start()
        try:
            got = g(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000
        assert np.array_equal(got, np.interp(x, ts, vs))
