from fractions import Fraction

import numpy as np
import pytest

from refinet.cpwl import CpwlCurve, ScalarCpwl, hat
from refinet.gallery import koch
from refinet.refinement import (RefinementOp, apply_v, apply_v_n,
                                block_transition, cascade_eval, digit_residual,
                                residual_iterate, transition_norm, vectorize)
import test_random_operators as random_ops


def random_op(M, p, L, seed):
    rng = np.random.default_rng(seed)
    mask = {j: rng.normal(scale=0.6, size=(p, p)) for j in range((M - 1) * L + 1)}
    return RefinementOp(M, p, L, mask)


def random_curve(p, L, seed):
    rng = np.random.default_rng(seed)
    comps = []
    for _ in range(p):
        ts = np.concatenate([[0.0], np.sort(rng.uniform(0.1, L - 0.1, 4)), [float(L)]])
        vs = np.concatenate([[0.0], rng.normal(size=4), [0.0]])
        comps.append(ScalarCpwl(ts, vs))
    return CpwlCurve(tuple(comps), L)


def test_digit_residual_basics():
    assert digit_residual(0.0, 3) == (0, 0.0)
    assert digit_residual(1.0, 3) == (2, 1.0)       # right endpoint convention
    q, r = digit_residual(0.5, 2)
    assert (q, r) == (1, 0.0)
    # snap: values a hair under a breakpoint take the right-cell digit
    q, r = digit_residual(1 / 3 - 1e-15, 3)
    assert q == 1 and abs(r) < 1e-12


def test_residual_iterate_expansion_identity():
    rng = np.random.default_rng(2)
    for M in [2, 3, 7]:
        for x in rng.uniform(0, 1, 20):
            st = residual_iterate(x, M, 8)
            acc = sum(q * float(M) ** (-(j + 1)) for j, q in enumerate(st.digits))
            acc += st.residuals[-1] * float(M) ** (-8)
            assert abs(acc - x) < 1e-12


def test_residual_iterate_is_exact_orbit_rounded_once():
    # feeding each rounded residual back into a float64 digit map multiplies
    # its error by M per step; the stream must not inherit that drift
    rng = np.random.default_rng(5)
    M, n = 7, 12
    drifted = 0
    for x in rng.uniform(0, 1, 50):
        r = Fraction(float(x))
        digits, exact = [], []
        for _ in range(n):
            q, r = divmod(M * r, 1)
            digits.append(q)
            exact.append(float(r))
        st = residual_iterate(x, M, n)
        assert list(st.digits) == digits
        assert list(st.residuals[1:]) == exact
        chained = float(x)
        for _ in range(n):
            chained = M * chained - np.floor(M * chained)
        drifted += abs(chained - exact[-1]) > 1e-9
    assert drifted > 25


def test_negative_within_snap_tolerance_is_zero():
    x = -9e-13
    assert digit_residual(x, 2) == (0, 0.0)
    stream = residual_iterate(x, 2, 2)
    assert stream.digits == (0, 0) and stream.residuals[-1] == 0.0
    op = RefinementOp(2, 1, 1, {0: [[1.0]], 1: [[1.0]]})
    curve = CpwlCurve((hat(0.25, 0.5, 0.75),), 1)
    assert np.array_equal(cascade_eval(op, curve, x, 4), [0.0])


@pytest.mark.parametrize("M", [2, 3, 7])
def test_digit_map_domain_ends(M):
    # the right-closed convention: 1 and values within SNAP_TOL of it (either
    # side) take digit M - 1 and residual 1 at every step; values within
    # SNAP_TOL below 0 read as 0; farther out the map refuses
    op = RefinementOp(M, 1, 2, {j: [[0.5 + 0.1 * j]] for j in range(2 * M - 1)})
    curve = CpwlCurve((hat(0.5, 1.0, 1.5),), 2)
    top = cascade_eval(op, curve, 1.0, 3)
    for x in [1.0, 1 - 1e-13, 1 + 1e-13]:
        stream = residual_iterate(x, M, 3)
        assert stream.digits == (M - 1,) * 3 and stream.residuals[1:] == (1.0,) * 3
        assert digit_residual(x, M) == (M - 1, 1.0)
        assert np.array_equal(cascade_eval(op, curve, x, 3), top)
    assert residual_iterate(-1e-13, M, 3) == residual_iterate(0.0, M, 3)
    assert digit_residual(-1e-13, M) == (0, 0.0)
    assert np.array_equal(cascade_eval(op, curve, -1e-13, 3), cascade_eval(op, curve, 0.0, 3))
    want = vectorize(apply_v_n(op, curve, 3))(1.0)
    assert want[0] != 0 and np.max(np.abs(top - want)) < 1e-12 * abs(want[0])
    for x in [1 + 2e-12, -2e-12]:
        for call in [lambda: residual_iterate(x, M, 3), lambda: digit_residual(x, M),
                     lambda: cascade_eval(op, curve, x, 3),
                     lambda: cascade_eval(op, curve, np.array([0.5, x]), 3)]:
            with pytest.raises(ValueError):
                call()


def test_mask_support_validation():
    with pytest.raises(ValueError):
        RefinementOp(2, 1, 1, {2: [[1.0]]})   # j outside 0..(M-1)L
    with pytest.raises(ValueError):
        RefinementOp(2, 1, 1, {0: [[1.0, 0.0]]})  # bad shape


def test_apply_v_matches_definition():
    for (M, p, L, seed) in [(2, 1, 1, 4), (3, 2, 1, 5), (2, 2, 2, 6)]:
        op = random_op(M, p, L, seed)
        g = random_curve(p, L, seed + 10)
        out = apply_v(op, g)
        ts = np.linspace(-0.5, L + 0.5, 600)
        want = np.zeros((ts.size, p))
        for j, A in op.mask.items():
            want += g(M * ts - j) @ A.T
        assert np.max(np.abs(out(ts) - want)) < 1e-12


def test_apply_v_n_iterates():
    op = random_op(2, 1, 1, 7)
    g = random_curve(1, 1, 8)
    two = apply_v(op, apply_v(op, g))
    ts = np.linspace(-0.5, 1.5, 400)
    assert np.max(np.abs(apply_v_n(op, g, 2)(ts) - two(ts))) < 1e-12


def test_block_transition_entries():
    op = random_op(2, 2, 2, 9)
    q = 1
    T = block_transition(op, q)
    p, L = op.p, op.L
    for k in range(L):
        for l in range(L):
            j = q + op.M * k - l
            A = op.mask.get(j, np.zeros((p, p)))
            blk = T[k * p:(k + 1) * p, l * p:(l + 1) * p]
            assert np.max(np.abs(blk - A)) < 1e-14


def test_cascade_identity_random():
    rng = np.random.default_rng(10)
    for (M, p, L, seed) in [(2, 1, 1, 11), (2, 2, 2, 12), (3, 2, 1, 13)]:
        op = random_op(M, p, L, seed)
        g = random_curve(p, L, seed + 20)
        for n in range(1, 5):
            xs = rng.uniform(0, 1, 20)
            got = cascade_eval(op, g, xs, n)
            want = vectorize(apply_v_n(op, g, n))(xs)
            scale = max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) / scale < 1e-9


@pytest.mark.parametrize("M, p, L", [(2, 1, 2), (3, 2, 1), (2, 2, 2), (3, 2, 2), (4, 1, 2),
                                     (5, 3, 1)])
def test_cascade_array_matches_direct_recursion(M, p, L):
    # 10^4 seeded points per operator in one call, against the windows of
    # the direct recursion, to the random-operator tests' tolerance
    n = 3
    rng = np.random.default_rng([M, p, L, n])
    op, g = random_ops.random_op(rng, M, p, L), random_ops.random_curve(rng, p, L)
    xs = rng.uniform(0, 1, 10_000)
    got = cascade_eval(op, g, xs, n)
    want = vectorize(apply_v_n(op, g, n))(xs)
    assert got.shape == (xs.size, p * L)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= random_ops.REL_TOL * scale


def test_cascade_array_equals_point_calls():
    # one call over an array is the one-point calls stacked, bit for bit,
    # at the domain ends and the smallest residuals too; a point gives the
    # window of shape (p*L,), an array of shape s gives s + (p*L,)
    rng = np.random.default_rng(15)
    xs = np.concatenate([[0.0, 1.0, 1 - 1e-13, 1 + 1e-13, -1e-13, 1e-300],
                         rng.uniform(0, 1, 30)])
    for (M, p, L, seed) in [(2, 1, 1, 16), (3, 2, 2, 17), (5, 3, 2, 18)]:
        op, g = random_op(M, p, L, seed), random_curve(p, L, seed + 20)
        for n in [0, 1, 6]:
            got = cascade_eval(op, g, xs.reshape(6, 6), n)
            assert got.shape == (6, 6, p * L)
            want = np.array([cascade_eval(op, g, x, n) for x in xs])
            assert want.shape == (xs.size, p * L)
            assert np.array_equal(got.reshape(want.shape), want)
            # no points: shape (0, p*L), as the compiled net and apply_v_n give
            assert cascade_eval(op, g, np.array([]), n).shape == (0, p * L)


def test_transition_norm_positive():
    op = random_op(3, 2, 1, 14)
    lam = transition_norm(op)
    assert lam > 0
    assert lam >= np.max(np.abs(block_transition(op, 0).T).sum(axis=1)) - 1e-12


def test_operators_compare_by_content():
    # koch's operator (p = 2) built twice is one value, whatever the order
    # of its mask; M, L or one mask entry tells operators apart
    a, b = koch().op(), koch().op()
    assert a is not b and a == b and hash(a) == hash(b) and a in {b}
    assert RefinementOp(4, 2, 1, dict(reversed(a.mask.items()))) == a
    assert koch().anchor() in [koch().anchor()]
    A1 = a.mask[1].copy()
    A1[0, 1] += 1e-3
    for other in [RefinementOp(5, 2, 1, a.mask), RefinementOp(4, 2, 2, a.mask),
                  RefinementOp(4, 2, 1, {**a.mask, 1: A1})]:
        assert other != a


def test_mask_holds_read_only_views():
    inst = koch()
    op = inst.op()
    with pytest.raises(ValueError):
        op.mask[0][0, 0] = 1.0
    assert inst.matrices[0].flags.writeable
    assert np.shares_memory(op.mask[0], inst.matrices[0])
