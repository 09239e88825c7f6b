import sys

import numpy as np
import pytest

from refinet.cpwl import CpwlCurve, ScalarCpwl, SpecialHat, SupportError, hat
from unittest import mock

from refinet import compiler, gallery
from refinet.compiler import (atomic_unit_interval_net, compile_homogeneous, gadget_bound,
                              loop_assets, product_gadget, scalar_factor_net)
from refinet.loop import (LoopConfig, build_controller_field, embed,
                          selector_field)
from refinet.network import post_affine, stack_nets
from refinet.planar import lower_planar_field
from refinet.reductions import compile_anchored
from refinet.refinement import (RefinementOp, apply_v_n, cascade_eval,
                                residual_iterate, vectorize)
from test_network import _layer_bytes


def scalar_op():
    return RefinementOp(2, 1, 1, {0: [[1.0]], 1: [[1.0]]})


def test_product_gadget_contracts():
    rng = np.random.default_rng(0)
    a, N = 2.5, 3
    g = product_gadget(a, N)
    y = rng.uniform(-a, a, (500, N))
    lam = rng.uniform(0, 1, 500)
    on = g(np.column_stack([np.ones(500), y]))
    off = g(np.column_stack([np.zeros(500), y]))
    zero = g(np.column_stack([lam, np.zeros((500, N))]))
    assert np.max(np.abs(on - y)) < 1e-12 * a
    assert np.max(np.abs(off)) < 1e-12 * a
    assert np.max(np.abs(zero)) < 1e-12 * a
    assert g.depth == 1
    assert max(l.weights.shape[0] for l in g.layers) == 2 * N


def test_product_gadget_needs_positive_bound():
    with pytest.raises(ValueError):
        product_gadget(0.0, 2)


def test_scalar_factor_net_tracks_residual():
    h = SpecialHat(hat(0.3, 0.5, 0.7))
    for M, n in [(2, 3), (3, 2)]:
        net = scalar_factor_net(h, M, n)
        rng = np.random.default_rng(M)
        xs = rng.uniform(0, 1, 200)
        out = net.eval_scalar_input(xs)
        want = np.array([h.base(np.array([residual_iterate(x, M, n).residuals[-1]]))[0]
                         for x in xs])
        assert np.max(np.abs(out[:, 0] - want)) < 1e-9
        # E(x) rides along unchanged
        assert np.max(np.abs(out[:, 1:] - embed(xs))) < 1e-12


def clear_caches():
    """Empty every functools cache of every ``refinet`` module, through any
    wrappers, as the benchmark's ``clear_caches`` does: the next compile
    starts cold."""
    for name, m in list(sys.modules.items()):
        if m is not None and name.split(".")[0] == "refinet":
            for val in list(vars(m).values()):
                while not hasattr(val, "cache_clear") and hasattr(val, "__wrapped__"):
                    val = val.__wrapped__
                if hasattr(val, "cache_clear"):
                    val.cache_clear()


def _net_bytes(net):
    return [_layer_bytes(l) for l in net.layers]


def test_loop_assets_lower_shared_fields_once():
    M = 2
    calls = {"F": 0, "chi": 0}

    def counting(key, f):
        def wrapped(*args):
            calls[key] += 1
            return f(*args)
        return wrapped

    op, gam = scalar_op(), CpwlCurve((hat(0.25, 0.5, 0.75),), 1)
    clear_caches()
    try:
        with mock.patch.multiple(
                compiler, build_controller_field=counting("F", build_controller_field),
                selector_field=counting("chi", selector_field)):
            for n in range(1, 17):
                compile_homogeneous(op, gam, n)
            sweep = [loop_assets(M, n) for n in range(1, 17)]
    finally:
        clear_caches()
    assert calls == {"F": 1, "chi": 16}
    # the shared selectors are the ones a direct lowering gives
    for n, chi in enumerate(sweep, start=1):
        want = lower_planar_field(selector_field(LoopConfig(M, n)))
        assert _net_bytes(chi) == _net_bytes(want)


def test_gate_half_built_once_per_sweep():
    # every stage of the scalar-deep operator shares one gate half (M, p*L,
    # T and a do not depend on n, since lambda = 1), and a sweep's nets
    # equal the ones compiled from cold caches: nothing leaks across n
    op, gam = scalar_op(), CpwlCurve((hat(0.25, 0.5, 0.75),), 1)
    clear_caches()
    try:
        sweep = [compile_homogeneous(op, gam, n).net for n in range(1, 7)]
        assert compiler._gate_half.cache_info().misses == 1
        for n, net in enumerate(sweep, start=1):
            clear_caches()
            assert _net_bytes(net) == _net_bytes(compile_homogeneous(op, gam, n).net), n
    finally:
        clear_caches()


def _sweep():
    op, gam = scalar_op(), CpwlCurve((hat(0.25, 0.5, 0.75),), 1)
    return [lambda n=n: compile_homogeneous(op, gam, n).net for n in range(1, 7)]


def _heighway():
    inst = gallery.heighway()
    return [lambda: compile_anchored(inst.op(), None, inst.anchor(), None, 8).net]


@pytest.mark.parametrize("build, curves", [(_sweep, 1), (_heighway, 2)],
                         ids=["sweep", "heighway-anchored"])
def test_compiles_decompose_each_curve_once(build, curves):
    # a sweep's stages share their curve, and an anchored compile's jobs of
    # powers 1..n-1 share the defect E (beside the zero curve of power n):
    # each curve is decomposed once, and every net equals the one that a
    # compile from cold caches gives
    clear_caches()
    try:
        compiles = build()
        with mock.patch.object(compiler, "decompose_atomic",
                               wraps=compiler.decompose_atomic) as dec:
            nets = [f() for f in compiles]
        assert dec.call_count == curves
        assert compiler._growth.cache_info().misses == 1
        for f, net in zip(compiles, nets):
            clear_caches()
            assert _net_bytes(net) == _net_bytes(f())
    finally:
        clear_caches()


def test_caches_key_on_operator_and_curve_content():
    # separately built, equal operators and curves share one gate half and
    # one decomposition; an operator that differs only in L, or only in one
    # A_j (with the same gate bound), builds a gate half of its own
    def compile_(L=1, a1=1.0):
        op = RefinementOp(2, 1, L, {0: [[1.0]], 1: [[a1]]})
        compile_homogeneous(op, CpwlCurve((hat(0.25, 0.5, 0.75),), L), 1)

    clear_caches()
    try:
        with mock.patch.object(compiler, "decompose_atomic",
                               wraps=compiler.decompose_atomic) as dec:
            compile_()
            compile_()
        assert dec.call_count == 1
        assert compiler._gate_half.cache_info().misses == 1
        compile_(L=2)
        compile_(a1=0.5)
        assert compiler._gate_half.cache_info().misses == 3
    finally:
        clear_caches()


def test_atomic_unit_interval_net():
    op = scalar_op()
    h = SpecialHat(hat(0.25, 0.5, 0.75))
    net = atomic_unit_interval_net(op, h, 0, 2)
    curve = CpwlCurve((h.base,), 1)
    G2 = vectorize(apply_v_n(op, curve, 2))
    xs = np.linspace(0, 1, 501)
    got = net.eval_scalar_input(xs)
    want = np.array([G2(x) for x in xs])
    assert np.max(np.abs(got - want)) < 1e-10


def test_compile_homogeneous_scalar_exact():
    op = scalar_op()
    gam = CpwlCurve((hat(0.25, 0.5, 0.75),), 1)
    for n in [0, 1, 2, 3]:
        ci = compile_homogeneous(op, gam, n)
        oracle = apply_v_n(op, gam, n)
        ts = np.sort(np.concatenate([np.linspace(-0.5, 1.5, 801),
                                     np.arange(2 ** n + 1) / 2 ** n]))
        err = np.max(np.abs(ci(ts)[:, 0] - oracle(ts).ravel()))
        assert err < 1e-12


def test_compile_homogeneous_vector_multicell():
    mask = {0: [[0.5]], 1: [[0.3]], 2: [[0.4]], 3: [[-0.2]], 4: [[0.6]]}
    op = RefinementOp(3, 1, 2, mask)
    gam = CpwlCurve((hat(0.25, 0.6, 0.75),), 2)
    for n in [1, 2, 4]:
        ci = compile_homogeneous(op, gam, n)
        oracle = apply_v_n(op, gam, n)
        ts = np.linspace(-0.5, 2.5, 901)
        err = np.max(np.abs(ci(ts)[:, 0] - oracle(ts).ravel()))
        assert err < 1e-11
        # the cell nets are unclamped, yet vanish off the support window
        off = np.concatenate([np.linspace(-0.5, 0, 201), np.linspace(2, 2.5, 201)])
        assert np.max(np.abs(ci(off))) < 1e-12


def test_lone_cell_is_not_restacked():
    # a compile of one cell carries nothing: compile_jobs takes the cell as
    # it is, with the layers that stacking it alone would copy
    koch = gallery.koch().op()
    h = hat(0.25, 0.5, 0.75)
    pair = CpwlCurve((h, h.scale(-2.0)), 1)
    for op, gam, n in [(scalar_op(), CpwlCurve((h,), 1), 3), (koch, pair, 0),
                       (koch, pair, 2)]:
        with mock.patch.object(compiler, "stack_nets",
                               wraps=compiler.stack_nets) as stack:
            net = compile_homogeneous(op, gam, n).net
        assert all(len(c.args[0]) > 1 for c in stack.call_args_list)
        (cell,), _, _ = compiler._job_cells(op, gam, n)
        p = op.p
        want = post_affine(stack_nets([cell], [[0]], 1), np.eye(p), np.zeros(p))
        assert _net_bytes(net) == _net_bytes(want)


def test_compile_requires_compact_support():
    op = scalar_op()
    bad = CpwlCurve((hat(-0.25, 0.25, 0.75),), 1)
    with pytest.raises(SupportError):
        compile_homogeneous(op, bad, 2)


def test_negative_stage_is_refused():
    op = scalar_op()
    gam = CpwlCurve((ScalarCpwl(np.array([0, 0.25, 0.5, 0.75, 1]),
                                np.array([0, 0.3, 1.0, 0.4, 0])),), 1)
    with pytest.raises(ValueError):
        compile_homogeneous(op, gam, -1)
    with pytest.raises(ValueError):
        apply_v_n(op, gam, -1)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_curve_dimension_must_match_operator(n):
    # p = 1 with a two-component curve, and p = 2 with a one-component one:
    # compile and apply_v_n refuse both at every stage, n = 0 included
    one = CpwlCurve((hat(0.25, 0.5, 0.75),), 1)
    two = CpwlCurve((hat(0.25, 0.5, 0.75), hat(0.3, 0.5, 0.7)), 1)
    op2 = RefinementOp(2, 2, 1, {0: np.eye(2), 1: np.eye(2)})
    for op, curve in [(scalar_op(), two), (op2, one)]:
        for run in (compile_homogeneous, apply_v_n):
            with pytest.raises(ValueError, match="curve dimension does not match operator"):
                run(op, curve, n)


def test_gadget_bound_is_safety_times_height_times_growth_power():
    # a = GADGET_SAFETY * max|h| * lambda^n with lambda = max_q |T_q'|_inf =
    # 1.5 here: 2 * 0.5 * 1.5^3, exactly in binary
    op = RefinementOp(2, 1, 1, {0: [[1.5]], 1: [[0.5]]})
    h = SpecialHat(hat(0.25, 0.5, 0.75, height=0.5))
    assert compiler.GADGET_SAFETY == 2.0
    assert gadget_bound(op, h, 3) == 3.375


def test_deep_stage_drift_stays_small():
    """The saturating carry keeps the selectors' rounding out of the open
    gates: at M=3, n=14 (coeff_max 7.7e7) the float64 net stays within
    1e-9 of the cascade, where gates that read the raw selectors err 7e-9."""
    op = RefinementOp(3, 1, 1, {0: [[0.6]], 1: [[0.7]], 2: [[0.9]]})
    gam = CpwlCurve((hat(0.25, 0.5, 0.75),), 1)
    ci = compile_homogeneous(op, gam, 14)
    xs = np.random.default_rng(0).uniform(0, 1, 300)
    want = cascade_eval(op, gam, xs, 14)[:, 0]
    assert np.max(np.abs(ci(xs)[:, 0] - want)) < 1e-9


def test_compiled_structure_constant_width():
    op = scalar_op()
    gam = CpwlCurve((hat(0.25, 0.5, 0.75),), 1)
    stats = [compile_homogeneous(op, gam, n).stats for n in [2, 3, 4]]
    widths = {s["width"] for s in stats}
    assert len(widths) == 1
    diffs = {stats[i + 1]["depth"] - stats[i]["depth"] for i in range(2)}
    assert len(diffs) == 1


def core_builds(build):
    """``build()``'s result and the number of atomic cores it built."""
    with mock.patch.object(compiler, "atomic_core_net",
                           wraps=compiler.atomic_core_net) as core:
        return build(), core.call_count


def test_core_built_once_per_hat():
    op = RefinementOp(3, 1, 2, {0: [[0.5]], 1: [[0.3]], 2: [[0.4]], 3: [[-0.2]],
                                4: [[0.6]]})
    # six nodes of a quarter grid on [0, 2]: one hat on six shifts, two cells
    ts = np.arange(9) / 4
    vs = np.array([0.0, 1.0, -0.5, 2.0, 0.0, 0.75, 1.0, 0.5, 0.0])
    gam = CpwlCurve((ScalarCpwl(ts, vs),), 2)
    ci, built = core_builds(lambda: compile_homogeneous(op, gam, 2))
    assert ci.info["groups"] == 6 and built == 1
    xs = np.linspace(-0.5, 2.5, 901)
    assert np.max(np.abs(ci(xs)[:, 0] - apply_v_n(op, gam, 2)(xs).ravel())) < 1e-12
    for name, n, cores in [("heighway", 8, 7), ("koch", 3, 2)]:
        inst = getattr(gallery, name)()
        _, built = core_builds(
            lambda: compile_anchored(inst.op(), None, inst.anchor(), None, n))
        assert built == cores, name
