"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Every expected value is produced by an independent direct-recursion or
closed-form oracle; the compiled networks are never used to generate their
own references.
"""
import time
from fractions import Fraction

import numpy as np

from refinet.cpwl import CpwlCurve, curve_add, hat, zero_curve
from refinet.compiler import compile_homogeneous, product_gadget
from refinet.gallery import (gosper_oracle, gosper_stage0, gosper_system,
                             heighway, hilbert_connector, hilbert_rp, koch,
                             polygonal_oracle)
from refinet.loop import (LoopConfig, _embed_exact, build_controller_field,
                          embed, readout_minus, readout_plus, selector_field)
from refinet.network import eval_exact
from refinet.planar import lower_planar_field
from refinet.reductions import (compile_affine, compile_anchored,
                                expand_stage_iterate, iterate_w, stack_curves,
                                stack_system)
from refinet.refinement import (RefinementOp, apply_v, apply_v_n, cascade_eval,
                                residual_iterate, vectorize)
from reference import fan_eval


def report(num, name, ok, detail):
    print(f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} [{name}] failed: {detail}"


def scalar_instance():
    op = RefinementOp(2, 1, 1, {0: [[1.0]], 1: [[1.0]]})
    gam = CpwlCurve((hat(0.25, 0.5, 0.75),), 1)
    return op, gam


def scalar_stats(ns):
    op, gam = scalar_instance()
    return [compile_homogeneous(op, gam, n).stats for n in ns]


def test_criterion_01_homogeneous_exactness():
    # tolerance 1e-7 on 1e4 uniform points plus stage breakpoints, < 60 s
    op, gam = scalar_instance()
    t0 = time.time()
    worst = 0.0
    for n in range(1, 9):
        ci = compile_homogeneous(op, gam, n)
        oracle = apply_v_n(op, gam, n)
        ts = np.sort(np.concatenate([np.linspace(-0.5, 1.5, 10_000),
                                     np.arange(2 ** n + 1) / 2 ** n]))
        worst = max(worst, float(np.max(np.abs(ci(ts)[:, 0] - oracle(ts).ravel()))))
    elapsed = time.time() - t0
    ok = worst <= 1e-7 and elapsed < 60.0
    report(1, "homogeneous exactness", ok,
           f"max|err|={worst:.3e} tol=1e-7, runtime={elapsed:.1f}s < 60s")


def test_criterion_02_linear_depth_constant_width():
    stats = scalar_stats(range(2, 9))
    depths = [s["depth"] for s in stats]
    widths = [s["width"] for s in stats]
    d1 = np.diff(depths)
    ok = bool(np.all(d1 == d1[0]) and len(set(widths)) == 1)
    report(2, "linear depth / constant width", ok,
           f"depth diffs={sorted(set(d1.tolist()))}, widths={sorted(set(widths))}")


def test_criterion_03_geometric_coefficient_growth():
    # log coeff_max increments bounded by 1.0 over n = 2..8 (measured ~log 2)
    stats = scalar_stats(range(2, 9))
    inc = np.diff(np.log([s["coeff_max"] for s in stats]))
    ok = bool(np.max(inc) <= 1.0)
    report(3, "geometric coefficient growth", ok,
           f"max log-increment={np.max(inc):.3f} <= 1.0")


def test_criterion_04_loop_controller_exactness():
    # 1e3 random x, M in {2,3,7}, j <= 12, drift tolerance 1e-6; the lowered
    # controller runs in exact arithmetic from the exact E(x)
    rng = np.random.default_rng(42)
    xs = rng.uniform(0, 1, 1000)
    worst = {}
    for M in [2, 3, 7]:
        net = lower_planar_field(build_controller_field(M))
        orbits = [residual_iterate(x, M, 12).residuals for x in xs]
        z = [_embed_exact(Fraction(x)) for x in xs]
        w = 0.0
        for j in range(1, 13):
            z = eval_exact(net, z)
            want = [_embed_exact(Fraction(o[j])) for o in orbits]
            w = max(w, max((float(abs(a - b)) for zs, ws in zip(z, want)
                            for a, b in zip(zs, ws) if a != b), default=0.0))
        worst[M] = w
    ok = all(w <= 1e-6 for w in worst.values())
    detail = ", ".join(f"M={M}: {w:.3e}" for M, w in worst.items()) + " tol=1e-6"
    report(4, "loop controller exactness", ok, detail)


def test_criterion_05_readout_min_identity():
    # 100 random special hats, eps in {rho/2, rho/1.1}, 1e4 points, tol 1e-12
    rng = np.random.default_rng(7)
    rho = 0.25
    ts = np.linspace(0, 1, 10_000)
    worst = 0.0
    for _ in range(100):
        mid = rng.uniform(rho + 0.02, 1 - rho - 0.02)
        h = hat(rng.uniform(rho, mid - 0.01), mid,
                rng.uniform(mid + 0.01, 1 - rho), height=rng.uniform(0.1, 3.0))
        for eps in [rho / 2, rho / 1.1]:
            rm, rp = readout_minus(eps), readout_plus(eps)
            lhs = np.minimum(h(rm(ts)), h(rp(ts)))
            worst = max(worst, float(np.max(np.abs(lhs - h(ts)))))
    ok = worst <= 1e-12
    report(5, "readout min-identity", ok, f"max|err|={worst:.3e} tol=1e-12")


def test_criterion_06_selector_partition_and_indicator():
    # partition of unity and off-transition exactness at 1e4 points, tol 1e-12
    rng = np.random.default_rng(11)
    worst_pu = 0.0
    worst_ind = 0.0
    for M in [2, 3, 5]:
        cfg = LoopConfig(M, 3)
        ts = rng.uniform(0, 1, 10_000)
        vals = fan_eval(selector_field(cfg), embed(ts))
        worst_pu = max(worst_pu, float(np.max(np.abs(vals.sum(axis=1) - 1.0))))
        off = np.mod(ts, 1 / M) > cfg.delta_n
        q = np.floor(M * ts[off]).astype(int)
        ind = np.zeros((off.sum(), M))
        ind[np.arange(off.sum()), q] = 1.0
        worst_ind = max(worst_ind, float(np.max(np.abs(vals[off] - ind))))
    ok = worst_pu <= 1e-12 and worst_ind <= 1e-12
    report(6, "selector partition / indicator", ok,
           f"partition err={worst_pu:.3e}, indicator err={worst_ind:.3e} tol=1e-12")


def test_criterion_07_product_gadget_contracts():
    # 1e4 random (lambda, y), ||y||_inf <= a, tol 1e-12 * a
    rng = np.random.default_rng(13)
    a, N = 3.5, 4
    g = product_gadget(a, N)
    y = rng.uniform(-a, a, (10_000, N))
    lam = rng.uniform(0, 1, 10_000)
    e1 = np.max(np.abs(g(np.column_stack([np.ones(10_000), y])) - y))
    e2 = np.max(np.abs(g(np.column_stack([np.zeros(10_000), y]))))
    e3 = np.max(np.abs(g(np.column_stack([lam, np.zeros((10_000, N))]))))
    worst = float(max(e1, e2, e3))
    ok = worst <= 1e-12 * a
    report(7, "product gadget contracts", ok,
           f"max|err|={worst:.3e} tol={1e-12 * a:.1e}")


def test_criterion_08_cascade_identity():
    # 1e3 random (x, n <= 6) on three random operators, rel tol 1e-9
    rng = np.random.default_rng(17)
    worst = 0.0
    for (M, p, L), seed in [((2, 1, 1), 1), ((2, 2, 2), 2), ((3, 2, 1), 3)]:
        r2 = np.random.default_rng(seed)
        mask = {j: r2.normal(scale=0.5, size=(p, p))
                for j in range((M - 1) * L + 1)}
        op = RefinementOp(M, p, L, mask)
        comps = []
        for _ in range(p):
            grid = np.concatenate([[0.0], np.sort(r2.uniform(0.1, L - 0.1, 4)),
                                   [float(L)]])
            vals = np.concatenate([[0.0], r2.normal(size=4), [0.0]])
            from refinet.cpwl import ScalarCpwl
            comps.append(ScalarCpwl(grid, vals))
        curve = CpwlCurve(tuple(comps), L)
        oracles = {n: vectorize(apply_v_n(op, curve, n)) for n in range(1, 7)}
        for _ in range(334):
            x = rng.uniform(0, 1)
            n = int(rng.integers(1, 7))
            got = cascade_eval(op, curve, x, n)
            want = oracles[n](x)
            scale = max(1.0, float(np.max(np.abs(want))))
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    ok = worst <= 1e-9
    report(8, "cascade identity", ok, f"max rel err={worst:.3e} tol=1e-9")


def _affine_setup():
    op = RefinementOp(2, 1, 1, {0: [[0.6]], 1: [[0.7]]})
    gam = CpwlCurve((hat(0.25, 0.5, 0.75),), 1)
    Bs = tuple(CpwlCurve((hat(0.25, 0.4 + 0.05 * r, 0.75,
                              height=0.3 + 0.1 * r),), 1) for r in range(6))
    return op, gam, lambda r: Bs[r]


def test_criterion_09_stage_dependent_expansion():
    op, gam, sched = _affine_setup()
    ts = np.linspace(-0.5, 1.5, 1000)
    worst_exp = 0.0
    for n in range(1, 5):
        want = iterate_w(op, gam, sched, n)
        acc = zero_curve(1, 1)
        for c, k in expand_stage_iterate(gam, sched, n):
            acc = curve_add(acc, apply_v_n(op, c, k))
        worst_exp = max(worst_exp, float(np.max(np.abs(acc(ts) - want(ts)))))
    worst_net = 0.0
    depths = []
    for n in range(1, 7):
        ci = compile_affine(op, gam, sched, n)
        depths.append(ci.stats["depth"])
        if n <= 3:
            want = iterate_w(op, gam, sched, n)
            worst_net = max(worst_net,
                            float(np.max(np.abs(ci(ts)[:, 0] - want(ts).ravel()))))
    second = np.diff(np.diff(depths[1:]))   # n = 2..6
    ok = (worst_exp <= 1e-10 and worst_net <= 1e-10
          and bool(np.all(second == second[0])))
    report(9, "stage-dependent expansion", ok,
           f"expansion err={worst_exp:.3e} tol=1e-10, net err={worst_net:.3e}, "
           f"depth 2nd diffs={sorted(set(second.tolist()))}")


def test_criterion_10_anchored_geometry():
    worst = 0.0
    for inst, M, ns in [(koch(), 4, range(1, 5)), (heighway(), 2, range(1, 9))]:
        op = inst.op()
        Gam = inst.anchor()
        for n in ns:
            ci = compile_anchored(op, None, Gam, None, n)
            orc = polygonal_oracle(inst, n)
            ts = np.arange(M ** n + 1) / M ** n
            err = np.max(np.abs(ci(ts) - orc(ts).reshape(-1, 2)))
            worst = max(worst, float(err))
    # stage-1 Koch landmarks
    o1 = polygonal_oracle(koch(), 1)
    marks = [(0.25, (1 / 3, 0)), (0.5, (0.5, np.sqrt(3) / 6)), (0.75, (2 / 3, 0))]
    mark_err = max(float(np.max(np.abs(o1(np.array([t]))[0] - np.array(w))))
                   for t, w in marks)
    ok = worst <= 1e-6 and mark_err <= 1e-12
    report(10, "anchored geometry", ok,
           f"koch/dragon err={worst:.3e} tol=1e-6, stage-1 marks={mark_err:.3e}")


def test_criterion_11_finite_state_gosper():
    sysm = gosper_system()
    op = stack_system(sysm)
    e = np.ones(2)
    row_err = max(float(np.max(np.abs(sum(sysm.C[a, j] @ e for j in range(7)) - e)))
                  for a in range(2))
    worst = 0.0
    cur = stack_curves(gosper_stage0())
    for n in range(1, 4):
        cur = apply_v(op, cur)
        per = gosper_oracle(n)
        ts = np.arange(7 ** n + 1) / 7 ** n
        want = np.column_stack([c(ts) for st in per for c in st.components])
        worst = max(worst, float(np.max(np.abs(cur(ts) - want))))
    ok = worst <= 1e-6 and row_err <= 1e-12
    report(11, "finite-state Gosper", ok,
           f"stacked vs per-state err={worst:.3e} tol=1e-6, row-sum err={row_err:.3e}")


def test_criterion_12_connector_hilbert():
    hc = hilbert_connector()
    end_err = 0.0
    for n in range(7):
        a = hc.oracle(n)(np.array([0.0]))[0]
        want = np.array([2.0 ** (-n - 1), 2.0 ** (-n - 1)])
        end_err = max(end_err, float(np.max(np.abs(a - want))))
    sched = hc.forcing_schedule()
    ts = np.linspace(0, hc.op().L, 1000)
    force_err = 0.0
    for n in [0, 1, 2]:
        force_err = max(force_err, float(np.max(np.abs(
            hc.forcing_stage(n)(ts) - sched(n)(ts)))))
    ok = end_err == 0.0 and force_err <= 1e-10
    report(12, "connector Hilbert endpoints/templates", ok,
           f"endpoint err={end_err:.3e} (exact), template err={force_err:.3e} tol=1e-10")


def test_criterion_13_rp_hilbert_generator():
    worst = 0.0
    for p in [2, 3, 4]:
        inst = hilbert_rp(p)
        for A in inst.op().mask.values():
            U = 2.0 * A
            worst = max(worst, float(np.max(np.abs(U @ U.T - np.eye(p)))))
        inst.check_edges()
    ok = worst <= 1e-12
    report(13, "R^p Hilbert generator", ok,
           f"orthogonality err={worst:.3e} tol=1e-12, edge condition holds")
