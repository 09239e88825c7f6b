from unittest import mock

import numpy as np
import pytest

from refinet.cpwl import CpwlCurve, SupportError, curve_add, hat, zero_curve
from refinet.gallery import (gosper_oracle, gosper_stage0, gosper_system,
                             heighway, koch, polygonal_oracle, straight_anchor)
from refinet.compiler import compile_homogeneous
from refinet.reductions import (anchor_mismatch, compile_affine,
                                compile_anchored, expand_stage_iterate,
                                iterate_w, stack_curves, stack_system)
from refinet import refinement
from refinet.refinement import RefinementOp, apply_v, apply_v_n


def scalar_setup():
    op = RefinementOp(2, 1, 1, {0: [[0.6]], 1: [[0.7]]})
    gam = CpwlCurve((hat(0.25, 0.5, 0.75),), 1)
    Bs = tuple(CpwlCurve((hat(0.25, 0.4 + 0.05 * r, 0.75, height=0.3 + 0.1 * r),), 1)
               for r in range(6))
    return op, gam, lambda r: Bs[r]


def test_expansion_matches_direct_iteration():
    op, gam, sched = scalar_setup()
    ts = np.linspace(-0.5, 1.5, 1000)
    for n in [1, 2, 3, 4]:
        want = iterate_w(op, gam, sched, n)
        acc = zero_curve(1, 1)
        for c, k in expand_stage_iterate(gam, sched, n):
            acc = curve_add(acc, apply_v_n(op, c, k))
        assert np.max(np.abs(acc(ts) - want(ts))) < 1e-10


def test_iterate_w_refuses_past_breakpoint_cap():
    # (3 + 3) breakpoints doubled 5 times pass a cap of 100; the direct
    # iterate is refused before it runs
    op, gam, sched = scalar_setup()
    with mock.patch.object(refinement, "BREAKPOINT_CAP", 100):
        iterate_w(op, gam, sched, 4)
        with pytest.raises(SupportError):
            iterate_w(op, gam, sched, 5)


def test_compile_affine_matches_oracle():
    op, gam, sched = scalar_setup()
    for n in [1, 2, 3]:
        ci = compile_affine(op, gam, sched, n)
        want = iterate_w(op, gam, sched, n)
        ts = np.sort(np.concatenate([np.linspace(-0.5, 1.5, 701),
                                     np.arange(2 ** n + 1) / 2 ** n]))
        assert np.max(np.abs(ci(ts)[:, 0] - want(ts).ravel())) < 1e-11


def test_affine_depth_quadratic():
    op, gam, sched = scalar_setup()
    depths = [compile_affine(op, gam, sched, n).stats["depth"]
              for n in range(2, 7)]
    second = np.diff(np.diff(depths))
    assert np.all(second == second[0])


def layer_bytes(net):
    """Each layer as (activation, shape, weight bytes, bias bytes)."""
    return [(l.activation, l.weights.shape, l.weights.tobytes(), l.bias.tobytes())
            for l in net.layers]


def test_affine_single_job_is_homogeneous():
    # zero forcing leaves V^n gamma the one job with cells: no carries, so
    # the net is the homogeneous compile's, bit for bit
    op = koch().op()
    gam = CpwlCurve((hat(0.25, 0.5, 0.75), hat(0.3, 0.45, 0.7, height=-0.5)), op.L)
    for n in [1, 2, 3]:
        ci = compile_affine(op, gam, lambda r: zero_curve(op.p, op.L), n)
        assert ci.info["jobs"] == n + 1
        assert layer_bytes(ci.net) == layer_bytes(compile_homogeneous(op, gam, n).net)


def test_anchored_compile_reports_its_atoms():
    # koch anchored at n = 3: jobs (0, 3), (E, 2), (E, 1) and (E + Gamma, 0);
    # the atoms are those of E's homogeneous compiles at powers 2 and 1 (a
    # power-0 job is its curve's own lowering, and the zero curve has none)
    inst = koch()
    op, n = inst.op(), 3
    E, _ = anchor_mismatch(op, None, inst.anchor())
    ci = compile_anchored(op, None, inst.anchor(), None, n)
    homs = [compile_homogeneous(op, E, k).info for k in (1, 2)]
    assert ci.info == {"jobs": n + 1, "terms": sum(h["terms"] for h in homs),
                       "groups": sum(h["groups"] for h in homs)}
    assert ci.info["terms"] == 6


def test_anchor_mismatch_compact():
    inst = koch()
    E, compact = anchor_mismatch(inst.op(), None, inst.anchor())
    assert compact
    assert E.is_compact(1e-12)


def test_anchor_mismatch_detects_bad_tails():
    op = RefinementOp(2, 1, 1, {0: [[0.2]], 1: [[0.2]]})  # S = 0.4 != 1
    Gam = CpwlCurve((hat(0.0, 0.5, 1.0),), 1)
    comps = Gam.components
    # anchor with nonzero constant tails that S does not fix
    from refinet.cpwl import ScalarCpwl
    Gam = CpwlCurve((ScalarCpwl(np.array([0.0, 1.0]), np.array([1.0, 1.0])),), 1)
    E, compact = anchor_mismatch(op, None, Gam)
    assert not compact
    with pytest.raises(SupportError):
        compile_anchored(op, None, Gam, None, 2)


def test_compile_anchored_koch():
    inst = koch()
    op = inst.op()
    for n in [0, 1, 2, 3]:
        ci = compile_anchored(op, None, inst.anchor(), None, n)
        orc = polygonal_oracle(inst, n)
        ts = np.arange(op.M ** n + 1) / op.M ** n
        got = ci(ts)
        want = orc(ts).reshape(-1, 2)
        assert np.max(np.abs(got - want)) < 1e-10


def test_finite_state_stacking_commutes():
    sysm = gosper_system()
    op = stack_system(sysm)
    assert op.p == sysm.p * sysm.r
    for n in [1, 2]:
        per_state = gosper_oracle(n)
        prev = stack_curves(gosper_oracle(n - 1))
        nxt = apply_v(op, prev)
        ts = np.linspace(0, 1, 7 ** n * 2 + 1)
        want = np.column_stack([c(ts) for st in per_state for c in st.components])
        assert np.max(np.abs(nxt(ts) - want)) < 1e-12


def test_finite_state_apply_matches_stack():
    sysm = gosper_system()
    op = stack_system(sysm)
    cur = gosper_stage0()
    nxt = sysm.apply(cur)
    nxt_stacked = apply_v(op, stack_curves(cur))
    ts = np.linspace(0, 1, 400)
    want = np.column_stack([c(ts) for st in nxt for c in st.components])
    assert np.max(np.abs(nxt_stacked(ts) - want)) < 1e-12


@pytest.mark.parametrize("inst, n", [(koch(), 3), (heighway(), 4)])
def test_anchored_no_wider_than_defect(inst, n):
    # Gamma joins the power-0 job, whose accumulator already carries p channels
    op = inst.op()
    E, _ = anchor_mismatch(op, None, inst.anchor())
    defect = compile_affine(op, zero_curve(op.p, op.L), lambda r: E, n)
    anchored = compile_anchored(op, None, inst.anchor(), None, n)
    assert anchored.stats["width"] <= defect.stats["width"]


@pytest.mark.parametrize("n", [0, 1])
def test_compile_anchored_gosper_low_stages(n):
    # n = 0 adds the anchor to eta, n = 1 to the only forcing stage
    sysm = gosper_system()
    op = stack_system(sysm)
    Gamma = stack_curves([straight_anchor((0, 0), (1, 0))] * sysm.r)
    ci = compile_anchored(op, None, Gamma, None, n)
    ts = np.sort(np.concatenate([np.linspace(-0.5, 1.5, 401),
                                 np.arange(op.M ** n + 1) / op.M ** n]))
    want = stack_curves(gosper_oracle(n))(ts).reshape(len(ts), op.p)
    assert np.max(np.abs(ci(ts) - want)) < 1e-12
