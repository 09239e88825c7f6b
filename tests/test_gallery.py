from unittest import mock

import numpy as np
import pytest

from refinet import refinement
from refinet.cpwl import SupportError
from refinet.gallery import (NAMED_INSTANCES, get_instance, gosper_oracle,
                             gosper_system, heighway, hilbert_connector,
                             hilbert_rp, hilbert_type, koch, levy,
                             morton_instance, polygonal_oracle)


def test_polygonal_masks_reproduce_generator_edges():
    for inst in [koch(), levy(), heighway(), hilbert_type()]:
        inst.check_edges()


def test_koch_stage1_vertices():
    orc = polygonal_oracle(koch(), 1)
    pts = {0.0: (0, 0), 0.25: (1 / 3, 0), 0.5: (0.5, np.sqrt(3) / 6),
           0.75: (2 / 3, 0), 1.0: (1, 0)}
    for t, want in pts.items():
        got = orc(np.array([t]))[0]
        assert np.max(np.abs(got - np.array(want))) < 1e-12


def test_levy_heighway_matrices():
    for inst in [levy(), heighway()]:
        op = inst.op()
        assert op.M == 2
        for A in op.mask.values():
            # similarity with ratio 1/sqrt(2)
            s = np.linalg.svd(A, compute_uv=False)
            assert np.max(np.abs(s - 1 / np.sqrt(2))) < 1e-12
    # the dragon uses one orientation-reversing piece, levy none
    dets_h = sorted(np.linalg.det(A) for A in heighway().op().mask.values())
    dets_l = sorted(np.linalg.det(A) for A in levy().op().mask.values())
    assert dets_h[0] < 0 < dets_h[1]
    assert all(d > 0 for d in dets_l)


def test_hilbert_type_masks():
    op = hilbert_type().op()
    assert op.M == 4
    J = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.max(np.abs(op.mask[0] - 0.5 * J)) < 1e-15
    assert np.max(np.abs(op.mask[1] - 0.5 * np.eye(2))) < 1e-15
    assert np.max(np.abs(op.mask[3] + 0.5 * J)) < 1e-15


def test_polygonal_oracle_refines():
    inst = koch()
    for n in [1, 2, 3]:
        orc = polygonal_oracle(inst, n)
        # endpoints pinned for every stage
        assert np.max(np.abs(orc(np.array([0.0]))[0] - [0, 0])) < 1e-12
        assert np.max(np.abs(orc(np.array([1.0]))[0] - [1, 0])) < 1e-12
        # each of the 4^n edges has length 3^-n
        ts = np.arange(4 ** n + 1) / 4 ** n
        pts = orc(ts).reshape(-1, 2)
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert np.max(np.abs(seg - 3.0 ** -n)) < 1e-12


def test_gosper_system_and_oracle():
    sysm = gosper_system()
    assert (sysm.r, sysm.M, sysm.p) == (2, 7, 2)
    e = np.ones(2)
    for a in range(2):
        s = sum(sysm.C[a, j] @ e for j in range(7))
        assert np.max(np.abs(s - e)) < 1e-12
    g1 = gosper_oracle(1)
    pts = g1[0](np.arange(8) / 7).reshape(-1, 2)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    assert np.max(np.abs(seg - 7.0 ** -0.5)) < 1e-12
    assert np.max(np.abs(pts[0])) < 1e-12
    assert np.max(np.abs(pts[-1] - [1, 0])) < 1e-12


def test_hilbert_connector_endpoints():
    hc = hilbert_connector()
    for n in range(7):
        a = hc.oracle(n)(np.array([0.0]))[0]
        want = np.array([2.0 ** (-n - 1), 2.0 ** (-n - 1)])
        assert np.max(np.abs(a - want)) < 1e-12


def test_hilbert_connector_forcing_templates():
    hc = hilbert_connector()
    sched = hc.forcing_schedule()
    L = hc.op().L
    ts = np.linspace(0, L, 1000)
    for n in [0, 1, 2]:
        direct = hc.forcing_stage(n)
        templ = sched(n)
        assert np.max(np.abs(direct(ts) - templ(ts))) < 1e-10


def test_morton_masks():
    for p in [1, 2, 3]:
        mi = morton_instance(p)
        op = mi.op()
        assert op.M == 2 ** (p + 1) - 1
        for j, A in op.mask.items():
            assert np.max(np.abs(A - 0.5 * np.eye(p))) < 1e-15


def test_hilbert_rp_half_orthogonal():
    for p in [1, 2, 3, 4]:
        inst = hilbert_rp(p)
        op = inst.op()
        assert op.M == 2 ** p
        assert len(op.mask) == 2 ** p
        for A in op.mask.values():
            U = 2.0 * A
            assert np.max(np.abs(U @ U.T - np.eye(p))) < 1e-12
        inst.check_edges()


@pytest.mark.parametrize("oracle, n", [
    (lambda n: polygonal_oracle(koch(), n), 3),
    (lambda n: hilbert_connector().oracle(n), 3),
    (gosper_oracle, 3),
], ids=["polygonal", "connector", "gosper"])
def test_oracles_refuse_past_breakpoint_cap(oracle, n):
    # the estimate 2 * 4^n or 2 * 7^n passes a cap of 100 at stage n, and
    # the stage below it is still built
    with mock.patch.object(refinement, "BREAKPOINT_CAP", 100):
        oracle(n - 1)
        with pytest.raises(SupportError):
            oracle(n)


def test_named_instances_resolve():
    for name in NAMED_INSTANCES:
        assert get_instance(name) is not None
    with pytest.raises(KeyError):
        get_instance("nope")
    with pytest.raises(KeyError):
        get_instance("mortonx")
    for name in ["morton0", "hilbert_rp0"]:
        with pytest.raises(KeyError):
            get_instance(name)
