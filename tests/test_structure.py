"""Size ceilings of the three benchmark networks.

Depth, width and nonzeros are counted as the benchmark counts them: ReLU
layers, the widest layer, and the nonzero weights.  The fourth count is
the weights the float64 evaluation plan multiplies per point
(``net_stats``' ``eval_entries``), and the fifth the largest weight or
bias magnitude (``coeff_max``), which the gate bound sets: a looser bound
worsens the nets' conditioning without changing their shape.  The
compiles the benchmark times are
held to a ceiling on the atomic cores they build, and on the rows of the
joint layers that the compiler stacks, and evaluation to the activation
buffers of one point tile.  Every layer is a dense array, so the widest
gallery net is held to a ceiling on its weight bytes.  A change that grows
one of these nets, or the work or memory of compiling or evaluating it,
fails here, before it reaches a benchmark run.
"""
import argparse
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from refinet import cli, compiler, gallery, network
from refinet.compiler import compile_homogeneous
from refinet.cpwl import CpwlCurve, hat
from refinet.network import Layer, load_network, net_stats, save_network
from refinet.reductions import compile_anchored
from refinet.refinement import RefinementOp
from test_compiler import clear_caches, core_builds
from test_network import _layer_bytes, _reference


def structure(net):
    s = net_stats(net)
    return s["depth"], s["width"], s["nnz"], s["eval_entries"], s["coeff_max"]


def scalar_deep(n=16):
    op = RefinementOp(2, 1, 1, {0: [[1.0]], 1: [[1.0]]})
    return compile_homogeneous(op, CpwlCurve((hat(0.25, 0.5, 0.75),), 1), n)


def scalar_deep_sweep():
    """The scalar-deep workload's compile: stages 1..16, as `refinet stats`."""
    return [scalar_deep(n) for n in range(1, 17)]


def anchored(name, n):
    inst = getattr(gallery, name)()
    return compile_anchored(inst.op(), None, inst.anchor(), None, n)


def cli_anchored(name, n):
    """The CLI's anchored build of a gallery example, without its oracle."""
    kind, op, src = cli._source(argparse.Namespace(spec=None, example=name))
    return cli.MODES[kind]["anchored"][0](op, src, n)


@pytest.mark.parametrize("build, ceiling", [
    (scalar_deep, (99, 15, 2413, 7128, 699049.67)),
    (lambda: anchored("koch", 3), (25, 80, 3557, 14891, 341.0)),
    (lambda: anchored("heighway", 8), (190, 72, 22547, 82567, 1364.34)),
], ids=["scalar-deep", "koch-anchored", "heighway-anchored"])
def test_benchmark_nets_within_ceiling(build, ceiling):
    got = structure(build().net)
    assert all(g <= c for g, c in zip(got, ceiling)), (got, ceiling)


@pytest.mark.parametrize("name, width", [("hilbert", 206), ("morton3", 996)],
                         ids=["hilbert", "morton3"])
def test_gallery_stage3_within_width_ceiling(name, width):
    # every core is cut to the branch channels that its cells read, and to
    # the units that can be nonzero
    got = net_stats(cli_anchored(name, 3).net)["width"]
    assert got <= width, (got, width)


def test_widest_gallery_net_fits_dense():
    # morton3 anchored stage 3, the widest of the CLI's gallery builds, holds
    # 30.1 MiB of dense weights; a net past 32 MiB calls for a sparser format
    net = cli_anchored("morton3", 3).net
    assert sum(l.weights.nbytes for l in net.layers) < 32 * 2 ** 20


def test_json_roundtrip_keeps_layers_and_outputs(tmp_path):
    # a file holds the nonzero weights as (row, col, value) triplets: every
    # layer reads back bitwise, bar -0.0 weights, which read back as 0.0 and
    # compute the same
    path = str(tmp_path / "net.json")
    x = np.linspace(-0.5, 4.5, 2001)[:, None]
    for net in [scalar_deep().net, anchored("koch", 3).net, anchored("heighway", 8).net,
                cli_anchored("morton3", 3).net]:
        save_network(net, path)
        back = load_network(path)
        assert [_layer_bytes(l) for l in back.layers] == \
            [_layer_bytes(Layer(l.weights + 0.0, l.bias, l.activation)) for l in net.layers]
        assert np.array_equal(back(x), net(x))


@pytest.mark.parametrize("build", [scalar_deep, lambda: anchored("koch", 3),
                                   lambda: anchored("heighway", 8)],
                         ids=["scalar-deep", "koch-anchored", "heighway-anchored"])
def test_benchmark_nets_match_reference(build):
    net = build().net
    x = np.linspace(-0.25, 1.25, 2001)[:, None]
    want = _reference(net, x)
    assert np.max(np.abs(net(x) - want)) < 1e-12


@pytest.mark.parametrize("build, ceiling", [
    (scalar_deep_sweep, 16),
    (lambda: anchored("koch", 3), 2),
    (lambda: anchored("heighway", 8), 7),
], ids=["scalar-deep", "koch-anchored", "heighway-anchored"])
def test_benchmark_compiles_within_core_ceiling(build, ceiling):
    _, built = core_builds(build)
    assert built <= ceiling, (built, ceiling)


def stacked_rows(build):
    """Rows of the joint layers that the compiler's own ``stack_nets`` calls
    build while ``build()`` compiles from cold caches."""
    rows = []

    def stack(*args):
        net = network.stack_nets(*args)
        rows.append(sum(l.weights.shape[0] for l in net.layers))
        return net

    clear_caches()
    with mock.patch.object(compiler, "stack_nets", stack):
        build()
    return sum(rows)


@pytest.mark.parametrize("build, ceiling", [
    (scalar_deep_sweep, 568),
    (lambda: anchored("koch", 3), 1374),
    (lambda: anchored("heighway", 8), 8472),
], ids=["scalar-deep", "koch-anchored", "heighway-anchored"])
def test_benchmark_compiles_within_stacked_rows_ceiling(build, ceiling):
    rows = stacked_rows(build)
    assert rows <= ceiling, (rows, ceiling)


def test_eval_holds_one_tile_of_buffers():
    net = scalar_deep().net
    stats = net_stats(net)
    tile = network._eval_tile(stats["width"])
    x = np.random.default_rng(11).uniform(size=(3 * tile + 1, 1))
    net(x[:1])                           # build the cached plan outside the trace
    tracemalloc.start()
    try:
        out = net(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output, the buffers of one tile, and 16 KiB for the call's own
    # objects: no bias add broadcasts through numpy's 64 KiB ufunc buffer
    assert peak <= stats["eval_buffer_bytes"] + out.nbytes + 2 ** 14
    with mock.patch.object(network, "_EVAL_POINTS", network._panels(x.shape[0])):
        assert np.array_equal(out, net(x))
    # the benchmark's 2000-point batches are one tile at each benchmark width
    assert all(network._eval_tile(w) >= 2000 for w in (16, 126, 72))


@pytest.mark.parametrize("build, ceiling", [
    (scalar_deep, 263),
    (lambda: anchored("koch", 3), 120),
    (lambda: anchored("heighway", 8), 1192),
], ids=["scalar-deep", "koch-anchored", "heighway-anchored"])
def test_benchmark_plans_fold_every_bias(build, ceiling):
    # a layer is its matmuls, a fill of its ones rows and its ReLU: every
    # ones row is the bias column of some block of the next layer
    net = build().net
    plan = net._plan()
    ones = plan.ones
    for _, mats, out_ones, _ in plan.steps:
        assert set(ones.tolist()) <= {cs.stop - 1 for _, cs, *_ in mats}
        ones = out_ones
    calls = net_stats(net)["eval_calls"]
    assert calls <= ceiling, (calls, ceiling)


@pytest.mark.parametrize("build", [scalar_deep, lambda: anchored("koch", 3),
                                   lambda: anchored("heighway", 8)],
                         ids=["scalar-deep", "koch-anchored", "heighway-anchored"])
def test_eval_is_stable_across_call_sizes(build):
    # OpenBLAS picks its gemm kernel by the number of points in a tile, and
    # runs a partial panel of eight points through a tail kernel that sums
    # in lanes; every tile runs as whole panels, padded with zero points, so
    # a point's value does not depend on the call it comes in
    net = build().net
    x = np.random.default_rng(12).uniform(size=(3 * network._EVAL_POINTS + 1, 1))
    with mock.patch.object(network, "_EVAL_POINTS", 4 * network._EVAL_POINTS):
        whole = net(x)
    for n in [*range(1, 41), 100, 777, 2000, x.shape[0]]:
        assert np.array_equal(net(x[:n]), whole[:n]), n


@pytest.fixture(scope="module")
def gosper3():
    return cli_anchored("gosper", 3).net


@pytest.mark.parametrize("seed", [0, 3, 5])
def test_wide_blocks_are_stable_across_call_sizes(gosper3, seed):
    # gosper's anchored stage-3 net has blocks over 1,300 columns wide, which
    # OpenBLAS sums in one order in a large call and in another in a small
    # one; each runs as column chunks of at most network._CHUNK, so a
    # point's value does not depend on its call there either
    assert gosper3._plan().chunk_rows > 0
    L = cli._source(argparse.Namespace(spec=None, example="gosper"))[1].L
    x = np.random.default_rng(seed).uniform(0, L, size=(2000, 1))
    whole = gosper3(x)
    for n in [*range(1, 41), 100, 777]:
        assert np.array_equal(gosper3(x[:n]), whole[:n]), n
