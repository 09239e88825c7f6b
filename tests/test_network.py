import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refinet import network
from refinet.cpwl import CpwlCurve, ScalarCpwl, constant, hat
from refinet.network import (Layer, ReluNetwork, affine_net, cut_tail,
                             eval_exact, from_json_dict, identity_net,
                             load_network, lower_curve_1d, lower_scalar_cpwl,
                             net_stats, passthrough, post_affine, pre_affine,
                             save_network, serial, stack_nets, to_json_dict)


def rand_pts(rng, n, d):
    return rng.normal(size=(n, d))


def test_canonical_form():
    net = affine_net(np.array([[2.0]]), np.array([1.0]))
    assert net.depth == 0
    assert len(net.layers) == 1
    assert net.layers[-1].activation == "linear"


def test_lower_scalar_cpwl_exact():
    rng = np.random.default_rng(0)
    for _ in range(20):
        k = rng.integers(2, 8)
        f = ScalarCpwl(np.sort(rng.uniform(-1, 2, k)), rng.normal(size=k))
        net = lower_scalar_cpwl(f)
        ts = np.sort(np.concatenate([np.linspace(-2, 3, 400), f.ts]))
        got = net.eval_scalar_input(ts)[:, 0]
        assert np.max(np.abs(got - f(ts))) < 1e-12
        assert net.depth == 1
        assert net_stats(net)["width"] == k


def unread_units(net):
    """The hidden units of ``net`` whose outgoing weights are all zero."""
    return sum(int(np.count_nonzero(~np.any(l.weights != 0, axis=0)))
               for l in net.layers[1:])


def test_lower_scalar_cpwl_emits_no_unread_unit():
    # no unit at a breakpoint where the slope does not jump: between
    # collinear neighbours, or at an end where the function is flat
    rng = np.random.default_rng(12)
    for _ in range(20):
        k = int(rng.integers(3, 9))
        ts = np.sort(rng.choice(np.arange(-8, 17), k, replace=False)) / 8
        slopes = rng.integers(-2, 3, k - 1).astype(float)
        vs = np.concatenate([[0.0], np.cumsum(slopes * np.diff(ts))]) + rng.integers(-4, 5)
        f = ScalarCpwl(ts, vs)
        net = lower_scalar_cpwl(f)
        assert net.depth == 1 and unread_units(net) == 0
        jumps = np.diff(np.concatenate([[0.0], slopes, [0.0]]))
        assert net.layers[0].weights.shape[0] == np.count_nonzero(jumps)
        x = np.sort(np.concatenate([np.linspace(-2, 3, 200), ts]))
        assert np.max(np.abs(net.eval_scalar_input(x)[:, 0] - f(x))) < 1e-12


def test_constant_component_lowers_at_depth_one():
    # a constant has no unit but keeps its empty hidden layer, so stack_nets
    # does not pad it beside the other components
    assert lower_scalar_cpwl(constant(2.0)).depth == 1
    curve = CpwlCurve((hat(0.25, 0.5, 0.75), constant(2.0)), 1)
    net = lower_curve_1d(curve)
    assert net.depth == 1
    assert [l.weights.shape[0] for l in net.layers] == [3, 2]
    ts = np.linspace(-0.5, 1.5, 101)
    assert np.max(np.abs(net.eval_scalar_input(ts) - curve(ts))) < 1e-15


def test_serial_and_affine_fold():
    rng = np.random.default_rng(1)
    f = lower_scalar_cpwl(hat(0.0, 0.5, 1.0))
    g = pre_affine(post_affine(f, np.array([[3.0]]), np.array([1.0])),
                   np.array([[0.5]]), np.array([0.25]))
    # affine composition must not add depth
    assert g.depth == f.depth
    ts = rng.uniform(-1, 2, 200)
    want = 3.0 * hat(0.0, 0.5, 1.0)(0.5 * ts + 0.25) + 1.0
    assert np.max(np.abs(g.eval_scalar_input(ts)[:, 0] - want)) < 1e-12


def test_serial_folds_each_repeated_seam_once():
    rng = np.random.default_rng(3)
    a = _random_net(rng, 2, [3, 2])
    b = _random_net(rng, 2, [4, 2])
    lin = affine_net(rng.normal(size=(2, 2)), rng.normal(size=2))
    with mock.patch.object(network, "_fold", wraps=network._fold) as fold:
        chain = serial(a, *[b] * 4)
    assert fold.call_count == 2
    assert _same_layers(chain, [*a.layers, *[l for _ in range(4) for l in b.layers]])
    # a one-layer net's seam folds into the previous fold, so each folds anew
    with mock.patch.object(network, "_fold", wraps=network._fold) as fold:
        chain = serial(b, *[lin] * 3)
    assert fold.call_count == 3
    assert _same_layers(chain, [*b.layers, *lin.layers * 3])


def test_cut_tail_stops_at_first_full_layer():
    # output 1 reads units 2-3 of the last hidden layer only, which read
    # every unit of the layer before: the cut drops units 0-1 and stops there
    rng = np.random.default_rng(4)
    W1, W2 = rng.normal(size=(3, 1)), rng.normal(size=(4, 3))
    W3 = np.array([[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 3.0, -1.0]])
    net = ReluNetwork(1, [Layer(W1, np.zeros(3), "relu"), Layer(W2, np.ones(4), "relu"),
                          Layer(W3, np.zeros(2), "linear")])
    cut = cut_tail(net, np.array([1]))
    assert [l.weights.shape for l in cut.layers] == [(3, 1), (2, 3), (1, 2)]
    assert cut.layers[0] is net.layers[0]
    x = rng.normal(size=(20, 1))
    assert np.allclose(cut(x)[:, 0], net(x)[:, 1], rtol=1e-14, atol=1e-14)


def test_loaded_net_plans_its_stored_rows(tmp_path):
    # a dead unit in front of a layer that loses no row: a tail cut stops
    # before it, and the plan of the net read from JSON runs it as stored
    rng = np.random.default_rng(6)
    W1 = rng.normal(size=(3, 2))
    W2 = np.array([[1.0, 2.0, 0.0], [0.5, -1.0, 0.0]])
    net = ReluNetwork(2, [Layer(W1, np.array([0.0, 0.5, 0.25]), "relu"),
                          Layer(W2, np.array([0.125, 0.0]), "relu"),
                          Layer(np.array([[1.0, -1.0]]), np.zeros(1), "linear")])
    assert [l.weights.shape for l in cut_tail(net, np.array([0])).layers] == \
        [l.weights.shape for l in net.layers]
    assert _unread_units(net) == [[2], [], []]
    path = str(tmp_path / "net.json")
    save_network(net, path)
    back = load_network(path)
    # the first step writes the three stored units, the dead one too, and
    # the ones row that the second layer's bias reads
    rows, _, ones, _ = back._plan().steps[0]
    assert (rows, ones.size) == (4, 1)
    assert [step[0] for step in back._plan().steps] == [step[0] for step in net._plan().steps]
    x = rng.normal(size=(50, 2))
    assert back(x).tobytes() == net(x).tobytes()


def test_passthrough_exact():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(100, 3))
    for depth in [1, 2, 4]:
        pg = passthrough(3, "general", depth)
        assert pg.depth == depth
        assert np.max(np.abs(pg(x) - x)) < 1e-12
    pn = passthrough(3, "nonneg", 2)
    xn = np.abs(x)
    assert np.max(np.abs(pn(xn) - xn)) < 1e-12


def test_stack_nets_pads_depth():
    f = lower_scalar_cpwl(hat(0.0, 0.5, 1.0))        # depth 1
    g = serial(f, lower_scalar_cpwl(hat(0.0, 0.5, 1.0)))  # depth 2
    st = stack_nets([f, g], [[0], [0]], 1)
    assert st.depth == 2
    ts = np.linspace(-1, 2, 150)
    out = st.eval_scalar_input(ts)
    h = hat(0.0, 0.5, 1.0)
    assert np.max(np.abs(out[:, 0] - h(ts))) < 1e-12
    assert np.max(np.abs(out[:, 1] - h(h(ts)))) < 1e-12


def test_lower_curve_1d():
    curve = CpwlCurve((hat(0.25, 0.5, 0.75), hat(0.3, 0.5, 0.7, height=-2.0)), 1)
    net = lower_curve_1d(curve)
    ts = np.linspace(-0.5, 1.5, 300)
    assert np.max(np.abs(net.eval_scalar_input(ts) - curve(ts))) < 1e-12


def test_wide_stacking_is_exact():
    # 100 copies side by side, in dense block-diagonal layers 4,000 wide
    base = lower_scalar_cpwl(ScalarCpwl(np.linspace(0, 1, 40),
                                        np.sin(np.linspace(0, 6, 40))))
    wide = stack_nets([serial(base, passthrough(1, "general", 1))] * 100,
                      [[0]] * 100, 1)
    assert [l.weights.shape for l in wide.layers] == [(4000, 1), (200, 4000), (100, 200)]
    ts = np.linspace(-0.2, 1.2, 200)
    out = wide.eval_scalar_input(ts)
    want = base.eval_scalar_input(ts)
    assert np.array_equal(out, np.repeat(want, 100, axis=1))


def test_plan_is_built_once():
    # one plan per net, shared by every float64 call and by eval_exact
    net = serial(lower_scalar_cpwl(hat(0.0, 0.5, 1.0)), passthrough(1, "general", 2))
    ts = np.linspace(-0.5, 1.5, 11)[:, None]
    with mock.patch.object(network, "_diagonal_blocks",
                           wraps=network._diagonal_blocks) as split:
        first = net(ts)
        plan = net._plan()
        assert net(ts).tobytes() == first.tobytes()
        assert net(ts[0]).tobytes() == first[0].tobytes()
        assert np.allclose(eval_exact(net, ts).astype(float), first, rtol=0, atol=1e-15)
        assert net._plan() is plan
    assert split.call_count == 1
    assert identity_net(1)(np.array([2])).dtype == np.float64


def test_plan_splits_layers_into_diagonal_blocks():
    W = np.zeros((7, 5))
    W[:2, :2] = [[1.0, 2.0], [0.0, 3.0]]
    W[3, 3:] = [4.0, 5.0]
    b = np.array([0.0, 1.0, 2.0, 0.0, 3.0, 0.0, 0.0])
    net = ReluNetwork(5, [Layer(W, b, "relu"), Layer(np.ones((1, 7)), [0.0], "linear")])
    plan = ReluNetwork(5, [net.layers[0]])._plan()
    # the blocks on columns 0-1 and 3-4 fold a bias, so a ones row follows
    # each in the input
    assert (plan.rows, plan.x_rows.tolist(), plan.ones.tolist()) == (7, [0, 1, 3, 4, 5],
                                                                     [2, 6])
    (rows, mats, ones, relu), _ = plan.steps
    # zero rows join the block above while it at most doubles; rows 5-6
    # have no weights and multiply their bias by a ones row
    assert [(rs, cs) for rs, cs, *_ in mats] == [(slice(0, 3), slice(0, 3)),
                                                (slice(3, 5), slice(4, 7)),
                                                (slice(5, 7), slice(6, 7))]
    assert [M.tolist() for _, _, M, _ in mats] == [[[1, 2, 0], [0, 3, 1], [0, 0, 2]],
                                              [[4, 5, 0], [0, 0, 3]], [[0], [0]]]
    assert (rows, ones.tolist(), relu) == (7, [], True)
    assert net_stats(net)["eval_entries"] == 6 + 4 + 7
    x = np.random.default_rng(6).normal(size=(9, 5))
    assert np.allclose(net(x), _reference(net, x), rtol=1e-15, atol=1e-15)


def test_plan_folds_one_row_biases():
    # one-row blocks fold their bias as every other block does: hidden row 0
    # multiplies [1 2 3 | 0.5] by x0-x2 and a ones row, and output row 2
    # [3 4 | 1] by hidden rows 1-2 and a ones row; each runs as a matrix
    # product, padded with a zero row that writes its layer's spare last row
    net = ReluNetwork(4, [Layer(np.array([[1.0, 2.0, 3.0, 0.0], [0.0, 0.0, 0.0, 2.0],
                                          [0.0, 0.0, 0.0, 3.0]]),
                                np.array([0.5, 1.0, 2.0]), "relu"),
                          Layer(np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 3.0, 4.0]]),
                                np.array([1.0, 1.0, 1.0]), "linear")])
    plan = net._plan()
    assert (plan.rows, plan.x_rows.tolist(), plan.ones.tolist()) == (6, [0, 1, 2, 4], [3, 5])
    (rows, mats, ones, _), (rows2, mats2, ones2, _) = plan.steps
    assert [(rs, cs, M.tolist()) for rs, cs, M, _ in mats] == [
        (slice(0, 6, 5), slice(0, 4), [[1.0, 2.0, 3.0, 0.5], [0.0] * 4]),
        (slice(2, 4), slice(4, 6), [[2.0, 1.0], [3.0, 2.0]])]
    assert (rows, ones.tolist()) == (6, [1, 4])
    assert [(rs, cs, M.tolist()) for rs, cs, M, _ in mats2] == [
        (slice(0, 2), slice(0, 2), [[1.0, 1.0], [2.0, 1.0]]),
        (slice(2, 4, 1), slice(2, 5), [[3.0, 4.0, 1.0], [0.0] * 3])]
    assert (rows2, ones2.tolist()) == (4, [])
    # matmuls, the fill of the ones rows and the ReLU
    assert net_stats(net)["eval_calls"] == (2 + 1 + 1) + 2
    x = np.random.default_rng(6).normal(size=(9, 4))
    assert np.allclose(net(x), _reference(net, x), rtol=1e-15, atol=1e-15)
    _check_exact(net, x)


@pytest.mark.parametrize("rows", [2, 3, 8, 17])
def test_bias_folded_last_is_added_as_apart(rows):
    # in a block of two or more rows, a bias in the last column is added
    # after the weight sum, exactly as a separate add, within one dgemm panel
    # of K (256 columns or more), for points in whole panels of eight, as
    # every tile runs: a partial panel goes through a BLAS tail kernel that
    # sums in lanes.  A one-row block runs as a matrix-vector product, which
    # OpenBLAS sums in lanes, so folding its bias may move it by an ulp.
    rng = np.random.default_rng(rows)
    for k in [1, 2, 5, 16, 63, 127, 255]:
        for n in [8, 2000]:
            W, b, y = rng.normal(size=(rows, k)), rng.normal(size=rows), rng.normal(size=(k, n))
            folded = np.hstack([W, b[:, None]]) @ np.vstack([y, np.ones((1, n))])
            assert np.array_equal(folded, W @ y + b[:, None]), (k, n)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        serial(identity_net(2), identity_net(3))
    with pytest.raises(ValueError):
        serial(passthrough(2, "general", 1), lower_scalar_cpwl(hat(0.0, 0.5, 1.0)))
    with pytest.raises(ValueError):
        ReluNetwork(1, [Layer(np.eye(2), np.zeros(2), "relu")])
    for lay in [Layer(np.ones((2, 1)), np.zeros(3), "relu"),
                Layer(np.ones((2, 1, 1)), np.zeros(2), "relu"),
                Layer(np.ones((2, 1)), np.zeros(2), "tanh")]:
        with pytest.raises(ValueError):
            ReluNetwork(1, [lay])
    net = passthrough(2, "general", 1)       # 2 -> 2
    for W, b in [(np.ones((1, 3)), np.zeros(1)), (np.ones((1, 2)), np.zeros(2))]:
        with pytest.raises(ValueError):
            post_affine(net, W, b)
    for W, b in [(np.ones((3, 1)), np.zeros(3)), (np.ones((2, 1)), np.zeros(3))]:
        with pytest.raises(ValueError):
            pre_affine(net, W, b)


def _coo_layer(shape, rows, cols, vals):
    return {"bias": [0.0] * shape[0], "activation": "linear",
            "weights_coo": {"shape": shape, "rows": rows, "cols": cols, "vals": vals}}


def test_json_coo_sums_duplicates_and_zeros():
    # explicit zeros and entries at one position, as older versions wrote
    # them, load as the sum of each position's entries
    d = to_json_dict(identity_net(3))
    d["layers"][0] = _coo_layer([3, 3], [0, 1, 2, 2, 0], [0, 1, 2, 0, 0],
                                [1.0, 0.0, 2.0, 0.0, 0.5])
    net = from_json_dict(d)
    assert net.layers[0].weights.tolist() == [[1.5, 0, 0], [0, 0, 0], [0, 0, 2]]
    assert net_stats(net)["nnz"] == 2
    x = np.array([[1.0, 2.0, 3.0]])
    assert np.array_equal(net(x), [[1.5, 0.0, 6.0]])


@pytest.mark.parametrize("layer", [
    _coo_layer([2, 2], [0, -1], [0, 1], [1.0, 2.0]),
    _coo_layer([2, 2], [0, 1], [-1, 1], [1.0, 2.0]),
    _coo_layer([2, 2], [0, 2], [0, 1], [1.0, 2.0]),
    _coo_layer([2, 2], [0, 1], [0, 2], [1.0, 2.0]),
    _coo_layer([2, 2], [0, 1], [0, 1], [1.0]),
    _coo_layer([2, 2], [0, 1], [0], [1.0, 2.0]),
], ids=["negative-row", "negative-col", "row-past-shape", "col-past-shape",
        "short-vals", "short-cols"])
def test_json_coo_refuses_bad_indices(layer):
    # numpy would wrap a negative index into the last row or column
    with pytest.raises(ValueError):
        from_json_dict({"input_dim": 2, "layers": [layer]})


def _reference(net, x):
    """Plain per-layer evaluation, all points at once, point-major."""
    y = np.atleast_2d(x)
    for l in net.layers:
        y = y @ l.weights.T.astype(y.dtype) + l.bias
        if l.activation == "relu":
            y = np.maximum(y, 0.0)
    return y


@st.composite
def random_nets(draw):
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    d = draw(st.integers(1, 4))
    widths = draw(st.lists(st.integers(1, 7), min_size=1, max_size=4))
    layers, prev = [], d
    for i, w in enumerate(widths):
        W = rng.normal(size=(w, prev)) * (rng.uniform(size=(w, prev)) < 0.5)
        last = i == len(widths) - 1
        act = "linear" if last else draw(st.sampled_from(["relu", "linear"]))
        layers.append(Layer(W, rng.normal(size=w), act))
        prev = w
    return ReluNetwork(d, layers), rng


@st.composite
def stacked_nets(draw):
    """stack_nets of 1-4 random nets of unequal depth on random input
    slices, with zero biases and all-zero rows and columns."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    d = draw(st.integers(1, 4))
    nets, slices = [], []
    for _ in range(draw(st.integers(1, 4))):
        sl = rng.choice(d, size=rng.integers(1, d + 1), replace=False)
        widths = draw(st.lists(st.integers(1, 7), min_size=1, max_size=4))
        layers, prev = [], sl.size
        for i, w in enumerate(widths):
            W = rng.normal(size=(w, prev)) * (rng.uniform(size=(w, prev)) < 0.6)
            W[rng.uniform(size=w) < 0.2] = 0.0
            W[:, rng.uniform(size=prev) < 0.2] = 0.0
            b = rng.normal(size=w) * (rng.uniform(size=w) < 0.5)
            act = "linear" if i == len(widths) - 1 else "relu"
            layers.append(Layer(W, b, act))
            prev = w
        nets.append(ReluNetwork(sl.size, layers))
        slices.append(sl)
    return stack_nets(nets, slices, d), rng


def _layer_bytes(l):
    W = l.weights
    return W.shape, W.dtype, W.tobytes(), l.bias.dtype, l.bias.tobytes(), l.activation


def _same_layers(net, layers):
    """``net``'s layers are bitwise those of ``ReluNetwork(d, layers)``."""
    want = ReluNetwork(net.input_dim, layers).layers
    return [_layer_bytes(l) for l in net.layers] == [_layer_bytes(l) for l in want]


def test_passthrough_is_canonical():
    for sign in ["nonneg", "general"]:
        for depth in range(5):
            for dim in range(1, 5):
                net = passthrough(dim, sign, depth)
                assert _same_layers(net, net.layers), (sign, depth, dim)


@st.composite
def chains(draw):
    """1-4 nets with matching seams: random nets, depth-0 affine nets (so
    that consecutive seams fold into each other) and stack_nets."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    dims = draw(st.lists(st.integers(1, 4), min_size=2, max_size=5))
    nets = []
    for d, e in zip(dims, dims[1:]):
        kind = draw(st.sampled_from(["affine", "random", "stack"]))
        if kind == "affine":
            nets.append(affine_net(rng.normal(size=(e, d)), rng.normal(size=e)))
            continue
        widths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)) + [e]
        if kind == "stack":
            # two branches on the whole input, their outputs summed
            parts = [_random_net(rng, d, widths[:rng.integers(1, len(widths) + 1)] + [e])
                     for _ in range(2)]
            net = stack_nets(parts, [range(d)] * 2, d)
            nets.append(post_affine(net, np.hstack([np.eye(e)] * 2), np.zeros(e)))
        else:
            nets.append(_random_net(rng, d, widths))
    return nets, rng


def _random_net(rng, d, widths):
    layers, prev = [], d
    for i, w in enumerate(widths):
        W = rng.normal(size=(w, prev)) * (rng.uniform(size=(w, prev)) < 0.6)
        act = "linear" if i == len(widths) - 1 else "relu"
        layers.append(Layer(W, rng.normal(size=w) * (rng.uniform(size=w) < 0.5), act))
        prev = w
    return ReluNetwork(d, layers)


@settings(max_examples=150, deadline=None)
@given(chains())
def test_composition_folds_only_at_seams(chain):
    nets, rng = chain
    all_layers = [l for n in nets for l in n.layers]
    joined = serial(*nets)
    assert _same_layers(joined, all_layers)
    # every layer off a seam is the input's own Layer object
    start = 0
    for i, net in enumerate(nets):
        last = len(net.layers) - (i < len(nets) - 1)
        assert all(joined.layers[start + j] is net.layers[j]
                   for j in range(1 if i else 0, last))
        start += len(net.layers) - 1
    net = nets[0]
    W, b = rng.normal(size=(3, net.output_dim)), rng.normal(size=3)
    post = post_affine(net, W, b)
    assert _same_layers(post, [*net.layers, Layer(W, b, "linear")])
    assert all(a is b for a, b in zip(post.layers[:-1], net.layers[:-1]))
    W, b = rng.normal(size=(net.input_dim, 2)), rng.normal(size=net.input_dim)
    pre = pre_affine(net, W, b)
    assert pre.input_dim == 2
    assert _same_layers(pre, [Layer(W, b, "linear"), *net.layers])
    assert all(a is b for a, b in zip(pre.layers[1:], net.layers[1:]))
    stacked = stack_nets(nets, [range(n.input_dim) for n in nets],
                         max(n.input_dim for n in nets))
    assert _same_layers(stacked, stacked.layers)


def test_save_network_skips_block_split(tmp_path):
    net = stack_nets([passthrough(2, "general", 2), lower_scalar_cpwl(hat(0.0, 0.5, 1.0))],
                     [[0, 1], [0]], 2)
    with mock.patch.object(network, "_diagonal_blocks",
                           wraps=network._diagonal_blocks) as split:
        network.save_network(net, str(tmp_path / "net.json"), builder="test")
        assert split.call_count == 0
        back = network.load_network(str(tmp_path / "net.json"))
        assert split.call_count == 0
        net_stats(net)
        assert split.call_count == 1
    meta = to_json_dict(net)["meta"]
    assert {k: meta[k] for k in ("width", "depth", "coeff_max")} == \
        {k: net_stats(net)[k] for k in ("width", "depth", "coeff_max")}
    x = np.random.default_rng(7).normal(size=(5, 2))
    assert np.array_equal(back(x), net(x))


@settings(max_examples=120, deadline=None)
@given(st.one_of(random_nets(), stacked_nets()), st.integers(1, 5),
       st.integers(-1, 1), st.integers(1, 3))
def test_chunked_eval_matches_reference(net_rng, chunk, off, k):
    net, rng = net_rng
    widest = max(l.weights.shape[0] for l in net.layers)
    N = max(0, k * chunk + off)          # just below, at and above k chunks
    x = rng.normal(size=(N, net.input_dim))
    with mock.patch.object(network, "_EVAL_BUDGET", chunk * 8 * widest):
        got = net(x)
        one = net(x[0]) if N else None
    want = _reference(net, x)
    assert got.shape == want.shape == (N, net.output_dim)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
    if N:
        assert one.shape == (net.output_dim,)
        assert np.allclose(one, want[0], rtol=1e-12, atol=1e-12)


def _fraction_reference(net, x):
    """Plain per-layer evaluation in Fractions, point-major."""
    y = [[Fraction(v) for v in p] for p in np.atleast_2d(x).tolist()]
    for l in net.layers:
        W = [[Fraction(w) for w in row] for row in l.weights.tolist()]
        b = [Fraction(v) for v in l.bias.tolist()]
        y = [[sum((w * v for w, v in zip(row, p)), c) for row, c in zip(W, b)]
             for p in y]
        if l.activation == "relu":
            y = [[max(v, 0) for v in p] for p in y]
    return y


def _rounding_bound(net, x):
    """Twice the forward error bound of float64 evaluation: a layer of k
    inputs adds at most gamma_{k+1} (|W| |y| + |b|) to the error that |W|
    carries over, with gamma_k = k u / (1 - k u) the dot-product bound for
    unit roundoff u, in any summation order; a ReLU adds nothing."""
    u = 2.0 ** -53
    y = np.atleast_2d(x)
    err = np.zeros_like(y)
    for l in net.layers:
        W = l.weights
        g = (W.shape[1] + 1) * u / (1 - (W.shape[1] + 1) * u)
        err = err @ np.abs(W).T + g * (np.abs(y) @ np.abs(W).T + np.abs(l.bias))
        y = y @ W.T + l.bias
        if l.activation == "relu":
            y = np.maximum(y, 0.0)
    return 2 * err


def _check_exact(net, x):
    exact = eval_exact(net, x)
    assert exact.shape == (x.shape[0], net.output_dim)
    assert exact.tolist() == _fraction_reference(net, x)
    err = np.abs(net(x) - exact.astype(float))
    assert np.all(err <= _rounding_bound(net, x))
    assert eval_exact(net, x[0]).tolist() == exact[0].tolist()


@settings(max_examples=60, deadline=None)
@given(st.one_of(random_nets(), stacked_nets()), st.integers(1, 4))
def test_eval_exact_matches_fraction_reference(net_rng, N):
    net, rng = net_rng
    _check_exact(net, rng.normal(size=(N, net.input_dim)))


def test_wide_blocks_run_as_column_chunks():
    # a block wider than _CHUNK columns runs as chunks of at most that many,
    # the bias column in the last, added in order by the float and exact paths
    rng = np.random.default_rng(9)
    K = 2 * network._CHUNK + 40
    net = ReluNetwork(K, [Layer(rng.normal(size=(3, K)), rng.normal(size=3), "relu"),
                          Layer(rng.normal(size=(1, 3)), [0.5], "linear")])
    plan = net._plan()
    (_, mats, _, _), _ = plan.steps
    assert [(cs.stop - cs.start, add) for _, cs, _, add in mats] == [
        (255, False), (255, True), (41, True)]
    assert mats[-1][2][:, -1].tolist() == net.layers[0].bias.tolist()
    assert plan.chunk_rows == 3
    # 3 matmuls, 2 chunk adds, the ones fill and the ReLU; then 1 matmul
    assert net_stats(net)["eval_calls"] == 7 + 1
    _check_exact(net, rng.normal(size=(9, K)))


def _plant_unread_units(net, rng):
    """``net`` with unread units planted among the rows of each hidden layer:
    random weights and biases in, zero weights out, except to later planted
    units, which are unread themselves."""
    layers, rows, cols = [], np.arange(net.input_dim), net.input_dim
    for k, l in enumerate(net.layers):
        W = l.weights
        out = W.shape[0] + (int(rng.integers(1, 4)) if k < len(net.layers) - 1 else 0)
        prev, rows = rows, np.sort(rng.choice(out, W.shape[0], replace=False))
        W2 = rng.normal(size=(out, cols))
        W2[rows] = 0.0
        W2[np.ix_(rows, prev)] = W
        b = rng.normal(size=out)
        b[rows] = l.bias
        layers.append(Layer(W2, b, l.activation))
        cols = out
    return ReluNetwork(net.input_dim, layers)


@settings(max_examples=40, deadline=None)
@given(st.one_of(random_nets(), stacked_nets()), st.integers(1, 4))
def test_plan_runs_unread_units_exactly(net_rng, N):
    # the plan runs a net's layers as stored, unread units and all
    net, rng = net_rng
    planted = _plant_unread_units(net, rng)
    x = rng.normal(size=(N, net.input_dim))
    assert np.allclose(planted(x), _reference(planted, x), rtol=1e-12, atol=1e-12)
    _check_exact(planted, x)


def _zero_units(net):
    """Per layer, the units that are 0 for every input by the forward rule,
    found by a plain pass in layer order: past the first layer, a ReLU unit
    whose bias and weights on the units kept in front of it are all <= 0."""
    dropped, kept = [], np.arange(net.input_dim)
    for k, l in enumerate(net.layers):
        W = l.weights
        drop = []
        if k and l.activation == "relu":
            drop = np.flatnonzero((l.bias <= 0) & np.all(W[:, kept] <= 0, axis=1)).tolist()
        dropped.append(drop)
        kept = np.delete(np.arange(W.shape[0]), drop)
    return dropped


def _unread_units(net):
    """Per layer, the units that no output reads, found by a plain pass
    from the output back: a unit is read when some read unit of the next
    layer has a nonzero weight on it."""
    unread, read = [[]], list(range(net.output_dim))
    for l in net.layers[:0:-1]:
        used = np.any(l.weights[read] != 0, axis=0)
        read = np.flatnonzero(used).tolist()
        unread.append(np.flatnonzero(~used).tolist())
    return unread[::-1]


@st.composite
def signed_nets(draw):
    """Random ReLU nets in which some units have every weight and their
    bias <= 0, with exact zeros."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    d = draw(st.integers(1, 4))
    widths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    layers, prev = [], d
    for i, w in enumerate([*widths, draw(st.integers(1, 3))]):
        W = rng.normal(size=(w, prev)) * (rng.uniform(size=(w, prev)) < 0.7)
        b = rng.normal(size=w) * (rng.uniform(size=w) < 0.7)
        neg = rng.uniform(size=w) < 0.4
        W[neg], b[neg] = -np.abs(W[neg]), -np.abs(b[neg])
        layers.append(Layer(W, b, "linear" if i == len(widths) else "relu"))
        prev = w
    return ReluNetwork(d, layers), rng


@settings(max_examples=80, deadline=None)
@given(signed_nets(), st.integers(1, 6))
def test_forward_cut_drops_only_zero_units(net_rng, N):
    net, rng = net_rng
    dropped = _zero_units(net)
    cut = network._nonzero_layers(net.layers)
    assert [l.weights.shape[0] for l in cut] == \
        [l.weights.shape[0] - len(drop) for l, drop in zip(net.layers, dropped)]
    # every dropped unit reads 0 on inputs of either sign, in float64 and exactly
    x = 4 * rng.normal(size=(N, net.input_dim))
    y, q = x, [[Fraction(v) for v in p] for p in x.tolist()]
    for l, drop in zip(net.layers, dropped):
        y = np.maximum(y @ l.weights.T + l.bias, 0.0)
        q = [[max(sum((Fraction(w) * v for w, v in zip(row, p)), Fraction(c)), 0)
              for row, c in zip(l.weights.tolist(), l.bias.tolist())] for p in q]
        assert np.all(y[:, drop] == 0) and all(p[i] == 0 for p in q for i in drop)
    # the cut net evaluates bitwise as the whole net, and exactly as its layers
    assert np.array_equal(ReluNetwork._canonical(net.input_dim, cut)(x), net(x))
    _check_exact(net, x)
    # a dropped unit whose bias turns positive is kept
    k = next((k for k, drop in enumerate(dropped) if drop), None)
    if k is not None:
        l = net.layers[k]
        b = l.bias.copy()
        b[dropped[k][0]] = 0.5
        layers = [*net.layers[:k], Layer(l.weights, b, l.activation), *net.layers[k + 1:]]
        assert network._nonzero_layers(layers)[k].weights.shape[0] == \
            cut[k].weights.shape[0] + 1


def test_eval_exact_reads_stacked_nets():
    rng = np.random.default_rng(8)
    parts = [ReluNetwork(2, [Layer(rng.normal(size=(4, 2)), rng.normal(size=4), "relu"),
                             Layer(rng.normal(size=(1, 4)), [0.0], "linear")])
             for _ in range(3)]
    net = stack_nets(parts, [[0, 1], [1, 2], [2, 0]], 3)
    _check_exact(net, rng.normal(size=(7, 3)))
    # exact where float64 rounds, in any summation order: 1 + 2^-60 + 2^-60
    net = affine_net(np.array([[1.0, 1.0, 1.0]]), np.array([0.0]))
    x = np.array([1.0, 2.0 ** -60, 2.0 ** -60])
    assert net(x)[0] == 1.0 and eval_exact(net, x)[0] == 1 + Fraction(1, 2 ** 59)
    with pytest.raises(ValueError):
        eval_exact(net, [Fraction(1, 3), 0, 0])


def test_eval_memory_is_bounded():
    rng = np.random.default_rng(5)
    w = 116
    net = ReluNetwork(1, [Layer(rng.normal(size=(w, 1)), rng.normal(size=w), "relu"),
                          Layer(rng.normal(size=(w, w)), rng.normal(size=w), "relu"),
                          Layer(rng.normal(size=(1, w)), np.zeros(1), "linear")])
    x = rng.uniform(size=(200_000, 1))
    net(x[:1])                           # build the cached plan outside the trace
    tracemalloc.start()
    try:
        out = net(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the buffers of one tile, the output, and 16 KiB for the call's own
    # objects: no bias add broadcasts through numpy's 64 KiB ufunc buffer;
    # N x width is 185 MB
    bound = net_stats(net)["eval_buffer_bytes"] + out.nbytes + 2 ** 14
    assert peak < bound < x.shape[0] * w * 8 / 3
