"""Layered ReLU network IR, combinators and exact CPwL lowering.

Networks are kept in canonical form: zero or more ReLU layers followed by
exactly one linear output layer.  Affine maps fold into neighbouring
layers, so pre/post composition and serial wiring never add depth.
Every layer's weights are one dense float64 array.  The constructor checks
layers from outside (callers, JSON); composition reuses the checked layers
of its nets and folds only at the seams.  Evaluation runs the layers as
stored: the compiler alone cuts units (``cut_zeros``, ``cut_tail``).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .cpwl import ScalarCpwl

# bytes of activations per layer that one tile of evaluated points may hold
_EVAL_BUDGET = 16 * 2 ** 20
# points per evaluation tile: at width 18 its two activations hold 1.2 MB, in L2
_EVAL_POINTS = 4096
# OpenBLAS's gemm runs the points in panels of this many columns, and a
# partial panel through a tail kernel that sums in another order
_PANEL = 8
# OpenBLAS sums a product's columns in one order whatever the call size only
# up to this many, so a wider block runs as chunks of at most this many
_CHUNK = 255
# neighbouring diagonal blocks of a layer merge while the merged block holds at
# most this many times the entries of the finest blocks inside it: each block
# costs the evaluator one matmul call, each entry one multiply-add per point
_BLOCK_MERGE = 2


def _eval_tile(widest: int) -> int:
    return max(1, min(_EVAL_POINTS, _EVAL_BUDGET // (8 * widest)) // _PANEL) * _PANEL


def _panels(n: int) -> int:
    """The columns of a tile of n points: n rounded up to whole panels."""
    return -(-n // _PANEL) * _PANEL


@dataclass(frozen=True)
class Layer:
    weights: np.ndarray  # (out, in) float64
    bias: np.ndarray     # (out,)
    activation: str      # "relu" | "linear"


def _fold(prev: Layer, lay: Layer) -> Layer:
    """``lay`` applied after the linear layer ``prev``, as one layer."""
    return Layer(lay.weights @ prev.weights, lay.bias + lay.weights @ prev.bias,
                 lay.activation)


def _canon(input_dim: int, layers):
    """Check layers, fold consecutive linear layers, guarantee a trailing
    linear layer."""
    out = []
    d = input_dim
    for lay in layers:
        W = np.asarray(lay.weights, dtype=float)
        b = np.asarray(lay.bias, dtype=float).ravel()
        if W.ndim != 2 or W.shape[0] != b.size:
            raise ValueError("bad layer shapes")
        if W.shape[1] != d:
            raise ValueError(f"layer expects input {W.shape[1]}, got {d}")
        if lay.activation not in ("relu", "linear"):
            raise ValueError(f"unknown activation {lay.activation!r}")
        lay = Layer(W, b, lay.activation)
        if out and out[-1].activation == "linear":
            lay = _fold(out.pop(), lay)
        out.append(lay)
        d = W.shape[0]
    if not out or out[-1].activation != "linear":
        out.append(Layer(np.eye(d), np.zeros(d), "linear"))
    return tuple(out)


class ReluNetwork:
    """A feed-forward ReLU network in canonical layered form."""

    def __init__(self, input_dim: int, layers=()):
        self.input_dim = int(input_dim)
        self.layers = _canon(self.input_dim, list(layers))
        self._eval_plan = None

    @classmethod
    def _canonical(cls, input_dim: int, layers) -> "ReluNetwork":
        """A network on ``layers`` that are canonical and checked already."""
        net = cls.__new__(cls)
        net.input_dim, net.layers, net._eval_plan = int(input_dim), tuple(layers), None
        return net

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weights.shape[0]

    @property
    def depth(self) -> int:
        return len(self.layers) - 1     # canonical: ReLU layers, then one linear

    def __call__(self, x):
        """Evaluate on x of shape (d,) or (N, d), in float64.

        Points are evaluated one column each, in tiles of at most
        ``_EVAL_POINTS`` points and ``_EVAL_BUDGET`` bytes per activation, so
        the memory beside the output is fixed for any N and stage, and a
        narrow net's tile stays in L2 cache.  Every tile runs as whole
        panels of ``_PANEL`` columns (``_panels``), padded with zero points,
        so BLAS sums each point in one order whatever call it comes in.  A
        block wider than ``_CHUNK`` columns, which OpenBLAS's small-matrix
        path would sum in another order in small calls, runs as column
        chunks added in order through one scratch buffer per call.
        Layers write alternately into two buffers allocated once per call:
        allocating each activation afresh lets the allocator hand pages back
        and fault them in again per layer.

        Each layer runs as the steps of the evaluation plan, built on the
        first call and cached (``_plan``): one matmul per contiguous
        diagonal block of W, each block with a bias multiplying [W | b] by
        its input rows and a ones row, one fill of the ones rows that the
        next layer reads, and one ReLU.  The input tile's ones rows are set
        once per call.  ``eval_exact`` walks the same plan in exact
        arithmetic.
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        x = np.atleast_2d(x)
        if x.shape[1] != self.input_dim:
            raise ValueError(f"input dim {x.shape[1]} != {self.input_dim}")
        plan = self._plan()
        widest = max(step[0] for step in plan.steps)
        tile = _eval_tile(widest)
        n = _panels(min(tile, x.shape[0]))
        out = np.empty((x.shape[0], self.output_dim))
        bufs = np.empty((2, widest * n))
        scratch = np.empty(plan.chunk_rows * n)
        inputs = np.empty(plan.rows * n)
        for s in range(0, x.shape[0], tile):
            xs = x[s:s + tile]
            m = _panels(len(xs))
            y = inputs[:plan.rows * m].reshape(plan.rows, m)
            if s == 0 or m < tile:  # a shorter last tile moves the ones rows
                y[plan.ones] = 1.0
            y[plan.x_rows, :len(xs)] = xs.T
            y[plan.x_rows, len(xs):] = 0.0
            for i, (rows, mats, ones, relu) in enumerate(plan.steps):
                buf = bufs[i % 2, :rows * m].reshape(rows, m)
                for rs, cs, W, add in mats:
                    part = scratch[:len(W) * m].reshape(len(W), m) if add else buf[rs]
                    np.matmul(W, y[cs], out=part)
                    if add:
                        buf[rs] += part
                if ones.size:
                    buf[ones] = 1.0
                if relu:
                    np.maximum(buf, 0.0, out=buf)
                y = buf
            out[s:s + tile] = y[:self.output_dim, :len(xs)].T
        return out[0] if single else out

    def _plan(self) -> _Plan:
        """The cached evaluation plan of the layers (``_build_plan``)."""
        if self._eval_plan is None:
            self._eval_plan = _build_plan(self.input_dim, self.layers)
        return self._eval_plan

    def eval_scalar_input(self, t):
        """Convenience for 1-input networks: map array t to (N, out)."""
        t = np.atleast_1d(np.asarray(t))
        return self(t[:, None])


def _nonzero_layers(layers, seams=None):
    """``layers`` without the units that are 0 for every input.  Past the
    first layer every input of a layer is a ReLU output, >= 0, so a ReLU
    unit whose weights and bias are all <= 0 sums only terms <= 0 in
    float64, and its ReLU is +-0.  One pass in layer order drops each such
    unit and the weights that read it, so a drop can zero units further on;
    other sums lose only +-0 terms.  A core repeats its stage layers, and
    the rows kept in front of a stage settle after two stages, so each
    (layer, kept columns) pair is cut once.  With ``seams``, the indices of
    the layers where nets already cut were joined, the pass cuts from each
    seam on, up to the first layer that keeps every row."""
    # cols, idx: the rows kept in the layer before, as bytes (the memo key)
    # and as indices; None while it keeps every row
    out, cols, idx, memo = list(layers), None, None, {}
    for k in range(0 if seams is None else min(seams, default=len(layers)), len(layers)):
        l = layers[k]
        if cols is None and seams is not None and k not in seams:
            continue
        key = (id(l), cols, k > 0)
        hit = memo.get(key)
        if hit is None:
            W, b, rows, keep = l.weights, l.bias, None, None
            if idx is not None:
                W = W[:, idx]
            if k and l.activation == "relu":
                # the rows that hold a weight or a bias > 0
                pos = np.maximum(W.max(axis=1, initial=0.0), b) > 0
                if not pos.all():
                    keep = np.flatnonzero(pos)
                    W, b, rows = W[keep], b[keep], keep.tobytes()
            hit = memo[key] = (l if W is l.weights else Layer(W, b, l.activation)), rows, keep
        out[k], cols, idx = hit
    return out


def cut_zeros(net: ReluNetwork, seams=None) -> ReluNetwork:
    """``net`` without its units that are 0 for every input
    (``_nonzero_layers``), cut from its ``seams`` on if given."""
    return ReluNetwork._canonical(net.input_dim, _nonzero_layers(net.layers, seams))


def cut_tail(net: ReluNetwork, outputs) -> ReluNetwork:
    """``net`` restricted to its output rows ``outputs``, without the units
    that they do not read: a row is live when some live row of the next
    layer has a nonzero weight on it, and a dead row adds only exact 0 * y
    terms, so every sum that BLAS adds in index order stays bitwise.  The
    cut stops at the first layer that loses no row; a compiled core's dead
    units all sit behind unread outputs, so it keeps none."""
    layers, rows, out = net.layers, outputs, []
    for k in range(len(layers) - 1, -1, -1):
        l = layers[k]
        W, b = l.weights[rows], l.bias[rows]    # rows: the live rows of layer k
        if k:
            used = W.any(axis=0)
            rows = slice(None) if used.all() else np.flatnonzero(used)
            W = W[:, rows]
        out.append(Layer(W, b, l.activation))
        if isinstance(rows, slice):
            break
    return ReluNetwork._canonical(net.input_dim, [*layers[:k], *out[::-1]])


def _diagonal_blocks(layers):
    """Per layer, the (r0, r1, c0, c1) of contiguous diagonal blocks that
    hold every nonzero of its weights.

    The finest split cuts after row i wherever no later row starts before
    the last column used by rows 0..i.  Neighbouring blocks then merge while
    the merged block holds at most ``_BLOCK_MERGE`` times the entries of the
    finest blocks inside it.  A block of rows with no nonzeros has c1 < c0.
    All layers are split in one pass, as the diagonal blocks of a single
    matrix: a cut always falls between two of them.
    """
    shapes = np.array([l.weights.shape for l in layers])
    roff = np.concatenate(([0], np.cumsum(shapes[:, 0])))
    coff = np.concatenate(([0], np.cumsum(shapes[:, 1])))
    rows, cols = [], []
    for l, r, c in zip(layers, roff.tolist(), coff.tolist()):
        i, j = np.nonzero(l.weights)
        rows.append(i + r)
        cols.append(j + c)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    # a row with no nonzeros starts at its layer's last column and ends at its first
    first = np.repeat(coff[1:], shapes[:, 0])
    end = np.repeat(coff[:-1], shapes[:, 0])
    np.minimum.at(first, rows, cols)
    np.maximum.at(end, rows, cols + 1)
    start = np.minimum.accumulate(first[::-1])[::-1]
    r0s = np.flatnonzero(start[1:] >= np.maximum.accumulate(end)[:-1]) + 1
    r0s = np.concatenate(([0], r0s))
    c0s = np.minimum.reduceat(first, r0s)
    c1s = np.maximum.reduceat(end, r0s)
    r1s = np.append(r0s[1:], roff[-1])
    out = [[] for _ in layers]
    k = np.searchsorted(roff, r0s, side="right") - 1
    for blocks, r0, r1, c0, c1 in zip([out[i] for i in k.tolist()],
                                      (r0s - roff[k]).tolist(), (r1s - roff[k]).tolist(),
                                      (c0s - coff[k]).tolist(), (c1s - coff[k]).tolist()):
        fine = (r1 - r0) * max(c1 - c0, 0)
        if blocks:
            p0, _, q0, q1, pf = blocks[-1]
            m0, m1 = min(q0, c0), max(q1, c1)
            if (r1 - p0) * max(m1 - m0, 0) <= _BLOCK_MERGE * (pf + fine):
                blocks[-1] = (p0, r1, m0, m1, pf + fine)
                continue
        blocks.append((r0, r1, c0, c1, fine))
    return [[blk[:4] for blk in blocks] for blocks in out]


class _Plan(NamedTuple):
    """A float64 evaluation plan.  The input tile has ``rows`` rows: the
    point coordinates at ``x_rows`` and ones rows at ``ones``.  Each layer
    is a step (rows, [(row slice, column slice, W, add)], ones rows, relu),
    where the row slice of a one-row block also takes the step's last row, a
    spare that no later step reads, and ``add`` marks a column chunk that
    adds to the rows its block's earlier chunks wrote; ``chunk_rows`` is the
    most rows of such a chunk, and ``entries`` counts the weights that the
    blocks multiply per point, their bias columns and zero rows aside."""
    rows: int
    x_rows: np.ndarray
    ones: np.ndarray
    steps: tuple
    entries: int
    chunk_rows: int


def _build_plan(input_dim: int, layers) -> _Plan:
    """The evaluation plan of ``layers``, built from the last layer back.

    Every diagonal block with a nonzero bias multiplies [W | b] by its input
    rows followed by a ones row, so the bias is the last term of each sum.
    Each activation therefore holds a ones row right after the column range
    of every such block of the next layer, all set by one fill per layer,
    and a block whose rows straddle a ones row holds a zero row there.  A
    block with no weights multiplies its bias by any ones row.  numpy runs a
    one-row block as a matrix-vector product, which OpenBLAS sums in
    interleaved lanes, so its sums would depend on where exact zeros sit;
    each gets a zero row, written to a spare row at the end of the layer's
    activation, and runs as a matrix product.  A block of more than
    ``_CHUNK`` columns is split into chunks of at most that many, the bias
    column in the last.
    """
    steps, entries, after = [], 0, []
    for l, blocks in zip(layers[::-1], _diagonal_blocks(layers)[::-1]):
        n_out, n_in = l.weights.shape
        fold = [c1 <= c0 or bool(np.any(l.bias[r0:r1])) for r0, r1, c0, c1 in blocks]
        need = sorted({c1 - 1 for (_, _, c0, c1), f in zip(blocks, fold) if f and c1 > c0})
        if not need and any(c1 <= c0 for _, _, c0, c1 in blocks):
            need = [n_in - 1]
        out, out_ones = _layout(n_out, after)
        inp, in_ones = _layout(n_in, need)
        mats, spare, pad = [], n_out + len(after), 0
        for (r0, r1, c0, c1), f in zip(blocks, fold):
            rs = slice(out[r0], out[r1 - 1] + 1)
            if c1 > c0:
                W = l.weights[r0:r1, c0:c1]
                cs = slice(inp[c0], inp[c1 - 1] + 1 + f)
            else:
                W = np.zeros((r1 - r0, 0))
                cs = slice(in_ones[-1], in_ones[-1] + 1)
            entries += W.size
            if f:
                W = np.hstack([W, l.bias[r0:r1, None]])
            if rs.stop - rs.start > r1 - r0:      # zero rows under the ones rows
                M = np.zeros((rs.stop - rs.start, W.shape[1]))
                M[np.array(out[r0:r1]) - rs.start] = W
                W = M
            elif r1 - r0 == 1:
                W = np.vstack([W, np.zeros_like(W)])
                rs, pad = slice(rs.start, spare + 1, spare - rs.start), 1
            for k in range(0, W.shape[1], _CHUNK):
                mats.append((rs, slice(cs.start + k, min(cs.stop, cs.start + k + _CHUNK)),
                             np.ascontiguousarray(W[:, k:k + _CHUNK]), k > 0))
        steps.append((spare + pad, tuple(mats), np.array(out_ones, dtype=int),
                      l.activation == "relu"))
        after = need
    pos, ones = _layout(input_dim, after)
    return _Plan(input_dim + len(after), np.array(pos, dtype=int), np.array(ones, dtype=int),
                 tuple(steps[::-1]), entries,
                 max((W.shape[0] for s in steps for _, _, W, add in s[1] if add), default=0))


def _layout(n: int, after):
    """The buffer positions of n rows with a ones row after each row in the
    sorted list ``after`` (-1: before the first), and those of the ones rows."""
    pos = np.arange(n) + np.searchsorted(after, np.arange(n))
    return pos.tolist(), (np.asarray(after, dtype=int) + 1 + np.arange(len(after))).tolist()


def _dyadic(a: np.ndarray):
    """Integer numerators n, and the s with a = n / 2**s exactly."""
    ratios = [v.as_integer_ratio() for v in a.ravel().tolist()]
    if any(q & (q - 1) for _, q in ratios):
        raise ValueError("eval_exact reads dyadic rationals only")
    s = max((q.bit_length() - 1 for _, q in ratios), default=0)
    return np.array([p << (s + 1 - q.bit_length()) for p, q in ratios],
                    dtype=object).reshape(a.shape), s


def eval_exact(net: ReluNetwork, x) -> np.ndarray:
    """``net`` at x of shape (d,) or (N, d) in exact arithmetic, as
    ``Fraction``s: the float network's own function, with no rounding.

    Float64 weights and biases are dyadic rationals, and so must x be.  Each
    layer carries integer numerators over one power of two, and walks the
    plan's blocks, multiplying their nonzero weights only, with the ones
    rows as exact 1s.
    """
    x = np.asarray(x, dtype=object)
    if x.shape[-1] != net.input_dim:
        raise ValueError(f"input dim {x.shape[-1]} != {net.input_dim}")
    plan = net._plan()
    x0, s = _dyadic(np.atleast_2d(x).T)
    y = np.zeros((plan.rows, x0.shape[1]), dtype=object)
    y[plan.x_rows], y[plan.ones] = x0, 1 << s
    for rows, mats, ones, relu in plan.steps:
        nz = [np.nonzero(W) for _, _, W, _ in mats]
        vals = [W[ij] for (_, _, W, _), ij in zip(mats, nz)]
        nums, a = _dyadic(np.concatenate([np.zeros(0), *vals]))
        nums = np.split(nums, np.cumsum([v.size for v in vals]))
        acc = np.zeros((rows, y.shape[1]), dtype=object)
        for (rs, cs, *_), (i, j), w in zip(mats, nz, nums):
            starts = np.flatnonzero(np.diff(i, prepend=-1))
            acc[rs][i[starts]] += np.add.reduceat(w[:, None] * y[cs][j], starts, axis=0)
        acc[ones] = 1 << (a + s)
        y, s = (np.maximum(acc, 0) if relu else acc), a + s
    out = y[:net.output_dim].T.reshape(x.shape[:-1] + (net.output_dim,))
    return np.frompyfunc(lambda v: Fraction(v, 1 << s), 1, 1)(out)


def identity_net(dim: int) -> ReluNetwork:
    return ReluNetwork._canonical(dim, [Layer(np.eye(dim), np.zeros(dim), "linear")])


def affine_net(W, b) -> ReluNetwork:
    W = np.asarray(W, dtype=float)
    return ReluNetwork(W.shape[1], [Layer(W, np.asarray(b, dtype=float), "linear")])


def serial(*nets) -> ReluNetwork:
    """Feed each network's output into the next.  Only the seams fold: the
    output layer of each net into the first layer of the next."""
    layers, seams = list(nets[0].layers), {}
    for prev, net in zip(nets, nets[1:]):
        if prev.output_dim != net.input_dim:
            raise ValueError("serial dimension mismatch")
        last = layers.pop()
        # a repeated (prev, net) seam folds once, bar a one-layer prev, whose
        # popped layer is the previous seam's fold and not its own
        seam = seams.get((prev, net)) if len(prev.layers) > 1 else None
        if seam is None:
            seam = seams[prev, net] = _fold(last, net.layers[0])
        layers.append(seam)
        layers.extend(net.layers[1:])
    return ReluNetwork._canonical(nets[0].input_dim, layers)


def pre_affine(net: ReluNetwork, W, b) -> ReluNetwork:
    return serial(affine_net(W, b), net)


def post_affine(net: ReluNetwork, W, b) -> ReluNetwork:
    return serial(net, ReluNetwork(net.output_dim, [Layer(W, b, "linear")]))


def passthrough(dim: int, sign: str = "general", depth: int = 1) -> ReluNetwork:
    """A depth-``depth`` network computing the identity.

    "nonneg" uses one channel per coordinate and is exact on x >= 0;
    "general" carries the split pair (ReLU(x), ReLU(-x)).
    """
    if depth == 0:
        return identity_net(dim)
    I = np.eye(dim)
    z = np.zeros(dim)
    if sign == "nonneg":
        layers = [Layer(I, z, "relu") for _ in range(depth)]
        layers.append(Layer(I, z, "linear"))
        return ReluNetwork._canonical(dim, layers)
    if sign != "general":
        raise ValueError("sign must be 'nonneg' or 'general'")
    z2 = np.zeros(2 * dim)
    split = np.vstack([I, -I])
    swap = np.hstack([split, -split])
    layers = [Layer(split, z2, "relu")]
    for _ in range(depth - 1):
        layers.append(Layer(swap, z2, "relu"))
    layers.append(Layer(np.hstack([I, -I]), z, "linear"))
    return ReluNetwork._canonical(dim, layers)


def stack_nets(nets, in_slices, input_dim: int) -> ReluNetwork:
    """Run several networks side by side on (possibly shared) input slices.

    ``in_slices[i]`` lists the indices of the joint input that feed net i.
    Shallower networks are padded at the end with general passthrough
    stages; outputs are concatenated in order.  The joint layers are block
    diagonals of canonical layers, so they are canonical as built.
    """
    nets = list(nets)
    D = max(n.depth for n in nets)
    nets = [n if n.depth == D else
            serial(n, passthrough(n.output_dim, "general", D - n.depth)) for n in nets]
    cols = [np.asarray(sl, dtype=int) for sl in in_slices]  # joint inputs of each net
    layers, d = [], input_dim
    for li in range(D + 1):
        blocks = [n.layers[li] for n in nets]
        rows = list(accumulate((b.weights.shape[0] for b in blocks), initial=0))
        W = np.zeros((rows[-1], d))
        for b, r0, r1, c in zip(blocks, rows, rows[1:], cols):
            W[r0:r1, c] = b.weights
        layers.append(Layer(W, np.concatenate([b.bias for b in blocks]),
                            blocks[0].activation))
        cols = [slice(r0, r1) for r0, r1 in zip(rows, rows[1:])]
        d = rows[-1]
    return ReluNetwork._canonical(input_dim, layers)


def lower_scalar_cpwl(f: ScalarCpwl) -> ReluNetwork:
    """Exact one-hidden-layer realization of a scalar CPwL function: a unit
    ReLU(t - t_i) at each breakpoint where the slope jumps (flat tails on
    both sides).  A constant keeps its empty hidden layer, so it stays
    depth 1."""
    c = np.diff(np.concatenate(([0.0], f.slopes(), [0.0])))
    live = c != 0
    l1 = Layer(np.ones((np.count_nonzero(live), 1)), -f.ts[live], "relu")
    l2 = Layer(c[None, live], np.array([f.left_tail]), "linear")
    return ReluNetwork(1, [l1, l2])


def lower_curve_1d(curve) -> ReluNetwork:
    """Lower a vector CPwL curve of one variable, sharing the input."""
    nets = [lower_scalar_cpwl(c) for c in curve.components]
    return stack_nets(nets, [[0]] * len(nets), 1)


def _sizes(net: ReluNetwork) -> dict:
    return {"width": max(l.weights.shape[0] for l in net.layers), "depth": net.depth,
            "coeff_max": max(float(np.abs(a).max(initial=0.0))
                             for l in net.layers for a in (l.weights, l.bias))}


def net_stats(net: ReluNetwork) -> dict:
    """Sizes of ``net``; ``nnz`` counts its stored nonzero weights, and the
    rest read its float64 evaluation plan: ``eval_entries``
    the weights it multiplies per point (bias columns and zero rows aside),
    ``eval_calls`` the numpy calls a tile makes (matmuls, adds of column
    chunks, fills of the ones rows and ReLUs), and ``eval_buffer_bytes`` the
    most that an evaluation call holds in activation, input and chunk
    buffers, ones rows included, beside its output."""
    plan = net._plan()
    widest = max(step[0] for step in plan.steps)
    return {
        "input_dim": net.input_dim,
        "output_dim": net.output_dim,
        **_sizes(net),
        "layer_count": len(net.layers),
        "nnz": sum(np.count_nonzero(l.weights) for l in net.layers),
        "eval_entries": plan.entries,
        "eval_calls": sum(sum(1 + add for *_, add in mats) + (ones.size > 0) + relu
                          for _, mats, ones, relu in plan.steps),
        "eval_buffer_bytes": (2 * widest + plan.rows + plan.chunk_rows)
                             * _eval_tile(widest) * 8,
    }


def _layer_to_json(l: Layer) -> dict:
    """A layer as its bias and the (row, col, value) triplets of its nonzero
    weights: a -0.0 weight reads back as 0.0, which computes the same."""
    W = l.weights
    rows, cols = np.nonzero(W)
    return {"bias": l.bias.tolist(), "activation": l.activation,
            "weights_coo": {"shape": list(W.shape), "rows": rows.tolist(),
                            "cols": cols.tolist(), "vals": W[rows, cols].tolist()}}


def _layer_from_json(d: dict) -> Layer:
    """A layer from ``_layer_to_json``'s triplets; triplets at one position
    sum."""
    c = d["weights_coo"]
    n, m = (int(k) for k in c["shape"])
    rows, cols = (np.asarray(c[k], dtype=int) for k in ("rows", "cols"))
    vals = np.asarray(c["vals"], dtype=float)
    if not rows.size == cols.size == vals.size:
        raise ValueError("weights_coo rows, cols and vals differ in length")
    if np.any((rows < 0) | (rows >= n) | (cols < 0) | (cols >= m)):
        raise ValueError(f"weights_coo index outside shape {(n, m)}")
    W = np.zeros((n, m))
    np.add.at(W, (rows, cols), vals)
    return Layer(W, np.asarray(d["bias"], dtype=float), d["activation"])


def to_json_dict(net: ReluNetwork, builder: str = "") -> dict:
    return {
        "input_dim": net.input_dim,
        "layers": [_layer_to_json(l) for l in net.layers],
        "meta": {**_sizes(net), "builder": builder},
    }


def from_json_dict(d: dict) -> ReluNetwork:
    return ReluNetwork(int(d["input_dim"]),
                       [_layer_from_json(l) for l in d["layers"]])


def save_network(net: ReluNetwork, path: str, builder: str = ""):
    with open(path, "w") as fh:
        json.dump(to_json_dict(net, builder), fh)


def load_network(path: str) -> ReluNetwork:
    with open(path) as fh:
        return from_json_dict(json.load(fh))
