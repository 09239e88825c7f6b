"""Layered ReLU network IR, combinators and exact CPwL lowering.

Networks are kept in canonical form: zero or more ReLU layers followed by
exactly one linear output layer.  Affine maps fold into neighbouring
layers, so pre/post composition and serial wiring never add depth.
Layers that stack_nets builds wide, and CSR layers read from JSON, store no
zeros.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from scipy import sparse as _sp

from .cpwl import ScalarCpwl

# stack_nets builds a joint layer with at least this many (out x in) entries
# as CSR, since a dense block diagonal grows quadratically with the width
_SPARSE_MIN_SIZE = 250_000
# bytes of activations per layer that one chunk of evaluated points may hold
_EVAL_BUDGET = 16 * 2 ** 20


def _issparse(W) -> bool:
    return _sp.issparse(W)


def _as_weights(W):
    if _issparse(W):
        return W.tocsr()
    return np.asarray(W, dtype=float)


def _matmul(A, B):
    """A @ B for any mix of dense arrays and sparse matrices."""
    if _issparse(A) and _issparse(B):
        return (A @ B).tocsr()
    if _issparse(A):
        return np.asarray(A @ B)
    if _issparse(B):
        return np.asarray((B.T @ A.T).T)
    return A @ B


def _matvec(W, v):
    out = W @ v
    return np.asarray(out).ravel()


@dataclass(frozen=True)
class Layer:
    weights: object      # (out, in) ndarray or scipy CSR
    bias: np.ndarray     # (out,)
    activation: str      # "relu" | "linear"


def _canon(input_dim: int, layers):
    """Fold consecutive linear layers, guarantee a trailing linear layer."""
    out = []
    d = input_dim
    for lay in layers:
        W = _as_weights(lay.weights)
        b = np.asarray(lay.bias, dtype=float).ravel()
        if W.ndim != 2 or W.shape[0] != b.size:
            raise ValueError("bad layer shapes")
        if W.shape[1] != d:
            raise ValueError(f"layer expects input {W.shape[1]}, got {d}")
        if lay.activation not in ("relu", "linear"):
            raise ValueError(f"unknown activation {lay.activation!r}")
        if out and out[-1].activation == "linear":
            prev = out.pop()
            b = b + _matvec(W, prev.bias)
            W = _matmul(W, prev.weights)
        out.append(Layer(W, b, lay.activation))
        d = W.shape[0]
    if not out or out[-1].activation != "linear":
        out.append(Layer(np.eye(d), np.zeros(d), "linear"))
    return tuple(out)


class ReluNetwork:
    """A feed-forward ReLU network in canonical layered form."""

    def __init__(self, input_dim: int, layers=()):
        self.input_dim = int(input_dim)
        self.layers = _canon(self.input_dim, list(layers))

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weights.shape[0]

    @property
    def depth(self) -> int:
        return sum(1 for l in self.layers if l.activation == "relu")

    def __call__(self, x):
        """Evaluate on x of shape (d,) or (N, d).

        Points are evaluated one column each (y = W @ y), in chunks whose
        widest activation stays within ``_EVAL_BUDGET`` bytes, so memory is
        bounded for any N.  Layers write alternately into two buffers
        allocated once per call: allocating each activation afresh lets the
        allocator hand pages back and fault them in again on every layer.
        Input is evaluated in float64, except np.longdouble input, which
        stays in long double.  Long-double layers run as CSR: numpy has no
        BLAS for long double, and lowered loop fields are mostly zeros.
        """
        x = np.asarray(x)
        long = x.dtype == np.longdouble
        if not long:
            x = x.astype(float, copy=False)
        single = x.ndim == 1
        x = np.atleast_2d(x)
        if x.shape[1] != self.input_dim:
            raise ValueError(f"input dim {x.shape[1]} != {self.input_dim}")
        layers = [(_sp.csr_matrix(l.weights) if long and not _issparse(l.weights)
                   else l.weights, l.bias[:, None], l.activation == "relu")
                  for l in self.layers]
        widest = max(l.weights.shape[0] for l in self.layers)
        chunk = max(1, _EVAL_BUDGET // (x.itemsize * widest))
        out = np.empty((x.shape[0], self.output_dim), dtype=x.dtype)
        bufs = np.empty((2, widest * min(chunk, x.shape[0])), dtype=x.dtype)
        for s in range(0, x.shape[0], chunk):
            y = x[s:s + chunk].T
            for i, (W, b, relu) in enumerate(layers):
                buf = bufs[i % 2, :W.shape[0] * y.shape[1]].reshape(W.shape[0], -1)
                if _issparse(W):
                    buf[...] = W @ y
                else:
                    np.matmul(W, y, out=buf)
                buf += b
                if relu:
                    np.maximum(buf, 0.0, out=buf)
                y = buf
            out[s:s + chunk] = y.T
        return out[0] if single else out

    def eval_scalar_input(self, t):
        """Convenience for 1-input networks: map array t to (N, out)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return self(t[:, None])


def identity_net(dim: int) -> ReluNetwork:
    return ReluNetwork(dim, [Layer(np.eye(dim), np.zeros(dim), "linear")])


def affine_net(W, b) -> ReluNetwork:
    W = np.asarray(W, dtype=float)
    return ReluNetwork(W.shape[1], [Layer(W, np.asarray(b, dtype=float), "linear")])


def serial(*nets) -> ReluNetwork:
    """Feed each network's output into the next."""
    nets = list(nets)
    layers = []
    for i, net in enumerate(nets):
        if i and nets[i - 1].output_dim != net.input_dim:
            raise ValueError("serial dimension mismatch")
        layers.extend(net.layers)
    return ReluNetwork(nets[0].input_dim, layers)


def pre_affine(net: ReluNetwork, W, b) -> ReluNetwork:
    return serial(affine_net(W, b), net)


def post_affine(net: ReluNetwork, W, b) -> ReluNetwork:
    W = _as_weights(W)
    return ReluNetwork(net.input_dim,
                       list(net.layers) + [Layer(W, np.asarray(b, dtype=float), "linear")])


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
        return ReluNetwork(dim, layers)
    if sign != "general":
        raise ValueError("sign must be 'nonneg' or 'general'")
    z2 = np.zeros(2 * dim)
    split = np.vstack([I, -I])
    swap = np.block([[I, -I], [-I, I]])
    layers = [Layer(split, z2, "relu")]
    for _ in range(depth - 1):
        layers.append(Layer(swap, z2, "relu"))
    layers.append(Layer(np.hstack([I, -I]), z, "linear"))
    return ReluNetwork(dim, layers)


def extend_depth(net: ReluNetwork, extra: int, sign: str = "general") -> ReluNetwork:
    if extra == 0:
        return net
    return serial(net, passthrough(net.output_dim, sign, extra))


def stack_nets(nets, in_slices, input_dim: int) -> ReluNetwork:
    """Run several networks side by side on (possibly shared) input slices.

    ``in_slices[i]`` lists the indices of the joint input that feed net i.
    Shallower networks are padded at the end with general passthrough
    stages; outputs are concatenated in order.
    """
    nets = list(nets)
    D = max(n.depth for n in nets)
    nets = [extend_depth(n, D - n.depth) for n in nets]
    layers = []
    prev_dims = None  # per-net dimension of previous joint layer
    for li in range(D + 1):
        blocks = [n.layers[li] for n in nets]
        act = blocks[0].activation
        out_dims = [b.weights.shape[0] for b in blocks]
        tot_out = sum(out_dims)
        bias = np.concatenate([b.bias for b in blocks])
        if li == 0:
            use_sparse = tot_out * input_dim >= _SPARSE_MIN_SIZE
            if use_sparse:
                W = _sp.lil_matrix((tot_out, input_dim))
            else:
                W = np.zeros((tot_out, input_dim))
            r = 0
            for b, sl in zip(blocks, in_slices):
                idx = np.asarray(sl, dtype=int)
                Wb = b.weights.toarray() if _issparse(b.weights) else b.weights
                W[r:r + Wb.shape[0], idx] = Wb
                r += Wb.shape[0]
            if use_sparse:
                W = W.tocsr()
        else:
            tot_in = sum(prev_dims)
            if tot_out * tot_in >= _SPARSE_MIN_SIZE:
                W = _sp.block_diag([_sp.csr_matrix(b.weights) for b in blocks],
                                   format="csr")
            else:
                W = np.zeros((tot_out, tot_in))
                r = c = 0
                for b, pd in zip(blocks, prev_dims):
                    Wb = b.weights.toarray() if _issparse(b.weights) else b.weights
                    W[r:r + Wb.shape[0], c:c + pd] = Wb
                    r += Wb.shape[0]
                    c += pd
        layers.append(Layer(W, bias, act))
        prev_dims = out_dims
    return ReluNetwork(input_dim, layers)


def lower_scalar_cpwl(f: ScalarCpwl) -> ReluNetwork:
    """Exact one-hidden-layer realization of a scalar CPwL function."""
    k = f.ts.size
    s = f.slopes()
    # slope jump at each breakpoint (flat tails on both sides)
    c = np.zeros(k)
    prev = 0.0
    for i in range(k):
        cur = s[i] if i < k - 1 else 0.0
        c[i] = cur - prev
        prev = cur
    l1 = Layer(np.ones((k, 1)), -f.ts, "relu")
    l2 = Layer(c[None, :], np.array([f.left_tail]), "linear")
    return ReluNetwork(1, [l1, l2])


def lower_curve_1d(curve) -> ReluNetwork:
    """Lower a vector CPwL curve of one variable, sharing the input."""
    nets = [lower_scalar_cpwl(c) for c in curve.components]
    return stack_nets(nets, [[0]] * len(nets), 1)


def _abs_max(W) -> float:
    if _issparse(W):
        return float(np.max(np.abs(W.data))) if W.nnz else 0.0
    return float(np.max(np.abs(W))) if W.size else 0.0


def net_stats(net: ReluNetwork) -> dict:
    width = max(l.weights.shape[0] for l in net.layers)
    coeff = max(max(_abs_max(l.weights), _abs_max(l.bias)) for l in net.layers)
    return {
        "input_dim": net.input_dim,
        "output_dim": net.output_dim,
        "width": int(width),
        "depth": int(net.depth),
        "layer_count": len(net.layers),
        "coeff_max": float(coeff),
    }


def _layer_to_json(l: Layer) -> dict:
    d = {"bias": l.bias.tolist(), "activation": l.activation}
    if _issparse(l.weights):
        coo = l.weights.tocoo()
        d["weights_coo"] = {
            "shape": list(coo.shape),
            "rows": coo.row.tolist(),
            "cols": coo.col.tolist(),
            "vals": coo.data.tolist(),
        }
    else:
        d["weights"] = l.weights.tolist()
    return d


def _layer_from_json(d: dict) -> Layer:
    if "weights_coo" in d:
        c = d["weights_coo"]
        W = _sp.coo_matrix((c["vals"], (c["rows"], c["cols"])),
                           shape=tuple(c["shape"])).tocsr()
        W.eliminate_zeros()    # files written by older versions store zeros
    else:
        W = np.asarray(d["weights"], dtype=float)
    return Layer(W, np.asarray(d["bias"], dtype=float), d["activation"])


def to_json_dict(net: ReluNetwork, builder: str = "") -> dict:
    stats = net_stats(net)
    return {
        "input_dim": net.input_dim,
        "layers": [_layer_to_json(l) for l in net.layers],
        "meta": {
            "width": stats["width"],
            "depth": stats["depth"],
            "coeff_max": stats["coeff_max"],
            "builder": builder,
        },
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
