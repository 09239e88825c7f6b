"""What a change moved: compare the compiled nets and outputs of two trees.

    python tools/audit.py TREE_A TREE_B

Each tree is a checkout of this repository (``git archive REV | tar -x -C
DIR`` makes one).  Each is imported in a process of its own, from its own
``src/``, and builds one fixed manifest:

* the three benchmark nets: scalar-deep (M=2 hat, n=16), koch anchored
  n=3 and heighway anchored n=8;
* the CLI sweep: the ten gallery examples in each mode their source
  honours, at stages 0-3, built as ``refinet verify`` builds them.

Per artifact it prints whether every layer hashes (sha256) the same,
whether the outputs on the verify grid (``--grid 1000``) are bitwise equal
and else their max|Δ|, each side's max|err| against its oracle, and each
side's depth, width, nnz, ``eval_entries`` and ``coeff_max``.  A summary
line follows, with the counts summed and ``coeff_max`` the largest.
Only the standard library and numpy are used.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

EXAMPLES = ["koch", "levy", "heighway", "hilbert_type", "hilbert", "gosper",
            "morton2", "morton3", "hilbert_rp2", "hilbert_rp3"]
STAGES = range(4)
GRID = 1000
STATS = ("depth", "width", "nnz", "eval_entries")   # counts, summed in the totals


def _layer_hash(layer) -> str:
    h = hashlib.sha256()
    h.update(f"{layer.activation}{layer.weights.shape}".encode())
    h.update(np.ascontiguousarray(layer.weights).tobytes())
    h.update(np.ascontiguousarray(layer.bias).tobytes())
    return h.hexdigest()


def _manifest():
    """(name, build) for every artifact; build() -> (CompiledIterate,
    oracle curve, operator, stage)."""
    from refinet import cli, gallery
    from refinet.compiler import compile_homogeneous
    from refinet.cpwl import CpwlCurve, hat
    from refinet.reductions import compile_anchored
    from refinet.refinement import RefinementOp, apply_v_n

    def scalar_deep():
        op = RefinementOp(2, 1, 1, {0: [[1.0]], 1: [[1.0]]})
        gamma = CpwlCurve((hat(0.25, 0.5, 0.75),), 1)
        return compile_homogeneous(op, gamma, 16), apply_v_n(op, gamma, 16), op, 16

    def anchored(name, n):
        inst = getattr(gallery, name)()
        op = inst.op()
        return (compile_anchored(op, None, inst.anchor(), None, n),
                gallery.polygonal_oracle(inst, n), op, n)

    def sweep(example, mode, n):
        ci, want, op = cli._build(argparse.Namespace(spec=None, example=example,
                                                     mode=mode, stage=n))
        return ci, want, op, n

    out = [("bench/scalar-deep", scalar_deep),
           ("bench/koch-anchored", lambda: anchored("koch", 3)),
           ("bench/heighway-anchored", lambda: anchored("heighway", 8))]
    for example in EXAMPLES:
        kind = cli._source(argparse.Namespace(spec=None, example=example))[0]
        for mode in sorted(cli.MODES[kind]):
            for n in STAGES:
                out.append((f"cli/{example}/{mode}/{n}",
                            lambda e=example, m=mode, n=n: sweep(e, m, n)))
    return out


def collect(tree: Path, dest: Path):
    """Build the manifest with the refinet of ``tree``; write its records to
    ``dest``/records.json and the grid outputs to ``dest``/outputs.npz."""
    sys.path.insert(0, str(tree / "src"))
    import refinet
    from refinet import cli
    from refinet.network import net_stats
    if not Path(refinet.__file__).resolve().is_relative_to((tree / "src").resolve()):
        raise SystemExit(f"imported refinet from {refinet.__file__}, not {tree}")
    records, outputs = [], {}
    for i, (name, build) in enumerate(_manifest()):
        ci, want, op, n = build()
        ts = cli._verify_grid(op.M, n, op.L, GRID)
        got = np.asarray(ci(ts))
        err = float(np.max(np.abs(got - want(ts).reshape(len(ts), op.p))))
        stats = net_stats(ci.net)
        records.append({"name": name, "layers": [_layer_hash(l) for l in ci.net.layers],
                        "err": err, **{k: int(stats[k]) for k in STATS},
                        "coeff_max": float(stats["coeff_max"])})
        outputs[f"a{i}"] = got
    (dest / "records.json").write_text(json.dumps(records))
    np.savez(dest / "outputs.npz", **outputs)


def _run(tree: Path, dest: Path):
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    subprocess.run([sys.executable, __file__, "--collect", str(tree), str(dest)],
                   env=env, check=True)
    records = json.loads((dest / "records.json").read_text())
    with np.load(dest / "outputs.npz") as z:
        return records, [z[f"a{i}"] for i in range(len(records))]


def _moved(a, b) -> str:
    a, b = (f"{v:.8g}" if isinstance(v, float) else str(v) for v in (a, b))
    return a if a == b else f"{a}->{b}"


def compare(tree_a: Path, tree_b: Path) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        da, db = Path(tmp, "a"), Path(tmp, "b")
        da.mkdir()
        db.mkdir()
        ra, oa = _run(tree_a, da)
        rb, ob = _run(tree_b, db)
    if [r["name"] for r in ra] != [r["name"] for r in rb]:
        raise SystemExit("the two trees built different manifests: "
                         f"{sorted({r['name'] for r in ra} ^ {r['name'] for r in rb})}")
    same_layers = same_out = 0
    max_delta, worst = 0.0, (0.0, "")
    totals = {k: [0, 0] for k in STATS}
    print(f"{'artifact':<34} {'layers':<8} {'outputs':<15} {'err A':>9} {'err B':>9}  "
          + " ".join(STATS) + " coeff_max")
    for a, b, ya, yb in zip(ra, rb, oa, ob):
        layers = a["layers"] == b["layers"]
        bitwise = ya.shape == yb.shape and ya.tobytes() == yb.tobytes()
        if bitwise:
            out = "bitwise"
        elif ya.shape == yb.shape:
            d = float(np.max(np.abs(ya - yb)))
            max_delta = max(max_delta, d)
            out = f"|d|={d:.1e}"
        else:
            out = "shape differs"
        same_layers += layers
        same_out += bitwise
        ratio = b["err"] / a["err"] if a["err"] > 0 else (1.0 if b["err"] == 0 else np.inf)
        worst = max(worst, (ratio, a["name"]))
        for k in STATS:
            totals[k][0] += a[k]
            totals[k][1] += b[k]
        print(f"{a['name']:<34} {'equal' if layers else 'differ':<8} {out:<15} "
              f"{a['err']:>9.2e} {b['err']:>9.2e}  "
              + " ".join(_moved(a[k], b[k]) for k in STATS + ("coeff_max",)))
    print(f"summary: {len(ra)} artifacts, {same_layers} with equal layers, {same_out} with "
          f"bitwise outputs, max|d|={max_delta:.2e}, worst err ratio B/A "
          f"{worst[0]:.3g} ({worst[1]}), max err A={max(r['err'] for r in ra):.2e} "
          f"B={max(r['err'] for r in rb):.2e}, totals "
          + " ".join(f"{k}={_moved(*totals[k])}" for k in STATS)
          + f" coeff_max={_moved(*(max(r['coeff_max'] for r in rs) for rs in (ra, rb)))}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--collect", nargs=2, metavar=("TREE", "DIR"), help=argparse.SUPPRESS)
    ap.add_argument("trees", nargs="*", metavar="TREE")
    args = ap.parse_args(argv)
    if args.collect:
        collect(Path(args.collect[0]), Path(args.collect[1]))
        return 0
    if len(args.trees) != 2:
        ap.error("give two trees: TREE_A TREE_B")
    return compare(*(Path(t).resolve() for t in args.trees))


if __name__ == "__main__":
    sys.exit(main())
