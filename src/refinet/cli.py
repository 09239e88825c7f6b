"""Command-line interface: build / verify / render / sample / stats.

Exit codes: 0 success, 1 verification failure, 2 parse error,
3 precondition violation.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import gallery
from .cpwl import (RHO, CpwlCurve, ScalarCpwl, SupportError, constant, hat,
                   zero_curve)
from .compiler import compile_homogeneous
from .loop import LoopConfig
from .network import save_network
from .reductions import (anchor_power0, compile_affine, compile_anchored,
                         iterate_w, stack_curves, stack_system)
from .refinement import RefinementOp, apply_v_n

PARSE_ERROR = 2
PRECONDITION_ERROR = 3


def parse_operator_spec(d: dict):
    """Operator JSON: {"M","p","L","mask":[{"j","A"}],"forcing"?}.

    Returns (op, forcing): ``forcing`` is None, or the function r -> B_r of
    the listed curves, the last of which repeats for later stages.
    """
    try:
        M, p, L = int(d["M"]), int(d["p"]), int(d["L"])
        mask = {int(e["j"]): np.asarray(e["A"], dtype=float) for e in d["mask"]}
        curves = []
        for entry in d.get("forcing", []):
            pts = np.asarray(entry["curve"], dtype=float)
            comps = tuple(ScalarCpwl(pts[:, 0], pts[:, 1 + i]) for i in range(p))
            curves.append(CpwlCurve(comps, L))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise SpecParseError(f"malformed operator spec: {exc}") from exc
    op = RefinementOp(M, p, L, mask)
    if not curves:
        return op, None
    return op, lambda r: curves[min(r, len(curves) - 1)]


class SpecParseError(ValueError):
    pass


class ModeError(ValueError):
    """A --mode that the chosen source does not honour."""


def _default_gamma(op: RefinementOp) -> CpwlCurve:
    """Single special hat in the first coordinate on the first cell."""
    comps = [hat(RHO, 0.5, 1 - RHO)]
    comps += [constant(0.0) for _ in range(op.p - 1)]
    return CpwlCurve(tuple(comps), op.L)


def _spec_forcing(forcing):
    if forcing is None:
        raise SupportError("affine mode needs a forcing entry in the spec")
    return forcing


def _connector_compile(op, inst, n):
    eta = zero_curve(op.p, op.L)
    ci = compile_affine(op, *anchor_power0(eta, inst.forcing_schedule(), n,
                                           inst.anchor(n)), n)
    return replace(ci, builder="stage-anchored")


def _stacked_anchor(sysm):
    return stack_curves([gallery.straight_anchor((0, 0), (1, 0))] * sysm.r)


_HOMOGENEOUS = (lambda op, src, n: compile_homogeneous(op, _default_gamma(op), n),
                lambda op, src, n: apply_v_n(op, _default_gamma(op), n))

# source kind -> {mode: (compile, oracle)}, called as f(op, src, n), default first
MODES = {
    "spec": {
        "homogeneous": _HOMOGENEOUS,
        "affine": (
            lambda op, forcing, n: compile_affine(
                op, zero_curve(op.p, op.L), _spec_forcing(forcing), n),
            lambda op, forcing, n: iterate_w(
                op, zero_curve(op.p, op.L), _spec_forcing(forcing), n)),
    },
    "polygonal": {
        "anchored": (
            lambda op, inst, n: compile_anchored(op, None, inst.anchor(), None, n),
            lambda op, inst, n: gallery.polygonal_oracle(inst, n)),
        "homogeneous": _HOMOGENEOUS,
    },
    "connector": {
        "anchored": (_connector_compile, lambda op, inst, n: inst.oracle(n)),
    },
    "finite-state": {
        "anchored": (
            lambda op, sysm, n: compile_anchored(op, None, _stacked_anchor(sysm),
                                                 None, n),
            lambda op, sysm, n: stack_curves(gallery.gosper_oracle(n))),
    },
}


def _source(args):
    """(kind, op, src): the operator of --spec or --example, and what its
    modes read besides (the spec's forcing, or the instance)."""
    if args.spec:
        with open(args.spec) as fh:
            op, forcing = parse_operator_spec(json.load(fh))
        return "spec", op, forcing
    inst = gallery.get_instance(args.example)
    if isinstance(inst, gallery.PolygonalInstance):
        return "polygonal", inst.op(), inst
    if isinstance(inst, gallery.ConnectorInstance):
        return "connector", inst.op(), inst
    return "finite-state", stack_system(inst), inst


def _build(args):
    """Compile the requested stage; returns (CompiledIterate, oracle, op)."""
    kind, op, src = _source(args)
    modes = MODES[kind]
    mode = args.mode or next(iter(modes))
    if mode not in modes:
        raise ModeError(f"a {kind} source honours --mode {' or '.join(modes)}, "
                        f"not {mode!r}")
    compile_, oracle = modes[mode]
    # the oracle first: a stage past its breakpoint cap is refused uncompiled
    want = oracle(op, src, args.stage)
    return compile_(op, src, args.stage), want, op


def _verify_grid(op_M: int, n: int, L: int, g: int):
    cfg = LoopConfig(op_M, max(n, 1))
    ts = np.linspace(-0.5, L + 0.5, g)
    breaks = np.arange(op_M ** n * L + 1) / op_M ** n
    d = cfg.delta_n
    extra = np.concatenate([breaks + d / 2, breaks - d / 2])
    return np.sort(np.concatenate([ts, breaks, extra]))


def cmd_build(args):
    ci, _, _ = _build(args)
    out = args.out or "network.json"
    save_network(ci.net, out, builder=ci.builder)
    s = ci.stats
    print(f"built stage {args.stage} ({ci.builder}): depth={s['depth']} "
          f"width={s['width']} coeff_max={s['coeff_max']:.6g} -> {out}")
    return 0


def cmd_verify(args):
    ci, oracle, op = _build(args)
    ts = _verify_grid(op.M, args.stage, op.L, args.grid)
    got = ci(ts)
    want = np.atleast_2d(oracle(ts).reshape(len(ts), op.p))
    err = float(np.max(np.abs(got - want)))
    ok = err <= args.tol
    report = {"stage": args.stage, "points": len(ts), "max_abs_error": err,
              "tol": args.tol, "pass": bool(ok)}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh)
    print(f"verify stage {args.stage}: max|err|={err:.3e} tol={args.tol:.1e} "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _curve_points(args):
    """Samples on [0, L] of the requested stage curve via the chosen backend."""
    ci, oracle, op = _build(args)
    res = max(args.grid, 4 * op.M ** args.stage * op.L + 1)
    ts = np.linspace(0.0, op.L, res)
    if args.backend == "network":
        return ts, np.asarray(ci(ts))
    return ts, oracle(ts).reshape(res, op.p)


def cmd_render(args):
    ts, pts = _curve_points(args)
    if pts.shape[1] == 1:
        # the graph over [0, L], scaled to the unit box's width
        xy = np.column_stack([ts / ts[-1], pts[:, 0]])
    else:
        xy = pts[:, :2]
    out = args.out or f"{args.example or 'curve'}_{args.stage}.svg"
    write_svg(xy, out)
    print(f"rendered {xy.shape[0]} points -> {out}")
    return 0


def write_svg(xy: np.ndarray, path: str):
    """Single polyline (y up) in a square viewBox with a 5% margin around it."""
    pts = " ".join(f"{x:.8f},{1 - y:.8f}" for x, y in xy)
    lo, hi = xy.min(axis=0), xy.max(axis=0)
    side = 1.1 * (float(np.max(hi - lo)) or 1.0)
    x0, y0 = (lo[0] + hi[0] - side) / 2, 1 - (lo[1] + hi[1] + side) / 2
    body = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0:.8f} {y0:.8f} {side:.8f} {side:.8f}">\n'
        f'<polyline fill="none" stroke="black" stroke-width="{side / 550:.8g}" '
        f'points="{pts}"/>\n</svg>\n')
    with open(path, "w") as fh:
        fh.write(body)


def cmd_sample(args):
    ts, pts = _curve_points(args)
    out = args.out or "samples.csv"
    with open(out, "w") as fh:
        cols = ["t"] + [f"y{i}" for i in range(pts.shape[1])]
        fh.write(",".join(cols) + "\n")
        for t, row in zip(ts, pts):
            fh.write(",".join(f"{v:.17g}" for v in [t, *row]) + "\n")
    print(f"wrote {len(ts)} samples -> {out}")
    return 0


def cmd_stats(args):
    if args.stage < 1:
        raise ValueError(f"stats needs --stage >= 1, not {args.stage}")
    rows = []
    for n in range(1, args.stage + 1):
        a2 = argparse.Namespace(**vars(args))
        a2.stage = n
        ci, _, _ = _build(a2)
        s = ci.stats
        rows.append((n, s["depth"], s["width"], s["nnz"], s["eval_entries"],
                     s["eval_calls"], s["coeff_max"]))
    print(f"{'n':>3} {'depth':>6} {'d1':>5} {'d2':>5} {'width':>7} {'nnz':>9} "
          f"{'eval_entries':>12} {'eval_calls':>10} {'coeff_max':>12}")
    for i, (n, d, w, nnz, ee, ec, c) in enumerate(rows):
        d1 = d - rows[i - 1][1] if i >= 1 else 0
        d2 = d1 - (rows[i - 1][1] - rows[i - 2][1]) if i >= 2 else 0
        print(f"{n:>3} {d:>6} {d1:>5} {d2:>5} {w:>7} {nnz:>9} {ee:>12} {ec:>10} {c:>12.5g}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(prog="refinet",
                                 description="Compile refinement recursions "
                                             "on CPwL curves to exact ReLU networks.")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, fn in [("build", cmd_build), ("verify", cmd_verify),
                     ("render", cmd_render), ("sample", cmd_sample),
                     ("stats", cmd_stats)]:
        sp = sub.add_parser(name)
        sp.add_argument("--spec", help="operator spec JSON file")
        sp.add_argument("--example", help="named gallery instance")
        sp.add_argument("--stage", type=int, default=2)
        sp.add_argument("--mode", choices=["homogeneous", "affine", "anchored"])
        sp.add_argument("--grid", type=int, default=1000)
        sp.add_argument("--tol", type=float, default=1e-6)
        sp.add_argument("--out")
        sp.add_argument("--backend", default="oracle",
                        choices=["oracle", "network"])
        sp.set_defaults(fn=fn)
    args = ap.parse_args(argv)
    if not args.spec and not args.example:
        ap.error("need --spec or --example")
    try:
        return args.fn(args)
    except (SpecParseError, ModeError, KeyError, json.JSONDecodeError,
            FileNotFoundError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except (SupportError, ValueError) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return PRECONDITION_ERROR


if __name__ == "__main__":
    sys.exit(main())
