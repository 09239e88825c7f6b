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
from .cpwl import CpwlCurve, ScalarCpwl, SupportError, hat, zero_curve
from .compiler import compile_homogeneous
from .loop import LoopConfig
from .network import save_network
from .reductions import (ForcingSchedule, anchor_power0, compile_affine,
                         compile_anchored, iterate_w, stack_curves,
                         stack_system)
from .refinement import RefinementOp, apply_v_n

PARSE_ERROR = 2
PRECONDITION_ERROR = 3


def parse_operator_spec(d: dict):
    """Operator JSON: {"M","p","L","mask":[{"j","A"}],"forcing"?,"states"?}."""
    try:
        M, p, L = int(d["M"]), int(d["p"]), int(d["L"])
        mask = {int(e["j"]): np.asarray(e["A"], dtype=float) for e in d["mask"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecParseError(f"malformed operator spec: {exc}") from exc
    op = RefinementOp(M, p, L, mask)
    forcing = None
    if "forcing" in d:
        curves = []
        for entry in d["forcing"]:
            pts = np.asarray(entry["curve"], dtype=float)
            comps = tuple(ScalarCpwl(pts[:, 0], pts[:, 1 + i]) for i in range(p))
            curves.append(CpwlCurve(comps, L))
        forcing = ForcingSchedule(curves=tuple(curves))
    return op, forcing


class SpecParseError(ValueError):
    pass


def _default_gamma(op: RefinementOp, rho: float = 0.25) -> CpwlCurve:
    """Single special hat in the first coordinate on the first cell."""
    comps = [hat(rho, 0.5, 1 - rho)]
    from .cpwl import constant
    comps += [constant(0.0) for _ in range(op.p - 1)]
    return CpwlCurve(tuple(comps), op.L)


def _build(args):
    """Compile the requested stage; returns (CompiledIterate, oracle, op)."""
    n = args.stage
    mode = args.mode
    if args.spec:
        with open(args.spec) as fh:
            d = json.load(fh)
        op, forcing = parse_operator_spec(d)
        if mode == "homogeneous":
            gamma = _default_gamma(op)
            ci = compile_homogeneous(op, gamma, n)
            oracle = apply_v_n(op, gamma, n)
            return ci, oracle, op
        if mode == "affine":
            if forcing is None:
                raise SupportError("affine mode needs a forcing entry in the spec")
            sched = ForcingSchedule(curves=tuple(
                forcing.curves[min(r, len(forcing.curves) - 1)] for r in range(max(n, 1))))
            gamma = zero_curve(op.p, op.L)
            ci = compile_affine(op, gamma, sched, n)
            oracle = iterate_w(op, gamma, sched, n)
            return ci, oracle, op
        raise SupportError(f"mode {mode!r} needs a named example")
    inst = gallery.get_instance(args.example)
    if isinstance(inst, gallery.PolygonalInstance):
        op = inst.op()
        Gamma = inst.anchor()
        if mode == "homogeneous":
            gamma = _default_gamma(op)
            ci = compile_homogeneous(op, gamma, n)
            oracle = apply_v_n(op, gamma, n)
            return ci, oracle, op
        ci = compile_anchored(op, None, Gamma, None, n)
        oracle = gallery.polygonal_oracle(inst, n)
        return ci, oracle, op
    if isinstance(inst, gallery.ConnectorInstance):
        op = inst.op()
        eta, sched = anchor_power0(zero_curve(op.p, op.L), inst.forcing_schedule(),
                                   n, inst.anchor(n))
        ci = replace(compile_affine(op, eta, sched, n), builder="stage-anchored")
        oracle = inst.oracle(n)
        return ci, oracle, op
    # finite-state system: stacked anchored compile
    sysm = inst
    op, _ = stack_system(sysm)
    Gamma = stack_curves([gallery.straight_anchor((0, 0), (1, 0))
                          for _ in range(sysm.r)])
    ci = compile_anchored(op, None, Gamma, None, n)
    oracle = stack_curves(gallery.gosper_oracle(n))
    return ci, oracle, op


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
    """Sample points of the requested stage curve via the chosen backend."""
    ci, oracle, op = _build(args)
    res = max(args.grid, 4 * op.M ** args.stage + 1)
    ts = np.linspace(0.0, 1.0, res)
    if args.backend == "network":
        return ts, np.asarray(ci(ts))
    return ts, oracle(ts).reshape(res, op.p)


def cmd_render(args):
    ts, pts = _curve_points(args)
    if pts.shape[1] == 1:
        xy = np.column_stack([ts, pts[:, 0]])
    else:
        xy = pts[:, :2]
    out = args.out or f"{args.example or 'curve'}_{args.stage}.svg"
    write_svg(xy, out)
    print(f"rendered {xy.shape[0]} points -> {out}")
    return 0


def write_svg(xy: np.ndarray, path: str):
    """Single polyline in a unit viewBox with a 5% margin (y up)."""
    pts = " ".join(f"{x:.8f},{1 - y:.8f}" for x, y in xy)
    body = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        'viewBox="-0.05 -0.05 1.1 1.1">\n'
        f'<polyline fill="none" stroke="black" stroke-width="0.002" '
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
    rows = []
    for n in range(1, args.stage + 1):
        a2 = argparse.Namespace(**vars(args))
        a2.stage = n
        ci, _, _ = _build(a2)
        s = ci.stats
        rows.append((n, s["depth"], s["width"], s["coeff_max"]))
    print(f"{'n':>3} {'depth':>6} {'d1':>5} {'d2':>5} {'width':>7} {'coeff_max':>12}")
    for i, (n, d, w, c) in enumerate(rows):
        d1 = d - rows[i - 1][1] if i >= 1 else 0
        d2 = d1 - (rows[i - 1][1] - rows[i - 2][1]) if i >= 2 else 0
        print(f"{n:>3} {d:>6} {d1:>5} {d2:>5} {w:>7} {c:>12.5g}")
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
        sp.add_argument("--example", help="named gallery instance",
                        choices=None)
        sp.add_argument("--stage", type=int, default=2)
        sp.add_argument("--mode", default="anchored",
                        choices=["homogeneous", "affine", "anchored"])
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
    except (SpecParseError, KeyError, json.JSONDecodeError, FileNotFoundError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except (SupportError, ValueError) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return PRECONDITION_ERROR


if __name__ == "__main__":
    sys.exit(main())
