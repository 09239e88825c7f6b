"""Spans around calls into refinet's public functions, and the per-layer
metrics computed from them.

The tracer wraps functions from outside the package: each listed function
is rebound in every ``refinet.*`` namespace that holds it, because
``from .x import f`` copies the name. A span records its name, start, end
and parent; spans stay in memory until the run writes them out. A listed
name that the program no longer has is reported as absent, and the
metrics that need it read 0.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time

PACKAGE = "refinet"

# module -> public names whose calls become spans ("Class.method" wraps a method)
PUBLIC = {
    "cpwl": ["decompose_atomic", "CpwlCurve.__call__"],
    "refinement": ["apply_v_n", "cascade_eval"],
    "network": ["stack_nets", "serial", "pre_affine", "post_affine",
                "passthrough", "ReluNetwork.__call__"],
    "planar": ["lower_planar_field"],
    "loop": ["build_controller_field", "readout_fields", "selector_fields"],
    "compiler": ["loop_assets", "atomic_core_net", "glue_blocks",
                 "compile_homogeneous"],
    "reductions": ["compile_affine", "compile_anchored"],
    "gallery": ["polygonal_oracle"],
}


def _net_shape(net):
    return {"width": max(l.weights.shape[0] for l in net.layers), "depth": net.depth}


def _info(*keys):
    return lambda ci: {k: ci.info.get(k, 0) for k in keys}


# span name -> summary of the returned value kept on the span
RESULT_INFO = {
    "planar.lower_planar_field": _net_shape,
    "compiler.compile_homogeneous": _info("groups", "terms"),
    "reductions.compile_affine": _info("jobs"),
}

# The benchmark's own phase spans; every program span nests under one.
COMPILE, BATCH, VERIFY, CASCADE = ("bench.compile", "bench.batch",
                                   "bench.verify", "bench.cascade")


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index, result info]
        self.absent = []    # listed public names the program does not have
        self._stack = []

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _exit(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def phase(self, name):
        """One of the benchmark's phase spans."""
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def _wrap(self, fn, name):
        summarise = RESULT_INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if summarise is not None:
                self.spans[idx][4] = summarise(out)
            return out

        return traced

    def install(self):
        """Wrap every listed public function; record the missing ones."""
        for modname, names in PUBLIC.items():
            try:
                mod = importlib.import_module(f"{PACKAGE}.{modname}")
            except ImportError:
                self.absent.extend(f"{modname}.{n}" for n in names)
                continue
            for name in names:
                span = f"{modname}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name, None)
                    fn = vars(cls).get(meth) if isinstance(cls, type) else None
                    if fn is None:
                        self.absent.append(span)
                    else:
                        setattr(cls, meth, self._wrap(fn, span))
                    continue
                fn = getattr(mod, name, None)
                if not callable(fn):
                    self.absent.append(span)
                    continue
                wrapped = self._wrap(fn, span)
                for m in program_modules():
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, wrapped)

    def analyse(self):
        """Per span: self time, phase root, and whether compile_affine encloses it."""
        n = len(self.spans)
        child = [0.0] * n
        root = [0] * n
        in_affine = [False] * n
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent is None:
                root[i] = i
                continue
            child[parent] += end - start
            root[i] = root[parent]
            in_affine[i] = (in_affine[parent]
                            or self.spans[parent][0] == "reductions.compile_affine")
        return [dict(name=s[0], dur=s[2] - s[1], self=s[2] - s[1] - child[i],
                     root=root[i], in_affine=in_affine[i], info=s[4] or {})
                for i, s in enumerate(self.spans)]


def by_name(spans):
    """Calls, total and self time per span name over the whole run."""
    out = {}
    for s in spans:
        e = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        e["calls"] += 1
        e["total_s"] += s["dur"]
        e["self_s"] += s["self"]
    return out


def program_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def clear_caches():
    """Empty every functools cache in the program, through any wrappers,
    so that a compile starts cold as in a fresh CLI process."""
    for m in program_modules():
        for val in list(vars(m).values()):
            while val is not None:
                if hasattr(val, "cache_clear"):
                    val.cache_clear()
                    break
                val = getattr(val, "__wrapped__", None)


def _per_rep(spans, phase, reduce):
    """Median over the phase's spans of ``reduce(spans nested under it)``."""
    groups = {}
    for i, s in enumerate(spans):
        if s["root"] == i and s["name"] == phase:
            groups[i] = []
    for s in spans:
        if s["root"] in groups and s["name"] != phase:
            groups[s["root"]].append(s)
    values = [reduce(g) for g in groups.values()]
    return statistics.median(values) if values else 0.0


def _self(*names):
    return lambda g: sum(s["self"] for s in g if s["name"] in names)


def _count(*names):
    return lambda g: sum(1 for s in g if s["name"] in names)


def _sum_info(name, key):
    return lambda g: sum(s["info"].get(key, 0) for s in g if s["name"] == name)


EVAL = "network.ReluNetwork.__call__"

# Per-layer metrics measured from spans: name -> (phase, per-phase reduction)
SPAN_METRICS = {
    "network.stack_nets_s": (COMPILE, _self("network.stack_nets")),
    "network.compose_s": (COMPILE, _self("network.serial", "network.pre_affine",
                                         "network.post_affine", "network.passthrough")),
    "network.eval_compile_s": (COMPILE, _self(EVAL)),
    "network.eval_batch_s": (BATCH, _self(EVAL)),
    "network.eval_verify_s": (VERIFY, _self(EVAL)),
    "planar.lower_s": (COMPILE, _self("planar.lower_planar_field")),
    "planar.calls": (COMPILE, _count("planar.lower_planar_field")),
    "planar.units": (COMPILE, _sum_info("planar.lower_planar_field", "width")),
    "planar.max_depth": (COMPILE, lambda g: max(
        [s["info"].get("depth", 0) for s in g if s["name"] == "planar.lower_planar_field"],
        default=0)),
    "loop.fields_s": (COMPILE, _self("loop.build_controller_field",
                                     "loop.readout_fields", "loop.selector_fields")),
    "compiler.loop_assets_s": (COMPILE, _self("compiler.loop_assets")),
    "compiler.loop_assets_calls": (COMPILE, _count("compiler.loop_assets")),
    "compiler.core_s": (COMPILE, _self("compiler.atomic_core_net")),
    "compiler.glue_s": (COMPILE, _self("compiler.glue_blocks")),
    "compiler.homogeneous_s": (COMPILE, _self("compiler.compile_homogeneous")),
    "compiler.groups": (COMPILE, _sum_info("compiler.compile_homogeneous", "groups")),
    "compiler.terms": (COMPILE, _sum_info("compiler.compile_homogeneous", "terms")),
    "reductions.affine_s": (COMPILE, _self("reductions.compile_affine")),
    "reductions.anchored_s": (COMPILE, _self("reductions.compile_anchored")),
    "reductions.jobs": (COMPILE, _sum_info("reductions.compile_affine", "jobs")),
    "reductions.homogeneous_calls": (COMPILE, lambda g: sum(
        1 for s in g if s["name"] == "compiler.compile_homogeneous" and s["in_affine"])),
    "refinement.apply_v_n_s": (VERIFY, _self("refinement.apply_v_n")),
    "refinement.cascade_s": (CASCADE, _self("refinement.cascade_eval")),
    "gallery.oracle_s": (VERIFY, _self("gallery.polygonal_oracle")),
    "cpwl.decompose_s": (COMPILE, _self("cpwl.decompose_atomic")),
    "cpwl.curve_eval_s": (VERIFY, _self("cpwl.CpwlCurve.__call__")),
}


def span_metrics(spans, cascade_points: int) -> dict:
    out = {name: _per_rep(spans, phase, reduce)
           for name, (phase, reduce) in SPAN_METRICS.items()}
    cascade_s = _per_rep(spans, CASCADE, lambda g: sum(
        s["dur"] for s in g if s["name"] == "refinement.cascade_eval"))
    out["refinement.cascade_pts_per_s"] = cascade_points / cascade_s if cascade_s else 0.0
    return out
