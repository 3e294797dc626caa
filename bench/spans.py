"""Tracing gft from outside: spans around the public functions of each module.

:func:`install` wraps the functions listed in ``FUNCTIONS`` in every ``gft``
namespace that bound them (``gft.verify.t_series`` as well as
``gft.extremal.t_series``), plus the methods listed in ``METHODS`` on their
classes, and returns a callable that restores the originals. Each wrapped call
records a span: name, start, end, parent span and the op it belongs to. Spans
stay in memory (flat arrays) until :meth:`Tracer.write`.

Self time is a span's duration minus the time covered by its child spans.
The root span of each op is ``op``, so the self times of all spans add up to
the summed op durations.
"""

from __future__ import annotations

import dataclasses
import gzip
import inspect
import sys
import time
from array import array
from collections import defaultdict
from fractions import Fraction

GL_NODES = 64  # Gauss-Legendre nodes per structural_eval quadrature
MEMBERSHIP_POINTS_PER_SAMPLE = 3 * 64  # radii x angles of the envelope scan


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.exact = bytearray()
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span index, time covered by children]
        self.current_op = -1

    def call(self, name: str, fn, args=(), kwargs=None, exact: bool = False):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        idx = len(self.names)
        stack = self._stack
        self.names.append(name)
        self.parent.append(stack[-1][0] if stack else -1)
        self.op.append(self.current_op)
        self.exact.append(1 if exact else 0)
        self.start.append(0.0)
        self.end.append(0.0)
        self.self_time.append(0.0)
        frame = [idx, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            if stack:
                stack[-1][1] += dur
            self.start[idx] = start
            self.end[idx] = end
            self.self_time[idx] = dur - frame[1]

    def run_op(self, op_id: int, fn, *args):
        self.current_op = op_id
        try:
            return self.call("op", fn, args)
        finally:
            self.current_op = -1

    def summary(self) -> dict:
        """Per span name: calls and self time; ``<name>.exact`` for exact spans."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for name, st, ex in zip(self.names, self.self_time, self.exact):
            calls[name] += 1
            self_s[name] += st
            if ex:
                calls[name + ".exact"] += 1
                self_s[name + ".exact"] += st
        return {"calls": dict(calls), "self_s": dict(self_s)}

    def root_total(self) -> float:
        return sum(e - s for n, s, e, p in zip(self.names, self.start, self.end, self.parent) if p < 0)

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            fh.write("index,op,name,parent,start,end,self,exact\n")
            for i, (name, op, parent, s, e, st, ex) in enumerate(zip(
                self.names, self.op, self.parent, self.start, self.end, self.self_time, self.exact
            )):
                fh.write(f"{i},{op},{name},{parent},{s!r},{e!r},{st!r},{ex}\n")


# -- what gets wrapped ---------------------------------------------------------------


def _is_exact(args) -> bool:
    """True when no series argument carries a float or complex coefficient."""
    return all(
        all(type(c) is int or type(c) is Fraction for c in a.coeffs)
        for a in args if hasattr(a, "coeffs")
    )


def _after_bisect(tracer, orig, args, kwargs, result):
    tracer.counts["radius.bisect_root.iterations"] += result.iterations


def _grid_counter(param, points_per_density):
    """Counts the grid points of a sweep from its density argument."""
    def after(tracer, orig, args, kwargs, result):
        bound = inspect.signature(orig).bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.counts["verify.grid_points"] += points_per_density(bound.arguments[param])
    return after


def _after_membership(tracer, orig, args, kwargs, result):
    tracer.counts["verify.membership.points"] += result.samples * MEMBERSHIP_POINTS_PER_SAMPLE


def _after_psi_image(tracer, orig, args, kwargs, result):
    tracer.counts["catalog.in_psi_image.calls"] += 1


# (module, attribute, span name or None for no span, hook after the call)
FUNCTIONS = [
    ("gft.cli", "main", "cli.main", None),
    ("gft.catalog", "classify", "catalog.classify", None),
    ("gft.catalog", "in_psi_image", None, _after_psi_image),
    ("gft.extremal", "t_series", "extremal.t_series", None),
    ("gft.extremal", "d_series", "extremal.d_series", None),
    ("gft.extremal", "growth_envelope_starlike", "extremal.envelope", None),
    ("gft.extremal", "distortion_envelope_convex", "extremal.envelope", None),
    ("gft.extremal", "distortion_envelope_starlike", "extremal.envelope", None),
    ("gft.radius", "bisect_root", "radius.bisect_root", _after_bisect),
    ("gft.radius", "curve_points", "radius.curve_points", None),
    ("gft.bounds", "schwarz_functional_H", "bounds.schwarz_functional_H", None),
    ("gft.verify", "sample_schwarz", "verify.sample_schwarz", None),
    ("gft.verify", "structural_eval", "verify.structural_eval", None),
    ("gft.verify", "verify_class_membership_bounds", None, _after_membership),
    ("gft.verify", "maximize_second_hankel_oracle", "verify.hankel_oracle",
     _grid_counter("density", lambda d: d ** 3)),
    ("gft.verify", "lemma_p1p2_check", "verify.lemma_sweeps",
     _grid_counter("grid_density", lambda d: d ** 3)),
    ("gft.verify", "eq_p31_check", "verify.lemma_sweeps",
     _grid_counter("grid_density", lambda d: 16 * d ** 3)),
    ("gft.verify", "vector_space_counterexample", "verify.counterexample", None),
    ("gft.verify", "bloch_norm_estimate", "verify.bloch_norm_estimate", None),
] + [
    ("gft.bounds", name, "bounds.closed_form", None)
    for name in (
        "fekete_szego", "fekete_szego_positive", "second_hankel", "second_hankel_symmetric",
        "a2_bound_sl", "a3_bound_sl", "fekete_szego_sl", "h2_bound_sl", "a4_bound_sl",
        "a2a3_a4_bound_sl", "a5_bound_sl", "h3_bound_sl_alpha", "h3_bound_sl_star", "sl_bound_table",
    )
]

# (module, class, method, span name, split by exactness)
METHODS = [
    ("gft.series", "TruncatedSeries", "__call__", "series.call", False),
    ("gft.series", "TruncatedSeries", "mul", "series.mul", True),
    ("gft.series", "TruncatedSeries", "compose", "series.compose", True),
    ("gft.series", "TruncatedSeries", "exp", "series.exp", True),
    ("gft.series", "TruncatedSeries", "reciprocal", "series.reciprocal", False),
    ("gft.catalog", "MaMindaSpec", "series", "catalog.spec_series", False),
]

def _function_wrapper(tracer, orig, span, after):
    if span is None:
        def wrapper(*args, **kwargs):
            result = orig(*args, **kwargs)
            after(tracer, orig, args, kwargs, result)
            return result
    else:
        def wrapper(*args, **kwargs):
            result = tracer.call(span, orig, args, kwargs)
            if after is not None:
                after(tracer, orig, args, kwargs, result)
            return result
    return wrapper


def _method_wrapper(tracer, orig, span, split):
    if split:
        def wrapper(*args, **kwargs):
            return tracer.call(span, orig, args, kwargs, _is_exact(args))
    else:
        def wrapper(*args, **kwargs):
            return tracer.call(span, orig, args, kwargs)
    return wrapper


def _polish_wrapper(tracer, orig):
    """Wraps scipy's ``minimize`` where gft bound it: nfev and useful-work ratio."""
    def wrapper(fun, x0, *args, **kwargs):
        first = []

        def objective(x, *a):
            value = fun(x, *a)
            if not first:
                first.append(float(value))
            return value

        res = tracer.call("bounds.polish", orig, (objective, x0) + args, kwargs)
        tracer.counts["bounds.polish.nfev"] += int(res.nfev)
        if first and first[0] - float(res.fun) > 1e-12:
            tracer.counts["bounds.polish.gains"] += 1
        return res
    return wrapper


def _make_spec_wrapper(tracer, orig):
    """Catalog specs whose coefficient stream records ``catalog.coeff`` spans."""
    def wrapper(*args, **kwargs):
        spec = orig(*args, **kwargs)
        coeff_exact = getattr(spec, "coeff_exact", None)
        if coeff_exact is None or not dataclasses.is_dataclass(spec):
            return spec

        def traced_coeff(k):
            return tracer.call("catalog.coeff", coeff_exact, (k,))

        return dataclasses.replace(spec, coeff_exact=traced_coeff)
    return wrapper


def _gft_modules():
    return [m for n, m in list(sys.modules.items()) if n == "gft" or n.startswith("gft.")]


def install(tracer: Tracer):
    """Wrap every traced name in every gft namespace; returns the undo function."""
    patched = []  # (owner, attribute, original)
    modules = _gft_modules()

    def patch_everywhere(orig, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    patched.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    for modname, attr, span, after in FUNCTIONS:
        orig = getattr(sys.modules.get(modname), attr, None)
        if orig is not None:
            patch_everywhere(orig, _function_wrapper(tracer, orig, span, after))
    minimize = getattr(sys.modules.get("gft.bounds"), "minimize", None) or getattr(
        sys.modules.get("gft.verify"), "minimize", None)
    if minimize is not None:
        patch_everywhere(minimize, _polish_wrapper(tracer, minimize))

    make_spec = getattr(sys.modules.get("gft.catalog"), "make_spec", None)
    if make_spec is not None:
        patch_everywhere(make_spec, _make_spec_wrapper(tracer, make_spec))

    for modname, clsname, meth, span, split in METHODS:
        cls = getattr(sys.modules.get(modname), clsname, None)
        orig = vars(cls).get(meth) if cls is not None else None
        if orig is not None:
            patched.append((cls, meth, orig))
            setattr(cls, meth, _method_wrapper(tracer, orig, span, split))

    series_cls = getattr(sys.modules.get("gft.series"), "TruncatedSeries", None)
    init = vars(series_cls).get("__init__") if series_cls is not None else None
    if init is not None:
        def counted_init(self, *args, **kwargs):
            tracer.counts["series.new.calls"] += 1
            init(self, *args, **kwargs)

        patched.append((series_cls, "__init__", init))
        series_cls.__init__ = counted_init

    def undo():
        for owner, attr, orig in reversed(patched):
            setattr(owner, attr, orig)

    undo.patched = [(getattr(o, "__name__", str(o)), a) for o, a, _ in patched]
    return undo


SPAN_METRICS = [
    # (metric prefix, span name, report calls)
    ("cli.main", "cli.main", True),
    ("series.call", "series.call", True),
    ("series.mul", "series.mul", True),
    ("series.compose", "series.compose", True),
    ("series.exp", "series.exp", True),
    ("series.reciprocal", "series.reciprocal", True),
    ("series.mul.exact", "series.mul.exact", False),
    ("series.exp.exact", "series.exp.exact", False),
    ("series.compose.exact", "series.compose.exact", False),
    ("catalog.classify", "catalog.classify", True),
    ("catalog.spec_series", "catalog.spec_series", True),
    ("catalog.coeff", "catalog.coeff", True),
    ("extremal.t_series", "extremal.t_series", True),
    ("extremal.d_series", "extremal.d_series", True),
    ("extremal.envelope", "extremal.envelope", False),
    ("radius.bisect_root", "radius.bisect_root", True),
    ("radius.curve_points", "radius.curve_points", False),
    ("bounds.schwarz_functional_H", "bounds.schwarz_functional_H", True),
    ("bounds.polish", "bounds.polish", True),
    ("bounds.closed_form", "bounds.closed_form", True),
    ("verify.sample_schwarz", "verify.sample_schwarz", True),
    ("verify.structural_eval", "verify.structural_eval", True),
    ("verify.hankel_oracle", "verify.hankel_oracle", True),
    ("verify.lemma_sweeps", "verify.lemma_sweeps", False),
    ("verify.counterexample", "verify.counterexample", False),
    ("verify.bloch_norm_estimate", "verify.bloch_norm_estimate", False),
]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and self times (seconds) from the recorded spans."""
    summary = tracer.summary()
    calls, self_s = summary["calls"], summary["self_s"]
    out = {}
    for prefix, span, with_calls in SPAN_METRICS:
        if with_calls:
            out[f"{prefix}.calls"] = calls.get(span, 0)
        out[f"{prefix}.self_s"] = self_s.get(span, 0.0)
    counts = tracer.counts
    out["series.new.calls"] = int(counts["series.new.calls"])
    out["catalog.in_psi_image.calls"] = int(counts["catalog.in_psi_image.calls"])
    out["radius.bisect_root.iterations"] = int(counts["radius.bisect_root.iterations"])
    out["bounds.polish.nfev"] = int(counts["bounds.polish.nfev"])
    polishes = calls.get("bounds.polish", 0)
    out["bounds.polish.gain_frac"] = counts["bounds.polish.gains"] / polishes if polishes else 0.0
    out["verify.quad_nodes"] = calls.get("verify.structural_eval", 0) * GL_NODES
    out["verify.membership.points"] = int(counts["verify.membership.points"])
    out["verify.grid_points"] = int(counts["verify.grid_points"])
    return out
