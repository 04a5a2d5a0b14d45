"""Spans around the public functions of each discwitness layer.

The benchmark wraps functions from the outside: nothing in the program is
edited.  A wrapped function must be rebound everywhere it is reachable by
name, because modules such as ``cli``, ``asymptotics`` and ``shapeopt``
import functions directly (``from .geometry import chord_chart``); a
patch of the defining module alone would silently miss those calls.
``Tracer.install`` therefore replaces every reference held in any
``discwitness`` module namespace (and class attributes for chart methods).

A span records calls, self time (its duration minus the time covered by
child spans) and the exceptions that escaped it.  Counters record work
where it happens: integrand points, chart points, moment orders,
optimizer iterations.  All of it stays in memory and is read at the end.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name); attribute "Class.method" patches a class.
SPANS = (
    ("geometry", "build_curve", "geometry.build_curve"),
    ("geometry", "chord_chart", "geometry.chord_chart"),
    ("geometry", "arclength", "geometry.arclength"),
    ("geometry", "ChordChart.f", "geometry.chart_eval"),
    ("geometry", "ChordChart.g", "geometry.chart_eval"),
    ("geometry", "ChordChart.theta_upper", "geometry.chart_eval"),
    ("geometry", "ChordChart.theta_lower", "geometry.chart_eval"),
    ("quadrature", "adaptive_quad", "quadrature.adaptive_quad"),
    ("moments", "moment_sweep", "moments.moment_sweep"),
    ("moments", "moment_chord", "moments.moment_chord"),
    ("moments", "moment_green", "moments.moment_green"),
    ("moments", "moment_area", "moments.moment_area"),
    ("asymptotics", "asymptotic_ratio", "asymptotics.asymptotic_ratio"),
    ("asymptotics", "arc_integral", "asymptotics.arc_integral"),
    ("asymptotics", "bracket_main_term", "asymptotics.bracket_main_term"),
    ("characterize", "inscribed_disc", "characterize.inscribed_disc"),
    ("characterize", "lemma2_witness", "characterize.lemma2_witness"),
    ("characterize", "kl_profile", "characterize.kl_profile"),
    ("characterize", "identity_residuals", "characterize.identity_residuals"),
    ("characterize", "p_zero_check", "characterize.p_zero_check"),
    ("characterize", "constraint_residuals", "characterize.constraint_residuals"),
    ("shapeopt", "minimize", "shapeopt.minimize"),
    ("shapeopt", "objective_bracket", "shapeopt.objective_bracket"),
)

# Counted but not timed: called thousands of times inside inscribed_disc.
COUNTERS = (
    ("characterize", "min_clearance", "characterize.min_clearance.calls"),
)

CHART_EVAL = "geometry.chart_eval"
QUAD_MOMENT_SPANS = ("moments.moment_chord", "moments.moment_green")


PACKAGE = "discwitness"


class Tracer:
    """Span and counter store; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0])  # calls, self_s, fails
        self.counts = defaultdict(float)
        self._stack = []  # [span name, time covered by children]
        self._depth = defaultdict(int)
        self._patched = []  # (owner, attribute, original)

    # -- recording -----------------------------------------------------
    def _open(self, name):
        frame = [name, 0.0]
        self._stack.append(frame)
        self._depth[name] += 1
        return frame

    def _close(self, frame, dt, failed):
        self._stack.pop()
        self._depth[frame[0]] -= 1
        rec = self.spans[frame[0]]
        rec[0] += 1
        rec[1] += dt - frame[1]
        rec[2] += failed
        if self._stack:
            self._stack[-1][1] += dt

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around a block."""
        frame = self._open(name)
        t0 = time.perf_counter()
        failed = True
        try:
            yield
            failed = False
        finally:
            self._close(frame, time.perf_counter() - t0, failed)

    def _wrap(self, name, fn, on_enter=None, on_result=None):
        clock, open_, close = time.perf_counter, self._open, self._close

        def wrapped(*args, **kwargs):
            if on_enter is not None:
                args = on_enter(args)
            frame = open_(name)
            t0 = clock()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                close(frame, clock() - t0, failed)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapped.__wrapped__ = fn
        wrapped.__name__ = getattr(fn, "__name__", name)
        return wrapped

    def _chart_points(self, args):
        # count points once per outermost chart evaluation (f calls theta_upper)
        if self._depth[CHART_EVAL] == 0:
            self.counts["geometry.chart_eval.points"] += np.size(args[1])
        return args

    def _quad_points(self, args):
        func = args[0]
        counts, depth = self.counts, self._depth

        def counted(x):
            n = np.size(x)
            counts["quadrature.adaptive_quad.points"] += n
            if any(depth[s] for s in QUAD_MOMENT_SPANS):
                counts["quadrature.moment_points"] += n
            return func(x)

        return (counted,) + tuple(args[1:])

    def _opt_result(self, args, kwargs, result):
        options = args[2] if len(args) > 2 else kwargs.get("options")
        target = getattr(options, "target", 1e-10)
        self.counts["shapeopt.iterations"] += result.iterations
        self.counts["shapeopt.converged"] += result.objective <= target

    def _counter(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching ------------------------------------------------------
    def _rebind(self, original, replacement):
        """Replace every module-level reference to ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _module(self, name):
        try:
            return importlib.import_module(f"{PACKAGE}.{name}")
        except ImportError:
            return None

    def install(self):
        """Wrap every function in SPANS and COUNTERS that this version has.

        Returns the span names that were wrapped.  Functions a later
        version of the program removed are skipped, and their metrics
        read zero.
        """
        wrapped = []
        for mod_name, attr, name in SPANS:
            mod = self._module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                original = getattr(cls, meth, None) if cls else None
                if original is None:
                    continue
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original,
                                              on_enter=self._chart_points))
            else:
                original = getattr(mod, attr, None)
                if original is None:
                    continue
                hooks = {}
                if name == "quadrature.adaptive_quad":
                    hooks["on_enter"] = self._quad_points
                if name == "shapeopt.minimize":
                    hooks["on_result"] = self._opt_result
                self._rebind(original, self._wrap(name, original, **hooks))
            wrapped.append(name)
        for mod_name, attr, key in COUNTERS:
            original = getattr(self._module(mod_name), attr, None)
            if original is not None:
                self._rebind(original, self._counter(key, original))
        cli = self._module("cli")
        emit = getattr(cli, "_emit", None)
        if emit is not None:
            counts = self.counts

            def counted_emit(path, text):
                counts["cli.bytes_out"] += len(text.encode())
                return emit(path, text)

            self._patched.append((cli, "_emit", emit))
            cli._emit = counted_emit
        return list(dict.fromkeys(wrapped))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reporting -----------------------------------------------------
    def metrics(self) -> dict:
        """Flat per-layer metrics from the spans and counters recorded."""
        def span(name):
            return self.spans.get(name, (0, 0.0, 0))

        counts = self.counts
        out = {}
        for name in dict.fromkeys(n for _, _, n in SPANS):
            calls, self_s, _ = span(name)
            if name == CHART_EVAL:
                out[f"{name}.points"] = counts["geometry.chart_eval.points"]
            else:
                out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out["cli.cmd.calls"], out["cli.cmd.self_s"], _ = span("cli.cmd")
        out["cli.bytes_out"] = counts["cli.bytes_out"]
        out["quadrature.adaptive_quad.points"] = counts["quadrature.adaptive_quad.points"]
        out["quadrature.adaptive_quad.fails"] = span("quadrature.adaptive_quad")[2]
        out["moments.orders"] = sum(span(f"moments.moment_{m}")[0]
                                    for m in ("chord", "green", "area"))
        quad_orders = sum(span(s)[0] for s in QUAD_MOMENT_SPANS)
        out["quadrature.points_per_order"] = (
            counts["quadrature.moment_points"] / quad_orders if quad_orders else 0.0)
        clear = counts["characterize.min_clearance.calls"]
        discs = span("characterize.inscribed_disc")[0]
        out["characterize.min_clearance.calls"] = clear
        out["characterize.min_clearance_per_disc"] = clear / discs if discs else 0.0
        runs = span("shapeopt.minimize")[0]
        out["shapeopt.iterations"] = counts["shapeopt.iterations"]
        out["shapeopt.converged_ratio"] = (
            counts["shapeopt.converged"] / runs if runs else 0.0)
        return out
