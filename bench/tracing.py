"""Per-layer tracing installed from outside the program.

Every layer call the benchmark cares about is wrapped at each place the
function object is bound (the defining module, every module that imported
it by name, and the package namespace), so calls made inside the program
are seen as well as the benchmark's own.  Two kinds of wrapper exist:

* span wrappers record (name, start, end, parent) for coarse layer calls;
  a layer's self time is its span minus its child spans and minus the hot
  calls made directly inside it;
* hot wrappers keep only a call counter and accumulated time, for calls
  made thousands of times per op (coefficient evaluations, critical_decay,
  log_product, SLTrajectory.evaluate).  Only the outermost hot call in a
  nest is charged to the enclosing span, so nothing is subtracted twice.

Spans live in memory for one op and are folded into per-name totals when
the op ends.  Wrappers pass straight through while ``active`` is false,
which is how input generation, oracle checks and the defect pass stay out
of the counts.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import defaultdict

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []  # [name, start, end, parent index, hot seconds charged]
        self.stack = []
        self.hot_depth = 0
        self.trajectories = []
        self.calls = defaultdict(int)  # name -> calls
        self.points = defaultdict(int)  # name -> vector points / segments
        self.total = defaultdict(float)  # name -> inclusive seconds
        self.self_time = defaultdict(float)  # name -> self seconds (spans only)
        self._restore = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = _clock()
                self.stack.pop()

        return wrapper

    def hot(self, name, fn, split_points=False):
        """Counter-and-time wrapper; split_points separates scalar and vector calls."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            key = name
            if split_points:
                if np.ndim(args[0]) == 0:
                    key = name + ".scalar"
                else:
                    key = name + ".vector"
                    self.points[key] += np.size(args[0])
            self.hot_depth += 1
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                self.hot_depth -= 1
                self.calls[key] += 1
                self.total[key] += dt
                if self.hot_depth == 0 and self.stack:
                    self.spans[self.stack[-1]][4] += dt

        return wrapper

    def profile(self, prof):
        """The same CurvatureProfile with its coefficient routed through a counter."""
        return dataclasses.replace(
            prof, func=self.hot("sl_engine.coef", prof.func, split_points=True))

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch_everywhere(self, module, attr, new):
        """Rebind module.attr in every loaded slboundary module that holds it."""
        original = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "slboundary" or mod_name.startswith("slboundary.")):
                continue
            if getattr(mod, attr, None) is original:
                self._patch(mod, attr, new)

    def install(self):
        from slboundary import (
            bifurcator, closed_form, kick, planar, sl_engine, surfaces,
        )

        spans = [
            (kick, "certify", "kick.certify"),
            (kick, "lambda_log", "kick.lambda_log"),
            (kick, "find_second_zero", "kick.find_second_zero"),
            (sl_engine, "index_form", "sl_engine.index_form"),
            (sl_engine, "picone_residual", "sl_engine.picone_residual"),
            (bifurcator, "classify", "bifurcator.classify"),
            (bifurcator, "abresch_checks", "bifurcator.abresch_checks"),
            (bifurcator, "boundary_test", "bifurcator.boundary_test"),
            (planar, "self_intersects", "planar.self_intersects"),
            (planar, "parabola_x_of_s", "planar.parabola_x_of_s"),
        ]
        for module, attr, name in spans:
            self.patch_everywhere(module, attr, self.span(name, getattr(module, attr)))
        # scipy's quad is bound separately in each module; each binding is
        # its own layer metric, so these are patched one module at a time.
        for module, name in ((sl_engine, "sl_engine.quad"),
                             (bifurcator, "bifurcator.quad"),
                             (surfaces, "surfaces.quad")):
            self._patch(module, "quad", self.span(name, module.quad))

        for module, attr, name in ((kick, "critical_decay", "closed_form.critical_decay"),
                                   (closed_form, "log_product", "closed_form.log_product")):
            self.patch_everywhere(module, attr, self.hot(name, getattr(module, attr)))
        self._patch(sl_engine.SLTrajectory, "evaluate",
                    self.hot("sl_engine.evaluate", sl_engine.SLTrajectory.evaluate))

        integrate = self.span("sl_engine.integrate_sl", sl_engine.integrate_sl)

        @functools.wraps(sl_engine.integrate_sl)
        def integrate_sl(*args, **kwargs):
            traj = integrate(*args, **kwargs)
            if self.active:
                self.trajectories.append(traj)
            return traj

        self.patch_everywhere(sl_engine, "integrate_sl", integrate_sl)

        reconstruct = self.span("planar.reconstruct", planar.reconstruct)

        @functools.wraps(planar.reconstruct)
        def reconstruct_counted(*args, **kwargs):
            curve = reconstruct(*args, **kwargs)
            if self.active:
                self.points["planar.segments"] += len(curve.x) - 1
            return curve

        self.patch_everywhere(planar, "reconstruct", reconstruct_counted)

        for module, attr, name in ((kick, "kicked_profile", None),
                                   (bifurcator, "arctan_profile", None),
                                   (surfaces, "curvature_profile", "surfaces.curvature_profile")):
            factory = getattr(module, attr)
            timed = self.span(name, factory) if name else factory

            def build(*args, _make=timed, **kwargs):
                return self.profile(_make(*args, **kwargs))

            self.patch_everywhere(module, attr, functools.wraps(factory)(build))

    def uninstall(self):
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- per-op bookkeeping -----------------------------------------------

    def end_op(self):
        """Fold this op's spans into the per-name totals; return its trajectories."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, hot) in enumerate(self.spans):
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_time[name] += end - start - child[i] - hot
        self.spans.clear()
        trajectories, self.trajectories = self.trajectories, []
        return trajectories

    def counts(self):
        """Snapshot of every integer counter."""
        return dict(self.calls), dict(self.points)
