"""Instrumentation applied from outside the program.

`PointMeter` and `CountingTarget` count target points for every run, traced
or not; the counting pass that uses them is never timed.  `Tracer` records
spans around the public names the CLI and the ISA loop look up (each layer
is an `isalib` module) and turns them into the per-layer metrics.  Both
patch module and class attributes and restore them on `uninstall`.
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

POINT_METHODS = ("log_density", "neg_log_posterior", "residuals")
# a traced child span may end at most this much later than its parent
# (clock reads are ordered, so only float rounding can exceed the parent)
NESTING_TOL_S = 1e-9


class TraceError(RuntimeError):
    """The instrumentation no longer fits the program; results would lie."""


class PointMeter:
    """Thread-safe count of target points, failed points and seconds spent in
    target calls.  Each thread adds to its own cell, so a call takes no lock;
    cells are registered under a lock and summed on read."""

    def __init__(self, on_call=None):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._cells: list[list] = []
        self.on_call = on_call  # called with each call's seconds, on its thread

    def _cell(self) -> list:
        cell = getattr(self._local, "cell", None)
        if cell is None:
            cell = self._local.cell = [0, 0, 0.0]
            with self._lock:
                self._cells.append(cell)
        return cell

    def totals(self) -> tuple[int, int, float]:
        """(points, failed points, seconds) over all threads so far."""
        with self._lock:
            cells = [list(c) for c in self._cells]
        return (
            sum(c[0] for c in cells),
            sum(c[1] for c in cells),
            sum(c[2] for c in cells),
        )

    def wrap(self, method, n_points, n_failed):
        def counted(*args, **kwargs):
            t0 = perf_counter()
            result = method(*args, **kwargs)
            seconds = perf_counter() - t0
            cell = self._cell()
            cell[0] += n_points(args)
            cell[1] += n_failed(result)
            cell[2] += seconds
            if self.on_call is not None:
                self.on_call(seconds)
            return result

        return counted


class CountingTarget:
    """Proxy that counts every point passed to the target's evaluation
    methods: `log_density`, `neg_log_posterior`, `residuals` and any public
    `*_batch` method.  Everything else passes through unchanged, so
    `hasattr(target, "residuals")` reads the same as on the target.  Calls
    the target makes to itself are not counted twice."""

    def __init__(self, target, meter: PointMeter, is_failure):
        if not callable(getattr(target, "log_density", None)):
            raise TraceError(f"{type(target).__name__} has no log_density")
        self._target = target

        def one(args):
            return 1

        def failed_value(result):
            return 1 if is_failure(result) else 0

        def failed_f(result):
            return 0 if result < np.inf else 1

        def batch_points(args):
            return len(args[0])

        def batch_failed(result):
            if isinstance(result, tuple) and len(result) == 2:
                return int(np.count_nonzero(result[1]))  # (values, failed_mask)
            return sum(1 for value in result if is_failure(value))

        for name in dir(target):
            method = getattr(target, name, None)
            if not callable(method) or name.startswith("_"):
                continue
            if name == "neg_log_posterior":
                setattr(self, name, meter.wrap(method, one, failed_f))
            elif name in POINT_METHODS:
                setattr(self, name, meter.wrap(method, one, failed_value))
            elif name.endswith("_batch"):
                setattr(self, name, meter.wrap(method, batch_points, batch_failed))

    def __getattr__(self, name):
        return getattr(self._target, name)


class Patcher:
    """Replaces attributes and puts the originals back."""

    def __init__(self):
        self._undo: list[tuple] = []

    def replace(self, owner, attr: str, make_wrapper):
        original = getattr(owner, attr, None)
        if original is None:
            raise TraceError(
                f"{getattr(owner, '__name__', owner)}.{attr} no longer exists; "
                "update perfbench/tracer.py"
            )
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def count_points(patcher: Patcher, cli, meter: PointMeter, is_failure) -> None:
    """Make every target the CLI builds a CountingTarget on `meter`."""

    def make(build_target):
        def build(config):
            return CountingTarget(build_target(config), meter, is_failure)

        return build

    patcher.replace(cli, "build_target", make)


class Span:
    __slots__ = ("name", "start", "end", "child_s", "parent")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.start = perf_counter()
        self.end = None


class Tracer:
    """Spans at the layer boundaries, kept in memory until the run ends.

    A span's child time is what its child spans, and the target calls made
    on its thread, cover; its self time is the rest.  Target calls made on
    worker threads are counted and timed but charged to no span.  A layer
    entered again inside itself (a mixture delegating to its components)
    keeps only the outer span.
    """

    ROOT = "cli"

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: list[Span] = []
        self.observed: dict[str, list] = defaultdict(list)
        self.meter = PointMeter(on_call=self._charge)
        self._patcher = Patcher()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _charge(self, seconds: float):
        stack = self._stack()
        if stack:
            stack[-1].child_s += seconds

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        if any(open_span.name == name for open_span in stack):
            return fn(*args, **kwargs)
        span = Span(name, stack[-1] if stack else None)
        stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            stack.pop()
            if span.parent is not None:
                span.parent.child_s += span.end - span.start
            with self._lock:
                self.spans.append(span)

    def _wrapper(self, name: str, observe=None):
        def make(original):
            def traced(*args, **kwargs):
                result = self.call(name, original, *args, **kwargs)
                if observe is not None:
                    self.observed[name].append(observe(result))
                return result

            return traced

        return make

    def install(self, isalib) -> None:
        """Wrap the public names each layer is looked up by.  Raises
        TraceError if one of them is gone."""
        cli, isa = isalib.cli, isalib.isa
        is_failure = isalib.targets.is_failure
        replace = self._patcher.replace

        def count_multistart(original):
            traced = self._wrapper("init.multistart")(original)

            def multistart(*args, **kwargs):
                before = self.meter.totals()[0]
                results = traced(*args, **kwargs)
                converged = sum(1 for r in results if r.status.value == "converged")
                self.observed["optimize"].append(
                    (self.meter.totals()[0] - before, converged, len(results))
                )
                return results

            return multistart

        count_points(self._patcher, cli, self.meter, is_failure)
        replace(cli, "stretch_move_run",
                self._wrapper("init.stretch", lambda chain: chain.acceptance_rate))
        replace(cli, "multistart", count_multistart)
        replace(cli, "dedup_modes", self._wrapper("init.dedup", len))
        replace(cli, "build_gmm", self._wrapper("init.dedup"))
        replace(cli, "isa_run",
                self._wrapper("isa.run", lambda trace: len(trace.records)))
        replace(cli, "write_ensemble_csv", self._wrapper("ensemble.csv_write"))
        replace(cli, "triangle_export", self._wrapper("diagnostics.triangle"))
        replace(cli, "iact_ensemble", self._wrapper("diagnostics.iact"))
        replace(isa, "isa_step", self._wrapper("isa.step"))
        replace(isa, "parallel_map_density", self._wrapper("parallel.map"))
        replace(isa, "self_normalize", self._wrapper("ensemble.normalize"))
        replace(isa, "estimate_r", self._wrapper("ensemble.r"))
        replace(isa, "fit_gaussian", self._wrapper("isa.refit"))
        replace(isa, "fit_student_t", self._wrapper("isa.refit"))
        # the refit and the triangle export each look the covariance up
        replace(isalib.proposals, "weighted_covariance", self._wrapper("ensemble.cov"))
        replace(isalib.diagnostics, "weighted_covariance", self._wrapper("ensemble.cov"))
        families = [
            cls for cls in vars(isalib.proposals).values()
            if isinstance(cls, type) and cls.__module__ == isalib.proposals.__name__
            and hasattr(cls, "sample") and hasattr(cls, "log_density_batch")
        ]
        if not families:
            raise TraceError("isalib.proposals defines no proposal class")
        for cls in families:
            replace(cls, "sample", self._wrapper("proposals.sample"))
            replace(cls, "log_density_batch", self._wrapper("proposals.logq"))

    def uninstall(self) -> None:
        self._patcher.uninstall()

    def layer_metrics(self, invocations: int, overhead_s: float) -> dict:
        """Per-layer metrics per traced CLI invocation."""
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for span in self.spans:
            duration = span.end - span.start
            if span.child_s > duration + NESTING_TOL_S:
                raise TraceError(
                    f"children of {span.name} cover {span.child_s:.9f} s "
                    f"of its {duration:.9f} s"
                )
            total[span.name] += duration
            self_s[span.name] += duration - span.child_s
            calls[span.name] += 1
        if calls[self.ROOT] != invocations:
            raise TraceError(f"{calls[self.ROOT]} root spans for {invocations} invocations")
        if self_s[self.ROOT] < 0.0:
            raise TraceError("cli.self_s is negative")
        evals, failed, eval_s = self.meter.totals()
        opt = self.observed["optimize"]
        opt_evals = sum(o[0] for o in opt)
        converged = sum(o[1] for o in opt)
        starts = sum(o[2] for o in opt)

        def mean(values):
            return sum(values) / len(values) if values else 0.0

        per = float(invocations)
        return {
            "init.stretch_s": total["init.stretch"] / per,
            "init.stretch_accept": mean(self.observed["init.stretch"]),
            "init.multistart_s": total["init.multistart"] / per,
            "init.dedup_s": total["init.dedup"] / per,
            "init.modes": mean(self.observed["init.dedup"]),
            "optimize.converged_frac": converged / starts if starts else 0.0,
            "optimize.evals": opt_evals / per,
            "targets.evals": evals / per,
            "targets.eval_s": eval_s / per,
            "targets.eval_us": 1e6 * eval_s / evals if evals else 0.0,
            "targets.failed_frac": failed / evals if evals else 0.0,
            "parallel.map_s": total["parallel.map"] / per,
            "proposals.sample_s": total["proposals.sample"] / per,
            "proposals.logq_s": total["proposals.logq"] / per,
            "isa.step_s": total["isa.step"] / per,
            "isa.weight_s": self_s["isa.step"] / per,
            "isa.iterations": sum(self.observed["isa.run"]) / per,
            "isa.refit_s": total["isa.refit"] / per,
            "ensemble.normalize_s": total["ensemble.normalize"] / per,
            "ensemble.r_s": total["ensemble.r"] / per,
            "ensemble.cov_s": total["ensemble.cov"] / per,
            "ensemble.cov_calls": calls["ensemble.cov"] / per,
            "ensemble.csv_write_s": total["ensemble.csv_write"] / per,
            "diagnostics.triangle_s": total["diagnostics.triangle"] / per,
            "diagnostics.iact_s": total["diagnostics.iact"] / per,
            "cli.self_s": self_s[self.ROOT] / per,
            "trace.overhead_s": overhead_s,
        }
