"""Span tracing of the package's layers, installed from outside.

Every public function of the layer modules (``cli``, ``solver``, ``geom``,
``hchart``, ``estimates``, ``problem``, ``symk``) is replaced, in every
``weingarten`` module namespace that refers to it, by a wrapper that records
a span (name, start, end, parent span).  ``spsolve`` as the solver module
calls it is wrapped as ``solver.linear_solve``.  Two counts need more than a
span: Newton iterations are read off each ``damped_newton`` result, and a
line-search trial is an ``extrinsic_state`` call made directly from the
``damped_newton`` frame.  Used as a context manager, a :class:`Tracer` is
installed on entry and restores the originals on exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "solver", "geom", "hchart", "estimates", "problem", "symk")
SYMK_BATTERY = (
    "sigma_all", "sigma", "identity_residuals", "gamma_cone_contains",
    "newton_maclaurin_check", "quadratic_form",
)
# name -> spans whose totals it sums
SPAN_METRICS = {
    "cli.main": ("cli.main",),
    "solver.continuation_solve": ("solver.continuation_solve",),
    "solver.damped_newton": ("solver.damped_newton",),
    "solver.assemble_jacobian": ("solver.assemble_jacobian",),
    "solver.linear_solve": ("solver.linear_solve",),
    "solver.harmonic_extension": ("solver.harmonic_extension",),
    "solver.barrier": ("solver.solve_upper_barrier", "solver.solve_lower_barrier"),
    "solver.uniqueness_probe": ("solver.uniqueness_probe",),
    "geom.extrinsic_state": ("geom.extrinsic_state",),
    "hchart.derivative_matrices": ("hchart.derivative_matrices",),
    "estimates.build_report": ("estimates.build_report",),
    "problem.manufactured_problem": ("problem.manufactured_problem",),
    **{f"symk.{name}": (f"symk.{name}",) for name in SYMK_BATTERY},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index or -1]
        self._stack: list[int] = [-1]
        self._patches: list[tuple[dict, str, object]] = []
        self.newton_iterations = 0
        self.newton_useful = 0
        self.newton_failed_s = 0.0
        self.line_search_trials = 0

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "weingarten" or n.startswith("weingarten.")]
        solver = importlib.import_module("weingarten.solver")
        self._newton_code = solver.damped_newton.__code__
        for layer in LAYERS:
            mod = importlib.import_module(f"weingarten.{layer}")
            for name, fn in sorted(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(f"{layer}.{name}", fn)
                for m in mods:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(vars(m), key, wrapped)
        self._patch(vars(solver), "spsolve", self._wrap("solver.linear_solve", solver.spsolve))

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, namespace: dict, key: str, value) -> None:
        self._patches.append((namespace, key, namespace[key]))
        namespace[key] = value

    def _wrap(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack = self.spans, self._stack
        is_newton = name == "solver.damped_newton"
        is_state = name == "geom.extrinsic_state"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_state and sys._getframe(1).f_code is self._newton_code:
                self.line_search_trials += 1
            index = len(spans)
            span = [name_id, time.perf_counter(), 0.0, stack[-1]]
            spans.append(span)
            stack.append(index)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                stack.pop()
                span[2] = time.perf_counter()
                if is_newton:
                    self._count_newton(result, span[2] - span[1])

        return wrapper

    def _count_newton(self, report, seconds: float) -> None:
        iterations = getattr(report, "iterations", 0)
        self.newton_iterations += iterations
        if getattr(report, "converged", False):
            self.newton_useful += iterations
        else:
            self.newton_failed_s += seconds

    # --- summaries --------------------------------------------------------------

    def layer_table(self) -> dict:
        """calls, total seconds and self seconds per wrapped function."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict[str, dict] = {}
        for (name_id, start, end, _), inner in zip(self.spans, child):
            row = table.setdefault(self.names[name_id], {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - inner
        return table

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def metrics(self, csv_bytes: int) -> dict:
        table = self.layer_table()
        out: dict[str, float] = {}
        for metric, names in SPAN_METRICS.items():
            rows = [table.get(n, {"calls": 0, "s": 0.0}) for n in names]
            out[f"{metric}.calls"] = sum(r["calls"] for r in rows)
            out[f"{metric}.s"] = sum(r["s"] for r in rows)
        # the cli layer's own time: config handling and artifact I/O
        out["cli.main.self_s"] = sum(r["self_s"] for n, r in table.items() if n.startswith("cli."))
        out["cli.fields_csv.bytes"] = csv_bytes
        out["solver.damped_newton.failed_s"] = self.newton_failed_s
        out["solver.newton.iterations"] = self.newton_iterations
        out["solver.newton.useful_ratio"] = _ratio(self.newton_useful, self.newton_iterations)
        out["solver.line_search.trials"] = self.line_search_trials
        out["solver.line_search.accept_ratio"] = _ratio(
            self.newton_iterations, self.line_search_trials)
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "layers": self.layer_table()}


def _ratio(part: float, base: float) -> float:
    # a ratio with nothing to divide reads 0; its base is reported beside it
    return part / base if base else 0.0
