"""Layer tracing from outside the package.

The tracer replaces public functions at the module attributes their callers
look up with wrappers that record spans. A name bound with ``from .x import
y`` is a separate attribute of the importing module, so each such binding is
patched on its own (``report.compute_geometry``, ``immersion.fd_derivative``,
...). Spans and counts are kept in memory and written once, when the run ends.
Patch points that a later version of the package no longer has are skipped
and listed in ``Tracer.missing``; their metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, attribute, span name). Several bindings of one function share a
# span name.
PATCH_POINTS = (
    ("corpus", "make_builtin", "corpus.make_builtin"),
    ("corpus", "tabulate", "corpus.tabulate"),
    ("grid", "fd_derivative", "grid.fd_derivative"),
    ("immersion", "fd_derivative", "grid.fd_derivative"),
    ("tensors", "fd_derivative", "grid.fd_derivative"),
    ("kernels", "derivative", "kernels.derivative"),
    ("report", "compute_geometry", "immersion.compute_geometry"),
    ("immersion", "induced_metric", "immersion.induced_metric"),
    ("immersion", "second_fundamental_form", "immersion.second_fundamental_form"),
    ("immersion", "surface_christoffels", "immersion.surface_christoffels"),
    ("immersion", "normal_connection_H", "immersion.normal_connection_H"),
    ("immersion", "gauss_curvature_extrinsic", "immersion.gauss_curvature_extrinsic"),
    ("tensors", "cov_derivative_coords", "tensors.cov_derivative_coords"),
    ("immersion", "cov_derivative_coords", "tensors.cov_derivative_coords"),
    ("report", "holomorphicity_residual", "tensors.holomorphicity_residual"),
    ("checks", "holomorphicity_residual", "tensors.holomorphicity_residual"),
    ("report", "codazzi_defect_coords", "tensors.codazzi_defect_coords"),
    ("checks", "codazzi_defect_coords", "tensors.codazzi_defect_coords"),
    ("checks", "biconservativity_residuals", "checks.biconservativity_residuals"),
    ("checks", "simons_residual", "checks.simons_residual"),
    ("checks", "integral_formula_check", "checks.integral_formula_check"),
    ("checks", "vector_norms", "checks.vector_norms"),
    ("report", "build_geometry_report", "report.build_geometry_report"),
    ("report", "report_to_json", "report.report_to_json"),
    ("report", "build_mu_report", "report.build_mu_report"),
    ("mu_solver", "solve_mu", "mu_solver.solve_mu"),
    ("mu_solver", "mu_residual", "mu_solver.mu_residual"),
    ("mu_solver", "_jacobian", "mu_solver.jacobian"),
    ("mu_solver", "_operators", "mu_solver.operators"),
)

ROOT_SPAN = "cli"


def _kernel_bytes(args, out):
    # one read of the input and one write of the output, float64
    f = np.asarray(args[0])
    return {} if np.iscomplexobj(f) else {"kernels.bytes_computed": 16 * f.size}


COUNTERS = {
    "kernels.derivative": _kernel_bytes,
    "report.report_to_json": lambda args, out: {"report.json_bytes": len(out)},
    "mu_solver.solve_mu": lambda args, out: {"mu_solver.newton_iters": out.iterations},
}


class _Namespace:
    """Stand-in for a module object whose listed attributes are replaced."""

    def __init__(self, module, **replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.op = -1
        # [op, name, parent index, start, end, nested inside a span of the same name]
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        nested = any(self.spans[i][1] == name for i in self._stack)
        self.spans.append([self.op, name, parent, perf_counter(), 0.0, nested])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][4] = perf_counter()

    def count(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    @contextmanager
    def root(self, op):
        """Span of one whole CLI invocation."""
        self.op = op
        self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close()

    def wrap(self, name, fn, extra=None):
        """`fn` recording a span; `extra(args, result)` gives counts to add."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close()
            if extra is not None:
                for key, value in extra(args, out).items():
                    self.count(key, value)
            return out

        return traced

    @contextmanager
    def patched(self):
        """Install every patch point; restore the originals on exit."""
        saved = []
        try:
            for mod_name, attr, span in PATCH_POINTS:
                mod = importlib.import_module("biconsurf." + mod_name)
                if not hasattr(mod, attr):
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(span, getattr(mod, attr), COUNTERS.get(span)))
            self._patch_linear_solve(saved)
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def _patch_linear_solve(self, saved):
        # the solver calls spsolve and lsmr through its `spla` module binding
        mu_solver = importlib.import_module("biconsurf.mu_solver")
        spla = getattr(mu_solver, "spla", None)
        if spla is None:
            self.missing.append("mu_solver.spla")
            return
        saved.append((mu_solver, "spla", spla))
        mu_solver.spla = _Namespace(
            spla,
            spsolve=self.wrap("mu_solver.linear_solve", spla.spsolve),
            lsmr=self.wrap("mu_solver.linear_solve", spla.lsmr,
                           lambda args, out: {"mu_solver.lsmr_fallbacks": 1}),
        )

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds (outermost spans only) and
        self seconds (span minus the time its direct children cover)."""
        child_time = [0.0] * len(self.spans)
        for op, name, parent, start, end, nested in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (op, name, parent, start, end, nested) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += end - start - child_time[i]
            if not nested:
                agg["s"] += end - start
        return out

    def write(self, path):
        doc = {
            "fields": ["op", "name", "parent", "start", "end", "nested"],
            "spans": self.spans,
            "counts": self.counts,
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
