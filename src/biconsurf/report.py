"""Report assembly and deterministic serialization.

A GeometryReport is the single artifact of a verification run: named residual
norms, scalar summaries, and boolean flags, each residual tagged with a key
into REFERENCE_INDEX so a reader can look up which identity it measures.
Serialization is deterministic: fixed key order, floats printed with 17
significant digits, so identical configs yield byte-identical files. A
dumped field is written as its exact bytes: ``{"dtype": "<f8", "shape":
[...], "base64": ...}``, the little-endian float64 values in C order,
base64-encoded, so every bit (NaN payloads, signed zeros, subnormals) is
kept.
"""

from __future__ import annotations

import binascii
import io
from dataclasses import dataclass, field

import numpy as np

from . import checks
from .grid import Grid
from .immersion import ImmersionJet, compute_geometry
from .tensors import codazzi_defect_coords

# Not called here. perfbench/tracing.py's PATCH_POINTS still patch this
# binding; ROADMAP item 7 drops that patch point, and then this import.
from .tensors import holomorphicity_residual  # noqa: F401

# default residual tolerances by jet source, which every command reads
TOL_ANALYTIC = 1e-8
TOL_FD = 1e-3

# Documentation index: every residual name used in reports maps to a short
# statement of the identity it measures.  Keys are stable API.
REFERENCE_INDEX = {
    "stress-divergence": "divergence of the stress tensor S = -2|H|^2 I + 4 A_H",
    "trace-balance": "trace A_{dperp H} + trace(nabla A_H) + tangent curvature trace",
    "gradient-trace-balance": "grad|H|^2 + 2 trace A_{dperp H} + 2 tangent curvature trace",
    "codazzi-trace-balance": "2 trace(nabla A_H) - grad|H|^2",
    "divergence-route-gap": "Div S computed intrinsically vs via -2 grad|H|^2 + 4 Div A_H",
    "trace-nabla-identity": "trace(nabla A_H) = grad|H|^2 + trace A_{dperp H} + curvature trace",
    "grad-mean-curvature-sq": "gradient of |H|^2 (zero iff constant mean curvature)",
    "nabla-shape-operator": "covariant derivative of the shape operator A_H",
    "normal-derivative-H": "normal-bundle derivative of the mean curvature vector",
    "stress-trace": "trace S = 4|H|^2",
    "stress-norm": "|S|^2 = 16|A_H|^2 - 24|H|^4",
    "hopf-holomorphicity": "W = Div A_H - grad|H|^2, zero iff the Hopf function is holomorphic",
    "codazzi-defect": "antisymmetric part of nabla A_H",
    "simons": "Laplacian identity for |S|^2 on biconservative surfaces",
    "integral-shape-operator": "compact-surface integral formula for |nabla A_H|^2",
    "integral-stress": "compact-surface integral formula for |nabla S|^2",
    "positivity-deficit": "negative part of 2|S|^2 - 16|H|^4 (should be >= 0)",
    "eigenvalue-sum": "lambda_1 + lambda_2 = 2|H|^2",
    "gap-equation": "-Lap w + 2 (K_N + |H|^2) e^{-w} - e^{w}/(2|H|^2) with w = log mu",
    "gauss-consistency": "K = K_N + |H|^2 - mu^2/(4|H|^2) for the reconstructed metric",
}


@dataclass(frozen=True)
class ResidualEntry:
    name: str
    paper_ref: str
    l2: float
    linf: float

    def __post_init__(self):
        if self.paper_ref not in REFERENCE_INDEX:
            raise ValueError(f"unknown reference key {self.paper_ref!r}")
        if self.l2 < 0 or self.linf < 0:
            raise ValueError("norms must be nonnegative")


@dataclass
class GeometryReport:
    meta: dict
    residuals: list = field(default_factory=list)
    summaries: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    fields: dict | None = None  # raw per-node fields, only on request

    def add(self, name: str, l2: float, linf: float):
        """Append a residual; its REFERENCE_INDEX key is ``name`` with dashes."""
        self.residuals.append(ResidualEntry(name, name.replace("_", "-"), float(l2), float(linf)))

    def residual(self, name: str) -> ResidualEntry:
        for r in self.residuals:
            if r.name == name:
                return r
        raise KeyError(name)


def _grid_meta(grid: Grid) -> dict:
    keys = ("nu", "nv", "u_min", "u_max", "v_min", "v_max", "periodic_u", "periodic_v")
    return {k: getattr(grid, k) for k in keys}


def build_geometry_report(
    jet: ImmersionJet,
    surface_label: str = "user",
    tol_analytic: float = TOL_ANALYTIC,
    tol_fd: float = TOL_FD,
    dump_fields: bool = False,
) -> GeometryReport:
    """Run the full residual suite on an immersion and collect the results."""
    geom = compute_geometry(jet)
    tol = tol_analytic if jet.source == "analytic" else tol_fd
    meta = {
        "surface": surface_label,
        "jet_source": jet.source,
        "ambient": jet.space.spec(),
        "grid": _grid_meta(jet.grid),
        "tolerance": tol,
    }
    rep = GeometryReport(meta)

    # FD-jet norms skip the one-sided stencil bands at open boundaries
    rep.meta["boundary_margin"] = geom.boundary_margin

    # Each row passes its field straight to the norm; the only node fields
    # that outlive a row are those several rows read, cached on geom.
    res = geom.biconservativity
    named = [
        ("stress_divergence", "cond1"),
        ("trace_balance", "cond2"),
        ("gradient_trace_balance", "cond3"),
        ("codazzi_trace_balance", "cond4"),
        ("divergence_route_gap", "divergence_route_gap"),
        ("trace_nabla_identity", "trace_identity"),
        ("grad_mean_curvature_sq", "grad_Hsq"),
    ]
    for name, key in named:
        rep.add(name, *checks.vector_norms(res[key], geom))

    rep.add("nabla_shape_operator", *checks.interior_norms(
        geom.nabla_AH_norm_sq, geom, squared=True))
    rep.add("normal_derivative_H", *checks.interior_norms(np.einsum(
        "...ab,...ab->...", geom.ginv,
        np.einsum("...am,...bm->...ab", geom.dperpH, geom.dperpH)), geom, squared=True))
    rep.add("stress_trace", *checks.interior_norms(
        geom.S2[..., 0, 0] + geom.S2[..., 1, 1] - 4.0 * geom.Hsq, geom))
    rep.add("eigenvalue_sum", *checks.interior_norms(
        np.add(*geom.principal[:2]) - 2.0 * geom.Hsq, geom))
    rep.add("stress_norm", *checks.interior_norms(
        geom.S2_norm_sq - 16.0 * geom.AH_norm_sq + 24.0 * geom.Hsq**2, geom))

    rep.add("hopf_holomorphicity", *checks.vector_norms(checks.hopf_residual(geom), geom))

    simons, simons_flagged = checks.simons_residual(
        geom, bicons_tol=tol, bicons_linf=rep.residual("stress_divergence").linf)
    rep.add("simons", *checks.interior_norms(simons, geom))
    del simons
    rep.flags["simons_assumes_biconservative_violated"] = simons_flagged

    rep.add("codazzi_defect", *checks.vector_norms(codazzi_defect_coords(geom.nabla_AH), geom))
    rep.add("positivity_deficit", *checks.interior_norms(
        np.maximum(-checks.positivity_quantity(geom), 0.0), geom))

    if geom.grid.doubly_periodic:
        integ = checks.integral_formula_check(geom)
        rep.add("integral_shape_operator", abs(integ["int_AH_gap"]), abs(integ["int_AH_gap"]))
        rep.add("integral_stress", abs(integ["int_S2_gap"]), abs(integ["int_S2_gap"]))
    else:
        rep.meta["integral_formulas"] = "skipped: grid not doubly periodic"

    lam1, lam2, mu, pu_mask = geom.principal
    rep.summaries = {
        "H_min": float(np.sqrt(np.min(geom.Hsq))),
        "H_max": float(np.sqrt(np.max(geom.Hsq))),
        "lambda1_min": float(np.min(lam1)),
        "lambda1_max": float(np.max(lam1)),
        "lambda2_min": float(np.min(lam2)),
        "lambda2_max": float(np.max(lam2)),
        "mu_min": float(np.min(mu)),
        "mu_max": float(np.max(mu)),
        "K_min": float(np.min(geom.K)),
        "K_max": float(np.max(geom.K)),
        "pseudoumbilical_fraction": float(np.mean(pu_mask)),
    }
    rep.flags.update({
        "is_cmc": rep.residual("grad_mean_curvature_sq").linf <= tol,
        "is_biconservative": rep.residual("stress_divergence").linf <= tol,
        "is_pmc": rep.residual("normal_derivative_H").linf <= tol,
        "ah_parallel": rep.residual("nabla_shape_operator").linf <= tol,
    })

    if dump_fields:
        rep.fields = {
            "Hsq": geom.Hsq,
            "K": geom.K,
            "lambda1": lam1,
            "lambda2": lam2,
            "mu": mu,
        }
    return rep


def build_mu_report(sol, dump_fields: bool = False) -> GeometryReport:
    """Report for a gap-equation solve: final residual, reconstruction checks."""
    from .mu_solver import gauss_consistency, mu_residual, reconstruct_geometry

    prob = sol.problem
    meta = {
        "surface": "mu-solution",
        "jet_source": "pde",
        "grid": _grid_meta(prob.grid),
        "H": prob.H,
        "KN_min": float(np.min(prob.KN)),
        "KN_max": float(np.max(prob.KN)),
        # the underlying identity is local; periodicity is a modeling choice
        "boundary_conditions": "doubly periodic",
        "iterations": sol.iterations,
    }
    rep = GeometryReport(meta)
    F = mu_residual(prob.grid, sol.mu, prob.H, prob.KN)
    for name, f in (("gap_equation", F), ("gauss_consistency", gauss_consistency(sol))):
        rep.add(name, float(np.sqrt(np.mean(f**2))), float(np.max(np.abs(f))))
    rep.flags["converged"] = sol.converged
    rep.summaries = {
        "mu_min": float(np.min(sol.mu)),
        "mu_max": float(np.max(sol.mu)),
        "final_residual_linf": sol.final_residual_linf,
    }
    if sol.converged:
        rec = reconstruct_geometry(sol)
        rep.summaries["lambda1_min"] = float(np.min(rec.lam1))
        rep.summaries["lambda1_max"] = float(np.max(rec.lam1))
        rep.summaries["lambda2_min"] = float(np.min(rec.lam2))
        rep.summaries["lambda2_max"] = float(np.max(rec.lam2))
    if dump_fields:
        rep.fields = {"mu": sol.mu, "residual": F}
    return rep


# deterministic serialization

def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if x != x:
            return '"nan"'
        if x in (float("inf"), float("-inf")):
            return f'"{x}"'
        return format(x, ".17g")
    if isinstance(x, str):
        if '"' in x or "\\" in x:  # never in base64: its fields skip the slow replace
            x = x.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{x}"'
    if x is None:
        return "null"
    raise TypeError(f"cannot serialize {type(x)}")


def _emit(obj, out: io.StringIO, indent: int):
    if isinstance(obj, dict):
        items, brackets = [(_fmt(str(k)) + ": ", v) for k, v in obj.items()], "{}"
    elif isinstance(obj, (list, tuple)):
        items, brackets = [("", v) for v in obj], "[]"
    else:
        out.write(_fmt(obj))
        return
    if not items:
        out.write(brackets)
        return
    pad = "  " * indent
    out.write(brackets[0] + "\n")
    for i, (prefix, v) in enumerate(items):
        out.write(pad + "  " + prefix)
        _emit(v, out, indent + 1)
        out.write(",\n" if i < len(items) - 1 else "\n")
    out.write(pad + brackets[1])


def _field_blob(a) -> dict:
    """A node field as its little-endian float64 bytes in C order (axis 0 =
    u), base64-encoded; ``np.frombuffer(binascii.a2b_base64(d["base64"]),
    d["dtype"]).reshape(d["shape"])`` gives it back bit for bit."""
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"dtype": "<f8", "shape": list(a.shape),
            "base64": binascii.b2a_base64(a, newline=False).decode("ascii")}


def report_to_json(rep: GeometryReport) -> str:
    doc = {
        "meta": rep.meta,
        "residuals": [
            {"name": r.name, "paper_ref": r.paper_ref, "l2": r.l2, "linf": r.linf}
            for r in rep.residuals
        ],
        "summaries": rep.summaries,
        "flags": rep.flags,
    }
    if rep.fields is not None:
        doc["fields"] = {k: _field_blob(v) for k, v in rep.fields.items()}
    return to_json(doc)


def to_json(doc) -> str:
    """``doc`` as the JSON text every command writes, ending in a newline."""
    out = io.StringIO()
    _emit(doc, out, 0)
    out.write("\n")
    return out.getvalue()


CSV_HEADER = "name,paper_ref,l2,linf"


def report_to_csv(rep: GeometryReport) -> str:
    lines = [CSV_HEADER]
    for r in rep.residuals:
        lines.append(f"{r.name},{r.paper_ref},{format(r.l2, '.17g')},{format(r.linf, '.17g')}")
    return "\n".join(lines) + "\n"

