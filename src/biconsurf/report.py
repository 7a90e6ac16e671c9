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

A geometry report runs its suite on u-strips of the grid, two strips at a
time on two threads, and takes every norm once on the whole grid
(:func:`build_geometry_report`; the README's "Performance" section says
why). Each strip takes its own metric, and a finite-difference jet's d1 and
d2, from its own rows, and its geometry is freed once its rows are written.
The report is the same, byte for byte, for any strip and thread count.

This module owns every per-row decision: ``ROWS`` says how each row is
normed and whether ``convergence`` takes its decay order, and ``FLAGS``
names the row each flag reads. ``simons_assumes_biconservative_violated``,
the gate of the Simons row, is ``not is_biconservative``.
"""

from __future__ import annotations

import binascii
import io
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from . import checks
from .grid import Grid, GridInterior, take_rows
from .immersion import ImmersionJet, compute_geometry, fd_jet
from .tensors import codazzi_defect_coords

# Not called here. perfbench/tracing.py's PATCH_POINTS still patch this
# binding; ROADMAP item 7 drops that patch point, and then this import.
from .tensors import holomorphicity_residual  # noqa: F401

# Nodes in one u-strip of a report: 24 rows at 256^2, whose temporaries are
# small enough for the allocator to reuse from strip to strip, with two
# strips in flight (24 rows peaked lower than 32, and ran faster than 16
# and 20; see the README).
STRIP_NODES = 6144
# Threads that run a report's strips: the calling thread and one helper.
# numpy releases the GIL in the einsums and stencils of a strip.
STRIP_THREADS = 2
# A grid of fewer strips than this is taken whole, as one strip, which is
# below 192^2 at STRIP_NODES: on smaller splits the fixed cost of each strip
# and its halo rows outweighed what the cache saved (measured on one thread
# from 128^2 to 256^2; see the README).
MIN_STRIPS = 6
# Halo rows on each side of a strip: every row is pointwise in the jet with
# at most two nested finite differences along u (the Simons divergence of
# S2 grad|H|^2), so a node depends only on the rows within HALO of it.
HALO = 2

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


def _vec_row(key):
    return lambda geom: geom.vec_norm_sq(geom.biconservativity[key])


# (row, whether its field is a squared norm, whether `convergence` estimates
# its decay order, its node field on a geometry), in report order
ROWS = (
    ("stress_divergence", True, True, _vec_row("cond1")),
    ("trace_balance", True, True, _vec_row("cond2")),
    ("gradient_trace_balance", True, True, _vec_row("cond3")),
    ("codazzi_trace_balance", True, True, _vec_row("cond4")),
    ("divergence_route_gap", True, True, _vec_row("divergence_route_gap")),
    ("trace_nabla_identity", True, True, _vec_row("trace_identity")),
    ("grad_mean_curvature_sq", True, False, _vec_row("grad_Hsq")),
    ("nabla_shape_operator", True, False, lambda geom: geom.nabla_AH_norm_sq),
    ("normal_derivative_H", True, False, lambda geom: np.einsum(
        "...ab,...ab->...", geom.ginv,
        np.einsum("...am,...bm->...ab", geom.dperpH, geom.dperpH))),
    ("stress_trace", False, True,
     lambda geom: geom.S2[..., 0, 0] + geom.S2[..., 1, 1] - 4.0 * geom.Hsq),
    ("eigenvalue_sum", False, False, lambda geom: np.add(*geom.principal[:2]) - 2.0 * geom.Hsq),
    ("stress_norm", False, True,
     lambda geom: geom.S2_norm_sq - 16.0 * geom.AH_norm_sq + 24.0 * geom.Hsq**2),
    ("hopf_holomorphicity", True, False,
     lambda geom: geom.vec_norm_sq(checks.hopf_residual(geom))),
    # valid on biconservative input only: simons_assumes_biconservative_violated
    # gates it. Looked up in checks when called, so a patched binding is run.
    ("simons", False, True, lambda geom: checks.simons_residual(geom)),
    ("codazzi_defect", True, True,
     lambda geom: geom.vec_norm_sq(codazzi_defect_coords(geom.nabla_AH))),
    ("positivity_deficit", False, False,
     lambda geom: np.maximum(-checks.positivity_quantity(geom), 0.0)),
)
# (flag, the row whose L-inf within the tolerance it states), in report order
FLAGS = (
    ("is_cmc", "grad_mean_curvature_sq"),
    ("is_biconservative", "stress_divergence"),
    ("is_pmc", "normal_derivative_H"),
    ("ah_parallel", "nabla_shape_operator"),
)
# the node fields of the summaries, the dump and the norms' area element;
# a block of several strips keeps the pseudoumbilical mask as 0.0 and 1.0,
# whose mean is the same
SUMMARY_FIELDS = (
    ("Hsq", lambda geom: geom.Hsq),
    ("K", lambda geom: geom.K),
    ("lambda1", lambda geom: geom.principal[0]),
    ("lambda2", lambda geom: geom.principal[1]),
    ("mu", lambda geom: geom.principal[2]),
    ("pu_mask", lambda geom: geom.principal[3]),
    ("area_element", lambda geom: geom.area_element),
)


def _node_fields(geom, integrals: bool):
    """(key, node field) of every row, integrand and summary of a report, on
    one geometry, computed as they are asked for."""
    for name, *_, fn in ROWS:
        yield name, fn(geom)
    if integrals:
        yield from checks.integral_integrands(geom).items()
    for name, fn in SUMMARY_FIELDS:
        yield name, fn(geom)


def _cuts(grid: Grid) -> list:
    """Row cuts of a grid's u-strips, of about STRIP_NODES nodes and at least
    HALO rows each, or [0, nu] for fewer than MIN_STRIPS; ``k nu // n``, so
    no short strip is left at an edge. On a periodic u axis the cuts are
    moved up by HALO, so that only the last strip, which runs past nu, wraps
    around and is copied."""
    n = grid.nu // max(STRIP_NODES // grid.nv, HALO)
    if n < MIN_STRIPS:
        return [0, grid.nu]
    shift = HALO if grid.periodic_u else 0
    return [shift + k * grid.nu // n for k in range(n + 1)]


def _strip_jet(jet: ImmersionJet, lo: int, hi: int) -> ImmersionJet:
    """The jet of rows ``lo`` .. ``hi - 1`` and HALO rows on each side,
    wrapped on a periodic u axis and cut at an open edge, whose one-sided
    stencils are then the grid's. A jet of positions alone is differenced
    from one more row on each side, cut likewise (:func:`fd_jet`)."""
    def widened(pad):
        a, b = lo - pad, hi + pad
        return (a, b) if jet.grid.periodic_u else (max(a, 0), min(b, jet.grid.nu))

    a, b = widened(HALO + (jet.d1 is None))
    rows = [None if x is None else take_rows(x, a, b) for x in (jet.pos, jet.d1, jet.d2, jet.d3)]
    strip = ImmersionJet(jet.grid.u_strip(a, b), jet.space, *rows, source=jet.source)
    if jet.d1 is not None:
        return strip
    c, d = widened(HALO)
    return fd_jet(strip, c - a, d - a)


def _run_strips(n: int, run):
    """Call ``run(k)`` for k = 0 .. n - 1, in increasing k, on the calling
    thread and STRIP_THREADS - 1 helper threads, which are joined before
    this returns. A thread takes no new k once a call has raised; then the
    error of the lowest failing k is raised, which is the error that calling
    them in turn raises."""
    todo, errors, lock = list(range(n - 1, -1, -1)), {}, threading.Lock()

    def work():
        while True:
            with lock:
                if errors or not todo:
                    return
                k = todo.pop()
            try:
                run(k)
            except Exception as e:
                with lock:
                    errors[k] = e

    helpers = [threading.Thread(target=work) for _ in range(STRIP_THREADS - 1)]
    for t in helpers:
        t.start()
    try:
        work()
    finally:
        with lock:
            todo.clear()
        for t in helpers:
            t.join()
    if errors:
        raise errors[min(errors)]


def _report_fields(jet: ImmersionJet, integrals: bool):
    """(the nodes a norm is taken over, an iterator of each (key, node field)
    of :func:`_node_fields` on the whole grid). A grid of one strip is the
    jet's own geometry, whose fields come as they are asked for. On several,
    each strip (:func:`_strip_jet`) writes only its own rows of each field,
    on STRIP_THREADS threads (:func:`_run_strips`), and its geometry is freed
    when it is written.

    A strip checks its derivatives and its metric on its rows in grid order
    and names the first bad node, whatever its fault, by its row in the
    grid. The rows that it shares with the strips before it passed their
    checks, so it names the node that the whole grid's check names; with
    the periodic shift, rows 0 .. HALO - 1 are the first strip's lower
    halo."""
    grid, cuts = jet.grid, _cuts(jet.grid)
    if len(cuts) == 2:
        geom = compute_geometry(jet)
        return geom, _node_fields(geom, integrals)
    # One block holds every field of the whole grid: with a field apiece,
    # each freed at the end of a report, the heap shrinks and grows back
    # (about 4,000 page faults per 256^2 report).
    keys = ([name for name, *_ in ROWS] + list(checks.INTEGRANDS if integrals else ())
            + [name for name, _ in SUMMARY_FIELDS])
    full = dict(zip(keys, np.empty((len(keys),) + grid.shape)))

    def run(k):
        lo, hi = cuts[k], cuts[k + 1]
        # errstate is a context variable, which a new thread starts afresh
        with np.errstate(all="ignore"):
            geom = compute_geometry(_strip_jet(jet, lo, hi))
            a = geom.grid.first_row
            m = min(hi, grid.nu)  # a strip past nu owns rows 0 .. hi - nu - 1 too
            for key, f in _node_fields(geom, integrals):
                full[key][lo:m] = f[lo - a:m - a]
                if hi > m:
                    full[key][:hi - m] = f[m - a:hi - a]

    _run_strips(len(cuts) - 1, run)
    return GridInterior(grid, jet.boundary_margin, full["area_element"]), iter(full.items())


def build_geometry_report(
    jet: ImmersionJet,
    surface_label: str = "user",
    tol_analytic: float = TOL_ANALYTIC,
    tol_fd: float = TOL_FD,
    dump_fields: bool = False,
) -> GeometryReport:
    """Run the full residual suite on an immersion and collect the results.

    The suite runs on u-strips of the grid, on STRIP_THREADS threads
    (:func:`_report_fields`), and every norm, integral, extremum and flag
    is then taken once, on the node fields of the whole grid, on the
    calling thread. A grid of several strips raises the error of its first
    failing strip, after every strip has stopped."""
    grid = jet.grid
    tol = tol_analytic if jet.source == "analytic" else tol_fd
    squared = {name: sq for name, sq, *_ in ROWS}
    # floating-point exceptions are dealt with by value: a row that is not
    # finite raises below
    with np.errstate(all="ignore"):
        nodes, fields = _report_fields(jet, grid.doubly_periodic)
        rep = GeometryReport({
            "surface": surface_label,
            "jet_source": jet.source,
            "ambient": jet.space.spec(),
            "grid": _grid_meta(grid),
            "tolerance": tol,
            # FD-jet norms skip the one-sided stencil bands at open boundaries
            "boundary_margin": nodes.boundary_margin,
        })
        full = {}  # the integrands and the summary fields
        for key, f in fields:  # on one strip, a row's field is dropped once normed
            if key in squared:
                rep.add(key, *checks.interior_norms(f, nodes, squared=squared[key]))
            else:
                full[key] = f
        if grid.doubly_periodic:
            integ = checks.integral_formula_check(grid, full)
            rep.add("integral_shape_operator", abs(integ["int_AH_gap"]), abs(integ["int_AH_gap"]))
            rep.add("integral_stress", abs(integ["int_S2_gap"]), abs(integ["int_S2_gap"]))
        else:
            rep.meta["integral_formulas"] = "skipped: grid not doubly periodic"
    for r in rep.residuals:
        if not (math.isfinite(r.l2) and math.isfinite(r.linf)):
            raise FloatingPointError(f"residual {r.name} not finite")

    # every row is finite here, so a flag is false exactly past the tolerance
    flags = {flag: rep.residual(row).linf <= tol for flag, row in FLAGS}
    rep.flags = {"simons_assumes_biconservative_violated": not flags["is_biconservative"],
                 **flags}
    Hsq, K = full["Hsq"], full["K"]
    rep.summaries = {
        "H_min": float(np.sqrt(np.min(Hsq))),
        "H_max": float(np.sqrt(np.max(Hsq))),
        "lambda1_min": float(np.min(full["lambda1"])),
        "lambda1_max": float(np.max(full["lambda1"])),
        "lambda2_min": float(np.min(full["lambda2"])),
        "lambda2_max": float(np.max(full["lambda2"])),
        "mu_min": float(np.min(full["mu"])),
        "mu_max": float(np.max(full["mu"])),
        "K_min": float(np.min(K)),
        "K_max": float(np.max(K)),
        "pseudoumbilical_fraction": float(np.mean(full["pu_mask"])),
    }
    if dump_fields:
        # copies, so that a block of several strips is freed before the
        # report is written
        rep.fields = {key: full[key].copy() for key in ("Hsq", "K", "lambda1", "lambda2", "mu")}
    return rep


def build_mu_report(sol, dump_fields: bool = False) -> GeometryReport:
    """Report for a gap-equation solve: final residual, reconstruction checks."""
    from .mu_solver import gauss_consistency, l2_norm, mu_residual, reconstruct_geometry

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
    # a solve that stopped on a residual that is not finite finds it here
    # again, and the report writes it as such
    with np.errstate(all="ignore"):
        F = mu_residual(prob.grid, sol.mu, prob.H, prob.KN)
        gauss = gauss_consistency(sol)
    for name, f in (("gap_equation", F), ("gauss_consistency", gauss)):
        # the RMS, by way of f / max|f|: it is at most the L-inf, so finite with it
        rep.add(name, l2_norm(f) / math.sqrt(f.size), float(np.max(np.abs(f))))
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

