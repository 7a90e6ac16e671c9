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
time on two threads (:func:`build_geometry_report`; the README's
"Performance" section says why). Each strip takes its own metric, and a
finite-difference jet's d1 and d2, from its own rows, reduces each row of
every node field to a few numbers, which the calling thread combines once.
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
from .grid import Grid, row_integrals, take_rows
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
# float64 values per node that a strip holds at its peak (tracemalloc, 256^2)
STRIP_VALUES = 128
# Threads that run a report's strips: the calling thread and one helper.
# numpy releases the GIL in the einsums and stencils of a strip.
STRIP_THREADS = 2
# A grid of fewer strips than this is taken whole, as one strip, which is
# below 192^2 at STRIP_NODES: on smaller splits the fixed cost of each strip
# and its halo rows outweighed what the cache saved (measured on one thread
# from 128^2 to 256^2, with and without a block of whole-grid fields; README).
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
# the node fields that the summaries read the min and max of, and that
# --dump-fields writes, in its order
SUMMARY_FIELDS = ("Hsq", "K", "lambda1", "lambda2", "mu")


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


def _reduce_strips(jet: ImmersionJet, integrals: bool, dump: bool):
    """(the per-row parts of every value a report takes from a node field;
    with ``dump``, the SUMMARY_FIELDS of the whole grid, else None). Each
    strip, on STRIP_THREADS threads (:func:`_run_strips`), writes the parts
    of its own rows and is freed. A norm cuts rows by their row in the whole
    grid, never by a strip's own interior, which is open in u.

    A strip checks its derivatives and its metric on its rows in grid order
    and names the first bad node, whatever its fault, by its row in the
    grid. The rows that it shares with the strips before it passed their
    checks, so it names the node that the whole grid's check names; with
    the periodic shift, rows 0 .. HALO - 1 are the first strip's lower
    halo."""
    grid, cuts, margin = jet.grid, _cuts(jet.grid), jet.boundary_margin
    parts = {key: np.zeros((2, grid.nu)) for key in [row[0] for row in ROWS] + [*SUMMARY_FIELDS]}
    parts.update((key, np.zeros(grid.nu)) for key in ("area", "pu_mask", *checks.INTEGRANDS))
    dumped = {name: np.empty(grid.shape) for name in SUMMARY_FIELDS} if dump else None

    def run(k):
        lo, hi = cuts[k], cuts[k + 1]
        # errstate is a context variable, which a new thread starts afresh
        with np.errstate(all="ignore"):
            geom = compute_geometry(_strip_jet(jet, lo, hi) if len(cuts) > 2 else jet)
            own = slice(lo - geom.grid.first_row, hi - geom.grid.first_row)
            # a strip past nu owns rows 0 .. hi - nu - 1
            at = slice(lo, hi) if hi <= grid.nu else np.arange(lo, hi) % grid.nu
            weights = checks.area_weights(geom.area_element[own], grid, margin)
            parts["area"][at] = np.add.reduce(weights, axis=1)
            for name, squared, _, fn in ROWS:
                parts[name][:, at] = checks.row_norms(fn(geom)[own], weights, grid, margin,
                                                      squared)
            if integrals:
                for name, f in checks.integral_integrands(geom).items():
                    parts[name][at] = row_integrals(grid, f[own])
            for name, f in zip(SUMMARY_FIELDS, (geom.Hsq, geom.K, *geom.principal[:3])):
                f = f[own]
                parts[name][:, at] = np.minimum.reduce(f, axis=1), np.maximum.reduce(f, axis=1)
                if dump:
                    dumped[name][at] = f
            parts["pu_mask"][at] = np.count_nonzero(geom.principal[3][own], axis=1)

    _run_strips(len(cuts) - 1, run)
    # Freeing an untouched buffer the size of the strips in flight raises
    # glibc's mmap threshold to it and its trim threshold to twice it (up to
    # 32 MiB; mallopt(3)): the next report's strips reuse this heap instead
    # of faulting it in afresh (8,300 minor faults per 256^2 FD report
    # without it, 500 with it). Before the strips it raises this one's peak.
    nodes = min(len(cuts) - 1, STRIP_THREADS) * (max(np.diff(cuts)) + 2 * HALO) * grid.nv
    np.empty(min(nodes * STRIP_VALUES, 4 << 20))
    return parts, dumped


def build_geometry_report(
    jet: ImmersionJet,
    surface_label: str = "user",
    tol_analytic: float = TOL_ANALYTIC,
    tol_fd: float = TOL_FD,
    dump_fields: bool = False,
) -> GeometryReport:
    """Run the full residual suite on an immersion and collect the results.

    The suite runs on u-strips of the grid, on STRIP_THREADS threads, each
    reducing its rows of every node field to per-row parts
    (:func:`_reduce_strips`); every norm, integral, extremum and flag is
    then taken once from those parts, on the calling thread. Only with
    ``dump_fields`` is a node field of the whole grid kept. A grid of
    several strips raises the error of its first failing strip, after every
    strip has stopped."""
    grid, margin = jet.grid, jet.boundary_margin
    tol = tol_analytic if jet.source == "analytic" else tol_fd
    # floating-point exceptions are dealt with by value: a row that is not
    # finite raises below
    with np.errstate(all="ignore"):
        parts, dumped = _reduce_strips(jet, grid.doubly_periodic, dump_fields)
        rep = GeometryReport({
            "surface": surface_label,
            "jet_source": jet.source,
            "ambient": jet.space.spec(),
            "grid": _grid_meta(grid),
            "tolerance": tol,
            # FD-jet norms skip the one-sided stencil bands at open boundaries
            "boundary_margin": margin,
        })
        for name, *_ in ROWS:
            rep.add(name, *checks.combined_norms(grid, margin, *parts[name], parts["area"]))
        if grid.doubly_periodic:
            integ = checks.integral_formula_check(grid, parts)
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
    ends = {name: (np.min(parts[name][0]), np.max(parts[name][1])) for name in SUMMARY_FIELDS}
    ends["H"] = np.sqrt(ends["Hsq"])
    rep.summaries = {f"{name}_{end}": float(x) for name in ("H", "lambda1", "lambda2", "mu", "K")
                     for end, x in zip(("min", "max"), ends[name])}
    rep.summaries["pseudoumbilical_fraction"] = float(np.sum(parts["pu_mask"])
                                                      / (grid.nu * grid.nv))
    rep.fields = dumped
    return rep


def build_mu_report(sol, dump_fields: bool = False) -> GeometryReport:
    """Report for a gap-equation solve: final residual, reconstruction checks."""
    from .mu_solver import gauss_consistency, l2_norm, reconstruct_geometry

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
    # gap_equation is the solve's own residual at its mu; one that is not
    # finite (a solve that stopped on it) the report writes as such
    with np.errstate(all="ignore"):
        gauss = gauss_consistency(sol)
    for name, f in (("gap_equation", sol.residual), ("gauss_consistency", gauss)):
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
        rep.fields = {"mu": sol.mu, "residual": sol.residual}
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

