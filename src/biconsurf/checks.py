"""Stress-bienergy tensor checks, equivalence matrix, Simons and integral
formulas, parallel shape-operator diagnostics, space-form target derivation.

All residuals are reported both as area-weighted L2 and as L-infinity norms
of pointwise g-norms over the interior nodes (``grid.interior_span``) of the
whole grid, whoever asks: each goes through :func:`row_norms` on u-rows (a
report's strips each reduce their own) and :func:`combined_norms` once.
"Analytic" jets put them at round-off, finite difference jets at O(h^2).
Every check runs in the coordinates of the jet, with the operators of
``SurfaceGeometry``; none needs an isothermal chart. No check here decides
a report's verdict: each flag is read off its row in ``report.FLAGS``, and
the Simons gate is ``not is_biconservative``.
"""

from __future__ import annotations

import numpy as np

from .ambient import curvature_operator
from .grid import Grid, integrate, interior_span, quadrature_weights
from .immersion import (  # principal_curvatures and stress_bienergy are also read as checks.*
    SurfaceGeometry,
    principal_curvatures,
    stress_bienergy,
    tangent_coords,
    trace_A_dperpH,
    trace_RN_H,
)
from .tensors import codazzi_defect_coords, divergence_coords

# Not called here. perfbench/tracing.py's PATCH_POINTS still patch this
# binding; ROADMAP item 7 drops that patch point, and then this import.
from .tensors import holomorphicity_residual  # noqa: F401


class NonConstantCurvaturesError(ValueError):
    """Space-form target derivation requires constant principal curvatures."""


def area_weights(area_element: np.ndarray, grid: Grid, margin: int) -> np.ndarray:
    """The area element of some u-rows times the v quadrature weights, on the
    interior columns: each node's weight in an L2 norm."""
    cols = interior_span(grid, margin, 1)
    return area_element[:, cols] * quadrature_weights(grid, 1)[cols]


def row_norms(field: np.ndarray, weights: np.ndarray, grid: Grid, margin: int,
              squared: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Per row of some u-rows of a node field, over the interior columns: the
    max of |field| and the sum of |field|^2 times the rows' ``weights``
    (:func:`area_weights`), whatever other rows there are; with ``squared``,
    of sqrt(field) for a pointwise squared norm, whose sum takes no root.
    The band is cut before a signed field is squared, so junk there cannot
    overflow."""
    cols = interior_span(grid, margin, 1)
    f = np.maximum(field[:, cols], 0.0) if squared else np.abs(field[:, cols])  # clamp round-off
    top = np.maximum.reduce(f, axis=1)
    if not squared:
        f *= f
    f *= weights
    return np.sqrt(top) if squared else top, np.add.reduce(f, axis=1)


def combined_norms(grid: Grid, margin: int, top: np.ndarray, sums: np.ndarray,
                   areas: np.ndarray) -> tuple[float, float]:
    """(L2, Linf) over the interior rows of the whole grid, from the
    :func:`row_norms` of all its rows and the row sums of their
    :func:`area_weights`, which the L2 is normalized by."""
    rows = interior_span(grid, margin, 0)
    l2 = np.sqrt(integrate(grid, sums, rows) / integrate(grid, areas, rows))
    return float(l2), float(np.max(top[rows]))


def interior_norms(field: np.ndarray, geom: SurfaceGeometry,
                   squared: bool = False) -> tuple[float, float]:
    """(L2, Linf) of |field| over ``geom.interior``, the L2 area-weighted;
    with ``squared``, of sqrt(field) (:func:`row_norms`)."""
    grid, margin = geom.grid, geom.boundary_margin
    weights = area_weights(geom.area_element, grid, margin)
    return combined_norms(grid, margin, *row_norms(field, weights, grid, margin, squared),
                          np.add.reduce(weights, axis=1))


def vector_norms(V: np.ndarray, geom: SurfaceGeometry) -> tuple[float, float]:
    """(L2, Linf) of the pointwise g-norm of a coordinate vector field."""
    return interior_norms(geom.vec_norm_sq(V), geom, squared=True)


def biconservativity_residuals(geom: SurfaceGeometry) -> dict:
    """The four equivalent biconservativity conditions plus internal identities.

    Returns coordinate vector fields keyed ``cond1`` .. ``cond4`` (each zero
    iff the surface is biconservative), the divergence-route gap of the
    stress tensor, and the trace identity for nabla A_H. A report uses the
    copy cached as ``geom.biconservativity``.
    """
    div_S2 = divergence_coords(geom.nabla_S2, geom.ginv)
    div_AH = divergence_coords(geom.nabla_AH, geom.ginv)
    gH = geom.grad_Hsq
    div_S2_formula = -2.0 * gH + 4.0 * div_AH

    tA = trace_A_dperpH(geom)
    tR = trace_RN_H(geom)
    tr_nabla_AH = div_AH  # trace of nabla T equals Div T for symmetric T

    return {
        "cond1": div_S2,
        "cond2": tA + tr_nabla_AH + tR,
        "cond3": gH + 2.0 * tA + 2.0 * tR,
        "cond4": 2.0 * tr_nabla_AH - gH,
        "divergence_route_gap": div_S2 - div_S2_formula,
        "trace_identity": tr_nabla_AH - gH - tA - tR,
        "grad_Hsq": gH,
    }


def hopf_residual(geom: SurfaceGeometry) -> np.ndarray:
    """W = Div A_H - grad|H|^2 = Div T - 1/2 grad tr T for T = A_H, in the
    coordinates of the jet. In any isothermal chart |W|_g = 4 e^{-3 rho}
    |d/dzbar Phi| for the Hopf function Phi of A_H, so W = 0 iff Phi is
    holomorphic."""
    res = geom.biconservativity
    return 0.5 * (res["cond4"] - res["grad_Hsq"])


def equivalence_matrix(
    geom: SurfaceGeometry,
    chart: object,
    tol_pass: float,
    tol_implied: float,
) -> dict:
    """Residuals of the four equivalent surface conditions and the pairwise
    implication table: any two conditions passing must imply the others.

    ``chart`` is unused: the Hopf leg is ``hopf_residual``, which needs no
    isothermal chart, and the package builds none. The parameter stays for
    callers that pass one, or None."""
    res = geom.biconservativity
    _, r1 = vector_norms(res["cond1"], geom)
    _, r2 = vector_norms(res["grad_Hsq"], geom)
    _, r3 = vector_norms(hopf_residual(geom), geom)
    _, r4 = vector_norms(codazzi_defect_coords(geom.nabla_AH), geom)

    residuals = {"biconservative": r1, "cmc": r2, "hopf_holomorphic": r3, "codazzi": r4}
    keys = list(residuals)
    implications = []
    ok = True
    for i, ki in enumerate(keys):
        for kj in keys[i + 1 :]:
            if residuals[ki] <= tol_pass and residuals[kj] <= tol_pass:
                implied = all(v <= tol_implied for v in residuals.values())
                implications.append({"pair": (ki, kj), "implied_pass": implied})
                ok = ok and implied
    return {"residuals": residuals, "implications": implications, "all_implications_hold": ok}


def simons_residual(geom: SurfaceGeometry) -> np.ndarray:
    """Pointwise residual of the Simons-type identity for S2, in the
    coordinates of the jet:

        1/2 Delta |S2|^2 = -2K |S2|^2 + div S2(grad tau^2) + K tau^4
                           + 1/2 Delta tau^4 + |d tau^2|^2 - |nabla S2|^2

    with tau^2 = |tau(phi)|^2 = 4 |H|^2 and the positive Laplacian. grad tau^2
    and |d tau^2|^2 are 4 and 16 times the cached grad |H|^2 and |d |H|^2|^2,
    exactly, since scaling by a power of two is. The two Laplacians are
    taken one field at a time: on an isothermal jet they then round exactly
    as the chart stencil did, where one Laplacian of |S2|^2 - tau^4 moves
    the round-off by up to 4e-12.

    Valid only on biconservative input. The field is returned whatever the
    surface; a report gates it on its own stress-divergence row, as the flag
    ``simons_assumes_biconservative_violated``.
    """
    tau4 = (4.0 * geom.Hsq) ** 2
    out = geom.laplacian(geom.S2_norm_sq)
    out -= geom.laplacian(tau4)
    out *= 0.5
    out += geom.K * (2.0 * geom.S2_norm_sq - tau4)
    del tau4
    out -= geom.div_vector(np.einsum("...ij,...j->...i", geom.S2, 4.0 * geom.grad_Hsq))
    out -= 16.0 * geom.grad_Hsq_norm_sq
    out += geom.nabla_S2_norm_sq
    return out


def positivity_quantity(geom: SurfaceGeometry) -> np.ndarray:
    """2 |S2|^2 - |tau|^4 = 32 (|A_H|^2 - 2 |H|^4), nonnegative pointwise."""
    return 32.0 * (geom.AH_norm_sq - 2.0 * geom.Hsq**2)


INTEGRANDS = ("lhs_S2", "rhs_S2", "lhs_AH", "rhs_AH")


def integral_integrands(geom: SurfaceGeometry) -> dict:
    """The two sides of both compact-surface integral formulas as node
    fields times the area element, keyed by INTEGRANDS, in the coordinates
    of the jet."""
    dv = geom.area_element
    tau4 = (4.0 * geom.Hsq) ** 2
    K = geom.K
    return dict(zip(INTEGRANDS, (
        (geom.nabla_S2_norm_sq + 2.0 * K * (geom.S2_norm_sq - 0.5 * tau4)) * dv,
        16.0 * geom.grad_Hsq_norm_sq * dv,
        (geom.nabla_AH_norm_sq + 2.0 * K * (geom.AH_norm_sq - 2.0 * geom.Hsq**2)) * dv,
        2.5 * geom.grad_Hsq_norm_sq * dv,
    )))


def integral_formula_check(grid: Grid, integrands: dict) -> dict:
    """Both compact-surface integral formulas on a doubly periodic grid, from
    the :func:`integral_integrands` of the whole grid, as node fields or as
    the :func:`grid.row_integrals` of all their rows."""
    if not grid.doubly_periodic:
        raise ValueError("integral formulas need a doubly periodic (torus) grid")
    return {f"int_{t}_gap": integrate(grid, integrands[f"lhs_{t}"])
            - integrate(grid, integrands[f"rhs_{t}"]) for t in ("S2", "AH")}


def parallel_AH_checks(geom: SurfaceGeometry, tol: float) -> dict:
    """Norm of nabla A_H plus the consequences that must follow when it vanishes:
    constant eigenvalues, the curvature-commutation identity, the trace
    cancellation, and pseudoumbilical-or-flat."""
    l2, linf = interior_norms(geom.nabla_AH_norm_sq, geom, squared=True)
    lam1, lam2, mu, _ = geom.principal

    out = {
        "nabla_AH_l2": l2,
        "nabla_AH_linf": linf,
        "is_parallel": linf <= tol,
    }
    if linf <= tol:
        out["lambda_spread"] = float(
            max(np.ptp(lam1), np.ptp(lam2))
        )
        # A_{dperp_u H}(d_v) - A_{dperp_v H}(d_u) = (R^N(d_u, d_v) H)^T
        lhs = np.einsum(
            "...ic,...c->...i",
            geom.ginv,
            np.einsum("...cm,...m->...c", geom.B[..., :, 1, :], geom.dperpH[..., 0, :])
            - np.einsum("...cm,...m->...c", geom.B[..., :, 0, :], geom.dperpH[..., 1, :]),
        )
        rhs = tangent_coords(geom.jet, geom.ginv, curvature_operator(
            geom.space, geom.jet.d1[..., 0, :], geom.jet.d1[..., 1, :], geom.H))
        _, out["commutation_linf"] = vector_norms(lhs - rhs, geom)
        tA = trace_A_dperpH(geom)
        tR = trace_RN_H(geom)
        _, out["trace_cancellation_linf"] = vector_norms(tA + tR, geom)
        out["flat_or_pseudoumbilical_gap"] = float(
            min(np.max(np.abs(mu)), np.max(np.abs(geom.K)))
        )
    return out


def derive_spaceform_target(lam1, lam2, mode: str, K=None, tol: float = 1e-8):
    """Constant sectional curvature c and mean curvature |H| of the local
    3-space-form immersion whose shape operator is A_H or S2.

    ``lam1``/``lam2`` may be fields (constancy is enforced) or scalars.
    Umbilical modes additionally require a flat surface (K = 0).
    """
    lam1 = np.asarray(lam1, dtype=np.float64)
    lam2 = np.asarray(lam2, dtype=np.float64)
    for lam in (lam1, lam2):
        spread = float(np.ptp(lam)) if lam.ndim else 0.0
        if spread > tol * (1.0 + float(np.max(np.abs(lam)))):
            raise NonConstantCurvaturesError(
                f"principal curvatures not constant (spread {spread:.3e})"
            )
    l1 = float(np.mean(lam1))
    l2 = float(np.mean(lam2))
    if l1 < l2:
        raise ValueError("expected lam1 >= lam2")
    hsq = 0.5 * (l1 + l2)
    mu = l1 - l2

    if mode in ("umbilical_A_H", "umbilical_S2"):
        if mu > tol * (1.0 + abs(l1)):
            raise ValueError("umbilical modes require lam1 = lam2")
        if K is None or float(np.max(np.abs(K))) > tol * (1.0 + hsq**2):
            raise ValueError("umbilical modes require a flat surface (K = 0)")
        if mode == "umbilical_A_H":
            return -(hsq**2), hsq
        return -4.0 * hsq**2, 2.0 * hsq

    if mu <= tol * (1.0 + abs(l1)):
        raise ValueError(f"mode {mode!r} requires lam1 > lam2; use an umbilical mode")
    if mode == "A_H":
        return mu**2 / 4.0 - hsq**2, hsq
    if mode == "S2":
        return 4.0 * (mu**2 - hsq**2), 2.0 * hsq
    raise ValueError(f"unknown mode {mode!r}")
