"""Stress-bienergy tensor checks, the Hopf residual, and the Simons and
integral formulas.

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

from .grid import Grid, integrate, interior_span, quadrature_weights
from .immersion import (  # principal_curvatures and stress_bienergy are also read as checks.*
    SurfaceGeometry,
    principal_curvatures,
    stress_bienergy,
    trace_A_dperpH,
    trace_RN_H,
)
from .tensors import divergence_coords

# Not called here. perfbench/tracing.py's PATCH_POINTS still patch these
# bindings; ROADMAP item 7 drops those patch points, and then these imports.
from .tensors import codazzi_defect_coords, holomorphicity_residual  # noqa: F401


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
    """(L2, Linf) of |field| over the interior nodes of ``geom`` (those
    :func:`grid.interior_span` keeps), the L2 area-weighted;
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
