"""Lemma routes and the isothermal chart, for the tests.

No command builds an isothermal chart or runs a lemma route: a report checks
every identity in the coordinates of the jet, with the operators of
``biconsurf.tensors.MetricCalculus``. The tests check those operators against
the lemmas below, on two carriers of ``MetricCalculus``: an immersed surface
in the coordinates of its jet (``immersion.SurfaceGeometry``), and an
isothermal :class:`ConformalChart` with metric ``g = e^{2 rho} (dx^2 +
dy^2)``. The operators that only the lemmas need (:func:`nabla`,
:func:`div_tensor`, :func:`grad_scalar`, :func:`hessian`,
:func:`rough_laplacian`) take the carrier as their first argument.

The last section holds what the package once ran and no command does:
the paper's equivalence matrix, the parallel-``A_H`` consequences, the
3-space-form targets and the interior node mask. ROADMAP item 4 brings back
into ``src/`` only what its ``implications`` block calls.

Sign conventions: the function Laplacian is the positive (geometer's)
operator ``Delta f = -div grad f``; the rough Laplacian is ``Delta^R T =
-trace grad^2 T``. The conformal Gauss curvature ``K = -e^{-2 rho} (rho_xx +
rho_yy)`` pins both (it gives +1/r^2 on the Mercator sphere chart).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from biconsurf.ambient import curvature_operator
from biconsurf.checks import hopf_residual, interior_norms, vector_norms
from biconsurf.grid import (
    Grid,
    fd_derivative,
    flat_gradient,
    flat_laplacian,
    integrate,
    interior_span,
    node_array,
)
from biconsurf.immersion import SurfaceGeometry, tangent_coords, trace_A_dperpH, trace_RN_H
from biconsurf.tensors import (
    MetricCalculus,
    codazzi_defect_coords,
    cov_derivative_coords,
    divergence_coords,
    holomorphicity_residual,
)


class NonIsothermalError(ValueError):
    """Metric is not conformal to the flat one within tolerance."""


# ---------------------------------------------------------------------------
# operators of a carrier that only the lemmas use
# ---------------------------------------------------------------------------


def nabla(carrier: MetricCalculus, T: np.ndarray) -> np.ndarray:
    """(nabla_a T)^i_j as S[..., a, i, j]."""
    return cov_derivative_coords(carrier.grid, T, carrier.gamma)


def div_tensor(carrier: MetricCalculus, T: np.ndarray) -> np.ndarray:
    """Div T, coordinate vector components (Div T)^i = g^{ab} (nabla_a T)^i_b."""
    return divergence_coords(nabla(carrier, T), carrier.ginv)


def grad_scalar(carrier: MetricCalculus, f: np.ndarray) -> np.ndarray:
    """grad f, coordinate vector components."""
    return np.einsum("...ij,...j->...i", carrier.ginv, flat_gradient(carrier.grid, f))


def hessian(carrier: MetricCalculus, f: np.ndarray) -> np.ndarray:
    """grad grad f as a (1,1) field: g^{ik} (d_k d_j f - Gamma^l_kj d_l f)."""
    grid = carrier.grid
    df = flat_gradient(grid, f)
    hess = node_array(grid, (2, 2))
    hess[..., 0, 0] = fd_derivative(grid, f, 0, 2)
    hess[..., 1, 1] = fd_derivative(grid, f, 1, 2)
    hess[..., 0, 1] = hess[..., 1, 0] = fd_derivative(grid, df[..., 0], 1, 1)
    hess -= np.einsum("...lkj,...l->...kj", carrier.gamma, df)
    return np.einsum("...ik,...kj->...ij", carrier.ginv, hess)


def rough_laplacian(carrier: MetricCalculus, T: np.ndarray) -> np.ndarray:
    """Delta^R T = -g^{ab} (nabla^2_{ab} T), mixed components."""
    S = nabla(carrier, T)
    gamma = carrier.gamma
    nabla2 = flat_gradient(carrier.grid, S)
    nabla2 += np.einsum("...iak,...bkj->...abij", gamma, S)
    nabla2 -= np.einsum("...kaj,...bik->...abij", gamma, S)
    nabla2 -= np.einsum("...cab,...cij->...abij", gamma, S)
    return -np.einsum("...ab,...abij->...ij", carrier.ginv, nabla2)


# ---------------------------------------------------------------------------
# isothermal charts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConformalChart(MetricCalculus):
    grid: Grid
    rho: np.ndarray  # conformal exponent, g = e^{2 rho} (dx^2 + dy^2)

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=np.float64)
        if rho.shape != self.grid.shape:
            raise ValueError("rho shape does not match grid")
        if not np.all(np.isfinite(rho)):
            raise ValueError("rho must be finite")
        object.__setattr__(self, "rho", rho)

    @cached_property
    def area_element(self) -> np.ndarray:
        """e^{2 rho} = sqrt(det g)."""
        return np.exp(2.0 * self.rho)

    @cached_property
    def g(self) -> np.ndarray:
        g = node_array(self.grid, (2, 2))
        g[..., 0, 0] = g[..., 1, 1] = self.area_element
        return g

    @cached_property
    def ginv(self) -> np.ndarray:
        ginv = node_array(self.grid, (2, 2))
        ginv[..., 0, 0] = ginv[..., 1, 1] = np.exp(-2.0 * self.rho)
        return ginv

    @cached_property
    def gamma(self) -> np.ndarray:
        """Gamma^k_ij of the conformal metric, from rho_x and rho_y."""
        rx = fd_derivative(self.grid, self.rho, 0, 1)
        ry = fd_derivative(self.grid, self.rho, 1, 1)
        gamma = node_array(self.grid, (2, 2, 2))
        gamma[..., 0, 0, 0] = rx
        gamma[..., 0, 0, 1] = gamma[..., 0, 1, 0] = ry
        gamma[..., 0, 1, 1] = -rx
        gamma[..., 1, 0, 0] = -ry
        gamma[..., 1, 0, 1] = gamma[..., 1, 1, 0] = rx
        gamma[..., 1, 1, 1] = ry
        return gamma

    @cached_property
    def gamma_trace(self) -> np.ndarray:
        """g^{ij} Gamma^k_ij, zero in isothermal coordinates."""
        return node_array(self.grid, (2,))


def conformal_chart_from_metric(grid: Grid, g: np.ndarray, tol: float = 1e-6) -> ConformalChart:
    """Extract rho from a numerically isothermal (0,2) metric field."""
    g = np.asarray(g, dtype=np.float64)
    scale = np.max(np.abs(g[..., 0, 0]))
    off = np.max(np.abs(g[..., 0, 1]))
    aniso = np.max(np.abs(g[..., 0, 0] - g[..., 1, 1]))
    if max(off, aniso) > tol * scale:
        raise NonIsothermalError(
            f"metric not isothermal: off-diag {off:.3e}, anisotropy {aniso:.3e}"
        )
    return ConformalChart(grid, 0.25 * np.log(g[..., 0, 0] * g[..., 1, 1]))


def gauss_curvature_conformal(chart: ConformalChart) -> np.ndarray:
    """K = -e^{-2 rho} (rho_xx + rho_yy)."""
    return -np.exp(-2.0 * chart.rho) * flat_laplacian(chart.grid, chart.rho)


# ---------------------------------------------------------------------------
# lemma routes, on either carrier
# ---------------------------------------------------------------------------


def divergence_routes(carrier: MetricCalculus, T: np.ndarray):
    """Div T by the trace route and by the lemma route
    grad tr T + g^{-1}(-D^1, D^0), with D the Codazzi defect of T."""
    S = nabla(carrier, T)
    D = codazzi_defect_coords(S)
    rotated = np.stack([-D[..., 1], D[..., 0]], axis=-1)
    lemma = grad_scalar(carrier, T[..., 0, 0] + T[..., 1, 1])
    lemma += np.einsum("...ij,...j->...i", carrier.ginv, rotated)
    return divergence_coords(S, carrier.ginv), lemma


def holomorphicity_residual_routes(carrier: MetricCalculus, T: np.ndarray):
    """d/dzbar of the Hopf function in isothermal coordinates: direct FD route
    and closed-formula route (e^{2 rho}/8) (-t_x + 2 <Div T, d_x>
    + i (t_y - 2 <Div T, d_y>))."""
    dt = flat_gradient(carrier.grid, T[..., 0, 0] + T[..., 1, 1])
    div = np.einsum("...ij,...j->...i", carrier.g, div_tensor(carrier, T))  # <Div T, d_i>
    closed = (carrier.area_element / 8.0) * (
        -dt[..., 0] + 2.0 * div[..., 0] + 1j * (dt[..., 1] - 2.0 * div[..., 1])
    )
    return holomorphicity_residual(carrier, T), closed


def weitzenbock_pairing_residual(carrier: MetricCalculus, T: np.ndarray, S: np.ndarray) -> float:
    """|int <Delta^R T, S> dv - int <grad T, grad S> dv| on a doubly periodic grid."""
    if not carrier.grid.doubly_periodic:
        raise ValueError("pairing identity needs a doubly periodic grid (no boundary terms)")
    dv = carrier.area_element
    lhs = integrate(carrier.grid, carrier.tensor_inner(rough_laplacian(carrier, T), S) * dv)
    rhs = integrate(carrier.grid, carrier.nabla_inner(nabla(carrier, T), nabla(carrier, S)) * dv)
    return abs(lhs - rhs)


def div_T_grad_alpha_residual(carrier: MetricCalculus, T: np.ndarray,
                              alpha: np.ndarray) -> np.ndarray:
    """Pointwise residual of Div(T(grad a)) = <Div T, grad a> + <T, Hess a>."""
    da = flat_gradient(carrier.grid, alpha)
    W = np.einsum("...ij,...j->...i", T, np.einsum("...ij,...j->...i", carrier.ginv, da))
    out = carrier.div_vector(W)
    out -= np.einsum("...i,...i->...", div_tensor(carrier, T), da)  # <Div T, grad a> = da(Div T)
    out -= carrier.tensor_inner(T, hessian(carrier, alpha))
    return out


# ---------------------------------------------------------------------------
# the paper's equivalences, parallel A_H and space-form targets, and the
# interior node mask: no command runs them
# ---------------------------------------------------------------------------


class NonConstantCurvaturesError(ValueError):
    """Space-form target derivation requires constant principal curvatures."""


def interior_mask(grid: Grid, margin: int) -> np.ndarray:
    """Boolean node mask excluding ``margin`` rows at each non-periodic edge."""
    mask = np.zeros(grid.shape, dtype=bool)
    mask[interior_span(grid, margin, 0), interior_span(grid, margin, 1)] = True
    return mask


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
