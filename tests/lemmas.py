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

Sign conventions: the function Laplacian is the positive (geometer's)
operator ``Delta f = -div grad f``; the rough Laplacian is ``Delta^R T =
-trace grad^2 T``. The conformal Gauss curvature ``K = -e^{-2 rho} (rho_xx +
rho_yy)`` pins both (it gives +1/r^2 on the Mercator sphere chart).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from biconsurf.grid import Grid, fd_derivative, flat_gradient, flat_laplacian, integrate, node_array
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
