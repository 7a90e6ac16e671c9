"""Intrinsic calculus for symmetric (1,1) tensor fields on 2D charts.

Tensor fields are passed as ``(nu, nv, 2, 2)`` arrays of mixed components
``T[i, j] = T^i_j`` (g-symmetric operators). The general-coordinate core
(covariant derivative, Codazzi defect, divergence) takes explicit
``ginv``/``gamma`` arrays and serves immersed surfaces in any
parametrization; the scalar operators of a surface in its own coordinates
are methods of ``immersion.SurfaceGeometry``. The rest works on an
isothermal :class:`ConformalChart` with metric ``g = e^{2 rho} (dx^2 +
dy^2)``: a report needs one only for the Hopf function and its d/dzbar,
and the gap-equation solver for the curvature of its reconstructed metric.

Sign conventions: the function Laplacian used in the geometric identities
is the positive (geometer's) operator ``Delta f = -div grad f``; the rough
Laplacian is ``Delta^R T = -trace grad^2 T``. The conformal Gauss curvature
``K = -e^{-2 rho} (rho_xx + rho_yy)`` pins both (it gives +1/r^2 on the
Mercator sphere chart).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Grid, fd_derivative, flat_gradient, flat_laplacian, integrate, node_array


class NonIsothermalError(ValueError):
    """Metric is not conformal to the flat one within tolerance."""


class InternalConsistencyError(RuntimeError):
    """Two independent computation routes disagree beyond expectation."""


@dataclass(frozen=True)
class ConformalChart:
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
    def e2r(self) -> np.ndarray:
        return np.exp(2.0 * self.rho)

    @cached_property
    def em2r(self) -> np.ndarray:
        return np.exp(-2.0 * self.rho)

    @cached_property
    def gamma(self) -> np.ndarray:
        return christoffel_isothermal(self)

    @cached_property
    def area_element(self) -> np.ndarray:
        return self.e2r


def flat_chart(grid: Grid) -> ConformalChart:
    return ConformalChart(grid, np.zeros(grid.shape))


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


def christoffel_isothermal(chart: ConformalChart) -> np.ndarray:
    """Christoffel symbols Gamma[k, i, j] = Gamma^k_{ij} of the conformal metric."""
    rx = fd_derivative(chart.grid, chart.rho, 0, 1)
    ry = fd_derivative(chart.grid, chart.rho, 1, 1)
    gamma = node_array(chart.grid, (2, 2, 2))
    gamma[..., 0, 0, 0] = rx
    gamma[..., 0, 0, 1] = ry
    gamma[..., 0, 1, 0] = ry
    gamma[..., 0, 1, 1] = -rx
    gamma[..., 1, 0, 0] = -ry
    gamma[..., 1, 0, 1] = rx
    gamma[..., 1, 1, 0] = rx
    gamma[..., 1, 1, 1] = ry
    return gamma


# ---------------------------------------------------------------------------
# general-coordinate core (explicit Christoffels)
# ---------------------------------------------------------------------------


def cov_derivative_coords(grid: Grid, T: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(nabla_a T)^i_j as S[..., a, i, j], from FD of components plus Gamma terms."""
    dT = flat_gradient(grid, T)
    corr1 = np.einsum("...iak,...kj->...aij", gamma, T)
    corr2 = np.einsum("...kaj,...ik->...aij", gamma, T)
    return dT + corr1 - corr2


def codazzi_defect_coords(S: np.ndarray) -> np.ndarray:
    """(nabla_x T)(dy) - (nabla_y T)(dx) from S = nabla T, coordinate vector
    components."""
    return S[..., 0, :, 1] - S[..., 1, :, 0]


def divergence_coords(S: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """Div T = trace of S = nabla T, coordinate vector components (Div T)^i."""
    return np.einsum("...ab,...aib->...i", ginv, S)


# ---------------------------------------------------------------------------
# conformal-chart operations
# ---------------------------------------------------------------------------


def cov_derivative(chart: ConformalChart, T: np.ndarray) -> np.ndarray:
    return cov_derivative_coords(chart.grid, T, chart.gamma)


def codazzi_defect(chart: ConformalChart, T: np.ndarray) -> np.ndarray:
    return codazzi_defect_coords(cov_derivative(chart, T))


def tensor_trace(T: np.ndarray) -> np.ndarray:
    return T[..., 0, 0] + T[..., 1, 1]


def _trace_route(chart: ConformalChart, S: np.ndarray) -> np.ndarray:
    return chart.em2r[..., None] * (S[..., 0, :, 0] + S[..., 1, :, 1])


def divergence_routes(chart: ConformalChart, T: np.ndarray):
    """Div T by the trace route and by the grad-trace-minus-Z route."""
    S = cov_derivative(chart, T)
    grad_t = grad_vec(chart, tensor_trace(T))
    D = codazzi_defect_coords(S)
    Z = np.empty_like(D)
    Z[..., 0] = chart.em2r * D[..., 1]
    Z[..., 1] = -chart.em2r * D[..., 0]
    return _trace_route(chart, S), grad_t - Z


def divergence(chart: ConformalChart, T: np.ndarray, consistency_tol: float | None = None) -> np.ndarray:
    """Div T by the trace route; with ``consistency_tol``, checked against the
    lemma route."""
    if consistency_tol is None:
        return _trace_route(chart, cov_derivative(chart, T))
    trace_route, lemma_route = divergence_routes(chart, T)
    gap = np.max(np.sqrt(vec_norm_sq(chart, trace_route - lemma_route)))
    if gap > consistency_tol:
        raise InternalConsistencyError(
            f"divergence routes disagree by {gap:.3e} > {consistency_tol:.3e}"
        )
    return trace_route


def lower_index(chart: ConformalChart, T: np.ndarray) -> np.ndarray:
    """Mixed (1,1) components to (0,2) components."""
    return chart.e2r[..., None, None] * T


def raise_index(chart: ConformalChart, T02: np.ndarray) -> np.ndarray:
    return chart.em2r[..., None, None] * T02


def hopf_differential(chart: ConformalChart, T: np.ndarray) -> np.ndarray:
    """<T(dz), dz> in isothermal coordinates, a complex scalar field."""
    T02 = lower_index(chart, T)
    return 0.25 * (
        T02[..., 0, 0] - T02[..., 1, 1] - 1j * (T02[..., 0, 1] + T02[..., 1, 0])
    )


def holomorphicity_residual(chart: ConformalChart, T: np.ndarray) -> np.ndarray:
    """d/dzbar of the Hopf function, by finite differences of the function."""
    hopf = hopf_differential(chart, T)
    return 0.5 * (
        fd_derivative(chart.grid, hopf, 0, 1) + 1j * fd_derivative(chart.grid, hopf, 1, 1)
    )


def holomorphicity_residual_routes(chart: ConformalChart, T: np.ndarray):
    """d/dzbar of the Hopf function: direct FD route and closed-formula route."""
    t = tensor_trace(T)
    tx = fd_derivative(chart.grid, t, 0, 1)
    ty = fd_derivative(chart.grid, t, 1, 1)
    div = divergence(chart, T)
    div_x = chart.e2r * div[..., 0]  # <Div T, d_x>
    div_y = chart.e2r * div[..., 1]
    closed = (chart.e2r / 8.0) * (-tx + 2.0 * div_x + 1j * (ty - 2.0 * div_y))
    return holomorphicity_residual(chart, T), closed


def rough_laplacian(chart: ConformalChart, T: np.ndarray) -> np.ndarray:
    """Delta^R T = -trace_g grad^2 T, mixed components."""
    S = cov_derivative(chart, T)
    gamma = chart.gamma
    dS = flat_gradient(chart.grid, S)
    term_i = np.einsum("...iak,...bkj->...abij", gamma, S)
    term_j = np.einsum("...kaj,...bik->...abij", gamma, S)
    term_c = np.einsum("...cab,...cij->...abij", gamma, S)
    nabla2 = dS + term_i - term_j - term_c
    trace = chart.em2r[..., None, None] * (nabla2[..., 0, 0, :, :] + nabla2[..., 1, 1, :, :])
    return -trace


def tensor_inner(chart: ConformalChart, T: np.ndarray, S: np.ndarray) -> np.ndarray:
    """<T, S> pointwise; on a conformal chart orthonormal-frame components
    of a (1,1) field coincide with its mixed coordinate components."""
    return np.einsum("...ij,...ij->...", T, S)


def cov_deriv_inner(chart: ConformalChart, ST: np.ndarray, SS: np.ndarray) -> np.ndarray:
    """<grad T, grad S> pointwise from the outputs of cov_derivative."""
    return chart.em2r * np.einsum("...aij,...aij->...", ST, SS)


def vec_norm_sq(chart: ConformalChart, V: np.ndarray) -> np.ndarray:
    """g(V, V) for coordinate vector components."""
    return chart.e2r * (V[..., 0] ** 2 + V[..., 1] ** 2)


def grad_vec(chart: ConformalChart, f: np.ndarray) -> np.ndarray:
    """grad f, coordinate vector components g^{ij} f_j."""
    return chart.em2r[..., None] * flat_gradient(chart.grid, f)


def laplacian(chart: ConformalChart, f: np.ndarray) -> np.ndarray:
    """Geometer's Laplacian Delta f = -div grad f = -e^{-2 rho} (f_xx + f_yy)."""
    return -chart.em2r * flat_laplacian(chart.grid, f)


def vec_divergence(chart: ConformalChart, V: np.ndarray) -> np.ndarray:
    """div V = e^{-2 rho} (d_x (e^{2 rho} V^x) + d_y (e^{2 rho} V^y))."""
    return chart.em2r * (
        fd_derivative(chart.grid, chart.e2r * V[..., 0], 0, 1)
        + fd_derivative(chart.grid, chart.e2r * V[..., 1], 1, 1)
    )


def hessian(chart: ConformalChart, f: np.ndarray) -> np.ndarray:
    """Covariant Hessian, (0,2) components."""
    grads = flat_gradient(chart.grid, f)
    H = node_array(chart.grid, (2, 2))
    H[..., 0, 0] = fd_derivative(chart.grid, f, 0, 2)
    H[..., 1, 1] = fd_derivative(chart.grid, f, 1, 2)
    H[..., 0, 1] = H[..., 1, 0] = fd_derivative(chart.grid, grads[..., 0], 1, 1)
    H -= np.einsum("...kij,...k->...ij", chart.gamma, grads)
    return H


def nabla_grad(chart: ConformalChart, f: np.ndarray) -> np.ndarray:
    """grad grad f as a (1,1) operator (raised Hessian)."""
    return raise_index(chart, hessian(chart, f))


def gauss_curvature_conformal(chart: ConformalChart) -> np.ndarray:
    """K = -e^{-2 rho} (rho_xx + rho_yy)."""
    return -chart.em2r * flat_laplacian(chart.grid, chart.rho)


def weitzenbock_pairing_residual(chart: ConformalChart, T: np.ndarray, S: np.ndarray) -> float:
    """|int <Delta^R T, S> dv - int <grad T, grad S> dv| on a doubly periodic chart."""
    if not chart.grid.doubly_periodic:
        raise ValueError("pairing identity needs a doubly periodic grid (no boundary terms)")
    dv = chart.area_element
    lhs = integrate(chart.grid, tensor_inner(chart, rough_laplacian(chart, T), S) * dv)
    ST = cov_derivative(chart, T)
    SS = cov_derivative(chart, S)
    rhs = integrate(chart.grid, cov_deriv_inner(chart, ST, SS) * dv)
    return abs(lhs - rhs)


def div_T_grad_alpha_residual(chart: ConformalChart, T: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Pointwise residual of Div(T(grad a)) = <Div T, grad a> + <T, Hess a>."""
    ga = grad_vec(chart, alpha)
    W = np.einsum("...ij,...j->...i", T, ga)
    lhs = vec_divergence(chart, W)
    div = divergence(chart, T)
    term1 = chart.e2r * np.einsum("...i,...i->...", div, ga)
    term2 = tensor_inner(chart, T, raise_index(chart, hessian(chart, alpha)))
    return lhs - (term1 + term2)
