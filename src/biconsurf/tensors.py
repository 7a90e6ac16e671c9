"""Intrinsic calculus for symmetric (1,1) tensor fields on 2D metrics.

Tensor fields are passed as ``(nu, nv, 2, 2)`` arrays of mixed components
``T[i, j] = T^i_j`` (g-symmetric operators), vectors as coordinate
components. The general-coordinate core (covariant derivative, Codazzi
defect, divergence) takes explicit ``ginv``/``gamma`` arrays.
:class:`MetricCalculus` holds one set of operators of a metric in the
coordinates of its carrier, and two carriers inherit it: an immersed
surface in the coordinates of its jet (``immersion.SurfaceGeometry``), and
an isothermal :class:`ConformalChart` with metric ``g = e^{2 rho} (dx^2 +
dy^2)``. The lemma checks (:func:`divergence_routes`,
:func:`weitzenbock_pairing_residual`, :func:`div_T_grad_alpha_residual`,
:func:`holomorphicity_residual_routes`) take either carrier. Neither a report
nor the gap-equation solver builds a conformal chart: the chart, the Hopf
function and its d/dzbar serve the lemma checks only. A report's Hopf row
is ``checks.hopf_residual``, W = Div T - 1/2 grad tr T for T = A_H, which
needs no chart: in an isothermal chart |W|_g = 4 e^{-3 rho} |d/dzbar Phi|
for the Hopf function Phi of T (the closed route of
:func:`holomorphicity_residual_routes`).

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


# ---------------------------------------------------------------------------
# general-coordinate core (explicit Christoffels)
# ---------------------------------------------------------------------------


def cov_derivative_coords(grid: Grid, T: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(nabla_a T)^i_j as S[..., a, i, j], from FD of components plus Gamma terms."""
    dT = flat_gradient(grid, T)
    dT += np.einsum("...iak,...kj->...aij", gamma, T)
    dT -= np.einsum("...kaj,...ik->...aij", gamma, T)
    return dT


def codazzi_defect_coords(S: np.ndarray) -> np.ndarray:
    """(nabla_x T)(dy) - (nabla_y T)(dx) from S = nabla T, coordinate vector
    components."""
    return S[..., 0, :, 1] - S[..., 1, :, 0]


def divergence_coords(S: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """Div T = trace of S = nabla T, coordinate vector components (Div T)^i."""
    return np.einsum("...ab,...aib->...i", ginv, S)


class MetricCalculus:
    """Operators of a 2D metric in the coordinates of its carrier.

    A carrier provides ``grid``, the metric ``g`` and its inverse ``ginv``
    ((0,2) and (2,0) components), the Christoffels ``gamma[k, i, j] =
    Gamma^k_ij``, ``gamma_trace = g^{ij} Gamma^k_ij`` and ``area_element =
    sqrt(det g)``.
    """

    def vec_norm_sq(self, V: np.ndarray) -> np.ndarray:
        """g(V, V) for coordinate vector components, in closed form:
        (g_00 V^0 + g_01 V^1) V^0 + (g_10 V^0 + g_11 V^1) V^1."""
        g, v0, v1 = self.g, V[..., 0], V[..., 1]
        out = g[..., 0, 0] * v0
        out += g[..., 0, 1] * v1
        out *= v0
        gv1 = g[..., 1, 0] * v0
        gv1 += g[..., 1, 1] * v1
        gv1 *= v1
        out += gv1
        return out

    def nabla(self, T: np.ndarray) -> np.ndarray:
        """(nabla_a T)^i_j as S[..., a, i, j]."""
        return cov_derivative_coords(self.grid, T, self.gamma)

    def nabla_inner(self, S: np.ndarray, R: np.ndarray) -> np.ndarray:
        """<nabla T, nabla T'> = g^{ab} g_ik g^{jl} S_a^i_j R_b^k_l for
        S = nabla T and R = nabla T', one derivative index a at a time:
        T_a = g^{ab} S_b, M_a = g T_a, then the sum of (M_a g^{-1})^ij R_a^ij.
        Two scratch fields of four components serve both values of a."""
        out = node_array(self.grid)
        T, M = node_array(self.grid, (2, 2)), node_array(self.grid, (2, 2))
        for a in (0, 1):
            np.einsum("...b,...bkl->...kl", self.ginv[..., a, :], S, out=T)
            np.einsum("...ik,...kl->...il", self.g, T, out=M)
            np.einsum("...il,...jl->...ij", M, self.ginv, out=T)
            out += np.einsum("...ij,...ij->...", T, R[..., a, :, :])
        return out

    def nabla_norm_sq(self, S: np.ndarray) -> np.ndarray:
        """|nabla T|^2 for S = nabla T."""
        return self.nabla_inner(S, S)

    def div_tensor(self, T: np.ndarray) -> np.ndarray:
        """Div T, coordinate vector components (Div T)^i = g^{ab} (nabla_a T)^i_b."""
        return divergence_coords(self.nabla(T), self.ginv)

    def grad_scalar(self, f: np.ndarray) -> np.ndarray:
        """grad f, coordinate vector components."""
        return np.einsum("...ij,...j->...i", self.ginv, flat_gradient(self.grid, f))

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        """Geometer's Laplacian Delta f = -g^{ab} (d_a d_b f - Gamma^k_ab d_k f),
        minus the trace of the covariant Hessian. In an isothermal chart
        g^{ab} Gamma^k_ab vanishes and this is the chart stencil
        -e^{-2 rho} (f_uu + f_vv)."""
        grid, ginv = self.grid, self.ginv
        df = flat_gradient(grid, f)
        out = ginv[..., 0, 0] * fd_derivative(grid, f, 0, 2)
        out += ginv[..., 1, 1] * fd_derivative(grid, f, 1, 2)
        out += 2.0 * ginv[..., 0, 1] * fd_derivative(grid, df[..., 0], 1, 1)
        out -= np.einsum("...k,...k->...", self.gamma_trace, df)
        return np.negative(out, out=out)

    def hessian(self, f: np.ndarray) -> np.ndarray:
        """grad grad f as a (1,1) field: g^{ik} (d_k d_j f - Gamma^l_kj d_l f)."""
        grid = self.grid
        df = flat_gradient(grid, f)
        hess = node_array(grid, (2, 2))
        hess[..., 0, 0] = fd_derivative(grid, f, 0, 2)
        hess[..., 1, 1] = fd_derivative(grid, f, 1, 2)
        hess[..., 0, 1] = hess[..., 1, 0] = fd_derivative(grid, df[..., 0], 1, 1)
        hess -= np.einsum("...lkj,...l->...kj", self.gamma, df)
        return np.einsum("...ik,...kj->...ij", self.ginv, hess)

    def div_vector(self, V: np.ndarray) -> np.ndarray:
        """div V = (1/sqrt g) d_a (sqrt g V^a) for coordinate components V^a."""
        dv = self.area_element
        out = fd_derivative(self.grid, dv * V[..., 0], 0, 1)
        out += fd_derivative(self.grid, dv * V[..., 1], 1, 1)
        out /= dv
        return out

    def rough_laplacian(self, T: np.ndarray) -> np.ndarray:
        """Delta^R T = -g^{ab} (nabla^2_{ab} T), mixed components."""
        S = self.nabla(T)
        gamma = self.gamma
        nabla2 = flat_gradient(self.grid, S)
        nabla2 += np.einsum("...iak,...bkj->...abij", gamma, S)
        nabla2 -= np.einsum("...kaj,...bik->...abij", gamma, S)
        nabla2 -= np.einsum("...cab,...cij->...abij", gamma, S)
        return -np.einsum("...ab,...abij->...ij", self.ginv, nabla2)

    @staticmethod
    def tensor_inner(S: np.ndarray, T: np.ndarray) -> np.ndarray:
        """<S, T> = tr(S T) of two g-self-adjoint (1,1) fields, mixed components."""
        return np.einsum("...ij,...ji->...", S, T)


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


def hopf_differential(carrier: MetricCalculus, T: np.ndarray) -> np.ndarray:
    """<T(dz), dz> in isothermal coordinates, a complex scalar field; the
    conformal factor e^{2 rho} lowers the index, and it is the area element."""
    T02 = carrier.area_element[..., None, None] * T
    return 0.25 * (
        T02[..., 0, 0] - T02[..., 1, 1] - 1j * (T02[..., 0, 1] + T02[..., 1, 0])
    )


def holomorphicity_residual(carrier: MetricCalculus, T: np.ndarray) -> np.ndarray:
    """d/dzbar of the Hopf function, by finite differences of the function."""
    hopf = hopf_differential(carrier, T)
    return 0.5 * (
        fd_derivative(carrier.grid, hopf, 0, 1) + 1j * fd_derivative(carrier.grid, hopf, 1, 1)
    )


# ---------------------------------------------------------------------------
# lemma checks, on either carrier
# ---------------------------------------------------------------------------


def divergence_routes(carrier: MetricCalculus, T: np.ndarray):
    """Div T by the trace route and by the lemma route
    grad tr T + g^{-1}(-D^1, D^0), with D the Codazzi defect of T."""
    S = carrier.nabla(T)
    D = codazzi_defect_coords(S)
    rotated = np.stack([-D[..., 1], D[..., 0]], axis=-1)
    lemma = carrier.grad_scalar(T[..., 0, 0] + T[..., 1, 1])
    lemma += np.einsum("...ij,...j->...i", carrier.ginv, rotated)
    return divergence_coords(S, carrier.ginv), lemma


def holomorphicity_residual_routes(carrier: MetricCalculus, T: np.ndarray):
    """d/dzbar of the Hopf function in isothermal coordinates: direct FD route
    and closed-formula route (e^{2 rho}/8) (-t_x + 2 <Div T, d_x>
    + i (t_y - 2 <Div T, d_y>))."""
    dt = flat_gradient(carrier.grid, T[..., 0, 0] + T[..., 1, 1])
    div = np.einsum("...ij,...j->...i", carrier.g, carrier.div_tensor(T))  # <Div T, d_i>
    closed = (carrier.area_element / 8.0) * (
        -dt[..., 0] + 2.0 * div[..., 0] + 1j * (dt[..., 1] - 2.0 * div[..., 1])
    )
    return holomorphicity_residual(carrier, T), closed


def weitzenbock_pairing_residual(carrier: MetricCalculus, T: np.ndarray, S: np.ndarray) -> float:
    """|int <Delta^R T, S> dv - int <grad T, grad S> dv| on a doubly periodic grid."""
    if not carrier.grid.doubly_periodic:
        raise ValueError("pairing identity needs a doubly periodic grid (no boundary terms)")
    dv = carrier.area_element
    lhs = integrate(carrier.grid, carrier.tensor_inner(carrier.rough_laplacian(T), S) * dv)
    rhs = integrate(carrier.grid, carrier.nabla_inner(carrier.nabla(T), carrier.nabla(S)) * dv)
    return abs(lhs - rhs)


def div_T_grad_alpha_residual(carrier: MetricCalculus, T: np.ndarray,
                              alpha: np.ndarray) -> np.ndarray:
    """Pointwise residual of Div(T(grad a)) = <Div T, grad a> + <T, Hess a>."""
    da = flat_gradient(carrier.grid, alpha)
    W = np.einsum("...ij,...j->...i", T, np.einsum("...ij,...j->...i", carrier.ginv, da))
    out = carrier.div_vector(W)
    out -= np.einsum("...i,...i->...", carrier.div_tensor(T), da)  # <Div T, grad a> = da(Div T)
    out -= carrier.tensor_inner(T, carrier.hessian(alpha))
    return out
