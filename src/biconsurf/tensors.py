"""Intrinsic calculus for symmetric (1,1) tensor fields on 2D metrics.

Tensor fields are passed as ``(nu, nv, 2, 2)`` arrays of mixed components
``T[i, j] = T^i_j`` (g-symmetric operators), vectors as coordinate
components. The general-coordinate core (covariant derivative, Codazzi
defect, divergence) takes explicit ``ginv``/``gamma`` arrays.
:class:`MetricCalculus` holds the operators of a metric that a report runs,
in the coordinates of its one carrier, an immersed surface in the
coordinates of its jet (``immersion.SurfaceGeometry``). Every identity is
checked there, so no command builds an isothermal chart: a report's Hopf row
is ``checks.hopf_residual``, W = Div T - 1/2 grad tr T for T = A_H, and in
any isothermal chart |W|_g = 4 e^{-3 rho} |d/dzbar Phi| for the Hopf
function Phi of T. The Hopf function and its d/dzbar
(:func:`hopf_differential`, :func:`holomorphicity_residual`) stay for
perfbench, which still traces the latter (ROADMAP item 7). The isothermal
chart and the lemma routes that check these operators are test code.

Sign convention: the function Laplacian used in the geometric identities is
the positive (geometer's) operator ``Delta f = -div grad f``.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, fd_derivative, flat_gradient, node_array


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

    def div_vector(self, V: np.ndarray) -> np.ndarray:
        """div V = (1/sqrt g) d_a (sqrt g V^a) for coordinate components V^a."""
        dv = self.area_element
        out = fd_derivative(self.grid, dv * V[..., 0], 0, 1)
        out += fd_derivative(self.grid, dv * V[..., 1], 1, 1)
        out /= dv
        return out

    @staticmethod
    def tensor_inner(S: np.ndarray, T: np.ndarray) -> np.ndarray:
        """<S, T> = tr(S T) of two g-self-adjoint (1,1) fields, mixed components."""
        return np.einsum("...ij,...ji->...", S, T)


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

