"""Extrinsic geometry of an immersed surface from its parameter jets.

An :class:`ImmersionJet` carries per-node positions together with first and
second (optionally third) parameter derivatives of the immersion, either
from analytic closures (round-off accurate) or finite-differenced from a
position table. :func:`compute_geometry` derives the induced metric, second
fundamental form, mean curvature vector, shape operator, surface
Christoffel symbols, the normal connection applied to H, and the Gauss
curvature, all in the coordinate frame (d_u X, d_v X). One helper,
:func:`tangent_coords`, gives the tangent part of an ambient vector; normal
parts subtract it and keep :meth:`Ambient.tangent_part`, since only
:mod:`ambient` knows which space form the surface lies in.

With analytic third derivatives, nabla-perp H comes from
nabla-perp_a H = 1/2 tr nabla-perp_a B, the derivative of B written with
the surface Christoffels, so identities built on nabla-perp H hold at
round-off; without them, H is differentiated by O(h^2) finite differences.
K comes from the Gauss equation in coordinates.

:class:`SurfaceGeometry` is a :class:`tensors.MetricCalculus`: the residual
suite takes its operators in the coordinates of the jet, isothermal or not
(the gradient and |df|^2 through g^{-1}, the Laplacian as minus the trace
of the covariant Hessian, the divergence (1/sqrt g) d_a(sqrt g V^a),
tr(S T), and |nabla T|^2, cached for A_H and S2). The stress-bienergy
tensor S2 and the principal curvatures of A_H are cached on it too.

The metric is inverted in closed form, ``g^{-1} = adj g / det g``, with the
``det g`` that the degeneracy test takes, written straight into a
node-innermost array. Every contraction takes two operands at a time: a
chain of two-operand ``np.einsum`` calls, each one small sum over all nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ambient import Ambient, _dot, curvature_operator
from .grid import Grid, InputError, fd_derivative, flat_gradient, integrate, interior_mask, node_array
from .tensors import MetricCalculus, cov_derivative_coords

# Pseudoumbilical classification thresholds for the eigenvalue gap of A_H.
# The gap is sqrt((a - d)^2 + 4 bc) of the mixed components, so analytic jets
# put it at round-off (about 1e-15 on the round sphere); the analytic
# threshold leaves room for ill-scaled charts. Tabulated jets add an O(h^2)
# error.
EPS_PU_ANALYTIC = 1e-6
EPS_PU_FD = 1e-2

# det g <= DEGENERACY_TOL g_uu g_vv (the squared sine of the angle between
# d_u X and d_v X) marks the immersion as degenerate.
DEGENERACY_TOL = 1e-12

# Rows skipped at each open edge by every norm on an FD jet: its one-sided
# stencil bands do not converge when differenced again.
FD_BOUNDARY_MARGIN = 3


class DegenerateImmersionError(ValueError):
    """The immersion condition det g > 0 fails (numerically) at some node."""


@dataclass(frozen=True)
class ImmersionJet:
    grid: Grid
    space: Ambient
    pos: np.ndarray  # (nu, nv, n)
    d1: np.ndarray  # (nu, nv, 2, n)       d1[..., a, :] = d_a X
    d2: np.ndarray  # (nu, nv, 2, 2, n)    d2[..., a, b, :] = d_a d_b X
    d3: np.ndarray | None = None  # (nu, nv, 2, 2, 2, n)
    source: str = "analytic"

    def __post_init__(self):
        n = self.space.embedding_dim
        expect = {
            "pos": self.grid.shape + (n,),
            "d1": self.grid.shape + (2, n),
            "d2": self.grid.shape + (2, 2, n),
        }
        for name, shape in expect.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
        if self.d3 is not None and self.d3.shape != self.grid.shape + (2, 2, 2, n):
            raise ValueError("third-derivative array has wrong shape")

    @property
    def has_third(self) -> bool:
        return self.d3 is not None


def jet_from_positions(grid: Grid, pos: np.ndarray, space: Ambient) -> ImmersionJet:
    """Finite-difference jet from a tabulated position field (> 2 margins on an open axis)."""
    for axis, n in enumerate(grid.shape):
        if not grid.periodic(axis) and n <= 2 * FD_BOUNDARY_MARGIN:
            raise InputError(f"a finite-difference jet needs at least {2 * FD_BOUNDARY_MARGIN + 1}"
                             f" nodes on an open axis, got {n}")
    pos = np.asarray(pos, dtype=np.float64)
    d1 = flat_gradient(grid, pos)
    d2 = node_array(grid, (2, 2, pos.shape[-1]))
    for a in (0, 1):
        d2[..., a, a, :] = fd_derivative(grid, pos, a, 2)
    d2[..., 0, 1, :] = d2[..., 1, 0, :] = fd_derivative(grid, d1[..., 0, :], 1, 1)
    return ImmersionJet(grid, space, pos, d1, d2, None, source="finite-difference")


def induced_metric(jet: ImmersionJet) -> tuple[np.ndarray, np.ndarray]:
    """The metric g_ab = <d_a X, d_b X> and its determinant; raises
    :class:`DegenerateImmersionError` where det g is numerically zero."""
    g = np.einsum("...ak,...bk->...ab", jet.d1, jet.d1)
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] ** 2
    bad = det <= DEGENERACY_TOL * g[..., 0, 0] * g[..., 1, 1]
    if np.any(bad):
        idx = np.argwhere(bad)[0]
        raise DegenerateImmersionError(f"immersion degenerate at node ({idx[0]}, {idx[1]})")
    return g, det


def stress_bienergy(A_H: np.ndarray, Hsq: np.ndarray) -> np.ndarray:
    """S2 = -2 |H|^2 I + 4 A_H (mixed components, m = 2)."""
    S2 = 4.0 * np.asarray(A_H)  # a new array in the memory order of A_H
    S2[..., 0, 0] -= 2.0 * Hsq
    S2[..., 1, 1] -= 2.0 * Hsq
    return S2


def principal_curvatures(A_H: np.ndarray, Hsq: np.ndarray, source: str = "analytic"):
    """Eigenvalues of the shape operator, their gap, pseudoumbilical mask.

    The mixed-component matrix of a g-symmetric operator is similar to a
    symmetric one, so its eigenvalues are real; tiny negative discriminants
    from round-off are clamped. The discriminant is written as
    (a - d)^2 + 4 bc, not tr^2 - 4 det: on an umbilical operator the latter
    cancels two O(|A|^2) terms and leaves the gap at sqrt(round-off).
    """
    a, b = A_H[..., 0, 0], A_H[..., 0, 1]
    c, d = A_H[..., 1, 0], A_H[..., 1, 1]
    tr = a + d
    disc = np.sqrt(np.maximum((a - d) ** 2 + 4.0 * b * c, 0.0))
    lam1 = 0.5 * (tr + disc)
    lam2 = 0.5 * (tr - disc)
    mu = lam1 - lam2
    eps = EPS_PU_ANALYTIC if source == "analytic" else EPS_PU_FD
    pu_mask = mu <= eps * (1.0 + Hsq)
    return lam1, lam2, mu, pu_mask


@dataclass
class SurfaceGeometry(MetricCalculus):
    jet: ImmersionJet
    g: np.ndarray  # (0,2) metric
    det_g: np.ndarray  # det g, as the degeneracy test took it
    ginv: np.ndarray
    B: np.ndarray  # (nu, nv, 2, 2, n) ambient-vector valued
    H: np.ndarray  # (nu, nv, n)
    Hsq: np.ndarray  # |H|^2
    A_H: np.ndarray  # mixed (1,1) components
    gamma: np.ndarray  # surface Christoffels Gamma[k, i, j]
    gamma_trace: np.ndarray  # g^{ij} Gamma^k_ij, zero in an isothermal chart
    dperpH: np.ndarray  # (nu, nv, 2, n), nabla-perp_{d_a} H
    K: np.ndarray  # extrinsic Gauss curvature

    @property
    def grid(self) -> Grid:
        return self.jet.grid

    @property
    def space(self) -> Ambient:
        return self.jet.space

    @property
    def boundary_margin(self) -> int:
        """Rows :attr:`interior` leaves out at each open edge."""
        return 0 if self.jet.source == "analytic" else FD_BOUNDARY_MARGIN

    @cached_property
    def interior(self) -> np.ndarray:
        """The nodes every residual norm is taken over: all of them on an
        analytic jet, all but ``boundary_margin`` rows at each open edge on
        an FD jet."""
        return interior_mask(self.grid, self.boundary_margin)

    @cached_property
    def area_element(self) -> np.ndarray:
        return np.sqrt(self.det_g)

    @cached_property
    def interior_area(self) -> float:
        """Area of the :attr:`interior` nodes."""
        return integrate(self.grid, np.where(self.interior, self.area_element, 0.0))

    @cached_property
    def S2(self) -> np.ndarray:
        """Stress-bienergy tensor, mixed (1,1) components."""
        return stress_bienergy(self.A_H, self.Hsq)

    @cached_property
    def nabla_AH(self) -> np.ndarray:
        """(nabla_a A_H)^i_j: FD of mixed components plus exact Gamma terms."""
        return cov_derivative_coords(self.grid, self.A_H, self.gamma)

    @cached_property
    def nabla_S2(self) -> np.ndarray:
        """(nabla_a S2)^i_j with the surface Christoffels."""
        return cov_derivative_coords(self.grid, self.S2, self.gamma)

    @cached_property
    def nabla_AH_norm_sq(self) -> np.ndarray:
        """|nabla A_H|^2, taken once for every row and check that reads it."""
        return self.nabla_norm_sq(self.nabla_AH)

    @cached_property
    def nabla_S2_norm_sq(self) -> np.ndarray:
        """|nabla S2|^2, taken once for every row and check that reads it."""
        return self.nabla_norm_sq(self.nabla_S2)

    @cached_property
    def principal(self):
        return principal_curvatures(self.A_H, self.Hsq, source=self.jet.source)

    @cached_property
    def biconservativity(self) -> dict:
        """The residual fields of :func:`checks.biconservativity_residuals`."""
        from . import checks

        return checks.biconservativity_residuals(self)


def tangent_coords(jet: ImmersionJet, ginv: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Coordinates g^{ab} <d_b X, W> of the part of W tangent to the surface.

    W has shape (nu, nv, ..., n): component axes sit between the node axes
    and the vector axis, and the result ends in the coordinate index a.
    """
    return np.einsum("xyab,xy...b->xy...a", ginv, np.einsum("xybk,xy...k->xy...b", jet.d1, W))


def _project_off_tangent(jet: ImmersionJet, ginv: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Remove the part of W tangent to the surface and keep the part tangent to the ambient."""
    out = W - np.einsum("xy...a,xyak->xy...k", tangent_coords(jet, ginv, W), jet.d1)
    pos = jet.pos.reshape(jet.grid.shape + (1,) * (W.ndim - 3) + (-1,))
    return jet.space.tangent_part(pos, out)


def second_fundamental_form(jet: ImmersionJet, ginv: np.ndarray) -> np.ndarray:
    """B(d_i, d_j) = normal part of the second parameter derivatives."""
    return _project_off_tangent(jet, ginv, jet.d2)


def mean_curvature(B: np.ndarray, ginv: np.ndarray):
    H = 0.5 * np.einsum("...ij,...ijk->...k", ginv, B)
    return H, _dot(H, H)


def normal_connection_H(
    jet: ImmersionJet, ginv: np.ndarray, H: np.ndarray, B: np.ndarray, gamma: np.ndarray,
    gamma_trace: np.ndarray,
) -> np.ndarray:
    """nabla-perp_{d_a} H for a = u, v, shape (nu, nv, 2, n).

    With third derivatives this is 1/2 tr nabla-perp_a B in closed form:
    P-perp(d_a B_ij) = P-perp(d_a d_i d_j X) - Gamma^k_ij B_ak and
    d_a g^{ij} = -g^{ip} Gamma^j_ap - g^{jp} Gamma^i_ap give
    1/2 P-perp(g^{ij} d_a d_i d_j X) - 1/2 g^{ij} Gamma^k_ij B_ak
    - g^{ip} Gamma^j_ap B_ij. Otherwise the H field is finite-differenced.
    """
    if not jet.has_third:
        return _project_off_tangent(jet, ginv, flat_gradient(jet.grid, H))
    d3_trace = _project_off_tangent(jet, ginv, np.einsum("xyij,xyaijk->xyak", ginv, jet.d3))
    dginv = np.einsum("xyip,xyjap->xyaij", ginv, gamma)
    return (
        0.5 * d3_trace
        - 0.5 * np.einsum("xyk,xyakn->xyan", gamma_trace, B)
        - np.einsum("xyaij,xyijn->xyan", dginv, B)
    )


def surface_christoffels(jet: ImmersionJet, ginv: np.ndarray) -> np.ndarray:
    """Gamma[k, i, j] = g^{kl} <d_i d_j X, d_l X> (intrinsic, exact from the jet)."""
    inner = np.einsum("...ijm,...lm->...ijl", jet.d2, jet.d1)
    return np.einsum("...kl,...ijl->...kij", ginv, inner)


def gauss_curvature_extrinsic(jet: ImmersionJet, det: np.ndarray, B: np.ndarray) -> np.ndarray:
    """K = (<B_uu, B_vv> - |B_uv|^2) / det g + c, the Gauss equation in coordinates."""
    K = (_dot(B[..., 0, 0, :], B[..., 1, 1, :]) - _dot(B[..., 0, 1, :], B[..., 0, 1, :])) / det
    # ambient sectional curvature term; space forms give the constant c
    return K + jet.space.curvature


def trace_A_dperpH(geom: SurfaceGeometry) -> np.ndarray:
    """trace A_{nabla-perp H}, coordinate vector components."""
    inner = np.einsum("...cbm,...am->...acb", geom.B, geom.dperpH)  # <B_cb, xi_a>
    return np.einsum("...ic,...c->...i", geom.ginv,
                     np.einsum("...ab,...acb->...c", geom.ginv, inner))


def trace_RN_H(geom: SurfaceGeometry) -> np.ndarray:
    """trace (R^N(., H) .)^T, coordinate vector components."""
    if geom.space.curvature == 0.0:
        return node_array(geom.grid, (2,))
    d1 = geom.jet.d1
    R = curvature_operator(
        geom.space, d1[..., :, None, :], geom.H[..., None, None, :], d1[..., None, :, :]
    )
    return tangent_coords(geom.jet, geom.ginv, np.einsum("...ab,...abk->...k", geom.ginv, R))


def compute_geometry(jet: ImmersionJet) -> SurfaceGeometry:
    g, det = induced_metric(jet)
    ginv = node_array(jet.grid, (2, 2))  # adj g / det g
    ginv[..., 0, 0] = g[..., 1, 1] / det
    ginv[..., 1, 1] = g[..., 0, 0] / det
    ginv[..., 0, 1] = ginv[..., 1, 0] = -g[..., 0, 1] / det
    B = second_fundamental_form(jet, ginv)
    H, Hsq = mean_curvature(B, ginv)
    A_H = np.einsum("...ik,...kj->...ij", ginv, np.einsum("...kjm,...m->...kj", B, H))
    gamma = surface_christoffels(jet, ginv)
    gamma_trace = np.einsum("xyij,xykij->xyk", ginv, gamma)
    dperpH = normal_connection_H(jet, ginv, H, B, gamma, gamma_trace)
    K = gauss_curvature_extrinsic(jet, det, B)
    return SurfaceGeometry(jet, g, det, ginv, B, H, Hsq, A_H, gamma, gamma_trace, dperpH, K)
