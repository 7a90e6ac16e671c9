"""Extrinsic geometry of an immersed surface from its parameter jets.

An :class:`ImmersionJet` carries per-node positions together with first and
second (optionally third) parameter derivatives of the immersion, either
from analytic closures (round-off accurate) or finite-differenced from a
position table. :func:`compute_geometry` derives the induced metric, second
fundamental form, mean curvature vector, shape operator, surface
Christoffel symbols, the normal connection applied to H, and the Gauss
curvature.

With analytic third derivatives the derivative of H is computed by exact
per-node algebra (differentiating the metric inverse and the tangent
projector), so identities built on nabla-perp H hold at round-off; without
them, fields are differentiated by O(h^2) finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .ambient import Ambient, _dot, curvature_operator, split_tangent_normal
from .grid import Grid, fd_derivative
from .tensors import cov_derivative_coords

# Pseudoumbilical classification thresholds for the eigenvalue gap of A_H.
# The gap is the square root of a clamped discriminant, so round-off shows
# up at the sqrt(machine-eps) scale; tabulated jets add an O(h^2) error.
EPS_PU_ANALYTIC = 1e-6
EPS_PU_FD = 1e-2


class DegenerateImmersionError(ValueError):
    """The immersion condition det g > 0 fails at some node."""


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
    """Finite-difference jet from a tabulated position field."""
    pos = np.asarray(pos, dtype=np.float64)
    d1 = np.stack([fd_derivative(grid, pos, a, 1) for a in (0, 1)], axis=-2)
    xuu = fd_derivative(grid, pos, 0, 2)
    xvv = fd_derivative(grid, pos, 1, 2)
    xuv = fd_derivative(grid, d1[..., 0, :], 1, 1)
    d2 = np.empty(grid.shape + (2, 2, pos.shape[-1]))
    d2[..., 0, 0, :] = xuu
    d2[..., 0, 1, :] = d2[..., 1, 0, :] = xuv
    d2[..., 1, 1, :] = xvv
    return ImmersionJet(grid, space, pos, d1, d2, None, source="finite-difference")


def induced_metric(jet: ImmersionJet) -> np.ndarray:
    g = np.einsum("...ak,...bk->...ab", jet.d1, jet.d1)
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] ** 2
    if np.any(det <= 0):
        idx = np.argwhere(det <= 0)[0]
        raise DegenerateImmersionError(f"immersion degenerate at node {tuple(idx)}")
    return g


@dataclass
class SurfaceGeometry:
    jet: ImmersionJet
    g: np.ndarray  # (0,2) metric
    ginv: np.ndarray
    B: np.ndarray  # (nu, nv, 2, 2, n) ambient-vector valued
    H: np.ndarray  # (nu, nv, n)
    Hsq: np.ndarray  # |H|^2
    A_H: np.ndarray  # mixed (1,1) components
    gamma: np.ndarray  # surface Christoffels Gamma[k, i, j]
    dperpH: np.ndarray  # (nu, nv, 2, n), nabla-perp_{d_a} H
    K: np.ndarray  # extrinsic Gauss curvature

    @property
    def grid(self) -> Grid:
        return self.jet.grid

    @property
    def space(self) -> Ambient:
        return self.jet.space

    @cached_property
    def det_g(self) -> np.ndarray:
        return self.g[..., 0, 0] * self.g[..., 1, 1] - self.g[..., 0, 1] ** 2

    @cached_property
    def area_element(self) -> np.ndarray:
        return np.sqrt(self.det_g)

    @cached_property
    def S2(self) -> np.ndarray:
        """Stress-bienergy tensor, mixed (1,1) components."""
        from .checks import stress_bienergy

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
    def principal(self):
        from .checks import principal_curvatures

        return principal_curvatures(self.A_H, self.Hsq, source=self.jet.source)

    @cached_property
    def biconservativity(self) -> dict:
        """The residual fields of :func:`checks.biconservativity_residuals`."""
        from . import checks

        return checks.biconservativity_residuals(self)

    def chart_nabla(self, chart, name: str) -> np.ndarray:
        """nabla of the field ``name`` ("S2" or "A_H") with the Christoffels of
        an isothermal ``chart``; cached as long as the same chart is asked for."""
        memo = self.__dict__.get("_chart_nabla")
        if memo is None or memo[0] is not chart:
            memo = self.__dict__["_chart_nabla"] = (chart, {})
        if name not in memo[1]:
            memo[1][name] = cov_derivative_coords(chart.grid, getattr(self, name), chart.gamma)
        return memo[1][name]

    def vec_norm_sq(self, V: np.ndarray) -> np.ndarray:
        """g(V, V) for coordinate vector components."""
        return np.einsum("...ij,...i,...j->...", self.g, V, V)

    def tensor_norm_sq(self, T: np.ndarray) -> np.ndarray:
        """|T|^2 for mixed (1,1) components."""
        return np.einsum("...ab,...ik,...ia,...kb->...", self.ginv, self.g, T, T)

    def nabla_norm_sq(self, S: np.ndarray) -> np.ndarray:
        """|nabla T|^2 for S[..., a, i, j] = (nabla_a T)^i_j."""
        return np.einsum(
            "...ab,...ik,...jl,...aij,...bkl->...", self.ginv, self.g, self.ginv, S, S
        )

    def grad_scalar(self, f: np.ndarray) -> np.ndarray:
        """grad f, coordinate vector components."""
        df = np.stack([fd_derivative(self.grid, f, a, 1) for a in (0, 1)], axis=-1)
        return np.einsum("...ij,...j->...i", self.ginv, df)


def _project_off_tangent(jet: ImmersionJet, ginv: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Remove the part of W tangent to the surface (and radial, on a sphere)."""
    coef = np.einsum("...ab,...bk,...k->...a", ginv, jet.d1, W)
    out = W - np.einsum("...a,...ak->...k", coef, jet.d1)
    if jet.space.kind == "sphere":
        r2 = jet.space.radius**2
        out = out - (_dot(out, jet.pos) / r2)[..., None] * jet.pos
    return out


def second_fundamental_form(jet: ImmersionJet, g: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """B(d_i, d_j) = normal part of the second parameter derivatives."""
    B = np.empty_like(jet.d2)
    for i in range(2):
        for j in range(2):
            B[..., i, j, :] = _project_off_tangent(jet, ginv, jet.d2[..., i, j, :])
    return B


def mean_curvature(B: np.ndarray, ginv: np.ndarray):
    H = 0.5 * np.einsum("...ij,...ijk->...k", ginv, B)
    return H, _dot(H, H)


def normal_connection_H(jet: ImmersionJet, g: np.ndarray, ginv: np.ndarray, H: np.ndarray) -> np.ndarray:
    """nabla-perp_{d_a} H for a = u, v, shape (nu, nv, 2, n).

    Uses exact algebraic differentiation when third derivatives are
    available, finite differences of the H field otherwise.
    """
    if jet.has_third:
        DH = _ambient_dH_exact(jet, ginv)
    else:
        DH = np.stack([fd_derivative(jet.grid, H, a, 1) for a in (0, 1)], axis=-2)
        if jet.space.kind == "sphere":
            # ambient covariant derivative in the sphere: project off radial
            r2 = jet.space.radius**2
            for a in range(2):
                DH[..., a, :] -= (_dot(DH[..., a, :], jet.pos) / r2)[..., None] * jet.pos
    out = np.empty_like(DH)
    for a in range(2):
        out[..., a, :] = _project_off_tangent(jet, ginv, DH[..., a, :])
    return out


def _ambient_dH_exact(jet: ImmersionJet, ginv: np.ndarray) -> np.ndarray:
    """Ambient derivative D_a H by exact per-node algebra (needs d3)."""
    sphere = jet.space.kind == "sphere"
    r2 = jet.space.radius**2 if sphere else None
    m = 0.5 * np.einsum("...ij,...ijk->...k", ginv, jet.d2)
    out = np.empty(jet.grid.shape + (2, jet.pos.shape[-1]))
    for a in range(2):
        # d_a g_{kl} and d_a g^{ij}
        dg = np.einsum("...km,...lm->...kl", jet.d2[..., a, :, :], jet.d1)
        dg = dg + np.swapaxes(dg, -1, -2)
        dginv = -np.einsum("...ik,...kl,...lj->...ij", ginv, dg, ginv)
        # d_a m
        dm = 0.5 * np.einsum("...ij,...ijk->...k", dginv, jet.d2) + 0.5 * np.einsum(
            "...ij,...ijk->...k", ginv, jet.d3[..., a, :]
        )
        # d_a of the normal projector applied to m: P = I - X_i g^{ij} X_j^T (- radial)
        xm = np.einsum("...jk,...k->...j", jet.d1, m)  # <X_j, m>
        dxm = np.einsum("...jk,...k->...j", jet.d2[..., a, :, :], m)
        dPm = -(
            np.einsum("...ik,...ij,...j->...k", jet.d2[..., a, :, :], ginv, xm)
            + np.einsum("...ik,...ij,...j->...k", jet.d1, dginv, xm)
            + np.einsum("...ik,...ij,...j->...k", jet.d1, ginv, dxm)
        )
        if sphere:
            pm = _dot(m, jet.pos)
            dPm -= (
                _dot(jet.d1[..., a, :], m)[..., None] * jet.pos
                + pm[..., None] * jet.d1[..., a, :]
            ) / r2
        out[..., a, :] = dPm + _project_off_tangent(jet, ginv, dm)
    return out


def surface_christoffels(jet: ImmersionJet, ginv: np.ndarray) -> np.ndarray:
    """Gamma[k, i, j] = g^{kl} <d_i d_j X, d_l X> (intrinsic, exact from the jet)."""
    inner = np.einsum("...ijm,...lm->...ijl", jet.d2, jet.d1)
    return np.einsum("...kl,...ijl->...kij", ginv, inner)


def _orthonormal_frame_coefs(g: np.ndarray):
    """Gram-Schmidt on (d_u, d_v), started from d_u: coordinate coefficients."""
    g11 = g[..., 0, 0]
    g12 = g[..., 0, 1]
    g22 = g[..., 1, 1]
    e1 = np.zeros(g.shape[:-2] + (2,))
    e2 = np.zeros_like(e1)
    s1 = np.sqrt(g11)
    e1[..., 0] = 1.0 / s1
    w = np.sqrt(g22 - g12**2 / g11)
    e2[..., 0] = -g12 / (g11 * w)
    e2[..., 1] = 1.0 / w
    return e1, e2


def gauss_curvature_extrinsic(jet: ImmersionJet, g: np.ndarray, B: np.ndarray) -> np.ndarray:
    """K from the Gauss equation in an orthonormal tangent frame."""
    e1, e2 = _orthonormal_frame_coefs(g)
    B11 = np.einsum("...i,...j,...ijk->...k", e1, e1, B)
    B22 = np.einsum("...i,...j,...ijk->...k", e2, e2, B)
    B12 = np.einsum("...i,...j,...ijk->...k", e1, e2, B)
    K = _dot(B11, B22) - _dot(B12, B12)
    # ambient sectional curvature term; space forms give the constant c
    return K + jet.space.curvature


def trace_A_dperpH(geom: SurfaceGeometry) -> np.ndarray:
    """trace A_{nabla-perp H}, coordinate vector components."""
    inner = np.einsum("...cbm,...am->...acb", geom.B, geom.dperpH)  # <B_cb, xi_a>
    return np.einsum("...ab,...ic,...acb->...i", geom.ginv, geom.ginv, inner)


def trace_RN_H(geom: SurfaceGeometry) -> np.ndarray:
    """trace (R^N(., H) .)^T, coordinate vector components."""
    if geom.space.curvature == 0.0:
        return np.zeros(geom.grid.shape + (2,))
    vec = np.zeros(geom.grid.shape + (geom.jet.pos.shape[-1],))
    for a in range(2):
        for b in range(2):
            R = curvature_operator(
                geom.space, geom.jet.d1[..., a, :], geom.H, geom.jet.d1[..., b, :]
            )
            vec += geom.ginv[..., a, b, None] * R
    tang, _ = split_tangent_normal(geom.jet.d1, vec)
    # express in the coordinate basis
    coef = np.einsum(
        "...ab,...bk,...k->...a", geom.ginv, geom.jet.d1, tang
    )
    return coef


def compute_geometry(jet: ImmersionJet) -> SurfaceGeometry:
    g = induced_metric(jet)
    ginv = np.linalg.inv(g)
    B = second_fundamental_form(jet, g, ginv)
    H, Hsq = mean_curvature(B, ginv)
    A_H = np.einsum("...ik,...kjm,...m->...ij", ginv, B, H)
    gamma = surface_christoffels(jet, ginv)
    dperpH = normal_connection_H(jet, g, ginv, H)
    K = gauss_curvature_extrinsic(jet, g, B)
    return SurfaceGeometry(jet, g, ginv, B, H, Hsq, A_H, gamma, dperpH, K)
