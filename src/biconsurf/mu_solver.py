"""Damped Newton solver for the principal-curvature-gap equation.

The unknown mu > 0 on a doubly periodic grid satisfies

    mu * Lap mu + |grad mu|_0^2 + 2 mu (K_N + |H|^2 - mu^2 / (4 |H|^2)) = 0,

where Lap and grad are taken with respect to the flat metric and Lap is the
positive (geometer's) operator -(d_xx + d_yy); this sign is the one under
which the conformal reconstruction g = (1/mu) (dx^2 + dy^2) reproduces the
Gauss relation K = K_N + |H|^2 - mu^2 / (4 |H|^2) identically.

The Jacobian of the discrete residual is assembled exactly (sparse periodic
stencil couplings plus a diagonal reaction term); steps are damped by
backtracking on the residual norm and clipped away from mu <= 0. Near a
constant iterate on a fully periodic grid the linearization can be
(near-)singular; the solver then falls back to a least-squares step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import Grid, flat_gradient, flat_laplacian
from .tensors import ConformalChart, gauss_curvature_conformal

MU_FLOOR = 1e-8


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class MuProblem:
    grid: Grid
    H: float  # constant |H| > 0
    KN: np.ndarray  # sectional curvature of the ambient 3-space along the surface
    mu0: np.ndarray  # positive initial guess

    def __post_init__(self):
        if not self.grid.doubly_periodic:
            raise ValueError("mu problem requires a doubly periodic grid")
        # written so that NaN fails each test
        if not 0 < self.H < np.inf:
            raise ValueError(f"|H| must be a positive finite number, got {self.H!r}")
        KN = np.broadcast_to(np.asarray(self.KN, dtype=np.float64), self.grid.shape).copy()
        if not np.all(np.isfinite(KN)):
            raise ValueError("K_N must be finite everywhere")
        mu0 = np.asarray(self.mu0, dtype=np.float64)
        if mu0.shape != self.grid.shape:
            raise ValueError("mu0 shape does not match grid")
        if not np.all((mu0 > 0) & (mu0 < np.inf)):
            raise ValueError("mu0 must be positive and finite everywhere")
        object.__setattr__(self, "KN", KN)
        object.__setattr__(self, "mu0", mu0)


def constant_root(H: float, KN: float) -> float:
    """The positive constant solution 2 |H| sqrt(K_N + |H|^2) (needs K_N + |H|^2 > 0)."""
    if KN + H * H <= 0:
        raise ValueError("no positive constant root when K_N + |H|^2 <= 0")
    return 2.0 * H * np.sqrt(KN + H * H)


def mu_residual(grid: Grid, mu: np.ndarray, H: float, KN) -> np.ndarray:
    """Pointwise residual of the gap equation."""
    mu = np.asarray(mu, dtype=np.float64)
    if np.any(mu <= 0):
        raise ValueError("mu must be positive everywhere")
    lap = -flat_laplacian(grid, mu)  # geometer's sign
    grad = flat_gradient(grid, mu)
    grad_sq = grad[..., 0] ** 2 + grad[..., 1] ** 2
    react = 2.0 * mu * (np.asarray(KN) + H * H - mu * mu / (4.0 * H * H))
    return mu * lap + grad_sq + react


def _circulant_d1(n: int, h: float) -> sp.csr_matrix:
    e = np.ones(n)
    D = sp.diags([e, -e], [1, -1], shape=(n, n), format="lil")
    D[0, n - 1] = -1.0
    D[n - 1, 0] = 1.0
    return (D / (2.0 * h)).tocsr()


def _circulant_d2(n: int, h: float) -> sp.csr_matrix:
    e = np.ones(n)
    D = sp.diags([e, -2.0 * e, e], [1, 0, -1], shape=(n, n), format="lil")
    D[0, n - 1] = 1.0
    D[n - 1, 0] = 1.0
    return (D / (h * h)).tocsr()


def _operators(grid: Grid):
    Iu = sp.identity(grid.nu, format="csr")
    Iv = sp.identity(grid.nv, format="csr")
    Dx = sp.kron(_circulant_d1(grid.nu, grid.hu), Iv, format="csr")
    Dy = sp.kron(Iu, _circulant_d1(grid.nv, grid.hv), format="csr")
    L = sp.kron(_circulant_d2(grid.nu, grid.hu), Iv, format="csr") + sp.kron(
        Iu, _circulant_d2(grid.nv, grid.hv), format="csr"
    )
    return Dx, Dy, L


def _jacobian(grid: Grid, mu: np.ndarray, H: float, KN: np.ndarray, ops) -> sp.csr_matrix:
    Dx, Dy, L = ops
    m = mu.ravel()
    lap_mu = flat_laplacian(grid, mu).ravel()
    grad = flat_gradient(grid, mu)
    gx = grad[..., 0].ravel()
    gy = grad[..., 1].ravel()
    react_p = 2.0 * (KN.ravel() + H * H) - 3.0 * m * m / (2.0 * H * H)
    J = (
        -sp.diags(lap_mu)
        - sp.diags(m) @ L
        + 2.0 * (sp.diags(gx) @ Dx + sp.diags(gy) @ Dy)
        + sp.diags(react_p)
    )
    return J.tocsr()


@dataclass
class MuSolution:
    problem: MuProblem
    mu: np.ndarray
    residual_history: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0

    @property
    def final_residual_linf(self) -> float:
        return self.residual_history[-1] if self.residual_history else np.inf


def solve_mu(
    problem: MuProblem,
    tol_newton: float = 1e-10,
    max_iter: int = 30,
    max_halvings: int = 20,
) -> MuSolution:
    grid = problem.grid
    mu = problem.mu0.copy()
    ops = _operators(grid)
    sol = MuSolution(problem, mu)

    F = mu_residual(grid, mu, problem.H, problem.KN)
    norm = np.linalg.norm(F)
    sol.residual_history.append(float(np.max(np.abs(F))))
    for it in range(max_iter):
        if sol.residual_history[-1] <= tol_newton:
            break
        J = _jacobian(grid, mu, problem.H, problem.KN, ops)
        rhs = -F.ravel()
        with np.errstate(all="ignore"):
            # J is structurally symmetric (periodic 5-point L, Dx, Dy), so the
            # minimum-degree ordering of J^T + J suits it better than COLAMD
            step = spla.spsolve(J, rhs, permc_spec="MMD_AT_PLUS_A")
        if not np.all(np.isfinite(step)):
            step = spla.lsmr(J, rhs, atol=1e-14, btol=1e-14)[0]
            if not np.all(np.isfinite(step)):
                raise SolverError(f"singular Jacobian at iteration {it}")
        step = step.reshape(grid.shape)

        alpha = 1.0
        accepted = False
        for _ in range(max_halvings + 1):
            trial = np.maximum(mu + alpha * step, MU_FLOOR)
            F_trial = mu_residual(grid, trial, problem.H, problem.KN)
            norm_trial = np.linalg.norm(F_trial)
            if norm_trial <= (1.0 - 1e-4 * alpha) * norm or norm_trial <= tol_newton:
                mu, F, norm = trial, F_trial, norm_trial
                accepted = True
                break
            alpha *= 0.5
        sol.iterations = it + 1
        sol.residual_history.append(float(np.max(np.abs(F))))
        if not accepted:
            break

    sol.mu = mu
    sol.converged = sol.residual_history[-1] <= tol_newton
    return sol


@dataclass
class ReconstructedGeometry:
    chart: ConformalChart  # rho = -(log mu)/2, g = (1/mu)(dx^2 + dy^2)
    A_H: np.ndarray  # mixed (1,1) components, diag(lam1, lam2)
    lam1: np.ndarray
    lam2: np.ndarray


def reconstruct_geometry(sol: MuSolution) -> ReconstructedGeometry:
    """Metric and shape operator of the gap solution: lam_{1,2} = |H|^2 +/- mu/2."""
    if not sol.converged:
        raise SolverError("reconstruction requires a converged solution")
    H = sol.problem.H
    rho = -0.5 * np.log(sol.mu)
    chart = ConformalChart(sol.problem.grid, rho)
    lam1 = H * H + 0.5 * sol.mu
    lam2 = H * H - 0.5 * sol.mu
    A_H = np.zeros(sol.problem.grid.shape + (2, 2))
    A_H[..., 0, 0] = lam1
    A_H[..., 1, 1] = lam2
    return ReconstructedGeometry(chart, A_H, lam1, lam2)


def gauss_consistency(sol: MuSolution) -> np.ndarray:
    """Residual of K = K_N + |H|^2 - mu^2 / (4 |H|^2) with K from the
    reconstructed conformal factor."""
    H = sol.problem.H
    rho = -0.5 * np.log(sol.mu)
    chart = ConformalChart(sol.problem.grid, rho)
    K = gauss_curvature_conformal(chart)
    return K - (sol.problem.KN + H * H - sol.mu**2 / (4.0 * H * H))
