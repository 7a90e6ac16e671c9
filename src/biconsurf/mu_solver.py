"""Damped Newton solver for the principal-curvature-gap equation.

The gap mu = lambda1 - lambda2 > 0 of a CMC biconservative surface in a
3-space form makes g = (1/mu) (dx^2 + dy^2) a metric whose Gauss equation is
K = K_N + |H|^2 - mu^2 / (4 |H|^2). Its curvature is K = (mu/2) Lap_0 w with
w = log mu and Lap_0 = d_xx + d_yy the flat (analyst's) Laplacian, so on a
doubly periodic grid the solver finds w with

    G(w) = -Lap_0 w + 2 (K_N + |H|^2) e^{-w} - e^{w} / (2 |H|^2) = 0,

the elliptic sinh-Gordon equation (Wente 1986, Pinkall & Sterling 1989).
Lap_0 is the periodic 5-point stencil. In the continuum G = F / mu^2, where
F = mu Lap mu + |grad mu|^2 + 2 mu (K_N + |H|^2 - mu^2 / (4 |H|^2)) is the
same equation written in mu (Lap the geometer's -(d_xx + d_yy)).
``gauss_consistency`` takes K = (mu/2) Lap_0 w with the same stencil, so the
discrete Gauss consistency of an iterate is -(mu/2) G identically.

Newton runs on w, and the iterate is kept as mu = e^w: a step s in w
multiplies mu by e^{alpha s}, so mu stays positive. The Jacobian
dG/dw = -Lap_0 - diag(d), d = 2 (K_N + |H|^2) e^{-w} + e^{w} / (2 |H|^2),
has the fixed periodic 5-point pattern and constant neighbour entries; both
are built once per solve and each step fills only the centre entries.

Each Newton step is solved by GMRES on that Jacobian, right-preconditioned
by its constant-coefficient part lam_h - mean(d), where lam_h is the symbol
of the periodic 5-point -(d_xx + d_yy): the preconditioner is diagonal in
Fourier space and applied with two real FFTs (Knoll & Keyes 2004,
*Jacobian-free Newton-Krylov methods*). It is nearly singular on the same
low modes as the Jacobian (sin x sin y on the README problem), so it
carries that mode rather than fighting it. A Krylov step is taken only when
it is finite and its normwise backward error
||J s - b|| / (||J||_inf ||s|| + ||b||) is at most ``BACKWARD_ERROR_TOL``,
the accuracy of a direct solve; the Newton path is then that of a direct
solver. Otherwise the step falls back to SuperLU, ordered by minimum degree
on J^T + J (``permc_spec="MMD_AT_PLUS_A"``); a singular Jacobian, on which
SuperLU returns no finite step, is a ``SolverError``.

Steps are damped by backtracking on the residual norm. Where
K_N + |H|^2 <= 0 at every node, a solution would have Lap_0 w < 0 at every
node, which no periodic w allows (the stencil sums to zero over the grid);
the solver then stops before the first Newton step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import Grid, InputError, flat_laplacian

# largest normwise backward error of an accepted Krylov step
BACKWARD_ERROR_TOL = 1e-14
# halvings of a Newton step the line search tries before the solve stops
MAX_HALVINGS = 20
NO_PERIODIC_SOLUTION = ("no periodic solution: K_N + |H|^2 <= 0 at every node"
                        " forces Lap w < 0 everywhere")


class SolverError(FloatingPointError):
    """A solve that cannot go on. A FloatingPointError, so callers that map
    numerical failures need not import this module (and scipy) to catch it."""


@dataclass(frozen=True)
class MuProblem:
    grid: Grid
    H: float  # constant |H| > 0
    KN: np.ndarray  # sectional curvature of the ambient 3-space along the surface
    mu0: np.ndarray  # positive initial guess

    def __post_init__(self):
        if not self.grid.doubly_periodic:
            raise InputError("mu problem requires a doubly periodic grid")
        # written so that NaN fails each test
        if not 0 < self.H < np.inf:
            raise InputError(f"|H| must be a positive finite number, got {self.H!r}")
        KN = np.broadcast_to(np.asarray(self.KN, dtype=np.float64), self.grid.shape).copy()
        if not np.all(np.isfinite(KN)):
            raise InputError("K_N must be finite everywhere")
        mu0 = np.asarray(self.mu0, dtype=np.float64)
        if mu0.shape != self.grid.shape:
            raise InputError("mu0 shape does not match grid")
        if not np.all((mu0 > 0) & (mu0 < np.inf)):
            raise InputError("mu0 must be positive and finite everywhere")
        object.__setattr__(self, "KN", KN)
        object.__setattr__(self, "mu0", mu0)


def constant_root(H: float, KN: float) -> float:
    """The positive constant solution 2 |H| sqrt(K_N + |H|^2) (needs K_N + |H|^2 > 0)."""
    if KN + H * H <= 0:
        raise InputError("no positive constant root when K_N + |H|^2 <= 0")
    return 2.0 * H * np.sqrt(KN + H * H)


def mu_residual(grid: Grid, mu: np.ndarray, H: float, KN) -> np.ndarray:
    """Pointwise residual G of the gap equation at w = log mu."""
    mu = np.asarray(mu, dtype=np.float64)
    if np.any(mu <= 0):
        raise ValueError("mu must be positive everywhere")
    react = 2.0 * (np.asarray(KN) + H * H) / mu - mu / (2.0 * H * H)
    return react - flat_laplacian(grid, np.log(mu))


# slots of the five stencil entries within each row of the Jacobian's data
_CENTRE, _U_MINUS, _U_PLUS, _V_MINUS, _V_PLUS = range(5)


class _Operators(NamedTuple):
    """What the Newton steps of one solve share: the fixed sparsity of the
    Jacobian, the one row of -Lap_0 entries every Jacobian starts from, and
    the Fourier symbol of the preconditioner.

    Every Jacobian of the solve holds these very index arrays, and the
    natural-order ``indices`` are not sorted within rows, so they are
    read-only: canonicalizing one Jacobian in place (``abs(J)``,
    ``J.sort_indices()``) raises instead of reordering the pattern under all
    the others."""

    grid: Grid
    indptr: np.ndarray
    indices: np.ndarray
    stencil: np.ndarray
    symbol: np.ndarray


def _operators(grid: Grid) -> _Operators:
    nu, nv = grid.shape
    n = nu * nv
    i, j = np.divmod(np.arange(n), nv)
    cols = np.empty((n, 5), dtype=np.int32)
    cols[:, _CENTRE] = i * nv + j
    cols[:, _U_MINUS] = ((i - 1) % nu) * nv + j
    cols[:, _U_PLUS] = ((i + 1) % nu) * nv + j
    cols[:, _V_MINUS] = i * nv + (j - 1) % nv
    cols[:, _V_PLUS] = i * nv + (j + 1) % nv
    indptr = np.arange(0, 5 * n + 1, 5, dtype=np.int32)
    cu, cv = 1.0 / (grid.hu * grid.hu), 1.0 / (grid.hv * grid.hv)
    stencil = np.empty(5)
    stencil[_CENTRE] = 2.0 * (cu + cv)
    stencil[[_U_MINUS, _U_PLUS]] = -cu
    stencil[[_V_MINUS, _V_PLUS]] = -cv
    # lam_h = 4 sin^2(k h / 2) / h^2 per axis, on the rfft2 frequencies
    lam_u = (2.0 * np.sin(np.pi * np.arange(nu) / nu) / grid.hu) ** 2
    lam_v = (2.0 * np.sin(np.pi * np.arange(nv // 2 + 1) / nv) / grid.hv) ** 2
    ops = _Operators(grid, indptr, cols.ravel(), stencil, lam_u[:, None] + lam_v)
    for a in ops[1:]:
        a.flags.writeable = False
    return ops


def _jacobian(mu: np.ndarray, H: float, KN: np.ndarray, ops: _Operators) -> sp.csr_matrix:
    """dG/dw at w = log mu in natural order, filled on the fixed pattern of
    ``ops``: the 5-point stencil of -(d_xx + d_yy) minus
    d = 2 (K_N + |H|^2) e^{-w} + e^{w} / (2 |H|^2) on the diagonal."""
    m = mu.ravel()
    data = np.empty((m.size, 5))
    data[:] = ops.stencil
    data[:, _CENTRE] -= 2.0 * (KN.ravel() + H * H) / m + m / (2.0 * H * H)
    return sp.csr_matrix((data.ravel(), ops.indices, ops.indptr), shape=(m.size, m.size))


def _krylov_solve(J: sp.csr_matrix, rhs: np.ndarray, ops: _Operators) -> np.ndarray | None:
    """J^{-1} rhs by GMRES right-preconditioned with the constant-coefficient
    Jacobian lam_h - mean(d), or None when the step misses
    ``BACKWARD_ERROR_TOL``. The stencil entries of each row of J sum to
    zero, so -mean(d) is the mean row sum of J."""
    shape = ops.grid.shape
    P = ops.symbol + J.data.sum() / J.shape[0]

    def precondition(y):
        return np.fft.irfft2(np.fft.rfft2(y.reshape(shape)) / P, s=shape).ravel()

    norm_J = np.abs(J.data).reshape(-1, 5).sum(axis=1).max()
    norm_b = np.linalg.norm(rhs)
    atol = 0.1 * BACKWARD_ERROR_TOL * (norm_J * np.linalg.norm(precondition(rhs)) + norm_b)
    JP = spla.LinearOperator(J.shape, matvec=lambda y: J @ precondition(y), dtype=np.float64)
    y = spla.gmres(JP, rhs, restart=40, maxiter=3, rtol=0.0, atol=atol)[0]
    step = precondition(y)
    if not np.all(np.isfinite(step)):
        return None
    backward_error = np.linalg.norm(J @ step - rhs) / (norm_J * np.linalg.norm(step) + norm_b)
    return step if backward_error <= BACKWARD_ERROR_TOL else None


@dataclass
class MuSolution:
    problem: MuProblem
    mu: np.ndarray
    residual_history: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    # why the solve stopped unconverged, when that is known before Newton runs
    reason: str | None = None

    @property
    def final_residual_linf(self) -> float:
        return self.residual_history[-1] if self.residual_history else np.inf


def solve_mu(
    problem: MuProblem,
    tol_newton: float = 1e-10,
    max_iter: int = 30,
) -> MuSolution:
    grid, H, KN = problem.grid, problem.H, problem.KN
    mu = problem.mu0.copy()
    sol = MuSolution(problem, mu)

    F = mu_residual(grid, mu, H, KN)
    norm = np.linalg.norm(F)
    sol.residual_history.append(float(np.max(np.abs(F))))
    if np.all(KN + H * H <= 0):
        sol.reason = NO_PERIODIC_SOLUTION
        return sol
    ops = _operators(grid)
    # floating-point exceptions are dealt with by value: a step that is not
    # finite raises, and a trial whose e^w leaves the float range has a
    # residual that is not finite, which fails the descent test
    with np.errstate(all="ignore"):
        for it in range(max_iter):
            if sol.residual_history[-1] <= tol_newton:
                break
            J = _jacobian(mu, H, KN, ops)
            rhs = -F.ravel()
            step = _krylov_solve(J, rhs, ops)
            if step is None:
                step = spla.spsolve(J.tocsc(), rhs, permc_spec="MMD_AT_PLUS_A")
            if not np.all(np.isfinite(step)):
                raise SolverError(f"singular Jacobian at iteration {it}")
            step = step.reshape(grid.shape)

            alpha = 1.0
            accepted = False
            for _ in range(MAX_HALVINGS + 1):
                trial = mu * np.exp(alpha * step)
                if np.all(trial > 0):  # e^w underflows to 0 below w = -745
                    F_trial = mu_residual(grid, trial, H, KN)
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
    """Principal curvatures of the shape operator A_H = diag(lam1, lam2) in
    the reconstructed chart g = (1/mu)(dx^2 + dy^2)."""

    lam1: np.ndarray
    lam2: np.ndarray


def reconstruct_geometry(sol: MuSolution) -> ReconstructedGeometry:
    """Principal curvatures of the gap solution: lam_{1,2} = |H|^2 +/- mu/2."""
    if not sol.converged:
        raise SolverError("reconstruction requires a converged solution")
    H = sol.problem.H
    return ReconstructedGeometry(H * H + 0.5 * sol.mu, H * H - 0.5 * sol.mu)


def gauss_consistency(sol: MuSolution) -> np.ndarray:
    """Residual of K = K_N + |H|^2 - mu^2 / (4 |H|^2) with K = (mu/2) Lap_0 w
    the curvature of the reconstructed metric g = (1/mu) (dx^2 + dy^2)."""
    H = sol.problem.H
    K = 0.5 * sol.mu * flat_laplacian(sol.problem.grid, np.log(sol.mu))
    return K - (sol.problem.KN + H * H - sol.mu**2 / (4.0 * H * H))
