"""Damped inexact Newton solver for the principal-curvature-gap equation.

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
is applied matrix-free, as J s = -Lap_0 s - d s with the residual's own
stencil.

Each Newton step is an inexact Newton step (Dembo, Eisenstat & Steihaug
1982): it is solved only until ||J s + G|| <= eta_k ||G||, which keeps
Newton's local rate when the forcing term eta_k goes to 0 with ||G||. The
forcing terms are Eisenstat & Walker's (1996) choice 2,
eta_k = 0.9 (||G_k|| / ||G_{k-1}||)^2 from eta_0 = 0.5, safeguarded by
0.9 eta_{k-1}^2 where that exceeds 0.1, capped at ``FORCING_MAX`` (with a
cap of 0.9 a far start stalls) and floored so that no step is solved past
``FORCING_FLOOR`` absolute. The step is one GMRES pass (Saad & Schultz
1986) of at most ``KRYLOV_DIM`` steps, on numpy alone, right-preconditioned
by the Jacobian's constant-coefficient part P = lam_h - mean(d), where lam_h
is the symbol of the periodic 5-point -(d_xx + d_yy): P is diagonal in
Fourier space and applied with two real FFTs (Knoll & Keyes 2004,
*Jacobian-free Newton-Krylov methods*). As lam_h is the stencil's exact
symbol, J = P + diag(mean(d) - d), so a GMRES product
J P^{-1} y = y + (mean(d) - d) P^{-1} y is one FFT pair and no stencil. The
pass keeps the P^{-1} y its products took and forms the step from them, as
flexible GMRES does (Saad 1993), so the products are a step's only FFTs. P is
nearly singular on the same low modes as the Jacobian (sin x sin y on the
README problem), so it carries that mode rather than fighting it. A Krylov
step is taken only when it is finite and lowers the true linear residual,
||J s + G|| < ||G|| with the stencil J. Otherwise the step falls back to
SuperLU on the Jacobian, assembled as a Kronecker sum of 1-D periodic second
differences only when a step falls back, and ordered by minimum degree on
J^T + J (``permc_spec="MMD_AT_PLUS_A"``); a singular Jacobian, on which
SuperLU returns no finite step, is a ``SolverError``. Only that fallback
imports scipy: the module attribute ``spla`` is ``scipy.sparse.linalg``,
imported on first access (PEP 562), and the fallback calls ``spsolve``
through it.

Steps are damped by backtracking on the residual norm. Where
K_N + |H|^2 <= 0 at every node, a solution would have Lap_0 w < 0 at every
node, which no periodic w allows (the stencil sums to zero over the grid);
the solver then stops before the first Newton step. It stops there too when
the residual at the initial guess is not finite.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, InputError, flat_laplacian

# solve_mu's default residual L-inf and Newton step count; solve-mu reads them
TOL_NEWTON = 1e-10
MAX_ITER = 30
# Arnoldi steps of the one GMRES pass a Krylov step takes at most
KRYLOV_DIM = 40
# Eisenstat-Walker choice 2 forcing terms: eta_0, the factor 0.9 of the
# (||G_k|| / ||G_{k-1}||)^2 law and of the safeguard, the safeguard's
# threshold, the cap on eta_k, and the floor on eta_k ||G_k||
FORCING_START = 0.5
FORCING_GAMMA = 0.9
FORCING_SAFEGUARD = 0.1
FORCING_MAX = 0.5
FORCING_FLOOR = 5e-13
# halvings of a Newton step the line search tries before the solve stops
MAX_HALVINGS = 20
NO_PERIODIC_SOLUTION = ("no periodic solution: K_N + |H|^2 <= 0 at every node"
                        " forces Lap w < 0 everywhere")
NON_FINITE_START = "residual not finite at the initial guess"


def __getattr__(name):
    # PEP 562: scipy.sparse.linalg loads on the first access to ``spla``,
    # which only a SuperLU fallback (or a caller that wraps ``spsolve``) makes
    if name != "spla":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import scipy.sparse.linalg

    globals()["spla"] = scipy.sparse.linalg
    return scipy.sparse.linalg


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
        _check_coefficients(self.H, self.KN)
        KN = np.broadcast_to(np.asarray(self.KN, dtype=np.float64), self.grid.shape).copy()
        mu0 = np.asarray(self.mu0, dtype=np.float64)
        if mu0.shape != self.grid.shape:
            raise InputError("mu0 shape does not match grid")
        if not np.all((mu0 > 0) & (mu0 < np.inf)):
            raise InputError("mu0 must be positive and finite everywhere")
        object.__setattr__(self, "KN", KN)
        object.__setattr__(self, "mu0", mu0)


def _check_coefficients(H: float, KN) -> None:
    """|H| positive and finite, K_N finite everywhere."""
    # written so that NaN fails each test
    if not 0 < H < np.inf:
        raise InputError(f"|H| must be a positive finite number, got {H!r}")
    if not np.all(np.isfinite(KN)):
        raise InputError("K_N must be finite everywhere")


def constant_root(H: float, KN: float) -> float:
    """The positive constant solution 2 |H| sqrt(K_N + |H|^2) (needs
    K_N + |H|^2 > 0, and a root that a float holds)."""
    _check_coefficients(H, KN)
    # |H|^2 may underflow to 0, so only K_N < 0 can make the sum nonpositive
    if KN < 0 and KN + H * H <= 0:
        raise InputError("no positive constant root when K_N + |H|^2 <= 0")
    root = 2.0 * H * np.sqrt(KN + H * H)
    if not 0 < root < np.inf:
        raise InputError(f"the constant root 2 |H| sqrt(K_N + |H|^2) at |H| = {H!r}, "
                         f"K_N = {KN!r} is not a positive finite float; "
                         "give an initial guess with --mu0")
    return root


def mu_residual(grid: Grid, mu: np.ndarray, H: float, KN) -> np.ndarray:
    """Pointwise residual G of the gap equation at w = log mu."""
    mu = np.asarray(mu, dtype=np.float64)
    if np.any(mu <= 0):
        raise ValueError("mu must be positive everywhere")
    react = 2.0 * (np.asarray(KN) + H * H) / mu - mu / (2.0 * H * H)
    return react - flat_laplacian(grid, np.log(mu))


def l2_norm(f: np.ndarray) -> float:
    """2-norm of a field, taken on f / max|f| so that no square overflows;
    inf or nan when f holds one."""
    scale = np.max(np.abs(f))
    if not 0.0 < scale < np.inf:
        return float(scale)
    return float(scale * np.linalg.norm(f / scale))


def _operators(grid: Grid) -> np.ndarray:
    """The Fourier symbol lam_h of the periodic 5-point -(d_xx + d_yy), which
    the Newton steps of one solve share."""
    nu, nv = grid.shape
    # lam_h = 4 sin^2(k h / 2) / h^2 per axis, on the rfft2 frequencies
    lam_u = (2.0 * np.sin(np.pi * np.arange(nu) / nu) / grid.hu) ** 2
    lam_v = (2.0 * np.sin(np.pi * np.arange(nv // 2 + 1) / nv) / grid.hv) ** 2
    return lam_u[:, None] + lam_v


def _reaction_d(mu: np.ndarray, H: float, KN: np.ndarray) -> np.ndarray:
    """d = 2 (K_N + |H|^2) e^{-w} + e^{w} / (2 |H|^2) at w = log mu, so that
    dG/dw = -Lap_0 - diag(d)."""
    return 2.0 * (KN + H * H) / mu + mu / (2.0 * H * H)


def _jacobian_apply(grid: Grid, d: np.ndarray, s: np.ndarray) -> np.ndarray:
    """J s = -Lap_0 s - d s, on the residual's own stencil."""
    return -flat_laplacian(grid, s) - d * s


def _jacobian(mu: np.ndarray, H: float, KN: np.ndarray, grid: Grid):
    """dG/dw at w = log mu as a CSR matrix in natural order: -Lap_0 as the
    Kronecker sum of the 1-D periodic -d^2 per axis (``kronsum(A, B)`` is
    I (x) A + B (x) I, so v is the fast index), minus d on the diagonal. Only
    the SuperLU fallback assembles it, and only it imports scipy.sparse."""
    import scipy.sparse as sp

    def minus_d2(n, h):
        c = 1.0 / (h * h)
        return sp.diags([-c, -c, 2.0 * c, -c, -c], [1 - n, -1, 0, 1, n - 1], shape=(n, n))

    lap = sp.kronsum(minus_d2(grid.nv, grid.hv), minus_d2(grid.nu, grid.hu))
    return lap - sp.diags(_reaction_d(mu, H, KN).ravel())


def _gmres(precondition, matvec, b: np.ndarray, beta: float, atol: float) -> np.ndarray:
    """x for A x = b by one pass of flexible GMRES from x = 0 (Saad 1993),
    right-preconditioned by M, on flat vectors: ``precondition(v)`` is
    z = M^{-1} v and ``matvec(v, z)`` is A z, with beta = ||b|| > 0. At most
    ``KRYLOV_DIM`` Arnoldi steps (modified Gram-Schmidt, Givens rotations,
    one triangular solve); x = sum y_i z_i from the z_i the products took, so
    M^{-1} is applied once per product and never to the result. The pass ends
    when the rotated residual is at most atol, or the Krylov space stops
    growing, an exact solution (happy breakdown) or a vector that is not
    finite. No product checks x; the caller judges it."""
    n = b.size
    m = min(KRYLOV_DIM, n)
    eps = np.finfo(np.float64).eps
    V = np.empty((m + 1, n))
    Z = np.empty((m, n))  # the preconditioned V, as the products took them
    R = np.zeros((m, m))  # the Hessenberg matrix, rotated to upper triangular
    cs, sn, g = np.zeros(m), np.zeros(m), np.zeros(m + 1)
    g[0] = beta
    V[0] = b / beta
    for k in range(m):
        Z[k] = precondition(V[k])
        w = matvec(V[k], Z[k])
        h0 = np.linalg.norm(w)
        for i in range(k + 1):
            R[i, k] = V[i] @ w
            w -= R[i, k] * V[i]
        h = np.linalg.norm(w)
        # written so that NaN breaks down too
        breakdown = not h > eps * h0
        if breakdown:
            h = 0.0
        else:
            V[k + 1] = w / h
        for i in range(k):
            R[i, k], R[i + 1, k] = (cs[i] * R[i, k] + sn[i] * R[i + 1, k],
                                    cs[i] * R[i + 1, k] - sn[i] * R[i, k])
        rho = np.hypot(R[k, k], h)
        cs[k], sn[k] = R[k, k] / rho, h / rho
        R[k, k] = rho
        g[k + 1] = -sn[k] * g[k]
        g[k] *= cs[k]
        if breakdown or abs(g[k + 1]) <= atol:
            break
    y = np.empty(k + 1)
    for i in range(k, -1, -1):
        y[i] = (g[i] - R[i, i + 1:k + 1] @ y[i + 1:]) / R[i, i]
    return y @ Z[:k + 1]


def _krylov_solve(d: np.ndarray, rhs: np.ndarray, grid: Grid,
                  symbol: np.ndarray, eta: float) -> np.ndarray | None:
    """An inexact J^{-1} rhs for J = -Lap_0 - diag(d): GMRES, right-
    preconditioned with P = lam_h - mean(d) (``symbol`` is lam_h), stops at a
    residual of eta ||rhs||. None when the step is not finite or does not
    lower the true residual ||J s - rhs|| below ||rhs||, on the stencil J.
    d, rhs and the step are node fields. lam_h is the stencil's exact symbol,
    so J = P + diag(mean(d) - d) and a product J z, z = P^{-1} v, is
    v + (mean(d) - d) z: one FFT pair per product, and none besides, as the
    step is formed from the products' z. A zero rhs has the zero step, with
    no FFT."""
    shape = grid.shape
    beta = l2_norm(rhs)
    if beta == 0.0:
        return np.zeros(shape)
    mean_d = np.mean(d)
    P, shift = symbol - mean_d, (mean_d - d).ravel()

    def precondition(v):
        return np.fft.irfft2(np.fft.rfft2(v.reshape(shape)) / P, s=shape).ravel()

    def matvec(v, z):
        return v + shift * z

    step = _gmres(precondition, matvec, rhs.ravel(), beta, eta * beta).reshape(shape)
    if not np.all(np.isfinite(step)):
        return None
    return step if l2_norm(_jacobian_apply(grid, d, step) - rhs) < beta else None


@dataclass
class MuSolution:
    problem: MuProblem
    mu: np.ndarray
    # the residual G at mu; residual_history ends with its L-inf
    residual: np.ndarray
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
    tol_newton: float = TOL_NEWTON,
    max_iter: int = MAX_ITER,
) -> MuSolution:
    grid, H, KN = problem.grid, problem.H, problem.KN
    mu = problem.mu0.copy()

    # floating-point exceptions are dealt with by value: a residual that is
    # not finite at the initial guess stops the solve, a step that is not
    # finite raises, and a trial whose e^w leaves the float range has a
    # residual that is not finite, which fails the descent test
    with np.errstate(all="ignore"):
        F = mu_residual(grid, mu, H, KN)
        norm = l2_norm(F)
        sol = MuSolution(problem, mu, F, [float(np.max(np.abs(F)))])
        # |H|^2 may underflow to 0, so only K_N < 0 can make the sum nonpositive
        if np.all((KN < 0) & (KN + H * H <= 0)):
            sol.reason = NO_PERIODIC_SOLUTION
            return sol
        if not np.isfinite(norm):
            sol.reason = NON_FINITE_START
            return sol
        symbol = _operators(grid)
        eta, norm_prev = FORCING_START, norm
        for it in range(max_iter):
            if sol.residual_history[-1] <= tol_newton:
                break
            if it > 0:
                # Eisenstat-Walker choice 2; while eta is large, the safeguard
                # keeps it from dropping faster than it did
                safeguard = FORCING_GAMMA * eta**2
                eta = FORCING_GAMMA * (norm / norm_prev) ** 2
                if safeguard > FORCING_SAFEGUARD:
                    eta = max(eta, safeguard)
                eta = min(eta, FORCING_MAX)
            norm_prev = norm
            step = _krylov_solve(_reaction_d(mu, H, KN), -F, grid, symbol,
                                 max(eta, FORCING_FLOOR / norm))
            if step is None:
                J = _jacobian(mu, H, KN, grid)
                # through the module attribute, which imports scipy on first use
                lu = sys.modules[__name__].spla.spsolve(J.tocsc(), -F.ravel(),
                                                        permc_spec="MMD_AT_PLUS_A")
                step = lu.reshape(grid.shape)
            if not np.all(np.isfinite(step)):
                raise SolverError(f"singular Jacobian at iteration {it}")

            alpha = 1.0
            accepted = False
            for _ in range(MAX_HALVINGS + 1):
                trial = mu * np.exp(alpha * step)
                if np.all(trial > 0):  # e^w underflows to 0 below w = -745
                    F_trial = mu_residual(grid, trial, H, KN)
                    norm_trial = l2_norm(F_trial)
                    if norm_trial <= (1.0 - 1e-4 * alpha) * norm or norm_trial <= tol_newton:
                        mu, F, norm = trial, F_trial, norm_trial
                        accepted = True
                        break
                alpha *= 0.5
            sol.iterations = it + 1
            sol.residual_history.append(float(np.max(np.abs(F))))
            if not accepted:
                break

    sol.mu, sol.residual = mu, F
    sol.converged = sol.residual_history[-1] <= tol_newton
    return sol


def reconstruct_geometry(sol: MuSolution) -> tuple[np.ndarray, np.ndarray]:
    """Principal curvatures (lam1, lam2) = |H|^2 +/- mu/2 of the shape
    operator A_H = diag(lam1, lam2) in the reconstructed chart
    g = (1/mu)(dx^2 + dy^2)."""
    if not sol.converged:
        raise SolverError("reconstruction requires a converged solution")
    H = sol.problem.H
    return H * H + 0.5 * sol.mu, H * H - 0.5 * sol.mu


def gauss_consistency(sol: MuSolution) -> np.ndarray:
    """Residual of K = K_N + |H|^2 - mu^2 / (4 |H|^2) with K = (mu/2) Lap_0 w
    the curvature of the reconstructed metric g = (1/mu) (dx^2 + dy^2)."""
    H = sol.problem.H
    K = 0.5 * sol.mu * flat_laplacian(sol.problem.grid, np.log(sol.mu))
    return K - (sol.problem.KN + H * H - (sol.mu / (2.0 * H)) ** 2)
