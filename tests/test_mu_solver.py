import types

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from biconsurf import mu_solver
from biconsurf.grid import build_grid, flat_gradient, flat_laplacian
from biconsurf.mu_solver import (
    NO_PERIODIC_SOLUTION,
    MuProblem,
    SolverError,
    constant_root,
    gauss_consistency,
    mu_residual,
    reconstruct_geometry,
    solve_mu,
)

TWO_PI = 2.0 * np.pi


def torus_grid(n=64, nv=None):
    return build_grid((0.0, TWO_PI), (0.0, TWO_PI), n, nv or n, True, True)


def make_problem(n=64, H=1.0, KN=0.0, amp=0.1, base=None, nv=None):
    g = torus_grid(n, nv)
    U, V = g.mesh()
    if base is None:
        base = constant_root(H, KN)
    mu0 = base * (1.0 + amp * np.sin(U) * np.sin(V))
    return MuProblem(g, H, KN, mu0)


class TestResidual:
    def test_constant_equilibrium_is_exact_zero(self):
        g = torus_grid(16)
        r = mu_residual(g, np.full(g.shape, 2.0), 1.0, 0.0)
        np.testing.assert_allclose(r, 0.0, atol=1e-14)

    def test_hand_value_at_constant_one(self):
        # mu = 1, H = 1, KN = 0: residual = 2 (0 + 1) e^0 - e^0 / 2 = 3/2
        g = torus_grid(16)
        r = mu_residual(g, np.ones(g.shape), 1.0, 0.0)
        np.testing.assert_allclose(r, 1.5, atol=1e-14)

    def test_constant_root_annihilates_residual(self, rng):
        g = torus_grid(16)
        for _ in range(10):
            H = float(rng.uniform(0.2, 3.0))
            KN = float(rng.uniform(-0.5 * H**2, 2.0))
            mu = np.full(g.shape, constant_root(H, KN))
            r = mu_residual(g, mu, H, KN)
            assert np.max(np.abs(r)) < 1e-12

    def test_translation_equivariance(self):
        # a doubly periodic residual commutes with grid translations
        g = torus_grid(32)
        U, V = g.mesh()
        mu = 2.0 + 0.3 * np.sin(U) * np.cos(V)
        r = mu_residual(g, mu, 1.0, 0.0)
        shifted = mu_residual(g, np.roll(mu, (3, 5), axis=(0, 1)), 1.0, 0.0)
        np.testing.assert_allclose(np.roll(r, (3, 5), axis=(0, 1)), shifted, atol=1e-12)

    def test_variable_normal_curvature_broadcast(self):
        g = torus_grid(16)
        U, V = g.mesh()
        KN = 0.2 * np.cos(U + V)
        r = mu_residual(g, np.full(g.shape, 2.0), 1.0, KN)
        expect = 2.0 * (KN + 1.0) / 2.0 - 2.0 / 2.0
        np.testing.assert_allclose(r, expect, atol=1e-13)

    def test_mu_form_over_mu_squared(self):
        # G = F / mu^2 in the continuum, F the equation written in mu:
        # mu Lap mu + |grad mu|^2 + 2 mu (K_N + |H|^2 - mu^2 / (4 |H|^2)) with
        # the geometer's Lap; the two discretizations differ at O(h^2)
        gaps = []
        for n in (32, 64):
            g = torus_grid(n)
            U, V = g.mesh()
            mu = 2.0 + 0.3 * np.sin(U) * np.cos(2 * V)
            KN = 0.2 * np.cos(U + V)
            grad = flat_gradient(g, mu)
            F = (-mu * flat_laplacian(g, mu) + grad[..., 0] ** 2 + grad[..., 1] ** 2
                 + 2.0 * mu * (KN + 1.3**2 - mu**2 / (4.0 * 1.3**2)))
            gaps.append(np.max(np.abs(mu_residual(g, mu, 1.3, KN) - F / mu**2)))
        assert gaps[1] < 2e-3
        assert np.log2(gaps[0] / gaps[1]) > 1.9


class TestProblemValidation:
    def test_needs_doubly_periodic_grid(self):
        g = build_grid((0.0, 1.0), (0.0, 1.0), 16, 16)
        with pytest.raises(ValueError):
            MuProblem(g, 1.0, 0.0, np.full(g.shape, 2.0))

    def test_needs_positive_H_and_mu0(self):
        g = torus_grid(8)
        with pytest.raises(ValueError):
            MuProblem(g, 0.0, 0.0, np.full(g.shape, 2.0))
        with pytest.raises(ValueError):
            MuProblem(g, 1.0, 0.0, np.zeros(g.shape))


class TestNewton:
    def test_converges_to_constant_root(self):
        sol = solve_mu(make_problem())
        assert sol.converged
        assert sol.iterations <= 12
        np.testing.assert_allclose(sol.mu, 2.0, atol=1e-9)
        assert sol.final_residual_linf <= 1e-10

    def test_damped_norm_monotone(self):
        sol = solve_mu(make_problem())
        hist = sol.residual_history
        assert all(b < a for a, b in zip(hist, hist[1:]))

    @pytest.mark.parametrize("H,KN,iterations", [(1.0, 0.0, 5), (1.1, 0.3, 3)])
    def test_iteration_counts_pinned(self, H, KN, iterations):
        # the README problem excites the near-null sin x sin y mode; the
        # generic (H, K_N) does not
        sol = solve_mu(make_problem(H=H, KN=KN))
        assert sol.converged
        assert sol.iterations == iterations
        F = mu_residual(sol.problem.grid, sol.mu, H, KN)
        assert np.max(np.abs(F)) <= 1e-10

    def test_exact_start_zero_iterations(self):
        sol = solve_mu(make_problem(amp=0.0))
        assert sol.converged
        assert sol.iterations == 0

    def test_jacobian_matches_directional_derivative(self, rng):
        # the Jacobian is dG/dw: a central difference of G along w = log mu
        from biconsurf.mu_solver import _jacobian

        g = torus_grid(16)
        U, V = g.mesh()
        w = np.log(2.0 + 0.2 * np.sin(U) * np.cos(2 * V))
        KN = 0.2 * np.cos(U) * np.cos(2 * V)
        d = rng.standard_normal(g.shape)
        J = _jacobian(np.exp(w), 1.3, KN, g)
        eps = 1e-6
        fd = (
            mu_residual(g, np.exp(w + eps * d), 1.3, KN)
            - mu_residual(g, np.exp(w - eps * d), 1.3, KN)
        ) / (2.0 * eps)
        jd = (J @ d.ravel()).reshape(g.shape)
        np.testing.assert_allclose(jd, fd, atol=1e-6 * np.max(np.abs(jd)))

    def test_negative_normal_curvature_still_runs(self, monkeypatch):
        # KN = -2 < -H^2 at every node: a solution would have Lap w < 0
        # everywhere, which no periodic w allows, so Newton never starts
        monkeypatch.setattr(mu_solver, "_operators", None)
        g = torus_grid(32)
        prob = MuProblem(g, 1.0, -2.0, np.full(g.shape, 1.0))
        sol = solve_mu(prob, max_iter=5)
        assert not sol.converged and sol.iterations == 0
        assert sol.reason == NO_PERIODIC_SOLUTION
        assert sol.residual_history == [np.max(np.abs(mu_residual(g, prob.mu0, 1.0, -2.0)))]
        assert np.isfinite(sol.final_residual_linf)

    @pytest.mark.parametrize("n", [32, 64])
    def test_far_start_reaches_non_constant_branch(self, n):
        # H = 1, K_N = -0.5 from a 90% sin x sin y perturbation of the root:
        # Newton in w converges to a non-constant solution
        sol = solve_mu(make_problem(n=n, KN=-0.5, amp=0.9))
        assert sol.converged and sol.iterations <= 8
        assert np.max(sol.mu) - np.min(sol.mu) > 1.0


def _circulant(n, offsets, values):
    # periodic banded n x n matrix with values[k] on the wrapped diagonal offsets[k]
    i = np.arange(n)
    rows = np.concatenate([i] * len(offsets))
    cols = np.concatenate([(i + o) % n for o in offsets])
    vals = np.concatenate([np.full(n, v) for v in values])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def kron_jacobian(g, mu, H, KN):
    """The Jacobian dG/dw assembled from diags and Kronecker-product operators."""
    d2 = [_circulant(n, (1, 0, -1), (1.0 / (h * h), -2.0 / (h * h), 1.0 / (h * h)))
          for n, h in ((g.nu, g.hu), (g.nv, g.hv))]
    L = sp.kron(d2[0], sp.identity(g.nv)) + sp.kron(sp.identity(g.nu), d2[1])
    w = np.log(mu.ravel())
    d = 2.0 * (np.ravel(KN) + H * H) * np.exp(-w) + np.exp(w) / (2.0 * H * H)
    return (-L - sp.diags(d)).tocsr()


class TestLinearLayer:
    @pytest.mark.parametrize("shape", [(16, 16), (12, 20), (4, 4), (4, 7)])
    def test_jacobian_matches_kron_assembly(self, shape):
        g = torus_grid(*shape)
        U, V = g.mesh()
        mu = 2.0 + 0.2 * np.sin(U) * np.cos(2 * V) + 0.1 * np.cos(3 * U + V)
        KN = 0.2 * np.cos(U) * np.cos(2 * V)
        J = mu_solver._jacobian(mu, 1.3, KN, g)
        ref = kron_jacobian(g, mu, 1.3, KN)
        assert J.nnz == ref.nnz == 5 * g.nu * g.nv
        assert abs(J - ref).max() <= 1e-13 * abs(ref).max()

    def test_work_counts(self, monkeypatch):
        # one matrix-free Krylov solve per Newton step; on the README problem
        # no step assembles a Jacobian or falls back to SuperLU
        calls = {"operators": 0, "krylov": 0, "jacobian": 0, "spsolve": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name, attr in (("operators", "_operators"), ("krylov", "_krylov_solve"),
                           ("jacobian", "_jacobian")):
            monkeypatch.setattr(mu_solver, attr, counted(name, getattr(mu_solver, attr)))
        monkeypatch.setattr(mu_solver, "spla",
                            types.SimpleNamespace(spsolve=counted("spsolve", spla.spsolve)))
        sol = solve_mu(make_problem(n=32))
        assert sol.converged and sol.iterations > 0
        assert calls == {"operators": 1, "krylov": sol.iterations, "jacobian": 0, "spsolve": 0}

    @pytest.mark.parametrize("n,nv", [(64, None), (24, 40)])
    def test_krylov_step_is_a_direct_solve(self, n, nv):
        prob = make_problem(n=n, nv=nv)
        g, mu = prob.grid, prob.mu0
        J = mu_solver._jacobian(mu, prob.H, prob.KN, g)
        rhs = -mu_residual(g, mu, prob.H, prob.KN)
        step = mu_solver._krylov_solve(mu_solver._reaction_d(mu, prob.H, prob.KN), rhs, g,
                                       mu_solver._operators(g))
        assert step is not None
        step, rhs = step.ravel(), rhs.ravel()
        norm_J = abs(kron_jacobian(g, mu, prob.H, prob.KN)).sum(axis=1).max()
        backward_error = (np.linalg.norm(J @ step - rhs)
                          / (norm_J * np.linalg.norm(step) + np.linalg.norm(rhs)))
        assert backward_error <= mu_solver.BACKWARD_ERROR_TOL
        # the README Jacobian is nearly singular on sin x sin y: at 64^2 a
        # backward error of 2.1e-16 there is a forward difference of 7.0e-13
        ref = spla.spsolve(J.tocsc(), rhs, permc_spec="MMD_AT_PLUS_A")
        assert np.max(np.abs(step - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_lu_fallback_keeps_the_newton_path(self, monkeypatch):
        # with K_N = 2 cos x cos y the solution is far from constant (mu from
        # 0.4 to 65), and one Jacobian is too far from the constant-coefficient
        # preconditioner for GMRES to reach the backward-error bar
        g = torus_grid(32)
        U, V = g.mesh()
        prob = MuProblem(g, 1.0, 2.0 * np.cos(U) * np.cos(V),
                         2.0 * np.exp(0.1 * np.sin(3 * U) * np.cos(5 * V)))
        fallbacks = []

        def counted_spsolve(*args, **kwargs):
            fallbacks.append(1)
            return spla.spsolve(*args, **kwargs)

        monkeypatch.setattr(mu_solver, "spla", types.SimpleNamespace(spsolve=counted_spsolve))
        sol = solve_mu(prob)
        assert sol.converged
        assert 1 <= len(fallbacks) < sol.iterations

        fallbacks.clear()
        monkeypatch.setattr(mu_solver, "_krylov_solve", lambda *args: None)
        lu = solve_mu(prob)
        assert len(fallbacks) == lu.iterations
        assert (sol.iterations, sol.converged) == (lu.iterations, lu.converged)
        # the Krylov steps agree with the LU ones to round-off; the last
        # residual is round-off itself. Each residual is evaluated from terms
        # as large as max mu / (2 |H|^2) = 33, so it is known to a few ulps of
        # that (7.1e-15 each): the 1.2e-7 of step 6 cannot agree to rtol alone
        floor = 16 * np.finfo(np.float64).eps * np.max(lu.mu) / 2.0
        np.testing.assert_allclose(sol.residual_history[:-1], lu.residual_history[:-1],
                                   rtol=1e-9, atol=floor)
        np.testing.assert_allclose(sol.mu, lu.mu, rtol=1e-10)

    def test_non_finite_lu_step_raises(self, monkeypatch):
        # when the Krylov step misses the bar and SuperLU returns no finite
        # step (a singular Jacobian), the solve stops with a SolverError
        def nan_spsolve(A, b, **kwargs):
            return np.full_like(b, np.nan)

        monkeypatch.setattr(mu_solver, "_krylov_solve", lambda *args: None)
        monkeypatch.setattr(mu_solver, "spla", types.SimpleNamespace(spsolve=nan_spsolve))
        with pytest.raises(SolverError, match="^singular Jacobian at iteration 0$"):
            solve_mu(make_problem(n=16, H=1.1, KN=0.3))

    def test_shared_pattern_survives_canonicalization(self):
        # each Jacobian owns its arrays: canonicalizing one in place leaves
        # the next one right
        g = torus_grid(12, 20)
        U, V = g.mesh()
        mu = 2.0 + 0.2 * np.sin(U) * np.cos(2 * V)
        KN = 0.2 * np.cos(U) * np.cos(2 * V)
        for canonicalize in (abs, sp.csr_matrix.sort_indices, sp.csr_matrix.sum_duplicates):
            J = mu_solver._jacobian(mu, 1.3, KN, g)
            try:
                canonicalize(J)
            except ValueError:
                pass
            mu = mu + 0.1 * np.cos(U + V)
            J = mu_solver._jacobian(mu, 1.3, KN, g)
            ref = kron_jacobian(g, mu, 1.3, KN)
            assert abs(J - ref).max() <= 1e-13 * abs(ref).max()

    def test_readme_128_iteration_count_pinned(self, monkeypatch):
        # the benchmark's README problem, every step a Krylov step. A GMRES
        # product is one FFT pair and no stencil. The stencil runs for the
        # start's residual, and per Newton step for the backward error and
        # the one trial's residual; rfft2 runs twice more a step, for atol
        # and to precondition the step
        monkeypatch.setattr(mu_solver, "spla", types.SimpleNamespace(spsolve=None))
        calls = {"flat_laplacian": 0, "rfft2": 0, "products": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        gmres = mu_solver._gmres
        monkeypatch.setattr(mu_solver, "flat_laplacian",
                            counted("flat_laplacian", mu_solver.flat_laplacian))
        monkeypatch.setattr(np.fft, "rfft2", counted("rfft2", np.fft.rfft2))
        monkeypatch.setattr(mu_solver, "_gmres", lambda matvec, b, atol:
                            gmres(counted("products", matvec), b, atol))
        sol = solve_mu(make_problem(n=128))
        assert sol.converged
        assert sol.iterations == 6
        assert calls == {"flat_laplacian": 13, "rfft2": 31, "products": 19}

    def test_non_square_iteration_count_pinned(self):
        # an unequal grid: h_u != h_v in the stencil and in the preconditioner
        sol = solve_mu(make_problem(n=24, nv=40))
        assert sol.converged
        assert sol.iterations == 4


class TestKrylov:
    """The numpy GMRES and the matrix-free Jacobian it runs on."""

    @staticmethod
    def counted(A):
        calls = []

        def matvec(v):
            calls.append(1)
            return A @ v
        return matvec, calls

    @pytest.mark.parametrize("n,shift,capped", [(12, 0.5, False), (100, 1.5, True)])
    def test_gmres_matches_dense_solve(self, rng, n, shift, capped):
        # nonsymmetric; at n = 100 the eigenvalues fill a disc of radius about
        # 1 around 1.5, and GMRES needs more than KRYLOV_DIM steps: the pass
        # stops at the cap, short of atol but well below ||b||
        A = shift * np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n)
        b = rng.standard_normal(n)
        atol = 1e-12 * np.linalg.norm(b)
        matvec, calls = self.counted(A)
        x = mu_solver._gmres(matvec, b, atol)
        residual = np.linalg.norm(b - A @ x)
        if capped:
            assert len(calls) == mu_solver.KRYLOV_DIM
            assert atol < residual < np.linalg.norm(b)
        else:
            assert residual <= atol
            np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=0,
                                       atol=1e-10 * np.max(np.abs(x)))

    def test_gmres_happy_breakdown(self, rng):
        # e_1 is an eigenvector of an upper triangular A: the first Arnoldi
        # vector is mapped onto itself, the next one is exactly zero, and the
        # solve is exact after one step instead of dividing by that zero
        A = np.triu(rng.standard_normal((8, 8))) + 4.0 * np.eye(8)
        b = np.zeros(8)
        b[0] = 3.0
        matvec, calls = self.counted(A)
        x = mu_solver._gmres(matvec, b, 0.0)
        np.testing.assert_array_equal(x, b / A[0, 0])
        assert len(calls) == 1

    def test_zero_in_preconditioner_symbol_falls_back(self, monkeypatch):
        # P = lam_h - mean(d) with an exact zero: the preconditioned vectors
        # are not finite, the Krylov step is None, and SuperLU takes the step
        krylov = mu_solver._krylov_solve

        def zero_mode(d, rhs, grid, symbol):
            symbol = symbol.copy()
            symbol[1, 1] = np.mean(d)
            return krylov(d, rhs, grid, symbol)

        prob = make_problem(n=16, H=1.1, KN=0.3)
        symbol = mu_solver._operators(prob.grid)
        d = mu_solver._reaction_d(prob.mu0, prob.H, prob.KN)
        rhs = -mu_residual(prob.grid, prob.mu0, prob.H, prob.KN)
        with np.errstate(all="ignore"):  # as solve_mu calls it
            assert zero_mode(d, rhs, prob.grid, symbol) is None

        steps = []

        def recorded(*args):
            steps.append(zero_mode(*args))
            return steps[-1]

        monkeypatch.setattr(mu_solver, "_krylov_solve", recorded)
        sol = solve_mu(prob)
        assert sol.converged and sol.iterations == 3
        assert steps == [None] * sol.iterations

    @pytest.mark.parametrize("shape", [(16, 16), (12, 20)])
    def test_matrix_free_jacobian_matches_kron_assembly(self, rng, shape):
        g = torus_grid(*shape)
        U, V = g.mesh()
        mu = 2.0 + 0.2 * np.sin(U) * np.cos(2 * V) + 0.1 * np.cos(3 * U + V)
        KN = 0.2 * np.cos(U) * np.cos(2 * V)
        d = mu_solver._reaction_d(mu, 1.3, KN)
        ref = kron_jacobian(g, mu, 1.3, KN)
        norm_ref = abs(ref).sum(axis=1).max()
        assert abs(mu_solver._jacobian_norm_inf(d, g) - norm_ref) <= 1e-13 * norm_ref
        s = rng.standard_normal(g.shape)
        Js = mu_solver._jacobian_apply(g, d, s)
        expect = (ref @ s.ravel()).reshape(g.shape)
        assert np.max(np.abs(Js - expect)) <= 1e-13 * norm_ref * np.max(np.abs(s))

    def test_l2_norm_does_not_overflow(self):
        f = np.full((4, 4), 1e200)
        assert mu_solver.l2_norm(f) == pytest.approx(4e200, rel=1e-15)
        assert mu_solver.l2_norm(np.zeros(3)) == 0.0
        assert mu_solver.l2_norm(np.array([1.0, np.inf])) == np.inf
        assert np.isnan(mu_solver.l2_norm(np.array([1.0, np.nan])))


class TestReconstruction:
    def test_geometry_identities(self):
        sol = solve_mu(make_problem())
        rec = reconstruct_geometry(sol)
        # lam1 - lam2 = mu and lam1 + lam2 = 2 |H|^2, both exactly
        np.testing.assert_allclose(rec.lam1 - rec.lam2, sol.mu, atol=1e-14)
        np.testing.assert_allclose(rec.lam1 + rec.lam2, 2.0, atol=1e-14)

    def test_gauss_consistency(self):
        sol = solve_mu(make_problem())
        g = gauss_consistency(sol)
        assert np.max(np.abs(g)) < 1e-9

    def test_gauss_consistency_is_scaled_residual(self):
        # gauss_curvature_conformal applies the residual's stencil to
        # rho = -w/2, so the discrete Gauss defect is -(mu/2) G at any mu,
        # converged or not
        g = torus_grid(32)
        U, V = g.mesh()
        KN = 0.2 * np.cos(U) * np.cos(2 * V)
        prob = MuProblem(g, 1.3, KN, 2.0 + 0.8 * np.sin(U) * np.cos(3 * V))
        for max_iter in (0, 30):
            sol = solve_mu(prob, max_iter=max_iter)
            gc = gauss_consistency(sol)
            expect = -0.5 * sol.mu * mu_residual(g, sol.mu, 1.3, KN)
            # each side is a sum of terms of size (mu/2) |Lap_h w|
            scale = np.max(np.abs(sol.mu * flat_laplacian(g, np.log(sol.mu))))
            np.testing.assert_allclose(gc, expect, rtol=0, atol=1e-14 * max(scale, 1.0))

    def test_not_converged_raises(self):
        sol = solve_mu(make_problem(), max_iter=1)
        assert not sol.converged
        with pytest.raises(SolverError):
            reconstruct_geometry(sol)
