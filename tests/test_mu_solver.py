import numpy as np
import pytest

from biconsurf.grid import build_grid
from biconsurf.mu_solver import (
    MuProblem,
    SolverError,
    constant_root,
    gauss_consistency,
    mu_residual,
    reconstruct_geometry,
    solve_mu,
)

TWO_PI = 2.0 * np.pi


def torus_grid(n=64):
    return build_grid((0.0, TWO_PI), (0.0, TWO_PI), n, n, True, True)


def make_problem(n=64, H=1.0, KN=0.0, amp=0.1, base=None):
    g = torus_grid(n)
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
        # mu = 1, H = 1, KN = 0: residual = 2 * 1 * (0 + 1 - 1/4) = 3/2
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
        expect = 2.0 * 2.0 * (KN + 1.0 - 1.0)
        np.testing.assert_allclose(r, expect, atol=1e-13)


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

    @pytest.mark.parametrize("H,KN,iterations", [(1.0, 0.0, 8), (1.1, 0.3, 4)])
    def test_iteration_counts_pinned(self, H, KN, iterations):
        # the README problem excites the near-null sin x sin y mode; the
        # generic (H, K_N) does not.  The LU column ordering must not change
        # the Newton path.
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
        from biconsurf.mu_solver import _jacobian, _operators

        g = torus_grid(16)
        ops = _operators(g)
        U, V = g.mesh()
        mu = 2.0 + 0.2 * np.sin(U) * np.cos(2 * V)
        d = rng.standard_normal(g.shape)
        J = _jacobian(g, mu, 1.0, np.zeros(g.shape), ops)
        eps = 1e-6
        fd = (
            mu_residual(g, mu + eps * d, 1.0, 0.0)
            - mu_residual(g, mu - eps * d, 1.0, 0.0)
        ) / (2.0 * eps)
        jd = (J @ d.ravel()).reshape(g.shape)
        np.testing.assert_allclose(jd, fd, atol=1e-5)

    def test_negative_normal_curvature_still_runs(self):
        # KN = -2 pushes the root imaginary for H = 1; the solver must
        # report non-convergence diagnostics instead of crashing
        g = torus_grid(32)
        prob = MuProblem(g, 1.0, -2.0, np.full(g.shape, 1.0))
        sol = solve_mu(prob, max_iter=5)
        assert len(sol.residual_history) >= 1
        assert np.isfinite(sol.final_residual_linf)


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

    def test_not_converged_raises(self):
        sol = solve_mu(make_problem(), max_iter=1)
        assert not sol.converged
        with pytest.raises(SolverError):
            reconstruct_geometry(sol)
