import numpy as np
import pytest

from biconsurf.corpus import make_builtin
from biconsurf.grid import build_grid, fd_derivative
from biconsurf.immersion import compute_geometry
from biconsurf.tensors import codazzi_defect_coords, holomorphicity_residual, hopf_differential
from lemmas import (
    ConformalChart,
    NonIsothermalError,
    conformal_chart_from_metric,
    div_T_grad_alpha_residual,
    div_tensor,
    divergence_routes,
    gauss_curvature_conformal,
    grad_scalar,
    hessian,
    holomorphicity_residual_routes,
    interior_mask,
    nabla,
    rough_laplacian,
    weitzenbock_pairing_residual,
)


def periodic_chart(n):
    g = build_grid((0.0, 2.0 * np.pi), (0.0, 2.0 * np.pi), n, n, True, True)
    U, V = g.mesh()
    rho = 0.2 * np.sin(U) * np.cos(V)
    return ConformalChart(g, rho), U, V


def smooth_tensor(U, V):
    T = np.empty(U.shape + (2, 2))
    T[..., 0, 0] = 1.0 + 0.3 * np.cos(U + V)
    T[..., 1, 1] = 2.0 - 0.2 * np.sin(U)
    T[..., 0, 1] = T[..., 1, 0] = 0.1 * np.sin(U) * np.sin(V)
    return T


def open_flat_chart(n):
    g = build_grid((0.0, 1.0), (0.0, 1.0), n, n)
    return ConformalChart(g, np.zeros(g.shape)), *g.mesh()


def airy_tensor(psi_xx, psi_xy, psi_yy):
    """Divergence-free symmetric tensor built from second derivatives of a
    potential on a flat chart."""
    T = np.empty(psi_xx.shape + (2, 2))
    T[..., 0, 0] = psi_yy
    T[..., 1, 1] = psi_xx
    T[..., 0, 1] = T[..., 1, 0] = -psi_xy
    return T


class TestChristoffels:
    def test_flat_chart_zero(self):
        chart, _, _ = open_flat_chart(8)
        np.testing.assert_allclose(chart.gamma, 0.0)

    def test_linear_rho_oracle(self):
        g = build_grid((0.0, 1.0), (0.0, 1.0), 16, 16)
        U, V = g.mesh()
        a, b = 0.7, -0.3
        chart = ConformalChart(g, a * U + b * V)
        gamma = chart.gamma
        # Gamma^k_{ij} for g = e^{2 rho} delta with rho_x = a, rho_y = b
        np.testing.assert_allclose(gamma[..., 0, 0, 0], a, atol=1e-10)
        np.testing.assert_allclose(gamma[..., 0, 0, 1], b, atol=1e-10)
        np.testing.assert_allclose(gamma[..., 0, 1, 1], -a, atol=1e-10)
        np.testing.assert_allclose(gamma[..., 1, 0, 0], -b, atol=1e-10)
        np.testing.assert_allclose(gamma[..., 1, 0, 1], a, atol=1e-10)
        np.testing.assert_allclose(gamma[..., 1, 1, 1], b, atol=1e-10)


class TestChartExtraction:
    def test_round_trip(self):
        chart, _, _ = periodic_chart(16)
        g = np.zeros(chart.grid.shape + (2, 2))
        g[..., 0, 0] = g[..., 1, 1] = chart.area_element
        chart2 = conformal_chart_from_metric(chart.grid, g)
        np.testing.assert_allclose(chart2.rho, chart.rho, atol=1e-12)

    def test_rejects_non_isothermal(self):
        g = build_grid((0.0, 1.0), (0.0, 1.0), 8, 8)
        met = np.zeros(g.shape + (2, 2))
        met[..., 0, 0] = 1.0
        met[..., 1, 1] = 2.0
        with pytest.raises(NonIsothermalError):
            conformal_chart_from_metric(g, met)


class TestDivergence:
    def test_routes_agree(self):
        # the two routes rearrange the same stencil outputs, so they agree
        # to round-off, which is stronger than the O(h^2) requirement
        for n in (32, 64):
            chart, U, V = periodic_chart(n)
            T = smooth_tensor(U, V)
            a, b = divergence_routes(chart, T)
            assert np.max(np.abs(a - b)) < 1e-12

    def test_airy_divergence_free(self):
        for n, bound in ((32, 2e-2), (64, 5e-3)):
            chart, U, V = open_flat_chart(n)
            # psi = x^4 y^2, analytic second derivatives
            T = airy_tensor(12.0 * U**2 * V**2, 8.0 * U**3 * V, 2.0 * U**4)
            div = div_tensor(chart, T)
            assert np.max(np.abs(div)) < bound

    def test_identity_tensor_divergence_free(self):
        chart, _, _ = periodic_chart(16)
        T = np.zeros(chart.grid.shape + (2, 2))
        T[..., 0, 0] = T[..., 1, 1] = 1.0
        np.testing.assert_allclose(div_tensor(chart, T), 0.0, atol=1e-12)


class TestFourConditions:
    """Synthetic pair-implication cases: constructions satisfying two of
    {divergence-free, constant trace, holomorphic quadratic differential,
    Codazzi} must satisfy the other two at truncation level."""

    def harmonic_airy(self, n):
        chart, U, V = open_flat_chart(n)
        # psi = x^3 - 3 x y^2 is harmonic: trace = 0 and Div T = 0 exactly
        T = airy_tensor(6.0 * U, -6.0 * V, -6.0 * U)
        return chart, T

    def test_harmonic_airy_implies_codazzi_and_holomorphic(self):
        prev = None
        for n in (32, 64):
            chart, T = self.harmonic_airy(n)
            cod = np.max(np.abs(codazzi_defect_coords(nabla(chart, T))))
            hol = np.max(np.abs(holomorphicity_residual(chart, T)))
            cur = max(cod, hol)
            if prev is not None:
                assert cur < 1e-10 or np.log2(prev / cur) > 1.8
            prev = cur

    def test_const_trace_codazzi_implies_divergence_free(self):
        # T = c I + Hess(psi), psi harmonic: Codazzi with constant trace
        for n, bound in ((32, 2e-2), (64, 6e-3)):
            chart, U, V = open_flat_chart(n)
            T = np.empty(chart.grid.shape + (2, 2))
            T[..., 0, 0] = 5.0 + 6.0 * U
            T[..., 1, 1] = 5.0 - 6.0 * U
            T[..., 0, 1] = T[..., 1, 0] = -6.0 * V
            assert np.max(np.abs(T[..., 0, 0] + T[..., 1, 1] - 10.0)) < 1e-12
            assert np.max(np.abs(codazzi_defect_coords(nabla(chart, T)))) < 1e-10
            assert np.max(np.abs(div_tensor(chart, T))) < bound
            hopf = hopf_differential(chart, T)
            np.testing.assert_allclose(hopf, 3.0 * (U + 1j * V), atol=1e-12)

    def test_divergence_free_alone_does_not_imply(self):
        # generic Airy potential: Div T = 0 but trace nonconstant; the
        # Codazzi and holomorphicity residuals must stay bounded away from 0
        linfs = []
        for n in (32, 64):
            chart, U, V = open_flat_chart(n)
            T = airy_tensor(12.0 * U**2, 0.0 * U, 12.0 * V**2)
            linfs.append(np.max(np.abs(codazzi_defect_coords(nabla(chart, T)))))
        assert min(linfs) > 1.0
        assert abs(linfs[0] - linfs[1]) / linfs[0] < 0.2


class TestHopf:
    def test_multiple_of_identity_vanishes(self):
        chart, U, V = periodic_chart(16)
        T = np.zeros(chart.grid.shape + (2, 2))
        T[..., 0, 0] = T[..., 1, 1] = 1.0 + np.sin(U)
        np.testing.assert_allclose(hopf_differential(chart, T), 0.0, atol=1e-14)

    def test_routes_agree(self):
        gaps = []
        for n in (32, 64):
            chart, U, V = periodic_chart(n)
            T = smooth_tensor(U, V)
            direct, closed = holomorphicity_residual_routes(chart, T)
            gaps.append(np.max(np.abs(direct - closed)))
        assert np.log2(gaps[0] / gaps[1]) > 1.8

    def test_closed_route_is_chart_free_divergence(self):
        # |W|_g = 4 e^{-3 rho} |d/dzbar Phi| with W = Div T - 1/2 grad tr T:
        # the identity behind the report's chart-free Hopf row
        chart, U, V = periodic_chart(32)
        T = smooth_tensor(U, V)
        assert np.max(np.abs(codazzi_defect_coords(nabla(chart, T)))) > 0.1
        assert np.ptp(chart.rho) > 0.3
        W = div_tensor(chart, T) - 0.5 * grad_scalar(chart, T[..., 0, 0] + T[..., 1, 1])
        _, closed = holomorphicity_residual_routes(chart, T)
        np.testing.assert_allclose(np.sqrt(chart.vec_norm_sq(W)),
                                   4.0 * np.exp(-3.0 * chart.rho) * np.abs(closed), rtol=1e-13)


class TestRoughLaplacian:
    def test_trace_formula_divergence_free_flat(self):
        # trace(grad^2 T) = 2KT - tKI - (Lap t)I - grad(grad t) for
        # divergence-free T; on a flat chart K = 0
        errs = []
        for n in (32, 64):
            chart, U, V = open_flat_chart(n)
            T = airy_tensor(12.0 * U**2 * V**2, 8.0 * U**3 * V, 2.0 * U**4)
            t = T[..., 0, 0] + T[..., 1, 1]
            lhs = -rough_laplacian(chart, T)  # trace of the second derivative
            rhs = np.zeros_like(T)
            lap_t = chart.laplacian(t)
            rhs[..., 0, 0] -= lap_t
            rhs[..., 1, 1] -= lap_t
            rhs -= hessian(chart, t)
            # one-sided boundary stencils differenced twice do not converge;
            # the identity is checked on the interior
            errs.append(np.max(np.abs(lhs - rhs)[2:-2, 2:-2]))
        assert np.log2(errs[0] / errs[1]) > 1.8

    def test_weitzenbock_pairing(self):
        # discrete integration by parts is exact on a doubly periodic grid,
        # so the pairing residual sits at round-off
        for n in (32, 64):
            chart, U, V = periodic_chart(n)
            T = smooth_tensor(U, V)
            S = smooth_tensor(V, U)
            assert weitzenbock_pairing_residual(chart, T, S) < 1e-12

    def test_weitzenbock_needs_periodicity(self):
        chart, U, V = open_flat_chart(8)
        T = airy_tensor(U, V, U)
        with pytest.raises(ValueError):
            weitzenbock_pairing_residual(chart, T, T)


class TestScalarOperators:
    def test_laplacian_sign_and_hessian_trace(self):
        chart, U, V = periodic_chart(32)
        f = np.sin(U) + np.cos(V)
        lap = chart.laplacian(f)
        # geometer's convention: positive on the flat-chart eigenfunctions
        flat = ConformalChart(chart.grid, np.zeros(chart.grid.shape))
        np.testing.assert_allclose(flat.laplacian(f), f, atol=1e-2)
        # trace_g Hess f = div grad f = -Lap f
        H = hessian(chart, f)
        np.testing.assert_allclose(H[..., 0, 0] + H[..., 1, 1], -lap, atol=1e-10)

    def test_hessian_symmetric(self):
        chart, U, V = periodic_chart(16)
        Hs = hessian(chart, np.sin(U) * np.cos(V))
        np.testing.assert_allclose(Hs[..., 0, 1], Hs[..., 1, 0], atol=1e-14)

    def test_vec_divergence_against_gradient(self):
        # div grad f = -Lap f on any conformal chart
        errs = []
        for n in (32, 64):
            chart, U, V = periodic_chart(n)
            f = np.sin(U) * np.cos(V)
            div_grad = chart.div_vector(grad_scalar(chart, f))
            errs.append(np.max(np.abs(div_grad + chart.laplacian(f))))
        assert np.log2(errs[0] / errs[1]) > 1.8


class TestGaussCurvature:
    def test_mercator_chart_oracle(self):
        # rho = log r - log cosh v gives the round metric of radius r
        r = 2.0
        errs = []
        for n in (32, 64):
            g = build_grid((0.0, 2.0 * np.pi), (-1.2, 1.2), n, n, periodic_u=True)
            _, V = g.mesh()
            chart = ConformalChart(g, np.log(r) - np.log(np.cosh(V)))
            errs.append(np.max(np.abs(gauss_curvature_conformal(chart) - 1.0 / r**2)))
        assert errs[1] < 1e-3
        assert np.log2(errs[0] / errs[1]) > 1.8

    def test_flat_chart_zero(self):
        chart, _, _ = open_flat_chart(8)
        np.testing.assert_allclose(gauss_curvature_conformal(chart), 0.0)


class TestDivTGradAlpha:
    def test_constant_alpha(self):
        chart, U, V = periodic_chart(16)
        T = smooth_tensor(U, V)
        res = div_T_grad_alpha_residual(chart, T, np.full(chart.grid.shape, 3.0))
        np.testing.assert_allclose(res, 0.0, atol=1e-12)

    def test_identity_tensor_reduces(self):
        errs = []
        for n in (32, 64):
            chart, U, V = periodic_chart(n)
            T = np.zeros(chart.grid.shape + (2, 2))
            T[..., 0, 0] = T[..., 1, 1] = 1.0
            errs.append(np.max(np.abs(div_T_grad_alpha_residual(chart, T, np.sin(U) * np.sin(V)))))
        assert np.log2(errs[0] / errs[1]) > 1.8

    def test_generic_residual_second_order(self):
        errs = []
        for n in (32, 64):
            chart, U, V = periodic_chart(n)
            T = smooth_tensor(U, V)
            errs.append(np.max(np.abs(div_T_grad_alpha_residual(chart, T, np.cos(U) + np.sin(V)))))
        assert np.log2(errs[0] / errs[1]) > 1.8


def test_tensor_inner_frame_invariance():
    # orthonormal-frame components of a (1,1) field equal its mixed
    # coordinate components on a conformal chart, so the metric contraction
    # g_ik g^{jl} T^i_j T^k_l ignores the conformal factor
    chart, U, V = periodic_chart(8)
    T = smooth_tensor(U, V)
    full = np.einsum("...ik,...ik->...", np.einsum("...ij,...jk->...ik", chart.g, T),
                     np.einsum("...ij,...jk->...ik", T, chart.ginv))
    np.testing.assert_allclose(chart.tensor_inner(T, T), full)
    np.testing.assert_allclose(full, np.einsum("...ij,...ij->...", T, T))


def test_cov_derivative_reduces_to_fd_on_flat(rng):
    chart, U, V = open_flat_chart(16)
    T = np.einsum("...i,...j->...ij", np.stack([U, V], -1), np.stack([V, U], -1))
    S = nabla(chart, T)

    np.testing.assert_allclose(S[..., 0, :, :], fd_derivative(chart.grid, T, 0, 1), atol=1e-12)
    np.testing.assert_allclose(S[..., 1, :, :], fd_derivative(chart.grid, T, 1, 1), atol=1e-12)


def test_metric_inverse_round_trip():
    chart, _, _ = periodic_chart(8)
    eye = np.einsum("...ij,...jk->...ik", chart.g, chart.ginv)
    np.testing.assert_allclose(eye, np.broadcast_to(np.eye(2), eye.shape), atol=1e-14)


class TestSurfaceCarrier:
    """The lemma checks on a surface in the coordinates of its jet, where the
    metric is not conformal: the analytic cylinder with a stretched angle and
    the analytic sphere in polar angles."""

    SURFACES = [("cylinder", {"r": 1.0, "stretch": 0.4}), ("sphere", {"r": 1.0, "chart": "polar"})]

    @pytest.mark.parametrize("name,params", SURFACES)
    def test_divergence_routes_agree(self, name, params):
        # both routes rearrange the same stencil outputs: round-off apart
        for n in (32, 64, 128):
            geom = compute_geometry(make_builtin(name, n=n, **params))
            trace_route, lemma_route = divergence_routes(geom, geom.S2)
            assert np.max(np.sqrt(geom.vec_norm_sq(trace_route - lemma_route))) <= 1e-12

    @pytest.mark.parametrize("name,params", SURFACES)
    def test_div_T_grad_alpha_second_order(self, name, params):
        # one-sided stencils differenced twice do not converge at the open
        # edges, so the residual is taken two rows in
        errs = []
        for n in (32, 64, 128):
            geom = compute_geometry(make_builtin(name, n=n, **params))
            U, V = geom.grid.mesh()
            res = div_T_grad_alpha_residual(geom, geom.S2, np.sin(U) * np.cos(V))
            errs.append(np.max(np.abs(res)[interior_mask(geom.grid, 2)]))
        assert min(np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])) >= 1.8

    def test_weitzenbock_pairing_second_order(self):
        # the stretched cylinder on a grid periodic in both axes (its fields do
        # not depend on v); away from a conformal chart the discrete
        # integration by parts holds only to O(h^2)
        errs = []
        for n in (32, 64, 128):
            grid = build_grid((0.0, 2.0 * np.pi), (0.0, 1.0), n, n, True, True)
            geom = compute_geometry(make_builtin("cylinder", grid=grid, r=1.0, stretch=0.4))
            U, _ = grid.mesh()
            T = (1.0 + 0.3 * np.sin(U))[..., None, None] * geom.S2
            errs.append(weitzenbock_pairing_residual(geom, T, T))
        assert min(np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])) >= 1.8

    def test_isothermal_jet_matches_its_chart(self):
        # on the analytic product torus the jet's coordinates are isothermal:
        # the Hopf function read through the surface agrees with its chart's
        geom = compute_geometry(make_builtin("product_torus", n=32, r1=1.0, r2=2.0))
        chart = conformal_chart_from_metric(geom.grid, geom.g)
        T = geom.A_H
        np.testing.assert_allclose(hopf_differential(geom, T), hopf_differential(chart, T),
                                   atol=1e-14)
        direct, closed = holomorphicity_residual_routes(geom, T)
        np.testing.assert_allclose(direct, holomorphicity_residual(chart, T), atol=1e-14)
        np.testing.assert_allclose(closed, 0.0, atol=1e-12)
