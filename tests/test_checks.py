import numpy as np
import pytest

from biconsurf import checks
from biconsurf.ambient import euclidean
from biconsurf.cli import estimate_order, run_convergence
from biconsurf.corpus import load_tabulated, make_builtin, tabulate
from biconsurf.grid import build_grid, interior_mask
from biconsurf.immersion import FD_BOUNDARY_MARGIN, compute_geometry
from biconsurf.report import build_geometry_report
from lemmas import conformal_chart_from_metric


def geom_and_chart(name, n=48, **params):
    geom = compute_geometry(make_builtin(name, n=n, **params))
    chart = conformal_chart_from_metric(geom.grid, geom.g)
    return geom, chart


class TestStressTensor:
    def test_sphere_stress_is_scalar_multiple_of_identity(self):
        r = 1.5
        geom, _ = geom_and_chart("sphere", n=24, r=r)
        S2 = checks.stress_bienergy(geom.A_H, geom.Hsq)
        expect = (2.0 / r**2) * np.eye(2)
        np.testing.assert_allclose(S2, np.broadcast_to(expect, S2.shape), atol=1e-10)

    def test_flat_profile_eigenvalues(self):
        # shape operator diag(1/2, 0) with |H|^2 = 1/4 gives stress diag(3/2, -1/2)
        A = np.zeros((3, 3, 2, 2))
        A[..., 0, 0] = 0.5
        Hsq = np.full((3, 3), 0.25)
        S2 = checks.stress_bienergy(A, Hsq)
        np.testing.assert_allclose(S2[..., 0, 0], 1.5)
        np.testing.assert_allclose(S2[..., 1, 1], -0.5)
        np.testing.assert_allclose(S2[..., 0, 1], 0.0)
        # squared norm 9/4 + 1/4 = 5/2
        np.testing.assert_allclose(np.einsum("...ij,...ij->...", S2, S2), 2.5)

    def test_trace_identity(self):
        geom, _ = geom_and_chart("helix_line_r4", n=16, k=1.0, tau=0.5)
        S2 = checks.stress_bienergy(geom.A_H, geom.Hsq)
        trace = S2[..., 0, 0] + S2[..., 1, 1]
        # trace S2 = 4 |H|^2 in dimension two
        np.testing.assert_allclose(trace, 4.0 * geom.Hsq, atol=1e-12)


class TestPrincipalCurvatures:
    def test_cylinder_values(self):
        geom, _ = geom_and_chart("cylinder", n=24, r=1.0)
        lam1, lam2, mu, pu = checks.principal_curvatures(geom.A_H, geom.Hsq)
        np.testing.assert_allclose(lam1, 0.5, atol=1e-12)
        np.testing.assert_allclose(lam2, 0.0, atol=1e-12)
        np.testing.assert_allclose(mu, 0.5, atol=1e-12)
        assert not pu.any()

    def test_pseudoumbilical_sphere(self):
        geom, _ = geom_and_chart("sphere", n=24, r=1.0)
        _, _, mu, pu = checks.principal_curvatures(geom.A_H, geom.Hsq)
        np.testing.assert_allclose(mu, 0.0, atol=1e-7)
        assert pu.all()

    @pytest.mark.parametrize(
        "name,params", [("sphere", {}), ("product_torus", {"r1": 1.0, "r2": 1.0})]
    )
    def test_umbilical_gap_at_round_off(self, name, params):
        # tr^2 - 4 det cancels to round-off and its sqrt left mu near 1e-8
        rep = build_geometry_report(make_builtin(name, n=96, **params))
        assert rep.summaries["mu_max"] <= 1e-12
        assert rep.summaries["pseudoumbilical_fraction"] == 1.0

    def test_fd_source_widens_threshold(self):
        geom = compute_geometry(tabulate(make_builtin("sphere", n=96, r=1.0)))
        _, _, _, pu = checks.principal_curvatures(
            geom.A_H, geom.Hsq, source="finite-difference"
        )
        assert pu.all()


class TestBiconservativity:
    @pytest.mark.parametrize(
        "name,params",
        [
            ("sphere", {"r": 1.0}),
            ("cylinder", {"r": 1.0}),
            ("helix_line_r4", {"k": 1.0, "tau": 0.5}),
            ("product_torus", {"r1": 1.0, "r2": 2.0}),
        ],
    )
    def test_corpus_is_biconservative(self, name, params):
        geom, _ = geom_and_chart(name, n=32, **params)
        res = checks.biconservativity_residuals(geom)
        for key in ("cond1", "cond2", "cond3", "cond4"):
            _, linf = checks.vector_norms(res[key], geom)
            assert linf < 1e-10, f"{name}: {key} = {linf}"
        _, gap = checks.vector_norms(res["divergence_route_gap"], geom)
        assert gap < 1e-10
        _, tid = checks.vector_norms(res["trace_identity"], geom)
        assert tid < 1e-10

    def test_graph_is_not_biconservative(self):
        geom = compute_geometry(make_builtin("graph", n=48))
        res = checks.biconservativity_residuals(geom)
        _, linf = checks.vector_norms(res["cond1"], geom)
        assert linf > 1.0

    def test_conditions_fail_together_on_graph(self):
        geom = compute_geometry(make_builtin("graph", n=48))
        res = checks.biconservativity_residuals(geom)
        for key in ("cond1", "cond2", "cond3", "cond4"):
            _, linf = checks.vector_norms(res[key], geom)
            assert linf > 0.1, key


class TestEquivalenceMatrix:
    def test_biconservative_surface_all_implied(self):
        geom, chart = geom_and_chart("product_torus", n=32, r1=1.0, r2=2.0)
        out = checks.equivalence_matrix(geom, chart, tol_pass=1e-8, tol_implied=1e-7)
        assert out["all_implications_hold"]
        assert len(out["implications"]) == 6  # all four conditions pass pairwise
        for v in out["residuals"].values():
            assert v < 1e-8

    def test_all_four_legs_without_chart(self):
        # the Hopf leg needs no isothermal chart
        geom = compute_geometry(make_builtin("cylinder", n=24, r=1.0))
        out = checks.equivalence_matrix(geom, None, tol_pass=1e-8, tol_implied=1e-7)
        assert list(out["residuals"]) == ["biconservative", "cmc", "hopf_holomorphic", "codazzi"]
        assert out["residuals"]["hopf_holomorphic"] < 1e-8
        assert len(out["implications"]) == 6
        assert out["all_implications_hold"]

    def test_graph_produces_no_implications(self):
        geom = compute_geometry(make_builtin("graph", n=32))
        out = checks.equivalence_matrix(geom, None, tol_pass=1e-8, tol_implied=1e-7)
        assert out["implications"] == []
        assert out["all_implications_hold"]  # vacuous


class TestSimons:
    @pytest.mark.parametrize(
        "name,params",
        [
            ("sphere", {"r": 1.0}),
            ("cylinder", {"r": 1.0}),
            ("helix_line_r4", {"k": 1.0, "tau": 0.5}),
            # no isothermal chart: the identity is taken in the jet's coordinates
            ("sphere", {"r": 1.0, "chart": "polar"}),
            ("cylinder", {"r": 1.0, "stretch": 0.3}),
        ],
    )
    def test_pointwise_residual_analytic(self, name, params):
        geom = compute_geometry(make_builtin(name, n=48, **params))
        field, flagged = checks.simons_residual(geom)
        assert not flagged
        assert np.max(np.abs(field)) < 1e-9

    def test_flag_on_non_biconservative_input(self):
        geom = compute_geometry(make_builtin("cylinder", n=24, r=1.0))
        # tighten the gate until the round-off residual trips it
        _, flagged = checks.simons_residual(geom, bicons_tol=1e-30)
        assert flagged

    def test_graph_report_is_flagged(self):
        rep = build_geometry_report(make_builtin("graph", n=32), "graph")
        assert "isothermal_chart" not in rep.meta
        assert rep.residual("hopf_holomorphicity").linf > 1.0
        assert rep.flags["simons_assumes_biconservative_violated"]

    def test_fd_stretched_cylinder_converges(self):
        conv = run_convergence("cylinder", {"r": 1.0, "stretch": 0.3}, 32, 3, True)
        o = conv["orders"]["simons"]
        assert o != "exact" and min(o) >= 1.8, conv["residuals"]["simons"]


def stretched_torus(n, r1=1.0, r2=2.0, stretch=0.3):
    """FD jet of S^1(r1) x S^1(r2) in R^4 at the angles (u + stretch sin u, v):
    doubly periodic, metric diag(r1^2 (1 + stretch cos u)^2, r2^2), which is
    not isothermal."""
    grid = build_grid((0.0, 2.0 * np.pi), (0.0, 2.0 * np.pi), n, n, True, True)
    U, V = grid.mesh()
    th = U + stretch * np.sin(U)
    pos = np.stack([r1 * np.cos(th), r1 * np.sin(th), r2 * np.cos(V), r2 * np.sin(V)], axis=-1)
    return load_tabulated(grid, pos.reshape(-1, 4), euclidean(4))


class TestIntegralFormulas:
    def test_torus_both_formulas(self):
        geom = compute_geometry(make_builtin("product_torus", n=48, r1=1.0, r2=2.0))
        out = checks.integral_formula_check(geom)
        assert abs(out["int_S2_gap"]) < 1e-9
        assert abs(out["int_AH_gap"]) < 1e-9
        assert out["positivity_min"] >= -1e-12

    def test_requires_doubly_periodic(self):
        geom = compute_geometry(make_builtin("cylinder", n=16, r=1.0))
        with pytest.raises(ValueError):
            checks.integral_formula_check(geom)

    def test_stretched_torus_rows_decay(self):
        gaps = {"integral_stress": [], "integral_shape_operator": []}
        for n in (32, 64, 128):
            rep = build_geometry_report(stretched_torus(n), "torus_stretch")
            assert "isothermal_chart" not in rep.meta
            rep.residual("hopf_holomorphicity")  # present on a non-isothermal metric
            assert "integral_formulas" not in rep.meta
            for key, series in gaps.items():
                series.append(rep.residual(key).linf)
        for key, series in gaps.items():
            orders = [estimate_order(a, b) for a, b in zip(series, series[1:])]
            assert min(orders) >= 2.0, (key, series)

    @pytest.mark.parametrize(
        "name,params",
        [
            ("sphere", {"r": 1.0}),
            ("cylinder", {"r": 1.0}),
            ("helix_line_r4", {"k": 1.0, "tau": 0.5}),
            ("product_torus", {"r1": 1.0, "r2": 2.0}),
            ("graph", {}),
        ],
    )
    def test_positivity_everywhere(self, name, params):
        geom = compute_geometry(make_builtin(name, n=32, **params))
        q = checks.positivity_quantity(geom)
        assert np.min(q) >= -1e-12


class TestParallelShapeOperator:
    def test_parallel_surfaces(self):
        for name, params in [
            ("cylinder", {"r": 1.0}),
            ("sphere", {"r": 1.0}),
            ("helix_line_r4", {"k": 1.0, "tau": 0.5}),
        ]:
            geom = compute_geometry(make_builtin(name, n=32, **params))
            out = checks.parallel_AH_checks(geom, tol=1e-8)
            assert out["is_parallel"], name
            assert out["lambda_spread"] < 1e-7
            assert out["commutation_linf"] < 1e-9
            assert out["trace_cancellation_linf"] < 1e-9
            assert out["flat_or_pseudoumbilical_gap"] < 1e-6

    def test_graph_not_parallel(self):
        geom = compute_geometry(make_builtin("graph", n=32))
        out = checks.parallel_AH_checks(geom, tol=1e-8)
        assert not out["is_parallel"]
        assert "lambda_spread" not in out


class TestSpaceformTarget:
    def test_flagship_values(self):
        # lam = (1/2, 0): shape-operator route gives flat target,
        # stress route gives c = 3/4
        c, h = checks.derive_spaceform_target(0.5, 0.0, "A_H")
        assert c == pytest.approx(0.0, abs=1e-15)
        assert h == pytest.approx(0.25)
        c, h = checks.derive_spaceform_target(0.5, 0.0, "S2")
        assert c == pytest.approx(0.75)
        assert h == pytest.approx(0.5)

    def test_general_k(self):
        for k in (0.7, 2.0):
            c, h = checks.derive_spaceform_target(k**2 / 2.0, 0.0, "A_H")
            assert c == pytest.approx(0.0, abs=1e-12)
            assert h == pytest.approx(k**2 / 4.0)
            c, h = checks.derive_spaceform_target(k**2 / 2.0, 0.0, "S2")
            assert c == pytest.approx(0.75 * k**4)
            assert h == pytest.approx(k**2 / 2.0)

    def test_umbilical_modes(self):
        c, h = checks.derive_spaceform_target(0.25, 0.25, "umbilical_A_H", K=0.0)
        assert c == pytest.approx(-0.0625)
        assert h == pytest.approx(0.25)
        c, h = checks.derive_spaceform_target(0.25, 0.25, "umbilical_S2", K=0.0)
        assert c == pytest.approx(-0.25)
        assert h == pytest.approx(0.5)

    def test_field_input_from_geometry(self):
        geom = compute_geometry(make_builtin("helix_line_r4", n=24, k=1.0, tau=0.5))
        lam1, lam2, _, _ = geom.principal
        c, h = checks.derive_spaceform_target(lam1, lam2, "S2")
        assert c == pytest.approx(0.75, abs=1e-9)
        assert h == pytest.approx(0.5, abs=1e-9)

    def test_error_paths(self):
        with pytest.raises(checks.NonConstantCurvaturesError):
            checks.derive_spaceform_target(np.linspace(0.4, 0.6, 10), 0.0, "A_H")
        with pytest.raises(ValueError):
            checks.derive_spaceform_target(0.0, 0.5, "A_H")  # wrong ordering
        with pytest.raises(ValueError):
            checks.derive_spaceform_target(0.5, 0.5, "A_H")  # umbilical in generic mode
        with pytest.raises(ValueError):
            checks.derive_spaceform_target(0.5, 0.0, "umbilical_A_H", K=0.0)
        with pytest.raises(ValueError):
            checks.derive_spaceform_target(0.5, 0.5, "umbilical_A_H", K=1.0)
        with pytest.raises(ValueError):
            checks.derive_spaceform_target(0.5, 0.0, "bogus")


class TestInteriorMask:
    def test_periodic_axes_untouched(self):
        geom, _ = geom_and_chart("product_torus", n=16, r1=1.0, r2=1.0)
        mask = interior_mask(geom.grid, 3)
        assert mask.all()

    def test_open_axes_trimmed(self):
        geom = compute_geometry(make_builtin("graph", n=16))
        mask = interior_mask(geom.grid, 2)
        assert not mask[0].any() and not mask[-1].any()
        assert not mask[:, 1].any()
        assert mask[2:-2, 2:-2].all()

    def test_geometry_interior_follows_jet_source(self):
        jet = make_builtin("graph", n=16)
        assert compute_geometry(jet).interior.all()
        geom = compute_geometry(tabulate(jet))
        assert geom.boundary_margin == FD_BOUNDARY_MARGIN == 3
        np.testing.assert_array_equal(geom.interior, interior_mask(geom.grid, 3))

    def test_masked_norms_ignore_boundary(self):
        geom = compute_geometry(tabulate(make_builtin("graph", n=16)))
        field = np.zeros(geom.grid.shape)
        field[:3, :] = 1e6  # junk in the boundary band only
        assert checks.weighted_l2(field, geom) == 0.0
        assert checks.scalar_norms(field, geom) == (0.0, 0.0)

    def test_masked_l2_normalized_by_interior_area(self):
        # constant 1 inside the interior, junk outside: the RMS over the
        # interior is 1, whatever the area of the masked band
        geom = compute_geometry(tabulate(make_builtin("graph", n=16)))
        field = np.where(geom.interior, -1.0, 1e6)
        assert checks.scalar_norms(field, geom) == (1.0, 1.0)
        V = np.zeros(geom.grid.shape + (2,))
        V[..., 0] = np.where(geom.interior, 1.0 / np.sqrt(geom.g[..., 0, 0]), 1e6)
        l2, linf = checks.vector_norms(V, geom)
        assert l2 == pytest.approx(1.0, rel=1e-12)
        assert linf == pytest.approx(1.0, rel=1e-12)


class TestOneMaskForEveryCaller:
    """On FD jets the report, the Simons gate and the equivalence matrix all
    take their norms over the same interior nodes."""

    @pytest.fixture(scope="class")
    def fd_helix(self):
        jet = tabulate(make_builtin("helix_line_r4", n=32))
        return jet, build_geometry_report(jet, "helix_line_r4")

    def test_simons_gate_agrees_with_verdict(self, fd_helix):
        _, rep = fd_helix
        flags = rep.flags
        assert flags["simons_assumes_biconservative_violated"] == (not flags["is_biconservative"])

    def test_equivalence_matrix_reads_report_norms(self, fd_helix):
        jet, rep = fd_helix
        geom = compute_geometry(jet)
        chart = conformal_chart_from_metric(geom.grid, geom.g, tol=1.0)
        eq = checks.equivalence_matrix(geom, chart, 1e-3, 1e-3)["residuals"]
        assert eq["biconservative"] == rep.residual("stress_divergence").linf
        assert eq["cmc"] == rep.residual("grad_mean_curvature_sq").linf
        assert eq["codazzi"] == rep.residual("codazzi_defect").linf
        assert eq["hopf_holomorphic"] == rep.residual("hopf_holomorphicity").linf
