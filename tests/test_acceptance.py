"""End-to-end acceptance gate: one test per headline capability.

Each test prints a single PASS line with the measured numbers so the suite
log doubles as a verification record.
"""

import time

import numpy as np
import pytest

from biconsurf import checks, report as rp
from biconsurf.cli import run_convergence
from biconsurf.corpus import make_builtin, tabulate
from biconsurf.grid import build_grid
from biconsurf.immersion import compute_geometry
from biconsurf.mu_solver import (
    MuProblem,
    constant_root,
    gauss_consistency,
    mu_residual,
    solve_mu,
)
import lemmas
from lemmas import (
    conformal_chart_from_metric,
    div_T_grad_alpha_residual,
    divergence_routes,
    gauss_curvature_conformal,
    weitzenbock_pairing_residual,
)

TWO_PI = 2.0 * np.pi


def test_a1_flagship_flat_profile_surface():
    """128x128 analytic jets of the curvature-1, torsion-1/2 profile surface:
    all closed-form values and all four biconservativity residuals at 1e-10."""
    t0 = time.perf_counter()
    jet = make_builtin("helix_line_r4", n=128, k=1.0, tau=0.5)
    geom = compute_geometry(jet)

    np.testing.assert_allclose(
        np.linalg.norm(geom.B[..., 0, 0, :], axis=-1), 1.0, atol=1e-10
    )
    np.testing.assert_allclose(geom.Hsq, 0.25, atol=1e-10)
    lam1, lam2, _, _ = geom.principal
    np.testing.assert_allclose(lam1, 0.5, atol=1e-10)
    np.testing.assert_allclose(lam2, 0.0, atol=1e-10)

    nab_linf = float(np.max(np.sqrt(np.maximum(geom.nabla_norm_sq(geom.nabla_AH), 0.0))))
    assert nab_linf <= 1e-10

    res = checks.biconservativity_residuals(geom)
    worst = 0.0
    for key in ("cond1", "cond2", "cond3", "cond4"):
        _, linf = checks.vector_norms(res[key], geom)
        worst = max(worst, linf)
        assert linf <= 1e-10, key
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nA1 PASS: worst residual {worst:.2e}, |nabla A_H| {nab_linf:.2e}, "
          f"{elapsed:.2f}s")


def test_a2_equivalence_analytic_and_fd():
    """Any two of the four equivalent conditions passing implies the others
    on the analytic corpus; on finite-difference jets the implied residuals
    decay at second order under refinement."""
    surfaces = [
        ("sphere", {"r": 1.0}),
        ("cylinder", {"r": 1.0}),
        ("helix_line_r4", {"k": 1.0, "tau": 0.5}),
        ("product_torus", {"r1": 1.0, "r2": 2.0}),
    ]
    for name, params in surfaces:
        geom = compute_geometry(make_builtin(name, n=64, **params))
        try:
            chart = conformal_chart_from_metric(geom.grid, geom.g)
        except ValueError:
            chart = None
        out = lemmas.equivalence_matrix(geom, chart, tol_pass=1e-8, tol_implied=1e-7)
        assert out["implications"], name
        assert out["all_implications_hold"], name

    # the reparametrized cylinder breaks chart homogeneity so the truncation
    # error is visible; three levels 32 -> 64 -> 128
    conv = run_convergence("cylinder", {"r": 1.0, "stretch": 0.3}, 32, 3, True)
    orders = []
    for key in ("stress_divergence", "trace_balance", "gradient_trace_balance",
                "codazzi_trace_balance"):
        o = conv["orders"][key]
        assert o != "exact"
        assert min(o) >= 1.8, key
        orders.extend(o)
    print(f"\nA2 PASS: analytic implications hold on 4 surfaces; "
          f"fd orders {min(orders):.2f}..{max(orders):.2f}")


def test_a3_gap_equation_newton():
    """Constant-coefficient gap equation, 64x64 doubly periodic, 10%%
    perturbed start: back to the constant root in at most 12 iterations."""
    t0 = time.perf_counter()
    g = build_grid((0.0, TWO_PI), (0.0, TWO_PI), 64, 64, True, True)
    X, Y = g.mesh()
    mu0 = 2.0 * (1.0 + 0.1 * np.sin(X) * np.sin(Y))
    sol = solve_mu(MuProblem(g, 1.0, 0.0, mu0))
    elapsed = time.perf_counter() - t0

    assert sol.converged
    assert sol.iterations <= 12
    np.testing.assert_allclose(sol.mu, 2.0, atol=1e-8)
    assert sol.final_residual_linf <= 1e-10
    gc = float(np.max(np.abs(gauss_consistency(sol))))
    assert gc <= 1e-9
    assert elapsed < 10.0
    print(f"\nA3 PASS: {sol.iterations} iterations, residual "
          f"{sol.final_residual_linf:.2e}, gauss consistency {gc:.2e}, {elapsed:.2f}s")


def test_a4_simons_identity():
    """Pointwise Simons-type identity: round-off on analytic jets, at least
    second-order decay on finite-difference jets."""
    worst = 0.0
    for name, params in [("sphere", {"r": 1.0}), ("cylinder", {"r": 1.0}),
                         ("helix_line_r4", {"k": 1.0, "tau": 0.5})]:
        jet = make_builtin(name, n=64, **params)
        assert not rp.build_geometry_report(jet, name).flags[
            "simons_assumes_biconservative_violated"]
        field = checks.simons_residual(compute_geometry(jet))
        linf = float(np.max(np.abs(field)))
        assert linf <= 1e-9, name
        worst = max(worst, linf)

    conv = run_convergence("sphere", {"r": 1.0}, 32, 3, True)
    o = conv["orders"]["simons"]
    assert o != "exact" and min(o) >= 1.8
    print(f"\nA4 PASS: analytic worst {worst:.2e}, fd orders "
          f"{', '.join(f'{x:.2f}' for x in o)}")


def test_a5_integral_formulas_and_positivity():
    """Compact-surface integral formulas close on the flat torus; the
    pointwise positivity quantity is nonnegative on the whole corpus."""
    geom = compute_geometry(make_builtin("product_torus", n=64, r1=1.0, r2=2.0))
    out = checks.integral_formula_check(geom.grid, checks.integral_integrands(geom))
    assert abs(out["int_S2_gap"]) <= 1e-9
    assert abs(out["int_AH_gap"]) <= 1e-9

    worst = np.inf
    for name, params in [("sphere", {"r": 1.0}), ("cylinder", {"r": 1.0}),
                         ("helix_line_r4", {"k": 1.0, "tau": 0.5}),
                         ("product_torus", {"r1": 1.0, "r2": 2.0}),
                         ("graph", {})]:
        q = checks.positivity_quantity(compute_geometry(make_builtin(name, n=48, **params)))
        worst = min(worst, float(np.min(q)))
        assert np.min(q) >= -1e-12, name
    print(f"\nA5 PASS: integral gaps {out['int_S2_gap']:.2e}/{out['int_AH_gap']:.2e}, "
          f"positivity floor {worst:.2e}")


def test_a6_conformal_curvature_and_constant_root(rng):
    """Conformal-factor curvature of the round-sphere chart converges at
    second order to 1/r^2; the closed-form constant root kills the gap
    equation residual for random coefficient pairs."""
    r = 1.0
    errs = []
    for n in (32, 64):
        g = build_grid((0.0, TWO_PI), (-1.2, 1.2), n, n, periodic_u=True)
        _, V = g.mesh()
        rho = np.log(r) - np.log(np.cosh(V))
        from lemmas import ConformalChart
        K = gauss_curvature_conformal(ConformalChart(g, rho))
        errs.append(float(np.max(np.abs(K - 1.0 / r**2))))
    order = np.log2(errs[0] / errs[1])
    assert errs[1] < 5e-3
    assert order > 1.8

    g = build_grid((0.0, TWO_PI), (0.0, TWO_PI), 32, 32, True, True)
    worst = 0.0
    for _ in range(10):
        H = float(rng.uniform(0.2, 3.0))
        KN = float(rng.uniform(-0.5 * H**2, 2.0))
        mu = np.full(g.shape, constant_root(H, KN))
        res = float(np.max(np.abs(mu_residual(g, mu, H, KN))))
        worst = max(worst, res)
        assert res <= 1e-11
    print(f"\nA6 PASS: curvature error {errs[1]:.2e} (order {order:.2f}), "
          f"constant-root residual {worst:.2e}")


def test_a7_identity_suite():
    """Integrated pairing identity, pointwise product-rule identity,
    divergence-route agreement, and the two squared-norm identities:
    round-off on analytic jets, second-order decay on finite differences."""
    geom = compute_geometry(make_builtin("product_torus", n=48, r1=1.0, r2=2.0))
    chart = conformal_chart_from_metric(geom.grid, geom.g)
    S2 = checks.stress_bienergy(geom.A_H, geom.Hsq)

    pairing = weitzenbock_pairing_residual(chart, S2, S2)
    assert pairing <= 1e-9

    # the product rule mixes first differences of products with products of
    # first differences, so even analytic input carries an O(h^2) truncation:
    # assert the decay rate rather than round-off
    pr = []
    for n in (48, 96):
        geom_n = compute_geometry(make_builtin("product_torus", n=n, r1=1.0, r2=2.0))
        chart_n = conformal_chart_from_metric(geom_n.grid, geom_n.g)
        S2_n = checks.stress_bienergy(geom_n.A_H, geom_n.Hsq)
        U, V = geom_n.grid.mesh()
        alpha = np.sin(U) * np.cos(0.5 * V)
        pr.append(float(np.max(np.abs(div_T_grad_alpha_residual(chart_n, S2_n, alpha)))))
    product_rule = pr[-1]
    assert np.log2(pr[0] / pr[1]) >= 1.8

    trace_route, lemma_route = divergence_routes(chart, S2)
    route_gap = float(np.max(np.abs(trace_route - lemma_route)))
    assert route_gap <= 1e-9

    worst_norm = 0.0
    for name, params in [("sphere", {"r": 1.0}), ("cylinder", {"r": 1.0}),
                         ("product_torus", {"r1": 1.0, "r2": 2.0})]:
        rep = rp.build_geometry_report(make_builtin(name, n=48, **params), name)
        for res_name in ("stress_norm", "nabla_shape_operator"):
            linf = rep.residual(res_name).linf
            worst_norm = max(worst_norm, linf)
            assert linf <= 1e-9, f"{name}:{res_name}"

    # finite-difference decay at the finest pair, 32 -> 64 -> 128
    conv = run_convergence("sphere", {"r": 1.0}, 32, 3, True)
    slowest = np.inf
    for key, o in conv["orders"].items():
        if o == "exact":
            continue
        slowest = min(slowest, o[-1])
        assert o[-1] >= 1.8, key
    print(f"\nA7 PASS: pairing {pairing:.2e}, product rule {product_rule:.2e}, "
          f"route gap {route_gap:.2e}, norm identities {worst_norm:.2e}, "
          f"slowest fd order {slowest:.2f}")


def test_a8_negative_control_and_spaceform_targets():
    """The cubic-quartic graph is correctly rejected as biconservative, with
    a refinement-stable nonzero stress divergence; the space-form targets of
    the flat profile surface come out exactly."""
    linfs = []
    for n in (48, 96, 192):
        rep = rp.build_geometry_report(tabulate(make_builtin("graph", n=n)), "graph")
        assert rep.flags["is_biconservative"] is False
        linfs.append(rep.residual("stress_divergence").linf)
    for a, b in zip(linfs, linfs[1:]):
        assert abs(a - b) / b < 0.2

    c, h = lemmas.derive_spaceform_target(0.5, 0.0, "A_H")
    assert c == 0.0 and h == 0.25
    c2, h2 = lemmas.derive_spaceform_target(0.5, 0.0, "S2")
    assert c2 == 0.75 and h2 == 0.5
    print(f"\nA8 PASS: graph stress divergence {', '.join(f'{x:.3f}' for x in linfs)} "
          f"(stable); targets c={c}, c={c2}")
