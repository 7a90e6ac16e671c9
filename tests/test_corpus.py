import itertools
import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from biconsurf import corpus
from biconsurf.ambient import euclidean, sphere
from biconsurf.corpus import (
    BUILTIN_MAKERS,
    SurfaceConfigError,
    default_grid,
    expected_values,
    load_tabulated,
    make_builtin,
    tabulate,
)
from biconsurf.grid import build_grid, fd_derivative, interior_mask
from biconsurf.immersion import DegenerateImmersionError, compute_geometry

PARAMS = {
    "helix_line_r4": {"k": 1.0, "tau": 0.5},
    "cylinder": {"r": 1.3},
    "sphere": {"r": 2.0},
    "product_torus": {"r1": 1.0, "r2": 2.0},
    "graph": {},
}


@pytest.mark.parametrize("name", sorted(BUILTIN_MAKERS))
def test_registry_reproduced_by_computation(name):
    params = PARAMS[name]
    expect = expected_values(name, params)
    geom = compute_geometry(make_builtin(name, n=48, **params))
    if "H_norm" in expect:
        np.testing.assert_allclose(np.sqrt(geom.Hsq), expect["H_norm"], atol=1e-10)
    if "K" in expect:
        np.testing.assert_allclose(geom.K, expect["K"], atol=1e-9)
    if "lambdas" in expect:
        lam1, lam2, _, _ = geom.principal
        want = sorted(expect["lambdas"], reverse=True)
        np.testing.assert_allclose(lam1, want[0], atol=1e-7)
        np.testing.assert_allclose(lam2, want[1], atol=1e-7)
    if "dperpH_norm" in expect:
        mag = np.sqrt(np.einsum("...ia,...ia->...", geom.dperpH, geom.dperpH))
        np.testing.assert_allclose(mag, expect["dperpH_norm"], atol=1e-10)


# every builtin, both sphere charts, a stretched cylinder and a helix with
# torsion and offset
JET_CASES = [
    ("helix_line_r4", {"k": 1.0, "tau": 0.5, "offset": 0.3}),
    ("cylinder", {"r": 1.3, "stretch": 0.4}),
    ("sphere", {"r": 2.0, "chart": "mercator"}),
    ("sphere", {"r": 1.5, "chart": "polar"}),
    ("product_torus", {"r1": 1.0, "r2": 2.0}),
    ("graph", {}),
]


@pytest.mark.parametrize("name,params", JET_CASES)
def test_jet_symmetric_in_derivative_indices(name, params):
    jet = make_builtin(name, n=16, **params)
    np.testing.assert_array_equal(jet.d2, np.swapaxes(jet.d2, 2, 3))
    for perm in itertools.permutations((2, 3, 4)):
        np.testing.assert_array_equal(jet.d3, np.transpose(jet.d3, (0, 1, *perm, 5)))


def _fd_jet_errors(name, params, n):
    """Largest |FD along axis a of d^m X - d^(m+1) X[a]| on interior rows, for
    m = 0, 1, 2 and a = u, v, one entry per component slot."""
    jet = make_builtin(name, n=n, **params)
    inner = interior_mask(jet.grid, 1)
    errs = []
    for lower, upper in ((jet.pos, jet.d1), (jet.d1, jet.d2), (jet.d2, jet.d3)):
        for a in (0, 1):
            diff = fd_derivative(jet.grid, lower, a) - upper[:, :, a]
            errs.append(np.max(np.abs(diff[inner]), axis=0).ravel())
    return np.concatenate(errs)


@pytest.mark.parametrize("name,params", JET_CASES)
def test_jet_matches_finite_differences(name, params):
    # d1, d2 and d3 are each the derivative of the order below, so the O(h^2)
    # FD of pos, d1 and d2 converges to them at second order
    coarse, fine = _fd_jet_errors(name, params, 32), _fd_jet_errors(name, params, 64)
    exact = coarse < 1e-10  # polynomial of degree <= 2 along the axis: FD is exact
    assert not exact.all()
    np.testing.assert_array_less(fine[exact], 1e-10)
    orders = [math.log2(c / f) for c, f in zip(coarse[~exact], fine[~exact])]
    assert min(orders) >= 1.8, orders


@pytest.fixture(params=[None, 6], ids=["JET_ORDER", "order6"])
def jet_order(request, monkeypatch):
    """The number of Taylor coefficients kept: the module's, or 6."""
    if request.param is not None:
        monkeypatch.setattr(corpus, "JET_ORDER", request.param)
    return corpus.JET_ORDER


class TestTaylor:
    x = np.linspace(-1.3, 2.1, 9)

    def test_product_of_vars_is_exact(self, jet_order):
        # (x + h)(y + h) = x y + (x + y) h + h^2
        y = np.linspace(0.4, 3.0, 9)
        c = (corpus._Taylor.var(self.x) * corpus._Taylor.var(y)).c
        assert len(c) == jet_order
        np.testing.assert_array_equal(c[0], self.x * y)
        np.testing.assert_array_equal(c[1], self.x + y)
        np.testing.assert_array_equal(c[2], 1.0)
        for ck in c[3:]:
            np.testing.assert_array_equal(ck, 0.0)

    def test_sin_squared_plus_cos_squared_is_one(self, jet_order):
        t = corpus._Taylor.var(self.x)
        s, c = (0.7 * (t * t) + t / 3.0).sincos()
        one = (s * s + c * c).c
        assert len(one) == jet_order
        np.testing.assert_allclose(one[0], 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(one[1:], 0.0, rtol=0, atol=1e-14)

    def test_sincos_chain_rule(self, jet_order):
        # (sin x^2)' = 2x cos x^2 and (cos x^2)' = -2x sin x^2; sin^2 + cos^2 = 1
        # holds for any f', so it cannot see a wrong one
        t = corpus._Taylor.var(self.x)
        s, c = (t * t).sincos()
        np.testing.assert_array_equal(s.c[0], np.sin(self.x * self.x))
        np.testing.assert_array_equal(c.c[0], np.cos(self.x * self.x))
        for f, df in ((s, 2.0 * t * c), (c, -2.0 * t * s)):
            np.testing.assert_allclose(f.derivatives()[1:], df.derivatives()[:-1],
                                       rtol=1e-13, atol=1e-12)

    def test_solve_exponential(self, jet_order):
        # y' = y, y = 1: the series of exp is 1 / k!
        (y,) = corpus._Taylor.solve((1.0,), lambda y: (y,))
        want = [1.0 / math.factorial(k) for k in range(jet_order)]
        np.testing.assert_allclose(y.c, want, rtol=1e-15, atol=0)

    def test_mercator_system_is_sech_tanh(self, jet_order):
        # the Mercator sphere's s = sech v, t = tanh v solve s' = -s t, t' = s^2;
        # closed forms: d/dv = (1 - t^2) d/dt on polynomials in t, and
        # d(s P(t))/dv = s (-t P + (1 - t^2) P')
        v = np.linspace(-1.2, 1.2, 25)
        s, t = corpus._Taylor.solve((1.0 / np.cosh(v), np.tanh(v)),
                                    lambda s, t: (-1.0 * (s * t), s * s))
        T, one = Polynomial([0.0, 1.0]), Polynomial([1.0])
        p, q = one, T
        for k in range(jet_order):
            # coefficient k is the k-th derivative over k!
            np.testing.assert_allclose(s.c[k], p(np.tanh(v)) / np.cosh(v) / math.factorial(k),
                                       rtol=0, atol=1e-15)
            np.testing.assert_allclose(t.c[k], q(np.tanh(v)) / math.factorial(k),
                                       rtol=0, atol=1e-15)
            p, q = -T * p + (one - T * T) * p.deriv(), (one - T * T) * q.deriv()


def test_default_grid_domains():
    g = default_grid("cylinder", n=16, params={"r": 2.0})
    assert g.periodic_u and not g.periodic_v
    assert g.u_max == pytest.approx(4.0 * np.pi)
    g = default_grid("product_torus", n=16, params={"r1": 1.0, "r2": 3.0})
    assert g.doubly_periodic
    assert g.v_max == pytest.approx(6.0 * np.pi)
    g = default_grid("graph", n=16, params={})
    assert not g.periodic_u and not g.periodic_v


def test_cylinder_stretch_preserves_invariants():
    base = compute_geometry(make_builtin("cylinder", n=48, r=1.0))
    bent = compute_geometry(make_builtin("cylinder", n=48, r=1.0, stretch=0.3))
    # same surface, different chart: curvature invariants are unchanged
    np.testing.assert_allclose(bent.Hsq, base.Hsq[0, 0], atol=1e-11)
    np.testing.assert_allclose(bent.K, 0.0, atol=1e-10)
    lam1, lam2, _, _ = bent.principal
    np.testing.assert_allclose(lam1, 0.5, atol=1e-10)
    np.testing.assert_allclose(lam2, 0.0, atol=1e-10)
    # but the metric genuinely varies along the chart
    assert np.ptp(bent.g[..., 0, 0]) > 0.1


def test_cylinder_stretch_validation():
    with pytest.raises(ValueError):
        make_builtin("cylinder", n=8, r=1.0, stretch=1.0)


def test_sphere_chart_consistency():
    merc = compute_geometry(make_builtin("sphere", n=32, r=1.5, chart="mercator"))
    polar = compute_geometry(make_builtin("sphere", n=32, r=1.5, chart="polar"))
    for geom in (merc, polar):
        np.testing.assert_allclose(geom.Hsq, 1.0 / 1.5**2, atol=1e-10)
        np.testing.assert_allclose(geom.K, 1.0 / 1.5**2, atol=1e-9)


def test_helix_zero_torsion_is_pmc():
    expect = expected_values("helix_line_r4", {"k": 1.0, "tau": 0.0})
    assert expect["pmc"] is True
    geom = compute_geometry(make_builtin("helix_line_r4", n=24, k=1.0, tau=0.0))
    np.testing.assert_allclose(geom.dperpH, 0.0, atol=1e-11)


def test_graph_not_biconservative_flag():
    assert expected_values("graph", {})["biconservative"] is False


def test_unknown_surface_rejected():
    with pytest.raises(SurfaceConfigError):
        make_builtin("mobius", n=8)
    with pytest.raises(SurfaceConfigError):
        expected_values("mobius", {})


def test_invalid_radius_rejected():
    with pytest.raises(ValueError):
        make_builtin("sphere", n=8, r=-1.0)
    with pytest.raises(ValueError):
        make_builtin("cylinder", n=8, r=0.0)


def test_custom_grid_override():
    g = build_grid((0.0, np.pi), (0.0, 0.5), 20, 12, periodic_u=False)
    jet = make_builtin("cylinder", grid=g, r=1.0)
    assert jet.grid is g
    assert jet.pos.shape == (20, 12, 3)


class TestTabulated:
    def test_round_trip_matches_positions(self):
        jet = make_builtin("sphere", n=24, r=1.0)
        tab = load_tabulated(jet.grid, jet.pos, euclidean(3))
        np.testing.assert_allclose(tab.pos, jet.pos)
        assert not tab.has_third

    def test_row_table_reshape(self):
        jet = make_builtin("cylinder", n=12, r=1.0)
        rows = jet.pos.reshape(-1, 3)
        tab = load_tabulated(jet.grid, rows, euclidean(3))
        np.testing.assert_allclose(tab.pos, jet.pos)

    def test_shape_validation(self):
        g = build_grid((0.0, 1.0), (0.0, 1.0), 8, 8)
        with pytest.raises(ValueError):
            load_tabulated(g, np.zeros((7, 8, 3)), euclidean(3))
        with pytest.raises(ValueError):
            load_tabulated(g, np.zeros((8, 8, 2)), euclidean(3))

    def test_positions_off_sphere(self, rng):
        # the latitude sphere at height 0.6 in S^3(2.5)
        base = make_builtin("sphere", n=16, r=2.5 * 0.8)
        pos = np.concatenate([base.pos, np.full(base.grid.shape + (1,), 2.5 * 0.6)], axis=-1)
        # relative perturbations of 1e-12 are round-off, and load
        load_tabulated(base.grid, pos * (1.0 + 1e-12 * rng.uniform(-1, 1, pos.shape)),
                       sphere(3, 2.5))
        pos[5, 3] *= 1.0 + 3e-8
        with pytest.raises(SurfaceConfigError, match=r"node \(5, 3\) lies off the ambient "
                                                     r"space: relative error 3\.000e-08 > 1e-08"):
            load_tabulated(base.grid, pos, sphere(3, 2.5))
        # a Euclidean ambient has no such constraint
        load_tabulated(base.grid, pos, euclidean(4))

    def test_duplicate_rows_degenerate(self):
        g = build_grid((0.0, 1.0), (0.0, 1.0), 8, 8)
        pos = np.ones((8, 8, 3))  # constant map: rank-0 differential
        with pytest.raises(DegenerateImmersionError):
            compute_geometry(load_tabulated(g, pos, euclidean(3)))
