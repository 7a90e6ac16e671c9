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
from biconsurf.report import build_geometry_report

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


def _sheared_cylinder(n):
    """The unit cylinder X = (cos u', sin u', v') through the chart
    u' = u + 0.3 sin v, v' = v + 0.2 cos u sin v on (0, 2 pi)^2, u periodic:
    not a product chart, so the mixed components of A_H vary over the grid."""
    grid = build_grid((0.0, 2.0 * np.pi), (0.0, 2.0 * np.pi), n, n, periodic_u=True)
    u, v = corpus._Taylor.var(grid.u, 0), corpus._Taylor.var(grid.v, 1)
    sv, _ = v.sincos()
    _, cu = u.sincos()
    s, c = (u + 0.3 * sv).sincos()
    return corpus._jet(grid, euclidean(3), [c, s, v + 0.2 * (cu * sv)])


def _make_jet(name, params, n):
    return _sheared_cylinder(n) if name == "sheared_cylinder" else make_builtin(name, n=n, **params)


@pytest.mark.parametrize("name,params", JET_CASES + [("sheared_cylinder", {})])
def test_jet_symmetric_in_derivative_indices(name, params):
    jet = _make_jet(name, params, 16)
    np.testing.assert_array_equal(jet.d2, np.swapaxes(jet.d2, 2, 3))
    for perm in itertools.permutations((2, 3, 4)):
        np.testing.assert_array_equal(jet.d3, np.transpose(jet.d3, (0, 1, *perm, 5)))


def _fd_jet_errors(name, params, n):
    """Largest |FD along axis a of d^m X - d^(m+1) X[a]| on interior rows, for
    m = 0, 1, 2 and a = u, v, one entry per component slot."""
    jet = _make_jet(name, params, n)
    inner = interior_mask(jet.grid, 1)
    errs = []
    for lower, upper in ((jet.pos, jet.d1), (jet.d1, jet.d2), (jet.d2, jet.d3)):
        for a in (0, 1):
            diff = fd_derivative(jet.grid, lower, a) - upper[:, :, a]
            errs.append(np.max(np.abs(diff[inner]), axis=0).ravel())
    return np.concatenate(errs)


@pytest.mark.parametrize("name,params", JET_CASES + [("sheared_cylinder", {})])
def test_jet_matches_finite_differences(name, params):
    # d1, d2 and d3 are each the derivative of the order below, so the O(h^2)
    # FD of pos, d1 and d2 converges to them at second order
    coarse, fine = _fd_jet_errors(name, params, 32), _fd_jet_errors(name, params, 64)
    exact = coarse < 1e-10  # polynomial of degree <= 2 along the axis: FD is exact
    assert not exact.all()
    np.testing.assert_array_less(fine[exact], 1e-10)
    orders = [math.log2(c / f) for c, f in zip(coarse[~exact], fine[~exact])]
    assert min(orders) >= 1.8, orders


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: nabla A_H is a 3-point FD of A_H, "
                                        "even on an analytic jet")
def test_sheared_cylinder_is_biconservative():
    # a cylinder is CMC in R^3, so biconservative in every chart; the stencil
    # error of nabla A_H shows once the chart is not a product
    rep = build_geometry_report(_sheared_cylinder(32), "sheared_cylinder")
    assert rep.flags["is_biconservative"]
    assert rep.residual("stress_divergence").linf <= 1e-13


@pytest.fixture(params=[None, 6], ids=["JET_ORDER", "order6"])
def jet_order(request, monkeypatch):
    """The total degree below which Taylor coefficients are kept: the module's, or 6."""
    if request.param is not None:
        monkeypatch.setattr(corpus, "JET_ORDER", request.param)
    return corpus.JET_ORDER


def _partial(f, axis):
    """Coefficients of the partial derivative of the series f along ``axis``."""
    out = {}
    for key, a in f.c.items():
        if key[axis]:
            out[(key[0] - 1 + axis, key[1] - axis)] = key[axis] * corpus._dense(a)
    return out


class TestTaylor:
    x = np.linspace(-1.3, 2.1, 9)
    y = np.linspace(0.4, 3.0, 7)
    shape = (9, 7)

    def full(self, c, key):
        """Coefficient ``key`` of the coefficient dict c on the (x, y) nodes; missing is 0."""
        return np.broadcast_to(corpus._dense(c.get(key, 0.0)), self.shape)

    def test_product_of_vars_is_exact(self, jet_order):
        # (x + h)(x' + h) = x x' + (x + x') h + h^2 along one axis
        x2 = np.linspace(0.4, 3.0, 9)
        c = (corpus._Taylor.var(self.x, 0) * corpus._Taylor.var(x2, 0)).c
        assert set(c) == {(0, 0), (1, 0), (2, 0)}
        np.testing.assert_array_equal(c[(0, 0)], (self.x * x2)[:, None])
        np.testing.assert_array_equal(c[(1, 0)], (self.x + x2)[:, None])
        np.testing.assert_array_equal(c[(2, 0)], 1.0)
        # (x + h)(y + k) = x y + y h + x k + h k across the axes, and a series
        # in one variable keeps its coefficients on that axis alone; the column
        # x times the row y stays a lazy pair, multiplied out only when read
        u, v = corpus._Taylor.var(self.x, 0), corpus._Taylor.var(self.y, 1)
        for c in ((u * v).c, (v * u).c):
            assert set(c) == {(0, 0), (1, 0), (0, 1), (1, 1)}
            assert isinstance(c[(0, 0)], tuple)
            np.testing.assert_array_equal(corpus._dense(c[(0, 0)]), np.outer(self.x, self.y))
            np.testing.assert_array_equal(c[(1, 0)], self.y[None, :])
            np.testing.assert_array_equal(c[(0, 1)], self.x[:, None])
            np.testing.assert_array_equal(c[(1, 1)], 1.0)
        # (u v)^2 has terms up to h^2 k^2; only total degree < jet_order is kept
        c = (u * v * u * v).c
        assert set(c) == {(i, j) for i in range(3) for j in range(3) if i + j < jet_order}

    def test_sin_squared_plus_cos_squared_is_one(self, jet_order):
        u, v = corpus._Taylor.var(self.x, 0), corpus._Taylor.var(self.y, 1)
        # an argument in u alone: every coefficient but the constant one is 0 to 1e-14
        s, c = (0.7 * (u * u) + u / 3.0).sincos()
        one = (s * s + c * c).c
        assert set(one) == {(i, 0) for i in range(jet_order)}
        np.testing.assert_allclose(self.full(one, (0, 0)), 1.0, rtol=0, atol=1e-15)
        for key in one:
            if key != (0, 0):
                np.testing.assert_allclose(self.full(one, key), 0.0, rtol=0, atol=1e-14)
        # a bivariate argument: its mixed coefficients of sin^2 and cos^2 grow
        # large, so each cancels to round-off relative to the two terms
        s, c = (0.7 * (u * v) + v * v * u / 3.0 + v).sincos()
        s2, c2 = (s * s).c, (c * c).c
        one = (s * s + c * c).c
        assert set(one) == {(i, j) for i in range(jet_order) for j in range(jet_order - i)}
        np.testing.assert_allclose(self.full(one, (0, 0)), 1.0, rtol=0, atol=1e-15)
        for key in one:
            if key != (0, 0):
                scale = np.abs(self.full(s2, key)) + np.abs(self.full(c2, key))
                np.testing.assert_array_less(np.abs(self.full(one, key)), 1e-14 * (1.0 + scale))

    def test_sincos_chain_rule(self, jet_order):
        # (sin f)_a = f_a cos f and (cos f)_a = -f_a sin f along each axis a,
        # for f = u^2 and f = u v; sin^2 + cos^2 = 1 holds for any f_a, so it
        # cannot see a wrong one
        u, v = corpus._Taylor.var(self.x, 0), corpus._Taylor.var(self.y, 1)
        for f, f0 in ((u * u, (self.x * self.x)[:, None]), (u * v, np.outer(self.x, self.y))):
            s, c = f.sincos()
            np.testing.assert_array_equal(s.c[(0, 0)], np.sin(f0))
            np.testing.assert_array_equal(c.c[(0, 0)], np.cos(f0))
            for axis in (0, 1):
                df = corpus._Taylor(_partial(f, axis))
                for g, dg in ((s, df * c), (c, -1.0 * (df * s))):
                    got = _partial(g, axis)
                    # the top degree of dg reads coefficients the truncation dropped
                    for key in dg.c:
                        if sum(key) < jet_order - 1:
                            np.testing.assert_allclose(self.full(got, key), self.full(dg.c, key),
                                                       rtol=1e-13, atol=1e-12)

    def test_mixed_coefficients_of_sin_uv(self, jet_order):
        # c[(1, 1)] = d_u d_v sin(u v) = cos(u v) - u v sin(u v) and
        # c[(2, 1)] = d_u^2 d_v sin(u v) / 2 = -v sin(u v) - u v^2 cos(u v) / 2
        u, v = corpus._Taylor.var(self.x, 0), corpus._Taylor.var(self.y, 1)
        s, _ = (u * v).sincos()
        X, Y = np.meshgrid(self.x, self.y, indexing="ij")
        np.testing.assert_allclose(s.c[(1, 1)], np.cos(X * Y) - X * Y * np.sin(X * Y),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(s.c[(2, 1)], -Y * np.sin(X * Y) - X * Y * Y * np.cos(X * Y) / 2,
                                   rtol=0, atol=1e-14)

    def test_solve_exponential(self, jet_order):
        # y' = y, y = 1: the series of exp is 1 / k!, along the axis solved on
        want = [1.0 / math.factorial(k) for k in range(jet_order)]
        for axis, key in ((0, lambda k: (k, 0)), (1, lambda k: (0, k))):
            (y,) = corpus._Taylor.solve((1.0,), lambda y: (y,), axis)
            assert set(y.c) == {key(k) for k in range(jet_order)}
            np.testing.assert_allclose(np.ravel([y.c[key(k)] for k in range(jet_order)]), want,
                                       rtol=1e-15, atol=0)

    def test_mercator_system_is_sech_tanh(self, jet_order):
        # the Mercator sphere's s = sech v, t = tanh v solve s' = -s t, t' = s^2;
        # closed forms: d/dv = (1 - t^2) d/dt on polynomials in t, and
        # d(s P(t))/dv = s (-t P + (1 - t^2) P')
        v = np.linspace(-1.2, 1.2, 25)
        s, t = corpus._Taylor.solve((1.0 / np.cosh(v), np.tanh(v)),
                                    lambda s, t: (-1.0 * (s * t), s * s), 1)
        T, one = Polynomial([0.0, 1.0]), Polynomial([1.0])
        p, q = one, T
        for k in range(jet_order):
            # coefficient k is the k-th derivative over k!, on a (1, nv) row
            assert np.shape(s.c[(0, k)]) == np.shape(t.c[(0, k)]) == (1, v.size)
            np.testing.assert_allclose(s.c[(0, k)][0], p(np.tanh(v)) / np.cosh(v) / math.factorial(k),
                                       rtol=0, atol=1e-15)
            np.testing.assert_allclose(t.c[(0, k)][0], q(np.tanh(v)) / math.factorial(k),
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
    # the default extent 2 pi r overflows to inf
    with pytest.raises(ValueError, match="grid extents must be finite"):
        make_builtin("cylinder", n=8, r=1e308)


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
