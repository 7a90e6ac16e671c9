import numpy as np
import pytest

from biconsurf.grid import (
    Grid,
    build_grid,
    fd_derivative,
    flat_gradient,
    flat_laplacian,
    integrate,
    node_array,
)


def test_spacing_periodic_vs_open():
    g = build_grid((0.0, 1.0), (0.0, 1.0), 10, 10, periodic_u=True)
    assert g.hu == pytest.approx(0.1)
    assert g.hv == pytest.approx(1.0 / 9.0)
    assert g.u[-1] == pytest.approx(0.9)
    assert g.v[-1] == pytest.approx(1.0)


def test_validation():
    with pytest.raises(ValueError):
        build_grid((0.0, 0.0), (0.0, 1.0), 8, 8)
    with pytest.raises(ValueError):
        build_grid((0.0, 1.0), (0.0, 1.0), 3, 8)


def test_fd_derivative_trig():
    g = build_grid((0.0, 2.0 * np.pi), (0.0, 1.0), 64, 16, periodic_u=True)
    U, V = g.mesh()
    f = np.sin(U) * (1.0 + V)
    du = fd_derivative(g, f, 0, 1)
    assert np.max(np.abs(du - np.cos(U) * (1.0 + V))) < 4e-3
    dv = fd_derivative(g, f, 1, 1)
    np.testing.assert_allclose(dv, np.sin(U), atol=1e-10)


def test_fd_derivative_component_axes():
    g = build_grid((0.0, 1.0), (0.0, 1.0), 12, 12)
    U, V = g.mesh()
    field = np.stack([U**2, V**2, U * V], axis=-1)
    d = fd_derivative(g, field, 0, 1)
    np.testing.assert_allclose(d[..., 0], 2 * U, atol=1e-10)
    np.testing.assert_allclose(d[..., 1], 0.0, atol=1e-10)
    np.testing.assert_allclose(d[..., 2], V, atol=1e-10)


def test_flat_operators_on_quadratic():
    g = build_grid((-1.0, 1.0), (-1.0, 1.0), 16, 16)
    U, V = g.mesh()
    f = U**2 - 3.0 * V**2 + U * V
    grad = flat_gradient(g, f)
    np.testing.assert_allclose(grad[..., 0], 2 * U + V, atol=1e-10)
    np.testing.assert_allclose(grad[..., 1], -6 * V + U, atol=1e-10)
    np.testing.assert_allclose(flat_laplacian(g, f), -4.0, atol=1e-9)


def test_integrate_constant_and_periodic():
    g = build_grid((0.0, 2.0 * np.pi), (0.0, 2.0 * np.pi), 32, 32, True, True)
    assert integrate(g, np.ones(g.shape)) == pytest.approx(4.0 * np.pi**2)
    U, V = g.mesh()
    # mean-zero trig integrates to zero on the full period
    assert abs(integrate(g, np.sin(U) * np.cos(2 * V))) < 1e-12


def test_integrate_trapezoid_quadratic():
    g = build_grid((0.0, 1.0), (0.0, 1.0), 101, 101)
    U, _ = g.mesh()
    val = integrate(g, U**2)
    assert val == pytest.approx(1.0 / 3.0, abs=2e-5)


def test_shape_mismatch_raises():
    g = build_grid((0.0, 1.0), (0.0, 1.0), 8, 8)
    with pytest.raises(ValueError):
        fd_derivative(g, np.zeros((7, 8)), 0, 1)


def test_node_array_layout():
    g = build_grid((0.0, 1.0), (0.0, 2.0), 5, 7)
    a = node_array(g, (2, 3))
    assert a.shape == (5, 7, 2, 3) and not a.any()
    assert np.moveaxis(a, (0, 1), (-2, -1)).flags.c_contiguous
    assert node_array(g).flags.c_contiguous and node_array(g).shape == (5, 7)
