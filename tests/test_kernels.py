import numpy as np
import pytest

from biconsurf import kernels

CASES = [(o, p, a) for o in (1, 2) for p in (True, False) for a in (0, 1)]


def _per_slice(f, h, axis, order, periodic):
    """Reference: the stencil written out on each 1D line along ``axis``."""
    out = np.empty(f.shape)
    lines, dest = np.moveaxis(f, axis, -1), np.moveaxis(out, axis, -1)
    for idx in np.ndindex(lines.shape[:-1]):
        x = lines[idx]
        if periodic:
            nxt, prv = np.roll(x, -1), np.roll(x, 1)
            y = (nxt - prv) / (2.0 * h) if order == 1 else (nxt - 2.0 * x + prv) / (h * h)
        elif order == 1:
            y = np.empty_like(x)
            y[1:-1] = (x[2:] - x[:-2]) / (2.0 * h)
            y[0] = (-3.0 * x[0] + 4.0 * x[1] - x[2]) / (2.0 * h)
            y[-1] = (3.0 * x[-1] - 4.0 * x[-2] + x[-3]) / (2.0 * h)
        else:
            y = np.empty_like(x)
            y[1:-1] = (x[2:] - 2.0 * x[1:-1] + x[:-2]) / (h * h)
            y[0] = (2.0 * x[0] - 5.0 * x[1] + 4.0 * x[2] - x[3]) / (h * h)
            y[-1] = (2.0 * x[-1] - 5.0 * x[-2] + 4.0 * x[-3] - x[-4]) / (h * h)
        dest[idx] = y
    return out


@pytest.mark.parametrize("order,periodic,axis", CASES)
def test_components_match_per_slice(order, periodic, axis, rng):
    f = rng.standard_normal((11, 13, 2, 3))
    d = kernels.derivative(f, 0.37, axis, order, periodic)
    np.testing.assert_array_equal(d, _per_slice(f, 0.37, axis, order, periodic))


@pytest.mark.parametrize("order,periodic,axis", CASES)
def test_complex_matches_parts(order, periodic, axis, rng):
    f = rng.standard_normal((11, 13, 2)) + 1j * rng.standard_normal((11, 13, 2))
    d = kernels.derivative(f, 0.37, axis, order, periodic)
    np.testing.assert_array_equal(d.real, _per_slice(f.real, 0.37, axis, order, periodic))
    np.testing.assert_array_equal(d.imag, _per_slice(f.imag, 0.37, axis, order, periodic))


@pytest.mark.parametrize("periodic", [True, False])
def test_second_order_accuracy(periodic):
    errs = []
    for n in (32, 64):
        if periodic:
            x = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
            h = 2.0 * np.pi / n
        else:
            x = np.linspace(0.0, 1.0, n)
            h = 1.0 / (n - 1)
        f = np.sin(x)[:, None] * np.ones((1, 5))
        d1 = kernels.derivative(f, h, 0, 1, periodic)
        d2 = kernels.derivative(f, h, 0, 2, periodic)
        e1 = np.max(np.abs(d1[:, 0] - np.cos(x)))
        e2 = np.max(np.abs(d2[:, 0] + np.sin(x)))
        errs.append(max(e1, e2))
    order = np.log2(errs[0] / errs[1])
    assert order > 1.8


def test_polynomials_exact_nonperiodic():
    # the clamped stencils are exact on quadratics, including the edges
    n = 16
    x = np.linspace(-1.0, 2.0, n)
    h = x[1] - x[0]
    f = (3.0 * x**2 - 2.0 * x + 1.0)[:, None] * np.ones((1, 4))
    d1 = kernels.derivative(f, h, 0, 1, periodic=False)
    d2 = kernels.derivative(f, h, 0, 2, periodic=False)
    np.testing.assert_allclose(d1[:, 0], 6.0 * x - 2.0, atol=1e-12)
    np.testing.assert_allclose(d2[:, 0], 6.0, atol=1e-11)


def test_complex_input(rng):
    f = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    d = kernels.derivative(f, 0.2, 1, 1, periodic=True)
    np.testing.assert_array_equal(d.real, kernels.derivative(f.real, 0.2, 1, 1, True))
    np.testing.assert_array_equal(d.imag, kernels.derivative(f.imag, 0.2, 1, 1, True))


def test_axis1_matches_transposed_axis0(rng):
    f = rng.standard_normal((9, 14))
    a = kernels.derivative(f, 0.3, 1, 2, periodic=False)
    b = kernels.derivative(f.T, 0.3, 0, 2, periodic=False).T
    np.testing.assert_allclose(a, b, atol=1e-14)


def test_validation_errors():
    f = np.zeros((8, 8))
    with pytest.raises(ValueError):
        kernels.derivative(f, 0.1, 0, 3, True)
    with pytest.raises(ValueError):
        kernels.derivative(f, 0.1, 2, 1, True)
    with pytest.raises(ValueError):
        kernels.derivative(np.zeros((3, 8)), 0.1, 0, 1, True)


def test_backend_name_reports_active():
    assert kernels.backend_name() == "numpy"


def _nodes_innermost(a):
    return np.moveaxis(a, (0, 1), (-2, -1)).flags.c_contiguous


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("order,periodic,axis", CASES)
def test_layout_kept_and_values_bitwise(order, periodic, axis, dtype, rng):
    f = rng.standard_normal((11, 13, 2, 3)).astype(dtype)
    if dtype is np.complex128:
        f = f + 1j * rng.standard_normal(f.shape)
    # the same values in a (2, 3, 11, 13) C-order buffer: node axes innermost
    g = np.moveaxis(np.ascontiguousarray(np.moveaxis(f, (0, 1), (-2, -1))), (-2, -1), (0, 1))
    assert _nodes_innermost(g) and not _nodes_innermost(f)
    dc = kernels.derivative(f, 0.37, axis, order, periodic)
    dn = kernels.derivative(g, 0.37, axis, order, periodic)
    assert dc.flags.c_contiguous and _nodes_innermost(dn)
    np.testing.assert_array_equal(dn, dc)
