import numpy as np
import pytest

from biconsurf.ambient import (
    Ambient,
    curvature_operator,
    euclidean,
    sphere,
)


def test_factories_and_curvature():
    e = euclidean(4)
    assert e.curvature == 0.0
    assert e.embedding_dim == 4
    s = sphere(3, 2.0)
    assert s.curvature == pytest.approx(0.25)
    assert s.embedding_dim == 4


def test_validation():
    with pytest.raises(ValueError):
        Ambient("weird", 3)
    with pytest.raises(ValueError):
        Ambient("sphere", 3)
    with pytest.raises(ValueError):
        euclidean(2)


def test_curvature_operator_euclidean_zero(rng):
    X, Y, Z = rng.standard_normal((3, 5, 3))
    R = curvature_operator(euclidean(3), X, Y, Z)
    np.testing.assert_allclose(R, 0.0)


def test_curvature_operator_space_form(rng):
    s = sphere(3, 2.0)
    X, Y, Z = rng.standard_normal((3, 7, 4))
    R = curvature_operator(s, X, Y, Z)
    c = 0.25
    expect = c * (
        np.einsum("...k,...k->...", Y, Z)[..., None] * X
        - np.einsum("...k,...k->...", X, Z)[..., None] * Y
    )
    np.testing.assert_allclose(R, expect)
    # antisymmetry in (X, Y)
    np.testing.assert_allclose(curvature_operator(s, Y, X, Z), -R)
    # first Bianchi identity
    bianchi = R + curvature_operator(s, Y, Z, X) + curvature_operator(s, Z, X, Y)
    np.testing.assert_allclose(bianchi, 0.0, atol=1e-12)


@pytest.mark.parametrize("space", [euclidean(3), euclidean(5), sphere(3, 2.5), sphere(4, 1.0)])
def test_spec_round_trip(space):
    assert Ambient.from_spec(space.spec()) == space


def test_spec_entries():
    assert sphere(3, 2.0).spec() == {"kind": "sphere", "dim": 3, "radius": 2.0}
    assert euclidean(4).spec() == {"kind": "euclidean", "dim": 4}
    assert Ambient.from_spec({}) == euclidean(3)
    # a Euclidean entry's radius is not read
    assert Ambient.from_spec({"kind": "euclidean", "dim": 3.0, "radius": "x"}) == euclidean(3)


def test_tangent_part_euclidean_is_identity(rng):
    W = rng.standard_normal((6, 3))
    assert euclidean(3).tangent_part(rng.standard_normal((6, 3)), W) is W
