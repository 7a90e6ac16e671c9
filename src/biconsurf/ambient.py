"""Ambient spaces: Euclidean R^n and round spheres S^n(r) embedded in R^{n+1}.

Both are space forms, so the curvature operator has the closed form
``R(X, Y)Z = c (<Y, Z> X - <X, Z> Y)`` with ``c = 0`` (Euclidean) or
``c = 1 / r^2`` (sphere). Covariant derivatives in the sphere are Euclidean
derivatives of the embedding projected tangent to the sphere.

All operations broadcast over leading node axes; ambient vectors live on a
trailing component axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _dot(a, b):
    return np.einsum("...k,...k->...", a, b)


@dataclass(frozen=True)
class Ambient:
    kind: str  # "euclidean" | "sphere"
    dim: int
    radius: float | None = None

    def __post_init__(self):
        if self.kind not in ("euclidean", "sphere"):
            raise ValueError(f"unknown ambient kind {self.kind!r}")
        if self.dim < 3:
            raise ValueError("ambient dimension must be >= 3")
        if self.kind == "sphere":
            if self.radius is None or self.radius <= 0:
                raise ValueError("sphere ambient needs a positive radius")

    @property
    def curvature(self) -> float:
        """Constant sectional curvature c."""
        return 0.0 if self.kind == "euclidean" else 1.0 / self.radius**2

    @property
    def embedding_dim(self) -> int:
        """Number of Cartesian coordinates carried by position vectors."""
        return self.dim if self.kind == "euclidean" else self.dim + 1


def euclidean(dim: int = 3) -> Ambient:
    return Ambient("euclidean", dim)


def sphere(dim: int = 3, radius: float = 1.0) -> Ambient:
    return Ambient("sphere", dim, radius)


def curvature_operator(space: Ambient, X, Y, Z, position=None, tol: float = 1e-8):
    """R(X, Y)Z of the space form.

    For a sphere, ``position`` (points on the sphere) may be supplied to
    check that the inputs are tangent; non-tangent input raises.
    """
    X, Y, Z = (np.asarray(a, dtype=np.float64) for a in (X, Y, Z))
    if space.kind == "sphere" and position is not None:
        position = np.asarray(position, dtype=np.float64)
        scale = space.radius
        for W in (X, Y, Z):
            worst = np.max(np.abs(_dot(W, position))) / (
                scale * (1.0 + np.max(np.linalg.norm(W, axis=-1)))
            )
            if worst > tol:
                raise ValueError(
                    f"input vector not tangent to the sphere (residual {worst:.3e})"
                )
    c = space.curvature
    if c == 0.0:
        return np.zeros(np.broadcast_shapes(X.shape, Y.shape, Z.shape))
    return c * (_dot(Y, Z)[..., None] * X - _dot(X, Z)[..., None] * Y)

