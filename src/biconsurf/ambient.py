"""Ambient spaces: Euclidean R^n and round spheres S^n(r) embedded in R^{n+1}.

This is the only module that knows which space an :class:`Ambient` is: it
parses and writes the ``{"kind", "dim", "radius"}`` entry of a surface file
or report, projects vectors tangent to the space, and gives its curvature.
Other modules ask an ``Ambient``, so a new ambient is an edit here alone.

Both are space forms, so the curvature operator has the closed form
``R(X, Y)Z = c (<Y, Z> X - <X, Z> Y)`` with ``c = 0`` (Euclidean) or
``c = 1 / r^2`` (sphere). Covariant derivatives in the sphere are Euclidean
derivatives of the embedding projected tangent to the sphere.

All operations broadcast over leading node axes; ambient vectors live on a
trailing component axis.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass

import numpy as np

from .grid import InputError

# largest relative distance of a tabulated position off the space (round-off is ~1e-16)
OFF_SPACE_TOL = 1e-8


def _dot(a, b):
    return np.einsum("...k,...k->...", a, b)


def is_json_number(x) -> bool:
    """A finite number of an input file: a JSON int or float, not a bool, that a
    float holds (so neither Infinity, NaN nor an integer too large for a float)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and -sys.float_info.max <= x <= sys.float_info.max


@dataclass(frozen=True)
class Ambient:
    kind: str  # "euclidean" | "sphere"
    dim: int
    radius: float | None = None

    def __post_init__(self):
        if self.kind not in ("euclidean", "sphere"):
            raise InputError(f"unknown ambient kind {self.kind!r}")
        if self.dim < 3:
            raise InputError("ambient dimension must be >= 3")
        if self.kind == "sphere" and (self.radius is None or self.radius <= 0):
            raise InputError("sphere ambient needs a positive radius")

    @classmethod
    def from_spec(cls, d: dict) -> "Ambient":
        """The ambient of a surface file's ``ambient`` entry: ``kind``
        (default euclidean), an integer ``dim`` (default 3) and, for a
        sphere, a positive finite ``radius``, both JSON numbers (a string
        or a bool is none). Bad entries raise InputError."""
        kind = d.get("kind", "euclidean")
        dim = d.get("dim", 3)
        if not is_json_number(dim) or isinstance(dim, float) and not dim.is_integer():
            raise InputError(f"ambient 'dim' must be an integer, got {dim!r}")
        radius = None
        if kind == "sphere":
            if "radius" not in d:
                raise InputError("sphere ambient needs a radius")
            radius = d["radius"]
            if not (is_json_number(radius) and radius > 0):
                raise InputError(
                    f"ambient 'radius' must be a positive finite number, got {radius!r}")
            radius = float(radius)
        return cls(kind, int(dim), radius)

    def spec(self) -> dict:
        """The entry :meth:`from_spec` reads, as a report writes it."""
        return {key: val for key, val in asdict(self).items() if val is not None}

    @property
    def curvature(self) -> float:
        """Constant sectional curvature c."""
        return 0.0 if self.kind == "euclidean" else 1.0 / self.radius**2

    @property
    def embedding_dim(self) -> int:
        """Number of Cartesian coordinates carried by position vectors."""
        return self.dim if self.kind == "euclidean" else self.dim + 1

    def tangent_part(self, pos, W):
        """Part of the vectors W tangent to the space at ``pos`` (broadcast
        against W): W itself, uncopied, in R^n; W less its radial part on a sphere."""
        if self.kind == "euclidean":
            return W
        return W - (_dot(W, pos) / self.radius**2)[..., None] * pos

    def off_space_error(self, pos) -> np.ndarray:
        """Relative distance ``| |x| - r | / r`` of each position off a sphere; 0 in R^n."""
        if self.kind == "euclidean":
            return np.zeros(np.shape(pos)[:-1])
        return np.abs(np.linalg.norm(pos, axis=-1) - self.radius) / self.radius


def euclidean(dim: int = 3) -> Ambient:
    return Ambient("euclidean", dim)


def sphere(dim: int = 3, radius: float = 1.0) -> Ambient:
    return Ambient("sphere", dim, radius)


def curvature_operator(space: Ambient, X, Y, Z):
    """R(X, Y)Z of the space form."""
    X, Y, Z = (np.asarray(a, dtype=np.float64) for a in (X, Y, Z))
    c = space.curvature
    if c == 0.0:
        return np.zeros(np.broadcast_shapes(X.shape, Y.shape, Z.shape))
    return c * (_dot(Y, Z)[..., None] * X - _dot(X, Z)[..., None] * Y)
