"""Rectangular parameter grids and flat coordinate-wise operators.

A :class:`Grid` is a uniform node lattice over ``[u_min, u_max] x
[v_min, v_max]``. On a periodic axis the right endpoint is identified with
the left one and the spacing is ``extent / n``; on a non-periodic axis the
endpoints are both nodes and the spacing is ``extent / (n - 1)``.

Fields are indexed node-major: the logical shape of a field is ``(nu, nv)``
(axis 0 = u, axis 1 = v), and vector and tensor fields append component
axes, ``(nu, nv, comps...)``. Memory order is a separate matter: the package
allocates its fields with :func:`node_array`, whose buffer is C-ordered as
``(comps..., nu, nv)``, so the node axes are innermost in memory. Each
component is then one contiguous node field, and the small-index
contractions (``np.einsum`` over ``"...ij,...jk"``) run their inner loops
over all nodes instead of over a component axis of length 2. ``np.einsum``
and elementwise operations keep that layout in their outputs. Layout
affects only speed: any strided array, such as a C-ordered one from a
caller, gives the same values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels


@dataclass(frozen=True)
class Grid:
    u_min: float
    u_max: float
    v_min: float
    v_max: float
    nu: int
    nv: int
    periodic_u: bool = False
    periodic_v: bool = False

    def __post_init__(self):
        if not (self.u_max > self.u_min and self.v_max > self.v_min):
            raise ValueError("grid extents must be positive")
        if self.nu < 4 or self.nv < 4:
            raise ValueError("need at least 4 nodes per axis")

    @property
    def hu(self) -> float:
        ext = self.u_max - self.u_min
        return ext / self.nu if self.periodic_u else ext / (self.nu - 1)

    @property
    def hv(self) -> float:
        ext = self.v_max - self.v_min
        return ext / self.nv if self.periodic_v else ext / (self.nv - 1)

    def spacing(self, axis: int) -> float:
        return self.hu if axis == 0 else self.hv

    def periodic(self, axis: int) -> bool:
        return self.periodic_u if axis == 0 else self.periodic_v

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nu, self.nv)

    @property
    def doubly_periodic(self) -> bool:
        return self.periodic_u and self.periodic_v

    @cached_property
    def u(self) -> np.ndarray:
        return self.u_min + self.hu * np.arange(self.nu)

    @cached_property
    def v(self) -> np.ndarray:
        return self.v_min + self.hv * np.arange(self.nv)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.u, self.v, indexing="ij")


def node_array(grid: Grid, comps: tuple[int, ...] = ()) -> np.ndarray:
    """Zero field of logical shape ``grid.shape + comps`` with the node axes
    innermost in memory: a view of a C-ordered ``comps + grid.shape`` buffer."""
    return np.moveaxis(np.zeros(tuple(comps) + grid.shape), (-2, -1), (0, 1))


def build_grid(u_bounds, v_bounds, nu, nv, periodic_u=False, periodic_v=False) -> Grid:
    return Grid(u_bounds[0], u_bounds[1], v_bounds[0], v_bounds[1], nu, nv, periodic_u, periodic_v)


def fd_derivative(grid: Grid, field: np.ndarray, axis: int, order: int = 1) -> np.ndarray:
    """O(h^2) derivative of a node field along a grid axis.

    Works componentwise on arrays with trailing component axes.
    """
    field = np.asarray(field)
    if field.shape[:2] != grid.shape:
        raise ValueError(f"field shape {field.shape} does not match grid {grid.shape}")
    return kernels.derivative(field, grid.spacing(axis), axis, order, grid.periodic(axis))


def flat_gradient(grid: Grid, field: np.ndarray) -> np.ndarray:
    """Flat partial derivatives (f_x, f_y) on axis 2, ahead of the field's
    component axes: ``out[:, :, a, ...] = d_a f`` (the last axis for a scalar)."""
    out = node_array(grid, (2,) + np.shape(field)[2:])
    for a in (0, 1):
        out[:, :, a] = fd_derivative(grid, field, a, 1)
    return out


def flat_laplacian(grid: Grid, field: np.ndarray) -> np.ndarray:
    """Analyst's flat Laplacian f_xx + f_yy."""
    return fd_derivative(grid, field, 0, 2) + fd_derivative(grid, field, 1, 2)


def interior_mask(grid: Grid, margin: int) -> np.ndarray:
    """Boolean node mask excluding ``margin`` rows at each non-periodic edge."""
    mask = np.ones(grid.shape, dtype=bool)
    if margin > 0:
        if not grid.periodic_u:
            mask[:margin] = False
            mask[-margin:] = False
        if not grid.periodic_v:
            mask[:, :margin] = False
            mask[:, -margin:] = False
    return mask


def integrate(grid: Grid, field: np.ndarray) -> float:
    """Integral of a scalar node field over the parameter rectangle.

    Rectangle rule on periodic axes (very accurate for smooth periodic
    integrands), trapezoid weights on non-periodic axes.
    """
    field = np.asarray(field, dtype=np.float64)
    wu = np.ones(grid.nu)
    wv = np.ones(grid.nv)
    if not grid.periodic_u:
        wu[0] = wu[-1] = 0.5
    if not grid.periodic_v:
        wv[0] = wv[-1] = 0.5
    return float(grid.hu * grid.hv * np.einsum("i,j,ij->", wu, wv, field))
