"""Rectangular parameter grids and flat coordinate-wise operators.

A :class:`Grid` is a uniform node lattice over ``[u_min, u_max] x
[v_min, v_max]``. On a periodic axis the right endpoint is identified with
the left one and the spacing is ``extent / n``; on a non-periodic axis the
endpoints are both nodes and the spacing is ``extent / (n - 1)``.

Fields are stored node-major as ``(nu, nv)`` numpy arrays (axis 0 = u,
axis 1 = v); vector and tensor fields append component axes.
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

    def refined(self, factor: int = 2) -> "Grid":
        def n_of(n, periodic):
            return n * factor if periodic else (n - 1) * factor + 1

        return Grid(
            self.u_min,
            self.u_max,
            self.v_min,
            self.v_max,
            n_of(self.nu, self.periodic_u),
            n_of(self.nv, self.periodic_v),
            self.periodic_u,
            self.periodic_v,
        )


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
    """(f_x, f_y) stacked on a trailing axis."""
    return np.stack(
        [fd_derivative(grid, field, 0, 1), fd_derivative(grid, field, 1, 1)], axis=-1
    )


def flat_laplacian(grid: Grid, field: np.ndarray) -> np.ndarray:
    """Analyst's flat Laplacian f_xx + f_yy."""
    return fd_derivative(grid, field, 0, 2) + fd_derivative(grid, field, 1, 2)


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
