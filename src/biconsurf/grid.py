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

:meth:`Grid.u_strip` and :func:`take_rows` give the u-strips a report runs
on (see ``report``). An integral sums each u-row along v
(:func:`row_integrals`), then the rows along u (:func:`integrate`), so a
row's part is the same wherever the grid is cut into strips.

:class:`InputError` is the one error for rejected input. It lives here, the
lowest module that rejects any: a grid, an ambient, a surface, its table or
a solver parameter raises it where it is read, and the CLI exits 3 on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels


class InputError(ValueError):
    """Input rejected where it is read, with a message that names the bad entry."""


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
    # the u spacing of a strip (:meth:`u_strip`), its parent's bit for bit;
    # None: from the extents
    u_step: float | None = None
    # the row of the whole grid that a strip's row 0 is: an error names a
    # node of a strip by its row in the whole grid
    first_row: int = 0

    def __post_init__(self):
        # an infinite or NaN end, or ends so far apart that u_max - u_min
        # overflows, would give an infinite or NaN spacing
        if not np.all(np.isfinite((self.u_max - self.u_min, self.v_max - self.v_min))):
            raise InputError("grid extents must be finite")
        if not (self.u_max > self.u_min and self.v_max > self.v_min):
            raise InputError("grid extents must be positive")
        if self.nu < 4 or self.nv < 4:
            raise InputError("need at least 4 nodes per axis")

    @property
    def hu(self) -> float:
        if self.u_step is not None:
            return self.u_step
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

    def u_strip(self, lo: int, hi: int) -> Grid:
        """Rows ``lo`` .. ``hi - 1`` (mod nu on a periodic u axis) as a grid
        open in u, with this grid's u spacing. The spacing is kept, not taken
        again from the extents, so that the strip's stencils round as the
        whole grid's do; its u runs from ``first_row * hu``, the whole grid's
        u less ``u_min``, so that no extent rounds to zero."""
        h, first = self.hu, self.first_row + lo
        return Grid(first * h, (first + hi - lo - 1) * h, self.v_min, self.v_max, hi - lo,
                    self.nv, False, self.periodic_v, h, first)


def node_array(grid: Grid, comps: tuple[int, ...] = ()) -> np.ndarray:
    """Zero field of logical shape ``grid.shape + comps`` with the node axes
    innermost in memory: a view of a C-ordered ``comps + grid.shape`` buffer."""
    k = len(comps)
    return np.zeros(tuple(comps) + grid.shape).transpose(k, k + 1, *range(k))


def take_rows(a: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rows ``lo`` .. ``hi - 1`` of a node field along u, at most nu of them,
    taken mod nu: a view where they do not wrap, else a copy in the memory
    order of ``a``. (``np.take`` would first copy all of a field in node
    layout to C order.)"""
    nu = a.shape[0]
    if 0 <= lo and hi <= nu:
        return a[lo:hi]
    out = np.empty_like(a, shape=(hi - lo,) + a.shape[1:])
    return np.concatenate((a[lo % nu:], a[:hi - nu if hi > nu else hi]), out=out)


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


def interior_span(grid: Grid, margin: int, axis: int) -> slice:
    """The nodes of an axis that a norm is taken over: all of them on a
    periodic axis, less ``margin`` at each end of an open one."""
    n = grid.shape[axis]
    return slice(0, n) if grid.periodic(axis) else slice(margin, n - margin)


def quadrature_weights(grid: Grid, axis: int) -> np.ndarray:
    """Weights along an axis, in units of its spacing: rectangle rule on a
    periodic axis (very accurate for smooth periodic integrands), trapezoid
    on an open one."""
    w = np.ones(grid.shape[axis])
    if not grid.periodic(axis):
        w[0] = w[-1] = 0.5
    return w


def row_integrals(grid: Grid, rows: np.ndarray) -> np.ndarray:
    """sum_j wv_j f_ij along v of each of some u-rows f_i of a node field,
    whatever other rows are given."""
    return np.add.reduce(rows * quadrature_weights(grid, 1), axis=1)


def integrate(grid: Grid, field: np.ndarray, rows: slice = slice(None)) -> float:
    """Integral of a scalar node field over its u-rows ``rows`` (by default
    the parameter rectangle), from the field or from the
    :func:`row_integrals` of all its rows."""
    s = np.asarray(field, dtype=np.float64)
    if s.ndim == 2:
        s = row_integrals(grid, s)
    return float(grid.hu * grid.hv * np.add.reduce(quadrature_weights(grid, 0)[rows] * s[rows]))
