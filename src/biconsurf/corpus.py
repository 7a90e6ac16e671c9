"""Built-in analytic surfaces with closed-form jets, plus tabulated input.

Every builtin is an :class:`ImmersionJet` with exact derivatives up to
third order, so downstream identity checks run at round-off accuracy. A maker
returns its ambient space and each coordinate of X(u, v) as one expression in
the bivariate Taylor arithmetic of :class:`_Taylor`, so a chart change is one
more composition, and :func:`_jet` reads every mixed derivative from it, or
only the positions for the finite-difference twin. The registry records
closed-form expected values used as oracles by the tests. Every identity,
the Hopf row included, is checked in the coordinates of the jet, so a chart
need not be isothermal: the polar sphere and the stretched cylinder are not.
"""

from __future__ import annotations

import inspect
import itertools
import math

import numpy as np

from .ambient import OFF_SPACE_TOL, Ambient, euclidean, is_json_number
from .grid import Grid, InputError, build_grid, node_array
from .immersion import ImmersionJet, jet_from_positions

JET_ORDER = 4  # Taylor coefficients kept: total degree 0..3 in (u, v), so jets up to d3


class SurfaceConfigError(InputError):
    """Malformed surface specification (unknown name, bad params, bad table)."""


def _key(k: int, axis: int) -> tuple:  # the coefficient of order k along one grid axis
    return (k, 0) if axis == 0 else (0, k)


def _on_axis(x, axis: int):  # node values along one grid axis, broadcast against the other
    return np.reshape(x, (-1, 1) if axis == 0 else (1, -1))


def _dense(a):  # a coefficient, with a lazy (column, row) pair multiplied out
    return a[0] * a[1] if isinstance(a, tuple) else a


def _mul(a, b):  # a coefficient product; a column by a row stays the lazy pair (a, b)
    a, b = _dense(a), _dense(b)
    lazy = np.ndim(a) == np.ndim(b) == 2 and 1 in a.shape and 1 in b.shape and a.shape != b.shape
    return (a, b) if lazy else a * b


class _Taylor:
    """Truncated Taylor series in (u, v): ``c[(i, j)]`` is d_u^i d_v^j f / (i! j!)
    at each node for i + j < JET_ORDER, missing keys 0 (Griewank and Walther
    2008, *Evaluating Derivatives*, ch. 13). A coefficient is a float, an array
    of shape (nu, 1), (1, nv) or (nu, nv), or a lazy pair (column, row) for their
    product, so neither a series in u alone nor a u-series times a v-series
    holds a full-grid array. c[(0, 0)] is the plain expression's, bit for bit."""

    __array_ufunc__ = None  # ndarray * series defers to the series

    def __init__(self, c: dict):
        self.c = c

    @classmethod
    def var(cls, x, axis: int):  # the coordinate of grid axis ``axis``, at its nodes x
        return cls({(0, 0): _on_axis(x, axis), _key(1, axis): 1.0})

    def __add__(self, other):
        other = other if isinstance(other, _Taylor) else _Taylor({(0, 0): other})
        out = dict(self.c)
        for k, b in other.c.items():
            out[k] = _dense(out[k]) + _dense(b) if k in out else b
        return _Taylor(out)

    def __mul__(self, other):
        other = other if isinstance(other, _Taylor) else _Taylor({(0, 0): other})
        out = _Taylor({})  # the Cauchy product over the triangle i + j < JET_ORDER
        for (i, j), a in self.c.items():
            for (p, q), b in other.c.items():
                if i + j + p + q < JET_ORDER:
                    out = out + _Taylor({(i + p, j + q): _mul(a, b)})
        return out

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return _Taylor({k: _dense(a) / scalar for k, a in self.c.items()})

    @staticmethod
    def solve(y0, rhs, axis: int) -> list:
        """Series along grid axis ``axis`` of the solution of y' = rhs(y) through the
        node values y0, by the Taylor series method: coefficient k of rhs(y)
        reads only those <= k of y, so each pass fixes one more."""
        y = [_Taylor({(0, 0): _on_axis(a, axis)}) for a in y0]
        for k in range(JET_ORDER - 1):
            for yi, fi in zip(y, rhs(*y)):
                yi.c[_key(k + 1, axis)] = _dense(fi.c.get(_key(k, axis), 0.0)) / (k + 1)
        return y

    def sincos(self) -> list:
        """[sin f, cos f] from f = f0 + d, d nilpotent: sin f = sin f0 cos d +
        cos f0 sin d and cos f = cos f0 cos d - sin f0 sin d."""
        d = _Taylor({k: a for k, a in self.c.items() if k != (0, 0)})
        terms = [_Taylor({(0, 0): 1.0})]
        for k in range(1, JET_ORDER):  # (-1)^(k//2) d^k / k!
            terms.append(terms[-1] * d / (k if k % 2 else -k))
        sin_d, cos_d = sum(terms[3::2], terms[1]), sum(terms[2::2], terms[0])
        f0 = _dense(self.c[(0, 0)])
        s0, c0 = np.sin(f0), np.cos(f0)
        return [s0 * cos_d + c0 * sin_d, c0 * cos_d + -s0 * sin_d]


def _jet(grid: Grid, space: Ambient, coords, fd: bool = False) -> ImmersionJet:
    """Exact jet of the surface whose coordinate X^k is the series ``coords[k]``: the
    derivative with p u-indices and q v-indices is c[(p, q)] p! q!, written into
    every slot with that index count, so d2 and d3 are symmetric by construction.
    With ``fd``, only the positions: its finite-difference twin."""
    jets = [node_array(grid, (2,) * order + (len(coords),))
            for order in range(1 if fd else JET_ORDER)]
    for k, x in enumerate(coords):
        for (p, q), c in x.c.items():
            a, b = c if isinstance(c, tuple) else (c, 1.0)
            scale = b * (math.factorial(p) * math.factorial(q))  # once per coefficient
            for idx in itertools.product((0, 1), repeat=p + q):
                if sum(idx) == q and p + q < len(jets):  # in place: no full-grid temporary
                    np.multiply(a, scale, out=jets[p + q][(Ellipsis, *idx, k)])
    return jet_from_positions(grid, jets[0], space) if fd else ImmersionJet(grid, space, *jets)


def make_helix_line_r4(grid: Grid, k: float = 1.0, tau: float = 0.0, offset: float = 0.0):
    """Circular helix (curvature k, torsion tau) swept along the e4 line in R^4.

    The generating curve is arclength parametrized, so the induced metric is
    the identity; a nonzero torsion gives H a nonzero normal connection."""
    if k <= 0:
        raise SurfaceConfigError("helix curvature k must be positive")
    kk = float(k) * k + float(tau) * tau  # a float: 0 or inf when k or tau under- or overflows
    if not 0 < kk < math.inf:
        raise SurfaceConfigError(f"helix k^2 + tau^2 = {kk!r} is not a positive finite float")
    c2 = 1.0 / kk
    a_r, b = k * c2, tau * c2
    w = 1.0 / math.sqrt(c2)
    u = _Taylor.var(grid.u, 0)
    su, cu = (w * u).sincos()
    return euclidean(4), [a_r * cu, a_r * su, b * w * u, _Taylor.var(grid.v, 1) + offset]


def make_cylinder(grid: Grid, r: float = 1.0, stretch: float = 0.0):
    """Circular cylinder in R^3.

    With ``stretch`` = 0 the chart is arclength (flat induced metric).  A
    nonzero ``stretch`` in (-1, 1) reparametrizes the angular coordinate as
    theta = u / r + stretch sin(u / r); the surface is unchanged, but node
    fields become chart-inhomogeneous, so finite-difference twins of this
    jet carry genuine truncation error instead of symmetric cancellation."""
    if r <= 0:
        raise SurfaceConfigError("cylinder radius must be positive")
    if not -1.0 < stretch < 1.0:
        raise SurfaceConfigError("stretch must lie in (-1, 1) to keep theta monotone")
    u = _Taylor.var(grid.u, 0)
    sth, cth = ((u + stretch * (u / r).sincos()[0] * r) / r).sincos()
    return euclidean(3), [r * cth, r * sth, _Taylor.var(grid.v, 1)]


def make_product_torus(grid: Grid, r1: float = 1.0, r2: float = 1.0):
    """S^1(r1) x S^1(r2) in R^4, arclength in both factors; doubly periodic."""
    if r1 <= 0 or r2 <= 0:
        raise SurfaceConfigError("torus radii must be positive")
    sa, ca = (_Taylor.var(grid.u, 0) / r1).sincos()
    sb, cb = (_Taylor.var(grid.v, 1) / r2).sincos()
    return euclidean(4), [r1 * ca, r1 * sa, r2 * cb, r2 * sb]


def make_sphere(grid: Grid, r: float = 1.0, chart: str = "mercator"):
    """Round sphere of radius r in R^3. ``mercator`` is the isothermal chart
    X = r (sech v cos u, sech v sin u, tanh v), u the periodic azimuth and v the
    Mercator latitude; ``polar`` is X = r (sin u cos v, sin u sin v, cos u)."""
    if r <= 0:
        raise SurfaceConfigError("sphere radius must be positive")
    su, cu = _Taylor.var(grid.u, 0).sincos()
    if chart == "mercator":
        # sech v and tanh v solve s' = -s t, t' = s^2
        s, t = _Taylor.solve((1.0 / np.cosh(grid.v), np.tanh(grid.v)),
                             lambda s, t: (-1.0 * (s * t), s * s), 1)
        return euclidean(3), [cu * (r * s), su * (r * s), r * t]
    if chart == "polar":
        sv, cv = _Taylor.var(grid.v, 1).sincos()
        return euclidean(3), [r * su * cv, r * su * sv, r * cu]
    raise SurfaceConfigError(f"unknown sphere chart {chart!r}")


def make_graph(grid: Grid, expression: str = "u2_minus_v3"):
    """Graph surface over a parameter patch; generic non-biconservative witness."""
    if expression != "u2_minus_v3":
        raise SurfaceConfigError(f"unknown graph expression {expression!r}")
    u, v = _Taylor.var(grid.u, 0), _Taylor.var(grid.v, 1)
    return euclidean(3), [u, v, u * u + -1.0 * (v * v * v)]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

BUILTIN_MAKERS = {
    "helix_line_r4": make_helix_line_r4,
    "cylinder": make_cylinder,
    "sphere": make_sphere,
    "product_torus": make_product_torus,
    "graph": make_graph,
}


def _radius(params: dict, key: str) -> float:
    """A radius that scales a default extent; a value the maker rejects (not a
    positive finite number) leaves the extent unscaled, so the maker reports it."""
    r = params.get(key, 1.0)
    return r if is_json_number(r) and r > 0 else 1.0


def default_grid(name: str, n: int = 64, params: dict | None = None) -> Grid:
    """Canonical parameter domain for each builtin, n nodes per axis."""
    params = params or {}
    if name == "helix_line_r4":
        return build_grid((0.0, 2.0 * math.pi), (0.0, 1.0), n, n)
    if name == "cylinder":
        r = _radius(params, "r")
        return build_grid((0.0, 2.0 * math.pi * r), (0.0, 1.0), n, n, periodic_u=True)
    if name == "sphere":
        if params.get("chart", "mercator") == "polar":
            return build_grid((0.4, math.pi - 0.4), (0.0, 2.0 * math.pi), n, n, periodic_v=True)
        return build_grid((0.0, 2.0 * math.pi), (-1.2, 1.2), n, n, periodic_u=True)
    if name == "product_torus":
        r1, r2 = _radius(params, "r1"), _radius(params, "r2")
        return build_grid((0.0, 2.0 * math.pi * r1), (0.0, 2.0 * math.pi * r2), n, n,
                          periodic_u=True, periodic_v=True)
    if name == "graph":
        return build_grid((-1.0, 1.0), (-1.0, 1.0), n, n)
    raise SurfaceConfigError(f"unknown builtin surface {name!r}")


def expected_values(name: str, params: dict) -> dict:
    """Closed-form oracle values for a builtin (norms, eigenvalues, K)."""
    if name == "graph":
        return {"biconservative": False}
    # every other builtin is biconservative, and all but the sphere are flat
    known = {"K": 0.0, "biconservative": True, "pmc": True}
    if name == "helix_line_r4":
        k, tau = params.get("k", 1.0), params.get("tau", 0.0)
        return {**known, "H_norm": k / 2.0, "lambdas": (k * k / 2.0, 0.0),
                "dperpH_norm": k * abs(tau) / 2.0, "pmc": tau == 0.0}
    if name == "cylinder":
        r = params.get("r", 1.0)
        return {**known, "H_norm": 1.0 / (2.0 * r), "lambdas": (1.0 / (2.0 * r * r), 0.0)}
    if name == "sphere":
        r = params.get("r", 1.0)
        return {**known, "H_norm": 1.0 / r, "lambdas": (1.0 / r**2, 1.0 / r**2),
                "K": 1.0 / r**2, "pseudoumbilical": True}
    if name == "product_torus":
        r1, r2 = params.get("r1", 1.0), params.get("r2", 1.0)
        # A_H(d_a) = <B_aa, H> d_a in the arclength chart
        lambdas = sorted((1.0 / (2.0 * r1**2), 1.0 / (2.0 * r2**2)), reverse=True)
        return {**known, "H_norm": math.sqrt((1.0 / r1**2 + 1.0 / r2**2) / 4.0),
                "lambdas": tuple(lambdas)}
    raise SurfaceConfigError(f"unknown builtin surface {name!r}")


def make_builtin(name: str, grid: Grid | None = None, n: int = 64, **params) -> ImmersionJet:
    """Builtin ``name`` on ``grid`` (by default its canonical domain, n nodes
    per axis) with the surface parameters as keywords."""
    if grid is None:
        grid = default_grid(name, n, params)
    return build_builtin(name, grid, params)


def build_builtin(name: str, grid: Grid, params: dict, fd: bool = False) -> ImmersionJet:
    """Builtin ``name`` on ``grid``, or with ``fd`` its finite-difference twin;
    ``params`` is checked against the parameters its maker accepts, so no key
    is taken for anything else."""
    if name not in BUILTIN_MAKERS:
        raise SurfaceConfigError(f"unknown builtin surface {name!r}")
    maker = BUILTIN_MAKERS[name]
    signature = inspect.signature(maker).parameters
    accepted = [key for key in signature if key != "grid"]
    unknown = [key for key in params if key not in accepted]
    if unknown:
        raise SurfaceConfigError(
            f"{name} has no parameter {unknown[0]!r}; it accepts {', '.join(accepted)}")
    for key, val in params.items():
        # a parameter the maker defaults to a float must be a finite number
        if isinstance(signature[key].default, float) and not is_json_number(val):
            raise SurfaceConfigError(
                f"{name} parameter {key} must be a finite number, got {val!r}")
    # a huge parameter or grid end overflows in the maker; the checks of
    # compute_geometry (metric finite, immersion not degenerate) say so in one line
    with np.errstate(over="ignore", invalid="ignore"):
        return _jet(grid, *maker(grid, **params), fd)


def tabulate(jet: ImmersionJet) -> ImmersionJet:
    """Finite-difference twin of a jet: its positions alone, differenced where
    a geometry is computed."""
    return jet_from_positions(jet.grid, jet.pos, jet.space)


def load_tabulated(grid: Grid, positions, space: Ambient) -> ImmersionJet:
    """Jet from a tabulated position table: nu*nv per-node coordinate rows,
    row-major in u, or an (nu, nv, dim) array. Validates that it is numeric,
    its shape, and that every position lies in the ambient space (within
    ``OFF_SPACE_TOL``). The jet holds the positions alone: its derivatives,
    and with them the immersion condition, are taken and checked where a
    geometry is computed."""
    try:
        arr = np.asarray(positions)
    except ValueError as exc:
        raise SurfaceConfigError("position table is ragged (rows of unequal length)") from exc
    # numpy reads a bool among numbers as 1 or 0, so each entry's type is looked at
    if arr.dtype.kind not in "iuf" or bool in set(map(type, np.asarray(positions, object).flat)):
        raise SurfaceConfigError("position table must hold numbers only")
    arr = arr.astype(np.float64, copy=False)
    n = space.embedding_dim
    if arr.ndim == 2:
        if arr.shape[0] != grid.nu * grid.nv:
            raise SurfaceConfigError(
                f"position table has {arr.shape[0]} rows, expected {grid.nu * grid.nv}")
        arr = arr.reshape(grid.nu, grid.nv, arr.shape[1])
    if arr.shape != grid.shape + (n,):
        raise SurfaceConfigError(
            f"position table shape {arr.shape} does not match grid {grid.shape} "
            f"with {n} ambient components")
    if not np.all(np.isfinite(arr)):
        raise SurfaceConfigError("position table contains non-finite entries")
    err = space.off_space_error(arr)
    node = np.unravel_index(np.argmax(err), err.shape)
    if err[node] > OFF_SPACE_TOL:
        raise SurfaceConfigError(
            f"position at node ({node[0]}, {node[1]}) lies off the ambient space: "
            f"relative error {err[node]:.3e} > {OFF_SPACE_TOL:g}")
    return jet_from_positions(grid, arr, space)
