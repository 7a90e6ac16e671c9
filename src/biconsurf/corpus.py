"""Built-in analytic surfaces with closed-form jets, plus tabulated input.

Every builtin returns an :class:`ImmersionJet` with exact derivatives up to
third order, so downstream identity checks run at round-off accuracy. Each
coordinate of a builtin is a sum of products f(u) g(v); a maker writes f and
g as expressions in ``_Taylor.var(grid.u)`` and ``_Taylor.var(grid.v)``, the
truncated Taylor arithmetic of :class:`_Taylor` carries their derivatives,
and :func:`_jet` forms every mixed derivative from them by the product rule.
The registry also records closed-form expected values used as oracles by the
tests. Every identity, the Hopf row included, is checked in the coordinates
of the jet, so a parametrization need not be isothermal: the polar sphere
and the stretched cylinder are not.
"""

from __future__ import annotations

import inspect
import itertools
import math
import numbers

import numpy as np

from .ambient import OFF_SPACE_TOL, Ambient, euclidean
from .grid import Grid, build_grid, node_array
from .immersion import ImmersionJet, induced_metric, jet_from_positions

# Taylor coefficients kept per factor: derivatives of order 0..3, so jets up to d3
JET_ORDER = 4


class SurfaceConfigError(ValueError):
    """Malformed surface specification (unknown name, bad params, bad table)."""


class _Taylor:
    """Truncated Taylor series in one variable: ``c[k]`` is f^(k) / k! at each
    node for k < JET_ORDER, missing ones 0 (Griewank and Walther 2008,
    *Evaluating Derivatives*, ch. 13). c[0] is the plain expression's, bit for bit."""

    def __init__(self, *c):
        self.c = [*c, *[0.0] * (JET_ORDER - len(c))]

    @classmethod
    def var(cls, x):  # the variable, expanded at the nodes x
        return cls(x, 1.0)

    def derivatives(self) -> tuple:
        """f, f', f'', ... at each node, up to order JET_ORDER - 1."""
        return tuple(math.factorial(k) * ck for k, ck in enumerate(self.c))

    def __add__(self, other):
        other = other if isinstance(other, _Taylor) else _Taylor(other)
        return _Taylor(*(a + b for a, b in zip(self.c, other.c)))

    def __mul__(self, other):
        if not isinstance(other, _Taylor):
            return _Taylor(*(a * other for a in self.c))
        a, b = self.c, other.c  # the Cauchy product
        return _Taylor(*(sum((a[j] * b[k - j] for j in range(1, k + 1)), a[0] * b[k])
                         for k in range(JET_ORDER)))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return _Taylor(*(a / scalar for a in self.c))

    @staticmethod
    def solve(y0, rhs) -> list:
        """Series of the solution of y' = rhs(y) through the node values y0
        (one series per component), by the Taylor series method: coefficient
        k of rhs(y) reads only those <= k of y, so each pass fixes one more."""
        y = [_Taylor(a) for a in y0]
        for k in range(JET_ORDER - 1):
            for yi, fi in zip(y, rhs(*y)):
                yi.c[k + 1] = fi.c[k] / (k + 1)
        return y

    def sincos(self) -> list:
        """[sin f, cos f], from (sin f)' = f' cos f and (cos f)' = -f' sin f."""
        df = _Taylor(*(k * ck for k, ck in enumerate(self.c) if k))
        return _Taylor.solve((np.sin(self.c[0]), np.cos(self.c[0])),
                             lambda s, c: (df * c, -1.0 * (df * s)))


def _jet(grid: Grid, space: Ambient, coords) -> ImmersionJet:
    """Exact jet of a surface whose coordinates are sums of products f(u) g(v).

    ``coords[k]`` lists the terms of X^k as pairs (f, g) of factors, each a
    constant or a :class:`_Taylor` series, f on ``grid.u`` and g on ``grid.v``.
    With F = (f, f', ...) and G likewise, a derivative with p u-indices and q
    v-indices is the sum over the terms of F[p] (outer) G[q], written into
    every slot with that index count, so d2 and d3 are symmetric by construction.
    """
    coords = [[tuple((f if isinstance(f, _Taylor) else _Taylor(f)).derivatives() for f in term)
               for term in terms] for terms in coords]
    jets = []
    for order in range(JET_ORDER):
        out = node_array(grid, (2,) * order + (len(coords),))
        slots = list(itertools.product((0, 1), repeat=order))
        for k, terms in enumerate(coords):
            for q in range(order + 1):
                # (nu, 1) times (1, nv): a constant factor never turns a
                # u-sequence into a v-sequence, even when nu == nv; a zero
                # factor adds nothing and is skipped
                parts = [np.reshape(F[order - q], (-1, 1)) * np.reshape(G[q], (1, -1))
                         for F, G in terms if np.any(F[order - q]) and np.any(G[q])]
                if parts:
                    total = sum(parts[1:], parts[0])
                    for idx in slots:
                        if sum(idx) == q:
                            out[(Ellipsis, *idx, k)] = total
        jets.append(out)
    return ImmersionJet(grid, space, *jets)


def make_helix_line_r4(grid: Grid, k: float = 1.0, tau: float = 0.0, offset: float = 0.0) -> ImmersionJet:
    """Circular helix (curvature k, torsion tau) swept along the e4 line in R^4.

    The generating curve is arclength parametrized; the induced metric is
    the identity. Constant torsion keeps the jets in closed form while
    exercising a nonzero normal connection of H.
    """
    if k <= 0:
        raise SurfaceConfigError("helix curvature k must be positive")
    c2 = 1.0 / (k * k + tau * tau)
    a_r, b = k * c2, tau * c2
    w = 1.0 / math.sqrt(c2)
    u = _Taylor.var(grid.u)
    su, cu = (w * u).sincos()
    return _jet(grid, euclidean(4), [[(a_r * cu, 1.0)], [(a_r * su, 1.0)], [(b * w * u, 1.0)],
                                     [(1.0, _Taylor.var(grid.v) + offset)]])


def make_cylinder(grid: Grid, r: float = 1.0, stretch: float = 0.0) -> ImmersionJet:
    """Circular cylinder in R^3.

    With ``stretch`` = 0 the chart is arclength (flat induced metric).  A
    nonzero ``stretch`` in (-1, 1) reparametrizes the angular coordinate as
    theta = u / r + stretch sin(u / r); the surface is unchanged, but node
    fields become chart-inhomogeneous, so finite-difference twins of this
    jet carry genuine truncation error instead of symmetric cancellation.
    """
    if r <= 0:
        raise SurfaceConfigError("cylinder radius must be positive")
    if not -1.0 < stretch < 1.0:
        raise SurfaceConfigError("stretch must lie in (-1, 1) to keep theta monotone")
    u = _Taylor.var(grid.u)
    sth, cth = ((u + stretch * (u / r).sincos()[0] * r) / r).sincos()
    return _jet(grid, euclidean(3),
                [[(r * cth, 1.0)], [(r * sth, 1.0)], [(1.0, _Taylor.var(grid.v))]])


def make_product_torus(grid: Grid, r1: float = 1.0, r2: float = 1.0) -> ImmersionJet:
    """S^1(r1) x S^1(r2) in R^4, arclength in both factors; doubly periodic."""
    if r1 <= 0 or r2 <= 0:
        raise SurfaceConfigError("torus radii must be positive")
    sa, ca = (_Taylor.var(grid.u) / r1).sincos()
    sb, cb = (_Taylor.var(grid.v) / r2).sincos()
    return _jet(grid, euclidean(4),
                [[(r1 * ca, 1.0)], [(r1 * sa, 1.0)], [(1.0, r2 * cb)], [(1.0, r2 * sb)]])


def make_sphere(grid: Grid, r: float = 1.0, chart: str = "mercator") -> ImmersionJet:
    """Round sphere of radius r in R^3.

    ``mercator`` is the isothermal chart (u azimuth, periodic; v the
    Mercator latitude): X = r (sech v cos u, sech v sin u, tanh v).
    ``polar`` uses polar/azimuthal angles: X = r (sin u cos v, sin u sin v,
    cos u).
    """
    if r <= 0:
        raise SurfaceConfigError("sphere radius must be positive")
    su, cu = _Taylor.var(grid.u).sincos()
    v = grid.v
    if chart == "mercator":
        # sech v and tanh v solve s' = -s t, t' = s^2
        s, t = _Taylor.solve((1.0 / np.cosh(v), np.tanh(v)), lambda s, t: (-1.0 * (s * t), s * s))
        return _jet(grid, euclidean(3), [[(cu, r * s)], [(su, r * s)], [(1.0, r * t)]])
    if chart == "polar":
        sv, cv = _Taylor.var(v).sincos()
        return _jet(grid, euclidean(3), [[(r * su, cv)], [(r * su, sv)], [(r * cu, 1.0)]])
    raise SurfaceConfigError(f"unknown sphere chart {chart!r}")


def make_graph(grid: Grid, expression: str = "u2_minus_v3") -> ImmersionJet:
    """Graph surface over a parameter patch; generic non-biconservative witness."""
    if expression != "u2_minus_v3":
        raise SurfaceConfigError(f"unknown graph expression {expression!r}")
    u, v = _Taylor.var(grid.u), _Taylor.var(grid.v)
    return _jet(grid, euclidean(3),
                [[(u, 1.0)], [(1.0, v)], [(u * u, 1.0), (1.0, -1.0 * (v * v * v))]])


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
    return r if isinstance(r, numbers.Real) and 0 < r < math.inf else 1.0


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


def build_builtin(name: str, grid: Grid, params: dict) -> ImmersionJet:
    """Builtin ``name`` on ``grid``; ``params`` is checked against the
    parameters its maker accepts, so no key is taken for anything else."""
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
        if isinstance(signature[key].default, float) \
                and not (isinstance(val, numbers.Real) and math.isfinite(val)):
            raise SurfaceConfigError(
                f"{name} parameter {key} must be a finite number, got {val!r}")
    return maker(grid, **params)


def tabulate(jet: ImmersionJet) -> ImmersionJet:
    """Finite-difference twin of a jet: keep only positions, re-derive by FD."""
    return jet_from_positions(jet.grid, jet.pos, jet.space)


def load_tabulated(grid: Grid, positions, space: Ambient) -> ImmersionJet:
    """Jet from a tabulated position table (list of per-node coordinate rows,
    row-major in u). Validates the shape, that every position lies in the
    ambient space (within ``OFF_SPACE_TOL``), and the immersion condition."""
    arr = np.asarray(positions, dtype=np.float64)
    n = space.embedding_dim
    if arr.ndim == 2:
        if arr.shape[0] != grid.nu * grid.nv:
            raise SurfaceConfigError(
                f"position table has {arr.shape[0]} rows, expected {grid.nu * grid.nv}")
        arr = arr.reshape(grid.nu, grid.nv, -1)
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
    jet = jet_from_positions(grid, arr, space)
    induced_metric(jet)  # raises DegenerateImmersionError on bad tables
    return jet
