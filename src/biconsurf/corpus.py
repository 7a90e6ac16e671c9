"""Built-in analytic surfaces with closed-form jets, plus tabulated input.

Every builtin returns an :class:`ImmersionJet` with exact derivatives up to
third order, so downstream identity checks run at round-off accuracy. Each
coordinate of a builtin is a sum of products f(u) g(v), so a maker only
writes the 1-D derivative sequences (f, f', f'', f''') and (g, g', g'', g''')
on the grid axes; :func:`_jet` forms every mixed derivative of the jet from
them by the product rule. The registry also records closed-form expected
values used as oracles by the tests. Every identity, the Hopf row included,
is checked in the coordinates of the jet, so a parametrization need not be
isothermal: the polar sphere and the stretched cylinder are not.
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


class SurfaceConfigError(ValueError):
    """Malformed surface specification (unknown name, bad params, bad table)."""


def _jet(grid: Grid, space: Ambient, coords) -> ImmersionJet:
    """Exact jet of a surface whose coordinates are sums of products f(u) g(v).

    ``coords[k]`` lists the terms of X^k as pairs (F, G) of derivative
    sequences, F = (f, f', f'', f''') on ``grid.u`` and G likewise on
    ``grid.v``; an entry is a 1-D array or a constant. A derivative with p
    u-indices and q v-indices is the sum over the terms of F[p] (outer)
    G[q], written into every slot with that index count, so d2 and d3 are
    symmetric by construction.
    """
    jets = []
    for order in range(4):
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


# derivative sequences of the constant 1 and of the identity
_ONE = (1.0, 0.0, 0.0, 0.0)


def _identity(x):
    return (x, 1.0, 0.0, 0.0)


def make_helix_line_r4(grid: Grid, k: float = 1.0, tau: float = 0.0, offset: float = 0.0) -> ImmersionJet:
    """Circular helix (curvature k, torsion tau) swept along the e4 line in R^4.

    The generating curve is arclength parametrized; the induced metric is
    the identity. Constant torsion keeps the jets in closed form while
    exercising a nonzero normal connection of H.
    """
    if k <= 0:
        raise SurfaceConfigError("helix curvature k must be positive")
    c2 = 1.0 / (k * k + tau * tau)
    a_r = k * c2
    b = tau * c2
    w = 1.0 / math.sqrt(c2)

    u = grid.u
    th = w * u
    cu, su = np.cos(th), np.sin(th)
    return _jet(grid, euclidean(4), [
        [((a_r * cu, -a_r * w * su, -a_r * w * w * cu, a_r * w**3 * su), _ONE)],
        [((a_r * su, a_r * w * cu, -a_r * w * w * su, -a_r * w**3 * cu), _ONE)],
        [((b * w * u, b * w, 0.0, 0.0), _ONE)],
        [(_ONE, _identity(grid.v + offset))],
    ])


def make_cylinder(grid: Grid, r: float = 1.0, stretch: float = 0.0) -> ImmersionJet:
    """Circular cylinder in R^3.

    With ``stretch`` = 0 the chart is arclength (flat induced metric).  A
    nonzero ``stretch`` in (-1, 1) reparametrizes the angular coordinate as
    theta = (u + stretch sin u) / r; the surface is unchanged, but node
    fields become chart-inhomogeneous, so finite-difference twins of this
    jet carry genuine truncation error instead of symmetric cancellation.
    """
    if r <= 0:
        raise SurfaceConfigError("cylinder radius must be positive")
    if not -1.0 < stretch < 1.0:
        raise SurfaceConfigError("stretch must lie in (-1, 1) to keep theta monotone")
    u = grid.u
    th = (u + stretch * np.sin(u / r) * r) / r
    tp = (1.0 + stretch * np.cos(u / r)) / r  # d theta / du
    tpp = -stretch * np.sin(u / r) / r**2
    tppp = -stretch * np.cos(u / r) / r**3
    cu, su = np.cos(th), np.sin(th)
    return _jet(grid, euclidean(3), [
        [((r * cu, -r * su * tp, -r * (cu * tp**2 + su * tpp),
           r * (su * tp**3 - 3.0 * cu * tp * tpp - su * tppp)), _ONE)],
        [((r * su, r * cu * tp, r * (-su * tp**2 + cu * tpp),
           r * (-cu * tp**3 - 3.0 * su * tp * tpp + cu * tppp)), _ONE)],
        [(_ONE, _identity(grid.v))],
    ])


def make_product_torus(grid: Grid, r1: float = 1.0, r2: float = 1.0) -> ImmersionJet:
    """S^1(r1) x S^1(r2) in R^4, arclength in both factors; doubly periodic."""
    if r1 <= 0 or r2 <= 0:
        raise SurfaceConfigError("torus radii must be positive")
    a, bta = grid.u / r1, grid.v / r2
    ca, sa = np.cos(a), np.sin(a)
    cb, sb = np.cos(bta), np.sin(bta)
    return _jet(grid, euclidean(4), [
        [((r1 * ca, -sa, -ca / r1, sa / r1**2), _ONE)],
        [((r1 * sa, ca, -sa / r1, -ca / r1**2), _ONE)],
        [(_ONE, (r2 * cb, -sb, -cb / r2, sb / r2**2))],
        [(_ONE, (r2 * sb, cb, -sb / r2, -cb / r2**2))],
    ])


def make_sphere(grid: Grid, r: float = 1.0, chart: str = "mercator") -> ImmersionJet:
    """Round sphere of radius r in R^3.

    ``mercator`` is the isothermal chart (u azimuth, periodic; v the
    Mercator latitude): X = r (sech v cos u, sech v sin u, tanh v).
    ``polar`` uses polar/azimuthal angles: X = r (sin u cos v, sin u sin v,
    cos u).
    """
    if r <= 0:
        raise SurfaceConfigError("sphere radius must be positive")
    u, v = grid.u, grid.v
    if chart == "mercator":
        cu, su = np.cos(u), np.sin(u)
        s, t = 1.0 / np.cosh(v), np.tanh(v)
        # r sech v and r tanh v with their v-derivatives
        sech = (r * s, r * (-s * t), r * (s * (t * t - s * s)),
                r * (-s * t**3 + 5.0 * s**3 * t))
        tanh = (r * t, r * (s * s), r * (-2.0 * s * s * t),
                r * (4.0 * s * s * t * t - 2.0 * s**4))
        return _jet(grid, euclidean(3), [
            [((cu, -su, -cu, su), sech)],
            [((su, cu, -su, -cu), sech)],
            [(_ONE, tanh)],
        ])
    if chart == "polar":
        # d^m/dx^m sin x for m = 0..4; d^m/dx^m cos x is d^(m+1)/dx^(m+1) sin x
        sin_u = (np.sin(u), np.cos(u), -np.sin(u), -np.cos(u), np.sin(u))
        sin_v = (np.sin(v), np.cos(v), -np.sin(v), -np.cos(v), np.sin(v))
        r_sin_u = tuple(r * f for f in sin_u[:4])
        return _jet(grid, euclidean(3), [
            [(r_sin_u, sin_v[1:])],
            [(r_sin_u, sin_v[:4])],
            [(tuple(r * f for f in sin_u[1:]), _ONE)],
        ])
    raise SurfaceConfigError(f"unknown sphere chart {chart!r}")


def make_graph(grid: Grid, expression: str = "u2_minus_v3") -> ImmersionJet:
    """Graph surface over a parameter patch; generic non-biconservative witness."""
    if expression != "u2_minus_v3":
        raise SurfaceConfigError(f"unknown graph expression {expression!r}")
    u, v = grid.u, grid.v
    return _jet(grid, euclidean(3), [
        [(_identity(u), _ONE)],
        [(_ONE, _identity(v))],
        [((u * u, 2.0 * u, 2.0, 0.0), _ONE), (_ONE, (-(v**3), -3.0 * v * v, -6.0 * v, -6.0))],
    ])


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
        r1 = _radius(params, "r1")
        r2 = _radius(params, "r2")
        return build_grid(
            (0.0, 2.0 * math.pi * r1),
            (0.0, 2.0 * math.pi * r2),
            n,
            n,
            periodic_u=True,
            periodic_v=True,
        )
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
                f"position table has {arr.shape[0]} rows, expected {grid.nu * grid.nv}"
            )
        arr = arr.reshape(grid.nu, grid.nv, -1)
    if arr.shape != grid.shape + (n,):
        raise SurfaceConfigError(
            f"position table shape {arr.shape} does not match grid {grid.shape} "
            f"with {n} ambient components"
        )
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
