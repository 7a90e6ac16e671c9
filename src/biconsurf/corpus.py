"""Built-in analytic surfaces with closed-form jets, plus tabulated input.

Every builtin returns an :class:`ImmersionJet` with exact derivatives up to
third order, so downstream identity checks run at round-off accuracy. The
registry also records closed-form expected values used as oracles by the
tests. Every identity is checked in the coordinates of the jet, so a
parametrization need not be isothermal: the polar sphere and the stretched
cylinder are not. Only the Hopf row of a report needs an isothermal chart
(arclength circles, Mercator sphere).
"""

from __future__ import annotations

import inspect
import math
import numbers

import numpy as np

from .ambient import Ambient, euclidean
from .grid import Grid, build_grid, node_array
from .immersion import ImmersionJet, induced_metric, jet_from_positions


class SurfaceConfigError(ValueError):
    """Malformed surface specification (unknown name, bad params, bad table)."""


def _empty(grid: Grid, n: int):
    return tuple(node_array(grid, (2,) * order + (n,)) for order in range(4))


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

    U, V = grid.mesh()
    th = w * U
    cu, su = np.cos(th), np.sin(th)
    pos, d1, d2, d3 = _empty(grid, 4)
    pos[..., 0] = a_r * cu
    pos[..., 1] = a_r * su
    pos[..., 2] = b * w * U
    pos[..., 3] = V + offset
    d1[..., 0, 0] = -a_r * w * su
    d1[..., 0, 1] = a_r * w * cu
    d1[..., 0, 2] = b * w
    d1[..., 1, 3] = 1.0
    d2[..., 0, 0, 0] = -a_r * w * w * cu
    d2[..., 0, 0, 1] = -a_r * w * w * su
    d3[..., 0, 0, 0, 0] = a_r * w**3 * su
    d3[..., 0, 0, 0, 1] = -a_r * w**3 * cu
    return ImmersionJet(grid, euclidean(4), pos, d1, d2, d3)


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
    U, V = grid.mesh()
    th = (U + stretch * np.sin(U / r) * r) / r
    tp = (1.0 + stretch * np.cos(U / r)) / r  # d theta / du
    tpp = -stretch * np.sin(U / r) / r**2
    tppp = -stretch * np.cos(U / r) / r**3
    cu, su = np.cos(th), np.sin(th)
    pos, d1, d2, d3 = _empty(grid, 3)
    pos[..., 0] = r * cu
    pos[..., 1] = r * su
    pos[..., 2] = V
    d1[..., 0, 0] = -r * su * tp
    d1[..., 0, 1] = r * cu * tp
    d1[..., 1, 2] = 1.0
    d2[..., 0, 0, 0] = -r * (cu * tp**2 + su * tpp)
    d2[..., 0, 0, 1] = r * (-su * tp**2 + cu * tpp)
    d3[..., 0, 0, 0, 0] = r * (su * tp**3 - 3.0 * cu * tp * tpp - su * tppp)
    d3[..., 0, 0, 0, 1] = r * (-cu * tp**3 - 3.0 * su * tp * tpp + cu * tppp)
    return ImmersionJet(grid, euclidean(3), pos, d1, d2, d3)


def make_product_torus(grid: Grid, r1: float = 1.0, r2: float = 1.0) -> ImmersionJet:
    """S^1(r1) x S^1(r2) in R^4, arclength in both factors; doubly periodic."""
    if r1 <= 0 or r2 <= 0:
        raise SurfaceConfigError("torus radii must be positive")
    U, V = grid.mesh()
    a, bta = U / r1, V / r2
    ca, sa = np.cos(a), np.sin(a)
    cb, sb = np.cos(bta), np.sin(bta)
    pos, d1, d2, d3 = _empty(grid, 4)
    pos[..., 0] = r1 * ca
    pos[..., 1] = r1 * sa
    pos[..., 2] = r2 * cb
    pos[..., 3] = r2 * sb
    d1[..., 0, 0] = -sa
    d1[..., 0, 1] = ca
    d1[..., 1, 2] = -sb
    d1[..., 1, 3] = cb
    d2[..., 0, 0, 0] = -ca / r1
    d2[..., 0, 0, 1] = -sa / r1
    d2[..., 1, 1, 2] = -cb / r2
    d2[..., 1, 1, 3] = -sb / r2
    d3[..., 0, 0, 0, 0] = sa / r1**2
    d3[..., 0, 0, 0, 1] = -ca / r1**2
    d3[..., 1, 1, 1, 2] = sb / r2**2
    d3[..., 1, 1, 1, 3] = -cb / r2**2
    return ImmersionJet(grid, euclidean(4), pos, d1, d2, d3)


def make_sphere(grid: Grid, r: float = 1.0, chart: str = "mercator") -> ImmersionJet:
    """Round sphere of radius r in R^3.

    ``mercator`` is the isothermal chart (u azimuth, periodic; v the
    Mercator latitude); ``polar`` uses polar/azimuthal angles.
    """
    if r <= 0:
        raise SurfaceConfigError("sphere radius must be positive")
    if chart == "mercator":
        return _sphere_mercator(grid, r)
    if chart == "polar":
        return _sphere_polar(grid, r)
    raise SurfaceConfigError(f"unknown sphere chart {chart!r}")


def _sphere_mercator(grid: Grid, r: float) -> ImmersionJet:
    U, V = grid.mesh()
    cu, su = np.cos(U), np.sin(U)
    s = 1.0 / np.cosh(V)
    t = np.tanh(V)
    s1 = -s * t
    s2 = s * (t * t - s * s)
    s3 = -s * t**3 + 5.0 * s**3 * t
    t1 = s * s
    t2 = -2.0 * s * s * t
    t3 = 4.0 * s * s * t * t - 2.0 * s**4

    pos, d1, d2, d3 = _empty(grid, 3)
    pos[..., 0] = r * s * cu
    pos[..., 1] = r * s * su
    pos[..., 2] = r * t
    d1[..., 0, 0] = -r * s * su
    d1[..., 0, 1] = r * s * cu
    d1[..., 1, 0] = r * s1 * cu
    d1[..., 1, 1] = r * s1 * su
    d1[..., 1, 2] = r * t1
    d2[..., 0, 0, 0] = -r * s * cu
    d2[..., 0, 0, 1] = -r * s * su
    d2[..., 0, 1, 0] = d2[..., 1, 0, 0] = -r * s1 * su
    d2[..., 0, 1, 1] = d2[..., 1, 0, 1] = r * s1 * cu
    d2[..., 1, 1, 0] = r * s2 * cu
    d2[..., 1, 1, 1] = r * s2 * su
    d2[..., 1, 1, 2] = r * t2
    # third derivatives, index order (i, j, k)
    d3[..., 0, 0, 0, 0] = r * s * su
    d3[..., 0, 0, 0, 1] = -r * s * cu
    for perm in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
        d3[..., perm[0], perm[1], perm[2], 0] = -r * s1 * cu
        d3[..., perm[0], perm[1], perm[2], 1] = -r * s1 * su
    for perm in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        d3[..., perm[0], perm[1], perm[2], 0] = -r * s2 * su
        d3[..., perm[0], perm[1], perm[2], 1] = r * s2 * cu
    d3[..., 1, 1, 1, 0] = r * s3 * cu
    d3[..., 1, 1, 1, 1] = r * s3 * su
    d3[..., 1, 1, 1, 2] = r * t3
    return ImmersionJet(grid, euclidean(3), pos, d1, d2, d3)


def _sphere_polar(grid: Grid, r: float) -> ImmersionJet:
    U, V = grid.mesh()
    # d^m/du^m of (sin u, cos u) cycles with period 4
    A = [np.sin(U), np.cos(U), -np.sin(U), -np.cos(U)]
    Bc = [np.cos(U), -np.sin(U), -np.cos(U), np.sin(U)]
    C = [np.cos(V), -np.sin(V), -np.cos(V), np.sin(V)]
    S = [np.sin(V), np.cos(V), -np.sin(V), -np.cos(V)]

    def comp(out, i, j):
        out[..., 0] = r * A[i] * C[j]
        out[..., 1] = r * A[i] * S[j]
        out[..., 2] = r * Bc[i] if j == 0 else 0.0

    pos, d1, d2, d3 = _empty(grid, 3)
    comp(pos, 0, 0)
    comp(d1[..., 0, :], 1, 0)
    comp(d1[..., 1, :], 0, 1)
    for i in range(2):
        for j in range(2):
            du = (i == 0) + (j == 0)
            comp(d2[..., i, j, :], du, 2 - du)
    for i in range(2):
        for j in range(2):
            for kk in range(2):
                du = (i == 0) + (j == 0) + (kk == 0)
                comp(d3[..., i, j, kk, :], du, 3 - du)
    return ImmersionJet(grid, euclidean(3), pos, d1, d2, d3)


def make_graph(grid: Grid, expression: str = "u2_minus_v3") -> ImmersionJet:
    """Graph surface over a parameter patch; generic non-biconservative witness."""
    if expression != "u2_minus_v3":
        raise SurfaceConfigError(f"unknown graph expression {expression!r}")
    U, V = grid.mesh()
    pos, d1, d2, d3 = _empty(grid, 3)
    pos[..., 0] = U
    pos[..., 1] = V
    pos[..., 2] = U * U - V**3
    d1[..., 0, 0] = 1.0
    d1[..., 0, 2] = 2.0 * U
    d1[..., 1, 1] = 1.0
    d1[..., 1, 2] = -3.0 * V * V
    d2[..., 0, 0, 2] = 2.0
    d2[..., 1, 1, 2] = -6.0 * V
    d3[..., 1, 1, 1, 2] = -6.0
    return ImmersionJet(grid, euclidean(3), pos, d1, d2, d3)


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
    if name == "helix_line_r4":
        k = params.get("k", 1.0)
        tau = params.get("tau", 0.0)
        return {
            "H_norm": k / 2.0,
            "lambdas": (k * k / 2.0, 0.0),
            "K": 0.0,
            "dperpH_norm": k * abs(tau) / 2.0,
            "biconservative": True,
            "pmc": tau == 0.0,
        }
    if name == "cylinder":
        r = params.get("r", 1.0)
        return {
            "H_norm": 1.0 / (2.0 * r),
            "lambdas": (1.0 / (2.0 * r * r), 0.0),
            "K": 0.0,
            "biconservative": True,
            "pmc": True,
        }
    if name == "sphere":
        r = params.get("r", 1.0)
        return {
            "H_norm": 1.0 / r,
            "lambdas": (1.0 / r**2, 1.0 / r**2),
            "K": 1.0 / r**2,
            "biconservative": True,
            "pmc": True,
            "pseudoumbilical": True,
        }
    if name == "product_torus":
        r1, r2 = params.get("r1", 1.0), params.get("r2", 1.0)
        hsq = (1.0 / r1**2 + 1.0 / r2**2) / 4.0
        return {
            "H_norm": math.sqrt(hsq),
            "lambdas": tuple(sorted(_torus_lambdas(r1, r2), reverse=True)),
            "K": 0.0,
            "biconservative": True,
            "pmc": True,
        }
    if name == "graph":
        return {"biconservative": False}
    raise SurfaceConfigError(f"unknown builtin surface {name!r}")


def _torus_lambdas(r1: float, r2: float):
    # A_H eigenvalues: A_H(d_a) = <B_aa, H> d_a in the arclength chart
    return (1.0 / (2.0 * r1**2), 1.0 / (2.0 * r2**2))


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
    row-major in u). Validates shape and the immersion condition."""
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
    jet = jet_from_positions(grid, arr, space)
    induced_metric(jet)  # raises DegenerateImmersionError on bad tables
    return jet
