"""Numerical toolkit for curvature identities of biconservative surfaces.

Subpackages by responsibility: :mod:`biconsurf.grid` (parameter grids and
flat stencils), :mod:`biconsurf.kernels` (difference stencil),
:mod:`biconsurf.ambient` (target spaces), :mod:`biconsurf.immersion`
(fundamental forms and derived geometry), :mod:`biconsurf.tensors`
(covariant calculus of a metric in the coordinates of the jet),
:mod:`biconsurf.checks` (identity residual suite and its norms),
:mod:`biconsurf.mu_solver` (gap-equation Newton solver),
:mod:`biconsurf.corpus` (built-in surfaces), :mod:`biconsurf.report` and
:mod:`biconsurf.cli` (report assembly and command line).
"""

from .ambient import Ambient, euclidean, sphere
from .grid import Grid, build_grid
from .immersion import ImmersionJet, SurfaceGeometry, compute_geometry
from .corpus import make_builtin, default_grid, tabulate
from .report import GeometryReport, build_geometry_report

__all__ = [
    "Ambient",
    "euclidean",
    "sphere",
    "Grid",
    "build_grid",
    "ImmersionJet",
    "SurfaceGeometry",
    "compute_geometry",
    "make_builtin",
    "default_grid",
    "tabulate",
    "GeometryReport",
    "build_geometry_report",
]

__version__ = "0.1.0"
