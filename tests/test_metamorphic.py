"""Metamorphic verdicts: a rigid motion or a homothety of a builtin jet must
leave every flag as it was (ROADMAP item 13, its rigid-motion and scale
parts). Cases that an open item still gets wrong are strict xfails that name
it, so its fix flips them."""

from dataclasses import replace

import numpy as np
import pytest

from biconsurf.corpus import make_builtin, tabulate
from biconsurf.report import build_geometry_report

N = 32

CASES = {
    "helix": ("helix_line_r4", {"tau": 0.5}),
    "cylinder": ("cylinder", {"stretch": 0.3}),
    "thin_cylinder": ("cylinder", {"r": 0.6, "stretch": 0.4}),
    "torus": ("product_torus", {"r2": 1.5}),
    "mercator_sphere": ("sphere", {"chart": "mercator"}),
    "polar_sphere": ("sphere", {"chart": "polar"}),
    "graph": ("graph", {}),
}


def _jet(case):
    name, params = CASES[case]
    return make_builtin(name, n=N, **params)


def _mapped(jet, linear, shift=0.0):
    """The jet of linear(X) + shift: every jet array maps by ``linear``."""
    arrays = {key: linear(getattr(jet, key)) for key in ("pos", "d1", "d2", "d3")
              if getattr(jet, key) is not None}
    arrays["pos"] = arrays["pos"] + shift
    return replace(jet, **arrays)


def _report(jet, case):
    return build_geometry_report(jet, CASES[case][0])


@pytest.mark.parametrize("fd", [False, True], ids=["analytic", "fd"])
@pytest.mark.parametrize("case", list(CASES))
def test_rigid_motion_keeps_flags(case, fd):
    # X -> QX + t with a seeded orthogonal Q of the ambient dimension
    jet = _jet(case)
    rng = np.random.default_rng(20261019)
    dim = jet.pos.shape[-1]
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    moved = _mapped(jet, lambda a: a @ Q.T, rng.standard_normal(dim))
    if fd:
        jet, moved = tabulate(jet), tabulate(moved)
    before, after = _report(jet, case), _report(moved, case)
    assert after.flags == before.flags
    if not fd:
        # analytic rows are invariant up to round-off
        for row, moved_row in zip(before.residuals, after.residuals):
            assert moved_row.name == row.name
            assert abs(moved_row.linf - row.linf) <= 1e-10 * max(1.0, abs(row.linf)), row.name


SCALE_OPEN = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 3(a): flags compare absolute residuals with fixed tolerances")


@pytest.mark.parametrize("case,s", [
    pytest.param("helix", 1e-3, marks=SCALE_OPEN),
    pytest.param("cylinder", 1e-3, marks=SCALE_OPEN),
    pytest.param("torus", 1e-3, marks=SCALE_OPEN),
    pytest.param("mercator_sphere", 1e-3, marks=SCALE_OPEN),
    pytest.param("polar_sphere", 1e-3, marks=SCALE_OPEN),
    ("graph", 1e-3),
    ("helix", 1e3),
    ("cylinder", 1e3),
    ("torus", 1e3),
    ("mercator_sphere", 1e3),
    ("polar_sphere", 1e3),
    pytest.param("graph", 1e3, marks=SCALE_OPEN),
])
def test_homothety_keeps_flags(case, s):
    # analytic jets only: the FD verdicts belong to ROADMAP item 3(c)
    jet = _jet(case)
    scaled = _mapped(jet, lambda a: s * a)
    assert _report(scaled, case).flags == _report(jet, case).flags
