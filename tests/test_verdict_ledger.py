"""Ledger of the known wrong verdicts. Each case is a builtin whose flags the
oracle fixes (``corpus.expected_values``' ``biconservative`` and ``pmc``, and
``is_cmc``, since |H| is constant on every builtin here) and that a report
gets wrong today; each is a strict xfail that names the ROADMAP item that
fixes it, so the fix flips it.

Three wrong verdicts are already strict xfails elsewhere and are not copied
here: the sheared-chart cylinder (``test_corpus.py``, item 1), and ``graph``
x1e3 and the other homothety cases (``test_metamorphic.py``, item 3(a)).
"""

import math

import pytest

from biconsurf.corpus import build_builtin, expected_values, make_builtin, tabulate
from biconsurf.grid import build_grid
from biconsurf.report import build_geometry_report


def _polar_sphere_near_poles():
    grid = build_grid((1e-9, math.pi - 1e-9), (0.0, 2.0 * math.pi), 64, 64, periodic_v=True)
    return build_builtin("sphere", grid, {"chart": "polar"})


FD_FLOOR = "ROADMAP item 3(c): a fixed tol_fd reads the O(h^2) truncation error as a defect"

# name, params, the jet, why it is wrong (its open item); the flags each reads
# today are in the comment, with the stress-divergence L-inf
LEDGER = {
    # is_cmc true, is_biconservative false (1.28e-2)
    "fd_mercator_sphere": ("sphere", {}, lambda: tabulate(make_builtin("sphere", n=64)),
                           FD_FLOOR),
    # all four flags false (3.13e-2)
    "fd_thin_cylinder": ("cylinder", {"r": 0.6, "stretch": 0.4},
                         lambda: tabulate(make_builtin("cylinder", n=64, r=0.6, stretch=0.4)),
                         FD_FLOOR),
    # all four flags false (5.36e-4)
    "polar_sphere_near_poles": ("sphere", {"chart": "polar"}, _polar_sphere_near_poles,
                                "ROADMAP item 3(b): cond g = 1/sin^2(1e-9) at the poles"),
    # is_pmc true, is_cmc and is_biconservative false (1.84e-7)
    "small_sphere": ("sphere", {"r": 0.01}, lambda: make_builtin("sphere", n=64, r=0.01),
                     "ROADMAP item 3(a): flags compare absolute residuals with fixed "
                     "tolerances"),
}


@pytest.mark.parametrize("case", [
    pytest.param(case, marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                               reason=reason))
    for case, (*_, reason) in LEDGER.items()
])
def test_flags_match_the_oracle(case):
    name, params, jet, _ = LEDGER[case]
    expect = expected_values(name, params)
    flags = build_geometry_report(jet(), name).flags
    assert (flags["is_cmc"], flags["is_biconservative"], flags["is_pmc"]) == (
        True, expect["biconservative"], expect["pmc"])
