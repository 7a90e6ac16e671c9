import binascii
import functools
import json
import sys
import threading
import time

import numpy as np
import pytest

from biconsurf import report as rp
from biconsurf.ambient import sphere
from biconsurf.corpus import load_tabulated, make_builtin, tabulate
from biconsurf.immersion import DegenerateImmersionError, ImmersionJet
from biconsurf.mu_solver import MuProblem, constant_root, mu_residual, solve_mu
from biconsurf.grid import build_grid
from lemmas import interior_mask


@pytest.fixture(scope="module")
def helix_report():
    jet = make_builtin("helix_line_r4", n=24, k=1.0, tau=0.5)
    return rp.build_geometry_report(jet, "helix_line_r4")


class TestResidualEntry:
    def test_validation(self):
        rp.ResidualEntry("x", "simons", 0.0, 0.0)
        with pytest.raises(ValueError):
            rp.ResidualEntry("x", "not-a-known-reference", 0.0, 0.0)
        with pytest.raises(ValueError):
            rp.ResidualEntry("x", "simons", -1.0, 0.0)

    def test_add_derives_reference_key(self):
        r = rp.GeometryReport({})
        r.add("normal_derivative_H", 1.0, 2.0)
        assert r.residuals[0].paper_ref == "normal-derivative-H"
        with pytest.raises(ValueError):
            r.add("not_a_residual", 0.0, 0.0)

    def test_reference_index_covers_emitted_names(self, helix_report):
        for entry in helix_report.residuals:
            assert entry.paper_ref in rp.REFERENCE_INDEX


class TestGeometryReport:
    def test_flags_on_flagship_surface(self, helix_report):
        flags = helix_report.flags
        assert flags["is_biconservative"]
        assert flags["is_cmc"]
        assert flags["ah_parallel"]
        assert not flags["is_pmc"]  # nonzero torsion twists the normal bundle

    def test_summaries(self, helix_report):
        s = helix_report.summaries
        assert s["H_max"] == pytest.approx(0.5, abs=1e-12)
        assert s["lambda1_max"] == pytest.approx(0.5, abs=1e-12)
        assert s["lambda2_max"] == pytest.approx(0.0, abs=1e-10)
        assert s["pseudoumbilical_fraction"] == 0.0

    def test_residual_lookup(self, helix_report):
        e = helix_report.residual("stress_divergence")
        assert e.linf < 1e-10
        with pytest.raises(KeyError):
            helix_report.residual("nope")

    def test_integral_formulas_skipped_on_open_grid(self, helix_report):
        names = {e.name for e in helix_report.residuals}
        assert "integral_stress" not in names
        assert "skip" in helix_report.meta["integral_formulas"]

    def test_integral_formulas_present_on_torus(self):
        jet = make_builtin("product_torus", n=24, r1=1.0, r2=2.0)
        r = rp.build_geometry_report(jet, "product_torus")
        names = {e.name for e in r.residuals}
        assert {"integral_stress", "integral_shape_operator"} <= names

    def test_fd_report_uses_boundary_margin(self):
        jet = tabulate(make_builtin("sphere", n=32, r=1.0))
        r = rp.build_geometry_report(jet, "sphere", tol_fd=0.1)
        assert r.meta["boundary_margin"] == 3
        assert r.flags["is_biconservative"]  # under the wider fd tolerance


class TestWorkCounts:
    """On each u-strip of a report, each covariant derivative, each
    |nabla T|^2, |S2|^2, |A_H|^2, the positivity quantity and the
    biconservativity suite run once: nabla S2 and nabla A_H, both with the
    surface Christoffels of the jet, whether or not the metric is
    isothermal. The Simons residual, the integral formulas, the Hopf row and
    the nabla_shape_operator row reuse them. Every row is normed once, on the
    whole grid, and the Simons gate reads the report's stress-divergence
    norm, with no second norm; the package has no conformal chart for a
    report to build. Run at one strip and at eight."""

    @pytest.mark.parametrize(
        "name,params,fd,isothermal,expect",
        [
            ("helix_line_r4", {"k": 1.0, "tau": 0.5}, False, True, 2),
            ("product_torus", {"r1": 1.0, "r2": 2.0}, False, True, 2),
            ("cylinder", {"r": 1.0, "stretch": 0.3}, True, False, 2),
        ],
    )
    def test_one_evaluation_per_identity(self, monkeypatch, name, params, fd, isothermal,
                                         expect):
        from biconsurf import checks, immersion, tensors

        calls, lock = {}, threading.Lock()  # strips run on two threads

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                with lock:
                    calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        vec_norm_sq = immersion.SurfaceGeometry.vec_norm_sq

        def counted_vec_norm_sq(geom, V):
            # the stress divergence, found by identity with its cached field
            if V is vars(geom).get("biconservativity", {}).get("cond1"):
                with lock:
                    calls["cond1_norm"] += 1
            return vec_norm_sq(geom, V)

        monkeypatch.setattr(immersion.SurfaceGeometry, "vec_norm_sq", counted_vec_norm_sq)
        # each row is reduced once per strip, on the strip's own rows, and
        # combined once, on the whole grid
        monkeypatch.setattr(checks, "row_norms", counted("row_norms", checks.row_norms))
        combined, combined_grids = checks.combined_norms, []

        def combined_norms(grid, *args):
            combined_grids.append(grid)
            return combined(grid, *args)

        monkeypatch.setattr(checks, "combined_norms", combined_norms)
        monkeypatch.setattr(checks, "vector_norms", counted("vector_norms", checks.vector_norms))
        monkeypatch.setattr(rp, "compute_geometry", counted("strips", rp.compute_geometry))
        cov = counted("cov", tensors.cov_derivative_coords)
        monkeypatch.setattr(tensors, "cov_derivative_coords", cov)
        monkeypatch.setattr(immersion, "cov_derivative_coords", cov)
        monkeypatch.setattr(checks, "biconservativity_residuals",
                            counted("bicons", checks.biconservativity_residuals))
        monkeypatch.setattr(checks, "positivity_quantity",
                            counted("positivity", checks.positivity_quantity))
        monkeypatch.setattr(immersion.SurfaceGeometry, "nabla_norm_sq",
                            counted("nabla_norm", immersion.SurfaceGeometry.nabla_norm_sq))
        # |S2|^2 is the package's only tensor_inner; |A_H|^2 is counted where
        # it is cached
        monkeypatch.setattr(immersion.SurfaceGeometry, "tensor_inner", staticmethod(
            counted("S2_norm_sq", immersion.SurfaceGeometry.tensor_inner)))
        ah_norm_sq = functools.cached_property(counted(
            "AH_norm_sq", vars(immersion.SurfaceGeometry)["AH_norm_sq"].func))
        ah_norm_sq.__set_name__(immersion.SurfaceGeometry, "AH_norm_sq")
        monkeypatch.setattr(immersion.SurfaceGeometry, "AH_norm_sq", ah_norm_sq)
        jet = make_builtin(name, n=32, **params)
        E, F, G = (np.einsum("...i,...i->...", jet.d1[..., a, :], jet.d1[..., b, :])
                   for a, b in ((0, 0), (0, 1), (1, 1)))
        assert (np.allclose(E, G, rtol=1e-12) and np.allclose(F, 0.0, atol=1e-12)) is isothermal
        source = tabulate(jet) if fd else jet
        for strips, rows in ((1, 32), (8, 4)):
            monkeypatch.setattr(rp, "STRIP_NODES", rows * 32)
            calls.update(dict.fromkeys(
                ("strips", "cov", "bicons", "cond1_norm", "nabla_norm", "positivity",
                 "S2_norm_sq", "AH_norm_sq", "vector_norms", "row_norms"), 0))
            combined_grids.clear()
            r = rp.build_geometry_report(source, name)
            assert "isothermal_chart" not in r.meta
            assert calls.pop("nabla_norm") <= 2 * strips
            assert calls == {"strips": strips, "cov": expect * strips, "bicons": strips,
                             "cond1_norm": strips, "positivity": strips,
                             "S2_norm_sq": strips, "AH_norm_sq": strips, "vector_norms": 0,
                             "row_norms": strips * len(rp.ROWS)}
            assert combined_grids == [source.grid] * len(rp.ROWS)
            names = {e.name for e in r.residuals}
            assert {"stress_norm", "simons", "hopf_holomorphicity"} <= names
            assert r.flags["simons_assumes_biconservative_violated"] == (
                r.residual("stress_divergence").linf > r.meta["tolerance"])


def _torus_in_s3(n, r1=0.6, r2=0.8):
    """S^1(r1) x S^1(r2) in S^3(1), tabulated: doubly periodic, in a sphere."""
    grid = build_grid((0.0, 2.0 * np.pi * r1), (0.0, 2.0 * np.pi * r2), n, n, True, True)
    U, V = grid.mesh()
    pos = np.stack([r1 * np.cos(U / r1), r1 * np.sin(U / r1),
                    r2 * np.cos(V / r2), r2 * np.sin(V / r2)], axis=-1)
    return load_tabulated(grid, pos, sphere(3, 1.0))


STRIP_CASES = {
    # open u
    "helix": ("helix_line_r4", {"tau": 0.5}),
    "sphere_polar": ("sphere", {"chart": "polar"}),
    "graph": ("graph", {}),
    # periodic u
    "cylinder": ("cylinder", {"stretch": 0.3}),
    "sphere_mercator": ("sphere", {}),
    "torus": ("product_torus", {}),
}


class TestStrips:
    """A report taken strip by strip is byte for byte the report of one
    strip, dumped fields included: at the smallest strip the halo allows, and
    at 4 rows on 25, where strips of a fixed size would leave one row at the
    open edge."""

    @staticmethod
    def _json(jet, monkeypatch, rows, threads=rp.STRIP_THREADS):
        monkeypatch.setattr(rp, "STRIP_NODES", rows * jet.grid.nv)
        monkeypatch.setattr(rp, "STRIP_THREADS", threads)
        return rp.report_to_json(rp.build_geometry_report(jet, "strips", dump_fields=True))

    def _same_bytes_as_one_strip(self, jet, monkeypatch):
        one = self._json(jet, monkeypatch, 25)
        for rows in (rp.HALO, 4):
            for threads in (1, 2):
                assert self._json(jet, monkeypatch, rows, threads) == one, (rows, threads)

    @pytest.mark.parametrize("fd", [False, True], ids=["analytic", "fd"])
    @pytest.mark.parametrize("case", sorted(STRIP_CASES))
    def test_strips_give_the_one_strip_bytes(self, monkeypatch, case, fd):
        name, params = STRIP_CASES[case]
        jet = make_builtin(name, n=25, **params)
        self._same_bytes_as_one_strip(tabulate(jet) if fd else jet, monkeypatch)

    def test_sphere_ambient(self, monkeypatch):
        self._same_bytes_as_one_strip(_torus_in_s3(25), monkeypatch)

    def test_strip_counts(self, monkeypatch):
        # two strips of 12 rows are fewer than MIN_STRIPS: one strip; on a
        # periodic u axis the cuts are moved up by HALO
        assert rp.MIN_STRIPS == 6
        for name, shift in (("graph", 0), ("cylinder", rp.HALO)):
            grid = make_builtin(name, n=25).grid
            for rows, owned in ((25, [25]), (12, [25]), (4, [4, 4, 4, 4, 4, 5]),
                                (rp.HALO, [2] * 11 + [3])):
                monkeypatch.setattr(rp, "STRIP_NODES", rows * 25)
                cuts = rp._cuts(grid)
                assert np.diff(cuts).tolist() == owned, (name, rows)
                assert cuts[0] == (shift if len(owned) > 1 else 0), (name, rows)

    @pytest.mark.parametrize("nodes", [[(17, 5)], [(17, 5), (3, 20)], [(24, 0)], [(9, 11)]],
                             ids=["halo_row", "two_nodes", "last_strip_edge", "second_strip"])
    def test_degenerate_node_named_as_with_one_strip(self, monkeypatch, nodes):
        # d_v X = d_u X at each node: det g = 0 there. Row 17 is a halo row of
        # the 4-row strip [12, 16) and the 2-row strip [14, 16).
        jet = make_builtin("helix_line_r4", n=25, tau=0.5)
        d1 = jet.d1.copy()
        for i, j in nodes:
            d1[i, j, 1, :] = d1[i, j, 0, :]
        bad = ImmersionJet(jet.grid, jet.space, jet.pos, d1, jet.d2, jet.d3, jet.source)
        messages = set()
        for rows in (25, 4, rp.HALO):
            monkeypatch.setattr(rp, "STRIP_NODES", rows * 25)
            with pytest.raises(DegenerateImmersionError) as err:
                rp.build_geometry_report(bad)
            messages.add(str(err.value))
        assert messages == {"immersion degenerate at node (%d, %d)" % min(nodes)}

    @staticmethod
    def _errors(jet, monkeypatch):
        """The (type, message) of the error that a report of ``jet`` raises,
        at one strip, at 4 rows and at HALO rows a strip."""
        errors = set()
        for rows in (25, 4, rp.HALO):
            monkeypatch.setattr(rp, "STRIP_NODES", rows * 25)
            with pytest.raises(FloatingPointError) as err:
                rp.build_geometry_report(jet)
            errors.add((type(err.value), str(err.value)))
        return errors

    @pytest.mark.parametrize("nodes", [[(0, 7)], [(1, 3)], [(1, 20), (0, 24)], [(1, 3), (13, 0)]])
    def test_degenerate_node_in_the_first_halo_named_as_with_one_strip(self, monkeypatch,
                                                                         nodes):
        # on a periodic u axis rows 0 and 1 are the first strip's lower halo,
        # and the last strip's wrapped upper halo
        jet = make_builtin("cylinder", n=25, stretch=0.3)
        d1 = jet.d1.copy()
        for i, j in nodes:
            d1[i, j, 1, :] = d1[i, j, 0, :]
        bad = ImmersionJet(jet.grid, jet.space, jet.pos, d1, jet.d2, jet.d3, jet.source)
        assert self._errors(bad, monkeypatch) == {
            (DegenerateImmersionError, "immersion degenerate at node (%d, %d)" % min(nodes))}

    @pytest.mark.parametrize("value", [1e308, 1e200])
    @pytest.mark.parametrize("name,node", [
        ("graph", (17, 9)),     # a halo row of the 4-row strip [12, 16)
        ("graph", (7, 0)),      # the second strip's own row, at an open v edge
        ("graph", (2, 12)),     # differenced one-sided at the open u edge
        ("cylinder", (0, 9)),   # the first strip's lower halo, on a periodic u axis
        ("cylinder", (24, 3)),  # the last strip's own row
    ])
    def test_spiked_position_named_as_with_one_strip(self, monkeypatch, name, node, value):
        # 1e308 overflows the derivatives, 1e200 the metric
        base = make_builtin(name, n=25)
        pos = base.pos.copy()
        pos[node + (2,)] = value
        errors = self._errors(load_tabulated(base.grid, pos, base.space), monkeypatch)
        assert len(errors) == 1, errors
        what = ("finite-difference derivative" if value > 1e300 else "metric") + " not finite"
        assert next(iter(errors))[1].startswith(what), errors

    @pytest.mark.parametrize("fd", [False, True], ids=["analytic", "fd"])
    def test_first_bad_node_named_whatever_its_fault(self, monkeypatch, fd):
        # the earlier node of two with different faults, in different strips,
        # is named however the grid is cut: analytic, a degenerate node before
        # an overflowing metric; FD, an overflowing metric (the rows on each
        # side of a 1e200 position) before an overflowing derivative
        if fd:
            base = make_builtin("graph", n=25)
            pos = base.pos.copy()
            pos[6, 5, 2], pos[20, 4, 2] = 1e200, 1e308
            jet = load_tabulated(base.grid, pos, base.space)
            want = (FloatingPointError, "metric not finite at node (5, 5)")
        else:
            base = make_builtin("helix_line_r4", n=25, k=1.1, tau=0.5)
            d1 = base.d1.copy()
            d1[5, 3, 1, :] = d1[5, 3, 0, :]
            d1[20, 4, 0, :] = 1e200
            jet = ImmersionJet(base.grid, base.space, base.pos, d1, base.d2, base.d3)
            want = (DegenerateImmersionError, "immersion degenerate at node (5, 3)")
        monkeypatch.setattr(rp, "STRIP_NODES", 4 * 25)
        assert len(rp._cuts(jet.grid)) - 1 >= rp.MIN_STRIPS
        assert self._errors(jet, monkeypatch) == {want}

    def test_overflow_named_as_with_one_strip(self, monkeypatch):
        # r = 1e-60: |H|^2 = 1e120 and the stress divergence overflows. Every
        # strip thread takes floating-point errors by value, so no overflow
        # warning escapes a strip (an error under this suite's filters).
        jet = make_builtin("sphere", n=25, r=1e-60)
        assert self._errors(jet, monkeypatch) == {
            (FloatingPointError, "residual stress_divergence not finite")}

    @pytest.mark.parametrize("threads", [1, 2])
    def test_lowest_failing_strip_raised_after_every_strip_stops(self, monkeypatch, threads):
        # strip 0 fails late, strip 1 at once: the report raises strip 0's
        # error, as strips run in turn do, and has joined its helper thread
        jet = make_builtin("graph", n=25)
        monkeypatch.setattr(rp, "STRIP_NODES", 4 * 25)
        monkeypatch.setattr(rp, "STRIP_THREADS", threads)
        compute_geometry, calls = rp.compute_geometry, []

        def spy(strip):
            calls.append(strip.grid.first_row)
            if strip.grid.first_row == 0:
                time.sleep(0.05)
                raise FloatingPointError("strip 0")
            if strip.grid.first_row == 4 - rp.HALO:
                raise FloatingPointError("strip 1")
            return compute_geometry(strip)

        monkeypatch.setattr(rp, "compute_geometry", spy)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="^strip 0$"):
            rp.build_geometry_report(jet)
        assert threading.active_count() == before
        # no strip is started after a failure
        if threads == 1:
            assert calls == [0]
        else:
            assert 0 in calls and set(calls) <= {0, 4 - rp.HALO}

    @pytest.mark.parametrize("node", [(24, 0), (13, 7)])
    def test_no_strip_outlives_a_failed_report(self, monkeypatch, node):
        jet = make_builtin("helix_line_r4", n=25, tau=0.5)
        d1 = jet.d1.copy()
        d1[node + (1,)] = d1[node + (0,)]
        bad = ImmersionJet(jet.grid, jet.space, jet.pos, d1, jet.d2, jet.d3, jet.source)
        monkeypatch.setattr(rp, "STRIP_NODES", 4 * 25)
        before = threading.active_count()
        with pytest.raises(DegenerateImmersionError, match=r"node \(%d, %d\)$" % node):
            rp.build_geometry_report(bad)
        assert threading.active_count() == before

    def test_strips_shared_by_more_threads_than_cores(self, monkeypatch):
        # a strip taken twice or never leaves per-row parts unwritten:
        # four threads on HALO-row strips, switching as often as they can
        jet = make_builtin("cylinder", n=25, stretch=0.3)
        one = self._json(jet, monkeypatch, 25)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert self._json(jet, monkeypatch, rp.HALO, threads=4) == one
        finally:
            sys.setswitchinterval(interval)

    def test_dumped_fields_do_not_hold_the_block(self, monkeypatch):
        # a dumped field is a whole-grid array of its own, not a view that
        # keeps a strip's geometry (or any block of fields) alive
        monkeypatch.setattr(rp, "STRIP_NODES", 4 * 25)
        rep = rp.build_geometry_report(tabulate(make_builtin("graph", n=25)), dump_fields=True)
        assert all(f.base is None for f in rep.fields.values())

    @pytest.mark.parametrize("name,params", [("graph", {}), ("cylinder", {"stretch": 0.3})])
    def test_fd_strips_difference_their_own_rows(self, monkeypatch, name, params):
        # no stencil of a strip report runs on more than a strip, its halo
        # and one more row on each side, and no metric on the whole grid
        from biconsurf import immersion, kernels

        jet = tabulate(make_builtin(name, n=25, **params))
        monkeypatch.setattr(rp, "STRIP_NODES", 4 * 25)
        rows = np.diff(rp._cuts(jet.grid))
        assert len(rows) >= rp.MIN_STRIPS
        spans, metric_rows = [], []
        derivative, metric = kernels.derivative, immersion.induced_metric

        def spy_derivative(f, h, axis, order, periodic):
            spans.append(np.shape(f)[0])
            return derivative(f, h, axis, order, periodic)

        def spy_metric(strip):
            metric_rows.append(strip.grid.nu)
            return metric(strip)

        monkeypatch.setattr(kernels, "derivative", spy_derivative)
        monkeypatch.setattr(immersion, "induced_metric", spy_metric)
        rp.build_geometry_report(jet)
        assert max(spans) <= rows.max() + 2 * (rp.HALO + 1)
        assert len(metric_rows) == len(rows) and max(metric_rows) < jet.grid.nu


def _old_norms(field, geom, squared):
    """(L2, Linf, the quadrature) of a whole-grid field, each by one sum
    over the grid, the boundary band zeroed by the node mask: the reference
    that the per-row reduction agrees with to round-off."""
    grid = geom.grid
    wu, wv = np.ones(grid.nu), np.ones(grid.nv)
    if not grid.periodic_u:
        wu[0] = wu[-1] = 0.5
    if not grid.periodic_v:
        wv[0] = wv[-1] = 0.5

    def integrate(f):
        return grid.hu * grid.hv * np.einsum("i,j,ij->", wu, wv, f)

    f = np.maximum(field, 0.0) if squared else np.abs(field)
    f[~interior_mask(geom.grid, geom.boundary_margin)] = 0.0
    linf = np.sqrt(np.max(f)) if squared else np.max(f)
    sq = (f if squared else f * f) * geom.area_element
    area = integrate(np.where(interior_mask(geom.grid, geom.boundary_margin),
                              geom.area_element, 0.0))
    return np.sqrt(integrate(sq) / area), linf, integrate


class TestRowReduction:
    """Strips reduce their rows of every field to per-row parts, which are
    combined once: the norms agree with one sum over the whole grid to
    round-off, and no whole-grid field is kept."""

    @pytest.mark.parametrize("name,fd", [("graph", True), ("product_torus", False)],
                             ids=["fd_graph", "torus"])
    def test_norms_match_the_whole_grid_formula(self, monkeypatch, name, fd):
        from biconsurf import checks
        from biconsurf.immersion import compute_geometry

        jet = make_builtin(name, n=25)
        jet = tabulate(jet) if fd else jet
        monkeypatch.setattr(rp, "STRIP_NODES", 4 * 25)
        assert len(rp._cuts(jet.grid)) - 1 >= rp.MIN_STRIPS
        rep = rp.build_geometry_report(jet)
        geom = compute_geometry(jet)
        assert geom.boundary_margin == (3 if fd else 0)
        for row, squared, _, fn in rp.ROWS:
            l2, linf, _ = _old_norms(fn(geom), geom, squared)
            got = rep.residual(row)
            assert got.linf == linf, row
            assert abs(got.l2 - l2) <= 1e-13 * l2, row
        if jet.grid.doubly_periodic:
            integrate = _old_norms(geom.Hsq, geom, False)[2]
            integrands = checks.integral_integrands(geom)
            for row, t in (("integral_shape_operator", "AH"), ("integral_stress", "S2")):
                lhs, rhs = (integrate(integrands[f"{side}_{t}"]) for side in ("lhs", "rhs"))
                got = rep.residual(row).l2
                assert abs(got - abs(lhs - rhs)) <= 1e-13 * (abs(lhs) + abs(rhs)), row

    @pytest.mark.parametrize("fd", [False, True], ids=["analytic", "fd"])
    def test_long_rows_give_the_one_strip_bytes(self, monkeypatch, fd):
        # rows of 300 nodes, past numpy's 128-element pairwise-sum block:
        # a row's sums are the same whatever other rows a strip holds
        import dataclasses

        from biconsurf.corpus import build_builtin, default_grid

        grid = dataclasses.replace(default_grid("cylinder", 300, {}), nu=16)
        jet = build_builtin("cylinder", grid, {"stretch": 0.3}, fd=fd)
        texts = set()
        for rows, threads in ((16, 1), (2, 1), (2, 2)):
            monkeypatch.setattr(rp, "STRIP_NODES", rows * grid.nv)
            monkeypatch.setattr(rp, "STRIP_THREADS", threads)
            texts.add(rp.report_to_json(rp.build_geometry_report(jet, dump_fields=True)))
        assert len(texts) == 1

    @pytest.mark.parametrize("name,fd", [("helix_line_r4", False), ("cylinder", True)],
                             ids=["analytic_open_u", "fd_periodic_u"])
    def test_peak_memory_does_not_grow_with_nu(self, monkeypatch, name, fd):
        # at fixed nv and strip size the strips in flight are the same, so
        # doubling nu adds only the per-row parts (a few dozen (nu,)
        # vectors), not a whole-grid field per row and summary
        import dataclasses
        import tracemalloc

        from biconsurf.corpus import build_builtin, default_grid

        nv = 64
        monkeypatch.setattr(rp, "STRIP_NODES", 4 * nv)
        monkeypatch.setattr(rp, "STRIP_THREADS", 1)  # one strip at a time: a repeatable peak
        peaks = []
        for nu in (64, 128):
            grid = dataclasses.replace(default_grid(name, nv, {}), nu=nu)
            jet = build_builtin(name, grid, {}, fd=fd)
            rp.build_geometry_report(jet)
            tracemalloc.start()
            try:
                rp.build_geometry_report(jet)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # one whole-grid node field of the smaller grid is 32 KiB
        assert peaks[1] - peaks[0] < 64 * 8 * nv, peaks


class TestSerialization:
    def test_json_deterministic(self, helix_report):
        a = rp.report_to_json(helix_report)
        b = rp.report_to_json(helix_report)
        assert a == b

    def test_json_round_trip(self, helix_report):
        doc = json.loads(rp.report_to_json(helix_report))
        assert doc["meta"]["surface"] == "helix_line_r4"
        assert set(doc) == {"meta", "residuals", "summaries", "flags"}
        by_name = {e["name"]: e for e in doc["residuals"]}
        for entry in helix_report.residuals:
            got = by_name[entry.name]
            assert got["l2"] == pytest.approx(entry.l2, abs=0.0)
            assert got["linf"] == pytest.approx(entry.linf, abs=0.0)

    def test_csv_shape(self, helix_report):
        lines = rp.report_to_csv(helix_report).strip().splitlines()
        assert lines[0] == rp.CSV_HEADER
        assert len(lines) == len(helix_report.residuals) + 1

    def test_empty_report_serializes(self):
        r = rp.GeometryReport(meta={"surface": "none"}, residuals=[], summaries={}, flags={})
        assert json.loads(rp.report_to_json(r))["residuals"] == []
        assert rp.report_to_csv(r).strip() == rp.CSV_HEADER

    def test_dump_fields(self):
        """All five dumped fields decode bit for bit, analytic and tabulated."""
        jet = make_builtin("cylinder", n=16, r=1.2, stretch=0.3)
        for source in (jet, tabulate(jet)):
            r = rp.build_geometry_report(source, "cylinder", dump_fields=True)
            doc = json.loads(rp.report_to_json(r))
            assert list(doc["fields"]) == ["Hsq", "K", "lambda1", "lambda2", "mu"]
            for key, want in r.fields.items():
                assert doc["fields"][key]["dtype"] == "<f8"
                assert _same_bits(_decode(doc["fields"][key]), want), (source.source, key)

    def test_special_floats_quoted(self):
        r = rp.GeometryReport(meta={"x": float("nan")}, residuals=[], summaries={}, flags={})
        doc = json.loads(rp.report_to_json(r))
        assert doc["meta"]["x"] == "nan"


def _decode(d):
    """A dumped field back from its report entry."""
    return np.frombuffer(binascii.a2b_base64(d["base64"]), d["dtype"]).reshape(d["shape"])


def _same_bits(got, want):
    want = np.ascontiguousarray(want, dtype=np.float64)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


EDGE_FIELDS = {
    "signed_zero_and_extremes": np.array([[-0.0, 5e-324, 1e300], [-1e300, -5e-324, 0.0]]),
    "integer_valued": np.array([[1.0, -2.0, 3e16], [2.0**53, 1e21, 100.0]]),
    "non_finite_rows": np.array([[1.5, np.nan, 2.5], [np.inf, -np.inf, 0.1], [0.1, 0.2, 0.3]]),
    "one_d": np.linspace(-1.0, 1.0, 7),
    "three_d": np.arange(24.0).reshape(2, 3, 4) / 7.0,
    "int32": np.arange(-3, 3, dtype=np.int32).reshape(2, 3),
    "bool": np.array([[True, False], [False, True]]),
    "empty": np.zeros((0,)),
    "empty_rows": np.zeros((2, 0)),
    "signed_zeros_repeated": np.where(np.indices((6, 8)).sum(axis=0) % 2, -0.0, 0.0),
    "constant_along_axis": np.tile(np.linspace(-1.0, 1.0, 5) / 3.0, (6, 1)),
    "transposed": np.tile(np.linspace(-1.0, 1.0, 5) / 3.0, (6, 1)).T,
    "column_stride": np.tile(np.arange(8.0) / 3.0, (4, 2))[:, ::2],
    # grid.node_array's layout: a C-ordered (comps, nu, nv) buffer seen as (nu, nv, comps)
    "node_array_order": np.moveaxis(np.stack([
        np.full((4, 5), -0.0),
        np.tile(np.arange(5.0) / 3.0, (4, 1)),
        np.tile(np.arange(4.0)[:, None] / 7.0, (1, 5)),
    ]), 0, -1),
    "no_repeats": np.arange(48.0).reshape(6, 8) / 7.0 - 3.0,
}


class TestFieldSerialization:
    """A dumped field is written as its float64 bytes in C order and decodes
    bit for bit, whatever its dtype, shape or memory layout; dumping fields
    changes no byte of the report before them."""

    def test_report_fields_match_reference(self):
        r = rp.GeometryReport(meta={"surface": "edge"}, fields=dict(EDGE_FIELDS))
        doc = json.loads(rp.report_to_json(r))
        assert list(doc["fields"]) == list(EDGE_FIELDS)
        for key, want in EDGE_FIELDS.items():
            assert _same_bits(_decode(doc["fields"][key]), want), key

    @pytest.mark.parametrize("key", sorted(EDGE_FIELDS))
    def test_each_array_matches_reference(self, key):
        arr = EDGE_FIELDS[key]
        text = rp.report_to_json(rp.GeometryReport(meta={}, fields={key: arr}))
        entry = json.loads(text)["fields"][key]
        assert entry["dtype"] == "<f8" and entry["shape"] == list(arr.shape)
        assert _same_bits(_decode(entry), arr)
        # the blob is one JSON string on one line
        assert f'"base64": "{entry["base64"]}"\n' in text

    def test_dumped_geometry_fields_match_reference(self):
        jet = tabulate(make_builtin("cylinder", n=16, r=1.2, stretch=0.3))
        plain = rp.report_to_json(rp.build_geometry_report(jet, "cylinder"))
        r = rp.build_geometry_report(jet, "cylinder", dump_fields=True)
        text = rp.report_to_json(r)
        assert plain.endswith("\n}\n")
        assert text.startswith(plain[:-3] + ',\n  "fields": {\n    "Hsq": {\n')
        fields = json.loads(text)["fields"]
        for key, want in r.fields.items():
            assert _same_bits(_decode(fields[key]), want), key

    def test_solve_mu_dump_round_trips(self):
        from click.testing import CliRunner

        from biconsurf.cli import main

        res = CliRunner().invoke(main, ["solve-mu", "--H", "1.0", "--KN", "0.0", "--grid",
                                        "16x16", "--perturb", "0.1", "--dump-fields"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        g = build_grid((0.0, 2 * np.pi), (0.0, 2 * np.pi), 16, 16, True, True)
        U, V = g.mesh()
        sol = solve_mu(MuProblem(g, 1.0, 0.0, 2.0 * (1.0 + 0.1 * np.sin(U) * np.sin(V))))
        F = mu_residual(g, sol.mu, 1.0, 0.0)
        assert list(doc["fields"]) == ["mu", "residual"]
        for key, want in (("mu", sol.mu), ("residual", F)):
            assert _same_bits(_decode(doc["fields"][key]), want), key


# Values whose "%.17g" text is easy to get wrong: signed zeros, the smallest
# subnormal and normal, both neighbours of each power of ten, the
# fixed/scientific edges, exact ties and integers with trailing zeros.
EDGE_VALUES = (
    [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-06, 99999999999999984.0,
     26215 / 2**18, 12300.0, 1234.5, 2.0**53, 1e22, 1e300, -1e-5]
    + [np.nextafter(10.0**k, side) for k in range(-8, 19) for side in (0.0, np.inf)]
)


class TestDirectFormatting:
    """Every scalar of a report is written as the bytes of ``"%.17g" % x``,
    which read back as the same double."""

    def test_edge_values(self):
        values = [float(v) for v in EDGE_VALUES]
        r = rp.GeometryReport(meta={}, summaries={f"x{i}": v for i, v in enumerate(values)})
        text = rp.report_to_json(r)
        summaries = json.loads(text)["summaries"]
        for i, v in enumerate(values):
            assert f'"x{i}": {"%.17g" % v}' in text
            assert summaries[f"x{i}"] == v

    @pytest.mark.parametrize("value, text", [
        (1e-06, "9.9999999999999995e-07"),
        (99999999999999984.0, "99999999999999984"),  # 17 digits: still fixed notation
        (26215 / 2**18, "0.10000228881835938"),     # exact tie, rounded half-even
        (2.0**-25, "2.9802322387695312e-08"),       # exact tie
        (12300.0, "12300"),
        (-1e-5, "-1.0000000000000001e-05"),
        (-0.0, "-0"),
    ])
    def test_named_values(self, value, text):
        assert rp._fmt(value) == text
        assert rp._fmt(np.float64(value)) == text

    @pytest.mark.parametrize("value", ["plain", "", 'a"b', "c\\d", '\\"', "AQID+/=="])
    def test_strings_read_back(self, value):
        text = rp._fmt(value)
        assert json.loads(text) == value
        assert text == json.dumps(value, ensure_ascii=False)


class TestMuReport:
    def test_build_mu_report(self):
        g = build_grid((0.0, 2 * np.pi), (0.0, 2 * np.pi), 32, 32, True, True)
        U, V = g.mesh()
        mu0 = constant_root(1.0, 0.0) * (1.0 + 0.05 * np.sin(U) * np.sin(V))
        sol = solve_mu(MuProblem(g, 1.0, 0.0, mu0))
        r = rp.build_mu_report(sol)
        assert r.meta["boundary_conditions"] == "doubly periodic"
        assert r.flags["converged"]
        assert r.residual("gap_equation").linf < 1e-10
        assert r.residual("gauss_consistency").linf < 1e-9

    def test_gauss_consistency_finite_at_large_H(self):
        # mu = 2 |H| sqrt(K_N + |H|^2) is about 2e200 at |H| = 1e100, and
        # mu^2 / (4 |H|^2) squared it past the float range: the row read inf
        g = build_grid((0.0, 2 * np.pi), (0.0, 2 * np.pi), 16, 16, True, True)
        H = 1e100
        sol = solve_mu(MuProblem(g, H, 0.0, np.full(g.shape, constant_root(H, 0.0))))
        r = rp.build_mu_report(sol)
        assert r.flags["converged"]
        gc = r.residual("gauss_consistency")
        assert np.isfinite(gc.l2) and np.isfinite(gc.linf)
        assert gc.linf <= 1e-10 * H * H
