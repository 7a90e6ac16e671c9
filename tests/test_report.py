import io
import json

import numpy as np
import pytest

from biconsurf import format17
from biconsurf import report as rp
from biconsurf.corpus import make_builtin, tabulate
from biconsurf.mu_solver import MuProblem, constant_root, mu_residual, solve_mu
from biconsurf.grid import build_grid


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
    """Each covariant derivative, each |nabla T|^2 and the biconservativity
    suite run once per report: nabla S2 and nabla A_H, both with the surface
    Christoffels of the jet, whether or not the metric is isothermal. The
    Simons residual, the integral formulas, the Hopf row and the
    nabla_shape_operator row reuse them, the Simons gate reuses the
    report's stress-divergence norm; the package has no conformal chart for
    a report to build."""

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

        calls = {"cov": 0, "bicons": 0, "cond1_norm": 0, "nabla_norm": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        norms = checks.vector_norms

        def vector_norms(field, geom):
            if field is vars(geom).get("biconservativity", {}).get("cond1"):
                calls["cond1_norm"] += 1
            return norms(field, geom)

        monkeypatch.setattr(checks, "vector_norms", vector_norms)

        cov = counted("cov", tensors.cov_derivative_coords)
        monkeypatch.setattr(tensors, "cov_derivative_coords", cov)
        monkeypatch.setattr(immersion, "cov_derivative_coords", cov)
        monkeypatch.setattr(checks, "biconservativity_residuals",
                            counted("bicons", checks.biconservativity_residuals))
        monkeypatch.setattr(immersion.SurfaceGeometry, "nabla_norm_sq",
                            counted("nabla_norm", immersion.SurfaceGeometry.nabla_norm_sq))
        jet = make_builtin(name, n=32, **params)
        E, F, G = (np.einsum("...i,...i->...", jet.d1[..., a, :], jet.d1[..., b, :])
                   for a, b in ((0, 0), (0, 1), (1, 1)))
        assert (np.allclose(E, G, rtol=1e-12) and np.allclose(F, 0.0, atol=1e-12)) is isothermal
        r = rp.build_geometry_report(tabulate(jet) if fd else jet, name)
        assert "isothermal_chart" not in r.meta
        assert calls.pop("nabla_norm") <= 2
        assert calls == {"cov": expect, "bicons": 1, "cond1_norm": 1}
        names = {e.name for e in r.residuals}
        assert {"stress_norm", "simons", "hopf_holomorphicity"} <= names
        assert "simons_assumes_biconservative_violated" in r.flags


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
        """All five dumped fields round-trip bit for bit, analytic and tabulated."""
        jet = make_builtin("cylinder", n=16, r=1.2, stretch=0.3)
        for source in (jet, tabulate(jet)):
            r = rp.build_geometry_report(source, "cylinder", dump_fields=True)
            doc = json.loads(rp.report_to_json(r))
            assert list(doc["fields"]) == ["Hsq", "K", "lambda1", "lambda2", "mu"]
            for key, want in r.fields.items():
                got = np.array(doc["fields"][key], dtype=np.float64)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.int64),
                                      np.ascontiguousarray(want).view(np.int64)), (source.source, key)

    def test_special_floats_quoted(self):
        r = rp.GeometryReport(meta={"x": float("nan")}, residuals=[], summaries={}, flags={})
        doc = json.loads(rp.report_to_json(r))
        assert doc["meta"]["x"] == "nan"


def _emit_reference(obj, indent=0):
    """The element-by-element route: every array through ``tolist()`` first."""

    def as_lists(o):
        if isinstance(o, dict):
            return {k: as_lists(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [as_lists(v) for v in o]
        return o.tolist() if isinstance(o, np.ndarray) else o

    out = io.StringIO()
    rp._emit(as_lists(obj), out, indent)
    return out.getvalue()


def _emit_direct(obj, indent=0):
    out = io.StringIO()
    rp._emit(obj, out, indent)
    return out.getvalue()


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
    """Arrays are written one row at a time; the bytes must equal those of
    the element-by-element route."""

    def test_report_fields_match_reference(self):
        r = rp.GeometryReport(meta={"surface": "edge"}, fields=dict(EDGE_FIELDS))
        doc = {"meta": r.meta, "residuals": [], "summaries": {}, "flags": {}, "fields": EDGE_FIELDS}
        assert rp.report_to_json(r) == _emit_reference(doc) + "\n"

    @pytest.mark.parametrize("key", sorted(EDGE_FIELDS))
    def test_each_array_matches_reference(self, key):
        arr = EDGE_FIELDS[key]
        assert _emit_direct(arr) == _emit_reference(arr)

    @pytest.mark.parametrize("indent", [0, 1, 3])
    def test_nested_fields_match_reference(self, indent):
        doc = {"outer": {"inner": [EDGE_FIELDS["non_finite_rows"], {"f": EDGE_FIELDS["three_d"]}]}}
        assert _emit_direct(doc, indent) == _emit_reference(doc, indent)

    def test_dumped_geometry_fields_match_reference(self):
        jet = tabulate(make_builtin("cylinder", n=16, r=1.2, stretch=0.3))
        r = rp.build_geometry_report(jet, "cylinder", dump_fields=True)
        fields = {k: np.asarray(v) for k, v in r.fields.items()}
        expect = _emit_reference({"fields": fields})
        assert _emit_direct({"fields": fields}) == expect
        assert rp.report_to_json(r).endswith(expect[1:] + "\n")

    def test_each_distinct_value_formatted_once(self, monkeypatch):
        """A dumped field formats each distinct bit pattern once, not each node."""
        jet = tabulate(make_builtin("cylinder", n=64, r=1.2, stretch=0.3))
        r = rp.build_geometry_report(jet, "cylinder", dump_fields=True)
        calls = []

        def counted(x):
            calls.append(x)
            return format(x, ".17g")

        monkeypatch.setattr(rp, "_fmt_finite", counted)
        fields = {k: np.asarray(v) for k, v in r.fields.items()}
        text = _emit_direct({"fields": fields})
        distinct = sum(np.unique(np.ascontiguousarray(v).view(np.int64)).size
                       for v in fields.values())
        assert len(calls) == distinct
        assert 20 * distinct < 5 * 64**2
        monkeypatch.undo()
        assert text == _emit_reference({"fields": fields})

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
        for key, want in (("mu", sol.mu), ("residual", F)):
            got = np.array(doc["fields"][key], dtype=np.float64)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), key


# Values where an exact "%.17g" pass goes wrong first: signed zeros, the
# smallest subnormal and normal, both neighbours of each power of ten, the
# fixed/scientific edges, exact ties and integers with trailing zeros.
EDGE_VALUES = (
    [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-06, 99999999999999984.0,
     26215 / 2**18, 12300.0, 1234.5, 2.0**53, 1e22, 1e300, -1e-5]
    + [np.nextafter(10.0**k, side) for k in range(-8, 19) for side in (0.0, np.inf)]
)


def _random_doubles(rng, n):
    """n finite doubles with uniformly drawn sign, exponent field (subnormals
    included) and mantissa, so every binary exponent occurs."""
    bits = ((rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63))
            | (rng.integers(0, 2047, n, dtype=np.uint64) << np.uint64(52))
            | rng.integers(0, 2**52, n, dtype=np.uint64))
    return bits.view(np.float64)


def _direct_text(x):
    """The entries of x through the direct pass, as one ","-joined string."""
    assert rp._distinct_strings(x) is None
    rows = format17.format_rows(x.reshape(1, -1), ",", rp._fmt_finite)
    assert rows[1:] == [""]
    return rows[0]


class TestDirectFormatting:
    """The one-pass formatter of mostly-distinct fields writes the bytes of
    ``"%.17g" % x`` for every finite double."""

    def test_edge_values(self):
        x = np.array(EDGE_VALUES)
        assert _direct_text(x).split(",") == ["%.17g" % v for v in EDGE_VALUES]
        assert _emit_direct(x) == _emit_reference(x)

    @pytest.mark.parametrize("value, text", [
        (1e-06, "9.9999999999999995e-07"),           # X decided on the exact product
        (99999999999999984.0, "99999999999999984"),  # X = 16: still fixed notation
        (26215 / 2**18, "0.10000228881835938"),     # exact tie, rounded half-even
        (2.0**-25, "2.9802322387695312e-08"),       # exact tie where the scale is two doubles
        (12300.0, "12300"),
        (-1e-5, "-1.0000000000000001e-05"),
        (-0.0, "-0"),
    ])
    def test_named_values(self, value, text):
        assert _direct_text(np.array([value, 1.5])) == text + ",1.5"

    def test_million_seeded_values(self):
        """10^6 magnitudes 10^U(-300, 300) and 2^17 doubles spread over every
        binary exponent, against one %-format of them all."""
        rng = np.random.default_rng(2025)
        x = np.concatenate([rng.choice([-1.0, 1.0], 10**6) * 10.0 ** rng.uniform(-300, 300, 10**6),
                            _random_doubles(rng, 2**17)])
        assert _direct_text(x) == ",".join(["%.17g"] * x.size) % tuple(x.tolist())

    def test_python_formats_only_zeros_and_near_ties(self, monkeypatch):
        """On 10^5 doubles spanning every exponent, plus zeros and exact
        ties, the values handed to ``_fmt_finite`` are the zeros and the
        near-ties the pass cannot decide; ties it can decide stay in numpy."""
        from decimal import Decimal, localcontext

        rng = np.random.default_rng(7)
        x = np.concatenate([_random_doubles(rng, 10**5), [0.0, -0.0, 2.0**-25, 26215 / 2**18]])
        calls = []

        def counted(v):
            calls.append(v)
            return format(v, ".17g")

        monkeypatch.setattr(rp, "_fmt_finite", counted)
        text = _direct_text(x)
        monkeypatch.undo()
        assert text == ",".join(["%.17g"] * x.size) % tuple(x.tolist())

        def near_tie(v):  # |v| 10^(16-X) within 2^-39 of a half-integer, X or X + 1
            with localcontext() as ctx:
                ctx.prec = 2000
                d = abs(Decimal(v))
                return any(abs(s % 1 - Decimal("0.5")) <= Decimal(2.0**-39)
                           for s in (d.scaleb(16 - d.adjusted()), d.scaleb(15 - d.adjusted())))

        assert sorted(str(v) for v in calls if v == 0.0) == ["-0.0", "0.0"]
        assert [v for v in calls if v != 0.0 and not near_tie(v)] == []
        assert 2.0**-25 in calls and 26215 / 2**18 not in calls
        assert len(calls) <= 10


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
