import numpy as np
import pytest

from biconsurf.ambient import euclidean, sphere
from biconsurf.corpus import load_tabulated, make_builtin, tabulate
from biconsurf.grid import build_grid, fd_derivative
from biconsurf.immersion import (
    DegenerateImmersionError,
    ImmersionJet,
    _project_off_tangent,
    compute_geometry,
    induced_metric,
    jet_from_positions,
    tangent_coords,
)
from lemmas import interior_mask


def plane_jet(n=16):
    g = build_grid((0.0, 1.0), (0.0, 1.0), n, n)
    U, V = g.mesh()
    pos = np.stack([U, V, np.zeros_like(U)], axis=-1)
    return jet_from_positions(g, pos, euclidean(3))


def frame_jet(rng, space, shape=(4, 5)):
    """Jet with random positions and tangent frames (tangent to the sphere
    when ``space`` is one); only pos and d1 are meaningful."""
    n = space.embedding_dim
    pos = rng.standard_normal(shape + (n,))
    d1 = rng.standard_normal(shape + (2, n))
    if space.kind == "sphere":
        pos *= space.radius / np.linalg.norm(pos, axis=-1, keepdims=True)
        radial = np.einsum("...ak,...k->...a", d1, pos) / space.radius**2
        d1 -= radial[..., None] * pos[..., None, :]
    grid = build_grid((0.0, 1.0), (0.0, 1.0), *shape)
    return ImmersionJet(grid, space, pos, d1, np.zeros(shape + (2, 2, n)))


class TestProjection:
    def test_project_off_tangent_random_frames(self, rng):
        jet = frame_jet(rng, euclidean(4))
        ginv = np.linalg.inv(induced_metric(jet)[0])
        W = rng.standard_normal(jet.pos.shape)
        nor = _project_off_tangent(jet, ginv, W)
        tan = np.einsum("...a,...ak->...k", tangent_coords(jet, ginv, W), jet.d1)
        np.testing.assert_allclose(tan + nor, W, atol=1e-12)
        # normal part orthogonal to both frame vectors
        np.testing.assert_allclose(np.einsum("...ak,...k->...a", jet.d1, nor), 0.0, atol=1e-10)
        # tangential input: coordinates recovered, normal part vanishes
        t = 0.3 * jet.d1[..., 0, :] - 1.7 * jet.d1[..., 1, :]
        coords = tangent_coords(jet, ginv, t)
        np.testing.assert_allclose(coords[..., 0], 0.3, atol=1e-9)
        np.testing.assert_allclose(coords[..., 1], -1.7, atol=1e-9)
        np.testing.assert_allclose(_project_off_tangent(jet, ginv, t), 0.0, atol=1e-9)

    def test_project_off_tangent_sphere_removes_radial(self, rng):
        space = sphere(3, 2.0)
        jet = frame_jet(rng, space)
        ginv = np.linalg.inv(induced_metric(jet)[0])
        W = rng.standard_normal(jet.pos.shape)
        nor = _project_off_tangent(jet, ginv, W)
        np.testing.assert_allclose(np.einsum("...ak,...k->...a", jet.d1, nor), 0.0, atol=1e-10)
        np.testing.assert_allclose(np.einsum("...k,...k->...", jet.pos, nor), 0.0, atol=1e-10)
        # W = tangent + radial + normal, each part recovered
        radial = np.einsum("...k,...k->...", W, jet.pos)[..., None] * jet.pos / space.radius**2
        tan = np.einsum("...a,...ak->...k", tangent_coords(jet, ginv, W), jet.d1)
        np.testing.assert_allclose(tan + radial + nor, W, atol=1e-12)
        np.testing.assert_allclose(_project_off_tangent(jet, ginv, tan + radial), 0.0, atol=1e-9)

    def test_component_axes_match_per_slice(self, rng):
        jet = frame_jet(rng, sphere(3, 1.0))
        ginv = np.linalg.inv(induced_metric(jet)[0])
        W = rng.standard_normal(jet.grid.shape + (2, 3, 4))
        coords = tangent_coords(jet, ginv, W)
        nor = _project_off_tangent(jet, ginv, W)
        assert coords.shape == jet.grid.shape + (2, 3, 2)
        for i in range(2):
            for j in range(3):
                w = W[..., i, j, :]
                np.testing.assert_array_equal(coords[..., i, j, :], tangent_coords(jet, ginv, w))
                np.testing.assert_array_equal(nor[..., i, j, :], _project_off_tangent(jet, ginv, w))


def random_metric_geometry(rng, shape=(16, 16)):
    """Geometry of random tangent frames in R^4: a random SPD metric whose
    g_uv is nowhere small (the builtin charts are mostly orthogonal, where a
    closed-form inverse matches LAPACK bitwise)."""
    jet = frame_jet(rng, euclidean(4), shape)
    jet.d1[..., 1, :] += 2.0 * jet.d1[..., 0, :]
    return compute_geometry(jet)


def ref_nabla_norm_sq(g, S):
    """|nabla T|^2 as one five-operand contraction with a LAPACK inverse."""
    ginv = np.linalg.inv(g)
    return np.einsum("...ab,...ik,...jl,...aij,...bkl->...", ginv, g, ginv, S, S)


class TestClosedFormAlgebra:
    def test_inverse_matches_lapack_on_random_metric(self, rng):
        geom = random_metric_geometry(rng)
        assert np.min(np.abs(geom.g[..., 0, 1]) / np.sqrt(geom.det_g)) > 1e-3
        np.testing.assert_allclose(geom.ginv, np.linalg.inv(geom.g), rtol=1e-13, atol=0)
        # the determinant handed on is the one the metric has
        np.testing.assert_allclose(geom.det_g, np.linalg.det(geom.g), rtol=1e-13)

    def test_nabla_norm_sq_matches_five_operand_contraction(self, rng):
        geom = random_metric_geometry(rng)
        S = rng.standard_normal(geom.grid.shape + (2, 2, 2))
        np.testing.assert_allclose(geom.nabla_norm_sq(S), ref_nabla_norm_sq(geom.g, S),
                                   rtol=1e-13, atol=0)

    def test_graph_inverse_matches_lapack(self):
        # a builtin chart with g_uv != 0, unlike the diagonal helix metric
        geom = compute_geometry(make_builtin("graph", n=32))
        assert np.max(np.abs(geom.g[..., 0, 1])) > 1.0
        np.testing.assert_allclose(geom.ginv, np.linalg.inv(geom.g), rtol=1e-13, atol=0)


class TestPlane:
    def test_everything_vanishes(self):
        geom = compute_geometry(plane_jet())
        np.testing.assert_allclose(geom.g[..., 0, 0], 1.0, atol=1e-12)
        np.testing.assert_allclose(geom.g[..., 0, 1], 0.0, atol=1e-12)
        np.testing.assert_allclose(geom.B, 0.0, atol=1e-10)
        np.testing.assert_allclose(geom.Hsq, 0.0, atol=1e-10)
        np.testing.assert_allclose(geom.K, 0.0, atol=1e-10)


class TestCylinder:
    def test_closed_form_values(self):
        r = 1.5
        geom = compute_geometry(make_builtin("cylinder", n=32, r=r))
        np.testing.assert_allclose(geom.g[..., 0, 0], 1.0, atol=1e-12)
        np.testing.assert_allclose(geom.g[..., 1, 1], 1.0, atol=1e-12)
        np.testing.assert_allclose(geom.Hsq, 1.0 / (4.0 * r * r), atol=1e-12)
        lam1, lam2, mu, _ = geom.principal
        np.testing.assert_allclose(lam1, 1.0 / (2.0 * r * r), atol=1e-12)
        np.testing.assert_allclose(lam2, 0.0, atol=1e-12)
        np.testing.assert_allclose(geom.K, 0.0, atol=1e-12)
        np.testing.assert_allclose(geom.dperpH, 0.0, atol=1e-12)

    def test_second_fundamental_form_normal(self):
        geom = compute_geometry(make_builtin("cylinder", n=16, r=1.0))
        # B must be normal: orthogonal to both tangent vectors
        dots = np.einsum("...ijk,...ak->...ija", geom.B, geom.jet.d1)
        np.testing.assert_allclose(dots, 0.0, atol=1e-12)


class TestHelix:
    k, tau = 1.0, 0.5

    def geom(self, n=32):
        return compute_geometry(make_builtin("helix_line_r4", n=n, k=self.k, tau=self.tau))

    def test_flat_metric(self):
        geom = self.geom()
        np.testing.assert_allclose(geom.g[..., 0, 0], 1.0, atol=1e-12)
        np.testing.assert_allclose(geom.g[..., 0, 1], 0.0, atol=1e-12)
        np.testing.assert_allclose(geom.g[..., 1, 1], 1.0, atol=1e-12)

    def test_curvature_values(self):
        geom = self.geom()
        # B(d_u, d_u) has length k, the other components vanish
        np.testing.assert_allclose(
            np.linalg.norm(geom.B[..., 0, 0, :], axis=-1), self.k, atol=1e-12
        )
        np.testing.assert_allclose(geom.B[..., 0, 1, :], 0.0, atol=1e-12)
        np.testing.assert_allclose(geom.B[..., 1, 1, :], 0.0, atol=1e-12)
        np.testing.assert_allclose(geom.Hsq, self.k**2 / 4.0, atol=1e-12)
        lam1, lam2, _, _ = geom.principal
        np.testing.assert_allclose(lam1, self.k**2 / 2.0, atol=1e-12)
        np.testing.assert_allclose(lam2, 0.0, atol=1e-12)
        np.testing.assert_allclose(geom.K, 0.0, atol=1e-12)

    def test_normal_derivative_of_H(self):
        geom = self.geom()
        # |dperp_{d_u} H| = k tau / 2, |dperp_{d_v} H| = 0
        mag_u = np.linalg.norm(geom.dperpH[..., 0, :], axis=-1)
        mag_v = np.linalg.norm(geom.dperpH[..., 1, :], axis=-1)
        np.testing.assert_allclose(mag_u, self.k * self.tau / 2.0, atol=1e-11)
        np.testing.assert_allclose(mag_v, 0.0, atol=1e-11)

    def test_nabla_AH_parallel(self):
        geom = self.geom()
        assert np.max(np.abs(geom.nabla_AH)) < 1e-12


class TestSphere:
    def test_mercator_oracle(self):
        r = 2.0
        geom = compute_geometry(make_builtin("sphere", n=32, r=r))
        np.testing.assert_allclose(geom.Hsq, 1.0 / r**2, atol=1e-11)
        # mean curvature vector points at the center: H = -pos / r^2
        np.testing.assert_allclose(geom.H, -geom.jet.pos / r**2, atol=1e-11)
        lam1, lam2, mu, pu = geom.principal
        np.testing.assert_allclose(lam1, 1.0 / r**2, atol=1e-8)
        # mu is a square root of a near-zero discriminant: sqrt(eps) scale
        np.testing.assert_allclose(mu, 0.0, atol=1e-7)
        assert pu.all()
        np.testing.assert_allclose(geom.K, 1.0 / r**2, atol=1e-10)

    def test_metric_is_isothermal(self):
        geom = compute_geometry(make_builtin("sphere", n=16, r=1.0))
        np.testing.assert_allclose(geom.g[..., 0, 1], 0.0, atol=1e-12)
        np.testing.assert_allclose(geom.g[..., 0, 0], geom.g[..., 1, 1], atol=1e-12)


class TestSphereAmbient:
    """A latitude 2-sphere inside the 3-sphere of radius R: umbilical with
    |H| = cot(theta0) / R and K = 1 / (R sin(theta0))^2."""

    theta0 = 0.8
    R = 1.0

    def jet(self, n=24):
        s, c = self.R * np.sin(self.theta0), self.R * np.cos(self.theta0)
        base = make_builtin("sphere", n=n, r=s)
        pos = np.concatenate([base.pos, np.full(base.grid.shape + (1,), c)], axis=-1)
        pad = lambda a: np.concatenate([a, np.zeros(a.shape[:-1] + (1,))], axis=-1)
        return ImmersionJet(
            base.grid, sphere(3, self.R), pos, pad(base.d1), pad(base.d2), pad(base.d3)
        )

    def test_umbilical_cmc(self):
        geom = compute_geometry(self.jet())
        cot = np.cos(self.theta0) / np.sin(self.theta0)
        np.testing.assert_allclose(geom.Hsq, (cot / self.R) ** 2, atol=1e-10)
        lam1, lam2, mu, _ = geom.principal
        np.testing.assert_allclose(mu, 0.0, atol=1e-7)
        np.testing.assert_allclose(lam1, geom.Hsq, atol=1e-7)

    def test_gauss_equation_with_ambient_curvature(self):
        geom = compute_geometry(self.jet())
        np.testing.assert_allclose(geom.K, 1.0 / (self.R * np.sin(self.theta0)) ** 2, atol=1e-9)

    def test_normal_B_in_sphere(self):
        jet = self.jet()
        geom = compute_geometry(jet)
        # B is orthogonal to the tangent plane and to the radial direction
        dots = np.einsum("...ijk,...ak->...ija", geom.B, jet.d1)
        np.testing.assert_allclose(dots, 0.0, atol=1e-10)
        radial = np.einsum("...ijk,...k->...ij", geom.B, jet.pos)
        np.testing.assert_allclose(radial, 0.0, atol=1e-10)


class TestSphereAmbientRadius25(TestSphereAmbient):
    """The same latitude sphere in S^3(2.5), where r and r^2 differ."""

    R = 2.5


class TestGraph:
    """z = f(u, v) = u^2 - v^3: dperp H is of order 1, K is not constant."""

    def test_exact_dperpH_matches_fd_of_H(self):
        errs, hs = [], []
        for n in (64, 128):
            jet = make_builtin("graph", n=n)
            geom = compute_geometry(jet)
            DH = np.stack([fd_derivative(jet.grid, geom.H, a, 1) for a in (0, 1)], axis=-2)
            fd = _project_off_tangent(jet, geom.ginv, DH)
            mask = interior_mask(jet.grid, 3)
            scale = np.max(np.linalg.norm(geom.dperpH, axis=-1)[mask])
            assert scale > 1.0
            errs.append(np.max(np.linalg.norm(geom.dperpH - fd, axis=-1)[mask]) / scale)
            hs.append(jet.grid.hu)
        assert errs[1] < 1e-2
        assert np.log(errs[0] / errs[1]) / np.log(hs[0] / hs[1]) >= 1.8

    def test_gauss_curvature_closed_form(self):
        jet = make_builtin("graph", n=48)
        U, V = jet.grid.mesh()
        fu, fv, fuu, fvv, fuv = 2.0 * U, -3.0 * V**2, 2.0, -6.0 * V, 0.0
        K = (fuu * fvv - fuv**2) / (1.0 + fu**2 + fv**2) ** 2
        np.testing.assert_allclose(compute_geometry(jet).K, K, rtol=0, atol=1e-12)


class TestFiniteDifferenceJets:
    def test_tabulated_sphere_converges(self):
        errs = []
        for n in (32, 64):
            geom = compute_geometry(tabulate(make_builtin("sphere", n=n, r=2.0)))
            errs.append(np.max(np.abs(np.sqrt(geom.Hsq) - 0.5)))
        assert errs[1] < 1e-3
        assert np.log2(errs[0] / errs[1]) > 1.8

    def test_jet_source_tags(self):
        a = make_builtin("cylinder", n=8, r=1.0)
        assert a.source == "analytic"
        assert tabulate(a).source == "finite-difference"


class TestDegeneracy:
    def test_degenerate_immersion_rejected(self):
        g = build_grid((0.0, 1.0), (0.0, 1.0), 8, 8)
        U, V = g.mesh()
        # collapses the v-direction: rank-1 differential
        pos = np.stack([U, np.zeros_like(U), np.zeros_like(U)], axis=-1)
        jet = jet_from_positions(g, pos, euclidean(3))
        with pytest.raises(DegenerateImmersionError):
            compute_geometry(jet)

    def test_nearly_parallel_tangents_rejected(self):
        g = build_grid((0.0, 1.0), (0.0, 1.0), 8, 8)
        U, V = g.mesh()
        angle = 1e-7  # between d_u X and d_v X: det g / (g_uu g_vv) = 1e-14
        pos = np.stack([U + np.cos(angle) * V, np.sin(angle) * V, np.zeros_like(U)], axis=-1)
        with pytest.raises(DegenerateImmersionError):
            compute_geometry(load_tabulated(g, pos, euclidean(3)))

    def test_shape_validation(self):
        g = build_grid((0.0, 1.0), (0.0, 1.0), 8, 8)
        with pytest.raises(ValueError):
            ImmersionJet(g, euclidean(3), np.zeros((8, 8, 2)), np.zeros((8, 8, 2, 3)),
                         np.zeros((8, 8, 2, 2, 3)))


def _torus_in_s3_fd(n=24, r1=0.6, r2=0.8):
    """S^1(r1) x S^1(r2) in S^3(1), tabulated in arclength and differenced."""
    grid = build_grid((0.0, 2 * np.pi * r1), (0.0, 2 * np.pi * r2), n, n, True, True)
    U, V = grid.mesh()
    pos = np.stack([r1 * np.cos(U / r1), r1 * np.sin(U / r1),
                    r2 * np.cos(V / r2), r2 * np.sin(V / r2)], axis=-1)
    return load_tabulated(grid, pos.reshape(-1, 4), sphere(3, 1.0))


REFERENCE_JETS = {
    "helix_line_r4": lambda: make_builtin("helix_line_r4", n=16, tau=0.5),
    "graph": lambda: make_builtin("graph", n=16),
    "graph_fd": lambda: tabulate(make_builtin("graph", n=16)),
    "sphere_mercator": lambda: make_builtin("sphere", n=16),
    "torus_s3_fd": _torus_in_s3_fd,
}


def _dperpH_two_einsums(geom):
    """nabla-perp H of an analytic jet by the route with the full d3 trace and
    the two Gamma contractions taken apart, and the largest |entry| of its
    three terms (nabla-perp H vanishes on a PMC surface, where the terms do
    not)."""
    jet, ginv, B = geom.jet, geom.ginv, geom.B
    d3_trace = _project_off_tangent(jet, ginv, np.einsum("xyij,xyaijk->xyak", ginv, jet.d3))
    dginv = np.einsum("xyip,xyjap->xyaij", ginv, geom.gamma)
    terms = (0.5 * d3_trace, 0.5 * np.einsum("xyk,xyakn->xyan", geom.gamma_trace, B),
             np.einsum("xyaij,xyijn->xyan", dginv, B))
    return terms[0] - terms[1] - terms[2], max(float(np.max(np.abs(t))) for t in terms)


class TestChristoffelsGiveB:
    """Gamma^k_ij are the tangent coordinates of d_i d_j X, so B is d2 less
    Gamma^k_ij d_k X, kept tangent to the ambient."""

    @staticmethod
    def assert_close(got, ref, what, scale=None):
        scale = float(np.max(np.abs(ref))) if scale is None else scale
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * scale, err_msg=what)

    @pytest.mark.parametrize("label", list(REFERENCE_JETS))
    def test_B_is_the_projection_of_d2(self, label):
        geom = compute_geometry(REFERENCE_JETS[label]())
        self.assert_close(geom.B, _project_off_tangent(geom.jet, geom.ginv, geom.jet.d2), "B")

    @pytest.mark.parametrize("label", list(REFERENCE_JETS))
    def test_gamma_is_the_tangent_part_of_d2(self, label):
        geom = compute_geometry(REFERENCE_JETS[label]())
        coords = tangent_coords(geom.jet, geom.ginv, geom.jet.d2)  # [..., i, j, k]
        self.assert_close(geom.gamma, np.moveaxis(coords, -1, 2), "gamma")

    @pytest.mark.parametrize("label", [k for k in REFERENCE_JETS if not k.endswith("_fd")])
    def test_dperpH_matches_the_two_einsum_route(self, label):
        geom = compute_geometry(REFERENCE_JETS[label]())
        assert geom.jet.has_third
        ref, scale = _dperpH_two_einsums(geom)
        assert scale > 0.1
        self.assert_close(geom.dperpH, ref, "dperpH", scale)


def _nodes_innermost(a):
    """Node axes last and C-contiguous in memory: a (comps..., nu, nv) buffer."""
    return np.moveaxis(a, (0, 1), (-2, -1)).flags.c_contiguous


def _layout_fields(geom):
    out = {f: getattr(geom, f) for f in ("g", "det_g", "ginv", "B", "H", "Hsq", "A_H",
                                         "gamma", "dperpH", "K")}
    out.update(S2=geom.S2, nabla_AH=geom.nabla_AH, nabla_S2=geom.nabla_S2)
    out.update({f"nabla_norm_sq({k})": geom.nabla_norm_sq(out[k])
                for k in ("nabla_AH", "nabla_S2")})
    out.update({f"biconservativity[{k}]": v for k, v in geom.biconservativity.items()})
    jet = geom.jet
    out.update({f"jet.{k}": getattr(jet, k) for k in ("pos", "d1", "d2", "d3")
                if getattr(jet, k) is not None})
    return out


LAYOUT_JETS = {
    "helix_line_r4": lambda: make_builtin("helix_line_r4", n=16, tau=0.5),
    "cylinder": lambda: make_builtin("cylinder", n=16),
    "sphere": lambda: make_builtin("sphere", n=16),
    "sphere_polar": lambda: make_builtin("sphere", n=16, chart="polar"),
    "product_torus": lambda: make_builtin("product_torus", n=16, r1=1.0, r2=1.5),
    "graph": lambda: make_builtin("graph", n=16),
    "cylinder_fd": lambda: tabulate(make_builtin("cylinder", n=16, stretch=0.3)),
}


class TestLayout:
    @pytest.mark.parametrize("label", list(LAYOUT_JETS))
    def test_fields_keep_nodes_innermost(self, label):
        geom = compute_geometry(LAYOUT_JETS[label]())
        fields = _layout_fields(geom)
        for name, arr in fields.items():
            assert arr.shape[:2] == geom.grid.shape, name
        assert [n for n, a in fields.items() if not _nodes_innermost(a)] == []

    @pytest.mark.parametrize("label", ["sphere", "cylinder_fd"])
    def test_c_order_input_gives_same_values(self, label):
        jet = LAYOUT_JETS[label]()
        c_jet = ImmersionJet(jet.grid, jet.space, *(
            None if a is None else np.ascontiguousarray(a)
            for a in (jet.pos, jet.d1, jet.d2, jet.d3)), source=jet.source)
        # a finite-difference jet holds its positions alone
        for a in (c_jet.pos, c_jet.d1, c_jet.d2, c_jet.d3):
            assert a is None or (a.flags.c_contiguous and not _nodes_innermost(a))
        ref, got = _layout_fields(compute_geometry(jet)), _layout_fields(compute_geometry(c_jet))
        for name in ref:
            scale = max(1.0, float(np.max(np.abs(ref[name]))))
            np.testing.assert_allclose(got[name], ref[name], rtol=0, atol=1e-12 * scale,
                                       err_msg=name)
