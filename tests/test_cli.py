import copy
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import biconsurf
from biconsurf import mu_solver, report as report_mod
from biconsurf.cli import (
    CONFIG_TYPES,
    EXIT_ASSERTION,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    estimate_order,
    main,
)
from biconsurf.corpus import make_builtin
from biconsurf.grid import build_grid


@pytest.fixture
def runner():
    return CliRunner()


class TestVerify:
    def test_json_output_and_determinism(self, runner):
        args = ["verify", "--surface", "cylinder", "--grid", "16x16", "--param", "r=1.0"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.exit_code == 0, a.output
        assert a.output == b.output
        doc = json.loads(a.output)
        assert doc["meta"]["surface"] == "cylinder"
        assert doc["flags"]["is_biconservative"] is True

    def test_csv_format(self, runner):
        res = runner.invoke(
            main, ["verify", "--surface", "cylinder", "--grid", "12x12", "--format", "csv"]
        )
        assert res.exit_code == 0, res.output
        lines = res.output.strip().splitlines()
        assert lines[0] == "name,paper_ref,l2,linf"
        assert len(lines) > 5

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "rep.json"
        res = runner.invoke(
            main,
            ["verify", "--surface", "sphere", "--grid", "16x16", "--output", str(out)],
        )
        assert res.exit_code == 0, res.output
        doc = json.loads(out.read_text())
        assert doc["meta"]["surface"] == "sphere"

    def test_assertions_pass(self, runner):
        res = runner.invoke(
            main,
            [
                "verify", "--surface", "helix_line_r4", "--grid", "24x24",
                "--param", "k=1.0", "--param", "tau=0.5",
                "--assert-flag", "is_biconservative=true",
                "--assert-flag", "is_pmc=false",
                "--assert-residual", "stress_divergence<=1e-10",
            ],
        )
        assert res.exit_code == 0, res.output

    def test_assertion_failure_exit_code(self, runner):
        res = runner.invoke(
            main,
            ["verify", "--surface", "graph", "--grid", "24x24",
             "--assert-flag", "is_biconservative=true"],
        )
        assert res.exit_code == EXIT_ASSERTION

    def test_nan_bound_is_config_error(self, runner):
        # a NaN bound would pass any residual; inf still asserts presence
        args = ["verify", "--surface", "graph", "--grid", "8x8", "--assert-residual"]
        res = runner.invoke(main, [*args, "simons<=nan"])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert "bad residual assertion 'simons<=nan'" in res.stderr
        assert runner.invoke(main, [*args, "simons<=inf"]).exit_code == 0

    def test_nan_residual_fails_assertion(self, runner, monkeypatch):
        def nan_report(jet, surface_label, **kwargs):
            rep = report_mod.GeometryReport({"surface": surface_label})
            rep.add("simons", float("nan"), float("nan"))
            return rep

        monkeypatch.setattr(report_mod, "build_geometry_report", nan_report)
        res = runner.invoke(main, ["verify", "--surface", "graph", "--grid", "8x8",
                                   "--assert-residual", "simons<=inf"])
        assert res.exit_code == EXIT_ASSERTION, res.output
        assert "residual simons: linf nan > inf" in res.stderr

    @pytest.mark.parametrize("args", [
        ["--surface", "sphere", "--param", "chart=polar"],
        ["--surface", "cylinder", "--param", "stretch=0.3"],
    ])
    def test_hopf_row_without_isothermal_chart(self, runner, args):
        res = runner.invoke(main, ["verify", *args, "--grid", "32x32",
                                   "--assert-residual", "hopf_holomorphicity<=1e-12"])
        assert res.exit_code == 0, res.output + res.stderr

    def test_bad_surface_exit_code(self, runner):
        res = runner.invoke(main, ["verify", "--surface", "nonexistent"])
        assert res.exit_code == EXIT_CONFIG

    def test_bad_param_exit_code(self, runner):
        res = runner.invoke(
            main, ["verify", "--surface", "cylinder", "--param", "r=wat"]
        )
        assert res.exit_code == EXIT_CONFIG

    def test_string_param(self, runner, tmp_path):
        res = runner.invoke(main, ["verify", "--surface", "sphere", "--param", "chart=polar"])
        assert res.exit_code == 0, res.output
        f = tmp_path / "polar.json"
        f.write_text(json.dumps({"surface": "sphere", "params": {"chart": "polar"}}))
        via_config = runner.invoke(main, ["verify", "--config", str(f)])
        assert via_config.exit_code == 0, via_config.output
        assert res.output == via_config.output

    @pytest.mark.parametrize("args", [
        ["verify", "--surface", "cylinder", "--grid", "8x8", "--param", "r=-1"],
        ["convergence", "--surface", "cylinder", "--param", "q=1"],
        ["convergence", "--surface", "cylinder", "--param", "r=-1"],
    ])
    def test_bad_builtin_param_is_config_error(self, runner, args):
        res = runner.invoke(main, args)
        assert res.exit_code == EXIT_CONFIG, res.output
        assert "config error:" in res.stderr

    @pytest.mark.parametrize("surface,param,message", [
        ("cylinder", "r=-1", "cylinder radius must be positive"),
        ("cylinder", "r=wat", "cylinder parameter r must be a finite number, got 'wat'"),
        ("cylinder", "r=nan", "cylinder parameter r must be a finite number, got nan"),
        ("product_torus", "r1=-1", "torus radii must be positive"),
        # 1 / (k^2 + tau^2) ended in a ZeroDivisionError traceback
        ("helix_line_r4", "k=1e200", "helix k^2 + tau^2 = inf is not a positive finite float"),
        ("helix_line_r4", "k=1e-200", "helix k^2 + tau^2 = 0.0 is not a positive finite float"),
    ])
    def test_bad_builtin_param_message_from_maker(self, runner, surface, param, message):
        # the parameters are checked before they size the default grid
        res = runner.invoke(
            main, ["verify", "--surface", surface, "--grid", "8x8", "--param", param])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.stderr == f"config error: {message}\n"

    @pytest.mark.parametrize("command", ["verify", "convergence"])
    def test_unknown_builtin_param_names_accepted(self, runner, command):
        res = runner.invoke(main, [command, "--surface", "cylinder", "--param", "q=1"])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.stderr == "config error: cylinder has no parameter 'q'; it accepts r, stretch\n"

    @pytest.mark.parametrize("key", ["grid", "n"])
    def test_param_named_like_a_builder_keyword(self, runner, key):
        res = runner.invoke(
            main, ["verify", "--surface", "sphere", "--grid", "8x8", "--param", f"{key}=5"])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.stderr == f"config error: sphere has no parameter {key!r}; it accepts r, chart\n"

    @pytest.mark.parametrize("params,message", [
        ({"grid": 3}, "sphere has no parameter 'grid'; it accepts r, chart"),
        ([], "surface params must be a JSON object"),
        ({"r": True}, "sphere parameter r must be a finite number, got True"),
    ])
    def test_surface_file_bad_params(self, runner, tmp_path, params, message):
        cfg = {
            "grid": {"u": [0.0, 6.283185307179586, 8, True], "v": [-1.2, 1.2, 8, False]},
            "surface": {"builtin": "sphere", "params": params},
        }
        f = tmp_path / "surf.json"
        f.write_text(json.dumps(cfg))
        res = runner.invoke(main, ["verify", "--surface", str(f)])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.stderr == f"config error: {message}\n"

    @pytest.mark.parametrize("command", ["verify", "convergence"])
    def test_config_params_not_an_object(self, runner, tmp_path, command):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"surface": "sphere", "params": [1, 2]}))
        res = runner.invoke(main, [command, "--config", str(f), "--grid", "8x8"])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.stderr == "config error: surface params must be a JSON object\n"

    @pytest.mark.parametrize("command", ["verify", "convergence"])
    def test_config_bool_param_is_config_error(self, runner, tmp_path, command):
        # a bool passed the number test: r = true built the r = 1 cylinder, exit 0
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"surface": "cylinder", "params": {"r": True}}))
        res = runner.invoke(main, [command, "--config", str(f), "--grid", "8x8"])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.stderr == "config error: cylinder parameter r must be a finite number, got True\n"

    @pytest.mark.parametrize("grid", ["6x6", "4x8"])
    def test_fd_jets_on_a_short_open_axis(self, runner, grid):
        # no node is left once 3 rows go at each edge: ZeroDivisionError traceback
        res = runner.invoke(main, ["verify", "--surface", "graph", "--grid", grid, "--fd-jets"])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.stderr == (f"config error: a finite-difference jet needs at least 7 nodes"
                              f" on an open axis, got {grid[0]}\n")

    @pytest.mark.parametrize("option,value", [
        ("--tol-analytic", "nan"), ("--tol-analytic", "-1"), ("--tol-fd", "-1"),
        ("--tol-fd", "inf"), ("--tol-analytic", "0"),
    ])
    def test_bad_tolerance_flag_is_config_error(self, runner, option, value):
        # these ran to the end with every flag false and "tolerance": "nan"
        res = runner.invoke(main, ["verify", "--surface", "sphere", "--grid", "8x8",
                                   option, value])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.stderr == (f"config error: {option} must be a positive finite number, "
                              f"got {float(value)!r}\n")

    @pytest.mark.parametrize("key,value", [
        ("tol_analytic", "abc"), ("tol_fd", None), ("tol_analytic", True), ("tol_fd", -1e-3),
    ])
    def test_bad_tolerance_in_config_is_config_error(self, runner, tmp_path, key, value):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"surface": "sphere", key: value}))
        res = runner.invoke(main, ["verify", "--config", str(f), "--grid", "8x8"])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.stderr == (f"config error: {key!r} in --config must be a positive finite "
                              f"number, got {value!r}\n")

    def test_periodic_applies_to_default_grid(self, runner):
        base = ["verify", "--surface", "helix_line_r4", "--periodic", "u"]
        res = runner.invoke(main, base)
        assert res.exit_code == 0, res.output
        grid = json.loads(res.output)["meta"]["grid"]
        assert (grid["nu"], grid["periodic_u"], grid["periodic_v"]) == (64, True, False)
        assert res.output == runner.invoke(main, base + ["--grid", "64x64"]).output

    def test_degenerate_table_exit_code(self, runner, tmp_path):
        # a plane whose tangents d_u X and d_v X are 1e-7 rad apart
        u = np.linspace(0.0, 1.0, 8)
        U, V = np.meshgrid(u, u, indexing="ij")
        pos = np.stack([U + np.cos(1e-7) * V, np.sin(1e-7) * V, 0.0 * U], axis=-1)
        cfg = {
            "grid": {"u": [0.0, 1.0, 8, False], "v": [0.0, 1.0, 8, False]},
            "surface": {"positions": pos.reshape(-1, 3).tolist()},
        }
        f = tmp_path / "flat.json"
        f.write_text(json.dumps(cfg))
        res = runner.invoke(main, ["verify", "--surface", str(f)])
        assert res.exit_code == EXIT_NUMERICAL
        assert res.stderr == "numerical failure: immersion degenerate at node (0, 0)\n"

    def test_bad_assertion_spec_exit_code(self, runner):
        res = runner.invoke(
            main,
            ["verify", "--surface", "cylinder", "--grid", "8x8",
             "--assert-flag", "is_biconservative=maybe"],
        )
        assert res.exit_code == EXIT_CONFIG

    @pytest.mark.parametrize("key,spec,message", [
        ("assert_flags", "is_cmc=maybe", "bad flag assertion 'is_cmc=maybe'"),
        ("assert_residuals", "stress_divergence<=abc",
         "bad residual assertion 'stress_divergence<=abc'"),
    ], ids=["flag", "residual"])
    @pytest.mark.parametrize("via_config", [False, True], ids=["option", "config"])
    def test_bad_assertion_rejected_before_the_suite(self, runner, tmp_path, key, spec,
                                                     message, via_config):
        # a malformed spec is a config error before any work: no report on
        # stdout and no output file, as for every other bad setting
        args = ["verify", "--surface", "helix_line_r4", "--grid", "8x8"]
        if via_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: [spec]}))
            args += ["--config", str(cfg)]
        else:
            args += ["--" + key[:-1].replace("_", "-"), spec]
        res = runner.invoke(main, args)
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.stdout == ""
        assert res.stderr == f"config error: {message}\n"
        out = tmp_path / "rep.json"
        assert runner.invoke(main, [*args, "--output", str(out)]).exit_code == EXIT_CONFIG
        assert not out.exists()

    def test_fd_jets(self, runner):
        res = runner.invoke(
            main,
            ["verify", "--surface", "cylinder", "--grid", "32x32", "--fd-jets",
             "--param", "stretch=0.3"],
        )
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["meta"]["jet_source"] == "finite-difference"

    def test_surface_file_builtin(self, runner, tmp_path):
        cfg = {
            "grid": {"u": [0.0, 6.283185307179586, 24, True], "v": [0.0, 1.0, 24, False]},
            "surface": {"builtin": "cylinder", "params": {"r": 1.0}},
        }
        f = tmp_path / "surf.json"
        f.write_text(json.dumps(cfg))
        res = runner.invoke(main, ["verify", "--surface", str(f)])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["meta"]["surface"] == "cylinder"

    def test_surface_file_builtin_fd_jets(self, runner, tmp_path):
        # --fd-jets was ignored on a surface file, which ran analytic jets
        cfg = {
            "grid": {"u": [0.0, 6.283185307179586, 24, True], "v": [0.0, 1.0, 24, False]},
            "surface": {"builtin": "cylinder", "params": {"r": 1.0}},
        }
        f = tmp_path / "surf.json"
        f.write_text(json.dumps(cfg))
        res = runner.invoke(main, ["verify", "--surface", str(f), "--fd-jets"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["meta"]["jet_source"] == "finite-difference"
        # the same report as the named builtin on the same grid
        named = runner.invoke(main, ["verify", "--surface", "cylinder", "--param", "r=1.0",
                                     "--grid", "24x24", "--fd-jets"])
        assert named.exit_code == 0, named.output
        assert res.output == named.output

    @pytest.mark.parametrize("entry,value,message", [
        (3, "false", "grid 'u' periodic flag must be true or false, got 'false'"),
        (3, 1, "grid 'u' periodic flag must be true or false, got 1"),
        (2, 16.9, "grid 'u' node count must be an integer, got 16.9"),
        (2, True, "grid 'u' node count must be an integer, got True"),
        (0, "0", "grid 'u' start must be a finite number, got '0'"),
        (1, False, "grid 'u' end must be a finite number, got False"),
        (1, float("inf"), "grid 'u' end must be a finite number, got inf"),
        (0, float("-inf"), "grid 'u' start must be a finite number, got -inf"),
        (0, float("nan"), "grid 'u' start must be a finite number, got nan"),
        # a JSON integer literal too large for a float: float() would overflow
        (1, 10**400, f"grid 'u' end must be a finite number, got {10**400!r}"),
    ])
    def test_surface_file_grid_entry_types(self, runner, tmp_path, entry, value, message):
        # bool("false") made u periodic, int(16.9) made 16 nodes and float("0")
        # took a string, silently; an infinite end (written as JSON Infinity)
        # gave NaN residuals with exit 0
        u = [0.0, 6.283185307179586, 16, True]
        u[entry] = value
        cfg = {
            "grid": {"u": u, "v": [0.0, 1.0, 16, False]},
            "surface": {"builtin": "cylinder", "params": {"r": 1.0}},
        }
        f = tmp_path / "surf.json"
        f.write_text(json.dumps(cfg))
        res = runner.invoke(main, ["verify", "--surface", str(f)])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.stderr == f"config error: {message}\n"

    @pytest.mark.parametrize("u,message", [
        # 1e400 is a plain JSON number, and it parses to inf
        ("0.0, 1e400", "grid 'u' end must be a finite number, got inf"),
        # finite ends whose distance overflows: the grid rejects its extent
        ("-1.5e308, 1.5e308", "bad grid spec: grid extents must be finite"),
    ])
    def test_surface_file_overflowing_extent(self, runner, tmp_path, u, message):
        f = tmp_path / "surf.json"
        f.write_text('{"grid": {"u": [%s, 16, false], "v": [0.0, 1.0, 16, false]},'
                     ' "surface": {"builtin": "graph"}}' % u)
        res = runner.invoke(main, ["verify", "--surface", str(f)])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.stderr == f"config error: {message}\n"

    @pytest.mark.parametrize("option,value,key", [
        ("--grid", "32x32", "grid_size"), ("--periodic", "v", "periodic")])
    def test_surface_file_rejects_grid_options(self, runner, tmp_path, option, value, key):
        # a surface file fixes its grid; these options were silently dropped
        cfg = {
            "grid": {"u": [0.0, 6.283185307179586, 16, True], "v": [0.0, 1.0, 16, False]},
            "surface": {"builtin": "cylinder", "params": {"r": 1.0}},
        }
        f = tmp_path / "surf.json"
        f.write_text(json.dumps(cfg))
        res = runner.invoke(main, ["verify", "--surface", str(f), option, value])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.stderr == (f"config error: {option} (config {key!r}) does not apply to"
                              f" a surface file: {f} fixes its own grid\n")

    def test_surface_file_positions(self, runner, tmp_path):
        jet = make_builtin("cylinder", n=16, r=1.0)
        cfg = {
            "grid": {
                "u": [jet.grid.u_min, jet.grid.u_max, 16, True],
                "v": [jet.grid.v_min, jet.grid.v_max, 16, False],
            },
            "surface": {"positions": jet.pos.reshape(-1, 3).tolist()},
            "ambient": {"kind": "euclidean", "dim": 3},
        }
        f = tmp_path / "tab.json"
        f.write_text(json.dumps(cfg))
        res = runner.invoke(main, ["verify", "--surface", str(f)])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["meta"]["jet_source"] == "finite-difference"

    def test_surface_file_bad_positions(self, runner, tmp_path):
        cfg = {
            "grid": {"u": [0.0, 1.0, 8, False], "v": [0.0, 1.0, 8, False]},
            "surface": {"positions": [[0.0, 0.0, 0.0]] * 7},
        }
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(cfg))
        res = runner.invoke(main, ["verify", "--surface", str(f)])
        assert res.exit_code == EXIT_CONFIG

    @pytest.mark.parametrize("table,message", [
        # a flat list was reshaped silently, and a coordinate-major table
        # (3 rows of 64 numbers) became scrambled positions and exit 4
        (lambda pos: pos.reshape(-1).tolist(),
         "position table shape (192,) does not match grid (8, 8) with 3 ambient components"),
        (lambda pos: pos.reshape(-1, 3).T.tolist(), "position table has 3 rows, expected 64"),
        (lambda pos: pos.reshape(-1, 3).tolist()[:-1] + [[0.0, 1.0]],
         "position table is ragged (rows of unequal length)"),
        (lambda pos: [[0.0, "a", 1.0]] * 64, "position table must hold numbers only"),
        (lambda pos: [[None] * 3] * 64, "position table must hold numbers only"),
        # numpy read a true among numbers as 1.0, and the table verified
        (lambda pos: [[0.0, 0.0, True]] + pos.reshape(-1, 3).tolist()[1:],
         "position table must hold numbers only"),
    ], ids=["flat", "coordinate-major", "ragged", "string", "null", "bool"])
    def test_surface_file_position_table_shapes(self, runner, tmp_path, table, message):
        u = np.linspace(0.0, 1.0, 8)
        U, V = np.meshgrid(u, u, indexing="ij")
        cfg = {
            "grid": {"u": [0.0, 1.0, 8, False], "v": [0.0, 1.0, 8, False]},
            "surface": {"positions": table(np.stack([U, V, 0.0 * U], axis=-1))},
        }
        f = tmp_path / "tab.json"
        f.write_text(json.dumps(cfg))
        res = runner.invoke(main, ["verify", "--surface", str(f)])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.stderr == f"config error: {message}\n"

    @pytest.mark.parametrize("ambient,message", [
        ({"kind": "euclidean", "dim": "x"}, "ambient 'dim' must be an integer, got 'x'"),
        ({"kind": "euclidean", "dim": 3.5}, "ambient 'dim' must be an integer, got 3.5"),
        ({"kind": "euclidean", "dim": None}, "ambient 'dim' must be an integer, got None"),
        ({"kind": "sphere", "dim": 3, "radius": "r"},
         "ambient 'radius' must be a positive finite number, got 'r'"),
        # float(True) is 1.0, but a bool is no radius
        ({"kind": "sphere", "dim": 3, "radius": True},
         "ambient 'radius' must be a positive finite number, got True"),
        ({"kind": "sphere", "dim": 3, "radius": -1},
         "ambient 'radius' must be a positive finite number, got -1"),
        ({"kind": "sphere", "dim": 3}, "sphere ambient needs a radius"),
        ({"kind": "torus", "dim": 3}, "unknown ambient kind 'torus'"),
        # a JSON string is no number, even when int() or float() would read it
        ({"kind": "sphere", "dim": "3", "radius": 2.0}, "ambient 'dim' must be an integer, got '3'"),
        ({"kind": "sphere", "dim": 3, "radius": "2.0"},
         "ambient 'radius' must be a positive finite number, got '2.0'"),
    ])
    def test_surface_file_bad_ambient(self, runner, tmp_path, ambient, message):
        # a non-integer dim used to end in a ValueError traceback and exit 1
        jet = make_builtin("cylinder", n=8, r=1.0)
        cfg = {
            "grid": {"u": [jet.grid.u_min, jet.grid.u_max, 8, True],
                     "v": [jet.grid.v_min, jet.grid.v_max, 8, False]},
            "surface": {"positions": jet.pos.reshape(-1, 3).tolist()},
            "ambient": ambient,
        }
        f = tmp_path / "tab.json"
        f.write_text(json.dumps(cfg))
        res = runner.invoke(main, ["verify", "--surface", str(f)])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.stderr == f"config error: {message}\n"

    @pytest.mark.parametrize("scale,exit_code", [(1.1, EXIT_CONFIG), (1.0 + 1e-12, 0)])
    def test_surface_file_positions_off_sphere(self, runner, tmp_path, scale, exit_code):
        # the torus S^1(0.6) x S^1(0.8) in S^3(1), scaled by 1.1, used to load
        # and read all four flags true, with K_min = 0.195 instead of 0
        n, r1, r2 = 32, 0.6, 0.8
        U, V = np.meshgrid(2 * np.pi * np.arange(n) / n, 2 * np.pi * np.arange(n) / n,
                           indexing="ij")
        pos = scale * np.stack([r1 * np.cos(U), r1 * np.sin(U),
                                r2 * np.cos(V), r2 * np.sin(V)], axis=-1)
        cfg = {
            "grid": {"u": [0.0, 2 * np.pi * r1, n, True], "v": [0.0, 2 * np.pi * r2, n, True]},
            "ambient": {"kind": "sphere", "dim": 3, "radius": 1.0},
            "surface": {"positions": pos.reshape(-1, 4).tolist()},
        }
        f = tmp_path / "torus.json"
        f.write_text(json.dumps(cfg))
        res = runner.invoke(main, ["verify", "--surface", str(f)])
        assert res.exit_code == exit_code, res.output
        if exit_code == EXIT_CONFIG:
            assert re.fullmatch(r"config error: position at node \(\d+, \d+\) lies off the"
                                r" ambient space: relative error 1\.000e-01 > 1e-08\n",
                                res.stderr)

    def test_surface_file_ambient_dim_too_small(self, runner, tmp_path):
        # used to end in a ValueError traceback from Ambient and exit 1
        cfg = {
            "grid": {"u": [0.0, 1.0, 8, False], "v": [0.0, 1.0, 8, False]},
            "surface": {"positions": [[0.0, 0.0]] * 64},
            "ambient": {"kind": "euclidean", "dim": 2},
        }
        f = tmp_path / "tab.json"
        f.write_text(json.dumps(cfg))
        res = runner.invoke(main, ["verify", "--surface", str(f)])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.stderr == "config error: ambient dimension must be >= 3\n"

    def test_surface_file_non_finite_positions(self, runner, tmp_path):
        # used to end in a SurfaceConfigError traceback and exit 1
        jet = make_builtin("cylinder", n=8, r=1.0)
        pos = jet.pos.reshape(-1, 3).tolist()
        pos[5][1] = float("nan")
        cfg = {
            "grid": {"u": [jet.grid.u_min, jet.grid.u_max, 8, True],
                     "v": [jet.grid.v_min, jet.grid.v_max, 8, False]},
            "surface": {"positions": pos},
        }
        f = tmp_path / "tab.json"
        f.write_text(json.dumps(cfg))
        res = runner.invoke(main, ["verify", "--surface", str(f)])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.stderr == "config error: position table contains non-finite entries\n"

    @pytest.mark.parametrize("command,args", [
        ("verify", ["--config", "cfg.json"]),
        ("solve-mu", ["--config", "cfg.json", "--grid", "8x8"]),
    ])
    def test_unknown_config_format_is_config_error(self, runner, tmp_path, monkeypatch,
                                                   command, args):
        # any format but "json" used to be written as CSV
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"surface": "sphere", "grid_size": [8, 8], "format": "xml"}))
        res = runner.invoke(main, [command, *args])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.stdout == ""
        assert res.stderr == ("config error: 'format' in --config must be one of json, csv,"
                              " got 'xml'\n")

    @pytest.mark.parametrize("command,key,value,want", [
        # "false" ran FD jets; "u" ended in an IndexError traceback; a string
        # of assertions was split into one-character specs
        ("verify", "fd_jets", "false", "true or false"),
        ("verify", "dump_fields", 1, "true or false"),
        ("verify", "periodic", "u", "two booleans"),
        ("verify", "periodic", [True], "two booleans"),
        ("verify", "assert_flags", "is_cmc=true", "a list of strings"),
        ("verify", "assert_residuals", [1e-3], "a list of strings"),
        ("verify", "output", ["rep.json"], "a path string"),
        ("convergence", "fd_jets", "yes", "true or false"),
        ("convergence", "output", {"path": "rep.json"}, "a path string"),
    ])
    def test_bad_config_type_is_config_error(self, runner, tmp_path, command, key, value,
                                             want):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"surface": "sphere", "grid_size": [8, 8], key: value}))
        res = runner.invoke(main, [command, "--config", str(f)])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.stdout == ""
        assert res.stderr == f"config error: {key!r} in --config must be {want}, got {value!r}\n"

    @pytest.mark.parametrize("command", ["verify", "solve-mu", "convergence"])
    @pytest.mark.parametrize("value", ["ab", [8.5, 8], [3, 8], None])
    def test_bad_grid_size_in_config_is_config_error(self, runner, tmp_path, command, value):
        # "ab" and [8.5, 8] ended in a TypeError traceback (solve-mu) or in
        # "'<' not supported between instances of 'str' and 'int'"
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"surface": "sphere", "grid_size": value}))
        res = runner.invoke(main, [command, "--config", str(f)])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.stderr == (f"config error: 'grid_size' in --config must be two integers "
                              f">= 4, got {value!r}\n")

    @pytest.mark.parametrize("args", [
        ["verify", "--surface", "sphere"], ["solve-mu"], ["convergence", "--surface", "sphere"],
    ])
    def test_small_grid_flag_is_config_error(self, runner, args):
        res = runner.invoke(main, [*args, "--grid", "3x8"])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.stderr == "config error: --grid must be two integers >= 4, got '3x8'\n"

    @pytest.mark.parametrize("args", [
        ["verify", "--surface", "sphere", "--grid", "8x8"],
        ["solve-mu", "--grid", "8x8"],
        ["convergence", "--surface", "sphere", "--grid", "8x8"],
    ])
    def test_unwritable_output_is_config_error(self, runner, tmp_path, args):
        # ended in a FileNotFoundError traceback and exit 1
        out = tmp_path / "no" / "such" / "rep.json"
        res = runner.invoke(main, [*args, "--output", str(out)])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.stdout == ""
        assert res.stderr == (f"config error: cannot write output file {out}: "
                              f"No such file or directory\n")

    @pytest.mark.parametrize("args,files,exit_code,stderr", [
        (["verify", "--config", "none.json"], {}, EXIT_CONFIG,
         "cannot read config none.json: [Errno 2] No such file or directory: 'none.json'"),
        (["verify", "--config", "cfg.json"], {"cfg.json": "[1]"}, EXIT_CONFIG,
         "config must be a JSON object"),
        (["verify", "--config", "cfg.json"], {"cfg.json": '{"surface": 5}'}, EXIT_CONFIG,
         "bad surface entry 5"),
        (["verify"], {}, EXIT_CONFIG, "no surface given (use --surface or a config file)"),
        (["verify", "--surface", "sphere", "--param", "k"], {}, EXIT_CONFIG, "bad --param 'k'"),
        (["verify", "--surface", "sphere", "--periodic", "u,w"], {}, EXIT_CONFIG,
         "unknown periodic axes ['w']"),
        (["verify", "--surface", "s.json"], {"s.json": "{"}, EXIT_CONFIG,
         "cannot read surface file s.json: Expecting property name enclosed in double quotes:"
         " line 1 column 2 (char 1)"),
        (["verify", "--surface", "s.json"], {"s.json": "[]"}, EXIT_CONFIG,
         "surface file must be a JSON object"),
        (["verify", "--surface", "s.json"], {"s.json": '{"surface": {}}'}, EXIT_CONFIG,
         "surface file missing 'grid'"),
        (["verify", "--surface", "s.json"], {"s.json": '{"grid": {}}'}, EXIT_CONFIG,
         "surface file missing 'surface'"),
        (["verify", "--surface", "s.json"], {"s.json": '{"grid": %s, "surface": []}'},
         EXIT_CONFIG, "surface file entry 'surface' must be a JSON object"),
        (["verify", "--surface", "s.json"], {"s.json": '{"grid": %s, "surface": {}}'},
         EXIT_CONFIG, "surface entry needs either 'builtin' or 'positions'"),
        (["verify", "--surface", "s.json"],
         {"s.json": '{"grid": %s, "surface": {"builtin": ["sphere"]}}'}, EXIT_CONFIG,
         "surface file entry 'builtin' must be a string, got ['sphere']"),
        (["verify", "--surface", "s.json"],
         {"s.json": '{"grid": %s, "surface": {"positions": []}, "ambient": 3}'}, EXIT_CONFIG,
         "surface file entry 'ambient' must be a JSON object"),
        (["verify", "--surface", "sphere", "--grid", "8x8", "--assert-residual", "nope<=1"], {},
         EXIT_ASSERTION, "residual nope: not in report"),
        (["convergence", "--surface", "sphere", "--levels", "2"], {}, EXIT_CONFIG,
         "need at least 3 refinement levels"),
    ])
    def test_input_error_paths(self, runner, tmp_path, monkeypatch, args, files, exit_code,
                               stderr):
        grid = '{"u": [0.0, 1.0, 8, false], "v": [0.0, 1.0, 8, false]}'
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_text(text.replace("%s", grid))
        res = runner.invoke(main, args)
        assert res.exit_code == exit_code, res.output
        prefix = {EXIT_CONFIG: "config error", EXIT_ASSERTION: "assertion failed"}[exit_code]
        assert res.stderr == f"{prefix}: {stderr}\n"

    @pytest.mark.parametrize("value", [1e308, 1e200])
    @pytest.mark.parametrize("row", [0, 3], ids=["edge", "interior"])
    def test_spiked_position_table_is_numerical_failure(self, runner, tmp_path, row, value):
        # A huge z at the open-edge node (0, 0) or at the interior node (0, 3)
        # of the 4x7 cylinder table. 1e308 overflowed the FD derivatives and
        # exited 0, with every flag true at the edge and every flag false
        # inside; 1e200 overflowed g and reached "immersion degenerate" after
        # a RuntimeWarning (an error under this suite's warning filters).
        doc = _small_surface_files()[0]
        doc["surface"]["positions"][row][2] = value
        f = tmp_path / "spike.json"
        f.write_text(json.dumps(doc))
        res = runner.invoke(main, ["verify", "--surface", str(f)])
        assert res.exit_code == EXIT_NUMERICAL, (res.output, res.exception)
        assert res.stdout == ""
        assert re.fullmatch(r"numerical failure: (finite-difference derivative|metric) not"
                            r" finite at node \(0, [0-3]\)\n", res.stderr), res.stderr

    def test_malformed_entry_never_ends_in_a_traceback(self, runner, tmp_path):
        # Each entry of three small valid surface files is replaced, one at a
        # time, by a value of each JSON type; every run must end in a verdict
        # or a one-line diagnosis; 70 of the 464 runs of the first eight
        # values used to end in a traceback (exit 1). A huge magnitude such as 1e308 overflows inside
        # the geometry, and must end in its diagnosis with no warning ahead.
        f = tmp_path / "surf.json"
        failures = []
        for base in _small_surface_files():
            f.write_text(json.dumps(base))
            assert runner.invoke(main, ["verify", "--surface", str(f)]).exit_code == 0
            for path in _entry_paths(base):
                for value in (None, True, "x", [], {}, 0, -1, 2.5, 1e308, -1e308):
                    doc = copy.deepcopy(base)
                    node = doc
                    for key in path[:-1]:
                        node = node[key]
                    node[path[-1]] = value
                    f.write_text(json.dumps(doc))
                    res = runner.invoke(main, ["verify", "--surface", str(f)])
                    if res.exit_code not in (0, EXIT_CONFIG, EXIT_NUMERICAL) or not (
                            res.stderr == "" or res.stderr.startswith(
                                ("config error:", "numerical failure:"))):
                        failures.append((path, value, res.exit_code, repr(res.exception)))
        assert not failures, failures[:5]


def _small_surface_files() -> list[dict]:
    """A tabulated cylinder in R^3, a builtin sphere and a tabulated torus in
    S^3(1), each on a small grid, as surface-file documents."""
    cyl = make_builtin("cylinder", grid=build_grid((0.0, 2 * np.pi), (0.0, 1.0), 4, 7, True))
    n, r1, r2 = 4, 0.6, 0.8
    U, V = np.meshgrid(2 * np.pi * np.arange(n) / n, 2 * np.pi * np.arange(n) / n,
                       indexing="ij")
    torus = np.stack([r1 * np.cos(U), r1 * np.sin(U), r2 * np.cos(V), r2 * np.sin(V)], -1)
    return [
        {"grid": {"u": [0.0, 2 * np.pi, 4, True], "v": [0.0, 1.0, 7, False]},
         "surface": {"positions": cyl.pos.reshape(-1, 3).tolist()},
         "ambient": {"kind": "euclidean", "dim": 3}},
        {"grid": {"u": [0.0, 2 * np.pi, 4, True], "v": [-1.2, 1.2, 4, False]},
         "surface": {"builtin": "sphere", "params": {"r": 1.0, "chart": "mercator"}}},
        {"grid": {"u": [0.0, 2 * np.pi * r1, n, True], "v": [0.0, 2 * np.pi * r2, n, True]},
         "surface": {"positions": torus.reshape(-1, 4).tolist()},
         "ambient": {"kind": "sphere", "dim": 3, "radius": 1.0}},
    ]


def _entry_paths(node, path=()):
    """Key paths of the entries below ``node``. Of a position table only the
    first row and its numbers: every row is read alike."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))[:1 if path[-1:] == ("positions",) else None]
    else:
        items = []
    for key, val in items:
        yield path + (key,)
        yield from _entry_paths(val, path + (key,))



class TestSolveMu:
    def test_default_problem_converges(self, runner):
        res = runner.invoke(
            main, ["solve-mu", "--H", "1.0", "--KN", "0.0", "--grid", "32x32",
                   "--perturb", "0.1"]
        )
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["flags"]["converged"] is True
        assert doc["meta"]["iterations"] <= 12

    def test_non_convergence_exit_code(self, runner):
        res = runner.invoke(
            main, ["solve-mu", "--H", "1.0", "--KN", "-2.0", "--grid", "16x16",
                   "--mu0", "1.0", "--max-iter", "3"]
        )
        # K_N + H^2 = -1 at every node: no periodic solution, so Newton never runs
        assert res.exit_code == EXIT_NUMERICAL
        assert res.stderr == ("numerical failure: no periodic solution: K_N + |H|^2 <= 0"
                              " at every node forces Lap w < 0 everywhere\n")

    def test_newton_out_of_steps_is_numerical_failure(self, runner):
        res = runner.invoke(main, ["solve-mu", "--grid", "16x16", "--perturb", "0.1",
                                   "--max-iter", "1"])
        assert res.exit_code == EXIT_NUMERICAL
        assert json.loads(res.stdout)["meta"]["iterations"] == 1
        assert res.stderr == "numerical failure: Newton iteration did not converge\n"

    def test_non_convergence_writes_report_first(self, runner, tmp_path):
        out = tmp_path / "mu.json"
        res = runner.invoke(
            main, ["solve-mu", "--H", "1.0", "--KN", "-2.0", "--grid", "16x16",
                   "--mu0", "1.0", "--max-iter", "3", "--output", str(out)]
        )
        assert res.exit_code == EXIT_NUMERICAL, res.output
        doc = json.loads(out.read_text())
        assert doc["flags"]["converged"] is False
        assert doc["meta"]["iterations"] == 0

    def test_solver_error_is_numerical_failure(self, runner, monkeypatch):
        def fail(*args, **kwargs):
            raise mu_solver.SolverError("singular Jacobian at iteration 0")

        monkeypatch.setattr(mu_solver, "solve_mu", fail)
        res = runner.invoke(main, ["solve-mu", "--grid", "8x8"])
        assert res.exit_code == EXIT_NUMERICAL, res.output
        assert res.stderr == "numerical failure: singular Jacobian at iteration 0\n"

    def test_small_start_converges_to_root(self, runner):
        # from mu0 = 0.2 (root 2) the mu-form solver clipped every node to a
        # floor of 1e-8 and stalled next to the trivial root mu = 0; in
        # w = log mu the iterate stays positive and reaches the root
        res = runner.invoke(main, ["solve-mu", "--mu0", "0.2", "--perturb", "0.1",
                                   "--grid", "32x32"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.stdout)
        assert doc["flags"]["converged"] is True
        assert abs(doc["summaries"]["mu_min"] - 2.0) < 1e-10
        assert abs(doc["summaries"]["mu_max"] - 2.0) < 1e-10
        assert res.stderr == ""

    def test_bad_grid_spec(self, runner):
        res = runner.invoke(main, ["solve-mu", "--grid", "banana"])
        assert res.exit_code == EXIT_CONFIG

    @pytest.mark.parametrize("option,value,message", [
        ("--H", "nan", "|H| must be a positive finite number, got nan"),
        ("--mu0", "nan", "mu0 must be positive and finite everywhere"),
        ("--KN", "inf", "K_N must be finite everywhere"),
    ])
    def test_non_finite_input_is_config_error(self, runner, option, value, message):
        # NaN passed the sign tests and reached Newton as a singular Jacobian
        res = runner.invoke(main, ["solve-mu", "--grid", "8x8", option, value])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.stderr == f"config error: {message}\n"


    @pytest.mark.parametrize("option,value,message", [
        ("--tol-newton", "-1", "--tol-newton must be a positive finite number, got -1.0"),
        ("--tol-newton", "nan", "--tol-newton must be a positive finite number, got nan"),
        ("--max-iter", "-3", "--max-iter must be an integer >= 0, got -3"),
    ])
    def test_bad_newton_flag_is_config_error(self, runner, option, value, message):
        # these ran all Newton steps and exited 4
        res = runner.invoke(main, ["solve-mu", "--grid", "8x8", option, value])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.stderr == f"config error: {message}\n"

    @pytest.mark.parametrize("key,value,want", [
        ("tol_newton", "x", "a positive finite number"),
        ("tol_newton", 0, "a positive finite number"),
        ("max_iter", 2.5, "an integer >= 0"),
        ("max_iter", "many", "an integer >= 0"),
        ("max_iter", True, "an integer >= 0"),
        # None ended in a TypeError traceback, "abc" in Python's own message
        ("H", None, "a number"),
        ("KN", "abc", "a number"),
        ("mu0", [1.0], "a number"),
        ("perturb", True, "a number"),
        ("dump_fields", "no", "true or false"),
        ("output", ["mu.json"], "a path string"),
    ])
    def test_bad_newton_setting_in_config_is_config_error(self, runner, tmp_path, key, value,
                                                          want):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({key: value}))
        res = runner.invoke(main, ["solve-mu", "--config", str(f), "--grid", "8x8"])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.stderr == f"config error: {key!r} in --config must be {want}, got {value!r}\n"

    @pytest.mark.parametrize("key,want", [
        ("tol_newton", "a positive finite number"), ("max_iter", "an integer >= 0"),
        ("H", "a number"),
    ])
    def test_integer_too_large_for_a_float_is_config_error(self, runner, tmp_path, key, want):
        # float() raised OverflowError, which ended in a traceback and exit 1
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({key: 10**400}))
        res = runner.invoke(main, ["solve-mu", "--config", str(f), "--grid", "8x8"])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.stderr.startswith(f"config error: {key!r} in --config must be {want}, got 1000")

    def test_numeric_strings_in_config_still_accepted(self, runner, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"tol_newton": "1e-9", "max_iter": "20"}))
        res = runner.invoke(main, ["solve-mu", "--config", str(f), "--grid", "16x16",
                                   "--perturb", "0.1"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["flags"]["converged"] is True


class TestConvergence:
    def test_stretched_cylinder_orders(self, runner):
        res = runner.invoke(
            main,
            ["convergence", "--surface", "cylinder", "--grid", "24x24",
             "--levels", "3", "--param", "stretch=0.3", "--fd-jets"],
        )
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert len(doc["h"]) == 3
        orders = doc["orders"]["stress_divergence"]
        assert orders != "exact"
        for o in orders:
            assert o > 1.8

    def test_analytic_jets_exact(self, runner):
        res = runner.invoke(
            main,
            ["convergence", "--surface", "product_torus", "--grid", "16x16",
             "--levels", "3"],
        )
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["orders"]["stress_divergence"] == "exact"

    @pytest.mark.parametrize("value", ["x", 3.5])
    def test_bad_levels_in_config_is_config_error(self, runner, tmp_path, value):
        # a string ended in a ValueError traceback, 3.5 was truncated to 3
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"surface": "cylinder", "levels": value}))
        res = runner.invoke(main, ["convergence", "--config", str(f), "--grid", "8x8"])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.stderr == (f"config error: 'levels' in --config must be an integer >= 0, "
                              f"got {value!r}\n")

    def test_coarse_grid_with_zero_residual(self, runner):
        # a residual reads 0.0 at 8^2 and 1.1e-13 at 16^2; the order estimate
        # took log2(0) and the command exited 1 with "math domain error"
        res = runner.invoke(main, ["convergence", "--surface", "cylinder", "--grid", "8x8"])
        assert res.exit_code == 0, res.output
        assert len(json.loads(res.output)["h"]) == 3

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_non_square_grid_is_config_error(self, runner, tmp_path, source):
        # the NV part of the grid was dropped: 8x16 ran 8^2, 16^2 and 32^2
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"surface": "cylinder", "grid_size": [8, 16]}))
        args = (["--surface", "cylinder", "--grid", "8x16"] if source == "flag"
                else ["--config", str(f)])
        res = runner.invoke(main, ["convergence", *args])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.stdout == ""
        assert res.stderr == "config error: convergence refines square grids, got 8x16\n"

    def test_surface_not_a_name_in_config(self, runner, tmp_path):
        # a list ended in a TypeError traceback (unhashable type)
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"surface": ["cylinder"]}))
        res = runner.invoke(main, ["convergence", "--config", str(f), "--grid", "8x8"])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.stderr == "config error: convergence needs a builtin surface, got ['cylinder']\n"


def _meta(*keys):
    """A reader of the report's ``meta`` entry at ``keys``."""
    def read(res, cwd):
        node = json.loads(res.stdout)["meta"]
        for key in keys:
            node = node[key]
        return node
    return read


def _doc(key):
    return lambda res, cwd: json.loads(res.stdout)[key]


def _has_fields(res, cwd):
    return "fields" in json.loads(res.stdout)


def _first_line(res, cwd):
    return res.stdout.splitlines()[0]


def _stderr_lines(res, cwd):
    return res.stderr.splitlines()


def _files(res, cwd):
    return sorted(p.name for p in cwd.iterdir() if p.name != "cfg.json")


def _radius_from_h(res, cwd):
    # the cylinder's coarsest u spacing is 2 pi r / 8
    return round(json.loads(res.stdout)["h"][0] * 8 / (2 * math.pi), 9)


def _failed(*lines):
    return [f"assertion failed: {line}" for line in lines]


# command, config entries over a small base run, flags given next to them, a
# reader of the run, its reading with the config alone, and with the flags too
SETTING_CASES = {
    "verify-surface": ("verify", {"surface": "cylinder"}, ["--surface", "product_torus"],
                       _meta("surface"), "cylinder", "product_torus"),
    "verify-grid_size": ("verify", {"grid_size": [10, 10]}, ["--grid", "12x12"],
                         _meta("grid", "nu"), 10, 12),
    "verify-periodic": ("verify", {"periodic": [False, False]}, ["--periodic", "u,v"],
                        lambda res, cwd: [_meta("grid", f"periodic_{a}")(res, cwd) for a in "uv"],
                        [False, False], [True, True]),
    "verify-params": ("verify", {"surface": "cylinder", "params": {"r": 2.0}}, ["--param", "r=3"],
                      lambda res, cwd: _meta("grid", "u_max")(res, cwd) / (2 * math.pi),
                      2.0, 3.0),
    "verify-fd_jets-true": ("verify", {"fd_jets": True}, ["--fd-jets"], _meta("jet_source"),
                            "finite-difference", "finite-difference"),
    "verify-fd_jets-false": ("verify", {"fd_jets": False}, ["--fd-jets"], _meta("jet_source"),
                             "analytic", "finite-difference"),
    "verify-output": ("verify", {"output": "a.json"}, ["--output", "b.json"], _files,
                      ["a.json"], ["b.json"]),
    "verify-format": ("verify", {"format": "csv"}, ["--format", "json"], _first_line,
                      "name,paper_ref,l2,linf", "{"),
    "verify-tol_analytic": ("verify", {"tol_analytic": 1e-6}, ["--tol-analytic", "1e-7"],
                            _meta("tolerance"), 1e-6, 1e-7),
    "verify-tol_fd": ("verify", {"fd_jets": True, "tol_fd": 1e-2}, ["--tol-fd", "1e-4"],
                      _meta("tolerance"), 1e-2, 1e-4),
    "verify-dump_fields-true": ("verify", {"dump_fields": True}, ["--dump-fields"], _has_fields,
                                True, True),
    "verify-dump_fields-false": ("verify", {"dump_fields": False}, ["--dump-fields"],
                                 _has_fields, False, True),
    # the assertion lists join: the flags' entries come first
    "verify-assert_flags": ("verify", {"assert_flags": ["is_cmc=false"]},
                            ["--assert-flag", "is_pmc=false"], _stderr_lines,
                            _failed("flag is_cmc: expected False, got True"),
                            _failed("flag is_pmc: expected False, got True",
                                    "flag is_cmc: expected False, got True")),
    "verify-assert_residuals": ("verify", {"assert_residuals": ["nope<=1"]},
                                ["--assert-residual", "gone<=1"], _stderr_lines,
                                _failed("residual nope: not in report"),
                                _failed("residual gone: not in report",
                                        "residual nope: not in report")),
    "solve-mu-H": ("solve-mu", {"H": 2.0}, ["--H", "3"], _meta("H"), 2.0, 3.0),
    "solve-mu-KN": ("solve-mu", {"KN": 0.5}, ["--KN", "0.25"], _meta("KN_min"), 0.5, 0.25),
    "solve-mu-grid_size": ("solve-mu", {"grid_size": [10, 10]}, ["--grid", "12x12"],
                           _meta("grid", "nu"), 10, 12),
    # 2 is the constant root of H = 1, K_N = 0: no Newton step from there
    "solve-mu-mu0": ("solve-mu", {"mu0": 1.0}, ["--mu0", "2"], _meta("iterations"), 3, 0),
    "solve-mu-perturb": ("solve-mu", {"perturb": 0.1}, ["--perturb", "0"], _meta("iterations"),
                         3, 0),
    "solve-mu-tol_newton": ("solve-mu", {"perturb": 0.1, "tol_newton": 1e-2},
                            ["--tol-newton", "1e-10"], _meta("iterations"), 1, 3),
    "solve-mu-max_iter": ("solve-mu", {"perturb": 0.1, "max_iter": 1}, ["--max-iter", "2"],
                          _meta("iterations"), 1, 2),
    "solve-mu-output": ("solve-mu", {"output": "a.json"}, ["--output", "b.json"], _files,
                        ["a.json"], ["b.json"]),
    "solve-mu-format": ("solve-mu", {"format": "csv"}, ["--format", "json"], _first_line,
                        "name,paper_ref,l2,linf", "{"),
    "solve-mu-dump_fields-true": ("solve-mu", {"dump_fields": True}, ["--dump-fields"],
                                  _has_fields, True, True),
    "solve-mu-dump_fields-false": ("solve-mu", {"dump_fields": False}, ["--dump-fields"],
                                   _has_fields, False, True),
    "convergence-surface": ("convergence", {"surface": "sphere"}, ["--surface", "product_torus"],
                            _doc("surface"), "sphere", "product_torus"),
    "convergence-grid_size": ("convergence", {"grid_size": [10, 10]}, ["--grid", "12x12"],
                              lambda res, cwd: round(2 * math.pi / _doc("h")(res, cwd)[0]),
                              10, 12),
    "convergence-params": ("convergence", {"params": {"r": 2.0}}, ["--param", "r=3"],
                           _radius_from_h, 2.0, 3.0),
    "convergence-levels": ("convergence", {"levels": 4}, ["--levels", "3"],
                           lambda res, cwd: len(_doc("h")(res, cwd)), 4, 3),
    "convergence-fd_jets-true": ("convergence", {"fd_jets": True}, ["--fd-jets"],
                                 _doc("fd_jets"), True, True),
    "convergence-fd_jets-false": ("convergence", {"fd_jets": False}, ["--fd-jets"],
                                  _doc("fd_jets"), False, True),
    "convergence-output": ("convergence", {"output": "a.json"}, ["--output", "b.json"], _files,
                           ["a.json"], ["b.json"]),
}

BASE_CONFIG = {
    "verify": {"surface": "sphere", "grid_size": [8, 8]},
    "solve-mu": {"grid_size": [8, 8]},
    "convergence": {"surface": "cylinder", "grid_size": [8, 8]},
}


class TestSettings:
    @pytest.mark.parametrize("case", SETTING_CASES.values(), ids=SETTING_CASES.keys())
    def test_config_value_used_and_flag_wins(self, runner, tmp_path, monkeypatch, case):
        # a flag wins over its config key, and the config wins over the default
        command, entries, flags, read, from_config, from_flag = case
        for extra, want in (([], from_config), (flags, from_flag)):
            cwd = tmp_path / ("flag" if extra else "config")
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            (cwd / "cfg.json").write_text(json.dumps({**BASE_CONFIG[command], **entries}))
            res = runner.invoke(main, [command, "--config", "cfg.json", *extra])
            assert res.exit_code in (0, EXIT_ASSERTION, EXIT_NUMERICAL), res.output
            assert read(res, cwd) == want

    def test_every_option_is_a_config_key(self):
        # a new option is a decorator, a CONFIG_TYPES entry and a default
        names = {p.name for cmd in main.commands.values() for p in cmd.params}
        assert names - {"config_path", "params", "surface"} == set(CONFIG_TYPES)

    @pytest.mark.parametrize("line", [
        "verify --bogus", "verify --tol-fd abc", "verify --max-iter 1.5", "verify --format xml",
        "verify --surface",
        "solve-mu --bogus", "solve-mu --H abc", "solve-mu --max-iter 1.5", "solve-mu --format xml",
        "convergence --bogus", "convergence --levels abc", "convergence --levels 1.5",
        "convergence --format xml",
        "nope",
    ])
    def test_flag_rejected_by_click_is_config_error(self, runner, line):
        # click's own usage errors exited 2, the code of a failed --assert-*;
        # the message names the option, or the command when there is none
        args = line.split()
        res = runner.invoke(main, args)
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.stdout == ""
        assert re.fullmatch(r"config error: [^\n]*\n", res.stderr), res.stderr
        assert (args[1:] or args)[0] in res.stderr

    @pytest.mark.parametrize("args", [[], ["verify"], ["solve-mu"], ["convergence"]])
    def test_help_exits_0(self, runner, args):
        res = runner.invoke(main, [*args, "--help"])
        assert res.exit_code == 0, res.output
        assert res.stdout.startswith("Usage:")

    def test_bare_group_prints_usage(self, runner):
        # no command runs, so no assertion: click's usage text and exit 2 stay
        res = runner.invoke(main, [])
        assert res.exit_code == 2
        assert "Usage:" in res.output


SCIPY_PROBE = """
import sys
from click.testing import CliRunner
from biconsurf.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert not scipy_modules(), scipy_modules()[:5]
runner = CliRunner()
for args in (
    ["verify", "--surface", "sphere", "--grid", "16x16"],
    ["verify", "--surface", "cylinder", "--grid", "16x16", "--fd-jets", "--dump-fields"],
    ["convergence", "--surface", "product_torus", "--grid", "16x16"],
):
    res = runner.invoke(main, args)
    assert res.exit_code == 0, (args, res.output)
    assert not scipy_modules(), (args, scipy_modules()[:5])
res = runner.invoke(main, ["solve-mu", "--grid", "16x16", "--perturb", "0.1"])
assert res.exit_code == 0, res.output
assert "scipy.sparse.linalg" in sys.modules
"""


def test_only_solve_mu_loads_scipy():
    # verify and convergence run on numpy alone; importing scipy was most of
    # the start-up time of every CLI process
    src = str(Path(biconsurf.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert proc.returncode == 0, proc.stderr


class TestOrderEstimate:
    def test_exact_classification(self):
        assert estimate_order(1e-15, 1e-15) == "exact"
        assert estimate_order(1e-3, 0.0) == "exact"
        # a zero on the coarse side has no rate either (it was log2(0))
        assert estimate_order(0.0, 1.14e-13) == "exact"
        assert estimate_order(0.0, 1e-3) == "exact"

    def test_numeric_order(self):
        assert estimate_order(4e-3, 1e-3) == pytest.approx(2.0)
