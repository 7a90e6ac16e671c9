"""Command-line entry points: verify, solve-mu, convergence.

Configuration comes from an optional JSON document (``--config``); individual
flags override config fields. Exit codes: 0 all enabled assertions pass,
2 assertion failure, 3 configuration error, 4 numerical failure.

Only ``solve-mu`` imports ``mu_solver``, and with it scipy: ``verify`` and
``convergence`` run on numpy alone, and start without paying for scipy.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import replace

import click
import numpy as np

from . import corpus, report as report_mod
from .ambient import Ambient
from .grid import Grid, build_grid
from .immersion import DegenerateImmersionError

EXIT_ASSERTION = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4
FORMATS = ("json", "csv")


class ConfigError(ValueError):
    pass


@contextmanager
def _exit_on_error():
    """Map configuration errors to exit 3 and numerical failures to exit 4.
    ``mu_solver.SolverError`` is a FloatingPointError."""
    try:
        yield
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except (DegenerateImmersionError, FloatingPointError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _is_number(val) -> bool:
    """True for what float() takes, bar booleans: a JSON number or a numeric string."""
    if isinstance(val, bool):
        return False
    try:
        float(val)
    except (TypeError, ValueError, OverflowError):
        return False
    return True


def _is_positive(val) -> bool:
    return _is_number(val) and 0 < float(val) < math.inf


def _is_count(val) -> bool:
    return _is_number(val) and float(val) >= 0 and float(val).is_integer()


def _is_bool(val) -> bool:
    return isinstance(val, bool)


def _is_pair_of(val, test) -> bool:
    return isinstance(val, (list, tuple)) and len(val) == 2 and all(test(x) for x in val)


def _is_grid_size(val) -> bool:
    return _is_pair_of(val, lambda n: isinstance(n, int) and not _is_bool(n) and n >= 4)


def _is_strings(val) -> bool:
    return isinstance(val, list) and all(isinstance(s, str) for s in val)


# config keys whose value must have a given JSON type: (what it must be, test)
CONFIG_TYPES = {
    "grid_size": ("two integers >= 4", _is_grid_size),
    "periodic": ("two booleans", lambda v: _is_pair_of(v, _is_bool)),
    "fd_jets": ("true or false", _is_bool),
    "dump_fields": ("true or false", _is_bool),
    "assert_flags": ("a list of strings", _is_strings),
    "assert_residuals": ("a list of strings", _is_strings),
    "output": ("a path string", lambda v: isinstance(v, str)),
    "H": ("a number", _is_number),
    "KN": ("a number", _is_number),
    "mu0": ("a number", _is_number),
    "perturb": ("a number", _is_number),
    "tol_analytic": ("a positive finite number", _is_positive),
    "tol_fd": ("a positive finite number", _is_positive),
    "tol_newton": ("a positive finite number", _is_positive),
    "max_iter": ("an integer >= 0", _is_count),
    "levels": ("an integer >= 0", _is_count),
}


def _setting(cfg: dict, key: str, default, from_flag: bool = False):
    """``cfg[key]``, or ``default`` when the key is absent; a value of the
    wrong type (``CONFIG_TYPES``) is a ConfigError that names the flag when
    ``from_flag`` (the value came from one), else the config key."""
    if key not in cfg:
        return default
    want, ok = CONFIG_TYPES[key]
    if not ok(cfg[key]):
        where = "--" + key.replace("_", "-") if from_flag else f"{key!r} in --config"
        raise ConfigError(f"{where} must be {want}, got {cfg[key]!r}")
    return cfg[key]


def _parse_grid_size(text: str) -> tuple[int, int]:
    try:
        nu_s, nv_s = text.lower().split("x")
        size = int(nu_s), int(nv_s)
    except ValueError as exc:
        raise ConfigError(f"bad grid size {text!r}, expected NUxNV") from exc
    want, ok = CONFIG_TYPES["grid_size"]
    if not ok(size):
        raise ConfigError(f"--grid must be {want}, got {text!r}")
    return size


def _parse_params(specs, base: dict) -> dict:
    """``base`` updated by ``key=value`` specs; a value that parses as a float
    becomes one, any other value stays a string (e.g. ``chart=polar``)."""
    if not isinstance(base, dict):
        raise ConfigError("surface params must be a JSON object")
    params = dict(base)
    for spec in specs:
        try:
            key, val = spec.split("=")
        except ValueError as exc:
            raise ConfigError(f"bad --param {spec!r}") from exc
        try:
            params[key.strip()] = float(val)
        except ValueError:
            params[key.strip()] = val.strip()
    return params


def _parse_periodic(text: str) -> tuple[bool, bool]:
    axes = {a.strip() for a in text.split(",") if a.strip()}
    bad = axes - {"u", "v"}
    if bad:
        raise ConfigError(f"unknown periodic axes {sorted(bad)}")
    return "u" in axes, "v" in axes


def _grid_from_dict(d: dict) -> Grid:
    """A surface file's grid: ``{"u": [start, end, nodes, periodic], "v": [...]}``,
    where nodes is a JSON integer and periodic a JSON bool."""
    axes = []
    for name in ("u", "v"):
        try:
            start, end, nodes, periodic = d[name]
            extent = float(start), float(end)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad grid spec for {name!r}: {exc}") from exc
        if not isinstance(nodes, int) or isinstance(nodes, bool):
            raise ConfigError(f"grid {name!r} node count must be an integer, got {nodes!r}")
        if not isinstance(periodic, bool):
            raise ConfigError(f"grid {name!r} periodic flag must be true or false,"
                              f" got {periodic!r}")
        axes.append((extent, nodes, periodic))
    (u_ext, nu, pu), (v_ext, nv, pv) = axes
    try:
        return build_grid(u_ext, v_ext, nu, nv, pu, pv)
    except ValueError as exc:
        raise ConfigError(f"bad grid spec: {exc}") from exc


def _load_surface_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read surface file {path}: {exc}") from exc
    for key in ("grid", "surface"):
        if key not in doc:
            raise ConfigError(f"surface file missing {key!r}")
    grid = _grid_from_dict(doc["grid"])
    surf = doc["surface"]
    if "builtin" in surf:
        name, params = surf["builtin"], surf.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("surface params must be a JSON object")
        try:
            jet = corpus.build_builtin(name, grid, params)
        except (corpus.SurfaceConfigError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc
        return jet, name
    if "positions" in surf:
        try:
            space = Ambient.from_spec(doc.get("ambient", {}))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        pos = np.asarray(surf["positions"], dtype=np.float64)
        try:
            pos = pos.reshape(grid.nu, grid.nv, space.embedding_dim)
        except ValueError as exc:
            raise ConfigError(
                f"positions shape {pos.shape} does not match grid and ambient"
            ) from exc
        try:
            jet = corpus.load_tabulated(grid, pos, space)
        except corpus.SurfaceConfigError as exc:
            raise ConfigError(str(exc)) from exc
        return jet, "tabulated"
    raise ConfigError("surface entry needs either 'builtin' or 'positions'")


def _builtin_jet(name: str, params: dict, size, periodic=None):
    """Builtin jet on its default grid resized to ``size`` (NU, NV), with the
    ``periodic`` (u, v) flags if given; bad parameters raise ConfigError."""
    try:
        nu, nv = size
        grid = replace(corpus.default_grid(name, n=nu, params=params), nu=nu, nv=nv)
        if periodic is not None:
            grid = replace(grid, periodic_u=periodic[0], periodic_v=periodic[1])
        return corpus.build_builtin(name, grid, params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_jet(cfg: dict):
    """Build an immersion jet from merged config; returns (jet, label). With
    ``fd_jets`` an analytic jet, named or from a surface file, is replaced by
    its finite-difference twin."""
    surface = cfg.get("surface")
    if surface is None:
        raise ConfigError("no surface given (use --surface or a config file)")
    size = _setting(cfg, "grid_size", (64, 64))
    periodic = _setting(cfg, "periodic", None)
    fd_jets = _setting(cfg, "fd_jets", False)
    if isinstance(surface, str) and surface in corpus.BUILTIN_MAKERS:
        jet, label = _builtin_jet(surface, cfg.get("params", {}), size, periodic), surface
    elif isinstance(surface, str):
        # the file fixes the grid; an override would be silently dropped
        for key, flag in (("grid_size", "--grid"), ("periodic", "--periodic")):
            if key in cfg:
                raise ConfigError(f"{flag} (config {key!r}) does not apply to a surface"
                                  f" file: {surface} fixes its own grid")
        jet, label = _load_surface_file(surface)
    else:
        raise ConfigError(f"bad surface entry {surface!r}")
    if fd_jets and jet.source == "analytic":
        jet = corpus.tabulate(jet)
    return jet, label


def _merge(cfg: dict, **overrides) -> dict:
    merged = dict(cfg)
    for key, val in overrides.items():
        if val is not None and val is not False:
            merged[key] = val
    return merged


def _format(cfg: dict) -> str:
    fmt = cfg.get("format", "json")
    if fmt not in FORMATS:
        raise ConfigError(f"'format' must be one of {', '.join(FORMATS)}, got {fmt!r}")
    return fmt


def _write(text: str, output: str | None):
    """``text`` to the file ``output``, or to stdout when there is none; a file
    that cannot be written is a ConfigError that names it."""
    if not output:
        click.echo(text, nl=False)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {output}: {exc.strerror or exc}") from exc


def _emit(rep, fmt: str, output: str | None):
    text = report_mod.report_to_json(rep) if fmt == "json" else report_mod.report_to_csv(rep)
    _write(text, output)


def _check_assertions(rep, assert_flags, assert_residuals) -> list[str]:
    failures = []
    for spec in assert_flags:
        try:
            name, want_s = spec.split("=")
            want = {"true": True, "false": False}[want_s.strip().lower()]
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"bad flag assertion {spec!r}") from exc
        got = rep.flags.get(name.strip())
        if got is not want:
            failures.append(f"flag {name.strip()}: expected {want}, got {got}")
    for spec in assert_residuals:
        try:
            name, tol_s = spec.split("<=")
            tol = float(tol_s)
            if tol != tol:  # inf stays: it asserts only that the row is present
                raise ValueError("NaN bound")
        except ValueError as exc:
            raise ConfigError(f"bad residual assertion {spec!r}") from exc
        try:
            entry = rep.residual(name.strip())
        except KeyError:
            failures.append(f"residual {name.strip()}: not in report")
            continue
        if not entry.linf <= tol:  # written so that a NaN residual fails
            failures.append(f"residual {name.strip()}: linf {entry.linf:.3e} > {tol:.3e}")
    return failures


@click.group()
def main():
    """Numerical verification toolkit for biconservative surface identities."""


@main.command("verify")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--surface", default=None, help="builtin name or surface-file path")
@click.option("--grid", "grid_size", default=None, help="NUxNV")
@click.option("--periodic", default=None, help="comma list of periodic axes, e.g. u,v")
@click.option("--param", "params", multiple=True, help="builtin parameter, e.g. k=1.0")
@click.option("--fd-jets", is_flag=True, help="replace analytic jets by finite differences")
@click.option("--output", default=None, type=click.Path())
@click.option("--format", "fmt", type=click.Choice(FORMATS), default=None)
@click.option("--tol-analytic", type=float, default=None)
@click.option("--tol-fd", type=float, default=None)
@click.option("--dump-fields", is_flag=True)
@click.option("--assert-flag", "assert_flags", multiple=True, help="name=true|false")
@click.option("--assert-residual", "assert_residuals", multiple=True, help="name<=tol")
def verify(config_path, surface, grid_size, periodic, params, fd_jets, output, fmt,
           tol_analytic, tol_fd, dump_fields, assert_flags, assert_residuals):
    """Run the residual suite on a surface and emit a report."""
    with _exit_on_error():
        cfg = _load_config(config_path)
        cfg = _merge(
            cfg,
            surface=surface,
            grid_size=_parse_grid_size(grid_size) if grid_size else None,
            periodic=_parse_periodic(periodic) if periodic else None,
            fd_jets=fd_jets,
            output=output,
            format=fmt,
            tol_analytic=tol_analytic,
            tol_fd=tol_fd,
            dump_fields=dump_fields,
        )
        cfg["params"] = _parse_params(params, cfg.get("params", {}))
        out_format = _format(cfg)
        out_path = _setting(cfg, "output", None)
        tol_a = float(_setting(cfg, "tol_analytic", 1e-8, tol_analytic is not None))
        tol_f = float(_setting(cfg, "tol_fd", 1e-3, tol_fd is not None))
        dump = _setting(cfg, "dump_fields", False)
        flag_specs = list(assert_flags) + _setting(cfg, "assert_flags", [])
        residual_specs = list(assert_residuals) + _setting(cfg, "assert_residuals", [])
        jet, label = _resolve_jet(cfg)
        rep = report_mod.build_geometry_report(
            jet,
            surface_label=label,
            tol_analytic=tol_a,
            tol_fd=tol_f,
            dump_fields=dump,
        )
        _emit(rep, out_format, out_path)
        failures = _check_assertions(rep, flag_specs, residual_specs)
    if failures:
        for f in failures:
            click.echo(f"assertion failed: {f}", err=True)
        sys.exit(EXIT_ASSERTION)


def _mu_problem(cfg: dict):
    """The ``mu_solver.MuProblem`` of a merged config; bad values raise ConfigError."""
    from . import mu_solver

    Hval = float(_setting(cfg, "H", 1.0))
    KNval = float(_setting(cfg, "KN", 0.0))
    nu, nv = _setting(cfg, "grid_size", (64, 64))
    amp = float(_setting(cfg, "perturb", 0.0))
    mu0 = _setting(cfg, "mu0", None)
    try:
        grid = build_grid((0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi), nu, nv, True, True)
        base = float(mu0) if mu0 is not None else mu_solver.constant_root(Hval, KNval)
        X, Y = grid.mesh()
        mu0_field = base * (1.0 + amp * np.sin(X) * np.sin(Y))
        return mu_solver.MuProblem(grid, Hval, np.full(grid.shape, KNval), mu0_field)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@main.command("solve-mu")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--H", "H", type=float, default=None, help="constant mean curvature norm")
@click.option("--KN", "KN", type=float, default=None, help="constant ambient curvature")
@click.option("--grid", "grid_size", default=None, help="NUxNV, doubly periodic on [0,2pi)^2")
@click.option("--mu0", type=float, default=None, help="constant initial guess")
@click.option("--perturb", type=float, default=None,
              help="relative sin(x)sin(y) perturbation of the initial guess")
@click.option("--tol-newton", type=float, default=None)
@click.option("--max-iter", type=int, default=None)
@click.option("--output", default=None, type=click.Path())
@click.option("--format", "fmt", type=click.Choice(FORMATS), default=None)
@click.option("--dump-fields", is_flag=True)
def solve_mu_cmd(config_path, H, KN, grid_size, mu0, perturb, tol_newton, max_iter,
                 output, fmt, dump_fields):
    """Solve the principal-curvature-gap equation by damped Newton iteration."""
    from . import mu_solver  # scipy loads here, for this command alone

    with _exit_on_error():
        cfg = _load_config(config_path)
        cfg = _merge(
            cfg,
            H=H, KN=KN,
            grid_size=_parse_grid_size(grid_size) if grid_size else None,
            mu0=mu0, perturb=perturb,
            tol_newton=tol_newton, max_iter=max_iter,
            output=output, format=fmt,
            dump_fields=dump_fields,
        )
        out_format = _format(cfg)
        out_path = _setting(cfg, "output", None)
        dump = _setting(cfg, "dump_fields", False)
        tol = float(_setting(cfg, "tol_newton", 1e-10, tol_newton is not None))
        iters = int(float(_setting(cfg, "max_iter", 30, max_iter is not None)))
        sol = mu_solver.solve_mu(_mu_problem(cfg), tol_newton=tol, max_iter=iters)
        _emit(report_mod.build_mu_report(sol, dump_fields=dump), out_format, out_path)
    if not sol.converged:
        click.echo(f"numerical failure: {sol.reason or 'Newton iteration did not converge'}",
                   err=True)
        sys.exit(EXIT_NUMERICAL)


# residuals of identities that hold in the continuum; orders estimated on these
CONVERGENCE_RESIDUALS = (
    "stress_divergence",
    "trace_balance",
    "gradient_trace_balance",
    "codazzi_trace_balance",
    "divergence_route_gap",
    "trace_nabla_identity",
    "stress_trace",
    "stress_norm",
    "simons",
    "codazzi_defect",
)

EXACT_FLOOR = 1e-13


def estimate_order(coarse: float, fine: float) -> object:
    """log2 residual decay rate between grid spacings h and h/2; "exact" when
    both are at round-off or either is zero (no rate to take)."""
    if (coarse <= EXACT_FLOOR and fine <= EXACT_FLOOR) or coarse <= 0.0 or fine <= 0.0:
        return "exact"
    return math.log2(coarse / fine)


@main.command("convergence")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--surface", default=None, help="builtin name")
@click.option("--grid", "grid_size", default=None, help="coarsest level, NUxNV")
@click.option("--levels", type=int, default=None)
@click.option("--param", "params", multiple=True, help="builtin parameter, e.g. k=1.0")
@click.option("--fd-jets", is_flag=True)
@click.option("--output", default=None, type=click.Path())
def convergence(config_path, surface, grid_size, levels, params, fd_jets, output):
    """Refinement study: residual norms and estimated decay orders per level."""
    with _exit_on_error():
        cfg = _load_config(config_path)
        cfg = _merge(
            cfg,
            surface=surface,
            grid_size=_parse_grid_size(grid_size) if grid_size else None,
            levels=levels,
            fd_jets=fd_jets,
            output=output,
        )
        param_map = _parse_params(params, cfg.get("params", {}))
        nlevels = int(float(_setting(cfg, "levels", 3, levels is not None)))
        if nlevels < 3:
            raise ConfigError("need at least 3 refinement levels")
        name = cfg.get("surface")
        if not isinstance(name, str) or name not in corpus.BUILTIN_MAKERS:
            raise ConfigError(f"convergence needs a builtin surface, got {name!r}")
        nu0, nv0 = _setting(cfg, "grid_size", (32, 32))
        if nu0 != nv0:
            raise ConfigError(f"convergence refines square grids, got {nu0}x{nv0}")
        fd = _setting(cfg, "fd_jets", False)
        out_path = _setting(cfg, "output", None)
        table = run_convergence(name, param_map, nu0, nlevels, fd)
        _write(json.dumps(table, indent=2, sort_keys=False) + "\n", out_path)


def run_convergence(name: str, params: dict, n0: int, levels: int, fd_jets: bool) -> dict:
    """Residual L-inf per refinement level plus decay-order estimates; bad
    builtin parameters raise ConfigError."""
    per_level = []
    hs = []
    for level in range(levels):
        n = n0 * 2**level
        jet = _builtin_jet(name, params, (n, n))
        if fd_jets:
            jet = corpus.tabulate(jet)
        rep = report_mod.build_geometry_report(jet, surface_label=name)
        hs.append(jet.grid.hu)
        per_level.append(
            {r.name: r.linf for r in rep.residuals if r.name in CONVERGENCE_RESIDUALS}
        )
    out = {"surface": name, "fd_jets": fd_jets, "h": hs, "residuals": {}, "orders": {}}
    for key in per_level[0]:
        series = [lvl[key] for lvl in per_level if key in lvl]
        if len(series) < levels:
            continue
        out["residuals"][key] = series
        orders = [estimate_order(series[i], series[i + 1]) for i in range(levels - 1)]
        if all(o == "exact" for o in orders):
            out["orders"][key] = "exact"
        else:
            out["orders"][key] = orders
    return out


if __name__ == "__main__":
    main()
