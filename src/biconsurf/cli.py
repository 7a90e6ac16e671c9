"""Command-line entry points: verify, solve-mu, convergence.

Configuration comes from an optional JSON document (``--config``); a flag
overrides its config key. :func:`_settings` reads every setting of a command
and checks its type (``CONFIG_TYPES``) once. Exit codes: 0 all enabled
assertions pass, 2 assertion failure, 3 configuration error, 4 numerical
failure. Input is checked where it is read, by the module that reads it, and
rejected with ``grid.InputError``; a flag that click rejects (an unknown
option or command, a value of the wrong type, a bad choice) is a
``click.UsageError``. :func:`_exit_on_error` runs once, around every command
of the group, and maps both to exit 3.

``verify`` and ``convergence`` never import ``mu_solver``, and ``solve-mu``
imports scipy only when a Newton step falls back to SuperLU (see
``mu_solver``): a command starts without paying for scipy.
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
from .ambient import Ambient, is_json_number
from .grid import Grid, InputError, build_grid

EXIT_ASSERTION = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4
FORMATS = ("json", "csv")


class ConfigError(InputError):
    """Bad input that the CLI itself reads: a flag, a config key or a file."""


@contextmanager
def _exit_on_error():
    """Map rejected input, a flag that click rejects included, to exit 3 and
    numerical failures, each a FloatingPointError, to exit 4."""
    try:
        yield
    except (InputError, click.UsageError) as exc:
        message = exc.format_message() if isinstance(exc, click.UsageError) else exc
        click.echo(f"config error: {message}", err=True)
        sys.exit(EXIT_CONFIG)
    except FloatingPointError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)


def _object(val, what: str) -> dict:
    if not isinstance(val, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return val


def _read_object(path: str, what: str) -> dict:
    """The JSON object in the file ``path``, a ``what`` (config or surface file)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    return _object(doc, what)


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
    "format": (f"one of {', '.join(FORMATS)}", lambda v: v in FORMATS),
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


def _checked(key: str, val, where: str):
    """``val``, the setting ``key`` given by ``where`` (a flag or the config
    key); a value of the wrong type (``CONFIG_TYPES``) is a ConfigError. The
    surface, which has no entry there, is checked where it is resolved."""
    if key in CONFIG_TYPES:
        want, ok = CONFIG_TYPES[key]
        if not ok(val):
            raise ConfigError(f"{where} must be {want}, got {val!r}")
    return val


def _flag_assertion(spec: str) -> tuple[str, bool]:
    """``name=true|false`` as (name, expected value)."""
    try:
        name, want_s = spec.split("=")
        return name.strip(), {"true": True, "false": False}[want_s.strip().lower()]
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad flag assertion {spec!r}") from exc


def _residual_assertion(spec: str) -> tuple[str, float]:
    """``name<=tol`` as (name, bound); a NaN bound is rejected, since it would
    pass any residual, and inf stays: it asserts only that the row is present."""
    try:
        name, tol_s = spec.split("<=")
        tol = float(tol_s)
        if tol != tol:
            raise ValueError("NaN bound")
    except ValueError as exc:
        raise ConfigError(f"bad residual assertion {spec!r}") from exc
    return name.strip(), tol


# list settings whose specs :func:`_settings` parses as it reads them
ASSERTION_PARSERS = {"assert_flags": _flag_assertion, "assert_residuals": _residual_assertion}


def _settings(config_path: str | None, flags: dict, **defaults) -> dict:
    """The setting of each flag: the flag if given, else its ``--config`` key,
    else its entry in ``defaults`` (every flag has one). A list setting puts
    the flag's entries first; ``params`` is the config object updated by the
    ``--param`` specs. Each value read is type-checked (:func:`_checked`), and
    each assertion spec is parsed (``ASSERTION_PARSERS``), so a bad one stops
    the command before any work."""
    cfg = {} if config_path is None else _read_object(config_path, "config")
    settings = {}
    for key, flag in flags.items():
        default = defaults[key]
        if key == "params":
            settings[key] = _parse_params(flag, cfg.get(key, default))
        elif flag is not None and flag is not False and not isinstance(default, list):
            settings[key] = _checked(key, flag, "--" + key.replace("_", "-"))
        else:
            val = _checked(key, cfg[key], f"{key!r} in --config") if key in cfg else default
            settings[key] = list(flag) + val if isinstance(default, list) else val
        if key in ASSERTION_PARSERS:
            settings[key] = [ASSERTION_PARSERS[key](spec) for spec in settings[key]]
    return settings


def _parse_grid_size(ctx, param, text: str | None) -> tuple[int, int] | None:
    """``--grid NUxNV`` as two integers, or None when it is not given."""
    if not text:
        return None
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
    """``params`` object ``base`` updated by ``key=value`` specs; a value that parses
    as a float becomes one, any other value stays a string (e.g. ``chart=polar``)."""
    params = dict(_object(base, "surface params"))
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


def _parse_periodic(ctx, param, text: str | None) -> tuple[bool, bool] | None:
    """``--periodic u,v`` as two booleans, or None when it is not given."""
    if not text:
        return None
    axes = {a.strip() for a in text.split(",") if a.strip()}
    bad = axes - {"u", "v"}
    if bad:
        raise ConfigError(f"unknown periodic axes {sorted(bad)}")
    return "u" in axes, "v" in axes


def _grid_from_dict(d: dict) -> Grid:
    """A surface file's grid: ``{"u": [start, end, nodes, periodic], "v": [...]}``,
    where start and end are finite JSON numbers, nodes a JSON integer and
    periodic a JSON bool."""
    axes = []
    for name in ("u", "v"):
        try:
            start, end, nodes, periodic = d[name]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad grid spec for {name!r}: {exc}") from exc
        for key, val in (("start", start), ("end", end)):
            if not is_json_number(val):
                raise ConfigError(f"grid {name!r} {key} must be a finite number, got {val!r}")
        if not isinstance(nodes, int) or isinstance(nodes, bool):
            raise ConfigError(f"grid {name!r} node count must be an integer, got {nodes!r}")
        if not isinstance(periodic, bool):
            raise ConfigError(f"grid {name!r} periodic flag must be true or false,"
                              f" got {periodic!r}")
        axes.append(((float(start), float(end)), nodes, periodic))
    (u_ext, nu, pu), (v_ext, nv, pv) = axes
    try:
        return build_grid(u_ext, v_ext, nu, nv, pu, pv)
    except InputError as exc:
        raise ConfigError(f"bad grid spec: {exc}") from exc


def _load_surface_file(path: str, fd_jets: bool):
    """The jet and label of the surface file at ``path``; with ``fd_jets`` a
    builtin's finite-difference twin."""
    doc = _read_object(path, "surface file")
    for key in ("grid", "surface"):
        if key not in doc:
            raise ConfigError(f"surface file missing {key!r}")
    grid = _grid_from_dict(doc["grid"])
    surf = _object(doc["surface"], "surface file entry 'surface'")
    if "builtin" in surf:
        name = surf["builtin"]
        if not isinstance(name, str):
            raise ConfigError(f"surface file entry 'builtin' must be a string, got {name!r}")
        params = _parse_params((), surf.get("params", {}))
        return corpus.build_builtin(name, grid, params, fd_jets), name
    if "positions" in surf:
        space = Ambient.from_spec(_object(doc.get("ambient", {}), "surface file entry 'ambient'"))
        return corpus.load_tabulated(grid, surf["positions"], space), "tabulated"
    raise ConfigError("surface entry needs either 'builtin' or 'positions'")


def _builtin_jet(name: str, params: dict, size, periodic=None, fd_jets: bool = False):
    """Builtin jet on its default grid resized to ``size`` (NU, NV), with the
    ``periodic`` (u, v) flags if given; with ``fd_jets`` its finite-difference
    twin."""
    nu, nv = size
    grid = replace(corpus.default_grid(name, n=nu, params=params), nu=nu, nv=nv)
    if periodic is not None:
        grid = replace(grid, periodic_u=periodic[0], periodic_v=periodic[1])
    return corpus.build_builtin(name, grid, params, fd_jets)


def _resolve_jet(s: dict):
    """Build an immersion jet from the settings of ``verify``; returns (jet,
    label). With ``fd_jets`` a builtin, named or from a surface file, is
    built as its finite-difference twin, positions alone."""
    surface = s["surface"]
    if surface is None:
        raise ConfigError("no surface given (use --surface or a config file)")
    if isinstance(surface, str) and surface in corpus.BUILTIN_MAKERS:
        size = s["grid_size"] or (64, 64)  # None until given: a surface file refuses it
        return _builtin_jet(surface, s["params"], size, s["periodic"], s["fd_jets"]), surface
    if not isinstance(surface, str):
        raise ConfigError(f"bad surface entry {surface!r}")
    # the file fixes the grid; an override would be silently dropped
    for key, flag in (("grid_size", "--grid"), ("periodic", "--periodic")):
        if s[key] is not None:
            raise ConfigError(f"{flag} (config {key!r}) does not apply to a surface"
                              f" file: {surface} fixes its own grid")
    return _load_surface_file(surface, s["fd_jets"])


def _write(text: str, output: str | None):
    """``text`` to the file ``output``, or to stdout when there is none; a file
    that cannot be written is a ConfigError that names it. Stdout gets the
    UTF-8 bytes, which click writes as they are: the same bytes, line ends
    included, as the file."""
    if not output:
        click.echo(text.encode("utf-8"), nl=False)
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
    """Failure messages of the parsed (name, expected) flag and (name, bound)
    residual assertions against ``rep``."""
    failures = []
    for name, want in assert_flags:
        got = rep.flags.get(name)
        if got is not want:
            failures.append(f"flag {name}: expected {want}, got {got}")
    for name, tol in assert_residuals:
        try:
            entry = rep.residual(name)
        except KeyError:
            failures.append(f"residual {name}: not in report")
            continue
        if not entry.linf <= tol:  # written so that a NaN residual fails
            failures.append(f"residual {name}: linf {entry.linf:.3e} > {tol:.3e}")
    return failures


class _Group(click.Group):
    """Runs each command, from the parsing of its flags on, in :func:`_exit_on_error`."""

    def invoke(self, ctx):
        with _exit_on_error():
            return super().invoke(ctx)


@click.group(cls=_Group)
def main():
    """Numerical verification toolkit for biconservative surface identities."""


@main.command("verify")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--surface", default=None, help="builtin name or surface-file path")
@click.option("--grid", "grid_size", default=None, callback=_parse_grid_size, help="NUxNV")
@click.option("--periodic", default=None, callback=_parse_periodic,
              help="comma list of periodic axes, e.g. u,v")
@click.option("--param", "params", multiple=True, help="builtin parameter, e.g. k=1.0")
@click.option("--fd-jets", is_flag=True, help="replace analytic jets by finite differences")
@click.option("--output", default=None, type=click.Path())
@click.option("--format", type=click.Choice(FORMATS), default=None)
@click.option("--tol-analytic", type=float, default=None)
@click.option("--tol-fd", type=float, default=None)
@click.option("--dump-fields", is_flag=True)
@click.option("--assert-flag", "assert_flags", multiple=True, help="name=true|false")
@click.option("--assert-residual", "assert_residuals", multiple=True, help="name<=tol")
def verify(config_path, **flags):
    """Run the residual suite on a surface and emit a report."""
    s = _settings(config_path, flags, surface=None, grid_size=None, periodic=None, params={},
                  fd_jets=False, output=None, format="json", tol_analytic=report_mod.TOL_ANALYTIC,
                  tol_fd=report_mod.TOL_FD, dump_fields=False, assert_flags=[], assert_residuals=[])
    jet, label = _resolve_jet(s)
    rep = report_mod.build_geometry_report(jet, surface_label=label,
                                           tol_analytic=float(s["tol_analytic"]),
                                           tol_fd=float(s["tol_fd"]), dump_fields=s["dump_fields"])
    _emit(rep, s["format"], s["output"])
    failures = _check_assertions(rep, s["assert_flags"], s["assert_residuals"])
    for f in failures:
        click.echo(f"assertion failed: {f}", err=True)
    if failures:
        sys.exit(EXIT_ASSERTION)


@main.command("solve-mu")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--H", "H", type=float, default=None, help="constant mean curvature norm")
@click.option("--KN", "KN", type=float, default=None, help="constant ambient curvature")
@click.option("--grid", "grid_size", default=None, callback=_parse_grid_size,
              help="NUxNV, doubly periodic on [0,2pi)^2")
@click.option("--mu0", type=float, default=None, help="constant initial guess")
@click.option("--perturb", type=float, default=None,
              help="relative sin(x)sin(y) perturbation of the initial guess")
@click.option("--tol-newton", type=float, default=None)
@click.option("--max-iter", type=int, default=None)
@click.option("--output", default=None, type=click.Path())
@click.option("--format", type=click.Choice(FORMATS), default=None)
@click.option("--dump-fields", is_flag=True)
def solve_mu_cmd(config_path, **flags):
    """Solve the principal-curvature-gap equation by damped Newton iteration."""
    from . import mu_solver

    s = _settings(config_path, flags, H=1.0, KN=0.0, grid_size=(64, 64), mu0=None,
                  perturb=0.0, tol_newton=mu_solver.TOL_NEWTON, max_iter=mu_solver.MAX_ITER,
                  output=None, format="json", dump_fields=False)
    Hval, KNval = float(s["H"]), float(s["KN"])
    nu, nv = s["grid_size"]
    grid = build_grid((0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi), nu, nv, True, True)
    base = float(s["mu0"]) if s["mu0"] is not None else mu_solver.constant_root(Hval, KNval)
    X, Y = grid.mesh()
    mu0 = base * (1.0 + float(s["perturb"]) * np.sin(X) * np.sin(Y))
    problem = mu_solver.MuProblem(grid, Hval, np.full(grid.shape, KNval), mu0)
    sol = mu_solver.solve_mu(problem, tol_newton=float(s["tol_newton"]),
                             max_iter=int(float(s["max_iter"])))
    _emit(report_mod.build_mu_report(sol, dump_fields=s["dump_fields"]), s["format"],
          s["output"])
    if not sol.converged:
        click.echo(f"numerical failure: {sol.reason or 'Newton iteration did not converge'}",
                   err=True)
        sys.exit(EXIT_NUMERICAL)


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
@click.option("--grid", "grid_size", default=None, callback=_parse_grid_size,
              help="coarsest level, NUxNV")
@click.option("--levels", type=int, default=None)
@click.option("--param", "params", multiple=True, help="builtin parameter, e.g. k=1.0")
@click.option("--fd-jets", is_flag=True)
@click.option("--output", default=None, type=click.Path())
def convergence(config_path, **flags):
    """Refinement study: residual norms and estimated decay orders per level."""
    s = _settings(config_path, flags, surface=None, grid_size=(32, 32), levels=3, params={},
                  fd_jets=False, output=None)
    nlevels = int(float(s["levels"]))
    if nlevels < 3:
        raise ConfigError("need at least 3 refinement levels")
    name = s["surface"]
    if not isinstance(name, str) or name not in corpus.BUILTIN_MAKERS:
        raise ConfigError(f"convergence needs a builtin surface, got {name!r}")
    nu0, nv0 = s["grid_size"]
    if nu0 != nv0:
        raise ConfigError(f"convergence refines square grids, got {nu0}x{nv0}")
    table = run_convergence(name, s["params"], nu0, nlevels, s["fd_jets"])
    _write(report_mod.to_json(table), s["output"])


def run_convergence(name: str, params: dict, n0: int, levels: int, fd_jets: bool) -> dict:
    """Residual L-inf per refinement level plus decay-order estimates, on the
    rows that ``report.ROWS`` marks; bad builtin parameters raise InputError."""
    series = {row: [] for row, _, order, _ in report_mod.ROWS if order}
    hs = []
    for level in range(levels):
        n = n0 * 2**level
        jet = _builtin_jet(name, params, (n, n), fd_jets=fd_jets)
        rep = report_mod.build_geometry_report(jet, surface_label=name)
        hs.append(jet.grid.hu)
        for row, linf in series.items():
            linf.append(rep.residual(row).linf)
    orders = {}
    for row, linf in series.items():
        steps = [estimate_order(a, b) for a, b in zip(linf, linf[1:])]
        orders[row] = "exact" if all(o == "exact" for o in steps) else steps
    return {"surface": name, "fd_jets": fd_jets, "h": hs, "residuals": series, "orders": orders}


if __name__ == "__main__":
    main()
