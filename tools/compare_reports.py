"""Compare the CLI outputs of two biconsurf source trees, case by case.

Usage::

    python tools/compare_reports.py OLD_SRC NEW_SRC [--case NAME ...] [--list]

``OLD_SRC`` and ``NEW_SRC`` are directories holding the ``biconsurf``
package (a checkout's ``src``).  Every case runs ``python -m biconsurf.cli``
once per tree, each in a fresh interpreter, on the same input files.  The
cases cover every builtin surface (two parameter sets each except the graph,
the polar sphere through a config file, and a third cylinder, of radius 0.6
with stretch 0.4), analytic and ``--fd-jets``, with
``--dump-fields``, at 32^2 and 96^2; eight ``solve-mu`` runs (two at 64^2,
one on an unequal and one on an odd grid, the benchmark's 128^2 README
problem, two far from the constant root, named ``solve_mu_lu_*`` after
the SuperLU fallback they once reached, and one whose residual overflows
at the initial guess, which pins that failure's exit code and stderr); one
``convergence`` study; one CSV report; a tabulated torus in the sphere
S^3(1) at 32^2 and 64^2, and one in S^3(2) at 32^2, where r and r^2 differ;
at 32^2 and 64^2, a tabulated product torus in R^4 at the angles
(u + 0.3 sin u, v), the only doubly periodic input with no isothermal chart;
and three runs that read their settings from a config file: a ``verify``
config that sets every ``verify`` key but ``output`` (so that the report
reaches stdout), the same config under ``--grid``, ``--tol-fd`` and one
``--assert-flag``, where assertions fail (exit 2, and the order of the
failure lines is compared), and a ``solve-mu`` config that sets every
``solve-mu`` key but ``output``, ``format`` and ``dump_fields``.
Five ``verify`` runs at 256^2 are the only cases that a report takes in
more than one u-strip (every other grid is too small to split, with fewer
than ``report.MIN_STRIPS`` strips):
the analytic helix (open u), the ``--fd-jets`` Mercator sphere (periodic u),
the ``--fd-jets --dump-fields`` graph (open u), read from a surface file's
position table, the cylinder of radius 1.2 with stretch 0.3 (periodic u),
and the analytic product torus, the one doubly periodic grid among them,
whose integral rows sum the integrands of every strip.
That is 63 cases.

For each case it prints both exit codes, whether stdout is byte-identical,
the largest |diff| over the numbers in stdout, the largest relative diff
over those above 1e-8 in magnitude, and any non-numeric difference; for a
case past the bar, also where the first text difference or else the number
furthest past the bar sits (its line in the old stdout and the nearest JSON
key before it).  Below such a case it lists every number past the bar, one
per line: its line, the nearest JSON key, the old and the new value and
|d|.  When the text between the numbers differs and both stdouts are JSON,
it compares the two documents structurally instead: residuals are matched
by ``name`` and other list entries by index, and below the case it lists
every key path present on one side only, every non-numeric value that
differs, and every number at the shared paths past the bar (the max|d|
columns then cover the shared numbers).  When either stdout holds a dumped
field as a base64 blob (``{"dtype", "shape", "base64"}``), the top-level
``fields`` object is cut out of both texts before these checks, and each
field is compared as an array, whether it is written as a blob or as nested
number lists; NaNs at the same place agree, every entry past the bar is
listed by its index, and the stdout column reads ``fields-only`` when every
byte outside ``fields`` is identical.  It
exits 1 when an exit code, stderr or a non-numeric byte of stdout differs,
or when any number moves by more than 1e-12 max(1, |x|).
"""

from __future__ import annotations

import argparse
import binascii
import bisect
import functools
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np

TOL = 1e-12
REL_FLOOR = 1e-8

# a JSON or CSV number that is not part of a name such as "lambda1_min"
NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?(?![\w.])")
# a JSON object key, as report_to_json writes it
JSON_KEY = re.compile(r'"([^"\\]*)": ')
# the top-level "fields" key, and the key of a field's base64 blob
FIELDS_KEY = ',\n  "fields": '
BLOB_KEY = '"base64": "'

VERIFY_SETS = [
    ("helix", ["--surface", "helix_line_r4"]),
    ("helix_tau", ["--surface", "helix_line_r4", "--param", "tau=0.5"]),
    ("cylinder", ["--surface", "cylinder"]),
    ("cylinder_stretch", ["--surface", "cylinder", "--param", "stretch=0.3"]),
    # r != 1, where u / r and stretch sin(u / r) differ from u and stretch sin u
    ("cylinder_r06_stretch", ["--surface", "cylinder", "--param", "r=0.6",
                              "--param", "stretch=0.4"]),
    ("torus", ["--surface", "product_torus"]),
    ("torus_r2", ["--surface", "product_torus", "--param", "r1=1.0", "--param", "r2=1.5"]),
    ("sphere", ["--surface", "sphere"]),
    ("sphere_polar", ["--config", "polar_sphere.json"]),
    ("graph", ["--surface", "graph"]),
]


def cases() -> dict[str, list[str]]:
    """Case name -> CLI arguments, run with the inputs of ``write_inputs``."""
    out = {}
    for label, args in VERIFY_SETS:
        for n in (32, 96):
            for jets, extra in (("an", []), ("fd", ["--fd-jets"])):
                out[f"{label}_{jets}{n}"] = (
                    ["verify", *args, "--grid", f"{n}x{n}", "--dump-fields", *extra])
    solve = ["solve-mu", "--grid", "64x64", "--perturb", "0.1", "--dump-fields"]
    out["solve_mu"] = [*solve, "--H", "1", "--KN", "0"]
    out["solve_mu_generic"] = [*solve, "--H", "1.1", "--KN", "0.3"]
    # unequal and odd grids: h_u != h_v, and no Nyquist mode along an odd axis
    for nu, nv in ((40, 72), (33, 48)):
        out[f"solve_mu_{nu}x{nv}"] = ["solve-mu", "--grid", f"{nu}x{nv}", "--perturb", "0.1",
                                      "--dump-fields", "--H", "1", "--KN", "0"]
    # the benchmark's input: 6 Newton steps through the near-null sin x sin y mode
    out["solve_mu_128"] = ["solve-mu", "--H", "1.0", "--KN", "0.0", "--grid", "128x128",
                           "--perturb", "0.1", "--tol-newton", "1e-10"]
    # far from constant.  Neither reaches the SuperLU fallback its name is
    # after; the names stay so that two trees pair by name.  K_N = -2 < -H^2
    # everywhere has no periodic solution and exits 4 before Newton runs; the
    # strong perturbation converges to a non-constant mu in 6 steps.  Any
    # translate of that mu solves the equation too, so where Newton stops
    # along them rests on round-off, and it is compared on its summaries only
    # (no --dump-fields).
    out["solve_mu_lu_negative_KN"] = ["solve-mu", "--H", "1", "--KN", "-2", "--mu0", "1",
                                      "--perturb", "0.1", "--grid", "64x64", "--dump-fields"]
    out["solve_mu_lu_perturb"] = ["solve-mu", "--H", "1", "--KN", "-0.5", "--perturb", "0.9",
                                  "--grid", "32x32"]
    # 2 (K_N + |H|^2) / mu overflows: exit 4 before Newton, the report says inf
    out["solve_mu_overflow"] = ["solve-mu", "--KN", "1e308", "--grid", "8x8"]
    out["convergence"] = ["convergence", "--surface", "cylinder", "--grid", "16x16",
                          "--levels", "3", "--param", "stretch=0.3", "--fd-jets"]
    out["csv_helix"] = ["verify", "--surface", "helix_line_r4", "--grid", "32x32",
                        "--param", "tau=0.5", "--format", "csv"]
    for n in (32, 64):
        out[f"torus_s3_{n}"] = ["verify", "--surface", f"torus_s3_{n}.json"]
        out[f"torus_stretch_{n}"] = ["verify", "--surface", f"torus_stretch_{n}.json"]
    out["torus_s3r2_32"] = ["verify", "--surface", "torus_s3r2_32.json"]
    out["config_verify"] = ["verify", "--config", "verify_config.json"]
    out["config_verify_flags"] = ["verify", "--config", "verify_config.json", "--grid", "48x48",
                                  "--tol-fd", "1e-4", "--assert-flag", "ah_parallel=true"]
    out["config_solve_mu"] = ["solve-mu", "--config", "solve_mu_config.json"]
    strips = ["verify", "--grid", "256x256"]
    out["strips_helix_an256"] = [*strips, "--surface", "helix_line_r4"]
    out["strips_sphere_fd256"] = [*strips, "--surface", "sphere", "--fd-jets"]
    out["strips_graph_fd256"] = [*strips, "--surface", "graph", "--fd-jets", "--dump-fields"]
    out["strips_cylinder_table256"] = ["verify", "--surface", "cylinder_table_256.json",
                                       "--dump-fields"]
    out["strips_torus_an256"] = [*strips, "--surface", "product_torus"]
    return out


def _torus_in_s3(n: int, r1: float = 0.6, r2: float = 0.8, radius: float = 1.0) -> dict:
    """Surface file: S^1(r1) x S^1(r2) in S^3(radius), where
    r1^2 + r2^2 = radius^2, tabulated."""
    u = 2.0 * math.pi * r1 * np.arange(n) / n
    v = 2.0 * math.pi * r2 * np.arange(n) / n
    U, V = np.meshgrid(u, v, indexing="ij")
    pos = np.stack([r1 * np.cos(U / r1), r1 * np.sin(U / r1),
                    r2 * np.cos(V / r2), r2 * np.sin(V / r2)], axis=-1)
    return {
        "grid": {"u": [0.0, 2.0 * math.pi * r1, n, True],
                 "v": [0.0, 2.0 * math.pi * r2, n, True]},
        "ambient": {"kind": "sphere", "dim": 3, "radius": radius},
        "surface": {"positions": pos.reshape(-1, 4).tolist()},
    }


def _torus_stretch(n: int, r1: float = 1.0, r2: float = 2.0, stretch: float = 0.3) -> dict:
    """Surface file: S^1(r1) x S^1(r2) in R^4 at the angles
    (u + stretch sin u, v), tabulated; its metric is not isothermal."""
    u = 2.0 * math.pi * np.arange(n) / n
    U, V = np.meshgrid(u, u, indexing="ij")
    th = U + stretch * np.sin(U)
    pos = np.stack([r1 * np.cos(th), r1 * np.sin(th),
                    r2 * np.cos(V), r2 * np.sin(V)], axis=-1)
    return {
        "grid": {"u": [0.0, 2.0 * math.pi, n, True], "v": [0.0, 2.0 * math.pi, n, True]},
        "ambient": {"kind": "euclidean", "dim": 4},
        "surface": {"positions": pos.reshape(-1, 4).tolist()},
    }


def _cylinder_table(n: int, r: float = 1.2, stretch: float = 0.3) -> dict:
    """Surface file: the cylinder of radius r in R^3 at the angle
    u / r + stretch sin(u / r), tabulated on n x n nodes, periodic in u."""
    u = 2.0 * math.pi * r * np.arange(n) / n
    v = np.arange(n) / (n - 1)
    U, V = np.meshgrid(u, v, indexing="ij")
    th = U / r + stretch * np.sin(U / r)
    pos = np.stack([r * np.cos(th), r * np.sin(th), V], axis=-1)
    return {
        "grid": {"u": [0.0, 2.0 * math.pi * r, n, True], "v": [0.0, 1.0, n, False]},
        "surface": {"positions": pos.reshape(-1, 3).tolist()},
    }


def write_inputs(workdir: str, cases: list[list[str]]):
    """Write the input files that the argument lists ``cases`` name; a
    tabulated surface is made only when it is written."""
    docs = {
        "polar_sphere.json": {"surface": "sphere", "params": {"chart": "polar"}},
        # is_cmc holds at tol_fd 5e-2 on 32^2 and fails at 1e-4 on 48^2
        "verify_config.json": {
            "surface": "cylinder", "params": {"r": 0.6, "stretch": 0.4},
            "grid_size": [32, 32], "periodic": [True, False], "fd_jets": True,
            "dump_fields": True, "format": "csv", "tol_analytic": 1e-6, "tol_fd": 5e-2,
            "assert_flags": ["is_cmc=true"],
            "assert_residuals": ["divergence_route_gap<=1e-12", "trace_balance<=5e-2"]},
        "solve_mu_config.json": {"H": 1.1, "KN": 0.3, "grid_size": [40, 48], "mu0": 2.5,
                                 "perturb": 0.2, "tol_newton": 1e-9, "max_iter": 20},
    }
    for n in (32, 64):
        docs[f"torus_s3_{n}.json"] = functools.partial(_torus_in_s3, n)
        docs[f"torus_stretch_{n}.json"] = functools.partial(_torus_stretch, n)
    docs["torus_s3r2_32.json"] = functools.partial(_torus_in_s3, 32, 1.2, 1.6, 2.0)
    docs["cylinder_table_256.json"] = functools.partial(_cylinder_table, 256)
    named = {arg for args in cases for arg in args}
    for name, doc in docs.items():
        if name in named:
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                json.dump(doc() if callable(doc) else doc, fh)


def run_case(src: str, args: list[str], workdir: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run([sys.executable, "-m", "biconsurf.cli", *args], cwd=workdir,
                          env=env, capture_output=True, text=True, timeout=600)


def locator(text: str):
    """A function mapping a character position of ``text`` to its line number
    and the last JSON key before it, by bisection over indexes built once."""
    breaks = [m.start() for m in re.finditer("\n", text)]
    keys = list(JSON_KEY.finditer(text))
    key_ends = [m.end() for m in keys]

    def locate(pos: int) -> tuple[int, str | None]:
        k = bisect.bisect_right(key_ends, pos)
        return bisect.bisect_left(breaks, pos) + 1, keys[k - 1].group(1) if k else None

    return locate


def _children(x) -> dict | None:
    """The entries of a JSON container by path label, or None for a scalar.
    A list whose entries all carry a ``name`` is labelled by name."""
    if isinstance(x, dict):
        return {f".{k}": v for k, v in x.items()}
    if isinstance(x, list):
        named = bool(x) and all(isinstance(e, dict) and "name" in e for e in x)
        return {f"[{e['name'] if named else i}]": e for i, e in enumerate(x)}
    return None


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_blob(x) -> bool:
    return isinstance(x, dict) and "base64" in x


def _field_array(x) -> np.ndarray:
    """A dumped field as a float64 array, from its blob or its nested lists
    (where a non-finite entry is the string "nan", "inf" or "-inf")."""
    if _is_blob(x):
        return np.frombuffer(binascii.a2b_base64(x["base64"]), x["dtype"]).reshape(x["shape"])
    return np.array(x, dtype=np.float64)


def compare_json(old, new) -> dict:
    """Walk two parsed JSON documents side by side. Returns the key paths
    found on one side only (``only_old``, ``only_new``), the non-numeric
    values that differ at a shared path (``changed``: path, old, new), every
    shared number past the bar (``past``: path, old, new, |d|), and the
    largest |diff| and relative diff over the shared numbers. Where either
    side is a field blob, both sides are compared as arrays, entry by entry."""
    out = {"only_old": [], "only_new": [], "changed": [], "past": [],
           "max_abs": 0.0, "max_rel": 0.0}

    def arrays(a, b, path):
        x, y = _field_array(a), _field_array(b)
        if x.shape != y.shape:
            out["changed"].append((path.lstrip("."), f"shape {list(x.shape)}",
                                   f"shape {list(y.shape)}"))
            return
        with np.errstate(invalid="ignore"):
            same = (x == y) | (np.isnan(x) & np.isnan(y))
            d = np.where(same, 0.0, np.nan_to_num(np.abs(x - y), nan=np.inf))
        if d.size:
            out["max_abs"] = max(out["max_abs"], float(d.max()))
            scale = np.maximum(np.abs(x), np.abs(y))
            big = scale > REL_FLOOR
            if big.any():
                out["max_rel"] = max(out["max_rel"], float((d[big] / scale[big]).max()))
        limit = np.where(np.isfinite(x), TOL * np.maximum(1.0, np.abs(x)), 0.0)
        for i in zip(*np.nonzero(d > limit)):
            out["past"].append((f"{path.lstrip('.')}{list(map(int, i))}",
                                float(x[i]), float(y[i]), float(d[i])))

    def walk(a, b, path):
        if _is_blob(a) or _is_blob(b):
            return arrays(a, b, path)
        ca, cb = _children(a), _children(b)
        if ca is not None and cb is not None and type(a) is type(b):
            for label, v in ca.items():
                if label in cb:
                    walk(v, cb[label], path + label)
                else:
                    out["only_old"].append((path + label).lstrip("."))
            out["only_new"] += [(path + k).lstrip(".") for k in cb if k not in ca]
        elif _is_number(a) and _is_number(b):
            d = abs(a - b)
            out["max_abs"] = max(out["max_abs"], d)
            if max(abs(a), abs(b)) > REL_FLOOR:
                out["max_rel"] = max(out["max_rel"], d / max(abs(a), abs(b)))
            if d > TOL * max(1.0, abs(a)):
                out["past"].append((path.lstrip("."), a, b, d))
        elif type(a) is not type(b) or a != b:
            out["changed"].append((path.lstrip("."), a, b))

    walk(old, new, "")
    return out


def _cut_fields(text: str) -> tuple[str, dict]:
    """``text`` without its top-level ``fields`` object, and that object
    parsed ({} when there is none)."""
    start = text.rfind(FIELDS_KEY)
    if start < 0:
        return text, {}
    end = text.rindex("\n}")
    return text[:start] + text[end:], json.loads(text[start + len(FIELDS_KEY):end])


def _first_field_problem(fields: dict) -> str | None:
    """The path of the first field on one side only or of another shape,
    else of the first field entry past the bar, else None."""
    paths = (fields["only_old"] + fields["only_new"]
             + [p[0] for p in fields["changed"] + fields["past"]])
    return paths[0] if paths else None


def compare_text(old: str, new: str) -> dict:
    """Largest |diff| and relative diff of the numbers, whether the text
    between the numbers (and their count) is the same, and where (line, key)
    in ``old`` the first differing byte of that text sits, or, when it is
    the same, the number furthest past the bar. ``past`` lists every number
    past the bar, in order, as (line, key, old text, new text, |d|).
    ``structure`` is ``compare_json`` of the two documents when the text
    differs and both parse as JSON, else None.

    When either text holds a field blob, the top-level ``fields`` objects
    are cut out of both before all that, and ``fields`` is their
    ``compare_json`` (whose numbers count in ``max_abs`` and ``max_rel``),
    with ``fields_where`` the path ``_first_field_problem`` names, and
    ``outside_fields_identical`` tells whether the rest is byte-identical;
    else all three are None. ``within`` also needs ``fields_where`` to be
    None."""
    identical = old == new
    fields = fields_where = None
    if BLOB_KEY in old or BLOB_KEY in new:
        (old, old_fields), (new, new_fields) = _cut_fields(old), _cut_fields(new)
        fields = compare_json({"fields": old_fields}, {"fields": new_fields})
        fields_where = _first_field_problem(fields)
    old_parts, new_parts = NUMBER.split(old), NUMBER.split(new)
    old_nums, new_nums = list(NUMBER.finditer(old)), NUMBER.findall(new)
    same_text = old_parts == new_parts and len(old_nums) == len(new_nums)
    max_abs = max_rel = worst = 0.0
    where = structure = None
    past = []
    locate = locator(old)
    if not same_text:
        # the first differing byte of the text between the numbers
        pos = len(old)
        for i, (a_part, b_part) in enumerate(zip(old_parts, new_parts)):
            if a_part != b_part:
                start = old_nums[i - 1].end() if i else 0
                pos = start + len(os.path.commonprefix([a_part, b_part]))
                break
        where = locate(pos)
        try:
            structure = compare_json(json.loads(old), json.loads(new))
            max_abs, max_rel = structure["max_abs"], structure["max_rel"]
        except ValueError:  # not JSON: a CSV report or an error message
            pass
    else:
        for a_m, b_s in zip(old_nums, new_nums):
            a, b = float(a_m.group()), float(b_s)
            d = abs(a - b)
            max_abs = max(max_abs, d)
            if max(abs(a), abs(b)) > REL_FLOOR:
                max_rel = max(max_rel, d / max(abs(a), abs(b)))
            excess = d / (TOL * max(1.0, abs(a)))
            if excess > 1.0:
                past.append((*locate(a_m.start()), a_m.group(), b_s, d))
                if excess > worst:
                    worst, where = excess, past[-1][:2]
    if fields is not None:
        max_abs, max_rel = max(max_abs, fields["max_abs"]), max(max_rel, fields["max_rel"])
    return {"identical": identical,
            "outside_fields_identical": old == new if fields is not None else None,
            "same_text": same_text,
            "max_abs": max_abs, "max_rel": max_rel,
            "within": where is None and fields_where is None,
            "where": where, "past": past, "structure": structure,
            "fields": fields, "fields_where": fields_where}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--case", action="append", default=None,
                    help="run only this case (repeatable)")
    ap.add_argument("--list", action="store_true", help="print the case names and exit")
    opts = ap.parse_args(argv)

    table = cases()
    if opts.list:
        print("\n".join(table))
        return 0
    names = opts.case or list(table)
    unknown = [n for n in names if n not in table]
    if unknown:
        ap.error(f"unknown case(s) {unknown}; see --list")

    failed = []
    print(f"{'case':24} {'exit':>5}  {'stdout':11} {'max|d|':>9} {'max rel d':>9}  note")
    with tempfile.TemporaryDirectory() as workdir:
        write_inputs(workdir, [table[name] for name in names])
        for name in names:
            old = run_case(opts.old_src, table[name], workdir)
            new = run_case(opts.new_src, table[name], workdir)
            cmp = compare_text(old.stdout, new.stdout)
            notes = []
            if old.returncode != new.returncode:
                notes.append("exit code differs")
            if old.stderr != new.stderr:
                notes.append("stderr differs")
            if cmp["where"] is not None:
                line, key = cmp["where"]
                at = f"at line {line}" + (f" after key {key!r}" if key is not None else "")
                notes.append(f"non-numeric stdout differs; first text difference {at}"
                             if not cmp["same_text"] else
                             f"a number moved by more than {TOL:g} max(1, |x|); largest {at}")
            if cmp["fields_where"] is not None:
                notes.append(f"fields differ; first at {cmp['fields_where']}")
            if notes:
                failed.append(name)
            stdout = ("identical" if cmp["identical"] else
                      "fields-only" if cmp["outside_fields_identical"] else "differs")
            print(f"{name:24} {old.returncode:>2}/{new.returncode:<2}  {stdout:11} "
                  f"{cmp['max_abs']:9.2g} {cmp['max_rel']:9.2g}  {'; '.join(notes)}")
            for line, key, a, b, d in cmp["past"]:
                print(f"    line {line} {key!r}: {a} -> {b}, |d| {d:.2g}")
            for st in (cmp["structure"], cmp["fields"]):
                if st is None:
                    continue
                for side in ("old", "new"):
                    for path in st[f"only_{side}"]:
                        print(f"    only in {side}: {path}")
                for path, a, b in st["changed"]:
                    print(f"    {path}: {json.dumps(a)} -> {json.dumps(b)}")
                for path, a, b, d in st["past"]:
                    print(f"    {path}: {a!r} -> {b!r}, |d| {d:.2g}")
    print(f"{len(names) - len(failed)} of {len(names)} cases agree"
          + (f"; failed: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
