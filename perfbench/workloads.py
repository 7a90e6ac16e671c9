"""Workload definitions: seeded inputs, op order and per-op correctness checks.

An op is one ``biconsurf`` CLI invocation. Each workload is a fixed cycle of
ops built from the seed; the runner repeats the cycle until its time is up.
In each cycle one input family is the majority, so the median op is always
one of that family's; while that family is also the slowest, so is the
tail (p75). With evenly mixed families of different cost,
both would jump between families from run to run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

VERIFY_N = 256
SOLVE_N = 128
TOL_NEWTON = 1e-10


@dataclass(frozen=True)
class Op:
    family: str
    args: tuple[str, ...]
    params: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        """Identifies the input, for the repeated-input byte check."""
        return " ".join(self.args)


def _draw(rng, lo, hi, digits=4):
    return round(float(rng.uniform(lo, hi)), digits)


def _verify_op(name, params, n, fd_jets):
    args = ["verify", "--surface", name, "--grid", f"{n}x{n}"]
    for key, val in params.items():
        args += ["--param", f"{key}={val!r}"]
    if fd_jets:
        args += ["--fd-jets", "--dump-fields"]
    return Op(name, tuple(args), dict(params))


def _solve_op(family, H, KN, perturb, n):
    args = ("solve-mu", "--H", repr(H), "--KN", repr(KN), "--grid", f"{n}x{n}",
            "--perturb", repr(perturb), "--tol-newton", repr(TOL_NEWTON))
    return Op(family, args, {"H": H, "KN": KN, "perturb": perturb})


def _cycle(pattern, inputs):
    """Two passes over the pattern, alternating each family's two inputs."""
    seen = {}
    ops = []
    for _ in range(2):
        for fam in pattern:
            i = seen.get(fam, 0)
            ops.append(inputs[fam][i % len(inputs[fam])])
            seen[fam] = i + 1
    return ops


def verify_analytic(rng, n=VERIFY_N):
    inputs = {"helix_line_r4": [], "product_torus": [], "sphere": []}
    for _ in range(2):
        inputs["helix_line_r4"].append(_verify_op(
            "helix_line_r4", {"k": _draw(rng, 0.6, 1.6), "tau": _draw(rng, 0.2, 1.0)}, n, False))
        inputs["product_torus"].append(_verify_op(
            "product_torus", {"r1": _draw(rng, 0.7, 1.5), "r2": _draw(rng, 0.7, 1.5)}, n, False))
        inputs["sphere"].append(_verify_op("sphere", {"r": _draw(rng, 0.5, 2.0)}, n, False))
    pattern = ["helix_line_r4", "product_torus", "helix_line_r4",
               "helix_line_r4", "sphere", "helix_line_r4"]
    return _cycle(pattern, inputs)


def verify_tabulated(rng, n=VERIFY_N):
    # |stretch| >= 0.1 keeps the chart non-isothermal; r >= 1 keeps the FD
    # stress divergence below the default 1e-3 tolerance at 256^2
    cyl = []
    for _ in range(2):
        stretch = _draw(rng, 0.1, 0.4) * (1 if rng.uniform() < 0.5 else -1)
        cyl.append(_verify_op("cylinder", {"r": _draw(rng, 1.0, 1.6), "stretch": stretch}, n, True))
    inputs = {"cylinder": cyl, "graph": [_verify_op("graph", {}, n, True)]}
    return _cycle(["cylinder", "graph", "cylinder"], inputs)


def solve_mu(rng, n=SOLVE_N):
    # README problem: H=1, K_N=0 and the sin x sin y perturbation, which is
    # the near-null Fourier mode of the linearization; amplitudes in
    # [0.09, 0.105] take 11 Newton iterations at 128^2. Generic solves take
    # 3-4 iterations, 2.5x less time, so they come only after eleven README
    # solves: the median and the tail (p75) are then README solves at any
    # op count.
    readme = [_solve_op("readme", 1.0, 0.0, _draw(rng, 0.09, 0.105), n) for _ in range(2)]
    # generic problems keep K_N in [0.15, 0.6], away from the resonances
    # K_N = 0, -3H^2/4 and 3H^2 of the low Fourier modes
    generic = [_solve_op("generic", _draw(rng, 0.7, 1.3), _draw(rng, 0.15, 0.6),
                         _draw(rng, 0.05, 0.15), n) for _ in range(2)]
    return _cycle(["readme"] * 11 + ["generic"],
                  {"readme": readme, "generic": generic})


WORKLOADS = {
    "verify-analytic": verify_analytic,
    "verify-tabulated": verify_tabulated,
    "solve-mu": solve_mu,
}


def make_ops(workload: str, seed: int, size: int | None = None) -> list[Op]:
    rng = np.random.default_rng(seed)
    build = WORKLOADS[workload]
    return build(rng) if size is None else build(rng, size)


def check(op: Op, exit_code: int, out: bytes) -> str | None:
    """Reason the op failed, or None. The repeated-input check is the runner's."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        doc = json.loads(out)
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    linf = {r["name"]: r["linf"] for r in doc["residuals"]}
    flags = doc["flags"]
    if op.args[0] == "solve-mu":
        if flags.get("converged") is not True:
            return "solve did not converge"
        if not linf["gap_equation"] <= TOL_NEWTON:
            return f"gap_equation linf {linf['gap_equation']:.3e} > {TOL_NEWTON:g}"
        return None
    from biconsurf import corpus

    expected = corpus.expected_values(op.family, op.params)
    if flags.get("is_biconservative") is not expected["biconservative"]:
        return f"is_biconservative={flags.get('is_biconservative')}, oracle {expected['biconservative']}"
    if "pmc" in expected and flags.get("is_pmc") is not expected["pmc"]:
        return f"is_pmc={flags.get('is_pmc')}, oracle {expected['pmc']}"
    if doc["meta"]["jet_source"] == "analytic":
        tol = doc["meta"]["tolerance"]
        if not linf["stress_divergence"] <= tol:
            return f"stress_divergence {linf['stress_divergence']:.3e} > tolerance {tol:g}"
    return None
