"""End-to-end benchmark of the ``biconsurf`` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload verify-analytic --seed 1 --seconds 30 --trace 0

Each op is one ``verify`` or ``solve-mu`` invocation through
``click.testing.CliRunner``, in process, from one client in a closed loop
(the next op starts when the previous one returns). Inputs come from
``--seed``; every op's output is checked (see ``workloads.check``) and a
repeated input must give the same report bytes.

Every time metric is given in reference-speed seconds: each timed interval
is scaled by the speed of the machine at that moment, measured by a fixed
reference kernel timed right before and right after it (see ``Reference``).
The raw wall times go to the run record.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half of
``--seconds`` untraced and half traced, and prints the per-layer metrics
(per op) plus the tracing overhead. The last line of standard output is one
JSON object; the run record (seed, versions, backend, per-op times) goes to
``perfbench/out/``. ``--size`` and ``--ops`` shrink a run for the self-test.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from contextlib import nullcontext
from importlib import metadata
from pathlib import Path
from time import perf_counter
from weakref import WeakKeyDictionary

from tracing import ROOT_SPAN, Tracer
from workloads import WORKLOADS, check, make_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_TRIALS = 5
# the reference kernel's time on a 2-vCPU Xeon VM in its fast state; it only
# sets the unit, and is the same for every commit
REF_S = 0.1
SETUP_CODE = (
    "import time; t = time.perf_counter(); import biconsurf.cli; "
    "print(time.perf_counter() - t)"
)
PEAK_RSS_CODE = (
    "import resource, sys\n"
    "from click.testing import CliRunner\n"
    "from biconsurf.cli import main\n"
    "code = CliRunner().invoke(main, sys.argv[1:]).exit_code\n"
    "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
)
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# per-op means of the tracer summary, named <span>.<calls|s|self_s>
SPAN_METRICS = (
    "cli.self_s",
    "corpus.make_builtin.s",
    "corpus.tabulate.s",
    "grid.fd_derivative.calls",
    "grid.fd_derivative.self_s",
    "kernels.derivative.calls",
    "kernels.derivative.s",
    "immersion.compute_geometry.s",
    "immersion.induced_metric.s",
    "immersion.second_fundamental_form.s",
    "immersion.surface_christoffels.s",
    "immersion.normal_connection_H.s",
    "immersion.gauss_curvature_extrinsic.s",
    "tensors.cov_derivative_coords.calls",
    "tensors.cov_derivative_coords.self_s",
    "tensors.holomorphicity_residual.s",
    "tensors.codazzi_defect_coords.s",
    "checks.biconservativity_residuals.calls",
    "checks.biconservativity_residuals.s",
    "checks.simons_residual.s",
    "checks.integral_formula_check.s",
    "checks.vector_norms.s",
    "report.build_geometry_report.self_s",
    "report.report_to_json.s",
    "report.build_mu_report.s",
    "mu_solver.solve_mu.s",
    "mu_solver.mu_residual.calls",
    "mu_solver.jacobian.s",
    "mu_solver.linear_solve.s",
    "mu_solver.operators.s",
)
COUNTS = {
    "kernels.bytes_computed": "B",
    "report.json_bytes": "B",
    "mu_solver.newton_iters": "count",
    "mu_solver.lsmr_fallbacks": "count",
}


class BenchError(RuntimeError):
    pass


def import_package():
    """Import biconsurf from this checkout's src/, never from elsewhere."""
    if not (SRC / "biconsurf" / "cli.py").is_file():
        raise BenchError(f"no biconsurf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import biconsurf.cli

    if Path(biconsurf.cli.__file__).resolve().parent != SRC / "biconsurf":
        raise BenchError(f"imported biconsurf from {biconsurf.cli.__file__}, not {SRC}")
    return biconsurf.cli


def fresh_python(code, *args) -> str:
    """Run `code` in a fresh interpreter that imports biconsurf from src/."""
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"fresh interpreter failed:\n{proc.stderr}")
    return proc.stdout


def fresh_call_peak_rss_mb(op) -> float:
    """Peak RSS of one CLI call in its own process, as a shell user runs it.

    In this long-lived process the peak depends on the allocator's history
    (it varied by 10% between runs of one seed); in a fresh one it repeats
    to 0.1%.
    """
    _, kib = fresh_python(PEAK_RSS_CODE, *op.args).split()
    return int(kib) / 1024.0


class Reference:
    """Machine speed, from a fixed numpy-plus-Python kernel.

    The VMs this runs on change speed by up to 1.6x for minutes at a time
    (neighbours on the shared host), so raw wall times of the same code
    spread past any useful bound from run to run. The kernel here does not
    depend on biconsurf: numpy products on 256^2 fields of 3x3 matrices (the
    size of the verify fields) and a pure Python loop. `scale` turns a wall
    time into reference-speed seconds, wall * REF_S / kernel time, with the
    kernel timed just before and just after the interval and the faster of
    the two taken. On a 270-s trace, 18-op window medians of scaled verify
    op times spread 0.03 of their median against 0.18 unscaled.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.standard_normal((256, 256, 3, 3))
        self.b = rng.standard_normal((256, 256, 3, 3))
        self.times: list[float] = []
        self.last = self.time()  # the first call also warms up the arrays
        self.last = self.time()

    def time(self) -> float:
        np = self.np
        t0 = perf_counter()
        for _ in range(5):
            c = np.einsum("ijab,ijbc->ijac", self.a, self.b)
            np.sqrt(np.abs(c)) + self.a * self.b
        acc = 0
        for i in range(250_000):
            acc += i * i % 7
        dt = perf_counter() - t0
        self.times.append(dt)
        return dt

    def scale(self, wall: float) -> float:
        """Reference-speed seconds of an interval that has just ended."""
        before, self.last = self.last, self.time()
        return wall * REF_S / min(before, self.last)


class SetupTimer:
    """Seconds to `import biconsurf.cli` in fresh interpreters.

    The trials are spread evenly over the measured window, so their median
    is not taken from one short stretch of a machine whose speed drifts.
    """

    def __init__(self, ref, trials=SETUP_TRIALS):
        self.ref = ref
        self.trials = trials
        self.wall: list[float] = []
        self.times: list[float] = []

    def trial(self) -> float:
        """Run one trial; return the wall time it took, process start included."""
        t0 = perf_counter()
        wall = float(fresh_python(SETUP_CODE).split()[-1])
        self.wall.append(wall)
        self.times.append(self.ref.scale(wall))
        return perf_counter() - t0

    def due(self, fraction_done) -> bool:
        return len(self.times) < self.trials and fraction_done >= len(self.times) / self.trials

    def finish(self):
        while len(self.times) < self.trials:
            self.trial()


def _git_sha():
    if not (ROOT / ".git").exists():  # the checkout may sit inside another repository
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_record(args) -> dict:
    import numpy
    import scipy
    from biconsurf import kernels

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": metadata.version("click"),
        "kernels_backend": kernels.backend_name(),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
    }


def release_click_streams():
    """Drop the output of finished CliRunner invocations.

    click caches a text wrapper per ``sys.stdout`` object in a
    WeakKeyDictionary whose value can be the key itself, so each captured
    output stays alive: about 14 MB per verify-tabulated op. Clearing the
    caches keeps every op starting from the same heap.
    """
    from click import _compat

    for name in ("_default_text_stdin", "_default_text_stdout", "_default_text_stderr"):
        for cell in getattr(getattr(_compat, name, None), "__closure__", None) or ():
            if isinstance(cell.cell_contents, WeakKeyDictionary):
                cell.cell_contents.clear()
    gc.collect()


class Runner:
    """Closed loop over a workload's op cycle, one op at a time."""

    def __init__(self, cli, ops, ref):
        from click.testing import CliRunner

        self.cli = cli
        self.ref = ref
        self.runner = CliRunner()
        self.ops = ops
        self.next = 0
        self.digests: dict[str, bytes] = {}
        self.failures: list[dict] = []

    def one(self, tracer=None):
        """Run the next op; return (reference-speed seconds, wall seconds, ok)."""
        op = self.ops[self.next % len(self.ops)]
        index = self.next
        self.next += 1
        t0 = perf_counter()
        with tracer.root(index) if tracer else nullcontext():
            res = self.runner.invoke(self.cli.main, list(op.args))
        wall = perf_counter() - t0
        dt = self.ref.scale(wall)
        out, code = res.stdout_bytes, res.exit_code
        del res
        release_click_streams()
        why = check(op, code, out)
        digest = hashlib.sha256(out).digest()
        if why is None and self.digests.setdefault(op.key, digest) != digest:
            why = "report bytes differ from an earlier run of the same input"
        if why is not None:
            self.failures.append({"op": index, "args": op.key, "why": why})
        return dt, wall, why is None

    def loop(self, seconds, max_ops=None, tracer=None, setup=None):
        """Run ops for `seconds` (or `max_ops` ops); return [(family, seconds, wall, ok)].
        Setup trials run between ops and do not count against the window."""
        samples = []
        start = perf_counter()
        deadline = start + seconds
        while (len(samples) < max_ops) if max_ops else (perf_counter() < deadline):
            if setup is not None:
                done = len(samples) / max_ops if max_ops else (perf_counter() - start) / seconds
                if setup.due(done):
                    deadline += setup.trial()
            family = self.ops[self.next % len(self.ops)].family
            samples.append((family, *self.one(tracer)))
        if setup is not None:
            setup.finish()
        return samples


def latency_stats(samples, ops) -> dict:
    """Latency (reference-speed seconds) over the ops that passed (over all ops if none did, so a broken
    program still gets a result); throughput at the workload's mix.

    A run ends part-way through the op cycle, so the raw op count over the
    window would mix fast and slow families in a proportion that varies from
    run to run. Throughput is therefore 1 / (mean op time per family, weighted
    by the family's share of the cycle), times the share of ops that passed.
    """
    n_ok = sum(ok for *_, ok in samples)
    times = sorted(dt for _, dt, _, ok in samples if ok or not n_ok)
    n = len(times)
    by_family: dict[str, list[float]] = {}
    for family, dt, *_ in samples:
        by_family.setdefault(family, []).append(dt)
    share = {f: sum(op.family == f for op in ops) / len(ops) for f in by_family}
    weighted_mean = sum(share[f] * statistics.fmean(t) for f, t in by_family.items())
    weighted_mean /= sum(share.values())
    # p75, not the highest percentile with ten samples above it: a run has
    # 12-25 ops, where that percentile is p10-p55 and jumps from the largest
    # op (10 ops) to the smallest (11 ops). Linear interpolation (numpy's
    # default); the exclusive method leans on the top two or three ops.
    tail = statistics.quantiles(times, n=4, method="inclusive")[2] if n > 1 else times[0]
    return {
        "n": n,
        "p50": statistics.median(times),
        "tail": tail,
        "n_above_tail": sum(t > tail for t in times),
        "ok_frac": n_ok / len(samples),
        "ops_per_s": n_ok / len(samples) / weighted_mean,
        "wall_p50": statistics.median(wall for *_, wall, _ in samples),
    }


def layer_metrics(tracer, n_ops, untraced_p50, traced_p50) -> dict:
    summ = tracer.summary()
    m = {}
    for name in SPAN_METRICS:
        span, field = name.rsplit(".", 1)
        unit = "count" if field == "calls" else "s"
        m[name] = (summ.get(span, {}).get(field, 0) / n_ops, unit)
    for name, unit in COUNTS.items():
        m[name] = (tracer.counts.get(name, 0) / n_ops, unit)
    # trial residuals: mu_residual calls made by solve_mu, less the initial one
    names = [s[1] for s in tracer.spans]
    trials = sum(1 for s in tracer.spans
                 if s[1] == "mu_solver.mu_residual" and s[2] >= 0
                 and names[s[2]] == "mu_solver.solve_mu")
    trials -= names.count("mu_solver.solve_mu")
    accepted = tracer.counts.get("mu_solver.newton_iters", 0)
    m["mu_solver.step_accept_ratio"] = (accepted / trials if trials > 0 else 0.0, "ratio")
    m["trace_overhead_frac"] = (traced_p50 / untraced_p50 - 1.0, "ratio")
    return m


def calls_by_family(tracer, ops) -> dict:
    """Span calls per op for each input family of the workload."""
    calls, n = {}, {}
    for op, name, *_ in tracer.spans:
        fam = ops[op % len(ops)].family
        per = calls.setdefault(fam, {})
        per[name] = per.get(name, 0) + 1
        if name == ROOT_SPAN:
            n[fam] = n.get(fam, 0) + 1
    return {fam: {k: v / n[fam] for k, v in per.items()} for fam, per in calls.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", type=int, default=None, help="grid nodes per axis for every op")
    ap.add_argument("--ops", type=int, default=None, help="ops per phase instead of --seconds")
    args = ap.parse_args(argv)

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    cli = import_package()
    ops = make_ops(args.workload, args.seed, args.size)
    # the first fresh interpreter; it also warms the file caches for the setup trials
    peak_rss_mb = None if args.trace else fresh_call_peak_rss_mb(ops[0])
    ref = Reference()
    setup = None if args.trace else SetupTimer(ref)
    record = run_record(args)
    runner = Runner(cli, ops, ref)
    runner.one()  # warm-up: lazy imports and allocator growth; not counted
    runner.failures.clear()
    runner.next = 0

    phase = args.seconds / 2 if args.trace else args.seconds
    samples = runner.loop(phase, args.ops, setup=setup)
    stats = latency_stats(samples, ops)
    attempted = len(samples)
    failed = sum(not ok for *_, ok in samples)

    if args.trace:
        tracer = Tracer()
        with tracer.patched():
            tsamples = runner.loop(phase, args.ops, tracer)
        tstats = latency_stats(tsamples, ops)
        attempted += len(tsamples)
        failed += sum(not ok for *_, ok in tsamples)
        metrics = layer_metrics(tracer, len(tsamples), stats["p50"], tstats["p50"])
        record["untraced"] = stats
        record["traced"] = tstats
        record["patch_points_missing"] = tracer.missing
        record["span_totals"] = tracer.summary()
        record["calls_per_op_by_family"] = calls_by_family(tracer, ops)
    else:
        metrics = {
            "setup_s": (statistics.median(setup.times), "s"),
            "op_s_p50": (stats["p50"], "s"),
            "op_s_tail": (stats["tail"], "s"),
            "ops_per_s": (stats["ops_per_s"], "1/s"),
            "ok_frac": (stats["ok_frac"], "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        record["latency"] = stats
        record["op_seconds"] = [[family, dt, wall, ok] for family, dt, wall, ok in samples]
        record["setup_trials_s"] = setup.times
        record["setup_trials_wall_s"] = setup.wall
    record["ref_s"] = REF_S
    record["ref_kernel_s"] = ref.times
    record["failures"] = runner.failures
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        tracer.write(OUT / f"{stem}-spans.json")

    print(f"# {args.workload} seed={args.seed} backend={record['kernels_backend']} "
          f"sha={record['git_sha']} nproc={record['nproc']}")
    lat = record.get("latency") or record["traced"]
    print(f"# ops={lat['n']} tail=p75 ({lat['n_above_tail']} ops above) failed={failed}/{attempted} "
          f"failed_frac={failed / attempted:.4f} wall_p50={lat['wall_p50']:.4g} s "
          f"ref_kernel_p50={statistics.median(ref.times):.4g} s (nominal {REF_S} s)")
    for f in runner.failures[:5]:
        print(f"# FAILED op {f['op']}: {f['why']} ({f['args']})")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    if not all(math.isfinite(v["value"]) for v in result["metrics"].values()):
        raise BenchError("non-finite metric")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
