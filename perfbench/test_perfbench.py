"""Self-test of the benchmark: every workload at 32^2, a few ops per phase.

Run from the repository root:  python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
OPS = 6  # enough for every workload to repeat an input within a phase

# counts that depend only on the inputs, never on timing
EXACT = ("mu_solver.newton_iters", "mu_solver.lsmr_fallbacks", "mu_solver.step_accept_ratio",
         "report.json_bytes", "kernels.bytes_computed")


def bench(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "32", "--ops", str(OPS)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def assert_metrics(result, spec):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in spec}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, _ = bench(workload, 0)
    assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # at 32^2 the FD cylinder's truncation error exceeds the default tol_fd,
    # so its verdict is wrong there; at the benchmark's 256^2 it is right
    if workload != "verify-tabulated":
        assert result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    first, record = bench(workload, 1)
    assert_metrics(first, SPEC["per_layer"])
    assert record["patch_points_missing"] == []

    # every span's self time, summed, is the time of the root (CLI) spans
    totals = record["span_totals"]
    self_sum = sum(t["self_s"] for t in totals.values())
    assert self_sum == pytest.approx(totals["cli"]["s"], rel=1e-9)
    assert totals["cli"]["calls"] == OPS

    second, _ = bench(workload, 1)
    for name, m in first["metrics"].items():
        if name.endswith(".calls") or name in EXACT:
            assert second["metrics"][name]["value"] == m["value"], name


def test_bad_workload_fails_without_result():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "nope", "--seed", "1",
         "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_flags_backend_mismatch():
    from compare import compare

    a = {"kernels_backend": "numpy", "metrics": {"op_s_p50": {"value": 2.0, "unit": "s"}}}
    b = dict(a, kernels_backend="numba")
    lines = compare(a, b)
    assert lines[0].startswith("WARNING: kernels_backend differs")
    assert lines[-1] == "op_s_p50: 2 -> 2 s (x1.000)"
    assert not compare(a, a)[0].startswith("WARNING")

