import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_reports.py"


def _tool():
    spec = importlib.util.spec_from_file_location("compare_reports", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tree_agrees_with_itself():
    src = str(ROOT / "src")
    res = subprocess.run(
        [sys.executable, str(TOOL), src, src, "--case", "csv_helix", "--case", "torus_s3_32"],
        capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stdout + res.stderr
    assert "2 of 2 cases agree" in res.stdout
    assert res.stdout.count("identical") == 2


def test_compare_text_bounds():
    cmp = _tool().compare_text
    base = '{"lambda1_min": 2.5, "n": 32, "x": -1e-3, "s": "nan"}'
    assert cmp(base, base)["identical"]
    # names with digits are text, not numbers
    moved = cmp(base, base.replace("2.5", "2.5000000000001"))
    assert moved["same_text"] and moved["within"] and moved["max_abs"] > 0
    assert not cmp(base, base.replace("2.5", "2.50000000001"))["within"]
    assert not cmp(base, base.replace("32", "33"))["within"]
    assert not cmp(base, base.replace("lambda1", "lambda2"))["same_text"]
    assert not cmp(base, base.replace('"nan"', '"inf"'))["same_text"]
