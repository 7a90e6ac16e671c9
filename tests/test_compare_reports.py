import binascii
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

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


def test_compare_text_locates_largest_excess():
    cmp = _tool().compare_text
    old = '{\n  "summaries": {\n    "mu_max": 2.9e-08,\n    "K_max": 1.5\n  },\n' \
          '  "fields": {\n    "mu": [\n      0.25,\n      3e-08\n    ]\n  }\n}\n'
    # the field entry moved furthest past the bar; the summary moved less
    new = old.replace("2.9e-08", "1e-09").replace("3e-08", "4e-16")
    res = cmp(old, new)
    assert not res["within"] and res["where"] == (9, "mu")
    # within the bar: no location
    assert cmp(old, old.replace("1.5", "1.5000000000001"))["where"] is None
    # CSV has no JSON key before the number
    csv = "name,paper_ref,l2,linf\nsimons,simons,1e-3,2e-3\n"
    assert cmp(csv, csv.replace("2e-3", "3e-3"))["where"] == (2, None)


def test_compare_text_lists_every_number_past_the_bar():
    cmp = _tool().compare_text
    old = '{\n  "summaries": {\n    "mu_max": 2.9e-08,\n    "K_max": 1.5\n  },\n' \
          '  "fields": {\n    "mu": [\n      0.25,\n      3e-08\n    ]\n  }\n}\n'
    # two numbers past the bar, one within it
    new = old.replace("2.9e-08", "1e-09").replace("1.5", "1.5000000000001") \
        .replace("3e-08", "4e-16")
    past = cmp(old, new)["past"]
    assert [p[:4] for p in past] == [(3, "mu_max", "2.9e-08", "1e-09"),
                                     (9, "mu", "3e-08", "4e-16")]
    assert [p[4] for p in past] == [abs(2.9e-08 - 1e-09), abs(3e-08 - 4e-16)]
    assert cmp(old, old.replace("1.5", "1.5000000000001"))["past"] == []
    # a text difference lists no numbers
    assert cmp(old, new.replace("K_max", "K_min"))["past"] == []


def test_compare_text_locates_first_text_difference():
    cmp = _tool().compare_text
    old = '{\n  "residuals": {\n    "simons": 8.4e-3\n  },\n' \
          '  "flags": {\n    "is_cmc": true,\n    "violated": true\n  }\n}\n'
    # a number moves first, but the text difference is what is located
    res = cmp(old, old.replace("8.4e-3", "8.3e-3").replace('violated": true', 'violated": false'))
    assert not res["same_text"] and not res["within"]
    assert res["where"] == (7, "violated")
    # a number more or less is located where the texts part
    assert cmp(old, old.replace('"is_cmc": true', '"is_cmc": 1'))["where"] == (6, "is_cmc")


def _fake_tree(root, text):
    pkg = root / "biconsurf"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(f"print({text!r}, end='')\n")
    return str(root)


def test_report_names_line_and_key(tmp_path):
    old = '{\n  "meta": {\n    "n": 32\n  },\n  "summaries": {\n    "mu_max": 2e-08\n  }\n}\n'
    new = old.replace("2e-08", "1e-15")
    res = subprocess.run(
        [sys.executable, str(TOOL), _fake_tree(tmp_path / "old", old),
         _fake_tree(tmp_path / "new", new), "--case", "csv_helix"],
        capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 1
    assert "largest at line 6 after key 'mu_max'" in res.stdout


def test_report_names_first_text_difference(tmp_path):
    old = '{\n  "meta": {\n    "n": 32\n  },\n  "flags": {\n    "is_cmc": true\n  }\n}\n'
    new = old.replace("32", "33").replace("true", "false")
    res = subprocess.run(
        [sys.executable, str(TOOL), _fake_tree(tmp_path / "old", old),
         _fake_tree(tmp_path / "new", new), "--case", "csv_helix"],
        capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 1
    assert "non-numeric stdout differs; first text difference at line 6 after key 'is_cmc'" \
        in res.stdout


def test_report_lists_every_number_past_the_bar(tmp_path):
    old = '{\n  "meta": {\n    "n": 32\n  },\n  "summaries": {\n    "mu_min": 1e-08,\n' \
          '    "mu_max": 2e-08\n  }\n}\n'
    new = old.replace("1e-08", "3e-08").replace("2e-08", "1e-15")
    res = subprocess.run(
        [sys.executable, str(TOOL), _fake_tree(tmp_path / "old", old),
         _fake_tree(tmp_path / "new", new), "--case", "csv_helix"],
        capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 1
    assert "largest at line 6 after key 'mu_min'" in res.stdout
    assert "    line 6 'mu_min': 1e-08 -> 3e-08, |d| 2e-08\n" \
           "    line 7 'mu_max': 2e-08 -> 1e-15, |d| 2e-08\n" in res.stdout


def _report(meta, residuals, flags):
    return json.dumps({"meta": meta, "flags": flags, "residuals": [
        {"name": n, "paper_ref": n, "l2": l2, "linf": linf} for n, l2, linf in residuals]},
        indent=2) + "\n"


OLD_REPORT = _report({"n": 32, "isothermal_chart": True},
                     [("stress", 1e-3, 2e-3), ("simons", 0.5, 0.75)], {"is_cmc": True})


def test_compare_text_walks_json_documents():
    cmp = _tool().compare_text
    new = _report({"n": 32}, [("stress", 1e-3, 2e-3 + 1e-16), ("hopf", 0.0, 0.0),
                              ("simons", 0.5, 0.875)], {"is_cmc": False})
    res = cmp(OLD_REPORT, new)
    assert not res["same_text"] and not res["within"] and res["past"] == []
    st = res["structure"]
    assert st["only_old"] == ["meta.isothermal_chart"]
    # residuals pair by name, so the inserted row does not shift the others
    assert st["only_new"] == ["residuals[hopf]"]
    assert st["changed"] == [("flags.is_cmc", True, False)]
    assert st["past"] == [("residuals[simons].linf", 0.75, 0.875, 0.125)]
    assert res["max_abs"] == 0.125
    # the same structure with numbers within the bar: nothing listed
    within = cmp(OLD_REPORT, OLD_REPORT.replace("0.75", "0.7500000000000001")
                 .replace('"n": 32', '"n":  32'))["structure"]
    assert within == {"only_old": [], "only_new": [], "changed": [], "past": [],
                      "max_abs": within["max_abs"], "max_rel": within["max_rel"]}
    assert 0 < within["max_abs"] < 1e-15
    # other lists pair by index; CSV is not walked
    lists = _tool().compare_json({"x": [1, 2]}, {"x": [1, 2, 3]})
    assert lists["only_new"] == ["x[2]"] and lists["past"] == []
    csv = "name,paper_ref,l2,linf\nsimons,simons,1e-3,2e-3\n"
    assert cmp(csv, csv.replace("simons,1", "hopf,1"))["structure"] is None


def test_report_lists_structural_differences(tmp_path):
    new = _report({"n": 32}, [("stress", 1e-3, 2e-3), ("simons", 0.5, 0.875),
                              ("hopf", 0.0, 0.0)], {"is_cmc": True})
    res = subprocess.run(
        [sys.executable, str(TOOL), _fake_tree(tmp_path / "old", OLD_REPORT),
         _fake_tree(tmp_path / "new", new), "--case", "csv_helix"],
        capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 1
    assert "non-numeric stdout differs" in res.stdout
    assert "    only in old: meta.isothermal_chart\n" \
           "    only in new: residuals[hopf]\n" \
           "    residuals[simons].linf: 0.75 -> 0.875, |d| 0.12\n" in res.stdout


def _blob(values):
    a = np.ascontiguousarray(values, dtype="<f8")
    return {"dtype": "<f8", "shape": list(a.shape),
            "base64": binascii.b2a_base64(a, newline=False).decode("ascii")}


def _dumped(fields, n=32):
    """A report with fields, laid out as report_to_json writes it."""
    head = '{\n  "meta": {\n    "n": %d\n  },\n  "flags": {\n    "is_cmc": true\n  }' % n
    return head + ',\n  "fields": ' + json.dumps(fields, indent=2).replace("\n", "\n  ") + "\n}\n"


# blob text holds digit runs between "/" and "+", which the number scan would read
VALUES = np.array([[0.1, -0.0, 5e-324], [np.nan, np.inf, 1e300]])


def test_blob_against_lists_of_the_same_values():
    cmp = _tool().compare_text
    lists = json.loads(json.dumps(VALUES.tolist()).replace("NaN", '"nan"')
                       .replace("Infinity", '"inf"'))
    old, new = _dumped({"mu": lists}), _dumped({"mu": _blob(VALUES)})
    res = cmp(old, new)
    assert not res["identical"] and res["outside_fields_identical"]
    assert res["within"] and res["same_text"] and res["max_abs"] == 0.0
    assert res["past"] == [] and res["fields"]["past"] == []
    # the text outside the fields is still compared byte for byte
    res = cmp(old.replace("true", "false"), new)
    assert not res["within"] and not res["outside_fields_identical"]
    assert res["where"] == (6, "is_cmc") and res["fields_where"] is None


def test_blobs_one_ulp_apart():
    cmp = _tool().compare_text
    base = np.array([[0.25, 3.0], [1e-8, -2.5]])
    old, new = _dumped({"mu": _blob(base)}), _dumped({"mu": _blob(np.nextafter(base, np.inf))})
    res = cmp(old, new)
    assert res["within"] and res["outside_fields_identical"] and not res["identical"]
    assert 0.0 < res["max_abs"] < 1e-15 and 0.0 < res["max_rel"] < 1e-15
    assert cmp(old, old)["identical"] and cmp(old, old)["max_abs"] == 0.0


def test_blob_entries_past_the_bar_are_listed():
    cmp = _tool().compare_text
    base = np.array([[0.25, 3.0], [np.nan, -2.5]])
    moved = base.copy()
    moved[0, 1], moved[1, 0] = 3.0 + 1e-9, 1.0  # and a NaN became a number
    res = cmp(_dumped({"mu": _blob(base)}), _dumped({"mu": _blob(moved)}))
    assert not res["within"] and res["where"] is None
    assert res["fields_where"] == "fields.mu[0, 1]"
    assert [p[0] for p in res["fields"]["past"]] == ["fields.mu[0, 1]", "fields.mu[1, 0]"]
    # another shape, or a field on one side only
    res = cmp(_dumped({"mu": _blob(base)}), _dumped({"mu": _blob(base.reshape(4))}))
    assert res["fields_where"] == "fields.mu"
    res = cmp(_dumped({"mu": _blob(base)}), _dumped({"mu": _blob(base), "K": _blob(base)}))
    assert res["fields"]["only_new"] == ["fields.K"] and not res["within"]


def test_report_passes_blob_against_lists(tmp_path):
    lists = [[0.5, -1.25], [3e-8, 7.0]]
    old, new = _dumped({"mu": lists}), _dumped({"mu": _blob(lists)})
    res = subprocess.run(
        [sys.executable, str(TOOL), _fake_tree(tmp_path / "old", old),
         _fake_tree(tmp_path / "new", new), "--case", "csv_helix"],
        capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stdout + res.stderr
    assert "fields-only" in res.stdout and "1 of 1 cases agree" in res.stdout
