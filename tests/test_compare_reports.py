import binascii
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_reports.py"


def _tool():
    spec = importlib.util.spec_from_file_location("compare_reports", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


TOOL_MODULE = _tool()
cmp = TOOL_MODULE.compare


def test_tree_agrees_with_itself():
    # solve_mu dumps its fields, so the walk meets a blob the CLI wrote
    src = str(ROOT / "src")
    res = subprocess.run(
        [sys.executable, str(TOOL), src, src, "--case", "csv_helix", "--case", "torus_s3_32",
         "--case", "solve_mu"],
        capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.endswith("3 of 3 cases agree, 3 byte-identical\n")
    assert res.stdout.count(" identical ") == 3


def test_compare_text_bounds():
    base = '{"lambda1_min": 2.5, "n": 32, "x": -1e-3, "s": "nan"}'
    assert cmp(base, base)["identical"]
    # names with digits are text, not numbers
    moved = cmp(base, base.replace("2.5", "2.5000000000001"))
    assert moved["format_line"] is None and moved["past"] == [] and moved["max_abs"] > 0
    assert [p[0] for p in cmp(base, base.replace("2.5", "2.50000000001"))["past"]] \
        == ["lambda1_min"]
    assert cmp(base, base.replace("32", "33"))["past"] == [("n", 32.0, 33.0, 1.0)]
    renamed = cmp(base, base.replace("lambda1", "lambda2"))
    assert renamed["format_line"] == (1, '{"lambda1_min": #, "n": #, "x": #, "s": "nan"}',
                                      '{"lambda2_min": #, "n": #, "x": #, "s": "nan"}')
    assert renamed["only_old"] == ["lambda1_min"] and renamed["only_new"] == ["lambda2_min"]
    assert cmp(base, base.replace('"nan"', '"inf"'))["changed"] == [("s", "nan", "inf")]


OLD_SUMMARY = '{\n  "summaries": {\n    "mu_max": 2.9e-08,\n    "K_max": 1.5\n  },\n' \
              '  "fields": {\n    "mu": [\n      0.25,\n      3e-08\n    ]\n  }\n}\n'


def test_compare_text_locates_largest_excess():
    # the field entry moved furthest past the bar; the summary moved less
    res = cmp(OLD_SUMMARY, OLD_SUMMARY.replace("2.9e-08", "1e-09").replace("3e-08", "4e-16"))
    assert res["format_line"] is None
    assert [p[0] for p in res["past"]] == ["summaries.mu_max", "fields.mu[1]"]
    # within the bar: nothing located
    assert cmp(OLD_SUMMARY, OLD_SUMMARY.replace("1.5", "1.5000000000001"))["past"] == []
    # a CSV report is walked as its rows, by name
    csv = "name,paper_ref,l2,linf\nsimons,simons,1e-3,2e-3\n"
    assert cmp(csv, csv.replace("2e-3", "3e-3"))["past"] == [
        ("[simons].linf", 2e-3, 3e-3, abs(3e-3 - 2e-3))]


def test_compare_text_lists_every_number_past_the_bar():
    # two numbers past the bar, one within it
    new = OLD_SUMMARY.replace("2.9e-08", "1e-09").replace("1.5", "1.5000000000001") \
        .replace("3e-08", "4e-16")
    past = cmp(OLD_SUMMARY, new)["past"]
    assert [p[:3] for p in past] == [("summaries.mu_max", 2.9e-08, 1e-09),
                                     ("fields.mu[1]", 3e-08, 4e-16)]
    assert [p[3] for p in past] == [abs(2.9e-08 - 1e-09), abs(3e-08 - 4e-16)]
    assert cmp(OLD_SUMMARY, OLD_SUMMARY.replace("1.5", "1.5000000000001"))["past"] == []
    # a text difference does not hide them
    res = cmp(OLD_SUMMARY, new.replace("K_max", "K_min"))
    assert res["only_old"] == ["summaries.K_max"] and res["only_new"] == ["summaries.K_min"]
    assert [p[0] for p in res["past"]] == ["summaries.mu_max", "fields.mu[1]"]


def test_compare_text_locates_first_text_difference():
    old = '{\n  "residuals": {\n    "simons": 8.4e-3\n  },\n' \
          '  "flags": {\n    "is_cmc": true,\n    "violated": true\n  }\n}\n'
    # a number moves and a flag flips: both are named by path
    res = cmp(old, old.replace("8.4e-3", "8.3e-3").replace('violated": true', 'violated": false'))
    assert res["format_line"] == (7, '    "violated": true', '    "violated": false')
    assert res["changed"] == [("flags.violated", True, False)]
    assert [p[0] for p in res["past"]] == ["residuals.simons"]
    # a bool is not the number 1
    res = cmp(old, old.replace('"is_cmc": true', '"is_cmc": 1'))
    assert res["format_line"][0] == 6 and res["changed"] == [("flags.is_cmc", True, 1)]


def _report(meta, residuals, flags):
    return json.dumps({"meta": meta, "flags": flags, "residuals": [
        {"name": n, "paper_ref": n, "l2": l2, "linf": linf} for n, l2, linf in residuals]},
        indent=2) + "\n"


OLD_REPORT = _report({"n": 32, "isothermal_chart": True},
                     [("stress", 1e-3, 2e-3), ("simons", 0.5, 0.75)], {"is_cmc": True})


def test_compare_text_walks_json_documents():
    new = _report({"n": 32}, [("stress", 1e-3, 2e-3 + 1e-16), ("hopf", 0.0, 0.0),
                              ("simons", 0.5, 0.875)], {"is_cmc": False})
    res = cmp(OLD_REPORT, new)
    assert res["only_old"] == ["meta.isothermal_chart"]
    # residuals pair by name, so the inserted row does not shift the others
    assert res["only_new"] == ["residuals[hopf]"]
    assert res["changed"] == [("flags.is_cmc", True, False)]
    assert res["past"] == [("residuals[simons].linf", 0.75, 0.875, 0.125)]
    assert res["max_abs"] == 0.125
    # the same structure with numbers within the bar: nothing listed but the
    # whitespace, which only the masked text shows
    within = cmp(OLD_REPORT, OLD_REPORT.replace("0.75", "0.7500000000000001")
                 .replace('"n": 32', '"n":  32'))
    assert within["format_line"] == (3, '    "n": #,', '    "n":  #,')
    assert within["only_old"] == within["only_new"] == within["changed"] == within["past"] == []
    assert 0 < within["max_abs"] < 1e-15
    # other lists pair by index
    lists = cmp('{"x": [1, 2]}', '{"x": [1, 2, 3]}')
    assert lists["only_new"] == ["x[2]"] and lists["past"] == []
    # CSV rows pair by name too
    csv = "name,paper_ref,l2,linf\nsimons,simons,1e-3,2e-3\n"
    res = cmp(csv, csv.replace("simons,simons", "hopf,simons"))
    assert res["only_old"] == ["[simons]"] and res["only_new"] == ["[hopf]"]


def _blob(values):
    a = np.ascontiguousarray(values, dtype="<f8")
    return {"dtype": "<f8", "shape": list(a.shape),
            "base64": binascii.b2a_base64(a, newline=False).decode("ascii")}


def _dumped(fields, n=32):
    """A report with fields, laid out as report_to_json writes it."""
    head = '{\n  "meta": {\n    "n": %d\n  },\n  "flags": {\n    "is_cmc": true\n  }' % n
    return head + ',\n  "fields": ' + json.dumps(fields, indent=2).replace("\n", "\n  ") + "\n}\n"


def test_blobs_one_ulp_apart():
    base = np.array([[0.25, 3.0], [1e-8, -2.5]])
    old, new = _dumped({"mu": _blob(base)}), _dumped({"mu": _blob(np.nextafter(base, np.inf))})
    res = cmp(old, new)
    assert not res["identical"] and res["format_line"] is None and res["past"] == []
    assert 0.0 < res["max_abs"] < 1e-15 and 0.0 < res["max_rel"] < 1e-15
    assert cmp(old, old)["identical"] and cmp(old, old)["max_abs"] == 0.0
    # the text outside the fields is still compared byte for byte
    res = cmp(old.replace("true", "false"), new)
    assert res["format_line"] == (6, '    "is_cmc": false', '    "is_cmc": true')
    assert res["changed"] == [("flags.is_cmc", False, True)] and res["past"] == []


def test_blob_entries_past_the_bar_are_listed():
    base = np.array([[0.25, 3.0], [np.nan, -2.5]])
    moved = base.copy()
    moved[0, 1], moved[1, 0] = 3.0 + 1e-9, 1.0  # and a NaN became a number
    res = cmp(_dumped({"mu": _blob(base)}), _dumped({"mu": _blob(moved)}))
    assert res["format_line"] is None
    assert [p[0] for p in res["past"]] == ["fields.mu[0, 1]", "fields.mu[1, 0]"]
    # another shape, or a field on one side only
    res = cmp(_dumped({"mu": _blob(base)}), _dumped({"mu": _blob(base.reshape(4))}))
    assert res["changed"] == [("fields.mu", "shape [2, 2]", "shape [4]")]
    res = cmp(_dumped({"mu": _blob(base)}), _dumped({"mu": _blob(base), "K": _blob(base)}))
    assert res["only_new"] == ["fields.K"]


def _fake_tree(root, text, stderr="", code=0):
    pkg = root / "biconsurf"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(f"import sys\nsys.stdout.write({text!r})\n"
                                f"sys.stderr.write({stderr!r})\nsys.exit({code})\n")
    return str(root)


def _run(tmp_path, capsys, old, new):
    """Exit status and stdout of the tool on two fake trees whose CLI writes
    ``old`` and ``new``: a stdout, or (stdout, stderr, exit code)."""
    old, new = (x if isinstance(x, tuple) else (x,) for x in (old, new))
    code = TOOL_MODULE.main([_fake_tree(tmp_path / "old", *old),
                             _fake_tree(tmp_path / "new", *new), "--case", "csv_helix"])
    return code, capsys.readouterr().out


def test_report_names_path(tmp_path, capsys):
    old = '{\n  "meta": {\n    "n": 32\n  },\n  "summaries": {\n    "mu_max": 2e-08\n  }\n}\n'
    code, out = _run(tmp_path, capsys, old, old.replace("2e-08", "1e-15"))
    assert code == 1
    assert "same-format" in out and "1 number(s) moved by more than 1e-12 max(1, |x|)" in out
    assert "    summaries.mu_max: 2e-08 -> 1e-15, |d| 2e-08\n" in out


def test_report_names_first_text_difference(tmp_path, capsys):
    old = '{\n  "meta": {\n    "n": 32\n  },\n  "flags": {\n    "is_cmc": true\n  }\n}\n'
    code, out = _run(tmp_path, capsys, old, old.replace("32", "33").replace("true", "false"))
    assert code == 1
    assert "non-numeric stdout differs; 1 number(s) moved" in out
    assert "    format differs at line 6: '    \"is_cmc\": true' -> '    \"is_cmc\": false'\n" \
           "    flags.is_cmc: true -> false\n" \
           "    meta.n: 32.0 -> 33.0, |d| 1\n" in out


def test_report_lists_every_number_past_the_bar(tmp_path, capsys):
    old = '{\n  "meta": {\n    "n": 32\n  },\n  "summaries": {\n    "mu_min": 1e-08,\n' \
          '    "mu_max": 2e-08\n  }\n}\n'
    code, out = _run(tmp_path, capsys, old, old.replace("1e-08", "3e-08").replace("2e-08", "1e-15"))
    assert code == 1
    assert "    summaries.mu_min: 1e-08 -> 3e-08, |d| 2e-08\n" \
           "    summaries.mu_max: 2e-08 -> 1e-15, |d| 2e-08\n" in out


def test_report_lists_structural_differences(tmp_path, capsys):
    new = _report({"n": 32}, [("stress", 1e-3, 2e-3), ("simons", 0.5, 0.875),
                              ("hopf", 0.0, 0.0)], {"is_cmc": True})
    code, out = _run(tmp_path, capsys, OLD_REPORT, new)
    assert code == 1
    assert "non-numeric stdout differs" in out
    assert "    only in old: meta.isothermal_chart\n" \
           "    only in new: residuals[hopf]\n" \
           "    residuals[simons].linf: 0.75 -> 0.875, |d| 0.12\n" in out


CSV_REPORT = "name,paper_ref,l2,linf\nstress,stress,1e-3,2e-3\nsimons,simons,0.5,0.75\n"
FIELD = np.array([[0.25, 3.0], [np.nan, -2.5]])
MOVED = FIELD.copy()
MOVED[0, 1] = 3.0 + 1e-9
NAN_GONE = FIELD.copy()
NAN_GONE[1, 0] = 1.0


@pytest.mark.parametrize("old,new,lines", [
    pytest.param((OLD_REPORT, "", 0), (OLD_REPORT, "", 2), [], id="exit-code"),
    pytest.param((OLD_REPORT, "", 4), (OLD_REPORT, "numerical failure: x\n", 4), [],
                 id="stderr"),
    pytest.param(OLD_REPORT, OLD_REPORT.replace('"paper_ref": "simons"', '"paper_ref": "simonz"'),
                 ["    format differs at line 18: '      \"paper_ref\": \"simons\",' -> "
                  "'      \"paper_ref\": \"simonz\",'",
                  '    residuals[simons].paper_ref: "simons" -> "simonz"'], id="non-numeric-byte"),
    pytest.param(OLD_REPORT, OLD_REPORT.replace('"n": 32', '"n":  32'),
                 ["    format differs at line 3: '    \"n\": #,' -> '    \"n\":  #,'"],
                 id="whitespace"),
    pytest.param(OLD_REPORT, _report({"isothermal_chart": True, "n": 32},
                                     [("stress", 1e-3, 2e-3), ("simons", 0.5, 0.75)],
                                     {"is_cmc": True}),
                 ["    format differs at line 3: '    \"n\": #,' -> "
                  "'    \"isothermal_chart\": true,'"], id="key-order"),
    pytest.param(OLD_REPORT, OLD_REPORT.replace("0.75", "0.875"),
                 ["    residuals[simons].linf: 0.75 -> 0.875, |d| 0.12"], id="number"),
    pytest.param(OLD_REPORT, _report({"n": 32}, [("stress", 1e-3, 2e-3), ("simons", 0.5, 0.75)],
                                     {"is_cmc": True}),
                 ["    format differs at line 3: '    \"n\": #,' -> '    \"n\": #'",
                  "    only in old: meta.isothermal_chart"], id="key-one-side"),
    pytest.param(OLD_REPORT, _report({"n": 32, "isothermal_chart": True},
                                     [("stress", 1e-3, 2e-3), ("hopf", 0.0, 0.0),
                                      ("simons", 0.5, 0.75)], {"is_cmc": True}),
                 ["    format differs at line 17: '      \"name\": \"simons\",' -> "
                  "'      \"name\": \"hopf\",'",
                  "    only in new: residuals[hopf]"], id="row-inserted"),
    pytest.param(OLD_REPORT, OLD_REPORT.replace('"is_cmc": true', '"is_cmc": false'),
                 ["    format differs at line 7: '    \"is_cmc\": true' -> "
                  "'    \"is_cmc\": false'",
                  "    flags.is_cmc: true -> false"], id="flag-flipped"),
    pytest.param(CSV_REPORT, CSV_REPORT.replace("simons,simons", "hopf,simons"),
                 ["    format differs at line 3: 'simons,simons,#,#' -> 'hopf,simons,#,#'",
                  "    only in old: [simons]", "    only in new: [hopf]"], id="csv-row-renamed"),
    pytest.param(_dumped({"mu": _blob(FIELD)}), _dumped({"mu": _blob(MOVED)}),
                 ["    fields.mu[0, 1]: 3.0 -> 3.000000001, |d| 1e-09"], id="field-entry"),
    pytest.param(_dumped({"mu": _blob(FIELD)}), _dumped({"mu": _blob(NAN_GONE)}),
                 ["    fields.mu[1, 0]: nan -> 1.0, |d| inf"], id="nan-to-number"),
    pytest.param(_dumped({"mu": _blob(FIELD)}), _dumped({"mu": _blob(FIELD.reshape(4))}),
                 ["    format differs at line 12: '        #,' -> '        #'",
                  '    fields.mu: "shape [2, 2]" -> "shape [4]"'], id="field-shape"),
])
def test_report_names_each_kind_of_difference(tmp_path, capsys, old, new, lines):
    code, out = _run(tmp_path, capsys, old, new)
    assert code == 1, out
    # the case's row, then exactly the listed differences, then the count
    assert out.splitlines()[2:-1] == lines


@pytest.mark.parametrize("old,new,stdout", [
    pytest.param(OLD_REPORT, OLD_REPORT, "identical", id="identical"),
    pytest.param(OLD_REPORT, OLD_REPORT.replace("0.75", "0.7500000000000001"), "same-format",
                 id="within-the-bar"),
    pytest.param(_dumped({"mu": _blob(FIELD)}), _dumped({"mu": _blob(np.nextafter(FIELD, 9))}),
                 "same-format", id="blobs-one-ulp-apart"),
])
def test_report_passes_within_the_bar(tmp_path, capsys, old, new, stdout):
    code, out = _run(tmp_path, capsys, old, new)
    assert code == 0, out
    assert f" 0/0   {stdout} " in out and len(out.splitlines()) == 3
    assert out.endswith(f"1 of 1 cases agree, {int(stdout == 'identical')} byte-identical\n")
