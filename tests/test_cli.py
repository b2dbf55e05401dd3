import json
import pathlib
import subprocess
import sys

import pytest

from symgf import symplectic_monoid
from symgf.cli import main
from symgf.serialize import dump, genfun_to_dict
from symgf.verify import GROUPOID_AXIOMS

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def test_verify_symplectic_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--builtin", "symplectic", "--d", "2",
                 "--grid-n", "40", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "overall: pass" in text
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["exit_code"] == 0
    axioms = [r["axiom"] for r in doc["reports"]]
    assert axioms == ["unit", "associativity", "source-poisson",
                      "target-anti-poisson", "source-target-commute", "jacobi"]
    assert all(r["failures"] == [] for r in doc["reports"])


def test_verify_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--builtin", "lie", "--lie", "heisenberg", "--trunc", "2",
            "--grid-n", "25", "--seed", "3"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_failure_exits_one(tmp_path):
    S = symplectic_monoid(2)
    terms = dict(S.terms)
    terms[((1, 1, 1, 0), (0, 1))] = 4.0
    doc = genfun_to_dict(type(S)(terms, 4, 2))
    path = tmp_path / "broken.json"
    dump(doc, path)
    out = tmp_path / "report.json"
    code = main(["verify", "--monoid", str(path), "--grid-n", "30", "--out", str(out)])
    assert code == 1
    rep = json.loads(out.read_text())
    assert rep["passed"] is False
    assert rep["exit_code"] == 1
    failed = {r["axiom"] for r in rep["reports"] if r["failures"]}
    assert "associativity" in failed
    assert "unit" not in failed


def test_groupoid_tolerances_are_per_axiom(tmp_path):
    # all three groupoid residuals are about 8e-2 here, so only the axiom
    # whose tolerance is raised above that passes
    out = tmp_path / "report.json"
    code = main(["verify", "--builtin", "lie", "--trunc", "2", "--grid-n", "5",
                 "--p-radius", "0.5", "--tol", "source-poisson=1", "--out", str(out)])
    assert code == 1
    reports = {r["axiom"]: r for r in json.loads(out.read_text())["reports"]}
    assert all(reports[a]["max"] > 1e-2 for a in GROUPOID_AXIOMS)
    failed = {a for a in GROUPOID_AXIOMS if reports[a]["failures"]}
    assert failed == {"target-anti-poisson", "source-target-commute"}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-9"])
def test_non_finite_or_non_positive_tolerance_exits_two(value, capsys):
    # a NaN tolerance used to turn an associativity defect of 1.3e-3 into a pass
    code = main(["verify", "--builtin", "lie", "--lie", "so3", "--trunc", "2",
                 "--grid-n", "5", "--p-radius", "0.5", "--tol", f"associativity={value}"])
    assert code == 2
    assert "finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999",
                                    pytest.param("9" * 401, id="401-digit-int")])
def test_non_finite_json_number_exits_two(tmp_path, number, capsys):
    path = tmp_path / "nonfinite.json"
    path.write_text('{"d": 2, "terms": [{"coeff": %s, "p1": [1, 0], "p2": [0, 0], '
                    '"x": [1, 0]}]}' % number)
    assert main(["verify", "--monoid", str(path), "--grid-n", "3"]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_missing_file_exits_two(tmp_path, capsys):
    code = main(["verify", "--monoid", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error" in capsys.readouterr().err.lower()


def test_bad_genfun_content_exits_two(tmp_path):
    path = tmp_path / "badterms.json"
    path.write_text('{"d": 2, "terms": [{"coeff": 1.0, "p1": [1], "p2": [0,0], "x": [0,0]}]}')
    assert main(["verify", "--monoid", str(path)]) == 2


def test_malformed_json_exits_two(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json at all")
    assert main(["verify", "--monoid", str(path)]) == 2


def test_missing_builtin_choice_exits_two(capsys):
    assert main(["verify", "--grid-n", "10"]) == 2


def test_non_monoid_input_rejected(tmp_path):
    from symgf import poly_genfun
    F = poly_genfun({((1,), (1,)): 1.0}, 1, 1)
    path = tmp_path / "notmonoid.json"
    dump(genfun_to_dict(F), path)
    assert main(["verify", "--monoid", str(path)]) == 2


def test_poisson_at_point(tmp_path, capsys):
    out = tmp_path / "poisson.json"
    code = main(["poisson", "--builtin", "lie", "--lie", "so3", "--at-x", "0,0,1",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    row = doc["alpha"][0]
    assert row["x"] == [0.0, 0.0, 1.0]
    # kirillov-kostant at e3: alpha^{12} = x_3 = 1, others 0
    entries = {(i, j): v for i, j, v in row["entries"]}
    assert entries[(0, 1)] == pytest.approx(1.0, abs=1e-12)
    assert entries[(0, 2)] == pytest.approx(0.0, abs=1e-12)
    assert entries[(1, 2)] == pytest.approx(0.0, abs=1e-12)


def test_compose_builtin_tokens(capsys):
    code = main(["compose", "--f", "builtin:symplectic:2", "--g",
                 "builtin:identity:4", "--p", "0.1,-0.2,0.05,0.03",
                 "--x", "0.4,-0.6"])
    assert code == 0
    text = capsys.readouterr().out
    assert "value" in text and "newton" in text


def test_compose_dimension_mismatch_exits_two(capsys):
    code = main(["compose", "--f", "builtin:identity:2", "--g",
                 "builtin:identity:3", "--p", "0,0,0", "--x", "0,0"])
    assert code == 2


def test_morphism_positive_and_negative(tmp_path):
    from symgf import PolyMap, cotangent_lift
    # shear preserves the standard area form; diag(2,1) does not
    shear = cotangent_lift(PolyMap.linear([[1.0, 1.0], [0.0, 1.0]]))
    stretch = cotangent_lift(PolyMap.linear([[2.0, 0.0], [0.0, 1.0]]))
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    dump(genfun_to_dict(shear), good)
    dump(genfun_to_dict(stretch), bad)
    base = ["morphism", "--dom", "builtin:symplectic:2", "--cod",
            "builtin:symplectic:2", "--grid-n", "25"]
    assert main(base + ["--f", str(good)]) == 0
    assert main(base + ["--f", str(bad)]) == 1


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "symgf.cli", "verify", "--builtin", "symplectic",
         "--grid-n", "20"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "overall: pass" in proc.stdout


def test_argparse_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--builtin", "nonsense"])
    assert exc.value.code == 2
