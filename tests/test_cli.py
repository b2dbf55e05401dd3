import importlib.util
import json
import pathlib
import shlex
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from symgf import cli, poly_genfun, sample_ball, symplectic_monoid
from symgf.cli import main
from symgf.serialize import dump, genfun_to_dict
from symgf.verify import GROUPOID_AXIOMS

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _builtin_presets():
    return _script("verify_builtins").PRESETS


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


@pytest.mark.parametrize("flag", ["--p-radius", "--x-box"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_non_positive_sampling_radius_exits_two(flag, value, capsys):
    # --p-radius 0 sampled only p = 0, where every residual is exactly 0, and
    # the run passed without checking anything
    argv = ["verify", "--builtin", "lie", "--lie", "so3", "--trunc", "4", "--grid-n", "4",
            flag, value]
    assert _exit_code(argv) == 2
    assert "expected a number > 0" in capsys.readouterr().err


SO3_MONOID_ARGV = {
    "verify": ["--builtin", "lie", "--lie", "so3", "--trunc", "4"],
    "poisson": ["--builtin", "lie", "--lie", "so3", "--trunc", "4"],
    "morphism": ["--f", "builtin:identity:3", "--dom", "builtin:lie:so3:4",
                 "--cod", "builtin:lie:so3:4"],
}


@pytest.mark.parametrize("command", list(SO3_MONOID_ARGV))
def test_warns_once_when_sampling_beyond_the_domain_radius(tmp_path, capsys, command):
    # so(3) at trunc 4 carries a domain radius of about 0.141
    argv = [command, *SO3_MONOID_ARGV[command], "--grid-n", "4"]
    main(argv + ["--p-radius", "0.05"])
    assert "warning" not in capsys.readouterr().err
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(argv + ["--p-radius", "0.5", "--out", str(a)])
    err = capsys.readouterr().err
    assert err.count("warning") == 1 and "domain radius 0.141" in err
    main(argv + ["--p-radius", "0.5", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    assert b"warning" not in a.read_bytes()


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


@pytest.mark.parametrize("token, builtin", [
    ("builtin:symplectic:2", ["--builtin", "symplectic", "--d", "2"]),
    ("builtin:lie:so3:4", ["--builtin", "lie", "--lie", "so3", "--trunc", "4"]),
], ids=["symplectic", "lie"])
@pytest.mark.parametrize("command, sections", [
    ("verify", ("reports",)), ("poisson", ("alpha", "source_target")),
], ids=["verify", "poisson"])
def test_monoid_flag_takes_builtin_tokens(tmp_path, token, builtin, command, sections):
    # the README promises --monoid the tokens --f/--g/--dom/--cod take
    tols = [f"--tol={axiom}=1e-6" for axiom in ("associativity", *GROUPOID_AXIOMS)]
    docs = []
    for i, argv in enumerate((["--monoid", token], builtin)):
        out = tmp_path / f"{i}.json"
        assert main([command, *argv, "--grid-n", "4", "--p-radius", "0.05", "--out", str(out),
                     *(tols if command == "verify" else [])]) == 0
        docs.append(json.loads(out.read_text()))
    for key in sections:
        assert docs[0][key] == docs[1][key]


@pytest.mark.parametrize("argv", [
    ["verify", "--monoid", "builtin:identity:2"],
    ["poisson", "--monoid", "builtin:identity:2"],
    ["morphism", "--f", str(DATA / "lift_shear_d2.json"), "--dom", "builtin:identity:2",
     "--cod", "builtin:symplectic:2"],
    ["morphism", "--f", str(DATA / "lift_shear_d2.json"), "--dom", "builtin:symplectic:2",
     "--cod", "builtin:identity:2"],
], ids=["verify", "poisson", "dom", "cod"])
def test_a_genfun_that_is_not_a_monoid_exits_two_with_one_message(argv, capsys):
    # builtin:identity is the identity morphism (m = n), not a monoid
    assert main(argv + ["--grid-n", "4"]) == 2
    flag = argv[argv.index("builtin:identity:2") - 1]
    assert capsys.readouterr().err == (
        f"error: {flag} builtin:identity:2: expected a monoid genfun (m = 2n), got m=2, n=2\n")


@pytest.mark.parametrize("argv, text", [
    (["verify", "--monoid", "{file}"], '{"d": 2.7, "terms": []}'),
    (["verify", "--monoid", "{file}"], '{"d": true, "terms": []}'),
    # an integral float is not an integer either
    (["verify", "--monoid", "{file}"], '{"d": 2.0, "terms": []}'),
    (["verify", "--monoid", "{file}"],
     '{"d": 2, "terms": [{"coeff": 1.0, "p1": [1.7, 0], "p2": [1, 0], "x": [0, 0]}]}'),
    (["compose", "--f", "{file}", "--g", "builtin:identity:1", "--p", "0", "--x", "0"],
     '{"m": 1, "n": 1, "terms": [{"coeff": 1.0, "p": [1], "x": [true]}]}'),
    (["compose", "--f", "{file}", "--g", "builtin:identity:1", "--p", "0", "--x", "0"],
     '{"m": 1, "n": "1", "terms": []}'),
    (["verify", "--builtin", "lie", "--lie", "{file}"], '{"d": 3, "c": [[0.9, 1.2, 2.5, 1.0]]}'),
    (["verify", "--builtin", "kontsevich", "--alpha", "{file}"],
     '{"d": 2, "entries": [{"i": 0.4, "j": 1.9, "terms": [{"coeff": 1.0, "x": [0, 0]}]}]}'),
], ids=["d-float", "d-bool", "d-integral-float", "exponent", "m-n-exponent", "n-string",
        "structure-index", "bivector-index"])
def test_non_integer_json_integer_field_exits_two(tmp_path, capsys, argv, text):
    # int() would read 2.7 as 2, 1.7 as 1 and true as 1
    path = tmp_path / "input.json"
    path.write_text(text)
    assert main([a.replace("{file}", str(path)) for a in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "must be an integer" in err[0], err


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


def _breakdown_commands(tmp_path):
    # F = p x + p^2/2 composed with G = p x + c p x^2 has the stationary
    # system I - G_xx F_pp = 1 - 2 c p, singular at the anchor for p = 1/(2c):
    # compose at p = 0.5 with c = 1, and in verify and morphism at the
    # second grid momentum (the first has p_1 = 0), drawn as cmd_verify and
    # cmd_morphism draw them
    q = sample_ball(2, 3, 0.1, 2)[1, 0]
    a = sample_ball(2, 2, 0.1, 0)[1, 0]
    unit = {((1, 0), (1,)): 1.0, ((0, 1), (1,)): 1.0}
    genfuns = {
        "F": poly_genfun({((1,), (1,)): 1.0, ((2,), (0,)): 0.5}, 1, 1),
        "G": poly_genfun({((1,), (1,)): 1.0, ((1,), (2,)): 1.0}, 1, 1),
        "S": poly_genfun({**unit, ((2, 0), (0,)): 0.5, ((1, 0), (2,)): 0.5 / q}, 2, 1),
        "S_M": poly_genfun({**unit, ((1, 0), (2,)): 0.5 / a}, 2, 1),
    }
    paths = {name: str(tmp_path / f"{name}.json") for name in genfuns}
    for name, genfun in genfuns.items():
        dump(genfun_to_dict(genfun), paths[name])
    return [
        ["compose", "--f", paths["F"], "--g", paths["G"], "--p", "0.5", "--x", "0"],
        ["verify", "--monoid", paths["S"], "--grid-n", "2"],
        ["morphism", "--f", paths["F"], "--dom", paths["S_M"], "--cod", "builtin:abelian:1",
         "--grid-n", "2"],
    ]


@pytest.mark.parametrize("command", range(3), ids=["compose", "verify", "morphism"])
def test_singular_stationary_system_exits_one(tmp_path, capsys, command):
    argv = _breakdown_commands(tmp_path)[command]
    assert main(argv) == 1
    assert "composition failed" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["1e80", "1e110"])
def test_non_finite_stationary_jacobian_exits_one(tmp_path, capsys, p):
    # G_xx = p^3 - p^4 overflows: to -inf at p = 1e80, and to inf - inf = nan
    # at p = 1e110, where the condition number's SVD raised a bad-input error
    F = poly_genfun({((1,), (1,)): 1.0, ((2,), (1,)): 0.5}, 1, 1)
    G = poly_genfun({((1,), (1,)): 1.0, ((3,), (2,)): 0.5, ((4,), (2,)): -0.5}, 1, 1)
    paths = [str(tmp_path / f"{name}.json") for name in "FG"]
    for genfun, path in zip((F, G), paths):
        dump(genfun_to_dict(genfun), path)
    argv = ["compose", "--f", paths[0], "--g", paths[1], "--p", p, "--x", "0.3"]
    assert main(argv) == 1
    assert "is degenerate (condition inf" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--builtin", "identity", "--d", "100000000"],
    ["compose", "--f", "builtin:identity:100000000", "--g", "builtin:identity:2",
     "--p", "0,0", "--x", "0,0"],
], ids=["--d", "token"])
def test_oversized_builtin_dimension_exits_two(monkeypatch, argv):
    def refuse(d):
        raise AssertionError(f"built a genfun of dimension {d}")

    for name in ("identity_genfun", "abelian_monoid", "symplectic_monoid"):
        monkeypatch.setattr(cli, name, refuse)
    assert _exit_code(argv) == 2


@pytest.mark.parametrize("argv, text", [
    (["verify", "--builtin", "lie", "--lie", "{file}"], '{"d": 100000, "c": []}'),
    (["verify", "--builtin", "kontsevich", "--alpha", "{file}"], '{"d": 100000, "entries": []}'),
    (["verify", "--monoid", "{file}"], '{"d": 100000, "terms": []}'),
    (["verify", "--monoid", "{file}"], '{"m": 130, "n": 65, "terms": []}'),
], ids=["structure", "bivector", "genfun-d", "genfun-m-n"])
def test_oversized_json_dimension_exits_two(tmp_path, capsys, argv, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert main([a.replace("{file}", str(path)) for a in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


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


@pytest.mark.parametrize("preset", _builtin_presets())
def test_verify_builtins_presets_pass(preset, capsys):
    # every preset of scripts/verify_builtins.py holds on a small grid
    assert main(shlex.split(preset) + ["--grid-n", "8"]) == 0


def test_fit_tree_weights_script_recovers_twelfths(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["fit_tree_weights.py", "--n-points", "4", "--levels", "3"])
    _script("fit_tree_weights").main()
    out = capsys.readouterr().out
    assert "gate: pass" in out
    weights = dict(line.split(" = ") for line in out.splitlines() if line.startswith("c"))
    assert float(weights["c1"]) == pytest.approx(-1.0 / 12.0, abs=1e-6)
    assert float(weights["c2"]) == pytest.approx(+1.0 / 12.0, abs=1e-6)


def test_bch_truncation_study_prints_one_row_per_trunc(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["bch_truncation_study.py", "--n", "8", "--truncs", "1,2,4"])
    _script("bch_truncation_study").main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    assert [int(r[0]) for r in rows] == [1, 2, 4]
    assert all(len(r) == 4 and float(r[1]) >= 0.0 for r in rows)


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


# -- the 0/1/2 exit-code contract under fuzzed input --------------------------

MONOID_TEXT = (DATA / "monoid_symplectic_d2.json").read_text().rstrip()
NON_FINITE = st.sampled_from(["nan", "-nan", "inf", "-inf", "1e999"])


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the arguments with status 2
        return exc.code


# each case is (argv, file text or None, expected exit code); "{file}" in
# argv is replaced by the path of a file holding the text
_truncated_json = st.integers(0, len(MONOID_TEXT) - 1).map(
    lambda i: (["verify", "--monoid", "{file}", "--grid-n", "3"], MONOID_TEXT[:i], 2))
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["d", "m", "n", "terms", "p", "p1", "p2", "x", "coeff"]),
                      inner, max_size=4),
    max_leaves=8)
# a well-formed document can still describe a genfun that fails a check, or
# a valid list of points
_misshapen_json = st.one_of(
    _json_values.map(
        lambda doc: (["verify", "--monoid", "{file}", "--grid-n", "3"], json.dumps(doc), (1, 2))),
    _json_values.map(
        lambda doc: (["compose", "--f", "builtin:identity:1", "--g", "builtin:identity:1",
                      "--points", "{file}"], json.dumps(doc), (0, 2))))
_tokens = st.builds(
    lambda kind, args: ":".join(["builtin", kind, *args]),
    st.sampled_from(["identity", "abelian", "symplectic", "lie", ""]) | st.text(max_size=5),
    st.lists(st.integers(-3, 9).map(str) | st.text(alphabet="abxz-./", max_size=3),
             max_size=3))
# no point is given, so the command is malformed whatever the tokens build
_bad_tokens = st.tuples(_tokens, _tokens).map(
    lambda fg: (["compose", "--f", fg[0], "--g", fg[1]], None, 2))
_bad_dimensions = st.one_of(
    st.integers(-3, 0).map(
        lambda d: (["verify", "--builtin", "identity", "--d", str(d)], None, 2)),
    st.sampled_from([1, 3, 5]).map(
        lambda d: (["verify", "--builtin", "symplectic", "--d", str(d)], None, 2)),
    st.integers(-3, 0).map(
        lambda n: (["verify", "--builtin", "symplectic", "--grid-n", str(n)], None, 2)),
    st.lists(st.integers(-1, 1).map(str), max_size=5).filter(lambda p: len(p) != 4).map(
        lambda p: (["compose", "--f", "builtin:symplectic:2", "--g", "builtin:identity:4",
                    "--p", ",".join(p) or ",", "--x", "0,0"], None, 2)))
_non_finite = st.one_of(
    st.tuples(NON_FINITE, st.integers(0, 3)).map(
        lambda vi: (["compose", "--f", "builtin:symplectic:2", "--g", "builtin:identity:4",
                     "--p", ",".join(vi[0] if i == vi[1] else "0.1" for i in range(4)),
                     "--x", "0,0"], None, 2)),
    st.tuples(st.sampled_from(["--eps", "--p-radius", "--x-box", "--newton-tol"]),
              NON_FINITE).map(
        lambda fv: (["verify", "--builtin", "kontsevich", "--alpha", "so3", "--grid-n", "3",
                     fv[0], fv[1]], None, 2)),
    NON_FINITE.map(lambda v: (["verify", "--builtin", "kontsevich", "--alpha", "so3",
                               "--order", "2", "--weights", f"{v},0.1", "--grid-n", "3"],
                              None, 2)),
    NON_FINITE.map(lambda v: (["verify", "--monoid", "{file}", "--grid-n", "3"],
                              MONOID_TEXT.replace("-0.5", v, 1), 2)))


@settings(max_examples=50, deadline=None)
@given(st.one_of(_truncated_json, _misshapen_json, _bad_tokens, _bad_dimensions, _non_finite))
def test_exit_code_contract_under_fuzzed_input(case):
    argv, text, want = case
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "input.json"
        if text is not None:
            path.write_text(text)
        code = _exit_code([str(path) if a == "{file}" else a for a in argv])
    assert code in (want if isinstance(want, tuple) else (want,)), (argv, text, code)
