import gc
import importlib.util
import json
import pathlib
import shlex
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symgf import (Diffeo, LieStructure, PolyMap, change_coordinates, check_associativity,
                   check_groupoid, check_jacobi, check_unit, cli, compose, identity_genfun,
                   lie_monoid, poly_genfun, sample_ball, sample_box, stationary_point,
                   symplectic_monoid)
from symgf.cli import main
from symgf.genfun import PolyGenFun
from symgf.serialize import MAX_EXPONENT, dump, genfun_to_dict
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


def test_reports_record_the_overrides_they_ran_with(tmp_path):
    # --weights and --newton-tol are recorded where the subcommand takes
    # them, and only when they are given
    out = tmp_path / "report.json"
    kontsevich = ["--builtin", "kontsevich", "--alpha", "so3", "--eps", "0.05", "--order", "2",
                  "--grid-n", "4", "--out", str(out)]
    lift = ["--f", str(DATA / "lift_shear_d2.json"), "--out", str(out)]
    morphism = ["morphism", *lift, "--dom", "builtin:symplectic:2",
                "--cod", "builtin:symplectic:2", "--grid-n", "4"]
    composite = ["compose", *lift, "--g", "builtin:symplectic:2",
                 "--p", "0.1,0.2,0,0", "--x", "0.3,-0.1"]
    runs = [
        (["verify", *kontsevich, "--weights", "0.5,0.5", "--newton-tol", "1e-9"], 1,
         {"weights": "0.5,0.5", "newton_tol": 1e-9}),
        (["verify", *kontsevich], 0, {}),
        (["poisson", *kontsevich, "--weights", "0.5,0.5"], 0, {"weights": "0.5,0.5"}),
        (["poisson", *kontsevich], 0, {}),
        ([*morphism, "--newton-tol", "1e-10"], 0, {"newton_tol": 1e-10}),
        (morphism, 0, {}),
        ([*composite, "--newton-tol", "1e-11"], 0, {"newton_tol": 1e-11}),
        (composite, 0, {}),
    ]
    for argv, code, overrides in runs:
        assert main(argv) == code, argv
        config = json.loads(out.read_text())["config"]
        assert {k: config[k] for k in ("weights", "newton_tol") if k in config} == overrides


def test_reports_record_only_what_built_their_monoid(tmp_path):
    # each monoid source records its own arguments, then the grid's; --weights
    # weighs the trees of the order-2 Kontsevich monoid and applies to no other
    out = tmp_path / "report.json"
    grid = {"grid_n": 4, "p_radius": 0.1, "x_box": 1.0, "seed": 0}
    lie = ["verify", "--builtin", "lie", "--lie", "so3", "--trunc", "2", "--grid-n", "4"]
    token = ["verify", "--monoid", "builtin:symplectic:2", "--eps", "3", "--grid-n", "4"]
    for argv in (lie, token):
        assert main([*argv, "--weights", "0.5,0.5", "--out", str(out)]) == 2, argv
    assert not out.exists()
    tols = {"associativity": 1e-6, **dict.fromkeys(GROUPOID_AXIOMS, 1e-5)}
    kontsevich = ["verify", "--builtin", "kontsevich", "--alpha", "so3", "--eps", "0.05",
                  "--order", "2", "--p-radius", "0.05", "--grid-n", "4",
                  *(f"--tol={axiom}={tol:g}" for axiom, tol in tols.items())]
    runs = [
        (lie, {"builtin": "lie", "lie": "so3", "trunc": 2}),
        (token, {"monoid": "builtin:symplectic:2"}),
        (kontsevich, {"builtin": "kontsevich", "alpha": "so3", "eps": 0.05, "order": 2,
                      "p_radius": 0.05}),
        (["poisson", "--builtin", "identity", "--d", "3", "--lie", "so3", "--grid-n", "4"],
         {"builtin": "identity", "d": 3}),
    ]
    for argv, want in runs:
        main([*argv, "--out", str(out)])
        config = json.loads(out.read_text())["config"]
        config.pop("tol", None)
        assert config == {"command": argv[0], **grid, **want}, argv


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


@pytest.mark.parametrize("argv, axiom, axioms", [
    (["verify", "--builtin", "symplectic", "--d", "2"], "morphism",
     "unit, associativity, source-poisson, target-anti-poisson, source-target-commute, jacobi"),
    (["morphism", "--f", str(DATA / "lift_shear_d2.json"), "--dom", "builtin:symplectic:2",
      "--cod", "builtin:symplectic:2"], "jacobi", "morphism, poisson-map"),
], ids=["verify", "morphism"])
def test_tolerance_of_an_unchecked_axiom_exits_two(argv, axiom, axioms, capsys):
    # such a tolerance used to be accepted and ignored, with exit code 0
    assert main(argv + ["--grid-n", "4", "--tol", f"{axiom}=1e-30"]) == 2
    assert capsys.readouterr().err == (f"error: unknown axiom {axiom!r} in --tol "
                                       f"(choose from {axioms})\n")


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999",
                                    pytest.param("9" * 401, id="401-digit-int")])
def test_non_finite_json_number_exits_two(tmp_path, number, capsys):
    path = tmp_path / "nonfinite.json"
    path.write_text('{"d": 2, "terms": [{"coeff": %s, "p1": [1, 0], "p2": [0, 0], '
                    '"x": [1, 0]}]}' % number)
    assert main(["verify", "--monoid", str(path), "--grid-n", "3"]) == 2
    assert "non-finite" in capsys.readouterr().err
    points = tmp_path / "points.json"
    points.write_text('[{"p": [%s, 0, 0, 0], "x": [0, 0]}]' % number)
    assert main(["compose", "--f", "builtin:symplectic:2", "--g", "builtin:identity:4",
                 "--points", str(points)]) == 2
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


def _bivector_file(tmp_path, name, *entries):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"d": 2, "entries": [
        {"i": i, "j": j, "terms": [{"coeff": c, "x": [0, 0]}]} for i, j, c in entries]}))
    return str(path)


def _poly_bivector_file(tmp_path, name, d, *entries):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"d": d, "entries": [
        {"i": i, "j": j, "terms": [{"coeff": c, "x": x}]} for i, j, c, x in entries]}))
    return str(path)


def test_verify_accepts_a_poisson_bivector_with_large_coefficients(tmp_path, capsys):
    # alpha^{ij} = 1000 x_i x_j: its Jacobiator's coefficients are exactly 0
    alpha = _poly_bivector_file(tmp_path, "quadratic", 3, (0, 1, 1000.0, [1, 1, 0]),
                                (0, 2, 1000.0, [1, 0, 1]), (1, 2, 1000.0, [0, 1, 1]))
    assert main(["verify", "--builtin", "kontsevich", "--alpha", alpha, "--eps", "1e-5",
                 "--order", "2", "--grid-n", "16"]) == 0
    assert "overall: pass" in capsys.readouterr().out


def test_verify_refuses_a_bivector_with_a_small_jacobiator(tmp_path, capsys):
    # alpha^{01} = 1e-6, alpha^{12} = 1e-6 x_1: the constant Jacobiator 1e-12
    alpha = _poly_bivector_file(tmp_path, "tiny", 3, (0, 1, 1e-6, [0, 0, 0]),
                                (1, 2, 1e-6, [0, 1, 0]))
    assert main(["verify", "--builtin", "kontsevich", "--alpha", alpha, "--eps", "1",
                 "--grid-n", "16"]) == 2
    assert capsys.readouterr().err == (
        "error: bivector violates the Jacobi identity: its (0, 1, 2) coefficient of "
        "x^(0, 0, 0) is -1.000e-12, above its rounding floor 2.220e-28\n")


def test_negative_eps_prints_no_domain_warning(capsys):
    # the order-1 truncation fails the order-2 checks either way: exit 1
    for eps in ("0.1", "-0.1"):
        assert main(["verify", "--builtin", "kontsevich", "--alpha", "so3", "--eps", eps,
                     "--grid-n", "8"]) == 1
        assert "warning" not in capsys.readouterr().err


def test_bivector_in_both_triangles_is_read_once(tmp_path):
    # a constant alpha^{01} = 0.5 written out as a full antisymmetric matrix
    alpha = _bivector_file(tmp_path, "alpha", (0, 1, 0.5), (1, 0, -0.5))
    out = tmp_path / "poisson.json"
    assert main(["poisson", "--builtin", "kontsevich", "--alpha", alpha, "--eps", "1",
                 "--at-x", "0,0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["alpha"][0]["entries"] == [[0, 1, 0.5]]


def test_bivector_triangles_that_disagree_exit_two(tmp_path, capsys):
    alpha = _bivector_file(tmp_path, "alpha", (0, 1, 0.5), (1, 0, 0.5))
    assert main(["verify", "--builtin", "kontsevich", "--alpha", alpha]) == 2
    assert "bivector entries (0, 1) and (1, 0) disagree" in capsys.readouterr().err


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


def test_weights_below_order_2_exit_two_with_one_message(capsys):
    # without --order 2 the weights have no tree to weigh
    argv = ["verify", "--builtin", "kontsevich", "--alpha", "so3", "--weights", "1,2"]
    assert main(argv + ["--grid-n", "4"]) == 2
    assert capsys.readouterr().err == "error: --weights needs --builtin kontsevich --order 2\n"


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


_COEFF_DOCS = [
    (["verify", "--monoid", "{file}"],
     '{"d": 1, "terms": [{"coeff": 1, "p1": [1], "p2": [0], "x": [1]}, '
     '{"coeff": 1, "p1": [0], "p2": [1], "x": [1]}, '
     '{"coeff": %s, "p1": [1], "p2": [1], "x": [0]}]}'),
    (["compose", "--f", "{file}", "--g", "builtin:identity:1", "--p", "0", "--x", "0"],
     '{"m": 1, "n": 1, "terms": [{"coeff": %s, "p": [1], "x": [1]}]}'),
    (["verify", "--builtin", "lie", "--lie", "{file}"], '{"d": 3, "c": [[0, 1, 2, %s]]}'),
    (["verify", "--builtin", "kontsevich", "--alpha", "{file}"],
     '{"d": 2, "entries": [{"i": 0, "j": 1, "terms": [{"coeff": %s, "x": [0, 0]}]}]}'),
]


@pytest.mark.parametrize("value", ['"0.5"', "true", "false", "null"])
@pytest.mark.parametrize("argv, text", _COEFF_DOCS, ids=["monoid", "general", "structure",
                                                          "bivector"])
def test_non_numeric_json_coefficient_exits_two(tmp_path, capsys, argv, text, value):
    # float() would read "0.5" as 0.5 and true as 1.0; false would drop the term
    path = tmp_path / "input.json"
    path.write_text(text % value)
    assert main([a.replace("{file}", str(path)) for a in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "must be a number" in err[0], err


def test_negative_seed_exits_two_naming_the_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--builtin", "symplectic", "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: expected an integer >= 0, got '-1'" in capsys.readouterr().err


def test_linear_algebra_failure_exits_one(monkeypatch, capsys):
    # LinAlgError subclasses ValueError, but a numerical breakdown is not malformed input
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "check_unit", singular)
    assert main(["verify", "--builtin", "symplectic", "--grid-n", "4"]) == 1
    assert capsys.readouterr().err == "error: linear algebra failed: Singular matrix\n"


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


def test_poisson_evaluates_source_and_target_together(monkeypatch, tmp_path):
    # one order-2 evaluation for the bivector, one for source and target
    # stacked, as check_groupoid takes them
    orders, eval_jet = [], PolyGenFun.eval_jet

    def counting(self, p, x, order):
        orders.append(order)
        return eval_jet(self, p, x, order)

    monkeypatch.setattr(PolyGenFun, "eval_jet", counting)
    code = main(["poisson", "--builtin", "lie", "--lie", "so3", "--trunc", "4",
                 "--grid-n", "8", "--out", str(tmp_path / "poisson.json")])
    assert code == 0
    assert orders.count(2) == 2


def test_compose_solves_each_point_once(monkeypatch, tmp_path, capsys):
    module = sys.modules["symgf.compose"]
    solve, calls = module._solve, []
    monkeypatch.setattr(module, "_solve", lambda *a: calls.append(len(a[2])) or solve(*a))
    points = [{"p": [0.3, -0.1, 0.2, 0.4], "x": [1.1, -0.7]},
              {"p": [0.01, 0.02, -0.03, 0.0], "x": [0.2, 0.1]}]
    path, out = tmp_path / "points.json", tmp_path / "compose.json"
    path.write_text(json.dumps(points))
    code = main(["compose", "--f", "builtin:symplectic:2", "--g", "builtin:identity:4",
                 "--points", str(path), "--out", str(out)])
    assert code == 0
    assert calls == [2]
    # the Newton statistics are those of the point's own solve
    F, G = symplectic_monoid(2), identity_genfun(4)
    for row, point in zip(json.loads(out.read_text())["points"], points):
        sp = stationary_point(F, G, point["p"], point["x"])
        assert (row["iterations"], row["residual"]) == (sp.iterations, sp.residual)
    # and every row is that point solved alone, as a stack of one
    C = compose(F, G)
    for row, point in zip(json.loads(out.read_text())["points"], points):
        j, sol = C._solve_jet(np.array([point["p"]]), np.array([point["x"]]), 1)
        assert row["value"] == j.value[0]
        assert row["grad_p"] + row["grad_x"] == j.grad[0].tolist()
        assert (row["iterations"], row["residual"]) == (sol.iterations[0], sol.residuals[0])


@pytest.mark.parametrize("coordinate", ['"0.5"', "true"], ids=["string", "boolean"])
def test_compose_points_must_be_numbers(tmp_path, capsys, coordinate):
    path = tmp_path / "points.json"
    path.write_text(f'[{{"p": [{coordinate}, 0, 0, 0], "x": [0, 0]}}]')
    code = main(["compose", "--f", "builtin:symplectic:2", "--g", "builtin:identity:4",
                 "--points", str(path)])
    assert code == 2
    assert "must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["compose", "--f", "builtin:identity:2:7", "--g", "builtin:symplectic:2",
     "--p", "0.1,0.2,0.3,0.4", "--x", "1,2"],
    ["compose", "--f", "builtin:identity:2", "--g", "builtin:symplectic:2:x:y",
     "--p", "0.1,0.2,0.3,0.4", "--x", "1,2"],
    ["verify", "--monoid", "builtin:lie:so3:4:junk", "--grid-n", "4"],
    ["poisson", "--monoid", "builtin:abelian:2:", "--grid-n", "4"],
    ["morphism", "--f", str(DATA / "lift_shear_d2.json"), "--dom", "builtin:symplectic:2:2",
     "--cod", "builtin:symplectic:2", "--grid-n", "4"],
], ids=["identity", "symplectic", "lie", "abelian-empty", "morphism-dom"])
def test_builtin_token_with_extra_fields_exits_two(argv, capsys):
    # the fields past builtin:KIND[:d] and builtin:lie:NAME[:trunc] used to be dropped
    assert main(argv) == 2
    assert "bad builtin token" in capsys.readouterr().err


def test_compose_builtin_tokens(capsys):
    code = main(["compose", "--f", "builtin:symplectic:2", "--g",
                 "builtin:identity:4", "--p", "0.1,-0.2,0.05,0.03",
                 "--x", "0.4,-0.6"])
    assert code == 0
    text = capsys.readouterr().out
    assert "value" in text and "newton" in text


def test_compose_with_a_lift_outermost_takes_no_newton_iterate(tmp_path, capsys):
    # a lift's grad_p does not depend on its momenta, so the solve starts at the
    # explicit critical point and iterate 0 already has residual 0
    out = tmp_path / "compose.json"
    code = main(["compose", "--f", str(DATA / "lift_shear_d2.json"), "--g",
                 "builtin:symplectic:2", "--p", "0.3,-0.1,0.2,0.4", "--x", "1.1,-0.7",
                 "--out", str(out)])
    assert code == 0
    assert "newton: 0 iterations, residual 0.000e+00" in capsys.readouterr().out
    (row,) = json.loads(out.read_text())["points"]
    assert (row["iterations"], row["residual"]) == (0, 0.0)


def test_overflowing_coefficient_fails_with_one_line_on_stderr(tmp_path):
    # 1e308 p1^2 p2 x^3 overflows the kernel's scaled coefficients; the
    # non-finite jet is a degenerate system, reported with no RuntimeWarning
    terms = {((1, 0), (1,)): 1.0, ((0, 1), (1,)): 1.0, ((2, 1), (3,)): 1e308}
    path = tmp_path / "big.json"
    dump(genfun_to_dict(poly_genfun(terms, 2, 1)), path)
    proc = subprocess.run([sys.executable, "-m", "symgf.cli", "verify", "--monoid", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("composition failed:"), proc.stderr
    assert "degenerate" in err[0]


@pytest.mark.parametrize("flags, doc", [
    (["--monoid"], {"d": 1, "terms": [{"coeff": 1.0, "p1": [1], "p2": [1], "x": [10 ** 15]}]}),
    (["--builtin", "kontsevich", "--alpha"],
     {"d": 2, "entries": [{"i": 0, "j": 1, "terms": [{"coeff": 1.0, "x": [10 ** 15, 0]}]}]})])
def test_huge_exponent_exits_two_before_any_jet(tmp_path, flags, doc):
    # a jet's power table has one column per power up to the largest exponent:
    # 85 PiB at 10**15, so the loader refuses any exponent above MAX_EXPONENT
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "symgf.cli", "verify", *flags, str(path),
                           "--grid-n", "2"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == f"error: x must be integers from 0 to {MAX_EXPONENT}\n"


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
    monkeypatch.setattr(sys, "argv", ["fit_tree_weights.py", "--n-points", "4"])
    _script("fit_tree_weights").main()
    out = capsys.readouterr().out
    assert "gate: pass" in out
    weights = dict(line.split(" = ") for line in out.splitlines() if line.startswith("c"))
    assert float(weights["c1"]) == pytest.approx(-1.0 / 12.0, abs=1e-6)
    assert float(weights["c2"]) == pytest.approx(+1.0 / 12.0, abs=1e-6)


def test_make_data_script_writes_the_committed_data(monkeypatch, capsys, tmp_path):
    # data/ holds exactly what scripts/make_data.py writes, byte for byte
    monkeypatch.setattr(sys, "argv", ["make_data.py", "--dir", str(tmp_path)])
    _script("make_data").main()
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in DATA.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


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


# -- the verification battery of symgf verify ---------------------------------

def _coordinate_change():
    # y = g(x), a quadratic near-identity map of the plane
    g = PolyMap([{(1, 0): 1.0, (0, 2): 0.3}, {(0, 1): 1.0, (1, 1): -0.2}], d_in=2)
    return change_coordinates(symplectic_monoid(2), Diffeo(g))


@pytest.mark.parametrize("make, radius, box", [
    (lambda: lie_monoid(LieStructure.so3(), trunc=2), 0.05, 1.0),
    (_coordinate_change, 0.05, 0.25),
], ids=["so3-trunc2", "coordinate-change"])
def test_verify_monoid_is_the_four_checks_on_the_five_grids(make, radius, box):
    S, n, seed, tols = make(), 6, 11, cli.DEFAULT_TOLS
    d = S.n
    ps, xs = sample_ball(n, d, radius, seed), sample_box(n, d, -box, box, seed + 1)
    p3s, axs = sample_ball(n, 3 * d, radius, seed + 2), sample_box(n, d, -box, box, seed + 3)
    jxs = sample_box(n, d, -box, box, seed + 4)
    want = [check_unit(S, ps, xs, tols["unit"]),
            check_associativity(S, p3s, axs, tols["associativity"]),
            *check_groupoid(S, ps, xs, tols),
            check_jacobi(S, jxs, tols["jacobi"])]
    got = cli.verify_monoid(S, n, radius, box, seed, tols)
    assert [r.to_json_dict() for r in got] == [r.to_json_dict() for r in want]
    assert [r.tol for r in got] == [r.tol for r in want]


def test_verify_calls_each_check_through_the_cli_module(monkeypatch):
    # the benchmark's phase hook and tracer wrap these attributes of symgf.cli
    # and read the grid size as the length of the second positional argument
    names = ("check_unit", "check_associativity", "check_groupoid", "check_jacobi")
    calls = []
    for name in names:
        def spy(*args, _name=name, _check=getattr(cli, name), **kwargs):
            calls.append((_name, len(args[1])))
            return _check(*args, **kwargs)
        monkeypatch.setattr(cli, name, spy)
    assert main(["verify", "--builtin", "symplectic", "--grid-n", "7"]) == 0
    assert calls == [(name, 7) for name in names]


def test_verify_runs_its_checks_with_the_import_heap_frozen(monkeypatch):
    # main freezes what the imports left tracked, so no collection in the
    # checks walks it; the collector itself stays on
    seen, check = [], cli.check_unit

    def spy(*args, **kwargs):
        seen.append((gc.get_freeze_count(), gc.isenabled()))
        return check(*args, **kwargs)

    monkeypatch.setattr(cli, "check_unit", spy)
    assert main(["verify", "--builtin", "symplectic", "--grid-n", "4"]) == 0
    (count, enabled), = seen
    assert count > 0 and enabled


def test_non_finite_residual_is_written_and_exits_one(tmp_path):
    # far out the unit residual overflows to NaN; the run is a subprocess, so
    # that no RuntimeWarning reaches its stderr
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "symgf.cli", "verify", "--builtin", "symplectic", "--d", "2",
         "--grid-n", "4", "--x-box", "1e300", "--p-radius", "1e10", "--out", str(out)],
        capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert "overall: FAIL" in proc.stdout
    doc = json.loads(out.read_text())
    assert (doc["passed"], doc["exit_code"]) == (False, 1)
    unit = doc["reports"][0]
    assert (unit["axiom"], unit["max"], unit["mean"]) == ("unit", "nan", "nan")
    assert unit["failures"] and all(f["residual"] == "nan" for f in unit["failures"])


def test_overflowing_kontsevich_residuals_fail_without_a_runtime_warning(capsys):
    # at eps = 1e308 every check but unit overflows to NaN; the sweep evaluates
    # its blocks with overflow silent, so the suite's RuntimeWarning filter passes
    code = main(["verify", "--builtin", "kontsevich", "--alpha", "so3", "--eps", "1e308",
                 "--order", "1", "--grid-n", "4"])
    out, err = capsys.readouterr()
    assert code == 1 and out.count("[FAIL]") == 5 and "overall: FAIL" in out
    assert err.splitlines() == ["warning: --p-radius 0.1 exceeds the monoid's domain radius 5e-309"]


def test_a_box_too_wide_for_finite_points_exits_two(tmp_path, capsys):
    out = tmp_path / "poisson.json"
    assert main(["poisson", "--builtin", "symplectic", "--d", "2", "--grid-n", "2",
                 "--x-box", "1e308", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: the box [-1e+308, 1e+308]^2 is too wide for finite sample points"]
    assert not out.exists()


OVERFLOWING_COMMANDS = {
    # a quadratic bivector overflows at |x| ~ 1e200
    "poisson": ["poisson", "--builtin", "kontsevich", "--alpha",
                str(DATA / "alpha_quadratic_d2.json"), "--eps", "0.1", "--x-box", "1e200",
                "--grid-n", "3"],
    # <p, x> overflows: the composite value is inf + inf - inf
    "compose": ["compose", "--f", "builtin:identity:2", "--g", "builtin:identity:2",
                "--p", "1e200,1e200", "--x", "1e200,1e200"],
}


@pytest.mark.parametrize("write", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("command", list(OVERFLOWING_COMMANDS))
def test_overflow_exits_one_with_one_line_and_no_report(tmp_path, capsys, command, write):
    # valid input whose values overflow is a numerical breakdown: it printed
    # inf or nan and exited 0, or exited 2 only when --out could not write it
    out = tmp_path / "report.json"
    argv = OVERFLOWING_COMMANDS[command] + (["--out", str(out)] if write else [])
    assert main(argv) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "is not finite (overflow) at " in err
    assert not out.exists()


@pytest.mark.parametrize("argv, dims", [
    (["verify", "--builtin", "symplectic", "--d", "14"], 43),
    (["poisson", "--builtin", "identity", "--d", "40"], 41),
    (["morphism", "--f", "builtin:identity:20", "--dom", "builtin:abelian:20",
      "--cod", "builtin:abelian:20"], 41),
], ids=["verify", "poisson", "morphism"])
def test_dimensions_beyond_the_halton_bases_exit_two(argv, dims, capsys):
    # the 40 Halton bases limit verify to d <= 13, poisson to d <= 39 and
    # morphism to d_M <= 19, below the accepted 64 (README, Limitations)
    assert main(argv + ["--grid-n", "2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: at most 40 dimensions supported, got {dims}"]


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
