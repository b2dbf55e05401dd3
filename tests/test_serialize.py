import json
import pathlib

import numpy as np
import pytest

from symgf import LieStructure, PolyPoisson, lie_monoid, symplectic_monoid
from symgf.serialize import (dump, dumps, format_float, genfun_from_dict,
                             genfun_to_dict, load_genfun, load_poisson,
                             load_structure, poisson_from_dict, poisson_to_dict,
                             structure_from_dict, structure_to_dict)

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def test_float_formatting_round_trips():
    for v in (0.1, -0.3, 1.0, 1e-17, 2**-52, 0.4 + 0.3, np.pi):
        assert float(format_float(v)) == v
    assert format_float(0.0) == "0"
    assert format_float(-0.0) == "0"
    with pytest.raises(ValueError):
        format_float(float("nan"))
    with pytest.raises(ValueError):
        format_float(float("inf"))


def test_dumps_is_valid_json_and_deterministic():
    doc = {"a": [1, 2.5, "x"], "b": {"nested": [0.1, -0.0]}, "c": None, "d": True}
    s1 = dumps(doc)
    s2 = dumps(doc)
    assert s1 == s2
    assert json.loads(s1) == {"a": [1, 2.5, "x"], "b": {"nested": [0.1, 0.0]},
                              "c": None, "d": True}


def test_genfun_round_trip_monoid_schema():
    S = symplectic_monoid(2)
    doc = genfun_to_dict(S)
    assert doc["d"] == 2
    back = genfun_from_dict(doc)
    assert back.terms == S.terms
    assert (back.m, back.n) == (S.m, S.n)


def test_genfun_round_trip_general_schema():
    from symgf import poly_genfun
    F = poly_genfun({((1, 0, 1), (1, 0)): 0.25, ((0, 1, 1), (0, 2)): -0.5}, 3, 2)
    doc = genfun_to_dict(F)
    assert doc["m"] == 3 and doc["n"] == 2
    back = genfun_from_dict(doc)
    assert back.terms == F.terms


def test_genfun_file_round_trip(tmp_path):
    S = lie_monoid(LieStructure.so3(), trunc=3)
    path = tmp_path / "m.json"
    dump(genfun_to_dict(S), path)
    back = load_genfun(path)
    assert back.terms == S.terms


def test_genfun_bad_input_raises():
    with pytest.raises(ValueError):
        genfun_from_dict({"terms": []})
    with pytest.raises(ValueError):
        genfun_from_dict({"d": 2, "terms": [{"coeff": 1.0, "p1": [1], "p2": [0, 0],
                                             "x": [0, 0]}]})
    with pytest.raises(ValueError):
        genfun_from_dict({"d": 2, "terms": [{"coeff": 1.0, "p1": [1, -1],
                                             "p2": [0, 0], "x": [0, 0]}]})


def test_structure_round_trip_and_completion():
    st = LieStructure.so3()
    doc = structure_to_dict(st)
    back = structure_from_dict(doc)
    np.testing.assert_array_equal(back.c, st.c)
    # specifying only the upper triangle suffices
    half = {"d": 3, "c": [[0, 1, 2, 1.0], [1, 2, 0, 1.0], [2, 0, 1, 1.0]]}
    np.testing.assert_array_equal(structure_from_dict(half).c, st.c)


def test_structure_conflicting_rows_rejected():
    doc = {"d": 2, "c": [[0, 1, 0, 1.0], [1, 0, 0, 1.0]]}  # should be -1.0
    with pytest.raises(ValueError):
        structure_from_dict(doc)


def test_poisson_round_trip_with_lower_triangle_input():
    alpha = PolyPoisson(2, {(0, 1): {(1, 0): 0.5}})
    doc = poisson_to_dict(alpha)
    back = poisson_from_dict(doc)
    assert back.entries == alpha.entries
    # a lower-triangle entry folds in with a sign flip
    flipped = poisson_from_dict(
        {"d": 2, "entries": [{"i": 1, "j": 0, "terms": [{"coeff": -0.5, "x": [1, 0]}]}]})
    assert flipped.entries == alpha.entries


def test_bundled_data_files_load():
    st = load_structure(DATA / "so3.json")
    assert st.name == "so3" and st.d == 3
    heis = load_structure(DATA / "heisenberg.json")
    assert heis.d == 3
    alpha = load_poisson(DATA / "alpha_so3_linear.json")
    assert alpha.d == 3
    quad = load_poisson(DATA / "alpha_quadratic_d2.json")
    assert quad.d == 2
    S = load_genfun(DATA / "monoid_symplectic_d2.json")
    assert S.terms == symplectic_monoid(2).terms
    L = load_genfun(DATA / "lift_shear_d2.json")
    assert (L.m, L.n) == (2, 2)
