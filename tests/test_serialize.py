import json
import pathlib

import numpy as np
import pytest

from symgf import LieStructure, PolyPoisson, lie_monoid, symplectic_monoid
from symgf.serialize import (MAX_DIM, MAX_EXPONENT, dump, dumps,
                             genfun_from_dict, genfun_to_dict, load_genfun, load_poisson,
                             load_structure, poisson_from_dict, poisson_to_dict,
                             structure_from_dict, structure_to_dict)

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def test_float_formatting_round_trips():
    # every float, a zero of either sign too, reads back as the float it was
    for v in (0.1, -0.3, 1.0, 1e-17, 2**-52, 0.4 + 0.3, np.pi, 1e300, 5e-324, 0.0, -0.0):
        back = json.loads(dumps(v))
        assert type(back) is float and repr(back) == repr(v)
    assert dumps([0.0, -0.0]) == "[\n  0.0,\n  -0.0\n]\n"
    for v in (float("nan"), float("inf"), -float("inf"), np.float64("nan"), np.float32("-inf")):
        with pytest.raises(ValueError):
            dumps({"max": [v]})
    # numpy scalars and arrays come out as numbers and lists, np.float64 not as its repr
    doc = json.loads(dumps({"f": np.float64(0.1), "f32": np.float32(0.5), "i": np.int64(-3),
                            "b": np.bool_(True), "a": np.arange(4).reshape(2, 2) / 2}))
    assert doc == {"f": 0.1, "f32": 0.5, "i": -3, "b": True, "a": [[0.0, 0.5], [1.0, 1.5]]}
    assert type(doc["i"]) is int and type(doc["f32"]) is float
    for obj in (object(), {1, 2}, b"x", 1j, np.complex128(1j)):
        with pytest.raises(TypeError):
            dumps({"x": [obj]})


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


def test_json_dimensions_are_bounded_by_max_dim():
    # the largest accepted documents load; one more dimension is rejected
    assert poisson_from_dict({"d": MAX_DIM}).d == MAX_DIM
    assert genfun_from_dict({"d": MAX_DIM}).n == MAX_DIM
    assert genfun_from_dict({"m": 2 * MAX_DIM, "n": MAX_DIM}).m == 2 * MAX_DIM
    for from_dict in (structure_from_dict, poisson_from_dict, genfun_from_dict):
        with pytest.raises(ValueError, match=f"between 1 and {MAX_DIM}"):
            from_dict({"d": MAX_DIM + 1})
    with pytest.raises(ValueError, match=f"m \\+ n <= {3 * MAX_DIM}"):
        genfun_from_dict({"m": 2 * MAX_DIM + 1, "n": MAX_DIM})


def test_json_exponents_are_bounded_by_max_exponent():
    # the largest accepted exponent loads; one more is rejected, in every slot
    top = {"coeff": 1.0, "p1": [MAX_EXPONENT], "p2": [1], "x": [MAX_EXPONENT]}
    S = genfun_from_dict({"d": 1, "terms": [top]})
    assert S.terms == {((MAX_EXPONENT, 1), (MAX_EXPONENT,)): 1.0}
    for key in ("p1", "p2", "x"):
        with pytest.raises(ValueError, match=f"{key} must be integers from 0 to {MAX_EXPONENT}"):
            genfun_from_dict({"d": 1, "terms": [{**top, key: [MAX_EXPONENT + 1]}]})
    entry = {"i": 0, "j": 1, "terms": [{"coeff": 1.0, "x": [MAX_EXPONENT, 0]}]}
    alpha = poisson_from_dict({"d": 2, "entries": [entry]})
    assert alpha.entries == {(0, 1): {(MAX_EXPONENT, 0): 1.0}}
    entry["terms"][0]["x"] = [0, MAX_EXPONENT + 1]
    with pytest.raises(ValueError, match=f"x must be integers from 0 to {MAX_EXPONENT}"):
        poisson_from_dict({"d": 2, "entries": [entry]})


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


def _bivector_doc(*entries):
    return {"d": 2, "entries": [{"i": i, "j": j, "terms": [{"coeff": c, "x": [1, 0]}]}
                                for i, j, c in entries]}


def test_poisson_entry_written_in_both_triangles_is_read_once():
    # one antisymmetric matrix written out in full: alpha^{01} = x_1, not 2 x_1
    full = poisson_from_dict(_bivector_doc((0, 1, 1.0), (1, 0, -1.0)))
    assert full.entries == {(0, 1): {(1, 0): 1.0}}
    # duplicates within one triangle still sum, before the halves are compared
    halves = poisson_from_dict(_bivector_doc((0, 1, 0.5), (0, 1, 0.5), (1, 0, -1.0)))
    assert halves.entries == {(0, 1): {(1, 0): 1.0}}
    assert poisson_from_dict(_bivector_doc((0, 1, 0.5), (0, 1, 0.5))).entries == {
        (0, 1): {(1, 0): 1.0}}
    with pytest.raises(ValueError, match=r"entries \(0, 1\) and \(1, 0\) disagree"):
        poisson_from_dict(_bivector_doc((0, 1, 1.0), (1, 0, 1.0)))


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
