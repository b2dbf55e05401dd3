"""JSON input/output.

Two concerns drive the hand-rolled emitter instead of plain ``json.dump``:
floats are rendered as their ``repr``, the shortest string that round-trips
exactly, and key order is fixed by construction, so a report generated from
the same configuration and seed is byte-identical across runs.  Integer
fields of an input must be JSON integers: ``true`` or ``2.0`` is rejected.
"""
from __future__ import annotations

import json
import math
import numbers

import numpy as np

from .genfun import PolyGenFun, poly_genfun
from .monoids import LieStructure, PolyPoisson

# The order-3 jet of a monoid genfun on R^d holds (3d)^3 floats: 57 MB at d = 64.
MAX_DIM = 64


# --------------------------------------------------------------------------
# Deterministic emitter
# --------------------------------------------------------------------------

def format_float(v) -> str:
    v = float(v)
    if math.isnan(v) or math.isinf(v):
        raise ValueError(f"cannot serialize non-finite float {v!r}")
    if v == 0.0:
        return "0"  # normalize -0.0 as well
    # repr of a float is the shortest digit string that round-trips exactly
    return repr(v)


def _emit(obj, level):
    pad = "  " * level
    inner = pad + "  "
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_emit(v, level + 1) for v in obj]
        if all("\n" not in s and len(s) <= 20 for s in items) and sum(map(len, items)) <= 72:
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = []
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {k!r}")
            rows.append(inner + json.dumps(k) + ": " + _emit(v, level + 1))
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    return _emit(obj, 0) + "\n"


def dump(obj, path):
    text = dumps(obj)
    with open(path, "w") as fh:
        fh.write(text)
    return text


def _finite(text, kind=float):
    # json accepts NaN, Infinity and -Infinity, reads 1e999 as inf, and reads
    # a 401-digit integer exactly although it overflows as a coefficient
    if not math.isfinite(float(text)):
        raise ValueError(f"non-finite number {text} is not allowed in JSON input")
    return kind(text)


def load(path):
    with open(path) as fh:
        return json.load(fh, parse_float=_finite, parse_constant=_finite,
                         parse_int=lambda text: _finite(text, int))


# --------------------------------------------------------------------------
# Generating functions
# --------------------------------------------------------------------------

def genfun_to_dict(gf: PolyGenFun) -> dict:
    if not isinstance(gf, PolyGenFun):
        raise TypeError("only polynomial generating functions can be serialized")
    terms = sorted(gf.terms.items())
    if gf.m == 2 * gf.n and gf.n > 0:
        d = gf.n
        out_terms = [
            {"coeff": float(c), "p1": list(pe[:d]), "p2": list(pe[d:]), "x": list(xe)}
            for (pe, xe), c in terms
        ]
        return {"d": d, "terms": out_terms}
    out_terms = [
        {"coeff": float(c), "p": list(pe), "x": list(xe)} for (pe, xe), c in terms
    ]
    return {"m": gf.m, "n": gf.n, "terms": out_terms}


def _integer(v, what) -> int:
    # bool is an int, and int() would truncate a float such as 1.7
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {v!r}")
    return int(v)


def _int_tuple(seq, what, length=None):
    try:
        out = tuple(_integer(v, f"each entry of {what}") for v in seq)
    except TypeError as exc:
        raise ValueError(f"{what} must be a list of integers") from exc
    if any(v < 0 for v in out):
        raise ValueError(f"{what} must be non-negative integers")
    if length is not None and len(out) != length:
        raise ValueError(f"{what} must have length {length}, got {len(out)}")
    return out


def _dimension(data: dict) -> int:
    """The ``"d"`` of a document, from 1 to :data:`MAX_DIM`."""
    d = _integer(data["d"], "d")
    if not 1 <= d <= MAX_DIM:
        raise ValueError(f"d must be between 1 and {MAX_DIM}, got {d}")
    return d


def genfun_from_dict(data: dict, label="") -> PolyGenFun:
    """Accepts either the monoid schema ({"d", terms with p1/p2/x}) or the
    general one ({"m", "n", terms with p/x})."""
    if not isinstance(data, dict):
        raise ValueError("generating function JSON must be an object")
    if "d" in data:
        d = _dimension(data)
        m, n = 2 * d, d
        terms = {}
        for t in data.get("terms", []):
            pe = _int_tuple(t["p1"], "p1", d) + _int_tuple(t["p2"], "p2", d)
            xe = _int_tuple(t["x"], "x", d)
            key = (pe, xe)
            terms[key] = terms.get(key, 0.0) + float(t["coeff"])
    elif "m" in data and "n" in data:
        m, n = _integer(data["m"], "m"), _integer(data["n"], "n")
        if m < 0 or n <= 0 or m + n > 3 * MAX_DIM:
            raise ValueError(f"need m >= 0, n >= 1 and m + n <= {3 * MAX_DIM}")
        terms = {}
        for t in data.get("terms", []):
            key = (_int_tuple(t["p"], "p", m), _int_tuple(t["x"], "x", n))
            terms[key] = terms.get(key, 0.0) + float(t["coeff"])
    else:
        raise ValueError('generating function JSON needs "d" or both "m" and "n"')
    return poly_genfun(terms, m, n, label=label or data.get("label", ""))


def _parse(path, from_dict, what, **kwargs):
    """``from_dict`` applied to the JSON document at ``path``; a document of
    the wrong shape (a missing key, a list where an object belongs) raises
    ValueError like any other malformed input."""
    data = load(path)
    try:
        return from_dict(data, **kwargs)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed {what} JSON ({exc!r})") from exc


def load_genfun(path) -> PolyGenFun:
    return _parse(path, genfun_from_dict, "generating function", label=str(path))


# --------------------------------------------------------------------------
# Lie structure constants and polynomial bivectors
# --------------------------------------------------------------------------

def structure_to_dict(ls: LieStructure) -> dict:
    rows = []
    d = ls.d
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(d):
                v = ls.c[k, i, j]
                if v != 0.0:
                    rows.append([i, j, k, float(v)])
    return {"d": d, "name": ls.name, "c": rows}


def structure_from_dict(data: dict) -> LieStructure:
    if not isinstance(data, dict) or "d" not in data:
        raise ValueError('structure-constant JSON must be an object with "d"')
    d = _dimension(data)
    c = np.zeros((d, d, d))
    seen = {}
    for row in data.get("c", []):
        if len(row) != 4:
            raise ValueError("each structure row must be [i, j, k, value]")
        i, j, k = (_integer(v, "a structure index") for v in row[:3])
        v = float(row[3])
        if not (0 <= i < d and 0 <= j < d and 0 <= k < d):
            raise ValueError(f"structure indices out of range in row {row}")
        if i == j:
            if v != 0.0:
                raise ValueError(f"[e_i, e_i] must vanish (row {row})")
            continue
        for key, val in (((i, j, k), v), ((j, i, k), -v)):
            if key in seen and seen[key] != val:
                raise ValueError(f"conflicting values for c^{key[2]}_{key[0]}{key[1]}")
            seen[key] = val
        c[k, i, j] = v
        c[k, j, i] = -v
    return LieStructure(d, c, name=str(data.get("name", "custom")))


def load_structure(path) -> LieStructure:
    return _parse(path, structure_from_dict, "structure-constant")


def poisson_to_dict(poly: PolyPoisson) -> dict:
    entries = []
    for (i, j), xpoly in sorted(poly.entries.items()):
        terms = [{"coeff": float(c), "x": list(e)} for e, c in sorted(xpoly.items())]
        entries.append({"i": i, "j": j, "terms": terms})
    return {"d": poly.d, "entries": entries}


def poisson_from_dict(data: dict) -> PolyPoisson:
    if not isinstance(data, dict) or "d" not in data:
        raise ValueError('bivector JSON must be an object with "d"')
    d = _dimension(data)
    entries = {}
    for ent in data.get("entries", []):
        i, j = _integer(ent["i"], "i"), _integer(ent["j"], "j")
        if not (0 <= i < d and 0 <= j < d):
            raise ValueError(f"entry indices ({i}, {j}) out of range for d={d}")
        if i == j:
            raise ValueError("diagonal bivector entries must be omitted (they vanish)")
        xpoly = {}
        for t in ent.get("terms", []):
            e = _int_tuple(t["x"], "x", d)
            xpoly[e] = xpoly.get(e, 0.0) + float(t["coeff"])
        if i > j:  # store upper-triangular with the sign folded in
            i, j = j, i
            xpoly = {e: -c for e, c in xpoly.items()}
        merged = entries.setdefault((i, j), {})
        for e, c in xpoly.items():
            merged[e] = merged.get(e, 0.0) + c
    return PolyPoisson(d=d, entries=entries)


def load_poisson(path) -> PolyPoisson:
    return _parse(path, poisson_from_dict, "bivector")


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------

def reports_to_dict(reports, config=None, extra=None) -> dict:
    from .verify import bracket_sign

    passed = all(r.passed for r in reports)
    out = {"config": config or {}, "bracket_sign": bracket_sign()}
    if extra:
        out.update(extra)
    out["reports"] = [r.to_json_dict() for r in reports]
    out["passed"] = passed
    out["exit_code"] = 0 if passed else 1
    return out
