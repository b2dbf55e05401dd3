"""In-memory span tracing of symgf's public functions, installed from outside.

The tracer replaces module attributes and class methods with wrappers that
record one span per call: name, start, end and parent span.  Spans live in
flat ``array`` buffers (a traced order-2 Kontsevich run records over a
million of them) and are written out once, when the run ends.

Two import details decide where a wrapper must go:

* ``symgf.compose`` as an attribute is the ``compose`` *function*, because
  the package ``__init__`` shadows the submodule, so modules are reached
  through :func:`importlib.import_module`;
* a name imported with ``from .x import y`` is a separate binding in the
  importing module, so it is patched there, where it is called.

Self time is a span's duration minus the durations of its direct children
(one thread, so children never overlap).
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

CHECKS = {"check_unit": "verify.unit", "check_associativity": "verify.associativity",
          "check_groupoid": "verify.groupoid", "check_jacobi": "verify.jacobi"}
BUILD = "monoids.build"

# (module, class or None, attribute, span name, after-call hook).  A span
# name of the form "prefix.o{}" is completed with the call's order argument.
SITES = [
    ("symgf.genfun", "PolyGenFun", "eval_jet", "genfun.poly_jet.o{}", "terms"),
    ("symgf.genfun", None, "poly_term_jet", "jets.poly_term_jet", "derivs"),
    ("symgf.maps", None, "poly_term_jet", "jets.poly_term_jet", "derivs"),
    ("symgf.monoids", None, "poly_term_jet", "jets.poly_term_jet", "derivs"),
    ("symgf.compose", None, "stationary_point", "compose.stationary_point", "iters"),
    ("symgf.compose", "ComposedGenFun", "eval_jet", "compose.composite_jet.o{}", None),
    ("symgf.compose", "ComposedGenFun", "renorm_constant", "compose.renorm_constant", None),
    ("symgf.maps", "InverseMap", "jet", "maps.inverse_jet", None),
    ("symgf.maps", "PolyMap", "jet", "maps.poly_map_jet", None),
    ("symgf.verify", "PoissonField", "matrix", "verify.bivector", None),
    ("symgf.verify", "PoissonField", "with_derivatives", "verify.bivector", None),
    ("symgf.verify", None, "canonical_bracket", "verify.canonical_bracket", None),
    *[(mod, None, fn, name, "points") for mod in ("symgf.verify", "symgf.cli")
      for fn, name in CHECKS.items()],
    ("symgf.monoids", None, "symplectic_monoid", BUILD, None),
    ("symgf.monoids", None, "abelian_monoid", BUILD, None),
    ("symgf.monoids", None, "kontsevich_monoid", BUILD, None),
    ("symgf.cli", None, "lie_monoid", BUILD, None),
    ("symgf.cli", None, "kontsevich_monoid", BUILD, None),
    ("symgf.monoids", None, "fit_tree_weights", "monoids.fit_tree_weights", None),
    ("symgf.grids", None, "halton", "grids.halton", "grid_points"),
    ("symgf.serialize", None, "dump", "serialize.dump", None),
    ("symgf.cli", None, "main", "cli.main", None),
]


def site_key(site) -> str:
    module, owner, attr = site[:3]
    return f"{module}:{owner + '.' if owner else ''}{attr}"


def _derivs_computed(exps, order) -> int:
    """Partials poly_term_jet evaluates for one term: the value, one per
    nonzero exponent at order 1, then every index pair and triple."""
    n = len(exps)
    c = 1
    if order >= 1:
        c += n - tuple(exps).count(0)
    if order >= 2:
        c += n * (n + 1) // 2
    if order >= 3:
        c += n * (n + 1) * (n + 2) // 6
    return c


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = {}
        self.iterations = array("i")
        self.errors: dict[str, int] = {}
        self.site_hits: dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def _after(self, kind, name, args, out):
        if kind == "terms":
            self._count("genfun.poly_jet.terms", len(args[0].terms))
        elif kind == "derivs":
            self._count("jets.monomial_derivs.computed", _derivs_computed(args[1], args[3]))
        elif kind == "iters":
            self.iterations.append(out.iterations)
        elif kind == "points":
            self._count(f"{name}.points", len(args[1]))
        elif kind == "grid_points":
            self._count("grids.points", args[0])

    def wrap(self, fn, name: str, after, key: str):
        """``fn`` wrapped to record one span per call."""
        name_id, parent, start, end, stack = (self.name_id, self.parent, self.start,
                                              self.end, self._stack)
        clock = time.perf_counter
        by_order = "{}" in name
        nid = None if by_order else self._id(name)
        hits = self.site_hits
        hits[key] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            hits[key] += 1
            i = len(start)
            name_id.append(self._id(name.format(args[3])) if by_order else nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.errors[name] = self.errors.get(name, 0) + 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                self._after(after, name, args, out)
            return out

        return traced

    def install(self):
        """Patch every site whose module is already imported."""
        for site in SITES:
            module_name, owner_name, attr, name, after = site
            if module_name not in sys.modules:
                continue
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, after, site_key(site)))

    # ------------------------------------------------------------------
    # After the run
    # ------------------------------------------------------------------

    def arrays(self):
        # copies, so the buffers stay appendable
        nid = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        return nid, parent, np.array(self.start), np.array(self.end)

    def save(self, path):
        nid, parent, start, end = self.arrays()
        np.savez(path, run_id=np.array(self.run_id), names=np.array(self.names),
                 name_id=nid.astype(np.int32), parent=parent.astype(np.int32),
                 start=start, end=end)


def _nearest_ancestor(parent, nid, ids):
    """For each span, the index of its nearest strict ancestor whose name id
    is in ``ids`` (-1 if none).  Parents precede children, so this climbs
    at most the call depth."""
    target = np.isin(nid, ids)
    anc = parent.copy()
    while True:
        climb = (anc >= 0) & ~target[np.maximum(anc, 0)]
        if not climb.any():
            return anc
        anc[climb] = parent[anc[climb]]


def layer_metrics(tr: Tracer, report_bytes: int) -> dict:
    """Every per-layer metric of one traced run, by name."""
    nid, parent, start, end = tr.arrays()
    dur = end - start
    has_parent = parent >= 0
    self_t = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=dur.size)
    ids = tr._ids

    def mask(*names):
        return np.isin(nid, [ids[n] for n in names if n in ids])

    def calls(*names):
        return int(mask(*names).sum())

    def total(*names):
        return float(dur[mask(*names)].sum())

    def self_s(*names):
        return float(self_t[mask(*names)].sum())

    def pct(values, q):
        return float(np.percentile(values, q)) if values.size else 0.0

    orders = range(4)
    poly = [f"genfun.poly_jet.o{k}" for k in orders]
    comp = [f"compose.composite_jet.o{k}" for k in orders]
    out = {}
    for k, name in zip(orders, poly):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.ms"] = pct(dur[mask(name)] * 1e3, 50)
    n_poly = calls(*poly)
    out["genfun.poly_jet.terms_per_call"] = (
        tr.counts.get("genfun.poly_jet.terms", 0) / n_poly if n_poly else 0.0)
    out["genfun.poly_jet.self_s"] = self_s(*poly)

    out["jets.poly_term_jet.calls"] = calls("jets.poly_term_jet")
    out["jets.poly_term_jet.self_s"] = self_s("jets.poly_term_jet")
    out["jets.monomial_derivs.computed"] = int(tr.counts.get("jets.monomial_derivs.computed", 0))

    sp = mask("compose.stationary_point")
    iters = np.array(tr.iterations)
    out["compose.stationary_point.calls"] = int(sp.sum())
    out["compose.newton_iters.mean"] = float(iters.mean()) if iters.size else 0.0
    out["compose.newton_iters.max"] = int(iters.max()) if iters.size else 0
    out["compose.stationary_point.self_s"] = self_s("compose.stationary_point")
    out["compose.stationary_point.ms.p50"] = pct(dur[sp] * 1e3, 50)
    out["compose.stationary_point.ms.p90"] = pct(dur[sp] * 1e3, 90)
    out["compose.renorm_constant.calls"] = calls("compose.renorm_constant")
    for name in comp:
        out[f"{name}.calls"] = calls(name)
    out["compose.composite_jet.self_s"] = self_s(*comp)
    out["compose.errors"] = tr.errors.get("compose.stationary_point", 0)

    out["maps.inverse_jet.calls"] = calls("maps.inverse_jet")
    out["maps.inverse_jet.self_s"] = self_s("maps.inverse_jet")
    out["maps.poly_map_jet.calls"] = calls("maps.poly_map_jet")
    out["maps.poly_map_jet.self_s"] = self_s("maps.poly_map_jet")

    for check in CHECKS.values():
        out[f"{check}.s"] = total(check)
    # the two top-level composite values (left and right triple product)
    # that check_associativity takes per point
    top = mask(*comp) & np.isin(parent, np.nonzero(mask("verify.associativity"))[0])
    pair = dur[top][: 2 * (int(top.sum()) // 2)]
    point_ms = (pair[0::2] + pair[1::2]) * 1e3
    out["verify.associativity.point_ms.p50"] = pct(point_ms, 50)
    out["verify.associativity.point_ms.p90"] = pct(point_ms, 90)
    in_groupoid = _nearest_ancestor(parent, nid, [ids.get("verify.groupoid", -1)]) >= 0
    n_groupoid = tr.counts.get("verify.groupoid.points", 0)
    out["verify.groupoid.poly_jets_per_point"] = (
        float((mask(*poly) & in_groupoid).sum()) / n_groupoid if n_groupoid else 0.0)
    out["verify.bivector.self_s"] = self_s("verify.bivector")
    out["verify.canonical_bracket.calls"] = calls("verify.canonical_bracket")

    outer = mask(BUILD) & (_nearest_ancestor(parent, nid, [ids.get(BUILD, -1)]) < 0)
    out["monoids.build_s"] = float(dur[outer].sum())
    out["monoids.fit_tree_weights.s"] = total("monoids.fit_tree_weights")
    out["monoids.fit_tree_weights.calls"] = calls("monoids.fit_tree_weights")

    out["grids.halton.s"] = total("grids.halton")
    out["grids.points"] = int(tr.counts.get("grids.points", 0))
    out["serialize.dump.s"] = total("serialize.dump")
    out["serialize.report_bytes"] = int(report_bytes)
    out["cli.self_s"] = self_s("cli.main")
    return out
