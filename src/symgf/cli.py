"""Command-line front end.

Subcommands:

    verify    run the monoid/groupoid checks on a built-in or JSON monoid
    poisson   extract the bivector and source/target maps
    compose   evaluate a stationary-phase composition at given points
    morphism  test a candidate morphism between two monoids

Exit codes: 0 all checks passed, 1 a check failed or the numerics broke
down (non-convergence, degenerate phase), 2 malformed input.
"""
from __future__ import annotations

import argparse
import gc
import math
import sys

import numpy as np

from . import serialize
from .serialize import MAX_DIM
from .compose import DEFAULT_NEWTON, CompositionError, NewtonOptions, compose
from .genfun import GenFun, NormalizationError, base_map, identity_genfun
from .grids import sample_ball, sample_box
from .monoids import (LieStructure, Order2GateError, PolyPoisson, abelian_monoid,
                      kontsevich_monoid, lie_monoid, symplectic_monoid)
from .verify import (GROUPOID_AXIOMS, check_associativity, check_groupoid, check_jacobi,
                     check_morphism, check_poisson_map, check_unit,
                     poisson_bivector, source_target)


class UserInputError(Exception):
    pass


class OverflowBreakdown(Exception):
    """A value a command prints or records is not finite: exit 1."""


DEFAULT_TOLS = {
    "unit": 1e-10,
    "associativity": 1e-9,
    "source-poisson": 1e-9,
    "target-anti-poisson": 1e-9,
    "source-target-commute": 1e-9,
    "jacobi": 1e-10,
    "morphism": 1e-9,
    "poisson-map": 1e-8,
}

# The axioms that verify and morphism check: the names their --tol takes.
VERIFY_AXIOMS = ("unit", "associativity", *GROUPOID_AXIOMS, "jacobi")
MORPHISM_AXIOMS = ("morphism", "poisson-map")


# Built-in Lie algebras, by the name that --lie, --alpha and builtin:lie:NAME take.
STRUCTURES = {"so3": LieStructure.so3, "heisenberg": LieStructure.heisenberg}

# What verify's and poisson's reports record: the arguments that build their monoid, by
# source (--monoid or a --builtin name), then the grid's; --weights and --newton-tol if given.
MONOID_CONFIG = {"monoid": ("monoid",), "symplectic": ("builtin", "d"),
                 "identity": ("builtin", "d"), "lie": ("builtin", "lie", "trunc"),
                 "kontsevich": ("builtin", "alpha", "eps", "order", "weights")}
GRID_CONFIG = ("grid_n", "p_radius", "x_box", "seed", "newton_tol")


# --------------------------------------------------------------------------
# Input construction
# --------------------------------------------------------------------------

def _structure(name: str) -> LieStructure:
    return STRUCTURES[name]() if name in STRUCTURES else serialize.load_structure(name)


def _bivector(name: str) -> PolyPoisson:
    return (PolyPoisson.linear_from_structure(STRUCTURES[name]()) if name in STRUCTURES
            else serialize.load_poisson(name))


def build_monoid(args) -> GenFun:
    """Monoid selection shared by verify/poisson: --monoid or --builtin."""
    b = args.builtin
    if args.weights is not None and (args.monoid or (b, args.order) != ("kontsevich", 2)):
        raise UserInputError("--weights needs --builtin kontsevich --order 2")
    if args.monoid:
        return parse_genfun_source(args.monoid, "--monoid")
    if b is None:
        raise UserInputError("choose a monoid with --builtin or --monoid")
    if b == "symplectic":
        return symplectic_monoid(args.d)
    if b == "identity":
        return abelian_monoid(args.d)
    if b == "lie":
        return lie_monoid(_structure(args.lie), trunc=args.trunc)
    # argparse's choices leave kontsevich
    if args.alpha is None:
        raise UserInputError("--builtin kontsevich needs --alpha (name or JSON path)")
    weights = None if args.weights is None else tuple(_parse_floats(args.weights, "--weights", 2))
    return kontsevich_monoid(_bivector(args.alpha), eps=args.eps,
                             order=args.order, weights=weights)


def parse_genfun_source(token: str, flag: str | None = None) -> GenFun:
    """A genfun argument: a JSON path or a builtin:kind[:arg[:arg]] token.

    ``flag`` names an argument that takes a monoid; its genfun must have
    m = 2n.
    """
    if not token.startswith("builtin:"):
        S = serialize.load_genfun(token)
    else:
        kind, *rest = token.split(":")[1:]
        builders = {"identity": identity_genfun, "abelian": abelian_monoid,
                    "symplectic": symplectic_monoid}
        try:
            if len(rest) > (2 if kind == "lie" else 1):
                raise ValueError("too many fields (forms: builtin:identity|abelian|"
                                 "symplectic[:d], builtin:lie:NAME[:trunc])")
            if kind in builders:
                S = builders[kind](_dimension(rest[0] if rest else "2"))
            elif kind != "lie":
                raise UserInputError(f"unknown builtin token {token!r}")
            elif not rest:
                raise UserInputError("builtin:lie needs a structure name, e.g. builtin:lie:so3")
            else:
                S = lie_monoid(_structure(rest[0]), trunc=int(rest[1]) if len(rest) > 1 else 4)
        except (ValueError, IndexError, argparse.ArgumentTypeError) as exc:
            raise UserInputError(f"bad builtin token {token!r}: {exc}") from exc
    if flag and S.m != 2 * S.n:
        raise UserInputError(
            f"{flag} {token}: expected a monoid genfun (m = 2n), got m={S.m}, n={S.n}")
    return S


def _parse_floats(text, what, expect=None):
    try:
        vals = [float(v) for v in text.replace(";", ",").split(",") if v.strip()]
    except ValueError as exc:
        raise UserInputError(f"{what}: expected comma-separated numbers, got {text!r}") from exc
    if not all(map(math.isfinite, vals)):
        raise UserInputError(f"{what}: numbers must be finite, got {text!r}")
    if expect is not None and len(vals) != expect:
        raise UserInputError(f"{what}: expected {expect} numbers, got {len(vals)}")
    return vals


def _parse_tols(pairs, axioms):
    tols = {a: DEFAULT_TOLS[a] for a in axioms}
    for item in pairs or []:
        if "=" not in item:
            raise UserInputError(f"--tol expects AXIOM=VALUE, got {item!r}")
        name, _, val = item.partition("=")
        name = name.strip()
        if name not in tols:
            raise UserInputError(
                f"unknown axiom {name!r} in --tol (choose from {', '.join(tols)})")
        try:
            tols[name] = float(val)
        except ValueError as exc:
            raise UserInputError(f"--tol {item!r}: bad number") from exc
        if not (np.isfinite(tols[name]) and tols[name] > 0):
            raise UserInputError(f"--tol {item!r}: a tolerance must be finite and > 0")
    return tols


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def _newton(args) -> NewtonOptions:
    return DEFAULT_NEWTON if args.newton_tol is None else NewtonOptions(tol=args.newton_tol)


def _config_dict(args, keys=None):
    keys = keys or MONOID_CONFIG["monoid" if args.monoid else args.builtin] + GRID_CONFIG
    given = vars(args)
    return {"command": args.command, **{k: given[k] for k in keys if given.get(k) is not None}}


def _write_report(args, doc):
    if args.out:
        serialize.dump(doc, args.out)
        print(f"report written to {args.out}")


def _finish(reports, args, config_keys=None, extra=None) -> int:
    for r in reports:
        print(r.summary_line())
    passed = all(r.passed for r in reports)
    print("overall:", "pass" if passed else "FAIL")
    config = {**_config_dict(args, config_keys), "tol": {r.axiom: r.tol for r in reports}}
    _write_report(args, serialize.reports_to_dict(reports, config=config, extra=extra))
    return 0 if passed else 1


def _require_finite(what, at, *stacks):
    """Raise :class:`OverflowBreakdown` naming ``at(i)``, the first row i at
    which one of ``stacks`` (arrays with one row per point) is not finite."""
    ok = np.logical_and.reduce([np.isfinite(a.reshape(len(a), -1)).all(axis=1) for a in stacks])
    if not ok.all():
        raise OverflowBreakdown(f"{what} is not finite (overflow) {at(int(np.argmin(ok)))}")


def _warn_beyond_domain(args, S):
    if args.p_radius > S.domain_radius:
        print(f"warning: --p-radius {args.p_radius:g} exceeds the monoid's domain radius "
              f"{S.domain_radius:g}", file=sys.stderr)


def verify_monoid(S: GenFun, grid_n, p_radius, x_box, seed, tols, opts=DEFAULT_NEWTON) -> list:
    """The six reports of ``symgf verify``, in its order, with tolerances from
    ``tols`` (an axiom -> tolerance dict such as :data:`DEFAULT_TOLS`).

    Grid ``seed`` draws the momenta, ``seed + 1`` the base points, ``seed + 2``
    the momentum triples, ``seed + 3`` their base points and ``seed + 4`` the
    Jacobi points.  The checks are called through this module's globals, grid
    second, so a wrapper set on ``symgf.cli.check_*`` sees every call."""
    d, n = S.n, grid_n
    ps = sample_ball(n, d, p_radius, seed)
    xs = sample_box(n, d, -x_box, x_box, seed + 1)
    p3s = sample_ball(n, 3 * d, p_radius, seed + 2)
    axs = sample_box(n, d, -x_box, x_box, seed + 3)
    jxs = sample_box(n, d, -x_box, x_box, seed + 4)
    return [check_unit(S, ps, xs, tols["unit"]),
            check_associativity(S, p3s, axs, tols["associativity"], opts),
            *check_groupoid(S, ps, xs, tols),
            check_jacobi(S, jxs, tols["jacobi"])]


def cmd_verify(args) -> int:
    S = build_monoid(args)
    _warn_beyond_domain(args, S)
    reports = verify_monoid(S, args.grid_n, args.p_radius, args.x_box, args.seed,
                            _parse_tols(args.tol, VERIFY_AXIOMS), _newton(args))

    fit = getattr(S, "order2_fit", None)
    extra = None if fit is None else {"order2_gate": {
        "c1": fit.c1, "c2": fit.c2, "floor": fit.floor, "n_rows": fit.n_rows,
        "passed": fit.passed}}
    print(f"monoid: {S.label}  (d={S.n})")
    return _finish(reports, args, extra=extra)


def cmd_poisson(args) -> int:
    S = build_monoid(args)
    _warn_beyond_domain(args, S)
    d, seed = S.n, args.seed
    field = poisson_bivector(S)
    if args.at_x:
        xs = np.array([_parse_floats(t, "--at-x", d) for t in args.at_x])
    else:
        xs = sample_box(args.grid_n, d, -args.x_box, args.x_box, seed + 1)
    ps = sample_ball(min(args.grid_n, len(xs)), d, args.p_radius, seed)

    pxs = xs[:len(ps)]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value exits 1 below
        alpha = field.matrix(xs)
        (src, _, _), (tgt, _, _) = source_target(S, ps, pxs)
    _require_finite("the bivector", lambda i: f"at x={xs[i]}", alpha)
    _require_finite("the source/target map", lambda i: f"at p={ps[i]}, x={pxs[i]}", src, tgt)
    # serialize.dumps writes numpy arrays and scalars as JSON lists and numbers
    alpha_rows = [{"x": x, "entries": [[i, j, a[i, j]] for i in range(d) for j in range(i + 1, d)]}
                  for x, a in zip(xs, alpha)]
    st_rows = [{"p": p, "x": x, "source": s, "target": t} for p, x, s, t in zip(ps, pxs, src, tgt)]

    print(f"monoid: {S.label}  (d={d})")
    print(f"alpha at x = {np.array2string(xs[0], precision=6)}:")
    print(np.array2string(alpha[0], precision=6, suppress_small=True))
    print(f"source/target at p = {np.array2string(ps[0], precision=6)}, x above:")
    print("  s =", np.array2string(src[0], precision=6))
    print("  t =", np.array2string(tgt[0], precision=6))
    _write_report(args, {"config": _config_dict(args), "alpha": alpha_rows,
                         "source_target": st_rows})
    return 0


def cmd_compose(args) -> int:
    F = parse_genfun_source(args.f)
    G = parse_genfun_source(args.g)
    if F.m != G.n:
        raise UserInputError(
            f"cannot compose: F has m={F.m} but G has n={G.n} (need F.m == G.n)")
    C = compose(F, G, _newton(args))
    points = []
    if args.points:
        data = serialize.load(args.points)
        if not isinstance(data, list):
            raise UserInputError(f"{args.points}: expected a JSON list of points")
        for row in data:
            try:
                p, x = (np.array([serialize._number(v, f"each entry of '{key}'") for v in row[key]])
                        for key in ("p", "x"))
            except (KeyError, TypeError, ValueError) as exc:
                raise UserInputError(
                    f"{args.points}: each point needs number lists 'p' and 'x' ({exc!r})") from exc
            points.append((p, x))
    if args.p or args.x:
        if not (args.p and args.x):
            raise UserInputError("--p and --x must be given together")
        points.append((np.array(_parse_floats(args.p, "--p", C.m)),
                       np.array(_parse_floats(args.x, "--x", C.n))))
    if not points:
        raise UserInputError("give a point with --p/--x or --points FILE")

    for p, x in points:
        if p.shape != (C.m,) or x.shape != (C.n,):
            raise UserInputError(
                f"point has shape ({p.shape[0]}, {x.shape[0]}), need ({C.m}, {C.n})")
    P, X = (np.array(a) for a in zip(*points))
    # one stacked solve; each point keeps its own iterate and statistics
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value exits 1 below
        j, sol = C._solve_jet(P, X, 1)
    _require_finite("the composite", lambda i: f"at p={P[i]}, x={X[i]}",
                    j.value, j.grad, sol.residuals)
    rows = []
    for p, x, value, grad, iterations, residual in zip(
            P, X, j.value.tolist(), j.grad, sol.iterations.tolist(), sol.residuals.tolist()):
        rows.append({"p": p, "x": x, "value": value, "grad_p": grad[:C.m], "grad_x": grad[C.m:],
                     "iterations": iterations, "residual": residual})
        print(f"p = {np.array2string(p, precision=6)}  x = {np.array2string(x, precision=6)}")
        print(f"  value   = {value:.12g}")
        print(f"  grad_p  = {np.array2string(grad[:C.m], precision=8)}")
        print(f"  grad_x  = {np.array2string(grad[C.m:], precision=8)}")
        print(f"  newton: {iterations} iterations, residual {residual:.3e}")
    _write_report(args, {"config": _config_dict(args, ("f", "g", "newton_tol")), "points": rows})
    return 0


def cmd_morphism(args) -> int:
    F = parse_genfun_source(args.f)
    S_M = parse_genfun_source(args.dom, "--dom")
    S_N = parse_genfun_source(args.cod, "--cod")
    d_M, d_N = S_M.n, S_N.n
    if F.m != d_M or F.n != d_N:
        raise UserInputError(
            f"morphism genfun must have m={d_M}, n={d_N}; got m={F.m}, n={F.n}")
    _warn_beyond_domain(args, S_M)
    tols = _parse_tols(args.tol, MORPHISM_AXIOMS)
    n, seed = args.grid_n, args.seed
    ps = sample_ball(n, 2 * d_M, args.p_radius, seed)
    xs = sample_box(n, d_N, -args.x_box, args.x_box, seed + 1)
    pxs = sample_box(n, d_N, -args.x_box, args.x_box, seed + 2)

    reports = [check_morphism(F, S_M, S_N, ps, xs, tols["morphism"], _newton(args)),
               check_poisson_map(base_map(F), poisson_bivector(S_N),
                                 poisson_bivector(S_M), pxs, tols["poisson-map"])]
    print(f"morphism candidate: {F.label or args.f}  ({S_M.label} -> {S_N.label})")
    return _finish(reports, args, ("f", "dom", "cod", *GRID_CONFIG))


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------

def _finite(text) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return v


def _positive(text) -> float:
    v = _finite(text)
    if v <= 0:
        raise argparse.ArgumentTypeError(f"expected a number > 0, got {text!r}")
    return v


def _count(text, least=1) -> int:
    v = int(text)
    if v < least:
        raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
    return v


def _seed(text) -> int:
    return _count(text, 0)


def _dimension(text) -> int:
    """A dimension of a built-in genfun, from 1 to :data:`MAX_DIM`."""
    d = _count(text)
    if d > MAX_DIM:
        raise argparse.ArgumentTypeError(f"expected a dimension <= {MAX_DIM}, got {text!r}")
    return d


def _add_monoid_flags(sp):
    sp.add_argument("--builtin", choices=("symplectic", "lie", "kontsevich", "identity"),
                    help="built-in monoid family")
    sp.add_argument("--monoid", help="monoid genfun: JSON path or builtin:TOKEN")
    sp.add_argument("--d", type=_dimension, default=2, help="dimension for symplectic/identity")
    sp.add_argument("--lie", default="so3",
                    help="structure constants: so3, heisenberg, or a JSON path")
    sp.add_argument("--trunc", type=int, default=4,
                    help="truncation order of the group law (1..4)")
    sp.add_argument("--alpha", help="bivector for kontsevich: so3, heisenberg, or JSON path")
    sp.add_argument("--eps", type=_finite, default=0.1, help="formal parameter value")
    sp.add_argument("--order", type=int, default=1, choices=(1, 2),
                    help="expansion order of the kontsevich monoid")
    sp.add_argument("--weights", help="override order-2 weights as 'c1,c2'")


def _add_grid_flags(sp):
    sp.add_argument("--grid-n", type=_count, default=200, dest="grid_n",
                    help="sample count per check")
    sp.add_argument("--p-radius", type=_positive, default=0.1, dest="p_radius",
                    help="momentum ball radius")
    sp.add_argument("--x-box", type=_positive, default=1.0, dest="x_box",
                    help="base-point box half-width")
    sp.add_argument("--seed", type=_seed, default=0, help="grid scramble seed")


def _add_common(sp):
    sp.add_argument("--tol", action="append", metavar="AXIOM=VAL",
                    help="override a tolerance (repeatable)")
    sp.add_argument("--newton-tol", type=_positive, dest="newton_tol",
                    help=f"stationary-point solver tolerance (default {DEFAULT_NEWTON.tol:g})")
    sp.add_argument("--out", help="write a JSON report here")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="symgf",
        description="generating-function calculus for symplectic micromorphisms")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="run monoid/groupoid checks")
    _add_monoid_flags(sp)
    _add_grid_flags(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("poisson", help="extract bivector and source/target maps")
    _add_monoid_flags(sp)
    _add_grid_flags(sp)
    sp.add_argument("--at-x", action="append", metavar="X1,X2,...",
                    help="evaluate at this base point (repeatable)")
    sp.add_argument("--out", help="write a JSON report here")
    sp.set_defaults(func=cmd_poisson)

    sp = sub.add_parser("compose", help="stationary-phase composition at points")
    sp.add_argument("--f", required=True, help="outer genfun: JSON path or builtin:TOKEN")
    sp.add_argument("--g", required=True, help="inner genfun: JSON path or builtin:TOKEN")
    sp.add_argument("--p", help="momentum coordinates, comma-separated")
    sp.add_argument("--x", help="base coordinates, comma-separated")
    sp.add_argument("--points", help="JSON file with a list of {p, x} points")
    sp.add_argument("--newton-tol", type=_positive, dest="newton_tol")
    sp.add_argument("--out", help="write a JSON report here")
    sp.set_defaults(func=cmd_compose)

    sp = sub.add_parser("morphism", help="check a morphism between two monoids")
    sp.add_argument("--f", required=True, help="candidate morphism genfun")
    sp.add_argument("--dom", required=True, help="domain monoid (JSON path or builtin token)")
    sp.add_argument("--cod", required=True, help="codomain monoid (JSON path or builtin token)")
    _add_grid_flags(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_morphism)
    return ap


def main(argv=None) -> int:
    """Run one subcommand; return its exit code.  It leaves the import heap
    frozen in the collector's permanent generation, so neither the checks nor
    interpreter exit collect it; the collector stays on for the run's garbage."""
    gc.freeze()
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except NormalizationError as exc:
        print(f"error: input genfun violates normalization: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        # a ValueError subclass, but the numerics broke down, not the input
        print(f"error: linear algebra failed: {exc}", file=sys.stderr)
        return 1
    except (UserInputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Order2GateError as exc:
        print(f"weight fit gate failed: {exc}", file=sys.stderr)
        return 1
    except CompositionError as exc:
        print(f"composition failed: {exc}", file=sys.stderr)
        return 1
    except OverflowBreakdown as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
