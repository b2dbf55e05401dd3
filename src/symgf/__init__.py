"""Numerical calculus of generating functions for symplectic micromorphisms.

The pieces fit together like this: :mod:`symgf.genfun` defines generating
functions in normalized form and their tensor products and lifts,
:mod:`symgf.compose` composes them by solving the stationary-phase system,
:mod:`symgf.monoids` builds concrete monoid genfuns (symplectic, truncated
Lie group laws, semiclassical expansions of a Poisson bivector), and
:mod:`symgf.verify` measures how well the monoid/groupoid axioms hold on
deterministic sample grids.  :mod:`symgf.cli` exposes the same flow as the
``symgf`` command.
"""

from .compose import (ComposedGenFun, CompositionError, ConvergenceError,
                      DEFAULT_NEWTON, DegeneracyError, Diffeo, NewtonOptions,
                      StationaryPoint, change_coordinates, compose,
                      stationary_point)
from .genfun import (GenFun, LiftGenFun, NormalizationError, PolyGenFun,
                     TensorGenFun, base_map, cotangent_lift, identity_genfun,
                     poly_genfun, tensor)
from .grids import halton, sample_ball, sample_box
from .jets import Jet
from .maps import InverseMap, PolyMap
from .monoids import (LieStructure, Order2GateError, PolyPoisson, TreeWeightFit,
                      abelian_monoid, fit_tree_weights, kontsevich_monoid,
                      lie_monoid, standard_bivector, symplectic_monoid,
                      truncated_group_law)
from .verify import (PoissonField, VerificationReport, bracket_sign,
                     canonical_bracket, check_associativity, check_groupoid,
                     check_jacobi, check_morphism, check_poisson_map, check_unit,
                     poisson_bivector, source_target)

__version__ = "0.1.0"

__all__ = [
    "ComposedGenFun", "CompositionError", "ConvergenceError",
    "DEFAULT_NEWTON", "DegeneracyError", "Diffeo", "NewtonOptions",
    "StationaryPoint", "change_coordinates", "compose", "stationary_point",
    "GenFun", "LiftGenFun", "NormalizationError", "PolyGenFun", "TensorGenFun",
    "base_map", "cotangent_lift", "identity_genfun", "poly_genfun", "tensor",
    "halton", "sample_ball", "sample_box",
    "Jet", "InverseMap", "PolyMap",
    "LieStructure", "Order2GateError", "PolyPoisson", "TreeWeightFit",
    "abelian_monoid", "fit_tree_weights", "kontsevich_monoid", "lie_monoid",
    "standard_bivector", "symplectic_monoid", "truncated_group_law",
    "PoissonField", "VerificationReport", "bracket_sign", "canonical_bracket",
    "check_associativity", "check_groupoid", "check_jacobi", "check_morphism",
    "check_poisson_map", "check_unit", "poisson_bivector", "source_target",
    "__version__",
]
