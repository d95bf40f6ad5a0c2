"""Exact-arithmetic workbench for axial algebras and axets.

Everything runs over exact scalars: rationals, odd prime fields, or
multivariate rational function fields.  The package builds a catalog of
small axial algebras, certifies axes against fusion laws, realizes the
axets their Miyamoto involutions generate, and replays the symbolic
two-axis relation calculus behind the three-point skew classification.
"""

from .algebra import (DimensionMismatch, Element, LinearMap, NotProperIdeal,
                      StructureAlgebra, check_linear_map_is_isomorphism)
from .algfile import (AlgebraFile, ParseError, emit_algebra_file,
                      format_element, parse_algebra_file)
from .axes import (AxisReport, FusionViolation, NoGrading, NotPrimitive,
                   NotSemisimple, component, in_part, is_automorphism,
                   miyamoto, projection, verify_axis)
from .axets import (AbstractAxet, FiniteAxet, NotAnAxis, NotClosedWithinBound,
                    TooLarge, classify_shape, closure, odd_subaxet,
                    realize_axet, restrict, shape_label)
from .catalog import (BadCharacteristic, SkewConstants, SkewExample, make_2B,
                      make_3C, make_3C_minus1_2, make_3C_skew,
                      make_3Cx_minus1, make_generic_skew,
                      make_orthogonal_branch, make_Q2_skew, make_Q2_third,
                      make_Q2x, make_Q2x_plus_one, make_Q2x_via_radical,
                      orthogonal_branch_to_Q2, orthogonal_branch_to_Q2x_plus_one,
                      rehren_oracle, skew_examples)
from .fusion import (DegenerateParameter, FusionLaw, Grading,
                     find_c2_grading, law_family, make_jordan, make_monster)
from .papersuite import (ItemResult, SuiteReport, perturbed, run_suite,
                         table_mismatches)
from .scalars import (BadField, DegreeOverflow, DivisionByZero, ExprError,
                      FunctionField, MixedFields, MultiPoly,
                      NonlinearExpression, PrimeField, QQ, RationalField,
                      RationalFunction, SKEW_SYMBOLS, UnboundSymbol,
                      parse_expression, parse_scalar, skew_field,
                      solve_linear)
from .skewverify import (BranchReport, CheckResult, ContradictionNotFound,
                         IdentityFails, NoMatch, beta_component,
                         check_bracket_table, check_constant_chains,
                         check_eigenvectors_generic, check_flip_symmetry,
                         check_projection_relation, check_seress_relation_u,
                         check_seress_relation_v, check_shift_expansion,
                         check_shifted_pair, dichotomy_check,
                         generic_context, replay_nonorthogonal_branch,
                         replay_orthogonal_branch)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
