"""Symbolic checks for the two-axis relation calculus and the mechanical
replay of the classification of the three-point skew case.

Everything here runs over the eight-symbol function field unless a branch
substitution has already pinned the parameters; no identity is ever
checked by floating approximation.

Every check here and in papersuite fails through one of three helpers:
_require_zero and _require_equal raise IdentityFails with the residual
of a scalar or element identity, and _require raises
ContradictionNotFound for a condition, label or count.
"""

from dataclasses import dataclass, field as datafield
from fractions import Fraction

from . import linalg
from .algebra import (DimensionMismatch, LinearMap, StructureAlgebra,
                      check_linear_map_is_isomorphism)
from .axes import verify_axis
from .axets import classify_shape, realize_axet
from .catalog import (SkewConstants, make_3C_minus1_2, make_3C_skew,
                      make_generic_skew, make_orthogonal_branch,
                      make_Q2_skew, make_Q2x_plus_one,
                      orthogonal_branch_to_Q2,
                      orthogonal_branch_to_Q2x_plus_one, rehren_oracle)
from .fusion import DegenerateParameter, law_family
from .scalars import (QQ, FunctionField, PrimeField, RationalFunction,
                      skew_field, solve_linear)

half = Fraction(1, 2)


MAX_RESIDUAL_TEXT = 200


def _residual_text(residual):
    """repr(residual) when it has at most MAX_RESIDUAL_TEXT characters,
    else a summary of bounded size: its type and length, how many
    coordinates of an element are nonzero, and the term counts and total
    degrees of the numerators and denominators of its nonzero
    rational-function values."""
    text = repr(residual)
    if len(text) <= MAX_RESIDUAL_TEXT:
        return text
    coords = getattr(residual, "coords", None)
    values = [residual] if coords is None else coords
    parts = ["%s of %d characters" % (type(residual).__name__, len(text))]
    if coords is not None:
        parts.append("%d of %d coordinates nonzero"
                     % (sum(map(bool, coords)), len(coords)))
    quotients = [v for v in values if isinstance(v, RationalFunction) and v]
    for side in ("num", "den"):
        polys = [getattr(v, side) for v in quotients]
        if polys:
            parts.append("%s %d terms of total degree %d"
                         % (side, sum(len(p.terms) for p in polys),
                            max(p.total_degree() for p in polys)))
    return "(%s)" % ", ".join(parts)


class IdentityFails(ValueError):
    """A claimed identity of scalars or elements has a nonzero residual.

    The message holds the residual's text, or a summary of bounded size
    when the text is long; ``residual`` keeps the full value."""

    def __init__(self, name, residual):
        super().__init__("%s: nonzero residual %s"
                         % (name, _residual_text(residual)))
        self.name = name
        self.residual = residual


class ContradictionNotFound(ValueError):
    """A condition or recorded conclusion of a check does not hold."""


class NoMatch(ValueError):
    """No classified algebra matches the given generator pair."""


@dataclass
class CheckResult:
    """One named verification step."""

    name: str
    passed: bool
    detail: str = ""

    def __repr__(self):
        return "[%s] %s%s" % ("pass" if self.passed else "FAIL", self.name,
                              " -- " + self.detail if self.detail else "")


@dataclass
class BranchReport:
    """A replayed classification branch."""

    branch: str
    constraints: list = datafield(default_factory=list)
    outcome: str = ""
    witness: str = ""

    def __repr__(self):
        lines = ["branch %s -> %s" % (self.branch, self.outcome)]
        lines += ["  " + c for c in self.constraints]
        if self.witness:
            lines.append("  witness: " + self.witness)
        return "\n".join(lines)


# the name of the last check that held; run_suite clears it before each
# item and names it when the item fails through another exception
last_passed = None


def _require_zero(name, residual):
    """Fail the identity `name` unless the scalar or element is zero."""
    global last_passed
    if residual:
        raise IdentityFails(name, residual)
    last_passed = name


def _require_equal(name, got, want):
    """Fail the identity got = want; the residual is formed only on failure."""
    global last_passed
    if got != want:
        raise IdentityFails(name, got - want)
    last_passed = name


def _require(name, condition, detail=None):
    """Fail unless condition holds; detail, such as the label, count or
    value found, is formatted only on failure."""
    global last_passed
    if not condition:
        raise ContradictionNotFound(
            name if detail is None else "%s: %s" % (name, detail))
    last_passed = name


def generic_context():
    """The generic constants and the four-dimensional algebra they define."""
    c = SkewConstants.generic()
    return c, make_generic_skew(c)


# -- eigenvectors of the two generators --------------------------------------

def eigenvectors_a(A, c):
    """The four eigenvectors of the first generator, keyed by eigenvalue."""
    a, b, cc, s = A.basis()
    return [
        (A.field.one, a),
        (A.field.zero, c.eps * a + half * (c.alpha - c.beta) * (b + cc) - s),
        (c.alpha, c.gamma * a + half * c.beta * (b + cc) + s),
        (c.beta, b - cc),
    ]


def eigenvectors_b(A, c):
    """The four eigenvectors of the second generator (the beta part is 0)."""
    a, b, cc, s = A.basis()
    return [
        (A.field.one, b),
        (A.field.zero, -(c.P / c.beta) * a + c.P * b + cc),
        (A.field.zero, (c.alpha - c.beta) * a + c.epsf * b - s),
        (c.alpha, c.beta * a + c.gammaf * b + s),
    ]


def check_eigenvectors_generic(context=None):
    """Every listed eigenvector of ad_a and ad_b, plus the expansion of b
    over the ad_a eigenbasis, as rational-function identities."""
    c, A = context or generic_context()
    a, b, _, _ = A.basis()
    vectors_a = eigenvectors_a(A, c)
    for who, gen, vectors in (("a", a, vectors_a),
                              ("b", b, eigenvectors_b(A, c))):
        for lam, v in vectors:
            _require_zero("ad_%s eigenvector at %r" % (who, lam),
                          gen * v - lam * v)
    (_, v1), (_, v0), (_, v_alpha), (_, v_beta) = vectors_a
    inv_alpha = 1 / c.alpha
    expansion = (c.l1 * v1 + inv_alpha * v0 + inv_alpha * v_alpha
                 + half * v_beta)
    _require_zero("expansion of b over the ad_a eigenbasis", b - expansion)
    return CheckResult("eigenvectors-generic", True,
                       "7 eigenvector identities and the expansion of b")


def check_constant_chains(c=None):
    """(alpha-1)gamma = eps + alpha beta = delta + beta^2, both versions."""
    c = c or SkewConstants.generic()
    pairs = [
        ("(alpha-1)gamma = eps + alpha beta",
         (c.alpha - 1) * c.gamma - (c.eps + c.alpha * c.beta)),
        ("eps + alpha beta = delta + beta^2",
         (c.eps + c.alpha * c.beta) - (c.delta + c.beta ** 2)),
        ("(alpha-1)gammaf = epsf + alpha beta",
         (c.alpha - 1) * c.gammaf - (c.epsf + c.alpha * c.beta)),
        ("epsf + alpha beta = deltaf + beta^2",
         (c.epsf + c.alpha * c.beta) - (c.deltaf + c.beta ** 2)),
    ]
    for name, residual in pairs:
        _require_zero(name, residual)
    return CheckResult("constant-chains", True, "both eigenvalue chains")


# -- component calculus -------------------------------------------------------

def beta_component(v):
    """The w-coefficient of the beta part of v, with w = (b - c)/2.

    The three even eigenvectors of ad_a have equal b and c coefficients,
    so the (b - c) coordinate of v is read off directly.
    """
    return v.coeff("b") - v.coeff("c")


def check_bracket_table(context=None):
    """All eleven beta-component values used by the relation derivations."""
    c, A = context or generic_context()
    a, b, cc, s = A.basis()
    expected = [
        ("[a]", a, A.field.zero),
        ("[b]", b, A.field.one),
        ("[c]", cc, -A.field.one),
        ("[sigma]", s, A.field.zero),
        ("[ab]", a * b, c.beta),
        ("[ac]", a * cc, -c.beta),
        ("[bc]", b * cc, A.field.zero),
        ("[a sigma]", a * s, A.field.zero),
        ("[b sigma]", b * s, c.deltaf),
        ("[c sigma]", cc * s, -c.deltaf),
        ("[sigma^2]", s * s, A.field.zero),
    ]
    for name, v, want in expected:
        _require_zero(name + " beta component", beta_component(v) - want)
    return CheckResult("bracket-table", True, "11 beta components")


def decompose_over_b(A, c, v):
    """Coordinates of v over the ad_b eigenbasis (1, 0, 0, alpha order)."""
    cols = [vec.coords for _, vec in eigenvectors_b(A, c)]
    x = linalg.solve(linalg.transpose(cols), v.coords, A.field)
    _require("decomposition over the ad_b eigenbasis", x is not None, v)
    return x


def projection_on_b(A, c, v):
    """lambda_b(v): the b coefficient in the ad_b eigenbasis expansion."""
    return decompose_over_b(A, c, v)[0]


def check_projection_relation(context=None):
    """The projection values on b and the first derived relation.

    lambda_b is linear with lambda_b(a) = l1f and lambda_b(b) = 1; the
    zero eigenvector -(P/beta)a + P b + c has projection zero, which
    forces lambda_b(c) = -(P/beta) gammaf.
    """
    c, A = context or generic_context()
    a, b, cc, _ = A.basis()
    _require_zero("lambda_b(a) = l1f", projection_on_b(A, c, a) - c.l1f)
    _require_zero("lambda_b(b) = 1", projection_on_b(A, c, b) - 1)
    l2f_actual = projection_on_b(A, c, cc)
    _require_zero("lambda_b(c) = -(P/beta) gammaf",
                  l2f_actual + (c.P / c.beta) * c.gammaf)
    residual = -(c.P / c.beta) * c.l1f + c.P + l2f_actual
    _require_zero("-(P/beta) l1f + P + lambda_b(c)", residual)
    return CheckResult("projection-relation", True,
                       "lambda_b(c) = -(P/beta) gammaf")


def proof2_expression(c):
    """The displayed value of [(ba)u] - [b(au)] beta components."""
    ab = c.alpha - c.beta
    return (-c.beta ** 2 * ab - c.beta * c.delta
            + half * c.beta * ab
            - (c.alpha - 2 * c.beta) * c.deltaf)


def check_seress_relation_u(context=None):
    """The first Seress obstruction, from u = sigma - (alpha-beta)a.

    u lies in the even part of ad_b, so (ba)u = b(au) must hold; the beta
    component of the difference is the displayed constant combination.
    """
    c, A = context or generic_context()
    a, b, _, s = A.basis()
    ab = c.alpha - c.beta
    u = s - ab * a
    x = decompose_over_b(A, c, u)
    _require_zero("u has no alpha part over ad_b", x[3])

    lhs_inner = ((c.delta - ab) * beta_component(b * a)
                 + half * c.beta * ab * (beta_component(b)
                                         + beta_component(b * A.gen("c")))
                 + ab * beta_component(b * s))
    want_inner = (c.beta * (c.delta - ab) + half * c.beta * ab
                  + ab * c.deltaf)
    inner = beta_component(b * (a * u))
    _require_zero("[b(au)] beta component", inner - want_inner)
    _require_zero("[b(au)] beta component, linear form",
                  lhs_inner - want_inner)
    want_outer = c.beta * c.deltaf - c.beta ** 2 * ab
    outer = beta_component((b * a) * u)
    _require_zero("[(ba)u] beta component", outer - want_outer)
    diff = outer - inner
    _require_zero("[(ba)u] - [b(au)] displayed form",
                  diff - proof2_expression(c))
    return CheckResult("seress-relation-u", True,
                       "beta component of (ba)u - b(au)")


def proof3_expression(c):
    """The displayed value of [b(av)] - [(ba)v] beta components."""
    ab = c.alpha - c.beta
    bracket = (c.beta ** 2 + c.beta * c.delta
               + half * c.beta * ab
               + (c.alpha - 2 * c.beta) * c.deltaf - c.beta ** 3)
    return (c.P / c.beta) * bracket - 2 * c.alpha * (c.deltaf + c.beta ** 2)


def check_seress_relation_v(context=None):
    """The second Seress obstruction, from v = Pa + (P/beta)sigma - alpha c.

    Checks the expansion of av, both beta components, the displayed
    difference, and its reduction to 2 alpha ((1-beta)P/2 - (alpha-1)gammaf)
    once the first obstruction is substituted.
    """
    c, A = context or generic_context()
    a, b, cc, s = A.basis()
    ab = c.alpha - c.beta
    v = c.P * a + (c.P / c.beta) * s - c.alpha * cc
    x = decompose_over_b(A, c, v)
    _require_zero("v has no alpha part over ad_b", x[3])
    _require_zero("v = c(b - alpha)", (cc * b - c.alpha * cc) - v)

    av_expanded = ((c.P + (c.P / c.beta) * c.delta - c.alpha * c.beta) * a
                   + half * ab * c.P * b
                   + (half * ab * c.P - c.alpha * c.beta) * cc
                   + ((c.P / c.beta) * ab - c.alpha) * s)
    av = a * v
    _require_zero("expansion of av", av - av_expanded)

    want_inner = (c.beta * c.P + c.P * c.delta - c.alpha * c.beta ** 2
                  + half * ab * c.P + (c.P / c.beta) * ab * c.deltaf
                  - c.alpha * c.deltaf)
    inner = beta_component(b * av)
    _require_zero("[b(av)] beta component", inner - want_inner)
    want_outer = (c.alpha * c.deltaf + c.alpha * c.beta ** 2
                  + c.beta ** 2 * c.P + c.P * c.deltaf)
    outer = beta_component((b * a) * v)
    _require_zero("[(ba)v] beta component", outer - want_outer)

    diff = inner - outer
    _require_zero("[b(av)] - [(ba)v] displayed form",
                  diff - proof3_expression(c))

    # substituting the u obstruction turns the bracket into alpha beta(1-beta)
    reduced = (c.P / c.beta) * c.alpha * c.beta * (1 - c.beta) \
        - 2 * c.alpha * (c.deltaf + c.beta ** 2)
    _require_zero("reduction via the u obstruction",
                  diff - reduced + (c.P / c.beta) * proof2_expression(c))
    final = half * (1 - c.beta) * c.P - (c.alpha - 1) * c.gammaf
    _require_zero("reduced form over 2 alpha",
                  reduced - 2 * c.alpha * final)
    return CheckResult("seress-relation-v", True,
                       "beta component of b(av) - (ba)v and its reduction")


def check_shifted_pair(context=None):
    """sigma(0,2) degenerates: a a_2 - beta(a + a_2) = (1 - 2 beta)a."""
    c, A = context or generic_context()
    a = A.gen("a")
    _require_zero("sigma(0,2) = (1 - 2 beta)a",
                  a * a - 2 * c.beta * a - (1 - 2 * c.beta) * a)
    return CheckResult("shifted-pair", True, "sigma(0,2) collapse")


def check_flip_symmetry(c=None):
    """Swapping l1 with l1f exchanges the two generators' sigma rows.

    The flip sends a to b, b to a, the third axis back to a, and fixes
    sigma, so the a sigma row maps onto the b sigma row with the doubled
    beta(alpha-beta)/2 coefficient landing on a alone.
    """
    c = c or SkewConstants.generic()
    field = skew_field()
    swap = {"l1": field.sym("l1f"), "l1f": field.sym("l1")}
    swapped_delta = c.delta.substitute(swap)
    _require_zero("flip sends delta to deltaf", swapped_delta - c.deltaf)
    _require_zero("flip fixes the sigma coefficient",
                  (c.alpha - c.beta).substitute(swap) - (c.alpha - c.beta))
    doubled = (half * c.beta * (c.alpha - c.beta)) * 2
    _require_zero("the b+c coefficient folds onto a",
                  doubled - c.beta * (c.alpha - c.beta))
    return CheckResult("flip-symmetry", True,
                       "a sigma row maps onto the b sigma row")


def check_shift_expansion(context=None):
    """Consistency of the two expressions for lambda_b(c).

    The Q coefficient of the shifted product expansion is degree one in
    l2f; solving Q = -beta for l2f gives a second formula whose
    difference against -(P/beta) gammaf is reported, not asserted: it
    vanishes at the classified parameter points but not identically.
    """
    c, _ = context or generic_context()
    field = skew_field()
    coeff = (c.Q.substitute({"l2f": field.one})
             - c.Q.substitute({"l2f": field.zero}))
    _require_zero("Q is affine in l2f with slope alpha/(2(alpha-beta))",
                  coeff - c.alpha / (2 * (c.alpha - c.beta)))
    difference_at = _shift_difference(c)
    _require_zero("difference vanishes at the orthogonal branch point",
                  difference_at(Fraction(1, 3), Fraction(2, 3),
                                Fraction(5, 12), Fraction(2, 3)))
    return CheckResult(
        "shift-expansion", True,
        "difference is %s at a generic probe, 0 at the branch point"
        % difference_at(2, 5, 7, 11))


def _shift_difference(c):
    """lambda_b(c) solved from Q = -beta minus -(P/beta) gammaf, as a
    function of (alpha, beta, l1, l1f) with the sigma^2 unknowns at 0."""
    solved = solve_linear(c.Q + c.beta, "l2f")
    difference = solved - (-(c.P / c.beta) * c.gammaf)

    def at(alpha, beta, l1, l1f):
        return difference.evaluate(
            {"alpha": alpha, "beta": beta, "l1": l1, "l1f": l1f,
             "zeta": 0, "theta": 0, "kappa": 0, "l2f": 0}, QQ)
    return at


def shift_difference_at(alpha, beta, l1, l1f):
    """The lambda_b(c) discrepancy evaluated at one parameter point."""
    return _shift_difference(SkewConstants.generic())(alpha, beta, l1, l1f)


# -- the orthogonal branch replay ---------------------------------------------

def _constant(c):
    """A constant rational function's value as a Fraction."""
    _require("expected a pinned constant", c.is_constant(), c)
    return c.constant_value()


def replay_orthogonal_branch(char=0):
    """Derive the parameter point forced by P = 0 and rebuild the algebra.

    Follows the recorded chain: the swapped pair multiplies to zero, so
    b + c is a non-primitive double axis, the even subalgebra is a 3C on
    Jordan parameters (alpha, 2 alpha), and the obstructions pin
    (alpha, beta, l1, l1f) = (1/3, 2/3, 5/12, 2/3).  The rebuilt table
    is compared entry-exactly and the isomorphism onto the double-axis
    algebra (characteristic 0) or the adjoined-identity quotient
    (characteristic 5) is certified.
    """
    report = BranchReport(branch="P = 0")
    field = skew_field()
    c = SkewConstants.generic()
    A = make_generic_skew(c)

    # if the even subalgebra were 2B the alpha eigenvector of ad_a would
    # collapse to -l1 a, so it is a 3C and Rehren admissibility applies
    a, b, cc, s = A.basis()
    sigma_2b = -c.beta * a - half * c.beta * (b + cc)
    collapse = (c.gamma * a + half * c.beta * (b + cc) + sigma_2b) + c.l1 * a
    _require("2B subcase collapse", collapse.is_zero(),
             "alpha eigenvector should collapse to -l1 a")
    report.constraints.append(
        "even subalgebra 2B would force l1 = 0 and an excluded Jordan axis")

    # v obstruction with P = 0 gives (alpha-1) gammaf = 0, alpha != 1
    l1f_value = solve_linear(c.gammaf, "l1f")
    c = c.substitute({"l1f": l1f_value})
    _require("l1f = beta", c.l1f == c.beta)
    _require("deltaf = -beta^2", c.deltaf == -c.beta ** 2)
    report.constraints.append("l1f = beta (so gammaf = 0, deltaf = -beta^2)")

    # Rehren on the Jordan pair (alpha, 2 alpha): the 3C outcome needs
    # alpha + 2 alpha = 1
    alpha_value = solve_linear(
        field.sym("alpha") + 2 * field.sym("alpha") - 1, "alpha")
    _require("alpha = 1/3", _constant(alpha_value) == Fraction(1, 3))
    c = c.substitute({"alpha": alpha_value})
    report.constraints.append("alpha = 1/3 from the (alpha, 2 alpha) pair")

    # u obstruction pins l1
    l1_value = solve_linear(proof2_expression(c), "l1")
    expected_l1 = (field.sym("beta") + 1) * Fraction(1, 4)
    _require("l1 = (beta + 1)/4", l1_value == expected_l1)
    c = c.substitute({"l1": l1_value})
    report.constraints.append("l1 = (beta + 1)/4 from the u obstruction")

    # P = 0 pins beta: P (alpha - beta) is linear, and alpha != beta
    beta_sym = field.sym("beta")
    linear_form = beta_sym * Fraction(1, 3) - Fraction(2, 9)
    _require("P (alpha - beta) = beta/3 - 2/9",
             c.P * (Fraction(1, 3) - beta_sym) == linear_form)
    beta_value = solve_linear(linear_form, "beta")
    _require("beta = 2/3", _constant(beta_value) == Fraction(2, 3))
    c = c.substitute({"beta": beta_value})
    report.constraints.append("beta = 2/3 from P = 0")

    point = (_constant(c.alpha), _constant(c.beta),
             _constant(c.l1), _constant(c.l1f))
    _require("parameter point",
             point == (Fraction(1, 3), Fraction(2, 3),
                       Fraction(5, 12), Fraction(2, 3)))
    report.constraints.append(
        "(alpha, beta, l1, l1f) = (1/3, 2/3, 5/12, 2/3)")

    # the third Jordan axis of the even subalgebra: sigma = -a/2 - f/6.
    # f^2 = 9a^2 + 36 a sigma + 36 sigma^2 and only sigma^2 involves
    # zeta, theta, kappa, so f^2 = f fixes sigma^2 outright
    A = make_generic_skew(c)
    a, b, cc, s = A.basis()
    f = -3 * a - 6 * s
    square = (f - 9 * (a * a) - 36 * (a * s)) / 36
    _require("f^2 = f is solvable in zeta, theta, kappa",
             square.coeff("b") == square.coeff("c"))
    solution = {"zeta": _constant(square.coeff("a")),
                "theta": _constant(square.coeff("b")),
                "kappa": _constant(square.coeff("sigma"))}
    _require("(zeta, theta, kappa) = (5/18, 1/9, 1/6)",
             tuple(solution.values()) == (Fraction(5, 18), Fraction(1, 9),
                                          Fraction(1, 6)))
    report.constraints.append("sigma^2 from f^2 = f: (5/18, 1/9, 1/6)")

    # rebuild on the basis (b, c, a, f) over the requested field
    target_field = QQ if char == 0 else PrimeField(char)
    concrete = A.specialize(solution, target_field)
    a, b, cc, s = concrete.basis()
    f = -3 * a - 6 * s
    rebuilt = concrete.span_subalgebra([b, cc, a, f], ("b", "c", "a", "f"))
    expected = make_orthogonal_branch(target_field)
    _require("rebuilt table matches the orthogonal branch table",
             rebuilt.same_table(expected.algebra))
    report.constraints.append("rebuilt multiplication table matches")

    # displayed products cross-checked inside the specialized algebra
    d = b + cc
    _require("b d = b", d * b == b)
    _require("a d = a/3 + 2d/3 - f/3",
             a * d == a / 3 + 2 * d / 3 - f / 3)
    _require("a f = -a/3 + 2d/3 - f/3",
             a * f == -(a / 3) + 2 * d / 3 - f / 3)
    _require("f d = -a/3 + 2d/3 + f/3",
             f * d == -(a / 3) + 2 * d / 3 + f / 3)

    if char == 5:
        iso = orthogonal_branch_to_Q2x_plus_one()
        _require("the map onto the adjoined-identity quotient is an "
                 "isomorphism", check_linear_map_is_isomorphism(iso))
        report.outcome = "Q2(1/3)^x + one"
    else:
        iso = orthogonal_branch_to_Q2(target_field)
        _require("the map onto the double-axis algebra is an isomorphism",
                 check_linear_map_is_isomorphism(iso))
        report.outcome = "Q2(1/3,2/3)"
    return report


# -- the non-orthogonal branches ----------------------------------------------

def _case_2B():
    """bc = 0 with P != 0 forces sigma = -beta a and then c = -b."""
    report = BranchReport(branch="P != 0, pair algebra 2B")
    c, A = generic_context()
    a, b, cc, s = A.basis()
    relation = s + c.beta * a
    _require("ab - beta b = sigma + beta a",
             a * b - c.beta * b == relation)
    report.constraints.append("sigma = -beta a puts b in the beta part of a")
    # the involution of a negates b, so c = -b; idempotence fails
    witness = (-b) * (-b) - (-b)
    _require("(-b)^2 - (-b) = 2b", witness == 2 * b)
    _require("2 is invertible", not witness.is_zero())
    report.outcome = "contradiction"
    report.witness = "c = -b gives c^2 - c = 2b != 0"
    return report


# lam, label, mu and (b+c)^2 as the reports print them
_PAIR_CASES = ((half, "S(2)deg", "beta/p + beta", "2(b+c)"),
               (-1, "3C(-1)^x", "-2beta/p + beta", "-(b+c)"))


def _case_pair(lam, label, mu_text, square_text):
    """bc = lam (b+c) with P != 0, one derivation for both values of lam.

    The pair row pins sigma = (beta/P) lam (b+c) - beta a, which folds the
    generator rows of the four-dimensional table onto the span (a, b, c);
    P is kept as the free symbol p.  The pair oracle decides the ending.
    """
    report = BranchReport(branch="P != 0, pair algebra " + label)
    field = FunctionField(("beta", "p"))
    beta, p = field.sym("beta"), field.sym("p")
    A = StructureAlgebra.from_table(field, ("a", "b", "c"), {
        ("a", "a"): {"a": 1},
        ("b", "b"): {"b": 1},
        ("c", "c"): {"c": 1},
        ("b", "c"): {"b": lam, "c": lam},
        ("a", "b"): {"b": beta + beta * lam / p, "c": beta * lam / p},
        ("a", "c"): {"c": beta + beta * lam / p, "b": beta * lam / p},
    })
    a, b, cc = A.basis()
    mu = beta + 2 * lam * beta / p
    _require("a(b+c) = mu (b+c)", a * (b + cc) == mu * (b + cc))
    report.constraints.append("b + c is a mu eigenvector, mu = " + mu_text)
    _require("mu = 1 impossible", not linalg.in_span(
        [a.coords], (b + cc).coords, field),
        "b + c would join the one-dimensional 1 part")
    _require("mu = beta forces beta = 0",
             solve_linear(mu - beta, "beta") == 0)
    report.constraints.append("mu avoids 1 and beta, so mu is 0 or %s" % lam)

    # mu = lam: the square of b + c stays in the odd-alpha part
    _require("(b+c)^2 = " + square_text,
             (b + cc) * (b + cc) == (1 + 2 * lam) * (b + cc))
    report.constraints.append(
        "mu = %s: (b+c)^2 = %s violates alpha*alpha = {1,0}, "
        "forcing b + c = 0 against independence" % (lam, square_text))

    # mu = 0: a is a Jordan axis of type beta and Rehren needs beta + lam = 1
    p_value, beta_value = -2 * lam, 1 - lam
    _require("mu = 0 forces p = %s" % p_value,
             _constant(solve_linear(mu, "p")) == p_value)
    sub = {"p": field.coerce(p_value)}
    A0 = A.map_coefficients(lambda x: x.substitute(sub), field)
    a, b, cc = A0.basis()
    _require("a(b-c) = beta(b-c)", a * (b - cc) == beta * (b - cc))
    _require("a(b+c) = 0", (a * (b + cc)).is_zero())
    _require("ab != 0 excludes 2B", not (a * b).is_zero())
    _require("beta = %s" % beta_value,
             _constant(solve_linear(beta + lam - 1, "beta")) == beta_value)
    try:
        labels = rehren_oracle(beta_value, lam)
    except DegenerateParameter:
        # the pair oracle rejects equal parameters outright
        report.constraints.append(
            "mu = 0: p = %s and a is a Jordan beta axis" % p_value)
        report.outcome = "contradiction"
        report.witness = ("beta = %s = alpha collapses the fusion parameters"
                          % beta_value)
        return report
    _require("the pair oracle admits 3C(-1,2)", "3C(-1,2)" in labels)
    report.constraints.append(
        "mu = 0: p = %s, Rehren pins beta = %s" % (p_value, beta_value))

    # realize the outcome: the pinned table is 3C(-1,2) on (w, y, z)
    concrete = A0.specialize({"beta": beta_value, "p": p_value}, QQ)
    target = make_3C_minus1_2(QQ)
    iso = LinearMap.from_pairs(concrete, target.algebra, list(zip(
        concrete.basis(), (target.m_axis, target.j_axis, target.third))))
    _require("the pinned algebra is 3C(-1,2)",
             check_linear_map_is_isomorphism(iso))
    report.outcome = "3C(-1,2)"
    report.witness = "alpha = %s, beta = %s" % (lam, beta_value)
    return report


def _case_three_dimensional():
    """If the pair algebra is 3-dimensional the whole algebra equals it."""
    report = BranchReport(branch="P != 0, pair algebra 3-dimensional")
    c, A = generic_context()
    _, (_, v0), _, (_, v_alpha) = eigenvectors_b(A, c)
    coeff_c = (v0 * v_alpha).coeff("c")
    displayed = -half * (c.alpha - c.beta) * c.P \
        + c.beta ** 2 + c.deltaf
    _require_zero("c coefficient of the zero-by-alpha product",
                  coeff_c - displayed)
    report.constraints.append(
        "fusion forces (alpha-beta)P/2 = beta^2 + deltaf = (alpha-1)gammaf")
    residual = half * (c.alpha - c.beta) * c.P - half * (1 - c.beta) * c.P
    _require_zero("residual against the v obstruction",
                  residual - half * (c.alpha - 1) * c.P)
    report.constraints.append(
        "with the v obstruction the residual is (alpha-1)P/2, so alpha = 1 "
        "or P = 0, both excluded; the span is 3-dimensional")
    report.constraints.append(
        "three-dimensional Jordan pairs with every idempotent of type 1/2 "
        "leave the beta part of a empty, so only 3C(alpha) survives")
    report.outcome = "3C(alpha,1-alpha) for alpha != -1"
    report.witness = "residual (alpha-1)P/2"
    return report


def replay_nonorthogonal_branch():
    """All four subcases of P != 0 with their witnesses."""
    return ([_case_2B()] + [_case_pair(*row) for row in _PAIR_CASES]
            + [_case_three_dimensional()])


# -- the dichotomy -------------------------------------------------------------

def dichotomy_check(A, p, q, m_law, j_law=None):
    """Classify the pair algebra of an M-axis p and a fixed-or-swapped q.

    If the involution of p fixes q the pair generates a Jordan-type
    algebra (the beta part of p inside it is empty); otherwise the orbit
    is the three-point skew shape and the algebra is matched against the
    classified list by generator-respecting isomorphism.
    """
    family = law_family(m_law)
    if family is None or family[0] != "monster":
        raise NoMatch("p's law is not a Monster law")
    report_p = verify_axis(A, p, m_law)
    if not report_p.passed:
        raise NoMatch("p is not an axis under the given law")
    if j_law is not None and not verify_axis(A, q, j_law).passed:
        raise NoMatch("q is not an axis under its stated law")
    field = A.field
    alpha, beta = (field.coerce(v) for v in family[1])

    r = report_p.basis.miyamoto(q)  # tau_p(q)
    if r == q:
        # ad_p maps the pair algebra into itself, so p has a beta part
        # inside it exactly when it meets the beta eigenspace of p
        both = ([v.coords for v in A.subalgebra_closure([p, q])]
                + [v.coords for v in report_p.eigenspace(beta)])
        if linalg.rank(both, field) < len(both):
            raise NoMatch("p keeps a beta part inside the pair algebra")
        return ("jordan", "J(%s)" % alpha)

    realized = realize_axet([report_p, verify_axis(A, q, m_law)])
    shape = classify_shape(realized)
    if shape != "Xskew(1)":
        raise NoMatch("the realized axet is %s, not Xskew(1)" % shape)
    if alpha + beta != field.one:
        raise NoMatch("the fusion parameters do not sum to 1")

    sigma = p * q - beta * (p + q)
    candidates = []
    if field.char == 5 and alpha == field.coerce(Fraction(1, 3)):
        candidates.append(make_Q2x_plus_one())
    elif alpha == field.coerce(Fraction(1, 3)):
        candidates.append(make_Q2_skew(field))
    if alpha == field.coerce(-1):
        candidates.append(make_3C_minus1_2(field))
    else:
        try:
            candidates.append(make_3C_skew(alpha, field))
        except DegenerateParameter:
            pass
    for ex in candidates:
        target = ex.algebra
        if target.dim != A.dim:
            continue
        sigma_target = ex.m_axis * ex.j_axis - beta * (ex.m_axis + ex.j_axis)
        try:
            iso = LinearMap.from_pairs(A, target, [
                (p, ex.m_axis), (q, ex.j_axis), (r, ex.third),
                (sigma, sigma_target)])
        except DimensionMismatch:
            continue
        if check_linear_map_is_isomorphism(iso):
            return ("skew", ex.label)
    raise NoMatch("no classified algebra matches the pair")
