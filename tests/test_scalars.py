"""Exact scalar arithmetic: fields, polynomials, the expression grammar."""

from fractions import Fraction
from math import gcd
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from axetlab.scalars import (MAX_NESTING, MAX_POWER_SIZE, SKEW_SYMBOLS,
                             BadField, DegreeOverflow, DenominatorVanishes,
                             DivisionByZero, ExprError, FunctionField,
                             InexactDivision, MixedFields, MultiPoly,
                             NonlinearExpression, PrimeField, QQ,
                             RationalFunction, UnboundSymbol, _GCD_BITS,
                             _heugcd, cancel,
                             parse_expression, parse_scalar, skew_field,
                             solve_linear, tokenize)


# -- tokenizer ----------------------------------------------------------------

def test_tokenize_kinds_and_positions():
    tokens = tokenize("12*ab + c_3")
    assert tokens[0] == ("INT", "12", 0)
    assert tokens[1] == ("OP", "*", 2)
    assert tokens[2] == ("NAME", "ab", 3)
    assert tokens[3] == ("OP", "+", 6)
    assert tokens[4] == ("NAME", "c_3", 8)
    assert tokens[5][0] == "END"


def test_tokenize_rejects_stray_characters():
    with pytest.raises(ExprError):
        tokenize("1 @ 2")


def reference_tokenize(text):
    """The tokenizer read character by character, kept as the reference
    for the one-pattern tokenizer."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append(("OP", ch, i))
            i += 1
            continue
        raise ExprError("unexpected character %r" % ch, pos=i)
    tokens.append(("END", "", n))
    return tokens


def _tokens_or_error(tokenizer, text):
    try:
        return tokenizer(text)
    except ExprError as e:
        return str(e), e.pos


# letters, digits and spaces of other scripts, words led by "_" or a
# digit, and characters no token takes
TOKEN_ALPHABET = ("ab1_09 \u00e9\u00df\u0663\u00bd\u216b\u2603@.\t\n"
                  "\u00a0\u2003+-*/^()")


@settings(max_examples=400)
@given(st.text(alphabet=TOKEN_ALPHABET, max_size=30))
def test_tokenize_agrees_with_the_reference(text):
    assert _tokens_or_error(tokenize, text) \
        == _tokens_or_error(reference_tokenize, text)


@pytest.mark.parametrize("text", ["", "  ", "a½", "½a", "٣1", "1٣", "1_a",
                                  "_a", "Ⅻ", "aⅫ_٣", "ß2 é", " -1\t",
                                  "x ^ 2"])
def test_tokenize_agrees_with_the_reference_on_edge_words(text):
    assert _tokens_or_error(tokenize, text) \
        == _tokens_or_error(reference_tokenize, text)


# -- grammar ------------------------------------------------------------------

def qq(text):
    return parse_scalar(text, QQ)


def test_precedence_product_over_sum():
    assert qq("2 + 3*4") == 14


def test_precedence_power_over_product():
    assert qq("2*3^2") == 18


def test_power_binds_tighter_than_unary_minus():
    assert qq("-2^2") == -4


def test_power_left_associative():
    assert qq("2^2^3") == 64


def test_parentheses():
    assert qq("(1 + 2) * 3") == 9


def test_rational_literals():
    assert qq("1/3 - 1/6") == Fraction(1, 6)


def test_division_by_zero_literal():
    with pytest.raises(DivisionByZero):
        qq("1/0")


def test_unbound_symbol():
    with pytest.raises(UnboundSymbol):
        qq("1 + x")


def test_trailing_input():
    with pytest.raises(ExprError):
        qq("1 2")


def test_exponent_must_be_integer():
    with pytest.raises(ExprError):
        qq("2^(3)")


def test_nesting_is_bounded_with_a_position():
    assert qq("-" * MAX_NESTING + "1") == 1
    assert qq("(" * MAX_NESTING + "2" + ")" * MAX_NESTING) == 2
    with pytest.raises(ExprError) as e:
        qq("-" * 5000 + "1")
    assert e.value.pos == MAX_NESTING
    with pytest.raises(ExprError) as e:
        qq("1 + " + "(" * 5000 + "1" + ")" * 5000)
    assert e.value.pos == 4 + MAX_NESTING


@pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1, 5000])
def test_alternating_minus_and_parenthesis_chain_is_bounded(depth):
    # "-(-(-(...": each '-' and each '(' is one level of nesting
    opening = "".join("-("[k % 2] for k in range(depth))
    text = opening + "1" + ")" * opening.count("(")
    if depth <= MAX_NESTING:
        assert qq(text) == (-1) ** opening.count("-")
        return
    with pytest.raises(ExprError) as e:
        qq(text)
    assert e.value.pos == MAX_NESTING


def test_trailing_space_takes_linear_time():
    # a failed match at each start of a trailing run of k spaces would
    # cost about k^2 / 2 steps: hours for this one
    text = "1 + a" + " \t " * 100_000
    start = time.perf_counter()
    tokens = tokenize(text)
    assert time.perf_counter() - start < 2
    assert tokens[-2:] == [("NAME", "a", 4), ("END", "", len(text))]
    assert tokens == reference_tokenize(text)


def test_unbound_symbol_has_a_position():
    with pytest.raises(UnboundSymbol) as e:
        qq("1 + 2*nosuch")
    assert e.value.pos == 6


def test_powers_are_bounded_with_a_position():
    assert qq("2^500") == 2 ** 500
    assert qq("2^2^2^2") == 256
    with pytest.raises(ExprError) as e:
        qq("1 + 3^3000000")
    assert e.value.pos == 6
    x = FunctionField(("x",))
    for text, pos in (("x^1000^1000", 2), ("x^400^3", 6),
                      ("((x^20)^20)^20", 12), ("(2^2)^1000", 6)):
        with pytest.raises(ExprError) as e:
            parse_scalar(text, x)
        assert e.value.pos == pos
        assert "over %d" % MAX_POWER_SIZE in str(e.value)
    # F_p powers are modular and left unbounded
    assert parse_scalar("3^3000000", PrimeField(5)) == 1


def test_parse_expression_binds_names():
    field = FunctionField(("t",))
    t = field.sym("t")
    v = parse_expression("(t + 1)^2 - t^2 - 2*t", field, {"t": t})
    assert v == field.one


# -- prime fields -------------------------------------------------------------

def test_prime_field_rejects_composite_and_two():
    with pytest.raises(BadField):
        PrimeField(6)
    with pytest.raises(BadField):
        PrimeField(2)
    with pytest.raises(BadField):
        PrimeField(1)


def test_prime_field_rejects_carmichael_number():
    # 561 = 3 * 11 * 17 passes the Fermat test to every coprime base
    with pytest.raises(BadField):
        PrimeField(561)


def test_prime_field_accepts_large_primes_at_once():
    F = PrimeField(2 ** 61 - 1)
    assert F.coerce(2 ** 61) == F.one
    with pytest.raises(BadField):
        PrimeField((2 ** 61 - 1) * (2 ** 31 - 1))


def test_prime_field_refuses_primes_beyond_the_proven_range():
    # 2^89 - 1 is prime, but fixed-base Miller-Rabin is only a proof
    # below 3.3e24
    with pytest.raises(BadField, match="beyond the range"):
        PrimeField(2 ** 89 - 1)


def test_prime_field_arithmetic():
    F = PrimeField(5)
    a = F.coerce(3)
    b = F.coerce(4)
    assert a + b == F.coerce(2)
    assert a * b == F.coerce(2)
    assert a - b == F.coerce(4)
    assert a / b == F.coerce(2)
    assert -a == F.coerce(2)


def test_prime_field_fraction_coercion():
    F = PrimeField(5)
    assert F.coerce(Fraction(1, 3)) == F.coerce(2)
    assert F.coerce(Fraction(2, 3)) == F.coerce(4)
    assert F.coerce(Fraction(1, 2)) == F.coerce(3)
    assert F.coerce(Fraction(1, 6)) == F.coerce(1)


def test_prime_field_division_by_zero():
    F = PrimeField(5)
    with pytest.raises(ZeroDivisionError):
        F.one / F.zero


def test_prime_field_mixing_moduli():
    with pytest.raises(MixedFields):
        PrimeField(5).coerce(PrimeField(7).one)


def test_parse_scalar_prime_field():
    F = PrimeField(5)
    assert parse_scalar("2/3", F) == F.coerce(4)


# -- multivariate polynomials -------------------------------------------------

NAMES = ("x", "y")


def poly(text):
    field = FunctionField(NAMES)
    return parse_scalar(text, field)


def test_multipoly_repr_reparses():
    p = poly("2*x^2 - x*y + 1")
    assert repr(p.num) == "2*x^2 - x*y + 1"
    assert poly(repr(p.num)) == p


def test_degree_and_coefficient():
    p = MultiPoly.variable(NAMES, "x") ** 2 * 3 \
        + MultiPoly.variable(NAMES, "y")
    assert p.degree_in("x") == 2
    assert p.coefficient_of("x", 2) == MultiPoly.constant(NAMES, 3)
    assert p.coefficient_of("x", 0) == MultiPoly.variable(NAMES, "y")


def test_multipoly_evaluate():
    p = MultiPoly.variable(NAMES, "x") * MultiPoly.variable(NAMES, "y") + 1
    v = p.evaluate({"x": Fraction(2), "y": Fraction(1, 2)}, QQ)
    assert v == 2


def test_multipoly_evaluate_unbound():
    p = MultiPoly.variable(NAMES, "x")
    with pytest.raises(UnboundSymbol):
        p.evaluate({"y": Fraction(1)}, QQ)


def test_exquo_recovers_the_cofactor():
    p = poly("6*x^2 - 3*x*y + 1").num
    d = poly("x*y - 3*y + 2").num
    assert (p * d).exquo(d) == p
    assert (p * d).exquo(p) == d
    assert MultiPoly.constant(NAMES, 0).exquo(d).is_zero()
    assert (2 * p).exquo(2) == p


def test_exquo_raises_on_a_remainder():
    d = poly("x + y").num
    with pytest.raises(InexactDivision):
        (d * d + 1).exquo(d)
    # the leading terms divide but the quotient leaves a remainder
    with pytest.raises(InexactDivision):
        poly("x^2 + y").num.exquo(poly("x + 1").num)
    with pytest.raises(DivisionByZero):
        d.exquo(MultiPoly.constant(NAMES, 0))
    # over Z, 2 does not divide x + 1
    with pytest.raises(InexactDivision):
        (MultiPoly.variable(NAMES, "x") + 1).exquo(2)


def test_multipoly_constants_are_integers():
    assert MultiPoly.constant(NAMES, Fraction(4, 2)).exponents() == {(0, 0): 2}
    with pytest.raises(ValueError):
        MultiPoly.constant(NAMES, Fraction(1, 2))
    half = RationalFunction.constant(NAMES, Fraction(1, 2))
    assert half.num == 1 and half.den == 2
    assert half.constant_value() == Fraction(1, 2)


def test_mixed_symbol_tuples_rejected():
    p = MultiPoly.variable(("x",), "x")
    q = MultiPoly.variable(("y",), "y")
    with pytest.raises(MixedFields):
        p + q


def test_a_polynomial_is_not_a_function_field_value():
    F = FunctionField(("x", "y"))
    p = MultiPoly.variable(F.names, "x")
    with pytest.raises(TypeError):
        F.sym("y") + p
    with pytest.raises(MixedFields):
        F.coerce(p)


# -- rational functions -------------------------------------------------------

def test_rf_equality_cross_multiplies():
    x = RationalFunction.symbol(NAMES, "x")
    y = RationalFunction.symbol(NAMES, "y")
    left = (x * x - y * y) / (x - y)
    assert left == x + y


def test_rf_zero_denominator_rejected():
    x = RationalFunction.symbol(NAMES, "x")
    with pytest.raises(DivisionByZero):
        x / (x - x)


def test_rf_substitute():
    x = RationalFunction.symbol(NAMES, "x")
    y = RationalFunction.symbol(NAMES, "y")
    f = (x + 1) / y
    g = f.substitute({"x": y - 1})
    assert g == RationalFunction.constant(NAMES, 1)


def test_a_substitution_of_absent_symbols_keeps_the_stored_form():
    # the term loop gives the same pair, since a stored form is normal
    x = RationalFunction.symbol(NAMES, "x")
    y = RationalFunction.symbol(NAMES, "y")
    f = (2 * x * x + 4) / (6 * x - 2)
    assert f.substitute({"y": x + 1}) is f
    assert f.substitute({}) is f
    for p in (f.num, f.den, f.num - f.num):
        g = p.substitute({"y": x})
        assert (g.num.terms, g.den.terms) == (p.terms, {0: 1})
    g = f.substitute({"x": y})
    assert g == (2 * y * y + 4) / (6 * y - 2)
    assert (g.num.terms, g.den.terms) != (f.num.terms, f.den.terms)


def test_rf_evaluate_and_poles():
    x = RationalFunction.symbol(NAMES, "x")
    f = 1 / x
    assert f.evaluate({"x": Fraction(4), "y": Fraction(0)}, QQ) \
        == Fraction(1, 4)
    with pytest.raises(DenominatorVanishes):
        f.evaluate({"x": Fraction(0), "y": Fraction(0)}, QQ)


def test_rf_repr_reparses():
    x = RationalFunction.symbol(NAMES, "x")
    y = RationalFunction.symbol(NAMES, "y")
    f = (x + y) / (x - y)
    assert poly(repr(f)) == f


def test_rf_predicates_answer_for_the_value():
    a = FunctionField(("alpha",)).sym("alpha")
    assert (a / a).is_constant()
    assert (a / a).constant_value() == 1
    assert ((2 * a + 2) / (3 * a + 3)).constant_value() == Fraction(2, 3)
    assert not (a / (a + 1)).is_constant()
    assert (a - a).is_constant() and (a - a).constant_value() == 0


# -- gcd and cancellation -----------------------------------------------------

def test_gcd_of_a_square_and_a_multiple():
    h = poly("x^2 + 2*x*y + y^2").num.gcd(poly("x^2 + x*y").num)
    assert RationalFunction(h, poly("x + y").num).is_constant()


def test_gcd_of_coprime_inputs_is_constant():
    assert poly("x^2 + y").num.gcd(poly("x*y - 1").num).is_constant()


def test_gcd_with_rational_coefficients():
    f = poly("(1/2*x - 1/3*y) * (x + 1)").num
    g = poly("(3/4*x - 1/2*y) * (y^2 - 2/5)").num
    h = f.gcd(g)
    assert RationalFunction(h, poly("3*x - 2*y").num).is_constant()


def test_cancel_divides_out_the_common_factor():
    num, den = cancel(poly("x^2 - y^2").num, poly("2*x^2 + 2*x*y").num)
    assert RationalFunction(num, den) == poly("(x - y) / (2*x)")
    assert den.degree_in("x") == 1 and den.degree_in("y") == 0


def test_gcd_gives_up_on_an_oversized_image():
    x = poly("x").num
    f, g = 2 ** (_GCD_BITS + 100) * x + 1, x + 3
    assert _heugcd(f, g) is None
    num, den = cancel(f, g)
    assert num is f and den is g
    assert RationalFunction(num, den) == RationalFunction(f, g)


def test_cancel_still_reduces_a_small_pair():
    pair = cancel(poly("(x + 1)*(x + 2)").num, poly("(x + 1)*(x + 3)").num)
    assert pair == (poly("x + 2").num, poly("x + 3").num)


def test_cancel_reduces_a_cheap_gcd_over_eight_symbols():
    # GCDHEU needs images of about 6,200 bits here and ends in
    # milliseconds: the size cap must leave such a gcd alone
    field = skew_field()
    square = "(alpha + beta + l1 + l1f + l2f + zeta + theta + kappa + 1)^2"
    p = parse_scalar("alpha*beta - 3*kappa + 2", field).num
    q = parse_scalar("l1*zeta + theta - 5", field).num
    s = parse_scalar(square, field).num
    assert cancel(s * p, s * q) == (p, q)


# -- linear solving -----------------------------------------------------------

def test_solve_linear():
    field = FunctionField(("a", "b"))
    a = field.sym("a")
    b = field.sym("b")
    v = solve_linear(2 * a * b - b - 1, "a")
    assert v == (b + 1) / (2 * b)


def test_solve_linear_cancels_before_the_degree_test():
    a = FunctionField(("alpha",)).sym("alpha")
    assert solve_linear(a ** 2 / a - 1, "alpha") == 1


def test_solve_linear_rejects_quadratic():
    field = FunctionField(("a",))
    a = field.sym("a")
    with pytest.raises(NonlinearExpression):
        solve_linear(a * a - 1, "a")


def test_solve_linear_rejects_absent_symbol():
    field = FunctionField(("a", "b"))
    b = field.sym("b")
    with pytest.raises(DivisionByZero):
        solve_linear(b + 1, "a")


def test_skew_field_symbols():
    field = skew_field()
    assert field.names == ("alpha", "beta", "l1", "l1f", "l2f", "zeta",
                           "theta", "kappa")
    assert set(field.symbols()) == set(field.names)


# -- property tests -----------------------------------------------------------

f5_elements = st.integers(min_value=0, max_value=4).map(PrimeField(5).coerce)


@given(f5_elements, f5_elements, f5_elements)
def test_f5_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(f5_elements)
def test_f5_inverses(a):
    F = PrimeField(5)
    assert a + (-a) == F.zero
    if a != F.zero:
        assert a * (F.one / a) == F.one


coeffs = st.integers(min_value=-12, max_value=12)
ratios = st.fractions(min_value=-4, max_value=4, max_denominator=6)
exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))
polys = st.dictionaries(exponents, coeffs, max_size=4).map(
    lambda terms: MultiPoly(NAMES, terms))


@given(polys, polys, polys)
@settings(max_examples=60)
def test_multipoly_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys)
@settings(max_examples=30)
def test_power_is_repeated_multiplication(p):
    product = MultiPoly.constant(NAMES, 1)
    for n in range(7):
        assert p ** n == product
        product = product * p


@given(polys, polys)
@settings(max_examples=60)
def test_exquo_inverts_multiplication(p, d):
    if d.is_zero():
        d = MultiPoly.constant(NAMES, 1)
    assert (p * d).exquo(d) == p
    assert (p * d + d).exquo(d) == p + 1


points = st.tuples(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4))


@given(polys, polys, points)
@settings(max_examples=60)
def test_multipoly_evaluation_is_a_homomorphism(p, q, point):
    assignment = {"x": point[0], "y": point[1]}
    lhs = (p * q + p).evaluate(assignment, QQ)
    rhs = p.evaluate(assignment, QQ) * q.evaluate(assignment, QQ) \
        + p.evaluate(assignment, QQ)
    assert lhs == rhs


@given(polys, polys, polys)
@settings(max_examples=40, deadline=None)
def test_gcd_divides_and_is_divided_by_common_factors(f, g, k):
    assume(not (f.is_zero() or g.is_zero() or k.is_zero()))
    fk, gk = f * k, g * k
    h = fk.gcd(gk)
    if h is None:  # the heuristic gave up, which it may
        return
    fk.exquo(h)  # each raises InexactDivision if h does not divide
    gk.exquo(h)
    h.exquo(k.primitive())  # h is primitive, so k's content is not in it


@given(polys, polys, polys, polys, st.one_of(st.none(), ratios))
@settings(max_examples=40, deadline=None)
def test_rf_predicates_ignore_a_common_factor(p, q, d, k, scale):
    assume(not (d.is_zero() or k.is_zero()))
    f = RationalFunction(p, d)
    if scale is not None:  # a constant value in a non-constant form
        f = RationalFunction(d, d) * RationalFunction.constant(NAMES, scale)
    g = f * RationalFunction(k, k)
    assert g.is_constant() == f.is_constant()
    if scale is not None:
        assert f.is_constant() and f.constant_value() == scale
    if f.is_constant():
        assert g.constant_value() == f.constant_value()
    assert g.is_zero() == f.is_zero()
    other = RationalFunction(q, d)
    assert (g == other) == (f == other)


@given(polys, polys, polys, points)
@settings(max_examples=60)
def test_rf_equality_agrees_with_evaluation(p, q, den, point):
    if den.is_zero():
        den = MultiPoly.constant(NAMES, 1)
    f = RationalFunction(p, den)
    g = RationalFunction(q, den)
    assignment = {"x": point[0], "y": point[1]}
    try:
        fv = f.evaluate(assignment, QQ)
        gv = g.evaluate(assignment, QQ)
    except DenominatorVanishes:
        return
    if f == g:
        assert fv == gv
    elif fv != gv:
        assert f != g


rf_atoms = st.one_of(
    st.sampled_from(NAMES).map(lambda n: RationalFunction.symbol(NAMES, n)),
    ratios.map(lambda c: RationalFunction.constant(NAMES, c)))
rf_steps = st.lists(st.tuples(st.sampled_from("+-*/^"), rf_atoms,
                              st.integers(-2, 2)), max_size=6)


@given(rf_atoms, rf_steps)
@settings(max_examples=60, deadline=None)
def test_rf_arithmetic_keeps_integer_coefficients(f, steps):
    for op, g, n in steps:
        if op == "+":
            f = f + g
        elif op == "-":
            f = f - g
        elif op == "*":
            f = f * g
        elif op == "/" and not g.is_zero():
            f = f / g
        elif op == "^" and not (n < 0 and f.is_zero()):
            f = f ** n
        coefficients = list(f.num.terms.values()) + list(f.den.terms.values())
        assert all(type(c) is int for c in coefficients)


primes = st.sampled_from([3, 5, 7, 101]).map(PrimeField)


@given(ratios, primes, st.integers(-300, 300), polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_truthiness_is_the_value_zero_test(q, F, k, n, d, h):
    assume(not (d.is_zero() or h.is_zero()))
    assert bool(q) == (q != QQ.zero)
    a = F.coerce(k)
    assert bool(a) == (a != F.zero)
    field = FunctionField(NAMES)
    f = RationalFunction(n, d)
    unreduced = RationalFunction(n * h, d * h)
    zero = f - unreduced  # zero written as n/d - n/d
    for g in (f, unreduced, zero, f * unreduced, f + unreduced):
        assert bool(g) == (g != field.zero) == (not g.is_zero())
    assert not zero
    assert bool(unreduced) == bool(f)


# -- fast paths against the general formulas ----------------------------------
#
# The kernels skip the general formula for zero, constant and one-term
# polynomials, for the denominator 1 and a monic monomial denominator, for
# negation and for int operands.  The references below are the general
# formulas, with no shortcut; each fast path must store the very same
# (num, den).

def general_mul(p, q):
    terms = {}
    for e1, c1 in p.exponents().items():
        for e2, c2 in q.exponents().items():
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return MultiPoly(p.names, terms)


def general_pow(p, n):
    out = MultiPoly.constant(p.names, 1)
    for _ in range(n):
        out = general_mul(out, p)
    return out


def general_neg(p):
    return MultiPoly(p.names, {e: -c for e, c in p.exponents().items()})


def graded_lead(p):
    return sorted(p.exponents(), key=lambda e: (-sum(e), [-k for k in e]))[0]


def general_rf(num, den):
    """num/den with the integer content divided out and the denominator's
    leading coefficient made positive, whatever the operands."""
    if num.is_zero():
        den = MultiPoly.constant(num.names, 1)
    scale = gcd(*num.terms.values(), *den.terms.values())
    num = MultiPoly(num.names,
                    {e: c // scale for e, c in num.exponents().items()})
    den = MultiPoly(den.names,
                    {e: c // scale for e, c in den.exponents().items()})
    if den.exponents()[graded_lead(den)] < 0:
        num, den = general_neg(num), general_neg(den)
    f = object.__new__(RationalFunction)
    f.num, f.den = num, den
    return f


def general_add(f, g):
    return general_rf(general_mul(f.num, g.den) + general_mul(g.num, f.den),
                      general_mul(f.den, g.den))


def general_constant(q):
    q = Fraction(q)
    return general_rf(MultiPoly.constant(NAMES, q.numerator),
                      MultiPoly.constant(NAMES, q.denominator))


def stored(f):
    return f.num.terms, f.den.terms


def assert_well_formed(f):
    for p in (f.num, f.den):
        assert type(p.names) is tuple
        assert all(p.terms.values())


monomials = st.builds(lambda e, c: MultiPoly(NAMES, {e: c}), exponents,
                      coeffs.filter(bool))
shaped_polys = st.one_of(
    polys, monomials, coeffs.map(lambda c: MultiPoly.constant(NAMES, c)))
nonzero_polys = shaped_polys.filter(lambda p: not p.is_zero())


@st.composite
def shaped_rfs(draw):
    """Zero, constant, one-term, unit-denominator, monic-monomial
    denominator and unreduced values, each checked against general_rf."""
    num = draw(shaped_polys)
    shape = draw(st.sampled_from(("unit", "monic", "quotient", "unreduced")))
    if shape == "unit":
        f = RationalFunction(num)
        assert stored(f) == stored(general_rf(num, MultiPoly.constant(NAMES,
                                                                      1)))
        return f
    if shape == "monic":
        den = MultiPoly(NAMES, {draw(exponents): 1})
    else:
        den = draw(nonzero_polys)
    if shape == "unreduced":
        h = draw(nonzero_polys)
        num, den = general_mul(num, h), general_mul(den, h)
    f = RationalFunction(num, den)
    assert stored(f) == stored(general_rf(num, den))
    return f


@given(shaped_rfs(), shaped_rfs(), ratios, st.integers(0, 4),
       st.integers(-3, 3))
@settings(max_examples=200, deadline=None)
def test_fast_paths_store_what_the_general_formulas_store(f, g, q, n, k):
    neg_g = general_rf(general_neg(g.num), g.den)
    results = [
        (f + g, general_add(f, g)),
        (f - g, general_add(f, neg_g)),
        (-g, neg_g),
        (f * g, general_rf(general_mul(f.num, g.num),
                           general_mul(f.den, g.den))),
        (f ** n, general_rf(general_pow(f.num, n), general_pow(f.den, n))),
        (RationalFunction.constant(NAMES, q), general_constant(q)),
        (FunctionField(NAMES).coerce(k), general_constant(k)),
        (f * q, general_rf(general_mul(f.num, general_constant(q).num),
                           general_mul(f.den, general_constant(q).den))),
        (f + q, general_add(f, general_constant(q))),
        (f + k, general_add(f, general_constant(k))),
        (k - f, general_add(general_constant(k),
                            general_rf(general_neg(f.num), f.den))),
        (f * k, general_rf(general_mul(f.num, MultiPoly.constant(NAMES, k)),
                           f.den)),
    ]
    if g:
        results.append((f / g, general_rf(general_mul(f.num, g.den),
                                          general_mul(f.den, g.num))))
    if f:
        results.append((k / f, general_rf(
            general_mul(MultiPoly.constant(NAMES, k), f.den), f.num)))
    for got, want in results:
        assert stored(got) == stored(want)
        assert_well_formed(got)
    assert (f == g) == (general_mul(f.num, g.den).terms
                        == general_mul(g.num, f.den).terms)
    for p, r in ((f.num, g.num), (f.den, g.den), (f.num, g.den)):
        assert (p * r).terms == general_mul(p, r).terms
        assert (-p).terms == general_neg(p).terms
        assert (p ** n).terms == general_pow(p, n).terms
        assert p.leading_coefficient() == (p.exponents()[graded_lead(p)]
                                           if p.terms else 0)


# -- packed monomial keys against exponent tuples -----------------------------
#
# MultiPoly keys each term by one packed int.  The references below work
# on the exponent tuples of exponents(), with graded order as a sort key.

SYMBOL_TUPLES = (("x",), NAMES, SKEW_SYMBOLS)


def graded_key(e):
    return (sum(e), e)


def tuple_poly(draw, names):
    exps = st.tuples(*[st.integers(0, 3)] * len(names))
    return MultiPoly(names, draw(st.dictionaries(exps, coeffs, max_size=4)))


@st.composite
def poly_pairs(draw):
    """Two polynomials in 1, 2 or 8 symbols, the second nonzero."""
    names = draw(st.sampled_from(SYMBOL_TUPLES))
    d = tuple_poly(draw, names)
    assume(not d.is_zero())
    return tuple_poly(draw, names), d


def reference_exquo(p, d):
    """p / d by graded division on exponent tuples; None unless exact."""
    rem, divisor = p.exponents(), d.exponents()
    lead = max(divisor, key=graded_key)
    quot = {}
    while rem:
        e = max(rem, key=graded_key)
        shift = tuple(a - b for a, b in zip(e, lead))
        if min(shift) < 0 or rem[e] % divisor[lead]:
            return None
        q = quot[shift] = rem[e] // divisor[lead]
        for e2, c2 in divisor.items():
            t = tuple(a + b for a, b in zip(shift, e2))
            rem[t] = rem.get(t, 0) - q * c2
            if not rem[t]:
                del rem[t]
    return MultiPoly(p.names, quot)


def reference_repr(p):
    """The text of p, its terms in descending graded order of tuples."""
    exps = p.exponents()
    text = ""
    for e in sorted(exps, key=graded_key, reverse=True):
        c = exps[e]
        factors = [n if k == 1 else "%s^%d" % (n, k)
                   for n, k in zip(p.names, e) if k]
        body = "*".join(([str(abs(c))] if abs(c) != 1 or not factors
                         else []) + factors)
        sign = "-" if c < 0 else "+"
        text += (("-" if c < 0 else "") + body if not text
                 else " %s %s" % (sign, body))
    return text or "0"


@given(poly_pairs(), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_packed_products_powers_and_quotients_match_tuples(pair, n):
    p, d = pair
    assert (p * d).exponents() == general_mul(p, d).exponents()
    assert (p ** n).exponents() == general_pow(p, n).exponents()
    assert (p * d).exquo(d) == p
    want = reference_exquo(p, d)
    if want is None:
        with pytest.raises(InexactDivision):
            p.exquo(d)
    else:
        assert p.exquo(d) == want
    assert d.leading_coefficient() \
        == d.exponents()[max(d.exponents(), key=graded_key)]


@given(poly_pairs(), st.integers(-12, 12).filter(bool))
@settings(max_examples=100, deadline=None)
def test_one_term_gcd_is_the_monomial_of_least_exponents(pair, c):
    f, d = pair
    lead = max(d.exponents(), key=graded_key)
    m = MultiPoly(d.names, {lead: c})
    for p in (f, d):
        if not p.is_zero():
            least = tuple(map(min, lead, *p.exponents()))
            want = MultiPoly(d.names, {least: 1})
            assert m.gcd(p) == want and p.gcd(m) == want


@given(poly_pairs(), st.data())
@settings(max_examples=100, deadline=None)
def test_packed_reads_match_tuples(pair, data):
    p = pair[0]
    exps = p.exponents()
    for i, name in enumerate(p.names):
        assert p.degree_in(name) == max((e[i] for e in exps), default=0)
        for k in range(4):
            want = {e[:i] + (0,) + e[i + 1:]: c for e, c in exps.items()
                    if e[i] == k}
            assert p.coefficient_of(name, k).exponents() == want
    point = data.draw(st.tuples(*[st.integers(-3, 3)] * len(p.names)))
    want = 0
    for e, c in exps.items():
        for x, k in zip(point, e):
            c *= x ** k
        want += c
    assert p.evaluate(dict(zip(p.names, point)), QQ) == want
    assert repr(p) == reference_repr(p)
    assert p.total_degree() == max(map(sum, exps), default=0)


def test_exquo_refuses_a_larger_key_that_does_not_divide():
    x, y = (MultiPoly.variable(NAMES, n) for n in NAMES)
    with pytest.raises(InexactDivision):  # x sorts above y
        x.exquo(y)
    with pytest.raises(InexactDivision):  # y^2 sorts above x
        MultiPoly(NAMES, {(1, 0): 1}).exquo(MultiPoly(NAMES, {(0, 2): 1}))
    with pytest.raises(InexactDivision):
        (x * y + 1).exquo(x + y)
    assert (x ** 3 * y).exquo(x * y) == x ** 2


def test_degree_cap_raises_without_building_large_values():
    x, y = (MultiPoly.variable(NAMES, n) for n in NAMES)
    top = 2 ** 31 - 1
    assert (x ** top).exponents() == {(top, 0): 1}
    with pytest.raises(DegreeOverflow):
        x ** 2 ** 31
    with pytest.raises(DegreeOverflow):
        (x + y + 1) ** 2 ** 31
    with pytest.raises(DegreeOverflow):
        x ** top * y
    with pytest.raises(DegreeOverflow):
        x ** top * (x + 1)
    with pytest.raises(DegreeOverflow):
        (x ** 2 ** 30 + 1) * (y ** 2 ** 30 + 1)
    with pytest.raises(DegreeOverflow):
        MultiPoly(NAMES, {(2 ** 30, 2 ** 30): 1})
    t = FunctionField(("t",)).sym("t")
    with pytest.raises(DegreeOverflow):
        (1 / t) ** -(2 ** 31)
    assert issubclass(DegreeOverflow, ArithmeticError)


@pytest.mark.parametrize("terms", [{(1, -1): 1}, {(1,): 1}, {(1, 0, 0): 1},
                                   {(1, 0.5): 1}, {(True, 0): 1},
                                   {(0, 0): 0, (-1, 0): 0}, {1: 1}])
def test_constructor_refuses_malformed_exponents(terms):
    with pytest.raises(ValueError):
        MultiPoly(NAMES, terms)


@given(monomials, polys)
@settings(max_examples=100, deadline=None)
def test_one_term_gcd_is_the_heuristic_gcd(m, f):
    from axetlab.scalars import _heugcd
    assume(not f.is_zero())
    want = _heugcd(m.primitive(), f.primitive())
    assert m.gcd(f) == want
    assert f.gcd(m) == want


def run_replay(kind):
    from axetlab import skewverify
    if kind == "orthogonal":
        skewverify.replay_orthogonal_branch(0)
    else:  # its pair case runs rref over Q(beta, p)
        skewverify.replay_nonorthogonal_branch()


@pytest.mark.parametrize("kind, bound", [("orthogonal", 205),
                                         ("nonorthogonal", 302)],
                         ids=["orthogonal", "nonorthogonal"])
def test_replay_makes_few_polynomial_products(monkeypatch, kind, bound):
    # the bounds are the counts the replays make: a lost fast path in the
    # scalars or a lost zero skip in rref raises them
    calls = []
    mul = MultiPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    monkeypatch.setattr(MultiPoly, "__rmul__", counted)
    run_replay(kind)
    assert len(calls) <= bound


def test_a_zero_summand_makes_no_product(monkeypatch):
    calls = []
    mul = MultiPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    field = FunctionField(NAMES)
    f = field.sym("x") / (field.sym("y") + 1)
    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    monkeypatch.setattr(MultiPoly, "__rmul__", counted)
    assert f + field.zero is f and field.zero + f is f and f - 0 is f
    assert not calls


@pytest.mark.parametrize("kind, bound", [("orthogonal", 250),
                                         ("nonorthogonal", 264)],
                         ids=["orthogonal", "nonorthogonal"])
def test_replay_takes_few_contents(monkeypatch, kind, bound):
    # the bounds are the counts the replays take: construction that no
    # longer trusts a normal form raises them
    calls = []
    content = MultiPoly.content

    def counted(self):
        calls.append(1)
        return content(self)

    monkeypatch.setattr(MultiPoly, "content", counted)
    run_replay(kind)
    assert len(calls) <= bound


# -- the ring encoding of each field ------------------------------------------

@st.composite
def field_vectors(draw):
    """A field, a vector over it and whether every denominator is 1.

    Entries are n/d, the unreduced (n*h)/(d*h) or zero written as
    n/d - n/d, over Q, F_7 or Q(x, y).
    """
    field = draw(st.sampled_from([QQ, PrimeField(7), FunctionField(NAMES)]))
    if isinstance(field, FunctionField):
        ring, lift = polys, RationalFunction
        nonzero = polys.filter(bool)
    else:
        ring = st.integers(-20, 20)
        nonzero = ring.filter(lambda d: d % 7)

        def lift(n, d=1):
            return field.coerce(n) / field.coerce(d)
    unit = draw(st.booleans())
    vec = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(ring)
        if unit:
            vec.append(lift(n))
            continue
        d, h = draw(nonzero), draw(nonzero)
        form = draw(st.sampled_from(("reduced", "unreduced", "zero")))
        if form == "unreduced":
            vec.append(lift(n * h, d * h))
        elif form == "zero":
            vec.append(lift(n, d) - lift(n, d))
        else:
            vec.append(lift(n, d))
    return field, vec, unit


@given(field_vectors())
@settings(max_examples=150, deadline=None)
def test_decode_inverts_encode(case):
    field, vec, unit = case
    nums, den = field.encode(vec)
    assert field.decode(nums, den) == vec
    assert bool(den)
    if unit:
        assert den == 1


def test_decode_gives_the_stored_one_where_num_equals_den():
    field = FunctionField(NAMES)
    for den in (poly("2*x*y + 4").num, poly("-x^2 + y").num, poly("3").num):
        half, zero, one = field.decode([den, den - den, 2 * den], 2 * den)
        assert half == Fraction(1, 2) and zero is field.zero
        assert one is field.one
        assert (one.num.terms, one.den.terms) == ({0: 1}, {0: 1})
    assert QQ.decode([6, 3], 6) == [QQ.one, Fraction(1, 2)]
    F = PrimeField(7)
    assert F.decode([3, 0], 3) == [F.one, F.zero]


def test_function_field_encoding_multiplies_out_distinct_denominators():
    field = FunctionField(NAMES)
    x, y = field.sym("x"), field.sym("y")
    nums, den = field.encode([x / (y + 1), 0, Fraction(1, 2), y / (y + 1),
                              3])
    assert den == poly("2*y + 2").num
    assert nums == [poly(t).num for t in ("2*x", "0", "y + 1", "2*y",
                                          "6*y + 6")]
    assert field.encode([x, 2])[1] == 1


@given(polys)
def test_multipoly_truthiness_is_the_zero_test(p):
    assert bool(p) == (not p.is_zero())


@given(poly_pairs())
@settings(max_examples=100, deadline=None)
def test_floordiv_is_exact_division(pair):
    p, d = pair
    for a in (p, p * d):
        try:
            want = a.exquo(d)
        except InexactDivision:
            with pytest.raises(InexactDivision):
                a // d
        else:
            assert (a // d).terms == want.terms
    with pytest.raises(DivisionByZero):
        p // 0


# -- point values on the ring encoding ----------------------------------------

def reference_evaluate(p, assignment, field):
    """MultiPoly.evaluate term by term in the field's own arithmetic, kept
    as the reference for the evaluation on the ring encoding."""
    occurring = [(i, n) for i, n in enumerate(p.names)
                 if any(e[i] for e in p.exponents())]
    for _, n in occurring:
        if n not in assignment:
            raise UnboundSymbol("symbol %r is unbound" % n)
    powers = {}
    total = field.zero
    for exps, c in p.exponents().items():
        v = c
        for i, n in occurring:
            k = exps[i]
            if k:
                power = powers.get((n, k))
                if power is None:
                    power = powers[n, k] = assignment[n] ** k
                v = v * power
        total = total + v
    return total


def reference_rf_evaluate(f, assignment, field):
    den = reference_evaluate(f.den, assignment, field)
    if not den:
        raise DenominatorVanishes("denominator vanishes at %r" % (assignment,))
    return reference_evaluate(f.num, assignment, field) / den


EVAL_SYMBOLS = [("x",), ("x", "y"), SKEW_SYMBOLS]
EVAL_FIELDS = [QQ, PrimeField(5), PrimeField(7), PrimeField(1000000007),
               FunctionField(("t",))]


@st.composite
def eval_polys(draw, names):
    """Zero, constants and sparse polynomials in names: each term has at
    most three symbols, each of degree at most 3."""
    n = len(names)
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        exps = [0] * n
        for i, k in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.integers(1, 3)), max_size=3)):
            exps[i] = k
        terms[tuple(exps)] = draw(st.integers(-30, 30)
                                  | st.integers(-10 ** 30, 10 ** 30))
    return MultiPoly(names, terms)


@st.composite
def field_values(draw, field):
    """An element of field: a small rational over Q, a residue or an int or
    rational prime to p over F_p, (a t + b)/(c t + d) over Q(t)."""
    small = st.integers(-6, 6)
    if field.char:
        p = field.p
        value = draw(st.integers(-3 * p, 3 * p)
                     | st.fractions(-20, 20, max_denominator=12).filter(
                         lambda q: q.denominator % p))
        return draw(st.sampled_from([value, field.coerce(value)]))
    if field == QQ:
        return draw(st.fractions(-5, 5, max_denominator=7) | small)
    t = field.sym("t")
    a, b, c, d = (draw(small) for _ in range(4))
    assume(c or d)
    return (a * t + b) / (c * t + d)


@st.composite
def eval_cases(draw):
    """(names, field, assignment): most symbols bound, some left unbound."""
    names = draw(st.sampled_from(EVAL_SYMBOLS))
    field = draw(st.sampled_from(EVAL_FIELDS))
    assignment = {n: draw(field_values(field)) for n in names
                  if draw(st.integers(0, 9))}
    return names, field, assignment


def _outcome(evaluate, *args):
    """The type and value of a point value, or the type and message of
    the error it raises."""
    try:
        v = evaluate(*args)
    except (UnboundSymbol, DenominatorVanishes, DivisionByZero) as e:
        return type(e), str(e)
    return type(v), v


def _vanishing_factor(names, field, assignment):
    """A polynomial in names that vanishes at assignment (which may gain
    a binding), or None."""
    x = names[0]
    if x not in assignment:
        return None
    v = MultiPoly.variable(names, x)
    if len(names) > 1:
        assignment[names[1]] = assignment[x]
        return v - MultiPoly.variable(names, names[1])
    if field == QQ:
        q = Fraction(assignment[x])
        return v * q.denominator - q.numerator
    if field.char:
        return v - field.coerce(assignment[x]).value
    return None


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_multipoly_evaluate_agrees_with_the_term_loop(data):
    names, field, assignment = data.draw(eval_cases())
    p = data.draw(eval_polys(names))
    assert _outcome(p.evaluate, assignment, field) \
        == _outcome(reference_evaluate, p, assignment, field)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_rf_evaluate_agrees_with_the_term_loop(data):
    names, field, assignment = data.draw(eval_cases())
    num = data.draw(eval_polys(names))
    den = data.draw(eval_polys(names))
    if data.draw(st.booleans()):
        den = den * (_vanishing_factor(names, field, assignment) or 1)
    assume(den)
    f = RationalFunction(num, den)
    assert _outcome(f.evaluate, assignment, field) \
        == _outcome(reference_rf_evaluate, f, assignment, field)


@pytest.mark.parametrize("p", [5, 7, 1000000007])
def test_a_value_outside_f_p_raises_division_by_zero(p):
    F = PrimeField(p)
    names = ("x", "y")
    x, y = (MultiPoly.variable(names, n) for n in names)
    one = MultiPoly.constant(names, 1)
    bad = {"x": Fraction(1, p), "y": Fraction(2, 3)}
    for f in (x * 3 + 1, x ** 2 * y + y, RationalFunction(one, x + 2),
              RationalFunction(y + 1, x * y + 2)):
        with pytest.raises(DivisionByZero):
            f.evaluate(bad, F)
        with pytest.raises(DivisionByZero):
            (reference_rf_evaluate if isinstance(f, RationalFunction)
             else reference_evaluate)(f, bad, F)
    # the value is refused, even where a coefficient divisible by p
    # would cancel its denominator in the term loop
    with pytest.raises(DivisionByZero):
        (x * p).evaluate(bad, F)
    # a symbol that does not occur may hold any value
    assert (y + 1).evaluate(bad, F) == F.coerce(Fraction(5, 3))


def test_a_huge_power_over_f_p_is_quick():
    F = PrimeField(7)
    x = MultiPoly.variable(("x",), "x")
    huge = x ** (2 ** 30)
    start = time.perf_counter()
    assert huge.evaluate({"x": 3}, F) == F.coerce(pow(3, 2 ** 30, 7))
    assert RationalFunction(x + 1, huge).evaluate({"x": 3}, F) \
        == F.coerce(4) / pow(3, 2 ** 30, 7)
    assert time.perf_counter() - start < 1


def test_substituting_a_constant_into_a_huge_power_is_quick():
    # each power is formed only for an exponent that occurs, not for
    # every exponent up to the degree
    names = ("x",)
    x = MultiPoly.variable(names, "x")
    p = x ** 16000 + 1
    want = Fraction(3 ** 16000 + 2 ** 16000, 2 ** 16000)
    three_halves = RationalFunction(MultiPoly.constant(names, 3),
                                    MultiPoly.constant(names, 2))
    for value in (three_halves, Fraction(3, 2),
                  RationalFunction.constant(names, Fraction(3, 2))):
        for f, scale in ((p, 1), (RationalFunction(p, x + 1), Fraction(2, 5))):
            start = time.perf_counter()
            g = f.substitute({"x": value})
            assert time.perf_counter() - start < 1
            assert g.is_constant() and g.constant_value() == want * scale


# -- substitution in one pass over the packed terms ---------------------------

def reference_substitute(p, sub):
    """MultiPoly.substitute term by term in rational-function arithmetic,
    kept as the reference for the one pass over the packed terms."""
    out = RationalFunction.constant(p.names, 0)
    for exps, c in p.exponents().items():
        v = RationalFunction.constant(p.names, c)
        for n, k in zip(p.names, exps):
            if k:
                f = sub.get(n)
                if f is None:
                    f = RationalFunction.symbol(p.names, n)
                v = v * f ** k
        out = out + v
    return out


def reference_rf_substitute(f, sub):
    den = reference_substitute(f.den, sub)
    if not den:
        raise DenominatorVanishes("denominator vanishes under substitution")
    return reference_substitute(f.num, sub) / den


@st.composite
def constant_subs(draw, names):
    """Constants for some of names and maybe for a symbol outside them:
    0, +-1, ints and fractions, each as an int or Fraction or as a
    constant RationalFunction in names."""
    sub = {}
    for n in names + ("w",):
        if draw(st.integers(0, 2)):
            q = draw(st.sampled_from([0, 1, -1])
                     | st.integers(-10 ** 12, 10 ** 12)
                     | st.fractions(-9, 9, max_denominator=12))
            form = draw(st.sampled_from(["plain", "fraction", "rf"]))
            sub[n] = (q if form == "plain" else Fraction(q) if form == "fraction"
                      else RationalFunction.constant(names, q))
    return sub


def _root_factor(names, sub):
    """d*x - n for the first of names that sub binds to n/d, or 1."""
    for x in names:
        if x in sub:
            v = sub[x]
            q = (v.constant_value() if isinstance(v, RationalFunction)
                 else Fraction(v))
            return MultiPoly.variable(names, x) * q.denominator - q.numerator
    return 1


def _substituted(substitute, *args):
    """The stored pair of a substitution, or the type and message of the
    error it raises."""
    try:
        g = substitute(*args)
    except (ZeroDivisionError, TypeError) as e:
        return type(e), str(e)
    return g.num.terms, g.den.terms


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_constant_substitution_agrees_with_the_term_loop(data):
    names = data.draw(st.sampled_from(EVAL_SYMBOLS))
    sub = data.draw(constant_subs(names))
    num, den = data.draw(eval_polys(names)), data.draw(eval_polys(names))
    pole = data.draw(st.booleans())
    if pole:
        den = den * _root_factor(names, sub)
    for p in (num, den):
        assert _substituted(p.substitute, sub) \
            == _substituted(reference_substitute, p, sub)
    assume(den)
    f = RationalFunction(num, den)
    got = _substituted(f.substitute, sub)
    assert got == _substituted(reference_rf_substitute, f, sub)
    if pole and num and set(names) & set(sub):  # a zero is stored over 1
        assert got[0] is DenominatorVanishes


def test_other_values_raise_as_the_term_loop_does():
    names = ("x", "y")
    x, y = (MultiPoly.variable(names, n) for n in names)
    f = RationalFunction(x + 1, x * x + 2)
    elsewhere = RationalFunction.constant(("t",), Fraction(1, 3))
    for value, error in ((0.5, TypeError), (PrimeField(5).coerce(2), TypeError),
                         (elsewhere, MixedFields)):
        sub = {"x": value}
        for g, reference in ((x * 3 + 1, reference_substitute),
                             (f, reference_rf_substitute)):
            with pytest.raises(error):
                g.substitute(sub)
            assert _substituted(g.substitute, sub) \
                == _substituted(reference, g, sub)
        # a symbol that does not occur may hold any value
        assert stored((y + 1).substitute(sub)) == ((y + 1).terms, {0: 1})


def test_errors_come_in_the_order_of_the_term_loop():
    # the loop reads den before num, symbols in order within a term, and
    # finds a pole of den before it reads num
    names = ("x", "y")
    x, y = (MultiPoly.variable(names, n) for n in names)
    two = PrimeField(5).coerce(2)
    for g, sub, reference in (
            (RationalFunction(y, x - 1), {"x": 1, "y": 0.5},
             reference_rf_substitute),
            (RationalFunction(y, x + 1), {"x": two, "y": 0.5},
             reference_rf_substitute),
            (x * y + 1, {"x": two, "y": 0.5}, reference_substitute)):
        got = _substituted(g.substitute, sub)
        assert got == _substituted(reference, g, sub)
        assert got[0] in (DenominatorVanishes, TypeError)


SUB_SYMBOLS = [("x",), ("x", "y"), ("x", "y", "z")]


@st.composite
def small_polys(draw, names, degree, max_terms=3):
    """Zero, constants and sparse polynomials in names, each exponent at
    most degree and each coefficient in [-9, 9]."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, degree)) for _ in names)
        terms[exps] = draw(st.integers(-9, 9))
    return MultiPoly(names, terms)


@st.composite
def symbolic_subs(draw, names):
    """Rational functions in names for some of names, each over a nonzero
    constant or over a polynomial, so most are not constant."""
    sub = {}
    for n in names:
        if draw(st.integers(0, 2)):
            if draw(st.booleans()):
                den = MultiPoly.constant(names, draw(st.sampled_from(
                    [1, -1, 2, -3, 4, 6])))
            else:
                den = draw(small_polys(names, 1, 2).filter(bool))
            sub[n] = RationalFunction(draw(small_polys(names, 1)), den)
    return sub


def _value(substitute, *args):
    """A substitution, or the type and message of the error it raises."""
    try:
        return substitute(*args)
    except ZeroDivisionError as e:
        return type(e), str(e)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_symbolic_substitution_agrees_with_the_term_loop(data):
    names = data.draw(st.sampled_from(SUB_SYMBOLS))
    sub = data.draw(symbolic_subs(names))
    num = data.draw(small_polys(names, 2))
    den = data.draw(small_polys(names, 2).filter(bool))
    f = RationalFunction(num, den)
    constant = not any(any(v.den.terms) for v in sub.values())
    for g, reference in ((num, reference_substitute),
                         (den, reference_substitute),
                         (f, reference_rf_substitute)):
        assert _value(g.substitute, sub) == _value(reference, g, sub)
        if constant:  # one normal form over a constant denominator
            assert _substituted(g.substitute, sub) \
                == _substituted(reference, g, sub)


def test_a_symbolic_substitution_past_the_degree_cap_raises():
    names = ("x", "y", "z")
    x, y, z = (MultiPoly.variable(names, n) for n in names)
    p = x * z ** (2 ** 31 - 2)
    square = RationalFunction(y * y)
    for f in (p, RationalFunction(p, y + 1)):
        with pytest.raises(DegreeOverflow):
            f.substitute({"x": square})
    with pytest.raises(DegreeOverflow):
        reference_substitute(p, {"x": square})


def test_a_symbolic_pole_raises_denominator_vanishes():
    x, y = (RationalFunction.symbol(NAMES, n) for n in NAMES)
    for f in (1 / (x - y), (x + 1) / (x * x - y * y)):
        with pytest.raises(DenominatorVanishes):
            f.substitute({"x": y})
        with pytest.raises(DenominatorVanishes):
            reference_rf_substitute(f, {"x": y})


def test_a_constant_whose_denominator_is_p_is_a_pole_in_f_p():
    c = RationalFunction.constant(NAMES, Fraction(1, 5))
    with pytest.raises(DenominatorVanishes):
        c.evaluate({}, PrimeField(5))
    assert c.evaluate({}, PrimeField(7)) == PrimeField(7).coerce(Fraction(1, 5))
    assert c.evaluate({}, QQ) == Fraction(1, 5)


@pytest.mark.parametrize("q", [0, 1, -3, Fraction(2, 7), Fraction(-5, 3)])
def test_a_constant_evaluated_into_a_function_field_takes_the_general_path(q):
    F = FunctionField(("t",))
    c = RationalFunction.constant(NAMES, q)
    got = c.evaluate({}, F)
    assert _outcome(c.evaluate, {}, F) \
        == _outcome(reference_rf_evaluate, c, {}, F)
    assert stored(got) == stored(F.coerce(q))
