"""The algebra file format: parsing, emission, and round trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axetlab import cli
from axetlab.algebra import StructureAlgebra
from axetlab.algfile import (ParseError, emit_algebra_file, format_element,
                             parse_algebra_file)
from axetlab.catalog import (make_2B, make_3C, make_3C_minus1_2,
                             make_3C_skew, make_orthogonal_branch,
                             make_Q2_skew, make_Q2_third, make_Q2x,
                             make_Q2x_plus_one, skew_examples)
from axetlab.fusion import FusionLaw, make_jordan, make_monster
from axetlab.scalars import QQ, FunctionField, PrimeField

QUARTER = Fraction(1, 4)

Q2_TEXT = """\
field rational
dim 4
basis s1 s2 d1 d2
product s1 s1 = s1
product s2 s2 = s2
product d1 d1 = d1
product d2 d2 = d2
product s1 d1 = 1/3*s1 + 1/6*d1 - 1/6*d2
product s1 d2 = 1/3*s1 - 1/6*d1 + 1/6*d2
product s2 d1 = 1/3*s2 + 1/6*d1 - 1/6*d2
product s2 d2 = 1/3*s2 - 1/6*d1 + 1/6*d2
product d1 d2 = -1/3*s1 - 1/3*s2 + 1/3*d1 + 1/3*d2
axis jordan 1/3 s1
axis monster 2/3 1/3 d1
"""


def test_parse_table_row():
    doc = parse_algebra_file(Q2_TEXT)
    A = doc.algebra
    assert A.same_table(make_Q2_third())
    s1, d1, d2 = A.gen("s1"), A.gen("d1"), A.gen("d2")
    assert s1 * d1 == Fraction(1, 3) * s1 + Fraction(1, 6) * (d1 - d2)


def test_parse_axes():
    doc = parse_algebra_file(Q2_TEXT)
    (el1, law1), (el2, law2) = doc.axes
    assert el1 == doc.algebra.gen("s1")
    assert law1.eigenvalues == [1, 0, Fraction(1, 3)]
    assert el2 == doc.algebra.gen("d1")
    assert law2.eigenvalues == [1, 0, Fraction(2, 3), Fraction(1, 3)]


def test_missing_pairs_are_zero():
    doc = parse_algebra_file(Q2_TEXT)
    A = doc.algebra
    assert (A.gen("s1") * A.gen("s2")).is_zero()


def test_comments_and_blank_lines():
    text = ("# header\n\nfield rational\n# more\ndim 1\nbasis e\n"
            "product e e = e  # trailing remark is part of no grammar\n")
    with pytest.raises(ParseError):
        parse_algebra_file(text)
    text = "# header\n\nfield rational\n# more\ndim 1\nbasis e\n" \
           "product e e = e\n"
    doc = parse_algebra_file(text)
    assert doc.algebra.dim == 1


def test_prime_field_file():
    text = ("field prime 5\ndim 2\nbasis a b\nproduct a a = a\n"
            "product a b = 2/3*a + 4*b\n")
    doc = parse_algebra_file(text)
    F = doc.algebra.field
    assert F.char == 5
    prod = doc.algebra.gen("a") * doc.algebra.gen("b")
    assert prod == doc.algebra.element({"a": F.coerce(4), "b": F.coerce(4)})


def test_function_field_file():
    text = ("field function alpha\ndim 2\nbasis x y\nproduct x x = x\n"
            "product x y = alpha*x + (1 - alpha)*y\n")
    doc = parse_algebra_file(text)
    field = doc.algebra.field
    alpha = field.sym("alpha")
    prod = doc.algebra.gen("x") * doc.algebra.gen("y")
    assert prod.coeff("x") == alpha
    assert prod.coeff("y") == 1 - alpha


def test_field_prime_2_rejected():
    with pytest.raises(ParseError) as info:
        parse_algebra_file("field prime 2\ndim 1\nbasis e\n")
    assert (info.value.line, info.value.column) == (1, 13)
    assert "characteristic 2 is not supported" in str(info.value)


def test_field_prime_composite_rejected():
    with pytest.raises(ParseError) as info:
        parse_algebra_file("field prime 9\ndim 1\nbasis e\n")
    assert (info.value.line, info.value.column) == (1, 13)
    assert "9 is not prime" in str(info.value)


def test_error_positions():
    bad = ("field rational\ndim 2\nbasis a b\nproduct a a = a\n"
           "product a b = 1/3*a + nosuch\n")
    with pytest.raises(ParseError) as info:
        parse_algebra_file(bad)
    assert info.value.line == 5
    assert info.value.column == 23
    assert "nosuch" in str(info.value)


@pytest.mark.parametrize("line, column", [
    ("product a b = 1/3*a + (b", 25),
    ("product a b = 1/0*a", 16),
    ("product a b =   (b", 19),
    ("axis jordan 1/(2 a", 17),
    ("axis monster 1/3   2/(3 a", 24),
    ("axis monster 1/3 2/3   a + (b", 30),
    ("product a q = a", 11),
    ("product q a = a", 9),
    ("product  a a = a", 10),
    ("  products a b = a", 3),
])
def test_error_columns_are_one_based_in_the_line(line, column):
    # each column is that of the offending token in the raw line
    bad = "field rational\ndim 2\nbasis a b\nproduct a a = a\n" + line
    with pytest.raises(ParseError) as info:
        parse_algebra_file(bad)
    assert (info.value.line, info.value.column) == (5, column)


def test_the_first_error_in_line_order_is_reported():
    bad = ("field rational\ndim 2\nbasis a b\nproduct a a = a\n"
           "product a b = 1/0*a\n\nbogus line\n")
    with pytest.raises(ParseError) as info:
        parse_algebra_file(bad)
    assert str(info.value) \
        == "line 5, column 16: division by zero at position 1"


_HEAD = "field rational\ndim 2\nbasis a b\n"

# one document per error path of parse_algebra_file, the tokenizer, the
# expression parser and the basis combinations, with the exact message
MALFORMED = [
    ("field\n", "line 1, column 1: field needs a descriptor"),
    ("field rational x\n",
     "line 1, column 1: field rational takes no arguments"),
    ("field prime\n", "line 1, column 1: field prime needs one argument"),
    ("field prime x7\n", "line 1, column 13: prime must be an integer"),
    ("field prime 9\n", "line 1, column 13: 9 is not prime"),
    ("field function\n",
     "line 1, column 1: field function needs symbol names"),
    ("field function t t\n",
     "line 1, column 18: bad or repeated symbol name 't'"),
    ("field complex\n",
     "line 1, column 1: unknown field descriptor 'complex'"),
    ("field rational\nfield rational\n",
     "line 2, column 1: field must be declared exactly once, first"),
    ("dim 2\n", "line 1, column 1: dim must follow the field line"),
    ("field rational\ndim\n", "line 2, column 1: dim needs one integer"),
    ("field rational\ndim 0\n", "line 2, column 5: dim must be positive"),
    ("field rational\ndim 65\n", "line 2, column 5: dim 65 is over 64"),
    ("field rational\nbasis a\n",
     "line 2, column 1: basis must follow the dim line"),
    ("field rational\ndim 2\nbasis a _b\n",
     "line 3, column 9: bad or repeated basis name '_b'"),
    ("field rational\ndim 2\nbasis a\n",
     "line 3, column 1: expected 2 basis names, got 1"),
    ("field function t\ndim 1\nbasis t\n",
     "line 3, column 1: basis name 't' shadows a field symbol"),
    ("field rational\ndim 1\nproduct a a = a\n",
     "line 3, column 1: products must follow the basis line"),
    (_HEAD + "product a b a\n",
     "line 4, column 1: expected: product <x> <y> = <expression>"),
    (_HEAD + "product a c = a\n",
     "line 4, column 11: unknown basis name 'c' in product pair"),
    (_HEAD + "product a b = a\nproduct b a = b\n",
     "line 5, column 9: duplicate product entry for a b"),
    ("field rational\ndim 1\naxis jordan 1/3 a\n",
     "line 3, column 1: axes must follow the basis line"),
    (_HEAD + "axis\n", "line 4, column 1: axis needs a law and an element"),
    (_HEAD + "axis ising 1/4 a\n",
     "line 4, column 1: unknown law 'ising' (want jordan or monster)"),
    (_HEAD + "axis monster 1/3 a\n",
     "line 4, column 1: expected: axis monster <alpha> <beta> <element>"),
    (_HEAD + "axis monster 1/2 1/2 a\n",
     "line 4, column 14: alpha and beta must differ"),
    (_HEAD + "bogus a\n", "line 4, column 1: unknown directive 'bogus'"),
    ("# only a comment\n", "line 2, column 1: missing field line"),
    ("field rational\ndim 1\n", "line 3, column 1: missing basis line"),
    (_HEAD + "product a a = 1\n",
     "line 4, column 15: expected a combination of basis symbols"),
    (_HEAD + "axis jordan 1/3 2\n",
     "line 4, column 17: expected a combination of basis symbols"),
    (_HEAD + "axis jordan a a\n", "line 4, column 13: unknown symbol 'a'"),
    # the tokenizer
    (_HEAD + "product a a = 1 @ a\n",
     "line 4, column 17: unexpected character '@'"),
    (_HEAD + "product a a = _a\n",
     "line 4, column 15: unexpected character '_'"),
    (_HEAD + "product a a = ½*a\n",
     "line 4, column 15: unexpected character '½'"),
    # the expression parser
    (_HEAD + "product a a = (a + b\n", "line 4, column 21: expected ')'"),
    (_HEAD + "product a a = " + "-" * 101 + "a\n",
     "line 4, column 115: expression nested deeper than 100"),
    (_HEAD + "product a a = 2^b*a\n",
     "line 4, column 17: exponent must be a nonnegative integer"),
    (_HEAD + "product a a = 3^3000*a\n",
     "line 4, column 17: power too large: exponent 3000 times base size 2"
     " is over 1000"),
    ("field function s t\ndim 2\nbasis a b\n"
     "product a a = (s+t+1)^200*a\n",
     "line 4, column 23: power too large: it can have over 10000 terms"),
    (_HEAD + "product a a = c*a\n", "line 4, column 15: unknown symbol 'c'"),
    (_HEAD + "product a a = *a\n", "line 4, column 15: unexpected token '*'"),
    (_HEAD + "product a a = a b\n", "line 4, column 17: trailing input 'b'"),
    (_HEAD + "product a a = a/0\n",
     "line 4, column 16: division by zero at position 1"),
    (_HEAD + "product a a = " + "9" * 5000 + "*a\n",
     "line 4, column 15: integer literal of 5000 digits is too long"),
    # the basis combinations
    (_HEAD + "product a a = 1 + a\n",
     "line 4, column 17: cannot add a scalar to a basis combination"),
    (_HEAD + "product a a = 1 - a\n",
     "line 4, column 17: cannot mix scalars and basis combinations"),
    (_HEAD + "product a a = a*b\n",
     "line 4, column 16: products of basis symbols are not allowed here"),
    (_HEAD + "product a a = a/b\n",
     "line 4, column 16: cannot divide by a basis symbol"),
    (_HEAD + "product a a = 1/a\n",
     "line 4, column 16: cannot divide by a basis symbol"),
    (_HEAD + "product a a = a^2\n",
     "line 4, column 16: basis symbols cannot be raised to powers"),
    (_HEAD + "product a a = a + 1\n",
     "line 4, column 17: cannot add a scalar to a basis combination"),
    (_HEAD + "product a a = a - 1\n",
     "line 4, column 17: cannot mix scalars and basis combinations"),
]


@pytest.mark.parametrize("text, message", MALFORMED)
def test_each_error_path_gives_its_line_column_and_message(text, message):
    with pytest.raises(ParseError) as info:
        parse_algebra_file(text)
    assert str(info.value) == message


def test_parse_builds_one_algebra_and_one_symbol_table(monkeypatch):
    from axetlab import algfile
    from axetlab.scalars import FunctionField
    field = FunctionField(("alpha",))
    ex = make_3C_skew(field.sym("alpha"), field)
    text = emit_algebra_file(ex.algebra, [(ex.m_axis, ex.m_law),
                                          (ex.j_axis, ex.j_law)])
    calls = {"algebra": 0, "symbols": 0}
    build, symbols = algfile.StructureAlgebra, FunctionField.symbols

    def counted_build(*args):
        calls["algebra"] += 1
        return build(*args)

    def counted_symbols(self):
        calls["symbols"] += 1
        return symbols(self)
    monkeypatch.setattr(algfile, "StructureAlgebra", counted_build)
    monkeypatch.setattr(FunctionField, "symbols", counted_symbols)
    doc = parse_algebra_file(text)
    assert calls == {"algebra": 1, "symbols": 1}
    assert emit_algebra_file(doc.algebra, doc.axes) == text


def test_degree_overflow_is_a_parse_error(monkeypatch):
    # a cap of 16 stands in for 2^31, which no file of test size reaches
    from axetlab import scalars
    monkeypatch.setattr(scalars, "_DEGREE_CAP", 16)
    text = ("field function t\ndim 1\nbasis e\n"
            "product e e = t^9 * t^9*e\n")
    with pytest.raises(ParseError) as info:
        parse_algebra_file(text)
    assert (info.value.line, info.value.column) == (4, 15)
    assert "total degree is over 15" in str(info.value)


def test_stage_order_enforced():
    with pytest.raises(ParseError):
        parse_algebra_file("dim 1\nfield rational\nbasis e\n")
    with pytest.raises(ParseError):
        parse_algebra_file("field rational\nbasis e\ndim 1\n")


def test_duplicate_product_rejected():
    text = ("field rational\ndim 1\nbasis e\nproduct e e = e\n"
            "product e e = e\n")
    with pytest.raises(ParseError) as info:
        parse_algebra_file(text)
    assert "duplicate" in str(info.value)


def test_scalar_products_of_basis_symbols_rejected():
    text = "field rational\ndim 2\nbasis a b\nproduct a b = a*b\n"
    with pytest.raises(ParseError):
        parse_algebra_file(text)


def test_unknown_law_rejected():
    text = ("field rational\ndim 1\nbasis e\nproduct e e = e\n"
            "axis ising 1/4 e\n")
    with pytest.raises(ParseError):
        parse_algebra_file(text)


def test_degenerate_law_parameters_surface_as_errors():
    text = ("field rational\ndim 1\nbasis e\nproduct e e = e\n"
            "axis monster 1/2 1/2 e\n")
    with pytest.raises(Exception):
        parse_algebra_file(text)


def test_format_element():
    A = make_Q2_third()
    v = A.element({"s1": Fraction(1, 3), "d1": Fraction(1, 6),
                   "d2": Fraction(-1, 6)})
    assert format_element(v.coords, A.basis_names) \
        == "1/3*s1 + 1/6*d1 - 1/6*d2"
    assert format_element(A.zero.coords, A.basis_names) == "0"
    assert format_element(A.gen("s2").coords, A.basis_names) == "s2"


def test_emit_is_deterministic():
    ex = make_Q2_skew()
    axes = [(ex.m_axis, ex.m_law), (ex.j_axis, ex.j_law)]
    assert emit_algebra_file(ex.algebra, axes) \
        == emit_algebra_file(ex.algebra, axes)


GENERIC_SKEW_TEXT = """\
field function alpha beta l1 l1f l2f zeta theta kappa
dim 4
basis a b c sigma
product a a = a
product a b = beta*a + beta*b + sigma
product a c = beta*a + beta*c + sigma
product a sigma = (alpha*beta - alpha*l1 - beta^2 - beta + l1)*a + ((alpha*beta - beta^2)/(2))*b + ((alpha*beta - beta^2)/(2))*c + (alpha - beta)*sigma
product b b = b
product b c = ((-2*alpha^2 + 2*alpha*l1 + 2*alpha*l1f + alpha - 2*l1)/(alpha - beta))*a + ((-2*alpha^2 + 2*alpha*l1 + 2*alpha*l1f + alpha - 2*l1)/(alpha*beta - beta^2))*sigma
product b sigma = (alpha*beta - beta^2)*a + (alpha*beta - alpha*l1f - beta^2 - beta + l1f)*b + (alpha - beta)*sigma
product c c = c
product c sigma = (alpha*beta - beta^2)*a + (alpha*beta - alpha*l1f - beta^2 - beta + l1f)*c + (alpha - beta)*sigma
product sigma sigma = zeta*a + theta*b + theta*c + kappa*sigma
"""

# the generic algebra with l1f = beta
GENERIC_SKEW_L1F_BETA_TEXT = """\
field function alpha beta l1 l1f l2f zeta theta kappa
dim 4
basis a b c sigma
product a a = a
product a b = beta*a + beta*b + sigma
product a c = beta*a + beta*c + sigma
product a sigma = (alpha*beta - alpha*l1 - beta^2 - beta + l1)*a + ((alpha*beta - beta^2)/(2))*b + ((alpha*beta - beta^2)/(2))*c + (alpha - beta)*sigma
product b b = b
product b c = ((-2*alpha^2 + 2*alpha*beta + 2*alpha*l1 + alpha - 2*l1)/(alpha - beta))*a + ((-2*alpha^2 + 2*alpha*beta + 2*alpha*l1 + alpha - 2*l1)/(alpha*beta - beta^2))*sigma
product b sigma = (alpha*beta - beta^2)*a + (-beta^2)*b + (alpha - beta)*sigma
product c c = c
product c sigma = (alpha*beta - beta^2)*a + (-beta^2)*c + (alpha - beta)*sigma
product sigma sigma = zeta*a + theta*b + theta*c + kappa*sigma
"""


def test_emit_of_the_generic_skew_algebra_is_pinned():
    # stored forms of rational functions reach the emitted text, so any
    # change to scalar arithmetic that alters them shows here
    from axetlab.catalog import SkewConstants, make_generic_skew
    from axetlab.scalars import skew_field
    c = SkewConstants.generic()
    assert emit_algebra_file(make_generic_skew(c)) == GENERIC_SKEW_TEXT
    sub = c.substitute({"l1f": skew_field().sym("beta")})
    assert emit_algebra_file(make_generic_skew(sub)) \
        == GENERIC_SKEW_L1F_BETA_TEXT


def test_emit_refuses_a_law_outside_the_families():
    # three eigenvalues, but eta*eta = {1} where J(1/4) has {1, 0}
    A = make_3C(QUARTER)
    law = FusionLaw([1, 0, QUARTER], {(0, 0): {0}, (0, 2): {2},
                                      (1, 1): {1}, (1, 2): {2},
                                      (2, 2): {0}})
    with pytest.raises(ValueError, match="not a jordan or monster law"):
        emit_algebra_file(A, [(A.gen("x"), law)])
    # the J(1/4) table entered without its empty 1*0 pair is J(1/4)
    law = FusionLaw([1, 0, QUARTER], {(0, 0): {0}, (0, 2): {2},
                                      (1, 1): {1}, (1, 2): {2},
                                      (2, 2): {0, 1}})
    text = emit_algebra_file(A, [(A.gen("x"), law)])
    assert text.endswith("\naxis jordan 1/4 x\n")
    (_, law2), = parse_algebra_file(text).axes
    n = len(law.eigenvalues)
    assert law2.eigenvalues == law.eigenvalues
    assert all(law2.star_indices(i, j) == law.star_indices(i, j)
               for i in range(n) for j in range(n))


def test_emit_writes_law_parameters_in_the_algebra_field():
    # make_jordan(2) keeps the int 2, which the field reads as 2
    A = make_3C(2)
    text = emit_algebra_file(A, [(A.gen("x"), make_jordan(2))])
    assert text.endswith("\naxis jordan 2 x\n")


def round_trip(algebra, axes=()):
    text = emit_algebra_file(algebra, axes)
    doc = parse_algebra_file(text)
    assert doc.algebra.same_table(algebra)
    assert doc.algebra.field == algebra.field
    assert len(doc.axes) == len(axes)
    for (el, law), (el2, law2) in zip(axes, doc.axes):
        assert el2.coords == el.coords
        assert law2.eigenvalues == law.eigenvalues
        assert law2.table == law.table
    assert emit_algebra_file(doc.algebra, doc.axes) == text


def test_round_trip_catalog_corpus():
    round_trip(make_2B())
    round_trip(make_Q2_third())
    round_trip(make_Q2x())
    for ex in skew_examples(0) + skew_examples(5) \
            + [make_orthogonal_branch()]:
        round_trip(ex.algebra, [(ex.m_axis, ex.m_law),
                                (ex.j_axis, ex.j_law)])


def test_round_trip_function_field():
    from axetlab.catalog import SkewConstants, make_generic_skew
    A = make_generic_skew(SkewConstants.generic())
    round_trip(A)


def test_round_trip_function_field_monster_axis(tmp_path):
    # a function-field law parameter such as 1 - alpha must stay one token
    from axetlab.scalars import FunctionField
    field = FunctionField(("alpha",))
    ex = make_3C_skew(field.sym("alpha"), field)
    text = emit_algebra_file(ex.algebra, [(ex.m_axis, ex.m_law),
                                          (ex.j_axis, ex.j_law)])
    assert "axis monster alpha (-alpha+1) " in text
    doc = parse_algebra_file(text)
    assert emit_algebra_file(doc.algebra, doc.axes) == text
    path = tmp_path / "skew.alg"
    path.write_text(text)
    assert cli.main(["verify", str(path)]) == 0


def test_round_trip_negative_and_integer_coefficients():
    ex = make_3C_minus1_2()
    round_trip(ex.algebra, [(ex.m_axis, ex.m_law), (ex.j_axis, ex.j_law)])


@st.composite
def sparse_algebras(draw):
    """A random algebra over Q, F_7 or Q(x) with a sparse table and up to
    two axes; zero coordinates are frequent, and some coefficients of
    Q(x) are reached through an x - x cancellation."""
    field = draw(st.sampled_from([QQ, PrimeField(7), FunctionField(("x",))]))
    x = field.sym("x") if isinstance(field, FunctionField) else None

    def coefficient():
        if draw(st.integers(0, 2)) == 0:
            return field.zero if x is None else x - x
        c = field.coerce(Fraction(draw(st.integers(-6, 6)),
                                  draw(st.sampled_from([1, 2, 3, 5]))))
        if x is not None:
            c = (c * x ** draw(st.integers(0, 2))
                 / (x + draw(st.integers(1, 2))))
            if draw(st.booleans()):
                c = c + x - x
        return c

    dim = draw(st.integers(1, 4))
    table = {(i, j): [coefficient() for _ in range(dim)]
             for i in range(dim) for j in range(i, dim) if draw(st.booleans())}
    algebra = StructureAlgebra(field, ["e%d" % i for i in range(dim)], table)
    third = field.coerce(Fraction(1, 3))
    laws = [make_jordan(third), make_monster(field.coerce(Fraction(1, 4)),
                                             third)]
    if x is not None:
        laws.append(make_monster(x, 1 - x))
    axes = [(algebra.element([coefficient() for _ in range(dim)]),
             draw(st.sampled_from(laws)))
            for _ in range(draw(st.integers(0, 2)))]
    return algebra, axes


@settings(max_examples=80, deadline=None)
@given(sparse_algebras())
def test_round_trip_of_random_sparse_algebras(case):
    algebra, axes = case
    round_trip(algebra, axes)
    # terms that cancel in the text leave the coefficients as they were
    text = emit_algebra_file(algebra, axes)
    noise = " + e0 - e0"
    if isinstance(algebra.field, FunctionField):
        noise += " + (x - x)*e0"
    noisy = "".join(line + noise + "\n"
                    if line.startswith(("product", "axis"))
                    and not line.endswith(" 0") else line + "\n"
                    for line in text.splitlines())
    doc = parse_algebra_file(noisy)
    assert emit_algebra_file(doc.algebra, doc.axes) == text
