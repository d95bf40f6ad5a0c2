"""The algebra file format: parsing, emission, and round trips."""

from fractions import Fraction

import pytest

from axetlab import cli
from axetlab.algfile import (ParseError, emit_algebra_file, format_element,
                             parse_algebra_file)
from axetlab.catalog import (make_2B, make_3C, make_3C_minus1_2,
                             make_3C_skew, make_orthogonal_branch,
                             make_Q2_skew, make_Q2_third, make_Q2x,
                             make_Q2x_plus_one, skew_examples)
from axetlab.fusion import FusionLaw, make_jordan, make_monster
from axetlab.scalars import QQ

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
