"""Structure-constant algebras, elements, and linear maps."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axetlab import linalg
from axetlab.algebra import (DimensionMismatch, LinearMap, NotProperIdeal,
                             StructureAlgebra,
                             check_linear_map_is_isomorphism)
from axetlab.axes import miyamoto
from axetlab.catalog import (make_2B, make_3C, make_orthogonal_branch,
                             make_Q2_third, make_Q2x, orthogonal_branch_to_Q2,
                             orthogonal_branch_to_Q2x_plus_one, skew_examples)
from axetlab.fusion import make_jordan, make_monster
from axetlab.papersuite import perturbed
from axetlab.scalars import (QQ, FunctionField, MixedFields, MultiPoly,
                             PrimeField, RationalFunction)


def two_idempotents():
    """Basis a, b with a^2 = a, b^2 = b, ab = 0."""
    return StructureAlgebra.from_table(QQ, ("a", "b"), {
        ("a", "a"): {"a": 1},
        ("b", "b"): {"b": 1},
    })


def test_missing_pairs_default_to_zero():
    A = two_idempotents()
    a, b = A.basis()
    assert (a * b).is_zero()


def test_table_is_symmetrized():
    A = make_Q2_third()
    s1, d1 = A.gen("s1"), A.gen("d1")
    assert s1 * d1 == d1 * s1


def test_duplicate_basis_names_rejected():
    with pytest.raises(ValueError):
        StructureAlgebra(QQ, ("a", "a"), {})


def test_wrong_length_product_rejected():
    with pytest.raises(DimensionMismatch):
        StructureAlgebra(QQ, ("a", "b"), {(0, 0): [Fraction(1)]})


def test_element_from_dict_and_coeff():
    A = make_Q2_third()
    v = A.element({"s1": Fraction(1, 3), "d2": -1})
    assert v.coeff("s1") == Fraction(1, 3)
    assert v.coeff("d1") == 0
    assert v.coeff("d2") == -1


def test_element_arithmetic():
    A = two_idempotents()
    a, b = A.basis()
    v = 2 * a - b / 2
    assert v.coords == [2, Fraction(-1, 2)]
    assert (v + v).coords == [4, -1]
    assert (-v).coords == [-2, Fraction(1, 2)]
    assert (a * v) == 2 * a


def test_elements_of_different_algebras_do_not_mix():
    u = two_idempotents().gen("a")
    v = two_idempotents().gen("a")
    with pytest.raises(MixedFields):
        u + v


def test_adjoint_and_eigenspace():
    A = two_idempotents()
    a = A.gen("a")
    ad = A.adjoint(a)
    assert ad(a) == a
    ones = A.eigenspace(ad, QQ.one)
    zeros = A.eigenspace(ad, QQ.zero)
    assert [v.coords for v in ones] == [[1, 0]]
    assert [v.coords for v in zeros] == [[0, 1]]


def test_subalgebra_closure_grows_until_closed():
    A = make_Q2_third()
    s1, s2 = A.gen("s1"), A.gen("s2")
    d1 = A.gen("d1")
    sub = A.subalgebra_closure([s1 + d1])
    assert len(sub) > 1
    full = A.subalgebra_closure([s1, s2, d1])
    assert len(full) == 4


def test_find_identity():
    A = make_Q2_third()
    e = A.find_identity()
    total = sum(A.basis(), A.zero)
    assert e == Fraction(3, 5) * total
    for b in A.basis():
        assert e * b == b


def test_no_identity():
    assert make_Q2x().find_identity() is None


def reduced_mod5():
    """The four-dimensional algebra over F_5, which has a radical line."""
    return make_Q2_third(PrimeField(5))


def test_annihilator():
    A = reduced_mod5()
    ann = A.annihilator()
    assert len(ann) == 1
    z = ann[0]
    for b in A.basis():
        assert (z * b).is_zero()


def test_ideal_closure_is_an_ideal():
    A = reduced_mod5()
    ideal = A.ideal_closure(A.annihilator())
    assert len(ideal) == 1
    vectors = [v.coords for v in ideal]
    from axetlab import linalg
    for v in ideal:
        for b in A.basis():
            assert linalg.in_span(vectors, (v * b).coords, A.field)


def test_quotient_dimensions_and_products():
    A = reduced_mod5()
    Q = A.quotient(A.annihilator())
    assert Q.dim == A.dim - 1
    for n in Q.basis_names:
        x = Q.gen(n)
        assert x * x == x


def test_quotient_rejects_whole_algebra():
    A = two_idempotents()
    with pytest.raises(NotProperIdeal):
        A.quotient([A.gen("a"), A.gen("b")])


def test_adjoin_identity():
    A = two_idempotents()
    B = A.adjoin_identity()
    assert B.basis_names == ("a", "b", "one")
    one = B.gen("one")
    for b in B.basis():
        assert one * b == b
    assert B.find_identity() == one


def test_adjoin_identity_name_clash():
    A = two_idempotents()
    with pytest.raises(ValueError):
        A.adjoin_identity(name="a")


def test_map_coefficients_to_prime_field():
    A = make_Q2_third()
    F = PrimeField(7)
    B = A.map_coefficients(F.coerce, F)
    s1, d1 = B.gen("s1"), B.gen("d1")
    prod = s1 * d1
    assert prod.coeff("s1") == F.coerce(Fraction(1, 3))


def test_rebased_round_trip():
    A = make_Q2_third()
    names = A.basis_names
    B = A.span_subalgebra(A.basis(), names)
    assert B.same_table(A)


def test_rebased_change_of_basis():
    A = two_idempotents()
    a, b = A.basis()
    B = A.span_subalgebra([a + b, a - b], ("e", "f"))
    e, f = B.basis()
    # (a+b)(a-b) = a - b = f, (a-b)^2 = a + b = e
    assert e * f == f
    assert f * f == e


def test_span_subalgebra():
    A = make_Q2_third()
    s1, s2 = A.gen("s1"), A.gen("s2")
    B = A.span_subalgebra([s1, s2], ("s1", "s2"))
    u, v = B.basis()
    assert u * u == u
    assert (u * v).is_zero()


def test_span_subalgebra_rejects_open_spans():
    A = make_Q2_third()
    with pytest.raises(ValueError):
        A.span_subalgebra([A.gen("s1"), A.gen("d1")], ("p", "q"))


def test_span_subalgebra_rejects_dependent_vectors():
    A = make_Q2_third()
    s1 = A.gen("s1")
    with pytest.raises(DimensionMismatch):
        A.span_subalgebra([s1, s1], ("p", "q"))
    # as many vectors as the dimension, as in a change of basis
    B = two_idempotents()
    a, b = B.basis()
    with pytest.raises(DimensionMismatch):
        B.span_subalgebra([a + b, 2 * a + 2 * b], ("e", "f"))


def test_same_table_detects_any_difference():
    A = make_Q2_third()
    assert A.same_table(make_Q2_third())
    B = perturbed(A, 0, 2, 0)
    assert B.products[0][2] == B.products[2][0] != A.products[0][2]
    assert not A.same_table(B)


def test_products_cannot_be_edited_in_place():
    A = make_Q2_third()
    with pytest.raises(TypeError):
        A.products[0][2][0] = A.products[0][2][0] + 1
    with pytest.raises(TypeError):
        A.products[0][2] = A.products[2][0]
    with pytest.raises(TypeError):
        A.products[0] = A.products[1]


# -- linear maps --------------------------------------------------------------

def test_from_images_and_apply():
    A = two_idempotents()
    a, b = A.basis()
    m = LinearMap.from_images(A, A, [b, a])
    assert m(a) == b
    assert m(2 * a - b) == 2 * b - a


def test_from_pairs_spanning():
    A = two_idempotents()
    a, b = A.basis()
    m = LinearMap.from_pairs(A, A, [(a + b, a + b), (a - b, b - a)])
    assert m(a) == b
    assert m(b) == a


def test_from_pairs_skips_a_redundant_pair_before_the_spanning_ones():
    A = two_idempotents()
    a, b = A.basis()
    m = LinearMap.from_pairs(A, A, [(a + b, a + b), (2 * a + 2 * b,
                                                     2 * a + 2 * b),
                                    (a - b, b - a)])
    assert m(a) == b
    assert m(b) == a
    with pytest.raises(DimensionMismatch):
        LinearMap.from_pairs(A, A, [(a, a), (2 * a, b), (b, b)])


def test_from_pairs_requires_span():
    A = two_idempotents()
    a, b = A.basis()
    with pytest.raises(DimensionMismatch):
        LinearMap.from_pairs(A, A, [(a + b, a)])


def test_from_pairs_requires_consistency():
    A = two_idempotents()
    a, b = A.basis()
    with pytest.raises(DimensionMismatch):
        LinearMap.from_pairs(A, A, [(a, a), (b, b), (a + b, a)])


def test_compose_inverse_involution():
    A = two_idempotents()
    a, b = A.basis()
    swap = LinearMap.from_images(A, A, [b, a])
    assert swap.is_involution()
    assert not swap.is_identity()
    assert swap.compose(swap).is_identity()
    assert swap.inverse() == swap
    assert LinearMap.identity(A).is_identity()


def test_isomorphism_check():
    A = make_3C(Fraction(1, 4))
    x, y, z = A.basis()
    relabel = LinearMap.from_images(A, A, [y, z, x])
    assert check_linear_map_is_isomorphism(relabel)
    shear = LinearMap.from_images(A, A, [x + y, y, z])
    assert not check_linear_map_is_isomorphism(shear)
    squash = LinearMap.from_images(A, A, [x, x, z])
    assert not check_linear_map_is_isomorphism(squash)


def test_isomorphism_across_algebras():
    A = make_2B()
    B = two_idempotents()
    m = LinearMap.from_images(A, B, [B.gen("a"), B.gen("b")])
    assert check_linear_map_is_isomorphism(m)


def test_embedding_that_is_not_onto_is_not_an_isomorphism():
    E = StructureAlgebra.from_table(QQ, ("e",), {("e", "e"): {"e": 1}})
    T = StructureAlgebra.from_table(QQ, ("x", "y"), {
        ("x", "x"): {"x": 1},
        ("y", "y"): {"y": 1},
    })
    e = E.gen("e")
    m = LinearMap.from_images(E, T, [T.gen("x")])
    assert m(e * e) == m(e) * m(e)  # an injective homomorphism
    assert not check_linear_map_is_isomorphism(m)
    with pytest.raises(DimensionMismatch):
        m.inverse()
    onto = LinearMap.from_images(T, E, [e, E.zero])  # and a surjective one
    assert not check_linear_map_is_isomorphism(onto)
    with pytest.raises(DimensionMismatch):
        onto.inverse()


# -- the isomorphism check against its definition -----------------------------

def iso_by_definition(m):
    """Bijective, and m(bi*bj) == m(bi)*m(bj) for every pair of basis
    elements: the reference the one-product-per-pair check must match."""
    src = m.source
    if (src.dim != m.target.dim
            or linalg.rank(m.matrix, m.target.field) != src.dim):
        return False
    return all(m(bi * bj) == m(bi) * m(bj)
               for bi in src.basis() for bj in src.basis())


def catalog_axes(field):
    """(algebra, axis, law) for every catalog axis that exists over field."""
    c = field.coerce
    cases = []
    A = make_2B(field)
    cases += [(A, v, make_jordan(c(Fraction(1, 2)))) for v in A.basis()]
    A = make_3C(Fraction(1, 4), field)
    cases += [(A, v, make_jordan(c(Fraction(1, 4)))) for v in A.basis()]
    A = make_Q2_third(field)
    j = make_jordan(c(Fraction(1, 3)))
    m = make_monster(c(Fraction(2, 3)), c(Fraction(1, 3)))
    cases += [(A, A.gen("s1"), j), (A, A.gen("s2"), j),
              (A, A.gen("d1"), m), (A, A.gen("d2"), m)]
    for ex in skew_examples(field.char) + [make_orthogonal_branch(field)]:
        cases += [(ex.algebra, ex.m_axis, ex.m_law),
                  (ex.algebra, ex.j_axis, ex.j_law)]
    return cases


def shifted(m, r, c):
    """m with the matrix entry (r, c) increased by one."""
    matrix = [list(row) for row in m.matrix]
    matrix[r][c] = matrix[r][c] + m.target.field.one
    return LinearMap(m.source, m.target, matrix)


def assert_check_matches_definition(m, expected):
    assert check_linear_map_is_isomorphism(m) == iso_by_definition(m) \
        == expected


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(7)],
                         ids=repr)
def test_isomorphism_check_on_catalog_miyamoto_maps(field):
    cases = catalog_axes(field)
    assert len(cases) >= 15
    for A, a, law in cases:
        tau = miyamoto(A, a, law)
        assert_check_matches_definition(tau, True)
        for r in range(A.dim):
            for c in range(A.dim):
                assert_check_matches_definition(shifted(tau, r, c), False)


@pytest.mark.parametrize("make", [orthogonal_branch_to_Q2,
                                  lambda: orthogonal_branch_to_Q2(
                                      PrimeField(7)),
                                  orthogonal_branch_to_Q2x_plus_one],
                         ids=["Q2-over-Q", "Q2-over-F7", "Q2x-plus-one-F5"])
def test_isomorphism_check_on_branch_isomorphisms(make):
    m = make()
    assert_check_matches_definition(m, True)
    for r in range(m.target.dim):
        for c in range(m.source.dim):
            assert_check_matches_definition(shifted(m, r, c), False)


def test_isomorphism_check_matches_definition_on_shear_and_squash():
    A = make_3C(Fraction(1, 4))
    x, y, z = A.basis()
    assert_check_matches_definition(
        LinearMap.from_images(A, A, [y, z, x]), True)
    assert_check_matches_definition(
        LinearMap.from_images(A, A, [x + y, y, z]), False)
    assert_check_matches_definition(
        LinearMap.from_images(A, A, [x, x, z]), False)


# -- bilinearity as a property ------------------------------------------------

coords3 = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                   min_size=3, max_size=3)


@given(coords3, coords3, coords3)
@settings(max_examples=60)
def test_multiplication_is_bilinear_and_commutative(u, v, w):
    A = make_3C(Fraction(1, 4))
    x = A.element(u)
    y = A.element(v)
    z = A.element(w)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert (2 * x) * y == 2 * (x * y)


# -- multiply_coords against the triple loop ----------------------------------

def multiply_by_triple_loop(A, u, v):
    """The product as a loop over i, j and k with value zero tests: the
    reference for the zero-skipping multiply_coords."""
    out = [A.field.zero] * A.dim
    for i, a in enumerate(u):
        if a == A.field.zero:
            continue
        for j, b in enumerate(v):
            if b == A.field.zero:
                continue
            c = a * b
            row = A.products[i][j]
            for k in range(A.dim):
                if row[k] != A.field.zero:
                    out[k] = out[k] + c * row[k]
    return out


QX = FunctionField(("x",))
QXY = FunctionField(("x", "y"))
product_fields = st.sampled_from([QQ, PrimeField(5), PrimeField(7),
                                  PrimeField(1000000007), QX, QXY])
small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def scalars_of(draw, field):
    """A field element that is zero about half the time."""
    if draw(st.booleans()):
        return field.zero
    value = draw(small.filter(bool))
    if field is QX:  # (c + d x^k) / (1 + e x), unreduced by a factor x + 1
        x = MultiPoly.variable(field.names, "x")
        num = (MultiPoly.constant(field.names, value.numerator)
               + draw(st.integers(-2, 2)) * x ** draw(st.integers(0, 2)))
        den = (value.denominator + draw(st.integers(0, 2)) * x)
        return RationalFunction(num * (x + 1), den * (x + 1))
    if field is QXY:  # (c + d x^k y^l) over one of three denominators,
        # so products share some denominators and not others
        x, y = (MultiPoly.variable(field.names, n) for n in field.names)
        num = (MultiPoly.constant(field.names, value.numerator)
               + draw(st.integers(-2, 2)) * x ** draw(st.integers(0, 2))
               * y ** draw(st.integers(0, 1)))
        den = draw(st.sampled_from([x + 1, y - 2, x * y + value.denominator]))
        return RationalFunction(num, den)
    return field.coerce(value)


@st.composite
def algebras_and_vectors(draw):
    field = draw(product_fields)
    n = draw(st.integers(1, 4))
    scalar = scalars_of(field)
    products = {(i, j): [draw(scalar) for _ in range(n)]
                for i in range(n) for j in range(i, n)}
    A = StructureAlgebra(field, ["b%d" % i for i in range(n)], products)
    # coordinates may also be ints and Fractions, which are coerced
    coordinate = st.one_of(scalar, st.integers(-2, 2), small)
    u = [draw(coordinate) for _ in range(n)]
    v = [draw(coordinate) for _ in range(n)]
    return A, u, v


@given(algebras_and_vectors())
@settings(max_examples=120, deadline=None)
def test_multiply_coords_matches_the_triple_loop(case):
    A, u, v = case
    got = A.multiply_coords(u, v)
    assert got == multiply_by_triple_loop(A, u, v)
    assert all(type(x) is type(A.field.one) for x in got)


def test_a_function_field_coordinate_is_summed_once():
    # e*e, e*f, f*e and f*f lie over x + 1, x + 1, x + 1 and y: their one
    # sum is over (x + 1) y, where adding them in turn multiplies x + 1 in
    # again and again
    x, y = QXY.sym("x"), QXY.sym("y")
    zero = QXY.zero
    A = StructureAlgebra(QXY, ["e", "f"], {(0, 0): [1 / (x + 1), zero],
                                           (0, 1): [x / (x + 1), zero],
                                           (1, 1): [1 / y, zero]})
    u = [QXY.one, QXY.one]
    got = A.multiply_coords(u, u)
    assert got == multiply_by_triple_loop(A, u, u)
    assert got[0] == (1 + 2 * x) / (x + 1) + 1 / y and got[1] == zero
    assert got[0].den == ((x + 1) * y).num
