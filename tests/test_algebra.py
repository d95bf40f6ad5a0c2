"""Structure-constant algebras, elements, and linear maps."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axetlab.algebra import (DimensionMismatch, LinearMap, NotProperIdeal,
                             StructureAlgebra,
                             check_linear_map_is_isomorphism)
from axetlab.catalog import make_2B, make_3C, make_Q2_third, make_Q2x
from axetlab.scalars import QQ, MixedFields, PrimeField


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
    B = make_Q2_third()
    assert A.same_table(B)
    B.products[0][2][0] = B.products[0][2][0] + 1
    B.products[2][0] = B.products[0][2]
    assert not A.same_table(B)


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
