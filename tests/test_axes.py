"""Axis verification, eigenprojections, and Miyamoto involutions."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axetlab import linalg
from axetlab import papersuite as ps
from axetlab.algebra import LinearMap, check_linear_map_is_isomorphism
from axetlab.axes import (Eigenbasis, NoGrading, NotPrimitive, NotSemisimple,
                          component, in_part, is_automorphism, miyamoto,
                          projection, verify_axis)
from axetlab.catalog import (make_2B, make_3C, make_3C_skew, make_Q2_third,
                             make_Q2_skew, make_Q2x_plus_one,
                             orthogonal_branch_to_Q2, skew_examples)
from axetlab.fusion import (ODD, FusionLaw, find_c2_grading, make_jordan,
                            make_monster)
from axetlab.scalars import QQ, FunctionField
from axetlab.algebra import StructureAlgebra

THIRD = Fraction(1, 3)
QUARTER = Fraction(1, 4)


def test_matsuo_axis_passes():
    A = make_3C(QUARTER)
    report = verify_axis(A, A.gen("x"), make_jordan(QUARTER))
    assert report.passed
    assert report.is_idempotent
    assert report.spectrum_ok
    assert report.is_primitive
    assert report.fusion_violations == []
    assert len(report.eigenspace(1)) == 1
    assert len(report.eigenspace(0)) == 1
    assert len(report.eigenspace(QUARTER)) == 1


def test_non_idempotent_fails_a1():
    A = make_3C(QUARTER)
    x, y = A.gen("x"), A.gen("y")
    report = verify_axis(A, x + y, make_jordan(QUARTER))
    assert not report.is_idempotent
    assert not report.passed


def test_wrong_law_fails_spectrum():
    A = make_3C(QUARTER)
    report = verify_axis(A, A.gen("x"), make_jordan(Fraction(1, 2)))
    assert report.is_idempotent
    assert not report.spectrum_ok
    assert not report.passed


def test_identity_element_is_not_primitive():
    A = make_3C(QUARTER)
    e = A.find_identity()
    report = verify_axis(A, e, make_jordan(QUARTER))
    assert report.is_idempotent
    assert not report.is_primitive
    assert not report.passed


def test_fusion_violation_detected():
    # b, c idempotent with bc = b + c: the 0-eigenspace is not closed
    A = StructureAlgebra.from_table(QQ, ("a", "b"), {
        ("a", "a"): {"a": 1},
        ("b", "b"): {"b": 1},
        ("a", "b"): {"b": 2},
    })
    law = FusionLaw([1, 0, 2], {(0, 0): {0}, (1, 1): {1}, (2, 2): {1, 0},
                                (0, 2): {2}, (1, 2): {2}})
    report = verify_axis(A, A.gen("a"), law)
    assert report.spectrum_ok
    assert not report.passed
    assert report.fusion_violations
    v = report.fusion_violations[0]
    assert (v.lam, v.mu) == (2, 2)


def test_fusion_checked_only_when_spectrum_complete():
    A = make_3C(QUARTER)
    report = verify_axis(A, A.gen("x"), make_jordan(Fraction(1, 2)))
    assert report.fusion_violations == []


def test_jordan_axis_passes_under_ambient_monster_law():
    A = make_Q2_third()
    m_law = make_monster(Fraction(2, 3), THIRD)
    report = verify_axis(A, A.gen("s1"), m_law)
    assert report.passed
    assert report.eigenspace(Fraction(2, 3)) == []


def test_projection_and_components():
    ex = make_Q2_skew()
    A = ex.algebra
    t1 = ex.m_axis
    s1 = A.gen("s1")
    law = ex.m_law
    # s1 = 5/12 t1 + 1/6 d1 + 1/4 (s1+s2-d2) + 1/2 (s1-s2)
    assert projection(A, t1, law, s1) == Fraction(5, 12)
    odd = component(A, t1, law, s1, [Fraction(2, 3)])
    assert 2 * odd == A.gen("s1") - A.gen("s2")
    assert in_part(A, t1, law, A.gen("d1"), [0])
    assert not in_part(A, t1, law, s1, [1, 0])


def test_projection_rescales_the_kernel_vector_to_the_axis():
    field = FunctionField(("alpha",))
    alpha = field.sym("alpha")
    ex = make_3C_skew(alpha, field)
    A, w, law = ex.algebra, ex.m_axis, ex.m_law
    x, y, z = A.basis()
    # the 1-eigenspace is spanned by (alpha + 1) w, not by w itself
    assert verify_axis(A, w, law).eigenspace(1) == [-alpha * x + y + z]
    for v in (x, y, z, w, x - 2 * z):
        assert component(A, w, law, v, [1]) == projection(A, w, law, v) * w
    assert projection(A, w, law, w) == field.one


@pytest.mark.parametrize("make", [
    lambda: make_3C_skew(QUARTER),
    make_Q2x_plus_one,
    lambda: make_3C_skew(FunctionField(("alpha",)).sym("alpha")),
], ids=["Q", "F5", "Q(alpha)"])
def test_verify_axis_solves_no_system(monkeypatch, make):
    ex = make()

    def refuse(*args):
        raise AssertionError("verify_axis called linalg.solve")
    monkeypatch.setattr(linalg, "solve", refuse)
    assert verify_axis(ex.algebra, ex.m_axis, ex.m_law).passed
    assert verify_axis(ex.algebra, ex.j_axis, ex.j_law).passed


def test_projection_requires_idempotent():
    A = make_3C(QUARTER)
    x, y = A.gen("x"), A.gen("y")
    with pytest.raises(NotPrimitive):
        projection(A, x + y, make_jordan(QUARTER), x)


def test_projection_requires_full_spectrum():
    A = make_3C(QUARTER)
    with pytest.raises(NotSemisimple):
        projection(A, A.gen("x"), make_jordan(Fraction(1, 2)), A.gen("y"))


def test_miyamoto_swaps_the_other_axes():
    ex = make_3C_skew(QUARTER)
    A = ex.algebra
    tau = miyamoto(A, ex.m_axis, ex.m_law)
    assert is_automorphism(A, tau)
    assert tau.is_involution()
    assert tau(ex.j_axis) == ex.third
    assert tau(ex.third) == ex.j_axis
    assert tau(ex.m_axis) == ex.m_axis


def test_jordan_axis_gives_identity_involution_under_monster_law():
    ex = make_3C_skew(QUARTER)
    tau = miyamoto(ex.algebra, ex.j_axis, ex.m_law)
    assert tau.is_identity()


def test_jordan_axis_under_its_own_law_is_not_identity():
    A = make_3C(QUARTER)
    tau = miyamoto(A, A.gen("x"), make_jordan(QUARTER))
    assert tau.is_involution()
    assert not tau.is_identity()
    assert tau(A.gen("y")) == A.gen("z")


def test_eigenbasis_miyamoto_is_built_once(monkeypatch):
    ex = make_3C_skew(QUARTER)
    tables = []
    products_over = StructureAlgebra.products_over

    def counted(A, vectors, inverse):
        tables.append(vectors)
        return products_over(A, vectors, inverse)
    monkeypatch.setattr(StructureAlgebra, "products_over", counted)
    basis = verify_axis(ex.algebra, ex.m_axis, ex.m_law)
    tau = basis.miyamoto
    assert basis.miyamoto is tau
    assert tau(ex.j_axis) == ex.third
    assert len(tables) == 1


def test_eigenbasis_eigenspace_reads_the_law_index():
    ex = make_3C_skew(QUARTER)
    basis = Eigenbasis(ex.algebra, ex.m_axis, ex.m_law)
    for lam, space in basis.spaces:
        assert basis.eigenspace(lam) is space
    assert len(basis.eigenspace(1)) == 1
    with pytest.raises(KeyError):
        basis.eigenspace(Fraction(5, 7))


def test_miyamoto_requires_grading():
    # a law with no nontrivial C2 grading: 2 * 2 = {2}
    law = FusionLaw([1, 0, 2], {(0, 0): {0}, (1, 1): {1}, (2, 2): {2},
                                (1, 2): {2}})
    A = make_2B()
    with pytest.raises(NoGrading):
        miyamoto(A, A.gen("a"), law)


def test_miyamoto_requires_semisimplicity():
    A = make_3C(QUARTER)
    with pytest.raises(NotSemisimple):
        miyamoto(A, A.gen("x"), make_jordan(Fraction(1, 2)))


coords = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                  min_size=4, max_size=4)


@given(coords, coords)
@settings(max_examples=40)
def test_projection_is_linear(u, v):
    A = make_Q2_third()
    law = make_jordan(THIRD)
    a = A.gen("s1")
    x = A.element(u)
    y = A.element(v)
    assert projection(A, a, law, x + y) \
        == projection(A, a, law, x) + projection(A, a, law, y)
    assert projection(A, a, law, 3 * x) == 3 * projection(A, a, law, x)


@given(coords)
@settings(max_examples=40)
def test_components_sum_to_the_vector(u):
    A = make_Q2_third()
    law = make_jordan(THIRD)
    a = A.gen("s1")
    v = A.element(u)
    parts = [component(A, a, law, v, [lam]) for lam in law.eigenvalues]
    assert sum(parts, A.zero) == v


@given(coords)
@settings(max_examples=40)
def test_miyamoto_fixes_even_and_negates_odd(u):
    A = make_Q2_third()
    law = make_monster(Fraction(2, 3), THIRD)
    a = A.gen("d1")
    tau = miyamoto(A, a, law)
    v = A.element(u)
    even = component(A, a, law, v, [1, 0, Fraction(2, 3)])
    odd = component(A, a, law, v, [THIRD])
    assert tau(v) == even - odd


def reference_violations(basis):
    """The fusion check as a loop over eigenvector pairs, each product
    decomposed on its own with Eigenbasis.coords: (lam, mu, witness)."""
    law, spaces, found = basis.law, basis.spaces, []
    for i in range(len(spaces)):
        for j in range(i, len(spaces)):
            allowed = law.star_indices(i, j)
            for u, v in product(spaces[i][1], spaces[j][1]):
                if any(c and basis.owner[k] not in allowed
                       for k, c in enumerate(basis.coords(u * v))):
                    found.append((law.eigenvalues[i], law.eigenvalues[j],
                                  u * v))
                    break
    return found


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_eigenbasis_table_matches_the_reference_checks(data):
    examples = skew_examples(data.draw(st.sampled_from((0, 5, 7))))
    ex = data.draw(st.sampled_from(examples))
    A = ex.algebra
    if data.draw(st.booleans()):
        A = ps.perturbed(A, *(data.draw(st.integers(0, A.dim - 1))
                              for _ in range(3)))
    a = A.element(list(data.draw(st.sampled_from(
        (ex.m_axis, ex.j_axis, ex.third))).coords))
    law = data.draw(st.sampled_from((ex.m_law, ex.j_law)))
    basis = verify_axis(A, a, law)
    if basis.inverse is None:
        with pytest.raises(NotSemisimple):
            basis.miyamoto
        return
    assert [(v.lam, v.mu, v.witness) for v in basis.fusion_violations] \
        == reference_violations(basis)
    # the Miyamoto map by hand: +1 on even, -1 on odd eigenvectors
    signs = find_c2_grading(law).signs
    by_hand = LinearMap.from_pairs(A, A, [
        (v, -v if signs[k] == ODD else v)
        for v, k in zip(basis.vectors, basis.owner)])
    if is_automorphism(A, by_hand):
        assert basis.miyamoto == by_hand
    else:
        with pytest.raises(NotSemisimple, match="not an automorphism"):
            basis.miyamoto


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_a_jordan_axis_is_a_monster_axis_with_no_beta_part(data):
    # the reading of q's Jordan type in dichotomy_check
    examples = skew_examples(data.draw(st.sampled_from((0, 5, 7))))
    ex = data.draw(st.sampled_from(examples))
    A = ex.algebra
    if data.draw(st.booleans()):
        A = ps.perturbed(A, *(data.draw(st.integers(0, A.dim - 1))
                              for _ in range(3)))
    q = A.element(list(data.draw(st.sampled_from(
        ex.algebra.basis() + [ex.m_axis, ex.j_axis, ex.third])).coords))
    jordan = verify_axis(A, q, ex.j_law)
    monster = verify_axis(A, q, ex.m_law)
    no_beta = not monster.eigenspace(ex.beta)
    assert jordan.passed == (monster.passed and no_beta)
    if no_beta:
        assert jordan.fusion_violations == monster.fusion_violations
        assert jordan.is_primitive == monster.is_primitive


def test_axis_and_isomorphism_checks_encode_each_matrix_once(monkeypatch):
    ex = make_Q2_skew(QQ)
    iso = orthogonal_branch_to_Q2()
    calls = {"mat_mul": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted
    for name in calls:
        monkeypatch.setattr(linalg, name, counting(name, getattr(linalg, name)))
    tau = verify_axis(ex.algebra, ex.m_axis, ex.m_law).miyamoto
    assert check_linear_map_is_isomorphism(iso)
    counts = dict(calls)
    assert tau(ex.j_axis) == ex.third
    # one mat_mul each for the eigenbasis table, the map and the check
    assert counts["mat_mul"] <= 3
