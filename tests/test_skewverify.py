"""The symbolic relation calculus and the classification replay."""

from fractions import Fraction

import pytest

from axetlab import papersuite, skewverify
from axetlab.algebra import StructureAlgebra
from axetlab.catalog import (SkewConstants, make_2B, make_3C, make_3C_skew,
                             make_generic_skew, make_Q2_skew, make_Q2_third,
                             make_Q2x_plus_one)
from axetlab.fusion import make_jordan, make_monster
from axetlab.scalars import QQ, MultiPoly, PrimeField, skew_field, \
    solve_linear
from axetlab.skewverify import (ContradictionNotFound, IdentityFails,
                                NoMatch, beta_component,
                                check_bracket_table, check_constant_chains,
                                check_eigenvectors_generic,
                                check_flip_symmetry,
                                check_projection_relation,
                                check_seress_relation_u,
                                check_seress_relation_v,
                                check_shift_expansion, check_shifted_pair,
                                dichotomy_check, generic_context,
                                projection_on_b, proof2_expression,
                                replay_nonorthogonal_branch,
                                replay_orthogonal_branch,
                                shift_difference_at)

THIRD = Fraction(1, 3)
TWO_THIRDS = Fraction(2, 3)


def test_generic_context_shape():
    c, A = generic_context()
    assert A.basis_names == ("a", "b", "c", "sigma")
    assert A.dim == 4


def test_all_symbolic_checks_pass():
    context = generic_context()
    for check in (check_eigenvectors_generic, check_constant_chains,
                  check_bracket_table, check_projection_relation,
                  check_seress_relation_u, check_seress_relation_v,
                  check_shifted_pair, check_flip_symmetry,
                  check_shift_expansion):
        result = check() if check in (check_constant_chains,
                                      check_flip_symmetry) \
            else check(context)
        assert result.passed, result.name


def test_beta_component_reads_the_b_minus_c_coordinate():
    _, A = generic_context()
    a, b, cc, s = A.basis()
    assert beta_component(b) == A.field.one
    assert beta_component(cc) == -A.field.one
    assert beta_component(a + s) == A.field.zero
    assert beta_component(3 * b - 2 * cc) == A.field.coerce(5)


def test_projection_on_b_values():
    c, A = generic_context()
    a, b, cc, _ = A.basis()
    assert projection_on_b(A, c, a) == c.l1f
    assert projection_on_b(A, c, b) == A.field.one
    assert projection_on_b(A, c, cc) == -(c.P / c.beta) * c.gammaf


def test_proof2_expression_is_the_displayed_combination():
    c = SkewConstants.generic()
    ab = c.alpha - c.beta
    want = (-c.beta ** 2 * ab - c.beta * c.delta
            + Fraction(1, 2) * c.beta * ab
            - (c.alpha - 2 * c.beta) * c.deltaf)
    assert proof2_expression(c) == want


def test_perturbed_table_fails_eigenvector_check():
    c, A = generic_context()
    A = papersuite.perturbed(A, 0, 3, 0)
    with pytest.raises(IdentityFails) as info:
        check_eigenvectors_generic((c, A))
    assert "eigenvector" in info.value.name


def test_perturbed_table_fails_bracket_table():
    c, A = generic_context()
    A = papersuite.perturbed(A, 1, 3, 1)
    with pytest.raises(IdentityFails) as info:
        check_bracket_table((c, A))
    assert "beta component" in info.value.name


def test_a_large_failing_identity_has_a_short_message():
    c, A = generic_context()
    F = A.field
    big = sum(F.symbols().values(), F.one) ** 4 / (F.sym("alpha") - 3)
    A = papersuite.perturbed(A, 0, 3, 0, delta=big)
    with pytest.raises(IdentityFails) as info:
        check_eigenvectors_generic((c, A))
    message = str(info.value)
    assert len(message.encode()) < 1024
    assert "nonzero residual (Element of" in message
    assert "num 495 terms of total degree 4" in message
    assert "den 2 terms of total degree 1" in message
    # the full value stays on the exception
    assert len(repr(info.value.residual)) > 1024
    assert sum(map(bool, info.value.residual.coords)) == 1
    # a short residual keeps its text
    with pytest.raises(IdentityFails, match="nonzero residual alpha - 3$"):
        skewverify._require_zero("short", F.sym("alpha") - 3)


def test_shift_difference_values():
    assert shift_difference_at(THIRD, TWO_THIRDS, Fraction(5, 12),
                               TWO_THIRDS) == 0
    assert shift_difference_at(2, 5, 7, 11) != 0


def test_orthogonal_replay_char0():
    report = replay_orthogonal_branch(0)
    assert report.outcome == "Q2(1/3,2/3)"
    assert any("(alpha, beta, l1, l1f) = (1/3, 2/3, 5/12, 2/3)" in s
               for s in report.constraints)
    assert any("l1 = (beta + 1)/4" in s for s in report.constraints)
    assert any("(5/18, 1/9, 1/6)" in s for s in report.constraints)


def test_orthogonal_replay_stores_l1_in_lowest_terms(monkeypatch):
    # solve_linear cancels -a0/a1: the u obstruction gives
    # l1 = (beta^2 + beta)/(4 beta), stored as (beta + 1)/4
    solved = {}

    def recorded(expr, name):
        solved[name] = solve_linear(expr, name)
        return solved[name]

    monkeypatch.setattr(skewverify, "solve_linear", recorded)
    replay_orthogonal_branch(0)
    l1, names = solved["l1"], skew_field().names
    assert l1.num == MultiPoly.variable(names, "beta") + 1
    assert l1.den.terms == MultiPoly.constant(names, 4).terms


def test_orthogonal_replay_char5():
    report = replay_orthogonal_branch(5)
    assert report.outcome == "Q2(1/3)^x + one"


def _replay_with_shifted_generic(monkeypatch, char, i, j, k):
    # every generic algebra the replay builds gets one constant shifted
    def shifted(constants):
        return papersuite.perturbed(make_generic_skew(constants), i, j, k)

    monkeypatch.setattr(skewverify, "make_generic_skew", shifted)
    with pytest.raises(ContradictionNotFound) as info:
        replay_orthogonal_branch(char)
    return str(info.value)


@pytest.mark.parametrize("char", [0, 5])
def test_unequal_b_and_c_in_a_sigma_leave_f_squared_unsolvable(
        monkeypatch, char):
    message = _replay_with_shifted_generic(monkeypatch, char, 0, 3, 1)
    assert message == "f^2 = f is solvable in zeta, theta, kappa"


@pytest.mark.parametrize("char", [0, 5])
def test_shifted_sigma_squared_fails_the_rebuilt_table(monkeypatch, char):
    # f^2 = f reads sigma^2 from a^2 and a sigma alone, so a wrong
    # sigma^2 row passes the solvability check and fails the rebuilt table
    message = _replay_with_shifted_generic(monkeypatch, char, 3, 3, 2)
    assert message == "rebuilt table matches the orthogonal branch table"


def test_orthogonal_replay_builds_two_generic_algebras(monkeypatch):
    calls = []

    def counted(constants):
        calls.append(constants)
        return make_generic_skew(constants)

    def no_solve(*args):
        raise AssertionError("the replay solved a linear system")

    monkeypatch.setattr(skewverify, "make_generic_skew", counted)
    monkeypatch.setattr(skewverify.linalg, "solve", no_solve)
    replay_orthogonal_branch(0)
    assert len(calls) == 2


def test_nonorthogonal_replay_outcomes():
    reports = replay_nonorthogonal_branch()
    assert [r.outcome for r in reports] == [
        "contradiction", "contradiction", "3C(-1,2)",
        "3C(alpha,1-alpha) for alpha != -1"]
    assert reports[0].witness == "c = -b gives c^2 - c = 2b != 0"
    assert reports[3].witness == "residual (alpha-1)P/2"
    for r in reports:
        assert r.constraints


def test_dichotomy_fixed_pair_is_jordan():
    A = make_2B()
    law = make_monster(THIRD, TWO_THIRDS)
    kind, label = dichotomy_check(A, A.gen("a"), A.gen("b"), law)
    assert (kind, label) == ("jordan", "J(1/3)")


def test_dichotomy_skew_pairs():
    ex = make_Q2_skew()
    kind, label = dichotomy_check(ex.algebra, ex.m_axis, ex.j_axis,
                                  ex.m_law, ex.j_law)
    assert (kind, label) == ("skew", "Q2(1/3,2/3)")

    ex = make_3C_skew(Fraction(1, 4))
    kind, label = dichotomy_check(ex.algebra, ex.m_axis, ex.j_axis,
                                  ex.m_law, ex.j_law)
    assert (kind, label) == ("skew", "3C(1/4,3/4)")


def test_dichotomy_verifies_each_axis_once_on_the_swapped_branch(
        monkeypatch):
    # p once and q once, both under the M law; q's Jordan type is read
    # from its M-law eigenbasis
    ex = make_3C_skew(Fraction(1, 4))
    verify_axis = skewverify.verify_axis
    calls = []

    def counted(A, a, law):
        calls.append((a, law))
        return verify_axis(A, a, law)
    monkeypatch.setattr(skewverify, "verify_axis", counted)
    kind, label = dichotomy_check(ex.algebra, ex.m_axis, ex.j_axis,
                                  ex.m_law, ex.j_law)
    assert (kind, label) == ("skew", "3C(1/4,3/4)")
    assert calls == [(ex.m_axis, ex.m_law), (ex.j_axis, ex.m_law)]


@pytest.mark.parametrize("branch", ["fixed", "swapped"])
def test_dichotomy_computes_one_adjoint_per_axis(monkeypatch, branch):
    if branch == "fixed":
        A = make_2B()
        args = (A, A.gen("a"), A.gen("b"), make_monster(THIRD, TWO_THIRDS),
                make_jordan(THIRD))
        want = ("jordan", "J(1/3)")
    else:
        ex = make_Q2_skew()
        args = (ex.algebra, ex.m_axis, ex.j_axis, ex.m_law, ex.j_law)
        want = ("skew", "Q2(1/3,2/3)")
    # over Q and F_p ad_a is built on the ring encoding, by encoded_adjoint
    calls = []
    for name in ("adjoint", "encoded_adjoint"):
        def counted(A, a, build=getattr(StructureAlgebra, name)):
            calls.append(a)
            return build(A, a)
        monkeypatch.setattr(StructureAlgebra, name, counted)
    assert dichotomy_check(*args) == want
    assert calls == [args[1], args[2]]


def test_dichotomy_checks_q_on_both_branches():
    # tau_a fixes 0 and 2b in 2B, so these reach the fixed branch
    A = make_2B()
    law = make_monster(THIRD, TWO_THIRDS)
    for q in (A.zero, 2 * A.gen("b")):
        with pytest.raises(NoMatch, match="q is not an axis"):
            dichotomy_check(A, A.gen("a"), q, law)
    # 2 s1 is not idempotent; d1 swaps s1 and s2, the swapped branch
    A = make_Q2_third()
    with pytest.raises(NoMatch, match="q is not an axis"):
        dichotomy_check(A, A.gen("d1"), 2 * A.gen("s1"),
                        make_monster(TWO_THIRDS, THIRD))


def test_dichotomy_rejects_a_q_law_other_than_j_alpha():
    ex = make_Q2_skew()
    for j_law in (make_jordan(TWO_THIRDS), ex.m_law,
                  make_monster(THIRD, Fraction(1, 5))):
        with pytest.raises(NoMatch, match=r"stated law is not J\(1/3\)"):
            dichotomy_check(ex.algebra, ex.m_axis, ex.j_axis, ex.m_law,
                            j_law)


def test_dichotomy_rejects_a_q_with_a_beta_part_under_j_law():
    # q = d1 passes M(2/3, 1/3) with a 1/3 eigenspace, so not J(2/3)
    A = make_Q2_third()
    with pytest.raises(NoMatch, match="its stated law"):
        dichotomy_check(A, A.gen("d2"), A.gen("d1"),
                        make_monster(TWO_THIRDS, THIRD),
                        make_jordan(TWO_THIRDS))


def test_dichotomy_char5():
    ex = make_Q2x_plus_one()
    kind, label = dichotomy_check(ex.algebra, ex.m_axis, ex.j_axis,
                                  ex.m_law, ex.j_law)
    assert (kind, label) == ("skew", "Q2(1/3)^x + one")


def test_dichotomy_rejects_non_axes():
    A = make_2B()
    law = make_monster(THIRD, TWO_THIRDS)
    with pytest.raises(NoMatch):
        dichotomy_check(A, A.gen("a") + A.gen("b"), A.gen("b"), law)


def test_dichotomy_needs_a_monster_law_for_p():
    A = make_3C(Fraction(1, 4))
    with pytest.raises(NoMatch, match="not a Monster law"):
        dichotomy_check(A, A.gen("x"), A.gen("y"),
                        make_jordan(Fraction(1, 4)))


def test_dichotomy_lets_programming_errors_through(monkeypatch):
    # only DimensionMismatch means "this candidate does not match"
    def broken(source, target, pairs):
        raise TypeError("broken from_pairs")
    monkeypatch.setattr(skewverify.LinearMap, "from_pairs", broken)
    ex = make_3C_skew(Fraction(1, 4))
    with pytest.raises(TypeError, match="broken from_pairs"):
        dichotomy_check(ex.algebra, ex.m_axis, ex.j_axis, ex.m_law)


def test_dichotomy_rejects_larger_orbits():
    # d1 and s1 in Q2(1/3) generate the four-point square, not the triple
    A = make_Q2_third()
    law = make_monster(TWO_THIRDS, THIRD)
    with pytest.raises(NoMatch) as info:
        dichotomy_check(A, A.gen("d1"), A.gen("s1"), law)
    assert "X(4)" in str(info.value)


def test_replay_rejects_unsupported_characteristic():
    with pytest.raises(Exception):
        replay_orthogonal_branch(3)


@pytest.mark.parametrize("check, bound", [
    (skewverify.check_projection_relation, 170),
    (skewverify.check_seress_relation_v, 353),
    (skewverify.check_shift_expansion, 13)],
    ids=["projection-relation", "seress-relation-v", "shift-expansion"])
def test_relation_checks_make_few_polynomial_products(monkeypatch, check,
                                                      bound):
    # the bounds are the counts on the generic algebra: first-nonzero
    # pivots over Z[x] in decompose_over_b make 196 and 360, and
    # shift-expansion made 117 while its l2f substitutions ran the term loop
    context = skewverify.generic_context()
    check(context)  # derives the shared generic constants first
    calls = count_products(monkeypatch)
    check(context)
    assert len(calls) <= bound


def count_products(monkeypatch):
    """A list that gains an entry at each MultiPoly product from now on."""
    calls = []
    mul = MultiPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    monkeypatch.setattr(MultiPoly, "__rmul__", counted)
    return calls


def test_substituting_constants_makes_no_polynomial_product(monkeypatch):
    c = SkewConstants.generic()
    P, Q = c.P, c.Q  # derived before counting
    one = skew_field().one
    calls = count_products(monkeypatch)
    for sub in ({"alpha": Fraction(1, 3), "beta": Fraction(2, 3)},
                {"l2f": one}, {"l2f": 0},
                {"alpha": -1, "beta": Fraction(2, 7), "l2f": Fraction(5, 12)}):
        for f in (P, Q):
            f.substitute(sub)
    assert not calls


def test_substituting_symbols_makes_few_polynomial_products(monkeypatch):
    # the bound is the count of the l1, l1f swap: a coefficient times each
    # power it meets; substituting term by term made 53 for either
    field = skew_field()
    Q = SkewConstants.generic().Q  # derived before counting
    calls = count_products(monkeypatch)
    for sub in ({"l1f": field.sym("beta")},
                {"l1": field.sym("l1f"), "l1f": field.sym("l1")}):
        before = len(calls)
        Q.substitute(sub)
        assert len(calls) - before <= 16
