"""The algebra collection: every constructor, coefficient-exactly."""

from fractions import Fraction

import pytest

from axetlab.algebra import check_linear_map_is_isomorphism
from axetlab.axes import verify_axis
from axetlab.catalog import (BadCharacteristic, SkewConstants, make_2B,
                             make_3C, make_3C_minus1_2, make_3C_skew,
                             make_3Cx_minus1, make_generic_skew,
                             make_orthogonal_branch, make_Q2_skew,
                             make_Q2_third, make_Q2x, make_Q2x_plus_one,
                             make_Q2x_via_radical, rehren_oracle,
                             skew_examples)
from axetlab.fusion import DegenerateParameter
from axetlab.scalars import QQ, PrimeField, skew_field

F5 = PrimeField(5)
THIRD = Fraction(1, 3)


def test_2B():
    A = make_2B()
    a, b = A.basis()
    assert a * a == a
    assert b * b == b
    assert (a * b).is_zero()


def test_3C_products():
    alpha = Fraction(1, 4)
    A = make_3C(alpha)
    x, y, z = A.basis()
    h = alpha / 2
    assert x * y == h * (x + y - z)
    assert x * z == h * (x + z - y)
    assert y * z == h * (y + z - x)
    assert x * x == x


def test_3C_rejects_degenerate_alpha():
    for alpha in (0, 1):
        with pytest.raises(DegenerateParameter):
            make_3C(alpha)


def test_3C_identity():
    alpha = Fraction(1, 4)
    A = make_3C(alpha)
    one = A.find_identity()
    x, y, z = A.basis()
    assert one == (x + y + z) / (alpha + 1)


def test_3C_minus1_has_no_identity():
    assert make_3C(-1).find_identity() is None


def test_3Cx_minus1():
    A = make_3Cx_minus1()
    y, z = A.basis()
    assert y * z == -y - z
    assert y * y == y


def test_3C_skew_fields_and_rejections():
    ex = make_3C_skew(Fraction(1, 4))
    assert ex.label == "3C(1/4,3/4)"
    assert ex.alpha + ex.beta == 1
    for alpha in (0, 1, Fraction(1, 2), -1):
        with pytest.raises(DegenerateParameter):
            make_3C_skew(alpha)


def test_3C_skew_axes_verify():
    ex = make_3C_skew(Fraction(1, 4))
    assert verify_axis(ex.algebra, ex.m_axis, ex.m_law).passed
    assert verify_axis(ex.algebra, ex.j_axis, ex.j_law).passed
    assert verify_axis(ex.algebra, ex.third, ex.j_law).passed


def test_3C_skew_displayed_product():
    for alpha in (Fraction(1, 4), Fraction(2), Fraction(-2)):
        ex = make_3C_skew(alpha)
        A = ex.algebra
        w, y, z = ex.m_axis, ex.j_axis, ex.third
        assert w * y == (alpha + 1) / 2 * w + (1 - alpha) / 2 * (y - z)


def test_3C_minus1_2_products():
    ex = make_3C_minus1_2()
    A = ex.algebra
    u, v = A.gen("u"), A.gen("v")
    w, y, z = ex.m_axis, ex.j_axis, ex.third
    assert w * y == v - u
    assert y * (u - v) == u - w
    assert y * z == -y - z
    assert ex.label == "3C(-1,2)"


def test_Q2_third_table():
    A = make_Q2_third()
    s1, s2, d1, d2 = A.basis()
    sixth = Fraction(1, 6)
    assert (s1 * s2).is_zero()
    assert s1 * d1 == THIRD * s1 + sixth * d1 - sixth * d2
    assert s1 * d2 == THIRD * s1 - sixth * d1 + sixth * d2
    assert s2 * d1 == THIRD * s2 + sixth * d1 - sixth * d2
    assert s2 * d2 == THIRD * s2 - sixth * d1 + sixth * d2
    assert d1 * d2 == -THIRD * (s1 + s2) + THIRD * (d1 + d2)
    for b in A.basis():
        assert b * b == b


def test_Q2_third_rejects_characteristic_3():
    with pytest.raises(BadCharacteristic):
        make_Q2_third(PrimeField(3))


def test_Q2_skew_displayed_products():
    ex = make_Q2_skew()
    A = ex.algebra
    s1, s2 = A.gen("s1"), A.gen("s2")
    t1 = ex.m_axis
    one = A.find_identity()
    t2 = one - A.gen("d2")
    sixth = Fraction(1, 6)
    assert s1 * t1 == Fraction(2, 3) * s1 + sixth * t1 - sixth * t2
    assert t1 * t2 == Fraction(2, 3) * (s1 + s2) - THIRD * (t1 + t2)
    assert ex.label == "Q2(1/3,2/3)"


def test_Q2_skew_rejects_characteristic_5():
    with pytest.raises(BadCharacteristic):
        make_Q2_skew(PrimeField(5))


def test_Q2x_table():
    A = make_Q2x()
    x, y, z = A.basis()
    assert (x * y).is_zero()
    assert x * z == A.element({"x": 3, "y": 1, "z": 2})
    assert y * z == A.element({"x": 1, "y": 3, "z": 2})
    assert A.find_identity() is None


def test_Q2x_requires_characteristic_5():
    with pytest.raises(BadCharacteristic):
        make_Q2x(QQ)


def test_Q2x_via_radical_matches_direct_table():
    assert make_Q2x_via_radical().same_table(make_Q2x())


def test_Q2x_plus_one():
    ex = make_Q2x_plus_one()
    A = ex.algebra
    assert A.basis_names == ("x", "y", "z", "one")
    one = A.gen("one")
    assert A.find_identity() == one
    w, x, y = ex.m_axis, ex.j_axis, ex.third
    # wx = 3x + 4y + 3z and wy = 4x + 3y + 3z over F_5
    assert w * x == A.element({"x": 3, "y": 4, "z": 3})
    assert w * y == A.element({"x": 4, "y": 3, "z": 3})
    assert ex.label == "Q2(1/3)^x + one"


def test_skew_examples_char0():
    labels = [ex.label for ex in skew_examples(0)]
    assert labels == ["3C(1/4,3/4)", "3C(-1,2)", "Q2(1/3,2/3)"]
    for ex in skew_examples(0):
        assert ex.alpha + ex.beta == 1
        assert verify_axis(ex.algebra, ex.m_axis, ex.m_law).passed
        assert verify_axis(ex.algebra, ex.j_axis, ex.j_law).passed


def test_skew_examples_char5():
    # 1/4 = -1 over F_5, so the 3C(1/4, 3/4) pair degenerates there
    labels = [ex.label for ex in skew_examples(5)]
    assert labels == ["3C(-1,2)", "Q2(1/3)^x + one"]
    for ex in skew_examples(5):
        assert ex.alpha + ex.beta == F5.one
        assert verify_axis(ex.algebra, ex.m_axis, ex.m_law).passed
        assert verify_axis(ex.algebra, ex.j_axis, ex.j_law).passed


def test_orthogonal_branch_table():
    ex = make_orthogonal_branch()
    A = ex.algebra
    b, c, a, f = A.basis()
    sixth = Fraction(1, 6)
    two_thirds = Fraction(2, 3)
    assert (b * c).is_zero()
    assert b * a == two_thirds * b + sixth * a - sixth * f
    assert b * f == two_thirds * b - sixth * a + sixth * f
    assert c * a == two_thirds * c + sixth * a - sixth * f
    assert c * f == two_thirds * c - sixth * a + sixth * f
    assert a * f == two_thirds * (b + c) - THIRD * (a + f)
    for v in A.basis():
        assert v * v == v


def test_orthogonal_branch_axes():
    ex = make_orthogonal_branch()
    assert verify_axis(ex.algebra, ex.m_axis, ex.m_law).passed
    assert verify_axis(ex.algebra, ex.j_axis, ex.j_law).passed


# -- the generic constants and algebra ---------------------------------------

def test_constant_chain_first_axis():
    c = SkewConstants.generic()
    assert (c.alpha - 1) * c.gamma == c.eps + c.alpha * c.beta
    assert c.eps + c.alpha * c.beta == c.delta + c.beta ** 2


def test_constant_chain_second_axis():
    c = SkewConstants.generic()
    assert (c.alpha - 1) * c.gammaf == c.epsf + c.alpha * c.beta
    assert c.epsf + c.alpha * c.beta == c.deltaf + c.beta ** 2


def test_generic_skew_products():
    c = SkewConstants.generic()
    A = make_generic_skew(c)
    a, b, cc, s = A.basis()
    assert a * b == c.beta * (a + b) + s
    assert a * s == c.delta * a \
        + Fraction(1, 2) * c.beta * (c.alpha - c.beta) * (b + cc) \
        + (c.alpha - c.beta) * s
    assert b * cc == c.P * a + (c.P / c.beta) * s
    assert b * s == c.beta * (c.alpha - c.beta) * a + c.deltaf * b \
        + (c.alpha - c.beta) * s
    assert s * s == c.zeta * a + c.theta * (b + cc) + c.kappa * s


def test_generic_skew_sigma_definition():
    c = SkewConstants.generic()
    A = make_generic_skew(c)
    a, b, _, s = A.basis()
    assert a * b - c.beta * (a + b) == s


def test_substitute_and_evaluate():
    field = skew_field()
    c = SkewConstants.generic()
    point = {"alpha": Fraction(1, 3), "beta": Fraction(2, 3),
             "l1": Fraction(5, 12), "l1f": Fraction(2, 3),
             "l2f": Fraction(0), "zeta": Fraction(5, 18),
             "theta": Fraction(1, 9), "kappa": Fraction(1, 6)}
    value = c.P.evaluate(point, QQ)
    assert value == 0
    sub = c.substitute({"l1f": field.sym("beta")})
    assert sub.gammaf == field.zero


DERIVED = ("gamma", "eps", "delta", "gammaf", "epsf", "deltaf", "P", "Q")


def test_generic_constants_are_one_shared_instance():
    assert SkewConstants.generic() is SkewConstants.generic()


def test_shared_generic_constants_match_a_fresh_instance():
    f = skew_field()
    shared = SkewConstants.generic()
    fresh = SkewConstants(*[f.sym(n) for n in f.names])
    assert fresh is not shared
    for name in DERIVED:
        a, b = getattr(shared, name), getattr(fresh, name)
        assert (a.num.terms, a.den.terms) == (b.num.terms, b.den.terms)


def test_one_suite_derives_the_generic_P_and_Q_once(monkeypatch):
    from axetlab.papersuite import run_suite
    f = skew_field()
    symbols = [f.sym(n) for n in f.names]
    counts = {"P": 0, "Q": 0}
    for name in counts:
        prop = SkewConstants.__dict__[name]
        derive = prop.func

        def counted(c, derive=derive, name=name):
            if [getattr(c, n) for n in f.names] == symbols:
                counts[name] += 1
            return derive(c)

        monkeypatch.setattr(prop, "func", counted)
    SkewConstants.generic.cache_clear()
    run_suite(0)
    assert counts == {"P": 1, "Q": 1}


def test_generic_skew_rejects_collapsed_parameters():
    c = SkewConstants.generic()
    collapsed = c.substitute({"alpha": skew_field().sym("beta")})
    with pytest.raises(DegenerateParameter):
        make_generic_skew(collapsed)


def test_orthogonal_branch_isomorphisms():
    from axetlab.catalog import (orthogonal_branch_to_Q2,
                                 orthogonal_branch_to_Q2x_plus_one)
    assert check_linear_map_is_isomorphism(orthogonal_branch_to_Q2())
    assert check_linear_map_is_isomorphism(
        orthogonal_branch_to_Q2x_plus_one())


def test_rehren_oracle():
    assert rehren_oracle(Fraction(1, 4), Fraction(3, 4)) \
        == ("2B", "3C(1/4,3/4)")
    assert rehren_oracle(2, -1) == ("2B", "3C(-1,2)")
    assert rehren_oracle(THIRD, Fraction(1, 2)) == ("2B",)
    with pytest.raises(DegenerateParameter):
        rehren_oracle(THIRD, THIRD)
    with pytest.raises(DegenerateParameter):
        rehren_oracle(0, THIRD)
