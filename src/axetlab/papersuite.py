"""The full reproduction suite behind the paper-suite command.

Every multiplication table is checked against an expected-value copy
frozen here, independent of the constructors in catalog, so a mutation
on either side is caught.  Checks are named, deterministic, and gated by
characteristic (0 or 5).
"""

import json
from dataclasses import dataclass
from fractions import Fraction

from . import skewverify
from .algebra import LinearMap, StructureAlgebra, \
    check_linear_map_is_isomorphism
from .axes import Eigenbasis, miyamoto, verify_axis
from .axets import AbstractAxet, classify_shape, closure, odd_subaxet, \
    realize_axet
from .catalog import (make_2B, make_3C, make_3C_minus1_2, make_3C_skew,
                      make_3Cx_minus1, make_orthogonal_branch, make_Q2_skew,
                      make_Q2_third, make_Q2x, make_Q2x_plus_one,
                      make_Q2x_via_radical, rehren_oracle, skew_examples)
from .fusion import make_jordan, make_monster
from .scalars import QQ, FunctionField, PrimeField

half = Fraction(1, 2)
third = Fraction(1, 3)
sixth = Fraction(1, 6)

# expected tables, transcribed directly; missing pairs are zero
Q2_THIRD_EXPECTED = {
    ("s1", "s1"): {"s1": 1},
    ("s2", "s2"): {"s2": 1},
    ("d1", "d1"): {"d1": 1},
    ("d2", "d2"): {"d2": 1},
    ("s1", "s2"): {},
    ("s1", "d1"): {"s1": third, "d1": sixth, "d2": -sixth},
    ("s1", "d2"): {"s1": third, "d1": -sixth, "d2": sixth},
    ("s2", "d1"): {"s2": third, "d1": sixth, "d2": -sixth},
    ("s2", "d2"): {"s2": third, "d1": -sixth, "d2": sixth},
    ("d1", "d2"): {"s1": -third, "s2": -third, "d1": third, "d2": third},
}

Q2X_PLUS_ONE_EXPECTED = {
    ("x", "x"): {"x": 1},
    ("y", "y"): {"y": 1},
    ("z", "z"): {"z": 1},
    ("x", "y"): {},
    ("x", "z"): {"x": 3, "y": 1, "z": 2},
    ("y", "z"): {"x": 1, "y": 3, "z": 2},
    ("one", "x"): {"x": 1},
    ("one", "y"): {"y": 1},
    ("one", "z"): {"z": 1},
    ("one", "one"): {"one": 1},
}

ORTHOGONAL_BRANCH_EXPECTED = {
    ("b", "b"): {"b": 1},
    ("c", "c"): {"c": 1},
    ("a", "a"): {"a": 1},
    ("f", "f"): {"f": 1},
    ("b", "c"): {},
    ("b", "a"): {"b": 2 * third, "a": sixth, "f": -sixth},
    ("b", "f"): {"b": 2 * third, "a": -sixth, "f": sixth},
    ("c", "a"): {"c": 2 * third, "a": sixth, "f": -sixth},
    ("c", "f"): {"c": 2 * third, "a": -sixth, "f": sixth},
    ("a", "f"): {"b": 2 * third, "c": 2 * third, "a": -third, "f": -third},
}


def table_mismatches(algebra, expected):
    """Entries of the algebra's table that differ from the expected one.

    Expected is keyed by unordered basis-name pairs; missing pairs mean
    the zero vector.  Returns a list of human-readable strings, empty
    when the tables agree coefficient-exactly.
    """
    names = algebra.basis_names
    want = StructureAlgebra.from_table(algebra.field, names, expected)
    return ["(%s, %s)" % (names[i], names[j])
            for i in range(algebra.dim) for j in range(i, algebra.dim)
            if algebra.products[i][j] != want.products[i][j]]


def perturbed(algebra, i, j, k, delta=1):
    """A copy of the algebra with one structure constant shifted."""
    products = {}
    for a in range(algebra.dim):
        for b in range(a, algebra.dim):
            products[(a, b)] = list(algebra.products[a][b])
    products[(min(i, j), max(i, j))][k] = \
        products[(min(i, j), max(i, j))][k] + algebra.field.coerce(delta)
    return StructureAlgebra(algebra.field, algebra.basis_names, products)


def _result(name, detail=""):
    return skewverify.CheckResult(name, True, detail)


def _is_eigvec(A, axis, lam, v, what):
    if v.is_zero():
        raise skewverify.IdentityFails(what + " (zero vector)", v)
    r = axis * v - lam * v
    if not r.is_zero():
        raise skewverify.IdentityFails(what, r)


# -- table fidelity -----------------------------------------------------------

def check_table_Q2_third():
    bad = table_mismatches(make_Q2_third(QQ), Q2_THIRD_EXPECTED)
    if bad:
        raise skewverify.IdentityFails("swapped-pair table entries", bad)
    return _result("table-Q2-third", "10 pair entries")


def check_table_Q2x_plus_one():
    bad = table_mismatches(make_Q2x_plus_one().algebra, Q2X_PLUS_ONE_EXPECTED)
    if bad:
        raise skewverify.IdentityFails("adjoined-identity table entries", bad)
    return _result("table-Q2x-plus-one", "10 pair entries over F_5")


def check_table_orthogonal():
    bad = table_mismatches(make_orthogonal_branch(QQ).algebra,
                           ORTHOGONAL_BRANCH_EXPECTED)
    if bad:
        raise skewverify.IdentityFails("orthogonal-branch table entries", bad)
    return _result("table-orthogonal-branch", "10 pair entries")


# -- displayed products -------------------------------------------------------

def _check_3C_products_at(alpha, field=None):
    ex = make_3C_skew(alpha, field) if field else make_3C_skew(alpha)
    A = ex.algebra
    w = ex.m_axis
    y, z = A.gen("y"), A.gen("z")
    a = ex.alpha
    want = ((a + 1) / 2) * w + ((1 - a) / 2) * (y - z)
    if w * y != want:
        raise skewverify.IdentityFails("w y in 3C(%s, 1-%s)" % (a, a),
                                       w * y - want)
    decomposition = (a / 2) * A.gen("x") + ((a + 1) / 2) * w + half * (y - z)
    if y != decomposition:
        raise skewverify.IdentityFails("expansion of y in 3C(%s, 1-%s)"
                                       % (a, a), y - decomposition)


def check_products_3C():
    for alpha in (Fraction(1, 4), Fraction(2), Fraction(-2)):
        _check_3C_products_at(alpha)
    symbolic = FunctionField(("alpha",))
    _check_3C_products_at(symbolic.sym("alpha"), symbolic)
    return _result("products-3C",
                   "w y at alpha = 1/4, 2, -2 and symbolically")


def check_products_3C_minus1_2():
    ex = make_3C_minus1_2(QQ)
    A = ex.algebra
    u, v, w = A.basis()
    y, z = ex.j_axis, ex.third
    if w * y != v - u:
        raise skewverify.IdentityFails("w y = v - u", w * y - (v - u))
    if y * (u - v) != u - w:
        raise skewverify.IdentityFails("y(u - v) = u - w",
                                       y * (u - v) - (u - w))
    if y * z != -(y + z):
        raise skewverify.IdentityFails("y z = -(y + z)", y * z + y + z)
    return _result("products-3C-minus1-2", "w y, y(u-v), y z")


def check_products_Q2_skew():
    ex = make_Q2_skew(QQ)
    A = ex.algebra
    s1, s2 = A.gen("s1"), A.gen("s2")
    one = A.find_identity()
    t1 = one - A.gen("d1")
    t2 = one - A.gen("d2")
    if ex.m_axis != t1:
        raise skewverify.IdentityFails("distinguished axis is one - d1",
                                       ex.m_axis - t1)
    want = 2 * third * s1 + sixth * t1 - sixth * t2
    if s1 * t1 != want:
        raise skewverify.IdentityFails("s1 t1", s1 * t1 - want)
    want = 2 * third * (s1 + s2) - third * (t1 + t2)
    if t1 * t2 != want:
        raise skewverify.IdentityFails("t1 t2", t1 * t2 - want)
    return _result("products-Q2-skew", "s1 t1 and t1 t2")


def check_products_F5():
    ex = make_Q2x_plus_one()
    A = ex.algebra
    x, y, z = A.gen("x"), A.gen("y"), A.gen("z")
    w = ex.m_axis
    if w * x != A.element({"x": 3, "y": 4, "z": 3}):
        raise skewverify.IdentityFails("w x over F_5",
                                       w * x - A.element({"x": 3, "y": 4,
                                                          "z": 3}))
    if w * y != A.element({"x": 4, "y": 3, "z": 3}):
        raise skewverify.IdentityFails("w y over F_5",
                                       w * y - A.element({"x": 4, "y": 3,
                                                          "z": 3}))
    return _result("products-F5", "w x and w y")


# -- axis certification -------------------------------------------------------

def check_axes_char0():
    count = 0
    for ex in skew_examples(0):
        for axis, law, tag in ((ex.m_axis, ex.m_law, "m"),
                               (ex.j_axis, ex.j_law, "j")):
            report = verify_axis(ex.algebra, axis, law)
            if not report.passed:
                raise skewverify.IdentityFails(
                    "%s axis of %s: %s" % (tag, ex.label, report.summary()),
                    report)
            count += 1
    return _result("axes-char0", "%d axes under their stated laws" % count)


def check_axes_char5():
    ex = make_Q2x_plus_one()
    for axis, law, tag in ((ex.m_axis, ex.m_law, "m"),
                           (ex.j_axis, ex.j_law, "j")):
        report = verify_axis(ex.algebra, axis, law)
        if not report.passed:
            raise skewverify.IdentityFails(
                "%s axis of %s: %s" % (tag, ex.label, report.summary()),
                report)
    return _result("axes-char5", "2 axes under their stated laws")


def check_bullets_3C():
    field = FunctionField(("alpha",))
    alpha = field.sym("alpha")
    ex = make_3C_skew(alpha, field)
    A = ex.algebra
    w = ex.m_axis
    x, y, z = A.basis()
    _is_eigvec(A, w, field.one, w, "w in the 1 part of w")
    _is_eigvec(A, w, field.zero, x, "x in the 0 part of w")
    _is_eigvec(A, w, 1 - alpha, y - z, "y - z in the 1-alpha part of w")
    w_basis = Eigenbasis(A, w, ex.m_law)
    if w_basis.eigenspace(alpha):
        raise skewverify.IdentityFails("alpha part of w is nonzero", alpha)
    tau = w_basis.miyamoto
    if tau(y) != z or not tau.is_involution():
        raise skewverify.IdentityFails("tau_w swaps y and z", tau(y) - z)
    if not miyamoto(A, y, ex.m_law).is_identity():
        raise skewverify.IdentityFails("tau_y is the identity", y)
    return _result("bullets-3C", "symbolic eigenvector bullets over Q(alpha)")


def check_bullets_3C_minus1_2():
    ex = make_3C_minus1_2(QQ)
    A = ex.algebra
    w, y, z = ex.m_axis, ex.j_axis, ex.third
    one = A.find_identity()
    _is_eigvec(A, w, QQ.one, w, "w in the 1 part of w")
    _is_eigvec(A, w, QQ.zero, one - w, "one - w in the 0 part of w")
    if one - w != -(y + z):
        raise skewverify.IdentityFails("one - w = -(y + z)", one - w + y + z)
    _is_eigvec(A, w, Fraction(2), y - z, "y - z in the 2 part of w")
    if y != half * (y + z) + half * (y - z):
        raise skewverify.IdentityFails("expansion of y", y)
    tau = miyamoto(A, w, ex.m_law)
    if tau(y) != z or not tau.is_involution():
        raise skewverify.IdentityFails("tau_w swaps y and z", tau(y) - z)
    if not miyamoto(A, y, ex.m_law).is_identity():
        raise skewverify.IdentityFails("tau_y is the identity", y)

    # the pair algebra of y and z is the unital-quotient 3C
    span = A.subalgebra_closure([y, z])
    if len(span) != 2:
        raise skewverify.IdentityFails("pair algebra of y, z is 2-dimensional",
                                       len(span))
    target = make_3Cx_minus1(QQ)
    pair = A.span_subalgebra([y, z], ("y", "z"))
    iso = LinearMap.from_pairs(pair, target,
                               [(pair.gen("y"), target.gen("y")),
                                (pair.gen("z"), target.gen("z"))])
    if not check_linear_map_is_isomorphism(iso):
        raise skewverify.IdentityFails("pair algebra is 3C(-1)^x", iso)
    return _result("bullets-3C-minus1-2",
                   "eigenvector bullets and the 3C(-1)^x pair algebra")


def check_bullets_Q2_skew():
    ex = make_Q2_skew(QQ)
    A = ex.algebra
    t1 = ex.m_axis
    s1, s2, d1, d2 = A.basis()
    one = A.find_identity()
    t2 = one - d2
    _is_eigvec(A, t1, QQ.one, t1, "t1 in the 1 part of t1")
    _is_eigvec(A, t1, QQ.zero, d1, "d1 in the 0 part of t1")
    _is_eigvec(A, t1, third, s1 + s2 - d2, "s1+s2-d2 in the 1/3 part of t1")
    _is_eigvec(A, t1, 2 * third, s1 - s2, "s1-s2 in the 2/3 part of t1")
    want = Fraction(5, 12) * t1 + sixth * d1 + Fraction(1, 4) * (s1 + s2 - d2) \
        + half * (s1 - s2)
    if s1 != want:
        raise skewverify.IdentityFails("expansion of s1 over t1", s1 - want)
    tau = miyamoto(A, t1, ex.m_law)
    if tau(s1) != s2 or not tau.is_involution():
        raise skewverify.IdentityFails("tau_t1 swaps s1 and s2", tau(s1) - s2)
    for j_axis in (s1, s2):
        if not miyamoto(A, j_axis, ex.m_law).is_identity():
            raise skewverify.IdentityFails("tau is the identity on a "
                                           "swapped-pair axis", j_axis)
    if one - t1 != d1 or t2 != one - d2:
        raise skewverify.IdentityFails("t axes complement the d axes", one)
    return _result("bullets-Q2-skew", "eigenvector bullets for t1")


def check_bullets_F5():
    F5 = PrimeField(5)
    ex = make_Q2x_plus_one()
    A = ex.algebra
    w = ex.m_axis
    x, y, z, one = A.basis()
    _is_eigvec(A, w, F5.one, w, "w in the 1 part of w")
    _is_eigvec(A, w, F5.zero, z, "z in the 0 part of w")
    _is_eigvec(A, w, F5.coerce(third), x + y + 3 * z,
               "x+y+3z in the 1/3 part of w")
    _is_eigvec(A, w, F5.coerce(2 * third), x - y,
               "x-y in the 2/3 part of w")
    want = z + 3 * (x + y + 3 * z) + 3 * (x - y)
    if x != want:
        raise skewverify.IdentityFails("expansion of x over w", x - want)
    tau = miyamoto(A, w, ex.m_law)
    if tau(x) != y or not tau.is_involution():
        raise skewverify.IdentityFails("tau_w swaps x and y", tau(x) - y)
    # x has a two-dimensional 0 part containing y and one - x, and no
    # 2/3 part, so its involution is the identity
    _is_eigvec(A, x, F5.zero, y, "y in the 0 part of x")
    _is_eigvec(A, x, F5.zero, one - x, "one - x in the 0 part of x")
    x_basis = Eigenbasis(A, x, ex.m_law)
    if len(x_basis.eigenspace(F5.zero)) != 2:
        raise skewverify.IdentityFails("0 part of x has dimension 2", x)
    if x_basis.eigenspace(F5.coerce(2 * third)):
        raise skewverify.IdentityFails("2/3 part of x is nonzero", x)
    if not x_basis.miyamoto.is_identity():
        raise skewverify.IdentityFails("tau_x is the identity", x)

    # the quotient without the identity: axes x and z close into X(4)
    Q = make_Q2x()
    law = make_monster(F5.coerce(2 * third), F5.coerce(third))
    x3, y3, z3 = Q.basis()
    _is_eigvec(Q, z3, F5.coerce(2 * third), x3 + y3 + 3 * z3,
               "x+y+3z in the 2/3 part of z")
    _is_eigvec(Q, z3, F5.coerce(third), x3 - y3,
               "x-y in the 1/3 part of z")
    z3_basis = Eigenbasis(Q, z3, law)
    if z3_basis.eigenspace(F5.zero):
        raise skewverify.IdentityFails("0 part of z is nonzero", z3)
    _is_eigvec(Q, x3, F5.zero, y3, "y in the 0 part of x")
    _is_eigvec(Q, x3, F5.coerce(third), 3 * x3 + 3 * y3 + z3,
               "3x+3y+z in the 1/3 part of x")
    x3_basis = Eigenbasis(Q, x3, law)
    if x3_basis.eigenspace(F5.coerce(2 * third)):
        raise skewverify.IdentityFails("2/3 part of x is nonzero", x3)
    if z3_basis.miyamoto(x3) != y3:
        raise skewverify.IdentityFails("tau_z swaps x and y", z3)
    if x3_basis.miyamoto(z3) != 4 * (x3 + y3 + z3):
        raise skewverify.IdentityFails("tau_x sends z to -(x+y+z)", x3)
    return _result("bullets-F5", "eigenvector bullets over F_5")


# -- axet shapes ---------------------------------------------------------------

def _check_skew_realization(ex):
    realized = realize_axet([verify_axis(ex.algebra, ex.m_axis, ex.m_law),
                             verify_axis(ex.algebra, ex.j_axis, ex.m_law)])
    if realized.size != 3:
        raise skewverify.IdentityFails(
            "%s: expected 3 points, got %d" % (ex.label, realized.size),
            realized.size)
    if classify_shape(realized) != "Xskew(1)":
        raise skewverify.IdentityFails("%s: shape is not Xskew(1)" % ex.label,
                                       classify_shape(realized))
    if realized.perm(0) != [0, 2, 1]:
        raise skewverify.IdentityFails(
            "%s: the m involution does not transpose the other two points"
            % ex.label, realized.perm(0))
    if realized.perm(1) != [0, 1, 2] or realized.perm(2) != [0, 1, 2]:
        raise skewverify.IdentityFails(
            "%s: a j involution moves points" % ex.label, realized.perms)
    if ex.third != realized.points[2]:
        raise skewverify.IdentityFails(
            "%s: the third point is not the recorded one" % ex.label,
            ex.third)


def check_axets_char0():
    for ex in skew_examples(0):
        _check_skew_realization(ex)
    return _result("axets-char0",
                   "3-point skew realizations for the rational examples")


def check_axets_char5():
    _check_skew_realization(make_Q2x_plus_one())
    return _result("axets-char5", "3-point skew realization over F_5")


def check_axet_X4():
    F5 = PrimeField(5)
    Q = make_Q2x()
    law = make_monster(F5.coerce(2 * third), F5.coerce(third))
    realized = realize_axet([verify_axis(Q, Q.gen(n), law) for n in "xz"])
    if realized.size != 4 or classify_shape(realized) != "X(4)":
        raise skewverify.IdentityFails("axet of the quotient from {x, z}",
                                       classify_shape(realized))
    return _result("axet-X4", "4 points with the square action")


def check_abstract_closures():
    for k in range(1, 9):
        axet = AbstractAxet.skew(k)
        if axet.size != 3 * k:
            raise skewverify.IdentityFails("Xskew(%d) point count" % k,
                                           axet.size)
        pts = closure(axet, ["a0", "a1"])
        if len(pts) != 3 * k:
            raise skewverify.IdentityFails(
                "closure of {a0, a1} in Xskew(%d)" % k, len(pts))
    return _result("abstract-closures", "3k points for k = 1..8")


def check_odd_subaxets():
    for k in (3, 5, 7):
        sub = odd_subaxet(AbstractAxet.skew(k))
        if sub.size != 3 or classify_shape(sub) != "Xskew(1)":
            raise skewverify.IdentityFails("odd subaxet at k = %d" % k,
                                           classify_shape(sub))
    return _result("odd-subaxets", "Xskew(1) inside Xskew(k), k = 3, 5, 7")


# -- identity and radical facts -------------------------------------------------

def check_identity_rational():
    A = make_Q2_third(QQ)
    one = A.find_identity()
    want = Fraction(3, 5) * (A.gen("s1") + A.gen("s2")
                             + A.gen("d1") + A.gen("d2"))
    if one is None or one != want:
        raise skewverify.IdentityFails("identity of the swapped-pair algebra",
                                       one)
    return _result("identity-rational", "one = 3/5 of the basis sum")


def check_radical_F5():
    F5 = PrimeField(5)
    A = make_Q2_third(F5)
    if A.find_identity() is not None:
        raise skewverify.IdentityFails("no identity over F_5",
                                       A.find_identity())
    ann = A.annihilator()
    total = A.element([1, 1, 1, 1])
    if len(ann) != 1 or ann[0] != total:
        raise skewverify.IdentityFails("annihilator is the basis sum", ann)
    for b in A.basis():
        if not (total * b).is_zero():
            raise skewverify.IdentityFails("basis sum annihilates", b)
    return _result("radical-F5", "no identity; the basis sum annihilates")


def check_quotient_pipeline():
    direct = make_Q2x()
    via = make_Q2x_via_radical()
    if not via.same_table(direct):
        raise skewverify.IdentityFails("radical quotient table", via)
    rebuilt = via.adjoin_identity("one")
    bad = table_mismatches(rebuilt, Q2X_PLUS_ONE_EXPECTED)
    if bad:
        raise skewverify.IdentityFails("adjoined-identity pipeline", bad)
    if not rebuilt.same_table(make_Q2x_plus_one().algebra):
        raise skewverify.IdentityFails("pipeline vs direct construction",
                                       rebuilt)
    return _result("quotient-pipeline",
                   "radical quotient plus adjoined identity")


# -- classified parameters ------------------------------------------------------

def check_parameter_sum(char=0):
    labels = []
    for ex in skew_examples(char):
        field = ex.algebra.field
        if ex.alpha + ex.beta != field.one:
            raise skewverify.IdentityFails(
                "alpha + beta = 1 for %s" % ex.label, ex.alpha + ex.beta)
        labels.append(ex.label)
    return _result("parameter-sum", "alpha + beta = 1 for " +
                   ", ".join(labels))


def check_rehren_oracle():
    if rehren_oracle(Fraction(1, 4), Fraction(3, 4)) \
            != ("2B", "3C(1/4,3/4)"):
        raise skewverify.IdentityFails("pair oracle at (1/4, 3/4)", None)
    if "3C(-1,2)" not in rehren_oracle(-1, 2):
        raise skewverify.IdentityFails("pair oracle at (-1, 2)", None)
    if rehren_oracle(Fraction(1, 3), Fraction(1, 2)) != ("2B",):
        raise skewverify.IdentityFails("pair oracle away from alpha+beta=1",
                                       None)
    return _result("rehren-oracle", "admissible outcome labels")


# -- the Seress property --------------------------------------------------------

def seress_property(A, a, law):
    """a(xu) = (ax)u for every basis x and eigenbasis u of the 1, 0 parts."""
    ad = A.adjoint(a)
    fixed = A.eigenspace(ad, A.field.one) + A.eigenspace(ad, A.field.zero)
    for u in fixed:
        for x in A.basis():
            if a * (x * u) != (a * x) * u:
                return False, (u, x)
    return True, None


def _seress_cases_char0():
    two_b = make_2B(QQ)
    q13 = make_monster(Fraction(1, 3), Fraction(2, 3))
    cases = [(two_b, two_b.gen("a"), q13), (two_b, two_b.gen("b"), q13)]
    plain = make_3C(Fraction(1, 4))
    j14 = make_jordan(Fraction(1, 4))
    for n in plain.basis_names:
        cases.append((plain, plain.gen(n), j14))
    q2 = make_Q2_third(QQ)
    j13 = make_jordan(Fraction(1, 3))
    m23 = make_monster(Fraction(2, 3), Fraction(1, 3))
    cases += [(q2, q2.gen("s1"), j13), (q2, q2.gen("s2"), j13),
              (q2, q2.gen("d1"), m23), (q2, q2.gen("d2"), m23)]
    x_minus = make_3Cx_minus1(QQ)
    jm1 = make_jordan(Fraction(-1))
    cases += [(x_minus, x_minus.gen("y"), jm1),
              (x_minus, x_minus.gen("z"), jm1)]
    for ex in skew_examples(0):
        cases.append((ex.algebra, ex.m_axis, ex.m_law))
        cases.append((ex.algebra, ex.j_axis, ex.j_law))
    return cases


def _seress_cases_char5():
    F5 = PrimeField(5)
    law = make_monster(F5.coerce(2 * third), F5.coerce(third))
    Q = make_Q2x()
    cases = [(Q, Q.gen("x"), law), (Q, Q.gen("z"), law)]
    ex = make_Q2x_plus_one()
    cases += [(ex.algebra, ex.m_axis, ex.m_law),
              (ex.algebra, ex.j_axis, ex.j_law)]
    return cases


def check_seress(char=0):
    cases = _seress_cases_char0() if char == 0 else _seress_cases_char5()
    for A, a, law in cases:
        ok, witness = seress_property(A, a, law)
        if not ok:
            raise skewverify.IdentityFails(
                "Seress property in %r at axis %r" % (A, a), witness)
    return _result("seress-property",
                   "a(xu) = (ax)u across %d algebra/axis pairs" % len(cases))


# -- dichotomy examples ----------------------------------------------------------

def check_dichotomy_char0():
    ex = make_Q2_skew(QQ)
    kind, label = skewverify.dichotomy_check(ex.algebra, ex.m_axis, ex.j_axis,
                                             ex.m_law, ex.j_law)
    if (kind, label) != ("skew", "Q2(1/3,2/3)"):
        raise skewverify.IdentityFails("dichotomy on the double-axis algebra",
                                       (kind, label))
    ex = make_3C_skew(Fraction(1, 4))
    kind, label = skewverify.dichotomy_check(ex.algebra, ex.m_axis, ex.j_axis,
                                             ex.m_law, ex.j_law)
    if (kind, label) != ("skew", "3C(1/4,3/4)"):
        raise skewverify.IdentityFails("dichotomy on 3C(1/4,3/4)",
                                       (kind, label))
    two_b = make_2B(QQ)
    law = make_monster(Fraction(1, 3), Fraction(2, 3))
    kind, label = skewverify.dichotomy_check(two_b, two_b.gen("a"),
                                             two_b.gen("b"), law)
    if (kind, label) != ("jordan", "J(1/3)"):
        raise skewverify.IdentityFails("dichotomy on the orthogonal pair",
                                       (kind, label))
    return _result("dichotomy-char0", "fixed pair and two skew pairs")


def check_dichotomy_char5():
    ex = make_Q2x_plus_one()
    kind, label = skewverify.dichotomy_check(ex.algebra, ex.m_axis, ex.j_axis,
                                             ex.m_law, ex.j_law)
    if (kind, label) != ("skew", "Q2(1/3)^x + one"):
        raise skewverify.IdentityFails("dichotomy over F_5", (kind, label))
    return _result("dichotomy-char5", "the adjoined-identity quotient")


# -- replays ---------------------------------------------------------------------

def check_replay_orthogonal_char0():
    report = skewverify.replay_orthogonal_branch(0)
    if report.outcome != "Q2(1/3,2/3)":
        raise skewverify.ContradictionNotFound(report.outcome)
    return _result("replay-orthogonal", report.outcome)


def check_replay_orthogonal_char5():
    report = skewverify.replay_orthogonal_branch(5)
    if report.outcome != "Q2(1/3)^x + one":
        raise skewverify.ContradictionNotFound(report.outcome)
    return _result("replay-orthogonal-F5", report.outcome)


def check_replay_nonorthogonal():
    reports = skewverify.replay_nonorthogonal_branch()
    outcomes = [r.outcome for r in reports]
    want = ["contradiction", "contradiction", "3C(-1,2)",
            "3C(alpha,1-alpha) for alpha != -1"]
    if outcomes != want:
        raise skewverify.ContradictionNotFound(repr(outcomes))
    return _result("replay-nonorthogonal", "; ".join(outcomes))


# -- the runner ------------------------------------------------------------------

@dataclass
class ItemResult:
    name: str
    status: str  # pass | fail | skip
    detail: str = ""

    def line(self):
        return "%-28s %-4s %s" % (self.name, self.status, self.detail)


@dataclass
class SuiteReport:
    char: int
    items: list

    @property
    def passed(self):
        return all(i.status != "fail" for i in self.items)

    def to_text(self):
        lines = ["verification suite, characteristic %d" % self.char]
        lines += [i.line() for i in self.items]
        counts = {"pass": 0, "fail": 0, "skip": 0}
        for i in self.items:
            counts[i.status] += 1
        lines.append("%d passed, %d failed, %d skipped"
                     % (counts["pass"], counts["fail"], counts["skip"]))
        return "\n".join(lines)

    def to_json(self):
        return json.dumps(
            {"characteristic": self.char,
             "passed": self.passed,
             "items": [{"name": i.name, "status": i.status,
                        "detail": i.detail} for i in self.items]},
            indent=2, sort_keys=True)


SUITE = (
    ("table-Q2-third", (0,), check_table_Q2_third),
    ("table-Q2x-plus-one", (5,), check_table_Q2x_plus_one),
    ("table-orthogonal-branch", (0,), check_table_orthogonal),
    ("products-3C", (0,), check_products_3C),
    ("products-3C-minus1-2", (0,), check_products_3C_minus1_2),
    ("products-Q2-skew", (0,), check_products_Q2_skew),
    ("products-F5", (5,), check_products_F5),
    ("axes-char0", (0,), check_axes_char0),
    ("axes-char5", (5,), check_axes_char5),
    ("bullets-3C", (0,), check_bullets_3C),
    ("bullets-3C-minus1-2", (0,), check_bullets_3C_minus1_2),
    ("bullets-Q2-skew", (0,), check_bullets_Q2_skew),
    ("bullets-F5", (5,), check_bullets_F5),
    ("eigenvectors-generic", (0,), skewverify.check_eigenvectors_generic),
    ("axets-char0", (0,), check_axets_char0),
    ("axets-char5", (5,), check_axets_char5),
    ("axet-X4", (5,), check_axet_X4),
    ("abstract-closures", (0, 5), check_abstract_closures),
    ("odd-subaxets", (0, 5), check_odd_subaxets),
    ("constant-chains", (0,), skewverify.check_constant_chains),
    ("bracket-table", (0,), skewverify.check_bracket_table),
    ("projection-relation", (0,), skewverify.check_projection_relation),
    ("seress-relation-u", (0,), skewverify.check_seress_relation_u),
    ("seress-relation-v", (0,), skewverify.check_seress_relation_v),
    ("shifted-pair", (0,), skewverify.check_shifted_pair),
    ("flip-symmetry", (0,), skewverify.check_flip_symmetry),
    ("shift-expansion", (0,), skewverify.check_shift_expansion),
    ("replay-orthogonal", (0,), check_replay_orthogonal_char0),
    ("replay-orthogonal-F5", (5,), check_replay_orthogonal_char5),
    ("replay-nonorthogonal", (0,), check_replay_nonorthogonal),
    ("identity-rational", (0,), check_identity_rational),
    ("radical-F5", (5,), check_radical_F5),
    ("quotient-pipeline", (5,), check_quotient_pipeline),
    ("parameter-sum", (0, 5), None),
    ("rehren-oracle", (0,), check_rehren_oracle),
    ("seress-property", (0, 5), None),
    ("dichotomy-char0", (0,), check_dichotomy_char0),
    ("dichotomy-char5", (5,), check_dichotomy_char5),
)


def run_suite(char=0):
    """Run every applicable check in order; others are marked skipped."""
    if char not in (0, 5):
        raise ValueError("characteristic must be 0 or 5")
    items = []
    for name, chars, fn in SUITE:
        if char not in chars:
            items.append(ItemResult(name, "skip",
                                    "characteristic %s only"
                                    % "/".join(str(c) for c in chars)))
            continue
        if name == "parameter-sum":
            fn = lambda: check_parameter_sum(char)  # noqa: E731
        elif name == "seress-property":
            fn = lambda: check_seress(char)  # noqa: E731
        try:
            result = fn()
            items.append(ItemResult(result.name, "pass", result.detail))
        except Exception as e:  # honest red: record, keep going
            items.append(ItemResult(name, "fail", "%s: %s"
                                    % (type(e).__name__, e)))
    return SuiteReport(char, items)
