"""The full reproduction suite behind the paper-suite command.

Every multiplication table is checked against an expected-value copy
frozen here, independent of the constructors in catalog, so a mutation
on either side is caught.  Checks are named, deterministic, and gated by
characteristic (0 or 5).  A check fails only through skewverify's helpers
(_require_zero, _require_equal, _require), and run_suite records the
exception as the item's detail, naming the last check that held when
another exception ends the item.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import mul

from . import skewverify
from .algebra import LinearMap, StructureAlgebra, \
    check_linear_map_is_isomorphism
from .axes import Eigenbasis, miyamoto, verify_axis
from .axets import AbstractAxet, classify_shape, closure, odd_subaxet, \
    realize_axet
from .catalog import (make_2B, make_3C, make_3C_minus1_2, make_3C_skew,
                      make_3Cx_minus1, make_orthogonal_branch, make_Q2_skew,
                      make_Q2_third, make_Q2x, make_Q2x_law,
                      make_Q2x_plus_one, make_Q2x_via_radical, rehren_oracle,
                      skew_examples)
from .fusion import make_monster
from .scalars import QQ, FunctionField, PrimeField
from .skewverify import _require, _require_equal, _require_zero

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


def _is_eigvec(axis, lam, v, what):
    _require(what, v, "zero vector")
    _require_zero(what, axis * v - lam * v)


def _identity(A):
    one = A.find_identity()
    _require("the algebra has an identity", one is not None)
    return one


def _swaps(tau, u, v, what):
    _require_equal(what, tau(u), v)
    _require(what + ": an involution", tau.is_involution())


# -- table fidelity -----------------------------------------------------------

# item -> (constructor, frozen table, detail)
TABLES = {
    "table-Q2-third": (lambda: make_Q2_third(QQ), Q2_THIRD_EXPECTED,
                       "10 pair entries"),
    "table-Q2x-plus-one": (lambda: make_Q2x_plus_one().algebra,
                           Q2X_PLUS_ONE_EXPECTED, "10 pair entries over F_5"),
    "table-orthogonal-branch": (lambda: make_orthogonal_branch(QQ).algebra,
                                ORTHOGONAL_BRANCH_EXPECTED, "10 pair entries"),
}


def check_table(name):
    build, expected, detail = TABLES[name]
    bad = table_mismatches(build(), expected)
    _require(name + " entries", not bad, ", ".join(bad))
    return _result(name, detail)


# -- displayed products -------------------------------------------------------

def _check_3C_products_at(alpha, field=None):
    ex = make_3C_skew(alpha, field)
    A = ex.algebra
    w = ex.m_axis
    y, z = A.gen("y"), A.gen("z")
    a = ex.alpha
    _require_equal("w y in " + ex.label, w * y,
                   ((a + 1) / 2) * w + ((1 - a) / 2) * (y - z))
    _require_equal("expansion of y in " + ex.label, y,
                   (a / 2) * A.gen("x") + ((a + 1) / 2) * w + half * (y - z))


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
    _require_equal("w y = v - u", w * y, v - u)
    _require_equal("y(u - v) = u - w", y * (u - v), u - w)
    _require_equal("y z = -(y + z)", y * z, -(y + z))
    return _result("products-3C-minus1-2", "w y, y(u-v), y z")


def check_products_Q2_skew():
    ex = make_Q2_skew(QQ)
    A = ex.algebra
    s1, s2 = A.gen("s1"), A.gen("s2")
    one = _identity(A)
    t1 = one - A.gen("d1")
    t2 = one - A.gen("d2")
    _require_equal("distinguished axis is one - d1", ex.m_axis, t1)
    _require_equal("s1 t1", s1 * t1,
                   2 * third * s1 + sixth * t1 - sixth * t2)
    _require_equal("t1 t2", t1 * t2,
                   2 * third * (s1 + s2) - third * (t1 + t2))
    return _result("products-Q2-skew", "s1 t1 and t1 t2")


def check_products_F5():
    ex = make_Q2x_plus_one()
    A = ex.algebra
    x, y = A.gen("x"), A.gen("y")
    w = ex.m_axis
    _require_equal("w x over F_5", w * x, A.element({"x": 3, "y": 4, "z": 3}))
    _require_equal("w y over F_5", w * y, A.element({"x": 4, "y": 3, "z": 3}))
    return _result("products-F5", "w x and w y")


# -- axis certification -------------------------------------------------------

def _skew_pairs(char):
    """The skew examples whose axes and axets the suite certifies."""
    return skew_examples(0) if char == 0 else [make_Q2x_plus_one()]


def check_axes(char):
    examples = _skew_pairs(char)
    for ex in examples:
        for axis, law, tag in ((ex.m_axis, ex.m_law, "m"),
                               (ex.j_axis, ex.j_law, "j")):
            report = verify_axis(ex.algebra, axis, law)
            _require("%s axis of %s" % (tag, ex.label), report.passed,
                     report.summary())
    return _result("axes-char%d" % char,
                   "%d axes under their stated laws" % (2 * len(examples)))


def check_bullets_3C():
    field = FunctionField(("alpha",))
    alpha = field.sym("alpha")
    ex = make_3C_skew(alpha, field)
    A = ex.algebra
    w = ex.m_axis
    x, y, z = A.basis()
    _is_eigvec(w, field.one, w, "w in the 1 part of w")
    _is_eigvec(w, field.zero, x, "x in the 0 part of w")
    _is_eigvec(w, 1 - alpha, y - z, "y - z in the 1-alpha part of w")
    w_basis = Eigenbasis(A, w, ex.m_law)
    _require("alpha part of w is zero", not w_basis.eigenspace(alpha))
    _swaps(w_basis.miyamoto, y, z, "tau_w swaps y and z")
    _require("tau_y is the identity",
             miyamoto(A, y, ex.m_law).is_identity())
    return _result("bullets-3C", "symbolic eigenvector bullets over Q(alpha)")


def check_bullets_3C_minus1_2():
    ex = make_3C_minus1_2(QQ)
    A = ex.algebra
    w, y, z = ex.m_axis, ex.j_axis, ex.third
    one = _identity(A)
    _is_eigvec(w, QQ.one, w, "w in the 1 part of w")
    _is_eigvec(w, QQ.zero, one - w, "one - w in the 0 part of w")
    _require_equal("one - w = -(y + z)", one - w, -(y + z))
    _is_eigvec(w, Fraction(2), y - z, "y - z in the 2 part of w")
    _require_equal("expansion of y", y, half * (y + z) + half * (y - z))
    _swaps(miyamoto(A, w, ex.m_law), y, z, "tau_w swaps y and z")
    _require("tau_y is the identity",
             miyamoto(A, y, ex.m_law).is_identity())

    # the pair algebra of y and z is the unital-quotient 3C
    span = A.subalgebra_closure([y, z])
    _require("pair algebra of y, z is 2-dimensional", len(span) == 2,
             len(span))
    target = make_3Cx_minus1(QQ)
    pair = A.span_subalgebra([y, z], ("y", "z"))
    iso = LinearMap.from_pairs(pair, target,
                               [(pair.gen("y"), target.gen("y")),
                                (pair.gen("z"), target.gen("z"))])
    _require("pair algebra is 3C(-1)^x", check_linear_map_is_isomorphism(iso))
    return _result("bullets-3C-minus1-2",
                   "eigenvector bullets and the 3C(-1)^x pair algebra")


def check_bullets_Q2_skew():
    ex = make_Q2_skew(QQ)
    A = ex.algebra
    t1 = ex.m_axis
    s1, s2, d1, d2 = A.basis()
    one = _identity(A)
    _is_eigvec(t1, QQ.one, t1, "t1 in the 1 part of t1")
    _is_eigvec(t1, QQ.zero, d1, "d1 in the 0 part of t1")
    _is_eigvec(t1, third, s1 + s2 - d2, "s1+s2-d2 in the 1/3 part of t1")
    _is_eigvec(t1, 2 * third, s1 - s2, "s1-s2 in the 2/3 part of t1")
    _require_equal("expansion of s1 over t1", s1,
                   Fraction(5, 12) * t1 + sixth * d1
                   + Fraction(1, 4) * (s1 + s2 - d2) + half * (s1 - s2))
    _swaps(miyamoto(A, t1, ex.m_law), s1, s2, "tau_t1 swaps s1 and s2")
    for j_axis in (s1, s2):
        _require("tau is the identity on a swapped-pair axis",
                 miyamoto(A, j_axis, ex.m_law).is_identity(), j_axis)
    _require_equal("one - t1 = d1", one - t1, d1)
    return _result("bullets-Q2-skew", "eigenvector bullets for t1")


def check_bullets_F5():
    F5 = PrimeField(5)
    ex = make_Q2x_plus_one()
    A = ex.algebra
    w = ex.m_axis
    x, y, z, one = A.basis()
    _is_eigvec(w, F5.one, w, "w in the 1 part of w")
    _is_eigvec(w, F5.zero, z, "z in the 0 part of w")
    _is_eigvec(w, F5.coerce(third), x + y + 3 * z,
               "x+y+3z in the 1/3 part of w")
    _is_eigvec(w, F5.coerce(2 * third), x - y, "x-y in the 2/3 part of w")
    _require_equal("expansion of x over w", x,
                   z + 3 * (x + y + 3 * z) + 3 * (x - y))
    _swaps(miyamoto(A, w, ex.m_law), x, y, "tau_w swaps x and y")
    # x has a two-dimensional 0 part containing y and one - x, and no
    # 2/3 part, so its involution is the identity
    _is_eigvec(x, F5.zero, y, "y in the 0 part of x")
    _is_eigvec(x, F5.zero, one - x, "one - x in the 0 part of x")
    x_basis = Eigenbasis(A, x, ex.m_law)
    zero_part = x_basis.eigenspace(F5.zero)
    _require("0 part of x has dimension 2", len(zero_part) == 2,
             len(zero_part))
    _require("2/3 part of x is zero",
             not x_basis.eigenspace(F5.coerce(2 * third)))
    _require("tau_x is the identity", x_basis.miyamoto.is_identity())

    # the quotient without the identity: axes x and z close into X(4)
    Q = make_Q2x()
    law = make_Q2x_law()
    x3, y3, z3 = Q.basis()
    _is_eigvec(z3, F5.coerce(2 * third), x3 + y3 + 3 * z3,
               "x+y+3z in the 2/3 part of z")
    _is_eigvec(z3, F5.coerce(third), x3 - y3, "x-y in the 1/3 part of z")
    z3_basis = Eigenbasis(Q, z3, law)
    _require("0 part of z is zero", not z3_basis.eigenspace(F5.zero))
    _is_eigvec(x3, F5.zero, y3, "y in the 0 part of x")
    _is_eigvec(x3, F5.coerce(third), 3 * x3 + 3 * y3 + z3,
               "3x+3y+z in the 1/3 part of x")
    x3_basis = Eigenbasis(Q, x3, law)
    _require("2/3 part of x is zero",
             not x3_basis.eigenspace(F5.coerce(2 * third)))
    _require_equal("tau_z swaps x and y", z3_basis.miyamoto(x3), y3)
    _require_equal("tau_x sends z to -(x+y+z)", x3_basis.miyamoto(z3),
                   4 * (x3 + y3 + z3))
    return _result("bullets-F5", "eigenvector bullets over F_5")


# -- axet shapes ---------------------------------------------------------------

def check_axets(char):
    for ex in _skew_pairs(char):
        reports = [verify_axis(ex.algebra, axis, ex.m_law)
                   for axis in (ex.m_axis, ex.j_axis)]
        _require(ex.label + ": both axes verify under the M law",
                 all(r.passed for r in reports))
        realized = realize_axet(reports)
        shape = classify_shape(realized)
        _require(ex.label + ": 3 points of shape Xskew(1)",
                 (realized.size, shape) == (3, "Xskew(1)"),
                 (realized.size, shape))
        _require(ex.label + ": the m involution transposes the other two "
                 "points and the j involutions move none",
                 realized.perms == [[0, 2, 1], [0, 1, 2], [0, 1, 2]],
                 realized.perms)
        _require_equal(ex.label + ": the third point is the recorded one",
                       realized.points[2], ex.third)
    return _result("axets-char%d" % char,
                   "3-point skew realizations for the rational examples"
                   if char == 0 else "3-point skew realization over F_5")


def check_axet_X4():
    Q = make_Q2x()
    law = make_Q2x_law()
    realized = realize_axet([verify_axis(Q, Q.gen(n), law) for n in "xz"])
    shape = classify_shape(realized)
    _require("axet of the quotient from {x, z} is X(4)",
             (realized.size, shape) == (4, "X(4)"), shape)
    return _result("axet-X4", "4 points with the square action")


def check_abstract_closures(char):
    """Xskew(k) for k = 1 to 8; char is not read (no field)."""
    for k in range(1, 9):
        axet = AbstractAxet.skew(k)
        _require("Xskew(%d) has 3k points" % k, axet.size == 3 * k, axet.size)
        pts = closure(axet, ["a0", "a1"])
        _require("closure of {a0, a1} in Xskew(%d)" % k, len(pts) == 3 * k,
                 len(pts))
    return _result("abstract-closures", "3k points for k = 1..8")


def check_odd_subaxets(char):
    """Xskew(1) inside Xskew(k) for odd k; char is not read (no field)."""
    for k in (3, 5, 7):
        sub = odd_subaxet(AbstractAxet.skew(k))
        shape = classify_shape(sub)
        _require("odd subaxet at k = %d is Xskew(1)" % k,
                 (sub.size, shape) == (3, "Xskew(1)"), shape)
    return _result("odd-subaxets", "Xskew(1) inside Xskew(k), k = 3, 5, 7")


# -- identity and radical facts -------------------------------------------------

def check_identity_rational():
    A = make_Q2_third(QQ)
    _require_equal("identity of the swapped-pair algebra", _identity(A),
                   Fraction(3, 5) * (A.gen("s1") + A.gen("s2")
                                     + A.gen("d1") + A.gen("d2")))
    return _result("identity-rational", "one = 3/5 of the basis sum")


def check_radical_F5():
    A = make_Q2_third(PrimeField(5))
    _require("no identity over F_5", A.find_identity() is None)
    ann = A.annihilator()
    total = A.element([1, 1, 1, 1])
    _require("annihilator is the basis sum", ann == [total], ann)
    for b in A.basis():
        _require_zero("the basis sum annihilates the basis", total * b)
    return _result("radical-F5", "no identity; the basis sum annihilates")


def check_quotient_pipeline():
    via = make_Q2x_via_radical()
    _require("radical quotient table", via.same_table(make_Q2x()))
    rebuilt = via.adjoin_identity("one")
    bad = table_mismatches(rebuilt, Q2X_PLUS_ONE_EXPECTED)
    _require("adjoined-identity pipeline", not bad, ", ".join(bad))
    _require("pipeline vs direct construction",
             rebuilt.same_table(make_Q2x_plus_one().algebra))
    return _result("quotient-pipeline",
                   "radical quotient plus adjoined identity")


# -- classified parameters ------------------------------------------------------

def check_parameter_sum(char=0):
    labels = []
    for ex in skew_examples(char):
        _require_equal("alpha + beta = 1 for %s" % ex.label,
                       ex.alpha + ex.beta, ex.algebra.field.one)
        labels.append(ex.label)
    return _result("parameter-sum", "alpha + beta = 1 for " +
                   ", ".join(labels))


def check_rehren_oracle():
    labels = rehren_oracle(Fraction(1, 4), Fraction(3, 4))
    _require("pair oracle at (1/4, 3/4)", labels == ("2B", "3C(1/4,3/4)"),
             labels)
    labels = rehren_oracle(-1, 2)
    _require("pair oracle at (-1, 2) admits 3C(-1,2)", "3C(-1,2)" in labels,
             labels)
    labels = rehren_oracle(Fraction(1, 3), Fraction(1, 2))
    _require("pair oracle away from alpha+beta=1", labels == ("2B",), labels)
    return _result("rehren-oracle", "admissible outcome labels")


# -- the Seress property --------------------------------------------------------

def seress_property(A, a):
    """a(xu) = (ax)u for every basis x and eigenbasis u of the 1, 0 parts,
    or the first (u, x) where it fails; over Q and F_p only.

    As ad_a ad_u = ad_u ad_a on the ring encoding: column x of the two
    sides is a(ux) and u(ax).  ad_a and each ad_u are encoded once; all
    rows of each share one denominator (not so over a function field),
    so the integer products of the two sides are compared (mod p)."""
    if isinstance(A.field, FunctionField):
        raise TypeError("seress_property is for Q and F_p only")
    ones, zeros = A.eigenspaces(a, [A.field.one, A.field.zero])
    p = A.field.char
    ad_a = A.encoded_adjoint(a)[0]
    for u in ones + zeros:
        ad_u = A.encoded_adjoint(u)[0]
        for x, (ax, ux) in enumerate(zip(zip(*ad_a), zip(*ad_u))):
            for r, s in zip(ad_a, ad_u):
                d = sum(map(mul, r, ux)) - sum(map(mul, s, ax))
                if d % p if p else d:
                    return False, (u, A.gen(A.basis_names[x]))
    return True, None


def _seress_cases(char):
    """(algebra, axis) for each catalog axis of the characteristic."""
    if char == 5:
        Q = make_Q2x()
        cases = [(Q, Q.gen("x")), (Q, Q.gen("z"))]
    else:
        two_b = make_2B(QQ)
        plain = make_3C(Fraction(1, 4))
        q2 = make_Q2_third(QQ)
        x_minus = make_3Cx_minus1(QQ)
        cases = [(two_b, two_b.gen("a")), (two_b, two_b.gen("b"))]
        cases += [(plain, plain.gen(n)) for n in plain.basis_names]
        cases += [(q2, q2.gen(n)) for n in ("s1", "s2", "d1", "d2")]
        cases += [(x_minus, x_minus.gen(n)) for n in ("y", "z")]
    for ex in _skew_pairs(char):
        cases += [(ex.algebra, ex.m_axis), (ex.algebra, ex.j_axis)]
    return cases


def check_seress(char=0):
    cases = _seress_cases(char)
    for A, a in cases:
        ok, witness = seress_property(A, a)
        _require("Seress property at (algebra, axis, (u, x))", ok,
                 (A, a, witness))
    return _result("seress-property",
                   "a(xu) = (ax)u across %d algebra/axis pairs" % len(cases))


# -- dichotomy examples ----------------------------------------------------------

def _skew_pair_args(ex):
    return ex.algebra, ex.m_axis, ex.j_axis, ex.m_law, ex.j_law


def check_dichotomy(char):
    if char == 0:
        two_b = make_2B(QQ)
        law = make_monster(Fraction(1, 3), Fraction(2, 3))
        cases = [(_skew_pair_args(make_Q2_skew(QQ)), ("skew", "Q2(1/3,2/3)")),
                 (_skew_pair_args(make_3C_skew(Fraction(1, 4))),
                  ("skew", "3C(1/4,3/4)")),
                 ((two_b, two_b.gen("a"), two_b.gen("b"), law),
                  ("jordan", "J(1/3)"))]
    else:
        cases = [(_skew_pair_args(make_Q2x_plus_one()),
                  ("skew", "Q2(1/3)^x + one"))]
    for args, want in cases:
        try:
            got = skewverify.dichotomy_check(*args)
        except skewverify.NoMatch as e:
            got = "NoMatch: %s" % e
        _require("dichotomy gives %s %s" % want, got == want, got)
    return _result("dichotomy-char%d" % char,
                   "fixed pair and two skew pairs" if char == 0
                   else "the adjoined-identity quotient")


# -- replays ---------------------------------------------------------------------

def check_replay_orthogonal(char):
    outcome = skewverify.replay_orthogonal_branch(char).outcome
    want = "Q2(1/3,2/3)" if char == 0 else "Q2(1/3)^x + one"
    _require("orthogonal replay outcome", outcome == want, outcome)
    return _result("replay-orthogonal" + ("-F5" if char else ""), outcome)


def check_replay_nonorthogonal():
    outcomes = [r.outcome for r in skewverify.replay_nonorthogonal_branch()]
    _require("non-orthogonal replay outcomes",
             outcomes == ["contradiction", "contradiction", "3C(-1,2)",
                          "3C(alpha,1-alpha) for alpha != -1"], outcomes)
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
    ("table-Q2-third", (0,), partial(check_table, "table-Q2-third")),
    ("table-Q2x-plus-one", (5,), partial(check_table, "table-Q2x-plus-one")),
    ("table-orthogonal-branch", (0,),
     partial(check_table, "table-orthogonal-branch")),
    ("products-3C", (0,), check_products_3C),
    ("products-3C-minus1-2", (0,), check_products_3C_minus1_2),
    ("products-Q2-skew", (0,), check_products_Q2_skew),
    ("products-F5", (5,), check_products_F5),
    ("axes-char0", (0,), partial(check_axes, 0)),
    ("axes-char5", (5,), partial(check_axes, 5)),
    ("bullets-3C", (0,), check_bullets_3C),
    ("bullets-3C-minus1-2", (0,), check_bullets_3C_minus1_2),
    ("bullets-Q2-skew", (0,), check_bullets_Q2_skew),
    ("bullets-F5", (5,), check_bullets_F5),
    ("eigenvectors-generic", (0,), skewverify.check_eigenvectors_generic),
    ("axets-char0", (0,), partial(check_axets, 0)),
    ("axets-char5", (5,), partial(check_axets, 5)),
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
    ("replay-orthogonal", (0,), partial(check_replay_orthogonal, 0)),
    ("replay-orthogonal-F5", (5,), partial(check_replay_orthogonal, 5)),
    ("replay-nonorthogonal", (0,), check_replay_nonorthogonal),
    ("identity-rational", (0,), check_identity_rational),
    ("radical-F5", (5,), check_radical_F5),
    ("quotient-pipeline", (5,), check_quotient_pipeline),
    ("parameter-sum", (0, 5), check_parameter_sum),
    ("rehren-oracle", (0,), check_rehren_oracle),
    ("seress-property", (0, 5), check_seress),
    ("dichotomy-char0", (0,), partial(check_dichotomy, 0)),
    ("dichotomy-char5", (5,), partial(check_dichotomy, 5)),
)


def run_suite(char=0):
    """Run every applicable check in order; others are marked skipped.
    A check of a row for one characteristic is called with no argument,
    and one of a row for both is handed the characteristic."""
    if char not in (0, 5):
        raise ValueError("characteristic must be 0 or 5")
    items = []
    for name, chars, fn in SUITE:
        if char not in chars:
            items.append(ItemResult(name, "skip",
                                    "characteristic %s only"
                                    % "/".join(str(c) for c in chars)))
            continue
        skewverify.last_passed = None
        try:
            result = fn(char) if len(chars) > 1 else fn()
            items.append(ItemResult(name, "pass", result.detail))
        except Exception as e:  # honest red: record, keep going
            detail = "%s: %s" % (type(e).__name__, e)
            if skewverify.last_passed and not isinstance(
                    e, (skewverify.IdentityFails,
                        skewverify.ContradictionNotFound)):
                detail += " (after %s)" % skewverify.last_passed
            items.append(ItemResult(name, "fail", detail))
    return SuiteReport(char, items)
