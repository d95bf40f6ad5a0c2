"""Acceptance gate: ten exact checks, one printed line per item.

Every assertion is coefficient-exact; there are no tolerances anywhere.
Each test prints a single pass or FAIL line so a verbose run reads as a
checklist.
"""

import functools
from fractions import Fraction

import axetlab.papersuite as ps
import axetlab.skewverify as sv
from axetlab.algebra import check_linear_map_is_isomorphism
from axetlab.axes import is_automorphism, miyamoto, verify_axis
from axetlab.axets import (AbstractAxet, classify_shape, closure,
                           odd_subaxet, realize_axet)
from axetlab.catalog import (SkewConstants, make_3C_minus1_2, make_3C_skew,
                             make_generic_skew, make_orthogonal_branch,
                             make_Q2_skew, make_Q2_third, make_Q2x,
                             make_Q2x_plus_one, make_Q2x_via_radical,
                             orthogonal_branch_to_Q2,
                             orthogonal_branch_to_Q2x_plus_one,
                             skew_examples)
from axetlab.fusion import make_monster
from axetlab.scalars import QQ, PrimeField

half = Fraction(1, 2)
third = Fraction(1, 3)
sixth = Fraction(1, 6)


def criterion(n, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print("criterion %2d: FAIL  %s" % (n, label))
                raise
            print("criterion %2d: pass  %s" % (n, label))
        return wrapper
    return deco


def skew_constructions():
    """The four constructions, each carrying one monster and one jordan axis."""
    return [make_3C_skew(Fraction(1, 4)), make_3C_minus1_2(),
            make_Q2_skew(), make_Q2x_plus_one()]


# frozen multiplication tables, keyed by unordered basis-name pairs;
# omitted pairs are zero

TABLE_DOUBLE_AXIS = {
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

TABLE_PLUS_ONE = {
    ("x", "x"): {"x": 1},
    ("y", "y"): {"y": 1},
    ("z", "z"): {"z": 1},
    ("one", "one"): {"one": 1},
    ("x", "y"): {},
    ("x", "z"): {"x": 3, "y": 1, "z": 2},
    ("y", "z"): {"x": 1, "y": 3, "z": 2},
    ("x", "one"): {"x": 1},
    ("y", "one"): {"y": 1},
    ("z", "one"): {"z": 1},
}

TABLE_REBUILT_BRANCH = {
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


@criterion(1, "multiplication tables exact, every single-coefficient "
              "mutation detected")
def test_01_table_fidelity():
    tables = [
        (make_Q2_third(QQ), TABLE_DOUBLE_AXIS),
        (make_Q2x_plus_one().algebra, TABLE_PLUS_ONE),
        (make_orthogonal_branch(QQ).algebra, TABLE_REBUILT_BRANCH),
    ]
    for algebra, expected in tables:
        assert ps.table_mismatches(algebra, expected) == []
        n = algebra.dim
        for i in range(n):
            for j in range(i, n):
                for k in range(n):
                    mutated = ps.perturbed(algebra, i, j, k)
                    pair = "(%s, %s)" % (algebra.basis_names[i],
                                         algebra.basis_names[j])
                    assert ps.table_mismatches(mutated, expected) == [pair]


@criterion(2, "displayed products of the constructions hold exactly")
def test_02_construction_products():
    for alpha in (Fraction(1, 4), Fraction(2), Fraction(-2)):
        ex = make_3C_skew(alpha)
        w, y, z = ex.m_axis, ex.j_axis, ex.third
        assert w * y == (alpha + 1) / 2 * w + (1 - alpha) / 2 * (y - z)

    ex = make_3C_minus1_2()
    u, v = ex.algebra.gen("u"), ex.algebra.gen("v")
    assert ex.m_axis * ex.j_axis == v - u

    ex = make_Q2_skew()
    A = ex.algebra
    s1, s2 = A.gen("s1"), A.gen("s2")
    one = A.find_identity()
    t1, t2 = one - A.gen("d1"), one - A.gen("d2")
    assert t1 == ex.m_axis and s1 == ex.j_axis
    assert s1 * t1 == 2 * third * s1 + sixth * t1 - sixth * t2
    assert t1 * t2 == 2 * third * (s1 + s2) - third * (t1 + t2)

    ex = make_Q2x_plus_one()
    A = ex.algebra
    x, y, z = A.gen("x"), A.gen("y"), A.gen("z")
    w = A.gen("one") - z
    assert w == ex.m_axis
    assert w * x == 3 * x + 4 * y + 3 * z
    assert w * y == 4 * x + 3 * y + 3 * z


@criterion(3, "all 8 distinguished axes certify, every listed eigenvector "
              "has its stated eigenvalue")
def test_03_axis_certification():
    for ex in skew_constructions():
        for el, law in [(ex.m_axis, ex.m_law), (ex.j_axis, ex.j_law)]:
            report = verify_axis(ex.algebra, el, law)
            assert report.passed, (ex.label, report.summary())
            assert report.is_idempotent
            assert report.spectrum_ok
            assert report.is_primitive
            assert report.fusion_violations == []

    # section bullet lists (these raise on any eigenvalue mismatch)
    assert ps.check_bullets_3C().passed
    assert ps.check_bullets_3C_minus1_2().passed
    assert ps.check_bullets_Q2_skew().passed
    assert ps.check_bullets_F5().passed

    # the symbolic eigenvectors of both adjoints, over the function field
    c = SkewConstants.generic()
    A = make_generic_skew(c)
    a, b, cc, s = A.basis()
    for lam, vec in [
        (1, a),
        (0, c.eps * a + half * (c.alpha - c.beta) * (b + cc) - s),
        (c.alpha, c.gamma * a + half * c.beta * (b + cc) + s),
        (c.beta, b - cc),
    ]:
        assert vec * a == lam * vec
    for lam, vec in [
        (1, b),
        (0, -(c.P / c.beta) * a + c.P * b + cc),
        (0, (c.alpha - c.beta) * a + c.epsf * b - s),
        (c.alpha, c.beta * a + c.gammaf * b + s),
    ]:
        assert vec * b == lam * vec
    assert sv.check_eigenvectors_generic().passed


@criterion(4, "involutions act as recorded; jordan axes give the identity")
def test_04_involutions():
    ex = make_3C_skew(Fraction(1, 4))
    tau = miyamoto(ex.algebra, ex.m_axis, ex.m_law)
    assert tau(ex.j_axis) == ex.third

    ex = make_Q2_skew()
    tau = miyamoto(ex.algebra, ex.m_axis, ex.m_law)
    assert tau(ex.algebra.gen("s1")) == ex.algebra.gen("s2")

    ex = make_Q2x_plus_one()
    tau = miyamoto(ex.algebra, ex.m_axis, ex.m_law)
    assert tau(ex.algebra.gen("x")) == ex.algebra.gen("y")

    for ex in skew_constructions():
        tau = miyamoto(ex.algebra, ex.m_axis, ex.m_law)
        assert is_automorphism(ex.algebra, tau)
        assert tau.is_involution()
        assert not tau.is_identity()
        assert miyamoto(ex.algebra, ex.j_axis, ex.m_law).is_identity()


@criterion(5, "axet shapes: 3-point skew realizations, the 4-point square, "
              "abstract closures, odd subaxets")
def test_05_axet_shapes():
    for ex in skew_constructions():
        realized = realize_axet(
            [verify_axis(ex.algebra, ex.m_axis, ex.m_law),
             verify_axis(ex.algebra, ex.j_axis, ex.m_law)])
        assert realized.size == 3, ex.label
        assert classify_shape(realized) == "Xskew(1)"
        assert realized.perm(0) == [0, 2, 1]
        assert realized.perm(1) == [0, 1, 2]
        assert realized.perm(2) == [0, 1, 2]

    F5 = PrimeField(5)
    Q = make_Q2x()
    law = make_monster(F5.coerce(2 * third), F5.coerce(third))
    realized = realize_axet([verify_axis(Q, Q.gen(n), law) for n in "xz"])
    assert realized.size == 4
    assert classify_shape(realized) == "X(4)"

    for k in range(1, 9):
        ax = AbstractAxet.skew(k)
        grown = closure(ax, [ax.index("a0"), ax.index("a1")])
        assert len(grown) == 3 * k

    for k in (3, 5, 7):
        assert classify_shape(odd_subaxet(AbstractAxet.skew(k))) \
            == "Xskew(1)"


@criterion(6, "constant chains, bracket table, and the three relation "
              "derivations are identically zero")
def test_06_symbolic_relations():
    c = SkewConstants.generic()
    assert (c.alpha - 1) * c.gamma == c.eps + c.alpha * c.beta
    assert (c.alpha - 1) * c.gamma == c.delta + c.beta ** 2
    assert (c.alpha - 1) * c.gammaf == c.epsf + c.alpha * c.beta
    assert (c.alpha - 1) * c.gammaf == c.deltaf + c.beta ** 2

    assert sv.check_constant_chains().passed
    assert sv.check_bracket_table().passed
    assert sv.check_projection_relation().passed
    assert sv.check_seress_relation_u().passed
    assert sv.check_seress_relation_v().passed


@criterion(7, "both classification branches replay with exact parameter "
              "points and witnesses")
def test_07_classification_replay():
    report = sv.replay_orthogonal_branch(0)
    assert report.outcome == "Q2(1/3,2/3)"
    assert "(alpha, beta, l1, l1f) = (1/3, 2/3, 5/12, 2/3)" \
        in report.constraints
    assert "rebuilt multiplication table matches" in report.constraints
    assert check_linear_map_is_isomorphism(orthogonal_branch_to_Q2(QQ))

    report5 = sv.replay_orthogonal_branch(5)
    assert report5.outcome == "Q2(1/3)^x + one"
    assert check_linear_map_is_isomorphism(
        orthogonal_branch_to_Q2x_plus_one())

    branches = sv.replay_nonorthogonal_branch()
    assert [r.outcome for r in branches] == [
        "contradiction", "contradiction", "3C(-1,2)",
        "3C(alpha,1-alpha) for alpha != -1"]
    assert branches[0].witness == "c = -b gives c^2 - c = 2b != 0"
    assert branches[1].witness \
        == "beta = 1/2 = alpha collapses the fusion parameters"
    assert branches[2].witness == "alpha = -1, beta = 2"
    assert branches[3].witness == "residual (alpha-1)P/2"

    c = SkewConstants.generic()
    residual = half * (c.alpha - c.beta) * c.P - half * (1 - c.beta) * c.P
    assert residual == half * (c.alpha - 1) * c.P


@criterion(8, "identity over the rationals, radical over F_5, quotient plus "
              "adjoined identity pipeline")
def test_08_identity_and_radical():
    A = make_Q2_third(QQ)
    one = A.find_identity()
    total = sum(A.basis(), A.zero)
    assert one == Fraction(3, 5) * total

    F5 = PrimeField(5)
    A5 = make_Q2_third(F5)
    assert A5.find_identity() is None
    spanning = sum(A5.basis(), A5.zero)
    for x in A5.basis():
        assert (spanning * x).is_zero()
    ann = A5.annihilator()
    assert len(ann) == 1
    assert [k for k, coef in enumerate(ann[0].coords) if coef != F5.zero] \
        == [0, 1, 2, 3]
    assert ann[0].coords == [ann[0].coords[0]] * 4

    assert make_Q2x_via_radical().same_table(make_Q2x())
    rebuilt = make_Q2x_via_radical().adjoin_identity("one")
    assert ps.table_mismatches(rebuilt, TABLE_PLUS_ONE) == []


@criterion(9, "alpha + beta = 1 for every classified skew algebra")
def test_09_parameter_sum():
    rational = skew_examples(0)
    assert [ex.label for ex in rational] \
        == ["3C(1/4,3/4)", "3C(-1,2)", "Q2(1/3,2/3)"]
    for ex in rational:
        assert ex.alpha + ex.beta == 1
    modular = skew_examples(5)
    assert [ex.label for ex in modular] == ["3C(-1,2)", "Q2(1/3)^x + one"]
    field = PrimeField(5)
    for ex in modular:
        assert ex.alpha + ex.beta == field.one
    for alpha in (Fraction(1, 4), Fraction(2), Fraction(-2)):
        ex = make_3C_skew(alpha)
        assert ex.alpha + ex.beta == 1


@criterion(10, "a(xu) = (ax)u exhaustively for every catalog algebra "
               "and axis")
def test_10_seress_property():
    for char, count in ((0, 17), (5, 4)):
        cases = ps._seress_cases(char)
        assert len(cases) == count
        for A, a in cases:
            ok, witness = ps.seress_property(A, a)
            assert ok, witness
