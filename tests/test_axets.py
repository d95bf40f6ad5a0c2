"""Abstract axets, closures, shape recognition, and realization."""

from fractions import Fraction

import pytest

from axetlab import linalg
from axetlab.algebra import Element, LinearMap
from axetlab.axes import verify_axis
from axetlab.axets import (AbstractAxet, FiniteAxet, NotAnAxis,
                           NotClosedWithinBound, TooLarge, classify_shape,
                           closure, odd_subaxet, realize_axet, restrict,
                           shape_label)
from axetlab.catalog import make_3C, make_3C_skew, make_Q2x
from axetlab.fusion import make_jordan, make_monster


def test_polygon_action():
    X = AbstractAxet.polygon(5)
    assert X.size == 5
    assert X.labels == ["a0", "a1", "a2", "a3", "a4"]
    # tau_1 sends a_i to a_{2-i}
    assert X.perm(1) == [2, 1, 0, 4, 3]
    assert repr(X) == "X(5)"


def test_polygon_perms_are_involutions():
    X = AbstractAxet.polygon(7)
    for p in range(X.size):
        perm = X.perm(p)
        assert all(perm[perm[q]] == q for q in range(X.size))
        assert perm[p] == p


def test_skew_point_count():
    for k in range(1, 9):
        X = AbstractAxet.skew(k)
        assert X.size == 3 * k
        assert repr(X) == "Xskew(%d)" % k


def test_skew_one_structure():
    X = AbstractAxet.skew(1)
    assert X.labels == ["a0", "a1", "a3"]
    # the even point swaps the two odd points
    assert X.perm(0) == [0, 2, 1]
    # the odd points act trivially: a_2 is glued to a_0
    assert X.perm(1) == [0, 1, 2]
    assert X.perm(2) == [0, 1, 2]


def test_skew_perms_are_involutions():
    X = AbstractAxet.skew(4)
    for p in range(X.size):
        perm = X.perm(p)
        assert all(perm[perm[q]] == q for q in range(X.size))
        assert perm[p] == p


def test_closure_of_two_neighbours_is_everything():
    for k in range(1, 9):
        X = AbstractAxet.skew(k)
        assert closure(X, ["a0", "a1"]) == list(range(X.size))
    X = AbstractAxet.polygon(6)
    assert closure(X, ["a0", "a1"]) == list(range(6))


def test_closure_of_a_fixed_point_is_itself():
    X = AbstractAxet.skew(3)
    assert closure(X, ["a0"]) == [X.index("a0")]


def test_restrict_requires_closed_subsets():
    X = AbstractAxet.polygon(6)
    sub = restrict(X, ["a0", "a2", "a4"])
    assert sub.size == 3
    assert classify_shape(sub) == "X(3)"
    with pytest.raises(ValueError):
        restrict(X, ["a0", "a1"])


def test_odd_subaxet_shapes():
    for k in (3, 5, 7):
        X = AbstractAxet.skew(k)
        sub = odd_subaxet(X)
        assert sub.size == 3
        assert classify_shape(sub) == "Xskew(1)"
        assert sub.labels == ["a0", "a%d" % k, "a%d" % (3 * k)]


def test_odd_subaxet_rejects_even_k_and_polygons():
    with pytest.raises(ValueError):
        odd_subaxet(AbstractAxet.skew(2))
    with pytest.raises(ValueError):
        odd_subaxet(AbstractAxet.polygon(6))


def test_classify_polygon_and_skew():
    assert classify_shape(AbstractAxet.polygon(4)) == "X(4)"
    assert classify_shape(AbstractAxet.skew(2)) == "Xskew(2)"
    # relabelled copy still recognised
    X = AbstractAxet.skew(2)
    order = [3, 1, 4, 0, 5, 2]
    pos = {p: i for i, p in enumerate(order)}
    shuffled = FiniteAxet([X.labels[p] for p in order],
                          [[pos[X.perm(p)[q]] for q in order]
                           for p in order])
    assert classify_shape(shuffled) == "Xskew(2)"


def test_polygon_and_skew_of_equal_size_differ():
    # X(3) and Xskew(1) both have 3 points but different actions
    assert classify_shape(AbstractAxet.polygon(3)) == "X(3)"
    assert classify_shape(AbstractAxet.skew(1)) == "Xskew(1)"


def test_classify_unknown():
    trivial = FiniteAxet(["p", "q", "r"], [[0, 1, 2]] * 3)
    assert classify_shape(trivial) == "unknown"


def test_classify_too_large():
    with pytest.raises(TooLarge):
        classify_shape(AbstractAxet.polygon(30), max_points=24)


def test_shape_label():
    assert shape_label("X", 4) == "X(4)"
    assert shape_label("Xskew", 3) == "Xskew(3)"


def test_realize_skew_triple():
    ex = make_3C_skew(Fraction(1, 4))
    realized = realize_axet([verify_axis(ex.algebra, ex.m_axis, ex.m_law),
                             verify_axis(ex.algebra, ex.j_axis, ex.m_law)])
    assert realized.size == 3
    assert classify_shape(realized) == "Xskew(1)"
    assert realized.points[2] == ex.third
    # the monster axis swaps the two jordan points; they fix everything
    assert realized.perm(0) == [0, 2, 1]
    assert realized.perm(1) == [0, 1, 2]
    assert realized.perm(2) == [0, 1, 2]
    assert realized.points.index(ex.third) == 2


def test_realize_decomposes_each_given_axis_once(monkeypatch):
    # one elimination per law eigenvalue and one for the inverse, per
    # axis: verify_axis and the Miyamoto map that realize_axet reads
    # from its report share one decomposition
    ex = make_3C_skew(Fraction(1, 4))
    eliminate = linalg.eliminate
    calls = []

    def counted(m, p, pivot=None):
        calls.append(m)
        return eliminate(m, p, pivot)
    monkeypatch.setattr(linalg, "eliminate", counted)
    realize_axet([verify_axis(ex.algebra, ex.m_axis, ex.m_law),
                  verify_axis(ex.algebra, ex.j_axis, ex.m_law)])
    assert len(calls) == 2 * (len(ex.m_law.eigenvalues) + 1)


def test_realize_over_q_compares_no_elements(monkeypatch):
    # over Q a point is found by its encoding, also an axis given twice,
    # so the closure loop never compares two elements
    ex = make_3C_skew(Fraction(1, 4))
    reports = [verify_axis(ex.algebra, x, ex.m_law)
               for x in (ex.m_axis, ex.j_axis, ex.m_axis)]
    assert all(r.passed for r in reports)  # a*a == a compares elements
    calls = []
    eq = Element.__eq__

    def counted(self, other):
        calls.append(other)
        return eq(self, other)
    monkeypatch.setattr(Element, "__eq__", counted)
    realized = realize_axet(reports)
    assert calls == []
    monkeypatch.undo()
    assert realized.points == [ex.m_axis, ex.j_axis, ex.third]


def test_realize_square_over_f5():
    A = make_Q2x()
    law = make_monster(A.field.coerce(Fraction(2, 3)),
                       A.field.coerce(Fraction(1, 3)))
    realized = realize_axet([verify_axis(A, A.gen(n), law) for n in "xz"])
    assert realized.size == 4
    assert classify_shape(realized) == "X(4)"
    # the rows recorded by the closure are the action of each map
    for p, m in enumerate(realized.maps):
        assert realized.perm(p) == [realized.points.index(m(q))
                                    for q in realized.points]


def test_realize_rejects_non_axes():
    ex = make_3C_skew(Fraction(1, 4))
    bad = ex.m_axis + ex.j_axis
    with pytest.raises(NotAnAxis) as info:
        realize_axet([verify_axis(ex.algebra, bad, ex.m_law)])
    assert "idempotent=False" in str(info.value)


def test_realize_respects_the_point_bound():
    A = make_Q2x()
    law = make_monster(A.field.coerce(Fraction(2, 3)),
                       A.field.coerce(Fraction(1, 3)))
    with pytest.raises(NotClosedWithinBound):
        realize_axet([verify_axis(A, A.gen(n), law) for n in "xz"],
                     max_points=3)


def test_realize_bounds_the_given_axes_too():
    A = make_3C(Fraction(1, 4))
    law = make_jordan(Fraction(1, 4))
    reports = [verify_axis(A, A.gen(n), law) for n in "xyz"]
    with pytest.raises(NotClosedWithinBound, match="exceeds 2 points"):
        realize_axet(reports, max_points=2)
    assert realize_axet(reports, max_points=3).size == 3


def test_realize_maps_each_row_with_one_product(monkeypatch):
    A = make_Q2x()
    law = make_monster(A.field.coerce(Fraction(2, 3)),
                       A.field.coerce(Fraction(1, 3)))
    bases = [verify_axis(A, A.gen(n), law) for n in "xz"]
    for basis in bases:
        basis.miyamoto  # built before counting
    calls = {"mat_mul": 0, "compose": 0}
    mat_mul, compose = linalg.mat_mul, LinearMap.compose

    def counted_mat_mul(*args):
        calls["mat_mul"] += 1
        return mat_mul(*args)

    def counted_compose(*args):
        calls["compose"] += 1
        return compose(*args)
    monkeypatch.setattr(linalg, "mat_mul", counted_mat_mul)
    monkeypatch.setattr(LinearMap, "compose", counted_compose)
    assert realize_axet(bases).size == 4
    # the first pass has the 2 given points as rows and adds 2, each with
    # a conjugated map of two compositions; the second has 4 rows
    assert calls["compose"] == 2 * 2
    assert calls["mat_mul"] - calls["compose"] == 2 + 4


def test_realized_laws_follow_orbits():
    ex = make_3C_skew(Fraction(1, 4))
    realized = realize_axet([verify_axis(ex.algebra, ex.m_axis, ex.m_law),
                             verify_axis(ex.algebra, ex.j_axis, ex.j_law)])
    # the third point is the image of the jordan axis, so it inherits
    # the jordan law
    assert realized.laws[2] is ex.j_law


def test_realize_empty_list_gives_an_empty_axet():
    realized = realize_axet([])
    assert realized.size == 0
    assert realized.points == [] and realized.perms == []
