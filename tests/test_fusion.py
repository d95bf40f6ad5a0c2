"""Fusion laws, their star tables, and C2 gradings."""

from fractions import Fraction

import pytest

from axetlab.fusion import (DegenerateParameter, EVEN, FusionLaw, Grading,
                            ODD, find_c2_grading, law_family, make_jordan,
                            make_monster)

THIRD = Fraction(1, 3)
TWO_THIRDS = Fraction(2, 3)


def test_jordan_star_table():
    law = make_jordan(THIRD)
    assert law.eigenvalues == [1, 0, THIRD]
    assert law.star(1, 1) == [1]
    assert law.star(1, 0) == []
    assert law.star(0, 0) == [0]
    assert law.star(1, THIRD) == [THIRD]
    assert law.star(0, THIRD) == [THIRD]
    assert law.star(THIRD, THIRD) == [1, 0]


def test_monster_star_table():
    law = make_monster(TWO_THIRDS, THIRD)
    assert law.eigenvalues == [1, 0, TWO_THIRDS, THIRD]
    assert law.star(TWO_THIRDS, TWO_THIRDS) == [1, 0]
    assert law.star(TWO_THIRDS, THIRD) == [THIRD]
    assert law.star(THIRD, THIRD) == [1, 0, TWO_THIRDS]
    assert law.star(1, TWO_THIRDS) == [TWO_THIRDS]
    assert law.star(0, TWO_THIRDS) == [TWO_THIRDS]


def test_star_is_symmetric():
    law = make_monster(TWO_THIRDS, THIRD)
    for lam in law.eigenvalues:
        for mu in law.eigenvalues:
            assert law.star(lam, mu) == law.star(mu, lam)


def test_degenerate_parameters_rejected():
    for eta in (0, 1):
        with pytest.raises(DegenerateParameter):
            make_jordan(eta)
    with pytest.raises(DegenerateParameter):
        make_monster(THIRD, THIRD)
    with pytest.raises(DegenerateParameter):
        make_monster(0, THIRD)
    with pytest.raises(DegenerateParameter):
        make_monster(THIRD, 1)


def test_unknown_eigenvalue():
    law = make_jordan(THIRD)
    with pytest.raises(KeyError):
        law.index(Fraction(1, 2))


def test_seress_recognition():
    assert make_jordan(THIRD).is_seress()
    assert make_monster(TWO_THIRDS, THIRD).is_seress()
    bad = make_jordan(THIRD)
    bad.table[(0, 1)] = frozenset({2})  # 1 * 0 must be empty
    assert not bad.is_seress()


def test_jordan_grading_puts_eta_odd():
    law = make_jordan(THIRD)
    g = find_c2_grading(law)
    assert g.is_valid()
    assert g.odd_values() == [THIRD]
    assert g.even_values() == [1, 0]


def test_monster_grading_puts_beta_odd():
    law = make_monster(TWO_THIRDS, THIRD)
    g = find_c2_grading(law)
    assert g.is_valid()
    assert g.odd_values() == [THIRD]
    assert g.even_values() == [1, 0, TWO_THIRDS]


def test_grading_uniqueness_for_monster():
    # every other nontrivial sign assignment violates some star entry
    law = make_monster(TWO_THIRDS, THIRD)
    valid = []
    for mask in range(1, 8):
        signs = [EVEN] + [ODD if (mask >> i) & 1 else EVEN for i in range(3)]
        if Grading(law, signs).is_valid():
            valid.append(signs)
    assert valid == [[EVEN, EVEN, EVEN, ODD]]


def test_grading_uniqueness_for_jordan():
    law = make_jordan(THIRD)
    valid = []
    for mask in range(1, 4):
        signs = [EVEN] + [ODD if (mask >> i) & 1 else EVEN for i in range(2)]
        if Grading(law, signs).is_valid():
            valid.append(signs)
    assert valid == [[EVEN, EVEN, ODD]]


def test_symbolic_parameters():
    from axetlab.scalars import FunctionField
    field = FunctionField(("alpha", "beta"))
    law = make_monster(field.sym("alpha"), field.sym("beta"))
    g = find_c2_grading(law)
    assert g.odd_values() == [field.sym("beta")]


def test_law_family_reads_back_the_parameters():
    assert law_family(make_jordan(THIRD)) == ("jordan", (THIRD,))
    assert law_family(make_monster(TWO_THIRDS, THIRD)) \
        == ("monster", (TWO_THIRDS, THIRD))


def test_law_family_reads_a_missing_pair_as_empty():
    # J(1/3) entered without its empty 1*0 entry is still J(1/3)
    table = {(0, 0): {0}, (0, 2): {2}, (1, 1): {1}, (1, 2): {2},
             (2, 2): {0, 1}}
    assert law_family(FusionLaw([1, 0, THIRD], table)) \
        == ("jordan", (THIRD,))


@pytest.mark.parametrize("eigenvalues, table", [
    # the J(1/3) table with eta*eta = {1} only
    ([1, 0, THIRD], {(0, 0): {0}, (0, 2): {2}, (1, 1): {1}, (1, 2): {2},
                     (2, 2): {0}}),
    # the J(1/3) table on the eigenvalues in another order
    ([0, 1, THIRD], {(1, 1): {1}, (1, 2): {2}, (0, 0): {0}, (0, 2): {2},
                     (2, 2): {0, 1}}),
    ([1, 0], {(0, 0): {0}, (1, 1): {1}}),
    ([1, 0, THIRD, TWO_THIRDS, 2], {}),
])
def test_law_family_is_none_outside_the_families(eigenvalues, table):
    assert law_family(FusionLaw(eigenvalues, table)) is None


def reference_c2_grading(law):
    """find_c2_grading's signs by enumeration on the law itself, with no
    cache: every valid nontrivial assignment with 1 even, fewest odd
    eigenvalues first, then odd values late in the list."""
    n = len(law.eigenvalues)
    best = None
    for mask in range(1, 1 << (n - 1)):
        signs = [EVEN] + [ODD if (mask >> i) & 1 else EVEN
                          for i in range(n - 1)]
        if all(signs[k] == signs[i] * signs[j]
               for i in range(n) for j in range(i, n)
               for k in law.star_indices(i, j)):
            odd = [i for i in range(n) if signs[i] == ODD]
            key = (len(odd), [-i for i in odd])
            if best is None or key < best[0]:
                best = key, tuple(signs)
    return None if best is None else best[1]


HAND_BUILT = [
    # one odd pair on five eigenvalues: both 3 and 4 must be odd
    FusionLaw([1, 0, THIRD, TWO_THIRDS, 2],
              {(0, 0): {0}, (3, 4): {2}, (3, 3): {0}, (4, 4): {1}}),
    # no nontrivial grading: 0 * 0 holds 0 and 1/3 * 1/3 holds 1/3
    FusionLaw([1, 0, THIRD], {(1, 1): {1}, (2, 2): {2}}),
    # every star set empty: the grading with only the last value odd
    FusionLaw([1, 0, THIRD, TWO_THIRDS], {}),
]


@pytest.mark.parametrize("law", [
    make_jordan(THIRD), make_jordan(Fraction(1, 4)),
    make_monster(TWO_THIRDS, THIRD), make_monster(THIRD, TWO_THIRDS),
] + HAND_BUILT)
def test_grading_matches_the_enumeration_and_keeps_its_law(law):
    want = reference_c2_grading(law)
    for _ in range(2):  # the second call is answered from the cache
        g = find_c2_grading(law)
        if want is None:
            assert g is None
            continue
        assert g.law is law
        assert g.signs == want
        assert g.is_valid()
