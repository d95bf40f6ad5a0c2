"""Gaussian elimination over the exact fields."""

from fractions import Fraction
from functools import reduce
from operator import add, mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from axetlab import linalg
from axetlab.algebra import StructureAlgebra
from axetlab.axes import miyamoto
from axetlab.catalog import make_3C_skew
from axetlab.scalars import QQ, FunctionField, MixedFields, MultiPoly, \
    PrimeField, RationalFunction, cancel, skew_field

F5 = PrimeField(5)


def q(rows):
    return [[Fraction(x) for x in r] for r in rows]


def column(vec):
    """A vector as a one-column matrix."""
    return [[x] for x in vec]


def test_rref_identity_pivots():
    red, pivots = linalg.rref(q([[2, 0], [0, 3]]), QQ)
    assert red == q([[1, 0], [0, 1]])
    assert pivots == [0, 1]


def test_rank():
    assert linalg.rank(q([[1, 2], [2, 4], [0, 1]]), QQ) == 2


def test_kernel_basis_annihilates():
    rows = q([[1, 2, 3], [4, 5, 6]])
    basis = linalg.kernel_basis(rows, QQ)
    assert len(basis) == 1
    assert reference_mat_mul(rows, column(basis[0]), QQ) == [[0], [0]]


def test_solve_consistent():
    rows = q([[1, 1], [1, -1]])
    x = linalg.solve(rows, [Fraction(3), Fraction(1)], QQ)
    assert x == [2, 1]


def test_solve_inconsistent():
    rows = q([[1, 1], [2, 2]])
    assert linalg.solve(rows, [Fraction(1), Fraction(3)], QQ) is None


def test_invert_round_trip():
    rows = q([[1, 2], [3, 4]])
    inv = linalg.invert(rows, QQ)
    assert linalg.mat_mul(rows, inv, QQ) == linalg.identity_matrix(2, QQ)


def test_invert_singular():
    assert linalg.invert(q([[1, 2], [2, 4]]), QQ) is None


def test_in_span():
    vectors = q([[1, 0, 1], [0, 1, 1]])
    assert linalg.in_span(vectors, [Fraction(2), Fraction(3), Fraction(5)],
                          QQ)
    assert not linalg.in_span(vectors, [Fraction(0), Fraction(0),
                                        Fraction(1)], QQ)


def test_echelon_span_deterministic():
    a = linalg.echelon_span(q([[2, 4], [1, 3]]), QQ)
    b = linalg.echelon_span(q([[1, 3], [2, 4]]), QQ)
    assert a == b == q([[1, 0], [0, 1]])


def test_prime_field_elimination():
    rows = [[F5.coerce(2), F5.coerce(1)], [F5.coerce(1), F5.coerce(1)]]
    x = linalg.solve(rows, [F5.coerce(1), F5.coerce(2)], F5)
    assert reference_mat_mul(rows, column(x), F5) == [[F5.coerce(1)],
                                                      [F5.coerce(2)]]


def test_singular_over_prime_field_only():
    # determinant 5 vanishes mod 5 but not over Q
    rows = [[F5.coerce(2), F5.coerce(1)], [F5.coerce(1), F5.coerce(3)]]
    assert linalg.invert(rows, F5) is None
    assert linalg.invert(q([[2, 1], [1, 3]]), QQ) is not None


entries = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def matrices(n):
    return st.lists(st.lists(entries, min_size=n, max_size=n),
                    min_size=n, max_size=n)


@given(matrices(3), st.lists(entries, min_size=3, max_size=3))
@settings(max_examples=60)
def test_solve_solutions_verify(rows, rhs):
    x = linalg.solve(rows, rhs, QQ)
    if x is not None:
        assert reference_mat_mul(rows, column(x), QQ) == column(rhs)


@given(matrices(3))
@settings(max_examples=60)
def test_kernel_vectors_annihilate(rows):
    for v in linalg.kernel_basis(rows, QQ):
        assert reference_mat_mul(rows, column(v), QQ) == [[0], [0], [0]]
    assert linalg.rank(rows, QQ) + len(linalg.kernel_basis(rows, QQ)) == 3


def tall_matrices():
    """3 x k matrices, k = 1, 2, 3."""
    return st.integers(1, 3).flatmap(lambda k: st.lists(
        st.lists(entries, min_size=k, max_size=k), min_size=3, max_size=3))


@given(tall_matrices())
@example(q([[1, 2], [2, 4], [3, 6]]))
@example(q([[0], [0], [0]]))
@settings(max_examples=90)
def test_inverse_multiplies_to_identity(rows):
    k = len(rows[0])
    inv = linalg.invert(rows, QQ)
    assert (inv is None) == (linalg.rank(rows, QQ) < k)
    if inv is not None:
        # E M = [I; 0], and E is a two-sided inverse when M is square
        assert linalg.mat_mul(inv, rows, QQ) \
            == [r[:k] for r in linalg.identity_matrix(3, QQ)]
        if k == 3:
            assert linalg.mat_mul(rows, inv, QQ) \
                == linalg.identity_matrix(3, QQ)


# -- function fields: fraction-free elimination ------------------------------

FXY = FunctionField(("x", "y"))
X, Y = FXY.sym("x"), FXY.sym("y")
DENOMINATORS = (X + 1, Y - 2, X * Y + 1, X - Y)


def lowest_terms(x):
    """A rational function with its common factor cancelled (``cancel``);
    other scalars as they are."""
    if isinstance(x, RationalFunction):
        return RationalFunction(*cancel(x.num, x.den))
    return x


def _gcd(p, q):
    """A gcd of p and q by ``MultiPoly.gcd``, or None when the heuristic
    fails; p itself when q = +-p, as for a pivot times its inverse, where
    the heuristic fails on large operands."""
    if p.terms == q.terms or p.terms == (-q).terms:
        return p
    return p.gcd(q)


def _exquo(p, h):
    """p divided by h, a gcd from ``_gcd``; None (the heuristic failed)
    divides nothing out."""
    return p if h is None else p.exquo(h)


def times(a, b):
    """a * b, in lowest terms for rational functions in lowest terms by
    Henrici's rule (Knuth, TAOCP 2, 4.5.1): each gcd is taken on one
    numerator and one denominator, never on the whole product."""
    if not isinstance(a, RationalFunction) or not (a and b):
        return a * b
    g, h = _gcd(a.num, b.den), _gcd(b.num, a.den)
    return RationalFunction(_exquo(a.num, g) * _exquo(b.num, h),
                            _exquo(a.den, h) * _exquo(b.den, g))


def minus(a, b):
    """a - b, in lowest terms for rational functions in lowest terms by
    Henrici's rule: over the lcm of the denominators, then divided by
    the gcd of that numerator with the gcd of the denominators."""
    if not isinstance(a, RationalFunction) or not (a and b):
        return a - b
    d = _gcd(a.den, b.den)
    ad, bd = _exquo(a.den, d), _exquo(b.den, d)
    t = a.num * bd - b.num * ad
    e = _gcd(t, d) if t and d is not None else None
    return RationalFunction(_exquo(t, e), ad * _exquo(b.den, e))


def field_division_rref(rows, field):
    """Gauss-Jordan with field division, the reference for rref.  Over a
    function field every entry is kept in lowest terms (``times`` and
    ``minus``), so that it stays as small as the RREF entry it becomes
    and the comparison with rref multiplies small polynomials."""
    m = [[lowest_terms(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pr = next((i for i in range(r, len(m)) if m[i][c] != field.zero),
                  None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.one / m[r][c]
        m[r] = [times(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != field.zero:
                f = m[i][c]
                m[i] = [minus(a, times(f, b)) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


small = st.integers(-2, 2)
numerators = st.tuples(small, small, small).map(
    lambda t: t[0] + t[1] * X + t[2] * Y)
rational_functions = st.one_of(
    st.just(FXY.zero),
    small.map(FXY.coerce),
    st.tuples(numerators, st.sampled_from(DENOMINATORS)).map(
        lambda t: t[0] / t[1]))


@st.composite
def ff_matrices(draw, max_rows=4, max_cols=5):
    nrows = draw(st.integers(2, max_rows))
    ncols = draw(st.integers(2, max_cols))
    rows = [[draw(rational_functions) for _ in range(ncols)]
            for _ in range(nrows)]
    if draw(st.booleans()):
        # rank deficient: the last row repeats a combination of the first
        a, b = draw(small), draw(small)
        rows[-1] = [a * u + b * v for u, v in zip(rows[0], rows[1])]
    for c in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[c] = FXY.zero
    return rows


@given(ff_matrices())
@settings(max_examples=30, deadline=None)
def test_function_field_rref_matches_field_division(rows):
    red, pivots = linalg.rref(rows, FXY)
    expect, expect_pivots = field_division_rref(rows, FXY)
    assert pivots == expect_pivots
    assert red == expect


@given(ff_matrices(3, 4), st.lists(rational_functions, min_size=3,
                                   max_size=3))
@settings(max_examples=25, deadline=None)
def test_function_field_solve_checks_out(rows, rhs):
    rhs = rhs[:len(rows)]
    x = linalg.solve(rows, rhs, FXY)
    if x is None:
        assert linalg.rank(rows, FXY) < linalg.rank(
            [r + [b] for r, b in zip(rows, rhs)], FXY)
    else:
        assert reference_mat_mul(rows, column(x), FXY) == column(rhs)
    for v in linalg.kernel_basis(rows, FXY):
        assert reference_mat_mul(rows, column(v), FXY) \
            == [[FXY.zero]] * len(rows)


@given(st.integers(2, 3).flatmap(lambda n: st.lists(
    st.lists(rational_functions, min_size=n, max_size=n),
    min_size=n, max_size=n)))
@settings(max_examples=25, deadline=None)
def test_function_field_invert_round_trips(rows):
    # for square matrices a right inverse is the inverse
    n = len(rows)
    inv = linalg.invert(rows, FXY)
    if inv is None:
        assert linalg.rank(rows, FXY) < n
    else:
        assert linalg.mat_mul(rows, inv, FXY) \
            == linalg.identity_matrix(n, FXY)


def test_function_field_rref_cancels_its_entries():
    field = FunctionField(("alpha",))
    a = field.sym("alpha")
    # Bareiss ends on the pivot alpha*(alpha + 1); the RREF entries are
    # alpha/(alpha + 1) and 1/(alpha + 1) in lowest terms
    red, pivots = linalg.rref([[a + 1, field.zero, a], [a, a, a]], field)
    assert pivots == [0, 1]
    assert red[0][2] == a / (a + 1) and red[1][2] == 1 / (a + 1)
    assert red[0][2].den == red[1][2].den == (a + 1).num


def test_miyamoto_over_a_function_field_stays_small():
    field = FunctionField(("alpha",))
    ex = make_3C_skew(field.sym("alpha"), field)
    tau = miyamoto(ex.algebra, ex.m_axis, ex.m_law)
    for row in tau.matrix:
        for entry in row:
            assert entry.num.degree_in("alpha") <= 2
            assert entry.den.degree_in("alpha") <= 2


def test_function_field_rref_pivots_and_free_columns():
    rows = [[FXY.zero, X / (Y - 2), FXY.one, Y],
            [FXY.zero, X * X / (X + 1), X / (X + 1), FXY.zero],
            [FXY.zero, FXY.zero, FXY.zero, FXY.zero]]
    red, pivots = linalg.rref(rows, FXY)
    assert pivots == [1, 2]
    assert red == field_division_rref(rows, FXY)[0]
    assert red[0][1] == red[1][2] == FXY.one
    assert red[2] == [FXY.zero] * 4


# -- function fields: the sparsest pivot -------------------------------------

def test_the_pivot_rule_takes_the_sparsest_entry():
    x, y = (MultiPoly.variable(FXY.names, n) for n in FXY.names)
    # fewest terms first, then the smaller leading key, then the first
    assert FXY.pivot([0, x + y + 1, x * y, 0]) == 2
    assert FXY.pivot([x + 1, y + 1, x - 1]) == 1
    assert FXY.pivot([x * 0, 0]) is None
    assert QQ.pivot is None and F5.pivot is None


SKEW = skew_field()
SKEW_SYMS = [SKEW.sym(n) for n in SKEW.names]
SKEW_DENOMINATORS = (SKEW_SYMS[0], SKEW_SYMS[1], SKEW_SYMS[0] - SKEW_SYMS[1],
                     SKEW_SYMS[0] + 1)


def sparse_and_dense(field, syms, denominators):
    """Entries of 1 to 4 terms over the symbols, over a few denominators,
    so that the first nonzero entry of a column is often not the sparsest."""
    term = st.tuples(st.sampled_from([-2, -1, 1, 3]),
                     st.lists(st.sampled_from(syms), max_size=2)).map(
        lambda t: t[0] * reduce(mul, t[1], field.one))
    numerator = st.lists(term, min_size=1, max_size=4).map(
        lambda ts: reduce(add, ts))
    return st.one_of(
        st.just(field.zero), numerator,
        st.tuples(numerator, st.sampled_from(denominators)).map(
            lambda t: t[0] / t[1]))


@st.composite
def sparse_pivot_cases(draw):
    """(field, rows, rhs) over Q(x, y) or Q(the eight skew symbols)."""
    if draw(st.booleans()):
        field, entry = FXY, sparse_and_dense(FXY, [X, Y], DENOMINATORS)
    else:
        field, entry = SKEW, sparse_and_dense(SKEW, SKEW_SYMS,
                                              SKEW_DENOMINATORS)
    nrows, ncols = draw(st.integers(2, 3)), draw(st.integers(2, 4))
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    if draw(st.booleans()):  # rank deficient
        a, b = draw(small), draw(small)
        rows[-1] = [a * u + b * v for u, v in zip(rows[0], rows[1])]
    return field, rows, [draw(entry) for _ in range(nrows)]


@given(sparse_pivot_cases())
@settings(max_examples=60, deadline=None)
def test_sparsest_pivots_give_the_first_nonzero_results(case):
    # the references pivot on the first nonzero entry with field division
    field, rows, rhs = case
    assert linalg.rref(rows, field) == field_division_rref(rows, field)
    assert linalg.solve(rows, rhs, field) == reference_solve(rows, rhs, field)
    assert linalg.kernel_basis(rows, field) == reference_kernel(rows, field)


# -- Q and F_p: integer kernels -----------------------------------------------

INT_FIELDS = (QQ, PrimeField(5), PrimeField(7), PrimeField(1000000007))
raw_entries = st.one_of(st.just(0), st.integers(-4, 4),
                        st.fractions(min_value=-4, max_value=4,
                                     max_denominator=4))


@st.composite
def int_field_matrices(draw, tall=False):
    """(field, matrix) over Q or F_p: entries mix field elements, ints and
    Fractions, and some rows and columns are zero.  A tall matrix has no
    more columns than rows."""
    field = draw(st.sampled_from(INT_FIELDS))
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, nrows if tall else 5))
    entry = raw_entries.flatmap(
        lambda x: st.sampled_from([x, field.coerce(x)]))
    m = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=1)):
        m[i] = [0] * ncols
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in m:
            row[j] = field.zero
    return field, m


def coerced(rows, field):
    return [[field.coerce(x) for x in r] for r in rows]


def assert_field_elements(rows, field):
    assert all(type(x) is type(field.one) for r in rows for x in r)
    if isinstance(field, PrimeField):
        assert all(x.p == field.p for r in rows for x in r)


def reference_kernel(rows, field):
    red, pivots = field_division_rref(coerced(rows, field), field)
    basis = []
    for f in range(len(rows[0])):
        if f not in pivots:
            v = [field.zero] * len(rows[0])
            v[f] = field.one
            for r, c in enumerate(pivots):
                v[c] = -red[r][f]
            basis.append(v)
    return basis


def reference_solve(rows, rhs, field):
    n = len(rows[0])
    red, pivots = field_division_rref(
        coerced([list(r) + [b] for r, b in zip(rows, rhs)], field), field)
    if n in pivots:
        return None
    x = [field.zero] * n
    for r, c in enumerate(pivots):
        x[c] = red[r][n]
    return x


def reference_invert(rows, field):
    n, k = len(rows), len(rows[0])
    red, pivots = field_division_rref(
        coerced([list(r) + [int(i == j) for j in range(n)]
                 for i, r in enumerate(rows)], field), field)
    return [r[k:] for r in red] if pivots[:k] == list(range(k)) else None


def reference_mat_mul(a, b, field):
    return [[sum((field.coerce(x) * field.coerce(y) for x, y in zip(r, c)),
                 field.zero) for c in zip(*b)] for r in a]


@given(int_field_matrices())
@example((QQ, [[0, 0], [0, 0]]))
@example((PrimeField(5), [[Fraction(1, 2), 3, 0], [2, 1, 4]]))
@settings(max_examples=120, deadline=None)
def test_rref_over_q_and_fp_matches_field_division(case):
    field, rows = case
    red, pivots = linalg.rref(rows, field)
    assert (red, pivots) == field_division_rref(coerced(rows, field), field)
    assert_field_elements(red, field)
    assert linalg.rank(rows, field) == len(pivots)
    assert linalg.echelon_span(rows, field) == red[:len(pivots)]


@given(int_field_matrices())
@settings(max_examples=80, deadline=None)
def test_kernel_basis_over_q_and_fp_matches_the_reference(case):
    field, rows = case
    basis = linalg.kernel_basis(rows, field)
    assert basis == reference_kernel(rows, field)
    assert_field_elements(basis, field)


@given(int_field_matrices().flatmap(lambda case: st.tuples(
    st.just(case), st.lists(raw_entries, min_size=len(case[1]),
                            max_size=len(case[1])))))
@settings(max_examples=80, deadline=None)
def test_solve_over_q_and_fp_matches_the_reference(case):
    (field, rows), rhs = case
    x = linalg.solve(rows, rhs, field)
    assert x == reference_solve(rows, rhs, field)
    if x is not None:
        assert_field_elements([x], field)


@given(int_field_matrices(tall=True))
@settings(max_examples=80, deadline=None)
def test_invert_over_q_and_fp_matches_the_reference(case):
    field, rows = case
    inv = linalg.invert(rows, field)
    assert inv == reference_invert(rows, field)
    if inv is not None:
        assert_field_elements(inv, field)


@st.composite
def mat_mul_cases(draw):
    """(field, a, b) over Q, F_p or Q(x, y); b has 0 to 3 columns."""
    if draw(st.booleans()):
        (field, a), entry = draw(int_field_matrices()), raw_entries
    else:
        field, a, entry = FXY, draw(ff_matrices()), rational_functions
    m = draw(st.integers(0, 3))
    return field, a, [[draw(entry) for _ in range(m)] for _ in a[0]]


@given(mat_mul_cases())
@settings(max_examples=80, deadline=None)
def test_mat_mul_matches_the_reference(case):
    # == cross-multiplies, so the stored forms do not matter
    field, a, b = case
    got = linalg.mat_mul(a, b, field)
    assert got == reference_mat_mul(a, b, field)
    assert_field_elements(got, field)


F7 = PrimeField(7)
ONE7, FOREIGN = F7.one, F5.coerce(2)  # an F_5 entry among F_7 ones
MIXED = [[ONE7, FOREIGN], [ONE7, ONE7]]


@pytest.mark.parametrize("kernel", [
    lambda: linalg.rref(MIXED, F7),
    lambda: linalg.rank(MIXED, F7),
    lambda: linalg.kernel_basis(MIXED, F7),
    lambda: linalg.echelon_span(MIXED, F7),
    lambda: linalg.invert(MIXED, F7),
    lambda: linalg.solve(MIXED, [ONE7, ONE7], F7),
    lambda: linalg.solve([[ONE7, ONE7]], [FOREIGN], F7),
    lambda: linalg.mat_mul(MIXED, [[ONE7], [ONE7]], F7),
    lambda: linalg.mat_mul([[ONE7, ONE7]], MIXED, F7),
    lambda: StructureAlgebra(F7, ["e"], {(0, 0): [ONE7]}).multiply_coords(
        [FOREIGN], [ONE7]),
], ids=["rref", "rank", "kernel_basis", "echelon_span", "invert", "solve",
        "solve_rhs", "mat_mul", "mat_mul_right",
        "multiply_coords"])
def test_a_foreign_prime_field_entry_raises_mixed_fields(kernel):
    with pytest.raises(MixedFields):
        kernel()
