"""Exact linear algebra over any of the scalar fields.

Matrices are lists of row lists.  ``rref`` reduces all the way to RREF
with first-nonzero pivoting, so results are deterministic for a fixed
input order; every other routine here goes through it.  Writing vectors
over a basis (or over independent vectors spanning a subspace) is done
once, by ``invert``, whose result is applied with ``mat_vec``; ``solve``
is for one system.

Over Q and F_p it is plain Gauss-Jordan elimination with field division.
It tests for zero by truthiness and skips zero entries: a row update
leaves an entry alone where the pivot row is zero, and ``mat_vec`` and
``mat_mul`` multiply only the nonzero entries of the vector or column.
Over a function field, dividing rational functions at every step makes
their unreduced numerators and denominators swell, so ``rref`` instead
clears each row's denominators, constant ones included, and runs
fraction-free Gauss-Jordan elimination on the matrix over Z[x] (Bareiss,
Math. Comp. 22, 1968, in the Gauss-Jordan form of Nakos, Turner and
Williams, SIGSAM Bull. 31, 1997): each update is divided exactly by the
previous pivot (``MultiPoly.exquo``), so every entry stays a minor of the
cleared matrix, an integer polynomial, and one division by the last pivot
at the end gives the RREF.

That division is where common factors are cancelled: each entry a/prev of
the result is reduced by the heuristic gcd of a and prev
(``scalars.cancel``), so ``solve``, ``invert``, ``kernel_basis`` and
everything built on them work on small fractions.  Where the heuristic
fails the entry stays unreduced; its value is the same either way, since
equality cross-multiplies.
"""

from .scalars import FunctionField, MultiPoly, RationalFunction, cancel


def _copy(rows):
    return [list(r) for r in rows]


def rref(rows, field):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    if isinstance(field, FunctionField):
        return _rref_fraction_free(rows, field)
    m = _copy(rows)
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.one / m[r][c]
        m[r] = [inv * x if x else x for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b if b else a for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def _clear_denominators(row, field):
    """The row times the product of its distinct denominators, over Z[x]."""
    row = [field.coerce(x) for x in row]
    one = MultiPoly.constant(field.names, 1)
    dens = []
    for x in row:
        if x.den != one and x.den not in dens:
            dens.append(x.den)
    out = []
    for x in row:
        v = x.num
        if not v.is_zero():
            for d in dens:
                if d != x.den:
                    v = v * d
        out.append(v)
    return out


def _rref_fraction_free(rows, field):
    m = [_clear_denominators(r, field) for r in rows]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    zero = MultiPoly.constant(field.names, 0)
    pivots = []
    prev = None  # the previous pivot; None before the first
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if not m[i][c].is_zero():
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(nrows):
            if i == r:
                continue
            row = m[i]
            f = row[c]
            row[c] = zero
            # earlier pivot columns are zero off their own row, and the
            # result puts one there; they are not updated
            for j in range(ncols):
                if j == c or j in pivots:
                    continue
                a, b = row[j], prow[j]
                if f.is_zero() or b.is_zero():
                    if a.is_zero():
                        continue
                    v = p * a
                else:
                    v = p * a - f * b
                row[j] = v if prev is None else v.exquo(prev)
        pivots.append(c)
        prev = p
        r += 1
        if r == nrows:
            break
    out = []
    for i, row in enumerate(m):
        out.append([field.zero if a.is_zero()
                    else field.one if i < len(pivots) and j == pivots[i]
                    else RationalFunction(*cancel(a, prev))
                    for j, a in enumerate(row)])
    return out, pivots


def rank(rows, field):
    _, pivots = rref(rows, field)
    return len(pivots)


def kernel_basis(rows, field):
    """Basis of the right null space, one vector per free column."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [field.zero] * ncols
        v[f] = field.one
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


def solve(rows, rhs, field):
    """One solution of rows * x = rhs, or None; free coordinates are zero."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, field)
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x


def invert(rows, field):
    """For an n x k matrix M with independent columns, the n x n matrix E
    with E M = [I; 0]: the inverse when M is square.  None when the
    columns are dependent.

    E changes basis: for v in the column span, E v is v's coordinates
    over the columns followed by n - k zeros; a nonzero tail means v
    is outside the span.
    """
    n, k = len(rows), (len(rows[0]) if rows else 0)
    aug = [list(r) + [field.one if i == j else field.zero for j in range(n)]
           for i, r in enumerate(rows)]
    red, pivots = rref(aug, field)
    if pivots[:k] != list(range(k)):
        return None
    return [r[k:] for r in red]


def mat_vec(rows, vec, field):
    return [sum((a * b for a, b in zip(r, vec) if b), field.zero)
            for r in rows]


def mat_mul(a, b, field):
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(r, c) if y), field.zero) for c in bt]
            for r in a]


def identity_matrix(n, field):
    return [[field.one if i == j else field.zero for j in range(n)]
            for i in range(n)]


def transpose(rows):
    return [list(c) for c in zip(*rows)]


def in_span(vectors, v, field):
    """Whether v lies in the span of vectors (as coordinate rows)."""
    if not vectors:
        return not any(v)
    cols = transpose(vectors)
    return solve(cols, v, field) is not None


def echelon_span(vectors, field):
    """Deterministic echelonized basis of the span (nonzero RREF rows)."""
    red, pivots = rref(vectors, field)
    return red[:len(pivots)]
