"""Exact linear algebra over any of the scalar fields.

Matrices are lists of row lists.  ``rref`` reduces all the way to RREF
with first-nonzero pivoting, so results are deterministic for a fixed
input order; every other routine here goes through it.  Writing vectors
over a basis (or over independent vectors spanning a subspace) is done
once, by ``invert``, whose result is applied to all the vectors by one
``mat_mul`` (``StructureAlgebra.products_over`` for products), so it is
encoded once; ``solve`` is for one system.

Each field owns an encoding of its vectors in a ring: ``encode`` gives
numerators over one denominator (ints for Q, residues for F_p,
``MultiPoly`` over Z[x] for a function field) and ``decode`` builds
numerators over a denominator back into field elements.  ``rref``
encodes each row on its own, as scaling a row leaves the RREF as it is.
Over F_p it scales each pivot row to 1 and reduces every update mod p.
Over Z and Z[x] alike it runs one fraction-free Gauss-Jordan loop
(Bareiss, Math. Comp. 22, 1968, in the Gauss-Jordan form of Nakos,
Turner and Williams, SIGSAM Bull. 31, 1997): each update p*a - f*b is
divided exactly by the previous pivot (``//``, which is
``MultiPoly.exquo`` over Z[x]), so every entry stays a minor of the
encoded matrix, and decoding over the last pivot gives the RREF.  The
RREF is unique, so this is the result of elimination with field
division, with none of the swelling of unreduced rational functions.
Decoding is where common factors are cancelled over a function field:
each entry a/prev is reduced by the heuristic gcd of a and prev
(``scalars.cancel``), so ``solve``, ``invert``, ``kernel_basis`` and
everything built on them work on small fractions.  Where the heuristic
fails the entry stays unreduced; its value is the same either way, since
equality cross-multiplies.

``mat_mul`` is the one kernel that applies a matrix, to one vector as a
one-column matrix or to many as its columns.  Over every field it runs
on the encoding: the matrix is encoded once and each column on its own
(no column carries another's denominators), and each entry is one sum
of ring products, decoded over both denominators.
"""

from operator import mul


def rref(rows, field):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    # scaling a row leaves the RREF as it is, so each row is encoded alone
    m = [field.encode(r)[0] for r in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    p = field.char
    pivots = []
    prev = 1  # the previous pivot; over F_p pivot rows are scaled to 1
    r = 0
    for c in range(ncols):
        for pr in range(r, nrows):
            if m[pr][c]:
                break
        else:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        piv = prow[c]
        if p:
            if piv != 1:
                inv = pow(piv, -1, p)
                prow = m[r] = [b * inv % p for b in prow]
            for i, row in enumerate(m):
                f = row[c]
                if f and i != r:
                    m[i] = [(a - f * b) % p if b else a
                            for a, b in zip(row, prow)]
        else:
            # earlier pivot columns are zero off their own row and get
            # prev on it at the end; they are not updated
            rest = [j for j in range(ncols) if j != c and j not in pivots]
            for i, row in enumerate(m):
                if i == r:
                    continue
                f = row[c]
                row[c] = 0  # decode reads 0 as zero in any ring
                for j in rest:
                    a, b = row[j], prow[j]
                    if f and b:
                        v = piv * a - f * b
                    elif a:
                        v = piv * a
                    else:
                        continue
                    row[j] = v // prev if r else v
            prev = piv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i, c in enumerate(pivots):
        m[i][c] = prev
    return [field.decode(row, prev) for row in m], pivots


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


def mat_mul(a, b, field):
    k = len(b)
    x, xd = field.encode([e for r in a for e in r])
    rows = [x[i * k:i * k + k] for i in range(len(a))]
    # each column is encoded alone, so its denominator is its own
    cols = [field.decode([sum(map(mul, r, y)) for r in rows], xd * yd)
            for y, yd in map(field.encode, zip(*b))]
    return [list(r) for r in zip(*cols)] if cols else [[] for _ in a]


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
