"""Exact linear algebra over any of the scalar fields.

Matrices are lists of row lists.  ``rref`` reduces all the way to RREF,
which is unique, so results do not depend on the pivot rows chosen;
every other routine here goes through its ring stage, ``eliminate``.
Writing vectors over a basis (or over independent vectors spanning a
subspace) is done once, by ``invert``, whose result is applied to all
the vectors by one ``apply_encoded`` (``StructureAlgebra.products_over``
for products), so it is encoded once; ``solve`` is for one system.

Each field owns an encoding of its vectors in a ring: ``encode`` gives
numerators over one denominator (ints for Q, residues for F_p,
``MultiPoly`` over Z[x] for a function field) and ``decode`` builds
numerators over a denominator back into field elements.  ``rref``
encodes each row on its own, as scaling a row leaves the RREF as it is,
runs ``eliminate`` on the encoded rows and decodes them over the last
pivot.  Each field also names its pivot rule (``field.pivot``): over Q
and F_p the first nonzero entry of the column, with no added work per
column; over Z[x] the entry with the fewest terms, then the smallest
leading key, then the first, since every update multiplies by the pivot
and a sparse one keeps the minors small.  Over F_p ``eliminate`` scales
each pivot row to 1 and reduces every update mod p.  Over Z and Z[x]
alike it runs one fraction-free Gauss-Jordan loop (Bareiss, Math. Comp.
22, 1968, in the Gauss-Jordan form of Nakos, Turner and Williams, SIGSAM
Bull. 31, 1997): each update p*a - f*b is divided exactly by the
previous pivot (``//``, which is ``MultiPoly.exquo`` over Z[x]), so
every entry stays a minor of the encoded matrix, and decoding over the
last pivot gives the RREF.  The RREF is unique, so this is the result of
elimination with field division, with none of the swelling of unreduced
rational functions.  Decoding is where common factors are cancelled
over a function field: each entry a/prev is reduced by the heuristic gcd
of a and prev (``scalars.cancel``), so ``solve``, ``invert``,
``kernel_basis`` and everything built on them work on small fractions.
Where the heuristic fails the entry stays unreduced; its value is the
same either way, since equality cross-multiplies.

``encoded_kernel`` is ``kernel_basis`` on rows that are already encoded
(``StructureAlgebra.eigenspaces`` builds them from the integer table
over Q and F_p): it decodes only the kernel vectors, never the RREF.

``apply_encoded`` is the one kernel that applies a matrix, to columns
given encoded; ``mat_mul`` encodes each column of its right factor and
calls it.  Over every field the matrix is encoded once and each column
on its own (no column carries another's denominators), and each entry
is one sum of ring products, decoded over both denominators.
"""

from operator import mul


def rref(rows, field):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    # scaling a row leaves the RREF as it is, so each row is encoded alone
    m = [field.encode(r)[0] for r in rows]
    pivots, prev = eliminate(m, field.char, field.pivot)
    return [field.decode(row, prev) for row in m], pivots


def eliminate(m, p, pivot=None):
    """The ring stage of ``rref``, in place on the encoded rows m (over
    F_p, p > 0, residues in range(p); over Z or Z[x], p = 0, any scaling
    of each row).  Returns (pivots, prev): m becomes the RREF with every
    entry multiplied by prev.

    pivot is the field's rule (``field.pivot``): given the entries of a
    column from row r down, the index among them of the pivot row, or
    None when all are zero.  With no rule the first nonzero entry is the
    pivot.  Any nonzero entry gives the same RREF."""
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots = []
    prev = 1  # the previous pivot; over F_p pivot rows are scaled to 1
    r = 0
    for c in range(ncols):
        if pivot is None:
            for pr in range(r, nrows):
                if m[pr][c]:
                    break
            else:
                continue
        else:
            pr = pivot([row[c] for row in m[r:]])
            if pr is None:
                continue
            pr += r
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
    return pivots, prev


def rank(rows, field):
    _, pivots = rref(rows, field)
    return len(pivots)


def kernel_basis(rows, field):
    """Basis of the right null space, one vector per free column."""
    if not rows:
        return []
    return encoded_kernel([field.encode(r)[0] for r in rows], field)


def encoded_kernel(m, field):
    """``kernel_basis`` of the matrix whose encoded rows are m, as
    ``eliminate`` takes them; m is eliminated in place.  Only the kernel
    vectors are decoded: for the free column f, v_f = prev and
    v_c = -m[r][f] on the pivot column c of row r, over prev."""
    pivots, prev = eliminate(m, field.char, field.pivot)
    ncols = len(m[0]) if m else 0
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = prev
        for r, c in enumerate(pivots):
            v[c] = -m[r][f]
        basis.append(field.decode(v, prev))
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
    cols = apply_encoded(a, map(field.encode, zip(*b)), field)
    return [list(r) for r in zip(*cols)] if cols else [[] for _ in a]


def apply_encoded(a, cols, field):
    """a times each column of cols, given encoded as (nums, den): a is
    encoded once and each product is decoded over den and a's own
    denominator, so no column carries another's denominators."""
    x, xd = field.encode([e for r in a for e in r])
    k = len(a[0]) if a else 0
    rows = [x[i * k:i * k + k] for i in range(len(a))]
    return [field.decode([sum(map(mul, r, y)) for r in rows], xd * yd)
            for y, yd in cols]


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
