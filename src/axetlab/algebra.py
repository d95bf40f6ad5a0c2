"""Finite dimensional commutative algebras given by structure constants.

A ``StructureAlgebra`` stores, over one of the exact fields, the products
of all basis pairs; ``Element`` is a coordinate vector with operator
overloading; ``LinearMap`` is a matrix between two algebras.  On top of
that live the operations the rest of the package is built from: adjoint
action, eigenspaces, subalgebra closure, identity search, ideal
quotients, adjoining an identity, coefficient specialization, and the
isomorphism check used to certify classification outcomes.  Spans,
quotients, that check and ``axes.Eigenbasis`` write products over a
basis with one kernel, ``products_over``.

The table is read-only (tuples), so the integer copy made once over Q
and F_p always agrees with it; a changed table is a new algebra
(``papersuite.perturbed``).  Over Q and F_p one loop on that copy,
``_ring_product``, forms every product: ``multiply_coords``, the ring
matrix of ad_a (``encoded_adjoint``) and ``products_over``.  There
``eigenspaces`` and ``products_over`` stay on the ring encoding from
ad_a to the product table: each eigenspace is the kernel of an integer
matrix, taken by ``linalg.encoded_kernel``, and each eigenvector and
the inverse are encoded once, so each table column is decoded once.
Over a function field each coordinate of a product collects its terms
(products of stored rational functions) and sums them once, over the
product of their distinct denominators (``FunctionField.encode``), and
ad_a is a ``LinearMap`` decoded before ``eigenspace``.
"""

from . import linalg
from .scalars import FunctionField, MixedFields, RationalFunction


class DimensionMismatch(ValueError):
    pass


class NotProperIdeal(ValueError):
    pass


class StructureAlgebra:
    """Commutative algebra with an explicit multiplication table.

    products[i][j] is the coordinate tuple of the product of basis
    elements i and j; the table is stored fully symmetrized.
    """

    def __init__(self, field, basis_names, products):
        self.field = field
        self.basis_names = tuple(basis_names)
        self.dim = len(self.basis_names)
        if len(set(self.basis_names)) != self.dim:
            raise ValueError("duplicate basis names: %r" % (self.basis_names,))
        table = [[None] * self.dim for _ in range(self.dim)]
        for (i, j), coords in products.items():
            coords = [field.coerce(c) for c in coords]
            if len(coords) != self.dim:
                raise DimensionMismatch("product entry (%d, %d) has length %d"
                                        % (i, j, len(coords)))
            if table[i][j] is not None and table[i][j] != coords:
                raise ValueError("conflicting entries for pair (%d, %d)" % (i, j))
            table[i][j] = coords
            table[j][i] = coords
        zero = (field.zero,) * self.dim
        self.products = tuple(tuple(zero if c is None else tuple(c)
                                    for c in row) for row in table)
        self._int_table = None
        if not isinstance(field, FunctionField):
            # each product as its nonzero (k, numerator) pairs, all over
            # one common denominator
            n = self.dim
            nums, den = field.encode([c for row in self.products
                                      for coords in row for c in coords])
            self._int_table = den, [[
                [(k, s) for k, s in enumerate(nums[x:x + n]) if s]
                for x in range(i * n * n, (i + 1) * n * n, n)]
                for i in range(n)]

    @classmethod
    def from_table(cls, field, basis_names, table):
        """Build from a readable table: (name, name) -> {name: coefficient}.

        Missing pairs are zero; coefficients may be ints or Fractions and
        are coerced into the field.
        """
        basis_names = tuple(basis_names)
        index = {n: i for i, n in enumerate(basis_names)}
        products = {}
        for (a, b), combo in table.items():
            coords = [field.zero] * len(basis_names)
            for name, c in combo.items():
                coords[index[name]] = field.coerce(c)
            products[(index[a], index[b])] = coords
        return cls(field, basis_names, products)

    # -- element construction ------------------------------------------

    @property
    def zero(self):
        return Element(self, [self.field.zero] * self.dim)

    def element(self, coords):
        """Element from a coordinate list or a {basis name: value} mapping."""
        if isinstance(coords, dict):
            vec = [self.field.zero] * self.dim
            index = {n: i for i, n in enumerate(self.basis_names)}
            for name, c in coords.items():
                vec[index[name]] = self.field.coerce(c)
            return Element(self, vec)
        if len(coords) != self.dim:
            raise DimensionMismatch("expected %d coordinates" % self.dim)
        return Element(self, [self.field.coerce(c) for c in coords])

    def gen(self, name):
        i = self.basis_names.index(name)
        vec = [self.field.zero] * self.dim
        vec[i] = self.field.one
        return Element(self, vec)

    def basis(self):
        return [self.gen(n) for n in self.basis_names]

    # -- multiplication -------------------------------------------------

    def multiply_coords(self, u, v):
        """Coordinates of u*v; zero coordinates and zero structure
        constants are skipped, never multiplied.  Over a function field
        each coordinate is one sum of its terms (``_sum``)."""
        field = self.field
        if self._int_table is not None:
            u, ud = field.encode(u)
            v, vd = field.encode(v)
            return field.decode(self._ring_product(u, v),
                                self._int_table[0] * ud * vd)
        terms = [[] for _ in range(self.dim)]
        support = [(j, b) for j, b in enumerate(v) if b]
        for i, a in enumerate(u):
            if not a:
                continue
            table = self.products[i]
            for j, b in support:
                c = a * b
                for k, s in enumerate(table[j]):
                    if s:
                        terms[k].append(c * s)
        return [_sum(field, t) for t in terms]

    def _ring_product(self, u, v):
        """The numerators of u*v over den * ud * vd, for u and v encoded
        as numerators over ud and vd and den the table's denominator
        (Q and F_p only); zero coordinates are skipped."""
        table = self._int_table[1]
        out = [0] * self.dim
        support = [(j, b) for j, b in enumerate(v) if b]
        for i, a in enumerate(u):
            if not a:
                continue
            row = table[i]
            for j, b in support:
                c = a * b
                for k, s in row[j]:
                    out[k] += c * s
        return out

    def adjoint(self, a):
        """ad_a as a LinearMap: x -> a*x."""
        cols = [self.multiply_coords(a.coords, self.gen(n).coords)
                for n in self.basis_names]
        matrix = linalg.transpose(cols)
        return LinearMap(self, self, matrix)

    def eigenspace(self, m, lam):
        """Basis of ker(m - lam) as elements, deterministic order."""
        shifted = [[x - lam if i == j else x for j, x in enumerate(r)]
                   for i, r in enumerate(m.matrix)]
        return [Element(self, v) for v in linalg.kernel_basis(shifted, self.field)]

    def encoded_adjoint(self, a):
        """(rows, den): the matrix of ad_a as ring numerators over den, from
        one ``encode`` of a (Q and F_p only)."""
        u, ud = self.field.encode(a.coords)
        unit = [0] * self.dim
        cols = []
        for j in range(self.dim):
            unit[j] = 1
            cols.append(self._ring_product(u, unit))
            unit[j] = 0
        return linalg.transpose(cols), self._int_table[0] * ud

    def eigenspaces(self, a, lams):
        """The bases of ker(ad_a - lam) for each of lams, as by
        ``eigenspace``.  Over Q and F_p they stay on the ring encoding:
        for lam = p/q and ad_a = rows/den, the kernel of q*rows - p*den*I
        (reduced mod the characteristic) is taken by ``encoded_kernel``,
        which decodes only the kernel vectors."""
        field = self.field
        if self._int_table is None:
            ad = self.adjoint(a)
            return [self.eigenspace(ad, lam) for lam in lams]
        rows, den = self.encoded_adjoint(a)
        char = field.char
        spaces = []
        for lam in lams:
            (p,), q = field.encode([lam])
            shift = p * den
            m = [[q * x - shift if i == j else q * x
                  for j, x in enumerate(r)] for i, r in enumerate(rows)]
            if char:
                m = [[x % char for x in r] for r in m]
            spaces.append([Element(self, v)
                           for v in linalg.encoded_kernel(m, field)])
        return spaces

    # -- structural operations -------------------------------------------

    def _closure(self, gens, factors):
        """Echelonized basis of the smallest space containing gens and
        closed under multiplication by factors (the space itself when
        factors is None)."""
        basis = linalg.echelon_span([g.coords for g in gens], self.field)
        while True:
            new = list(basis)
            for u in basis:
                for v in (basis if factors is None else factors):
                    new.append(self.multiply_coords(u, v))
            new = linalg.echelon_span(new, self.field)
            if len(new) == len(basis):
                return [Element(self, v) for v in new]
            basis = new

    def subalgebra_closure(self, gens):
        """Echelonized basis of the subalgebra generated by gens."""
        return self._closure(gens, None)

    def ideal_closure(self, gens):
        """Echelonized basis of the ideal generated by gens."""
        return self._closure(gens, [b.coords for b in self.basis()])

    def _left_rows(self):
        """The matrix of x -> (x*b_0, ..., x*b_n-1), one row per (i, k)."""
        return [[self.products[j][i][k] for j in range(self.dim)]
                for i in range(self.dim) for k in range(self.dim)]

    def find_identity(self):
        """The identity element, or None.  Solves e*b_i = b_i for all i."""
        rhs = [self.field.one if k == i else self.field.zero
               for i in range(self.dim) for k in range(self.dim)]
        x = linalg.solve(self._left_rows(), rhs, self.field)
        return None if x is None else Element(self, x)

    def annihilator(self):
        """Basis of {x : x*A = 0}."""
        return [Element(self, v)
                for v in linalg.kernel_basis(self._left_rows(), self.field)]

    def quotient(self, gens, keep=None, names=None):
        """Quotient by the ideal generated by gens.

        keep optionally lists the indices of basis elements whose cosets
        form the quotient basis (they must complement the ideal); by
        default the non-pivot columns of the ideal's RREF are kept.
        Returns the quotient StructureAlgebra.
        """
        ideal = [g.coords for g in self.ideal_closure(gens)]
        red, pivots = linalg.rref(ideal, self.field)
        ideal = red[:len(pivots)]
        if len(ideal) == self.dim:
            raise NotProperIdeal("the ideal is the whole algebra")
        if keep is None:
            keep = [c for c in range(self.dim) if c not in pivots]
        if len(keep) + len(ideal) != self.dim:
            raise DimensionMismatch("keep does not complement the ideal")
        # columns: kept representatives then the ideal basis; the first
        # rows of the inverse read off the coset coordinates
        cols = [self.gen(self.basis_names[k]).coords for k in keep] + ideal
        inv = linalg.invert(linalg.transpose(cols), self.field)
        if inv is None:
            raise DimensionMismatch("keep does not complement the ideal")
        if names is None:
            names = [self.basis_names[k] for k in keep]
        return StructureAlgebra(self.field, names, self.products_over(
            cols[:len(keep)], inv[:len(keep)]))

    def adjoin_identity(self, name="one"):
        """The algebra with an identity adjoined as the last basis element."""
        if name in self.basis_names:
            raise ValueError("basis name %r already taken" % name)
        n, zero, one = self.dim, self.field.zero, self.field.one
        products = {(i, j): list(self.products[i][j]) + [zero]
                    for i in range(n) for j in range(i, n)}
        for i in range(n + 1):  # b_i one = b_i, and one one = one
            products[(i, n)] = [one if k == i else zero for k in range(n + 1)]
        return StructureAlgebra(self.field, self.basis_names + (name,),
                                products)

    def map_coefficients(self, fn, field):
        """New algebra over field with every structure constant mapped."""
        return StructureAlgebra(field, self.basis_names, {
            (i, j): [fn(c) for c in self.products[i][j]]
            for i in range(self.dim) for j in range(i, self.dim)})

    def specialize(self, assignment, field):
        """Evaluate rational-function structure constants at a point."""
        return self.map_coefficients(lambda c: c.evaluate(assignment, field),
                                     field)

    def span_subalgebra(self, vectors, names):
        """The subalgebra on an independent, multiplication-closed span,
        written on vectors; with a basis of A it is A on a new basis."""
        n, cols = len(vectors), [v.coords for v in vectors]
        inv = linalg.invert(linalg.transpose(cols), self.field)
        if inv is None:
            raise DimensionMismatch("the vectors are dependent")
        table = self.products_over(cols, inv)
        if any(any(x[n:]) for x in table.values()):
            raise ValueError("the span is not closed under multiplication")
        return StructureAlgebra(self.field, names,
                                {pair: x[:n] for pair, x in table.items()})

    def products_over(self, vectors, inverse):
        """{(i, j): inverse * (v_i v_j)} for i <= j over coordinate lists,
        by one ``linalg.apply_encoded``, so the inverse is encoded once.
        Over Q and F_p each vector is encoded once and the products are
        formed on the ring encoding, so each column is decoded once.
        With inverse from ``linalg.invert``, the tail past len(vectors)
        holds the coordinates outside the span of the vectors."""
        field, n = self.field, len(vectors)
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        if self._int_table is None:
            prods = (field.encode(self.multiply_coords(vectors[i], vectors[j]))
                     for i, j in pairs)
        else:
            den = self._int_table[0]
            enc = [field.encode(v) for v in vectors]
            prods = ((self._ring_product(enc[i][0], enc[j][0]),
                      den * enc[i][1] * enc[j][1]) for i, j in pairs)
        cols = linalg.apply_encoded(inverse, prods, field)
        return dict(zip(pairs, map(tuple, cols)))

    def same_table(self, other):
        """Coefficient-exact comparison of basis names and all products."""
        return (self.basis_names == other.basis_names
                and self.products == other.products)

    def __repr__(self):
        return "StructureAlgebra(%r, dim %d over %r)" % (
            list(self.basis_names), self.dim, self.field)


def _sum(field, terms):
    """The sum of function-field elements, formed once over the product
    of their distinct denominators (``FunctionField.encode``), where
    adding them in turn would multiply the same denominators in again."""
    if len(terms) < 2:
        return terms[0] if terms else field.zero
    nums, den = field.encode(terms)
    return RationalFunction(sum(nums[1:], nums[0]), den)


class Element:
    """A coordinate vector in a StructureAlgebra, with operator syntax."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = list(coords)

    def coeff(self, name):
        return self.coords[self.algebra.basis_names.index(name)]

    def _check(self, other):
        if not isinstance(other, Element):
            return None
        if other.algebra is not self.algebra:
            raise MixedFields("elements of different algebras")
        return other

    def __add__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return Element(self.algebra, [a + b for a, b in zip(self.coords, o.coords)])

    def __sub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return Element(self.algebra, [a - b for a, b in zip(self.coords, o.coords)])

    def __neg__(self):
        return Element(self.algebra, [-a for a in self.coords])

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check(other)
            return Element(self.algebra,
                           self.algebra.multiply_coords(self.coords, other.coords))
        c = self.algebra.field.coerce(other)
        return Element(self.algebra, [c * a for a in self.coords])

    def __rmul__(self, other):
        c = self.algebra.field.coerce(other)
        return Element(self.algebra, [c * a for a in self.coords])

    def __truediv__(self, other):
        c = self.algebra.field.coerce(other)
        return Element(self.algebra, [a / c for a in self.coords])

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        if other.algebra is not self.algebra:
            return False
        return self.coords == other.coords

    def is_zero(self):
        return not any(self.coords)

    def __bool__(self):
        return any(self.coords)

    def __repr__(self):
        parts = []
        for name, c in zip(self.algebra.basis_names, self.coords):
            if not c:
                continue
            parts.append("%s*%s" % (c, name) if c != self.algebra.field.one
                         else name)
        return " + ".join(parts) if parts else "0"


class LinearMap:
    """A matrix from source to target; columns are images of source basis."""

    def __init__(self, source, target, matrix):
        self.source = source
        self.target = target
        self.matrix = [list(r) for r in matrix]

    @classmethod
    def from_images(cls, source, target, images):
        """Map sending the i-th source basis element to images[i]."""
        if len(images) != source.dim:
            raise DimensionMismatch("need %d images" % source.dim)
        cols = [im.coords for im in images]
        return cls(source, target, linalg.transpose(cols))

    @classmethod
    def from_pairs(cls, source, target, pairs):
        """The linear map with m(x) = y for every (x, y) pair.

        The x vectors must span the source; redundant pairs must be
        consistent with the map the spanning ones determine.
        """
        field = source.field
        xs = linalg.transpose([x.coords for x, _ in pairs])
        ys = linalg.transpose([y.coords for _, y in pairs])
        # the pivot columns are the greedy choice of independent x's
        _, pivots = linalg.rref(xs, field)
        if len(pivots) != source.dim:
            raise DimensionMismatch("pairs do not span the source")
        inv = linalg.invert([[r[c] for c in pivots] for r in xs], field)
        m = cls(source, target, linalg.mat_mul(
            [[r[c] for c in pivots] for r in ys], inv, field))
        if linalg.mat_mul(m.matrix, xs, target.field) != ys:
            raise DimensionMismatch("pairs are linearly inconsistent")
        return m

    @classmethod
    def identity(cls, algebra):
        return cls(algebra, algebra,
                   linalg.identity_matrix(algebra.dim, algebra.field))

    def __call__(self, x):
        return self.images([x])[0]

    def images(self, xs):
        """The images of the source elements xs, by one ``mat_mul`` with
        their coordinates as columns."""
        if any(x.algebra is not self.source for x in xs):
            raise MixedFields("element not in the source algebra")
        cols = linalg.mat_mul(self.matrix, linalg.transpose(
            [x.coords for x in xs]), self.target.field)
        return [Element(self.target, c) for c in zip(*cols)]

    def compose(self, other):
        """self after other."""
        if other.target is not self.source:
            raise MixedFields("maps do not compose")
        return LinearMap(other.source, self.target,
                         linalg.mat_mul(self.matrix, other.matrix,
                                        self.target.field))

    def is_identity(self):
        return (self.source is self.target and
                self.matrix == linalg.identity_matrix(self.source.dim,
                                                      self.source.field))

    def inverse(self):
        if self.source.dim != self.target.dim:
            raise DimensionMismatch("map is not square")
        inv = linalg.invert(self.matrix, self.target.field)
        if inv is None:
            raise DimensionMismatch("map is singular")
        return LinearMap(self.target, self.source, inv)

    def is_involution(self):
        return self.source is self.target and self.compose(self).is_identity()

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (self.source is other.source and self.target is other.target
                and self.matrix == other.matrix)

    def __repr__(self):
        return "LinearMap(%d -> %d)" % (self.source.dim, self.target.dim)


def check_linear_map_is_isomorphism(m):
    """Whether m is an isomorphism: bijective, which needs equal
    dimensions and an invertible matrix, and multiplicative on all basis
    pairs, which holds when the target's ``products_over`` the images of
    the basis (the columns of m.matrix) is the source's table."""
    src, tgt = m.source, m.target
    inv = linalg.invert(m.matrix, tgt.field) if src.dim == tgt.dim else None
    return inv is not None and all(
        x == src.products[i][j] for (i, j), x in
        tgt.products_over(linalg.transpose(m.matrix), inv).items())
