"""Axis verification, eigenprojections, and Miyamoto involutions.

An axis for a fusion law F is an idempotent a whose adjoint action is
semisimple with spectrum inside F's eigenvalues, whose eigenspace
products respect the star table, and whose 1-eigenspace is spanned by a
itself.  All four conditions are checked over the exact field; failures
are reported, not raised.

The eigenbasis of ad_a is built in one place, ``Eigenbasis``, which gives
each eigenspace by eigenvalue, writes the eigenvector products over the
eigenbasis once, in ``table``, and reads the four axis conditions from
them; ``coords`` writes one vector over the eigenbasis with one
``mat_mul`` by its inverse.  It has one body for every field and stays
on the field's ring encoding from ad_a to the Miyamoto map: the
eigenvectors are the (vector, scale) pairs of
``StructureAlgebra.encoded_eigenspaces``, the inverse is one
``linalg.eliminate`` of [V | I], with I made of the ring's 1 and 0,
each table column is ``StructureAlgebra.encoded_product`` of two
eigenvectors times the rows of that inverse, and the Miyamoto map is
V diag(+-1) V^-1, decoded once per row.  The eigenspaces, the inverse
and the table are decoded only when read.  The ring columns of the
table answer the fusion law and the automorphism check of the Miyamoto
map, tested for zero.  ``verify_axis`` returns the Eigenbasis, which
``realize_axet`` and ``dichotomy_check`` reuse; ``projection``,
``component`` and ``in_part`` raise from its verdicts.
"""

from dataclasses import dataclass
from functools import cached_property
from operator import mul

from . import linalg
from .algebra import Element, LinearMap, check_linear_map_is_isomorphism
from .fusion import ODD, find_c2_grading


class NotPrimitive(ValueError):
    pass


class NotSemisimple(ValueError):
    pass


class NoGrading(ValueError):
    pass


class Eigenbasis:
    """The eigenspaces of ad_a for a law, and the four axis conditions
    read from them on first read (passed sums them up): lams holds the
    law's eigenvalues in the field, dims[i] the dimension of the space
    for lams[i] and owner[k] the eigenvalue index of eigenvector k.
    spaces holds (eigenvalue, [Element]) pairs in law order and vectors
    their concatenation; inverse inverts the matrix with the vectors as
    columns, a basis when the spaces span A (a law's eigenvalues are
    distinct), else it is None; table writes the products of the vectors
    over them.  These four views are decoded on first read, and the
    verdicts and the Miyamoto map read the ring encoding: eigenvector k
    is _vectors[k] over _scales[k], and _inverse = (rows, d) inverts the
    matrix of the _vectors as rows over d."""

    def __init__(self, A, a, law):
        self.algebra = A
        self.axis = a
        self.law = law
        self.lams = [A.field.coerce(lam) for lam in law.eigenvalues]
        self._kernels = A.encoded_eigenspaces(a, self.lams)
        self.dims = [len(k) for k in self._kernels]
        self._vectors = [v for k in self._kernels for v, _ in k]
        self._scales = [s for k in self._kernels for _, s in k]
        self.owner = [i for i, d in enumerate(self.dims) for _ in range(d)]
        self._inverse = self._invert() if len(self.owner) == A.dim else None

    def _invert(self):
        """(rows, d) from one elimination of [V | I], V the matrix of the
        _vectors and I made of the field's ring 1 and 0, or None."""
        field, n = self.algebra.field, self.algebra.dim
        (one, zero), _ = field.encode([field.one, field.zero])
        aug = [list(r) + [one if i == j else zero for j in range(n)]
               for i, r in enumerate(zip(*self._vectors))]
        pivots, d = linalg.eliminate(aug, field.char, field.pivot)
        return ([r[n:] for r in aug], d) if pivots == list(range(n)) \
            else None

    @cached_property
    def spaces(self):
        decode, A = self.algebra.field.decode, self.algebra
        return [(lam, [Element(A, decode(v, s)) for v, s in k])
                for lam, k in zip(self.lams, self._kernels)]

    @cached_property
    def vectors(self):
        return [v for _, b in self.spaces for v in b]

    @cached_property
    def inverse(self):
        if self._inverse is None:
            return None
        # eigenvector k is _vectors[k] / s_k, so row k is scaled by s_k
        rows, d = self._inverse
        return [self.algebra.field.decode([s * x for x in r], d)
                for r, s in zip(rows, self._scales)]

    def eigenspace(self, lam):
        """The basis of the eigenspace for the law eigenvalue lam."""
        return self.spaces[self.law.index(lam)][1]

    def coords(self, v):
        """Coordinates of v over vectors; the spaces must span A."""
        return [r[0] for r in linalg.mat_mul(
            self.inverse, [[c] for c in v.coords], self.algebra.field)]

    @cached_property
    def table(self):
        """{(p, q): vectors p times q over the vectors}, as
        ``products_over`` gives it; the spaces must span A."""
        decode, s = self.algebra.field.decode, self._scales
        return {pq: tuple(decode(list(map(mul, x, s)), e))
                for pq, (x, e) in self._columns.items()}

    @cached_property
    def _columns(self):
        """{(p, q): (x, e)} for p <= q with table[p, q] = x_k s_k / e: x
        is the rows of _inverse times the ``encoded_product`` of _vectors
        p and q, reduced mod the characteristic, so it is zero exactly
        where table[p, q] is, and e is that product's denominator times d."""
        A, vectors, scales = self.algebra, self._vectors, self._scales
        char = A.field.char
        rows, d = self._inverse
        columns = {}
        for p, (u, us) in enumerate(zip(vectors, scales)):
            for q in range(p, len(vectors)):
                w, wd = A.encoded_product(u, us, vectors[q], scales[q])
                x = [sum(map(mul, r, w)) for r in rows]
                columns[p, q] = [c % char for c in x] if char else x, d * wd
        return columns

    def violations(self, allowed):
        """{(i, j): witness} for the eigenvalue indices i <= j where a
        product of eigenvectors from spaces i and j has a coordinate on a
        space k not in allowed(i, j); the witness is the first such
        product, in the order of the vectors."""
        owner, found = self.owner, {}
        for (p, q), (x, _) in self._columns.items():
            ij = owner[p], owner[q]
            if ij in found:
                continue
            ok = allowed(*ij)
            if any(c and owner[k] not in ok for k, c in enumerate(x)):
                found[ij] = self.vectors[p] * self.vectors[q]
        return found

    @cached_property
    def is_idempotent(self):
        return self.axis * self.axis == self.axis

    @property
    def spectrum_ok(self):
        return self._inverse is not None

    @property
    def is_primitive(self):
        # a = 0 fails too: its 1-eigenspace is 0
        return self.is_idempotent and self.dims[0] == 1

    @cached_property
    def fusion_violations(self):
        """The FusionViolations of the law's star table, sorted by
        eigenvalue index; empty when the spaces do not span A."""
        if not self.spectrum_ok:
            return []
        found = self.violations(self.law.star_indices)
        ev = self.law.eigenvalues
        return [FusionViolation(ev[i], ev[j], found[i, j])
                for i, j in sorted(found)]

    @property
    def passed(self):
        return (self.is_idempotent and self.spectrum_ok
                and not self.fusion_violations and self.is_primitive)

    def summary(self):
        dims = ", ".join("dim A_%s = %d" % (v, d)
                         for v, d in zip(self.lams, self.dims))
        return ("idempotent=%s spectrum=%s primitive=%s violations=%d (%s)"
                % (self.is_idempotent, self.spectrum_ok, self.is_primitive,
                   len(self.fusion_violations), dims))

    @cached_property
    def miyamoto(self):
        """The Miyamoto map: +1 on even, -1 on odd eigenspaces of the
        preferred C2 grading of the law.  It is an automorphism exactly
        when every eigenvector product carries the product of its
        factors' signs, which is checked.  Computed on first read, as
        V diag(+-1) V^-1 on the ring, where the scales of the _vectors
        cancel, and decoded once per row."""
        A, a = self.algebra, self.axis
        grading = find_c2_grading(self.law)
        if grading is None:
            raise NoGrading("law %r has no nontrivial C2 grading"
                            % (self.law,))
        if not self.spectrum_ok:
            raise NotSemisimple("adjoint of %r is not semisimple over the law"
                                % (a,))
        signs = grading.signs
        if self.violations(lambda i, j: {
                k for k, s in enumerate(signs) if s == signs[i] * signs[j]}):
            raise NotSemisimple("Miyamoto map of %r is not an automorphism"
                                % (a,))
        images = [[-c for c in v] if signs[k] == ODD else v
                  for v, k in zip(self._vectors, self.owner)]
        rows, d = self._inverse
        return LinearMap(A, A, [
            A.field.decode([sum(map(mul, r, c)) for c in zip(*rows)], d)
            for r in zip(*images)])


@dataclass
class FusionViolation:
    lam: object
    mu: object
    witness: object  # the offending product element

    def __repr__(self):
        return "FusionViolation(%r * %r)" % (self.lam, self.mu)


def verify_axis(A, a, law):
    """The Eigenbasis of a under law, which reads the axis conditions."""
    return Eigenbasis(A, a, law)


def _primitive_eigenbasis(A, a, law):
    """The Eigenbasis of a, a primitive idempotent with a full spectrum."""
    basis = Eigenbasis(A, a, law)
    if not basis.is_idempotent:
        raise NotPrimitive("%r is not idempotent" % (a,))
    if not basis.spectrum_ok:
        raise NotSemisimple("adjoint of %r is not semisimple over the law"
                            % (a,))
    if not basis.is_primitive:
        raise NotPrimitive("1-eigenspace of %r has dimension %d"
                           % (a, basis.dims[0]))
    return basis


def projection(A, a, law, v):
    """The coefficient of a in the eigendecomposition of v."""
    basis = _primitive_eigenbasis(A, a, law)
    # the 1-eigenspace is spanned by vectors[0], a nonzero multiple of a
    u = basis.vectors[0].coords
    i = next(i for i, c in enumerate(a.coords) if c)
    return basis.coords(v)[0] * u[i] / a.coords[i]


def component(A, a, law, v, lams):
    """The part of v lying in the eigenspaces for the eigenvalues lams."""
    basis = _primitive_eigenbasis(A, a, law)
    out = A.zero
    for x, u, idx in zip(basis.coords(v), basis.vectors, basis.owner):
        if any(basis.spaces[idx][0] == lam for lam in lams):
            out = out + x * u
    return out


def in_part(A, a, law, v, lams):
    """Whether v lies in the sum of the eigenspaces for lams."""
    return component(A, a, law, v, lams) == v


def miyamoto(A, a, law):
    """The Miyamoto map of a (``Eigenbasis.miyamoto``)."""
    return Eigenbasis(A, a, law).miyamoto


def is_automorphism(A, m):
    """Bijective and multiplicative self-map of A."""
    return (m.source is A and m.target is A
            and check_linear_map_is_isomorphism(m))
