"""Axis verification, eigenprojections, and Miyamoto involutions.

An axis for a fusion law F is an idempotent a whose adjoint action is
semisimple with spectrum inside F's eigenvalues, whose eigenspace
products respect the star table, and whose 1-eigenspace is spanned by a
itself.  All four conditions are checked over the exact field; failures
are reported, not raised.

The eigenbasis of ad_a is built in one place, ``Eigenbasis``, which gives
each eigenspace by eigenvalue (``StructureAlgebra.eigenspaces``), writes
the eigenvector products over the eigenbasis once, in ``table``
(``products_over``), and reads the four axis conditions from them;
``coords`` writes one vector over the eigenbasis with one ``mat_mul``
by its inverse.  Over Q and F_p both stay on the ring encoding of the
integer table from ad_a to the table: only the eigenvectors and the
table columns are decoded.  The table answers the fusion law and the
automorphism check of the Miyamoto map.  ``verify_axis`` returns the
Eigenbasis, which ``realize_axet`` and ``dichotomy_check`` reuse;
``projection``, ``component`` and ``in_part`` raise from its verdicts.
"""

from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .algebra import LinearMap, check_linear_map_is_isomorphism
from .fusion import ODD, find_c2_grading


class NotPrimitive(ValueError):
    pass


class NotSemisimple(ValueError):
    pass


class NoGrading(ValueError):
    pass


class Eigenbasis:
    """The eigenspaces of ad_a for a law, and the four axis conditions
    read from them on first read (passed sums them up): spaces holds
    (eigenvalue, [Element]) pairs in law order, vectors their
    concatenation, owner[k] the eigenvalue index of vectors[k].  inverse
    inverts the matrix with the vectors as columns, a basis when the
    spaces span A (a law's eigenvalues are distinct); else it is None."""

    def __init__(self, A, a, law):
        self.algebra = A
        self.axis = a
        self.law = law
        lams = [A.field.coerce(lam) for lam in law.eigenvalues]
        self.spaces = []
        self.vectors = []
        self.owner = []
        for idx, (lam, basis) in enumerate(zip(lams, A.eigenspaces(a, lams))):
            self.spaces.append((lam, basis))
            self.vectors.extend(basis)
            self.owner.extend([idx] * len(basis))
        self.inverse = None
        if len(self.vectors) == A.dim:
            self.inverse = linalg.invert(
                linalg.transpose([v.coords for v in self.vectors]), A.field)

    def eigenspace(self, lam):
        """The basis of the eigenspace for the law eigenvalue lam."""
        return self.spaces[self.law.index(lam)][1]

    def coords(self, v):
        """Coordinates of v over vectors; the spaces must span A."""
        return [r[0] for r in linalg.mat_mul(
            self.inverse, [[c] for c in v.coords], self.algebra.field)]

    @cached_property
    def table(self):
        """``products_over`` the vectors; the spaces must span A."""
        return self.algebra.products_over([v.coords for v in self.vectors],
                                          self.inverse)

    def violations(self, allowed):
        """{(i, j): witness} for the eigenvalue indices i <= j where a
        product of eigenvectors from spaces i and j has a coordinate on a
        space k not in allowed(i, j); the witness is the first such
        product, in the order of the vectors."""
        owner, found = self.owner, {}
        for (p, q), x in self.table.items():
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
        return self.inverse is not None

    @property
    def is_primitive(self):
        # a = 0 fails too: its 1-eigenspace is 0
        return self.is_idempotent and len(self.spaces[0][1]) == 1

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
        dims = ", ".join("dim A_%s = %d" % (v, len(b))
                         for v, b in self.spaces)
        return ("idempotent=%s spectrum=%s primitive=%s violations=%d (%s)"
                % (self.is_idempotent, self.spectrum_ok, self.is_primitive,
                   len(self.fusion_violations), dims))

    @cached_property
    def miyamoto(self):
        """The Miyamoto map: +1 on even, -1 on odd eigenspaces of the
        preferred C2 grading of the law.  It is an automorphism exactly
        when every eigenvector product carries the product of its
        factors' signs, which is checked.  Computed on first read."""
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
        images = [[-c for c in v.coords] if signs[k] == ODD else v.coords
                  for v, k in zip(self.vectors, self.owner)]
        return LinearMap(A, A, linalg.mat_mul(linalg.transpose(images),
                                              self.inverse, A.field))


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
                           % (a, len(basis.spaces[0][1])))
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
