"""Fusion laws, their two families and their C2 gradings.

A fusion law is a finite list of eigenvalues together with a symmetric
star table; the table is stored by eigenvalue index, never by value, so
eigenvalues may live in any of the exact fields (including symbols of a
function field, which are not hashable on purpose).  This module alone
knows the families J(eta) and M(alpha, beta): LAWS builds a member by
name, law_family reads a law's name and parameters back.
"""

import functools
import inspect


class DegenerateParameter(ValueError):
    """Raised when law parameters collide (eta in {0,1}, alpha = beta, ...)."""


EVEN = 1
ODD = -1


class FusionLaw:
    """Eigenvalues plus a star table over unordered index pairs.

    eigenvalues[0] must be 1.  table maps (i, j) with i <= j to a
    frozenset of indices; missing pairs mean the empty set.
    """

    def __init__(self, eigenvalues, table):
        self.eigenvalues = list(eigenvalues)
        n = len(self.eigenvalues)
        for i in range(n):
            for j in range(i + 1, n):
                if self.eigenvalues[i] == self.eigenvalues[j]:
                    raise DegenerateParameter(
                        "eigenvalues %r and %r coincide"
                        % (self.eigenvalues[i], self.eigenvalues[j]))
        self.table = {}
        for (i, j), vs in table.items():
            key = (i, j) if i <= j else (j, i)
            self.table[key] = frozenset(vs)

    def index(self, lam):
        for i, v in enumerate(self.eigenvalues):
            if v == lam:
                return i
        raise KeyError("eigenvalue %r not in the law" % (lam,))

    def star_indices(self, i, j):
        key = (i, j) if i <= j else (j, i)
        return self.table.get(key, frozenset())

    def star(self, lam, mu):
        """The set of eigenvalues lam may fuse with mu into."""
        idx = self.star_indices(self.index(lam), self.index(mu))
        return [self.eigenvalues[k] for k in sorted(idx)]

    def is_seress(self):
        """0 is an eigenvalue, lam*0 = {lam} for lam != 1, and 1*0 is empty."""
        try:
            z = self.index(0)
        except KeyError:
            return False
        one = 0  # index of eigenvalue 1
        for i in range(len(self.eigenvalues)):
            expected = frozenset() if i == one else frozenset({i})
            if self.star_indices(i, z) != expected:
                return False
        return True

    def __repr__(self):
        return "FusionLaw(%r)" % (self.eigenvalues,)


class Grading:
    """A C2 grading of a fusion law: one sign per eigenvalue."""

    def __init__(self, law, signs):
        self.law = law
        self.signs = tuple(signs)

    def is_valid(self):
        """Every nu in lam*mu must carry sign(lam)*sign(mu)."""
        return _respects(self.signs, _stars(self.law))

    def odd_values(self):
        return [v for v, s in zip(self.law.eigenvalues, self.signs) if s == ODD]

    def even_values(self):
        return [v for v, s in zip(self.law.eigenvalues, self.signs) if s == EVEN]

    def __repr__(self):
        return "Grading(odd=%r)" % (self.odd_values(),)


def _stars(law):
    """((i, j), star set) for each index pair i <= j whose star set is
    not empty."""
    n = len(law.eigenvalues)
    pairs = ((i, j) for i in range(n) for j in range(i, n))
    return tuple((p, ks) for p in pairs if (ks := law.star_indices(*p)))


def _respects(signs, stars):
    """Whether every nu in a star set of _stars carries the product of
    the signs of its pair."""
    return all(signs[k] == signs[i] * signs[j]
               for (i, j), ks in stars for k in ks)


def make_jordan(eta):
    """The Jordan law J(eta) on {1, 0, eta}; eta must avoid 0 and 1."""
    if eta == 0 or eta == 1:
        raise DegenerateParameter("eta must avoid 0 and 1, got %s" % (eta,))
    one, zero, e = 0, 1, 2
    table = {
        (one, one): {one},
        (one, zero): set(),
        (one, e): {e},
        (zero, zero): {zero},
        (zero, e): {e},
        (e, e): {one, zero},
    }
    return FusionLaw([1, 0, eta], table)


def make_monster(alpha, beta):
    """The Monster law M(alpha, beta); 1, 0, alpha, beta pairwise distinct."""
    if alpha == 0 or alpha == 1:
        raise DegenerateParameter("alpha must avoid 0 and 1, got %s" % (alpha,))
    if beta == 0 or beta == 1:
        raise DegenerateParameter("beta must avoid 0 and 1, got %s" % (beta,))
    if alpha == beta:
        raise DegenerateParameter("alpha and beta must differ")
    one, zero, a, b = 0, 1, 2, 3
    table = {
        (one, one): {one},
        (one, zero): set(),
        (one, a): {a},
        (one, b): {b},
        (zero, zero): {zero},
        (zero, a): {a},
        (zero, b): {b},
        (a, a): {one, zero},
        (a, b): {b},
        (b, b): {one, zero, a},
    }
    return FusionLaw([1, 0, alpha, beta], table)


# each family's parameters are the eigenvalues after 1 and 0, in order
LAWS = {"jordan": make_jordan, "monster": make_monster}


@functools.cache
def law_parameters(name):
    """The parameter names of the LAWS family name, such as ("eta",)."""
    return tuple(inspect.signature(LAWS[name]).parameters)


@functools.cache
def _star_pairs(name):
    """The nonempty star pairs of the LAWS family name, by index; they
    are the same for every choice of the parameters."""
    placeholders = range(2, 2 + len(law_parameters(name)))
    return {k: v for k, v in LAWS[name](*placeholders).table.items() if v}


def law_family(law):
    """(name, parameters) when law is the member of a LAWS family with
    its own eigenvalues after 1 and 0 as parameters, its star table
    equal pair by pair with a missing pair read as empty, as
    star_indices reads it; None for any other law."""
    ev = law.eigenvalues
    if ev[:2] != [1, 0]:
        return None
    pairs = {k: v for k, v in law.table.items() if v}
    for name in LAWS:
        if (len(ev) == len(law_parameters(name)) + 2
                and pairs == _star_pairs(name)):
            return name, tuple(ev[2:])
    return None


def find_c2_grading(law):
    """The preferred nontrivial C2 grading, or None.

    All sign assignments with 1 even are enumerated; among the valid
    nontrivial ones the assignment with the fewest odd eigenvalues wins
    (ties broken by the lowest odd index pattern).  For J(eta) this puts
    eta odd; for M(alpha, beta) it puts beta odd.  The signs depend only
    on the star table, so they are found once per table.
    """
    signs = _c2_signs(len(law.eigenvalues), _stars(law))
    return None if signs is None else Grading(law, signs)


@functools.cache
def _c2_signs(n, stars):
    """find_c2_grading's signs for n eigenvalues with these _stars."""
    signs = ((EVEN,) + tuple(ODD if (mask >> i) & 1 else EVEN
                             for i in range(n - 1))
             for mask in range(1, 1 << (n - 1)))
    # prefer few odd eigenvalues, then odd values late in the list
    return min((s for s in signs if _respects(s, stars)), default=None,
               key=lambda s: (s.count(ODD),
                              [-i for i, x in enumerate(s) if x == ODD]))
