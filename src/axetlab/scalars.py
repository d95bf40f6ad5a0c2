"""Exact scalar arithmetic: rationals, odd prime fields, and multivariate
rational functions over the rationals, as quotients of polynomials over Z.

Every computation in this package is exact.  The three element kinds are

* ``fractions.Fraction`` for the rationals,
* ``PrimeFieldElement`` for F_p with p an odd prime,
* ``RationalFunction`` (a quotient of two ``MultiPoly``, polynomials with
  int coefficients) for function fields such as Q(alpha, beta, l1, l1f);
  a rational constant keeps its denominator in the ``den`` polynomial.

All three are true exactly when their value is nonzero, so ``if x:`` is
the one zero test for every field, and it costs O(1): a rational
function is zero exactly when its numerator is the zero polynomial,
whatever its stored form, where ``x == field.zero`` would cross-multiply.

A field descriptor (``QQ``, ``PrimeField(p)``, ``FunctionField(names)``)
carries zero, one, the characteristic, the pivot rule of
``linalg.eliminate``, coercion from integers and rationals, and symbol
lookup for the expression parser.  All three also own a ring encoding:
``encode`` coerces a vector to (nums, den) and ``decode`` builds nums
over den back into one element each.  ``linalg.rref``, ``linalg.mat_mul``
and point values run on it over every field, and
``StructureAlgebra.multiply_coords`` over Q and F_p (over a function
field it sums each coordinate once over the encode's denominator).
``QQ`` encodes into ints over the lcm of the denominators and decodes
into ``Fraction``; ``PrimeField`` into residues over 1, decoded with no
second reduction (``PrimeFieldElement._make``); ``FunctionField`` into
``MultiPoly`` numerators over the product of the distinct denominators,
decoded through ``cancel``.

One pass, ``_bind``, sets symbols to values n_i / d over the packed
terms: c * x^k adds c * prod(n_i^k_i) * d^(T - |k|) to its key with those
fields cleared, and the result over d^T is the polynomial with those
symbols set.  ``evaluate`` binds every occurring symbol on the field's
encoding and decodes once (a constant by one ``decode``); ``substitute``
binds constants over Q and rational functions of the same symbols over
Z[x], a quotient's num and den with one d^T, which cancels.  A constant
d^T stores the one normal form of a polynomial over a positive integer
with coprime content; a polynomial d stores the value in its own form.

Arithmetic on rational functions does not reduce them to lowest terms:
construction only strips the integer content and fixes the sign, because a
gcd on every operation costs more than it saves.  Most operands are
trivial and skip the general formula: a zero or one-term factor, a
one-term power, a zero summand (zero is stored over 1), two summands
over the denominator 1 (numerators added), a denominator 1 (never
multiplied by) and equal denominators in ``==`` (numerators compared,
as Z[x] has no zero divisors).
Construction also trusts what is already normal: a denominator 1 or a
monic monomial (the content gcd is 1 and the sign positive), the
numerator of a negated value, an int operand lifted as (c, 1), and the
terms of a negation, a content division, a one-term product or power,
which hold no zero.  Each such path returns the (num, den) of the
general formula, so no stored form depends on it.  Common factors are
cancelled in two places only: ``FunctionField.decode``, which builds
every function-field entry of ``linalg.rref`` and ``mat_mul``, runs each
through ``cancel``, and ``solve_linear`` cancels before it reads
degrees.  ``cancel`` uses ``MultiPoly.gcd`` (the monomial of least
exponents when one side is a single term, else the heuristic GCDHEU,
capped by ``_GCD_BITS``) and keeps the pair when the heuristic gives up,
so no answer depends on a gcd: equality is decided by cross
multiplication, and ``is_constant``/``constant_value`` compare leading
coefficients, so they answer for the value, not the stored form.

A ``MultiPoly`` keys each term by one packed int (see "packed
monomials" below): the total degree in the top 32-bit field, then one
field per symbol.  A monomial product is one int addition, graded order
is int order, and a divisibility test is one subtraction under guard
bits.  Total degree stays below 2^31; a product or power that would
reach it raises ``DegreeOverflow``, never wrapping.

``MultiPoly.exquo`` (also spelled ``//``) is exact polynomial division:
it divides by the leading term in graded order and raises
``InexactDivision`` on a nonzero remainder or a quotient coefficient
that is not an integer, never truncating.  Fraction-free elimination
(``linalg.rref``) relies on it to divide out the previous pivot, with
the same ``//`` it uses over Z, and the gcd to accept a candidate only
when it divides both inputs.  A ``MultiPoly`` is true exactly when it
has a term, the one zero test the scalars use.
"""

import re
from fractions import Fraction
from functools import cache, reduce
from heapq import heapify, heappop, heappush
from itertools import chain, compress, repeat
from math import comb, gcd, isqrt, lcm
from operator import or_
from struct import Struct

SKEW_SYMBOLS = ("alpha", "beta", "l1", "l1f", "l2f", "zeta", "theta", "kappa")


class MixedFields(TypeError):
    """Raised when elements of distinct fields meet in one operation."""


class DivisionByZero(ZeroDivisionError):
    """Raised on inversion of zero or coercion with vanishing denominator."""

    def __init__(self, message, pos=None):
        super().__init__(message)
        self.pos = pos


class DenominatorVanishes(ZeroDivisionError):
    """Raised when evaluating a rational function at a pole."""


class UnboundSymbol(ValueError):
    """Raised when an expression names a symbol the context does not bind."""

    def __init__(self, message, pos=None):
        super().__init__(message)
        self.pos = pos


class BadField(ValueError):
    """Raised for p = 2, composite p, or duplicate function-field symbols."""


class NonlinearExpression(ValueError):
    """Raised when a linear solve meets degree two or higher."""


class InexactDivision(ArithmeticError):
    """Raised when MultiPoly.exquo meets a divisor that does not divide."""


class DegreeOverflow(ArithmeticError):
    """Raised when a polynomial would have a total degree of 2^31 or more,
    which its packed monomial keys cannot hold."""


class ExprError(ValueError):
    """Raised on malformed scalar or element expressions."""

    def __init__(self, message, pos=None):
        super().__init__(message)
        self.pos = pos


# Miller-Rabin with the first 13 primes as bases decides primality for
# every n below this bound (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic primality; BadField above the proven range."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_BOUND:
        raise BadField("%d is beyond the range where primality is decided"
                       " (below %d)" % (n, _MR_BOUND))
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeFieldElement:
    """A residue in F_p, p an odd prime.  Mixes freely with int and Fraction."""

    __slots__ = ("value", "p")

    def __init__(self, value, p):
        self.value = value % p
        self.p = p

    @staticmethod
    def _make(value, p):
        """The residue value, already reduced modulo p."""
        self = object.__new__(PrimeFieldElement)
        self.value = value
        self.p = p
        return self

    def _lift(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.p != self.p:
                raise MixedFields("cannot mix F_%d and F_%d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return PrimeFieldElement(other, self.p)
        if isinstance(other, Fraction):
            if other.denominator % self.p == 0:
                raise DivisionByZero(
                    "denominator of %s vanishes modulo %d" % (other, self.p))
            inv = pow(other.denominator % self.p, -1, self.p)
            return PrimeFieldElement(other.numerator * inv, self.p)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return PrimeFieldElement(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return PrimeFieldElement(self.value - o.value, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return PrimeFieldElement(o.value - self.value, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return PrimeFieldElement(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.value == 0:
            raise DivisionByZero("division by zero in F_%d" % self.p)
        return PrimeFieldElement(self.value * pow(o.value, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if self.value == 0:
            raise DivisionByZero("division by zero in F_%d" % self.p)
        return PrimeFieldElement(o.value * pow(self.value, -1, self.p), self.p)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0 and self.value == 0:
            raise DivisionByZero("division by zero in F_%d" % self.p)
        return PrimeFieldElement(pow(self.value, n, self.p), self.p)

    def __neg__(self):
        return PrimeFieldElement(-self.value, self.p)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if isinstance(other, PrimeFieldElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, (int, Fraction)):
            try:
                o = self._lift(Fraction(other))
            except DivisionByZero:
                return False
            return self.value == o.value
        return NotImplemented

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return str(self.value)


# ---------------------------------------------------------------------------
# packed monomials
#
# A term of a MultiPoly in n symbols is keyed by one int: its total degree
# in the top _W-bit field, then one _W-bit field per symbol, the first
# symbol highest (Monagan and Pearce, CASC 2007; Bachmann and Schoenemann,
# ISSAC 1998).  The total degree stays below 2^31, so every field does,
# and the top bit of each field is a guard that no sum or difference of
# keys in use carries into.  Then
#
# * the key of a product of two monomials is the sum of their keys;
# * graded order (total degree, then the exponents from the first symbol
#   on) is int order, so the leading term has the largest key;
# * the monomial of key a divides the one of key b exactly when every
#   guard bit survives the field-wise difference: ((b | G) - a) & G == G.
#
# A product or power whose total degree would reach 2^31 raises
# DegreeOverflow; it never wraps.  MultiPoly adds, multiplies and compares
# whole keys; code that reads one symbol's field finds it at _shift(n, i).

_W = 32  # bits per field; _unpack reads the fields as 4-byte words
_DEGREE_CAP = 1 << (_W - 1)
_FIELD = (1 << _W) - 1  # one field's bits


def _pack(exps):
    """The key of a tuple of nonnegative exponents; _check_degree tells
    whether their sum is below the cap."""
    key = sum(exps)
    for k in exps:
        key = key << _W | k
    return key


@cache
def _fields(n):
    """The Struct that reads the n symbol fields from a key's bytes."""
    return Struct(">4x%dI" % n)


def _unpack(key, n):
    """The exponent tuple of a key in n symbols."""
    return _fields(n).unpack(key.to_bytes(4 * n + 4, "big"))


def _shift(n, i):
    """The shift of the i-th of n symbols' field in a key."""
    return _W * (n - 1 - i)


def _unit(n, i):
    """The key of the i-th of n symbols; x_i^k has the key k * _unit(n, i)."""
    return 1 << _W * n | 1 << _shift(n, i)


def _check_degree(top, n):
    """Raise DegreeOverflow unless the key top in n symbols has a total
    degree below the cap; a sum or multiple of leading keys has the
    largest degree its product or power can reach."""
    if top >= _DEGREE_CAP << _W * n:
        raise DegreeOverflow("a total degree is over %d" % (_DEGREE_CAP - 1))


def _guards(n):
    """The guard bit of every field of a key in n symbols."""
    return sum(_DEGREE_CAP << _W * i for i in range(n + 1))


class MultiPoly:
    """Sparse multivariate polynomial over Z with a fixed symbol tuple.

    ``terms`` maps the packed key of each monomial (see above) to its
    nonzero int coefficient, and ``exponents()`` gives the same terms
    keyed by exponent tuples.  The public constructor takes exponent
    tuples, each of one nonnegative int per symbol, and packs them;
    internal code builds terms on packed keys through ``_make`` (a fresh
    dict with no zero) and ``_nonzero`` (which drops zeros), so all three
    store the same terms.  Two polynomials only combine when their
    symbol tuples agree exactly.
    """

    __slots__ = ("names", "terms")

    def __init__(self, names, terms):
        self.names = tuple(names)
        n = len(self.names)
        packed = {}
        for e, c in terms.items():
            if (type(e) is not tuple or len(e) != n
                    or not all(type(k) is int and k >= 0 for k in e)):
                raise ValueError("exponents %r are not %d nonnegative ints"
                                 % (e, n))
            key = _pack(e)
            _check_degree(key, n)
            if c:
                packed[key] = c
        self.terms = packed

    @staticmethod
    def _make(names, terms):
        """Keep a names tuple and a fresh dict of packed keys with no zero."""
        self = object.__new__(MultiPoly)
        self.names = names
        self.terms = terms
        return self

    @staticmethod
    def _nonzero(names, terms):
        """_make on the nonzero terms of a dict of packed keys."""
        return MultiPoly._make(names, {e: c for e, c in terms.items() if c})

    @classmethod
    def constant(cls, names, value):
        c = int(value)
        if c != value:
            raise ValueError("a polynomial over Z has no coefficient %s"
                             % (value,))
        return MultiPoly._make(tuple(names), {0: c} if c else {})

    @classmethod
    def variable(cls, names, name):
        names = tuple(names)
        if name not in names:
            raise UnboundSymbol("unknown symbol %r" % name)
        return MultiPoly._make(names,
                               {_unit(len(names), names.index(name)): 1})

    def exponents(self):
        """The terms keyed by exponent tuples."""
        n = len(self.names)
        return {_unpack(e, n): c for e, c in self.terms.items()}

    def _lift(self, other):
        if isinstance(other, MultiPoly):
            if other.names != self.names:
                raise MixedFields("polynomial symbol tuples differ: %r vs %r"
                                  % (self.names, other.names))
            return other
        if isinstance(other, int):
            return MultiPoly.constant(self.names, other)
        return None

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return not any(self.terms)

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in o.terms.items():
            old = terms.get(e)
            terms[e] = c if old is None else old + c
        return MultiPoly._nonzero(self.names, terms)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        many, one = self.terms, o.terms
        if not many or not one:
            return MultiPoly._make(self.names, {})
        if len(many) == 1:
            many, one = one, many
        if len(one) == 1:  # distinct keys stay distinct, none is zero
            (e2, c2), = one.items()
            if e2:
                _check_degree(max(many) + e2, len(self.names))
                return MultiPoly._make(self.names,
                                       {e + e2: c * c2
                                        for e, c in many.items()})
            return MultiPoly._make(self.names,
                                   {e: c * c2 for e, c in many.items()})
        _check_degree(max(many) + max(one), len(self.names))
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = e1 + e2
                c = terms.get(e)
                terms[e] = c1 * c2 if c is None else c + c1 * c2
        return MultiPoly._nonzero(self.names, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        """self ** n as the binomial sum of C(n, j) t^(n-j) r^j, where t is
        the leading term and r the rest: only the powers of r are
        multiplied out, so the leading term costs no products."""
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        if not self.terms:
            return MultiPoly.constant(self.names, 0 ** n)
        if n == 1:
            return self
        lead = max(self.terms)
        _check_degree(lead * n, len(self.names))
        if len(self.terms) == 1:
            return MultiPoly._make(self.names,
                                   {lead * n: self.terms[lead] ** n})
        rest = dict(self.terms)
        lc = rest.pop(lead)
        rest = MultiPoly._make(self.names, rest)
        terms, rj = {}, MultiPoly.constant(self.names, 1)
        for j in range(n + 1):
            scale = comb(n, j) * lc ** (n - j)
            shift = lead * (n - j)
            for e, c in rj.terms.items():
                e += shift
                terms[e] = terms.get(e, 0) + scale * c
            if j < n:
                rj = rj * rest
        return MultiPoly._nonzero(self.names, terms)

    def __neg__(self):
        return MultiPoly._make(self.names,
                               {e: -c for e, c in self.terms.items()})

    def exquo(self, other):
        """The exact quotient self / other.

        Divides by the leading term in graded order, largest remainder
        term first; raises InexactDivision if other does not divide self
        over Z.  That is exact for a primitive other that divides over Q
        (Gauss's lemma) and for the minors of fraction-free elimination.
        """
        o = self._lift(other)
        if o is None:
            raise MixedFields("cannot divide a polynomial by %r" % (other,))
        if not o:
            raise DivisionByZero("polynomial division by zero")
        lead = max(o.terms)
        lc = o.terms[lead]
        rest = [(e, c) for e, c in o.terms.items() if e != lead]
        guards = _guards(len(self.names))
        rem = dict(self.terms)
        heap = [-e for e in rem]
        heapify(heap)
        quot = {}
        while heap:
            e = -heappop(heap)
            c = rem.pop(e)
            if not c:
                continue
            if ((e | guards) - lead) & guards != guards:
                raise InexactDivision(
                    "a %d-term divisor does not divide a %d-term polynomial"
                    % (len(o.terms), len(self.terms)))
            shift = e - lead
            q, r = divmod(c, lc)
            if r:
                raise InexactDivision("a quotient coefficient is not integral")
            quot[shift] = q
            # every new remainder term sorts below e, so none is popped twice
            for e2, c2 in rest:
                t = shift + e2
                if t in rem:
                    rem[t] -= q * c2
                else:
                    rem[t] = -q * c2
                    heappush(heap, -t)
        return MultiPoly._make(self.names, quot)

    __floordiv__ = exquo  # exact, so // reads the same over Z and Z[x]

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def degree_in(self, name):
        s = _shift(len(self.names), self.names.index(name))
        return max((e >> s & _FIELD for e in self.terms), default=0)

    def total_degree(self):
        """The largest total degree of a term; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return sum(_unpack(max(self.terms), len(self.names)))

    def coefficient_of(self, name, k):
        """The coefficient polynomial of name**k (the symbol is divided out)."""
        i, n = self.names.index(name), len(self.names)
        s, drop = _shift(n, i), k * _unit(n, i)
        return MultiPoly._make(self.names,
                               {e - drop: c for e, c in self.terms.items()
                                if e >> s & _FIELD == k})

    def content(self):
        """The gcd of the coefficients: positive, 0 for the zero polynomial."""
        return gcd(*self.terms.values())

    def leading_coefficient(self):
        if len(self.terms) == 1:
            return next(iter(self.terms.values()))
        return self.terms[max(self.terms)] if self.terms else 0

    def gcd(self, other):
        """A greatest common divisor by the heuristic GCDHEU, or None.

        The result is primitive over Z with a positive leading coefficient;
        None means the heuristic failed, not that the gcd is trivial.  A
        one-term side gives the monomial of least exponents, with no GCDHEU.
        """
        o = self._lift(other)
        if self.terms and o.terms and 1 in (len(self.terms), len(o.terms)):
            n = len(self.names)
            least = map(min, *[_unpack(e, n)
                               for e in chain(self.terms, o.terms)])
            return MultiPoly._make(self.names, {_pack(tuple(least)): 1})
        return _heugcd(self.primitive(), o.primitive())

    def primitive(self):
        """self divided by its content: primitive, same sign."""
        return self._divide(self.content())

    def _divide(self, c):
        """self divided by a positive int c that divides every coefficient."""
        if c <= 1:
            return self
        return MultiPoly._make(self.names,
                               {e: v // c for e, v in self.terms.items()})

    def _occurring(self):
        """The indices of the symbols that occur in some term."""
        n = len(self.names)
        return list(compress(range(n), _unpack(reduce(or_, self.terms, 0), n)))

    def evaluate(self, assignment, field):
        """Evaluate with symbols bound to elements of field."""
        s, den = self._at(assignment, field)
        return field.decode([s], den)[0]

    def _at(self, assignment, field):
        """(S, D) with self = S / D at the point: _bind on the values of
        the occurring symbols, encoded by field, with T the total degree.
        Raises UnboundSymbol for an occurring symbol that assignment does
        not bind, and what field.encode raises for a value outside it."""
        names, n = self.names, len(self.names)
        occurring = self._occurring()
        for i in occurring:
            if names[i] not in assignment:
                raise UnboundSymbol("symbol %r is unbound" % names[i])
        nums, den = field.encode([assignment[names[i]] for i in occurring])
        char, lift = field.char, 1 << _W * n  # lift | 1 << s: _unit(n, i)
        bound = [(s, lift | 1 << s, v)
                 for s, v in zip(map(_shift, repeat(n), occurring), nums)]
        top = max(self.terms, default=0) // lift
        # den * 0 is the zero of den's ring: int or MultiPoly
        total = den * 0 + _bind(self.terms, bound, den, top, char).get(0, 0)
        return (total % char if char else total), _power(den, top, char)

    def substitute(self, sub):
        """Replace symbols by rational functions (same symbol tuple): self
        over 1 when none occurs, else the images of self and 1."""
        if not self._substitutes(sub):
            return RationalFunction(self)
        one = MultiPoly._make(self.names, {0: 1})
        return RationalFunction(*_substitution((self, one), sub))

    def _substitutes(self, sub):
        """Whether a symbol that sub replaces occurs in self: one mask
        test of each key against those symbols' fields."""
        size = len(self.names)
        mask = sum(_FIELD << _shift(size, i)
                   for i, name in enumerate(self.names) if name in sub)
        return any(e & mask for e in self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        size = len(self.names)
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            factors = []
            for n, k in zip(self.names, _unpack(e, size)):
                if k == 1:
                    factors.append(n)
                elif k > 1:
                    factors.append("%s^%d" % (n, k))
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = str(abs(c)) + "*" + "*".join(factors)
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += " %s %s" % (sign, body)
        return text


def _power(v, k, char):
    """v^k, reduced mod char when char > 0."""
    return pow(v, k, char) if char else v ** k


def _bind(terms, bound, den, top, char):
    """Set each symbol of bound, a list of (shift, unit, n_i), to n_i / den
    (ints, residues mod char > 0, or MultiPolys): c * x^k, |k| the sum of
    the k_i, adds c * prod(n_i^k_i) * den^(top - |k|) to its key with those
    fields cleared; over den^top, for top at least every |k|, the result
    equals terms.  Each power is formed once, for an exponent that occurs.
    """
    out, powers = {}, {}
    scale = den != 1
    for e, c in terms.items():
        key, k = e, top
        for s, unit, v in bound:
            j = e >> s & _FIELD
            if j:
                m = j * unit  # the key of x_i^j, which also keys its power
                w = powers.get(m)
                if w is None:
                    w = powers[m] = _power(v, j, char)
                c = c * w % char if char else c * w
                key -= m
                k -= j
        if k and scale:
            w = powers.get(k)  # below every key of a symbol: a power of den
            if w is None:
                w = powers[k] = _power(den, k, char)
            c = c * w % char if char else c * w
        old = out.get(key)
        out[key] = c if old is None else old + c
    return out


def _substitution(polys, sub):
    """polys (one symbol tuple) with the symbols of sub set by _bind, all
    over one d^T.  Ints, Fractions and constant RationalFunctions encode
    over Q, others of the same symbols over Z[x], whose coefficients fold
    back onto their keys; any other value raises in _refuse."""
    names, n = polys[0].names, len(polys[0].names)
    keys = list(chain(*[p.terms for p in polys]))
    bound, values, bad, symbolic = [], [], [], False
    for i in compress(range(n), _unpack(reduce(or_, keys, 0), n)):
        v = sub.get(names[i])  # None leaves the symbol as it is
        if v is None:
            continue
        if isinstance(v, RationalFunction) and v.num.names == names:
            if any(v.num.terms) or any(v.den.terms):
                symbolic = True
            else:
                v = v.constant_value()
        elif not isinstance(v, (int, Fraction)):
            bad.append(names[i])
        bound.append((_shift(n, i), _unit(n, i)))
        values.append(v)
    if bad:
        _refuse(polys, sub, bad)
    nums, den = (FunctionField(names) if symbolic else QQ).encode(values)
    top = den != 1 and max(map(sum, zip(*[[e >> s & _FIELD for e in keys]
                                          for s, _ in bound])))
    bound = [(s, unit, v) for (s, unit), v in zip(bound, nums)]
    images = []
    for p in polys:
        image = _bind(p.terms, bound, den, top, 0)
        if symbolic:  # fold each polynomial coefficient onto its key
            image, folded = {}, image
            for key, c in folded.items():
                for e, v in (c.terms.items() if type(c) is MultiPoly
                             else ((0, c),)):
                    e += key
                    old = image.get(e)
                    image[e] = v if old is None else old + v
            _check_degree(max(image, default=0), n)
        images.append(MultiPoly._nonzero(names, image))
    return images


def _refuse(polys, sub, bad):
    """Raise what substituting term by term raises first for the value of
    a symbol in bad: a RationalFunction times its power, at the first term
    of den, then of num, where it occurs (DenominatorVanishes between)."""
    num, den = polys
    names, one = num.names, RationalFunction.constant(num.names, 1)
    for p in (den, num):
        for e in p.terms:
            for name in bad:
                k = e >> _shift(len(names), names.index(name)) & _FIELD
                if k:
                    one * sub[name] ** k  # TypeError or MixedFields
        if p is den and not den.substitute(sub):
            raise DenominatorVanishes("denominator vanishes under substitution")


_GCD_TRIES = 6
_GCD_BITS = 16000


def _heugcd(f, g):
    """A gcd of f and g, or None when the heuristic fails.

    GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989): the
    common integer content is set aside, the first variable that occurs
    is evaluated at an integer xi, the gcd of the two images is found by
    recursion (an integer gcd once no variable is left), and a candidate
    is read back from it by balanced xi-adic expansion.  A candidate
    counts only when exquo divides both inputs by it; after _GCD_TRIES
    values of xi, or at an image coefficient of over _GCD_BITS bits (whose
    gcd costs more than it saves), the heuristic gives up: ``cancel`` then
    keeps the pair, which changes the stored form, never the value.
    """
    names, n = f.names, len(f.names)
    if not (f and g):
        return None
    i = min(f._occurring() + g._occurring(), default=None)
    c = gcd(f.content(), g.content())
    if i is None:
        return MultiPoly.constant(names, c)
    f, g = f._divide(c), g._divide(c)
    shift, unit = _shift(n, i), _unit(n, i)
    fn = max(map(abs, f.terms.values()))
    gn = max(map(abs, g.terms.values()))
    b = 2 * min(fn, gn) + 29
    xi = max(min(b, 99 * isqrt(b)),
             2 * min(fn // abs(f.leading_coefficient()),
                     gn // abs(g.leading_coefficient())) + 4)
    for _ in range(_GCD_TRIES):
        images = []
        for p in (f, g):
            image = _bind(p.terms, [(shift, unit, xi)], 1, 0, 0)
            if any(v.bit_length() > _GCD_BITS for v in image.values()):
                return None
            images.append(MultiPoly._nonzero(names, image))
        if images[0] and images[1]:
            found = _heugcd(*images)
            if found is None:
                return None
            terms = {}
            for e, v in found.terms.items():  # no term of found has x_i
                k = 0
                while v:
                    d = v % xi
                    if d > xi // 2:
                        d -= xi
                    if d:
                        terms[e + k * unit] = d
                    v, k = (v - d) // xi, k + 1
            h = MultiPoly._make(names, terms).primitive()
            if h.is_constant():  # 1 divides anything
                return MultiPoly.constant(names, c)
            if h.leading_coefficient() < 0:
                h = -h
            try:
                f.exquo(h)  # each raises unless h divides
                g.exquo(h)
                return h * c
            except InexactDivision:
                pass
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def cancel(num, den):
    """num/den with their common factor divided out, as a (num, den) pair.

    The factor is the heuristic gcd of MultiPoly.gcd.  When num or den is
    constant, or the heuristic fails, the pair comes back unchanged: the
    value never depends on the gcd succeeding.
    """
    h = num.gcd(den)
    if h is None or h.is_constant():
        return num, den
    return num.exquo(h), den.exquo(h)


_ONE = {0: 1}  # the terms of the constant polynomial 1


def _mul(p, q):
    """p * q, with no product when either is the constant polynomial 1."""
    if p.terms == _ONE:
        return q
    if q.terms == _ONE:
        return p
    return p * q


class RationalFunction:
    """Quotient of two MultiPoly, not reduced to lowest terms.

    Construction strips the common integer content and normalizes the sign
    of the denominator's leading coefficient; a pair where that changes
    nothing (a denominator 1 or a monic monomial, a negated value, a
    constant) is stored as it comes.  Equality cross-multiplies.
    ``cancel`` divides out common factors where a caller asks for it.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = MultiPoly.constant(num.names, 1)
        if num.names != den.names:
            raise MixedFields("numerator and denominator symbol tuples differ")
        if not den:
            raise DivisionByZero("zero denominator")
        if not num:
            den = MultiPoly.constant(num.names, 1)
        if len(den.terms) == 1 and 1 in den.terms.values():
            self.num, self.den = num, den  # a monic monomial: gcd 1, sign +
            return
        scale = gcd(num.content(), den.content())
        num, den = num._divide(scale), den._divide(scale)
        if den.leading_coefficient() < 0:
            num = -num
            den = -den
        self.num = num
        self.den = den

    @classmethod
    def constant(cls, names, value):
        # an int c is (c, 1) and a Fraction is already coprime with a
        # positive denominator, so either pair is normal as it stands
        if type(value) is not int:
            value = Fraction(value)
        names = tuple(names)
        c = value.numerator
        self = object.__new__(cls)
        self.num = MultiPoly._make(names, {0: c} if c else {})
        self.den = MultiPoly._make(names, {0: value.denominator})
        return self

    @classmethod
    def symbol(cls, names, name):
        return cls(MultiPoly.variable(names, name))

    def _lift(self, other):
        if isinstance(other, RationalFunction):
            if other.num.names != self.num.names:
                raise MixedFields("function-field symbol tuples differ")
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction.constant(self.num.names, other)
        return None

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num.terms)

    def is_constant(self):
        """Whether the value is constant, whatever form it is stored in."""
        return (self.num * self.den.leading_coefficient()
                == self.den * self.num.leading_coefficient())

    def constant_value(self):
        """The value of a rational function for which is_constant holds."""
        return Fraction(self.num.leading_coefficient(),
                        self.den.leading_coefficient())

    def __add__(self, other):
        # zero is stored with the denominator 1, so both shortcuts store
        # what the general formula stores
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not o.num.terms:
            return self
        if not self.num.terms:
            return o
        if self.den.terms == _ONE and o.den.terms == _ONE:
            return RationalFunction(self.num + o.num, self.den)
        return RationalFunction(_mul(self.num, o.den) + _mul(o.num, self.den),
                                _mul(self.den, o.den))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return RationalFunction(_mul(self.num, o.num), _mul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise DivisionByZero("division by the zero rational function")
        return RationalFunction(_mul(self.num, o.den), _mul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if not self.num:
                raise DivisionByZero("inverting the zero rational function")
            return RationalFunction(self.den, self.num) ** (-n)
        if n == 1:
            return self
        return RationalFunction(self.num ** n, self.den ** n)

    def __neg__(self):
        out = object.__new__(RationalFunction)  # still gcd 1, sign +
        out.num, out.den = -self.num, self.den
        return out

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if self.den.terms == o.den.terms:  # Z[x] has no zero divisors
            return self.num.terms == o.num.terms
        return _mul(self.num, o.den) == _mul(o.num, self.den)

    def evaluate(self, assignment, field):
        """Evaluate at a point; raises DenominatorVanishes at poles.  A
        constant goes into Q or F_p by one field.decode."""
        num, den = self.num.terms, self.den.terms
        if not (any(num) or any(den) or isinstance(field, FunctionField)):
            if field.char and not den[0] % field.char:
                raise DenominatorVanishes("denominator vanishes at %r"
                                          % (assignment,))
            return field.decode([num.get(0, 0)], den[0])[0]
        sd, dd = self.den._at(assignment, field)
        if not sd:
            raise DenominatorVanishes("denominator vanishes at %r" % (assignment,))
        sn, dn = self.num._at(assignment, field)
        return field.decode([sn * dd], sd * dn)[0]  # (sn/dn) / (sd/dd)

    def substitute(self, sub):
        """Replace symbols by rational functions (same symbol tuple): self
        (normal) when none occurs, else num and den over one d^T."""
        if not (self.num._substitutes(sub) or self.den._substitutes(sub)):
            return self
        num, den = _substitution((self.num, self.den), sub)
        if not den:
            raise DenominatorVanishes("denominator vanishes under substitution")
        return RationalFunction(num, den)

    def __repr__(self):
        if self.den == 1:
            return repr(self.num)
        return "(%s)/(%s)" % (self.num, self.den)


def solve_linear(expr, name):
    """Solve expr = 0 for a symbol occurring at most linearly.

    Only the numerator matters.  Returns -a0/a1 in lowest terms as a
    RationalFunction (a factor of num and den without the symbol divides
    a0 and a1); raises NonlinearExpression on degree >= 2 and
    DivisionByZero when the symbol does not occur.
    """
    num = expr.num
    if expr.den.degree_in(name):
        num, _ = cancel(num, expr.den)
    if num.degree_in(name) >= 2:
        raise NonlinearExpression("%r appears with degree >= 2" % name)
    a1 = num.coefficient_of(name, 1)
    a0 = num.coefficient_of(name, 0)
    if not a1:
        raise DivisionByZero("%r does not occur linearly in %r" % (name, expr))
    return RationalFunction(*cancel(-a0, a1))


class RationalField:
    """Descriptor for Q; elements are fractions.Fraction."""

    char = 0
    zero = Fraction(0)
    one = Fraction(1)
    pivot = None  # linalg.eliminate pivots on the first nonzero entry

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x  # immutable, so shared rather than copied
        if isinstance(x, int):
            return Fraction(x)
        raise MixedFields("cannot coerce %r into Q" % (x,))

    def encode(self, vec):
        """(nums, den) with vec = nums / den: int numerators over den, the
        lcm of the denominators."""
        ratios = [x.as_integer_ratio() if type(x) is Fraction
                  else self.coerce(x).as_integer_ratio() for x in vec]
        den = lcm(*[d for _, d in ratios])
        return [n * (den // d) for n, d in ratios], den

    def decode(self, nums, den):
        """The vector nums / den of ints, den nonzero."""
        zero, one = self.zero, self.one
        return [(one if n == den else Fraction(n, den)) if n else zero
                for n in nums]

    def symbols(self):
        return {}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class PrimeField:
    """Descriptor for F_p, p an odd prime."""

    pivot = None  # linalg.eliminate pivots on the first nonzero entry

    def __init__(self, p):
        if not _is_prime(p):
            raise BadField("%d is not prime" % p)
        if p == 2:
            raise BadField("characteristic 2 is not supported")
        self.p = p
        self.char = p
        self.zero = PrimeFieldElement(0, p)
        self.one = PrimeFieldElement(1, p)

    def coerce(self, x):
        lifted = self.zero._lift(x)
        if lifted is None:
            raise MixedFields("cannot coerce %r into F_%d" % (x, self.p))
        return lifted

    def encode(self, vec):
        """(residues, 1): the values of vec in range(p)."""
        p = self.p
        return [x.value if type(x) is PrimeFieldElement and x.p == p
                else self.coerce(x).value for x in vec], 1

    def decode(self, nums, den):
        """The vector nums / den of ints, den prime to p."""
        p, zero, one = self.p, self.zero, self.one
        make = PrimeFieldElement._make
        inv = pow(den, -1, p)
        return [(one if r == 1 else make(r, p)) if r else zero
                for r in [n * inv % p for n in nums]]

    def symbols(self):
        return {}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return "F_%d" % self.p


class FunctionField:
    """Descriptor for Q(names); elements are RationalFunction.

    Like ``QQ`` and ``PrimeField`` it owns a ring encoding: ``encode``
    clears a vector's denominators into Z[x] and ``decode`` cancels
    numerators over a denominator back into rational functions.
    """

    char = 0

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise BadField("duplicate function-field symbols: %r" % (names,))
        if not names:
            raise BadField("a function field needs at least one symbol")
        self.names = names
        self.zero = RationalFunction.constant(names, 0)
        self.one = RationalFunction.constant(names, 1)

    def sym(self, name):
        return RationalFunction.symbol(self.names, name)

    def coerce(self, x):
        lifted = self.zero._lift(x)
        if lifted is None:
            raise MixedFields("cannot coerce %r into Q%r" % (x, (self.names,)))
        return lifted

    def encode(self, vec):
        """(nums, den) with vec = nums / den: MultiPoly numerators over den,
        the product of the distinct denominators other than 1."""
        vec = [self.coerce(x) for x in vec]
        dens = []
        for x in vec:
            if x.den.terms != _ONE and x.den not in dens:
                dens.append(x.den)
        nums = []
        for x in vec:
            v = x.num
            if v:
                for d in dens:
                    if d != x.den:
                        v = v * d
            nums.append(v)
        return nums, reduce(_mul, dens, self.one.den)

    @staticmethod
    def pivot(entries):
        """The pivot rule of ``linalg.eliminate`` over Z[x]: the index of
        the nonzero entry with the fewest terms, then the smallest leading
        key, then the first; None when every entry is zero.  Every update
        multiplies by the pivot, so a sparse one keeps the minors small."""
        best = None
        for i, e in enumerate(entries):
            if e:
                terms = e.terms
                key = len(terms), max(terms)
                if best is None or key < best:
                    best, row = key, i
        return None if best is None else row

    def decode(self, nums, den):
        """The vector nums / den of polynomials, den nonzero, each entry
        reduced by ``cancel``."""
        zero, one = self.zero, self.one
        return [(one if n == den else RationalFunction(*cancel(n, den)))
                if n else zero for n in nums]

    def symbols(self):
        return {n: self.sym(n) for n in self.names}

    def __eq__(self, other):
        return isinstance(other, FunctionField) and other.names == self.names

    def __hash__(self):
        return hash(("FF",) + self.names)

    def __repr__(self):
        return "QQ(%s)" % ", ".join(self.names)


def skew_field():
    """The fixed eight-symbol context used by the generic skew algebra."""
    return FunctionField(SKEW_SYMBOLS)


# ---------------------------------------------------------------------------
# expression parsing
#
# grammar:  sum    := product (('+'|'-') product)*
#           product:= unary (('*'|'/') unary)*
#           unary  := '-' unary | atom ('^' INT)*  (^ left associative)
#           atom   := INT | NAME | '(' sum ')'
# so ^ binds tighter than unary minus, which binds tighter than * and /.
# An INT is a run of ASCII digits and a NAME a letter followed by
# letters, digits and '_' (str.isalpha and str.isalnum, which is what
# \w matches); the tokenizer reads them with one pattern, _TOKEN.
# Nesting (unary minus and parentheses) is bounded by MAX_NESTING, so a
# hostile expression ends in an ExprError, not in a RecursionError.  A
# power is refused when its exponent times the size of its base is over
# MAX_POWER_SIZE, so no chain of powers makes a result without bound.  That
# size is linear in the degree, but a power of a base in k symbols grows
# like degree^k terms, so a rational-function power is also refused when
# its numerator or denominator could have more than MAX_POWER_TERMS terms.

_OPS = set("+-*/^()")
_TOKEN = re.compile(r"(\s*)(?:([0-9]+)|(\w+)|(\S))")
MAX_NESTING = 100
MAX_POWER_SIZE = 1000
MAX_POWER_TERMS = 10000


def _bits(q):
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _power_size(v):
    """About how much v ** n grows with n: the bit length of a rational;
    for a rational function its total degree (numerator and denominator)
    plus the bit length of its largest coefficient; 0 in F_p, where pow
    is modular."""
    if isinstance(v, Fraction):
        return _bits(v)
    if isinstance(v, RationalFunction):
        polys = (v.num, v.den)
        return (sum(p.total_degree() for p in polys)
                + max(_bits(c) for p in polys for c in p.terms.values()))
    return 0


def _power_terms(v, n):
    """The most terms the numerator or denominator of v ** n can have: a
    polynomial of total degree d in k symbols has at most C(d + k, k)."""
    shapes = ((p.total_degree(), len(p._occurring())) for p in (v.num, v.den))
    return max(comb(n * d + k, k) for d, k in shapes)


def tokenize(text):
    """The (kind, text, pos) tokens of text, closed by an END token; pos
    is the running sum of the lengths matched before the token.  Every
    match ends on a non-space, so trailing space, on which each start
    would fail after a scan to the end, is stripped first."""
    tokens = []
    pos = 0
    for space, digits, word, other in _TOKEN.findall(text.rstrip()):
        pos += len(space)
        token = digits or word or other
        if digits:
            kind = "INT"
        elif word[:1].isalpha():
            kind = "NAME"
        elif other in _OPS:
            kind = "OP"
        else:  # a character outside _OPS, or a word led by a non-letter
            raise ExprError("unexpected character %r" % token[0], pos=pos)
        tokens.append((kind, token, pos))
        pos += len(token)
    tokens.append(("END", "", len(text)))
    return tokens


def _integer(text, pos):
    """The value of an INT token; int() refuses over 4,300 digits."""
    try:
        return int(text)
    except ValueError:
        raise ExprError("integer literal of %d digits is too long"
                        % len(text), pos=pos) from None


def parse_natural(text):
    """The int a literal of ASCII digits writes; int() would also take
    1_1, +7, surrounding space and other scripts' digits."""
    if not (text.isascii() and text.isdigit()):
        raise ExprError("must be an integer", pos=0)
    return _integer(text, 0)


class _Parser:
    def __init__(self, tokens, field, names):
        self.tokens = tokens
        self.k = 0
        self.field = field
        self.names = names
        self.depth = 0

    def sum(self):
        v = self.product()
        tokens = self.tokens
        while True:
            kind, text, pos = tokens[self.k]
            if kind != "OP" or text not in "+-":
                return v
            self.k += 1
            w = self.product()
            try:
                v = v + w if text == "+" else v - w
            except ExprError as e:
                _at_operator(e, pos)
                raise

    def product(self):
        v = self.unary()
        tokens = self.tokens
        while True:
            kind, text, pos = tokens[self.k]
            if kind != "OP" or text not in "*/":
                return v
            self.k += 1
            w = self.unary()
            try:
                v = v * w if text == "*" else v / w
            except ExprError as e:
                _at_operator(e, pos)
                raise
            except ZeroDivisionError:
                raise DivisionByZero(
                    "division by zero at position %d" % pos, pos=pos)

    def nest(self, pos):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprError("expression nested deeper than %d" % MAX_NESTING,
                            pos=pos)

    def unary(self):
        """unary := '-' unary | atom ('^' INT)*, atom read in place."""
        tokens = self.tokens
        kind, text, pos = tokens[self.k]
        self.k += 1
        if kind == "OP" and text == "-":
            self.nest(pos)
            v = -self.unary()
            self.depth -= 1
            return v
        if kind == "INT":
            v = self.field.coerce(_integer(text, pos))
        elif kind == "NAME":
            if text not in self.names:
                raise UnboundSymbol("unknown symbol %r" % text, pos=pos)
            v = self.names[text]
        elif kind == "OP" and text == "(":
            self.nest(pos)
            v = self.sum()
            kind, text, pos = tokens[self.k]
            self.k += 1
            if kind != "OP" or text != ")":
                raise ExprError("expected ')'", pos=pos)
            self.depth -= 1
        else:
            raise ExprError("unexpected token %r" % (text or kind), pos=pos)
        while tokens[self.k][1] == "^":  # only an OP token reads "^"
            at = tokens[self.k][2]
            kind, text, pos = tokens[self.k + 1]
            self.k += 2
            if kind != "INT":
                raise ExprError("exponent must be a nonnegative integer",
                                pos=pos)
            n, size = _integer(text, pos), _power_size(v)
            if n * size > MAX_POWER_SIZE:
                raise ExprError("power too large: exponent %d times base"
                                " size %d is over %d"
                                % (n, size, MAX_POWER_SIZE), pos=pos)
            if (isinstance(v, RationalFunction)
                    and _power_terms(v, n) > MAX_POWER_TERMS):
                raise ExprError("power too large: it can have over %d "
                                "terms" % MAX_POWER_TERMS, pos=pos)
            try:
                v = v ** n
            except ExprError as e:
                _at_operator(e, at)
                raise
        return v


def _at_operator(e, pos):
    """Place e at the operator's position pos unless it has one: an
    operand type such as a basis combination raises with none."""
    if e.pos is None:
        e.pos = pos


def parse_expression(text, field, names):
    """Parse text against a symbol table; INT literals coerce into field."""
    p = _Parser(tokenize(text), field, names)
    v = p.sum()
    kind, tok, pos = p.tokens[p.k]
    if kind != "END":
        raise ExprError("trailing input %r" % tok, pos=pos)
    return v


def parse_scalar(text, field):
    """Parse a coefficient expression into an element of field."""
    return parse_expression(text, field, field.symbols())
