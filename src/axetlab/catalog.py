"""Constructors for the algebra collection.

Every algebra is entered coefficient-exactly over an admissible field:
2B, the 3C family with its skew generator pairs, the double-axis algebra
Q2(1/3) together with its characteristic-5 quotient, the generic
four-dimensional two-axis algebra over the eight-symbol function field,
and the four-dimensional algebra of the orthogonal branch.
"""

from dataclasses import dataclass, field as datafield
from fractions import Fraction
from functools import cache, cached_property

from .algebra import LinearMap, StructureAlgebra
from .fusion import DegenerateParameter, make_jordan, make_monster
from .scalars import (QQ, FunctionField, PrimeField, PrimeFieldElement,
                      RationalFunction, skew_field)


class BadCharacteristic(ValueError):
    """The base field's characteristic is excluded by the construction."""


def _reject_characteristic(field, excluded, what):
    if field.char in excluded:
        raise BadCharacteristic("%s needs characteristic not in %s"
                                % (what, sorted(excluded)))


def _field_of(value, field):
    """Infer the field a parameter lives in when none is given."""
    if field is not None:
        return field
    if isinstance(value, RationalFunction):
        return FunctionField(value.num.names)
    if isinstance(value, PrimeFieldElement):
        return PrimeField(value.p)
    return QQ


@dataclass(frozen=True)
class SkewExample:
    """A skew generator pair inside one of the catalog algebras.

    m_axis has the full Monster spectrum M(alpha, beta) and swaps j_axis
    with third; j_axis, of Jordan type J(alpha), has an empty beta part,
    so its involution is trivial.  The two laws are built once, here.
    """

    label: str
    algebra: object
    m_axis: object
    j_axis: object
    third: object
    alpha: object
    beta: object
    m_law: object = datafield(init=False, repr=False)
    j_law: object = datafield(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "m_law", make_monster(self.alpha, self.beta))
        object.__setattr__(self, "j_law", make_jordan(self.alpha))


# -- two and three dimensions ----------------------------------------------

def make_2B(field=QQ):
    """Two orthogonal idempotents: ab = 0."""
    return StructureAlgebra.from_table(field, ("a", "b"), {
        ("a", "a"): {"a": 1},
        ("b", "b"): {"b": 1},
        ("a", "b"): {},
    })


def make_3C(alpha, field=None, names=("x", "y", "z")):
    """3C(alpha): three idempotents, xy = (alpha/2)(x + y - z) pairwise."""
    field = _field_of(alpha, field)
    alpha = field.coerce(alpha)
    if alpha == 0 or alpha == 1:
        raise DegenerateParameter("3C needs alpha outside {0, 1}")
    half = field.coerce(Fraction(1, 2))
    h = half * alpha
    x, y, z = names
    return StructureAlgebra.from_table(field, names, {
        (x, x): {x: 1},
        (y, y): {y: 1},
        (z, z): {z: 1},
        (x, y): {x: h, y: h, z: -h},
        (x, z): {x: h, z: h, y: -h},
        (y, z): {y: h, z: h, x: -h},
    })


def make_3Cx_minus1(field=QQ):
    """3C(-1)^x, the two-dimensional quotient of 3C(-1): yz = -y-z."""
    return StructureAlgebra.from_table(field, ("y", "z"), {
        ("y", "y"): {"y": 1},
        ("z", "z"): {"z": 1},
        ("y", "z"): {"y": -1, "z": -1},
    })


def make_3C_skew(alpha, field=None):
    """3C(alpha, 1-alpha): the skew pair w = identity - x and y in 3C(alpha).

    alpha = -1 kills the identity element, so it is rejected here; make_3C
    rejects 0 and 1, and M(alpha, 1-alpha) rejects 1/2, where the two
    fusion parameters collapse.
    """
    field = _field_of(alpha, field)
    alpha = field.coerce(alpha)
    if alpha == field.coerce(-1):
        raise DegenerateParameter(
            "3C skew pair needs alpha != -1 (no identity element)")
    A = make_3C(alpha, field)
    one = (A.gen("x") + A.gen("y") + A.gen("z")) / (alpha + field.one)
    beta = field.one - alpha
    return SkewExample(label="3C(%s,%s)" % (alpha, beta), algebra=A,
                       m_axis=one - A.gen("x"), j_axis=A.gen("y"),
                       third=A.gen("z"), alpha=alpha, beta=beta)


def make_3C_minus1_2(field=QQ):
    """3C(-1,2): the skew pair w and y = identity - u inside 3C(2).

    3C(-1) itself has no identity, so the construction runs inside 3C(2)
    instead; characteristic 3 would merge -1 and 2.
    """
    _reject_characteristic(field, {2, 3}, "3C(-1,2)")
    A = make_3C(2, field, names=("u", "v", "w"))
    one = (A.gen("u") + A.gen("v") + A.gen("w")) / field.coerce(3)
    return SkewExample(label="3C(-1,2)", algebra=A, m_axis=A.gen("w"),
                       j_axis=one - A.gen("u"), third=one - A.gen("v"),
                       alpha=field.coerce(-1), beta=field.coerce(2))


# -- the double-axis algebra and its quotient -------------------------------

def make_Q2_third(field=QQ):
    """Q2(1/3) on two single axes s1, s2 and two double axes d1, d2."""
    _reject_characteristic(field, {2, 3}, "Q2(1/3)")
    third = Fraction(1, 3)
    sixth = Fraction(1, 6)
    return StructureAlgebra.from_table(field, ("s1", "s2", "d1", "d2"), {
        ("s1", "s1"): {"s1": 1},
        ("s2", "s2"): {"s2": 1},
        ("d1", "d1"): {"d1": 1},
        ("d2", "d2"): {"d2": 1},
        ("s1", "s2"): {},
        ("s1", "d1"): {"s1": third, "d1": sixth, "d2": -sixth},
        ("s1", "d2"): {"s1": third, "d1": -sixth, "d2": sixth},
        ("s2", "d1"): {"s2": third, "d1": sixth, "d2": -sixth},
        ("s2", "d2"): {"s2": third, "d1": -sixth, "d2": sixth},
        ("d1", "d2"): {"s1": -third, "s2": -third, "d1": third, "d2": third},
    })


def make_Q2_skew(field=QQ):
    """Q2(1/3, 2/3): the skew pair t1 = identity - d1 and s1 in Q2(1/3).

    In characteristic 5 the algebra has an annihilator instead of an
    identity, so the pair does not exist there.
    """
    _reject_characteristic(field, {2, 3, 5}, "the Q2(1/3) skew pair")
    A = make_Q2_third(field)
    total = A.gen("s1") + A.gen("s2") + A.gen("d1") + A.gen("d2")
    one = field.coerce(Fraction(3, 5)) * total
    return SkewExample(label="Q2(1/3,2/3)", algebra=A,
                       m_axis=one - A.gen("d1"), j_axis=A.gen("s1"),
                       third=A.gen("s2"), alpha=field.coerce(Fraction(1, 3)),
                       beta=field.coerce(Fraction(2, 3)))


def make_Q2x(field=None):
    """Q2(1/3)^x, the characteristic-5 radical quotient, on axes x, y, z."""
    field = PrimeField(5) if field is None else field
    if field.char != 5:
        raise BadCharacteristic("Q2(1/3)^x lives in characteristic 5")
    return StructureAlgebra.from_table(field, ("x", "y", "z"), {
        ("x", "x"): {"x": 1},
        ("y", "y"): {"y": 1},
        ("z", "z"): {"z": 1},
        ("x", "y"): {},
        ("x", "z"): {"x": 3, "y": 1, "z": 2},
        ("y", "z"): {"x": 1, "y": 3, "z": 2},
    })


def make_Q2x_law():
    """The M(2/3, 1/3) law of the axes x and z of Q2(1/3)^x over F_5."""
    F5 = PrimeField(5)
    return make_monster(F5.coerce(Fraction(2, 3)), F5.coerce(Fraction(1, 3)))


def make_Q2x_via_radical():
    """Q2(1/3)^x computed as the quotient by the annihilator radical.

    Keeps the cosets of s1, s2, d1 as the basis x, y, z, matching the
    direct table in make_Q2x.
    """
    field = PrimeField(5)
    A = make_Q2_third(field)
    radical = A.gen("s1") + A.gen("s2") + A.gen("d1") + A.gen("d2")
    return A.quotient([radical], keep=[0, 1, 2], names=("x", "y", "z"))


def make_Q2x_plus_one():
    """Q2(1/3)^x with a universal identity adjoined, over F_5.

    The skew pair is w = identity - z and x; the third axis is y.
    """
    field = PrimeField(5)
    A = make_Q2x(field).adjoin_identity("one")
    return SkewExample(label="Q2(1/3)^x + one", algebra=A,
                       m_axis=A.gen("one") - A.gen("z"), j_axis=A.gen("x"),
                       third=A.gen("y"), alpha=field.coerce(Fraction(1, 3)),
                       beta=field.coerce(Fraction(2, 3)))


def skew_examples(char=0):
    """The classified skew pairs over a field of the given characteristic."""
    field = QQ if char == 0 else PrimeField(char)
    out = []
    for alpha in (Fraction(1, 4), -1):
        try:
            out.append(make_3C_skew(alpha, field) if alpha != -1
                       else make_3C_minus1_2(field))
        except (BadCharacteristic, DegenerateParameter):
            pass
    if char == 5:
        out.append(make_Q2x_plus_one())
    else:
        try:
            out.append(make_Q2_skew(field))
        except BadCharacteristic:
            pass
    return out


# -- the generic two-axis algebra -------------------------------------------

@dataclass(frozen=True)
class SkewConstants:
    """The scalar data of the generic two-axis algebra.

    alpha, beta are the fusion parameters; l1, l1f, l2f are the axis
    projections of the neighbouring axes; zeta, theta, kappa are the free
    coefficients of sigma^2.  Everything else is derived, once per
    instance, on first read.

    ``generic()`` returns one shared instance per process, so the
    derived constants of the generic point are computed once.  Sharing
    is safe because no value is changed in place: the constants are
    fields of a frozen dataclass, algebra tables are tuples, and no code
    writes to ``.terms``, ``.num`` or ``.den`` of a polynomial or
    rational function; every operation builds a new one.
    """

    alpha: object
    beta: object
    l1: object
    l1f: object
    l2f: object
    zeta: object
    theta: object
    kappa: object

    @classmethod
    @cache
    def generic(cls):
        """All eight constants as independent symbols, one instance per
        process."""
        field = skew_field()
        return cls(*[field.sym(n) for n in field.names])

    def substitute(self, mapping):
        """Replace symbols by rational functions in every constant."""
        return SkewConstants(*[v.substitute(mapping)
                               for v in self._values()])

    def _values(self):
        return (self.alpha, self.beta, self.l1, self.l1f, self.l2f,
                self.zeta, self.theta, self.kappa)

    def evaluate(self, assignment, field):
        """Evaluate every constant at a concrete point."""
        return SkewConstants(*[field.coerce(v.evaluate(assignment, field))
                               for v in self._values()])

    # -- first axis ---------------------------------------------------

    @cached_property
    def gamma(self):
        return self.beta - self.l1

    @cached_property
    def eps(self):
        return (1 - self.alpha) * self.l1 - self.beta

    @cached_property
    def delta(self):
        return ((1 - self.alpha) * self.l1
                + self.beta * (self.alpha - self.beta - 1))

    # -- second axis (flip analogues) ----------------------------------

    @cached_property
    def gammaf(self):
        return self.beta - self.l1f

    @cached_property
    def epsf(self):
        return (1 - self.alpha) * self.l1f - self.beta

    @cached_property
    def deltaf(self):
        return ((1 - self.alpha) * self.l1f
                + self.beta * (self.alpha - self.beta - 1))

    # -- the shifted product sigma(1,2) = P a + Q b + R c + S sigma -----

    @cached_property
    def P(self):
        a, b = self.alpha, self.beta
        return (2 * (a - 1) * self.l1 + 2 * a * self.l1f
                + a * (1 - 2 * a)) / (a - b)

    @cached_property
    def Q(self):
        a, b = self.alpha, self.beta
        l1, l1f, l2f = self.l1, self.l1f, self.l2f
        bracket = ((6 * a ** 2 - 8 * a * b - 2 * a + 4 * b) * l1f ** 2
                   + 2 * a * (a - 1) * l1 * l1f
                   + 2 * a * (-2 * a - 2 * b + 1) * (a - b) * l1f
                   - 4 * b * (a - 1) * (a - b) * l1
                   - a * b * (a - b) * l2f
                   + 2 * b * (2 * a ** 2 + b ** 2 - a) * (a - b)
                   - b * (a - b) * (a - 2 * b) * (1 - 2 * b))
        return -bracket / (2 * b * (a - b) ** 2)


def make_generic_skew(constants):
    """The four-dimensional algebra on a, b, c, sigma with generic products.

    a is the even axis, b and c the swapped pair, sigma = ab - beta(a+b);
    sigma^2 is kept free as zeta a + theta (b+c) + kappa sigma.
    """
    c = constants
    field = _field_of(c.alpha, None)
    if not c.beta or c.alpha == c.beta:
        raise DegenerateParameter(
            "the generic algebra needs beta != 0 and alpha != beta")
    ab = c.alpha - c.beta
    half = field.coerce(Fraction(1, 2))
    hb = half * c.beta * ab
    return StructureAlgebra.from_table(field, ("a", "b", "c", "sigma"), {
        ("a", "a"): {"a": 1},
        ("b", "b"): {"b": 1},
        ("c", "c"): {"c": 1},
        ("a", "b"): {"a": c.beta, "b": c.beta, "sigma": 1},
        ("a", "c"): {"a": c.beta, "c": c.beta, "sigma": 1},
        ("a", "sigma"): {"a": c.delta, "b": hb, "c": hb, "sigma": ab},
        ("b", "c"): {"a": c.P, "sigma": c.P / c.beta},
        ("b", "sigma"): {"a": c.beta * ab, "b": c.deltaf, "sigma": ab},
        ("c", "sigma"): {"a": c.beta * ab, "c": c.deltaf, "sigma": ab},
        ("sigma", "sigma"): {"a": c.zeta, "b": c.theta, "c": c.theta,
                             "sigma": c.kappa},
    })


# -- the orthogonal branch ---------------------------------------------------

def make_orthogonal_branch(field=QQ):
    """The four-dimensional algebra with bc = 0 on basis b, c, a, f.

    a and f are swapped-pair axes of Monster type (1/3, 2/3); b and c are
    orthogonal Jordan axes of type 1/3.
    """
    _reject_characteristic(field, {2, 3}, "the orthogonal branch algebra")
    third = Fraction(1, 3)
    sixth = Fraction(1, 6)
    two_thirds = Fraction(2, 3)
    A = StructureAlgebra.from_table(field, ("b", "c", "a", "f"), {
        ("b", "b"): {"b": 1},
        ("c", "c"): {"c": 1},
        ("a", "a"): {"a": 1},
        ("f", "f"): {"f": 1},
        ("b", "c"): {},
        ("b", "a"): {"b": two_thirds, "a": sixth, "f": -sixth},
        ("b", "f"): {"b": two_thirds, "a": -sixth, "f": sixth},
        ("c", "a"): {"c": two_thirds, "a": sixth, "f": -sixth},
        ("c", "f"): {"c": two_thirds, "a": -sixth, "f": sixth},
        ("a", "f"): {"b": two_thirds, "c": two_thirds,
                     "a": -third, "f": -third},
    })
    return SkewExample(label="orthogonal branch", algebra=A,
                       m_axis=A.gen("a"), j_axis=A.gen("b"),
                       third=A.gen("c"), alpha=field.coerce(third),
                       beta=field.coerce(two_thirds))


def orthogonal_branch_to_Q2(field=QQ):
    """The isomorphism b, c, a, f -> s1, s2, t1, t2 onto Q2(1/3)."""
    source = make_orthogonal_branch(field).algebra
    target = make_Q2_third(field)
    total = (target.gen("s1") + target.gen("s2")
             + target.gen("d1") + target.gen("d2"))
    one = field.coerce(Fraction(3, 5)) * total
    return LinearMap.from_images(source, target, [
        target.gen("s1"), target.gen("s2"),
        one - target.gen("d1"), one - target.gen("d2")])


def orthogonal_branch_to_Q2x_plus_one():
    """The isomorphism onto the adjoined-identity quotient over F_5.

    Sends b -> x, c -> y, a -> one - z and the branch identity to one;
    the image of f follows by linearity.
    """
    field = PrimeField(5)
    branch = make_orthogonal_branch(field)
    source = branch.algebra
    target = make_Q2x_plus_one().algebra
    source_one = source.find_identity()
    if source_one is None:
        raise BadCharacteristic("the branch algebra lost its identity")
    return LinearMap.from_pairs(source, target, [
        (source.gen("b"), target.gen("x")),
        (source.gen("c"), target.gen("y")),
        (source.gen("a"), target.gen("one") - target.gen("z")),
        (source_one, target.gen("one")),
    ])


# -- the two-parameter classification oracle ---------------------------------

def rehren_oracle(alpha, beta, field=None):
    """Outcome labels for an algebra on two Jordan axes of types alpha, beta.

    Such an algebra is 2B, or the 3C algebra that exists only when
    alpha + beta = 1 (3C(-1,2) when -1 is one of the parameters).  This
    is a lookup of the published two-generated Jordan classification,
    not a derivation.
    """
    field = _field_of(alpha, field)
    alpha = field.coerce(alpha)
    beta = field.coerce(beta)
    for v in (alpha, beta):
        if v == 0 or v == 1:
            raise DegenerateParameter("Jordan parameters avoid {0, 1}")
    if alpha == beta:
        raise DegenerateParameter("the two parameters must differ")
    labels = ["2B"]
    if alpha + beta == field.one:
        if alpha == field.coerce(-1) or beta == field.coerce(-1):
            labels.append("3C(-1,2)")
        else:
            labels.append("3C(%s,%s)" % (alpha, beta))
    return tuple(labels)
