"""A line-oriented text format for structure-constant algebras.

A document looks like::

    # comment
    field rational            (or: field prime 5 / field function alpha beta)
    dim 4
    basis s1 s2 d1 d2
    product s1 s1 = s1
    product s1 d1 = 1/3*s1 + 1/6*d1 - 1/6*d2
    axis jordan 1/3 s1
    axis monster 1/3 2/3 3/5*s1 + 3/5*s2 - 2/5*d1 + 3/5*d2

Missing product pairs are zero.  All coefficients are exact expressions
under the scalar grammar; the emitter is deterministic and round-trips
through the parser coefficient-exactly.  The parser reads a document in
one pass: the basis line fixes one symbol table, the field's symbols and
each basis name, against which every product and axis element is parsed
as its line is read, so the first error in line order is reported; law
parameters are parsed against the field's symbols only.  Each basis name
is bound to a sparse combination {index: coefficient}, so an expression
costs time in its nonzero terms; the coordinate list is built once.
"""

import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import StructureAlgebra
from .fusion import LAWS, DegenerateParameter, law_family, law_parameters
from .scalars import (BadField, DegreeOverflow, DivisionByZero, ExprError,
                      FunctionField, MixedFields, PrimeField,
                      PrimeFieldElement, RationalField, RationalFunction,
                      UnboundSymbol, parse_expression, parse_natural, QQ)

_EXPR_ERRORS = (ExprError, UnboundSymbol, MixedFields, DivisionByZero,
                DegreeOverflow, TypeError, ZeroDivisionError)

# StructureAlgebra stores dim^2 product rows of length dim, so dim is
# refused above this; the catalog's largest algebra has dimension 4
MAX_DIM = 64


class ParseError(ValueError):
    """Malformed document, with one-based line and column."""

    def __init__(self, message, line, column=1):
        super().__init__("line %d, column %d: %s" % (line, column, message))
        self.line = line
        self.column = column


@dataclass
class AlgebraFile:
    """A parsed document: the algebra and its declared axes."""

    algebra: StructureAlgebra
    axes: list  # of (Element, FusionLaw)


class _LinComb:
    """Linear combination of basis symbols, stored sparsely as
    {index: coefficient}; products of symbols and scalar summands refused
    with an ``ExprError`` whose position the parser sets to the
    operator's."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = coords

    def _scale(self, c):
        return _LinComb(self.field, {i: c * x for i, x in self.coords.items()})

    def __add__(self, other):
        if not isinstance(other, _LinComb):
            return self.__radd__(other)
        coords = dict(self.coords)
        for i, y in other.coords.items():
            coords[i] = coords[i] + y if i in coords else y
        return _LinComb(self.field, coords)

    def __sub__(self, other):
        if not isinstance(other, _LinComb):
            return self.__rsub__(other)
        return self + -other

    def __neg__(self):
        return self._scale(-self.field.one)

    def __radd__(self, other):
        raise ExprError("cannot add a scalar to a basis combination")

    def __rsub__(self, other):
        raise ExprError("cannot mix scalars and basis combinations")

    def __mul__(self, other):
        if isinstance(other, _LinComb):
            raise ExprError("products of basis symbols are not allowed here")
        return self._scale(self.field.coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _LinComb):
            raise ExprError("cannot divide by a basis symbol")
        return self._scale(self.field.one / self.field.coerce(other))

    def __rtruediv__(self, other):
        raise ExprError("cannot divide by a basis symbol")

    def __pow__(self, k):
        raise ExprError("basis symbols cannot be raised to powers")


def _parse_element(text, field, names, dim, lineno, column):
    """The coordinates of a linear expression over the basis symbols,
    which names binds to unit ``_LinComb``s beside the field's symbols."""
    value = _parse_scalar_token(text, field, names, lineno, column)
    if isinstance(value, _LinComb):
        return [value.coords.get(i, field.zero) for i in range(dim)]
    # a pure scalar is only an element when it is zero
    if not value:
        return [field.zero] * dim
    raise ParseError("expected a combination of basis symbols", lineno,
                     column)


def _parse_scalar_token(text, field, names, lineno, column):
    try:
        return parse_expression(text, field, names)
    except _EXPR_ERRORS as e:
        pos = getattr(e, "pos", 0) or 0
        raise ParseError(str(e), lineno, column + pos)


_WORD = re.compile(r"\S+")


def _words(raw):
    """Each word of the line with its 1-based column."""
    return [(m.start() + 1, m.group()) for m in _WORD.finditer(raw)]


def _names(words, what, lineno):
    """The words as a tuple of names, each a NAME token of the scalar
    grammar and none repeated; a bad word is refused at its column."""
    seen = set()
    for column, n in words:
        if not (n[0].isalpha() and all(c.isalnum() or c == "_" for c in n)
                and n not in seen):
            raise ParseError("bad or repeated %s name %r" % (what, n),
                             lineno, column)
        seen.add(n)
    return tuple(n for _, n in words)


def _natural(text, what, lineno, column):
    """A token of ASCII digits as an int, refused at its column."""
    try:
        return parse_natural(text)
    except ExprError as e:
        raise ParseError("%s %s" % (what, e), lineno, column) from None


def _parse_field_line(words, lineno):
    if not words:
        raise ParseError("field needs a descriptor", lineno)
    kind = words[0][1]
    if kind == "rational":
        if len(words) != 1:
            raise ParseError("field rational takes no arguments", lineno)
        return QQ
    if kind == "prime":
        if len(words) != 2:
            raise ParseError("field prime needs one argument", lineno)
        column, text = words[1]
        try:
            return PrimeField(_natural(text, "prime", lineno, column))
        except BadField as e:
            raise ParseError(str(e), lineno, column) from None
    if kind == "function":
        if len(words) < 2:
            raise ParseError("field function needs symbol names", lineno)
        return FunctionField(_names(words[1:], "symbol", lineno))
    raise ParseError("unknown field descriptor %r" % kind, lineno)


def parse_algebra_file(text):
    """Parse a document into an AlgebraFile in one pass: each line is
    checked and its expressions parsed as it is read, so the first error
    in line order is the one reported.

    Sections must come in order: field, dim, basis, products, axes.
    """
    field = dim = basis = None
    table, seen_pairs, axes = {}, set(), []
    stage = 0  # 0 field, 1 dim, 2 basis, 3 products/axes

    for lineno, raw in enumerate(text.splitlines(), start=1):
        # each word of the line with its 1-based column
        words = _words(raw)
        if not words or words[0][1].startswith("#"):
            continue
        head = words[0][1]
        if head == "field":
            if stage != 0:
                raise ParseError("field must be declared exactly once, first",
                                 lineno)
            field = _parse_field_line(words[1:], lineno)
            stage = 1
        elif head == "dim":
            if stage != 1:
                raise ParseError("dim must follow the field line", lineno)
            if len(words) != 2:
                raise ParseError("dim needs one integer", lineno)
            column, word = words[1]
            dim = _natural(word, "dim", lineno, column)
            if dim < 1:
                raise ParseError("dim must be positive", lineno, column)
            if dim > MAX_DIM:
                raise ParseError("dim %d is over %d" % (dim, MAX_DIM),
                                 lineno, column)
            stage = 2
        elif head == "basis":
            if stage != 2:
                raise ParseError("basis must follow the dim line", lineno)
            basis = _names(words[1:], "basis", lineno)
            if len(basis) != dim:
                raise ParseError("expected %d basis names, got %d"
                                 % (dim, len(basis)), lineno)
            symbols = field.symbols()
            for n in basis:
                if n in symbols:
                    raise ParseError("basis name %r shadows a field symbol"
                                     % n, lineno)
            # the symbol table of every element expression
            names = dict(symbols)
            for i, n in enumerate(basis):
                names[n] = _LinComb(field, {i: field.one})
            stage = 3
        elif head == "product":
            if stage != 3:
                raise ParseError("products must follow the basis line",
                                 lineno)
            if len(words) < 5 or words[3][1] != "=":
                raise ParseError("expected: product <x> <y> = <expression>",
                                 lineno)
            for column, n in words[1:3]:
                if n not in basis:
                    raise ParseError("unknown basis name %r in product pair"
                                     % n, lineno, column)
            x, y = words[1][1], words[2][1]
            pair = tuple(sorted((x, y)))
            if pair in seen_pairs:
                raise ParseError("duplicate product entry for %s %s" % pair,
                                 lineno, words[1][0])
            seen_pairs.add(pair)
            column = words[4][0]
            table[(basis.index(x), basis.index(y))] = _parse_element(
                raw[column - 1:], field, names, dim, lineno, column)
        elif head == "axis":
            if stage != 3:
                raise ParseError("axes must follow the basis line", lineno)
            rest = words[1:]
            if not rest:
                raise ParseError("axis needs a law and an element", lineno)
            law_name = rest[0][1]
            make_law = LAWS.get(law_name)
            if make_law is None:
                raise ParseError("unknown law %r (want %s)"
                                 % (law_name, " or ".join(LAWS)), lineno)
            wanted = law_parameters(law_name)
            if len(rest) < len(wanted) + 2:
                raise ParseError("expected: axis %s %s <element>" % (
                    law_name, " ".join("<%s>" % n for n in wanted)), lineno)
            params = rest[1:len(wanted) + 1]
            try:
                # parameters are scalars: the basis names are not bound
                law = make_law(*(_parse_scalar_token(
                    text, field, symbols, lineno, column)
                    for column, text in params))
            except DegenerateParameter as e:
                raise ParseError(str(e), lineno, params[0][0]) from None
            column = rest[len(params) + 1][0]
            axes.append((_parse_element(raw[column - 1:], field, names, dim,
                                        lineno, column), law))
        else:
            raise ParseError("unknown directive %r" % head, lineno,
                             words[0][0])

    if field is None:
        raise ParseError("missing field line", max(1, text.count("\n") + 1))
    if basis is None:
        raise ParseError("missing basis line", max(1, text.count("\n") + 1))
    algebra = StructureAlgebra(field, basis, table)
    return AlgebraFile(algebra, [(algebra.element(coords), law)
                                 for coords, law in axes])


# -- emitting -----------------------------------------------------------------

def _format_coefficient(c):
    """A grammar-parseable string for one coefficient; may start with -."""
    if isinstance(c, Fraction):
        return str(c)
    if isinstance(c, PrimeFieldElement):
        return str(c.value)
    if isinstance(c, RationalFunction):
        text = repr(c)
        if any(ch in text for ch in "+- ") or "/" in text:
            return "(" + text + ")"
        return text
    raise MixedFields("cannot format %r" % (c,))


def format_element(coords, basis_names):
    """Deterministic rendering of a coordinate vector, '0' when zero."""
    parts = []
    for c, n in zip(coords, basis_names):
        if not c:
            continue
        text = _format_coefficient(c)
        sign = "+"
        if text.startswith("-"):
            sign = "-"
            text = text[1:]
        if text == "1":
            body = n
        else:
            body = "%s*%s" % (text, n)
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += " %s %s" % (sign, body)
    return out


def _format_field(field):
    if isinstance(field, RationalField):
        return "field rational"
    if isinstance(field, PrimeField):
        return "field prime %d" % field.p
    if isinstance(field, FunctionField):
        return "field function " + " ".join(field.names)
    raise MixedFields("cannot emit field %r" % (field,))


def _format_law_params(law, field):
    family = law_family(law)
    if family is None:
        raise ValueError("cannot emit %r: not a %s law"
                         % (law, " or ".join(LAWS)))
    name, params = family
    # the axis line is split on whitespace, so each parameter is one token
    return " ".join([name] + [_format_coefficient(field.coerce(v))
                              .replace(" ", "") for v in params])


def emit_algebra_file(algebra, axes=()):
    """The deterministic document for an algebra and optional axes."""
    lines = [_format_field(algebra.field),
             "dim %d" % algebra.dim,
             "basis " + " ".join(algebra.basis_names)]
    for i in range(algebra.dim):
        for j in range(i, algebra.dim):
            coords = algebra.products[i][j]
            if not any(coords):
                continue
            lines.append("product %s %s = %s"
                         % (algebra.basis_names[i], algebra.basis_names[j],
                            format_element(coords, algebra.basis_names)))
    for element, law in axes:
        lines.append("axis %s %s"
                     % (_format_law_params(law, algebra.field),
                        format_element(element.coords, algebra.basis_names)))
    return "\n".join(lines) + "\n"
