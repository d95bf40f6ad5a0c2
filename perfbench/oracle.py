"""Expected results for every benchmark operation.

Nothing here calls axetlab.  The suite items, replay reports and check
results were recorded from the program at the commit that introduced the
benchmark and are kept verbatim in expected.py; the point values of the
skew constants are recomputed here from their closed forms with plain
Fraction arithmetic, a path independent of the program's rational
function machinery.
"""

import re
from fractions import Fraction

import expected


# -- the skew constants at a rational point ------------------------------

def skew_constants(a, b, l1, l1f, l2f):
    """P, Q, gammaf, deltaf and delta of the generic algebra at a point."""
    gammaf = b - l1f
    delta = (1 - a) * l1 + b * (a - b - 1)
    deltaf = (1 - a) * l1f + b * (a - b - 1)
    P = (2 * (a - 1) * l1 + 2 * a * l1f + a * (1 - 2 * a)) / (a - b)
    bracket = ((6 * a ** 2 - 8 * a * b - 2 * a + 4 * b) * l1f ** 2
               + 2 * a * (a - 1) * l1 * l1f
               + 2 * a * (-2 * a - 2 * b + 1) * (a - b) * l1f
               - 4 * b * (a - 1) * (a - b) * l1
               - a * b * (a - b) * l2f
               + 2 * b * (2 * a ** 2 + b ** 2 - a) * (a - b)
               - b * (a - b) * (a - 2 * b) * (1 - 2 * b))
    Q = -bracket / (2 * b * (a - b) ** 2)
    return {"P": P, "Q": Q, "gammaf": gammaf, "deltaf": deltaf,
            "delta": delta}


def shift_difference(a, b, l1, l1f):
    """The lambda_b(c) discrepancy: Q + beta = 0 solved for l2f, minus
    -(P/beta) gammaf, at a point with zeta = theta = kappa = 0.

    Q is affine in l2f with slope alpha / (2 (alpha - beta)).
    """
    at0 = skew_constants(a, b, l1, l1f, Fraction(0))
    slope = a / (2 * (a - b))
    l2f = -(at0["Q"] + b) / slope
    return l2f + (at0["P"] / b) * at0["gammaf"]


def valid_skew_point(a, b):
    """The generic algebra and its constants need a, b, a - b nonzero."""
    return a != 0 and b != 0 and a != b


# -- outputs of the command line on generated files ----------------------

_DIMS = re.compile(r"= (\d+)")


def check_verify(kind, code, out):
    """None when `axetlab verify` printed the recorded result for kind."""
    want = expected.VERIFY_DIMS[kind]
    lines = out.splitlines()
    if code != 0:
        return "exit code %d" % code
    if len(lines) != len(want):
        return "%d axis lines, want %d" % (len(lines), len(want))
    for i, (line, dims) in enumerate(zip(lines, want), start=1):
        if not line.startswith("axis %d: pass " % i):
            return "line %d: %r" % (i, line)
        if "violations=0" not in line:
            return "line %d has violations" % i
        got = tuple(int(d) for d in _DIMS.findall(line.split("(", 1)[1]))
        if got != dims:
            return "axis %d eigenspace dims %r, want %r" % (i, got, dims)
    return None


def check_axet(kind, code, out):
    shape, points = expected.AXET_SHAPES[kind]
    want = "%s with %d points" % (shape, points)
    if code != 0:
        return "exit code %d" % code
    if out.strip() != want:
        return "printed %r, want %r" % (out.strip(), want)
    return None


def dichotomy_label(kind, alpha, p):
    """The classified skew algebra a generated skew-pair file must match."""
    if kind.startswith("3C-skew"):
        if p is None:
            return "3C(%s,%s)" % (alpha, 1 - alpha)
        a = alpha.numerator * pow(alpha.denominator, -1, p) % p
        return "3C(%d,%d)" % (a, (1 - a) % p)
    return expected.DICHOTOMY_LABELS[kind]
