"""Command line front end.

Subcommands: verify (axis checks on an algebra file), axet (realize and
classify the axet generated by the declared axes), paper-suite (the full
reproduction suite), catalog (emit a built-in algebra as a file).

Exit codes: 0 pass, 1 verification failure, 2 parse or usage error.
"""

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import algfile, papersuite
from .algfile import ParseError, emit_algebra_file, parse_algebra_file
from .axes import verify_axis
from .axets import (NotAnAxis, NotClosedWithinBound, TooLarge,
                    classify_shape, realize_axet)
from .catalog import (BadCharacteristic, make_2B, make_3C, make_3C_minus1_2,
                      make_3C_skew, make_orthogonal_branch, make_Q2_skew,
                      make_Q2_third, make_Q2x, make_Q2x_law,
                      make_Q2x_plus_one)
from .fusion import (DegenerateParameter, law_family, make_jordan,
                     make_monster)
from .scalars import (QQ, BadField, DivisionByZero, ExprError, MixedFields,
                      UnboundSymbol, parse_natural, parse_scalar)

USAGE_ERRORS = (ParseError, BadField, BadCharacteristic, DegenerateParameter,
                ExprError, UnboundSymbol, MixedFields, DivisionByZero)
VERIFY_ERRORS = (NotAnAxis, NotClosedWithinBound, TooLarge)


class NoAxesDeclared(ValueError):
    pass


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_report(path, payload):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_axes(args):
    doc = parse_algebra_file(_read(args.file))
    axes = doc.axes
    field = doc.algebra.field
    if getattr(args, "law", None):
        alpha = parse_scalar(args.law[0], field)
        beta = parse_scalar(args.law[1], field)
        law = make_monster(alpha, beta)
        axes = [(el, law) for el, _ in axes]
    elif getattr(args, "jordan", None):
        law = make_jordan(parse_scalar(args.jordan, field))
        axes = [(el, law) for el, _ in axes]
    if not axes:
        raise NoAxesDeclared("the file declares no axes")
    return doc, axes


def cmd_verify(args):
    doc, axes = _load_axes(args)
    rows = []
    ok = True
    for i, (element, law) in enumerate(axes, start=1):
        report = verify_axis(doc.algebra, element, law)
        ok = ok and report.passed
        rows.append({"axis": i, "passed": report.passed,
                     "summary": report.summary()})
        print("axis %d: %s  %s" % (i, "pass" if report.passed else "FAIL",
                                   report.summary()))
    _write_report(args.report, {"command": "verify", "file": args.file,
                                "passed": ok, "axes": rows})
    return 0 if ok else 1


def cmd_axet(args):
    doc, axes = _load_axes(args)
    # realize under a common ambient law: jordan axes of a monster-law
    # algebra have empty odd part there, so their involutions collapse;
    # every law read from a file or an override has a family
    ambient = next((law for _, law in axes
                    if law_family(law)[0] == "monster"), None)
    reports = [verify_axis(doc.algebra, el, ambient or law)
               for el, law in axes]
    realized = realize_axet(reports, max_points=args.max_points)
    label = classify_shape(realized, max_points=args.max_points)
    note = " (degenerate: single point)" if realized.size == 1 else ""
    plural = "" if realized.size == 1 else "s"
    print("%s with %d point%s%s" % (label, realized.size, plural, note))
    _write_report(args.report, {"command": "axet", "file": args.file,
                                "shape": label, "points": realized.size})
    return 0


def cmd_paper_suite(args):
    report = papersuite.run_suite(args.char)
    print(report.to_text())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    return 0 if report.passed else 1


def _axes(A, *groups):
    """A with an axis per name of each (names, law) group."""
    return A, [(A.gen(n), law) for names, law in groups for n in names]


def _pair(ex):
    return ex.algebra, [(ex.m_axis, ex.m_law), (ex.j_axis, ex.j_law)]


# name -> builder of (algebra, axes); its argument reads --alpha
CATALOG = {
    "2B": lambda alpha: _axes(make_2B(), ("ab", make_jordan(Fraction(1, 2)))),
    "3C": lambda alpha: _axes(make_3C(alpha()), ("xyz", make_jordan(alpha()))),
    "3C-skew": lambda alpha: _pair(make_3C_skew(alpha())),
    "3C-1-2": lambda alpha: _pair(make_3C_minus1_2()),
    "Q2": lambda alpha: _axes(
        make_Q2_third(), (("s1", "s2"), make_jordan(Fraction(1, 3))),
        (("d1", "d2"), make_monster(Fraction(2, 3), Fraction(1, 3)))),
    "Q2-skew": lambda alpha: _pair(make_Q2_skew()),
    "Q2x": lambda alpha: _axes(make_Q2x(), ("xz", make_Q2x_law())),
    "Q2x5": lambda alpha: _pair(make_Q2x_plus_one()),
    "orthogonal": lambda alpha: _pair(make_orthogonal_branch()),
}


def cmd_catalog(args):
    def alpha():
        if args.alpha is None:
            raise DegenerateParameter("%s needs --alpha" % args.name)
        return parse_scalar(args.alpha, QQ)

    algebra, axes = CATALOG[args.name](alpha)
    text = emit_algebra_file(algebra, axes)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def positive_int(text):
    # a minus sign is read, so that "-5" is refused by its value
    n = -parse_natural(text[1:]) if text[:1] == "-" else parse_natural(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1, not %d" % n)
    return n


# The largest --max-points.  Closing an infinite orbit costs 3 to 5
# times more per doubling of the bound: on
# tests/golden/files/infinite-orbit.alg (3 dimensions over Q)
# realize_axet gives up after 0.05 s at 192 points, 0.14 s at 384 and
# 0.63 s at 768 (medians of 3, 2-core x86-64, CPython 3.11.7), so the
# cap keeps that run well under a second.
MAX_POINTS = 384


def max_points(text):
    n = positive_int(text)
    if n > MAX_POINTS:
        raise argparse.ArgumentTypeError("must be at most %d, not %d"
                                         % (MAX_POINTS, n))
    return n


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="axetlab",
        description="Exact-arithmetic workbench for axial algebras and "
                    "axets.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the declared axes of a file")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--law", nargs=2, metavar=("ALPHA", "BETA"),
                       help="verify all axes under this monster law")
    group.add_argument("--jordan", metavar="ETA",
                       help="verify all axes under this jordan law")
    p.add_argument("--report", help="write a JSON report here")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("axet", help="realize and classify the axet of a "
                                    "file's axes")
    p.add_argument("file")
    p.add_argument("--max-points", type=max_points, default=24)
    p.add_argument("--report", help="write a JSON report here")
    p.set_defaults(fn=cmd_axet)

    p = sub.add_parser("paper-suite", help="run the full reproduction suite")
    p.add_argument("--char", type=parse_natural, default=0, choices=(0, 5))
    p.add_argument("--report", help="write a JSON report here")
    p.set_defaults(fn=cmd_paper_suite)

    p = sub.add_parser("catalog", help="emit a built-in algebra as a file")
    p.add_argument("name", choices=CATALOG)
    p.add_argument("--alpha", help="parameter for the 3C families")
    p.add_argument("-o", "--output", help="write the file here")
    p.set_defaults(fn=cmd_catalog)
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    # tolerate "catalog emit <name>" for the emit-style calling convention
    if len(argv) >= 2 and argv[0] == "catalog" and argv[1] == "emit":
        del argv[1]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    # VERIFY_ERRORS first: they are ValueErrors too
    try:
        return args.fn(args)
    except VERIFY_ERRORS as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except USAGE_ERRORS + (OSError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
