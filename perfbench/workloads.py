"""The three benchmark workloads and the paper-suite probe.

A workload's setup() builds its inputs from the seed alone; decks() then
yields an endless, seed-determined stream of decks, each a list of
operations with a fixed mix of kinds.  Runs measure whole decks, so the
mix in a run does not depend on where its time ran out.  Each operation
is a closure that drives axetlab through public functions only and
returns None when the result matches the oracle, or a short description
of the mismatch.  An exception raised by the program is a failure too.

Operations build everything they use from scratch (files are parsed
afresh, contexts constructed anew), so running an operation twice does
the same work twice.
"""

import contextlib
import io
import os
import random
from fractions import Fraction

import expected
import oracle

# Every deck holds a few passes of `paper-suite --char 5` (the probe), so
# that every workload reports suite_char5_ms, as each end-to-end metric
# must be reported on every workload.
PROBE_KIND = "run_suite(5)"


class Op:
    __slots__ = ("kind", "run")

    def __init__(self, kind, run):
        self.kind = kind
        self.run = run


def _rational(rng):
    """A nonzero rational with numerator and denominator below 10."""
    while True:
        n = rng.randint(-9, 9)
        if n:
            return Fraction(n, rng.randint(1, 9))


def _skew_point(rng):
    """alpha, beta, l1, l1f, l2f with the generic algebra defined."""
    while True:
        a, b = _rational(rng), _rational(rng)
        if oracle.valid_skew_point(a, b):
            return a, b, _rational(rng), _rational(rng), _rational(rng)


def _suite_mismatch(report, names, recorded):
    got = [item.name for item in report.items]
    if got != list(names):
        return "items ran in the order %r" % (got,)
    for item in report.items:
        want = recorded[item.name]
        if (item.status, item.detail) != want:
            return "%s: %s %r, recorded %s %r" % (
                item.name, item.status, item.detail, want[0], want[1])
    return None


def suite_char5_op(ax):
    """One `paper-suite --char 5` pass, checked item by item."""
    def run():
        ps = ax.papersuite
        names = [name for name, _, _ in ps.SUITE]
        return _suite_mismatch(ps.run_suite(5), names, expected.SUITE_CHAR5)
    return Op(PROBE_KIND, run)


# -- suite-char0 ---------------------------------------------------------

class SuiteChar0:
    """papersuite.run_suite(0), with the item order drawn from the seed."""

    name = "suite-char0"
    trace_decks = 1

    def setup(self, ax, seed, workdir):
        self.ax = ax
        self.order = list(range(len(ax.papersuite.SUITE)))
        random.Random(seed).shuffle(self.order)

    def decks(self):
        probes = [suite_char5_op(self.ax) for _ in range(5)]
        while True:
            yield probes + [Op("run_suite(0)", self._run)] + probes

    def _run(self):
        ps = self.ax.papersuite
        canonical = ps.SUITE
        # run_suite reads SUITE at call time; the seeded order is applied
        # to whatever entries are installed (traced ones included)
        ps.SUITE = tuple(canonical[i] for i in self.order)
        try:
            report = ps.run_suite(0)
        finally:
            ps.SUITE = canonical
        names = [canonical[i][0] for i in self.order]
        return _suite_mismatch(report, names, expected.SUITE_CHAR0)


# -- symbolic-light --------------------------------------------------------

SMALL_CHECKS = ("check_eigenvectors_generic", "check_constant_chains",
                "check_bracket_table", "check_shifted_pair",
                "check_flip_symmetry", "check_shift_expansion")
RELATION_CHECKS = ("check_projection_relation", "check_seress_relation_u",
                   "check_seress_relation_v")
# A deck holds this many blocks of small operations and one of each
# pinned relation check, so every deck has the same mix; the relation
# checks then take about a tenth of the time, and with fewer samples
# than lie beyond the p99 rank they stay out of op_p99_ms.
BLOCKS_PER_DECK = 24
POINT_OPS_PER_BLOCK = 4
PROBE_EVERY = 2  # blocks per probe pass


class SymbolicLight:
    """Small function-field operations: replays, checks, point values,
    function-field files, and in every deck each relation check once,
    over Q(alpha, beta) with the other six symbols pinned."""

    name = "symbolic-light"
    trace_decks = 1

    def setup(self, ax, seed, workdir):
        self.ax = ax
        self.seed = seed
        rng = random.Random(seed)
        ff1 = ax.scalars.FunctionField(("alpha",))
        alpha = ff1.sym("alpha")
        A = ax.catalog.make_3C(alpha, ff1)
        law = ax.fusion.make_jordan(alpha)
        files = [ax.algfile.emit_algebra_file(
            A, [(A.gen(n), law) for n in A.basis_names])]
        skew = ax.scalars.skew_field()
        generic = ax.catalog.SkewConstants.generic()
        for _ in range(2):
            a, b, l1, l1f, l2f = _skew_point(rng)
            pinned = generic.substitute({"alpha": skew.coerce(a),
                                         "beta": skew.coerce(b)})
            files.append(ax.algfile.emit_algebra_file(
                ax.catalog.make_generic_skew(pinned)))
            pins = (l1, l1f, l2f) + tuple(_rational(rng) for _ in range(3))
            _, B = self._pinned_context(pins)
            files.append(ax.algfile.emit_algebra_file(B))
        self.files = files

    def _pinned_context(self, pins):
        """The generic algebra over Q(alpha, beta), six symbols pinned."""
        ax = self.ax
        ff2 = ax.scalars.FunctionField(("alpha", "beta"))
        c = ax.catalog.SkewConstants(ff2.sym("alpha"), ff2.sym("beta"),
                                     *[ff2.coerce(x) for x in pins])
        return c, ax.catalog.make_generic_skew(c)

    def decks(self):
        rng = random.Random(self.seed + 1)
        file_index = 0
        while True:
            deck = []
            for block in range(BLOCKS_PER_DECK):
                deck += [self._replay_orth(0), self._replay_orth(5),
                         self._replay_nonorth()]
                deck += [self._check(name) for name in SMALL_CHECKS]
                for _ in range(POINT_OPS_PER_BLOCK):
                    deck.append(self._shift_difference(*_skew_point(rng)[:4]))
                    deck.append(self._constants_evaluate(_skew_point(rng)))
                    deck.append(self._constants_substitute(_skew_point(rng)))
                    deck.append(self._parse_emit(
                        self.files[file_index % len(self.files)]))
                    file_index += 1
                if block % PROBE_EVERY == 0:
                    deck.append(suite_char5_op(self.ax))
            for name in RELATION_CHECKS:
                pins = _skew_point(rng)[2:] + (_rational(rng),
                                               _rational(rng),
                                               _rational(rng))
                deck.append(self._relation(name, pins))
            rng.shuffle(deck)
            yield deck

    def _replay_orth(self, char):
        def run():
            got = repr(self.ax.skewverify.replay_orthogonal_branch(char))
            want = expected.REPLAY_ORTHOGONAL[char]
            return None if got == want else "replay char %d: %r" % (char, got)
        return Op("replay_orthogonal_branch(%d)" % char, run)

    def _replay_nonorth(self):
        def run():
            got = [repr(r) for r in
                   self.ax.skewverify.replay_nonorthogonal_branch()]
            ok = got == expected.REPLAY_NONORTHOGONAL
            return None if ok else "nonorthogonal replay: %r" % (got,)
        return Op("replay_nonorthogonal_branch", run)

    def _check(self, name):
        def run():
            got = repr(getattr(self.ax.skewverify, name)())
            return None if got == expected.CHECKS[name] else got
        return Op(name, run)

    def _relation(self, name, pins):
        def run():
            context = self._pinned_context(pins)
            got = repr(getattr(self.ax.skewverify, name)(context))
            return None if got == expected.CHECKS[name] else got
        return Op(name + " (pinned)", run)

    def _shift_difference(self, a, b, l1, l1f):
        def run():
            got = self.ax.skewverify.shift_difference_at(a, b, l1, l1f)
            want = oracle.shift_difference(a, b, l1, l1f)
            return None if got == want else "shift difference %s != %s" % (
                got, want)
        return Op("shift_difference_at", run)

    def _constants_evaluate(self, point):
        def run():
            ax = self.ax
            assignment = self._assignment(point)
            generic = ax.catalog.SkewConstants.generic()
            at = generic.evaluate(assignment, ax.scalars.QQ)
            want = oracle.skew_constants(*point)
            for name, value in want.items():
                symbolic = getattr(generic, name).evaluate(assignment,
                                                           ax.scalars.QQ)
                if symbolic != value or getattr(at, name) != value:
                    return "%s at %r" % (name, point)
            return None
        return Op("SkewConstants.evaluate", run)

    def _constants_substitute(self, point):
        def run():
            ax = self.ax
            skew = ax.scalars.skew_field()
            a, b = point[:2]
            pinned = ax.catalog.SkewConstants.generic().substitute(
                {"alpha": skew.coerce(a), "beta": skew.coerce(b)})
            assignment = self._assignment(point)
            for name, value in oracle.skew_constants(*point).items():
                got = getattr(pinned, name).evaluate(assignment,
                                                     ax.scalars.QQ)
                if got != value:
                    return "%s after substitution at %r" % (name, point)
            return None
        return Op("SkewConstants.substitute", run)

    @staticmethod
    def _assignment(point):
        a, b, l1, l1f, l2f = point
        return {"alpha": a, "beta": b, "l1": l1, "l1f": l1f, "l2f": l2f,
                "zeta": Fraction(0), "theta": Fraction(0),
                "kappa": Fraction(0)}

    def _parse_emit(self, text):
        def run():
            algfile = self.ax.algfile
            doc = algfile.parse_algebra_file(text)
            again = algfile.emit_algebra_file(doc.algebra, doc.axes)
            return None if again == text else "round trip changed the file"
        return Op("parse+emit (function field)", run)


# -- concrete-files --------------------------------------------------------

PRIMES = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
          73, 79, 83, 89, 97)
SKEW_PAIR_KINDS = ("3C-skew", "3C-1-2", "Q2-skew", "Q2x5", "orthogonal",
                   "3C-skew-Fp", "Q2-skew-Fp")


def skew_alpha_ok(alpha, p=None):
    """Whether 3C(alpha, 1 - alpha) exists (over Q, or over F_p)."""
    if p is None:
        return alpha not in (0, 1, Fraction(1, 2), -1)
    if alpha.denominator % p == 0:
        return False
    a = alpha.numerator * pow(alpha.denominator, -1, p) % p
    return a not in (0, 1, (p + 1) // 2, p - 1)


class ConcreteFiles:
    """The command line and the dichotomy on algebra files over Q and F_p.

    The files cover every catalog name, 3C and 3C-skew at seeded rational
    alpha, and 3C-skew, Q2 and the Q2 skew pair over three seeded primes.
    """

    name = "concrete-files"
    trace_decks = 2

    def setup(self, ax, seed, workdir):
        self.ax = ax
        self.seed = seed
        rng = random.Random(seed)
        os.makedirs(workdir, exist_ok=True)
        self.files = []  # (kind, path, alpha, p)

        def alpha(p=None):
            while True:
                a = _rational(rng)
                if skew_alpha_ok(a, p):
                    return a

        catalog = [("2B", None), ("3C", alpha()), ("3C", alpha()),
                   ("3C-skew", alpha()), ("3C-skew", alpha()),
                   ("3C-skew", alpha()), ("3C-1-2", None), ("Q2", None),
                   ("Q2-skew", None), ("Q2x", None), ("Q2x5", None),
                   ("orthogonal", None)]
        for i, (name, a) in enumerate(catalog):
            path = os.path.join(workdir, "%02d-%s.alg" % (i, name))
            argv = ["catalog", name, "-o", path]
            if a is not None:
                argv.append("--alpha=%s" % a)
            with contextlib.redirect_stdout(io.StringIO()):
                code = ax.cli.main(argv)
            if code != 0:
                raise RuntimeError("axetlab %s exited %d" % (argv, code))
            self.files.append((name, path, a, None))

        for p in sorted(rng.sample(PRIMES, 3)):
            field = ax.scalars.PrimeField(p)
            a = alpha(p)
            ex = ax.catalog.make_3C_skew(a, field)
            self._emit(workdir, "3C-skew-Fp", a, p, ex.algebra,
                       [(ex.m_axis, ex.m_law), (ex.j_axis, ex.j_law)])
            A = ax.catalog.make_Q2_third(field)
            j = ax.fusion.make_jordan(field.coerce(Fraction(1, 3)))
            m = ax.fusion.make_monster(field.coerce(Fraction(2, 3)),
                                       field.coerce(Fraction(1, 3)))
            self._emit(workdir, "Q2-Fp", None, p, A,
                       [(A.gen("s1"), j), (A.gen("s2"), j),
                        (A.gen("d1"), m), (A.gen("d2"), m)])
            ex = ax.catalog.make_Q2_skew(field)
            self._emit(workdir, "Q2-skew-Fp", None, p, ex.algebra,
                       [(ex.m_axis, ex.m_law), (ex.j_axis, ex.j_law)])

    def _emit(self, workdir, kind, alpha, p, algebra, axes):
        path = os.path.join(workdir, "%02d-%s-%d.alg"
                            % (len(self.files), kind, p))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.ax.algfile.emit_algebra_file(algebra, axes))
        self.files.append((kind, path, alpha, p))

    def _deck(self):
        deck = []
        for kind, path, alpha, p in self.files:
            deck.append(self._cli("verify", kind, path))
            deck.append(self._cli("axet", kind, path))
            if kind in SKEW_PAIR_KINDS:
                deck.append(self._dichotomy(kind, path, alpha, p))
        return deck

    def decks(self):
        rng = random.Random(self.seed + 1)
        while True:
            deck = self._deck() + [suite_char5_op(self.ax)]
            rng.shuffle(deck)
            yield deck

    def _cli(self, command, kind, path):
        check = oracle.check_verify if command == "verify" \
            else oracle.check_axet

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = self.ax.cli.main([command, path])
            problem = check(kind, code, out.getvalue())
            return None if problem is None else "%s %s: %s" % (
                command, os.path.basename(path), problem)
        return Op("cli " + command, run)

    def _dichotomy(self, kind, path, alpha, p):
        def run():
            ax = self.ax
            with open(path, "r", encoding="utf-8") as fh:
                doc = ax.algfile.parse_algebra_file(fh.read())
            (m_axis, m_law), (j_axis, j_law) = doc.axes[:2]
            got = ax.skewverify.dichotomy_check(doc.algebra, m_axis, j_axis,
                                                m_law, j_law)
            want = ("skew", oracle.dichotomy_label(kind, alpha, p))
            return None if got == want else "dichotomy %s: %r" % (
                os.path.basename(path), got)
        return Op("dichotomy_check", run)


WORKLOADS = {w.name: w for w in (SuiteChar0, SymbolicLight, ConcreteFiles)}
