"""Span tracing for the benchmark's traced run.

The tracer wraps public functions and class methods of axetlab from the
outside: every module attribute that is the original function is rebound
to a wrapper, so callers that imported the name directly are traced too.
Nothing in the program itself changes.

Each wrapped call becomes a span with a parent (the innermost traced
call around it).  Self time is the span's duration minus the time its
child spans cover, and the tracer's own bookkeeping is charged to
nobody: it is excluded from both the span and its parent.  The three
scalar layers (polymul, rf_new, rf_eq) run tens of thousands of times,
so they are counted and timed like the others but not stored as
individual spans.
"""

import time
from fractions import Fraction

LEAF_LAYERS = ("scalars.polymul", "scalars.rf_new", "scalars.rf_eq")


class LayerStats:
    __slots__ = ("calls", "self_s", "cells", "bytes", "points", "max_terms",
                 "keys")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.cells = 0
        self.bytes = 0
        self.points = 0
        self.max_terms = 0
        self.keys = None  # distinct input keys, for dup_ratio


def value_key(x):
    """A hashable key equal for equal stored scalar values."""
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, (list, tuple)):
        return tuple(value_key(y) for y in x)
    if getattr(x, "num", None) is not None:  # RationalFunction
        return ("rf", frozenset(x.num.terms.items()),
                frozenset(x.den.terms.items()))
    if hasattr(x, "p") and hasattr(x, "value"):  # PrimeFieldElement
        return ("fp", x.p, x.value)
    if hasattr(x, "matrix"):  # LinearMap
        return value_key(x.matrix)
    return ("field", repr(x))


def _field_tag(field):
    name = type(field).__name__
    return {"RationalField": "qq", "PrimeField": "fp",
            "FunctionField": "ff"}.get(name, name)


class Tracer:
    """Collects spans and per-layer totals, split by run section."""

    def __init__(self):
        self.section = "ops"
        self.suite_char = 0
        self.stats = {}          # (section, layer) -> LayerStats
        self.spans = []          # [id, parent, layer, start, end, section]
        self._stack = []         # frames: [span_id, child_s]
        self._next_id = 1
        self._rref_tag = None    # field of the rref call being traced
        self._patches = []       # (owner, attribute, original)

    def layer(self, name):
        key = (self.section, name)
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = LayerStats()
        return st

    # -- wrapping ---------------------------------------------------------

    def wrapper(self, name, fn, pre=None, post=None):
        """fn wrapped as layer `name` (a string or a callable giving it).

        pre(stats, args) runs before the call and post(stats, args,
        result) after it; both are outside the timed span.
        """
        perf = time.perf_counter
        stack = self._stack
        keep = name not in LEAF_LAYERS
        tracer = self

        def traced(*args, **kwargs):
            t_enter = perf()
            layer = name if isinstance(name, str) else name()
            st = tracer.layer(layer)
            if pre is not None:
                pre(st, args)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            result = done = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                t1 = perf()
                stack.pop()
                st.calls += 1
                st.self_s += (t1 - t0) - frame[1]
                if keep:
                    tracer.spans.append([span_id, parent, layer, t0, t1,
                                         tracer.section])
                if done and post is not None:
                    post(st, args, result)
                # the parent's self time excludes this call and its
                # bookkeeping, also when the call raised
                if stack:
                    stack[-1][1] += perf() - t_enter
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def rebind(self, modules, original, replacement):
        """Point every module attribute that is `original` at replacement."""
        for module in modules:
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, attribute, replacement)

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self, ax):
        """Wrap the layer boundaries of the loaded axetlab modules."""
        modules = ax.modules
        scalars, linalg = ax.scalars, ax.linalg

        def fn_layer(module, attribute, name, pre=None, post=None):
            original = getattr(module, attribute)
            self.rebind(modules, original,
                        self.wrapper(name, original, pre, post))

        mul = scalars.MultiPoly.__mul__
        traced_mul = self.wrapper("scalars.polymul", mul)
        self.patch(scalars.MultiPoly, "__mul__", traced_mul)
        self.patch(scalars.MultiPoly, "__rmul__", traced_mul)

        def rf_terms(st, args, result):
            rf = args[0]
            n = len(rf.num.terms) + len(rf.den.terms)
            if n > st.max_terms:
                st.max_terms = n
        self.patch(scalars.RationalFunction, "__init__", self.wrapper(
            "scalars.rf_new", scalars.RationalFunction.__init__,
            post=rf_terms))
        self.patch(scalars.RationalFunction, "__eq__", self.wrapper(
            "scalars.rf_eq", scalars.RationalFunction.__eq__))
        fn_layer(scalars, "parse_expression", "scalars.parse")

        def rref_name():
            return "linalg.rref." + self._rref_tag

        def rref_pre(st, args):
            st.cells += len(args[0]) * (len(args[0][0]) if args[0] else 0)
        original_rref = linalg.rref
        traced_rref = self.wrapper(rref_name, original_rref, pre=rref_pre)

        def rref_dispatch(rows, field):
            self._rref_tag = _field_tag(field)
            return traced_rref(rows, field)
        self.rebind(modules, original_rref, rref_dispatch)

        def dup_pre(key_of):
            def pre(st, args):
                if st.keys is None:
                    st.keys = set()
                st.keys.add(key_of(args))
            return pre
        fn_layer(linalg, "solve", "linalg.solve", pre=dup_pre(
            lambda a: (value_key(a[0]), value_key(a[1]), repr(a[2]))))
        self.patch(ax.algebra.StructureAlgebra, "eigenspace", self.wrapper(
            "algebra.eigenspace", ax.algebra.StructureAlgebra.eigenspace,
            pre=dup_pre(lambda a: (value_key(a[1]), value_key(a[2]),
                                   repr(a[0].field)))))
        fn_layer(ax.algebra, "check_linear_map_is_isomorphism",
                 "algebra.check_iso")
        fn_layer(ax.axes, "verify_axis", "axes.verify_axis")
        fn_layer(ax.axes, "miyamoto", "axes.miyamoto")

        def points(st, args, result):
            st.points += result.size
        fn_layer(ax.axets, "realize_axet", "axets.realize_axet", post=points)
        fn_layer(ax.axets, "classify_shape", "axets.classify_shape")

        def parse_bytes(st, args):
            st.bytes += len(args[0].encode("utf-8"))

        def emit_bytes(st, args, result):
            st.bytes += len(result.encode("utf-8"))
        fn_layer(ax.algfile, "parse_algebra_file", "algfile.parse",
                 pre=parse_bytes)
        fn_layer(ax.algfile, "emit_algebra_file", "algfile.emit",
                 post=emit_bytes)
        fn_layer(ax.cli, "main", "cli.main")
        fn_layer(ax.skewverify, "decompose_over_b",
                 "skewverify.decompose_over_b")
        fn_layer(ax.skewverify, "dichotomy_check", "skewverify.dichotomy")
        fn_layer(ax.catalog, "make_generic_skew", "catalog.generic")

        # run_suite reads SUITE and the two characteristic-dependent
        # checks at call time, so wrapping them traces every item
        ps = ax.papersuite

        def set_char(st, args):
            self.suite_char = args[0] if args else 0
        fn_layer(ps, "run_suite", "papersuite.run_suite", pre=set_char)

        def item(name, fn):
            return self.wrapper(
                lambda: "papersuite.item.c%d.%s" % (self.suite_char, name),
                fn)
        self.patch(ps, "SUITE", tuple(
            (name, chars, fn if fn is None else item(name, fn))
            for name, chars, fn in ps.SUITE))
        self.patch(ps, "check_parameter_sum",
                   item("parameter-sum", ps.check_parameter_sum))
        self.patch(ps, "check_seress",
                   item("seress-property", ps.check_seress))

    # -- results ----------------------------------------------------------

    def table(self, section=None):
        """Per-layer metrics, summed over sections (or for one section)."""
        merged = {}
        for (sec, layer), st in self.stats.items():
            if section is not None and sec != section:
                continue
            m = merged.setdefault(layer, {"calls": 0, "self_s": 0.0,
                                          "cells": 0, "bytes": 0,
                                          "points": 0, "max_terms": 0,
                                          "keys": set()})
            m["calls"] += st.calls
            m["self_s"] += st.self_s
            m["cells"] += st.cells
            m["bytes"] += st.bytes
            m["points"] += st.points
            m["max_terms"] = max(m["max_terms"], st.max_terms)
            if st.keys:
                m["keys"] |= st.keys
        for m in merged.values():
            keys = m.pop("keys")
            m["dup_ratio"] = m["calls"] / len(keys) if keys else 0.0
        return merged
