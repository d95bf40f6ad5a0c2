"""The axetlab benchmark: one workload, one process, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload concrete-files --seed 1 \\
        --seconds 35 --trace 0

The program is imported from ./src of the checkout the script sits in,
never from an installed copy; without those sources the script exits
with status 2 and prints no result.

Set-up (a fresh import of axetlab plus building the workload's inputs
from the seed) is timed SETUP_REPEATS times before the measured window
and as many times after it; setup_s is the median.  With --trace 0 the
workload's decks of operations run back to back, in a closed loop with
one caller: the first deck, and another one only while it fits in
--seconds.  Each deck holds passes of `paper-suite --char 5` (the
probe), timed apart from the operations.  Every result is checked
against the oracle; the last line printed is a JSON object with the
end-to-end metrics.  Timed runs give every duration in reference
seconds (refclock.py): wall time corrected for the machine's speed,
which a reference loop timed twenty times a second tracks.  The log also
shows wall times.

With --trace 1 a fixed number of seed-determined decks run twice in the
same process, first untraced and then traced, with no reference loop.
The difference in wall time is the tracing overhead.  The spans and the
per-layer table are written under .bench_out/, and the last line holds
the per-layer metrics.
"""

import argparse
import gc
import importlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import types

import refclock
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 10  # before the measured window, and as many after it
MODULES = ("scalars", "linalg", "algebra", "fusion", "axes", "axets",
           "catalog", "skewverify", "papersuite", "algfile", "cli")

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("suite_char5_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# The per-layer metrics printed with --trace 1.  Counts cover the
# workload's own operations, so a bypassed layer reads 0.  A self time of
# a layer that a workload never calls would read 0 on every run, so self
# times cover the whole traced run, probe passes included, and are listed
# only for layers that every workload's traced run reaches.  The tables
# written to .bench_out/ split every layer into operations and probe.
C5_ITEMS = ("table-Q2x-plus-one", "products-F5", "axes-char5", "bullets-F5",
            "axets-char5", "axet-X4", "abstract-closures", "odd-subaxets",
            "replay-orthogonal-F5", "radical-F5", "quotient-pipeline",
            "parameter-sum", "seress-property", "dichotomy-char5")
PER_LAYER = tuple(
    [("scalars.polymul." + f, u) for f, u in (("calls", "count"),
                                               ("self_s", "s"))]
    + [("scalars.rf_new." + f, u) for f, u in (("calls", "count"),
                                                ("self_s", "s"))]
    + [("scalars.rf_eq." + f, u) for f, u in (("calls", "count"),
                                               ("self_s", "s"))]
    + [("scalars.rf.max_terms", "count"), ("scalars.parse.calls", "count")]
    + [("linalg.rref.%s.%s" % (k, f), u)
       for k in ("qq", "fp") for f, u in (("calls", "count"),
                                          ("self_s", "s"),
                                          ("cells", "count"))]
    + [("linalg.rref.ff.calls", "count"), ("linalg.rref.ff.cells", "count"),
       ("linalg.solve.calls", "count"), ("linalg.solve.dup_ratio", "ratio"),
       ("skewverify.decompose_over_b.calls", "count"),
       ("algebra.eigenspace.calls", "count"),
       ("algebra.eigenspace.self_s", "s"),
       ("algebra.eigenspace.dup_ratio", "ratio")]
    + [("%s.%s" % (layer, f), u)
       for layer in ("algebra.check_iso", "axes.verify_axis",
                     "axes.miyamoto", "axets.realize_axet",
                     "axets.classify_shape")
       for f, u in (("calls", "count"), ("self_s", "s"))]
    + [("axets.points", "count"),
       ("algfile.parse.calls", "count"), ("algfile.parse.bytes", "count"),
       ("algfile.emit.calls", "count"), ("algfile.emit.bytes", "count"),
       ("cli.main.calls", "count"),
       ("skewverify.dichotomy.calls", "count"),
       ("skewverify.dichotomy.self_s", "s"),
       ("catalog.generic.calls", "count"), ("catalog.generic.self_s", "s")]
    + [("papersuite.item.c5.%s.s" % name, "s") for name in C5_ITEMS])


def load_axetlab():
    """Import axetlab afresh from ./src and return its modules."""
    for name in [n for n in sys.modules
                 if n == "axetlab" or n.startswith("axetlab.")]:
        del sys.modules[name]
    package = importlib.import_module("axetlab")
    ax = types.SimpleNamespace(**{m: importlib.import_module("axetlab." + m)
                                  for m in MODULES})
    ax.modules = [package] + [getattr(ax, m) for m in MODULES]
    return ax


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cores": os.cpu_count(), "cpu": model,
            "python": platform.python_version()}


def tail(values):
    """p99, or the highest percentile with at least ten samples beyond it;
    the largest sample when that percentile would fall below the median
    (fewer than twenty samples)."""
    xs = sorted(values)
    n = len(xs)
    rank = min(math.ceil(0.99 * n), n - 10) if n >= 20 else n
    return xs[rank - 1], 100.0 * rank / n


class Runner:
    """Runs operations, timing and checking each one on `clock`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.spans = {}  # op kind -> [(start, end)] of passed operations

    def run(self, op):
        t0 = self.clock()
        try:
            problem = op.run()
        except Exception as e:  # the program raised: a failed operation
            problem = "%s: %s" % (type(e).__name__, e)
        t1 = self.clock()
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if self.failed <= 5:
                print("FAILED %s: %s" % (op.kind, problem[:500]),
                      file=sys.stderr)
        else:
            self.spans.setdefault(op.kind, []).append((t0, t1))
        return t1


def timed_run(workload, clock, seconds):
    """Whole decks: the first, and another one while it fits in
    `seconds`.  Returns the runner, the window's (start, end) and the
    peak RSS in MB at its end, before set-up is sampled again."""
    runner = Runner(clock.now)
    gc.collect()
    start = clock.now()
    for deck in workload.decks():
        deck_start = clock.now()
        for op in deck:
            end = runner.run(op)
        if (end - start) + (end - deck_start) > seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return runner, (start, end), peak_mb


def window_metrics(runner, window, peak_mb, clock):
    """The end-to-end metrics of a timed run, in reference seconds."""
    latencies = {kind: [clock.seconds(t0, t1) for t0, t1 in spans]
                 for kind, spans in runner.spans.items()}
    wall = {kind: [t1 - t0 for t0, t1 in spans]
            for kind, spans in runner.spans.items()}
    suite5 = latencies.pop(workloads.PROBE_KIND, [])
    wall_suite5 = wall.pop(workloads.PROBE_KIND, [])
    busy = clock.seconds(*window) - sum(suite5)
    op_latencies = [t for ts in latencies.values() for t in ts]
    n_ops = len(op_latencies)

    p99, pct = tail(op_latencies) if op_latencies else (0.0, 0.0)
    print("ops: %d completed in %.3f reference s (%.3f wall s); op_p99_ms"
          " is p%.1f of %d samples; %d probe passes"
          % (n_ops, busy, window[1] - window[0] - sum(wall_suite5), pct,
             n_ops, len(suite5)))
    for kind, ts in sorted(latencies.items()):
        print("  %-34s n=%-5d median %.3f ms (wall %.3f ms)"
              % (kind, len(ts), 1e3 * statistics.median(ts),
                 1e3 * statistics.median(wall[kind])))
    return {
        "ops_per_s": n_ops / busy,
        "op_p50_ms": 1e3 * statistics.median(op_latencies)
        if op_latencies else 0.0,
        "op_p99_ms": 1e3 * p99,
        "suite_char5_ms": 1e3 * statistics.median(suite5) if suite5 else 0.0,
        "peak_rss_mb": peak_mb,
    }


def report(runner, metrics):
    units = dict(END_TO_END)
    for name, value in metrics.items():
        print("metric %-16s %.6g %s" % (name, value, units[name]))
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def traced_run(workload, ax, seed):
    ops = [op for deck in itertools.islice(workload.decks(),
                                           workload.trace_decks)
           for op in deck]
    probes = sum(op.kind == workloads.PROBE_KIND for op in ops)
    runner = Runner()

    def run_all(tr=None):
        gc.collect()
        start = time.perf_counter()
        for op in ops:
            if tr is not None:
                tr.section = "probe" if op.kind == workloads.PROBE_KIND \
                    else "ops"
            runner.run(op)
        return start, time.perf_counter() - start

    _, untraced_s = run_all()
    tr = tracer.Tracer()
    tr.install(ax)
    try:
        origin, traced_s = run_all(tr)
    finally:
        tr.uninstall()

    items = {}
    for _, _, layer, t0, t1, _ in tr.spans:
        if layer.startswith("papersuite."):
            total, n = items.get(layer, (0.0, 0))
            items[layer] = (total + t1 - t0, n + 1)
    ops_table = tr.table("ops")
    whole = tr.table()
    overhead = {"untraced_s": untraced_s, "traced_s": traced_s,
                "overhead_s": traced_s - untraced_s,
                "overhead_frac": (traced_s - untraced_s) / untraced_s}
    suite0_s = sum(t1 - t0 for _, _, layer, t0, t1, sec in tr.spans
                   if layer == "papersuite.run_suite" and sec == "ops")
    profile = suite_profile(items, ops_table, suite0_s)

    metrics = {}
    for name, unit in PER_LAYER:
        metrics[name] = {"value": layer_metric(name, ops_table, whole,
                                               items),
                         "unit": unit}

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "trace-%s-seed%d" % (workload.name, seed))
    meta = {"workload": workload.name, "seed": seed, "machine": machine(),
            "ops": len(ops) - probes, "probe_passes": probes}
    with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
        json.dump(dict(meta, fields=["id", "parent", "layer", "start_s",
                                     "end_s", "section"],
                       spans=[[i, p, layer, t0 - origin, t1 - origin, sec]
                              for i, p, layer, t0, t1, sec in tr.spans]),
                  fh)

    def with_totals(table):
        return {layer: dict(m, total_s=items.get(layer, (None,))[0])
                for layer, m in sorted(table.items())}
    with open(stem + ".layers.json", "w", encoding="utf-8") as fh:
        json.dump(dict(meta, overhead=overhead, suite_profile=profile,
                       layers=with_totals(ops_table),
                       probe_layers=with_totals(tr.table("probe"))),
                  fh, indent=1, sort_keys=True)

    print("traced %d ops and %d probe passes; spans and layer table in %s.*"
          % (len(ops) - probes, probes, stem))
    print("tracing overhead: %.3f s (%.1f%%): untraced %.3f s, traced %.3f s"
          % (overhead["overhead_s"], 100 * overhead["overhead_frac"],
             untraced_s, traced_s))
    if profile:
        print("suite-char0 profile: %s" % json.dumps(profile))
    print("%-44s %10s %12s" % ("layer (ops)", "calls", "self_s"))
    for layer, m in sorted(ops_table.items(),
                           key=lambda kv: -kv[1]["self_s"]):
        print("%-44s %10d %12.6f" % (layer, m["calls"], m["self_s"]))
    for name, m in metrics.items():
        print("metric %-44s %.6g %s" % (name, m["value"], m["unit"]))
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def layer_metric(name, table, whole, items):
    """Counts come from the table of the workload's own operations, self
    times from the whole traced run, probe passes included, so that none
    of them is a constant 0 (see PER_LAYER)."""
    if name.endswith(".self_s"):
        return whole.get(name[:-len(".self_s")], {}).get("self_s", 0.0)
    if name.startswith("papersuite.item."):
        total, n = items.get(name[:-len(".s")], (0.0, 1))
        return total / n
    if name == "scalars.rf.max_terms":
        return table.get("scalars.rf_new", {}).get("max_terms", 0)
    if name == "axets.points":
        return table.get("axets.realize_axet", {}).get("points", 0)
    layer, field = name.rsplit(".", 1)
    return table.get(layer, {}).get(field, 0)


def suite_profile(items, ops_table, suite0_s):
    """Where the traced run_suite(0) passes spent their time, if any ran."""
    c0 = {layer[len("papersuite.item.c0."):]: total
          for layer, (total, _) in items.items()
          if layer.startswith("papersuite.item.c0.")}
    if not c0 or not suite0_s:
        return None
    top = sorted(c0, key=c0.get, reverse=True)[:4]
    top_s = sum(c0[n] for n in top)
    kernel = sum(ops_table.get(layer, {}).get("self_s", 0.0)
                 for layer in ("linalg.rref.ff", "scalars.polymul"))
    return {"run_suite_s": suite0_s, "top4": top,
            "top4_s": [c0[n] for n in top],
            "top4_share": top_s / suite0_s,
            "rref_ff_plus_polymul_self_share_of_top4": kernel / top_s}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "axetlab", "__init__.py")):
        print("error: no axetlab sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    info = machine()
    print("workload %s seed %d seconds %g trace %d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("machine: cores=%d cpu=%r python=%s"
          % (info["cores"], info["cpu"], info["python"]))

    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    clock = refclock.RefClock()  # runs in timed runs only
    setup_spans = []

    def set_up(directory):
        t0 = clock.now()
        ax = load_axetlab()
        workload = workloads.WORKLOADS[args.workload]()
        workload.setup(ax, args.seed, directory)
        setup_spans.append((t0, clock.now()))
        return workload, ax

    try:
        load_axetlab()  # compiles and caches bytecode; not timed
        if not args.trace:
            clock.start()
        for _ in range(SETUP_REPEATS):
            workload, ax = set_up(workdir)
        if args.trace:
            result = traced_run(workload, ax, args.seed)
        else:
            runner, window, peak_mb = timed_run(workload, clock,
                                                args.seconds)
            # set-up is sampled after the window too, at another moment
            for _ in range(SETUP_REPEATS):
                set_up(os.path.join(workdir, "again"))
            clock.stop()
            metrics = window_metrics(runner, window, peak_mb, clock)
            metrics["setup_s"] = statistics.median(
                clock.seconds(*span) for span in setup_spans)
            print("set-up: median %.4f wall s; reference loop %.2f to %.2f"
                  " ms over %d samples" % (
                      statistics.median(t1 - t0 for t0, t1 in setup_spans),
                      1e3 * min(s for _, s in clock.samples),
                      1e3 * max(s for _, s in clock.samples),
                      len(clock.samples)))
            result = report(runner, metrics)
    finally:
        clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
