"""Tests of the benchmark itself.  Run from the repository root:

    python -m pytest -q perfbench

They check that the oracle rejects corrupted expected values, that two
traced runs with one seed count the same work, that concrete-files
bypasses the function-field layers, that BENCHMARK.json names exactly
the metrics the benchmark prints, and that the benchmark refuses to run
without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import expected  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, run.SRC)
COUNT_FIELDS = ("calls", "cells", "bytes", "max_terms", "dup_ratio",
                "points")
# function-field layers that concrete-files' operations never reach
BYPASSED = ("linalg.rref.ff", "scalars.polymul", "scalars.rf_new")


@pytest.fixture(scope="module")
def ax():
    return run.load_axetlab()


def run_ops(ops):
    runner = run.Runner()
    for op in ops:
        runner.run(op)
    return runner


def concrete_files(ax, tmp_path, seed=3):
    w = workloads.ConcreteFiles()
    w.setup(ax, seed, str(tmp_path))
    return w


def symbolic_light_deck(ax, monkeypatch, seed=3):
    """A symbolic-light deck cut down to one block of small operations."""
    monkeypatch.setattr(workloads, "BLOCKS_PER_DECK", 1)
    w = workloads.SymbolicLight()
    w.setup(ax, seed, None)
    return next(w.decks())


def cheap_suite_char0(ax, monkeypatch):
    """suite-char0 over the char-0 items that take milliseconds."""
    heavy = {"projection-relation", "bullets-3C", "seress-relation-u",
             "seress-relation-v"}
    monkeypatch.setattr(ax.papersuite, "SUITE", tuple(
        e for e in ax.papersuite.SUITE if e[0] not in heavy))
    w = workloads.SuiteChar0()
    w.setup(ax, 3, None)
    return w


CORRUPTIONS = [
    ("concrete-files", "AXET_SHAPES", "3C-skew", ("X(3)", 3)),
    ("concrete-files", "VERIFY_DIMS", "Q2", ((1, 1, 1),) * 4),
    ("concrete-files", "DICHOTOMY_LABELS", "3C-1-2", "3C(2,-1)"),
    ("symbolic-light", "CHECKS", "check_bracket_table",
     "[pass] bracket-table -- 10 beta components"),
    ("symbolic-light", "REPLAY_ORTHOGONAL", 5, "branch P = 0 -> Q2"),
    ("suite-char0", "SUITE_CHAR0", "identity-rational",
     ("pass", "one = 2/5 of the basis sum")),
    ("probe", "SUITE_CHAR5", "radical-F5", ("fail", "")),
]


@pytest.mark.parametrize("workload,table,key,value", CORRUPTIONS)
def test_corrupted_expected_value_fails_the_operation(
        ax, tmp_path, monkeypatch, workload, table, key, value):
    if workload == "concrete-files":
        ops = concrete_files(ax, tmp_path)._deck()
    elif workload == "symbolic-light":
        ops = symbolic_light_deck(ax, monkeypatch)
    elif workload == "suite-char0":
        ops = next(cheap_suite_char0(ax, monkeypatch).decks())
    else:
        ops = [workloads.suite_char5_op(ax)]
    assert run_ops(ops).failed == 0
    monkeypatch.setitem(getattr(expected, table), key, value)
    assert run_ops(ops).failed > 0


def test_independent_point_values_catch_a_wrong_formula(ax, monkeypatch):
    ops = symbolic_light_deck(ax, monkeypatch)
    point_ops = [op for op in ops if op.kind in (
        "shift_difference_at", "SkewConstants.evaluate",
        "SkewConstants.substitute")]
    assert len(point_ops) == 12 and run_ops(point_ops).failed == 0
    original = workloads.oracle.skew_constants

    def off_by_one(*point):
        values = original(*point)
        values["P"] += 1
        return values
    monkeypatch.setattr(workloads.oracle, "skew_constants", off_by_one)
    assert run_ops(point_ops).failed >= 8  # at least every op reading P


def test_concrete_files_cover_fields_dimensions_and_shapes(ax, tmp_path):
    w = concrete_files(ax, tmp_path)
    primes = {p for _, _, _, p in w.files if p is not None}
    assert len(primes) >= 3
    assert any(p is None and kind != "Q2x" and kind != "Q2x5"
               for kind, _, _, p in w.files)
    kinds = {kind for kind, _, _, _ in w.files}
    assert kinds >= set(expected.AXET_SHAPES)
    shapes = {expected.AXET_SHAPES[k][0] for k in kinds}
    assert shapes == {"X(2)", "X(3)", "X(4)", "Xskew(1)"}
    assert {len(expected.VERIFY_DIMS[k]) for k in kinds} == {2, 3, 4}
    sizes = {ax.algfile.parse_algebra_file(open(path).read()).algebra.dim
             for _, path, _, _ in w.files}
    assert sizes == {2, 3, 4}


def test_reference_seconds_cancel_a_slower_machine():
    clock = refclock.RefClock()
    fast = refclock.REF_SECONDS
    # one sample a second: fast for 20 s, then twice as slow for 20 s
    clock.samples = [(t, fast if t < 20 else 2 * fast) for t in range(40)]
    assert clock.seconds(2.0, 3.5) == pytest.approx(1.5)
    assert clock.seconds(30.0, 33.0) == pytest.approx(1.5)
    assert clock.seconds(0.0, 39.0) == pytest.approx(29.5, abs=2.5)


def test_reference_clock_leaves_out_its_own_passes():
    clock = refclock.RefClock(interval=0.05)
    clock.start()
    try:
        p0, w0 = clock.now(), time.perf_counter()
        end = w0 + 0.5
        while time.perf_counter() < end:
            pass
        p1, w1 = clock.now(), time.perf_counter()
    finally:
        clock.stop()
    assert len(clock.samples) > 5
    assert p1 - p0 == pytest.approx(w1 - w0 - clock.paused + clock.samples[
        0][1] + clock.samples[-1][1], abs=1e-3)


def traced(workload, seed, root):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, timeout=170, cwd=root)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    stem = os.path.join(run.OUT, "trace-%s-seed%d" % (workload, seed))
    with open(stem + ".layers.json", encoding="utf-8") as fh:
        return result, json.load(fh)


@pytest.mark.parametrize("workload", ["concrete-files", "symbolic-light"])
def test_traced_counts_repeat_exactly(workload):
    first, layers1 = traced(workload, 5, run.ROOT)
    second, layers2 = traced(workload, 5, run.ROOT)
    counts = [(layer, field) for layer, m in layers1["layers"].items()
              for field in COUNT_FIELDS if field in m]
    assert counts
    for layer, field in counts:
        assert layers1["layers"][layer][field] == \
            layers2["layers"][layer][field], (layer, field)
    for name, m in first["metrics"].items():
        if m["unit"] != "s":
            assert second["metrics"][name] == m, name
    bypassed = {name: first["metrics"][name + ".calls"]["value"]
                for name in BYPASSED}
    if workload == "concrete-files":
        # function-field optimisations cannot move this workload's ops
        assert bypassed == dict.fromkeys(BYPASSED, 0)
    else:
        assert bypassed["scalars.polymul"] > 0


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "concrete-files",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
