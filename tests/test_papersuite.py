"""The bundled verification suite: table freezes, runner, reporting."""

import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

import axetlab.papersuite as ps
from axetlab import skewverify
from axetlab.catalog import (make_3C_minus1_2, make_orthogonal_branch,
                             make_Q2_skew, make_Q2_third, make_Q2x_plus_one,
                             skew_examples)
from axetlab.scalars import QQ


def frozen_tables():
    return [
        (make_Q2_third(QQ), ps.Q2_THIRD_EXPECTED),
        (make_Q2x_plus_one().algebra, ps.Q2X_PLUS_ONE_EXPECTED),
        (make_orthogonal_branch(QQ).algebra, ps.ORTHOGONAL_BRANCH_EXPECTED),
    ]


def test_pristine_tables_have_no_mismatches():
    for algebra, expected in frozen_tables():
        assert ps.table_mismatches(algebra, expected) == []


def test_every_coefficient_mutation_is_detected():
    for algebra, expected in frozen_tables():
        n = algebra.dim
        for i in range(n):
            for j in range(i, n):
                for k in range(n):
                    bad = ps.table_mismatches(
                        ps.perturbed(algebra, i, j, k), expected)
                    pair = "(%s, %s)" % (algebra.basis_names[i],
                                         algebra.basis_names[j])
                    assert bad == [pair], (i, j, k, bad)


def test_perturbed_leaves_original_alone():
    A = make_Q2_third()
    _ = ps.perturbed(A, 0, 2, 0)
    assert ps.table_mismatches(A, ps.Q2_THIRD_EXPECTED) == []


def test_suite_char0_green():
    report = ps.run_suite(0)
    assert report.passed
    statuses = {i.name: i.status for i in report.items}
    assert statuses["table-Q2-third"] == "pass"
    assert statuses["replay-orthogonal"] == "pass"
    assert statuses["dichotomy-char0"] == "pass"
    assert statuses["table-Q2x-plus-one"] == "skip"
    skips = [i for i in report.items if i.status == "skip"]
    assert all(i.detail == "characteristic 5 only" for i in skips)
    assert sum(1 for i in report.items if i.status == "pass") == 28
    assert len(skips) == 10


def test_suite_char5_green():
    report = ps.run_suite(5)
    assert report.passed
    statuses = {i.name: i.status for i in report.items}
    assert statuses["table-Q2x-plus-one"] == "pass"
    assert statuses["quotient-pipeline"] == "pass"
    assert statuses["replay-orthogonal-F5"] == "pass"
    assert statuses["table-Q2-third"] == "skip"
    assert sum(1 for i in report.items if i.status == "pass") == 14
    assert sum(1 for i in report.items if i.status == "skip") == 24


def test_suite_items_match_the_benchmark_oracle():
    """Every item's (status, detail) is the one the benchmark records."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "expected.py"
    spec = importlib.util.spec_from_file_location("perfbench_expected", path)
    expected = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(expected)
    for char, want in ((0, expected.SUITE_CHAR0), (5, expected.SUITE_CHAR5)):
        got = {i.name: (i.status, i.detail) for i in ps.run_suite(char).items}
        assert got == want
    # the full replay text, constraints included
    for char in (0, 5):
        assert repr(skewverify.replay_orthogonal_branch(char)) \
            == expected.REPLAY_ORTHOGONAL[char]
    assert [repr(r) for r in skewverify.replay_nonorthogonal_branch()] \
        == expected.REPLAY_NONORTHOGONAL


def test_suite_rejects_other_characteristics():
    with pytest.raises(ValueError):
        ps.run_suite(3)
    with pytest.raises(ValueError):
        ps.run_suite(7)


def test_suite_is_deterministic():
    assert ps.run_suite(0).to_text() == ps.run_suite(0).to_text()
    assert ps.run_suite(5).to_json() == ps.run_suite(5).to_json()


def test_text_report_shape():
    report = ps.run_suite(5)
    lines = report.to_text().splitlines()
    assert lines[0] == "verification suite, characteristic 5"
    assert lines[-1] == "14 passed, 0 failed, 24 skipped"
    assert len(lines) == len(report.items) + 2


def test_json_report_shape():
    report = ps.run_suite(0)
    data = json.loads(report.to_json())
    assert data["characteristic"] == 0
    assert data["passed"] is True
    assert len(data["items"]) == len(ps.SUITE)
    for item in data["items"]:
        assert set(item) == {"name", "status", "detail"}


def test_failing_check_is_recorded_not_raised(monkeypatch):
    def boom():
        raise ValueError("synthetic failure")

    monkeypatch.setattr(ps, "SUITE", (
        ("synthetic", (0,), boom),
        ("elsewhere", (5,), boom),
    ))
    report = ps.run_suite(0)
    assert not report.passed
    assert report.items[0].status == "fail"
    assert report.items[0].detail == "ValueError: synthetic failure"
    assert report.items[1].status == "skip"
    assert report.to_text().splitlines()[-1] == "0 passed, 1 failed, 1 skipped"


def test_a_passed_item_is_named_by_its_suite_row(monkeypatch):
    monkeypatch.setattr(ps, "SUITE", (
        ("row-name", (0,), lambda: skewverify.CheckResult("other", True, "d")),
    ))
    report = ps.run_suite(0)
    assert [(i.name, i.status, i.detail) for i in report.items] == [
        ("row-name", "pass", "d")]


def test_mutated_table_turns_an_item_red(monkeypatch):
    def check_mutated():
        bad = ps.table_mismatches(ps.perturbed(make_Q2_third(), 0, 2, 0),
                                  ps.Q2_THIRD_EXPECTED)
        if bad:
            raise ValueError("mismatched entries at %s" % ", ".join(bad))
        return ps._result("table-Q2-third")

    monkeypatch.setattr(ps, "SUITE", (("table-Q2-third", (0,),
                                       check_mutated),))
    report = ps.run_suite(0)
    assert not report.passed
    assert "(s1, d1)" in report.items[0].detail


def perturbed_example(ex, i, j, k):
    """The example over a copy of its algebra with one constant shifted."""
    A = ps.perturbed(ex.algebra, i, j, k)

    def home(element):
        return A.element(list(element.coords))
    return dataclasses.replace(ex, algebra=A, m_axis=home(ex.m_axis),
                               j_axis=home(ex.j_axis), third=home(ex.third))


def test_pair_case_fails_when_the_oracle_admits_every_pair(monkeypatch):
    monkeypatch.setattr(skewverify, "rehren_oracle",
                        lambda alpha, beta, field=None: ("2B", "3C(-1,2)"))
    with pytest.raises(skewverify.ContradictionNotFound):
        skewverify.replay_nonorthogonal_branch()


def test_pair_case_fails_on_a_perturbed_3C_minus1_2(monkeypatch):
    monkeypatch.setattr(skewverify, "make_3C_minus1_2", lambda field=None:
                        perturbed_example(make_3C_minus1_2(field), 0, 0, 0))
    with pytest.raises(skewverify.ContradictionNotFound,
                       match="the pinned algebra is 3C\\(-1,2\\)"):
        skewverify.replay_nonorthogonal_branch()


def failure_details(char):
    report = ps.run_suite(char)
    details = {i.name: i.detail for i in report.items if i.status == "fail"}
    assert not any("residual None" in d for d in details.values())
    return details


def perturb_orthogonal_branch(monkeypatch):
    def build(field=None):
        return perturbed_example(make_orthogonal_branch(field), 0, 0, 0)
    monkeypatch.setattr(ps, "make_orthogonal_branch", build)
    monkeypatch.setattr(skewverify, "make_orthogonal_branch", build)


def test_perturbed_rational_examples_turn_the_merged_checks_red(monkeypatch):
    monkeypatch.setattr(ps, "skew_examples", lambda char=0: [
        perturbed_example(ex, 0, 0, 0) if ex.label == "3C(1/4,3/4)" else ex
        for ex in skew_examples(char)])
    monkeypatch.setattr(ps, "make_Q2_skew", lambda field=None:
                        perturbed_example(make_Q2_skew(field), 0, 0, 0))
    perturb_orthogonal_branch(monkeypatch)
    details = failure_details(0)
    assert details["table-orthogonal-branch"] == (
        "ContradictionNotFound: table-orthogonal-branch entries: (b, b)")
    assert details["axes-char0"].startswith(
        "ContradictionNotFound: m axis of 3C(1/4,3/4): idempotent=False")
    assert details["axets-char0"] == ("ContradictionNotFound: 3C(1/4,3/4): "
                                      "both axes verify under the M law")
    assert details["replay-orthogonal"] == (
        "ContradictionNotFound: rebuilt table matches the orthogonal "
        "branch table")
    assert details["dichotomy-char0"] == (
        "ContradictionNotFound: dichotomy gives skew Q2(1/3,2/3): "
        "NoMatch: p is not an axis under the given law")
    for name in ("products-Q2-skew", "bullets-Q2-skew"):
        assert details[name] == ("ContradictionNotFound: the algebra has an "
                                 "identity")


def test_perturbed_F5_example_turns_the_merged_checks_red(monkeypatch):
    monkeypatch.setattr(ps, "make_Q2x_plus_one", lambda:
                        perturbed_example(make_Q2x_plus_one(), 2, 2, 2))
    perturb_orthogonal_branch(monkeypatch)
    details = failure_details(5)
    label = "Q2(1/3)^x + one"
    assert details["table-Q2x-plus-one"] == (
        "ContradictionNotFound: table-Q2x-plus-one entries: (z, z)")
    assert details["axes-char5"].startswith(
        "ContradictionNotFound: m axis of %s: idempotent=False" % label)
    assert details["axets-char5"] == ("ContradictionNotFound: %s: both axes "
                                      "verify under the M law" % label)
    assert details["replay-orthogonal-F5"] == (
        "ContradictionNotFound: rebuilt table matches the orthogonal "
        "branch table")
    assert details["dichotomy-char5"] == (
        "ContradictionNotFound: dichotomy gives skew Q2(1/3)^x + one: "
        "NoMatch: p is not an axis under the given law")
    assert details["bullets-F5"] == ("IdentityFails: w in the 1 part of w: "
                                     "nonzero residual z")


def test_a_library_failure_names_the_last_check_that_held(monkeypatch):
    monkeypatch.setattr(ps, "make_Q2x_plus_one", lambda:
                        perturbed_example(make_Q2x_plus_one(), 0, 0, 0))
    assert failure_details(5)["bullets-F5"] == (
        "NotSemisimple: Miyamoto map of 4*z + one is not an automorphism "
        "(after expansion of x over w)")


def test_a_wrong_oracle_label_is_named_in_the_detail(monkeypatch):
    monkeypatch.setattr(ps, "rehren_oracle", lambda alpha, beta: ("2B",))
    assert failure_details(0)["rehren-oracle"] == (
        "ContradictionNotFound: pair oracle at (1/4, 3/4): ('2B',)")


# -- the Seress property as commuting adjoints ---------------------------------

def seress_by_products(A, a):
    """a(xu) = (ax)u by four element products per (u, x), the reference
    for seress_property."""
    ones, zeros = A.eigenspaces(a, [A.field.one, A.field.zero])
    for u in ones + zeros:
        for x in A.basis():
            if a * (x * u) != (a * x) * u:
                return False, (u, x)
    return True, None


def seress_cases_and_perturbations():
    """Every _seress_cases pair, then each of them with one structure
    constant shifted by 1, for every constant."""
    for char in (0, 5):
        for A, a in ps._seress_cases(char):
            yield A, a
            for i in range(A.dim):
                for j in range(i, A.dim):
                    for k in range(A.dim):
                        B = ps.perturbed(A, i, j, k)
                        yield B, B.element(a.coords)


def test_seress_property_matches_the_four_products():
    failures = 0
    for A, a in seress_cases_and_perturbations():
        got = ps.seress_property(A, a)
        assert got == seress_by_products(A, a)
        failures += not got[0]
    assert failures > 100  # the perturbations reach the failing branch
