"""The benchmark's own checks must catch wrong answers.

    python3 -m pytest perfbench

Each test feeds a check an outcome that is wrong in one way (a wrong
exponent, a wrong operator, an accepted mutant, an unbalanced claim) and
expects a complaint, next to the real outcome, which must pass.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
from types import SimpleNamespace

import pytest

import run

run.load_homcert()

import corpus  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402

WORK = run.OUT / "test-work"


def _build(workload, seed=3):
    shutil.rmtree(WORK, ignore_errors=True)
    return {op.label: op for op in corpus.BUILDERS[workload](seed, corpus.Workdir(WORK))}


@pytest.fixture(scope="module")
def search_ops():
    return _build("search")


@pytest.fixture(scope="module")
def certify_ops():
    return _build("certify")


def _with_report(outcome, **changes):
    report = json.loads(outcome.out)
    report.update(changes)
    return dataclasses.replace(outcome, out=json.dumps(report))


def test_search_check_catches_a_wrong_exponent(search_ops):
    op = search_ops["find/Z2-2.0/t2"]
    outcome = op.call()
    assert op.gave_result(outcome) and op.check(outcome) == []
    (k,) = json.loads(outcome.out)["exponents"]
    for wrong in (k - 1, k + 1):
        assert op.check(_with_report(outcome, exponents=[wrong]))


def test_search_check_catches_a_wrong_operator(search_ops):
    op = search_ops["find/Z3-5.0/t2"]
    outcome = op.call()
    report = json.loads(outcome.out)
    entries = report["ops"][0][0]["entries"]
    entries[0][0] = str(int(entries[0][0]) + 1)
    assert op.check(dataclasses.replace(outcome, out=json.dumps(report)))


def test_search_check_catches_a_false_obstruction(search_ops):
    op = search_ops["find/Q-0.0/t2"]
    fake = corpus.Outcome(1, json.dumps({"obstructed": [True], "exponents": [None]}), "")
    assert op.gave_result(fake) and op.check(fake)


def test_random_lift_check_catches_a_wrong_exponent(search_ops):
    op = search_ops["lift/split.0/t2/Z"]
    outcome = op.call()
    assert op.check(outcome) == []
    res = outcome.value
    wrong = dataclasses.replace(res, exponents=(res.exponents[0] + 1,))
    assert op.check(dataclasses.replace(outcome, value=wrong))


def test_kept_failing_search_still_fails(search_ops):
    op = search_ops["find/Z-2^20/t2"]
    assert op.kept_failing and not op.gave_result(op.call())


def test_certify_check_catches_an_accepted_mutant(certify_ops):
    label = next(label for label in certify_ops if label.startswith("mutant/"))
    op = certify_ops[label]
    outcome = op.call()
    assert outcome.code == 1 and op.check(outcome) == []
    accepted = corpus.Outcome(0, json.dumps({"accepted": True, "claim": []}), "")
    assert op.check(accepted)
    two_lines = dataclasses.replace(outcome, err=outcome.err + outcome.err)
    assert op.check(two_lines)


def test_certify_check_catches_an_unbalanced_claim(certify_ops):
    op = certify_ops["sum/Q"]
    outcome = op.call()
    assert op.check(outcome) == []
    # Every structure with a nonzero scalar here has chi = 0 (trace of
    # d.e + e.d = s.id), so an unbalanced claim needs objects with chi != 0.
    obj = SimpleNamespace(complex=SimpleNamespace(min_degree=0, ranks=(2,)))
    cert = SimpleNamespace(registry=(("a", obj), ("b", obj)))
    check = corpus._certify_valid("fake", "unused.json", cert).check
    report = {"accepted": True, "claim": [["a", 1], ["b", -1]]}
    assert check(corpus.Outcome(0, json.dumps(report), "")) == []
    report["claim"] = [["a", 1], ["b", 1]]
    assert check(corpus.Outcome(0, json.dumps(report), ""))


def test_certificate_recheck_catches_a_wrong_claim():
    from homcert.certificates import ClassExpr, sum_certificate
    from homcert.constructions import disk
    from homcert.exactalg import ZZ

    cert = sum_certificate(disk(ZZ, 2, 2, (3,)), disk(ZZ, 1, 1, (3,)), 2)
    assert corpus.certificate_recheck(cert, "sum") == []
    bad = dataclasses.replace(cert, claim=ClassExpr.build([("sum", 1), ("left", -1)]))
    assert corpus.certificate_recheck(bad, "sum")


def test_kept_failing_certify_still_fails(certify_ops):
    op = certify_ops["sum/Z4"]
    assert op.kept_failing and not op.gave_result(op.call())


def test_oracle_exponents():
    # Z --12--> Z with t = 6 needs 6^2; t = 2 never reaches 3.
    assert oracle.least_exponent_z([1, 1], [[[12]]], 6) == 2
    assert oracle.least_exponent_z([1, 2], [[[4, 0]]], 2) is None
    assert oracle.least_exponent_field([1, 1], [[[5]]], 7) == 1
    assert oracle.least_exponent_field([1, 1], [[[7]]], 7) is None
    assert oracle.least_exponent_pieces([0, 3], 3, 9) == 2
    assert oracle.least_exponent_pieces([4, 1], 2, 8) == 2


def test_oracle_homotopy_problems():
    # Z --2--> Z with e = 1: d e + e d = 2 in both degrees.
    assert oracle.homotopy_problems(None, [1, 1], [[[2]]], [2], [[[[1]]]]) == []
    assert oracle.homotopy_problems(None, [1, 1], [[[2]]], [4], [[[[1]]]])
    assert oracle.homotopy_problems(3, [1, 1], [[[2]]], [1], [[[[2]]]]) == []


def test_tracer_counts_calls_and_restores_originals(certify_ops):
    from homcert import certificates

    original = certificates.check_certificate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        op = certify_ops["transport/Z"]
        tracer.op(op.label, op.call)
        values = tracing.layer_values(tracer, 1)
    finally:
        tracer.uninstall()
    assert certificates.check_certificate is original
    assert values["certificates.check.calls"] == 1
    assert values["cli.main.s"] > 0 and values["certificates.steps.ISO"] == 1


def test_benchmark_json_names_match_the_runner():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == [n for n, _ in tracing.LAYER_METRICS]
    assert [m["unit"] for m in doc["per_layer"]] == [u for _, u in tracing.LAYER_METRICS]
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(corpus.BUILDERS)
    e2e = run.end_to_end([None, None], [[0.5, 0.1], [0.7, 0.2]], [1.0], 30.0)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == {
        name: unit for name, (_, unit) in e2e.items()}
