"""Harness plumbing: suites, result formatting, packaged inputs."""

import inspect

import pytest

from shychase.harness import (
    CHECKS,
    SUITES,
    CheckResult,
    curated_programs,
    load_paper_program,
    run_suite,
)


def test_suite_names_cover_all_checks():
    combined = SUITES["paper"] + SUITES["random"] + SUITES["curated"]
    assert SUITES["all"] == combined
    assert set(combined) == set(CHECKS)
    assert len(combined) == len(CHECKS) == 10


def test_check_result_line_format():
    ok = CheckResult("demo", True, "fine", 1.234)
    assert ok.line() == "[PASS] demo: fine (1.23s)"
    bad = CheckResult("demo", False, "broken", 0.0)
    assert bad.line().startswith("[FAIL] demo: broken")


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("bogus", seed=42)


def test_run_suite_passes_the_seed_to_the_random_checks_only(monkeypatch):
    import shychase.harness as harness

    calls = {}

    def recorder(name):
        def check(**kwargs):
            calls[name] = kwargs
            return CheckResult(name, True, "recorded", 0.0)
        return check

    monkeypatch.setattr(harness, "CHECKS", {name: recorder(name) for name in CHECKS})
    results = run_suite("all", seed=7)
    assert [r.name for r in results] == SUITES["all"]
    assert {name for name, kwargs in calls.items() if kwargs} == set(SUITES["random"])
    assert len(SUITES["random"]) == 4
    assert all(calls[name] == {"seed": 7} for name in SUITES["random"])


def test_random_checks_take_a_seed_and_no_other_option():
    """The seed comes from `run_suite` (the CLI's --seed); the checks set
    no default of their own and take no other parameter."""
    for name in SUITES["random"]:
        params = inspect.signature(CHECKS[name]).parameters
        assert list(params) == ["seed"]
        assert params["seed"].default is inspect.Parameter.empty


def test_run_suite_takes_the_seed_without_a_default():
    """The CLI's --seed default is the one default for the suite seed."""
    assert inspect.signature(run_suite).parameters["seed"].default is inspect.Parameter.empty


def test_curated_suite_is_large_enough():
    programs = curated_programs()
    assert len(programs) >= 20
    queries = sum(len(p.queries) for _, p in programs)
    assert queries >= 3 * len(programs)


def test_paper_programs_load():
    program = load_paper_program("father.dlp")
    assert len(program.ontology) == 2
    assert len(program.queries) == 1


def test_paper_suite_runs_green():
    results = run_suite("paper", seed=42)
    assert [r.name for r in results] == [
        "golden rewriting", "golden classification", "propagation ordering golden",
    ]
    assert all(r.passed for r in results)
    assert all(r.seconds < 5.0 for r in results)


def test_harness_detects_corrupted_rewriting(monkeypatch):
    """Mutation check: breaking one canonical rule must trip the golden
    rewriting comparison."""
    import shychase.harness as harness

    original = harness.rewrite_theory

    def corrupted(db, onto, queries=()):
        dbc, ontoc, qc = original(db, onto, queries)
        from shychase.core import Ontology
        return dbc, Ontology(ontoc.rules[:-1]), qc

    monkeypatch.setattr(harness, "rewrite_theory", corrupted)
    result = CHECKS["golden-rewriting"]()
    assert not result.passed


def test_finite_countermodel_check_enumerates_once_per_theory(monkeypatch):
    """Criterion 9 enumerates each curated theory's minimal models once and
    reads every query's countermodel off that one list."""
    import shychase.harness as harness

    calls = []
    original = harness.enumerate_finite_models

    def counted(db, onto, budget):
        calls.append(budget)
        return original(db, onto, budget)

    monkeypatch.setattr(harness, "enumerate_finite_models", counted)
    result = CHECKS["finite-countermodels"]()
    assert result.passed
    assert len(calls) == len(curated_programs())
