"""Harness plumbing: suites, result formatting, packaged inputs."""

import inspect
from itertools import chain

import pytest

from shychase.canonical import rewrite_theory
from shychase.chase import OBLIVIOUS, ChaseConfig, run_chase
from shychase.core import Atom, Constant, Instance, Null, Ontology
from shychase.harness import (
    CHECKS,
    SUITES,
    CheckResult,
    curated_programs,
    load_paper_program,
    run_suite,
)
from shychase.hom import homomorphisms
from shychase.parse import parse_program

from iso_oracle import isomorphic as oracle_isomorphic


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
        from shychase.core import Atom, Constant, Null, Ontology
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


def test_minimal_model_support_fails_when_the_core_drops_an_atom(monkeypatch):
    """Criterion 7 requires each minimal model to be its own well-supported
    core, not only to have one."""
    import shychase.harness as harness

    original = harness.well_supported_core

    def dropping(inst, db, onto):
        core = original(inst, db, onto)
        return Instance(frozenset(core.sorted_atoms()[:-1]))

    monkeypatch.setattr(harness, "well_supported_core", dropping)
    result = CHECKS["minimal-model-support"]()
    assert not result.passed
    assert "without well-supported core" in result.detail


def _rewriting_without_a_fired_rule(pick: int):
    """rewrite_theory without one canonical rule that fires: the pick-th
    (cyclically) of those whose body maps into a short canonical chase."""
    def mutated(db, onto, queries=()):
        dbc, ontoc, qc = rewrite_theory(db, onto, queries)
        chased = run_chase(dbc, ontoc, ChaseConfig(OBLIVIOUS, 100, 3)).instance
        fired = [r for r in ontoc if next(homomorphisms(r.body, chased), None) is not None]
        drop = fired[pick % len(fired)]
        return dbc, Ontology(tuple(r for r in ontoc if r is not drop)), qc
    return mutated


def test_round_check_pairs_fresh_nulls_round_by_round():
    """The round-by-round comparison renames nulls consistently across
    rounds, tells apart which older null a later atom holds, and rejects an
    atom produced one round late although the unions are isomorphic."""
    from shychase.harness import _first_unmatched_round

    c, n = Constant("c"), [Null(i) for i in range(8)]
    db = [Atom("p", (c,))]
    left = [db, [Atom("p", (n[1],)), Atom("r", (n[2], n[2]))], [Atom("q", (n[1], n[3]))]]
    renamed = [db, [Atom("r", (n[6], n[6])), Atom("p", (n[5],))], [Atom("q", (n[5], n[7]))]]
    other_null = [db, [Atom("p", (n[5],)), Atom("r", (n[6], n[6]))], [Atom("q", (n[6], n[7]))]]
    assert _first_unmatched_round(left, renamed) is None
    assert _first_unmatched_round(left, other_null) == 2
    late = [db, [Atom("p", (n[1],))], [Atom("q", (c, c))]]
    early = [db, [Atom("p", (n[5],)), Atom("q", (c, c))], []]
    assert _first_unmatched_round(late, early) == 1
    assert _first_unmatched_round([db], [db + [Atom("q", (c, c))]]) == 0


def test_chase_commutation_detects_a_dropped_canonical_rule(monkeypatch):
    """Mutation check: dropping one canonical rule that fires must trip the
    round-by-round chase comparison of criterion 3."""
    import shychase.harness as harness

    monkeypatch.setattr(harness, "rewrite_theory", _rewriting_without_a_fired_rule(0))
    result = CHECKS["chase-commutation"](seed=42)
    assert not result.passed
    assert "prefix mismatch" in result.detail


def test_chase_commutation_detects_rounds_only_the_canonical_chase_reaches(monkeypatch):
    """Mutation check: a canonical rule that fires only after the source
    chase has terminated must trip the comparison, although every round
    the source chase reaches agrees."""
    import shychase.harness as harness

    extra = parse_program("q_[c] -> r_[c].").ontology.rules

    def mutated(db, onto, queries=()):
        dbc, ontoc, qc = rewrite_theory(db, onto, queries)
        return dbc, Ontology(ontoc.rules + extra), qc

    program = parse_program("p(c). p(X) -> q(X).")
    assert harness._canonical_chase_matches(program) == (True, "2 atoms agree")
    monkeypatch.setattr(harness, "rewrite_theory", mutated)
    assert harness._canonical_chase_matches(program) == (
        False, "canonical chase runs past round 1")


def test_chase_comparison_of_a_theory_whose_rules_never_fire(monkeypatch):
    """A source chase that fires nothing ends after 0 rounds; the comparison
    gives a verdict instead of asking for a chase of 0 rounds: the
    canonical chase must fire nothing too."""
    import shychase.harness as harness

    program = parse_program("p(c). q(X) -> r(X). q(X), p(X) -> exists Y. q(Y).")
    assert harness._canonical_chase_matches(program) == (True, "1 atoms agree")
    dbc, ontoc, _ = rewrite_theory(program.database, program.ontology)
    assert harness._canonical_chase_matches(program, ontoc) == (True, "1 atoms agree")
    assert harness._canonical_chase_matches(program, Ontology()) == (True, "1 atoms agree")

    extra = parse_program("p_[c] -> r_[c].").ontology.rules

    def mutated(db, onto, queries=()):
        dbc, ontoc, qc = rewrite_theory(db, onto, queries)
        return dbc, Ontology(ontoc.rules + extra), qc

    monkeypatch.setattr(harness, "rewrite_theory", mutated)
    assert harness._canonical_chase_matches(program) == (
        False, "canonical chase runs past round 0")
    assert harness._canonical_chase_matches(program, Ontology()) == (
        False, "canonical chase runs past round 0")


def test_round_check_never_accepts_what_the_isomorphism_oracle_rejects(monkeypatch):
    """[DERIVED] On the two chases of every theory criteria 3 and 4 check
    at seed 42, the round-by-round comparison and the colour-refinement
    oracle both accept.  Over mutants that each drop one canonical rule
    that fires, the comparison accepts no pair the oracle rejects; it may
    reject more, since it also asks that each atom appear in the same
    round."""
    import shychase.harness as harness

    matches, first_unmatched = harness._canonical_chase_matches, harness._first_unmatched_round
    theories, verdicts = [], []

    def recording_matches(program, other_onto=None):
        theories.append((program, other_onto))
        return matches(program, other_onto)

    def recording_round(left, right):
        k = first_unmatched(left, right)
        verdicts.append((k is None, oracle_isomorphic(set(chain(*left)), set(chain(*right)))))
        return k

    monkeypatch.setattr(harness, "_canonical_chase_matches", recording_matches)
    monkeypatch.setattr(harness, "_first_unmatched_round", recording_round)
    assert CHECKS["chase-commutation"](seed=42).passed
    assert CHECKS["active-partition"](seed=42).passed
    assert verdicts == [(True, True)] * len(theories) and len(theories) == 82
    verdicts.clear()
    for i, (program, other_onto) in enumerate(theories):
        monkeypatch.setattr(harness, "rewrite_theory", _rewriting_without_a_fired_rule(i))
        matches(program, other_onto)
    assert all(oracle or not step for step, oracle in verdicts)
    # some mutants leave the chase unchanged up to renaming, most do not
    assert 0 < sum(step for step, _ in verdicts) < len(verdicts)
