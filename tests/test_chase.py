"""Chase engine: golden prefixes, datalog oracles, modes and bounds."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shychase import chase as chase_module
from shychase import hom
from shychase.chase import (
    OBLIVIOUS,
    RESTRICTED,
    ChaseConfig,
    ChaseResult,
    ChaseStep,
    Entailment,
    Verdict,
    applicable_steps,
    entailment_in,
    entailments_in,
    entails,
    run_chase,
)
from shychase.core import Atom, Constant, Instance, Null, NullFactory, Query
from shychase.generate import default_config, random_program
from shychase.harness import curated_programs, load_paper_program
from shychase.hom import _mapping_key, _search, _violations, apply_mapping, satisfies_query
from shychase.parse import parse_program, parse_query, print_atom

from search_oracle import index as oracle_index
from search_oracle import search as oracle_search

FATHER = """
p(c1). p(c2). f(c1,c2).
p(X) -> exists Y. f(Y,X).
f(X,Y) -> p(X).
"""


def test_chase_config_validation():
    with pytest.raises(ValueError):
        ChaseConfig("eager", 10, 10)
    with pytest.raises(ValueError):
        ChaseConfig(OBLIVIOUS, 0, 10)


def test_father_chase_prefix_golden():
    """First three rounds of the everyone-has-a-father chase.

    Round one derives fathers for both named people, round two makes the
    fathers people, round three gives the fathers fathers.
    """
    program = parse_program(FATHER)
    result = run_chase(program.database, program.ontology, ChaseConfig(OBLIVIOUS, 12, 3))
    produced = [(s.round, print_atom(s.produced)) for s in result.steps]
    assert produced == [
        (1, "f(_:n1,c1)"),
        (1, "f(_:n2,c2)"),
        (2, "p(_:n1)"),
        (2, "p(_:n2)"),
        (3, "f(_:n3,_:n1)"),
        (3, "f(_:n4,_:n2)"),
    ]
    assert not result.terminated


def test_prefix_at_round_reconstructs_rounds():
    program = parse_program(FATHER)
    result = run_chase(program.database, program.ontology, ChaseConfig(OBLIVIOUS, 12, 3))
    assert result.prefix_at_round(0).atoms == program.database.atoms
    assert len(result.prefix_at_round(1)) == 5
    assert result.prefix_at_round(3) == result.instance


def transitive_closure(edges):
    closure = set(edges)
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for c, d in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return closure


def test_datalog_chase_computes_transitive_closure():
    """[DERIVED] On a datalog reachability program the chase fixpoint must
    equal an independently computed transitive closure."""
    text = """
    e(a,b). e(b,c). e(c,d). e(b,a).
    e(X,Y) -> t(X,Y).
    e(X,Y), t(Y,Z) -> t(X,Z).
    """
    program = parse_program(text)
    result = run_chase(program.database, program.ontology, ChaseConfig(OBLIVIOUS, 500, 100))
    assert result.terminated
    got = {(a.args[0].name, a.args[1].name) for a in result.instance if a.pred == "t"}
    edges = {(a.args[0].name, a.args[1].name) for a in program.database}
    assert got == transitive_closure(edges)


def test_chase_is_reproducible():
    program = parse_program(FATHER)
    cfg = ChaseConfig(OBLIVIOUS, 40, 6)
    first = run_chase(program.database, program.ontology, cfg)
    second = run_chase(program.database, program.ontology, cfg)
    assert first.instance == second.instance
    assert first.steps == second.steps


def test_restricted_chase_reuses_witnesses():
    """The restricted chase sees f(c1,c2) as a father for c2 and stops the
    oblivious duplicate, so p(c2) never spawns a fresh parent."""
    program = parse_program(FATHER)
    oblivious = run_chase(program.database, program.ontology, ChaseConfig(OBLIVIOUS, 10, 1))
    restricted = run_chase(program.database, program.ontology, ChaseConfig(RESTRICTED, 10, 1))
    fresh = lambda res: {s.produced for s in res.steps if s.round == 1}
    assert len(fresh(oblivious)) == 2
    assert len(fresh(restricted)) == 1


def test_modes_agree_on_datalog():
    """[DERIVED] Without existentials both modes reach the same fixpoint."""
    text = "e(a,b). e(b,c). e(X,Y) -> t(X,Y). e(X,Y), t(Y,Z) -> t(X,Z)."
    program = parse_program(text)
    cfg = lambda mode: ChaseConfig(mode, 200, 50)
    assert (run_chase(program.database, program.ontology, cfg(OBLIVIOUS)).instance
            == run_chase(program.database, program.ontology, cfg(RESTRICTED)).instance)


def test_atom_bound_reports_unterminated_with_complete_rounds():
    program = parse_program(FATHER)
    result = run_chase(program.database, program.ontology, ChaseConfig(OBLIVIOUS, 6, 50))
    assert not result.terminated
    assert result.complete_rounds == result.rounds - 1
    assert len(result.instance) <= 7


def test_stop_reason_names_the_fixpoint_or_the_bound_that_tripped():
    """father.dlp never terminates, so an atom bound or a round bound ends
    it; the closure of a path reaches its fixpoint."""
    program = load_paper_program("father.dlp")
    for cfg, reason in ((ChaseConfig(OBLIVIOUS, 37, 50), "max_atoms"),
                        (ChaseConfig(RESTRICTED, 200, 3), "max_rounds")):
        result = run_chase(program.database, program.ontology, cfg)
        assert (result.terminated, result.stop_reason) == (False, reason)
    program = parse_program("e(a,b). e(b,c). e(X,Y) -> tc(X,Y). tc(X,Y), e(Y,Z) -> tc(X,Z).")
    result = run_chase(program.database, program.ontology, ChaseConfig(OBLIVIOUS, 200, 50))
    assert (result.terminated, result.stop_reason) == (True, "fixpoint")
    assert len(result.instance) == 5


def test_oblivious_fires_each_trigger_once():
    program = parse_program("p(c). p(X) -> q(X). q(X) -> q(X).")
    result = run_chase(program.database, program.ontology, ChaseConfig(OBLIVIOUS, 50, 50))
    assert result.terminated
    assert result.instance.atoms == {
        Atom("p", (Constant("c"),)), Atom("q", (Constant("c"),))
    }


def test_entails_three_valued():
    program = parse_program(FATHER)
    cfg = ChaseConfig(RESTRICTED, 50, 20)
    yes = entails(program.database, program.ontology, parse_query("? p(c1)."), cfg)
    assert yes.verdict is Verdict.TRUE and bool(yes)
    assert yes.witness is not None
    # only a finished chase can return a decisive False
    finite = parse_program("p(c). p(X) -> q(X).")
    no = entails(finite.database, finite.ontology, parse_query("? r(c)."), cfg)
    assert no.verdict is Verdict.FALSE
    tight = ChaseConfig(OBLIVIOUS, 8, 2)
    unknown = entails(program.database, program.ontology,
                      parse_query("? f(c2,c2)."), tight)
    assert unknown.verdict is Verdict.UNKNOWN and not unknown


# Oracle: the chase that takes a snapshot of the instance per round and
# per restricted trigger, and runs a fresh `search_oracle.search` over a
# predicate-only index of it per rule and per trigger, so it runs none of
# `hom`'s search code.


def _oracle_mapping_key(rule, h):
    return tuple(h[v][:2] for v in sorted(rule.uv))


def _oracle_head_satisfied(rule, h, inst):
    seed = {v: h[v] for v in rule.uv if v in h}
    return next(oracle_search([rule.head], seed, oracle_index(inst)), None) is not None


def _oracle_applicable_steps(onto, inst, fired, mode):
    out = []
    idx = oracle_index(inst)
    for rule in onto:
        matches = oracle_search(list(rule.body), {}, idx)
        for h in sorted(matches, key=lambda h: _oracle_mapping_key(rule, h)):
            key = (rule.id, tuple(apply_mapping(h, a) for a in rule.body))
            if key in fired:
                continue
            if mode == RESTRICTED and _oracle_head_satisfied(rule, h, inst):
                continue
            out.append((rule, h))
    return out


def _oracle_run_chase(db, onto, cfg):
    atoms = set(db.atoms)
    fired: set = set()
    steps: list = []
    nulls = NullFactory()
    rounds = 0
    terminated = False
    truncated = False
    while rounds < cfg.max_rounds:
        pending = _oracle_applicable_steps(onto, Instance(frozenset(atoms)), fired, cfg.mode)
        if not pending:
            terminated = True
            break
        rounds += 1
        for rule, h in pending:
            key = (rule.id, tuple(apply_mapping(h, a) for a in rule.body))
            if cfg.mode == RESTRICTED and _oracle_head_satisfied(rule, h, Instance(frozenset(atoms))):
                fired.add(key)
                continue
            full = dict(h)
            for v in sorted(rule.ev):
                full[v] = nulls.fresh()
            produced = apply_mapping(full, rule.head)
            fired.add(key)
            if produced in atoms:
                continue
            if len(atoms) >= cfg.max_atoms:
                truncated = True
                break
            atoms.add(produced)
            steps.append(ChaseStep(rule.id, full, produced, rounds))
        if truncated:
            break
    else:
        terminated = not _oracle_applicable_steps(onto, Instance(frozenset(atoms)), fired, cfg.mode)
    complete = rounds - 1 if truncated else rounds
    return ChaseResult(Instance(frozenset(atoms)), terminated, rounds, tuple(steps), complete)


_PAPER = ("active.dlp", "example_substitutions.dlp", "father.dlp", "linear_not_sticky.dlp",
          "propagation.dlp", "shy_appendix.dlp", "shy_appendix_i.dlp",
          "shy_appendix_ii.dlp", "theorem8.dlp")
# (max_atoms, max_rounds): room to reach a fixpoint, an atom bound that
# trips inside a round, and a round bound
_BOUNDS = ((200, 50), (37, 50), (200, 3))
# two triggers of one round whose heads share an extension: the restricted
# chase fires the first and blocks the second on the atom it produced
IN_ROUND = "p(a,b). p(a,c). p(X,Y) -> exists Z. q(X,Z)."


def _assert_same_chases(program) -> set:
    """Run both chases in both modes at each of _BOUNDS and require equal
    results; returns the bounds that stopped them."""
    stops = set()
    for mode in (OBLIVIOUS, RESTRICTED):
        for max_atoms, max_rounds in _BOUNDS:
            cfg = ChaseConfig(mode, max_atoms, max_rounds)
            got = run_chase(program.database, program.ontology, cfg)
            want = _oracle_run_chase(program.database, program.ontology, cfg)
            assert got.instance == want.instance
            assert got.steps == want.steps  # rule id, mapping, produced atom, round
            assert (got.terminated, got.rounds, got.complete_rounds) == (
                want.terminated, want.rounds, want.complete_rounds)
            stops.add(got.stop_reason)
    return stops


def test_indexed_chase_matches_the_snapshot_chase_on_the_suites():
    """[DERIVED] The chase over one growing index takes the same steps, in
    the same rounds, as the chase that re-indexes a snapshot per round and
    per trigger, on every curated and paper theory and on IN_ROUND, in both
    modes, whether it stops at a fixpoint, on max_atoms or on max_rounds."""
    programs = ([program for _, program in curated_programs()]
                + [load_paper_program(name) for name in _PAPER] + [parse_program(IN_ROUND)])
    stops = set().union(*map(_assert_same_chases, programs))
    assert stops == {"fixpoint", "max_atoms", "max_rounds"}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_indexed_chase_matches_the_snapshot_chase_on_random_programs(seed):
    _assert_same_chases(random_program(seed, default_config()))


def test_restricted_chase_indexes_once_and_never_calls_homomorphisms(monkeypatch):
    """A restricted chase of father.dlp to 201 atoms indexes the database
    once and grows that index, with no `homomorphisms` search per rule or
    per trigger.  Each function is counted at every name the chase or hom
    binds it to."""
    calls = {"_index": 0, "homomorphisms": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        wrapper = counted(name, getattr(hom, name))
        for module in (hom, chase_module):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    program = load_paper_program("father.dlp")
    result = run_chase(program.database, program.ontology, ChaseConfig(RESTRICTED, 201, 1000))
    assert len(result.instance) == 201
    assert calls["_index"] <= 1
    assert calls["homomorphisms"] == 0


def test_joins_and_head_checks_scan_only_the_filed_atoms(monkeypatch):
    """With a crowded predicate's atoms filed by (predicate, position,
    term), a join or a restricted head check with a bound position tries
    only the atoms that agree there.  Counted `_match` calls: the
    restricted father.dlp chase to 201 atoms makes 60,794 with a scan of
    the whole predicate list and the oblivious closure of a 16-edge path
    25,960; the bounds sit well below both."""
    calls = 0
    match = hom._match

    def counted(*args):
        nonlocal calls
        calls += 1
        return match(*args)

    monkeypatch.setattr(hom, "_match", counted)
    program = load_paper_program("father.dlp")
    result = run_chase(program.database, program.ontology, ChaseConfig(RESTRICTED, 201, 1000))
    assert len(result.instance) == 201
    assert calls <= 25_000
    calls = 0
    nodes = [f"v{i}" for i in range(17)]
    program = parse_program("\n".join(
        [f"e({a},{b})." for a, b in zip(nodes, nodes[1:])]
        + ["e(X,Y) -> tc(X,Y).", "tc(X,Y), e(Y,Z) -> tc(X,Z)."]))
    result = run_chase(program.database, program.ontology, ChaseConfig(OBLIVIOUS, 1000, 1000))
    assert result.terminated and len(result.instance) == 16 + 17 * 16 // 2
    assert calls <= 5_000


def _sort_then_filter(onto, idx, fired, mode):
    """The sort-then-filter form of `applicable_steps`: every body match
    keyed and sorted, then the fired ones dropped."""
    out = []
    for i, rule in enumerate(onto):
        for key, h in sorted((_mapping_key(rule, h), h) for h in _search(rule.body, {}, idx)):
            trigger = (i, key)
            if trigger in fired:
                continue
            if mode == RESTRICTED and next(_violations(rule, idx, (h,)), None) is None:
                continue
            out.append((trigger, rule, h))
    return out


def _stopped_mid_round(program, mode, monkeypatch):
    """The index and the fired set of a chase of program that the atom
    bound stopped inside a round, halfway through the steps of a chase to
    200 atoms or 50 rounds; None if that chase takes fewer than two steps."""
    db, onto = program.database, program.ontology
    steps = len(run_chase(db, onto, ChaseConfig(mode, 200, 50)).steps)
    if steps < 2:
        return None
    state = {}

    def applicable(onto, idx, fired, mode):
        state.update(idx=idx, fired=fired)
        return applicable_steps(onto, idx, fired, mode)

    with monkeypatch.context() as m:
        m.setattr(chase_module, "applicable_steps", applicable)
        result = run_chase(db, onto, ChaseConfig(mode, len(db.atoms) + steps // 2, 50))
    assert result.stop_reason == "max_atoms"
    return state["idx"], state["fired"]


def test_dropping_fired_triggers_before_the_sort_keeps_the_steps(monkeypatch):
    """`applicable_steps`, which drops fired triggers before it sorts, returns
    the same (trigger, rule, map) list as the sort-then-filter form, on the
    index and fired set of a chase stopped mid-round, for random programs
    0-49 in both modes."""
    checked = 0
    for seed in range(50):
        program = random_program(seed, default_config())
        for mode in (OBLIVIOUS, RESTRICTED):
            state = _stopped_mid_round(program, mode, monkeypatch)
            if state is None:
                continue
            idx, fired = state
            want = _sort_then_filter(program.ontology, idx, fired, mode)
            assert applicable_steps(program.ontology, idx, fired, mode) == want
            checked += bool(fired and want)
    assert checked >= 20


def _entailment_per_query(result, q) -> Entailment:
    """Oracle: the verdict read off a new index of the chase per query."""
    w = satisfies_query(result.instance, q)
    if w is not None:
        return Entailment(Verdict.TRUE, w, result)
    return Entailment(Verdict.FALSE if result.terminated else Verdict.UNKNOWN, None, result)


def test_queries_read_off_one_index_match_the_per_query_path(monkeypatch):
    """[DERIVED] `entailments_in` and `entailment_in` give the verdicts and
    witnesses of a new index per query, on the packaged theories and random
    seeds 0-49, with their queries and each rule body as a query, in both
    modes, at a fixpoint and at a bound; `entailments_in` indexes the chase
    once."""
    programs = ([program for _, program in curated_programs()]
                + [load_paper_program(name) for name in _PAPER]
                + [random_program(seed, default_config()) for seed in range(50)])
    index, indexed = chase_module._index, []

    def counting_index(atoms):
        indexed.append(atoms)
        return index(atoms)

    monkeypatch.setattr(chase_module, "_index", counting_index)
    verdicts = set()
    for program in programs:
        queries = [*program.queries, *(Query((rule.body,)) for rule in program.ontology)]
        for mode in (OBLIVIOUS, RESTRICTED):
            result = run_chase(program.database, program.ontology, ChaseConfig(mode, 200, 50))
            want = [_entailment_per_query(result, q) for q in queries]
            indexed.clear()
            assert entailments_in(result, queries) == want
            assert indexed == [result.instance]
            assert [entailment_in(result, q) for q in queries] == want
            verdicts.update(e.verdict for e in want)
    assert verdicts == set(Verdict)
