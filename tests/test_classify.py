"""Fragment classifiers: named examples plus inter-fragment implications."""

import hashlib
import json
from importlib import resources
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from shychase.canonical import rewrite_theory
from shychase.classify import (
    FRAGMENTS,
    _head_variables,
    classify,
    classify_local,
    dependency_graph,
    invasion_table,
    is_shy,
    sticky_marking,
    weakly_acyclic,
)
from shychase.core import Position, Variable
from shychase.generate import GeneratorConfig, default_config, random_program
from shychase.harness import load_paper_program
from shychase.parse import parse_program


def test_shy_base_ontology_is_shy():
    # [PAPER]
    onto = load_paper_program("shy_appendix.dlp").ontology
    ok, witness = is_shy(onto)
    assert ok and witness is None


def test_shy_extension_breaks_protection():
    """[PAPER] A cycle through the join variable lets one existential
    variable invade both of its body positions."""
    onto = load_paper_program("shy_appendix_i.dlp").ontology
    ok, witness = is_shy(onto)
    assert not ok
    assert witness.rule_id == "r2"
    assert "condition (i)" in witness.condition
    assert witness.attacker.split("#")[0] == "Y3"


def test_shy_extension_breaks_shared_attacker():
    # [PAPER]
    onto = load_paper_program("shy_appendix_ii.dlp").ontology
    ok, witness = is_shy(onto)
    assert not ok
    assert witness.rule_id == "r2"
    assert "condition (ii)" in witness.condition
    assert witness.attacker.split("#")[0] == "Y3"


def test_linear_but_not_sticky():
    """[PAPER] Single-atom bodies are linear; the marked variable repeated
    inside the first body breaks stickiness."""
    onto = load_paper_program("linear_not_sticky.dlp").ontology
    local = classify_local(onto)
    assert local["linear"][0]
    table, ok, witness = sticky_marking(onto)
    assert not ok
    assert witness.rule_id == "r1"
    assert [v.split("#")[0] for v in witness.variables] == ["X"]


def test_classify_reports_every_fragment():
    verdicts = classify(load_paper_program("father.dlp").ontology)
    assert set(verdicts) == set(FRAGMENTS)
    assert verdicts["linear"][0]
    assert verdicts["guarded"][0]
    assert verdicts["shy"][0]
    assert not verdicts["datalog"][0]
    assert not verdicts["weakly-acyclic"][0]
    assert verdicts["datalog"][1] is not None


def test_witness_describe_mentions_rule():
    _, witness = classify(load_paper_program("father.dlp").ontology)["datalog"]
    assert "rule r1" in witness.describe()


def test_witnesses_name_variables_as_written():
    """Every witness on the packaged theories names its variables as the
    file writes them, while its fields keep the parser's `#i` names."""
    suites = resources.files("shychase").joinpath("suites")
    suffixed = 0
    for suite in ("curated", "paper"):
        for path in suites.joinpath(suite).iterdir():
            for _, witness in classify(parse_program(path.read_text()).ontology).values():
                if witness is None:
                    continue
                names = [*witness.variables, *filter(None, [witness.attacker])]
                suffixed += any("#" in name for name in names)
                text = witness.describe()
                assert "#" not in text, text
                assert all(name.split("#")[0] in text for name in names)
    assert suffixed > 0


def test_weak_acyclicity_cycle_detection():
    cyclic = parse_program(
        "p(c). p(X) -> exists Y. q(X,Y). q(X,Y) -> p(Y)."
    ).ontology
    ok, graph, cycle = weakly_acyclic(cyclic)
    assert not ok
    assert any(lbl == "special" for _, _, lbl in cycle)
    acyclic = parse_program("p(c). p(X) -> exists Y. q(X,Y). q(X,Y) -> r(Y).").ontology
    ok, graph, cycle = weakly_acyclic(acyclic)
    assert ok and cycle is None


def test_dependency_graph_edges():
    onto = parse_program("p(X) -> exists Y. q(X,Y).").ontology
    labels = {(str(p), str(q), lbl) for p, q, lbl in dependency_graph(onto)}
    assert ("p[1]", "q[1]", "plain") in labels
    assert ("p[1]", "q[2]", "special") in labels


def test_invasion_table_propagates_through_universals():
    text = """
    p(c).
    p(X) -> exists Y. q(Y).
    q(X) -> r(X).
    """
    table = invasion_table(parse_program(text).ontology)
    invaded = {str(pos) for pos, evs in table.items() if evs}
    assert invaded == {"q[1]", "r[1]"}


def test_sticky_marking_fixpoint_propagates():
    """A variable is marked when its head position feeds a marked body
    position elsewhere, not only when it is dropped from the head."""
    text = """
    a(c,c).
    a(X,Y) -> b(X,Y).
    b(X,Y), c(Y) -> d(X).
    """
    onto = parse_program(text).ontology
    marked, ok, witness = sticky_marking(onto)
    # Y is dropped by r2, so r1's Y inherits the mark through b[2]
    assert ("r2", "Y#2") in marked
    assert ("r1", "Y#1") in marked
    # the marked Y joins b and c in r2, so the ontology is not sticky
    assert not ok and witness.rule_id == "r2"


random_configs = st.integers(min_value=0, max_value=400)


@settings(max_examples=40, deadline=None)
@given(random_configs)
def test_fragment_implications_on_random_theories(seed):
    """[DERIVED] Known inclusions between fragments must hold pointwise:
    inclusion dependencies are linear and sticky, linear theories are
    guarded and shy, datalog theories are weakly acyclic."""
    cfg = GeneratorConfig(rules=4, max_attempts=1)
    holds = {name: ok for name, (ok, _) in classify(random_program(seed, cfg).ontology).items()}
    if holds["inclusion-dependencies"]:
        assert holds["linear"]
        assert holds["sticky"]
    if holds["linear"]:
        assert holds["guarded"]
        assert holds["shy"]
    if holds["datalog"]:
        assert holds["weakly-acyclic"]


CLASSIFY_DIGEST = Path(__file__).parent / "data" / "classify_digest.txt"
DIGEST_CONFIGS = (
    GeneratorConfig(max_attempts=1),
    GeneratorConfig(rules=8, max_body_atoms=3, max_attempts=1),
)


def _digest_theories():
    """The 29 packaged theories, then random_program seeds 0-999 under each
    of DIGEST_CONFIGS."""
    suites = resources.files("shychase").joinpath("suites")
    for suite in ("curated", "paper"):
        for path in sorted(suites.joinpath(suite).iterdir(), key=lambda p: p.name):
            yield parse_program(path.read_text()).ontology
    for cfg in DIGEST_CONFIGS:
        for seed in range(1000):
            yield random_program(seed, cfg).ontology


def _classify_record(onto) -> list:
    """Every classifier output on onto, as JSON-ready lists in a fixed order."""
    verdicts = [[name, holds, witness and witness.describe()]
                for name, (holds, witness) in classify(onto).items()]
    invaded = sorted([str(pos), sorted(map(list, evs))]
                     for pos, evs in invasion_table(onto).items())
    marking, _, _ = sticky_marking(onto)
    edges = sorted([str(p), str(q), lbl] for p, q, lbl in dependency_graph(onto))
    _, _, cycle = weakly_acyclic(onto)
    cycle = cycle and [[str(p), str(q), lbl] for p, q, lbl in cycle]
    return [verdicts, invaded, sorted(map(list, marking)), edges, cycle]


def classify_digest() -> str:
    records = [_classify_record(onto) for onto in _digest_theories()]
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def test_classifier_outputs_match_the_recorded_digest():
    """[DERIVED] Verdicts, witnesses, invasion tables, sticky markings,
    dependency-graph edges and weak-acyclicity cycles on 2029 theories hash
    to the recorded digest.  It was recorded before the classifiers moved
    to plain values, and again when witnesses began to name variables as
    written, which changed each witness text only by dropping `#i`."""
    assert classify_digest() == CLASSIFY_DIGEST.read_text().strip()


def _positions(atoms, var) -> list:
    """The former scan of the classifiers: positions where var occurs in
    atoms, in atom and argument order."""
    return [Position(atom.predicate_name, i)
            for atom in atoms for i, t in enumerate(atom.args, 1) if t == var]


def test_position_table_matches_the_scan():
    """[DERIVED] `Rule.positions`, which every classifier reads, gives each
    variable's body, per-atom and head positions as the scan does, on the
    packaged theories, random seeds 0-199 and their rewritings."""
    suites = resources.files("shychase").joinpath("suites")
    programs = [parse_program(path.read_text()) for suite in ("curated", "paper")
                for path in suites.joinpath(suite).iterdir()]
    programs += [random_program(seed, default_config()) for seed in range(200)]
    rules = [rule for p in programs
             for rule in (*p.ontology, *rewrite_theory(p.database, p.ontology)[1])]
    assert any(a.shape is not None for rule in rules for a in rule.body)
    for rule in rules:
        table = rule.positions
        variables = {v for a in rule.atoms() for v in a.variables()}
        assert set(table) == variables
        for v in variables:
            body, atoms, head = table[v]
            assert list(body) == _positions(rule.body, v)
            assert list(head) == _positions((rule.head,), v)
            holding = [a for a in rule.body if v in set(a.variables())]
            assert [a for a, _ in atoms] == holding
            assert all(a is b for (a, _), b in zip(atoms, holding))
            assert [list(p) for a, p in atoms] == [_positions((a,), v) for a in holding]
        assert _head_variables(rule) == [
            (Position(rule.head.predicate_name, j), t)
            for j, t in enumerate(rule.head.args, 1) if isinstance(t, Variable)]
