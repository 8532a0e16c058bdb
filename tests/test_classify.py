"""Fragment classifiers: named examples plus inter-fragment implications."""

from hypothesis import given, settings
from hypothesis import strategies as st

from shychase.classify import (
    FRAGMENTS,
    classify,
    classify_local,
    dependency_graph,
    invasion_table,
    is_shy,
    sticky_marking,
    weakly_acyclic,
)
from shychase.generate import GeneratorConfig, random_program
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
    report = classify(load_paper_program("father.dlp").ontology)
    assert set(report.verdicts) == set(FRAGMENTS)
    assert report.holds("linear")
    assert report.holds("guarded")
    assert report.holds("shy")
    assert not report.holds("datalog")
    assert not report.holds("weakly-acyclic")
    assert report.witness("datalog") is not None


def test_witness_describe_mentions_rule():
    report = classify(load_paper_program("father.dlp").ontology)
    assert "rule r1" in report.witness("datalog").describe()


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
    graph = dependency_graph(onto)
    labels = {(str(p), str(q), lbl) for p, q, lbl in graph.edges}
    assert ("p[1]", "q[1]", "plain") in labels
    assert ("p[1]", "q[2]", "special") in labels


def test_invasion_table_propagates_through_universals():
    text = """
    p(c).
    p(X) -> exists Y. q(Y).
    q(X) -> r(X).
    """
    table = invasion_table(parse_program(text).ontology)
    invaded = {str(pos) for pos, evs in table.invaded.items() if evs}
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
    table, ok, witness = sticky_marking(onto)
    # Y is dropped by r2, so r1's Y inherits the mark through b[2]
    assert ("r2", "Y#2") in table.marked
    assert ("r1", "Y#1") in table.marked
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
    report = classify(random_program(seed, cfg).ontology)
    if report.holds("inclusion-dependencies"):
        assert report.holds("linear")
        assert report.holds("sticky")
    if report.holds("linear"):
        assert report.holds("guarded")
        assert report.holds("shy")
    if report.holds("datalog"):
        assert report.holds("weakly-acyclic")
