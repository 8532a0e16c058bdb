"""Parser, printer and JSON emitter round trips and error reporting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shychase.core import Atom, Constant, Variable
from shychase.parse import (
    ParseError,
    parse_program,
    parse_query,
    print_program,
    print_rule,
    to_jsonable,
)

FATHER = """
# comment line
p(c1).
p(c2).
f(c1,c2).
p(X) -> exists Y. f(Y,X).
f(X,Y) -> p(X).
? p(X), f(X,c1).
"""


def test_parse_program_shapes_facts_rules_queries():
    program = parse_program(FATHER)
    assert len(program.database) == 3
    assert len(program.ontology) == 2
    assert len(program.queries) == 1
    assert Atom("f", (Constant("c1"), Constant("c2"))) in program.database


def test_rule_variables_are_freshened_per_rule():
    """Distinct rules never share a variable object after parsing."""
    program = parse_program("p(X) -> q(X). q(X) -> p(X).")
    r1, r2 = program.ontology
    assert not (r1.uv & r2.uv)


def test_existential_variables_come_from_exists():
    program = parse_program("p(X) -> exists Y,Z. q(X,Y,Z).")
    rule = program.ontology.rules[0]
    assert {v.name.split("#")[0] for v in rule.ev} == {"Y", "Z"}


def test_propositional_atoms_parse():
    program = parse_program("start. start -> exists Y. p(Y).")
    assert Atom("start", ()) in program.database


def test_canonical_predicates_round_trip():
    text = "p_[1,c2,1](X) -> q_[c1].\n"
    program = parse_program(text)
    rule = program.ontology.rules[0]
    assert rule.body[0].shape == (1, "c2", 1)
    assert rule.head.shape == ("c1",)
    assert print_rule(rule) == "p_[1,c2,1](X) -> q_[c1]."


def test_print_parse_round_trip_on_paper_program():
    """[DERIVED] print is a right inverse of parse up to renaming."""
    program = parse_program(FATHER)
    again = parse_program(print_program(program))
    assert again.database == program.database
    assert len(again.ontology) == len(program.ontology)
    assert [print_rule(r) for r in again.ontology] == [
        print_rule(r) for r in program.ontology
    ]
    assert again.queries == program.queries


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from("pqr"), st.lists(st.sampled_from("abc"), max_size=3)),
    min_size=1, max_size=6,
))
def test_fact_round_trip(rows):
    """[DERIVED] Any arity-consistent fact list survives print/parse."""
    arity = {}
    lines = []
    for pred, args in rows:
        if arity.setdefault(pred, len(args)) != len(args):
            continue
        lines.append(f"{pred}({','.join(args)})." if args else f"{pred}.")
    text = "\n".join(lines)
    program = parse_program(text)
    assert parse_program(print_program(program)).database == program.database


def test_parse_query_helper():
    q = parse_query("? p(X) | q(X), r(X).")
    assert len(q.disjuncts) == 2
    with pytest.raises(ParseError):
        parse_query("? p(X). q(c).")


@pytest.mark.parametrize("text, fragment", [
    ("p(X.", "expected"),
    ("p(c) -> q(Y).", "neither universal"),
    ("p(X) -> exists X. q(X).", "also occurs in the body"),
    ("p(c). p(c,c).", "arity"),
    ("p(1).", "reserved for shape labels"),
    ("p[1](X) -> q(X).", "base_[...]"),
    ("p(X).", "variable-free"),
    ("p(c), q(c).", "single atom"),
    ("p(c) q(c).", "expected"),
    ("$", "unexpected character"),
])
def test_parse_errors_carry_position_and_message(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert fragment in str(err.value)
    assert err.value.line >= 1 and err.value.col >= 1


def test_error_location_points_at_offending_line():
    with pytest.raises(ParseError) as err:
        parse_program("p(c).\nq(c).\nbroken(")
    assert err.value.line == 3


def test_to_jsonable_program_is_stable():
    program = parse_program(FATHER)
    payload = to_jsonable(program)
    assert payload == to_jsonable(program)
    assert payload["schema"] == "shychase/1"
    assert payload["kind"] == "program"
    assert len(payload["rules"]) == 2


def test_to_jsonable_rejects_unknown_values():
    with pytest.raises(TypeError):
        to_jsonable(object())
