"""Parser, printer and JSON emitter round trips and error reporting."""

import contextlib
import io
import json
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shychase import cli
from shychase.canonical import rewrite_theory
from shychase.core import Atom, Constant, Variable
from shychase.generate import default_config, random_program
from shychase.parse import (
    ParseError,
    Program,
    json_text,
    parse_program,
    parse_query,
    print_atom,
    print_program,
    print_query,
    print_rule,
    to_jsonable,
)

from test_cli_outputs import _commands

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


def test_rule_variables_are_named_by_rule_index_as_they_are_read():
    """The i-th rule's variables are X#i, counting rules only; a query's
    variables keep their bare names."""
    program = parse_program("p(a). p(X) -> q(X). ? q(X). q(X) -> exists Y. r(X,Y).")
    r1, r2 = program.ontology
    assert r1.body[0].args == (Variable("X#1"),) == r1.head.args
    assert r2.body[0].args == (Variable("X#2"),)
    assert r2.head.args == (Variable("X#2"), Variable("Y#2"))
    assert program.queries[0].disjuncts[0][0].args == (Variable("X"),)


@pytest.mark.parametrize("text, head", [
    ("p(a). p(X) -> exists(X).", Atom("exists", (Variable("X#1"),))),
    ("p -> exists.", Atom("exists", ())),
    ("p(X) -> exists Y. exists(Y).", Atom("exists", (Variable("Y#1"),))),
])
def test_exists_names_a_head_predicate_unless_a_variable_follows(text, head):
    assert parse_program(text).ontology.rules[-1].head == head


def test_exists_before_a_constant_is_a_head_predicate_then_a_missing_dot():
    with pytest.raises(ParseError, match="^1:16: expected '.', found 'c'$"):
        parse_program("p(c) -> exists c. q(c).")


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
    ("p_[0](a).", "shape label 0 is not in 1..1"),
    ("p_[2](a).", "shape label 2 is not in 1..1"),
    ("p_[1,3](a,b).", "shape label 3 is not in 1..2"),
    ("p_[](c).", "shape [] expects 0 argument(s)"),
])
def test_parse_errors_carry_position_and_message(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert fragment in str(err.value)
    assert err.value.line >= 1 and err.value.col >= 1


@pytest.mark.parametrize("text, line, col", [
    ("p(X.", 1, 4),
    ("p(c) -> q(Y).", 1, 9),
    ("p(X) -> exists X. q(X).", 1, 19),
    ("p(c). p(c,c).", 1, 7),
    ("p(1).", 1, 3),
    ("p[1](X) -> q(X).", 1, 1),
    ("p(X).", 1, 1),
    ("p(c), q(c).", 1, 1),
    ("p(c) q(c).", 1, 6),
    ("$", 1, 1),
    ("p(c).\nq(c).\nbroken(", 3, 8),
    ("# only a comment\n  p(c).\n\tq(c) r", 3, 7),
    ("p(c).\r\nq(X).", 2, 1),
    ("p(c)", 1, 5),
    ("p(", 1, 3),
    ("-> q(c).", 1, 1),
    ("p(c) -> exists c. q(c).", 1, 16),
    ("p(X) -> exists Y q(X,Y).", 1, 18),
    ("p_[1,c](X) -> q_[1,2](X).", 1, 15),
    ("p_[1,c,](X) -> q(X).", 1, 8),
    ("p(c).\n\n   p(c) -> ?", 3, 12),
    ("p(c). # trailing comment\n? p(X) p(X).", 2, 8),
    ("p(c).\n  q(c) -> exists Y. q(Y,Y).", 2, 21),
    ("p(c).\n@", 2, 1),
    ("p(c).\nq(X) -> r(X).\n  s(c) $", 3, 8),
    ("p_[0](a).", 1, 4),
    ("p(c).\n q_[c,2](a).", 2, 7),
    ("p(a,1).", 1, 5),
    ("p_[1,é](X).", 1, 6),
    ("p(a,_b).", 1, 5),
    ("p(a). p(a, b).", 1, 7),
    ("p_[1,2](X,Y,Z).", 1, 1),
    ("p(a,٣).", 1, 5),
])
def test_parse_error_positions_are_exact(text, line, col):
    """Line and column, counted from the token's offset when the error is
    raised, are those a tokenizer that tracked them per token reported; the
    out-of-range shape labels `0` and `2` point at the label, and the last
    six cases have their error inside an atom that is otherwise one token."""
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value).startswith(f"{line}:{col}: ")


@pytest.mark.parametrize("text, line, col", [
    ("? p(X). q(c).", 1, 9),
    ("p(X).", 1, 1),
    ("? p(X) |", 1, 9),
])
def test_parse_query_error_positions_are_exact(text, line, col):
    with pytest.raises(ParseError) as err:
        parse_query(text)
    assert (err.value.line, err.value.col) == (line, col)


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


# ---------------------------------------------------------------------------
# facts stored when a rule is built


def _packaged_texts() -> list:
    suites = resources.files("shychase").joinpath("suites")
    return [path.read_text() for suite in ("curated", "paper")
            for path in sorted(suites.joinpath(suite).iterdir(), key=lambda p: p.name)]


def _theory_texts() -> list:
    """The packaged theories, then random_program seeds 0-199 as printed."""
    return _packaged_texts() + [print_program(random_program(seed, default_config()))
                                for seed in range(200)]


def _ev_oracle(rule) -> frozenset:
    return frozenset(rule.head.variables()) - frozenset(v for a in rule.body for v in a.variables())


def _check_stored_ev(program):
    """Every rule of program and of its rewriting carries its existential
    variables from its builder, equal to the recomputation."""
    for rule in (*program.ontology, *rewrite_theory(program.database, program.ontology)[1]):
        assert "ev" in vars(rule), rule
        assert rule.ev == _ev_oracle(rule), rule


def test_stored_existential_variables_match_the_recomputation():
    """[DERIVED] The parser and the rewriter store `Rule.ev` as they build a
    rule; on the packaged theories, random seeds 0-199 and their rewritings
    it equals the head's variables minus the body's."""
    for text in _theory_texts():
        _check_stored_ev(parse_program(text))


@st.composite
def _rule_texts(draw):
    """Rules over body variables X, W and listed variables Y, Z, each
    predicate named by its arity; 'exists' may repeat a variable or list
    one the head lacks."""
    def atom(name, args):
        return f"{name}{len(args)}({','.join(args)})" if args else f"{name}0"

    body = draw(st.lists(st.lists(st.sampled_from(["X", "W", "a"]), max_size=3),
                         min_size=1, max_size=3))
    universal = sorted({t for args in body for t in args if t != "a"})
    listed = draw(st.lists(st.sampled_from(["Y", "Z"]), max_size=3))
    head = draw(st.lists(st.sampled_from(universal + listed + ["b"]), max_size=3))
    exists = f"exists {','.join(listed)}. " if listed else ""
    return f"{', '.join(atom('p', args) for args in body)} -> {exists}{atom('q', head)}."


@settings(max_examples=200, deadline=None)
@given(st.lists(_rule_texts(), min_size=1, max_size=3))
def test_stored_existential_variables_match_on_generated_rules(rules):
    """[DERIVED] As above on generated rule texts, including `exists Y` with
    no Y in the head and `exists Y,Y`."""
    program = parse_program("\n".join(rules))
    _check_stored_ev(program)
    for rule, text in zip(program.ontology, rules):
        listed = text.split("exists ")[1].split(".")[0].split(",") if "exists " in text else []
        assert {v.name.split("#")[0] for v in rule.ev} == set(listed) & {
            v.name.split("#")[0] for v in rule.head.variables()}


def _print_program_oracle(p) -> str:
    """The former `print_program`: every atom of every rule printed by its
    own `print_rule` call."""
    lines = [print_atom(a) + "." for a in sorted(p.database, key=Atom.sort_key)]
    lines += [print_rule(r) for r in p.ontology]
    lines += [print_query(q) for q in p.queries]
    return "\n".join(lines) + ("\n" if lines else "")


def test_print_program_renders_as_rule_by_rule_printing():
    """[DERIVED] `print_program`, which renders each distinct atom once,
    prints the packaged theories, random seeds 0-199 and their rewritings
    as printing each rule on its own does."""
    assert print_program(parse_program("")) == ""
    for text in _theory_texts():
        program = parse_program(text)
        for p in (program, Program(*rewrite_theory(*program))):
            assert print_program(p) == _print_program_oracle(p)


def _stdlib_json(v) -> str:
    return json.dumps(v, indent=2, sort_keys=True)


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**300, -10**300, 2**63, -2**63 - 1, -1, 0]),
    st.floats(),
    st.sampled_from([-0.0, 0.0, 1e300, -1e-300, 5e-324, float("nan"), float("inf"),
                     float("-inf")]),
    st.text(),
    st.text(st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "\u2028",
                             "\xe9", "\u4e2d", "\U0001f600", "\ud800", "a"])),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(_json_values)
@example([[[[{"a": [{}], "b": ()}]]], {"\U0001f600": {"": [[[None, True, False]]]}}])
@example({"z": {"y": {"x": {"w": {"v": [float("nan"), -0.0, float("-inf")]}}}}})
def test_json_text_matches_the_stdlib_indented_encoder(v):
    """[DERIVED] `json_text` writes what `json.dumps(v, indent=2,
    sort_keys=True)` writes, on None, bools, huge and negative ints,
    floats with -0.0 and the non-finite ones, strings with quotes,
    backslashes, control, non-ASCII and astral characters and lone
    surrogates, and lists, tuples, dicts and empty containers nested to
    any depth."""
    assert json_text(v) == _stdlib_json(v)


@pytest.mark.parametrize("v", [{1, 2}, b"bytes", 1j, object(), [None, {"a": frozenset()}],
                               {"a": [Ellipsis]}])
def test_json_text_rejects_other_types_as_the_stdlib_does(v):
    """A value of any other type raises TypeError, as in the stdlib."""
    with pytest.raises(TypeError):
        _stdlib_json(v)
    with pytest.raises(TypeError):
        json_text(v)


def test_json_text_matches_the_stdlib_on_every_cli_payload(monkeypatch):
    """[DERIVED] Every `--json` payload of the CLI digest sweep over the
    packaged theories, and of `rewrite --json` on each, is written as the
    stdlib writes it; the CLI prints each through `json_text`."""
    payloads = []

    def recorded(v):
        payloads.append(v)
        return json_text(v)

    monkeypatch.setattr(cli, "json_text", recorded)
    runs = [argv for _, argv in _commands() if "--json" in argv]
    runs += [["rewrite", argv[1], "--json"] for argv in runs if argv[0] == "classify"]
    succeeded = 0
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            succeeded += cli.main(argv) == 0
    assert len(payloads) == succeeded > 250
    for v in payloads:
        assert json_text(v) == _stdlib_json(v)
