"""Value-type invariants for terms, atoms, rules and containers."""

import copy
import pickle

import pytest

from shychase.core import (
    Atom,
    Constant,
    Database,
    Instance,
    Null,
    NullFactory,
    Ontology,
    Query,
    Rule,
    Variable,
    _atom,
    constants_of,
    is_simple,
)


def test_terms_are_hashable_and_ordered():
    # [TRIVIAL]
    assert Constant("a") == Constant("a")
    assert Null(1) != Null(2)
    assert len({Constant("a"), Constant("a"), Variable("X")}) == 2
    assert Constant("b") < Constant("c")


def test_terms_order_across_kinds():
    """[TRIVIAL] Constants sort before nulls, nulls before variables."""
    terms = [Variable("X"), Null(3), Constant("z")]
    assert sorted(terms) == [Constant("z"), Null(3), Variable("X")]


def test_atom_shape_argument_count_is_validated():
    # shape [1,c,1] has one distinct class, so one argument
    Atom("p", (Variable("X"),), (1, "c", 1))
    with pytest.raises(ValueError):
        Atom("p", (Variable("X"), Variable("Y")), (1, "c", 1))


def test_only_the_private_constructor_skips_the_shape_check():
    """`_atom` builds the atom `Atom` builds, and the public constructor
    still rejects a shape whose argument count disagrees, with the same
    message."""
    x, y = Variable("X"), Variable("Y")
    assert _atom("p", (x,), (1, "c", 1)) == Atom("p", (x,), (1, "c", 1))
    assert type(_atom("p", (x,), None)) is Atom
    with pytest.raises(ValueError, match=r"^shape \(1, 'c', 1\) expects 1 argument\(s\), got 2$"):
        Atom("p", (x, y), (1, "c", 1))


def test_atom_predicate_name_renders_shape():
    # [TRIVIAL]
    assert Atom("p", (Variable("X"),), (1, "c2", 1)).predicate_name == "p_[1,c2,1]"
    assert Atom("p", (Variable("X"),)).predicate_name == "p"


def test_atoms_with_different_shapes_are_different_predicates():
    a = Atom("p", (Constant("c"),), (1,))
    b = Atom("p", (Constant("c"),), (1, 1))
    assert a.pred_key != b.pred_key


def test_rule_rejects_empty_body_and_nulls():
    head = Atom("q", (Variable("X"),))
    with pytest.raises(ValueError):
        Rule("r1", (), head)
    with pytest.raises(ValueError):
        Rule("r1", (Atom("p", (Null(1),)),), head)


def test_rule_variable_partition():
    """[TRIVIAL] Head-only variables are existential, body variables universal."""
    rule = Rule(
        "r1",
        (Atom("p", (Variable("X"), Variable("Z"))),),
        Atom("q", (Variable("X"), Variable("Y"))),
    )
    assert rule.uv == {Variable("X"), Variable("Z")}
    assert rule.ev == {Variable("Y")}


def test_cached_variable_partition_matches_a_recomputation():
    """`uv` and `ev` are computed once per rule: on every rule of the
    curated theories and of their canonical rewritings they equal a fresh
    recomputation, before and after a pickle round trip, `copy.copy` and
    `copy.deepcopy`, and the cache changes no rule's eq, hash or repr.
    The map key getter, read before the copies, copies with the rule and
    reads the same key there."""
    from shychase.canonical import rewrite_theory
    from shychase.harness import curated_programs

    rules = []
    for _, p in curated_programs():
        rules += [*p.ontology, *rewrite_theory(p.database, p.ontology)[1]]
    assert len(rules) > 50
    for rule in rules:
        uv = frozenset(v for a in rule.body for v in a.variables())
        ev = frozenset(rule.head.variables()) - uv
        assert (rule.uv, rule.ev) == (uv, ev) and rule.uv is rule.uv
        fresh = Rule(rule.id, rule.body, rule.head)
        assert (fresh == rule, hash(fresh), repr(fresh)) == (True, hash(rule), repr(rule))
        h = {v: Constant(v.name) for v in uv}
        images = tuple(h[v] for v in rule.uv_by_name)
        key = rule.map_key(h)
        assert key == (images[0] if len(images) == 1 else images)
        for other in (pickle.loads(pickle.dumps(rule)), copy.copy(rule), copy.deepcopy(rule)):
            assert other == rule and (other.uv, other.ev) == (uv, ev)
            assert other.map_key(h) == key


def test_database_requires_constants():
    Database(frozenset({Atom("p", (Constant("c"),))}))
    with pytest.raises(ValueError):
        Database(frozenset({Atom("p", (Null(1),))}))
    with pytest.raises(ValueError):
        Database(frozenset({Atom("p", (Variable("X"),))}))


def test_instance_allows_nulls_but_not_variables():
    inst = Instance(frozenset({Atom("p", (Null(1), Constant("c")))}))
    assert Atom("p", (Null(1), Constant("c"))) in inst
    with pytest.raises(ValueError):
        Instance(frozenset({Atom("p", (Variable("X"),))}))


def test_instance_sorted_atoms_is_deterministic():
    atoms = frozenset({Atom("p", (Null(2),)), Atom("p", (Null(1),)), Atom("a", ())})
    inst = Instance(atoms)
    assert inst.sorted_atoms() == inst.sorted_atoms()
    assert inst.sorted_atoms()[0].pred == "a"


def test_query_validation():
    with pytest.raises(ValueError):
        Query(())
    with pytest.raises(ValueError):
        Query(((),))
    with pytest.raises(ValueError):
        Query(((Atom("p", (Null(1),)),),))


def test_constants_of_collects_shape_labels():
    """Constants frozen into shapes count as constants of the theory."""
    db = Database(frozenset({Atom("p", (), ("c9",))}))
    rule = Rule("r1", (Atom("q", (Constant("a"),)),), Atom("q", (Constant("b"),)))
    consts = constants_of(db, Ontology((rule,)))
    assert consts == {Constant("c9"), Constant("a"), Constant("b")}


def test_is_simple():
    # [TRIVIAL]
    assert is_simple(Atom("p", (Variable("X"), Variable("Y"))))
    assert is_simple(Atom("p", ()))
    assert not is_simple(Atom("p", (Variable("X"), Variable("X"))))


def test_null_factory_is_monotone():
    nulls = NullFactory()
    assert nulls.fresh() == Null(1)
    assert nulls.fresh() == Null(2)
