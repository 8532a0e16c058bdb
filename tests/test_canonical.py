"""Shape-indexed rewriting, its inverse, and the active/harmless split."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shychase import canonical, hom
from shychase.canonical import (
    UnpackError,
    _dedup,
    _first_occurrence_vars,
    _images,
    _rewritten_rules,
    _tagged_atoms,
    canonical_atom,
    partition_active_harmless,
    rewrite_ontology,
    rewrite_query,
    rewrite_theory,
    unpack,
    unpack_atom,
)
from shychase.core import (
    Atom,
    Constant,
    Database,
    Instance,
    Null,
    Ontology,
    Query,
    Rule,
    Variable,
    constants_of,
)
from shychase.generate import default_config, random_program
from shychase.harness import curated_programs, load_paper_program
from shychase.hom import _canonical_key, _split
from shychase.parse import Program, parse_program, parse_query, print_program

import rewrite_oracle
from iso_oracle import isomorphic
from pattern_oracle import substitutions as oracle_substitutions


def test_canonical_atom_examples():
    x, y = Variable("X"), Variable("Y")
    a = canonical_atom(Atom("p", (x, Constant("c1"), y, x, Constant("c2"), x, y)))
    assert a.shape == (1, "c1", 2, 1, "c2", 1, 2)
    assert a.args == (x, y)
    assert canonical_atom(Atom("p", (Constant("c"),))) == Atom("p", (), ("c",))
    assert canonical_atom(Atom("p", ())) == Atom("p", (), ())


_MIXED_TERMS = [Constant("a"), Constant("b"), Variable("X"), Variable("Y"), Null(1), Null(2)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from("pq"), st.lists(st.sampled_from(_MIXED_TERMS), max_size=6))
def test_canonical_forms_match_the_former_canonical_atom(pred, args):
    """[DERIVED] On atoms that mix constants, variables and nulls, the
    positional builder and `canonical_atom` give the former
    `canonical_atom`'s atom (`tests/rewrite_oracle.py`)."""
    atom = Atom(pred, tuple(args))
    want = rewrite_oracle.canonical_atom(atom)
    assert canonical._canonical_form(pred, args) == canonical_atom(atom) == want
    assert type(canonical_atom(atom)) is Atom


def test_canonical_atom_rejects_already_shaped():
    with pytest.raises(ValueError):
        canonical_atom(Atom("p", (Variable("X"),), (1,)))


def test_unpack_atom_inverts_the_encoding():
    # [PAPER] the running unpack example
    x, y = Null(1), Null(2)
    packed = Atom("p", (x, y), (1, "c1", 2, 1, "c2", 1, 2))
    assert unpack_atom(packed) == Atom(
        "p", (x, Constant("c1"), y, x, Constant("c2"), x, y)
    )


@settings(max_examples=50, deadline=None)
@given(st.lists(st.one_of(
    st.sampled_from([Constant("c1"), Constant("c2")]),
    st.sampled_from([Null(1), Null(2), Null(3)]),
), max_size=5))
def test_unpack_round_trips_canonical_atom(args):
    """[DERIVED] unpack is a left inverse of the canonical encoding."""
    atom = Atom("p", tuple(args))
    assert unpack_atom(canonical_atom(atom)) == atom


def test_unpack_errors():
    with pytest.raises(UnpackError):
        unpack_atom(Atom("p", (Null(1),)))
    with pytest.raises(UnpackError):
        unpack_atom(Atom("p", (Null(1),), (5,)))
    with pytest.raises(UnpackError):
        unpack(3.14)


def test_unpack_traverses_containers():
    inst = Instance(frozenset({Atom("p", (Null(1),), (1, "c"))}))
    assert unpack(inst) == Instance(frozenset({Atom("p", (Null(1), Constant("c")))}))
    assert unpack([inst]) == [unpack(inst)]


def _apply(subst, atom):
    """The substitution applied to one atom, term by term."""
    return Atom(atom.pred, tuple(subst.get(t, t) for t in atom.args))


def _substitutions(variables, constants) -> list:
    """The maps whose images `_images` enumerates, as dicts."""
    return [dict(zip(variables, images)) for images in _images(variables, constants)]


def test_substitution_pattern_uses_first_member_as_representative():
    x, y = Variable("X"), Variable("Y")
    assert list(_images([x, y], [])) == [(x, x), (x, y)]
    assert _substitutions([x, y], []) == [{x: x, y: x}, {x: x, y: y}]
    frozen = list(_substitutions([x], [Constant("c")]))[1]
    assert _apply(frozen, Atom("p", (x,))) == Atom("p", (Constant("c"),))


_SIX_VARIABLES = [Variable(v) for v in "UVWXYZ"]


@pytest.mark.parametrize("n_vars", range(6))
@pytest.mark.parametrize("n_consts", range(3))
def test_substitutions_match_the_pattern_oracle(n_vars, n_consts):
    """[DERIVED] `_images` yields the images of the maps of the former
    pattern enumerator, in its order, for 0-5 variables and 0-2 constants."""
    variables = _SIX_VARIABLES[:n_vars]
    constants = [Constant("a"), Constant("b")][:n_consts]
    assert _substitutions(variables, constants) == oracle_substitutions(variables, constants)


def test_substitutions_match_the_pattern_oracle_on_every_body_and_disjunct():
    """[DERIVED] The same agreement on every rule body and query disjunct of
    the packaged theories and of random seeds 0-99, with the theory's
    constants."""
    for name, program in _rewrite_once_theories():
        consts = sorted(constants_of(program.database, program.ontology))
        atom_lists = [rule.body for rule in program.ontology]
        atom_lists += [d for q in program.queries for d in q.disjuncts]
        for atoms in atom_lists:
            variables = _first_occurrence_vars(atoms)
            assert _substitutions(variables, consts) == \
                oracle_substitutions(variables, consts), name


def test_pattern_counts_for_father_rules():
    """One class or one of two constants for the single variable of the
    first rule; ten isomorphism classes for the two-variable second rule."""
    program = load_paper_program("father.dlp")
    consts = sorted(constants_of(program.database, program.ontology))
    counts = [len(list(_rewritten_rules(r, consts))) for r in program.ontology]
    assert counts == [3, 10]


def test_father_rewriting_counts():
    # [PAPER] thirteen rules, propositional database, three-way query
    program = load_paper_program("father.dlp")
    dbc, ontoc, queries = rewrite_theory(
        program.database, program.ontology, program.queries
    )
    assert set(dbc.atoms) == {
        Atom("p", (), ("c1",)),
        Atom("p", (), ("c2",)),
        Atom("f", (), ("c1", "c2")),
    }
    assert len(ontoc) == 13
    assert len(queries[0].disjuncts) == 3
    # canonical rules are simple and constant-free in their arguments
    for rule in ontoc:
        for atom in rule.atoms():
            assert len(set(atom.args)) == len(atom.args)
            assert not any(isinstance(t, Constant) for t in atom.args)


def test_wide_head_substitution_golden():
    """[PAPER] Freezing Z1 to c3 and merging X1 with Y1 rewrites the wide
    rule into its expected canonical instantiation."""
    program = load_paper_program("example_substitutions.dlp")
    consts = sorted(constants_of(program.database, program.ontology))
    rule = program.ontology.rules[0]
    want = parse_program(
        "r_[1,c3](X), p_[1,2,2,2](Y,X) -> exists T. g_[1,1,2,1,c3](X,T)."
    ).ontology.rules[0]
    want_sig = _tagged_atoms(want.body, want.head)
    assert any(isomorphic(_tagged_atoms(body, head), want_sig)
               for body, head in _rewritten_rules(rule, consts))


def _oracle_substitutions_of(rule, consts) -> list:
    return oracle_substitutions(_first_occurrence_vars(rule.body), sorted(set(consts)))


def _rewrite_per_atom(rule, subst) -> tuple:
    """Oracle: the rule's (body, head) under subst, applied atom by atom."""
    body = _dedup(canonical_atom(_apply(subst, a)) for a in rule.body)
    return body, canonical_atom(_apply(subst, rule.head))


def _rules_by_pairwise_dedupe(rule, consts) -> tuple:
    """Oracle: keep an instantiation unless it is isomorphic to any kept
    one, testing every earlier instantiation."""
    kept, signatures = [], []
    for subst in _oracle_substitutions_of(rule, consts):
        body, head = _rewrite_per_atom(rule, subst)
        sig = _tagged_atoms(body, head)
        if not any(isomorphic(sig, other) for other in signatures):
            signatures.append(sig)
            kept.append((body, head))
    return tuple(kept)


@pytest.mark.parametrize("seed", range(20))
def test_bucketed_pattern_dedupe_matches_pairwise(seed):
    """[DERIVED] Deduplicating by the canonical key, one bucket per key,
    keeps exactly the instantiations, in the same order, that the all-pairs
    scan keeps."""
    program = random_program(seed, default_config())
    consts = sorted(constants_of(program.database, program.ontology))
    for rule in program.ontology:
        assert tuple(_rewritten_rules(rule, consts)) == _rules_by_pairwise_dedupe(rule, consts)


def test_pattern_dedupe_matches_pairwise_on_the_packaged_theories():
    """[DERIVED] The same agreement on every curated and paper theory, for
    the rules that repeat a body predicate and are keyed and for those that
    are not."""
    theories = [*curated_programs(), *((name, load_paper_program(name))
                                       for name in _PAPER_THEORIES)]
    for name, program in theories:
        consts = sorted(constants_of(program.database, program.ontology))
        for rule in program.ontology:
            assert tuple(_rewritten_rules(rule, consts)) == \
                _rules_by_pairwise_dedupe(rule, consts), (name, rule.id)


_BODY_TERMS = [Variable("X"), Variable("Y"), Variable("Z"), Variable("W"), Constant("a")]


@st.composite
def _distinct_predicate_rules(draw):
    """A rule whose body atoms have pairwise distinct predicates, its head
    over body terms, a constant and an existential variable E."""
    preds = draw(st.lists(st.sampled_from("pqrs"), min_size=1, max_size=3, unique=True))
    body = tuple(Atom(p, tuple(draw(st.lists(st.sampled_from(_BODY_TERMS), max_size=3))))
                 for p in preds)
    head_terms = [t for a in body for t in a.args] + [Constant("b"), Variable("E")]
    head = Atom("h", tuple(draw(st.lists(st.sampled_from(head_terms), max_size=3))))
    return Rule("r", body, head)


@settings(max_examples=150, deadline=None)
@given(_distinct_predicate_rules(),
       st.lists(st.sampled_from([Constant("a"), Constant("b"), Constant("c")]),
                max_size=2, unique=True))
def test_distinct_body_predicates_give_patterns_distinct_up_to_renaming(rule, consts):
    """[DERIVED] The argument behind keying only rules that repeat a body
    predicate: every substitution of such a rule keeps a tagged
    `_canonical_key` of its own."""
    codes: dict = {}
    keys = []
    for subst in oracle_substitutions(_first_occurrence_vars(rule.body), sorted(consts)):
        plain, coded = _split(_tagged_atoms(*_rewrite_per_atom(rule, subst)), codes)
        keys.append(_canonical_key(frozenset(plain), tuple(coded)))
    assert len(set(keys)) == len(keys)


def test_rewriting_keys_only_rules_that_repeat_a_body_predicate(monkeypatch):
    """Counted `_canonical_key` calls of `rewrite_theory` over the curated
    suite: 1,248 when every pattern is keyed, 322 when only the rules that
    repeat a body predicate are, and 4 when such a rule's variant is keyed
    only once its (predicate, shape) multiset meets a kept variant's: two
    variants meet one each.  With the queries, 575 when every disjunct
    pattern is keyed, 332 when only a disjunct of a query with several, or
    one that repeats a predicate, is, and still 4 when keyed on meeting."""
    calls = 0
    key = hom._canonical_key

    def counted(*args):
        nonlocal calls
        calls += 1
        return key(*args)

    for module in (hom, canonical):  # every name the rewriting or hom binds it to
        if hasattr(module, "_canonical_key"):
            monkeypatch.setattr(module, "_canonical_key", counted)
    for _, program in curated_programs():
        rewrite_theory(program.database, program.ontology)
    assert calls == 4
    calls = 0
    for _, program in curated_programs():
        rewrite_theory(program.database, program.ontology, program.queries)
    assert calls == 4


def _query_by_pairwise_dedupe(q, consts) -> Query:
    """Oracle: keep a rewritten disjunct unless it is isomorphic to any kept
    one, testing every earlier disjunct."""
    kept = []
    for disjunct in q.disjuncts:
        for subst in oracle_substitutions(_first_occurrence_vars(disjunct), sorted(set(consts))):
            atoms = _dedup(canonical_atom(_apply(subst, a)) for a in disjunct)
            if not any(isomorphic(frozenset(atoms), frozenset(other)) for other in kept):
                kept.append(atoms)
    return Query(tuple(kept))


@pytest.mark.parametrize("seed", range(20))
def test_query_dedupe_matches_pairwise(seed):
    """[DERIVED] On a query with one disjunct per rule body of a random
    program, deduplicating by the canonical key keeps exactly the
    disjuncts, in the same order, that the all-pairs scan keeps.  So it
    does on each body as a query of its own, keyed only if it repeats a
    predicate, and on `p(X), p(Y), p(Z)`, whose five patterns without
    constants fall into three classes."""
    program = random_program(seed, default_config())
    consts = sorted(constants_of(program.database, program.ontology))
    q = Query(tuple(rule.body for rule in program.ontology))
    assert rewrite_query(q, consts) == _query_by_pairwise_dedupe(q, consts)
    triple = tuple(Atom("p", (Variable(v),)) for v in "XYZ")
    for body in [rule.body for rule in program.ontology] + [triple]:
        lone = Query((body,))
        assert rewrite_query(lone, consts) == _query_by_pairwise_dedupe(lone, consts)
    assert len(rewrite_query(Query((triple,)), ()).disjuncts) == 3


def _substitutions_rewriting_twice(rule, consts) -> tuple:
    """Oracle: the kept substitutions, each rule instantiation built only for
    its dedupe key."""
    codes, seen = {}, set()
    return tuple(
        subst for subst in _oracle_substitutions_of(rule, consts)
        if rewrite_oracle.is_new(_tagged_atoms(*_rewrite_per_atom(rule, subst)), codes, seen))


def _ontology_rewriting_twice(db, onto) -> Ontology:
    """Oracle: every kept substitution's rule rewritten again after the dedupe."""
    consts = sorted(constants_of(db, onto))
    out = []
    for rule in onto:
        for i, subst in enumerate(_substitutions_rewriting_twice(rule, consts), 1):
            body, head = _rewrite_per_atom(rule, subst)
            if head not in body:
                out.append(Rule(f"{rule.id}.{i}", body, head))
    return Ontology(tuple(out))


_PAPER_THEORIES = ("active.dlp", "example_substitutions.dlp", "father.dlp",
                   "linear_not_sticky.dlp", "propagation.dlp", "shy_appendix.dlp",
                   "shy_appendix_i.dlp", "shy_appendix_ii.dlp", "theorem8.dlp")


def _rewrite_once_theories():
    yield from curated_programs()
    for name in _PAPER_THEORIES:
        yield name, load_paper_program(name)
    for seed in range(100):
        yield f"random {seed}", random_program(seed, default_config())


def _rule_parts(onto) -> list:
    return [(rule.id, rule.body, rule.head) for rule in onto]


def _unfreshened(rule):
    """Body and head with each variable X#i renamed back to X."""
    def atom(a):
        return Atom(a.pred, tuple(Variable(t.name.split("#")[0]) if isinstance(t, Variable)
                                  else t for t in a.args), a.shape)
    return tuple(map(atom, rule.body)), atom(rule.head)


def test_printed_rewriting_parses_back():
    """[DERIVED] The printed rewriting of a theory, the input `rewrite`
    hands to `answer`, parses back to the same database, rules and queries;
    a propositional theory gives 0-ary canonical atoms such as `start_[]`."""
    propositional = parse_program("start. start -> exists Y. p(Y). ? p(X).")
    theories = [*_rewrite_once_theories(), ("propositional", propositional)]
    for name, program in theories:
        rewritten = Program(*rewrite_theory(program.database, program.ontology,
                                            program.queries))
        again = parse_program(print_program(rewritten))
        rules = list(map(_unfreshened, rewritten.ontology))
        assert again.database == rewritten.database, name
        assert list(map(_unfreshened, again.ontology)) == rules, name
        assert again.queries == rewritten.queries, name
    assert Atom("start", (), ()) in again.database


def _assert_rewrites_as_the_oracle(program, name):
    db, onto, queries = program.database, program.ontology, program.queries
    got = rewrite_theory(db, onto, queries)
    want = rewrite_oracle.rewrite_theory(db, onto, queries)
    assert got[0] == want[0], name
    assert _rule_parts(got[1]) == _rule_parts(want[1]), name
    assert [q.disjuncts for q in got[2]] == [q.disjuncts for q in want[2]], name


def test_rewrite_theory_matches_the_per_substitution_oracle():
    """[DERIVED] The template kernel and the dedupe keyed on meeting give
    the database, rule ids, order and atoms and the query disjuncts of the
    per-substitution rewriting with an eager key, on the packaged theories
    and random seeds 0-199."""
    theories = [*curated_programs(), *((name, load_paper_program(name))
                                       for name in _PAPER_THEORIES)]
    assert len(theories) == 29
    theories += [(f"random {seed}", random_program(seed, default_config()))
                 for seed in range(200)]
    for name, program in theories:
        _assert_rewrites_as_the_oracle(program, name)


_REPEAT_TERMS = [Variable("X"), Variable("Y"), Variable("Z"), Constant("a"), Constant("b")]


@st.composite
def _repeating_predicate_programs(draw):
    """A fact, and a rule whose body repeats a predicate among its 2-4
    atoms over variables and constants, with its head over body terms, a
    constant and an existential variable; its body is also the query."""
    preds = draw(st.lists(st.sampled_from("pq"), min_size=2, max_size=4))
    preds[1] = preds[0]
    body = tuple(Atom(p, tuple(draw(st.lists(st.sampled_from(_REPEAT_TERMS),
                                             min_size=1, max_size=3))))
                 for p in preds)
    head_terms = [t for a in body for t in a.args] + [Constant("c"), Variable("E")]
    head = Atom("h", tuple(draw(st.lists(st.sampled_from(head_terms), max_size=3))))
    fact = Atom("p", tuple(draw(st.lists(st.sampled_from([Constant("a"), Constant("d")]),
                                         min_size=1, max_size=2))))
    return Program(Database(frozenset({fact})), Ontology((Rule("r", body, head),)),
                   (Query((body,)), Query((body, body[:1]))))


@settings(max_examples=150, deadline=None)
@given(_repeating_predicate_programs())
def test_keyed_rewriting_matches_the_oracle_on_repeated_predicates(program):
    """[DERIVED] The same agreement on rules that repeat a predicate and
    carry constants, which take the keyed path, and on their bodies as a
    lone and as a two-disjunct query."""
    _assert_rewrites_as_the_oracle(program, "hypothesis")


def test_constants_of_matches_the_per_occurrence_scan():
    """[DERIVED] `constants_of` finds the constants the per-occurrence scan
    finds, on every source theory and canonical theory of the packaged
    theories and random seeds 0-99."""
    for name, program in _rewrite_once_theories():
        db, onto = program.database, program.ontology
        dbc, ontoc, _ = rewrite_theory(db, onto)
        for pair in ((db, onto), (dbc, ontoc), (Database(), ontoc)):
            assert constants_of(*pair) == rewrite_oracle.constants_of(*pair), name


def test_rewrite_once_matches_rewriting_twice():
    """[DERIVED] Rewriting each substitution once keeps the instantiations
    of the same substitutions and gives the same rule ids, order and atoms
    as rewriting each kept substitution again, on the curated and paper
    theories and random seeds 0-99."""
    theories = list(_rewrite_once_theories())
    assert len(theories) == 20 + 9 + 100
    for name, program in theories:
        db, onto = program.database, program.ontology
        consts = sorted(constants_of(db, onto))
        for rule in onto:
            kept = tuple(_rewrite_per_atom(rule, subst)
                         for subst in _substitutions_rewriting_twice(rule, consts))
            assert tuple(_rewritten_rules(rule, consts)) == kept, (name, rule.id)
        assert _rule_parts(rewrite_ontology(db, onto)) == \
            _rule_parts(_ontology_rewriting_twice(db, onto)), name


def test_rewrite_ontology_rewrites_each_enumerated_pattern_once(monkeypatch):
    """A rule is instantiated once per enumerated substitution, kept or not,
    into the canonical forms of its atoms under it, and each atom of the
    rule is canonicalised once per distinct image under those
    substitutions, through `_canonical_form`.  Each kept rule is
    constructed once, under its final id."""
    enumerated, instantiated, canonicalised, built = [], [], [], []
    images, instances = canonical._images, canonical._instances
    canonicalise, rule_type = rewrite_oracle.canonical_atom, canonical._rule
    form = canonical._canonical_form

    def recording_images(variables, constants):
        for image in images(variables, constants):
            enumerated.append(dict(zip(variables, image)))
            yield image

    def recording_instances(atoms, variables, constants):
        for out in instances(atoms, variables, constants):
            instantiated.append((atoms, list(out)))
            yield out

    def counting_canonical_form(pred, terms):
        canonicalised.append(Atom(pred, tuple(terms)))
        return form(pred, terms)

    def counting_rule(*args):
        built.append(args[0])
        return rule_type(*args)

    monkeypatch.setattr(canonical, "_images", recording_images)
    monkeypatch.setattr(canonical, "_instances", recording_instances)
    monkeypatch.setattr(canonical, "_canonical_form", counting_canonical_form)
    monkeypatch.setattr(canonical, "_rule", counting_rule)
    for name in _PAPER_THEORIES:
        program = load_paper_program(name)
        consts = sorted(constants_of(program.database, program.ontology))
        want = [((*rule.body, rule.head), subst) for rule in program.ontology
                for subst in _oracle_substitutions_of(rule, consts)]
        want_canonicalised = Counter()
        for rule in program.ontology:
            for atom in rule.atoms():
                want_canonicalised.update({_apply(subst, atom)
                                           for subst in _oracle_substitutions_of(rule, consts)})
        for log in (enumerated, instantiated, canonicalised, built):
            log.clear()
        ontoc = rewrite_ontology(program.database, program.ontology)
        assert [(atoms, subst) for (atoms, _), subst in zip(instantiated, enumerated)] == want, name
        assert len(enumerated) == len(want), name
        for (atoms, out), subst in zip(instantiated, enumerated):
            assert out == [canonicalise(_apply(subst, a)) for a in atoms], name
        assert Counter(canonicalised) == want_canonicalised, name
        assert built == [rule.id for rule in ontoc], name


def test_rewrite_drops_tautological_variants():
    """Variants whose head collapses onto a body atom never fire usefully
    and are removed; the joined example keeps five of its instantiations."""
    program = load_paper_program("active.dlp")
    ontoc = rewrite_ontology(program.database, program.ontology)
    assert len(ontoc) == 5
    for rule in ontoc:
        assert rule.head not in rule.body


def test_rewritten_rule_ids_carry_provenance():
    program = load_paper_program("father.dlp")
    ontoc = rewrite_ontology(program.database, program.ontology)
    assert all(rule.id.split(".")[0] in {"r1", "r2"} for rule in ontoc)
    assert len({rule.id for rule in ontoc}) == len(ontoc)


def test_rewrite_query_enumerates_equality_patterns():
    q = parse_query("? p(X), f(X,c1).")
    consts = [Constant("c1"), Constant("c2")]
    qc = rewrite_query(q, consts)
    assert len(qc.disjuncts) == 3
    for disjunct in qc.disjuncts:
        for atom in disjunct:
            assert atom.shape is not None


def test_partition_active_harmless():
    program = load_paper_program("active.dlp")
    ontoc = rewrite_ontology(program.database, program.ontology)
    active, harmless = partition_active_harmless(ontoc)
    assert len(active) == 3 and len(harmless) == 2
    for rule in harmless:
        body_vars = [v for a in rule.body for v in set(a.variables())]
        assert len(body_vars) > len(set(body_vars))
    for rule in active:
        body_vars = [v for a in rule.body for v in set(a.variables())]
        assert len(body_vars) == len(set(body_vars))


def _former_partition_joined(rule) -> bool:
    """`partition_active_harmless`'s former inline test of a body join."""
    if len(rule.body) == 1:
        return False
    occurrences = [v for atom in rule.body for v in set(atom.variables())]
    return len(set(occurrences)) < len(occurrences)


def _former_breaker_joins(rule) -> set:
    """`disjoin_repair`'s former joined variables of a harmless rule."""
    return {v for v in rule.uv if sum(v in b.args for b in rule.body) > 1}


def _former_shy_joins(rule) -> set:
    """`is_shy`'s former condition (i) variables: those in two body atoms."""
    occurs_in = {v: [a for a in rule.body if v in set(a.variables())] for v in rule.uv}
    return {v for v in rule.uv if len(occurs_in[v]) > 1}


def _joins_sample() -> list:
    """The rules of the packaged theories, of random seeds 0-199, and of
    the rewritings of all of them."""
    from importlib import resources

    paper = resources.files("shychase").joinpath("suites/paper")
    programs = [program for _, program in curated_programs()]
    programs += [load_paper_program(e.name) for e in sorted(paper.iterdir(), key=lambda e: e.name)
                 if e.name.endswith(".dlp")]
    programs += [random_program(seed, default_config()) for seed in range(200)]
    rules = []
    for program in programs:
        rules += program.ontology
        rules += rewrite_ontology(program.database, program.ontology)
    return rules


def test_rule_joins_equals_each_former_inline_definition():
    """[DERIVED] `Rule.joins` is the set each former inline definition
    named, and partitioning sends a rule to the harmless side exactly when
    the former test did."""
    rules = _joins_sample()
    harmless = set(partition_active_harmless(Ontology(tuple(rules)))[1])
    joined = 0
    for rule in rules:
        assert rule.joins == _former_breaker_joins(rule) == _former_shy_joins(rule), rule
        assert bool(rule.joins) == _former_partition_joined(rule) == (rule in harmless), rule
        joined += bool(rule.joins)
    assert 0 < joined < len(rules)
