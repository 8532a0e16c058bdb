"""Homomorphism search, and isomorphism and the canonical key modulo
renaming, against brute force and the colour-refinement oracle."""

import random
import sys
from importlib import resources
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shychase import hom
from shychase.canonical import rewrite_theory
from shychase.core import Atom, Constant, Instance, Null, Query, Rule, Variable
from shychase.finitemodels import StartingPoint
from shychase.harness import curated_programs, load_paper_program
from shychase.hom import (
    _add,
    _canonical_key,
    _drop,
    _index,
    _mapping_key,
    _search,
    _split,
    _using,
    _violations,
    apply_mapping,
    homomorphisms,
    isomorphic,
    satisfies_query,
)

from iso_oracle import isomorphic as oracle_isomorphic
from scan_oracle import added
from search_oracle import search as oracle_search
from search_oracle import search_shortest

constants = st.sampled_from([Constant("a"), Constant("b")])
nulls = st.sampled_from([Null(1), Null(2), Null(3)])
ground_terms = st.one_of(constants, nulls)
variables = st.sampled_from([Variable("X"), Variable("Y"), Variable("Z")])
src_terms = st.one_of(constants, variables)


def atoms(term_strategy, max_atoms=4):
    atom = st.tuples(st.sampled_from("pq"), st.tuples(term_strategy, term_strategy))
    return st.lists(atom, min_size=1, max_size=max_atoms).map(
        lambda rows: [Atom(p, args) for p, args in rows]
    )


def brute_homomorphisms(src, target):
    """All variable assignments whose atom images land in the target."""
    variables = sorted({v for a in src for v in a.variables()},
                       key=lambda v: v.name)
    terms = sorted({t for a in target for t in a.args}, key=repr)
    found = []
    for combo in product(terms, repeat=len(variables)):
        h = dict(zip(variables, combo))
        if all(apply_mapping(h, a) in set(target) for a in src):
            found.append(h)
    return found


@settings(max_examples=60, deadline=None)
@given(atoms(src_terms, 3), atoms(ground_terms, 4))
def test_homomorphisms_match_brute_force(src, target):
    """[DERIVED] Backtracking search finds exactly the brute-force maps."""
    got = {frozenset(h.items()) for h in homomorphisms(src, target)}
    want = {frozenset(h.items()) for h in brute_homomorphisms(src, target)}
    assert got == want


_index_atoms = st.lists(st.one_of(
    st.builds(lambda p, s, t: Atom(p, (s, t)), st.sampled_from("pq"), ground_terms, ground_terms),
    st.builds(lambda t: Atom("p", (t,)), ground_terms),
    st.builds(lambda t: Atom("q", (t,), (1,)), ground_terms)), unique=True, max_size=12)


def _binary(pred, terms):
    return st.builds(lambda s, t: Atom(pred, (s, t)), terms, terms)


# One key crowded from a small term pool, so that its position lists share
# atoms, beside a few atoms of another key.
_few_terms = st.sampled_from([Constant("a"), Null(1), Null(2), Null(3)])
_crowded_atoms = st.tuples(
    st.lists(_binary("p", _few_terms), unique=True, min_size=9, max_size=16),
    st.lists(st.builds(lambda t: Atom("p", (t,)), _few_terms), unique=True, max_size=3),
).map(lambda lists: lists[0] + lists[1])


@settings(max_examples=100, deadline=None)
@given(st.one_of(_index_atoms, _crowded_atoms), st.data())
def test_added_grows_the_index_that_index_builds(atoms_, data):
    """[DERIVED] Adding the atoms one by one with the copy oracle
    `scan_oracle.added`, in any order, gives `_index` of them, and each
    call leaves the index it was given as it was, so an index kept from
    before a call stays valid.  Every list either builds is in
    `Atom.sort_key` order."""
    order = data.draw(st.permutations(atoms_))
    idx: dict = {}
    kept = []
    for a in order:
        kept.append((idx, {k: list(v) for k, v in idx.items()}))
        idx = added(idx, a)
        assert all(lst == sorted(lst, key=Atom.sort_key) for lst in idx.values())
    assert idx == _index(atoms_)
    for i, (before, copy) in enumerate(kept):
        assert before == copy == _index(order[:i])


@settings(max_examples=100, deadline=None)
@given(st.one_of(_index_atoms, _crowded_atoms), st.data())
def test_add_and_drop_grow_and_shrink_the_index_in_place(atoms_, data):
    """[DERIVED] Adding the atoms one by one with `_add`, in any order,
    grows one index in place into `_index` of them, and after each add it
    equals the copy oracle's index of the same prefix.  Dropping them with
    `_drop` in another drawn order gives back, after each drop, `_index`
    of the atoms left exactly, with no empty list.  Every list stays in
    `Atom.sort_key` order throughout."""
    order = data.draw(st.permutations(atoms_))
    idx: dict = {}
    copied: dict = {}
    for a in order:
        _add(idx, a)
        copied = added(copied, a)
        assert idx == copied
        assert all(lst == sorted(lst, key=Atom.sort_key) for lst in idx.values())
    assert idx == _index(atoms_)
    drops = data.draw(st.permutations(atoms_))
    for i, a in enumerate(drops):
        _drop(idx, a)
        assert idx == _index(drops[i + 1:])
        assert all(lst and lst == sorted(lst, key=Atom.sort_key) for lst in idx.values())
    assert idx == {}


def _filed_by_scan(idx: dict) -> dict:
    """The predicate lists of idx, plus, for each, its atoms with term t at
    position i under (key, i, t)."""
    lists = {k: v for k, v in idx.items() if len(k) == 2}
    filed = {(k, i, t): [b for b in lst if b.args[i] == t]
             for k, lst in lists.items()
             for a in lst for i, t in enumerate(a.args)}
    return {**lists, **filed}


_search_ground = st.sampled_from([Constant("a"), Constant("b"), Constant("c"),
                                  Null(1), Null(2), Null(3)])
# Pattern terms: constants, variables, and nulls searched as `_embeds`
# searches them, as terms to map.
_pattern_terms = st.sampled_from([Constant("a"), Constant("b"), Null(1), Null(2),
                                  Variable("X"), Variable("Y"), Variable("Z")])

# p holds many atoms and q few.
_search_instances = st.tuples(
    st.lists(_binary("p", _search_ground), unique=True, min_size=9, max_size=30),
    st.lists(_binary("q", _search_ground), unique=True, max_size=8),
).map(lambda lists: lists[0] + lists[1])
_patterns = st.lists(st.one_of(_binary("p", _pattern_terms), _binary("q", _pattern_terms)),
                     min_size=1, max_size=3)
_seeds = st.dictionaries(st.sampled_from([Variable("X"), Variable("Y"), Null(1)]),
                         _search_ground, max_size=2)


@settings(max_examples=300, deadline=None)
@given(_search_instances, _patterns, _seeds)
def test_search_yields_the_oracle_maps_in_order(instance, pattern, seed):
    """[DERIVED] `_search`, which takes a bound position's filed list,
    yields the maps of the predicate-scan oracle, each once, for patterns
    with constants, repeated variables, nulls and seeded bindings, over a
    crowded key and a sparse one; it yields them in the order of the
    oracle that takes the first atom with the fewest candidates.  The
    filed lists are the predicate list's atoms that agree there, in
    `Atom.sort_key` order."""
    idx = _index(instance)
    assert idx == _filed_by_scan(idx)
    assert any(len(k) == 3 for k in idx)
    assert all(lst == sorted(lst, key=Atom.sort_key) for lst in idx.values())
    got = list(_search(pattern, dict(seed), idx))
    assert (sorted(sorted(h.items()) for h in got)
            == sorted(sorted(h.items()) for h in oracle_search(pattern, dict(seed), idx)))
    assert got == list(search_shortest(pattern, dict(seed), idx))


# Ground and pattern terms for the plan's differential test, with a
# `StartingPoint` on both sides, a null-like term as the repair's search
# meets it.
_PLAN_GROUND = [Constant("a"), Constant("b"), Null(1), Null(2), StartingPoint(Null(1), 1, 1)]
_plan_pattern_terms = st.sampled_from([Constant("a"), Null(1), StartingPoint(Null(1), 1, 1),
                                       Variable("X"), Variable("Y"), Variable("Z")])


def _prefix_of(atoms: list, min_size: int, max_size: int):
    """A drawn prefix, of drawn length, of a drawn order of atoms."""
    return st.tuples(st.permutations(atoms), st.integers(min_size, max_size)).map(
        lambda t: t[0][:t[1]])


# p/1, p/2 and p/3 atoms from a small term pool: the p/3 list holds 8 to 60
# atoms and the lists filed under one of its terms about a fifth of that,
# so that lists fall on both sides of `_PLAN_MIN`.
_plan_instances = st.tuples(
    *(_prefix_of([Atom("p", args) for args in product(_PLAN_GROUND, repeat=n)], *sizes)
      for n, sizes in ((1, (1, 5)), (2, (4, 25)), (3, (8, 60))))
).map(lambda lists: [a for lst in lists for a in lst])
_plan_patterns = st.lists(st.builds(lambda args: Atom("p", tuple(args)),
                                    st.lists(_plan_pattern_terms, min_size=1, max_size=3)),
                          min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(_plan_instances, _plan_patterns,
       st.dictionaries(st.sampled_from([Variable("X"), Variable("Y"), Null(1),
                                        StartingPoint(Null(1), 1, 1)]),
                       st.sampled_from(_PLAN_GROUND), max_size=2))
def test_planned_and_matched_lists_yield_the_oracle_maps_in_order(instance, pattern, seed):
    """[DERIVED] `_search` yields `search_oracle.search_shortest`'s maps in
    its order, each with its keys in the same order, whether it matches
    every candidate list by `_planned`, every one by `_match`, or each by
    its length against `_PLAN_MIN`, as it runs.  Patterns mix constants,
    null-like terms, repeated variables within and across atoms and seeds
    that bind some of them."""
    idx = _index(instance)
    want = [list(h.items()) for h in search_shortest(pattern, dict(seed), idx)]
    for plan_min in (0, hom._PLAN_MIN, len(instance) + 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hom, "_PLAN_MIN", plan_min)
            assert [list(h.items()) for h in _search(pattern, dict(seed), idx)] == want, plan_min


def _oracle_mapping_key(h: dict) -> tuple:
    """The former `_mapping_key`: the map's (variable name, (kind, repr) of
    the image) pairs, sorted per map."""
    return tuple(sorted((v.name, t[:2]) for v, t in h.items()))


# Names with and without the parser's `#i` suffix, sharing prefixes, so
# that name order and the variables' own (repr) order disagree.
_body_variables = st.lists(
    st.builds(lambda base, suffix: Variable(base + suffix),
              st.sampled_from(["X", "X1", "XY", "Y"]), st.sampled_from(["", "#1", "#2", "#10"])),
    unique=True, min_size=0, max_size=4)
_IMAGES = [Constant("a"), Constant("b"), Null(1), Null(2), Null(10),
           StartingPoint(Null(1), 2, 1), StartingPoint(Constant("a"), 1, 1)]
_images = st.sampled_from(_IMAGES)


@settings(max_examples=200, deadline=None)
@given(_body_variables, st.data())
def test_mapping_key_orders_body_maps_as_the_sorted_pairs_did(variables, data):
    """[DERIVED] `_mapping_key`, the images in the rule's name order, sorts
    any list of the rule's body maps as the sorted (name, image) pairs did,
    and two maps get equal keys exactly when they are equal; a body without
    variables included, whose one map is the empty one."""
    rule = Rule("r", (Atom("p", tuple(variables)),), Atom("q", ()))
    rows = st.lists(_images, min_size=len(variables), max_size=len(variables))
    maps = [dict(zip(variables, row)) for row in data.draw(st.lists(rows, max_size=8))]
    keys = [_mapping_key(rule, h) for h in maps]
    oracle = [_oracle_mapping_key(h) for h in maps]
    assert (sorted(range(len(maps)), key=keys.__getitem__)
            == sorted(range(len(maps)), key=oracle.__getitem__))
    for g, kg in zip(maps, keys):
        for h, kh in zip(maps, keys):
            assert (kg == kh) == (g == h)


def _packaged_rules() -> list:
    """Every rule of the curated and paper theories and of their canonical
    rewritings."""
    paper = resources.files("shychase").joinpath("suites/paper")
    programs = [program for _, program in curated_programs()]
    programs += [load_paper_program(e.name) for e in sorted(paper.iterdir(), key=lambda e: e.name)
                 if e.name.endswith(".dlp")]
    rules = []
    for p in programs:
        rules += [*p.ontology, *rewrite_theory(p.database, p.ontology)[1]]
    return rules


def test_mapping_key_orders_the_packaged_rules_maps_as_the_image_tuples():
    """[DERIVED] On every rule of the packaged suites and of their
    rewritings, with no, one or several body variables, `_mapping_key`
    sorts seeded random body maps, built in a shuffled variable order and
    with repeats, as `tuple(h[v] for v in rule.uv_by_name)` does, and two
    maps get equal keys exactly when their tuples are equal."""
    rng = random.Random(0)
    rules = _packaged_rules()
    assert {len(rule.uv) for rule in rules} >= {0, 1, 2, 3}
    for rule in rules:
        maps = []
        for _ in range(12):
            variables = rng.sample(rule.uv_by_name, len(rule.uv_by_name))
            maps.append({v: rng.choice(_IMAGES) for v in variables})
        keys = [_mapping_key(rule, h) for h in maps]
        tuples = [tuple(h[v] for v in rule.uv_by_name) for h in maps]
        assert (sorted(range(len(maps)), key=keys.__getitem__)
                == sorted(range(len(maps)), key=tuples.__getitem__)), rule
        for kg, tg in zip(keys, tuples):
            for kh, th in zip(keys, tuples):
                assert (kg == kh) == (tg == th), rule


def test_homomorphism_seed_is_respected():
    src = [Atom("p", (Variable("X"), Variable("Y")))]
    target = [Atom("p", (Constant("a"), Constant("b"))),
              Atom("p", (Constant("b"), Constant("b")))]
    seed = {Variable("X"): Constant("b")}
    maps = list(homomorphisms(src, target, seed))
    assert maps == [{Variable("X"): Constant("b"), Variable("Y"): Constant("b")}]


def test_a_head_check_stops_at_its_first_witness(monkeypatch):
    """`_search` yields each extension as `_match` finds it: over a
    candidate list of five atoms whose first matches, the first map costs
    one `_match` call, not one per candidate, and so does `_violations`'
    check of a satisfied head.  Every depth is lazy: the first map of
    p(X,Y), q(Y) over five p and five q atoms costs two calls, one per
    pattern atom.  Over a list of 50 atoms, which `_search` matches by
    `_planned`, not `_match`, both take one candidate from the list."""
    calls = tried = 0
    match, candidates = hom._match, hom._candidates

    def counted(*args):
        nonlocal calls
        calls += 1
        return match(*args)

    class Counted(list):
        def __iter__(self):
            nonlocal tried
            for atom in list.__iter__(self):
                tried += 1
                yield atom

    monkeypatch.setattr(hom, "_match", counted)
    monkeypatch.setattr(hom, "_candidates", lambda *args: Counted(candidates(*args)))
    X, Y = Variable("X"), Variable("Y")
    a = Constant("a")
    idx = _index([Atom("p", (a, Constant(f"b{i}"))) for i in range(5)])
    assert len(idx[(("p", None), 2), 0, a]) == 5
    seed = {X: a}
    assert next(_search([Atom("p", (X, Y))], seed, idx), None) == {X: a, Y: Constant("b0")}
    assert calls == 1
    calls = 0
    rule = Rule("r", (Atom("s", (X,)),), Atom("p", (X, Y)))
    assert next(_violations(rule, idx, (seed,)), None) is None
    assert calls == 1
    calls = 0
    bs = [Constant(f"b{i}") for i in range(5)]
    idx = _index([*(Atom("p", (a, b)) for b in bs), *(Atom("q", (b,)) for b in bs)])
    assert next(_search([Atom("p", (X, Y)), Atom("q", (Y,))], {}, idx), None) == {X: a, Y: bs[0]}
    assert calls == 2
    calls = tried = 0
    idx = _index([Atom("p", (a, Constant(f"b{i:02}"))) for i in range(50)])
    assert len(idx[(("p", None), 2), 0, a]) == 50 >= hom._PLAN_MIN
    assert next(_search([Atom("p", (X, Y))], seed, idx), None) == {X: a, Y: Constant("b00")}
    assert (calls, tried) == (0, 1)
    tried = 0
    assert next(_violations(rule, idx, (seed,)), None) is None
    assert (calls, tried) == (0, 1)


def test_no_homomorphism_when_predicate_missing():
    assert next(homomorphisms([Atom("r", (Variable("X"),))],
                              [Atom("p", (Constant("a"),))]), None) is None


def brute_isomorphic(a, b):
    """Try every bijection that maps nulls onto nulls and variables onto
    variables (constants stay fixed)."""
    a, b = set(a), set(b)

    def terms(atoms, kind):
        return sorted({t for x in atoms for t in x.args if isinstance(t, kind)}, key=repr)

    na, nb, va, vb = terms(a, Null), terms(b, Null), terms(a, Variable), terms(b, Variable)
    if len(na) != len(nb) or len(va) != len(vb):
        return False
    for nulls_perm, vars_perm in product(permutations(nb), permutations(vb)):
        ren = {**dict(zip(na, nulls_perm)), **dict(zip(va, vars_perm))}
        if {apply_mapping(ren, x) for x in a} == b:
            return True
    return False


@settings(max_examples=60, deadline=None)
@given(atoms(ground_terms, 4), atoms(ground_terms, 4))
def test_isomorphic_matches_brute_force(a, b):
    # [DERIVED] permutation search is the oracle, for the colour refinement too
    assert isomorphic(set(a), set(b)) == brute_isomorphic(a, b) == oracle_isomorphic(a, b)


@settings(max_examples=200, deadline=None)
@given(atoms(st.one_of(constants, nulls, variables), 4),
       atoms(st.one_of(constants, nulls, variables), 4))
def test_isomorphic_keeps_term_kinds_apart(a, b):
    """[DERIVED] On atom sets that mix constants, nulls and variables,
    `isomorphic` agrees with brute force over the renamings that map nulls
    only onto nulls and variables only onto variables."""
    assert isomorphic(set(a), set(b)) == brute_isomorphic(a, b)


@settings(max_examples=40, deadline=None)
@given(atoms(ground_terms, 5))
def test_isomorphic_is_invariant_under_null_shifts(atoms_):
    """[DERIVED] Shifting every null id yields an isomorphic copy."""
    shift = {n: Null(n.id + 10)
             for a in atoms_ for n in a.args if isinstance(n, Null)}
    shifted = {apply_mapping(shift, a) for a in atoms_}
    assert isomorphic(set(atoms_), shifted)


def test_isomorphic_distinguishes_join_structure():
    a = {Atom("p", (Null(1), Null(1)))}
    b = {Atom("p", (Null(1), Null(2)))}
    assert not isomorphic(a, b)


def test_isomorphic_handles_repeated_nulls():
    # regression: a triple-repeated null must map onto itself
    a = {Atom("p", (Null(1), Null(1), Null(1)))}
    assert isomorphic(a, a)
    assert isomorphic(a, {Atom("p", (Null(4), Null(4), Null(4)))})


def test_isomorphic_on_instances_and_constants():
    a = Instance(frozenset({Atom("p", (Constant("a"), Null(1)))}))
    b = Instance(frozenset({Atom("p", (Constant("b"), Null(1)))}))
    assert isomorphic(a, a)
    assert not isomorphic(a, b)


def test_isomorphic_scales_to_similar_null_clusters():
    """Many interchangeable nulls stay tractable in the oracle through color
    pruning."""
    a = {Atom("p", (Null(i), Null(i + 100))) for i in range(40)}
    b = {Atom("p", (Null(i + 7), Null(i + 300))) for i in range(40)}
    assert oracle_isomorphic(a, b)
    c = set(b) | {Atom("p", (Null(5000), Null(5000)))}
    c.remove(Atom("p", (Null(7), Null(300))))
    assert not oracle_isomorphic(a, c)


def test_isomorphic_search_deeper_than_the_recursion_limit(monkeypatch):
    """In the oracle, two null chains of 1001 atoms map onto each other one
    atom per search level, past Python's default recursion limit, without
    the process-wide limit being raised."""
    def refuse(limit):
        raise AssertionError("the oracle changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    a = {Atom(f"e{i}", (Null(i), Null(i + 1))) for i in range(1, 1002)}
    b = {Atom(f"e{i}", (Null(5000 + i), Null(5001 + i))) for i in range(1, 1002)}
    assert oracle_isomorphic(a, b)


def test_satisfies_query_reports_first_disjunct():
    inst = Instance(frozenset({Atom("p", (Constant("a"),)),
                               Atom("q", (Constant("a"),))}))
    q = Query(((Atom("r", (Variable("X"),)),),
               (Atom("p", (Variable("X"),)), Atom("q", (Variable("X"),)))))
    witness = satisfies_query(inst, q)
    assert witness is not None
    assert witness.disjunct == 1
    assert witness.mapping[Variable("X")] == Constant("a")
    missing = Query(((Atom("r", (Variable("X"),)),),))
    assert satisfies_query(inst, missing) is None


def test_isomorphic_ranks_without_a_sort_key_per_remaining_atom(monkeypatch):
    """The oracle, picking the next atom to map, reads no `Atom.sort_key` of
    the atoms left: on two n-atom null chains the calls stay linear in n."""
    n = 200
    calls = 0
    sort_key = Atom.sort_key

    def counted(atom):
        nonlocal calls
        calls += 1
        return sort_key(atom)

    monkeypatch.setattr(Atom, "sort_key", counted)
    a = {Atom("e", (Null(i), Null(i + 1))) for i in range(n)}
    b = {Atom("e", (Null(1000 + i), Null(1001 + i))) for i in range(n)}
    assert oracle_isomorphic(a, b)
    assert calls < 10 * n


_KEY_VARIABLES = [Variable("X"), Variable("Y"), Variable("Z")]
_variable_atom_sets = st.frozensets(st.one_of(
    st.builds(lambda p, s, t: Atom(p, (s, t)), st.sampled_from("pq"), src_terms, src_terms),
    st.builds(lambda t: Atom("r", (t,)), src_terms),
), max_size=6)


def _key(atoms, codes):
    plain, coded = _split(atoms, codes)
    return _canonical_key(frozenset(plain), tuple(coded))


def test_isomorphic_does_not_rename_a_variable_into_a_null():
    """`_canonical_key` numbers nulls and variables alike, so a plain key
    comparison calls these pairs equal; `isomorphic` tells them apart."""
    x, n = Variable("X"), Null(1)
    for a, b in (({Atom("p", (x,))}, {Atom("p", (n,))}),
                 ({Atom("p", (x, n))}, {Atom("p", (n, x))})):
        codes: dict = {}
        assert _key(a, codes) == _key(b, codes)
        assert not isomorphic(a, b)


@settings(max_examples=300, deadline=None)
@given(_variable_atom_sets, _variable_atom_sets,
       st.lists(variables, min_size=3, max_size=3))
def test_canonical_key_equal_exactly_when_isomorphic_on_variables(a, b, images):
    """[DERIVED] On small sets of variable and constant atoms, as rule
    patterns and query disjuncts are, the key is equal exactly when the
    oracle says so: for a random pair, and for a set and its image
    under a map of its variables, which is a renaming when the map is a
    bijection."""
    mapped = frozenset(apply_mapping(dict(zip(_KEY_VARIABLES, images)), x) for x in a)
    codes: dict = {}
    key_a = _key(a, codes)
    for other in (b, mapped):
        assert (key_a == _key(other, codes)) == oracle_isomorphic(a, other)
    if sorted(images) == _KEY_VARIABLES:
        assert _key(mapped, codes) == key_a


def _in_order(maps) -> list:
    """The maps as a list sorted by their items, so equal lists mean equal
    maps with equal multiplicities."""
    return sorted(maps, key=lambda h: sorted(h.items()))


def _assert_using_matches_the_filter(body, atoms):
    """For each atom of the instance, the delta join `_using` yields, as a
    list, exactly the maps of the full search whose image holds the atom;
    returns how many maps it yielded in all."""
    idx = _index(atoms)
    yielded = 0
    for atom in atoms:
        want = [h for h in _search(body, {}, idx)
                if any(apply_mapping(h, b) == atom for b in body)]
        assert _in_order(_using(body, atom, idx)) == _in_order(want), (body, atom)
        yielded += len(want)
    return yielded


def test_using_yields_a_map_through_two_body_atoms_once():
    """X = Y = a sends both body atoms onto p(a,a): one map, not two."""
    a, b = Constant("a"), Constant("b")
    x, y = Variable("X"), Variable("Y")
    body = (Atom("p", (x, y)), Atom("p", (y, x)))
    atoms = [Atom("p", (a, a)), Atom("p", (a, b)), Atom("p", (b, a))]
    idx = _index(atoms)
    assert list(_using(body, Atom("p", (a, a)), idx)) == [{x: a, y: a}]
    assert _in_order(_using(body, Atom("p", (a, b)), idx)) == [{x: a, y: b}, {x: b, y: a}]
    _assert_using_matches_the_filter(body, atoms)


_X, _Y, _Z = Variable("X"), Variable("Y"), Variable("Z")
_body_terms = st.sampled_from([Constant("a"), _X, _Y, _Z])
# bodies of up to three atoms over two keys of one predicate, so that a key
# repeats, with constants and variables shared between atoms
_repeating_bodies = st.lists(st.one_of(_binary("p", _body_terms),
                                       st.builds(lambda t: Atom("p", (t,)), _body_terms)),
                             min_size=1, max_size=3).map(tuple)


@settings(max_examples=300, deadline=None)
@given(_repeating_bodies, _index_atoms)
@example((Atom("p", (_X, _Y)), Atom("p", (_Y, _X)), Atom("p", (_X, _X))),
         [Atom("p", (Constant("a"), Constant("a"))), Atom("p", (Null(1), Constant("a")))])
def test_using_matches_the_filtered_search(body, atoms):
    """[DERIVED] On bodies that repeat a key, with constants and shared
    variables, `_using` yields each map through the atom exactly once."""
    _assert_using_matches_the_filter(body, atoms)


def _curated_models():
    """(ontology, model) of every model the search finds on each curated
    theory and its canonical active part at (2, 10)."""
    from shychase.canonical import partition_active_harmless, rewrite_theory
    from shychase.finitemodels import ModelBudget, _found_models
    from shychase.harness import curated_programs

    for _, program in curated_programs():
        dbc, ontoc, _ = rewrite_theory(program.database, program.ontology)
        active, _ = partition_active_harmless(ontoc)
        for db, onto in ((program.database, program.ontology), (dbc, active)):
            for model in _found_models(db, onto, ModelBudget(2, 10)):
                yield onto, sorted(model)


def test_using_matches_the_filtered_search_on_curated_models():
    """[DERIVED] Every rule body of each curated theory and of its canonical
    active part against every model the search finds for it."""
    yielded = 0
    for onto, atoms in _curated_models():
        for rule in onto:
            yielded += _assert_using_matches_the_filter(rule.body, atoms)
    assert yielded > 900


@pytest.mark.parametrize("seed", range(50))
def test_using_matches_the_filtered_search_on_random_chases(seed):
    """[DERIVED] Every rule body of a seeded random theory against its
    oblivious and its restricted chase, each cut at 60 atoms."""
    from shychase.chase import OBLIVIOUS, RESTRICTED, ChaseConfig, run_chase
    from shychase.generate import default_config, random_program

    program = random_program(seed, default_config())
    for mode in (OBLIVIOUS, RESTRICTED):
        chase = run_chase(program.database, program.ontology, ChaseConfig(mode, 60, 20))
        for rule in program.ontology:
            _assert_using_matches_the_filter(rule.body, sorted(chase.instance))
