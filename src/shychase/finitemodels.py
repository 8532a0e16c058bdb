"""Finite-model machinery: model checking, well-supported orderings, bounded
minimal-model enumeration, propagation orderings, and the join-breaking
repair that turns a model of the active part of a canonical theory into one
of the full theory.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, count
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from .chase import RESTRICTED, ChaseConfig, entails
from .core import (
    Atom,
    Constant,
    Database,
    Instance,
    Null,
    Ontology,
    Query,
    _key,
    _Record,
    constants_of,
    is_simple,
)
from .canonical import partition_active_harmless
from .classify import classify_local
from .hom import (_add, _drop, _index, _is_new_key, _mapping_key, _match, _search, _split, _using,
                  _violations, apply_mapping)


class ModelBudget(_Record):
    __slots__ = ()
    _fields = ("max_extra_nulls", "max_atoms")

    def __new__(cls, max_extra_nulls: int, max_atoms: int):
        if max_extra_nulls < 0:
            raise ValueError("max_extra_nulls must be non-negative")
        if max_atoms < 1:
            raise ValueError("max_atoms must be positive")
        return tuple.__new__(cls, (max_extra_nulls, max_atoms))


def is_model(inst: Instance, db: Database, onto: Ontology):
    """(True, None) if inst contains db and satisfies every rule, else
    (False, violation); violation is (None, missing db atom) or, as
    `_first_violation` gives it, (rule, body map)."""
    for a in sorted(db, key=Atom.sort_key):
        if a not in inst:
            return False, (None, a)
    violation = _first_violation(_index(inst), onto)
    return violation is None, violation


def _first_violation(idx: dict, onto: Ontology):
    """(rule, body map) of the first rule, by id, that the indexed instance
    violates, with its least violating body map under `_mapping_key`, whose
    getter `Rule.map_key` is the key of `min`; or None.  Only the violated
    rule's getter is read, so a rule that holds computes none."""
    for rule in onto.by_id:
        violations = list(_violations(rule, idx, _search(rule.body, {}, idx)))
        if violations:
            return rule, min(violations, key=rule.map_key)
    return None


class SupportStep(_Record):
    __slots__ = ()
    _fields = ("atom", "rule_id", "mapping")  # rule_id None marks a database atom

    def __new__(cls, atom: Atom, rule_id: Optional[str], mapping: Optional[dict] = None):
        return tuple.__new__(cls, (atom, rule_id, mapping))

    @property
    def from_database(self) -> bool:
        return self.rule_id is None


def _supports(onto: Ontology, atom: Atom, idx: dict) -> Iterator[tuple]:
    """Each (rule, map) of the rules filed under atom's `_key` in
    `onto.heads`, in id order, whose head maps exactly onto atom and whose
    body maps into the instance indexed by `_key` in idx."""
    for _, rule in onto.heads.get(_key(atom), ()):
        seed = _match(rule.head, atom, {})
        if seed is not None:
            for h in _search(rule.body, seed, idx):
                yield rule, h


def _placements(atoms: list, db: Database, onto: Ontology) -> Iterator[SupportStep]:
    """The support walk: each step places the first unplaced listed atom
    that is a database atom or has a support in the atoms placed before it,
    taking the first support by rule id, until no atom has one.  Support
    only grows with the prefix, so the walk places the greatest subset of
    the atoms that has a well-supported ordering."""
    remaining = list(atoms)
    db_atoms = set(db.atoms)
    idx: dict = {}
    while True:
        for i, atom in enumerate(remaining):
            if atom in db_atoms:
                step = SupportStep(atom, None)
                break
            support = next(_supports(onto, atom, idx), None)
            if support is not None:
                step = SupportStep(atom, support[0].id, support[1])
                break
        else:
            return
        yield step
        del remaining[i]
        _add(idx, atom)


def find_support_ordering(inst: Instance, db: Database, onto: Ontology) -> Optional[tuple]:
    """The support walk over the sorted atoms as a well-supported ordering,
    or None if it leaves an atom unplaced."""
    atoms = inst.sorted_atoms()
    steps = tuple(_placements(atoms, db, onto))
    return steps if len(steps) == len(atoms) else None


def ordering_from_sequence(atoms: Iterable[Atom], db: Database, onto: Ontology) -> tuple:
    """Justify a given atom sequence as a well-supported ordering, or raise
    at its first atom that repeats or that its prefix does not support: the
    walk tries the atoms in the given order, so it leaves the sequence there."""
    atoms = list(atoms)
    walk = _placements(atoms, db, onto)
    steps: dict = {}
    for atom in atoms:
        if atom in steps:
            raise ValueError(f"atom {atom!r} repeats an earlier atom")
        step = next(walk, None)
        if step is None or step.atom != atom:
            raise ValueError(f"atom {atom!r} is not supported by its prefix")
        steps[atom] = step
    return tuple(steps.values())


def well_supported_core(inst: Instance, db: Database, onto: Ontology) -> Optional[Instance]:
    """The greatest well-supported submodel of a finite model containing the
    database, the atoms the support walk places; None if inst is not such a
    model.  The placed atoms form a model: they contain the database, and a
    body match into them is one into inst, so it extends to a head atom of
    inst, which the match supports and the walk therefore places."""
    if not is_model(inst, db, onto)[0]:
        return None
    return Instance(frozenset(step.atom for step in _placements(inst.sorted_atoms(), db, onto)))


def _add_atom(idx: dict, table: tuple, onto: Ontology, a: Atom) -> tuple:
    """The violation table of an instance plus an atom a it lacks, derived
    from the instance's own, which is left as it is; a joins idx in place.

    The table holds one dict per rule of `onto.by_id`, from `_mapping_key`
    to body map, of the rule's violations; only rules filed under a's
    `_key` in `onto.heads` or `onto.bodies` can change.  A violation stays
    unless the rule's head maps onto a.  The new ones are the body maps
    that use a (`_using`, which yields each once) that `_violations` keeps.
    """
    k = _key(a)
    _add(idx, a)
    out = list(table)
    for i, rule in onto.heads.get(k, ()):
        if out[i]:
            out[i] = {m: h for m, h in out[i].items() if _match(rule.head, a, h) is None}
    for i, rule in onto.bodies.get(k, ()):
        for h in _violations(rule, idx, _using(rule.body, a, idx)):
            if out[i] is table[i]:
                out[i] = dict(out[i])
            out[i][_mapping_key(rule, h)] = h
    return tuple(out)


def _least_violation(onto: Ontology, table: tuple):
    """(rule, body map) of the first rule with a violation in the table,
    with its least body map under `_mapping_key`, as `_first_violation`
    gives it; or None."""
    for i in compress(count(), table):
        return onto.by_id[i], table[i][min(table[i])]
    return None


def _atoms_needed(onto: Ontology, table: tuple, lacking: dict) -> int:
    """A lower bound on the atoms any model containing the instance with
    this violation table must add: per `_key`, the larger of the certain
    atoms the instance lacks there (`lacking`, see `_lacked`) and the most
    distinct frontier images (see `core.Rule.frontier`) among the
    violations of one rule with a head of that key."""
    most = dict(lacking)
    for i in compress(count(), table):
        rule = onto.by_id[i]
        head_key = _key(rule.head)
        images = len({tuple(h.get(t, t) for t in rule.frontier) for h in table[i].values()})
        most[head_key] = max(most.get(head_key, 0), images)
    return sum(most.values())


def _lacked(lacking: dict, certain: frozenset, added: Iterable[Atom]) -> dict:
    """The certain atoms lacked, counted by `_key` as in `lacking`, once the
    new atoms added are in; `lacking` itself when none of them is certain."""
    gained = [_key(a) for a in added if a in certain]
    if not gained:
        return lacking
    lacking = dict(lacking)
    for k in gained:
        lacking[k] -= 1
    return lacking


def _ev_values(k: int, pool: list, fresh: list, drawn: int = 0) -> Iterator[tuple]:
    """Values for k existential variables, in search order, with the count
    of fresh nulls drawn.  Each value is a term of pool, a fresh null an
    earlier variable drew, or the next one, fresh[drawn], while any is left."""
    if k == 0:
        yield (), drawn
        return
    for t in pool + fresh[:drawn + 1]:
        more = drawn + 1 if drawn < len(fresh) and t == fresh[drawn] else drawn
        for rest, total in _ev_values(k - 1, pool, fresh, more):
            yield (t, *rest), total


def _repairs(terms: frozenset, fresh_used: int, violation, consts: list,
             fresh_pool: list) -> Iterator[tuple]:
    """(added atoms, fresh nulls in use) for each way to add the violated
    rule's head: its existential variables range over the current terms,
    the known constants and the unused fresh nulls (`_ev_values`).  The
    violation is as `_least_violation` gives it."""
    rule, h = violation
    evs = rule.ev_sorted
    pool = sorted(terms)
    pool += [c for c in consts if c not in terms]
    for values, drawn in _ev_values(len(evs), pool, fresh_pool[fresh_used:]):
        mapping = {**h, **dict(zip(evs, values))}
        yield (apply_mapping(mapping, rule.head),), fresh_used + drawn


def _found_models(db: Database, onto: Ontology, budget: ModelBudget,
                  certain: frozenset = frozenset(), q: Optional[Query] = None) -> list:
    """Every model the bounded repair search reaches, one per isomorphism
    class, in discovery order; given a query q, only those that do not
    satisfy it.

    Depth-first repair of the first rule violation, branching on every
    assignment of the existential variables over the current terms, the
    known constants, the fresh nulls already drawn by earlier variables of
    the same assignment, and one further fresh null while fewer than
    max_extra_nulls are in use.  States are deduplicated up to null
    renaming by `_canonical_key`; a state with more than max_atoms atoms
    is dropped.

    certain holds atoms that every model of the theory contains, such as
    the null-free atoms of a chase prefix; each state counts, per `_key`,
    those it lacks (`_lacked`).  A state X is opened only if len(X) +
    `_atoms_needed` fits max_atoms.  The count is a lower bound on the
    atoms any model M containing X adds: M holds every certain atom, a
    violation of a rule under h stays until M has an atom of the head's
    key that agrees with h on the frontier, two frontier images of one
    rule need two atoms, and an atom has one key.  When the violations and
    the lacked certain atoms are no more than the room left, neither is
    the bound, so it is not computed.  A full state, one of max_atoms
    atoms, that is not a model is never opened, and is keyed only once it
    is found to be a model.

    So what is skipped is dead: every model containing it exceeds the
    budget.  Dead states are closed under supersets and null renaming (a
    renaming maps models containing one onto models containing the other,
    keeping sizes, and certain atoms are null-free), so a live state
    descends only from live ones, a seen key that blocks a live state was
    made by a live state, and only dead states are blocked or explored
    differently.  The live states, and so the found models and their
    order, are those of the search that opens and keys every state within
    the budget, whatever certain atoms it is given.

    Given q, a state that satisfies it is dropped: a UCQ that holds in a
    state holds in every superset, so the state never grows into a
    countermodel, and its renamings, whether its key blocks them or they
    are dropped in turn, satisfy q as well.  Its parent did not satisfy q,
    so a match of a disjunct uses an atom the step added, and `_using`
    over each disjunct with each such atom finds it.

    A frame keeps its state's violation table, lacked counts and `_split`
    form, and a child derives its own from them, coding only the new atom;
    `_add_atom` grows the one index that serves the whole search.  The root
    is the empty state plus the database, which holds no nulls, so the
    fresh nulls are Null(1), Null(2), ...
    """
    consts = sorted(constants_of(db, onto))
    # no state within max_atoms atoms holds more nulls: each is a head argument
    cap = budget.max_atoms * max((arity for _, arity in onto.heads), default=0)
    fresh_pool = [Null(1 + i) for i in range(min(budget.max_extra_nulls, cap))]
    codes: dict = {}
    lacking = Counter(map(_key, certain))

    found: list = []
    seen_states: set = set()
    # each open state as (atoms, terms, null-free atoms, codes of the
    # others, violation table, lacked counts) with an iterator of its
    # successors as (added atoms, fresh nulls in use), innermost last
    empty = (frozenset(), frozenset(), frozenset(), (), ({},) * len(onto), lacking)
    stack = [(empty, iter([(tuple(db.atoms), 0)]))]
    idx: dict = {}
    trail: list = []  # idx's atoms in the order added; a step adds only new atoms
    while stack:
        (parent, terms, plain, coded, table, lacking), successors = stack[-1]
        while len(trail) > len(parent):  # a step not opened, or a frame popped
            _drop(idx, trail.pop())
        step = next(successors, None)
        if step is None:
            stack.pop()
            continue
        added, fresh_used = step
        atoms = parent.union(added)
        if len(atoms) > budget.max_atoms:
            continue
        new_plain, new_coded = _split(added, codes)
        plain, coded = plain.union(new_plain), coded + tuple(new_coded)
        room = budget.max_atoms - len(atoms)
        if room and not _is_new_key(plain, coded, seen_states):
            continue
        trail += added
        for a in added:
            table = _add_atom(idx, table, onto, a)
        if q is not None and any(next(_using(d, a, idx), None) is not None
                                 for d in q.disjuncts for a in added):
            continue
        lacking = _lacked(lacking, certain, new_plain)
        violation = _least_violation(onto, table)
        if violation is None:
            if room or _is_new_key(plain, coded, seen_states):
                found.append(atoms)
        elif room and (sum(map(len, table)) + sum(lacking.values()) <= room
                       or _atoms_needed(onto, table, lacking) <= room):
            terms = terms.union(t for a in added for t in a.args)
            stack.append(((atoms, terms, plain, coded, table, lacking),
                          _repairs(terms, fresh_used, violation, consts, fresh_pool)))
    return found


def _null_profile(atoms: frozenset) -> tuple:
    """(null-free atoms, atoms with a null, those atoms with nulls blanked)."""
    with_nulls = [a for a in atoms if any(isinstance(t, Null) for t in a.args)]
    blanked = frozenset((a.pred_key, tuple(None if isinstance(t, Null) else t for t in a.args))
                        for a in with_nulls)
    return atoms.difference(with_nulls), with_nulls, blanked


def _embeds(small: tuple, big: tuple, idx: dict) -> bool:
    """True iff some map that fixes constants and sends nulls injectively
    to nulls carries one atom set into another.  Both are given by
    `_null_profile`, and `idx` indexes the second.  Such a map keeps
    null-free atoms and the blanked form of the others, so only the atoms
    with a null are searched, and only when those forms are contained."""
    null_free, with_nulls, blanked = small
    if not (null_free <= big[0] and blanked <= big[2]):
        return False
    for h in _search(with_nulls, {}, idx):
        images = list(h.values())
        if all(isinstance(t, Null) for t in images) and len(set(images)) == len(images):
            return True
    return False


def _minimal_by_embedding(models: list) -> list:
    """The subset-minimal models among the found ones, smallest first.

    A found model M is minimal iff no smaller found model embeds into it
    (`_embeds`).  If F embeds into M, its image is a model (a renaming of
    nulls preserves modelhood, and the database is null-free) and a proper
    subset of M.  Conversely, let S be a model with db <= S < M.  S has at
    most as many atoms and nulls as M, hence fits the budget, and its
    constants are M's.  Start from the database, which embeds into S.
    Whenever a search state X embeds into S by e and violates a rule
    under h, S satisfies the rule under e.h, say with values t for the
    existential variables.  Each t is a constant, the image of a term of
    X, a null of S already chosen by an earlier variable, or a null of S
    outside e(X); `_found_models` offers the matching option (a constant,
    that term, the fresh null drawn for it, the next fresh null), and e
    extends to the new state.  The new atom's image is in S and not in
    e(X), since X violates the rule, so states grow inside the budget
    until one is a model A with A embedded in S.  A state skipped as a
    renaming of a visited one embeds into S as well, so the argument runs
    on from the visited copy (`_canonical_key` is equal exactly for
    renamings).  Hence some found model of at most |S|
    atoms embeds into M.  Embeddings compose, so it suffices to test the
    minimal models found so far.
    """
    ordered = sorted(models, key=lambda m: (len(m), sorted(a.sort_key() for a in m)))
    minimal: list = []
    profiles: list = []
    smaller = 0  # minimal models with fewer atoms than m
    for m in ordered:
        while smaller < len(minimal) and len(minimal[smaller]) < len(m):
            smaller += 1
        profile = _null_profile(m)
        idx = _index(profile[1])
        if not any(_embeds(f, profile, idx) for f in profiles[:smaller]):
            minimal.append(m)
            profiles.append(profile)
    return minimal


def enumerate_finite_models(db: Database, onto: Ontology, budget: ModelBudget) -> Iterator[Instance]:
    """All subset-minimal finite models within the budget, smallest first,
    one per isomorphism class.

    Complete within the budget: every minimal model with at most
    max_atoms atoms and max_extra_nulls nulls, whose constants all occur
    in the database or the ontology, is yielded up to null renaming (see
    `_minimal_by_embedding` for the argument).  Models beyond the budget
    are never seen.  Results are collected before emission so the order
    is deterministic.
    """
    for atoms in _minimal_by_embedding(_found_models(db, onto, budget)):
        yield Instance(atoms)


def find_finite_countermodel(db: Database, onto: Ontology, q: Query,
                             budget: ModelBudget) -> Optional[Instance]:
    """First minimal finite model within budget that does not satisfy q,
    in the order of `enumerate_finite_models`.

    Sound for any budget: a reported instance really is a countermodel.
    Complete within the budget: if some finite model avoids q, so does
    each of its minimal submodels, and `enumerate_finite_models` yields
    every minimal model of at most max_atoms atoms and max_extra_nulls
    nulls.  None therefore means that no countermodel fits the budget,
    not that none exists.

    A restricted chase of at most max_atoms rounds runs first.  Each of
    its prefixes maps into every model of the theory by a map that fixes
    constants.  So if the prefix it stops at satisfies q, every model
    does, and None is returned without a search; otherwise its null-free
    atoms lie in every model, and go to the search as certain atoms, which
    prune only states no model within the budget contains (see
    `_found_models`).  The result is the same as without the chase.

    The search drops every state that satisfies q, so it finds only
    countermodels.  A submodel of a countermodel is a countermodel, so a
    found countermodel is minimal among the found models exactly when it
    is minimal among the found countermodels, and the first minimal one
    is the answer.
    """
    entailment = entails(db, onto, q, ChaseConfig(RESTRICTED, max_rounds=budget.max_atoms))
    if entailment:
        return None
    certain = frozenset(a for a in entailment.chase.instance
                        if all(isinstance(t, Constant) for t in a.args))
    minimal = _minimal_by_embedding(_found_models(db, onto, budget, certain, q))
    return Instance(minimal[0]) if minimal else None


# ---------------------------------------------------------------------------
# propagation orderings


class StartingPoint(tuple):
    """Fresh term recording where an existentially supported term was born:
    atom_index is its 1-based rank in the ordering, position the 1-based
    argument slot.  Stored as (1, repr, term, atom_index, position), so it
    sorts among terms as a null does, by its repr (see `core._Term`)."""

    __slots__ = ()

    def __new__(cls, term, atom_index: int, position: int):
        return tuple.__new__(cls, (1, f"<{term!r},{atom_index},{position}>",
                                   term, atom_index, position))

    term = property(itemgetter(2))
    atom_index = property(itemgetter(3))
    position = property(itemgetter(4))

    def __getnewargs__(self):
        return self[2:]

    def __repr__(self):
        return self[1]


def propagation_ordering(ordering: tuple, onto: Ontology) -> tuple:
    """Annotated copy of a well-supported ordering under a joinless ontology.

    Per argument, in order of precedence: existential positions of
    existentially supported atoms become StartingPoints; terms propagated
    from an earlier atom copy that atom's annotation (smallest source
    first); everything else stays as is.  Raises at the first step not
    from the database that has no support among the atoms before it; a
    database step is trusted, since no database is given.
    """
    for rule in onto:
        body_vars = [v for a in rule.body for v in a.variables()]
        if not is_simple(rule.head) or len(set(body_vars)) < len(body_vars):
            witness = classify_local(onto)["joinless"][1]
            raise ValueError(f"ontology is not joinless: {witness.describe()}")
    idx: dict = {}
    rank: dict = {}  # atom -> 1-based rank of its first occurrence
    annotated: list = []
    for j, step in enumerate(ordering, 1):
        atom = step.atom
        supports = [] if step.from_database else list(_supports(onto, atom, idx))
        if not (supports or step.from_database):
            raise ValueError(f"atom {atom!r} is not supported by its prefix")
        ex_supported = bool(supports) and all(rule.ev for rule, _ in supports)
        images = [apply_mapping(h, b) for rule, h in supports for b in rule.body]
        args = []
        for k, t in enumerate(atom.args, 1):
            if ex_supported and all(rule.head.args[k - 1] in rule.ev for rule, _ in supports):
                args.append(StartingPoint(t, j, k))
                continue
            sources = [(rank[image], l) for image in images
                       for l, u in enumerate(image.args, 1) if u == t]
            if sources:
                i, l = min(sources)
                args.append(annotated[i - 1].args[l - 1])
            else:
                args.append(t)
        annotated.append(Atom(atom.pred, tuple(args), atom.shape))
        rank.setdefault(atom, j)
        _add(idx, atom)
    return tuple(annotated)


# ---------------------------------------------------------------------------
# join-breaking repair


def disjoin_repair(model: Instance, ordering: tuple, full_onto: Ontology):
    """Turn a well-supported model of the active part into one of the full
    canonical ontology.

    Matches of join-carrying (harmless) rule bodies are destroyed by
    activating starting points: the joined term is replaced, at its birth
    atom and every slot annotated with the same starting point, by the
    starting point itself.  Afterwards any rule left unsatisfied is closed
    by adding head atoms whose images under the returned mapping lie in
    the input model, so the result still maps into it.  Every step reads
    one index of the current atoms, which each step updates in place.
    """
    active, harmless = partition_active_harmless(full_onto)
    if {step.atom for step in ordering} != set(model.atoms):
        raise ValueError("ordering does not cover the model")
    if len(ordering) != len(model.atoms):
        raise ValueError("ordering repeats an atom")
    # the current atoms, each with its annotation, slot by slot
    notes = {s.atom: a.args for s, a in zip(ordering, propagation_ordering(ordering, active))}
    idx = _index(notes)
    model_idx = _index(model.atoms)
    activated: dict = {}  # starting point -> its term, in activation order
    skipped: set = set()

    def activate(sp: StartingPoint):
        activated[sp] = sp.term
        for a, ann in [(a, ann) for a, ann in notes.items() if sp in ann]:
            _drop(idx, a)
            b = Atom(a.pred, tuple(sp if n == sp else t for t, n in zip(a.args, ann)), a.shape)
            notes[b] = notes.pop(a)
            _add(idx, b)

    def break_one() -> bool:
        """Activate the starting points behind the first unskipped match of
        a harmless body, in index order; False if there is none."""
        for rule in harmless.by_id:
            for h in _search(rule.body, {}, idx):
                images = [apply_mapping(h, b) for b in rule.body]
                key = (rule.id, frozenset(images))
                if key in skipped:
                    continue
                # unactivated starting points behind a joined variable's slots
                fresh = {note for b, image in zip(rule.body, images)
                         for arg, note in zip(b.args, notes[image])
                         if arg in rule.joins and isinstance(note, StartingPoint)
                         and note not in activated}
                if fresh:
                    for sp in sorted(fresh):
                        activate(sp)
                    return True
                skipped.add(key)
        return False

    def close_one() -> bool:
        violation = _first_violation(idx, full_onto)
        if violation is None:
            return False
        rule, h = violation
        seed = {v: h[v].term if isinstance(h[v], StartingPoint) else h[v]
                for v in rule.uv if v in h}
        ext = next(_search([rule.head], seed, model_idx), None)
        if ext is None:
            raise ValueError(f"repair cannot satisfy rule {rule.id} inside the model")
        new_atom = Atom(rule.head.pred, tuple(ext[t] if t in rule.ev else h.get(t, t)
                                              for t in rule.head.args), rule.head.shape)
        notes[new_atom] = new_atom.args
        _add(idx, new_atom)
        return True

    while break_one() or close_one():
        pass
    return Instance(frozenset(notes)), activated
