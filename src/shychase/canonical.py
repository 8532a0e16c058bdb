"""Shape-indexed rewriting of a theory and its inverse.

Every atom p(t1,...,tm) has a canonical form p_[l1,...,lm](v1,...,vk) whose
bracketed shape records constants and the equality pattern of the remaining
terms, and whose arguments list each distinct non-constant term once.  A
theory is rewritten by instantiating every rule under all ways of grouping
its universal variables into equality classes or freezing them to known
constants, then canonicalising the result.  The unpacking function inverts
the encoding atom by atom.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .core import (
    Atom,
    Constant,
    Database,
    Instance,
    Ontology,
    Query,
    Rule,
    _atom,
    _rule,
    constants_of,
)
from .hom import _is_new_key, _split, apply_mapping


class UnpackError(ValueError):
    pass


def canonical_atom(atom: Atom) -> Atom:
    """Canonical form of a shape-free atom.

    Constants move into the shape verbatim; other terms are numbered by
    first occurrence and kept, once each, as the arguments.
    """
    if atom.shape is not None:
        raise ValueError(f"atom {atom!r} already carries a shape")
    labels = []
    seen: dict = {}
    for t in atom.args:
        if isinstance(t, Constant):
            labels.append(t.name)
        elif t in seen:
            labels.append(seen[t])
        else:
            seen[t] = len(seen) + 1
            labels.append(seen[t])
    args = sorted(seen, key=seen.get)
    return _atom(atom.pred, tuple(args), tuple(labels))


def _dedup(atoms: Iterable[Atom]) -> tuple:
    out = []
    for a in atoms:
        if a not in out:
            out.append(a)
    return tuple(out)


def _instantiate(atoms: Iterable[Atom], subst: dict) -> tuple:
    """Canonical forms of the atoms under subst, duplicates dropped."""
    return _dedup(canonical_atom(apply_mapping(subst, a)) for a in atoms)


def _first_occurrence_vars(atoms: Iterable[Atom]) -> list:
    order = []
    for a in atoms:
        for v in a.variables():
            if v not in order:
                order.append(v)
    return order


def _substitutions(variables: list, constants: list) -> Iterator[dict]:
    """Every map of the variables to an equality class or a constant, a class
    standing for its first member, in restricted growth order: each variable
    joins an earlier class, opens a new one or takes a constant, in that
    order."""
    subst: dict = {}

    def rec(i, reps):
        if i == len(variables):
            yield dict(subst)
            return
        v = variables[i]
        for target in (*reps, v, *constants):
            subst[v] = target
            yield from rec(i + 1, reps + (v,) if target == v else reps)

    yield from rec(0, ())


def _is_new(atoms: Iterable[Atom], codes: dict, seen: set) -> bool:
    """Record the atoms' `_canonical_key` in seen unless an atom set equal up
    to variable renaming is there; calls that share seen share codes."""
    return _is_new_key(*_split(atoms, codes), seen)


def _tagged_atoms(body: tuple, head: Atom) -> frozenset:
    # the space in the predicate name cannot clash with parsed predicates
    return frozenset(body) | {Atom(head.pred + " head", head.args, head.shape)}


def _repeats_a_predicate(atoms: tuple) -> bool:
    """True iff two atoms share a predicate; only then can two equality
    patterns give rewritings equal up to renaming.  Otherwise a renaming
    between them sends each atom to the one with its predicate, so their
    shapes agree on constants and on equal positions, and, being injective,
    it keeps equalities across atoms too: the patterns group the variables
    alike and, both in restricted growth order, are one pattern."""
    return len({a.pred for a in atoms}) < len(atoms)


def _rewritten_rules(rule: Rule, consts: Iterable[Constant]) -> Iterator[tuple]:
    """(body, head) of the rule's canonical instantiation under one
    substitution per isomorphism class, in enumeration order.

    Enumerating equality classes in restricted growth order avoids every
    duplicate of a rule whose body predicates are pairwise distinct (see
    `_repeats_a_predicate`); for a rule that repeats one, a canonical key up
    to variable renaming removes the rest.
    """
    codes: dict = {}
    seen: set = set()
    keyed = _repeats_a_predicate(rule.body)
    for subst in _substitutions(_first_occurrence_vars(rule.body), sorted(set(consts))):
        body = _instantiate(rule.body, subst)
        head = canonical_atom(apply_mapping(subst, rule.head))
        if not keyed or _is_new(_tagged_atoms(body, head), codes, seen):
            yield body, head


def rewrite_database(db: Database) -> Database:
    """The canonical database; atoms go in `Atom.sort_key` order, so a
    shaped atom's error names the same atom on every run."""
    return Database(frozenset(canonical_atom(a) for a in sorted(db, key=Atom.sort_key)))


def rewrite_ontology(db: Database, onto: Ontology) -> Ontology:
    """All canonical rules, numbered per source rule for provenance.

    Instantiations whose head coincides with a body atom are tautologies
    (merging variables can degrade a rule to one); they never add an atom
    under any chase and are dropped.
    """
    consts = sorted(constants_of(db, onto))
    out = []
    for rule in onto:
        for i, (body, head) in enumerate(_rewritten_rules(rule, consts), 1):
            if head not in body:
                out.append(_rule(f"{rule.id}.{i}", body, head))
    return Ontology(tuple(out))


def rewrite_query(q: Query, consts: Iterable[Constant]) -> Query:
    """Expand each disjunct over all equality patterns of its variables, one
    per class up to renaming; a lone disjunct is keyed only if it repeats a
    predicate (`_repeats_a_predicate`)."""
    constants = sorted(set(consts))
    disjuncts = []
    codes: dict = {}
    seen: set = set()
    for disjunct in q.disjuncts:
        keyed = len(q.disjuncts) > 1 or _repeats_a_predicate(disjunct)
        order = _first_occurrence_vars(disjunct)
        for subst in _substitutions(order, constants):
            atoms = _instantiate(disjunct, subst)
            if not keyed or _is_new(atoms, codes, seen):
                disjuncts.append(atoms)
    return Query(tuple(disjuncts))


def rewrite_theory(db: Database, onto: Ontology, queries: Iterable[Query] = ()):
    """(database, ontology, queries) in canonical form, sharing one constant pool."""
    consts = sorted(constants_of(db, onto))
    return (
        rewrite_database(db),
        rewrite_ontology(db, onto),
        tuple(rewrite_query(q, consts) for q in queries),
    )


# ---------------------------------------------------------------------------
# unpacking


def unpack_atom(atom: Atom) -> Atom:
    if atom.shape is None:
        raise UnpackError(f"atom {atom!r} carries no shape")
    args = []
    for label in atom.shape:
        if isinstance(label, str):
            args.append(Constant(label))
        elif 1 <= label <= len(atom.args):
            args.append(atom.args[label - 1])
        else:
            raise UnpackError(f"shape label {label} out of range in {atom!r}")
    return Atom(atom.pred, tuple(args))


def unpack(value):
    """Apply the inverse encoding to an atom or any container of atoms."""
    if isinstance(value, Atom):
        return unpack_atom(value)
    if isinstance(value, Instance):
        return Instance(frozenset(unpack_atom(a) for a in value))
    if isinstance(value, Database):
        return Database(frozenset(unpack_atom(a) for a in value))
    if isinstance(value, Rule):
        return Rule(value.id, tuple(unpack_atom(a) for a in value.body),
                    unpack_atom(value.head))
    if isinstance(value, Ontology):
        return Ontology(tuple(unpack(r) for r in value))
    if isinstance(value, Query):
        return Query(tuple(tuple(unpack_atom(a) for a in d) for d in value.disjuncts))
    if isinstance(value, (set, frozenset)):
        return type(value)(unpack_atom(a) for a in value)
    # terms, atoms and records are tuples too: only plain lists and tuples are containers
    if type(value) in (list, tuple):
        return type(value)(unpack(a) for a in value)
    raise UnpackError(f"cannot unpack {type(value).__name__}")


def partition_active_harmless(onto: Ontology):
    """Split rules by body joins: harmless rules repeat a variable across
    body atoms, active rules do not."""
    active, harmless = [], []
    for rule in onto:
        counts: dict = {}
        for atom in rule.body:
            for v in set(atom.variables()):
                counts[v] = counts.get(v, 0) + 1
        if any(n > 1 for n in counts.values()):
            harmless.append(rule)
        else:
            active.append(rule)
    return Ontology(tuple(active)), Ontology(tuple(harmless))
