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

from collections import Counter
from operator import itemgetter
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
from .hom import _canonical_key, _split
from .parse import print_atom


class UnpackError(ValueError):
    pass


def canonical_atom(atom: Atom) -> Atom:
    """Canonical form of a shape-free atom (see `_canonical_form`)."""
    return _canonical_form(_unshaped(atom).pred, atom.args)


def _unshaped(atom: Atom) -> Atom:
    """The atom, if it carries no shape; else a ValueError naming it as
    written in a `.dlp` file."""
    if atom.shape is not None:
        raise ValueError(f"atom {print_atom(atom)} already carries a shape")
    return atom


def _canonical_form(pred: str, terms) -> Atom:
    """The canonical atom of pred over terms: constants (kind rank 0, see
    `core._Term`) move into the shape verbatim; other terms are numbered by
    first occurrence and kept, once each, as the arguments."""
    seen: dict = {}
    labels = tuple([t[2] if t[0] == 0 else seen.setdefault(t, len(seen) + 1) for t in terms])
    return _atom(pred, tuple(seen), labels)


def _dedup(atoms: Iterable[Atom]) -> tuple:
    return tuple(dict.fromkeys(atoms))


def _first_occurrence_vars(atoms: Iterable[Atom]) -> list:
    return list(dict.fromkeys(v for a in atoms for v in a.variables()))


def _images(variables: list, constants: list) -> Iterator[tuple]:
    """The images of the variables under every map to an equality class or a
    constant, a class standing for its first member, in restricted growth
    order: each variable joins an earlier class, opens a new one or takes a
    constant, in that order."""
    def rec(i, images, reps):
        if i == len(variables):
            yield images
            return
        v = variables[i]
        for target in (*reps, v, *constants):
            yield from rec(i + 1, images + (target,), reps + (v,) if target == v else reps)

    yield from rec(0, (), ())


def _instances(atoms: tuple, variables: list, constants: list) -> Iterator[list]:
    """The canonical forms of the atoms, which must carry no shape, under
    each map of `_images`, in its order, one list per map.

    Each atom becomes a slot plan: per argument, its variable's index in
    the tuple of images, or the term itself if it is not in `variables`
    (a constant or an existential variable).  The plan keeps a getter of
    the images of the atom's variables and a dict from those images to the
    canonical form, so `_canonical_form` builds each distinct image once."""
    slot = {v: i for i, v in enumerate(variables)}
    plans = []
    for a in map(_unshaped, atoms):
        slots = [slot[v] for v in dict.fromkeys(a.variables()) if v in slot]
        # an atom without such variables has one image, keyed () by images[:0]
        plans.append((a.pred, [slot.get(t, t) for t in a.args],
                      itemgetter(*slots) if slots else itemgetter(slice(0)), {}))
    for images in _images(variables, constants):
        out = []
        for pred, plan, get, cache in plans:
            key = get(images)
            c = cache.get(key)
            if c is None:
                c = cache[key] = _canonical_form(
                    pred, [images[s] if s.__class__ is int else s for s in plan])
            out.append(c)
        yield out


def _is_new(atoms: Iterable[Atom], codes: dict, seen: dict) -> bool:
    """Record the atoms, pairwise distinct, in seen unless a set equal to
    them up to variable renaming is there; calls that share seen share codes.

    seen files each kept set under its (predicate, shape) multiset, which a
    renaming keeps, so only sets filed together can be equal.  A set gets
    its `_canonical_key`, and an earlier set filed with it gets its own,
    only when the two meet there."""
    kept = seen.setdefault(frozenset(Counter(map(itemgetter(0, 2), atoms)).items()), [])
    key = _key_of(atoms, codes) if kept else None
    for entry in kept:
        if entry[1] is None:
            entry[1] = _key_of(entry[0], codes)
        if entry[1] == key:
            return False
    kept.append([atoms, key])
    return True


def _key_of(atoms: Iterable[Atom], codes: dict) -> tuple:
    plain, coded = _split(atoms, codes)
    return _canonical_key(frozenset(plain), tuple(coded))


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
    `_repeats_a_predicate`), and no two of its body atoms can coincide;
    for a rule that repeats one, `_dedup` and `_is_new` remove the rest.
    """
    codes: dict = {}
    seen: dict = {}
    keyed = _repeats_a_predicate(rule.body)
    order = _first_occurrence_vars(rule.body)
    for *body, head in _instances((*rule.body, rule.head), order, sorted(set(consts))):
        body = _dedup(body) if keyed else tuple(body)
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
    return _rewrite_ontology(onto, sorted(constants_of(db, onto)))


def _rewrite_ontology(onto: Ontology, consts: list) -> Ontology:
    out = []
    for rule in onto:
        for i, (body, head) in enumerate(_rewritten_rules(rule, consts), 1):
            if head not in body:
                # a substitution maps only universal variables
                out.append(_rule(f"{rule.id}.{i}", body, head, rule.ev))
    return Ontology(tuple(out))


def rewrite_query(q: Query, consts: Iterable[Constant]) -> Query:
    """Expand each disjunct over all equality patterns of its variables, one
    per class up to renaming; a lone disjunct is keyed only if it repeats a
    predicate (`_repeats_a_predicate`)."""
    constants = sorted(set(consts))
    disjuncts = []
    codes: dict = {}
    seen: dict = {}
    for disjunct in q.disjuncts:
        repeats = _repeats_a_predicate(disjunct)
        keyed = len(q.disjuncts) > 1 or repeats
        for atoms in _instances(disjunct, _first_occurrence_vars(disjunct), constants):
            atoms = _dedup(atoms) if repeats else tuple(atoms)
            if not keyed or _is_new(atoms, codes, seen):
                disjuncts.append(atoms)
    return Query(tuple(disjuncts))


def rewrite_theory(db: Database, onto: Ontology, queries: Iterable[Query] = ()):
    """(database, ontology, queries) in canonical form, sharing one constant pool."""
    consts = sorted(constants_of(db, onto))
    return (
        rewrite_database(db),
        _rewrite_ontology(onto, consts),
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
    """`onto.parts`: (active, harmless), split by body joins (`Rule.joins`)."""
    return onto.parts
