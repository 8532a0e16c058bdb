"""The per-substitution rewriting that `canonical._instances` replaced, kept
as the oracle for it.

Every substitution is a dict from `pattern_oracle.substitutions`; each
atom is rewritten under it by `apply_mapping` and the former
`canonical_atom`, which tells constants by `isinstance` and reads their
`.name`, a new atom per atom and substitution; and every instantiation of
a rule or disjunct that needs a dedupe gets its `_canonical_key` at once,
in a plain set.  The constant pool comes from the former `constants_of`, which builds
one `Constant` per occurrence.  The rule ids, order and tautology drop are
those of `canonical`."""

from itertools import chain

from shychase.canonical import _repeats_a_predicate, _tagged_atoms, rewrite_database
from shychase.core import Atom, Constant, Ontology, Query, Rule
from shychase.hom import _canonical_key, _split, apply_mapping

from pattern_oracle import substitutions


def canonical_atom(atom: Atom) -> Atom:
    """Canonical form of a shape-free atom: constants move into the shape
    verbatim; other terms are numbered by first occurrence and kept, once
    each, as the arguments."""
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
    return Atom(atom.pred, tuple(args), tuple(labels))


def constants_of(db, onto) -> set:
    """All constants of the database and the ontology, one `Constant` per
    occurrence."""
    out = set()
    for a in chain(db, *(rule.atoms() for rule in onto)):
        out.update(t for t in a.args if isinstance(t, Constant))
        if a.shape is not None:
            out.update(Constant(l) for l in a.shape if isinstance(l, str))
    return out


def _dedup(atoms) -> tuple:
    out = []
    for a in atoms:
        if a not in out:
            out.append(a)
    return tuple(out)


def _first_occurrence_vars(atoms) -> list:
    order = []
    for a in atoms:
        for v in a.variables():
            if v not in order:
                order.append(v)
    return order


def instantiate(atoms, subst: dict) -> tuple:
    """Canonical forms of the atoms under subst, duplicates dropped."""
    return _dedup(canonical_atom(apply_mapping(subst, a)) for a in atoms)


def is_new(atoms, codes: dict, seen: set) -> bool:
    """Record the atoms' `_canonical_key` in seen unless an atom set equal
    to them up to variable renaming is there; calls that share seen share
    codes."""
    plain, coded = _split(atoms, codes)
    key = _canonical_key(frozenset(plain), tuple(coded))
    if key in seen:
        return False
    seen.add(key)
    return True


def rewritten_rules(rule: Rule, consts) -> list:
    codes: dict = {}
    seen: set = set()
    keyed = _repeats_a_predicate(rule.body)
    out = []
    for subst in substitutions(_first_occurrence_vars(rule.body), sorted(set(consts))):
        body = instantiate(rule.body, subst)
        head = canonical_atom(apply_mapping(subst, rule.head))
        if not keyed or is_new(_tagged_atoms(body, head), codes, seen):
            out.append((body, head))
    return out


def rewrite_ontology(db, onto) -> Ontology:
    consts = sorted(constants_of(db, onto))
    out = []
    for rule in onto:
        for i, (body, head) in enumerate(rewritten_rules(rule, consts), 1):
            if head not in body:
                out.append(Rule(f"{rule.id}.{i}", body, head))
    return Ontology(tuple(out))


def rewrite_query(q: Query, consts) -> Query:
    constants = sorted(set(consts))
    disjuncts = []
    codes: dict = {}
    seen: set = set()
    for disjunct in q.disjuncts:
        keyed = len(q.disjuncts) > 1 or _repeats_a_predicate(disjunct)
        for subst in substitutions(_first_occurrence_vars(disjunct), constants):
            atoms = instantiate(disjunct, subst)
            if not keyed or is_new(atoms, codes, seen):
                disjuncts.append(atoms)
    return Query(tuple(disjuncts))


def rewrite_theory(db, onto, queries=()):
    consts = sorted(constants_of(db, onto))
    return (rewrite_database(db), rewrite_ontology(db, onto),
            tuple(rewrite_query(q, consts) for q in queries))
