"""Checks that share no code with the search they verify.

Everything here works on plain tuples: a term is ("c", name), ("n", id),
("v", name) or ("sp", term, atom_index, position) for a repair's starting
point, and an atom is (predicate, shape, args) with shape None or a tuple.
Matching is a naive nested-loop join in body order, unlike the indexed,
most-constrained-first search in `shychase.hom`.
"""

from __future__ import annotations

_TERM_KINDS = {"const": "c", "null": "n", "var": "v"}


def term_from_json(obj):
    if "sp" in obj:
        inner, atom_index, position = obj["sp"]
        return ("sp", term_from_json(inner), atom_index, position)
    (kind, value), = obj.items()
    return (_TERM_KINDS[kind], value)


def atom_from_json(obj) -> tuple:
    shape = tuple(obj["shape"]) if "shape" in obj else None
    return (obj["pred"], shape, tuple(term_from_json(t) for t in obj["args"]))


def plain_term(t, core):
    if isinstance(t, core.Constant):
        return ("c", t.name)
    if isinstance(t, core.Null):
        return ("n", t.id)
    if isinstance(t, core.Variable):
        return ("v", t.name)
    raise TypeError(f"unexpected term {t!r}")


def plain_atom(a, core) -> tuple:
    return (a.pred, a.shape, tuple(plain_term(t, core) for t in a.args))


def plain_theory(database, ontology, core):
    """(database atoms, [(body, head)]) as plain tuples."""
    db = {plain_atom(a, core) for a in database}
    rules = [(tuple(plain_atom(a, core) for a in r.body), plain_atom(r.head, core))
             for r in ontology]
    return db, rules


def _index(instance) -> dict:
    idx: dict = {}
    for atom in instance:
        idx.setdefault((atom[0], atom[1], len(atom[2])), []).append(atom)
    return idx


def _unify(pattern, fact, binding):
    out = dict(binding)
    for p, f in zip(pattern, fact):
        if p[0] == "v":
            if out.setdefault(p, f) != f:
                return None
        elif p != f:
            return None
    return out


def matches(pattern_atoms, idx: dict, binding: dict):
    """Every extension of binding that maps all pattern atoms into the instance."""
    if not pattern_atoms:
        yield binding
        return
    first, rest = pattern_atoms[0], pattern_atoms[1:]
    for fact in idx.get((first[0], first[1], len(first[2])), ()):
        ext = _unify(first[2], fact[2], binding)
        if ext is not None:
            yield from matches(rest, idx, ext)


def is_model(instance: set, database: set, rules) -> bool:
    """The instance contains the database and satisfies every rule."""
    if not database <= instance:
        return False
    idx = _index(instance)
    for body, head in rules:
        for binding in matches(body, idx, {}):
            if next(matches((head,), idx, binding), None) is None:
                return False
    return True


def satisfies(instance: set, disjuncts) -> bool:
    """Some disjunct (a tuple of atoms) maps into the instance."""
    idx = _index(instance)
    return any(next(matches(tuple(d), idx, {}), None) is not None for d in disjuncts)


def substitute(atom: tuple, mapping: dict) -> tuple:
    return (atom[0], atom[1], tuple(mapping.get(t, t) for t in atom[2]))
