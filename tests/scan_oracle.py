"""The all-rules scans that `finitemodels` replaced by rules filed by key,
kept as oracles for them.

`added` is the index update that `hom._add` replaced: it grows a copy of
the index and leaves the one it is given as it was.  `keyed_rules` builds
each rule's entry at once: its head and body keys, its existential
variables sorted and its head's frontier.  `add_atom` visits
every rule for each added atom, and `supports` every rule for each atom the
support walk tries; `placements` is that walk.  The results, tables and
steps are those `finitemodels` must give."""

from bisect import insort

from shychase.finitemodels import SupportStep
from shychase.hom import _key, _mapping_key, _match, _search, _violations


def added(idx: dict, atom) -> dict:
    """A copy of the index with atom inserted in order into its lists; idx
    itself is left unchanged, so a caller may keep it."""
    k = _key(atom)
    idx = dict(idx)
    for key in [k, *[(k, i, t) for i, t in enumerate(atom.args)]]:
        lst = idx[key] = list(idx.get(key, ()))
        insort(lst, atom)
    return idx


def keyed_rules(onto) -> list:
    """The rules by id, each as (rule, `_key` of its head, of its body
    atoms, its existential variables sorted, the head's frontier: its
    non-existential arguments)."""
    return [(r, _key(r.head), tuple(map(_key, r.body)), sorted(r.ev),
             tuple(t for t in r.head.args if t not in r.ev))
            for r in sorted(onto, key=lambda r: r.id)]


def add_atom(idx: dict, table: tuple, rules: list, a) -> tuple:
    """(index, violation table) of an instance plus an atom a it lacks:
    one dict per rule, from `_mapping_key` to body map, of its violations."""
    pk = _key(a)
    idx = added(idx, a)
    out = []
    for (rule, head_key, body_keys, _, _), viols in zip(rules, table):
        if viols and head_key == pk:
            viols = {k: h for k, h in viols.items() if _match(rule.head, a, h) is None}
        if pk in body_keys:
            for i, b in enumerate(rule.body):
                seed = _match(b, a, {}) if body_keys[i] == pk else None
                if seed is None:
                    continue
                rest = rule.body[:i] + rule.body[i + 1:]
                maps = _search(rest, seed, idx)
                new = {_mapping_key(rule, h): h for h in _violations(rule, idx, maps)}
                if new:
                    viols = {**viols, **new}
        out.append(viols)
    return idx, tuple(out)


def least_violation(rules: list, table: tuple):
    """(rule, body map) of the first rule with a violation, with its least
    body map under `_mapping_key`; or None."""
    for entry, viols in zip(rules, table):
        if viols:
            return entry[0], viols[min(viols)]
    return None


def atoms_needed(rules: list, table: tuple, lacking: dict) -> int:
    """Per head key, the larger of the certain atoms lacked there and the
    most distinct frontier images among one rule's violations, summed."""
    most = dict(lacking)
    for (_, head_key, _, _, frontier), viols in zip(rules, table):
        if viols:
            images = len({tuple(h.get(t, t) for t in frontier) for h in viols.values()})
            most[head_key] = max(most.get(head_key, 0), images)
    return sum(most.values())


def supports(rules: list, atom, idx: dict):
    """Each (rule, map) of the rules, in order, whose head maps exactly onto
    atom and whose body maps into the instance indexed in idx."""
    key = _key(atom)
    for rule in rules:
        if _key(rule.head) != key:
            continue
        seed = _match(rule.head, atom, {})
        if seed is not None:
            for h in _search(rule.body, seed, idx):
                yield rule, h


def placements(atoms: list, db, onto):
    """The support walk: each step places the first unplaced atom that is a
    database atom or has a support in the atoms placed before it, taking
    the first support by rule id, until no atom has one."""
    remaining = list(atoms)
    db_atoms = set(db.atoms)
    rules = sorted(onto, key=lambda r: r.id)
    idx: dict = {}
    while True:
        for i, atom in enumerate(remaining):
            if atom in db_atoms:
                step = SupportStep(atom, None)
                break
            support = next(supports(rules, atom, idx), None)
            if support is not None:
                step = SupportStep(atom, support[0].id, support[1])
                break
        else:
            return
        yield step
        del remaining[i]
        idx = added(idx, atom)
