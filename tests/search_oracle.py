"""The predicate-scan homomorphism searches, kept as reference oracles for
`hom._search`.  Both try every atom of a predicate's list for each atom of
the pattern.  `search` picks the atom with the fewest extensions and is
the reference for which maps exist; `search_shortest` picks the atom with
the fewest candidates, as `hom._search` does from its filed lists, and is
the reference for their order.  They share no code with `hom`: `match`
is `hom._match` as it read fields by name, and `index` builds a
predicate-only index keyed as `hom._index` keys its lists."""

from shychase.core import Constant


def key(atom) -> tuple:
    """The key of atom's list in `index` and in `hom._index`."""
    return atom.pred_key, atom.arity


def index(atoms) -> dict:
    """The atoms by `key`, each list in `Atom.sort_key` order."""
    idx: dict = {}
    for a in atoms:
        idx.setdefault(key(a), []).append(a)
    for lst in idx.values():
        lst.sort()
    return idx


def match(src, tgt, mapping: dict):
    """Extend mapping so that src maps onto tgt, or None."""
    ext = mapping
    for s, t in zip(src.args, tgt.args):
        if isinstance(s, Constant):
            if s != t:
                return None
            continue
        bound = ext.get(s)
        if bound is None:
            if ext is mapping:
                ext = dict(mapping)
            ext[s] = t
        elif bound != t:
            return None
    return dict(ext) if ext is mapping else ext


def search(remaining: list, mapping: dict, idx: dict):
    """Homomorphisms of the atoms `remaining` into the instance indexed by
    idx extending mapping: backtracking, most-constrained atom first, each
    atom's candidates in its predicate list's order."""
    if not remaining:
        yield mapping
        return
    best_i, best_exts = None, None
    for i, atom in enumerate(remaining):
        exts = []
        for tgt in idx.get(key(atom), ()):
            ext = match(atom, tgt, mapping)
            if ext is not None:
                exts.append(ext)
        if best_exts is None or len(exts) < len(best_exts):
            best_i, best_exts = i, exts
            if not exts:
                return
    rest = remaining[:best_i] + remaining[best_i + 1:]
    for ext in best_exts:
        yield from search(rest, ext, idx)


def count(atom, mapping: dict, idx: dict) -> int:
    """How many candidates `search_shortest` counts for atom: its predicate
    list's length or, if smaller, the number of that list's atoms that hold
    the bound term (a constant, or a term that mapping binds) at one of
    atom's bound positions, the least over those positions."""
    atoms = idx.get(key(atom), ())
    least = len(atoms)
    for i, t in enumerate(atom.args):
        bound = t if isinstance(t, Constant) else mapping.get(t)
        if bound is not None:
            least = min(least, sum(1 for a in atoms if a.args[i] == bound))
    return least


def search_shortest(remaining: list, mapping: dict, idx: dict):
    """Homomorphisms of the atoms `remaining` into the instance indexed by
    idx extending mapping: backtracking, the first atom with the least
    `count` first, its candidates in its predicate list's order."""
    if not remaining:
        yield mapping
        return
    counts = [count(atom, mapping, idx) for atom in remaining]
    best_i = counts.index(min(counts))
    atom, rest = remaining[best_i], remaining[:best_i] + remaining[best_i + 1:]
    for tgt in idx.get(key(atom), ()):
        ext = match(atom, tgt, mapping)
        if ext is not None:
            yield from search_shortest(rest, ext, idx)
