"""The predicate-scan homomorphism search, kept as the reference oracle for
`hom._search`.  It tries every atom of a predicate's list for each atom of
the pattern; `hom._search` takes a bound position's filed list instead and
must yield the same maps in the same order."""

from shychase.hom import _key, _match


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
        for tgt in idx.get(_key(atom), ()):
            ext = _match(atom, tgt, mapping)
            if ext is not None:
                exts.append(ext)
        if best_exts is None or len(exts) < len(best_exts):
            best_i, best_exts = i, exts
            if not exts:
                return
    rest = remaining[:best_i] + remaining[best_i + 1:]
    for ext in best_exts:
        yield from search(rest, ext, idx)
