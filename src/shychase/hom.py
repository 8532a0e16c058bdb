"""Homomorphism search, query satisfaction, and isomorphism modulo null or
variable renaming through one canonical key.  `_violations`, the one
trigger routine, keeps the body maps it is given that have no head
extension: model checks feed it `_search`'s, the model search those of
`_using`, the one delta join (the body maps that use a given atom), and
the restricted chase one trigger at a time.  They all search an index
that `_index` builds and `_add` grows in place, the one index update,
which `_drop` undoes.  It files each atom under its predicate and under
each (predicate, position, term), so a join scans only the atoms that
agree.  At every depth the search matches the atom with the shortest
candidate list on demand, so a head check stops at its first witness, and
`_match` reads fields by position, or `_planned` by getters compiled once."""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import chain, permutations, product
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from .core import Atom, Constant, Query, Rule, _atom, _key, _Record


def apply_mapping(mapping: dict, atom: Atom) -> Atom:
    return _atom(atom.pred, tuple(mapping.get(t, t) for t in atom.args), atom.shape)


def _index(atoms: Iterable[Atom]) -> dict:
    """The atoms by `_key` k and by (k, position, term), each list in the
    atoms' own order, which within one key is `Atom.sort_key` order."""
    idx: dict = {}
    for a in atoms:
        k = _key(a)
        idx.setdefault(k, []).append(a)
        for i, t in enumerate(a.args):
            idx.setdefault((k, i, t), []).append(a)
    for lst in idx.values():
        lst.sort()
    return idx


def _add(idx: dict, atom: Atom) -> None:
    """Insert atom in order into its lists in idx, in place, making any missing."""
    k = _key(atom)
    insort(idx.setdefault(k, []), atom)
    for i, t in enumerate(atom[1]):
        insort(idx.setdefault((k, i, t), []), atom)


def _drop(idx: dict, atom: Atom) -> None:
    """Remove atom, which idx holds, from its lists in place, in any order
    of drops: every list stays sorted and none is left empty."""
    k = _key(atom)
    for key in (k, *[(k, i, t) for i, t in enumerate(atom[1])]):
        lst = idx[key]
        if len(lst) > 1:
            del lst[bisect_left(lst, atom)]
        else:
            del idx[key]


def _match(src: Atom, tgt: Atom, mapping: dict) -> Optional[dict]:
    """Extend mapping so that src maps onto tgt, or None; reads fields by position."""
    ext = mapping
    for s, t in zip(src[1], tgt[1]):
        if s[0] == 0:
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


def _candidates(atom: Atom, mapping: dict, idx: dict):
    """The shortest of atom's predicate list in idx and its lists filed
    under bound positions (constants and terms that mapping binds)."""
    k = _key(atom)
    candidates = idx.get(k, ())
    for pos, t in enumerate(atom[1]):
        t = t if t[0] == 0 else mapping.get(t)
        if t is not None:
            filed = idx.get((k, pos, t), ())
            if len(filed) < len(candidates):
                candidates = filed
    return candidates


def _search(remaining: list, mapping: dict, idx: dict) -> Iterator[dict]:
    """Homomorphisms of the atoms `remaining` into the instance indexed by
    `idx` (see `_index`) extending `mapping`.

    Backtracking search, one loop at every depth: it matches, in index
    order, the `_candidates` list of the remaining atom whose list is
    shortest, the earliest on a tie, by `_planned` if it holds `_PLAN_MIN`
    atoms or more and else by `_match`, and passes each extension on as it
    is found, to the next depth or, with no atom left, out; so a caller that
    takes only the first map stops there.  Callers that search one instance
    many times build its index once and call this directly.
    """
    if not remaining:
        yield mapping
        return
    atom, rest, best_i = remaining[0], None, 0
    best = _candidates(atom, mapping, idx)
    if len(remaining) > 1:  # with one atom left: nothing to choose, no slice to build
        for i in range(1, len(remaining)):
            if not best:
                return
            candidates = _candidates(remaining[i], mapping, idx)
            if len(candidates) < len(best):
                best_i, best = i, candidates
        atom, rest = remaining[best_i], remaining[:best_i] + remaining[best_i + 1:]
    if len(best) >= _PLAN_MIN:
        for ext in _planned(atom, best, mapping):
            if rest is None:
                yield ext
            else:
                yield from _search(rest, ext, idx)
        return
    for tgt in best:
        ext = _match(atom, tgt, mapping)
        if ext is not None:
            if rest is None:
                yield ext
            else:
                yield from _search(rest, ext, idx)


_PLAN_MIN = 8  # the shortest candidate list that `_search` matches by `_planned`


def _planned(src: Atom, candidates, mapping: dict) -> Iterator[dict]:
    """The maps `_match` finds for src over candidates, in its order and
    with its key order, by a plan compiled once: a getter and a compare
    test the positions of fixed terms (constants and terms mapping binds),
    position pairs a repeated unbound term, and a getter over the unbound
    terms' first positions binds them in a copy of mapping."""
    fixed, wanted, first, pairs = [], [], {}, []
    for i, s in enumerate(src[1]):
        t = s if s[0] == 0 else mapping.get(s)
        if t is not None:
            fixed.append(i)
            wanted.append(t)
        elif first.setdefault(s, i) != i:
            pairs.append((first[s], i))
    check = itemgetter(*fixed) if fixed else None
    wanted = wanted[0] if len(wanted) == 1 else tuple(wanted)
    names, bind = tuple(first), itemgetter(*first.values()) if first else None
    one = names[0] if len(names) == 1 else None
    for tgt in candidates:
        args = tgt[1]
        if (check is not None and check(args) != wanted
                or pairs and any(args[i] != args[j] for i, j in pairs)):
            continue
        ext = mapping.copy()
        if one is not None:
            ext[one] = bind(args)
        elif names:
            ext.update(zip(names, bind(args)))
        yield ext


def _violations(rule: Rule, idx: dict, maps: Iterable[dict]) -> Iterator[dict]:
    """The maps, of the rule's body into the indexed instance, that have no
    head extension there."""
    for h in maps:
        if next(_search([rule.head], h, idx), None) is None:
            yield h


def _using(body: tuple, atom: Atom, idx: dict) -> Iterator[dict]:
    """The delta join: each map of the atoms `body` into the indexed
    instance, which holds atom, that sends some body atom onto atom, once,
    from the first body position it sends there.  Complete: a map found
    from position j sends a least position i onto atom, and the search
    from i, which extends the match of i, finds it and keeps it."""
    pred, args, shape = atom
    earlier = []  # the body atoms before j that have atom's `_key`
    for j, b in enumerate(body):
        if b[0] == pred and b[2] == shape and len(b[1]) == len(args):
            seed = _match(b, atom, {})
            if seed is not None:
                for h in _search(body[:j] + body[j + 1:], seed, idx):
                    if not earlier or all(apply_mapping(h, c) != atom for c in earlier):
                        yield h
            earlier.append(b)


def _mapping_key(rule: Rule, h: dict):
    """Sort key of a map of the rule's body: its images of the body
    variables in name order, read by the rule's one `Rule.map_key`
    getter; `()` for a body without variables, and with one variable its
    image itself, not a 1-tuple, which orders and compares one rule's maps
    as the 1-tuple would.  Two such maps get equal keys exactly when they
    are equal."""
    return rule.map_key(h)


def homomorphisms(src, target, seed: Optional[dict] = None) -> Iterator[dict]:
    """All homomorphisms from the atom set `src` into `target` extending `seed`.

    Indexes `target` with `_index` and runs `_search`.
    """
    yield from _search(list(src), dict(seed) if seed else {}, _index(target))


class Witness(_Record):
    __slots__ = ()
    _fields = ("disjunct", "mapping")  # disjunct: 0-based index into the query's disjuncts

    def __new__(cls, disjunct: int, mapping: dict):
        return tuple.__new__(cls, (disjunct, mapping))


def satisfies_query(inst, q: Query) -> Optional[Witness]:
    """Witness for the first satisfied disjunct, or None; one index serves all."""
    return _satisfied(q, _index(inst))


def _satisfied(q: Query, idx: dict) -> Optional[Witness]:
    """`satisfies_query` on the instance indexed by idx."""
    for j, disjunct in enumerate(q.disjuncts):
        h = next(_search(list(disjunct), {}, idx), None)
        if h is not None:
            return Witness(j, h)
    return None


def isomorphic(a, b) -> bool:
    """True iff a bijective renaming of nulls/variables maps atom set a onto b,
    nulls onto nulls and variables onto variables.

    Compares the two sets' `_canonical_key`s under one `codes`.  The cost is
    exponential in the size of the largest class of same-signature terms, so
    it suits rules, queries and small models, not large symmetric instances.
    """
    codes: dict = {}
    keys = []
    for atoms in (set(a), set(b)):
        plain, coded = _split(atoms, codes)
        # `_atom_code` numbers nulls and variables alike: one marker atom per
        # variable keeps a renaming from carrying a variable onto a null
        coded += [(codes.setdefault("variable", len(codes)), -3 - codes[v])
                  for v in {v for x in atoms for v in x.variables()}]
        keys.append(_canonical_key(frozenset(plain), tuple(coded)))
    return keys[0] == keys[1]


def _atom_code(a: Atom, codes: dict):
    """a as a tuple of integers, or False if every argument is a constant.

    `codes` interns predicates and terms as integers and caches each atom's
    result.  The tuple holds the predicate's number, then per argument 2i
    for a constant numbered i and -3 - i for a null or variable numbered i.
    An instance has no variables and rules and queries have no nulls;
    `isomorphic`, which takes both kinds, marks the variables apart."""
    code = codes.get(a)
    if code is None:
        code = False
        if not all(isinstance(t, Constant) for t in a.args):
            code = (codes.setdefault(a.pred_key, len(codes)),
                    *(2 * codes.setdefault(t, len(codes)) if isinstance(t, Constant)
                      else -3 - codes.setdefault(t, len(codes)) for t in a.args))
        codes[a] = code
    return code


def _split(atoms: Iterable[Atom], codes: dict) -> tuple:
    """(constant-only atoms, codes of the others); see `_atom_code`."""
    plain, coded = [], []
    for a in atoms:
        code = _atom_code(a, codes)
        if code:
            coded.append(code)
        else:
            plain.append(a)
    return plain, coded


def _canonical_key(plain: frozenset, coded: tuple) -> tuple:
    """Canonical key of an atom set given by `_split`: two sets get equal
    keys exactly when a bijective renaming of nulls or variables carries
    one onto the other, provided both were coded with the same `codes`.

    The constant-only atoms go in as they are.  The others go in as the
    sorted tuple of their codes with the renamable terms numbered 1, 3, 5,
    ... (constants are even), minimised over the numberings of those
    terms.  Only numberings that number them class by class are tried: a
    class holds the terms with one signature (the codes of the atoms that
    hold the term, with it as -1 and other renamable terms as -2), and
    classes go in signature order.  A renaming keeps signatures, so
    isomorphic sets try the same candidates.
    """
    renamable = {t for code in coded for t in code if t < -2}
    classes: dict = {}
    for n in renamable:
        sig = () if len(renamable) == 1 else tuple(sorted(
            tuple(-1 if t == n else -2 if t < -2 else t for t in code)
            for code in coded if n in code))
        classes.setdefault(sig, []).append(n)
    best = None
    for order in product(*(permutations(classes[sig]) for sig in sorted(classes))):
        number = {n: 2 * j + 1 for j, n in enumerate(chain.from_iterable(order))}
        candidate = tuple(sorted(tuple(number.get(t, t) for t in code) for code in coded))
        if best is None or candidate < best:
            best = candidate
    return plain, best


def _is_new_key(plain, coded, seen: set) -> bool:
    """Record the `_canonical_key` of an atom set given by `_split` in seen,
    unless a renaming of the set is there already; calls that share seen
    must share the `codes` of their `_split`."""
    key = _canonical_key(frozenset(plain), tuple(coded))
    if key in seen:
        return False
    seen.add(key)
    return True
