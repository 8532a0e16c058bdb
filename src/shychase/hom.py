"""Homomorphism search, query satisfaction, and isomorphism modulo null renaming."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .core import Atom, Constant, Instance, Query, Variable


def apply_mapping(mapping: dict, atom: Atom) -> Atom:
    return Atom(atom.pred, tuple(mapping.get(t, t) for t in atom.args), atom.shape)


def _index(atoms: Iterable[Atom]) -> dict:
    idx: dict = {}
    for a in atoms:
        idx.setdefault((a.pred_key, a.arity), []).append(a)
    for lst in idx.values():
        lst.sort(key=Atom.sort_key)
    return idx


def _match(src: Atom, tgt: Atom, mapping: dict) -> Optional[dict]:
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


def _search(remaining: list, mapping: dict, idx: dict) -> Iterator[dict]:
    """Homomorphisms of the atoms `remaining` into the instance indexed by
    `idx` (see `_index`) extending `mapping`.

    Backtracking search, most-constrained-atom-first; candidate order is
    the index order, so enumeration is deterministic.  Callers that search
    one instance many times build its index once and call this directly.
    """
    if not remaining:
        yield mapping
        return
    # pick the atom with the fewest extensions under the current mapping
    best_i, best_exts = None, None
    for i, atom in enumerate(remaining):
        exts = []
        for tgt in idx.get((atom.pred_key, atom.arity), ()):
            ext = _match(atom, tgt, mapping)
            if ext is not None:
                exts.append(ext)
        if best_exts is None or len(exts) < len(best_exts):
            best_i, best_exts = i, exts
            if not exts:
                return
    rest = remaining[:best_i] + remaining[best_i + 1:]
    for ext in best_exts:
        yield from _search(rest, ext, idx)


def homomorphisms(src, target, seed: Optional[dict] = None) -> Iterator[dict]:
    """All homomorphisms from the atom set `src` into `target` extending `seed`.

    Indexes `target` by predicate, in lexicographic order, and runs `_search`.
    """
    if isinstance(target, Instance):
        target = target.atoms
    yield from _search(list(src), dict(seed) if seed else {}, _index(target))


def find_homomorphism(src, target, seed: Optional[dict] = None) -> Optional[dict]:
    """First homomorphism from src into target extending seed, or None."""
    for h in homomorphisms(src, target, seed):
        return h
    return None


@dataclass(frozen=True)
class Witness:
    disjunct: int  # 0-based index into the query's disjuncts
    mapping: dict

    def __iter__(self):
        return iter((self.disjunct, self.mapping))


def satisfies_query(inst, q: Query) -> Optional[Witness]:
    """Witness for the first satisfied disjunct, or None."""
    for j, disjunct in enumerate(q.disjuncts):
        h = find_homomorphism(disjunct, inst)
        if h is not None:
            return Witness(j, h)
    return None


def _color_step(atoms: set, colors: dict, intern: dict) -> dict:
    sigs = {}
    for x in atoms:
        for i, t in enumerate(x.args):
            if isinstance(t, Constant):
                continue
            ctx = tuple(
                ("const", repr(v)) if isinstance(v, Constant) else ("term", colors[v])
                for v in x.args
            )
            sigs.setdefault(t, []).append((x.pred, repr(x.shape), i, ctx))
    return {
        t: intern.setdefault((isinstance(t, Variable), tuple(sorted(occ))),
                             len(intern))
        for t, occ in sigs.items()
    }


def _joint_colors(a: set, b: set):
    """Structural colors (Weisfeiler-Lehman style) for the non-constant terms
    of both atom sets, refined in lockstep through a shared intern table so
    equal colors mean structurally indistinguishable terms across the sets.
    Terms with different colors cannot correspond under any isomorphism."""
    intern: dict = {}
    ca = {t: 0 for x in a for t in x.args if not isinstance(t, Constant)}
    cb = {t: 0 for x in b for t in x.args if not isinstance(t, Constant)}
    for _ in range(max(1, len(ca), len(cb))):
        na = _color_step(a, ca, intern)
        nb = _color_step(b, cb, intern)
        stable = (len(set(na.values())) == len(set(ca.values()))
                  and len(set(nb.values())) == len(set(cb.values())))
        ca, cb = na, nb
        if stable:
            break
    return ca, cb


def iso_invariant(atoms) -> tuple:
    """Sorted (predicate, shape) multiset of an atom set: equal for any two
    sets that are isomorphic modulo null and variable renaming."""
    return tuple(sorted(x.sort_key()[:2] for x in atoms))


def isomorphic(a, b) -> bool:
    """True iff a bijective renaming of nulls/variables maps atom set a onto b."""
    if isinstance(a, Instance):
        a = a.atoms
    if isinstance(b, Instance):
        b = b.atoms
    a, b = set(a), set(b)
    if len(a) != len(b) or iso_invariant(a) != iso_invariant(b):
        return False

    color_a, color_b = _joint_colors(a, b)
    if sorted(color_a.values()) != sorted(color_b.values()):
        return False

    idx = _index(b)
    pool = sorted(a, key=Atom.sort_key)

    def extend(src: Atom, tgt: Atom, fwd: dict, used: set):
        local: dict = {}
        for s, t in zip(src.args, tgt.args):
            if isinstance(s, Constant):
                if s != t:
                    return None
            elif s in fwd:
                if fwd[s] != t:
                    return None
            elif s in local:
                if local[s] != t:
                    return None
            else:
                if t in used or isinstance(t, Constant) or isinstance(t, Variable) != isinstance(s, Variable):
                    return None
                if color_a[s] != color_b[t] or t in local.values():
                    return None
                local[s] = t
        return list(local.items())

    # the partial renaming, the targets it uses, and the atoms it covers
    fwd: dict = {}
    used: set = set()
    taken: set = set()

    # prefer atoms whose terms are already pinned down, then scarce predicates
    def rank(item):
        _, src = item
        bound = sum(1 for t in src.args if isinstance(t, Constant) or t in fwd)
        return (-bound, len(idx.get((src.pred_key, src.arity), ())), src.sort_key())

    def place(frame) -> bool:
        """Undo the frame's atom's current target and map it onto the next
        one that fits; False when none is left."""
        src, _, targets, placed = frame
        if placed:
            tgt, new = placed.pop()
            taken.discard(tgt)
            for s, t in new:
                del fwd[s]
                used.discard(t)
        for tgt in targets:
            if tgt in taken:
                continue
            new = extend(src, tgt, fwd, used)
            if new is None:
                continue
            for s, t in new:
                fwd[s] = t
                used.add(t)
            taken.add(tgt)
            placed.append((tgt, new))
            return True
        return False

    # depth-first search on an explicit stack: one frame per mapped atom, as
    # (atom, atoms left after it, its remaining targets, its current target)
    stack: list = []
    remaining = pool
    while remaining:
        i, src = min(enumerate(remaining), key=rank)
        stack.append((src, remaining[:i] + remaining[i + 1:],
                      iter(idx.get((src.pred_key, src.arity), ())), []))
        while stack and not place(stack[-1]):
            stack.pop()
        if not stack:
            return False
        remaining = stack[-1][1]
    return True
