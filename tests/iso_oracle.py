"""The colour-refinement isomorphism search, kept as the reference oracle
for `hom.isomorphic`, `hom._canonical_key` and the harness's round-by-round
chase comparison.  It scales to large symmetric sets of nulls, where the
canonical key does not."""

from shychase.core import Atom, Constant, Instance, Variable
from shychase.hom import _index, _key


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


def isomorphic(a, b) -> bool:
    """True iff a bijective renaming of nulls/variables maps atom set a onto b."""
    if isinstance(a, Instance):
        a = a.atoms
    if isinstance(b, Instance):
        b = b.atoms
    a, b = set(a), set(b)
    if len(a) != len(b) or (sorted(x.sort_key()[:2] for x in a)
                            != sorted(x.sort_key()[:2] for x in b)):
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

    # prefer atoms whose terms are already pinned down, then scarce predicates;
    # `min` keeps the first of equal ranks, so ties go by `pool`'s sort order
    def rank(item):
        _, src = item
        bound = sum(1 for t in src.args if isinstance(t, Constant) or t in fwd)
        return (-bound, len(idx.get(_key(src), ())))

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
                      iter(idx.get(_key(src), ())), []))
        while stack and not place(stack[-1]):
            stack.pop()
        if not stack:
            return False
        remaining = stack[-1][1]
    return True
