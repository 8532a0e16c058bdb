"""Oblivious and restricted chase with breadth-first scheduling and resource bounds."""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Optional

from .core import Atom, Database, Instance, NullFactory, Ontology, Query, _Record
from .hom import (Witness, _add, _index, _mapping_key, _satisfied, _search, _violations,
                  apply_mapping)

OBLIVIOUS = "oblivious"
RESTRICTED = "restricted"


class ChaseConfig(_Record):
    __slots__ = ()
    _fields = ("mode", "max_atoms", "max_rounds")

    def __new__(cls, mode: str = OBLIVIOUS, max_atoms: int = 1000, max_rounds: int = 1000):
        if mode not in (OBLIVIOUS, RESTRICTED):
            raise ValueError(f"unknown chase mode {mode!r}")
        if max_atoms <= 0 or max_rounds <= 0:
            raise ValueError("chase bounds must be positive")
        return tuple.__new__(cls, (mode, max_atoms, max_rounds))


class ChaseStep(_Record):
    __slots__ = ()
    _fields = ("rule_id", "mapping", "produced", "round")

    def __new__(cls, rule_id: str, mapping: dict, produced: Atom, round: int):
        return tuple.__new__(cls, (rule_id, mapping, produced, round))


class ChaseResult(_Record):
    """complete_rounds counts the rounds fully processed before any bound
    tripped."""

    __slots__ = ()
    _fields = ("instance", "terminated", "rounds", "steps", "complete_rounds")

    def __new__(cls, instance: Instance, terminated: bool, rounds: int, steps: tuple,
                complete_rounds: int = 0):
        return tuple.__new__(cls, (instance, terminated, rounds, steps, complete_rounds))

    @property
    def stop_reason(self) -> str:
        """What ended the chase: "fixpoint", or the bound that tripped,
        "max_atoms" (inside a round) or "max_rounds"."""
        if self.terminated:
            return "fixpoint"
        return "max_atoms" if self.complete_rounds < self.rounds else "max_rounds"

    def prefix_at_round(self, r: int) -> Instance:
        """Instance after round r (round 0 is the database)."""
        produced = {s.produced for s in self.steps}
        atoms = self.instance.atoms - produced
        atoms |= {s.produced for s in self.steps if s.round <= r}
        return Instance(frozenset(atoms))


def applicable_steps(onto: Ontology, idx: dict, fired: set, mode: str) -> list:
    """(trigger, rule, body homomorphism) triples not yet fired, in
    deterministic order: rules in program order, each rule's matches by
    `_mapping_key`.  A trigger is named (the rule's position in onto,
    `_mapping_key` of the match); a match binds exactly the body's
    variables, so two matches of one rule share a name exactly when their
    body images are equal, and matches of two rules never do.

    idx indexes the instance (see `hom._index`).  Fired triggers are
    dropped before the sort, so a round sorts only its new ones.  In
    restricted mode, a trigger is kept only if `_violations` finds no head
    extension for it.
    """
    out = []
    for i, rule in enumerate(onto):
        new = []
        for h in _search(rule.body, {}, idx):
            key = _mapping_key(rule, h)
            if (i, key) not in fired:
                new.append((key, h))
        new.sort()
        for key, h in new:
            if mode == RESTRICTED and next(_violations(rule, idx, (h,)), None) is None:
                continue
            out.append(((i, key), rule, h))
    return out


def run_chase(db: Database, onto: Ontology, cfg: ChaseConfig) -> ChaseResult:
    """Breadth-first chase; deterministic for a fixed input ordering.

    Within a round, rules fire in program order and homomorphisms in
    lexicographic witness order; every step draws fresh nulls from one
    monotone counter.  Hitting a bound is not an error: the result simply
    carries terminated=False.
    """
    atoms = set(db.atoms)
    idx = _index(atoms)
    fired: set = set()
    steps: list = []
    nulls = NullFactory()
    rounds = 0
    truncated = False
    while not truncated:
        pending = applicable_steps(onto, idx, fired, cfg.mode)
        # at the round bound the chase has terminated only if nothing is pending
        if not pending or rounds == cfg.max_rounds:
            break
        rounds += 1
        for trigger, rule, h in pending:
            fired.add(trigger)
            # an atom produced earlier in the round may satisfy the head now
            if cfg.mode == RESTRICTED and next(_violations(rule, idx, (h,)), None) is None:
                continue
            full = dict(h)
            for v in rule.ev_sorted:
                full[v] = nulls.fresh()
            produced = apply_mapping(full, rule.head)
            if produced in atoms:
                continue
            if len(atoms) >= cfg.max_atoms:
                truncated = True
                break
            atoms.add(produced)
            _add(idx, produced)
            steps.append(ChaseStep(rule.id, full, produced, rounds))
    complete = rounds - 1 if truncated else rounds
    return ChaseResult(Instance(frozenset(atoms)), not pending, rounds, tuple(steps), complete)


class Verdict(Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


class Entailment(_Record):
    __slots__ = ()
    _fields = ("verdict", "witness", "chase")

    def __new__(cls, verdict: Verdict, witness: Optional[Witness] = None,
                chase: Optional[ChaseResult] = None):
        return tuple.__new__(cls, (verdict, witness, chase))

    def __bool__(self):
        return self.verdict is Verdict.TRUE


def entails(db: Database, onto: Ontology, q: Query, cfg: ChaseConfig) -> Entailment:
    """Three-valued entailment: True with witness, False only on a finished chase."""
    return entailment_in(run_chase(db, onto, cfg), q)


def entailment_in(result: ChaseResult, q: Query) -> Entailment:
    """The verdict of `entails` for q, read off a chase already run; one
    chase thus answers any number of queries (see `entailments_in`)."""
    return entailments_in(result, (q,))[0]


def entailments_in(result: ChaseResult, queries: Iterable[Query]) -> list:
    """`entailment_in` for each query, all read off one index of the chase."""
    idx = _index(result.instance)
    unproved = Verdict.FALSE if result.terminated else Verdict.UNKNOWN
    return [Entailment(unproved if w is None else Verdict.TRUE, w, result)
            for w in (_satisfied(q, idx) for q in queries)]
