"""Oblivious and restricted chase with breadth-first scheduling and resource bounds."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .core import (Atom, Database, Instance, NullFactory, Ontology, Query,
                   Rule, term_key)
from .hom import Witness, apply_mapping, find_homomorphism, homomorphisms, satisfies_query

OBLIVIOUS = "oblivious"
RESTRICTED = "restricted"


@dataclass(frozen=True)
class ChaseConfig:
    mode: str = OBLIVIOUS
    max_atoms: int = 1000
    max_rounds: int = 1000

    def __post_init__(self):
        if self.mode not in (OBLIVIOUS, RESTRICTED):
            raise ValueError(f"unknown chase mode {self.mode!r}")
        if self.max_atoms <= 0 or self.max_rounds <= 0:
            raise ValueError("chase bounds must be positive")


@dataclass(frozen=True)
class ChaseStep:
    rule_id: str
    mapping: dict
    produced: Atom
    round: int


@dataclass(frozen=True)
class ChaseResult:
    instance: Instance
    terminated: bool
    rounds: int
    steps: tuple
    complete_rounds: int = 0  # rounds fully processed before any bound tripped

    def prefix_at_round(self, r: int) -> Instance:
        """Instance after round r (round 0 is the database)."""
        produced = {s.produced for s in self.steps}
        atoms = self.instance.atoms - produced
        atoms |= {s.produced for s in self.steps if s.round <= r}
        return Instance(frozenset(atoms))


def _mapping_key(rule: Rule, h: dict):
    return tuple(term_key(h[v]) for v in sorted(rule.uv))


def applicable_steps(onto: Ontology, inst: Instance, fired: set,
                     mode: str = OBLIVIOUS) -> list:
    """(rule, body homomorphism) pairs not yet fired, in deterministic order.

    In restricted mode, pairs whose head already has a match extending the
    homomorphism restricted to the universal variables are dropped.
    """
    out = []
    for rule in onto:
        for h in sorted(homomorphisms(rule.body, inst), key=lambda h: _mapping_key(rule, h)):
            key = (rule.id, tuple(apply_mapping(h, a) for a in rule.body))
            if key in fired:
                continue
            if mode == RESTRICTED and _head_satisfied(rule, h, inst):
                continue
            out.append((rule, h))
    return out


def _head_satisfied(rule: Rule, h: dict, inst: Instance) -> bool:
    seed = {v: h[v] for v in rule.uv if v in h}
    return find_homomorphism([rule.head], inst, seed) is not None


def run_chase(db: Database, onto: Ontology, cfg: ChaseConfig) -> ChaseResult:
    """Breadth-first chase; deterministic for a fixed input ordering.

    Within a round, rules fire in program order and homomorphisms in
    lexicographic witness order; every step draws fresh nulls from one
    monotone counter.  Hitting a bound is not an error: the result simply
    carries terminated=False.
    """
    atoms = set(db.atoms)
    fired: set = set()
    steps: list = []
    nulls = NullFactory()
    rounds = 0
    terminated = False
    truncated = False

    while rounds < cfg.max_rounds:
        snapshot = Instance(frozenset(atoms))
        pending = applicable_steps(onto, snapshot, fired, cfg.mode)
        if not pending:
            terminated = True
            break
        rounds += 1
        for rule, h in pending:
            key = (rule.id, tuple(apply_mapping(h, a) for a in rule.body))
            if cfg.mode == RESTRICTED and _head_satisfied(rule, h, Instance(frozenset(atoms))):
                fired.add(key)
                continue
            full = dict(h)
            for v in sorted(rule.ev):
                full[v] = nulls.fresh()
            produced = apply_mapping(full, rule.head)
            fired.add(key)
            if produced in atoms:
                continue
            if len(atoms) >= cfg.max_atoms:
                truncated = True
                break
            atoms.add(produced)
            steps.append(ChaseStep(rule.id, full, produced, rounds))
        if truncated:
            break
    else:
        # round budget exhausted; report termination only if nothing is left to fire
        snapshot = Instance(frozenset(atoms))
        terminated = not applicable_steps(onto, snapshot, fired, cfg.mode)

    complete = rounds - 1 if truncated else rounds
    return ChaseResult(Instance(frozenset(atoms)), terminated, rounds, tuple(steps), complete)


class Verdict(Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Entailment:
    verdict: Verdict
    witness: Optional[Witness] = None
    chase: Optional[ChaseResult] = None

    def __bool__(self):
        return self.verdict is Verdict.TRUE


def entails(db: Database, onto: Ontology, q: Query, cfg: ChaseConfig) -> Entailment:
    """Three-valued entailment: True with witness, False only on a finished chase."""
    return entailment_in(run_chase(db, onto, cfg), q)


def entailment_in(result: ChaseResult, q: Query) -> Entailment:
    """The verdict of `entails` for q, read off a chase already run; one
    chase thus answers any number of queries."""
    w = satisfies_query(result.instance, q)
    if w is not None:
        return Entailment(Verdict.TRUE, w, result)
    if result.terminated:
        return Entailment(Verdict.FALSE, None, result)
    return Entailment(Verdict.UNKNOWN, None, result)
