"""The frozen dataclasses that `core`, `chase`, `hom`, `classify`,
`finitemodels`, `parse`, `generate` and `harness` defined before their
records became tuples and slotted classes, kept unchanged as the oracle for
`tests/test_records.py`.  Each class keeps its former name, so reprs
compare as they are."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from shychase.chase import OBLIVIOUS, RESTRICTED, Verdict
from shychase.core import Atom, Constant, Null, Variable


# core


@dataclass(frozen=True)
class Position:
    predicate: str  # rendered name, shape included
    index: int  # 1-based

    def __str__(self):
        return f"{self.predicate}[{self.index}]"


@dataclass(frozen=True)
class Rule:
    id: str
    body: tuple
    head: Atom

    def __post_init__(self):
        if not self.body:
            raise ValueError(f"rule {self.id}: empty body")
        bad = [t for a in (*self.body, self.head) for t in a.args if isinstance(t, Null)]
        if bad:
            raise ValueError(f"rule {self.id}: nulls are not allowed in rules")

    # cached in the instance dict; eq, hash and repr read only the fields
    @cached_property
    def uv(self) -> frozenset:
        return frozenset(v for a in self.body for v in a.variables())

    @cached_property
    def uv_by_name(self) -> tuple:
        """The body variables in name order; see `hom._mapping_key`."""
        return tuple(sorted(self.uv, key=lambda v: v.name))

    @cached_property
    def ev(self) -> frozenset:
        return frozenset(self.head.variables()) - self.uv

    def atoms(self) -> tuple:
        return (*self.body, self.head)


@dataclass(frozen=True)
class Ontology:
    rules: tuple = ()

    def __iter__(self):
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)


@dataclass(frozen=True)
class Database:
    atoms: frozenset = frozenset()

    def __post_init__(self):
        for a in self.atoms:
            for t in a.args:
                if not isinstance(t, Constant):
                    raise ValueError(f"database atom {a!r} is not null- and variable-free")

    def __iter__(self):
        return iter(self.atoms)

    def __len__(self):
        return len(self.atoms)


@dataclass(frozen=True)
class Instance:
    atoms: frozenset = frozenset()

    def __post_init__(self):
        for a in self.atoms:
            for t in a.args:
                if isinstance(t, Variable):
                    raise ValueError(f"instance atom {a!r} contains a variable")

    def __iter__(self):
        return iter(self.atoms)

    def __len__(self):
        return len(self.atoms)

    def __contains__(self, atom):
        return atom in self.atoms

    def sorted_atoms(self) -> list:
        return sorted(self.atoms, key=Atom.sort_key)


@dataclass(frozen=True)
class Query:
    disjuncts: tuple  # tuple of tuples of Atom

    def __post_init__(self):
        if not self.disjuncts:
            raise ValueError("query needs at least one disjunct")
        for d in self.disjuncts:
            if not d:
                raise ValueError("empty query disjunct")
            for a in d:
                for t in a.args:
                    if isinstance(t, Null):
                        raise ValueError("nulls are not allowed in queries")


# chase


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


@dataclass(frozen=True)
class Entailment:
    verdict: Verdict
    witness: Optional[Witness] = None
    chase: Optional[ChaseResult] = None

    def __bool__(self):
        return self.verdict is Verdict.TRUE


# hom


@dataclass(frozen=True)
class Witness:
    disjunct: int  # 0-based index into the query's disjuncts
    mapping: dict


# classify


@dataclass(frozen=True)
class ViolationWitness:
    fragment: str
    rule_id: Optional[str]
    condition: str
    variables: tuple = ()
    positions: tuple = ()
    attacker: Optional[str] = None

    def describe(self) -> str:
        parts = [self.condition]
        if self.rule_id:
            parts.append(f"rule {self.rule_id}")
        if self.variables:
            parts.append("variables " + ", ".join(self.variables))
        if self.positions:
            parts.append("positions " + ", ".join(str(p) for p in self.positions))
        if self.attacker:
            parts.append(f"attacker {self.attacker}")
        return "; ".join(parts)


# finitemodels


@dataclass(frozen=True)
class ModelBudget:
    max_extra_nulls: int
    max_atoms: int

    def __post_init__(self):
        if self.max_extra_nulls < 0:
            raise ValueError("max_extra_nulls must be non-negative")
        if self.max_atoms < 1:
            raise ValueError("max_atoms must be positive")


@dataclass(frozen=True)
class SupportStep:
    atom: Atom
    rule_id: Optional[str]  # None marks a database atom
    mapping: Optional[dict] = None

    @property
    def from_database(self) -> bool:
        return self.rule_id is None


# parse


@dataclass(frozen=True)
class Program:
    database: Database
    ontology: Ontology
    queries: tuple = ()


# generate


@dataclass(frozen=True)
class GeneratorConfig:
    predicates: int = 4
    max_arity: int = 3
    rules: int = 5
    max_body_atoms: int = 2
    existential_prob: float = 0.6
    constant_prob: float = 0.1
    constants: int = 2
    facts: int = 3
    max_attempts: int = 400
    # Shape enumeration is exponential in distinct body variables; cap them
    # so rewritten theories stay small.
    max_rule_vars: int = 4


# harness


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail} ({self.seconds:.2f}s)"
