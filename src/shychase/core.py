"""Value types for terms, atoms, rules, ontologies, databases, instances and queries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union


@dataclass(frozen=True, order=True)
class Constant:
    name: str

    def __repr__(self):
        return f"Constant({self.name!r})"


@dataclass(frozen=True, order=True)
class Null:
    id: int

    def __repr__(self):
        return f"Null({self.id})"


@dataclass(frozen=True, order=True)
class Variable:
    name: str

    def __repr__(self):
        return f"Variable({self.name!r})"


Term = Union[Constant, Null, Variable]

# Shape labels are constant names (str) or positive integers.
ShapeLabel = Union[str, int]
Shape = tuple


_KIND_RANK = {Constant: 0, Null: 1, Variable: 2}


def term_kind(t) -> int:
    """Total order rank over term kinds; unknown term-like objects rank as nulls."""
    return _KIND_RANK.get(type(t), 1)


def term_key(t):
    """Deterministic sort key working across term kinds."""
    return (term_kind(t), repr(t))


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple = ()
    shape: Optional[tuple] = None

    def __post_init__(self):
        if self.shape is not None:
            mu = len(set(l for l in self.shape if isinstance(l, int)))
            if mu != len(self.args):
                raise ValueError(
                    f"shape {self.shape!r} expects {mu} argument(s), got {len(self.args)}"
                )

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def predicate_name(self) -> str:
        """Rendered predicate name; the bracketed shape is part of the identity."""
        if self.shape is None:
            return self.pred
        labels = ",".join(str(l) for l in self.shape)
        return f"{self.pred}_[{labels}]"

    @property
    def pred_key(self):
        return (self.pred, self.shape)

    def sort_key(self):
        return (self.pred, () if self.shape is None else tuple(map(str, self.shape)),
                tuple(term_key(t) for t in self.args))

    def variables(self) -> Iterator[Variable]:
        for t in self.args:
            if isinstance(t, Variable):
                yield t

    def __repr__(self):
        return f"Atom({self.predicate_name}, {self.args!r})"


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

    @property
    def uv(self) -> frozenset:
        return frozenset(v for a in self.body for v in a.variables())

    @property
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

    def positions(self) -> set:
        out = set()
        for rule in self.rules:
            for atom in rule.atoms():
                for i in range(1, atom.arity + 1):
                    out.add(Position(atom.predicate_name, i))
        return out


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

    def terms(self) -> set:
        return {t for a in self.atoms for t in a.args}


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


def constants_of(db: Database, onto: Ontology) -> set:
    """All constants occurring anywhere in the database or the ontology."""
    out = set()
    for a in db:
        out.update(t for t in a.args if isinstance(t, Constant))
        if a.shape is not None:
            out.update(Constant(l) for l in a.shape if isinstance(l, str))
    for rule in onto:
        for a in rule.atoms():
            out.update(t for t in a.args if isinstance(t, Constant))
            if a.shape is not None:
                out.update(Constant(l) for l in a.shape if isinstance(l, str))
    return out


def is_simple(atom: Atom) -> bool:
    """True iff the atom has no repeated argument (propositional atoms are simple)."""
    return len(set(atom.args)) == len(atom.args)


class NullFactory:
    """Monotone fresh-null counter, confined to one chase or search run."""

    def __init__(self):
        self._next = 1

    def fresh(self) -> Null:
        n = Null(self._next)
        self._next += 1
        return n
