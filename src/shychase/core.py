"""Value types for terms, atoms, rules, ontologies, databases, instances and queries."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterator, Optional, Union


class _Term(tuple):
    """A term as the tuple (kind rank, repr, value), kinds ranked constant
    0, null 1, variable 2.  Tuples hash, compare and sort in C, and distinct
    terms differ in the first two fields, so terms sort by kind, then repr."""

    __slots__ = ()

    def __getnewargs__(self):
        return (self[2],)

    def __repr__(self):
        return self[1]


class Constant(_Term):
    __slots__ = ()

    def __new__(cls, name: str):
        return tuple.__new__(cls, (0, f"Constant({name!r})", name))

    name = property(itemgetter(2))


class Null(_Term):
    __slots__ = ()

    def __new__(cls, id: int):
        return tuple.__new__(cls, (1, f"Null({id})", id))

    id = property(itemgetter(2))


class Variable(_Term):
    __slots__ = ()

    def __new__(cls, name: str):
        return tuple.__new__(cls, (2, f"Variable({name!r})", name))

    name = property(itemgetter(2))


Term = Union[Constant, Null, Variable]

# Shape labels are constant names (str) or positive integers.
ShapeLabel = Union[str, int]
Shape = tuple


class Atom(tuple):
    """An atom as the tuple (pred, args, shape); it hashes and compares as
    that tuple."""

    __slots__ = ()

    def __new__(cls, pred: str, args: tuple = (), shape: Optional[tuple] = None):
        if shape is not None:
            mu = len(set(l for l in shape if isinstance(l, int)))
            if mu != len(args):
                raise ValueError(
                    f"shape {shape!r} expects {mu} argument(s), got {len(args)}"
                )
        return tuple.__new__(cls, (pred, args, shape))

    pred = property(itemgetter(0))
    args = property(itemgetter(1))
    shape = property(itemgetter(2))

    def __getnewargs__(self):
        return tuple(self)

    @property
    def arity(self) -> int:
        return len(self[1])

    @property
    def predicate_name(self) -> str:
        """Rendered predicate name; the bracketed shape is part of the identity."""
        if self.shape is None:
            return self.pred
        labels = ",".join(str(l) for l in self.shape)
        return f"{self.pred}_[{labels}]"

    @property
    def pred_key(self):
        return (self[0], self[2])

    def sort_key(self):
        """(pred, shape labels as strings, args, shaped?): the last field
        puts p before p_[], which agree in the others."""
        pred, args, shape = self
        return (pred, () if shape is None else tuple(map(str, shape)), args, shape is not None)

    def variables(self) -> Iterator[Variable]:
        for t in self.args:
            if isinstance(t, Variable):
                yield t

    def __repr__(self):
        return f"Atom({self.predicate_name}, {self.args!r})"


def _atom(pred: str, args: tuple, shape: Optional[tuple]) -> Atom:
    """An Atom built without `Atom.__new__`'s shape check, for callers whose
    shape and arity already agree."""
    return tuple.__new__(Atom, (pred, args, shape))


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
