"""Value types for terms, atoms, rules, ontologies, databases, instances and queries."""

from __future__ import annotations

from itertools import chain
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


class _Record(tuple):
    """A frozen record as the tuple of its fields, named in `_fields`, so
    it hashes and compares as that tuple, in C; a frozen dataclass hashes
    the same tuple, so sets of records keep their order.  Each record builds
    itself in `__new__` by `tuple.__new__`, and `__init_subclass__` makes
    each name in `_fields` a property reading its field by `itemgetter`, so
    defining one generates no code."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes):
        """A copy with the named fields changed, checked as a new record."""
        return type(self)(**dict(zip(self._fields, self), **changes))


class Atom(_Record):
    """An atom as the tuple (pred, args, shape); it hashes and compares as
    that tuple."""

    __slots__ = ()
    _fields = ("pred", "args", "shape")

    def __new__(cls, pred: str, args: tuple = (), shape: Optional[tuple] = None):
        if shape is not None:
            mu = len(set(l for l in shape if isinstance(l, int)))
            if mu != len(args):
                raise ValueError(
                    f"shape {shape!r} expects {mu} argument(s), got {len(args)}"
                )
        return tuple.__new__(cls, (pred, args, shape))

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


def _key(a: Atom) -> tuple:
    """The index key of an atom: its predicate with shape, and its arity."""
    return (a[0], a[2]), len(a[1])


def _atom(pred: str, args: tuple, shape: Optional[tuple]) -> Atom:
    """An Atom built without `Atom.__new__`'s shape check, for callers whose
    shape and arity already agree."""
    return tuple.__new__(Atom, (pred, args, shape))


class _Frozen:
    """Refuses assignment and deletion, as a frozen dataclass does."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Position(_Record):
    """An argument position: predicate is the rendered name, shape
    included, and index is 1-based."""

    __slots__ = ()
    _fields = ("predicate", "index")

    def __new__(cls, predicate: str, index: int):
        return tuple.__new__(cls, (predicate, index))

    def __str__(self):
        return f"{self.predicate}[{self.index}]"


class _lazy:
    """A field computed on first read and stored in the instance dict, which
    shadows this non-data descriptor from then on: `cached_property`
    without the lock that Python 3.11 takes on every first read."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class Rule(_Record, _Frozen):
    # No __slots__: the instance dict holds the lazy fields below, which
    # eq, hash and repr do not read.
    _fields = ("id", "body", "head")

    def __new__(cls, id: str, body: tuple, head: Atom):
        if not body:
            raise ValueError(f"rule {id}: empty body")
        if any(isinstance(t, Null) for a in (*body, head) for t in a.args):
            raise ValueError(f"rule {id}: nulls are not allowed in rules")
        return tuple.__new__(cls, (id, body, head))

    @_lazy
    def uv(self) -> frozenset:
        return frozenset(v for a in self.body for v in a.variables())

    @_lazy
    def uv_by_name(self) -> tuple:
        """The body variables in name order; see `hom._mapping_key`."""
        return tuple(sorted(self.uv, key=lambda v: v.name))

    @_lazy
    def map_key(self):
        """The key of a map of the body, read in C: `itemgetter` of
        `uv_by_name`, or `_no_key` for a body without variables; see
        `hom._mapping_key`.  Both pickle by name, so a rule whose key has
        been read still pickles and copies."""
        return itemgetter(*self.uv_by_name) if self.uv_by_name else _no_key

    @_lazy
    def joins(self) -> frozenset:
        """The body variables that occur in two or more body atoms."""
        seen, joins = set(), set()
        for a in self.body:
            for t in set(a.args):
                if t[0] == 2:  # a variable, by its kind rank
                    (joins if t in seen else seen).add(t)
        return frozenset(joins)

    @_lazy
    def ev(self) -> frozenset:
        return frozenset(self.head.variables()) - self.uv

    @_lazy
    def ev_sorted(self) -> tuple:
        """The existential variables in term order."""
        return tuple(sorted(self.ev))

    @_lazy
    def frontier(self) -> tuple:
        """The head's arguments that are no existential variable, in order."""
        return tuple(t for t in self.head.args if t not in self.ev)

    @_lazy
    def positions(self) -> dict:
        """Where each variable occurs, as {variable: (body, atoms, head)}:
        its body positions, the pairs (atom, its positions in that atom) of
        the body atoms holding it, and its head positions, each in atom and
        argument order; a `Position` names the predicate as rendered."""
        table: dict = {}
        for atom in self.body:
            name, seen = atom.predicate_name, {}
            for i, t in enumerate(atom.args, 1):
                if t[0] == 2:  # a variable, by its kind rank
                    seen.setdefault(t, []).append(Position(name, i))
            for v, found in seen.items():
                body, atoms, _ = table.setdefault(v, ([], [], []))
                body += found
                atoms.append((atom, tuple(found)))
        name = self.head.predicate_name
        for i, t in enumerate(self.head.args, 1):
            if t[0] == 2:
                table.setdefault(t, ([], [], []))[2].append(Position(name, i))
        return {v: (tuple(body), tuple(atoms), tuple(head))
                for v, (body, atoms, head) in table.items()}

    def atoms(self) -> tuple:
        return (*self.body, self.head)


def _no_key(h: dict) -> tuple:
    """The key of the one map of a body without variables."""
    return ()


def _rule(id: str, body: tuple, head: Atom, ev: frozenset) -> Rule:
    """A Rule built without `Rule.__new__`'s checks, for callers whose body
    is non-empty and whose atoms hold no null, and who know its existential
    variables ev, which it stores as read."""
    rule = tuple.__new__(Rule, (id, body, head))
    rule.__dict__["ev"] = ev
    return rule


class _Collection(_Frozen):
    """A frozen record of one field, named in `_field`, that holds a
    collection: it equals only records of its own class with an equal
    field, and hashes as the 1-tuple of the field, as a frozen dataclass."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return getattr(self, self._field) == getattr(other, self._field)
        return NotImplemented

    def __hash__(self):
        return hash((getattr(self, self._field),))

    def __repr__(self):
        return f"{type(self).__qualname__}({self._field}={getattr(self, self._field)!r})"

    def __reduce__(self):
        return type(self), (getattr(self, self._field),)


class Ontology(_Collection):
    # The instance dict holds the lazy filings below, which eq, hash, repr
    # and pickling do not read.
    __slots__ = ("rules", "__dict__")
    _field = "rules"

    def __init__(self, rules: tuple = ()):
        object.__setattr__(self, "rules", rules)

    @_lazy
    def by_id(self) -> tuple:
        """The rules sorted by id."""
        return tuple(sorted(self.rules, key=Rule.id.fget))

    @_lazy
    def heads(self) -> dict:
        """Each (position in `by_id`, rule), in that order, filed by the
        `_key` of the rule's head."""
        filed: dict = {}
        for entry in enumerate(self.by_id):
            filed.setdefault(_key(entry[1].head), []).append(entry)
        return filed

    @_lazy
    def bodies(self) -> dict:
        """The entries of `heads` filed under each `_key` of a body atom,
        once per rule, in `by_id` order."""
        filed: dict = {}
        for entry in enumerate(self.by_id):
            for k in dict.fromkeys(map(_key, entry[1].body)):
                filed.setdefault(k, []).append(entry)
        return filed

    @_lazy
    def parts(self) -> tuple:
        """(active, harmless): the rules without and with a body join (`Rule.joins`)."""
        return (Ontology(tuple(r for r in self.rules if not r.joins)),
                Ontology(tuple(r for r in self.rules if r.joins)))

    def __iter__(self):
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)


class Database(_Collection):
    __slots__ = ("atoms",)
    _field = "atoms"

    def __init__(self, atoms: frozenset = frozenset()):
        for a in atoms:
            for t in a.args:
                if not isinstance(t, Constant):
                    raise ValueError(f"database atom {a!r} is not null- and variable-free")
        object.__setattr__(self, "atoms", atoms)

    def __iter__(self):
        return iter(self.atoms)

    def __len__(self):
        return len(self.atoms)


class Instance(_Collection):
    __slots__ = ("atoms",)
    _field = "atoms"

    def __init__(self, atoms: frozenset = frozenset()):
        for a in atoms:
            for t in a.args:
                if isinstance(t, Variable):
                    raise ValueError(f"instance atom {a!r} contains a variable")
        object.__setattr__(self, "atoms", atoms)

    def __iter__(self):
        return iter(self.atoms)

    def __len__(self):
        return len(self.atoms)

    def __contains__(self, atom):
        return atom in self.atoms

    def sorted_atoms(self) -> list:
        return sorted(self.atoms, key=Atom.sort_key)


class Query(_Collection):
    __slots__ = ("disjuncts",)
    _field = "disjuncts"

    def __init__(self, disjuncts: tuple):  # tuple of tuples of Atom
        if not disjuncts:
            raise ValueError("query needs at least one disjunct")
        for d in disjuncts:
            if not d:
                raise ValueError("empty query disjunct")
            for a in d:
                for t in a.args:
                    if isinstance(t, Null):
                        raise ValueError("nulls are not allowed in queries")
        object.__setattr__(self, "disjuncts", disjuncts)


def constants_of(db: Database, onto: Ontology) -> set:
    """All constants occurring anywhere in the database or the ontology,
    one `Constant` per distinct term or shape label."""
    args, shape = itemgetter(1), itemgetter(2)
    atoms = [*db, *chain.from_iterable(map(args, onto)), *map(shape, onto)]  # bodies, heads
    terms = set(chain.from_iterable(map(args, atoms)))
    labels = set(chain.from_iterable(filter(None, map(shape, atoms))))
    return ({t for t in terms if isinstance(t, Constant)}
            | {Constant(l) for l in labels if isinstance(l, str)})


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
