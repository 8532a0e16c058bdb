"""Terms and atoms against the dataclass value types they replaced.

`core` stores terms as (kind, repr, value) tuples and atoms as (pred,
args, shape) tuples, so hashing, equality and ordering run on tuples.  The
dataclasses below are the former definitions, kept as the oracle: the new
types must group and order values exactly as they did, keep every
attribute, repr and error text, and survive copying and pickling.
"""

import copy
import pickle
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shychase.canonical import UnpackError, unpack
from shychase.core import Atom, Constant, Null, Variable
from shychase.finitemodels import StartingPoint

# ---------------------------------------------------------------------------
# the former value types (oracle)


@dataclass(frozen=True, order=True)
class OldConstant:
    name: str

    def __repr__(self):
        return f"Constant({self.name!r})"


@dataclass(frozen=True, order=True)
class OldNull:
    id: int

    def __repr__(self):
        return f"Null({self.id})"


@dataclass(frozen=True, order=True)
class OldVariable:
    name: str

    def __repr__(self):
        return f"Variable({self.name!r})"


_KIND_RANK = {OldConstant: 0, OldNull: 1, OldVariable: 2}


def old_term_key(t):
    return (_KIND_RANK.get(type(t), 1), repr(t))


@dataclass(frozen=True)
class OldAtom:
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
    def predicate_name(self) -> str:
        if self.shape is None:
            return self.pred
        labels = ",".join(str(l) for l in self.shape)
        return f"{self.pred}_[{labels}]"

    def sort_key(self):
        return (self.pred, () if self.shape is None else tuple(map(str, self.shape)),
                tuple(old_term_key(t) for t in self.args), self.shape is not None)

    def __repr__(self):
        return f"Atom({self.predicate_name}, {self.args!r})"


# ---------------------------------------------------------------------------
# strategies: each value is drawn as a spec and built in both worlds

_const_names = st.from_regex(r"[a-z][a-z0-9_]{0,3}", fullmatch=True)
_var_names = st.builds(lambda base, suffix: base + suffix,
                       st.from_regex(r"[A-Z][A-Za-z0-9_]{0,2}", fullmatch=True),
                       st.sampled_from(["", "#1", "#2", "#10"]))
_term_specs = st.one_of(
    st.tuples(st.just("c"), _const_names),
    st.tuples(st.just("n"), st.integers(1, 999)),
    st.tuples(st.just("v"), _var_names),
)

_NEW = {"c": Constant, "n": Null, "v": Variable}
_OLD = {"c": OldConstant, "n": OldNull, "v": OldVariable}


def _new(spec):
    return _NEW[spec[0]](spec[1])


def _old(spec):
    return _OLD[spec[0]](spec[1])


@st.composite
def _atom_specs(draw):
    pred = draw(st.sampled_from(["p", "q", "pq"]))
    args = tuple(draw(st.lists(_term_specs, max_size=3)))
    shape = None
    if draw(st.booleans()):
        classes = list(range(1, len(args) + 1))
        repeats = draw(st.lists(st.sampled_from(classes), max_size=2)) if classes else []
        consts = draw(st.lists(st.sampled_from(["c1", "c2", "c10", "a"]), max_size=2))
        shape = tuple(draw(st.permutations(classes + repeats + consts)))
    return pred, args, shape


def _new_atom(spec):
    pred, args, shape = spec
    return Atom(pred, tuple(map(_new, args)), shape)


def _old_atom(spec):
    pred, args, shape = spec
    return OldAtom(pred, tuple(map(_old, args)), shape)


def _order(values, key):
    return sorted(range(len(values)), key=lambda i: key(values[i]))


def _grouping(values):
    return [[i for i, y in enumerate(values) if x == y] for x in values]


# ---------------------------------------------------------------------------
# terms


@settings(max_examples=300, deadline=None)
@given(st.lists(_term_specs, max_size=12))
def test_terms_sort_like_the_old_term_key(specs):
    new, old = list(map(_new, specs)), list(map(_old, specs))
    assert _order(new, lambda t: t[:2]) == _order(old, old_term_key)
    # plain tuple order is (kind, repr) order
    assert _order(new, lambda t: t) == _order(new, lambda t: t[:2])


@settings(max_examples=300, deadline=None)
@given(st.lists(_term_specs, max_size=12))
def test_terms_group_and_render_like_the_old_types(specs):
    new, old = list(map(_new, specs)), list(map(_old, specs))
    assert _grouping(new) == _grouping(old)
    assert len(set(new)) == len(set(old))
    assert [repr(t) for t in new] == [repr(t) for t in old]
    assert [str(t) for t in new] == [str(t) for t in old]
    for n, o in zip(new, old):
        assert type(n).__name__ == type(o).__name__[3:]
        field = "id" if isinstance(o, OldNull) else "name"
        assert getattr(n, field) == getattr(o, field)


@given(st.lists(_const_names, max_size=8), st.sampled_from(["", "#1", "#12"]),
       st.lists(st.from_regex(r"[A-Z]\w{0,2}", fullmatch=True), max_size=8))
def test_natural_order_is_name_order_for_parsed_names(consts, suffix, bases):
    """Constant names (`[a-z]\\w*`) and the variables of one parsed rule
    (`[A-Z]\\w*`, all with the rule's `#index` suffix) sort by name, as the
    dataclass order did; `sorted(rule.uv)` and `sorted(constants_of(...))`
    rely on it."""
    assert [c.name for c in sorted(map(Constant, consts))] == sorted(consts)
    names = [b + suffix for b in bases]
    assert [v.name for v in sorted(map(Variable, names))] == sorted(names)


def test_term_kinds_never_compare_equal():
    assert Constant("a") != Variable("a")
    assert Constant("a") != "a"
    assert Null(1) != 1
    assert len({Constant("a"), Variable("a"), Constant("a")}) == 2
    assert Null(10) < Null(9)  # by repr, as the old term key ordered them
    assert Variable("X#1") < Variable("X")


@given(_term_specs)
def test_terms_copy_and_pickle(spec):
    t = _new(spec)
    for other in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert other == t and type(other) is type(t) and repr(other) == repr(t)
        assert hash(other) == hash(t)


def test_terms_are_immutable():
    with pytest.raises(AttributeError):
        Constant("a").name = "b"
    with pytest.raises(AttributeError):
        Null(1).extra = 2


def test_unpack_rejects_a_term_by_its_type():
    with pytest.raises(UnpackError, match="Constant"):
        unpack(Constant("a"))
    with pytest.raises(UnpackError, match="Null"):
        unpack(Null(1))


# ---------------------------------------------------------------------------
# atoms


@settings(max_examples=300, deadline=None)
@given(st.lists(_atom_specs(), max_size=10))
def test_atoms_sort_group_and_render_like_the_old_type(specs):
    new, old = list(map(_new_atom, specs)), list(map(_old_atom, specs))
    assert _order(new, Atom.sort_key) == _order(old, OldAtom.sort_key)
    assert _grouping(new) == _grouping(old)
    assert len(set(new)) == len(set(old))
    assert [repr(a) for a in new] == [repr(a) for a in old]
    for n, o in zip(new, old):
        assert (n.pred, n.shape, n.predicate_name) == (o.pred, o.shape, o.predicate_name)
        assert list(map(repr, n.args)) == list(map(repr, o.args))
        assert n.sort_key()[:2] == o.sort_key()[:2]


@settings(max_examples=100, deadline=None)
@given(_atom_specs())
def test_atoms_copy_and_pickle(spec):
    a = _new_atom(spec)
    for other in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert other == a and type(other) is Atom and repr(other) == repr(a)
        assert hash(other) == hash(a)


def test_atom_defaults_and_shape_error_text():
    assert Atom("p") == Atom("p", (), None)
    assert Atom("p").args == () and Atom("p").shape is None
    shape, args = (1, "c", 2), (Variable("X"),)
    with pytest.raises(ValueError) as new_error:
        Atom("p", args, shape)
    with pytest.raises(ValueError) as old_error:
        OldAtom("p", (OldVariable("X"),), shape)
    assert str(new_error.value) == str(old_error.value)
    with pytest.raises(AttributeError):
        Atom("p").pred = "q"


# ---------------------------------------------------------------------------
# starting points sort among terms as nulls, by their repr


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(
    _term_specs.map(lambda s: ("term", s)),
    st.tuples(st.just("sp"), _term_specs.filter(lambda s: s[0] != "v"),
              st.integers(1, 12), st.integers(1, 3)),
), max_size=10))
def test_starting_points_sort_among_terms_by_their_repr(items):
    new = [_new(i[1]) if i[0] == "term" else StartingPoint(_new(i[1]), i[2], i[3])
           for i in items]
    oracle = [old_term_key(_old(i[1])) if i[0] == "term"
              else (1, f"<{_new(i[1])!r},{i[2]},{i[3]}>") for i in items]
    assert _order(new, lambda t: t) == _order(oracle, lambda k: k)
    assert [t[:2] for t in new if isinstance(t, StartingPoint)] == \
        [(1, repr(t)) for t in new if isinstance(t, StartingPoint)]
    atoms = [Atom("p", (t,)) for t in new]
    assert _order(atoms, Atom.sort_key) == _order(oracle, lambda k: k)


def test_starting_point_fields_copy_and_unpack():
    sp = StartingPoint(Null(1), 3, 2)
    assert (sp.term, sp.atom_index, sp.position) == (Null(1), 3, 2)
    assert repr(sp) == "<Null(1),3,2>"
    assert sp != Null(1) and sp == StartingPoint(Null(1), 3, 2)
    for other in (copy.copy(sp), copy.deepcopy(sp), pickle.loads(pickle.dumps(sp))):
        assert other == sp and type(other) is StartingPoint
    with pytest.raises(UnpackError, match="StartingPoint"):
        unpack(sp)
