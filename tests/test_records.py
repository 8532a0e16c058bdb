"""Records against the frozen dataclasses they replaced.

`tests/record_oracle.py` keeps the 17 former definitions, under their
former names.  Each new record must build from the same positional and
keyword arguments and defaults, print, compare and hash as its dataclass
did (so sets and dicts of records iterate in the same order), reject the
same inputs with the same error, refuse assignment and deletion, and
survive copying and pickling.
"""

import copy
import dataclasses
import importlib
import pickle
from importlib import resources
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import record_oracle as old
from shychase.canonical import rewrite_theory
from shychase.chase import Verdict
from shychase.core import Atom, Constant, Null, Variable
from shychase.parse import parse_program

NAMES = ("Position", "Rule", "Ontology", "Database", "Instance", "Query", "ChaseConfig",
         "ChaseStep", "ChaseResult", "Entailment", "Witness", "ViolationWitness",
         "ModelBudget", "SupportStep", "Program", "GeneratorConfig", "CheckResult")
_HOMES = [importlib.import_module(f"shychase.{m}") for m in (
    "core", "chase", "hom", "classify", "finitemodels", "parse", "generate", "harness")]
new = SimpleNamespace(Verdict=Verdict, **{
    name: getattr(next(m for m in _HOMES if hasattr(m, name)), name) for name in NAMES})

X, Y = Variable("X"), Variable("Y")
a, b = Constant("a"), Constant("b")
n1, n2 = Null(1), Null(2)
P_XA, Q_XY, R_Y = Atom("p", (X, a)), Atom("q", (X, Y)), Atom("r", (Y,))
P_N1A, P_AA, Q_AN2 = Atom("p", (n1, a)), Atom("p", (a, a)), Atom("q", (a, n2))
SHAPED = Atom("p", (a,), (1, 1, "c"))


def _samples(m) -> list:
    """One list of records of every kind, built from m's types; two pairs
    are built twice, so equality has equal pairs to find."""
    rule1 = m.Rule("r1", (P_XA,), Q_XY)
    rule2 = m.Rule("r2", (P_XA, R_Y), Atom("q", (X, X)))
    inst = m.Instance(frozenset({P_N1A, P_AA, Q_AN2}))
    steps = (m.ChaseStep("r1", {X: a, Y: n2}, Q_AN2, 1),
             m.ChaseStep("r2", {X: n1}, P_N1A, 2))
    pos = m.Position("p", 1)
    return [
        pos, m.Position("p", 1), m.Position("p_[1,1,c]", 2), m.Position(predicate="q", index=1),
        rule1, m.Rule("r1", (P_XA,), Q_XY), rule2, m.Rule("r3", (SHAPED,), Atom("s", ())),
        m.Ontology(), m.Ontology((rule1, rule2)), m.Ontology(rules=(rule2,)),
        m.Database(), m.Database(frozenset({P_AA, SHAPED})),
        inst, m.Instance(), m.Instance(frozenset({P_AA})),
        m.Query(((P_XA,),)), m.Query(((P_XA, Q_XY), (R_Y,))),
        m.ChaseConfig(), m.ChaseConfig("restricted", 5), m.ChaseConfig(max_rounds=7),
        *steps,
        m.ChaseResult(inst, True, 2, steps, 2), m.ChaseResult(inst, False, 2, steps, 1),
        m.ChaseResult(inst, False, 3, steps[:1], 3), m.ChaseResult(inst, False, 2, ()),
        m.Entailment(m.Verdict.TRUE, m.Witness(0, {X: a}), None),
        m.Entailment(m.Verdict.FALSE), m.Entailment(m.Verdict.UNKNOWN, chase=None),
        m.Witness(0, {X: a}), m.Witness(1, {}),
        m.ViolationWitness("linear", "r2", "body has more than one atom"),
        m.ViolationWitness("sticky", "r1", "marked variable repeated", ("X",), (pos,)),
        m.ViolationWitness("shy", None, "attacked join", ("X", "Y"), (pos,), "r2"),
        m.ModelBudget(2, 10), m.ModelBudget(0, 1),
        m.SupportStep(P_AA, None), m.SupportStep(P_N1A, "r1", {X: n1}),
        m.Program(m.Database(), m.Ontology()),
        m.Program(m.Database(frozenset({P_AA})), m.Ontology((rule1,)),
                  (m.Query(((P_XA,),)),)),
        m.GeneratorConfig(), m.GeneratorConfig(6, 2, max_body_atoms=1, constant_prob=0.25),
        m.CheckResult("golden", True, "ok"), m.CheckResult("golden", False, "bad", 1.234),
    ]


def _pairs():
    return list(zip(_samples(new), _samples(old)))


def _fields(record) -> list:
    return [f.name for f in dataclasses.fields(record)]


def _outcome(fn):
    """fn()'s result, or the type and text of what it raised."""
    try:
        return fn()
    except Exception as exc:  # the outcome is compared, whatever it is
        return (type(exc), str(exc))


def test_the_oracle_covers_every_record():
    assert len(NAMES) == 17
    kinds = {type(o).__name__ for o in _samples(old)}
    assert kinds == set(NAMES)
    for name in NAMES:
        assert getattr(new, name).__name__ == name
        assert dataclasses.is_dataclass(getattr(old, name))
        assert not dataclasses.is_dataclass(getattr(new, name))


def test_fields_print_like_the_old_records():
    for n, o in _pairs():
        assert type(n) is getattr(new, type(o).__name__)
        assert repr(n) == repr(o)
        assert str(n) == str(o)
        assert bool(n) == bool(o)
        for name in _fields(o):
            assert repr(getattr(n, name)) == repr(getattr(o, name)), (o, name)


def test_records_build_from_keywords_and_defaults():
    for n, o in _pairs():
        names, cls = _fields(o), type(n)
        values = [getattr(n, name) for name in names]
        assert cls(*values) == n
        assert cls(**dict(zip(names, values))) == n
        required = {f.name: getattr(n, f.name) for f in dataclasses.fields(o)
                    if f.default is dataclasses.MISSING}
        assert repr(cls(**required)) == repr(type(o)(**required))


def test_equality_and_hashes_match_the_old_records():
    pairs = _pairs()
    for (n1_, o1), (n2_, o2) in product(pairs, repeat=2):
        assert (n1_ == n2_) == (o1 == o2), (o1, o2)
        assert (n1_ != n2_) == (o1 != o2), (o1, o2)
    for n, o in pairs:
        assert _outcome(lambda: hash(n)) == _outcome(lambda: hash(o)), o
    # equal hashes and insertion order give equal iteration orders
    hashable = [(n, o) for n, o in pairs if not isinstance(_outcome(lambda: hash(o)), tuple)]
    assert [repr(x) for x in set(n for n, _ in hashable)] == \
        [repr(x) for x in set(o for _, o in hashable)]
    assert [repr(x) for x in dict.fromkeys(n for n, _ in hashable)] == \
        [repr(x) for x in dict.fromkeys(o for _, o in hashable)]


_PROBES = {
    "Rule": (lambda r: r.atoms(), lambda r: r.uv, lambda r: r.uv_by_name, lambda r: r.ev),
    "Ontology": (list, len),
    "Database": (list, len),
    "Instance": (list, len, lambda i: i.sorted_atoms(), lambda i: P_AA in i,
                 lambda i: R_Y in i),
    "ChaseResult": (lambda c: c.stop_reason, lambda c: c.prefix_at_round(0),
                    lambda c: c.prefix_at_round(1), lambda c: c.prefix_at_round(2)),
    "ViolationWitness": (lambda w: w.describe(),),
    "SupportStep": (lambda s: s.from_database,),
    "CheckResult": (lambda c: c.line(),),
}


def test_methods_answer_like_the_old_records():
    for n, o in _pairs():
        for probe in _PROBES.get(type(o).__name__, ()):
            assert repr(probe(n)) == repr(probe(o)), o


_BAD = [
    ("Rule", ("r9", (), Q_XY)),
    ("Rule", ("r9", [], Q_XY)),
    ("Rule", ("r9", (P_N1A,), Q_XY)),
    ("Rule", ("r9", (P_XA,), Atom("q", (X, n1)))),
    ("Database", (frozenset({Atom("p", (X,))}),)),
    ("Database", (frozenset({P_N1A}),)),
    ("Instance", (frozenset({P_AA, Atom("p", (X,))}),)),
    ("Query", ((),)),
    ("Query", (((P_XA,), ()),)),
    ("Query", (((P_XA,), (P_N1A,)),)),
    ("ChaseConfig", ("naive",)),
    ("ChaseConfig", ("oblivious", 0)),
    ("ChaseConfig", ("restricted", 5, -1)),
    ("ModelBudget", (-1, 5)),
    ("ModelBudget", (0, 0)),
]


@pytest.mark.parametrize("name, args", _BAD, ids=[f"{n}-{i}" for i, (n, _) in enumerate(_BAD)])
def test_bad_arguments_fail_with_the_old_errors(name, args):
    with pytest.raises(ValueError) as expected:
        getattr(old, name)(*args)
    with pytest.raises(ValueError) as got:
        getattr(new, name)(*args)
    assert str(got.value) == str(expected.value)


def test_missing_arguments_raise_type_errors():
    for name in NAMES:
        if name not in ("Ontology", "Database", "Instance", "ChaseConfig", "GeneratorConfig"):
            with pytest.raises(TypeError):
                getattr(new, name)()
        with pytest.raises(TypeError):
            getattr(new, name)(*range(12))


@given(st.sampled_from(["oblivious", "restricted", "naive"]),
       st.integers(-2, 3), st.integers(-2, 3))
def test_bounds_are_checked_like_the_old_records(mode, first, second):
    for name, args in (("ChaseConfig", (mode, first, second)),
                       ("ModelBudget", (first, second))):
        assert repr(_outcome(lambda: getattr(new, name)(*args))) == \
            repr(_outcome(lambda: getattr(old, name)(*args)))


def test_records_refuse_assignment_and_deletion():
    for n, o in _pairs():
        for name in [*_fields(o), "extra"]:
            with pytest.raises(AttributeError):
                setattr(n, name, None)
            if name != "extra":
                with pytest.raises(AttributeError):
                    delattr(n, name)
        assert repr(n) == repr(o)


def test_records_copy_and_pickle():
    """Copies equal the original field by field.  (Their reprs may not: a
    frozenset rebuilt from its items can iterate in another order, for the
    old records as for the new.)"""
    for n, o in _pairs():
        copies = [copy.copy(n), copy.deepcopy(n)]
        copies += [pickle.loads(pickle.dumps(n, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies:
            assert type(other) is type(n)
            assert other == n
            assert [getattr(other, f) for f in _fields(o)] == [getattr(n, f) for f in _fields(o)]


def test_rule_caches_its_variables():
    Z, W = Variable("Z"), Variable("W")
    rule = new.Rule("r2", (P_XA, R_Y, Atom("p", (Y, Z))), Atom("q", (X, W)))
    oracle = old.Rule(*rule)
    fresh = hash(rule), repr(rule)
    for name in ("uv", "uv_by_name", "ev"):
        assert getattr(rule, name) == getattr(oracle, name)
        assert getattr(rule, name) is getattr(rule, name)
    assert (hash(rule), repr(rule)) == fresh
    assert rule == new.Rule(*rule)
    for other in (copy.deepcopy(rule), pickle.loads(pickle.dumps(rule))):
        assert other.uv_by_name == rule.uv_by_name and other.ev == rule.ev


def test_replace_checks_like_dataclasses_replace():
    cfg = new.GeneratorConfig()
    assert repr(cfg._replace(max_body_atoms=1)) == \
        repr(dataclasses.replace(old.GeneratorConfig(), max_body_atoms=1))
    assert cfg == new.GeneratorConfig()
    with pytest.raises(ValueError, match="unknown chase mode 'naive'"):
        new.ChaseConfig()._replace(mode="naive")
    with pytest.raises(TypeError):
        cfg._replace(depth=3)


def _packaged_programs():
    root = resources.files("shychase").joinpath("suites")
    for suite in ("paper", "curated"):
        for entry in sorted(root.joinpath(suite).iterdir(), key=lambda e: e.name):
            if entry.name.endswith(".dlp"):
                yield entry.name, parse_program(entry.read_text())


def _as_old(program):
    rules = tuple(old.Rule(*r) for r in program.ontology)
    return old.Program(old.Database(program.database.atoms), old.Ontology(rules),
                       tuple(old.Query(q.disjuncts) for q in program.queries))


def test_parsed_and_rewritten_theories_match_the_old_records():
    """The rules the parser and the rewriting build without checks equal
    those the checked constructor builds, and every record of the packaged
    theories prints, hashes and iterates in sets as the old one did."""
    for name, program in _packaged_programs():
        _, ontoc, _ = rewrite_theory(program.database, program.ontology)
        for onto in (program.ontology, ontoc):
            for rule in onto:
                assert type(rule) is new.Rule
                assert new.Rule(*rule) == rule
                o = old.Rule(*rule)
                assert (hash(rule), repr(rule)) == (hash(o), repr(o)), name
                assert (rule.uv, rule.uv_by_name, rule.ev) == (o.uv, o.uv_by_name, o.ev)
            olds = [old.Rule(*r) for r in onto]
            assert [repr(r) for r in set(onto)] == [repr(r) for r in set(olds)], name
        o = _as_old(program)
        assert repr(program) == repr(o)
        assert hash((program.database, program.ontology, program.queries)) == \
            hash((o.database, o.ontology, o.queries))


def test_what_tuple_records_allow_beyond_the_dataclasses():
    """Declared extras: a tuple-based record equals the plain tuple of its
    fields and unpacks into them; the one-field collections do not."""
    pos = new.Position("p", 2)
    assert pos == ("p", 2) and tuple(pos) == ("p", 2) and len(pos) == 2
    assert old.Position("p", 2) != ("p", 2)
    assert new.Instance(frozenset({P_AA})) != (frozenset({P_AA}),)
    assert new.Ontology() != ()


def test_record_fields_read_their_own_index():
    """A record that declares only `_fields` and `__new__` reads each field
    at its index in `_fields`, and refuses assignment to any of them."""
    from shychase.core import _Record

    class Triple(_Record):
        __slots__ = ()
        _fields = ("first", "second", "third")

        def __new__(cls, first, second, third):
            return tuple.__new__(cls, (first, second, third))

    t = Triple("x", 2, None)
    assert [getattr(t, name) for name in Triple._fields] == ["x", 2, None] == list(t)
    assert Triple(third=3, first=1, second=2).second == 2
    assert repr(t).endswith(".Triple(first='x', second=2, third=None)")
    for name in (*Triple._fields, "fourth"):
        with pytest.raises(AttributeError):
            setattr(t, name, 0)


def test_atom_is_a_record():
    from shychase.core import _Record

    atom = Atom("p", (a,), (1, 1, "c"))
    assert isinstance(atom, _Record) and Atom._fields == ("pred", "args", "shape")
    assert (atom.pred, atom.args, atom.shape) == ("p", (a,), (1, 1, "c"))
    assert atom._replace(pred="q") == Atom("q", (a,), (1, 1, "c"))
    with pytest.raises(ValueError, match=r"expects 1 argument\(s\), got 2"):
        atom._replace(args=(a, b))
    for name in (*Atom._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(atom, name, None)
