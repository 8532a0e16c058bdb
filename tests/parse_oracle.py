"""The token-object parser, kept as the reference oracle for
`shychase.parse`: one `_Token` per regex match, positions carried on every
token, and rule variables renamed by `_freshen` after the program is read.
`test_parse_oracle.py` checks that both parsers give equal programs or the
same error."""

from __future__ import annotations

import re
from dataclasses import dataclass

from shychase.core import Atom, Constant, Database, Ontology, Query, Rule, Variable
from shychase.parse import ParseError, Program

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow>->)
  | (?P<int>\d+)
  | (?P<ident>[a-z]\w*)
  | (?P<var>[A-Z]\w*)
  | (?P<punct>[()\[\],.|?])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


@dataclass
class _Token:
    kind: str
    text: str
    offset: int


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = [_Token(m.lastgroup, m.group(), m.start())
                     for m in _TOKEN_RE.finditer(text) if m.lastgroup not in ("ws", "comment")]
        self.toks.append(_Token("eof", "", len(text)))
        self.i = 0
        self.arities: dict = {}
        bad = next((t for t in self.toks if t.kind == "bad"), None)
        if bad:
            self.error(f"unexpected character {bad.text!r}", bad)

    def peek(self) -> _Token:
        return self.toks[self.i]

    def next(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def error(self, message, tok=None):
        """Raise ParseError at tok's 1-based line and column, counted from its offset."""
        offset = (tok or self.peek()).offset
        line_start = self.text.rfind("\n", 0, offset) + 1
        raise ParseError(message, self.text.count("\n", 0, offset) + 1, offset - line_start + 1)

    def expect(self, text):
        t = self.next()
        if t.text != text:
            self.error(f"expected {text!r}, found {t.text or 'end of input'!r}", t)
        return t

    def check_arity(self, atom: Atom, tok: _Token):
        name = atom.predicate_name
        seen = self.arities.setdefault(name, atom.arity)
        if seen != atom.arity:
            self.error(
                f"predicate {name!r} used with arity {atom.arity}, previously {seen}", tok
            )

    def parse_term(self):
        t = self.next()
        if t.kind == "ident":
            return Constant(t.text)
        if t.kind == "var":
            return Variable(t.text)
        if t.kind == "int":
            self.error("numeric terms are reserved for shape labels", t)
        self.error(f"expected a term, found {t.text or 'end of input'!r}", t)

    def parse_label(self) -> _Token:
        t = self.next()
        if t.kind not in ("int", "ident"):
            self.error("shape labels are positive integers or constants", t)
        return t

    def parse_shape(self):
        """`[l1,...,lm]`, or `[]` for a 0-ary canonical atom; the integer
        labels lie in 1..μ, μ the number of distinct integer labels."""
        self.expect("[")
        tokens = []
        if self.peek().text != "]":
            tokens.append(self.parse_label())
            while self.peek().text == ",":
                self.next()
                tokens.append(self.parse_label())
        self.expect("]")
        mu = len({int(t.text) for t in tokens if t.kind == "int"})
        for t in tokens:
            if t.kind == "int" and not 1 <= int(t.text) <= mu:
                self.error(f"shape label {t.text} is not in 1..{mu}", t)
        return tuple(int(t.text) if t.kind == "int" else t.text for t in tokens)

    def parse_atom(self) -> Atom:
        tok = self.next()
        if tok.kind != "ident":
            self.error(f"expected a predicate, found {tok.text or 'end of input'!r}", tok)
        name, shape = tok.text, None
        if self.peek().text == "[":
            if not name.endswith("_"):
                self.error("canonical predicates are written base_[...]", tok)
            name = name[:-1]
            shape = self.parse_shape()
        args = ()
        if self.peek().text == "(":
            self.next()
            if self.peek().text == ")":
                self.next()
            else:
                terms = [self.parse_term()]
                while self.peek().text == ",":
                    self.next()
                    terms.append(self.parse_term())
                self.expect(")")
                args = tuple(terms)
        if shape is not None:
            mu = len({l for l in shape if isinstance(l, int)})
            if mu != len(args):
                self.error(f"shape [{','.join(map(str, shape))}] expects {mu} argument(s)", tok)
        atom = Atom(name, args, shape)
        self.check_arity(atom, tok)
        return atom

    def parse_atom_list(self):
        atoms = [self.parse_atom()]
        while self.peek().text == ",":
            self.next()
            atoms.append(self.parse_atom())
        return atoms

    def parse_query(self) -> Query:
        self.expect("?")
        disjuncts = [tuple(self.parse_atom_list())]
        while self.peek().text == "|":
            self.next()
            disjuncts.append(tuple(self.parse_atom_list()))
        self.expect(".")
        return Query(tuple(disjuncts))

    def parse_statement(self, facts, rules, queries):
        if self.peek().text == "?":
            queries.append(self.parse_query())
            return
        start = self.peek()
        atoms = self.parse_atom_list()
        t = self.next()
        if t.text == ".":
            if len(atoms) != 1:
                self.error("a fact is a single atom", start)
            atom = atoms[0]
            if any(isinstance(a, Variable) for a in atom.args):
                self.error("facts must be variable-free", start)
            facts.append(atom)
            return
        if t.text != "->":
            self.error(f"expected '->' or '.', found {t.text or 'end of input'!r}", t)
        evs = []
        if self.peek().text == "exists":
            self.next()
            while True:
                vt = self.next()
                if vt.kind != "var":
                    self.error("expected a variable after 'exists'", vt)
                evs.append(Variable(vt.text))
                if self.peek().text == ",":
                    self.next()
                else:
                    break
            self.expect(".")
        head_tok = self.peek()
        head = self.parse_atom()
        self.expect(".")
        body_vars = {v for a in atoms for v in a.variables()}
        for v in head.variables():
            if v not in body_vars and v not in evs:
                self.error(f"head variable {v.name} is neither universal nor listed in 'exists'",
                           head_tok)
        for v in evs:
            if v in body_vars:
                self.error(f"'exists' variable {v.name} also occurs in the body", head_tok)
        rules.append((tuple(atoms), head))

    def parse_program(self) -> Program:
        facts, rules, queries = [], [], []
        while self.peek().kind != "eof":
            self.parse_statement(facts, rules, queries)
        onto = Ontology(tuple(
            _freshen(Rule(f"r{i + 1}", body, head), i + 1)
            for i, (body, head) in enumerate(rules)
        ))
        return Program(Database(frozenset(facts)), onto, tuple(queries))


def _freshen(rule: Rule, index: int) -> Rule:
    """Rename variables X -> X#index so distinct rules share no variable."""
    sub = {v: Variable(f"{v.name}#{index}") for a in rule.atoms() for v in a.variables()}

    def rn(atom):
        return Atom(atom.pred, tuple(sub.get(t, t) for t in atom.args), atom.shape)

    return Rule(rule.id, tuple(rn(a) for a in rule.body), rn(rule.head))


def parse_program(text: str) -> Program:
    return _Parser(text).parse_program()


def parse_query(text: str) -> Query:
    """Parse a single `? ...` statement."""
    p = _Parser(text)
    q = p.parse_query()
    if p.peek().kind != "eof":
        p.error("trailing input after query")
    return q
