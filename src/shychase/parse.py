"""Plain-text parser/printer for programs, plus the JSON emitter.

Grammar (one statement per `.`, `#` starts a line comment):

    fact      p(c1,...,cn).        p.
    rule      a1, ..., an -> exists V1,...,Vk. head.
    query     ? a1, ..., am | b1, ..., bk.

Lowercase identifiers are constants/predicates, uppercase are variables;
`exists` opens the existential clause only before a variable, and otherwise
names the head predicate.  Canonical predicates are written
`base_[l1,...,lm]` with the bracketed shape part of the predicate identity.
Bare numerals are reserved for shape labels and are rejected as terms.

The text is read in one regex scan into token strings, each told apart by
its first character: an atom with no whitespace or comment inside is one
token, whose lists are split at commas and whose predicate text, `p` or
`base_[l1,...,lm]`, is resolved once per call.  On an error the text is read
again with fine tokens only, and that read's error is raised, its position
computed only then, by scanning again up to its token.  Terms are interned
per statement, and the i-th rule's variables are read as `X#i`, so distinct
rules share no variable.  `to_jsonable` gives the JSON form of a program or
instance, and `json_text` writes any JSON form as the stdlib's indented,
key-sorted `json.dumps` does.
"""

from __future__ import annotations

import re
from itertools import islice
from json.encoder import encode_basestring_ascii as _quoted

from .core import (Atom, Constant, Database, Instance, Null, Ontology, Query,
                   Rule, Variable, _atom, _Record, _rule)

JSON_SCHEMA = "shychase/1"


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class Program(_Record):
    __slots__ = ()
    _fields = ("database", "ontology", "queries")

    def __new__(cls, database: Database, ontology: Ontology, queries: tuple = ()):
        return tuple.__new__(cls, (database, ontology, queries))


_TOKENS = r"->|\d+|[a-z]\w*|[A-Z]\w*|[()\[\],.|?]"
# An atom with no whitespace or comment inside, as one token: a name, an
# optional `[labels]` if it ends in `_` and optional `(terms)`, each item one
# word token of `_TOKENS`, and each label one of the kinds the grammar takes.
_LABELS = r"(?:(?:\d+|[a-z]\w*)(?:,(?:\d+|[a-z]\w*))*)?"
_TERMS = r"(?:(?:\d+|[a-zA-Z]\w*)(?:,(?:\d+|[a-zA-Z]\w*))*)?"
_ATOM = rf"[a-z]\w*(?:(?<=_)\[{_LABELS}\])?(?:\({_TERMS}\))?"
# Each match skips the whitespace and comments before a token and captures
# the token in group 1: a token of a kind above, any other character alone
# (a bad one), or the empty string at the end of the text (end of input);
# `_TOKEN_RE` reads fine tokens only.
_TOKEN_RE = re.compile(rf"\s*(?:#[^\n]*\s*)*({_TOKENS}|.|\Z)", re.DOTALL)
_ATOM_TOKEN_RE = re.compile(rf"\s*(?:#[^\n]*\s*)*({_ATOM}|{_TOKENS}|.|\Z)", re.DOTALL)
_GOOD_RE = re.compile(rf"(?:{_TOKENS})?")


def _is_var(t: str) -> bool:
    return "A" <= t[:1] <= "Z"


class _Parser:
    def __init__(self, text: str, fine: bool = False):
        self.text, self.token_re = text, _TOKEN_RE if fine else _ATOM_TOKEN_RE
        self.toks = toks = self.token_re.findall(text)
        self.i = 0
        self.arities, self.heads, self.terms, self.suffix = {}, {}, {}, ""
        # The grammar checks every token it consumes, so only the fine read,
        # which places errors, needs to look for a bad character.
        bad = [t for t in set(toks) if not _GOOD_RE.fullmatch(t)] if fine else ()
        if bad:
            k = min(map(toks.index, bad))
            self.error(f"unexpected character {toks[k]!r}", k)

    def error(self, message, k=None):
        """Raise ParseError at the 1-based line and column of token k (by
        default the next one); only errors need an offset, so it comes from
        scanning the text again up to that token."""
        m = next(islice(self.token_re.finditer(self.text), self.i if k is None else k, None))
        offset = m.start(1)
        line_start = self.text.rfind("\n", 0, offset) + 1
        raise ParseError(message, self.text.count("\n", 0, offset) + 1, offset - line_start + 1)

    def expect(self, text):
        t = self.toks[self.i]
        self.i += 1
        if t != text:
            self.error(f"expected {text!r}, found {t or 'end of input'!r}", self.i - 1)

    def term(self, t, k):
        """The term that text t at token k names, read for the first time in
        this statement; terms are interned per statement."""
        c = t[:1]
        if "A" <= c <= "Z":
            term = Variable(t + self.suffix)
        elif "a" <= c <= "z":
            term = Constant(t)
        elif c.isdecimal():
            self.error("numeric terms are reserved for shape labels", k)
        else:
            self.error(f"expected a term, found {t or 'end of input'!r}", k)
        self.terms[t] = term
        return term

    def parse_label(self) -> int:
        k = self.i
        c = self.toks[k][:1]
        if not ("a" <= c <= "z" or c.isdecimal()):
            self.error("shape labels are positive integers or constants", k)
        self.i = k + 1
        return k

    def shape(self, texts, ks):
        """The shape that label texts write (at tokens ks) and its μ: the
        number of distinct integer labels, each of which lies in 1..μ."""
        labels = tuple([int(t) if t[0].isdecimal() else t for t in texts])
        ints = {l for l in labels if isinstance(l, int)}
        mu = len(ints)
        if ints and (min(ints) < 1 or max(ints) > mu):
            for t, k, l in zip(texts, ks, labels):
                if isinstance(l, int) and not 1 <= l <= mu:
                    self.error(f"shape label {t} is not in 1..{mu}", k)
        return labels, mu

    def parse_shape(self):
        """`[l1,...,lm]` read token by token, or `[]` for a 0-ary
        canonical atom."""
        toks = self.toks
        self.expect("[")
        ks = []
        if toks[self.i] != "]":
            ks.append(self.parse_label())
            while toks[self.i] == ",":
                self.i += 1
                ks.append(self.parse_label())
        self.expect("]")
        return self.shape([toks[k] for k in ks], ks)

    def head(self, text, k):
        """(name, shape, μ) of `p`, or of `base_[l1,...,lm]` in an atom token,
        the predicate text of token k; each is resolved once per parser."""
        if not "a" <= text[:1] <= "z":
            self.error(f"expected a predicate, found {self.toks[k] or 'end of input'!r}", k)
        name, bracket, labels = text.partition("[")
        if bracket:
            texts = labels[:-1].split(",") if labels != "]" else []
            h = (name[:-1], *self.shape(texts, [k] * len(texts)))
        else:
            h = name, None, 0
        self.heads[text] = h
        return h

    def parse_atom(self) -> Atom:
        """An atom, read as one token if it is one, else token by token."""
        toks, k = self.toks, self.i
        t, paren, inner = toks[k].partition("(")
        name, shape, mu = self.heads.get(t) or self.head(t, k)
        i = self.i = k + 1
        args = ()
        if paren:
            if inner != ")":
                get = self.terms.get
                args = tuple([get(s) or self.term(s, k) for s in inner[:-1].split(",")])
        else:
            if shape is None and toks[i] == "[":
                if not name.endswith("_"):
                    self.error("canonical predicates are written base_[...]", k)
                name = name[:-1]
                shape, mu = self.parse_shape()
                i = self.i
            if toks[i] == "(":
                if toks[i + 1] == ")":
                    i += 2
                else:
                    get, terms = self.terms.get, []
                    while True:
                        terms.append(get(toks[i + 1]) or self.term(toks[i + 1], i + 1))
                        i += 2
                        if toks[i] != ",":
                            break
                    self.i = i
                    self.expect(")")
                    i, args = self.i, tuple(terms)
            self.i = i
        # A shape fixes its predicate's arity, so only plain predicates can
        # change arity between atoms.
        if shape is not None:
            if mu != len(args):
                self.error(f"shape [{','.join(map(str, shape))}] expects {mu} argument(s)", k)
        elif self.arities.setdefault(name, len(args)) != len(args):
            self.error(f"predicate {name!r} used with arity {len(args)}, "
                       f"previously {self.arities[name]}", k)
        return _atom(name, args, shape)

    def parse_atom_list(self):
        atoms = [self.parse_atom()]
        while self.toks[self.i] == ",":
            self.i += 1
            atoms.append(self.parse_atom())
        return atoms

    def parse_query(self) -> Query:
        self.expect("?")
        disjuncts = [tuple(self.parse_atom_list())]
        while self.toks[self.i] == "|":
            self.i += 1
            disjuncts.append(tuple(self.parse_atom_list()))
        self.expect(".")
        return Query(tuple(disjuncts))

    def parse_statement(self, facts, rules, queries):
        toks, start = self.toks, self.i
        self.terms = {}
        if toks[start] == "?":
            self.suffix = ""
            queries.append(self.parse_query())
            return
        # Named as the next rule's: a statement that turns out to be a fact
        # fails if it holds a variable at all, and no message shows a suffix.
        self.suffix = f"#{len(rules) + 1}"
        atoms = self.parse_atom_list()
        t = toks[self.i]
        self.i += 1
        if t == ".":
            if len(atoms) != 1:
                self.error("a fact is a single atom", start)
            if Variable in map(type, atoms[0].args):
                self.error("facts must be variable-free", start)
            facts.append(atoms[0])
            return
        if t != "->":
            self.error(f"expected '->' or '.', found {t or 'end of input'!r}", self.i - 1)
        terms, n_body, evs = self.terms, len(self.terms), []
        if toks[self.i] == "exists" and _is_var(toks[self.i + 1]):
            self.i += 1
            while True:
                t = toks[self.i]
                evs.append(terms.get(t) or self.term(t, self.i))
                self.i += 1
                if toks[self.i] != ",":
                    break
                self.i += 1
                if not _is_var(toks[self.i]):
                    self.error("expected a variable after 'exists'")
            self.expect(".")
        n_read, head_k = len(terms), self.i
        head = self.parse_atom()
        self.expect(".")
        # Terms are kept in the order first read, so only a term first read
        # in the head, or an 'exists' variable read before, can be misplaced.
        if len(terms) > n_read or n_read - n_body < len(evs):
            body_terms = set(islice(terms.values(), n_body))
            for v in head.variables():
                if v not in body_terms and v not in evs:
                    self.error(f"head variable {print_term(v)} is neither universal nor "
                               "listed in 'exists'", head_k)
            for v in evs:
                if v in body_terms:
                    self.error(f"'exists' variable {print_term(v)} also occurs in the body",
                               head_k)
        # Every head variable is universal or listed, and no listed one is
        # universal, so the existential variables are the listed ones in the head.
        rules.append(_rule(f"r{len(rules) + 1}", tuple(atoms), head,
                           frozenset(evs).intersection(head.args)))

    def parse_program(self) -> Program:
        facts, rules, queries = [], [], []
        while self.toks[self.i]:
            self.parse_statement(facts, rules, queries)
        return Program(Database(frozenset(facts)), Ontology(tuple(rules)), tuple(queries))

    def parse_single_query(self) -> Query:
        q = self.parse_query()
        if self.toks[self.i]:
            self.error("trailing input after query")
        return q


def _read(text: str, parse):
    """`parse` applied to a parser of `text` with atom tokens.  Only fine
    tokens tell where an error lies, so on a ParseError the text is read
    again with those, and that read's result or error stands."""
    try:
        return parse(_Parser(text))
    except ParseError:
        return parse(_Parser(text, fine=True))


def parse_program(text: str) -> Program:
    return _read(text, _Parser.parse_program)


def parse_query(text: str) -> Query:
    """Parse a single `? ...` statement."""
    return _read(text, _Parser.parse_single_query)


# ---------------------------------------------------------------------------
# printing


def written_name(name: str) -> str:
    """A variable's name as written: the parser reads the i-th rule's `X`
    as `X#i`, and no output shows the suffix."""
    return name.split("#", 1)[0]


def print_term(t) -> str:
    if isinstance(t, Constant):
        return t.name
    if isinstance(t, Null):
        return f"_:n{t.id}"
    if isinstance(t, Variable):
        return written_name(t.name)
    return str(t)


def print_atom(atom: Atom) -> str:
    if not atom.args:
        return atom.predicate_name
    return f"{atom.predicate_name}({','.join(print_term(t) for t in atom.args)})"


def print_rule(rule: Rule) -> str:
    return _rule_text(rule, print_atom)


def _rule_text(rule: Rule, atom_text) -> str:
    """The rule as printed, each atom's text given by atom_text."""
    body = ", ".join(map(atom_text, rule.body))
    evs = sorted(v.name for v in rule.ev)
    ex = ""
    if evs:
        ex = "exists " + ",".join(map(written_name, evs)) + ". "
    return f"{body} -> {ex}{atom_text(rule.head)}."


class _AtomTexts(dict):
    """Each atom's text, made on its first lookup."""

    __slots__ = ()

    def __missing__(self, atom):
        text = self[atom] = print_atom(atom)
        return text


def print_query(q: Query) -> str:
    return "? " + " | ".join(", ".join(print_atom(a) for a in d) for d in q.disjuncts) + "."


def print_program(p: Program) -> str:
    lines = [print_atom(a) + "." for a in sorted(p.database, key=Atom.sort_key)]
    # Canonical variants of one rule share atoms: render each distinct one once.
    atom_text = _AtomTexts().__getitem__
    lines += [_rule_text(r, atom_text) for r in p.ontology]
    lines += [print_query(q) for q in p.queries]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# JSON


def _term_json(t):
    if isinstance(t, Constant):
        return {"const": t.name}
    if isinstance(t, Null):
        return {"null": t.id}
    if isinstance(t, Variable):
        return {"var": t.name}
    return {"null": print_term(t)}


def _atom_json(a: Atom):
    out = {"pred": a.pred, "args": [_term_json(t) for t in a.args]}
    if a.shape is not None:
        out["shape"] = list(a.shape)
    return out


def _rule_json(r: Rule):
    return {"id": r.id, "body": [_atom_json(a) for a in r.body], "head": _atom_json(r.head)}


def to_jsonable(obj):
    if isinstance(obj, Program):
        return {
            "schema": JSON_SCHEMA,
            "kind": "program",
            "database": [_atom_json(a) for a in sorted(obj.database, key=Atom.sort_key)],
            "rules": [_rule_json(r) for r in obj.ontology],
            "queries": [
                [[_atom_json(a) for a in d] for d in q.disjuncts] for q in obj.queries
            ],
        }
    if isinstance(obj, (Instance, Database)):
        return {
            "schema": JSON_SCHEMA,
            "kind": "instance" if isinstance(obj, Instance) else "database",
            "atoms": [_atom_json(a) for a in sorted(obj, key=Atom.sort_key)],
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_text(v, indent: str = "\n") -> str:
    """`json.dumps(v, indent=2, sort_keys=True)`, byte for byte, on None, bools,
    ints, floats, strings, and lists, tuples and string-keyed dicts of them,
    without the stdlib's pure-Python encoder; TypeError on any other type."""
    if isinstance(v, str):
        return _quoted(v)
    inner = indent + "  "
    if isinstance(v, dict):
        parts, ends = [_quoted(k) + ": " + json_text(x, inner) for k, x in sorted(v.items())], "{}"
    elif isinstance(v, (list, tuple)):
        parts, ends = [json_text(x, inner) for x in v], "[]"
    elif v is None or isinstance(v, bool):
        return "null" if v is None else "true" if v else "false"
    elif isinstance(v, int):
        return int.__repr__(v)
    elif isinstance(v, float):
        text = float.__repr__(v)
        return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)
    else:
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
    return ends[0] + inner + ("," + inner).join(parts) + indent + ends[1] if parts else ends
