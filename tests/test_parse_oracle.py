"""Differential test of `shychase.parse` against the token-object parser kept
in `parse_oracle.py`: on every input both give equal programs, or the same
`ParseError` text, line and column.

Inputs: every packaged `.dlp`, the printed canonical rewritings of seeded
random theories, and seeded mutations of both (inserts, deletes and swaps of
comment marks, arrows, shape brackets, `exists`, non-ASCII letters and
digits, and punctuation).  Each of these texts is also spread out, with a
space, newline or comment line between every two tokens: `shychase.parse`
reads a lexically clean atom as one token, and only a spread-out atom takes
its token-by-token path.  Its atom-token read, without the fine-token read
it falls back to on an error, is also checked against that fine read.

One carve-out, a deliberate change: the oracle reads `exists` after `->` as
the keyword even when no variable follows, and fails with "expected a
variable after 'exists'" at the next token.  `shychase.parse` reads such an
`exists` as the head predicate.  Where the oracle fails that way at the token
right after `-> exists`, the two outcomes are only required to differ."""

import random
from importlib import resources

import pytest

import parse_oracle
from shychase.canonical import rewrite_theory
from shychase.core import Query
from shychase.generate import default_config, random_program
from shychase.parse import (ParseError, Program, _Parser, parse_program, parse_query,
                            print_program)

SUITES = resources.files("shychase").joinpath("suites")
PACKAGED = sorted((entry.name, entry.read_text())
                  for suite in ("paper", "curated")
                  for entry in SUITES.joinpath(suite).iterdir() if entry.name.endswith(".dlp"))
PIECES = ("#", "->", "_[", "exists ", "é", "٣", "(", ")", "[", "]", ",", ".", "|", "?",
          " ", "\n", "X", "c")
MUTANTS = 30
SEEDS = range(25)
SEPARATORS = (" ", "\n", "\n# c\n")


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as err:
        return str(err), err.line, err.col


def rewritten(seed: int) -> str:
    """The printed canonical rewriting of random theory `seed`, with one
    query: the first rule's head."""
    program = random_program(seed, default_config())
    query = Query(((program.ontology.rules[0].head,),))
    return print_program(Program(*rewrite_theory(program.database, program.ontology, [query])))


def mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        move = rng.choice(("insert", "delete", "swap"))
        if move == "insert":
            text = text[:at] + rng.choice(PIECES) + text[at:]
        elif move == "delete":
            text = text[:at] + text[at + rng.randint(1, 4):]
        else:
            a, b = sorted((at, rng.randrange(len(text) + 1)))
            n = rng.randint(1, 3)
            if a + n <= b:
                text = text[:a] + text[b:b + n] + text[a + n:b] + text[a:a + n] + text[b + n:]
    return text


def exists_as_head(text: str, line: int, col: int) -> bool:
    """True iff the oracle's error token directly follows `-> exists`."""
    offset = sum(len(l) + 1 for l in text.split("\n")[:line - 1]) + col - 1
    toks = parse_oracle._Parser(text).toks
    k = next(k for k, t in enumerate(toks) if t.offset == offset)
    return [t.text for t in toks[max(k - 2, 0):k]] == ["->", "exists"]


def check_agree(texts, parse=parse_program, oracle=parse_oracle.parse_program):
    carved = 0
    for text in texts:
        new, old = outcome(parse, text), outcome(oracle, text)
        if (isinstance(old, tuple) and "expected a variable after 'exists'" in old[0]
                and exists_as_head(text, old[1], old[2])):
            carved += 1
            assert new != old, text
        else:
            assert new == old, text
    return carved


def with_mutants(text: str, seed: int) -> list:
    rng = random.Random(seed)
    return [text, *(mutate(text, rng) for _ in range(MUTANTS))]


def spread(text: str, seed: int) -> str:
    """`text` with its comments dropped and a space, a newline or a `# c`
    comment line between every two tokens, inside atoms too."""
    rng = random.Random(seed)
    toks = [m.group() for m in parse_oracle._TOKEN_RE.finditer(text)
            if m.lastgroup not in ("ws", "comment")]
    return "".join(t + rng.choice(SEPARATORS) for t in toks)


def read(text, fine):
    """The outcome of one read of `text`, atom tokens or fine tokens, with
    no fallback from the one to the other."""
    return outcome(lambda t: _Parser(t, fine=fine).parse_program(), text)


def check_reads_agree(texts):
    """Both reads give equal programs, or both fail; the fine read's error
    is the one `parse_program` reports, so only its position is checked."""
    for text in texts:
        coarse, fine = read(text, False), read(text, True)
        assert isinstance(coarse, Program) == isinstance(fine, Program), text
        if isinstance(fine, Program):
            assert coarse == fine, text


@pytest.mark.parametrize("name, text", PACKAGED, ids=[name for name, _ in PACKAGED])
def test_packaged_programs_parse_as_the_oracle_does(name, text):
    assert isinstance(parse_program(text), Program)
    check_agree(with_mutants(text, sum(map(ord, name))))


@pytest.mark.parametrize("seed", SEEDS)
def test_rewritten_theories_parse_as_the_oracle_does(seed):
    check_agree(with_mutants(rewritten(seed), seed))


@pytest.mark.parametrize("name, text", PACKAGED, ids=[name for name, _ in PACKAGED])
def test_spread_packaged_programs_parse_as_compact_and_as_the_oracle(name, text):
    seed = sum(map(ord, name))
    spread_text = spread(text, seed)
    assert parse_program(spread_text) == parse_program(text)
    check_agree(with_mutants(spread_text, seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_spread_rewritten_theories_parse_as_compact_and_as_the_oracle(seed):
    text = rewritten(seed)
    spread_text = spread(text, seed)
    assert parse_program(spread_text) == parse_program(text)
    check_agree(with_mutants(spread_text, seed))


@pytest.mark.parametrize("name, text", PACKAGED, ids=[name for name, _ in PACKAGED])
def test_packaged_programs_read_alike_with_atom_and_fine_tokens(name, text):
    seed = sum(map(ord, name))
    assert isinstance(read(text, False), Program)
    check_reads_agree(with_mutants(text, seed) + with_mutants(spread(text, seed), seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_rewritten_theories_read_alike_with_atom_and_fine_tokens(seed):
    text = rewritten(seed)
    assert isinstance(read(text, False), Program)
    check_reads_agree(with_mutants(text, seed) + with_mutants(spread(text, seed), seed))


def test_queries_parse_as_the_oracle_does():
    rng = random.Random(0)
    queries = ["? p(X).", "? p(X), q(X,c) | r.", "? p_[1,c](X) | q(X).", "? p(X). q(c)."]
    check_agree([q for text in queries for q in [text, *(mutate(text, rng) for _ in range(50))]],
                parse_query, parse_oracle.parse_query)


def test_the_carve_out_covers_exists_as_a_head_predicate_only():
    texts = ["p(a). p(X) -> exists(X).", "p -> exists.", "p -> exists c.",
             "p(X) -> exists Y, c. q(Y).", "p(X) -> exists Y. exists(Y)."]
    assert [check_agree([text]) for text in texts] == [1, 1, 1, 0, 0]
