"""CLI behavior: exit codes, JSON determinism, command output."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shychase import cli, harness
from shychase.chase import OBLIVIOUS, ChaseConfig, entails
from shychase.cli import main
from shychase.parse import parse_program

FATHER = """
p(c1).
p(c2).
f(c1,c2).
p(X) -> exists Y. f(Y,X).
f(X,Y) -> p(X).
? p(X), f(X,c1).
"""


@pytest.fixture
def father_file(tmp_path):
    path = tmp_path / "father.dlp"
    path.write_text(FATHER)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_reports_fragments(father_file, capsys):
    code, out, _ = run(capsys, "classify", father_file)
    assert code == 0
    assert "shy: yes" in out
    assert "datalog: no" in out


def test_classify_json_is_deterministic(father_file, capsys):
    code, first, _ = run(capsys, "classify", father_file, "--json")
    assert code == 0
    code, second, _ = run(capsys, "classify", father_file, "--json")
    assert first == second
    payload = json.loads(first)
    assert payload["shy"]["holds"] is True


def test_chase_respects_bounds(father_file, capsys):
    code, out, _ = run(capsys, "chase", father_file, "--max-atoms", "10",
                       "--max-rounds", "3")
    assert code == 0
    assert "terminated: False" in out
    assert "f(_:n1,c1)" in out


def test_answer_runs_one_chase_for_all_queries(tmp_path, capsys, monkeypatch):
    text = FATHER + "? f(c1,c1).\n"
    path = tmp_path / "two.dlp"
    path.write_text(text)
    calls = []
    real_chase = cli.run_chase

    def counting_chase(*args):
        calls.append(args)
        return real_chase(*args)

    monkeypatch.setattr(cli, "run_chase", counting_chase)
    code, out, _ = run(capsys, "answer", str(path), "--json", "--max-atoms", "10")
    assert code == 0
    assert len(calls) == 1
    program = parse_program(text)
    cfg = ChaseConfig(OBLIVIOUS, 10, 500)
    expected = [entails(program.database, program.ontology, q, cfg).verdict.value
                for q in program.queries]
    assert [item["verdict"] for item in json.loads(out)] == expected == ["true", "unknown"]


def test_answer_reports_verdicts(father_file, capsys):
    code, out, _ = run(capsys, "answer", father_file, "--restricted")
    assert code == 0
    assert "=> true" in out


def test_answer_without_queries_is_usage_error(tmp_path, capsys):
    path = tmp_path / "noq.dlp"
    path.write_text("p(c).\n")
    code, _, err = run(capsys, "answer", str(path))
    assert code == 2
    assert "no queries" in err


def test_rewrite_emits_canonical_rules(father_file, capsys):
    code, out, _ = run(capsys, "rewrite", father_file, "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rules"]) == 13
    assert payload["database"]


def test_rewrite_partition_splits_rules(father_file, capsys):
    code, out, _ = run(capsys, "rewrite", father_file, "--partition")
    assert code == 0
    assert "# active" in out and "# harmless" in out


def test_fc_check_finds_countermodel(tmp_path, capsys):
    path = tmp_path / "toy.dlp"
    path.write_text("p(c). p(X) -> exists Y. f(Y,X). ? f(c,c).\n")
    code, out, _ = run(capsys, "fc-check", str(path), "--max-nulls", "2",
                       "--max-atoms", "6")
    assert code == 0
    assert "countermodel" in out
    code, _, err = run(capsys, "fc-check", str(path), "--query", "9")
    assert code == 2
    assert "out of range" in err


def test_fc_check_finds_a_countermodel_where_the_chase_never_ends(tmp_path, capsys):
    """The chase of this father variant grows a chain of nulls forever, so
    `answer` cannot decide the query in either mode, and the bounded chase
    that `fc-check` runs first must leave the search to find the
    countermodel."""
    path = tmp_path / "father_loop.dlp"
    path.write_text(FATHER.replace("? p(X), f(X,c1).", "? f(X,X)."))
    for mode in ([], ["--restricted"]):
        code, out, _ = run(capsys, "answer", str(path), "--json", *mode)
        assert code == 0
        assert json.loads(out) == [{"query": "? f(X,X).", "verdict": "unknown"}]
    code, out, _ = run(capsys, "fc-check", str(path), "--json")
    assert code == 0
    atoms = json.loads(out)["countermodel"]["atoms"]
    assert [(a["pred"], [t["const"] for t in a["args"]]) for a in atoms] == [
        ("f", ["c1", "c2"]), ("f", ["c2", "c1"]), ("p", ["c1"]), ("p", ["c2"])]


@pytest.mark.parametrize("argv", [
    ("chase", "--max-atoms", "0"),
    ("answer", "--max-rounds", "0"),
    ("fc-check", "--max-nulls", "-1"),
    ("fc-check", "--max-atoms", "0"),
])
def test_rejected_bound_exits_2(father_file, capsys, argv):
    command, *flags = argv
    code, out, err = run(capsys, command, father_file, *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_rewrite_of_shaped_input_exits_2(tmp_path, father_file, capsys):
    """A shaped atom cannot be canonicalised again; `rewrite` reports it as
    an input error, in a fact, a rule body, a rule head or a query of a
    hand-written file and on its own output, naming the first such atom
    as it is written in a `.dlp` file."""
    code, rewritten, _ = run(capsys, "rewrite", father_file)
    assert code == 0
    for name, text, atom in (("shaped.dlp", "p_[1](a).\n", "p_[1](a)"),
                             ("repeated.dlp", "p_[1,1](a).\n", "p_[1,1](a)"),
                             ("body.dlp", "p_[1](X) -> q_[1,1](X).\n? q_[1,1](X).\n", "p_[1](X)"),
                             ("head.dlp", "p(X) -> q_[1](X).\n", "q_[1](X)"),
                             ("query.dlp", "p(c).\n? q_[1,1](X).\n", "q_[1,1](X)"),
                             ("rewritten.dlp", rewritten, "f_[c1,c2]")):
        path = tmp_path / name
        path.write_text(text)
        for flags in ((), ("--partition",), ("--json",)):
            code, out, err = run(capsys, "rewrite", str(path), *flags)
            assert code == 2
            assert out == ""
            assert err == f"error: atom {atom} already carries a shape\n"


def test_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.dlp"
    path.write_text("p(c")
    code, _, err = run(capsys, "classify", str(path))
    assert code == 2
    assert "parse error" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "classify", "/nonexistent/x.dlp")
    assert code == 2


@pytest.mark.parametrize("command", ["classify", "chase", "answer", "rewrite", "fc-check"])
def test_input_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    """Input is read as UTF-8 whatever the locale; an undecodable byte is an
    input error, not a crash."""
    path = tmp_path / "latin1.dlp"
    path.write_bytes(b"p(a\xff).\n? p(a).\n")
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: not UTF-8 text (invalid start byte at byte 3)\n"


@pytest.mark.parametrize("command, where", [
    ("chase", "body"), ("answer", "body"), ("rewrite", "body"), ("fc-check", "body"),
    ("answer", "query"), ("rewrite", "query"), ("fc-check", "query"),
])
def test_input_too_long_for_the_recursion_limit_exits_2(tmp_path, capsys, command, where):
    """A chain of recursion limit + 200 atoms in a rule body or a query
    disjunct overflows the searches and the substitution enumerator, which
    recurse once per atom or variable: an input error, exit 2, and not a
    traceback with exit 1."""
    chain = ", ".join(f"e(X{i},X{i + 1})" for i in range(sys.getrecursionlimit() + 200))
    text = {"body": f"e(a,a). {chain} -> q(X0). ? q(X).", "query": f"e(a,a). ? {chain}."}
    path = tmp_path / "long.dlp"
    path.write_text(text[where])
    code, _, err = run(capsys, command, str(path))
    assert code == 2
    assert err.startswith("error: input too long")


def test_usage_error_exits_2(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_help_exits_0(capsys):
    code, _, _ = run(capsys, "--help")
    assert code == 0


def test_harness_suite_choices_are_the_harness_suites(capsys):
    """The CLI lists the suites without importing the harness; they must
    stay the harness's own."""
    assert cli._SUITES == sorted(harness.SUITES)
    code, _, err = run(capsys, "harness", "--suite", "nope")
    assert code == 2
    choices = ", ".join(map(repr, sorted(harness.SUITES)))
    assert f"invalid choice: 'nope' (choose from {choices})" in err


def test_harness_paper_suite_passes(capsys):
    code, out, _ = run(capsys, "harness", "--suite", "paper")
    assert code == 0
    assert out.count("[PASS]") == 3


# restricted and oblivious chase disagree on the second query, and only the
# second query has a finite countermodel
TWO_QUERIES = """
p(a).
f(a,a).
p(X) -> exists Y. f(X,Y).
f(X,Y) -> p(Y).
? f(a,a).
? q(a).
"""


def test_reused_parser_matches_a_fresh_one(tmp_path, capsys, monkeypatch):
    """[DERIVED] Calls in one process that share the cached parser give the
    same exit code, stdout and stderr as a parser built for each call:
    no flag, mode or error carries over to the next call."""
    path = tmp_path / "two.dlp"
    path.write_text(TWO_QUERIES)
    file = str(path)
    sequence = [
        ("answer", file, "--restricted", "--max-atoms", "10"),
        ("answer", file, "--max-atoms", "10"),
        ("fc-check", file, "--query", "2"),
        ("fc-check", file),
        ("chase", file, "--bogus"),
        ("classify", file, "--json"),
        ("--help",),
        ("rewrite", file, "--partition"),
        ("answer", file, "--max-atoms", "10"),
    ]
    cached = [run(capsys, *argv) for argv in sequence]
    fresh_parser = getattr(cli.build_parser, "__wrapped__", cli.build_parser)
    monkeypatch.setattr(cli, "build_parser", fresh_parser)
    fresh = [run(capsys, *argv) for argv in sequence]
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 0, 0, 0, 2, 0, 0, 0, 0]
    assert cached[0][1] != cached[1][1]  # restricted, then oblivious
    assert cached[2][1] != cached[3][1]  # query 2, then the default query 1


def _dispatch_corpus(file, missing):
    """Command lines for every route of `main`'s parse: help, errors inside a
    command's arguments, and arguments its own parser leaves over."""
    commands = ["classify", "chase", "answer", "rewrite", "fc-check", "harness"]
    return [
        (), ("-h",), ("--help",), ("-h", "classify"), ("--json", "classify", file),
        *[(command, "-h") for command in commands],
        ("classify", file, "-h"), ("classify", "--json", file), ("classify", "--", file),
        ("classify",), ("classify", missing), ("answer", missing, "--max-atoms", "10"),
        ("answer", file, "--max-atoms", "x"), ("chase", file, "--max-rounds", "-1"),
        ("answer", file, "--json=x"), ("answer", file, "--json", "--max-a", "5"),
        ("chase", file, "--max-r", "3", "--restricted"), ("answer", file, "--max", "5"),
        ("fc-check", file, "--q", "2"), ("fc-check", file, "--query", "9"),
        ("rewrite", file, "--partition", "--json"), ("harness", "--suite", "nope"),
        ("frobnicate",), ("Classify", file), ("answer", file, "--bogus"),
        ("answer", file, "--bogus", "--max-atoms", "x"), ("answer", "--bogus"),
        ("classify", file, file), ("rewrite", file, "extra", "--bogus"),
    ]


def test_dispatch_matches_the_full_parser(tmp_path, capsys, monkeypatch):
    """[DERIVED] `main` reads a command's arguments with that command's own
    parser, yet every command line gives the exit code, stdout and stderr
    of parsing it with `build_parser().parse_args`."""
    path = tmp_path / "two.dlp"
    path.write_text(TWO_QUERIES)
    corpus = _dispatch_corpus(str(path), str(tmp_path / "missing.dlp"))
    got = [run(capsys, *argv) for argv in corpus]
    monkeypatch.setattr(cli, "_parse", lambda parser, argv: parser.parse_args(argv))
    expected = [run(capsys, *argv) for argv in corpus]
    assert got == expected
    codes = {code for code, _, _ in got}
    assert codes == {0, 2}
    bogus = got[corpus.index(("answer", str(path), "--bogus"))]
    assert bogus[0] == 2 and bogus[2].startswith("usage: shychase [-h]")


def test_main_builds_one_parser_per_process(father_file, capsys, monkeypatch):
    """Fifty `main` calls, with errors and help among them, construct at
    most one top-level parser (its subcommand parsers have their own prog)."""
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    calls = [("classify", father_file), ("rewrite", father_file, "--json"),
             ("frobnicate",), ("--help",), ("answer", father_file, "--max-atoms", "10")]
    codes = [run(capsys, *calls[i % len(calls)])[0] for i in range(50)]
    assert codes == [0, 0, 2, 0, 0] * 10
    assert built.count("shychase") <= 1


# predicate spellings with their arities, plain and shaped; terms are
# weighted towards what each statement accepts, and a numeral is never valid
_FUZZ_PREDICATES = [("p", 1), ("q", 2), ("r", 0)] * 4 + [
    ("s_[1]", 1), ("s_[1,2]", 2), ("t_[1,a]", 1), ("u_[a,b]", 0), ("v_[1,1]", 1)]
_FACT_TERMS = ["a", "b"] * 6 + ["X", "1"]
_RULE_TERMS = ["a", "b"] + ["X", "Y", "Z"] * 4 + ["1"]
_HEAD_TERMS = ["a", "X", "X", "Y", "Y", "W", "V"]


@st.composite
def _fuzz_atoms(draw, terms):
    name, arity = draw(st.sampled_from(_FUZZ_PREDICATES))
    if arity == 0 and draw(st.booleans()):
        return name
    args = draw(st.lists(st.sampled_from(terms), min_size=arity, max_size=arity))
    return f"{name}({','.join(args)})"


@st.composite
def _fuzz_rules(draw):
    body = ", ".join(draw(st.lists(_fuzz_atoms(_RULE_TERMS), min_size=1, max_size=3)))
    evs = draw(st.lists(st.sampled_from(["W", "V", "W", "V", "Y"]), max_size=2, unique=True))
    exists = f"exists {','.join(evs)}. " if evs else ""
    return f"{body} -> {exists}{draw(_fuzz_atoms(_HEAD_TERMS))}."


_fuzz_queries = st.lists(st.lists(_fuzz_atoms(_RULE_TERMS), min_size=1, max_size=2),
                         min_size=1, max_size=2).map(
    lambda disjuncts: "? " + " | ".join(", ".join(d) for d in disjuncts) + ".")
_fuzz_programs = st.tuples(
    st.lists(_fuzz_atoms(_FACT_TERMS).map(lambda a: a + "."), max_size=3),
    st.lists(_fuzz_rules(), max_size=3),
    st.lists(_fuzz_queries, min_size=1, max_size=2),
).map(lambda parts: "\n".join(s for part in parts for s in part) + "\n")


_FUZZ_COMMANDS = [
    ("classify",),
    ("chase", "--max-atoms", "30", "--max-rounds", "10"),
    ("answer", "--max-atoms", "30", "--max-rounds", "10"),
    ("rewrite",),
    ("rewrite", "--partition"),
    ("fc-check", "--max-nulls", "1", "--max-atoms", "5"),
]


@settings(max_examples=150, deadline=None)
@given(_fuzz_programs)
def test_cli_exits_0_or_2_on_any_program(tmp_path_factory, text):
    """[DERIVED] On programs built from plain and shaped predicates,
    constants, variables, numerals, facts, rules with and without
    `exists`, and queries, every command either succeeds or reports a parse
    or usage error, and none raises."""
    path = tmp_path_factory.mktemp("fuzz") / "program.dlp"
    path.write_text(text)
    for command, *flags in _FUZZ_COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([command, str(path), *flags])
        assert code in (0, 2), (command, text)


# Programs that mix plain and shaped atoms.  p and p_[] agree in every
# field of `Atom.sort_key` but the last; `rewrite` rejects five shaped
# database atoms by naming the first in sort order.
_HASH_SEED_INPUTS = {
    "tie.dlp": "p. p_[]. q_[]. q. p -> r.\n? s.\n",
    "five_shaped.dlp": "q_[]. r_[1,1](a). p_[]. s_[a,1](b). t_[1](c).\n? u.\n",
    "shaped_rules.dlp": "p. p_[]. q(a). q_[1](a).\n"
                        "p_[] -> exists Y. q_[1](Y). q_[1](X), p -> q(X). q(X) -> r_[1,1](X).\n"
                        "? r_[1,1](b).\n",
}
_HASH_SEED_COMMANDS = [["chase", "--json"], ["chase", "--restricted"], ["rewrite"],
                       ["fc-check", "--max-atoms", "8"]]
# Runs the commands on the files in argv, then repairs every well-supported
# minimal model of the active part of each curated theory with harmless
# rules, at (2, 20), the least atom budget at which t17 and t19 have one,
# and prints each output and each repair's atoms and starting points, the
# latter in their order in the mapping.
_HASH_SEED_SCRIPT = """
import contextlib, io, json, sys
from shychase.canonical import partition_active_harmless, rewrite_theory
from shychase.cli import main
from shychase.finitemodels import (ModelBudget, disjoin_repair, enumerate_finite_models,
                                   find_support_ordering)
from shychase.harness import curated_programs

records = []
for path in sys.argv[2:]:
    for argv in json.loads(sys.argv[1]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], path, *argv[1:]])
        records.append([argv, code, out.getvalue(), err.getvalue()])
programs = dict(curated_programs())
for name in ("t01", "t02", "t06", "t07", "t10", "t11", "t13", "t16", "t17", "t19"):
    program = programs[name + ".dlp"]
    dbc, ontoc, _ = rewrite_theory(program.database, program.ontology)
    active, harmless = partition_active_harmless(ontoc)
    assert len(harmless) > 0, name
    repairs = 0
    for model in enumerate_finite_models(dbc, active, ModelBudget(2, 20)):
        ordering = find_support_ordering(model, dbc, active)
        if ordering is not None:
            repaired, activated = disjoin_repair(model, ordering, ontoc)
            records.append([name, sorted(map(repr, repaired)), list(map(repr, activated))])
            repairs += 1
    assert repairs > 0, name
print(json.dumps(records, indent=1))
"""


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """[DERIVED] `chase --json`, `chase --restricted`, `rewrite` and
    `fc-check` on programs that mix plain and shaped atoms, and the
    repairs of every curated theory with harmless rules, come out
    byte-identical in two fresh interpreters under different
    `PYTHONHASHSEED`s."""
    paths = []
    for name, text in _HASH_SEED_INPUTS.items():
        (tmp_path / name).write_text(text)
        paths.append(str(tmp_path / name))
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": pythonpath}
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT, json.dumps(_HASH_SEED_COMMANDS), *paths],
            env=env, capture_output=True, text=True, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_fc_check_with_a_huge_null_budget_answers_as_at_the_cap(capsys):
    """`--max-nulls 1000000000` allocates no more fresh nulls than 12 atoms
    of head arity 2 can hold, and finds t18's 12-atom countermodel for
    query 4 exactly as `--max-nulls 24` does."""
    t18 = str(Path(harness.__file__).parent / "suites/curated/t18.dlp")
    outs = []
    for nulls in ("24", "1000000000"):
        code, out, _ = run(capsys, "fc-check", t18, "--query", "4", "--max-nulls", nulls, "--json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert len(json.loads(outs[0])["countermodel"]["atoms"]) == 12
