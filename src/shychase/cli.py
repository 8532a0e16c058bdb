"""Command line front end.

Exit codes: 0 success, 1 harness check failure, 2 usage or parse error,
including input too long for the recursive searches.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .canonical import partition_active_harmless, rewrite_theory
from .chase import OBLIVIOUS, RESTRICTED, ChaseConfig, entailments_in, run_chase
from .classify import classify
from .finitemodels import ModelBudget, find_finite_countermodel, find_support_ordering
from .parse import (
    ParseError,
    Program,
    json_text,
    parse_program,
    print_atom,
    print_program,
    print_query,
    print_rule,
    to_jsonable,
)


# sorted(harness.SUITES), written out so that only `shychase harness` imports
# the harness; tests/test_cli.py keeps the two equal.
_SUITES = ["all", "curated", "paper", "random"]


class _UsageError(Exception):
    """A flag value or input the library rejects; reported like a parse error."""


def _checked(make, *args):
    """make(*args), with a rejected flag value or input as a usage error."""
    try:
        return make(*args)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _read_program(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise _UsageError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_program(text)


def _emit(as_json: bool, payload, text) -> None:
    """Print the JSON form or the text form; both are given as functions of
    no arguments, so only the selected form is built."""
    print(json_text(payload()) if as_json else text())


def _cmd_classify(args) -> int:
    program = _read_program(args.file)
    lines = []
    payload = {}
    for name, (holds, witness) in classify(program.ontology).items():
        payload[name] = {"holds": holds}
        if witness is not None:
            payload[name]["witness"] = witness.describe()
        mark = "yes" if holds else f"no ({witness.describe()})"
        lines.append(f"{name}: {mark}")
    _emit(args.json, lambda: payload, lambda: "\n".join(lines))
    return 0


def _cmd_chase(args) -> int:
    program = _read_program(args.file)
    mode = RESTRICTED if args.restricted else OBLIVIOUS
    cfg = _checked(ChaseConfig, mode, args.max_atoms, args.max_rounds)
    result = run_chase(program.database, program.ontology, cfg)
    _emit(args.json, lambda: {
        "terminated": result.terminated,
        "rounds": result.rounds,
        "atoms": to_jsonable(result.instance),
    }, lambda: "\n".join(
        [f"terminated: {result.terminated}", f"rounds: {result.rounds}"]
        + [print_atom(a) for a in result.instance.sorted_atoms()]
    ))
    return 0


def _cmd_answer(args) -> int:
    program = _read_program(args.file)
    if not program.queries:
        raise _UsageError("no queries in input")
    mode = RESTRICTED if args.restricted else OBLIVIOUS
    cfg = _checked(ChaseConfig, mode, args.max_atoms, args.max_rounds)
    chase = run_chase(program.database, program.ontology, cfg)
    payload = []
    lines = []
    for q, result in zip(program.queries, entailments_in(chase, program.queries)):
        payload.append({"query": print_query(q), "verdict": result.verdict.value})
        lines.append(f"{print_query(q)}  => {result.verdict.value}")
    _emit(args.json, lambda: payload, lambda: "\n".join(lines))
    return 0


def _cmd_rewrite(args) -> int:
    program = _read_program(args.file)
    dbc, ontoc, queries = _checked(
        rewrite_theory, program.database, program.ontology, program.queries
    )
    if args.partition:
        active, harmless = partition_active_harmless(ontoc)
        _emit(args.json, lambda: {
            "database": to_jsonable(dbc),
            "active": [print_rule(r) for r in active],
            "harmless": [print_rule(r) for r in harmless],
        }, lambda: "\n".join(
            [print_atom(a) + "." for a in sorted(dbc, key=lambda a: a.sort_key())]
            + ["# active"] + [print_rule(r) for r in active]
            + ["# harmless"] + [print_rule(r) for r in harmless]
        ))
    else:
        program = Program(dbc, ontoc, queries)
        _emit(args.json, lambda: to_jsonable(program), lambda: print_program(program))
    return 0


def _cmd_fc_check(args) -> int:
    program = _read_program(args.file)
    if not program.queries:
        raise _UsageError("no queries in input")
    budget = _checked(ModelBudget, args.max_nulls, args.max_atoms)
    index = args.query
    if index < 1 or index > len(program.queries):
        raise _UsageError(f"query index {index} out of range")
    q = program.queries[index - 1]
    counter = find_finite_countermodel(program.database, program.ontology, q, budget)
    if counter is None:
        _emit(args.json, lambda: {"countermodel": None},
              lambda: "no countermodel within budget")
        return 0
    ordering = find_support_ordering(counter, program.database, program.ontology)
    _emit(args.json, lambda: {
        "countermodel": to_jsonable(counter),
        "well_supported": ordering is not None,
    }, lambda: "\n".join(
        ["countermodel:"]
        + ["  " + print_atom(a) for a in counter.sorted_atoms()]
        + [f"well supported: {ordering is not None}"]
    ))
    return 0


def _cmd_harness(args) -> int:
    from .harness import run_suite

    results = run_suite(args.suite, seed=args.seed)
    _emit(args.json, lambda: [
        {"name": r.name, "passed": r.passed, "detail": r.detail,
         "seconds": round(r.seconds, 3)}
        for r in results
    ], lambda: "\n".join(r.line() for r in results))
    return 0 if all(r.passed for r in results) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: `parse_args` returns a
    fresh namespace each call and keeps nothing between calls.  Its
    `commands` maps each command's name to that command's own parser."""
    parser = argparse.ArgumentParser(
        prog="shychase",
        description="Reasoning toolkit for existential rule ontologies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}

    def add(name, fn, help):
        p = parser.commands[name] = sub.add_parser(name, help=help)
        p.add_argument("--json", action="store_true", help="emit JSON output")
        p.set_defaults(fn=fn)
        return p

    p = add("classify", _cmd_classify, "report fragment membership")
    p.add_argument("file")

    for name, fn, help in (
        ("chase", _cmd_chase, "materialize a chase instance"),
        ("answer", _cmd_answer, "answer the queries in the input"),
    ):
        p = add(name, fn, help)
        p.add_argument("file")
        p.add_argument("--restricted", action="store_true",
                       help="use the restricted chase (default oblivious)")
        p.add_argument("--max-atoms", type=int, default=2000)
        p.add_argument("--max-rounds", type=int, default=500)

    p = add("rewrite", _cmd_rewrite, "rewrite into shape-indexed form")
    p.add_argument("file")
    p.add_argument("--partition", action="store_true",
                   help="split the rewriting into active and harmless rules")

    p = add("fc-check", _cmd_fc_check, "search for a finite countermodel")
    p.add_argument("file")
    p.add_argument("--query", type=int, default=1, help="1-based query index")
    p.add_argument("--max-nulls", type=int, default=2)
    p.add_argument("--max-atoms", type=int, default=12)

    p = add("harness", _cmd_harness, "run a differential check suite")
    p.add_argument("--suite", choices=_SUITES, default="all")
    p.add_argument("--seed", type=int, default=42)

    return parser


def _parse(parser, argv: list):
    """parser.parse_args(argv), read by the command's own parser when argv
    starts with a command and that parser takes every argument: the same
    namespace for the command, in about half the time.  Anything else, such
    as an unknown argument, goes to the full parser, so its message stays."""
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:])
        if not extras:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(build_parser(), sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (OSError, _UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input too long: a rule body, query disjunct or variable "
              "list exceeds the recursion limit", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
