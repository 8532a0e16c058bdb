"""Seeded random theory generator used by the differential harness.

Generation parameters are the defaults of `GeneratorConfig`, so harness
runs are reproducible from the seed alone.  Fragment-specific suites are
obtained by post-filtering with the classifiers.
"""

from __future__ import annotations

import random

from .chase import OBLIVIOUS, ChaseConfig, run_chase
from .classify import classify_local, is_shy, sticky_marking
from .core import Atom, Constant, Database, Ontology, Rule, Variable, _Record
from .parse import Program


class GeneratorConfig(_Record):
    """Shape enumeration is exponential in distinct body variables;
    max_rule_vars caps them so rewritten theories stay small."""

    __slots__ = ()
    _fields = ("predicates", "max_arity", "rules", "max_body_atoms", "existential_prob",
               "constant_prob", "constants", "facts", "max_attempts", "max_rule_vars")

    def __new__(cls, predicates: int = 4, max_arity: int = 3, rules: int = 5,
                max_body_atoms: int = 2, existential_prob: float = 0.6,
                constant_prob: float = 0.1, constants: int = 2, facts: int = 3,
                max_attempts: int = 400, max_rule_vars: int = 4):
        return tuple.__new__(cls, (predicates, max_arity, rules, max_body_atoms,
                                   existential_prob, constant_prob, constants, facts,
                                   max_attempts, max_rule_vars))


def default_config() -> GeneratorConfig:
    return GeneratorConfig()


def _signature(rng: random.Random, cfg: GeneratorConfig) -> list:
    return [(f"p{i + 1}", rng.randint(1, cfg.max_arity)) for i in range(cfg.predicates)]


def _random_body(rng, cfg, signature, consts):
    body = []
    pool: list = []
    for _ in range(rng.randint(1, cfg.max_body_atoms)):
        pred, arity = rng.choice(signature)
        args = []
        for _ in range(arity):
            if consts and rng.random() < cfg.constant_prob:
                args.append(rng.choice(consts))
            elif pool and (rng.random() < 0.6 or len(pool) >= cfg.max_rule_vars):
                args.append(rng.choice(pool))
            else:
                v = Variable(f"X{len(pool) + 1}")
                pool.append(v)
                args.append(v)
        body.append(Atom(pred, tuple(args)))
    return tuple(body), pool


def random_rule(rng: random.Random, cfg: GeneratorConfig, signature: list,
                consts: list, rule_id: str) -> Rule:
    body, pool = _random_body(rng, cfg, signature, consts)
    pred, arity = rng.choice(signature)
    head_args = []
    ev_pool: list = []
    for _ in range(arity):
        if rng.random() < cfg.existential_prob:
            if not ev_pool or rng.random() < 0.7:
                ev_pool.append(Variable(f"Y{len(ev_pool) + 1}"))
            head_args.append(rng.choice(ev_pool))
        elif pool:
            head_args.append(rng.choice(pool))
        elif consts:
            head_args.append(rng.choice(consts))
        else:
            ev_pool.append(Variable(f"Y{len(ev_pool) + 1}"))
            head_args.append(ev_pool[-1])
    return Rule(rule_id, body, Atom(pred, tuple(head_args)))


def random_program(seed: int, cfg: GeneratorConfig) -> Program:
    rng = random.Random(seed)
    signature = _signature(rng, cfg)
    consts = [Constant(f"c{i + 1}") for i in range(cfg.constants)]
    facts = set()
    while len(facts) < cfg.facts:
        pred, arity = rng.choice(signature)
        facts.add(Atom(pred, tuple(rng.choice(consts) for _ in range(arity))))
    rules = tuple(
        random_rule(rng, cfg, signature, consts, f"r{i + 1}") for i in range(cfg.rules)
    )
    return Program(Database(frozenset(facts)), Ontology(rules), ())


def random_program_where(predicate, seed: int, cfg: GeneratorConfig) -> Program:
    """First generated program (scanning seeds upward) accepted by predicate."""
    for offset in range(cfg.max_attempts):
        program = random_program(seed + offset * 7919, cfg)
        if predicate(program):
            return program
    raise RuntimeError(f"no accepted program within {cfg.max_attempts} attempts")


def is_shy_program(program: Program) -> bool:
    return is_shy(program.ontology)[0]


def is_linear_program(program: Program) -> bool:
    return classify_local(program.ontology)["linear"][0]


def is_sticky_program(program: Program) -> bool:
    return sticky_marking(program.ontology)[1]


def atom_scoped_joins(program: Program) -> bool:
    """Every pair of body variables of each rule shares some body atom.

    Under this shape no rewriting variant can match an instance while
    collapsing two of its variable classes, so the rewritten chase mirrors
    the source chase trigger for trigger.
    """
    for rule in program.ontology:
        variables = [v for v in rule.uv
                     if any(v in a.args for a in rule.body)]
        for i, v in enumerate(variables):
            for w in variables[i + 1:]:
                if not any(v in a.args and w in a.args for a in rule.body):
                    return False
    return True


def grows_to(n_atoms: int):
    """Filter: the oblivious chase reaches at least n_atoms within bounds."""

    def check(program: Program) -> bool:
        cfg = ChaseConfig(OBLIVIOUS, max_atoms=n_atoms + 30, max_rounds=80)
        result = run_chase(program.database, program.ontology, cfg)
        return len(result.instance) >= n_atoms

    return check


def both(*predicates):
    def check(program: Program) -> bool:
        return all(p(program) for p in predicates)

    return check
