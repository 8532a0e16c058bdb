"""Seeded generator: determinism, default config, and family filters."""

import pytest

from shychase.classify import classify_local, is_shy, sticky_marking
from shychase.generate import (
    GeneratorConfig,
    atom_scoped_joins,
    both,
    default_config,
    grows_to,
    is_linear_program,
    is_shy_program,
    is_sticky_program,
    random_program,
    random_program_where,
)
from shychase.parse import parse_program, print_program


def test_same_seed_same_program():
    cfg = default_config()
    assert print_program(random_program(7, cfg)) == print_program(random_program(7, cfg))
    assert print_program(random_program(7, cfg)) != print_program(random_program(8, cfg))


def test_default_config_is_the_generator_default():
    assert default_config() == GeneratorConfig()


def test_generated_programs_are_well_formed():
    cfg = default_config()
    for seed in range(5):
        program = random_program(seed, cfg)
        assert len(program.database) == cfg.facts
        assert len(program.ontology) == cfg.rules
        # round trips through the concrete syntax
        parse_program(print_program(program))


def test_rule_variable_cap_is_respected():
    cfg = default_config()
    for seed in range(20):
        for rule in random_program(seed, cfg).ontology:
            assert len(rule.uv) <= cfg.max_rule_vars


def test_family_filters_agree_with_classifiers():
    cfg = default_config()
    shy = random_program_where(is_shy_program, 3, cfg)
    assert is_shy(shy.ontology)[0]
    linear = random_program_where(is_linear_program,
                                  5, GeneratorConfig(max_body_atoms=1))
    assert classify_local(linear.ontology)["linear"][0]
    sticky = random_program_where(is_sticky_program, 9, cfg)
    assert sticky_marking(sticky.ontology)[1]


def test_random_program_where_gives_up():
    cfg = GeneratorConfig(max_attempts=3)
    with pytest.raises(RuntimeError):
        random_program_where(lambda p: False, 0, cfg)


def test_atom_scoped_joins_filter():
    scoped = parse_program("s(c). p(X,Y), q(X,Y) -> r(X).")
    assert atom_scoped_joins(scoped)
    unscoped = parse_program("s(c). p(X), q(Y) -> r(X,Y).")
    assert not atom_scoped_joins(unscoped)


def test_grows_to_filter():
    growing = parse_program("p(c). p(X) -> exists Y. f(Y,X). f(X,Y) -> p(X).")
    assert grows_to(30)(growing)
    finite = parse_program("p(c). p(X) -> q(X).")
    assert not grows_to(30)(finite)


def test_both_combines_predicates():
    always = lambda p: True
    never = lambda p: False
    program = parse_program("p(c).")
    assert both(always, always)(program)
    assert not both(always, never)(program)
