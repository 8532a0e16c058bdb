"""Reasoning toolkit for existential rule ontologies.

Chase materialization, fragment classification, shape-indexed rewriting,
well-supported finite models and a differential check harness.
"""

from .canonical import (
    UnpackError,
    partition_active_harmless,
    rewrite_database,
    rewrite_ontology,
    rewrite_query,
    rewrite_theory,
    unpack,
)
from .chase import (
    OBLIVIOUS,
    RESTRICTED,
    ChaseConfig,
    ChaseResult,
    Entailment,
    Verdict,
    entailment_in,
    entails,
    run_chase,
)
from .classify import FRAGMENTS, ViolationWitness, classify, is_shy
from .core import (
    Atom,
    Constant,
    Database,
    Instance,
    Null,
    NullFactory,
    Ontology,
    Query,
    Rule,
    Variable,
)
from .finitemodels import (
    ModelBudget,
    StartingPoint,
    disjoin_repair,
    enumerate_finite_models,
    find_finite_countermodel,
    find_support_ordering,
    is_model,
    propagation_ordering,
)
from .hom import homomorphisms, isomorphic, satisfies_query
from .parse import ParseError, Program, parse_program, print_program

__all__ = [
    "Atom", "ChaseConfig", "ChaseResult", "Constant", "Database", "Entailment",
    "FRAGMENTS", "Instance", "ModelBudget", "Null", "NullFactory", "OBLIVIOUS",
    "Ontology", "ParseError", "Program", "Query", "RESTRICTED", "Rule",
    "StartingPoint", "UnpackError", "Variable", "Verdict", "ViolationWitness",
    "classify", "disjoin_repair", "entailment_in", "entails",
    "enumerate_finite_models", "find_finite_countermodel", "find_support_ordering",
    "homomorphisms", "is_model", "is_shy", "isomorphic",
    "partition_active_harmless", "parse_program", "print_program",
    "propagation_ordering", "rewrite_database", "rewrite_ontology",
    "rewrite_query", "rewrite_theory", "run_chase", "satisfies_query", "unpack",
]
