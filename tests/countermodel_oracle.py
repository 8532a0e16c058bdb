"""`find_finite_countermodel` before the model search took the query,
kept as the oracle for its pruning: the same chase pre-pass, the search
that finds every model, and then the first minimal one that rejects the
query."""

from shychase.chase import RESTRICTED, ChaseConfig, entails
from shychase.core import Constant, Instance
from shychase.finitemodels import _found_models, _minimal_by_embedding
from shychase.hom import satisfies_query


def find_finite_countermodel(db, onto, q, budget):
    """The first model of `_minimal_by_embedding` over every found model
    that does not satisfy q, or None; None at once if the restricted chase
    of at most max_atoms rounds entails q."""
    entailment = entails(db, onto, q, ChaseConfig(RESTRICTED, max_rounds=budget.max_atoms))
    if entailment:
        return None
    certain = frozenset(a for a in entailment.chase.instance
                        if all(isinstance(t, Constant) for t in a.args))
    for atoms in _minimal_by_embedding(_found_models(db, onto, budget, certain)):
        model = Instance(atoms)
        if satisfies_query(model, q) is None:
            return model
    return None
