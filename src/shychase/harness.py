"""Differential harness: one check per acceptance property, plus suites.

Each check returns a CheckResult; the CLI aggregates them.  Randomized
checks are pure functions of the seed, under the default generator config.
"""

from __future__ import annotations

import time
from functools import wraps
from importlib import resources

from .canonical import _tagged_atoms, partition_active_harmless, rewrite_theory, unpack
from .chase import OBLIVIOUS, RESTRICTED, ChaseConfig, Verdict, entailments_in, run_chase
from .classify import classify_local, is_shy, sticky_marking
from .core import Atom, Constant, Instance, Null, Query, Variable, _Record
from .finitemodels import (
    ModelBudget,
    StartingPoint,
    disjoin_repair,
    enumerate_finite_models,
    find_finite_countermodel,
    find_support_ordering,
    is_model,
    ordering_from_sequence,
    propagation_ordering,
    well_supported_core,
)
from .generate import (
    atom_scoped_joins,
    both,
    default_config,
    grows_to,
    is_linear_program,
    is_shy_program,
    is_sticky_program,
    random_program_where,
)
from .hom import apply_mapping, isomorphic, satisfies_query
from .parse import Program, parse_program, written_name


class CheckResult(_Record):
    __slots__ = ()
    _fields = ("name", "passed", "detail", "seconds")

    def __new__(cls, name: str, passed: bool, detail: str, seconds: float = 0.0):
        return tuple.__new__(cls, (name, passed, detail, seconds))

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail} ({self.seconds:.2f}s)"


def _timed(name):
    def wrap(fn):
        @wraps(fn)
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            passed, detail = fn(*args, **kwargs)
            return CheckResult(name, passed, detail, time.perf_counter() - t0)

        return run

    return wrap


def load_paper_program(name: str) -> Program:
    text = resources.files(__package__).joinpath(f"suites/paper/{name}").read_text()
    return parse_program(text)


def curated_programs() -> list:
    root = resources.files(__package__).joinpath("suites/curated")
    out = []
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".dlp"):
            out.append((entry.name, parse_program(entry.read_text())))
    return out


def _same_rules_modulo_renaming(got, expected) -> bool:
    remaining = [_tagged_atoms(r.body, r.head) for r in expected]
    for rule in got:
        sig = _tagged_atoms(rule.body, rule.head)
        for i, other in enumerate(remaining):
            if isomorphic(sig, other):
                del remaining[i]
                break
        else:
            return False
    return not remaining


_EXPECTED_FATHER_RULES = """
p_[c1] -> exists Y. f_[1,c1](Y).
p_[c2] -> exists Y. f_[1,c2](Y).
p_[1](X) -> exists Y. f_[1,2](Y,X).
f_[c1,c1] -> p_[c1].
f_[c1,c2] -> p_[c1].
f_[c2,c1] -> p_[c2].
f_[c2,c2] -> p_[c2].
f_[c1,1](Y) -> p_[c1].
f_[c2,1](Y) -> p_[c2].
f_[1,c1](X) -> p_[1](X).
f_[1,c2](X) -> p_[1](X).
f_[1,1](X) -> p_[1](X).
f_[1,2](X,Y) -> p_[1](X).
"""

_EXPECTED_FATHER_QUERY = """
? p_[c1], f_[c1,c1] | p_[c2], f_[c2,c1] | p_[1](X), f_[1,c1](X).
"""


@_timed("golden rewriting")
def check_golden_rewriting():
    program = load_paper_program("father.dlp")
    dbc, ontoc, queries = rewrite_theory(
        program.database, program.ontology, program.queries
    )
    expected_db = {Atom("p", (), ("c1",)), Atom("p", (), ("c2",)), Atom("f", (), ("c1", "c2"))}
    if set(dbc.atoms) != expected_db:
        return False, f"database rewriting mismatch: {sorted(a.predicate_name for a in dbc)}"
    expected = parse_program(_EXPECTED_FATHER_RULES).ontology
    if len(ontoc) != 13:
        return False, f"expected 13 canonical rules, got {len(ontoc)}"
    if not _same_rules_modulo_renaming(ontoc.rules, expected.rules):
        return False, "canonical rules do not match the expected table"
    qc = queries[0]
    expected_q = parse_program(_EXPECTED_FATHER_QUERY).queries[0]
    if len(qc.disjuncts) != 3:
        return False, f"expected 3 query disjuncts, got {len(qc.disjuncts)}"
    got = [frozenset(d) for d in qc.disjuncts]
    want = [frozenset(d) for d in expected_q.disjuncts]
    for w in want:
        if not any(isomorphic(w, g) for g in got):
            return False, "query rewriting does not match the expected disjunction"
    return True, "13 rules, propositional database and 3-disjunct query all match"


@_timed("golden classification")
def check_golden_classification():
    base = load_paper_program("shy_appendix.dlp").ontology
    ok, _ = is_shy(base)
    if not ok:
        return False, "base ontology should be shy"
    prime = load_paper_program("shy_appendix_i.dlp").ontology
    ok, witness = is_shy(prime)
    if ok or "condition (i)" not in witness.condition:
        return False, "first extension should fail the protection condition"
    if witness.rule_id != "r2" or written_name(witness.attacker) != "Y3":
        return False, f"unexpected witness {witness!r}"
    second = load_paper_program("shy_appendix_ii.dlp").ontology
    ok, witness = is_shy(second)
    if ok or "condition (ii)" not in witness.condition:
        return False, "second extension should fail the shared-attacker condition"
    if witness.rule_id != "r2" or written_name(witness.attacker) != "Y3":
        return False, f"unexpected witness {witness!r}"
    mixed = load_paper_program("linear_not_sticky.dlp").ontology
    verdicts = classify_local(mixed)
    if not verdicts["linear"][0]:
        return False, "single-body ontology should be linear"
    if sticky_marking(mixed)[1]:
        return False, "repeated marked variable should break stickiness"
    return True, "appendix verdicts and linear/sticky split reproduced"


def _rounds(db, result, r: int, translate) -> list:
    """Atoms of rounds 0..r of a chase through translate, round 0 the database."""
    rounds = [[translate(a) for a in db]] + [[] for _ in range(r)]
    for s in result.steps:
        if s.round <= r:
            rounds[s.round].append(translate(s.produced))
    return rounds


def _round_key(atom: Atom, names: dict) -> tuple:
    """atom with named nulls renamed and fresh ones ranked -1, -2, ... by first occurrence."""
    fresh: dict = {}
    return atom.pred, atom.shape, tuple(
        t if not isinstance(t, Null) else names[t] if t in names
        else fresh.setdefault(t, -1 - len(fresh)) for t in atom.args)


def _first_unmatched_round(left: list, right: list):
    """The first round whose atoms differ between two chases given by
    `_rounds`, up to a renaming of nulls built round by round, or None."""
    names = ({}, {})
    for k, pair in enumerate(zip(left, right)):
        groups: dict = {}
        for side, atoms in enumerate(pair):
            for a in atoms:
                groups.setdefault(_round_key(a, names[side]), ([], []))[side].append(a)
        if any(len(xs) != len(ys) for xs, ys in groups.values()):
            return k
        for xs, ys in groups.values():
            for x, y in zip(xs, ys):
                for s, t in zip(x.args, y.args):
                    if isinstance(s, Null) and s not in names[0]:
                        names[0][s] = names[1][t] = len(names[0])
    return None


def _canonical_chase_matches(program, other_onto=None):
    """Compare the source chase with the unpacked canonical chase (or the
    canonical chase against other_onto) round by round, on their matched
    complete rounds, or on every round when both terminated.  When the
    first chase terminates, the second must terminate within as many rounds.

    In a breadth-first round each produced atom holds older terms and only
    its own fresh nulls.  So the databases must be equal, and each later
    round's atoms are keyed by `_round_key` under the null names of the
    rounds before: each key must occur equally often on both sides, and
    pairing its atoms names their fresh nulls alike.  Atoms with one key
    differ only in their fresh nulls, so any pairing of them serves.  Unlike
    isomorphism of the two prefixes, this asks that each atom appear in the
    same round on both sides.

    Exact commutation needs rule bodies whose variables pairwise share an
    atom (see atom_scoped_joins): otherwise two rewriting variants of one
    rule can both fire on the same atoms, one of them through a match that
    collapses variables the variant keeps distinct, and the rewritten side
    accumulates duplicate witnesses the source side never creates."""
    db, onto = program.database, program.ontology
    dbc, ontoc, _ = rewrite_theory(db, onto)
    if other_onto is None:
        left_db, left_onto = db, onto
        translate = unpack
    else:
        left_db, left_onto = dbc, other_onto
        translate = lambda atom: atom
    cap = 140
    while True:
        left = run_chase(left_db, left_onto, ChaseConfig(OBLIVIOUS, cap, 400))
        prefix = left.prefix_at_round(left.complete_rounds)
        if left.terminated or len(prefix) >= 100 or cap > 16 * 140:
            break
        cap *= 2
    if not left.terminated and len(prefix) < 100:
        return False, f"matched prefix too short ({len(prefix)} atoms)"
    # a left chase that fires nothing has 0 rounds, below any round bound
    right = run_chase(dbc, ontoc,
                      ChaseConfig(OBLIVIOUS, 4 * cap, max(left.complete_rounds, 1)))
    if left.terminated and (not right.terminated or right.rounds > left.rounds):
        return False, f"canonical chase runs past round {left.rounds}"
    r = (max(left.rounds, right.rounds) if left.terminated and right.terminated
         else min(left.complete_rounds, right.complete_rounds))
    left_rounds = _rounds(left_db, left, r, lambda atom: atom)
    k = _first_unmatched_round(left_rounds, _rounds(dbc, right, r, translate))
    if k is not None:
        return False, f"prefix mismatch at round {k}"
    return True, f"{sum(map(len, left_rounds))} atoms agree"


@_timed("chase commutation")
def check_chase_commutation(seed: int):
    cfg = default_config()
    programs = [load_paper_program("father.dlp"), load_paper_program("active.dlp")]
    for i in range(50):
        programs.append(random_program_where(
            both(atom_scoped_joins, grows_to(100)), seed + 1000 * i, cfg
        ))
    for i, program in enumerate(programs):
        ok, detail = _canonical_chase_matches(program)
        if not ok:
            return False, f"theory {i}: {detail}"
    return True, f"{len(programs)} theories commute on matched prefixes"


@_timed("active partition chase")
def check_active_partition(seed: int):
    cfg = default_config()
    program = load_paper_program("active.dlp")
    dbc, ontoc, _ = rewrite_theory(program.database, program.ontology)
    _, harmless = partition_active_harmless(ontoc)
    harmless_ids = {r.id for r in harmless}
    result = run_chase(dbc, ontoc, ChaseConfig(OBLIVIOUS, 200, 50))
    fired = {s.rule_id for s in result.steps}
    if fired & harmless_ids:
        return False, f"harmless rules fired: {sorted(fired & harmless_ids)}"
    for i in range(30):
        prog = random_program_where(
            both(is_shy_program, grows_to(100)), seed + 1000 * i, cfg
        )
        dbc, ontoc, _ = rewrite_theory(prog.database, prog.ontology)
        active, _ = partition_active_harmless(ontoc)
        ok, detail = _canonical_chase_matches(prog, other_onto=active)
        if not ok:
            return False, f"shy theory {i}: {detail}"
    return True, "30 shy theories agree with their active part"


@_timed("fragment preservation")
def check_fragment_preservation(seed: int):
    # Merging variable classes across body atoms can manufacture joins the
    # source rules never had, so preservation is checked on the same
    # atom-scoped-join families the chase commutation check uses.
    cfg = default_config()
    for i in range(50):
        prog = random_program_where(both(is_shy_program, atom_scoped_joins),
                                    seed + 1000 * i, cfg)
        _, ontoc, _ = rewrite_theory(prog.database, prog.ontology)
        if not is_shy(ontoc)[0]:
            return False, f"shy theory {i}: canonical form is not shy"
    linear_cfg = cfg._replace(max_body_atoms=1)
    for i in range(30):
        prog = random_program_where(is_linear_program, seed + 77 + 1000 * i, linear_cfg)
        _, ontoc, _ = rewrite_theory(prog.database, prog.ontology)
        verdicts = classify_local(ontoc)
        if not verdicts["inclusion-dependencies"][0]:
            return False, f"linear theory {i}: canonical form is not inclusion-dependencies"
    for i in range(30):
        prog = random_program_where(both(is_sticky_program, atom_scoped_joins),
                                    seed + 155 + 1000 * i, cfg)
        _, ontoc, _ = rewrite_theory(prog.database, prog.ontology)
        if not sticky_marking(ontoc)[1]:
            return False, f"sticky theory {i}: canonical form is not sticky"
    return True, "50 shy, 30 linear and 30 sticky theories preserved"


@_timed("entailment transfer")
def check_entailment_transfer():
    cfg = ChaseConfig(RESTRICTED, 2000, 500)
    theories = queries = 0
    for name, program in curated_programs():
        dbc, ontoc, canonical_queries = rewrite_theory(
            program.database, program.ontology, program.queries
        )
        src_chase = run_chase(program.database, program.ontology, cfg)
        can_chase = run_chase(dbc, ontoc, cfg)
        verdicts = zip(entailments_in(src_chase, program.queries),
                       entailments_in(can_chase, canonical_queries))
        for i, (src, can) in enumerate(verdicts):
            if src.verdict == Verdict.UNKNOWN or can.verdict == Verdict.UNKNOWN:
                return False, f"{name} query {i}: chase did not terminate"
            if src.verdict != can.verdict:
                return False, (f"{name} query {i}: source {src.verdict.value} "
                               f"vs canonical {can.verdict.value}")
            queries += 1
        theories += 1
    return True, f"{theories} theories, {queries} queries agree"


@_timed("minimal models are well-supported")
def check_minimal_model_support():
    budget = ModelBudget(2, 12)
    checked = 0
    for name, program in curated_programs():
        for model in enumerate_finite_models(program.database, program.ontology, budget):
            if find_support_ordering(model, program.database, program.ontology) is None:
                return False, f"{name}: minimal model without support ordering"
            if well_supported_core(model, program.database, program.ontology) != model:
                return False, f"{name}: model without well-supported core"
            checked += 1
    return True, f"{checked} minimal models all well-supported"


def _wsf_model_of_active(dbc, active):
    for model in enumerate_finite_models(dbc, active, ModelBudget(2, 12)):
        ordering = find_support_ordering(model, dbc, active)
        if ordering is not None:
            return model, ordering
    return None, None


def _query_from_atoms(atoms) -> Query:
    mapping: dict = {}
    out = []
    for a in atoms:
        args = []
        for t in a.args:
            if isinstance(t, Constant):
                args.append(t)
            else:
                args.append(mapping.setdefault(t, Variable(f"Q{len(mapping) + 1}")))
        out.append(Atom(a.pred, tuple(args), a.shape))
    return Query((tuple(out),))


@_timed("join-breaking repair")
def check_disjoin_repair(seed: int):
    program = load_paper_program("theorem8.dlp")
    dbc, ontoc, _ = rewrite_theory(program.database, program.ontology)
    active, _ = partition_active_harmless(ontoc)
    n1 = Null(1)
    model = Instance(frozenset({
        Atom("s", (), ("c",)),
        Atom("p", (n1,), (1,)),
        Atom("r", (n1,), (1,)),
    }))
    ordering = find_support_ordering(model, dbc, active)
    if ordering is None:
        return False, "paper model is not well-supported against the active part"
    repaired, h_prime = disjoin_repair(model, ordering, ontoc)
    expected = Instance(frozenset({
        Atom("s", (), ("c",)),
        Atom("p", (Null(1),), (1,)),
        Atom("r", (Null(2),), (1,)),
    }))
    if not isomorphic(repaired, expected):
        return False, f"unexpected repair {sorted(map(repr, repaired))}"
    if not is_model(repaired, dbc, ontoc)[0]:
        return False, "repaired paper model does not satisfy the full theory"
    if not {apply_mapping(h_prime, a) for a in repaired} <= set(model.atoms):
        return False, "paper repair does not map back into the model"
    cfg = default_config()
    done = attempt = 0
    while done < 20 and attempt < 800:
        prog = random_program_where(is_shy_program, seed + 1000 * attempt, cfg)
        attempt += 1
        dbc, ontoc, _ = rewrite_theory(prog.database, prog.ontology)
        active, harmless = partition_active_harmless(ontoc)
        if not harmless:
            continue
        model, ordering = _wsf_model_of_active(dbc, active)
        if model is None:
            continue
        repaired, h_prime = disjoin_repair(model, ordering, ontoc)
        if not is_model(repaired, dbc, ontoc)[0]:
            return False, f"random theory (attempt {attempt}): repair is not a model"
        image = {apply_mapping(h_prime, a) for a in repaired}
        if not image <= set(model.atoms):
            return False, f"random theory (attempt {attempt}): repair maps outside the model"
        if find_support_ordering(repaired, dbc, ontoc) is None:
            return False, f"random theory (attempt {attempt}): repair lost well-supportedness"
        sample = sorted(repaired, key=Atom.sort_key)[:2]
        q = _query_from_atoms(sample)
        if satisfies_query(repaired, q) is not None and satisfies_query(model, q) is None:
            return False, f"random theory (attempt {attempt}): query transfer failed"
        done += 1
    if done < 20:
        return False, f"only {done} usable random theories found"
    return True, f"paper construction plus {done} random repairs verified"


@_timed("finite countermodels")
def check_finite_countermodels():
    cfg = ChaseConfig(RESTRICTED, 2000, 500)
    budget = ModelBudget(2, 12)
    false_hits = false_total = 0
    for name, program in curated_programs():
        chase = run_chase(program.database, program.ontology, cfg)
        # one enumeration serves every query; it runs the search without
        # a chase or certain atoms, so it also checks
        # `find_finite_countermodel`, which must return the first
        # enumerated model that rejects the query
        models = list(enumerate_finite_models(program.database, program.ontology, budget))
        verdicts = entailments_in(chase, program.queries)
        for i, (q, verdict) in enumerate(zip(program.queries, verdicts)):
            counter = next((m for m in models if satisfies_query(m, q) is None), None)
            if find_finite_countermodel(program.database, program.ontology, q, budget) != counter:
                return False, f"{name} query {i}: countermodel search differs from the enumeration"
            if counter is not None:
                ok, _ = is_model(counter, program.database, program.ontology)
                if not ok or satisfies_query(counter, q) is not None:
                    return False, f"{name} query {i}: reported countermodel is unsound"
            if verdict.verdict == Verdict.TRUE and counter is not None:
                return False, f"{name} query {i}: countermodel against an entailed query"
            if verdict.verdict == Verdict.FALSE:
                false_total += 1
                if counter is not None:
                    false_hits += 1
    if false_hits != false_total:
        return False, f"countermodel hit-rate {false_hits}/{false_total}"
    return True, f"countermodel hit-rate {false_hits}/{false_total}, no soundness violations"


@_timed("propagation ordering golden")
def check_propagation_golden():
    program = load_paper_program("propagation.dlp")
    c1, c2, n1 = Constant("c1"), Constant("c2"), Null(1)
    sequence = [
        Atom("s", (c1,)),
        Atom("p", (c1, c2)),
        Atom("p", (c1, n1)),
        Atom("u", (c2, c1)),
        Atom("t", (c2,)),
        Atom("u", (n1, c1)),
        Atom("r", (n1, c1)),
        Atom("t", (n1,)),
        Atom("r", (c2, c1)),
    ]
    ordering = ordering_from_sequence(sequence, program.database, program.ontology)
    annotated = propagation_ordering(ordering, program.ontology)
    sp22 = StartingPoint(c2, 2, 2)
    sp32 = StartingPoint(n1, 3, 2)
    sp41 = StartingPoint(c2, 4, 1)
    sp61 = StartingPoint(n1, 6, 1)
    expected = (
        Atom("s", (c1,)),
        Atom("p", (c1, sp22)),
        Atom("p", (c1, sp32)),
        Atom("u", (sp41, c1)),
        Atom("t", (sp22,)),
        Atom("u", (sp61, c1)),
        Atom("r", (sp32, c1)),
        Atom("t", (sp32,)),
        Atom("r", (sp22, c1)),
    )
    for idx, atom in enumerate(expected):
        if annotated[idx] != atom:
            return False, f"atom {idx + 1}: got {annotated[idx]!r}, want {atom!r}"
    return True, "all 9 annotated atoms reproduced"


CHECKS = {
    "golden-rewriting": check_golden_rewriting,
    "golden-classification": check_golden_classification,
    "chase-commutation": check_chase_commutation,
    "active-partition": check_active_partition,
    "fragment-preservation": check_fragment_preservation,
    "entailment-transfer": check_entailment_transfer,
    "minimal-model-support": check_minimal_model_support,
    "disjoin-repair": check_disjoin_repair,
    "finite-countermodels": check_finite_countermodels,
    "propagation-golden": check_propagation_golden,
}

SUITES = {
    "paper": ["golden-rewriting", "golden-classification", "propagation-golden"],
    "random": ["chase-commutation", "active-partition", "fragment-preservation",
               "disjoin-repair"],
    "curated": ["entailment-transfer", "minimal-model-support", "finite-countermodels"],
}
SUITES["all"] = SUITES["paper"] + SUITES["random"] + SUITES["curated"]


def run_suite(name: str, seed: int) -> list:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    results = []
    for check_name in SUITES[name]:
        fn = CHECKS[check_name]
        results.append(fn(seed=seed) if check_name in SUITES["random"] else fn())
    return results
