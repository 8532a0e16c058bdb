"""The three workloads: inputs made from a seed, task lists and oracles.

A task is what a user does with one input file: one or more steps, each a
`shychase` command line run in-process through `shychase.cli.main`, or a
public library call where the CLI offers no command.  Every oracle runs
after the timed passes and reads only the steps' outputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path
from typing import Callable, Optional

from . import oracle

# Oblivious chase of father.dlp grows by two atoms per round from three, so
# an odd cap ends on a round boundary and both null chains have one length.
FATHER_MAX_ATOMS = 201
PATH_EDGES = 16
THEORIES = 120
# theory-batch takes its theories from one fixed sample, and the seed gives
# each an isomorphic copy (predicates and constants renamed among
# themselves, rules reordered) and its own query.  A fresh sample per seed
# varied the pass time by itself, with a quartile spread of 0.19 of the
# median over ten seeds, because a few costly theories set it.
THEORY_SAMPLE_SEED = 0
# theory-batch measures per-call cost on tiny instances.  Some random
# theories never terminate and cost seconds per chase at a few hundred
# atoms; a small cap keeps one such theory from outweighing the others.
THEORY_MAX_ATOMS = 30
# fc-check budget: the CLI's default of 2 nulls, two atoms fewer than its
# default of 12.  At 12 atoms t20's exhaustive search alone takes 13-20 s
# and t18's 5 s; at 10 they take about 1.2 s and 0.2 s, so a pass fits
# several times into one run while the subset scan still dominates it.
FC_MAX_NULLS, FC_MAX_ATOMS = 2, 10
# Budget of fc-check's defaults and of the harness, for the repair step.
REPAIR_NULLS, REPAIR_ATOMS = 2, 12
# Curated theories whose active part has a well-supported model within the
# repair budget, so the repair step must return a repair.  The others have
# no harmless rules, or (t17, t19) no such model within the budget.
REPAIRABLE = ("t01", "t02", "t06", "t07", "t10", "t11", "t13", "t16")


@dataclass(frozen=True)
class Step:
    label: str
    argv: tuple = ()
    call: Optional[Callable] = None  # library step: call(lib) -> output text
    save_as: Optional[Path] = None  # file that receives the step's output


@dataclass(frozen=True)
class Task:
    name: str
    steps: tuple
    meta: dict = field(default_factory=dict)


def _cli(label: str, *argv) -> Step:
    return Step(label, tuple(str(a) for a in argv))


def _atoms(instance_json) -> set:
    return {oracle.atom_from_json(a) for a in instance_json["atoms"]}


# ---------------------------------------------------------------------------
# chase-deep


def _chase_deep_setup(lib, seed: int, workdir: Path) -> list:
    rng = random.Random(seed)
    father = workdir / "father.dlp"
    father.write_text((Path(lib.__file__).parent / "suites/paper/father.dlp").read_text())
    nodes = [f"v{k}" for k in rng.sample(range(10**6), PATH_EDGES + 1)]
    edges = [f"e({a},{b})." for a, b in zip(nodes, nodes[1:])]
    rng.shuffle(edges)
    path = workdir / "path.dlp"
    path.write_text("\n".join(edges + [
        "e(X,Y) -> tc(X,Y).",
        "tc(X,Y), e(Y,Z) -> tc(X,Z).",
        f"? tc({nodes[0]},{nodes[-1]}).",
        f"? tc({nodes[-1]},{nodes[0]}).",
    ]) + "\n")
    tasks = []
    for input_name, file, bound in (("father", father, ("--max-atoms", FATHER_MAX_ATOMS)),
                                    ("path", path, ())):
        for command in ("chase", "answer"):
            for mode in ("oblivious", "restricted"):
                flags = ("--restricted",) if mode == "restricted" else ()
                step = _cli(command, command, file, "--json", *bound, *flags)
                tasks.append(Task(f"{input_name}-{command}-{mode}", (step,),
                                  {"input": input_name, "command": command,
                                   "mode": mode, "nodes": nodes}))
    return tasks


def father_expected(mode: str, max_atoms: int) -> set:
    """Hand-built chase of father.dlp capped at max_atoms, with the null at
    depth d above root r written ("chain", r, d).

    Oblivious: every p-atom gets a father, so c1 and c2 each grow a chain,
    one f-round and one p-round per level.  Restricted: f(c1,c2) already
    gives c2 a father, so only c1 grows a chain, one atom per round.
    """
    c1, c2 = ("c", "c1"), ("c", "c2")
    atoms = [("p", None, (c1,)), ("p", None, (c2,)), ("f", None, (c1, c2))]
    roots = (c1, c2) if mode == "oblivious" else (c1,)

    def node(root, depth):
        return root if depth == 0 else ("chain", root[1], depth)

    for depth in count(1):
        atoms += [("f", None, (node(r, depth), node(r, depth - 1))) for r in roots]
        atoms += [("p", None, (node(r, depth),)) for r in roots]
        if len(atoms) >= max_atoms:
            return set(atoms[:max_atoms])


def name_chain_nulls(atoms: set) -> Optional[set]:
    """Rename each null to ("chain", root, depth) by following f(father,
    child) down to a constant; None if some null is not on such a chain."""
    child = {}
    for pred, _, args in atoms:
        if pred == "f" and args[0][0] == "n":
            if args[0] in child:
                return None
            child[args[0]] = args[1]
    label: dict = {}
    for null in child:
        path, t = [], null
        while t[0] == "n" and t not in label:
            if t not in child or len(path) > len(child):
                return None
            path.append(t)
            t = child[t]
        root, depth = (t[1], 0) if t[0] == "c" else label[t][1:]
        for n in reversed(path):
            depth += 1
            label[n] = ("chain", root, depth)
    renamed = {(p, s, tuple(label.get(t, t) for t in args)) for p, s, args in atoms}
    if any(t[0] == "n" for _, _, args in renamed for t in args):
        return None
    return renamed


def path_expected(nodes: list) -> set:
    """Edges of the path plus tc(vi,vj) for every i < j."""
    c = [("c", v) for v in nodes]
    atoms = {("e", None, (a, b)) for a, b in zip(c, c[1:])}
    atoms |= {("tc", None, (c[i], c[j])) for i in range(len(c)) for j in range(i + 1, len(c))}
    return atoms


def _chase_deep_check(lib, task: Task, outputs: list, tally) -> list:
    meta = task.meta
    out = json.loads(outputs[0])
    if meta["command"] == "answer":
        want = ["true"] if meta["input"] == "father" else ["true", "false"]
        got = [row["verdict"] for row in out]
        return [] if got == want else [f"verdicts {got}, expected {want}"]
    atoms = _atoms(out["atoms"])
    if meta["input"] == "father":
        if out["terminated"]:
            return ["father chase reported termination"]
        if name_chain_nulls(atoms) != father_expected(meta["mode"], FATHER_MAX_ATOMS):
            return ["father chase differs from the hand-built chains"]
        return []
    if not out["terminated"]:
        return ["path chase did not terminate"]
    if atoms != path_expected(meta["nodes"]):
        return [f"path chase has {len(atoms)} atoms, expected the closure of the path"]
    return []


# ---------------------------------------------------------------------------
# theory-batch


def derive_query(lib, program, rng: random.Random):
    """One atom over a predicate of the theory, each argument a database
    constant (probability 0.3) or one of two shared variables."""
    core = lib.core
    signature = sorted({(a.pred, a.arity) for r in program.ontology for a in r.atoms()}
                       | {(a.pred, a.arity) for a in program.database})
    constants = sorted({t.name for a in program.database for t in a.args})
    pred, arity = rng.choice(signature)
    args = tuple(core.Constant(rng.choice(constants)) if rng.random() < 0.3
                 else core.Variable(f"Q{rng.randint(1, 2)}") for _ in range(arity))
    return core.Query(((core.Atom(pred, args),),))


def isomorphic_copy(lib, program, rng: random.Random):
    """The program with its predicates and constants permuted among
    themselves and its rules shuffled."""
    core = lib.core
    atoms = [*program.database, *(a for r in program.ontology for a in r.atoms())]
    preds = sorted({a.pred for a in atoms})
    consts = sorted({t.name for a in atoms for t in a.args if isinstance(t, core.Constant)})
    pred_map = dict(zip(preds, rng.sample(preds, len(preds))))
    const_map = dict(zip(consts, rng.sample(consts, len(consts))))

    def rename(a):
        return core.Atom(pred_map[a.pred], tuple(
            core.Constant(const_map[t.name]) if isinstance(t, core.Constant) else t
            for t in a.args), a.shape)

    rules = [core.Rule(r.id, tuple(rename(a) for a in r.body), rename(r.head))
             for r in program.ontology]
    rng.shuffle(rules)
    return lib.parse.Program(core.Database(frozenset(rename(a) for a in program.database)),
                             core.Ontology(tuple(rules)))


def _theory_batch_setup(lib, seed: int, workdir: Path) -> list:
    rng = random.Random(seed)
    sample = random.Random(THEORY_SAMPLE_SEED)
    gen = lib.generate
    cfg = gen.default_config()
    bound = ("--max-atoms", THEORY_MAX_ATOMS)
    tasks = []
    for i in range(THEORIES):
        program = gen.random_program_where(gen.atom_scoped_joins, sample.randrange(2**31), cfg)
        program = isomorphic_copy(lib, program, rng)
        query = derive_query(lib, program, rng)
        source = workdir / f"theory{i:03d}.dlp"
        canonical = workdir / f"theory{i:03d}.canonical.dlp"
        source.write_text(lib.parse.print_program(
            lib.parse.Program(program.database, program.ontology, (query,))))
        steps = (
            _cli("classify", "classify", source, "--json"),
            Step("rewrite", ("rewrite", str(source)), save_as=canonical),
            _cli("answer-source", "answer", source, "--restricted", "--json", *bound),
            _cli("answer-canonical", "answer", canonical, "--restricted", "--json", *bound),
        )
        tasks.append(Task(f"theory{i:03d}", steps))
    return tasks


def _theory_batch_check(lib, task: Task, outputs: list, tally) -> list:
    source, canonical = (json.loads(outputs[k]) for k in (2, 3))
    if len(source) != 1 or len(canonical) != 1:
        return ["expected exactly one query on each side"]
    verdicts = {source[0]["verdict"], canonical[0]["verdict"]}
    if "unknown" not in verdicts:
        tally["source/canonical pairs both decided"] += 1
    if verdicts == {"true", "false"}:
        return [f"source and canonical verdicts disagree: {source[0]['verdict']} "
                f"vs {canonical[0]['verdict']}"]
    return []


# ---------------------------------------------------------------------------
# models-curated


def _term_json(t, lib) -> dict:
    if isinstance(t, lib.finitemodels.StartingPoint):
        return {"sp": [_term_json(t.term, lib), t.atom_index, t.position]}
    kind, value = oracle.plain_term(t, lib.core)
    return {{"c": "const", "n": "null", "v": "var"}[kind]: value}


def _instance_json(instance, lib) -> dict:
    """Like parse.to_jsonable, but keeps a repair's starting points apart
    from nulls, so the oracle can apply the repair's mapping back."""
    atoms = []
    for a in instance:
        atom = {"pred": a.pred, "args": [_term_json(t, lib) for t in a.args]}
        if a.shape is not None:
            atom["shape"] = list(a.shape)
        atoms.append(atom)
    return {"atoms": sorted(atoms, key=json.dumps)}


def repair_step(path: Path, lib) -> str:
    """Rewrite, split off the harmless rules, take the first well-supported
    model of the active part and repair it into a model of the whole."""
    fm = lib.finitemodels
    program = lib.parse.parse_program(path.read_text())
    dbc, ontoc, _ = lib.canonical.rewrite_theory(program.database, program.ontology)
    active, harmless = lib.canonical.partition_active_harmless(ontoc)
    out = {"harmless_rules": len(harmless), "model": None, "repaired": None, "mapping": None}
    if harmless:
        budget = fm.ModelBudget(REPAIR_NULLS, REPAIR_ATOMS)
        for model in fm.enumerate_finite_models(dbc, active, budget):
            ordering = fm.find_support_ordering(model, dbc, active)
            if ordering is not None:
                repaired, back = fm.disjoin_repair(model, ordering, ontoc)
                out["model"] = _instance_json(model, lib)
                out["repaired"] = _instance_json(repaired, lib)
                out["mapping"] = sorted(([_term_json(k, lib), _term_json(v, lib)]
                                         for k, v in back.items()), key=json.dumps)
                break
    return json.dumps(out, sort_keys=True)


def _models_curated_setup(lib, seed: int, workdir: Path) -> list:
    rng = random.Random(seed)
    suite = Path(lib.__file__).parent / "suites/curated"
    names = sorted(p.name for p in suite.glob("*.dlp"))
    rng.shuffle(names)
    tasks = []
    for i, name in enumerate(names):
        text = (suite / name).read_text()
        path = workdir / f"{i:02d}-{name}"
        path.write_text(text)
        program = lib.parse.parse_program(text)
        answer = ("answer", str(path), "--restricted", "--json")
        cfg = chase_config(lib, answer)
        verdicts = [lib.chase.entails(program.database, program.ontology, q, cfg).verdict.value
                    for q in program.queries]
        false_query = verdicts.index("false") + 1 if "false" in verdicts else None
        budget = ("--max-nulls", FC_MAX_NULLS, "--max-atoms", FC_MAX_ATOMS)
        steps = [Step("answer", answer), _cli("fc-check-1", "fc-check", path, "--json", *budget)]
        if false_query is not None:
            steps.append(_cli("fc-check-false", "fc-check", path, "--json",
                              "--query", false_query, *budget))
        steps.append(Step("repair", call=lambda lib, path=path: repair_step(path, lib)))
        meta = {"path": path, "theory": Path(name).stem, "verdicts": verdicts,
                "false_query": false_query, "answer": answer}
        # One task per command: the percentiles then rest on about 80 task
        # times instead of 20 theory totals, which leave a gap at the median.
        tasks += [Task(f"{name}:{step.label}", (step,), meta) for step in steps]
    return tasks


def chase_model_fits_budget(lib, program, argv, db, rules, disjuncts) -> bool:
    """True when the chase of `answer` argv terminates in a model that the
    naive oracle confirms satisfies the theory and not the query, within the
    fc-check budget: a countermodel then exists, so the search must find one."""
    result = lib.chase.run_chase(program.database, program.ontology, chase_config(lib, argv))
    instance = {oracle.plain_atom(a, lib.core) for a in result.instance}
    nulls = {t for _, _, args in instance for t in args if t[0] == "n"}
    return (result.terminated and len(instance) <= FC_MAX_ATOMS and len(nulls) <= FC_MAX_NULLS
            and oracle.is_model(instance, db, rules) and not oracle.satisfies(instance, disjuncts))


def _models_curated_check(lib, task: Task, outputs: list, tally) -> list:
    meta, label = task.meta, task.steps[0].label
    out = json.loads(outputs[0])
    program = lib.parse.parse_program(meta["path"].read_text())
    if label == "answer":
        verdicts = [row["verdict"] for row in out]
        if verdicts[0] != "true":
            return [f"query 1 is {verdicts[0]}, expected entailed"]
        if verdicts != meta["verdicts"]:
            return [f"verdicts {verdicts} differ from the set-up's {meta['verdicts']}"]
        return []
    if label == "fc-check-1":
        return [] if out["countermodel"] is None else [
            "countermodel reported for the entailed query 1"]
    db, rules = oracle.plain_theory(program.database, program.ontology, lib.core)
    if label == "fc-check-false":
        k = meta["false_query"]
        disjuncts = [tuple(oracle.plain_atom(a, lib.core) for a in d)
                     for d in program.queries[k - 1].disjuncts]
        if out["countermodel"] is None:
            if chase_model_fits_budget(lib, program, meta["answer"], db, rules, disjuncts):
                return [f"no countermodel for false query {k}, though its chase model "
                        "is one within the budget"]
            return []
        tally["countermodels checked"] += 1
        counter = _atoms(out["countermodel"])
        if not oracle.is_model(counter, db, rules):
            return ["countermodel is not a model of the theory"]
        if oracle.satisfies(counter, disjuncts):
            return ["countermodel satisfies the query"]
        return []
    if out["repaired"] is None:
        return ([f"no repair, though {meta['theory']} has one within the budget"]
                if meta["theory"] in REPAIRABLE else [])
    tally["repairs checked"] += 1
    dbc, ontoc, _ = lib.canonical.rewrite_theory(program.database, program.ontology)
    cdb, crules = oracle.plain_theory(dbc, ontoc, lib.core)
    repaired, model = _atoms(out["repaired"]), _atoms(out["model"])
    back = {oracle.term_from_json(k): oracle.term_from_json(v) for k, v in out["mapping"]}
    problems = []
    if not oracle.is_model(repaired, cdb, crules):
        problems.append("repair is not a model of the canonical theory")
    if not {oracle.substitute(a, back) for a in repaired} <= model:
        problems.append("repair does not map back into its input model")
    return problems


# ---------------------------------------------------------------------------


def chase_config(lib, argv):
    """The ChaseConfig the CLI builds for a `chase` or `answer` argv."""
    args = lib.cli.build_parser().parse_args(list(argv))
    mode = lib.chase.RESTRICTED if args.restricted else lib.chase.OBLIVIOUS
    return lib.chase.ChaseConfig(mode, args.max_atoms, args.max_rounds)


@dataclass(frozen=True)
class Workload:
    setup: Callable  # (lib, seed, workdir) -> list of Task
    # (lib, task, outputs of its steps, tally) -> list of problems; the
    # oracle counts in the Counter `tally` the checks that could be made.
    check: Callable


WORKLOADS = {
    "chase-deep": Workload(_chase_deep_setup, _chase_deep_check),
    "theory-batch": Workload(_theory_batch_setup, _theory_batch_check),
    "models-curated": Workload(_models_curated_setup, _models_curated_check),
}
