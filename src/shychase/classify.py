"""Membership tests for the basic Datalog± fragments, with violation witnesses.

Covers the local conditions (datalog, inclusion-dependencies, linear,
guarded, joinless), the position dependency graph for weak acyclicity,
the sticky marking fixpoint, and the invaded/attacked/protected fixpoint
behind shyness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .core import Ontology, Position, Rule, Variable, is_simple

FRAGMENTS = (
    "datalog",
    "inclusion-dependencies",
    "linear",
    "guarded",
    "joinless",
    "sticky",
    "weakly-acyclic",
    "shy",
)


@dataclass(frozen=True)
class ViolationWitness:
    fragment: str
    rule_id: Optional[str]
    condition: str
    variables: tuple = ()
    positions: tuple = ()
    attacker: Optional[str] = None

    def describe(self) -> str:
        parts = [self.condition]
        if self.rule_id:
            parts.append(f"rule {self.rule_id}")
        if self.variables:
            parts.append("variables " + ", ".join(self.variables))
        if self.positions:
            parts.append("positions " + ", ".join(str(p) for p in self.positions))
        if self.attacker:
            parts.append(f"attacker {self.attacker}")
        return "; ".join(parts)


@dataclass(frozen=True)
class FragmentReport:
    verdicts: dict

    def holds(self, fragment: str) -> bool:
        return self.verdicts[fragment][0]

    def witness(self, fragment: str) -> Optional[ViolationWitness]:
        return self.verdicts[fragment][1]


# ---------------------------------------------------------------------------
# local conditions


def _body_positions(rule: Rule, var: Variable) -> list:
    return [
        Position(atom.predicate_name, i)
        for atom in rule.body
        for i, t in enumerate(atom.args, 1)
        if t == var
    ]


def classify_local(onto: Ontology) -> dict:
    """Verdicts for datalog, inclusion-dependencies, linear, guarded and joinless."""
    verdicts = {name: (True, None) for name in
                ("datalog", "inclusion-dependencies", "linear", "guarded", "joinless")}

    def fail(name, witness):
        if verdicts[name][0]:
            verdicts[name] = (False, witness)

    for rule in onto:
        if rule.ev:
            fail("datalog", ViolationWitness(
                "datalog", rule.id, "head introduces existential variables",
                tuple(sorted(v.name for v in rule.ev))))
        if len(rule.body) != 1:
            w = ViolationWitness("linear", rule.id, "body has more than one atom")
            fail("linear", w)
            fail("inclusion-dependencies", ViolationWitness(
                "inclusion-dependencies", rule.id, "body has more than one atom"))
        nonsimple = [a for a in rule.atoms() if not is_simple(a)]
        if nonsimple:
            fail("inclusion-dependencies", ViolationWitness(
                "inclusion-dependencies", rule.id, "atom repeats a term",
                positions=(Position(nonsimple[0].predicate_name, 0),)))
        if not any(rule.uv <= set(a.variables()) for a in rule.body):
            fail("guarded", ViolationWitness(
                "guarded", rule.id, "no body atom contains every universal variable",
                tuple(sorted(v.name for v in rule.uv))))
        if not is_simple(rule.head):
            fail("joinless", ViolationWitness(
                "joinless", rule.id, "head is not a simple atom"))
        body_terms = [t for a in rule.body for t in a.args]
        repeated = sorted({t.name for t in body_terms
                           if isinstance(t, Variable) and body_terms.count(t) > 1})
        if repeated:
            fail("joinless", ViolationWitness(
                "joinless", rule.id, "body repeats a variable", tuple(repeated)))
    return verdicts


# ---------------------------------------------------------------------------
# weak acyclicity


@dataclass(frozen=True)
class DependencyGraph:
    nodes: frozenset
    edges: frozenset  # (Position, Position, "plain" | "special")


def dependency_graph(onto: Ontology) -> DependencyGraph:
    nodes = frozenset(onto.positions())
    edges = set()
    for rule in onto:
        head = rule.head
        head_pos = {v: [Position(head.predicate_name, j)
                        for j, t in enumerate(head.args, 1) if t == v]
                    for v in rule.uv}
        ev_pos = [Position(head.predicate_name, j)
                  for j, t in enumerate(head.args, 1) if t in rule.ev]
        for v in sorted(rule.uv):
            targets = head_pos.get(v) or []
            if not targets:
                continue
            for src in _body_positions(rule, v):
                for tgt in targets:
                    edges.add((src, tgt, "plain"))
                for tgt in ev_pos:
                    edges.add((src, tgt, "special"))
    return DependencyGraph(nodes, frozenset(edges))


def weakly_acyclic(onto: Ontology):
    """(verdict, graph, special cycle or None); false iff a cycle crosses a special arc."""
    graph = dependency_graph(onto)
    adj: dict = {}
    for p, q, lbl in graph.edges:
        adj.setdefault(p, []).append((q, lbl))
    for lst in adj.values():
        lst.sort(key=lambda e: (str(e[0]), e[1]))
    specials = sorted(((p, q) for p, q, lbl in graph.edges if lbl == "special"),
                      key=lambda e: (str(e[0]), str(e[1])))
    for src, tgt in specials:
        path = _find_path(adj, tgt, src)
        if path is not None:
            cycle = [(src, tgt, "special")]
            for a, b, lbl in path:
                cycle.append((a, b, lbl))
            return False, graph, tuple(cycle)
    return True, graph, None


def _find_path(adj, start, goal):
    """Edge path start -> goal (possibly empty if start == goal)."""
    if start == goal:
        return []
    seen = {start}
    frontier = deque([(start, [])])
    while frontier:
        node, path = frontier.popleft()
        for nxt, lbl in adj.get(node, ()):
            if nxt in seen:
                continue
            step = path + [(node, nxt, lbl)]
            if nxt == goal:
                return step
            seen.add(nxt)
            frontier.append((nxt, step))
    return None


# ---------------------------------------------------------------------------
# stickiness


@dataclass(frozen=True)
class MarkingTable:
    marked: frozenset  # (rule id, variable name)

    def __contains__(self, key):
        return key in self.marked


def sticky_marking(onto: Ontology):
    """Least-fixpoint marking; sticky iff no marked variable repeats in its body."""
    marked: set = set()
    for rule in onto:
        head_vars = set(rule.head.variables())
        for v in rule.uv:
            if v not in head_vars:
                marked.add((rule.id, v.name))
    changed = True
    while changed:
        changed = False
        marked_positions = {
            pos
            for rule in onto
            for (rid, name) in marked
            if rid == rule.id
            for pos in _body_positions(rule, Variable(name))
        }
        for rule in onto:
            for j, t in enumerate(rule.head.args, 1):
                if not isinstance(t, Variable) or t in rule.ev:
                    continue
                if Position(rule.head.predicate_name, j) in marked_positions:
                    if (rule.id, t.name) not in marked:
                        marked.add((rule.id, t.name))
                        changed = True
    table = MarkingTable(frozenset(marked))
    witness = None
    for rule in onto:
        body_terms = [t for a in rule.body for t in a.args]
        for v in sorted(rule.uv):
            if (rule.id, v.name) in table.marked and body_terms.count(v) > 1:
                witness = ViolationWitness(
                    "sticky", rule.id, "marked variable occurs multiple times in the body",
                    (v.name,), tuple(_body_positions(rule, v)))
                break
        if witness:
            break
    return table, witness is None, witness


# ---------------------------------------------------------------------------
# shyness


@dataclass(frozen=True)
class InvasionTable:
    invaded: dict  # Position -> frozenset of existential-variable ids (rule id, name)

    def invaders(self, pos: Position) -> frozenset:
        return self.invaded.get(pos, frozenset())


def invasion_table(onto: Ontology) -> InvasionTable:
    """Least fixpoint of the two invasion clauses over (position, ∃-variable) pairs."""
    invaded: dict = {}

    def add(pos, ev_id):
        cur = invaded.setdefault(pos, set())
        if ev_id in cur:
            return False
        cur.add(ev_id)
        return True

    changed = True
    while changed:
        changed = False
        for rule in onto:
            head = rule.head
            for j, t in enumerate(head.args, 1):
                pos = Position(head.predicate_name, j)
                if t in rule.ev:
                    if add(pos, (rule.id, t.name)):
                        changed = True
                elif isinstance(t, Variable):
                    body_pos = _body_positions(rule, t)
                    if not body_pos:
                        continue
                    common = set(invaded.get(body_pos[0], set()))
                    for p in body_pos[1:]:
                        common &= invaded.get(p, set())
                    for ev_id in common:
                        if add(pos, ev_id):
                            changed = True
    return InvasionTable({p: frozenset(s) for p, s in invaded.items()})


def attacked(atoms, var: Variable, table: InvasionTable) -> frozenset:
    """∃-variables invading every position of the atoms (a rule body or a
    single atom) where var occurs."""
    positions = [Position(atom.predicate_name, i)
                 for atom in atoms for i, t in enumerate(atom.args, 1) if t == var]
    if not positions:
        return frozenset()
    common = set(table.invaders(positions[0]))
    for p in positions[1:]:
        common &= table.invaders(p)
    return frozenset(common)


def is_shy(onto: Ontology):
    """Shyness check; the witness names the rule, variables and attacking variable.

    Condition (1): a variable joining two body atoms must be protected.
    Condition (2): two head variables sitting in different body atoms must
    not be attacked there by one and the same existential variable.
    """
    table = invasion_table(onto)
    for rule in onto:
        occurs_in = {v: [a for a in rule.body if v in set(a.variables())] for v in rule.uv}
        for v in sorted(rule.uv):
            attackers = attacked(rule.body, v, table) if len(occurs_in[v]) > 1 else ()
            if attackers:
                attacker = sorted(attackers)[0]
                return False, ViolationWitness(
                    "shy", rule.id,
                    "condition (i): variable joins body atoms but is not protected",
                    (v.name,), tuple(_body_positions(rule, v)), attacker[1])
        head_vars = sorted(set(rule.head.variables()) & rule.uv)
        for x in head_vars:
            for y in head_vars:
                if x.name >= y.name:
                    continue
                for ax in occurs_in[x]:
                    for ay in occurs_in[y]:
                        if ax is ay:
                            continue
                        common = attacked((ax,), x, table) & attacked((ay,), y, table)
                        if common:
                            attacker = sorted(common)[0]
                            return False, ViolationWitness(
                                "shy", rule.id,
                                "condition (ii): head variables in different body atoms "
                                "attacked by the same variable",
                                (x.name, y.name),
                                tuple(_body_positions(rule, x) + _body_positions(rule, y)),
                                attacker[1])
    return True, None


# ---------------------------------------------------------------------------
# full report


def classify(onto: Ontology) -> FragmentReport:
    verdicts = classify_local(onto)
    wa_ok, _, cycle = weakly_acyclic(onto)
    if wa_ok:
        verdicts["weakly-acyclic"] = (True, None)
    else:
        verdicts["weakly-acyclic"] = (False, ViolationWitness(
            "weakly-acyclic", None, "cycle through a special arc",
            positions=tuple(p for p, _, _ in cycle)))
    _, sticky_ok, sticky_witness = sticky_marking(onto)
    verdicts["sticky"] = (sticky_ok, sticky_witness)
    shy_ok, shy_witness = is_shy(onto)
    verdicts["shy"] = (shy_ok, shy_witness)
    return FragmentReport(verdicts)
