"""Membership tests for the basic Datalog± fragments, with violation witnesses.

Covers the local conditions (datalog, inclusion-dependencies, linear,
guarded, joinless), the position dependency graph for weak acyclicity,
the sticky marking fixpoint, and the invaded/attacked/protected fixpoint
behind shyness.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .core import Ontology, Position, _Record, is_simple
from .parse import written_name

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


class ViolationWitness(_Record):
    __slots__ = ()
    _fields = ("fragment", "rule_id", "condition", "variables", "positions", "attacker")

    def __new__(cls, fragment: str, rule_id: Optional[str], condition: str,
                variables: tuple = (), positions: tuple = (), attacker: Optional[str] = None):
        return tuple.__new__(cls, (fragment, rule_id, condition, variables, positions, attacker))

    def describe(self) -> str:
        """The witness in words, each variable named as written."""
        parts = [self.condition]
        if self.rule_id:
            parts.append(f"rule {self.rule_id}")
        if self.variables:
            parts.append("variables " + ", ".join(map(written_name, self.variables)))
        if self.positions:
            parts.append("positions " + ", ".join(str(p) for p in self.positions))
        if self.attacker:
            parts.append(f"attacker {written_name(self.attacker)}")
        return "; ".join(parts)


# ---------------------------------------------------------------------------
# local conditions


def classify_local(onto: Ontology) -> dict:
    """Verdicts for datalog, inclusion-dependencies, linear, guarded and joinless."""
    verdicts = {name: (True, None) for name in
                ("datalog", "inclusion-dependencies", "linear", "guarded", "joinless")}

    def fail(name, rule, condition, variables=(), positions=()):
        """Record a violation of fragment name unless one is already
        recorded; the witness lists the variables' names sorted."""
        if verdicts[name][0]:
            verdicts[name] = (False, ViolationWitness(
                name, rule.id, condition, tuple(sorted(v.name for v in variables)), positions))

    for rule in onto:
        if rule.ev:
            fail("datalog", rule, "head introduces existential variables", rule.ev)
        if len(rule.body) != 1:
            fail("linear", rule, "body has more than one atom")
            fail("inclusion-dependencies", rule, "body has more than one atom")
        nonsimple = [a for a in rule.atoms() if not is_simple(a)]
        if nonsimple:
            fail("inclusion-dependencies", rule, "atom repeats a term",
                 positions=(Position(nonsimple[0].predicate_name, 0),))
        if not any(rule.uv <= set(a.variables()) for a in rule.body):
            fail("guarded", rule, "no body atom contains every universal variable", rule.uv)
        if not is_simple(rule.head):
            fail("joinless", rule, "head is not a simple atom")
        repeated = [v for v in rule.uv if len(rule.positions[v][0]) > 1]
        if repeated:
            fail("joinless", rule, "body repeats a variable", repeated)
    return verdicts


# ---------------------------------------------------------------------------
# weak acyclicity


def dependency_graph(onto: Ontology) -> frozenset:
    """Edges (source, target, "plain" | "special") of the position graph."""
    edges = set()
    for rule in onto:
        table = rule.positions
        ev_pos = [p for v in rule.ev for p in table[v][2]]
        for v in rule.uv:
            sources, _, targets = table[v]
            if not targets:
                continue
            for src in sources:
                edges.update((src, tgt, "plain") for tgt in targets)
                edges.update((src, tgt, "special") for tgt in ev_pos)
    return frozenset(edges)


def weakly_acyclic(onto: Ontology):
    """(verdict, edges, special cycle or None); false iff a cycle crosses a special arc."""
    edges = dependency_graph(onto)
    adj: dict = {}
    for p, q, lbl in edges:
        adj.setdefault(p, []).append((q, lbl))
    for lst in adj.values():
        lst.sort(key=lambda e: (str(e[0]), e[1]))
    specials = sorted(((p, q) for p, q, lbl in edges if lbl == "special"),
                      key=lambda e: (str(e[0]), str(e[1])))
    for src, tgt in specials:
        path = _find_path(adj, tgt, src)
        if path is not None:
            return False, edges, ((src, tgt, "special"), *path)
    return True, edges, None


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


def sticky_marking(onto: Ontology):
    """Least-fixpoint marking as a frozenset of (rule id, variable name) pairs;
    sticky iff no marked variable repeats in its body."""
    marked = {(rule.id, v.name) for rule in onto
              for v in rule.uv - set(rule.head.variables())}
    changed = True
    while changed:
        changed = False
        marked_positions = {pos for rule in onto for v in rule.uv
                            if (rule.id, v.name) in marked
                            for pos in rule.positions[v][0]}
        for rule in onto:
            for v in rule.uv:
                if ((rule.id, v.name) not in marked
                        and not marked_positions.isdisjoint(rule.positions[v][2])):
                    marked.add((rule.id, v.name))
                    changed = True
    for rule in onto:
        for v in sorted(rule.uv):
            positions = rule.positions[v][0]
            if (rule.id, v.name) in marked and len(positions) > 1:
                return frozenset(marked), False, ViolationWitness(
                    "sticky", rule.id, "marked variable occurs multiple times in the body",
                    (v.name,), positions)
    return frozenset(marked), True, None


# ---------------------------------------------------------------------------
# shyness


def invasion_table(onto: Ontology) -> dict:
    """Least fixpoint of the two invasion clauses: each invaded position maps
    to the frozenset of (rule id, name) of the ∃-variables invading it."""
    invaded: dict = {}
    heads = [(rule, rule.positions, _head_variables(rule)) for rule in onto]
    changed = True
    while changed:
        changed = False
        for rule, table, head in heads:
            for pos, t in head:
                if t in rule.ev:
                    new = {(rule.id, t.name)}
                else:
                    new = attacked(table[t][0], invaded)
                old = invaded.get(pos, frozenset())
                if not new <= old:
                    invaded[pos] = old | new
                    changed = True
    return invaded


def _head_variables(rule) -> list:
    """(position, variable) for each head argument that is a variable, in
    argument order, read off `Rule.positions`."""
    return sorted((pos, v) for v, (_, _, head) in rule.positions.items() for pos in head)


def attacked(positions, invaded: dict) -> frozenset:
    """∃-variables invading every one of the positions (a variable's
    positions in a rule body or in one body atom)."""
    if not positions:
        return frozenset()
    return frozenset.intersection(*(invaded.get(p, frozenset()) for p in positions))


def is_shy(onto: Ontology):
    """Shyness check; the witness names the rule, variables and attacking variable.

    Condition (1): a variable joining two body atoms must be protected.
    Condition (2): two head variables sitting in different body atoms must
    not be attacked there by one and the same existential variable.
    """
    invaded = invasion_table(onto)
    for rule in onto:
        table = rule.positions
        for v in sorted(rule.joins):
            attackers = attacked(table[v][0], invaded)
            if attackers:
                attacker = sorted(attackers)[0]
                return False, ViolationWitness(
                    "shy", rule.id,
                    "condition (i): variable joins body atoms but is not protected",
                    (v.name,), table[v][0], attacker[1])
        head_vars = sorted(set(rule.head.variables()) & rule.uv)
        for x in head_vars:
            for y in head_vars:
                if x.name >= y.name:
                    continue
                for ax, px in table[x][1]:
                    for ay, py in table[y][1]:
                        if ax is ay:
                            continue
                        common = attacked(px, invaded) & attacked(py, invaded)
                        if common:
                            attacker = sorted(common)[0]
                            return False, ViolationWitness(
                                "shy", rule.id,
                                "condition (ii): head variables in different body atoms "
                                "attacked by the same variable",
                                (x.name, y.name), table[x][0] + table[y][0], attacker[1])
    return True, None


# ---------------------------------------------------------------------------
# full report


def classify(onto: Ontology) -> dict:
    """{fragment: (holds, witness or None)} for every fragment of FRAGMENTS."""
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
    verdicts["shy"] = is_shy(onto)
    return verdicts
