"""Span tracer that wraps shychase's public functions from outside the package.

The traced run replaces each function in TRACED, at every name it is bound
to inside `shychase.*` (for example both `chase.run_chase` and
`cli.run_chase`), with a wrapper that records one span per call.  A span is
(name, start, end, paused, parent, task); spans stay in flat arrays in
memory and are written out once, after the run.  Generator functions are
timed across consumption: the span opens at the first `next`, closes when
the generator is exhausted or closed, and the time the generator spends
suspended in its consumer is recorded as `paused`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

# Public functions wrapped per layer.  `core` (value types) and `harness`
# are not traced; `generate` only runs during set-up.
TRACED = {
    "cli": ("main",),
    "parse": ("parse_program", "print_program", "to_jsonable"),
    "classify": ("classify",),
    "canonical": ("rewrite_theory",),
    "chase": ("run_chase", "applicable_steps", "entails"),
    "hom": ("homomorphisms", "satisfies_query", "isomorphic"),
    "finitemodels": ("enumerate_finite_models", "find_finite_countermodel",
                     "is_model", "find_support_ordering", "disjoin_repair",
                     "propagation_ordering"),
}
LAYERS = tuple(TRACED)

# Callers that the hom.homomorphisms counters are split by.
HOM_CALLERS = ("chase", "finitemodels")


def _target_size(args, kwargs) -> int:
    target = args[1] if len(args) > 1 else kwargs["target"]
    return len(target)


# Per-call size recorded on the span (the target a homomorphism search indexes).
SIZE_OF = {"hom.homomorphisms": _target_size}

# Counters read off return values.
RESULT_COUNTS = {
    "chase.run_chase": lambda r: {"chase.atoms_out": len(r.instance),
                                  "chase.rounds": r.rounds,
                                  "chase.fired": len(r.steps)},
    "chase.applicable_steps": lambda r: {"chase.pending": len(r)},
    "canonical.rewrite_theory": lambda r: {"canonical.rules_out": len(r[1])},
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.paused = array("d")
        self.size = array("q")
        self.items = array("q")
        self.counts: Counter = Counter()
        self.stack: list = []
        self.task_id = -1
        self._installed: list = []

    def __len__(self):
        return len(self.start)

    # -- recording ---------------------------------------------------------

    def _name_id(self, qualname: str) -> int:
        if qualname not in self._name_ids:
            self._name_ids[qualname] = len(self.names)
            self.names.append(qualname)
        return self._name_ids[qualname]

    def open(self, name_id: int, size: int = 0) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.task.append(self.task_id)
        self.size.append(size)
        self.items.append(0)
        self.paused.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        self.stack.pop()

    def _consume(self, name_id: int, size: int, gen):
        i = self.open(name_id, size)
        try:
            for item in gen:
                self.items[i] += 1
                self.stack.pop()
                t = self.clock()
                try:
                    yield item
                finally:
                    self.paused[i] += self.clock() - t
                    self.stack.append(i)
        finally:
            gen.close()
            self.close(i)

    def wrap(self, qualname: str, fn):
        name_id = self._name_id(qualname)
        size_of = SIZE_OF.get(qualname)
        count_result = RESULT_COUNTS.get(qualname)

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                size = size_of(args, kwargs) if size_of else 0
                return self._consume(name_id, size, fn(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                i = self.open(name_id, size_of(args, kwargs) if size_of else 0)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(i)
                if count_result:
                    self.counts.update(count_result(result))
                return result

        return functools.update_wrapper(wrapper, fn)

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every TRACED function at each of its bindings in `package.*`."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        for layer, functions in TRACED.items():
            module = sys.modules[f"{package.__name__}.{layer}"]
            for fname in functions:
                original = getattr(module, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._installed.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._installed):
            setattr(m, attr, original)
        self._installed.clear()

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Tab-separated spans, times in microseconds from the first span."""
        t0 = self.start[0] if len(self) else 0.0
        with open(path, "w") as fh:
            fh.write("id\tname\ttask\tparent\tstart_us\tend_us\tpaused_us\tsize\titems\n")
            for i in range(len(self)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.task[i]}\t"
                         f"{self.parent[i]}\t{(self.start[i] - t0) * 1e6:.1f}\t"
                         f"{(self.end[i] - t0) * 1e6:.1f}\t{self.paused[i] * 1e6:.1f}\t"
                         f"{self.size[i]}\t{self.items[i]}\n")


def self_times(start, end, paused, parent) -> list:
    """Self time of each span: its duration minus the part its children cover.

    A span is active from start to end except for `paused`, the time a
    generator waited on its consumer.  With one thread, the active periods
    of a span's direct children are disjoint and lie inside the span's own
    active periods, so the covered part is the sum of their active times.
    """
    active = [end[i] - start[i] - paused[i] for i in range(len(start))]
    out = list(active)
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= active[i]
    return out


def caller_layers(layers: list, parent) -> list:
    """For each span, the layer of its nearest ancestor in a different layer,
    or "top" when no such ancestor exists.  Parents must precede their
    children, which holds because spans are numbered as they open."""
    via = []
    for i, p in enumerate(parent):
        if p < 0:
            via.append("top")
        elif layers[p] != layers[i]:
            via.append(layers[p])
        else:
            via.append(via[p])
    return via


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics, each a total over the traced spans divided by the
    number of traced passes (ratios are taken over the totals)."""
    selfs = self_times(tracer.start, tracer.end, tracer.paused, tracer.parent)
    names = [tracer.names[k] for k in tracer.name]
    layers = [n.split(".", 1)[0] for n in names]
    via = caller_layers(layers, tracer.parent)

    calls: Counter = Counter()
    self_s: dict = defaultdict(float)
    sums: Counter = Counter(tracer.counts)
    for i, name in enumerate(names):
        self_s[layers[i]] += selfs[i]
        keys = (name, f"{name}.from_{via[i]}") if name == "hom.homomorphisms" else (name,)
        for key in keys:
            calls[key] += 1
            self_s[key] += selfs[i]
            if name == "hom.homomorphisms":
                sums[f"{key}.target_atoms"] += tracer.size[i]
                sums[f"{key}.yielded"] += tracer.items[i]
        if name == "hom.isomorphic" and via[i] == "canonical":
            sums["canonical.isomorphic.calls"] += 1
        elif name == "finitemodels.enumerate_finite_models":
            sums["finitemodels.models_out"] += tracer.items[i]

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    for scope in ("hom.homomorphisms", *(f"hom.homomorphisms.from_{c}" for c in HOM_CALLERS)):
        out[f"{scope}.calls"] = calls[scope]
        out[f"{scope}.self_s"] = self_s[scope]
        out[f"{scope}.target_atoms"] = sums[f"{scope}.target_atoms"]
        out[f"{scope}.yielded"] = sums[f"{scope}.yielded"]
    for name in ("hom.satisfies_query", "hom.isomorphic", "chase.applicable_steps",
                 "chase.run_chase", "chase.entails", "canonical.rewrite_theory",
                 "cli.main", "classify.classify",
                 *(f"finitemodels.{f}" for f in TRACED["finitemodels"])):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name in TRACED["parse"]:
        out[f"parse.{name}.self_s"] = self_s[f"parse.{name}"]
    for key in ("chase.atoms_out", "chase.rounds", "chase.pending", "chase.fired",
                "canonical.rules_out", "canonical.isomorphic.calls",
                "finitemodels.models_out"):
        out[key] = sums[key]
    out = {k: v / passes for k, v in out.items()}
    out["chase.fire_ratio"] = _ratio(sums["chase.fired"], sums["chase.pending"])
    out["finitemodels.is_model_per_model"] = _ratio(
        calls["finitemodels.is_model"], sums["finitemodels.models_out"])
    out["canonical.isomorphic_per_rule"] = _ratio(
        sums["canonical.isomorphic.calls"], sums["canonical.rules_out"])
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
