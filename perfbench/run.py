"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chase-deep --seed 1 --seconds 25 --trace 0

Set-up (import, input generation, file writing) runs several times and the
median is reported.  One warm-up pass over the task list follows, then timed
passes until --seconds have elapsed and at least MIN_PASSES have run.  A
fixed calibration kernel runs between tasks, and every time is scaled by
its speed around it (see calibrate.py).  With --trace 1 the timed passes
run under the span tracer, each followed by an untraced reference pass, and
the per-layer metrics are printed instead.  The last line of standard
output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"
SETUP_REPEATS = 15
# Timed passes run even past --seconds, so that each task's time is the
# median of at least three runs.
MIN_PASSES = 3

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402
from perfbench.calibrate import Calibrator  # noqa: E402
from perfbench.tracing import LAYERS, Tracer, layer_metrics  # noqa: E402
from perfbench.workloads import WORKLOADS, chase_config  # noqa: E402


@dataclass
class TaskRun:
    seconds: float
    outputs: list  # one text per completed step
    step_seconds: list
    error: str = ""
    start: float = 0.0
    scale: float = 1.0  # calibrate.Calibrator.scale around this run


@dataclass
class PassRun:
    wall: float
    tasks: list = field(default_factory=list)


def import_shychase():
    """Import shychase afresh from this checkout's src/ (drops any earlier import)."""
    for name in [m for m in sys.modules if m == "shychase" or m.startswith("shychase.")]:
        del sys.modules[name]
    lib = importlib.import_module("shychase")
    for module in ("cli", "generate"):
        importlib.import_module(f"shychase.{module}")
    return lib


def run_task(lib, task) -> TaskRun:
    outputs, step_seconds = [], []
    error = ""
    t0 = time.perf_counter()
    try:
        for step in task.steps:
            s0 = time.perf_counter()
            if step.call is not None:
                text = step.call(lib)
            else:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = lib.cli.main(list(step.argv))
                if code != 0:
                    error = f"step {step.label} exited with code {code}: {err.getvalue().strip()}"
                    break
                text = out.getvalue()
            if step.save_as is not None:
                step.save_as.write_text(text)
            step_seconds.append(time.perf_counter() - s0)
            outputs.append(text)
    except Exception:
        error = traceback.format_exc(limit=-3)
    return TaskRun(time.perf_counter() - t0, outputs, step_seconds, error, t0)


def run_pass(lib, tasks, calibrator, tracer=None) -> PassRun:
    """One pass over the tasks, with the calibration kernel between them.
    The pass's wall time is its tasks' raw time, without the kernel."""
    run = PassRun(0.0)
    for k, task in enumerate(tasks):
        if tracer is not None:
            tracer.task_id = k
        calibrator.tick()
        run.tasks.append(run_task(lib, task))
    calibrator.tick(force=True)
    for task_run in run.tasks:
        task_run.scale = calibrator.scale(task_run.start, task_run.start + task_run.seconds)
    run.wall = sum(task_run.seconds for task_run in run.tasks)
    return run


def chase_atoms(lib, tasks, outputs) -> dict:
    """Atoms each completed chase-backed step materializes, keyed by (task, step).

    A `chase` step reports its instance.  An `answer` step runs one chase per
    query with the same config; its count is taken from a `chase` step on the
    same file and config when there is one, else from one library chase."""
    sizes, found = {}, []
    for t, task in enumerate(tasks):
        for s, step in enumerate(task.steps[:len(outputs[t])]):
            if step.argv and step.argv[0] in ("chase", "answer"):
                key = (step.argv[1], chase_config(lib, step.argv))
                found.append((t, s, step.argv[0], key))
                if step.argv[0] == "chase":
                    sizes[key] = len(json.loads(outputs[t][s])["atoms"]["atoms"])
    out = {}
    for t, s, command, key in found:
        if command == "chase":
            out[t, s] = sizes[key]
            continue
        program = lib.parse.parse_program(Path(key[0]).read_text())
        if key not in sizes:
            result = lib.chase.run_chase(program.database, program.ontology, key[1])
            sizes[key] = len(result.instance)
        out[t, s] = sizes[key] * len(program.queries)
    return out


def end_to_end(lib, tasks, timed, setup_times, peak_rss_mb) -> tuple:
    """End-to-end metrics from each task's and step's median scaled time
    over the timed passes.  Scaling by the calibration kernel (calibrate.py)
    takes out the host's drift in speed; the median takes out the kernel's
    own misreadings and short bursts of outside load."""
    task_ms = [statistics.median(p.tasks[t].seconds * p.tasks[t].scale for p in timed) * 1000
               for t in range(len(tasks))]
    atoms = chase_atoms(lib, tasks, [r.outputs for r in timed[0].tasks])
    chase_seconds = sum(statistics.median(p.tasks[t].step_seconds[s] * p.tasks[t].scale
                                          for p in timed if s < len(p.tasks[t].step_seconds))
                        for t, s in atoms)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(task_ms) / 1000,
        "task_p50_ms": stats.percentile(task_ms, 50),
        "task_p90_ms": stats.percentile(task_ms, 90),
        "atoms_per_s": sum(atoms.values()) / chase_seconds if chase_seconds else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    n = len(task_ms)
    notes = {
        "setup_s": f"median of {len(setup_times)} scaled set-ups",
        "wall_s": f"sum over {n} tasks of their median scaled time in {len(timed)} timed passes",
        "atoms_per_s": f"{sum(atoms.values())} atoms from {len(atoms)} chase-backed steps",
        "peak_rss_mb": "whole process, up to the end of the timed passes",
    }
    for name, q in (("task_p50_ms", 50), ("task_p90_ms", 90)):
        beyond = stats.samples_beyond(n, q)
        notes[name] = f"n={n} task times, {beyond} above it" + (
            "" if stats.supported(n, q) else ": fewer than 10, so read it as one of the slowest")
    return metrics, notes


def check(workload, lib, tasks, passes) -> tuple:
    """(attempted, failed, problems, tally): a task run fails if it raised,
    exited non-zero, produced output that differs from the first pass, or its
    task failed the workload's oracle.  `tally` counts the oracle's checks."""
    attempted = failed = 0
    problems = []
    tally = Counter()
    reference = passes[0].tasks
    verdict = {}
    for t, task in enumerate(tasks):
        if reference[t].error:
            verdict[t] = []
            continue
        try:
            verdict[t] = workload.check(lib, task, reference[t].outputs, tally)
        except Exception:
            verdict[t] = ["oracle raised: " + traceback.format_exc(limit=-2)]
    for p, run in enumerate(passes):
        for t, task in enumerate(tasks):
            attempted += 1
            found = list(verdict[t])
            if run.tasks[t].error:
                found.append(run.tasks[t].error)
            elif run.tasks[t].outputs != reference[t].outputs:
                found.append(f"output differs from the first pass in pass {p}")
            if found:
                failed += 1
                problems.extend(f"{task.name}: {msg}" for msg in found)
    return attempted, failed, problems, tally


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "shychase" / "__init__.py").is_file():
        print(f"error: no shychase sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = WORK / args.workload

    calibrator = Calibrator()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        calibrator.tick(force=True)
        t0 = time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        lib = import_shychase()
        tasks = workload.setup(lib, args.seed, workdir)
        t1 = time.perf_counter()
        calibrator.tick(force=True)
        setup_times.append((t1 - t0) * calibrator.scale(t0, t1))
    if Path(lib.__file__).resolve().parent != SRC / "shychase":
        print(f"error: imported shychase from {lib.__file__}", file=sys.stderr)
        return 2

    warmup = run_pass(lib, tasks, calibrator)
    tracer = Tracer() if args.trace else None
    # With --trace 1 every traced pass is followed by an untraced one, the
    # reference for the tracing overhead under the same outside load.
    timed, untraced = [], []
    t0 = time.perf_counter()
    while len(timed) < MIN_PASSES or time.perf_counter() - t0 < args.seconds:
        if tracer is None:
            timed.append(run_pass(lib, tasks, calibrator))
            continue
        tracer.install(lib)
        try:
            timed.append(run_pass(lib, tasks, calibrator, tracer))
        finally:
            tracer.uninstall()
        untraced.append(run_pass(lib, tasks, calibrator))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failed, problems, tally = check(workload, lib, tasks,
                                               [warmup, *timed, *untraced])
    for msg in problems[:20]:
        print(f"FAILED {msg}", file=sys.stderr)

    if tracer is not None:
        values = layer_metrics(tracer, len(timed))
        # Fastest pass against fastest pass, like the end-to-end times.
        values["trace.overhead_frac"] = (min(p.wall for p in timed)
                                         / min(p.wall for p in untraced) - 1)
        traced_wall = statistics.mean(p.wall for p in timed)
        attributed = sum(values[f"{layer}.self_s"] for layer in LAYERS)
        values["trace.unattributed_frac"] = 1 - attributed / traced_wall
        spans = workdir / "spans.tsv"
        tracer.write(spans)
        (workdir / "tasks.tsv").write_text(
            "".join(f"{k}\t{t.name}\n" for k, t in enumerate(tasks)))
        wanted, notes = spec["per_layer"], {}
        print(f"spans: {spans.relative_to(ROOT)} ({len(tracer)} spans, "
              f"{len(timed)} traced passes)")
    else:
        values, notes = end_to_end(lib, tasks, timed, setup_times, peak_rss_mb)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}, seed {args.seed}: {len(tasks)} tasks, "
          f"1 warm-up pass and {len(timed)} {'traced ' if tracer else ''}timed passes")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}{note}")
    print(f"  failed_frac {failed}/{attempted} = {failed / attempted:.4g}")
    for what, n in sorted(tally.items()):
        print(f"  oracle: {n} {what}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
