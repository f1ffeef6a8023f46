"""Per-layer metrics derived from the spans of a traced run.

A metric is the median over tasks of a per-task figure, taken from the
first source whose spans contain it: the workload's own traced tasks, then
its set-up, then the CLI commands (``probes.cli_commands``, one task per
command), then the layer sweep (``probes.sweep``). A layer a workload never
reaches still reports a real measurement; the printed source says which
one.
"""

from __future__ import annotations

import statistics
from collections import Counter

#: metric -> the spans whose seconds per task it sums
BUSY = {
    "simulator.run_s": ("simulator.run",),
    "simulator.measure_s": ("simulator.measure",),
    "circuits.build_s": ("circuits.midpoint_algorithm", "circuits.build_bound_fixture"),
    "bounds.local_error_s": ("bounds.local_error",),
    "bounds.best_cluster_s": ("bounds.best_cluster",),
    "bounds.extract_s": ("bounds.extract",),
    "information.envelopes_s": ("information.envelopes",),
    "information.interval_H_s": ("information.interval_H",),
    "information.worst_radius_s": ("information.worst_radius",),
    "adversary.fooling_pair_s": ("adversary.fooling_pair",),
    "adversary.foil_s": ("adversary.foil",),
    "functions.eval_many_s": ("functions.eval_many",),
    "functions.exact_integral_s": ("functions.exact_integral",),
    "cli.command_s": ("cli.main",),
    "serialize.algorithm_from_json_s": ("simulator.algorithm_from_json",),
    "serialize.dumps_json_s": ("serialize.dumps_json",),
}

GATE_KINDS = ("H", "X", "phase", "cphase", "swap", "unitary")
SOURCES = ("tasks", "setup", "cli", "sweep")
KERNELS = ("H", "X", "phase", "cphase2", "cphaseK", "swap", "query")

#: Every per-layer metric a traced run reports, with its unit.
UNITS = {
    **{m: "s" for m in BUSY},
    "simulator.amp_updates": "count",
    "simulator.amp_updates_per_s": "1/s",
    "simulator.state_bytes": "B",
    **{f"simulator.kernel.{k}_s": "s" for k in KERNELS},
    **{f"circuits.gates.{k}": "count" for k in GATE_KINDS},
    "circuits.gates.total": "count",
    "circuits.queries": "count",
    "bounds.outcomes": "count",
    "information.breakpoints": "count",
    "information.envelopes_slope": "1",
    "functions.evals": "count",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "task_s.tail": "s",
    "trace.overhead_frac": "1",
}


def busy_by_task(spans: list[list], tasks: set[str]) -> dict[str, dict]:
    """Per task id: summed seconds per span name, and the spans' fields."""
    out: dict[str, dict] = {}
    for name, start, end, _, task, fields in spans:
        if task not in tasks or name == "task":
            continue
        rec = out.setdefault(task, {"busy": Counter(), "fields": []})
        rec["busy"][name] += end - start
        if fields:
            rec["fields"].append((name, fields))
    return out


def median_over(records: dict[str, dict], getter) -> float | None:
    """Median of ``getter(record)`` over the records where it is not None."""
    vals = [v for v in (getter(r) for r in records.values()) if v is not None]
    return statistics.median(vals) if vals else None


def _fields(rec, *names):
    return [f for n, f in rec["fields"] if n in names] or None


def _busy(names):
    def get(rec):
        hit = [rec["busy"][n] for n in names if n in rec["busy"]]
        return sum(hit) if hit else None
    return get


def _amp_updates(rec):
    runs = _fields(rec, "simulator.run")
    return runs and sum(sum(f["gates"].values()) << f["nu"] for f in runs)


def _first_run(key):
    def get(rec):
        runs = _fields(rec, "simulator.run")
        return runs and key(runs[0])
    return get


def _getters() -> dict:
    g = {metric: _busy(names) for metric, names in BUSY.items()}
    g["simulator.amp_updates"] = _amp_updates
    g["simulator.amp_updates_per_s"] = (
        lambda r: _amp_updates(r) and _amp_updates(r) / r["busy"]["simulator.run"])
    g["simulator.state_bytes"] = _first_run(lambda f: 16 << f["nu"])
    for kind in GATE_KINDS:
        g[f"circuits.gates.{kind}"] = _first_run(lambda f, k=kind: f["gates"].get(k, 0))
    g["circuits.gates.total"] = _first_run(lambda f: sum(f["gates"].values()))
    g["circuits.queries"] = _first_run(lambda f: f["queries"])
    scored = ("bounds.local_error", "bounds.best_cluster", "bounds.extract")
    g["bounds.outcomes"] = lambda r: _fields(r, *scored) and max(
        f["outcomes"] for f in _fields(r, *scored))
    g["information.breakpoints"] = lambda r: _fields(r, "information.envelopes") and sum(
        f["breakpoints"] for f in _fields(r, "information.envelopes"))
    return g


def from_spans(spans: list[list], traced_tasks: list[str]) -> tuple[dict, dict]:
    """Metric values and, per metric, the source it came from."""
    cli_tasks = {task for _, _, _, _, task, _ in spans if task and task.startswith("cli-")}
    groups = {"tasks": busy_by_task(spans, set(traced_tasks)),
              "setup": busy_by_task(spans, {"setup"}),
              "cli": busy_by_task(spans, cli_tasks),
              "sweep": busy_by_task(spans, {"sweep"})}
    values, sources = {}, {}
    for metric, getter in _getters().items():
        for src in SOURCES:
            v = median_over(groups[src], getter)
            if v is not None:
                values[metric], sources[metric] = v, src
                break
        else:
            raise RuntimeError(f"no span gives {metric}")
    return values, sources
