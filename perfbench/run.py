"""qibc benchmark: seeded workloads, end-to-end metrics, traced per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload bound-check --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1                  # every workload in turn

Each workload runs in its own worker process as a closed loop with a single
client (see ``workloads.py``). The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it print
every metric by name with its unit, plus the environment.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

* ``setup_s`` - median over nine fresh worker processes of the time from
  spawning the process to its first timed task being ready to start:
  interpreter start, numpy and qibc imports, fixture and circuit building.
  The untimed warm-up task is not part of it.
* ``task_s.p50`` - median wall time of the timed tasks.
* ``peak_rss_mb`` - peak RSS of the worker process through its set-up, the
  warm-up task and the first timed task.

``failed_frac`` (failed over attempted; a task fails when it raises or its
output differs from the closed form) and ``task_s.tail`` are printed too but
are not gated: the JSON carries the counts as ``attempted`` and ``failed``.

``--trace 1`` is a separate run that alternates untraced and traced tasks,
records spans around every public qibc call (``spans.py``), runs the layer
probes (``probes.py``) - among them the CLI command mix, one fresh ``qibc``
process per command, whose output checks count as tasks - writes the spans
to ``perfbench/out/`` and reports the per-layer metrics plus
``trace.overhead_frac``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: The keys of ``workloads.WORKLOADS``, listed here so that this parent
#: process never imports numpy or qibc.
WORKLOAD_NAMES = ("bound-check", "state-20q", "classical-n")
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "task_s.p50": "s", "peak_rss_mb": "MiB"}


# --------------------------------------------------------------------------
# worker process


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, pct, beyond).

    With ten samples or fewer no percentile qualifies; the maximum is given,
    with the number of samples beyond it (zero).
    """
    xs = sorted(times)
    k = len(xs) - 10
    if k < 1:
        return xs[-1], 100.0, 0
    return xs[k - 1], 100.0 * k / len(xs), len(xs) - k


def environment(circuit) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index2/size") as fh:
            l2 = fh.read().strip()
    except OSError:
        l2 = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
        "nproc": os.cpu_count(),
        "l2_per_core": l2,
        "state_bytes": None if circuit is None else 16 << circuit.nu,
    }


def worker(args) -> None:
    if not os.path.isdir(os.path.join(SRC, "qibc")):
        raise SystemExit(f"no qibc sources under {SRC}")
    sys.path.insert(0, SRC)
    from spans import Tracer
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload](args.seed)
    tracer = Tracer()
    with tracer.task_span("setup"):
        w.setup(tracer)
    print("READY", flush=True)
    if args.worker == "setup":
        return
    result = measure(w, args, tracer if args.trace else None)
    print(json.dumps(result), flush=True)


def attempt(w, inp, call) -> tuple[float, str | None]:
    """Run ``call(inp)``, timed; return its wall time and a failure reason or None."""
    t0 = time.perf_counter()
    try:
        out = call(inp)
    except Exception as exc:  # a task that raises counts as failed, the run goes on
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    return dt, w.check(inp, out)


def measure(w, args, tracer) -> dict:
    """Warm-up, then the closed loop; with a tracer, alternate traced tasks."""
    import resource
    from collections import Counter

    failures = []
    calls: Counter = Counter()

    def counted(inp):
        out, counts = w.counted_run(inp)
        calls.update(counts)
        return out

    def traced(inp):
        with tracer.task_span(f"task-{i}"):
            return w.traced_run(inp, tracer)

    _, why = attempt(w, w.warm_input(), counted if tracer else w.run)
    if why:
        failures.append(f"warm-up: {why}")
    times: dict[bool, list[float]] = {False: [], True: []}
    inputs = w.inputs()
    i = 0
    t_loop = time.perf_counter()
    while (tracer and i % 2) or time.perf_counter() - t_loop < args.seconds:
        inp = next(inputs)
        is_traced = tracer is not None and i % 2 == 1
        dt, why = attempt(w, inp, traced if is_traced else w.run)
        times[is_traced].append(dt)
        if why:
            failures.append(f"task {i}: {why}")
        i += 1
        if i == 1:
            # Taken after the first task, not at the end: every new function
            # adds its query permutation to the simulator's cache, so the
            # final peak would grow with how many tasks fit in the run.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = i + 1
    result = {"task_s": times[False], "peak_rss_mb": peak_rss_mb, "env": environment(w.circuit)}
    if tracer:
        import probes

        commands, cli_failures = probes.cli_commands(args.seed, tracer)
        attempted += commands
        failures += cli_failures
        result["layers"] = layer_metrics(w, tracer, times, calls,
                                         [f"task-{j}" for j in range(1, i, 2)])
    result.update(attempted=attempted, failed=len(failures), failures=failures[:5])
    return result


def layer_metrics(w, tracer, times, calls, traced_tasks) -> dict:
    import probes
    import qibc
    from layers import from_spans

    circuit = w.circuit or qibc.build_bound_fixture(0.25).algorithm
    probes.sweep(circuit, w.sweep_n, tracer)
    tracer.write(os.path.join(OUT, f"spans-{w.name}.jsonl"))
    with open(os.path.join(OUT, f"calls-{w.name}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(calls.items())), fh, indent=1)
    metrics, sources = from_spans(tracer.spans, traced_tasks)
    metrics["functions.evals"] = calls["functions.eval"]
    sources["functions.evals"] = "warm-up"
    metrics.update(probes.kernels(circuit))
    metrics["information.envelopes_slope"] = probes.envelopes_slope()
    metrics.update(probes.cli_startup())
    untraced = statistics.median(times[False])
    metrics["task_s.tail"] = tail(times[False])[0]
    metrics["trace.overhead_frac"] = (statistics.median(times[True]) - untraced) / untraced
    return {"metrics": metrics, "sources": sources}


# --------------------------------------------------------------------------
# parent process


def spawn(args, role: str) -> subprocess.Popen:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--worker", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def until_ready(proc: subprocess.Popen, t0: float) -> float:
    line = proc.stdout.readline()
    if line != "READY\n":
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker failed during set-up (exit {proc.returncode})")
    return time.perf_counter() - t0


def finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("worker timed out")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return out


def git_rev() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "not a git checkout"


def run_workload(args) -> dict:
    """Measure one workload in fresh worker processes; print and return the result."""
    setup_s = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            t0 = time.perf_counter()
            proc = spawn(args, "setup")
            setup_s.append(until_ready(proc, t0))
            finish(proc)
    t0 = time.perf_counter()
    proc = spawn(args, "run")
    setup_s.append(until_ready(proc, t0))
    res = json.loads(finish(proc).strip().splitlines()[-1])
    times = res["task_s"]
    env = res["env"]
    print(f"perfbench {args.workload}: seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}; closed loop, 1 client, 1 worker process")
    print(f"  env: rev={git_rev()} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']} threads={env['threads']} nproc={env['nproc']} "
          f"L2={env['l2_per_core']} state_bytes={env['state_bytes']}")
    for why in res["failures"]:
        print(f"  FAILED {why}")
    if args.trace:
        from layers import UNITS

        layers = res["layers"]
        metrics = {k: {"value": layers["metrics"][k], "unit": u} for k, u in UNITS.items()}
        for name, m in metrics.items():
            src = layers["sources"].get(name, "probe")
            print(f"  {name:36s} {m['value']:<14.6g} {m['unit']:6s} from {src}")
    else:
        value, pct, beyond = tail(times)
        print(f"  setup_s        {statistics.median(setup_s):.4f} s   (median of "
              f"{len(setup_s)} fresh processes: {' '.join(f'{t:.3f}' for t in setup_s)})")
        print(f"  task_s.p50     {statistics.median(times):.4f} s   (n={len(times)})")
        print(f"  task_s.tail    {value:.4f} s   (p{pct:.0f}, n={len(times)}, "
              f"{beyond} beyond; not gated)")
        print(f"  failed_frac    {res['failed'] / res['attempted']:.4f}     "
              f"({res['failed']} of {res['attempted']} attempted, warm-up included)")
        print(f"  peak_rss_mb    {res['peak_rss_mb']:.1f} MiB")
        values = {"setup_s": statistics.median(setup_s), "task_s.p50": statistics.median(times),
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", choices=("setup", "run"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        worker(args)
        return
    if args.workload:
        print(json.dumps(run_workload(args)))
        return
    results = {}
    for name in WORKLOAD_NAMES:
        args.workload = name
        results[name] = run_workload(args)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}:{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
