"""Probes of single layers, run after the timed tasks of a traced run.

They go only through public ``qibc`` calls; nothing in the library is
patched. Each returns per-layer metrics by name, or records spans that
``layers.from_spans`` turns into them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
import shlex
import shutil
import statistics
import subprocess
import sys
import time

import qibc
import qibc.cli
from qibc import (
    AffineDecode,
    AlgorithmSpec,
    DataVector,
    GateOp,
    OutcomeDistribution,
    Quadrature,
)
from qibc.serialize import dumps_json, format_float

from spans import CHILD_SPANS_ENV, run_fields
from workloads import lipschitz_pwl, shifted

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

REPS = 3


def child_env() -> dict:
    """This process's environment with ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _median_time(fn, reps: int = REPS) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernels(circuit) -> dict[str, float]:
    """Seconds per gate of each kind, and per bit query, at ``circuit.nu``.

    Each kind runs as a query-free one-layer algorithm of ``R`` identical
    gates; the run of an empty layer (allocation and final norm check) is
    subtracted and the rest divided by ``R``. ``cphaseK`` is as wide as the
    widest cphase in ``circuit``. The query probe is a gate-free algorithm of
    ``T`` queries on a fresh function per repetition, so each query carries
    its share of building the query permutation, as in a real run.
    """
    nu = circuit.nu
    q = nu // 2
    widest = max((len(g.targets) for layer in circuit.layers for g in layer
                  if g.gate == "cphase"), default=2)
    R = min(2048, max(4, 1 << (23 - nu)))
    gates = {
        "H": GateOp("H", (q,)),
        "X": GateOp("X", (q,)),
        "phase": GateOp("phase", (q,), theta=0.3),
        "cphase2": GateOp("cphase", (q - 1, q), theta=0.3),
        "cphaseK": GateOp("cphase", tuple(range(nu - widest, nu)), theta=math.pi),
        "swap": GateOp("swap", (q - 1, q)),
    }

    def alg(layers, query=None):
        return AlgorithmSpec(nu=nu, query=query, layers=layers, measure=(0,),
                             decode=AffineDecode(1.0, 0.0))

    empty = alg(((),))
    base = _median_time(lambda: qibc.run(empty))
    out = {}
    for kind, g in gates.items():
        a = alg(((g,) * R,))
        out[f"simulator.kernel.{kind}_s"] = (_median_time(lambda: qibc.run(a)) - base) / R
    T = 8
    queries = alg(((),) * (T + 1), circuit.query)
    rng = random.Random("kernel-query-probe")
    lo, hi = circuit.query.range_lo, circuit.query.range_hi
    out["simulator.kernel.query_s"] = (_median_time(
        lambda: qibc.run(queries, lipschitz_pwl(rng, 1.0, lo, hi, 8))) - base) / T
    return out


GROWTH_N = (250, 500, 1000, 2000)


def envelopes_slope() -> float:
    """Log-log slope of ``envelopes`` time on zero data over ``GROWTH_N``."""
    xs, ys = [], []
    for n in GROWTH_N:
        d = qibc.optimal_design(n)
        zeros = DataVector((0.0,) * n)
        t = _median_time(lambda: qibc.envelopes(d, zeros, 1.0), reps=1)
        xs.append(math.log(n))
        ys.append(math.log(t))
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def cli_startup() -> dict[str, float]:
    """Fresh-process costs: a bare interpreter, and ``import qibc`` inside one."""
    env = child_env()

    def interpreter():
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)

    code = ("import time; t = time.perf_counter(); import qibc; "
            "print(time.perf_counter() - t)")
    imports = [float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                    capture_output=True, text=True, timeout=60).stdout)
               for _ in range(REPS)]
    return {"cli.interpreter_s": _median_time(interpreter),
            "cli.import_s": statistics.median(imports)}


#: README console commands the CLI probe replays. The README's other commands
#: run the nu=16 fixture; the probe runs them on a small generated circuit.
README_COMMANDS = ("design", "radius", "meps", "complexity-table", "fooling-pair", "foil")

#: README console steps that prepare files for the commands above.
README_PREP = ("mkdir ", "printf ")

#: What a ``qibc`` console script runs (the package declares
#: ``qibc = "qibc.cli:entrypoint"``), here with a ``cli.main`` span around it.
TRACED_CLI_CODE = f"import sys; sys.path.insert(0, {HERE!r}); import spans; spans.traced_cli()"


def readme_steps(path: str) -> list[tuple[str, str]]:
    """``(command, expected stdout)`` for every ``$`` step of README console blocks."""
    steps: list[tuple[str, list[str]]] = []
    in_console = False
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if re.match(r"^```\w*\s*$", line):
                in_console = line.strip() == "```console"
            elif line.rstrip() == "```":
                in_console = False
            elif in_console and line.startswith("$ "):
                steps.append((line[2:], []))
            elif in_console:
                steps[-1][1].append(line)
    return [(cmd, "\n".join(out) + "\n" if out else "") for cmd, out in steps]


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def cli_mix(seed: int, work: str, env: dict) -> list[tuple[list[str], str]]:
    """``(argv, expected stdout)`` of the CLI command mix, its files written to ``work``.

    The README's ``design``, ``radius`` (twice), ``meps``, ``complexity-table``,
    ``fooling-pair`` and ``foil`` must print the README's bytes. ``simulate``,
    ``error``, ``extract`` and ``verify-bound`` run on the nu=10 bound
    fixture, its family shifted by a seeded whole code step, and must print
    what the library returns in-process.
    """
    cmds = []
    for cmd, want in readme_steps(os.path.join(ROOT, "README.md")):
        if cmd.startswith(README_PREP):
            subprocess.run(["bash", "-c", cmd], cwd=work, check=True, env=env, timeout=60)
        argv = shlex.split(cmd)
        if argv[:1] == ["qibc"] and argv[1] in README_COMMANDS:
            cmds.append((argv[1:], want))
    if {argv[0] for argv, _ in cmds} != set(README_COMMANDS):
        raise RuntimeError("README no longer shows every replayed command")
    eps = 0.25  # the bound fixture at this eps has nu=10
    fix = qibc.build_bound_fixture(eps)
    alg = fix.algorithm
    rng = random.Random(f"cli:{seed}")
    step = (alg.query.range_hi - alg.query.range_lo) / (1 << alg.query.m_double_prime)
    family = tuple(shifted(f, rng.randrange(-5, 4) * step) for f in fix.family)
    os.makedirs(os.path.join(work, "family"))
    for i, f in enumerate(family):
        _write(os.path.join(work, "family", f"f{i}.json"), dumps_json(qibc.function_to_json(f)))
    f = family[rng.randrange(len(family))]
    alg_path = _write(os.path.join(work, "alg.json"), dumps_json(qibc.algorithm_to_json(alg)))
    f_path = _write(os.path.join(work, "f.json"), dumps_json(qibc.function_to_json(f)))
    dist = qibc.measure(qibc.run(alg, f), alg)
    csv = qibc.distribution_to_csv(dist)
    dist_path = _write(os.path.join(work, "dist.csv"), csv)
    truth = qibc.exact_integral(f)
    report = qibc.verify_bound(alg, family, L=1.0, eps=eps)
    if report.status != "ok":
        raise RuntimeError("the generated family does not meet eps")
    return cmds + [
        (["simulate", "--alg", alg_path, "--f", f_path], csv),
        (["error", "--dist", dist_path, "--truth", format_float(truth)],
         format_float(qibc.local_error(dist, truth)) + "\n"),
        (["extract", "--dist", dist_path, "--eps", format_float(eps)],
         format_float(qibc.extract(dist, eps)) + "\n"),
        (["verify-bound", "--alg", alg_path, "--family", os.path.join(work, "family"),
          "--L", "1", "--eps", format_float(eps)], dumps_json(qibc.report_to_json(report))),
    ]


def cli_commands(seed: int, tracer) -> tuple[int, list[str]]:
    """Run the CLI command mix once, each command in a fresh ``qibc`` process.

    The CLI is started as ``python -c`` code with ``src`` on ``PYTHONPATH``,
    the same import a console-script wrapper does. Each command is task
    ``cli-<i>``; its child records a ``cli.main`` span. Returns the number of
    commands and a reason for each whose exit code or stdout is wrong.
    """
    env = child_env()
    work = os.path.join(HERE, "out", f"cli-work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    failures = []
    try:
        cmds = cli_mix(seed, work, env)
        spans_path = os.path.join(work, "spans.json")
        for i, (argv, want) in enumerate(cmds):
            with tracer.task_span(f"cli-{i}"):
                proc = subprocess.run([sys.executable, "-c", TRACED_CLI_CODE, *argv], cwd=work,
                                      env={**env, CHILD_SPANS_ENV: spans_path},
                                      capture_output=True, text=True, timeout=120)
                if proc.returncode == 0:
                    with open(spans_path, encoding="utf-8") as fh:
                        tracer.add(json.load(fh))
                    os.remove(spans_path)
            if proc.returncode != 0:
                failures.append(f"qibc {argv[0]}: exit {proc.returncode}: {proc.stderr[-200:]}")
            elif proc.stdout != want:
                failures.append(f"qibc {argv[0]}: stdout differs from the expected bytes")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return len(cmds), failures


def point_mass(alg, j: int) -> OutcomeDistribution:
    """All probability on outcome ``j`` of ``alg``'s measured register."""
    return OutcomeDistribution(tuple(
        (k, 1.0 if k == j else 0.0, alg.decode_outcome(k)) for k in range(alg.outcome_count)))


def sweep(circuit, n: int, tracer) -> None:
    """One span around a call into every measured layer, as task ``sweep``.

    Layers a workload's own tasks never reach get their numbers here:
    ``circuits`` builds a small midpoint circuit, ``simulator`` runs the
    nu=10 bound fixture, ``bounds`` scores a point mass over ``circuit``'s
    outcome count, the classical layers work at design size ``n``
    (``eval_many`` evaluates the upper envelope at its own breakpoints, the
    Envelope check seen from outside), ``serialize`` round-trips ``circuit``,
    and ``cli`` runs one command in-process.
    """
    small = qibc.build_bound_fixture(0.25)
    j = circuit.outcome_count // 2
    dist = point_mass(circuit, j)
    zeros = DataVector((0.0,) * n)
    with tracer.task_span("sweep"):
        with tracer.span("circuits.midpoint_algorithm"):
            qibc.midpoint_algorithm(1, 4, -1.0, 1.0)
        f = small.family[0]
        with tracer.span("simulator.run", **run_fields(small.algorithm)):
            state = qibc.run(small.algorithm, f)
        with tracer.span("simulator.measure"):
            qibc.measure(state, small.algorithm)
        with tracer.span("bounds.local_error", outcomes=circuit.outcome_count):
            qibc.local_error(dist, dist.entries[j][2])
        with tracer.span("bounds.best_cluster", outcomes=circuit.outcome_count):
            qibc.best_cluster(dist, 1 / 40)
        with tracer.span("bounds.extract", outcomes=circuit.outcome_count):
            qibc.extract(dist, 1 / 40)
        d = qibc.optimal_design(n)
        with tracer.span("information.worst_radius"):
            qibc.worst_radius(d, 1.0)
        with tracer.span("adversary.fooling_pair"):
            qibc.fooling_pair(d, 1.0)
        with tracer.span("adversary.foil"):
            qibc.foil(Quadrature(d, (1.0 / n,) * n), 1.0)
        with tracer.span("information.envelopes") as fields:
            env = qibc.envelopes(d, zeros, 1.0)
        fields["breakpoints"] = len(env.upper.points) + len(env.lower.points)
        with tracer.span("information.interval_H"):
            qibc.interval_H(env)
        xs = [x for x, _ in env.upper.points]
        with tracer.span("functions.eval_many"):
            qibc.eval_many(env.upper, xs)
        with tracer.span("functions.exact_integral"):
            qibc.exact_integral(env.upper)
        doc = qibc.algorithm_to_json(circuit)
        with tracer.span("simulator.algorithm_from_json"):
            qibc.algorithm_from_json(doc)
        with tracer.span("serialize.dumps_json"):
            dumps_json(doc)
        with contextlib.redirect_stdout(io.StringIO()):
            with tracer.span("cli.main"):
                qibc.cli.main(["design", "--n", "4"])
