"""The three workloads: seeded inputs, one task of user work, and its check.

Each workload is a closed loop with one client: the next task starts only
after the previous one has returned, the way a library caller waits for
every result. A task is one unit of user work. Inputs come from two
``random.Random`` streams derived from the seed - one for the timed tasks
and a separate one for the untimed warm-up task - and the library only ever
sees the generated inputs.

``simulator._query_permutation`` caches on (function, query, nu), so no two
tasks of one run (warm-up included) share a function: every timed task pays
what a fresh caller pays.
"""

from __future__ import annotations

import math
import random

import qibc
from qibc import Promise, Quadrature, constant, pwl

from spans import count_calls, run_fields


def lipschitz_pwl(rng: random.Random, L: float, lo: float, hi: float, pieces: int):
    """A random pwl function with slopes within 0.9 L and values in [lo, hi].

    Clipping a step at the range only shortens it, so the result keeps the
    Lipschitz promise exactly in floats.
    """
    xs = sorted({rng.random() for _ in range(pieces - 1)} - {0.0})
    xs = [0.0] + xs + [1.0]
    y = rng.uniform((3 * lo + hi) / 4, (lo + 3 * hi) / 4)
    pts = [(0.0, y)]
    for x0, x1 in zip(xs, xs[1:]):
        y = min(max(y + rng.uniform(-0.9 * L, 0.9 * L) * (x1 - x0), lo), hi)
        pts.append((x1, y))
    return pwl(pts, Promise(L, lo, hi))


def shifted(f, s: float):
    """``f + s`` with its promise range moved along."""
    if f.family == "constant":
        return constant(f.value + s)
    p = f.promise
    return pwl([(x, y + s) for x, y in f.points],
               Promise(p.lipschitz_bound, p.range_lo + s, p.range_hi + s))


def with_breakpoint(rng: random.Random, f):
    """``f`` as a pwl function with one more, seeded breakpoint on its graph.

    The new point splits a segment at a multiple of 1/1024 of its length.
    The old breakpoints stay, and ``eval`` returns their stored values
    bitwise, so ``f`` is unchanged wherever it was sampled at a breakpoint.
    With dyadic breakpoints the new point is exact too, and the integral is
    unchanged.
    """
    if f.family == "constant":
        pts = [(0.0, f.value), (1.0, f.value)]
    else:
        pts = list(f.points)
    i = rng.randrange(len(pts) - 1)
    (x0, y0), (x1, y1) = pts[i], pts[i + 1]
    t = rng.randrange(1, 1024) / 1024
    pts.insert(i + 1, (x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
    return pwl(pts, f.promise)


class Workload:
    """Interface of a workload; subclasses fill in the methods below.

    ``setup(tracer)`` builds what every task needs, recording spans around
    its qibc calls. ``inputs()`` yields timed-task inputs without end,
    ``warm_input()`` the warm-up task's input.
    ``run(inp)`` is the user's call; ``traced_run(inp, tracer)`` does the same
    work as the sequence of public calls inside it, each in a span, and
    returns an output ``check`` accepts. ``check`` returns None when the
    output matches its closed form and a one-line reason otherwise.
    """

    name = ""
    circuit = None  # the workload's circuit, sized for the layer probes
    sweep_n = 64    # design size of the classical layer sweep

    def __init__(self, seed: int) -> None:
        self.task_rng = random.Random(f"{self.name}:{seed}:tasks")
        self.warm_rng = random.Random(f"{self.name}:{seed}:warm-up")

    def counted_run(self, inp):
        """``run`` while counting calls of public qibc functions."""
        return count_calls(lambda: self.run(inp))


class BoundCheck(Workload):
    """One ``verify_bound`` on the eps=1/40 fixture (nu=16, T=32, 1274 gates).

    The README's headline path. The 1 MiB state fits the per-core L2, so time
    goes to per-gate work repeated for each of the 4 family members: gate
    kernel and batched-family changes show here. The family is shifted by a
    seeded whole code step, which keeps the worst error at exactly 1/64, and
    each member gets a seeded extra breakpoint on its graph
    (:func:`with_breakpoint`), so every task has a family of its own.
    """

    name = "bound-check"
    eps = 1 / 40
    #: whole code steps (1/8 on [-1, 1] with m''=4) that keep every member in range
    shifts = range(-7, 6)

    def setup(self, tracer) -> None:
        with tracer.span("circuits.build_bound_fixture"):
            self.fix = qibc.build_bound_fixture(self.eps)
        self.circuit = self.fix.algorithm
        q = self.circuit.query
        self.step = (q.range_hi - q.range_lo) / (1 << q.m_double_prime)
        self.taken: set = set()

    def _family(self, rng):
        """A seeded family sharing no member with any family drawn before."""
        while True:
            k = rng.choice(self.shifts)
            family = tuple(with_breakpoint(rng, shifted(f, k * self.step))
                           for f in self.fix.family)
            if self.taken.isdisjoint(family) and len(set(family)) == len(family):
                self.taken.update(family)
                return family

    def inputs(self):
        while True:
            yield self._family(self.task_rng)

    def warm_input(self):
        return self._family(self.warm_rng)

    def run(self, family):
        r = qibc.verify_bound(self.circuit, family, L=1.0, eps=self.eps)
        return r.status, r.satisfied, r.nu, r.rhs, r.achieved_error

    def traced_run(self, family, tracer):
        alg = self.circuit
        errors = []
        for f in family:
            with tracer.span("functions.exact_integral"):
                truth = qibc.exact_integral(f)
            with tracer.span("simulator.run", **run_fields(alg)):
                state = qibc.run(alg, f)
            with tracer.span("simulator.measure"):
                dist = qibc.measure(state, alg)
            with tracer.span("bounds.local_error", outcomes=alg.outcome_count):
                errors.append(qibc.local_error(dist, truth))
        with tracer.span("bounds.qubit_lower_bound"):
            rhs = qibc.qubit_lower_bound(1.0, self.eps)
        achieved = max(errors)
        return ("ok" if achieved <= self.eps else "not-applicable", alg.nu >= rhs,
                alg.nu, rhs, achieved)

    def check(self, family, got):
        want = ("ok", True, 16, 1.0, 1 / 64)
        return None if got == want else f"report {got} != {want}"


class State20q(Workload):
    """One reversible midpoint circuit (m'=2, m''=8) at nu=20, run and measured.

    The same simulator used differently: one seeded Lipschitz function and a
    16 MiB state, far beyond the L2, so bytes moved per gate dominate. There
    is no family to batch, so a batched-family change should not move it.
    """

    name = "state-20q"
    args = (2, 8, -1.0, 1.0)

    def setup(self, tracer) -> None:
        with tracer.span("circuits.midpoint_algorithm"):
            self.circuit = qibc.midpoint_algorithm(*self.args)

    def _f(self, rng):
        return lipschitz_pwl(rng, 1.0, -1.0, 1.0, 8)

    def inputs(self):
        while True:
            yield self._f(self.task_rng)

    def warm_input(self):
        return self._f(self.warm_rng)

    def run(self, f):
        m1, m2, lo, hi = self.args
        return qibc.build_reversible_midpoint(m1, m2, f, lo, hi)

    def traced_run(self, f, tracer):
        with tracer.span("circuits.midpoint_algorithm"):
            alg = qibc.midpoint_algorithm(*self.args)
        with tracer.span("simulator.run", **run_fields(alg)):
            state = qibc.run(alg, f)
        with tracer.span("simulator.measure"):
            dist = qibc.measure(state, alg)
        return alg, dist

    def check(self, f, result):
        alg, dist = result
        j = sum(code for _, code in qibc.query_table(f, alg.query))
        p = dist.entries[j][1]
        return None if p >= 1 - 1e-9 else f"outcome {j} has p={p!r} < 1-1e-9"


class ClassicalN(Workload):
    """The classical layers at n=1000, with no simulator.

    ``worst_radius`` and ``fooling_pair`` of the optimal design, ``foil`` of a
    seeded quadrature, and ``envelopes`` + ``interval_H`` on seeded Lipschitz
    data at a seeded random design. This covers the O(n^2) paths (pairwise
    consistency, pwl ``eval`` rebuilding its x-list, the ``Envelope`` check);
    non-constant data at random points reaches the kink and slope-repair
    code that constant data never does.
    """

    name = "classical-n"
    n = 1000
    L = 1.0
    sweep_n = 1000

    def setup(self, tracer) -> None:
        with tracer.span("information.optimal_design"):
            self.design = qibc.optimal_design(self.n)

    def _input(self, rng):
        weights = [rng.random() for _ in range(self.n)]
        total = math.fsum(weights)
        quad = Quadrature(self.design, tuple(w / total for w in weights))
        design = qibc.Design(tuple(sorted({rng.random() for _ in range(self.n)})))
        f = lipschitz_pwl(rng, self.L, -1.0, 1.0, 32)
        return quad, design, qibc.observe(f, design), qibc.exact_integral(f)

    def inputs(self):
        while True:
            yield self._input(self.task_rng)

    def warm_input(self):
        return self._input(self.warm_rng)

    def run(self, inp):
        quad, design, data, _ = inp
        radius = qibc.worst_radius(self.design, self.L)
        pair = qibc.fooling_pair(self.design, self.L)
        foiled = qibc.foil(quad, self.L)
        H = qibc.interval_H(qibc.envelopes(design, data, self.L))
        return radius, pair, foiled, H

    def traced_run(self, inp, tracer):
        quad, design, data, _ = inp
        with tracer.span("information.worst_radius"):
            radius = qibc.worst_radius(self.design, self.L)
        with tracer.span("adversary.fooling_pair"):
            pair = qibc.fooling_pair(self.design, self.L)
        with tracer.span("adversary.foil"):
            foiled = qibc.foil(quad, self.L)
        with tracer.span("information.envelopes") as fields:
            env = qibc.envelopes(design, data, self.L)
        fields["breakpoints"] = len(env.upper.points) + len(env.lower.points)
        with tracer.span("information.interval_H"):
            H = qibc.interval_H(env)
        return radius, pair, foiled, H

    def check(self, inp, out):
        radius, pair, foiled, H = out
        truth = inp[3]
        if radius != self.L / (4 * self.n):
            return f"worst_radius {radius!r} != L/(4n)"
        if foiled != radius:
            return f"foil {foiled!r} != worst_radius {radius!r}"
        if pair.gap != 2 * radius:
            return f"gap {pair.gap!r} != 2 radius"
        if not H.h_lo <= truth <= H.h_hi:
            return f"integral {truth!r} outside H=[{H.h_lo!r}, {H.h_hi!r}]"
        return None


WORKLOADS = {w.name: w for w in (BoundCheck, State20q, ClassicalN)}

