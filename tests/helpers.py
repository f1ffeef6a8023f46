"""Shared test utilities: slow independent oracles and random-instance factories.

Everything here is deliberately written *differently* from the library code it
checks (Riemann sums instead of exact breakpoint integration, brute-force
subset scans instead of greedy prefixes, all-pairs loops instead of one-pass
checks) so that agreement is evidence, not tautology. The scalar routes are
the exception: the scalar ladder (``upper_breakpoints_scalar`` with its gap
helpers, and ``check_consistency_scalar``) is the gap-by-gap loop that the
library's array pass replaced, and ``exact_integral_scalar`` is the
segment-by-segment trapezoid sum that the array integral replaced, and
``local_error_loop`` is the sort-and-accumulate loop over ``(j, p, phi)``
tuples that the column ``local_error`` replaced, ``trig_promise_loop`` is
the two-loop trig verdict that the array tests replaced,
``beta_code_scalar`` is the scalar clamp that the array ``beta`` pass
replaced, and ``compile_loop`` is the gate-by-gate compile of every layer
slot that the once-per-distinct-layer ``_compile`` replaced. Each is kept as its replacement's bitwise oracle. The pwl oracles
read ``points`` through ``.tolist()``, so they compute in Python floats.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from pathlib import Path

import numpy as np

import qibc
from qibc import (
    DataVector,
    Design,
    Envelope,
    FunctionSpec,
    GateOp,
    InfeasibleDataError,
    OutcomeDistribution,
    Promise,
    envelopes,
    interval_H,
    pwl,
)


def package_env() -> dict[str, str]:
    """``os.environ`` with the directory holding the imported ``qibc`` first on
    ``PYTHONPATH``, so child interpreters run the code under test."""
    package_root = str(Path(qibc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    return env


# ---------------------------------------------------------------------------
# Riemann oracles
# ---------------------------------------------------------------------------

def riemann_min_dist_integral(points: tuple[float, ...], L: float, panels: int = 1_000_000) -> float:
    """Midpoint Riemann sum of L * min_i |x - t_i| over [0, 1].

    Uses searchsorted against the sorted design so a 10^6-panel sum stays
    fast for any design size.
    """
    t = np.asarray(points, dtype=float)
    x = (np.arange(panels, dtype=float) + 0.5) / panels
    idx = np.searchsorted(t, x)
    left = np.where(idx > 0, x - t[np.clip(idx - 1, 0, len(t) - 1)], np.inf)
    right = np.where(idx < len(t), t[np.clip(idx, 0, len(t) - 1)] - x, np.inf)
    return L * float(np.minimum(left, right).mean())


# ---------------------------------------------------------------------------
# Reference oracles
# ---------------------------------------------------------------------------

def pairwise_consistent(ts: tuple[float, ...], ys: tuple[float, ...], L: float) -> bool:
    """All-pairs O(n^2) form of the data-consistency test (tolerance 1e-12).

    Every pair ``i < j`` is tested with ``|y_i - y_j| <= L (t_j - t_i) + tol``
    exactly as written, in float arithmetic.
    """
    n = len(ts)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(ys[i] - ys[j]) > L * (ts[j] - ts[i]) + 1e-12:
                return False
    return True


def check_consistency_scalar(ts: tuple[float, ...], ys: tuple[float, ...], L: float) -> None:
    """The one-pass consistency check as a scalar loop, with the library's message.

    Each ``j`` is tested against the running first argmax of ``y + L t`` and
    first argmin of ``y - L t``; within ``1e-14 (L + max|y|)`` of the
    tolerance edge every ``i < j`` is rescanned and the first failing pair
    raises ``InfeasibleDataError``.
    """
    near = 1e-12 - 1e-14 * (L + max(map(abs, ys)))
    hi = lo = 0
    for j in range(1, len(ts)):
        if any(abs(ys[i] - ys[j]) > L * (ts[j] - ts[i]) + near for i in (hi, lo)):
            for i in range(j):
                if abs(ys[i] - ys[j]) > L * (ts[j] - ts[i]) + 1e-12:
                    raise InfeasibleDataError(
                        f"data not Lipschitz-{L} consistent at points "
                        f"t={ts[i]}, t={ts[j]}: |{ys[i]} - {ys[j]}| > L*dt"
                    )
        if ys[j] + L * ts[j] > ys[hi] + L * ts[hi]:
            hi = j
        if ys[j] - L * ts[j] < ys[lo] - L * ts[lo]:
            lo = j


def upper_breakpoints_scalar(
    ts: tuple[float, ...], ys: tuple[float, ...], L: float
) -> list[tuple[float, float]]:
    """Breakpoints of min_i (y_i + L|x - t_i|), one design gap at a time.

    The scalar ladder the library's array pass must match bit for bit: per
    gap the cone intersection, its one-ulp straddle with nudges, the sagged
    single kink, then the float-Lipschitz walk that pulls kinks onto the
    cones or drops them; plus the boundary pieces out to 0 and 1.
    """
    bps: list[tuple[float, float]] = []
    if ts[0] > 0.0:
        bound = L * ts[0]
        bps.append((0.0, pull_onto_cone_scalar(ys[0] + bound, ys[0], bound)))
    for t, y, t2, y2 in zip(ts, ys, ts[1:], ys[1:]):
        bps.append((t, y))
        bps += gap_kinks_scalar(t, y, t2, y2, L)
    bps.append((ts[-1], ys[-1]))
    if ts[-1] < 1.0:
        bound = L * (1.0 - ts[-1])
        bps.append((1.0, pull_onto_cone_scalar(ys[-1] + bound, ys[-1], bound)))
    return bps


def gap_kinks_scalar(
    t: float, y: float, t2: float, y2: float, L: float
) -> list[tuple[float, float]]:
    """Kinks over one gap after the left-to-right float-Lipschitz walk."""
    chain = [(t, y), *kink_scalar(t, y, t2, y2, L), (t2, y2)]
    last = len(chain) - 1
    for i in range(last):
        (x0, y0), (x1, y1) = chain[i], chain[i + 1]
        bound = L * (x1 - x0)
        if abs(y1 - y0) <= bound:
            continue
        if i + 1 < last:
            chain[i + 1] = (x1, pull_onto_cone_scalar(y1, y0, bound))
        elif i > 0:
            y0 = pull_onto_cone_scalar(y0, y1, bound)
            xp, yp = chain[i - 1]
            if abs(y0 - yp) > L * (x0 - xp):
                return []
            chain[i] = (x0, y0)
    return chain[1:-1]


def kink_scalar(
    t: float, y: float, t2: float, y2: float, L: float
) -> list[tuple[float, float]]:
    """The cone intersection over one gap: a single kink, a one-ulp straddle
    pair (nudged at most 8 times) or a sagged single kink."""
    xk = (y2 - y) / (2.0 * L) + (t + t2) / 2.0
    if not (t < xk < t2):
        return []
    yk = (y + y2) / 2.0 + L * (t2 - t) / 2.0
    if abs(yk - y) <= L * (xk - t) and abs(y2 - yk) <= L * (t2 - xk):
        return [(xk, yk)]
    if L * (xk - t) >= abs(yk - y):
        xl, xr = math.nextafter(xk, t), xk
    else:
        xl, xr = xk, math.nextafter(xk, t2)
    if not (t < xl and xr < t2):
        return [(xk, sagged_ordinate_scalar(t, y, t2, y2, L, xk))]
    lb = L * (xl - t)
    rb = L * (t2 - xr)
    yl = pull_onto_cone_scalar(y + lb, y, lb)
    yr = pull_onto_cone_scalar(y2 + rb, y2, rb)
    mid = L * (xr - xl)
    for _ in range(8):
        if abs(yr - yl) <= mid:
            return [(xl, yl), (xr, yr)]
        if yl > yr:
            yl = math.nextafter(yl, yr)
        else:
            yr = math.nextafter(yr, yl)
    return [(xk, sagged_ordinate_scalar(t, y, t2, y2, L, xk))]


def sagged_ordinate_scalar(
    t: float, y: float, t2: float, y2: float, L: float, xk: float
) -> float:
    """Lower a single kink ulp by ulp (at most 64 steps) until both cones hold."""
    yk = min(y + L * (xk - t), y2 + L * (t2 - xk))
    floor = min(y, y2)
    for _ in range(64):
        if abs(yk - y) <= L * (xk - t) and abs(y2 - yk) <= L * (t2 - xk):
            return yk
        if yk <= floor:
            break
        yk = math.nextafter(yk, floor)
    return yk


def pull_onto_cone_scalar(moving: float, anchor: float, bound: float) -> float:
    """Jump to ``anchor +/- bound``, then walk toward ``anchor`` until
    ``|moving - anchor| <= bound`` holds in floats."""
    if abs(moving - anchor) <= bound:
        return moving
    target = anchor + bound if moving > anchor else anchor - bound
    while abs(target - anchor) > bound:
        target = math.nextafter(target, anchor)
    return target


def exact_integral_scalar(f: FunctionSpec) -> float:
    """Exact integral of a pwl: one trapezoid per segment from the
    breakpoints, in Python floats, summed by ``math.fsum``."""
    pts = f.points.tolist()
    terms = [
        (x1 - x0) * (y0 + y1) / 2.0
        for (x0, y0), (x1, y1) in zip(pts, pts[1:])
    ]
    return math.fsum(terms)


def bits(points) -> bytes:
    """The bytes of a breakpoint list, so that ``0.0`` and ``-0.0`` differ."""
    return np.asarray(points, dtype=float).tobytes()


def list_rebuild_eval(f: FunctionSpec, x: float) -> float:
    """Piecewise-linear evaluation that rebuilds the x-list on every call.

    Locates the segment by bisecting a fresh list of breakpoint abscissae,
    then interpolates; a breakpoint returns its stored ordinate.
    """
    pts = f.points.tolist()
    i = bisect_right([p[0] for p in pts], x) - 1
    if i >= len(pts) - 1:
        i = len(pts) - 2
    x0, y0 = pts[i]
    x1, y1 = pts[i + 1]
    if x == x0:
        return y0
    if x == x1:
        return y1
    return y0 + (y1 - y0) * ((x - x0) / (x1 - x0))


def trig_promise_loop(f: FunctionSpec, p: Promise, grid_size: int) -> bool:
    """``check_promise`` of a trig as two Python loops over the grid values.

    The range loop, then the slack-1.01 difference-quotient loop, each in
    grid order, on ``max(grid_size, 4096)`` points evaluated by ``qibc.eval``.
    """
    n = max(grid_size, 4096)
    xs = [i / (n - 1) for i in range(n)]
    vals = qibc.eval_many(f, xs)
    for v in vals:
        if not p.range_lo <= v <= p.range_hi:
            return False
    bound = p.lipschitz_bound * 1.01
    for (x0, v0), (x1, v1) in zip(zip(xs, vals), zip(xs[1:], vals[1:])):
        if abs(v1 - v0) > bound * (x1 - x0):
            return False
    return True


def beta_code_scalar(y: float, q: qibc.QuerySpec) -> int:
    """``beta(y)`` in Python floats: the scaled offset clamped to ``[0, 2^m'' - 1]``, floored."""
    codes = 1 << q.m_double_prime
    v = (y - q.range_lo) / (q.range_hi - q.range_lo)
    return math.floor(min(codes - 1, max(0.0, v * codes)))


def query_table_points(f: FunctionSpec, q: qibc.QuerySpec) -> tuple[tuple[float, int], ...]:
    """``query_table`` one grid point at a time: ``tau_point``, a scalar value, ``beta_code``.

    A pwl is valued by :func:`list_rebuild_eval`, any other family by ``qibc.eval``.
    """
    value = list_rebuild_eval if f.family == "pwl" else qibc.eval
    taus = [qibc.tau_point(j, q) for j in range(q.grid_points)]
    return tuple((t, qibc.beta_code(value(f, t), q)) for t in taus)


def pointwise_envelope_check(upper: FunctionSpec, lower: FunctionSpec) -> str | None:
    """Per-point form of the ``Envelope`` check: the rejection message, or None.

    Evaluates both members with ``qibc.eval`` (one bisection per point) at
    every point of the sorted union of their breakpoint abscissae, and fails
    at the first ``x`` where ``lower > upper + 1e-12``.
    """
    xs = sorted({x for x, _ in upper.points.tolist()} | {x for x, _ in lower.points.tolist()})
    for x in xs:
        if qibc.eval(lower, x) > qibc.eval(upper, x) + 1e-12:
            return f"lower envelope exceeds upper at x={x}"
    return None


def radius_closed_form(d: Design, L: float) -> float:
    """``L (t_1^2/2 + sum gap^2/4 + (1 - t_n)^2/2)``, the worst-case radius.

    The integral of ``L min_i |x - t_i|`` summed per piece in closed form:
    the end pieces are half-squares and each design gap holds two triangles
    meeting at its midpoint. Summed with ``math.fsum``.
    """
    t = d.points
    pieces = [t[0] ** 2 / 2, *((b - a) ** 2 / 4 for a, b in zip(t, t[1:])), (1 - t[-1]) ** 2 / 2]
    return L * math.fsum(pieces)


def zero_data_envelopes(d: Design, L: float) -> Envelope:
    """Zero data through the general data path: the consistency check, both
    envelopes and their order check."""
    return envelopes(d, DataVector((0.0,) * d.n), L)


def radius_via_envelopes(d: Design, L: float) -> float:
    """The worst-case radius by the general data path: half the length of
    ``H`` for zero data."""
    return interval_H(zero_data_envelopes(d, L)).radius


def riemann_envelope_integrals(
    points: tuple[float, ...],
    y: tuple[float, ...],
    L: float,
    panels: int = 200_000,
) -> tuple[float, float]:
    """Midpoint Riemann sums of the two data-consistent envelopes.

    upper(x) = min_i (y_i + L|x - t_i|), lower(x) = max_i (y_i - L|x - t_i|).
    Returns (integral of lower, integral of upper).
    """
    t = np.asarray(points, dtype=float)[None, :]
    yv = np.asarray(y, dtype=float)[None, :]
    x = ((np.arange(panels, dtype=float) + 0.5) / panels)[:, None]
    cones = L * np.abs(x - t)
    hi = float((yv + cones).min(axis=1).mean())
    lo = float((yv - cones).max(axis=1).mean())
    return lo, hi


def riemann_integral(f: FunctionSpec, panels: int = 200_000) -> float:
    """Midpoint Riemann sum of f over [0, 1], via qibc.eval_many."""
    from qibc import eval_many

    x = (np.arange(panels, dtype=float) + 0.5) / panels
    return float(np.asarray(eval_many(f, x), dtype=float).mean())


# ---------------------------------------------------------------------------
# Random-instance factories
# ---------------------------------------------------------------------------

def random_design(rng: np.random.Generator, n: int) -> Design:
    """n strictly increasing points in (0, 1) with a minimum gap."""
    while True:
        pts = np.sort(rng.uniform(0.0, 1.0, size=n))
        if n == 1 or float(np.diff(pts).min()) > 1e-6:
            return Design(tuple(float(p) for p in pts))


def ulp_spaced_design(rng: np.random.Generator, n: int) -> Design:
    """Up to ``n`` increasing points in [0, 1], about a third of the steps a
    few ulps long and the rest a random share of the room left."""
    t = float(rng.uniform(0.0, 0.5))
    pts = [t]
    for _ in range(n - 1):
        if rng.integers(10) < 3:
            for _ in range(int(rng.integers(1, 5))):
                t = math.nextafter(t, 2.0)
        else:
            t += float(rng.uniform(0.0, 0.5)) * (1.0 - t)
        if not pts[-1] < t <= 1.0:
            break
        pts.append(t)
    return Design(tuple(pts))


def random_consistent_data(
    rng: np.random.Generator, d: Design, L: float, scale: float = 1.0
) -> tuple[float, ...]:
    """Data vector satisfying |y_i - y_j| <= L |t_i - t_j| with slack.

    Built as a random walk with per-step slope at most 0.999 L, so the
    pairwise condition follows from the triangle inequality with margin.
    """
    t = np.asarray(d.points)
    y = [float(rng.uniform(-scale, scale))]
    for dt in np.diff(t):
        slope = rng.uniform(-0.999 * L, 0.999 * L)
        y.append(y[-1] + float(slope * dt))
    return tuple(y)


def random_lipschitz_pwl(
    rng: np.random.Generator, L: float, k: int = 8, scale: float = 1.0
) -> FunctionSpec:
    """Random piecewise-linear function whose promise check passes exactly.

    Breakpoints sit on a jittered uniform grid (gap >= 0.4/k) and every
    segment slope is at most 0.999 L in magnitude, keeping the float
    slope test |dy| <= L dx strictly inside its margin.
    """
    xs = [0.0]
    for i in range(1, k):
        xs.append(i / k + float(rng.uniform(-0.3, 0.3)) / k)
    xs.append(1.0)
    ys = [float(rng.uniform(-scale, scale))]
    for i in range(1, len(xs)):
        slope = rng.uniform(-0.999 * L, 0.999 * L)
        ys.append(ys[-1] + float(slope * (xs[i] - xs[i - 1])))
    lo = min(ys) - 1e-9
    hi = max(ys) + 1e-9
    return pwl(tuple(zip(xs, ys)), Promise(L, lo, hi))


def random_unitary(rng: np.random.Generator, k: int) -> tuple[tuple[complex, ...], ...]:
    """A random ``2^k x 2^k`` unitary (QR of a complex Gaussian matrix), as rows."""
    z = rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k))
    u, _ = np.linalg.qr(z)
    return tuple(tuple(complex(v) for v in row) for row in u)


ALL_GATE_KINDS = ("X", "mcx", "H", "phase", "cphase", "swap", "unitary")
#: The kinds that map a basis state to one basis state times a phase.
LABEL_GATE_KINDS = ("X", "mcx", "phase", "cphase", "swap")


def random_gate(
    rng: np.random.Generator, nu: int, kinds: tuple[str, ...] = ALL_GATE_KINDS
) -> GateOp:
    """One random gate, of a kind drawn uniformly from ``kinds``, on a ``nu``-qubit register."""
    kind = rng.choice(list(kinds))
    if kind in ("X", "H"):
        return GateOp(kind, (int(rng.integers(nu)),))
    if kind == "phase":
        return GateOp(kind, (int(rng.integers(nu)),), theta=float(rng.uniform(-6, 6)))
    if kind == "swap":
        targets = tuple(int(q) for q in rng.choice(nu, size=2, replace=False))
        return GateOp(kind, targets)
    if kind == "mcx":  # controls first, flipped qubit last
        k = int(rng.integers(1, min(3, nu - 1) + 1))
        targets = tuple(int(q) for q in rng.choice(nu, size=k + 1, replace=False))
        return GateOp(kind, targets)
    if kind == "cphase":
        k = int(rng.integers(2, min(4, nu) + 1))
        targets = tuple(int(q) for q in rng.choice(nu, size=k, replace=False))
        return GateOp(kind, targets, theta=float(rng.uniform(-6, 6)))
    k = int(rng.integers(1, min(2, nu) + 1))
    targets = tuple(int(q) for q in rng.choice(nu, size=k, replace=False))
    return GateOp("unitary", targets, matrix=random_unitary(rng, k))


def planted_distribution(
    rng: np.random.Generator,
    eps: float,
    truth: float,
    m_outcomes: int | None = None,
) -> OutcomeDistribution:
    """Random distribution whose local error against `truth` is <= eps.

    Mass at least 0.7501 lands on decodes within 0.999 eps of the truth;
    the rest is scattered, mostly far outside the window.
    """
    m = int(m_outcomes if m_outcomes is not None else rng.integers(2, 33))
    k_in = int(rng.integers(1, max(2, m // 2 + 1)))
    mass_in = 0.7501 + 0.2249 * float(rng.uniform())
    p = np.empty(m)
    p[:k_in] = rng.uniform(0.05, 1.0, size=k_in)
    p[:k_in] *= mass_in / p[:k_in].sum()
    if m > k_in:
        p[k_in:] = rng.uniform(0.05, 1.0, size=m - k_in)
        p[k_in:] *= (1.0 - mass_in) / p[k_in:].sum()
    phi = np.empty(m)
    phi[:k_in] = truth + rng.uniform(-0.999 * eps, 0.999 * eps, size=k_in)
    # far outcomes: offset magnitude in (2 eps, 40 eps), random sign
    far = rng.uniform(2.0 * eps, 40.0 * eps, size=m - k_in)
    phi[k_in:] = truth + far * rng.choice((-1.0, 1.0), size=m - k_in)
    order = rng.permutation(m)
    p, phi = p[order], phi[order]
    p = p / math.fsum(p.tolist())
    entries = tuple((j, float(p[j]), float(phi[j])) for j in range(m))
    return OutcomeDistribution(entries)


def local_error_loop(dist: OutcomeDistribution, truth: float) -> float:
    """The local error by a scalar loop over the ``(j, p, phi)`` tuples.

    Sorts outcomes by ``(|truth - phi|, j)`` and adds probabilities in that
    order, in Python floats, until the mass reaches ``3/4 - 1e-12``.
    """
    ranked = sorted(
        ((abs(truth - phi), j, p) for j, p, phi in dist.entries),
        key=lambda item: (item[0], item[1]),
    )
    mass = 0.0
    for dist_j, _, p in ranked:
        mass += p
        if mass >= 0.75 - 1e-12:
            return dist_j
    raise AssertionError("distribution mass below 3/4")


def compile_loop(a) -> list[list[tuple[int, int]]]:
    """Each layer slot of ``a`` as ``(control_mask, flip_mask)`` pairs, gate by gate.

    Compiles every slot afresh, a repeated layer object included, with a
    Python list of masks per gate.
    """
    layers: list[list[tuple[int, int]]] = [[] for _ in a.layers]
    for ops, layer in zip(layers, a.layers):
        for g in layer:
            *cs, x = [1 << (a.nu - 1 - t) for t in g.targets]
            if g.gate == "swap":
                ops += [(cs[0], x), (x, cs[0]), (cs[0], x)]
            elif g.gate in ("X", "mcx"):
                ops.append((sum(cs), x))
    return layers


def subset_local_error(dist: OutcomeDistribution, truth: float) -> float:
    """Brute-force subset oracle for the local error (independent rewrite).

    Enumerates all outcome subsets, keeps those with mass >= 3/4, and
    returns the smallest of their worst |truth - phi|.
    """
    entries = dist.entries
    m = len(entries)
    best = math.inf
    for mask in range(1, 1 << m):
        mass = 0.0
        worst = 0.0
        for i in range(m):
            if mask >> i & 1:
                mass += entries[i][1]
                worst = max(worst, abs(truth - entries[i][2]))
        if mass >= 0.75 - 1e-12 and worst < best:
            best = worst
    return best
