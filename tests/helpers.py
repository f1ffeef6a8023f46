"""Shared test utilities: slow independent oracles and random-instance factories.

Everything here is deliberately written *differently* from the library code it
checks (Riemann sums instead of exact breakpoint integration, brute-force
subset scans instead of greedy prefixes, all-pairs loops instead of one-pass
checks) so that agreement is evidence, not tautology.
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


def list_rebuild_eval(f: FunctionSpec, x: float) -> float:
    """Piecewise-linear evaluation that rebuilds the x-list on every call.

    Locates the segment by bisecting a fresh list of breakpoint abscissae,
    then interpolates; a breakpoint returns its stored ordinate.
    """
    pts = f.points
    assert pts is not None
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


def pointwise_envelope_check(upper: FunctionSpec, lower: FunctionSpec) -> str | None:
    """Per-point form of the ``Envelope`` check: the rejection message, or None.

    Evaluates both members with ``qibc.eval`` (one bisection per point) at
    every point of the sorted union of their breakpoint abscissae, and fails
    at the first ``x`` where ``lower > upper + 1e-12``.
    """
    xs = sorted({x for x, _ in upper.points} | {x for x, _ in lower.points})
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
