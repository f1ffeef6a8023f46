"""Information operators and the radius of information.

Observing a function ``f`` at design points ``t_1 < ... < t_n`` yields the
data vector ``y_f = [f(t_1), ..., f(t_n)]``. Among all Lipschitz-``L``
functions consistent with that data, the pointwise extremes are the two
piecewise-linear *envelopes*

    upper(x) = min_i (y_i + L*|x - t_i|)
    lower(x) = max_i (y_i - L*|x - t_i|)

and the set of integrals of consistent functions is exactly the interval
``H = [integral(lower), integral(upper)]``. Half its length — the *radius of
information* — is the intrinsic worst-case error of any method that only sees
the data. The radius is maximized by constant data (``y = 0`` after a shift),
which gives ``worst_radius(d, L) = L * integral(min_i |x - t_i|)``; the
midpoint design ``t_i = (2i-1)/(2n)`` minimizes it at ``L/(4n)``. That
zero-data spike is built directly, not through ``envelopes``, once per design
and ``L``: the design keeps it, with its mirror and its integral, so
``worst_radius``, the adversary's fooling pair and ``foil`` on one design all
read one spike.

All integration here is exact breakpoint enumeration (trapezoid on linear
pieces), never quadrature, so radii are reference-grade. A one-ulp repair
pass keeps envelope segments Lipschitz as *floats*: interior kink ordinates
(never design values) are nudged by ``nextafter`` until ``|dy| <= L*dx``
holds in float arithmetic on every segment with a non-design end. A kink
that no float ordinate can put on both of its cones is dropped, leaving the
chord between two design points, which holds to the consistency tolerance.
The effect on integrals is a few ulps at most.

Design points and data values are read-only float arrays, and the per-point
work runs as numpy array passes: the consistency check, the kinks and float
checks of every design gap, the pull of straddle ends onto their cones, and
the ``Envelope`` check. Elementwise ``+ - * /`` and ``nextafter`` are the
IEEE operations of scalar code, so the outputs are bitwise those of a
gap-by-gap loop. Only the few gaps that need a nudge, the sag, or a kink
outside the gap run the scalar repair steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    CapacityError, InfeasibleDataError, ValidationError, _budget, _int, _real, _real_array,
)
from .functions import (
    FunctionSpec, Promise, _eval_counted, _eval_grid, _Value, exact_integral, negate, pwl,
)

__all__ = [
    "Design",
    "DataVector",
    "Envelope",
    "RadiusReport",
    "observe",
    "envelopes",
    "interval_H",
    "worst_radius",
    "optimal_design",
    "m_eps",
    "query_complexity",
]

#: Additive tolerance for the data-consistency test, applied to every pair
#: (checked in one pass). Marginally inconsistent data is rejected, never
#: repaired.
CONSISTENCY_TOL = 1e-12

#: Maximum one-ulp nudges applied to a pair of kinks straddling a peak.
_MAX_NUDGES = 8
_KINK_SEARCH_STEPS = 64


@dataclass(frozen=True, eq=False, repr=False)
class Design(_Value):
    """Strictly increasing sample points ``0 <= t_1 < ... < t_n <= 1``.

    ``points`` is a read-only float array, seen by ``==``, hash and repr as a
    tuple. The design also keeps its last zero-data spike (see :func:`_spike`),
    outside its value: copies start without it.
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = _real_array(self.points, "design points")
        if len(pts) < 1:
            raise ValidationError("a design needs at least one point")
        outside = (pts < 0.0) | (pts > 1.0)
        if outside.any():
            t = pts[np.argmax(outside)].item()
            raise ValidationError(f"design point {t!r} outside [0, 1]")
        if (pts[1:] <= pts[:-1]).any():
            raise ValidationError("design points must be strictly increasing")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_spike_slot", None)

    @property
    def n(self) -> int:
        return len(self.points)


@dataclass(frozen=True, eq=False, repr=False)
class DataVector(_Value):
    """Observed values, paired positionally with a design, as a read-only float array."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = _real_array(self.values, "data values")
        if len(vals) < 1:
            raise ValidationError("a data vector needs at least one value")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class Envelope:
    """Pointwise extreme functions of the data-consistent Lipschitz class.

    Construction checks ``lower <= upper + 1e-12`` at every breakpoint of
    either member, which suffices between breakpoints since both are linear
    there. In array passes, each member's breakpoints are checked against the
    other member at those abscissae, valued as ``eval`` would; the smaller of
    the two first failures is the first over the merged breakpoints.

    One ``searchsorted`` of the upper abscissae into the lower serves both
    members (:func:`_mutual_counts`): a cumulative ``bincount`` of its result
    counts the upper abscissae strictly left of each lower one, plus one
    where the next upper abscissa equals it (``-0.0 == 0.0``, as in
    ``searchsorted``).
    """

    upper: FunctionSpec
    lower: FunctionSpec

    def __post_init__(self) -> None:
        if self.upper.family != "pwl" or self.lower.family != "pwl":
            raise ValidationError("envelope members must be piecewise-linear")
        up, low = self.upper.points, self.lower.points
        ux, lx = up[:, 0], low[:, 0]
        at_up, at_low = _mutual_counts(ux, lx)
        bad_up = _eval_counted(low, ux, at_up) > up[:, 1] + CONSISTENCY_TOL
        bad_low = low[:, 1] > _eval_counted(up, lx, at_low) + CONSISTENCY_TOL
        first = [
            xs[np.argmax(bad)]
            for xs, bad in ((ux, bad_up), (lx, bad_low))
            if bad.any()
        ]
        if first:  # on a tie (0.0 and -0.0) min keeps the upper member's abscissa
            raise ValidationError(f"lower envelope exceeds upper at x={float(min(first))}")


def _mutual_counts(ux: np.ndarray, lx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``searchsorted(lx, ux, "right")`` and ``searchsorted(ux, lx, "right")`` from one search.

    For strictly increasing columns, ``ux[i] < lx[k]`` iff at most ``k`` of
    ``lx`` are ``<= ux[i]``.
    """
    at_up = np.searchsorted(lx, ux, side="right")
    left = np.cumsum(np.bincount(at_up, minlength=len(lx) + 1)[:-1])
    return at_up, left + (ux[np.minimum(left, len(ux) - 1)] == lx)


@dataclass(frozen=True)
class RadiusReport:
    """The interval ``H`` of data-consistent solution values."""

    h_lo: float
    h_hi: float
    radius: float
    center: float

    def __post_init__(self) -> None:
        for name in ("h_lo", "h_hi", "radius", "center"):
            v = _real(getattr(self, name), f"radius report field {name} must be finite")
            object.__setattr__(self, name, v)
        if self.h_lo > self.h_hi:
            raise ValidationError(f"interval endpoints out of order: [{self.h_lo}, {self.h_hi}]")


def observe(f: FunctionSpec, d: Design) -> DataVector:
    """The information about ``f``: its values at the design points, in one array pass."""
    return DataVector(_eval_grid((f,), d.points)[0])


def _check_consistency(t: np.ndarray, y: np.ndarray, L: float) -> None:
    """Pairwise test ``|y_i - y_j| <= L (t_j - t_i) + tol`` in a few array passes.

    A pair ``i < j`` fails iff ``y_i + L t_i > y_j + L t_j + tol`` or
    ``y_i - L t_i < y_j - L t_j - tol``, so each ``j`` is tested against the
    first index of the prefix maximum of the first key and of the prefix
    minimum of the second. Rounding can make those the wrong partners only
    within a few ulps of the edge; each ``j`` flagged within
    ``1e-14 (L + max|y|)`` of it is rescanned against every ``i < j``, in
    increasing ``j``, and the first failing pair is reported.
    """
    near = CONSISTENCY_TOL - 1e-14 * (L + float(np.abs(y).max()))
    flagged = np.zeros(len(t) - 1, dtype=bool)
    for key in (y + L * t, L * t - y):  # the second is -(y - L t), bit for bit
        i = _prefix_argmax(key)[:-1]
        flagged |= np.abs(y[i] - y[1:]) > L * (t[1:] - t[i]) + near
    if not flagged.any():
        return
    ts, ys = t.tolist(), y.tolist()
    for j in (np.flatnonzero(flagged) + 1).tolist():
        for i in range(j):
            if abs(ys[i] - ys[j]) > L * (ts[j] - ts[i]) + CONSISTENCY_TOL:
                raise InfeasibleDataError(
                    f"data not Lipschitz-{L} consistent at points "
                    f"t={ts[i]}, t={ts[j]}: |{ys[i]} - {ys[j]}| > L*dt"
                )


def _prefix_argmax(key: np.ndarray) -> np.ndarray:
    """For each ``j``, the first index of the maximum of ``key[:j + 1]``."""
    idx = np.arange(len(key))
    idx[1:][key[1:] <= np.maximum.accumulate(key)[:-1]] = 0
    return np.maximum.accumulate(idx)


def _upper_breakpoints(
    t: np.ndarray, y: np.ndarray, L: float
) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoint abscissae and ordinates of min_i (y_i + L|x - t_i|), for ``L > 0``.

    With consistent data only adjacent cones bind on each gap: the candidate
    lines of equal slope are totally ordered, and consistency forces the line
    through the nearer design point to be the lowest. Hence the cone
    intersection on each gap, plus boundary pieces rising from ``t_1`` back
    to 0 and from ``t_n`` on to 1, their far ordinates pulled onto the cone
    so that ``|dy| <= L*dx`` holds in floats.

    The peak ordinate comes from the symmetric formula
    ``(y + y2)/2 + L(t2 - t)/2`` rather than from evaluating a cone at the
    rounded abscissa, whose ``L * ulp(x)`` error can be worth many ulps of a
    shallow envelope. When the intersection abscissa is representable the
    peak is a single breakpoint. Otherwise no single float abscissa admits
    the full ordinate under the float check ``|dy| <= L dx`` (the two cone
    gaps sum to exactly ``L (t2 - t)``, so the feasible window has zero
    width), and sagging the peak until the check holds costs
    ``O(L ulp(x) gap)`` of area. Instead the peak is straddled with one
    breakpoint on each cone an ulp apart; the clipped sliver costs only
    ``O(L ulp(x)^2)``.

    One array pass computes, for every gap at once, the kink, the straddle
    pair and the float check of every segment they make. A gap whose checks
    pass emits its breakpoints directly. A straddle that fails but lies
    inside its gap has its ends pulled onto their cones in the pass
    (:func:`_pulled`) and passes if ``|yr - yl| <= L (xr - xl)`` then holds
    in floats: that is the first test of :func:`_repaired_kinks`' nudge loop,
    and the three segment tests of :func:`_gap_kinks` are the straddle's own.
    Only the gaps left over, which need a nudge, the sag, or a kink outside
    the gap, go through those two scalar steps.
    """
    t1, y1, t2, y2 = t[:-1], y[:-1], t[1:], y[1:]
    with np.errstate(over="ignore", invalid="ignore"):  # masked by ``inside`` below
        xk = (y2 - y1) / (2.0 * L) + (t1 + t2) / 2.0
        yk = (y1 + y2) / 2.0 + L * (t2 - t1) / 2.0
        lk = L * (xk - t1)
        single = (np.abs(yk - y1) <= lk) & (np.abs(y2 - yk) <= L * (t2 - xk))
        # left cone already covers its gap at xk, so the true intersection
        # sits at or left of xk: bracket it from the left
        left = lk >= np.abs(yk - y1)
        xl = np.where(left, np.nextafter(xk, t1), xk)
        xr = np.where(left, xk, np.nextafter(xk, t2))
        lb, rb, mid = L * (xl - t1), L * (t2 - xr), L * (xr - xl)
        yl, yr = y1 + lb, y2 + rb
        straddle = (
            (t1 < xl) & (xr < t2) & (np.abs(yl - y1) <= lb)
            & (np.abs(yr - yl) <= mid) & (np.abs(y2 - yr) <= rb)
        )
    inside = (t1 < xk) & (xk < t2)
    failed = np.flatnonzero(inside & ~single & ~straddle)
    # a straddle inside its gap whose ends only miss their cones by rounding:
    # pulled on, it passes or fails as the scalar repair's first test does
    pull = failed[(t1[failed] < xl[failed]) & (xr[failed] < t2[failed])]
    yl[pull], yr[pull] = _pulled(y1[pull], lb[pull]), _pulled(y2[pull], rb[pull])
    straddle[pull] = np.abs(yr[pull] - yl[pull]) <= mid[pull]
    failed = failed[~straddle[failed]]
    kinks = np.where(single, 1, np.where(straddle, 2, 0)) * inside
    xs = np.stack((t1, np.where(single, xk, xl), xr), axis=1)
    vs = np.stack((y1, np.where(single, yk, yl), yr), axis=1)
    rows = zip(*(a[failed].tolist() for a in (t1, y1, t2, y2, xk, xl, xr, yl, yr, mid)))
    for g, row in zip(failed.tolist(), rows):
        repaired = _gap_kinks(*row[:4], L, _repaired_kinks(L, *row))
        kinks[g] = len(repaired)
        for k, (x, v) in enumerate(repaired, 1):
            xs[g, k], vs[g, k] = x, v
    keep = np.arange(3) <= kinks[:, None]
    b0, b1 = L * t[0], L * (1.0 - t[-1])
    xs = np.concatenate(([0.0], xs[keep], t[-1:], [1.0]))
    vs = np.concatenate((
        [_pull_onto_cone(y[0] + b0, y[0], b0)], vs[keep], y[-1:],
        [_pull_onto_cone(y[-1] + b1, y[-1], b1)],
    ))
    ends = slice(0 if t[0] > 0.0 else 1, None if t[-1] < 1.0 else -1)
    return xs[ends], vs[ends]


def _repaired_kinks(
    L: float, t: float, y: float, t2: float, y2: float, xk: float,
    xl: float, xr: float, yl: float, yr: float, mid: float,
) -> list[tuple[float, float]]:
    """Kinks of one gap whose float checks failed in the array pass.

    Starts from that pass's values, whose straddle ordinates the pass has
    already pulled onto their cones: they are nudged; if no pair fits, or the
    straddle leaves the gap, the single kink is sagged.
    """
    if t < xl and xr < t2:
        for _ in range(_MAX_NUDGES):
            if abs(yr - yl) <= mid:
                return [(xl, yl), (xr, yr)]
            # lowering the higher end shrinks its own cone gap too, so the
            # outer segment checks stay satisfied
            if yl > yr:
                yl = math.nextafter(yl, yr)
            else:
                yr = math.nextafter(yr, yl)
    return [(xk, _sagged_ordinate(t, y, t2, y2, L, xk))]


def _gap_kinks(
    t: float, y: float, t2: float, y2: float, L: float, kinks: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """``kinks`` over one design gap, every segment passing ``|dy| <= L*dx`` in floats.

    Walking left to right, a failing segment moves its kink end onto the cone
    of its other end; kinks of an upper envelope are local maxima, so this
    only moves them down. Design ordinates are never modified. Only the last
    move can break a segment already walked: that happens when a kink sits
    within ulps of a design point whose chord has slope within rounding of
    ``L``, so no float ordinate lies on both cones. Then the kinks are
    dropped and the gap is that chord, which the consistency check bounded.
    """
    chain = [(t, y), *kinks, (t2, y2)]
    last = len(chain) - 1
    for i in range(last):
        (x0, y0), (x1, y1) = chain[i], chain[i + 1]
        bound = L * (x1 - x0)
        if abs(y1 - y0) <= bound:
            continue
        if i + 1 < last:
            chain[i + 1] = (x1, _pull_onto_cone(y1, y0, bound))
        elif i > 0:
            y0 = _pull_onto_cone(y0, y1, bound)
            xp, yp = chain[i - 1]
            if abs(y0 - yp) > L * (x0 - xp):
                return []
            chain[i] = (x0, y0)
    return chain[1:-1]


def _sagged_ordinate(
    t: float, y: float, t2: float, y2: float, L: float, xk: float
) -> float:
    """Single-breakpoint fallback: lower the peak until both bounds hold."""
    yk = min(y + L * (xk - t), y2 + L * (t2 - xk))
    floor = min(y, y2)
    for _ in range(_KINK_SEARCH_STEPS):
        if abs(yk - y) <= L * (xk - t) and abs(y2 - yk) <= L * (t2 - xk):
            return yk
        if yk <= floor:
            break
        yk = math.nextafter(yk, floor)
    return yk


def _pull_onto_cone(moving: float, anchor: float, bound: float) -> float:
    """Largest-magnitude ordinate with ``|moving - anchor| <= bound`` in floats.

    Jumps straight to ``anchor +/- bound`` (the abscissa rounding behind a
    kink or boundary ordinate can be worth many ulps of a small ``y``), then
    walks out the residual addition rounding one ulp at a time toward
    ``anchor``, which itself passes because ``bound >= 0``.
    """
    if abs(moving - anchor) <= bound:
        return moving
    target = anchor + bound if moving > anchor else anchor - bound
    while abs(target - anchor) > bound:
        target = math.nextafter(target, anchor)
    return target


def _pulled(anchor: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """``_pull_onto_cone(anchor + bound, anchor, bound)`` of each element, bit for bit.

    For finite ``bound >= 0``: the sum is already the scalar jump target, so
    only the walk remains, one ``nextafter`` pass over the elements still off
    their cone. A ``-inf`` bound would never stop the walk.
    """
    with np.errstate(over="ignore"):  # inf, as in scalar code, walks back to the largest float
        y = anchor + bound
    off = np.flatnonzero(np.abs(y - anchor) > bound)
    while len(off):
        y[off] = np.nextafter(y[off], anchor[off])
        off = off[np.abs(y[off] - anchor[off]) > bound[off]]
    return y


def envelopes(d: Design, y: DataVector, L: float) -> Envelope:
    """Exact upper/lower envelopes of the Lipschitz-``L`` class given data.

    Raises :class:`InfeasibleDataError` when no Lipschitz-``L`` function
    matches the data (every pair checked in one pass, additive tolerance
    1e-12).
    """
    L = _lipschitz_bound(L)
    ts, ys = d.points, y.values
    if len(ts) != len(ys):
        raise ValidationError(
            f"design has {len(ts)} points but data vector has {len(ys)} values"
        )
    _check_consistency(ts, ys, L)
    if L == 0.0:
        if (ys != ys[0]).any():
            raise InfeasibleDataError("L = 0 requires exactly constant data")
        flat = pwl([(0.0, ys[0]), (1.0, ys[0])])
        return Envelope(upper=flat, lower=flat)
    xs, vs = _upper_breakpoints(ts, ys, L)
    upper = pwl(np.stack((xs, vs), 1))
    xs, vs = _upper_breakpoints(ts, -ys, L)
    lower = pwl(np.stack((xs, -vs), 1))
    return Envelope(upper=upper, lower=lower)


def interval_H(e: Envelope) -> RadiusReport:
    """Endpoints of ``H``, both attained by members of the class."""
    h_lo = exact_integral(e.lower)
    h_hi = exact_integral(e.upper)
    return RadiusReport(
        h_lo=h_lo,
        h_hi=h_hi,
        radius=(h_hi - h_lo) / 2.0,
        center=(h_hi + h_lo) / 2.0,
    )


def _lipschitz_bound(L: float) -> float:
    return _real(L, "Lipschitz bound must be finite and >= 0", at_least=0.0)


def _spike(d: Design, L: float) -> tuple[FunctionSpec, FunctionSpec, float]:
    """The zero-data upper envelope ``L * min_i |x - t_i|``, its mirror and its exact integral.

    For ``L > 0``. The pwl carries the fooling pair's promise: bound ``L``,
    range ``[-peak, peak]``, and the mirror is its :func:`negate`. Zero data
    is consistent and its lower envelope is the mirror, so neither needs
    checking. Built once per design and ``L``: ``d`` keeps the last one asked
    for, so a caller alternating between two ``L`` rebuilds it on each call.
    """
    kept = d._spike_slot  # type: ignore[attr-defined]
    if kept is None or kept[0] != L:
        points = np.stack(_upper_breakpoints(d.points, np.zeros(d.n), L), 1)
        peak = float(np.abs(points[:, 1]).max())
        spike = pwl(points, Promise(L, -peak, peak) if peak > 0.0 else None)
        kept = (L, spike, negate(spike), exact_integral(spike))
        object.__setattr__(d, "_spike_slot", kept)  # one assignment: a race only rebuilds
    return kept[1:]


def worst_radius(d: Design, L: float) -> float:
    """Radius of information at the worst data vector (constant data).

    Equals ``L * integral_0^1 min_i |x - t_i| dx``, the exact piecewise
    integral of the zero-data upper envelope: the lower envelope is its
    mirror, so this is bitwise ``(h_hi - h_lo)/2`` of :func:`interval_H`.
    """
    L = _lipschitz_bound(L)
    return _spike(d, L)[2] if L > 0.0 else 0.0


def optimal_design(n: int) -> Design:
    """The midpoint design ``t_i = (2i - 1)/(2n)``, radius-optimal at L/(4n).

    ``n`` past the size budget, ``2^MAX_QUBITS`` points, raises :class:`CapacityError`.
    """
    n = _int(n, "design size must be a positive int", 1)
    _budget("design size n", 0, n)
    return Design((2 * np.arange(1, n + 1) - 1) / (2 * n))


def m_eps(L: float, eps: float) -> int:
    """Smallest ``n`` with ``L/(4n) <= eps`` (at least 1).

    Computed as ``ceil(L/(4*eps))`` with two float-guard adjustments so the
    bracket ``L/(4m) <= eps < L/(4(m-1))`` holds in float arithmetic even
    when the ceiling argument lands within rounding of an integer. Raises
    :class:`CapacityError` when ``L/(4*eps)`` exceeds ``2^53``: above it
    consecutive integers are no longer distinct floats, so the bracket
    cannot be checked.
    """
    L = _real(L, "L must be finite and > 0", above=0.0)
    eps = _real(eps, "eps must be finite and > 0", above=0.0)
    ratio = L / (4.0 * eps)
    if not ratio <= 2.0**53:
        raise CapacityError(
            f"m(eps) for L={L!r}, eps={eps!r} exceeds 2^53, "
            "where integers stop being distinct floats"
        )
    m = max(1, math.ceil(ratio))
    while m > 1 and L / (4.0 * (m - 1)) <= eps:
        m -= 1
    while L / (4.0 * m) > eps:
        m += 1
    return m


def query_complexity(L: float, eps: float, c: float = 1.0) -> float:
    """Classical query complexity ``c * m_eps(L, eps)`` at per-query cost ``c``."""
    c = _real(c, "query cost c must be finite and > 0", above=0.0)
    return c * m_eps(L, eps)
