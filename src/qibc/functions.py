"""Serializable input-function families on the domain [0, 1].

Three closed-form families are supported, each with deterministic evaluation,
an exact integral, and a promise check:

``pwl``
    Piecewise-linear through breakpoints ``(x_i, y_i)`` with ``x`` strictly
    increasing from exactly 0 to exactly 1, given as pairs or as an ``(n, 2)``
    array. The workhorse family: envelopes and adversary functions are
    piecewise-linear.
``constant``
    A single value.
``trig``
    Trigonometric polynomial ``c0 + sum_k (a_k cos(2*pi*k*x)
    + b_k sin(2*pi*k*x))``, given as the flat odd-length coefficient list
    ``[c0, a1, b1, a2, b2, ...]``. Included for promise-check stress tests;
    its integral over [0, 1] is exactly ``c0`` (whole periods cancel).

A :class:`Promise` records what the caller guarantees about a function: a
Lipschitz bound ``L`` and a value range. Functions may embed a promise so the
pair round-trips through JSON as one document.

Everything here is immutable and pure; values can be shared freely across
threads or processes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Iterable

import numpy as np

from .exceptions import _CONVERSION_ERRORS, DomainError, ValidationError, _int, _real, _reals
from .serialize import reading

__all__ = [
    "Promise",
    "FunctionSpec",
    "pwl",
    "constant",
    "trig",
    "eval",
    "eval_many",
    "exact_integral",
    "check_promise",
    "negate",
    "function_to_json",
    "function_from_json",
    "promise_to_json",
    "promise_from_json",
]

#: Families that admit an exact (not grid-based) Lipschitz check.
_EXACT_FAMILIES = ("pwl", "constant")

#: Minimum grid used for the trig-family promise check.
_TRIG_MIN_GRID = 4096

#: Documented slack factor for grid-based Lipschitz checks: a difference
#: quotient on a grid never exceeds the true Lipschitz constant, so the check
#: accepts quotients up to ``L * _GRID_SLACK`` to avoid false rejections of
#: bounds quoted at the exact supremum of |f'|.
_GRID_SLACK = 1.01


@dataclass(frozen=True)
class Promise:
    """Caller-guaranteed Lipschitz bound and value range."""

    lipschitz_bound: float
    range_lo: float
    range_hi: float

    def __post_init__(self) -> None:
        L = _real(self.lipschitz_bound, "lipschitz_bound must be nonnegative", at_least=0.0)
        lo, hi = _reals((self.range_lo, self.range_hi), "promise range")
        if not lo < hi:
            raise ValidationError(f"promise range must satisfy lo < hi, got [{lo}, {hi}]")
        object.__setattr__(self, "lipschitz_bound", L)
        object.__setattr__(self, "range_lo", lo)
        object.__setattr__(self, "range_hi", hi)


@dataclass(frozen=True)
class FunctionSpec:
    """A closed-form function on [0, 1], optionally carrying its promise.

    A pwl also keeps its breakpoints as a read-only float ``(n, 2)`` array,
    ``_breakpoints``, beside the ``points`` tuple; the integral, the promise
    check and the ``Envelope`` check read the array. It is not a field, so
    equality, hashing, ``repr`` and JSON see ``points`` alone.
    """

    family: str
    points: tuple[tuple[float, float], ...] | None = None
    value: float | None = None
    coefficients: tuple[float, ...] | None = None
    promise: Promise | None = None

    def __post_init__(self) -> None:
        if self.family == "pwl":
            if self.points is None or self.value is not None or self.coefficients is not None:
                raise ValidationError("pwl functions take exactly the 'points' parameter")
            xy = _breakpoint_array(self.points)
            object.__setattr__(self, "_breakpoints", xy)
            object.__setattr__(self, "points", tuple(zip(*xy.T.tolist())))
        elif self.family == "constant":
            if self.value is None or self.points is not None or self.coefficients is not None:
                raise ValidationError("constant functions take exactly the 'value' parameter")
            object.__setattr__(self, "value", _real(self.value, "constant value must be finite"))
        elif self.family == "trig":
            if self.coefficients is None or self.points is not None or self.value is not None:
                raise ValidationError("trig functions take exactly the 'coefficients' parameter")
            cs = _reals(self.coefficients, "trig coefficients")
            if len(cs) % 2 != 1:
                raise ValidationError(
                    "trig coefficient list must have odd length [c0, a1, b1, ...]"
                )
            try:  # bounds every evaluation's fsum, so none can overflow
                math.fsum(map(abs, cs))
            except OverflowError:
                raise ValidationError("trig coefficient magnitudes overflow a float sum") from None
            object.__setattr__(self, "coefficients", cs)
        else:
            raise ValidationError(
                f"unknown family {self.family!r}; expected pwl | constant | trig"
            )

    def __reduce__(self) -> tuple[Any, ...]:
        # rebuild through __init__, so a copy or an unpickled value gets its
        # own validated, read-only breakpoint array
        return (FunctionSpec, (self.family, self.points, self.value, self.coefficients,
                               self.promise))


def _breakpoint_array(points: Any) -> np.ndarray:
    """``points`` as a fresh read-only float ``(n, 2)`` array, checked as pwl breakpoints."""
    try:
        xy = np.array(points if isinstance(points, np.ndarray) else list(points),
                      dtype=float, ndmin=1)
    except _CONVERSION_ERRORS as exc:
        raise ValidationError(f"pwl breakpoints must be pairs of real numbers: {exc}") from exc
    if len(xy) < 2:
        raise ValidationError("pwl needs at least 2 breakpoints")
    if xy.shape[1:] != (2,):
        raise ValidationError(f"pwl breakpoints must be (x, y) pairs, got shape {xy.shape}")
    finite = np.isfinite(xy).all(axis=1)
    if not finite.all():
        x, y = xy[np.argmin(finite)].tolist()
        raise ValidationError(f"non-finite breakpoint ({x!r}, {y!r})")
    if (xy[1:, 0] <= xy[:-1, 0]).any():
        raise ValidationError("pwl breakpoint x-values must be strictly increasing")
    x0, x1 = xy[[0, -1], 0].tolist()
    if x0 != 0.0 or x1 != 1.0:
        raise ValidationError(f"pwl breakpoints must span [0, 1] exactly, got [{x0}, {x1}]")
    xy.flags.writeable = False
    return xy


def pwl(
    points: Iterable[tuple[float, float]] | np.ndarray, promise: Promise | None = None
) -> FunctionSpec:
    """Piecewise-linear function through ``points``: ``(x, y)`` pairs or an ``(n, 2)`` array.

    An array is copied, so changing it afterwards does not change the function.
    """
    return FunctionSpec(family="pwl", points=points, promise=promise)


def constant(value: float, promise: Promise | None = None) -> FunctionSpec:
    """Constant function ``f(x) = value``."""
    return FunctionSpec(family="constant", value=value, promise=promise)


def trig(coefficients: Iterable[float], promise: Promise | None = None) -> FunctionSpec:
    """Trigonometric polynomial from the flat list ``[c0, a1, b1, ...]``."""
    return FunctionSpec(family="trig", coefficients=coefficients, promise=promise)


def eval(f: FunctionSpec, x: float) -> float:  # noqa: A001 - name fixed by the public API
    """Evaluate ``f`` at ``x`` in [0, 1].

    A pwl segment is found by bisection over the breakpoints, O(log n) per
    call. Exact at pwl breakpoints: evaluating at a breakpoint returns its
    stored ``y`` bitwise, never a reinterpolation.
    """
    try:
        x = float(x)
    except _CONVERSION_ERRORS as exc:
        raise ValidationError(f"evaluation point must be a real number: {exc}") from exc
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"evaluation point {x!r} outside [0, 1]")
    if f.family == "constant":
        return f.value  # type: ignore[return-value]
    if f.family == "pwl":
        pts = f.points
        assert pts is not None
        i = bisect_right(pts, x, key=itemgetter(0)) - 1
        if i >= len(pts) - 1:
            i = len(pts) - 2
        x0, y0 = pts[i]
        x1, y1 = pts[i + 1]
        if x == x0:
            return y0
        if x == x1:
            return y1
        return y0 + (y1 - y0) * ((x - x0) / (x1 - x0))
    # trig
    cs = f.coefficients
    assert cs is not None
    terms = [cs[0]]
    for k in range((len(cs) - 1) // 2):
        a = cs[1 + 2 * k]
        b = cs[2 + 2 * k]
        w = 2.0 * math.pi * (k + 1) * x
        terms.append(a * math.cos(w))
        terms.append(b * math.sin(w))
    return math.fsum(terms)


def _eval_pwl(points: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """``eval`` of the pwl with breakpoint rows ``points`` at each of ``xs``, bit for bit.

    It picks the segment ``eval`` picks, by ``searchsorted`` instead of
    ``bisect_right``, returns the stored ordinate at a breakpoint and
    interpolates with the same expression elsewhere.
    """
    px, py = points[:, 0], points[:, 1]
    i = np.minimum(np.searchsorted(px, xs, side="right") - 1, len(px) - 2)
    x0, y0, x1, y1 = px[i], py[i], px[i + 1], py[i + 1]
    return np.where(
        xs == x0, y0, np.where(xs == x1, y1, y0 + (y1 - y0) * ((xs - x0) / (x1 - x0)))
    )


def eval_many(f: FunctionSpec, xs: Iterable[float]) -> list[float]:
    """Evaluate ``f`` at each point of ``xs`` (scalar semantics, in order)."""
    return [eval(f, x) for x in xs]


def exact_integral(f: FunctionSpec) -> float:
    """Exact value of the integral of ``f`` over [0, 1].

    Trapezoid-exact for pwl (the trapezoid rule is exact on linear pieces),
    analytic for constant and trig (every whole harmonic integrates to 0).
    """
    if f.family == "constant":
        return f.value  # type: ignore[return-value]
    if f.family == "trig":
        assert f.coefficients is not None
        return f.coefficients[0]
    x, y = f._breakpoints.T
    return math.fsum(((x[1:] - x[:-1]) * (y[:-1] + y[1:]) / 2.0).tolist())


def check_promise(f: FunctionSpec, p: Promise, grid_size: int) -> bool:
    """True iff ``f`` satisfies the promise ``p``.

    For pwl and constant functions the Lipschitz check is exact (segment
    slopes compared in multiplication form ``|dy| <= L*dx``, no division) and
    the range check inspects breakpoints, where piecewise-linear extremes
    live — both independent of ``grid_size``. For trig functions both checks
    run on a uniform grid of ``max(grid_size, 4096)`` points; the Lipschitz
    comparison allows the documented slack factor 1.01 because grid
    difference quotients only ever underestimate the true constant.
    """
    grid_size = _int(grid_size, "grid_size must be an int >= 2", 2)
    L = p.lipschitz_bound
    if f.family == "constant":
        return p.range_lo <= f.value <= p.range_hi  # type: ignore[operator]
    if f.family == "pwl":
        x, y = f._breakpoints.T
        if (np.abs(y[1:] - y[:-1]) > L * (x[1:] - x[:-1])).any():
            return False
        return bool(((p.range_lo <= y) & (y <= p.range_hi)).all())
    n = max(grid_size, _TRIG_MIN_GRID)
    xs = [i / (n - 1) for i in range(n)]
    vals = eval_many(f, xs)
    for v in vals:
        if not p.range_lo <= v <= p.range_hi:
            return False
    bound = L * _GRID_SLACK
    for (x0, v0), (x1, v1) in zip(zip(xs, vals), zip(xs[1:], vals[1:])):
        if abs(v1 - v0) > bound * (x1 - x0):
            return False
    return True


def negate(f: FunctionSpec) -> FunctionSpec:
    """The function ``-f``, with the promise's range mirrored."""
    promise = f.promise
    if promise is not None:
        promise = Promise(promise.lipschitz_bound, -promise.range_hi, -promise.range_lo)
    if f.family == "constant":
        return constant(-f.value, promise)  # type: ignore[operator]
    if f.family == "pwl":
        return pwl(f._breakpoints * (1.0, -1.0), promise)
    assert f.coefficients is not None
    return trig(tuple(-c for c in f.coefficients), promise)


# --- JSON mirroring -------------------------------------------------------

def promise_to_json(p: Promise) -> dict[str, Any]:
    return {"L": p.lipschitz_bound, "range": [p.range_lo, p.range_hi]}


def promise_from_json(node: Any) -> Promise:
    with reading(node, "promise", {"L", "range"}):
        lo, hi = node["range"]
        return Promise(node["L"], lo, hi)


def function_to_json(f: FunctionSpec) -> dict[str, Any]:
    doc: dict[str, Any] = {"family": f.family}
    if f.family == "pwl":
        doc["points"] = f._breakpoints.tolist()
    elif f.family == "constant":
        doc["value"] = f.value
    else:
        doc["coefficients"] = list(f.coefficients)  # type: ignore[arg-type]
    if f.promise is not None:
        doc["promise"] = promise_to_json(f.promise)
    return doc


def function_from_json(node: Any) -> FunctionSpec:
    with reading(node, "function", {"family", "promise", "points", "value", "coefficients"}):
        family = node.get("family")
        promise = promise_from_json(node["promise"]) if "promise" in node else None
        if family == "pwl":
            return pwl(node["points"], promise)
        if family == "constant":
            return constant(node["value"], promise)
        if family == "trig":
            return trig(node["coefficients"], promise)
        raise ValidationError(f"unknown family {family!r}; expected pwl | constant | trig")
