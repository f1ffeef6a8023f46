"""Serializable input-function families on the domain [0, 1].

Three closed-form families are supported, each with deterministic evaluation,
an exact integral, and a promise check:

``pwl``
    Piecewise-linear through breakpoints ``(x_i, y_i)`` with ``x`` strictly
    increasing from exactly 0 to exactly 1, given as pairs or as an ``(n, 2)``
    array and kept once, as the read-only ``(n, 2)`` array ``points``. The
    workhorse family: envelopes and adversary functions are piecewise-linear.
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
from dataclasses import dataclass, fields
from typing import Any, Iterable, Sequence

import numpy as np

from .exceptions import (
    _CONVERSION_ERRORS, DomainError, ValidationError, _budget, _float, _frozen, _int, _listed,
    _real, _reals,
)
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


class _Value:
    """Value semantics for a frozen dataclass that holds read-only arrays or a cache.

    :meth:`_fields` gives the constructor's arguments in order. Hash and repr
    see them with each array as tuples (rows of a 2-d array as tuples too),
    so a value prints on one line as its tuple form, every float at full
    precision. ``==`` compares arrays with ``np.array_equal``, the tuples'
    verdict without building them, so ``-0.0 == 0.0`` for both.
    ``__reduce__`` rebuilds through ``__init__`` from the arguments, arrays as
    arrays, so a copy or an unpickled value gets its own validated, read-only
    arrays and none of the original's kept state: no compiled program, cached
    entries or spike.
    """

    def _fields(self) -> tuple[Any, ...]:
        raise NotImplementedError

    def _key(self) -> tuple[Any, ...]:
        return tuple(
            (tuple(map(tuple, v.tolist())) if v.ndim == 2 else tuple(v.tolist()))
            if isinstance(v, np.ndarray) else v
            for v in self._fields()
        )

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(self._fields(), other._fields())  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f.name}={v!r}" for f, v in zip(fields(self), self._key()))
        return f"{type(self).__name__}({shown})"

    def __reduce__(self) -> tuple[Any, ...]:
        return (type(self), self._fields())


@dataclass(frozen=True, eq=False, repr=False)
class FunctionSpec(_Value):
    """A closed-form function on [0, 1], optionally carrying its promise.

    A pwl's ``points`` is its one copy of the breakpoints: a validated, read-only
    float ``(n, 2)`` array of ``(x, y)`` rows, seen by ``==``, hash and repr as
    ``(x, y)`` tuples (:class:`_Value`).
    """

    family: str
    points: np.ndarray | None = None
    value: float | None = None
    coefficients: tuple[float, ...] | None = None
    promise: Promise | None = None

    def __post_init__(self) -> None:
        if self.family == "pwl":
            if self.points is None or self.value is not None or self.coefficients is not None:
                raise ValidationError("pwl functions take exactly the 'points' parameter")
            object.__setattr__(self, "points", _breakpoint_array(self.points))
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

    def _fields(self) -> tuple[Any, ...]:
        return (self.family, self.points, self.value, self.coefficients, self.promise)


def _breakpoint_array(points: Any) -> np.ndarray:
    """``points`` as a fresh read-only float ``(n, 2)`` array, checked as pwl breakpoints."""
    try:
        if isinstance(points, np.ndarray):
            if points.dtype.kind == "c":
                raise TypeError(f"got a {points.dtype} array")
        else:
            points = _listed(points)
            _listed(v for row in points if isinstance(row, (tuple, list)) for v in row)
        xy = np.array(points, dtype=float, ndmin=1)
    except _CONVERSION_ERRORS as exc:
        raise ValidationError(f"pwl breakpoints must be pairs of real numbers: {exc}") from exc
    if len(xy) < 2:
        raise ValidationError("pwl needs at least 2 breakpoints")
    if xy.shape[1:] != (2,):
        raise ValidationError(f"pwl breakpoints must be (x, y) pairs, got shape {xy.shape}")
    if not np.isfinite(xy).all():
        x, y = xy[np.argmin(np.isfinite(xy).all(axis=1))].tolist()
        raise ValidationError(f"non-finite breakpoint ({x!r}, {y!r})")
    if (xy[1:, 0] <= xy[:-1, 0]).any():
        raise ValidationError("pwl breakpoint x-values must be strictly increasing")
    with np.errstate(over="ignore"):
        rise = np.isfinite(np.diff(xy[:, 1]))
    if not rise.all():  # eval interpolates with y1 - y0
        (x0, y0), (x1, y1) = xy[np.argmin(rise):][:2].tolist()
        raise ValidationError(
            f"pwl ordinate difference overflows between ({x0!r}, {y0!r}) and ({x1!r}, {y1!r})"
        )
    x0, x1 = xy[[0, -1], 0].tolist()
    if x0 != 0.0 or x1 != 1.0:
        raise ValidationError(f"pwl breakpoints must span [0, 1] exactly, got [{x0}, {x1}]")
    return _frozen(xy)


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

    A pwl segment is found by bisecting the x column of ``points``, O(log n)
    (about 2 µs a call at 33 breakpoints; a grid is one array pass). Exact
    at a pwl breakpoint: it returns the stored ``y`` bitwise.
    """
    try:
        x = _float(x)
    except _CONVERSION_ERRORS as exc:
        raise ValidationError(f"evaluation point must be a real number: {exc}") from exc
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"evaluation point {x!r} outside [0, 1]")
    if f.family == "constant":
        return f.value  # type: ignore[return-value]
    if f.family == "pwl":
        pts = f.points
        assert pts is not None
        i = min(bisect_right(pts[:, 0], x), len(pts) - 1) - 1
        (x0, y0), (x1, y1) = pts[i:i + 2].tolist()
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


def _eval_counted(points: np.ndarray, xs: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``eval`` of the pwl with breakpoint rows ``points`` at each of ``xs``, bit for bit.

    ``counts``, the number of breakpoint abscissae ``<=`` each x, picks
    ``eval``'s segment.
    """
    return _on_segments(points, xs, np.minimum(counts - 1, len(points) - 2))


def _on_segments(points: np.ndarray, xs: np.ndarray, i: np.ndarray) -> np.ndarray:
    """``eval``'s value at each of ``xs`` on the segment from row ``i`` to row ``i + 1``."""
    px, py = points[:, 0], points[:, 1]
    x0, y0, x1, y1 = px[i], py[i], px[i + 1], py[i + 1]
    return np.where(
        xs == x0, y0, np.where(xs == x1, y1, y0 + (y1 - y0) * ((xs - x0) / (x1 - x0)))
    )


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    """The rows of ``arrays`` as one array; a lone array as it is, not copied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _eval_grid(family: Sequence[FunctionSpec], xs: np.ndarray) -> np.ndarray:
    """``eval`` of each member of ``family`` (a row each) at each of ``xs`` in [0, 1], bit for bit.

    The pwl members share one gather over their concatenated breakpoints.
    """
    out = np.empty((len(family), len(xs)))
    rows, pts, segs, start = [], [], [], 0
    for r, f in enumerate(family):
        if f.family == "pwl":
            p = f.points
            seg = np.minimum(p[:, 0].searchsorted(xs, side="right") - 1, len(p) - 2)
            seg += start  # the member's rows start here in the concatenation
            rows.append(r)
            pts.append(p)
            segs.append(seg)
            start += len(p)
        elif f.family == "constant":
            out[r] = f.value
        else:
            out[r] = [eval(f, x) for x in xs.tolist()]
    if pts:
        out[rows] = _on_segments(_joined(pts), xs, np.array(segs))
    return out


def eval_many(f: FunctionSpec, xs: Iterable[float]) -> list[float]:
    """Evaluate ``f`` at each point of ``xs`` (scalar semantics, in order).

    One array pass, bitwise ``eval``'s values. On a bad point it raises what
    ``eval`` raises at the first bad point.
    """
    xs = list(xs)
    try:
        grid = np.fromiter(map(float, xs), dtype=np.float64, count=len(xs))
    except _CONVERSION_ERRORS:
        grid = None
    if grid is None or not ((grid >= 0.0) & (grid <= 1.0)).all():
        for x in xs:
            eval(f, x)  # raises at the first bad point
    return _eval_grid((f,), grid)[0].tolist()  # type: ignore[arg-type]


def exact_integral(f: FunctionSpec) -> float:
    """Exact value of the integral of ``f`` over [0, 1].

    Trapezoid-exact for pwl (the trapezoid rule is exact on linear pieces),
    analytic for constant and trig (every whole harmonic integrates to 0). A
    segment whose ordinate sum overflows halves each ordinate first, exact at
    that size, so its trapezoid is the one an unbounded exponent would give.
    """
    return _integrals((f,))[0]


def _integrals(family: Sequence[FunctionSpec]) -> list[float]:
    """:func:`exact_integral` of each member of ``family``, bit for bit.

    One trapezoid pass over the concatenated breakpoints, then one ``fsum``
    over each member's slice; the trapezoid joining two members is not summed.
    """
    pts = [f.points for f in family if f.family == "pwl"]
    if pts:
        x, y = _joined(pts).T
        dx, y0, y1 = x[1:] - x[:-1], y[:-1], y[1:]
        with np.errstate(over="ignore"):
            terms = dx * (y0 + y1) / 2.0
        over = np.isinf(terms)
        if over.any():
            terms[over] = dx[over] * (y0[over] / 2.0 + y1[over] / 2.0)
        sums = memoryview(terms)
    out, start = [], 0
    for f in family:
        if f.family == "pwl":
            n = len(f.points)  # type: ignore[arg-type]
            out.append(math.fsum(sums[start:start + n - 1]))
            start += n
        elif f.family == "constant":
            out.append(f.value)
        else:
            assert f.coefficients is not None
            out.append(f.coefficients[0])
    return out


def check_promise(f: FunctionSpec, p: Promise, grid_size: int) -> bool:
    """True iff ``f`` satisfies the promise ``p``.

    For pwl and constant functions the Lipschitz check is exact (segment
    slopes compared in multiplication form ``|dy| <= L*dx``, no division) and
    the range check inspects breakpoints, where piecewise-linear extremes
    live — both independent of ``grid_size``. For trig functions both are
    array tests on a uniform grid of ``max(grid_size, 4096)`` values; the
    Lipschitz test allows the slack factor 1.01, as grid difference quotients
    only underestimate the true constant. The cost, grid points times
    coefficients, past the size budget raises :class:`CapacityError` first.
    """
    grid_size = _int(grid_size, "grid_size must be an int >= 2", 2)
    L = p.lipschitz_bound
    if f.family == "constant":
        return p.range_lo <= f.value <= p.range_hi  # type: ignore[operator]
    if f.family == "pwl":
        x, y = f.points.T  # type: ignore[union-attr]
        if (np.abs(y[1:] - y[:-1]) > L * (x[1:] - x[:-1])).any():
            return False
        return bool(((p.range_lo <= y) & (y <= p.range_hi)).all())
    n = max(grid_size, _TRIG_MIN_GRID)
    _budget("trig promise grid times coefficients", 0, n * len(f.coefficients or ()))
    xs = np.arange(n) / (n - 1)
    vals = _eval_grid((f,), xs)[0]
    if not ((p.range_lo <= vals) & (vals <= p.range_hi)).all():
        return False
    return not (np.abs(np.diff(vals)) > L * _GRID_SLACK * np.diff(xs)).any()


def negate(f: FunctionSpec) -> FunctionSpec:
    """The function ``-f``, with the promise's range mirrored."""
    promise = f.promise
    if promise is not None:
        promise = Promise(promise.lipschitz_bound, -promise.range_hi, -promise.range_lo)
    if f.family == "constant":
        return constant(-f.value, promise)  # type: ignore[operator]
    if f.family == "pwl":
        return pwl(f.points * (1.0, -1.0), promise)
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
        doc["points"] = f.points.tolist()  # type: ignore[union-attr]
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
