"""Exception taxonomy.

Every error the library raises deliberately derives from :class:`QibcError`,
and the three leaf categories map 1:1 onto CLI exit codes:

==========================  =========
exception                   exit code
==========================  =========
ValidationError (and subs)  2
PremiseViolationError       3
CapacityError               4
==========================  =========

Every number the library takes in (``L``, ``eps``, data, register sizes,
``nu``, qubit indices) goes through the private helpers at the end of this
module, so one rule decides what a valid number is and which error a bad one
raises:

* a real is any value that ``float()`` converts to a finite float, and not
  a numpy complex (``float()`` drops its imaginary part);
* an integer is any value ``v`` with ``int(v) == v``, and not a numpy
  complex: ``16`` and ``16.0`` pass, while ``0.9``, ``"1"``, ``inf`` and
  ``nan`` fail, so no qubit index or register size is silently truncated;
* a value that breaks either rule raises :class:`ValidationError`, never a
  bare ``TypeError``, ``ValueError`` or ``OverflowError``.

A vector of reals (design points, data values, quadrature weights) is taken
by :func:`_real_array`, under the same rule and messages as :func:`_reals`,
into a read-only float64 array. Every array a library value holds is made
read-only by :func:`_frozen`.

Every count an input sets (amplitudes, grid points, gates, design points, the
entries of the exhaustive error form) meets one size budget, ``2^MAX_QUBITS``
items, the count a dense ``MAX_QUBITS``-qubit state holds. :func:`_budget`
checks it before anything of that size is allocated or looped over, and a
count past it raises :class:`CapacityError`. Where a count is a power of two
the exponent is compared, so a valid integer such as ``10**400`` is refused
without building ``2^(10**400)``.
"""

from __future__ import annotations

import math
import reprlib
from typing import Any

import numpy as np

__all__ = [
    "QibcError",
    "ValidationError",
    "DomainError",
    "InfeasibleDataError",
    "PremiseViolationError",
    "CapacityError",
]


class QibcError(Exception):
    """Base class for all library errors."""


class ValidationError(QibcError, ValueError):
    """Malformed or inconsistent input (bad spec, bad config, bad file)."""


class DomainError(ValidationError):
    """Evaluation point outside the function domain [0, 1]."""


class InfeasibleDataError(ValidationError):
    """Observed data not consistent with any Lipschitz-L function."""


class PremiseViolationError(QibcError):
    """A precondition of the bound does not hold for the given inputs.

    Raised e.g. when no outcome cluster of width 2*eps carries mass >= 3/4,
    i.e. the generating algorithm did not meet accuracy eps.
    """


class CapacityError(QibcError):
    """A count is past the size budget of ``2^MAX_QUBITS`` items, or ``m(eps)`` past 2^53.

    The budget bounds the qubits of a simulated circuit, the registers of a
    query, the gates a circuit builder emits, design points, trig promise grid
    points times coefficients, and the outcomes of the exhaustive error form.
    """


#: Widest register any circuit may have, and with it the one size budget:
#: ``2^MAX_QUBITS`` items, the amplitudes of a dense ``MAX_QUBITS``-qubit state.
MAX_QUBITS = 20


def _past_budget(log2: int, count: int = 1) -> bool:
    """Whether ``count * 2^log2`` items are past the size budget; ``log2`` is compared first."""
    return log2 > MAX_QUBITS or count << log2 > 1 << MAX_QUBITS


def _budget(what: str, log2: int, count: int = 1) -> None:
    """Raise :class:`CapacityError` if ``count * 2^log2`` items are past the size budget.

    The message names ``what``, never the count, whose decimal form may be too
    long to print.
    """
    if _past_budget(log2, count):
        raise CapacityError(f"{what} exceeds the size budget of 2^{MAX_QUBITS} items")


def _shown(value: Any) -> str:
    """``reprlib.repr(value)``, or a placeholder where that raises.

    ``repr`` refuses an int past the decimal digit limit (4300 digits by
    default), and so a container holding one.
    """
    try:
        return reprlib.repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


#: What a failed conversion raises: ``float("a")``, ``float(None)``,
#: ``float(10**400)``, ``int(math.inf)``. ``serialize.reading`` reuses it.
_CONVERSION_ERRORS = (TypeError, ValueError, OverflowError)


def _real(value: Any, message: str, *, above: float = -math.inf,
          at_least: float = -math.inf) -> float:
    """``value`` as a finite float ``> above`` and ``>= at_least``, else ``{message}, got ...``."""
    try:
        v = _float(value)
    except _CONVERSION_ERRORS:
        v = math.nan
    if math.isfinite(v) and v > above and v >= at_least:
        return v
    raise ValidationError(f"{message}, got {_shown(value)}")


def _int(value: Any, message: str, at_least: int) -> int:
    """``value`` as an int ``>= at_least`` if ``int(value) == value``, else as :func:`_real`."""
    try:
        v = _integer(value)
    except _CONVERSION_ERRORS:
        v = None
    if v is not None and v == value and v >= at_least:
        return v
    raise ValidationError(f"{message}, got {_shown(value)}")


#: What ``float`` or ``int`` of a Python complex raises, said of a numpy complex too.
_NOT_REAL = "{}() argument must be a string or a real number, not {!r}"


def _float(value: Any) -> float:
    """``float(value)``, refusing a numpy complex as ``float`` refuses a Python one."""
    if isinstance(value, np.complexfloating):
        raise TypeError(_NOT_REAL.format("float", type(value).__name__))
    return float(value)


def _integer(value: Any) -> int:
    """``int(value)``, refusing a numpy complex as ``int`` refuses a Python one."""
    if isinstance(value, np.complexfloating):
        raise TypeError(_NOT_REAL.format("int", type(value).__name__))
    return int(value)


def _listed(values: Any) -> list[Any]:
    """``values`` as a list, with :func:`_float`'s ``TypeError`` at a numpy complex or its array.

    The distinct value types are tested first, so plain floats take one pass.
    """
    vals = list(values)
    if any(issubclass(t, (np.complexfloating, np.ndarray)) for t in set(map(type, vals))):
        for v in vals:
            if isinstance(v, (np.complexfloating, np.ndarray)) and v.dtype.kind == "c":
                raise TypeError(_NOT_REAL.format("float", type(v).__name__))
    return vals


def _reals(values: Any, what: str) -> tuple[float, ...]:
    """``values`` as a tuple of finite floats, converted in one pass."""
    try:
        out = tuple(map(float, _listed(values)))
    except _CONVERSION_ERRORS as exc:
        raise ValidationError(f"{what} must be real numbers: {exc}") from exc
    if not all(map(math.isfinite, out)):
        bad = next(v for v in out if not math.isfinite(v))
        raise ValidationError(f"{what} must be finite, got {bad!r}")
    return out


def _float_array(values: Any, what: str) -> np.ndarray:
    """``values`` as a 1-d float64 array, else ``{what} must be real numbers: ...``.

    A 1-d float64 array is returned as it is; anything else goes through
    ``float`` value by value, so every value and every error is the one
    ``float`` gives. A complex array, or a numpy complex among the values,
    is refused first (:func:`_listed`). Values are not checked for being
    finite.
    """
    if isinstance(values, np.ndarray):
        if values.ndim == 1 and values.dtype == np.float64:
            return values
        if values.dtype.kind == "c":
            raise ValidationError(f"{what} must be real numbers, got a {values.dtype} array")
    try:
        return np.fromiter(map(float, _listed(values)), dtype=float)
    except _CONVERSION_ERRORS as exc:
        raise ValidationError(f"{what} must be real numbers: {exc}") from exc


def _real_array(values: Any, what: str) -> np.ndarray:
    """``values`` as a fresh read-only float64 array of finite floats, else as :func:`_reals`.

    Converted by :func:`_float_array`, copied if that gave ``values`` itself,
    and frozen by :func:`_frozen`.
    """
    out = _float_array(values, what)
    if out is values:
        out = out.copy()
    _finite(out, what)
    return _frozen(out)


def _finite(a: np.ndarray, what: str) -> None:
    """Raise ``{what} must be finite, got ...``, naming the first value of ``a`` that is not."""
    finite = np.isfinite(a)
    if not finite.all():
        raise ValidationError(f"{what} must be finite, got {a[np.argmin(finite)].item()!r}")


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` as a read-only view whose memory owner is read-only too.

    An array that owns its memory is frozen in place and viewed, so no caller
    can make the view writeable again. A view that is writeable, or whose
    owner is, is copied first: freezing the owner would lock a buffer someone
    else may hold. An already-frozen view is returned unchanged. This is the
    one place the library clears ``writeable``.
    """
    base = a.base
    if base is None:
        a.flags.writeable = False
        return a.view()
    if a.flags.writeable or not isinstance(base, np.ndarray) or base.flags.writeable:
        return _frozen(a.copy())
    return a


def _ints(values: Any, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints, each with ``int(v) == v``, converted in one pass."""
    try:
        raw = tuple(values)
        out = tuple(map(_integer, raw))
    except _CONVERSION_ERRORS as exc:
        raise ValidationError(f"{what} must be integers: {exc}") from exc
    if out != raw:
        bad = next(v for v, i in zip(raw, out) if i != v)
        raise ValidationError(f"{what} must be integers: got {_shown(bad)}")
    return out
