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

* a real is any value that ``float()`` converts to a finite float;
* an integer is any value ``v`` with ``int(v) == v``: ``16`` and ``16.0``
  pass, while ``0.9``, ``"1"``, ``inf`` and ``nan`` fail, so no qubit index
  or register size is silently truncated;
* a value that breaks either rule raises :class:`ValidationError`, never a
  bare ``TypeError``, ``ValueError`` or ``OverflowError``.
"""

from __future__ import annotations

import math
import reprlib
from typing import Any

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
    """A resource cap would be exceeded (qubits, subset size, ``m(eps)`` past 2^53)."""


#: What a failed conversion raises: ``float("a")``, ``float(None)``,
#: ``float(10**400)``, ``int(math.inf)``. ``serialize.reading`` reuses it.
_CONVERSION_ERRORS = (TypeError, ValueError, OverflowError)


def _real(value: Any, message: str, *, above: float = -math.inf,
          at_least: float = -math.inf) -> float:
    """``value`` as a finite float ``> above`` and ``>= at_least``, else ``{message}, got ...``."""
    try:
        v = float(value)
    except _CONVERSION_ERRORS:
        v = math.nan
    if math.isfinite(v) and v > above and v >= at_least:
        return v
    raise ValidationError(f"{message}, got {reprlib.repr(value)}")


def _int(value: Any, message: str, at_least: int) -> int:
    """``value`` as an int ``>= at_least`` if ``int(value) == value``, else as :func:`_real`."""
    try:
        v = int(value)
    except _CONVERSION_ERRORS:
        v = None
    if v is not None and v == value and v >= at_least:
        return v
    raise ValidationError(f"{message}, got {reprlib.repr(value)}")


def _reals(values: Any, what: str) -> tuple[float, ...]:
    """``values`` as a tuple of finite floats, converted in one pass."""
    try:
        out = tuple(map(float, values))
    except _CONVERSION_ERRORS as exc:
        raise ValidationError(f"{what} must be real numbers: {exc}") from exc
    if not all(map(math.isfinite, out)):
        bad = next(v for v in out if not math.isfinite(v))
        raise ValidationError(f"{what} must be finite, got {bad!r}")
    return out


def _ints(values: Any, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints, each with ``int(v) == v``, converted in one pass."""
    try:
        raw = tuple(values)
        out = tuple(map(int, raw))
    except _CONVERSION_ERRORS as exc:
        raise ValidationError(f"{what} must be integers: {exc}") from exc
    if out != raw:
        bad = next(v for v, i in zip(raw, out) if i != v)
        raise ValidationError(f"{what} must be integers: got {reprlib.repr(bad)}")
    return out
