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
"""

from __future__ import annotations

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
