"""Error functionals, outcome extraction, and the qubit lower bound.

The *local error* of an outcome distribution against the true value ``S(f)``
is the smallest ``alpha`` such that outcomes within ``alpha`` of the truth
carry probability at least 3/4; the *worst probabilistic error* is its
maximum over a function family. Equivalently (set form), it is the minimum
over outcome subsets of mass >= 3/4 of the largest distance to the truth —
the greedy prefix over outcomes sorted by distance realizes that minimum.

The constructive step behind the qubit bound: if an algorithm has local
error <= eps, the closed eps-ball around the truth carries mass >= 3/4 and
has diameter <= 2*eps, so a sorted sliding window of width 2*eps over the
decoded values must find a cluster of mass >= 3/4. Returning any member of
the best such cluster lands within 3*eps of the truth (one window width plus
eps by the triangle inequality, since the window must intersect the
eps-ball). A deterministic classical algorithm extracted this way needs
worst-case error <= 3*eps, hence at least ``m(3*eps)`` function evaluations;
one query evaluates at most ``2^{m'} <= 2^{nu - m''} < 2^nu`` grid points, so

    nu  >=  log2(comp_query(3*eps))  -  1.

``verify_bound`` checks all of this on a concrete circuit and family: the
accuracy premise, the bound itself, and the factor-2 accounting
``2 * n(eps) >= m(3*eps)``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, Sequence

import numpy as np

from .exceptions import (
    MAX_QUBITS, CapacityError, PremiseViolationError, ValidationError, _finite, _ints,
    _past_budget, _real, _reals,
)
from .functions import FunctionSpec, _integrals
from .information import m_eps, query_complexity
from .simulator import AlgorithmSpec, OutcomeDistribution, _hits, measure, run

__all__ = [
    "MASS_THRESHOLD",
    "MASS_TOL",
    "OutcomeCluster",
    "BoundReport",
    "local_error",
    "local_error_setform",
    "worst_prob_error",
    "best_cluster",
    "extract",
    "qubit_lower_bound",
    "verify_bound",
    "report_to_json",
]

#: Success probability demanded of a quantum algorithm's outcome mass.
MASS_THRESHOLD = 0.75

#: Additive tolerance on probability-mass comparisons (absorbs float
#: accumulation in exactly-computed distributions).
MASS_TOL = 1e-12

#: Most outcomes the set form takes: the largest ``M`` whose ``2^M x M`` mask
#: table fits the size budget (16, as ``16 * 2^16 = 2^20``).
_SETFORM_MAX = max(M for M in range(MAX_QUBITS + 1) if not _past_budget(M, M))

#: Additive tolerance on the 2*eps window width (one-ulp asymmetry of
#: |a - truth| <= eps and |b - truth| <= eps versus a - b <= 2*eps).
_WIDTH_TOL = 1e-12


@dataclass(frozen=True)
class OutcomeCluster:
    """A set of outcome indices whose decoded values lie within one window."""

    members: tuple[int, ...]
    mass: float

    def __post_init__(self) -> None:
        members = _ints(self.members, "cluster members")
        if not members:
            raise ValidationError("a cluster needs at least one member")
        if len(set(members)) != len(members):
            raise ValidationError(f"duplicate cluster members: {members}")
        mass = _real(self.mass, "cluster mass must be finite and >= 0", at_least=0.0)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "mass", mass)


def local_error(dist: OutcomeDistribution, truth: float) -> float:
    """Smallest ``alpha`` with ``P(|truth - phi| <= alpha) >= 3/4``.

    Greedy: sort outcomes by distance to the truth (ties by outcome index),
    accumulate probability until the threshold is reached, return the last
    included distance. ``add.accumulate`` adds in order, so every partial
    mass is bitwise the running sum of a scalar loop.
    """
    truth = _real(truth, "truth must be finite")
    d = np.abs(truth - dist.phi)
    order = np.lexsort((dist.j, d))
    reached = np.add.accumulate(dist.p[order]) >= MASS_THRESHOLD - MASS_TOL
    k = int(np.argmax(reached))
    if not reached[k]:  # unreachable: the distribution sums to 1 >= 3/4
        raise AssertionError("distribution mass below 3/4")
    return float(d[order[k]])


def local_error_setform(dist: OutcomeDistribution, truth: float) -> float:
    """Set form of the local error: brute force over all outcome subsets.

    ``min { max_{j in A} |truth - phi_j| : P(A) >= 3/4 }`` by exhaustive
    enumeration — the oracle for :func:`local_error`. Its ``2^M x M`` mask
    table meets the size budget at ``M = 16`` (``16 * 2^16 = 2^20`` entries);
    more outcomes raise :class:`CapacityError`.
    """
    truth = _real(truth, "truth must be finite")
    M = len(dist.j)
    if _past_budget(M, M):
        raise CapacityError(
            f"set form enumerates 2^M subsets; M={M} exceeds {_SETFORM_MAX}"
            " (use local_error instead)"
        )
    p = dist.p
    d = np.abs(truth - dist.phi)
    masks = (np.arange(1 << M)[:, None] >> np.arange(M)[None, :]) & 1
    mass = masks @ p
    worst = np.max(np.where(masks.astype(bool), d[None, :], -np.inf), axis=1)
    ok = mass >= MASS_THRESHOLD - MASS_TOL
    ok &= np.isfinite(worst)  # excludes the empty set
    return float(np.min(worst[ok]))


def worst_prob_error(
    a: AlgorithmSpec,
    family: Sequence[FunctionSpec],
    truths: Sequence[float] | None = None,
) -> float:
    """Max local error of algorithm ``a`` over an explicit finite family.

    A computable surrogate for the supremum over the whole promise class;
    ``truths`` defaults to the exact integrals of the family members.

    Bitwise :func:`local_error` member by member. The truths, and a label
    circuit's codes, are one pass over the family. A label circuit's outcome
    on a member is one point, its hit, so the member's local error is the
    distance from its truth to the hit's decoded value: on a one-hot row the
    greedy mass first reaches 3/4 at the hit. A dense circuit is run and
    scored one member at a time.
    """
    family = list(family)
    if not family:
        raise ValidationError("the function family must be nonempty")
    if truths is None:
        truths = _integrals(family)
    truths = _reals(truths, "truths")
    if len(truths) != len(family):
        raise ValidationError(
            f"{len(truths)} truths for a family of {len(family)} functions"
        )
    prog = a._program  # checks the qubit cap before the compile
    if prog.layers is None:  # one dense state alive at a time
        return max(0.0, *(local_error(measure(run(a, f), a), t) for f, t in zip(family, truths)))
    hits = _hits(a, family)
    _finite(prog.phi, "decoded values")
    return max(0.0, *np.abs(np.array(truths) - prog.phi[hits]).tolist())


def _window(dist: OutcomeDistribution, eps: float) -> np.ndarray:
    """Rows of the heaviest qualifying window, in order of decoded value then ``j``."""
    eps = _real(eps, "eps must be finite and > 0", above=0.0)
    order = np.lexsort((dist.j, dist.phi))
    phis, ps = dist.phi[order].tolist(), dist.p[order].tolist()
    width = 2.0 * eps + _WIDTH_TOL
    best: tuple[float, int, int] | None = None  # (mass, left, right)
    mass = 0.0
    left = 0
    for right, (phi_r, p_r) in enumerate(zip(phis, ps)):
        mass += p_r
        while phi_r - phis[left] > width:
            mass -= ps[left]
            left += 1
        if mass >= MASS_THRESHOLD - MASS_TOL:
            if best is None or mass > best[0] + MASS_TOL:
                best = (mass, left, right)
    if best is None:
        raise PremiseViolationError(
            f"no outcome cluster of width {2 * eps} carries mass >= 3/4; "
            "the algorithm does not meet accuracy eps"
        )
    _, left, right = best
    return order[left:right + 1]


def best_cluster(dist: OutcomeDistribution, eps: float) -> OutcomeCluster:
    """Heaviest cluster of decoded-value width <= 2*eps and mass >= 3/4.

    Slides a window over outcomes sorted by decoded value; among qualifying
    windows the maximal mass wins, ties going to the leftmost. Raises
    :class:`PremiseViolationError` when no window qualifies — the generating
    algorithm did not meet accuracy ``eps``.
    """
    rows = _window(dist, eps)
    return OutcomeCluster(members=tuple(dist.j[rows].tolist()),
                          mass=math.fsum(memoryview(dist.p[rows])))


def extract(dist: OutcomeDistribution, eps: float) -> float:
    """Deterministic value within ``3*eps`` of the truth, given local error <= eps.

    Returns the decoded value of the best cluster's highest-probability
    member (ties: smallest decoded value). Deterministic: identical inputs
    yield bitwise-identical outputs.
    """
    rows = _window(dist, eps)  # sorted by decoded value, so argmax's first maximum breaks ties
    return float(dist.phi[rows[np.argmax(dist.p[rows])]])


def qubit_lower_bound(L: float, eps: float, c: float = 1.0) -> float:
    """``log2(query_complexity(L, 3*eps, c)) - 1`` — the qubit lower bound."""
    eps = _real(eps, "eps must be finite and > 0", above=0.0)
    return math.log2(query_complexity(L, 3.0 * eps, c)) - 1.0


@dataclass(frozen=True)
class BoundReport:
    """Outcome of checking the qubit lower bound on a concrete instance."""

    nu: int
    n_eps: int
    classical_evals: int
    rhs: float
    satisfied: bool
    status: str
    achieved_error: float
    eps: float
    L: float
    c: float
    evals_available: int
    evals_needed: int
    evals_ok: bool

    def __post_init__(self) -> None:
        if self.status not in ("ok", "not-applicable"):
            raise ValidationError(f"unknown report status {self.status!r}")


#: Tolerance on the ``nu >= rhs`` comparison.
_BOUND_TOL = 1e-12


def verify_bound(
    a: AlgorithmSpec,
    family: Sequence[FunctionSpec],
    L: float,
    eps: float,
    c: float = 1.0,
    truths: Sequence[float] | None = None,
) -> BoundReport:
    """Check ``nu >= log2(comp_query(3*eps)) - 1`` for a circuit and family.

    The premise — worst probabilistic error over the family at most ``eps`` —
    is verified by running the circuit on every member; when it fails the
    report carries status ``not-applicable`` (the bound says nothing about
    an algorithm that is not ``eps``-accurate, which is different from the
    bound being violated). ``classical_evals`` reports the cap on classical
    evaluations (the grid size ``n(eps)``), and the factor-2 accounting
    ``2 * n(eps) >= m(3*eps)`` is checked alongside.
    """
    rhs = qubit_lower_bound(L, eps, c)  # checks L, eps and c before any circuit runs
    eps, L, c = float(eps), float(L), float(c)
    if a.query is None:
        raise ValidationError("verify_bound needs an algorithm with a query spec")
    evals_needed = m_eps(L, 3.0 * eps)
    achieved = worst_prob_error(a, family, truths)
    status = "ok" if achieved <= eps + MASS_TOL else "not-applicable"
    n_eps = a.query.grid_points
    return BoundReport(
        nu=a.nu,
        n_eps=n_eps,
        classical_evals=n_eps,
        rhs=rhs,
        satisfied=a.nu >= rhs - _BOUND_TOL,
        status=status,
        achieved_error=achieved,
        eps=eps,
        L=L,
        c=c,
        evals_available=2 * n_eps,
        evals_needed=evals_needed,
        evals_ok=2 * n_eps >= evals_needed,
    )


def report_to_json(r: BoundReport) -> dict[str, Any]:
    """JSON mirror of a bound report (keys in field order)."""
    return asdict(r)
