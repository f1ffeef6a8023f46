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

from .exceptions import CapacityError, PremiseViolationError, ValidationError, _ints, _real, _reals
from .functions import FunctionSpec, exact_integral
from .information import m_eps, query_complexity
from .simulator import AlgorithmSpec, OutcomeDistribution, _distributions

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

#: Largest outcome count for the brute-force subset search.
_SETFORM_CAP = 16

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
    included distance.
    """
    truth = _real(truth, "truth must be finite")
    ranked = sorted(
        ((abs(truth - phi), j, p) for j, p, phi in dist.entries),
        key=lambda item: (item[0], item[1]),
    )
    mass = 0.0
    for dist_j, _, p in ranked:
        mass += p
        if mass >= MASS_THRESHOLD - MASS_TOL:
            return dist_j
    # unreachable: the distribution sums to 1 >= 3/4
    raise AssertionError("distribution mass below 3/4")


def local_error_setform(dist: OutcomeDistribution, truth: float) -> float:
    """Set form of the local error: brute force over all outcome subsets.

    ``min { max_{j in A} |truth - phi_j| : P(A) >= 3/4 }`` by exhaustive
    enumeration — the oracle for :func:`local_error`. Capacity-capped at
    16 outcomes (65536 subsets).
    """
    truth = _real(truth, "truth must be finite")
    M = len(dist.entries)
    if M > _SETFORM_CAP:
        raise CapacityError(
            f"set form enumerates 2^M subsets; M={M} exceeds {_SETFORM_CAP}"
            " (use local_error instead)"
        )
    p = np.array([e[1] for e in dist.entries])
    d = np.array([abs(truth - e[2]) for e in dist.entries])
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
    """
    family = list(family)
    if not family:
        raise ValidationError("the function family must be nonempty")
    if truths is None:
        truths = [exact_integral(f) for f in family]
    truths = _reals(truths, "truths")
    if len(truths) != len(family):
        raise ValidationError(
            f"{len(truths)} truths for a family of {len(family)} functions"
        )
    dists = _distributions(a, family)  # the circuit compiles once for the whole family
    return max(0.0, *(local_error(d, truth) for d, truth in zip(dists, truths)))


def _sorted_entries(dist: OutcomeDistribution) -> list[tuple[float, float, int]]:
    """Entries as (phi, p, j), sorted by phi then j."""
    return sorted(((phi, p, j) for j, p, phi in dist.entries), key=lambda e: (e[0], e[2]))


def best_cluster(dist: OutcomeDistribution, eps: float) -> OutcomeCluster:
    """Heaviest cluster of decoded-value width <= 2*eps and mass >= 3/4.

    Slides a window over outcomes sorted by decoded value; among qualifying
    windows the maximal mass wins, ties going to the leftmost. Raises
    :class:`PremiseViolationError` when no window qualifies — the generating
    algorithm did not meet accuracy ``eps``.
    """
    eps = _real(eps, "eps must be finite and > 0", above=0.0)
    entries = _sorted_entries(dist)
    width = 2.0 * eps + _WIDTH_TOL
    best: tuple[float, int, int] | None = None  # (mass, left, right)
    mass = 0.0
    left = 0
    for right, (phi_r, p_r, _) in enumerate(entries):
        mass += p_r
        while phi_r - entries[left][0] > width:
            mass -= entries[left][1]
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
    members = tuple(entries[i][2] for i in range(left, right + 1))
    mass = math.fsum(entries[i][1] for i in range(left, right + 1))
    return OutcomeCluster(members=members, mass=mass)


def extract(dist: OutcomeDistribution, eps: float) -> float:
    """Deterministic value within ``3*eps`` of the truth, given local error <= eps.

    Returns the decoded value of the best cluster's highest-probability
    member (ties: smallest decoded value). Deterministic: identical inputs
    yield bitwise-identical outputs.
    """
    cluster = best_cluster(dist, eps)
    by_j = {j: (p, phi) for j, p, phi in dist.entries}
    best_phi: float | None = None
    best_p = -1.0
    for j in cluster.members:
        p, phi = by_j[j]
        if p > best_p or (p == best_p and (best_phi is None or phi < best_phi)):
            best_p = p
            best_phi = phi
    assert best_phi is not None
    return best_phi


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
