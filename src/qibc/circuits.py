"""Built-in example algorithms expressed in the layers-and-queries form.

Two constructions exercise the query model end to end:

``build_reversible_midpoint``
    A fully classical-reversible circuit that visits every grid point in
    sequence — X-prepare the index register, query, add the value register
    into an accumulator with multi-controlled ripple increments (native
    ``mcx`` gates), query again to uncompute — and measures the accumulator.
    Every gate and query is an exact permutation of basis states, so the
    result is a point mass of probability exactly 1 whose decoded value is
    the discretized composite midpoint estimate
    ``2^{-m'} * sum_j (lo + span * beta_j / 2^{m''})``. Registers: index
    ``m'`` | value ``m''`` | accumulator ``m' + m''`` (wide enough that the
    sum of ``2^{m'}`` codes below ``2^{m''}`` can never overflow), so
    ``nu = 2 (m' + m'')`` and the query count is ``T = 2^{m'+1}``.

``build_ae_mean``
    Amplitude estimation: phase estimation over the Grover iterate
    ``G = D * S_f`` with a 1-bit (threshold) oracle, estimating the fraction
    ``a`` of grid points whose value bit is 1. A controlled ``S_f`` costs two
    *uncontrolled* queries (query, controlled-Z between readout and value
    qubit, query); the controlled diffusion is the H/X/phase(pi) sandwich.
    Readout qubit ``k`` controls ``G^{2^k}``; after an inverse Fourier
    transform the measured integer ``j`` decodes to ``sin^2(pi j / 2^t)``.
    Registers: index ``m'`` | value 1 | readout ``t``, so ``nu = m' + 1 + t``
    and ``T = 2 (2^t - 1)``.

``build_bound_fixture`` bundles a midpoint circuit with a finite function
family (the fooling pair on the circuit's own grid plus exactly-representable
constants) whose worst error is a known dyadic below ``eps`` — the standard
input for the qubit lower-bound checker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .adversary import fooling_pair
from .exceptions import _int
from .functions import FunctionSpec, constant, exact_integral
from .information import m_eps, optimal_design
from .simulator import (
    AffineDecode,
    AlgorithmSpec,
    GateOp,
    OutcomeDistribution,
    QuerySpec,
    Sin2Decode,
    distribution,
)

__all__ = [
    "qft_gates",
    "inverse_qft_gates",
    "mcx_gates",
    "midpoint_algorithm",
    "build_reversible_midpoint",
    "build_ae_mean",
    "BoundFixture",
    "build_bound_fixture",
]


def qft_gates(qubits: tuple[int, ...]) -> tuple[GateOp, ...]:
    """Quantum Fourier transform on the listed qubits (most significant first).

    Maps ``|x>`` to ``2^{-t/2} sum_y e^{2 pi i x y / 2^t} |y>`` where ``x`` and
    ``y`` are read MSB-first off the list.
    """
    qs = tuple(qubits)
    t = len(qs)
    out: list[GateOp] = []
    for i in range(t):
        out.append(GateOp("H", (qs[i],)))
        for j in range(i + 1, t):
            out.append(
                GateOp("cphase", (qs[j], qs[i]), theta=2.0 * math.pi / (1 << (j - i + 1)))
            )
    for i in range(t // 2):
        out.append(GateOp("swap", (qs[i], qs[t - 1 - i])))
    return tuple(out)


def inverse_qft_gates(qubits: tuple[int, ...]) -> tuple[GateOp, ...]:
    """Inverse of :func:`qft_gates` (reversed order, negated angles)."""
    out: list[GateOp] = []
    for g in reversed(qft_gates(qubits)):
        if g.gate == "cphase":
            out.append(GateOp("cphase", g.targets, theta=-g.theta))  # type: ignore[operator]
        else:
            out.append(g)
    return tuple(out)


def mcx_gates(controls: tuple[int, ...], target: int) -> tuple[GateOp, ...]:
    """Multi-controlled X: flip ``target`` when every control is 1.

    One native ``mcx`` gate (controls first, target last), which the simulator
    applies as an exact exchange of the two blocks whose controls all read 1;
    plain X when there are no controls.
    """
    if not controls:
        return (GateOp("X", (target,)),)
    return (GateOp("mcx", tuple(controls) + (target,)),)


def _controlled_add_value(m_prime: int, m_double_prime: int) -> tuple[GateOp, ...]:
    """Gates adding the value register into the accumulator in place.

    Accumulator bit of weight ``2^k`` flips when value bit ``2^i`` is set and
    all accumulator bits of weights ``2^i .. 2^{k-1}`` are 1 — applied from
    the most significant accumulator bit downward so every control reads the
    pre-addition carry chain.
    """
    w = m_prime + m_double_prime
    val = tuple(range(m_prime, m_prime + m_double_prime))  # val[0] is its MSB
    acc = tuple(range(w, 2 * w))  # acc[0] is its MSB
    out: list[GateOp] = []
    for i in range(m_double_prime):  # value bit of weight 2^i
        vq = val[m_double_prime - 1 - i]
        for k in range(w - 1, i - 1, -1):  # accumulator bit of weight 2^k
            controls = (vq,) + tuple(acc[w - 1 - kk] for kk in range(i, k))
            out.extend(mcx_gates(controls, acc[w - 1 - k]))
    return tuple(out)


def midpoint_algorithm(
    m_prime: int,
    m_double_prime: int,
    range_lo: float,
    range_hi: float,
) -> AlgorithmSpec:
    """The composite-midpoint circuit itself, without simulating it.

    Construction is cheap for any register sizes; only *running* a circuit is
    subject to the qubit cap.
    """
    query = QuerySpec(
        m_prime=m_prime,
        m_double_prime=m_double_prime,
        range_lo=range_lo,
        range_hi=range_hi,
    )
    m_prime, m_double_prime = query.m_prime, query.m_double_prime
    w = m_prime + m_double_prime
    adder = _controlled_add_value(m_prime, m_double_prime)
    layers: list[list[GateOp]] = [[]]  # a query runs between each layer and the next
    prev = 0
    for j in range(query.grid_points):
        flips = prev ^ j
        layers[-1] += [
            GateOp("X", (q,)) for q in range(m_prime) if (flips >> (m_prime - 1 - q)) & 1
        ]
        prev = j
        layers += [list(adder), []]
    return AlgorithmSpec(
        nu=2 * w,
        query=query,
        layers=layers,
        measure=tuple(range(w, 2 * w)),
        decode=AffineDecode(
            scale=(query.range_hi - query.range_lo) / (1 << w), offset=query.range_lo
        ),
    )


def build_reversible_midpoint(
    m_prime: int,
    m_double_prime: int,
    f: FunctionSpec,
    range_lo: float,
    range_hi: float,
) -> tuple[AlgorithmSpec, OutcomeDistribution]:
    """Deterministic composite-midpoint circuit and its (point-mass) outcome.

    The decoded estimate is ``lo + span * (sum_j beta_j) / 2^{m'+m''}``, i.e.
    the mean of the per-point decoded codes.
    """
    alg = midpoint_algorithm(m_prime, m_double_prime, range_lo, range_hi)
    return alg, distribution(alg, f)


def build_ae_mean(
    m_prime: int,
    t: int,
    range_lo: float,
    range_hi: float,
) -> AlgorithmSpec:
    """Amplitude-estimation circuit for the mean of the 1-bit discretized f.

    With ``a`` the fraction of the ``2^{m'}`` grid points whose value bit is
    1, outcome ``j`` concentrates near ``sin^2(pi j / 2^t) ~ a``; ``t``
    readout qubits give phase granularity ``2^{-t}``. Like
    :func:`midpoint_algorithm` it only builds the circuit; running it is
    subject to the qubit cap.
    """
    t = _int(t, "readout size t must be a positive int", 1)
    query = QuerySpec(
        m_prime=m_prime,
        m_double_prime=1,
        range_lo=range_lo,
        range_hi=range_hi,
    )
    m_prime = query.m_prime
    index = tuple(range(m_prime))
    value = m_prime
    readout = tuple(range(m_prime + 1, m_prime + 1 + t))

    layers: list[list[GateOp]] = [[GateOp("H", (q,)) for q in index + readout]]
    for k, r in enumerate(readout):
        for _ in range(1 << k):
            # controlled sign flip of marked grid points: Q, cZ(r, value), Q
            layers.append([GateOp("cphase", (r, value), theta=math.pi)])
            # controlled diffusion about the uniform index state
            layers.append(
                [GateOp("H", (q,)) for q in index]
                + [GateOp("X", (q,)) for q in index]
                + [GateOp("cphase", (r,) + index, theta=math.pi)]
                + [GateOp("X", (q,)) for q in index]
                + [GateOp("H", (q,)) for q in index]
                + [GateOp("phase", (r,), theta=math.pi)]
            )
    layers[-1] += inverse_qft_gates(tuple(reversed(readout)))
    return AlgorithmSpec(
        nu=m_prime + 1 + t,
        query=query,
        layers=layers,
        measure=tuple(reversed(readout)),
        decode=Sin2Decode(),
    )


@dataclass(frozen=True)
class BoundFixture:
    """A midpoint circuit plus a finite family meeting accuracy ``eps``."""

    algorithm: AlgorithmSpec
    family: tuple[FunctionSpec, ...]
    truths: tuple[float, ...]
    eps: float
    L: float


def build_bound_fixture(eps: float, L: float = 1.0) -> BoundFixture:
    """Bundle a midpoint circuit achieving accuracy ``eps`` with its family.

    The grid has ``2^{m'} >= m_eps(L, eps)`` points so the fooling pair on
    that very grid errs by exactly ``L / 2^{m'+2} <= eps``; the constants in
    the family quantize exactly (range is the symmetric [-1, 1], so code
    ``2^{m''-1}`` decodes to 0, and 1/4 is exact once ``m'' >= 3``). Nothing
    is simulated here — the checker runs the circuit itself.
    """
    n_req = m_eps(L, eps)
    m_prime = max(1, (n_req - 1).bit_length())
    m_double_prime = max(1, min(4, 8 - m_prime))
    alg = midpoint_algorithm(m_prime, m_double_prime, -1.0, 1.0)
    pair = fooling_pair(optimal_design(1 << m_prime), L)
    family: list[FunctionSpec] = [pair.f_plus, pair.f_minus, constant(0.0)]
    if m_double_prime >= 3:
        family.append(constant(0.25))
    truths = tuple(exact_integral(g) for g in family)
    return BoundFixture(
        algorithm=alg, family=tuple(family), truths=truths, eps=float(eps), L=float(L)
    )
