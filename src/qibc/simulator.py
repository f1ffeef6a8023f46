"""Exact simulator of the unitary-with-queries model, dense or on one basis label.

An algorithm is a sequence ``U_T Q_f U_{T-1} Q_f ... U_1 Q_f U_0`` applied to
``|0...0>`` on ``nu`` qubits: ``T + 1`` unitary layers (each a list of gates,
applied in list order) interleaved with ``T`` identical *bit queries*

    Q_f |j>|k> = |j>|k XOR beta(f(tau(j)))>

where ``j`` lives in an ``m'``-qubit index register, ``k`` in an
``m''``-qubit value register, ``tau`` maps index ``j`` to a grid point in
[0, 1], and ``beta`` keeps the ``m''`` most significant bits of the function
value relative to the promised range:

    beta(y) = clamp(floor((y - lo) / (hi - lo) * 2^m''), 0, 2^m'' - 1).

Measuring a designated sub-register afterwards yields the exact outcome
distribution — probabilities are computed from amplitudes, never sampled —
and a decode map turns outcome integers into real values.

Conventions (fixed, documented, relied on throughout):

* qubit 0 is the most significant bit of a basis index;
* the index register is qubits ``[0, m')``, the value register
  ``[m', m'+m'')``, any further qubits are workspace;
* the measurement list is most-significant-first;
* ``tau`` defaults to midpoints ``(2j+1)/2^{m'+1}``, bitwise the same floats
  as the radius-optimal design on ``2^{m'}`` points; ``j/2^{m'}``
  (left-endpoint) is available for comparison;
* gates: X, swap and ``mcx`` permute amplitudes exactly, so a circuit built
  from them alone (the reversible midpoint integrator) maps ``|0...0>`` to a
  basis state with amplitude exactly 1; phase factors at exact multiples of
  pi/2 are snapped to ``+-1, +-i`` so circuits built from H/X/phase(pi)
  conjugations stay numerically clean.

Every gate kind, the bit query and the measurement address qubits one way:
the state reshaped to ``(2,)*nu``, indexed by basic slices into sub-block
views. ``run`` owns one buffer and each kernel writes into it in place;
``apply_gate`` and ``bit_query`` copy once and call the same kernels, so
states stay immutable at the API. A dense vector of ``2^nu`` amplitudes caps
``nu`` at 20 (1M amplitudes, 16 MiB).

``distribution(a, f)`` is the entry point from an algorithm to its outcome
distribution, and it takes one of two paths. When every gate is X, ``mcx``,
swap, phase or cphase (every midpoint circuit and bound fixture), the circuit
is a classical reversible computation: ``|0...0>`` stays one basis state times
a phase, which never changes an outcome probability, so the state is one int
label. Its layers are compiled once per algorithm into ``(control_mask,
flip_mask)`` pairs: X is ``(0, bit)``, ``mcx`` its controls and target, swap
three controlled flips, and phase and cphase drop out. A query XORs
``beta(f(tau(j)))`` into the value bits, and a function family (as in
``bounds.worst_prob_error``) shares one compile. Any other circuit runs on the
dense vector, ``measure(run(a, f), a)``, the label path's test oracle. Both
paths keep the 20-qubit cap and raise the same errors.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence, Union

import numpy as np

from .exceptions import (
    _CONVERSION_ERRORS, CapacityError, ValidationError, _int, _ints, _real, _reals,
)
from .functions import FunctionSpec, eval as feval
from .serialize import read_csv, reading, render_csv

__all__ = [
    "MAX_QUBITS",
    "NORM_TOL",
    "QState",
    "GateOp",
    "QuerySpec",
    "AffineDecode",
    "Sin2Decode",
    "Decode",
    "AlgorithmSpec",
    "OutcomeDistribution",
    "zero_state",
    "apply_gate",
    "bit_query",
    "beta_code",
    "tau_point",
    "query_table",
    "run",
    "measure",
    "distribution",
    "algorithm_to_json",
    "algorithm_from_json",
    "gate_to_json",
    "gate_from_json",
    "distribution_to_csv",
    "distribution_from_csv",
]

#: Cap on the register width of every simulated circuit (2^20 amplitudes dense).
MAX_QUBITS = 20

#: Tolerance on the squared norm of any state.
NORM_TOL = 1e-12

#: Tolerance on unitarity of explicit gate matrices.
_UNITARY_TOL = 1e-10

_GATE_KINDS = ("X", "mcx", "H", "phase", "cphase", "swap", "unitary")
#: Gate kinds that map a basis state to one basis state times a phase.
_LABEL_KINDS = frozenset(("X", "mcx", "swap", "phase", "cphase"))
_TAU_RULES = ("midpoint", "left-endpoint")

_H_MATRIX = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)


# --------------------------------------------------------------------------
# state


def _check_width(nu: Any) -> int:
    nu = _int(nu, "qubit count must be a positive int", 1)
    if nu > MAX_QUBITS:
        raise CapacityError(f"nu={nu} exceeds the {MAX_QUBITS}-qubit cap")
    return nu


@dataclass(frozen=True)
class QState:
    """A unit vector of ``2^nu`` complex amplitudes (a read-only copy of the input)."""

    nu: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "nu", _check_width(self.nu))
        self._seal(np.array(self.amplitudes, dtype=np.complex128))

    @classmethod
    def _owning(cls, nu: int, amps: np.ndarray) -> QState:
        """A state over ``amps``, a fresh complex128 buffer no one else holds; not copied."""
        _check_width(nu)
        s = object.__new__(cls)
        object.__setattr__(s, "nu", nu)
        s._seal(amps)
        return s

    def _seal(self, amps: np.ndarray) -> None:
        if amps.shape != (1 << self.nu,):
            raise ValidationError(
                f"amplitude vector has shape {amps.shape}, expected ({1 << self.nu},)"
            )
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if abs(norm2 - 1.0) > NORM_TOL:
            raise ValidationError(f"state norm^2 deviates from 1 by {abs(norm2 - 1.0):.3e}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


def zero_state(nu: int) -> QState:
    """The all-zeros computational basis state on ``nu`` qubits."""
    nu = _check_width(nu)
    amps = np.zeros(1 << nu, dtype=np.complex128)
    amps[0] = 1.0
    return QState._owning(nu, amps)


# --------------------------------------------------------------------------
# gates


def _as_matrix_tuple(matrix: Any) -> tuple[tuple[complex, ...], ...]:
    try:
        rows = tuple(tuple(map(complex, row)) for row in matrix)
    except _CONVERSION_ERRORS as exc:
        raise ValidationError(f"matrix entries must be complex numbers: {exc}") from exc
    n = len(rows)
    if n not in (2, 4) or any(len(r) != n for r in rows):
        raise ValidationError("explicit matrices must be 2x2 or 4x4")
    if not all(cmath.isfinite(v) for row in rows for v in row):
        raise ValidationError("matrix entries must be finite")
    return rows


@dataclass(frozen=True)
class GateOp:
    """One gate: kind, target qubits, optional angle or explicit matrix.

    ``phase`` multiplies by ``e^{i*theta}`` when its single target is 1;
    ``cphase`` does the same when *all* of its >= 2 targets are 1 (the gate is
    diagonal and symmetric, so there is no control/target distinction).
    ``mcx`` flips its *last* target when all of its other (>= 1) targets,
    the controls, are 1.
    """

    gate: str
    targets: tuple[int, ...]
    theta: float | None = None
    matrix: tuple[tuple[complex, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.gate not in _GATE_KINDS:
            raise ValidationError(
                f"unknown gate {self.gate!r}; expected one of {', '.join(_GATE_KINDS)}"
            )
        tg = _ints(self.targets, "gate targets")
        if len(set(tg)) != len(tg):
            raise ValidationError(f"duplicate targets in {tg}")
        if any(t < 0 for t in tg):
            raise ValidationError(f"negative qubit index in {tg}")
        object.__setattr__(self, "targets", tg)
        arity = {"X": (1, 1), "mcx": (2, 64), "H": (1, 1), "phase": (1, 1),
                 "swap": (2, 2), "cphase": (2, 64), "unitary": (1, 2)}[self.gate]
        if not arity[0] <= len(tg) <= arity[1]:
            raise ValidationError(f"{self.gate} gate on {len(tg)} targets")
        if self.gate in ("phase", "cphase"):
            theta = _real(self.theta, f"{self.gate} needs a finite theta")
            object.__setattr__(self, "theta", theta)
        elif self.theta is not None:
            raise ValidationError(f"{self.gate} takes no theta")
        if self.gate == "unitary":
            if self.matrix is None:
                raise ValidationError("unitary gate needs a matrix")
            rows = _as_matrix_tuple(self.matrix)
            if len(rows) != 1 << len(tg):
                raise ValidationError(
                    f"{len(rows)}x{len(rows)} matrix on {len(tg)} targets"
                )
            u = np.array(rows, dtype=np.complex128)
            dev = float(np.max(np.abs(u.conj().T @ u - np.eye(len(rows)))))
            if dev > _UNITARY_TOL:
                raise ValidationError(f"matrix not unitary (deviation {dev:.3e})")
            object.__setattr__(self, "matrix", rows)
        elif self.matrix is not None:
            raise ValidationError(f"{self.gate} takes no matrix")


def _phase_factor(theta: float) -> complex:
    """``e^{i*theta}``, exact at float multiples of pi/2 up to full turns."""
    k = theta / (math.pi / 2.0)
    if k == round(k) and abs(k) <= 4.0:
        return (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)[int(k) % 4]
    return cmath.exp(1j * theta)


def _block(psi: np.ndarray, targets: Sequence[int], bits: Sequence[int]) -> np.ndarray:
    """View of the amplitudes of ``psi`` (shape ``(2,)*nu``) whose targets read ``bits``."""
    index = [slice(None)] * psi.ndim
    for t, b in zip(targets, bits):
        index[t] = slice(b, b + 1)
    return psi[tuple(index)]


def _exchange(psi: np.ndarray, targets: Sequence[int], a: Sequence[int], b: Sequence[int]) -> None:
    """Swap the blocks whose targets read ``a`` and ``b``: an exact permutation."""
    x, y = _block(psi, targets, a), _block(psi, targets, b)
    x_old = x.copy()
    x[...] = y
    y[...] = x_old


def _apply_matrix(psi: np.ndarray, u: np.ndarray, targets: Sequence[int]) -> None:
    """Apply a k-qubit matrix in place; the first target is the matrix MSB."""
    rows = list(itertools.product((0, 1), repeat=len(targets)))
    old = [_block(psi, targets, bits).copy() for bits in rows]
    for coeffs, bits in zip(u, rows):
        out = _block(psi, targets, bits)
        np.multiply(old[0], coeffs[0], out=out)
        for c, o in zip(coeffs[1:], old[1:]):
            out += c * o


def _apply(psi: np.ndarray, g: GateOp) -> None:
    """Apply ``g`` in place to ``psi``, the state reshaped to ``(2,)*nu``."""
    if any(t >= psi.ndim for t in g.targets):
        raise ValidationError(f"gate targets {g.targets} exceed nu={psi.ndim}")
    if g.gate in ("X", "mcx"):  # X is mcx with no controls
        on = (1,) * (len(g.targets) - 1)
        _exchange(psi, g.targets, on + (0,), on + (1,))
    elif g.gate == "swap":
        _exchange(psi, g.targets, (0, 1), (1, 0))
    elif g.gate in ("phase", "cphase"):
        ones = _block(psi, g.targets, (1,) * len(g.targets))
        ones *= _phase_factor(g.theta)  # type: ignore[arg-type]
    else:
        u = _H_MATRIX if g.gate == "H" else np.array(g.matrix, dtype=np.complex128)
        _apply_matrix(psi, u, g.targets)


def apply_gate(s: QState, g: GateOp) -> QState:
    """Apply one gate, returning a fresh unit-norm state."""
    arr = s.amplitudes.copy()
    _apply(arr.reshape((2,) * s.nu), g)
    return QState._owning(s.nu, arr)


# --------------------------------------------------------------------------
# queries


@dataclass(frozen=True)
class QuerySpec:
    """Shape of the bit query: register sizes, promised range, grid rule."""

    m_prime: int
    m_double_prime: int
    range_lo: float
    range_hi: float
    tau_rule: str = "midpoint"

    def __post_init__(self) -> None:
        for name in ("m_prime", "m_double_prime"):
            v = _int(getattr(self, name), f"{name} must be a positive int", 1)
            object.__setattr__(self, name, v)
        lo, hi = _reals((self.range_lo, self.range_hi), "query range")
        if not lo < hi:
            raise ValidationError(f"query range must satisfy lo < hi, got [{lo}, {hi}]")
        object.__setattr__(self, "range_lo", lo)
        object.__setattr__(self, "range_hi", hi)
        if self.tau_rule not in _TAU_RULES:
            raise ValidationError(
                f"unknown tau rule {self.tau_rule!r}; expected midpoint | left-endpoint"
            )

    @property
    def grid_points(self) -> int:
        """Number of distinct evaluation points the query depends on, 2^m'."""
        return 1 << self.m_prime


def tau_point(j: int, q: QuerySpec) -> float:
    """Grid point for index ``j``: midpoint ``(2j+1)/2^{m'+1}`` or ``j/2^{m'}``."""
    n = q.grid_points
    j = _int(j, "grid index must be a nonnegative int", 0)
    if j >= n:
        raise ValidationError(f"index {j} outside the 2^m' grid of {n} points")
    if q.tau_rule == "midpoint":
        return (2 * j + 1) / (2 * n)
    return j / n


def beta_code(y: float, q: QuerySpec) -> int:
    """The ``m''`` most significant bits of ``y`` within the promised range."""
    codes = 1 << q.m_double_prime
    v = (_real(y, "function value must be finite") - q.range_lo) / (q.range_hi - q.range_lo)
    return math.floor(min(codes - 1, max(0.0, v * codes)))  # clamped before floor sees an inf


def query_table(f: FunctionSpec, q: QuerySpec) -> tuple[tuple[float, int], ...]:
    """The ``(tau(j), beta(f(tau(j))))`` pairs for every grid index ``j``.

    Exactly ``2^{m'}`` distinct evaluation points — the accounting quantity
    behind the qubit lower bound.
    """
    return tuple(
        (t, beta_code(feval(f, t), q))
        for t in (tau_point(j, q) for j in range(q.grid_points))
    )


def _query(psi: np.ndarray, codes: Sequence[int], q: QuerySpec) -> None:
    """Apply ``Q_f`` in place: in index block ``j``, value ``k`` takes value ``k ^ codes[j]``."""
    blocks = psi.reshape(1 << q.m_prime, 1 << q.m_double_prime, -1)
    values = np.arange(1 << q.m_double_prime)
    for block, code in zip(blocks, codes):
        if code:
            block[...] = block[values ^ code]


def bit_query(s: QState, f: FunctionSpec, q: QuerySpec) -> QState:
    """Apply ``Q_f``: XOR the value register with ``beta(f(tau(j)))``.

    An exact permutation of basis states — amplitudes are moved bitwise, never
    scaled — and an involution (XOR-ing the same code twice is the identity).
    """
    if q.m_prime + q.m_double_prime > s.nu:
        raise ValidationError(
            f"query registers need {q.m_prime + q.m_double_prime} qubits, state has {s.nu}"
        )
    arr = s.amplitudes.copy()
    _query(arr, [c for _, c in query_table(f, q)], q)
    return QState._owning(s.nu, arr)


# --------------------------------------------------------------------------
# algorithms


@dataclass(frozen=True)
class AffineDecode:
    """``phi(j) = scale * j + offset``."""

    scale: float
    offset: float

    def __post_init__(self) -> None:
        for name in ("scale", "offset"):
            v = _real(getattr(self, name), f"decode {name} must be finite")
            object.__setattr__(self, name, v)

    def phi(self, j: int, modulus: int) -> float:
        return self.scale * j + self.offset


@dataclass(frozen=True)
class Sin2Decode:
    """``phi(j) = sin^2(pi * j / M)`` — the phase-estimation amplitude decode."""

    def phi(self, j: int, modulus: int) -> float:
        return math.sin(math.pi * j / modulus) ** 2


Decode = Union[AffineDecode, Sin2Decode]


@dataclass(frozen=True)
class AlgorithmSpec:
    """Layers ``U_0..U_T`` with ``T`` interleaved queries, then a measurement.

    ``layers`` has ``T + 1`` entries; a query runs after every layer but the
    last. ``measure`` lists the output-register qubits most-significant-first;
    outcomes are integers ``j`` in ``[0, 2^{len(measure)})``.
    """

    nu: int
    query: QuerySpec | None
    layers: tuple[tuple[GateOp, ...], ...]
    measure: tuple[int, ...]
    decode: Decode

    def __post_init__(self) -> None:
        object.__setattr__(self, "nu", _int(self.nu, "nu must be a positive int", 1))
        layers = tuple(tuple(layer) for layer in self.layers)
        if len(layers) < 1:
            raise ValidationError("an algorithm needs at least the layer U_0")
        for layer in layers:
            for g in layer:
                if not isinstance(g, GateOp):
                    raise ValidationError(f"layer entry {g!r} is not a GateOp")
                if any(t >= self.nu for t in g.targets):
                    raise ValidationError(
                        f"gate targets {g.targets} exceed nu={self.nu}"
                    )
        object.__setattr__(self, "layers", layers)
        if self.query is not None:
            if self.query.m_prime + self.query.m_double_prime > self.nu:
                raise ValidationError(
                    "query registers need "
                    f"{self.query.m_prime + self.query.m_double_prime} qubits, "
                    f"algorithm has {self.nu}"
                )
        elif len(layers) > 1:
            raise ValidationError("algorithms with queries need a query spec")
        meas = _ints(self.measure, "measured qubits")
        if len(meas) < 1:
            raise ValidationError("measurement list must be nonempty")
        if len(set(meas)) != len(meas):
            raise ValidationError(f"duplicate measured qubits in {meas}")
        if any(not 0 <= t < self.nu for t in meas):
            raise ValidationError(f"measured qubits {meas} outside [0, nu)")
        object.__setattr__(self, "measure", meas)
        if not isinstance(self.decode, (AffineDecode, Sin2Decode)):
            raise ValidationError(f"unknown decode {self.decode!r}")

    @property
    def num_queries(self) -> int:
        """T: how many times ``Q_f`` runs."""
        return len(self.layers) - 1

    @property
    def outcome_count(self) -> int:
        """M = 2^{len(measure)}."""
        return 1 << len(self.measure)

    @property
    def n_eps(self) -> int:
        """Function evaluations encoded by one query (0 when query-free)."""
        return self.query.grid_points if self.query is not None else 0

    def decode_outcome(self, j: int) -> float:
        return self.decode.phi(j, self.outcome_count)


def _query_codes(a: AlgorithmSpec, f: FunctionSpec | None) -> list[int]:
    """Check that ``a`` fits the qubit cap; the value code of each grid index."""
    if a.nu > MAX_QUBITS:
        raise CapacityError(f"algorithm needs nu={a.nu} qubits, cap is {MAX_QUBITS}")
    if a.num_queries == 0:
        return []
    if f is None:
        raise ValidationError(f"algorithm makes {a.num_queries} queries; a function is required")
    assert a.query is not None
    return [c for _, c in query_table(f, a.query)]


def run(a: AlgorithmSpec, f: FunctionSpec | None = None) -> QState:
    """Execute ``U_T Q_f ... Q_f U_0 |0...0>`` and return the final dense state.

    :func:`distribution` is the usual entry point; ``run`` is for callers
    that need the amplitudes themselves. A circuit on more than
    ``MAX_QUBITS`` qubits raises :class:`CapacityError`.
    """
    codes = _query_codes(a, f)
    arr = np.zeros(1 << a.nu, dtype=np.complex128)
    arr[0] = 1.0
    psi = arr.reshape((2,) * a.nu)
    for i, layer in enumerate(a.layers):
        for g in layer:
            _apply(psi, g)
        if i < a.num_queries:
            _query(psi, codes, a.query)  # type: ignore[arg-type]
    return QState._owning(a.nu, arr)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Exact measurement distribution: ``(j, p_j, phi_j)`` for every outcome."""

    entries: tuple[tuple[int, float, float], ...]

    def __post_init__(self) -> None:
        try:  # one column each of indices, probabilities and decoded values
            js, ps, phis = zip(*self.entries, strict=True)
        except _CONVERSION_ERRORS as exc:
            raise ValidationError(
                f"a distribution needs at least one (j, p, phi) outcome: {exc}"
            ) from exc
        js = _ints(js, "outcome indices")
        ps = _reals(ps, "outcome probabilities")
        phis = _reals(phis, "decoded values")
        if len(set(js)) != len(js):
            j = next(j for j in js if js.count(j) > 1)
            raise ValidationError(f"duplicate outcome index {j}")
        if min(ps) < 0.0:
            j, p = next((j, p) for j, p in zip(js, ps) if p < 0.0)
            raise ValidationError(f"probability of outcome {j} is {p!r}")
        if abs(math.fsum(ps) - 1.0) > NORM_TOL:
            raise ValidationError(f"probabilities sum to {math.fsum(ps)!r}, expected 1")
        object.__setattr__(self, "entries", tuple(zip(js, ps, phis)))


def measure(s: QState, a: AlgorithmSpec) -> OutcomeDistribution:
    """Exact distribution of the measured register, all ``M`` outcomes listed.

    :func:`distribution` is the usual entry point; it calls ``measure(run(a, f), a)``
    for circuits it cannot track as one basis label.
    """
    if s.nu != a.nu:
        raise ValidationError(f"state has {s.nu} qubits, algorithm expects {a.nu}")
    p = (np.abs(s.amplitudes) ** 2).reshape((2,) * s.nu)
    p = p.sum(axis=tuple(q for q in range(s.nu) if q not in a.measure))
    kept = sorted(a.measure)
    p = p.transpose([kept.index(q) for q in a.measure]).reshape(-1)
    entries = tuple(
        (int(k), float(p[k]), a.decode_outcome(int(k))) for k in range(a.outcome_count)
    )
    return OutcomeDistribution(entries=entries)


def distribution(a: AlgorithmSpec, f: FunctionSpec | None = None) -> OutcomeDistribution:
    """The exact outcome distribution of ``a`` run on ``f``.

    A circuit whose gates are all X, ``mcx``, swap, phase or cphase maps
    ``|0...0>`` to one basis state times a phase, so it is tracked as an int
    label (qubit 0 the MSB) and its one outcome gets probability 1; any other
    circuit runs dense, ``measure(run(a, f), a)``. Both paths raise the same
    errors.
    """
    return next(_distributions(a, (f,)))


def _compile(a: AlgorithmSpec) -> list[list[tuple[int, int]]]:
    """Each layer as ``(control_mask, flip_mask)`` pairs: flip where all controls read 1."""
    layers: list[list[tuple[int, int]]] = [[] for _ in a.layers]
    for ops, layer in zip(layers, a.layers):
        for g in layer:
            *cs, x = [1 << (a.nu - 1 - t) for t in g.targets]
            if g.gate == "swap":
                ops += [(cs[0], x), (x, cs[0]), (cs[0], x)]
            elif g.gate in ("X", "mcx"):
                ops.append((sum(cs), x))
    return layers


def _distributions(a: AlgorithmSpec, family: Iterable[Any]) -> Iterator[OutcomeDistribution]:
    """:func:`distribution` of ``a`` on each member of ``family`` in turn."""
    if any(g.gate not in _LABEL_KINDS for layer in a.layers for g in layer):
        yield from (measure(run(a, f), a) for f in family)
        return
    top = a.nu - a.query.m_prime if a.query else 0  # index j is the label's top m' bits
    low = top - a.query.m_double_prime if a.query else 0  # and its code XORs into the next m''
    for n, f in enumerate(family):
        codes = _query_codes(a, f)  # the cap check precedes the compile
        if n == 0:
            layers, M = _compile(a), a.outcome_count
            values = [a.decode.phi(k, M) for k in range(M)]  # a.decode_outcome(k), bitwise
        label = 0
        for i, layer in enumerate(layers):
            for c, x in layer:
                if label & c == c:
                    label ^= x
            if i < a.num_queries:
                label ^= codes[label >> top] << low
        hit = int("".join(str(label >> (a.nu - 1 - t) & 1) for t in a.measure), 2)
        entries = ((k, 1.0 if k == hit else 0.0, phi) for k, phi in enumerate(values))
        yield OutcomeDistribution(entries=tuple(entries))


# --------------------------------------------------------------------------
# JSON / CSV mirroring


def gate_to_json(g: GateOp) -> dict[str, Any]:
    doc: dict[str, Any] = {"gate": g.gate, "targets": list(g.targets)}
    if g.theta is not None:
        doc["theta"] = g.theta
    if g.matrix is not None:
        doc["matrix"] = [[[v.real, v.imag] for v in row] for row in g.matrix]
    return doc


def gate_from_json(node: Any) -> GateOp:
    with reading(node, "gate", {"gate", "targets", "theta", "matrix"}):
        matrix = None
        if "matrix" in node:  # each entry is stored as its [re, im] pair
            matrix = [[complex(re, im) for re, im in row] for row in node["matrix"]]
        return GateOp(
            gate=node["gate"],
            targets=node["targets"],
            theta=node.get("theta"),
            matrix=matrix,
        )


def _query_to_json(q: QuerySpec) -> dict[str, Any]:
    return {
        "m_prime": q.m_prime,
        "m_double_prime": q.m_double_prime,
        "range": [q.range_lo, q.range_hi],
        "tau_rule": q.tau_rule,
    }


def _query_from_json(node: Any) -> QuerySpec:
    with reading(node, "query", {"m_prime", "m_double_prime", "range", "tau_rule"}):
        lo, hi = node["range"]
        return QuerySpec(
            m_prime=node["m_prime"],
            m_double_prime=node["m_double_prime"],
            range_lo=lo,
            range_hi=hi,
            tau_rule=node.get("tau_rule", "midpoint"),
        )


def _decode_to_json(d: Decode) -> dict[str, Any]:
    if isinstance(d, AffineDecode):
        return {"scale": d.scale, "offset": d.offset}
    return {"kind": "sin2"}


def _decode_from_json(node: Any) -> Decode:
    sin2 = isinstance(node, dict) and node.get("kind") == "sin2"
    with reading(node, "decode", {"kind"} if sin2 else {"scale", "offset"}):
        if sin2:
            return Sin2Decode()
        return AffineDecode(scale=node["scale"], offset=node["offset"])


def algorithm_to_json(a: AlgorithmSpec) -> dict[str, Any]:
    return {
        "nu": a.nu,
        "query": None if a.query is None else _query_to_json(a.query),
        "layers": [[gate_to_json(g) for g in layer] for layer in a.layers],
        "measure": list(a.measure),
        "decode": _decode_to_json(a.decode),
    }


def algorithm_from_json(node: Any) -> AlgorithmSpec:
    with reading(node, "algorithm", {"nu", "query", "layers", "measure", "decode"}):
        query = node.get("query")
        return AlgorithmSpec(
            nu=node["nu"],
            query=None if query is None else _query_from_json(query),
            layers=tuple(
                tuple(gate_from_json(g) for g in layer) for layer in node["layers"]
            ),
            measure=node["measure"],
            decode=_decode_from_json(node["decode"]),
        )


def distribution_to_csv(dist: OutcomeDistribution) -> str:
    """Render the distribution as the canonical ``j,p,phi`` CSV text."""
    return render_csv(["j", "p", "phi"], [tuple(e) for e in dist.entries])


def distribution_from_csv(path: str) -> OutcomeDistribution:
    header, rows = read_csv(path)
    if header != ["j", "p", "phi"]:
        raise ValidationError(f"expected header j,p,phi, got {header!r}")
    try:
        entries = tuple((int(j), float(p), float(phi)) for j, p, phi in rows)
    except ValueError as exc:
        raise ValidationError(f"malformed distribution row in {path}") from exc
    return OutcomeDistribution(entries=entries)
