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
states stay immutable at the API. A dense vector of ``2^nu`` amplitudes meets
the library's one size budget, ``2^MAX_QUBITS`` items, at ``nu = 20`` (1M
amplitudes, 16 MiB); a query's ``m'`` and ``m''`` meet it too, since its grid
has ``2^m'`` points and its codes ``2^m''`` values.

``distribution(a, f)`` is the entry point from an algorithm to its outcome
distribution, and it takes one of two paths. When every gate is X, ``mcx``,
swap, phase or cphase (every midpoint circuit and bound fixture), the circuit
is a classical reversible computation: ``|0...0>`` stays one basis state times
a phase, which never changes an outcome probability, so the state is one int
label. Its layers are compiled into ``(control_mask, flip_mask)`` pairs: X is
``(0, bit)``, ``mcx`` its controls and target, swap three controlled flips,
and phase and cphase drop out. A query XORs ``beta(f(tau(j)))`` into the value
bits. Any other circuit runs on the dense vector, ``measure(run(a, f), a)``,
the label path's test oracle. Both paths keep the 20-qubit cap and raise the
same errors.

The compiled layers, with the outcome columns ``j`` and ``phi(j)``, are the
algorithm's *program*: compiled once per ``AlgorithmSpec``, on first use,
kept on the instance, so a function family (as in
``bounds.worst_prob_error``) and every later call on the same algorithm run
from that one compile. It compiles each distinct layer object once: a layer
repeated as one shared tuple (the midpoint circuit's adder, an amplitude
estimation iterate) is checked and compiled once, and every slot it fills
shares its compiled list. An :class:`OutcomeDistribution` holds its outcomes
as those three read-only columns, ``j``, ``p`` and ``phi``.

On the label path an outcome is one point, the *hit*, and a function family
runs as one batch (one function is a batch of one): one grid evaluation and
one ``beta`` for every member, then the label loop per member, which yields
the member's hit. :func:`distribution` makes the hit a one-hot row. The dense
path runs one member at a time. Every distribution is one checked row.

States, algorithms and distributions are values: they compare and hash by
value, a copy or an unpickled one is rebuilt by its constructor (no program
or cached entries travel with it), and every array they hold is read-only.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, NamedTuple, Sequence, Union

import numpy as np

from .exceptions import (
    _CONVERSION_ERRORS, MAX_QUBITS, CapacityError, ValidationError, _budget, _finite, _frozen,
    _int, _ints, _past_budget, _real, _real_array, _reals, _shown,
)
from .functions import FunctionSpec, _eval_grid, _Value
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
    if _past_budget(nu):
        raise CapacityError(f"nu={_shown(nu)} exceeds the {MAX_QUBITS}-qubit cap")
    return nu


@dataclass(frozen=True, eq=False, repr=False)
class QState(_Value):
    """A unit vector of ``2^nu`` complex amplitudes (a read-only copy of the input).

    ``==``, hash and repr see the amplitudes as a tuple (:class:`_Value`).
    """

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
        object.__setattr__(self, "amplitudes", _frozen(amps))

    def _fields(self) -> tuple[Any, ...]:
        return (self.nu, self.amplitudes)


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
            _budget(f"query register {name}", v)  # 2^m' grid points, 2^m'' codes
            object.__setattr__(self, name, v)
        lo, hi = _reals((self.range_lo, self.range_hi), "query range")
        if not lo < hi:
            raise ValidationError(f"query range must satisfy lo < hi, got [{lo}, {hi}]")
        if not math.isfinite(hi - lo):  # beta_code divides by the width
            raise ValidationError(f"query range width must be finite, got [{lo}, {hi}]")
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
    j = _int(j, "grid index must be a nonnegative int", 0)
    if j >= q.grid_points:
        raise ValidationError(f"index {j} outside the 2^m' grid of {q.grid_points} points")
    return _tau(j, q)


def _tau(j: Any, q: QuerySpec) -> Any:
    """:func:`tau_point` of an index or of an int array of indices, unchecked."""
    n = q.grid_points
    return (2 * j + 1) / (2 * n) if q.tau_rule == "midpoint" else j / n


def beta_code(y: float, q: QuerySpec) -> int:
    """The ``m''`` most significant bits of ``y`` within the promised range."""
    return int(_beta(np.array([_real(y, "function value must be finite")]), q)[0])


def _beta(ys: np.ndarray, q: QuerySpec) -> np.ndarray:
    """:func:`beta_code` of each finite value of the float array ``ys``, in one clamped pass."""
    y = np.minimum(np.maximum(ys, q.range_lo), q.range_hi)  # same codes, and nothing overflows
    codes = 1 << q.m_double_prime
    v = (y - q.range_lo) / (q.range_hi - q.range_lo) * codes
    return np.minimum(v, codes - 1).astype(np.int64)  # v >= 0, so the cast is floor


def query_table(f: FunctionSpec, q: QuerySpec) -> tuple[tuple[float, int], ...]:
    """The ``(tau(j), beta(f(tau(j))))`` pairs for every grid index ``j``.

    Exactly ``2^{m'}`` distinct evaluation points — the accounting quantity
    behind the qubit lower bound. Grid, values (bitwise ``eval``'s) and codes are array passes.
    """
    taus = _tau(np.arange(q.grid_points), q)
    return tuple(zip(taus.tolist(), _beta(_eval_grid((f,), taus), q)[0].tolist()))


def _codes(family: Sequence[FunctionSpec], q: QuerySpec) -> list[list[int]]:
    """``beta(f(tau(j)))`` for every grid index ``j``, one row per member ``f``, in one array pass.

    Python ints, not an int64 array: the label loop tests masks against them.
    """
    return _beta(_eval_grid(family, _tau(np.arange(q.grid_points), q)), q).tolist()


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
    _query(arr, _codes((f,), q)[0], q)
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
        return self.scale * j + self.offset  # also takes the int64 ``j`` column whole


@dataclass(frozen=True)
class Sin2Decode:
    """``phi(j) = sin^2(pi * j / M)`` — the phase-estimation amplitude decode."""

    def phi(self, j: int, modulus: int) -> float:
        return math.sin(math.pi * j / modulus) ** 2


Decode = Union[AffineDecode, Sin2Decode]


class _Program(NamedTuple):
    """What every run of one algorithm shares (see :attr:`AlgorithmSpec._program`)."""

    layers: list[list[tuple[int, int]]] | None  # the compiled label layers; None runs dense
    j: np.ndarray  # outcome indices 0..M-1, read-only int64
    phi: np.ndarray  # decode.phi(j, M) for each j, read-only float64


@dataclass(frozen=True, eq=False, repr=False)
class AlgorithmSpec(_Value):
    """Layers ``U_0..U_T`` with ``T`` interleaved queries, then a measurement.

    ``layers`` has ``T + 1`` entries; a query runs after every layer but the
    last. ``measure`` lists the output-register qubits most-significant-first;
    outcomes are integers ``j`` in ``[0, 2^{len(measure)})``.

    Its program (compiled label layers and outcome columns) is built once per
    instance, on first use, and kept on the instance; it is not a field, so
    equality, hashing, ``repr``, copies and JSON see the fields alone
    (:class:`_Value`). A layer given as a tuple is kept as that object, so one
    tuple repeated in ``layers`` stays one object, and the program compiles
    each distinct layer object once. Each distinct gate object is checked
    once, however many layers hold it.
    """

    nu: int
    query: QuerySpec | None
    layers: tuple[tuple[GateOp, ...], ...]
    measure: tuple[int, ...]
    decode: Decode

    def __post_init__(self) -> None:
        object.__setattr__(self, "nu", _int(self.nu, "nu must be a positive int", 1))
        layers = tuple(tuple(layer) for layer in self.layers)  # a tuple stays the same object
        if len(layers) < 1:
            raise ValidationError("an algorithm needs at least the layer U_0")
        # each distinct gate once, in first-use order, so the first bad gate is named
        for g in {id(g): g for layer in _distinct(layers) for g in layer}.values():
            if not isinstance(g, GateOp):
                raise ValidationError(f"layer entry {g!r} is not a GateOp")
            if max(g.targets) >= self.nu:  # every gate has a target
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

    def _fields(self) -> tuple[Any, ...]:
        return (self.nu, self.query, self.layers, self.measure, self.decode)

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

    @cached_property
    def _program(self) -> _Program:
        """The compiled layers (None for a dense circuit) and the ``j`` and ``phi`` columns.

        Past the qubit cap it raises :class:`CapacityError` before compiling.
        Each distinct layer object is inspected and compiled once. An affine
        ``phi`` is one array pass, the same IEEE multiply and add as the
        scalar decode; ``sin^2`` stays a ``math.sin`` loop, which numpy's
        ``sin`` need not match bit for bit.
        """
        _check_cap(self)
        M = self.outcome_count
        j = np.arange(M, dtype=np.int64)
        if isinstance(self.decode, AffineDecode):
            with np.errstate(over="ignore", invalid="ignore"):  # inf and nan, as the scalar gives
                phi = self.decode.phi(j, M)  # type: ignore[arg-type]
        else:
            phi = np.array([self.decode.phi(k, M) for k in range(M)], dtype=np.float64)
        label = all(g.gate in _LABEL_KINDS for layer in _distinct(self.layers) for g in layer)
        return _Program(_compile(self) if label else None, _frozen(j), _frozen(phi))


def _distinct(layers: Iterable[tuple[GateOp, ...]]) -> Iterable[tuple[GateOp, ...]]:
    """Each distinct layer object of ``layers`` once, in order of first use."""
    return {id(layer): layer for layer in layers}.values()


def _check_cap(a: AlgorithmSpec) -> None:
    if _past_budget(a.nu):
        raise CapacityError(f"algorithm needs nu={_shown(a.nu)} qubits, cap is {MAX_QUBITS}")


def _query_codes(a: AlgorithmSpec, family: Sequence[Any]) -> list[list[int]]:
    """The value code of each grid index, a row per member; the caller has checked the qubit cap."""
    if a.num_queries == 0:
        return [[]] * len(family)
    if any(f is None for f in family):
        raise ValidationError(f"algorithm makes {a.num_queries} queries; a function is required")
    assert a.query is not None
    return _codes(family, a.query)


def run(a: AlgorithmSpec, f: FunctionSpec | None = None) -> QState:
    """Execute ``U_T Q_f ... Q_f U_0 |0...0>`` and return the final dense state.

    :func:`distribution` is the usual entry point; ``run`` is for callers
    that need the amplitudes themselves. A circuit on more than
    ``MAX_QUBITS`` qubits raises :class:`CapacityError`.
    """
    _check_cap(a)
    (codes,) = _query_codes(a, (f,))
    arr = np.zeros(1 << a.nu, dtype=np.complex128)
    arr[0] = 1.0
    psi = arr.reshape((2,) * a.nu)
    for i, layer in enumerate(a.layers):
        for g in layer:
            _apply(psi, g)
        if i < a.num_queries:
            _query(psi, codes, a.query)  # type: ignore[arg-type]
    return QState._owning(a.nu, arr)


@dataclass(frozen=True, init=False, eq=False, repr=False)
class OutcomeDistribution(_Value):
    """Exact measurement distribution: ``(j, p_j, phi_j)`` for every outcome.

    Built from its ``entries``, the ``(j, p, phi)`` tuples, but held as three
    read-only columns: ``j`` (int64), ``p`` and ``phi`` (float64). A
    distribution from :func:`distribution` or :func:`measure` shares its
    ``j`` and ``phi`` columns with the algorithm's program, compiled once per
    ``AlgorithmSpec``, on first use, kept on the instance. ``entries`` is
    built from the columns on first use; equality, hashing, ``repr`` and
    copies are those of ``entries`` (:class:`_Value`).
    """

    j: np.ndarray
    p: np.ndarray
    phi: np.ndarray

    def __init__(self, entries: Iterable[tuple[int, float, float]]) -> None:
        try:  # one column each of indices, probabilities and decoded values
            js, ps, phis = zip(*entries, strict=True)
        except _CONVERSION_ERRORS as exc:
            raise ValidationError(
                f"a distribution needs at least one (j, p, phi) outcome: {exc}"
            ) from exc
        js = _ints(js, "outcome indices")
        p = _real_array(ps, "outcome probabilities")
        phi = _real_array(phis, "decoded values")
        try:
            j = np.array(js, dtype=np.int64)
        except OverflowError as exc:
            raise ValidationError(f"outcome indices must fit in 64 bits: {exc}") from exc
        self._hold(*_sealed(j, p, phi))

    @classmethod
    def _from_columns(cls, j: np.ndarray, p: np.ndarray, phi: np.ndarray) -> OutcomeDistribution:
        """A distribution over the given columns, checked as :meth:`__init__` checks; not copied."""
        d = object.__new__(cls)
        d._hold(*_sealed(j, p, phi))
        return d

    def _hold(self, j: np.ndarray, p: np.ndarray, phi: np.ndarray) -> None:
        for name, col in (("j", j), ("p", p), ("phi", phi)):
            object.__setattr__(self, name, col)

    @cached_property
    def entries(self) -> tuple[tuple[int, float, float], ...]:
        """The ``(j, p, phi)`` tuples, in outcome order."""
        return tuple(zip(self.j.tolist(), self.p.tolist(), self.phi.tolist()))

    def _fields(self) -> tuple[Any, ...]:
        return (self.entries,)

    def __repr__(self) -> str:  # named by the constructor's argument, not the columns
        return f"{self.__class__.__qualname__}(entries={self.entries!r})"


def _sealed(
    j: np.ndarray, p: np.ndarray, phi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A distribution's columns ``j``, ``p`` and ``phi``, checked and frozen (:func:`_frozen`)."""
    _finite(p, "outcome probabilities")
    _finite(phi, "decoded values")
    if not (j[1:] > j[:-1]).all():  # increasing, as every program's j is, has no duplicate
        js = j.tolist()
        if len(set(js)) != len(js):  # not np.unique: its first call costs a MiB of peak RSS
            dup = next(k for k in js if js.count(k) > 1)
            raise ValidationError(f"duplicate outcome index {dup}")
    if p.min() < 0.0:
        k = int(np.argmax(p < 0.0))
        raise ValidationError(f"probability of outcome {j[k].item()} is {p[k].item()!r}")
    total = math.fsum(memoryview(p[p != 0.0]))  # zeros add nothing, and fsum([]) is 0.0
    if abs(total - 1.0) > NORM_TOL:
        raise ValidationError(f"probabilities sum to {total!r}, expected 1")
    return _frozen(j), _frozen(p), _frozen(phi)


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
    prog = a._program
    return OutcomeDistribution._from_columns(prog.j, p, prog.phi)


def distribution(a: AlgorithmSpec, f: FunctionSpec | None = None) -> OutcomeDistribution:
    """The exact outcome distribution of ``a`` run on ``f``.

    A circuit whose gates are all X, ``mcx``, swap, phase or cphase maps
    ``|0...0>`` to one basis state times a phase, so it is tracked as an int
    label (qubit 0 the MSB) and its one outcome, the hit, gets probability 1
    in a one-hot row; any other circuit runs dense and returns
    ``measure(run(a, f), a)`` itself. Both paths raise the same errors.
    """
    prog = a._program  # checks the qubit cap before the compile
    if prog.layers is None:
        return measure(run(a, f), a)
    p = np.zeros(len(prog.j))
    p[_hits(a, (f,))[0]] = 1.0
    return OutcomeDistribution._from_columns(prog.j, p, prog.phi)


def _compile(a: AlgorithmSpec) -> list[list[tuple[int, int]]]:
    """Each layer as ``(control_mask, flip_mask)`` pairs: flip where all controls read 1.

    Each distinct layer object is compiled once, and every slot it fills gets
    that one compiled list.
    """
    bit = [1 << (a.nu - 1 - t) for t in range(a.nu)]  # the mask of each qubit
    compiled: dict[int, list[tuple[int, int]]] = {}
    for layer in _distinct(a.layers):
        ops = compiled[id(layer)] = []
        for g in layer:
            *cs, x = map(bit.__getitem__, g.targets)
            if g.gate == "swap":
                ops += [(cs[0], x), (x, cs[0]), (cs[0], x)]
            elif g.gate in ("X", "mcx"):
                ops.append((sum(cs), x))
    return [compiled[id(layer)] for layer in a.layers]


def _hits(a: AlgorithmSpec, family: Sequence[Any]) -> list[int]:
    """The one outcome of the label circuit ``a`` on each member of ``family``.

    The codes of every member come from one grid evaluation; the label loop
    runs per member.
    """
    layers = a._program.layers
    assert layers is not None, "a dense circuit has no label loop"
    top = a.nu - a.query.m_prime if a.query else 0  # index j is the label's top m' bits
    low = top - a.query.m_double_prime if a.query else 0  # and its code XORs into the next m''
    T = a.num_queries
    last = len(a.measure) - 1
    reads = [(a.nu - 1 - t, last - k) for k, t in enumerate(a.measure)]  # label bit, outcome bit
    hits = []
    for codes in _query_codes(a, family):
        label = 0
        for i, layer in enumerate(layers):
            for c, x in layer:
                if label & c == c:
                    label ^= x
            if i < T:
                label ^= codes[label >> top] << low
        hit = 0
        for s, k in reads:
            hit |= (label >> s & 1) << k
        hits.append(hit)
    return hits


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
