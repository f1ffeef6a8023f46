"""State-vector simulator: gates, queries, runs, measurement, serialization."""

from __future__ import annotations

import cmath
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qibc.simulator
from qibc import (
    AffineDecode,
    AlgorithmSpec,
    CapacityError,
    GateOp,
    OutcomeDistribution,
    QState,
    QuerySpec,
    Sin2Decode,
    ValidationError,
    algorithm_from_json,
    algorithm_to_json,
    apply_gate,
    beta_code,
    bit_query,
    build_bound_fixture,
    build_reversible_midpoint,
    constant,
    distribution,
    distribution_from_csv,
    distribution_to_csv,
    gate_from_json,
    gate_to_json,
    measure,
    midpoint_algorithm,
    optimal_design,
    pwl,
    query_table,
    run,
    tau_point,
    verify_bound,
    zero_state,
)
from qibc.serialize import dumps_json
from helpers import LABEL_GATE_KINDS, random_gate, random_lipschitz_pwl, random_unitary

RAMP = pwl(((0.0, 0.0), (1.0, 1.0)))
Q11 = QuerySpec(1, 1, 0.0, 1.0, "midpoint")


def amps(state: QState) -> np.ndarray:
    return np.asarray(state.amplitudes)


class TestGates:
    def test_x_flips(self):
        s = apply_gate(zero_state(1), GateOp("X", (0,)))
        assert list(amps(s)) == [0.0, 1.0]

    def test_h_superposes(self):
        s = apply_gate(zero_state(1), GateOp("H", (0,)))
        r = math.sqrt(0.5)
        assert amps(s) == pytest.approx([r, r], abs=1e-15)

    def test_h_involution(self):
        s = apply_gate(apply_gate(zero_state(1), GateOp("H", (0,))), GateOp("H", (0,)))
        assert amps(s) == pytest.approx([1.0, 0.0], abs=1e-15)

    def test_qubit_zero_is_most_significant(self):
        s = apply_gate(zero_state(2), GateOp("X", (0,)))
        assert list(np.flatnonzero(amps(s))) == [2]
        s = apply_gate(zero_state(2), GateOp("X", (1,)))
        assert list(np.flatnonzero(amps(s))) == [1]

    def test_phase_on_one_component(self):
        s = apply_gate(zero_state(1), GateOp("H", (0,)))
        s = apply_gate(s, GateOp("phase", (0,), theta=math.pi))
        r = math.sqrt(0.5)
        assert amps(s) == pytest.approx([r, -r], abs=1e-15)

    def test_cphase_only_on_all_ones(self):
        s = zero_state(2)
        for q in (0, 1):
            s = apply_gate(s, GateOp("H", (q,)))
        s = apply_gate(s, GateOp("cphase", (0, 1), theta=math.pi))
        assert amps(s) == pytest.approx([0.5, 0.5, 0.5, -0.5], abs=1e-15)

    def test_cphase_three_targets(self):
        s = zero_state(3)
        for q in range(3):
            s = apply_gate(s, GateOp("H", (q,)))
        s = apply_gate(s, GateOp("cphase", (0, 1, 2), theta=math.pi / 2))
        a = amps(s)
        expected = np.full(8, math.sqrt(0.125), dtype=complex)
        expected[7] *= 1j
        assert a == pytest.approx(expected, abs=1e-15)

    def test_swap(self):
        s = apply_gate(zero_state(2), GateOp("X", (1,)))
        s = apply_gate(s, GateOp("swap", (0, 1)))
        assert list(np.flatnonzero(amps(s))) == [2]

    def test_custom_unitary(self):
        ry = ((math.cos(0.3), -math.sin(0.3)), (math.sin(0.3), math.cos(0.3)))
        s = apply_gate(zero_state(1), GateOp("unitary", (0,), matrix=ry))
        assert amps(s) == pytest.approx([math.cos(0.3), math.sin(0.3)], abs=1e-15)

    def test_non_unitary_matrix_rejected(self):
        with pytest.raises(ValidationError):
            GateOp("unitary", (0,), matrix=((1.0, 0.0), (0.0, 2.0)))

    def test_arity_enforced(self):
        with pytest.raises(ValidationError):
            GateOp("X", (0, 1))
        with pytest.raises(ValidationError):
            GateOp("swap", (0,))
        with pytest.raises(ValidationError):
            GateOp("cphase", (0,), theta=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"targets": (0,)},
            {"targets": (0, 1), "theta": math.pi},
            {"targets": (0, 1), "matrix": ((0.0, 1.0), (1.0, 0.0))},
            {"targets": (2, 0, 2)},
        ],
        ids=["one-target", "theta", "matrix", "duplicate"],
    )
    def test_mcx_validation(self, kwargs):
        with pytest.raises(ValidationError):
            GateOp("mcx", **kwargs)

    def test_theta_required(self):
        with pytest.raises(ValidationError):
            GateOp("phase", (0,))

    def test_duplicate_targets_rejected(self):
        with pytest.raises(ValidationError):
            GateOp("swap", (1, 1))

    def test_infinite_target_rejected(self):
        with pytest.raises(ValidationError, match="^gate targets must be integers: "):
            GateOp("X", (math.inf,))

    def test_non_numeric_target_rejected(self):
        with pytest.raises(ValidationError, match="^gate targets must be integers: "):
            GateOp("X", ("a",))

    def test_target_out_of_range_rejected_at_apply(self):
        with pytest.raises(ValidationError):
            apply_gate(zero_state(1), GateOp("H", (1,)))

    def test_norm_preserved_random_ops(self):
        rng = np.random.default_rng(42)
        s = zero_state(6)
        for _ in range(200):
            s = apply_gate(s, random_gate(rng, 6))
        assert abs(float(np.vdot(amps(s), amps(s)).real) - 1.0) < 1e-12


def _bit(i: int, q: int, nu: int) -> int:
    return (i >> (nu - 1 - q)) & 1


def _oracle_matrix(g: GateOp, nu: int) -> np.ndarray:
    """The explicit ``2^nu x 2^nu`` matrix of ``g``, built without the simulator."""
    dim = 1 << nu
    mask = [1 << (nu - 1 - q) for q in g.targets]
    if g.gate == "X":
        return np.eye(dim)[[i ^ mask[0] for i in range(dim)]]
    if g.gate == "mcx":  # flip the last target where every other target is 1
        on = [all(i & m for m in mask[:-1]) for i in range(dim)]
        return np.eye(dim)[[i ^ mask[-1] if o else i for i, o in enumerate(on)]]
    if g.gate == "swap":
        a, b = g.targets
        flips = [_bit(i, a, nu) != _bit(i, b, nu) for i in range(dim)]
        return np.eye(dim)[[i ^ mask[0] ^ mask[1] if f else i for i, f in enumerate(flips)]]
    if g.gate in ("phase", "cphase"):
        ones = [all(i & m for m in mask) for i in range(dim)]
        return np.diag([cmath.exp(1j * g.theta) if one else 1.0 for one in ones])
    if g.gate == "H":
        u = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    else:
        u = np.array(g.matrix)
    if len(g.targets) == 1:
        return functools.reduce(
            np.kron, [u if q == g.targets[0] else np.eye(2) for q in range(nu)])

    def sub(i: int) -> int:  # the target bits of basis index i, first target the MSB
        return int("".join(str(_bit(i, t, nu)) for t in g.targets), 2)

    m = np.zeros((dim, dim), dtype=complex)
    rest = [q for q in range(nu) if q not in g.targets]
    for r in range(dim):
        for c in range(dim):
            if all(_bit(r, q, nu) == _bit(c, q, nu) for q in rest):
                m[r, c] = u[sub(r), sub(c)]
    return m


def _random_state(rng: np.random.Generator, nu: int) -> QState:
    z = rng.normal(size=1 << nu) + 1j * rng.normal(size=1 << nu)
    return QState(nu, z / np.linalg.norm(z))


_ORACLE_RNG = np.random.default_rng(77)


class TestGateOracle:
    """Every gate kind against its explicit matrix on random 5-qubit states."""

    @pytest.mark.parametrize(
        "g",
        [
            GateOp("X", (2,)),
            GateOp("mcx", (1, 3)),
            GateOp("mcx", (3, 0)),
            GateOp("mcx", (4, 0, 2)),
            GateOp("mcx", (0, 3, 1)),
            GateOp("mcx", (1, 2, 4, 0)),
            GateOp("mcx", (4, 0, 1, 2)),
            GateOp("H", (0,)),
            GateOp("H", (4,)),
            GateOp("phase", (3,), theta=0.7),
            GateOp("cphase", (3, 1), theta=1.1),
            GateOp("cphase", (0, 2, 4), theta=-2.3),
            GateOp("swap", (4, 1)),
            GateOp("unitary", (2,), matrix=random_unitary(_ORACLE_RNG, 1)),
            GateOp("unitary", (3, 1), matrix=random_unitary(_ORACLE_RNG, 2)),
            GateOp("unitary", (0, 4), matrix=random_unitary(_ORACLE_RNG, 2)),
        ],
        ids=lambda g: f"{g.gate}{g.targets}",
    )
    def test_apply_gate_matches_matrix(self, g):
        rng = np.random.default_rng(78)
        m = _oracle_matrix(g, 5)
        for _ in range(3):
            s = _random_state(rng, 5)
            got = amps(apply_gate(s, g))
            assert np.max(np.abs(got - m @ amps(s))) < 1e-12

    @pytest.mark.parametrize(
        "controls, target",
        [((0,), 1), ((3,), 0), ((4, 0), 2), ((0, 3), 1), ((1, 2, 4), 0), ((4, 0, 1), 2)],
    )
    def test_mcx_matches_h_cphase_h_sandwich(self, controls, target):
        # the construction mcx replaced: H on the target, cphase(pi), H again
        sandwich = (
            GateOp("H", (target,)),
            GateOp("cphase", controls + (target,), theta=math.pi),
            GateOp("H", (target,)),
        )
        native = GateOp("mcx", controls + (target,))
        rng = np.random.default_rng(80)
        for _ in range(3):
            s = _random_state(rng, 5)
            want = s
            for g in sandwich:
                want = apply_gate(want, g)
            got = amps(apply_gate(s, native))
            assert np.max(np.abs(got - amps(want))) < 1e-12

    def test_bit_query_matches_xor_permutation(self):
        # index j (2 qubits), value k (2 qubits), one workspace qubit w
        q = QuerySpec(2, 2, -1.0, 1.0, "midpoint")
        f = pwl(((0.0, -0.9), (0.5, 0.4), (1.0, 0.1)))
        codes = [c for _, c in query_table(f, q)]
        assert len(set(codes)) > 1
        m = np.zeros((32, 32))
        for i in range(32):
            j, k, w = i >> 3, (i >> 1) & 3, i & 1
            m[(j << 3) | ((k ^ codes[j]) << 1) | w, i] = 1.0
        rng = np.random.default_rng(79)
        for _ in range(3):
            s = _random_state(rng, 5)
            got = amps(bit_query(s, f, q))
            assert np.max(np.abs(got - m @ amps(s))) < 1e-12


class TestTauBeta:
    def test_midpoint_taus(self):
        q = QuerySpec(2, 1, 0.0, 1.0, "midpoint")
        assert [tau_point(j, q) for j in range(4)] == [0.125, 0.375, 0.625, 0.875]

    def test_midpoint_taus_equal_optimal_design(self):
        for m_prime in (1, 2, 3, 5):
            q = QuerySpec(m_prime, 1, 0.0, 1.0, "midpoint")
            taus = tuple(tau_point(j, q) for j in range(1 << m_prime))
            assert taus == optimal_design(1 << m_prime).points

    def test_left_endpoint_taus(self):
        q = QuerySpec(2, 1, 0.0, 1.0, "left-endpoint")
        assert [tau_point(j, q) for j in range(4)] == [0.0, 0.25, 0.5, 0.75]

    def test_beta_known_codes(self):
        assert beta_code(0.25, Q11) == 0
        assert beta_code(0.75, Q11) == 1

    def test_beta_clamps_at_range_top(self):
        q = QuerySpec(1, 3, 0.0, 1.0, "midpoint")
        assert beta_code(1.0, q) == 7
        assert beta_code(0.0, q) == 0
        # (y - lo) / span * 2^m'' overflows to an infinity before the clamp
        assert beta_code(1e308, q) == 7
        assert beta_code(-1e308, q) == 0

    def test_beta_monotone(self):
        q = QuerySpec(1, 4, -1.0, 1.0, "midpoint")
        codes = [beta_code(y, q) for y in np.linspace(-1.0, 1.0, 101)]
        assert codes == sorted(codes)
        assert codes[0] == 0 and codes[-1] == 15

    def test_query_table_literal(self):
        assert query_table(RAMP, Q11) == ((0.25, 0), (0.75, 1))

    def test_query_table_covers_grid_once(self):
        q = QuerySpec(3, 2, 0.0, 1.0, "midpoint")
        table = query_table(RAMP, q)
        assert len(table) == 8
        assert len({t for t, _ in table}) == 8


class TestBitQuery:
    def test_constant_at_range_floor_is_identity(self):
        s = apply_gate(zero_state(2), GateOp("H", (0,)))
        s2 = bit_query(s, constant(0.0), Q11)
        assert list(amps(s2)) == list(amps(s))

    def test_involution_bitwise(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        z /= np.linalg.norm(z)
        s = QState(2, z)
        once = bit_query(s, RAMP, Q11)
        twice = bit_query(once, RAMP, Q11)
        assert (amps(twice) == amps(s)).all()

    def test_query_truth_table(self):
        s = bit_query(zero_state(2), RAMP, Q11)
        assert list(np.flatnonzero(amps(s))) == [0]  # |0>|0> -> |0>|0>
        s = apply_gate(zero_state(2), GateOp("X", (0,)))
        s = bit_query(s, RAMP, Q11)
        assert list(np.flatnonzero(amps(s))) == [3]  # |1>|0> -> |1>|1>

    def test_index_register_untouched(self):
        rng = np.random.default_rng(2)
        q = QuerySpec(2, 2, 0.0, 1.0, "midpoint")
        z = rng.normal(size=16) + 1j * rng.normal(size=16)
        z /= np.linalg.norm(z)
        s = bit_query(QState(4, z), RAMP, q)
        before = np.abs(z.reshape(4, 4)) ** 2
        after = np.abs(amps(s).reshape(4, 4)) ** 2
        assert before.sum(axis=1) == pytest.approx(after.sum(axis=1), abs=1e-14)

    def test_workspace_qubits_untouched(self):
        # nu larger than m' + m'': the trailing workspace qubit must pass through
        s = apply_gate(zero_state(3), GateOp("X", (2,)))
        s = apply_gate(s, GateOp("X", (0,)))
        out = bit_query(s, RAMP, Q11)
        assert list(np.flatnonzero(amps(out))) == [0b111]


class TestRun:
    def test_empty_algorithm_is_zero_state(self):
        a = AlgorithmSpec(2, None, ((),), (0, 1), AffineDecode(1.0, 0.0))
        assert list(amps(run(a))) == [1.0, 0.0, 0.0, 0.0]

    def test_all_hadamards_uniform(self):
        layer = tuple(GateOp("H", (q,)) for q in range(3))
        a = AlgorithmSpec(3, None, (layer,), (0, 1, 2), AffineDecode(1.0, 0.0))
        assert amps(run(a)) == pytest.approx([math.sqrt(0.125)] * 8, abs=1e-15)

    def test_single_query_entangles(self):
        a = AlgorithmSpec(
            2, Q11, ((GateOp("H", (0,)),), ()), (0, 1), AffineDecode(1.0, 0.0)
        )
        r = math.sqrt(0.5)
        assert amps(run(a, RAMP)) == pytest.approx([r, 0.0, 0.0, r], abs=1e-15)

    def test_queries_need_a_function(self):
        a = AlgorithmSpec(
            2, Q11, ((GateOp("H", (0,)),), ()), (0, 1), AffineDecode(1.0, 0.0)
        )
        with pytest.raises(ValidationError):
            run(a)

    def test_capacity_cap(self):
        a = AlgorithmSpec(21, None, ((),), (0,), AffineDecode(1.0, 0.0))
        with pytest.raises(CapacityError):
            run(a)

    def test_num_queries_counts_layer_gaps(self):
        a = AlgorithmSpec(2, Q11, ((), (), ()), (0,), AffineDecode(1.0, 0.0))
        assert a.num_queries == 2


class TestQStateBuffers:
    def test_caller_array_is_copied(self):
        arr = np.array([0.0, 1.0], dtype=np.complex128)
        s = QState(1, arr)
        arr[:] = [1.0, 0.0]
        assert list(amps(s)) == [0.0, 1.0]
        assert not s.amplitudes.flags.writeable

    def test_results_are_read_only(self):
        a = AlgorithmSpec(2, Q11, ((GateOp("H", (0,)),), ()), (0, 1), AffineDecode(1.0, 0.0))
        for s in (zero_state(2), apply_gate(zero_state(2), GateOp("X", (1,))),
                  bit_query(zero_state(2), RAMP, Q11), run(a, RAMP)):
            assert not s.amplitudes.flags.writeable

    def test_owned_buffer_is_checked_not_copied(self):
        arr = np.array([0.0, 1.0], dtype=np.complex128)
        assert QState._owning(1, arr).amplitudes is arr
        with pytest.raises(ValidationError):
            QState._owning(1, np.array([1.0, 1.0], dtype=np.complex128))
        with pytest.raises(ValidationError):
            QState._owning(2, np.array([0.0, 1.0], dtype=np.complex128))
        with pytest.raises(CapacityError):
            QState._owning(21, np.array([0.0, 1.0], dtype=np.complex128))


def _dense(a: AlgorithmSpec, f=None) -> OutcomeDistribution:
    return measure(run(a, f), a)


def _random_label_circuit(rng: np.random.Generator) -> AlgorithmSpec:
    """A permutation-plus-phase circuit with 0-3 queries and a random measure list."""
    nu = int(rng.integers(3, 9))
    m1 = int(rng.integers(1, nu))
    m2 = int(rng.integers(1, nu - m1 + 1))
    T = int(rng.integers(0, 4))
    q = QuerySpec(m1, m2, -1.0, 1.0, str(rng.choice(["midpoint", "left-endpoint"])))
    layers = tuple(
        tuple(random_gate(rng, nu, LABEL_GATE_KINDS) for _ in range(int(rng.integers(0, 13))))
        for _ in range(T + 1)
    )
    meas = tuple(int(t) for t in rng.permutation(nu)[: int(rng.integers(1, min(nu, 6) + 1))])
    return AlgorithmSpec(nu, q if T or rng.random() < 0.5 else None, layers, meas,
                         AffineDecode(0.25, -1.0))


class TestLabelPath:
    """``distribution`` against the dense path, ``measure(run(a, f), a)``, as the oracle."""

    @pytest.mark.parametrize("eps", [1 / 4, 1 / 40, 1 / 400, 1e-3])
    def test_bound_fixtures_equal_dense(self, eps):
        fx = build_bound_fixture(eps)
        for f in fx.family:
            assert distribution(fx.algorithm, f) == _dense(fx.algorithm, f)

    @pytest.mark.parametrize("m1, m2", [(1, 2), (2, 3), (3, 3), (2, 8)])
    def test_midpoint_circuits_equal_dense(self, m1, m2):
        a = midpoint_algorithm(m1, m2, -1.0, 1.0)
        rng = np.random.default_rng(100 + 10 * m1 + m2)
        for f in (RAMP, random_lipschitz_pwl(rng, 1.0), random_lipschitz_pwl(rng, 2.0)):
            assert distribution(a, f) == _dense(a, f)

    def test_random_circuits_match_dense(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            a = _random_label_circuit(rng)
            f = random_lipschitz_pwl(rng, 1.0, k=4)
            got, want = distribution(a, f), _dense(a, f)
            assert [(j, phi) for j, _, phi in got.entries] == [
                (j, phi) for j, _, phi in want.entries]
            assert max(abs(g[1] - w[1]) for g, w in zip(got.entries, want.entries)) <= 1e-12

    def test_phases_and_swap_follow_the_label(self):
        # X sets qubit 0, swap moves it to 2, cphase fires on (0, 2) only after the X on 0
        layer = (
            GateOp("X", (0,)), GateOp("phase", (1,), theta=1.0), GateOp("swap", (0, 2)),
            GateOp("X", (0,)), GateOp("cphase", (0, 2), theta=0.5), GateOp("mcx", (0, 2, 1)),
        )
        a = AlgorithmSpec(3, None, (layer,), (1, 0), AffineDecode(1.0, 0.0))
        got = [p for _, p, _ in distribution(a).entries]
        assert got == [0.0, 0.0, 0.0, 1.0]
        assert got == pytest.approx([p for _, p, _ in _dense(a).entries], abs=1e-12)


@st.composite
def label_circuits(draw):
    """A label-kind circuit (nu <= 8, T <= 3) and a pwl function to query."""
    nu = draw(st.integers(2, 8))
    T = draw(st.integers(0, 3))
    m1 = draw(st.integers(1, nu - 1))
    m2 = draw(st.integers(1, nu - m1))
    q = QuerySpec(m1, m2, -1.0, 1.0, draw(st.sampled_from(["midpoint", "left-endpoint"])))
    qubits = st.permutations(range(nu))
    angle = st.floats(-6.0, 6.0)

    def gate():
        kind = draw(st.sampled_from(LABEL_GATE_KINDS))
        if kind == "X":
            return GateOp("X", (draw(st.integers(0, nu - 1)),))
        if kind == "mcx":  # 1-4 controls, the flipped qubit last
            return GateOp("mcx", tuple(draw(qubits)[: draw(st.integers(1, min(4, nu - 1))) + 1]))
        if kind == "swap":
            return GateOp("swap", tuple(draw(qubits)[:2]))
        if kind == "phase":
            return GateOp("phase", (draw(st.integers(0, nu - 1)),), theta=draw(angle))
        k = draw(st.integers(2, min(4, nu)))
        return GateOp("cphase", tuple(draw(qubits)[:k]), theta=draw(angle))

    layers = tuple(
        tuple(gate() for _ in range(draw(st.integers(0, 10)))) for _ in range(T + 1)
    )
    meas = tuple(draw(qubits)[: draw(st.integers(1, min(nu, 6)))])
    a = AlgorithmSpec(nu, q if T or draw(st.booleans()) else None, layers, meas,
                      AffineDecode(0.25, -1.0))
    ys = draw(st.lists(st.floats(-1.25, 1.25), min_size=2, max_size=6))
    f = pwl(tuple((i / (len(ys) - 1), y) for i, y in enumerate(ys)))
    return a, f


class TestLabelPathProperty:
    """Compiled masks against the dense oracle: swaps inside controlled runs included."""

    @settings(max_examples=100, deadline=None)
    @given(label_circuits())
    def test_distribution_equals_dense(self, case):
        a, f = case
        got, want = distribution(a, f), _dense(a, f)
        assert [(j, phi) for j, _, phi in got.entries] == [
            (j, phi) for j, _, phi in want.entries]
        assert max(abs(g[1] - w[1]) for g, w in zip(got.entries, want.entries)) <= 1e-12

    @pytest.mark.parametrize("start", [(), (0,), (1,), (0, 1)], ids=str)
    def test_swap_under_every_input(self, start):
        # a swap between two controlled flips: each ones-pattern on (0, 1) in turn
        layer = tuple(GateOp("X", (t,)) for t in start) + (
            GateOp("mcx", (0, 2)), GateOp("swap", (0, 1)), GateOp("mcx", (1, 2, 0)),
        )
        a = AlgorithmSpec(3, None, (layer,), (0, 1, 2), AffineDecode(1.0, 0.0))
        assert distribution(a) == _dense(a)


def _no_dense(*args, **kwargs):
    raise AssertionError("the label path ran the dense simulator")


class TestDistributionDispatch:
    def test_label_circuit_skips_dense(self, monkeypatch):
        a = midpoint_algorithm(2, 3, -1.0, 1.0)
        want = _dense(a, RAMP)
        monkeypatch.setattr(qibc.simulator, "run", _no_dense)
        assert distribution(a, RAMP) == want

    @pytest.mark.parametrize("g", [
        GateOp("H", (0,)),
        GateOp("unitary", (0,), matrix=((0.6, 0.8), (0.8, -0.6))),
    ], ids=lambda g: g.gate)
    def test_other_gates_run_dense(self, monkeypatch, g):
        a = AlgorithmSpec(1, None, ((g,),), (0,), AffineDecode(1.0, 0.0))
        want = _dense(a)
        calls = []

        def counting_run(*args):
            calls.append(args)
            return run(*args)

        monkeypatch.setattr(qibc.simulator, "run", counting_run)
        assert distribution(a) == want
        assert len(calls) == 1

    def test_hadamard_gives_halves(self):
        a = AlgorithmSpec(1, None, ((GateOp("H", (0,)),),), (0,), AffineDecode(1.0, 0.0))
        assert [p for _, p, _ in distribution(a).entries] == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_dense_query_circuit_equals_dense(self):
        a = AlgorithmSpec(
            3, QuerySpec(1, 2, 0.0, 1.0), ((GateOp("H", (0,)),), (GateOp("H", (2,)),)),
            (0, 1, 2), AffineDecode(1.0, 0.0),
        )
        assert distribution(a, RAMP) == _dense(a, RAMP)

    def test_capacity_on_both_paths(self):
        big = midpoint_algorithm(10, 1, 0.0, 1.0)
        assert big.nu == 22
        with pytest.raises(CapacityError):
            distribution(big, RAMP)
        with pytest.raises(CapacityError):
            build_reversible_midpoint(10, 1, RAMP, 0.0, 1.0)
        dense = AlgorithmSpec(21, None, ((GateOp("H", (0,)),),), (0,), AffineDecode(1.0, 0.0))
        with pytest.raises(CapacityError):
            distribution(dense)

    def test_verify_bound_capacity_message(self):
        # the cap check runs before any compile work and keeps its text
        big = midpoint_algorithm(10, 1, 0.0, 1.0)
        with pytest.raises(CapacityError, match=r"^algorithm needs nu=22 qubits, cap is 20$"):
            verify_bound(big, [RAMP], L=1.0, eps=1 / 40)

    def test_queries_need_a_function_on_both_paths(self):
        label = midpoint_algorithm(1, 2, 0.0, 1.0)
        dense = AlgorithmSpec(2, Q11, ((GateOp("H", (0,)),), ()), (0, 1), AffineDecode(1.0, 0.0))
        for a, T in ((label, 4), (dense, 1)):
            assert a.num_queries == T
            with pytest.raises(ValidationError,
                               match=rf"^algorithm makes {T} queries; a function is required$"):
                distribution(a)


class TestMeasure:
    def test_basis_state_point_mass(self):
        a = AlgorithmSpec(
            2, None, ((GateOp("X", (0,)),),), (0, 1), AffineDecode(1.0, 0.0)
        )
        dist = measure(run(a), a)
        assert dist.entries[2] == (2, 1.0, 2.0)
        assert sum(p for _, p, _ in dist.entries) == pytest.approx(1.0, abs=1e-12)

    def test_measured_bit_order_is_msb_first(self):
        a = AlgorithmSpec(
            2, None, ((GateOp("X", (1,)),),), (1, 0), AffineDecode(1.0, 0.0)
        )
        dist = measure(run(a), a)
        # qubit 1 is set and listed first, so it contributes the outcome MSB
        assert dist.entries[2][1] == 1.0

    def test_uniform_over_measured_qubits(self):
        layer = tuple(GateOp("H", (q,)) for q in range(3))
        a = AlgorithmSpec(3, None, (layer,), (0, 2), AffineDecode(1.0, 0.0))
        dist = measure(run(a), a)
        assert [p for _, p, _ in dist.entries] == pytest.approx([0.25] * 4, abs=1e-14)

    def test_unmeasured_qubits_marginalized(self):
        layer = (GateOp("H", (0,)), GateOp("X", (1,)))
        a = AlgorithmSpec(2, None, (layer,), (1,), AffineDecode(1.0, 0.0))
        dist = measure(run(a), a)
        assert dist.entries[1][1] == pytest.approx(1.0, abs=1e-14)

    def test_decode_affine(self):
        a = AlgorithmSpec(
            2, None, ((),), (0, 1), AffineDecode(0.25, -1.0)
        )
        dist = measure(run(a), a)
        assert [phi for _, _, phi in dist.entries] == [-1.0, -0.75, -0.5, -0.25]

    def test_decode_sin2(self):
        a = AlgorithmSpec(2, None, ((),), (0, 1), Sin2Decode())
        dist = measure(run(a), a)
        expected = [math.sin(math.pi * j / 4.0) ** 2 for j in range(4)]
        assert [phi for _, _, phi in dist.entries] == pytest.approx(expected, abs=1e-15)


class TestAlgorithmValidation:
    def test_measure_must_be_distinct(self):
        with pytest.raises(ValidationError):
            AlgorithmSpec(2, None, ((),), (0, 0), AffineDecode(1.0, 0.0))

    def test_measure_in_range(self):
        with pytest.raises(ValidationError):
            AlgorithmSpec(2, None, ((),), (2,), AffineDecode(1.0, 0.0))

    def test_infinite_measured_qubit_rejected(self):
        with pytest.raises(ValidationError, match="^measured qubits must be integers: "):
            AlgorithmSpec(1, None, ((),), (math.inf,), AffineDecode(1.0, 0.0))

    def test_non_numeric_query_range_rejected(self):
        with pytest.raises(ValidationError, match="^query range must be real numbers: "):
            QuerySpec(1, 1, "a", 1.0)

    def test_query_required_when_layers_gap(self):
        with pytest.raises(ValidationError):
            AlgorithmSpec(2, None, ((), ()), (0,), AffineDecode(1.0, 0.0))

    def test_registers_must_fit(self):
        with pytest.raises(ValidationError):
            AlgorithmSpec(1, Q11, ((), ()), (0,), AffineDecode(1.0, 0.0))

    def test_n_eps_property(self):
        a = AlgorithmSpec(2, Q11, ((), ()), (0,), AffineDecode(1.0, 0.0))
        assert a.n_eps == 2
        assert a.outcome_count == 2


class TestSerialization:
    def _algorithm(self) -> AlgorithmSpec:
        return AlgorithmSpec(
            2,
            Q11,
            ((GateOp("H", (0,)), GateOp("phase", (1,), theta=0.5)), ()),
            (0, 1),
            AffineDecode(0.5, -1.0),
        )

    def test_algorithm_json_round_trip(self):
        a = self._algorithm()
        assert algorithm_from_json(algorithm_to_json(a)) == a

    def test_algorithm_json_shape(self):
        doc = algorithm_to_json(self._algorithm())
        assert set(doc) == {"nu", "query", "layers", "measure", "decode"}
        assert doc["layers"][0][0] == {"gate": "H", "targets": [0]}
        assert doc["decode"] == {"scale": 0.5, "offset": -1.0}

    def test_schema_1_sandwich_json_still_loads(self):
        # schema 1 wrote every multi-controlled X as H . cphase(pi) . H
        native = midpoint_algorithm(2, 3, -1.0, 1.0)
        f = pwl(((0.0, -0.9), (0.5, 0.4), (1.0, 0.1)))
        doc = algorithm_to_json(native)

        def sandwich(g: dict) -> list[dict]:
            if g["gate"] != "mcx":
                return [g]
            h = {"gate": "H", "targets": g["targets"][-1:]}
            return [h, {"gate": "cphase", "targets": g["targets"], "theta": math.pi}, h]

        old_layers = [[o for g in layer for o in sandwich(g)] for layer in doc["layers"]]
        assert old_layers != doc["layers"]
        old = algorithm_from_json(json.loads(json.dumps({**doc, "layers": old_layers})))
        assert all(g.gate != "mcx" for layer in old.layers for g in layer)
        want = measure(run(native, f), native)
        got = measure(run(old, f), old)
        assert [(j, phi) for j, _, phi in got.entries] == [(j, phi) for j, _, phi in want.entries]
        assert max(abs(a[1] - b[1]) for a, b in zip(got.entries, want.entries)) < 1e-12

    @pytest.mark.parametrize("targets", [(2,), (0, 2)])
    def test_unitary_gate_round_trips_through_text(self, targets):
        rng = np.random.default_rng(len(targets))
        g = GateOp("unitary", targets, matrix=random_unitary(rng, len(targets)))
        doc = json.loads(dumps_json(gate_to_json(g)))
        assert set(doc) == {"gate", "targets", "matrix"}
        assert gate_from_json(doc) == g
        a = AlgorithmSpec(3, None, ((GateOp("H", (1,)), g),), (0, 1, 2), AffineDecode(1.0, 0.0))
        back = algorithm_from_json(json.loads(dumps_json(algorithm_to_json(a))))
        assert back == a
        assert distribution(back, RAMP) == distribution(a, RAMP)

    def test_sin2_decode_round_trip(self):
        a = AlgorithmSpec(2, None, ((),), (0,), Sin2Decode())
        doc = algorithm_to_json(a)
        assert doc["decode"] == {"kind": "sin2"}
        assert algorithm_from_json(doc) == a

    def test_unknown_keys_rejected(self):
        doc = algorithm_to_json(self._algorithm())
        doc["extra"] = True
        with pytest.raises(ValidationError):
            algorithm_from_json(doc)

    def test_distribution_csv_round_trip(self, tmp_path):
        dist = OutcomeDistribution(((0, 0.25, -1.0), (1, 0.75, 0.125)))
        path = tmp_path / "d.csv"
        path.write_text(distribution_to_csv(dist), encoding="utf-8")
        assert distribution_from_csv(str(path)) == dist

    def test_distribution_validation(self):
        with pytest.raises(ValidationError):
            OutcomeDistribution(((0, 0.5, 0.0), (0, 0.5, 1.0)))  # duplicate j
        with pytest.raises(ValidationError):
            OutcomeDistribution(((0, -0.1, 0.0), (1, 1.1, 1.0)))  # negative p
        with pytest.raises(ValidationError):
            OutcomeDistribution(((0, 0.5, 0.0), (1, 0.6, 1.0)))  # sums past 1
