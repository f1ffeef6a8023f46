"""State-vector simulator: gates, queries, runs, measurement, serialization."""

from __future__ import annotations

import cmath
import copy
import dataclasses
import functools
import itertools
import json
import math
import operator
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    build_ae_mean,
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
    trig,
    verify_bound,
    worst_prob_error,
    zero_state,
)
from qibc.serialize import dumps_json
from helpers import (
    LABEL_GATE_KINDS,
    beta_code_scalar,
    compile_loop,
    label_loop,
    query_table_points,
    random_gate,
    random_lipschitz_pwl,
    random_unitary,
)

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
            taus = [tau_point(j, q) for j in range(1 << m_prime)]
            assert taus == optimal_design(1 << m_prime).points.tolist()

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

    def test_each_path_builds_the_tau_grid_once(self, monkeypatch):
        grids = []
        real = qibc.simulator._tau
        monkeypatch.setattr(qibc.simulator, "_tau", lambda j, q: grids.append(j) or real(j, q))
        q = QuerySpec(3, 2, 0.0, 1.0, "midpoint")
        query_table(RAMP, q)
        bit_query(zero_state(5), RAMP, q)
        distribution(midpoint_algorithm(2, 3, -1.0, 1.0), RAMP)
        distribution(build_ae_mean(2, 3, -1.0, 1.0), RAMP)
        assert len(grids) == 4


_BIG = math.nextafter(math.inf, 0.0)
_VALUES = st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0, 1e308, -1e308, _BIG, -_BIG])


@st.composite
def query_functions(draw):
    """A pwl (some breakpoints on a dyadic grid, where taus land), a constant or a trig."""
    family = draw(st.sampled_from(["pwl", "constant", "trig"]))
    if family == "constant":
        return constant(draw(_VALUES))
    if family == "trig":
        cs = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=7)
        return trig(draw(cs.filter(lambda c: len(c) % 2)))
    xs = {0.0, 1.0} | draw(st.sets(st.floats(0.0, 1.0), max_size=8))
    xs |= {k / 64 for k in draw(st.sets(st.integers(0, 64), max_size=8))}
    ordinates = st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0])
    return pwl([(x, draw(ordinates)) for x in sorted(xs)])


@st.composite
def query_specs(draw):
    """A query whose range may cut the values at either end, or sit far outside them."""
    lo = draw(st.floats(-3.0, 2.0) | st.sampled_from([-1e308, 1e307]))
    hi = lo + draw(st.floats(1e-6, 4.0) | st.sampled_from([1e308]))
    assume(lo < hi)
    return QuerySpec(draw(st.integers(1, 7)), draw(st.integers(1, 6)), lo, hi,
                     draw(st.sampled_from(["midpoint", "left-endpoint"])))


class TestQueryTableArray:
    """The table's one array pass against ``tau_point``, a scalar value and ``beta_code``."""

    @given(query_functions(), query_specs())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_point_oracle(self, f, q):
        got, want = query_table(f, q), query_table_points(f, q)
        assert [(t.hex(), c) for t, c in got] == [(t.hex(), c) for t, c in want]
        assert all(type(t) is float and type(c) is int for t, c in got)

    @given(_VALUES, query_specs())
    @settings(max_examples=300, deadline=None)
    def test_beta_code_equals_the_scalar_clamp(self, y, q):
        assert beta_code(y, q) == beta_code_scalar(y, q)

    def test_values_clamp_at_both_ends(self):
        q = QuerySpec(3, 2, -0.5, 0.5, "left-endpoint")
        f = pwl([(0.0, -2.0), (1.0, 2.0)])
        assert [c for _, c in query_table(f, q)] == [0, 0, 0, 0, 2, 3, 3, 3]
        assert query_table(f, q) == query_table_points(f, q)

    @pytest.mark.parametrize("y", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_keeps_the_message(self, y):
        with pytest.raises(ValidationError, match=rf"^function value must be finite, got {y!r}$"):
            beta_code(y, Q11)

    @pytest.mark.parametrize("y0, y1", [(-_BIG, 0.0), (0.0, _BIG), (_BIG, _BIG / 2),
                                        (-_BIG / 2, -_BIG), (math.nextafter(_BIG, 0.0), _BIG)])
    def test_grid_values_of_extreme_pwls_are_finite(self, y0, y1):
        # the table takes finite values from eval; interpolation cannot overflow
        f = pwl([(0.0, y0), (1.0, y1)])
        q = QuerySpec(10, 3, -1.0, 1.0)
        assert query_table(f, q) == query_table_points(f, q)


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
        assert QState._owning(1, arr).amplitudes.base is arr  # a view: frozen, not copied
        assert not arr.flags.writeable
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


def pwl_functions():
    """A pwl function on 2-6 equally spaced breakpoints, values in [-1.25, 1.25]."""
    return st.lists(st.floats(-1.25, 1.25), min_size=2, max_size=6).map(
        lambda ys: pwl(tuple((i / (len(ys) - 1), y) for i, y in enumerate(ys))))


@st.composite
def label_circuits(draw):
    """A label-kind circuit (nu <= 8, T <= 3) and a pwl function to query.

    A layer after the first may repeat an earlier layer's tuple object, or be
    an equal but distinct copy of one.
    """
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

    layers: list[tuple[GateOp, ...]] = []
    for _ in range(T + 1):
        how = draw(st.sampled_from(["new", "shared", "copy"])) if layers else "new"
        if how == "new":
            layers.append(tuple(gate() for _ in range(draw(st.integers(0, 10)))))
        else:
            earlier = draw(st.sampled_from(layers))
            layers.append(earlier if how == "shared" else tuple(list(earlier)))
    meas = tuple(draw(qubits)[: draw(st.integers(1, min(nu, 6)))])
    a = AlgorithmSpec(nu, q if T or draw(st.booleans()) else None, layers, meas,
                      AffineDecode(0.25, -1.0))
    return a, draw(pwl_functions())


def _check_compile(a: AlgorithmSpec) -> None:
    """``_compile(a)`` against ``compile_loop``: its ops, its support, a fresh memo, sharing.

    Two slots share one triple, and so one memo, exactly when they hold one
    layer object.
    """
    got = qibc.simulator._compile(a)
    assert [ops for ops, _, _ in got] == compile_loop(a)
    for ops, support, memo in got:
        assert support == functools.reduce(operator.or_, (c for c, _ in ops), 0)
        assert memo == {}
    for i, k in itertools.combinations(range(len(a.layers)), 2):
        same = a.layers[i] is a.layers[k]
        assert (got[i] is got[k]) == same and (got[i][2] is got[k][2]) == same


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

    @settings(max_examples=200, deadline=None)
    @given(label_circuits())
    def test_compile_equals_the_per_gate_loop(self, case):
        _check_compile(case[0])

    @pytest.mark.parametrize("start", [(), (0,), (1,), (0, 1)], ids=str)
    def test_swap_under_every_input(self, start):
        # a swap between two controlled flips: each ones-pattern on (0, 1) in turn
        layer = tuple(GateOp("X", (t,)) for t in start) + (
            GateOp("mcx", (0, 2)), GateOp("swap", (0, 1)), GateOp("mcx", (1, 2, 0)),
        )
        a = AlgorithmSpec(3, None, (layer,), (0, 1, 2), AffineDecode(1.0, 0.0))
        assert distribution(a) == _dense(a)


class TestOutcomeColumns:
    """A distribution is three read-only columns; ``entries`` and the CSV are derived."""

    @staticmethod
    def _cases():
        fx = build_bound_fixture(1 / 40)
        dense = AlgorithmSpec(
            3, QuerySpec(1, 2, 0.0, 1.0), ((GateOp("H", (0,)),), (GateOp("H", (2,)),)),
            (2, 0, 1), Sin2Decode(),
        )
        return [distribution(fx.algorithm, f) for f in fx.family] + [distribution(dense, RAMP)]

    def test_same_as_built_from_entries(self):
        for d in self._cases():
            e = OutcomeDistribution(d.entries)
            assert d == e and e == d
            assert hash(d) == hash(e) == hash((d.entries,))
            assert repr(d) == repr(e) == f"OutcomeDistribution(entries={d.entries!r})"
            assert distribution_to_csv(d).encode() == distribution_to_csv(e).encode()

    def test_entries_are_python_values(self):
        d = self._cases()[0]
        assert len(d.entries) == 256
        assert all(type(j) is int and type(p) is float and type(phi) is float
                   for j, p, phi in d.entries)
        assert d.entries == tuple(zip(d.j.tolist(), d.p.tolist(), d.phi.tolist()))
        assert (d.j.dtype, d.p.dtype, d.phi.dtype) == (np.int64, np.float64, np.float64)

    def test_unequal_columns_compare_unequal(self):
        a = OutcomeDistribution(((0, 0.5, 0.0), (1, 0.5, 1.0)))
        assert a != OutcomeDistribution(((0, 0.5, 0.0), (1, 0.5, 2.0)))
        assert a != OutcomeDistribution(((1, 0.5, 0.0), (0, 0.5, 1.0)))
        assert a != OutcomeDistribution(((0, 1.0, 0.0),))
        assert a != a.entries

    @pytest.mark.parametrize("column", ["j", "p", "phi"])
    def test_columns_are_read_only(self, column):
        for d in self._cases() + [OutcomeDistribution(((0, 0.25, -1.0), (1, 0.75, 0.5)))]:
            col = getattr(d, column)
            with pytest.raises(ValueError, match="read-only"):
                col[0] = 0
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(d, column, col.copy())

    def test_columns_are_checked(self):
        j, phi = np.arange(2), np.array([0.0, 1.0])
        build = OutcomeDistribution._from_columns
        with pytest.raises(ValidationError, match=r"^duplicate outcome index 0$"):
            build(np.zeros(2, dtype=np.int64), np.array([0.5, 0.5]), phi)
        with pytest.raises(ValidationError, match=r"^probability of outcome 1 is -0.5$"):
            build(j, np.array([1.5, -0.5]), phi)
        with pytest.raises(ValidationError, match=r"^outcome probabilities must be finite"):
            build(j, np.array([np.nan, 1.0]), phi)
        with pytest.raises(ValidationError, match=r"^decoded values must be finite, got inf$"):
            build(j, np.array([0.5, 0.5]), np.array([0.0, np.inf]))
        with pytest.raises(ValidationError, match=r"^probabilities sum to 0.5, expected 1$"):
            build(j, np.array([0.25, 0.25]), phi)

    def test_unordered_indices_are_still_scanned_for_duplicates(self):
        # an increasing j, as every program's is, cannot repeat; any other
        # order gets the scan and names the first repeated index
        phi = np.zeros(4)
        p = np.full(4, 0.25)
        build = OutcomeDistribution._from_columns
        for j, dup in (([3, 1, 3, 0], 3), ([0, 2, 1, 2], 2), ([5, 4, 4, 6], 4)):
            with pytest.raises(ValidationError, match=rf"^duplicate outcome index {dup}$"):
                build(np.array(j, dtype=np.int64), p, phi)
            with pytest.raises(ValidationError, match=rf"^duplicate outcome index {dup}$"):
                OutcomeDistribution(zip(j, p.tolist(), phi.tolist()))
        d = build(np.array([2, 0, 3, 1], dtype=np.int64), p, phi)
        assert d.j.tolist() == [2, 0, 3, 1]
        with pytest.raises(ValidationError, match=r"^probability of outcome 7 is -0.5$"):
            OutcomeDistribution(((9, 1.5, 0.0), (7, -0.5, 0.0)))

    def test_index_past_64_bits_is_refused(self):
        with pytest.raises(ValidationError, match="outcome indices must fit in 64 bits"):
            OutcomeDistribution(((2**63, 1.0, 0.0),))

    def test_copies_are_equal_and_read_only(self):
        d = self._cases()[0]
        for c in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
            assert c == d and hash(c) == hash(d)
            assert not c.p.flags.writeable


class TestProgramOnTheInstance:
    """The compiled program is kept on the algorithm, outside its fields."""

    def test_invisible_to_eq_hash_repr_and_json(self):
        a, b = midpoint_algorithm(2, 3, -1.0, 1.0), midpoint_algorithm(2, 3, -1.0, 1.0)
        distribution(a, RAMP)
        assert "_program" in vars(a) and "_program" not in vars(b)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert algorithm_to_json(a) == algorithm_to_json(b)
        assert "_program" not in {f.name for f in dataclasses.fields(a)}

    def test_distributions_share_the_outcome_columns(self):
        a = midpoint_algorithm(2, 3, -1.0, 1.0)
        d1, d2 = distribution(a, RAMP), measure(run(a, RAMP), a)
        assert d1 == d2
        assert d1.j is d2.j is a._program.j and d1.phi is d2.phi is a._program.phi

    def test_phi_column_is_decode_bitwise(self):
        for a in (midpoint_algorithm(2, 3, -1.0, 1.0), build_ae_mean(2, 3, 0.0, 1.0)):
            M = a.outcome_count
            want = [a.decode.phi(k, M).hex() for k in range(M)]
            assert [v.hex() for v in a._program.phi.tolist()] == want

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False), st.integers(1, 10))
    def test_affine_phi_column_is_the_scalar_decode(self, scale, offset, width):
        # one array pass: the same multiply and add, -0.0 and overflow to inf included
        a = AlgorithmSpec(width, None, ((),), tuple(range(width)), AffineDecode(scale, offset))
        M = a.outcome_count
        want = [a.decode.phi(k, M).hex() for k in range(M)]
        assert [v.hex() for v in a._program.phi.tolist()] == want

    def test_dense_circuit_has_no_layers(self):
        assert build_ae_mean(2, 3, 0.0, 1.0)._program.layers is None
        assert midpoint_algorithm(2, 3, -1.0, 1.0)._program.layers is not None


BUILT = {
    "midpoint(1,2)": lambda: midpoint_algorithm(1, 2, -1.0, 1.0),
    "midpoint(2,8)": lambda: midpoint_algorithm(2, 8, -1.0, 1.0),
    "midpoint(4,3)": lambda: midpoint_algorithm(4, 3, 0.0, 1.0),
    "fixture(1/40)": lambda: build_bound_fixture(1 / 40).algorithm,
    "fixture(1/400)": lambda: build_bound_fixture(1 / 400).algorithm,
    "ae(3,5)": lambda: build_ae_mean(3, 5, -1.0, 1.0),
}


class TestSharedLayers:
    """A layer object repeated in ``layers`` is checked and compiled once."""

    @pytest.mark.parametrize("build", BUILT.values(), ids=BUILT.keys())
    def test_compile_equals_the_per_gate_loop_on_the_builders(self, build):
        a = build()
        if build is BUILT["ae(3,5)"]:  # H gates: no label program
            assert qibc.simulator._compile(a) is None
        else:
            _check_compile(a)

    def test_midpoint_adders_are_one_object_in_the_layers_and_the_program(self):
        a = midpoint_algorithm(2, 8, -1.0, 1.0)
        assert a.layers[1] is a.layers[3] and a._program.layers[1] is a._program.layers[3]
        assert a.layers[0] is not a.layers[2]  # the X layers differ

    def test_each_distinct_gate_is_checked_once(self, monkeypatch):
        a = midpoint_algorithm(2, 8, -1.0, 1.0)
        checked = []  # the check reads each gate's targets once
        monkeypatch.setattr(GateOp, "targets", property(
            lambda g: checked.append(g) or vars(g)["targets"]), raising=False)
        AlgorithmSpec(a.nu, a.query, a.layers, a.measure, a.decode)
        assert len(checked) == len({id(g) for layer in a.layers for g in layer}) < sum(
            map(len, a.layers))

    def test_first_bad_gate_in_layer_order_is_named(self):
        shared, later = (GateOp("X", (0,)), GateOp("X", (5,))), (GateOp("X", (4,)),)
        with pytest.raises(ValidationError) as exc:
            AlgorithmSpec(3, Q11, ((), shared, later, shared), (0,), AffineDecode(1.0, 0.0))
        assert str(exc.value) == "gate targets (5,) exceed nu=3"

    def test_nu30_fixture_compiles_without_running(self):
        # build and compile only: the qubit cap still stops any run
        a = build_bound_fixture(2.5e-5).algorithm
        assert a.nu == 30
        compiled = qibc.simulator._compile(a)
        assert len(compiled) == 32_769
        assert sum(len(ops) for ops, _, _ in compiled) == 278_512
        assert len({id(layer) for layer in compiled[1::2]}) == 1 and len(compiled[1::2]) == 16_384
        with pytest.raises(CapacityError):
            a._program


def _memo_bounds(a: AlgorithmSpec) -> None:
    """Check every memo of ``a``: at most ``2^popcount(support)`` keys, each within the support.

    Each entry holds the flips its layer's ops make from its key.
    """
    for ops, support, memo in a._program.layers:
        assert len(memo) <= 1 << bin(support).count("1")
        for key, delta in memo.items():
            assert key & ~support == 0
            label = key
            for c, x in ops:
                if label & c == c:
                    label ^= x
            assert delta == label ^ key


class TestLabelMemo:
    """A code row runs once, and each distinct layer remembers its flips by the bits it reads."""

    @settings(max_examples=100, deadline=None)
    @given(label_circuits(), st.lists(pwl_functions(), min_size=1, max_size=5))
    def test_warm_memo_equals_the_oracles(self, case, more):
        a, f = case
        fs = [f, *more]
        want = [label_loop(a, g) for g in fs]
        for g, hit in zip(fs, want):  # later members meet the memos the earlier ones filled
            got, dense = distribution(a, g), _dense(a, g)
            assert got.p[hit] == 1.0
            assert [(j, phi) for j, _, phi in got.entries] == [
                (j, phi) for j, _, phi in dense.entries]
            assert max(abs(x - y) for x, y in zip(got.p.tolist(), dense.p.tolist())) <= 1e-12
        assert qibc.simulator._hits(a, fs) == want  # warm, as one family
        _memo_bounds(a)
        fresh = copy.deepcopy(a)  # a copy of the warm algorithm starts with no program
        assert "_program" not in vars(fresh)
        assert [qibc.simulator._hits(fresh, (g,))[0] for g in fs] == want
        assert qibc.simulator._hits(fresh, fs[::-1]) == want[::-1]
        _memo_bounds(fresh)

    def test_memos_stay_within_their_support(self):
        a = build_bound_fixture(1 / 40).algorithm
        rng = np.random.default_rng(29)
        for _ in range(50):
            qibc.simulator._hits(a, [random_lipschitz_pwl(rng, 1.0) for _ in range(4)])
        _memo_bounds(a)
        assert all(len(memo) >= 1 for _, _, memo in a._program.layers)
        for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert b == a and "_program" not in vars(b)
            assert all(memo == {} for _, _, memo in b._program.layers)

    def test_one_run_per_code_row(self, monkeypatch):
        fx = build_bound_fixture(1 / 40)
        a = fx.algorithm
        rows = qibc.simulator._query_codes(a, fx.family)
        assert rows[0] == rows[1] == rows[2] != rows[3]
        assert fx.family[2] == constant(0.0)
        gets = []

        class CountingMemo(dict):
            def get(self, key, default=None):
                gets.append(key)
                return super().get(key, default)

        compile_once = qibc.simulator._compile

        def counting(a):
            layers = compile_once(a)
            memos = {id(memo): CountingMemo() for _, _, memo in layers}
            return [(ops, support, memos[id(memo)]) for ops, support, memo in layers]

        monkeypatch.setattr(qibc.simulator, "_compile", counting)
        hits = qibc.simulator._hits(a, fx.family)
        assert len(gets) == 2 * len(a.layers)  # one look-up per slot for each of two rows
        assert hits[0] == hits[1] == hits[2] != hits[3]
        assert hits == [label_loop(a, f) for f in fx.family]

    def test_cold_and_warm_reports_match(self):
        fx = build_bound_fixture(1 / 40)
        cold = verify_bound(build_bound_fixture(1 / 40).algorithm, fx.family, L=1.0, eps=1 / 40)
        a = fx.algorithm
        rng = np.random.default_rng(2026)
        for _ in range(200):
            worst_prob_error(a, [random_lipschitz_pwl(rng, 1.0) for _ in range(4)])
        assert sum(len(memo) for _, _, memo in a._program.layers) > len(a.layers)
        warm = verify_bound(a, fx.family, L=1.0, eps=1 / 40)
        assert warm == cold and warm.status == "ok" and warm.achieved_error == 1 / 64

    def test_threads_sharing_one_algorithm_fill_its_memos_consistently(self):
        # concurrent misses may work out one entry twice; every hit stays the oracle's
        a = midpoint_algorithm(2, 8, -1.0, 1.0)
        rng = np.random.default_rng(7)
        families = [[random_lipschitz_pwl(rng, 1.0) for _ in range(3)] for _ in range(4)]
        want = [[label_loop(a, f) for f in fam] for fam in families]
        got: dict[int, list] = {}

        def work(k: int) -> None:
            got[k] = [qibc.simulator._hits(a, families[k]) for _ in range(20)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(families))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(got[k] == [want[k]] * 20 for k in range(len(families)))
        _memo_bounds(a)


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
