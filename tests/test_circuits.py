"""Circuit builders: QFT, multi-controlled X, midpoint integrator, AE."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from qibc import (
    AffineDecode,
    AlgorithmSpec,
    CapacityError,
    GateOp,
    QState,
    build_ae_mean,
    build_bound_fixture,
    build_reversible_midpoint,
    beta_code,
    algorithm_to_json,
    check_promise,
    constant,
    distribution,
    exact_integral,
    eval as feval,
    inverse_qft_gates,
    local_error,
    m_eps,
    measure,
    midpoint_algorithm,
    pwl,
    qft_gates,
    mcx_gates,
    run,
    tau_point,
    zero_state,
)
from qibc.circuits import _controlled_add_value
from qibc.exceptions import MAX_QUBITS, _past_budget
from qibc.serialize import dumps_json
from helpers import random_lipschitz_pwl

RAMP = pwl(((0.0, 0.0), (1.0, 1.0)))
HAT = pwl(((0.0, 0.0), (0.5, 0.5), (1.0, 0.0)))


def _apply_all(state: QState, gates) -> QState:
    from qibc import apply_gate

    for g in gates:
        state = apply_gate(state, g)
    return state


def _matrix_of(gates, nu: int) -> np.ndarray:
    n = 1 << nu
    cols = []
    for j in range(n):
        amps = np.zeros(n, dtype=complex)
        amps[j] = 1.0
        cols.append(np.asarray(_apply_all(QState(nu, amps), gates).amplitudes))
    return np.column_stack(cols)


class TestQft:
    @pytest.mark.parametrize("nu", [1, 2, 3, 4])
    def test_matches_fourier_matrix(self, nu):
        n = 1 << nu
        got = _matrix_of(qft_gates(tuple(range(nu))), nu)
        jk = np.outer(np.arange(n), np.arange(n))
        want = np.exp(2j * math.pi * jk / n) / math.sqrt(n)
        assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("nu", [1, 2, 3, 4])
    def test_inverse_undoes(self, nu):
        rng = np.random.default_rng(nu)
        z = rng.normal(size=1 << nu) + 1j * rng.normal(size=1 << nu)
        z /= np.linalg.norm(z)
        s = QState(nu, z)
        qs = tuple(range(nu))
        back = _apply_all(_apply_all(s, qft_gates(qs)), inverse_qft_gates(qs))
        assert np.abs(np.asarray(back.amplitudes) - z).max() < 1e-12

    def test_on_qubit_subset(self):
        # QFT on qubits (1, 2) of a 3-qubit register leaves qubit 0 alone
        s = _apply_all(zero_state(3), qft_gates((1, 2)))
        a = np.asarray(s.amplitudes)
        assert a[:4] == pytest.approx([0.5] * 4, abs=1e-15)
        assert a[4:] == pytest.approx([0.0] * 4, abs=1e-15)


class TestMcx:
    def test_two_controls_truth_table(self):
        gates = mcx_gates((0, 1), 2)
        for j in range(8):
            amps = np.zeros(8, dtype=complex)
            amps[j] = 1.0
            out = np.asarray(_apply_all(QState(3, amps), gates).amplitudes)
            want = j ^ 1 if (j >> 1) & 0b11 == 0b11 else j
            k = int(np.argmax(np.abs(out)))
            assert k == want
            assert out[k] == 1.0

    def test_single_control_is_cnot(self):
        gates = mcx_gates((0,), 1)
        for j, want in ((0b00, 0b00), (0b01, 0b01), (0b10, 0b11), (0b11, 0b10)):
            amps = np.zeros(4, dtype=complex)
            amps[j] = 1.0
            out = np.asarray(_apply_all(QState(2, amps), gates).amplitudes)
            assert out[want] == 1.0

    def test_three_controls(self):
        gates = mcx_gates((0, 1, 2), 3)
        amps = np.zeros(16, dtype=complex)
        amps[0b1110] = 1.0
        out = np.asarray(_apply_all(QState(4, amps), gates).amplitudes)
        assert out[0b1111] == 1.0

    def test_no_controls_is_plain_x(self):
        gates = mcx_gates((), 1)
        assert gates == (GateOp("X", (1,)),)
        for j in range(4):
            amps = np.zeros(4, dtype=complex)
            amps[j] = 1.0
            out = np.asarray(_apply_all(QState(2, amps), gates).amplitudes)
            assert out[j ^ 1] == 1.0


class TestMidpointCircuit:
    @pytest.mark.parametrize(
        "m_prime, m_double_prime, f, lo, hi",
        [
            (1, 2, RAMP, 0.0, 1.0),
            (2, 3, HAT, -1.0, 1.0),
            (3, 2, RAMP, 0.0, 1.0),
            (2, 4, constant(0.3), 0.0, 1.0),
        ],
    )
    def test_matches_classical_code_sum(self, m_prime, m_double_prime, f, lo, hi):
        alg, dist = build_reversible_midpoint(m_prime, m_double_prime, f, lo, hi)
        q = alg.query
        expected_code = sum(
            beta_code(feval(f, tau_point(j, q)), q) for j in range(1 << m_prime)
        )
        top = max(dist.entries, key=lambda e: e[1])
        assert top[0] == expected_code
        assert top[1] >= 1.0 - 1e-9
        assert alg.num_queries == 2 * (1 << m_prime)
        assert alg.nu == 2 * (m_prime + m_double_prime)

    @pytest.mark.parametrize(
        "m_prime, m_double_prime, f, lo, hi",
        [
            (1, 2, RAMP, 0.0, 1.0),
            (2, 3, HAT, -1.0, 1.0),
            (3, 3, HAT, 0.0, 1.0),
            (2, 8, RAMP, 0.0, 1.0),
        ],
    )
    def test_point_mass_is_exact(self, m_prime, m_double_prime, f, lo, hi):
        # X, mcx and the query only move amplitudes, so the mass is exactly 1
        alg, dist = build_reversible_midpoint(m_prime, m_double_prime, f, lo, hi)
        q = alg.query
        code = sum(beta_code(feval(f, tau_point(j, q)), q) for j in range(1 << m_prime))
        assert dist.entries[code][1] == 1.0
        assert all(p == 0.0 for j, p, _ in dist.entries if j != code)

    def test_single_point_mass(self):
        _, dist = build_reversible_midpoint(2, 3, HAT, -1.0, 1.0)
        ps = sorted((p for _, p, _ in dist.entries), reverse=True)
        assert ps[0] >= 1.0 - 1e-9
        assert sum(ps[1:]) <= 1e-9

    def test_constant_midrange_hits_mid_code(self):
        alg, dist = build_reversible_midpoint(2, 3, constant(0.5), 0.0, 1.0)
        top = max(dist.entries, key=lambda e: e[1])
        # each of the 4 grid codes is 2^(m''-1) = 4, so the sum is 16
        assert top[0] == 16
        assert top[2] == 0.5

    def test_quantization_literal(self):
        alg, dist = build_reversible_midpoint(2, 3, constant(0.3), 0.0, 1.0)
        top = max(dist.entries, key=lambda e: e[1])
        # beta(0.3) = floor(0.3 * 8) = 2 per grid point; decode 8/32 = 0.25
        assert top[0] == 8
        assert top[2] == 0.25
        assert abs(0.3 - top[2]) == pytest.approx(0.05, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_error_bound_on_random_class_members(self, seed):
        rng = np.random.default_rng(400 + seed)
        L = 1.0
        f = random_lipschitz_pwl(rng, L, k=6, scale=0.8)
        m_prime, m_dp = 3, 4
        alg, dist = build_reversible_midpoint(m_prime, m_dp, f, -1.0, 1.0)
        top = max(dist.entries, key=lambda e: e[1])
        n = 1 << m_prime
        quantization = 2.0 / (1 << m_dp)
        rule_error = L / (4.0 * n)
        assert abs(top[2] - exact_integral(f)) <= rule_error + quantization + 1e-12

    def test_heavyweight_case(self):
        # f(x)=x at m'=2, m''=8 fills the 20-qubit cap; estimate is exact
        alg, dist = build_reversible_midpoint(2, 8, RAMP, 0.0, 1.0)
        top = max(dist.entries, key=lambda e: e[1])
        assert top[2] == 0.5
        assert abs(top[2] - 0.5) <= 2.0**-8 + 1.0 / 16.0
        assert top[1] >= 1.0 - 1e-9

    def test_construct_only_ignores_cap(self):
        alg = midpoint_algorithm(10, 1, 0.0, 1.0)
        assert alg.nu == 22
        with pytest.raises(CapacityError):
            run(alg, RAMP)

    def test_decode_affine_fields(self):
        alg = midpoint_algorithm(2, 3, -1.0, 1.0)
        assert isinstance(alg.decode, AffineDecode)
        assert alg.decode.scale == 2.0 / 32.0
        assert alg.decode.offset == -1.0


class TestMidpointAdderSharing:
    """One adder tuple per register shape, built only for shapes within the budget."""

    def test_every_adder_slot_holds_the_one_cached_tuple(self):
        alg = midpoint_algorithm(3, 4, -1.0, 1.0)
        adders = alg.layers[1::2]
        assert len(adders) == 8 and all(a is _controlled_add_value(3, 4) for a in adders)
        assert midpoint_algorithm(3, 4, 0.0, 2.0).layers[1] is adders[0]

    @pytest.mark.parametrize("m1, m2", [(1, 1), (3, 4), (5, 2)])
    def test_one_x_gate_object_per_index_qubit(self, m1, m2):
        flips = [g for layer in midpoint_algorithm(m1, m2, -1.0, 1.0).layers
                 for g in layer if g.gate == "X"]
        assert len(flips) == (2 << m1) - m1 - 2
        assert len({id(g) for g in flips}) == m1
        assert sorted({g.targets for g in flips}) == [(q,) for q in range(m1)]

    def test_budget_is_checked_before_the_adder_is_built(self):
        before = _controlled_add_value.cache_info().currsize
        with pytest.raises(CapacityError):
            midpoint_algorithm(16, 1, 0.0, 1.0)
        assert _controlled_add_value.cache_info().currsize == before

    def test_closed_form_count_for_every_shape_within_the_budget(self):
        shapes = [(m1, m2) for m1 in range(1, MAX_QUBITS + 1) for m2 in range(1, MAX_QUBITS + 1)
                  if not _past_budget(0, _midpoint_gates(m1, m2))]
        assert len(shapes) == 244  # the most adder shapes the cache can hold
        for m1, m2 in shapes:
            # the uncached body, so this test leaves the cache as it found it
            adder = _controlled_add_value.__wrapped__(m1, m2)
            assert len(adder) == m2 * (m1 + m2) - m2 * (m2 - 1) // 2

    @pytest.mark.parametrize("m1, m2", [(1, 1), (2, 8), (15, 1), (3, 20)])
    def test_gate_count_is_the_closed_form(self, m1, m2):
        alg = midpoint_algorithm(m1, m2, 0.0, 1.0)
        assert sum(map(len, alg.layers)) == _midpoint_gates(m1, m2)


def _midpoint_gates(m1: int, m2: int) -> int:
    """Gates of the midpoint circuit: ``2^m'`` adders and ``2^{m'+1} - m' - 2`` X gates."""
    return (m2 * (m1 + m2) - m2 * (m2 - 1) // 2 << m1) + (2 << m1) - m1 - 2


#: sha256 of ``dumps_json(algorithm_to_json(a))`` followed by the space-joined
#: ``float.hex`` of ``a._program.phi``, taken when every layer was built, checked
#: and compiled afresh and ``phi`` was a scalar loop
ALGORITHM_DIGESTS = {
    "midpoint(2,8,-1,1)": (
        lambda: midpoint_algorithm(2, 8, -1.0, 1.0),
        "43156404c6b194b22c2848814390e3571cd18e984269bc8a6ad9511b5b692fe5"),
    "midpoint(3,5,-0.3,2.7)": (
        lambda: midpoint_algorithm(3, 5, -0.3, 2.7),
        "d9e9a253540456c072794cbfc2cbab278f842c7fe89750f212562553e345defe"),
    "fixture(1/40)": (
        lambda: build_bound_fixture(1 / 40).algorithm,
        "dbf295d5d8e8927d70bdcfd98dfc7edd2bd3ac17866ed899e89e58abfe686ad5"),
    "fixture(1/400)": (
        lambda: build_bound_fixture(1 / 400).algorithm,
        "ffe92f5e4ab824f54f73d0f71fc67b5cca98bfe7f275b7e93a5f73330e496673"),
    "ae(1,1,0,1)": (
        lambda: build_ae_mean(1, 1, 0.0, 1.0),
        "4aafd963efbdc23ab1787f761c194e804ccb65864b13ec5f242232dfd14a0890"),
    "ae(3,5,-1,1)": (
        lambda: build_ae_mean(3, 5, -1.0, 1.0),
        "590003ac039bd43e2c060cf2d5ef885547d1767d3ad487c2f69c4e015b2105b6"),
    "ae(5,9,0.25,0.75)": (
        lambda: build_ae_mean(5, 9, 0.25, 0.75),
        "16614236ffc450edb1cd099e099fdf697586f4df5c7861066f4b27afd9d1b8e0"),
}


@pytest.mark.parametrize("build, digest", ALGORITHM_DIGESTS.values(), ids=ALGORITHM_DIGESTS.keys())
def test_algorithm_json_and_phi_match_the_golden_digest(build, digest):
    a = build()
    h = hashlib.sha256(dumps_json(algorithm_to_json(a)).encode())
    h.update(" ".join(x.hex() for x in a._program.phi.tolist()).encode())
    assert h.hexdigest() == digest


class TestAmplitudeEstimation:
    def test_no_marked_points_reads_zero(self):
        alg = build_ae_mean(2, 3, 0.0, 1.0)
        dist = measure(run(alg, constant(0.0)), alg)
        mass_at_zero = sum(p for _, p, phi in dist.entries if phi == 0.0)
        assert mass_at_zero >= 0.75

    def test_all_marked_points_read_one(self):
        alg = build_ae_mean(2, 3, 0.0, 1.0)
        dist = measure(run(alg, constant(1.0)), alg)
        mass_at_one = sum(p for _, p, phi in dist.entries if phi == 1.0)
        assert mass_at_one >= 0.75

    def test_half_marked_is_sharp(self):
        alg = build_ae_mean(3, 4, 0.0, 1.0)
        dist = measure(run(alg, RAMP), alg)
        assert alg.num_queries == 2 * (2**4 - 1)
        assert local_error(dist, 0.5) <= 1e-12
        mass_near_half = sum(
            p for _, p, phi in dist.entries if abs(phi - 0.5) <= 1e-12
        )
        assert mass_near_half >= 1.0 - 1e-9

    def test_readout_register_grows_with_t(self):
        for t in (4, 5, 6):
            alg = build_ae_mean(3, t, 0.0, 1.0)
            assert alg.nu == 3 + 1 + t
            assert alg.num_queries == 2 * (2**t - 1)

    def test_builds_above_cap_and_fails_when_run(self):
        alg = build_ae_mean(15, 6, 0.0, 1.0)
        assert alg.nu == 22
        with pytest.raises(CapacityError):
            distribution(alg, RAMP)


#: sha256 of ``dumps_json(algorithm_to_json(build_ae_mean(*args)))``, taken when
#: every gate was built afresh; sharing the iterates' gates leaves the JSON as it was
AE_DIGESTS = {
    (1, 1, 0.0, 1.0): "a395d762cf4daed041410e28cce3ad64fc1663f02893fa2a7ff8b3dd2d45c0ba",
    (3, 5, -1.0, 1.0): "21ecdbe2fa128419f87002ac843a365eaa9819d8732c361303047013e20d92ed",
    (5, 9, 0.25, 0.75): "bdddbb770add78a80a05ee4f06709ad22d0a944bc011f9167ab1a4e79b5fa397",
}


class TestAmplitudeEstimationSharing:
    """Each readout qubit's Grover iterate is built once and repeated."""

    @pytest.mark.parametrize("args", AE_DIGESTS, ids=[f"m'={a[0]},t={a[1]}" for a in AE_DIGESTS])
    def test_json_matches_the_golden_digest(self, args):
        text = dumps_json(algorithm_to_json(build_ae_mean(*args)))
        assert hashlib.sha256(text.encode()).hexdigest() == AE_DIGESTS[args]

    @pytest.mark.parametrize("m_prime, t", [(1, 1), (1, 12), (3, 5), (5, 9)])
    def test_distinct_gate_objects(self, m_prime, t):
        layers = build_ae_mean(m_prime, t, 0.0, 1.0).layers
        # H on every qubit first; the shared H and X rows of the diffusion; a
        # cZ, a multi-controlled phase and a phase per readout qubit; the inverse QFT
        want = (m_prime + t) + 2 * m_prime + 3 * t + t * (t + 1) // 2 + t // 2
        assert len({id(g) for layer in layers for g in layer}) == want
        assert sum(map(len, layers)) == (
            ((1 << t) - 1) * (4 * m_prime + 3) + m_prime + t * (t + 3) // 2 + t // 2)

    def test_inverse_qft_lands_on_the_last_layer_only(self):
        layers = build_ae_mean(2, 3, 0.0, 1.0).layers  # readout qubits 3, 4, 5
        diffusions = layers[2::2]  # 1 + 2 + 4 iterates, each a flip layer then a diffusion
        assert all(len(d) == 4 * 2 + 2 for d in diffusions[:-1])
        assert diffusions[-1] == diffusions[-2] + inverse_qft_gates((5, 4, 3))
        # repeats share their gates: the last four iterates are readout qubit 5's
        assert all(a is b for d in diffusions[-4:-1] for a, b in zip(d, diffusions[-1]))
        assert diffusions[1][0] is diffusions[0][0]  # the H rows are shared by every readout

    def test_each_iterate_is_one_tuple_shared_by_its_copies(self):
        layers = build_ae_mean(2, 3, 0.0, 1.0).layers
        iterates = [layers[1 + 2 * i:3 + 2 * i] for i in range(7)]  # (flip, diffusion) pairs
        for run in (iterates[0:1], iterates[1:3], iterates[3:7]):  # readout k's 2^k copies
            assert all(flip is run[0][0] for flip, _ in run)
            assert all(diffusion is run[0][1] for _, diffusion in run[:3])
        # the inverse QFT goes onto a new tuple, so the other copies keep theirs
        assert iterates[6][1] is not iterates[5][1] and len(iterates[5][1]) == 4 * 2 + 2


class TestBoundFixture:
    def test_eps_one_fortieth(self):
        fx = build_bound_fixture(1.0 / 40.0)
        assert fx.algorithm.nu == 16
        assert fx.algorithm.n_eps == 16
        assert fx.algorithm.n_eps >= m_eps(1.0, fx.eps)
        assert len(fx.family) == 4
        for f, truth in zip(fx.family, fx.truths):
            assert exact_integral(f) == truth
            if f.promise is not None:
                assert check_promise(f, f.promise, 4096)

    def test_eps_one_four_hundredth(self):
        fx = build_bound_fixture(1.0 / 400.0)
        assert fx.algorithm.nu == 16
        assert fx.algorithm.n_eps == 128
        assert fx.algorithm.n_eps >= m_eps(1.0, fx.eps)

    def test_tiny_eps_exceeds_capacity_only_at_run_time(self):
        fx = build_bound_fixture(1.0 / 4000.0)
        assert fx.algorithm.nu == 22
        with pytest.raises(CapacityError):
            run(fx.algorithm, fx.family[0])

    def test_registers_dominate_log_n(self):
        for eps in (1.0 / 40.0, 1.0 / 400.0):
            fx = build_bound_fixture(eps)
            assert fx.algorithm.nu >= math.log2(fx.algorithm.n_eps)
