"""Error functionals, extraction, and the qubit lower-bound checker."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qibc.simulator
from qibc import (
    CapacityError,
    Design,
    OutcomeDistribution,
    PremiseViolationError,
    Quadrature,
    best_cluster,
    build_ae_mean,
    build_bound_fixture,
    build_reversible_midpoint,
    constant,
    distribution,
    exact_integral,
    extract,
    foil,
    local_error,
    local_error_setform,
    measure,
    midpoint_algorithm,
    negate,
    pwl,
    qubit_lower_bound,
    report_to_json,
    run,
    verify_bound,
    worst_prob_error,
)
from helpers import local_error_loop, planted_distribution, subset_local_error

HAT = pwl(((0.0, 0.0), (0.5, 0.5), (1.0, 0.0)))
THREE = OutcomeDistribution(((0, 0.5, 1.1), (1, 0.3, 1.2), (2, 0.2, 2.0)))
TWO = OutcomeDistribution(((0, 0.5, 1.1), (1, 0.5, 2.0)))
POINT = OutcomeDistribution(((0, 1.0, 0.625),))


class TestLocalError:
    def test_point_mass_at_truth(self):
        assert local_error(POINT, 0.625) == 0.0

    def test_three_outcome_literal(self):
        assert local_error(THREE, 1.0) == pytest.approx(0.2, abs=1e-12)

    def test_two_outcome_literal(self):
        assert local_error(TWO, 1.0) == 1.0

    def test_mass_threshold_is_three_quarters(self):
        d = OutcomeDistribution(((0, 0.75, 1.0), (1, 0.25, 5.0)))
        assert local_error(d, 1.0) == 0.0


@st.composite
def tied_distributions(draw):
    """A distribution in shuffled ``j`` order, with equal-distance ties and
    zero-probability outcomes, and a truth."""
    m = draw(st.integers(1, 24))
    js = draw(st.lists(st.integers(-40, 40), min_size=m, max_size=m, unique=True))
    truth = draw(st.sampled_from([0.0, -0.0, 0.5, -0.3, 1.1]))
    offset = st.sampled_from([0.0, -0.0, 0.125, 0.25, 0.1, 1.0]) | st.floats(-2.0, 2.0)
    sign = st.sampled_from([1.0, -1.0])
    phis = [truth + draw(sign) * draw(offset) for _ in range(m)]
    weights = [draw(st.sampled_from([0.0, 1.0, 3.0]) | st.floats(0.0, 1.0)) for _ in range(m)]
    if math.fsum(weights) == 0.0:
        weights[draw(st.integers(0, m - 1))] = 1.0
    total = math.fsum(weights)
    ps = [w / total for w in weights]
    return OutcomeDistribution(tuple(zip(js, ps, phis))), truth


class TestLocalErrorEqualsLoop:
    """The column ``local_error`` against the tuple loop it replaced, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(tied_distributions())
    def test_bitwise_equal(self, case):
        dist, truth = case
        assert local_error(dist, truth).hex() == local_error_loop(dist, truth).hex()

    def test_equal_distance_ties(self):
        # j=3 and j=7 sit 0.5 either side of the truth, the zero-mass j=5 on it
        d = OutcomeDistribution(((7, 0.25, 1.5), (3, 0.5, 0.5), (5, 0.0, 1.0), (1, 0.25, 4.0)))
        assert local_error(d, 1.0) == local_error_loop(d, 1.0) == 0.5

    def test_ties_add_in_index_order(self):
        # x + a + b rounds onto the threshold 3/4 - 1e-12 and x + b + a just below
        # it, so adding the tied j=1 and j=2 in the wrong order gives 2.0
        x, a, b = 0.43395255142025857, 0.14773894590841447, 0.168308502670327
        d = OutcomeDistribution(((2, b, 0.5), (3, 0.250000000001, 3.0), (1, a, 1.5), (0, x, 1.0)))
        assert local_error(d, 1.0) == local_error_loop(d, 1.0) == 0.5

    def test_zero_probability_outcomes_add_no_mass(self):
        d = OutcomeDistribution(((0, 0.0, 1.0), (1, 0.0, 1.25), (2, 1.0, 3.0)))
        assert local_error(d, 1.0) == local_error_loop(d, 1.0) == 2.0

    @pytest.mark.parametrize("eps", [1 / 4, 1 / 40, 1 / 400])
    def test_bound_fixture_members(self, eps):
        fx = build_bound_fixture(eps)
        for f, truth in zip(fx.family, fx.truths):
            d = distribution(fx.algorithm, f)
            assert local_error(d, truth).hex() == local_error_loop(d, truth).hex()


class TestLocalErrorSetform:
    def test_same_three_inputs(self):
        assert local_error_setform(POINT, 0.625) == local_error(POINT, 0.625)
        assert local_error_setform(THREE, 1.0) == local_error(THREE, 1.0)
        assert local_error_setform(TWO, 1.0) == local_error(TWO, 1.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_equals_greedy_on_random_distributions(self, seed):
        rng = np.random.default_rng(500 + seed)
        dist = planted_distribution(rng, 0.1, 0.0, m_outcomes=int(rng.integers(2, 13)))
        truth = float(rng.uniform(-0.2, 0.2))
        assert local_error_setform(dist, truth) == pytest.approx(
            local_error(dist, truth), abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_slow_subset_oracle(self, seed):
        rng = np.random.default_rng(600 + seed)
        dist = planted_distribution(rng, 0.3, 1.0, m_outcomes=8)
        truth = float(rng.uniform(0.5, 1.5))
        assert local_error_setform(dist, truth) == pytest.approx(
            subset_local_error(dist, truth), abs=1e-12
        )
        assert local_error(dist, truth) == pytest.approx(
            subset_local_error(dist, truth), abs=1e-12
        )

    def test_capacity_limit(self):
        entries = tuple((j, 1.0 / 17.0, float(j)) for j in range(17))
        big = OutcomeDistribution(entries)
        with pytest.raises(CapacityError):
            local_error_setform(big, 0.0)


class TestWorstProbError:
    def test_single_constant_quantization(self):
        alg, _ = build_reversible_midpoint(2, 3, constant(0.3), 0.0, 1.0)
        # beta(0.3) = 2 on all four grid points, decode 8/32 = 0.25
        assert worst_prob_error(alg, [constant(0.3)]) == pytest.approx(0.05, abs=1e-12)

    def test_mirrored_pair_symmetric(self):
        alg = midpoint_algorithm(2, 3, -1.0, 1.0)
        e_plus = worst_prob_error(alg, [HAT])
        e_minus = worst_prob_error(alg, [negate(HAT)])
        assert e_plus == e_minus == 0.125
        assert worst_prob_error(alg, [HAT, negate(HAT)]) == e_plus

    def test_monotone_in_family(self):
        alg = midpoint_algorithm(2, 3, -1.0, 1.0)
        fam = [HAT, constant(0.25)]
        base = worst_prob_error(alg, fam)
        assert worst_prob_error(alg, fam + [negate(HAT)]) >= base

    def test_explicit_truths_override(self):
        alg, _ = build_reversible_midpoint(2, 3, constant(0.5), 0.0, 1.0)
        assert worst_prob_error(alg, [constant(0.5)], truths=[0.5]) == 0.0
        assert worst_prob_error(alg, [constant(0.5)], truths=[0.7]) == pytest.approx(
            0.2, abs=1e-12
        )


class TestWorstProbErrorCompilesOnce:
    """``worst_prob_error`` runs the whole family from one compile of the circuit."""

    @staticmethod
    def count_compiles(monkeypatch):
        calls = []
        compile_once = qibc.simulator._compile

        def counting(a):
            calls.append(a)
            return compile_once(a)

        monkeypatch.setattr(qibc.simulator, "_compile", counting)
        return calls

    def test_one_compile_for_the_family(self, monkeypatch):
        fx = build_bound_fixture(1 / 40)
        assert len(fx.family) == 4
        calls = self.count_compiles(monkeypatch)
        assert worst_prob_error(fx.algorithm, fx.family) == 1 / 64
        assert calls == [fx.algorithm]

    def test_second_call_compiles_nothing(self, monkeypatch):
        fx = build_bound_fixture(1 / 40)
        assert worst_prob_error(fx.algorithm, fx.family) == 1 / 64
        calls = self.count_compiles(monkeypatch)
        assert worst_prob_error(fx.algorithm, fx.family) == 1 / 64
        assert verify_bound(fx.algorithm, fx.family, L=1.0, eps=1 / 40).status == "ok"
        assert distribution(fx.algorithm, fx.family[0]) == distribution(
            fx.algorithm, fx.family[0])
        assert calls == []

    def test_capacity_error_before_compiling(self, monkeypatch):
        big = midpoint_algorithm(10, 1, 0.0, 1.0)
        calls = self.count_compiles(monkeypatch)
        with pytest.raises(CapacityError):
            worst_prob_error(big, [constant(0.5)] * 3)
        assert calls == []

    @pytest.mark.parametrize("eps", [1 / 4, 1 / 40, 1 / 400, 1e-3])
    def test_equals_per_member_distributions(self, eps):
        fx = build_bound_fixture(eps)
        a = fx.algorithm
        want = max(local_error(distribution(a, f), exact_integral(f)) for f in fx.family)
        assert worst_prob_error(a, fx.family).hex() == want.hex()

    def test_dense_circuit_runs_every_member(self):
        a = build_ae_mean(2, 3, 0.0, 1.0)  # H gates send it down the dense branch
        family = [
            pwl(((0.0, 1.0), (1.0, 0.0))),
            pwl(((0.0, 0.0), (0.5, 0.9), (1.0, 0.0))),
            pwl(((0.0, 0.0), (0.7, 0.0), (0.8, 1.0), (1.0, 1.0))),
        ]
        errors = [local_error(measure(run(a, f), a), exact_integral(f)) for f in family]
        assert errors == sorted(set(errors))  # distinct, the last member the worst
        assert worst_prob_error(a, family).hex() == errors[-1].hex()
        assert verify_bound(a, family, L=10.0, eps=0.5).achieved_error.hex() == errors[-1].hex()


class TestWorErrorLower:
    def test_delegates_to_foil(self):
        q = Quadrature(Design((0.25, 0.75)), (0.5, 0.5))
        assert foil(q, 1.0) == 0.125


class TestBestClusterAndExtract:
    def test_point_mass_any_eps(self):
        for eps in (1e-6, 0.1, 10.0):
            assert extract(POINT, eps) == 0.625

    def test_three_outcome_literal(self):
        assert extract(THREE, 0.2) == 1.1
        assert abs(extract(THREE, 0.2) - 1.0) <= 3 * 0.2

    def test_cluster_members_and_mass(self):
        c = best_cluster(THREE, 0.2)
        assert c.members == (0, 1)
        assert [THREE.entries[j][2] for j in c.members] == [1.1, 1.2]
        assert c.mass == pytest.approx(0.8, abs=1e-15)

    def test_no_qualifying_window_raises(self):
        with pytest.raises(PremiseViolationError):
            best_cluster(TWO, 0.1)
        with pytest.raises(PremiseViolationError):
            extract(TWO, 0.1)

    def test_tie_breaks_deterministic(self):
        # two windows of equal mass: the leftmost wins, then the highest-p
        # member, then the smallest phi
        d = OutcomeDistribution(
            ((0, 0.375, 0.0), (1, 0.375, 0.1), (2, 0.125, 5.0), (3, 0.125, 5.1))
        )
        assert extract(d, 0.06) == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_guarantee_on_planted_truth(self, seed):
        rng = np.random.default_rng(700 + seed)
        eps = float(rng.uniform(0.01, 1.0))
        truth = float(rng.uniform(-5.0, 5.0))
        dist = planted_distribution(rng, eps, truth)
        assert local_error(dist, truth) <= eps
        assert abs(extract(dist, eps) - truth) <= 3.0 * eps


class TestQubitLowerBound:
    def test_vacuous_case(self):
        assert qubit_lower_bound(1.0, 1.0 / 12.0) == -1.0

    def test_m_one_hundred(self):
        assert qubit_lower_bound(1.0, 1.0 / 1200.0) == math.log2(100.0) - 1.0

    def test_doubling_L_adds_one(self):
        a = qubit_lower_bound(1.0, 1.0 / 1200.0)
        b = qubit_lower_bound(2.0, 1.0 / 1200.0)
        assert b == pytest.approx(a + 1.0, abs=1e-12)

    def test_doubling_cost_adds_one(self):
        a = qubit_lower_bound(1.0, 1.0 / 1200.0, c=1.0)
        b = qubit_lower_bound(1.0, 1.0 / 1200.0, c=2.0)
        assert b == pytest.approx(a + 1.0, abs=1e-12)


class TestVerifyBound:
    def test_fixture_satisfies(self):
        fx = build_bound_fixture(1.0 / 40.0)
        rep = verify_bound(fx.algorithm, fx.family, 1.0, fx.eps)
        assert rep.status == "ok"
        assert rep.satisfied is True
        assert rep.nu >= rep.rhs - 1e-12
        assert rep.evals_ok is True
        assert 2 * rep.n_eps >= rep.evals_needed
        assert rep.classical_evals == rep.n_eps

    def test_vacuous_rhs_always_satisfied(self):
        alg, _ = build_reversible_midpoint(1, 2, constant(0.5), 0.0, 1.0)
        rep = verify_bound(alg, [constant(0.5)], 1.0, 1.0 / 12.0)
        assert rep.rhs == -1.0
        assert rep.status == "ok"
        assert rep.satisfied is True

    def test_premise_violation_flagged(self):
        alg, _ = build_reversible_midpoint(1, 1, constant(0.3), 0.0, 1.0)
        rep = verify_bound(alg, [constant(0.3)], 1.0, 0.01)
        assert rep.status == "not-applicable"
        assert rep.achieved_error > 0.01

    def test_report_json_key_order(self):
        fx = build_bound_fixture(1.0 / 40.0)
        rep = verify_bound(fx.algorithm, fx.family, 1.0, fx.eps)
        doc = report_to_json(rep)
        assert list(doc) == [
            "nu",
            "n_eps",
            "classical_evals",
            "rhs",
            "satisfied",
            "status",
            "achieved_error",
            "eps",
            "L",
            "c",
            "evals_available",
            "evals_needed",
            "evals_ok",
        ]
        assert doc["satisfied"] is True
