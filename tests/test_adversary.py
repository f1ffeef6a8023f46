"""Fooling pairs and quadrature foiling."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from qibc import (
    Design,
    Promise,
    Quadrature,
    ValidationError,
    check_promise,
    eval as feval,
    exact_integral,
    foil,
    fooling_pair,
    function_from_json,
    function_to_json,
    interval_H,
    optimal_design,
    pwl,
    worst_radius,
)
from helpers import (
    bits,
    radius_via_envelopes,
    random_design,
    riemann_integral,
    ulp_spaced_design,
    zero_data_envelopes,
)


class TestSpikeAgainstEnvelopes:
    """``worst_radius`` and ``fooling_pair`` build the zero-data spike directly;
    the general data path through ``envelopes`` is their oracle."""

    @staticmethod
    def check(d, L):
        env = zero_data_envelopes(d, L)
        assert worst_radius(d, L).hex() == interval_H(env).radius.hex()
        assert bits(fooling_pair(d, L).f_plus.points) == bits(env.upper.points)

    @pytest.mark.parametrize("L", [0.5, 1.0, 3.0])
    def test_optimal_designs(self, L):
        for n in range(1, 301):
            self.check(optimal_design(n), L)

    @pytest.mark.parametrize("make", [random_design, ulp_spaced_design])
    def test_seeded_designs(self, make):
        rng = np.random.default_rng(900 if make is random_design else 901)
        for k in range(150):
            self.check(make(rng, int(rng.integers(1, 40))), (0.5, 1.0, 3.0)[k % 3])

    def test_zero_L(self):
        d = Design((0.2, 0.7))
        assert worst_radius(d, 0.0) == 0.0 == radius_via_envelopes(d, 0.0)
        with pytest.raises(ValidationError, match=r"^fooling pairs need L > 0, got 0\.0$"):
            fooling_pair(d, 0.0)

    @pytest.mark.parametrize("L", [-1.0, math.nan, math.inf])
    def test_bad_L_keeps_the_envelopes_message(self, L):
        d = Design((0.5,))
        with pytest.raises(ValidationError) as via_envelopes:
            radius_via_envelopes(d, L)
        with pytest.raises(ValidationError) as direct:
            worst_radius(d, L)
        assert str(direct.value) == str(via_envelopes.value)
        assert str(direct.value).startswith("Lipschitz bound must be finite and >= 0")


class TestFoolingPair:
    def test_single_point_plus_member(self):
        pair = fooling_pair(Design((0.5,)), 1.0)
        for x in np.linspace(0.0, 1.0, 101):
            x = float(x)
            assert feval(pair.f_plus, x) == pytest.approx(abs(x - 0.5), abs=1e-15)
        assert exact_integral(pair.f_plus) == 0.25
        assert abs(riemann_integral(pair.f_plus, panels=1_000_000) - 0.25) < 1e-9

    def test_vanishes_on_design(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = random_design(rng, int(rng.integers(1, 9)))
            pair = fooling_pair(d, 1.0)
            for t in d.points:
                assert feval(pair.f_plus, t) == 0.0
                assert feval(pair.f_minus, t) == 0.0

    def test_two_point_gap(self):
        assert fooling_pair(Design((0.25, 0.75)), 1.0).gap == 0.25

    def test_gap_is_twice_worst_radius(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            d = random_design(rng, int(rng.integers(1, 9)))
            L = float(rng.uniform(0.5, 2.0))
            pair = fooling_pair(d, L)
            assert pair.gap == 2.0 * worst_radius(d, L)

    def test_members_pass_promise_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = random_design(rng, int(rng.integers(1, 9)))
            L = float(rng.uniform(0.5, 2.0))
            pair = fooling_pair(d, L)
            for f in (pair.f_plus, pair.f_minus):
                assert check_promise(f, f.promise, 4096) is True

    def test_minus_mirrors_plus(self):
        pair = fooling_pair(Design((0.2, 0.7)), 1.5)
        for x in np.linspace(0.0, 1.0, 101):
            x = float(x)
            assert feval(pair.f_minus, x) == -feval(pair.f_plus, x)


    @pytest.mark.parametrize("seed", range(10))
    def test_members_equal_validated_builds(self, seed):
        # both members are built through pwl(); f_minus carries -0.0
        # ordinates at the design points, which must survive validation
        rng = np.random.default_rng(800 + seed)
        d = random_design(rng, int(rng.integers(1, 40)))
        pair = fooling_pair(d, float(rng.uniform(0.1, 8.0)))
        for f in (pair.f_plus, pair.f_minus):
            built = pwl(f.points, f.promise)
            assert f == built and hash(f) == hash(built)
            assert function_from_json(function_to_json(f)) == f


class TestFoil:
    def test_midpoint_rule_n1(self):
        q = Quadrature(Design((0.5,)), (1.0,))
        assert foil(q, 1.0) == 0.25

    def test_weights_do_not_matter_on_zero_data(self):
        for w in ((1.0,), (0.0,), (-3.7,), (100.0,)):
            assert foil(Quadrature(Design((0.5,)), w), 1.0) == 0.25

    def test_composite_midpoint_n4(self):
        d = optimal_design(4)
        q = Quadrature(d, (0.25,) * 4)
        assert foil(q, 1.0) == 0.0625

    def test_matches_worst_radius_for_random_quadratures(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            d = random_design(rng, int(rng.integers(1, 9)))
            w = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=d.n))
            L = float(rng.uniform(0.5, 2.0))
            assert foil(Quadrature(d, w), L) == worst_radius(d, L)


class TestFoilAgainstFoolingPair:
    """``foil`` integrates the spike once; the fooling-pair formula is its oracle."""

    @staticmethod
    def check(q, L):
        pair = fooling_pair(q.design, L)
        phi0 = q.apply((0.0,) * q.design.n)
        want = max(
            abs(exact_integral(pair.f_plus) - phi0),
            abs(exact_integral(pair.f_minus) - phi0),
        )
        assert foil(q, L).hex() == want.hex()

    def test_optimal_designs(self):
        for n in range(1, 301):
            self.check(Quadrature(optimal_design(n), (1.0 / n,) * n), 1.0)

    def test_seeded_random_quadratures(self):
        rng = np.random.default_rng(1100)
        for _ in range(200):
            make = random_design if rng.random() < 0.5 else ulp_spaced_design
            d = make(rng, int(rng.integers(1, 40)))
            w = tuple(float(v) for v in rng.uniform(-2.0, 2.0, size=d.n))
            self.check(Quadrature(d, w), float(rng.uniform(0.1, 8.0)))

    @pytest.mark.parametrize("L", [0.0, -1.0, math.nan, math.inf])
    def test_bad_L_keeps_the_fooling_pair_message(self, L):
        q = Quadrature(Design((0.5,)), (1.0,))
        with pytest.raises(ValidationError, match=r"^fooling pairs need L > 0, got "):
            foil(q, L)


class TestQuadratureValidation:
    def test_weight_length_mismatch(self):
        with pytest.raises(ValidationError):
            Quadrature(Design((0.25, 0.75)), (1.0,))

    def test_non_finite_weight(self):
        with pytest.raises(ValidationError):
            Quadrature(Design((0.5,)), (float("nan"),))

    def test_values_must_be_real_numbers(self):
        # every value goes through float, so a Fraction or an int past int64
        # sums as its float does
        q = Quadrature(Design((0.25, 0.75)), (0.5, 0.25))
        assert q.apply((2, True)) == q.apply(np.array([2.0, 1.0])) == 1.25
        third = float(Fraction(1, 3))
        assert q.apply((Fraction(1, 3), 1.0)) == math.fsum([0.5 * third, 0.25])
        assert q.apply((2**70, 0)) == 2.0**69
        for values in ((1j, 1.0), np.array([1j, 1.0]), np.ones((2, 2)), ("a", 1.0), (10**400, 1.0)):
            with pytest.raises(ValidationError, match=r"^observed values must be real numbers"):
                q.apply(values)
