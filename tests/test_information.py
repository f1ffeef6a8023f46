"""Information operator, envelopes, radius, optimal designs, m(eps)."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qibc.information as information
from qibc import (
    CapacityError,
    DataVector,
    Design,
    Envelope,
    InfeasibleDataError,
    Promise,
    Quadrature,
    ValidationError,
    check_promise,
    constant,
    envelopes,
    eval as feval,
    foil,
    fooling_pair,
    interval_H,
    m_eps,
    observe,
    optimal_design,
    pwl,
    query_complexity,
    trig,
    worst_radius,
)
from helpers import (
    bits,
    check_consistency_scalar,
    kink_scalar,
    pairwise_consistent,
    pointwise_envelope_check,
    radius_closed_form,
    random_consistent_data,
    random_design,
    random_lipschitz_pwl,
    riemann_envelope_integrals,
    riemann_min_dist_integral,
    upper_breakpoints_scalar,
)

RAMP = pwl(((0.0, 0.0), (1.0, 1.0)))
HAT = pwl(((0.0, 0.0), (0.5, 0.5), (1.0, 0.0)))

#: Offsets from the tolerance edge ``L dt + 1e-12`` for a planted pair.
EDGE_OFFSETS = (1e-13, -1e-13, 1e-15, -1e-15, 1e-17, -1e-17, 0.0)


@st.composite
def walk_data(draw):
    """Design, consistent random-walk data and ``L``; with probability 0.7 one
    pair ``i < j`` is moved onto the tolerance edge ``L dt + 1e-12 +/- delta``."""
    ts = sorted(draw(st.sets(st.floats(0.0, 1.0), min_size=1, max_size=12)))
    L = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.1, 5.0))
    ys = [draw(st.floats(-1.0, 1.0))]
    for a, b in zip(ts, ts[1:]):
        ys.append(ys[-1] + draw(st.floats(-1.0, 1.0)) * L * (b - a))
    if len(ts) >= 2 and draw(st.integers(0, 9)) < 7:
        i, j = sorted(draw(st.sets(st.integers(0, len(ts) - 1), min_size=2, max_size=2)))
        sign = draw(st.sampled_from([1.0, -1.0]))
        edge = L * (ts[j] - ts[i]) + 1e-12 + draw(st.sampled_from(EDGE_OFFSETS))
        ys[j] = ys[i] + sign * edge
    return tuple(ts), tuple(ys), L


class TestObserve:
    def test_zero_function(self):
        assert observe(constant(0.0), Design((0.5,))).values.tolist() == [0.0]

    def test_ramp(self):
        assert observe(RAMP, Design((0.25, 0.75))).values.tolist() == [0.25, 0.75]

    def test_hat_at_peak(self):
        assert observe(HAT, Design((0.5,))).values.tolist() == [0.5]

    @given(
        st.sampled_from([
            HAT, constant(-0.0), trig((0.25, 0.5, -0.125)),
            pwl([(0.0, -0.0), (0.25, 1e-300), (math.nextafter(0.25, 1.0), 3.0), (1.0, -2.0)]),
        ]),
        st.sets(st.floats(0.0, 1.0) | st.sampled_from([0.25, 0.5, 1.0]), min_size=1, max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_per_point_eval(self, f, ts):
        d = Design(tuple(sorted(ts)))
        got = observe(f, d).values.tolist()
        assert [v.hex() for v in got] == [feval(f, t).hex() for t in d.points.tolist()]
        assert all(type(v) is float for v in got)


class TestEnvelopes:
    def test_single_cone(self):
        env = envelopes(Design((0.5,)), DataVector((0.0,)), 1.0)
        for x in np.linspace(0.0, 1.0, 101):
            x = float(x)
            assert feval(env.upper, x) == pytest.approx(abs(x - 0.5), abs=1e-15)
            assert feval(env.lower, x) == pytest.approx(-abs(x - 0.5), abs=1e-15)

    def test_two_cone_intersection(self):
        env = envelopes(Design((0.0, 1.0)), DataVector((0.0, 0.0)), 1.0)
        for x in np.linspace(0.0, 1.0, 101):
            x = float(x)
            assert feval(env.upper, x) == pytest.approx(min(x, 1.0 - x), abs=1e-15)

    def test_asymmetric_data_kink(self):
        env = envelopes(Design((0.25, 0.75)), DataVector((0.0, 0.5)), 1.0)
        assert feval(env.upper, 0.5) == 0.25

    def test_interpolates_data_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = random_design(rng, int(rng.integers(1, 8)))
            y = random_consistent_data(rng, d, 1.0)
            env = envelopes(d, DataVector(y), 1.0)
            for t, yi in zip(d.points, y):
                assert feval(env.upper, t) == yi
                assert feval(env.lower, t) == yi

    @pytest.mark.parametrize("seed", range(10))
    def test_sandwich_on_grid(self, seed):
        rng = np.random.default_rng(200 + seed)
        L = float(rng.uniform(0.5, 2.0))
        f = random_lipschitz_pwl(rng, L)
        d = random_design(rng, int(rng.integers(2, 9)))
        y = observe(f, d)
        env = envelopes(d, y, L)
        for x in np.linspace(0.0, 1.0, 1000):
            x = float(x)
            v = feval(f, x)
            assert feval(env.lower, x) <= v + 1e-12
            assert v <= feval(env.upper, x) + 1e-12

    def test_inconsistent_data_rejected(self):
        with pytest.raises(InfeasibleDataError):
            envelopes(Design((0.4, 0.6)), DataVector((0.0, 0.5)), 1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            envelopes(Design((0.4, 0.6)), DataVector((0.0,)), 1.0)

    def test_zero_lipschitz_constant_data_is_flat(self):
        env = envelopes(Design((0.2, 0.7)), DataVector((0.5, 0.5)), 0.0)
        assert env.upper.points.tolist() == env.lower.points.tolist() == [[0.0, 0.5], [1.0, 0.5]]
        assert interval_H(env).radius == 0.0

    def test_zero_lipschitz_rejects_any_variation(self):
        # 1e-13 passes the 1e-12 consistency tolerance; L = 0 still needs equality
        with pytest.raises(InfeasibleDataError, match="L = 0 requires exactly constant data"):
            envelopes(Design((0.2, 0.7)), DataVector((0.5, 0.5 + 1e-13)), 0.0)
        with pytest.raises(InfeasibleDataError):
            envelopes(Design((0.2, 0.7)), DataVector((0.5, 0.6)), 0.0)

    def test_envelope_integrals_against_riemann(self):
        rng = np.random.default_rng(11)
        d = random_design(rng, 5)
        y = random_consistent_data(rng, d, 1.0)
        rep = interval_H(envelopes(d, DataVector(y), 1.0))
        lo, hi = riemann_envelope_integrals(d.points, y, 1.0, panels=1_000_000)
        assert rep.h_lo == pytest.approx(lo, abs=1e-9)
        assert rep.h_hi == pytest.approx(hi, abs=1e-9)


#: Offsets from the ``Envelope`` tolerance edge ``upper + 1e-12`` for a planted point.
ENVELOPE_EDGE_OFFSETS = (1e-13, -1e-13, 1e-15, -1e-15, 0.0)


@st.composite
def envelope_pairs(draw):
    """An (upper, lower) pwl pair whose breakpoints are partly shared and partly
    interleaved, with ``0.0``/``-0.0`` ordinates and the lower member mostly
    below the upper; with probability 0.7 one lower breakpoint is moved onto
    the tolerance edge ``upper + 1e-12 +/- delta``."""
    inner = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    shared = sorted(draw(st.sets(inner, max_size=5)))

    def abscissae():
        start = draw(st.sampled_from([0.0, -0.0]))
        kept = {x for x in shared if draw(st.booleans())}
        return [start, *sorted(kept | draw(st.sets(inner, max_size=5))), 1.0]

    signed_zero = st.sampled_from([0.0, -0.0])
    upper = pwl([(x, draw(signed_zero | st.floats(-1.0, 1.0))) for x in abscissae()])
    lower = []
    for x in abscissae():
        if draw(st.integers(0, 9)) < 2:
            lower.append((x, draw(signed_zero)))
        else:
            lower.append((x, feval(upper, x) - draw(signed_zero | st.floats(0.0, 1.0))))
    if draw(st.integers(0, 9)) < 7:
        i = draw(st.integers(0, len(lower) - 1))
        x = lower[i][0]
        edge = information.CONSISTENCY_TOL + draw(st.sampled_from(ENVELOPE_EDGE_OFFSETS))
        lower[i] = (x, feval(upper, x) + edge)
    return upper, pwl(lower)


class TestEnvelopeCheck:
    @given(envelope_pairs())
    @settings(max_examples=1000, deadline=None)
    def test_verdict_and_message_match_pointwise_oracle(self, pair):
        upper, lower = pair
        want = pointwise_envelope_check(upper, lower)
        try:
            Envelope(upper=upper, lower=lower)
        except ValidationError as exc:
            assert str(exc) == want
        else:
            assert want is None

    @pytest.mark.parametrize("up_start, low_start", [(-0.0, 0.0), (0.0, -0.0)])
    def test_signed_zero_start_reports_the_upper_abscissa(self, up_start, low_start):
        # both members start at x=0 with different zero signs and cross there:
        # the message names the upper member's zero
        upper = pwl([(up_start, 0.0), (1.0, 1.0)])
        lower = pwl([(low_start, 0.5), (1.0, 0.0)])
        with pytest.raises(ValidationError) as exc:
            Envelope(upper=upper, lower=lower)
        assert str(exc.value) == f"lower envelope exceeds upper at x={up_start}"


def increasing_columns():
    """A strictly increasing float column, some values drawn from a shared pool."""
    pool = st.sets(st.floats(-2.0, 2.0), min_size=1, max_size=8)
    return st.tuples(pool, pool, pool).map(
        lambda p: tuple(np.array(sorted(c), dtype=float) for c in (p[0] | p[1], p[0] | p[2]))
    )


class TestMutualCounts:
    """The reverse counts derived from one search equal a second ``searchsorted``."""

    @staticmethod
    def assert_both_searches(ux, lx):
        at_up, at_low = information._mutual_counts(ux, lx)
        assert at_up.tolist() == np.searchsorted(lx, ux, side="right").tolist()
        assert at_low.tolist() == np.searchsorted(ux, lx, side="right").tolist()

    @given(envelope_pairs())
    @settings(max_examples=500, deadline=None)
    def test_envelope_pairs(self, pair):
        upper, lower = pair
        self.assert_both_searches(upper.points[:, 0], lower.points[:, 0])
        self.assert_both_searches(lower.points[:, 0], upper.points[:, 0])

    @given(increasing_columns())
    @settings(max_examples=500, deadline=None)
    def test_shared_and_disjoint_abscissae(self, cols):
        self.assert_both_searches(*cols)

    @pytest.mark.parametrize("up_start, low_start", [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)])
    def test_signed_zero_start(self, up_start, low_start):
        ux = np.array([up_start, 0.25, 0.5, 1.0])
        lx = np.array([low_start, 0.5, 0.75, 1.0])
        self.assert_both_searches(ux, lx)
        at_up, at_low = information._mutual_counts(ux, lx)
        assert at_low.tolist() == [1, 3, 3, 4]

    def test_one_column_past_the_other(self):
        self.assert_both_searches(np.array([0.0, 0.1]), np.array([0.5, 0.75, 1.0]))
        self.assert_both_searches(np.array([0.5, 0.75, 1.0]), np.array([0.0, 0.1]))


class TestConsistencyCheck:
    @given(walk_data())
    @settings(max_examples=1000, deadline=None)
    def test_verdict_matches_all_pairs_oracle(self, case):
        ts, ys, L = case
        try:
            information._check_consistency(np.array(ts), np.array(ys), L)
        except InfeasibleDataError as exc:
            assert not pairwise_consistent(ts, ys, L)
            t_i, t_j = (float(t) for t in re.search(r"t=(\S+), t=(\S+):", str(exc)).groups())
            i, j = ts.index(t_i), ts.index(t_j)
            assert i < j
            assert abs(ys[i] - ys[j]) > L * (ts[j] - ts[i]) + 1e-12
        else:
            assert pairwise_consistent(ts, ys, L)

    def test_tight_step_then_pair_on_tolerance_edge(self):
        # 0.08 -> 0.23 rises at slope exactly L, so both points carry the same
        # running key up to rounding; only the pair (0.08, 0.5) crosses the edge
        ts, ys = (0.08, 0.23, 0.5), (0.1, 0.25, 0.520000000001)
        assert not pairwise_consistent(ts, ys, 1.0)
        with pytest.raises(InfeasibleDataError, match="t=0.08, t=0.5"):
            envelopes(Design(ts), DataVector(ys), 1.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_tied_prefix_extreme_names_its_first_index(self, sign):
        # y + L t is 0.5 at the first three points (y - L t for sign -1 is
        # -0.5): the prefix extreme is tied, and the failing pair named is
        # the one with the first tied index
        ts = (0.0, 0.25, 0.5, 0.75)
        ys = tuple(sign * v for v in (0.5, 0.25, 0.0, -0.5))
        with pytest.raises(InfeasibleDataError) as exc:
            information._check_consistency(np.array(ts), np.array(ys), 1.0)
        assert str(exc.value) == (
            f"data not Lipschitz-1.0 consistent at points t=0.0, t=0.75: "
            f"|{ys[0]} - {ys[3]}| > L*dt"
        )

    def test_drift_of_adjacent_slack_rejected(self):
        # every adjacent pair sits just inside the tolerance; the ends do not
        ts = tuple(i / 8 for i in range(9))
        ys = tuple(i * (0.125 + 0.9e-12) for i in range(9))
        assert not pairwise_consistent(ts, ys, 1.0)
        with pytest.raises(InfeasibleDataError):
            envelopes(Design(ts), DataVector(ys), 1.0)


#: Two-point data on which a kink lands within ulps of ``t1`` with no float
#: ordinate on both cones; the data meet ``|dy| <= L dt`` exactly in floats.
NO_ORDINATE_ON_BOTH_CONES = [
    ((0.554050247808328, 0.623927073891864), (-0.7127837582848302, -0.7583619675067057), 0.6522650179816113),
    ((0.22036955505686318, 0.797223470989621), (0.08763161580717838, -1.6289888109369743), 2.9758321462868498),
]


def float_lipschitz_faults(ts, env, L):
    """Envelope segments with a non-design end that break ``|dy| <= L dx`` in
    floats, and design-to-design segments beyond the consistency tolerance."""
    design = set(ts)
    faults = []
    for f in (env.upper, env.lower):
        for (x0, y0), (x1, y1) in zip(f.points, f.points[1:]):
            slack = information.CONSISTENCY_TOL if {x0, x1} <= design else 0.0
            if abs(y1 - y0) > L * (x1 - x0) + slack:
                faults.append(((x0, y0), (x1, y1)))
    return faults


def record_sag_calls(monkeypatch):
    """Record ``((t, y, t2, y2, L, xk), yk)`` for every ``_sagged_ordinate`` call."""
    calls = []
    real = information._sagged_ordinate

    def record(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(information, "_sagged_ordinate", record)
    return calls


def on_both_cones(t, y, t2, y2, L, xk, yk):
    return abs(yk - y) <= L * (xk - t) and abs(y2 - yk) <= L * (t2 - xk)


@st.composite
def ulp_spaced_data(draw):
    """A design with some neighbours a few ulps apart, data stepping mostly at
    slope exactly +/-L in float arithmetic, and ``L``."""
    t = draw(st.floats(0.0, 0.5))
    ts = [t]
    for _ in range(draw(st.integers(1, 11))):
        if draw(st.integers(0, 9)) < 3:
            for _ in range(draw(st.integers(1, 4))):
                t = math.nextafter(t, 2.0)
        else:
            t += draw(st.floats(0.0, 0.5)) * (1.0 - t)
        if not ts[-1] < t <= 1.0:
            break
        ts.append(t)
    L = draw(st.sampled_from([1.0, 3.0]) | st.floats(0.1, 5.0))
    ys = [draw(st.floats(-1.0, 1.0))]
    for a, b in zip(ts, ts[1:]):
        slope = draw(st.sampled_from([1.0, -1.0]) | st.floats(-1.0, 1.0))
        ys.append(ys[-1] + slope * L * (b - a))
    return tuple(ts), tuple(ys), L


class TestSaggedOrdinate:
    def test_reached_by_design_points_two_ulp_apart(self, monkeypatch):
        calls = []
        real = information._sagged_ordinate
        monkeypatch.setattr(
            information, "_sagged_ordinate", lambda *a: calls.append(a) or real(*a)
        )
        t1 = 0.3
        t2 = math.nextafter(math.nextafter(t1, 1.0), 1.0)
        for y2 in (0.0, 1e-17, -1e-17, 2e-17):
            before = len(calls)
            env = envelopes(Design((t1, t2)), DataVector((0.0, y2)), 1.0)
            if y2 != 0.0:
                assert len(calls) > before
            assert check_promise(env.upper, Promise(1.0, -1.0, 1.0), 2)
            assert check_promise(env.lower, Promise(1.0, -1.0, 1.0), 2)
            for x, _ in env.upper.points.tolist() + env.lower.points.tolist():
                assert feval(env.lower, x) <= feval(env.upper, x)
            for t, y in ((t1, 0.0), (t2, y2)):
                assert feval(env.upper, t).hex() == y.hex()
                assert feval(env.lower, t).hex() == y.hex()

    def test_stops_at_its_floor_and_the_kink_is_dropped(self, monkeypatch):
        calls = record_sag_calls(monkeypatch)
        ts = (0.21415621562860077, 0.21415621562860085)
        ys = (0.8620520746803226, 0.8620520746803224)
        env = envelopes(Design(ts), DataVector(ys), 3.0)
        [(args, yk)] = calls
        assert yk <= min(ys)
        assert not on_both_cones(*args, yk)
        assert env.upper.points[1:3].tolist() == [[t, y] for t, y in zip(ts, ys)]
        assert float_lipschitz_faults(ts, env, 3.0) == []


class TestFloatLipschitz:
    @pytest.mark.parametrize("ts, ys, L", NO_ORDINATE_ON_BOTH_CONES)
    def test_kink_without_float_ordinate_is_dropped(self, ts, ys, L):
        assert abs(ys[1] - ys[0]) <= L * (ts[1] - ts[0])
        env = envelopes(Design(ts), DataVector(ys), L)
        promise = Promise(L, -10.0, 10.0)
        assert check_promise(env.upper, promise, 2)
        assert check_promise(env.lower, promise, 2)
        assert float_lipschitz_faults(ts, env, L) == []
        # the gap is the design chord on both envelopes
        assert env.upper.points[1:3].tolist() == env.lower.points[1:3].tolist() == [
            [t, y] for t, y in zip(ts, ys)
        ]

    @given(ulp_spaced_data())
    @settings(max_examples=300, deadline=None)
    def test_every_segment_float_lipschitz(self, case):
        ts, ys, L = case
        env = envelopes(Design(ts), DataVector(ys), L)
        assert float_lipschitz_faults(ts, env, L) == []
        for t, y in zip(ts, ys):
            assert feval(env.upper, t) == y == feval(env.lower, t)


class TestNudgesExhausted:
    """The straddle pair runs out of nudges and ``_sagged_ordinate`` takes over."""

    def _sag_call(self, monkeypatch, ts, ys, L):
        calls = record_sag_calls(monkeypatch)
        env = envelopes(Design(ts), DataVector(ys), L)
        [(args, yk)] = calls
        t, _, t2, _, _, xk = args
        # both straddle neighbours lie inside the gap, so the nudges ran out
        assert t < math.nextafter(xk, t) and math.nextafter(xk, t2) < t2
        return env, args, yk

    def test_sag_succeeds(self, monkeypatch):
        ts = (0.4642066208401521, 0.8556535249769864)
        ys = (-0.12443429572803955, -1.2987750081385425)
        env, args, yk = self._sag_call(monkeypatch, ts, ys, 3.0)
        assert on_both_cones(*args, yk)
        assert env.upper.points[1:4].tolist() == [[ts[0], ys[0]], [args[-1], yk], [ts[1], ys[1]]]
        assert float_lipschitz_faults(ts, env, 3.0) == []

    def test_sag_fails_and_kink_is_dropped(self, monkeypatch):
        ts, ys, L = NO_ORDINATE_ON_BOTH_CONES[1]
        env, args, yk = self._sag_call(monkeypatch, ts, ys, L)
        assert not on_both_cones(*args, yk)
        assert env.upper.points[1:3].tolist() == [[t, y] for t, y in zip(ts, ys)]


class TestKinkPulledOntoDesignCone:
    def test_walked_segment_holds_and_the_kink_stays(self):
        # the kink lands an ulp left of t2; its segment to t2 fails, so the
        # kink is pulled onto t2's cone, and the segment from t already
        # walked still passes with the pulled ordinate
        ts = (0.7498374010074542, 0.8924835152215899)
        ys = (-0.7253714707020835, -0.03050710000202772)
        L = 4.8712464025269435
        (t, t2), (y, y2) = ts, ys
        [(xk, yk)] = kink_scalar(t, y, t2, y2, L)
        assert xk == math.nextafter(t2, 0.0)
        assert abs(y2 - yk) > L * (t2 - xk)
        pulled = information._pull_onto_cone(yk, y2, L * (t2 - xk))
        assert pulled != yk
        env = envelopes(Design(ts), DataVector(ys), L)
        assert env.upper.points[1:4].tolist() == [[t, y], [xk, pulled], [t2, y2]]
        assert float_lipschitz_faults(ts, env, L) == []


def consistency_message(check, ts, ys, L):
    try:
        check(ts, ys, L)
    except InfeasibleDataError as exc:
        return str(exc)
    return None


class TestArrayPassAgainstScalarLadder:
    """``envelopes`` and ``_spike`` against the scalar ladder of ``helpers``:
    ``float.hex`` equality of every breakpoint, compared as bytes."""

    @staticmethod
    def assert_matches(ts, ys, L, spike=True):
        want = consistency_message(check_consistency_scalar, ts, ys, L)
        got = consistency_message(information._check_consistency, np.array(ts), np.array(ys), L)
        assert got == want
        if want is not None or L == 0.0:
            return
        env = envelopes(Design(ts), DataVector(ys), L)
        assert bits(env.upper.points) == bits(upper_breakpoints_scalar(ts, ys, L))
        neg = upper_breakpoints_scalar(ts, tuple(-v for v in ys), L)
        assert bits(env.lower.points) == bits([(x, -v) for x, v in neg])
        if spike:
            want_spike = upper_breakpoints_scalar(ts, (0.0,) * len(ts), L)
            assert bits(information._spike(Design(ts), L)[0].points) == bits(want_spike)

    @given(ulp_spaced_data())
    @settings(max_examples=100, deadline=None)
    def test_ulp_spaced_data(self, case):
        self.assert_matches(*case)

    @given(walk_data())
    @settings(max_examples=100, deadline=None)
    def test_walk_data(self, case):
        self.assert_matches(*case)

    @pytest.mark.parametrize("L", [0.5, 1.0, 3.0])
    def test_optimal_designs(self, L):
        # their zero-data envelopes are checked against this spike in test_adversary
        for n in range(1, 301):
            d = optimal_design(n)
            want = upper_breakpoints_scalar(d.points.tolist(), (0.0,) * n, L)
            assert bits(information._spike(d, L)[0].points) == bits(want), n

    def test_random_designs_n2000(self):
        for seed in range(20):
            rng = np.random.default_rng(4000 + seed)
            d = random_design(rng, 2000)
            ts = d.points.tolist()
            self.assert_matches(ts, random_consistent_data(rng, d, 1.0), 1.0, spike=False)


class TestPullOntoCone:
    def test_walks_out_addition_rounding(self):
        # 0.1 + 0.2 rounds up past the bound; one ulp back toward 0.1 passes
        y = information._pull_onto_cone(1.0, 0.1, 0.2)
        assert y == 0.3 and abs(y - 0.1) <= 0.2
        assert abs(math.nextafter(y, 1.0) - 0.1) > 0.2


def scalar_pulls(anchor, bound):
    return [information._pull_onto_cone(a + b, a, b).hex() for a, b in zip(anchor, bound)]


class TestPulledInThePass:
    """``_pulled``, the array pull of the straddle ends, against ``_pull_onto_cone``."""

    @given(st.lists(st.tuples(
        st.floats(-2.0, 2.0) | st.floats(allow_nan=False, allow_infinity=False),
        st.floats(0.0, 1.0) | st.floats(0.0, 1e-300) | st.floats(0.0, allow_infinity=False),
    ), min_size=1, max_size=30))
    @settings(max_examples=500, deadline=None)
    def test_equals_the_scalar_pull_bitwise(self, pairs):
        anchor, bound = (np.array(c, dtype=float) for c in zip(*pairs))
        got = information._pulled(anchor, bound)
        assert [v.hex() for v in got.tolist()] == scalar_pulls(anchor.tolist(), bound.tolist())

    def test_random_pairs_with_walks(self):
        rng = np.random.default_rng(7)
        anchor = rng.uniform(-1.0, 1.0, 20_000)
        bound = rng.uniform(0.0, 1.0, 20_000) * 10.0 ** rng.integers(-20, 1, 20_000)
        anchor[:2], bound[:2] = (0.1, 1e308), (0.2, 1e308)  # a walk; an overflow to inf
        got = information._pulled(anchor, bound)
        assert [v.hex() for v in got.tolist()] == scalar_pulls(anchor.tolist(), bound.tolist())
        assert got[0] == 0.3 and got[0] != 0.1 + 0.2
        assert got[1] == np.finfo(float).max
        with np.errstate(over="ignore"):
            assert 1000 < np.count_nonzero(got != anchor + bound)

    def test_scalar_repair_is_left_to_nudges_and_sags(self, monkeypatch):
        calls = []
        real = information._repaired_kinks
        monkeypatch.setattr(
            information, "_repaired_kinks", lambda *a: calls.append(a) or real(*a)
        )
        for seed in range(5):
            rng = np.random.default_rng(4000 + seed)
            d = random_design(rng, 2000)
            envelopes(d, DataVector(random_consistent_data(rng, d, 1.0)), 1.0)
        # pulling the straddle ends only in the scalar step ran it 591 times here
        assert len(calls) <= 5


class TestIntervalH:
    def test_single_point_worst_case(self):
        rep = interval_H(envelopes(Design((0.5,)), DataVector((0.0,)), 1.0))
        assert (rep.h_lo, rep.h_hi) == (-0.25, 0.25)
        assert rep.radius == 0.25

    def test_two_point_worst_case(self):
        rep = interval_H(envelopes(Design((0.25, 0.75)), DataVector((0.0, 0.0)), 1.0))
        assert rep.radius == 0.125

    def test_constant_data_shifts_center_not_radius(self):
        d = Design((0.25, 0.75))
        at_zero = interval_H(envelopes(d, DataVector((0.0, 0.0)), 1.0))
        shifted = interval_H(envelopes(d, DataVector((0.3, 0.3)), 1.0))
        # translation invariance holds to float rounding of the shifted sums
        assert shifted.radius == pytest.approx(at_zero.radius, abs=1e-15)
        assert shifted.center == pytest.approx(at_zero.center + 0.3, abs=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_maximal_at_constant_data(self, seed):
        rng = np.random.default_rng(300 + seed)
        d = random_design(rng, int(rng.integers(1, 8)))
        y = random_consistent_data(rng, d, 1.0)
        rand_rep = interval_H(envelopes(d, DataVector(y), 1.0))
        zero_rep = interval_H(envelopes(d, DataVector((0.0,) * d.n), 1.0))
        assert rand_rep.radius <= zero_rep.radius + 1e-12


class TestWorstRadius:
    @pytest.mark.parametrize(
        "points, L, expected",
        [((0.5,), 1.0, 0.25), ((0.0, 1.0), 1.0, 0.25), ((0.25, 0.75), 2.0, 0.25)],
    )
    def test_known_values(self, points, L, expected):
        assert worst_radius(Design(points), L) == expected

    def test_agrees_with_riemann_oracle(self):
        rng = np.random.default_rng(17)
        for n in (1, 3, 7):
            d = random_design(rng, n)
            oracle = riemann_min_dist_integral(d.points, 1.5, panels=1_000_000)
            assert worst_radius(d, 1.5) == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("L", [0.5, 1.0, 3.0, 7.25])
    def test_closed_form_on_random_designs(self, L):
        rng = np.random.default_rng(int(L * 4))
        for n in (1, 2, 3, 10, 100, 1000, 10_000):
            d = Design(tuple(float(t) for t in np.unique(rng.uniform(0.0, 1.0, size=n))))
            want = radius_closed_form(d, L)
            assert abs(worst_radius(d, L) - want) <= 4 * math.ulp(want), (n, L)

    @pytest.mark.parametrize("L", [0.5, 1.0, 3.0, 7.25])
    @pytest.mark.parametrize("n", [1, 2, 1000])
    def test_optimal_design_equals_L_over_4n(self, n, L):
        # bitwise only at these n: at L=1 it misses by an ulp at n=5, 11, ...
        assert worst_radius(optimal_design(n), L).hex() == (L / (4 * n)).hex()

    def test_linear_in_L(self):
        d = Design((0.1, 0.4, 0.9))
        assert worst_radius(d, 2.0) == pytest.approx(2.0 * worst_radius(d, 1.0), rel=1e-15)


class TestOptimalDesign:
    def test_n1_midpoint(self):
        assert optimal_design(1).points.tolist() == [0.5]

    def test_n2_quartiles(self):
        assert optimal_design(2).points.tolist() == [0.25, 0.75]

    def test_n4_radius(self):
        assert worst_radius(optimal_design(4), 1.0) == 0.0625

    def test_n2_grid_search_confirms_minimizer(self):
        # independent oracle: exact piecewise areas for a 2-point design,
        # int min(|x-a|, |x-b|) = a^2/2 + (b-a)^2/4 + (1-b)^2/2,
        # scanned over the 10^-3 grid
        g = np.arange(1, 1000) / 1000.0
        a, b = np.meshgrid(g, g, indexing="ij")
        obj = np.where(a < b, a**2 / 2 + (b - a) ** 2 / 4 + (1 - b) ** 2 / 2, np.inf)
        i, j = np.unravel_index(np.argmin(obj), obj.shape)
        assert (float(g[i]), float(g[j])) == (0.25, 0.75)
        assert worst_radius(optimal_design(2), 1.0) <= float(obj[i, j]) + 1e-12

    def test_invalid_sizes_rejected(self):
        for bad in (0, -3):
            with pytest.raises(ValidationError):
                optimal_design(bad)


class TestMeps:
    @pytest.mark.parametrize(
        "L, eps, expected", [(1.0, 0.25, 1), (1.0, 0.05, 5), (2.0, 0.01, 50)]
    )
    def test_known_values(self, L, eps, expected):
        assert m_eps(L, eps) == expected

    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-6, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_minimality_bracket(self, L, eps):
        m = m_eps(L, eps)
        assert L / (4.0 * m) <= eps
        if m > 1:
            assert L / (4.0 * (m - 1)) > eps

    def test_matches_achievable_radius(self):
        for eps in (0.25, 0.1, 0.03, 0.007):
            m = m_eps(1.0, eps)
            assert worst_radius(optimal_design(m), 1.0) <= eps

    @pytest.mark.parametrize(
        "L, eps", [(1.0, 5e-324), (1e200, 1e-100), (1e308, 1e-300), (2.0**53, 0.25 - 2**-54)]
    )
    def test_beyond_2_53_is_a_capacity_error(self, L, eps):
        # past 2^53 consecutive integers are not distinct floats, so the
        # bracket cannot be checked; the refusal must come at once
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=r"exceeds 2\^53"):
            m_eps(L, eps)
        assert time.perf_counter() - start < 1.0

    def test_2_53_itself_still_computed(self):
        assert m_eps(2.0**53, 0.25) == 2**53
        assert m_eps(1.0, 2.0**-55) == 2**53

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValidationError):
            m_eps(-1.0, 0.1)
        with pytest.raises(ValidationError):
            m_eps(1.0, 0.0)


class TestQueryComplexity:
    @pytest.mark.parametrize(
        "L, eps, c, expected",
        [(1.0, 0.25, 1.0, 1.0), (1.0, 0.05, 1.0, 5.0), (1.0, 0.05, 2.5, 12.5)],
    )
    def test_known_values(self, L, eps, c, expected):
        assert query_complexity(L, eps, c) == expected

    def test_monotonicity(self):
        eps_grid = np.geomspace(1e-4, 0.5, 40)
        comps = [query_complexity(1.0, float(e)) for e in eps_grid]
        assert all(a >= b for a, b in zip(comps, comps[1:]))
        L_grid = np.geomspace(0.1, 10.0, 40)
        comps_L = [query_complexity(float(L), 0.01) for L in L_grid]
        assert all(a <= b for a, b in zip(comps_L, comps_L[1:]))
        assert query_complexity(1.0, 0.01, 2.0) >= query_complexity(1.0, 0.01, 1.0)


class TestDesignValidation:
    def test_not_increasing_rejected(self):
        with pytest.raises(ValidationError):
            Design((0.9, 0.1))

    def test_out_of_domain_rejected(self):
        with pytest.raises(ValidationError):
            Design((-0.1, 0.5))
        with pytest.raises(ValidationError):
            Design((0.5, 1.5))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            Design(())

    def test_non_numeric_point_rejected(self):
        with pytest.raises(ValidationError, match="^design points must be real numbers: "):
            Design(("a",))


class TestKeptSpike:
    """One zero-data spike per design and ``L``, kept on the design."""

    @staticmethod
    def classical_hexes(d, L, weights):
        pair = fooling_pair(d, L)
        return (
            worst_radius(d, L).hex(),
            pair.gap.hex(),
            bits(pair.f_plus.points),
            bits(pair.f_minus.points),
            pair.f_plus.promise,
            foil(Quadrature(d, weights), L).hex(),
        )

    def test_three_calls_build_one_spike_per_l(self, monkeypatch):
        calls = []
        real = information._upper_breakpoints

        def counting(t, y, L):
            calls.append(L)
            return real(t, y, L)

        d = optimal_design(7)
        weights = tuple(range(1, 8))
        want = {L: self.classical_hexes(Design(d.points), L, weights) for L in (1.0, 2.5)}
        monkeypatch.setattr(information, "_upper_breakpoints", counting)
        for L, built in ((1.0, 1), (1.0, 1), (2.5, 2), (1.0, 3)):
            assert self.classical_hexes(d, L, weights) == want[L]
            assert len(calls) == built, L

    def test_the_mirror_is_negated_once_per_spike(self, monkeypatch):
        calls = []
        real = information.negate
        d = optimal_design(7)
        weights = tuple(range(1, 8))
        want = {L: self.classical_hexes(Design(d.points), L, weights) for L in (1.0, 2.5)}
        monkeypatch.setattr(information, "negate", lambda f: calls.append(f) or real(f))
        for L, built in ((1.0, 1), (1.0, 1), (2.5, 2), (1.0, 3)):
            assert self.classical_hexes(d, L, weights) == want[L]
            assert len(calls) == built, L
        assert fooling_pair(d, 1.0).f_minus is fooling_pair(d, 1.0).f_minus
        assert len(calls) == 3

    def test_every_value_matches_a_fresh_design(self):
        d = Design((0.0, 0.3, 0.31, 1.0))
        first = self.classical_hexes(d, 1.5, (0.3, -0.5, 2.0, 1.0))
        assert self.classical_hexes(d, 1.5, (1.0, 1.0, 1.0, 1.0)) == first
        assert self.classical_hexes(Design(d.points.tolist()), 1.5, (0.0,) * 4) == first

    @pytest.mark.parametrize("route", [
        lambda d: pickle.loads(pickle.dumps(d)), copy.copy, copy.deepcopy, dataclasses.replace,
    ], ids=["pickle", "copy", "deepcopy", "replace"])
    def test_copies_are_equal_with_an_empty_slot_and_a_fresh_array(self, route):
        d = optimal_design(5)
        worst_radius(d, 1.0)
        assert d._spike_slot is not None
        e = route(d)
        assert e == d and hash(e) == hash(d) and bits(e.points) == bits(d.points)
        assert e._spike_slot is None
        assert not e.points.flags.writeable and not np.shares_memory(e.points, d.points)


class TestArrayValues:
    """``Design``, ``DataVector`` and ``Quadrature`` hold read-only float arrays."""

    ARRAYS = {
        "Design": lambda: Design((0.25, 0.75)).points,
        "DataVector": lambda: DataVector((0.5, -1.0)).values,
        "Quadrature": lambda: Quadrature(Design((0.25, 0.75)), (0.5, 0.5)).weights,
        "observe": lambda: observe(RAMP, Design((0.25, 0.75))).values,
        "optimal_design": lambda: optimal_design(3).points,
    }

    @pytest.mark.parametrize("get", ARRAYS.values(), ids=ARRAYS.keys())
    def test_read_only_float_array(self, get):
        a = get()
        assert a.dtype == np.float64 and a.ndim == 1
        with pytest.raises(ValueError):
            a[0] = 0.0
        with pytest.raises(ValueError):
            a.flags.writeable = True

    def test_input_array_is_copied(self):
        src = np.array([0.25, 0.75])
        d = Design(src)
        src[0] = 0.5
        assert d.points.tolist() == [0.25, 0.75]

    @pytest.mark.parametrize("points, shown", [
        ((0.25, 0.75), "Design(points=(0.25, 0.75))"),
        ((-0.0,), "Design(points=(-0.0,))"),
        ((0.0, 0.1, 1.0), "Design(points=(0.0, 0.1, 1.0))"),
        ((1 / 6, 0.5, 5 / 6), "Design(points=(0.16666666666666666, 0.5, 0.8333333333333334))"),
    ])
    def test_eq_hash_repr_are_the_tuple_forms(self, points, shown):
        d = Design(points)
        assert repr(d) == shown
        assert hash(d) == hash((tuple(points),))
        assert d == Design(list(points)) and d != Design((0.3,)) and d != points

    def test_signed_zero_designs_are_equal(self):
        assert Design((-0.0,)) == Design((0.0,))
        assert hash(Design((-0.0,))) == hash(Design((0.0,)))
        assert repr(DataVector((-0.0, 1e-300, 2))) == "DataVector(values=(-0.0, 1e-300, 2.0))"

    def test_quadrature_value(self):
        q = Quadrature(Design((0.5,)), (1,))
        assert repr(q) == "Quadrature(design=Design(points=(0.5,)), weights=(1.0,))"
        assert hash(q) == hash((Design((0.5,)), (1.0,)))
        assert q == Quadrature(Design((0.5,)), [1.0]) != Quadrature(Design((0.5,)), (2.0,))

    @pytest.mark.parametrize("build, message", [
        (lambda: Design((0.2, -0.1, 1.5)), "design point -0.1 outside [0, 1]"),
        (lambda: Design((0.5, math.nan)), "design points must be finite, got nan"),
        (lambda: Design(np.array([2, 3])), "design point 2.0 outside [0, 1]"),
        (lambda: Design(0.5),
         "design points must be real numbers: 'float' object is not iterable"),
        (lambda: DataVector((None,)), "data values must be real numbers: float() argument must "
                                      "be a string or a real number, not 'NoneType'"),
        (lambda: DataVector((1.0, -math.inf)), "data values must be finite, got -inf"),
        (lambda: Quadrature(Design((0.5,)), (10**400,)),
         "weights must be real numbers: int too large to convert to float"),
    ])
    def test_messages_name_the_first_bad_value(self, build, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build()
