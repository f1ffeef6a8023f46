"""A function family scored in one batch, bitwise as member by member.

``worst_prob_error`` takes its truths from one trapezoid pass over the
family and evaluates a label circuit's codes for every member at once. A
label circuit's outcome on a member is one point, its hit, so the member's
local error is the distance from its truth to the hit's decoded value. Each
test below holds the batch to the single-member entry points, or to a scalar
oracle, bit for bit. Every distribution is one checked row (``_sealed``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qibc.simulator
from qibc import (
    AffineDecode,
    AlgorithmSpec,
    ValidationError,
    build_ae_mean,
    build_bound_fixture,
    constant,
    distribution,
    exact_integral,
    local_error,
    midpoint_algorithm,
    pwl,
    trig,
    verify_bound,
    worst_prob_error,
)
from qibc.functions import _integrals
from qibc.simulator import _sealed
from helpers import local_error_loop

_HUGE = 1.5e308  # two of these overflow a float sum, so their trapezoid is halved first
_ORDINATES = st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0, _HUGE])


@st.composite
def members(draw):
    """A pwl (its first abscissa may be ``-0.0``; some breakpoints dyadic), a constant or a trig."""
    kind = draw(st.sampled_from(["pwl", "constant", "trig"]))
    if kind == "constant":
        return constant(draw(_ORDINATES))
    if kind == "trig":
        cs = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5)
        return trig(draw(cs.filter(lambda c: len(c) % 2)))
    inner = draw(st.sets(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=6))
    inner |= {k / 32 for k in draw(st.sets(st.integers(1, 31), max_size=6))}
    xs = [draw(st.sampled_from([0.0, -0.0])), *sorted(inner), 1.0]
    return pwl([(x, draw(_ORDINATES)) for x in xs])


@st.composite
def circuits(draw):
    """A midpoint circuit of a drawn shape and range, or one dense amplitude-estimation circuit."""
    if draw(st.integers(0, 4)) == 0:
        return build_ae_mean(2, 3, -1.0, 1.0)
    lo = draw(st.sampled_from([-1.0, -3.0, 0.0]))
    return midpoint_algorithm(draw(st.integers(1, 4)), draw(st.integers(1, 4)), lo, lo + 2.0)


def _trapezoids(f) -> float:
    """A pwl's integral by a scalar loop: one trapezoid per segment, halved first on overflow."""
    pts = f.points.tolist()
    terms = []
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        t = (x1 - x0) * (y0 + y1) / 2.0
        terms.append(t if math.isfinite(t) else (x1 - x0) * (y0 / 2.0 + y1 / 2.0))
    return math.fsum(terms)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestWorstErrorEqualsMemberByMember:
    @given(circuits(), st.lists(members(), min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equal_to_the_single_member_calls(self, a, family):
        want = max(local_error(distribution(a, f), exact_integral(f)) for f in family)
        assert worst_prob_error(a, family).hex() == want.hex()
        oracle = max(local_error_loop(distribution(a, f), exact_integral(f)) for f in family)
        assert want.hex() == oracle.hex()

    def test_the_fixture_family_with_given_truths(self):
        fx = build_bound_fixture(1 / 40)
        a = fx.algorithm
        truths = [0.5, -0.25, 0.0, 1e-3]
        want = max(local_error(distribution(a, f), t) for f, t in zip(fx.family, truths))
        assert worst_prob_error(a, fx.family, truths).hex() == want.hex()


class TestIntegralsOfAFamily:
    @given(st.lists(members(), min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_each_equals_exact_integral(self, family):
        got = _integrals(family)
        assert _hex(got) == _hex(exact_integral(f) for f in family)
        assert _hex(v for v, f in zip(got, family) if f.family == "pwl") == _hex(
            _trapezoids(f) for f in family if f.family == "pwl")

    def test_overflow_halving_members_and_joins(self):
        # the first two members' segments overflow, and so does the sum of
        # the first member's last ordinate and the second member's first
        family = [
            pwl([(0.0, 1.0), (0.5, _HUGE), (1.0, _HUGE)]),
            pwl([(-0.0, _HUGE), (0.25, _HUGE), (1.0, 1.0)]),
            constant(_HUGE),
            pwl([(0.0, -_HUGE), (1.0, -_HUGE)]),
            trig((0.25, 1.0, -1.0)),
        ]
        got = _integrals(family)
        assert _hex(got) == _hex(exact_integral(f) for f in family)
        assert _hex(got) == _hex([_trapezoids(family[0]), _trapezoids(family[1]), _HUGE,
                                  _trapezoids(family[3]), 0.25])
        assert all(math.isfinite(v) for v in got)


def _member_by_member(a, family, truths):
    """The worst error as single-member public calls make it, errors included."""
    if truths is None:
        truths = [exact_integral(f) for f in family]
    return max(local_error(distribution(a, f), t) for f, t in zip(family, truths))


class TestBadMember:
    """A bad member raises what the member-by-member calls raise, type and message."""

    @pytest.mark.parametrize("bad, message", [
        (None, "'NoneType' object has no attribute 'family'"),
        ("x", "'str' object has no attribute 'family'"),
    ], ids=["None", "str"])
    @pytest.mark.parametrize("at", [0, 2])
    @pytest.mark.parametrize("dense", [False, True], ids=["label", "dense"])
    @pytest.mark.parametrize("given_truths", [False, True], ids=["exact", "given"])
    def test_same_exception(self, bad, message, at, dense, given_truths):
        a = build_ae_mean(2, 2, 0.0, 1.0) if dense else build_bound_fixture(1 / 40).algorithm
        family = [constant(0.5), pwl([(0.0, 0.0), (1.0, 1.0)]), constant(0.25)]
        family.insert(at, bad)
        truths = [0.5] * len(family) if given_truths else None
        with pytest.raises(Exception) as want:
            _member_by_member(a, family, truths)
        with pytest.raises(want.type) as got:
            worst_prob_error(a, family, truths)
        assert str(got.value) == str(want.value)
        if given_truths and bad is None:
            assert want.type is ValidationError
            T = a.num_queries
            assert str(want.value) == f"algorithm makes {T} queries; a function is required"
        else:
            assert want.type is AttributeError and str(want.value) == message


class TestOneBlockPerLabelFamily:
    @staticmethod
    def count(monkeypatch, name):
        calls = []
        real = getattr(qibc.simulator, name)
        monkeypatch.setattr(qibc.simulator, name, lambda *args: calls.append(args) or real(*args))
        return calls

    def test_codes_once_for_a_label_family(self, monkeypatch):
        fx = build_bound_fixture(1 / 40)
        calls = self.count(monkeypatch, "_beta")
        assert worst_prob_error(fx.algorithm, fx.family) == 1 / 64
        assert len(calls) == 1 and calls[0][0].shape == (4, fx.algorithm.query.grid_points)

    def test_codes_per_member_for_a_dense_circuit(self, monkeypatch):
        a = build_ae_mean(2, 2, 0.0, 1.0)
        family = [constant(0.5), constant(0.25), pwl([(0.0, 0.0), (1.0, 1.0)])]
        calls = self.count(monkeypatch, "_beta")
        worst_prob_error(a, family)
        assert [c[0].shape for c in calls] == [(1, 4)] * 3


class TestDecodedValuesOfALabelCircuit:
    """The program's decoded values are checked after the codes, as ``distribution`` checks them."""

    @staticmethod
    def overflowing():
        a = midpoint_algorithm(1, 2, 0.0, 1.0)
        return AlgorithmSpec(a.nu, a.query, a.layers, a.measure, AffineDecode(1e308, 0.0))

    @pytest.mark.parametrize("given_truths", [False, True], ids=["exact", "given"])
    def test_not_finite_decode_is_refused(self, given_truths):
        a = self.overflowing()
        family = [constant(0.5), pwl([(0.0, 0.0), (1.0, 1.0)])]
        truths = [0.5, 0.5] if given_truths else None
        for call in (lambda: worst_prob_error(a, family, truths),
                     lambda: verify_bound(a, family, 1.0, 1 / 40, truths=truths),
                     lambda: distribution(a, family[0])):
            with pytest.raises(ValidationError, match=r"^decoded values must be finite, got inf$"):
                call()

    def test_a_missing_member_is_named_first(self):
        a = self.overflowing()
        family = [constant(0.5), None]
        for call in (lambda: worst_prob_error(a, family, [0.5, 0.5]),
                     lambda: verify_bound(a, family, 1.0, 1 / 40, truths=[0.5, 0.5])):
            with pytest.raises(ValidationError,
                               match=r"^algorithm makes 4 queries; a function is required$"):
                call()


class TestOneRowCheck:
    """A distribution's one row gets each check, naming the first bad value."""

    J, PHI = np.arange(3), np.array([0.0, 0.5, 1.0])

    @pytest.mark.parametrize("p, message", [
        ([0.5, np.nan, np.inf], "outcome probabilities must be finite, got nan"),
        ([1.5, -0.25, -0.25], "probability of outcome 1 is -0.25"),
        ([0.25, -0.0, 0.5], "probabilities sum to 0.75, expected 1"),
    ], ids=["nan", "negative", "sum"])
    def test_messages(self, p, message):
        with pytest.raises(ValidationError, match=rf"^{message}$"):
            _sealed(self.J, np.array(p), self.PHI)

    def test_zeros_do_not_change_a_sum(self):
        # the exact sum skips zero entries; it equals fsum over every entry
        for p in ([0.1, 0.0, 0.9], [-0.0, 1.0, 0.0]):
            _, got, _ = _sealed(self.J, np.array(p), self.PHI)
            assert got.tolist() == p and not got.flags.writeable
        with pytest.raises(ValidationError, match=r"^probabilities sum to 0.0, expected 1$"):
            _sealed(self.J, np.array([-0.0, 0.0, -0.0]), self.PHI)
