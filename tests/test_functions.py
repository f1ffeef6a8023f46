"""Function families: evaluation, exact integrals, promise checks, JSON."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qibc import (
    CapacityError,
    DataVector,
    Design,
    Envelope,
    FunctionSpec,
    Promise,
    ValidationError,
    check_promise,
    constant,
    eval as feval,
    envelopes,
    eval_many,
    fooling_pair,
    exact_integral,
    function_from_json,
    function_to_json,
    interval_H,
    negate,
    pwl,
    trig,
)
from qibc.functions import _eval_grid
from helpers import (
    bits,
    exact_integral_scalar,
    list_rebuild_eval,
    random_lipschitz_pwl,
    riemann_integral,
    trig_promise_loop,
)

HAT = pwl(((0.0, 0.0), (0.5, 0.5), (1.0, 0.0)), Promise(1.0, -1.0, 1.0))
RAMP = pwl(((0.0, 0.0), (1.0, 1.0)), Promise(1.0, 0.0, 1.0))


class TestEval:
    def test_constant_zero(self):
        assert feval(constant(0.0), 0.3) == 0.0

    def test_linear_interpolation(self):
        assert feval(RAMP, 0.25) == 0.25

    def test_hat_descending_segment(self):
        assert feval(HAT, 0.75) == 0.25

    def test_exact_at_breakpoints(self):
        f = pwl(((0.0, 0.3), (0.7, -0.2), (1.0, 0.1)), Promise(1.0, -1.0, 1.0))
        assert feval(f, 0.0) == 0.3
        assert feval(f, 0.7) == -0.2
        assert feval(f, 1.0) == 0.1

    def test_eval_many_matches_eval(self):
        rng = np.random.default_rng(7)
        f = random_lipschitz_pwl(rng, 1.0)
        xs = rng.uniform(0.0, 1.0, size=64)
        vec = eval_many(f, xs)
        assert [feval(f, float(x)) for x in xs] == list(vec)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([HAT, RAMP, constant(-0.0), constant(0.3), trig((0.1, 0.5, -0.25))]),
           st.lists(st.one_of(
               st.floats(0.0, 1.0), st.floats(), st.sampled_from([-0.0, 1, True, "0.5", "a",
                                                                   None, 10**400, [0.5]])),
               max_size=12))
    def test_eval_many_is_the_scalar_loop_values_and_first_error(self, f, xs):
        def outcome(values):
            try:
                return [v.hex() for v in values()], None
            except Exception as exc:  # noqa: BLE001 - the error itself is compared
                return None, (type(exc), str(exc))

        assert outcome(lambda: eval_many(f, iter(xs))) == outcome(
            lambda: [feval(f, x) for x in xs])

    @pytest.mark.parametrize("k", [2, 3, 31, 150, 300])
    def test_bitwise_equal_to_list_rebuild_oracle(self, k):
        rng = np.random.default_rng(900 + k)
        xs = [0.0, *sorted(set(rng.uniform(0.0, 1.0, size=k - 2).tolist()) - {0.0}), 1.0]
        ys = [float(rng.choice([rng.uniform(-1.0, 1.0), 0.0, -0.0])) for _ in xs]
        f = pwl(tuple(zip(xs, ys)))
        probes = [0.0, 1.0, *rng.uniform(0.0, 1.0, size=200).tolist()]
        for x in xs:
            probes += [x, math.nextafter(x, 0.0), math.nextafter(x, 1.0)]
        for x in probes:
            assert feval(f, x).hex() == list_rebuild_eval(f, x).hex()
        for x, y in f.points:
            assert feval(f, x).hex() == y.hex()

    def test_domain_enforced(self):
        with pytest.raises(ValidationError):
            feval(HAT, 1.5)
        with pytest.raises(ValidationError):
            feval(HAT, -0.1)

    def test_trig_evaluation(self):
        f = trig((0.25, 0.5, 0.0), Promise(2.0 * math.pi, -1.0, 1.0))
        x = 0.3
        expected = 0.25 + 0.5 * math.cos(2.0 * math.pi * x)
        assert feval(f, x) == pytest.approx(expected, abs=0.0, rel=1e-15)


class TestExactIntegral:
    def test_constant_zero(self):
        assert exact_integral(constant(0.0)) == 0.0

    def test_ramp_triangle_area(self):
        assert exact_integral(RAMP) == 0.5

    def test_hat_quarter(self):
        assert exact_integral(HAT) == 0.25
        assert abs(exact_integral(HAT) - riemann_integral(HAT, panels=1_000_000)) < 1e-9

    def test_trig_only_constant_term_survives(self):
        f = trig((0.125, 0.75, -0.5), Promise(4.0 * math.pi, -2.0, 2.0))
        assert exact_integral(f) == 0.125

    def test_largest_same_sign_ordinates_stay_finite(self):
        # y0 + y1 overflows; each trapezoid halves its ordinates first instead
        big = math.nextafter(math.inf, 0.0)
        for y in (big, -big, 1e308, -1e308):
            assert exact_integral(pwl(((0.0, y), (1.0, y)))) == y
        assert exact_integral(pwl(((0.0, big), (0.5, big), (1.0, big)))) == big

    def test_one_overflowing_segment_among_finite_ones(self):
        f = pwl(((0.0, 0.0), (0.5, 1e308), (0.75, 1e308), (1.0, 0.0)))
        # only the middle segment's y0 + y1 overflows; the outer two integrate as before
        assert exact_integral(f) == math.fsum([0.5 * 1e308 / 2, 0.25 * 1e308, 0.25 * 1e308 / 2])

    def test_dyadic_integral_stays_bitwise(self):
        f = pwl(((0.0, 0.25), (0.125, -0.5), (0.5, 3.0), (1.0, 0.75)))
        assert exact_integral(f).hex() == exact_integral_scalar(f).hex()
        assert exact_integral(f) == 0.125 * -0.25 / 2 + 0.375 * 2.5 / 2 + 0.5 * 3.75 / 2

    @pytest.mark.parametrize("seed", range(5))
    def test_random_pwl_against_riemann(self, seed):
        f = random_lipschitz_pwl(np.random.default_rng(seed), 2.0)
        assert exact_integral(f) == pytest.approx(
            riemann_integral(f, panels=400_000), abs=5e-6
        )


class TestCheckPromise:
    GRID = 4096

    def test_ramp_slope_exactly_one(self):
        assert check_promise(RAMP, Promise(1.0, 0.0, 1.0), self.GRID) is True

    def test_ramp_fails_tighter_bound(self):
        assert check_promise(RAMP, Promise(0.5, 0.0, 1.0), self.GRID) is False

    def test_hat_passes(self):
        assert check_promise(HAT, Promise(1.0, -1.0, 1.0), self.GRID) is True

    def test_range_violation_detected(self):
        assert check_promise(HAT, Promise(1.0, 0.0, 0.4), self.GRID) is False

    @pytest.mark.parametrize("seed", range(10))
    def test_random_class_members_pass(self, seed):
        f = random_lipschitz_pwl(np.random.default_rng(100 + seed), 1.5)
        assert check_promise(f, f.promise, self.GRID) is True

    def test_trig_slope_bound(self):
        f = trig((0.0, 0.5, 0.0))
        ok = Promise(0.5 * 2.0 * math.pi * 1.02, -1.0, 1.0)
        bad = Promise(0.5 * 2.0 * math.pi * 0.9, -1.0, 1.0)
        assert check_promise(f, ok, self.GRID) is True
        assert check_promise(f, bad, self.GRID) is False

    def test_grid_size_validated(self):
        with pytest.raises(ValidationError):
            check_promise(HAT, Promise(1.0, -1.0, 1.0), 1)

    def test_constant_checks_its_range_only(self):
        assert check_promise(constant(0.5), Promise(0.0, 0.0, 1.0), self.GRID) is True
        assert check_promise(constant(1.5), Promise(0.0, 0.0, 1.0), self.GRID) is False


class TestNegate:
    def test_pointwise(self):
        g = negate(HAT)
        for x in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert feval(g, x) == -feval(HAT, x)

    def test_integral_flips_sign(self):
        assert exact_integral(negate(HAT)) == -0.25

    def test_constant_and_trig(self):
        promise = Promise(2.0, -1.0, 3.0)
        assert negate(constant(0.5, promise)) == constant(-0.5, Promise(2.0, -3.0, 1.0))
        g = negate(trig((0.25, -0.5, 0.0)))
        assert g == trig((-0.25, 0.5, -0.0))
        assert feval(g, 0.125) == -feval(trig((0.25, -0.5, 0.0)), 0.125)

    def test_promise_range_mirrored(self):
        f = pwl(((0.0, 0.1), (1.0, 0.9)), Promise(1.0, 0.0, 1.0))
        g = negate(f)
        assert (g.promise.range_lo, g.promise.range_hi) == (-1.0, 0.0)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("promise", [None, Promise(1.5, -2.0, 1.0)], ids=["bare", "promise"])
    def test_equals_validated_build(self, seed, promise):
        # negate keeps the abscissae and the -0.0 ordinates bit for bit
        pts = list(random_lipschitz_pwl(np.random.default_rng(seed), 1.5).points)
        i = 1 + seed % (len(pts) - 2)
        pts[i] = (pts[i][0], -0.0)
        f = pwl(pts, promise)
        g = negate(f)
        mirrored = None if promise is None else Promise(1.5, -1.0, 2.0)
        want = pwl([(x, -y) for x, y in f.points], mirrored)
        assert g == want and hash(g) == hash(want)
        assert [(x.hex(), y.hex()) for x, y in g.points] == [
            (x.hex(), y.hex()) for x, y in want.points
        ]
        assert function_from_json(function_to_json(g)) == g


@st.composite
def pwl_functions(draw):
    """A pwl with random, sometimes ulp-apart breakpoints and ``0.0``/``-0.0`` ordinates."""
    xs = {0.0, 1.0} | draw(
        st.sets(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=12)
    )
    for x in draw(st.lists(st.sampled_from(sorted(xs)), max_size=3)):
        xs.add(math.nextafter(x, 1.0) if x < 1.0 else math.nextafter(x, 0.0))
    ordinates = st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3)
    return pwl([(x, draw(ordinates)) for x in sorted(xs)])


class TestEvalPwl:
    @given(pwl_functions())
    @settings(max_examples=500, deadline=None)
    def test_bitwise_equal_to_eval(self, f):
        probes = {0.0, 1.0}
        for x, _ in f.points:
            probes |= {x, math.nextafter(x, -1.0), math.nextafter(x, 2.0)}
        xs = sorted(x for x in probes if 0.0 <= x <= 1.0)
        got = _eval_grid((f,), np.array(xs))[0].tolist()
        assert [y.hex() for y in got] == [feval(f, x).hex() for x in xs]


class TestExactIntegralAgainstScalar:
    """The array integral against the per-segment trapezoid sum it replaced."""

    @given(pwl_functions())
    @settings(max_examples=500, deadline=None)
    def test_bitwise_equal(self, f):
        assert exact_integral(f).hex() == exact_integral_scalar(f).hex()

    @pytest.mark.parametrize(
        "points",
        [
            [(0.0, -0.0), (1.0, -0.0)],
            [(0.0, 0.0), (0.5, -0.0), (1.0, 0.0)],
            [(0.0, -0.0), (0.5, 1e300), (math.nextafter(0.5, 1.0), -1e300), (1.0, -0.0)],
            [(0.0, 1.0), (math.nextafter(0.0, 1.0), -1.0), (math.nextafter(1.0, 0.0), 3.0),
             (1.0, -0.0)],
        ],
        ids=["negative-zero", "mixed-zeros", "ulp-apart-huge", "ulp-apart-ends"],
    )
    def test_signed_zeros_and_ulp_spaced_breakpoints(self, points):
        f = pwl(points)
        assert exact_integral(f).hex() == exact_integral_scalar(f).hex()


class TestArrayInput:
    """``pwl`` of an ``(n, 2)`` array is ``pwl`` of the same pairs."""

    @given(pwl_functions())
    @settings(max_examples=200, deadline=None)
    def test_equals_pairs(self, f):
        g = pwl(np.array(f.points))
        assert bits(g.points) == bits(f.points)
        assert g.points.dtype == np.float64 and g.points.shape == f.points.shape
        assert g == f and hash(g) == hash(f) and repr(g) == repr(f)

    def test_signed_zero_kept(self):
        g = pwl(np.array([[0.0, -0.0], [1.0, 0.0]]))
        assert [(x.hex(), y.hex()) for x, y in g.points] == [
            ("0x0.0p+0", "-0x0.0p+0"), ("0x1.0000000000000p+0", "0x0.0p+0")
        ]

    def test_caller_array_is_copied(self):
        arr = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 0.0]])
        f = pwl(arr)
        arr[1, 1] = 9.0
        assert f.points.tolist() == [[0.0, 0.0], [0.5, 0.5], [1.0, 0.0]]
        assert exact_integral(f) == 0.25
        assert feval(f, 0.5) == 0.5

    def test_stored_array_read_only(self):
        f = pwl(np.array([[0.0, 0.0], [1.0, 1.0]]))
        for g in (f, pwl([(0.0, 0.0), (1.0, 1.0)]), negate(f)):
            assert not g.points.flags.writeable
            with pytest.raises(ValueError):
                g.points[0, 1] = 1.0

    @pytest.mark.parametrize(
        "points",
        [
            [0.0, 0.5, 1.0],
            [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)],
            [(0.0, 1.0)],
            [(0.0, 0.0), (0.5, math.nan), (1.0, 0.0)],
            [(0.0, 0.0), (0.5, 0.0), (0.5, 1.0), (1.0, 0.0)],
            [(0.0, 0.0), (0.9, 0.0)],
            [(0.1, 0.0), (1.0, 0.0)],
        ],
        ids=["1-d", "n-by-3", "single-row", "nan", "non-increasing", "short", "late-start"],
    )
    def test_same_messages_as_pairs(self, points):
        messages = []
        for given_points in (points, np.array(points)):
            with pytest.raises(ValidationError) as info:
                pwl(given_points)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize(
        "round_trip",
        [
            lambda f: pickle.loads(pickle.dumps(f)),
            copy.deepcopy,
            copy.copy,
            lambda f: dataclasses.replace(f, promise=f.promise),
        ],
        ids=["pickle", "deepcopy", "copy", "replace"],
    )
    def test_round_trips_keep_integral_and_envelope(self, round_trip):
        env = envelopes(Design((0.2, 0.5, 0.7)), DataVector((0.1, -0.1, 0.05)), 1.0)
        upper, lower = round_trip(env.upper), round_trip(env.lower)
        assert upper == env.upper and lower == env.lower
        assert bits(upper.points) == bits(env.upper.points)
        assert not upper.points.flags.writeable
        assert exact_integral(upper).hex() == exact_integral(env.upper).hex()
        assert interval_H(Envelope(upper=upper, lower=lower)) == interval_H(env)
        f = round_trip(HAT)
        assert f == HAT and exact_integral(f) == 0.25 and check_promise(f, f.promise, 2)


_TENTH_NEXT = math.nextafter(0.1, 1.0)  # differs from 0.1 in the 17th significant digit

#: (left, right, equal): pairs of functions and whether they are equal
VALUE_TABLE = {
    "negative-zero-ordinate": (pwl([(0.0, -0.0), (1.0, 0.0)]), pwl([(0.0, 0.0), (1.0, 0.0)]),
                               True),
    "array-vs-pairs": (pwl(np.array([[0.0, 0.1], [1.0, 0.5]])), pwl([(0.0, 0.1), (1.0, 0.5)]),
                       True),
    "different-lengths": (pwl([(0.0, 0.0), (1.0, 1.0)]),
                          pwl([(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]), False),
    "pwl-vs-constant": (pwl([(0.0, 0.5), (1.0, 0.5)]), constant(0.5), False),
    "different-promises": (pwl([(0.0, 0.0), (1.0, 1.0)], Promise(1.0, 0.0, 1.0)),
                           pwl([(0.0, 0.0), (1.0, 1.0)], Promise(2.0, 0.0, 1.0)), False),
    "no-promise-vs-promise": (pwl([(0.0, 0.0), (1.0, 1.0)]),
                              pwl([(0.0, 0.0), (1.0, 1.0)], Promise(1.0, 0.0, 1.0)), False),
    "17th-digit": (pwl([(0.0, 0.1), (1.0, 0.0)]), pwl([(0.0, _TENTH_NEXT), (1.0, 0.0)]), False),
    "negative-zero-constant": (constant(-0.0), constant(0.0), True),
    "trig": (trig((0.0, 0.5, 0.0)), trig([0.0, 0.5, 0.0]), True),
}


class TestValueSemantics:
    """``points`` is an array, yet ``==``, ``hash`` and ``repr`` see values as pairs did."""

    @pytest.mark.parametrize("left, right, equal", VALUE_TABLE.values(), ids=VALUE_TABLE.keys())
    def test_equality_and_hash(self, left, right, equal):
        assert (left == right) is equal and (right == left) is equal
        assert (left != right) is not equal
        if equal:
            assert hash(left) == hash(right)
            assert len({left, right}) == 1

    @pytest.mark.parametrize("left, right, equal", VALUE_TABLE.values(), ids=VALUE_TABLE.keys())
    def test_repr_is_one_line_and_tells_values_apart(self, left, right, equal):
        assert "\n" not in repr(left)
        if not equal:
            assert repr(left) != repr(right)

    def test_repr_shows_every_breakpoint_at_full_precision(self):
        f = pwl([(0.0, _TENTH_NEXT)] + [(k / 40, 0.0) for k in range(1, 41)])
        assert repr(f) == (
            f"FunctionSpec(family='pwl', points=((0.0, {_TENTH_NEXT!r}), "
            + ", ".join(f"({k / 40!r}, 0.0)" for k in range(1, 41))
            + "), value=None, coefficients=None, promise=None)"
        )
        assert repr(_TENTH_NEXT) == "0.10000000000000002"

    def test_not_equal_to_other_types(self):
        assert pwl([(0.0, 0.0), (1.0, 1.0)]) != ((0.0, 0.0), (1.0, 1.0))
        assert constant(0.5) != 0.5


_COPIES = {
    "pickle": lambda f: pickle.loads(pickle.dumps(f)),
    "deepcopy": copy.deepcopy,
    "copy": copy.copy,
    "replace": lambda f: dataclasses.replace(f),
    "json": lambda f: function_from_json(function_to_json(f)),
}


class TestPointsReadOnly:
    """Every route to a pwl gives a ``points`` array no caller can write."""

    @staticmethod
    def pwls():
        env = envelopes(Design((0.2, 0.5, 0.7)), DataVector((0.1, -0.1, 0.05)), 1.0)
        pair = fooling_pair(Design((0.25, 0.75)), 1.0)
        return [pwl(np.array([[0.0, 0.0], [1.0, 1.0]])), HAT, negate(HAT), env.upper,
                env.lower, pair.f_plus, pair.f_minus]

    @pytest.mark.parametrize("route", [lambda f: f, *_COPIES.values()],
                             ids=["built", *_COPIES.keys()])
    def test_points_cannot_be_written(self, route):
        for f in self.pwls():
            g = route(f)
            assert g == f and bits(g.points) == bits(f.points)
            assert not g.points.flags.writeable
            with pytest.raises(ValueError):
                g.points[0, 1] = 1.0
            with pytest.raises(ValueError):
                g.points.flags.writeable = True

    @pytest.mark.parametrize("route", _COPIES.values(), ids=_COPIES.keys())
    def test_copies_hold_their_own_array(self, route):
        for f in self.pwls():
            assert not np.shares_memory(route(f).points, f.points)


@st.composite
def trig_cases(draw):
    """A trig with 0..4 harmonics, a grid size, and a promise whose range and bound
    sit on, or one ulp either side of, the grid's extreme value and difference quotient."""
    coefficient = st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0, 1e-300])
    cs = draw(st.lists(coefficient, min_size=1, max_size=9).filter(lambda c: len(c) % 2))
    f = trig(cs)
    n = draw(st.sampled_from([2, 4096, 4097, 5000]))
    m = max(n, 4096)
    xs = [i / (m - 1) for i in range(m)]
    vals = eval_many(f, xs)
    quotient = max(abs(v1 - v0) / (x1 - x0) for x0, x1, v0, v1 in zip(xs, xs[1:], vals, vals[1:]))
    nudge = draw(st.sampled_from([-math.inf, None, math.inf]))

    def near(v: float) -> float:
        return v if nudge is None else math.nextafter(v, nudge)

    L = max(0.0, near(quotient / 1.01))
    lo, hi = near(min(vals)), near(max(vals))
    if not lo < hi:
        lo, hi = lo - 1.0, hi + 1.0
    return f, Promise(L, lo, hi), n


class TestTrigPromiseArray:
    """The trig verdict as array tests against the two grid loops it replaced."""

    @given(trig_cases())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_two_loops(self, case):
        f, promise, n = case
        assert check_promise(f, promise, n) is trig_promise_loop(f, promise, n)

    @pytest.mark.parametrize("L", [0.0, 1e308, math.nextafter(math.inf, 0.0)])
    @pytest.mark.parametrize("amplitude", [0.0, 1.0, 1e307])
    def test_extreme_bounds_and_values(self, L, amplitude):
        # L * 1.01 overflows to inf for the largest bounds, in floats as in the loop
        f = trig((0.0, amplitude, -amplitude, amplitude / 2, 0.0))
        promise = Promise(L, -1e308, 1e308)
        assert check_promise(f, promise, 2) is trig_promise_loop(f, promise, 2)

    def test_coefficients_count_toward_the_budget(self):
        start = time.perf_counter()
        for f in (trig([0.0] * 257), trig([0.0] + [1e-4] * 4000)):
            with pytest.raises(CapacityError, match="^trig promise grid times coefficients "):
                check_promise(f, Promise(1.0, -1.0, 1.0), 2)
        assert time.perf_counter() - start < 1.0
        # 4096 points times 255 coefficients is inside the budget of 2^20
        assert check_promise(trig([0.0] * 255), Promise(0.0, -1.0, 1.0), 2) is True


class TestValidation:
    def test_breakpoints_must_start_at_zero(self):
        with pytest.raises(ValidationError):
            pwl(((0.1, 0.0), (1.0, 0.0)), Promise(1.0, -1.0, 1.0))

    def test_breakpoints_must_end_at_one(self):
        with pytest.raises(ValidationError):
            pwl(((0.0, 0.0), (0.9, 0.0)), Promise(1.0, -1.0, 1.0))

    def test_breakpoints_strictly_increasing(self):
        with pytest.raises(ValidationError):
            pwl(((0.0, 0.0), (0.5, 0.1), (0.5, 0.2), (1.0, 0.0)), Promise(1.0, -1.0, 1.0))

    def test_promise_range_ordered(self):
        with pytest.raises(ValidationError):
            Promise(1.0, 1.0, -1.0)

    def test_negative_lipschitz_bound_rejected(self):
        with pytest.raises(ValidationError):
            Promise(-1.0, -1.0, 1.0)

    @pytest.mark.parametrize(
        "points",
        [[(0, 1, 2), (1, 2, 3)], [(0, "a"), (1, 2)], [(0, 10**400), (1, 2)]],
        ids=["three-columns", "non-numeric", "int-overflow"],
    )
    def test_malformed_breakpoints_rejected(self, points):
        with pytest.raises(ValidationError, match="^pwl breakpoints must be "):
            pwl(points)

    def test_trig_needs_odd_coefficient_count(self):
        with pytest.raises(ValidationError):
            trig((0.0, 1.0), Promise(10.0, -2.0, 2.0))

    def test_trig_whose_magnitudes_overflow_a_sum_rejected(self):
        # eval's fsum of such terms would raise a bare OverflowError
        with pytest.raises(ValidationError, match="^trig coefficient magnitudes overflow"):
            trig((1e308, 1e308, 0.0))


class TestJson:
    def test_round_trip_pwl(self):
        doc = function_to_json(HAT)
        assert doc["family"] == "pwl"
        assert function_from_json(doc) == HAT

    def test_round_trip_constant_and_trig(self):
        for f in (constant(0.25), trig((0.1, 0.2, 0.3), Promise(9.0, -1.0, 1.0))):
            assert function_from_json(function_to_json(f)) == f

    def test_unknown_keys_rejected(self):
        doc = function_to_json(HAT)
        doc["surprise"] = 1
        with pytest.raises(ValidationError):
            function_from_json(doc)

    def test_documented_shape(self):
        doc = function_to_json(
            pwl(((0.0, 0.0), (0.5, 0.5), (1.0, 0.0)), Promise(1.0, -1.0, 1.0))
        )
        assert doc == {
            "family": "pwl",
            "points": [[0.0, 0.0], [0.5, 0.5], [1.0, 0.0]],
            "promise": {"L": 1.0, "range": [-1.0, 1.0]},
        }
