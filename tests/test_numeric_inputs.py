"""Every numeric input takes one check: a bad number raises ValidationError, never a builtin.

Each site below is one constructor or entry point fed one bad value in one
numeric field. Real fields get values that do not convert to a finite float;
integer fields (qubit indices, register sizes, ``nu``, ``n``, ``t``, ``j``)
also get values with ``int(v) != v``, which used to be truncated. ``10**400``
is an integer, so it is fed to real fields only.

Every count an input sets meets one size budget, ``2^MAX_QUBITS`` items: each
size site gets the first count past it, ``10**400`` and ``10**5000`` (too long
for ``repr``, so no message may echo it), and must raise CapacityError before
it allocates or loops, well inside a second.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import qibc.circuits
import qibc.exceptions
from qibc import (
    MAX_QUBITS,
    AffineDecode,
    AlgorithmSpec,
    CapacityError,
    DataVector,
    Design,
    FoolingPair,
    GateOp,
    OutcomeCluster,
    OutcomeDistribution,
    Promise,
    QState,
    Quadrature,
    QuerySpec,
    RadiusReport,
    ValidationError,
    beta_code,
    best_cluster,
    build_ae_mean,
    build_bound_fixture,
    check_promise,
    constant,
    distribution,
    envelopes,
    eval as feval,
    extract,
    foil,
    fooling_pair,
    local_error,
    local_error_setform,
    m_eps,
    midpoint_algorithm,
    optimal_design,
    pwl,
    query_complexity,
    qubit_lower_bound,
    run,
    tau_point,
    trig,
    verify_bound,
    worst_prob_error,
    worst_radius,
    zero_state,
)
from qibc.cli import complexity_table_rows

_F = constant(0.0)
_D = Design((0.5,))
_Q = QuerySpec(1, 1, 0.0, 1.0)
_DIST = OutcomeDistribution(((0, 1.0, 0.0),))
_FIX = build_bound_fixture(0.25)
_ALG = _FIX.algorithm
_DECODE = AffineDecode(1.0, 0.0)

REAL_SITES = {
    "Promise.L": lambda v: Promise(v, 0.0, 1.0),
    "Promise.range_lo": lambda v: Promise(1.0, v, 1.0),
    "Promise.range_hi": lambda v: Promise(1.0, 0.0, v),
    "constant": lambda v: constant(v),
    "trig": lambda v: trig((v,)),
    "pwl": lambda v: pwl(((0.0, v), (1.0, 0.0))),
    "eval": lambda v: feval(_F, v),
    "Design": lambda v: Design((v,)),
    "DataVector": lambda v: DataVector((v,)),
    "RadiusReport": lambda v: RadiusReport(0.0, 0.0, v, 0.0),
    "envelopes.L": lambda v: envelopes(_D, DataVector((0.0,)), v),
    "worst_radius.L": lambda v: worst_radius(_D, v),
    "m_eps.L": lambda v: m_eps(v, 0.1),
    "m_eps.eps": lambda v: m_eps(1.0, v),
    "query_complexity.c": lambda v: query_complexity(1.0, 0.1, v),
    "FoolingPair.gap": lambda v: FoolingPair(_F, _F, v),
    "Quadrature.weights": lambda v: Quadrature(_D, (v,)),
    "fooling_pair.L": lambda v: fooling_pair(_D, v),
    "foil.L": lambda v: foil(Quadrature(_D, (1.0,)), v),
    "OutcomeCluster.mass": lambda v: OutcomeCluster((0,), v),
    "local_error.truth": lambda v: local_error(_DIST, v),
    "local_error_setform.truth": lambda v: local_error_setform(_DIST, v),
    "worst_prob_error.truths": lambda v: worst_prob_error(_ALG, [_F], [v]),
    "best_cluster.eps": lambda v: best_cluster(_DIST, v),
    "extract.eps": lambda v: extract(_DIST, v),
    "qubit_lower_bound.L": lambda v: qubit_lower_bound(v, 0.1),
    "qubit_lower_bound.eps": lambda v: qubit_lower_bound(1.0, v),
    "qubit_lower_bound.c": lambda v: qubit_lower_bound(1.0, 0.1, v),
    "verify_bound.L": lambda v: verify_bound(_ALG, _FIX.family, v, 0.25),
    "verify_bound.eps": lambda v: verify_bound(_ALG, _FIX.family, 1.0, v),
    "verify_bound.c": lambda v: verify_bound(_ALG, _FIX.family, 1.0, 0.25, v),
    "GateOp.theta": lambda v: GateOp("phase", (0,), theta=v),
    "GateOp.matrix": lambda v: GateOp("unitary", (0,), matrix=((v, 0), (0, 1))),
    "QuerySpec.range": lambda v: QuerySpec(1, 1, v, 1.0),
    "beta_code": lambda v: beta_code(v, _Q),
    "AffineDecode.scale": lambda v: AffineDecode(v, 0.0),
    "AffineDecode.offset": lambda v: AffineDecode(0.0, v),
    "OutcomeDistribution.p": lambda v: OutcomeDistribution(((0, v, 0.0),)),
    "OutcomeDistribution.phi": lambda v: OutcomeDistribution(((0, 1.0, v),)),
    "midpoint_algorithm.range": lambda v: midpoint_algorithm(1, 1, v, 1.0),
    "build_ae_mean.range": lambda v: build_ae_mean(1, 1, 0.0, v),
    "complexity_table_rows.L": lambda v: complexity_table_rows((v,), (0.1,), 1.0),
    "complexity_table_rows.eps": lambda v: complexity_table_rows((1.0,), (v,), 1.0),
    "complexity_table_rows.c": lambda v: complexity_table_rows((1.0,), (0.1,), v),
}

INT_SITES = {
    "optimal_design.n": lambda v: optimal_design(v),
    "check_promise.grid_size": lambda v: check_promise(_F, Promise(1.0, -1.0, 1.0), v),
    "zero_state.nu": lambda v: zero_state(v),
    "GateOp.targets": lambda v: GateOp("X", (v,)),
    "QuerySpec.m_prime": lambda v: QuerySpec(v, 1, 0.0, 1.0),
    "QuerySpec.m_double_prime": lambda v: QuerySpec(1, v, 0.0, 1.0),
    "tau_point.j": lambda v: tau_point(v, _Q),
    "AlgorithmSpec.nu": lambda v: AlgorithmSpec(v, None, ((),), (0,), _DECODE),
    "AlgorithmSpec.measure": lambda v: AlgorithmSpec(2, None, ((),), (v,), _DECODE),
    "OutcomeDistribution.j": lambda v: OutcomeDistribution(((v, 1.0, 0.0),)),
    "OutcomeCluster.members": lambda v: OutcomeCluster((v,), 1.0),
    "midpoint_algorithm.m_prime": lambda v: midpoint_algorithm(v, 1, 0.0, 1.0),
    "build_ae_mean.t": lambda v: build_ae_mean(1, v, 0.0, 1.0),
}

BAD_REALS = {"str": "a", "None": None, "int-overflow": 10**400, "nan": math.nan,
             "inf": math.inf, "numpy-complex": np.complex128(0.5 + 1j)}
BAD_INTS = {"str": "a", "digit-str": "1", "None": None, "nan": math.nan, "inf": math.inf,
            "fraction": 0.9, "numpy-complex": np.complex128(2)}


_TRIG = trig((0.0, 0.5, 0.0))
_TRIG_255 = trig((0.0,) * 255)  # its promise check costs grid points x 255 coefficients
_BUDGET = 1 << MAX_QUBITS

#: Each site with the first count past the budget; a register width counts as
#: the exponent of its ``2^nu`` amplitudes, ``2^m'`` grid points or ``2^m''`` codes.
SIZE_SITES = {
    "zero_state.nu": (zero_state, MAX_QUBITS + 1),
    "QState.nu": (lambda v: QState(v, (1.0,)), MAX_QUBITS + 1),
    "run.nu": (lambda v: run(AlgorithmSpec(v, None, ((),), (0,), _DECODE)), MAX_QUBITS + 1),
    "distribution.nu": (
        lambda v: distribution(AlgorithmSpec(v, None, ((),), (0,), _DECODE)), MAX_QUBITS + 1),
    "QuerySpec.m_prime": (lambda v: QuerySpec(v, 1, 0.0, 1.0), MAX_QUBITS + 1),
    "QuerySpec.m_double_prime": (lambda v: QuerySpec(1, v, 0.0, 1.0), MAX_QUBITS + 1),
    "optimal_design.n": (optimal_design, _BUDGET + 1),
    # 1,245,166 gates; m' = 15 makes 589,807
    "midpoint_algorithm.m_prime": (lambda v: midpoint_algorithm(v, 1, 0.0, 1.0), 16),
    "midpoint_algorithm.m_double_prime": (
        lambda v: midpoint_algorithm(1, v, 0.0, 1.0), MAX_QUBITS + 1),
    # 1,835,200 gates; t = 17 makes 917,676
    "build_ae_mean.t": (lambda v: build_ae_mean(1, v, 0.0, 1.0), 18),
    "build_ae_mean.m_prime": (lambda v: build_ae_mean(v, 1, 0.0, 1.0), MAX_QUBITS + 1),
    # 349,526 points x 3 coefficients = 1,048,578; 349,525 points make 1,048,575
    "check_promise.trig_grid": (
        lambda v: check_promise(_TRIG, Promise(4.0, -1.0, 1.0), v), _BUDGET // 3 + 1),
    # 4113 points x 255 coefficients = 1,048,815; 4112 points make 1,048,560
    "check_promise.trig_grid_times_coefficients": (
        lambda v: check_promise(_TRIG_255, Promise(4.0, -1.0, 1.0), v), _BUDGET // 255 + 1),
}


PAST_THE_BUDGET = {"first": None, "10**400": 10**400, "10**5000": 10**5000}


@pytest.mark.parametrize("past", PAST_THE_BUDGET.values(), ids=PAST_THE_BUDGET.keys())
@pytest.mark.parametrize("site, first", SIZE_SITES.values(), ids=SIZE_SITES.keys())
def test_size_past_the_budget_raises_capacity_error_at_once(site, first, past):
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        site(first if past is None else past)
    assert time.perf_counter() - start < 1.0


def test_an_int_too_long_to_print_is_named_not_echoed():
    with pytest.raises(ValidationError) as exc:
        optimal_design(-10**5000)
    assert str(exc.value) == "design size must be a positive int, got <int too long to print>"


def test_the_largest_sizes_still_work():
    q = QuerySpec(MAX_QUBITS, MAX_QUBITS, 0.0, 1.0)
    assert q.grid_points == _BUDGET
    assert tau_point(_BUDGET - 1, q) == (2 * _BUDGET - 1) / (2 * _BUDGET)
    assert beta_code(1.0, q) == _BUDGET - 1
    uniform = OutcomeDistribution(tuple((j, 1 / 16, float(j)) for j in range(16)))
    assert local_error_setform(uniform, 7.5) == local_error(uniform, 7.5)


def test_trig_promise_check_at_the_budget_still_works():
    assert check_promise(_TRIG_255, Promise(0.0, -1.0, 1.0), _BUDGET // 255) is True


def test_set_form_meets_the_budget_at_16_outcomes():
    # its 2^M x M mask table: 16 * 2^16 = 2^20 entries, 17 * 2^17 past the budget
    big = OutcomeDistribution(tuple((j, 1 / 17, float(j)) for j in range(17)))
    with pytest.raises(CapacityError) as exc:
        local_error_setform(big, 0.0)
    assert str(exc.value) == (
        "set form enumerates 2^M subsets; M=17 exceeds 16 (use local_error instead)"
    )


@pytest.mark.parametrize("build", [
    lambda m, other: midpoint_algorithm(m, other, 0.0, 1.0),
    lambda m, other: build_ae_mean(m, other, 0.0, 1.0),
], ids=["midpoint_algorithm", "build_ae_mean"])
def test_builders_check_the_gate_count_they_emit(build, monkeypatch):
    """The closed-form count a builder checks last is the count of gates it builds."""
    checked = []

    def recording(what, log2, count=1):
        checked.append(count << log2)
        qibc.exceptions._budget(what, log2, count)

    monkeypatch.setattr(qibc.circuits, "_budget", recording)
    for size in [(m, other) for m in (1, 2, 3) for other in (1, 2, 3, 4)]:
        gates = sum(map(len, build(*size).layers))
        assert checked[-1] == gates, size


def test_bound_fixture_past_the_budget_raises_at_once():
    start = time.perf_counter()
    with pytest.raises(
        CapacityError, match=r"^query register m_prime exceeds the size budget of 2\^20 items$"
    ):
        build_bound_fixture(1e-12)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("bad", BAD_REALS.values(), ids=BAD_REALS.keys())
@pytest.mark.parametrize("site", REAL_SITES.values(), ids=REAL_SITES.keys())
def test_bad_real_raises_validation_error(site, bad):
    with pytest.raises(ValidationError):
        site(bad)


@pytest.mark.parametrize("bad", BAD_INTS.values(), ids=BAD_INTS.keys())
@pytest.mark.parametrize("site", INT_SITES.values(), ids=INT_SITES.keys())
def test_bad_integer_raises_validation_error(site, bad):
    with pytest.raises(ValidationError):
        site(bad)


def test_integral_floats_are_taken_as_ints():
    assert optimal_design(4.0) == optimal_design(4)
    assert zero_state(2.0).nu == 2
    q = QuerySpec(2.0, 3.0, 0.0, 1.0)
    a = AlgorithmSpec(2.0, None, ((GateOp("swap", (0.0, 1.0)),),), (1.0, 0.0), _DECODE)
    ints = (zero_state(2.0).nu, q.m_prime, q.m_double_prime, a.nu, *a.measure,
            *a.layers[0][0].targets)
    assert ints == (2, 2, 3, 2, 1, 0, 0, 1)
    assert all(type(i) is int for i in ints)


def test_query_range_width_must_be_finite():
    # every value used to get code 0: beta_code divided by hi - lo = inf
    with pytest.raises(ValidationError, match=r"^query range width must be finite"):
        QuerySpec(1, 3, -1e308, 1e308)
    big = math.nextafter(math.inf, 0.0) / 2  # hi - lo is the largest float, still finite
    q = QuerySpec(1, 3, -big, big)
    assert [beta_code(v, q) for v in (-big, 0.0, big)] == [0, 4, 7]


def test_pwl_ordinate_difference_must_not_overflow():
    half = math.nextafter(math.inf, 0.0) / 2
    f = pwl(((0.0, -half), (1.0, half)))  # y1 - y0 is the largest float
    assert feval(f, 0.5) == 0.0
    with pytest.raises(ValidationError, match=r"^pwl ordinate difference overflows between"):
        pwl(((0.0, -half), (1.0, math.nextafter(half, math.inf))))
    with pytest.raises(ValidationError, match=r"\(0\.5, 1e\+308\) and \(1\.0, -1e\+308\)"):
        pwl(((0.0, 0.0), (0.5, 1e308), (1.0, -1e308)))
