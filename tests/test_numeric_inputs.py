"""Every numeric input takes one check: a bad number raises ValidationError, never a builtin.

Each site below is one constructor or entry point fed one bad value in one
numeric field. Real fields get values that do not convert to a finite float;
integer fields (qubit indices, register sizes, ``nu``, ``n``, ``t``, ``j``)
also get values with ``int(v) != v``, which used to be truncated. ``10**400``
is an integer, so it is fed to real fields only.
"""

from __future__ import annotations

import math

import pytest

from qibc import (
    AffineDecode,
    AlgorithmSpec,
    DataVector,
    Design,
    FoolingPair,
    GateOp,
    OutcomeCluster,
    OutcomeDistribution,
    Promise,
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
             "inf": math.inf}
BAD_INTS = {"str": "a", "digit-str": "1", "None": None, "nan": math.nan, "inf": math.inf,
            "fraction": 0.9}


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
