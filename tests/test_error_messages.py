"""Deliberate errors of the library's constructors and entry points: class and message.

Each site is one call that breaks one rule the library checks. The JSON
readers' errors are pinned in ``test_serialize.py``, the CLI's in
``test_cli.py`` and the numeric-input rule in ``test_numeric_inputs.py``.
"""

from __future__ import annotations

import re

import pytest

from qibc import (
    AffineDecode,
    AlgorithmSpec,
    BoundReport,
    DataVector,
    Design,
    Envelope,
    FunctionSpec,
    OutcomeCluster,
    OutcomeDistribution,
    Quadrature,
    QuerySpec,
    RadiusReport,
    ValidationError,
    bit_query,
    build_bound_fixture,
    constant,
    measure,
    pwl,
    tau_point,
    verify_bound,
    worst_prob_error,
    zero_state,
)

_F = constant(0.0)
_Q = QuerySpec(1, 1, 0.0, 1.0)
_DECODE = AffineDecode(1.0, 0.0)
_FIX = build_bound_fixture(0.25)
_REPORT = dict(nu=2, n_eps=1, classical_evals=1, rhs=0.0, satisfied=True, status="ok",
               achieved_error=0.0, eps=0.25, L=1.0, c=1.0, evals_available=2, evals_needed=1,
               evals_ok=True)

#: Each site with the message it raises, in full.
ERROR_SITES = {
    "tau_point.j-past-grid": (
        lambda: tau_point(2, _Q), "index 2 outside the 2^m' grid of 2 points"),
    "bit_query.register-width": (
        lambda: bit_query(zero_state(1), _F, _Q), "query registers need 2 qubits, state has 1"),
    "AlgorithmSpec.layer-entry": (
        lambda: AlgorithmSpec(1, None, (("H",),), (0,), _DECODE),
        "layer entry 'H' is not a GateOp"),
    "AlgorithmSpec.decode": (
        lambda: AlgorithmSpec(1, None, ((),), (0,), "sin2"), "unknown decode 'sin2'"),
    "OutcomeDistribution.empty": (
        lambda: OutcomeDistribution(()),
        "a distribution needs at least one (j, p, phi) outcome: "
        "not enough values to unpack (expected 3, got 0)"),
    "measure.state-width": (
        lambda: measure(zero_state(1), AlgorithmSpec(2, None, ((),), (0,), _DECODE)),
        "state has 1 qubits, algorithm expects 2"),
    "OutcomeCluster.empty": (
        lambda: OutcomeCluster((), 1.0), "a cluster needs at least one member"),
    "OutcomeCluster.duplicates": (
        lambda: OutcomeCluster((1, 1), 1.0), "duplicate cluster members: (1, 1)"),
    "worst_prob_error.empty-family": (
        lambda: worst_prob_error(_FIX.algorithm, []), "the function family must be nonempty"),
    "worst_prob_error.truths-length": (
        lambda: worst_prob_error(_FIX.algorithm, [_F], [0.0, 1.0]),
        "2 truths for a family of 1 functions"),
    "BoundReport.status": (
        lambda: BoundReport(**dict(_REPORT, status="maybe")), "unknown report status 'maybe'"),
    "verify_bound.no-query-spec": (
        lambda: verify_bound(AlgorithmSpec(1, None, ((),), (0,), _DECODE), [_F], 1.0, 0.25),
        "verify_bound needs an algorithm with a query spec"),
    "DataVector.empty": (lambda: DataVector(()), "a data vector needs at least one value"),
    "Envelope.non-pwl-member": (
        lambda: Envelope(upper=_F, lower=pwl(((0.0, 0.0), (1.0, 0.0)))),
        "envelope members must be piecewise-linear"),
    "RadiusReport.endpoints-out-of-order": (
        lambda: RadiusReport(1.0, 0.0, 0.0, 0.0),
        "interval endpoints out of order: [1.0, 0.0]"),
    "FunctionSpec.pwl-parameters": (
        lambda: FunctionSpec("pwl", points=((0.0, 0.0), (1.0, 0.0)), value=1.0),
        "pwl functions take exactly the 'points' parameter"),
    "FunctionSpec.trig-parameters": (
        lambda: FunctionSpec("trig", coefficients=(0.0,), value=1.0),
        "trig functions take exactly the 'coefficients' parameter"),
    "FunctionSpec.unknown-family": (
        lambda: FunctionSpec("cubic"), "unknown family 'cubic'; expected pwl | constant | trig"),
    "Quadrature.apply-length": (
        lambda: Quadrature(Design((0.5,)), (1.0,)).apply((0.0, 0.0)),
        "2 values for a 1-weight rule"),
}


@pytest.mark.parametrize("site, message", ERROR_SITES.values(), ids=ERROR_SITES.keys())
def test_error_class_and_message(site, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$") as exc:
        site()
    assert type(exc.value) is ValidationError
