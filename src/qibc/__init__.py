"""qibc — worst-case integration on Lipschitz classes, a quantum query-model
simulator, and a qubit-complexity lower-bound checker.

The package is organized bottom-up:

* :mod:`qibc.functions` — serializable input functions with exact integrals;
* :mod:`qibc.information` — envelopes, the radius of information, optimal
  designs, ``m(eps)``, classical query complexity;
* :mod:`qibc.adversary` — fooling pairs and quadrature foiling;
* :mod:`qibc.simulator` — simulation of unitary layers interleaved with bit
  queries, on one basis label for permutation-plus-phase circuits and on a
  dense state vector otherwise; exact outcome distributions;
* :mod:`qibc.circuits` — built-in algorithms (reversible midpoint rule,
  amplitude estimation) and the bundled bound fixture;
* :mod:`qibc.bounds` — local/worst error functionals, outcome extraction,
  and the qubit lower-bound checker;
* :mod:`qibc.cli` — the ``qibc`` command-line front end.

Everything public is re-exported here.
"""

from .exceptions import (
    CapacityError,
    DomainError,
    InfeasibleDataError,
    PremiseViolationError,
    QibcError,
    ValidationError,
)
from .functions import (
    FunctionSpec,
    Promise,
    check_promise,
    constant,
    eval,  # noqa: A004 - name fixed by the public API
    eval_many,
    exact_integral,
    function_from_json,
    function_to_json,
    negate,
    pwl,
    trig,
)
from .information import (
    DataVector,
    Design,
    Envelope,
    RadiusReport,
    envelopes,
    interval_H,
    m_eps,
    observe,
    optimal_design,
    query_complexity,
    worst_radius,
)
from .adversary import FoolingPair, Quadrature, foil, fooling_pair
from .simulator import (
    MAX_QUBITS,
    AffineDecode,
    AlgorithmSpec,
    GateOp,
    OutcomeDistribution,
    QState,
    QuerySpec,
    Sin2Decode,
    algorithm_from_json,
    algorithm_to_json,
    apply_gate,
    beta_code,
    bit_query,
    distribution,
    distribution_from_csv,
    distribution_to_csv,
    measure,
    query_table,
    run,
    tau_point,
    zero_state,
)
from .circuits import (
    BoundFixture,
    build_ae_mean,
    build_bound_fixture,
    build_reversible_midpoint,
    inverse_qft_gates,
    mcx_gates,
    midpoint_algorithm,
    qft_gates,
)
from .bounds import (
    BoundReport,
    OutcomeCluster,
    best_cluster,
    extract,
    local_error,
    local_error_setform,
    qubit_lower_bound,
    report_to_json,
    verify_bound,
    worst_prob_error,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # exceptions
    "QibcError",
    "ValidationError",
    "DomainError",
    "InfeasibleDataError",
    "PremiseViolationError",
    "CapacityError",
    # functions
    "FunctionSpec",
    "Promise",
    "pwl",
    "constant",
    "trig",
    "eval",
    "eval_many",
    "exact_integral",
    "check_promise",
    "negate",
    "function_to_json",
    "function_from_json",
    # information
    "Design",
    "DataVector",
    "Envelope",
    "RadiusReport",
    "observe",
    "envelopes",
    "interval_H",
    "worst_radius",
    "optimal_design",
    "m_eps",
    "query_complexity",
    # adversary
    "FoolingPair",
    "Quadrature",
    "fooling_pair",
    "foil",
    # simulator
    "MAX_QUBITS",
    "QState",
    "GateOp",
    "QuerySpec",
    "AffineDecode",
    "Sin2Decode",
    "AlgorithmSpec",
    "OutcomeDistribution",
    "zero_state",
    "apply_gate",
    "bit_query",
    "beta_code",
    "tau_point",
    "query_table",
    "run",
    "measure",
    "distribution",
    "algorithm_to_json",
    "algorithm_from_json",
    "distribution_to_csv",
    "distribution_from_csv",
    # circuits
    "qft_gates",
    "inverse_qft_gates",
    "mcx_gates",
    "midpoint_algorithm",
    "build_reversible_midpoint",
    "build_ae_mean",
    "BoundFixture",
    "build_bound_fixture",
    # bounds
    "OutcomeCluster",
    "BoundReport",
    "local_error",
    "local_error_setform",
    "worst_prob_error",
    "best_cluster",
    "extract",
    "qubit_lower_bound",
    "verify_bound",
    "report_to_json",
]
